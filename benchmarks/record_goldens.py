"""Record the golden digests of every workload entry.

    PYTHONPATH=src python3 benchmarks/record_goldens.py --seeds 1-20 \\
        --workloads poly,uq --out goldens-part.json

Runs each workload's manifest for each base seed and writes, per entry,
the sha256 of the sorted-key JSON of `Report.canonical()`.  An entry whose
verdict differs from its expected verdict gets `null` (verdict check only),
so that a known defect is not frozen into a golden.  Run it on the commit
whose reports are the reference, then merge the parts into goldens.json
with `--merge`.
"""

import argparse
import json
import sys

from worker import build_manifest, digest
from qident import cli
import workloads


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(names, seeds, smoke):
    table = {}
    for name in names:
        for seed in seeds:
            row = []
            for index, (cfg, expect) in enumerate(build_manifest(name, seed, smoke)):
                report = cli.run_one(cfg)
                if report.verdict == expect:
                    row.append(digest(report)[0])
                else:
                    row.append(None)
                    print("%s seed %d entry %d %s: expected %s, got %s; no golden"
                          % (name, seed, index, cfg.check, expect, report.verdict),
                          file=sys.stderr)
            table.setdefault(name, {})[str(seed)] = row
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1"))
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--merge", nargs="*", default=[],
                    help="merge these part files into --out instead of recording")
    args = ap.parse_args()
    if args.merge:
        merged = {"full": {}, "smoke": {}}
        for path in args.merge:
            with open(path) as handle:
                part = json.load(handle)
            for kind in merged:
                for name, seeds in part[kind].items():
                    merged[kind].setdefault(name, {}).update(seeds)
        out = merged
    else:
        names = args.workloads.split(",")
        out = {"full": record(names, args.seeds, False),
               "smoke": record(names, args.seeds, True)}
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
