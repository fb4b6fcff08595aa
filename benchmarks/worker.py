"""One workload in one fresh interpreter.

    python3 benchmarks/worker.py MODE --workload NAME --seed S [options]

MODE is `setup` (time the import of `qident.cli` and the building of the
manifest, then exit), `timed` (passes of the mix with tracing off),
`traced` (layer kernels, then one pass with every layer boundary traced) or
`twins` (the rational twins of the prime entries).  Times are in reference
seconds (see calib.py).  Every mode prints one JSON object as its last
line.  Run it with `src` on PYTHONPATH; `run.py` does that.
"""

import time

# qident is the first thing this fresh interpreter imports, so the set-up
# time includes every module it pulls in.
IMPORT_START = time.perf_counter()
from qident import cli                      # noqa: E402
from qident.reporting import RunConfig      # noqa: E402
IMPORT_S = time.perf_counter() - IMPORT_START

import argparse                             # noqa: E402
import hashlib                              # noqa: E402
import json                                 # noqa: E402
import os                                   # noqa: E402
import platform                             # noqa: E402
import resource                             # noqa: E402
import statistics                           # noqa: E402
import sys                                  # noqa: E402

import calib                                # noqa: E402
import workloads                            # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIELD_TWINS = ("jing", "pp", "rll", "singular")


def build_manifest(name, seed, smoke):
    """(RunConfig, expected verdict) per entry; entry k uses seed s + k."""
    mix = (workloads.SMOKE if smoke else workloads.WORKLOADS)[name]
    return [(RunConfig.from_dict(dict(e["config"], seed=seed + k, trials=1)),
             e["expect"]) for k, e in enumerate(mix)]


def digest(report):
    """sha256 hex digest and length of the sorted-key JSON of
    `Report.canonical()`."""
    canonical = json.dumps(report.canonical(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest(), len(canonical)


def load_goldens(name, seed, smoke):
    """Golden digests for this workload and seed, or None if not recorded."""
    with open(os.path.join(HERE, "goldens.json")) as handle:
        table = json.load(handle)
    return table["smoke" if smoke else "full"].get(name, {}).get(str(seed))


class Checker:
    """Compares each report with its expected verdict and golden digest.

    An entry fails when either differs.  An `error` verdict is a failed
    operation; any other wrong verdict, or a right verdict with a wrong
    digest, is a wrong answer and makes the run incorrect.
    """

    def __init__(self, goldens):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = []

    def check(self, index, cfg, expect, report):
        self.attempted += 1
        found, size = digest(report)
        golden = self.goldens[index] if self.goldens else None
        bad_digest = golden is not None and found != golden
        if report.verdict == expect and not bad_digest:
            return size
        self.failed += 1
        what = "%d %s: expected %s, got %s%s" % (
            index, cfg.check, expect, report.verdict,
            " with a digest that differs from the golden" if bad_digest else "")
        if what not in self.failures:
            self.failures.append(what)
        if report.verdict != "error" and what not in self.wrong:
            self.wrong.append(what)
        return size


def run_pass(manifest, checker, clock, tracer=None):
    """Run every entry once.

    Returns one (wall, cpu, reference wall, reference cpu) row of seconds
    per entry and the total canonical report bytes.  With a tracer, each
    report is also serialised as `--json` does it, outside the timed region.
    """
    rows = []
    report_bytes = 0
    for index, (cfg, expect) in enumerate(manifest):
        if tracer:
            tracer.entry = index
        report, times = clock.call(cli.run_one, cfg)
        rows.append(times)
        if tracer:
            report.to_json()
        report_bytes += checker.check(index, cfg, expect, report)
    return rows, report_bytes


def timed(manifest, checker, seconds, passes):
    """Passes until the next one would end past `seconds`, or exactly
    `passes` of them.  Entry times are medians over the passes."""
    clock = calib.Clock()
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_pass(manifest, checker, clock)[0])
        if passes:
            if len(runs) >= passes:
                break
        elif (time.perf_counter() - start) * (len(runs) + 1) / len(runs) > seconds:
            break
    entries = list(zip(*runs))    # entries[k][p] = row of entry k in pass p
    ref_s = [statistics.median(row[2] for row in e) for e in entries]
    ref_cpu = [statistics.median(row[3] for row in e) for e in entries]
    return {
        "passes": len(runs),
        "wall_s": sum(ref_s),
        "cpu_s": sum(ref_cpu),
        "max_entry_s": max(ref_s),
        "entry_s": ref_s,
        "raw_wall_s": statistics.median(sum(r[0] for r in run) for run in runs),
        "raw_cpu_s": statistics.median(sum(r[1] for r in run) for run in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def field_twins(manifest):
    """Reference seconds of the rational twin of each prime entry whose
    check is in FIELD_TWINS."""
    clock = calib.Clock()
    out = {}
    for index, (cfg, _) in enumerate(manifest):
        if cfg.field == "prime" and cfg.check in FIELD_TWINS and not cfg.mutate:
            twin = RunConfig.from_dict(dict(cfg.to_dict(), field="rational"))
            out[index] = clock.call(cli.run_one, twin)[1][2]
    return out


def traced(manifest, checker, seed, smoke, dump_path):
    import kernels
    import tracer
    metrics = kernels.run(seed, quick=smoke)
    clock = calib.Clock()
    spans = tracer.install_all()
    try:
        rows, report_bytes = run_pass(manifest, checker, clock, spans)
    finally:
        spans.remove()
    metrics.update(tracer.layer_metrics(spans))
    metrics["reporting.report_bytes"] = report_bytes
    if dump_path:
        spans.dump(dump_path)
    return {"traced_wall_s": sum(row[2] for row in rows), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "timed", "traced", "twins"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (0: fill --seconds)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--dump", default="", help="write the spans to this file")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    manifest = build_manifest(args.workload, args.seed, args.smoke)
    if args.mode == "setup":
        setup_s = IMPORT_S + time.perf_counter() - start
        print(json.dumps({"setup_s": setup_s * calib.import_scale()}))
        return 0
    goldens = load_goldens(args.workload, args.seed, args.smoke)
    checker = Checker(goldens)
    if args.mode == "timed":
        out = timed(manifest, checker, args.seconds, args.passes)
    elif args.mode == "twins":
        out = {"twin_s": field_twins(manifest)}
    else:
        out = traced(manifest, checker, args.seed, args.smoke, args.dump)
    out.update({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "wrong": checker.wrong,
        "goldens": goldens is not None,
        "python": platform.python_version(),
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
