"""The qident benchmark: fixed check mixes through `qident.cli.run_one`.

    python3 benchmarks/run.py --workload poly --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30
    python3 benchmarks/run.py --smoke

Run it from the repository root; it runs the sources under `src/`.  Each
workload runs in fresh single-threaded interpreters started one at a time
(see worker.py).  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of a separate traced pass.  `--workload
all` prints the end-to-end metrics of every workload.  `--smoke` runs every
workload at tiny sizes for one pass, with the digest check and the tracer,
and exits 1 if any entry fails.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("poly", "elliptic", "uq", "prime")
SETUP_SPAWNS = 10     # set-up-only interpreters per run
BUDGET_S = 175        # a run of one workload, children included, ends within this


class RunFailed(Exception):
    pass


class Runner:
    """Starts workers one at a time and ends every one of them before the
    run's time budget is spent."""

    def __init__(self, budget_s=BUDGET_S):
        self.deadline = time.monotonic() + budget_s

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("the run exceeded its time budget")
        return left

    def run(self, mode, workload, seed, *extra):
        """Run a worker to its end and return its last line parsed as JSON."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", workload, "--seed", str(seed)] + [str(x) for x in extra]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, RunFailed):
            proc.kill()
            proc.communicate()
            raise RunFailed("%s worker for %s timed out" % (mode, workload))
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed("%s worker for %s exited with code %s"
                            % (mode, workload, proc.returncode))
        return json.loads(lines[-1])

    def end_to_end(self, workload, seed, seconds, smoke=False):
        """(result of the timed worker, end-to-end metrics)."""
        setups = [self.run("setup", workload, seed)["setup_s"]
                  for _ in range(1 if smoke else SETUP_SPAWNS)]
        extra = ["--smoke", "--passes", 1] if smoke else ["--seconds", seconds]
        res = self.run("timed", workload, seed, *extra)
        metrics = {name: res[name] for name in ("wall_s", "cpu_s", "max_entry_s",
                                                "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["verdict_ok_frac"] = 1 - res["failed"] / res["attempted"]
        return res, metrics

    def per_layer(self, workload, seed, smoke=False):
        """(worker results, per-layer metrics) of one untraced and one traced
        pass."""
        flag = ["--smoke"] if smoke else []
        untraced = self.run("timed", workload, seed, "--passes", 1, *flag)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        dump = os.path.join(HERE, "out", "trace-%s-%d%s.json"
                            % (workload, seed, "-smoke" if smoke else ""))
        traced = self.run("traced", workload, seed, "--dump", dump, *flag)
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_frac"] = \
            traced["traced_wall_s"] / untraced["wall_s"] - 1
        results = [untraced, traced]
        if workload == "prime":
            twins = self.run("twins", workload, seed, *flag)
            results.append(dict(twins, prime_entry_s=untraced["entry_s"]))
        return results, metrics


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(workload, seed, results):
    """Human-readable lines: run metadata, digest coverage, failures."""
    first = results[0]
    lines = ["workload %s, seed %d, commit %s, python %s, nproc %d" % (
        workload, seed, commit(), first["python"], os.cpu_count())]
    if "passes" in first:
        lines.append("passes: %d (a closed loop with one client); unscaled median "
                     "pass: wall %.3f s, cpu %.3f s" % (
                         first["passes"], first["raw_wall_s"], first["raw_cpu_s"]))
    if all(r.get("goldens") for r in results if "goldens" in r):
        lines.append("digests: checked against the goldens for seed %d" % seed)
    else:
        lines.append("digests: no golden for seed %d, verdict check only" % seed)
    for r in results:
        for what in r.get("failures", []):
            lines.append("FAILED entry %s" % what)
    for r in results:
        if "twin_s" in r:
            lines.append("field comparison, prime / rational time on the same "
                         "configs and seeds, in reference seconds:")
            for index, rational_s in sorted(r["twin_s"].items(), key=lambda kv: int(kv[0])):
                prime_s = r["prime_entry_s"][int(index)]
                lines.append("  entry %s: prime %.3f s, rational %.3f s, ratio %.2f%s"
                             % (index, prime_s, rational_s, prime_s / rational_s,
                                " (prime slower)" if prime_s > rational_s else ""))
    return lines


def tally(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    correct = not any(r.get("wrong") for r in results)
    return correct, attempted, failed


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes, one pass, traced too")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "qident", "cli.py")):
        print("error: no qident sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    e2e_units, layer_units = declared_metrics()
    names = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    runner = Runner(BUDGET_S * len(names))
    all_results, all_metrics = [], {}
    try:
        for name in names:
            results, metrics, units = [], {}, {}
            if args.smoke or not args.trace:
                res, e2e = runner.end_to_end(name, args.seed, args.seconds, args.smoke)
                results.append(res)
                metrics.update(e2e)
                units.update(e2e_units)
            if args.smoke or args.trace:
                res, layers = runner.per_layer(name, args.seed, args.smoke)
                results.extend(res)
                metrics.update(layers)
                units.update(layer_units)
            if set(metrics) != set(units):
                raise RunFailed("metrics %s do not match BENCHMARK.json"
                                  % sorted(set(metrics) ^ set(units)))
            prefix = name + "." if len(names) > 1 else ""
            for line in describe(name, args.seed, results):
                print(line)
            for metric in units:
                print("  %-48s %14.6g %s" % (prefix + metric, metrics[metric], units[metric]))
                all_metrics[prefix + metric] = {"value": metrics[metric],
                                                "unit": units[metric]}
            all_results.extend(results)
    except RunFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    correct, attempted, failed = tally(all_results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    if args.smoke and (failed or not correct):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
