"""The benchmark's own tests: `python3 -m pytest benchmarks`.

The smoke run exercises every workload, the digest check and the tracer at
tiny sizes; it has no timing bound.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer      # noqa: E402
import workloads   # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_declared_metric_and_no_failure():
    proc = run_bench(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # one timed pass, one untraced and one traced pass per workload
    assert result["attempted"] == 3 * sum(len(m) for m in workloads.SMOKE.values())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expected = {"%s.%s" % (w, m) for w in workloads.WORKLOADS for m in declared}
    assert set(result["metrics"]) == expected
    assert "digests: checked against the goldens for seed 1" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "poly", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_and_every_binding_name():
    from qident import polyweights, residues, uqrep
    spans = tracer.Tracer(hot=["polyweights.weight"])
    original = polyweights.weight
    spans.install("polyweights.weight", polyweights, "weight")
    try:
        assert residues.weight is polyweights.weight is uqrep.weight
        assert polyweights.weight is not original
        outer = spans.wrap("outer", lambda: residues.weight(None, (), None))
        with pytest.raises(Exception):
            outer()
    finally:
        spans.remove()
    assert residues.weight is original and uqrep.weight is original
    assert spans.calls_under("polyweights.weight", "outer") == 1
    (span,) = spans.spans
    name, start, end, child = span[1], span[2], span[3], span[7]
    assert name == "outer" and 0 < child <= end - start
    calls, self_s = spans.totals()["outer"]
    assert calls == 1 and abs(self_s - (end - start - child)) < 1e-12
