"""In-memory span recording around calls into qident's public functions.

The wrappers live here, in the benchmark, not in the program: `install`
rebinds each traced function under every name that binds it (modules
import with `from .x import y`, so one function can have several names),
and `remove` puts the originals back.

Each call opens a frame.  When it returns, its duration is added to the
parent frame's child time, and its self time is the duration minus that
child time.  Calls of names in `hot` are aggregated per (name, parent name)
instead of being kept as spans, so that leaf functions called hundreds of
thousands of times stay cheap to record.
"""

import functools
import json
import sys
import time


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "parent_name", "entry",
               "child_s")


class Tracer:
    def __init__(self, hot=()):
        self.hot = frozenset(hot)
        self.spans = []    # see SPAN_FIELDS
        self.agg = {}      # (name, parent name) -> [calls, total s, self s]
        self.counts = {}   # free-form counters, e.g. resample attempts
        self.entry = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, name, fn):
        """A wrapper of `fn` that records one span (or aggregate) per call."""
        clock = time.perf_counter
        stack = self._stack
        hot = name in self.hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]   # id, name, child seconds
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                if hot:
                    key = (name, parent[1] if parent else None)
                    row = self.agg.get(key)
                    if row is None:
                        row = self.agg[key] = [0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += duration
                    row[2] += duration - frame[2]
                else:
                    self.spans.append((
                        frame[0], name, start, end,
                        parent[0] if parent else None,
                        parent[1] if parent else None, self.entry, frame[2]))

        return traced

    def install(self, name, owner, attr, adapt=None):
        """Trace `owner.attr` as `name`.

        For a module attribute, every module of the package that binds the
        same function object gets the wrapper; for a class attribute, every
        alias on the class (e.g. `__rmul__ = __mul__`) does.  `adapt`, if
        given, wraps the original before tracing (used to count attempts).
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, adapt(original) if adapt else original)
        if isinstance(owner, type):
            homes = [owner]
        else:
            package = owner.__name__.split(".")[0]
            homes = [m for n, m in sorted(sys.modules.items())
                     if m is not None and (n == package or n.startswith(package + "."))]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    self._undo.append((home, key, value))
                    setattr(home, key, wrapper)

    def remove(self):
        for home, key, value in reversed(self._undo):
            setattr(home, key, value)
        self._undo = []

    def totals(self):
        """name -> [calls, self seconds] over spans and aggregates."""
        out = {}
        for _, name, start, end, _, _, _, child in self.spans:
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end - start - child
        for (name, _), (calls, _, self_s) in self.agg.items():
            row = out.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return out

    def calls_under(self, name, parent):
        """Calls of `name` made directly from a frame named `parent`."""
        n = sum(1 for s in self.spans if s[1] == name and s[5] == parent)
        return n + self.agg.get((name, parent), [0])[0]

    def dump(self, path):
        """Write every span and aggregate as JSON."""
        with open(path, "w") as handle:
            json.dump({
                "span_fields": SPAN_FIELDS,
                "spans": self.spans,
                "aggregates": [[name, parent, calls, total, self_s]
                               for (name, parent), (calls, total, self_s)
                               in sorted(self.agg.items(), key=str)],
                "counts": self.counts,
            }, handle)


# (metric name "<module>.<function>", class within the module or None,
# attribute).  Names in COARSE are recorded as spans; every other name is
# called often enough that it is aggregated per (name, parent name).
TARGETS = [
    ("cli.run_one", None, "run_one"),
    ("reporting.run_trials", None, "run_trials"),
    ("reporting.to_json", "Report", "to_json"),
    ("exactnum.resample", None, "resample"),
    ("exactnum.sampler_draw", "Sampler", "draw"),
    ("exactnum.pseries_mul", "PSeries", "__mul__"),
    ("exactnum.pseries_inverse", "PSeries", "inverse"),
    ("exactnum.theta", None, "theta"),
    ("polyweights.weight", None, "weight"),
    ("polyweights.jing_value", None, "jing_value"),
    ("polyweights.monomial_symmetric", None, "monomial_symmetric"),
    ("residues.kernel_residue_parts", None, "kernel_residue_parts"),
    ("residues.scalar_product", None, "scalar_product"),
    ("elliptic.xi_weight", None, "xi_weight"),
    ("elliptic.omega_residue", None, "omega_residue"),
    ("elliptic.theta_lambda", None, "theta_lambda"),
    ("elliptic.vartheta", None, "vartheta"),
    ("elliptic.scalar_product_omega", None, "scalar_product_omega"),
    ("elliptic.th", "EllParams", "th"),
    ("linalg.mat_det", None, "mat_det"),
    ("linalg.mat_inverse", None, "mat_inverse"),
    ("linalg.mat_mul", None, "mat_mul"),
    ("uqrep.tensor_entry", None, "tensor_entry"),
    ("uqrep.add_term", "TensorVector", "add_term"),
    ("uqrep.apply_string", None, "apply_string"),
    ("uqrep.gamma", None, "gamma"),
    ("partitions.enumerate_partitions", None, "enumerate_partitions"),
    ("partitions.x_point", None, "x_point"),
]

COARSE = {
    "cli.run_one", "reporting.run_trials", "reporting.to_json",
    "exactnum.resample", "polyweights.jing_value", "residues.scalar_product",
    "elliptic.scalar_product_omega", "linalg.mat_det", "linalg.mat_inverse",
    "uqrep.apply_string",
}

# Metrics reported as <name>.calls and <name>.self_s, then the ones that
# report only one of the two.
CALLS_AND_SELF = [
    "exactnum.pseries_mul", "exactnum.pseries_inverse", "exactnum.theta",
    "polyweights.weight", "polyweights.jing_value",
    "polyweights.monomial_symmetric", "residues.kernel_residue_parts",
    "residues.scalar_product", "elliptic.xi_weight", "elliptic.omega_residue",
    "elliptic.theta_lambda", "linalg.mat_det", "linalg.mat_inverse",
    "uqrep.tensor_entry", "uqrep.add_term", "uqrep.gamma",
]
CALLS_ONLY = [
    "exactnum.sampler_draw", "elliptic.vartheta", "elliptic.scalar_product_omega",
    "elliptic.th", "uqrep.apply_string", "partitions.enumerate_partitions",
    "partitions.x_point", "cli.run_one",
]
SELF_ONLY = ["linalg.mat_mul", "reporting.run_trials", "reporting.to_json"]


def install_all():
    """A Tracer with every TARGETS entry installed on the qident package."""
    import importlib
    tracer = Tracer(hot=[t[0] for t in TARGETS if t[0] not in COARSE])

    def count_attempts(resample):
        @functools.wraps(resample)
        def counted(make, *args, **kwargs):
            def attempt():
                tracer.count("exactnum.resample.attempts")
                return make()
            return resample(attempt, *args, **kwargs)
        return counted

    for name, owner, attr in TARGETS:
        mod = importlib.import_module("qident." + name.split(".")[0])
        tracer.install(name, getattr(mod, owner) if owner else mod, attr,
                       count_attempts if name == "exactnum.resample" else None)
    return tracer


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass."""
    totals = tracer.totals()
    calls = {name: totals.get(name, [0, 0.0])[0] for name, *_ in TARGETS}
    self_s = {name: totals.get(name, [0, 0.0])[1] for name, *_ in TARGETS}
    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    for name in CALLS_ONLY:
        out[name + ".calls"] = calls[name]
    for name in SELF_ONLY:
        out[name + ".self_s"] = self_s[name]
    resamples = calls["exactnum.resample"]
    out["exactnum.resample.attempts_per_call"] = (
        tracer.counts.get("exactnum.resample.attempts", 0) / resamples
        if resamples else 0.0)
    th = calls["elliptic.th"]
    misses = tracer.calls_under("exactnum.theta", "elliptic.th")
    out["elliptic.th.hit_ratio"] = (th - misses) / th if th else 0.0
    return out
