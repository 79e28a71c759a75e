"""Call tracer for the sdalab layers, installed from outside the package.

`Tracer.install()` replaces every module-level binding of a public sdalab
function in the traced modules with one wrapper per function, so a name
imported with `from ... import` (for example `sweep.run_single`) is traced
like the original (`runner.run_single`), and calls inside a module, which
look their callees up in the module namespace, are traced too. Besides the
module functions it wraps the methods of `config.ExperimentConfig`, because
the config layer's hashing and validation live there, and
`runner.StageCache.get_or`, to count stage-cache hits.

Each call records a span (id, parent span id, run id, function, start, end)
into flat arrays kept in memory until `write_spans`. Per function it adds up
self time (span duration minus the time covered by child spans) and counts
calls per (function, caller) edge; hooks add work counts such as rows through
`nn.forward`. `layer_metrics` turns all of that into the benchmark's
per-layer metrics. The program runs in one thread, so no layer waits on
another and self times add up to the traced wall time.
"""

import functools
import gzip
import importlib
import inspect
import statistics
import time
from array import array

PACKAGE = "sdalab"
LAYERS = (
    "config", "data", "runner", "feedback", "adapt",
    "bank", "nn", "metrics", "sweep", "stream",
)

# Functions whose work belongs to another layer than their defining module:
# predictions and AUROC computed for evaluation are the metrics layer's work.
LAYER_OF = {"nn.predict": "metrics", "runner.mean_auroc": "metrics"}

# Classes whose methods are wrapped, with the methods to wrap ("*" = every
# public method plus the dataclass validation hook).
CLASS_METHODS = {
    "config.ExperimentConfig": "*",
    "runner.StageCache": ("get_or",),
}

# Calls that start a new run when no run is open; spans of one run share its id.
RUN_ROOTS = ("runner.run_single",)

FORWARD = ("nn.forward", "nn.softmax_rows", "nn.sigmoid")  # helpers only forward calls
BANK_BUILD = ("bank.generate_bank", "bank.generate_bank_binary", "bank.top_fraction_count")
ADAPT_LOOPS = ("adapt.adapt", "adapt.adapt_binary")


def _public_methods(cls, wanted):
    for name, obj in vars(cls).items():
        if not inspect.isfunction(obj):
            continue
        if name in wanted or (wanted == "*" and (not name.startswith("_") or name == "__post_init__")):
            yield name, obj


class Tracer:
    """Spans, self times and work counts for one traced process."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self.names = []  # function index -> qualified name, e.g. "nn.forward"
        self.layers = []  # function index -> layer
        self.self_time = []  # function index -> accumulated self seconds
        self.edges = {}  # (function index, caller index or -1) -> calls
        self.counters = {
            "nn.forward_rows": 0, "nn.backward_rows": 0, "bank.entries": 0,
            "bank.defending_rows": 0, "bank.fallbacks": 0, "bank.points_served": 0,
            "feedback.shortages": 0, "stream.checkpoints": 0,
            "runner.cache_lookups": 0, "runner.cache_hits": 0,
        }
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_fn = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_span = 1
        self._runs = 0
        self.run_id = 0
        self._stack_fn = []
        self._stack_span = []
        self._stack_child = []
        self._saved = []  # (owner, attribute, original) for uninstall
        self.origin = time.perf_counter()

    # -- installation -----------------------------------------------------

    @staticmethod
    def _layer_module(fn):
        parts = fn.__module__.split(".")
        if len(parts) == 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
            return parts[1]
        return None

    def install(self):
        """Wrap every binding; returns self so it can be chained."""
        wrappers = {}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = self._layer_module(obj)
                if home is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for qualified, wanted in CLASS_METHODS.items():
            home, cls_name = qualified.split(".")
            cls = getattr(self.modules[home], cls_name)
            for attr, obj in list(_public_methods(cls, wanted)):
                self._saved.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(obj, f"{home}.{cls_name}.{attr}"))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        home = name.split(".")[0]
        self.layers.append(LAYER_OF.get(name, home))
        self.self_time.append(0.0)
        pre, post = _HOOKS.get(name, (None, None))
        is_root = name in RUN_ROOTS
        perf = time.perf_counter
        tracer = self
        stack_fn, stack_span, stack_child = self._stack_fn, self._stack_span, self._stack_child
        self_time, edges = self.self_time, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack_fn[-1] if stack_fn else -1
            key = (idx, caller)
            edges[key] = edges.get(key, 0) + 1
            if pre is not None:
                pre(tracer, args, kwargs)
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack_span[-1] if stack_span else 0
            opens_run = is_root and tracer.run_id == 0
            if opens_run:
                tracer._runs += 1
                tracer.run_id = tracer._runs
            stack_fn.append(idx)
            stack_span.append(span)
            stack_child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack_fn.pop()
                stack_span.pop()
                child = stack_child.pop()
                duration = t1 - t0
                if stack_child:
                    stack_child[-1] += duration
                self_time[idx] += duration - child
                tracer._record(span, parent, idx, t0, t1)
                if opens_run:
                    tracer.run_id = 0
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def _record(self, span, parent, idx, t0, t1):
        self.span_id.append(span)
        self.span_parent.append(parent)
        self.span_run.append(self.run_id)
        self.span_fn.append(idx)
        self.span_start.append(t0 - self.origin)
        self.span_end.append(t1 - self.origin)

    def open_run(self):
        """Start a run by hand, for work with no run root (a stream replay)."""
        self._runs += 1
        self.run_id = self._runs

    def close_run(self):
        self.run_id = 0

    # -- results ----------------------------------------------------------

    def calls(self, name):
        idx = self.names.index(name)
        return sum(n for (fn, _), n in self.edges.items() if fn == idx)

    def edge_calls(self, name, caller):
        idx, cidx = self.names.index(name), self.names.index(caller)
        return self.edges.get((idx, cidx), 0)

    def self_s(self, names):
        return sum(self.self_time[self.names.index(n)] for n in names)

    def layer_self_s(self, layer):
        return sum(t for t, lay in zip(self.self_time, self.layers) if lay == layer)

    def layer_entries(self, layer):
        """Calls into a layer from another layer or from outside the program."""
        total = 0
        for (fn, caller), n in self.edges.items():
            if self.layers[fn] == layer and (caller < 0 or self.layers[caller] != layer):
                total += n
        return total

    def layer_metrics(self, run_walls):
        """Per-layer metrics; run_walls are RunRecord.wall_clock values."""
        c = self.counters
        served = c["bank.points_served"]
        lookups = c["runner.cache_lookups"]
        adapt_self = self.layer_self_s("adapt")
        pretrain = self.self_s(["adapt.train_supervised"])
        minibatch = self.self_s(["adapt.build_minibatch"])
        return {
            "config.calls": self.layer_entries("config"),
            "config.self_s": self.layer_self_s("config"),
            "data.calls": self.layer_entries("data"),
            "data.self_s": self.layer_self_s("data"),
            "runner.runs": self.calls("runner.run_single"),
            "runner.run_s_p50": statistics.median(run_walls) if run_walls else 0.0,
            "runner.cache_lookups": lookups,
            "runner.cache_hit_ratio": c["runner.cache_hits"] / lookups if lookups else 0.0,
            "runner.self_s": self.layer_self_s("runner"),
            "feedback.calls": self.layer_entries("feedback"),
            "feedback.self_s": self.layer_self_s("feedback"),
            "feedback.shortages": c["feedback.shortages"],
            "adapt.pretrain_calls": self.calls("adapt.train_supervised"),
            "adapt.pretrain_self_s": pretrain,
            "adapt.loop_calls": sum(self.calls(n) for n in ADAPT_LOOPS),
            "adapt.loop_self_s": adapt_self - pretrain - minibatch,
            "adapt.minibatch_calls": self.calls("adapt.build_minibatch"),
            "adapt.minibatch_self_s": minibatch,
            "adapt.steps": sum(self.edge_calls("nn.sgd_step", n) for n in ADAPT_LOOPS),
            "bank.build_calls": self.calls("bank.generate_bank") + self.calls("bank.generate_bank_binary"),
            "bank.build_self_s": self.self_s(BANK_BUILD),
            "bank.entries": c["bank.entries"],
            "bank.retrieve_calls": self.calls("bank.retrieve_defending"),
            "bank.retrieve_self_s": self.self_s(["bank.retrieve_defending"]),
            "bank.defending_rows": c["bank.defending_rows"],
            "bank.fallback_ratio": c["bank.fallbacks"] / served if served else 0.0,
            "nn.forward_calls": self.calls("nn.forward"),
            "nn.forward_rows": c["nn.forward_rows"],
            "nn.forward_self_s": self.self_s(FORWARD),
            "nn.backward_calls": self.calls("nn.backward"),
            "nn.backward_rows": c["nn.backward_rows"],
            "nn.backward_self_s": self.self_s(["nn.backward"]),
            "nn.sgd_calls": self.calls("nn.sgd_step"),
            "nn.sgd_self_s": self.self_s(["nn.sgd_step"]),
            "metrics.eval_calls": self.layer_entries("metrics"),
            "metrics.eval_self_s": self.layer_self_s("metrics"),
            "sweep.self_s": self.layer_self_s("sweep"),
            "stream.checkpoints": c["stream.checkpoints"],
            "stream.self_s": self.layer_self_s("stream"),
        }

    def write_spans(self, path):
        """Gzipped CSV, one row per span, in the order the spans ended."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,parent_id,run_id,name,layer,start_s,end_s\n")
            names, layers = self.names, self.layers
            for i in range(len(self.span_id)):
                fn = self.span_fn[i]
                fh.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.span_run[i]},"
                    f"{names[fn]},{layers[fn]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
        return len(self.span_id)


# -- work-count hooks: (before the call, after the call), read-only ---------
# Shortages are counted on the runner's entry points only; simulate_feedback
# hands the nbf_ce policy on to simulate_feedback_nbf_ce.

def _count(name, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counters[name] += amount(args, kwargs, result)
    return hook


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cache_lookup(tracer, args, kwargs):
    # get_or(self, store, key, build): a hit is a key already in the store
    tracer.counters["runner.cache_lookups"] += 1
    if _arg(args, kwargs, 2, "key") in _arg(args, kwargs, 1, "store"):
        tracer.counters["runner.cache_hits"] += 1


def _retrieved(tracer, args, kwargs, result):
    points, _, fallbacks = result
    tracer.counters["bank.defending_rows"] += len(points)
    tracer.counters["bank.fallbacks"] += fallbacks
    tracer.counters["bank.points_served"] += len(_arg(args, kwargs, 1, "labeled_points"))


def _shortages(split):
    return sum(split.provenance.get("shortage", {}).values())


_HOOKS = {
    "nn.forward": (None, _count("nn.forward_rows", lambda a, k, r: len(_arg(a, k, 1, "inputs")))),
    "nn.backward": (None, _count("nn.backward_rows", lambda a, k, r: len(_arg(a, k, 2, "dprobs")))),
    "bank.generate_bank": (None, _count("bank.entries", lambda a, k, r: sum(r.sizes()))),
    "bank.generate_bank_binary": (
        None, _count("bank.entries", lambda a, k, r: sum(sum(b.sizes()) for b in r))),
    "bank.retrieve_defending": (None, _retrieved),
    "feedback.simulate_feedback": (None, _count("feedback.shortages", lambda a, k, r: _shortages(r))),
    "feedback.simulate_feedback_binary": (
        None, _count("feedback.shortages", lambda a, k, r: sum(_shortages(s) for s in r))),
    "stream.run_stream": (None, _count("stream.checkpoints", lambda a, k, r: len(r[0]))),
    "runner.StageCache.get_or": (_cache_lookup, None),
}
