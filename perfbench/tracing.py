"""Spans around coricci's layers, recorded from the benchmark's side.

``install`` replaces each function in ``TARGETS`` with a wrapper, under the
name its caller looks it up by (``coricci.cli`` calls ``kappa_global`` from
its own namespace, ``coricci.bounds`` calls ``local_stats`` from its own, and
so on), so the program itself is unchanged.  Only the traced run installs
them.  Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the time covered by its child spans.
"""

import importlib
import time
from collections import Counter, defaultdict

# Span name -> (self-time metric, call-count metric or None).  Spans without
# children report their whole duration, so "_self" marks those that have some.
SPAN_METRICS = {
    "cli": ("cli.self_s", None),
    "chainfile.load": ("chainfile.load_s", None),
    "metric.geodesic": ("metric.geodesic_s", "metric.geodesic_calls"),
    "curvature.scan": ("curvature.scan_self_s", None),
    "curvature.contraction": ("curvature.contraction_self_s", None),
    "transport.w1": ("transport.w1_self_s", "transport.w1_calls"),
    "transport.kernel": ("transport.kernel_s", "transport.kernel_calls"),
    "chain.local_stats": ("chain.local_stats_self_s", "chain.local_stats_calls"),
    "chain.max_var_exact": ("chain.max_var_exact_s", "chain.max_var_exact_calls"),
    "chain.max_var_heuristic": ("chain.max_var_heuristic_s", "chain.max_var_heuristic_calls"),
    "chain.invariant": ("chain.invariant_s", "chain.invariant_calls"),
    "bounds.spectral": ("bounds.spectral_s", None),
    "bounds.bonnet_myers": ("bounds.bonnet_myers_s", None),
    "bounds.variance": ("bounds.variance_s", None),
    "bounds.gaussian": ("bounds.gaussian_s", None),
    "bounds.log_sobolev": ("bounds.log_sobolev_s", None),
    "bounds.commutation": ("bounds.commutation_s", None),
}

# Counts kept beside the spans: output size, pairs scanned, kernel problem
# size (supply x demand cells, computed) and the distinct inputs among calls.
COUNTERS = (
    "cli.output_bytes",
    "curvature.pairs",
    "transport.kernel_cells",
    "chain.local_stats_distinct",
    "chain.max_var_distinct",
)


def _count_pairs(tracer, args, kwargs, result):
    tracer.counts["curvature.pairs"] += len(result.pairs)


def _count_cells(tracer, args, kwargs, result):
    rows, cols = args[0].shape
    tracer.counts["transport.kernel_cells"] += rows * cols


def _distinct_point(tracer, args, kwargs, result):
    # Chains are alive for the whole operation, so id() names one per op.
    tracer.distinct("chain.local_stats_distinct", (id(args[0]), args[1]))


def _max_var_mode(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("mode", "exact")


def _max_var_span(args, kwargs):
    return "chain.max_var_" + ("exact" if _max_var_mode(args, kwargs) == "exact" else "heuristic")


def _distinct_measure(tracer, args, kwargs, result):
    key = (id(args[0]), args[1].weights.tobytes(), _max_var_mode(args, kwargs))
    tracer.distinct("chain.max_var_distinct", key)


# (owner, attribute, span name or a function of the call's arguments, hook).
# The owner is the namespace the caller looks the function up in.
TARGETS = (
    ("coricci.chainfile", "load_chain", "chainfile.load", None),
    ("coricci.cli", "kappa_global", "curvature.scan", _count_pairs),
    ("coricci.curvature", "is_epsilon_geodesic", "metric.geodesic", None),
    ("coricci.curvature", "w1", "transport.w1", None),
    ("coricci.transport._kernel", "solve_transport", "transport.kernel", _count_cells),
    ("coricci.cli", "local_stats", "chain.local_stats", _distinct_point),
    ("coricci.bounds", "local_stats", "chain.local_stats", _distinct_point),
    ("coricci.chain", "max_var_lipschitz", _max_var_span, _distinct_measure),
    ("coricci.bounds", "max_var_lipschitz", _max_var_span, _distinct_measure),
    ("coricci.cli", "invariant_distribution", "chain.invariant", None),
    ("coricci.bounds", "invariant_distribution", "chain.invariant", None),
    ("coricci.bounds", "spectral_report", "bounds.spectral", None),
    ("coricci.bounds", "bonnet_myers", "bounds.bonnet_myers", None),
    ("coricci.bounds", "variance_bound", "bounds.variance", None),
    ("coricci.bounds", "gaussian_concentration", "bounds.gaussian", None),
    ("coricci.bounds", "log_sobolev_check", "bounds.log_sobolev", None),
    ("coricci.bounds", "commutation_check", "bounds.commutation", None),
)


class Tracer:
    """Records spans of the operations between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.spans = []  # (op, span id, parent id or -1, name, start ns, end ns)
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._distinct = defaultdict(set)
        self._stack = []  # [span id, start ns, ns covered by children]
        self._next_id = 0
        self._op = None

    def begin_op(self, op):
        self._op = op
        self._distinct.clear()

    def end_op(self):
        self._op = None

    def distinct(self, counter, key):
        seen = self._distinct[counter]
        if key not in seen:
            seen.add(key)
            self.counts[counter] += 1

    def enter(self):
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self, name):
        end = time.perf_counter_ns()
        span_id, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((self._op, span_id, -1 if parent is None else parent[0],
                           name, start, end))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span, when an operation is being traced."""
        if self._op is None:
            return fn(*args, **kwargs)
        self.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(name)

    def metrics(self, ops, op_seconds):
        """Per-layer metrics, per operation over ``ops`` traced operations."""
        out = {}
        for span, (time_metric, calls_metric) in SPAN_METRICS.items():
            out[time_metric] = (self.self_ns[span] / 1e9 / ops, "s/op")
            if calls_metric:
                out[calls_metric] = (self.calls[span] / ops, "count/op")
        for counter in COUNTERS:
            unit = "B/op" if counter == "cli.output_bytes" else "count/op"
            out[counter] = (self.counts[counter] / ops, unit)
        out["trace.self_sum_share"] = (sum(self.self_ns.values()) / 1e9 / op_seconds, "ratio")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _resolve(owner):
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        # An alias such as coricci.transport._kernel, the selected kernel module.
        parent, _, attr = owner.rpartition(".")
        return getattr(importlib.import_module(parent), attr)


def _wrap(tracer, fn, name, hook):
    def traced(*args, **kwargs):
        if tracer._op is None:
            return fn(*args, **kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        result = tracer.span(span_name, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer):
    """Wrap every target for the rest of the process."""
    for owner, attr, name, hook in TARGETS:
        obj = _resolve(owner)
        setattr(obj, attr, _wrap(tracer, getattr(obj, attr), name, hook))
