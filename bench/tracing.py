"""In-memory spans around the lighttails functions each layer is called
through.

The package is not edited: `Tracer.install` replaces module attributes with
wrappers, under the name each caller looks the function up by (a function
imported with `from .orlicz import psi_norm` is wrapped in every module that
imported it).  Spans are kept in a list guarded by a lock, because
`verify.estimate_tail` calls `functions.sample_f` from pool threads, and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time

# (module, attribute, span name) for every wrapped function.  Several
# lookups of one function share the span name of its defining layer.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("functions", "fspec_from_dict", "functions.fspec_from_dict"),
    ("functions", "proxy_profile", "functions.proxy_profile"),
    ("functions", "expectation", "functions.expectation"),
    ("functions", "sample_f", "functions.sample_f"),
    ("functions", "psi_norm", "orlicz.psi_norm"),
    ("cli", "psi_norm", "orlicz.psi_norm"),
    ("applications", "psi_norm", "orlicz.psi_norm"),
    ("orlicz", "psi_norm_finite", "orlicz.psi_norm_finite"),
    ("applications", "psi_norm_finite", "orlicz.psi_norm_finite"),
    ("distributions", "log_abs_moment", "distributions.log_abs_moment"),
    ("verify", "estimate_tail", "verify.estimate_tail"),
    ("verify", "bounds_on_grid", "verify.bounds_on_grid"),
    ("verify", "check_bounds", "verify.check_bounds"),
    ("verify", "clopper_pearson", "verify.clopper_pearson"),
    ("verify", "evaluate_tail", "bounds.evaluate_tail"),
    ("cli", "invert_tail", "bounds.invert_tail"),
    ("entropy", "entropy_bound_subgaussian", "entropy.entropy_bound_subgaussian"),
    ("entropy", "entropy_bound_subexponential", "entropy.entropy_bound_subexponential"),
    ("entropy", "entropy_bound_holder", "entropy.entropy_bound_holder"),
    ("applications", "vector_bound_i", "applications.vector_bound_i"),
    ("applications", "vector_bound_ii", "applications.vector_bound_ii"),
    ("applications", "vector_bound_iii", "applications.vector_bound_iii"),
    ("applications", "psa_bound", "applications.psa_bound"),
    ("applications", "rademacher_generalization_bound",
     "applications.rademacher_generalization_bound"),
    ("applications", "regression_bound", "applications.regression_bound"),
    ("applications", "metric_tail", "applications.metric_tail"),
    ("applications", "psi_diameter", "applications.psi_diameter"),
]

FSPEC_KINDS = {"SumFunction": "sum", "VectorNormOfSum": "vector_norm_of_sum",
               "MetricLipschitz": "metric_lipschitz"}

# span fields, in the order a span tuple holds them
FIELDS = ("id", "parent", "name", "start", "end", "request", "thread", "extra")


class Tracer:
    """Records one span per wrapped call while a request id is set.

    Moment keys are tracked whenever the tracer is installed, also during
    warm-up, so `miss_ratio` counts the (spec, p) pairs this process had not
    seen before, which is what the package's moment cache misses on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request_thread = threading.get_ident()
        self._request_stack = []
        self._restore = []
        self.spans = []
        self.request = None
        self.seen_moment_keys = set()

    def install(self, modules):
        for mod_name, attr, name in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _stack(self):
        if threading.get_ident() == self._request_thread:
            return self._request_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _extra(self, name, args, kwargs):
        if name == "distributions.log_abs_moment":
            key = (args[0], float(args[1] if len(args) > 1 else kwargs["p"]))
            with self._lock:
                miss = key not in self.seen_moment_keys
                self.seen_moment_keys.add(key)
            return {"miss": miss}
        if name == "functions.sample_f":
            count = args[2] if len(args) > 2 else kwargs["count"]
            kind = FSPEC_KINDS.get(type(args[0]).__name__, type(args[0]).__name__)
            return {"samples": int(count), "kind": kind}
        return None

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = tracer._extra(name, args, kwargs)
            request = tracer.request
            if request is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._request_stack:
                # a pool thread: the span that waits for it is open in the
                # request thread
                parent = tracer._request_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = (span_id, parent, name, start, end, request,
                        threading.get_ident(), extra)
                with tracer._lock:
                    tracer.spans.append(span)
        return traced

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _group(name):
    head = name.split(".", 1)[0]
    return head if head in ("entropy", "applications") else name


class SpanTable:
    """Aggregates of one set of spans: calls, inclusive time (outermost spans
    of a name only, so recursion is not counted twice) and self time (span
    minus the union of its children)."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def _nested(self, span, key):
        parent = self.by_id.get(span[1])
        while parent is not None:
            if key(parent[2]) == key(span[2]):
                return True
            parent = self.by_id.get(parent[1])
        return False

    def select(self, name=None, group=None):
        if group is not None:
            return [s for s in self.spans if _group(s[2]) == group]
        return [s for s in self.spans if s[2] == name]

    def calls(self, name=None, group=None):
        return len(self.select(name, group))

    def time(self, name=None, group=None):
        key = _group if group is not None else (lambda n: n)
        return sum(s[4] - s[3] for s in self.select(name, group)
                   if not self._nested(s, key))

    def self_time(self, name):
        total = 0.0
        for s in self.select(name):
            kids = [(c[3], c[4]) for c in self.children.get(s[0], [])]
            total += (s[4] - s[3]) - _covered(kids, s[3], s[4])
        return total
