"""Outside-in layer tracing of the kfreesums package.

While installed, a ``Tracer`` replaces the public functions of each layer
with wrappers that record a span (name, start, end, parent span, workload
iteration, thread) or bump a call counter.  ``from ... import`` binds
copies, so every module namespace of the package that holds the original
object gets the wrapper, not just the defining module; methods are
replaced on their class.  Spans stay in memory until the run ends.

Per-layer metrics are derived from the spans afterwards.  A ``*_s``
metric is the total span time of that function and ``*_self_s`` its span
time minus the part covered by its child spans.  ``*_computed_bytes`` are
the bytes of the arrays a kernel returns, from their sizes and dtypes; they
ignore temporaries and cache misses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    iteration: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.iteration: int | None = None
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, attrs: dict) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to the call that is
                # blocked on it in the benchmark's (single) calling thread
                owner = self._stacks.get(self._owner)
                parent = owner[-1] if owner and tid != self._owner else None
            span = Span(len(self.spans), parent, name, self.iteration, tid, attrs=attrs)
            self.spans.append(span)
            stack.append(span.id)
        span.start = perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- wrappers -------------------------------------------------------

    def spanned(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(bound) may replace arguments and
        returns attrs, after(attrs, result, bound) adds attrs."""
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    attrs = before(self, bound)
                args, kwargs = bound.args, bound.kwargs
            span = self.begin(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if after is not None:
                after(attrs, out, bound)
            return out

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counting

    # -- installation ---------------------------------------------------

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        for module, attr, name, before, after in SPANS:
            self._replace(module, attr, lambda fn, n=name, b=before, a=after: self.spanned(n, fn, b, a))
        for module, attr, name in COUNTS:
            self._replace(module, attr, lambda fn, n=name: self.counted(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        self.iteration = None

    def _replace(self, module: str, attr: str, make) -> None:
        home = importlib.import_module(f"kfreesums.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(home, attr)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kfreesums" and not mod_name.startswith("kfreesums."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, wrapper)


# -- per-function hooks ------------------------------------------------


def _out_array(attrs, out, bound):
    arr = getattr(out, "values", out)
    attrs["elems"] = int(arr.size)
    attrs["bytes"] = int(arr.nbytes)


def _stream_before(tracer, bound):
    callback = bound.arguments["segment_values"]
    bound.arguments["segment_values"] = tracer.spanned("summatory.segment_callback", callback, after=_out_array)
    return {"threads": bound.arguments["threads"]}


def _stream_after(attrs, out, bound):
    attrs["checkpoints"] = len(out.checkpoints)


def _map_before(tracer, bound):
    return {"args": len(bound.arguments["args"])}


def _hyperbola_before(tracer, bound):
    for arg, counter in (("g_summatory", "summatory.g_oracle_calls"), ("h_summatory", "summatory.h_oracle_calls")):
        oracle = bound.arguments[arg]

        def counted_oracle(y, oracle=oracle, counter=counter):
            tracer.count(counter)
            return oracle(y)

        bound.arguments[arg] = counted_oracle
    return {}


def _file_after(attrs, out, bound):
    attrs["bytes"] = os.path.getsize(bound.arguments["path"])


# (module, attribute, span name, before, after)
SPANS = [
    ("sieve", "sieve_kfree_segment", "sieve.kfree", None, _out_array),
    ("sieve", "sieve_mobius_segment", "sieve.mobius", None, _out_array),
    ("sieve", "sieve_primes", "sieve.primes", None, _out_array),
    ("sieve", "build_spf", "sieve.spf", None, None),
    ("rules", "MultiplicativeRule.segment_values", "rules.segment", None, _out_array),
    ("summatory", "stream_summatory", "summatory.stream", _stream_before, _stream_after),
    ("summatory", "direct_summatory", "summatory.direct", None, None),
    ("summatory", "mertens", "summatory.mertens", None, None),
    ("summatory", "mertens_recursive", "summatory.mertens_recursive", None, None),
    ("summatory", "streamed_summatory_map", "summatory.oracle_map", _map_before, None),
    ("summatory", "hyperbola_sum", "summatory.hyperbola", _hyperbola_before, None),
    ("convolution", "kfree_factor", "convolution.kfree_factor", None, None),
    ("convolution", "dirichlet_convolve", "convolution.convolve", None, None),
    ("convolution", "dirichlet_inverse", "convolution.inverse", None, None),
    ("convolution", "deviation_factor", "convolution.deviation", None, None),
    ("constructions", "greedy_plan", "constructions.greedy", None, None),
    ("constructions", "pretentious_distance", "constructions.distance", None, None),
    ("constructions", "verify_deviation_budget", "constructions.budget", None, None),
    ("analysis", "envelope_ratio", "analysis.envelope", None, None),
    ("analysis", "fit_exponent", "analysis.fit", None, None),
    ("reporting", "write_csv", "reporting.write", None, _file_after),
    ("reporting", "write_json", "reporting.write", None, _file_after),
    ("experiment", "run_experiment", "experiment.bundle", None, None),
    ("experiment", "compare_methods", "experiment.compare", None, None),
]

# (module, attribute, counter name): hot per-element calls, counted only
COUNTS = [
    ("rules", "MultiplicativeRule.prime_value", "rules.prime_value_calls"),
    ("characters", "RealCharacter.value", "characters.value_calls"),
]

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "sieve.kfree_s": ("s", "lower"),
    "sieve.kfree_elems": ("count", "lower"),
    "sieve.kfree_computed_bytes": ("B", "lower"),
    "sieve.mobius_s": ("s", "lower"),
    "sieve.mobius_elems": ("count", "lower"),
    "sieve.mobius_computed_bytes": ("B", "lower"),
    "sieve.primes_s": ("s", "lower"),
    "sieve.spf_s": ("s", "lower"),
    "rules.segment_s": ("s", "lower"),
    "rules.segment_calls": ("count", "lower"),
    "rules.segment_elems": ("count", "lower"),
    "rules.segment_ns_per_elem": ("ns", "lower"),
    "rules.segment_computed_bytes": ("B", "lower"),
    "rules.prime_value_calls": ("count", "lower"),
    "characters.value_calls": ("count", "lower"),
    "summatory.reduce_self_s": ("s", "lower"),
    "summatory.reduce_ns_per_elem": ("ns", "lower"),
    "summatory.reduce_computed_bytes": ("B", "lower"),
    "summatory.segments": ("count", "lower"),
    "summatory.checkpoints": ("count", "lower"),
    "summatory.t2_busy_ratio": ("ratio", "higher"),
    "summatory.oracle_map_s": ("s", "lower"),
    "summatory.oracle_map_args": ("count", "lower"),
    "summatory.hyperbola_s": ("s", "lower"),
    "summatory.g_oracle_calls": ("count", "lower"),
    "summatory.h_oracle_calls": ("count", "lower"),
    "summatory.mertens_recursive_s": ("s", "lower"),
    "convolution.kfree_factor_s": ("s", "lower"),
    "convolution.convolve_s": ("s", "lower"),
    "convolution.inverse_s": ("s", "lower"),
    "convolution.deviation_s": ("s", "lower"),
    "constructions.greedy_s": ("s", "lower"),
    "constructions.greedy_primes_scanned": ("count", "lower"),
    "constructions.distance_s": ("s", "lower"),
    "constructions.budget_s": ("s", "lower"),
    "analysis.envelope_s": ("s", "lower"),
    "analysis.fit_s": ("s", "lower"),
    "reporting.write_s": ("s", "lower"),
    "reporting.bytes_written": ("B", "lower"),
    "experiment.bundle_self_s": ("s", "lower"),
    "experiment.compare_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans (0 for layers the
    workload never reached)."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        return dur(s) - _covered([(c.start, c.end) for c in children[s.id]], s.start, s.end)

    def total(name: str) -> float:
        return sum(dur(s) for s in by_name[name])

    def attr(of: list[Span], key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in of)

    def per_elem_ns(seconds: float, elems: int) -> float:
        return seconds / elems * 1e9 if elems else 0.0

    streams = by_name["summatory.stream"]
    t1 = [s for s in streams if s.attrs["threads"] <= 1]
    t2 = [s for s in streams if s.attrs["threads"] >= 2]
    callbacks = by_name["summatory.segment_callback"]
    t1_ids = {s.id for s in t1}
    t2_ids = {s.id for s in t2}
    reduce_s = sum(self_time(s) for s in t1)
    reduce_elems = attr([c for c in callbacks if c.parent in t1_ids], "elems")
    t2_wall = sum(dur(s) for s in t2)
    t2_busy = sum(dur(c) for c in callbacks if c.parent in t2_ids)
    greedy_ids = {s.id for s in by_name["constructions.greedy"]}
    segment_s = total("rules.segment")

    m = {
        "sieve.kfree_s": total("sieve.kfree"),
        "sieve.kfree_elems": attr(by_name["sieve.kfree"], "elems"),
        "sieve.kfree_computed_bytes": attr(by_name["sieve.kfree"], "bytes"),
        "sieve.mobius_s": total("sieve.mobius"),
        "sieve.mobius_elems": attr(by_name["sieve.mobius"], "elems"),
        "sieve.mobius_computed_bytes": attr(by_name["sieve.mobius"], "bytes"),
        "sieve.primes_s": total("sieve.primes"),
        "sieve.spf_s": total("sieve.spf"),
        "rules.segment_s": segment_s,
        "rules.segment_calls": len(by_name["rules.segment"]),
        "rules.segment_elems": attr(by_name["rules.segment"], "elems"),
        "rules.segment_ns_per_elem": per_elem_ns(segment_s, attr(by_name["rules.segment"], "elems")),
        "rules.segment_computed_bytes": attr(by_name["rules.segment"], "bytes"),
        "rules.prime_value_calls": tracer.counts["rules.prime_value_calls"],
        "characters.value_calls": tracer.counts["characters.value_calls"],
        "summatory.reduce_self_s": reduce_s,
        "summatory.reduce_ns_per_elem": per_elem_ns(reduce_s, reduce_elems),
        "summatory.reduce_computed_bytes": attr(by_name["summatory.segment_callback"], "bytes"),
        "summatory.segments": len(callbacks),
        "summatory.checkpoints": attr(by_name["summatory.stream"], "checkpoints"),
        "summatory.t2_busy_ratio": t2_busy / t2_wall if t2_wall else 0.0,
        "summatory.oracle_map_s": total("summatory.oracle_map"),
        "summatory.oracle_map_args": attr(by_name["summatory.oracle_map"], "args"),
        "summatory.hyperbola_s": total("summatory.hyperbola"),
        "summatory.g_oracle_calls": tracer.counts["summatory.g_oracle_calls"],
        "summatory.h_oracle_calls": tracer.counts["summatory.h_oracle_calls"],
        "summatory.mertens_recursive_s": total("summatory.mertens_recursive"),
        "convolution.kfree_factor_s": total("convolution.kfree_factor"),
        "convolution.convolve_s": total("convolution.convolve"),
        "convolution.inverse_s": total("convolution.inverse"),
        "convolution.deviation_s": total("convolution.deviation"),
        "constructions.greedy_s": total("constructions.greedy"),
        "constructions.greedy_primes_scanned": attr(
            [s for s in by_name["sieve.primes"] if s.parent in greedy_ids], "elems"
        ),
        "constructions.distance_s": total("constructions.distance"),
        "constructions.budget_s": total("constructions.budget"),
        "analysis.envelope_s": total("analysis.envelope"),
        "analysis.fit_s": total("analysis.fit"),
        "reporting.write_s": total("reporting.write"),
        "reporting.bytes_written": attr(by_name["reporting.write"], "bytes"),
        "experiment.bundle_self_s": sum(self_time(s) for s in by_name["experiment.bundle"]),
        "experiment.compare_self_s": sum(self_time(s) for s in by_name["experiment.compare"]),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(m) == list(PER_LAYER)
    return m


def span_records(tracer: Tracer) -> list[dict]:
    """The spans as JSON-ready dicts, times in seconds from the first span."""
    t0 = min((s.start for s in tracer.spans), default=0.0)
    return [
        {
            "id": s.id, "parent": s.parent, "name": s.name, "iteration": s.iteration,
            "thread": s.thread, "start": s.start - t0, "end": s.end - t0, **s.attrs,
        }
        for s in tracer.spans
    ]
