"""Span tracing installed from outside the library, around its public calls.

Each site is a public name as bound in the module that calls it, such as
``quadcantor.intersection.is_member``: replacing that module attribute makes
every call through it record a span (name, start, end, parent).  Spans are
kept in memory and reduced to per-layer calls, total and self time when the
run ends; self time is a span's duration minus the time its child spans
cover.  A site whose module or attribute is absent is skipped, so the same
benchmark runs on commits that rename or delete a name.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# layer name -> bindings that get a span each
SPAN_SITES = {
    "intersection.full_intersection": ["quadcantor:full_intersection"],
    "intersection.preconditions": ["quadcantor:preconditions", "quadcantor.intersection:preconditions"],
    "intersection.enumerate_level": ["quadcantor.intersection:enumerate_level"],
    "intersection.minimal_tuple": ["quadcantor.intersection:minimal_tuple"],
    "intersection.certified_bound": ["quadcantor:certified_bound", "quadcantor.intersection:certified_bound"],
    "intersection.tuple_is_excluded": ["quadcantor:tuple_is_excluded"],
    "intersection.period_congruence_holds": ["quadcantor:period_congruence_holds"],
    "exactmath.sqrt_bounds": ["quadcantor.intersection:floor_add_sqrt", "quadcantor.intersection:ceil_sub_sqrt"],
    "exactmath.log2_interval": ["quadcantor.intersection:log2_interval"],
    "membership.is_member": ["quadcantor:is_member", "quadcantor.intersection:is_member"],
    "membership.coding_of": ["quadcantor:coding_of", "quadcantor.intersection:coding_of"],
    "membership.verify_coding": ["quadcantor:verify_coding"],
    "orders.c2_constant": ["quadcantor:c2_constant", "quadcantor.intersection:c2_constant"],
    "orders.stabilization": ["quadcantor.orders:stabilization"],
    "orders.ord_mod": ["quadcantor.orders:ord_mod"],
    "ideals.factor_element": ["quadcantor:factor_element", "quadcantor.intersection:factor_element"],
    "ntheory.factor_int": ["quadcantor.ideals:factor_int"],
}

# layer name -> bindings that are only counted; a span here would split the
# self time of the callers the per-layer metrics name (valuation, minimal_tuple)
COUNT_SITES = {
    "ideals.ideal_pow": [
        "quadcantor.ideals:ideal_pow",
        "quadcantor.orders:ideal_pow",
        "quadcantor.intersection:ideal_pow",
    ],
}

ROOT = "solve"


class Tracer:
    """Wrappers on module attributes, with an in-memory span list."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.member_true = 0
        self.repeat_u = 0
        self._seen_u: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every site present at this commit; return the absent ones."""
        absent = []
        for name, sites in SPAN_SITES.items():
            for site in sites:
                if not self._wrap(site, name, spanned=True):
                    absent.append(site)
        for name, sites in COUNT_SITES.items():
            self.counts.setdefault(name, 0)
            for site in sites:
                if not self._wrap(site, name, spanned=False):
                    absent.append(site)
        return absent

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, site: str, name: str, spanned: bool) -> bool:
        module_name, attr = site.split(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        if spanned:
            observe = self._observe_member if name == "membership.is_member" else None
            wrapper = self._span_wrapper(fn, name, observe)
        else:
            wrapper = self._count_wrapper(fn, name)
        self._restore.append((module, attr, fn))
        setattr(module, attr, wrapper)
        return True

    def _span_wrapper(self, fn, name, observe):
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_member(self, args, result) -> None:
        if len(args) < 3:
            return
        key = (id(args[2]), args[1])  # (spec, u) of is_member(v, u, spec)
        self.repeat_u += key in self._seen_u
        self._seen_u.add(key)
        self.member_true += bool(result)

    def root(self):
        """Context manager for the root span that covers one whole solve."""
        return _Root(self)

    def edges(self) -> dict[str, int]:
        """Calls counted by 'parent>child' layer names."""
        out: dict[str, int] = {}
        for name, _, _, parent in self.spans:
            if parent >= 0:
                key = f"{self.spans[parent][0]}>{name}"
                out[key] = out.get(key, 0) + 1
        return out

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, total and self seconds, from the span list."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, t0, t1, parent = span
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child):
            name, t0, t1, _ = span
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - covered
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["calls"] = n
        return out


class _Root:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.idx)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = perf_counter()
        t.stack.pop()
        t.spans[self.idx] = (ROOT, self.t0, t1, -1)
        return False
