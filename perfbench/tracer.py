"""Span tracer that measures ngclab's layers from outside the library.

A boundary is a function that one ngclab module imports from another, a
method of `relations.Relation`, or an entry point the benchmark calls.  Each
boundary is wrapped, and the wrapper is bound under every name that held the
original in any ngclab namespace: modules import by name, so patching only
the defining module would miss most calls.  Names that do not exist at the
checked-out commit are skipped.

Every wrapped call is a span (name, start, end, parent span, item).  Spans are
aggregated as they close (calls, self time = span minus child spans) and the
first SPAN_CAP of them are kept in memory and written out when the run ends.
Iterators returned by a boundary (the program generators) are wrapped too, so
time spent inside `next` is a span of the function that made the iterator.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPAN_CAP = 200_000

# entry points the workloads call, besides the cross-module imports
ENTRY_POINTS = (
    ("ngclab.cli", "main"),
    ("ngclab.parser", "parse_module"),
    ("ngclab.parser", "parse_guard"),
    ("ngclab.parser", "parse_program"),
    ("ngclab.theorems", "check_theorem"),
    ("ngclab.search", "find_counterexample"),
    ("ngclab.transformers", "oracle_transform"),
    ("ngclab.transformers", "inductive_transform"),
    ("ngclab.generators", "generate_programs"),
    ("ngclab.semantics", "may_diverge"),
    ("ngclab.semantics", "build_graph"),
    ("ngclab.logics", "holds"),
    ("ngclab.topkat", "check_equation"),
)

RELATION_METHODS = (
    "compose", "star", "converse", "domain_bits", "codomain_bits",
    "image_bits", "preimage_bits",
)


def ngclab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ngclab" or name.startswith("ngclab."))]


def metric_name(module: str, func: str) -> str:
    """`ngclab.semantics._assign_successors` -> `semantics.assign_successors`."""
    return f"{module.rsplit('.', 1)[-1]}.{func.lstrip('_')}"


def find_caches() -> dict:
    """Every lru_cache defined in an ngclab module, by metric name."""
    out = {}
    for mod in ngclab_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[metric_name(mod.__name__, obj.__name__)] = obj
    return out


def find_boundaries() -> dict:
    """Boundary functions by metric name: cross-module imports plus entry points."""
    modules = ngclab_modules()
    found = {}
    for mod in modules:
        for obj in vars(mod).values():
            home = getattr(obj, "__module__", None)
            if (callable(obj) and not isinstance(obj, type) and home
                    and home.startswith("ngclab.") and home != mod.__name__):
                found[metric_name(home, obj.__name__)] = obj
    by_name = {m.__name__: m for m in modules}
    for module, func in ENTRY_POINTS:
        obj = getattr(by_name.get(module), func, None)
        if obj is not None:
            found[metric_name(module, func)] = obj
    return found


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span: int, start: float):
        self.span = span
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self, caches: dict):
        self.caches = caches
        self.enabled = False
        self.item = -1
        self.stats: dict[str, list] = {}   # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.stack: list[_Frame] = []
        self.next_span = 0
        self.columns = {k: array(t) for k, t in
                        (("name", "i"), ("start", "d"), ("end", "d"),
                         ("parent", "i"), ("item", "i"))}
        self.cache_totals = {name: [0, 0] for name in caches}
        self.profile_keys: set = set()
        self._profile_misses = 0

    # --- counters attached to particular boundaries ------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _after(self, name: str, result) -> None:
        if name == "semantics.denote_relation":
            self.count("relations.pairs", sum(row.bit_count() for row in result.rows))
        elif name == "semantics.build_graph":
            self.count("semantics.build_graph.nodes", len(result.nodes))
        elif name == "semantics.profile":
            cache = self.caches.get("semantics.profile")
            misses = cache.cache_info().misses if cache else 0
            if misses != self._profile_misses:
                self._profile_misses = misses
                self.profile_keys.add((result.space, result.relation.rows,
                                       result.may_div, result.must_div))
        elif name == "theorems.check_theorem":
            self.count("theorems.programs", result.stats.get("programs", 0))
            self.count("theorems.triples", result.stats.get("triples", 0))
        elif name == "search.find_counterexample":
            self.count("search.candidates", result.candidates)

    # --- spans --------------------------------------------------------------

    def _open(self) -> _Frame:
        frame = _Frame(self.next_span, time.perf_counter())
        self.next_span += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame.start
        entry = self.stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += duration - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        if frame.span < SPAN_CAP:
            cols = self.columns
            name_id = self.name_ids.get(name)
            if name_id is None:
                name_id = self.name_ids[name] = len(self.names)
                self.names.append(name)
            cols["name"].append(name_id)
            cols["start"].append(frame.start)
            cols["end"].append(end)
            cols["parent"].append(parent.span if parent is not None else -1)
            cols["item"].append(self.item)

    def _wrap_function(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame)
            if hasattr(result, "__next__") and hasattr(result, "__iter__"):
                if isinstance(result, _TracedIterator):
                    result.name = name  # attribute to the outermost caller
                    return result
                return _TracedIterator(tracer, name, result)
            tracer._after(name, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # --- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every boundary found at run time; returns their metric names."""
        modules = ngclab_modules()
        boundaries = find_boundaries()
        for name, original in boundaries.items():
            wrapper = self._wrap_function(name, original)
            for mod in modules:
                namespace = vars(mod)
                for attr, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        relations = sys.modules.get("ngclab.relations")
        relation_cls = getattr(relations, "Relation", None)
        names = sorted(boundaries)
        for method in RELATION_METHODS:
            original = relation_cls.__dict__.get(method) if relation_cls else None
            if original is None:
                continue
            name = f"relations.{method}"
            setattr(relation_cls, method, self._wrap_function(name, original))
            names.append(name)
        self.enabled = True
        return names

    # --- caches ---------------------------------------------------------------

    def snapshot_caches(self) -> None:
        """Fold the current cache statistics into the totals (before a clear)."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_totals[name][0] += info.hits
            self.cache_totals[name][1] += info.misses
        self._profile_misses = 0

    def hit_ratios(self) -> dict[str, float]:
        out = {}
        for name, (hits, misses) in self.cache_totals.items():
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        return out

    # --- results ----------------------------------------------------------------

    def summary(self) -> dict:
        self.snapshot_caches()
        misses = self.cache_totals.get("semantics.profile", [0, 0])[1]
        return {
            "boundaries": {name: {"calls": calls, "self_s": self_s}
                           for name, (calls, self_s) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "cache_hit_ratio": self.hit_ratios(),
            "cache_calls": {name: hits + misses
                            for name, (hits, misses) in self.cache_totals.items()},
            "profile_distinct": len(self.profile_keys),
            "profile_misses": misses,
            "spans_recorded": len(self.columns["name"]),
            "spans_total": self.next_span,
        }

    def write_spans(self, path) -> None:
        """One header line (span name table), then one line per kept span:
        name id, start, end, parent span id (-1 for none), item id."""
        cols = self.columns
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans_total": self.next_span,
                                 "columns": ["name", "start", "end", "parent", "item"]})
                     + "\n")
            for row in zip(cols["name"], cols["start"], cols["end"],
                           cols["parent"], cols["item"]):
                fh.write("%d %.9f %.9f %d %d\n" % row)


class _TracedIterator:
    """Times each `next` of an iterator a boundary returned, as a span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.enabled:
            return next(self.inner)
        frame = tracer._open()
        try:
            value = next(self.inner)
        finally:
            tracer._close(self.name, frame)
        if self.name == "generators.generate_programs":
            tracer.count("generators.programs")
        return value
