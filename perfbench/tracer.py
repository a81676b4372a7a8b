"""Spans around the citecascade layers, recorded from outside the program.

``Tracer.install()`` replaces every public function of every ``citecascade``
module, at its definition and at every module that imported it by name, with
a wrapper. It also wraps the methods in ``METHODS``. A wrapper either opens a
span (name, start, end, parent) or, for the per-record and per-text helpers
in ``COUNTED``, only counts the call: a span there would cost more than the
work it measures. Spans stay in memory; ``self_seconds`` derives each span's
self time (its duration minus its children's) when the run is over.

tracemalloc runs only inside the ``render.layout`` span, to measure its peak.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = (
    "records", "sources", "expansion", "cocitation", "clustering",
    "labeling", "overlay", "render", "session", "cli",
)

# Helpers called once per record, text, pair or color: counted, not timed.
COUNTED = {
    "records": {"max_plausible_year", "normalize_title", "canonical_id"},
    "expansion": {"parse_direction"},
    "cocitation": {"canonical_pair", "cocite_pairs", "round_half_up"},
    "labeling": {"tokenize", "extract_phrases", "log_likelihood_ratio"},
    "render": {"scale_year_color", "blend_colors"},
}

# Methods timed as spans, by module and class. Classmethods keep their kind.
METHODS = {
    "records": {"RecordStore": ("load", "ingest", "enrich_abstracts", "append_records")},
    "sources": {"CitationSnapshot": ("from_store", "search")},
    "session": {
        "Session": (
            "load_store", "append_store_delta", "save_dataset", "load_dataset",
            "save_network", "load_network", "save_clusters", "load_partition",
        )
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter[str] = Counter()
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.texts: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_seconds(self) -> list[float]:
        """Self time of each span, in span order."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_seconds()):
            out[span[0]] += own
        return out

    def descendants_self(self, root_name: str, layers: set[str]) -> float:
        """Self time of spans of ``layers`` nested under spans named ``root_name``."""
        inside: list[bool] = []
        total = 0.0
        for (name, _start, _end, parent), own in zip(self.spans, self.self_seconds()):
            under = name == root_name or (parent >= 0 and inside[parent])
            inside.append(under)
            if under and name.split(".", 1)[0] in layers:
                total += own
        return total

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            measure_memory = name == "render.layout"
            if measure_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.totals["render.layout.peak_mb"] = max(
                        tracer.totals["render.layout.peak_mb"], peak / 1e6
                    )
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the functions and methods of every loaded citecascade module."""
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == "citecascade" or name.startswith("citecascade.")
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = modules.get(f"citecascade.{layer}")
            if module is None:  # a layer later merged away reports zeros
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                counted = attr in COUNTED.get(layer, ())
                replacements[id(value)] = (self._counted if counted else self._timed)(name, value)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    raw = vars(cls).get(method) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._timed(f"{layer}.{method}", raw.__func__))
                    else:
                        wrapped = self._timed(f"{layer}.{method}", raw)
                    self._patch(cls, method, wrapped)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._patch(module, attr, replacements[id(value)])

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- counters recorded where the work happens -------------------------------------


def _after_extract_phrases(tracer: Tracer, args, _result) -> None:
    tracer.texts.add(args[0])


def _after_cocite_pairs(tracer: Tracer, _args, result) -> None:
    tracer.totals["cocitation.pairs_counted"] += len(result)


def _after_prune_links(tracer: Tracer, args, result) -> None:
    tracer.totals["cocitation.links_in"] += len(args[0].edges)
    tracer.totals["cocitation.links_kept"] += len(result.edges)


def _after_run_cascade(tracer: Tracer, _args, result) -> None:
    _dataset, trace = result
    for generation in trace.generations:
        tracer.totals["expansion.candidates_found"] += generation.candidates_found
        tracer.totals["expansion.admitted"] += len(generation.added_ids)


def _after_save_network(tracer: Tracer, args, _result) -> None:
    session, name = args[0], args[1]
    tracer.totals["session.network_bytes"] += sum(p.stat().st_size for p in session.network_paths(name))


_AFTER = {
    "labeling.extract_phrases": _after_extract_phrases,
    "cocitation.cocite_pairs": _after_cocite_pairs,
    "cocitation.prune_links": _after_prune_links,
    "expansion.run_cascade": _after_run_cascade,
    "session.save_network": _after_save_network,
}
