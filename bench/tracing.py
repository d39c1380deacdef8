"""Span tracing of lambda_tree from outside the program.

Tracer.install replaces every public function of the layer modules, and
every public method of their public classes, with a wrapper that records a
span: name, span id, parent span id, the benchmark item it belongs to,
start and end. A function re-imported by name into another module (for
example solver's `from .poly import compose`) is replaced there as well,
so nested calls open child spans and each span's self time is its duration
minus the time its children cover. Dunder methods and properties stay
unwrapped; their time counts as the caller's self time.

Per-name calls, total and self time are accumulated for every call. Raw
spans are kept in memory, up to a cap, and written out by write_spans when
the run ends.
"""

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("tree", "model", "ground", "gibbs", "poly", "solver", "cli")

MAX_SPANS = 100_000


def _vertex_count(k: int, depth: int) -> int:
    # computed here: calling TreeShape.vertex_count from a counter would
    # itself be traced
    return sum(k ** m for m in range(depth + 1))


def _count_finite_volume(counters, bound, result):
    """gibbs.states_enumerated: q^|V| per enumeration."""
    shape = bound.arguments["shape"]
    states = bound.arguments["q"] ** _vertex_count(shape.k, shape.depth)
    counters["gibbs.states_enumerated"] = counters.get("gibbs.states_enumerated", 0) + states


def _count_brute_force(counters, bound, result):
    """ground.states_enumerated (3^|V| per call) and ground.minima_found."""
    states = 3 ** _vertex_count(2, bound.arguments["depth"])
    counters["ground.states_enumerated"] = counters.get("ground.states_enumerated", 0) + states
    counters["ground.minima_found"] = counters.get("ground.minima_found", 0) + len(result)


COUNTERS = {
    "gibbs.finite_volume_measure": _count_finite_volume,
    "ground.brute_force_minima": _count_brute_force,
}


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.item = -1                        # set by the caller per item
        self.max_spans = max_spans
        self.spans_dropped = 0
        self._names: list[str] = []
        self._stack = [[0.0, -1]]             # open spans: [child time, span id]
        self._next_id = 0
        self._ids = array("q")
        self._name_ids = array("i")
        self._parents = array("q")
        self._items = array("q")
        self._starts = array("d")
        self._ends = array("d")

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._names.append(name)
        name_id = len(self._names) - 1
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                tracer._record(span_id, name_id, parent[1], start, end)
            if counter is not None:
                counter(tracer.counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    @property
    def spans_kept(self) -> int:
        return len(self._ids)

    def _record(self, span_id, name_id, parent_id, start, end):
        if len(self._ids) >= self.max_spans:
            self.spans_dropped += 1
            return
        self._ids.append(span_id)
        self._name_ids.append(name_id)
        self._parents.append(parent_id)
        self._items.append(self.item)
        self._starts.append(start)
        self._ends.append(end)

    def install(self, package: str) -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in [*modules.values(), importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{layer}.{attr}", member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{layer}.{attr}", member.__func__)))

    def self_s(self, prefix: str) -> float:
        """Self time of one span name, or of a whole layer given 'layer.'."""
        if prefix.endswith("."):
            return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))
        return self.stats.get(prefix, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for i in range(len(self._ids)):
                fh.write(json.dumps({
                    "id": self._ids[i], "parent": self._parents[i],
                    "item": self._items[i], "name": self._names[self._name_ids[i]],
                    "start": self._starts[i], "end": self._ends[i]}) + "\n")
