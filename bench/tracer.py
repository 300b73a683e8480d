"""Outside-in tracer for schurzeta's layers, installed for the traced pass only.

The tracer never edits the package.  It replaces, for the duration of one
pass, each layer's public functions with timing wrappers under every name
they are bound to in every schurzeta module (the layers import each other
with ``from .x import y``), and a few element operators on their classes.
``uninstall`` puts every original back.

* Functions become spans: name, start, end, parent span and the root span
  of the workload item that caused them.  Spans stay in memory until the
  benchmark writes them out at the end.
* Generators are timed per ``next()``, so the time of enumerating lives
  with the generator and not with whoever consumes it; the items they
  yield are counted.
* Element operators are aggregated as call counts plus self time, with no
  span per call.

Self time is a call's duration minus the time of the traced calls nested in
it.  Every wrapper carries ``_bench_traced`` so that an untraced pass can
prove it runs the original functions.
"""

from __future__ import annotations

import gzip
import inspect
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("rings", "shapes", "values", "lattice", "jacobi_trudi", "sweeps", "cli")

# Element operators: metric name -> (class in rings, attributes bound to it).
OPERATORS = {
    "TPoly.add": ("TPoly", ("__add__",)),
    "TPoly.mul": ("TPoly", ("__mul__", "__rmul__")),
    "TPoly.subs_one_minus_t": ("TPoly", ("subs_one_minus_t",)),
    "QSeries.mul": ("QSeries", ("__mul__", "__rmul__")),
    "MonomialPolynomial.add": ("MonomialPolynomial", ("__add__", "__radd__")),
    "MonomialPolynomial.mul": ("MonomialPolynomial", ("__mul__", "__rmul__")),
}

# Largest size seen, per traced name: how it is read off a call.
PEAKS = {
    "rings.ring_determinant": lambda args, result: len(args[0]),
    "rings.MonomialPolynomial.add": lambda args, result: len(getattr(result, "terms", ())),
    "rings.MonomialPolynomial.mul": lambda args, result: len(getattr(result, "terms", ())),
}

MARK = "_bench_traced"


class Stat:
    __slots__ = ("calls", "total", "self", "items", "peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0
        self.peak = 0


def is_traced(obj) -> bool:
    return getattr(obj, MARK, False)


def package_modules(api):
    """Every loaded module of the package, the package itself included."""
    return [api.package] + [getattr(api, layer) for layer in LAYERS]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        # Child time accumulated by the innermost open traced call; the
        # bottom entry absorbs time of calls made outside any traced call.
        self._child = [0.0]
        self._span = [-1]
        self._root = -1
        self._restore: list[tuple] = []

    # -- counters ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _finish(self, stat: Stat, duration: float) -> None:
        child = self._child.pop()
        self._child[-1] += duration
        stat.calls += 1
        stat.total += duration
        stat.self += duration - child

    # -- wrappers ---------------------------------------------------------

    def _function(self, name: str, fn):
        stat = self.stat(name)
        name_id = len(self.names)
        self.names.append(name)
        peak = PEAKS.get(name)
        child, span_stack, spans = self._child, self._span, self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = span_stack[-1]
            spans.append(None)
            span_stack.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_stack.pop()
                spans[span_id] = (span_id, parent, self._root, name_id, start, end)
                self._finish(stat, end - start)
            if peak is not None:
                stat.peak = max(stat.peak, peak(args, result))
            return result

        return wrapper

    def _generator(self, name: str, fn):
        stat = self.stat(name)
        child = self._child
        finish = self._finish

        def iterate(gen):
            while True:
                child.append(0.0)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    finish(stat, perf_counter() - start)
                stat.items += 1
                yield item

        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return wrapper

    def _operator(self, name: str, fn):
        stat = self.stat(name)
        peak = PEAKS.get(name)
        child = self._child
        finish = self._finish

        def wrapper(*args):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                finish(stat, perf_counter() - start)
            if peak is not None:
                stat.peak = max(stat.peak, peak(args, result))
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, api) -> None:
        modules = package_modules(api)
        replacements = {}
        for layer in LAYERS:
            module = getattr(api, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapper = self._generator(name, obj)
                else:
                    wrapper = self._function(name, obj)
                replacements[id(obj)] = _mark(wrapper, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for metric, (cls_name, attrs) in OPERATORS.items():
            cls = getattr(api.rings, cls_name)
            original = vars(cls)[attrs[0]]
            wrapper = _mark(self._operator(f"rings.{metric}", original), original)
            for attr in attrs:
                self._restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def root(self, name: str):
        """A root span around one workload item; returns a callable that
        closes it."""
        name_id = len(self.names)
        self.names.append(f"item.{name}")
        span_id = len(self.spans)
        self.spans.append(None)
        self._root = span_id
        self._span.append(span_id)
        start = perf_counter()

        def close():
            end = perf_counter()
            self._span.pop()
            self.spans[span_id] = (span_id, -1, span_id, name_id, start, end)
            self._root = -1

        return close

    # -- output -----------------------------------------------------------

    def outermost_seconds(self, layer: str) -> dict[str, float]:
        """Inclusive time of the layer's outermost spans, per workload item:
        a span of the layer called from inside another is not counted again."""
        prefix = layer + "."
        names, spans = self.names, self.spans
        totals: dict[str, float] = {}
        for span_id, parent, root, name_id, start, end in spans:
            if not names[name_id].startswith(prefix):
                continue
            while parent >= 0 and not names[spans[parent][3]].startswith(prefix):
                parent = spans[parent][1]
            if parent < 0 and root >= 0:
                item = names[spans[root][3]].removeprefix("item.")
                totals[item] = totals.get(item, 0.0) + end - start
        return totals

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self for n, s in self.stats.items() if n.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write every span, and the aggregated counters, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": self.spans,
            "counters": {
                n: {"calls": s.calls, "total_s": s.total, "self_s": s.self,
                    "items": s.items, "peak": s.peak}
                for n, s in sorted(self.stats.items())
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _mark(wrapper, original):
    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__doc__ = original.__doc__
    setattr(wrapper, MARK, True)
    return wrapper
