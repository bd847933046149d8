"""Span tracer installed from outside the gsverify package.

``Tracer.install`` replaces every public function of the layer modules, and
a few named methods, with a wrapper, in every gsverify namespace that bound
the function (``cli`` and ``constructions`` import ``find_manipulation`` and
others by name, so patching ``rules`` alone would miss their calls).
``uninstall`` puts every original back.

A timed function records one span per call: id, parent span id, name, start,
busy time and self time (busy time minus the time its child spans cover).
When a call returns a generator, its span also covers the time spent inside
each step, wherever the generator is consumed.  Hot per-profile functions
are counted, not timed, so that tracing them stays cheap; their time lands
in the self time of the span that called them.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter
from types import GeneratorType

LAYERS = ("prefs", "rules", "_engine", "classify", "constructions", "cli")

# Layer-boundary functions that get spans; every other public function is counted.
TIMED = {
    "cli.run",
    "cli.build_parser",
    "rules.parse_rule",
    "rules.find_manipulation",
    "rules.find_efficiency_violation",
    "rules.find_tops_only_violation",
    "rules.find_dictator",
    "rules.find_unanimity_violation",
    "engine.Space",
    "engine.iter_profile_verdicts",
    "engine.cells_masks",
    "engine.table_efficient_definitional",
    "constructions.verify_lemma",
    "constructions.census",
    "constructions.census_rows",
}
# (module, class, attribute) -> span name, for methods wrapped on their class
METHODS = {
    ("prefs", "Profile", "with_replaced"): "prefs.Profile.with_replaced",
    ("_engine", "Space", "__init__"): "engine.Space",
}
# spans that also record the CPU time of child processes reaped during the call
CHILD_CPU = {"constructions.verify_lemma"}
# span name -> tag taken from the call's positional arguments
TAGS = {"constructions.verify_lemma": lambda args: str(args[0]).upper()}
# span name -> item count taken from the call's result
ITEMS = {"constructions.census": lambda result: result.total}

# span record fields, in order
FIELDS = ("id", "parent", "name", "tag", "start", "busy_s", "self_s", "items",
          "non_null", "child_cpu_s")


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr}"


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Wraps gsverify in place; ``only`` restricts wrapping to those span names."""

    def __init__(self, only: frozenset[str] | None = None):
        self.only = only
        self.spans: list[list] = []
        self.counters: dict[str, list[int]] = {}
        self._stack: list[list] = [[0.0, 0]]  # frames: [child time, span id]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "gsverify" or name.startswith("gsverify.")
        ]
        for short in LAYERS:
            module = sys.modules[f"gsverify.{short}"]
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                name = span_name(short, attr)
                if self._wanted(name):
                    wrapper = self._wrap(name, obj)
                    for namespace in namespaces:
                        for bound, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, bound, wrapper)
        for (short, cls_name, attr), name in METHODS.items():
            if self._wanted(name):
                cls = getattr(sys.modules[f"gsverify.{short}"], cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, func):
        if name in TIMED:
            return self._timed(name, func)
        return self._counted(name, func)

    # -- counted functions --------------------------------------------------

    def _counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def _counted(self, name: str, func):
        calls = self._counter(name)
        items = self._counter(name + ".items")

        def counted(*args, **kwargs):
            calls[0] += 1
            result = func(*args, **kwargs)
            if type(result) is GeneratorType:
                return _count_items(result, items)
            return result

        return counted

    # -- timed functions ----------------------------------------------------

    def _timed(self, name: str, func):
        stack = self._stack
        spans = self.spans
        tag_of = TAGS.get(name)
        items_of = ITEMS.get(name)
        child_cpu = name in CHILD_CPU
        tracer = self

        def timed(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            cpu0 = _child_cpu() if child_cpu else 0.0
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                parent[0] += busy
            record = [
                span_id,
                parent[1],
                name,
                tag_of(args) if tag_of else None,
                start,
                busy,
                busy - frame[0],
                items_of(result) if items_of else 0,
                result is not None,
                _child_cpu() - cpu0 if child_cpu else 0.0,
            ]
            spans.append(record)
            if name == "cli.build_parser":
                result.parse_args = tracer._timed("cli.parse_args", result.parse_args)
            if type(result) is GeneratorType:
                return _timed_steps(result, record, frame, stack)
            return result

        return timed

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": FIELDS,
                    "spans": self.spans,
                    "counts": {
                        k: v[0] for k, v in sorted(self.counters.items())
                        if v[0] or not k.endswith(".items")
                    },
                },
                handle,
            )


def _count_items(gen, items: list[int]):
    for item in gen:
        items[0] += 1
        yield item


def _timed_steps(gen, record: list, frame: list, stack: list):
    """Re-yield ``gen``, adding the time inside each step to ``record``."""
    steps = 0
    try:
        while True:
            consumer = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                busy = perf_counter() - start
                stack.pop()
                consumer[0] += busy
                record[5] += busy
            steps += 1
            yield item
    finally:
        record[6] = record[5] - frame[0]
        record[7] = steps
