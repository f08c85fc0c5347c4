"""Span tracing installed from outside the package, for the traced run.

Each traced function is replaced by a wrapper that records one span: name,
start, end, parent span and the operation it ran under.  Spans stay in
memory, in flat arrays, until the run ends.  A span's self time is its
duration minus the durations of its direct children; one thread means the
children never overlap, so that is the time they cover.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = SETUP_OP
        self.tallies: dict[str, float] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[int, str], object] = {}

    def _wrap(self, name: str, fn, tally=None):
        if name not in self.names:
            self.names.append(name)
            self.tallies[name] = 0.0
        name_id = self.names.index(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, open_spans = self.start, self.end, self._open

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(span)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                starts[span] = begin
                open_spans.pop()
            if tally is not None and self.current_op != SETUP_OP:
                self.tallies[name] += tally(result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(name, owner, attribute, tally)`` target.

        A function owned by a module is also replaced wherever another
        module of the package imported it by name; a method is replaced on
        its class.  ``tally(result)`` is summed over calls made inside
        operations.
        """
        for name, owner, attribute, tally in targets:
            original = getattr(owner, attribute)
            key = (id(original), name)
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(name, original, tally)
            wrapper = self._wrappers[key]
            if isinstance(owner, type):
                holders = [owner]
            else:
                package = owner.__name__.split(".")[0]
                holders = [module for module_name, module
                           in list(sys.modules.items())
                           if module_name == package
                           or module_name.startswith(package + ".")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` (all), ``op_calls`` (inside operations),
        ``self_s`` (total self time of all calls) and ``first_s`` (duration
        of the first call)."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[i]
        out = {name: {"calls": 0, "op_calls": 0, "self_s": 0.0,
                      "first_s": 0.0} for name in self.names}
        for i in range(count):
            entry = out[self.names[self.name[i]]]
            if entry["calls"] == 0:
                entry["first_s"] = durations[i]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - covered[i]
            if self.op[i] != SETUP_OP:
                entry["op_calls"] += 1
        return out
