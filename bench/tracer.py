"""Spans and call counts recorded from outside the vcubed package.

A traced function is replaced by a wrapper under every name that binds it in
a loaded ``vcubed`` module.  Patching only the defining module would miss
calls from modules that imported the name directly (``quantum`` and ``cli``
do ``from .codes import ...``).  Spans stay in memory until the run ends.

A target that the package no longer defines is skipped and reports 0 calls,
so a later refactor that removes a function does not break the benchmark.
"""

from __future__ import annotations

import sys
from importlib import import_module
from time import perf_counter
from typing import Callable, Iterable, Mapping

# Extra tallies recorded when a traced call returns: (args, kwargs, result)
# -> {counter: increment}.
Hook = Callable[[tuple, dict, object], Mapping[str, float]]


def _bindings(original: object) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded vcubed module bound to original."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "vcubed" or mod_name.startswith("vcubed.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    return found


def _resolve(target: str) -> object | None:
    """``"codes.rref"`` -> the function object, or None if it is gone."""
    mod_name, _, attr = target.rpartition(".")
    try:
        mod = import_module(f"vcubed.{mod_name}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


class _Patcher:
    """Rebinds targets to wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, original: object, wrapper: object) -> None:
        for mod, attr in _bindings(original):
            self._undo.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class SpanTracer(_Patcher):
    """Records one span (name, start, end, parent) per traced call."""

    def __init__(self, targets: Iterable[str],
                 hooks: Mapping[str, Hook] | None = None) -> None:
        super().__init__()
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        self.spans: list[tuple[int, float, float, int]] = []
        self.tallies: dict[str, dict[str, float]] = {t: {} for t in self.targets}
        self._stack: list[int] = []

    def install(self) -> "SpanTracer":
        for name_id, target in enumerate(self.targets):
            original = _resolve(target)
            if callable(original):
                self.patch(original, self._wrap(name_id, target, original))
        return self

    def _wrap(self, name_id: int, target: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        hook, tally = self.hooks.get(target), self.tallies[target]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, spans[index][3])
            if hook is not None:
                try:
                    extra = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The function's signature or result changed; keep the
                    # span and mark the tally as incomplete.
                    extra = {"hook_errors": 1}
                for key, inc in extra.items():
                    tally[key] = tally.get(key, 0) + inc
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, self_s (span minus its child spans) and tallies."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {t: {"calls": 0, "self_s": 0.0, **self.tallies[t]} for t in self.targets}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[self.targets[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def span_rows(self) -> list[list]:
        """Spans as [name, start, end, parent index] rows for writing out."""
        return [[self.targets[n], s, e, p] for n, s, e, p in self.spans]


class CallCounter(_Patcher):
    """Counts calls only; cheap enough for per-element ring functions."""

    def __init__(self, targets: Iterable[str]) -> None:
        super().__init__()
        self.targets = tuple(targets)
        self._cells = {t: [0] for t in self.targets}

    def install(self) -> "CallCounter":
        for target in self.targets:
            original = _resolve(target)
            if callable(original):
                self.patch(original, self._wrap(self._cells[target], original))
        return self

    @staticmethod
    def _wrap(cell: list[int], fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def counts(self) -> dict[str, int]:
        return {t: cell[0] for t, cell in self._cells.items()}
