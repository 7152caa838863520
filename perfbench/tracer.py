"""Span tracer that wraps qrelax functions from outside the package.

Each wrapped function records one span (name, start, end, parent) per
call. A function is patched in every qrelax namespace that holds it, so
``from .schedules import select_index`` bindings inside ``classical``,
``branch`` and ``statevector`` are traced as well as the defining module.
Spans are kept in per-thread arrays and reduced once, at the end, to call
counts and self times (span duration minus the time its child spans
cover). Targets that a later version of the package no longer has are
listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter

# Name of the span that wraps observer hooks: it has no metric of its own,
# but as a child span it keeps hook cost out of the traced function's
# parent's self time.
OBSERVE = "trace.observe"


class _ThreadSpans:
    """Spans opened by one thread; parents are indices into these arrays."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()


class Tracer:
    """Patches target functions with span-recording wrappers.

    Wrappers cost one flag test while ``enabled`` is false, so the same
    process can time untraced and traced solves.
    """

    def __init__(self):
        self.enabled = False
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def maximum(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters.get(counter, 0.0), value)

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self._buffers.append(spans)
            self._local.spans = spans
        return spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a ``name`` span per call; ``observe(tracer,
        args, result)`` runs after the span closes, inside its own span."""
        name_id = self._name_id(name)
        observe_id = self._name_id(OBSERVE)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer._spans()
            idx = spans.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(idx)
            if observe is not None:
                idx = spans.open(observe_id)
                try:
                    observe(tracer, args, result)
                finally:
                    spans.close(idx)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Patch ``(span name, module, attribute, observer)`` targets.

        ``attribute`` may be ``Class.method``. A plain function is replaced
        in every loaded ``qrelax`` module whose namespace binds it.
        """
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "qrelax"]
        for span, module_name, attribute, observe in targets:
            module = sys.modules.get(f"qrelax.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{span} <- {module_name}.{attribute}")
                continue
            wrapper = self.wrap(span, original, observe)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
        import numpy as np

        out: dict[str, dict[str, float]] = {}
        size = len(self._names)
        for spans in self._buffers:
            if not spans.name:
                continue
            name = np.frombuffer(spans.name, dtype=np.int32)
            parent = np.frombuffer(spans.parent, dtype=np.int64)
            duration = np.frombuffer(spans.end) - np.frombuffer(spans.start)
            has_parent = parent >= 0
            covered = np.bincount(
                parent[has_parent], weights=duration[has_parent], minlength=name.size
            )
            calls = np.bincount(name, minlength=size)
            self_s = np.bincount(name, weights=duration - covered, minlength=size)
            total_s = np.bincount(name, weights=duration, minlength=size)
            for i, label in enumerate(self._names):
                if calls[i] == 0:
                    continue
                entry = out.setdefault(label, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                entry["calls"] += int(calls[i])
                entry["self_s"] += float(self_s[i])
                entry["total_s"] += float(total_s[i])
        out.pop(OBSERVE, None)
        return out
