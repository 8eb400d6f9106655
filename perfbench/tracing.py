"""Spans recorded around the public entry points of each layer.

The benchmark times the program from outside: :class:`Tracer` swaps a
timing wrapper in for a layer's public function or method, records a
span for every call (name, start, end, parent), and restores the
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it
is being traced.

Per-event entry points (``ProcessLP.simulate``, ``Processor.act``, ...)
run hundreds of thousands of times per round, so their spans are folded
on exit into per-``(name, parent name)`` aggregates of count, total and
self time instead of being kept one by one.  Every other span is kept
whole, with its parent's id, and written out at the end of the run.

A span's self time is its duration minus the time its child spans
cover.  Synchronous spans nest strictly, so that is the sum of the
children's durations.  Coroutine spans (the dist wire) interleave on
the event loop, so they are recorded as leaves under whichever span
was open when they started and are never pushed onto the stack.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> public entry point it wraps: ``(module, owner, attr)``
#: where ``owner`` is a class name in ``module`` or ``None`` for a
#: module-level function.  A function imported by name into another
#: module is patched where the caller looks it up (``frontend.elab``
#: and ``cache.hit`` share ``cached_elaborate``; the call's result
#: decides which of the two names the span gets).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "circuits.build": (("repro.circuits", None, "build_fsm"),
                       ("repro.circuits", None, "build_iir"),
                       ("repro.circuits", None, "build_dct")),
    "artifact.snapshot": (("repro.vhdl.design", "Design", "artifact"),),
    "artifact.instantiate": (
        ("repro.vhdl.artifact", "DesignArtifact", "instantiate"),),
    "design.elaborate": (("repro.vhdl.design", "Design", "elaborate"),),
    "frontend.elab": (("repro.vhdl.cache", None, "cached_elaborate"),
                      ("repro.service.batch", None, "cached_elaborate")),
    "compile.lower": (("repro.vhdl.compile", None, "lower_design"),),
    "process.simulate": (("repro.vhdl.process", "ProcessLP", "simulate"),),
    "signal.simulate": (("repro.vhdl.signal", "SignalLP", "simulate"),),
    "sequential.run": (
        ("repro.core.sequential", "SequentialSimulator", "run"),),
    "engine.act": (("repro.parallel.engine", "Processor", "act"),),
    "engine.fossil": (
        ("repro.parallel.engine", "Processor", "fossil_collect"),),
    "engine.local_min": (
        ("repro.parallel.engine", "Processor", "local_min_time"),),
    "machine.run": (("repro.parallel.machine", "ParallelMachine", "run"),),
    "machine.gvt": (
        ("repro.parallel.machine", "ParallelMachine", "compute_gvt"),),
    "procs.run": (("repro.parallel.procs", "ProcsMachine", "run"),),
    "wire.send": (("repro.parallel.dist", None, "send_frame"),),
    "wire.recv": (("repro.parallel.dist", None, "recv_frame"),),
    "service.resolve": (("repro.service.batch", "RunService", "resolve"),),
    "service.run_batch": (
        ("repro.service.batch", "RunService", "run_batch"),),
}

#: Spans that run once per simulated event (or per scheduler step):
#: aggregated, never stored one by one.
HOT = frozenset({"process.simulate", "signal.simulate", "engine.act",
                 "engine.fossil", "engine.local_min", "machine.gvt"})

#: Coroutine entry points (recorded as leaves, see the module notes).
ASYNC = frozenset({"wire.send", "wire.recv"})


def _cache_outcome(result: Any) -> str:
    """``cached_elaborate`` returns ``(artifact, hit)``."""
    return "cache.hit" if result[1] else "frontend.elab"


#: Span names decided by the call's result.
RENAME: Dict[str, Callable[[Any], str]] = {
    "frontend.elab": _cache_outcome}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Whole spans: (id, parent id, name, start, end, self, phase).
        self.spans: List[tuple] = []
        #: Hot spans: (phase, name, parent name) -> [count, total, self].
        self.folded: Dict[Tuple[str, str, str], List[float]] = {}
        self.phase = "setup"
        self._stack: List[list] = []  # [id, name, start, child_time]
        self._next_id = 1
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self, names) -> None:
        """Wrap the entry points of the given span names."""
        for name in names:
            for module_name, owner, attr in ENTRY_POINTS[name]:
                module = importlib.import_module(module_name)
                target = getattr(module, owner) if owner else module
                original = target.__dict__[attr] if owner \
                    else getattr(target, attr)
                self._patched.append((target, attr, original))
                setattr(target, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (last wrapped first)."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        if name in ASYNC:
            return self._wrap_async(name, original)
        rename = RENAME.get(name)
        hot = name in HOT
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [0 if hot else self._take_id(), name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._close(frame, clock(), hot)
                raise
            end = clock()
            stack.pop()
            if rename is not None:
                frame[1] = rename(result)
            self._close(frame, end, hot)
            return result

        return traced

    def _wrap_async(self, name: str, original: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else 0
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                end = clock()
                self.spans.append((self._take_id(), parent, name, start,
                                   end, end - start, self.phase))

        return traced

    def _take_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _close(self, frame: list, end: float, hot: bool) -> None:
        span_id, name, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if hot:
            parent = self._stack[-1][1] if self._stack else ""
            key = (self.phase, name, parent)
            slot = self.folded.get(key)
            if slot is None:
                self.folded[key] = [1, duration, duration - child]
            else:
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - child
            return
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, parent, name, start, end,
                           duration - child, self.phase))

    # ------------------------------------------------------------------
    def totals(self, phase: str) -> Dict[str, List[float]]:
        """Span name -> [count, total s, self s] for one phase."""
        out: Dict[str, List[float]] = {}
        for (span_phase, name, _parent), (count, total, own) in \
                self.folded.items():
            if span_phase == phase:
                _add(out, name, count, total, own)
        for record in self.spans:
            if record[6] == phase:
                _add(out, record[2], 1, record[4] - record[3], record[5])
        return out

    def covered(self, phase: str) -> float:
        """Wall time of ``phase`` that some span claims.

        Self times of strictly nested spans partition the time they
        cover, so their sum is the covered time.  Top-level coroutine
        spans overlap each other, so they add the length of their
        union.
        """
        own = sum(slot[2] for key, slot in self.folded.items()
                  if key[0] == phase)
        loose = []
        for record in self.spans:
            if record[6] != phase:
                continue
            if record[2] not in ASYNC:
                own += record[5]
            elif record[1] == 0:
                loose.append((record[3], record[4]))
        reach = float("-inf")
        for start, end in sorted(loose):
            if end > reach:
                own += end - max(start, reach)
                reach = end
        return own

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": [dict(zip(("id", "parent", "name", "start", "end",
                                "self", "phase"), record))
                      for record in self.spans],
            "folded": [{"phase": phase, "name": name, "parent": parent,
                        "count": slot[0], "total": slot[1],
                        "self": slot[2]}
                       for (phase, name, parent), slot in
                       sorted(self.folded.items())],
        }


def _add(out: Dict[str, List[float]], name: str, count: float,
         total: float, own: float) -> None:
    slot = out.setdefault(name, [0, 0.0, 0.0])
    slot[0] += count
    slot[1] += total
    slot[2] += own
