"""Span recorder: per-layer timing taken from outside the program.

The program has no tracing of its own, so the benchmark wraps its public
callables for the length of a traced phase and restores them afterwards:

- a class method is replaced on the class (plain, ``classmethod`` and
  ``staticmethod`` attributes alike);
- a module-level function is replaced in *every* loaded module whose
  name starts with one of the given prefixes and that binds the original
  object — ``from repro.runtime.replay import replay_allocations`` makes
  a second binding in ``repro.pipeline.stages``, and both must see the
  wrapper.

Each thread keeps its own stack of open spans, so a span opened on a
server worker thread nests under that thread's open spans (its worker
task), never under the load generator's.  A span's *self time* is its
duration minus the durations of its direct children.  Spans stay in
memory until the run asks for them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: counters a span adds, computed from (args, kwargs, result) of the call
CountFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One callable to wrap, and the layer metric its self time feeds."""

    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"``
    qualname: str
    count: Optional[CountFn] = None


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    layer: str
    thread: int
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("id", "child_s")

    def __init__(self, span_id: int):
        self.id = span_id
        self.child_s = 0.0


class SpanRecorder:
    """Collects nested spans and counters from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: (owner, attribute, original) in patch order, undone in reverse
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[CountFn] = None) -> Callable:
        """``fn`` recording one span per call (and ``count``'s counters)."""
        clock = self._clock
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(next(self._ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                spans.append(Span(
                    frame.id, parent.id if parent is not None else None,
                    name, layer, threading.get_ident(), start, end,
                    duration - frame.child_s,
                ))
            if count is not None:
                for counter, amount in count(args, kwargs, result).items():
                    self.add(counter, amount)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # the raw attribute, so a classmethod is restored as a classmethod
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, targets: Iterable[Target],
                prefixes: Tuple[str, ...] = ("repro",)) -> None:
        """Wrap every target; see the module docstring for what is patched."""
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".", 1)
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(
                        raw.__func__, target.qualname, target.layer,
                        target.count))
                else:
                    wrapped = self.wrap(raw, target.qualname, target.layer,
                                        target.count)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(module, target.qualname)
            wrapped = self.wrap(original, target.qualname, target.layer,
                                target.count)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if not isinstance(name, str) or not name.startswith(prefixes):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def install_task_spans(self, executor_cls: type, name: str,
                           layer: str) -> None:
        """Record a span around every callable ``executor_cls.submit`` runs."""
        original = executor_cls.__dict__["submit"]
        wrap = self.wrap

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            return original(executor, wrap(fn, name, layer), *args, **kwargs)

        self._patch(executor_cls, "submit", submit)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[Target],
                  prefixes: Tuple[str, ...] = ("repro",)) -> Iterator["SpanRecorder"]:
        try:
            self.install(targets, prefixes)
            yield self
        finally:
            self.restore()

    # -- aggregation -----------------------------------------------------------

    def self_time_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_s
        return out

    def duration_of(self, layer: str) -> float:
        """Summed wall time of the spans of one layer, children included."""
        return sum(s.duration for s in self.spans if s.layer == layer)

    def dump(self) -> List[dict]:
        return [s._asdict() for s in self.spans]
