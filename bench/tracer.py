"""Per-layer spans for the benchmark's traced pass.

The program itself carries no spans for this: :class:`Tracer` wraps each
layer's public functions from outside, records a span per call, and
removes every wrapper afterwards, including when the pass raises.

A layer's *self time* is its span's duration minus the part of that
interval its child spans (on the same thread) cover.  Calls, self time
and a few useful-outcome ratios are accumulated exactly for every call;
the raw span list kept for the Chrome trace is capped at :data:`MAX_SPANS`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Raw spans kept in memory for the Chrome trace (aggregates stay exact).
MAX_SPANS = 50_000

#: Tracers whose wrappers a forked child must drop: worker processes
#: run the unwrapped program, so their spans are neither paid for nor
#: lost silently.
_INSTALLED: List["Tracer"] = []


def _drop_wrappers_in_child() -> None:
    for tracer in list(_INSTALLED):
        tracer.uninstall()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_wrappers_in_child)


def _repro_bindings() -> Iterator[Tuple[Any, str, Any]]:
    """(module, name, value) for every attribute of a loaded repro module."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "repro":
            for key, value in list(vars(module).items()):
                yield module, key, value


class _ThreadState:
    """One thread's open-span stack and per-layer accumulators."""

    def __init__(self, ident: int, is_main: bool) -> None:
        self.ident = ident
        self.is_main = is_main
        self.stack: List[list] = []  # [start, child_seconds, span_id]
        self.layers: Dict[str, list] = {}  # name -> [calls, self_s]


class Tracer:
    """Span recorder plus the install/restore bookkeeping for wrappers.

    ``clock`` is injectable so tests can drive exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (span_id, parent_id, name, start, end, thread, cell)
        self.spans: List[Tuple] = []
        self.dropped = 0
        #: Set by the workload before each cell; tags every span.
        self.cell = ""
        #: Seconds covered by top-level spans on the main thread.
        self.main_top_s = 0.0
        #: ratio name -> [useful, attempts]
        self.ratios: Dict[str, List[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._main = threading.main_thread().ident
        self._restore: List[Tuple[Any, str, Any]] = []
        self._functions: List[Callable] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            ident = threading.get_ident()
            state = _ThreadState(ident, ident == self._main)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def _open(self) -> list:
        frame = [self.clock(), 0.0, next(self._ids)]
        self._state().stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = self.clock()
        state = self._local.state
        stack = state.stack
        stack.pop()
        start, child, span_id = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        else:
            parent_id = 0
            if state.is_main:
                self.main_top_s += duration
        entry = state.layers.get(name)
        if entry is None:
            entry = state.layers[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent_id, name, start, end, state.ident, self.cell)
            )
        else:
            self.dropped += 1

    def count(self, ratio: str, useful: int, attempts: int = 1) -> None:
        """Add to a useful-outcomes ÷ attempts ratio."""
        with self._lock:
            entry = self.ratios.setdefault(ratio, [0, 0])
            entry[0] += useful
            entry[1] += attempts

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        outcome: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        layer: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``outcome(tracer, args, result)`` may update ratios after the
        call; ``layer(args)`` may pick the span name per call (one
        function serving several layers, such as an RPC client).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name if layer is None else layer(args), frame)
            if outcome is not None:
                outcome(tracer, args, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` (a generator function) with a span around each
        ``next()``: the time its consumer waits for every item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = tracer._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, frame)
                yield item

        wrapper.__bench_original__ = fn
        return wrapper

    def _replace(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_class(self, cls: type, attr: str, name: str, **kwargs) -> None:
        """Wrap a method defined on ``cls`` itself."""
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls.__name__} does not define {attr}")
        self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], **kwargs))

    def patch_function(self, module: Any, attr: str, name: str, **kwargs) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it, so ``from x import f`` call sites are traced too."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **kwargs)
        self._functions.append(wrapper)
        for loaded, key, value in _repro_bindings():
            if value is original:
                self._replace(loaded, key, wrapper)

    def patch_generator(self, cls: type, attr: str, name: str) -> None:
        """Wrap a generator method defined on ``cls`` itself."""
        self._replace(cls, attr, self.wrap_generator(name, cls.__dict__[attr]))

    def patch_instance(self, obj: Any, attr: str, name: str) -> None:
        """Wrap a method the program bound on one instance."""
        self._replace(obj, attr, self.wrap(name, getattr(obj, attr)))

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Run ``install(self)``, yield, then restore every wrapped
        attribute — also when ``install`` or the body raises."""
        _INSTALLED.append(self)
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first.

        A module imported while the wrappers were in place may have
        bound a wrapped function by name; those bindings are found and
        restored too.
        """
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        wrappers = {id(wrapper) for wrapper in self._functions}
        for loaded, key, value in _repro_bindings():
            if id(value) in wrappers:
                setattr(loaded, key, value.__bench_original__)
        self._functions.clear()
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # -- reporting -----------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, Any]]:
        """Per layer: calls, self seconds, and the share spent on the
        main thread (the rest ran on agent, master or helper threads)."""
        table: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, self_s) in state.layers.items():
                row = table.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "main_self_s": 0.0}
                )
                row["calls"] += calls
                row["self_s"] += self_s
                if state.is_main:
                    row["main_self_s"] += self_s
        return table

    def ratio_values(self) -> Dict[str, float]:
        """Each ratio as useful ÷ attempts (0 when never attempted)."""
        return {
            name: (useful / attempts if attempts else 0.0)
            for name, (useful, attempts) in self.ratios.items()
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as a Chrome-trace (``about:tracing``) document."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": thread,
                "args": {"id": span_id, "parent": parent, "cell": cell},
            }
            for span_id, parent, name, start, end, thread, cell in self.spans
        ]
        return {"traceEvents": events, "otherData": {"dropped_spans": self.dropped}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
