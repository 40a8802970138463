"""Outside-in layer timers: spans around calls into each layer's public
functions, recorded from the benchmark's own files.

A :class:`LayerTracer` keeps one span stack per thread (the server's
workers each get their own).  A span's self time is its duration minus
the durations of the spans nested directly inside it, so summing self
time over layers never counts a nanosecond twice.  A call into a layer
that already has an open span on the same thread (``head_batch`` calling
``head``, a revalidation HEAD issued from inside ``get_batch``) is not
timed again; it only bumps the call counter.

:meth:`LayerProbe.install` patches the timed public functions on their
classes and returns a callable that restores the originals.  Install it
after set-up: set-up wraps every page of the site once, and that work
must not be charged to queries.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from contextlib import contextmanager


@dataclass
class SpanTotals:
    """Accumulated figures for one span name."""

    calls: int = 0
    timed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "layer", "root", "start", "child_s")

    def __init__(self, name: str, layer: str, root: str, start: float):
        self.name = name
        self.layer = layer
        self.root = root
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Thread-aware span recorder with self-time accounting.

    Figures are kept per (root, name), where the root is the outermost
    span open on the calling thread (or the span itself), so work done
    inside queries can be told from, say, a periodic refresh.

    ``enabled`` gates recording: while it is False every timed function
    calls straight through (the answer check runs that way, so its work
    is never charged to a layer)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.totals: dict[tuple[str, str], SpanTotals] = defaultdict(SpanTotals)
        self._counts: dict[tuple[str, str], int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread state ---------------------------------------------- #

    def _state(self) -> tuple[list[_Frame], dict[str, int]]:
        local = self._local
        try:
            return local.stack, local.open
        except AttributeError:
            local.stack = []
            local.open = defaultdict(int)
            return local.stack, local.open

    def _root(self, name: str) -> str:
        stack, _ = self._state()
        return stack[0].name if stack else name

    # -- spans --------------------------------------------------------- #

    def enter(self, name: str, layer: str) -> Optional[_Frame]:
        """Open a span, or return None (re-entry into an open layer, or
        tracing off).  The call is counted either way while enabled."""
        if not self.enabled:
            return None
        root = self._root(name)
        with self._lock:
            self.totals[(root, name)].calls += 1
        stack, open_layers = self._state()
        if open_layers[layer]:
            return None
        open_layers[layer] += 1
        frame = _Frame(name, layer, root, self.clock())
        stack.append(frame)
        return frame

    def exit(self, frame: Optional[_Frame]) -> float:
        """Close ``frame`` (None is a no-op); returns its duration."""
        if frame is None:
            return 0.0
        end = self.clock()
        stack, open_layers = self._state()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} closed out of order ({popped.name!r} "
                "is innermost)"
            )
        open_layers[frame.layer] -= 1
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            totals = self.totals[(frame.root, frame.name)]
            totals.timed += 1
            totals.total_s += duration
            totals.self_s += duration - frame.child_s
        return duration

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None) -> Iterator[None]:
        frame = self.enter(name, layer or name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter that is not a span (pages asked
        for, HEADs issued), under the calling thread's root."""
        if self.enabled:
            root = self._root(name)
            with self._lock:
                self._counts[(root, name)] += amount

    # -- read-out: ``root=None`` sums over every root ------------------- #

    def _select(self, prefix: str, root: Optional[str]):
        return [
            t for (r, name), t in self.totals.items()
            if name.startswith(prefix) and (root is None or r == root)
        ]

    def calls(self, prefix: str, root: Optional[str] = None) -> int:
        """Calls (timed or re-entrant) of the spans named ``prefix``*."""
        return sum(t.calls for t in self._select(prefix, root))

    def timed_calls(self, prefix: str, root: Optional[str] = None) -> int:
        return sum(t.timed for t in self._select(prefix, root))

    def self_seconds(self, prefix: str = "", root: Optional[str] = None) -> float:
        """Summed self time of the spans named ``prefix``*."""
        return sum(t.self_s for t in self._select(prefix, root))

    def total_seconds(self, prefix: str, root: Optional[str] = None) -> float:
        """Summed duration of the spans named ``prefix``*."""
        return sum(t.total_s for t in self._select(prefix, root))

    def counted(self, name: str, root: Optional[str] = None) -> int:
        return sum(
            value for (r, n), value in self._counts.items()
            if n == name and (root is None or r == root)
        )


def timed(
    tracer: LayerTracer,
    fn: Callable,
    name: str,
    layer: str,
    after: Optional[Callable[..., None]] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``after(result, args, kwargs, end)`` runs
    once the call returns, while tracing is enabled."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(result, args, kwargs, tracer.clock())
        return result

    return wrapper


class Patches:
    """Attribute replacements on classes, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[type, str, object]] = []

    def replace(self, owner: type, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class LayerProbe:
    """The benchmark's timers on the system's public functions, plus the
    per-call observations they feed (distinct wraps, navigator hits,
    per-request execution end times)."""

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self.wrapped_pages: set[tuple[str, int]] = set()
        self.wraps = 0
        self.repeat_wraps = 0
        self.prefix_resolves = 0
        self.prefix_hits = 0
        #: request_id -> perf_counter time its RemoteExecutor.execute returned
        self.execute_end: dict[str, float] = {}
        self._lock = threading.Lock()

    def install(self) -> Callable[[], None]:
        """Patch the timed functions; returns the undo callable."""
        from repro.engine.remote import RemoteExecutor
        from repro.materialized.evaluate import MaterializedEngine
        from repro.materialized.store import MaterializedStore
        from repro.optimizer.cost import CacheEstimate
        from repro.optimizer.planner import Planner
        from repro.server.prefix import SharedNavigator
        from repro.web.client import WebClient
        from repro.wrapper.wrapper import PageWrapper

        tracer = self.tracer
        patches = Patches()

        def method(owner, attr, name, layer, after=None):
            patches.replace(
                owner, attr,
                timed(tracer, owner.__dict__[attr], name, layer, after),
            )

        method(Planner, "plan_query", "optimizer.plan", "optimizer")
        # plan_expr runs inside plan_query only on a memo miss, so its
        # call count is the number of cold plans
        method(Planner, "plan_expr", "optimizer.cold_plan", "optimizer")
        from_cache = CacheEstimate.__dict__["from_cache"].__func__
        patches.replace(
            CacheEstimate, "from_cache",
            classmethod(
                timed(tracer, from_cache, "optimizer.estimate", "optimizer")
            ),
        )
        method(WebClient, "get", "client.get", "client",
               lambda r, a, k, end: tracer.count("client.gets"))
        method(WebClient, "get_batch", "client.get_batch", "client",
               lambda r, a, k, end: tracer.count(
                   "client.gets", len(set(a[1] if len(a) > 1 else k["urls"]))
               ))
        method(WebClient, "head", "client.head", "client",
               lambda r, a, k, end: tracer.count("client.heads"))
        method(WebClient, "head_batch", "client.head_batch", "client")
        method(PageWrapper, "wrap", "wrapper.wrap", "wrapper", self._on_wrap)
        method(RemoteExecutor, "execute", "engine.execute", "engine",
               self._on_execute)
        method(SharedNavigator, "resolve", "server.resolve", "server",
               self._on_resolve)
        method(MaterializedEngine, "execute", "materialized.execute",
               "materialized")
        method(MaterializedStore, "url_check", "materialized.url_check",
               "materialized")
        return patches.restore

    def _on_wrap(self, result, args, kwargs, end) -> None:
        # PageWrapper.wrap(self, url, html)
        url = args[1] if len(args) > 1 else kwargs["url"]
        html = args[2] if len(args) > 2 else kwargs["html"]
        key = (url, hash(html))
        with self._lock:
            self.wraps += 1
            if key in self.wrapped_pages:
                self.repeat_wraps += 1
            else:
                self.wrapped_pages.add(key)

    def _on_execute(self, result, args, kwargs, end) -> None:
        request_id = kwargs.get("request_id")
        if request_id is not None:
            with self._lock:
                self.execute_end[request_id] = end

    def _on_resolve(self, result, args, kwargs, end) -> None:
        _pages, seconds = result
        with self._lock:
            self.prefix_resolves += 1
            # the lead evaluation reports the simulated seconds it spent;
            # retained hits and single-flight waiters report 0.0
            if seconds == 0.0:
                self.prefix_hits += 1
