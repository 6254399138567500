"""In-memory span tracing of library calls, installed from outside the library.

A probe names a module, a function attribute in it and a span name. While a
``Tracer`` is installed, each probed attribute is replaced by a wrapper that
records a span (name, start, end, parent, trial, error, attributes), so the
library code itself does no tracing. Probes sit at the names the callers
resolve: ``estimate_pose`` looks up ``ransac_register`` in the pipeline
module's globals, so that is where the wrapper must go.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str
    # attrs(bound arguments, result or None, exception or None) -> dict
    attrs: Optional[Callable] = None


@dataclass
class Span:
    name: str
    trial: int
    parent: int          # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    error: str = ""      # exception type name if the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.trial, self.parent, self.start, self.end, self.error, self.attrs]


class Tracer:
    def __init__(self, probes):
        self.probes = tuple(probes)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = -1

    def _open(self, name: str) -> Span:
        span = Span(name, self._trial, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, trial: int):
        """Span around one trial (or set-up); library spans inside become its descendants."""
        self._trial = trial
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, probe: Probe):
        signature = inspect.signature(fn) if probe.attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(probe.span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                span.error = type(e).__name__
                raise
            finally:
                self._close(span)
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = probe.attrs(bound.arguments, result, error)

        return traced

    @contextmanager
    def installed(self):
        """Replace every probed attribute by its wrapper; restore the originals on exit."""
        originals = []
        try:
            for probe in self.probes:
                module = importlib.import_module(probe.module)
                if not callable(getattr(module, probe.attr, None)):
                    raise AttributeError(f"traced name {probe.module}.{probe.attr} is missing")
                fn = getattr(module, probe.attr)
                originals.append((module, probe.attr, fn))
                setattr(module, probe.attr, self._wrap(fn, probe))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
