"""The one wrap around a pipeline stage: a span and a timer together.

``with stage("link.recency"):`` opens a ``TRACE`` span and, while
``METRICS`` has timing on, records the block's wall-clock duration under
the same name.  With both off (the default, and all of ``repro serve``)
it is the tracer's shared no-op span: no allocation, no clock read.
"""

from __future__ import annotations

import time

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE


class _TimedStage:
    """A span plus a ``perf_counter`` pair around the same block."""

    __slots__ = ("_name", "_span", "_start")

    def __init__(self, name: str, span) -> None:
        self._name = name
        self._span = span

    def __enter__(self):
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        METRICS.observe_duration(self._name, time.perf_counter() - self._start)
        return self._span.__exit__(exc_type, exc, tb)


def stage(name: str, **attributes: object):
    """Context manager for one named stage; ``as`` binds its span."""
    span = TRACE.span(name, **attributes)
    return _TimedStage(name, span) if METRICS.timing else span
