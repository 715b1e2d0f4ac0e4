"""The process-wide observability runtime.

Instrumented modules import the :data:`OBS` singleton once and use its
members:

* ``OBS.bus`` — the :class:`~repro.obs.trace.TraceBus`.  Emitting with
  no sink attached is a single branch; call sites that build expensive
  field dicts guard on ``OBS.bus.active``, per-event ones on
  ``OBS.bus.takes(kind)``, which counts the event it skips.
* ``OBS.spans`` — the :class:`~repro.obs.spans.SpanTracker` that pairs
  ``span.begin``/``span.end`` events around the major lifecycles
  (flows, resize cycles, re-integration passes, recovery).
* ``OBS.metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` of
  always-on simulation counters/gauges.
* ``OBS.profiler`` — the optional
  :class:`~repro.obs.profile.Profiler` attributing hierarchical
  wall-clock + sim-time to named components (``--profile-out``).
  ``None`` by default.  Assigning a profiler wraps the entry points
  :data:`~repro.obs.profile.FRAMES` names; assigning ``None`` puts the
  originals back, so no product code asks whether it is profiled.

Keeping the runtime global (rather than threading it through every
constructor) mirrors how logging works: producers are unconditional,
consumers opt in.  Tests and drivers that need isolation call
:meth:`Runtime.reset` or swap sinks within a ``bus.capture()`` scope.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import attach
from repro.obs.spans import SpanTracker
from repro.obs.trace import TraceBus

__all__ = ["Runtime", "OBS"]


class Runtime:
    """Bundle of trace bus + span tracker + metrics registry + optional
    profiler."""

    __slots__ = ("bus", "spans", "metrics", "_profiler")

    def __init__(self) -> None:
        self.bus = TraceBus()
        self.spans = SpanTracker(self.bus)
        self.metrics = MetricsRegistry()
        self._profiler = None

    @property
    def profiler(self):
        """The attached profiler or ``None``; assigning calls
        :func:`~repro.obs.profile.attach`."""
        return self._profiler

    @profiler.setter
    def profiler(self, prof) -> None:
        attach(prof)
        self._profiler = prof

    def reset(self) -> None:
        """Return to the pristine state: no sinks, empty registry, no
        profiler, clock and emit ordinal at zero, span ids rewound."""
        for sink in list(self.bus.sinks):
            self.bus.detach(sink)
            sink.close()
        self.bus.clock = 0.0
        self.bus.ordinal = 0
        self.spans.reset()
        self.metrics.reset()
        self.profiler = None


#: The singleton every instrumented module binds at import time.
OBS = Runtime()
