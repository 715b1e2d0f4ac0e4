"""The metrics registry: named counters and gauges.

Instruments are created lazily by name (+ optional labels) and live for
the process; :meth:`MetricsRegistry.snapshot` returns a plain,
JSON-able dict in **sorted-name order** — deterministic across runs no
matter in which order the hot paths touched their instruments — and
:meth:`MetricsRegistry.render` produces the same ASCII table style the
benchmark reports use (via :mod:`repro.metrics.report`).

Naming conventions (see docs/OBSERVABILITY.md):

* dotted, subsystem-first: ``engine.events``, ``migration.bytes``;
* simulation state only, no wall time: the registry is same-seed
  deterministic.  Wall-clock questions go to the profiler
  (:mod:`repro.obs.profile`), the one module that reads the clock.

The hot-path helper :meth:`MetricsRegistry.inc` is a get-or-create
shorthand; prefer binding the instrument once
(``c = registry.counter("x"); c.inc()``) in per-tick loops.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

Number = Union[int, float]


def _key(name: str, labels: Mapping[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v

    def inc(self, n: Number = 1) -> None:
        self.value += n


class MetricsRegistry:
    """Process-local instrument store.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> reg.counter("cluster.writes").inc()
    >>> reg.gauge("cluster.active_servers").set(6)
    >>> snap = reg.snapshot()
    >>> snap["cluster.active_servers"], snap["cluster.writes"]
    (6, 1)
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge]] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, cls, labels: Mapping[str, object]):
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(key)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(name, Gauge, labels)

    # Hot-path shorthand -----------------------------------------------
    def inc(self, name: str, n: Number = 1) -> None:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self.counter(name)
        inst.inc(n)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, key: str) -> bool:
        return key in self._instruments

    def reset(self) -> None:
        """Drop every instrument (a fresh registry for the next run)."""
        self._instruments.clear()

    def snapshot(self, include_perf: bool = True) -> Dict[str, Number]:
        """``{metric key: value}`` in sorted-key order.  With
        ``include_perf=False`` instruments named ``perf.*`` are omitted
        (the product registers none; the perf ledger still passes the
        keyword)."""
        out: Dict[str, Number] = {}
        for key in sorted(self._instruments):
            if not include_perf and key.startswith("perf."):
                continue
            out[key] = self._instruments[key].value
        return out

    def render(self, title: Optional[str] = "metrics") -> str:
        """ASCII table of the snapshot."""
        from repro.metrics.report import render_table
        rows: List[List[object]] = [
            [key, "gauge" if isinstance(inst, Gauge) else "counter",
             inst.value]
            for key, inst in sorted(self._instruments.items())]
        if not rows:
            return f"{title}: (no metrics recorded)" if title else \
                "(no metrics recorded)"
        return render_table(["metric", "type", "value"], rows, title=title)
