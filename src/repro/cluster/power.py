"""Power accounting: machine hours and energy.

The paper's bottom-line metric (Table II) is *machine hours* — the
integral of the active-server count over time — used as the proxy for
power consumption.  :class:`MachineHourMeter` integrates a step
function of active counts; :class:`PowerModel` converts server-time
into energy when a watts figure is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.obs.runtime import OBS

__all__ = ["MachineHourMeter", "PowerModel", "machine_hours_of_series"]


class MachineHourMeter:
    """Integrate active-server count over time (step-wise constant).

    Record a sample whenever the active count changes; the count is
    held constant until the next sample.  Times are in seconds;
    results are in machine *hours* to match Table II.
    """

    def __init__(self, start_time: float = 0.0,
                 initial_active: int = 0) -> None:
        self._last_t = float(start_time)
        self._last_n = int(initial_active)
        self._server_seconds = 0.0
        self._samples: List[Tuple[float, int]] = [(self._last_t, self._last_n)]

    def record(self, t: float, active: int) -> None:
        """The active count became *active* at time *t*."""
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._server_seconds += (t - self._last_t) * self._last_n
        self._last_t = t
        self._last_n = int(active)
        self._samples.append((t, self._last_n))
        if OBS.bus.active:
            OBS.bus.emit("power.sample", t=t, active=self._last_n)

    def finish(self, t: float) -> float:
        """Close the integral at time *t* and return machine hours."""
        self.record(t, self._last_n)
        return self.machine_hours

    @property
    def machine_seconds(self) -> float:
        return self._server_seconds

    @property
    def machine_hours(self) -> float:
        return self._server_seconds / 3600.0

    @property
    def samples(self) -> List[Tuple[float, int]]:
        return list(self._samples)


def machine_hours_of_series(times: Sequence[float],
                            counts: Sequence[int],
                            end_time: Optional[float] = None) -> float:
    """Machine hours of a pre-built step series (``counts[i]`` holds
    from ``times[i]`` to ``times[i+1]``; the last value holds to
    *end_time*, default the last timestamp)."""
    if len(times) != len(counts):
        raise ValueError("times and counts must have equal length")
    if not times:
        return 0.0
    meter = MachineHourMeter(times[0], counts[0])
    for t, n in zip(times[1:], counts[1:]):
        meter.record(t, n)
    return meter.finish(end_time if end_time is not None else times[-1])


#: Residual draw of a powered-off server in watts: the paper's servers
#: shut down fully.
WATTS_OFF = 0.0


@dataclass(frozen=True)
class PowerModel:
    """Convert machine time into energy.

    Attributes
    ----------
    watts_active:
        Draw of a powered-on server under load.  A powered-off one
        draws :data:`WATTS_OFF`.
    """

    watts_active: float = 200.0

    def energy_kwh(self, active_machine_hours: float,
                   off_machine_hours: float = 0.0) -> float:
        return (active_machine_hours * self.watts_active
                + off_machine_hours * WATTS_OFF) / 1000.0

    def savings_vs_always_on(self, active_machine_hours: float,
                             n_servers: int, duration_hours: float) -> float:
        """Fraction of energy saved relative to keeping all *n_servers*
        on for the whole period."""
        total = n_servers * duration_hours
        if total <= 0:
            raise ValueError("duration and cluster size must be positive")
        off_hours = total - active_machine_hours
        used = self.energy_kwh(active_machine_hours, off_hours)
        baseline = self.energy_kwh(total, 0.0)
        return 1.0 - used / baseline
