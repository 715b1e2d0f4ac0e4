"""Power accounting: machine hours to energy.

The paper's bottom-line metric (Table II) is *machine hours* — the
integral of the active-server count over time — used as the proxy for
power consumption.  It is integrated where the counts live:
:class:`~repro.policy.resizer.PolicyResult` for sampled series,
:meth:`~repro.metrics.timeline.StepSeries.integral` for step changes.
:class:`PowerModel` converts machine hours into energy when a watts
figure is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerModel"]


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
