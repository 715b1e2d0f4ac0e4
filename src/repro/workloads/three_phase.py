"""The 3-phase workload (§V-A), after SpringFS.

The paper drives its testbed with Filebench configured as:

* **Phase 1** — sequentially write 2 GB to each of 7 files (14 GB
  total), as fast as the store allows;
* **Phase 2** — a much less IO-intensive mixed phase, rate-limited to
  20 MB/s, reading 4.2 GB and writing 8.4 GB in total;
* **Phase 3** — like phase 1 but with a 20 % write ratio.

Four servers are turned down at the end of phase 1 and turned back on
at the end of phase 2; Figures 3 and 7 plot the achieved throughput.

:func:`three_phase_workload` returns the phases as data; the
experiment driver turns each into a fluid client flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Phase", "PHASE_NAMES", "three_phase_workload"]

MB = 10 ** 6
GB = 10 ** 9

#: The phases :func:`three_phase_workload` returns, in order — a run
#: has *finished* when each has an end time.
PHASE_NAMES = ("phase1", "phase2", "phase3")


@dataclass(frozen=True)
class Phase:
    """One workload phase.

    Attributes
    ----------
    name:
        Label ("phase1", ...).
    total_bytes:
        Logical bytes to transfer; the phase ends when they are done.
    write_ratio:
        Fraction of the bytes that are writes (writes cost r disk
        copies, reads cost one).
    rate_cap:
        Offered-load ceiling in bytes/s (``None`` = as fast as the
        store allows — Filebench without a ``rate`` attribute).
    """

    name: str
    total_bytes: float
    write_ratio: float
    rate_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("phase must transfer some bytes")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError("rate_cap must be positive")

    @property
    def write_bytes(self) -> float:
        return self.total_bytes * self.write_ratio

    @property
    def read_bytes(self) -> float:
        return self.total_bytes - self.write_bytes

    def min_duration(self) -> Optional[float]:
        """Duration implied by the rate cap, if any."""
        if self.rate_cap is None:
            return None
        return self.total_bytes / self.rate_cap


def three_phase_workload(scale: float = 1.0,
                         phase2_rate: float = 20 * MB) -> List[Phase]:
    """The §V-A workload.  *scale* shrinks the byte totals uniformly
    (the unit tests run at scale=0.05 to stay fast); *phase2_rate* is
    Filebench's ``rate`` attribute for the middle phase.  Both must be
    finite and positive: a ``nan`` or ``inf`` workload never drains."""
    for name, value in (("scale", scale), ("phase2_rate", phase2_rate)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite "
                             f"(got {value})")
    return [
        # 7 files x 2 GB, pure sequential write.
        Phase("phase1", total_bytes=14 * GB * scale, write_ratio=1.0),
        # 4.2 GB read + 8.4 GB written at 20 MB/s.
        Phase("phase2", total_bytes=12.6 * GB * scale,
              write_ratio=8.4 / 12.6, rate_cap=phase2_rate),
        # "similar to the first phase, except that the write ratio was
        # 20%".
        Phase("phase3", total_bytes=14 * GB * scale, write_ratio=0.2),
    ]
