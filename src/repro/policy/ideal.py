"""The ideal active-server series.

§V-B: "The ideal number of servers for each time period is
proportional to the data size processed."  The ideal policy tracks the
load perfectly and instantaneously, with no migration or clean-up IO —
the lower bound every real policy is compared against in Table II.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ideal_servers"]


def ideal_servers(load: np.ndarray, per_server_bw: float,
                  n_max: int) -> np.ndarray:
    """Servers needed to carry *load* at *per_server_bw* each, clamped
    to ``[1, n_max]``.

    A server is charged for any fraction of its bandwidth
    (``ceil``) — you cannot power on half a machine.
    """
    if per_server_bw <= 0:
        raise ValueError("per_server_bw must be positive")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    need = np.ceil(load / per_server_bw).astype(int)
    return np.clip(need, 1, n_max)
