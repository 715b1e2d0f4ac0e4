"""Retry policy: capped exponential backoff with deterministic jitter.

Preempted transfers (crash, link loss) re-enqueue under this policy;
after :data:`MAX_ATTEMPTS` launches the work is *quarantined* —
surfaced in the chaos report as degraded objects rather than retried
forever.

Jitter desynchronises retries (the classic thundering-herd fix) but
must not destroy replayability, so instead of a PRNG it is derived
from an FNV-1a hash of ``(seed, key, attempt)`` — the same transfer's
n-th retry always backs off by the same amount.

Examples
--------
>>> p = RetryPolicy(seed=7)
>>> p.delay(2, "a") == p.delay(2, "a")   # replayable
True
>>> p.delay(2, "a") != p.delay(2, "b")   # desynchronised
True
>>> 0.75 <= p.delay(2, "a") <= 1.0       # 1 s, at most a quarter shaved
True
>>> p.exhausted(4), p.exhausted(5)
(False, True)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hashring.hashing import hash64

__all__ = ["RetryPolicy"]

#: Seconds before the first retry, the multiplier per further attempt
#: and the backoff ceiling in seconds.
BASE_DELAY = 0.5
FACTOR = 2.0
MAX_DELAY = 8.0
#: Launch budget per transfer; one more preemption quarantines it.
MAX_ATTEMPTS = 5
#: Fraction of the backoff shaved off deterministically: the delay
#: lands in ``[0.75*d, d]``.
JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for preempted transfers.

    *seed* namespaces the jitter hash so two chaos runs with different
    seeds desynchronise differently.
    """

    seed: int = 0

    # ------------------------------------------------------------------
    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number *attempt* (1-based: the
        delay after the first failed launch is ``delay(1)``).

        With ``d = min(BASE_DELAY * FACTOR**(attempt-1), MAX_DELAY)``,
        the result always lands in ``[(1-JITTER)*d, d]`` — and hence
        in ``(0, MAX_DELAY]``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(BASE_DELAY * FACTOR ** (attempt - 1), MAX_DELAY)
        u = hash64(f"{self.seed}:{key}:{attempt}") / 2.0 ** 64
        return raw * (1.0 - JITTER * u)

    def exhausted(self, attempts: int) -> bool:
        """Has the launch budget been spent?"""
        return attempts >= MAX_ATTEMPTS
