"""Pluggable flow control for the front-door serving layer.

A :class:`FlowController` makes two decisions per server queue:

- **admission** — may a new request join at the current depth?
- **backpressure** — how long is the completion *held back* from the
  client, as a function of depth and whether background work
  (migration / reintegration / recovery) is active?

Holding back completions is the Scylla-style trick: closed-loop
clients issue their next request only after the previous one
completes, so delaying completions in proportion to queue depth slows
exactly the clients feeding an overloaded server — no global
coordination, no dropped work.  Open-loop arrivals do not adapt, so
every controller that promises a bound also needs an admission
backstop; the unthrottled controller deliberately has neither, which
is what the ``serve-queue-bounded`` invariant checker flushes out.

Controllers are pure policy: no simulator, no IO model, no state that
survives a call.  That keeps a same-seed run a pure function of the
controller's name.
"""

from __future__ import annotations

from typing import Dict, Hashable, Protocol, runtime_checkable

__all__ = [
    "AdaptiveQueueController",
    "FixedConcurrencyController",
    "FlowController",
    "UnthrottledController",
    "make_controller",
]


@runtime_checkable
class FlowController(Protocol):
    """The policy surface the admission coordinator consumes."""

    #: Short policy name, surfaced in reports and event payloads.
    name: str

    def queue_bound(self) -> int:
        """The per-server depth this policy promises to keep.  The
        ``serve-queue-bounded`` checker compares every observed depth
        against this — a controller that declares a bound it does not
        enforce goes red under overload."""
        ...

    def admit(self, server: Hashable, depth: int) -> bool:
        """May a request join *server*'s queue at *depth*?"""
        ...

    def completion_delay(self, server: Hashable, depth: int,
                         background_active: bool) -> float:
        """Seconds to hold a completion back from the client, given
        the post-drain *depth* and whether background byte-moving work
        is active."""
        ...


#: The per-server queue depth every policy declares (and the fixed
#: and adaptive ones enforce).
QUEUE_BOUND = 64
#: The adaptive policy's shape: depth it keeps invisible below,
#: seconds of delay per target's worth of excess depth, the multiplier
#: while background work runs, and the delay cap in seconds.
TARGET = 8
GAIN = 0.1
BACKGROUND_FACTOR = 2.0
MAX_DELAY = 1.0


class UnthrottledController:
    """No admission control, no backpressure — the baseline.

    It still *declares* :data:`QUEUE_BOUND` so the invariant checker
    has something to measure it against; under a load the cluster
    cannot absorb, queues blow straight through it and the checker
    goes red.  That asymmetry — same declared contract, no
    enforcement — is the whole point of keeping this policy around.
    """

    name = "unthrottled"

    def queue_bound(self) -> int:
        return QUEUE_BOUND

    def admit(self, server: Hashable, depth: int) -> bool:
        return True

    def completion_delay(self, server: Hashable, depth: int,
                         background_active: bool) -> float:
        return 0.0


class FixedConcurrencyController:
    """Classic fixed concurrency limit: admit while
    ``depth < QUEUE_BOUND``, reject otherwise, never delay completions.

    Enforces its bound exactly, but bluntly — during a resize it sheds
    closed-loop and open-loop traffic alike instead of slowing the
    clients that would happily back off.
    """

    name = "fixed"

    def queue_bound(self) -> int:
        return QUEUE_BOUND

    def admit(self, server: Hashable, depth: int) -> bool:
        return depth < QUEUE_BOUND

    def completion_delay(self, server: Hashable, depth: int,
                         background_active: bool) -> float:
        return 0.0


class AdaptiveQueueController:
    """Queue-length-driven backpressure with an admission backstop.

    Below :data:`TARGET` depth the controller is invisible.  Above it,
    completions are held back by ``GAIN * (depth - TARGET) / TARGET``
    seconds — scaled up by :data:`BACKGROUND_FACTOR` while migration or
    recovery is eating disk bandwidth, and capped at :data:`MAX_DELAY`
    so backpressure never costs more latency than the overload it
    prevents — so closed-loop clients naturally stretch their issue
    interval instead of piling on.  The hard :data:`QUEUE_BOUND` only
    catches what backpressure cannot reach (open-loop arrivals), so
    under mixed load it sheds less closed-loop work than a fixed
    concurrency limit at the same bound.
    """

    name = "adaptive"

    def queue_bound(self) -> int:
        return QUEUE_BOUND

    def admit(self, server: Hashable, depth: int) -> bool:
        return depth < QUEUE_BOUND

    def completion_delay(self, server: Hashable, depth: int,
                         background_active: bool) -> float:
        if depth <= TARGET:
            return 0.0
        delay = GAIN * (depth - TARGET) / TARGET
        if background_active:
            delay *= BACKGROUND_FACTOR
        return min(delay, MAX_DELAY)


_CONTROLLERS: Dict[str, type] = {
    "unthrottled": UnthrottledController,
    "fixed": FixedConcurrencyController,
    "adaptive": AdaptiveQueueController,
}


def make_controller(kind: str) -> FlowController:
    """Build a controller by policy name (the CLI/bench entry point).

    >>> make_controller("fixed").queue_bound()
    64
    >>> make_controller("bogus")
    Traceback (most recent call last):
        ...
    ValueError: unknown flow controller 'bogus' (choose from: adaptive, fixed, unthrottled)
    """
    cls = _CONTROLLERS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown flow controller {kind!r} "
            f"(choose from: {', '.join(sorted(_CONTROLLERS))})")
    return cls()
