"""Client populations driving the admission coordinator.

Two canonical load shapes from the queueing literature:

- **Closed-loop** — N clients, each with at most one outstanding
  request, re-issuing after a think time.  Offered load *adapts* to
  service speed, which is exactly the behaviour completion-delay
  backpressure exploits.
- **Open-loop** — arrivals at rate ``users * per_user_rate``
  requests/s regardless of how the cluster is doing.  This is how a
  population of millions of users (each issuing rarely) looks to the
  front door; it does not adapt, so bounding queues under it requires
  admission control, not just backpressure.

All "randomness" (think-time jitter, interarrival gaps, retry
backoff) derives from FNV-1a hashes of ``(seed, population, ordinal,
purpose)`` — no PRNG state, so a same-seed run replays byte-identically
no matter how completions and arrivals interleave.  A
:class:`DrawStream` evaluates them a block of ordinals at a time.

Populations do not fabricate requests themselves; the harness passes
a ``factory(pop, rid, key) -> Request`` that owns placement (which
oid, read or write, which server, what disk cost) and takes its own
draws from *key*, the issue's :class:`Draw`.  Populations own only
pacing: when to issue, when to retry, when to think.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.faults.plan import require_periods
from repro.hashring.hashing import bulk_hash_concat, hash64
from repro.simulation.engine import Simulator

from repro.serving.coordinator import AdmissionCoordinator, Request

__all__ = ["ClosedLoopPopulation", "Draw", "DrawStream",
           "OpenLoopPopulation"]

#: Draws held per block: 32 KB of ``uint64``, ~0.2 ms to compute.
_BLOCK_DRAWS = 4096


def _unit(h: int) -> float:
    """A 64-bit hash as a uniform in (0, 1) — the +0.5 offset keeps it
    off both endpoints so it is safe inside ``log``.  The per-request
    ``unit`` methods below inline it."""
    return (h + 0.5) / 2.0 ** 64


class DrawStream:
    """The hash family ``hash64(f"{prefix}{n}{suffix}")`` — with *rows*,
    ``hash64(f"{prefix}{row}:{n}{suffix}")`` — read by ordinal *n*.

    A suffix's values are computed a block of consecutive ordinals (for
    every row) at a time, on first use and in order from ordinal 0, and
    kept as ``uint64`` arrays: lists of Python ints cost 9 MB more on a
    ``run_serve``.
    """

    def __init__(self, prefix: str, rows: Optional[int] = None) -> None:
        self._lead = (prefix,) if rows is None else (
            prefix, np.arange(rows)[:, None], ":")
        self._width = max(1, _BLOCK_DRAWS // (rows or 1))
        #: suffix -> its blocks; block k holds ordinals ``k * width``
        #: up to ``(k + 1) * width``.
        self._blocks: Dict[str, List[np.ndarray]] = {}

    def hash(self, suffix: str, n: int, row: int = 0) -> int:
        width = self._width
        try:
            return self._blocks[suffix][n // width].item(row, n % width)
        except (KeyError, IndexError):
            return self._fill(suffix, n // width).item(row, n % width)

    def _fill(self, suffix: str, b: int) -> np.ndarray:
        """*suffix*'s blocks through block *b*; returns block *b*."""
        blocks = self._blocks.setdefault(suffix, [])
        width = self._width
        for k in range(len(blocks), b + 1):
            ns = np.arange(k * width, (k + 1) * width)[None, :]
            blocks.append(bulk_hash_concat(*self._lead, ns, suffix))
        return blocks[b]

    def unit(self, suffix: str, n: int, row: int = 0) -> float:
        return (self.hash(suffix, n, row) + 0.5) / 2.0 ** 64


class Draw:
    """One issue's draws, by purpose: ``key.hash(":oid")`` is the
    stream's value for this issue's ``(row, n)`` and that suffix."""

    __slots__ = ("_stream", "_n", "_row")

    def __init__(self, stream: DrawStream, n: int, row: int = 0) -> None:
        self._stream, self._n, self._row = stream, n, row

    def hash(self, suffix: str) -> int:
        return self._stream.hash(suffix, self._n, self._row)

    def unit(self, suffix: str) -> float:
        return (self._stream.hash(suffix, self._n, self._row)
                + 0.5) / 2.0 ** 64


#: ``factory(pop, rid, key)`` builds the request, taking whatever
#: deterministic draws it needs from *key*.
RequestFactory = Callable[[str, int, Draw], Request]


#: A closed-loop client's mean think time and mean backoff after a
#: rejection, in simulated seconds (each jittered to ``[0.5, 1.5)`` of
#: the mean).
THINK_TIME = 1.0
RETRY_DELAY = 0.5


class ClosedLoopPopulation:
    """N think-time clients, one outstanding request each.

    A rejected request is retried (as a fresh request — new ordinal,
    new key) after a deterministically jittered backoff of about
    :data:`RETRY_DELAY`; a completed request triggers the next issue
    one jittered :data:`THINK_TIME` after the completion the *client
    saw*, i.e. including any backpressure delay.
    """

    def __init__(self, sim: Simulator, coordinator: AdmissionCoordinator,
                 factory: RequestFactory, *, clients: int, seed: int,
                 name: str = "closed") -> None:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        self.sim = sim
        self.coordinator = coordinator
        self.factory = factory
        self.clients = clients
        self.seed = seed
        self.name = name
        self.retries = 0
        self._issues = [0] * clients
        self._rid = itertools.count()
        self._keys = DrawStream(f"{seed}:{name}:", clients)
        self._thinks = DrawStream(f"{seed}:{name}:think:", clients)

    def start(self) -> None:
        """Stagger first issues over one think time so thousands of
        clients do not arrive as a single same-instant spike."""
        for c in range(self.clients):
            first = THINK_TIME * _unit(hash64(
                f"{self.seed}:{self.name}:first:{c}"))
            self.sim.schedule_at(self.sim.now + first, self._issue, c)

    # ------------------------------------------------------------------
    def _issue(self, c: int) -> None:
        n = self._issues[c]
        self._issues[c] += 1
        key = Draw(self._keys, n, c)
        req = self.factory(self.name, next(self._rid), key)
        wrapped = req.on_complete

        def done(r: Request, t: float, _c: int = c,
                 _orig: Optional[Callable] = wrapped) -> None:
            if _orig is not None:
                _orig(r, t)
            self._think(_c)

        def rejected(r: Request, _c: int = c, _key: Draw = key) -> None:
            self.retries += 1
            backoff = RETRY_DELAY * (0.5 + _key.unit(":retry"))
            self.sim.schedule_at(self.sim.now + backoff, self._issue, _c)

        req.on_complete = done
        req.on_reject = rejected
        self.coordinator.enqueue(req)

    def _think(self, c: int) -> None:
        n = self._issues[c]
        think = THINK_TIME * (0.5 + self._thinks.unit("", n, c))
        self.sim.schedule_at(self.sim.now + think, self._issue, c)


class OpenLoopPopulation:
    """Arrival-rate load: ``users * per_user_rate`` requests/s.

    Interarrival gaps are exponential (memoryless, the standard
    open-loop idealisation) with the uniform drawn from the hash
    stream.  Rejected arrivals are simply shed — an open-loop user
    does not retry in a tight loop, they show up again later as a new
    arrival.  The chain stops scheduling once ``until`` is reached.
    """

    def __init__(self, sim: Simulator, coordinator: AdmissionCoordinator,
                 factory: RequestFactory, *, users: int,
                 per_user_rate: float, seed: int,
                 until: Optional[float] = None,
                 name: str = "open") -> None:
        if users < 1:
            raise ValueError("users must be >= 1")
        require_periods(per_user_rate=per_user_rate)
        self.sim = sim
        self.coordinator = coordinator
        self.factory = factory
        self.users = users
        self.per_user_rate = per_user_rate
        self.rate = users * per_user_rate
        self.seed = seed
        self.until = until
        self.name = name
        self.arrivals = 0
        self._keys = DrawStream(f"{seed}:{name}:")
        self._gaps = DrawStream(f"{seed}:{name}:gap:")

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now + self._gap(0), self._arrive, 0)

    def _gap(self, n: int) -> float:
        return -math.log(self._gaps.unit("", n)) / self.rate

    def _arrive(self, n: int) -> None:
        if self.until is not None and self.sim.now >= self.until:
            return
        self.arrivals += 1
        self.coordinator.enqueue(
            self.factory(self.name, n, Draw(self._keys, n)))
        self.sim.schedule_at(self.sim.now + self._gap(n + 1),
                             self._arrive, n + 1)
