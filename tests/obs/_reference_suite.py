"""Test oracle: the broadcast invariant suite.

``InvariantSuite`` routes each event to the checkers that declared its
kind.  This is what it did before — hand every event to every checker
and let each one test the kind itself — kept only so the differential
tests can show the routed suite reports exactly what a broadcast of the
same stream would.

The stock checkers no longer test the kind when they read exactly one,
so the oracle asks each checker's ``kinds`` before the call: the
declaration *is* the old guard, and
``test_routing.TestDeclarations`` pins it to the ``if kind == ...``
branches that remain.
"""

from typing import List, Optional

from repro.obs.invariants import (
    SWEEP_BOUNDARY_KIND,
    Checker,
    InvariantSuite,
    Violation,
    default_checkers,
)


class BroadcastSuite(InvariantSuite):
    """``InvariantSuite`` with the per-event loop over all checkers."""

    def __init__(self, checkers: Optional[List[Checker]] = None) -> None:
        super().__init__(checkers if checkers is not None
                         else default_checkers())
        self.observe_calls = 0

    def observe(self, event, index: int) -> None:
        self.events_seen += 1
        if event.get("kind") == SWEEP_BOUNDARY_KIND:
            self._restart()
            return
        for checker in self.checkers:
            self.observe_calls += 1
            if event.get("kind") in checker.kinds:
                checker.observe(event, index)


def broadcast_check(events, checkers: Optional[List[Checker]] = None,
                    indices=None) -> BroadcastSuite:
    """Feed *events* (1-based positions unless *indices* is given)
    through a :class:`BroadcastSuite` and finish it."""
    suite = BroadcastSuite(checkers)
    for n, event in enumerate(events, start=1):
        suite.observe(event, indices[n - 1] if indices else n)
    suite.finish()
    return suite


def verdict(suite: InvariantSuite):
    """Everything a caller can see of a finished suite."""
    def key(v: Violation):
        return (v.checker, v.message, v.index, v.t, v.event)
    return ([key(v) for v in suite.violations], suite.events_seen, suite.ok,
            [type(c).__name__ for c in suite.checkers])
