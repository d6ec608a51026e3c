"""Cooperative cancellation of running optimizers.

Python threads cannot be killed, so a portfolio race that has its answer —
a member proved optimality, or the budget ran out — must *ask* the members
it abandons to stop, or they keep burning the GIL and slow the next request.
The mechanism is one :class:`CancelScope` per race, made ambient inside each
member's executor thread through a :class:`contextvars.ContextVar` (the same
idiom as :mod:`repro.obs.trace`):

* the race enters :func:`cancel_scope` around every racing member and calls
  :meth:`CancelScope.cancel` when it returns with members still running;
* the iterative optimizers read :func:`active_scope` once per ``optimize``
  call and call :meth:`CancelScope.check` once per level, node or iteration,
  which raises :class:`~repro.exceptions.OptimizationCancelledError` after a
  cancellation.

Outside a portfolio no scope is active: the per-level cost is one ``None``
test, and plans, costs and statistics are unchanged bit for bit.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import OptimizationCancelledError

__all__ = ["CancelScope", "active_scope", "cancel_scope"]


class CancelScope:
    """A one-way cancellation flag shared by the members of one race."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Ask every optimizer running under this scope to stop."""
        self._event.set()

    def check(self) -> None:
        """Raise :class:`~repro.exceptions.OptimizationCancelledError` once cancelled."""
        if self._event.is_set():
            raise OptimizationCancelledError("optimization cancelled by its portfolio race")


_active: contextvars.ContextVar[CancelScope | None] = contextvars.ContextVar(
    "repro_cancel_scope", default=None
)


def active_scope() -> CancelScope | None:
    """The scope optimizers running in this context must honour, if any."""
    return _active.get()


@contextmanager
def cancel_scope(scope: CancelScope) -> Iterator[CancelScope]:
    """Make ``scope`` ambient for the duration of the block.

    The previous value is restored on exit, so a reused executor thread never
    carries one race's scope into the next task it runs.
    """
    token = _active.set(scope)
    try:
        yield scope
    finally:
        _active.reset(token)
