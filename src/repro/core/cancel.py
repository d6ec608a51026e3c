"""Cooperative cancellation of running optimizers.

Python threads cannot be killed, so a portfolio race that no longer needs a
member — another member proved optimality, or the budget ran out — must
*ask* it to stop, or it keeps burning the GIL and slows the next request.
The mechanism is a :class:`CancelScope`, made ambient inside the member's
thread through a :class:`contextvars.ContextVar` (the same idiom as
:mod:`repro.obs.trace`).  A portfolio uses scopes in two ways:

* each **exact** member runs inline, on the portfolio's calling thread, under
  its own scope with a monotonic :attr:`CancelScope.deadline` — its fair
  share of the remaining budget — so an exact search that cannot finish its
  proof in time stops by itself at the deadline;
* the heuristics that then **race** on executor threads share one scope per
  race, which the race :meth:`CancelScope.cancel`-s when it returns with
  members still running.

The iterative optimizers read :func:`active_scope` once per ``optimize`` call
and call :meth:`CancelScope.check` once per level, node or iteration, which
raises :class:`~repro.exceptions.OptimizationCancelledError` after a
cancellation or past the deadline.

Outside a portfolio no scope is active: the per-level cost is one ``None``
test, and plans, costs and statistics are unchanged bit for bit.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import OptimizationCancelledError

__all__ = ["CancelScope", "active_scope", "cancel_scope"]


class CancelScope:
    """A one-way cancellation flag, optionally with a monotonic deadline."""

    __slots__ = ("_event", "deadline")

    def __init__(self, deadline: float | None = None) -> None:
        self._event = threading.Event()
        self.deadline = deadline
        """:func:`time.monotonic` value past which :meth:`check` raises
        (``None``: only :meth:`cancel` stops the optimizers)."""

    def cancel(self) -> None:
        """Ask every optimizer running under this scope to stop."""
        self._event.set()

    def check(self) -> None:
        """Raise :class:`~repro.exceptions.OptimizationCancelledError` once
        cancelled or past the deadline."""
        if self._event.is_set():
            raise OptimizationCancelledError("optimization cancelled by its portfolio race")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise OptimizationCancelledError("optimization ran past its deadline")


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
