"""Bounded execution: soft deadlines, cooperative interrupts, retries.

Three small tools with one shared philosophy — a long sweep should stop
at a *point boundary* with its journal intact, never mid-write:

* :class:`Deadline` -- a soft wall-clock budget checked between points;
  when it expires the sweep raises :class:`DeadlineExceeded` *after*
  flushing, so the run is resumable.
* :class:`CooperativeInterrupt` -- a context manager that converts
  SIGINT and SIGTERM into a flag; the sweep finishes the current point,
  flushes the journal, and then re-raises ``KeyboardInterrupt`` cleanly.
* :func:`retry_with_backoff` -- bounded retries for transient failures
  (artifact-directory contention, flaky filesystems).
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.errors import SimulationError
from repro.obs.metrics import counter

T = TypeVar("T")


class DeadlineExceeded(SimulationError):
    """A sweep's soft time budget ran out (the journal was flushed)."""


class Deadline:
    """Soft wall-clock budget for a run.

    ``None`` seconds means unbounded; ``check()`` is then free. The
    clock is monotonic, so system clock changes cannot cut a run short.
    """

    def __init__(self, seconds: Optional[float] = None):
        if seconds is not None and seconds <= 0:
            raise SimulationError(
                f"deadline must be positive, got {seconds!r}"
            )
        self.seconds = seconds
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, context: str = "run") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            counter("deadline.expirations").inc()
            raise DeadlineExceeded(
                f"{context} exceeded its {self.seconds:.3g}s deadline "
                f"after {self.elapsed():.3g}s"
            )


class CooperativeInterrupt:
    """Defer SIGINT and SIGTERM to the next point boundary.

    Inside the ``with`` block the first signal only sets a flag; the
    loop polls :attr:`pending` (or calls :meth:`checkpoint`) between
    points and exits cleanly. SIGTERM gets the same treatment as
    Ctrl-C, so ``kill PID`` drains a parallel run (workers joined,
    journals merged) instead of orphaning its workers. A second signal
    raises at once — the escape hatch when a point itself hangs.

    In threads where signal handlers cannot be installed the manager
    degrades to a no-op and both signals behave as usual.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.pending = False
        self._previous: dict = {}

    def _on_signal(self, signum, frame) -> None:  # noqa: ANN001
        if self.pending:  # second signal: stop deferring
            raise KeyboardInterrupt
        self.pending = True
        counter("interrupt.deferred").inc()

    def __enter__(self) -> "CooperativeInterrupt":
        try:
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(
                    signum, self._on_signal
                )
        except ValueError:  # not the main thread
            pass
        return self

    def __exit__(self, exc_type, exc, tb) -> None:  # noqa: ANN001
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    def checkpoint(self) -> None:
        """Raise ``KeyboardInterrupt`` now if a signal was deferred."""
        if self.pending:
            raise KeyboardInterrupt


def retry_with_backoff(
    fn: Callable[[], T],
    retries: int = 3,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    retryable: Tuple[Type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn``, retrying transient failures with exponential backoff.

    ``retries`` is the number of *re*-tries after the first attempt;
    the final failure propagates unchanged. Only exception types listed
    in ``retryable`` are retried — everything else escapes immediately.
    """
    if retries < 0:
        raise SimulationError(f"retries must be >= 0, got {retries}")
    attempt = 0
    while True:
        try:
            return fn()
        except retryable:
            if attempt >= retries:
                raise
            counter("retry.attempts").inc()
            delay = min(max_delay, base_delay * (2 ** attempt))
            sleep(delay)
            attempt += 1
