"""The tick-driving event loop: one background thread, one coalescing tick.

Sessions feed audio from wherever their traffic arrives (request handlers,
reader threads, a benchmark loop); completed segments pile up in the shared
:class:`~repro.core.selector.StreamBatch`.  The :class:`TickLoop` thread is
the only place inference runs: it wakes when work is submitted (or on a
coarse poll as a safety net), runs **one** coalesced
:meth:`~repro.core.selector.StreamBatch.tick` over every pending segment
across every session, and notifies waiters.  That single-ticker design keeps
the scheduling trivially fair (FIFO within a tick) and means cross-stream
micro-batching happens by construction — concurrent sessions land in the same
tick instead of racing each other for the Selector.

Shutdown is graceful by default: the loop stops accepting wakeups, keeps
ticking until no request is pending (draining every submitted segment so no
session is left waiting on audio it already fed), then exits.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.core.selector import StreamBatch


class TickLoop:
    """Background thread driving :meth:`StreamBatch.tick` over pending work.

    ``poll_interval_s`` bounds how long a submitted segment can sit unticked
    if a producer forgets to :meth:`wake` — it is a safety net, not the
    scheduling mechanism.
    """

    def __init__(
        self,
        batch: StreamBatch,
        poll_interval_s: float = 0.05,
        name: str = "nec-tick-loop",
    ) -> None:
        self.batch = batch
        self.poll_interval_s = float(poll_interval_s)
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._wake_cond = threading.Condition()
        self._woken = False
        self._stopping = False
        self._tick_cond = threading.Condition()
        self._tick_serial = 0
        self._error: Optional[BaseException] = None

    # -- state -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def tick_serial(self) -> int:
        """Monotonic count of completed ticks (for wait-for-progress checks)."""
        with self._tick_cond:
            return self._tick_serial

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that stopped the loop, if any."""
        return self._error

    # -- control -----------------------------------------------------------
    def start(self) -> "TickLoop":
        if self.running:
            return self
        if self._stopping:
            raise RuntimeError("TickLoop cannot be restarted after shutdown")
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        return self

    def wake(self) -> None:
        """Signal that work was submitted; the loop ticks as soon as it can."""
        with self._wake_cond:
            self._woken = True
            self._wake_cond.notify()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the loop; with ``drain`` (default), tick until nothing is pending.

        Draining guarantees every segment submitted before shutdown gets its
        coalesced Selector pass — sessions can still :meth:`collect` their
        results after the loop is gone.  With ``drain=False`` pending requests
        are left unticked (their waiters see the loop stopped and give up).
        """
        if self._thread is None:
            # Never started: drain inline so submitted work is not stranded.
            self._stopping = True
            if drain:
                self._drain_inline()
            return
        with self._wake_cond:
            self._stopping = True
            self._drain_on_stop = drain
            self._wake_cond.notify()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - join timeout
            raise RuntimeError("TickLoop failed to stop within the timeout")
        self._thread = None

    _drain_on_stop = True

    def _drain_inline(self) -> None:
        while self.batch.pending_requests:
            self._tick_once()

    # -- waiting -----------------------------------------------------------
    def wait_for(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Block until ``predicate()`` holds, re-checking after every tick.

        Raises the loop's error if ticking failed (a waiter must never hang on
        an inference pass that will not happen).  Returns ``False`` on
        timeout, or if the loop stopped without the predicate holding.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._tick_cond:
            while True:
                if self._error is not None:
                    raise RuntimeError("tick loop failed") from self._error
                if predicate():
                    return True
                if self._stopping and not self.running:
                    return False
                remaining = self.poll_interval_s
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0:
                        return False
                self._tick_cond.wait(remaining)

    # -- loop body ---------------------------------------------------------
    def _tick_once(self) -> int:
        try:
            ticked = self.batch.tick()
        except BaseException as exc:  # noqa: BLE001 - surfaced to waiters
            with self._tick_cond:
                self._error = exc
                self._tick_cond.notify_all()
            raise
        with self._tick_cond:
            self._tick_serial += 1
            self._tick_cond.notify_all()
        return ticked

    def _run(self) -> None:
        try:
            while True:
                with self._wake_cond:
                    if not self._woken and not self._stopping:
                        self._wake_cond.wait(self.poll_interval_s)
                    self._woken = False
                    stopping = self._stopping
                if stopping:
                    break
                if self.batch.pending_requests:
                    self._tick_once()
            if self._drain_on_stop:
                while self.batch.pending_requests:
                    self._tick_once()
        except BaseException:  # noqa: BLE001 - error already published
            return
        finally:
            with self._tick_cond:
                self._tick_cond.notify_all()
