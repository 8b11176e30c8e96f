"""Dynamic micro-batching: coalesce concurrent requests into batches.

The serving story of the batched encode (PR 2/3): ``predict_batch`` is
~4x faster per sample than the per-sample loop, but only if someone
*forms* batches.  Online traffic arrives as individual requests from
many clients; the :class:`MicroBatchScheduler` queues them and lets the
server's inference thread pull *micro-batches* — a batch is flushed when it reaches
``max_batch_size`` or when ``max_wait_ms`` has elapsed since its oldest
request entered the queue, whichever comes first.  That bounds the
batching delay any single request can pay (tail latency) while keeping
batches full under load.

Admission control is a bounded queue: once ``max_queue`` requests are
waiting, further :meth:`~MicroBatchScheduler.submit` calls raise
:class:`QueueFullError` immediately instead of growing the backlog
without bound — the HTTP front-end maps this to a 429.  Graceful
shutdown (:meth:`~MicroBatchScheduler.close` with ``drain=True``)
stops admissions but lets the consumer finish everything already
queued; with ``drain=False`` the backlog is failed fast.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from ..obs import MetricsRegistry
from ..obs.tracing import Trace, current_trace


class QueueFullError(RuntimeError):
    """Backpressure: the bounded request queue is at capacity."""


class SchedulerClosedError(RuntimeError):
    """The scheduler no longer admits requests (shutting down)."""


@dataclass
class ServeRequest:
    """One queued prediction request.

    ``future`` resolves to the request's :class:`PredictorResult` (or
    the exception its batch raised); ``enqueued_at`` anchors both the
    flush deadline of the batch it joins and the end-to-end request
    latency the server reports.  ``trace`` carries the submitting
    thread's active trace across the future hand-off — the inference
    thread that executes the batch records queue-wait and inference
    spans into it (:func:`~repro.obs.current_trace` is thread-local
    and does not survive the queue on its own).
    """

    sample: object
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    trace: Optional[Trace] = None


class MicroBatchScheduler:
    """Bounded request queue with size-or-deadline batch formation.

    Producers call :meth:`submit`; the consumer (the server's inference
    thread) calls :meth:`next_batch`, which blocks until it can hand back a non-empty
    batch, and returns ``None`` only when the scheduler is closed and
    drained (or an explicit ``timeout`` expires while idle).
    """

    def __init__(
        self,
        max_batch_size: int = 16,
        max_wait_ms: float = 5.0,
        max_queue: int = 256,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self._queue: Deque[ServeRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # counters live in the metrics registry (a private one for a
        # standalone scheduler; the server's when embedded), read back
        # through the properties below
        self.registry = registry if registry is not None else MetricsRegistry()
        self._submitted = self.registry.counter(
            "scheduler_submitted", "Requests admitted to the queue"
        )
        self._rejected = self.registry.counter(
            "scheduler_rejected", "Requests rejected by backpressure"
        )
        self._dispatched = self.registry.counter(
            "scheduler_dispatched", "Requests handed out in batches"
        )
        self._batches = self.registry.counter(
            "scheduler_batches", "Micro-batches formed"
        )
        self._cancelled = self.registry.counter(
            "scheduler_cancelled", "Requests dropped after client cancellation"
        )
        self._batch_size = self.registry.histogram(
            "scheduler_batch_size",
            "Formed micro-batch sizes",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self.registry.gauge(
            "scheduler_queue_depth", "Requests currently queued", fn=self.depth
        )

    # -- historical counter surface ------------------------------------
    @property
    def submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    @property
    def dispatched(self) -> int:
        return int(self._dispatched.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def cancelled(self) -> int:
        return int(self._cancelled.value)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, sample) -> Future:
        """Queue one sample; returns the future its result lands on.

        Raises :class:`QueueFullError` when the queue is at capacity
        and :class:`SchedulerClosedError` after :meth:`close`.
        """
        request = ServeRequest(sample=sample, trace=current_trace())
        with self._not_empty:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed to new requests")
            if len(self._queue) >= self.max_queue:
                self._rejected.inc()
                raise QueueFullError(
                    f"request queue full ({len(self._queue)}/{self.max_queue})"
                )
            self._queue.append(request)
            self._submitted.inc()
            self._not_empty.notify()
        return request.future

    def depth(self) -> int:
        """Requests currently waiting (excludes in-flight batches)."""
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[ServeRequest]]:
        """Block until a micro-batch is ready, then return it.

        The batch starts with the oldest queued request and grows until
        either ``max_batch_size`` is reached or ``max_wait_ms`` has
        passed since that oldest request was enqueued — so the deadline
        covers time spent *waiting in the queue*, not just time spent
        in this call, and a request's batching delay is bounded even
        when the inference thread was busy when it arrived.

        Returns ``None`` when the scheduler is closed and the queue is
        drained, or when ``timeout`` (seconds) expires with nothing
        queued.  After ``close()``, remaining requests are still handed
        out (in batches, without deadline waits) until the queue is
        empty.  Requests whose future was cancelled (a client gave up
        waiting) are dropped here instead of wasting a batch slot.
        """
        with self._not_empty:
            while True:
                first = self._pop_live_locked()
                if first is not None:
                    break
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None  # idle timeout: let the caller re-check
            batch = [first]
            deadline = first.enqueued_at + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch_size:
                if self._queue:
                    request = self._pop_live_locked()
                    if request is not None:
                        batch.append(request)
                    continue
                if self._closed:
                    break  # drain mode: no point waiting for arrivals
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
            self._dispatched.inc(len(batch))
            self._batches.inc()
            self._batch_size.observe(len(batch))
            return batch

    def _pop_live_locked(self) -> Optional[ServeRequest]:
        """Pop the oldest non-cancelled request; ``None`` if queue empty.

        Caller holds the lock.  Cancelled requests (client timed out
        and abandoned the future) are discarded and counted.
        """
        while self._queue:
            request = self._queue.popleft()
            if not request.future.cancelled():
                return request
            self._cancelled.inc()
        return None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop admitting requests.

        ``drain=True`` (graceful): everything already queued will still
        be served; the consumer sees ``None`` from :meth:`next_batch`
        once the queue empties.  ``drain=False``: the backlog is cleared and
        every pending future fails with :class:`SchedulerClosedError`.
        """
        with self._not_empty:
            self._closed = True
            abandoned = []
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._not_empty.notify_all()
        for request in abandoned:
            if not request.future.cancelled():
                request.future.set_exception(
                    SchedulerClosedError("scheduler closed before this request ran")
                )

    def stats(self) -> dict:
        """Queue counters, read from the registry instruments."""
        with self._lock:
            depth = len(self._queue)
            closed = self._closed
        return {
            "queue_depth": depth,
            "max_queue": self.max_queue,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "dispatched": self.dispatched,
            "cancelled": self.cancelled,
            "batches_formed": self.batches,
            "closed": closed,
        }
