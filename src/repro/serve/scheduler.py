"""Per-model micro-batch queues with admission control and dispatch policy.

The scheduler is the seam between request producers (front-ends calling
``submit``) and batch consumers (the threads of a
:class:`~repro.serve.workers.WorkerPool`).  Each registered model gets its
own bounded FIFO queue; a batch for a model is *due* when either

* ``max_batch_size`` requests are pending for it, or
* the oldest pending request has waited ``max_queue_delay_s``.

Admission control is depth-based backpressure: when a queue already holds
``max_depth`` requests, ``submit`` raises :class:`QueueFullError` instead of
letting the queue (and tail latency) grow without bound.  The caller decides
what rejection means -- shed the request, retry later, or route to another
model.

All methods are thread-safe.  Consumers call ``get_batch``, which blocks
until a batch is due (woken by submissions and by ``stop``); a ``timeout``
of 0 makes it a non-blocking poll.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from threading import Condition
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import MetricRegistry
from repro.serve.types import InferenceRequest


class QueueFullError(RuntimeError):
    """A model's queue is at its bounded depth; the request was not admitted."""


@dataclass(frozen=True)
class QueuePolicy:
    """Batching / admission parameters of one model's queue."""

    max_batch_size: int = 32
    max_queue_delay_s: float = 0.0
    #: Maximum pending requests before ``submit`` rejects; ``None`` is
    #: unbounded.
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be at least 1, got {self.max_batch_size}")
        if self.max_queue_delay_s < 0:
            raise ValueError(
                f"max_queue_delay_s must be non-negative, got {self.max_queue_delay_s}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1 or None, got {self.max_depth}")


class _ModelQueue:
    __slots__ = ("policy", "pending")

    def __init__(self, policy: QueuePolicy) -> None:
        self.policy = policy
        self.pending: Deque[InferenceRequest] = deque()


class Scheduler:
    """Thread-safe per-model request queues with max-delay batch dispatch."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        """Args:
            clock: Injectable time source for the max-delay dispatch.
            metrics: Registry for per-queue submitted / dispatched
                counters and the live depth gauge; ``None`` skips them.
        """
        self.clock = clock
        self._cond = Condition()
        self._queues: Dict[str, _ModelQueue] = {}
        #: Round-robin cursor so one busy model cannot starve the others.
        self._rotation: List[str] = []
        self._stopped = False
        if metrics is not None:
            self._submitted_counter = metrics.counter(
                "serve_queue_submitted_total",
                "Requests admitted per scheduler queue.",
                labels=("queue",),
            )
            self._full_counter = metrics.counter(
                "serve_queue_full_total",
                "Requests refused by depth backpressure per queue.",
                labels=("queue",),
            )
            self._dispatched_counter = metrics.counter(
                "serve_queue_batches_total",
                "Batches dispatched per scheduler queue.",
                labels=("queue",),
            )
            self._depth_gauge = metrics.gauge(
                "serve_queue_depth", "Live pending-request depth per queue.",
                labels=("queue",),
            )
        else:
            self._submitted_counter = self._full_counter = None
            self._dispatched_counter = self._depth_gauge = None

    # ------------------------------------------------------------------ #
    # Registration / introspection
    # ------------------------------------------------------------------ #
    def register(self, model: str, policy: Optional[QueuePolicy] = None) -> None:
        """Create one queue under key ``model`` (any string; serving stacks
        use ``model@bits`` variant keys).

        Args:
            model: Queue key.
            policy: Batching/admission parameters (default
                :class:`QueuePolicy`).

        Raises:
            ValueError: the key is already registered.
        """
        with self._cond:
            if model in self._queues:
                raise ValueError(f"model {model!r} already registered with the scheduler")
            self._queues[model] = _ModelQueue(policy or QueuePolicy())
            self._rotation.append(model)

    def models(self) -> List[str]:
        """Registered queue keys, in current round-robin order."""
        with self._cond:
            return list(self._rotation)

    def pending(self, model: Optional[str] = None) -> int:
        """Pending request count of one queue (or all queues summed).

        Raises:
            KeyError: ``model`` names an unregistered queue.
        """
        with self._cond:
            if model is not None:
                return len(self._queue_of(model).pending)
            return sum(len(queue.pending) for queue in self._queues.values())

    def _queue_of(self, model: str) -> _ModelQueue:
        queue = self._queues.get(model)
        if queue is None:
            raise KeyError(f"model {model!r} is not registered with the scheduler")
        return queue

    def _stamp_depth_locked(self, model: str, queue: _ModelQueue) -> None:
        """Publish the queue's live depth (called with the lock held).

        The gauge is stamped at every enqueue- and dequeue-*commit* -- the
        instants the pending deque actually changes length under the lock
        -- and on admission rejection, never early and never tied to the
        (optional) counters, so a scraped depth always equals what a
        concurrent :meth:`pending` call would report.
        """
        if self._depth_gauge is not None:
            self._depth_gauge.labels(queue=model).set(len(queue.pending))

    def policy(self, model: str) -> QueuePolicy:
        """The batching policy of one queue.

        Worker pools read ``max_batch_size`` from it to preallocate their
        execution arenas at the largest batch the queue can dispatch.

        Raises:
            KeyError: ``model`` names an unregistered queue.
        """
        with self._cond:
            return self._queue_of(model).policy

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, model: str, request: InferenceRequest) -> None:
        """Enqueue one request.

        Args:
            model: Registered queue key.
            request: The request to queue (its ``enqueued_at`` drives the
                max-delay dispatch).

        Raises:
            QueueFullError: the queue is at its bounded ``max_depth``.
            KeyError: the queue key is not registered.
            RuntimeError: the scheduler is stopped -- consumers are
                draining (or gone), so admitting the request would strand
                it.
        """
        with self._cond:
            if self._stopped:
                raise RuntimeError("scheduler is stopped; request not admitted")
            queue = self._queue_of(model)
            depth = queue.policy.max_depth
            if depth is not None and len(queue.pending) >= depth:
                if self._full_counter is not None:
                    self._full_counter.labels(queue=model).inc()
                self._stamp_depth_locked(model, queue)
                raise QueueFullError(
                    f"queue for model {model!r} is at its bounded depth ({depth}); "
                    f"retry later or route elsewhere"
                )
            queue.pending.append(request)
            if self._submitted_counter is not None:
                self._submitted_counter.labels(queue=model).inc()
            self._stamp_depth_locked(model, queue)
            self._cond.notify()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def _due_model_locked(self, now: float) -> Optional[str]:
        for offset in range(len(self._rotation)):
            name = self._rotation[offset]
            queue = self._queues[name]
            if not queue.pending:
                continue
            policy = queue.policy
            if len(queue.pending) >= policy.max_batch_size:
                self._rotation.append(self._rotation.pop(offset))
                return name
            if now - queue.pending[0].enqueued_at >= policy.max_queue_delay_s:
                self._rotation.append(self._rotation.pop(offset))
                return name
        return None

    def _pop_batch_locked(self, model: str) -> List[InferenceRequest]:
        queue = self._queues[model]
        size = min(len(queue.pending), queue.policy.max_batch_size)
        batch = [queue.pending.popleft() for _ in range(size)]
        if self._dispatched_counter is not None:
            self._dispatched_counter.labels(queue=model).inc()
        # Dequeue-commit: the requests have left the pending deque under
        # the lock, so the published depth drops exactly here -- not when
        # the batch later finishes dispatch.
        self._stamp_depth_locked(model, queue)
        return batch

    def get_batch(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[str, List[InferenceRequest]]]:
        """Blocking consumer call: wait until a batch is due (or ``stop``).

        Returns ``None`` when the scheduler is stopped and every queue has
        fully drained, or when ``timeout`` elapses with nothing due.  While
        stopping, remaining requests are handed out as (possibly partial)
        batches so no admitted request is dropped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = self.clock()
                model = self._due_model_locked(now)
                if model is not None:
                    return model, self._pop_batch_locked(model)
                if self._stopped:
                    for name in list(self._rotation):
                        if self._queues[name].pending:
                            return name, self._pop_batch_locked(name)
                    return None
                # Wake early enough to honour the tightest max-delay among
                # non-empty queues (or wait for a submission/stop).
                wait = self._next_deadline_locked(now)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def _next_deadline_locked(self, now: float) -> Optional[float]:
        soonest: Optional[float] = None
        for queue in self._queues.values():
            if not queue.pending:
                continue
            due_in = queue.policy.max_queue_delay_s - (now - queue.pending[0].enqueued_at)
            if due_in != float("inf"):
                soonest = due_in if soonest is None else min(soonest, due_in)
        if soonest is None:
            return None
        return max(soonest, 0.0)

    def stop(self) -> None:
        """Stop blocking consumers once the queues drain."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    @property
    def stopped(self) -> bool:
        """Whether ``stop`` was called (consumers are draining)."""
        with self._cond:
            return self._stopped
