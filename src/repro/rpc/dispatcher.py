"""Work dispatch for incoming messages.

The original runtime forked a thread per incoming call.  We reproduce
those semantics with a cached pool: tasks never queue behind a busy
worker (a new thread is spawned whenever none is parked, up to a high
cap), so a handler that blocks on a nested call — e.g. a dirty call
issued while unpickling arguments — cannot deadlock the space.
Workers idle out after a few seconds to keep quiet processes small.

With ``shards > 0`` the pool adds a work-stealing plane on top: each
reactor shard gets a local task deque, and a request delivered by
shard *i*'s I/O thread lands in deque *i*.  Workers prefer their home
deque (assigned round-robin at spawn), then steal from the others in
ring order, then fall back to the shared queue — so a burst arriving
on one shard fans out across every idle worker instead of serialising
behind the single global ``SimpleQueue``, while an unsharded submit
(handshakes, timers, standalone connections) behaves exactly as
before.
"""

from __future__ import annotations

import logging
import queue
import threading
from collections import deque
from typing import Callable, List, Optional

logger = logging.getLogger("repro.rpc.dispatcher")

Task = Callable[[], None]

_STOP = object()


class _ShardToken:
    """A wakeup rider on the shared queue announcing 'one task is in
    shard ``index``'s deque (or was, until a faster worker drained
    it)'.  Tokens wake parked workers; they are not the task itself,
    so a token whose deque turned out empty is dropped silently."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Dispatcher:
    """Cached-thread task pool (see module docstring).

    Accounting happens entirely in aggregate, under ``_lock``:

    * ``_queued`` — tasks accepted and not yet taken by a worker
      (``submit`` increments; the worker that takes the task — from
      the shared queue or any shard deque — decrements).
    * ``_parked`` — workers currently blocked in ``get``
      (the worker increments before waiting, decrements after).

    ``submit`` spawns whenever accepting would leave more queued tasks
    than parked workers, so a burst of submits from one reader thread
    spawns one worker per task instead of piling onto a single parked
    worker.  A timed-out worker may only retire when ``_queued`` is
    zero, so a task enqueued against its park can never be stranded.
    Both counters are aggregate — no per-thread "am I counted" state
    exists to drift out of sync with them.

    Sharded submits append the task to the shard's deque and put a
    :class:`_ShardToken` on the shared queue.  Tokens and shard tasks
    are *not* 1:1 consumed: a busy worker drains shard deques directly
    between tasks (the fast path that skips the queue round-trip), so
    a token may find every deque empty — it is dropped and the worker
    re-parks.  Spurious wakeups are cheap; stranding is impossible
    because every shard task is covered by at least one token and by
    the retire check on ``_queued``.
    """

    def __init__(self, name: str = "dispatcher", max_workers: int = 256,
                 idle_timeout: float = 5.0, shards: int = 0,
                 max_queued: Optional[int] = None,
                 shard_queue_max: Optional[int] = None):
        self.name = name
        self.max_workers = max_workers
        self.idle_timeout = idle_timeout
        #: Global cap on queued-but-untaken tasks; ``None`` = unbounded.
        #: At the cap ``submit`` refuses (returns False) — queue-based
        #: load leveling, the caller sheds with BUSY.
        self.max_queued = max_queued
        #: Per-shard deque cap; an over-full shard spills to the shared
        #: queue (still counted against ``max_queued``).
        self.shard_queue_max = shard_queue_max
        # SimpleQueue: C-implemented put/get, no unfinished-task
        # bookkeeping — this queue is crossed once per incoming call.
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._workers = 0
        self._parked = 0
        self._queued = 0
        self._spawned = 0
        self._shutdown = False
        self._shards: List[deque] = [deque() for _ in range(max(0, shards))]
        #: Tasks that raised instead of completing.  Read by Space
        #: stats; incremented without a lock (int += is a single
        #: best-effort counter, exactness doesn't matter here).
        self.tasks_failed = 0
        #: Tasks taken from a deque other than the worker's home shard.
        self.stolen_tasks = 0
        #: Tasks submitted with a shard hint.
        self.shard_submits = 0
        #: Submits that wanted a fresh worker but found the pool at
        #: ``max_workers`` — the saturation signal admission control
        #: keys off (the task still runs, later).
        self.saturated_submits = 0
        #: Submits refused at the ``max_queued`` cap.
        self.shed_submits = 0
        #: Shard-deque overflows that spilled to the shared queue.
        self.shard_spills = 0
        #: Queued-but-unstarted tasks discarded by a draining shutdown.
        self.discarded_tasks = 0

    def submit(self, task: Task, shard: Optional[int] = None) -> bool:
        """Run ``task`` promptly on some worker thread.

        ``shard`` routes the task to that reactor shard's local deque
        (mod the configured shard count); ``None`` — or an unsharded
        pool — uses the shared queue.

        Returns False — and does not hold the task — when the pool has
        shut down or the ``max_queued`` cap is reached; the caller
        decides how to refuse (typically a BUSY reply).  (The
        collector's control plane, which must never be refused, does
        not come here: connections apply it on the reactor.)
        """
        if self._shutdown:
            return False
        # The put happens under the lock so a worker whose idle wait
        # timed out cannot observe ``_queued == 0`` after this task
        # was counted against its park and retire past it.
        with self._lock:
            if self._shutdown:
                return False
            if self.max_queued is not None and \
                    self._queued >= self.max_queued:
                self.shed_submits += 1
                return False
            if shard is not None and self._shards:
                index = shard % len(self._shards)
                bucket = self._shards[index]
                if self.shard_queue_max is not None and \
                        len(bucket) >= self.shard_queue_max:
                    # Over-full shard: spill to the shared queue so one
                    # hot I/O shard levels across every worker.
                    self.shard_spills += 1
                    self._tasks.put(task)
                else:
                    bucket.append(task)
                    self._tasks.put(_ShardToken(index))
                    self.shard_submits += 1
            else:
                self._tasks.put(task)
            self._queued += 1
            if self._queued > self._parked:
                if self._workers < self.max_workers:
                    self._workers += 1
                    self._spawned += 1
                    spawn = True
                else:
                    self.saturated_submits += 1
                    spawn = False
            else:
                spawn = False
        if spawn:
            threading.Thread(
                target=self._worker, args=(self._spawned,),
                name=f"{self.name}-worker", daemon=True,
            ).start()
        return True

    def stats(self) -> dict:
        """Snapshot of pool gauges (surfaced via ``Space.stats()``)."""
        with self._lock:
            return {
                "workers": self._workers,
                "parked": self._parked,
                "queued": self._queued,
                "tasks_failed": self.tasks_failed,
                "shards": len(self._shards),
                "shard_submits": self.shard_submits,
                "stolen_tasks": self.stolen_tasks,
                "saturated_submits": self.saturated_submits,
                "shed_submits": self.shed_submits,
                "shard_spills": self.shard_spills,
                "discarded_tasks": self.discarded_tasks,
                "max_workers": self.max_workers,
                "max_queued": self.max_queued,
            }

    def shutdown(self, discard_pending: bool = False) -> int:
        """Stop accepting tasks and release idle workers.

        With ``discard_pending`` queued-but-unstarted tasks are
        dropped instead of run — the bounded-drain shutdown path: a
        space quitting under overload must not execute a full backlog
        first.  Each discarded task's ``on_shed`` attribute (if any)
        is invoked so a waiting caller gets a BUSY reply rather than
        silence-until-timeout.  Returns the number discarded.
        """
        with self._lock:
            if self._shutdown:
                return 0
            self._shutdown = True
            workers = self._workers
        discarded = 0
        if discard_pending:
            discarded = self._discard_pending()
        # Sentinels bypass the ``_queued`` count: they are addressed to
        # the workers themselves, not claimable work.
        for _ in range(workers):
            self._tasks.put(_STOP)
        return discarded

    def _discard_pending(self) -> int:
        """Drain every queued-but-untaken task (deques + shared queue),
        firing ``on_shed`` hooks.  Workers racing us may still take
        some tasks — that is fine, the goal is promptness, not an
        exact cut."""
        dropped: List[Task] = []
        with self._lock:
            for bucket in self._shards:
                while bucket:
                    dropped.append(bucket.popleft())
                    self._queued -= 1
            while True:
                try:
                    item = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP or type(item) is _ShardToken:
                    # Tokens' tasks were drained above; stray sentinels
                    # (a prior shutdown call) address nobody now.
                    continue
                dropped.append(item)
                self._queued -= 1
            self.discarded_tasks += len(dropped)
        for task in dropped:
            on_shed = getattr(task, "on_shed", None)
            if on_shed is not None:
                try:
                    on_shed()
                except Exception:  # noqa: BLE001 - shedding must not fail shutdown
                    logger.exception("%s: on_shed hook raised", self.name)
        return len(dropped)

    def _take_sharded(self, prefer: Optional[int]) -> Optional[Task]:
        """Pop a task from the shard deques — home shard first, then
        steal in ring order.  Decrements ``_queued`` iff a task was
        taken.  No-op (and lock-free) on an unsharded pool."""
        shards = self._shards
        if not shards:
            return None
        count = len(shards)
        home = prefer % count if prefer is not None else 0
        with self._lock:
            for offset in range(count):
                index = (home + offset) % count
                bucket = shards[index]
                if bucket:
                    task = bucket.popleft()
                    self._queued -= 1
                    if offset:
                        self.stolen_tasks += 1
                    return task
        return None

    def _worker(self, seq: int) -> None:
        # Home shard: round-robin by spawn order, so the steady-state
        # worker population covers every deque.
        home = seq % len(self._shards) if self._shards else None
        while True:
            # Fast path: drain shard deques (home first) without a
            # queue round-trip, then the shared queue.
            task = self._take_sharded(home)
            if task is None:
                # ``parked`` is iteration-local bookkeeping for which
                # dequeue path ran, consumed a few lines down in the
                # same iteration — not cross-iteration state that
                # could drift from the aggregate counters.
                parked = False
                try:
                    item = self._tasks.get_nowait()
                except queue.Empty:
                    with self._lock:
                        self._parked += 1
                    parked = True
                    try:
                        item = self._tasks.get(timeout=self.idle_timeout)
                    except queue.Empty:
                        with self._lock:
                            self._parked -= 1
                            # A submitter may have counted this park
                            # and enqueued between our timeout and
                            # this lock; retiring now would strand the
                            # task.  Stay alive instead.
                            if self._queued:
                                continue
                            self._workers -= 1
                        return
                if item is _STOP:
                    with self._lock:
                        if parked:
                            self._parked -= 1
                        self._workers -= 1
                    return
                if type(item) is _ShardToken:
                    with self._lock:
                        if parked:
                            self._parked -= 1
                    task = self._take_sharded(item.index)
                    if task is None:
                        # A fast-path worker beat us to the task this
                        # token announced; the wakeup was spent, the
                        # work was not lost.
                        continue
                else:
                    with self._lock:
                        if parked:
                            self._parked -= 1
                        self._queued -= 1
                    task = item
            try:
                task()
            except Exception:  # noqa: BLE001 - a task must never kill its worker
                self.tasks_failed += 1
                logger.exception("%s: dropped task that raised", self.name)
