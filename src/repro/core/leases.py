"""Read leases: owner-granted cached object state (protocol v4).

The paper's invocation model charges every remote read a full RPC.
For read-mostly objects this module adds the classic lease
optimisation on top of the existing surrogate machinery: the owner
grants a client a *time-bounded read lease* together with a snapshot
of the object's lease-safe state; the client rebuilds a local replica
and serves ``@reads`` methods from it with zero network traffic until
the lease expires or the owner invalidates it on a write.

Two halves, mirroring the dirty/clean split of the collector:

* :class:`LeaseTable` — the owner half.  Leases live on the object's
  :class:`~repro.core.objtable.ExportedEntry` (``entry.leases``), so an
  entry drop discards them; this class owns the single lease lock, the
  id counter and the owner-side counters.  The core invariant is
  *lease holders ⊆ pdirty*: a grant requires the holder to be in the
  entry's dirty set, and both CLEAN and the pinger's purge retire the
  holder's lease — so under the formal GC model leases add no new
  liveness edges and can never leak a dirty-set entry.

* :class:`LeaseCache` — the client half: held replicas keyed by
  wireRep, plus the bookkeeping that makes the asynchronous protocol
  safe (dead-id set for invalidations racing grant registration, the
  unleasable set for types that cannot replicate client-side).

Clock discipline: the *holder* starts its expiry clock when it sends
the request, the *owner* when it grants — so the holder's deadline is
always strictly earlier than the owner's.  A writer that cannot reach
a holder may therefore simply wait out the owner-side deadline and be
certain the replica is no longer being served.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from typing import Callable, Dict, Optional, Set, Tuple

from repro.wire.ids import SpaceID
from repro.wire.wirerep import WireRep


class Lease:
    """One owner-side lease: who holds it, until when, at what version."""

    __slots__ = ("lease_id", "holder", "deadline", "version")

    def __init__(self, lease_id: int, holder: SpaceID, deadline: float,
                 version: int):
        self.lease_id = lease_id
        self.holder = holder
        self.deadline = deadline
        self.version = version

    def remaining(self, now: Optional[float] = None) -> float:
        return self.deadline - (time.monotonic() if now is None else now)

    def __repr__(self) -> str:
        return (f"Lease(id={self.lease_id}, holder={self.holder}, "
                f"remaining={self.remaining():.3f}s, v{self.version})")


class _LeaseLock:
    """The lease lock, plus retirements queued by threads that must not
    wait for it.  Whoever holds the lock applies the queue before it
    releases, and looks again after: a retirement queued just as the
    lock is released is taken up by the queuing thread itself or by
    the next holder."""

    def __init__(self, apply: Callable[..., None]):
        self._lock = threading.Lock()
        self._deferred: collections.deque = collections.deque()
        self._apply = apply

    def __enter__(self) -> "_LeaseLock":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._release()

    def apply_or_defer(self, *args) -> None:
        """``apply(*args)`` now if the lock is free, else queue it for
        the holder; never waits."""
        if self._lock.acquire(blocking=False):
            self._apply(*args)
        else:
            self._deferred.append(args)
            if not self._lock.acquire(blocking=False):
                return  # the holder applies it before releasing
        self._release()

    def _release(self) -> None:
        while True:
            while self._deferred:
                self._apply(*self._deferred.popleft())
            self._lock.release()
            if not self._deferred or not self._lock.acquire(blocking=False):
                return


class LeaseTable:
    """Owner half: grant, retire and collect leases on exported entries.

    All mutation of ``entry.leases`` happens under this table's single
    lock.  Lock order is *lease lock → DgcOwner lock* only: the grant
    path pickles a snapshot under the lease lock (which may record
    reference copies, taking the owner lock), so the collector must
    never call in here while holding its own lock — DgcOwner retires
    leases after releasing it.

    A grant holds the lock while user code pickles the snapshot, for
    as long as that takes.  The reactor must not wait for that, so the
    retirements it triggers (CLEAN, LEASE_RELEASE) go through
    :meth:`retire_soon`, which never blocks.
    """

    def __init__(self, max_ttl: float):
        self.max_ttl = max_ttl
        self._lock = _LeaseLock(self._retire_locked)
        self._ids = itertools.count(1)
        self.leases_granted = 0
        self.leases_denied = 0
        self.leases_released = 0
        self.invalidations_sent = 0
        self.expired_leases = 0

    @property
    def lock(self) -> _LeaseLock:
        """The lease lock — grant/collect critical sections run under it."""
        return self._lock

    def grant(self, entry, holder: SpaceID, requested_ttl: float,
              snapshot) -> Lease:
        """Register a lease for ``holder`` on ``entry``.

        Caller MUST hold :attr:`lock` and have verified ``holder in
        entry.pdirty``.  ``snapshot(lease)`` runs inside the critical
        section — the pickled state and the registered lease are atomic
        with respect to writes (a write either sees the lease and
        invalidates it, or the snapshot captures the post-write state).
        If it raises, nothing is registered.  Replaces any prior lease
        the holder had (counted as expired or released accordingly).
        """
        prior = entry.leases.get(holder)
        if prior is not None:
            if prior.remaining() <= 0:
                self.expired_leases += 1
            else:
                self.leases_released += 1
        ttl = min(requested_ttl, self.max_ttl)
        lease = Lease(next(self._ids), holder,
                      time.monotonic() + ttl, entry.lease_version)
        snapshot(lease)
        entry.leases[holder] = lease
        self.leases_granted += 1
        return lease

    def retire(self, entry, holder: SpaceID,
               lease: Optional[Lease] = None) -> Optional[Lease]:
        """Drop ``holder``'s lease on ``entry`` after a write's
        invalidation.  With ``lease`` given, retires only that exact
        lease — a stale retirement cannot kill a re-grant."""
        with self._lock:
            current = entry.leases.get(holder)
            if lease is not None and current is not lease:
                return None
            return self._retire_locked(entry, holder)

    def retire_soon(self, entry, holder: SpaceID,
                    lease_id: Optional[int] = None) -> None:
        """Drop ``holder``'s lease on ``entry`` (only lease ``lease_id``,
        if given — LEASE_RELEASE and LEASE_RENEW carry it) without
        waiting for the lease lock: CLEAN, purge and LEASE_RELEASE run
        on threads that must not block.  If a grant holds the lock,
        the grant applies the retirement as it releases it — after
        registering its own lease, which a departed holder must not
        keep either."""
        self._lock.apply_or_defer(entry, holder, lease_id)

    def _retire_locked(self, entry, holder: SpaceID,
                       lease_id: Optional[int] = None) -> Optional[Lease]:
        current = entry.leases.get(holder)
        if current is None or (lease_id is not None
                               and current.lease_id != lease_id):
            return None
        del entry.leases[holder]
        if current.remaining() <= 0:
            self.expired_leases += 1
        else:
            self.leases_released += 1
        return current

    def begin_write(self, entry) -> "list[Lease]":
        """Write-path collect: bump the entry's lease version and take
        every outstanding lease.  Expired ones are retired on the spot
        (their holders already stopped serving the replica — holder
        clocks run ahead of ours); live ones are returned for the
        caller to invalidate, and stay registered until the writer
        confirms the ack (or waits out the deadline) via
        :meth:`retire`."""
        with self._lock:
            entry.lease_version += 1
            if not entry.leases:
                return []
            live = []
            now = time.monotonic()
            for holder, lease in list(entry.leases.items()):
                if lease.remaining(now) <= 0:
                    del entry.leases[holder]
                    self.expired_leases += 1
                else:
                    live.append(lease)
            self.invalidations_sent += len(live)
            return live

    def stats(self) -> dict:
        with self._lock:
            return {
                "leases_granted": self.leases_granted,
                "leases_denied": self.leases_denied,
                "leases_released": self.leases_released,
                "invalidations_sent": self.invalidations_sent,
                "expired_leases": self.expired_leases,
            }


class HeldLease:
    """One client-side lease: the local replica and its expiry."""

    __slots__ = ("lease_id", "replica", "deadline", "version")

    def __init__(self, lease_id: int, replica, deadline: float, version: int):
        self.lease_id = lease_id
        self.replica = replica
        self.deadline = deadline
        self.version = version


#: Bound on the remembered dead-lease ids (invalidations that raced
#: grant registration).  Tiny: the race window is one in-flight grant.
_DEAD_IDS_MAX = 256


class LeaseCache:
    """Client half: replicas held under lease, keyed by wireRep.

    Thread-safe.  The subtle part is the *invalidate-before-grant*
    race: the owner's LEASE_INVALIDATE is dispatched by a worker thread
    and may overtake the requester thread that is still unpickling the
    grant's snapshot.  An invalidation for a lease we do not hold yet
    is therefore remembered by id, and :meth:`register` refuses a grant
    whose id is already dead.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._held: Dict[WireRep, HeldLease] = {}
        self._last_ids: Dict[WireRep, int] = {}
        self._dead_ids: Set[Tuple[WireRep, int]] = set()
        self._acquiring: Set[WireRep] = set()
        self._no_lease: set = set()       # typecodes that cannot replicate
        self.lease_requests = 0
        self.lease_hits = 0
        self.lease_misses = 0
        self.invalidations_received = 0
        self.replica_expiries = 0

    def replica_for(self, wirerep: WireRep):
        """The live replica for ``wirerep``, or None (counts hit/miss).

        An expired entry is dropped here — client-side expiry needs no
        timer thread because every read passes through this check.
        """
        with self._lock:
            held = self._held.get(wirerep)
            if held is None:
                self.lease_misses += 1
                return None
            if held.deadline <= time.monotonic():
                del self._held[wirerep]
                self.replica_expiries += 1
                self.lease_misses += 1
                return None
            self.lease_hits += 1
            return held.replica

    def register(self, wirerep: WireRep, lease_id: int, replica,
                 deadline: float, version: int) -> bool:
        """Install a granted lease; False if it was already invalidated
        (the invalidation overtook the grant) or superseded.

        Owner lease ids are monotone, and a fresh grant replaces the
        holder's prior lease in the owner's table — so a grant whose id
        is not strictly newer than what we hold is one the owner has
        already forgotten.  Installing it would leave us serving a
        replica no future invalidation can name; refuse it instead.
        """
        with self._lock:
            if self._last_ids.get(wirerep, 0) < lease_id:
                self._last_ids[wirerep] = lease_id
            if (wirerep, lease_id) in self._dead_ids:
                self._dead_ids.discard((wirerep, lease_id))
                return False
            held = self._held.get(wirerep)
            if held is not None and held.lease_id >= lease_id:
                return False
            self._held[wirerep] = HeldLease(lease_id, replica, deadline,
                                            version)
            return True

    def begin_acquire(self, wirerep: WireRep) -> bool:
        """Single-flight guard: True if this thread should go ask the
        owner for a lease on ``wirerep``; False while another thread's
        request is already in flight (the caller falls back to one RPC
        and hits the fresh replica on its next read).  Pair every True
        with :meth:`end_acquire`."""
        with self._lock:
            if wirerep in self._acquiring:
                return False
            self._acquiring.add(wirerep)
            return True

    def end_acquire(self, wirerep: WireRep) -> None:
        with self._lock:
            self._acquiring.discard(wirerep)

    def invalidate(self, wirerep: WireRep, lease_id: int) -> None:
        """Owner-sent invalidation: drop the replica if we hold that
        lease, else remember the id so a late grant registration dies."""
        with self._lock:
            self.invalidations_received += 1
            held = self._held.get(wirerep)
            if held is not None and held.lease_id == lease_id:
                del self._held[wirerep]
                return
            if len(self._dead_ids) >= _DEAD_IDS_MAX:
                self._dead_ids.clear()
            self._dead_ids.add((wirerep, lease_id))

    def drop(self, wirerep: WireRep) -> Optional[HeldLease]:
        """Forget any held lease for ``wirerep`` (surrogate going away,
        CLEAN about to be sent, connection lost).  Returns what was
        held so the caller can send LEASE_RELEASE."""
        with self._lock:
            self._last_ids.pop(wirerep, None)
            return self._held.pop(wirerep, None)

    def last_lease_id(self, wirerep: WireRep) -> Optional[int]:
        """The most recent lease id seen for ``wirerep`` (for RENEW)."""
        with self._lock:
            return self._last_ids.get(wirerep)

    def mark_unleasable(self, typecode: str) -> None:
        with self._lock:
            self._no_lease.add(typecode)

    def leasable(self, typecode: str) -> bool:
        with self._lock:
            return typecode not in self._no_lease

    def held_count(self) -> int:
        with self._lock:
            now = time.monotonic()
            return sum(1 for h in self._held.values() if h.deadline > now)

    def stats(self) -> dict:
        with self._lock:
            return {
                "lease_requests": self.lease_requests,
                "lease_hits": self.lease_hits,
                "lease_misses": self.lease_misses,
                "invalidations_received": self.invalidations_received,
                "replica_expiries": self.replica_expiries,
                "held_leases": len(self._held),
            }
