"""The owner-optimised variant (Section 5.2) as an explorable machine.

On top of FIFO channels (Section 5.1), two short circuits:

* **sender is owner** — the owner adds the receiver to its permanent
  dirty set *at send time*; the receiver makes no dirty call and sends
  no copy acknowledgement;
* **receiver is owner** — a reference going home needs no transient
  entry and no acknowledgement at all.

The section warns both tricks are racy unless *application* messages
are ordered with collector messages.  Exploring this machine shows the
warning **understates the problem**: even with full per-pair FIFO, the
literal §5.2.1 protocol (owner adds the permanent entry at send time,
receiver never acknowledges) is unsafe when the owner sends the same
reference to the same client twice — the client's clean call (channel
client→owner) races the second copy (channel owner→client), two
channels no FIFO discipline can order.  This is an instance of the
"parallel sending to the same destination" under-specification the
formalisation lists as weakness 3(d) of Birrell's presentation, and
the explorer derives the 6-step counterexample mechanically
(`test_literal_spec_unsafe_even_ordered`).

``repaired=True`` runs the sound refinement this suggests: an
owner-sent copy creates a *transient* entry and acts as an implicit
dirty call — the receiver acknowledges it (no dirty/dirty_ack round
trip), and the acknowledgement promotes the transient entry to the
permanent set.  With per-pair FIFO (clean and copy_ack share the
client→owner channel) the explorer verifies safety; with
``ordered=False`` it still finds the race, which is the ordering
requirement the paper *does* state.  Cost: 2 messages per
owner→client import/drop cycle instead of the paper's claimed 1 —
the price of closing the hole.

:class:`SeqnoOwnerOptMachine` (below) is the form the runtime ships
in protocol v7, which needs no ordering: the ack carries the
receiver's sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Tuple

from repro.model.variants.fifo import _fifo_pop, _fifo_send


@dataclass(frozen=True)
class OwnerOptConfiguration:
    """One reference owned by process 0; owner-optimised protocol."""

    nprocs: int
    ordered: bool = True       # FIFO per pair incl. application copies
    repaired: bool = False     # owner-sent copies acked (sound variant)
    usable: FrozenSet[int] = frozenset({0})
    dirty_unacked: FrozenSet[int] = frozenset()
    blocked: FrozenSet[Tuple[int, int, int]] = frozenset()
    copy_ack_todo: FrozenSet[Tuple[int, int, int]] = frozenset()
    tdirty: FrozenSet[Tuple[int, int, int]] = frozenset()
    pdirty: FrozenSet[int] = frozenset()
    reachable: FrozenSet[int] = frozenset({0})
    channels: Tuple = ()
    next_id: int = 1
    copies_left: int = 0

    def describe(self) -> str:
        return (
            f"owner-opt(ordered={self.ordered}, "
            f"usable={sorted(self.usable)}, pdirty={sorted(self.pdirty)}, "
            f"tdirty={sorted(self.tdirty)}, channels={self.channels})"
        )


def initial_owner_opt(nprocs: int = 3, copies_left: int = 3,
                      ordered: bool = True,
                      repaired: bool = False) -> OwnerOptConfiguration:
    """Initial owner-optimised configuration (see module docstring)."""
    return OwnerOptConfiguration(
        nprocs=nprocs, ordered=ordered, repaired=repaired,
        copies_left=copies_left,
    )


@dataclass(frozen=True)
class _Transition:
    kind: str
    params: Tuple

    @property
    def rule(self):
        return self

    @property
    def name(self) -> str:
        return self.kind

    def fire(self, config):
        return _fire(config, self.kind, self.params)

    def __str__(self) -> str:
        return f"{self.kind}{self.params}"


def _fire(config: OwnerOptConfiguration, kind, params):
    if kind == "make_copy":
        src, dst = params
        copy_id = config.next_id
        config = replace(
            config,
            next_id=copy_id + 1,
            copies_left=config.copies_left - 1,
        )
        if src == 0:
            if config.repaired:
                # Sound variant: transient entry until the receiver's
                # copy_ack, which then promotes it to the dirty set.
                config = replace(
                    config, tdirty=config.tdirty | {(src, dst, copy_id)}
                )
            else:
                # Literal §5.2.1: direct permanent entry, no ack.
                config = replace(config, pdirty=config.pdirty | {dst})
        elif dst != 0:
            config = replace(
                config, tdirty=config.tdirty | {(src, dst, copy_id)}
            )
        # Receiver-is-owner (dst == 0): no transient entry at all —
        # the owner's own table reaches the object.
        channels = _fifo_send(config.channels, src, dst, ("copy", copy_id))
        return replace(config, channels=channels)

    if kind == "deliver":
        src, dst, payload = params
        if config.ordered:
            head, channels = _fifo_pop(config.channels, src, dst)
            assert head == payload
        else:
            channels = _remove_any(config.channels, src, dst, payload)
        config = replace(config, channels=channels)
        return _deliver(config, src, dst, payload)

    if kind == "do_copy_ack":
        proc, copy_id, sender = params
        channels = _fifo_send(
            config.channels, proc, sender, ("copy_ack", copy_id)
        )
        return replace(
            config,
            copy_ack_todo=config.copy_ack_todo - {params},
            channels=channels,
        )

    if kind == "drop":
        (proc,) = params
        return replace(config, reachable=config.reachable - {proc})

    if kind == "finalize":
        (proc,) = params
        channels = _fifo_send(config.channels, proc, 0, ("clean",))
        return replace(
            config, usable=config.usable - {proc}, channels=channels
        )

    raise ValueError(kind)


def _remove_any(channels, src, dst, payload):
    """Unordered delivery: take ``payload`` from anywhere in the
    (src, dst) queue (models reordering between a pair)."""
    queues = dict(channels)
    queue = list(queues[(src, dst)])
    queue.remove(payload)
    if queue:
        queues[(src, dst)] = tuple(queue)
    else:
        del queues[(src, dst)]
    return tuple(sorted(queues.items()))


def _deliver(config, src, dst, payload):
    kind = payload[0]
    if kind == "copy":
        copy_id = payload[1]
        if dst == 0:
            # Home: no ack in this variant (sender made no entry)...
            # unless the sender was a client holding a transient
            # entry, which the copy_ack releases.
            if any(t == (src, dst, copy_id) for t in config.tdirty):
                return replace(
                    config,
                    copy_ack_todo=config.copy_ack_todo | {(dst, copy_id, src)},
                )
            return config
        if src == 0:
            # From the owner: usable immediately, no dirty call.
            config = replace(
                config,
                usable=config.usable | {dst},
                reachable=config.reachable | {dst},
            )
            if config.repaired:
                # ...but acknowledged, so the owner can promote its
                # transient entry to the permanent set.
                return replace(
                    config,
                    copy_ack_todo=config.copy_ack_todo | {(dst, copy_id, src)},
                )
            return config
        # Client-to-client copies use the plain FIFO-variant protocol.
        if dst in config.usable:
            if dst in config.dirty_unacked:
                return replace(
                    config,
                    blocked=config.blocked | {(dst, copy_id, src)},
                    reachable=config.reachable | {dst},
                )
            return replace(
                config,
                copy_ack_todo=config.copy_ack_todo | {(dst, copy_id, src)},
                reachable=config.reachable | {dst},
            )
        channels = _fifo_send(config.channels, dst, 0, ("dirty",))
        return replace(
            config,
            usable=config.usable | {dst},
            dirty_unacked=config.dirty_unacked | {dst},
            blocked=config.blocked | {(dst, copy_id, src)},
            reachable=config.reachable | {dst},
            channels=channels,
        )
    if kind == "dirty":
        channels = _fifo_send(config.channels, 0, src, ("dirty_ack",))
        return replace(
            config, pdirty=config.pdirty | {src}, channels=channels
        )
    if kind == "dirty_ack":
        released = {
            entry for entry in config.blocked if entry[0] == dst
        }
        return replace(
            config,
            dirty_unacked=config.dirty_unacked - {dst},
            blocked=config.blocked - released,
            copy_ack_todo=config.copy_ack_todo | released,
        )
    if kind == "clean":
        return replace(config, pdirty=config.pdirty - {src})
    if kind == "copy_ack":
        copy_id = payload[1]
        config = replace(
            config, tdirty=config.tdirty - {(dst, src, copy_id)}
        )
        if config.repaired and dst == 0:
            # The ack of an owner-sent copy doubles as the dirty call.
            config = replace(config, pdirty=config.pdirty | {src})
        return config
    raise ValueError(payload)


class OwnerOptMachine:
    """Duck-type compatible with the generic explorer."""
    def enabled(self, config: OwnerOptConfiguration) -> List[_Transition]:
        transitions = []
        if config.copies_left > 0:
            for src in config.usable:
                if src != 0 and src in config.dirty_unacked:
                    continue
                if src != 0 and src not in config.reachable:
                    continue
                for dst in range(config.nprocs):
                    if dst != src:
                        transitions.append(
                            _Transition("make_copy", (src, dst))
                        )
        for (src, dst), queue in config.channels:
            if not queue:
                continue
            if config.ordered:
                transitions.append(
                    _Transition("deliver", (src, dst, queue[0]))
                )
            else:
                for payload in dict.fromkeys(queue):
                    transitions.append(
                        _Transition("deliver", (src, dst, payload))
                    )
        for entry in config.copy_ack_todo:
            transitions.append(_Transition("do_copy_ack", entry))
        for proc in config.reachable:
            if proc != 0:
                transitions.append(_Transition("drop", (proc,)))
        for proc in config.usable:
            if proc == 0 or proc in config.reachable:
                continue
            if proc in config.dirty_unacked:
                continue
            if any(t[0] == proc for t in config.tdirty):
                continue
            if any(b[0] == proc for b in config.blocked):
                continue
            transitions.append(_Transition("finalize", (proc,)))
        return transitions


def owner_opt_violations(config: OwnerOptConfiguration) -> List[str]:
    """Safety: a process that finds the reference usable — or a copy
    in transit from the owner — implies the owner's tables protect the
    object (pdirty non-empty, counting the sender-side direct entry)."""
    remote_usable = any(proc != 0 for proc in config.usable)
    owner_copy_in_transit = any(
        payload[0] == "copy" and pair[0] == 0
        for pair, queue in config.channels
        for payload in queue
    )
    client_copy_in_transit = any(
        payload[0] == "copy" and pair[0] != 0
        for pair, queue in config.channels
        for payload in queue
    )
    if not (remote_usable or owner_copy_in_transit
            or client_copy_in_transit):
        return []
    owner_transients = any(t[0] == 0 for t in config.tdirty)
    if config.pdirty or (config.repaired and owner_transients):
        return []
    return [
        "OWNER-OPT-UNSAFE: remote reference alive "
        f"(usable={sorted(config.usable)}) but pdirty empty in "
        f"{config.describe()}"
    ]


# -- the runtime's protocol: registration by a seqno-carrying ack -------------
#
# The machine above abstracts sequence numbers away, and with them the
# repair's dependence on ordering.  The runtime (protocol v7) closes
# the §5.2.2 race with the seqnos instead: a client numbers every
# dirty call, clean call and registering ack from one counter that
# never restarts; the owner applies an operation only if its number
# exceeds the largest seen from that client (``seqnos``), and applies
# a registering ack as a dirty call with its number, dropping the
# transient entry in the same step.  Clean calls are acknowledged, and
# a copy that arrives while a clean is in flight parks (CCITNIL) and
# registers by an ordinary dirty call once the clean is acknowledged,
# exactly as in :mod:`repro.dgc.client`.  A clean call may be retried
# with the same seqno (the cleanup daemon retries on timeout), so a
# duplicate can still be in flight after its first copy was
# acknowledged.  Client-to-client copies keep the base protocol: dirty
# call, then a plain ack to the sender, whose surrogate stays pinned
# until then.  The owner's transient entry may also expire
# (``GcConfig.transient_ttl``): its receiver is then enrolled in the
# dirty set, since the receiver may count itself registered by an ack
# still in flight or lost.  The TTL is assumed to outlast the copy's
# delivery and processing, so an entry expires only once its copy is
# neither in flight nor waiting on a dirty call at the receiver; from
# then on the ack may take any time.  Expiry trades leak-freedom for
# safety, so the leak check only covers runs where none fired.


@dataclass(frozen=True)
class SeqnoOwnerOptConfiguration:
    """One reference owned by process 0; the runtime's v7 protocol.

    Per process (index 0 is the owner and unused): ``state`` is the
    client entry's RefState name, ``clock`` the last seqno it used.
    ``blocked`` holds received copies (proc, copy_id, sender) waiting
    for a registration; ``pins`` the client senders' transient pins
    (sender, receiver, copy_id); ``tdirty`` the owner's transient
    entries (receiver, copy_id).  ``dropped`` marks the owner's table
    entry gone — a later export would be a new wireRep, so it is final.
    ``expiries_left`` bounds the transient entries that may expire;
    ``expired`` records that one did.
    """

    nprocs: int
    ordered: bool = False
    restart_seqnos: bool = False
    forget_on_expiry: bool = False
    state: Tuple[str, ...] = ()
    clock: Tuple[int, ...] = ()
    reachable: FrozenSet[int] = frozenset()
    blocked: FrozenSet[Tuple[int, int, int]] = frozenset()
    pins: FrozenSet[Tuple[int, int, int]] = frozenset()
    tdirty: FrozenSet[Tuple[int, int]] = frozenset()
    pdirty: FrozenSet[int] = frozenset()
    seqnos: Tuple[int, ...] = ()
    dropped: bool = False
    channels: Tuple = ()
    next_id: int = 1
    copies_left: int = 0
    retries_left: int = 0
    expiries_left: int = 0
    expired: bool = False

    def describe(self) -> str:
        return (
            f"owner-opt-seqnos(state={self.state}, clock={self.clock}, "
            f"reachable={sorted(self.reachable)}, "
            f"pdirty={sorted(self.pdirty)}, seqnos={self.seqnos}, "
            f"tdirty={sorted(self.tdirty)}, dropped={self.dropped}, "
            f"channels={self.channels})"
        )


def initial_owner_opt_seqnos(
    nprocs: int = 3, copies_left: int = 3, ordered: bool = False,
    restart_seqnos: bool = False, retries_left: int = 1,
    expiries_left: int = 0, forget_on_expiry: bool = False,
) -> SeqnoOwnerOptConfiguration:
    """Initial configuration of the runtime's protocol.

    ``retries_left`` bounds the duplicate clean calls (retries) the
    network may carry, ``expiries_left`` the transient entries that
    may expire.  Two negative controls: with ``restart_seqnos`` a
    client restarts its numbering whenever a completed clean removes
    its entry, instead of drawing from one space-wide counter; with
    ``forget_on_expiry`` an expired transient entry is dropped without
    enrolling its receiver.
    """
    return SeqnoOwnerOptConfiguration(
        nprocs=nprocs, ordered=ordered, restart_seqnos=restart_seqnos,
        forget_on_expiry=forget_on_expiry,
        state=("OWNER",) + ("NONE",) * (nprocs - 1),
        clock=(0,) * nprocs, seqnos=(0,) * nprocs,
        copies_left=copies_left, retries_left=retries_left,
        expiries_left=expiries_left,
    )


def _set(values: Tuple, index: int, value) -> Tuple:
    return values[:index] + (value,) + values[index + 1:]


def _post(config, src: int, dst: int, payload: Tuple):
    """Send ``payload``; without ordering a queue is a bag, kept sorted
    so equal bags are equal states."""
    channels = _fifo_send(config.channels, src, dst, payload)
    if not config.ordered:
        channels = tuple(
            (pair, tuple(sorted(queue))) for pair, queue in channels
        )
    return replace(config, channels=channels)


def _tick(config, proc: int):
    """Claim ``proc``'s next seqno; returns (config, seqno)."""
    seqno = config.clock[proc] + 1
    return replace(config, clock=_set(config.clock, proc, seqno)), seqno


def _owner_register(config, proc: int, seqno: int):
    if seqno > config.seqnos[proc]:
        config = replace(config, seqnos=_set(config.seqnos, proc, seqno),
                         pdirty=config.pdirty | {proc})
    return config


def _maybe_drop(config):
    if not config.pdirty and not config.tdirty:
        return replace(config, dropped=True)
    return config


def _seqno_fire(config: SeqnoOwnerOptConfiguration, kind, params):
    if kind == "make_copy":
        src, dst = params
        copy_id = config.next_id
        config = replace(config, next_id=copy_id + 1,
                         copies_left=config.copies_left - 1)
        if src == 0:
            config = replace(config, tdirty=config.tdirty | {(dst, copy_id)})
        else:
            config = replace(config,
                             pins=config.pins | {(src, dst, copy_id)})
        return _post(config, src, dst, ("copy", copy_id))

    if kind == "deliver":
        src, dst, payload = params
        if config.ordered:
            head, channels = _fifo_pop(config.channels, src, dst)
            assert head == payload
        else:
            channels = _remove_any(config.channels, src, dst, payload)
        return _seqno_deliver(replace(config, channels=channels),
                              src, dst, payload)

    if kind == "drop":
        (proc,) = params
        return replace(config, reachable=config.reachable - {proc})

    if kind == "finalize":
        (proc,) = params
        config, seqno = _tick(config, proc)
        config = replace(config, state=_set(config.state, proc, "CCIT"))
        return _post(config, proc, 0, ("clean", seqno))

    if kind == "retry_clean":
        (proc,) = params
        config = replace(config, retries_left=config.retries_left - 1)
        return _post(config, proc, 0, ("clean", config.clock[proc]))

    if kind == "expire":
        receiver, copy_id = params
        config = replace(config, tdirty=config.tdirty - {params},
                         expiries_left=config.expiries_left - 1,
                         expired=True)
        if not config.forget_on_expiry:
            config = replace(config, pdirty=config.pdirty | {receiver})
        return _maybe_drop(config)

    raise ValueError(kind)


def _seqno_deliver(config, src: int, dst: int, payload: Tuple):
    kind = payload[0]
    if kind == "copy":
        copy_id = payload[1]
        if dst == 0:
            # A reference comes home: the owner acks the client's pin.
            return _post(config, 0, src, ("ack", copy_id, 0))
        state = config.state[dst]
        if state == "NONE" and src == 0:
            # Owner-sent, no usable entry: the ack registers.
            config, seqno = _tick(config, dst)
            config = replace(config, state=_set(config.state, dst, "OK"),
                             reachable=config.reachable | {dst})
            return _post(config, dst, 0, ("ack", copy_id, seqno))
        if state == "OK":
            config = replace(config, reachable=config.reachable | {dst})
            return _post(config, dst, src, ("ack", copy_id, 0))
        config = replace(config,
                         blocked=config.blocked | {(dst, copy_id, src)})
        if state == "NONE":
            config, seqno = _tick(config, dst)
            config = replace(config, state=_set(config.state, dst, "NIL"))
            return _post(config, dst, 0, ("dirty", seqno))
        if state in ("CCIT", "CCITNIL"):
            return replace(config, state=_set(config.state, dst, "CCITNIL"))
        return config  # NIL: wait for the dirty call in flight
    if kind == "dirty":
        if not config.dropped:
            config = _owner_register(config, src, payload[1])
        return _post(config, 0, src, ("dirty_ack",))
    if kind == "dirty_ack":
        released = {entry for entry in config.blocked if entry[0] == dst}
        config = replace(config, state=_set(config.state, dst, "OK"),
                         blocked=config.blocked - released,
                         reachable=config.reachable | {dst})
        for _proc, copy_id, sender in sorted(released):
            config = _post(config, dst, sender, ("ack", copy_id, 0))
        return config
    if kind == "clean":
        seqno = payload[1]
        if not config.dropped and seqno > config.seqnos[src]:
            config = replace(config,
                             seqnos=_set(config.seqnos, src, seqno),
                             pdirty=config.pdirty - {src})
            config = _maybe_drop(config)
        return _post(config, 0, src, ("clean_ack", seqno))
    if kind == "clean_ack":
        if (config.state[dst] not in ("CCIT", "CCITNIL")
                or payload[1] != config.clock[dst]):
            return config  # a retry's second ack, or an earlier life's
        if config.state[dst] == "CCITNIL":
            config, seqno = _tick(config, dst)
            config = replace(config, state=_set(config.state, dst, "NIL"))
            return _post(config, dst, 0, ("dirty", seqno))
        config = replace(config, state=_set(config.state, dst, "NONE"))
        if config.restart_seqnos:
            config = replace(config, clock=_set(config.clock, dst, 0))
        return config
    if kind == "ack":
        copy_id, seqno = payload[1], payload[2]
        if dst != 0:
            return replace(config, pins=config.pins - {(dst, src, copy_id)})
        if config.dropped:
            return config
        if seqno:
            config = _owner_register(config, src, seqno)
        config = replace(config, tdirty=config.tdirty - {(src, copy_id)})
        return _maybe_drop(config)
    raise ValueError(payload)


def _copy_pending(config, receiver: int, copy_id: int) -> bool:
    """Whether the owner's copy ``copy_id`` to ``receiver`` is still in
    flight or waiting at the receiver for a dirty call."""
    if (receiver, copy_id, 0) in config.blocked:
        return True
    return any(pair == (0, receiver) and ("copy", copy_id) in queue
               for pair, queue in config.channels)


@dataclass(frozen=True)
class _SeqnoTransition(_Transition):
    def fire(self, config):
        return _seqno_fire(config, self.kind, self.params)


class SeqnoOwnerOptMachine:
    """Duck-type compatible with the generic explorer."""

    def enabled(self, config: SeqnoOwnerOptConfiguration
                ) -> List[_SeqnoTransition]:
        transitions = []
        if config.copies_left > 0:
            senders = [proc for proc in config.reachable
                       if config.state[proc] == "OK"]
            if not config.dropped:
                senders.append(0)
            for src in senders:
                for dst in range(config.nprocs):
                    if dst != src:
                        transitions.append(
                            _SeqnoTransition("make_copy", (src, dst)))
        for (src, dst), queue in config.channels:
            payloads = queue[:1] if config.ordered else dict.fromkeys(queue)
            for payload in payloads:
                transitions.append(
                    _SeqnoTransition("deliver", (src, dst, payload)))
        for proc in config.reachable:
            transitions.append(_SeqnoTransition("drop", (proc,)))
        if config.expiries_left and not config.dropped:
            for receiver, copy_id in sorted(config.tdirty):
                if not _copy_pending(config, receiver, copy_id):
                    transitions.append(_SeqnoTransition(
                        "expire", (receiver, copy_id)))
        for proc in range(1, config.nprocs):
            if config.retries_left and \
                    config.state[proc] in ("CCIT", "CCITNIL"):
                transitions.append(_SeqnoTransition("retry_clean", (proc,)))
            if (config.state[proc] == "OK"
                    and proc not in config.reachable
                    and not any(pin[0] == proc for pin in config.pins)
                    and not any(b[0] == proc for b in config.blocked)):
                transitions.append(_SeqnoTransition("finalize", (proc,)))
        return transitions


def owner_opt_seqno_violations(config: SeqnoOwnerOptConfiguration
                               ) -> List[str]:
    """Safety: once the owner's entry is dropped, no client holds a
    surrogate, waits on a received copy, or has a copy in flight.
    Leak-freedom: once no client holds or waits on anything and no
    message is in flight, the owner's dirty tables are empty — unless
    a transient entry expired, which may enroll a receiver for good."""
    copy_in_flight = any(
        payload[0] == "copy"
        for _pair, queue in config.channels for payload in queue
    )
    if config.dropped and (config.reachable or config.blocked
                           or copy_in_flight):
        return [
            "OWNER-OPT-SEQNO-UNSAFE: object reclaimed while referenced "
            f"in {config.describe()}"
        ]
    settled = (not config.channels and not config.reachable
               and not config.blocked and not config.pins
               and all(state == "NONE" for state in config.state[1:]))
    if settled and not config.expired and (config.pdirty or config.tdirty):
        return [
            f"OWNER-OPT-SEQNO-LEAK: dirty set {sorted(config.pdirty)} / "
            f"transients {sorted(config.tdirty)} survive quiescence in "
            f"{config.describe()}"
        ]
    return []
