"""The full runtime over the simulated network: latency, jitter,
reordering and GC-under-churn.

The simulated transport delivers frames through the event scheduler,
so these tests exercise the threaded runtime under conditions loopback
TCP never produces: multi-millisecond delays, jittered (reordered)
delivery, and deterministic loss.
"""

import gc as pygc
import threading
import weakref

import pytest

from repro import GcConfig, NetObj, Space
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport
from tests.helpers import wait_until


class Vault(NetObj):
    def __init__(self):
        self.issued = []

    def issue(self):
        token = Token()
        self.issued.append(weakref.ref(token))
        return token

    def live(self) -> int:
        pygc.collect()
        return sum(1 for ref in self.issued if ref() is not None)


class Token(NetObj):
    def poke(self) -> bool:
        return True


def sim_spaces(model: NetworkModel, names=("owner", "client")):
    transport = SimTransport(model)
    spaces = [
        Space(name, listen=[f"sim://{name}"], transports=[transport],
              gc=GcConfig(gc_call_timeout=5.0, clean_retry_interval=0.02))
        for name in names
    ]
    return transport, spaces


def record_copy_acks(transport):
    """Decode every COPY_ACK the simulated network carries."""
    from repro.rpc import messages
    from repro.wire import protocol

    acks = []
    network = transport.network
    send = network.send

    def recording_send(src, dst, payload, deliver):
        if payload and payload[0] == protocol.COPY_ACK:
            acks.append(messages.decode(bytes(payload)))
        send(src, dst, payload, deliver)

    network.send = recording_send
    return acks


class TestBasicOverSim:
    def test_calls_work_with_latency(self):
        transport, (server, client) = sim_spaces(NetworkModel(latency=0.002))
        try:
            server.serve("vault", Vault())
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_virtual_time_advances_per_call(self):
        transport, (server, client) = sim_spaces(NetworkModel(latency=0.01))
        try:
            server.serve("vault", Vault())
            vault = client.import_object("sim://owner", "vault")
            before = transport.clock.now()
            vault.live()
            after = transport.clock.now()
            # One request + one reply = at least 2 one-way latencies
            # (tolerance for float accumulation in the virtual clock).
            assert after - before >= 0.02 - 1e-9
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()


class TestGcUnderJitter:
    """Jitter + non-FIFO delivery: the conditions under which message
    reordering happens and the ccitnil machinery earns its keep."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_churn_with_reordering(self, seed):
        model = NetworkModel(latency=0.001, jitter=0.005, seed=seed)
        transport, (server, client) = sim_spaces(model)
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            for _ in range(10):
                token = vault.issue()
                assert token.poke()
                del token
                pygc.collect()
            assert wait_until(lambda: vault_impl.live() == 0, timeout=15)
            stats = server.stats()["gc"]
            assert stats["objects_dropped"] >= 10
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_concurrent_churn_two_clients(self):
        model = NetworkModel(latency=0.001, jitter=0.003, seed=3)
        transport, (server, c1, c2) = sim_spaces(
            model, names=("owner", "c1", "c2")
        )
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            errors = []

            def churn(space):
                try:
                    vault = space.import_object("sim://owner", "vault")
                    for _ in range(8):
                        token = vault.issue()
                        assert token.poke()
                        del token
                        pygc.collect()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(space,))
                for space in (c1, c2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert wait_until(lambda: vault_impl.live() == 0, timeout=20)
        finally:
            c2.shutdown()
            c1.shutdown()
            server.shutdown()
            transport.shutdown()


class TestWireAccounting:
    def test_gc_traffic_observable(self):
        from repro.wire import protocol

        transport, (server, client) = sim_spaces(
            NetworkModel(latency=0.0005)
        )
        try:
            acks = record_copy_acks(transport)
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
            del token
            pygc.collect()
            assert wait_until(lambda: vault_impl.live() == 0)
            tags = transport.stats.by_tag
            # The bootstrap copy (copy id 0) still makes a dirty call;
            # the owner-sent token registers through its copy ack.
            assert tags.get(protocol.DIRTY, 0) == 1
            assert tags.get(protocol.CLEAN, 0) >= 1
            assert tags.get(protocol.COPY_ACK, 0) >= 1
            assert sum(1 for ack in acks if ack.seqno) >= 1
            # v5 moved steady-state invocations onto the bound-call
            # frames; the call family together is still observable.
            calls = sum(tags.get(tag, 0) for tag in (
                protocol.CALL, protocol.CALL_BIND,
                protocol.CALL_BOUND, protocol.CALL_FAST,
            ))
            assert calls >= 2                             # issue + poke
            # The bootstrap ``get`` itself rides the lease layer now.
            assert tags.get(protocol.LEASE_REQ, 0) >= 1
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()


class TestRegistrationByCopyAck:
    """Protocol v7's registering copy ack under reordering and loss:
    the owner's transient entry covers the object until the ack (or a
    later clean) settles it, so neither ever reclaims early."""

    def test_clean_overtaking_its_copy_ack_never_reclaims_early(self):
        from repro.rpc import messages
        from repro.wire import protocol

        transport, (server, client) = sim_spaces(
            NetworkModel(latency=0.0005)
        )
        network = transport.network
        send = network.send
        held = []
        holding = threading.Event()

        def reordering_send(src, dst, payload, deliver):
            # Park every registering COPY_ACK while ``holding`` is set:
            # the CLEAN sent after it overtakes it on the wire.
            if holding.is_set() and payload and \
                    payload[0] == protocol.COPY_ACK and \
                    messages.decode(bytes(payload)).seqno:
                held.append((src, dst, payload, deliver))
                return
            send(src, dst, payload, deliver)

        network.send = reordering_send
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            holding.set()
            token = vault.issue()
            assert token.poke()
            assert len(held) == 1
            del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            assert wait_until(
                lambda: server.gc_stats()["clean_calls_seen"] >= 1)
            # The clean was applied before the ack; the transient entry
            # still protects the token.
            assert vault_impl.live() == 1
            stale = server.dgc_owner.stale_calls_ignored
            holding.clear()
            for parked in held:
                send(*parked)
            # The late ack's seqno is older than the clean's: it only
            # releases the transient entry.
            assert wait_until(lambda: vault_impl.live() == 0, timeout=10)
            assert server.dgc_owner.stale_calls_ignored == stale + 1
        finally:
            network.send = send
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_connection_lost_with_the_copy_ack_never_reclaims_early(self):
        from repro.wire import protocol

        gc_config = GcConfig(gc_call_timeout=5.0, clean_retry_interval=0.02,
                             transient_ttl=0.3, transient_sweep_interval=0.05)
        transport = SimTransport(NetworkModel(
            latency=0.0005, drop_probability=1.0,
            drop_tags=frozenset({protocol.COPY_ACK}),
        ))
        server, client = (
            Space(name, listen=[f"sim://{name}"], transports=[transport],
                  gc=gc_config)
            for name in ("owner", "client")
        )
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()     # its registering ack is lost...
            connection = client.connection_to(server.space_id)
            connection.close()        # ...with the connection
            assert wait_until(lambda: server.transient.expired_total >= 1)
            index = token._wirerep.index
            # Expiry enrolled the receiver instead of releasing the pin.
            assert server.dgc_owner.dirty_set(index) == {client.space_id}
            pygc.collect()
            assert vault_impl.live() == 1
            assert token.poke()
            del token
            pygc.collect()
            assert wait_until(lambda: vault_impl.live() == 0, timeout=10)
            assert vault.live() == 0
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()
