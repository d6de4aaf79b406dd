"""Batched collector traffic: CLEAN_BATCH frames, version negotiation,
resurrected entries, and the pipelined dirty prefetch."""

import gc
from types import SimpleNamespace

import repro
from repro.core.netobj import NetObj
from repro.dgc.config import GcConfig
from repro.dgc.daemon import CleanupDaemon

from tests.helpers import settle, wait_until


class Factory(NetObj):
    """Mints fresh network objects so a single reply carries many
    references (exercising both prefetch and batched cleans)."""

    def make(self, count: int):
        return [Token() for _ in range(count)]


class Token(NetObj):
    def ping(self) -> str:
        return "pong"


def _pair(name, client_kwargs=None):
    server = repro.Space(f"srv-{name}")
    endpoint = server.add_listener(f"inproc://gcbatch-{name}")
    server.serve("factory", Factory())
    client = repro.Space(f"cli-{name}", **(client_kwargs or {}))
    return server, client, endpoint


class TestCleanBatching:
    def test_mass_reclamation_uses_batch_frames(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            tokens = factory.make(40)
            assert [t.ping() for t in tokens] == ["pong"] * 40
            exported = server.stats()["gc"]["exported"]
            assert exported >= 41  # 40 tokens + the factory
            del tokens
            gc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            stats = client.stats()["gc"]
            assert stats["clean_batches_sent"] >= 1
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported - 40
            )

    def test_v2_peer_interop_without_batches(self, request):
        server, client, endpoint = _pair(
            request.node.name, client_kwargs={"protocol_version": 2}
        )
        with server, client:
            factory = client.import_object(endpoint, "factory")
            connection = client.cache.get(endpoint)
            assert connection.version == 2
            tokens = factory.make(20)
            assert [t.ping() for t in tokens] == ["pong"] * 20
            exported = server.stats()["gc"]["exported"]
            del tokens
            gc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            # Everything reclaimed, but strictly over unit CLEAN frames.
            assert client.stats()["gc"]["clean_batches_sent"] == 0
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported - 20
            )

    def test_live_entries_cancel_out_of_batches(self, request):
        """A queue item whose entry is alive again (resurrected or
        never collected) must drop out at begin_clean, even when it
        rides the same drained batch as genuine cleans."""
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            tokens = factory.make(10)
            keep = tokens[:3]
            exported = server.stats()["gc"]["exported"]
            del tokens
            gc.collect()
            # Poison the queue with the still-live references; the
            # daemon must claim only the genuinely dead ones.
            for token in keep:
                client.cleanup_daemon.enqueue(token._wirerep)
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            assert [t.ping() for t in keep] == ["pong"] * 3
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported - 7
            )


class _FakeClient:
    """Scripted DgcClient for deterministic daemon batching tests."""

    def __init__(self, claims):
        self.claims = claims
        self.batches = []
        self.units = []
        self.finished = []

    def attach_daemon(self, daemon):
        pass

    def begin_clean(self, wirerep):
        return self.claims[wirerep]

    def send_clean_batch(self, endpoints, claims):
        self.batches.append((endpoints, list(claims)))

    def send_clean(self, entry, seqno, strong):
        self.units.append((entry, seqno, strong))

    def finish_clean(self, entry, delivered):
        self.finished.append((entry, delivered))


class TestDaemonBatching:
    def _daemon(self, fake):
        return CleanupDaemon(fake, GcConfig(), name="t-gc-batch")

    def test_batch_excludes_cancelled_claims_and_groups_by_owner(self):
        entry_a = SimpleNamespace(endpoints=("e://owner-1",))
        entry_b = SimpleNamespace(endpoints=("e://owner-1",))
        entry_c = SimpleNamespace(endpoints=("e://owner-2",))
        fake = _FakeClient({
            "w-a": (entry_a, 5, False),
            "w-resurrected": None,  # cancelled between enqueue and drain
            "w-b": (entry_b, 9, True),
            "w-c": (entry_c, 2, False),
        })
        daemon = self._daemon(fake)
        try:
            daemon._process_batch(["w-a", "w-resurrected", "w-b", "w-c"])
        finally:
            daemon.stop()
        # Owner 1 got one batch of two; owner 2's singleton stayed a
        # unit clean; the cancelled claim appears nowhere.
        assert fake.batches == [
            (("e://owner-1",), [(entry_a, 5, False), (entry_b, 9, True)])
        ]
        assert fake.units == [(entry_c, 2, False)]
        assert sorted(fake.finished, key=lambda pair: id(pair[0])) == sorted(
            [(entry_a, True), (entry_b, True), (entry_c, True)],
            key=lambda pair: id(pair[0]),
        )

    def test_all_claims_cancelled_sends_nothing(self):
        fake = _FakeClient({"w-1": None, "w-2": None})
        daemon = self._daemon(fake)
        try:
            daemon._process_batch(["w-1", "w-2"])
        finally:
            daemon.stop()
        assert fake.batches == []
        assert fake.units == []
        assert fake.finished == []


class Relay(NetObj):
    """Holds surrogates minted elsewhere and hands them on — a
    third-party sender, whose copies still need dirty calls."""

    def __init__(self):
        self.held = []

    def fetch(self):
        return self.held


class TestDirtyPrefetch:
    def test_multi_ref_reply_pipelines_dirty_calls(self, request):
        name = request.node.name
        server, client, endpoint = _pair(name)
        relay_space = repro.Space(f"relay-{name}")
        relay_endpoint = relay_space.add_listener(f"inproc://relay-{name}")
        relay = Relay()
        relay_space.serve("relay", relay)
        with server, client, relay_space:
            factory = relay_space.import_object(endpoint, "factory")
            relay.held = factory.make(25)
            relay_at_client = client.import_object(relay_endpoint, "relay")
            before = client.stats()["gc"]["dirty_calls_sent"]
            tokens = relay_at_client.fetch()
            after = client.stats()["gc"]["dirty_calls_sent"]
            # One dirty call per new third-party reference — the
            # prefetch must not duplicate the sequential decode's
            # registration.
            assert after - before == 25
            assert [t.ping() for t in tokens] == ["pong"] * 25
            assert client.stats()["gc"]["ref_entries"] >= 25

    def test_owner_sent_multi_ref_reply_needs_no_dirty_calls(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            before = client.stats()["gc"]["dirty_calls_sent"]
            tokens = factory.make(25)
            assert client.stats()["gc"]["dirty_calls_sent"] == before
            assert client.stats()["gc"]["ack_registrations_sent"] >= 25
            assert [t.ping() for t in tokens] == ["pong"] * 25
