"""Mechanised analysis of the owner optimisations (Section 5.2).

Three results, each derived by exhaustive exploration:

1. the *literal* §5.2.1 protocol (owner adds the permanent entry at
   send time, no acknowledgement) is unsafe **even with full per-pair
   FIFO**, via parallel sends of the same reference to the same
   client — an instance of under-specification 3(d) the formalisation
   charges Birrell's presentation with;
2. the repaired variant (owner-sent copies are acknowledged; the ack
   promotes a transient entry to the dirty set) is safe under
   per-pair FIFO, at a cost of one extra message per cycle;
3. without ordering, the repaired variant still exhibits exactly the
   clean-overtakes-copy race §5.2.2 warns about, confirming the
   paper's stated ordering requirement is the binding one;
4. the runtime's protocol v7 — the ack carries the receiver's next
   seqno and is applied as a dirty call with it, every client
   numbers from one never-restarting counter — is safe and leak-free
   *without* ordering, and restarting the numbers per entry breaks it;
   with transient entries expiring (``transient_ttl``) it stays safe
   only because expiry enrolls the receiver — forgetting the entry
   reclaims an object whose registering ack is still in flight.
"""

import pytest

from repro.model.explorer import explore
from repro.model.variants import (
    OwnerOptMachine,
    SeqnoOwnerOptMachine,
    initial_owner_opt,
    initial_owner_opt_seqnos,
    owner_opt_seqno_violations,
    owner_opt_violations,
)


def run(nprocs, copies, ordered, repaired, keep_traces=False):
    return explore(
        initial_owner_opt(nprocs=nprocs, copies_left=copies,
                          ordered=ordered, repaired=repaired),
        machine=OwnerOptMachine(),
        checker=owner_opt_violations,
        keep_traces=keep_traces,
        max_states=3_000_000,
    )


class TestLiteralSpec:
    def test_literal_spec_unsafe_even_ordered(self):
        """Result 1: FIFO does not save the as-described §5.2.1."""
        result = run(2, 2, ordered=True, repaired=False, keep_traces=True)
        assert not result.ok
        trace = result.violations[0].trace
        names = [step.split("(")[0] for step in trace]
        # The counterexample is two owner sends racing one clean.
        assert names.count("make_copy") == 2
        assert "finalize" in names

    def test_literal_spec_needs_two_sends(self):
        """With a single copy ever sent, the literal spec holds —
        the race needs the duplicate send."""
        result = run(2, 1, ordered=True, repaired=False)
        assert result.ok


class TestRepairedVariant:
    @pytest.mark.parametrize(
        "nprocs,copies", [(2, 2), (2, 3), (3, 2), (3, 3)]
    )
    def test_safe_with_fifo(self, nprocs, copies):
        """Result 2: ack-promoting owner sends + per-pair FIFO."""
        result = run(nprocs, copies, ordered=True, repaired=True)
        assert result.ok, result.violations[0].messages
        assert result.quiescent_states >= 1

    def test_unsafe_without_ordering(self):
        """Result 3: drop the ordering and the §5.2.2 race appears —
        a clean overtakes a copy on the client→owner path."""
        result = run(2, 2, ordered=False, repaired=True, keep_traces=True)
        assert not result.ok
        names = [
            step.split("(")[0] for step in result.violations[0].trace
        ]
        assert "finalize" in names

    def test_full_cleanup_reachable(self):
        result = run(2, 2, ordered=True, repaired=True)
        assert result.quiescent_states >= 1


class TestCosts:
    def test_repaired_cycle_costs_two_messages(self):
        """Owner→client import + drop under the repaired variant:
        copy_ack + clean (vs the paper's claimed clean-only, which the
        literal-spec counterexample shows is unsound)."""
        from repro.dgc.states import RefState  # noqa: F401 (doc import)

        machine = OwnerOptMachine()
        config = initial_owner_opt(nprocs=2, copies_left=1, repaired=True)
        gc_messages = 0

        def fire(kind, params):
            nonlocal config, gc_messages
            matches = [
                t for t in machine.enabled(config)
                if t.kind == kind and t.params == params
            ]
            assert matches, f"{kind}{params} not enabled"
            config = matches[0].fire(config)

        fire("make_copy", (0, 1))
        fire("deliver", (0, 1, ("copy", 1)))
        fire("do_copy_ack", (1, 1, 0))
        gc_messages += 1  # the copy_ack
        fire("deliver", (1, 0, ("copy_ack", 1)))
        assert 1 in config.pdirty  # promoted by the ack
        fire("drop", (1,))
        fire("finalize", (1,))
        gc_messages += 1  # the clean
        fire("deliver", (1, 0, ("clean",)))
        assert not config.pdirty
        assert not config.tdirty
        assert gc_messages == 2


def run_seqnos(nprocs, copies, **kwargs):
    return explore(
        initial_owner_opt_seqnos(nprocs=nprocs, copies_left=copies,
                                 **kwargs),
        machine=SeqnoOwnerOptMachine(),
        checker=owner_opt_seqno_violations,
        keep_traces=True,
        max_states=3_000_000,
    )


class TestRuntimeProtocol:
    """Result 4: what the runtime ships (registration by a
    seqno-carrying copy ack), over unordered channels with retried
    cleans."""

    @pytest.mark.parametrize("nprocs,copies", [(2, 2), (3, 2), (3, 3)])
    def test_safe_and_leak_free_unordered(self, nprocs, copies):
        result = run_seqnos(nprocs, copies, ordered=False)
        assert result.ok, result.violations[0].messages
        assert result.quiescent_states >= 1
        # Every message kind of the protocol actually fired.
        assert result.rule_counts["retry_clean"] > 0
        assert result.rule_counts["finalize"] > 0

    def test_safe_with_fifo_too(self):
        assert run_seqnos(3, 2, ordered=True).ok

    def test_reimport_after_completed_clean_is_explored(self):
        """A client that finished a clean receives the object again
        while the owner still remembers its last seqno."""
        machine = SeqnoOwnerOptMachine()
        config = initial_owner_opt_seqnos(nprocs=2, copies_left=2)

        def fire(kind, params):
            nonlocal config
            matches = [t for t in machine.enabled(config)
                       if t.kind == kind and t.params == params]
            assert matches, f"{kind}{params} not enabled"
            config = matches[0].fire(config)

        fire("make_copy", (0, 1))
        fire("make_copy", (0, 1))              # keeps it exported
        fire("deliver", (0, 1, ("copy", 1)))
        fire("deliver", (1, 0, ("ack", 1, 1)))
        fire("drop", (1,))
        fire("finalize", (1,))
        fire("deliver", (1, 0, ("clean", 2)))
        fire("deliver", (0, 1, ("clean_ack", 2)))
        assert config.state[1] == "NONE" and config.seqnos[1] == 2
        fire("deliver", (0, 1, ("copy", 2)))
        fire("deliver", (1, 0, ("ack", 2, 3)))  # 3 > 2: registers
        assert config.pdirty == {1} and not config.dropped
        assert owner_opt_seqno_violations(config) == []

    def test_restarted_seqnos_reclaim_early(self):
        """Negative control: numbering each entry from 1 again lets a
        re-import's ack look stale, and the owner reclaims an object
        the client holds."""
        result = run_seqnos(3, 3, ordered=False, restart_seqnos=True)
        assert not result.ok
        assert "UNSAFE" in result.violations[0].messages[0]
        names = [step.split("(")[0] for step in result.violations[0].trace]
        assert "finalize" in names and names.count("make_copy") >= 2

    def test_owner_sent_cycle_costs_three_messages(self):
        """Owner→client import + drop: copy_ack, clean, clean_ack —
        the dirty/dirty_ack round trip is gone."""
        machine = SeqnoOwnerOptMachine()
        config = initial_owner_opt_seqnos(nprocs=2, copies_left=1,
                                          retries_left=0)
        gc_messages = []
        while True:
            enabled = [t for t in machine.enabled(config)
                       if t.kind != "make_copy" or not gc_messages]
            if not enabled:
                break
            transition = enabled[0]
            if transition.kind == "deliver" and \
                    transition.params[2][0] != "copy":
                gc_messages.append(transition.params[2][0])
            config = transition.fire(config)
        assert sorted(gc_messages) == ["ack", "clean", "clean_ack"]
        assert config.dropped


class TestTransientExpiry:
    """Result 4, with the owner's transient entries expiring."""

    def test_expiry_enrolling_the_receiver_is_safe(self):
        result = run_seqnos(3, 2, ordered=False, expiries_left=2)
        assert result.ok, result.violations[0].messages
        assert result.rule_counts["expire"] > 0

    def test_expiry_forgetting_the_entry_reclaims_early(self):
        """Negative control: the receiver counts itself registered by
        an ack that has not arrived, and the owner drops the object."""
        result = run_seqnos(2, 1, ordered=False, expiries_left=1,
                            forget_on_expiry=True)
        assert not result.ok
        assert "UNSAFE" in result.violations[0].messages[0]
        names = [step.split("(")[0] for step in result.violations[0].trace]
        assert "expire" in names

    def test_late_ack_after_expiry(self):
        """The ack arrives after expiry enrolled its sender: the
        object stays exported until the receiver's clean."""
        machine = SeqnoOwnerOptMachine()
        config = initial_owner_opt_seqnos(nprocs=2, copies_left=1,
                                          expiries_left=1)

        def fire(kind, params):
            nonlocal config
            matches = [t for t in machine.enabled(config)
                       if t.kind == kind and t.params == params]
            assert matches, f"{kind}{params} not enabled"
            config = matches[0].fire(config)

        fire("make_copy", (0, 1))
        assert not [t for t in machine.enabled(config)
                    if t.kind == "expire"]      # the copy is in flight
        fire("deliver", (0, 1, ("copy", 1)))
        fire("expire", (1, 1))
        assert config.pdirty == {1} and not config.tdirty
        fire("deliver", (1, 0, ("ack", 1, 1)))
        assert config.pdirty == {1} and config.seqnos[1] == 1
        fire("drop", (1,))
        fire("finalize", (1,))
        fire("deliver", (1, 0, ("clean", 2)))
        assert config.dropped
        assert owner_opt_seqno_violations(config) == []
