"""Variant collectors and baselines.

* :mod:`naive` — naive distributed reference counting, whose
  increment/decrement race the explorer finds mechanically (the
  motivating bug of Section 2.2);
* :mod:`owner_opt` — the Section-5.2 owner optimisations: the literal
  protocol, its ack-promoting repair, and the runtime's protocol-v7
  form with seqno-carrying acks over unordered channels;
* :mod:`fifo` — the Section-5.1 variant over FIFO channels: no
  blocking deserialisation, no clean acknowledgements, two receive
  states;
* :mod:`counting` — sequential cost models of the owner
  optimisations (Section 5.2) and of the related algorithms the paper
  compares against (Lermen–Maurer, Weighted RC, Indirect RC), used by
  the E4 message-overhead benchmark;
* :mod:`leased` — the protocol-v4 read-lease layer over the dirty
  sets: grant/invalidate/expire/CLEAN/crash interleavings, checking
  staleness, the lease ⊆ pdirty invariant, and leak-freedom.
"""

from repro.model.variants.naive import (
    NaiveConfiguration,
    NaiveMachine,
    initial_naive,
    naive_violations,
)
from repro.model.variants.fifo import (
    FifoConfiguration,
    FifoMachine,
    fifo_violations,
    initial_fifo,
)
from repro.model.variants.faulty import (
    FaultyConfiguration,
    FaultyMachine,
    faulty_leak_violations,
    faulty_safety_violations,
    initial_faulty,
)
from repro.model.variants.owner_opt import (
    OwnerOptConfiguration,
    OwnerOptMachine,
    SeqnoOwnerOptConfiguration,
    SeqnoOwnerOptMachine,
    initial_owner_opt,
    initial_owner_opt_seqnos,
    owner_opt_seqno_violations,
    owner_opt_violations,
)
from repro.model.variants.leased import (
    LeasedConfiguration,
    LeasedMachine,
    initial_leased,
    leased_violations,
)
from repro.model.variants.counting import (
    BirrellCounting,
    BirrellFifoCounting,
    BirrellOwnerOptCounting,
    CountingModel,
    IndirectRC,
    LermenMaurer,
    WeightedRC,
    all_models,
)

__all__ = [
    "BirrellCounting",
    "BirrellFifoCounting",
    "BirrellOwnerOptCounting",
    "CountingModel",
    "FaultyConfiguration",
    "FaultyMachine",
    "FifoConfiguration",
    "FifoMachine",
    "faulty_leak_violations",
    "faulty_safety_violations",
    "initial_faulty",
    "IndirectRC",
    "LeasedConfiguration",
    "LeasedMachine",
    "initial_leased",
    "leased_violations",
    "LermenMaurer",
    "NaiveConfiguration",
    "NaiveMachine",
    "OwnerOptConfiguration",
    "OwnerOptMachine",
    "SeqnoOwnerOptConfiguration",
    "SeqnoOwnerOptMachine",
    "WeightedRC",
    "initial_owner_opt",
    "initial_owner_opt_seqnos",
    "owner_opt_seqno_violations",
    "owner_opt_violations",
    "all_models",
    "fifo_violations",
    "initial_fifo",
    "initial_naive",
    "naive_violations",
]
