"""Set consensus service: agree on which proposed sets form an epoch.

The decider is a deterministic harness component rather than an embedded
consensus protocol, which gives the contract by construction: per
instance ``h`` it collects proposals (one counted per proposer), and
``decision_cost`` ticks after the deadline, once instance ``h - 1`` is
decided, it fixes the decision as a map from proposer to proposal.  The
deadline is ``max(first correct proposal's arrival + WINDOW, gst)``.  If
every registered member's proposal (Byzantine ones included) is in at a
tick ``t`` before then, nothing more can join the decision, so the
deadline moves up to ``max(t, gst)``: the service decides at the speed
of the network rather than the timer, and the decision holds the same
entries.  A correct proposer's entry is included iff its proposal arrived
by the deadline; entries from Byzantine proposers are included whenever
they arrived before the decision.  A proposer is correct when its
``ProcessId.kind`` is ``CORRECT_SERVER``: the service reads the role
from the pid alone.  Only a correct proposal opens the window, so a
Byzantine proposer that proposes early cannot close it before the
correct proposals arrive.  After ``gst`` a correct proposal is
included whenever it is made at most ``WINDOW`` minus the network's delay
bound after the first correct one.  Every registered process then
receives the identical decision via its set-deliver callback after a
network-like delay, in instance order with no reorder buffer: instances
are decided in order, each member's copies are scheduled at
non-decreasing ticks, and same-tick events run in the order they were
scheduled.

A proposal is a :class:`wire.Proposal` that the service does not look
inside: a setchain server names the add batches it delivered by the
32-byte digest of their broadcast payload, and the adds still in its
batching buffer by value; a Byzantine one may name any digests and any
elements.  Proposals also fan out as notice frames to every other process
(``wire.encode_inform``), so an adversary can harvest what correct
servers proposed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ProcessId, ProcessKind
from .simnet import SimTime, Simulation, Timer
from .wire import Proposal, encode_inform

Propset = dict[ProcessId, Proposal]  # proposer -> what it proposed

WINDOW = 50  # ticks from an instance's first correct proposal to its deadline


@dataclass(frozen=True)
class SbcConfig:
    """Extra decision latency after the deadline."""

    decision_cost: int = 0

    def __post_init__(self) -> None:
        if self.decision_cost < 0:
            raise ValueError("decision_cost must be non-negative")


@dataclass
class _Arrival:
    proposal: Proposal
    arrived_at: SimTime


@dataclass
class _Instance:
    proposals: dict[ProcessId, _Arrival] = field(default_factory=dict)
    deadline: Optional[SimTime] = None  # set by the first correct arrival
    timer: Optional[Timer] = None  # the pending _try_decide at the deadline
    deferred: bool = False


@dataclass
class Decision:
    h: int
    propset: Propset
    decided_at: SimTime


class ConsensusService:
    """Shared decider for all consensus instances of one run."""

    def __init__(
        self,
        sim: Simulation,
        config: SbcConfig = SbcConfig(),
        on_propose: Optional[Callable[[int, Proposal, ProcessId], None]] = None,
    ):
        self.sim = sim
        self.config = config
        self.rng = random.Random(f"{sim.config.rng_seed}:sbc")
        self.on_propose = on_propose
        self._members: dict[ProcessId, Callable[[int, Propset], None]] = {}
        self._instances: dict[int, _Instance] = {}
        self.decisions: dict[int, Decision] = {}
        self._last: dict[ProcessId, SimTime] = {}  # latest delivery tick per member

    def register(self, pid: ProcessId,
                 on_set_deliver: Callable[[int, Propset], None]) -> None:
        if pid in self._members:
            raise ValueError(f"duplicate consensus registration for {pid!r}")
        self._members[pid] = on_set_deliver
        self._last[pid] = 0

    # -- proposing ----------------------------------------------------------

    def propose(self, h: int, proposal: Proposal, by: ProcessId) -> None:
        """Register a proposal for instance ``h`` and notify the other processes."""
        if h < 1:
            raise ValueError("instances are numbered from 1")
        if by not in self._members:
            raise ValueError(f"{by!r} is not a consensus participant")
        if self.on_propose is not None:
            self.on_propose(h, proposal, by)
        notice = encode_inform(h, proposal)
        for other in sorted(self._members):
            if other != by:
                self.sim.send_as(by, other, notice)
        self.sim.schedule(self.sim.now + self.sim.draw_delays(1, self.rng)[0],
                          self._arrive, h, proposal, by)

    def _arrive(self, h: int, proposal: Proposal, by: ProcessId) -> None:
        if h in self.decisions:
            return
        now = self.sim.now
        inst = self._instances.setdefault(h, _Instance())
        inst.proposals.setdefault(by, _Arrival(proposal, now))
        # Once every member is in, nothing more can join: close the window now.
        everyone = len(inst.proposals) == len(self._members)
        deadline = max(now if everyone else now + WINDOW, self.sim.config.gst)
        if inst.deadline is None:
            if by.kind != ProcessKind.CORRECT_SERVER:
                return  # only a correct proposal opens the window
        elif deadline < inst.deadline:
            inst.timer.cancel()
        else:
            return
        inst.deadline = deadline
        inst.timer = self.sim.schedule(deadline + self.config.decision_cost,
                                       self._try_decide, h)

    # -- deciding -----------------------------------------------------------

    def _try_decide(self, h: int) -> None:
        if h in self.decisions:
            return
        inst = self._instances[h]
        if h > 1 and (h - 1) not in self.decisions:
            inst.deferred = True  # re-tried when h - 1 decides
            return
        now = self.sim.now
        propset: Propset = {}
        for by in sorted(inst.proposals):
            p = inst.proposals[by]
            if by.kind == ProcessKind.CORRECT_SERVER:
                if p.arrived_at <= inst.deadline:
                    propset[by] = p.proposal
            else:
                propset[by] = p.proposal  # anything registered pre-decision
        self.decisions[h] = Decision(h, propset, now)
        members = sorted(self._members)
        for pid, delay in zip(members, self.sim.draw_delays(len(members), self.rng)):
            # not before this member's copy of h - 1 (see the module docstring)
            at = self._last[pid] = max(now + delay, self._last[pid])
            self.sim.schedule(at, self._deliver_one, pid, h)
        nxt = self._instances.get(h + 1)
        if nxt is not None and nxt.deferred:  # its own timer has already fired
            self.sim.schedule(now, self._try_decide, h + 1)

    def _deliver_one(self, pid: ProcessId, h: int) -> None:
        self._members[pid](h, dict(self.decisions[h].propset))

    # -- introspection ------------------------------------------------------

    def proposals_for(self, h: int) -> Propset:
        inst = self._instances.get(h)
        if inst is None:
            return {}
        return {by: p.proposal for by, p in inst.proposals.items()}

    def decided(self, h: int) -> Optional[Decision]:
        return self.decisions.get(h)
