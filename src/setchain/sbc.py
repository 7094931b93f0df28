"""Set consensus service: agree on which proposed element sets form an epoch.

The decider is a deterministic harness component rather than an embedded
consensus protocol, which gives the contract by construction: per
instance ``h`` it collects proposals (one counted per proposer), and once
instance ``h - 1`` is decided and ``decide_deadline = max(first proposal
arrival + window, gst)`` has passed, it fixes the decision as a map from
proposer to proposed set.  A correct proposer's entry is included iff its
proposal arrived by the deadline (after ``gst`` that is all of them);
entries from Byzantine proposers are included whenever they arrived
before the decision.  Every registered process then receives the
identical decision via its set-deliver callback, per process in instance
order, after a network-like delay.

Proposals also fan out as notice frames to every other process, so an
adversary can harvest what correct servers proposed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import Element, ProcessId
from .simnet import SimTime, Simulation
from .wire import encode_inform

Propset = dict[ProcessId, frozenset[Element]]


@dataclass(frozen=True)
class SbcConfig:
    """Decision window after the first proposal, plus extra decision latency."""

    window: int = 50
    decision_cost: int = 0

    def __post_init__(self) -> None:
        if self.window < 0 or self.decision_cost < 0:
            raise ValueError("window and decision_cost must be non-negative")


@dataclass
class _Proposal:
    elements: frozenset[Element]
    arrived_at: SimTime


@dataclass
class _Instance:
    h: int
    proposals: dict[ProcessId, _Proposal] = field(default_factory=dict)
    deadline: Optional[SimTime] = None
    decision_at: Optional[SimTime] = None
    deferred: bool = False


@dataclass
class Decision:
    h: int
    propset: Propset
    decided_at: SimTime

    def union(self) -> frozenset[Element]:
        out: frozenset[Element] = frozenset()
        for es in self.propset.values():
            out |= es
        return out


class ConsensusService:
    """Shared decider for all consensus instances of one run."""

    def __init__(
        self,
        sim: Simulation,
        config: SbcConfig = SbcConfig(),
        on_propose: Optional[Callable[[int, frozenset, ProcessId], None]] = None,
    ):
        self.sim = sim
        self.config = config
        self.rng = random.Random(f"{sim.config.rng_seed}:sbc")
        self.on_propose = on_propose
        self._members: dict[ProcessId, Callable[[int, Propset], None]] = {}
        self._correct: dict[ProcessId, bool] = {}
        self._instances: dict[int, _Instance] = {}
        self.decisions: dict[int, Decision] = {}
        self.extra_proposals: list[tuple[int, ProcessId, SimTime]] = []
        self._delivered_upto: dict[ProcessId, int] = {}
        self._stash: dict[ProcessId, set[int]] = {}

    def register(self, pid: ProcessId, on_set_deliver: Callable[[int, Propset], None],
                 correct: bool = True) -> None:
        if pid in self._members:
            raise ValueError(f"duplicate consensus registration for {pid!r}")
        self._members[pid] = on_set_deliver
        self._correct[pid] = correct
        self._delivered_upto[pid] = 0
        self._stash[pid] = set()

    # -- proposing ----------------------------------------------------------

    def propose(self, h: int, elements, by: ProcessId) -> None:
        """Register a proposal for instance ``h`` and notify the other processes."""
        if h < 1:
            raise ValueError("instances are numbered from 1")
        if by not in self._members:
            raise ValueError(f"{by!r} is not a consensus participant")
        elements = frozenset(elements)
        if self.on_propose is not None:
            self.on_propose(h, elements, by)
        notice = encode_inform(h, elements)
        for other in sorted(self._members, key=lambda p: (p.id, p.kind)):
            if other != by:
                self.sim.send_as(by, other, notice)
        self.sim.schedule(self.sim.now + self._draw_delay(),
                          self._arrive, h, elements, by)

    def _draw_delay(self) -> int:
        cfg = self.sim.config
        delay = self.rng.randint(cfg.latency_min, cfg.latency_max)
        if self.sim.now >= cfg.gst:
            delay = min(delay, cfg.post_gst_bound)
        return delay

    def _arrive(self, h: int, elements: frozenset, by: ProcessId) -> None:
        inst = self._instances.setdefault(h, _Instance(h))
        if h in self.decisions:
            self.extra_proposals.append((h, by, self.sim.now))
            return
        if by in inst.proposals:
            self.extra_proposals.append((h, by, self.sim.now))
            return
        inst.proposals[by] = _Proposal(elements, self.sim.now)
        if inst.deadline is None:
            inst.deadline = max(self.sim.now + self.config.window,
                                self.sim.config.gst)
            inst.decision_at = inst.deadline + self.config.decision_cost
            self.sim.schedule(inst.decision_at, self._try_decide, h)

    # -- deciding -----------------------------------------------------------

    def _try_decide(self, h: int) -> None:
        inst = self._instances.get(h)
        if inst is None or h in self.decisions or not inst.proposals:
            return
        if h > 1 and (h - 1) not in self.decisions:
            inst.deferred = True  # re-tried when h - 1 decides
            return
        now = self.sim.now
        propset: Propset = {}
        for by in sorted(inst.proposals, key=lambda p: (p.id, p.kind)):
            p = inst.proposals[by]
            if self._correct[by]:
                if p.arrived_at <= inst.deadline:
                    propset[by] = p.elements
            else:
                propset[by] = p.elements  # anything registered pre-decision
        self.decisions[h] = Decision(h, propset, now)
        for pid in sorted(self._members, key=lambda p: (p.id, p.kind)):
            self.sim.schedule(now + self._draw_delay(), self._deliver_one, pid, h)
        nxt = self._instances.get(h + 1)
        if nxt is not None and nxt.deferred and nxt.decision_at is not None:
            self.sim.schedule(max(now, nxt.decision_at), self._try_decide, h + 1)

    def _deliver_one(self, pid: ProcessId, h: int) -> None:
        if self._delivered_upto[pid] != h - 1:
            self._stash[pid].add(h)  # out-of-order arrival; hold it back
            return
        self._invoke(pid, h)
        while self._delivered_upto[pid] + 1 in self._stash[pid]:
            nxt = self._delivered_upto[pid] + 1
            self._stash[pid].discard(nxt)
            self._invoke(pid, nxt)

    def _invoke(self, pid: ProcessId, h: int) -> None:
        decision = self.decisions[h]
        self._delivered_upto[pid] = h
        self._members[pid](h, dict(decision.propset))

    # -- introspection ------------------------------------------------------

    def proposals_for(self, h: int) -> dict[ProcessId, frozenset[Element]]:
        inst = self._instances.get(h)
        if inst is None:
            return {}
        return {by: p.elements for by, p in inst.proposals.items()}

    def decided(self, h: int) -> Optional[Decision]:
        return self.decisions.get(h)
