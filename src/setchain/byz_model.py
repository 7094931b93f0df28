"""Executable twin models of adversarial influence, with an equivalence checker.

The reduction argument: a run of the replicated set maintained by ``n - f``
correct servers plus ``f`` arbitrarily-behaving servers is observationally
indistinguishable from a run with the same correct servers plus a *single*
non-deterministic process that pools everything the adversaries could know.
Collapsing the adversaries into one process makes the system tractable for
tools that cannot reason about coordinated faulty groups.

Both directions are checked here on bounded random traces:

* forward — every adversarial step maps to a step of the pooled process
  (re-targeted to it), except receptions of messages it already consumed,
  which map to no-ops;
* backward — every pooled step expands to one step per adversarial server
  (receptions are replayed at each of them; anything else runs at the first
  adversary followed by stutter no-ops).

Transitions are pure functions over explicit configurations, so the two
models share one :class:`Model` class parameterised by its adversarial
process tuple; the pooled model is simply the instance with one adversary.
A configuration holds the correct servers' states, a per-process view of
the network (sent / pending / received), the map of decided consensus
instances, and the adversary-side knowledge set.  A process's pending
messages are a multiset (a ``Counter``); its sent and received logs stay
ordered, because correct servers' channels are compared in order.  One
body, :func:`trace_check`, generates, maps and checks a trace in either
direction named in :data:`DIRECTIONS`.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Optional

from .adversaries import generate_invalid_elems, havoc_number, havoc_subset
from .core import (
    Element,
    History,
    KeyStore,
    ProcessId,
    ProcessKind,
    decode_element,
    random_payload,
    sort_elements,
    wire_order,
)

# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
#
# Three message shapes circulate between servers: element broadcasts,
# epoch-increment broadcasts, and consensus proposals.  They are plain
# tuples so they can live in multisets and sequences unchanged.

Message = tuple


def madd(e: Element) -> Message:
    return ("madd", e)


def mepochinc(h: int) -> Message:
    return ("mepochinc", h)


def proposal(h: int, elements: Iterable[Element]) -> Message:
    return ("prop", h, frozenset(elements))


BRB_SHAPES = ("madd", "mepochinc")  # proposals travel by consensus instead


def msg_key(m: Message):
    """Canonical sort key so multiset iteration order is reproducible."""
    if m[0] == "madd":
        return (0, m[1].wire)
    if m[0] == "mepochinc":
        return (1, m[1])
    return (2, m[1], tuple(e.wire for e in sort_elements(m[2])))


def msg_valid_elements(m: Message, keys: KeyStore) -> frozenset[Element]:
    """Valid elements a process learns by receiving message ``m``."""
    if m[0] == "madd":
        return frozenset({m[1]} if keys.valid(m[1]) else ())
    if m[0] == "prop":
        return frozenset(e for e in m[2] if keys.valid(e))
    return frozenset()


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelEvent:
    """One atomic step.  Every tag except ``sbc_consensus`` and ``nop``
    happens at a particular server."""

    tag: str
    server: Optional[ProcessId] = None
    element: Optional[Element] = None
    h: Optional[int] = None
    elements: Optional[frozenset[Element]] = None
    msg: Optional[Message] = None


NOP = ModelEvent("nop")


def ev_get(s: ProcessId) -> ModelEvent:
    return ModelEvent("get", server=s)


def ev_add(s: ProcessId, e: Element) -> ModelEvent:
    return ModelEvent("add", server=s, element=e)


def ev_broadcast(s: ProcessId, m: Message) -> ModelEvent:
    return ModelEvent("brb_broadcast", server=s, msg=m)


def ev_deliver(s: ProcessId, m: Message) -> ModelEvent:
    return ModelEvent("brb_deliver", server=s, msg=m)


def ev_epoch_inc(s: ProcessId, h: int) -> ModelEvent:
    return ModelEvent("epoch_inc", server=s, h=h)


def ev_propose(s: ProcessId, h: int, elements: Iterable[Element]) -> ModelEvent:
    return ModelEvent("sbc_propose", server=s, h=h, elements=frozenset(elements))


def ev_inform(s: ProcessId, h: int, elements: Iterable[Element]) -> ModelEvent:
    return ModelEvent("sbc_inform", server=s, h=h, elements=frozenset(elements))


def ev_set_deliver(s: ProcessId, h: int, elements: Iterable[Element]) -> ModelEvent:
    return ModelEvent("sbc_set_deliver", server=s, h=h, elements=frozenset(elements))


def ev_consensus(h: int, elements: Iterable[Element]) -> ModelEvent:
    return ModelEvent("sbc_consensus", h=h, elements=frozenset(elements))


def valid_elements(ev: ModelEvent, keys: KeyStore) -> frozenset[Element]:
    """The valid elements disclosed by an event (what an adversary learns):
    an added element, a decided set, or what a consumed message carries."""
    if ev.tag == "add":
        return msg_valid_elements(madd(ev.element), keys)
    if ev.tag == "sbc_set_deliver":
        return msg_valid_elements(proposal(ev.h, ev.elements), keys)
    m = _event_message(ev)
    return frozenset() if m is None else msg_valid_elements(m, keys)


def _event_message(ev: ModelEvent) -> Optional[Message]:
    """The network message a reception event consumes, if any."""
    if ev.tag == "brb_deliver":
        return ev.msg
    if ev.tag == "sbc_inform":
        return proposal(ev.h, ev.elements)
    return None


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Channel:
    """One process's view of the network: an ordered log of what it sent
    and received, plus the multiset of messages addressed to it that it
    has not consumed yet.  ``pending`` holds positive counts only and is
    never changed in place: each step copies it first."""

    sent: tuple[Message, ...] = ()
    received: tuple[Message, ...] = ()
    pending: Counter = field(default_factory=Counter)


def _channel_send(ch: Channel, m: Message, sender: bool) -> Channel:
    pending = ch.pending.copy()
    pending[m] += 1
    return Channel(
        sent=ch.sent + (m,) if sender else ch.sent,
        received=ch.received,
        pending=pending,
    )


def _channel_receive(ch: Channel, m: Message) -> Channel:
    pending = ch.pending.copy()
    assert pending[m] > 0, "receive of a message that is not pending"
    pending[m] -= 1
    if not pending[m]:
        del pending[m]
    return Channel(
        sent=ch.sent,
        received=ch.received + (m,),
        pending=pending,
    )


@dataclass(frozen=True)
class LocalState:
    """A correct server's state: its element set and its stamped epochs,
    whose count is its current epoch number."""

    theset: frozenset[Element] = frozenset()
    history: History = History()

    @property
    def epoch(self) -> int:
        return self.history.epoch


@dataclass(frozen=True)
class Config:
    """A full model configuration.  ``knowledge`` is the adversary-side
    pool: in the many-adversary model it is what all adversaries jointly
    know; in the single-adversary model it is that process's local set."""

    states: dict[ProcessId, LocalState]
    net: dict[ProcessId, Channel]
    consensus: dict[int, frozenset[Element]]
    knowledge: frozenset[Element]


class Model:
    """Transition semantics over :class:`Config`, shared by both models."""

    def __init__(self, keys: KeyStore, correct: Iterable[ProcessId],
                 adversarial: Iterable[ProcessId]):
        self.keys = keys
        self.correct = tuple(sorted(correct))
        self.adversarial = tuple(sorted(adversarial))
        self.processes = self.correct + self.adversarial
        self._procset = frozenset(self.processes)
        self._advset = frozenset(self.adversarial)

    def is_adversarial(self, pid: ProcessId) -> bool:
        return pid in self._advset

    def initial(self) -> Config:
        return Config(
            states={s: LocalState() for s in self.correct},
            net={s: Channel() for s in self.processes},
            consensus={},
            knowledge=frozenset(),
        )

    # -- network primitives -------------------------------------------

    def _send(self, net: dict, m: Message, sender: ProcessId) -> dict:
        return {
            s: _channel_send(ch, m, sender=(s == sender))
            for s, ch in net.items()
        }

    def _receive(self, net: dict, m: Message, receiver: ProcessId) -> dict:
        out = dict(net)
        out[receiver] = _channel_receive(net[receiver], m)
        return out

    def _has_proposed(self, cfg: Config, s: ProcessId, h: int) -> bool:
        return any(m[0] == "prop" and m[1] == h for m in cfg.net[s].sent)

    def _proposal_pool(self, cfg: Config, h: int) -> frozenset[Element]:
        out: set[Element] = set()
        for ch in cfg.net.values():
            for m in ch.sent:
                if m[0] == "prop" and m[1] == h:
                    out |= m[2]
        return frozenset(out)

    # -- enabledness --------------------------------------------------

    def enabled(self, cfg: Config, ev: ModelEvent) -> bool:
        tag = ev.tag
        if tag == "nop":
            return True
        if tag == "sbc_consensus":
            h = ev.h
            if h < 1 or h in cfg.consensus:
                return False
            if h > 1 and (h - 1) not in cfg.consensus:
                return False
            any_proposal = any(
                m[0] == "prop" for ch in cfg.net.values() for m in ch.sent)
            return any_proposal and ev.elements <= self._proposal_pool(cfg, h)
        s = ev.server
        if s not in self._procset:
            return False
        adv = self.is_adversarial(s)
        state = cfg.states.get(s)
        if tag == "get":
            return True
        if tag == "add":
            return self.keys.valid(ev.element) and (adv or ev.element not in state.theset)
        if tag == "brb_broadcast":
            if not adv or ev.msg[0] not in BRB_SHAPES:
                return False
            if ev.msg[0] == "mepochinc":
                return True
            e = ev.msg[1]
            return e in cfg.knowledge or not self.keys.valid(e)
        if tag == "brb_deliver":
            if ev.msg[0] not in BRB_SHAPES or not cfg.net[s].pending[ev.msg]:
                return False
            if ev.msg[0] == "madd":
                return self.keys.valid(ev.msg[1])
            h = ev.msg[1]
            if adv or h < state.epoch + 1:
                return True
            return h == state.epoch + 1 and not self._has_proposed(cfg, s, h)
        if tag == "epoch_inc":
            return adv or ev.h == state.epoch + 1
        if tag == "sbc_propose":
            if not adv:
                return False
            valid = frozenset(e for e in ev.elements if self.keys.valid(e))
            return valid <= cfg.knowledge
        if tag == "sbc_inform":
            return cfg.net[s].pending[proposal(ev.h, ev.elements)] > 0
        if tag == "sbc_set_deliver":
            if cfg.consensus.get(ev.h) != ev.elements:
                return False
            return adv or ev.h == state.epoch + 1
        raise ValueError(f"unknown event tag {tag!r}")

    # -- effect -------------------------------------------------------

    def effect(self, cfg: Config, ev: ModelEvent) -> Config:
        assert self.enabled(cfg, ev), f"effect of disabled event {ev}"
        tag = ev.tag
        s = ev.server
        adv = s is not None and self.is_adversarial(s)

        knowledge = cfg.knowledge
        if adv:
            knowledge = knowledge | valid_elements(ev, self.keys)

        net = cfg.net
        if tag == "add" and not adv:
            net = self._send(net, madd(ev.element), s)
        elif tag == "brb_deliver":
            net = self._receive(net, ev.msg, s)
            if (ev.msg[0] == "mepochinc" and not adv
                    and ev.msg[1] == cfg.states[s].epoch + 1):
                state = cfg.states[s]
                ps = state.theset - state.history.union()
                net = self._send(net, proposal(ev.msg[1], ps), s)
        elif tag == "epoch_inc" and not adv:
            net = self._send(net, mepochinc(ev.h), s)
        elif tag == "brb_broadcast":
            net = self._send(net, ev.msg, s)
        elif tag == "sbc_propose":
            net = self._send(net, proposal(ev.h, ev.elements), s)
        elif tag == "sbc_inform":
            net = self._receive(net, proposal(ev.h, ev.elements), s)

        states = cfg.states
        if not adv and s is not None:
            state = states[s]
            if tag == "brb_deliver" and ev.msg[0] == "madd":
                states = dict(states)
                states[s] = replace(state, theset=state.theset | {ev.msg[1]})
            elif tag == "sbc_set_deliver":
                stamped = state.history.union()
                entry = frozenset(
                    e for e in ev.elements
                    if self.keys.valid(e) and e not in stamped)
                states = dict(states)
                states[s] = LocalState(
                    theset=state.theset | entry,
                    history=state.history.stamp(ev.h, entry),
                )

        consensus = cfg.consensus
        if tag == "sbc_consensus":
            consensus = dict(consensus)
            consensus[ev.h] = ev.elements

        return Config(states=states, net=net, consensus=consensus,
                      knowledge=knowledge)


# ---------------------------------------------------------------------------
# Observational equivalence
# ---------------------------------------------------------------------------


def _counter_leq(a: Counter, b: Counter) -> bool:
    return all(b[m] >= c for m, c in a.items())


def equivalence_failure(many: "Model", phi: Config,
                        single: "Model", psi: Config) -> Optional[str]:
    """None when the two configurations are indistinguishable to outside
    observers; otherwise a short tag naming the first violated condition."""
    if phi.states != psi.states:
        return "correct-state"
    if phi.consensus != psi.consensus:
        return "consensus-history"
    if phi.knowledge != psi.knowledge:
        return "adversary-knowledge"
    b = single.adversarial[0]
    bch = psi.net[b]
    for s in many.correct:
        if phi.net[s] != psi.net[s]:
            return "net-correct"
    b_sent = Counter(bch.sent)
    adv_sent: Counter = Counter()
    for s in many.adversarial:
        adv_sent += Counter(phi.net[s].sent)
    if adv_sent != b_sent:
        return "net-sent-union"
    b_pending = bch.pending
    b_received = Counter(bch.received)
    adv_received: Counter = Counter()
    for s in many.adversarial:
        adv_received += Counter(phi.net[s].received)
    if not _counter_leq(b_received, adv_received):
        return "net-received-union"
    for s in many.adversarial:
        ch = phi.net[s]
        if not _counter_leq(b_pending, ch.pending):
            return "net-pending-subset"
        if Counter(ch.received) + ch.pending != b_received + b_pending:
            return "net-addressed-conservation"
        if not _counter_leq(Counter(ch.received), b_received):
            return "net-received-subset"
    return None


def unaccounted_received(single: "Model", cfg: Config) -> frozenset[Element]:
    """Valid elements the pooled adversary has received but not recorded.
    Empty at every reachable configuration (its receptions always feed its
    knowledge set)."""
    b = single.adversarial[0]
    got: set[Element] = set()
    for m in cfg.net[b].received:
        got |= msg_valid_elements(m, single.keys)
    return frozenset(got) - cfg.knowledge


# ---------------------------------------------------------------------------
# Trace mapping, both directions
# ---------------------------------------------------------------------------


@dataclass
class MappingReport:
    ok: bool
    reason: Optional[str] = None
    index: Optional[int] = None
    events: list[ModelEvent] = field(default_factory=list)
    mapped_events: list[ModelEvent] = field(default_factory=list)
    source_configs: list[Config] = field(default_factory=list)
    mapped_configs: list[Config] = field(default_factory=list)

    def fail(self, reason: str, index: int) -> "MappingReport":
        self.ok = False
        self.reason = reason
        self.index = index
        return self


def map_to_single_adversary(many: Model, single: Model,
                            events: Iterable[ModelEvent]) -> MappingReport:
    """Re-run a many-adversary trace against the pooled model, checking
    observational equivalence after every step.  Adversarial events are
    re-targeted to the pooled process; a reception it has already consumed
    maps to a no-op."""
    b = single.adversarial[0]
    report = MappingReport(ok=True, events=list(events))
    g = many.initial()
    p = single.initial()
    report.source_configs.append(g)
    report.mapped_configs.append(p)

    for i, ev in enumerate(report.events):
        if not many.enabled(g, ev):
            return report.fail("source-event-disabled", i)
        g2 = many.effect(g, ev)
        if ev.server is not None and many.is_adversarial(ev.server):
            mapped = replace(ev, server=b)
        else:
            mapped = ev
        if single.enabled(p, mapped):
            p2 = single.effect(p, mapped)
        else:
            m = _event_message(mapped)
            if m is None:
                return report.fail("unmappable-event", i)
            if p.net[b].received.count(m) <= g.net[ev.server].received.count(m):
                return report.fail("missing-reception", i)
            mapped = NOP
            p2 = p
        report.mapped_events.append(mapped)
        report.source_configs.append(g2)
        report.mapped_configs.append(p2)
        reason = equivalence_failure(many, g2, single, p2)
        if reason is not None:
            return report.fail(reason, i)
        g, p = g2, p2
    return report


def map_to_many_adversaries(single: Model, many: Model,
                            events: Iterable[ModelEvent]) -> MappingReport:
    """Expand a pooled-adversary trace into a many-adversary trace: each
    pooled reception replays at every adversarial server; every other
    pooled step runs at the first adversary followed by stutter no-ops, so
    each source step becomes a block of ``f`` steps.  Equivalence is
    checked between every expanded configuration and its source
    configuration (expanded index ``k`` aligns with source index
    ``k // f``)."""
    b = single.adversarial[0]
    f = len(many.adversarial)
    report = MappingReport(ok=True, events=list(events))
    p = single.initial()
    g = many.initial()
    report.source_configs.append(p)
    report.mapped_configs.append(g)

    # The expanded trace leads with f-1 no-ops so that the first f
    # configurations all align with the source's initial configuration:
    # expanded configuration k pairs with source configuration k // f.
    expanded: list[ModelEvent] = [NOP] * (f - 1)

    for i, ev in enumerate(report.events):
        if not single.enabled(p, ev):
            return report.fail("source-event-disabled", i)
        p2 = single.effect(p, ev)
        if ev.server == b:
            if ev.tag in ("brb_deliver", "sbc_inform"):
                block = [replace(ev, server=bj) for bj in many.adversarial]
            else:
                block = [replace(ev, server=many.adversarial[0])]
                block += [NOP] * (f - 1)
        else:
            block = [ev] + [NOP] * (f - 1)
        expanded.extend(block)
        report.source_configs.append(p2)
        p = p2

    for k, gev in enumerate(expanded):
        src_index = (k + 1) // f
        if not many.enabled(g, gev):
            return report.fail("expansion-disabled", src_index)
        g = many.effect(g, gev)
        report.mapped_events.append(gev)
        report.mapped_configs.append(g)
        reason = equivalence_failure(
            many, g, single, report.source_configs[src_index])
        if reason is not None:
            return report.fail(reason, src_index)
    return report


# ---------------------------------------------------------------------------
# Random trace generation
# ---------------------------------------------------------------------------


def generate_trace(model: Model, rng: random.Random, length: int,
                   pool: Iterable[Element]) -> list[ModelEvent]:
    """A random valid trace: at each step pick among currently enabled
    events, with receptions weighted x3 so queues drain.  ``pool`` supplies
    fresh client-signed elements for add events.  Every chosen event is
    re-checked for enabledness before applying (generator self-check)."""
    cfg = model.initial()
    fresh = list(pool)
    events: list[ModelEvent] = []

    for _ in range(length):
        cands: list[ModelEvent] = []
        weights: list[int] = []

        def offer(ev: ModelEvent, w: int) -> None:
            if model.enabled(cfg, ev):
                cands.append(ev)
                weights.append(w)

        hmax = max(cfg.consensus, default=0)
        for s in model.processes:
            for m in sorted(cfg.net[s].pending, key=msg_key):
                if m[0] == "prop":
                    offer(ev_inform(s, m[1], m[2]), 3)
                else:
                    offer(ev_deliver(s, m), 3)
            for h in range(max(1, hmax - 1), hmax + 1):
                if h in cfg.consensus:
                    offer(ev_set_deliver(s, h, cfg.consensus[h]), 3)
        if fresh:
            target = rng.choice(model.processes)
            offer(ev_add(target, fresh[0]), 2)
        known = sort_elements(cfg.knowledge)
        for s in model.adversarial:
            junk = generate_invalid_elems(rng)
            choices = known + junk
            if choices:
                offer(ev_broadcast(s, madd(rng.choice(choices))), 1)
            offer(ev_broadcast(s, mepochinc(havoc_number(rng, hmax + 2))), 1)
            prop = havoc_subset(rng, choices, key=wire_order)
            offer(ev_propose(s, havoc_number(rng, hmax + 2, lo=1), prop), 1)
            offer(ev_epoch_inc(s, havoc_number(rng, hmax + 2)), 1)
        for s in model.correct:
            offer(ev_epoch_inc(s, cfg.states[s].epoch + 1), 1)
        h_next = 1
        while h_next in cfg.consensus:
            h_next += 1
        pool_h = model._proposal_pool(cfg, h_next)
        offer(ev_consensus(h_next, havoc_subset(rng, pool_h, key=wire_order)), 2)
        offer(ev_get(rng.choice(model.processes)), 1)
        offer(NOP, 1)

        ev = rng.choices(cands, weights=weights, k=1)[0]
        assert model.enabled(cfg, ev), "generator offered a disabled event"
        if ev.tag == "add" and fresh and ev.element == fresh[0]:
            fresh.pop(0)
        cfg = model.effect(cfg, ev)
        events.append(ev)
    return events


# ---------------------------------------------------------------------------
# Harness: paired models, whole-trace checks, counterexample bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPair:
    many: Model
    single: Model
    keys: KeyStore
    pool: tuple[Element, ...]
    n: int
    f: int


POOL_SIZE = 60  # client-signed elements in a model pair's pool


def _check_scale(n: int, f: int) -> None:
    """Raises ValueError unless ``f >= 1`` adversaries and ``n > 3f``."""
    if not n > 3 * f >= 3:
        raise ValueError(f"a model pair needs f >= 1 and n > 3f, not n={n} f={f}")


def make_model_pair(n: int, f: int, seed: int = 0) -> ModelPair:
    """Two models over the same correct servers: one with ``f`` adversarial
    servers, one with the single pooled process, plus a deterministic pool
    of ``POOL_SIZE`` client-signed elements."""
    _check_scale(n, f)
    correct = tuple(ProcessId(i, ProcessKind.CORRECT_SERVER) for i in range(n - f))
    byz = tuple(
        ProcessId(n - f + j, ProcessKind.BYZANTINE_SERVER) for j in range(f))
    b = ProcessId(n, ProcessKind.MODEL_B)
    keys = KeyStore()
    authors = [ProcessId(100 + k, ProcessKind.CLIENT) for k in range(3)]
    privates = {a: keys.keygen(a) for a in authors}
    rng = random.Random(f"pool:{seed}")
    pool = tuple(
        keys.make_element(random_payload(rng), a, privates[a])
        for _ in range(POOL_SIZE // len(authors))
        for a in authors
    )
    return ModelPair(
        many=Model(keys, correct, byz),
        single=Model(keys, correct, (b,)),
        keys=keys,
        pool=pool,
        n=n,
        f=f,
    )


# direction: (the pair's model that generates the trace, the model it is
# mapped onto, the mapping)
DIRECTIONS = {
    "forward": ("many", "single", map_to_single_adversary),
    "backward": ("single", "many", map_to_many_adversaries),
}


def _direction(name: str) -> tuple:
    if name not in DIRECTIONS:
        raise ValueError(f"unknown mapping direction {name!r}")
    return DIRECTIONS[name]


def trace_check(direction: str, n: int, f: int, seed: int,
                length: int = 200) -> MappingReport:
    """Generate a trace on the direction's source model, map it onto the
    other model, then check that every configuration of the pooled model
    has recorded each valid element it received."""
    source, target, mapping = _direction(direction)
    pair = make_model_pair(n, f, seed)
    rng = random.Random(f"{seed}:{source}:{n}:{f}")
    events = generate_trace(getattr(pair, source), rng, length, pair.pool)
    report = mapping(getattr(pair, source), getattr(pair, target), events)
    if report.ok:
        pooled = (report.mapped_configs if target == "single"
                  else report.source_configs)
        for i, cfg in enumerate(pooled):
            if unaccounted_received(pair.single, cfg):
                return report.fail("received-not-recorded", i)
    return report


forward_trace_check = partial(trace_check, "forward")
backward_trace_check = partial(trace_check, "backward")


# -- JSON counterexample bundles --------------------------------------------


def _element_to_json(e: Element) -> str:
    return e.wire.hex()


def _element_from_json(s: str) -> Element:
    e, _ = decode_element(bytes.fromhex(s))
    return e


def _msg_to_json(m: Message):
    if m[0] == "madd":
        return {"kind": "madd", "element": _element_to_json(m[1])}
    if m[0] == "mepochinc":
        return {"kind": "mepochinc", "h": m[1]}
    return {"kind": "prop", "h": m[1],
            "elements": [_element_to_json(e) for e in sort_elements(m[2])]}


def _msg_from_json(d) -> Message:
    if d["kind"] == "madd":
        return madd(_element_from_json(d["element"]))
    if d["kind"] == "mepochinc":
        return mepochinc(d["h"])
    return proposal(d["h"], (_element_from_json(s) for s in d["elements"]))


def event_to_json(ev: ModelEvent) -> dict:
    return {
        "tag": ev.tag,
        "server": [ev.server.id, ev.server.kind.value] if ev.server else None,
        "element": _element_to_json(ev.element) if ev.element else None,
        "h": ev.h,
        "elements": ([_element_to_json(e) for e in sort_elements(ev.elements)]
                     if ev.elements is not None else None),
        "msg": _msg_to_json(ev.msg) if ev.msg is not None else None,
    }


# The fields each event tag needs; an event without one of them cannot run.
_EVENT_FIELDS = {
    "nop": (),
    "get": ("server",),
    "add": ("server", "element"),
    "brb_broadcast": ("server", "msg"),
    "brb_deliver": ("server", "msg"),
    "epoch_inc": ("server", "h"),
    "sbc_propose": ("server", "h", "elements"),
    "sbc_inform": ("server", "h", "elements"),
    "sbc_set_deliver": ("server", "h", "elements"),
    "sbc_consensus": ("h", "elements"),
}


def event_from_json(d: dict) -> ModelEvent:
    """The event ``d`` encodes; raises ValueError for an unknown tag and for
    fields that do not fit the tag."""
    try:
        ev = ModelEvent(
            tag=d["tag"],
            server=ProcessId(d["server"][0], ProcessKind(d["server"][1]))
            if d["server"] else None,
            element=_element_from_json(d["element"]) if d["element"] else None,
            h=d["h"],
            elements=frozenset(_element_from_json(s) for s in d["elements"])
            if d["elements"] is not None else None,
            msg=_msg_from_json(d["msg"]) if d["msg"] is not None else None,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed event {d!r}: {exc!r}") from exc
    if ev.tag not in _EVENT_FIELDS:
        raise ValueError(f"unknown event tag {ev.tag!r}")
    missing = [name for name in _EVENT_FIELDS[ev.tag] if getattr(ev, name) is None]
    if missing:
        raise ValueError(f"{ev.tag} event without {', '.join(missing)}")
    if ev.h is not None and type(ev.h) is not int:
        raise ValueError(f"{ev.tag} event with a non-integer h {ev.h!r}")
    return ev


def bundle_failure(direction: str, n: int, f: int, seed: int,
                   report: MappingReport) -> dict:
    """Everything needed to reproduce a failed trace mapping."""
    _direction(direction)
    return {
        "direction": direction,
        "n": n,
        "f": f,
        "seed": seed,
        "reason": report.reason,
        "index": report.index,
        "events": [event_to_json(ev) for ev in report.events],
        "mapped_events": [event_to_json(ev) for ev in report.mapped_events],
    }


def save_bundle(path, bundle: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)


_BUNDLE_FIELDS = {"direction": (str,), "n": (int,), "f": (int,), "seed": (int,),
                  "reason": (str, type(None)), "index": (int, type(None)),
                  "events": (list,)}  # exact types: a bool is no int here


def load_bundle(path) -> dict:
    """The bundle saved at ``path``.  Raises ValueError for a file that
    cannot be read, is not JSON, lacks a field or has one of another type,
    or names a scale that has no model pair."""
    try:
        with open(path, encoding="utf-8") as fh:
            bundle = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from exc
    for name, kinds in _BUNDLE_FIELDS.items():
        if not isinstance(bundle, dict) or type(bundle.get(name, ...)) not in kinds:
            raise ValueError(f"bundle field {name!r} is missing or not "
                             + " or ".join(kind.__name__ for kind in kinds))
    _check_scale(bundle["n"], bundle["f"])
    return bundle


def replay_bundle(bundle: dict) -> MappingReport:
    """Re-run the mapping over the bundled event list (authoritative) and
    report the verdict afresh."""
    source, target, mapping = _direction(bundle["direction"])
    pair = make_model_pair(bundle["n"], bundle["f"], bundle["seed"])
    events = [event_from_json(d) for d in bundle["events"]]
    return mapping(getattr(pair, source), getattr(pair, target), events)
