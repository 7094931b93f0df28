"""Twin-model semantics: enabledness and effect case tables, the
observational-equivalence checker, trace mapping in both directions, and
the counterexample bundles."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from setchain.byz_model import (
    NOP,
    Channel,
    Config,
    backward_trace_check,
    bundle_failure,
    equivalence_failure,
    ev_add,
    ev_broadcast,
    ev_consensus,
    ev_deliver,
    ev_epoch_inc,
    ev_get,
    ev_inform,
    ev_propose,
    ev_set_deliver,
    event_from_json,
    event_to_json,
    forward_trace_check,
    generate_trace,
    load_bundle,
    madd,
    make_model_pair,
    map_to_many_adversaries,
    map_to_single_adversary,
    mepochinc,
    proposal,
    replay_bundle,
    save_bundle,
    unaccounted_received,
)
from setchain.core import History


@pytest.fixture
def pair41():
    return make_model_pair(4, 1, seed=9)


@pytest.fixture
def pair72():
    return make_model_pair(7, 2, seed=3)


def invalid_element(pair):
    from setchain.adversaries import generate_invalid_elems

    rng = random.Random(77)
    while True:
        batch = generate_invalid_elems(rng)
        if batch:
            return batch[0]


# -- enabledness case table -------------------------------------------------


def test_get_and_nop_always_enabled(pair41):
    m = pair41.many
    cfg = m.initial()
    assert m.enabled(cfg, NOP)
    for s in m.processes:
        assert m.enabled(cfg, ev_get(s))


def test_deliver_requires_a_pending_message(pair41):
    m = pair41.many
    cfg = m.initial()
    e = pair41.pool[0]
    assert not m.enabled(cfg, ev_deliver(m.correct[0], madd(e)))


def test_add_needs_validity_and_freshness_only_at_correct_servers(pair41):
    m = pair41.many
    cfg = m.initial()
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    bad = invalid_element(pair41)
    assert m.enabled(cfg, ev_add(s0, e))
    assert not m.enabled(cfg, ev_add(s0, bad))
    assert not m.enabled(cfg, ev_add(z, bad))
    cfg = m.effect(cfg, ev_add(s0, e))
    cfg = m.effect(cfg, ev_deliver(s0, madd(e)))
    assert not m.enabled(cfg, ev_add(s0, e))  # already present
    assert m.enabled(cfg, ev_add(z, e))  # re-add allowed at an adversary


def test_broadcast_is_an_adversary_move_over_known_or_invalid_material(pair41):
    m = pair41.many
    cfg = m.initial()
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    bad = invalid_element(pair41)
    assert not m.enabled(cfg, ev_broadcast(s0, madd(e)))
    assert not m.enabled(cfg, ev_broadcast(z, madd(e)))  # not yet known
    assert m.enabled(cfg, ev_broadcast(z, madd(bad)))
    assert m.enabled(cfg, ev_broadcast(z, mepochinc(5)))
    assert not m.enabled(cfg, ev_broadcast(z, proposal(1, {bad})))  # not a BRB shape
    cfg = m.effect(cfg, ev_add(z, e))
    assert m.enabled(cfg, ev_broadcast(z, madd(e)))


def test_epoch_message_delivery_cases(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    cfg = m.initial()
    cfg = m.effect(cfg, ev_broadcast(z, mepochinc(1)))
    cfg = m.effect(cfg, ev_broadcast(z, mepochinc(7)))
    # next-epoch message is deliverable, far-future is not, adversary takes any
    assert m.enabled(cfg, ev_deliver(s0, mepochinc(1)))
    assert not m.enabled(cfg, ev_deliver(s0, mepochinc(7)))
    assert m.enabled(cfg, ev_deliver(z, mepochinc(7)))
    # once the server proposed for h, redelivery of h is blocked
    cfg2 = m.effect(cfg, ev_deliver(s0, mepochinc(1)))
    cfg2 = m.effect(cfg2, ev_broadcast(z, mepochinc(1)))
    assert not m.enabled(cfg2, ev_deliver(s0, mepochinc(1)))


def test_a_proposal_is_consumed_only_by_inform(pair41):
    s = pair41.single
    s0, b = s.correct[0], s.adversarial[0]
    e = pair41.pool[0]
    cfg = s.initial()
    for ev in (ev_add(s0, e), ev_deliver(s0, madd(e)),
               ev_broadcast(b, mepochinc(1)), ev_deliver(s0, mepochinc(1))):
        cfg = s.effect(cfg, ev)
    assert cfg.net[b].pending[proposal(1, {e})] == 1  # s0 proposed {e}
    assert not s.enabled(cfg, ev_deliver(b, proposal(1, {e})))
    assert not s.enabled(cfg, ev_deliver(s0, proposal(1, {e})))
    nxt = s.effect(cfg, ev_inform(b, 1, {e}))
    assert nxt.knowledge == {e}
    assert unaccounted_received(s, nxt) == frozenset()


def test_proposals_are_adversary_moves_bounded_by_knowledge(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    bad = invalid_element(pair41)
    cfg = m.initial()
    assert not m.enabled(cfg, ev_propose(s0, 1, {e}))
    assert not m.enabled(cfg, ev_propose(z, 1, {e}))  # e not known yet
    assert m.enabled(cfg, ev_propose(z, 1, {bad}))  # junk is always available
    cfg = m.effect(cfg, ev_add(z, e))
    assert m.enabled(cfg, ev_propose(z, 1, {e, bad}))


def test_consensus_needs_prior_instance_proposals_and_containment(pair41):
    m = pair41.many
    z = m.adversarial[0]
    e, e2 = pair41.pool[0], pair41.pool[1]
    cfg = m.initial()
    assert not m.enabled(cfg, ev_consensus(1, ()))  # nothing proposed anywhere
    cfg = m.effect(cfg, ev_add(z, e))
    cfg = m.effect(cfg, ev_propose(z, 1, {e}))
    assert m.enabled(cfg, ev_consensus(1, {e}))
    assert m.enabled(cfg, ev_consensus(1, ()))
    assert not m.enabled(cfg, ev_consensus(1, {e2}))  # outside proposals
    assert not m.enabled(cfg, ev_consensus(2, ()))  # previous instance open
    cfg = m.effect(cfg, ev_consensus(1, {e}))
    assert not m.enabled(cfg, ev_consensus(1, {e}))  # already decided
    assert m.enabled(cfg, ev_consensus(2, ()))


def test_set_deliver_requires_the_decided_set_and_epoch_order(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    cfg = m.initial()
    cfg = m.effect(cfg, ev_add(z, e))
    cfg = m.effect(cfg, ev_propose(z, 2, {e}))
    cfg = m.effect(cfg, ev_propose(z, 1, {e}))
    cfg = m.effect(cfg, ev_consensus(1, {e}))
    assert m.enabled(cfg, ev_set_deliver(s0, 1, {e}))
    assert not m.enabled(cfg, ev_set_deliver(s0, 1, ()))  # not what was decided
    assert m.enabled(cfg, ev_set_deliver(z, 1, {e}))
    cfg = m.effect(cfg, ev_consensus(2, {e}))
    assert not m.enabled(cfg, ev_set_deliver(s0, 2, {e}))  # epoch 0 server
    assert m.enabled(cfg, ev_set_deliver(z, 2, {e}))  # adversary takes any


# -- effect case table ------------------------------------------------------


def test_nop_effect_is_identity(pair41):
    m = pair41.many
    cfg = m.initial()
    assert m.effect(cfg, NOP) == cfg


def test_correct_delivery_of_an_element_broadcast(pair41):
    m = pair41.many
    s0 = m.correct[0]
    e = pair41.pool[0]
    cfg = m.effect(m.initial(), ev_add(s0, e))
    # the broadcast reached every pending multiset, sender included
    for s in m.processes:
        assert cfg.net[s].pending[madd(e)] == 1
    assert cfg.net[s0].sent == (madd(e),)
    nxt = m.effect(cfg, ev_deliver(s0, madd(e)))
    assert nxt.states[s0].theset == {e}
    assert nxt.states[s0].epoch == 0
    assert nxt.net[s0].pending[madd(e)] == 0
    assert nxt.net[s0].received == (madd(e),)
    # nobody else moved
    for s in m.processes:
        if s != s0:
            assert nxt.net[s] == cfg.net[s]
    assert nxt.knowledge == frozenset()


def test_adversary_inform_grows_knowledge_but_not_server_state(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    bad = invalid_element(pair41)
    cfg = m.initial()
    cfg = m.effect(cfg, ev_add(z, e))
    cfg = m.effect(cfg, ev_propose(z, 1, {e, bad}))
    before = cfg.states
    nxt = m.effect(cfg, ev_inform(z, 1, {e, bad}))
    assert nxt.states == before
    assert nxt.knowledge == {e}  # the invalid part is not knowledge
    assert nxt.net[z].received == (proposal(1, {e, bad}),)


def test_next_epoch_delivery_makes_the_server_propose_its_backlog(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    e = pair41.pool[0]
    cfg = m.initial()
    cfg = m.effect(cfg, ev_add(s0, e))
    cfg = m.effect(cfg, ev_deliver(s0, madd(e)))
    cfg = m.effect(cfg, ev_broadcast(z, mepochinc(1)))
    nxt = m.effect(cfg, ev_deliver(s0, mepochinc(1)))
    expect = proposal(1, {e})
    assert nxt.net[s0].sent[-1] == expect
    assert nxt.net[s0].received[-1] == mepochinc(1)
    for s in m.processes:
        assert nxt.net[s].pending[expect] == 1


def test_set_delivery_stamps_valid_unstamped_elements_only(pair41):
    m = pair41.many
    s0, z = m.correct[0], m.adversarial[0]
    e, e2 = pair41.pool[0], pair41.pool[1]
    bad = invalid_element(pair41)
    cfg = m.initial()
    for x in (e, e2):
        cfg = m.effect(cfg, ev_add(z, x))
    cfg = m.effect(cfg, ev_propose(z, 1, {e, e2, bad}))
    cfg = m.effect(cfg, ev_consensus(1, {e, e2, bad}))
    cfg = m.effect(cfg, ev_set_deliver(s0, 1, {e, e2, bad}))
    assert cfg.states[s0].epoch == 1
    assert cfg.states[s0].history.entries == (frozenset({e, e2}),)
    assert cfg.states[s0].theset == {e, e2}
    # a later instance re-deciding e stamps only the new element
    cfg = m.effect(cfg, ev_propose(z, 2, {e}))
    cfg = m.effect(cfg, ev_consensus(2, {e}))
    cfg = m.effect(cfg, ev_set_deliver(s0, 2, {e}))
    assert cfg.states[s0].history.get(2) == frozenset()


# -- observational equivalence ---------------------------------------------


def test_initial_configurations_are_equivalent(pair41):
    assert equivalence_failure(pair41.many, pair41.many.initial(),
                               pair41.single, pair41.single.initial()) is None


def test_equivalence_rejects_diverging_server_state(pair41):
    many, single = pair41.many, pair41.single
    g, p = many.initial(), single.initial()
    s0 = many.correct[0]
    states = dict(p.states)
    states[s0] = replace(states[s0], history=History((frozenset(),)))
    p2 = Config(states=states, net=p.net, consensus=p.consensus,
                knowledge=p.knowledge)
    assert equivalence_failure(many, g, single, p2) == "correct-state"


def test_equivalence_network_conditions_fire_individually(pair41):
    many, single = pair41.many, pair41.single
    b = single.adversarial[0]
    e = pair41.pool[0]
    g = many.effect(many.initial(), ev_add(many.adversarial[0], e))
    p = single.effect(single.initial(), ev_add(b, e))
    assert equivalence_failure(many, g, single, p) is None

    def doctor(ch):
        net = dict(p.net)
        net[b] = ch
        return Config(states=p.states, net=net, consensus=p.consensus,
                      knowledge=p.knowledge)

    extra = mepochinc(9)
    assert equivalence_failure(
        many, g, single, doctor(Channel(sent=(extra,)))) == "net-sent-union"
    assert equivalence_failure(
        many, g, single, doctor(Channel(pending=Counter({extra: 1})))
    ) == "net-pending-subset"
    assert equivalence_failure(
        many, g, single, doctor(Channel(received=(extra,)))
    ) == "net-received-union"
    g2 = many.effect(g, ev_broadcast(many.adversarial[0], mepochinc(9)))
    assert equivalence_failure(many, g2, single, p) == "net-correct"


def test_equivalence_rejects_knowledge_divergence(pair41):
    many, single = pair41.many, pair41.single
    e = pair41.pool[0]
    g = many.effect(many.initial(), ev_add(many.adversarial[0], e))
    assert equivalence_failure(
        many, g, single, single.initial()) == "adversary-knowledge"


# -- forward mapping --------------------------------------------------------


def test_trace_without_adversarial_events_maps_to_itself(pair41):
    m, s = pair41.many, pair41.single
    s0, s1 = m.correct[0], m.correct[1]
    e = pair41.pool[0]
    events = [
        ev_add(s0, e),
        ev_deliver(s0, madd(e)),
        ev_deliver(s1, madd(e)),
        ev_epoch_inc(s0, 1),
        ev_deliver(s1, mepochinc(1)),
        NOP,
    ]
    report = map_to_single_adversary(m, s, events)
    assert report.ok
    assert report.mapped_events == events


def test_hand_mapped_five_step_trace_with_duplicate_reception(pair72):
    m, s = pair72.many, pair72.single
    z0, z1 = m.adversarial
    s0 = m.correct[0]
    e = pair72.pool[0]
    events = [
        ev_add(z0, e),
        ev_broadcast(z0, madd(e)),
        ev_deliver(s0, madd(e)),
        ev_deliver(z0, madd(e)),
        ev_deliver(z1, madd(e)),  # second adversary consumes its own copy
    ]
    report = map_to_single_adversary(m, s, events)
    assert report.ok
    b = s.adversarial[0]
    assert [ev.tag for ev in report.mapped_events] == [
        "add", "brb_broadcast", "brb_deliver", "brb_deliver", "nop"]
    assert report.mapped_events[0].server == b
    assert report.mapped_events[3].server == b
    # the pooled process saw the message exactly once
    final = report.mapped_configs[-1]
    assert final.net[b].received.count(madd(e)) == 1


def test_forward_mapping_random_traces_hold_stepwise(pair41):
    for seed in range(6):
        report = forward_trace_check(4, 1, seed, length=150)
        assert report.ok, (seed, report.reason, report.index)
        report = forward_trace_check(7, 2, seed, length=150)
        assert report.ok, (seed, report.reason, report.index)


def test_forward_mapping_flags_an_invalid_source_trace(pair41):
    m, s = pair41.many, pair41.single
    e = pair41.pool[0]
    report = map_to_single_adversary(m, s, [ev_deliver(m.correct[0], madd(e))])
    assert not report.ok
    assert report.reason == "source-event-disabled"
    assert report.index == 0


# -- backward mapping -------------------------------------------------------


def test_backward_with_one_adversary_is_the_identity(pair41):
    s, m = pair41.single, pair41.many
    b = s.adversarial[0]
    e = pair41.pool[0]
    events = [
        ev_add(b, e),
        ev_broadcast(b, madd(e)),
        ev_deliver(b, madd(e)),
        ev_deliver(m.correct[0], madd(e)),
        NOP,
    ]
    report = map_to_many_adversaries(s, m, events)
    assert report.ok
    assert len(report.mapped_events) == len(events)
    assert [ev.tag for ev in report.mapped_events] == [ev.tag for ev in events]
    assert report.mapped_events[0].server == m.adversarial[0]


def test_backward_expands_each_pooled_reception_to_all_adversaries(pair72):
    s, m = pair72.single, pair72.many
    b = s.adversarial[0]
    e = pair72.pool[0]
    events = [
        ev_add(b, e),
        ev_broadcast(b, madd(e)),
        ev_deliver(b, madd(e)),
    ]
    report = map_to_many_adversaries(s, m, events)
    assert report.ok
    # leading stutter + 3 blocks of f=2
    assert len(report.mapped_events) == 1 + 3 * 2
    deliver_servers = [ev.server for ev in report.mapped_events
                       if ev.tag == "brb_deliver"]
    assert deliver_servers == list(m.adversarial)
    non_reception_nops = [ev.tag for ev in report.mapped_events[:5]]
    assert non_reception_nops == ["nop", "add", "nop", "brb_broadcast", "nop"]


def test_backward_mapping_random_traces_hold_blockwise():
    for seed in range(6):
        report = backward_trace_check(4, 1, seed, length=150)
        assert report.ok, (seed, report.reason, report.index)
        report = backward_trace_check(7, 2, seed, length=150)
        assert report.ok, (seed, report.reason, report.index)


# -- generator, lemma, determinism -----------------------------------------


def test_generated_traces_are_replayable_and_deterministic(pair41):
    m = pair41.many
    a = generate_trace(m, random.Random("t"), 120, pair41.pool)
    b = generate_trace(m, random.Random("t"), 120, pair41.pool)
    assert a == b
    cfg = m.initial()
    for ev in a:
        assert m.enabled(cfg, ev)
        cfg = m.effect(cfg, ev)


def test_pooled_receptions_always_feed_knowledge(pair41):
    s = pair41.single
    events = generate_trace(s, random.Random(5), 150, pair41.pool)
    cfg = s.initial()
    assert unaccounted_received(s, cfg) == frozenset()
    for ev in events:
        cfg = s.effect(cfg, ev)
        assert unaccounted_received(s, cfg) == frozenset()


# -- counterexample bundles -------------------------------------------------


def test_event_json_roundtrip(pair72):
    events = generate_trace(pair72.many, random.Random(1), 80, pair72.pool)
    tags = {ev.tag for ev in events}
    assert len(tags) >= 7  # the mix covers most of the event alphabet
    for ev in events:
        assert event_from_json(event_to_json(ev)) == ev


def test_bundle_roundtrip_and_replay(tmp_path, pair41):
    report = forward_trace_check(4, 1, 2, length=100)
    assert report.ok
    bundle = bundle_failure("forward", 4, 1, 2, report)
    path = tmp_path / "bundle.json"
    save_bundle(path, bundle)
    again = load_bundle(path)
    assert again == bundle
    replayed = replay_bundle(again)
    assert replayed.ok
    assert replayed.mapped_events == report.mapped_events


def test_replaying_a_corrupted_bundle_reports_the_divergence(tmp_path):
    report = forward_trace_check(4, 1, 2, length=100)
    bundle = bundle_failure("forward", 4, 1, 2, report)
    first_send = next(i for i, d in enumerate(bundle["events"])
                      if d["tag"] in ("add", "brb_broadcast"))
    bundle["events"].pop(first_send)
    replayed = replay_bundle(bundle)
    assert not replayed.ok
    assert replayed.reason == "source-event-disabled"
    assert replayed.index is not None


def test_replaying_a_proposal_shaped_broadcast_reports_it_disabled(pair41):
    z = pair41.many.adversarial[0]
    bad = invalid_element(pair41)
    report = forward_trace_check(4, 1, 2, length=20)
    bundle = bundle_failure("forward", 4, 1, 2, report)
    bundle["events"].insert(3, event_to_json(ev_broadcast(z, proposal(1, {bad}))))
    replayed = replay_bundle(bundle)
    assert not replayed.ok
    assert replayed.reason == "source-event-disabled"
    assert replayed.index == 3


def test_an_unknown_direction_is_rejected():
    report = forward_trace_check(4, 1, 2, length=20)
    with pytest.raises(ValueError, match="sideways"):
        bundle_failure("sideways", 4, 1, 2, report)
    bundle = bundle_failure("forward", 4, 1, 2, report)
    bundle["direction"] = "sideways"
    with pytest.raises(ValueError, match="sideways"):
        replay_bundle(bundle)


# -- golden traces ----------------------------------------------------------


def test_generated_and_mapped_traces_match_their_golden_digest():
    digest = hashlib.sha256()
    for n, f in ((4, 1), (7, 2)):
        for check in (forward_trace_check, backward_trace_check):
            r = check(n, f, 0, length=200)
            assert r.ok, (n, f, r.reason, r.index)
            digest.update(json.dumps(
                [event_to_json(ev) for ev in r.events]
                + [event_to_json(ev) for ev in r.mapped_events],
                sort_keys=True).encode())
    assert digest.hexdigest() == (
        "5b5f4c5f2f3ee33777f2be42a00b3917c5ded346f294c8982fc6e9dcce674d17")
