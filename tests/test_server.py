"""Server state machines: sequential reference, replicated fast path,
aggregation, epoch signing, and the epoch driver."""

import random

import pytest

from conftest import ServerCluster
from setchain.core import KeyStore, ProcessId, ProcessKind, hash_epoch, parse_attestation
from setchain.server import (
    AGG_DESK,
    AGG_PRODUCTION,
    AggConfig,
    CentralSetchain,
    EpochDriver,
    RequestRejected,
)
from setchain.simnet import NetConfig
from setchain.wire import (
    OP_ADD,
    OP_GET,
    STATUS_OK,
    decode_get_state,
    decode_response,
    encode_element_set,
    encode_mepochinc,
    encode_request,
)


# -- sequential reference ---------------------------------------------------


def seq_world():
    keys = KeyStore()
    author = ProcessId(9, ProcessKind.CLIENT)
    private = keys.keygen(author)
    chain = CentralSetchain(keys)
    return keys, author, private, chain


def test_central_add_then_epoch_stamps_exactly_the_new_elements():
    keys, author, private, chain = seq_world()
    a = keys.make_element(b"a", author, private)
    chain.add(a)
    assert chain.get().theset == {a}
    chain.epoch_inc(1)
    assert chain.get().history.get(1) == {a}
    b = keys.make_element(b"b", author, private)
    chain.add(b)
    chain.epoch_inc(2)
    assert chain.get().history.get(2) == {b}


def test_central_rejects_invalid_and_wrong_epoch():
    keys, author, private, chain = seq_world()
    from setchain.core import Element

    with pytest.raises(RequestRejected, match="invalid-element"):
        chain.add(Element(b"x", author, b"bad"))
    with pytest.raises(RequestRejected, match="stale-or-future-epoch"):
        chain.epoch_inc(2)
    chain.epoch_inc(1)
    assert chain.get().history.get(1) == frozenset()  # empty epochs are fine


# -- replicated fast path ---------------------------------------------------


def test_fresh_server_snapshot_is_empty():
    c = ServerCluster()
    snap = c.correct[0].get()
    assert (snap.theset, snap.epoch) == (frozenset(), 0)
    assert snap.history.epoch == 0


def test_get_is_pure_between_events():
    c = ServerCluster()
    s = c.correct[0]
    assert s.get() == s.get()


def test_add_of_invalid_element_is_rejected_without_side_effects():
    c = ServerCluster()
    s = c.correct[0]
    before = s.get()
    with pytest.raises(RequestRejected, match="invalid-element"):
        s.add(c.invalid_element())
    assert s.get() == before
    assert c.sim.pending_events() == 0  # nothing was broadcast


def test_add_spreads_to_every_correct_server():
    c = ServerCluster()
    e = c.element()
    c.correct[0].add(e)
    c.drain()
    for s in c.correct:
        assert e in s.theset


def test_duplicate_add_after_delivery_is_rejected():
    c = ServerCluster()
    e = c.element()
    c.correct[0].add(e)
    c.drain()
    with pytest.raises(RequestRejected, match="already-present"):
        c.correct[0].add(e)


def test_duplicate_add_before_delivery_converges_to_one_copy():
    c = ServerCluster()
    e = c.element()
    c.correct[0].add(e)
    c.correct[1].add(e)  # not yet delivered anywhere, so also accepted
    c.drain()
    for s in c.correct:
        assert sum(1 for x in s.theset if x == e) == 1


def test_add_then_epoch_lands_in_history_everywhere():
    c = ServerCluster()
    e = c.element()
    c.correct[0].add(e)
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    for s in c.correct:
        assert s.epoch == 1
        assert s.history.get(1) == frozenset([e])
        assert e in s.theset


def test_epoch_inc_with_wrong_h_is_rejected_and_silent():
    c = ServerCluster()
    with pytest.raises(RequestRejected, match="stale-or-future-epoch"):
        c.correct[0].epoch_inc(2)
    assert c.sim.pending_events() == 0


def test_concurrent_epoch_inc_stamps_once():
    c = ServerCluster()
    e = c.element()
    c.correct[0].add(e)
    c.drain()
    c.correct[0].epoch_inc(1)
    c.correct[1].epoch_inc(1)
    c.drain()
    for s in c.correct:
        assert s.epoch == 1
        assert s.history.get(1) == frozenset([e])
    # each server proposed exactly once despite hearing two announcements
    assert set(c.service.proposals_for(1)) == set(c.correct_pids)
    assert c.service.extra_proposals == []


def test_batch_delivery_validates_per_element():
    c = ServerCluster()
    s = c.correct[0]
    good, bad = c.element(), c.invalid_element()
    s._deliver_add(frozenset([good, bad]))
    assert good in s.theset and bad not in s.theset


@pytest.mark.parametrize("agg", [None, AggConfig(max_batch=50, max_wait=10_000)],
                         ids=["per-element", "batched"])
def test_batch_delivery_inserts_exactly_the_fresh_valid_elements(agg):
    events = []
    c = ServerCluster(agg=agg, state_observer=lambda pid, event, payload:
                      events.append((pid, event, payload)))
    s = c.correct[0]
    present, invalid, queued = c.element(), c.invalid_element(), c.element()
    fresh = [c.element() for _ in range(5)]
    bystander = c.element()  # queued, but not in the batch
    s._deliver_add(frozenset([present]))
    for e in (queued, bystander):
        if agg is None:
            s.tobroadcast[e] = c.sim.now  # per-element servers never queue
        else:
            s.add(e)
    assert list(s.tobroadcast) == [queued, bystander]
    before, unstamped_before = set(s.theset), set(s._unstamped)
    events.clear()
    s._deliver_add(frozenset([present, invalid, queued, *fresh]))
    gained = {queued, *fresh}
    assert s.theset == before | gained
    assert s._unstamped == unstamped_before | gained
    assert events == [(s.pid, "insert",
                       tuple(sorted(gained, key=lambda e: e.wire)))]
    assert list(s.tobroadcast) == [bystander]


def test_future_epoch_announcement_is_buffered_and_replayed():
    c = ServerCluster(n_byz=1)
    byz = c.byz[c.byz_pids[0]]
    byz.brb_broadcast(encode_mepochinc(3), c.pids)
    c.drain()
    assert all(s.pending_epochinc == {3} for s in c.correct)
    c.correct[0].epoch_inc(1)
    c.drain()
    c.correct[0].epoch_inc(2)
    c.drain()  # stamping 2 replays the buffered announcement for 3
    for s in c.correct:
        assert s.epoch == 3
        assert s.pending_epochinc == set()


def test_stale_epoch_announcement_is_dropped():
    c = ServerCluster(n_byz=1)
    c.correct[0].epoch_inc(1)
    c.drain()
    byz = c.byz[c.byz_pids[0]]
    byz.brb_broadcast(encode_mepochinc(1), c.pids)  # long decided
    c.drain()
    assert all(s.epoch == 1 for s in c.correct)
    assert all(1 not in s.pending_epochinc for s in c.correct)


def test_set_deliver_merges_union_and_advances_epoch():
    c = ServerCluster()
    s = c.correct[0]
    a, b = c.element(), c.element()
    propset = {c.correct_pids[1]: frozenset([a]),
               c.correct_pids[2]: frozenset([a, b])}
    # oracle: valid, unstamped elements of the union
    expected = {e for es in propset.values() for e in es
                if c.keys.valid(e) and e not in s.history}
    s.on_set_deliver(1, propset)
    assert s.history.get(1) == expected == {a, b}
    assert s.epoch == 1
    assert expected <= s.theset


@pytest.mark.parametrize("h", [0, 2])
def test_out_of_order_set_delivery_is_refused_without_side_effects(h):
    c = ServerCluster()
    s = c.correct[0]
    before = s.get()
    with pytest.raises(RuntimeError, match="deliver in order"):
        s.on_set_deliver(h, {c.correct_pids[1]: frozenset([c.element()])})
    assert s.get() == before and s.epoch == 0


def test_stamped_elements_are_never_stamped_twice():
    c = ServerCluster(n_byz=1)
    a = c.element()
    c.correct[0].add(a)
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    byz = c.byz[c.byz_pids[0]]
    byz.propose(2, frozenset([a]))  # replay a stamped element
    c.correct[0].epoch_inc(2)
    c.drain()
    for s in c.correct:
        assert s.epoch == 2
        assert s.history.get(2) == frozenset()
        assert s.history.get(1) == frozenset([a])


def test_invalid_elements_in_decided_sets_are_excluded():
    c = ServerCluster(n_byz=1)
    byz = c.byz[c.byz_pids[0]]
    byz.propose(1, frozenset([c.invalid_element()]))
    c.correct[0].epoch_inc(1)
    c.drain()
    for s in c.correct:
        assert s.epoch == 1
        assert s.history.get(1) == frozenset()


def test_byzantine_valid_proposal_is_stamped_like_a_client_add():
    c = ServerCluster(n_byz=1)
    z = c.element(b"byz-sourced")  # valid, just proposed rather than added
    c.byz[c.byz_pids[0]].propose(1, frozenset([z]))
    c.correct[0].epoch_inc(1)
    c.drain()
    for s in c.correct:
        assert z in s.theset
        assert z in s.history.get(1)


@pytest.mark.parametrize("agg", [None, AggConfig(max_batch=4, max_wait=300)],
                         ids=["per-element", "batched"])
@pytest.mark.parametrize("seed", [0, 1])
def test_unstamped_set_and_proposals_track_every_stamp(agg, seed):
    """After every insert and stamp, ``_unstamped`` is the set minus the
    history and no proposal outlives the epoch it was for.  A Byzantine
    slot keeps proposing stamped, fresh and invalid elements."""
    checked = []

    def observe(pid, event, payload):
        s = c.servers[pid]
        assert s._unstamped == s.theset - s.history.union()
        assert all(h > s.epoch for h in s.prop)
        checked.append(event)

    c = ServerCluster(n_byz=1, seed=seed, agg=agg, state_observer=observe)
    rng = random.Random(seed)
    byz = c.byz[c.byz_pids[0]]

    def meddle():
        s = c.correct[0]
        stamped = sorted(s.history.union(), key=lambda e: e.wire)
        junk = {c.element(), c.invalid_element(b"junk-%d" % rng.randrange(99))}
        if stamped:
            junk.add(rng.choice(stamped))
        byz.propose(s.epoch + 1, frozenset(junk))

    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=250)
    driver.start()
    added = [c.element() for _ in range(60)]
    for i, e in enumerate(added):
        c.sim.schedule(rng.randrange(3_000), c.correct[i % 3].add, e)
    for t in range(100, 3_000, 400):
        c.sim.schedule(t, meddle)
    c.sim.run_until(3_000)
    driver.stop()
    c.drain()
    while any(s._unstamped for s in c.correct):
        c.correct[0]._flush()
        c.correct[0].epoch_inc(c.correct[0].epoch + 1)
        c.drain()
    assert checked.count("stamp") >= 3 * 8
    for s in c.correct:
        assert set(added) <= s.theset == s.history.union()
        assert s.prop == {}


# -- aggregation ------------------------------------------------------------


def agg_cluster(max_batch=3, max_wait=100, **kw):
    return ServerCluster(agg=AggConfig(max_batch=max_batch, max_wait=max_wait),
                         **kw)


def test_adds_buffer_until_batch_threshold_is_exceeded():
    c = agg_cluster()
    s = c.correct[0]
    es = [c.element() for _ in range(4)]
    for e in es[:3]:
        s.add(e)
    assert len(s.tobroadcast) == 3
    assert c.sim.counts.get("brb-init", 0) == 0
    s.add(es[3])  # 4 > max_batch triggers the flush
    assert s.tobroadcast == {}
    c.drain()
    assert c.sim.counts["brb-init"] == len(c.pids)  # one broadcast only
    for srv in c.correct:
        assert set(es) <= srv.theset


def test_oldest_entry_triggers_timeout_flush():
    c = agg_cluster(max_wait=100)
    s = c.correct[0]
    e = c.element()
    s.add(e)
    c.sim.run_until(100)
    assert all(e not in srv.theset for srv in c.correct)  # still buffered
    c.drain()
    assert all(e in srv.theset for srv in c.correct)
    first_init = min(x.t for x in c.sim.log if x.type == "brb-init")
    assert first_init >= 101


def test_timer_on_empty_buffer_broadcasts_nothing():
    c = agg_cluster(max_batch=1, max_wait=100)
    s = c.correct[0]
    s.add(c.element())
    s.add(c.element())  # 2 > 1: size flush empties the buffer
    c.drain()  # includes the later timer tick on an empty buffer
    assert c.sim.counts["brb-init"] == len(c.pids)


def test_set_deliver_prunes_pending_buffer():
    c = agg_cluster(max_batch=50, max_wait=10_000)
    a = c.element()
    c.correct[0].add(a)
    c.correct[1].add(a)  # buffered at server 1 as well
    # server 0 flushes early; the element gets stamped before 1 ever flushes
    c.correct[0]._flush()
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    assert a in c.correct[1].history.get(1)
    assert a not in c.correct[1].tobroadcast


def test_aggregation_presets_match_declared_constants():
    assert AGG_PRODUCTION == AggConfig(max_batch=1_000_000, max_wait=5_000_000)
    assert AGG_DESK == AggConfig(max_batch=1000, max_wait=5_000_000)


def test_agg_config_rejects_nonpositive_thresholds():
    with pytest.raises(ValueError):
        AggConfig(max_batch=0)


# -- epoch signing ----------------------------------------------------------


def test_every_correct_server_signs_each_stamped_epoch():
    c = ServerCluster(sign_epochs=True)
    a = c.element()
    c.correct[0].add(a)
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    digest = hash_epoch(frozenset([a]))
    for s in c.correct:
        attestations = {
            e.author: parse_attestation(e.payload)
            for e in s.theset if parse_attestation(e.payload) is not None
        }
        assert set(attestations) == set(c.correct_pids)  # one per signer
        assert set(attestations.values()) == {(1, digest)}


def test_identical_epochs_give_identical_digests_distinct_signatures():
    c = ServerCluster(sign_epochs=True)
    c.correct[0].add(c.element())
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    atts = [e for e in c.correct[0].theset
            if parse_attestation(e.payload) is not None]
    assert len({e.payload for e in atts}) == 1
    assert len({e.signature for e in atts}) == len(atts) == len(c.correct_pids)
    assert all(c.keys.valid(e) for e in atts)


# -- request handling over the network --------------------------------------


def test_rpc_add_and_get_round_trip():
    c = ServerCluster()
    client = ProcessId(200, ProcessKind.CLIENT)
    inbox = []
    net = c.sim.register(client, lambda frm, body: inbox.append((frm, body)))
    e = c.element()
    net.send(c.correct_pids[0], encode_request(OP_ADD, 1, e.wire))
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    net.send(c.correct_pids[0], encode_request(OP_GET, 2))
    c.drain()
    responses = {decode_response(b)[1]: b for _, b in inbox}
    op, _, status, _ = decode_response(responses[1])
    assert (op, status) == (OP_ADD, STATUS_OK)
    op, _, status, body = decode_response(responses[2])
    assert (op, status) == (OP_GET, STATUS_OK)
    theset, epochs, epoch = decode_get_state(body)
    assert e in theset and epoch == 1 and epochs[0] == frozenset([e])


def test_rpc_malformed_request_is_ignored():
    c = ServerCluster()
    client = ProcessId(200, ProcessKind.CLIENT)
    inbox = []
    net = c.sim.register(client, lambda frm, body: inbox.append(body))
    net.send(c.correct_pids[0], b"Q\x09garbage")
    c.drain()
    assert inbox == []


# -- epoch driver -----------------------------------------------------------


def test_epoch_driver_advances_epochs_at_the_configured_period():
    c = ServerCluster()
    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=200)
    driver.start()
    c.sim.run_until(10_000)
    epochs = {s.epoch for s in c.correct}
    assert epochs <= {49, 50}
    driver.stop()
    c.drain()
    assert len({s.epoch for s in c.correct}) == 1


def test_driver_against_sequential_reference():
    c = ServerCluster(seed=13)
    oracle = CentralSetchain(c.keys)
    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=300)
    driver.start()
    added = []
    for i in range(20):
        e = c.element()
        added.append(e)
        c.sim.schedule(i * 37, c.correct[i % len(c.correct)].add, e)
    c.sim.run_until(2_000)
    driver.stop()
    c.drain()
    # close the final epoch so stragglers are stamped
    while any(s._unstamped for s in c.correct):
        c.correct[0].epoch_inc(c.correct[0].epoch + 1)
        c.drain()
    for e in added:
        oracle.add(e)
    oracle.epoch_inc(1)
    stamped = c.correct[0].history.union()
    assert stamped == oracle.history.union() == set(added)
    # replica agreement, epoch by epoch
    images = {tuple(encode_element_set(s.history.get(i))
                    for i in range(1, s.epoch + 1))
              for s in c.correct}
    assert len(images) == 1
