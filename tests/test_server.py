"""Server state machines: sequential reference, replicated fast path,
aggregation, epoch signing, and the epoch driver."""

import hashlib
import itertools
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ServerCluster
from setchain.bench import (
    SafetyMonitor,
    _run_until_only_wait_timers,
    named_scenario,
    run_scenario,
)
from setchain.core import (
    Element,
    KeyStore,
    ProcessId,
    ProcessKind,
    hash_epoch,
    parse_attestation,
)
from setchain.server import (
    AGG_DESK,
    AggConfig,
    CentralSetchain,
    EpochDriver,
    RequestRejected,
)
from setchain.simnet import NetConfig
from setchain.wire import (
    ECHO,
    INIT,
    OP_ADD,
    OP_GET,
    READY,
    STATUS_OK,
    BrbFrame,
    Proposal,
    decode_broadcast_message,
    decode_brb,
    decode_get_state,
    decode_get_state_after,
    decode_response,
    encode_add_request_body,
    encode_brb,
    encode_element_set,
    encode_epoch,
    encode_get_request_body,
    encode_madd,
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


@given(st.lists(st.tuples(st.sampled_from(("add", "invalid", "epoch", "stale")),
                          st.integers(0, 5)), max_size=30))
def test_central_unstamped_set_is_theset_minus_history_after_every_op(ops):
    keys, author, private, chain = seq_world()
    pool = [keys.make_element(b"e%d" % i, author, private) for i in range(6)]
    for op, i in ops:
        try:
            if op == "add":
                chain.add(pool[i])
            elif op == "invalid":
                chain.add(Element(b"e%d" % i, author, b"bad"))
            elif op == "epoch":
                chain.epoch_inc(chain.epoch + 1)
            else:
                chain.epoch_inc(chain.epoch)
        except RequestRejected:
            pass
        assert chain._unstamped == chain.theset - chain.history.union()


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


def test_no_correct_server_sends_a_frame_to_itself():
    c = ServerCluster(n=4, f=1, n_byz=1)
    for i in range(3):
        c.correct[i].add(c.element())
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    sent = [x for x in c.sim.log if x.src in c.correct_pids]
    assert {x.src for x in sent if x.type == "brb-echo"} == set(c.correct_pids)
    assert [x for x in sent if x.src == x.dst] == []


def test_a_server_the_byzantine_origin_skipped_fetches_the_batch_and_stamps_it():
    # The Byzantine origin inits its add batch at two of the three correct
    # servers and echoes and readies it to all three: the third reaches
    # 2f + 1 readies without the payload and must fetch it.
    c = ServerCluster(n=4, f=1, n_byz=1)
    byz = c.byz[c.byz_pids[0]]
    e = c.element()
    payload = encode_madd((e,))
    digest = hashlib.sha256(payload).digest()
    byz.brb_broadcast(payload, c.correct_pids[:2])
    for phase in (ECHO, READY):
        byz.net.multicast(c.correct_pids,
                          encode_brb(BrbFrame(phase, byz.pid, digest, None)))
    c.drain()
    assert c.sim.counts["brb-fetch"] > 0 and c.sim.counts["brb-supply"] > 0
    c.correct[0].epoch_inc(1)
    c.drain()
    reference = c.correct[0].history
    for s in c.correct:
        assert e in s.history and s.history == reference


def test_epoch_inc_with_wrong_h_is_rejected_and_silent():
    c = ServerCluster()
    with pytest.raises(RequestRejected, match="stale-or-future-epoch"):
        c.correct[0].epoch_inc(2)
    assert c.sim.pending_events() == 0


def test_concurrent_epoch_inc_stamps_once():
    proposers = []
    c = ServerCluster(on_propose=lambda h, elements, by: proposers.append((h, by)))
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
    assert sorted(proposers) == [(1, pid) for pid in c.correct_pids]


def _digest(batch):
    """The digest a server keys a delivered batch by: its payload's sha256."""
    return hashlib.sha256(encode_madd(batch)).digest()


def _deliver(s, batch):
    s._deliver_add(_digest(batch), frozenset(batch))


def by_digest(*digests):
    return Proposal(digests=frozenset(digests))


def by_value(*elements):
    return Proposal(elements=frozenset(elements))


def test_batch_delivery_validates_per_element():
    c = ServerCluster()
    s = c.correct[0]
    good, bad = c.element(), c.invalid_element()
    _deliver(s, [good, bad])
    assert good in s.theset and bad not in s.theset
    assert s.open_batches == {_digest([good, bad]): frozenset([good])}


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
    _deliver(s, [present])
    for e in (queued, bystander):
        s.add(e, False)  # each kind of server queues a backup copy
    assert list(s.tobroadcast) == [queued, bystander]
    before, unstamped_before = set(s.theset), set(s._unstamped)
    events.clear()
    _deliver(s, [present, invalid, queued, *fresh])
    gained = {queued, *fresh}
    assert s.theset == before | gained
    assert s._unstamped == unstamped_before | gained
    assert s.open_batches[_digest([present, invalid, queued, *fresh])] == {
        present, *gained}
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
    propset = {c.correct_pids[1]: by_value(a),
               c.correct_pids[2]: by_value(a, b)}
    # oracle: valid, unstamped elements of the union
    expected = {e for p in propset.values() for e in p.elements
                if c.keys.valid(e) and e not in s.history}
    s.on_set_deliver(1, propset)
    assert s.history.get(1) == expected == {a, b}
    assert s.epoch == 1
    assert expected <= s.theset


def test_a_digest_named_by_only_f_proposers_stamps_nothing_and_holds_nothing():
    c = ServerCluster(n=7, f=2, n_byz=2)
    s = c.correct[0]
    e = c.element()
    s.add(e)
    c.drain()  # every correct server delivered e's batch
    (d,) = s.open_batches
    junk = bytes(32)  # a digest of no batch
    z1, z2 = c.byz_pids
    # f names each: the delivered batch by one correct and one Byzantine
    # proposer, the junk digest by the two Byzantine ones.
    s._queue_decision(1, {c.correct_pids[1]: by_digest(d),
                          z1: by_digest(d, junk), z2: by_digest(junk)})
    assert s.epoch == 1 and s.history.get(1) == frozenset()
    assert not s._held
    assert s.open_batches == {d: frozenset([e])}
    # f + 1 names certify the batch.
    s._queue_decision(2, {c.correct_pids[1]: by_digest(d),
                          c.correct_pids[2]: by_digest(d), z1: by_digest(d)})
    assert s.history.get(2) == frozenset([e])
    assert s.open_batches == {} and s._unstamped == set()


def test_a_certified_batch_not_yet_delivered_holds_its_decision_and_the_next():
    stamps = []
    c = ServerCluster(state_observer=lambda pid, event, payload: stamps.append(
        payload[0]) if event == "stamp" else None)
    s = c.correct[0]
    a, b, x = c.element(), c.element(), c.element()
    d = _digest([a, b])
    others = c.correct_pids[1:]
    s._queue_decision(1, {p: by_digest(d) for p in others})
    s._queue_decision(2, {others[0]: by_value(x)})
    assert s.epoch == 0 and [h for h, _ in s._held] == [1, 2] and not stamps
    _deliver(s, [a, b])
    assert stamps == [1, 2] and not s._held
    assert s.history.get(1) == {a, b} and s.history.get(2) == {x}
    assert s.open_batches == {}


def test_an_element_named_by_value_is_stamped_without_certification():
    c = ServerCluster(n_byz=1)
    s = c.correct[0]
    z = c.element(b"byz-sourced")
    s._queue_decision(1, {c.byz_pids[0]: by_value(z, c.invalid_element())})
    assert s.history.get(1) == {z} and z in s.theset
    assert s.open_batches == {} and not s._held


@pytest.mark.parametrize("h", [0, 2])
def test_out_of_order_set_delivery_is_refused_without_side_effects(h):
    c = ServerCluster()
    s = c.correct[0]
    before = s.get()
    with pytest.raises(RuntimeError, match="deliver in order"):
        s.on_set_deliver(h, {c.correct_pids[1]: by_value(c.element())})
    assert s.get() == before and s.epoch == 0


def test_stamped_elements_are_never_stamped_twice():
    c = ServerCluster(n_byz=1)
    a = c.element()
    c.correct[0].add(a)
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    byz = c.byz[c.byz_pids[0]]
    byz.propose(2, by_value(a))  # replay a stamped element
    c.correct[0].epoch_inc(2)
    c.drain()
    for s in c.correct:
        assert s.epoch == 2
        assert s.history.get(2) == frozenset()
        assert s.history.get(1) == frozenset([a])


def test_invalid_elements_in_decided_sets_are_excluded():
    c = ServerCluster(n_byz=1)
    byz = c.byz[c.byz_pids[0]]
    byz.propose(1, by_value(c.invalid_element()))
    c.correct[0].epoch_inc(1)
    c.drain()
    for s in c.correct:
        assert s.epoch == 1
        assert s.history.get(1) == frozenset()


def test_byzantine_valid_proposal_is_stamped_like_a_client_add():
    c = ServerCluster(n_byz=1)
    z = c.element(b"byz-sourced")  # valid, just proposed rather than added
    c.byz[c.byz_pids[0]].propose(1, by_value(z))
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
    history, no server has proposed past the next epoch, and every held
    epoch announcement is for a future epoch.  A Byzantine slot keeps
    proposing stamped, fresh and invalid elements, and announcing an epoch
    two ahead of a correct server."""
    checked = []
    held = []

    def observe(pid, event, payload):
        s = c.servers[pid]
        assert s._unstamped == s.theset - s.history.union()
        assert s._unstamped == set().union(*s.open_batches.values())
        assert s._proposed <= s.epoch + 1
        assert all(h > s.epoch for h in s.pending_epochinc)
        held.append(len(s.pending_epochinc))
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
        byz.propose(s.epoch + 1, by_value(*junk))
        byz.brb_broadcast(encode_mepochinc(s.epoch + 3), c.pids)

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
    assert any(held)
    for s in c.correct:
        assert set(added) <= s.theset == s.history.union()
        assert s._proposed <= s.epoch


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
    assert c.sim.counts["brb-init"] == len(c.pids) - 1  # one broadcast only
    for srv in c.correct:
        assert set(es) <= srv.theset


def test_adds_a_peer_batch_delivers_still_count_toward_the_threshold():
    c = agg_cluster()
    s = c.correct[0]
    es = [c.element() for _ in range(4)]
    s.add(es[0])
    s.add(es[1])
    _deliver(s, [es[0]])  # a peer's batch carries one queued add
    assert list(s.tobroadcast) == [es[1]]
    s.add(es[2])
    assert c.sim.counts.get("brb-init", 0) == 0
    s.add(es[3])  # the fourth add queued: 4 > max_batch flushes the three left
    assert s.tobroadcast == {}
    c.drain()
    assert c.sim.counts["brb-init"] == len(c.pids) - 1
    for srv in c.correct:  # the one flushed batch carries the other three
        assert set(es[1:]) <= srv.theset


def test_a_buffer_emptied_by_a_peer_batch_counts_afresh():
    c = agg_cluster()
    s = c.correct[0]
    es = [c.element() for _ in range(5)]
    s.add(es[0])
    s.add(es[1])
    _deliver(s, es[:2])  # every queued add delivered: the buffer is empty
    assert s.tobroadcast == {}
    for e in es[2:]:
        s.add(e)
    assert len(s.tobroadcast) == 3  # 3 queued since it was empty, not 5
    assert c.sim.counts.get("brb-init", 0) == 0


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
    timer = s.wait_timer  # armed by the first add
    s.add(c.element())  # 2 > 1: size flush empties the buffer
    assert timer.cancelled and s.wait_timer is None
    assert c.drain().sim.now < timer.at  # the run ends before it was due
    assert c.sim.counts["brb-init"] == len(c.pids) - 1


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


@pytest.mark.parametrize("max_wait", [AGG_DESK.max_wait, 50],
                         ids=["longer-than-the-run", "short"])
def test_quiescence_leaves_every_aggregation_buffer_empty(max_wait):
    """A non-empty buffer always has its max_wait timer pending, and an
    empty one has none, so at quiescence every buffer is empty, no timer
    is left and every add is in the set."""
    c = agg_cluster(max_batch=2, max_wait=max_wait)
    added = [c.element() for _ in range(6)]
    for t, e in zip((0, 1, 2), added):  # the third add flushes by size
        c.sim.schedule(t, c.correct[0].add, e)
    c.sim.schedule(30, c.correct[0].add, added[3])  # the pending timer re-arms
    c.sim.schedule(3, c.correct[1].add, added[0])  # queued at two servers
    c.sim.schedule(5, c.correct[1].add, added[4])
    c.sim.schedule(7, c.correct[2].add, added[5])
    c.sim.run_until(100)
    c.drain()
    assert c.sim.pending_events() == 0
    for s in c.correct:
        assert s.tobroadcast == {}
        assert s.wait_timer is None
        assert set(added) <= s.theset


@pytest.mark.parametrize("agg", [None, AggConfig(max_batch=2, max_wait=50)],
                         ids=["per-element", "batched"])
def test_the_observer_sees_each_add_batch_before_its_init_leaves(agg, monkeypatch):
    """A server shows every add batch it broadcasts to its state observer,
    and then sends the batch's INIT: on the per-element path, and on the
    batched path through both a threshold and a timer flush."""
    events = []  # ("broadcast" | "init", server, payload), in order

    def observe(pid, event, payload):
        if event == "broadcast":
            events.append((event, pid, payload))

    c = ServerCluster(agg=agg, state_observer=observe)
    multicast = c.sim._multicast

    def spy(frm, tos, body):
        if body[:1] == b"B":
            frame = decode_brb(body)
            if (frame.phase == INIT and frame.origin == frm
                    and decode_broadcast_message(frame.payload)[0] == "add"):
                events.append(("init", frm, frame.payload))
        multicast(frm, tos, body)

    monkeypatch.setattr(c.sim, "_multicast", spy)
    added = [c.element() for _ in range(7)]
    for i, e in enumerate(added):  # batched: the first 3 flush by size
        c.correct[0 if i < 3 else i % 2].add(e)
    c.drain()
    shown = [(pid, p) for kind, pid, p in events[0::2] if kind == "broadcast"]
    sent = [(pid, p) for kind, pid, p in events[1::2] if kind == "init"]
    assert len(events) == 2 * len(shown) and shown == sent
    batches = [decode_broadcast_message(p)[1] for _, p in shown]
    assert len(batches) == (7 if agg is None else 3)
    assert frozenset().union(*batches) == frozenset(added)
    assert all(set(added) <= s.theset for s in c.correct)


def _batches_sent(c, s):
    """The add batch of each INIT that ``s`` sent and a peer received."""
    bodies = dict.fromkeys(x.body for x in c.sim.log
                           if x.type == "brb-init" and x.src == s.pid)
    messages = [decode_broadcast_message(decode_brb(b).payload) for b in bodies]
    return [value for kind, value in messages if kind == "add"]


def test_a_backup_copy_is_left_out_of_exactly_one_threshold_flush():
    c = agg_cluster(max_batch=3, max_wait=10_000)
    s0, s1 = c.correct[:2]
    shared = [c.element() for _ in range(3)]
    for e in shared:  # s0 holds the primary copies, s1 the backups
        s0.add(e)
        s1.add(e, False)
    s0.add(own := c.element())  # 4 > 3: s0 flushes its primaries
    s1.add(orphan := c.element(), False)  # its primary reached no server
    assert set(s1.tobroadcast) == set(shared + [orphan])  # 4 > 3: all left out
    c.sim.run_until(100)
    assert list(s1.tobroadcast) == [orphan]  # s0's batch unqueued the rest
    second = [c.element() for _ in range(4)]
    for e in second:
        s1.add(e)  # 4 > 3: this flush sends the backup it left out
    assert s1.tobroadcast == {}
    c.drain()
    assert _batches_sent(c, s0) == [frozenset(shared + [own])]
    assert _batches_sent(c, s1) == [frozenset([orphan] + second)]
    s0.epoch_inc(1)
    c.drain()
    for s in c.correct:  # each add crossed the network once and is stamped once
        assert s.history.entries == (frozenset(shared + [own, orphan] + second),)


def test_an_add_whose_primary_is_silent_is_stamped_by_the_second_cut():
    # The primary copies went to the silent Byzantine slot, which never
    # broadcasts them; the one correct holder has the backup copies.
    c = agg_cluster(max_batch=3, max_wait=1_000_000, n_byz=1)
    s = c.correct[0]
    s.add(left_out := c.element(), False)
    primaries = [c.element() for _ in range(3)]
    for e in primaries:
        s.add(e)  # 4 > 3: the threshold flush leaves the backup out
    assert list(s.tobroadcast) == [left_out]
    s.add(fresh := c.element(), False)  # queued since that flush
    s.epoch_inc(1)
    c.sim.run_until(1_000)  # far short of max_wait
    assert set(s.tobroadcast) == {left_out, fresh}  # queued since no proposal
    for srv in c.correct:  # the first cut's proposal named neither backup
        assert srv.epoch == 1 and not {left_out, fresh} & srv.history.union()
    s.epoch_inc(2)
    c.sim.run_until(2_000)
    assert s.tobroadcast == {}
    assert _batches_sent(c, s) == [frozenset(primaries)]
    for srv in c.correct:  # the second cut's proposal named both
        assert srv.epoch == 2 and {left_out, fresh} <= srv.history.get(2)
    assert len({srv.history.entries for srv in c.correct}) == 1


def test_a_backup_copy_is_named_from_the_second_cut_after_it_is_queued():
    named = {}  # instance -> the adds s named by value

    def on_propose(h, proposal, by):
        if by == s.pid:
            named[h] = proposal.elements

    c = agg_cluster(max_batch=10, max_wait=1_000_000, n_byz=1,
                    on_propose=on_propose)
    s = c.correct[0]
    s.add(primary := c.element())
    s.add(backup := c.element(), False)  # its primary copy is at the silent slot
    s.epoch_inc(1)
    c.sim.run_until(1_000)
    assert named[1] == {primary}
    assert list(s.tobroadcast) == [backup]
    s.add(later := c.element(), False)  # queued since the first proposal
    s.epoch_inc(2)
    c.sim.run_until(2_000)
    assert named[2] == {backup}
    assert list(s.tobroadcast) == [later]
    for srv in c.correct:  # each add stamped by the one proposal naming it
        assert srv.history.entries == (frozenset([primary]), frozenset([backup]))


def test_a_flush_between_a_proposal_and_its_decision_leaves_out_the_adds_it_names():
    c = agg_cluster(max_batch=3, max_wait=10_000)
    s = c.correct[0]
    named = [c.element() for _ in range(2)]
    for e in named:
        s.add(e)
    s.epoch_inc(1)
    while s._proposed < 1 and c.sim.now < 1_000:
        c.sim.run_until(c.sim.now + 1)
    assert s._proposed == 1 and s.epoch == 0  # proposed, not yet decided
    later = [c.element() for _ in range(2)]
    for e in later:
        s.add(e)  # 4 > 3: the flush leaves out what the proposal names
    assert set(s.tobroadcast) == set(named)
    while s.epoch < 1 and c.sim.now < 1_000:
        c.sim.run_until(c.sim.now + 1)
    assert s.epoch == 1 and set(named) <= s.history.get(1)  # decided
    assert s.tobroadcast == {}
    c.drain()
    s.epoch_inc(2)
    c.drain()
    assert _batches_sent(c, s) == [frozenset(later)]
    for srv in c.correct:  # every add stamped once
        assert srv.history.union() == frozenset(named + later)
        assert sum(map(len, srv.history.entries)) == len(named + later)


def test_adds_whose_proposal_missed_its_decision_go_in_the_next_flush():
    c = agg_cluster(max_batch=3, max_wait=10_000, n_byz=1)
    s = c.correct[0]
    named = [c.element() for _ in range(2)]
    for e in named:
        s.add(e)
    peer = c.correct[1]
    peer._deliver_epochinc(1)  # the peer's proposal opens instance 1 early
    c.sim.run_until(20)
    deadline = c.service._instances[1].deadline
    c.sim.schedule(deadline, s._deliver_epochinc, 1)  # s proposes too late
    while s.epoch < 1 and c.sim.now < 1_000:
        c.sim.run_until(c.sim.now + 1)
    assert s._proposed == 1 and s.history.get(1) == frozenset()
    assert list(c.service.decided(1).propset) == [peer.pid]
    assert set(s.tobroadcast) == set(named)  # proposed, not stamped
    later = [c.element() for _ in range(2)]
    for e in later:
        s.add(e)  # 4 > 3: decision 1 is stamped, so the flush sends all
    assert s.tobroadcast == {}
    c.drain()
    assert _batches_sent(c, s) == [frozenset(named + later)]


# -- unbatched backup copies ------------------------------------------------


@pytest.mark.parametrize("name, seed", [
    *((f"safety-n{n}-fast-none", seed) for n in (4, 7, 10) for seed in (0, 1)),
    ("stock", 0),
])
def test_each_add_is_broadcast_once_when_every_primary_is_correct(
        name, seed, monkeypatch):
    copies = Counter()  # element -> add batches that carried it
    observe = SafetyMonitor.observe

    def counting(self, pid, event, payload):
        if event == "broadcast":
            copies.update(decode_broadcast_message(payload)[1])
        observe(self, pid, event, payload)

    monkeypatch.setattr(SafetyMonitor, "observe", counting)
    report = run_scenario(named_scenario(name).with_seed(seed))
    assert report.ok and report.algorithm == "fast"
    assert len(copies) == report.adds_attempted
    assert set(copies.values()) == {1}  # no backup holder broadcast its copy


def test_an_unbatched_backup_whose_primary_is_silent_broadcasts_after_the_wait():
    # The primary copy went to the silent Byzantine slot, which never
    # broadcasts it; the one correct holder has the backup copy.
    broadcasts = []

    def observe(pid, event, payload):
        if event == "broadcast":
            broadcasts.append((c.sim.now, pid, payload))

    c = ServerCluster(n_byz=1, net=NetConfig(latency_max=7),
                      state_observer=observe)
    s = c.correct[0]
    c.sim.run_until(3)
    s.add(e := c.element(), False)
    wait = 4 * 7  # four hops of at most latency_max each
    assert s.backup_wait == wait
    c.sim.run_until(3 + wait - 1)
    assert broadcasts == [] and list(s.tobroadcast) == [e]
    c.sim.run_until(3 + wait)
    assert broadcasts == [(3 + wait, s.pid, encode_madd((e,)))]
    assert s.tobroadcast == {}
    c.drain()
    s.epoch_inc(1)
    c.drain()
    for srv in c.correct:
        assert srv.history.entries == (frozenset([e]),)


@pytest.mark.parametrize("proc_cost", [0, 6], ids=["on-time", "busy"])
def test_an_unbatched_backup_broadcasts_only_if_its_primary_is_late(proc_cost):
    # A busy receiver takes proc_cost ticks per frame, which the wait does
    # not cover: the correct primary's batch reaches the backup holder late.
    broadcasts = []  # (sender, whether it had delivered the add)

    def observe(pid, event, payload):
        if event == "broadcast":
            broadcasts.append((pid, e in c.servers[pid].theset))

    c = ServerCluster(net=NetConfig(proc_cost=proc_cost),
                      state_observer=observe)
    primary, backup = c.correct[:2]
    e = c.element()
    primary.add(e)
    backup.add(e, False)
    c.drain()
    if proc_cost:
        assert broadcasts == [(primary.pid, False), (backup.pid, False)]
    else:
        assert broadcasts == [(primary.pid, False)]
    assert backup.tobroadcast == {}
    primary.epoch_inc(1)
    c.drain()
    for srv in c.correct:
        assert srv.history.entries == (frozenset([e]),)


def test_aggregation_presets_match_declared_constants():
    assert AGG_DESK == AggConfig(max_batch=1000, max_wait=5_000_000)


def test_agg_config_rejects_nonpositive_thresholds():
    with pytest.raises(ValueError):
        AggConfig(max_batch=0, max_wait=1)


# -- epoch signing ----------------------------------------------------------


def signed_epochs(c, epochs=2):
    """Adds one element and cuts an epoch, ``epochs`` times; returns the
    elements, in epoch order."""
    added = []
    for h in range(1, epochs + 1):
        added.append(e := c.element())
        c.correct[0].add(e)
        c.drain()
        c.correct[0].epoch_inc(h)
        c.drain()
    return added


def test_every_correct_server_signs_each_stamped_epoch():
    """Epoch 1's attestations are stamped in epoch 2, at every server."""
    c = ServerCluster(sign_epochs=True)
    a, _ = signed_epochs(c)
    digest = hash_epoch(frozenset([a]))
    for s in c.correct:
        attestations = {
            e.author: parse_attestation(e.payload)
            for e in s.history.get(2) if parse_attestation(e.payload) is not None
        }
        assert set(attestations) == set(c.correct_pids)  # one per signer
        assert set(attestations.values()) == {(1, digest)}


def test_identical_epochs_give_identical_digests_distinct_signatures():
    c = ServerCluster(sign_epochs=True)
    signed_epochs(c)
    atts = [e for e in c.correct[0].history.get(2)
            if parse_attestation(e.payload) is not None]
    assert len({e.payload for e in atts}) == 1
    assert len({e.signature for e in atts}) == len(atts) == len(c.correct_pids)
    assert all(c.keys.valid(e) for e in atts)


def drive_signing(c, epochs=8):
    """Adds at every correct server of ``c`` for ``epochs`` periods of an
    epoch driver; then the driver stops, and, as a scenario run's drain
    does, ``c`` runs until only flush timers are left and cuts one more
    epoch, until every correct server has stamped its whole set."""
    period = 150
    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=period)
    driver.start(period)
    rng = random.Random(7)
    for i in range(30):
        e = c.element()
        c.sim.schedule(rng.randrange(epochs * period), c.correct[i % 3].add, e,
                       i % 2 == 0)
    c.sim.run_until(epochs * period + period // 2)
    driver.stop()
    for _ in range(10):
        _run_until_only_wait_timers(c.sim, c.correct)
        if all(s.epoch == c.correct[0].epoch and s.theset == s.history.union()
               for s in c.correct):
            return c
        driver.cut()
    raise AssertionError("drain ended before every element was stamped")


def attestations_in(entry):
    """{signer: (h, digest)} of the attestations in ``entry``."""
    return {e.author: parse_attestation(e.payload)
            for e in entry if parse_attestation(e.payload) is not None}


def test_an_unbatched_signer_broadcasts_no_attestation():
    """Its attestations ride its proposals: no add batch it broadcasts
    carries one, yet every epoch but the last has them stamped."""
    batches = []

    def observe(pid, event, payload):
        if event == "broadcast":
            batches.append(decode_broadcast_message(payload)[1])

    c = drive_signing(ServerCluster(sign_epochs=True, state_observer=observe))
    assert len(batches) == 30
    assert not [e for batch in batches for e in batch
                if parse_attestation(e.payload) is not None]
    history = c.correct[0].history
    assert history.epoch >= 8
    for h in range(1, history.epoch):
        assert attestations_in(history.get(h + 1)).keys() == set(c.correct_pids)


def test_each_servers_epoch_h_attestation_is_stamped_in_epoch_h_plus_1_everywhere():
    c = drive_signing(ServerCluster(sign_epochs=True))
    reference = c.correct[0].history
    for s in c.correct:
        assert s.history == reference
    for h in range(1, reference.epoch):
        signed = (h, hash_epoch(reference.get(h)))
        for s in c.correct:
            assert attestations_in(s.history.get(h + 1)) == dict.fromkeys(
                c.correct_pids, signed)
    # the last epoch's attestations wait, queued, for a next cut
    last = (reference.epoch, hash_epoch(reference.get(reference.epoch)))
    for s in c.correct:
        assert [parse_attestation(e.payload) for e in s.tobroadcast] == [last]


def test_an_attestation_whose_proposal_missed_its_window_is_named_at_the_next_cut():
    named = {}  # instance -> the adds s named by value

    def on_propose(h, proposal, by):
        if by == s.pid:
            named[h] = proposal.elements

    c = ServerCluster(sign_epochs=True, on_propose=on_propose)
    s, others = c.correct[0], c.correct[1:]
    signed_epochs(c, epochs=1)
    [attestation] = s.tobroadcast
    assert parse_attestation(attestation.payload) == (1, hash_epoch(s.history.get(1)))
    for peer in others:  # the peers' proposals open instance 2 early
        peer._deliver_epochinc(2)
    c.sim.run_until(c.sim.now + 20)
    deadline = c.service._instances[2].deadline
    c.sim.schedule(deadline, s._deliver_epochinc, 2)  # s proposes too late
    c.drain()
    assert named[2] == {attestation}
    assert s.pid not in c.service.decided(2).propset
    for srv in c.correct:  # the peers' attestations are stamped, not s's
        assert attestations_in(srv.history.get(2)).keys() == {p.pid for p in others}
    assert attestation in s.tobroadcast
    s.epoch_inc(3)
    c.drain()
    assert attestation in named[3]
    for srv in c.correct:
        assert attestation in srv.history.get(3)
        assert attestation not in srv.tobroadcast


@pytest.mark.parametrize("agg", [None, AggConfig(max_batch=4, max_wait=300)],
                         ids=["per-element", "batched"])
def test_a_signing_cluster_passes_every_safety_check_while_it_runs(agg):
    """Every proposal names by value what its server queued (the
    attestations included), and every stamped attestation has an origin."""
    c = ServerCluster(agg=agg, sign_epochs=True,
                      state_observer=lambda *event: monitor.observe(*event),
                      on_propose=lambda *proposal: monitor.on_propose(*proposal))
    monitor = SafetyMonitor(c.sim, c.keys)
    for s in c.correct:
        monitor.attach(s)
    drive_signing(c)
    assert monitor.violations == []
    stamped = c.correct[0].history.union()
    for h in range(1, c.correct[0].epoch):
        assert {e.author for e in stamped
                if parse_attestation(e.payload) == (
                    h, hash_epoch(c.correct[0].history.get(h)))} == set(c.correct_pids)


# -- request handling over the network --------------------------------------


def get_request(rid, have):
    return encode_request(OP_GET, rid, encode_get_request_body(have))


def test_rpc_add_and_get_round_trip():
    c = ServerCluster()
    client = ProcessId(200, ProcessKind.CLIENT)
    inbox = []
    net = c.sim.register(client, lambda frm, body: inbox.append((frm, body)))
    e = c.element()
    net.send(c.correct_pids[0],
             encode_request(OP_ADD, 1, encode_add_request_body(e, True)))
    c.drain()
    c.correct[0].epoch_inc(1)
    c.drain()
    net.send(c.correct_pids[0], get_request(2, have=0))
    c.drain()
    responses = {decode_response(b)[1]: b for _, b in inbox}
    op, _, status, _ = decode_response(responses[1])
    assert (op, status) == (OP_ADD, STATUS_OK)
    op, _, status, body = decode_response(responses[2])
    assert (op, status) == (OP_GET, STATUS_OK)
    theset, epochs, epoch = decode_get_state(body)
    assert e in theset and epoch == 1 and epochs[0] == frozenset([e])


def reference_get_state(s, have) -> bytes:
    """A server's get body for a reader holding ``have`` of its epochs,
    encoded field by field from its state."""
    base = have if have <= s.epoch else 0
    unstamped = s.theset - s.history.union()
    out = [struct.pack(">QQI", s.epoch, base, len(unstamped)),
           encode_element_set(unstamped)]
    for es in s.history.entries[base:]:
        out += [struct.pack(">I", len(es)), encode_element_set(es)]
    return b"".join(out)


@pytest.mark.parametrize("agg", [None, AggConfig(max_batch=4, max_wait=300)],
                         ids=["per-element", "batched"])
def test_get_reply_bytes_equal_a_whole_encode_after_every_stamp(agg):
    """A server's reply is byte for byte the field-by-field encoding of
    its state, for a reader holding no epochs and for one holding the
    epochs of its last read.
    Server 0 is read after every stamp, the others after every third, so
    they extend by several."""
    expected, inbox, rids = {}, [], itertools.count(1)
    held = {}  # epochs the second reader holds, per server

    def observe(pid, event, payload):
        srv = c.servers[pid]
        if event == "stamp" and (pid == c.correct_pids[0] or payload[0] % 3 == 0):
            for have in (0, held.get(pid, 0)):
                rid = next(rids)
                expected[rid] = reference_get_state(srv, have)
                srv.on_message(reader, get_request(rid, have))
            held[pid] = srv.epoch

    c = ServerCluster(agg=agg, sign_epochs=True, state_observer=observe)
    reader = ProcessId(200, ProcessKind.CLIENT)
    c.sim.register(reader, lambda frm, body: inbox.append(body))
    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=150)
    driver.start()
    rng = random.Random(5)
    for i in range(40):
        c.sim.schedule(rng.randrange(2_000), c.correct[i % 3].add, c.element())
    c.sim.run_until(2_000)
    driver.stop()
    c.drain()
    got = {}
    for body in inbox:
        op, rid, status, state = decode_response(body)
        assert (op, status) == (OP_GET, STATUS_OK)
        got[rid] = state
    assert len(expected) > 24 and got == expected


def stamped_server(epochs=4):
    """A quiet cluster whose server 0 has stamped ``epochs`` epochs and
    holds an unstamped element, and a reader's inbox."""
    c = ServerCluster()
    for h in range(1, epochs + 1):
        c.correct[0].add(c.element())
        c.drain()
        c.correct[0].epoch_inc(h)
        c.drain()
    c.correct[0].add(c.element())
    c.drain()
    inbox = []
    reader = ProcessId(200, ProcessKind.CLIENT)
    c.sim.register(reader, lambda frm, body: inbox.append(body))
    return c, c.correct[0], reader, inbox


def read_reply(c, srv, reader, inbox, body):
    srv.on_message(reader, encode_request(OP_GET, 1, body))
    c.drain()
    replies = [decode_response(b)[3] for b in inbox]
    inbox.clear()
    return replies


def test_a_reader_holding_k_of_e_epochs_gets_exactly_the_e_minus_k_after_them():
    c, srv, reader, inbox = stamped_server()
    E, entries = srv.epoch, srv.history.entries
    unstamped = encode_element_set(srv.theset - srv.history.union())
    assert E == 4 and unstamped != encode_element_set(())
    for k in range(E + 1):
        [state] = read_reply(c, srv, reader, inbox, encode_get_request_body(k))
        assert state[:16] == struct.pack(">QQ", E, k)
        assert state[20:] == unstamped + b"".join(encode_epoch(es)
                                                 for es in entries[k:])
        assert decode_get_state_after(state, entries[:k]) == (srv.theset, entries, E)


def test_a_reader_holding_more_epochs_than_the_server_gets_a_base_0_reply():
    c, srv, reader, inbox = stamped_server()
    for have in (srv.epoch + 1, 2**64 - 1):
        [state] = read_reply(c, srv, reader, inbox, encode_get_request_body(have))
        assert state == reference_get_state(srv, 0)
        theset, epochs, epoch = decode_get_state(state)
        assert (theset, epochs, epoch) == (srv.theset, srv.history.entries, srv.epoch)


def test_a_malformed_get_body_gets_no_reply_and_changes_nothing():
    c, srv, reader, inbox = stamped_server()
    before = srv.get()
    for body in (b"", b"\x00" * 7, b"\x00" * 9, b"\xff" * 16):
        assert read_reply(c, srv, reader, inbox, body) == []
    assert srv.get() == before


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(("add", "stamp", "read", "run")),
                              st.integers(0, 3)),
                    min_size=1, max_size=24),
       agg=st.sampled_from((None, AggConfig(max_batch=2, max_wait=40))))
def test_a_reader_rebuilds_each_servers_state_from_delta_replies(ops, agg):
    """Adds, stamps and reads at any server, with the network run only in
    part between them, so servers lag one another.  After every read the
    reader's state rebuilt from that server's replies, reusing the epochs
    it held, equals what the server held when it answered."""
    c = ServerCluster(agg=agg)
    reader = ProcessId(200, ProcessKind.CLIENT)
    inbox = []
    c.sim.register(reader, lambda frm, body: inbox.append(body))
    priors, rids = {}, itertools.count(1)
    for op, i in ops:
        srv = c.correct[i % len(c.correct)]
        if op == "add":
            srv.add(c.element())
        elif op == "stamp":
            try:
                srv.epoch_inc(srv.epoch + 1)
            except RequestRejected:
                pass
        elif op == "run":
            c.sim.run_until(c.sim.now + 40 * i)
        else:
            prior = priors.get(srv.pid, ())
            srv.on_message(reader, get_request(next(rids), len(prior)))
            snapshot = srv.get()
            while not inbox:
                c.sim.run_until(c.sim.now + 10)
            theset, epochs, epoch = decode_get_state_after(
                decode_response(inbox.pop())[3], prior)
            assert epochs[: len(prior)] == prior
            assert (theset, epochs, epoch) == (snapshot.theset,
                                               snapshot.history.entries,
                                               snapshot.epoch)
            priors[srv.pid] = epochs


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


def test_a_stopped_driver_cancels_its_pending_tick():
    c = ServerCluster()
    driver = EpochDriver(c.sim, c.correct[: c.f + 1], period=200)
    driver.start()
    c.sim.run_until(450)  # ticks at 0, 200 and 400; the next is due at 600
    driver.stop()
    assert c.sim.run_to_quiescence() < 600
    assert {s.epoch for s in c.correct} == {3}


def test_a_cut_asks_each_target_for_one_more_epoch_and_schedules_nothing():
    c = ServerCluster()
    driver = EpochDriver(c.sim, c.correct[: c.f + 1])
    driver.stop()  # a cut works whether or not the timer runs
    for epoch in (1, 2):
        driver.cut()
        c.drain()
        assert {s.epoch for s in c.correct} == {epoch}
        assert c.sim.pending_events() == 0


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
