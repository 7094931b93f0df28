"""Reliable-broadcast contract: validity, termination, agreement, no duplication."""

import hashlib
import itertools
import random

import pytest

from conftest import BrbWorld
from setchain.bench import PRESET_NAMES, preset
from setchain.brb import BrbEngine
from setchain.core import ProcessId, ProcessKind
from setchain.simnet import NetConfig, Simulation
from setchain.wire import (
    ECHO,
    FETCH,
    INIT,
    READY,
    SHARED_ORIGIN,
    SUPPLY,
    BrbFrame,
    classify,
    decode_brb,
    encode_brb,
)


def test_all_correct_cluster_delivers_everywhere_exactly_once():
    c = BrbWorld(n=4, f=0)
    c.engines[c.pids[0]].broadcast(b"m")
    c.drain()
    for pid in c.pids:
        assert c.deliveries(pid) == [(c.pids[0], b"m")]


def test_silent_byzantine_does_not_block_delivery():
    c = BrbWorld(n=4, f=1, n_byz=1)
    origin = c.correct[0]
    c.engines[origin].broadcast(b"m")
    c.drain()
    for pid in c.correct:
        assert c.deliveries(pid) == [(origin, b"m")]


def test_origin_delivers_its_own_broadcast():
    c = BrbWorld(n=4, f=1, n_byz=1)
    origin = c.correct[1]
    c.engines[origin].broadcast(b"mine")
    c.drain()
    assert (origin, b"mine") in c.deliveries(origin)


def _byz_partial_init(subset_ids, extra_echo, seed):
    """Byzantine origin inits only a subset; optionally echoes to everyone."""
    c = BrbWorld(n=4, f=1, n_byz=1, seed=seed)
    byz = c.byz[0]
    payload = b"equiv"
    digest = hashlib.sha256(payload).digest()
    init = encode_brb(BrbFrame(INIT, byz, digest, payload))
    for pid in c.correct:
        if pid.id in subset_ids:
            c.handles[byz].send(pid, init)
    if extra_echo:
        echo = encode_brb(BrbFrame(ECHO, byz, digest, payload))
        ready = encode_brb(BrbFrame(READY, byz, digest, None))
        for pid in c.correct:
            c.handles[byz].send(pid, echo)
            c.handles[byz].send(pid, ready)
    c.drain()
    return [len(c.deliveries(pid)) for pid in c.correct]


def test_partial_init_is_all_or_nothing_across_subsets_and_schedules():
    correct_ids = [1, 2, 3]
    for size in (1, 2, 3):
        for subset in itertools.combinations(correct_ids, size):
            for extra_echo in (False, True):
                for seed in range(12):
                    counts = _byz_partial_init(set(subset), extra_echo, seed)
                    assert counts in ([0, 0, 0], [1, 1, 1]), (
                        subset, extra_echo, seed, counts)


def test_partial_init_without_help_never_reaches_quorum():
    # two of three correct servers inited: only 2 echoes < 2f+1, no delivery
    assert _byz_partial_init({1, 2}, extra_echo=False, seed=0) == [0, 0, 0]


def test_partial_init_with_byzantine_echo_completes():
    # 2 correct echoes + byzantine echo reach the 2f+1 quorum
    assert _byz_partial_init({1, 2}, extra_echo=True, seed=0) == [1, 1, 1]


def test_byzantine_echo_of_uninited_message_is_not_delivered():
    c = BrbWorld(n=4, f=1, n_byz=1)
    byz = c.byz[0]
    payload = b"phantom"
    digest = hashlib.sha256(payload).digest()
    echo = encode_brb(BrbFrame(ECHO, byz, digest, payload))
    ready = encode_brb(BrbFrame(READY, byz, digest, None))
    for pid in c.correct:
        c.handles[byz].send(pid, echo)
        c.handles[byz].send(pid, ready)
    c.drain()
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def _echo_and_ready_from(c, senders, origin):
    """Every sender echoes and readies an instance ``origin`` never began."""
    payload = b"never broadcast"
    digest = hashlib.sha256(payload).digest()
    echo = encode_brb(BrbFrame(ECHO, origin, digest, payload))
    ready = encode_brb(BrbFrame(READY, origin, digest, None))
    for handle in senders:
        for pid in c.correct:
            handle.send(pid, echo)
            handle.send(pid, ready)
    c.drain()


def _clients(c, count):
    return [c.sim.register(ProcessId(100 + i, ProcessKind.CLIENT),
                           lambda f, b: None) for i in range(count)]


def test_echoes_and_readies_from_clients_are_not_counted():
    # With f=1 the quorum is 3: one Byzantine server plus two clients would
    # make it if clients counted, and every correct server would deliver.
    c = BrbWorld(n=4, f=1, n_byz=1)
    senders = [c.handles[c.byz[0]]] + _clients(c, 2)
    _echo_and_ready_from(c, senders, origin=c.correct[0])
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def test_frames_from_non_peers_open_no_instance():
    c = BrbWorld(n=4, f=1)
    _echo_and_ready_from(c, _clients(c, 3), origin=c.correct[0])
    assert all(c.engines[pid].instances == {} for pid in c.correct)


def test_two_byzantine_echoes_at_larger_scale_are_still_insufficient():
    c = BrbWorld(n=7, f=2, n_byz=2)
    payload = b"phantom"
    digest = hashlib.sha256(payload).digest()
    for byz in c.byz:
        echo = encode_brb(BrbFrame(ECHO, byz, digest, payload))
        ready = encode_brb(BrbFrame(READY, byz, digest, None))
        for pid in c.correct:
            c.handles[byz].send(pid, echo)
            c.handles[byz].send(pid, ready)
    c.drain()
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def test_rebroadcast_of_identical_payload_is_idempotent():
    c = BrbWorld(n=4, f=1, n_byz=1)
    origin = c.correct[0]
    c.engines[origin].broadcast(b"m")
    c.engines[origin].broadcast(b"m")
    c.drain()
    for pid in c.correct:
        assert c.deliveries(pid) == [(origin, b"m")]


def test_distinct_payloads_are_both_delivered_without_ordering_guarantee():
    c = BrbWorld(n=4, f=1, n_byz=1, seed=5)
    origin = c.correct[0]
    c.engines[origin].broadcast(b"m1")
    c.engines[origin].broadcast(b"m2")
    c.drain()
    for pid in c.correct:
        assert sorted(p for _, p in c.deliveries(pid)) == [b"m1", b"m2"]


def test_no_broadcast_means_no_delivery():
    c = BrbWorld(n=4, f=1, n_byz=1, seed=2)
    byz = c.byz[0]
    for pid in c.correct:
        c.handles[byz].send(pid, b"\xff\x00garbage")
        c.handles[byz].send(pid, b"B\x07junk")
    c.drain()
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def test_init_claiming_another_origin_is_ignored():
    c = BrbWorld(n=4, f=1, n_byz=1)
    byz, victim = c.byz[0], c.correct[0]
    payload = b"forged"
    digest = hashlib.sha256(payload).digest()
    forged = encode_brb(BrbFrame(INIT, victim, digest, payload))  # wrong origin
    for pid in c.correct:
        c.handles[byz].send(pid, forged)
    c.drain()
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def test_equal_payloads_from_two_origins_are_two_instances():
    # Instances are keyed by origin and digest: two correct origins that
    # broadcast the same bytes, and an announcement of them, are delivered
    # once each, under each origin.
    c = BrbWorld(n=4, f=1, n_byz=1, seed=3)
    a, b = c.correct[:2]
    c.engines[a].broadcast(b"same")
    c.engines[b].broadcast(b"same")
    c.engines[a].announce(b"same")
    c.drain()
    want = sorted([(a, b"same"), (b, b"same"), (SHARED_ORIGIN, b"same")])
    for pid in c.correct:
        assert sorted(c.deliveries(pid)) == want
        assert len(c.engines[pid].instances) == 3


def test_mismatched_digest_payload_is_dropped():
    c = BrbWorld(n=4, f=1, n_byz=1)
    byz = c.byz[0]
    bad = encode_brb(BrbFrame(INIT, byz, b"\x00" * 32, b"payload"))
    for pid in c.correct:
        c.handles[byz].send(pid, bad)
    c.drain()
    assert all(c.deliveries(pid) == [] for pid in c.correct)


def test_engine_requires_quorum_capable_membership():
    sim = Simulation(NetConfig())
    pid = ProcessId(0)
    net = sim.register(pid, lambda f, b: None)
    with pytest.raises(ValueError):
        BrbEngine(net, (pid,), f=1, on_deliver=lambda o, d, p: None)


# -- announcements: one relay per payload, whoever starts it --------------------


@pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (10, 3)])
def test_f_plus_1_announcers_share_one_instance_delivered_once(n, f):
    c = BrbWorld(n=n, f=f, seed=n)
    c.sim.frame_classifier = classify
    payload = b"epoch 7"
    digests = {c.engines[pid].announce(payload) for pid in c.correct[: f + 1]}
    c.drain()
    (digest,) = digests
    for pid in c.correct:
        assert list(c.engines[pid].instances) == [(SHARED_ORIGIN, digest)]
        assert c.deliveries(pid) == [(SHARED_ORIGIN, payload)]
    # one init from each process to each other peer: its own announce, or
    # its relay of the first copy it received
    assert c.sim.counts == {"brb-init": n * (n - 1)}
    assert c.sim.delivered_total == n * (n - 1)
    assert sorted((e.src, e.dst) for e in c.sim.log) == [
        (a, b) for a in c.pids for b in c.pids if a != b]


@pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (10, 3)])
def test_one_correct_announcer_with_f_silent_slots_is_enough(n, f):
    c = BrbWorld(n=n, f=f, n_byz=f, seed=n)
    c.engines[c.correct[-1]].announce(b"epoch 7")
    c.drain()
    for pid in c.correct:
        assert c.deliveries(pid) == [(SHARED_ORIGIN, b"epoch 7")]
        assert len(c.engines[pid].instances) == 1


@pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (10, 3)])
def test_a_byzantine_shared_init_to_one_process_reaches_all_each_relaying_once(n, f):
    c = BrbWorld(n=n, f=f, n_byz=f, seed=n)
    c.sim.frame_classifier = classify
    payload = b"epoch 5"
    init = BrbFrame(INIT, SHARED_ORIGIN, hashlib.sha256(payload).digest(), payload)
    for _ in range(3):  # repeated copies change nothing
        c.inject(c.byz[0], init, c.correct[:1])
    c.drain()
    for pid in c.correct:
        assert c.deliveries(pid) == [(SHARED_ORIGIN, payload)]
        # exactly one init to each other peer, the Byzantine slots included
        assert sorted(e.dst for e in c.sim.log if e.src == pid) == [
            p for p in c.pids if p != pid]
    assert {e.type for e in c.sim.log} == {"brb-init"}


def _byzantine_announcement(c, subset, helps, announcer=None):
    """In ``c`` (n = 4, f = 1, one Byzantine slot), the Byzantine slot sends
    the shared-origin init of a payload to ``subset`` of the correct processes,
    adds its own echo and ready to all of them if it ``helps``, and sends
    each of them an init and a supply whose digest names that payload but
    whose bytes are another's.  Once that has drained, the correct process
    ``announcer`` (if any) announces the payload, which is returned."""
    byz = c.byz[0]
    payload, other = b"epoch 3", b"epoch 4"
    digest = hashlib.sha256(payload).digest()
    c.inject(byz, BrbFrame(INIT, SHARED_ORIGIN, digest, payload), subset)
    if helps:
        for phase in (ECHO, READY):
            c.inject(byz, BrbFrame(phase, SHARED_ORIGIN, digest, None), c.correct)
    for phase in (INIT, SUPPLY):  # decode_brb drops both: they do not bind
        c.inject(byz, BrbFrame(phase, SHARED_ORIGIN, digest, other), c.correct)
    c.drain()
    if announcer is not None:
        c.engines[announcer].announce(payload)
        c.drain()
    return payload


def test_a_byzantine_shared_init_to_a_subset_cannot_block_or_change_delivery():
    for size in (1, 2, 3):
        for ids in itertools.combinations(range(3), size):
            for helps in (False, True):
                for who in range(3):
                    for seed in range(3):
                        c = BrbWorld(n=4, f=1, n_byz=1, seed=seed)
                        payload = _byzantine_announcement(
                            c, [c.correct[i] for i in ids], helps, c.correct[who])
                        for pid in c.correct:
                            assert c.deliveries(pid) == [(SHARED_ORIGIN, payload)], (
                                ids, helps, who, seed, pid)
                            assert len(c.engines[pid].instances) == 1


def test_a_process_missing_the_shared_init_takes_a_correct_relay_past_a_non_binding_supply():
    # Two of three correct processes get the Byzantine init, with its echo
    # and ready; the third gets the payload from their relays, sends no
    # fetch, and drops the non-binding init and supply it also receives.
    c = BrbWorld(n=4, f=1, n_byz=1)
    c.sim.frame_classifier = classify
    a, b, skipped = c.correct
    payload = _byzantine_announcement(c, [a, b], helps=True)
    digest = hashlib.sha256(payload).digest()
    for pid in c.correct:
        assert c.deliveries(pid) == [(SHARED_ORIGIN, payload)]
    init = encode_brb(BrbFrame(INIT, SHARED_ORIGIN, digest, payload))
    to_skipped = [e for e in c.sim.log if e.dst == skipped]
    assert sorted(e.src for e in to_skipped if e.body == init) == [a, b]
    # from the Byzantine slot: its echo and ready, and a non-binding init
    # and supply
    assert sorted(e.type for e in to_skipped if e.src == c.byz[0]) == [
        "brb-echo", "brb-init", "brb-ready", "brb-supply"]
    # correct processes only relay: one init to each other peer, no fetch
    assert sorted((e.src, e.type) for e in c.sim.log if e.src in c.correct) == [
        (pid, "brb-init") for pid in c.correct for _ in range(3)]
    (inst,) = c.engines[skipped].instances.values()
    assert inst.delivered and not inst.fetched and inst.payload == payload


def test_an_announcer_that_relayed_a_peer_init_sends_nothing_more():
    peers = tuple(ProcessId(i) for i in range(4))
    others = (peers[0], peers[2], peers[3])
    net = _Recorder(peers[1])
    delivered = []  # with the number of calls made before each delivery
    engine = BrbEngine(net, peers, 1,
                       lambda o, d, p: delivered.append((o, d, p, len(net.calls))))
    payload = b"epoch 9"
    digest = hashlib.sha256(payload).digest()
    init = encode_brb(BrbFrame(INIT, SHARED_ORIGIN, digest, payload))
    engine.handle_frame(peers[2], init)  # any peer may start it
    # relayed to every other peer, the sender too, and then delivered
    assert net.calls == [(others, init)]
    assert delivered == [(SHARED_ORIGIN, digest, payload, 1)]
    engine.handle_frame(peers[3], init)  # a second announcer's copy
    assert engine.announce(payload) == digest  # and its own announce
    assert net.calls == [(others, init)] and len(delivered) == 1
    (inst,) = engine.instances.values()
    assert inst.delivered and inst.payload == payload
    assert (inst.echoes, inst.readies) == (None, None)


def test_shared_origin_digest_frames_open_no_instance_and_send_nothing():
    peers = tuple(ProcessId(i) for i in range(4))
    net = _Recorder(peers[1])
    delivered = []
    engine = BrbEngine(net, peers, 1, lambda o, d, p: delivered.append(p))
    payload = b"epoch 5"
    digest = hashlib.sha256(payload).digest()

    def flood():
        for phase in (ECHO, READY, FETCH):
            for frm in peers:
                engine.handle_frame(frm, encode_brb(
                    BrbFrame(phase, SHARED_ORIGIN, digest, None)))
        engine.handle_frame(peers[2], encode_brb(
            BrbFrame(SUPPLY, SHARED_ORIGIN, digest, payload)))

    flood()  # a quorum of echoes and readies, fetches and a supply
    assert engine.instances == {} and net.calls == [] and delivered == []
    assert engine.announce(payload) == digest
    net.calls.clear()
    flood()  # once delivered, a fetch draws no supply either
    assert net.calls == [] and delivered == [payload]
    (inst,) = engine.instances.values()
    assert (inst.echoes, inst.readies, inst.supplied) == (None, None, ())


# -- delivered instances keep their payload and flags ---------------------------


class _Recorder:
    """A net handle that keeps every frame an engine sends, and every call."""

    def __init__(self, pid):
        self.pid = pid
        self.sent = []
        self.calls = []

    def send(self, to, body):
        self.multicast((to,), body)

    def multicast(self, tos, body):
        self.calls.append((tos, body))
        self.sent.extend((to, body) for to in tos)


def _delivered_without_init():
    """An engine at process 1 of four (f = 1) that delivered process 0's
    payload from echoes, readies and one supply, so it never echoed."""
    peers = tuple(ProcessId(i) for i in range(4))
    net = _Recorder(peers[1])
    delivered = []
    engine = BrbEngine(net, peers, 1, lambda o, d, p: delivered.append((o, p)))
    origin, payload = peers[0], b"late init"
    digest = hashlib.sha256(payload).digest()
    for frm in peers[1:]:
        engine.handle_frame(frm, encode_brb(BrbFrame(ECHO, origin, digest, None)))
    for frm in peers[1:]:
        engine.handle_frame(frm, encode_brb(BrbFrame(READY, origin, digest, None)))
    assert delivered == [] and net.calls[-1] == (
        (peers[0], peers[2], peers[3]),
        encode_brb(BrbFrame(FETCH, origin, digest, None)))
    engine.handle_frame(peers[2], encode_brb(BrbFrame(SUPPLY, origin, digest, payload)))
    assert delivered == [(origin, payload)]
    net.sent.clear()
    return engine, net, peers, origin, payload, digest


def test_delivered_instances_keep_their_payload_and_drop_both_quorum_sets():
    c = BrbWorld(n=4, f=1, n_byz=1)
    c.engines[c.correct[0]].broadcast(b"m")
    c.drain()
    for pid in c.correct:
        (inst,) = c.engines[pid].instances.values()
        assert inst.delivered and inst.echoed and inst.readied
        assert (inst.payload, inst.echoes, inst.readies) == (b"m", None, None)

    engine, _, _, _, payload, _ = _delivered_without_init()
    (inst,) = engine.instances.values()
    assert inst.delivered and inst.fetched and not inst.echoed
    assert (inst.payload, inst.echoes, inst.readies) == (payload, None, None)


def test_late_init_from_the_origin_draws_exactly_one_echo():
    engine, net, peers, origin, payload, digest = _delivered_without_init()
    init = encode_brb(BrbFrame(INIT, origin, digest, payload))
    engine.handle_frame(peers[2], init)  # not from the origin: ignored
    assert net.sent == []
    engine.handle_frame(origin, init)
    engine.handle_frame(origin, init)  # a second init: already echoed
    # one echo to each other peer, in order; none to this process
    assert [to for to, _ in net.sent] == [p for p in peers if p != net.pid]
    assert {decode_brb(body) for _, body in net.sent} == {
        BrbFrame(ECHO, origin, digest, None)}
    (inst,) = engine.instances.values()
    assert inst.echoed and inst.payload == payload


def test_late_echo_and_ready_frames_send_nothing():
    engine, net, peers, origin, payload, digest = _delivered_without_init()
    echo = encode_brb(BrbFrame(ECHO, origin, digest, None))
    ready = encode_brb(BrbFrame(READY, origin, digest, None))
    supply = encode_brb(BrbFrame(SUPPLY, origin, digest, payload))
    for frm in peers:
        engine.handle_frame(frm, echo)
        engine.handle_frame(frm, ready)
        engine.handle_frame(frm, supply)
    assert net.sent == []
    (inst,) = engine.instances.values()
    assert (inst.payload, inst.echoes, inst.readies) == (payload, None, None)


# -- digest echoes: fetch a missing payload once --------------------------------


def test_a_process_the_byzantine_origin_skipped_fetches_the_payload_once():
    # The origin inits two of the three correct processes and adds its own
    # echo and ready: the third reaches 2f + 1 readies without the payload.
    c = BrbWorld(n=4, f=1, n_byz=1)
    c.sim.frame_classifier = classify
    byz, (a, b, skipped) = c.byz[0], c.correct
    payload = b"two of three"
    digest = hashlib.sha256(payload).digest()
    for pid in (a, b):
        c.handles[byz].send(pid, encode_brb(BrbFrame(INIT, byz, digest, payload)))
    for phase in (ECHO, READY):
        c.handles[byz].multicast(c.correct, encode_brb(BrbFrame(phase, byz, digest, None)))
    c.drain()
    assert all(c.deliveries(pid) == [(byz, payload)] for pid in c.correct)
    # one fetch frame to each other peer: a single multicast
    fetches = sorted((e.src, e.dst) for e in c.sim.log if e.type == "brb-fetch")
    assert fetches == [(skipped, to) for to in c.pids if to != skipped]
    supplies = sorted((e.src, e.dst) for e in c.sim.log if e.type == "brb-supply")
    assert supplies == [(a, skipped), (b, skipped)]
    assert c.engines[skipped].instances[(byz, digest)].fetched


def test_a_repeated_fetch_from_one_peer_draws_one_supply():
    peers = tuple(ProcessId(i) for i in range(4))
    net = _Recorder(peers[1])
    engine = BrbEngine(net, peers, 1, lambda o, d, p: None)
    origin, payload = peers[0], b"held"
    digest = hashlib.sha256(payload).digest()
    fetch = encode_brb(BrbFrame(FETCH, origin, digest, None))
    engine.handle_frame(peers[2], fetch)  # the payload is not held yet
    assert net.sent == [] and engine.instances == {}
    engine.handle_frame(origin, encode_brb(BrbFrame(INIT, origin, digest, payload)))
    net.sent.clear()
    for frm in (peers[2], peers[2], peers[3], peers[2], peers[3]):
        engine.handle_frame(frm, fetch)
    supply = encode_brb(BrbFrame(SUPPLY, origin, digest, payload))
    assert net.sent == [(peers[2], supply), (peers[3], supply)]


def test_an_unfetched_instance_ignores_a_supply():
    peers = tuple(ProcessId(i) for i in range(4))
    net = _Recorder(peers[1])
    engine = BrbEngine(net, peers, 1, lambda o, d, p: None)
    origin, payload = peers[0], b"unasked"
    digest = hashlib.sha256(payload).digest()
    engine.handle_frame(peers[2], encode_brb(BrbFrame(ECHO, origin, digest, None)))
    engine.handle_frame(peers[2], encode_brb(BrbFrame(SUPPLY, origin, digest, payload)))
    (inst,) = engine.instances.values()
    assert inst.payload is None and not inst.fetched and net.sent == []


FLOOD = 5_000


def test_a_byzantine_flood_leaves_no_payload_bytes_and_draws_no_reply():
    # n = 4, f = 1: one Byzantine peer floods a correct server with digest
    # echoes and readies for fresh instances, unasked-for supplies of fresh
    # 1,000-byte payloads, and fetches for digests nobody broadcast.
    rng = random.Random(0)
    peers = tuple(ProcessId(i) for i in range(4))
    byz, origin = peers[0], peers[2]
    net = _Recorder(peers[1])
    delivered = []
    engine = BrbEngine(net, peers, 1, lambda o, d, p: delivered.append(p))
    for _ in range(FLOOD):
        digest = hashlib.sha256(rng.randbytes(1_000)).digest()
        engine.handle_frame(byz, encode_brb(BrbFrame(ECHO, origin, digest, None)))
    for _ in range(FLOOD):
        engine.handle_frame(byz, encode_brb(BrbFrame(READY, origin, rng.randbytes(32),
                                                     None)))
    opened = len(engine.instances)
    assert opened == 2 * FLOOD
    for _ in range(FLOOD):
        payload = rng.randbytes(1_000)
        digest = hashlib.sha256(payload).digest()
        engine.handle_frame(byz, encode_brb(BrbFrame(SUPPLY, origin, digest, payload)))
    for _ in range(FLOOD):
        engine.handle_frame(byz, encode_brb(BrbFrame(FETCH, origin, rng.randbytes(32),
                                                     None)))
    assert len(engine.instances) == opened  # supply and fetch open nothing
    assert sum(len(inst.payload or b"") for inst in engine.instances.values()) == 0
    assert net.calls == [] and delivered == []


def test_each_protocol_step_is_one_multicast_to_the_peers_in_order():
    peers = tuple(ProcessId(i) for i in (3, 0, 2, 1))  # not in id order
    origin = peers[1]
    others = (peers[0], peers[2], peers[3])
    net = _Recorder(origin)
    delivered = []
    engine = BrbEngine(net, peers, 1, lambda o, d, p: delivered.append((o, p)))
    payload = b"one call per step"
    digest = engine.broadcast(payload)
    init = encode_brb(BrbFrame(INIT, origin, digest, payload))
    echo = encode_brb(BrbFrame(ECHO, origin, digest, None))
    ready = encode_brb(BrbFrame(READY, origin, digest, None))
    # the origin applies its own init and echo at once: two multicasts
    assert net.calls == [(others, init), (others, echo)]
    (inst,) = engine.instances.values()
    assert inst.echoes == {origin} and not inst.readied
    engine.handle_frame(origin, init)  # its own init again: nothing new
    assert len(net.calls) == 2
    for frm in others[:2]:
        engine.handle_frame(frm, echo)
    assert net.calls[2:] == [(others, ready)]
    assert inst.readies == {origin}
    for frm in peers:
        engine.handle_frame(frm, echo)
        engine.handle_frame(frm, ready)
    assert len(net.calls) == 3 and delivered == [(origin, payload)]
    assert all(origin not in tos for tos, _ in net.calls)


def test_with_f_0_the_origin_delivers_its_own_broadcast_once_inside_broadcast():
    peers = tuple(ProcessId(i) for i in range(4))
    origin = peers[0]
    net = _Recorder(origin)
    delivered = []
    engine = BrbEngine(net, peers, 0, lambda o, d, p: delivered.append((o, d, p)))
    digest = engine.broadcast(b"quorum of one")
    assert delivered == [(origin, digest, b"quorum of one")]
    # init, echo, ready: each one multicast to the three other peers
    assert [tos for tos, _ in net.calls] == [peers[1:]] * 3
    for frm in peers:
        for phase in (INIT, ECHO, READY):
            engine.handle_frame(frm, encode_brb(
                BrbFrame(phase, origin, digest, b"quorum of one")))
    assert len(delivered) == 1 and len(net.calls) == 3


@pytest.mark.parametrize("name", [name for name in PRESET_NAMES
                                  if preset(name).n_byz == 0])
def test_no_payload_is_pending_at_quiescence_without_byzantine_slots(
        name, preset_run):
    """With no Byzantine slot, every payload any engine holds at quiescence
    has been delivered: the monitor's ``brb-undelivered`` check is silent."""
    report = preset_run(name)
    assert report.n == preset(name).n and report.byzantine == "none"
    assert not [v for v in report.property_violations
                if v.startswith("brb-undelivered ")]
    assert report.ok, report.property_violations[:5]
