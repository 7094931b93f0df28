"""Adversarial server behaviours: chaos generators, the silent and havoc
adversaries, and the targeted liars."""

import random
import struct

import pytest

from conftest import ServerCluster, run_until_done
from setchain.adversaries import (
    ForgedDigestServer,
    HavocServer,
    LyingHistoryServer,
    SilentServer,
    generate_invalid_elems,
    havoc_number,
    havoc_partition,
    havoc_subset,
)
from setchain.client import QuorumClient
from setchain.core import (
    KeyStore,
    ProcessId,
    ProcessKind,
    attestation_payload,
    encode_element_set,
    hash_epoch,
    parse_attestation,
)
from setchain.server import EpochDriver
from setchain.wire import (
    OP_GET,
    SHARED_ORIGIN,
    FrameError,
    Proposal,
    decode_brb,
    decode_broadcast_message,
    decode_get_state_after,
    decode_response,
    encode_get_request_body,
    encode_request,
)


def havoc_factory(pid, cluster):
    return HavocServer(pid, cluster.sim, cluster.keys, cluster.service,
                       cluster.pids)


# -- chaos generators -------------------------------------------------------


def test_havoc_subset_is_deterministic_and_contained():
    items = list(range(20))
    a = havoc_subset(random.Random(7), items)
    b = havoc_subset(random.Random(7), reversed(items))  # order-insensitive
    assert a == b
    assert a <= set(items)
    assert havoc_subset(random.Random(9), items) != a  # seeds matter


def test_havoc_partition_covers_exactly_the_input():
    keys = KeyStore()
    author = ProcessId(50, ProcessKind.CLIENT)
    key = keys.keygen(author)
    elems = {keys.make_element(f"e{i}".encode(), author, key) for i in range(9)}
    rng = random.Random(3)
    seen_sizes = set()
    for _ in range(40):
        parts = havoc_partition(rng, elems)
        assert len(parts) <= 3
        seen_sizes.add(len(parts))
        combined = [e for p in parts for e in p]
        assert len(combined) == len(set(combined))  # bins are disjoint
        if parts:
            assert frozenset(combined) == frozenset(elems)
    assert {0, 1, 2, 3} <= seen_sizes


def test_havoc_number_bounds():
    rng = random.Random(0)
    draws = {havoc_number(rng, 5) for _ in range(200)}
    assert draws == set(range(6))
    assert all(havoc_number(rng, 0, lo=1) == 1 for _ in range(10))


def test_generate_invalid_elems_never_validate():
    keys = KeyStore()
    rng = random.Random(11)
    counts = set()
    for _ in range(200):
        batch = generate_invalid_elems(rng)
        counts.add(len(batch))
        for e in batch:
            assert not keys.valid(e)
    assert counts == {0, 1, 2, 3, 4}  # coin-flip counts, capped


# -- silent -----------------------------------------------------------------


def test_silent_server_receives_but_never_sends():
    silent_factory = lambda pid, c: SilentServer(pid, c.sim, c.service)
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=silent_factory)
    e = cluster.element()
    cluster.correct[0].add(e)
    cluster.correct[0].epoch_inc(1)
    cluster.drain()
    silent = cluster.byz_pids[0]
    assert any(entry.dst == silent for entry in cluster.sim.log)
    assert all(entry.src != silent for entry in cluster.sim.log)
    for s in cluster.correct:
        assert e in s.theset and s.epoch == 1


# -- havoc ------------------------------------------------------------------


def test_havoc_broadcasts_only_invalid_elements_before_learning_any():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start(until=2_000)
    cluster.sim.run_until(2_000)
    cluster.drain()
    batches = 0
    for entry in cluster.sim.log:
        if entry.src != havoc.pid or entry.type != "brb-init":
            continue
        frame = decode_brb(entry.body)
        kind, value = decode_broadcast_message(frame.payload)
        if kind == "add":
            batches += 1
            assert all(not cluster.keys.valid(e) for e in value)
    assert batches > 0
    # correct servers admitted none of the junk
    assert all(not s.theset for s in cluster.correct)


def test_havoc_announces_epochs_through_the_shared_origin():
    # Its batches name the havoc server as origin; its epoch announcements
    # name the shared origin, which correct servers relay as they relay a
    # correct announcer's.
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start(until=2_000)
    cluster.sim.run_until(2_000)
    cluster.drain()
    origins = {"add": set(), "epochinc": set()}
    for entry in cluster.sim.log:
        if entry.src == havoc.pid and entry.type == "brb-init":
            frame = decode_brb(entry.body)
            origins[decode_broadcast_message(frame.payload)[0]].add(frame.origin)
    assert origins == {"add": {havoc.pid}, "epochinc": {SHARED_ORIGIN}}


def test_havoc_learns_from_requests_and_informs_then_proposes_loot():
    # seed chosen so the random schedule emits a proposal after learning
    cluster = ServerCluster(n=4, f=1, n_byz=1, seed=0, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    e = cluster.element()
    client = QuorumClient(ProcessId(203, ProcessKind.CLIENT), cluster.sim,
                          cluster.pids, cluster.f)
    havoc.start(until=4_000)
    client.add(e)  # one copy straight to the adversary
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=300)
    driver.start()
    cluster.sim.run_until(4_000)
    driver.stop()
    cluster.drain()
    assert e in havoc.knowledge
    assert all(cluster.keys.valid(k) for k in havoc.knowledge)
    assert havoc.seen_h >= 1
    looted = [
        (h, prop)
        for h in range(1, havoc.seen_h + 4)
        for by, prop in cluster.service.proposals_for(h).items()
        if by == havoc.pid
        and any(cluster.keys.valid(x) for x in prop.elements)
    ]
    assert looted, "the adversary proposed elements it learned"


def test_havoc_learns_an_element_carried_only_by_a_brb_batch():
    # The add goes to a correct server only and no epoch is cut, so no
    # request and no proposal notice carries the element to the adversary.
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    e = cluster.element()
    cluster.correct[0].add(e)
    cluster.drain()
    to_havoc = {entry.type for entry in cluster.sim.log if entry.dst == havoc.pid}
    assert to_havoc <= {"brb-init", "brb-echo", "brb-ready"}
    assert all(s.epoch == 0 for s in cluster.correct)
    assert havoc.knowledge == {e}


def test_havoc_cannot_break_safety_or_block_progress():
    cluster = ServerCluster(n=7, f=2, n_byz=2, byz_factory=havoc_factory)
    for z in cluster.byz.values():
        z.start(until=3_000)
    elems = [cluster.element() for _ in range(5)]
    for i, e in enumerate(elems):
        cluster.correct[i % len(cluster.correct)].add(e)
    driver = EpochDriver(cluster.sim, cluster.correct[:3], period=250)
    driver.start()
    cluster.sim.run_until(3_000)
    driver.stop()
    cluster.drain()
    reference = cluster.correct[0]
    assert reference.epoch >= 1
    for s in cluster.correct:
        assert s.history == reference.history  # same epochs, same content
        for e in elems:
            assert e in s.theset and e in s.history
        for _, entry in s.history.items():
            assert all(cluster.keys.valid(x) for x in entry)


def test_havoc_get_answers_cannot_poison_a_quorum_read():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start(until=2_500)
    client = QuorumClient(ProcessId(203, ProcessKind.CLIENT), cluster.sim,
                          cluster.pids, cluster.f)
    elems = [cluster.element() for _ in range(4)]
    for e in elems:
        client.add(e)
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=300)
    driver.start()
    cluster.sim.run_until(2_500)
    driver.stop()
    call = client.get()
    run_until_done(cluster.sim, call)
    cluster.drain()
    result = call.result
    assert result is not None
    correct_union = set()
    for s in cluster.correct:
        correct_union |= s.theset
    assert result.theset <= correct_union
    for i, entry in result.history.items():
        assert any(s.epoch >= i and s.history.get(i) == entry
                   for s in cluster.correct)


def test_havoc_get_replies_reuse_or_overshoot_what_the_reader_holds():
    """A havoc reply's base is seeded in [0, have + 1]: a reader reuses its
    first ``base`` epochs, or rejects a base past them."""
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.knowledge |= {cluster.element() for _ in range(6)}
    reader = ProcessId(205, ProcessKind.CLIENT)
    inbox = []
    cluster.sim.register(reader, lambda frm, body: inbox.append(body))
    prior = (frozenset({cluster.element()}), frozenset({cluster.element()}))
    bases = set()
    for rid in range(40):
        havoc.on_message(reader, encode_request(OP_GET, rid,
                                                encode_get_request_body(len(prior))))
        cluster.drain()
        state = decode_response(inbox.pop())[3]
        (base,) = struct.unpack_from(">Q", state, 8)
        bases.add(base)
        try:
            _, epochs, _ = decode_get_state_after(state, prior)
        except FrameError:
            assert base == len(prior) + 1
        else:
            assert all(a is b for a, b in zip(epochs[:base], prior[:base]))
    assert bases == {0, 1, 2, 3}


def test_repeated_quorum_reads_stay_sound_next_to_havoc_replies():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start(until=6_000)
    client = QuorumClient(ProcessId(206, ProcessKind.CLIENT), cluster.sim,
                          cluster.pids, cluster.f)
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=300)
    driver.start()
    for _ in range(8):
        client.add(cluster.element())
        cluster.sim.run_until(cluster.sim.now + 600)
        call = run_until_done(cluster.sim, client.get())
        assert call.result is not None
        for i, entry in call.result.history.items():
            assert any(s.epoch >= i and s.history.get(i) == entry
                       for s in cluster.correct)
        assert call.result.theset <= set().union(*(s.theset for s in cluster.correct))
    driver.stop()
    assert cluster.byz_pids[0] in client._priors


def havoc_frames_after(cluster, havoc, stop):
    """Frames from ``havoc`` delivered after the last tick at which one it
    sent at ``stop`` can arrive."""
    last = stop + cluster.sim.config.latency_max
    return [entry for entry in cluster.sim.log
            if entry.src == havoc.pid and entry.t > last]


def test_havoc_sends_nothing_after_until_without_a_stop():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start(until=1_000)
    cluster.sim.run_until(5_000)  # no drain: a pump that ignores until never ends
    assert any(entry.src == havoc.pid for entry in cluster.sim.log)
    assert havoc_frames_after(cluster, havoc, 1_000) == []


def test_havoc_sends_nothing_after_a_stop_at_a_tick_chosen_mid_run():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start()
    # Stop once the pump has sent its third frame, at whatever tick that is.
    while sum(entry.src == havoc.pid for entry in cluster.sim.log) < 3:
        cluster.sim.run_until(cluster.sim.now + 10)
    stop = cluster.sim.now
    havoc.stop()
    cluster.sim.run_until(stop + 5_000)
    assert havoc_frames_after(cluster, havoc, stop) == []


# -- targeted liars ---------------------------------------------------------


def test_forged_digest_server_signs_a_digest_that_never_matches():
    forger_factory = lambda pid, c: ForgedDigestServer(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service)
    cluster = ServerCluster(n=4, f=1, n_byz=1, sign_epochs=True,
                            byz_factory=forger_factory)
    forger = cluster.byz_pids[0]
    for h in (1, 2):  # epoch 1's attestations are stamped in epoch 2
        cluster.correct[0].add(cluster.element())
        cluster.drain()
        cluster.correct[0].epoch_inc(h)
        cluster.drain()
    probed = cluster.correct[0]
    forged = [x for x in probed.history.get(2)
              if x.author == forger and parse_attestation(x.payload)]
    assert forged, "the forged attestation must be stamped like any element"
    for x in forged:
        h, digest = parse_attestation(x.payload)
        assert cluster.keys.valid(x)  # real signature ...
        assert digest != hash_epoch(probed.history.get(h))  # ... false content


def test_lying_history_reply_is_one_self_sealed_epoch_of_everything_it_knows():
    liar_factory = lambda pid, c: LyingHistoryServer(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service)
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=liar_factory)
    liar = cluster.byz[cluster.byz_pids[0]]
    for _ in range(3):
        cluster.correct[0].add(cluster.element())
    cluster.drain()
    reader = ProcessId(204, ProcessKind.CLIENT)
    inbox = []
    cluster.sim.register(reader, lambda frm, body: inbox.append(body))
    liar.on_message(reader, encode_request(OP_GET, 7, encode_get_request_body(1)))
    cluster.drain()
    [reply] = inbox
    state = decode_response(reply)[3]
    fabricated = frozenset(liar.theset)
    seal = cluster.keys.make_element(
        attestation_payload(1, hash_epoch(fabricated)), liar.pid,
        cluster.privates[liar.pid])
    # The whole reply, encoded field by field from what the liar claims: base
    # 0 whatever the reader holds, and only the seal left unstamped.
    expected = (struct.pack(">QQI", 1, 0, 1) + encode_element_set({seal})
                + struct.pack(">I", len(fabricated)) + encode_element_set(fabricated))
    assert len(fabricated) == 3 and state == expected



@pytest.mark.parametrize("server_class", [LyingHistoryServer, ForgedDigestServer])
def test_a_byzantine_protocol_server_cannot_open_a_consensus_window(server_class):
    """A ``SetchainServer`` subclass in a Byzantine slot joins consensus as
    Byzantine: its early proposal does not open the instance's window, so
    correct proposals made 100 ticks later are all decided."""
    factory = lambda pid, c: server_class(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service)
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=factory)

    def propose(pid):
        cluster.service.propose(1, Proposal(elements=frozenset({cluster.element()})),
                                pid)

    propose(cluster.byz_pids[0])
    cluster.sim.run_until(100)
    for s in cluster.correct:
        propose(s.pid)
    cluster.drain()
    decided = cluster.service.decided(1).propset
    assert {s.pid for s in cluster.correct} <= set(decided)

def test_havoc_names_seen_and_junk_digests_and_correct_servers_ignore_them():
    # The havoc server draws which digests it names from its own stream, so
    # the run goes on, one add per 100 ticks, until it has named both a
    # digest that a correct server named too and a fresh random one (at most
    # 100 adds).
    named = {}  # proposer -> every digest it proposed

    def on_propose(h, proposal, by):
        named.setdefault(by, set()).update(proposal.digests)

    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=havoc_factory,
                            on_propose=on_propose)
    havoc = cluster.byz[cluster.byz_pids[0]]
    havoc.start()
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=250)
    driver.start()
    elems = []

    def replayed():
        correct_named = set().union(*(d for by, d in named.items() if by != havoc.pid))
        return named.get(havoc.pid, set()) & correct_named

    def fresh():
        broadcast = {decode_brb(entry.body).digest for entry in cluster.sim.log
                     if entry.type == "brb-init"}
        return named.get(havoc.pid, set()) - broadcast

    while not (replayed() and fresh()) and len(elems) < 100:
        elems.append(cluster.element())
        cluster.correct[len(elems) % 3].add(elems[-1])
        cluster.sim.run_until(cluster.sim.now + 100)
    havoc.stop()
    cluster.sim.run_until(cluster.sim.now + 1_000)  # epochs stamp the last adds
    driver.stop()
    cluster.drain()
    assert replayed(), "replays a digest that correct servers named"
    assert fresh(), "names fresh random digests"
    reference = cluster.correct[0]
    for s in cluster.correct:
        assert s.history == reference.history
        assert set(elems) <= s.theset == s.history.union()
        assert s.open_batches == {} and not s._held
