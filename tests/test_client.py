"""Client protocols: quorum-voted reads/writes and optimistic
single-server adds confirmed by signed epoch hashes."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ServerCluster, run_until_done
from setchain.adversaries import ForgedDigestServer, LyingHistoryServer
from setchain.client import (
    ClientError,
    OptimisticClient,
    QuorumClient,
    SignedEpochHash,
    Confirmation,
    combine_get_responses,
    confirm_from_snapshot,
    signed_epoch_hashes,
)
from setchain.core import (
    Element,
    GetResult,
    History,
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
    STATUS_STALE_OR_FUTURE_EPOCH,
    decode_get_state,
    decode_response,
)

CLIENT = ProcessKind.CLIENT


def quorum_client(cluster, pid_id=200, **kw):
    return QuorumClient(ProcessId(pid_id, CLIENT), cluster.sim, cluster.pids,
                        cluster.f, **kw)


def optimistic_client(cluster, pid_id=300, **kw):
    return OptimisticClient(ProcessId(pid_id, CLIENT), cluster.sim,
                            cluster.keys, cluster.pids, cluster.f, **kw)


# -- quorum writes ----------------------------------------------------------


def test_quorum_add_contacts_f_plus_one_distinct_servers():
    cluster = ServerCluster(n=4, f=1)
    client = quorum_client(cluster)
    contacted = client.add(cluster.element())
    assert len(contacted) == 2 and len(set(contacted)) == 2
    assert set(contacted) <= set(cluster.pids)
    cluster.drain()
    assert cluster.sim.counts["req-add"] == 2
    e = next(iter(cluster.correct[0].theset))
    assert all(e in s.theset for s in cluster.correct)


def test_quorum_add_f0_degenerate_single_request():
    cluster = ServerCluster(n=1, f=0)
    client = quorum_client(cluster)
    e = cluster.element()
    assert len(client.add(e)) == 1
    cluster.drain()
    assert cluster.sim.counts["req-add"] == 1
    assert e in cluster.correct[0].theset


def test_quorum_add_survives_silent_byzantine_contact():
    cluster = ServerCluster(n=4, f=1, n_byz=1)
    # client id chosen so the write hits the Byzantine slot plus one correct
    client = quorum_client(cluster, pid_id=203)
    e = cluster.element()
    contacted = client.add(e)
    assert cluster.byz_pids[0] in contacted
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=200)
    driver.start()
    cluster.sim.run_until(600)
    driver.stop()
    cluster.drain()
    for s in cluster.correct:
        assert e in s.theset and e in s.history


def test_quorum_epoch_inc_advances_via_the_nonlagging_server():
    # seed chosen so one server still lags when the second request lands
    cluster = ServerCluster(n=4, f=1, seed=8)
    client = quorum_client(cluster)
    client.epoch_inc(1)
    # run tick by tick until exactly some (not all) servers cut epoch 1
    while not any(s.epoch == 1 for s in cluster.correct):
        cluster.sim.run_until(cluster.sim.now + 1)
    epochs = [s.epoch for s in cluster.correct]
    assert sorted(set(epochs)) == [0, 1], "seed must catch a lagging server"
    # aim a fresh client at an adjacent (lagging, advanced) server pair
    i = next(i for i in range(4)
             if epochs[i] != epochs[(i + 1) % 4])
    straddler = quorum_client(cluster, pid_id=240 + i)
    contacted = straddler.epoch_inc(2)
    assert len(set(contacted)) == 2
    cluster.drain()
    assert all(s.epoch == 2 for s in cluster.correct)
    statuses = set()
    for entry in cluster.sim.log:
        if entry.type == "resp-epochinc" and entry.dst == straddler.pid:
            statuses.add(decode_response(entry.body)[2])
    assert STATUS_STALE_OR_FUTURE_EPOCH in statuses


# -- quorum reads -----------------------------------------------------------


def test_quorum_get_equals_single_view_when_all_agree():
    cluster = ServerCluster(n=4, f=1)
    elems = [cluster.element() for _ in range(3)]
    client = quorum_client(cluster)
    for e in elems:
        client.add(e)
    cluster.drain()
    cluster.correct[0].epoch_inc(1)
    cluster.drain()
    call = client.get()
    run_until_done(cluster.sim, call)
    snap = cluster.correct[0].get()
    assert call.result is not None and call.error is None
    assert call.result.theset == snap.theset
    assert call.result.history == snap.history
    assert call.result.epoch == snap.epoch == 1
    assert cluster.sim.counts["req-get"] == 4
    assert cluster.sim.counts["resp-get"] == 4


def test_quorum_get_drops_its_responses_and_reuses_each_servers_epochs():
    cluster = ServerCluster(n=4, f=1)
    client = quorum_client(cluster)
    reads = []
    for h in (1, 2):
        client.add(cluster.element())
        cluster.drain()
        cluster.correct[0].epoch_inc(h)
        cluster.drain()
        kept = {s: prior[1] for s, prior in client._priors.items()}
        call = run_until_done(cluster.sim, client.get())
        assert call.result.epoch == h and call.responses == {}
        reads.append(call.result)
        for s, epochs in kept.items():  # epoch 1 was decoded once per server
            assert client._priors[s][1][0] is epochs[0]
    assert reads[1].history.entries[0] == reads[0].history.entries[0]
    assert len(kept) >= 3


def test_quorum_get_times_out_without_enough_responders():
    cluster = ServerCluster(n=4, f=1, n_byz=2)  # over-faulted on purpose
    client = quorum_client(cluster)
    call = client.get()
    cluster.drain()
    assert call.error == "insufficient-responses"
    assert call.result is None
    assert len(call.responses) == 2


def test_quorum_get_one_read_at_a_time():
    cluster = ServerCluster(n=4, f=1)
    client = quorum_client(cluster)
    first = client.get()
    with pytest.raises(ClientError, match="read-already-in-flight"):
        client.get()
    run_until_done(cluster.sim, first)
    assert first.done
    second = client.get()
    run_until_done(cluster.sim, second)
    assert second.result is not None


# -- combining responses (pure voting rules) --------------------------------


def raw(tag: str) -> Element:
    return Element(tag.encode(), ProcessId(100, CLIENT), b"sig:" + tag.encode())


S0, S1, S2, S3 = (ProcessId(i) for i in range(4))


def test_combine_votes_out_fabrications_and_prunes_disagreers():
    a, b, c, y = raw("a"), raw("b"), raw("c"), raw("y")
    honest = GetResult(frozenset({a, c}),
                       History((frozenset({a}), frozenset({c}))), 2)
    liar = GetResult(frozenset({a, b, y}),
                     History((frozenset({b}), frozenset({a}))), 2)
    out = combine_get_responses({S1: honest, S2: honest, S3: liar}, f=1)
    assert out.theset == {a, c}  # y had one vote, not f+1
    assert out.history.entries == (frozenset({a}), frozenset({c}))
    assert out.epoch == 2


def test_combine_merges_agreed_history_into_theset():
    x = raw("x")
    seen = GetResult(frozenset(), History((frozenset({x}),)), 1)
    blank = GetResult(frozenset(), History(), 0)
    out = combine_get_responses({S1: seen, S2: seen, S3: blank}, f=1)
    assert out.history.entries == (frozenset({x}),)
    assert x in out.theset  # merged so history stays within theset
    assert out.epoch == 1


def test_combine_stops_at_first_epoch_without_agreement():
    a, b, c = raw("a"), raw("b"), raw("c")
    r1 = GetResult(frozenset({a, b}), History((frozenset({a}), frozenset({b}))), 2)
    r2 = GetResult(frozenset({a, c}), History((frozenset({a}), frozenset({c}))), 2)
    r3 = GetResult(frozenset({a}), History((frozenset({a}),)), 1)
    out = combine_get_responses({S1: r1, S2: r2, S3: r3}, f=1)
    assert out.history.entries == (frozenset({a}),)
    assert out.epoch == 1
    assert out.theset == {a}


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 3, 0, 1), (1, 3, 0, 2)])
def test_combine_breaks_a_two_two_tie_by_canonical_bytes(order):
    a, b = raw("a"), raw("b")
    first, second = sorted((frozenset({a}), frozenset({b})), key=encode_element_set)
    views = [GetResult(es, History((es,)), 1) for es in (second, second, first, first)]
    responses = {(S0, S1, S2, S3)[i]: views[i] for i in order}
    out = combine_get_responses(responses, f=1)
    assert out.history.entries == (first,)


def test_combine_requires_two_f_plus_one_responses():
    honest = GetResult(frozenset(), History(), 0)
    with pytest.raises(ClientError, match="insufficient-responses"):
        combine_get_responses({S1: honest, S2: honest}, f=1)


_POOL = tuple(raw(f"p{i}") for i in range(6))
_subsets = st.frozensets(st.sampled_from(_POOL), max_size=4)


@given(
    entries=st.lists(_subsets, max_size=3),
    extra=_subsets,
    liar_set=_subsets,
    liar_hist=st.lists(_subsets, max_size=4),
)
def test_combine_honest_quorum_drowns_one_liar(entries, extra, liar_set, liar_hist):
    union = frozenset().union(*entries) if entries else frozenset()
    honest = GetResult(union | extra, History(tuple(entries)), len(entries))
    liar = GetResult(liar_set, History(tuple(liar_hist)), len(liar_hist))
    out = combine_get_responses({S0: honest, S1: honest, S2: honest, S3: liar},
                                f=1)
    assert out.history == honest.history
    assert out.theset == honest.theset
    assert out.epoch == honest.epoch


# -- signed epoch hashes ----------------------------------------------------


def signing_world():
    keys = KeyStore()
    servers = tuple(ProcessId(i) for i in range(4))
    privates = {pid: keys.keygen(pid) for pid in servers}
    author = ProcessId(100, CLIENT)
    author_key = keys.keygen(author)
    return keys, servers, privates, author, author_key


def test_signed_epoch_hash_roundtrip_and_verify():
    keys, servers, privates, _, _ = signing_world()
    digest = hash_epoch(frozenset())
    element = keys.make_element(attestation_payload(5, digest), servers[0],
                                privates[servers[0]])
    seh = SignedEpochHash.from_element(element)
    assert seh is not None
    assert (seh.h, seh.digest, seh.signer) == (5, digest, servers[0])
    assert seh.as_element() == element
    assert seh.verify(keys)
    # tampering with the vouched digest breaks verification
    bad = SignedEpochHash(5, b"\x01" * 32, seh.signer, seh.signature)
    assert not bad.verify(keys)


def test_signed_epoch_hash_ignores_non_attestations_and_non_servers():
    keys, servers, privates, author, author_key = signing_world()
    assert SignedEpochHash.from_element(
        keys.make_element(b"just data", servers[0], privates[servers[0]])) is None
    from_client = keys.make_element(
        attestation_payload(1, hash_epoch(frozenset())), author, author_key)
    assert SignedEpochHash.from_element(from_client) is None


def test_signed_epoch_hashes_scan_filters_by_epoch():
    keys, servers, privates, author, author_key = signing_world()
    digest = hash_epoch(frozenset())
    pool = {
        keys.make_element(attestation_payload(h, digest), pid, privates[pid])
        for pid in servers[:2]
        for h in (1, 2)
    }
    pool.add(keys.make_element(b"noise", author, author_key))
    assert len(signed_epoch_hashes(pool)) == 4
    only_two = signed_epoch_hashes(pool, h=2)
    assert len(only_two) == 2 and all(s.h == 2 for s in only_two)


def test_confirm_from_snapshot_needs_f_plus_one_matching_signers():
    keys, servers, privates, author, author_key = signing_world()
    e = keys.make_element(b"payload", author, author_key)
    entry = frozenset({e})
    digest = hash_epoch(entry)

    def seal(pid, h=1, d=digest):
        return keys.make_element(attestation_payload(h, d), pid, privates[pid])

    two = entry | {seal(servers[0]), seal(servers[1])}
    conf = confirm_from_snapshot(e, two, (entry,), keys, f=1)
    assert conf is not None
    assert conf.epoch == 1 and conf.digest == digest
    assert conf.signers == {servers[0], servers[1]}
    js = conf.to_json()
    assert set(js) == {"element-digest", "epoch", "epoch-digest", "signers"}
    assert js["epoch-digest"] == digest.hex() and js["epoch"] == 1

    one = entry | {seal(servers[0])}
    assert confirm_from_snapshot(e, one, (entry,), keys, f=1) is None

    wrong = entry | {seal(servers[0]), seal(servers[1], d=b"\x02" * 32)}
    assert confirm_from_snapshot(e, wrong, (entry,), keys, f=1) is None

    forged = entry | {seal(servers[0]),
                      Element(attestation_payload(1, digest), servers[1], b"junk")}
    assert confirm_from_snapshot(e, forged, (entry,), keys, f=1) is None

    absent = confirm_from_snapshot(e, two, (frozenset(),), keys, f=1)
    assert absent is None  # element not in any epoch entry


def reference_confirm(element, theset, epoch_sets, keys, f):
    """confirm_from_snapshot as first written: parse every element of the
    reply as a signed epoch hash, then count the verified matching ones."""
    pool = set(theset).union(*epoch_sets)
    hashes = [seh for e in pool
              if (seh := SignedEpochHash.from_element(e)) is not None]
    for i, entry in enumerate(epoch_sets, start=1):
        if element not in entry:
            continue
        digest = hash_epoch(entry)
        signers = {seh.signer for seh in hashes
                   if seh.h == i and seh.digest == digest and seh.verify(keys)}
        if len(signers) > f:
            return Confirmation(element, i, digest, frozenset(signers))
    return None


# Ways to attest an epoch holding the target: honest, forged digest, wrong
# h, a non-server author, a bad signature, and an honest copy that repeats
# its signer elsewhere in the reply; "other" honestly attests another epoch.
_SEAL_KINDS = ("honest", "forged", "wrong-h", "client", "bad-sig", "duplicate",
               "other")


@settings(max_examples=300)
@given(seals=st.lists(st.tuples(st.sampled_from(_SEAL_KINDS), st.integers(0, 3),
                                st.integers(0, 2), st.booleans()), max_size=10),
       layout=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       f=st.integers(1, 2))
def test_confirm_from_snapshot_equals_the_reference(seals, layout, f):
    keys, servers, privates, author, author_key = signing_world()
    target = keys.make_element(b"target", author, author_key)
    others = [keys.make_element(b"x%d" % i, author, author_key) for i in range(3)]
    # Epoch i holds the target when layout[i-1] is 0, else other elements.
    entries = [frozenset({target}) if k == 0 else frozenset(others[:k])
               for k in layout]
    holding = [i for i, k in enumerate(layout, start=1) if k == 0] or [1]
    theset = set().union(*entries)
    later: set[Element] = set()  # seals stamped in an epoch after these
    for kind, who, pick, in_theset in seals:
        h = holding[pick % len(holding)]
        if kind == "other":
            h = pick % len(entries) + 1
        digest = hash_epoch(entries[h - 1])
        signer, key = servers[who], privates[servers[who]]
        if kind == "forged":
            digest = bytes(32)
        elif kind == "wrong-h":
            h += 1
        elif kind == "client":
            signer, key = author, author_key
        payload = attestation_payload(h, digest)
        if kind == "bad-sig":
            seal = Element(payload, signer, b"junk")
        else:
            seal = keys.make_element(payload, signer, key)
        if kind == "duplicate":
            later.add(seal)
            theset.add(seal)
        elif in_theset:
            theset.add(seal)
        else:
            later.add(seal)
    epoch_sets = (*entries, frozenset(later))
    got = confirm_from_snapshot(target, frozenset(theset), epoch_sets, keys, f)
    assert got == reference_confirm(target, frozenset(theset), epoch_sets, keys, f)


# -- optimistic client ------------------------------------------------------


def test_optimistic_happy_path_confirms_with_one_add_and_one_probe():
    cluster = ServerCluster(n=4, f=1, sign_epochs=True)
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=200)
    driver.start()
    client = optimistic_client(cluster)
    e = cluster.element()
    call = client.add_and_confirm(e, target=cluster.pids[0])
    run_until_done(cluster.sim, call)
    driver.stop()
    conf = call.confirmation
    assert conf is not None and call.error is None
    assert call.attempts == 1
    assert len(conf.signers) >= 2 and len(set(conf.signers)) == len(conf.signers)
    probed = cluster.servers[cluster.pids[0]]
    assert hash_epoch(probed.history.get(conf.epoch)) == conf.digest
    mine = [en for en in cluster.sim.log if en.src == client.pid]
    assert [en.type for en in mine].count("req-add") == 1
    assert [en.type for en in mine].count("req-get") == 1


def test_optimistic_unconfirmed_when_no_epochs_ever_cut():
    cluster = ServerCluster(n=4, f=1, sign_epochs=True)  # but no driver
    client = optimistic_client(cluster)
    call = client.add_and_confirm(cluster.element())
    cluster.drain()
    assert call.error == "unconfirmed" and call.confirmation is None
    assert call.attempts == 5
    assert len(set(call.servers_tried)) == 4  # rotation covered every server


def lying_factory(sign=False):
    return lambda pid, c: LyingHistoryServer(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service,
        sign_epochs=sign)


def test_optimistic_rejects_fabricated_history_with_single_signature():
    cluster = ServerCluster(n=4, f=1, n_byz=1, byz_factory=lying_factory())
    liar = cluster.byz_pids[0]
    client = optimistic_client(cluster)
    e = cluster.element()
    call = client.add_and_confirm(e, target=liar)
    cluster.drain()
    assert call.error == "unconfirmed" and call.confirmation is None
    # the liar really did respond, placing e in a self-signed epoch 1
    lies = [en for en in cluster.sim.log
            if en.type == "resp-get" and en.src == liar and en.dst == client.pid]
    assert lies
    _, _, _, state = decode_response(lies[0].body)
    theset, epochs, epoch = decode_get_state(state)
    assert epoch == 1 and e in epochs[0]
    assert any(SignedEpochHash.from_element(x) for x in theset)
    assert confirm_from_snapshot(e, theset, epochs, cluster.keys, 1) is None


def test_optimistic_retries_past_lying_target_and_confirms_for_real():
    cluster = ServerCluster(n=4, f=1, n_byz=1, sign_epochs=True,
                            byz_factory=lying_factory(sign=True))
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=200)
    driver.start()
    client = optimistic_client(cluster)
    e = cluster.element()
    call = client.add_and_confirm(e, target=cluster.byz_pids[0])
    run_until_done(cluster.sim, call)
    driver.stop()
    conf = call.confirmation
    assert conf is not None
    assert call.attempts == 2  # the lying probe burned one attempt
    assert call.servers_tried[0] == cluster.byz_pids[0]
    real = cluster.correct[0]
    assert hash_epoch(real.history.get(conf.epoch)) == conf.digest
    assert e in real.history.get(conf.epoch)


def test_optimistic_discards_forged_digest_signatures():
    forger_factory = lambda pid, c: ForgedDigestServer(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service)
    cluster = ServerCluster(n=4, f=1, n_byz=1, sign_epochs=True,
                            byz_factory=forger_factory)
    forger = cluster.byz_pids[0]
    driver = EpochDriver(cluster.sim, cluster.correct[:2], period=200)
    driver.start()
    client = optimistic_client(cluster)
    call = client.add_and_confirm(cluster.element(), target=cluster.pids[0])
    run_until_done(cluster.sim, call)
    driver.stop()
    conf = call.confirmation
    assert conf is not None
    assert forger not in conf.signers
    assert conf.signers <= set(cluster.correct_pids)
    # the forged attestations really were present in the probed snapshot
    probed = cluster.servers[cluster.pids[0]]
    assert any(parse_attestation(x.payload) and x.author == forger
               for x in probed.theset)


def test_optimistic_one_confirmation_at_a_time():
    cluster = ServerCluster(n=4, f=1, sign_epochs=True)
    client = optimistic_client(cluster)
    client.add_and_confirm(cluster.element())
    with pytest.raises(ClientError, match="confirmation-already-in-flight"):
        client.add_and_confirm(cluster.element())


def test_rotation_is_deterministic_per_client_id():
    first = ServerCluster(n=4, f=1)
    second = ServerCluster(n=4, f=1)
    a, b = quorum_client(first), quorum_client(second)
    assert a.add(first.element()) == b.add(second.element())
    assert a.get().contacted == b.get().contacted
