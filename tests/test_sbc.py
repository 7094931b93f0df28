"""Consensus service contract: termination, agreement, validity,
nontriviality, censorship-resistance after gst, in-order decisions."""

import pytest

from conftest import SbcWorld
from setchain.bench import SBC, Cluster
from setchain.core import KeyStore, ProcessId, ProcessKind, encode_element_set
from setchain.sbc import WINDOW, SbcConfig
from setchain.server import EpochDriver
from setchain.simnet import NetConfig, Simulation
from setchain.wire import Proposal


def union(propset):
    out = frozenset()
    for p in propset.values():
        out |= p.elements
    return out


def test_identical_proposals_decide_that_set():
    w = SbcWorld()
    p = w.make(b"a", b"b")
    for pid in w.correct:
        w.service.propose(1, p, pid)
    w.drain()
    decision = w.service.decided(1)
    assert decision is not None
    assert union(decision.propset) == p.elements
    assert set(decision.propset) == set(w.correct)
    for pid in w.correct:
        assert w.delivered[pid] == [(1, decision.propset)]


def test_everyone_proposing_empty_decides_empty():
    w = SbcWorld()
    for pid in w.correct:
        w.service.propose(1, Proposal(), pid)
    w.drain()
    assert union(w.service.decided(1).propset) == frozenset()


def test_byzantine_proposal_can_join_but_nothing_else_can():
    w = SbcWorld(n_correct=3, n_byz=1, seed=3)
    a, z = w.make(b"a"), w.make(b"z")
    for pid in w.correct:
        w.service.propose(1, a, pid)
    w.service.propose(1, z, w.byz[0])
    w.drain()
    decided = union(w.service.decided(1).propset)
    assert a.elements <= decided
    assert decided <= a.elements | z.elements
    assert w.byz[0] in w.service.decided(1).propset


def test_validity_decided_values_come_from_proposals():
    for seed in range(20):
        w = SbcWorld(n_correct=4, n_byz=1, seed=seed)
        proposals = []
        for i, pid in enumerate(w.correct):
            p = w.make(f"p{i}".encode())
            proposals.append(p)
            w.service.propose(1, p, pid)
        z = w.make(b"z")
        proposals.append(z)
        w.service.propose(1, z, w.byz[0])
        w.drain()
        all_proposed = frozenset().union(*(p.elements for p in proposals))
        assert union(w.service.decided(1).propset) <= all_proposed


def test_censorship_resistance_after_gst():
    net = NetConfig(latency_min=1, latency_max=400, gst=500, post_gst_bound=10)
    w = SbcWorld(net=net)
    w.sim.run_until(600)  # all proposals happen after gst
    e = w.make(b"e").elements
    for pid in w.correct:
        w.service.propose(1, w.make(b"e", str(pid.id).encode()), pid)
    w.drain()
    decision = w.service.decided(1)
    assert set(decision.propset) == set(w.correct)  # nobody censored
    assert e <= union(decision.propset)


def test_pre_gst_runs_can_censor_but_never_fabricate():
    # proposals sent just before gst can exceed the decision window while
    # latencies are still unbounded, so some correct entries may be missing
    censored_somewhere = False
    for seed in range(40):
        net = NetConfig(latency_min=1, latency_max=400, gst=100,
                        post_gst_bound=10, rng_seed=seed)
        w = SbcWorld(net=net)
        proposed = {}
        for pid in w.correct:
            p = w.make(str(pid.id).encode())
            proposed[pid] = p
            w.service.propose(1, p, pid)
        w.drain()
        decision = w.service.decided(1)
        assert decision is not None  # termination: the first arrival anchors it
        for pid, es in decision.propset.items():
            assert es == proposed[pid]  # validity, entry by entry
        if set(decision.propset) != set(w.correct):
            censored_somewhere = True
    assert censored_somewhere  # wide pre-gst latencies miss the window sometimes


def test_decision_is_byte_identical_at_every_process():
    w = SbcWorld(n_correct=4, n_byz=0, seed=9)
    for i, pid in enumerate(w.correct):
        w.service.propose(1, w.make(f"x{i}".encode()), pid)
    w.drain()
    images = set()
    for pid in w.correct:
        (h, propset), = w.delivered[pid]
        blob = b"".join(
            bytes([by.id]) + encode_element_set(p.elements)
            for by, p in sorted(propset.items(), key=lambda kv: kv[0].id)
        )
        images.add((h, blob))
    assert len(images) == 1


def test_decisions_happen_in_instance_order():
    w = SbcWorld(seed=4)
    p2 = w.make(b"second")
    w.service.propose(2, p2, w.correct[0])
    w.sim.run_until(300)
    assert w.service.decided(2) is None  # waits for instance 1
    p1 = w.make(b"first")
    for pid in w.correct:
        w.service.propose(1, p1, pid)
    w.drain()
    d1, d2 = w.service.decided(1), w.service.decided(2)
    assert d1 is not None and d2 is not None
    assert d1.decided_at <= d2.decided_at
    for pid in w.correct:
        assert [h for h, _ in w.delivered[pid]] == [1, 2]


def test_a_deferred_instance_reaches_every_member_after_its_predecessor():
    """The scenario above over many seeds: instance 2 decides right after
    instance 1, so its copies are drawn with fresh delays that may be
    shorter; each member still receives 1 before 2."""
    for seed in range(50):
        w = SbcWorld(seed=seed, n_byz=1)
        w.service.propose(2, w.make(b"second"), w.correct[0])
        w.sim.run_until(300)
        for pid in w.correct:
            w.service.propose(1, w.make(b"first"), pid)
        w.drain()
        for pid, delivered in w.delivered.items():
            assert [h for h, _ in delivered] == [1, 2], (seed, pid)


def test_termination_bound_after_gst():
    cfg = SbcConfig(decision_cost=0)
    w = SbcWorld(seed=11, cfg=cfg)
    start = w.sim.now
    for pid in w.correct:
        w.service.propose(1, w.make(b"t"), pid)
    w.drain()
    decision = w.service.decided(1)
    first_arrival_bound = start + w.sim.config.post_gst_bound
    assert decision.decided_at <= first_arrival_bound + WINDOW
    # every process has it shortly after the decision
    for pid in w.correct:
        assert w.delivered[pid] and w.delivered[pid][0][0] == 1


def test_decision_cost_delays_the_decision():
    base = SbcWorld(seed=6, cfg=SbcConfig(decision_cost=0))
    cost = SbcWorld(seed=6, cfg=SbcConfig(decision_cost=100))
    for w in (base, cost):
        for pid in w.correct:
            w.service.propose(1, w.make(b"t"), pid)
        w.drain()
    assert (cost.service.decided(1).decided_at
            == base.service.decided(1).decided_at + 100)


def test_proposals_fan_out_as_notices_to_everyone_else():
    w = SbcWorld(n_correct=4, n_byz=1)
    p = w.make(b"a")
    w.service.propose(1, p, w.correct[0])
    w.drain()
    for pid in w.correct[1:] + w.byz:
        assert w.informs[pid] == [(w.correct[0], 1, p)]
    assert w.informs[w.correct[0]] == []  # no notice to the proposer itself


def test_no_proposals_no_notices_no_decision():
    w = SbcWorld()
    w.sim.run_until(10_000)
    assert all(not lst for lst in w.informs.values())
    assert w.service.decided(1) is None


def test_notice_count_per_observer_matches_other_proposals():
    w = SbcWorld(n_correct=4)
    for rnd in range(3):
        for pid in w.correct:
            w.service.propose(rnd + 1, w.make(f"r{rnd}{pid.id}".encode()), pid)
        w.drain()
    for pid in w.correct:
        per_instance = {}
        for _, h, _ in w.informs[pid]:
            per_instance[h] = per_instance.get(h, 0) + 1
        assert per_instance == {1: 3, 2: 3, 3: 3}


def test_byzantine_repeat_proposals_count_once():
    w = SbcWorld(n_correct=3, n_byz=1, seed=8)
    z1, z2 = w.make(b"z1"), w.make(b"z2")
    w.service.propose(1, z1, w.byz[0])
    while w.byz[0] not in w.service.proposals_for(1):
        w.sim.run_until(w.sim.now + 1)
    w.service.propose(1, z2, w.byz[0])  # arrives well before the deadline
    for pid in w.correct:
        w.service.propose(1, w.make(b"a"), pid)
    w.drain()
    assert w.service.proposals_for(1)[w.byz[0]] == z1
    assert w.service.decided(1).propset[w.byz[0]] == z1


def test_a_byzantine_proposal_that_comes_first_does_not_open_the_window():
    """The deadline runs from the first correct arrival, so correct
    proposals that arrive more than WINDOW after an early Byzantine one
    are all in the decision."""
    w = SbcWorld(n_correct=3, n_byz=1, seed=2)
    z = w.make(b"z")
    w.service.propose(1, z, w.byz[0])
    while w.byz[0] not in w.service.proposals_for(1):
        w.sim.run_until(w.sim.now + 1)
    opened = w.sim.now
    w.sim.run_until(opened + 2 * WINDOW)
    proposed = {pid: w.make(str(pid.id).encode()) for pid in w.correct}
    for pid, p in proposed.items():
        w.service.propose(1, p, pid)
    w.drain()
    assert w.service.decided(1).propset == {**proposed, w.byz[0]: z}
    arrivals = w.service._instances[1].proposals
    assert all(arrivals[pid].arrived_at > opened + WINDOW for pid in w.correct)


def test_late_byzantine_proposal_is_excluded():
    w = SbcWorld(n_correct=3, n_byz=1, seed=1)
    for pid in w.correct:
        w.service.propose(1, w.make(b"a"), pid)
    w.drain()  # decision made
    w.service.propose(1, w.make(b"late"), w.byz[0])
    w.drain()
    assert w.byz[0] not in w.service.decided(1).propset
    assert w.byz[0] not in w.service.proposals_for(1)


def test_instance_numbering_is_validated():
    w = SbcWorld()
    with pytest.raises(ValueError):
        w.service.propose(0, Proposal(), w.correct[0])
    with pytest.raises(ValueError):
        w.service.propose(1, Proposal(), ProcessId(77))


# ---------------------------------------------------------------------------
# Deciding as soon as every member has proposed
# ---------------------------------------------------------------------------

COST = 100


def _arrivals(w, h=1):
    return {by: a.arrived_at for by, a in w.service._instances[h].proposals.items()}


def _window_close(w, h=1):
    """When the WINDOW rule decides ``h``: its first correct arrival plus
    WINDOW, plus the decision cost."""
    first = min(t for by, t in _arrivals(w, h).items() if by in w.correct)
    return first + WINDOW + COST


def test_an_instance_every_member_proposed_to_decides_at_the_last_arrival():
    for seed in range(20):
        w = SbcWorld(n_correct=3, n_byz=1, seed=seed, cfg=SbcConfig(COST))
        proposed = {pid: w.make(str(pid.id).encode()) for pid in w.correct + w.byz}
        for pid, p in proposed.items():
            w.service.propose(1, p, pid)
        w.drain()
        decision = w.service.decided(1)
        assert decision.decided_at == max(_arrivals(w).values()) + COST
        assert decision.decided_at < _window_close(w)
        assert decision.propset == proposed


def test_a_member_that_never_proposes_keeps_the_window():
    for silent in ("byzantine", "correct"):
        for seed in range(10):
            w = SbcWorld(n_correct=4 if silent == "correct" else 3, n_byz=1,
                         seed=seed, cfg=SbcConfig(COST))
            proposers = w.correct[:3] + (w.byz if silent == "correct" else ())
            for pid in proposers:
                w.service.propose(1, w.make(b"a"), pid)
            w.drain()
            assert w.service.decided(1).decided_at == _window_close(w), (silent, seed)
            assert set(w.service.decided(1).propset) == set(proposers)


def test_a_repeat_proposal_does_not_stand_in_for_a_missing_member():
    w = SbcWorld(n_correct=3, n_byz=1, seed=5, cfg=SbcConfig(COST))
    z1 = w.make(b"z1")
    w.service.propose(1, z1, w.byz[0])
    while w.byz[0] not in w.service.proposals_for(1):
        w.sim.run_until(w.sim.now + 1)
    w.service.propose(1, w.make(b"z2"), w.byz[0])  # arrives inside the window
    for pid in w.correct[:2]:  # the third correct member never proposes
        w.service.propose(1, w.make(b"a"), pid)
    w.drain()
    assert max(_arrivals(w).values()) + COST < _window_close(w)
    assert w.service.decided(1).decided_at == _window_close(w)
    assert w.service.decided(1).propset[w.byz[0]] == z1


def test_a_fast_instance_behind_an_undecided_one_reaches_everyone_after_it():
    for seed in range(30):
        w = SbcWorld(n_correct=3, n_byz=1, seed=seed, cfg=SbcConfig(COST))
        for pid in w.correct + w.byz:
            w.service.propose(2, w.make(b"second"), pid)
        w.sim.run_until(300)
        assert w.service.decided(2) is None  # its deadline passed; it waits for 1
        for pid in w.correct:
            w.service.propose(1, w.make(b"first"), pid)
        w.drain()
        assert w.service.decided(1).decided_at <= w.service.decided(2).decided_at
        for pid, delivered in w.delivered.items():
            assert [h for h, _ in delivered] == [1, 2], (seed, pid)


def test_nothing_is_decided_before_gst():
    for seed in range(10):
        net = NetConfig(gst=500, rng_seed=seed)
        w = SbcWorld(n_correct=4, seed=seed, net=net, cfg=SbcConfig(COST))
        for pid in w.correct:
            w.service.propose(1, w.make(b"a"), pid)
        w.drain()
        assert max(_arrivals(w).values()) < net.gst
        assert w.service.decided(1).decided_at == net.gst + COST


def test_every_epoch_of_an_all_correct_cluster_is_stamped_soon_after_its_cut():
    """One relay hop of the epoch change, the proposals' arrival, the
    decision cost and the decision's delivery: each epoch is stamped at
    every server within ``decision_cost + 3 * latency_max`` of its cut."""
    bound = SBC.decision_cost + 3 * NetConfig().latency_max
    for seed in range(5):
        sim = Simulation(NetConfig(rng_seed=seed))
        stamped = []  # (epoch, tick) per server and stamp

        def observe(pid, event, payload):
            if event == "stamp":
                stamped.append((payload[0], sim.now))

        c = Cluster(sim, KeyStore(), 4, 1, 0, SBC, None, state_observer=observe)
        author = ProcessId(100, ProcessKind.CLIENT)
        key = c.keys.keygen(author)
        driver = EpochDriver(sim, c.correct[:2])
        cuts = {}
        for h in range(1, 11):
            for i in range(20):  # adds between the cuts, on every server
                sim.run_until(sim.now + 20)
                c.correct[i % 4].add(c.keys.make_element(f"{h}-{i}".encode(),
                                                         author, key))
            cuts[h] = sim.now
            driver.cut()
        sim.run_to_quiescence()
        assert len(stamped) == 4 * 10
        late = [(h, t - cuts[h]) for h, t in stamped if t - cuts[h] > bound]
        assert not late, (seed, late)
