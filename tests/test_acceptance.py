"""Acceptance gate: one test per headline requirement, run at full size.

Each test exercises one end-to-end claim about the system — safety under
adversaries, liveness at quiescence, step-level lemmas, the broadcast and
consensus contracts, client soundness, adversary-pooling equivalence, the
four throughput/latency figures, and the reward arithmetic — and prints a
one-line summary with the measured numbers (visible with ``pytest -s`` or
on failure).  The heavyweight adversarial matrix runs once, module-scoped,
and is shared by the first four tests; the fifth checks that each violation
code the monitor emits is read by one of them.
"""

import ast
import hashlib
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BrbWorld, SbcWorld, ServerCluster, run_until_done
from setchain.adversaries import ForgedDigestServer, LyingHistoryServer
import setchain.bench
from setchain.bench import (
    named_scenario,
    run_matrix,
    safety_matrix,
    seed_from_env,
)
from setchain.byz_model import backward_trace_check, forward_trace_check
from setchain.client import OptimisticClient, QuorumClient
from setchain.core import (
    ProcessId,
    ProcessKind,
    encode_element_set,
    hash_epoch,
)
from setchain.incentives import CENT, RewardParams, fee_split, reward
from setchain.server import EpochDriver
from setchain.simnet import TICKS_PER_SECOND, NetConfig
from setchain.wire import BrbFrame, ECHO, INIT, READY

SEEDS = 100
SCALES = ((4, 1), (7, 2))
CLIENT = ProcessKind.CLIENT

# Violation categories emitted by the bench monitor, grouped by the facet
# they witness.  The step-level checks fire inside the state observer after
# every handler; the quiescence checks fire once the cluster has drained.
STEP_SAFETY = frozenset({
    "invalid-element", "unknown-origin", "set-shrunk",
    "stamp-twice", "stamp-outside-set", "record-mismatch", "entry-divergence",
    "proposal-off-buffer",
})
QUIESCENT_LIVENESS = frozenset({
    "set-divergence", "record-divergence", "never-stamped",
    "accepted-missing", "accepted-unstamped", "drain-stalled",
    "open-batches", "queued-adds", "brb-undelivered", "censored-proposal",
})
LEMMA_CODES = frozenset({
    "stamp-twice", "entry-divergence", "record-mismatch", "record-divergence",
})
REFERENCE_CODES = frozenset({"reference-set", "reference-record"})


def _hits(reports, codes):
    """All (scenario, seed, violation) whose category is in ``codes``."""
    out = []
    for r in reports:
        for v in r.property_violations:
            if v.split(" ", 1)[0] in codes:
                out.append((r.scenario, r.seed, v))
    return out


@pytest.fixture(scope="module")
def matrix():
    """The adversarial grid, once: {n=4,7,10} x {fast, fast-agg} x
    {none, silent, havoc} x 100 seeds, shared among as many worker
    processes as this process may use CPUs."""
    start = time.perf_counter()
    reports = run_matrix(safety_matrix(), range(SEEDS),
                         max_workers=len(os.sched_getaffinity(0)))
    return reports, time.perf_counter() - start


def test_step_safety_holds_across_the_adversarial_matrix(matrix):
    reports, elapsed = matrix
    assert len(reports) == 18 * SEEDS
    thin = [(r.scenario, r.seed, r.messages_total) for r in reports
            if r.messages_total < 200]
    assert not thin, f"runs below the 200-event floor: {thin[:5]}"
    bad = _hits(reports, STEP_SAFETY)
    assert not bad, f"step-safety violations: {bad[:5]}"
    assert elapsed < 300.0, f"matrix took {elapsed:.1f}s, budget is 300s"
    events = min(r.messages_total for r in reports)
    print(f"safety matrix: {len(reports)} runs, 0 step violations, "
          f">= {events} events each, {elapsed:.1f}s")


def test_liveness_all_adds_stamped_and_replicas_converge(matrix):
    reports, _ = matrix
    bad = _hits(reports, QUIESCENT_LIVENESS)
    assert not bad, f"liveness violations: {bad[:5]}"
    unaccepted = [(r.scenario, r.seed) for r in reports
                  if r.adds_accepted != r.adds_attempted]
    assert not unaccepted, f"adds lost before acceptance: {unaccepted[:5]}"
    unstamped = [(r.scenario, r.seed) for r in reports
                 if r.adds_stamped_final != r.adds_accepted]
    assert not unstamped, f"accepted adds never stamped: {unstamped[:5]}"
    total = sum(r.adds_stamped_final for r in reports)
    print(f"liveness: {total} adds accepted and stamped across "
          f"{len(reports)} runs, replicas converged in all")


TAIL_PERIODS = 4


def test_batched_adds_are_stamped_within_four_epoch_periods(matrix, preset_run):
    """Every batched add is stamped within a few epochs of its request, in
    the nine fast-agg cells and on ``firehose`` seed 1, and none waits for
    the ``max_wait`` flush (5 M ticks).  A report's latency summary counts
    each add stamped at the reference server, and its max is the longest
    wait among them."""
    reports, _ = matrix
    runs = [r for r in reports if r.algorithm == "fast-agg"]
    assert len(runs) == 9 * SEEDS
    runs.append(preset_run("firehose", 1))
    unstamped = [(r.scenario, r.seed) for r in runs
                 if r.latency.count != r.adds_attempted]
    assert not unstamped, f"adds never stamped: {unstamped[:5]}"
    waited = [(r.latency.max / named_scenario(r.scenario).epoch_period,
               r.scenario, r.seed) for r in runs]
    late = [w for w in waited if w[0] > TAIL_PERIODS]
    assert not late, f"adds stamped after {TAIL_PERIODS} periods: {late[:5]}"
    adds = sum(r.latency.count for r in runs)
    assert adds > 20_000  # 18,000 in the matrix, 20,000 on firehose
    print(f"batched tail: {adds} adds over {len(runs)} runs, each "
          f"stamped within {max(waited)[0]:.2f} epoch periods "
          f"(needs <= {TAIL_PERIODS})")


def test_stamp_once_record_agreement_and_sequential_convergence(matrix):
    reports, _ = matrix
    bad = _hits(reports, LEMMA_CODES)
    assert not bad, f"step-lemma violations: {bad[:5]}"
    clean = [r for r in reports if r.byzantine == "none"]
    assert len(clean) == 6 * SEEDS
    drift = _hits(clean, REFERENCE_CODES)
    assert not drift, f"sequential-reference divergence: {drift[:5]}"
    print(f"lemmas: stamp-once and record agreement on {len(reports)} runs; "
          f"{len(clean)} adversary-free runs match the sequential reference")


def test_every_violation_code_the_monitor_emits_is_in_a_category():
    """The first argument of every ``violate(...)`` call in ``bench`` is in
    a category that one of the matrix tests reads."""
    tree = ast.parse(Path(setchain.bench.__file__).read_text())
    codes = {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "violate"}
    assert {"open-batches", "proposal-off-buffer", "drain-stalled"} <= codes
    uncategorised = codes - (STEP_SAFETY | QUIESCENT_LIVENESS | LEMMA_CODES
                             | REFERENCE_CODES)
    assert not uncategorised, f"violations no gate reads: {sorted(uncategorised)}"


# ---------------------------------------------------------------------------
# Broadcast and consensus contracts, 100 seeds at both scales
# ---------------------------------------------------------------------------


def _brb_round(n, f, seed):
    """One randomized run; returns the set of correctly broadcast pairs
    and the per-process delivery lists."""
    rng = random.Random(f"brb:{n}:{f}:{seed}")
    w = BrbWorld(n, f, n_byz=f, seed=seed)
    broadcast = set()
    for origin in rng.sample(w.correct, 2):
        payload = f"valid-{origin.id}-{seed}".encode()
        w.engines[origin].broadcast(payload)
        broadcast.add((origin, payload))
    byz = w.byz[0]
    # equivocation bait: init only a subset, sometimes help with echo+ready
    partial = f"equiv-{seed}".encode()
    pdig = hashlib.sha256(partial).digest()
    subset = rng.sample(w.correct, rng.randrange(0, len(w.correct) + 1))
    w.inject(byz, BrbFrame(INIT, byz, pdig, partial), subset)
    if rng.random() < 0.5:
        w.inject(byz, BrbFrame(ECHO, byz, pdig, partial), w.correct)
        w.inject(byz, BrbFrame(READY, byz, pdig, None), w.correct)
    # phantom bait: echo+ready for a payload nobody ever inited
    phantom = f"phantom-{seed}".encode()
    ghdig = hashlib.sha256(phantom).digest()
    w.inject(byz, BrbFrame(ECHO, byz, ghdig, phantom), w.correct)
    w.inject(byz, BrbFrame(READY, byz, ghdig, None), w.correct)
    # forgery bait: an init claiming a correct origin, sent from the wrong one
    forged = f"forged-{seed}".encode()
    w.inject(byz, BrbFrame(INIT, w.correct[0],
                           hashlib.sha256(forged).digest(), forged), w.correct)
    w.sim.run_to_quiescence()
    return broadcast, w


def test_reliable_broadcast_contract_at_both_scales():
    runs = 0
    for n, f in SCALES:
        for seed in range(SEEDS):
            broadcast, w = _brb_round(n, f, seed)
            views = []
            for pid in w.correct:
                got = w.delivered[pid]
                # no duplication: at most one delivery per (origin, payload)
                assert len(got) == len(set(got)), (n, f, seed, pid, got)
                # integrity: anything attributed to a correct origin really
                # was broadcast by it (phantom and forged bait never land)
                for origin, payload in got:
                    if origin in w.correct:
                        assert (origin, payload) in broadcast, (
                            n, f, seed, pid, origin, payload)
                # validity: every correct broadcast is delivered
                for pair in broadcast:
                    assert pair in got, (n, f, seed, pid, pair)
                views.append(frozenset(got))
            # agreement/totality: all correct processes deliver the same set
            assert len(set(views)) == 1, (n, f, seed, views)
            runs += 1
    print(f"broadcast contract: validity, no-duplication, integrity, "
          f"agreement on {runs} randomized runs at n=4 and n=7")


def _propset_bytes(propset):
    return b"".join(
        bytes(str(pid), "ascii") + encode_element_set(p.elements)
        for pid, p in sorted(propset.items())
    )


def test_consensus_contract_at_both_scales():
    runs = 0
    for n, f in SCALES:
        for seed in range(SEEDS):
            rng = random.Random(f"sbc:{n}:{f}:{seed}")
            w = SbcWorld(n - f, f, seed, NetConfig(
                latency_min=1, latency_max=400, gst=500, post_gst_bound=10,
                rng_seed=seed))
            w.sim.run_until(600)  # everything below happens after gst
            proposals = {}  # (h, pid) -> proposed set
            for h in (1, 2):
                for pid in w.correct:
                    p = w.make(f"i{h}-own{pid.id}".encode(),
                               f"i{h}-shared{rng.randrange(3)}".encode())
                    proposals[(h, pid)] = p
                    w.service.propose(h, p, pid)
                for pid in w.byz:
                    p = w.make(f"i{h}-byz{rng.randrange(9)}".encode())
                    proposals[(h, pid)] = p
                    w.service.propose(h, p, pid)
            w.sim.run_to_quiescence()
            for h in (1, 2):
                decision = w.service.decided(h)
                # termination: every proposed instance decides
                assert decision is not None, (n, f, seed, h)
                # validity: each decided entry is what that member proposed
                for pid, es in decision.propset.items():
                    assert es == proposals[(h, pid)], (n, f, seed, h, pid)
                # censorship-resistance after gst: no correct member omitted
                assert set(decision.propset) >= set(w.correct), (n, f, seed, h)
                # agreement: byte-identical decision at every correct member
                blobs = set()
                for pid in w.correct:
                    mine = dict(w.delivered[pid])
                    assert h in mine, (n, f, seed, h, pid)
                    blobs.add(_propset_bytes(mine[h]))
                assert len(blobs) == 1, (n, f, seed, h)
            # in-order delivery of instances at every correct member
            for pid in w.correct:
                hs = [h for h, _ in w.delivered[pid]]
                assert hs == sorted(hs) == [1, 2], (n, f, seed, pid, hs)
            runs += 1
    print(f"consensus contract: termination, agreement, validity, "
          f"censorship-resistance, instance order on {runs} runs")


# ---------------------------------------------------------------------------
# Client protocols, 100 seeds
# ---------------------------------------------------------------------------


def _lying(sign):
    return lambda pid, c: LyingHistoryServer(
        pid, c.sim, c.keys, c.privates[pid], c.pids, c.f, c.service,
        sign_epochs=sign)


def _forging(pid, c):
    return ForgedDigestServer(pid, c.sim, c.keys, c.privates[pid], c.pids,
                              c.f, c.service)


def _assert_real_confirmation(cluster, e, conf):
    """A confirmation must name enough distinct signers and match the epoch
    entry every correct server actually recorded, with the element inside."""
    assert len(conf.signers) >= cluster.f + 1
    assert len(set(conf.signers)) == len(conf.signers)
    for server in cluster.correct:
        entry = server.history.get(conf.epoch)
        assert hash_epoch(entry) == conf.digest
        assert e in entry


def test_client_reads_sound_and_confirmations_never_false():
    confirmed = 0
    for seed in range(SEEDS):
        # quorum read against one history-rewriting responder
        cluster = ServerCluster(n=4, f=1, n_byz=1, seed=seed,
                                byz_factory=_lying(sign=False))
        client = QuorumClient(ProcessId(200, CLIENT), cluster.sim,
                              cluster.pids, cluster.f)
        for _ in range(2):
            client.add(cluster.element())
        cluster.drain()
        cluster.correct[0].epoch_inc(1)
        cluster.drain()
        call = run_until_done(cluster.sim, client.get())
        snap = cluster.correct[0].get()
        assert call.error is None, (seed, call.error)
        assert call.result.theset == snap.theset, seed
        assert call.result.history == snap.history, seed
        assert call.result.epoch == snap.epoch, seed

        # optimistic add aimed at a correct server, with a digest forger in
        # the cluster: must confirm, and only for the real epoch content
        forge = ServerCluster(n=4, f=1, n_byz=1, seed=seed, sign_epochs=True,
                              byz_factory=_forging)
        driver = EpochDriver(forge.sim, forge.correct[:2], period=200)
        driver.start()
        fclient = OptimisticClient(ProcessId(300, CLIENT), forge.sim,
                                   forge.keys, forge.pids, forge.f)
        e = forge.element()
        fcall = fclient.add_and_confirm(e, target=forge.pids[seed % 3])
        run_until_done(forge.sim, fcall)
        driver.stop()
        forge.drain()
        assert fcall.confirmation is not None, (seed, fcall.error)
        assert forge.byz_pids[0] not in fcall.confirmation.signers, seed
        _assert_real_confirmation(forge, e, fcall.confirmation)
        confirmed += 1

        # optimistic add aimed straight at a history liar: the fabricated
        # snapshot must not confirm; retries reach a correct server
        lied = ServerCluster(n=4, f=1, n_byz=1, seed=seed, sign_epochs=True,
                             byz_factory=_lying(sign=True))
        driver = EpochDriver(lied.sim, lied.correct[:2], period=200)
        driver.start()
        lclient = OptimisticClient(ProcessId(300, CLIENT), lied.sim,
                                   lied.keys, lied.pids, lied.f)
        e = lied.element()
        lcall = lclient.add_and_confirm(e, target=lied.byz_pids[0])
        run_until_done(lied.sim, lcall)
        driver.stop()
        lied.drain()
        assert lcall.confirmation is not None, (seed, lcall.error)
        assert lcall.attempts >= 2, seed  # the lying probe burned one try
        _assert_real_confirmation(lied, e, lcall.confirmation)
        confirmed += 1
    print(f"clients: quorum reads matched a correct server on {SEEDS} seeds; "
          f"{confirmed} optimistic confirmations, zero false, under forged "
          f"digests and fabricated histories")


# ---------------------------------------------------------------------------
# Adversary pooling stays observationally equivalent
# ---------------------------------------------------------------------------


def test_adversary_pooling_equivalence_on_traces_both_directions():
    start = time.perf_counter()
    checked = 0
    for n, f in SCALES:
        for seed in range(SEEDS):
            fwd = forward_trace_check(n, f, seed, length=200)
            assert fwd.ok, (n, f, seed, "forward", fwd.reason, fwd.index)
            assert len(fwd.events) == 200
            bwd = backward_trace_check(n, f, seed, length=200)
            assert bwd.ok, (n, f, seed, "backward", bwd.reason, bwd.index)
            assert len(bwd.events) == 200
            checked += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"equivalence checks took {elapsed:.1f}s"
    print(f"adversary pooling: {checked} trace mappings of 200 events held "
          f"at n=4 and n=7, receipts always recorded, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Headline performance figures
# ---------------------------------------------------------------------------


def test_default_scenario_stamps_hundredfold_more_adds_than_epochs(preset_run):
    report = preset_run("stock", seed_from_env(0))
    assert report.ok, report.property_violations[:3]
    ratio = report.adds_stamped / report.epochs_completed
    assert ratio >= 100.0, ratio
    print(f"default scenario: {report.adds_stamped} adds stamped over "
          f"{report.epochs_completed} epochs = {ratio:.1f} adds/epoch "
          f"(needs >= 100)")


def test_batching_at_least_doubles_overloaded_throughput(preset_run):
    seed = seed_from_env(0)
    plain = preset_run("overload-fast", seed)
    batched = preset_run("overload-agg", seed)
    assert plain.ok and batched.ok
    plain_rate = plain.adds_stamped * TICKS_PER_SECOND / plain.duration
    batched_rate = batched.adds_stamped * TICKS_PER_SECOND / batched.duration
    speedup = math.inf if plain_rate == 0 else batched_rate / plain_rate
    assert speedup >= 2.0, (plain_rate, batched_rate, speedup)
    print(f"batching under overload at n=7: {plain_rate:.0f} vs "
          f"{batched_rate:.0f} adds/s, speedup {speedup:.2f}x (needs >= 2)")


def test_silent_minority_keeps_most_throughput_at_ten_servers(preset_run):
    seed = seed_from_env(0)
    healthy = preset_run("large-none", seed)
    degraded = preset_run("large-silent", seed)
    assert healthy.ok and degraded.ok
    kept = ((degraded.adds_stamped / degraded.duration)
            / (healthy.adds_stamped / healthy.duration))
    assert kept > 0.5, kept
    print(f"silent minority at n=10: throughput kept "
          f"{100 * kept:.1f}% of the healthy run (needs > 50%)")


def test_latency_medians_stay_flat_over_a_long_run(preset_run):
    report = preset_run("marathon", seed_from_env(0))
    assert report.ok, report.property_violations[:3]
    meds = [w.median for w in report.latency.windows if w.count]
    assert len(meds) >= 2, meds
    ratio = meds[-1] / meds[0]
    assert ratio <= 2.0, ratio
    print(f"latency over a 1e6-tick run: window medians "
          f"{meds[0]:.0f}..{meds[-1]:.0f} ticks, last/first "
          f"{ratio:.3f} (needs <= 2)")


# ---------------------------------------------------------------------------
# Reward arithmetic, exhaustively
# ---------------------------------------------------------------------------


def test_reward_cliff_strict_monotonicity_and_fee_conservation():
    checked = 0
    for n in (4, 7, 10):
        f = (n - 1) // 3
        p = RewardParams(c=1, f_threshold=f, n=n)
        for e in range(101):
            for s in range(n + 1):
                r = reward(e, s, p)
                if s <= f:
                    assert r == 0, (n, e, s)
                else:
                    assert r == 1 + e + s, (n, e, s)
                    if e > 0:
                        assert r > reward(e - 1, s, p), (n, e, s)
                    assert r > reward(e, s - 1, p), (n, e, s)
                checked += 1
        pids = [ProcessId(i) for i in range(n)]
        for k in range(1, n + 1):
            for ratio in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                          Fraction(9, 10), Fraction(1)):
                pp = RewardParams(c=1, f_threshold=f, n=n, burn_ratio=ratio)
                for x in (Fraction(0), Fraction(7, 100), Fraction(1, 3),
                          Fraction(10), Fraction(12345, 100)):
                    split = fee_split(x, pids[:k], pp)
                    assert split.total() == x, (n, k, ratio, x)
                    assert split.burned >= x * ratio, (n, k, ratio, x)
                    assert set(split.payouts) == set(pids[:k])
                    vals = sorted(split.payouts.values())
                    assert vals[0] >= 0
                    assert vals[-1] - vals[0] <= CENT, (n, k, ratio, x)
                    checked += 1
    print(f"rewards: cliff, strict monotonicity and exact fee conservation "
          f"over {checked} parameter points")
