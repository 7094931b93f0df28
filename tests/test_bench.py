"""Scenario runner: reports, invariant monitoring, determinism."""

import csv
import gc
import hashlib
import json
import multiprocessing
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import ServerCluster
import setchain.bench as bench
from setchain import core, wire
from setchain.bench import (
    BenchError,
    SafetyMonitor,
    Scenario,
    Workload,
    preset,
    PRESET_NAMES,
    run_matrix,
    run_scenario,
    safety_matrix,
    safety_scenario,
    seed_from_env,
    write_reports_jsonl,
    write_summary_csv,
)
from setchain.core import Element, History, KeyStore, ProcessId, ProcessKind
from setchain.sbc import WINDOW, Decision
from setchain.server import CentralSetchain
from setchain.simnet import Simulation, NetConfig
from setchain.wire import (
    OP_ADD,
    SHARED_ORIGIN,
    STATUS_OK,
    Proposal,
    encode_madd,
    encode_response,
)


def tiny_scenario(**overrides) -> Scenario:
    """A byz-free run small enough for tight unit tests."""
    params = dict(name="tiny", n=4, epoch_period=400, add_rate=5_000,
                  duration=4_000)
    params.update(overrides)
    return Scenario(**params)


# ---------------------------------------------------------------------------
# Scenario validation and workload scheduling
# ---------------------------------------------------------------------------


def test_scenario_rejects_too_few_servers():
    with pytest.raises(BenchError) as err:
        Scenario(n=3)
    assert err.value.code == "too-few-servers"


def test_scenario_fault_bound_follows_from_n():
    assert [Scenario(n=n).f for n in (4, 6, 7, 9, 10)] == [1, 1, 2, 2, 3]


def test_scenario_rejects_unknown_algorithm_and_adversary():
    with pytest.raises(BenchError) as err:
        safety_scenario(4, "slow", "none")
    assert err.value.code == "unknown-algorithm"
    with pytest.raises(BenchError) as err:
        Scenario(byzantine="sneaky")
    assert err.value.code == "unknown-adversary"


def test_scenario_rejects_non_positive_rates():
    for field in ("epoch_period", "duration", "add_rate"):
        with pytest.raises(BenchError) as err:
            Scenario(**{field: 0})
        assert err.value.code == "non-positive-rate"


def test_workload_schedule_matches_requested_rate():
    assert Scenario(add_rate=50_000).workload_schedule() == (20, 1)
    assert Scenario(add_rate=2_000_000).workload_schedule() == (1, 2)
    assert Scenario(add_rate=1).workload_schedule() == (1_000_000, 1)
    assert Scenario(add_rate=200_000).workload_schedule() == (5, 1)


def test_workload_drops_malformed_responses():
    sim = Simulation(NetConfig(latency_min=1, latency_max=1))
    keys = KeyStore()
    server = ProcessId(0)
    net = sim.register(server, lambda frm, body: None)
    load = Workload(sim, keys, tiny_scenario(), (server,),
                    SafetyMonitor(sim, keys), None)
    load._send_add(load._mint())  # request id 1
    for body in (b"", b"R", b"R\x01\x00", b"\xffjunk"):
        net.send(load.pid, body)
    net.send(load.pid, encode_response(OP_ADD, 1, STATUS_OK))
    sim.run_to_quiescence()
    assert load.accepted == set(load.attempted)


def test_workload_credits_only_an_ok_from_a_correct_server_kind():
    sim = Simulation(NetConfig(latency_min=1, latency_max=1))
    keys = KeyStore()
    byz, correct = ProcessId(0, ProcessKind.BYZANTINE_SERVER), ProcessId(1)
    nets = {pid: sim.register(pid, lambda frm, body: None) for pid in (byz, correct)}
    load = Workload(sim, keys, tiny_scenario(), (byz, correct),
                    SafetyMonitor(sim, keys), None)
    load._send_add(load._mint())  # request 1 to byz, request 2 to correct
    nets[byz].send(load.pid, encode_response(OP_ADD, 1, STATUS_OK))
    sim.run_to_quiescence()
    assert load.accepted == set()
    assert sorted(load.sent) == [1, 2]
    nets[correct].send(load.pid, encode_response(OP_ADD, 2, STATUS_OK))
    sim.run_to_quiescence()
    assert load.accepted == set(load.attempted)
    assert sorted(load.sent) == [1]


def test_byzantine_slots_follow_the_adversary_kind():
    assert Scenario(byzantine="none", n=7).n_byz == 0
    assert Scenario(byzantine="silent", n=7).n_byz == 2
    assert Scenario(byzantine="havoc", n=7).n_byz == 2


def test_every_scenario_name_resolves_to_a_scenario_of_that_name():
    for name in bench.SCENARIO_NAMES:
        assert bench.named_scenario(name).name == name
    assert bench.named_scenario("safety-n7-fast-agg-silent") == \
        safety_scenario(7, "fast-agg", "silent")
    with pytest.raises(BenchError):
        bench.named_scenario("safety-n5-fast-none")


def test_every_scenario_name_is_one_preset_or_one_matrix_cell():
    cells = safety_matrix()
    assert bench.SCENARIO_NAMES == PRESET_NAMES + tuple(c.name for c in cells)
    assert len(set(bench.SCENARIO_NAMES)) == len(PRESET_NAMES) + len(cells) == 25
    assert all(bench.named_scenario(name) is preset(name) for name in PRESET_NAMES)
    assert [bench.named_scenario(c.name) for c in cells] == cells


def test_a_scenario_algorithm_is_fast_agg_exactly_when_it_batches():
    for name in bench.SCENARIO_NAMES:
        s = bench.named_scenario(name)
        assert (s.algorithm == "fast-agg") == (s.agg is not None), name
    assert preset("stock").agg is None
    assert preset("overload-fast").agg is None
    assert safety_scenario(4, "fast", "none").agg is None
    assert safety_scenario(4, "fast-agg", "none").agg == bench.AGG_DESK


def test_presets_all_construct():
    for name in PRESET_NAMES:
        assert preset(name).name in (name, "stock")
    with pytest.raises(BenchError) as err:
        preset("warpspeed")
    assert err.value.code == "unknown-scenario"


def test_seed_from_env(monkeypatch):
    monkeypatch.delenv("SETCHAIN_SEED", raising=False)
    assert seed_from_env(7) == 7
    monkeypatch.setenv("SETCHAIN_SEED", "42")
    assert seed_from_env(7) == 42
    monkeypatch.setenv("SETCHAIN_SEED", "4x2")
    with pytest.raises(ValueError, match="SETCHAIN_SEED='4x2' is not an integer"):
        seed_from_env(7)


# ---------------------------------------------------------------------------
# The safety monitor actually notices misbehaviour
# ---------------------------------------------------------------------------


class _StubServer:
    def __init__(self, pid):
        self.pid = pid
        self.theset = set()
        self.history = History()
        self.open_batches = {}
        self.tobroadcast = {}
        self.fresh_backups = set()  # backups queued since the last proposal
        self.brb = SimpleNamespace(instances={})

    @property
    def epoch(self):
        return self.history.epoch


def _monitor_with_stubs():
    sim = Simulation(NetConfig(rng_seed=0))
    keys = KeyStore()
    author = ProcessId(100, ProcessKind.CLIENT)
    key = keys.keygen(author)
    monitor = SafetyMonitor(sim, keys)
    s0 = _StubServer(ProcessId(0, ProcessKind.CORRECT_SERVER))
    s1 = _StubServer(ProcessId(1, ProcessKind.CORRECT_SERVER))
    monitor.attach(s0)
    monitor.attach(s1)
    mk = lambda tag: keys.make_element(tag, author, key)
    return monitor, s0, s1, mk


def test_monitor_flags_inserts_of_invalid_elements():
    monitor, s0, _, _ = _monitor_with_stubs()
    bogus = Element(b"junk", ProcessId(100, ProcessKind.CLIENT), b"bad-sig")
    s0.theset.add(bogus)
    monitor.observe(s0.pid, "insert", (bogus,))
    assert any("invalid element" in v for v in monitor.violations)


def test_monitor_flags_inserts_with_no_recorded_origin():
    monitor, s0, _, mk = _monitor_with_stubs()
    e = mk(b"orphan")
    s0.theset.add(e)
    monitor.observe(s0.pid, "insert", (e,))
    assert any("unknown origin" in v for v in monitor.violations)


def test_monitor_accepts_a_clean_insert_and_stamp():
    monitor, s0, _, mk = _monitor_with_stubs()
    e = mk(b"fine")
    monitor.record_request(e)
    s0.theset.add(e)
    monitor.observe(s0.pid, "insert", (e,))
    s0.history = s0.history.stamp(1, {e})
    monitor.observe(s0.pid, "stamp", (1, frozenset({e})))
    assert monitor.violations == []


def test_monitor_flags_double_stamping():
    monitor, s0, _, mk = _monitor_with_stubs()
    e = mk(b"twice")
    monitor.record_request(e)
    s0.theset.add(e)
    monitor.observe(s0.pid, "insert", (e,))
    s0.history = s0.history.stamp(1, {e}).stamp(2, {e})
    monitor.observe(s0.pid, "stamp", (1, frozenset({e})))
    monitor.observe(s0.pid, "stamp", (2, frozenset({e})))
    assert any("stamped" in v and "twice" in v for v in monitor.violations)


def test_monitor_flags_entry_disagreement_between_servers():
    monitor, s0, s1, mk = _monitor_with_stubs()
    a, b = mk(b"left"), mk(b"right")
    for e in (a, b):
        monitor.record_request(e)
    s0.theset.add(a)
    monitor.observe(s0.pid, "insert", (a,))
    s1.theset.add(b)
    monitor.observe(s1.pid, "insert", (b,))
    s0.history = s0.history.stamp(1, {a})
    s1.history = s1.history.stamp(1, {b})
    monitor.observe(s0.pid, "stamp", (1, frozenset({a})))
    monitor.observe(s1.pid, "stamp", (1, frozenset({b})))
    assert any("disagrees" in v for v in monitor.violations)


def test_monitor_takes_only_elements_named_by_value_as_origins():
    monitor, _, _, mk = _monitor_with_stubs()
    e = mk(b"named")
    monitor.on_propose(1, Proposal(frozenset([bytes(32)]), frozenset([e])),
                       ProcessId(2))
    assert monitor.origins == {e}


def _codes(monitor):
    return [v.split(" ", 1)[0] for v in monitor.violations]


def test_monitor_flags_batches_kept_open_at_quiescence():
    monitor, _, s1, _ = _monitor_with_stubs()
    s1.open_batches = {bytes(32): frozenset()}
    monitor.quiescence_checks(set(), None)
    assert _codes(monitor) == ["open-batches"]


def test_monitor_flags_a_correct_proposal_off_its_buffer():
    monitor, s0, _, mk = _monitor_with_stubs()
    queued, fresh, other = mk(b"queued"), mk(b"fresh"), mk(b"other")
    s0.tobroadcast = {queued: 0, fresh: 1}
    s0.fresh_backups = {fresh}
    monitor.on_propose(1, Proposal(frozenset(), frozenset([other])), s0.pid)
    assert _codes(monitor) == ["proposal-off-buffer"]


def test_monitor_accepts_a_proposal_equal_to_its_buffer():
    monitor, s0, _, mk = _monitor_with_stubs()
    queued, fresh = mk(b"queued"), mk(b"fresh")
    s0.tobroadcast = {queued: 0, fresh: 1}
    s0.fresh_backups = {fresh}  # not named before the next proposal
    monitor.on_propose(1, Proposal(frozenset(), frozenset([queued])), s0.pid)
    assert monitor.violations == []


def test_monitor_flags_a_correct_proposal_naming_a_fresh_backup():
    monitor, s0, _, mk = _monitor_with_stubs()
    queued, fresh = mk(b"queued"), mk(b"fresh")
    s0.tobroadcast = {queued: 0, fresh: 1}
    s0.fresh_backups = {fresh}  # queued since s0's last proposal
    monitor.on_propose(1, Proposal(frozenset(), frozenset([queued, fresh])), s0.pid)
    assert _codes(monitor) == ["proposal-off-buffer"]


def test_monitor_flags_a_correct_proposal_leaving_out_a_queued_primary():
    monitor, s0, _, mk = _monitor_with_stubs()
    queued, older = mk(b"queued"), mk(b"older-backup")
    s0.tobroadcast = {queued: 0, older: 1}  # neither queued since the last proposal
    monitor.on_propose(1, Proposal(frozenset(), frozenset([older])), s0.pid)
    assert _codes(monitor) == ["proposal-off-buffer"]


def test_monitor_flags_adds_queued_at_quiescence():
    monitor, _, s1, mk = _monitor_with_stubs()
    s1.tobroadcast = {mk(b"stuck"): 0}
    monitor.quiescence_checks(set(), None)
    assert _codes(monitor) == ["queued-adds"]


def _hold(server, origin, delivered=False):
    server.brb.instances[origin, bytes(32)] = SimpleNamespace(
        payload=b"held", delivered=delivered)


def test_monitor_flags_a_payload_never_delivered():
    monitor, s0, s1, _ = _monitor_with_stubs()
    _hold(s1, s0.pid)  # a correct origin's
    monitor.quiescence_checks(set(), None)
    assert _codes(monitor) == ["brb-undelivered"]
    monitor, s0, _, _ = _monitor_with_stubs()
    _hold(s0, SHARED_ORIGIN)  # any origin's, in a run with no Byzantine slot
    monitor.quiescence_checks(set(), CentralSetchain(monitor.keys))
    assert _codes(monitor) == ["brb-undelivered"]


def test_monitor_allows_a_byzantine_origin_payload_never_delivered():
    monitor, s0, s1, _ = _monitor_with_stubs()
    _hold(s0, ProcessId(3, ProcessKind.BYZANTINE_SERVER))
    _hold(s1, s0.pid, delivered=True)
    monitor.quiescence_checks(set(), None)  # no reference: Byzantine slots
    assert monitor.violations == []


def _propose_at(monitor, t, h, server):
    monitor.sim.run_until(t)
    proposal = Proposal(frozenset([bytes([server.pid.id]) * 32]), frozenset())
    monitor.on_propose(h, proposal, server.pid)
    return proposal


def test_monitor_flags_a_correct_proposal_left_out_of_its_decision():
    monitor, s0, s1, _ = _monitor_with_stubs()
    slack = WINDOW - monitor.sim.config.latency_max  # delay bound 5
    p0 = _propose_at(monitor, 10, 1, s0)
    _propose_at(monitor, 10 + slack, 1, s1)  # the last tick it must be in
    monitor.censorship_checks({1: Decision(1, {s0.pid: p0}, 200)})
    assert _codes(monitor) == ["censored-proposal"]
    monitor, s0, _, _ = _monitor_with_stubs()
    decided = {1: Decision(1, {s0.pid: _propose_at(monitor, 1, 1, s0)}, 100)}
    monitor.censorship_checks(decided)
    assert monitor.violations == []
    _propose_at(monitor, 5, 2, s0)  # an instance never decided censors it
    monitor.censorship_checks(decided)
    assert _codes(monitor) == ["censored-proposal"]


def test_monitor_allows_a_decision_without_a_late_or_pre_gst_proposal():
    monitor, s0, s1, _ = _monitor_with_stubs()
    slack = WINDOW - monitor.sim.config.latency_max
    p0 = _propose_at(monitor, 10, 1, s0)
    _propose_at(monitor, 11 + slack, 1, s1)  # may arrive after the deadline
    monitor.censorship_checks({1: Decision(1, {s0.pid: p0}, 200)})
    assert monitor.violations == []
    sim = Simulation(NetConfig(rng_seed=0, gst=100))
    monitor = SafetyMonitor(sim, KeyStore())
    monitor.attach(s0)
    _propose_at(monitor, 99, 1, s0)  # before gst any delay is allowed
    monitor.censorship_checks({1: Decision(1, {}, 300)})
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# Whole-scenario runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_run_holds_every_invariant(name, preset_run):
    report = preset_run(name)
    assert report.ok, report.property_violations[:5]


def _leftover_codes(name, preset_run):
    """The end-of-batching codes in preset ``name``'s report at seed 0: a
    batch kept open or an add left queued at quiescence, and a correct
    proposal that names by value other adds than the primary copies and
    older backup copies its proposer queued."""
    assert preset(name).byzantine != "havoc"  # every proposer is a correct server
    report = preset_run(name)
    assert report.ok, report.property_violations[:5]
    codes = {v.split(" ", 1)[0] for v in report.property_violations}
    return codes & {"open-batches", "queued-adds", "proposal-off-buffer"}


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if preset(n).agg is None])
def test_a_preset_keeps_no_batch_and_proposes_no_element(name, preset_run):
    """After the run no correct server keeps a batch or an add, and with no
    batching its buffer stays empty, so every proposal names digests only."""
    assert not _leftover_codes(name, preset_run)


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if preset(n).agg])
def test_a_batched_preset_keeps_no_batch_and_proposes_only_queued_adds(
        name, preset_run):
    """With batching, a proposal names by value exactly the adds in its
    proposer's buffer but the backup copies queued since its previous
    proposal, and at the end no batch is open and no add queued."""
    assert not _leftover_codes(name, preset_run)


def test_a_batched_run_ends_within_a_few_epoch_periods_of_its_window(preset_run):
    """The drain cuts epochs rather than wait out the 5 s max_wait timers,
    an emptied buffer cancels its timer, and the stopped epoch driver
    cancels its tick, so the run ends when its work ends."""
    scenario = preset("firehose")
    report = preset_run("firehose", 1)
    assert report.ok, report.property_violations[:5]
    assert report.duration < report.final_tick < (
        scenario.duration + scenario.epoch_period)
    assert report.latency.max <= 2 * scenario.epoch_period


def test_small_run_stamps_every_accepted_add():
    report = run_scenario(tiny_scenario())
    assert report.property_violations == []
    assert report.adds_attempted == 20
    assert report.adds_accepted == 20
    assert report.adds_stamped_final == 20
    assert report.adds_stamped <= report.adds_stamped_final
    assert report.latency.count == 20
    assert report.latency.max >= report.latency.avg > 0


class _Cycle:
    def __init__(self):
        self.me = self


@pytest.mark.parametrize("run", [
    pytest.param(lambda scenario: [run_scenario(scenario)], id="run_scenario"),
    pytest.param(lambda scenario: run_matrix([scenario], range(2)), id="run_matrix"),
])
def test_runs_free_older_garbage_first_and_their_clusters_after(monkeypatch, run):
    refs = []
    freed_before_build = []

    class TrackedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            freed_before_build.append(all(ref() is None for ref in refs))
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(bench, "Simulation", TrackedSimulation)
    gc.disable()  # so that only the runs' own collections can free anything
    try:
        refs.append(weakref.ref(_Cycle()))  # garbage from before the runs
        reports = run(safety_scenario(4, "fast", "havoc"))
        assert freed_before_build == [True] * len(reports)
        assert [ref() for ref in refs] == [None] * (1 + len(reports))
        assert gc.get_freeze_count() == 0
    finally:
        gc.enable()
    assert all(r.property_violations == [] for r in reports)


DECODE_MEMOS = (wire.decode_brb, wire.decode_broadcast_message,
                core._element_from_wire)


def _memo_sizes() -> list[int]:
    return [memo.cache_info().currsize for memo in DECODE_MEMOS]


def test_decode_memos_live_for_one_run(monkeypatch):
    sizes_at_build = []

    class TrackedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            sizes_at_build.append(_memo_sizes())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bench, "Simulation", TrackedSimulation)
    scenario = replace(preset("firehose"), duration=2_000)
    first = run_scenario(scenario).to_json()
    assert _memo_sizes() == [0, 0, 0]
    # decode state left by work outside any run
    e = Element(b"left over", ProcessId(9, ProcessKind.CLIENT), b"sig")
    madd = encode_madd([e])
    digest = hashlib.sha256(madd).digest()
    wire.decode_brb(wire.encode_brb(wire.BrbFrame(wire.INIT, e.author, digest, madd)))
    wire.decode_broadcast_message(madd)
    assert 0 not in _memo_sizes()
    second = run_scenario(scenario).to_json()
    assert sizes_at_build == [[0, 0, 0], [0, 0, 0]]
    assert _memo_sizes() == [0, 0, 0]
    assert second == first


def test_a_cluster_outside_a_run_leaves_its_decodes_in_the_memos():
    c = ServerCluster()
    c.correct[0].add(c.element())
    c.drain()
    del c
    assert 0 not in _memo_sizes()  # the conftest fixture empties them next


def test_a_test_starts_with_empty_decode_memos():
    assert _memo_sizes() == [0, 0, 0]


def test_each_add_goes_to_f_plus_one_servers():
    report = run_scenario(tiny_scenario())
    assert report.messages["req-add"] == report.adds_attempted * 2  # f + 1
    assert report.messages["resp-add"] == report.messages["req-add"]


def test_epoch_throughput_tracks_the_driver_period():
    report = run_scenario(tiny_scenario(add_rate=1, epoch_period=200,
                                        duration=100_000))
    assert report.property_violations == []
    # one cut per period, minus pipeline slip at the tail
    assert 450 <= report.epochs_completed <= 501


def test_adversarial_runs_hold_every_invariant():
    for byzantine in ("silent", "havoc"):
        for algorithm in ("fast", "fast-agg"):
            report = run_scenario(safety_scenario(4, algorithm, byzantine))
            assert report.property_violations == []
            assert report.adds_stamped_final == report.adds_attempted


def test_safety_matrix_spans_sizes_algorithms_adversaries():
    scenarios = safety_matrix()
    assert len(scenarios) == 18
    assert {s.n for s in scenarios} == {4, 7, 10}
    assert {s.algorithm for s in scenarios} == {"fast", "fast-agg"}
    assert {s.byzantine for s in scenarios} == {"none", "silent", "havoc"}
    assert {s.f for s in scenarios} == {1, 2, 3}


def test_identical_scenario_and_seed_give_byte_identical_reports():
    scenario = safety_scenario(4, "fast", "havoc")
    first = run_scenario(scenario).to_json()
    second = run_scenario(scenario).to_json()
    assert first == second
    other = run_scenario(scenario.with_seed(1)).to_json()
    assert other != first


def test_matrix_fanout_matches_sequential_runs():
    scenarios = [safety_scenario(4, "fast", "none"),
                 safety_scenario(4, "fast", "havoc")]
    fanned = run_matrix(scenarios, range(2), max_workers=4)
    ordered = [run_scenario(s.with_seed(seed))
               for s in scenarios for seed in range(2)]
    assert [r.to_json() for r in fanned] == [r.to_json() for r in ordered]


def test_a_fanout_with_more_workers_than_jobs_matches_sequential_runs():
    scenario = tiny_scenario()
    fanned = run_matrix([scenario], range(2), max_workers=8)
    ordered = [run_scenario(scenario.with_seed(seed)) for seed in range(2)]
    assert [r.to_json() for r in fanned] == [r.to_json() for r in ordered]


def _fail_at_seed(monkeypatch, seed: int) -> None:
    """Makes each run at ``seed`` raise; forked workers inherit the patch."""
    run = bench._run_scenario

    def failing(scenario):
        if scenario.seed == seed:
            raise BenchError("planted-failure")
        return run(scenario)

    monkeypatch.setattr(bench, "_run_scenario", failing)


def test_a_run_that_raises_in_a_worker_raises_in_the_caller(monkeypatch):
    _fail_at_seed(monkeypatch, 1)
    with pytest.raises(BenchError, match="planted-failure") as raised:
        run_matrix([tiny_scenario()], range(3), max_workers=2)
    assert type(raised.value) is BenchError


@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
def test_a_fanout_leaves_no_worker_and_nothing_frozen(monkeypatch, fails):
    if fails:
        _fail_at_seed(monkeypatch, 1)
    try:
        reports = run_matrix([tiny_scenario()], range(3), max_workers=2)
    except BenchError:
        assert fails
    else:
        assert not fails and len(reports) == 3
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("frozen_by_caller", [False, True])
def test_a_run_leaves_the_freeze_count_as_it_found_it(frozen_by_caller):
    if frozen_by_caller:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        run_scenario(tiny_scenario())
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


def test_batching_spends_fewer_messages_per_add():
    fast = run_scenario(safety_scenario(7, "fast", "none"))
    agg = run_scenario(safety_scenario(7, "fast-agg", "none"))
    assert (agg.messages_total / agg.adds_attempted
            < fast.messages_total / fast.adds_attempted)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def test_report_files_round_trip(tmp_path):
    reports = run_matrix([safety_scenario(4, "fast", "none")], range(2))
    jsonl = tmp_path / "reports.jsonl"
    summary = tmp_path / "summary.csv"
    write_reports_jsonl(jsonl, reports)
    write_summary_csv(summary, reports)

    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert [p["seed"] for p in parsed] == [0, 1]
    assert all(p["property_violations"] == [] for p in parsed)

    with open(summary) as fp:
        rows = list(csv.reader(fp))
    assert rows[0][0] == "scenario"
    assert len(rows) == 3
    assert rows[1][1] == "0" and rows[2][1] == "1"
