"""The four benchmark workloads, driven through setchain's public API.

Every workload takes its seed, builds its fixed input (:meth:`build`, the
set-up that ``setup_s`` times) and runs it (:meth:`run`), returning an
:class:`Outcome`.  With no probe the run is a wall-clock rep: nothing is
patched and ``wall_s`` times simulate, drain and check.  With a
:class:`~tracing.Probe` (or a :class:`~tracing.Tracer`) installed the run also
yields the simulated metrics, which are a pure function of the seed.

Stamp latency is taken from the ``SafetyMonitor``'s request and stamp ticks
of adds stamped within the driven window, never from ``RunReport.latency``:
that summary's median and max also cover adds stamped while the run drains,
and on ``firehose`` the drain runs to quiescence and fires the 5 s
``AggConfig.max_wait`` flush before it cuts the last epoch (a max of about
5,000,185 ticks).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

import setchain.bench as bench
import setchain.wire as wire
from setchain.adversaries import LyingHistoryServer
from setchain.client import OptimisticClient, QuorumClient
from setchain.core import KeyStore, ProcessId, ProcessKind, hash_epoch, random_payload
from setchain.sbc import ConsensusService, SbcConfig
from setchain.server import AggConfig, EpochDriver, RequestRejected, SetchainServer
from setchain.simnet import NetConfig, Simulation

from tracing import Probe, median, percentile

TICKS_PER_SECOND = bench.TICKS_PER_SECOND
P99_MIN_SAMPLES = 1000  # p99 is reported only with ten samples beyond it
MATRIX_SEEDS_PER_REP = 2
MATRIX_WORKERS = 2  # the core count of the machine the baseline was taken on


@dataclass
class Outcome:
    """One rep of a workload: what it cost, what it produced, what broke."""

    wall_s: float
    digests: list[str]
    violations: list[str]
    attempted: int
    failed: int
    simulated: Optional[dict] = None  # only from probed reps


def digest(text: str) -> str:
    """The report digest printed for every rep: sha256 of its canonical JSON."""
    return hashlib.sha256(text.encode()).hexdigest()


def simulated_metrics(latencies: list[int], stamped_in_window: int,
                      sim_seconds: float, messages: int, frame_bytes: int,
                      stamped_final: int) -> dict:
    """The simulated end-to-end metrics shared by every workload."""
    out = {
        "stamped_per_sim_s": stamped_in_window / sim_seconds,
        "stamp_latency_p50_ticks": median(latencies),
        "msgs_per_add": messages / stamped_final if stamped_final else 0.0,
        "bytes_per_add": frame_bytes / stamped_final if stamped_final else 0.0,
    }
    if len(latencies) >= P99_MIN_SAMPLES:
        out["stamp_latency_p99_ticks"] = percentile(latencies, 0.99)
    out["latency_samples"] = len(latencies)
    return out


# ---------------------------------------------------------------------------
# Workloads made of run_scenario / run_matrix calls
# ---------------------------------------------------------------------------


class ScenarioWorkload:
    """``run_scenario`` on one preset."""

    def __init__(self, preset: str, **tiny):
        self.preset = preset
        self.tiny = tiny  # Scenario fields shrunk for the benchmark's tests

    def build(self, seed: int, tiny: bool = False) -> list:
        scenario = bench.preset(self.preset).with_seed(seed)
        if tiny:
            scenario = replace(scenario, **self.tiny)
        return [scenario]

    def run(self, cells: list, probe: Optional[Probe] = None) -> Outcome:
        t0 = time.perf_counter()
        reports = [bench.run_scenario(cell) for cell in cells]
        wall = time.perf_counter() - t0
        return _scenario_outcome(wall, reports, probe)


class MatrixWorkload:
    """The Tier-1 safety matrix through ``run_matrix``; probed and traced
    reps run the cells in-process, in ``run_matrix``'s job order, so that
    their hooks see every cell whatever pool ``run_matrix`` uses."""

    def build(self, seed: int, tiny: bool = False) -> list:
        first = seed * MATRIX_SEEDS_PER_REP
        seeds = range(first, first + (1 if tiny else MATRIX_SEEDS_PER_REP))
        scenarios = bench.safety_matrix(ns=(4,) if tiny else (4, 7, 10))
        return [scenarios, seeds]

    def run(self, cells: list, probe: Optional[Probe] = None) -> Outcome:
        scenarios, seeds = cells
        t0 = time.perf_counter()
        if probe is None:
            reports = bench.run_matrix(scenarios, seeds, max_workers=MATRIX_WORKERS)
        else:
            reports = [bench.run_scenario(s.with_seed(seed))
                       for s in scenarios for seed in seeds]
        wall = time.perf_counter() - t0
        return _scenario_outcome(wall, reports, probe)


def _scenario_outcome(wall: float, reports: list, probe: Optional[Probe]) -> Outcome:
    violations = [f"{r.scenario}/seed{r.seed}: {v}"
                  for r in reports for v in r.property_violations]
    attempted = sum(r.adds_attempted for r in reports)
    failed = sum(r.adds_attempted - r.adds_stamped_final for r in reports)
    outcome = Outcome(wall, [digest(r.to_json()) for r in reports], violations,
                      attempted, failed)
    if probe is not None:
        if len(probe.monitors) != len(reports):
            raise RuntimeError("probe saw a different number of runs than reports")
        latencies = []
        for monitor, r in zip(probe.monitors, reports):
            stamp = monitor.stamp_tick
            latencies.extend(stamp[e] - t0 for e, t0 in monitor.request_tick.items()
                             if e in stamp and stamp[e] <= r.duration)
        outcome.simulated = simulated_metrics(
            latencies,
            stamped_in_window=sum(r.adds_stamped for r in reports),
            sim_seconds=sum(r.duration for r in reports) / TICKS_PER_SECOND,
            messages=sum(r.messages_total for r in reports),
            frame_bytes=probe.bytes_total,
            stamped_final=sum(r.adds_stamped_final for r in reports),
        )
    return outcome


# ---------------------------------------------------------------------------
# reads: a cluster built here, with clients reading and confirming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadsConfig:
    window: int = 50_000  # ticks of driven load
    epoch_period: int = 200  # short, so the history reaches ~250 epochs
    write_every: int = 400  # open-loop quorum writes, one per slot at a seeded offset
    read_think: int = 1_500  # closed-loop quorum reads: pause after each
    drain_rounds: int = 50


READS_TINY = ReadsConfig(window=6_000)


class ReadsCluster:
    """n=4, f=1 with epoch signing and one lying server; a quorum client
    writes on a schedule and reads in a closed loop, an optimistic client
    runs ``add_and_confirm`` back to back."""

    n, f = 4, 1

    def __init__(self, seed: int, cfg: ReadsConfig):
        self.cfg = cfg
        self.sim = sim = Simulation(NetConfig(rng_seed=seed), record_log=False)
        sim.frame_classifier = wire.classify  # looked up now: a probe's counter
        self.keys = keys = KeyStore()
        service = ConsensusService(sim, SbcConfig(decision_cost=100))
        pids = tuple(ProcessId(i, ProcessKind.CORRECT_SERVER) for i in range(self.n - 1))
        pids += (ProcessId(self.n - 1, ProcessKind.BYZANTINE_SERVER),)
        self.servers = [
            SetchainServer(pid, sim, keys, keys.keygen(pid), pids, self.f, service,
                           sign_epochs=True,
                           state_observer=self._observe if i == 0 else None)
            for i, pid in enumerate(pids[:-1])
        ]
        LyingHistoryServer(pids[-1], sim, keys, keys.keygen(pids[-1]), pids, self.f,
                           service, sign_epochs=True)
        self.driver = EpochDriver(sim, self.servers[: self.f + 1], cfg.epoch_period)
        writer = ProcessId(200, ProcessKind.CLIENT)
        self.writer_key = keys.keygen(writer)
        self.quorum = QuorumClient(writer, sim, pids, self.f)
        confirmer = ProcessId(300, ProcessKind.CLIENT)
        self.confirmer_key = keys.keygen(confirmer)
        self.optimistic = OptimisticClient(confirmer, sim, keys, pids, self.f,
                                           epoch_period=cfg.epoch_period)
        self.rng = random.Random(f"reads:{seed}")
        self.request_tick: dict = {}
        self.stamp_tick: dict = {}
        self.reads: list = []
        self.confirms: list = []  # (call, start tick, end tick)
        self._confirm_start = 0
        self._confirm_call = None

    def _observe(self, pid, event: str, payload) -> None:
        if event == "stamp":
            for e in payload[1]:
                if e in self.request_tick:
                    self.stamp_tick.setdefault(e, self.sim.now)

    def _mint(self, client: QuorumClient | OptimisticClient, key: bytes):
        e = self.keys.make_element(random_payload(self.rng), client.pid, key)
        self.request_tick[e] = self.sim.now
        return e

    def _write(self) -> None:
        self.quorum.add(self._mint(self.quorum, self.writer_key))

    def _read(self) -> None:
        if self.sim.now < self.cfg.window:
            self.reads.append(self.quorum.get(on_done=self._read_done))

    def _read_done(self, call) -> None:
        self.sim.schedule(self.sim.now + self.cfg.read_think, self._read)

    def _confirm(self) -> None:
        if self.sim.now < self.cfg.window:
            self._confirm_start = self.sim.now
            e = self._mint(self.optimistic, self.confirmer_key)
            self._confirm_call = self.optimistic.add_and_confirm(
                e, on_done=self._confirm_done)

    def _confirm_done(self, call) -> None:
        self.confirms.append((call, self._confirm_start, self.sim.now))
        self.sim.schedule(self.sim.now, self._confirm)

    def _busy(self) -> bool:
        """A quorum read or a confirmation is still in flight."""
        calls = self.reads[-1:] + ([self._confirm_call] if self._confirm_call else [])
        return any(not call.done for call in calls)

    def run(self) -> None:
        cfg, sim = self.cfg, self.sim
        for t in range(cfg.write_every, cfg.window, cfg.write_every):
            sim.schedule(t + self.rng.randrange(cfg.write_every), self._write)
        sim.schedule(1, self._read)
        sim.schedule(1, self._confirm)
        self.driver.start(cfg.epoch_period)
        sim.run_until(cfg.window)
        while self._busy():  # let calls in flight finish under the epoch timer
            sim.run_until(sim.now + cfg.epoch_period)
        self.driver.stop()
        sim.run_to_quiescence()
        for _ in range(cfg.drain_rounds):
            if self._settled():
                break
            for srv in self.servers[: self.f + 1]:
                try:
                    srv.epoch_inc(srv.epoch + 1)
                except RequestRejected:
                    pass
            sim.run_to_quiescence()

    def _settled(self) -> bool:
        if len({srv.epoch for srv in self.servers}) != 1:
            return False
        return all(self.request_tick.keys() <= srv.history.union()
                   for srv in self.servers)

    def check(self) -> tuple[list[str], int, int]:
        """Correctness gate: (violations, operations attempted, failed)."""
        violations = []
        final = self.servers[0].history
        for srv in self.servers[1:]:
            if srv.history != final:
                violations.append(f"record-divergence: {srv.pid!r}")
        stamped = final.union()
        unstamped = [e for e in self.request_tick if e not in stamped]
        if unstamped:
            violations.append(f"accepted-unstamped: {len(unstamped)} adds")
        done = [call for call in self.reads if call.done]
        read_failed = 0
        for call in done:
            if call.error is not None:
                read_failed += 1
                continue
            got = call.result
            if got.history.entries != final.entries[: got.epoch]:
                violations.append(f"read-not-prefix: a read of epoch {got.epoch}")
            elif not got.theset <= self.servers[0].theset:
                violations.append("read-outside-set: a read holds foreign elements")
        unconfirmed = 0
        for call, _, _ in self.confirms:
            conf = call.confirmation
            if conf is None:
                unconfirmed += 1
            elif (conf.epoch > final.epoch or conf.element not in final.get(conf.epoch)
                  or conf.digest != hash_epoch(final.get(conf.epoch))):
                violations.append(f"confirmation-mismatch: epoch {conf.epoch}")
        attempted = len(self.request_tick) + len(done) + len(self.confirms)
        return violations, attempted, len(unstamped) + read_failed + unconfirmed

    def summary(self) -> str:
        """Canonical JSON of the run's simulated outcome (the report)."""
        return json.dumps({
            "history": [_entry_digest(es) for es in self.servers[0].history.entries],
            "epoch": self.servers[0].epoch,
            "final_tick": self.sim.now,
            "messages": dict(sorted(self.sim.counts.items())),
            "stamp_ticks": sorted(self.stamp_tick.values()),
            "reads": [call.result.epoch if call.result else call.error
                      for call in self.reads if call.done],
            "confirms": [[call.attempts, call.confirmation.epoch
                          if call.confirmation else None, t0, t1]
                         for call, t0, t1 in self.confirms],
        }, sort_keys=True)


def _entry_digest(elements) -> str:
    """Digest of one epoch entry, computed without the traced core helpers."""
    return hashlib.sha256(b"".join(sorted(e.wire for e in elements))).hexdigest()[:16]


class ReadsWorkload:
    def build(self, seed: int, tiny: bool = False) -> ReadsCluster:
        return ReadsCluster(seed, READS_TINY if tiny else ReadsConfig())

    def run(self, cluster: ReadsCluster, probe: Optional[Probe] = None) -> Outcome:
        t0 = time.perf_counter()
        cluster.run()
        violations, attempted, failed = cluster.check()
        wall = time.perf_counter() - t0
        window = cluster.cfg.window
        outcome = Outcome(wall, [digest(cluster.summary())], violations,
                          attempted, failed)
        if probe is not None:
            stamp = cluster.stamp_tick
            latencies = [stamp[e] - t for e, t in cluster.request_tick.items()
                         if e in stamp and stamp[e] <= window]
            outcome.simulated = simulated_metrics(
                latencies,
                stamped_in_window=len(latencies),
                sim_seconds=window / TICKS_PER_SECOND,
                messages=cluster.sim.delivered_total,
                frame_bytes=probe.bytes_total,
                stamped_final=len(stamp),
            )
            confirm = [t1 - t0 for call, t0, t1 in cluster.confirms
                       if call.confirmation]
            outcome.simulated["confirm_latency_p50_ticks"] = median(confirm)
        return outcome


WORKLOADS = {
    "firehose": ScenarioWorkload("firehose", duration=6_000, epoch_period=2_000,
                                 agg=AggConfig(max_batch=100, max_wait=5_000_000)),
    "matrix": MatrixWorkload(),
    "overload": ScenarioWorkload("overload-fast", duration=2_000, epoch_period=600),
    "reads": ReadsWorkload(),
}
