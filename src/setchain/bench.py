"""Scenario runner: drives a simulated cluster under load, checks invariants.

A :class:`Scenario` describes one cluster configuration plus a client
workload; :func:`run_scenario` builds the cluster, injects adds through
the request wire at ``f + 1`` servers apiece, cuts epochs on a timer,
and watches every state change through :class:`SafetyMonitor`.  The
result is a :class:`RunReport` whose JSON form is byte-identical across
repeated runs of the same scenario and seed.

Two kinds of checks run:

* incremental — after every insert/stamp at a correct server: the set
  only grows, every inserted element is valid and has a recorded origin
  (a client add, a broadcast batch, or a consensus proposal), no element
  is stamped twice, and all servers agree byte-for-byte on each epoch's
  entry;
* at quiescence — after the workload stops and the queues drain: all
  correct servers expose identical sets and records, every accepted add
  is stamped everywhere, and on runs with no Byzantine servers the
  cluster matches the sequential single-process reference.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from .adversaries import HavocServer, SilentServer
from .core import Element, KeyStore, ProcessId, ProcessKind, encode_element_set
from .sbc import ConsensusService, SbcConfig
from .server import (
    AGG_DESK,
    AggConfig,
    CentralSetchain,
    EpochDriver,
    RequestRejected,
    SetchainServer,
)
from .simnet import NetConfig, Simulation, SimTime
from .wire import (
    OP_ADD,
    STATUS_OK,
    FrameError,
    classify,
    decode_broadcast_message,
    decode_response,
    encode_request,
)

TICKS_PER_SECOND = 1_000_000  # one tick is a simulated microsecond

ALGORITHMS = ("fast", "fast-agg")
ADVERSARIES = ("none", "silent", "havoc")

_WINDOWS = 10
_DRAIN_ROUNDS = 50


class BenchError(ValueError):
    """A scenario, metric, or comparison was malformed."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def seed_from_env(default: int = 0) -> int:
    """Honours the SETCHAIN_SEED environment variable."""
    raw = os.environ.get("SETCHAIN_SEED")
    return default if raw is None else int(raw)


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One cluster configuration plus the client workload driving it."""

    name: str = "stock"
    n: int = 4
    f: int = 1
    algorithm: str = "fast"  # "fast" or "fast-agg"
    byzantine: str = "none"  # "none", "silent", or "havoc"
    epoch_period: int = 20_000  # ticks between epoch-cut requests
    add_rate: int = 50_000  # client adds per simulated second
    duration: int = 100_000  # ticks of driven workload
    seed: int = 0
    net: NetConfig = NetConfig()
    agg: AggConfig = AGG_DESK
    sbc: SbcConfig = SbcConfig(decision_cost=100)

    def __post_init__(self) -> None:
        if self.f < 1 or self.n < 3 * self.f + 1:
            raise BenchError("too-few-servers")
        if self.algorithm not in ALGORITHMS:
            raise BenchError("unknown-algorithm")
        if self.byzantine not in ADVERSARIES:
            raise BenchError("unknown-adversary")
        if self.epoch_period < 1 or self.duration < 1 or self.add_rate < 1:
            raise BenchError("non-positive-rate")

    @property
    def n_byz(self) -> int:
        return 0 if self.byzantine == "none" else self.f

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def workload_schedule(self) -> tuple[int, int]:
        """(interval ticks, adds per interval) approximating ``add_rate``."""
        batch = max(1, math.ceil(self.add_rate / TICKS_PER_SECOND))
        interval = max(1, round(batch * TICKS_PER_SECOND / self.add_rate))
        return interval, batch


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass
class WindowStats:
    """Stamp-latency statistics for one slice of the run."""

    start: int
    end: int
    count: int
    avg: float
    max: int
    median: float


@dataclass
class LatencySummary:
    """Request-to-stamp latency of workload elements, overall and windowed."""

    count: int
    avg: float
    max: int
    median: float
    windows: list[WindowStats]


@dataclass
class RunReport:
    """Everything measured and checked in one scenario run."""

    scenario: str
    seed: int
    n: int
    f: int
    algorithm: str
    byzantine: str
    duration: int
    adds_attempted: int
    adds_accepted: int
    adds_stamped: int  # stamped within the driven window
    adds_stamped_final: int  # stamped by quiescence
    epochs_completed: int  # epoch at the end of the driven window
    epochs_final: int
    final_tick: int
    latency: LatencySummary
    messages: dict[str, int]
    messages_total: int
    property_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.property_violations

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


METRICS = ("adds-per-second", "epochs-per-second", "adds-per-epoch",
           "messages-per-add")


def metric_value(report: RunReport, metric: str) -> float:
    """One scalar throughput/cost figure from a report."""
    seconds = report.duration / TICKS_PER_SECOND
    if metric == "adds-per-second":
        return report.adds_stamped / seconds
    if metric == "epochs-per-second":
        return report.epochs_completed / seconds
    if metric == "adds-per-epoch":
        if report.epochs_completed == 0:
            raise BenchError("degenerate-metric")
        return report.adds_stamped / report.epochs_completed
    if metric == "messages-per-add":
        if report.adds_attempted == 0:
            raise BenchError("degenerate-metric")
        return report.messages_total / report.adds_attempted
    raise BenchError("unknown-metric")


def compare(a: RunReport, b: RunReport, metric: str) -> float:
    """Ratio ``metric(a) / metric(b)``; the denominator must be nonzero."""
    num, den = metric_value(a, metric), metric_value(b, metric)
    if den == 0:
        raise BenchError("degenerate-metric")
    return num / den


def stationarity_ratio(report: RunReport) -> float:
    """Last-window median latency over first-window median latency."""
    nonempty = [w for w in report.latency.windows if w.count > 0]
    if len(nonempty) < 2 or nonempty[0].median == 0:
        raise BenchError("degenerate-metric")
    return nonempty[-1].median / nonempty[0].median


# ---------------------------------------------------------------------------
# Incremental safety monitor
# ---------------------------------------------------------------------------


class SafetyMonitor:
    """Checks every state change of every correct server as it happens."""

    def __init__(self, sim: Simulation, keys: KeyStore):
        self.sim = sim
        self.keys = keys
        self.violations: list[str] = []
        self.origins: set[Element] = set()  # add/broadcast/proposal records
        self.request_tick: dict[Element, SimTime] = {}
        self.stamp_tick: dict[Element, SimTime] = {}
        self.servers: dict[ProcessId, SetchainServer] = {}
        self.stamped: dict[ProcessId, set[Element]] = {}
        self.inserted: dict[ProcessId, int] = {}
        self.entries: dict[int, bytes] = {}  # epoch -> canonical entry bytes
        self.reference: Optional[ProcessId] = None

    def attach(self, server: SetchainServer) -> None:
        if self.reference is None:
            self.reference = server.pid
        self.servers[server.pid] = server
        self.stamped[server.pid] = set()
        self.inserted[server.pid] = 0

    def violate(self, code: str, text: str) -> None:
        self.violations.append(f"{code} t={self.sim.now} {text}")

    # -- origin records ------------------------------------------------------

    def record_request(self, e: Element) -> None:
        """A client add attempt: an origin record plus a latency start mark."""
        self.origins.add(e)
        self.request_tick.setdefault(e, self.sim.now)

    def on_broadcast(self, origin: ProcessId, payload: bytes) -> None:
        kind, value = decode_broadcast_message(payload)
        if kind == "add":
            self.origins.update(value)

    def on_propose(self, h: int, elements: frozenset, by: ProcessId) -> None:
        self.origins.update(elements)

    # -- per-event checks ----------------------------------------------------

    def observe(self, pid: ProcessId, event: str, payload: object) -> None:
        server = self.servers[pid]
        if event == "insert":
            self._check_insert(server, payload)
        elif event == "stamp":
            h, entry = payload
            self._check_stamp(server, h, entry)

    def _check_insert(self, server: SetchainServer, elements: tuple) -> None:
        for e in elements:
            if not self.keys.valid(e):
                self.violate("invalid-element",
                             f"{server.pid!r} inserted an invalid element")
            if e not in self.origins:
                self.violate("unknown-origin",
                             f"{server.pid!r} inserted an element of unknown origin")
        self.inserted[server.pid] += len(elements)
        if len(server.theset) != self.inserted[server.pid]:
            self.violate("set-shrunk",
                         f"{server.pid!r} set size is off the insert books")

    def _check_stamp(self, server: SetchainServer, h: int, entry: frozenset) -> None:
        pid = server.pid
        again = self.stamped[pid] & entry
        if again:
            self.violate("stamp-twice",
                         f"{pid!r} stamped {len(again)} elements twice at epoch {h}")
        self.stamped[pid] |= entry
        if not entry <= server.theset:
            self.violate("stamp-outside-set",
                         f"{pid!r} stamped elements missing from its set")
        if server.epoch != h or server.history.get(h) != entry:
            self.violate("record-mismatch",
                         f"{pid!r} record does not expose its epoch-{h} entry")
        blob = encode_element_set(entry)
        if self.entries.setdefault(h, blob) != blob:
            self.violate("entry-divergence",
                         f"{pid!r} disagrees on the epoch-{h} entry")
        if pid == self.reference:
            for e in entry:
                if e in self.request_tick:
                    self.stamp_tick[e] = self.sim.now

    # -- checks once the run has drained ------------------------------------

    def quiescence_checks(self, accepted: set[Element],
                          central: Optional[CentralSetchain]) -> None:
        servers = [self.servers[pid] for pid in sorted(self.servers, key=lambda p: p.id)]
        ref = servers[0]
        for other in servers[1:]:
            if other.theset != ref.theset:
                self.violate("set-divergence",
                             f"{other.pid!r} set differs from {ref.pid!r}")
            if other.epoch != ref.epoch or other.history != ref.history:
                self.violate("record-divergence",
                             f"{other.pid!r} record differs from {ref.pid!r}")
        for server in servers:
            if server.theset != self.stamped[server.pid]:
                self.violate("never-stamped",
                             f"{server.pid!r} holds elements that never got stamped")
        missing = accepted - ref.theset
        if missing:
            self.violate("accepted-missing",
                         f"{len(missing)} accepted adds absent from {ref.pid!r}")
        unstamped = accepted - self.stamped[ref.pid]
        if unstamped:
            self.violate("accepted-unstamped",
                         f"{len(unstamped)} accepted adds never stamped")
        if central is not None:
            if central.theset != ref.theset:
                self.violate("reference-set",
                             "cluster set diverged from the sequential reference")
            if central.history.union() != self.stamped[ref.pid]:
                self.violate("reference-record",
                             "cluster record diverged from the sequential reference")

    # -- latency aggregation -------------------------------------------------

    def latency_summary(self, duration: int) -> LatencySummary:
        pairs = [(self.stamp_tick[e] - t0, self.stamp_tick[e])
                 for e, t0 in self.request_tick.items() if e in self.stamp_tick]
        width = max(1, duration // _WINDOWS)
        buckets: list[list[int]] = [[] for _ in range(_WINDOWS)]
        for lat, stamped_at in pairs:
            if stamped_at <= duration:
                buckets[min(_WINDOWS - 1, stamped_at // width)].append(lat)
        windows = [
            WindowStats(
                start=i * width,
                end=duration if i == _WINDOWS - 1 else (i + 1) * width,
                count=len(b),
                avg=statistics.fmean(b) if b else 0.0,
                max=max(b) if b else 0,
                median=statistics.median(b) if b else 0.0,
            )
            for i, b in enumerate(buckets)
        ]
        lats = [lat for lat, _ in pairs]
        return LatencySummary(
            count=len(lats),
            avg=statistics.fmean(lats) if lats else 0.0,
            max=max(lats) if lats else 0,
            median=statistics.median(lats) if lats else 0.0,
            windows=windows,
        )


# ---------------------------------------------------------------------------
# Client workload
# ---------------------------------------------------------------------------


class Workload:
    """Request-wire load generator: each element goes to ``f + 1`` servers."""

    def __init__(self, sim: Simulation, keys: KeyStore, scenario: Scenario,
                 targets: tuple[ProcessId, ...], correct: frozenset[ProcessId],
                 monitor: SafetyMonitor, central: Optional[CentralSetchain]):
        self.pid = ProcessId(300, ProcessKind.CLIENT)
        self.net = sim.register(self.pid, self.on_message)
        self.keys = keys
        self._private = keys.keygen(self.pid)
        self.scenario = scenario
        self.targets = targets
        self.correct = correct
        self.monitor = monitor
        self.central = central
        self.interval, self.batch = scenario.workload_schedule()
        self.attempted: list[Element] = []
        self.accepted: set[Element] = set()
        self.sent: dict[int, Element] = {}  # request id -> element
        self._rid = 0
        self._rotation = 0
        self.stopped = False

    def start(self, at: SimTime = 1) -> None:
        self.net.schedule(at, self._tick)

    def stop(self) -> None:
        self.stopped = True

    def _tick(self) -> None:
        if self.stopped or self.net.now >= self.scenario.duration:
            return
        for _ in range(self.batch):
            self._send_add(self._mint())
        self.net.schedule(self.net.now + self.interval, self._tick)

    def _mint(self) -> Element:
        payload = f"load-{self.scenario.seed}-{len(self.attempted)}".encode()
        return self.keys.make_element(payload, self.pid, self._private)

    def _send_add(self, e: Element) -> None:
        self.attempted.append(e)
        self.monitor.record_request(e)
        if self.central is not None:
            self.central.add(e)
        start = self._rotation
        self._rotation += 1
        for j in range(self.scenario.f + 1):
            target = self.targets[(start + j) % len(self.targets)]
            self._rid += 1
            self.sent[self._rid] = e
            self.net.send(target, encode_request(OP_ADD, self._rid, e.wire))

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        try:
            op, rid, status, _ = decode_response(body)
        except FrameError:
            return  # a malformed response confirms nothing
        if op == OP_ADD and status == STATUS_OK and frm in self.correct:
            e = self.sent.get(rid)
            if e is not None:
                self.accepted.add(e)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> RunReport:
    """Builds the cluster, drives the workload, drains, checks, reports.

    The cluster (simulation, handlers, servers, BRB engines, elements) is one
    cyclic object graph that only a full collection frees; left to the
    collector's own schedule, back-to-back runs pile up in memory.  So a run
    collects before it builds its cluster, which frees what the caller
    dropped (say, a cluster kept past its run), and again once its own
    cluster is unreachable.
    """
    gc.collect()
    report = _run_scenario(scenario)
    gc.collect()
    return report


def _run_scenario(scenario: Scenario) -> RunReport:
    sim = Simulation(replace(scenario.net, rng_seed=scenario.seed),
                     record_log=False)
    sim.frame_classifier = classify
    keys = KeyStore()
    monitor = SafetyMonitor(sim, keys)
    service = ConsensusService(sim, scenario.sbc, on_propose=monitor.on_propose)

    n, f, n_byz = scenario.n, scenario.f, scenario.n_byz
    pids = tuple(
        ProcessId(i, ProcessKind.BYZANTINE_SERVER if i >= n - n_byz
                  else ProcessKind.CORRECT_SERVER)
        for i in range(n)
    )
    correct_pids, byz_pids = pids[: n - n_byz], pids[n - n_byz:]
    servers = [
        SetchainServer(
            pid, sim, keys, keys.keygen(pid), pids, f, service,
            agg=scenario.agg if scenario.algorithm == "fast-agg" else None,
            state_observer=monitor.observe, on_broadcast=monitor.on_broadcast,
        )
        for pid in correct_pids
    ]
    for server in servers:
        monitor.attach(server)
    adversaries = []
    for pid in byz_pids:
        if scenario.byzantine == "silent":
            adversaries.append(SilentServer(pid, sim, service))
        else:
            adversaries.append(HavocServer(pid, sim, keys, service, pids, f))

    central = CentralSetchain(keys) if n_byz == 0 else None
    driver = EpochDriver(sim, servers[: f + 1], scenario.epoch_period)
    driver.start(scenario.epoch_period)
    load = Workload(sim, keys, scenario, pids, frozenset(correct_pids),
                    monitor, central)
    load.start(at=1)
    for adversary in adversaries:
        if isinstance(adversary, HavocServer):
            adversary.start(until=scenario.duration)

    sim.run_until(scenario.duration)
    epochs_completed = servers[0].epoch

    # Drain: stop the load and the timers, then alternate "flush and cut one
    # more epoch" with full quiescence until every element everywhere is
    # stamped.  Checking at quiescence is exact — nothing is in flight.
    load.stop()
    driver.stop()
    for adversary in adversaries:
        if isinstance(adversary, HavocServer):
            adversary.stop()
    for _ in range(_DRAIN_ROUNDS):
        sim.run_to_quiescence()
        if _settled(servers, monitor):
            break
        for server in servers:
            server._flush()
        for server in servers[: f + 1]:
            try:
                server.epoch_inc(server.epoch + 1)
            except RequestRejected:
                pass
    else:
        monitor.violate("drain-stalled",
                        "drain ended before every element was stamped")

    if central is not None:
        central.epoch_inc(central.epoch + 1)
    monitor.quiescence_checks(load.accepted, central)

    duration = scenario.duration
    stamped_in_window = sum(1 for t in monitor.stamp_tick.values() if t <= duration)
    messages = dict(sorted(sim.counts.items()))
    return RunReport(
        scenario=scenario.name,
        seed=scenario.seed,
        n=n,
        f=f,
        algorithm=scenario.algorithm,
        byzantine=scenario.byzantine,
        duration=duration,
        adds_attempted=len(load.attempted),
        adds_accepted=len(load.accepted),
        adds_stamped=stamped_in_window,
        adds_stamped_final=len(monitor.stamp_tick),
        epochs_completed=epochs_completed,
        epochs_final=servers[0].epoch,
        final_tick=sim.now,
        latency=monitor.latency_summary(duration),
        messages=messages,
        messages_total=sum(messages.values()),
        property_violations=monitor.violations,
    )


def _settled(servers: list[SetchainServer], monitor: SafetyMonitor) -> bool:
    if len({server.epoch for server in servers}) != 1:
        return False
    return all(
        not server.tobroadcast and server.theset == monitor.stamped[server.pid]
        for server in servers
    )


def run_matrix(scenarios: list[Scenario], seeds: range,
               max_workers: int = 1) -> list[RunReport]:
    """Every scenario at every seed, run one after another in this process.

    Reports come back in job order: each scenario at each seed in turn.
    ``max_workers`` has no effect; it is accepted so that existing callers
    keep working.  The runs are pure Python, so worker threads would only
    add GIL contention.

    Before each run, everything alive is frozen (kept out of the collector's
    reach) until the matrix ends, so the collections in ``run_scenario``
    walk only what that run allocated, not the caller's whole heap.
    """
    gc.collect()  # so that no garbage is frozen below
    reports = []
    try:
        for scenario in scenarios:
            for seed in seeds:
                gc.freeze()
                reports.append(run_scenario(scenario.with_seed(seed)))
    finally:
        gc.unfreeze()
    return reports


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------


def safety_scenario(n: int, algorithm: str, byzantine: str) -> Scenario:
    """A short mixed-traffic run sized for invariant checking."""
    return Scenario(
        name=f"safety-n{n}-{algorithm}-{byzantine}",
        n=n,
        f=(n - 1) // 3,
        algorithm=algorithm,
        byzantine=byzantine,
        epoch_period=400,
        add_rate=5_000,
        duration=4_000,
    )


def safety_matrix(ns=(4, 7, 10), algorithms=ALGORITHMS,
                  adversaries=ADVERSARIES) -> list[Scenario]:
    return [safety_scenario(n, algorithm, byzantine)
            for n in ns for algorithm in algorithms for byzantine in adversaries]


def preset(name: str) -> Scenario:
    """Named scenarios used by the headline experiments."""
    if name == "stock":
        return Scenario(add_rate=20_000)
    if name == "firehose":
        # Adds arrive far faster than epochs are cut; batching absorbs them.
        return Scenario(name="firehose", algorithm="fast-agg",
                        epoch_period=20_000, add_rate=200_000,
                        duration=100_000)
    if name in ("overload-fast", "overload-agg"):
        # Per-message processing cost saturates per-element broadcast;
        # batching shares that cost across whole batches.
        return Scenario(
            name=name,
            n=7,
            f=2,
            algorithm="fast" if name == "overload-fast" else "fast-agg",
            epoch_period=1_500,
            add_rate=10_000,
            duration=6_000,
            net=NetConfig(proc_cost=6),
            agg=AggConfig(max_batch=60, max_wait=800),
        )
    if name in ("large-none", "large-silent"):
        # Ten servers, f of them mute: throughput should barely move.
        return Scenario(
            name=name,
            n=10,
            f=3,
            byzantine="none" if name == "large-none" else "silent",
            epoch_period=20_000,
            add_rate=5_000,
            duration=100_000,
        )
    if name == "marathon":
        # A long steady run; stamp latency must not creep upward.
        return Scenario(name="marathon", epoch_period=20_000,
                        add_rate=5_000, duration=1_000_000)
    raise BenchError("unknown-scenario")


PRESET_NAMES = ("stock", "firehose", "overload-fast", "overload-agg",
                "large-none", "large-silent", "marathon")


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def write_reports_jsonl(path, reports: list[RunReport]) -> None:
    """One report per line, stable key order."""
    with open(path, "w") as fp:
        for report in reports:
            fp.write(report.to_json() + "\n")


_CSV_COLUMNS = (
    "scenario", "seed", "n", "f", "algorithm", "byzantine", "duration",
    "adds_attempted", "adds_accepted", "adds_stamped", "adds_stamped_final",
    "epochs_completed", "latency_avg", "latency_max", "messages_total",
    "violations",
)


def write_summary_csv(path, reports: list[RunReport]) -> None:
    """One row per run with the headline figures."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(_CSV_COLUMNS)
        for r in reports:
            writer.writerow([
                r.scenario, r.seed, r.n, r.f, r.algorithm, r.byzantine,
                r.duration, r.adds_attempted, r.adds_accepted, r.adds_stamped,
                r.adds_stamped_final, r.epochs_completed, r.latency.avg,
                r.latency.max, r.messages_total, len(r.property_violations),
            ])
