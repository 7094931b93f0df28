"""Scenario runner: drives a simulated cluster under load, checks invariants.

A :class:`Scenario` describes one cluster configuration plus a client
workload; :func:`run_scenario` builds a :class:`Cluster`, injects adds through
the request wire at ``f + 1`` servers apiece, cuts epochs on a timer,
and watches every state change through :class:`SafetyMonitor`.  The
result is a :class:`RunReport` whose JSON form is byte-identical across
repeated runs of the same scenario and seed.

A scenario's ``agg`` is its algorithm: ``None`` broadcasts each add on its
own ("fast"), an :class:`AggConfig` batches adds first ("fast-agg");
:data:`ALGORITHMS` maps each name to its setting.  Every run uses the same
consensus service, :data:`SBC`.  The named runs live in one table:
:data:`PRESETS`, which with the safety-matrix cells makes up
:data:`SCENARIO_NAMES`.

Four kinds of checks run:

* incremental — after every insert/stamp at a correct server: the set
  only grows, every inserted element is valid and has a recorded origin
  (a client add, a broadcast batch, or a consensus proposal), no element
  is stamped twice, and all servers agree on each epoch's entry (as sets;
  the canonical encoding is injective, so this is byte-for-byte agreement);
* at each proposal by a correct server: it names by value exactly the
  adds it has queued (a batching server's buffer, or an unbatched
  server's held backup copies and attestations), but the backup copies
  queued since its previous proposal;
* at each decision, once the run has drained: a correct proposal made
  from ``gst`` on and at most ``sbc.WINDOW`` minus the network's delay bound
  after the first correct proposal to its instance is an entry of that
  instance's decision (censorship-resistance);
* at quiescence — after the workload stops and the queues drain: all
  correct servers expose identical sets and records, every accepted add
  is stamped everywhere, no correct server keeps an open batch or a
  queued add, no correct server holds a broadcast payload it never
  delivered whose origin's ``ProcessId.kind`` is ``CORRECT_SERVER``, and
  on runs with no Byzantine servers the cluster matches the
  sequential single-process reference.
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

from . import core, wire
from .adversaries import HavocServer, SilentServer
from .core import (
    Element,
    KeyStore,
    ProcessId,
    ProcessKind,
    encode_element_set,  # unused here, but perfbench/tracing.py patches it by name
)
from .sbc import WINDOW, ConsensusService, Decision, SbcConfig
from .server import (
    AGG_DESK,
    AggConfig,
    CentralSetchain,
    EpochDriver,
    SetchainServer,
)
from .simnet import TICKS_PER_SECOND, NetConfig, Simulation, SimTime
from .wire import (
    OP_ADD,
    STATUS_OK,
    FrameError,
    Proposal,
    classify,
    decode_broadcast_message,
    decode_response,
    encode_add_request_body,
    encode_request,
)

# The two server algorithms differ only in whether adds are batched before
# broadcast: each name maps to the ``agg`` its scenarios run with.
ALGORITHMS = {"fast": None, "fast-agg": AGG_DESK}
ADVERSARIES = ("none", "silent", "havoc")

SBC = SbcConfig(decision_cost=100)  # the consensus service of every scenario

_WINDOWS = 10
_DRAIN_ROUNDS = 50


class BenchError(ValueError):
    """A scenario was malformed, or a scenario or algorithm name is unknown."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def seed_from_env(default: int = 0) -> int:
    """Honours the SETCHAIN_SEED environment variable."""
    raw = os.environ.get("SETCHAIN_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SETCHAIN_SEED={raw!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One cluster configuration plus the client workload driving it.

    ``n`` sets the fault bound: ``f`` is the largest with ``n >= 3f + 1``,
    and a Byzantine run fills ``f`` of the ``n`` slots."""

    name: str = "stock"
    n: int = 4
    byzantine: str = "none"  # "none", "silent", or "havoc"
    epoch_period: int = 20_000  # ticks between epoch-cut requests
    add_rate: int = 50_000  # client adds per simulated second
    duration: int = 100_000  # ticks of driven workload
    seed: int = 0
    net: NetConfig = NetConfig()
    agg: Optional[AggConfig] = None  # None: each add is broadcast on its own

    def __post_init__(self) -> None:
        if self.n < 4:
            raise BenchError("too-few-servers")
        if self.byzantine not in ADVERSARIES:
            raise BenchError("unknown-adversary")
        if self.epoch_period < 1 or self.duration < 1 or self.add_rate < 1:
            raise BenchError("non-positive-rate")

    @property
    def algorithm(self) -> str:
        return "fast" if self.agg is None else "fast-agg"

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

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
        self.entries: dict[int, frozenset] = {}  # epoch -> first server's entry
        self.reference: Optional[ProcessId] = None
        # instance -> correct proposer -> (tick, proposal) of its proposal
        self.proposed: dict[int, dict[ProcessId, tuple[SimTime, Proposal]]] = {}

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
        """An add batch a correct server broadcasts: origin records."""
        self.origins.update(decode_broadcast_message(payload)[1])

    def on_propose(self, h: int, proposal: Proposal, by: ProcessId) -> None:
        """Elements named by value are origin records; digests are not.  A
        correct server names by value exactly the adds it has queued, but
        the backup copies it queued since its previous proposal."""
        self.origins.update(proposal.elements)
        server = self.servers.get(by)
        if server is None:
            return
        self.proposed.setdefault(h, {})[by] = (self.sim.now, proposal)
        if proposal.elements != frozenset(
                server.tobroadcast).difference(server.fresh_backups):
            self.violate("proposal-off-buffer",
                         f"{by!r} proposed by value other adds than it queued "
                         "before its previous proposal or as primary")

    # -- per-event checks ----------------------------------------------------

    def observe(self, pid: ProcessId, event: str, payload: object) -> None:
        if event == "broadcast":
            self.on_broadcast(pid, payload)
            return
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
        if self.entries.setdefault(h, entry) != entry:
            self.violate("entry-divergence",
                         f"{pid!r} disagrees on the epoch-{h} entry")
        if pid == self.reference:
            for e in entry:
                if e in self.request_tick:
                    self.stamp_tick[e] = self.sim.now

    # -- checks once the run has drained ------------------------------------

    def quiescence_checks(self, accepted: set[Element],
                          central: Optional[CentralSetchain]) -> None:
        servers = [self.servers[pid] for pid in sorted(self.servers)]
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
            if server.open_batches:
                self.violate("open-batches",
                             f"{server.pid!r} keeps {len(server.open_batches)} "
                             "batches with nothing left to stamp")
            if server.tobroadcast:
                self.violate("queued-adds",
                             f"{server.pid!r} keeps {len(server.tobroadcast)} "
                             "adds queued for broadcast")
            # A correct origin's init is authenticated, so its payload, held
            # anywhere, reaches every correct server.  A payload is held only
            # for a peer origin: shared-origin instances deliver at creation.
            held = sum(1 for (origin, _), inst in server.brb.instances.items()
                       if inst.payload is not None and not inst.delivered
                       and origin.kind == ProcessKind.CORRECT_SERVER)
            if held:
                self.violate("brb-undelivered",
                             f"{server.pid!r} holds {held} broadcast payloads "
                             "it never delivered")
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

    def censorship_checks(self, decisions: dict[int, Decision]) -> None:
        """Every correct proposal made from ``gst`` on, and at most
        ``WINDOW`` minus the delay bound after the first correct proposal to
        its instance, arrives before that instance's deadline: it must be
        the proposer's entry in the decision."""
        config = self.sim.config
        slack = WINDOW - min(config.latency_max, config.post_gst_bound)
        for h, made in self.proposed.items():
            decision = decisions.get(h)
            propset = decision.propset if decision is not None else {}
            first = min(t for t, _ in made.values())
            for by, (t, proposal) in made.items():
                if config.gst <= t <= first + slack and propset.get(by) != proposal:
                    self.violate("censored-proposal",
                                 f"{by!r} proposed to instance {h} at t={t} "
                                 "and is not an entry of its decision")

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
# Cluster
# ---------------------------------------------------------------------------


class Cluster:
    """n server slots on one simulation; the last ``n_byz`` are Byzantine.

    Every slot gets a key (``privates``).  The correct slots run
    :class:`SetchainServer` in pid order; then ``byz_factory(pid, cluster)``
    builds each Byzantine slot, and ``byz`` keeps what it returns.
    """

    def __init__(self, sim: Simulation, keys: KeyStore, n: int, f: int,
                 n_byz: int, sbc_cfg: SbcConfig, byz_factory, agg=None,
                 sign_epochs=False, state_observer=None, on_propose=None):
        self.sim, self.keys, self.f = sim, keys, f
        self.pids = tuple(
            ProcessId(i, ProcessKind.BYZANTINE_SERVER if i >= n - n_byz
                      else ProcessKind.CORRECT_SERVER)
            for i in range(n)
        )
        self.correct_pids = self.pids[: n - n_byz]
        self.byz_pids = self.pids[n - n_byz:]
        sim.frame_classifier = classify
        self.service = ConsensusService(sim, sbc_cfg, on_propose=on_propose)
        self.privates = {pid: keys.keygen(pid) for pid in self.pids}
        self.servers = {
            pid: SetchainServer(
                pid, sim, keys, self.privates[pid], self.pids, f, self.service,
                agg=agg, sign_epochs=sign_epochs,
                state_observer=state_observer,
            )
            for pid in self.correct_pids
        }
        self.byz = {pid: byz_factory(pid, self) for pid in self.byz_pids}

    @property
    def correct(self) -> list[SetchainServer]:
        return [self.servers[pid] for pid in self.correct_pids]


# ---------------------------------------------------------------------------
# Client workload
# ---------------------------------------------------------------------------


class Workload:
    """Request-wire load generator: each element goes to ``f + 1`` servers,
    one of them as its primary copy.  An add counts as accepted when a
    server whose ``ProcessId.kind`` is ``CORRECT_SERVER`` answers it OK."""

    def __init__(self, sim: Simulation, keys: KeyStore, scenario: Scenario,
                 targets: tuple[ProcessId, ...],
                 monitor: SafetyMonitor, central: Optional[CentralSetchain]):
        self.pid = ProcessId(300, ProcessKind.CLIENT)
        self.net = sim.register(self.pid, self.on_message)
        self.keys = keys
        self._private = keys.keygen(self.pid)
        self.scenario = scenario
        self.targets = targets
        self.monitor = monitor
        self.central = central
        self.interval, self.batch = scenario.workload_schedule()
        self.attempted: list[Element] = []
        self.accepted: set[Element] = set()
        # Request id -> element, until a correct server answers the request.
        self.sent: dict[int, Element] = {}
        self._rid = 0
        self._rotation = 0

    def start(self) -> None:
        self.net.schedule(1, self._tick)

    def _tick(self) -> None:
        if self.net.now >= self.scenario.duration:
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
        for j in range(self.scenario.f + 1):  # the first copy is the primary
            target = self.targets[(start + j) % len(self.targets)]
            self._rid += 1
            self.sent[self._rid] = e
            body = encode_add_request_body(e, j == 0)
            self.net.send(target, encode_request(OP_ADD, self._rid, body))

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        try:
            op, rid, status, _ = decode_response(body)
        except FrameError:
            return  # a malformed response confirms nothing
        if op == OP_ADD and frm.kind == ProcessKind.CORRECT_SERVER:
            e = self.sent.pop(rid, None)
            if e is not None and status == STATUS_OK:
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
    cluster is unreachable.  In between, everything that survived the first
    collection is frozen (kept out of the collector's reach), so that the
    second walks only what the run allocated, not the caller's whole heap.
    The run unfreezes only what it froze: when the caller has frozen objects
    already (``run_matrix`` does, before each run or before it forks), it
    freezes nothing, and ``gc.get_freeze_count()`` ends as it began.

    The decode memos (``wire.decode_brb``, ``wire.decode_broadcast_message``
    and the element intern cache in ``core``) live for one run: they are
    emptied before the cluster is built and again after the run.  Otherwise
    they would keep the run's elements alive, and a second run of the same
    seed would mix the first run's decoded objects with freshly minted ones.
    """
    _clear_decode_memos()
    gc.collect()
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        report = _run_scenario(scenario)
    finally:
        _clear_decode_memos()
        gc.collect()
        if thaw:
            gc.unfreeze()
    return report


def _clear_decode_memos() -> None:
    for memo in (wire.decode_brb, wire.decode_broadcast_message,
                 core._element_from_wire):
        memo.cache_clear()


def _run_scenario(scenario: Scenario) -> RunReport:
    sim = Simulation(replace(scenario.net, rng_seed=scenario.seed),
                     record_log=False)
    keys = KeyStore()
    monitor = SafetyMonitor(sim, keys)

    def adversary(pid: ProcessId, c: Cluster):
        if scenario.byzantine == "silent":
            return SilentServer(pid, c.sim, c.service)
        havoc = HavocServer(pid, c.sim, c.keys, c.service, c.pids)
        havoc.start(until=scenario.duration)
        return havoc

    n, f, n_byz = scenario.n, scenario.f, scenario.n_byz
    cluster = Cluster(sim, keys, n, f, n_byz, SBC, adversary,
                      agg=scenario.agg, state_observer=monitor.observe,
                      on_propose=monitor.on_propose)
    servers = cluster.correct
    for server in servers:
        monitor.attach(server)

    central = CentralSetchain(keys) if n_byz == 0 else None
    driver = EpochDriver(sim, servers[: f + 1], scenario.epoch_period)
    driver.start(scenario.epoch_period)
    load = Workload(sim, keys, scenario, cluster.pids, monitor, central)
    load.start()

    sim.run_until(scenario.duration)
    epochs_completed = servers[0].epoch

    # Drain: the load and the havoc servers stop on their own at the end of
    # the driven window; stop the epoch timer, then alternate "cut one more
    # epoch" with running the cluster until nothing is left to happen but
    # max_wait timers, until every element everywhere is stamped and every
    # queue is empty.  A cut, not a max_wait flush, empties the batching
    # buffers: its proposals name the queued adds by value.  An empty buffer
    # has no timer pending, so at the end nothing is in flight and the
    # checks below are exact, and the run ends when its work ends.
    driver.stop()
    for _ in range(_DRAIN_ROUNDS):
        _run_until_only_wait_timers(sim, servers)
        if _settled(servers, monitor):
            break
        driver.cut()
    else:
        monitor.violate("drain-stalled",
                        "drain ended before every element was stamped")

    if central is not None:
        central.epoch_inc(central.epoch + 1)
    monitor.quiescence_checks(load.accepted, central)
    monitor.censorship_checks(cluster.service.decisions)

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


def _run_until_only_wait_timers(sim: Simulation,
                                servers: list[SetchainServer]) -> None:
    """Runs ``sim`` until no event is left but the servers' max_wait timers."""
    while (t := sim.next_event_time()) is not None:
        timers = [s.wait_timer for s in servers if s.wait_timer is not None]
        if (timers and t >= min(timer.at for timer in timers)
                and sim.pending_events() == len(timers)):
            return
        sim.run_until(t)


def _settled(servers: list[SetchainServer], monitor: SafetyMonitor) -> bool:
    if len({server.epoch for server in servers}) != 1:
        return False
    return all(not server.tobroadcast and server.theset == monitor.stamped[server.pid]
               for server in servers)


def run_matrix(scenarios: list[Scenario], seeds: range,
               max_workers: int = 1) -> list[RunReport]:
    """Every scenario at every seed; the reports come back in job order,
    each scenario at each seed in turn.

    The runs are independent: each report is a function of its scenario and
    seed alone, so they may run in any order and anywhere.  With
    ``max_workers`` 1, or a single job, they run one after another in this
    process, where a caller's patches and watchers see them.  Otherwise
    ``min(max_workers, len(jobs))`` worker processes share them.  The runs
    are pure Python, so worker threads would only contend for the GIL;
    processes run them in parallel.  The pool is shut down, and its workers
    joined, before this returns or raises, and a run that raises in a worker
    raises the same exception here.

    Workers are forked, from the calling thread and before the pool starts
    a thread of its own: they begin with this interpreter's heap, modules
    and hash seed, and import nothing.  A forked worker's memory starts as
    shared pages of the parent's, and a collection in the worker would walk,
    and so copy, every object in them.  So one full collection first frees
    the caller's garbage, and a freeze then keeps everything alive out of
    every collection until the pool is gone.

    In this process, everything alive is frozen before each run instead,
    the reports so far included, so that the collections in
    ``run_scenario`` walk only what that run allocated.
    """
    jobs = [scenario.with_seed(seed) for scenario in scenarios for seed in seeds]
    workers = min(max_workers, len(jobs))
    gc.collect()  # so that no garbage is frozen below
    try:
        if workers > 1:
            # Imported here: at the top they would add to the start-up time
            # and memory of every process that imports this module.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            gc.freeze()
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_run_job, jobs))
        reports = []
        for job in jobs:
            gc.freeze()
            reports.append(run_scenario(job))
        return reports
    finally:
        gc.unfreeze()


def _run_job(scenario: Scenario) -> RunReport:
    # A worker looks ``run_scenario`` up by name, so a caller that replaced
    # it with a function that cannot be pickled can still fan out.
    return run_scenario(scenario)


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------


def safety_scenario(n: int, algorithm: str, byzantine: str) -> Scenario:
    """A short mixed-traffic run sized for invariant checking."""
    if algorithm not in ALGORITHMS:
        raise BenchError("unknown-algorithm")
    return Scenario(
        name=f"safety-n{n}-{algorithm}-{byzantine}",
        n=n,
        byzantine=byzantine,
        epoch_period=400,
        add_rate=5_000,
        duration=4_000,
        agg=ALGORITHMS[algorithm],
    )


def safety_matrix(ns=(4, 7, 10)) -> list[Scenario]:
    """Every size in ``ns`` under every algorithm and every adversary."""
    return [safety_scenario(n, algorithm, byzantine)
            for n in ns for algorithm in ALGORITHMS for byzantine in ADVERSARIES]


_OVERLOAD = dict(n=7, epoch_period=1_500, add_rate=10_000, duration=6_000,
                 net=NetConfig(proc_cost=6))
_LARGE = dict(n=10, epoch_period=20_000, add_rate=5_000, duration=100_000)

# The named scenarios of the headline experiments, keyed by their names.
PRESETS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(name="stock", add_rate=20_000),
    # Adds arrive far faster than epochs are cut; batching absorbs them.
    Scenario(name="firehose", epoch_period=20_000, add_rate=200_000,
             duration=100_000, agg=AGG_DESK),
    # Per-message processing cost saturates per-element broadcast;
    # batching shares that cost across whole batches.
    Scenario(name="overload-fast", **_OVERLOAD),
    Scenario(name="overload-agg", agg=AggConfig(max_batch=60, max_wait=800),
             **_OVERLOAD),
    # Ten servers, f of them mute: throughput should barely move.
    Scenario(name="large-none", **_LARGE),
    Scenario(name="large-silent", byzantine="silent", **_LARGE),
    # A long steady run; stamp latency must not creep upward.
    Scenario(name="marathon", epoch_period=20_000, add_rate=5_000,
             duration=1_000_000),
)}
PRESET_NAMES = tuple(PRESETS)

# Every scenario ``named_scenario`` resolves: the presets, then the matrix
# cells, so that any cell can be re-run on its own.
_NAMED: dict[str, Scenario] = {**PRESETS, **{s.name: s for s in safety_matrix()}}
SCENARIO_NAMES = tuple(_NAMED)


def preset(name: str) -> Scenario:
    """One of the :data:`PRESETS`."""
    if name not in PRESETS:
        raise BenchError("unknown-scenario")
    return PRESETS[name]


def named_scenario(name: str) -> Scenario:
    """A preset, or one cell of the safety matrix (``safety-n10-fast-havoc``)."""
    if name not in _NAMED:
        raise BenchError("unknown-scenario")
    return _NAMED[name]


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
