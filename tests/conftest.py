"""Shared harnesses for protocol tests: a server cluster, a bare BRB world,
a bare SBC world and one run per preset and seed.  Every test
starts and ends with empty decode memos."""

import hashlib

import pytest
from hypothesis import strategies as st

from setchain.bench import (
    Cluster,
    RunReport,
    _clear_decode_memos,
    preset,
    run_scenario,
)
from setchain.brb import BrbEngine
from setchain.core import Element, KeyStore, ProcessId, ProcessKind
from setchain.sbc import ConsensusService, SbcConfig
from setchain.simnet import NetConfig, Simulation
from setchain.wire import INIT, BrbFrame, Proposal, decode_inform, encode_brb


@pytest.fixture(autouse=True)
def fresh_decode_memos():
    """Empties the process-wide decode memos around each test, so that no
    test's cluster is handed the decoded frames and elements of another's."""
    _clear_decode_memos()
    yield
    _clear_decode_memos()


@pytest.fixture(scope="session")
def preset_run():
    """``preset_run(name, seed=0)`` runs preset ``name`` at ``seed`` the
    first time it is asked for in a session and returns that
    :class:`RunReport` from then on."""
    reports = {}

    def run(name: str, seed: int = 0) -> RunReport:
        if (name, seed) not in reports:
            reports[name, seed] = run_scenario(preset(name).with_seed(seed))
        return reports[name, seed]

    return run


class ByzStub:
    """A Byzantine slot: records traffic, can inject frames and proposals."""

    def __init__(self, pid, sim, service):
        self.pid = pid
        self.inbox = []
        self.set_delivers = []
        self.net = sim.register(pid, self._on_message)
        self.service = service
        service.register(pid, lambda h, ps: self.set_delivers.append((h, ps)))

    def _on_message(self, frm, body):
        self.inbox.append((frm, body))

    def brb_broadcast(self, payload: bytes, targets) -> None:
        digest = hashlib.sha256(payload).digest()
        frame = encode_brb(BrbFrame(INIT, self.pid, digest, payload))
        for pid in targets:
            self.net.send(pid, frame)

    def propose(self, h, proposal) -> None:
        self.service.propose(h, proposal, self.pid)


class ServerCluster(Cluster):
    """A :class:`~setchain.bench.Cluster` on a seeded network that logs
    every delivered frame, plus a client author that mints elements.

    ``byz_factory(pid, cluster)`` builds each Byzantine slot (default: the
    silent recording stub above).  ``net`` replaces the default network,
    whose RNG takes ``seed``.
    """

    def __init__(self, n=4, f=1, n_byz=0, seed=0, agg=None, sign_epochs=False,
                 state_observer=None, on_propose=None, byz_factory=None,
                 net=None):
        super().__init__(
            Simulation(net or NetConfig(rng_seed=seed)), KeyStore(),
            n, f, n_byz, SbcConfig(),
            byz_factory or (lambda pid, c: ByzStub(pid, c.sim, c.service)),
            agg=agg, sign_epochs=sign_epochs, state_observer=state_observer,
            on_propose=on_propose,
        )
        self.author = ProcessId(100, ProcessKind.CLIENT)
        self.author_key = self.keys.keygen(self.author)
        self._counter = 0

    def element(self, payload=None) -> Element:
        if payload is None:
            self._counter += 1
            payload = f"elem-{self._counter}".encode()
        return self.keys.make_element(payload, self.author, self.author_key)

    def invalid_element(self, payload=b"broken") -> Element:
        return Element(payload, self.author, b"not-a-signature")

    def drain(self):
        self.sim.run_to_quiescence()
        return self


class BrbWorld:
    """n bare broadcast engines; the first ``n_byz`` slots are raw-frame
    injectors."""

    def __init__(self, n, f, n_byz=0, seed=0):
        self.sim = Simulation(NetConfig(rng_seed=seed))
        self.pids = tuple(
            ProcessId(i, ProcessKind.BYZANTINE_SERVER if i < n_byz
                      else ProcessKind.CORRECT_SERVER)
            for i in range(n)
        )
        self.byz = self.pids[:n_byz]
        self.correct = self.pids[n_byz:]
        self.delivered = {pid: [] for pid in self.pids}
        self.engines, self.handles = {}, {}
        for pid in self.byz:
            self.handles[pid] = self.sim.register(pid, lambda frm, body: None)
        for pid in self.correct:
            def handler(frm, body, pid=pid):
                self.engines[pid].handle_frame(frm, body)
            self.handles[pid] = self.sim.register(pid, handler)
            self.engines[pid] = BrbEngine(
                self.handles[pid], self.pids, f,
                lambda origin, digest, payload, pid=pid:
                    self.delivered[pid].append((origin, payload)),
            )

    def inject(self, frm, frame, targets):
        body = encode_brb(frame)
        for pid in targets:
            self.handles[frm].send(pid, body)

    def drain(self):
        self.sim.run_to_quiescence()

    def deliveries(self, pid):
        return self.delivered[pid]


class SbcWorld:
    """Correct and Byzantine members on one bare consensus service; every
    member records its set-deliveries and the inform notices it receives."""

    def __init__(self, n_correct=4, n_byz=0, seed=0, net=None, cfg=None):
        self.sim = Simulation(net or NetConfig(rng_seed=seed))
        self.service = ConsensusService(self.sim, cfg or SbcConfig())
        self.keys = KeyStore()
        self.author = ProcessId(50, ProcessKind.CLIENT)
        self.private = self.keys.keygen(self.author)
        self.correct = tuple(ProcessId(i) for i in range(n_correct))
        self.byz = tuple(ProcessId(n_correct + i, ProcessKind.BYZANTINE_SERVER)
                         for i in range(n_byz))
        self.delivered = {}
        self.informs = {}
        for pid in self.correct + self.byz:
            self.delivered[pid] = []
            self.informs[pid] = []

            def handler(frm, body, pid=pid):
                if body[:1] == b"P":
                    self.informs[pid].append((frm,) + decode_inform(body))

            self.sim.register(pid, handler)
            self.service.register(
                pid,
                lambda h, propset, pid=pid: self.delivered[pid].append((h, propset)),
            )

    def make(self, *names):
        """A proposal that names by value the elements with these payloads."""
        return Proposal(elements=frozenset(
            self.keys.make_element(nm, self.author, self.private) for nm in names))

    def drain(self):
        self.sim.run_to_quiescence()


@st.composite
def damaged(draw, valid):
    """``valid`` with some bytes overwritten, then cut or extended."""
    buf = bytearray(draw(valid))
    for _ in range(draw(st.integers(0, 3))):
        if buf:
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(buf)))
    return bytes(buf[:cut]) + draw(st.binary(max_size=8))


def run_until_done(sim, call, step=50, budget=2_000_000):
    """Advance the sim in small steps until a client call completes."""
    deadline = sim.now + budget
    while not call.done and sim.now < deadline:
        sim.run_until(min(sim.now + step, deadline))
    return call
