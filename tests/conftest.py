"""Shared scripted-cluster harness for protocol tests."""

import hashlib

from setchain.core import Element, KeyStore, ProcessId, ProcessKind
from setchain.sbc import ConsensusService, SbcConfig
from setchain.server import SetchainServer
from setchain.simnet import NetConfig, Simulation
from setchain.wire import INIT, BrbFrame, classify, encode_brb


class ByzStub:
    """A Byzantine slot: records traffic, can inject frames and proposals."""

    def __init__(self, pid, sim, service):
        self.pid = pid
        self.inbox = []
        self.set_delivers = []
        self.net = sim.register(pid, self._on_message)
        self.service = service
        service.register(
            pid, lambda h, ps: self.set_delivers.append((h, ps)), correct=False
        )

    def _on_message(self, frm, body):
        self.inbox.append((frm, body))

    def brb_broadcast(self, payload: bytes, targets) -> None:
        digest = hashlib.sha256(payload).digest()
        frame = encode_brb(BrbFrame(INIT, self.pid, digest, payload))
        for pid in targets:
            self.net.send(pid, frame)

    def propose(self, h, elements) -> None:
        self.service.propose(h, elements, self.pid)


class ServerCluster:
    """n servers on one network; the last ``n_byz`` slots are Byzantine.

    ``byz_factory(pid, cluster)`` builds each Byzantine slot (default: the
    silent recording stub above).
    """

    def __init__(self, n=4, f=1, n_byz=0, seed=0, net=None, sbc_cfg=None,
                 agg=None, sign_epochs=False,
                 state_observer=None, on_broadcast=None, on_propose=None,
                 byz_factory=None):
        self.f = f
        self.sim = Simulation(net or NetConfig(rng_seed=seed), keep_bodies=True)
        self.sim.frame_classifier = classify
        self.keys = KeyStore()
        self.service = ConsensusService(self.sim, sbc_cfg or SbcConfig(),
                                        on_propose=on_propose)
        self.pids = tuple(
            ProcessId(i, ProcessKind.BYZANTINE_SERVER if i >= n - n_byz
                      else ProcessKind.CORRECT_SERVER)
            for i in range(n)
        )
        self.correct_pids = self.pids[: n - n_byz]
        self.byz_pids = self.pids[n - n_byz:]
        self.author = ProcessId(100, ProcessKind.CLIENT)
        self.author_key = self.keys.keygen(self.author)
        self.privates = {pid: self.keys.keygen(pid) for pid in self.pids}
        self.servers = {
            pid: SetchainServer(
                pid, self.sim, self.keys, self.privates[pid], self.pids, f,
                self.service, agg=agg,
                sign_epochs=sign_epochs, state_observer=state_observer,
                on_broadcast=on_broadcast,
            )
            for pid in self.correct_pids
        }
        if byz_factory is None:
            byz_factory = lambda pid, c: ByzStub(pid, c.sim, c.service)
        self.byz = {pid: byz_factory(pid, self) for pid in self.byz_pids}
        self._counter = 0

    def element(self, payload=None) -> Element:
        if payload is None:
            self._counter += 1
            payload = f"elem-{self._counter}".encode()
        return self.keys.make_element(payload, self.author, self.author_key)

    def invalid_element(self, payload=b"broken") -> Element:
        return Element(payload, self.author, b"not-a-signature")

    @property
    def correct(self):
        return [self.servers[pid] for pid in self.correct_pids]

    def drain(self):
        self.sim.run_to_quiescence()
        return self


def run_until_done(sim, call, step=50, budget=2_000_000):
    """Advance the sim in small steps until a client call completes."""
    deadline = sim.now + budget
    while not call.done and sim.now < deadline:
        sim.run_until(min(sim.now + step, deadline))
    return call
