"""Byzantine server behaviours for protocol tests and benchmark runs.

Four flavours, from inert to actively hostile:

* :class:`SilentServer` — occupies a server slot, absorbs all traffic,
  never sends anything.
* :class:`HavocServer` — the generic chaotic adversary.  It remembers
  every valid element it sees (add requests, broadcast traffic, consensus
  notices and deliveries) and, on a seeded random schedule, emits
  broadcasts and consensus proposals built from random mixes of that
  knowledge and freshly minted invalid elements.  Reads are answered with
  fabricated snapshots of the same material.
* :class:`ForgedDigestServer` — follows the protocol but signs a wrong
  digest for every epoch, so its epoch attestations never match what a
  client recomputes.
* :class:`LyingHistoryServer` — follows the protocol but answers reads
  with a fabricated single-epoch history claiming everything it knows was
  stamped in epoch 1, co-signed only by itself.

The ``havoc_*`` helpers are the seeded random generators shared with the
abstract adversary process of the model-equivalence checker.

A havoc server reads broadcast traffic through ``wire.decode_brb`` and
``wire.decode_broadcast_message``, both memoised by their bytes, so it
shares the decodes of the correct servers and of the other havoc servers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Optional

from .core import (
    Element,
    KeyStore,
    ProcessId,
    ProcessKind,
    attestation_payload,
    hash_epoch,
    wire_order,
)
from .sbc import ConsensusService
from .server import RequestRejected, SetchainServer
from .simnet import SimTime, Simulation
from .wire import (
    INIT,
    OP_ADD,
    OP_EPOCHINC,
    OP_GET,
    STATUS_OK,
    BrbFrame,
    FrameError,
    decode_add_request_body,
    decode_brb,
    decode_broadcast_message,
    decode_epochinc_body,
    decode_inform,
    decode_request,
    encode_brb,
    encode_epoch,
    encode_get_state,
    encode_madd,
    encode_mepochinc,
    encode_response,
)

# ---------------------------------------------------------------------------
# Seeded chaos generators
# ---------------------------------------------------------------------------


def havoc_subset(rng: random.Random, items: Iterable, key=None) -> frozenset:
    """An independent coin flip per item, iterated in sorted order so the
    outcome is a function of the rng state alone."""
    return frozenset(x for x in sorted(items, key=key) if rng.random() < 0.5)


HAVOC_MAX_PARTS = 3


def havoc_partition(
    rng: random.Random, elements: Iterable[Element]
) -> tuple[frozenset[Element], ...]:
    """Split elements into up to ``HAVOC_MAX_PARTS`` bins (possibly empty
    ones, possibly none)."""
    k = rng.randint(0, HAVOC_MAX_PARTS)
    if k == 0:
        return ()
    parts: list[set[Element]] = [set() for _ in range(k)]
    for e in sorted(elements, key=wire_order):
        parts[rng.randrange(k)].add(e)
    return tuple(frozenset(p) for p in parts)


def havoc_number(rng: random.Random, hi: int, lo: int = 0) -> int:
    return rng.randint(lo, max(lo, hi))


_FORGER = ProcessId(999_999, ProcessKind.CLIENT)  # never registered anywhere


def generate_invalid_elems(rng: random.Random) -> list[Element]:
    """Freshly minted never-valid elements; the count follows a coin-flip
    (geometric) distribution capped at four per call."""
    count = 0
    while count < 4 and rng.random() < 0.5:
        count += 1
    return [
        Element(rng.randbytes(rng.randint(8, 24)), _FORGER, rng.randbytes(32))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Silent
# ---------------------------------------------------------------------------


class SilentServer:
    """A crashed-looking Byzantine slot: receives everything, sends nothing."""

    def __init__(self, pid: ProcessId, sim: Simulation, service: ConsensusService):
        self.pid = pid
        self.received = 0
        self.net = sim.register(pid, self._on_message)
        service.register(pid, self._on_set_deliver, correct=False)

    def _on_message(self, frm: ProcessId, body: bytes) -> None:
        self.received += 1

    def _on_set_deliver(self, h: int, propset) -> None:
        pass


# ---------------------------------------------------------------------------
# Havoc
# ---------------------------------------------------------------------------


class HavocServer:
    """Actively chaotic Byzantine server driven by a seeded schedule.

    Knowledge only ever contains *valid* elements — the adversary cannot
    forge client signatures, so everything else it sends is freshly
    minted invalid junk that correct servers discard on validity checks.
    The gap between two actions is drawn uniformly from ``TICK_GAP`` ticks.
    """

    TICK_GAP = (20, 150)

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulation,
        keys: KeyStore,
        service: ConsensusService,
        peers: tuple[ProcessId, ...],
        f: int,
    ):
        self.pid = pid
        self.keys = keys
        self.service = service
        self.peers = tuple(p for p in peers if p != pid)
        self.f = f
        self.rng = random.Random(f"{sim.config.rng_seed}:havoc:{pid.id}")
        self.net = sim.register(pid, self.on_message)
        service.register(pid, self.on_set_deliver, correct=False)
        self.knowledge: set[Element] = set()
        self.seen_h = 0
        self.stopped = False
        self.until: Optional[SimTime] = None

    # -- the random action pump ---------------------------------------------

    def start(self, at: SimTime = 0, until: Optional[SimTime] = None) -> None:
        self.until = until
        first = max(at, self.net.now) + self.rng.randint(*self.TICK_GAP)
        self.net.schedule(first, self._tick)

    def stop(self) -> None:
        self.stopped = True

    def _tick(self) -> None:
        if self.stopped or (self.until is not None and self.net.now > self.until):
            return
        action = self.rng.choice(("madd", "madd", "mepochinc", "propose"))
        pool = self.knowledge | set(generate_invalid_elems(self.rng))
        if action == "madd":
            batch = havoc_subset(self.rng, pool, key=wire_order)
            self._brb_broadcast(encode_madd(batch))
        elif action == "mepochinc":
            self._brb_broadcast(encode_mepochinc(
                havoc_number(self.rng, self.seen_h + 2)))
        else:
            h = havoc_number(self.rng, self.seen_h + 2, lo=1)
            prop = havoc_subset(self.rng, pool, key=wire_order)
            self.service.propose(h, prop, self.pid)
        self.net.after(self.rng.randint(*self.TICK_GAP), self._tick)

    def _brb_broadcast(self, payload: bytes) -> None:
        digest = hashlib.sha256(payload).digest()
        frame = encode_brb(BrbFrame(INIT, self.pid, digest, payload))
        targets = self.peers
        if self.rng.random() < 0.25:  # sometimes only tell a subset
            targets = havoc_subset(self.rng, self.peers) or self.peers
        for p in sorted(targets):
            self.net.send(p, frame)

    # -- absorbing traffic into knowledge -----------------------------------

    def _learn(self, elements: Iterable[Element]) -> None:
        for e in elements:
            if self.keys.valid(e):
                self.knowledge.add(e)

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        tag = body[:1]
        try:
            if tag == b"B":
                frame = decode_brb(body)
                if frame.payload is not None:
                    kind, value = decode_broadcast_message(frame.payload)
                    if kind == "add":
                        self._learn(value)
                    else:
                        self.seen_h = max(self.seen_h, value)
            elif tag == b"P":
                h, elements = decode_inform(body)
                self.seen_h = max(self.seen_h, h)
                self._learn(elements)
            elif tag == b"Q":
                self._handle_request(frm, body)
        except FrameError:
            pass

    def _handle_request(self, frm: ProcessId, body: bytes) -> None:
        op, req_id, reqbody = decode_request(body)
        if op == OP_ADD:
            self._learn([decode_add_request_body(reqbody)])
            self.net.send(frm, encode_response(op, req_id, STATUS_OK))
        elif op == OP_EPOCHINC:
            self.seen_h = max(self.seen_h, decode_epochinc_body(reqbody))
            self.net.send(frm, encode_response(op, req_id, STATUS_OK))
        elif op == OP_GET:
            pool = self.knowledge | set(generate_invalid_elems(self.rng))
            theset = havoc_subset(self.rng, pool, key=wire_order)
            parts = havoc_partition(
                self.rng, havoc_subset(self.rng, pool, key=wire_order))
            state = encode_get_state(theset, [encode_epoch(es) for es in parts])
            self.net.send(frm, encode_response(op, req_id, STATUS_OK, state))

    def on_set_deliver(self, h: int, propset) -> None:
        self.seen_h = max(self.seen_h, h)
        for es in propset.values():
            self._learn(es)


# ---------------------------------------------------------------------------
# Targeted liars (protocol-following except where noted)
# ---------------------------------------------------------------------------


class ForgedDigestServer(SetchainServer):
    """Runs the full protocol but attests a wrong digest for every epoch.

    Its attestation elements carry real signatures over false content, so
    they spread through the set like any element — and must be rejected
    by clients on digest recomputation, not on signature validity.
    """

    def __init__(self, *args, **kwargs):
        kwargs["sign_epochs"] = True
        super().__init__(*args, **kwargs)

    def _sign_epoch(self, h: int, E: frozenset[Element]) -> None:
        forged = hashlib.sha256(b"forged" + hash_epoch(E)).digest()
        payload = attestation_payload(h, forged)
        attestation = self.keys.make_element(payload, self.pid, self._private)
        try:
            self.add(attestation)
        except RequestRejected:
            pass


class LyingHistoryServer(SetchainServer):
    """Runs the full protocol but answers every read with a fabricated
    snapshot: all elements it knows, claimed stamped in epoch 1, with an
    epoch hash signed only by itself."""

    def _handle_request(self, frm: ProcessId, body: bytes) -> None:
        try:
            op, req_id, _ = decode_request(body)
        except FrameError:
            return
        if op != OP_GET:
            super()._handle_request(frm, body)
            return
        fabricated = self.theset.union(self.tobroadcast)
        # The segment is u32 count | the set's encoding, and the epoch digest
        # (hash_epoch) is the sha256 of that encoding: one encode for both.
        segment = encode_epoch(fabricated)
        digest = hashlib.sha256(memoryview(segment)[4:]).digest()
        seal = self.keys.make_element(attestation_payload(1, digest), self.pid,
                                      self._private)
        state = encode_get_state(fabricated | {seal}, (segment,))
        self.net.send(frm, encode_response(OP_GET, req_id, STATUS_OK, state))
