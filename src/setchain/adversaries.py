"""Byzantine server behaviours for protocol tests and benchmark runs.

Four flavours, from inert to actively hostile:

* :class:`SilentServer` — occupies a server slot, absorbs all traffic,
  never sends anything.
* :class:`HavocServer` — the generic chaotic adversary.  It remembers
  every valid element it sees (add requests, broadcast payloads, consensus
  notices and deliveries).  On a seeded random schedule it emits
  broadcasts built from random mixes of that knowledge and freshly minted
  invalid elements, and consensus proposals whose elements are such a mix
  and whose digests are a few of the batch digests it saw since its last
  proposal (of INIT and SUPPLY payloads, in notices and decisions, and of
  its own broadcasts) and a few fresh random digests.  Reads are answered
  with fabricated snapshots, against a random ``base``.
* :class:`ForgedDigestServer` — follows the protocol but signs a wrong
  digest for every epoch, through the correct server's ``_attest``, so its
  epoch attestations never match what a client recomputes.
* :class:`LyingHistoryServer` — follows the protocol but answers reads
  with a fabricated single-epoch history claiming everything it knows was
  stamped in epoch 1, co-signed only by itself.

The ``havoc_*`` helpers are the seeded random generators shared with the
abstract adversary process of the model-equivalence checker.

A havoc server reads broadcast traffic through ``wire.decode_brb`` and
``wire.decode_broadcast_message``, both memoised by their bytes, so it
shares the decodes of the correct servers and of the other havoc servers.
It learns a broadcast payload only from a frame that carries one, an INIT
or a SUPPLY; echo, ready and fetch frames carry only a digest.  Of the
broadcast frames it sends INITs only: never an echo, ready, fetch or
supply.  An add batch's INIT names the havoc server as its origin; an
epoch announcement's INIT names ``wire.SHARED_ORIGIN``, as a correct
server's does, so the first correct server it reaches relays it to every
peer and delivers it, as it would a correct announcer's.
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
from .server import SetchainServer
from .simnet import SimTime, Simulation
from .wire import (
    INIT,
    MAX_EPOCH,
    OP_ADD,
    OP_EPOCHINC,
    OP_GET,
    SHARED_ORIGIN,
    STATUS_OK,
    BrbFrame,
    FrameError,
    Proposal,
    decode_add_request_body,
    decode_brb,
    decode_broadcast_message,
    decode_epochinc_body,
    decode_get_request_body,
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


def _coin_count(rng: random.Random) -> int:
    """A coin-flip (geometric) count, capped at four."""
    count = 0
    while count < 4 and rng.random() < 0.5:
        count += 1
    return count


def generate_invalid_elems(rng: random.Random) -> list[Element]:
    """Freshly minted never-valid elements, :func:`_coin_count` of them."""
    return [
        Element(rng.randbytes(rng.randint(8, 24)), _FORGER, rng.randbytes(32))
        for _ in range(_coin_count(rng))
    ]


def generate_junk_digests(rng: random.Random) -> list[bytes]:
    """Fresh random 32-byte digests that name no batch, :func:`_coin_count`
    of them."""
    return [rng.randbytes(32) for _ in range(_coin_count(rng))]


# ---------------------------------------------------------------------------
# Silent
# ---------------------------------------------------------------------------


class SilentServer:
    """A crashed-looking Byzantine slot: receives everything, sends nothing."""

    def __init__(self, pid: ProcessId, sim: Simulation, service: ConsensusService):
        self.pid = pid
        self.net = sim.register(pid, self._on_message)
        service.register(pid, self._on_set_deliver)

    def _on_message(self, frm: ProcessId, body: bytes) -> None:
        pass

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
    The digests it names are ones it saw, which count only where ``f + 1``
    proposers name them, or random ones that name no batch.  The gap
    between two actions is drawn uniformly from ``TICK_GAP`` ticks.

    ``until`` is its one stop rule: no action runs after that tick.
    ``start`` sets it (``None`` runs forever), and ``stop`` sets it to now.
    """

    TICK_GAP = (20, 150)

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulation,
        keys: KeyStore,
        service: ConsensusService,
        peers: tuple[ProcessId, ...],
    ):
        self.pid = pid
        self.keys = keys
        self.service = service
        self.peers = tuple(p for p in peers if p != pid)
        self.rng = random.Random(f"{sim.config.rng_seed}:havoc:{pid.id}")
        # The digests it names come from a stream of their own, so that what
        # it sends, and when, follows from ``rng`` alone.
        self.digest_rng = random.Random(
            f"{sim.config.rng_seed}:havoc-digests:{pid.id}")
        self.net = sim.register(pid, self.on_message)
        service.register(pid, self.on_set_deliver)
        self.knowledge: set[Element] = set()
        self.digests: set[bytes] = set()  # seen since its last proposal
        self.seen_h = 0
        self.until: Optional[SimTime] = None

    # -- the random action pump ---------------------------------------------

    def start(self, until: Optional[SimTime] = None) -> None:
        self.until = until
        self.net.after(self.rng.randint(*self.TICK_GAP), self._tick)

    def stop(self) -> None:
        self.until = self.net.now

    def _tick(self) -> None:
        if self.until is not None and self.net.now > self.until:
            return
        action = self.rng.choice(("madd", "madd", "mepochinc", "propose"))
        pool = self.knowledge | set(generate_invalid_elems(self.rng))
        if action == "madd":
            batch = havoc_subset(self.rng, pool, key=wire_order)
            self._brb_broadcast(self.pid, encode_madd(batch))
        elif action == "mepochinc":
            self._brb_broadcast(SHARED_ORIGIN, encode_mepochinc(
                havoc_number(self.rng, self.seen_h + 2)))
        else:
            h = havoc_number(self.rng, self.seen_h + 2, lo=1)
            seen = sorted(self.digests)
            self.digests.clear()
            elements = havoc_subset(self.rng, pool, key=wire_order)
            digests = self.digest_rng.sample(
                seen, min(len(seen), _coin_count(self.digest_rng)))
            digests += generate_junk_digests(self.digest_rng)
            self.service.propose(h, Proposal(frozenset(digests), elements),
                                 self.pid)
        self.net.after(self.rng.randint(*self.TICK_GAP), self._tick)

    def _brb_broadcast(self, origin: ProcessId, payload: bytes) -> None:
        digest = hashlib.sha256(payload).digest()
        self.digests.add(digest)
        frame = encode_brb(BrbFrame(INIT, origin, digest, payload))
        targets = self.peers
        if self.rng.random() < 0.25:  # sometimes only tell a subset
            targets = havoc_subset(self.rng, self.peers) or self.peers
        for p in sorted(targets):
            self.net.send(p, frame)

    # -- absorbing traffic into knowledge -----------------------------------

    def _learn(self, elements: Iterable[Element],
               digests: Iterable[bytes] = ()) -> None:
        """Keeps ``digests`` and the valid elements among ``elements``."""
        self.digests.update(digests)
        valid = self.keys.valid
        self.knowledge.update(e for e in elements if valid(e))

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        tag = body[:1]
        try:
            if tag == b"B":
                frame = decode_brb(body)
                if frame.payload is not None:
                    self.digests.add(frame.digest)
                    kind, value = decode_broadcast_message(frame.payload)
                    if kind == "add":
                        self._learn(value)
                    else:
                        self.seen_h = max(self.seen_h, value)
            elif tag == b"P":
                h, proposal = decode_inform(body)
                self.seen_h = max(self.seen_h, h)
                self._learn(proposal.elements, proposal.digests)
            elif tag == b"Q":
                self._handle_request(frm, body)
        except FrameError:
            pass

    def _handle_request(self, frm: ProcessId, body: bytes) -> None:
        op, req_id, reqbody = decode_request(body)
        if op == OP_ADD:
            self._learn([decode_add_request_body(reqbody)[0]])
            self.net.send(frm, encode_response(op, req_id, STATUS_OK))
        elif op == OP_EPOCHINC:
            self.seen_h = max(self.seen_h, decode_epochinc_body(reqbody))
            self.net.send(frm, encode_response(op, req_id, STATUS_OK))
        elif op == OP_GET:
            # A base up to one past what the reader holds: replies that reuse
            # its epochs, and replies it must reject.
            have = min(decode_get_request_body(reqbody), MAX_EPOCH)
            pool = self.knowledge | set(generate_invalid_elems(self.rng))
            unstamped = havoc_subset(self.rng, pool, key=wire_order)
            parts = havoc_partition(
                self.rng, havoc_subset(self.rng, pool, key=wire_order))
            base = havoc_number(self.rng, have + 1)
            state = encode_get_state(unstamped, [encode_epoch(es) for es in parts],
                                     base)
            self.net.send(frm, encode_response(op, req_id, STATUS_OK, state))

    def on_set_deliver(self, h: int, propset) -> None:
        self.seen_h = max(self.seen_h, h)
        for proposal in propset.values():
            self._learn(proposal.elements, proposal.digests)


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
        self._attest(h, hashlib.sha256(b"forged" + hash_epoch(E)).digest())


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
        # Base 0: the one epoch changes from read to read, so the reader
        # must not reuse the one it holds.
        state = encode_get_state({seal}, (segment,))
        self.net.send(frm, encode_response(OP_GET, req_id, STATUS_OK, state))
