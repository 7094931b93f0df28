"""Byzantine reliable broadcast (echo/ready quorum protocol).

Each broadcast instance is keyed by ``(origin, digest(payload))``.  A
process sends ECHO on the first init frame from the origin, sends READY
once it has ``2f + 1`` echoes or ``f + 1`` readies, and delivers once it
has ``2f + 1`` readies and knows the payload.  With ``n >= 3f + 1``
processes this gives: delivered payloads from correct origins were really
broadcast; a delivery happens at most once per instance; if the origin is
correct every correct process delivers; and if any correct process
delivers, all of them eventually do.

``broadcast`` starts an instance whose origin is this process, and a
process accepts that instance's init from its origin alone.  ``announce``
is for a message that several processes send with the same bytes and that
counts once, such as the ``f + 1`` announcements of one epoch change.  It
sends an INIT under the reserved origin ``wire.SHARED_ORIGIN``, which any
peer may send, and such a payload takes the eager reliable broadcast of
Cachin, Guerraoui & Rodrigues (*Introduction to Reliable and Secure
Distributed Programming*, 2011), not the quorums: on its own announce, or
on the first shared INIT of a digest, a process multicasts that INIT to
the other peers and then delivers.  Later copies, and an announce after a
relay, send nothing; a shared-origin ECHO, READY, FETCH or SUPPLY is
dropped and opens no instance.  So an announcement costs at most
``n (n - 1)`` frames and one message delay, however many peers announce it.

* Consistency: the digest binds the payload (``decode_brb`` checks it), so
  no sender can make two processes deliver different payloads under one
  key, and each process delivers a key once.
* Totality: a correct process multicasts the INIT before it delivers, and
  channels between correct processes are reliable, so once one correct
  process delivers, every correct process receives the INIT and delivers.
  If one announcer is correct, every correct process delivers.
* Nothing weaker than the quorum instance it replaces.  A shared INIT has
  no origin that could equivocate, so the echo phase had nothing to
  guard: a lone Byzantine shared INIT sent to every correct process
  already made each of them echo, ready and deliver it.  Now an INIT that
  reaches one correct process is enough, and the outcome is the same:
  every correct process delivers the payload the Byzantine peer sent.

Only the origin's INIT carries the payload; ECHO and READY frames carry
the digest alone and only count toward the quorums (digest echoes, as in
Cachin & Tessaro's AVID, 2005).  A process that has ``2f + 1`` readies but
not the payload multicasts one FETCH to the other peers, and each peer
that holds the payload answers with one SUPPLY.  That is enough: the first
correct READY needed ``2f + 1`` echoes, so at least ``f + 1`` correct
processes had the init, and kept its payload, before any fetch is sent.
A process answers each peer's FETCH at most once, accepts a SUPPLY only
for an instance it fetched, and opens no instance for either frame.  A
delivered instance keeps its payload, to answer fetches, and its flags,
so that a late init from the origin still draws this process's one echo;
it drops its quorum sets.

Each protocol step (the origin's INIT, a process's ECHO, its READY) is one
``NetHandle.multicast`` to the other peers, in their given order; the
process then applies the step to its own instance at once, as Bracha's
protocol counts a process's own echo and ready, so a step is never a
message to itself.  A FETCH goes to the other peers, a SUPPLY to the one
peer that asked.  ``on_deliver`` gets the origin, the digest and the
payload.

Frames are decoded by ``wire.decode_brb``, which also checks that an init
or supply frame's digest binds its payload and memoises the answer by the
frame bytes, so each distinct frame is decoded and hashed once per cluster.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ProcessId
from .simnet import NetHandle
from .wire import (
    ECHO,
    FETCH,
    INIT,
    READY,
    SHARED_ORIGIN,
    SUPPLY,
    BrbFrame,
    FrameError,
    decode_brb,
    encode_brb,
)


@dataclass
class _Instance:
    # Once delivered, an instance keeps its payload and flags: the quorum
    # sets become None.  A shared-origin instance is delivered at once.
    payload: Optional[bytes] = None
    echoes: Optional[set[ProcessId]] = field(default_factory=set)
    readies: Optional[set[ProcessId]] = field(default_factory=set)
    supplied: tuple[ProcessId, ...] = ()  # peers whose fetch was answered
    echoed: bool = False
    readied: bool = False
    fetched: bool = False
    delivered: bool = False


class BrbEngine:
    """One process's view of all reliable-broadcast instances."""

    def __init__(
        self,
        net: NetHandle,
        peers: tuple[ProcessId, ...],
        f: int,
        on_deliver: Callable[[ProcessId, bytes, bytes], None],
    ):
        if len(peers) < 3 * f + 1:
            raise ValueError("reliable broadcast needs n >= 3f + 1")
        self.net = net
        self._others = tuple(p for p in peers if p != net.pid)
        self._peer_set = frozenset(peers)
        self.quorum = 2 * f + 1  # echoes to turn ready; readies to deliver
        self.amplify = f + 1  # readies to turn ready
        self.on_deliver = on_deliver
        self.instances: dict[tuple[ProcessId, bytes], _Instance] = {}
        self.delivered_count = 0

    def broadcast(self, payload: bytes) -> bytes:
        """Start an instance with this process as origin; returns the digest."""
        digest = hashlib.sha256(payload).digest()
        self._send_to_all(BrbFrame(INIT, self.net.pid, digest, payload))
        return digest

    def announce(self, payload: bytes) -> bytes:
        """Relay and deliver ``payload`` under the shared origin, unless this
        process already has; returns the digest."""
        digest = hashlib.sha256(payload).digest()
        frame = BrbFrame(INIT, SHARED_ORIGIN, digest, payload)
        self._relay(frame, encode_brb(frame))
        return digest

    def _relay(self, frame: BrbFrame, body: bytes) -> None:
        """The first shared-origin INIT of a digest: multicast its bytes to
        the other peers, then deliver.  Later copies send nothing."""
        digest, payload = frame.digest, frame.payload
        key = (SHARED_ORIGIN, digest)
        if key in self.instances:
            return
        self.instances[key] = _Instance(payload, None, None, delivered=True)
        self.net.multicast(self._others, body)
        self.delivered_count += 1
        self.on_deliver(SHARED_ORIGIN, digest, payload)

    def handle_frame(self, frm: ProcessId, body: bytes) -> None:
        if frm not in self._peer_set:
            return  # only peers' frames count toward quorums or get answers
        try:
            frame = decode_brb(body)
        except FrameError:
            return  # garbage, or a digest that does not bind the payload
        if frame.origin == SHARED_ORIGIN:
            if frame.phase == INIT:
                self._relay(frame, body)
            return  # no quorum phase, fetch or supply under the shared origin
        self._apply(frm, frame)

    def _apply(self, frm: ProcessId, frame: BrbFrame) -> None:
        # One frame argument, not five: star-unpacking a NamedTuple into a
        # call costs more than the unpacking below, on every frame.
        phase, origin, digest, payload = frame
        key = (origin, digest)
        inst = self.instances.get(key)
        if inst is None:
            if phase >= FETCH:
                return  # a fetch or supply opens no instance
            inst = self.instances[key] = _Instance()
        if phase == INIT:
            if frm != origin:
                return  # authenticated channels: only the origin starts it
            inst.payload = payload
            if not inst.echoed:
                inst.echoed = True
                self._send_to_all(BrbFrame(ECHO, origin, digest, None))
            if inst.delivered:
                return
        elif phase == FETCH:
            if inst.payload is not None and frm not in inst.supplied:
                inst.supplied += (frm,)
                self.net.send(frm, encode_brb(
                    BrbFrame(SUPPLY, origin, digest, inst.payload)))
            return
        elif phase == SUPPLY:
            if not inst.fetched or inst.payload is not None:
                return  # unasked for, or already known
            inst.payload = payload
        elif inst.delivered:
            return  # a late echo or ready changes nothing
        elif phase == ECHO:
            inst.echoes.add(frm)
        else:
            inst.readies.add(frm)
        self._advance(origin, digest, inst)

    def _advance(self, origin: ProcessId, digest: bytes, inst: _Instance) -> None:
        if not inst.readied and (
            len(inst.echoes) >= self.quorum or len(inst.readies) >= self.amplify
        ):
            inst.readied = True
            self._send_to_all(BrbFrame(READY, origin, digest, None))
        if not inst.delivered and len(inst.readies) >= self.quorum:
            if inst.payload is not None:
                inst.delivered = True
                self.delivered_count += 1
                inst.echoes = inst.readies = None
                self.on_deliver(origin, digest, inst.payload)
            elif not inst.fetched:
                inst.fetched = True
                self.net.multicast(self._others, encode_brb(
                    BrbFrame(FETCH, origin, digest, None)))

    def _send_to_all(self, frame: BrbFrame) -> None:
        # Other peers first, so the multicast's delay draws come before any
        # that the own step sets off.  The step is applied from the decode of
        # the very bytes sent, which the peers' decodes then reuse from the
        # memo: the cluster keeps one copy of the payload and the digest.
        body = encode_brb(frame)
        self.net.multicast(self._others, body)
        self._apply(self.net.pid, decode_brb(body))
