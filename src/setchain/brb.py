"""Byzantine reliable broadcast (echo/ready quorum protocol).

Each broadcast instance is keyed by ``(origin, digest(payload))``.  A
process sends ECHO on the first init frame from the origin, sends READY
once it has ``2f + 1`` echoes or ``f + 1`` readies, and delivers once it
has ``2f + 1`` readies and knows the payload.  With ``n >= 3f + 1``
processes this gives: delivered payloads from correct origins were really
broadcast; a delivery happens at most once per instance; if the origin is
correct every correct process delivers; and if any correct process
delivers, all of them eventually do.  Init and echo frames carry the
payload so a late process can still learn it; ready frames carry only the
digest.

Frames are decoded by ``wire.decode_brb``, which also checks that an init
or echo frame's digest binds its payload and memoises the answer by the
frame bytes, so each distinct frame is decoded and hashed once per cluster.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ProcessId
from .simnet import NetHandle
from .wire import BrbFrame, ECHO, INIT, READY, FrameError, decode_brb, encode_brb


@dataclass
class _Instance:
    payload: Optional[bytes] = None
    echoes: set[ProcessId] = field(default_factory=set)
    readies: set[ProcessId] = field(default_factory=set)
    echoed: bool = False
    readied: bool = False
    delivered: bool = False


class BrbEngine:
    """One process's view of all reliable-broadcast instances."""

    def __init__(
        self,
        net: NetHandle,
        peers: tuple[ProcessId, ...],
        f: int,
        on_deliver: Callable[[ProcessId, bytes], None],
        on_broadcast: Optional[Callable[[ProcessId, bytes], None]] = None,
    ):
        if len(peers) < 3 * f + 1:
            raise ValueError("reliable broadcast needs n >= 3f + 1")
        self.net = net
        self.peers = tuple(peers)  # includes this process
        self._peer_set = frozenset(self.peers)
        self.f = f
        self.quorum = 2 * f + 1  # echoes to turn ready; readies to deliver
        self.amplify = f + 1  # readies to turn ready
        self.on_deliver = on_deliver
        self.on_broadcast = on_broadcast
        self.instances: dict[tuple[ProcessId, bytes], _Instance] = {}
        self.delivered_count = 0

    def broadcast(self, payload: bytes) -> bytes:
        """Start an instance with this process as origin; returns the digest."""
        digest = hashlib.sha256(payload).digest()
        if self.on_broadcast is not None:
            self.on_broadcast(self.net.pid, payload)
        self._send_to_all(BrbFrame(INIT, self.net.pid, digest, payload))
        return digest

    def handle_frame(self, frm: ProcessId, body: bytes) -> None:
        if frm not in self._peer_set:
            return  # only peers' echoes and readies count toward quorums
        try:
            frame = decode_brb(body)
        except FrameError:
            return  # garbage, or a digest that does not bind the payload
        key = (frame.origin, frame.digest)
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = _Instance()
        if frame.phase == INIT:
            if frm != frame.origin:
                return  # authenticated channels: only the origin starts it
            inst.payload = frame.payload
            if not inst.echoed:
                inst.echoed = True
                self._send_to_all(BrbFrame(ECHO, frame.origin, frame.digest,
                                           frame.payload))
        elif frame.phase == ECHO:
            inst.echoes.add(frm)
            if inst.payload is None:
                inst.payload = frame.payload
        elif frame.phase == READY:
            inst.readies.add(frm)
        self._advance(frame.origin, frame.digest, inst)

    def _advance(self, origin: ProcessId, digest: bytes, inst: _Instance) -> None:
        if not inst.readied and (
            len(inst.echoes) >= self.quorum or len(inst.readies) >= self.amplify
        ):
            inst.readied = True
            self._send_to_all(BrbFrame(READY, origin, digest, None))
        if (
            not inst.delivered
            and len(inst.readies) >= self.quorum
            and inst.payload is not None
        ):
            inst.delivered = True
            self.delivered_count += 1
            self.on_deliver(origin, inst.payload)

    def _send_to_all(self, frame: BrbFrame) -> None:
        body = encode_brb(frame)
        for p in self.peers:
            self.net.send(p, body)
