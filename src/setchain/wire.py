"""Byte formats for every frame that crosses the simulated network.

All integers are big-endian.  Frames (first byte is the frame tag):

* broadcast frames, tag ``B``::

    'B' | phase u8 (0 init, 1 echo, 2 ready) | origin u32 id | origin u8 kind
        | digest 32B | payload? (init/echo: u32 len | bytes)

  The broadcast payload is itself a tagged inner message: ``0x00`` for an
  element batch (``u32 count``, then the canonical element-set encoding) or
  ``0x01`` for an epoch announcement (``u64 h``).

* consensus proposal notices, tag ``P``:  ``'P' | u64 h | u32 count | set``
* client requests, tag ``Q``:  ``'Q' | op u8 | u64 req_id | body``
  with op 0 add (element), 1 get (empty), 2 epoch-inc (``u64 h``)
* server responses, tag ``R``:  ``'R' | op u8 | u64 req_id | status u8 | body``
  where a get body is ``u64 epoch | u32 |S| | set | (u32 count | set) * epoch``;
  each ``u32 count | set`` is one history entry's segment (``encode_epoch``)

Unparseable frames are discarded by receivers.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    Element,
    ProcessId,
    ProcessKind,
    decode_element,
    decode_element_set,
    encode_element_set,
    sort_elements,  # unused here, but perfbench/tracing.py patches it by name
)

INIT, ECHO, READY = 0, 1, 2
_PHASE_NAMES = {INIT: "brb-init", ECHO: "brb-echo", READY: "brb-ready"}

OP_ADD, OP_GET, OP_EPOCHINC = 0, 1, 2
_OP_NAMES = {OP_ADD: "add", OP_GET: "get", OP_EPOCHINC: "epochinc"}

STATUS_OK = 0
STATUS_INVALID_ELEMENT = 1
STATUS_ALREADY_PRESENT = 2
STATUS_STALE_OR_FUTURE_EPOCH = 3

MSG_ADD, MSG_EPOCHINC = 0, 1


class FrameError(ValueError):
    """Structurally invalid frame."""


# -- inner broadcast messages ----------------------------------------------


def encode_madd(elements) -> bytes:
    return b"\x00" + struct.pack(">I", len(elements)) + encode_element_set(elements)


def encode_mepochinc(h: int) -> bytes:
    return b"\x01" + struct.pack(">Q", h)


@lru_cache(maxsize=256)
def decode_broadcast_message(buf: bytes):
    """Returns ('add', frozenset) or ('epochinc', h); raises FrameError.

    A pure function of the bytes, so every server and the monitor of one
    cluster share the answer for each BRB-delivered payload."""
    try:
        if buf[0] == MSG_ADD:
            (count,) = struct.unpack_from(">I", buf, 1)
            elements, end = decode_element_set(buf, count, 5)
            if end != len(buf):
                raise FrameError("trailing bytes in element batch")
            return "add", elements
        if buf[0] == MSG_EPOCHINC:
            (h,) = struct.unpack_from(">Q", buf, 1)
            return "epochinc", h
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(str(exc)) from exc
    raise FrameError(f"unknown broadcast message tag {buf[:1]!r}")


# -- broadcast frames -------------------------------------------------------


@dataclass(frozen=True)
class BrbFrame:
    phase: int
    origin: ProcessId
    digest: bytes
    payload: Optional[bytes]  # present for INIT and ECHO


def encode_brb(frame: BrbFrame) -> bytes:
    head = struct.pack(
        ">cBIB", b"B", frame.phase, frame.origin.id, frame.origin.kind.value
    ) + frame.digest
    if frame.phase in (INIT, ECHO):
        if frame.payload is None:
            raise FrameError("init/echo frames carry a payload")
        return head + struct.pack(">I", len(frame.payload)) + frame.payload
    return head


@lru_cache(maxsize=256)
def decode_brb(buf: bytes) -> BrbFrame:
    """The frame in ``buf``; raises FrameError for garbage and for an init
    or echo frame whose digest is not ``sha256(payload)``.

    A pure function of the bytes: a process sends each frame to all its
    peers, and an instance's echo and ready frames are the same bytes
    whoever sends them, so every receiver in a cluster shares one decode."""
    try:
        tag, phase, origin_id, origin_kind = struct.unpack_from(">cBIB", buf, 0)
        if tag != b"B" or phase not in _PHASE_NAMES:
            raise FrameError("not a broadcast frame")
        digest = bytes(buf[7:39])
        if len(digest) != 32:
            raise FrameError("short digest")
        payload = None
        if phase in (INIT, ECHO):
            (plen,) = struct.unpack_from(">I", buf, 39)
            payload = bytes(buf[43 : 43 + plen])
            if len(payload) != plen or 43 + plen != len(buf):
                raise FrameError("bad payload length")
            if hashlib.sha256(payload).digest() != digest:
                raise FrameError("digest does not bind the payload")
        elif len(buf) != 39:
            raise FrameError("trailing bytes in ready frame")
        return BrbFrame(phase, ProcessId(origin_id, ProcessKind(origin_kind)),
                        digest, payload)
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(str(exc)) from exc


# -- consensus proposal notices --------------------------------------------


def encode_inform(h: int, elements) -> bytes:
    return (b"P" + struct.pack(">QI", h, len(elements))
            + encode_element_set(elements))


def decode_inform(buf: bytes) -> tuple[int, frozenset[Element]]:
    try:
        if buf[:1] != b"P":
            raise FrameError("not a proposal notice")
        h, count = struct.unpack_from(">QI", buf, 1)
        elements, end = decode_element_set(buf, count, 13)
        if end != len(buf):
            raise FrameError("trailing bytes in proposal notice")
        return h, elements
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(str(exc)) from exc


# -- client requests / server responses ------------------------------------


def encode_request(op: int, req_id: int, body: bytes = b"") -> bytes:
    return b"Q" + struct.pack(">BQ", op, req_id) + body


def decode_request(buf: bytes) -> tuple[int, int, bytes]:
    try:
        if buf[:1] != b"Q":
            raise FrameError("not a request")
        op, req_id = struct.unpack_from(">BQ", buf, 1)
        if op not in _OP_NAMES:
            raise FrameError("unknown op")
        return op, req_id, bytes(buf[10:])
    except (struct.error, IndexError) as exc:
        raise FrameError(str(exc)) from exc


def encode_response(op: int, req_id: int, status: int, body: bytes = b"") -> bytes:
    return b"R" + struct.pack(">BQB", op, req_id, status) + body


def decode_response(buf: bytes) -> tuple[int, int, int, bytes]:
    try:
        if buf[:1] != b"R":
            raise FrameError("not a response")
        op, req_id, status = struct.unpack_from(">BQB", buf, 1)
        return op, req_id, status, bytes(buf[11:])
    except (struct.error, IndexError) as exc:
        raise FrameError(str(exc)) from exc


def encode_epoch(es) -> bytes:
    """One history entry of a get body: ``u32 count | set``."""
    return struct.pack(">I", len(es)) + encode_element_set(es)


def encode_get_state(theset, epochs: Sequence[bytes]) -> bytes:
    """Body of a successful get response; ``epochs`` holds the
    :func:`encode_epoch` segments of entries 1, 2, ... in order."""
    return b"".join((struct.pack(">QI", len(epochs), len(theset)),
                     encode_element_set(theset), *epochs))


# What a reply's decode keeps for the next reply from the same server: the
# bytes of its history segments and the epoch sets decoded from them.
GetPrior = tuple[bytes, tuple[frozenset[Element], ...]]


def decode_get_state(buf: bytes):
    """Returns (theset, epoch_sets: tuple, epoch); raises FrameError."""
    theset, epochs, epoch, _ = decode_get_state_after(buf, None)
    return theset, epochs, epoch


def decode_get_state_after(buf: bytes, prior: Optional[GetPrior]):
    """:func:`decode_get_state` that decodes only what is new since
    ``prior``, and also returns the prior for the next reply.

    The prior's epoch sets are reused when this reply's history starts with
    exactly the prior's history bytes and claims at least as many epochs;
    those bytes are whole segments, so their decode cannot differ.  Any
    other reply is decoded in full.  Raises FrameError."""
    try:
        epoch, scount = struct.unpack_from(">QI", buf, 0)
        if epoch > 1_000_000:
            raise FrameError("implausible epoch")
        theset, start = decode_element_set(buf, scount, 12)
        epochs, offset = [], start
        if prior is not None:
            kept, kept_epochs = prior
            if len(kept_epochs) <= epoch and buf.startswith(kept, start):
                epochs, offset = list(kept_epochs), start + len(kept)
        for _ in range(epoch - len(epochs)):
            (count,) = struct.unpack_from(">I", buf, offset)
            es, offset = decode_element_set(buf, count, offset + 4)
            epochs.append(es)
        if offset != len(buf):
            raise FrameError("trailing bytes in get state")
        epochs = tuple(epochs)
        return theset, epochs, epoch, (buf[start:], epochs)
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(str(exc)) from exc


def decode_add_request_body(body: bytes) -> Element:
    try:
        e, end = decode_element(body)
        if end != len(body):
            raise FrameError("trailing bytes in add request")
        return e
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(str(exc)) from exc


def encode_epochinc_body(h: int) -> bytes:
    return struct.pack(">Q", h)


def decode_epochinc_body(body: bytes) -> int:
    try:
        (h,) = struct.unpack(">Q", body)
        return h
    except struct.error as exc:
        raise FrameError(str(exc)) from exc


def classify(body: bytes) -> str:
    """Human-readable frame type for the delivery log."""
    if not body:
        return "empty"
    tag = body[:1]
    try:
        if tag == b"B":
            return _PHASE_NAMES.get(body[1], "brb-?")
        if tag == b"P":
            return "sbc-inform"
        if tag == b"Q":
            return "req-" + _OP_NAMES.get(body[1], "?")
        if tag == b"R":
            return "resp-" + _OP_NAMES.get(body[1], "?")
    except IndexError:
        pass
    return "raw-" + tag.hex()
