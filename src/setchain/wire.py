"""Byte formats for every frame that crosses the simulated network.

All integers are big-endian.  A ``set`` below is an element set encoding
(``core.encode_element_set``): the element encodings in canonical order,
back to back, each carrying its own lengths.  Frames (first byte is the
frame tag):

* broadcast frames, tag ``B``::

    'B' | phase u8 | origin u32 id | origin u8 kind | digest 32B | payload?

  with phase 0 init, 1 echo, 2 ready, 3 fetch (ask the peers for the
  payload of a digest) and 4 supply (the answer to one fetch).  Echo, ready
  and fetch frames are 39 bytes; only the origin's init and a supply carry
  the payload, which runs to the end of the frame, and the digest of each
  must bind it.  The origin ``SHARED_ORIGIN`` (id ``2**32 - 1``, a correct
  server's kind) is reserved: it names no process, any peer may send its
  init, and each peer relays the first copy of each such init once.  It
  has no echo, ready, fetch or supply.

  The broadcast payload is itself a tagged inner message: ``0x00`` for an
  element batch (``u32 count | set``) or ``0x01`` for an epoch
  announcement (``u64 h``).

* consensus proposal notices, tag ``P``::

    'P' | u64 h | u32 ndigests | 32B * ndigests (sorted) | u32 count | set

  the two halves of a :class:`Proposal`: the add batches it names by the
  32-byte digest of their broadcast payload, and the elements it names by
  value.
* client requests, tag ``Q``:  ``'Q' | op u8 | u64 req_id | body``
  with op 0 add (``element | u8 primary``), 1 get (``u64 have``: how many
  of the server's epochs the reader holds), 2 epoch-inc (``u64 h``).  A
  client sends each add to several servers and marks one copy primary
  (flag 1) and the others backup (flag 0); any other flag is garbage
* server responses, tag ``R``:  ``'R' | op u8 | u64 req_id | status u8 | body``
  where a get body is
  ``u64 epoch | u64 base | u32 |U| | set(U) | (u32 count | set) * (epoch - base)``:
  ``U`` is the set's unstamped rest (theset minus every epoch), and each
  ``u32 count | set`` is the segment (``encode_epoch``) of one history
  entry ``base + 1 .. epoch``; the reader already holds entries ``1 .. base``

Unparseable frames are discarded by receivers.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .core import (
    DIGEST_SIZE,
    Element,
    ProcessId,
    ProcessKind,
    decode_element,
    decode_element_set,
    encode_element_set,
    sort_elements,  # unused here, but perfbench/tracing.py patches it by name
)

INIT, ECHO, READY, FETCH, SUPPLY = 0, 1, 2, 3, 4
_PHASE_NAMES = {INIT: "brb-init", ECHO: "brb-echo", READY: "brb-ready",
                FETCH: "brb-fetch", SUPPLY: "brb-supply"}
_CARRIES_PAYLOAD = (INIT, SUPPLY)

# The origin of a payload that any peer may announce and every peer relays
# once; no process has this id.
SHARED_ORIGIN = ProcessId(2**32 - 1)

OP_ADD, OP_GET, OP_EPOCHINC = 0, 1, 2
_OP_NAMES = {OP_ADD: "add", OP_GET: "get", OP_EPOCHINC: "epochinc"}

STATUS_OK = 0
STATUS_INVALID_ELEMENT = 1
STATUS_ALREADY_PRESENT = 2
STATUS_STALE_OR_FUTURE_EPOCH = 3

MSG_ADD, MSG_EPOCHINC = 0, 1


class FrameError(ValueError):
    """Structurally invalid frame."""


# What a decoder's parsing raises on garbage; every decoder turns these, and
# only these, into FrameError.
_GARBAGE = (struct.error, ValueError, IndexError)


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
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc
    raise FrameError(f"unknown broadcast message tag {buf[:1]!r}")


# -- broadcast frames -------------------------------------------------------


class BrbFrame(NamedTuple):
    """One broadcast frame.  A tuple, so that building one per send is
    cheap; it equals a bare 4-tuple, and no table mixes the two."""

    phase: int
    origin: ProcessId
    digest: bytes
    payload: Optional[bytes]  # INIT and SUPPLY; the other phases ignore it


def encode_brb(frame: BrbFrame) -> bytes:
    head = struct.pack(
        ">cBIB", b"B", frame.phase, frame.origin.id, frame.origin.kind
    ) + frame.digest
    if frame.phase in _CARRIES_PAYLOAD:
        if frame.payload is None:
            raise FrameError("init/supply frames carry a payload")
        return head + frame.payload
    return head


@lru_cache(maxsize=256)
def decode_brb(buf: bytes) -> BrbFrame:
    """The frame in ``buf``; raises FrameError for garbage and for an init
    or supply frame whose digest is not ``sha256(payload)``.

    A pure function of the bytes: a process sends each frame to all its
    peers, and an instance's echo, ready and fetch frames are the same bytes
    whoever sends them, so every receiver in a cluster shares one decode."""
    try:
        tag, phase, origin_id, origin_kind = struct.unpack_from(">cBIB", buf, 0)
        if tag != b"B" or phase not in _PHASE_NAMES:
            raise FrameError("not a broadcast frame")
        digest = bytes(buf[7:39])
        if len(digest) != 32:
            raise FrameError("short digest")
        payload = None
        if phase in _CARRIES_PAYLOAD:
            payload = bytes(buf[39:])
            if hashlib.sha256(payload).digest() != digest:
                raise FrameError("digest does not bind the payload")
        elif len(buf) != 39:
            raise FrameError("trailing bytes in a digest-only frame")
        return BrbFrame(phase, ProcessId(origin_id, ProcessKind(origin_kind)),
                        digest, payload)
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


# -- consensus proposal notices --------------------------------------------


class Proposal(NamedTuple):
    """What a server proposes for one consensus instance: the add batches
    it names by digest, and the elements it names by value."""

    digests: frozenset[bytes] = frozenset()
    elements: frozenset[Element] = frozenset()


def encode_inform(h: int, proposal: Proposal) -> bytes:
    """The notice of ``proposal`` for instance ``h``."""
    digests = sorted(proposal.digests)
    if any(len(d) != DIGEST_SIZE for d in digests):
        raise FrameError("a proposal digest is 32 bytes")
    elements = proposal.elements
    return b"".join((b"P", struct.pack(">QI", h, len(digests)), *digests,
                     struct.pack(">I", len(elements)),
                     encode_element_set(elements)))


def decode_inform(buf: bytes) -> tuple[int, Proposal]:
    """``(h, proposal)`` of a proposal notice."""
    try:
        if buf[:1] != b"P":
            raise FrameError("not a proposal notice")
        h, ndigests = struct.unpack_from(">QI", buf, 1)
        end = 13 + DIGEST_SIZE * ndigests
        if end + 4 > len(buf):  # before slicing, so a huge count costs nothing
            raise FrameError("truncated digest list")
        digests = frozenset(bytes(buf[i : i + DIGEST_SIZE])
                            for i in range(13, end, DIGEST_SIZE))
        (count,) = struct.unpack_from(">I", buf, end)
        elements, stop = decode_element_set(buf, count, end + 4)
        if stop != len(buf):
            raise FrameError("trailing bytes in proposal notice")
        return h, Proposal(digests, elements)
    except _GARBAGE as exc:
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
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


def encode_response(op: int, req_id: int, status: int, body: bytes = b"") -> bytes:
    return b"R" + struct.pack(">BQB", op, req_id, status) + body


def decode_response(buf: bytes) -> tuple[int, int, int, bytes]:
    try:
        if buf[:1] != b"R":
            raise FrameError("not a response")
        op, req_id, status = struct.unpack_from(">BQB", buf, 1)
        return op, req_id, status, bytes(buf[11:])
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


def encode_epoch(es) -> bytes:
    """One history entry of a get body: ``u32 count | set``."""
    return struct.pack(">I", len(es)) + encode_element_set(es)


MAX_EPOCH = 1_000_000  # a get reply claiming more epochs is garbage


def encode_get_request_body(have: int) -> bytes:
    return struct.pack(">Q", have)


def decode_get_request_body(body: bytes) -> int:
    try:
        (have,) = struct.unpack(">Q", body)
        return have
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


def encode_get_state(unstamped, segments: Sequence[bytes], base: int = 0) -> bytes:
    """Body of a successful get response; ``segments`` holds the
    :func:`encode_epoch` segments of entries ``base + 1``, ``base + 2``, ...
    in order, and ``unstamped`` the elements in no entry."""
    return b"".join((struct.pack(">QQI", base + len(segments), base, len(unstamped)),
                     encode_element_set(unstamped), *segments))


# What a reply's decode keeps for the next reply from the same server: the
# epoch sets it holds, in order.
GetPrior = tuple[frozenset[Element], ...]


def decode_get_state(buf: bytes):
    """Returns (theset, epoch_sets: tuple, epoch); raises FrameError."""
    return decode_get_state_after(buf, ())


def decode_get_state_after(buf: bytes, prior: GetPrior):
    """:func:`decode_get_state` for a reader that holds ``prior``, the epoch
    sets of its last reply from the same server.

    The reply's first ``base`` epochs are ``prior[:base]``, reused as they
    are; only the segments after them are decoded.  A ``base`` beyond
    ``prior`` or beyond the reply's epoch raises FrameError, as does any
    malformed body.  ``theset`` is the unstamped rest joined with every
    epoch, and the returned epoch sets are the prior for the next reply."""
    try:
        epoch, base, ucount = struct.unpack_from(">QQI", buf, 0)
        if epoch > MAX_EPOCH:
            raise FrameError("implausible epoch")
        if base > epoch or base > len(prior):
            raise FrameError("base beyond the epochs held")
        unstamped, offset = decode_element_set(buf, ucount, 20)
        epochs = list(prior[:base])
        for _ in range(epoch - base):
            (count,) = struct.unpack_from(">I", buf, offset)
            es, offset = decode_element_set(buf, count, offset + 4)
            epochs.append(es)
        if offset != len(buf):
            raise FrameError("trailing bytes in get state")
        return unstamped.union(*epochs), tuple(epochs), epoch
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


def encode_add_request_body(e: Element, primary: bool) -> bytes:
    return e.wire + (b"\x01" if primary else b"\x00")


def decode_add_request_body(body: bytes) -> tuple[Element, bool]:
    """``(element, primary)``; raises FrameError unless exactly one flag
    byte, 0 or 1, follows the element."""
    try:
        e, end = decode_element(body)
        if end != len(body) - 1:
            raise FrameError("an add request is an element and one flag byte")
        flag = body[end]
        if flag > 1:
            raise FrameError("the primary flag is 0 or 1")
        return e, flag == 1
    except _GARBAGE as exc:
        raise FrameError(str(exc)) from exc


def encode_epochinc_body(h: int) -> bytes:
    return struct.pack(">Q", h)


def decode_epochinc_body(body: bytes) -> int:
    try:
        (h,) = struct.unpack(">Q", body)
        return h
    except _GARBAGE as exc:
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
