"""Core value types: processes, signed elements, epoch histories, digests.

Everything here is an immutable value that is safe to share between the
simulated processes.  The byte encodings defined in this module are the
canonical ones used on the wire and inside digests, so they are stable:

* element encoding (big-endian):
  ``u32 len(payload) | payload | u32 author.id | u8 author.kind | u32 len(sig) | sig``
* canonical element order: lexicographic over the element encoding
  (sort key :data:`wire_order`)
* element set encoding: the element encodings, in canonical order, back to
  back; each one carries its own lengths, so no other length is needed
* epoch digest: SHA-256 over the element set encoding
* epoch attestation payload: ``b"SEH1" | u64 h | 32-byte epoch digest``;
  :func:`attesters` counts the servers that sign one epoch's digest

An element is a ``(wire, payload, author, signature)`` tuple whose first
item is its canonical encoding.  It hashes as that tuple hashes, in C, with
no Python frame; two elements are equal when their encodings are.  The
encoding is injective, so this is field-wise equality, and it agrees with
the tuple hash.  An element never equals a non-element, with one exception:
through tuple's reflected comparison, a plain tuple of exactly its four
items compares (and hashes) equal to it.  No code builds such a tuple.
Decoded elements are shared: decoding
the same encoding again returns the same object (up to a bounded cache), and
:meth:`KeyStore.make_element` returns that object too, so the workload,
monitor, clients and servers of one cluster hold one copy of each.  The
cache, like ``wire``'s two decode memos, lives for one run:
``bench.run_scenario`` empties all three before it builds its cluster and
again after the run, so no run keeps another run's elements alive or mixes
them with its own.

A process id is an ``(id, kind)`` int tuple: it compares, hashes and orders
in C, by ``(id, kind)``, and no result depends on how a set of them iterates.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

Digest = bytes  # 32-byte SHA-256 digests throughout

DIGEST_SIZE = 32

# Default benchmark payload sizes (bytes), uniform in this closed range.
PAYLOAD_MIN = 116
PAYLOAD_MAX = 126


class ProcessKind(IntEnum):
    """Role of a process; fixed for the lifetime of a run."""

    CORRECT_SERVER = 0
    BYZANTINE_SERVER = 1
    CLIENT = 2
    MODEL_B = 3


class _ProcessIdFields(NamedTuple):
    id: int
    kind: ProcessKind = ProcessKind.CORRECT_SERVER


class ProcessId(_ProcessIdFields):
    """A process identity: a small unique integer plus its role.  As a
    tuple it equals a bare ``(id, kind)`` pair; no table mixes the two."""

    __slots__ = ()

    def __new__(cls, id: int, kind: ProcessKind = ProcessKind.CORRECT_SERVER):
        if id < 0:
            raise ValueError("process id must be non-negative")
        return super().__new__(cls, id, kind)

    @property
    def is_server(self) -> bool:
        return self.kind in (ProcessKind.CORRECT_SERVER, ProcessKind.BYZANTINE_SERVER)

    def __repr__(self) -> str:  # compact, e.g. s3, z1, c7, b4
        return f"{'szcb'[self.kind]}{self.id}"  # tags in ProcessKind order


class Element(tuple):
    """An immutable signed payload; the unit stored in the replicated set.

    A ``(wire, payload, author, signature)`` tuple whose identity runs in C
    (see the module docstring); build one from its three fields.
    """

    __slots__ = ()

    def __new__(cls, payload: bytes, author: ProcessId, signature: bytes):
        return tuple.__new__(
            cls, (_encode_fields(payload, author, signature), payload, author,
                  signature))

    # Canonical byte encoding; also the sort key for the canonical order.
    wire = property(itemgetter(0))
    payload = property(itemgetter(1))
    author = property(itemgetter(2))
    signature = property(itemgetter(3))

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element):
            return self[0] == other[0]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Element):
            return self[0] != other[0]
        return NotImplemented

    def __getnewargs__(self):  # copy and pickle rebuild from the fields
        return self[1:]

    @property
    def digest(self) -> Digest:
        return hashlib.sha256(self[0]).digest()

    def __repr__(self) -> str:
        return f"Element({self.digest.hex()[:10]}, by={self.author!r})"


def _encode_fields(payload: bytes, author: ProcessId, signature: bytes) -> bytes:
    """The canonical encoding of the element with these fields."""
    return b"".join((struct.pack(">I", len(payload)), payload,
                     struct.pack(">IBI", author.id, author.kind, len(signature)),
                     signature))


@lru_cache(maxsize=4096)
def _element_from_wire(wire: bytes) -> Element:
    """The element whose canonical encoding is exactly ``wire``, one shared
    object per encoding.  Raises ValueError or struct.error when ``wire``
    is not an encoding.  The bound keeps memory flat under garbage."""
    (plen,) = struct.unpack_from(">I", wire, 0)
    author_id, kind, slen = struct.unpack_from(">IBI", wire, 4 + plen)
    if 13 + plen + slen != len(wire):
        raise ValueError("element length fields do not match its size")
    return tuple.__new__(Element, (wire, wire[4 : 4 + plen],
                                   ProcessId(author_id, ProcessKind(kind)),
                                   wire[13 + plen :]))


def decode_element(buf: bytes, offset: int = 0) -> tuple[Element, int]:
    """Decode one element at ``offset``; returns (element, next offset)."""
    (plen,) = struct.unpack_from(">I", buf, offset)
    (slen,) = struct.unpack_from(">I", buf, offset + 9 + plen)
    end = offset + 13 + plen + slen
    if end > len(buf):
        raise ValueError("truncated element signature")
    return _element_from_wire(bytes(buf[offset:end])), end


wire_order = itemgetter(0)  # canonical order's key: the wire; C-level, no frame


def sort_elements(elements: Iterable[Element]) -> list[Element]:
    """Elements in canonical (wire-lexicographic) order."""
    return sorted(elements, key=wire_order)


def encode_element_set(elements: Iterable[Element]) -> bytes:
    """Injective encoding of a finite element set: the element encodings in
    canonical order, concatenated.  Each one is self-delimiting."""
    return b"".join(sorted(map(wire_order, elements)))


def decode_element_set(buf: bytes, count: int, offset: int = 0) -> tuple[frozenset[Element], int]:
    """The ``count`` elements encoded back to back at ``offset``; returns
    (elements, next offset)."""
    out = []
    for _ in range(count):
        e, offset = decode_element(buf, offset)
        out.append(e)
    return frozenset(out), offset


def hash_epoch(elements: Iterable[Element]) -> Digest:
    """Order-independent digest of a finite element set."""
    return hashlib.sha256(encode_element_set(elements)).digest()


# ---------------------------------------------------------------------------
# Signature schemes and key management
# ---------------------------------------------------------------------------


class SignatureScheme:
    """Sign/verify interface; implementations must be deterministic."""

    name: str = "abstract"

    def keygen(self, seed: int) -> tuple[bytes, bytes]:
        """Derive a (public, private) pair from an integer seed."""
        raise NotImplementedError

    def sign(self, private: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError


class HmacScheme(SignatureScheme):
    """Fast keyed-MAC stand-in for an asymmetric scheme.

    The public and private halves are the same secret, so verification with
    the right key succeeds and with any other key fails, which is the only
    property the protocol suites rely on.  Processes never use another
    process's private half.
    """

    name = "hmac-sha256"

    def keygen(self, seed: int) -> tuple[bytes, bytes]:
        secret = hashlib.sha256(b"setchain-key:" + str(seed).encode()).digest()
        return secret, secret

    def sign(self, private: bytes, message: bytes) -> bytes:
        return hmac.digest(private, message, "sha256")

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(public, message), signature)


class Ed25519Scheme(SignatureScheme):
    """Real asymmetric signatures for integration runs."""

    name = "ed25519"

    def keygen(self, seed: int) -> tuple[bytes, bytes]:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        raw = hashlib.sha256(b"setchain-ed25519:" + str(seed).encode()).digest()
        priv = Ed25519PrivateKey.from_private_bytes(raw)
        from cryptography.hazmat.primitives import serialization

        pub = priv.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        return pub, raw

    def sign(self, private: bytes, message: bytes) -> bytes:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        return Ed25519PrivateKey.from_private_bytes(private).sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
            return True
        except InvalidSignature:
            return False


class KeyStore:
    """Registry of public keys plus element validation (valid verdicts memoised)."""

    def __init__(self, scheme: Optional[SignatureScheme] = None):
        self.scheme = scheme or HmacScheme()
        self._public: dict[ProcessId, bytes] = {}
        self._memo: set[bytes] = set()  # encodings of valid elements

    def register(self, pid: ProcessId, public: bytes) -> None:
        if pid in self._public:
            raise ValueError(f"duplicate key registration for {pid!r}")
        self._public[pid] = public

    def keygen(self, pid: ProcessId) -> bytes:
        """Create, register and return the private key for ``pid``."""
        public, private = self.scheme.keygen(pid.id * 4 + pid.kind.value)
        self.register(pid, public)
        return private

    def public_key(self, pid: ProcessId) -> Optional[bytes]:
        return self._public.get(pid)

    def valid(self, e: Element) -> bool:
        """An element is valid iff its signature verifies under its author's key.

        Only valid verdicts are memoised: anyone can mint invalid elements
        without end, and a memo of them would grow with the garbage."""
        if e.wire in self._memo:
            return True
        public = self._public.get(e.author)
        ok = public is not None and self.scheme.verify(public, e.payload, e.signature)
        if ok:
            self._memo.add(e.wire)
        return ok

    def make_element(self, payload: bytes, author: ProcessId, private: bytes) -> Element:
        """The shared, decoded element with these fields, signed with
        ``private``."""
        signature = self.scheme.sign(private, payload)
        return _element_from_wire(_encode_fields(payload, author, signature))


# ---------------------------------------------------------------------------
# Epoch history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class History:
    """An immutable map from epoch number to the element set stamped at it.

    The domain is always the contiguous range ``1..epoch``; entry ``i`` is
    stored at tuple index ``i - 1``.  ``stamp`` returns a new history.
    """

    entries: tuple[frozenset[Element], ...] = ()

    @property
    def epoch(self) -> int:
        return len(self.entries)

    def stamp(self, h: int, elements: Iterable[Element]) -> "History":
        if h != self.epoch + 1:
            raise ValueError(f"epoch {h} is not the successor of {self.epoch}")
        return History(self.entries + (frozenset(elements),))

    def get(self, i: int) -> frozenset[Element]:
        if not 1 <= i <= self.epoch:
            raise KeyError(i)
        return self.entries[i - 1]

    def items(self):
        for i, es in enumerate(self.entries, start=1):
            yield i, es

    def union(self) -> frozenset[Element]:
        return frozenset().union(*self.entries) if self.entries else frozenset()

    def __contains__(self, e: Element) -> bool:
        return any(e in es for es in self.entries)


@dataclass(frozen=True)
class GetResult:
    """Snapshot returned by a server's read: (theset, history, epoch)."""

    theset: frozenset[Element]
    history: History
    epoch: int


# ---------------------------------------------------------------------------
# Epoch attestations (signed epoch hashes travelling as ordinary elements)
# ---------------------------------------------------------------------------

_ATTESTATION_MAGIC = b"SEH1"


def attestation_payload(h: int, digest: Digest) -> bytes:
    """Payload carried by a signed epoch hash element."""
    if len(digest) != DIGEST_SIZE:
        raise ValueError("epoch digest must be 32 bytes")
    return _ATTESTATION_MAGIC + struct.pack(">Q", h) + digest


def parse_attestation(payload: bytes) -> Optional[tuple[int, Digest]]:
    """Inverse of :func:`attestation_payload`; None when not an attestation."""
    if len(payload) != len(_ATTESTATION_MAGIC) + 8 + DIGEST_SIZE:
        return None
    if not payload.startswith(_ATTESTATION_MAGIC):
        return None
    (h,) = struct.unpack_from(">Q", payload, len(_ATTESTATION_MAGIC))
    return h, payload[len(_ATTESTATION_MAGIC) + 8 :]


def attesters(elements: Iterable[Element], h: int, digest: Digest,
              keys: KeyStore) -> frozenset[ProcessId]:
    """The servers that attest, in a valid element of ``elements``, that
    epoch ``h`` has ``digest``.  Each one counts once, however many copies
    of its attestation ``elements`` holds."""
    payload = attestation_payload(h, digest)
    return frozenset(e.author for e in elements if e.payload == payload
                     and e.author.is_server and keys.valid(e))


def random_payload(rng) -> bytes:
    """A benchmark payload with size uniform in [PAYLOAD_MIN, PAYLOAD_MAX]."""
    return rng.randbytes(rng.randint(PAYLOAD_MIN, PAYLOAD_MAX))
