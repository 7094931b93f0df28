"""Replicated grow-only-set servers with epoch stamping.

``CentralSetchain`` is the sequential reference: one process, synchronous
inserts, epochs cut on demand.  ``SetchainServer`` is the distributed
state machine: adds fan out through reliable broadcast, epoch changes are
announced through reliable broadcast and resolved through the consensus
service, and each decided epoch stamps the decided-but-unstamped valid
elements.  Optional behaviours: batching adds into one broadcast
(aggregation, when given an ``AggConfig``) and signing each stamped
epoch's digest back into the set so light clients can check membership
proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .brb import BrbEngine
from .core import (
    Element,
    GetResult,
    History,
    KeyStore,
    ProcessId,
    attestation_payload,
    hash_epoch,
    sort_elements,
)
from .sbc import ConsensusService, Propset
from .simnet import SimTime, Simulation
from .wire import (
    OP_ADD,
    OP_EPOCHINC,
    OP_GET,
    STATUS_ALREADY_PRESENT,
    STATUS_INVALID_ELEMENT,
    STATUS_OK,
    STATUS_STALE_OR_FUTURE_EPOCH,
    FrameError,
    decode_add_request_body,
    decode_broadcast_message,
    decode_epochinc_body,
    decode_request,
    encode_epoch,
    encode_get_state,
    encode_madd,
    encode_mepochinc,
    encode_response,
)

DEFAULT_EPOCH_PERIOD = 200


class RequestRejected(Exception):
    """An operation refused by a server; ``code`` names the reason."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code

    STATUS = {
        "invalid-element": STATUS_INVALID_ELEMENT,
        "already-present": STATUS_ALREADY_PRESENT,
        "stale-or-future-epoch": STATUS_STALE_OR_FUTURE_EPOCH,
    }


@dataclass(frozen=True)
class AggConfig:
    """Add-batching thresholds: flush when the buffer exceeds ``max_batch``
    elements or its oldest entry is older than ``max_wait`` ticks."""

    max_batch: int = 1000
    max_wait: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.max_wait < 1:
            raise ValueError("aggregation thresholds must be positive")


# Desk-scale default, and the production constants (10^6 elements / 5 s).
AGG_DESK = AggConfig(max_batch=1000, max_wait=5_000_000)
AGG_PRODUCTION = AggConfig(max_batch=1_000_000, max_wait=5_000_000)

# Observer events: ("insert", elements) on set growth, ("stamp", (h, E)) on epochs.
StateObserver = Callable[[ProcessId, str, object], None]


class CentralSetchain:
    """Sequential single-process reference implementation."""

    def __init__(self, keys: KeyStore):
        self.keys = keys
        self.theset: set[Element] = set()
        self.history = History()
        self._unstamped: set[Element] = set()  # theset - history.union()

    @property
    def epoch(self) -> int:
        return self.history.epoch

    def add(self, e: Element) -> None:
        if not self.keys.valid(e):
            raise RequestRejected("invalid-element")
        if e not in self.theset:
            self.theset.add(e)
            self._unstamped.add(e)

    def epoch_inc(self, h: int) -> None:
        if h != self.epoch + 1:
            raise RequestRejected("stale-or-future-epoch")
        self.history = self.history.stamp(h, self._unstamped)
        self._unstamped = set()

    def get(self) -> GetResult:
        return GetResult(frozenset(self.theset), self.history, self.epoch)


class SetchainServer:
    """One replica of the distributed implementation."""

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulation,
        keys: KeyStore,
        private_key: bytes,
        peers: tuple[ProcessId, ...],
        f: int,
        sbc: ConsensusService,
        agg: Optional[AggConfig] = None,
        sign_epochs: bool = False,
        state_observer: Optional[StateObserver] = None,
        on_broadcast=None,
    ):
        self.pid = pid
        self.keys = keys
        self._private = private_key
        self.f = f
        self.net = sim.register(pid, self.on_message)
        self.brb = BrbEngine(self.net, peers, f, self._deliver_broadcast,
                             on_broadcast=on_broadcast)
        self.sbc = sbc
        sbc.register(pid, self.on_set_deliver, correct=True)
        self.agg = agg  # None: broadcast each add on its own
        self.sign_epochs = sign_epochs
        self.state_observer = state_observer

        self.theset: set[Element] = set()
        self.history = History()
        self.prop: dict[int, frozenset[Element]] = {}
        self.tobroadcast: dict[Element, SimTime] = {}  # insertion = enqueue order
        self.pending_epochinc: set[int] = set()
        # Inserted but not yet stamped; always theset - history.union().
        self._unstamped: set[Element] = set()
        # encode_epoch of each stamped entry, in order; a get encodes only
        # the entries stamped since the last get (stamping never does).
        self._epoch_segments: list[bytes] = []
        self._flush_scheduled = False

    @property
    def epoch(self) -> int:
        return self.history.epoch

    # -- client-facing operations ------------------------------------------

    def get(self) -> GetResult:
        """Pure snapshot of (theset, history, epoch)."""
        return GetResult(frozenset(self.theset), self.history, self.epoch)

    def _get_state(self) -> bytes:
        """The encoded snapshot a get returns."""
        segments = self._epoch_segments
        for es in self.history.entries[len(segments):]:
            segments.append(encode_epoch(es))
        return encode_get_state(self.theset, segments)

    def add(self, e: Element) -> None:
        if not self.keys.valid(e):
            raise RequestRejected("invalid-element")
        if e in self.theset:
            raise RequestRejected("already-present")
        if self.agg is not None:
            self._enqueue(e)
        else:
            self.brb.broadcast(encode_madd((e,)))

    def epoch_inc(self, h: int) -> None:
        if h != self.epoch + 1:
            raise RequestRejected("stale-or-future-epoch")
        self.brb.broadcast(encode_mepochinc(h))

    # -- aggregation --------------------------------------------------------

    def _enqueue(self, e: Element) -> None:
        if e in self.tobroadcast:
            return
        self.tobroadcast[e] = self.net.now
        if len(self.tobroadcast) > self.agg.max_batch:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.net.after(self.agg.max_wait + 1, self._flush_timer)

    def _flush(self) -> None:
        if not self.tobroadcast:
            return
        batch = tuple(self.tobroadcast)
        self.tobroadcast.clear()
        self.brb.broadcast(encode_madd(batch))

    def _flush_timer(self) -> None:
        self._flush_scheduled = False
        if not self.tobroadcast:
            return
        oldest = next(iter(self.tobroadcast.values()))
        due = oldest + self.agg.max_wait + 1
        if self.net.now >= due:
            self._flush()
        else:
            self._flush_scheduled = True
            self.net.schedule(due, self._flush_timer)

    # -- network dispatch ---------------------------------------------------

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        tag = body[:1]
        if tag == b"B":
            self.brb.handle_frame(frm, body)
        elif tag == b"Q":
            self._handle_request(frm, body)
        # proposal notices (tag P) carry nothing a correct server acts on

    def _handle_request(self, frm: ProcessId, body: bytes) -> None:
        try:
            op, req_id, reqbody = decode_request(body)
        except FrameError:
            return
        status, respbody = STATUS_OK, b""
        try:
            if op == OP_ADD:
                self.add(decode_add_request_body(reqbody))
            elif op == OP_EPOCHINC:
                self.epoch_inc(decode_epochinc_body(reqbody))
            elif op == OP_GET:
                respbody = self._get_state()
        except RequestRejected as rej:
            status = RequestRejected.STATUS[rej.code]
        except FrameError:
            return
        self.net.send(frm, encode_response(op, req_id, status, respbody))

    # -- broadcast deliveries ----------------------------------------------

    def _deliver_broadcast(self, origin: ProcessId, payload: bytes) -> None:
        try:
            kind, value = decode_broadcast_message(payload)
        except FrameError:
            return
        if kind == "add":
            self._deliver_add(value)
        else:
            self._deliver_epochinc(value)

    def _deliver_add(self, batch: frozenset[Element]) -> None:
        self._unqueue(batch)
        fresh = self._valid_new(batch)
        if not fresh:
            return
        self.theset |= fresh
        self._unstamped |= fresh
        if self.state_observer is not None:
            self.state_observer(self.pid, "insert", tuple(sort_elements(fresh)))

    # Sets and dicts store each element's hash, and set algebra between them
    # (``set(a_dict)`` included) reuses the stored hashes, so it runs in C
    # without calling Element.__hash__.  Only ``_unqueue``'s deletions call
    # it, once for each element that was actually queued.

    def _valid_new(self, elements: frozenset[Element]) -> frozenset[Element]:
        """The valid elements of ``elements`` that are not in theset yet."""
        new = elements - self.theset
        valid = self.keys.valid
        invalid = [e for e in new if not valid(e)]
        return new.difference(invalid) if invalid else new

    def _unqueue(self, elements: frozenset[Element]) -> None:
        """Drops ``elements`` from the aggregation buffer."""
        tobroadcast = self.tobroadcast
        if tobroadcast:
            for e in elements & set(tobroadcast):
                del tobroadcast[e]

    def _deliver_epochinc(self, h: int) -> None:
        if h < self.epoch + 1:
            return  # stale duplicate
        if h > self.epoch + 1:
            self.pending_epochinc.add(h)  # replayed once this server catches up
            return
        if h in self.prop:
            return  # already proposed for this instance
        proposal = frozenset(self._unstamped)
        self.prop[h] = proposal
        self.sbc.propose(h, proposal, self.pid)

    # -- consensus deliveries ----------------------------------------------

    def on_set_deliver(self, h: int, propset: Propset) -> None:
        if h != self.epoch + 1:
            raise RuntimeError(
                f"consensus delivered epoch {h} to {self.pid!r} at epoch "
                f"{self.epoch}; the service must deliver in order")
        candidates = frozenset().union(*propset.values())
        # Stamp every valid candidate not stamped yet.  Elements of theset
        # are valid, and those not stamped are exactly the unstamped ones.
        inserted = self._valid_new(candidates)
        E = (candidates & self._unstamped) | inserted
        self.theset |= inserted
        self.history = self.history.stamp(h, E)
        self._unstamped -= E
        self.prop.pop(h, None)  # never read once h is stamped
        self._unqueue(E)
        if self.state_observer is not None:
            if inserted:
                self.state_observer(self.pid, "insert",
                                    tuple(sort_elements(inserted)))
            self.state_observer(self.pid, "stamp", (h, E))
        if self.sign_epochs:
            self._sign_epoch(h, E)
        self.pending_epochinc = {x for x in self.pending_epochinc if x > self.epoch}
        if self.epoch + 1 in self.pending_epochinc:
            self.pending_epochinc.discard(self.epoch + 1)
            self._deliver_epochinc(self.epoch + 1)

    def _sign_epoch(self, h: int, E: frozenset[Element]) -> None:
        payload = attestation_payload(h, hash_epoch(E))
        attestation = self.keys.make_element(payload, self.pid, self._private)
        try:
            self.add(attestation)
        except RequestRejected:
            pass  # duplicates are harmless


class EpochDriver:
    """Recurring harness component: asks ``f + 1`` servers to cut epochs."""

    def __init__(self, sim: Simulation, targets, period: int = DEFAULT_EPOCH_PERIOD):
        if period < 1:
            raise ValueError("period must be positive")
        self.sim = sim
        self.targets = tuple(targets)
        self.period = period
        self.stopped = False

    def start(self, at: SimTime = 0) -> None:
        self.sim.schedule(max(at, self.sim.now), self._tick)

    def stop(self) -> None:
        self.stopped = True

    def _tick(self) -> None:
        if self.stopped:
            return
        for server in self.targets:
            try:
                server.epoch_inc(server.epoch + 1)
            except RequestRejected:
                pass
        self.sim.schedule(self.sim.now + self.period, self._tick)
