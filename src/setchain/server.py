"""Replicated grow-only-set servers with epoch stamping.

``CentralSetchain`` is the sequential reference: one process, synchronous
inserts, epochs cut on demand.  ``SetchainServer`` is the distributed
state machine: adds fan out through reliable broadcast, epoch changes are
announced through reliable broadcast and resolved through the consensus
service, and each decided epoch stamps the decided-but-unstamped valid
elements.  An add batch is broadcast under its server's origin.  The
``f + 1`` servers asked for epoch ``h`` all send the same
``mepochinc(h)``, so they announce it under the shared origin
(``BrbEngine.announce``): each server relays its first copy once and
delivers it, in one hop, however many servers announce it.  Optional
behaviours:
batching adds into one broadcast (aggregation, when given an
``AggConfig``) and signing each stamped epoch's digest back into the set
so light clients can check membership proofs (``_attest``, which the
forging adversary shares).  A ``state_observer`` sees each insert and
stamp, and each add batch before its INIT leaves.

An attestation is an element the server makes itself.  It is signed, so
it needs no broadcast to be trusted, and consensus decides which epoch
stamps it.  So the server queues it as a primary copy, and its next
proposal names it by value: the attestation of epoch ``h`` is stamped
at decision ``h + 1``, or, if that proposal misses its deadline, at a
later cut, since every proposal names it until it is stamped.  An
unbatched server broadcasts only the backup copies it queues, never an
attestation; a batching server's flush may also carry it.  The price is
one epoch: an epoch's attestations are visible once the next epoch is
decided.

A proposal (``wire.Proposal``) names delivered batches by digest (as in
Hashchain, Capretto et al., 2022) and queued adds by value.  A server
keeps each delivered add batch that still holds an unstamped element,
keyed by the sha256 of its broadcast payload, and proposes those digests;
it also proposes its queued adds by value (a batching server's buffer,
an unbatched server's held backup copies and attestations; all but the
backup copies queued since its previous proposal, see below), so that
the adds queued when an epoch is cut are stamped in that epoch rather
than after the next flush or broadcast.  A decided epoch stamps:

* the batches of the digests that at least ``f + 1`` proposers name.  One
  of them is correct, so it delivered the batch, and reliable broadcast
  brings the batch to every correct server.  A digest named fewer times
  is ignored; its elements stay open and are proposed again;
* every valid element named by value.  A correct proposer names only
  adds a client asked it for and its own attestations; a Byzantine one
  may name any valid element, which is no more than a client could add.

Every correct server applies these rules to the same decision at the same
history, so all of them stamp the same entry.  A server that has not yet
delivered a batch the decision needs holds that decision, and every later
one, until the batch arrives, and then stamps them in order.  A batch is
dropped when its last element is stamped, so at quiescence none is kept.

The adds a proposal names stay queued.  A flush at ``max_batch`` leaves
them out until the decision of that instance is stamped: the decision
stamps them, or, if the proposal missed its deadline, they go out in a
later flush or are proposed again at the next cut.

A client sends each add to ``f + 1`` servers and marks one copy primary
and the others backup (the primary/backup client requests of PBFT,
Castro & Liskov, 1999).  The primary holder is likely to broadcast the add
or name it in its next proposal, and that batch, once delivered, or that
decision, once stamped, removes the backup copies from their queues.  So
a backup copy waits:

* an unbatched server broadcasts a primary copy at once and queues a
  backup copy for ``backup_wait`` ticks, four times the network's
  ``latency_max``: the synchronous bound on the primary's broadcast
  reaching it (client to primary, INIT, ECHO quorum, READY quorum), as a
  PBFT backup waits a timeout for its primary.  A copy still queued then
  is broadcast on its own;
* a batching server's flush at ``max_batch`` leaves out each backup copy
  queued since the last flush;
* a proposal leaves out each backup copy queued since the server's
  previous proposal.

In the normal case one copy of each add crosses the network, alone or in
a batch, or one proposal names it by value, not one per holder.  When
busy receivers (``proc_cost``) hold the primary's broadcast past the
wait, every unbatched holder broadcasts its copy, as if it had not
waited.  Four rules keep a Byzantine or silent primary from trapping an
add:

* an unbatched server broadcasts a backup copy once its wait is over;
* a backup copy is left out of at most one threshold flush: the next one
  sends it;
* a backup copy is left out of at most one proposal: every later
  proposal of its holder names it, so it is named from its second cut;
* the ``max_wait`` timer flush sends the whole buffer, and the timer is
  pending exactly while the buffer is not empty.

So a Byzantine or silent primary delays an add by at most one cut (or
one flush, or ``backup_wait``, if that comes first), and never until
``max_wait``.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from dataclasses import dataclass
from typing import AbstractSet, Callable, Optional

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
from .simnet import SimTime, Simulation, Timer
from .wire import (
    OP_ADD,
    OP_EPOCHINC,
    OP_GET,
    STATUS_ALREADY_PRESENT,
    STATUS_INVALID_ELEMENT,
    STATUS_OK,
    STATUS_STALE_OR_FUTURE_EPOCH,
    FrameError,
    Proposal,
    decode_add_request_body,
    decode_broadcast_message,
    decode_epochinc_body,
    decode_get_request_body,
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
    """Add-batching thresholds: flush when more than ``max_batch`` adds have
    entered the buffer since it was last flushed or empty, or when its
    oldest entry is older than ``max_wait`` ticks.

    Adds that a peer's delivered batch removes from the buffer still count
    toward ``max_batch``, so a peer's batch that carries some of them does
    not put the flush off: under steady load a server flushes every
    ``max_batch + 1`` adds it queues, however soon peers' batches reach it.

    A flush at ``max_batch`` leaves out the backup copies queued since the
    last flush and the adds the server's pending proposal names by value;
    they stay in the buffer and no longer count toward the next
    ``max_batch``.  A flush at ``max_wait`` sends the whole buffer.  Each
    cut's proposal names by value every queued primary copy and every
    backup copy queued before the server's previous proposal; so a backup
    copy waits at most one flush and one cut for a Byzantine or silent
    primary, and never ``max_wait``."""

    max_batch: int
    max_wait: int

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.max_wait < 1:
            raise ValueError("aggregation thresholds must be positive")


AGG_DESK = AggConfig(max_batch=1000, max_wait=5_000_000)  # desk-scale default

# Observer events: ("insert", elements) on set growth, ("stamp", (h, E)) on
# epochs, ("broadcast", payload) for each add batch before its INIT leaves.
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
    ):
        self.pid = pid
        self.keys = keys
        self._private = private_key
        self.f = f
        self.net = sim.register(pid, self.on_message)
        self.brb = BrbEngine(self.net, peers, f, self._deliver_broadcast)
        self.sbc = sbc
        sbc.register(pid, self._queue_decision)
        self.agg = agg  # None: broadcast each add on its own
        # How long an unbatched server holds a backup copy: the primary's
        # broadcast reaches it within four hops (client to primary, INIT,
        # ECHO quorum, READY quorum) on a network that is on time.
        self.backup_wait = 4 * sim.config.latency_max
        self.sign_epochs = sign_epochs
        self.state_observer = state_observer

        self.theset: set[Element] = set()
        self.history = History()
        self._proposed = 0  # the last instance this server proposed to
        # Queued adds, in enqueue order; an unbatched server queues only
        # backup copies and its attestations.
        self.tobroadcast: dict[Element, SimTime] = {}
        self.pending_epochinc: set[int] = set()
        # Inserted but not yet stamped; always theset - history.union().
        self._unstamped: set[Element] = set()
        # Payload digest -> the unstamped elements of that delivered add
        # batch, for each batch that has one; their union is _unstamped.
        self.open_batches: dict[bytes, frozenset[Element]] = {}
        # Decisions not stamped yet, in order: the first one waits for a
        # batch that it certifies and this server has not delivered.
        self._held: deque[tuple[int, Propset]] = deque()
        # The max_wait timer: pending exactly while the buffer is non-empty,
        # so it is cancelled when the buffer empties.
        self.wait_timer: Optional[Timer] = None
        self._queued = 0  # adds queued since the last flush or empty buffer
        # Backup copies queued since the last flush: the next threshold
        # flush leaves them out, and the one after sends them.
        self._backups: set[Element] = set()
        # Backup copies queued since the last proposal: the next proposal
        # leaves them out, and the one after names them.
        self.fresh_backups: set[Element] = set()
        # The queued adds that the proposal for instance _proposed names by
        # value: threshold flushes leave them out until it is decided.
        self._proposed_adds: frozenset[Element] = frozenset()

    @property
    def epoch(self) -> int:
        return self.history.epoch

    # -- client-facing operations ------------------------------------------

    def get(self) -> GetResult:
        """Pure snapshot of (theset, history, epoch)."""
        return GetResult(frozenset(self.theset), self.history, self.epoch)

    def _get_state(self, have: int) -> bytes:
        """The encoded snapshot a get returns to a reader that holds
        ``have`` of this server's epochs: the epochs after them, if it
        holds no more than exist, else all of them; and the unstamped rest.
        Only those epochs are encoded."""
        base = have if have <= self.epoch else 0
        segments = [encode_epoch(es) for es in self.history.entries[base:]]
        return encode_get_state(self._unstamped, segments, base)

    def add(self, e: Element, primary: bool = True) -> None:
        """Accepts ``e``; ``primary`` is false for a client's backup copy,
        which a batching server may leave out of one threshold flush and
        an unbatched server holds for ``backup_wait`` ticks."""
        if not self.keys.valid(e):
            raise RequestRejected("invalid-element")
        if e in self.theset:
            raise RequestRejected("already-present")
        if self.agg is None and primary:
            self._broadcast_adds((e,))
        else:
            self._enqueue(e, primary)

    def epoch_inc(self, h: int) -> None:
        """Announces ``mepochinc(h)``: the ``f + 1`` servers asked for
        epoch ``h`` announce the same payload, which each server relays and
        delivers once."""
        if h != self.epoch + 1:
            raise RequestRejected("stale-or-future-epoch")
        self.brb.announce(encode_mepochinc(h))

    # -- aggregation --------------------------------------------------------

    def _enqueue(self, e: Element, primary: bool) -> None:
        if e in self.tobroadcast:
            return
        self.tobroadcast[e] = self.net.now
        if self.agg is None:  # a backup copy, or an attestation
            if not primary:
                self.fresh_backups.add(e)
                self.net.after(self.backup_wait, self._backup_due, e)
            return
        if not primary:
            self._backups.add(e)
            self.fresh_backups.add(e)
        self._queued += 1
        if self._queued > self.agg.max_batch:
            self._flush(self._backups.union(self._proposed_adds))
        elif self.wait_timer is None:
            self.wait_timer = self.net.after(self.agg.max_wait + 1, self._flush_timer)

    def _backup_due(self, e: Element) -> None:
        """An unbatched server's backup copy has waited ``backup_wait``
        ticks: broadcasts it, unless a delivered batch or a stamped
        decision has taken it out of the queue."""
        tobroadcast = self.tobroadcast
        if e in tobroadcast:
            del tobroadcast[e]
            if not tobroadcast:
                self._emptied()
            self._broadcast_adds((e,))

    def _flush(self, leave_out: AbstractSet[Element] = frozenset()) -> None:
        """Broadcasts the queued adds but ``leave_out``, which stay queued
        until a batch or a decision takes them out or a later flush sends
        them."""
        tobroadcast = self.tobroadcast
        batch = [e for e in tobroadcast if e not in leave_out]
        for e in batch:
            del tobroadcast[e]
        self._queued = 0
        self._backups = set()
        if not tobroadcast:
            self._emptied()
        if batch:
            self._broadcast_adds(batch)

    def _broadcast_adds(self, batch) -> None:
        """Shows an add batch to the state observer, then broadcasts it."""
        payload = encode_madd(batch)
        if self.state_observer is not None:
            self.state_observer(self.pid, "broadcast", payload)
        self.brb.broadcast(payload)

    def _flush_timer(self) -> None:
        """The max_wait timer is due; the buffer is not empty, since
        emptying it cancels the timer."""
        self.wait_timer = None
        oldest = next(iter(self.tobroadcast.values()))
        due = oldest + self.agg.max_wait + 1
        if self.net.now >= due:
            self._flush()
        else:
            self.wait_timer = self.net.schedule(due, self._flush_timer)

    def _emptied(self) -> None:
        """Starts the books of a buffer that has emptied afresh and cancels
        its max_wait timer."""
        self._queued = 0
        self._backups = set()
        self.fresh_backups = set()
        if self.wait_timer is not None:
            self.wait_timer.cancel()
            self.wait_timer = None

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
                self.add(*decode_add_request_body(reqbody))
            elif op == OP_EPOCHINC:
                self.epoch_inc(decode_epochinc_body(reqbody))
            elif op == OP_GET:
                respbody = self._get_state(decode_get_request_body(reqbody))
        except RequestRejected as rej:
            status = RequestRejected.STATUS[rej.code]
        except FrameError:
            return
        self.net.send(frm, encode_response(op, req_id, status, respbody))

    # -- broadcast deliveries ----------------------------------------------

    def _deliver_broadcast(self, origin: ProcessId, digest: bytes,
                           payload: bytes) -> None:
        try:
            kind, value = decode_broadcast_message(payload)
        except FrameError:
            return
        if kind == "add":
            self._deliver_add(digest, value)
        else:
            self._deliver_epochinc(value)

    def _deliver_add(self, digest: bytes, batch: frozenset[Element]) -> None:
        self._unqueue(batch)
        fresh = self._valid_new(batch)
        if fresh:
            self.theset |= fresh
            self._unstamped |= fresh
        if digest not in self.open_batches:  # else an equal payload came first
            rest = batch & self._unstamped
            if rest:
                self.open_batches[digest] = rest
        if fresh and self.state_observer is not None:
            self.state_observer(self.pid, "insert", tuple(sort_elements(fresh)))
        if self._held:
            self._release()

    # Sets and dicts store each element's hash, and set algebra between them
    # (``set(a_dict)`` included) reuses the stored hashes, so it runs in C
    # without calling Element.__hash__.  Only the deletions in ``_unqueue``
    # and ``_flush`` call it, once per deleted element.

    def _valid_new(self, elements: frozenset[Element]) -> frozenset[Element]:
        """The valid elements of ``elements`` that are not in theset yet."""
        new = elements - self.theset
        valid = self.keys.valid
        invalid = [e for e in new if not valid(e)]
        return new.difference(invalid) if invalid else new

    def _unqueue(self, elements: frozenset[Element]) -> None:
        """Drops ``elements`` from the queued adds."""
        tobroadcast = self.tobroadcast
        if tobroadcast:
            for e in elements & set(tobroadcast):
                del tobroadcast[e]
            if not tobroadcast:
                self._emptied()

    def _deliver_epochinc(self, h: int) -> None:
        if h < self.epoch + 1:
            return  # stale duplicate
        if h > self.epoch + 1:
            self.pending_epochinc.add(h)  # replayed once this server catches up
            return
        if h == self._proposed:
            return  # already proposed for this instance
        self._proposed = h
        self._proposed_adds = frozenset(self.tobroadcast).difference(
            self.fresh_backups)
        self.sbc.propose(h, Proposal(frozenset(self.open_batches),
                                     self._proposed_adds), self.pid)
        self.fresh_backups = set()

    # -- consensus deliveries ----------------------------------------------

    def _queue_decision(self, h: int, propset: Propset) -> None:
        """The consensus service's set-deliver callback: stamps decision
        ``h`` now, or holds it behind the decisions already held."""
        self._held.append((h, propset))
        self._release()

    def _release(self) -> None:
        """Stamps the held decisions in order, up to the first one that
        certifies a batch this server has not delivered."""
        held, open_batches = self._held, self.open_batches
        while held and all(d in open_batches for d in self._certified(held[0][1])):
            self.on_set_deliver(*held.popleft())

    def _certified(self, propset: Propset) -> list[bytes]:
        """The digests that at least ``f + 1`` proposers of ``propset`` name."""
        counts = Counter(chain.from_iterable(p.digests for p in propset.values()))
        return [d for d, count in counts.items() if count > self.f]

    def on_set_deliver(self, h: int, propset: Propset) -> None:
        """Stamps decision ``h``; this server holds every batch it certifies."""
        if h != self.epoch + 1:
            raise RuntimeError(
                f"consensus delivered epoch {h} to {self.pid!r} at epoch "
                f"{self.epoch}; the service must deliver in order")
        by_value = frozenset().union(*(p.elements for p in propset.values()))
        try:
            batches = [self.open_batches[d] for d in self._certified(propset)]
        except KeyError:
            raise RuntimeError(
                f"epoch {h} certifies a batch that {self.pid!r} has not "
                "delivered; the decision must be held until it is") from None
        # Stamp every valid element named by value that is not stamped yet,
        # and the open elements of each certified batch.  Elements of theset
        # are valid, and those not stamped are exactly the unstamped ones.
        inserted = self._valid_new(by_value)
        E = (by_value & self._unstamped).union(inserted, *batches)
        self.theset |= inserted
        self.history = self.history.stamp(h, E)
        self._unstamped -= E
        self._close(E)
        self._unqueue(E)
        self._proposed_adds = frozenset()  # they were proposed for instance h
        if self.state_observer is not None:
            if inserted:
                self.state_observer(self.pid, "insert",
                                    tuple(sort_elements(inserted)))
            self.state_observer(self.pid, "stamp", (h, E))
        if self.sign_epochs:
            self._sign_epoch(h, E)
        if self.epoch + 1 in self.pending_epochinc:
            self.pending_epochinc.discard(self.epoch + 1)
            self._deliver_epochinc(self.epoch + 1)

    def _close(self, stamped: frozenset[Element]) -> None:
        """Removes ``stamped`` from the open batches, dropping each batch
        that has no element left."""
        open_batches = self.open_batches
        for d, rest in list(open_batches.items()):
            if not rest.isdisjoint(stamped):
                rest -= stamped
                if rest:
                    open_batches[d] = rest
                else:
                    del open_batches[d]

    def _sign_epoch(self, h: int, E: frozenset[Element]) -> None:
        self._attest(h, hash_epoch(E))

    def _attest(self, h: int, digest: bytes) -> None:
        """Signs that epoch ``h`` has ``digest`` and queues it as a primary
        copy, so that each of this server's proposals names it by value
        until it is stamped.  A batching server's flush may broadcast it
        as well; an unbatched server never does."""
        self._enqueue(self.keys.make_element(attestation_payload(h, digest),
                                             self.pid, self._private), True)


class EpochDriver:
    """Recurring harness component: asks ``f + 1`` servers to cut epochs."""

    def __init__(self, sim: Simulation, targets, period: int = DEFAULT_EPOCH_PERIOD):
        if period < 1:
            raise ValueError("period must be positive")
        self.sim = sim
        self.targets = tuple(targets)
        self.period = period
        self._timer: Optional[Timer] = None  # the pending tick

    def start(self, at: SimTime = 0) -> None:
        self._timer = self.sim.schedule(max(at, self.sim.now), self._tick)

    def stop(self) -> None:
        """Cancels the pending tick, so a stopped driver leaves no event."""
        if self._timer is not None:
            self._timer.cancel()

    def cut(self) -> None:
        """Asks each target for the epoch after its own."""
        for server in self.targets:
            server.epoch_inc(server.epoch + 1)

    def _tick(self) -> None:
        self.cut()
        self._timer = self.sim.schedule(self.sim.now + self.period, self._tick)
