"""Client-side protocols: the quorum client and the optimistic client.

Two correct-client strategies with opposite latency/traffic tradeoffs:

* :class:`QuorumClient` — writes go to ``f + 1`` distinct servers so at
  least one is correct, and mark one copy primary: a server broadcasts
  a primary copy at once or at its next flush, and holds a backup copy
  back (an unbatched server for ``backup_wait`` ticks, a batching one
  for one flush), since the primary holder is likely to broadcast it;
  reads contact ``3f + 1`` servers, wait for the first ``2f + 1``
  responses (at most ``GET_TIMEOUT`` ticks), and keep only what at least
  ``f + 1`` servers vouch for, so no lying minority can fabricate
  elements or history entries.
* :class:`OptimisticClient` — one add request, its primary copy, to a
  single server, a wait, then one read probe to a single server.  The
  probe is trusted only as far as its cryptographic evidence: the
  element must sit in an epoch whose recomputed digest is signed by
  ``f + 1`` distinct servers (:func:`~setchain.core.attesters` counts
  them, as for rewards).  Servers' attestations of epoch ``h`` are
  stamped with epoch ``h + 1``, so an element stamped in epoch ``h`` is
  confirmable once ``h + 1`` is decided.  Fewer messages (a backup copy
  whose primary's broadcast arrives late, as under load, costs a
  quadratic broadcast of its own, so redundant quorum writes can be
  expensive), but higher latency, and an "unconfirmed" signal after
  ``RETRIES`` attempts — the cue to fall back to the quorum client.  The
  wait before each probe (``WAIT_FACTOR`` epoch periods, times
  ``BACKOFF`` per retry) and the probe's ``PROBE_TIMEOUT`` are class
  constants; only ``epoch_period`` is set per client.

Both clients keep, for each server, the epoch sets of that server's last
get reply (its prior), and each get request says how many they hold.
Stamped epochs never change, so a correct server replies with a ``base``:
the reader's epoch count when that is no more than the server's epoch, else
0.  The reply carries only the epochs after ``base`` and the set's
unstamped rest; the client reuses its prior's first ``base`` sets, decodes
the rest, and rejects a ``base`` beyond its prior or the reply's epoch
(:func:`~setchain.wire.decode_get_state_after`).  A quorum read drops its
per-server snapshots once it has combined them, so a finished
:class:`GetCall` holds only its result.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .core import (
    Digest,
    Element,
    GetResult,
    History,
    KeyStore,
    ProcessId,
    attesters,
    encode_element_set,
    hash_epoch,
)
from .server import DEFAULT_EPOCH_PERIOD
from .simnet import Simulation
from .wire import (
    OP_ADD,
    OP_EPOCHINC,
    OP_GET,
    STATUS_OK,
    FrameError,
    GetPrior,
    decode_get_state,  # unused here, but perfbench/tracing.py patches it by name
    decode_get_state_after,
    decode_response,
    encode_add_request_body,
    encode_epochinc_body,
    encode_get_request_body,
    encode_request,
)


class ClientError(Exception):
    """A client operation that could not complete; ``code`` names why."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def _get_request(priors, server: ProcessId, rid: int) -> bytes:
    """A get request that tells ``server`` how many of its epochs we hold."""
    have = len(priors.get(server, ()))
    return encode_request(OP_GET, rid, encode_get_request_body(have))


# ---------------------------------------------------------------------------
# Quorum reads: combining single-server snapshots by voting
# ---------------------------------------------------------------------------


def combine_get_responses(
    responses: Mapping[ProcessId, GetResult], f: int
) -> GetResult:
    """Fold per-server snapshots into one view no lying minority controls.

    Needs at least ``2f + 1`` responses.  ``theset`` holds the elements
    reported by at least ``f + 1`` servers.  The history is rebuilt epoch
    by epoch while some entry is reported identically by at least ``f + 1``
    of the remaining servers; servers that disagree with the agreed
    entry, or whose view stops at the current epoch, drop out of the
    later rounds.  Every history element is merged into ``theset`` so the
    usual containment (history within theset) holds even when a stamped
    element fell short of ``f + 1`` theset votes in the sample.
    """
    if len(responses) < 2 * f + 1:
        raise ClientError("insufficient-responses")
    need = f + 1

    votes: Counter[Element] = Counter()
    for r in responses.values():
        votes.update(r.theset)
    theset = {e for e, v in votes.items() if v >= need}

    def entry(r: GetResult, i: int) -> Optional[frozenset[Element]]:
        return r.history.get(i) if i <= r.history.epoch else None

    epochs: list[frozenset[Element]] = []  # the agreed entries, in order
    i = 1
    remaining = {s for s, r in responses.items() if r.epoch >= i}
    while True:
        tally: Counter[frozenset[Element]] = Counter(
            es
            for es in (entry(responses[s], i) for s in remaining)
            if es is not None
        )
        agreed = [es for es, v in tally.items() if v >= need]
        if not agreed:
            break
        # With exactly 2f+1 responses at most one entry can reach f+1
        # votes; larger samples pick the best-supported one (canonical
        # bytes break exact ties) so the result stays deterministic.
        if len(agreed) == 1:
            best = agreed[0]
        else:
            best = min(agreed, key=lambda es: (-tally[es], encode_element_set(es)))
        epochs.append(best)
        remaining = {s for s in remaining if entry(responses[s], i) == best}
        remaining -= {s for s in remaining if responses[s].epoch == i}
        i += 1

    history = History(tuple(epochs))
    theset |= history.union()
    return GetResult(frozenset(theset), history, history.epoch)


QuorumGetResult = GetResult  # for callers that build a combined read by this name


@dataclass
class GetCall:
    """An in-flight quorum read, filled in as responses arrive."""

    contacted: tuple[ProcessId, ...]
    on_done: Optional[Callable[["GetCall"], None]] = None
    req_ids: dict[int, ProcessId] = field(default_factory=dict)
    responses: dict[ProcessId, GetResult] = field(default_factory=dict)
    result: Optional[GetResult] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    def _finish(self) -> None:
        if self.on_done is not None:
            self.on_done(self)


class QuorumClient:
    """Writes to ``f + 1`` servers, voted reads across ``3f + 1``.

    Writes are fire-and-forget: contacting ``f + 1`` distinct servers
    already guarantees one correct server carries the operation out, so
    there is nothing to wait for.  Reads are stateful and one at a time.
    Server selection rotates deterministically with the client id and an
    attempt counter, so repeated calls spread over all servers.
    """

    GET_TIMEOUT = 1_000  # ticks a read waits for 2f + 1 responses

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulation,
        servers: tuple[ProcessId, ...],
        f: int,
    ):
        if len(set(servers)) != len(servers):
            raise ValueError("duplicate server ids")
        if len(servers) < 3 * f + 1:
            raise ValueError("need at least 3f+1 servers")
        self.pid = pid
        self.f = f
        self.servers = tuple(servers)
        self.net = sim.register(pid, self.on_message)
        self._attempt = 0
        self._req_ids = itertools.count(1)
        self._call: Optional[GetCall] = None
        self._priors: dict[ProcessId, GetPrior] = {}  # last reply per server

    def _rotation(self, k: int) -> tuple[ProcessId, ...]:
        n = len(self.servers)
        start = (self.pid.id + self._attempt) % n
        self._attempt += 1
        return tuple(self.servers[(start + j) % n] for j in range(k))

    # -- writes --------------------------------------------------------------

    def add(self, e: Element) -> tuple[ProcessId, ...]:
        """Send the element to ``f + 1`` distinct servers, the first of them
        as its primary; returns them."""
        contacted = self._rotation(self.f + 1)
        for j, s in enumerate(contacted):
            body = encode_add_request_body(e, j == 0)
            self.net.send(s, encode_request(OP_ADD, next(self._req_ids), body))
        return contacted

    def epoch_inc(self, h: int) -> tuple[ProcessId, ...]:
        """Ask ``f + 1`` distinct servers to start epoch ``h``."""
        contacted = self._rotation(self.f + 1)
        body = encode_epochinc_body(h)
        for s in contacted:
            self.net.send(s, encode_request(OP_EPOCHINC, next(self._req_ids), body))
        return contacted

    # -- reads ---------------------------------------------------------------

    def get(self, on_done: Optional[Callable[[GetCall], None]] = None) -> GetCall:
        """Start a voted read; the returned call completes as the sim runs.

        The call ends with ``result`` set once ``2f + 1`` well-formed
        responses arrived, or with ``error = "insufficient-responses"``
        after the timeout (callers retry).
        """
        if self._call is not None and not self._call.done:
            raise ClientError("read-already-in-flight")
        call = GetCall(contacted=self._rotation(3 * self.f + 1), on_done=on_done)
        self._call = call
        for s in call.contacted:
            rid = next(self._req_ids)
            call.req_ids[rid] = s
            self.net.send(s, _get_request(self._priors, s, rid))
        self.net.after(self.GET_TIMEOUT, self._expire, call)
        return call

    def _expire(self, call: GetCall) -> None:
        if not call.done:
            call.error = "insufficient-responses"
            call._finish()

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        call = self._call
        if call is None or call.done:
            return
        try:
            op, rid, status, respbody = decode_response(body)
        except FrameError:
            return
        if op != OP_GET or status != STATUS_OK:
            return
        if call.req_ids.get(rid) != frm or frm in call.responses:
            return
        try:
            theset, epochs, epoch = decode_get_state_after(
                respbody, self._priors.get(frm, ()))
        except FrameError:
            return
        self._priors[frm] = epochs
        call.responses[frm] = GetResult(theset, History(epochs), epoch)
        if len(call.responses) >= 2 * self.f + 1:
            call.result = combine_get_responses(call.responses, self.f)
            call.responses.clear()  # a finished call keeps only its result
            call._finish()


# ---------------------------------------------------------------------------
# Optimistic confirmation through signed epoch hashes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Confirmation:
    """Evidence summary that ``element`` was stamped: the epoch, the
    epoch set's digest as recomputed by the client, and the ``f + 1`` or
    more servers whose signed hashes matched it."""

    element: Element
    epoch: int
    digest: Digest
    signers: frozenset[ProcessId]


def confirm_from_snapshot(
    element: Element,
    theset: frozenset[Element],
    epoch_sets: tuple[frozenset[Element], ...],
    keys: KeyStore,
    f: int,
) -> Optional[Confirmation]:
    """Check a single (possibly lying) server's read for hard evidence.

    The snapshot alone proves nothing; what counts is an epoch entry
    containing ``element`` whose recomputed digest is signed by at least
    ``f + 1`` distinct servers — then at least one correct server stamped
    exactly that entry.  Signatures are looked for anywhere in the
    response, and only ones that verify count
    (:func:`~setchain.core.attesters`).
    """
    for i, entry in enumerate(epoch_sets, start=1):
        if element not in entry:
            continue
        digest = hash_epoch(entry)
        signers = attesters(itertools.chain(theset, *epoch_sets), i, digest, keys)
        if len(signers) > f:
            return Confirmation(element, i, digest, signers)
    return None


@dataclass
class ConfirmCall:
    """An in-flight optimistic add: attempts so far and the outcome."""

    element: Element
    on_done: Optional[Callable[["ConfirmCall"], None]] = None
    attempts: int = 0
    servers_tried: tuple[ProcessId, ...] = ()
    confirmation: Optional[Confirmation] = None
    error: Optional[str] = None
    _probe_rid: Optional[int] = None
    _probe_server: Optional[ProcessId] = None

    @property
    def done(self) -> bool:
        return self.confirmation is not None or self.error is not None

    def _finish(self) -> None:
        if self.on_done is not None:
            self.on_done(self)


class OptimisticClient:
    """Single-server adds confirmed through signed epoch hashes.

    Each attempt sends one add request to one server, waits a few epoch
    periods (an element stamped in epoch ``h`` is confirmable once epoch
    ``h + 1``, which stamps its attestations, is decided), and reads back
    from that same server.  A read that shows the element in an epoch
    vouched for by ``f + 1`` distinct signers settles the call; anything
    else (no response, garbage, too few signatures) burns the attempt and
    the next one rotates to another server with a doubled wait.  After
    ``RETRIES`` attempts the call ends with ``error = "unconfirmed"`` —
    the chosen servers may be Byzantine, and callers should fall back to
    :class:`QuorumClient`.
    """

    WAIT_FACTOR = 3  # epoch periods the first attempt waits before its probe
    BACKOFF = 2  # each later attempt waits this many times longer
    RETRIES = 5  # attempts before the call ends "unconfirmed"
    PROBE_TIMEOUT = 1_000  # ticks a probe waits for its response

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulation,
        keys: KeyStore,
        servers: tuple[ProcessId, ...],
        f: int,
        epoch_period: int = DEFAULT_EPOCH_PERIOD,
    ):
        if not servers:
            raise ValueError("need at least one server")
        self.pid = pid
        self.keys = keys
        self.f = f
        self.servers = tuple(servers)
        self.epoch_period = epoch_period
        self.net = sim.register(pid, self.on_message)
        self._rotation = 0
        self._req_ids = itertools.count(1)
        self._call: Optional[ConfirmCall] = None
        self._priors: dict[ProcessId, GetPrior] = {}  # last reply per server

    def _pick(self) -> ProcessId:
        server = self.servers[(self.pid.id + self._rotation) % len(self.servers)]
        self._rotation += 1
        return server

    def add_and_confirm(
        self,
        e: Element,
        target: Optional[ProcessId] = None,
        on_done: Optional[Callable[[ConfirmCall], None]] = None,
    ) -> ConfirmCall:
        """Start the add/probe loop; first attempt goes to ``target`` (or
        the next rotation pick), retries rotate across the others."""
        if self._call is not None and not self._call.done:
            raise ClientError("confirmation-already-in-flight")
        call = ConfirmCall(element=e, on_done=on_done)
        self._call = call
        self._attempt(call, target)
        return call

    def _attempt(self, call: ConfirmCall, target: Optional[ProcessId] = None) -> None:
        server = target if target is not None else self._pick()
        call.attempts += 1
        call.servers_tried += (server,)
        body = encode_add_request_body(call.element, True)  # the only copy
        self.net.send(server, encode_request(OP_ADD, next(self._req_ids), body))
        wait = self.WAIT_FACTOR * self.epoch_period
        wait *= self.BACKOFF ** (call.attempts - 1)
        self.net.after(wait, self._probe, call, server)

    def _probe(self, call: ConfirmCall, server: ProcessId) -> None:
        if call.done:
            return
        rid = next(self._req_ids)
        call._probe_rid = rid
        call._probe_server = server
        self.net.send(server, _get_request(self._priors, server, rid))
        self.net.after(self.PROBE_TIMEOUT, self._probe_expired, call, rid)

    def _probe_expired(self, call: ConfirmCall, rid: int) -> None:
        if call.done or call._probe_rid != rid:
            return
        self._next_attempt(call)

    def _next_attempt(self, call: ConfirmCall) -> None:
        call._probe_rid = None
        if call.attempts >= self.RETRIES:
            call.error = "unconfirmed"
            call._finish()
        else:
            self._attempt(call)

    def on_message(self, frm: ProcessId, body: bytes) -> None:
        call = self._call
        if call is None or call.done or call._probe_rid is None:
            return
        try:
            op, rid, status, respbody = decode_response(body)
        except FrameError:
            return
        if rid != call._probe_rid or frm != call._probe_server:
            return
        confirmation = None
        if op == OP_GET and status == STATUS_OK:
            try:
                theset, epochs, _ = decode_get_state_after(
                    respbody, self._priors.get(frm, ()))
            except FrameError:
                pass
            else:
                self._priors[frm] = epochs
                confirmation = confirm_from_snapshot(
                    call.element, theset, epochs, self.keys, self.f
                )
        if confirmation is not None:
            call.confirmation = confirmation
            call._finish()
        else:
            self._next_attempt(call)
