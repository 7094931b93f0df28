"""Deterministic discrete-event simulated network.

Time is a non-negative integer tick count (one tick is a logical
microsecond; ``TICKS_PER_SECOND`` converts).  All randomness comes from a
single seeded RNG, and simultaneous deliveries are ordered by a global
monotone sequence number, so a run is a pure function of the seed and the
scripted inputs.

Channels are reliable and authenticated: every sent message is delivered
exactly once, unmodified, and the receiver learns the true sender (each
process sends through its own :class:`NetHandle`, so the source field
cannot be spoofed).  Before ``gst`` delivery delays are drawn uniformly
from ``[latency_min, latency_max]``; from ``gst`` on they are additionally
clamped to ``post_gst_bound``.

With ``proc_cost > 0`` a receiver is busy for ``proc_cost`` ticks after each
delivery.  A message that arrives while its receiver is busy waits in that
receiver's inbox; when the receiver becomes free it takes the lowest-seq
(earliest-sent) message that has arrived.

The simulator hands every receiver the very bytes that were sent and
decodes nothing itself.  Frames that many receivers get as equal bytes are
decoded once per cluster by the memoised decoders in ``wire``.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .core import ProcessId

SimTime = int
TICKS_PER_SECOND = 1_000_000

_ENVELOPE = 0
_TIMER = 1
_WAKE = 2  # a busy receiver's turn to take its lowest-seq waiting message


class SimError(Exception):
    """Harness-level misuse of the network (unknown ids, bad times)."""


@dataclass(frozen=True)
class NetConfig:
    """Latency model and seed for one simulated network."""

    latency_min: int = 1
    latency_max: int = 5
    gst: int = 0
    post_gst_bound: int = 10
    rng_seed: int = 0
    proc_cost: int = 0  # receiver busy-time per delivered message

    def __post_init__(self) -> None:
        if not 0 <= self.latency_min <= self.latency_max:
            raise ValueError("need 0 <= latency_min <= latency_max")
        if self.gst < 0 or self.post_gst_bound <= 0 or self.proc_cost < 0:
            raise ValueError("gst, post_gst_bound, proc_cost out of range")


@dataclass
class LogEntry:
    """One delivered message, recorded at its processing time."""

    t: SimTime
    src: ProcessId
    dst: ProcessId
    type: str
    size: int
    body: Optional[bytes] = None


class NetHandle:
    """A process's capability to use the network under its own identity."""

    def __init__(self, sim: "Simulation", pid: ProcessId):
        self._sim = sim
        self.pid = pid

    @property
    def now(self) -> SimTime:
        return self._sim.now

    def send(self, to: ProcessId, body: bytes) -> None:
        self._sim._send(self.pid, to, body)

    def schedule(self, at: SimTime, fn: Callable, *args) -> None:
        self._sim.schedule(at, fn, *args)

    def after(self, delay: SimTime, fn: Callable, *args) -> None:
        self.schedule(self._sim.now + delay, fn, *args)


def _default_classifier(body: bytes) -> str:
    return body[:1].hex() if body else "empty"


class Simulation:
    """The event loop: processes, envelopes, timers, and the delivery log."""

    def __init__(self, config: NetConfig, record_log: bool = True,
                 keep_bodies: bool = False):
        self.config = config
        self.rng = random.Random(config.rng_seed)
        # randint(lo, hi) is lo + _randbelow(hi - lo + 1): the same stream
        # of draws, without randint's and randrange's call overhead.
        self._randbelow = self.rng._randbelow
        self._latency_span = config.latency_max - config.latency_min + 1
        self.now: SimTime = 0
        self.log: list[LogEntry] = []
        self.record_log = record_log
        self.keep_bodies = keep_bodies
        self.counts: dict[str, int] = {}
        self.delivered_total = 0
        self.frame_classifier: Callable[[bytes], str] = _default_classifier
        self._heap: list = []
        self._seq = 0
        self._handlers: dict[ProcessId, Callable[[ProcessId, bytes], None]] = {}
        self._busy_until: dict[ProcessId, SimTime] = {}
        # Messages that reached a busy receiver, as a heap of (seq, src, body).
        # A receiver with a non-empty inbox has one live wake on the global
        # heap, keyed (busy_until, lowest inbox seq) and recorded in _armed;
        # any other wake for it is stale and is dropped when it pops.
        self._inbox: dict[ProcessId, list] = {}
        self._armed: dict[ProcessId, Optional[tuple[SimTime, int]]] = {}

    # -- membership ---------------------------------------------------------

    def register(self, pid: ProcessId,
                 handler: Callable[[ProcessId, bytes], None]) -> NetHandle:
        if pid in self._handlers:
            raise SimError(f"duplicate registration for {pid!r}")
        if any(other.id == pid.id for other in self._handlers):
            raise SimError(f"process id {pid.id} already in use")
        self._handlers[pid] = handler
        self._busy_until[pid] = 0
        self._inbox[pid] = []
        self._armed[pid] = None
        return NetHandle(self, pid)

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        return tuple(self._handlers)

    # -- sending and timers -------------------------------------------------

    def _draw_delay(self) -> int:
        delay = self.config.latency_min + self._randbelow(self._latency_span)
        if self.now >= self.config.gst:
            delay = min(delay, self.config.post_gst_bound)
        return delay

    def _send(self, frm: ProcessId, to: ProcessId, body: bytes) -> None:
        if frm not in self._handlers or to not in self._handlers:
            raise SimError(f"send between unregistered processes {frm!r} -> {to!r}")
        self._seq += 1
        # An in-flight message: (deliver_at, seq, _ENVELOPE, src, dst, body).
        heapq.heappush(self._heap, (self.now + self._draw_delay(), self._seq,
                                    _ENVELOPE, frm, to, body))

    def send_as(self, frm: ProcessId, to: ProcessId, body: bytes) -> None:
        """Trusted-harness send on behalf of ``frm`` (used by built-in services)."""
        self._send(frm, to, body)

    def schedule(self, at: SimTime, fn: Callable, *args) -> None:
        if at < self.now:
            raise SimError(f"cannot schedule at {at} before now={self.now}")
        self._seq += 1
        # A timer: (at, seq, _TIMER, fn, args, None).
        heapq.heappush(self._heap, (at, self._seq, _TIMER, fn, args, None))

    # -- running ------------------------------------------------------------

    def run_until(self, t: SimTime) -> list[LogEntry]:
        """Process every event with time <= t (inclusive); advance now to t."""
        start = len(self.log)
        heap = self._heap
        proc_cost = self.config.proc_cost
        while heap and heap[0][0] <= t:
            entry = heapq.heappop(heap)
            when = entry[0]
            if entry[2] == _ENVELOPE:
                _, seq, _, src, dst, body = entry
                if proc_cost:  # with no busy time a receiver is never busy
                    busy = self._busy_until[dst]
                    if busy > when:
                        heapq.heappush(self._inbox[dst], (seq, src, body))
                        armed = self._armed[dst]
                        if armed is None or seq < armed[1]:
                            self._arm(dst, busy, seq)
                        continue
                self.now = max(self.now, when)
                if proc_cost:
                    self._busy_until[dst] = self.now + proc_cost
                self._deliver(src, dst, body)
            elif entry[2] == _TIMER:
                _, _, _, fn, args, _ = entry
                self.now = max(self.now, when)
                fn(*args)
            else:  # a wake: dst may take its lowest-seq waiting message
                _, seq, _, dst, _, _ = entry
                if self._armed[dst] != (when, seq):
                    continue  # superseded by a wake for a lower seq
                busy = self._busy_until[dst]
                if busy > when:  # an arrival at exactly `when` went first
                    self._arm(dst, busy, seq)
                    continue
                inbox = self._inbox[dst]
                _, src, body = heapq.heappop(inbox)
                self.now = max(self.now, when)
                busy = self._busy_until[dst] = self.now + proc_cost
                if inbox:
                    self._arm(dst, busy, inbox[0][0])
                else:
                    self._armed[dst] = None
                self._deliver(src, dst, body)
        self.now = max(self.now, t)
        return self.log[start:]

    def _arm(self, dst: ProcessId, at: SimTime, seq: int) -> None:
        """Make (at, seq) the one live wake of ``dst``'s inbox."""
        self._armed[dst] = (at, seq)
        heapq.heappush(self._heap, (at, seq, _WAKE, dst, None, None))

    def _deliver(self, src: ProcessId, dst: ProcessId, body: bytes) -> None:
        self.delivered_total += 1
        tag = self.frame_classifier(body)
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if self.record_log:
            self.log.append(LogEntry(self.now, src, dst, tag, len(body),
                                     body if self.keep_bodies else None))
        handler = self._handlers[dst]
        try:
            handler(src, body)
        except Exception as exc:
            raise SimError(
                f"handler for {dst!r} failed at t={self.now} on {tag} from "
                f"{src!r}: {exc}"
            ) from exc

    def run_to_quiescence(self, horizon: Optional[SimTime] = None) -> SimTime:
        """Run until no events remain (or ``horizon``); returns final now."""
        while self._heap:
            nxt = self._heap[0][0]
            if horizon is not None and nxt > horizon:
                break
            self.run_until(nxt)
        return self.now

    def pending_events(self) -> int:
        """Messages in flight or waiting in an inbox, plus pending timers."""
        on_heap = sum(1 for entry in self._heap if entry[2] != _WAKE)
        return on_heap + sum(len(inbox) for inbox in self._inbox.values())

    # -- export -------------------------------------------------------------

    def export_jsonl(self, fp) -> None:
        """The delivery log as JSON lines: {t, from, to, type, size}."""
        for entry in self.log:
            fp.write(json.dumps(
                {"t": entry.t, "from": entry.src.id, "to": entry.dst.id,
                 "type": entry.type, "size": entry.size},
                sort_keys=True) + "\n")
