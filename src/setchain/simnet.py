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

``Simulation.draw_delays`` is the one latency rule: it makes the draws of
``randint(latency_min, latency_max)`` and applies the clamp.  A multicast
(``NetHandle.multicast``) is n sends in receiver order: it takes the same
sequence numbers and the same delay draws as one send to each receiver in
turn, so it puts the very same envelopes on the heap, in one call.  A send
to a process that is not registered fails before anything is drawn or sent.

``schedule`` returns a :class:`Timer`; a cancelled timer stays on the heap
until it reaches the top, where it is dropped unrun, without moving
``now``.  ``pending_events`` and ``run_to_quiescence`` do not count it, so
a run whose only pending timers are cancelled ends at its last live event.

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


class Timer:
    """A scheduled call, due at ``at``; ``cancel`` keeps it from running."""

    __slots__ = ("at", "cancelled")

    def __init__(self, at: SimTime):
        self.at = at
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class LogEntry:
    """One delivered message, recorded at its processing time."""

    t: SimTime
    src: ProcessId
    dst: ProcessId
    type: str
    size: int
    body: bytes


class NetHandle:
    """A process's capability to use the network under its own identity."""

    def __init__(self, sim: "Simulation", pid: ProcessId):
        self._sim = sim
        self.pid = pid

    @property
    def now(self) -> SimTime:
        return self._sim.now

    def send(self, to: ProcessId, body: bytes) -> None:
        self._sim._multicast(self.pid, (to,), body)

    def multicast(self, tos: tuple[ProcessId, ...], body: bytes) -> None:
        """Send ``body`` to each of ``tos``, in that order."""
        self._sim._multicast(self.pid, tos, body)

    def schedule(self, at: SimTime, fn: Callable, *args) -> Timer:
        return self._sim.schedule(at, fn, *args)

    def after(self, delay: SimTime, fn: Callable, *args) -> Timer:
        return self.schedule(self._sim.now + delay, fn, *args)


def _default_classifier(body: bytes) -> str:
    return body[:1].hex() if body else "empty"


class Simulation:
    """The event loop: processes, envelopes, timers, and the delivery log."""

    def __init__(self, config: NetConfig, record_log: bool = True):
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self._latency_span = config.latency_max - config.latency_min + 1
        self._latency_bits = self._latency_span.bit_length()
        self._latency_max_after_gst = min(config.latency_max, config.post_gst_bound)
        self.now: SimTime = 0
        self.log: list[LogEntry] = []
        self.record_log = record_log
        self.counts: dict[str, int] = {}
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

    # -- sending and timers -------------------------------------------------

    def draw_delays(self, k: int, rng: Optional[random.Random] = None) -> list[int]:
        """``k`` latency-model delays, drawn in order from ``rng`` (this
        simulation's by default): the stream of ``k`` calls of
        ``rng.randint(latency_min, latency_max)``, each clamped to
        ``post_gst_bound`` from ``gst`` on."""
        # randint(lo, hi) is lo + _randbelow(hi - lo + 1), and _randbelow(n)
        # draws getrandbits(n.bit_length()) until the draw is below n; the
        # loop below makes exactly those draws, without the three calls
        # per delay.
        getrandbits = (rng or self.rng).getrandbits
        span, bits = self._latency_span, self._latency_bits
        lo = self.config.latency_min
        hi = (self._latency_max_after_gst if self.now >= self.config.gst
              else self.config.latency_max)
        delays = []
        for _ in range(k):
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            r += lo
            delays.append(r if r <= hi else hi)
        return delays

    def _multicast(self, frm: ProcessId, tos: tuple[ProcessId, ...],
                   body: bytes) -> None:
        """Put one envelope per receiver on the heap, in ``tos`` order: the
        same sequence numbers and delay draws as one send to each in turn.
        Nothing is drawn or pushed unless every process is registered."""
        known = self._handlers.__contains__
        if not (known(frm) and all(map(known, tos))):
            for to in tos:
                if not (known(frm) and known(to)):
                    raise SimError(
                        f"send between unregistered processes {frm!r} -> {to!r}")
        heap, push, now, seq = self._heap, heapq.heappush, self.now, self._seq
        for to, delay in zip(tos, self.draw_delays(len(tos))):
            seq += 1
            # An in-flight message: (deliver_at, seq, _ENVELOPE, src, dst, body).
            push(heap, (now + delay, seq, _ENVELOPE, frm, to, body))
        self._seq = seq

    def send_as(self, frm: ProcessId, to: ProcessId, body: bytes) -> None:
        """Trusted-harness send on behalf of ``frm`` (used by built-in services)."""
        self._multicast(frm, (to,), body)

    def schedule(self, at: SimTime, fn: Callable, *args) -> Timer:
        if at < self.now:
            raise SimError(f"cannot schedule at {at} before now={self.now}")
        self._seq += 1
        timer = Timer(at)
        # A timer: (at, seq, _TIMER, fn, args, its Timer).
        heapq.heappush(self._heap, (at, self._seq, _TIMER, fn, args, timer))
        return timer

    # -- running ------------------------------------------------------------

    def run_until(self, t: SimTime) -> None:
        """Process every event with time <= t (inclusive); advance now to t."""
        heap, pop, deliver = self._heap, heapq.heappop, self._deliver
        proc_cost = self.config.proc_cost
        while heap and heap[0][0] <= t:
            when, seq, kind, a, b, c = pop(heap)
            if kind == _ENVELOPE:
                src, dst, body = a, b, c
                if proc_cost:  # with no busy time a receiver is never busy
                    busy = self._busy_until[dst]
                    if busy > when:
                        heapq.heappush(self._inbox[dst], (seq, src, body))
                        armed = self._armed[dst]
                        if armed is None or seq < armed[1]:
                            self._arm(dst, busy, seq)
                        continue
                if when > self.now:
                    self.now = when
                if proc_cost:
                    self._busy_until[dst] = self.now + proc_cost
                deliver(src, dst, body)
            elif kind == _TIMER:
                if c.cancelled:
                    continue
                fn, args = a, b
                if when > self.now:
                    self.now = when
                fn(*args)
            else:  # a wake: dst may take its lowest-seq waiting message
                dst = a
                if self._armed[dst] != (when, seq):
                    continue  # superseded by a wake for a lower seq
                busy = self._busy_until[dst]
                if busy > when:  # an arrival at exactly `when` went first
                    self._arm(dst, busy, seq)
                    continue
                inbox = self._inbox[dst]
                _, src, body = pop(inbox)
                if when > self.now:
                    self.now = when
                busy = self._busy_until[dst] = self.now + proc_cost
                if inbox:
                    self._arm(dst, busy, inbox[0][0])
                else:
                    self._armed[dst] = None
                deliver(src, dst, body)
        self.now = max(self.now, t)

    def _arm(self, dst: ProcessId, at: SimTime, seq: int) -> None:
        """Make (at, seq) the one live wake of ``dst``'s inbox."""
        self._armed[dst] = (at, seq)
        heapq.heappush(self._heap, (at, seq, _WAKE, dst, None, None))

    @property
    def delivered_total(self) -> int:
        """Messages delivered so far (``counts`` holds one count per tag)."""
        return sum(self.counts.values())

    def _deliver(self, src: ProcessId, dst: ProcessId, body: bytes) -> None:
        tag = self.frame_classifier(body)
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if self.record_log:
            self.log.append(LogEntry(self.now, src, dst, tag, len(body), body))
        handler = self._handlers[dst]
        try:
            handler(src, body)
        except Exception as exc:
            raise SimError(
                f"handler for {dst!r} failed at t={self.now} on {tag} from "
                f"{src!r}: {exc}"
            ) from exc

    def next_event_time(self) -> Optional[SimTime]:
        """The time of the earliest event on the heap, or None when none is
        left; the cancelled timers ahead of it are dropped first."""
        heap = self._heap
        while heap and heap[0][2] == _TIMER and heap[0][5].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_to_quiescence(self) -> SimTime:
        """Run until no events remain; returns final now."""
        while (t := self.next_event_time()) is not None:
            self.run_until(t)
        return self.now

    def pending_events(self) -> int:
        """Messages in flight or waiting in an inbox, plus timers that are
        neither run nor cancelled."""
        on_heap = sum(1 for entry in self._heap if entry[2] == _ENVELOPE
                      or entry[2] == _TIMER and not entry[5].cancelled)
        return on_heap + sum(len(inbox) for inbox in self._inbox.values())

    # -- export -------------------------------------------------------------

    def export_jsonl(self, fp) -> None:
        """The delivery log as JSON lines: {t, from, to, type, size}."""
        for entry in self.log:
            fp.write(json.dumps(
                {"t": entry.t, "from": entry.src.id, "to": entry.dst.id,
                 "type": entry.type, "size": entry.size},
                sort_keys=True) + "\n")
