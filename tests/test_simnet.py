"""Deterministic event loop: latency bounds, ordering, reliability, logs."""

import heapq
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from setchain import simnet
from setchain.core import ProcessId, ProcessKind
from setchain.sbc import ConsensusService
from setchain.simnet import NetConfig, SimError, Simulation
from setchain.wire import Proposal


def two_nodes(config, collect=None):
    sim = Simulation(config)
    inbox = collect if collect is not None else []
    a, b = ProcessId(0), ProcessId(1)
    ha = sim.register(a, lambda frm, body: inbox.append(("a", sim.now, frm, body)))
    hb = sim.register(b, lambda frm, body: inbox.append(("b", sim.now, frm, body)))
    return sim, (a, ha), (b, hb), inbox


def test_netconfig_validation():
    with pytest.raises(ValueError):
        NetConfig(latency_min=5, latency_max=1)
    with pytest.raises(ValueError):
        NetConfig(post_gst_bound=0)


def test_degenerate_latency_delivers_exactly_one_tick_later():
    sim, (a, ha), (b, _), inbox = two_nodes(NetConfig(latency_min=1, latency_max=1))
    ha.send(b, b"x")
    sim.run_until(1)
    assert inbox == [("b", 1, a, b"x")]


def test_same_seed_gives_identical_schedules():
    def run():
        sim, (a, ha), (b, hb), inbox = two_nodes(NetConfig(rng_seed=7))
        for i in range(50):
            ha.send(b, bytes([i]))
            hb.send(a, bytes([i]))
        sim.run_until(100)
        return [(who, t, body) for who, t, frm, body in inbox], \
               [(e.t, e.src.id, e.dst.id, e.size) for e in sim.log]
    assert run() == run()


def test_post_gst_delays_are_clamped():
    cfg = NetConfig(latency_min=1, latency_max=400, gst=1000, post_gst_bound=10)
    sim, (a, ha), (b, _), inbox = two_nodes(cfg)
    sim.run_until(1000)
    for i in range(10_000):
        ha.send(b, b"m")
    sim.run_to_quiescence()
    delays = [e.t - 1000 for e in sim.log]
    assert len(delays) == 10_000
    assert max(delays) <= 10 and min(delays) >= 1


def test_pre_gst_delays_use_full_latency_range():
    cfg = NetConfig(latency_min=1, latency_max=400, gst=10**9, post_gst_bound=10)
    sim, (a, ha), (b, _), _ = two_nodes(cfg)
    for _ in range(500):
        ha.send(b, b"m")
    sim.run_to_quiescence()
    assert max(e.t for e in sim.log) > 10  # clamping is not applied before gst


@pytest.mark.parametrize("lo, hi, gst, bound", [
    (1, 5, 0, 10),          # the default delay model
    (1, 1, 0, 10),          # degenerate range: still one draw per send
    (0, 3, 0, 10),
    (1, 400, 10**9, 10),    # before gst: the full range
    (1, 40, 0, 10),         # after gst: clamped to the bound
])
def test_delays_are_successive_seeded_randint_draws(lo, hi, gst, bound):
    seed = 23
    cfg = NetConfig(latency_min=lo, latency_max=hi, gst=gst,
                    post_gst_bound=bound, rng_seed=seed)

    def expected(rng):
        draws = [rng.randint(lo, hi) for _ in range(300)]
        return [min(d, bound) for d in draws] if gst == 0 else draws

    # The network's stream: message i is sent at t=0.
    sim, (a, ha), (b, _), inbox = two_nodes(cfg)
    for i in range(300):
        ha.send(b, i.to_bytes(2, "big"))
    sim.run_to_quiescence()
    delay = {int.from_bytes(body, "big"): t for _, t, _, body in inbox}
    rng = random.Random(seed)
    assert [delay[i] for i in range(300)] == expected(rng)
    assert sim.rng.getstate() == rng.getstate()  # no draw skipped or added

    # The consensus service's own stream, under the same rule: a lone
    # member's proposal for instance h is made at t=0.
    sim = Simulation(cfg)
    service, me = ConsensusService(sim), ProcessId(0)
    service.register(me, lambda h, propset: None)
    for h in range(1, 301):
        service.propose(h, Proposal(), me)
    rng = random.Random(f"{seed}:sbc")
    arrivals = expected(rng)
    assert service.rng.getstate() == rng.getstate()
    sim.run_to_quiescence()
    assert [service._instances[h].proposals[me].arrived_at
            for h in range(1, 301)] == arrivals


def test_run_until_zero_processes_nothing_pending_later():
    sim, (a, ha), (b, _), inbox = two_nodes(NetConfig(latency_min=3, latency_max=3))
    ha.send(b, b"x")
    sim.run_until(0)
    assert sim.log == [] and inbox == []
    assert sim.pending_events() == 1


def test_boundary_is_inclusive():
    sim, (a, ha), (b, _), inbox = two_nodes(NetConfig(latency_min=5, latency_max=5))
    ha.send(b, b"x")
    sim.run_until(5)
    assert [t for _, t, _, _ in inbox] == [5]


def test_equal_time_deliveries_follow_send_order_across_reruns():
    def run():
        sim, (a, ha), (b, hb), inbox = two_nodes(NetConfig(latency_min=2, latency_max=2))
        for i in range(20):
            (ha if i % 2 == 0 else hb).send(b if i % 2 == 0 else a, bytes([i]))
        sim.run_until(2)
        return [(who, body) for who, _, _, body in inbox]
    first = run()
    assert first == run()
    assert [b"\x00", b"\x01"] == [body for _, body in first[:2]]


def test_every_message_is_delivered_exactly_once():
    sim, (a, ha), (b, hb), inbox = two_nodes(NetConfig(rng_seed=3))
    sent = 200
    for i in range(sent):
        ha.send(b, i.to_bytes(2, "big"))
    sim.run_to_quiescence()
    bodies = [body for who, _, _, body in inbox if who == "b"]
    assert len(bodies) == sent
    assert sorted(bodies) == [i.to_bytes(2, "big") for i in range(sent)]


def test_send_to_unknown_process_is_a_harness_error():
    sim, (a, ha), _, _ = two_nodes(NetConfig())
    with pytest.raises(SimError):
        ha.send(ProcessId(9), b"x")


def test_duplicate_registration_rejected():
    sim = Simulation(NetConfig())
    sim.register(ProcessId(0), lambda f, b: None)
    with pytest.raises(SimError):
        sim.register(ProcessId(0), lambda f, b: None)
    with pytest.raises(SimError):
        # same id under a different role is still a collision
        sim.register(ProcessId(0, ProcessKind.CLIENT), lambda f, b: None)


def test_handle_identity_cannot_be_reassigned():
    sim, (a, ha), (b, hb), inbox = two_nodes(NetConfig(latency_min=1, latency_max=1))
    ha.send(b, b"x")
    sim.run_until(1)
    # the receiver sees the registered sender identity, not a claimed one
    assert inbox[0][2] == a


def test_timers_run_in_schedule_order_with_messages():
    sim, (a, ha), (b, _), inbox = two_nodes(NetConfig(latency_min=2, latency_max=2))
    fired = []
    ha.send(b, b"x")  # delivered at t=2, seq 1
    sim.schedule(2, lambda: fired.append(sim.now))  # seq 2: after the delivery
    sim.run_until(2)
    assert fired == [2] and len(inbox) == 1


def test_a_cancelled_timer_neither_runs_nor_moves_time_nor_counts():
    sim, (a, ha), (b, _), inbox = two_nodes(NetConfig(latency_min=3, latency_max=3))
    fired = []
    ha.send(b, b"x")  # delivered at t=3
    kept = sim.schedule(10, lambda: fired.append(sim.now))
    dropped = [sim.schedule(t, fired.append, "cancelled") for t in (5, 10, 5_000)]
    late = ha.after(7_000, fired.append, "cancelled")
    for timer in dropped + [late]:
        timer.cancel()
    assert (kept.at, late.at) == (10, 7_000) and not kept.cancelled
    assert sim.pending_events() == 2  # the message and the kept timer
    assert sim.next_event_time() == 3
    assert sim.run_to_quiescence() == 10  # the last live event, not 7,000
    assert fired == [10] and len(inbox) == 1
    assert sim.pending_events() == 0 and sim.next_event_time() is None
    sim.schedule(20, fired.append, "cancelled").cancel()
    assert sim.next_event_time() is None
    assert sim.run_to_quiescence() == 10 and fired == [10]


def test_handler_exceptions_carry_context():
    sim = Simulation(NetConfig(latency_min=1, latency_max=1))
    a = ProcessId(0)
    b = ProcessId(1)
    ha = sim.register(a, lambda f, body: None)
    sim.register(b, lambda f, body: 1 / 0)
    ha.send(b, b"boom")
    with pytest.raises(SimError, match="t=1"):
        sim.run_until(10)


@pytest.mark.parametrize("proc_cost, sends, t", [
    pytest.param(0, (b"boom",), 1, id="no-busy-time"),
    pytest.param(10, (b"boom",), 1, id="free-receiver"),
    # b"ok" is delivered at t=1; b"boom" waits in the inbox until t=11.
    pytest.param(10, (b"ok", b"boom"), 11, id="busy-receiver"),
])
def test_a_failing_handler_names_time_tag_and_sender(proc_cost, sends, t):
    sim = Simulation(NetConfig(latency_min=1, latency_max=1, proc_cost=proc_cost))
    a, b = ProcessId(0), ProcessId(1)
    ha = sim.register(a, lambda frm, body: None)

    def handler(frm, body):
        if body == b"boom":
            raise ValueError("bad frame")

    sim.register(b, handler)
    for body in sends:
        ha.send(b, body)
    with pytest.raises(SimError) as err:
        sim.run_until(100)
    assert str(err.value) == (  # 62: the default classifier's tag for b"b..."
        f"handler for {b!r} failed at t={t} on 62 from {a!r}: bad frame")
    assert isinstance(err.value.__cause__, ValueError)
    assert sim.now == t and sim.delivered_total == len(sends)


def test_jsonl_export_shape():
    sim, (a, ha), (b, _), _ = two_nodes(NetConfig(latency_min=1, latency_max=1))
    ha.send(b, b"xyz")
    sim.run_until(1)
    out = io.StringIO()
    sim.export_jsonl(out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert lines == [{"t": 1, "from": 0, "to": 1, "type": "78", "size": 3}]


def scripted_delays(delays):
    """A stand-in for ``Simulation.draw_delays`` that hands out ``delays``."""
    it = iter(delays)
    return lambda k, rng=None: [next(it) for _ in range(k)]


@pytest.mark.parametrize("delays, order", [
    # Three sends at t=0, one tick each: processed one per proc_cost.
    pytest.param((1, 1, 1), (0, 1, 2), id="in-send-order"),
    # m2 waits in b's inbox from t=3; m1 (lower seq) joins it at t=5 and is
    # taken first when b becomes free at t=11.
    pytest.param((1, 5, 3), (0, 1, 2), id="lower-seq-joins-inbox"),
    # m3 and m2 wait (arrived at t=2 and t=4); m1 arrives at exactly t=11,
    # when b becomes free, with a lower seq than both, so it goes first.
    pytest.param((1, 11, 4, 2), (0, 1, 2, 3), id="arrival-at-busy-until"),
])
def test_receiver_busy_time_serialises_processing(delays, order):
    cfg = NetConfig(latency_min=1, latency_max=20, proc_cost=10)
    sim, (a, ha), (b, _), inbox = two_nodes(cfg)
    sim.draw_delays = scripted_delays(delays)
    for i in range(len(delays)):
        ha.send(b, bytes([i]))
    sim.run_to_quiescence()
    assert [(t, body[0]) for who, t, _, body in inbox] == \
        [(1 + 10 * k, i) for k, i in enumerate(order)]


class RequeueSimulation(Simulation):
    """Reference for busy receivers: requeue each waiting message on the heap.

    A message for a busy receiver goes back onto the global heap at
    ``(busy_until, seq)``, so the receiver takes the lowest-seq message that
    has arrived; the inbox in :class:`Simulation` must keep exactly this order.
    """

    def run_until(self, t):
        heap = self._heap
        proc_cost = self.config.proc_cost
        while heap and heap[0][0] <= t:
            entry = heapq.heappop(heap)
            when = entry[0]
            if entry[2] == simnet._ENVELOPE:
                _, seq, _, src, dst, body = entry
                if proc_cost:
                    busy = self._busy_until[dst]
                    if busy > when:
                        heapq.heappush(heap, (busy, seq, simnet._ENVELOPE,
                                              src, dst, body))
                        continue
                self.now = max(self.now, when)
                if proc_cost:
                    self._busy_until[dst] = self.now + proc_cost
                self._deliver(src, dst, body)
            else:
                _, _, _, fn, args, _ = entry
                self.now = max(self.now, when)
                fn(*args)
        self.now = max(self.now, t)


def random_cascade(sim_class, seed):
    """A seeded cascade of sends and timers; returns everything observable.

    Handlers and timers draw from their own RNG, so the two simulators make
    the same draws exactly as long as they process events in the same order.
    """
    script = random.Random(seed)
    cfg = NetConfig(latency_min=script.randint(0, 2),
                    latency_max=script.randint(2, 9),
                    gst=script.choice([0, 30, 10**9]),
                    post_gst_bound=script.randint(1, 4),
                    proc_cost=script.randint(1, 11), rng_seed=seed)
    sim = sim_class(cfg)
    rng = random.Random(seed + 1)
    pids = [ProcessId(i) for i in range(script.randint(2, 5))]
    events, budget = [], [script.randint(20, 120)]
    handles = {}

    def act(pid):
        for _ in range(rng.randint(0, 2)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            if rng.random() < 0.2:
                handles[pid].after(rng.randint(0, 6), timer, pid, budget[0])
            else:
                handles[pid].send(rng.choice(pids), budget[0].to_bytes(2, "big"))

    def timer(pid, tag):
        events.append(("timer", sim.now, pid.id, tag))
        act(pid)

    def handler(pid):
        def on_message(frm, body):
            events.append(("deliver", sim.now, frm.id, pid.id, body))
            act(pid)
        return on_message

    for pid in pids:
        handles[pid] = sim.register(pid, handler(pid))
    for pid in pids:
        for _ in range(script.randint(1, 4)):
            handles[pid].send(script.choice(pids), b"start")
    cuts = []
    for _ in range(script.randint(0, 4)):
        sim.run_until(sim.now + script.randint(0, 25))
        cuts.append((sim.now, sim.pending_events()))
    sim.run_to_quiescence()
    cuts.append((sim.now, sim.pending_events()))
    return events, cuts


def test_busy_receivers_keep_the_requeue_order():
    # 300 cascades deliver about 17k messages; the inbox takes every path
    # (a lower seq joining, an arrival at exactly busy_until going first).
    for seed in range(300):
        expected = random_cascade(RequeueSimulation, seed)
        assert random_cascade(Simulation, seed) == expected, f"seed {seed}"


def test_pending_events_counts_waiting_messages_not_wakes():
    cfg = NetConfig(latency_min=1, latency_max=20, proc_cost=10)
    sim, (a, ha), (b, _), inbox = two_nodes(cfg)
    sim.draw_delays = scripted_delays((1, 5, 3))
    for i in range(3):
        ha.send(b, bytes([i]))
    sim.schedule(40, lambda: None)
    assert sim.pending_events() == 4
    sim.run_until(1)  # m0 delivered, b busy until 11
    assert sim.pending_events() == 3
    sim.run_until(5)  # m2 then m1 wait in the inbox; m1 re-arms b's wake
    assert sim.pending_events() == 3
    sim.run_until(11)  # m1 delivered; m2 waits, its earlier wake is dropped
    assert [body for *_, body in inbox] == [b"\x00", b"\x01"]
    assert sim.pending_events() == 2
    sim.run_until(21)
    assert len(inbox) == 3 and sim.pending_events() == 1
    sim.run_to_quiescence()
    assert sim.pending_events() == 0


@st.composite
def net_configs(draw):
    """Latency models with equal bounds, gst on either side of the run's
    clock, and post-gst bounds below, inside and above the latency range."""
    lo = draw(st.integers(0, 6))
    hi = lo + draw(st.sampled_from([0, 0, 1, 3, 40, 300]))
    return NetConfig(latency_min=lo, latency_max=hi,
                     gst=draw(st.sampled_from([0, 5, 30, 10**9])),
                     post_gst_bound=draw(st.integers(1, hi + 3)),
                     proc_cost=draw(st.sampled_from([0, 3])),
                     rng_seed=draw(st.integers(0, 2**32)))


def reference_send(sim, frm, to, body):
    """One send as the network made it before multicast: a checked push
    whose delay is ``latency_min + _randbelow(span)``, clamped from gst on."""
    if frm not in sim._handlers or to not in sim._handlers:
        raise SimError(f"send between unregistered processes {frm!r} -> {to!r}")
    cfg = sim.config
    delay = cfg.latency_min + sim.rng._randbelow(cfg.latency_max - cfg.latency_min + 1)
    if sim.now >= cfg.gst:
        delay = min(delay, cfg.post_gst_bound)
    sim._seq += 1
    heapq.heappush(sim._heap, (sim.now + delay, sim._seq, simnet._ENVELOPE,
                               frm, to, body))


def state(sim):
    return list(sim._heap), sim._seq, sim.rng.getstate()


PIDS = tuple(ProcessId(i) for i in range(5))
STRANGER = ProcessId(9)  # never registered

steps = st.lists(st.one_of(
    st.tuples(st.just("run"), st.integers(0, 20)),
    st.tuples(st.just("send"), st.sampled_from(PIDS + (STRANGER,)),
              st.lists(st.sampled_from(PIDS + (STRANGER,)), max_size=7)
              .map(tuple)),
), max_size=25)


@settings(max_examples=300, deadline=None)
@given(net_configs(), steps)
def test_a_multicast_is_the_sends_it_replaces(cfg, script):
    sims = Simulation(cfg), Simulation(cfg)
    handles = [{pid: sim.register(pid, lambda frm, body: None) for pid in PIDS}
               for sim in sims]
    new, old = sims
    for i, step in enumerate(script):
        if step[0] == "run":
            for sim in sims:
                sim.run_until(sim.now + step[1])
            assert new.log == old.log
            continue
        _, frm, tos = step
        body = i.to_bytes(2, "big")
        before = state(old)
        try:
            for to in tos:
                reference_send(old, frm, to, body)
        except SimError as exc:
            expected = str(exc)
            old._heap[:], old._seq = before[0], before[1]
            old.rng.setstate(before[2])
        else:
            expected = None
        try:
            if frm in handles[0]:
                handles[0][frm].multicast(tos, body)
            else:
                new._multicast(frm, tos, body)
        except SimError as exc:
            assert str(exc) == expected
            if frm in handles[0]:  # the same text as the one send to it
                bad = next(to for to in tos if to not in handles[0])
                with pytest.raises(SimError) as one:
                    handles[0][frm].send(bad, body)
                assert str(one.value) == expected
        else:
            assert expected is None
        assert state(new) == state(old)
    new.run_to_quiescence()
    old.run_to_quiescence()
    assert new.log == old.log and new.now == old.now


@settings(max_examples=300, deadline=None)
@given(net_configs(), st.integers(0, 40), st.integers(0, 60),
       st.integers(0, 2**32))
def test_draw_delays_are_clamped_randint_draws(cfg, now, k, seed):
    sim = Simulation(cfg)
    sim.run_until(now)
    rng, twin = random.Random(seed), random.Random(seed)
    draws = [twin.randint(cfg.latency_min, cfg.latency_max) for _ in range(k)]
    if now >= cfg.gst:
        draws = [min(d, cfg.post_gst_bound) for d in draws]
    assert sim.draw_delays(k, rng) == draws
    assert rng.getstate() == twin.getstate()
    own = random.Random(cfg.rng_seed)
    assert sim.draw_delays(k) == [
        min(own.randint(cfg.latency_min, cfg.latency_max), cfg.post_gst_bound)
        if now >= cfg.gst else own.randint(cfg.latency_min, cfg.latency_max)
        for _ in range(k)]
    assert sim.rng.getstate() == own.getstate()
