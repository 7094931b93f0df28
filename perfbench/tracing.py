"""Wrappers around the setchain modules' entry points, for one benchmark rep.

Two levels of instrumentation, both installed by patching module and class
attributes for the length of a ``with`` block and restored afterwards:

* :class:`Probe` — the few hooks the simulated end-to-end metrics need:
  per-frame-type delivered bytes (through the frame classifier that
  ``run_scenario`` and the ``reads`` workload install) and a handle on every
  ``SafetyMonitor`` (to read its request and stamp ticks).  Wall-clock reps
  install nothing; a probed rep is never timed.
* :class:`Tracer` — a ``Probe`` plus one span per wrapped call (name, start,
  end, parent) and the per-layer counters.  Names are wrapped where they are
  looked up: modules import functions by name, so ``setchain.brb.decode_brb``
  is patched rather than ``setchain.wire.decode_brb``.  ``setchain.simnet``
  gets a counting stand-in for its ``heapq`` (counts only: a span per heap
  operation would cost more than the loop it measures).  The dataclass
  ``__eq__``/``__hash__`` of ``Element`` and ``ProcessId`` are not wrapped,
  so their cost lands in their callers' self time.

A span's self time is its duration minus its children's; a layer's self time
is the sum over the spans named ``<layer>.*``.  Spans stay in memory as
packed arrays and are written out by :meth:`Tracer.write_spans` when the run
ends.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

import setchain.adversaries as adversaries
import setchain.bench as bench
import setchain.brb as brb
import setchain.client as client
import setchain.core as core
import setchain.sbc as sbc
import setchain.server as server
import setchain.simnet as simnet
import setchain.wire as wire
from setchain.core import ProcessKind

LAYERS = ("simnet", "wire", "brb", "sbc", "server", "core", "client",
          "adversaries", "bench")

_TIMER = simnet._TIMER  # the kind of a timer entry on simnet's heap (entry[2])

FRAME_TYPES = ("brb-init", "brb-echo", "brb-ready", "sbc-inform",
               "req-add", "req-get", "req-epochinc",
               "resp-add", "resp-get", "resp-epochinc")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Probe:
    """Delivered bytes per frame type and the run's ``SafetyMonitor``s."""

    def __init__(self):
        self.frame_bytes: dict[str, int] = defaultdict(int)
        self.monitors: list = []
        self._patches = _Patches()

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def install(self) -> None:
        for module in (bench, wire):
            self._patches.set(module, "classify", self._classifier(wire.classify))
        summary = bench.SafetyMonitor.latency_summary
        monitors = self.monitors

        def latency_summary(monitor, duration):
            monitors.append(monitor)
            return summary(monitor, duration)

        self._patches.set(bench.SafetyMonitor, "latency_summary", latency_summary)

    def _classifier(self, classify):
        frame_bytes = self.frame_bytes

        def counting_classify(body: bytes) -> str:
            tag = classify(body)
            frame_bytes[tag] += len(body)
            return tag

        return counting_classify

    @property
    def bytes_total(self) -> int:
        return sum(self.frame_bytes.values())


class _CountingHeapq:
    """Stand-in for ``setchain.simnet.heapq`` that counts pops and timers."""

    def __init__(self):
        self.pops = 0
        self.timers = 0
        self.heappush = heapq.heappush

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.pops += 1
        if entry[2] == _TIMER:
            self.timers += 1
        return entry


class Tracer(Probe):
    """A probe plus spans around every layer's entry points."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.heap = _CountingHeapq()
        self.counts: dict[str, int] = defaultdict(int)
        self.sims: list = []
        self.engines: list = []
        self.services: list = []
        self.servers: list = []  # correct servers in construction order
        self.get_calls: list = []
        self.confirm_calls: list = []
        self.brb_latencies: list[int] = []
        self._broadcast_at: dict[tuple, int] = {}
        self._first_proposal: dict[tuple[int, int], int] = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def _wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span named ``name``; the hooks see the call's
        arguments (``before``) and also its result (``after``)."""
        nid = self._name_id(name)
        stack, child = self._stack, self._child
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                starts[idx] = t0
                ends[idx] = t1
                took = t1 - t0
                self_s[nid] += took - inner
                total_s[nid] += took
                calls[nid] += 1
                if child:
                    child[-1] += took
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _span(self, owner, attr: str, layer: str, before=None, after=None,
              name: str | None = None) -> None:
        self._patches.set(owner, attr, self._wrap(
            f"{layer}.{name or attr}", getattr(owner, attr), before, after))

    def _capture_init(self, cls, sink: list, keep=None) -> None:
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if keep is None or keep(obj):
                sink.append(obj)

        self._patches.set(cls, "__init__", __init__)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        super().install()
        for module in (bench, wire):  # the probe's byte counter, as a wire span
            self._span(module, "classify", "wire")
        self._install_simnet()
        self._install_wire()
        self._install_brb()
        self._install_sbc()
        self._install_server()
        self._install_core()
        self._install_client()
        self._install_adversaries()
        self._install_bench()

    def _install_simnet(self) -> None:
        S = simnet.Simulation
        self._patches.set(simnet, "heapq", self.heap)
        self._capture_init(S, self.sims)
        for attr in ("run_until", "run_to_quiescence", "_deliver", "schedule"):
            self._span(S, attr, "simnet")
        counts = self.counts

        def count_byzantine(frm) -> None:
            if frm.kind == ProcessKind.BYZANTINE_SERVER:
                counts["adversaries.frames_sent"] += 1

        self._span(S, "send_as", "simnet",
                   before=lambda sim, frm, to, body: count_byzantine(frm))
        self._span(simnet.NetHandle, "send", "simnet",
                   before=lambda handle, to, body: count_byzantine(handle.pid))

    def _install_wire(self) -> None:
        sites = {
            brb: ("decode_brb", "encode_brb"),
            server: ("decode_add_request_body", "decode_broadcast_message",
                     "decode_epochinc_body", "decode_request", "encode_get_state",
                     "encode_madd", "encode_mepochinc", "encode_response"),
            sbc: ("encode_inform",),
            bench: ("decode_broadcast_message", "decode_response", "encode_request"),
            client: ("decode_get_state", "decode_response", "encode_epochinc_body",
                     "encode_request"),
            adversaries: ("decode_add_request_body", "decode_brb",
                          "decode_broadcast_message", "decode_epochinc_body",
                          "decode_inform", "decode_request", "encode_brb",
                          "encode_get_state", "encode_madd", "encode_mepochinc",
                          "encode_response"),
        }
        for module, attrs in sites.items():
            for attr in attrs:
                self._span(module, attr, "wire")

    def _install_brb(self) -> None:
        E = brb.BrbEngine
        self._capture_init(E, self.engines)
        broadcast_at, latencies = self._broadcast_at, self.brb_latencies
        advance = E._advance

        def on_broadcast(digest, engine, payload):
            key = (id(engine.net._sim), engine.net.pid, digest)
            broadcast_at.setdefault(key, engine.net.now)

        def timed_advance(engine, origin, digest, inst):
            delivered = inst.delivered
            advance(engine, origin, digest, inst)
            if inst.delivered and not delivered:
                t0 = broadcast_at.get((id(engine.net._sim), origin, digest))
                if t0 is not None:
                    latencies.append(engine.net.now - t0)

        self._span(E, "broadcast", "brb", after=on_broadcast)
        self._span(E, "handle_frame", "brb")
        self._patches.set(E, "_advance", self._wrap("brb._advance", timed_advance))

    def _install_sbc(self) -> None:
        C = sbc.ConsensusService
        self._capture_init(C, self.services)
        counts, first = self.counts, self._first_proposal

        def on_propose(service, h, elements, by):
            counts["sbc.proposals"] += 1
            counts["sbc.proposed_elements"] += len(elements)
            first.setdefault((id(service), h), service.sim.now)

        self._span(C, "propose", "sbc", before=on_propose)
        for attr in ("_arrive", "_try_decide", "_deliver_one"):
            self._span(C, attr, "sbc")

    def _install_server(self) -> None:
        S = server.SetchainServer
        self._capture_init(S, self.servers,
                           keep=lambda s: s.pid.kind == ProcessKind.CORRECT_SERVER)
        counts = self.counts

        def count_stamped(_, srv, h, propset):
            if srv.pid.kind == ProcessKind.CORRECT_SERVER:
                counts["server.stamped_elements"] += len(srv.history.get(h))

        handle_get = self._wrap("server.handle_get", S._handle_request)
        handle_other = self._wrap("server.handle_request", S._handle_request)

        def _handle_request(srv, frm, body):
            if body[1:2] == bytes((wire.OP_GET,)):
                return handle_get(srv, frm, body)
            return handle_other(srv, frm, body)

        self._patches.set(S, "_handle_request", _handle_request)
        self._span(S, "on_set_deliver", "server", after=count_stamped)
        for attr in ("on_message", "_deliver_broadcast", "_flush", "_flush_timer"):
            self._span(S, attr, "server")
        for attr in ("add", "epoch_inc"):
            self._patches.set(S, attr, self._rejections(
                self._wrap(f"server.{attr}", getattr(S, attr))))
        self._span(server.EpochDriver, "_tick", "server", name="driver_tick")

    def _rejections(self, fn):
        counts = self.counts

        def counted(*args):
            try:
                return fn(*args)
            except server.RequestRejected:
                counts["server.rejected"] += 1
                raise

        return counted

    def _install_core(self) -> None:
        counts = self.counts

        def count(key):
            def note(*args, **kwargs):
                counts[key] += 1
            return note

        def decoded_set(buf, n, offset=0):
            counts["core.elements_decoded"] += n

        def sorted_elements(result, *args):
            counts["core.elements_sorted"] += len(result)

        K = core.KeyStore
        self._span(K, "valid", "core", before=count("core.valid_calls"))
        self._span(K, "make_element", "core")
        for scheme in (core.HmacScheme, core.Ed25519Scheme):
            self._span(scheme, "verify", "core", before=count("core.verify_calls"))
            self._span(scheme, "sign", "core")
        self._span(core.History, "stamp", "core", name="History.stamp")
        self._span(wire, "decode_element_set", "core", before=decoded_set)
        self._span(wire, "decode_element", "core",
                   before=count("core.elements_decoded"))
        for module in (core, wire, server):
            self._span(module, "sort_elements", "core", after=sorted_elements)
        for module in (core, wire, bench, client):
            self._span(module, "encode_element_set", "core")
        for module in (core, server, client, adversaries):
            self._span(module, "hash_epoch", "core",
                       before=count("core.hash_epoch_calls"))

    def _install_client(self) -> None:
        Q, O = client.QuorumClient, client.OptimisticClient
        counts = self.counts
        resp_get = b"R" + bytes((wire.OP_GET,))

        def read_bytes(qc, frm, body):
            if body[:2] == resp_get:
                counts["client.read_bytes"] += len(body)

        self._span(Q, "get", "client", after=lambda call, *a, **k: self.get_calls.append(call))
        self._span(Q, "on_message", "client", before=read_bytes)
        self._span(O, "add_and_confirm", "client",
                   after=lambda call, *a, **k: self.confirm_calls.append(call))
        for cls, attrs in ((Q, ("add", "epoch_inc", "_expire")),
                           (O, ("on_message", "_probe", "_probe_expired"))):
            for attr in attrs:
                self._span(cls, attr, "client")
        for attr in ("combine_get_responses", "confirm_from_snapshot"):
            self._span(client, attr, "client")

    def _install_adversaries(self) -> None:
        H = adversaries.HavocServer
        for attr in ("on_message", "_tick", "on_set_deliver", "_brb_broadcast"):
            self._span(H, attr, "adversaries")
        for attr in ("_on_message", "_on_set_deliver"):
            self._span(adversaries.SilentServer, attr, "adversaries")
        self._span(adversaries.LyingHistoryServer, "_handle_request", "adversaries",
                   name="liar_handle_request")
        self._span(adversaries.ForgedDigestServer, "_sign_epoch", "adversaries",
                   name="forged_sign_epoch")

    def _install_bench(self) -> None:
        M = bench.SafetyMonitor
        for attr in ("observe", "record_request", "on_broadcast", "on_propose",
                     "quiescence_checks", "latency_summary"):
            self._span(M, attr, "bench", name=f"monitor.{attr}")
        for attr in ("_tick", "on_message"):
            self._span(bench.Workload, attr, "bench", name=f"workload.{attr}")
        self._span(bench, "run_scenario", "bench")

    # -- results -------------------------------------------------------------

    def layer_metrics(self, cell_walls: list[float]) -> dict[str, float]:
        """Every per-layer metric, zero where a layer did no work."""
        self_by_layer: dict[str, float] = defaultdict(float)
        calls_by_layer: dict[str, int] = defaultdict(int)
        total = dict(zip(self.names, self.total_s))
        for name, s, c in zip(self.names, self.self_s, self.calls):
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += s
            calls_by_layer[layer] += c
        c = self.counts
        deliveries = sum(sim.delivered_total for sim in self.sims)
        instances = sum(len(e.instances) for e in self.engines)
        delivered = sum(e.delivered_count for e in self.engines)
        frames = self.calls[self._ids["brb.handle_frame"]]
        decide = []
        for service in self.services:
            for h, decision in service.decisions.items():
                t0 = self._first_proposal.get((id(service), h))
                if t0 is not None:
                    decide.append(decision.decided_at - t0)
        epochs = stamped = 0
        seen = set()
        for srv in self.servers:  # the first correct server of each sim
            sim = id(srv.net._sim)
            if sim not in seen:
                seen.add(sim)
                epochs += srv.epoch
                stamped += sum(len(es) for es in srv.history.entries)
        done = [call for call in self.get_calls if call.done]
        confirmed = [call for call in self.confirm_calls if call.confirmation]
        out = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
        out.update({
            "simnet.heap_pops_per_delivery": _ratio(self.heap.pops, deliveries),
            "simnet.deliveries": deliveries,
            "simnet.timers_fired": self.heap.timers,
            "wire.calls": calls_by_layer["wire"],
        })
        for tag in FRAME_TYPES:
            out[f"wire.bytes.{tag}"] = self.frame_bytes.get(tag, 0)
        out.update({
            "brb.frames_handled": frames,
            "brb.instances": instances,
            "brb.delivered": delivered,
            "brb.frames_per_delivery": _ratio(frames, delivered),
            "brb.deliver_latency_p50_ticks": median(self.brb_latencies),
            "sbc.proposals": c["sbc.proposals"],
            "sbc.proposed_elements": c["sbc.proposed_elements"],
            "sbc.stamped_over_proposed": _ratio(c["server.stamped_elements"],
                                                c["sbc.proposed_elements"]),
            "sbc.decide_latency_p50_ticks": median(decide),
            "server.stamp_s": total.get("server.on_set_deliver", 0.0),
            "server.get_s": total.get("server.handle_get", 0.0),
            "server.epochs": epochs,
            "server.adds_per_epoch": _ratio(stamped, epochs),
            "server.rejected": c["server.rejected"],
            "core.valid_calls": c["core.valid_calls"],
            "core.verify_calls": c["core.verify_calls"],
            "core.elements_decoded": c["core.elements_decoded"],
            "core.elements_sorted": c["core.elements_sorted"],
            "core.hash_epoch_calls": c["core.hash_epoch_calls"],
            "client.reads": len(done),
            "client.reads_failed": sum(1 for call in done if call.error),
            "client.bytes_per_read": _ratio(c["client.read_bytes"], len(done)),
            "client.combine_s": total.get("client.combine_get_responses", 0.0),
            "client.attempts_per_confirm": _ratio(
                sum(call.attempts for call in confirmed), len(confirmed)),
            "adversaries.frames_sent": c["adversaries.frames_sent"],
            "bench.monitor_s": sum(t for name, t in total.items()
                                   if name.startswith("bench.monitor.")),
            "bench.cell_wall_s_p50": median(cell_walls),
            "bench.cell_wall_s_max": max(cell_walls, default=0.0),
        })
        return out

    def write_spans(self, stem: Path) -> Path:
        """Writes ``<stem>.json`` (names and layout) and ``<stem>.bin``
        (the four span arrays, back to back); returns the header path."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(stem.with_suffix(".bin"), "wb") as fp:
            for arr in arrays:
                arr.tofile(fp)
        header = stem.with_suffix(".json")
        header.write_text(json.dumps({
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }) + "\n")
        return header


def load_spans(header: Path) -> list[tuple[str, int, float, float]]:
    """Reads back what :meth:`Tracer.write_spans` wrote: (name, parent index,
    start, end) per span, in call order."""
    meta = json.loads(header.read_text())
    n = meta["count"]
    columns = []
    with open(header.with_suffix(".bin"), "rb") as fp:
        for _, code in meta["arrays"]:
            arr = array(code)
            arr.fromfile(fp, n)
            columns.append(arr)
    names = meta["names"]
    return [(names[a], b, c, d) for a, b, c, d in zip(*columns)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
