#!/usr/bin/env python3
"""The setchain benchmark: one workload, its metrics, and a correctness gate.

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 5 --trace 0

Workloads: ``firehose``, ``matrix``, ``overload``, ``reads`` (see
``workloads.py`` and ``README.md``).  The package is imported from the
``src/`` directory beside this one, never from an installed copy.

``--trace 0`` prints the end-to-end metrics.  A run is: ``setup_s`` from
fresh interpreters, one probed rep (simulated metrics), wall-clock reps with
nothing patched for ``--seconds`` seconds, and a second probed rep.
``--trace 1`` prints the per-layer metrics instead: a probed rep, for
``matrix`` one untraced ``run_matrix`` call that times each cell, and one
traced rep whose spans are written under ``.perfbench_out/``.

Every rep of one seed must give the same report digests, and the two
simulated-metric readings must be identical; any ``RunReport`` property
violation, unstamped add, unsound read or false confirmation also fails
the run.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
``correct`` is true.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7

END_TO_END = (  # (name, unit) of the metrics every workload reports
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("stamped_per_sim_s", "adds/sim-s"),
    ("stamp_latency_p50_ticks", "ticks"),
    ("msgs_per_add", "msgs/add"),
    ("bytes_per_add", "B/add"),
)
PRINTED_ONLY = (  # printed where the workload supports them, with failed_frac
    ("stamp_latency_p99_ticks", "ticks"),
    ("confirm_latency_p50_ticks", "ticks"),
)
LAYER_UNITS = {  # per-layer metrics that are neither seconds, bytes nor counts
    "simnet.heap_pops_per_delivery": "pops/delivery",
    "brb.frames_per_delivery": "frames/delivery",
    "brb.deliver_latency_p50_ticks": "ticks",
    "sbc.stamped_over_proposed": "ratio",
    "sbc.decide_latency_p50_ticks": "ticks",
    "server.adds_per_epoch": "adds/epoch",
    "client.bytes_per_read": "B/read",
    "client.attempts_per_confirm": "attempts/confirm",
    "trace.overhead_frac": "ratio",
}


def _import_package() -> None:
    if not (SRC / "setchain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no setchain package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import setchain

    if Path(setchain.__file__).resolve().parent != SRC / "setchain":
        sys.exit(f"perfbench: imported setchain from {setchain.__file__}, not {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("firehose", "matrix", "overload", "reads"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload's input (the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args) -> int:
    """Child mode: import and build the workload's input, then print the
    monotonic clock (system-wide on Linux) for the parent to subtract."""
    _import_package()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].build(args.seed, args.tiny)
    print(repr(time.monotonic()))
    return 0


def measure_setup(args) -> float:
    """Median, over fresh interpreters, of process start to built input."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024  # ru_maxrss is in KiB on Linux


class Gate:
    """Collects correctness failures across every rep of one run."""

    def __init__(self):
        self.failures: list[str] = []
        self.digests = None

    def rep(self, label: str, outcome) -> None:
        for v in outcome.violations:
            self.failures.append(f"{label}: property violation: {v}")
        if self.digests is None:
            self.digests = outcome.digests
        elif outcome.digests != self.digests:
            self.failures.append(f"{label}: report digests differ from the first rep")

    def same(self, label: str, first: dict, again: dict) -> None:
        if first != again:
            diff = sorted(k for k in first.keys() | again.keys()
                          if first.get(k) != again.get(k))
            self.failures.append(f"{label}: simulated metrics differ: {diff}")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run(args) -> dict:
    from tracing import Probe, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    gate = Gate()
    lines: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}

    def probed(label: str, probe) -> object:
        with probe:
            outcome = wl.run(wl.build(args.seed, args.tiny), probe)
        gate.rep(label, outcome)
        return outcome

    if args.trace == 0:
        metrics["setup_s"] = (measure_setup(args), "s")
        first = probed("probed rep 1", Probe())
        walls = []
        deadline = time.perf_counter() + args.seconds
        while not walls or time.perf_counter() < deadline:
            outcome = wl.run(wl.build(args.seed, args.tiny))
            gate.rep(f"timed rep {len(walls) + 1}", outcome)
            walls.append(outcome.wall_s)
        last = probed("probed rep 2", Probe())
        gate.same("probed reps 1 and 2", first.simulated, last.simulated)
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        for name, unit in END_TO_END[3:] + PRINTED_ONLY:
            if name in first.simulated:
                metrics[name] = (first.simulated[name], unit)
        lines.append(f"timed reps: {len(walls)}, walls (s): "
                     + " ".join(f"{w:.4f}" for w in walls))
        lines.append(f"in-window latency samples: {first.simulated['latency_samples']}")
    else:
        first = probed("probed rep", Probe())
        cell_walls = _cell_walls(args, wl, gate, first)
        tracer = Tracer()
        traced = probed("traced rep", tracer)
        gate.same("probed and traced reps", first.simulated, traced.simulated)
        layer = tracer.layer_metrics(cell_walls)
        layer["trace.overhead_frac"] = traced.wall_s / first.wall_s - 1
        for name, value in layer.items():
            metrics[name] = (value, _layer_unit(name))
        header = tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}")
        lines.append(f"spans: {len(tracer.span_start)} written to "
                     f"{header.relative_to(ROOT)}")
    attempted, failed = first.attempted, first.failed
    metrics["failed_frac"] = (failed / attempted if attempted else 0.0, "ratio")

    for i, d in enumerate(gate.digests or []):
        lines.append(f"report digest {i}: {d}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {_fmt(value)} {unit}")
    for failure in gate.failures:
        lines.append(f"FAIL {failure}")
    keep = ({name for name, _ in END_TO_END} if args.trace == 0
            else {name for name in metrics if name != "failed_frac"})
    return {
        "lines": lines,
        "result": {
            "correct": not gate.failures and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items() if name in keep},
        },
    }


def _cell_walls(args, wl, gate, probed_outcome) -> list[float]:
    """Per-cell wall times.  For ``matrix``, from an untraced ``run_matrix``
    call with only ``run_scenario`` timed; elsewhere the probed rep's one cell
    (``reads`` has no cells)."""
    if args.workload == "reads":
        return []
    if args.workload != "matrix":
        return [probed_outcome.wall_s]
    import setchain.bench as bench

    original, walls = bench.run_scenario, []

    def timed(scenario):
        t0 = time.perf_counter()
        try:
            return original(scenario)
        finally:
            walls.append(time.perf_counter() - t0)

    bench.run_scenario = timed
    try:
        gate.rep("run_matrix rep", wl.run(wl.build(args.seed, args.tiny)))
    finally:
        bench.run_scenario = original
    return walls


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s") or name.startswith("bench.cell_wall_s"):
        return "s"
    if name.startswith("wire.bytes."):
        return "B"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    _import_package()
    out = run(args)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
