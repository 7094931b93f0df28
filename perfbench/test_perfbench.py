"""The benchmark's own tests: every metric printed, every gate able to fail.

    python -m pytest perfbench -q

Each workload runs at ``--tiny`` size.  The gate tests plant a fault with
``monkeypatch`` and call ``run.main`` in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int = 0, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def in_process(capsys, workload: str, trace: int = 0) -> tuple[int, dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def printed(stdout: str) -> dict[str, str]:
    """``metric <name> = <value> <unit>`` lines, as name -> unit."""
    found = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            found[name] = rest.split(" ")[1]
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    done = bench(workload)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = printed(done.stdout)
    assert {k: lines[k] for k in want} == want
    assert lines["failed_frac"] == "ratio"
    if workload == "reads":
        assert lines["confirm_latency_p50_ticks"] == "ticks"
    assert sum(line.startswith("report digest") for line in done.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    done = bench(workload, trace=1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert printed(done.stdout).items() >= want.items()


def test_heap_pops_per_delivery_set_overload_apart(capsys):
    pops = {}
    for workload in ("overload", "firehose"):
        code, result, _ = in_process(capsys, workload, trace=1)
        assert code == 0
        pops[workload] = result["metrics"]["simnet.heap_pops_per_delivery"]["value"]
    assert pops["firehose"] < 2 < pops["overload"]


def test_layer_self_times_match_the_written_spans():
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS["matrix"]
    with tracer:
        wl.run(wl.build(0, tiny=True), tracer)
    header = tracer.write_spans(run.OUT / "test-spans")
    spans = tracing.load_spans(header)
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    by_layer: dict[str, float] = {}
    for (name, _, start, end), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + (end - start) - inner
    metrics = tracer.layer_metrics([])
    for layer in tracing.LAYERS:
        assert by_layer.get(layer, 0.0) == pytest.approx(metrics[f"{layer}.self_s"],
                                                         rel=1e-9, abs=1e-12)
    assert all(0 <= parent < i for i, (_, parent, _, _) in enumerate(spans) if parent >= 0)


def test_a_planted_property_violation_fails_the_run(capsys, monkeypatch):
    import setchain.bench as sbench

    checks = sbench.SafetyMonitor.quiescence_checks

    def planted(monitor, accepted, central):
        checks(monitor, accepted, central)
        monitor.violate("planted", "a violation the benchmark must catch")

    monkeypatch.setattr(sbench.SafetyMonitor, "quiescence_checks", planted)
    code, result, out = in_process(capsys, "overload")
    assert code == 1 and not result["correct"]
    assert "property violation" in out


def test_a_mismatched_report_digest_fails_the_run(capsys, monkeypatch):
    calls = iter(range(1_000_000))
    monkeypatch.setattr(workloads, "digest", lambda text: f"rep-{next(calls)}")
    code, result, out = in_process(capsys, "firehose")
    assert code == 1 and not result["correct"]
    assert "report digests differ" in out


def test_a_drifting_simulated_metric_fails_the_run(capsys, monkeypatch):
    reps = iter(range(1_000_000))
    metrics = workloads.simulated_metrics

    def drifting(*args, **kwargs):
        out = metrics(*args, **kwargs)
        out["bytes_per_add"] += next(reps)
        return out

    monkeypatch.setattr(workloads, "simulated_metrics", drifting)
    code, result, out = in_process(capsys, "overload")
    assert code == 1 and "simulated metrics differ: ['bytes_per_add']" in out


def test_an_unsound_quorum_read_fails_the_run(capsys, monkeypatch):
    import setchain.client as sclient
    from setchain.core import History

    combine = sclient.combine_get_responses

    def lying(responses, f):
        got = combine(responses, f)
        fake = History((frozenset(),) * (got.epoch + 1))
        return sclient.QuorumGetResult(got.theset, fake, fake.epoch)

    monkeypatch.setattr(sclient, "combine_get_responses", lying)
    code, result, out = in_process(capsys, "reads")
    assert code == 1 and "read-not-prefix" in out


def test_a_false_confirmation_fails_the_run(capsys, monkeypatch):
    import setchain.client as sclient

    confirm = sclient.confirm_from_snapshot

    def forged(element, theset, epoch_sets, keys, f):
        real = confirm(element, theset, epoch_sets, keys, f)
        if real is None:
            return None
        return sclient.Confirmation(element, real.epoch, bytes(32), real.signers)

    monkeypatch.setattr(sclient, "confirm_from_snapshot", forged)
    code, result, out = in_process(capsys, "reads")
    assert code == 1 and "confirmation-mismatch" in out


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("firehose", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_keeps_the_contract_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "firehose", "matrix", "overload", "reads"]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {n for n, _ in run.END_TO_END}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
