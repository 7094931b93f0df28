"""The benchmark's tracer patches setchain names by module; every name it
wraps must exist, and uninstalling must restore each one.  Its workloads
build their inputs through setchain's constructors and ``Scenario`` fields;
each must still build, and its probe must count the bytes of every frame
type it delivers."""

import heapq
from pathlib import Path

import setchain.bench
import setchain.simnet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_every_patch_point_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    t = tracing.Tracer()
    try:
        t.install()  # AttributeError if a patched name is gone
        saved = list(t._patches._saved)
        assert setchain.simnet.heapq is not heapq
    finally:
        t._patches.undo()
    originals = {}  # a name wrapped twice keeps its first saved value
    for owner, attr, value in saved:
        originals.setdefault((owner, attr), value)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner!r}.{attr}"
    assert setchain.simnet.heapq is heapq


def test_every_benchmark_workload_builds_at_tiny_size(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        assert workload.build(0, tiny=True), name


def test_every_frame_type_a_workload_delivers_has_bytes(monkeypatch):
    """``bytes_per_add`` sums the bytes that the probe's wrapped classifier
    sees.  A frame delivered past that classifier would make it read low and
    look like a gain, so every frame type that a tiny run of each workload
    delivers (its reports' ``messages``, or the cluster's ``sim.counts``)
    must have bytes in ``probe.frame_bytes``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    reports = []
    run_scenario = setchain.bench.run_scenario

    def keep(scenario):
        reports.append(run_scenario(scenario))
        return reports[-1]

    monkeypatch.setattr(setchain.bench, "run_scenario", keep)
    for name, workload in workloads.WORKLOADS.items():
        reports.clear()
        with tracing.Probe() as probe:
            built = workload.build(0, tiny=True)
            workload.run(built, probe)
        if isinstance(built, workloads.ReadsCluster):
            counts = [built.sim.counts]
        else:
            counts = [report.messages for report in reports]
        delivered = {tag for c in counts for tag, n in c.items() if n}
        assert delivered, name
        unmeasured = sorted(tag for tag in delivered if not probe.frame_bytes.get(tag))
        assert not unmeasured, (name, unmeasured)
