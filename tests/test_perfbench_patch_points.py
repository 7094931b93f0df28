"""The benchmark's tracer patches setchain names by module; every name it
wraps must exist, and uninstalling must restore each one."""

import heapq
from pathlib import Path

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
