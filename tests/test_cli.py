"""Command line front end: seed parsing, reports, checks, replay."""

import json
import random

import pytest

from setchain import byz_model
from setchain.cli import _parse_seeds, main


def test_seed_range_parsing():
    assert _parse_seeds("12") == range(12)
    assert _parse_seeds("3..7") == range(3, 8)
    assert _parse_seeds("0..0") == range(0, 1)


@pytest.mark.parametrize("spec", ["0", "5..3", "-2"])
@pytest.mark.parametrize("command", [
    ["bench"],
    ["check", "--suite", "properties"],
    ["check", "--suite", "byzmodel"],
], ids=["bench", "check-properties", "check-byzmodel"])
def test_a_seed_spec_naming_no_seed_is_a_usage_error(command, spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seeds", spec])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "names no seed" in captured.err
    assert captured.out == ""


def test_bench_matrix_writes_reports(tmp_path, capsys):
    code = main(["bench", "--matrix", "--seeds", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 18
    lines = (tmp_path / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 18
    assert all(json.loads(line)["property_violations"] == [] for line in lines)
    assert (tmp_path / "summary.csv").read_text().startswith("scenario,")


def test_a_matrix_cell_runs_by_name_with_its_matrix_report_bytes(tmp_path, capsys):
    cell, matrix = tmp_path / "cell", tmp_path / "matrix"
    name = "safety-n10-fast-havoc"
    assert main(["bench", "--scenario", name, "--seeds", "7..7",
                 "--out", str(cell)]) == 0
    assert main(["bench", "--matrix", "--seeds", "7..7", "--out", str(matrix)]) == 0
    capsys.readouterr()
    (alone,) = (cell / "reports.jsonl").read_bytes().splitlines()
    in_matrix = {json.loads(line)["scenario"]: line
                 for line in (matrix / "reports.jsonl").read_bytes().splitlines()}
    assert json.loads(alone)["seed"] == 7
    assert alone == in_matrix[name]


def test_check_properties_reports_per_scenario(capsys):
    code = main(["check", "--suite", "properties", "--seeds", "0..0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("1 runs ok") == 18


def test_check_byzmodel_both_directions(capsys):
    code = main(["check", "--suite", "byzmodel", "--seeds", "1",
                 "--length", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=4 f=1: 1 seeds, both directions ok" in out
    assert "n=7 f=2: 1 seeds, both directions ok" in out


def test_check_byzmodel_counts_the_failures_of_a_scale(monkeypatch, capsys):
    def planted(direction, n, f, seed, length):
        if (direction, n, seed) == ("forward", 4, 0):
            return byz_model.MappingReport(ok=False, reason="planted", index=3)
        return byz_model.MappingReport(ok=True)

    monkeypatch.setattr(byz_model, "trace_check", planted)
    code = main(["check", "--suite", "byzmodel", "--seeds", "2"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["forward n=4 f=1 seed=0: planted at event 3",
                   "n=4 f=1: 2 seeds, 1/4 FAILED",
                   "n=7 f=2: 2 seeds, both directions ok"]


def _corrupted_bundle(seed=5):
    """A bundle whose event list skips a step and no longer applies."""
    pair = byz_model.make_model_pair(4, 1, seed)
    rng = random.Random(f"{seed}:many:4:1")
    events = byz_model.generate_trace(pair.many, rng, 60, pair.pool)
    drop = next(i for i, ev in enumerate(events)
                if ev.tag in ("add", "brb_broadcast"))
    broken = events[:drop] + events[drop + 1:]
    report = byz_model.map_to_single_adversary(pair.many, pair.single, broken)
    assert not report.ok
    return byz_model.bundle_failure("forward", 4, 1, seed, report), events


def test_replay_reproduces_a_recorded_failure(tmp_path, capsys):
    bundle, _ = _corrupted_bundle()
    path = tmp_path / "bundle.json"
    byz_model.save_bundle(path, bundle)
    code = main(["replay", "--counterexample", str(path)])
    assert code == 0
    assert "failure reproduced" in capsys.readouterr().out


def test_replay_flags_a_bundle_that_no_longer_fails(tmp_path, capsys):
    bundle, good_events = _corrupted_bundle()
    bundle["events"] = [byz_model.event_to_json(ev) for ev in good_events]
    path = tmp_path / "bundle.json"
    byz_model.save_bundle(path, bundle)
    code = main(["replay", "--counterexample", str(path)])
    assert code == 1
    assert "did not reproduce" in capsys.readouterr().out


def test_replay_of_a_bundle_with_an_unknown_direction_fails(tmp_path, capsys):
    bundle, _ = _corrupted_bundle()
    bundle["direction"] = "sideways"
    path = tmp_path / "bundle.json"
    byz_model.save_bundle(path, bundle)
    code = main(["replay", "--counterexample", str(path)])
    assert code != 0
    assert "unknown mapping direction 'sideways'" in capsys.readouterr().err


@pytest.mark.parametrize("fields, error", [
    ({"tag": "brb_deliver"}, "brb_deliver event without msg"),
    ({"tag": "brb_broadcast"}, "brb_broadcast event without msg"),
    ({"tag": "sbc_inform"}, "sbc_inform event without elements"),
    ({"tag": "sbc_propose"}, "sbc_propose event without elements"),
    ({"tag": "epoch_inc", "h": "1"}, "epoch_inc event with a non-integer h '1'"),
], ids=["deliver-no-msg", "broadcast-no-msg", "inform-no-elements",
        "propose-no-elements", "epoch-inc-text-h"])
def test_replay_of_a_bundle_with_a_malformed_event_fails_cleanly(
        tmp_path, capsys, fields, error):
    bundle, _ = _corrupted_bundle(seed=2)
    server = next(ev["server"] for ev in bundle["events"] if ev["server"])
    bundle["events"].insert(3, {"server": server, "element": None, "h": 1,
                                "elements": None, "msg": None, **fields})
    path = tmp_path / "bundle.json"
    byz_model.save_bundle(path, bundle)
    code = main(["replay", "--counterexample", str(path)])
    assert code != 0
    assert capsys.readouterr().err == f"replay: {error}\n"


@pytest.mark.parametrize("command", [
    ["bench", "--scenario", "overload-agg"],
    ["check", "--suite", "properties"],
    ["check", "--suite", "byzmodel"],
], ids=["bench", "check-properties", "check-byzmodel"])
def test_a_malformed_env_seed_is_a_usage_error(command, monkeypatch, capsys):
    monkeypatch.setenv("SETCHAIN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "SETCHAIN_SEED='abc' is not an integer" in captured.err
    assert captured.out == ""


def test_an_explicit_seed_spec_overrides_a_malformed_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SETCHAIN_SEED", "abc")
    assert main(["check", "--suite", "byzmodel", "--seeds", "1", "--length", "40"]) == 0
    capsys.readouterr()


def test_env_seed_is_the_default(monkeypatch, capsys):
    monkeypatch.setenv("SETCHAIN_SEED", "3")
    code = main(["check", "--suite", "byzmodel", "--length", "40"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("length", ["0", "-3"])
def test_a_trace_length_below_one_is_a_usage_error(length, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "byzmodel", "--seeds", "1", "--length", length])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"trace length {length} is below 1" in captured.err
    assert captured.out == ""


def _missing_file(path):
    path.unlink()


def _not_json(path):
    path.write_text("{not json")


def _without_n(path):
    bundle = json.loads(path.read_text())
    del bundle["n"]
    path.write_text(json.dumps(bundle))


def _backward_without_adversaries(path):
    bundle = json.loads(path.read_text())
    bundle.update(direction="backward", f=0)
    path.write_text(json.dumps(bundle))


@pytest.mark.parametrize("spoil, error", [
    (_missing_file, "cannot read {path}: No such file or directory"),
    (_not_json, "{path} is not JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)"),
    (_without_n, "bundle field 'n' is missing or not int"),
    (_backward_without_adversaries,
     "a model pair needs f >= 1 and n > 3f, not n=4 f=0"),
], ids=["missing-file", "not-json", "no-n", "backward-f0"])
def test_replay_of_a_bad_file_fails_cleanly(tmp_path, capsys, spoil, error):
    path = tmp_path / "bundle.json"
    byz_model.save_bundle(path, _corrupted_bundle()[0])
    spoil(path)
    code = main(["replay", "--counterexample", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"replay: {error.format(path=path)}\n"
    assert captured.out == ""
