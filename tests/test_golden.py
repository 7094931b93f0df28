"""Golden report digests: sha256 of ``RunReport.to_json()`` at fixed seeds.

A report is a pure function of its scenario and seed, so a change that keeps
behaviour keeps these bytes: every preset at seed 0 and every safety-matrix
cell at seeds 0 and 1.  A change that alters them on purpose says why and
re-records them; ``PYTHONPATH=src python tests/test_golden.py`` prints the
current values in the layout below, then the wider report digest of
:func:`report_digest`.  With ``--changed`` it lists instead each recorded
golden that differs on the current tree, as ``name@seed``, so a
re-baseline can show exactly which runs it touches.
"""

import hashlib
import sys

import pytest

from setchain.bench import PRESET_NAMES, preset, run_matrix, run_scenario, safety_matrix

PRESETS_AT_SEED_0 = {
    "stock": "ec34c792fd00252f8913472b15e39fded5785341b14063df6e6e6ac3e4d90270",
    "firehose": "f8bb23c302a564c9eb92eccba6f0a2c2d1abb5f59b9919529b75ee4241476048",
    "overload-fast": "59dee2b871db1eb3e24ad6a739fa59d8c698c2b1f881a7f36aaafb87531ab683",
    "overload-agg": "7d502e49a5412fb4bfcf7015c21583badd4bacff183ccc5eb3250a449b5ffc73",
    "large-none": "532e6f49faa854b37cb2d89d7e2d70b83533e65ff3392d4b375c82a4df905822",
    "large-silent": "7cd765f9360d13b71cdb0da27d050bdd9c6c98299265487f10933789905be9e9",
    "marathon": "ed452deafa0f2a46f7fa5096eee4f61f29761a1c70fa73f827d672b1df4b4c63",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "362e15ef027b04bd62a874e267ed808c73cf3bd3fcf71fb1b73c5939b2b51c03",
        "878663feffe3092d978a2a4964a9b7d9c5b21deec241dbb7a1fe9e625c2f1d1f",
    ),
    "safety-n4-fast-silent": (
        "572e243222ff51119818d9e1c465651d11c9d52b17290e723c612a07ce725573",
        "7999b31beb75f41e7467526bb0c652b955a15ca038a74c39cbb1910e47aff851",
    ),
    "safety-n4-fast-havoc": (
        "321818fdf5a3faee43a16d9d93114faeab1a9ea71ac3a234a12096d76e4a1ee6",
        "bc140f64ec4aa83bc6b164cb9d4930bb23f1321cd9a2944952ac0efc27dd56c9",
    ),
    "safety-n4-fast-agg-none": (
        "b33171504b179c872c092be38a58cb2a5ad3c61be5b19172559b736918f7ba1e",
        "6d1f4011762977c4c005a857c58dab60103c739a0c08fda9e218cc085e6c73b9",
    ),
    "safety-n4-fast-agg-silent": (
        "eeb6bbf02843fd9eda60a1db78994fe61da8d02f92e73ea91430099bd67c431f",
        "8ed055df2e7bfd8150211b17a3a8ef148db32d2684938bb61e26c387620895a5",
    ),
    "safety-n4-fast-agg-havoc": (
        "9db47c0fc10743d033035fe11ae6553956ec3d1f419367a15be383acca44d2bc",
        "1a39cf9be56bd2a4de0bd249877017b33fe1f8cbee9817fb8726fecabe913b83",
    ),
    "safety-n7-fast-none": (
        "cc0c73dc8b6f079816601a33140a5e5d9cdfe915593ffcd91bc70edd8df85841",
        "17e5126876193d1da52d15eecb6970e4f3a68ff0aa7e6e3a08e93152e95ccad2",
    ),
    "safety-n7-fast-silent": (
        "93be13109943c37c9a6d316018fab5bfa88f47b34e75607b66f3acef0df9c4e5",
        "7998844b9038eb33d4bd49e6ec35ea1d8dbf5abb5871a9a3aac0472f5970bdaf",
    ),
    "safety-n7-fast-havoc": (
        "74ee81468da7ac179acbd4daabf327043879770a194c68d5242517741888b699",
        "6e49f35179b6e170dfee8857ff265e4a1eaa7b82de372ed8428e6e169b5ec969",
    ),
    "safety-n7-fast-agg-none": (
        "5bcb89b7475aaf0d688ca9b1bb20c1a95cf749fc36495be8dda91942ca462002",
        "41dc3fd1317348206edc6ae94d03a97f4b7fd2bd046e3da18a4ad31f99d5cbb4",
    ),
    "safety-n7-fast-agg-silent": (
        "10397ecb9d79f1a1adbebf68b03fe1c850747a10322dfca9cb8affb27f69d521",
        "a925ce47c132aa27cfb711b91387c22ac81cb54c93820fd98b8bd0965117fe98",
    ),
    "safety-n7-fast-agg-havoc": (
        "edf115ce386829b59050ac04d1e0d2d90befbe39e65dc0572f050cfddf9ec1ed",
        "f811ce0d4e42bbb013405b021a43ee8e4d84d496f94646c52023e8cf6eed6073",
    ),
    "safety-n10-fast-none": (
        "989dbbd8c43b7d31f6663e1a8bde8ae810fb640e9dadb6043f4eab332f9a3cf7",
        "5983c89cda9f1b5ab653b10350004a2751511cd7f17c237b5a7d3ac07ad448d8",
    ),
    "safety-n10-fast-silent": (
        "e38689cb87ba238f5e099c0496aab24045d9ea9c5110319df8e7af7d6b0c5611",
        "e38c926731731b23bd63eb6ef6c56b9e03bbc7482eb7b7a1a424fefdeabb7d67",
    ),
    "safety-n10-fast-havoc": (
        "fe619eec1cd5a9fdb6e655d14c0a53ef174f40ced64622e9ac4b55f896c722f5",
        "64d40f0ad104fc0d6904741824f8c9499c22d93d349b043d41ebf8fab0799b3c",
    ),
    "safety-n10-fast-agg-none": (
        "c9356d74fbe21f6c21721060b57a731f4c4c81c2ccdb17c793203015ce253070",
        "3d64b9896a758d7c2724c98cd2c0969ac233fe4aa3eaf325343bee81d0316ef6",
    ),
    "safety-n10-fast-agg-silent": (
        "ab68e69f211c3370e2c03a24ba0a05c712a7bfad04f166e8f8161c57b58dcd93",
        "ad3d422b62feb791ff3ee3d54283b6064c03c4abdc119c5f36b9da26a71f4bed",
    ),
    "safety-n10-fast-agg-havoc": (
        "54f5ec98c37cfc429afb7c7549af7e555d3d137e14ff1321c3f97acfd6de6571",
        "2fb3ce19666fdacda3b45a1107aebc9fc43c075431d96847020815c244b3a6db",
    ),
}

CELLS = {scenario.name: scenario for scenario in safety_matrix()}


def digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def report_digest() -> str:
    """One sha256 over 194 reports: each safety-matrix cell at seeds 0-9,
    then each preset at seeds 1-2.  Each report gives the line
    ``name@seed <digest>``; the lines are joined with newlines."""
    lines = []
    for cell, scenario in CELLS.items():
        for seed, report in enumerate(run_matrix([scenario], range(10))):
            lines.append(f"{cell}@{seed} {digest(report)}")
    for name in PRESET_NAMES:
        for seed in (1, 2):
            lines.append(f"{name}@{seed} "
                         f"{digest(run_scenario(preset(name).with_seed(seed)))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_goldens_cover_every_preset_and_matrix_cell():
    assert set(PRESETS_AT_SEED_0) == set(PRESET_NAMES)
    assert set(MATRIX) == set(CELLS)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_report_bytes_are_unchanged(name):
    assert digest(run_scenario(preset(name).with_seed(0))) == PRESETS_AT_SEED_0[name]


@pytest.mark.parametrize("cell", list(CELLS))
def test_matrix_cell_report_bytes_are_unchanged(cell):
    reports = run_matrix([CELLS[cell]], MATRIX_SEEDS)
    assert tuple(digest(r) for r in reports) == MATRIX[cell]


def changed_goldens() -> list[str]:
    """``name@seed`` of each recorded golden whose digest differs now."""
    changed = [f"{name}@0" for name in PRESET_NAMES
               if digest(run_scenario(preset(name).with_seed(0)))
               != PRESETS_AT_SEED_0[name]]
    for cell, scenario in CELLS.items():
        reports = run_matrix([scenario], MATRIX_SEEDS)
        changed += [f"{cell}@{seed}" for seed, report, recorded
                    in zip(MATRIX_SEEDS, reports, MATRIX[cell])
                    if digest(report) != recorded]
    return changed


def print_changed() -> None:
    changed = changed_goldens()
    print("\n".join(changed))
    print(f"{len(changed)} goldens changed, in "
          f"{len({line.split('@')[0] for line in changed})} entries")


def print_goldens() -> None:
    print("PRESETS_AT_SEED_0 = {")
    for name in PRESET_NAMES:
        print(f'    "{name}": "{digest(run_scenario(preset(name).with_seed(0)))}",')
    print("}\n\nMATRIX = {")
    for cell, scenario in CELLS.items():
        print(f'    "{cell}": (')
        for report in run_matrix([scenario], MATRIX_SEEDS):
            print(f'        "{digest(report)}",')
        print("    ),")
    print("}\n\nreport_digest() =", report_digest())


if __name__ == "__main__":
    if "--changed" in sys.argv[1:]:
        print_changed()
    else:
        print_goldens()
