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
    "stock": "bfb1f5b8de1dc96c8fa28fc0169726fc3893e4fdb9931cd1a7d4b5c39abf871b",
    "firehose": "24035229501700fb1de95f301b4be5f06c5b66851ad5e77a943a484e4b1a0b07",
    "overload-fast": "949876ed9a4e99f865fadbb9c9826097a4d8011a59e4332d1a5f5501491da6c6",
    "overload-agg": "185f211eb47f9bd13bfd42c5e410285dcdfdfb5b412ed2a02b391a8d9a23593c",
    "large-none": "65d1fba04625937510fd357af266b12efbcb1cae23fa62b7bf0349d6d0618928",
    "large-silent": "53328c0d35b50e446fa4c4ffe03a4fb2e4ed824958ee0dc05087030632ab1bf4",
    "marathon": "a4f163abb7417bc4ea6a7649cc0f43c8a4973a2e2f5007219d8d59f96c4cdb52",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "46d7c3b6f6aa1f7040c29da1fbee18274e8d6570847b964186bdfe528d8decd2",
        "d739866cc93362c26cc0c18f70fe3d8b7ff2fa69f3272d4e41b780c866403273",
    ),
    "safety-n4-fast-silent": (
        "85f20250bb4466b07221fffe6ee59081e12d32da013363a170e6dbb3f39ea885",
        "8c9a08fd0eff23485472259632bee8cfcffbc891be2bb784eef1f4e1c9957c91",
    ),
    "safety-n4-fast-havoc": (
        "c5be1c8d5db17eba75087fcc47484444a1935050db36afd138137bde16bebbe7",
        "76289222181d3b5412f3368fded389264304c03f432f4fa7a021819f5d83e39b",
    ),
    "safety-n4-fast-agg-none": (
        "d76f31e0b92b71d0e899674e646ac1997aa67954c94379de867b99d682afce3f",
        "970bb7b70cd571fa1421bc5f12cb6ed4c53ff538050902e6eebdc4dbe4abb283",
    ),
    "safety-n4-fast-agg-silent": (
        "0369e4090df3725bc03c2a8400fa860d63d8936c19b0088e265b8fcab19e66b6",
        "82f7d2875fe207cc9ff83e8af588a66e5ff263f48fdf7653666ea94986e16998",
    ),
    "safety-n4-fast-agg-havoc": (
        "96201518e1b57fbf168e7e26b246773c0c0867361408138508f101e6d3262312",
        "96dfeed12f1904ebb1c7f0ceb39227facb1f5492111b1ea91402f90857ac6f07",
    ),
    "safety-n7-fast-none": (
        "fd4985e0158862abe067b3c8dc7d71e7c62de57daf969023eafd7b5dede204ac",
        "9042a08e4e72ea064b36630fcf279747758d3a1541ead22bd96ca51a7deaf7ef",
    ),
    "safety-n7-fast-silent": (
        "88053200e067f131083f44448c0023703b1e5169db3c2eb3d86204f69b9f6014",
        "2d5e1ed3c819884aa5dd3c83ada20ee620a0cfd9ce569e0b6a7520d88c1c86d6",
    ),
    "safety-n7-fast-havoc": (
        "3639e22344aa3ed7d9d569b15593fb52a1be5b9e612a4396b8a461737f21c546",
        "31676788bd7d1760cc0b7b250896540f5570247177842914d8a2387c903a61e2",
    ),
    "safety-n7-fast-agg-none": (
        "9dada1eb6d0663d2e9eff04b16612395f5640f20d9e59e81989807c99ac09df6",
        "33b840119b7a636480498c9ccd362047a6243b5ede71066c3a47c19c280dac4a",
    ),
    "safety-n7-fast-agg-silent": (
        "646545dbde5181eac7aa2d36a7a902c65a9f3ba6864e33192ac8e83cc707b184",
        "b56b3fad670c880d309b533463098f5150b4ce6c8ade428baa0c33cf47f314a0",
    ),
    "safety-n7-fast-agg-havoc": (
        "e66a456ca6ae8bd3a74c57b57f81d8289be68253490219c1efc7f4896e1bf4d2",
        "fc90356f33a50538b5b8d6c40a24f7135124be2d2617274b380ae4dfa23c7dc8",
    ),
    "safety-n10-fast-none": (
        "2bffbac823eb74767685a71d9de3d06695d8997b8c9b95b661c8f6a510fa9e46",
        "11540b4a9624560cb0143c8a3e33293b9660a6c93afb3728121e73a3f8f99713",
    ),
    "safety-n10-fast-silent": (
        "59a4586b5d5ab1148a3606ccb7d1595792f02f9973cd238b69b797ef9033d2f7",
        "2712d48b5226b147b832ea027028907e1d66173f1d2a72931a4dccd2fd164cd3",
    ),
    "safety-n10-fast-havoc": (
        "1efc198228474eac11bf26ec84596521892b8132d4e297c3c78e08692676daa3",
        "b4c2b5eb550bcd8d0d08ea0e91bfe2eed79ba4958a64679b00efa86f268e9f08",
    ),
    "safety-n10-fast-agg-none": (
        "ea07a33d7c7d7e7ed687aa3c6aa8e1f906ddacf060c9c8e38da58218f7262c3a",
        "bdf01c1d298f0597f192f89547eb2e06b248c6cc08e4b121e5f29c8088bc56be",
    ),
    "safety-n10-fast-agg-silent": (
        "e01797508bde08c927154fae0c5f15fde4b5829933bd7d960112e935f9ab460b",
        "c5ce6689796a5d35b7c10e74539b6cd45b0717a68b7f965a39dc3ee1b78d1c12",
    ),
    "safety-n10-fast-agg-havoc": (
        "ab9742278ff2909a51179ac2f09636ca64e80532a9139230a48f891269b99781",
        "972f308528041855352223d29421056ad3cc97adf755e2aaf8be24f5bf9f109c",
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
def test_preset_report_bytes_are_unchanged(name, preset_run):
    assert digest(preset_run(name)) == PRESETS_AT_SEED_0[name]


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
