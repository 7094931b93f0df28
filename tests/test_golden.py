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
    "firehose": "da30de45886a3078b0b743fa6ed4bbf6b014d8c027dccc87f51e33f04ed152a7",
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
        "6216502bbeb7cccc79960fe27b893b029b7e3af85a712890f4c7c82cf548722f",
        "88881b96ff632422c0ff55369e92de4504a3acde4e72c2df65023a925132f700",
    ),
    "safety-n4-fast-agg-silent": (
        "0f242e48a24dc9d5f897a260406c04efa2f78d08860dd295b39039b31d6c7e69",
        "9eacf5f4bae03938c5ebcd0c8a0148f80c7c30be75d690628f46d9997bf8e125",
    ),
    "safety-n4-fast-agg-havoc": (
        "ecff6da9128e49c02e03646cfbbf690dce18acd39375ab70725132b8471f7fa2",
        "40073bab9344eb9de6ff24dff88faa14ba05b01166676275107be94f42c6aab7",
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
        "cdddc25cfd3023b141f5f068cf883f4ec8a369442fb4a146f70e5d67472795ec",
        "d6de3ddf3e011111af6b893fc5b113a6a2071f8ffc6dfa33517b67ad3f2d7502",
    ),
    "safety-n7-fast-agg-silent": (
        "96b018e212d9303275412660c996ef66e03c7161948c18005615aca77cba3bec",
        "0dd86e2a605a30b546a4d81ddb3c54d17f8e7b2211cbb1a1958a1dfbfd16b8a8",
    ),
    "safety-n7-fast-agg-havoc": (
        "f28aff54f6625e04fe03380f031bc6d829b24f8dcff45073d009f985fb41a6b7",
        "f7b0213a7fa1e124cac768a2b73fd8ed688f069c62f03d9f269b558339087eff",
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
        "bb80064b81321484afda2507360717eb980b603b59287c6d09474b6b55ff01c6",
        "b4368dfcd8ccbf6f0aae82c7d1b47a2923b942de10218b9abacacb68280c2cec",
    ),
    "safety-n10-fast-agg-silent": (
        "9a8ce8bedadf332e4524582abd4a28c3eda733351863ebab0114205cc62f8faa",
        "caedd96c44b67619b43ead0dbba878ab2d064ee175ad4349a01772261802c7d6",
    ),
    "safety-n10-fast-agg-havoc": (
        "acc4142b91f8364a0093eeb6f056b10b54167c3636fc2d06a64d4cb63db89e17",
        "b06550ca14e5eadb798db379f7393cb3682fac4790196b781624eb3077edda4d",
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
