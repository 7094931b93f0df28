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
    "stock": "f024557858ac785c3e435b4e09badc2816d673ded992a6f650a81d23391f9856",
    "firehose": "d5db983f7916e37e393c8deda49ce5a887b28e219799841c6afc554c3e0cc10a",
    "overload-fast": "949876ed9a4e99f865fadbb9c9826097a4d8011a59e4332d1a5f5501491da6c6",
    "overload-agg": "7e01fbe0779568aa8841237b2fab042d1b4c10275d570b5d5da96b24e38f2525",
    "large-none": "e00abd5db7d5368a0172430abe1b89ae4e1afdac2a29789e3a91d43df472fefe",
    "large-silent": "ce15460623cbbf8a2dc2b85add3e11fcb1e6d6a5c4e803d47a2e975ad0f4c85a",
    "marathon": "44c93571d9108434175f9b7d90dd4b9203b6f6862c381d45535773748f2153cf",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "36a7df86d4983c25a5ad5dec7d6b89da7317d6dff296febc139b377754c35d87",
        "bf086e997015c056506e0863232425c3e0198e7101d8adbde87994b0b381b575",
    ),
    "safety-n4-fast-silent": (
        "ebebcc319a9fdcb9e3c38a319f90f1d46a30f63bcc0434e6a14d43177ec10529",
        "f314d61249112f4ce90b425979c1d400e84f24e9094184360faac6e47972c756",
    ),
    "safety-n4-fast-havoc": (
        "719944a2ec4ed476114c4e9596101ca43f2a2c69e54b28cdc3063af8ed4ecf83",
        "9b5ff9b383b8c335d2180158b725bed763a5b42350a01a8c72e978cf7a3f05db",
    ),
    "safety-n4-fast-agg-none": (
        "b22c6ab972ec0e5b2466ec6e73bac314ca4af6b9c740cd7dde73a0b28fddee32",
        "51ed7ceb1f279788582fcf4fb6f5a66d1a9f1280e98a773a9a2070fad4f49d60",
    ),
    "safety-n4-fast-agg-silent": (
        "3b185c0f2522fd243e0b6c4b01d71b61661725e251dbb54b9a35ff8f2b1e5823",
        "1e7ee3377f327e3856c374d406a80966a70c4bc81f7505d137fe0a9a7436c5ad",
    ),
    "safety-n4-fast-agg-havoc": (
        "77812e04a8f4626488a33e065eb8ddb8247f2ed48b3c1e97137746d8d2f2ffe9",
        "e1e1d7afe383695a65072b1ee6619786d8826cb3873dcc40e0bf0133ef0544e8",
    ),
    "safety-n7-fast-none": (
        "121eea274fceca5ff49b34fb21c9447e436d157724a62401bdf392461c76d084",
        "397de11e94bf1c861e2da6d37153e6a45e054b818c889252f9e666a29f21d9a4",
    ),
    "safety-n7-fast-silent": (
        "ee7235dafc2157004509b79eaabed1a7dc331212e36698a968138b1b4d11c79a",
        "3ca47ab68044e7d1c605d96259092e746cdc53883050e01fa601261b040d55c1",
    ),
    "safety-n7-fast-havoc": (
        "5e8e401eb3f45cff923dc3a4fa1d5c60bb2cac4737fd7c5775324b4edfd75360",
        "f366badc74ba3fa441f08be6677d99be7cc86bdc4074e1a89cb01bb36cd0790e",
    ),
    "safety-n7-fast-agg-none": (
        "ca47c3098e0de699454b9dc7bf6e05ea6327c99d98c0c70b4b7b8993ddc9a1a7",
        "bd5fe0fb2f950eee29da8dab18c37117c7bffa38bba36825d032eb1860f0c2ce",
    ),
    "safety-n7-fast-agg-silent": (
        "a5da58cea9bc7eee7d1edd537d01fe88086d5230103d5813b0112ecd3dddc97c",
        "8df90ad3621d9c862a11bdece7f2476519f59b8b5a6bf33fbd4daae0cb6b2a95",
    ),
    "safety-n7-fast-agg-havoc": (
        "f58abf439994b384e2717727e96a22ebef06cc71457301c51c970c40a49892b2",
        "5fc0ce42628aea2ba4d6803dfdcaa1ec3da0e144791b30cd7976836f581d3e1b",
    ),
    "safety-n10-fast-none": (
        "7649790f8df884bef75ebaa23768976930d75c49cdc5a15fbc903cac2bcd7645",
        "fa3e7115857218603c19fcd4815438b16bdd99ebc0911e6af0aed3cd4be68658",
    ),
    "safety-n10-fast-silent": (
        "fea20a44ac01f1099c0a116b4f41e667be14b0e99e9f0b453941d4d02fef2f95",
        "28f12a389205d81aeb3c60cdf5f54cb4a78a51f89f1d2aa24d5aa5cafd83b401",
    ),
    "safety-n10-fast-havoc": (
        "e08fcfb0a4865337b533a8db7659b573395f690b86fbe1e29acaec485faa2515",
        "ec18619b251362f995b8336851f6da0593b46cb5eeef6e287924a85d69b70c71",
    ),
    "safety-n10-fast-agg-none": (
        "d21e5044f67c12ebef5ad0b947425b4a7ccba7effa7fccb3794ba011fc8629a6",
        "949ea6a8d44f22f267631834643d591c1b3f06b7ce4355ad7f39c855b9fc9ea7",
    ),
    "safety-n10-fast-agg-silent": (
        "e17ceff4dcf419e4350574a56c29b7e8c5d2e122c7043b61cc6d6098935ffb06",
        "730e34315768c7083bf0fa4666782a1332bc76a0beb73c572ea8fe2d15cb63c9",
    ),
    "safety-n10-fast-agg-havoc": (
        "05de6fe3435e2c847bbd4f2aab43024484537c54d1a4d0c0d2accecf6dcb4b8d",
        "c4fa171930db99a143651e7b462c608c7765fa48872ba9378d5e85007deb8bb4",
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
