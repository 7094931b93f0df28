"""Golden report digests: sha256 of ``RunReport.to_json()`` at fixed seeds.

A report is a pure function of its scenario and seed, so a change that keeps
behaviour keeps these bytes: every preset at seed 0 and every safety-matrix
cell at seeds 0 and 1.  A change that alters them on purpose says why and
re-records them; ``PYTHONPATH=src python tests/test_golden.py`` prints the
current values in the layout below, then the wider report digest of
:func:`report_digest`.  With ``--changed`` it lists instead each recorded
golden that differs on the current tree, as ``name@seed``, so a
re-baseline can show exactly which runs it touches, and exits with status 1
if any differs.
"""

import hashlib
import sys

import pytest

from setchain.bench import PRESET_NAMES, preset, run_matrix, run_scenario, safety_matrix

PRESETS_AT_SEED_0 = {
    "stock": "6d6ec6fd74882b68a1f1ba3fe50059d422cf6effd8bb0c8fd2cd5942293c91bd",
    "firehose": "8b498e015a09ae6cf4025a96957afafdcfd3430f8404070ce8e0a213e3c3130f",
    "overload-fast": "aa6984967f324b33ac394f42fc8d7b2e2994224fa41038500b911cd043e326d6",
    "overload-agg": "5d6d25621332b7645c9a9623bd41f4d9f2a41e40d1c590932d69d603f695a724",
    "large-none": "81bafa353d5ce0a335f888f8adc25fee620f805ecf2f3d52d9d3fa94e419d5ff",
    "large-silent": "b43d850e2b0d179844ba586d8b271eb076d2e73b987b2dd7ee60e7e1cf97b157",
    "marathon": "14813bdcabcc9d348136695a18bd7200eeaac41d1ee621aa3466af6b95cdf3fd",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "9060a1c28fa80acdc48e6022c7c3c1c26ec09fa52414e96e0a341c1cb9f33868",
        "9c8e053471f28aed4bd65c9102d31d457c0da8f5e802c5e4326dc91916fb7ec1",
    ),
    "safety-n4-fast-silent": (
        "9384057dde36a5efed0c7d4fee7f14c9b4684316a3e22c26c28be2c7c47712da",
        "8f776180f1e4a280d389dec9c2ec68305924299df88e85ffaf9d9b4e9b771a21",
    ),
    "safety-n4-fast-havoc": (
        "e3110d30f39a14a0f73edd726ac5c16e44241e200066a30f1306d900bcb2a198",
        "0e9a6f8249589953bdb6ef72c8426ee6694196bac45d86e51f7ad576d14c6a2c",
    ),
    "safety-n4-fast-agg-none": (
        "5ad5062d477d937fcbb71145cf138aed4a232bb3b8da093b5027bc8ec6a531f3",
        "6b980a2567dd5b5b4c54f0136af0aff3c3d30ef10a83850261dc554f9cbd446f",
    ),
    "safety-n4-fast-agg-silent": (
        "9e0773662ac45e3ccfe15509ca340efe383c4c9f01892d6d9f89bdb46df14325",
        "aecebf3471f15b34ff833fadea8e0039c1ca233c2258a527af2484e8b23d493e",
    ),
    "safety-n4-fast-agg-havoc": (
        "70e3cdba2c46721cc2e0e8b86cf22d1b92a1acf30b7b1466cfd25e67b4a06ad0",
        "397a632d2061e6adbdfc6667a719dcc53cff67c34f773c2945924680e8470391",
    ),
    "safety-n7-fast-none": (
        "b771b6b10bfac0be9ba6b2e23df8309e87acd563641d6af748ff3341d5d0bfb4",
        "578a095491046b4595de7a2a3f54c1ca5bf5877597f18daa9c14a568c0dae4d1",
    ),
    "safety-n7-fast-silent": (
        "260331f5468d896bde3845327dcec49a16e5f122b9d25544f260fabb68201920",
        "271c89b3c91329fee995da8891aa52ae1cb03003549f35afde4c3bd941cb8348",
    ),
    "safety-n7-fast-havoc": (
        "3a27af67264c73ddbedbfa8cfe7609ca435894732391dc2a284b86cf528ec121",
        "541010627ddf84577767ffa06f4a0787bed6c1bea316cc43905fa7009f48b78c",
    ),
    "safety-n7-fast-agg-none": (
        "602003ff978736765be53007a11e7f6082e84b6ab19f921af3a36883b91ffd17",
        "eb55cdd54912e1deab4b76cee21ca244107a0bdc8999df4729668dcdf5c0e06f",
    ),
    "safety-n7-fast-agg-silent": (
        "7f78af7491434acc990cabb4738fb86bf1bf17e1796f6ceab71257bc9b9fb63b",
        "a0c5d8ae8518e93ccb0a0339bfcfb95bd2edf9a24e3b95c2d889e84fc4b14f53",
    ),
    "safety-n7-fast-agg-havoc": (
        "d5e30f513dbcb603d23d2c749da29e0c2e273cf2e2c2fc3201177d58086e3d20",
        "a67706e2961df5454fa039733a3fc9eedb0cd88992a847ac1c914d7e55584d1d",
    ),
    "safety-n10-fast-none": (
        "6d586b6a4819ffc357e8149693d08f82728cccda35bd7708282c6495542673f0",
        "1a7935901f55457201fad93e502e93eeab3b20b7993f763cef83b8ad893034a3",
    ),
    "safety-n10-fast-silent": (
        "60cca3d81299a8b0f6117ea8271992b6ebfbbc68ff23ca3b6669f9a8b0a0f906",
        "bf8b91e28c3862872914dbfe1a7a33438ca3af65dba2d40d7f4fb43e70a59df5",
    ),
    "safety-n10-fast-havoc": (
        "190b0c9875565107d3ede5254af464db68473e239f7f9c0c7df7a191fa94a2ac",
        "a70495dd46787d5192a95394bd36cb508078bf17973de56e40ceef3b8a2b7857",
    ),
    "safety-n10-fast-agg-none": (
        "0999d6386f223c692f174ce303e248a4d9750be0cb68192ef4ca40dd1d28835d",
        "b25041518996fdd37b0ee392e92a11d4e6a5220c65fad4c5251bd0c53cdd8aa8",
    ),
    "safety-n10-fast-agg-silent": (
        "525cddc614d974f3ae9c5bd8426ff25d13daa5b081b0b97ef5ca23d6363a95c2",
        "16dfbe9d7c0cccce5c06282a7141713e7e4a1d6e9c392d8eb12e1d7ad95e3c60",
    ),
    "safety-n10-fast-agg-havoc": (
        "ee85ea5ccef23b0eae00aeb3c5b86a4b4cea6ec87402e4b176b68f910dfea3d6",
        "b3b14a1bfaf91ddc56d4e8f6ec1a4821e2f4e29688f28139c6770925112033dc",
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


def print_changed() -> int:
    """Prints the changed goldens; the exit status is 1 if there are any."""
    changed = changed_goldens()
    print("\n".join(changed))
    print(f"{len(changed)} goldens changed, in "
          f"{len({line.split('@')[0] for line in changed})} entries")
    return 1 if changed else 0


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
        sys.exit(print_changed())
    else:
        print_goldens()
