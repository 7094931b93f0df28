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
    "stock": "d8dbdad21a7d9d7cb09d3f387cc29cfa45b882d8a8f4514cb9e1ee9887fcf137",
    "firehose": "8b498e015a09ae6cf4025a96957afafdcfd3430f8404070ce8e0a213e3c3130f",
    "overload-fast": "afa792571e5f24317bf6eaf616c512c12919b3598f8a902fa63a028377be0654",
    "overload-agg": "5d6d25621332b7645c9a9623bd41f4d9f2a41e40d1c590932d69d603f695a724",
    "large-none": "8bfda87073d8627db7e0142551c44609c2a264fe922deba092e53eae4f8c0724",
    "large-silent": "f25c5d9b5ab9a01283a5700c573e37c16b798f00df78e3eb38717992ee9293c0",
    "marathon": "cd71bf66e8720e5752e574a0f1b897b539d2e05e96f71c91d3215f37882d5e96",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "42fab5206c058b2a958aa9103ccd843b6e80a36c429cc9f975c8f1f6b9246d60",
        "ce7862c1396d48f9f93151fd1ac4bceeef2e9639bdb1a50164b1b9d9ab0b4999",
    ),
    "safety-n4-fast-silent": (
        "fe798047b1b023548326cdf870d94ed294e35d00d4c987a5478b0dd14b2b7711",
        "5e2c8cdf211fe55bd09ed885ab97fe6ef6504c5d40fcada6dbedba5da6d2a68b",
    ),
    "safety-n4-fast-havoc": (
        "dfcd425b3a2e61d78a9ba90399509edf2ad3726533cb0d7417c27b1f8365d6d6",
        "da860eb539c219cd5fe658bd803100a7c40fe03c375bc9a69396819bea1d637c",
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
        "c5ed62c8e348aa7d2f908a52d886e75a0d3f59833398e95609ef4b9d42a94c0a",
        "872dc244199102cea6207f2f133467e27cc5da8b200b56c4304de858e5c12b0a",
    ),
    "safety-n7-fast-silent": (
        "7834dc72e09b539f761cabf90646f71db75d7c59f797936c327d3ba23de91282",
        "d1097fa1631494282e8e8855e263a38a86c9b5af01d1b419ba30a370edb47357",
    ),
    "safety-n7-fast-havoc": (
        "0c6dcf2ac0a8f64b131f28e038744071a52633dc8d5a8f9bff8ca0616ce5388e",
        "8c6cb402ec13960b96a6858eafcfa85b2b785f33d329b214219549988b83f7ce",
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
        "3dbf8855b3eae257a6a17afbef12a950c360ba0ab95594b97d24d87c3d125e28",
        "273405db78a3e4f0bc3afcc0c7833d9b69e067dba808dece1232ccc3a4de1d8b",
    ),
    "safety-n10-fast-silent": (
        "c77b810ea6c5840d5c88e3a860bc11b57a092415a0e9d56ee8337765e1ca7b98",
        "dde38e4bd9be8c840370800fa2a016870a103a2d8cdeb77972c8ade915900a03",
    ),
    "safety-n10-fast-havoc": (
        "9072ae61e07cb6aea59205b78d971b958543236ddee770321db479f87d09276c",
        "632a371c94bd6964b051877e6d4d211c5c0b1d9ad9c2a1584ed402fa4b4e3731",
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
