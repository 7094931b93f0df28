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
    "stock": "198f4c25bffe76c5ac6f27ae1c42a2e867824e47c07ada786f58d107aae60488",
    "firehose": "7a65f0557ebc419d9ec8c735c84db4297f5457aa29c68537c38bd54591a417ec",
    "overload-fast": "0fe2238aa805296084f2c73dc438aa9d39665bd3a3896749abf4f018ab208fe5",
    "overload-agg": "dc582a1c039c29e44f595bd5d2b26c6ff6333ad10a3a41297a841669ad100cd7",
    "large-none": "e297e220892fdd92b61773cae3166b95087e49d823eaca397faeec0c0dde0752",
    "large-silent": "b43d850e2b0d179844ba586d8b271eb076d2e73b987b2dd7ee60e7e1cf97b157",
    "marathon": "9e3cceb85563c961446507b6a7cc7dbfd600037af898801efe1c6cf15a8cd460",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "dda29ce07ccbf04cce0e2bb1dee5eb96987847028afede4ec015e34f7d2c9b98",
        "073d4e49738425e4ea26340bce9e47d2e1aca03e6cf7de90b92f668dc11b9ab3",
    ),
    "safety-n4-fast-silent": (
        "9384057dde36a5efed0c7d4fee7f14c9b4684316a3e22c26c28be2c7c47712da",
        "8f776180f1e4a280d389dec9c2ec68305924299df88e85ffaf9d9b4e9b771a21",
    ),
    "safety-n4-fast-havoc": (
        "65807bd4e4cc08d691a96406c14f9df7f1b3dc50a37bd5929598d28462355a9a",
        "241bcd0ab70a8eb0355d0d84a094b3580b71f25b81c8f298bb8bc2dd20a00568",
    ),
    "safety-n4-fast-agg-none": (
        "1a7760b10075f9668f519951710ff855aeb817bc1c80928d9b8472a7130e238b",
        "7e9d9f3691bc4f321f50f0b1a26ddae902888b327c4b3b4d2d330f50efd2ff3c",
    ),
    "safety-n4-fast-agg-silent": (
        "9e0773662ac45e3ccfe15509ca340efe383c4c9f01892d6d9f89bdb46df14325",
        "aecebf3471f15b34ff833fadea8e0039c1ca233c2258a527af2484e8b23d493e",
    ),
    "safety-n4-fast-agg-havoc": (
        "d1b847deaae37be4b476d151598487897fe4922e0b1731b5ae069a6b67ca603d",
        "397a632d2061e6adbdfc6667a719dcc53cff67c34f773c2945924680e8470391",
    ),
    "safety-n7-fast-none": (
        "2d706b4cf6be6713dbec99347cf3bdb2840b7dfedbab7f20a26ce85e5a144da2",
        "8bce0668d3e9dfbb90e94528347ed8c5d4b4a5a73ed4d2a5df9954286308eec0",
    ),
    "safety-n7-fast-silent": (
        "260331f5468d896bde3845327dcec49a16e5f122b9d25544f260fabb68201920",
        "271c89b3c91329fee995da8891aa52ae1cb03003549f35afde4c3bd941cb8348",
    ),
    "safety-n7-fast-havoc": (
        "f0d845f82bf46f172b2a5875e4ad043969c97f94cedb24f483b5ef36b941602a",
        "30b362ab52a371ece73fb87003b5d216a6704c0c5002c1e2ea651f04de081478",
    ),
    "safety-n7-fast-agg-none": (
        "6d72582d38c2a3643e8ea0a78dd645b6c9980826937721940a1d83d3618535f8",
        "b5ea4d3995bed4848079ca3266b592038561d89f9304ffcd3e18e6130094efd2",
    ),
    "safety-n7-fast-agg-silent": (
        "7f78af7491434acc990cabb4738fb86bf1bf17e1796f6ceab71257bc9b9fb63b",
        "a0c5d8ae8518e93ccb0a0339bfcfb95bd2edf9a24e3b95c2d889e84fc4b14f53",
    ),
    "safety-n7-fast-agg-havoc": (
        "bfb7ecc6f75df31366f3565b81e9bee30943ee9306c0cc0042ad4f856ce37805",
        "6410b55eddb1a64832a62cc9186a48e5fcfcd5784e6bf8699724b97c7c3c0d80",
    ),
    "safety-n10-fast-none": (
        "079a129d229d0e6edda8a69a7c0cfcf4f72f76a77669948e3ae5bf22d26b89ae",
        "b026f5e415a68bf4dc08bbdc2adff923018197d1bf70a7335e2c77e556bd1731",
    ),
    "safety-n10-fast-silent": (
        "60cca3d81299a8b0f6117ea8271992b6ebfbbc68ff23ca3b6669f9a8b0a0f906",
        "bf8b91e28c3862872914dbfe1a7a33438ca3af65dba2d40d7f4fb43e70a59df5",
    ),
    "safety-n10-fast-havoc": (
        "e983d6906f6943e5a2c901672e0353f39a010966c7a039fab818e615e56cc99d",
        "a70495dd46787d5192a95394bd36cb508078bf17973de56e40ceef3b8a2b7857",
    ),
    "safety-n10-fast-agg-none": (
        "ed5f60b27143acdf66050d21f540950e3109bc3f02d2ada95cc937532d1a942d",
        "aaf20d48ce86f3f62a6457ac760e677a14b921eea5cd84481f81ef929e1f30e0",
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
