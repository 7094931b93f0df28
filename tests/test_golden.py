"""Golden report digests: sha256 of ``RunReport.to_json()`` at fixed seeds.

A report is a pure function of its scenario and seed, so a change that keeps
behaviour keeps these bytes: every preset at seed 0 and every safety-matrix
cell at seeds 0 and 1.  A change that alters them on purpose says why and
re-records them; ``PYTHONPATH=src python tests/test_golden.py`` prints the
current values in the layout below, then the wider report digest of
:func:`report_digest`.
"""

import hashlib

import pytest

from setchain.bench import PRESET_NAMES, preset, run_matrix, run_scenario, safety_matrix

PRESETS_AT_SEED_0 = {
    "stock": "ec34c792fd00252f8913472b15e39fded5785341b14063df6e6e6ac3e4d90270",
    "firehose": "d280fa2dbc6263c5d330d2feaeac647cb4a8f9bebad0d4dcdbbe9b8c170303a2",
    "overload-fast": "59dee2b871db1eb3e24ad6a739fa59d8c698c2b1f881a7f36aaafb87531ab683",
    "overload-agg": "1a922dbcd208233152d996968de1f189c0c9fff120ceba7e27c7d41fe70ef7a7",
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
        "115cbb6721b6585e8dea0621dc06b8b159908705d7a6358249d5b2512bee0f40",
        "83ecd58b1bfa2eb2f8d03750160ac7e57934fb8da6001244c05eb5f5b3ad5661",
    ),
    "safety-n4-fast-agg-none": (
        "cb9dd225bad9695bab82a3bd932686e07be8a55b2f5c159125e531f38809b1cc",
        "4d14c73cab16ccabe8058a922690647f0f250d788531e8d2b180b2cb0313e70e",
    ),
    "safety-n4-fast-agg-silent": (
        "7d3d8ef5687b2ddf0cada6e0483ed4454659c9dfa7fef142b6386f77432b3862",
        "177ec03dfc8f2c5d153bdc4a930e1424083b33b74b2c98412f43f8c63943bebf",
    ),
    "safety-n4-fast-agg-havoc": (
        "88c38d35285214d414f4821872ffd6cbcc8c4394ff1b9fe4de70fff831d6320c",
        "bb28fc3831e2d6259526b7e621561e66b5a1ba555976db380ee9b8ac262b36c8",
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
        "6c04f4feec63021e0a2a222b7b7175d884d8467d8f68b07babbdadd0803b4f84",
        "810b1e08c228da3a867b11ad4aa53e3ca8a475f03e94aef41e9f241cf2515431",
    ),
    "safety-n7-fast-agg-none": (
        "2daeda9faad611de066127531f2279eef7c1de7bf8b2a8eb14dcf7279b13db03",
        "03219a3811cf1e151b8de4ff74744eb568436f122ba54c013937b4a74001174c",
    ),
    "safety-n7-fast-agg-silent": (
        "196b2e3cb749e3f03b39391f7010169005fcf5b291407f367d42f84e39bc8e18",
        "c3b1fbab029493b1c2429276271eb358829cd105a1cbd567051113a641eca071",
    ),
    "safety-n7-fast-agg-havoc": (
        "cde5fd45c440303a84d8b663aaaebb62c57f3d6ddb7cd0ce40ba34a8610eaf30",
        "292a56d27d013763eff35300ba6e4b11dadcd526f3ae357af33b3a2ac97e31da",
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
        "defc196d0a76bee0c08d5528c5390249fd1e60a8d40fdeba1e26b150f9a26cc9",
        "dbcb594c80f702eb06d81452be068f211e4fe601c7592e5d120ebe168032da83",
    ),
    "safety-n10-fast-agg-none": (
        "022562adfd8ed1eb5abba552eb09c1c0b6a179682065f5358f4edfc1284d91dd",
        "a041a3bafe20371150f5369f2f4c0a2a2ebf548e74d1bf6faee76ead750df4be",
    ),
    "safety-n10-fast-agg-silent": (
        "1bfd4fdc50d01e89beae5c81a1049e29bf9b32d0970b5a91510e0008bb50a174",
        "881c4f25e271bd1e3b256bc1fe3f0bf17ccc16690b4130a8a4f47ab09c0542a7",
    ),
    "safety-n10-fast-agg-havoc": (
        "52fad22b2f85f27ed995bd46b8072def00ef5e192445f38e261b66a076007e55",
        "caa5bbaada4fe436f7eed0e0d6cc011950b1d3990f1f9f0523ddfea942207210",
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


if __name__ == "__main__":
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
