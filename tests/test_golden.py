"""Golden report digests: sha256 of ``RunReport.to_json()`` at fixed seeds.

A report is a pure function of its scenario and seed, so a change that keeps
behaviour keeps these bytes: every preset at seed 0 and every safety-matrix
cell at seeds 0 and 1.  A change that alters them on purpose says why and
re-records them; ``PYTHONPATH=src python tests/test_golden.py`` prints the
current values in the layout below.
"""

import hashlib

import pytest

from setchain.bench import PRESET_NAMES, preset, run_matrix, run_scenario, safety_matrix

PRESETS_AT_SEED_0 = {
    "stock": "2be708e61e5d8f82f78862ac3add740ae1ed6fdd4a8a0792920719dced54116c",
    "firehose": "a617fa360bff5d6a2775fae17e9234f0587a7d761614c1ae7ceb68aa2f22e65d",
    "overload-fast": "e030f29fbbd5bae812dd220225abf2ea1c92920b961a2630ec3ba744de7827ba",
    "overload-agg": "0dffab0fd17487d17cbfe98400567df102250ba8e28780054bbac98a20542d88",
    "large-none": "be880927ae4cf4350124cf21f588080fbf6dd7e3fb369009e05ccb150325b9e5",
    "large-silent": "240915560239ba090a2f7d09d80d715a48c46aa7e74b4bff14a6824f1d022205",
    "marathon": "16a69c7b32b81cac1313be9a181a9938ad642f0bd76f4c03ddc1523de38ce28e",
}

MATRIX_SEEDS = range(2)
MATRIX = {  # cell -> digests at MATRIX_SEEDS
    "safety-n4-fast-none": (
        "084af166e1ede394676b7d844651fab9410d9e900dbd9ce358fc64ec0f12a14c",
        "6d63cfd037dbe4719d40b506e28d9ea5bc6942ece3c555e48cf50b11aa993a29",
    ),
    "safety-n4-fast-silent": (
        "3d2ac0c3a1d94ff06af7a710f6a62fe1a73f667a7597790db0d9c89b0b342091",
        "e9582fc70c168a579d5e2fe167923a8d0ebfd54e889baf08ab7cdbde474695ee",
    ),
    "safety-n4-fast-havoc": (
        "fb46eacb79e9801ecd5557fae6ccd972550ae787181a5a97199c4a32e98cd17a",
        "73cf21412cc6aedc057a0cfe9ef1e58130c29cca23742e55afd3386c79a25d1a",
    ),
    "safety-n4-fast-agg-none": (
        "f141f706844bda6ecb2a47531f7a4437bb458f2560054475493d41f5b93e3f55",
        "f7e1fefc1e157e368d58d039ef70b1e556124f89294717d37e5f50fe00404e14",
    ),
    "safety-n4-fast-agg-silent": (
        "b20f9a0f01257b221179b6bd4e0d5ceba761fd4df790d0ca624eef8160e7bc42",
        "0a1b927bbecf237d094e30472ce8d74d8a036d1ebfa35b3aa4969b119c384b51",
    ),
    "safety-n4-fast-agg-havoc": (
        "e473566ad1e107e2c8f5c83b8753218491ae63b704ff6bf33d804562a4ca0b7d",
        "6e4e634a13c347880c0fe41b7804a84d52c169b7d8b562bf793b62e40b934029",
    ),
    "safety-n7-fast-none": (
        "839d7ed6933461ea8c3471607729ff7cc7251305ab9e0eb0526c97c22ec7532d",
        "52237fe700320d5296b638807c6bf4d1e091686f008421e33f3b82b93066c3cb",
    ),
    "safety-n7-fast-silent": (
        "c2537ea74cfb1c658e1412ce234225eab0e2db6466ad80978335c408042b8bfa",
        "910af97e34b8da12088557d33ede211c119929a4f32268e70d55eb8bb1a74a11",
    ),
    "safety-n7-fast-havoc": (
        "f42d5769ef026f26f6e1bb557cbcc5f02b596899cf0e075a488bfa78ad6d2769",
        "c0ddff82714d6c009e0f877118726bf419a6168bc70117655fc33c0e99aeae37",
    ),
    "safety-n7-fast-agg-none": (
        "6cee677f1c924fd29931dc38f0a9e12d2a3f517c7b160d87715c865dd113e16e",
        "521ed7c55337e4cba9c2710999f1187a45347cce72b241356e005db7c27a6ca8",
    ),
    "safety-n7-fast-agg-silent": (
        "37c62360e79da645878a9929bc4c71fb9e61590ccaf9e54f623c0d9805319745",
        "8fceedc8652994a816be57bcd7b2e5582f9ccdbb7528fe9aa9f6129db284a54f",
    ),
    "safety-n7-fast-agg-havoc": (
        "6966702bb34274b0bc6300ed57ae296e869dad4a30dad0e131d779a7cba18767",
        "4c8339270dcf0aa2b63f9ffd1ae0640bff6f5d9a12d4070c84f586c3e08b478f",
    ),
    "safety-n10-fast-none": (
        "6efb389ceae773c3451f8c3960da8dd682a8d5ebd06349a8dcf0ad4992969f68",
        "52429ab21e2ec55c2716b3c502590a9687189e906da9f02518a0a1ff83fad897",
    ),
    "safety-n10-fast-silent": (
        "4c36aae1188c9bf4e5530794fc15c099662408c1b7687af2697cfa95fd1c5bbf",
        "7d88f85c2c45203f74438dfca5e97ac182b151d81af37da3c052b685a2800cea",
    ),
    "safety-n10-fast-havoc": (
        "bc55d7be232eddc5c7a9638fdf19f38b47d23c379156c73c507ca937c6b72be9",
        "7c7a764ed43360ed40714a1748c7e594f06606a34ec8798af74918e980fc4613",
    ),
    "safety-n10-fast-agg-none": (
        "703c0b4b0a8d461b3f75e8d97f46a6447bf95e316a3d9f4c5fcc74bdc1248c1a",
        "a068912377f9ca453f5c049e9abffd297f0c17f89be7139e19d9ad01a4c19ad5",
    ),
    "safety-n10-fast-agg-silent": (
        "8161222fd320932cc24986bf249eaeee276b2ad271b73b787a66810fa6cfd479",
        "15cbc7a2e315d0d278d37281c793067254e72679202e792887a763908c829404",
    ),
    "safety-n10-fast-agg-havoc": (
        "bb35c9d0670d1d39ca67c6b0a64f7f7cb0f49fe8e5fca3832ccd4df0aa95a15e",
        "5f1880730413a6d8a1b8e17068e2fe55640282f43b579cec5a0c82f2228bd2dc",
    ),
}

CELLS = {scenario.name: scenario for scenario in safety_matrix()}


def digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


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
    print("}")
