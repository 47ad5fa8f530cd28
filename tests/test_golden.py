"""Golden bytes: the sha256 of every artifact of three small pinned runs.

The README promises that identical resolved configurations produce
byte-identical files.  These hashes pin that output across refactors, so a
change that moves any number in the last digit, or reorders a key or a
column, fails here.  Each run writes to a fixed relative ``--out`` inside a
scratch working directory, because the resolved configuration (output path
included) is echoed into every JSON artifact.
"""

import hashlib

import pytest

from eulerlab import cli

GOLDEN = {
    "solve": (
        ["solve", "strip", "--lambda", "4", "--L", "6", "--nx", "97",
         "--ny", "33", "--tol", "1e-8", "--out", "golden_solve"],
        {
            "flow.csv": "f21c37be86c10ab38fb92597aefbcdc11117761aff322ad4fdebd0a1abe4d456",
            "flow.json": "ab4bdc4d14e78e71b27c45a04664f4fc317f36a1e08685c71d25fa38dde8dbab",
            "report.json": "0b12e1f00b2434dda3d71d61cda4b6932702ff6a8de930e94a51cd17c1be4f02",
        },
    ),
    "analyze": (
        ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
         "--out", "golden_analyze"],
        {
            "angle_set.csv": "43b7377a91551fb2a06c460a25f0e4488f204e0e4ce5234984922b214ff8e320",
            "curvature_profile.csv": "49f27cee9fde7473cdceaf7f457ba86f8e8a00ed6c1a3462075b63be2756c20e",
            "report.json": "3f055d387ddb7f464efbd9eacc2bf6bd6b8a8d32d4e86b48ba77a21f5deea1b1",
        },
    ),
    # the read path: the bundle the "solve" run writes, analyzed from disk
    "analyze_file": (
        ["analyze", "--file", "golden_solve/flow.json",
         "--out", "golden_analyze_file"],
        {
            "angle_set.csv": "fa7b69e0e63d56d6e3511c5ab2c49192e6e010d4ecd4452d6a548d942747fe67",
            "curvature_profile.csv": "707b2abffa92832d2f0e3043f8c28a116d63c436ccb0bd7a5ddcc116aa128b25",
            "report.json": "a8fcfb6b8a2eb1a343ac7a4706c405151be781971447da4c9bd859d9123eda10",
        },
    ),
}

# runs whose output a golden run reads
INPUTS = {"analyze_file": ["solve"]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch):
    argv, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    for before in INPUTS.get(name, []):
        assert cli.main(GOLDEN[before][0]) == 0
    assert cli.main(argv) == 0
    out = tmp_path / argv[-1]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected
