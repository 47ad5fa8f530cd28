"""Golden bytes: the sha256 of every artifact of two small pinned runs.

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
            "flow.json": "9f33ef7f73afb8be09c49afdf66a81c6372b8b38f0f14391bf446039a318ccd8",
            "report.json": "613b54e0d77898a71c9dc726bfa8e8412db0fd084330c2e0006a50c89f786453",
        },
    ),
    "analyze": (
        ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
         "--out", "golden_analyze"],
        {
            "angle_set.csv": "43b7377a91551fb2a06c460a25f0e4488f204e0e4ce5234984922b214ff8e320",
            "curvature_profile.csv": "49f27cee9fde7473cdceaf7f457ba86f8e8a00ed6c1a3462075b63be2756c20e",
            "report.json": "bbcc3a1bdaf08c4a81d7405d6bacb34e939acf40f06e1440fb9fafd61c947872",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch):
    argv, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    assert cli.main(argv) == 0
    out = tmp_path / argv[-1]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected
