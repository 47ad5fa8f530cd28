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
            "flow.csv": "cae6aa0d4403815850dbe1ba5091b4d95eaa5d9c7b5fb9853a84feb7cc729d4b",
            "flow.json": "70ce62bd94d6b8e8986a4d02b59c7d87dde80a019e5c2ebad31ac79d605ae6b8",
            "report.json": "d096e9e599f525f77a9fd7b6e6f59bd4225cd24379f773ab859676dde2601c02",
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
