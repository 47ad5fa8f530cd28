"""Golden bytes: the sha256 of every artifact of eight small pinned runs.

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
            "flow.csv": "30a20783c82ab8b686f35a7fa554c5319d207e6536f56689cd0f60d39ed87ca4",
            "flow.json": "52c8d0b45768d1cdea04b6af3f6a05e4ee1f3c0850f983c8f8c75124b4466fb4",
            "report.json": "f0e004d11cab4acce3311563909952dabda733479de0bd219b3b14f8894770a9",
        },
    ),
    "analyze": (
        ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
         "--out", "golden_analyze"],
        {
            "angle_set.csv": "43b7377a91551fb2a06c460a25f0e4488f204e0e4ce5234984922b214ff8e320",
            "curvature_profile.csv": "44f33dc3d8a33da7c7d3f8323574cad8c6c6e861f62af8fa40588629beda2338",
            "report.json": "2b65fb40913d1c2c4ab90f5b4d424090e2dcfec5b221827f33d7002f6624dd0c",
        },
    ),
    # the half-plane saddle solve and its diagnostics, which no other run
    # covers
    "saddle": (
        ["analyze", "--solve", "halfplane", "--n", "81",
         "--out", "golden_saddle"],
        {
            "angle_set.csv": "d80961d8abd639d2a1b501d0f18ac03d7cc8eb31c768df8931edd141d31221b4",
            "curvature_profile.csv": "f7ea890a769524a72067bdf8bfcfdfd695eed5fa50fda031f9d9aa0b7e2135cf",
            "report.json": "651fe95c185ace7ce87451e93f466bc9e6fcf68691582d176a0fc1909d2fc56c",
        },
    ),
    # the read path: the bundle the "solve" run writes, analyzed from disk
    "analyze_file": (
        ["analyze", "--file", "golden_solve/flow.json",
         "--out", "golden_analyze_file"],
        {
            "angle_set.csv": "3dc17dda795832a1c5d9c3077c369bf2cd36fdba994ce536a21e00b80134a9f2",
            "curvature_profile.csv": "fc2d7ea0e6a742b22c8a71a134a94f7ee9f1daa988e37be37ce9063421a9879f",
            "report.json": "33f4cb4c4c32e5cbb30089ea4c6f1131439249245a2f2ec0e7d398488d3cf18a",
        },
    ),
    # streamlines on the saved bundle: one seed runs out of steps, one
    # leaves the strip, one stalls at the wall stagnation point
    "trace_file": (
        ["trace", "--file", "golden_solve/flow.json", "--seed=-5,-0.5",
         "--seed", "5,0.5", "--seed=0,-0.9", "--max-steps", "100",
         "--out", "golden_trace_file"],
        {
            "traces.csv": "544c27a14803f426cf728daeac71d595ae1d60d4c8b81794f37342097bf2138f",
            "traces.json": "1e1f8bed8db0d0d6fdc8c04c2060fedaa98a9c0bc6c9c2194e939ad742693bd3",
        },
    ),
    # closed orbits on the torus, from seeds a period or more outside the
    # base cell, so interpolation wraps on both axes
    "trace_torus": (
        ["trace", "--catalog", "taylor-green", "--grid", "torus:64",
         "--seed", "1,1", "--seed=-2,0.5", "--seed=40,-20",
         "--out", "golden_trace_torus"],
        {
            "traces.csv": "fefcc8c9450c5b65b53760adc7c71195a1f7eae2626a8303a8508ff0819cff30",
            "traces.json": "1b3b0a6c3059275bce0d220cdd39bb968fccacd5d53af259f7f2271233bb2f4a",
        },
    ),
    # the 1D profile writer, which no 2D run covers
    "solve1d": (
        ["solve1d", "--family", "arctan", "--lambda", "4", "--n", "129",
         "--out", "golden_solve1d"],
        {
            "profile.csv": "2ceddb3f3422fe308b978812215d6e1ee4807acdbc45ddd5ae85fcc1c55c4a3e",
            "report.json": "def6121f8a77458c59eb65dfa94e1b1009dbb654afd94d5a18e0fe2c184b496e",
        },
    ),
    # shear verdicts, curvature and stability margins of the catalog shears
    "verify_shears": (
        ["verify", "--suite", "shears", "--out", "golden_verify_shears"],
        {
            "verify.json": "e4ca9c5e60c74d912ba0f29010c3b623cedb582a16317779db6f5973455c8b22",
        },
    ),
}

# runs whose output a golden run reads
INPUTS = {"analyze_file": ["solve"], "trace_file": ["solve"]}


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
