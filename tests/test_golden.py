"""Golden bytes: the sha256 of every artifact of nine small pinned runs.

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
            "flow.csv": "29c960ab4071cb44ffdcdc4683ee1270bdbd1d7d08c571fbf9a60ad7ab16ed43",
            "flow.json": "883625be4ab44f9327b6aff8428d71b6dbedbbdcf84a921d308b22573fc2ad22",
            "report.json": "73c10bce277e074fdeaf3e888d8967b0d8b0a394714598da76275f7d5abe654a",
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
            "angle_set.csv": "f5ac7543610951de4cc3f8f65a1ec4cacd377bad2913aceb917cebeed8ef33da",
            "curvature_profile.csv": "a649518edd8bfea77b1083e5464c3914940fe3bcf10a8328668927859a1b70d1",
            "report.json": "fc714fcbb83e8ec166248e760c738813211f2a942bbfa2d94c4274abbb74aa67",
        },
    ),
    # the read path: the bundle the "solve" run writes, analyzed from disk
    "analyze_file": (
        ["analyze", "--file", "golden_solve/flow.json",
         "--out", "golden_analyze_file"],
        {
            "angle_set.csv": "50cc18a31599f8e89ee33eb930f454c626c0a9deb1292234799627178de27476",
            "curvature_profile.csv": "e818f865ada424720826bd2a69369fa3cf3e66122233430a7a399552cf2a06f9",
            "report.json": "198b2be56150d3e70373b2e671b1d538230ca91d35df084d533df63057c48191",
        },
    ),
    # streamlines on the saved bundle: one seed runs out of steps, one
    # leaves the strip, one stalls at the wall stagnation point
    "trace_file": (
        ["trace", "--file", "golden_solve/flow.json", "--seed=-5,-0.5",
         "--seed", "5,0.5", "--seed=0,-0.9", "--max-steps", "100",
         "--out", "golden_trace_file"],
        {
            "traces.csv": "5c3812bad83bdaf8b3fd7b8729fe0c80d59e1af77a1e6a1701738e07d07f85c4",
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
    # a node table of 51,681 rows, which spans many blocks of the CSV
    # writer; the other tables fit in one
    "solve_halfplane": (
        ["solve", "halfplane", "--n", "161", "--out", "golden_halfplane"],
        {
            "flow.csv": "6165010d59bf1e95d6af6bed1f477368221c26789f21d4dc8864990043f62c28",
            "flow.json": "643e81feeab39cca80e262f43ffb26a005ce5de4ca989ccc7edb56fdcc1b174a",
            "report.json": "d1f12f7776a01e50d01fd893b07b03d920cc08e091faa5e1263fbf01acc90832",
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
            "verify.json": "c94d3ae004a3566f23cee4b6cc958307f04d722450d41613bd387378a4aa0a2a",
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
