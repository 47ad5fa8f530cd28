"""Golden bytes: the sha256 of every artifact of twelve pinned runs.

The README promises that identical resolved configurations produce
byte-identical files.  These hashes pin that output across refactors, so a
change that moves any number in the last digit, or reorders a key or a
column, fails here.  Each run writes to a fixed relative ``--out`` inside a
scratch working directory, because the resolved configuration (output path
included) is echoed into every JSON artifact.  The acceptance-size flows
come from the session's flow cache, so ``reproduce`` adds no solve.
"""

import hashlib

import pytest

from eulerlab import acceptance, cli

GOLDEN = {
    "solve": (
        ["solve", "strip", "--lambda", "4", "--L", "6", "--nx", "97",
         "--ny", "33", "--tol", "1e-8", "--out", "golden_solve"],
        {
            "flow.csv": "29c960ab4071cb44ffdcdc4683ee1270bdbd1d7d08c571fbf9a60ad7ab16ed43",
            "flow.json": "523998fbc7d31423cf63a0ec54c9f8656092b78747723d0130095c199db482b0",
            "report.json": "0e1a027b58294f7bd3cd2036e5860507db9e9617be866b07cd8aae522a390b52",
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
            "angle_set.csv": "cddd91778d7e690da2d6a444d02480d2a79761e02286dd4323099811762367f8",
            "curvature_profile.csv": "a0fbd7e8b27a8d4128e7b10953ac649c1508569bc1724544c9edaca28b8111fa",
            "report.json": "00fc88ab8ed59860584c7c263caec8021949e37b197235dc39dcbd2bb709fdb8",
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
            "flow.csv": "0bedbd3d2a414c1920298dc9c8efc19a9ea9fb5447f63436c06fcfd29b12d0e5",
            "flow.json": "0cd2ba1c4912075c73708500e398041ab0fcf07e562f289181c3272b3cb646ff",
            "report.json": "831c0a3755b18f766bfc6726ee50c2082cae270024661edb5ecb4ef94e1eb662",
        },
    ),
    # the exhaustion variant: zero far-field data, descending from the
    # profile, which no other run covers
    "solve_zero": (
        ["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
         "--far-field", "zero", "--out", "golden_solve_zero"],
        {
            "flow.csv": "58fddae511d59e08e48ff7586f51a6b1615a46519430eb13b252d4dab4ca5109",
            "flow.json": "c04b6c21cec853bc8c31d0d1919e7310fee7d2d1c5a0024f83d1b6feed3e2684",
            "report.json": "d6be0b96df89ac73dcd30db91596e3876ce125175fb5f14f7c7d3a723135fd1d",
        },
    ),
    # the heteroclinic writer
    "solve1d_heteroclinic": (
        ["solve1d", "--family", "allen-cahn", "--n", "401",
         "--out", "golden_solve1d_heteroclinic"],
        {
            "profile.csv": "40a1e5e1acf64aded93d25ac9dc5725735e4a19624fa8eec1eaddf389ee245a2",
            "report.json": "bfa5a30babf38b85123ec9ce6670b398758fd182d1b95f25770ee5e480329484",
        },
    ),
    # the 1D profile writer, which no 2D run covers
    "solve1d": (
        ["solve1d", "--family", "arctan", "--lambda", "4", "--n", "129",
         "--out", "golden_solve1d"],
        {
            "profile.csv": "2ceddb3f3422fe308b978812215d6e1ee4807acdbc45ddd5ae85fcc1c55c4a3e",
            "report.json": "95071ced888e0f91a98346bb6d0bf901a3d533b01565029f70a04d6ce79ba2ac",
        },
    ),
    # shear verdicts, curvature and stability margins of the catalog shears
    "verify_shears": (
        ["verify", "--suite", "shears", "--out", "golden_verify_shears"],
        {
            "verify.json": "c94d3ae004a3566f23cee4b6cc958307f04d722450d41613bd387378a4aa0a2a",
        },
    ),
    # separatrices (zero level contours), trace fans and stagnation points
    # of the two reference flows, which no other run covers
    "reproduce": (
        ["reproduce", "all", "--out", "golden_reproduce"],
        {
            "figure1_separatrices.csv": "3bac435b5e8a38b0b15965a804bcee59ce56af169d67a013fbda59acc83ff0c2",
            "figure1_separatrices.json": "93f8a96048976da3c5058bed26b50ebb142716f34e6f3d110522af40b1c7f578",
            "figure1_stagnation.csv": "e4541856bd362fccd3ec313b5a70c0943d6d9f2c82d064325bd3baf86360848b",
            "figure1_traces.csv": "36ca99cbee0258ab349c12b0e8d0fb36b1b8d111438ffa1f93e8357701f2aa2d",
            "figure1_traces.json": "622347d91cc7a41149ec5ca5abf2fb1787d63f3cccee34ec9a2e0eb85f8ac06e",
            "figure2_separatrices.csv": "31226bd1becffbca139f1ad6d7f11a82a3d816c8900323c802e837a98d555dc5",
            "figure2_separatrices.json": "02dd5ce0142a108e112987e0b6bc3965cd83deff01d57e11d8cc529edc8830b0",
            "figure2_stagnation.csv": "5ae49f44f2675165511cd8c529818428c2fb21ac4e45810dd5fcbee80a88682b",
            "figure2_traces.csv": "92d7df2c3e93833101eeb46a0f2f098cd70024ce5e87a5b20dc1d24cf9c63fe9",
            "figure2_traces.json": "5cd764f61ccbe0c63d70227a2e8c9183cdc3d826597fcd50905b6138c06dfd79",
        },
    ),
}

# runs whose output a golden run reads
INPUTS = {"analyze_file": ["solve"], "trace_file": ["solve"]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch, cache):
    argv, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: cache)
    for before in INPUTS.get(name, []):
        assert cli.main(GOLDEN[before][0]) == 0
    assert cli.main(argv) == 0
    out = tmp_path / argv[-1]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected
