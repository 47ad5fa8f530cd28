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
            "flow.csv": "4ac6a9a8c379631cda995af1ccc752d9e48ed160a2b9cbeed174b9f0d54eb32c",
            "flow.json": "5e9a6dc4656c62aaecd44af107be1c0dd9a19ada6e76cc1a0a7670e40c0bf9c1",
            "report.json": "ba8203b5fd7b0e90ff8494966f87bc11d635fdad3afd30258e5ed33cd5556e60",
        },
    ),
    "analyze": (
        ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
         "--out", "golden_analyze"],
        {
            "angle_set.csv": "43b7377a91551fb2a06c460a25f0e4488f204e0e4ce5234984922b214ff8e320",
            "curvature_profile.csv": "44f33dc3d8a33da7c7d3f8323574cad8c6c6e861f62af8fa40588629beda2338",
            "report.json": "4689ac017fff5b7e0e9fbcc647b3aecfc9ea901ca52d3a04420be74f0a554b4d",
        },
    ),
    # the half-plane saddle solve and its diagnostics, which no other run
    # covers
    "saddle": (
        ["analyze", "--solve", "halfplane", "--n", "81",
         "--out", "golden_saddle"],
        {
            "angle_set.csv": "397284ea83c4b26a4a11f5245e5116234f2103b3b0804285cb43e74294fb9b44",
            "curvature_profile.csv": "a56030f49c6d3976c8a2ca80cbf4bed915b54226d6ad0a0d62439b826f6f62f2",
            "report.json": "06ee88e64c27beab7ee151b39ef86fdc808ac7d2bb429a594068d5512e8456e0",
        },
    ),
    # the read path: the bundle the "solve" run writes, analyzed from disk
    "analyze_file": (
        ["analyze", "--file", "golden_solve/flow.json",
         "--out", "golden_analyze_file"],
        {
            "angle_set.csv": "8bff67e5a3d6b8c8456d3114c0cb3cf2234629c781873fb1f91be5d434cdeecb",
            "curvature_profile.csv": "3976d24848c3ba7c7d9a2889d8e7085db19bcbf9ae2ad2033a257460c1cbaafb",
            "report.json": "194ed349223bd61c1303699d969589205ad226a55fe666c516ac07d06e154084",
        },
    ),
    # streamlines on the saved bundle: one seed runs out of steps, one
    # leaves the strip, one stalls at the wall stagnation point
    "trace_file": (
        ["trace", "--file", "golden_solve/flow.json", "--seed=-5,-0.5",
         "--seed", "5,0.5", "--seed=0,-0.9", "--max-steps", "100",
         "--out", "golden_trace_file"],
        {
            "traces.csv": "1106e0e0db055fa25de12927b41cc8fd97a6bf04a56c6843f7ad42e97dfd4adf",
            "traces.json": "63e3555b324778618fb6416cd8783c0740654a3e7220fe6a165e72bfd3db8b5f",
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
            "traces.json": "34440c6e1b650ad45fde96dbdfca325fe2da5e4ef1f01ab0c5e72088a200571e",
        },
    ),
    # a node table of 51,681 rows, which spans many blocks of the CSV
    # writer; the other tables fit in one
    "solve_halfplane": (
        ["solve", "halfplane", "--n", "161", "--out", "golden_halfplane"],
        {
            "flow.csv": "ebe7f2f5866b9d2643774def88808d563919bffdce7e248da1b7bbe0e538d646",
            "flow.json": "99bbc6e43b36d7de5e97c412737349d8dca7f2eaee370f5f34e3342ab5075229",
            "report.json": "edbe1da522d4d711727a0d808bc5b8b9c2d33bdd37c5a62773b5d9e2441d3ee1",
        },
    ),
    # the exhaustion variant: zero far-field data, descending from the
    # profile, which no other run covers
    "solve_zero": (
        ["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
         "--far-field", "zero", "--out", "golden_solve_zero"],
        {
            "flow.csv": "58fddae511d59e08e48ff7586f51a6b1615a46519430eb13b252d4dab4ca5109",
            "flow.json": "464e9d9ee96f1420250345aab5b7a3dae39706fc6d0704aeaa889f81ea2f95b2",
            "report.json": "d6c73b959b18c2038cf4ff679878670bd05c82fec232ce325f88d8843b66c2f0",
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
            "figure1_separatrices.csv": "3789c420be38ea950f49e54b7888b6417058323adb4180136389189ab03db008",
            "figure1_separatrices.json": "93f8a96048976da3c5058bed26b50ebb142716f34e6f3d110522af40b1c7f578",
            "figure1_stagnation.csv": "3b85fc86564113845a61e42737798d2d62274248d42651efba1493c78519a9e9",
            "figure1_traces.csv": "6e2cb5ff19a7e60e67507adec57b2f018e8e9b18566b57fb9246aee12fba0953",
            "figure1_traces.json": "622347d91cc7a41149ec5ca5abf2fb1787d63f3cccee34ec9a2e0eb85f8ac06e",
            "figure2_separatrices.csv": "31226bd1becffbca139f1ad6d7f11a82a3d816c8900323c802e837a98d555dc5",
            "figure2_separatrices.json": "02dd5ce0142a108e112987e0b6bc3965cd83deff01d57e11d8cc529edc8830b0",
            "figure2_stagnation.csv": "0c5409659714c2de1670c7ee130a9049bcc91925df939b2ea296a088a77e3de9",
            "figure2_traces.csv": "d01a17022efbaa2f817621f02cdf8521158692a3765d1ba11e47eec76fc2b71a",
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
