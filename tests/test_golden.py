"""Golden bytes: the sha256 of every artifact of fourteen pinned runs.

The README promises that identical resolved configurations produce
byte-identical files.  These hashes pin that output across refactors, so a
change that moves any number in the last digit, or reorders a key or a
column, fails here.  Each run writes to a fixed relative ``--out`` inside a
scratch working directory, because the resolved configuration (output path
included) is echoed into every JSON artifact.  The ``verify`` runs take
their flows from the session's flow cache, so they add no solve;
``reproduce`` solves its saddle and strip itself, as the command does.
"""

import hashlib
import json

import pytest

from eulerlab import acceptance, cli

GOLDEN = {
    "solve": (
        ["solve", "strip", "--lambda", "4", "--L", "6", "--nx", "97",
         "--ny", "33", "--tol", "1e-8", "--out", "golden_solve"],
        {
            "flow.csv": "1d4e5fa7d5d600c24410cf11aba166fd93e94e5752bcedc4401aa8a8e8814f03",
            "flow.json": "c542b45f98368f728bde0ffe179f55146bab92d932559b8bfe1d0f93612f42f6",
            "report.json": "dfb5919a7b082e30575d313632d69a37c02dca8b947a89257b98446ce0440870",
        },
    ),
    "analyze": (
        ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
         "--out", "golden_analyze"],
        {
            "angle_set.csv": "c514c09bfc492fe179019e4e40a2344ad5efee90639be3a8bb54de7ea4126895",
            "curvature_profile.csv": "44f33dc3d8a33da7c7d3f8323574cad8c6c6e861f62af8fa40588629beda2338",
            "report.json": "4d9719942c0303c5a10eb4a3f0189b71b528cc65ffd9b460be69fd81b8f3a869",
        },
    ),
    # the half-plane saddle solve and its diagnostics, which no other run
    # covers
    "saddle": (
        ["analyze", "--solve", "halfplane", "--n", "81",
         "--out", "golden_saddle"],
        {
            "angle_set.csv": "652a298cb4701f830882d859db90bc4707e0e6a5bd9c24ca8b85973132e2b5ba",
            "curvature_profile.csv": "7634cdc73d19400b1d4d0a108e213c5ccac03082ce20e85b38a9cab2154d3a9a",
            "report.json": "4f6205981a7a1a244fdd7f1656e1a01f0051204eb28a825bad21e3879730ca8e",
        },
    ),
    # the read path: the bundle the "solve" run writes, analyzed from disk
    "analyze_file": (
        ["analyze", "--file", "golden_solve/flow.json",
         "--out", "golden_analyze_file"],
        {
            "angle_set.csv": "fb8cdccebc6050058591e87ac963c4052f2be007a4eb787de7d0c9ca6004bad0",
            "curvature_profile.csv": "2ca289ec1b1597fc34df1ddb4c6aff02cf4ae04f4e0d0150cac77a0c73d42a7f",
            "report.json": "c5f1e8aafa4de85ca39905d0ab394f1e61e1b970b599bd5aacd00f6c94f8e0e6",
        },
    ),
    # streamlines on the saved bundle: one seed runs out of steps, one
    # leaves the strip, one stalls at the wall stagnation point
    "trace_file": (
        ["trace", "--file", "golden_solve/flow.json", "--seed=-5,-0.5",
         "--seed", "5,0.5", "--seed=0,-0.9", "--max-steps", "100",
         "--out", "golden_trace_file"],
        {
            "traces.csv": "056d140e6d616a1ebb4004f449dfbc70f518e6b9ebed481e2853435511348a5c",
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
            "flow.csv": "1b02b09d4a1d4d7ff01fcf743f194762c725104fc492d3ddd0bd8bdeafd5eb74",
            "flow.json": "a5a52fdbfdb4edf6b315770eaa19c448b52d4850b7234d7baae78f4165bfa039",
            "report.json": "aed43307744fcec0c6c0b546167b93a8c208ad37275cb64430e47a365ed8cb84",
        },
    ),
    # the exhaustion variant: zero far-field data, descending from the
    # profile, which no other run covers
    "solve_zero": (
        ["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
         "--far-field", "zero", "--out", "golden_solve_zero"],
        {
            "flow.csv": "7d08f3bfe6ea2293eef724a2b0e79ff417db7c37843e703f346906aae206b636",
            "flow.json": "c6ee534709433e369bec4c64fc9f634622c606fa10529d96b5577e5a6e0a0996",
            "report.json": "af4f24cc94de1ad8f5ba0ab504dee4ad187e25e567589babd81bb09a341b27ee",
        },
    ),
    # the heteroclinic writer
    "solve1d_heteroclinic": (
        ["solve1d", "--family", "allen-cahn", "--n", "401",
         "--out", "golden_solve1d_heteroclinic"],
        {
            "profile.csv": "6e205842ecbd3cb23879d5501776fb441a1073ba1892fa121827aa9f9d2c9428",
            "report.json": "55990c7844b3bfbe64835622305a97baf9fd5c85fe8b3af19b3b0b84e8ee0497",
        },
    ),
    # the 1D profile writer, which no 2D run covers
    "solve1d": (
        ["solve1d", "--family", "arctan", "--lambda", "4", "--n", "129",
         "--out", "golden_solve1d"],
        {
            "profile.csv": "8c27205d936e0f152fdd55ca1b27ad01d1e069f91caa7d2ad58a4a3f1d7ade78",
            "report.json": "eb89ca2a92f445c7f6d9160c1f739700e463ff28e0be45e54d336cde700a4dc2",
        },
    ),
    # shear verdicts, curvature and stability margins of the catalog shears
    "verify_shears": (
        ["verify", "--suite", "shears", "--out", "golden_verify_shears"],
        {
            "verify.json": "c94d3ae004a3566f23cee4b6cc958307f04d722450d41613bd387378a4aa0a2a",
        },
    ),
    # the counterexample's residuals and every identity-chain value: the
    # refinement ratios of the finite-difference identity residual and the
    # closed-form residual's maximum
    "verify_identities": (
        ["verify", "--suite", "identities", "--out",
         "golden_verify_identities"],
        {
            "verify.json": "c7a291a2b737bc04a679a44404826a14bbc267a37f54d1b419d4ade5b498e7f6",
        },
    ),
    # every check of every suite: the type3, saddle, cellular and
    # invariance values read the total curvature, J_inf and the curvature
    # profile at acceptance sizes, which no run above covers
    "verify_all": (
        ["verify", "--suite", "all", "--out", "golden_verify_all"],
        {
            "verify.json": "e852aa6ea3628cc1c9ed17b8b4057c5857a5da77215603e600028e2e69ffa85f",
        },
    ),
    # separatrices (zero level contours), trace fans and stagnation points
    # of the two reference flows, which no other run covers
    "reproduce": (
        ["reproduce", "all", "--out", "golden_reproduce"],
        {
            "figure1_separatrices.csv": "c35ae785e3489dd2d964d2fa656a33286dd7e37f4e6a5706c9416f1e6eaaf802",
            "figure1_separatrices.json": "93f8a96048976da3c5058bed26b50ebb142716f34e6f3d110522af40b1c7f578",
            "figure1_stagnation.csv": "e39016acab8d31d0dcc169068ff58032c4c9b32991d01c9a6945e83031135a8b",
            "figure1_traces.csv": "942b84eab8a5aae67211398fae8990c4a8571b66caf2d4f5b760007de60c27be",
            "figure1_traces.json": "622347d91cc7a41149ec5ca5abf2fb1787d63f3cccee34ec9a2e0eb85f8ac06e",
            "figure2_separatrices.csv": "31226bd1becffbca139f1ad6d7f11a82a3d816c8900323c802e837a98d555dc5",
            "figure2_separatrices.json": "02dd5ce0142a108e112987e0b6bc3965cd83deff01d57e11d8cc529edc8830b0",
            "figure2_stagnation.csv": "51fbd70bf208cd4cb1722d39f198a7539310f131df7107918b8b8bc39330dc04",
            "figure2_traces.csv": "d4bfa008b14541790947cb1345f566e9fb3d124d88900b52e4316f269ad7bdfb",
            "figure2_traces.json": "5cd764f61ccbe0c63d70227a2e8c9183cdc3d826597fcd50905b6138c06dfd79",
        },
    ),
}

# runs whose output a golden run reads
INPUTS = {"analyze_file": ["solve"], "trace_file": ["solve"]}

# the verdicts of the analyze runs: the flow angles of the continuous
# direction field give Taylor-Green the whole circle on torus:64 and both
# solved flows exactly the closed upper semicircle
VERDICTS = {"analyze": "FullCircle", "saddle": "TypeIIIUpper",
            "analyze_file": "TypeIIIUpper"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch, cache):
    argv, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    # the session keeps its flows, so later modules solve none again
    monkeypatch.setattr(cache, "drop", lambda key: None)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: cache)
    for before in INPUTS.get(name, []):
        assert cli.main(GOLDEN[before][0]) == 0
    assert cli.main(argv) == 0
    out = tmp_path / argv[-1]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected
    if name in VERDICTS:
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == VERDICTS[name]
