import json

import numpy as np
import pytest
from scipy import sparse

from composer import cli
from conftest import H2_LIKE_FCIDUMP


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def pipeline(tmp_path):
    pool = tmp_path / "pool.json"
    skel = tmp_path / "skel.json"
    sheet = tmp_path / "dial.json"
    assert (
        run(
            [
                "factorize",
                "--synth",
                "7:2:2",
                "--tau-chol",
                "1e-10",
                "--tau-svd",
                "0",
                "--tau-wedge",
                "0",
                "--out",
                str(pool),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "compile",
                "--pool",
                str(pool),
                "--eps-poly",
                "1e-10",
                "--out",
                str(skel),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "dial",
                "--skel",
                str(skel),
                "--pool",
                str(pool),
                "--mask",
                "1",
                "--out",
                str(sheet),
            ]
        )
        == 0
    )
    return tmp_path, pool, skel, sheet


def test_pipeline_verify_exits_zero(pipeline):
    tmp, pool, skel, sheet = pipeline
    assert (
        run(
            [
                "verify",
                "--skel",
                str(skel),
                "--dial",
                str(sheet),
                "--eps-budget",
                "1e-9",
                "--out",
                str(tmp / "report.json"),
            ]
        )
        == 0
    )
    report = json.loads((tmp / "report.json").read_text())
    assert report["passed"] is True
    assert report["measured_error"] <= 1e-9


def test_verify_zero_budget_fails(pipeline):
    _, pool, skel, sheet = pipeline
    assert (
        run(["verify", "--skel", str(skel), "--dial", str(sheet), "--eps-budget", "0"])
        == 1
    )


def test_verify_tampered_fingerprint_exits_three(pipeline, tmp_path):
    tmp, pool, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    doc["skeleton_fingerprint"] = "f" * 64
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 3


def _add_binding(doc):
    doc["angle_bindings"]["gen/1/bogus"] = 0.0
    return "gen/1/bogus"


def _drop_binding(doc):
    slot = min(s for s in doc["angle_bindings"] if s.startswith("gen/1/"))
    del doc["angle_bindings"][slot]
    return slot


@pytest.mark.parametrize(
    "edit, kind",
    [(_add_binding, "unknown"), (_drop_binding, "missing")],
    ids=["extra-slot", "missing-slot"],
)
def test_verify_sheet_must_bind_exactly_the_skeleton_slots(
    pipeline, capsys, edit, kind
):
    """An extra or a missing binding is a topology violation that names the slot."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    slot = edit(doc)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"{kind}: ['{slot}']" in err


def test_dial_foreign_mask_exits_two(pipeline, capsys):
    """A mask naming an address the pool lacks is an input error, not topology."""
    tmp, pool, skel, _ = pipeline
    out = tmp / "foreign.json"
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "99"]
    assert run(argv + ["--out", str(out)]) == 2
    assert "mask addresses missing from generator pool" in capsys.readouterr().err
    assert not out.exists()


def _scale(w):
    return w * (1 + 1e-9)


def _scale_last_column(w):
    # outside the encoded block: only the unitarity check can see it
    return w @ sparse.diags(np.r_[np.ones(w.shape[0] - 1), 1 + 1e-9])


@pytest.mark.parametrize("perturb", [_scale, _scale_last_column],
                         ids=["scaled", "last-column"])
def test_verify_sees_a_perturbed_product(pipeline, monkeypatch, perturb):
    """The unitarity check covers every entry of the Gram product ``W^dag W``."""
    tmp, _, skel, sheet = pipeline
    execute = cli.cir.execute_generator_encoding
    monkeypatch.setattr(
        cli.cir, "execute_generator_encoding", lambda s, d: perturb(execute(s, d))
    )
    out = tmp / "report.json"
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["unitarity"] > 1e-11
    assert report["passed"] is False


@pytest.mark.parametrize("synth", ["7:2:2", "5:3:2"])
def test_verify_reports_the_ancillas_of_the_checked_encoding(tmp_path, synth):
    """``ancillas`` is the width of the ``W`` that verify checks, not the skeleton's."""
    pool, skel, sheet, report = (
        tmp_path / name for name in ("pool.json", "skel.json", "dial.json", "rep.json")
    )
    assert run(["factorize", "--synth", synth, "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert run(["dial", "--skel", str(skel), "--pool", str(pool),
                "--out", str(sheet)]) == 0
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(report)]) == 0
    loaded = cli.cir.CircuitSkeleton.from_json(skel.read_text())
    w = cli.cir.execute_generator_encoding(
        loaded, cli.cir.DialSheet.from_json(sheet.read_text())
    )
    n = loaded.n_system
    assert json.loads(report.read_text())["ancillas"] == np.log2(w.shape[0]) - n


def _set_pivot(doc):
    doc["adaptors_gen"][1]["pivot"] = 3


def _set_n_system(doc):
    doc["n_system"] = str(doc["n_system"])  # the fingerprint text is unchanged


def _set_mask_indices(doc):
    doc["mask_indices"] = 5


def _set_binding(doc):
    slot = sorted(doc["angle_bindings"])[0]
    doc["angle_bindings"][slot] = str(doc["angle_bindings"][slot])


@pytest.mark.parametrize(
    "artifact, edit",
    [
        ("skel", _set_pivot),
        ("skel", _set_n_system),
        ("dial", _set_mask_indices),
        ("dial", _set_binding),
    ],
    ids=["pivot", "n_system", "mask_indices", "angle_binding"],
)
def test_estimate_wrongly_typed_field_exits_two(pipeline, capsys, artifact, edit):
    tmp, _, skel, sheet = pipeline
    paths = {"skel": skel, "dial": sheet}
    doc = json.loads(paths[artifact].read_text())
    edit(doc)
    paths[artifact] = tmp / f"bad-{artifact}.json"
    paths[artifact].write_text(json.dumps(doc))
    argv = ["estimate", "--skel", str(paths["skel"]), "--dial", str(paths["dial"])]
    assert run(argv + ["--out", str(tmp / "est.json")]) == 2
    assert "must be" in capsys.readouterr().err


def _set_n_occ(doc):
    doc["generator"]["n_occ"] = str(doc["generator"]["n_occ"])


def _set_n_so(doc):
    doc["n_so"] = str(doc["n_so"])


def _set_coefficient(doc):
    lad = doc["generator"]["ladders"][0]
    lad["coefficient"] = str(lad["coefficient"])


def _set_eigval(doc):
    eigvals = doc["hamiltonian"]["channels"][0]["eigvals"]
    eigvals[0] = str(eigvals[0])


@pytest.mark.parametrize(
    "edit",
    [_set_n_occ, _set_n_so, _set_coefficient, _set_eigval],
    ids=["n_occ", "n_so", "coefficient", "eigvals"],
)
def test_dial_wrongly_typed_pool_field_exits_two(pipeline, capsys, edit):
    tmp, pool, skel, _ = pipeline
    doc = json.loads(pool.read_text())
    edit(doc)
    bad = tmp / "bad-pool.json"
    bad.write_text(json.dumps(doc))
    argv = ["dial", "--skel", str(skel), "--pool", str(bad), "--mask", "1"]
    assert run(argv + ["--out", str(tmp / "d.json")]) == 2
    assert "must be" in capsys.readouterr().err


def test_pipeline_verify_n_so_8(tmp_path):
    """factorize -> compile -> dial -> verify end to end at n_so = 8 (full mask)."""
    pool, skel, sheet, report = (
        tmp_path / name for name in ("pool.json", "skel.json", "dial.json", "rep.json")
    )
    assert run(["factorize", "--synth", "7:4:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert run(["dial", "--skel", str(skel), "--pool", str(pool),
                "--out", str(sheet)]) == 0
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["measured_error"] <= 1e-9
    assert doc["unitarity"] <= 1e-11


def test_missing_input_exits_two(tmp_path):
    assert (
        run(["factorize", "--ints", str(tmp_path / "nope"), "--out", "x.json"]) == 2
    )


def test_nonpositive_tau_exits_two(tmp_path):
    assert (
        run(
            [
                "factorize",
                "--synth",
                "1:2:2",
                "--tau-chol",
                "0",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        == 2
    )


def test_fcidump_input_path(tmp_path):
    dump = tmp_path / "h2.fcidump"
    dump.write_text(H2_LIKE_FCIDUMP)
    out = tmp_path / "pool.json"
    assert (
        run(
            [
                "factorize",
                "--ints",
                str(dump),
                "--no-generator",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["hamiltonian"]["ell"] >= 1


def test_estimate_consumes_skel_and_dial(pipeline, tmp_path):
    tmp, pool, skel, sheet = pipeline
    out = tmp / "est.json"
    assert (
        run(
            [
                "estimate",
                "--skel",
                str(skel),
                "--dial",
                str(sheet),
                "--connectivity",
                "linear:2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["connectivity"] == "linear:2"
    assert doc["total_depth"] > 0


def test_diagnose_writes_mask(pipeline, tmp_path):
    tmp, pool, skel, sheet = pipeline
    out = tmp / "diag.json"
    assert (
        run(["diagnose", "--pool", str(pool), "--eta", "0.9", "--out", str(out)])
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["coverage"] >= 0.9


def test_diagnose_overlap_files(tmp_path):
    from composer.factorization import T2Tensor

    rng = np.random.default_rng(0)
    ta = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(ta.to_json())
    b.write_text(ta.to_json())
    out = tmp_path / "ov.json"
    curve = tmp_path / "curve.csv"
    assert (
        run(
            [
                "diagnose",
                "--t2-a",
                str(a),
                "--t2-b",
                str(b),
                "--curve-out",
                str(curve),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["wauc"] == pytest.approx(1.0, abs=1e-9)
    assert curve.read_text().startswith("r,ov,w")


def test_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a"
    out1.mkdir()
    out2 = tmp_path / "b"
    out2.mkdir()
    argv = [
        "factorize",
        "--synth",
        "3:2:2",
        "--tau-chol",
        "1e-9",
        "--out",
        None,
    ]
    argv[-1] = str(out1 / "pool.json")
    assert run(list(argv)) == 0
    text1 = (out1 / "pool.json").read_text()
    argv[-1] = str(out1 / "pool.json")
    assert run(list(argv)) == 0
    assert (out1 / "pool.json").read_text() == text1
