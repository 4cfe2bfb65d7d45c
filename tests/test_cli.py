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


def _add_value(doc):
    doc["values"].append(0.0)
    return 1


def _drop_value(doc):
    doc["values"].pop()
    return -1


@pytest.mark.parametrize("edit", [_add_value, _drop_value],
                         ids=["extra-slot", "missing-slot"])
def test_verify_sheet_must_bind_exactly_the_skeleton_slots(pipeline, capsys, edit):
    """One value too many or too few is a topology violation that gives both counts."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    slots = len(doc["values"])
    held = slots + edit(doc)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"holds {held} values for the skeleton's {slots} slots" in err


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


def test_older_formats_exit_two(pipeline, capsys):
    """A ``composer-skel-v5``/``-v7`` skeleton or ``-dial-v1``/``-v2`` sheet: exit 2."""
    tmp, _, skel, sheet = pipeline
    for path, old in ((skel, "composer-skel-v5"), (skel, "composer-skel-v7"),
                      (sheet, "composer-dial-v1"), (sheet, "composer-dial-v2")):
        doc = json.loads(path.read_text())
        current, doc["format"] = doc["format"], old
        path.write_text(json.dumps(doc))
        argv = ["verify", "--skel", str(skel), "--dial", str(sheet)]
        assert run(argv) == 2
        assert f"expected format {current!r}" in capsys.readouterr().err
        doc["format"] = current
        path.write_text(json.dumps(doc))


def _nan_coefficient(doc):
    doc["generator"]["ladders"][0]["coefficient"] = float("nan")
    return "generator ladder coefficient must be finite, not nan"


def _infinite_vector(doc):
    doc["generator"]["ladders"][0]["x"]["re"][0] = float("-inf")
    return "entries must be finite, not -inf"


def _huge_coefficient(doc):
    doc["generator"]["ladders"][0]["coefficient"] = 10**400
    return "coefficient must be finite, not an int too large for a float"


@pytest.mark.parametrize(
    "edit", [_nan_coefficient, _infinite_vector, _huge_coefficient],
    ids=["nan-coefficient", "infinite-vector", "huge-coefficient"],
)
def test_dial_rejects_a_non_finite_pool_number(pipeline, capsys, edit):
    """``json`` reads NaN and Infinity; the pool loader refuses them (exit 2)."""
    tmp, pool, skel, _ = pipeline
    doc = json.loads(pool.read_text())
    message = edit(doc)
    bad, out = tmp / "bad-pool.json", tmp / "d.json"
    bad.write_text(json.dumps(doc))
    argv = ["dial", "--skel", str(skel), "--pool", str(bad), "--mask", "1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_an_infinite_binding(pipeline, capsys):
    """An ``Infinity`` binding is a load error (exit 2), not a failed SVD."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    doc["values"][0] = float("inf")
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert "Infinity" in bad.read_text()
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 2
    assert "values entries must be finite, not inf" in capsys.readouterr().err


def test_verify_rejects_a_binding_too_large_for_a_float(pipeline, capsys):
    """An integer binding past the float range is a load error (exit 2)."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    doc["values"][0] = 10**400
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "values entries must be finite, not an int too large for a float" in err


def _pad_virtual(ladder):
    for key in ("x", "y"):
        ladder[key]["re"].append(0.0)
        ladder[key]["im"].append(0.0)
    return "generator ladder 1 x must have 4 entries, not 5/5"


def _cut_occupied(ladder):
    for key in ("r", "s"):
        del ladder[key]["re"][1:], ladder[key]["im"][1:]
    return "generator ladder 1 r must have 2 entries, not 1/1"


@pytest.mark.parametrize("edit", [_pad_virtual, _cut_occupied],
                         ids=["padded-x-y", "cut-r-s"])
def test_dial_rejects_a_pair_vector_of_the_wrong_length(tmp_path, capsys, edit):
    """Synth 5:3:2 (n_occ 2, n_virt 4): a wedge factor of the wrong length is exit 2."""
    pool, skel, out = (tmp_path / name for name in ("pool.json", "skel.json", "d.json"))
    assert run(["factorize", "--synth", "5:3:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    doc = json.loads(pool.read_text())
    message = edit(doc["generator"]["ladders"][0])
    pool.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _set_pivot(doc):
    doc["adaptors_gen"][1]["pivot"] = 3


def _set_n_system(doc):
    doc["n_system"] = str(doc["n_system"])  # the fingerprint text is unchanged


def _set_mask_indices(doc):
    doc["mask_indices"] = 5


def _set_binding(doc):
    doc["values"][0] = str(doc["values"][0])


@pytest.mark.parametrize(
    "artifact, edit",
    [
        ("skel", _set_pivot),
        ("skel", _set_n_system),
        ("dial", _set_mask_indices),
        ("dial", _set_binding),
    ],
    ids=["pivot", "n_system", "mask_indices", "binding"],
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


def _t2_with_text_n_occ(tmp_path):
    from composer.factorization import T2Tensor

    doc = json.loads(T2Tensor(np.zeros((6, 1)), 2, 4).to_json())
    doc["n_occ"] = "2"
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(doc))
    return ["diagnose", "--t2-a", str(path), "--t2-b", str(path)], "n_occ"


def _ints_with_text_n_so(tmp_path):
    from composer.integrals import synth_instance

    doc = json.loads(synth_instance(1, 2, 2).to_json())
    doc["n_so"] = "4"
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    return ["factorize", "--ints", str(path)], "n_so"


@pytest.mark.parametrize(
    "case", [_t2_with_text_n_occ, _ints_with_text_n_so], ids=["t2", "integrals"]
)
def test_wrongly_typed_t2_or_integrals_field_exits_two(tmp_path, capsys, case):
    argv, field = case(tmp_path)
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert f"{field} must be int, not str" in capsys.readouterr().err


def test_estimate_prices_pairs_on_the_dialed_occupied_count(tmp_path):
    """With ``--dial`` the pair adaptor is priced on the pool's n_occ, not n_so // 2."""
    from composer import circuit_ir, resources

    pool, skel, sheet, est = (
        tmp_path / f for f in ("pool.json", "skel.json", "dial.json", "est.json")
    )
    assert run(["factorize", "--synth", "1:3:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert run(["dial", "--skel", str(skel), "--pool", str(pool),
                "--mask", "1", "--out", str(sheet)]) == 0
    assert run(["estimate", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(est)]) == 0
    compiled = circuit_ir.CircuitSkeleton.from_json(skel.read_text())
    assert compiled.n_occ == 2
    expected = resources.estimate(compiled).parameters["D_II"]
    assert json.loads(est.read_text())["parameters"]["D_II"] == expected == 80


def test_estimate_of_the_skeleton_alone_equals_estimate_with_its_sheet(tmp_path):
    """The skeleton records n_occ, so ``--dial`` adds only the mask size (5:3:2)."""
    pool, skel, sheet, alone, dialed = (
        tmp_path / f
        for f in ("pool.json", "skel.json", "dial.json", "alone.json", "dialed.json")
    )
    assert run(["factorize", "--synth", "5:3:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert run(["dial", "--skel", str(skel), "--pool", str(pool),
                "--mask", "1", "--out", str(sheet)]) == 0
    assert run(["estimate", "--skel", str(skel), "--out", str(alone)]) == 0
    assert run(["estimate", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(dialed)]) == 0
    alone, dialed = (json.loads(p.read_text()) for p in (alone, dialed))
    assert alone["parameters"]["D_II"] == dialed["parameters"]["D_II"] == 80
    assert alone["parameters"].pop("mask_size") == 0
    assert dialed["parameters"].pop("mask_size") == 1
    assert alone == dialed


def test_dial_with_another_occupied_count_exits_three(tmp_path, capsys):
    """A generator pool with another n_occ than the compiled one: exit 3."""
    pool_a, pool_b, skel, sheet = (
        tmp_path / f for f in ("a.json", "b.json", "skel.json", "dial.json")
    )
    assert run(["factorize", "--synth", "5:3:2", "--out", str(pool_a)]) == 0
    assert run(["factorize", "--synth", "5:3:4", "--out", str(pool_b)]) == 0
    assert run(["compile", "--pool", str(pool_a), "--out", str(skel)]) == 0
    argv = ["dial", "--skel", str(skel), "--pool", str(pool_b), "--mask", "1"]
    assert run(argv + ["--out", str(sheet)]) == 3
    assert "n_occ 4 differs from the compiled 2" in capsys.readouterr().err
    assert not sheet.exists()


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
