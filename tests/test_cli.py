import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from composer import cli
from composer.factorization import (
    POOL_FORMAT,
    PairLadder,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
    pools_to_json,
)
from composer.integrals import synth_instance
from conftest import H2_LIKE_FCIDUMP, edit_packed, mixed_generator_pool, older_formats


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return cli.main(argv)


def run_in_subprocess(argv, cwd):
    """``composer argv`` in a fresh interpreter, killed after 60 s, so a
    command that never returns fails its test instead of hanging the suite.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.getenv("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "composer.cli", *argv], cwd=cwd, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


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


def test_the_shared_parser_carries_nothing_between_calls(pipeline, capsys):
    """In-process calls share one parser: alternating dials (mask, eta,
    neither), verifies with and without ``--out``, and an estimate give, file
    for file and line for line, the bytes of each command run in a fresh
    process; every namespace equals a new parser's for the same argv."""
    tmp, pool, skel, _ = pipeline
    inside, fresh = tmp / "inside", tmp / "fresh"
    inside.mkdir()
    fresh.mkdir()
    common = {"dial": ["--skel", str(skel), "--pool", str(pool)],
              "verify": ["--skel", str(skel)], "estimate": ["--skel", str(skel)]}
    calls = [
        ["dial", "--mask", "1", "--mask-id", "one", "--out", "a.json"],
        ["dial", "--eta", "0.9", "--out", "b.json"],
        ["dial", "--out", "c.json"],
        ["verify", "--dial", "a.json", "--eps-budget", "1e-3", "--out", "ra.json"],
        ["verify", "--dial", "b.json"],
        ["verify", "--dial", "c.json", "--out", "rc.json"],
        ["estimate", "--dial", "b.json", "--connectivity", "linear:2", "--out", "eb.json"],
        ["estimate", "--out", "e.json"],
        ["dial", "--mask", "", "--out", "d.json"],
    ]

    def argv(call, where):
        cmd, *rest = call
        files = {"--out", "--dial"}
        rest = [str(where / a) if prev in files else a for prev, a in zip([""] + rest, rest)]
        return [cmd, *common[cmd], *rest]

    printed = []
    for call in calls:
        args = argv(call, inside)
        assert vars(cli._parser().parse_args(args)) == vars(cli.build_parser().parse_args(args))
        capsys.readouterr()
        assert run(args) == 0
        printed.append(capsys.readouterr().out)
    for call, out in zip(calls, printed):
        proc = run_in_subprocess(argv(call, fresh), tmp)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out, call
    assert sorted(p.name for p in inside.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in inside.iterdir():
        assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name


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


def _add_value(values):
    values.append(0.0)
    return len(values) - 1, len(values)


def _drop_value(values):
    values.pop()
    return len(values) + 1, len(values)


@pytest.mark.parametrize("edit", [_add_value, _drop_value],
                         ids=["extra-slot", "missing-slot"])
def test_verify_sheet_must_bind_exactly_the_skeleton_slots(pipeline, capsys, edit):
    """One value too many or too few is a topology violation that gives both counts."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    slots, held = edit_packed(doc, "values", edit)
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


@pytest.mark.parametrize("order", ["mask-first", "eta-first"])
def test_dial_refuses_mask_with_eta(pipeline, capsys, order):
    """``--mask`` and ``--eta`` each choose the mask, so together they are a
    usage error (exit 2, with usage), whichever comes first, and no sheet is
    written; before, ``--eta`` was silently ignored."""
    tmp, pool, skel, _ = pipeline
    out = tmp / "both.json"
    chosen = [["--mask", "1"], ["--eta", "0.9"]]
    if order == "eta-first":
        chosen.reverse()
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), *chosen[0], *chosen[1],
            "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: composer dial")
    assert "not allowed with argument" in err
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


@pytest.mark.parametrize(
    "argv",
    [["--synth", "7:3:2", "--tau-chol", "1e-10"],
     ["--synth", "1:4:4", "--tau-svd", "0", "--tau-wedge", "0"],
     ["--synth", "5:3:2", "--no-generator"]],
    ids=["7:3:2", "1:4:4", "no-generator"],
)
def test_factorize_writes_the_pool_bytes_of_the_round_trip(tmp_path, argv):
    """One encode with the manifest writes the bytes the pool took before:
    the library's pool text decoded, given the manifest and encoded again.
    """
    out = tmp_path / "pool.json"
    assert run(["factorize", *argv, "--out", str(out)]) == 0
    args = cli.build_parser().parse_args(["factorize", *argv, "--out", str(out)])
    ints = synth_instance(*map(int, args.synth.split(":")))
    ham = build_hamiltonian_pool(ints, args.tau_chol, args.tau_eig)
    gen = None
    if not args.no_generator:
        gen = nested_svd_t2(mp2_amplitudes(ints), args.tau_svd, args.tau_wedge)
    doc = json.loads(pools_to_json(ham, gen))
    assert "manifest" not in doc  # the library writes none
    doc["manifest"] = {
        "command": "factorize",
        "inputs": {"ints": None, "synth": args.synth},
        "out": str(out),
        "thresholds": {key: getattr(args, key)
                       for key in ("tau_chol", "tau_eig", "tau_svd", "tau_wedge")},
    }
    assert out.read_text() == json.dumps(doc, sort_keys=True) + "\n"


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
    """A skeleton or a sheet of any format before the current one exits 2."""
    tmp, _, skel, sheet = pipeline
    olds = [(skel, old) for old in older_formats(cli.cir.SKEL_FORMAT)]
    olds += [(sheet, old) for old in older_formats(cli.cir.DIAL_FORMAT)]
    for path, old in olds:
        doc = json.loads(path.read_text())
        current, doc["format"] = doc["format"], old
        path.write_text(json.dumps(doc))
        argv = ["verify", "--skel", str(skel), "--dial", str(sheet)]
        assert run(argv) == 2
        assert f"expected format {current!r}" in capsys.readouterr().err
        doc["format"] = current
        path.write_text(json.dumps(doc))


def test_a_skeleton_key_outside_the_fingerprinted_ones_exits_two(pipeline, capsys):
    """``compile`` writes the fingerprinted keys alone; an added one exits 2."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(skel.read_text())
    assert set(doc) == {"format", "n_system", "n_occ", "qsp_degree", "adaptors",
                        "adaptors_ham", "adaptors_gen", "fingerprint"}
    doc["manifest"] = {"command": "compile"}
    skel.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet)]) == 2
    assert "skeleton has unknown field 'manifest'" in capsys.readouterr().err


def test_a_v2_pool_exits_two(pipeline, capsys):
    """A ``composer-pool-v2`` pool, which held each generator ladder as its own
    object, is exit 2, as is a v1 pool, which held its arrays as JSON lists.
    """
    tmp, pool, skel, _ = pipeline
    doc = json.loads(pool.read_text())
    out = tmp / "d.json"
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "1"]
    for old in older_formats(POOL_FORMAT):
        doc["format"] = old
        pool.write_text(json.dumps(doc))
        assert run(argv + ["--out", str(out)]) == 2
        assert "expected format 'composer-pool-v3'" in capsys.readouterr().err
        assert not out.exists()


B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _noncanonical(holder, key, defect):
    """Give the packed field ``holder[key]`` a ``defect`` a lenient decoder skips.

    ``"stray-padding"`` puts an ``=`` after the last full quad and
    ``"trailing-bits"`` sets a bit after the last byte.  Zeros are first
    appended to the array, as needed, so its bytes end on a full quad (the
    first defect) or a partial one (the second).  Either way
    ``base64.b64decode(..., validate=True)`` still reads the field.
    """
    partial = defect == "trailing-bits"
    while holder[key].endswith("=") != partial:
        edit_packed(holder, key, lambda values: values.append(0.0))
    text = holder[key]
    if defect == "stray-padding":
        holder[key] = text + "="
    else:
        k = len(text.rstrip("=")) - 1  # its low bits pad the last byte
        bumped = B64_ALPHABET[B64_ALPHABET.index(text[k]) + 1]
        holder[key] = text[:k] + bumped + text[k + 1:]
    base64.b64decode(holder[key], validate=True)
    return f"{key} must be strict base64: not the canonical encoding of its bytes"


@pytest.mark.parametrize("defect", ["stray-padding", "trailing-bits"])
def test_dial_rejects_a_noncanonical_pool_array(pipeline, capsys, defect):
    """A packed pool array must be canonical base64 (exit 2)."""
    tmp, pool, skel, _ = pipeline
    doc = json.loads(pool.read_text())
    message = _noncanonical(doc["generator"]["pair"], "x", defect)
    pool.write_text(json.dumps(doc))
    out = tmp / "d.json"
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert f"generator pair {message}" in capsys.readouterr().err
    assert not out.exists()


def _nan_coefficient(doc):
    doc["generator"]["pair"]["coefficient"][0] = float("nan")
    return "generator pair coefficient entries must be finite, not nan"


def _infinite_vector(doc):
    edit_packed(doc["generator"]["pair"], "x", _set_first(float("-inf")))
    return "generator pair x entries must be finite, not -inf"


def _huge_coefficient(doc):
    doc["generator"]["pair"]["coefficient"][0] = 10**400
    return "coefficient entries must be finite, not an int too large for a float"


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


def _set_first(value):
    def edit(values):
        values[0] = value
    return edit


def test_verify_rejects_an_infinite_binding(pipeline, capsys):
    """An infinite packed binding is a load error (exit 2), not a failed SVD."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    edit_packed(doc, "values", _set_first(float("inf")))
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 2
    assert "values entries must be finite, not inf" in capsys.readouterr().err


def _unpacked_list(doc):
    # a composer-dial-v3 body under the current header
    doc["values"] = np.frombuffer(base64.b64decode(doc["values"]), "<f8").tolist()
    return "values must be str, not list"


# both decode without error unless base64 is read strictly
def _non_base64_character(doc):
    doc["values"] = doc["values"][:4] + "!" + doc["values"][4:]
    return "values must be strict base64: "


def _bad_padding(doc):
    doc["values"] = doc["values"][:4] + "==" + doc["values"][4:]
    return "values must be strict base64: "


def _three_spare_bytes(doc):
    raw = base64.b64decode(doc["values"]) + bytes(3)
    doc["values"] = base64.b64encode(raw).decode()
    return f"values holds {len(raw)} bytes, not whole float64 values"


def _packed_nan(doc):
    edit_packed(doc, "values", _set_first(float("nan")))
    return "values entries must be finite, not nan"


def _stray_padding(doc):
    return _noncanonical(doc, "values", "stray-padding")


def _trailing_bits(doc):
    return _noncanonical(doc, "values", "trailing-bits")


def _packed_minus_inf(doc):
    edit_packed(doc, "values", _set_first(float("-inf")))
    return "values entries must be finite, not -inf"


@pytest.mark.parametrize(
    "edit",
    [_unpacked_list, _non_base64_character, _bad_padding, _three_spare_bytes,
     _stray_padding, _trailing_bits, _packed_nan, _packed_minus_inf],
    ids=["list", "non-base64", "bad-padding", "8k+3-bytes", "stray-padding",
         "trailing-bits", "nan", "minus-inf"],
)
def test_verify_rejects_a_malformed_packed_stream(pipeline, capsys, edit):
    """A ``values`` field that is not canonical base64 of finite float64s: exit 2."""
    tmp, _, skel, sheet = pipeline
    doc = json.loads(sheet.read_text())
    message = edit(doc)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--skel", str(skel), "--dial", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact, parent, field, command, message",
    [
        ("pool", None, "n_elec", "dial", "pool has no field 'n_elec'"),
        ("skel", None, "qsp_degree", "estimate", "skeleton has no field 'qsp_degree'"),
        ("dial", None, "mask_id", "estimate", "dial sheet has no field 'mask_id'"),
        ("dial", "classical_coeffs", "omega", "verify",
         "dial sheet has no field 'omega'"),
    ],
    ids=["pool", "skeleton", "sheet", "sheet-coefficient"],
)
def test_a_missing_field_names_its_artifact(
    pipeline, capsys, artifact, parent, field, command, message
):
    """A field the document lacks is exit 2, naming the artifact and the field."""
    tmp, pool, skel, sheet = pipeline
    path = {"pool": pool, "skel": skel, "dial": sheet}[artifact]
    doc = json.loads(path.read_text())
    del (doc[parent] if parent else doc)[field]
    path.write_text(json.dumps(doc))
    out = tmp / "out.json"
    argv = {
        "dial": ["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "1",
                 "--out", str(out)],
        "estimate": ["estimate", "--skel", str(skel), "--dial", str(sheet),
                     "--out", str(out)],
        "verify": ["verify", "--skel", str(skel), "--dial", str(sheet)],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _pad_virtual(block):
    for key in ("x", "y"):  # one more complex entry: its real and imaginary parts
        edit_packed(block, key, lambda values: values.extend([0.0, 0.0]))
    size = 8 * len(block["address"])  # 4 complex entries per ladder
    return f"generator pair x must hold {size} float64 values, not {size + 2}"


def _cut_occupied(block):
    for key in ("r", "s"):  # the last ladder's second complex entry cut
        edit_packed(block, key, lambda values: values.__delitem__(slice(-2, None)))
    size = 4 * len(block["address"])  # 2 complex entries per ladder
    return f"generator pair r must hold {size} float64 values, not {size - 2}"


@pytest.mark.parametrize("edit", [_pad_virtual, _cut_occupied],
                         ids=["padded-x-y", "cut-r-s"])
def test_dial_rejects_a_pair_vector_of_the_wrong_length(tmp_path, capsys, edit):
    """Synth 5:3:2 (n_occ 2, n_virt 4): a wedge factor column of the wrong length
    is exit 2.
    """
    pool, skel, out = (tmp_path / name for name in ("pool.json", "skel.json", "d.json"))
    assert run(["factorize", "--synth", "5:3:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    doc = json.loads(pool.read_text())
    message = edit(doc["generator"]["pair"])
    pool.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _cut_mode_vectors(doc):
    edit_packed(doc["hamiltonian"]["one_body"][0], "vectors", list.pop)
    return "one_body ladder vectors must hold 8 float64 values, not 7"


def _cut_rotation_full(doc):
    # one column short: v1's reshape(n, -1) read this as a 4 x 3 completion
    edit_packed(doc["hamiltonian"]["channels"][0], "rotation_full",
                lambda values: values.__delitem__(slice(12, None)))
    return "channel rotation_full must hold 16 float64 values, not 12"


@pytest.mark.parametrize("edit", [_cut_mode_vectors, _cut_rotation_full],
                         ids=["mode-vectors", "rotation-full"])
def test_dial_rejects_a_hamiltonian_array_of_the_wrong_length(pipeline, capsys, edit):
    """Synth 7:2:2 (n_so 4): a packed Hamiltonian array must fit its ladder (exit 2)."""
    tmp, pool, skel, _ = pipeline
    doc = json.loads(pool.read_text())
    message = edit(doc)
    pool.write_text(json.dumps(doc))
    out = tmp / "d.json"
    argv = ["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _set_pivot(doc):
    doc["adaptors"][doc["adaptors_gen"][1]]["pivot"] = 3


def _set_n_system(doc):
    doc["n_system"] = str(doc["n_system"])  # the fingerprint text is unchanged


def _set_mask_indices(doc):
    doc["mask_indices"] = 5


@pytest.mark.parametrize(
    "artifact, edit",
    [
        ("skel", _set_pivot),
        ("skel", _set_n_system),
        ("dial", _set_mask_indices),
        ("dial", _unpacked_list),
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
    coefficients = doc["generator"]["pair"]["coefficient"]
    coefficients[0] = str(coefficients[0])


def _set_eigval(doc):
    # a JSON list of numbers, as composer-pool-v1 held it, not a packed string
    channel = doc["hamiltonian"]["channels"][0]
    eigvals = np.frombuffer(base64.b64decode(channel["eigvals"]), "<f8")
    channel["eigvals"] = eigvals.tolist()


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


@pytest.fixture(scope="module")
def mixed_pipeline(tmp_path_factory):
    """Synth 7:2:2 with a pair ladder and two bilinear ladders, compiled by the CLI."""
    tmp = tmp_path_factory.mktemp("mixed")
    ints = synth_instance(7, 2, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = mixed_generator_pool(nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0))
    assert [lad.kind for lad in gen.ladders] == ["pair", "bilinear", "bilinear"]
    pool, skel = tmp / "pool.json", tmp / "skel.json"
    pool.write_text(pools_to_json(ham, gen))
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    return tmp, pool, skel


@pytest.mark.parametrize("mask", ["", "1", "2", "3", "1,2,3"],
                         ids=["none", "m1", "m2", "m3", "m123"])
def test_verify_reads_back_pair_and_bilinear_ladders(mixed_pipeline, mask):
    """verify's sheet-only target matches the executed encoding on a mixed pool."""
    tmp, pool, skel = mixed_pipeline
    sheet, report = tmp / f"dial-{mask}.json", tmp / f"rep-{mask}.json"
    assert run(["dial", "--skel", str(skel), "--pool", str(pool), "--mask", mask,
                "--out", str(sheet)]) == 0
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(report)]) == 0
    assert json.loads(report.read_text())["measured_error"] <= 1e-12


@pytest.mark.parametrize("scale", [1 + 5e-10, 1 + 5e-9])
def test_a_prep_off_unit_norm_exits_two(tmp_path, capsys, scale):
    """Generator PREP amplitudes scaled off unit norm fail one check, at any size."""
    pool, skel, sheet = (tmp_path / f for f in ("pool.json", "skel.json", "dial.json"))
    assert run(["factorize", "--synth", "5:3:2", "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert run(["dial", "--skel", str(skel), "--pool", str(pool), "--mask", "1,2",
                "--out", str(sheet)]) == 0
    spans = cli.cir.CircuitSkeleton.from_json(skel.read_text()).slot_spans
    doc = json.loads(sheet.read_text())

    def scale_gen_preps(values):
        for (side, _), (start, _) in spans.items():
            if side == "gen":
                values[start] *= scale

    edit_packed(doc, "values", scale_gen_preps)
    sheet.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--skel", str(skel), "--dial", str(sheet)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: prep amplitude norm ") and err.endswith(" != 1\n")


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


@pytest.mark.parametrize(
    "flag, value",
    [("--tau-chol", "nan"), ("--tau-chol", "inf"), ("--tau-chol", "-inf"),
     ("--tau-eig", "nan"), ("--tau-svd", "nan"), ("--tau-wedge", "inf")],
)
def test_a_non_finite_factorize_threshold_exits_two(tmp_path, flag, value):
    """A NaN ``--tau-chol`` once never returned, and a NaN ``--tau-svd`` exited 0."""
    out = tmp_path / "x.json"
    argv = ["factorize", "--synth", "1:2:2", f"{flag}={value}", "--out", str(out)]
    proc = run_in_subprocess(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "must be finite" in proc.stderr
    assert not out.exists()


def test_an_empty_generator_pool_exits_two(tmp_path, capsys):
    """Synth 1:1:2 has no virtual orbital, so no pair ladder: factorize names
    the empty generator pool and ``--no-generator``, which then succeeds."""
    out = tmp_path / "pool.json"
    argv = ["factorize", "--synth", "1:1:2", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: empty generator pool: no pair ladder survives; pass "
        "--no-generator to factorize the Hamiltonian alone\n"
    )
    assert not out.exists()
    assert run([*argv, "--no-generator"]) == 0
    assert out.exists()


def test_a_non_finite_polynomial_budget_exits_two(pipeline):
    tmp, pool, _, _ = pipeline
    out = tmp / "s.json"
    argv = ["compile", "--pool", str(pool), "--eps-poly=nan", "--out", str(out)]
    proc = run_in_subprocess(argv, tmp)
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_verify_budget_exits_two(pipeline, value):
    """A NaN budget once failed every check and exited 1."""
    tmp, _, skel, sheet = pipeline
    argv = ["verify", "--skel", str(skel), "--dial", str(sheet),
            f"--eps-budget={value}"]
    proc = run_in_subprocess(argv, tmp)
    assert proc.returncode == 2, proc.stderr
    assert "--eps-budget must be finite and nonnegative" in proc.stderr


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


# the benchmark's thresholds: every ladder is kept
BENCH_TAUS = ["--tau-chol", "1e-10", "--tau-svd", "0", "--tau-wedge", "0"]
BENCH_MASKS = {"eta0.5": ["--eta", "0.5"], "eta0.9": ["--eta", "0.9"],
               "eta0.99": ["--eta", "0.99"], "full": []}
# SHA-256 of each (dial sheet, estimate) at synth 1:8:8, as the pair ladders
# were bound one PairLadder at a time
PINNED_1_8_8 = {
    "eta0.5": ("e919fd17e586fcbb3ab8eb3f125a800bfda6fbe16aa9056691de213aa4bd872a",
               "28e5fdf94912588239fb5e08d6bf2998eccaca1da4d367bd369a75200d8737de"),
    "eta0.9": ("b8a2121401d65e8de722f3f6be2a84fbf13e40fa2bf11b2a3349b226b32c9ed4",
               "cd7ba972b1b55b3b66fcb3d0daa3802122c919f0b69ee49de23afc4e7ecd873a"),
    "eta0.99": ("ce82e610389d08f8e5a037373675d705b01a32fea0a291f8480389af49cb9050",
                "d476f04370270f86edb3450d7bd5a660e1b40f35327f6e9680905dec52fdbc6b"),
    "full": ("60ec481f5fad4275a5c9ce9afb28cd2df22d9238f213fafb6500424b03a882c9",
             "85b88a5db5e529a867168e3ad70b337c4f310677d31803a57abedbe3dff5d8f3"),
}


@pytest.fixture(scope="module")
def pipeline_1_8_8(tmp_path_factory):
    """Pool and skeleton of synth 1:8:8 (448 pair ladders) at the benchmark thresholds."""
    tmp = tmp_path_factory.mktemp("synth188")
    pool, skel = tmp / "pool.json", tmp / "skel.json"
    assert run(["factorize", "--synth", "1:8:8", *BENCH_TAUS, "--out", str(pool)]) == 0
    assert run(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    return tmp, pool, skel


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mask", BENCH_MASKS)
def test_dial_sheets_and_estimates_at_1_8_8_keep_their_bytes(pipeline_1_8_8, mask):
    """Each dial sheet and estimate of the benchmark's masks has the bytes it
    had when every pair ladder was bound alone."""
    tmp, pool, skel = pipeline_1_8_8
    sheet, est = tmp / f"dial-{mask}.json", tmp / f"est-{mask}.json"
    assert run(["dial", "--skel", str(skel), "--pool", str(pool), *BENCH_MASKS[mask],
                "--out", str(sheet)]) == 0
    assert run(["estimate", "--skel", str(skel), "--dial", str(sheet),
                "--out", str(est)]) == 0
    assert (_sha256(sheet), _sha256(est)) == PINNED_1_8_8[mask]


def test_dial_builds_no_pair_ladder(pipeline_1_8_8, monkeypatch):
    """``composer dial`` binds the pair ladders from the pool's table: under
    every benchmark mask and an explicit one, no PairLadder is constructed."""
    tmp, pool, skel = pipeline_1_8_8
    built = []
    monkeypatch.setattr(PairLadder, "__post_init__", lambda lad: built.append(lad.address))
    for k, args in enumerate([*BENCH_MASKS.values(), ["--mask", "1,7"]]):
        assert run(["dial", "--skel", str(skel), "--pool", str(pool), *args,
                    "--out", str(tmp / f"no-ladder-{k}.json")]) == 0
    assert built == []
