"""Batch pipeline driver: factorize / compile / dial / verify / estimate / diagnose.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 topology
violation.  All outputs are deterministic JSON (no timestamps), so
identical manifests produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import circuit_ir as cir
from . import diagnostics as dg
from . import jw, ladders, oracle, qsp, resources
from .errors import BindError, ComposerError, fields_of
from .factorization import (
    T2Tensor,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
    pools_from_json,
    pools_to_json,
)
from .integrals import IntegralSet, parse_fcidump, synth_instance

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_TOPOLOGY = 3


_STRICTLY_POSITIVE = ("tau_chol", "eps_poly", "eta")


@dataclass(frozen=True)
class RunManifest:
    """Thresholds and paths of one pipeline invocation."""

    command: str
    inputs: dict
    thresholds: dict
    out: str

    def validate(self):
        for name, value in self.thresholds.items():
            if value is None:
                continue
            if name in _STRICTLY_POSITIVE and value <= 0:
                raise ComposerError(f"threshold {name} must be positive")
            if value < 0:
                raise ComposerError(f"threshold {name} must be nonnegative")
        return self

    def as_dict(self):
        return asdict(self)


def _read(path):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return p.read_text()


def _load_integrals(args):
    if args.synth:
        try:
            seed, n_spatial, n_elec = (int(x) for x in args.synth.split(":"))
        except ValueError as exc:
            raise ComposerError(
                "--synth expects seed:n_spatial:n_elec"
            ) from exc
        return synth_instance(seed, n_spatial, n_elec)
    if not args.ints:
        raise ComposerError("either --ints or --synth is required")
    text = _read(args.ints)
    if text.lstrip().startswith("{"):
        return IntegralSet.from_json(text)
    return parse_fcidump(text)


def _write(path, text):
    with open(path, "w") as out:  # the newline apart: no copy of a large text
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")


def cmd_factorize(args):
    manifest = RunManifest(
        "factorize",
        {"ints": args.ints, "synth": args.synth},
        {
            "tau_chol": args.tau_chol,
            "tau_eig": args.tau_eig,
            "tau_svd": args.tau_svd,
            "tau_wedge": args.tau_wedge,
        },
        args.out,
    ).validate()
    ints = _load_integrals(args)
    ham = build_hamiltonian_pool(ints, args.tau_chol, args.tau_eig)
    gen = None
    if not args.no_generator:
        t2 = mp2_amplitudes(ints)
        gen = nested_svd_t2(t2, args.tau_svd, args.tau_wedge)
    doc = json.loads(pools_to_json(ham, gen))
    doc["manifest"] = manifest.as_dict()
    _write(args.out, json.dumps(doc, sort_keys=True))
    print(
        f"factorize: ell_H={ham.ell} (R1={len(ham.one_body)}, K={len(ham.channels)})"
        + (f", ell_sigma={gen.ell}" if gen is not None else "")
    )
    return EXIT_OK


def _load_pools(path):
    return pools_from_json(_read(path))


def cmd_compile(args):
    ham, gen = _load_pools(args.pool)
    if gen is None:
        raise ComposerError("pool file has no generator section to compile")
    plan = cir.pivots_from_pools(ham, gen)
    degree = qsp.degree_for(gen.alpha_bar, args.eps_poly)
    skel = cir.compile_skeleton(
        ham.n_so, plan, connectivity=args.connectivity, qsp_degree=degree
    )
    summary = (
        f"compile: selector={skel.selector_width} workspace={skel.workspace_width} "
        f"degree={skel.qsp_degree} fingerprint={skel.fingerprint[:16]}"
    )
    text = skel.to_json()
    del ham, gen, skel  # free the pools and the fabric before the document is built
    doc = json.loads(text)
    del text
    doc["manifest"] = RunManifest(
        "compile",
        {"pool": args.pool},
        {"eps_poly": args.eps_poly},
        args.out,
    ).validate().as_dict()
    _write(args.out, json.dumps(doc, sort_keys=True))
    print(summary)
    return EXIT_OK


def _load_skeleton(path):
    return cir.CircuitSkeleton.from_json(_read(path))


def _parse_mask(args, gen):
    if args.mask is not None:
        # an explicitly empty string selects the empty mask
        indices = [int(x) for x in args.mask.split(",") if x.strip() != ""]
        return cir.Mask.of(args.mask_id or "cli", indices)
    if args.eta is not None:
        return dg.one_shot_mask(gen, args.eta, label=args.mask_id)
    return cir.Mask.of(args.mask_id or "full", [lad.address for lad in gen.ladders])


def cmd_dial(args):
    skel = _load_skeleton(args.skel)
    ham, gen = _load_pools(args.pool)
    if gen is None:
        raise ComposerError("pool file has no generator section to dial")
    sheet = cir.dial(skel, ham, gen, _parse_mask(args, gen))
    del skel, ham, gen  # free the fabric and pools before the sheet is encoded
    _write(args.out, sheet.to_json())
    print(
        f"dial: mask={sheet.mask_id} |mask|={len(sheet.mask_indices)} "
        f"fingerprint={sheet.skeleton_fingerprint[:16]}"
    )
    return EXIT_OK


def cmd_verify(args):
    skel = _load_skeleton(args.skel)
    sheet = cir.DialSheet.from_json(_read(args.dial))
    if sheet.skeleton_fingerprint != skel.fingerprint:
        print("verify: topology violation (fingerprint mismatch)", file=sys.stderr)
        return EXIT_TOPOLOGY
    if args.eps_budget is None or args.eps_budget < 0:
        raise ComposerError("--eps-budget must be nonnegative")
    with fields_of("dial sheet"):
        alpha = sheet.classical_coeffs["alpha_bar"]
        omegas = sheet.classical_coeffs["omega"]
    n = skel.n_system
    w = cir.execute_generator_encoding(skel, sheet)
    # every entry of W^dag W - I, as a sparse Gram product
    gram = w.conj().T @ w - sparse.identity(w.shape[0], format="csr")
    unitarity = float(abs(gram).max())
    target = _generator_target_from_sheet(skel, sheet, omegas)
    block = oracle.extract_block(w, n)
    err = float(np.linalg.norm(block - target, 2))
    sector_ok = oracle.assert_sector_preserving(block, n)
    report = {
        "format": oracle.REPORT_FORMAT,
        "alpha": alpha,
        "ancillas": cir.ancillas(skel, "gen"),
        "measured_error": err,
        "unitarity": unitarity,
        "sector_preserving": bool(sector_ok),
        "eps_budget": args.eps_budget,
        "sector": "all",
        "passed": bool(
            err <= args.eps_budget and unitarity <= 1e-11 and sector_ok
        ),
    }
    if args.out:
        _write(args.out, json.dumps(report, sort_keys=True))
    status = "ok" if report["passed"] else "FAILED"
    print(
        f"verify: {status} (rebuild error {err:.3e}, unitarity {unitarity:.3e}, "
        f"budget {args.eps_budget:g})"
    )
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _generator_target_from_sheet(skel, sheet, omegas):
    """Masked generator block implied by the dial data and its ``omega`` alone.

    Reconstructs each ladder's prepared state vectors from the bound
    schedules and assembles the dyadic operators directly, independent of
    the gadget algebra that :func:`execute_generator_encoding` exercises.
    Each adaptor's values are read by position from its span: PREP
    amplitude and sign, then a pair's ``v`` and ``u`` ladders, or per
    bilinear mode its sub-amplitude, ladder and sign.
    """
    n = skel.n_system
    dim = 2**n
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    values = cir.sheet_values(skel, sheet)
    total = np.zeros((dim, dim), dtype=complex)
    cr, _ = jw.jw_ladder_ops(n)
    for ad in skel.adaptors_gen:
        if ad.kind == "null":
            continue
        start, stop = skel.slot_spans["gen", ad.address]
        amp = values[start]
        if amp == 0.0:
            continue
        row = iter(values[start + 2:stop])  # past the PREP amplitude and sign
        om = omegas[ad.address - 1] if ad.address - 1 < len(omegas) else 0.0
        sign = 1.0 if om >= 0 else -1.0
        weight = amp**2 * sign
        if ad.kind == "pair":
            state_v, state_u = (
                ladders.apply_ladder_dense(cir.schedule_from_values(
                    row, n, pivot, cir.wedge_pairs(n, skel.n_occ, side)
                ), vac)
                for side, pivot in (("v", ad.pivot[1]), ("u", ad.pivot[0]))
            )
            dyad = np.outer(state_u, state_v.conj())
            total += weight * 0.5j * (dyad - dyad.conj().T)
        else:
            for j in range(2):
                pivot = ad.pivot[j] if j < len(ad.pivot) else 0
                sub_amp = next(row)
                sched = cir.schedule_from_values(row, n, (pivot,), range(n))
                sub_sign = np.exp(1j * next(row))
                state = ladders.apply_ladder_dense(sched, vac)
                w_vec = np.array(
                    [state[jw.basis_state(n, [p])] for p in range(n)]
                )
                aw = sum(w_vec[p] * cr[p] for p in range(n))
                n_w = (aw @ aw.conj().T).toarray()
                total += weight * (sub_amp**2) * sub_sign.real * n_w
    return total


def cmd_estimate(args):
    fingerprint = mask = None
    if args.dial:  # keep its fingerprint and mask: one large artifact is held at a time
        sheet = cir.DialSheet.from_json(_read(args.dial))
        fingerprint = sheet.skeleton_fingerprint
        mask = cir.Mask.of(sheet.mask_id, sheet.mask_indices)
        del sheet
    skel = _load_skeleton(args.skel)
    if fingerprint not in (None, skel.fingerprint):
        print("estimate: topology violation (fingerprint mismatch)", file=sys.stderr)
        return EXIT_TOPOLOGY
    est = resources.estimate(skel, mask=mask, connectivity=args.connectivity)
    _write(args.out, est.to_json())
    print(est.format_table())
    return EXIT_OK


def cmd_diagnose(args):
    outputs = {}
    if args.t2_a and args.t2_b:
        t_a = T2Tensor.from_json(_read(args.t2_a))
        t_b = T2Tensor.from_json(_read(args.t2_b))
        curve = dg.wauc(t_a, t_b, args.eps_s)
        outputs["wauc"] = curve.wauc
        outputs["r_eps"] = curve.r_eps
        if args.curve_out:
            _write(args.curve_out, curve.to_csv())
    if args.pool and args.eta is not None:
        _, gen = _load_pools(args.pool)
        if gen is None:
            raise ComposerError("pool file has no generator section")
        mask = dg.one_shot_mask(gen, args.eta)
        outputs["mask"] = sorted(mask.indices)
        outputs["coverage"] = dg.mask_coverage(gen, mask)
    if not outputs:
        raise ComposerError(
            "diagnose requires --t2-a/--t2-b and/or --pool with --eta"
        )
    _write(args.out, json.dumps(outputs, sort_keys=True))
    print(f"diagnose: {outputs}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="composer",
        description=(
            "Compile-once block encodings for masked similarity-transformed "
            "effective Hamiltonians"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="integrals -> rank-one ladder pools")
    p.add_argument("--ints", help="FCIDUMP or composer-ints-v1 JSON file")
    p.add_argument("--synth", help="seed:n_spatial:n_elec synthetic instance")
    p.add_argument("--tau-chol", type=float, default=1e-8, dest="tau_chol")
    p.add_argument("--tau-eig", type=float, default=0.0, dest="tau_eig")
    p.add_argument("--tau-svd", type=float, default=1e-6, dest="tau_svd")
    p.add_argument("--tau-wedge", type=float, default=1e-6, dest="tau_wedge")
    p.add_argument("--no-generator", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("compile", help="pools -> frozen circuit skeleton")
    p.add_argument("--pool", required=True)
    p.add_argument("--eps-poly", type=float, default=1e-8, dest="eps_poly")
    p.add_argument("--connectivity", default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("dial", help="skeleton + pools + mask -> dial sheet")
    p.add_argument("--skel", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--mask", help="comma-separated generator addresses")
    p.add_argument("--mask-id", dest="mask_id")
    p.add_argument("--eta", type=float, default=None, help="coverage target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dial)

    p = sub.add_parser("verify", help="execute skeleton + dial in the oracle")
    p.add_argument("--skel", required=True)
    p.add_argument("--dial", required=True)
    p.add_argument("--eps-budget", type=float, default=1e-9, dest="eps_budget")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="skeleton -> resource table")
    p.add_argument("--skel", required=True)
    p.add_argument("--dial")
    p.add_argument("--connectivity", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("diagnose", help="overlap curves and one-shot masks")
    p.add_argument("--t2-a", dest="t2_a")
    p.add_argument("--t2-b", dest="t2_b")
    p.add_argument("--eps-s", type=float, default=0.0, dest="eps_s")
    p.add_argument("--pool")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--curve-out", dest="curve_out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except (ComposerError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
