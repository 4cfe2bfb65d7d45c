"""Acceptance suite: one test per contract criterion, stated tolerances.

Each test prints a PASS line on success (run with ``pytest -s`` or read
the captured output); runtime budgets are asserted alongside the
numerical bounds.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from composer import circuit_ir as cir
from composer import diagnostics as dg
from composer import jw, ladders, mask_engine as me, oracle, qsp
from composer.factorization import (
    BilinearLadder,
    T2Tensor,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
    pivoted_cholesky,
    reconstruct_eri,
)
from composer.integrals import parse_fcidump, synth_instance
from composer.resources import block_cost
from conftest import adaptor_targets, assert_encodes, mixed_generator_pool
from conftest import pool_of, sector_block


def _stamp(label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed <= budget, f"{label} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s)")


def test_c01_factorization_fidelity():
    t0 = time.monotonic()
    tau = 1e-8
    cases = [(seed, 2 + seed % 3) for seed in range(10)]  # n_spatial in 2..4
    for seed, n_spatial in cases:
        ints = synth_instance(seed, n_spatial, 2)
        channels = pivoted_cholesky(ints, tau)
        rec = reconstruct_eri(channels, ints.n_so)
        assert np.abs(rec - ints.eri).max() <= tau
        pool = build_hamiltonian_pool(ints, tau, 0.0)
        dense = oracle.dense_hamiltonian(ints, include_e_nn=False)
        rebuilt = oracle.hamiltonian_from_pool(pool)
        assert np.linalg.norm(dense - rebuilt, 2) <= 10 * tau * ints.n_so**2
    _stamp("1 factorization fidelity", t0, 10.0)


def test_c02_ladder_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    nop_cache = {n: jw.number_operator(n) for n in (3, 4, 5, 6)}

    def check_state(n, sched, target):
        vac = np.zeros(2**n, dtype=complex)
        vac[0] = 1.0
        psi = ladders.apply_ladder_dense(sched, vac)
        assert np.abs(psi - target).max() <= 1e-12
        probe = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        probe /= np.linalg.norm(probe)
        back = ladders.apply_ladder_dense(
            sched, ladders.apply_ladder_dense(sched, probe), inverse=True
        )
        assert np.abs(back - probe).max() <= 1e-12
        nc = sched.as_number_conserving()
        nop = nop_cache[n]
        before = np.vdot(probe, nop @ probe)
        moved = ladders.apply_ladder_dense(nc, probe)
        assert abs(np.vdot(moved, nop @ moved) - before) <= 1e-12

    for _ in range(100):
        n = int(rng.integers(3, 7))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u /= np.linalg.norm(u)
        sched = ladders.one_electron_angles(u)
        target = np.zeros(2**n, dtype=complex)
        for p in range(n):
            target[jw.basis_state(n, [p])] = u[p]
        check_state(n, sched, target)
    for _ in range(50):
        n = int(rng.integers(4, 7))
        pairs = ladders.pair_indices(n)
        u = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
        u /= np.linalg.norm(u)
        sched = ladders.two_electron_angles(u)
        target = np.zeros(2**n, dtype=complex)
        for k, (p, q) in enumerate(pairs):
            target[jw.basis_state(n, [p, q])] = u[k]
        check_state(n, sched, target)
    _stamp("2 ladder exactness", t0, 30.0)


def _perturbed_modes(vectors, rng, scale):
    """Mode columns moved by ``scale`` random noise, then re-orthonormalized."""
    cols = []
    for j in range(vectors.shape[1]):
        w = vectors[:, j] + scale * (
            rng.normal(size=len(vectors)) + 1j * rng.normal(size=len(vectors))
        )
        for prev in cols:
            w = w - np.vdot(prev, w) * prev
        cols.append(w / np.linalg.norm(w))
    return np.stack(cols, axis=1)


def test_c03_adaptor_and_multiplex_verification():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    # n_so = 4 and 6; the 14-qubit Hamiltonian encoding at n_so = 6 runs on
    # its ancilla-zero columns instead of being assembled
    for synth, assembled in (((5, 2, 2), True), ((7, 3, 2), False)):
        ints = synth_instance(*synth)
        n = ints.n_so
        pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
        gen = mixed_generator_pool(
            nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0), n_so=n
        )
        # every adaptor of both pools, executed from dial data, against its
        # own per-ladder target on the working sector
        plan = cir.pivots_from_pools(pool, gen)
        skel = cir.compile_skeleton(n, plan)
        sheet = cir.dial(skel, pool, gen, gen.branches.address.tolist())
        targets = adaptor_targets(pool, gen)
        assert len(targets) == pool.ell + gen.ell
        for address, target in targets.items():
            w = cir.execute_encoding(skel, sheet, address)
            assert_encodes(w, target, n, pool.n_elec)

        # multiplexed Hamiltonian within the additive error formula under
        # injected one-body errors, dialed into the clean pool's fabric
        skel = cir.one_pool_skeleton(pool, None)
        h_target = oracle.hamiltonian_from_pool(pool) / pool.alpha

        def multiplexed_error(sheet):
            if assembled:
                w = cir.execute_encoding(skel, sheet, "ham")
                return oracle.restricted_block_error(
                    w, h_target, cir.ancillas(skel, "ham"), sector=pool.n_elec
                )
            block = cir.execute_block(skel, sheet, "ham", pool.n_elec)
            return oracle.sector_norm(block - sector_block(h_target, pool.n_elec))

        noisy = replace(
            pool,
            one_body=tuple(
                replace(lad, vectors=_perturbed_modes(lad.vectors, rng, 3e-6))
                for lad in pool.one_body
            ),
        )
        sheet = cir.dial(skel, noisy, None, ())
        eps_terms = []
        for lad in pool.ladders:
            address = f"ham/{lad.address}"
            w = cir.execute_encoding(skel, sheet, address)
            eps_s = oracle.restricted_block_error(
                w, targets[address], cir.ancillas(skel, address), sector=pool.n_elec
            )
            if lad.kind == "one_body_mode":
                alpha_s = lad.multiplicity
            else:
                alpha_s = lad.channel.gamma**2
            eps_terms.append(abs(lad.coefficient) * alpha_s * eps_s)
        assert noisy.alpha == pytest.approx(pool.alpha, rel=1e-14)
        bound = sum(eps_terms) / pool.alpha
        assert bound > 0.0
        assert multiplexed_error(sheet) <= bound * (1 + 1e-6) + 1e-14
        # and the unperturbed encoding is numerically exact, as the pool
        # encoder measures it too
        assert multiplexed_error(cir.dial(skel, pool, None, ())) <= 1e-9
        assert oracle.hamiltonian_block_encoding(pool)[1].measured_error <= 1e-9
    _stamp("3 adaptor/multiplex verification", t0, 120.0)


def test_c04_qsp_budget():
    t0 = time.monotonic()
    xs = np.linspace(-1.0, 1.0, 10001)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for eps in (1e-4, 1e-8):
            d = qsp.degree_for(alpha, eps)
            poly = qsp.jacobi_anger_coeffs(alpha, d)
            sup = np.abs(poly.evaluate(xs) - np.exp(-1j * alpha * xs)).max()
            assert sup <= eps
    # error-propagation constant measured and stable across the sweep
    base_gen = nested_svd_t2(mp2_amplitudes(synth_instance(7, 2, 2)), 0.0, 0.0)
    gen = mixed_generator_pool(base_gen)
    mask = frozenset([1, 2])
    for alpha_bar in (0.5, 1.0, 2.0, 4.0):
        _, base = qsp.exp_sigma_block(gen, mask, 1e-12, alpha_bar=alpha_bar)
        consts = []
        for ep in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
            _, rep = qsp.exp_sigma_block(
                gen, mask, 1e-12, eps_prime=ep, alpha_bar=alpha_bar
            )
            assert rep.measured_deviation <= rep.eps_poly + 10 * rep.degree * ep
            consts.append(
                (rep.measured_deviation - base.measured_deviation)
                / (rep.degree * ep)
            )
        consts = np.array(consts)
        c_fit = consts.mean()
        assert consts.max() <= c_fit * 1.2 + 1e-12
        assert consts.min() >= c_fit * 0.8 - 1e-12
    _stamp("4 qsp budget", t0, 60.0)


def test_c05_similarity_sandwich():
    t0 = time.monotonic()
    # n_so = 4 at two seeds, n_so = 6 (synth 7:3:2) and n_so = 8 (synth 7:4:2)
    for synth in ((7, 2, 2), (13, 2, 2), (7, 3, 2), (7, 4, 2)):
        ints = synth_instance(*synth)
        sector = list(jw.sector_indices(ints.n_so, ints.n_elec))
        ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
        base_gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
        gen = mixed_generator_pool(base_gen, n_so=ints.n_so, seed=synth[0])
        masks = (frozenset([1]), frozenset([1, 2]), frozenset([2, 3]))
        for mask in masks:
            rep, _ = me.similarity_sandwich(ham, gen, mask, sector, 1e-9)
            assert rep.within_budget, (
                f"synth {synth} mask {sorted(mask)}: "
                f"{rep.measured_error} > 1.1 * {rep.budget_total}"
            )
    _stamp("5 similarity sandwich", t0, 120.0)


def _scaled(pool, factor):
    """The generator pool with every coefficient multiplied by ``factor``."""
    return replace(
        pool,
        pairs=replace(pool.pairs, coefficient=pool.pairs.coefficient * factor),
        bilinears=tuple(
            replace(lad, coefficient=lad.coefficient * factor) for lad in pool.bilinears
        ),
    )


def test_c06_compile_once_invariance():
    t0 = time.monotonic()
    # n_so = 4 (synth 7:2:2) and n_so = 6 (synth 7:3:2)
    for synth in ((7, 2, 2), (7, 3, 2)):
        ints = synth_instance(*synth)
        n = ints.n_so
        ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
        gen = mixed_generator_pool(
            nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0), n_so=n
        )
        plan = cir.pivots_from_pools(ham, gen)
        skel = cir.compile_skeleton(n, plan, qsp_degree=6)

        coefficient_sets = [_scaled(gen, f) for f in (1.0, 0.5, 1.25)]
        worst = max(p.alpha_bar for p in coefficient_sets)
        masks = [
            cir.Mask.of("m0", []),
            cir.Mask.of("m1", [1]),
            cir.Mask.of("m2", [2, 3]),
            cir.Mask.of("m3", [1, 2, 3]),
        ]
        sheets = []
        for pool in coefficient_sets:
            for mask in masks:
                sheets.append(
                    (pool, mask, cir.dial(skel, ham, pool, mask, alpha_bar=worst))
                )
        fingerprints = {sheet.skeleton_fingerprint for _, _, sheet in sheets}
        assert fingerprints == {skel.fingerprint}
        distinct = {sheet.to_json() for _, _, sheet in sheets}
        assert len(distinct) == 12
        for pool, mask, sheet in sheets:
            w = cir.execute_encoding(skel, sheet, "gen")
            target = oracle.generator_dense(pool, mask.indices) / worst
            assert_encodes(w, target, skel.n_system, pool.sector)
    _stamp("6 compile-once invariance", t0, 60.0)


H2O_ENV = "COMPOSER_H2O_FCIDUMP"
H2O_DEFAULT = Path(__file__).parent / "data" / "h2o_sto3g.fcidump"


def test_c07_conditional_h2o_channel_count():
    path = os.environ.get(H2O_ENV, str(H2O_DEFAULT))
    if not Path(path).exists():
        pytest.skip(
            f"user-supplied H2O/STO-3G FCIDUMP not found (set {H2O_ENV})"
        )
    ints = parse_fcidump(Path(path).read_text())
    pool = build_hamiltonian_pool(ints, 1e-8, 0.0)
    assert len(pool.channels) == 28
    assert pool.ell == 35
    print("ACCEPTANCE 7 conditional H2O channel count: PASS")


def test_c08_connectivity_table_exact():
    t0 = time.monotonic()
    assert block_cost("full") == (0, 8)
    for d_g in range(1, 11):
        assert block_cost(f"linear:{d_g}") == (
            4 * d_g - 2,
            8 + 6 * (4 * d_g - 2),
        )
    for ell in range(2, 11):
        assert block_cost(f"grid:{ell}") == (
            4 * ell - 4,
            8 + 6 * (4 * ell - 4),
        )
    _stamp("8 connectivity table exactness", t0, 5.0)


def test_c09_diagnostics():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    # self overlap
    t_a = T2Tensor(rng.normal(size=(10, 6)), 4, 5)
    assert dg.wauc(t_a, t_a).wauc == pytest.approx(1.0, abs=1e-10)
    # random-subspace baseline: E[ov(r)] = r / dim within 3 standard errors
    n_virt, n_occ = 5, 4
    dim = 10 * 6
    r = 2
    samples = []
    for _ in range(100):
        x = T2Tensor(rng.normal(size=(10, 6)), n_occ, n_virt)
        y = T2Tensor(rng.normal(size=(10, 6)), n_occ, n_virt)
        samples.append(dg.subspace_overlap(x, y, r))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - r / dim) <= 3 * se
    # one-shot mask minimality, exhaustively on pools of size <= 20
    u0 = np.eye(4, dtype=complex)
    for trial in range(8):
        size = int(rng.integers(2, 21))
        weights = rng.uniform(0.01, 1.0, size=size)
        pool = pool_of(
            [
                BilinearLadder(
                    u=u0[:, 2 + (k % 2)],
                    v=u0[:, k % 2],
                    coefficient=float(np.sqrt(w)),
                    address=k + 1,
                )
                for k, w in enumerate(weights)
            ],
            n_occ=2,
            n_virt=2,
            n_elec=2,
        )
        eta = float(rng.uniform(0.2, 0.999))
        mask = dg.one_shot_mask(pool, eta)
        lw = dg.ladder_weights(pool)
        total = sum(lw.values())
        cov = sum(lw[a] for a in mask.indices) / total
        assert cov >= eta - 1e-12
        smallest = min(mask.indices, key=lambda a: lw[a])
        assert (cov * total - lw[smallest]) / total < eta
    # trace conservation of the transformed density matrices
    gen = mixed_generator_pool(
        nested_svd_t2(mp2_amplitudes(synth_instance(7, 2, 2)), 0.0, 0.0)
    )
    ref = np.zeros(16, dtype=complex)
    ref[jw.basis_state(4, [0, 1])] = 1.0
    occ, vir = dg.reduced_density_blocks(gen, frozenset([1, 2, 3]), ref, 4)
    assert np.trace(occ).real + np.trace(vir).real == pytest.approx(2.0, abs=1e-10)
    _stamp("9 diagnostics", t0, 60.0)


def test_c10_toy_subspace_ordering():
    t0 = time.monotonic()
    toy = me.toy_two_generator_instance()
    e_single = float(np.vdot(toy.reference, toy.hamiltonian @ toy.reference).real)
    e3, _ = me.gcim_subspace_solve(toy.hamiltonian, me.toy_basis_states(toy))
    _, e_swept = me.swept_coordinate_minimum(toy)
    assert e_swept <= e3[0] + 1e-12
    assert e3[0] <= e_single + 1e-12
    # fine-grid brute-force span minimum (independent oracle)
    rs = np.linspace(-3.0, 3.0, 6001)
    energies = np.array([me.toy_sweep_energy(toy, r) for r in rs])
    k = int(np.argmin(energies))
    a, b, c = np.polyfit(rs[k - 1 : k + 2], energies[k - 1 : k + 2], 2)
    e_oracle = me.toy_sweep_energy(toy, -b / (2 * a))
    assert e_swept == pytest.approx(e_oracle, abs=1e-8)
    _stamp("10 toy subspace ordering", t0, 120.0)
