import json

import numpy as np
import pytest

from composer import oracle
from composer.errors import DegenerateGapError, NotPSDError, ParseError
from composer.factorization import (
    T2Tensor,
    build_hamiltonian_pool,
    channel_eigendecomp,
    mp2_amplitudes,
    nested_svd_t2,
    pivoted_cholesky,
    pools_from_json,
    pools_to_json,
    rebuild_t2,
    reconstruct_eri,
    unpack_skew,
)
from composer.integrals import IntegralSet, synth_instance, with_orbital_energies
from conftest import edit_packed


def zero_eri_instance(n_spatial=2):
    n = 2 * n_spatial
    h = np.diag(np.linspace(-1.0, 1.0, n))
    return IntegralSet(n_spatial, n, 2, 0.0, h, np.zeros((n, n, n, n)))


def test_cholesky_zero_tensor():
    assert pivoted_cholesky(zero_eri_instance(), 1e-8) == []


def test_cholesky_exact_rank_one():
    # supermatrix g g^T from a single symmetric spatial factor
    rng = np.random.default_rng(0)
    m = 2
    g = rng.normal(size=(m, m))
    g = (g + g.T) / 2.0
    chem = np.einsum("ij,kl->ijkl", g, g)
    from composer.integrals import expand_spin

    h, eri = expand_spin(np.zeros((m, m)), chem)
    ints = IntegralSet(m, 2 * m, 2, 0.0, h, eri)
    channels = pivoted_cholesky(ints, 1e-12)
    assert len(channels) == 1
    rec = reconstruct_eri(channels, ints.n_so)
    assert np.abs(rec - eri).max() <= 1e-12


def test_cholesky_reconstruction_brute_force():
    ints = synth_instance(3, 3, 2)
    channels = pivoted_cholesky(ints, 1e-8)
    n = ints.n_so
    # full O(n^4) loop oracle
    rec = np.zeros((n, n, n, n))
    for ch in channels:
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        rec[p, q, r, s] += ch.factor[p, r] * ch.factor[q, s]
    assert np.abs(rec - ints.eri).max() <= 1e-8


def test_cholesky_exact_at_zero_tolerance():
    # the synthetic supermatrix has exact rank n_spatial
    ints = synth_instance(7, 3, 2)
    channels = pivoted_cholesky(ints, 0.0)
    rec = reconstruct_eri(channels, ints.n_so)
    assert np.abs(rec - ints.eri).max() <= 1e-12
    assert len(channels) == 3


def test_cholesky_monotone_in_tolerance():
    ints = synth_instance(9, 4, 4)
    k_loose = len(pivoted_cholesky(ints, 1e-2))
    k_tight = len(pivoted_cholesky(ints, 1e-10))
    assert k_tight >= k_loose


def test_cholesky_rejects_non_psd():
    ints = zero_eri_instance()
    eri = ints.eri.copy()
    eri[0, 0, 0, 0] = -1.0  # negative diagonal
    bad = IntegralSet(ints.n_spatial, ints.n_so, 2, 0.0, ints.h, eri)
    with pytest.raises(NotPSDError):
        pivoted_cholesky(bad, 1e-10)


def test_cholesky_deterministic_pivots():
    ints = synth_instance(5, 3, 2)
    a = pivoted_cholesky(ints, 1e-9)
    b = pivoted_cholesky(ints, 1e-9)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.factor, cb.factor)


def test_channel_eigendecomp_identity():
    ch = pivoted_cholesky(synth_instance(1, 2, 2), 1e-10)[0]
    ident = type(ch)(index=0, factor=np.eye(2))
    out = channel_eigendecomp(ident, 0.0)
    assert np.allclose(out.eigvals, [1.0, 1.0])
    assert out.rank == 2
    assert out.gamma == pytest.approx(2.0)


def test_channel_eigendecomp_cutoff():
    from composer.factorization import CholeskyChannel

    ch = CholeskyChannel(index=0, factor=np.diag([1.0, 1e-6]))
    out = channel_eigendecomp(ch, 1e-4)
    assert out.rank == 1
    assert out.gamma == pytest.approx(1.0)


def test_channel_eigendecomp_reconstruction():
    rng = np.random.default_rng(12)
    from composer.factorization import CholeskyChannel

    factor = rng.normal(size=(4, 4))
    factor = (factor + factor.T) / 2.0
    out = channel_eigendecomp(CholeskyChannel(index=0, factor=factor), 0.0)
    rec = out.rotation @ np.diag(out.eigvals) @ out.rotation.T
    assert np.abs(rec - factor).max() <= 1e-12


def test_pool_diagonal_one_body_counts():
    # htilde = diag(-1, 2) on a two-mode register: R1 = 2, K = 0, alpha = 3
    h = np.diag([-1.0, 2.0])
    ints = IntegralSet(1, 2, 2, 0.0, h, np.zeros((2, 2, 2, 2)))
    pool = build_hamiltonian_pool(ints, 1e-8, 0.0)
    assert len(pool.one_body) == 2
    assert len(pool.channels) == 0
    assert pool.ell == 2
    assert pool.alpha == pytest.approx(3.0)


def test_pool_rebuild_matches_dense_hamiltonian():
    ints = synth_instance(5, 3, 2)
    tau = 1e-9
    pool = build_hamiltonian_pool(ints, tau, 0.0)
    dense = oracle.dense_hamiltonian(ints, include_e_nn=False)
    rebuilt = oracle.hamiltonian_from_pool(pool)
    bound = 10 * tau * ints.n_so**2
    assert np.linalg.norm(dense - rebuilt, 2) <= bound


def test_mp2_zero_interaction():
    ints = with_orbital_energies(zero_eri_instance())
    t2 = mp2_amplitudes(ints)
    assert np.abs(t2.amplitudes).max() == 0.0
    assert t2.e_corr == 0.0


def test_mp2_single_term_formula():
    # one occupied pair, one virtual pair, <ij||ab> = 0.2, gap = -2
    n = 4
    eri = np.zeros((n, n, n, n))
    eri[0, 1, 2, 3] = 0.2
    eri[1, 0, 3, 2] = 0.2
    eri[2, 3, 0, 1] = 0.2
    eri[3, 2, 1, 0] = 0.2
    ints = IntegralSet(
        2,
        n,
        2,
        0.0,
        np.zeros((n, n)),
        eri,
        orb_energies=np.array([-1.0, -1.0, 0.0, 0.0]),
    )
    t2 = mp2_amplitudes(ints)
    assert t2.amplitudes.shape == (1, 1)
    assert t2.amplitudes[0, 0] == pytest.approx(-0.1, abs=1e-14)
    assert t2.e_corr == pytest.approx(-0.02, abs=1e-14)


def rs_pt2_energy(ints):
    """Dense Rayleigh-Schrodinger second-order oracle (<= 6 qubits).

    Partition with the diagonal Fock operator; sums over all excited
    determinants of the same particle number.
    """
    from composer import jw

    n = ints.n_so
    eps = ints.orb_energies
    h = oracle.dense_hamiltonian(ints, include_e_nn=False)
    sector = jw.sector_indices(n, ints.n_elec)
    occ0 = frozenset(range(ints.n_elec))
    ref = jw.basis_state(n, sorted(occ0))
    e2 = 0.0
    for idx in sector:
        if idx == ref:
            continue
        occ = frozenset(p for p in range(n) if jw.mode_bit(n, idx, p))
        e0_k = sum(eps[p] for p in occ)
        e0_0 = sum(eps[p] for p in occ0)
        v = h[idx, ref]
        if abs(v) < 1e-15:
            continue
        e2 += abs(v) ** 2 / (e0_0 - e0_k)
    return e2


def test_mp2_matches_dense_rspt2():
    ints = synth_instance(2, 3, 2)
    t2 = mp2_amplitudes(ints)
    assert t2.e_corr == pytest.approx(rs_pt2_energy(ints), abs=1e-10)


def test_mp2_degenerate_gap_raises():
    n = 4
    eri = np.zeros((n, n, n, n))
    eri[0, 1, 2, 3] = 0.2
    eri[1, 0, 3, 2] = 0.2
    eri[2, 3, 0, 1] = 0.2
    eri[3, 2, 1, 0] = 0.2
    ints = IntegralSet(
        2,
        n,
        2,
        0.0,
        np.zeros((n, n)),
        eri,
        orb_energies=np.array([-1.0, -1.0, -1.0, -1.0 + 1e-10]),
    )
    with pytest.raises(DegenerateGapError):
        mp2_amplitudes(ints)


def test_nested_svd_zero_tensor():
    t2 = T2Tensor(np.zeros((6, 1)), 2, 4)
    pool = nested_svd_t2(t2)
    assert pool.ell == 0
    assert pool.alpha_bar == 0.0


def test_nested_svd_single_amplitude():
    amp = np.zeros((6, 1))
    amp[2, 0] = 0.3
    pool = nested_svd_t2(T2Tensor(amp, 2, 4), 0.0, 0.0)
    assert pool.ell == 1
    assert pool.ladders[0].coefficient == pytest.approx(0.3, abs=1e-12)
    assert np.abs(rebuild_t2(pool) - amp).max() <= 1e-12


def test_nested_svd_exact_reconstruction():
    rng = np.random.default_rng(5)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    pool = nested_svd_t2(t2, 0.0, 0.0)
    assert np.abs(rebuild_t2(pool) - t2.amplitudes).max() <= 1e-10


def test_wedge_factors_are_antisymmetric_unit_norm():
    rng = np.random.default_rng(6)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    pool = nested_svd_t2(t2, 0.0, 0.0)
    for lad in pool.ladders:
        uv = lad.virtual_pair_vector()
        m = unpack_skew(uv, 4)
        assert np.abs(m + m.T).max() <= 1e-12
        assert np.linalg.norm(uv) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(lad.occupied_pair_vector()) == pytest.approx(
            1.0, abs=1e-10
        )
        assert lad.coefficient > 0  # signs absorbed into the wedge vectors


def test_pool_serialization_roundtrip(small_pools):
    ham, gen = small_pools
    text = pools_to_json(ham, gen)
    ham2, gen2 = pools_from_json(text)
    assert ham2.alpha == pytest.approx(ham.alpha, abs=1e-15)
    assert gen2.alpha_bar == pytest.approx(gen.alpha_bar, abs=1e-15)
    assert np.abs(
        oracle.hamiltonian_from_pool(ham2)
        - oracle.hamiltonian_from_pool(ham)
    ).max() <= 1e-13
    assert pools_to_json(ham2, gen2) == text


def test_pool_loader_checks_bilinear_vector_lengths(small_pools, mixed_gen_pool):
    """A bilinear ``u`` or ``v`` must have ``n_so`` entries."""
    ham, _ = small_pools
    doc = json.loads(pools_to_json(ham, mixed_gen_pool))
    lad = next(lad for lad in doc["generator"]["ladders"] if lad["kind"] == "bilinear")
    # one more complex entry: its real and imaginary parts
    edit_packed(lad, "v", lambda values: values.extend([0.0, 0.0]))
    message = f"ladder {lad['address']} v must hold 8 float64 values, not 10"
    with pytest.raises(ParseError, match=message):
        pools_from_json(json.dumps(doc))


def test_nested_svd_truncation_monotone():
    rng = np.random.default_rng(21)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    errors = []
    for tau in (0.9, 0.5, 0.1, 0.0):
        pool = nested_svd_t2(t2, tau_svd=tau, tau_wedge=tau)
        errors.append(
            float(np.linalg.norm(rebuild_t2(pool) - t2.amplitudes, "fro"))
        )
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-10


def test_synth_beyond_eight_spatial_orbitals_factorizes():
    """Factorization builds no dense operator, so n_so = 18 is in range."""
    ints = synth_instance(1, 9, 8)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    assert ham.n_so == gen.n_so == 18
    assert ham.ell > 0 and gen.ell > 0 and gen.n_occ == 8
