import numpy as np
import pytest

from composer import diagnostics as dg
from composer import jw, oracle, qsp
from composer.errors import MaskError, RankError, ValidationError, ZeroTensorError
from composer.factorization import (
    BilinearLadder,
    GeneratorPool,
    T2Tensor,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
    pools_from_json,
    pools_to_json,
)
from composer.integrals import synth_instance


def random_t2(rng, n_virt=4, n_occ=4):
    nvp = n_virt * (n_virt - 1) // 2
    nop = n_occ * (n_occ - 1) // 2
    return T2Tensor(rng.normal(size=(nvp, nop)), n_occ, n_virt)


def test_self_overlap_is_one():
    rng = np.random.default_rng(0)
    t = random_t2(rng)
    for r in (1, 2, 3):
        assert dg.subspace_overlap(t, t, r) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_leading_dyads_give_zero():
    amp_a = np.zeros((6, 6))
    amp_a[0, 0] = 1.0
    amp_b = np.zeros((6, 6))
    amp_b[1, 1] = 1.0
    ta = T2Tensor(amp_a, 4, 4)
    tb = T2Tensor(amp_b, 4, 4)
    assert dg.subspace_overlap(ta, tb, 1) == pytest.approx(0.0, abs=1e-14)


def test_overlap_matches_principal_angle_oracle():
    """Brute-force principal angles from the explicit dyad frames."""
    rng = np.random.default_rng(3)
    ta, tb = random_t2(rng), random_t2(rng)
    r = 4
    fa = dg._dyad_frame(ta, r)
    fb = dg._dyad_frame(tb, r)
    cosines = np.linalg.svd(fa.conj().T @ fb, compute_uv=False)
    expected = float(np.sum(cosines**2) / r)
    assert dg.subspace_overlap(ta, tb, r) == pytest.approx(expected, abs=1e-10)


def test_rank_error_beyond_numerical_rank():
    amp = np.zeros((6, 6))
    amp[0, 0] = 1.0
    t = T2Tensor(amp, 4, 4)
    with pytest.raises(RankError):
        dg.subspace_overlap(t, t, 3)


def test_wauc_self_is_one():
    rng = np.random.default_rng(1)
    t = random_t2(rng)
    curve = dg.wauc(t, t)
    assert curve.wauc == pytest.approx(1.0, abs=1e-10)
    assert curve.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_wauc_orthogonal_rank_one_is_zero():
    amp_a = np.zeros((6, 6))
    amp_a[0, 0] = 1.0
    amp_b = np.zeros((6, 6))
    amp_b[1, 1] = 1.0
    curve = dg.wauc(T2Tensor(amp_a, 4, 4), T2Tensor(amp_b, 4, 4))
    assert curve.wauc == pytest.approx(0.0, abs=1e-14)


def test_wauc_zero_tensor_raises():
    t0 = T2Tensor(np.zeros((6, 6)), 4, 4)
    rng = np.random.default_rng(2)
    with pytest.raises(ZeroTensorError):
        dg.wauc(t0, random_t2(rng))


def test_wauc_of_an_empty_tensor_raises():
    """Synth 1:1:2 has no virtual orbital: its amplitudes hold no entry, so
    the overlap is undefined and ``nested_svd_t2`` gives an empty pool."""
    t2 = mp2_amplitudes(synth_instance(1, 1, 2))
    assert t2.amplitudes.size == 0
    with pytest.raises(ZeroTensorError):
        dg.wauc(t2, t2)
    assert nested_svd_t2(t2).ell == 0


def test_wauc_is_asymmetric():
    rng = np.random.default_rng(4)
    # reference with one dominant singular value versus a flat spectrum
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    sa = np.diag([10.0, 1.0, 0.5, 0.2, 0.1, 0.05])
    ta = T2Tensor(u @ sa @ v.T, 4, 4)
    tb = random_t2(rng)
    ab = dg.wauc(ta, tb).wauc
    ba = dg.wauc(tb, ta).wauc
    assert abs(ab - ba) > 1e-3


def test_random_subspace_baseline():
    """Independent random dyad frames overlap like r/dim on average."""
    rng = np.random.default_rng(7)
    n_virt, n_occ = 5, 4
    dim = (n_virt * (n_virt - 1) // 2) * (n_occ * (n_occ - 1) // 2)
    r = 2
    samples = []
    for _ in range(100):
        ta = random_t2(rng, n_virt, n_occ)
        tb = random_t2(rng, n_virt, n_occ)
        samples.append(dg.subspace_overlap(ta, tb, r))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - r / dim) <= 3 * se


def make_pool(weights):
    u0 = np.eye(4, dtype=complex)
    ladders = tuple(
        BilinearLadder(
            u=u0[:, 2 + (k % 2)],
            v=u0[:, k % 2],
            coefficient=float(np.sqrt(w)),
            address=k + 1,
        )
        for k, w in enumerate(weights)
    )
    return GeneratorPool(ladders=ladders, n_occ=2, n_virt=2, n_elec=2)


def test_one_shot_mask_full_coverage():
    pool = make_pool([0.5, 0.3, 0.2])
    mask = dg.one_shot_mask(pool, 1.0)
    assert mask.indices == frozenset([1, 2, 3])


def test_one_shot_mask_prefix():
    pool = make_pool([0.9, 0.09, 0.01])
    mask = dg.one_shot_mask(pool, 0.95)
    assert sorted(mask.indices) == [1, 2]


def test_one_shot_mask_minimality_exhaustive():
    rng = np.random.default_rng(9)
    for trial in range(5):
        weights = rng.uniform(0.01, 1.0, size=rng.integers(3, 20))
        pool = make_pool(weights / weights.sum())
        eta = float(rng.uniform(0.3, 0.999))
        mask = dg.one_shot_mask(pool, eta)
        w = dg.ladder_weights(pool)
        total = sum(w.values())
        coverage = sum(w[a] for a in mask.indices) / total
        assert coverage >= eta - 1e-12
        smallest = min(mask.indices, key=lambda a: w[a])
        reduced = (coverage * total - w[smallest]) / total
        assert reduced < eta


def _per_ladder_weights(pool):
    """Reference :func:`diagnostics.ladder_weights`: one ladder at a time."""
    out = {}
    for lad in pool.ladders:
        w = abs(lad.coefficient) ** 2
        if lad.kind == "pair":
            w *= (
                np.linalg.norm(lad.virtual_pair_vector()) ** 2
                * np.linalg.norm(lad.occupied_pair_vector()) ** 2
            )
        out[lad.address] = float(w)
    return out


@pytest.mark.parametrize(
    "synth", ["1:8:8", "2:8:8", "3:8:8", "4:8:8", "5:8:8", "81:8:8", "5:6:4"]
)
def test_batched_ladder_weights_keep_the_per_ladder_bits(synth, monkeypatch):
    """Every ladder kept, in memory and as ``dial`` loads it: the weights read
    from the pool's batches equal the per-ladder ``np.linalg.norm`` ones bit
    for bit (a batched ``norm(axis=1)`` changes about a third of them at
    ``n_so = 16``), so every ``--eta`` mask is the same.
    """
    ints = synth_instance(*map(int, synth.split(":")))
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    _, loaded = pools_from_json(pools_to_json(ham, gen))
    etas = (0.5, 0.9, 0.99, 1.0)
    for pool in (gen, loaded):
        weights = dg.ladder_weights(pool)
        assert weights == _per_ladder_weights(pool)
        masks = [dg.one_shot_mask(pool, eta).indices for eta in etas]
        with monkeypatch.context() as patched:
            patched.setattr(dg, "ladder_weights", _per_ladder_weights)
            assert masks == [dg.one_shot_mask(pool, eta).indices for eta in etas]


def test_weights_of_a_mixed_pool_keep_the_per_ladder_bits(mixed_gen_pool):
    assert dg.ladder_weights(mixed_gen_pool) == _per_ladder_weights(mixed_gen_pool)


def test_one_shot_mask_validation():
    pool = make_pool([1.0])
    with pytest.raises(ValidationError):
        dg.one_shot_mask(pool, 0.0)
    empty = GeneratorPool(ladders=(), n_occ=2, n_virt=2, n_elec=2)
    with pytest.raises(MaskError):
        dg.one_shot_mask(empty, 0.9)


def test_coverage_recomputed_matches(mixed_gen_pool):
    mask = dg.one_shot_mask(mixed_gen_pool, 0.8)
    assert dg.mask_coverage(mixed_gen_pool, mask) >= 0.8 - 1e-12


def reference_determinant(n, n_elec):
    ref = np.zeros(2**n, dtype=complex)
    ref[jw.basis_state(n, range(n_elec))] = 1.0
    return ref


def test_drift_zero_for_identical_pools(mixed_gen_pool):
    ref = reference_determinant(4, 2)
    occ, vir = dg.density_matrix_drift(
        mixed_gen_pool, mixed_gen_pool, frozenset([1, 2]), ref, 4
    )
    assert occ == 0.0 and vir == 0.0


def test_uncorrelated_rdm_is_identity_on_occupied(mixed_gen_pool):
    ref = reference_determinant(4, 2)
    occ, vir = dg.reduced_density_blocks(mixed_gen_pool, frozenset(), ref, 4)
    assert np.abs(occ - np.eye(2)).max() <= 1e-12
    assert np.abs(vir).max() <= 1e-12


def test_trace_conservation(mixed_gen_pool):
    ref = reference_determinant(4, 2)
    for mask in (frozenset([1]), frozenset([1, 2, 3])):
        occ, vir = dg.reduced_density_blocks(mixed_gen_pool, mask, ref, 4)
        assert np.trace(occ).real + np.trace(vir).real == pytest.approx(
            2.0, abs=1e-10
        )


def scaled_pool(pool, factor):
    ladders = []
    for lad in pool.ladders:
        if lad.kind == "pair":
            from composer.factorization import PairLadder

            ladders.append(
                PairLadder(
                    x=lad.x,
                    y=lad.y,
                    r=lad.r,
                    s=lad.s,
                    coefficient=lad.coefficient * factor,
                    address=lad.address,
                )
            )
        else:
            ladders.append(
                BilinearLadder(
                    u=lad.u,
                    v=lad.v,
                    coefficient=lad.coefficient * factor,
                    address=lad.address,
                )
            )
    return GeneratorPool(
        ladders=tuple(ladders),
        n_occ=pool.n_occ,
        n_virt=pool.n_virt,
        n_elec=pool.n_elec,
    )


def test_drift_scales_linearly(mixed_gen_pool):
    ref = reference_determinant(4, 2)
    mask = frozenset([1, 2])
    drifts = []
    deltas = (1e-3, 1e-2, 1e-1)
    for delta in deltas:
        new = scaled_pool(mixed_gen_pool, 1.0 + delta)
        occ, _ = dg.density_matrix_drift(mixed_gen_pool, new, mask, ref, 4)
        drifts.append(occ)
    ratios = np.array(drifts) / np.array(deltas)
    assert ratios.max() / ratios.min() <= 1.3


def test_curve_csv_export():
    rng = np.random.default_rng(11)
    t = random_t2(rng)
    text = dg.wauc(t, t).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "r,ov,w"
    assert len(lines) >= 2


@pytest.mark.parametrize("mask", [frozenset(), frozenset([1, 3])])
def test_density_blocks_match_vdot_loop(mixed_gen_pool, mask):
    """The map contraction equals ``<psi| a_q^dag a_p |psi>``, one ``vdot`` each."""
    n = 4
    cr, an = jw.jw_ladder_ops(n)
    ref = np.zeros(2**n, dtype=complex)
    ref[jw.basis_state(n, [0, 1])] = 1.0
    herm = oracle.generator_dense(mixed_gen_pool, mask)
    psi = qsp.exact_exponential(herm) @ ref
    dmat = np.array([[np.vdot(psi, cr[q] @ (an[p] @ psi)) for q in range(n)]
                     for p in range(n)])
    occ, vir = dg.reduced_density_blocks(mixed_gen_pool, mask, ref, n)
    assert np.abs(occ - dmat[:2, :2]).max() <= 1e-14
    assert np.abs(vir - dmat[2:, 2:]).max() <= 1e-14
