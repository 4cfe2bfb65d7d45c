import numpy as np
import pytest
from scipy import special

from composer import qsp
from composer.errors import SpectralBoundError


def test_bessel_against_scipy():
    for alpha in (0.3, 1.0, 2.5, 5.0, 8.0):
        js = qsp.bessel_sequence(alpha, 40)
        ref = special.jv(np.arange(41), alpha)
        assert np.abs(js - ref).max() <= 1e-14


def test_degree_for_zero_alpha():
    assert qsp.degree_for(0.0, 1e-6) == 0


def test_degree_monotone_in_eps():
    assert qsp.degree_for(2.0, 1e-4) >= qsp.degree_for(2.0, 1e-2)


def test_degree_nondecreasing_in_alpha():
    degrees = [qsp.degree_for(a, 1e-6) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert degrees == sorted(degrees)


def test_degree_is_even_and_certified():
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for eps in (1e-3, 1e-6, 1e-10):
            d = qsp.degree_for(alpha, eps)
            assert d % 2 == 0
            poly = qsp.jacobi_anger_coeffs(alpha, d)
            assert poly.eps_poly <= eps
            xs = np.linspace(-1.0, 1.0, 10001)
            sup = np.abs(poly.evaluate(xs) - np.exp(-1j * alpha * xs)).max()
            assert sup <= eps


def test_coeffs_trivial_degree_zero():
    poly = qsp.jacobi_anger_coeffs(0.0, 0)
    assert poly.coeffs[0] == pytest.approx(1.0)
    assert np.abs(poly.evaluate(np.array([0.3])) - 1.0).max() <= 1e-15


def test_coeff_decay_supergeometric():
    alpha = 2.0
    poly = qsp.jacobi_anger_coeffs(alpha, 24)
    mags = np.abs(poly.coeffs)
    tail = mags[int(np.ceil(alpha)) + 4 :]
    ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
    # strictly decaying ratios once past the turning point
    assert np.all(ratios < 0.5)


def test_matrix_poly_zero_matrix():
    # degree zero: the constant coefficient is all that survives
    poly0 = qsp.jacobi_anger_coeffs(0.0, 0)
    out0 = qsp.apply_matrix_poly(poly0, np.zeros((3, 3)))
    assert np.abs(out0 - poly0.coeffs[0] * np.eye(3)).max() <= 1e-15
    # general even degree: the zero matrix evaluates to P(0) ~= exp(0)
    poly = qsp.jacobi_anger_coeffs(1.0, 8)
    out = qsp.apply_matrix_poly(poly, np.zeros((3, 3)))
    assert np.abs(out - np.eye(3)).max() <= poly.eps_poly


def test_matrix_poly_diagonal_case():
    poly = qsp.jacobi_anger_coeffs(1.3, 12)
    a = np.diag([1.0, -1.0, 0.25])
    out = qsp.apply_matrix_poly(poly, a)
    expect = np.diag(poly.evaluate(np.diag(a)))
    assert np.abs(out - expect).max() <= 1e-13


def test_matrix_poly_matches_expm():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 12))
    a = (a + a.T) / 2.0
    a /= np.linalg.norm(a, 2)
    alpha = 1.5
    d = qsp.degree_for(alpha, 1e-11)
    poly = qsp.jacobi_anger_coeffs(alpha, d)
    out = qsp.apply_matrix_poly(poly, a)
    w, v = np.linalg.eigh(alpha * a)
    expm = (v * np.exp(-1j * w)) @ v.conj().T
    assert np.linalg.norm(out - expm, 2) <= poly.eps_poly


def test_matrix_poly_rejects_large_norm():
    poly = qsp.jacobi_anger_coeffs(1.0, 6)
    with pytest.raises(SpectralBoundError):
        qsp.apply_matrix_poly(poly, 1.5 * np.eye(2))


def test_unitarity_drift_bound():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(10, 10))
    a = (a + a.T) / 2.0
    a /= np.linalg.norm(a, 2)
    poly = qsp.jacobi_anger_coeffs(2.0, qsp.degree_for(2.0, 1e-8))
    p = qsp.apply_matrix_poly(poly, a)
    drift = np.linalg.norm(p.conj().T @ p - np.eye(10), 2)
    assert drift <= 3 * poly.eps_poly


def test_degree_asymptotic_fit():
    """Affine model in (alpha, log(1/eps)) fits the degree within 20 %.

    Relative least squares; the RMS relative residual carries the 20 %
    requirement, while pointwise deviations get an extra allowance of 2
    for the even-degree parity step.
    """
    alphas = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    epss = np.array([1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    rows, ds = [], []
    for a in alphas:
        for e in epss:
            rows.append([a, np.log(1.0 / e), 1.0])
            ds.append(qsp.degree_for(a, e))
    a_mat = np.array(rows)
    d_vec = np.array(ds, dtype=float)
    coef, *_ = np.linalg.lstsq(
        a_mat / d_vec[:, None], np.ones_like(d_vec), rcond=None
    )
    fit = a_mat @ coef
    rel = np.abs(fit - d_vec) / d_vec
    assert np.sqrt((rel**2).mean()) <= 0.20
    assert np.all(np.abs(fit - d_vec) <= 0.20 * d_vec + 2.0)
    assert coef[0] > 0 and coef[1] > 0


def test_exp_sigma_block_empty_mask(small_pools):
    _, gen = small_pools
    approx, rep = qsp.exp_sigma_block(gen, frozenset(), 1e-12)
    assert np.abs(approx - np.eye(approx.shape[0])).max() <= rep.eps_poly + 1e-12


def test_exp_sigma_block_small_coefficient(mixed_gen_pool):
    gen = mixed_gen_pool
    _, rep = qsp.exp_sigma_block(
        gen, frozenset([1]), 1e-10, eps_prime=1e-6
    )
    assert rep.measured_deviation <= rep.eps_poly + 10 * rep.degree * 1e-6


def test_exp_sigma_block_exact_when_unperturbed(mixed_gen_pool):
    gen = mixed_gen_pool
    for mask in (frozenset([1]), frozenset([1, 2]), frozenset([1, 2, 3])):
        _, rep = qsp.exp_sigma_block(gen, mask, 1e-10)
        assert rep.measured_deviation <= rep.eps_poly + 1e-12


def test_exp_sigma_block_exact_on_six_modes(medium_instance):
    from composer.factorization import mp2_amplitudes, nested_svd_t2

    gen = nested_svd_t2(mp2_amplitudes(medium_instance), 0.0, 0.0)
    assert gen.n_so == 6
    full = frozenset(gen.branches.address.tolist())
    _, rep = qsp.exp_sigma_block(gen, full, 1e-10)
    assert rep.measured_deviation <= rep.eps_poly + 1e-12


def test_error_propagation_linear_in_eps_prime(mixed_gen_pool):
    gen = mixed_gen_pool
    mask = frozenset([1, 2])
    sweep = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
    _, base = qsp.exp_sigma_block(gen, mask, 1e-12)
    consts = []
    for ep in sweep:
        _, rep = qsp.exp_sigma_block(gen, mask, 1e-12, eps_prime=ep)
        consts.append(
            (rep.measured_deviation - base.measured_deviation)
            / (rep.degree * ep)
        )
    consts = np.array(consts)
    assert consts.max() / consts.min() <= 1.2
