"""Chebyshev/Jacobi-Anger machinery for exponentiating encoded generators.

The exponential ``exp(-i alpha x)`` truncates to an even-degree Chebyshev
series whose coefficients are Bessel values, with a certified tail bound;
the polynomial is applied to the encoded block through the three-term
matrix recurrence, which realizes the same map a phased signal-processing
sequence would produce without synthesizing phase lists.  The generator
block comes from running its encoding on the ancilla-zero columns of its
working particle-number sector (``circuit_ir.execute_block(skel, sheet,
"gen", N)``); the unitary is never assembled.  Every matrix here is a
plain dense ``C(n, N)``-square array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit_ir, oracle
from .errors import SpectralBoundError, ValidationError

_TAIL_EXTRA = 60


@dataclass(frozen=True, eq=False)
class ChebyshevPoly:
    """Truncated Chebyshev expansion of ``exp(-i target_alpha x)``.

    ``eps_poly`` certifies the sup-norm error on [-1, 1] via the absolute
    Jacobi-Anger tail.
    """

    degree: int
    coeffs: np.ndarray
    target_alpha: float
    eps_poly: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=complex)
        t_prev = np.ones_like(x)
        t_cur = x.copy()
        acc += self.coeffs[0] * t_prev
        if self.degree >= 1:
            acc += self.coeffs[1] * t_cur
        for k in range(2, self.degree + 1):
            t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
            acc += self.coeffs[k] * t_cur
        return acc


def bessel_sequence(alpha, kmax):
    """``J_0 .. J_kmax`` at argument ``alpha`` by Miller downward recurrence.

    Starts well above ``kmax`` and normalizes with
    ``J_0 + 2 sum_k J_2k = 1``; stable for every order needed here.
    """
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    if alpha == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    start = kmax + 20 + int(np.ceil(alpha))
    j_hi = 0.0
    j_cur = 1e-300
    values = np.zeros(start + 1)
    values[start] = j_cur
    for k in range(start, 0, -1):
        j_lo = (2.0 * k / alpha) * j_cur - j_hi
        j_hi, j_cur = j_cur, j_lo
        values[k - 1] = j_cur
        if abs(j_cur) > 1e250:
            values *= 1e-250
            j_hi *= 1e-250
            j_cur *= 1e-250
    norm = values[0] + 2.0 * values[2::2].sum()
    return values[: kmax + 1] / norm


def _tail_profile(alpha, dmax):
    """Absolute-value tail ``2 sum_{k > d} |J_k(alpha)|`` for d = 0..dmax."""
    js = np.abs(bessel_sequence(alpha, dmax + _TAIL_EXTRA + int(np.ceil(alpha))))
    tail = 2.0 * np.cumsum(js[::-1])[::-1]
    return tail[1 : dmax + 2]  # tail[d] = 2 sum_{k>d} |J_k|


def degree_for(alpha, eps):
    """Smallest even degree whose Jacobi-Anger tail is at most ``eps``."""
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    if not 0 < eps < 1:
        raise ValidationError("eps must lie in (0, 1)")
    if alpha == 0.0:
        return 0
    dmax = int(np.ceil(3 * alpha)) + 40 + int(np.ceil(4 * np.log10(1.0 / eps)))
    tails = _tail_profile(alpha, dmax)
    for d in range(0, dmax + 1, 2):
        if tails[d] <= eps:
            return d
    raise ValidationError("degree search window exhausted")  # pragma: no cover


def jacobi_anger_coeffs(alpha, d):
    """Chebyshev coefficients ``(-i)^k (2 - delta_k0) J_k(alpha)``."""
    if d < 0:
        raise ValidationError("degree must be nonnegative")
    js = bessel_sequence(alpha, d + _TAIL_EXTRA + int(np.ceil(alpha)))
    coeffs = np.array(
        [((-1j) ** k) * (2.0 - (k == 0)) * js[k] for k in range(d + 1)]
    )
    eps_poly = float(2.0 * np.abs(js[d + 1 :]).sum())
    return ChebyshevPoly(d, coeffs, float(alpha), eps_poly)


def apply_matrix_poly(poly, a_norm):
    """Evaluate the polynomial on a matrix via the Chebyshev recurrence."""
    mat = np.asarray(a_norm)
    norm = float(np.linalg.norm(mat, 2))
    if norm > 1.0 + 1e-9:
        raise SpectralBoundError(f"matrix norm {norm} exceeds 1")
    dim = mat.shape[0]
    acc = poly.coeffs[0] * np.eye(dim, dtype=complex)
    if poly.degree >= 1:
        t_prev = np.eye(dim, dtype=complex)
        t_cur = mat.astype(complex)
        acc = acc + poly.coeffs[1] * t_cur
        for k in range(2, poly.degree + 1):
            t_prev, t_cur = t_cur, 2.0 * (mat @ t_cur) - t_prev
            acc = acc + poly.coeffs[k] * t_cur
    return acc


@dataclass(frozen=True)
class ExpBlockReport:
    """Degree, certified polynomial error, and measured exponential error."""

    degree: int
    alpha_bar: float
    eps_poly: float
    eps_prime: float
    measured_deviation: float
    sector: str


def _seeded_hermitian_direction(dim):
    rng = np.random.default_rng(0)
    p = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p = (p + p.conj().T) / 2.0
    return p / np.linalg.norm(p, 2)


def exact_exponential(herm):
    """``exp(-i A)`` of a dense Hermitian matrix by eigendecomposition."""
    evals, evecs = np.linalg.eigh(herm)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def exp_sigma_block(pool, mask_indices, eps_poly, eps_prime=0.0, alpha_bar=None):
    """Approximate ``exp(sigma)`` for the masked generator at the block level:
    the ``approx`` and ``report`` of :func:`_exp_sigma`."""
    alpha_bar = pool.alpha_bar if alpha_bar is None else float(alpha_bar)
    approx, _, report = _exp_sigma(circuit_ir.one_pool_skeleton(None, pool), pool,
                                   mask_indices, eps_poly, eps_prime, alpha_bar)
    return approx, report


def _exp_sigma(skel, pool, mask_indices, eps_poly, eps_prime, alpha_bar):
    """``(approx, exact, report)``: Chebyshev and exact ``exp(-i alpha_bar x)``
    of the masked generator on its working sector ``N = pool.sector``.

    The pool's generator-only skeleton ``skel`` is dialed and run on the
    sector's columns, with an optional Hermitian perturbation of spectral
    norm ``eps_prime`` (a stand-in for branch synthesis error); ``exact``
    is by ``eigh`` of the generator's sector block.
    """
    sheet = circuit_ir.dial(skel, None, pool, mask_indices, alpha_bar)
    block = circuit_ir.execute_block(skel, sheet, "gen", pool.sector)
    exact = exact_exponential(
        oracle._on_sector(oracle.generator_dense(pool, mask_indices), pool.sector)
    )
    if eps_prime:
        block = block + eps_prime * _seeded_hermitian_direction(block.shape[0])
        norm = np.linalg.norm(block, 2)
        if norm > 1.0:
            block = block / norm
    d = degree_for(alpha_bar, eps_poly)
    poly = jacobi_anger_coeffs(alpha_bar, d)
    approx = apply_matrix_poly(poly, block)
    report = ExpBlockReport(
        degree=d,
        alpha_bar=alpha_bar,
        eps_poly=poly.eps_poly,
        eps_prime=float(eps_prime),
        measured_deviation=oracle.sector_norm(approx - exact),
        sector=f"N={pool.sector}",
    )
    return approx, exact, report
