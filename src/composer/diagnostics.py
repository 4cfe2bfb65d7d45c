"""Subspace-overlap metrics, weight-guided masks, and density-matrix drift.

These are the stability diagnostics that justify freezing the rank-one
operator manifold while re-dialing coefficients: principal-angle overlaps
between excitation subspaces, singular-value-weighted overlap averages,
one-shot coverage masks, and reduced-density-matrix drift under generator
updates.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import jw, oracle, qsp
from .circuit_ir import Mask
from .errors import MaskError, RankError, ValidationError, ZeroTensorError
from .factorization import sequential_sum


@dataclass(frozen=True, eq=False)
class OverlapCurve:
    """Per-rank overlaps with singular-value weights and their average."""

    ranks: np.ndarray
    ov: np.ndarray
    weights: np.ndarray
    wauc: float
    r_eps: int

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValidationError("overlap weights must sum to 1")
        if np.any(self.ov < -1e-12) or np.any(self.ov > 1.0 + 1e-12):
            raise ValidationError("overlaps must lie in [0, 1]")

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "ov", "w"])
        for r, ov, w in zip(self.ranks, self.ov, self.weights):
            writer.writerow([int(r), repr(float(ov)), repr(float(w))])
        return buf.getvalue()


def _dyad_frame(t2, r):
    """Orthonormal dyad vectors ``vec(u_k v_k^dag)`` of the leading ranks.

    A rank past the pair matrix's numerical rank is a RankError.
    """
    u, s, vh = np.linalg.svd(t2.amplitudes, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-13)) if s.size and s[0] > 0 else 0
    if r > rank:
        raise RankError(f"requested rank {r} exceeds numerical rank {rank}")
    cols = [np.kron(vh[k, :].conj(), u[:, k]) for k in range(r)]
    frame = np.stack(cols, axis=1)
    gram = frame.conj().T @ frame
    if np.abs(gram - np.eye(r)).max() > 1e-10:
        raise ValidationError("dyad frame lost orthonormality")
    return frame


def subspace_overlap(t_a, t_b, r):
    """Mean squared cosine of principal angles between leading subspaces.

    Compares the vectorized rank-one factor spans,
    ``ov(r) = ||B_r^dag B~_r||_F^2 / r``.
    """
    if t_a.amplitudes.shape != t_b.amplitudes.shape:
        raise ValidationError("tensors must share pair-space shapes")
    if r < 1:
        raise ValidationError("rank must be positive")
    cross = _dyad_frame(t_a, r).conj().T @ _dyad_frame(t_b, r)
    return float(np.linalg.norm(cross, "fro") ** 2 / r)


def wauc(t_a, t_b, eps_s=0.0):
    """Singular-value-weighted average overlap up to the screened rank.

    The reference tensor (first argument) supplies both the retained rank
    ``R`` (via ``s_r / s_1 >= eps_s``) and the explained-variance weights
    ``w_r = s_r^2 / sum_k s_k^2``.
    """
    if min(np.abs(t.amplitudes).max(initial=0.0) for t in (t_a, t_b)) == 0.0:
        raise ZeroTensorError("overlap of an identically zero tensor is undefined")
    s = np.linalg.svd(t_a.amplitudes, compute_uv=False)
    s_b = np.linalg.svd(t_b.amplitudes, compute_uv=False)
    r_eps = int(np.sum(s >= eps_s * s[0])) if s[0] > 0 else 0
    rank_a = int(np.sum(s > 1e-13 * s[0]))
    rank_b = int(np.sum(s_b > 1e-13 * s_b[0]))
    r_eps = min(r_eps, rank_a, rank_b)
    if r_eps == 0:
        raise ZeroTensorError("no ranks survive the screening")
    ranks = np.arange(1, r_eps + 1)
    ovs = np.array([subspace_overlap(t_a, t_b, r) for r in ranks])
    weights = s[:r_eps] ** 2 / np.sum(s[:r_eps] ** 2)
    return OverlapCurve(
        ranks=ranks,
        ov=ovs,
        weights=weights,
        wauc=float(np.dot(weights, ovs)),
        r_eps=r_eps,
    )


def ladder_weights(pool):
    """Ranking weights ``|omega|^2 ||U||_F^2 ||V||_F^2`` per generator ladder.

    ``{address: weight}`` in address order, read from the pool's table
    (:func:`branch_weights`): no ladder object is built.
    """
    address, weight = branch_weights(pool)
    return dict(zip(address.tolist(), weight.tolist()))


def branch_weights(pool):
    """``(address, weight)`` arrays of :func:`ladder_weights`, in address order.

    With unit-normalized wedge factors a pair ladder's weight reduces to
    ``|omega|^2``, and a bilinear ladder's is ``|omega|^2``.  The pair
    vectors are the batches of the pool's
    :class:`~composer.factorization.PairTable`, weighed a batch at a time,
    and every weight keeps the bits of the per-ladder formula
    ``abs(omega) ** 2 * (norm(U) ** 2 * norm(V) ** 2)``: the norms by
    ``np.linalg.norm``'s steps per row (:func:`_row_norms`;
    ``np.linalg.norm(..., axis=-1)`` and ``einsum`` sum in another order)
    and each square by Python's ``** 2`` (:func:`_squares`).
    """
    table, branches = pool.pairs, pool.branches
    pair_norms = np.empty(len(table.address))
    for batch in table.batches:
        pair_norms[batch.rows] = _squares(_row_norms(batch.u)) * _squares(_row_norms(batch.v))
    norms = np.ones(len(branches.address))
    norms[branches.pair] = pair_norms[branches.index[branches.pair]]
    return branches.address, _squares(np.abs(branches.coefficient)) * norms


def _row_norms(rows):
    """``np.linalg.norm`` of each row of a float or complex array, with its bits.

    The same steps: a row's squared norm is the dot product of its
    contiguous copy (a complex row's real parts' plus its imaginary
    parts'), each row's by the dot kernel ``matmul`` calls per stacked
    vector pair.
    """
    x = np.ascontiguousarray(rows)

    def dots(a):
        return (a[:, None, :] @ a[:, :, None])[:, 0, 0]

    return np.sqrt(dots(x.real) + dots(x.imag) if np.iscomplexobj(x) else dots(x))


def _squares(values):
    """Python's ``x ** 2`` of each value: C ``pow``, not always the bits of ``x * x``."""
    return np.fromiter(map(pow, values.tolist(), repeat(2.0)), float, len(values))


def one_shot_mask(pool, eta, label=None):
    """Smallest weight-sorted prefix reaching the coverage target.

    Ties break toward lower addresses so the selection is reproducible.
    The total and the running coverage are added one weight at a time
    (the total in address order, the prefix in selection order).
    """
    if not 0 < eta <= 1:
        raise ValidationError("eta must lie in (0, 1]")
    if pool.ell == 0:
        raise MaskError("cannot mask an empty generator pool")
    address, weight = branch_weights(pool)
    total = sequential_sum(weight)
    order = np.lexsort((address, -weight))
    covered = np.add.accumulate(weight[order]) >= eta * total - 1e-15
    stop = int(covered.argmax()) + 1 if covered.any() else len(order)
    return Mask.of(label or f"eta{eta:g}", address[order[:stop]].tolist())


def mask_coverage(pool, mask):
    """Recomputed coverage fraction of a mask (independent of selection)."""
    weights = ladder_weights(pool)
    total = sum(weights.values())
    got = sum(weights[a] for a in mask.indices)
    return got / total if total > 0 else 0.0


def reduced_density_blocks(gen_pool, mask, reference_state, n):
    """Occupied and virtual blocks of the transformed one-particle RDM.

    ``D_pq = <phi| exp(-sigma) a_q^dag a_p exp(sigma) |phi>`` evaluated
    densely, split at the occupied/virtual boundary.
    """
    jw.check_n(n)  # before any dense work
    phi = np.asarray(reference_state, dtype=complex)
    if np.linalg.norm(phi) < 1e-14:
        raise ValidationError("reference state must be nonzero")
    phi = phi / np.linalg.norm(phi)
    herm = oracle.generator_dense(gen_pool, getattr(mask, "indices", mask))
    psi = qsp.exact_exponential(herm) @ phi
    dmat = oracle.one_body_expectations(psi, n).T
    n_occ = gen_pool.n_occ
    return dmat[:n_occ, :n_occ], dmat[n_occ:, n_occ:]


def density_matrix_drift(gen_old, gen_new, mask, reference_state, n):
    """Relative Frobenius drift of the occupied and virtual RDM blocks."""
    occ_old, vir_old = reduced_density_blocks(gen_old, mask, reference_state, n)
    occ_new, vir_new = reduced_density_blocks(gen_new, mask, reference_state, n)

    def _rel(new, old):
        denom = np.linalg.norm(old, "fro")
        if denom == 0.0:
            return float(np.linalg.norm(new, "fro"))
        return float(np.linalg.norm(new - old, "fro") / denom)

    return _rel(occ_new, occ_old), _rel(vir_new, vir_old)
