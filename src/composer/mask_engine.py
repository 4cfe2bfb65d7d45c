"""Masked similarity sandwich, effective-Hamiltonian checks, subspace solve.

The sandwich composes the three block encodings on disjoint ancilla
groups, so its all-ancilla-zero block is exactly the product of the three
encoded blocks; it therefore works with the encoded blocks directly and
never forms the joint-register matrix.  Every encoding preserves the
particle number, so each block is computed on the working sector alone:
its two halves are the encoders' own (``oracle.hamiltonian_block_encoding``
and ``qsp.exp_sigma_block``), run one adaptor at a time on the ``C(n, N)``
sector columns ``|0_anc>|x>``, so no encoding is assembled either, and the
sandwich and its exact reference are ``C(n, N) x C(n, N)`` arrays.

A mask changes only the generator's PREP amplitudes.  Three
``lru_cache``s of pure functions keep what a mask leaves equal: the
one-pool fabrics by ``n`` and pivot plan
(``circuit_ir.one_pool_skeleton``), each adaptor's sector run by fabric,
adaptor, values after its PREP amplitude and sector
(``circuit_ir.execute_block``), and the Hamiltonian half by pool object
(:func:`_hamiltonian_half`).  So a mask sweep on one geometry dials and
runs the Hamiltonian once and each generator branch the first time a mask
weights it, and a new geometry re-runs the adaptors whose values changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import circuit_ir, jw, oracle, qsp
from .errors import (
    DegenerateBasisError,
    SectorError,
    ShapeError,
    ValidationError,
)

# relative slack on the sandwich's additive budget 2 eps_exp + eps_ham
BUDGET_SLACK = 0.10


@dataclass(frozen=True)
class EffectiveHamiltonianReport:
    """Measured restricted-block error of one masked effective Hamiltonian.

    ``budget`` decomposes the allowance as twice the exponential-stage
    error plus the Hamiltonian multiplexing error.
    """

    mask_id: str
    alpha: float
    measured_error: float
    eps_exp: float
    eps_ham: float
    model_space: tuple
    within_budget: bool

    @property
    def budget_total(self):
        return 2.0 * self.eps_exp + self.eps_ham

    def to_json(self):
        return json.dumps(
            {
                "mask_id": self.mask_id,
                "alpha": self.alpha,
                "measured_error": self.measured_error,
                "budget": {
                    "eps_exp": self.eps_exp,
                    "eps_ham": self.eps_ham,
                    "total": self.budget_total,
                },
                "model_space": list(self.model_space),
                "within_budget": self.within_budget,
            },
            sort_keys=True,
        )


def model_space_projector(indices, n, n_elec):
    """Projector onto the listed determinants, over the positions of the sector.

    The result is ``C(n, N) x C(n, N)``, indexed like ``jw.sector_indices(n,
    n_elec)``; each index must be a basis state of the ``N = n_elec`` sector.
    """
    dim = 2**n
    weights = jw.hamming_weights(n)
    position = {int(idx): k for k, idx in enumerate(jw.sector_indices(n, n_elec))}
    proj = np.zeros((len(position),) * 2)
    for idx in indices:
        if not 0 <= idx < dim:
            raise ShapeError(f"determinant index {idx} out of range")
        if weights[idx] != n_elec:
            raise SectorError(
                f"determinant {idx:0{n}b} lies outside the N={n_elec} sector"
            )
        proj[position[int(idx)], position[int(idx)]] = 1.0
    return proj


def similarity_sandwich(ham_pool, gen_pool, mask, model_space, eps_poly):
    """Compute and verify one masked effective-Hamiltonian block on the sector.

    Returns ``(report, block)`` where ``block`` approximates
    ``exp(-sigma) H exp(sigma) / alpha`` on the ``N = n_elec`` sector: a
    ``C(n, N) x C(n, N)`` array indexed like ``jw.sector_indices(n, N)``.
    The report compares the model-space restriction against the
    eigendecomposition-exact sandwich, checking the additive budget
    ``2 eps_exp + eps_ham`` at the slack :data:`BUDGET_SLACK`.  The
    generator is normalized by the full pool's ``alpha_bar``.  Both pools
    must share the sector, and both column runs are checked before either
    is dialed or run.  Each half, encoded and exact, is its encoder's own
    on the sector (``oracle._hamiltonian_sector``, ``qsp._exp_sigma``).
    A cached adaptor run is re-weighted, not run again
    (``circuit_ir.execute_block``), and the Hamiltonian half is cached for
    the last ``ham_pool`` object (:func:`_hamiltonian_half`), so a call
    that changes only the mask neither dials nor runs the Hamiltonian.
    """
    n_elec = ham_pool.n_elec
    if gen_pool.sector != n_elec:
        raise SectorError(
            f"generator sector N={gen_pool.sector} differs from the "
            f"Hamiltonian's N={n_elec}"
        )
    mask_indices = frozenset(getattr(mask, "indices", mask))
    # the Hamiltonian half checks its own run before it dials
    gen_skel = circuit_ir.one_pool_skeleton(None, gen_pool)
    circuit_ir.check_column_batch(gen_skel, "gen", n_elec)
    b_block, h_exact, ham_rep = _hamiltonian_half(ham_pool)
    e_block, exp_exact, exp_rep = qsp._exp_sigma(
        gen_skel, gen_pool, mask_indices, eps_poly, 0.0, gen_pool.alpha_bar
    )
    eps_ham, eps_exp = ham_rep.measured_error, exp_rep.measured_deviation

    sandwich = e_block.conj().T @ b_block @ e_block
    exact = exp_exact.conj().T @ h_exact @ exp_exact

    proj = model_space_projector(model_space, ham_pool.n_so, n_elec)
    measured = oracle.sector_norm(proj @ (sandwich - exact) @ proj)
    budget = 2.0 * eps_exp + eps_ham
    within = measured <= budget * (1.0 + BUDGET_SLACK) + 1e-13
    report = EffectiveHamiltonianReport(
        mask_id=getattr(mask, "label", "mask"),
        alpha=ham_pool.alpha,
        measured_error=measured,
        eps_exp=float(eps_exp),
        eps_ham=float(eps_ham),
        model_space=tuple(sorted(int(i) for i in model_space)),
        within_budget=bool(within),
    )
    return report, sandwich


# the last pool object's Hamiltonian half; pools compare by identity (eq=False)
_hamiltonian_half = lru_cache(maxsize=1)(oracle._hamiltonian_sector)


def matrix_elements(block, bras, kets):
    """Table ``<bra_i| block |ket_j>`` for subspace methods."""
    block = np.asarray(block)
    dim = block.shape[0]
    for state in list(bras) + list(kets):
        if np.asarray(state).shape != (dim,):
            raise ShapeError("state dimension inconsistent with the block")
    out = np.empty((len(bras), len(kets)), dtype=complex)
    for i, bra in enumerate(bras):
        for j, ket in enumerate(kets):
            out[i, j] = np.vdot(bra, block @ ket)
    return out


def gcim_subspace_solve(h, basis_states, s_threshold=1e-10):
    """Generalized eigenvalue solve in a non-orthogonal state basis.

    Builds ``H_ij`` and the overlap matrix, drops directions whose overlap
    eigenvalue falls below ``s_threshold`` times the largest (canonical
    orthogonalization), and returns ascending energies with the
    corresponding coefficient vectors in the original basis.
    """
    if len(basis_states) == 0:
        raise ValidationError("at least one basis state required")
    states = [np.asarray(s, dtype=complex) for s in basis_states]
    for s in states:
        if np.linalg.norm(s) < 1e-14:
            raise ValidationError("basis states must be nonzero")
    h = np.asarray(h)
    m = len(states)
    hmat = np.empty((m, m), dtype=complex)
    smat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            hmat[i, j] = np.vdot(states[i], h @ states[j])
            smat[i, j] = np.vdot(states[i], states[j])
    svals, svecs = np.linalg.eigh((smat + smat.conj().T) / 2.0)
    keep = svals > s_threshold * svals.max()
    if not np.any(keep):
        raise DegenerateBasisError("all overlap eigenvalues below threshold")
    x = svecs[:, keep] / np.sqrt(svals[keep])
    hred = x.conj().T @ hmat @ x
    evals, evecs = np.linalg.eigh((hred + hred.conj().T) / 2.0)
    coeffs = x @ evecs
    return evals.real, coeffs


# ---------------------------------------------------------------------------
# shipped toy: compile-once, dial-many non-orthogonal subspace solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ToyInstance:
    """Four-mode, two-electron toy with two commuting one-mode generators.

    ``sigma1``/``sigma2`` are anti-Hermitian Givens generators on disjoint
    mode pairs (alpha and beta channels), so every basis state of the
    sweep is dialed from one fixed preparation topology.
    """

    hamiltonian: np.ndarray
    reference: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    n: int = 4
    n_elec: int = 2


def toy_two_generator_instance():
    """Deterministic toy instance used by the sweep demonstrations.

    A stretched two-orbital model with a strong double-excitation matrix
    element, so the non-orthogonal three-state basis beats the reference
    determinant and the continuous coordinate sweep beats both.
    """
    from .integrals import IntegralSet, expand_spin

    n = 4
    h_sp = np.array([[-1.1, -0.18], [-0.18, -0.2]])
    chem = np.zeros((2, 2, 2, 2))
    chem[0, 0, 0, 0] = 0.65
    chem[1, 1, 1, 1] = 0.62
    chem[0, 0, 1, 1] = chem[1, 1, 0, 0] = 0.45
    chem[0, 1, 0, 1] = chem[1, 0, 0, 1] = chem[0, 1, 1, 0] = chem[1, 0, 1, 0] = 0.55
    h, eri = expand_spin(h_sp, chem)
    ints = IntegralSet(2, 4, 2, 0.0, h, eri).validate()
    hmat = oracle.dense_hamiltonian(ints)
    ref = np.zeros(2**n, dtype=complex)
    ref[jw.basis_state(n, [0, 1])] = 1.0
    gens = np.zeros((2, n, n))  # Givens generators on the mode pairs (0, 2), (1, 3)
    gens[0, 2, 0], gens[1, 3, 1] = 0.45, 0.65
    gens -= gens.transpose(0, 2, 1)
    return ToyInstance(hmat, ref, *(oracle.one_body_operator(g, n) for g in gens))


def _expm_antihermitian(g):
    return qsp.exact_exponential(1j * g)


def toy_basis_states(toy, r=None):
    """Reference, single-generator, and (optionally) swept basis states."""
    e1 = _expm_antihermitian(toy.sigma1) @ toy.reference
    e2 = _expm_antihermitian(toy.sigma2) @ toy.reference
    states = [toy.reference, e1, e2]
    if r is not None:
        states = [
            toy.reference,
            e2,
            _expm_antihermitian(toy.sigma1 + r * toy.sigma2) @ toy.reference,
        ]
    return states


def toy_sweep_energy(toy, r):
    """Lowest generalized eigenvalue of the swept three-state basis."""
    energies, _ = gcim_subspace_solve(toy.hamiltonian, toy_basis_states(toy, r=r))
    return float(energies[0])


def swept_coordinate_minimum(toy):
    """Minimize the swept-coordinate energy over ``r`` in [-3, 3].

    A 241-point grid brackets the minimum, then a bounded (golden) polish
    refines it.  Its ``xatol=1e-12`` only sets how far the optimizer
    narrows its bracket: the energy is flat to rounding over about 1e-7 in
    ``r``, so the returned ``r`` is the minimizer to about that, and an
    input that moves the energy by rounding alone can move it as far.
    """
    from scipy import optimize

    rs = np.linspace(-3.0, 3.0, 241)
    energies = np.array([toy_sweep_energy(toy, r) for r in rs])
    k = int(np.argmin(energies))
    a = rs[max(k - 1, 0)]
    b = rs[min(k + 1, len(rs) - 1)]
    result = optimize.minimize_scalar(
        lambda r: toy_sweep_energy(toy, r),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(result.x), float(result.fun)
