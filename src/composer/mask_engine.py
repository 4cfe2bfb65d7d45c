"""Masked similarity sandwich, effective-Hamiltonian checks, subspace solve.

The sandwich composes the three block encodings on disjoint ancilla
groups, so its all-ancilla-zero block is exactly the product of the three
encoded blocks; it therefore works with the encoded blocks directly and
never forms the joint-register matrix.  Each block is computed by running
its encoding on the ``2**n`` ancilla-zero columns, so no encoding is
assembled either.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

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
    """Dense projector onto the listed determinants of the fixed sector."""
    dim = 2**n
    proj = np.zeros((dim, dim))
    weights = jw.hamming_weights(n)
    for idx in indices:
        if not 0 <= idx < dim:
            raise ShapeError(f"determinant index {idx} out of range")
        if weights[idx] != n_elec:
            raise SectorError(
                f"determinant {idx:0{n}b} lies outside the N={n_elec} sector"
            )
        proj[idx, idx] = 1.0
    return proj


def similarity_sandwich(ham_pool, gen_pool, mask, model_space, eps_poly):
    """Compute and verify one masked effective-Hamiltonian block.

    Returns ``(report, block)`` where ``block`` approximates
    ``exp(-sigma) H exp(sigma) / alpha`` on the system register and the
    report compares the model-space restriction against the
    eigendecomposition-exact sandwich, checking the additive budget
    ``2 eps_exp + eps_ham`` at the slack :data:`BUDGET_SLACK`.  The
    generator is normalized by the full pool's ``alpha_bar``.
    """
    n = ham_pool.n_so
    n_elec = ham_pool.n_elec
    mask_indices = frozenset(getattr(mask, "indices", mask))
    # both encodings run on one-pool skeletons; both column batches are
    # checked before either is dialed or run
    ham_skel = circuit_ir.one_pool_skeleton(ham_pool, None)
    gen_skel = circuit_ir.one_pool_skeleton(None, gen_pool)
    oracle.check_column_batch(circuit_ir.ancillas(ham_skel, "ham"), n, "Hamiltonian")
    oracle.check_column_batch(circuit_ir.ancillas(gen_skel, "gen"), n, "generator")

    sheet = circuit_ir.dial(ham_skel, ham_pool, None, ())
    b_block = circuit_ir.execute_block(ham_skel, sheet, "ham")
    h_exact = oracle.hamiltonian_from_pool(ham_pool) / ham_pool.alpha
    eps_ham = oracle._sector_norm(b_block - h_exact, n_elec)

    sheet = circuit_ir.dial(gen_skel, None, gen_pool, mask_indices)
    exp_exact = qsp.exact_exponential(oracle.generator_dense(gen_pool, mask_indices))
    e_block, exp_rep = qsp.exp_encoded_block(
        circuit_ir.execute_block(gen_skel, sheet, "gen"),
        exp_exact, gen_pool.alpha_bar, eps_poly, gen_pool.sector,
    )
    eps_exp = exp_rep.measured_deviation

    sandwich = e_block.conj().T @ b_block @ e_block
    exact = exp_exact.conj().T @ h_exact @ exp_exact

    proj = model_space_projector(model_space, n, n_elec)
    delta = proj @ (sandwich - exact) @ proj
    measured = float(np.linalg.norm(delta, 2))
    budget = 2.0 * eps_exp + eps_ham
    within = measured <= budget * (1.0 + BUDGET_SLACK) + 1e-13
    report = EffectiveHamiltonianReport(
        mask_id=getattr(mask, "label", "mask"),
        alpha=ham_pool.alpha,
        measured_error=measured,
        eps_exp=float(eps_exp),
        eps_ham=float(eps_ham),
        model_space=tuple(sorted(model_space)),
        within_budget=bool(within),
    )
    return report, sandwich


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


def matrix_table_csv(table):
    """CSV export of a complex matrix-element table."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "re", "im"])
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            writer.writerow([i, j, repr(table[i, j].real), repr(table[i, j].imag)])
    return buf.getvalue()


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
    from .integrals import IntegralSet

    n = 4
    h_sp = np.array([[-1.1, -0.18], [-0.18, -0.2]])
    chem = np.zeros((2, 2, 2, 2))
    chem[0, 0, 0, 0] = 0.65
    chem[1, 1, 1, 1] = 0.62
    chem[0, 0, 1, 1] = chem[1, 1, 0, 0] = 0.45
    chem[0, 1, 0, 1] = chem[1, 0, 0, 1] = chem[0, 1, 1, 0] = chem[1, 0, 1, 0] = 0.55
    from .integrals import expand_spin

    h, eri = expand_spin(h_sp, chem)
    ints = IntegralSet(2, 4, 2, 0.0, h, eri).validate()
    hmat = oracle.dense_hamiltonian(ints)
    cr, an = jw.jw_ladder_ops(n)
    ref = np.zeros(2**n, dtype=complex)
    ref[jw.basis_state(n, [0, 1])] = 1.0
    g1 = (cr[2] @ an[0] - cr[0] @ an[2]).toarray() * 0.45
    g2 = (cr[3] @ an[1] - cr[1] @ an[3]).toarray() * 0.65
    return ToyInstance(hmat, ref, g1, g2)


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
    refines it to 1e-12 in ``r``.
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
