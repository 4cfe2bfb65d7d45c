"""Deterministic number-conserving Givens and pair-Givens ladder schedules.

A ladder redistributes amplitude from a fixed pivot mode (or pivot pair)
through a fixed ordering of targets; only the rotation angles and phases
depend on the data vector, which is what makes the topology reusable.
Every gate is a sparse matrix in the exact Euler form of its rotation
generator (``K^3 = -K`` for both the two-mode and the four-mode case),
scattered onto a sparsity pattern cached per register size and mode
tuple, so neither matrix exponentials nor per-gate sparse arithmetic are
needed; schedule and network unitaries are sparse products of gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import jw
from .errors import NormalizationError, ShapeError

_NORM_TOL = 1e-10


@lru_cache(maxsize=None)
def pair_indices(n):
    """Lexicographic ordered pairs ``(p, q)`` with ``p < q`` over n modes."""
    return tuple((p, q) for p in range(n) for q in range(p + 1, n))


@lru_cache(maxsize=None)
def pair_position(n):
    """Inverse map of :func:`pair_indices`."""
    return {pq: k for k, pq in enumerate(pair_indices(n))}


@dataclass(frozen=True)
class LadderSchedule:
    """Angles and phases of one deterministic ladder.

    ``sector`` is ``"one"`` or ``"two"``; ``pivot`` is ``(r,)`` or ``(r, s)``.
    ``ordering`` lists the non-pivot modes (or mode pairs) in application
    order.  ``pivot_phase`` restores the phase gauged off the pivot
    amplitude (a diagonal phase on the pivot mode or mode pair), so the
    prep form reproduces the data vector exactly rather than up to a
    global phase.  In prep form the pivot injection X gates precede the
    rotations.
    """

    sector: str
    n_modes: int
    pivot: tuple
    ordering: tuple
    thetas: np.ndarray
    phases: np.ndarray
    pivot_phase: float = 0.0
    prep_form: bool = True

    def __post_init__(self):
        self.thetas.setflags(write=False)
        self.phases.setflags(write=False)

    def as_number_conserving(self):
        return LadderSchedule(
            self.sector,
            self.n_modes,
            self.pivot,
            self.ordering,
            self.thetas,
            self.phases,
            self.pivot_phase,
            prep_form=False,
        )


def _tail_angles(mags, pivot_mag):
    """Tail-norm recursion: ``theta_k = arctan(|u_k| / s_{k+1})``.

    Degenerate tails use the arctan limits: ``theta = 0`` when both the
    current amplitude and the tail vanish, ``pi/2`` when only the tail does.
    """
    m = len(mags)
    tails = np.empty(m + 1)
    tails[m] = pivot_mag
    acc = pivot_mag**2
    for k in range(m - 1, -1, -1):
        acc += mags[k] ** 2
        tails[k] = np.sqrt(acc)
    thetas = np.arctan2(mags, tails[1:])
    return thetas, tails


def one_electron_angles(u, pivot=None, n=None):
    """Schedule preparing the one-electron state with amplitudes ``u``.

    The gauge is fixed so the pivot amplitude is real nonnegative (the
    divided-out global phase is dropped); per-mode phases restore
    ``arg(u_p)`` through a trailing diagonal layer.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    n = n or len(u)
    if len(u) != n:
        raise ShapeError("coefficient vector length must equal mode count")
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormalizationError(f"||u|| = {norm!r}, expected 1")
    if pivot is None:
        pivot = int(np.argmax(np.abs(u)))
    if not 0 <= pivot < n:
        raise ShapeError(f"pivot {pivot} out of range")
    gauge = float(np.angle(u[pivot])) if abs(u[pivot]) > 0 else 0.0
    ordering = tuple(p for p in range(n) if p != pivot)
    mags = np.abs(u[list(ordering)])
    thetas, _ = _tail_angles(mags, abs(u[pivot]))
    phases = np.angle(u[list(ordering)])
    phases[mags == 0.0] = 0.0
    return LadderSchedule("one", n, (pivot,), ordering, thetas, phases, gauge)


def two_electron_angles(u_pairs, pivot_pair=None, n=None):
    """Schedule preparing a two-electron state from pair amplitudes.

    ``u_pairs`` is indexed by the lexicographic ``p < q`` pair list.  The
    phase of each amplitude rides inside the corresponding phased
    pair-Givens rotation; the pivot-pair amplitude is gauged real.
    """
    u_pairs = np.asarray(u_pairs, dtype=complex).reshape(-1)
    if n is None:
        # invert m = n(n-1)/2
        n = int(round((1 + np.sqrt(1 + 8 * len(u_pairs))) / 2))
    pairs = pair_indices(n)
    if len(u_pairs) != len(pairs):
        raise ShapeError("pair amplitude vector has wrong length")
    norm = np.linalg.norm(u_pairs)
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormalizationError(f"||u|| = {norm!r}, expected 1")
    pos = pair_position(n)
    if pivot_pair is None:
        pivot_pair = pairs[int(np.argmax(np.abs(u_pairs)))]
    pivot_pair = tuple(sorted(pivot_pair))
    if pivot_pair not in pos:
        raise ShapeError(f"pivot pair {pivot_pair} invalid")
    k0 = pos[pivot_pair]
    gauge = float(np.angle(u_pairs[k0])) if abs(u_pairs[k0]) > 0 else 0.0
    ordering = tuple(pq for pq in pairs if pq != pivot_pair)
    idx = [pos[pq] for pq in ordering]
    mags = np.abs(u_pairs[idx])
    thetas, _ = _tail_angles(mags, abs(u_pairs[k0]))
    phases = np.angle(u_pairs[idx])
    phases[mags == 0.0] = 0.0
    return LadderSchedule("two", n, pivot_pair, ordering, thetas, phases, gauge)


def _gate_pattern(terms):
    """Union CSR pattern of the Euler terms of a gate, with scatter maps.

    Returns ``(indptr, indices, scatter)``; ``scatter[k]`` holds the
    positions of term ``k``'s entries in the union pattern and their
    values, so a gate ``sum_k c_k T_k`` is assembled by scattering the
    coefficients without any sparse arithmetic.
    """
    dim = terms[0].shape[0]
    rows = np.arange(dim)
    keys, values = [], []
    for term in terms:
        term = sparse.csr_matrix(term)
        term.sum_duplicates()
        keys.append(np.repeat(rows, np.diff(term.indptr)) * dim + term.indices)
        values.append(term.data)
    union = np.unique(np.concatenate(keys))
    union_rows, cols = np.divmod(union, dim)
    indptr = np.searchsorted(union_rows, np.arange(dim + 1)).astype(np.int32)
    scatter = tuple(
        (np.searchsorted(union, key), value) for key, value in zip(keys, values)
    )
    return indptr, cols.astype(np.int32), scatter


def _pattern_gate(pattern, coeffs):
    """CSR matrix ``sum_k coeffs[k] T_k`` on a cached :func:`_gate_pattern`."""
    indptr, indices, scatter = pattern
    data = np.zeros(len(indices), dtype=complex)
    for coeff, (pos, vals) in zip(coeffs, scatter):
        data[pos] += coeff * vals
    dim = len(indptr) - 1
    # copies keep the cached pattern safe from in-place sparse methods
    return sparse.csr_matrix(
        (data, indices.copy(), indptr.copy()), shape=(dim, dim)
    )


@lru_cache(maxsize=None)
def _givens_pattern(n, p, r):
    """Terms ``I, K, K^2`` of ``K = a_p^dag a_r - a_r^dag a_p``."""
    cr, an = jw.jw_ladder_ops(n)
    k_op = (cr[p] @ an[r] - cr[r] @ an[p]).tocsr()
    return _gate_pattern([sparse.identity(2**n, format="csr"), k_op, k_op @ k_op])


@lru_cache(maxsize=None)
def _pair_pattern(n, p, q, r, s):
    """Terms ``I, A, A^dag, A^2, A^dag^2, A A^dag + A^dag A``.

    ``A = a_p^dag a_q^dag a_s a_r``; each term is kept, so the gate does
    not rely on ``A^2`` vanishing.
    """
    cr, an = jw.jw_ladder_ops(n)
    a_op = (cr[p] @ cr[q] @ an[s] @ an[r]).tocsr()
    a_dag = a_op.conj().T.tocsr()
    return _gate_pattern([
        sparse.identity(2**n, format="csr"),
        a_op,
        a_dag,
        a_op @ a_op,
        a_dag @ a_dag,
        a_op @ a_dag + a_dag @ a_op,
    ])


def givens_gate(n, p, r, theta):
    """Sparse ``G_pr(theta) = exp[theta (a_p^dag a_r - h.c.)]``.

    Euler form ``I + sin(theta) K + (1 - cos(theta)) K^2`` (``K^3 = -K``).
    """
    return _pattern_gate(
        _givens_pattern(n, p, r), (1.0, np.sin(theta), 1.0 - np.cos(theta))
    )


def pair_givens_gate(n, p, q, r, s, theta, phi):
    """Phased pair-Givens on the full Jordan-Wigner space.

    ``exp[theta (e^{i phi} a_p^dag a_q^dag a_s a_r - h.c.)]`` with the
    generator exponentiated faithfully on every particle-number sector:
    ``K = e A - conj(e) A^dag`` gives ``K^2 = e^2 A^2 - (A A^dag + A^dag A)
    + conj(e)^2 A^dag^2`` in the Euler form of :func:`givens_gate`.
    """
    e = np.exp(1j * phi)
    sin, vers = np.sin(theta), 1.0 - np.cos(theta)
    coeffs = (1.0, sin * e, -sin * e.conjugate(), vers * e * e,
              vers * (e * e).conjugate(), -vers)
    return _pattern_gate(_pair_pattern(n, p, q, r, s), coeffs)


def _schedule_gates(sched, inverse=False):
    """Ordered sparse gate list realizing the schedule.

    Inversion reverses the gate order and negates rotation angles; the
    separate one-electron phase layer is negated as well, while the phases
    carried inside pair-Givens blocks are left untouched (the block inverse
    is the negative-angle rotation at the same phase).
    """
    n = sched.n_modes
    gates = []
    if sched.prep_form:
        for r in sched.pivot:
            gates.append(jw.pauli_x(n, r))
    if sched.sector == "one":
        r = sched.pivot[0]
        for k, p in enumerate(sched.ordering):
            gates.append(givens_gate(n, p, r, float(sched.thetas[k])))
        phases = np.zeros(n)
        for k, p in enumerate(sched.ordering):
            phases[p] = sched.phases[k]
        phases[r] = sched.pivot_phase
        gates.append(sparse.diags(jw.phase_layer(n, phases), format="csr"))
    elif sched.sector == "two":
        r, s = sched.pivot
        for k, (p, q) in enumerate(sched.ordering):
            gates.append(
                pair_givens_gate(
                    n, p, q, r, s, float(sched.thetas[k]), float(sched.phases[k])
                )
            )
        if sched.pivot_phase != 0.0:
            gates.append(
                sparse.diags(
                    jw.pair_phase_diagonal(n, r, s, sched.pivot_phase), format="csr"
                )
            )
    else:
        raise ShapeError(f"unknown sector {sched.sector!r}")
    if inverse:
        gates = [g.conj().T.tocsr() for g in reversed(gates)]
    return gates


def apply_ladder_dense(sched, state, n=None, inverse=False):
    """Apply a schedule to a dense state vector on ``2**n`` amplitudes."""
    n = n or sched.n_modes
    if n != sched.n_modes:
        raise ShapeError("mode count disagrees with schedule")
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != 2**n:
        raise ShapeError(f"state dimension {state.shape[0]} != 2**{n}")
    for gate in _schedule_gates(sched, inverse=inverse):
        state = gate @ state
    return state


def schedule_unitary(sched, n=None):
    """Sparse (CSR) unitary of the full schedule: the product of its gates."""
    n = n or sched.n_modes
    if n != sched.n_modes:
        raise ShapeError("mode count disagrees with schedule")
    gates = _schedule_gates(sched)
    out = gates[0]
    for gate in gates[1:]:
        out = gate @ out
    return out


def prepare_one_electron(u, pivot=None):
    """Dense statevector ``sum_p u_p |p>`` via the prep-form ladder."""
    sched = one_electron_angles(u, pivot=pivot)
    n = sched.n_modes
    vac = np.zeros(2**n, dtype=complex)
    vac[0] = 1.0
    return apply_ladder_dense(sched, vac)


@dataclass(frozen=True)
class RotationNetwork:
    """Givens-network realization of a full single-particle rotation.

    Semantics: the per-mode phase layer acts first, then the two-mode
    rotations in list order.  The induced map on creation operators is
    ``a_q^dag -> sum_p V[p, q] a_p^dag`` with ``V = R_last ... R_first Phi``.
    """

    n_modes: int
    rotations: tuple  # ((p, q, theta), ...)
    phases: np.ndarray

    def __post_init__(self):
        self.phases.setflags(write=False)


def network_pair_sequence(n):
    """Deterministic adjacent-pair order used by every rotation network.

    Matches the rotation order emitted by
    :func:`rotation_network_from_matrix`, so skeleton slots, dial-stage
    angle extraction, and the executor all agree on which rotation a slot
    addresses.
    """
    elim = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            elim.append((i - 1, i))
    return tuple(reversed(elim))


def rotation_network_from_matrix(v):
    """Decompose a real orthogonal matrix into a deterministic network.

    Adjacent-row Givens QR brings ``v`` to a diagonal of signs; negative
    signs become pi phases.  Zero-angle rotations are kept so the network
    shape depends only on the mode count (fixed topology).
    """
    v = np.asarray(v)
    if np.iscomplexobj(v) and np.abs(v.imag).max() > 1e-13:
        raise ShapeError("rotation networks support real orthogonal matrices")
    v = v.real.astype(float)
    n = v.shape[0]
    if v.shape != (n, n):
        raise ShapeError("rotation matrix must be square")
    if np.abs(v.T @ v - np.eye(n)).max() > 1e-10:
        raise ShapeError("rotation matrix must be orthogonal")
    a = v.copy()
    elim = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            top, bot = a[i - 1, j], a[i, j]
            theta = float(np.arctan2(bot, top))
            c, s = np.cos(theta), np.sin(theta)
            rows = np.array([[c, s], [-s, c]]) @ a[[i - 1, i], :]
            a[[i - 1, i], :] = rows
            a[i, j] = 0.0
            elim.append((i - 1, i, theta))
    signs = np.sign(np.diag(a))
    signs[signs == 0] = 1.0
    phases = np.where(signs < 0, np.pi, 0.0)
    # v = G_1^T ... G_M^T D: phases first, then transposed rotations in
    # reverse elimination order
    rotations = tuple((p, q, -theta) for (p, q, theta) in reversed(elim))
    return RotationNetwork(n, rotations, phases)


def network_single_particle(net):
    """Reconstruct the induced single-particle matrix (for verification)."""
    n = net.n_modes
    v = np.diag(np.exp(1j * net.phases))
    for p, q, theta in net.rotations:
        rot = np.eye(n, dtype=complex)
        c, s = np.cos(theta), np.sin(theta)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        v = rot @ v
    if np.abs(v.imag).max() < 1e-14:
        v = v.real
    return v


def network_unitary(net, n=None):
    """Sparse (CSR) Fock-space unitary realizing the network."""
    n = n or net.n_modes
    if n != net.n_modes:
        raise ShapeError("mode count disagrees with network")
    out = sparse.diags(jw.phase_layer(n, net.phases), format="csr")
    for p, q, theta in net.rotations:
        out = givens_gate(n, p, q, theta) @ out
    return out
