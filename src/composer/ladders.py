"""Deterministic number-conserving Givens and pair-Givens ladder schedules.

A ladder redistributes amplitude from a fixed pivot mode (or pivot pair)
through a fixed ordering of targets; only the rotation angles and phases
depend on the data vector, which is what makes the topology reusable.
Every gate has one definition: the signed index map of its rotation
generator, cached per register size and mode tuple and checked, when
first built, to be a partial signed permutation with disjoint rows and
partners (``A^2 = 0``, so ``K^3 = -K`` for both the two-mode and the
four-mode case).  In that exact Euler form ``exp(theta K)`` mixes each
touched row with its partner only, so one kernel applies it to a column
array with neither matrix exponentials nor sparse arithmetic; the
schedule and network unitaries are that kernel applied to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import jw
from .errors import NormalizationError, ShapeError, ValidationError

_NORM_TOL = 1e-10


@lru_cache(maxsize=None)
def pair_indices(n):
    """Lexicographic ordered pairs ``(p, q)`` with ``p < q`` over n modes."""
    return tuple((p, q) for p in range(n) for q in range(p + 1, n))


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
    """Tail-norm recursion: ``theta_k = arctan(|u_k| / s_{k+1})``, along the last axis.

    ``s_k`` is the norm of ``mags[k:]`` and the pivot magnitude (one per
    row), summed from the pivot backwards.  Degenerate tails use the
    arctan limits: ``theta = 0`` when both the current amplitude and the
    tail vanish, ``pi/2`` when only the tail does.
    """
    mags = np.ascontiguousarray(mags, dtype=float)
    pivot_mag = np.asarray(pivot_mag, dtype=float)[..., None]
    squares = mags[..., ::-1] ** 2
    squares[..., :1] += pivot_mag**2
    # a fresh contiguous array, so every row meets the same arctan2 loop
    tails = np.concatenate(
        [np.sqrt(np.cumsum(squares, axis=-1))[..., ::-1], pivot_mag], axis=-1
    )
    thetas = np.arctan2(mags, tails[..., 1:])
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


def wedge_vectors(x, y):
    """Pair vectors ``x_p y_q - x_q y_p`` over lexicographic ``p < q``.

    Along the last axis, so stacked factors give one pair vector per row.
    """
    p, q = _pair_arrays(np.shape(x)[-1])
    return x[..., p] * y[..., q] - y[..., p] * x[..., q]


@lru_cache(maxsize=None)
def _pair_arrays(n):
    """:func:`pair_indices` as two index arrays, ``p`` and ``q``."""
    p, q = np.array(pair_indices(n), dtype=np.intp).reshape(-1, 2).T
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def ladder_angles(amplitudes, pivots):
    """Angles of one ladder per row of ``amplitudes``, all rows at once.

    A row is a one-electron state over the modes or a two-electron state
    over the lexicographic ``p < q`` pairs, and ``pivots[i]`` is the index
    of row ``i``'s pivot mode or pair.  Returns the ``thetas`` and
    ``phases`` of the non-pivot entries in order (one row each) and the
    pivot ``gauges``, the phases the pivot amplitudes are gauged real by:
    per row, the values :func:`one_electron_angles` gives a real
    one-electron state, bit for bit (of a complex one, a theta may differ
    in its last bit, since the pivot's modulus is taken in an array).  A
    pair amplitude's phase rides inside its phased pair-Givens rotation.
    Each row must have unit norm.
    """
    u = np.asarray(amplitudes, dtype=complex)
    norms = np.linalg.norm(u, axis=-1)
    bad = np.abs(norms - 1.0) > _NORM_TOL
    if bad.any():
        raise NormalizationError(f"||u|| = {norms[bad][0]!r}, expected 1")
    rows, pivots = np.arange(len(u)), np.asarray(pivots)
    others = np.arange(u.shape[-1] - 1)
    rest = u[rows[:, None], others + (others >= pivots[:, None])]
    pivot_amps = u[rows, pivots]
    mags, pivot_mags = np.abs(rest), np.abs(pivot_amps)
    thetas, _ = _tail_angles(mags, pivot_mags)
    phases = np.angle(rest)
    phases[mags == 0.0] = 0.0
    gauges = np.where(pivot_mags > 0, np.angle(pivot_amps), 0.0)
    return thetas, phases, gauges


def two_electron_angles(u_pairs, pivot_pair=None):
    """Schedule preparing a two-electron state from pair amplitudes.

    ``u_pairs`` is indexed by the lexicographic ``p < q`` pair list, whose
    length sets the mode count; the angles are :func:`ladder_angles`
    of this one row.  The pivot-pair amplitude is gauged real.
    """
    u_pairs = np.asarray(u_pairs, dtype=complex).reshape(-1)
    n = int(round((1 + np.sqrt(1 + 8 * len(u_pairs))) / 2))
    pairs = pair_indices(n)
    if len(u_pairs) != len(pairs):
        raise ShapeError("pair amplitude vector has wrong length")
    if pivot_pair is None:
        pivot_pair = pairs[int(np.argmax(np.abs(u_pairs)))]
    pivot_pair = tuple(sorted(pivot_pair))
    if pivot_pair not in pairs:
        raise ShapeError(f"pivot pair {pivot_pair} invalid")
    k0 = pairs.index(pivot_pair)
    (thetas,), (phases,), (gauge,) = ladder_angles(u_pairs[None], [k0])
    ordering = pairs[:k0] + pairs[k0 + 1:]
    return LadderSchedule("two", n, pivot_pair, ordering, thetas, phases, float(gauge))


@lru_cache(maxsize=None)
def gate_map(n, modes):
    """Signed index map ``(rows, partners, signs)`` of a rotation generator's ``A``.

    ``modes`` is ``(p, r)`` for ``A = a_p^dag a_r`` or ``(p, q, r, s)`` for
    ``A = a_p^dag a_q^dag a_s a_r``; ``A`` is zero except
    ``A[rows[k], partners[k]] = signs[k]``, rows ascending.  The map is
    computed on the basis indices: each ladder operator, applied right to
    left, needs its mode empty (creation) or occupied (annihilation),
    flips its bit and takes the Jordan-Wigner sign of the occupied modes
    before it.  It is checked once, when cached: ``A`` is a nonzero
    partial signed permutation and its rows and partners are disjoint,
    i.e. ``A^2 = 0``, so the generator ``K = e A - conj(e) A^dag``
    (``|e| = 1``) has ``K^3 = -K``.  A repeated mode (``A = n_p`` or
    ``A = 0``) fails.
    """
    jw.check_n(n)
    half = len(modes) // 2
    ops = [(m, False) for m in modes[:half]]  # (mode, annihilates), left to right
    ops += [(m, True) for m in reversed(modes[half:])]
    state, parity = np.arange(2**n), np.zeros(2**n, dtype=np.int64)
    kept = state.copy()  # the columns no ladder operator has annihilated yet
    for m, annihilates in reversed(ops):  # applied right to left
        bit = 1 << (n - 1 - m)
        kept = kept[(state[kept] & bit) == (bit if annihilates else 0)]
        parity[kept] += jw.hamming_weights(n)[state[kept] >> (n - m)]
        state[kept] ^= bit
    partners = kept[np.argsort(state[kept], kind="stable")]
    rows = state[partners]
    signs = np.where(parity[partners] % 2, -1.0, 1.0)
    if not (
        len(rows)
        and len(np.unique(rows)) == len(np.unique(partners)) == len(rows)
        and not np.intersect1d(rows, partners).size
    ):
        raise ValidationError(f"modes {modes}: generator is not a rotation")
    signs = signs.reshape(-1, 1)
    for arr in (rows, partners, signs):
        arr.setflags(write=False)
    return rows, partners, signs


def rotate(cols, n, modes, theta, phi=0.0):
    """Apply ``exp(theta K)`` in place to a ``2**n x k`` column array.

    ``K = e A - conj(e) A^dag`` with ``e = exp(i phi)`` and ``A`` the
    :func:`gate_map` of ``modes``: each touched row mixes only with its
    partner, ``out[rows] = c x[rows] + s e v x[partners]`` and
    ``out[partners] = c x[partners] - s conj(e) v x[rows]``.  The adjoint
    is the rotation by ``-theta``.
    """
    rows, partners, signs = gate_map(n, modes)
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    top, bottom = cols[rows], cols[partners]
    cols[rows] = c * top + (s * e) * signs * bottom
    cols[partners] = c * bottom - (s * e.conjugate()) * signs * top
    return cols


def apply_gates(cols, n, gates, inverse=False):
    """Apply system gates in order, in place along axis 0 of ``cols``.

    A gate is ``("x", (q,))``, a bit flip; ``("phase", modes, phi)``,
    ``e^{i phi}`` on the states with every mode in ``modes`` occupied; or
    ``("rot", modes, theta, phi)``, :func:`rotate`.  ``inverse`` applies
    the adjoint of the sequence.
    """
    sign = -1.0 if inverse else 1.0
    for kind, modes, *values in reversed(gates) if inverse else gates:
        if kind == "x":
            cols[:] = cols[jw.bit_flip(n, modes[0])]
        elif kind == "phase":
            if values[0] != 0.0:
                cols[jw.occupied_states(n, modes)] *= np.exp(sign * 1j * values[0])
        else:
            rotate(cols, n, modes, sign * values[0], values[1])
    return cols


def _schedule_gates(sched):
    """The schedule's gates (see :func:`apply_gates`) in application order.

    The one-electron phases form a trailing per-mode layer; the pair
    phases ride inside their pair-Givens rotations.
    """
    gates = [("x", (r,)) for r in sched.pivot] if sched.prep_form else []
    if sched.sector == "one":
        r = sched.pivot[0]
        gates += [("rot", (p, r), t, 0.0) for p, t in zip(sched.ordering, sched.thetas)]
        gates += [
            ("phase", (p,), phi)
            for p, phi in zip((*sched.ordering, r), (*sched.phases, sched.pivot_phase))
        ]
    elif sched.sector == "two":
        gates += [
            ("rot", (*pq, *sched.pivot), t, phi)
            for pq, t, phi in zip(sched.ordering, sched.thetas, sched.phases)
        ]
        gates.append(("phase", sched.pivot, sched.pivot_phase))
    else:
        raise ShapeError(f"unknown sector {sched.sector!r}")
    return gates


def apply_ladder_dense(sched, state, n=None, inverse=False):
    """Apply a schedule to a dense state vector on ``2**n`` amplitudes."""
    if n and n != sched.n_modes:
        raise ShapeError(f"mode count {n} disagrees with {sched.n_modes}")
    n = sched.n_modes
    state = np.array(state, dtype=complex).reshape(-1, 1)
    if state.shape[0] != 2**n:
        raise ShapeError(f"state dimension {state.shape[0]} != 2**{n}")
    return apply_gates(state, n, _schedule_gates(sched), inverse)[:, 0]


def schedule_unitary(sched):
    """Sparse (CSR) unitary of the full schedule, applied to the identity."""
    n = sched.n_modes
    return sparse.csr_matrix(
        apply_gates(np.eye(2**n, dtype=complex), n, _schedule_gates(sched))
    )


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
    :func:`rotation_networks`, so skeleton slots, dial-stage
    angle extraction, and the executor all agree on which rotation a slot
    addresses.
    """
    elim = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            elim.append((i - 1, i))
    return tuple(reversed(elim))


def rotation_networks(matrices):
    """Decompose a stack of equal-size real orthogonal matrices into networks.

    One network per matrix, its rotations in :func:`network_pair_sequence`
    order with the angles of :func:`network_angles`.
    """
    angles, phases = network_angles(matrices)
    pairs = network_pair_sequence(phases.shape[-1])
    return tuple(
        RotationNetwork(len(ph), tuple((p, q, t) for (p, q), t in zip(pairs, row)), ph)
        for row, ph in zip(angles.tolist(), phases)
    )


def network_angles(matrices):
    """``(angles, phases)``: the rotation networks of a stack of real orthogonal matrices.

    One adjacent-row Givens QR runs on the whole stack: each elimination
    takes every matrix's angle at once and rotates each matrix's two rows
    by its own ``2 x 2`` product, so each network has the bits of its
    matrix decomposed alone (one matrix is a stack of one).  The QR brings
    each matrix to a diagonal of signs; negative signs become pi phases.
    Zero-angle rotations are kept so the network shape depends only on
    the mode count (fixed topology).  Row ``i`` of ``angles`` holds matrix
    ``i``'s rotation angles in :func:`network_pair_sequence` order, row
    ``i`` of ``phases`` its per-mode phases.
    """
    v = np.asarray(matrices)
    if np.iscomplexobj(v) and np.abs(v.imag).max(initial=0.0) > 1e-13:
        raise ShapeError("rotation networks support real orthogonal matrices")
    v = v.real.astype(float)
    if v.ndim != 3 or v.shape[1] != v.shape[2]:
        raise ShapeError("rotation matrices must be a stack of equal squares")
    k, n, _ = v.shape
    if np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(n)).max(initial=0.0) > 1e-10:
        raise ShapeError("rotation matrix must be orthogonal")
    a = v.copy()
    rot = np.empty((k, 2, 2))
    thetas = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            theta = np.arctan2(a[:, i, j], a[:, i - 1, j])
            c, s = np.cos(theta), np.sin(theta)
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1], rot[:, 1, 0] = s, -s
            a[:, i - 1:i + 1] = rot @ a[:, i - 1:i + 1]
            a[:, i, j] = 0.0
            thetas.append(theta)
    phases = np.where(np.diagonal(a, axis1=1, axis2=2) < 0, np.pi, 0.0)
    # v = G_1^T ... G_M^T D: phases first, then transposed rotations in
    # reverse elimination order
    angles = -np.array(thetas[::-1]).reshape(len(thetas), k).T
    return angles, phases


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


def network_unitary(net):
    """Sparse (CSR) Fock-space unitary realizing the network."""
    n = net.n_modes
    gates = [("phase", (p,), phi) for p, phi in enumerate(net.phases)]
    gates += [("rot", (p, q), theta, 0.0) for p, q, theta in net.rotations]
    return sparse.csr_matrix(apply_gates(np.eye(2**n, dtype=complex), n, gates))
