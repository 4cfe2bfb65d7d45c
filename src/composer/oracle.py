"""Dense Jordan-Wigner oracle for block-encoding verification.

Every block encoding is assembled as an explicit dense unitary straight
from its defining construction (vacuum-reflection dyad gadgets, flagged
occupation gadgets, PREP-SELECT-PREP multiplexing) and then checked
against the dense operator it is supposed to encode, restricted to the
working particle-number sector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import jw, ladders
from .errors import (
    CapacityError,
    MaskError,
    ShapeError,
    ValidationError,
)
from .factorization import bilinear_asym_spectrum, generator_branch_alpha
from .jw import jw_ladder_ops, sector_indices  # re-exported oracle surface

REPORT_FORMAT = "composer-report-v1"

# widest register (selector + workspace + system) assembled as a dense matrix
MAX_ASSEMBLY_QUBITS = 13

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator on the full 2**n Jordan-Wigner space."""

    matrix: np.ndarray
    n: int
    tag: str = ""

    def __post_init__(self):
        if self.n > jw.MAX_QUBITS:
            raise ShapeError(f"{self.n} qubits exceeds the dense oracle limit")
        if self.matrix.shape != (2**self.n, 2**self.n):
            raise ShapeError("matrix dimension inconsistent with qubit count")


@dataclass(frozen=True)
class BlockEncodingReport:
    """Normalization, ancilla count, and measured restricted-block error."""

    alpha: float
    ancillas: int
    measured_error: float
    sector: str
    flags: tuple = ()
    budget: dict | None = None

    def to_json(self):
        doc = {
            "format": REPORT_FORMAT,
            "alpha": self.alpha,
            "ancillas": self.ancillas,
            "measured_error": self.measured_error,
            "sector": self.sector,
            "flags": list(self.flags),
            "budget": self.budget,
        }
        return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# dense reference operators
# ---------------------------------------------------------------------------


def dense_hamiltonian(ints, include_e_nn=True):
    """Second-quantized Hamiltonian built directly from the integrals."""
    n = ints.n_so
    cr, an = jw.jw_ladder_ops(n)
    dim = 2**n
    out = sparse.csr_matrix((dim, dim), dtype=complex)
    for p in range(n):
        for q in range(n):
            if ints.h[p, q] != 0.0:
                out = out + ints.h[p, q] * (cr[p] @ an[q])
    pair_cr = {}
    pair_an = {}
    for p in range(n):
        for q in range(n):
            if p != q:
                pair_cr[(p, q)] = (cr[p] @ cr[q]).tocsr()
                pair_an[(q, p)] = (an[q] @ an[p]).tocsr()
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            left = pair_cr[(p, q)]
            for r in range(n):
                for s in range(n):
                    if r == s:
                        continue
                    val = ints.eri[p, q, r, s]
                    if val != 0.0:
                        out = out + (0.5 * val) * (left @ pair_an[(s, r)])
    mat = out.toarray()
    if include_e_nn:
        mat = mat + ints.e_nn * np.eye(dim)
    return FockOperator(mat, n, tag="hamiltonian(integrals)")


def hamiltonian_from_pool(pool):
    """Dense rebuild of ``sum_s Omega_s L_s`` from the rank-one pool.

    Excludes the constant shift; compare against
    ``dense_hamiltonian(..., include_e_nn=False)``.
    """
    n = pool.n_so
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for lad in pool.one_body:
        for j in range(lad.multiplicity):
            w = lad.vectors[:, j]
            out += lad.coefficient * dense_bilinear(w, w, n)
    for lad in pool.channels:
        o_mu = channel_operator(lad.channel, n)
        out += lad.coefficient * (o_mu @ o_mu)
    return FockOperator(out, n, tag="hamiltonian(pool)")


def dense_bilinear(u, v, n):
    """Dense ``a^dag(u) a(v)``."""
    cr, an = jw.jw_ladder_ops(n)
    au = sum(u[p] * cr[p] for p in range(n))
    av = sum(np.conj(v[q]) * an[q] for q in range(n))
    return (au @ av).toarray()


def dense_pair_ladder(lad, n_occ, n):
    """Dense pair-excitation ladder ``B^dag[U] B[V]`` on the full register.

    Virtual wedge indices offset by the occupied count; the occupied wedge
    sits on the lowest modes.
    """
    cr, _ = jw.jw_ladder_ops(n)
    uv = lad.virtual_pair_vector()
    vo = lad.occupied_pair_vector()
    bu = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for k, (a, b) in enumerate(ladders.pair_indices(len(lad.x))):
        if uv[k] != 0.0:
            bu = bu + uv[k] * (cr[n_occ + a] @ cr[n_occ + b])
    bv = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for k, (i, j) in enumerate(ladders.pair_indices(len(lad.r))):
        if vo[k] != 0.0:
            bv = bv + vo[k] * (cr[i] @ cr[j])
    return (bu @ bv.conj().T).toarray()


def dense_generator_ladder(lad, n_occ, n):
    """Dense ``L_s`` for any generator ladder kind."""
    if lad.kind == "pair":
        return dense_pair_ladder(lad, n_occ, n)
    if lad.kind == "bilinear":
        return dense_bilinear(lad.u, lad.v, n)
    raise ValidationError(f"unsupported generator ladder kind {lad.kind!r}")


def generator_dense(pool, mask_indices=None):
    """Dense Hermitian masked generator ``sum_s omega_s i(L_s - L_s^dag)``.

    The anti-Hermitian generator itself is ``-i`` times the returned
    matrix.
    """
    n = pool.n_so
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    selected = (
        pool.ladders
        if mask_indices is None
        else [lad for lad in pool.ladders if lad.address in set(mask_indices)]
    )
    for lad in selected:
        lmat = dense_generator_ladder(lad, pool.n_occ, n)
        out += lad.coefficient * 1j * (lmat - lmat.conj().T)
    return FockOperator(out, n, tag="generator(hermitian)")


# ---------------------------------------------------------------------------
# block extraction and error measurement
# ---------------------------------------------------------------------------


def extract_block(w, n):
    """Top-left ``<0_anc| W |0_anc>`` block of a unitary with leading ancillas."""
    dim = 2**n
    if w.shape[0] % dim != 0:
        raise ShapeError("unitary dimension is not a multiple of the system size")
    return np.asarray(w)[:dim, :dim]


def restricted_block_error(w, target, ancilla_count, sector=None, projector=None):
    """Spectral norm of the encoded-block deviation on the working subspace.

    Extracts the all-ancilla-zero block, subtracts the (already scaled)
    target, sandwiches with the particle-number-sector projector and the
    optional model-space projector, and returns the 2-norm.
    """
    n = target.n
    if w.shape[0] != 2 ** (ancilla_count + n):
        raise ShapeError(
            f"unitary dimension {w.shape[0]} != 2**(t + n) with t={ancilla_count}"
        )
    delta = extract_block(w, n) - target.matrix
    if sector is not None:
        diag = jw.sector_projector_diagonal(n, sector)
        delta = delta * diag[:, None] * diag[None, :]
    if projector is not None:
        delta = projector @ delta @ projector
    return float(np.linalg.norm(delta, 2))


def assert_sector_preserving(block, n, tol=1e-11):
    """Check the block is block-diagonal over Hamming-weight sectors."""
    weights = jw.hamming_weights(n)
    off = block[weights[:, None] != weights[None, :]]
    return float(np.abs(off).max(initial=0.0)) <= tol


# ---------------------------------------------------------------------------
# gadget constructions
# ---------------------------------------------------------------------------


def vacuum_reflection_gadget(n):
    """Single-ancilla deterministic encoding of the vacuum projector.

    ``(H (x) I) (|0><0| (x) I + |1><1| (x) (-R0)) (H (x) I)`` with
    ``R0 = I - 2|0^n><0^n|``; the ancilla-zero block is exactly
    ``|0^n><0^n|``.
    """
    dim = 2**n
    r0 = np.ones(dim)
    r0[0] = -1.0
    mid = np.concatenate([np.ones(dim), -r0])
    had = np.kron(_H2, np.eye(dim))
    return had @ (mid[:, None] * had)


def _lift(op, extra):
    """Pad ``extra`` trivially-acting ancillas as most-significant qubits."""
    if extra == 0:
        return np.asarray(op)
    return np.kron(np.eye(2**extra), op)


def _householder_prep(amplitudes):
    """Real orthogonal involution with the amplitude vector as first column."""
    amp = np.asarray(amplitudes, dtype=float)
    if np.any(amp < -1e-14):
        raise ValidationError("prep amplitudes must be nonnegative")
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"prep amplitude norm {norm!r} != 1")
    e0 = np.zeros_like(amp)
    e0[0] = 1.0
    v = amp - e0
    vn = np.linalg.norm(v)
    if vn < 1e-14:
        return np.eye(len(amp))
    return np.eye(len(amp)) - 2.0 * np.outer(v, v) / (vn * vn)


def _prep_select_prep(amplitudes, branch_ops, branch_phases, n, workspace=None):
    """Assemble ``(PREP^dag (x) I) W_sel (PREP (x) I)`` as a dense unitary.

    ``branch_ops[s]`` is the unitary of selector value ``s`` on its own
    workspace + system register (``None`` means identity); workspace widths
    are equalized by padding most-significant identity ancillas.
    """
    n_states = len(amplitudes)
    if n_states & (n_states - 1):
        raise ShapeError("amplitude vector length must be a power of two")
    if len(branch_ops) > n_states:
        raise CapacityError(
            f"{len(branch_ops)} branches exceed selector capacity {n_states}"
        )
    dim_sys = 2**n
    widths = [
        0 if op is None else int(np.log2(op.shape[0] // dim_sys))
        for op in branch_ops
    ]
    t = workspace if workspace is not None else max(widths, default=0)
    total_qubits = int(np.log2(n_states)) + t + n
    if total_qubits > MAX_ASSEMBLY_QUBITS:
        raise ShapeError(
            f"dense assembly needs {total_qubits} qubits; "
            f"the oracle caps at {MAX_ASSEMBLY_QUBITS}"
        )
    if any(wd > t for wd in widths):
        raise ShapeError("branch workspace exceeds the shared width")
    dim_ws = 2**t
    blocks = np.zeros((n_states, dim_ws * dim_sys, dim_ws * dim_sys), dtype=complex)
    for s in range(n_states):
        if s < len(branch_ops) and branch_ops[s] is not None:
            op = _lift(branch_ops[s], t - widths[s])
            phase = branch_phases[s] if s < len(branch_phases) else 1.0
            blocks[s] = phase * op
        else:
            blocks[s] = np.eye(dim_ws * dim_sys)
    prep = _householder_prep(amplitudes)
    w = np.einsum("mt,mab,ms->tasb", prep.conj(), blocks, prep, optimize=True)
    dim = n_states * dim_ws * dim_sys
    return w.reshape(dim, dim)


def index_width(r):
    """Qubits of a binary index register over ``r`` branches."""
    return int(np.ceil(np.log2(r))) if r > 1 else 0


def null_branch(n):
    """Reserved null branch ``X (x) I``: a workspace flip, no system action."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2**n))


def signed_loading(eigvals):
    """PREP data of a signed spectrum ``sum_k lambda_k P_k``.

    Returns ``(amplitudes, signs, gamma)``: ``sqrt(|lambda_k| / Gamma)``,
    the eigenvalue signs as ``+-1`` and ``Gamma = sum |lambda_k|``.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    gamma = np.abs(eigvals).sum()
    return np.sqrt(np.abs(eigvals) / gamma), np.where(eigvals >= 0, 1.0, -1.0), gamma


def _flag_copy(pivot, n):
    """Flag-copy core ``X_f CNOT_(pivot -> f)`` on one flag plus the system."""
    total = 1 + n
    return (jw.pauli_x(total, 0) @ jw.controlled_x(total, 1 + pivot, 0)).toarray()


def flagged_occupation(sched, n):
    """Flag-copy core conjugated by a number-conserving one-electron ladder."""
    lifted = _lift(ladders.schedule_unitary(sched), 1)
    return lifted @ _flag_copy(sched.pivot[0], n) @ lifted.conj().T


def occupation_select(gadgets, amps, phases, n):
    """One-qubit sub-select over flagged occupation gadgets.

    A single gadget is returned as itself (times its phase).  All-zero
    amplitudes mark a surplus compiled adaptor idling at zero weight: any
    valid sub-prep keeps it unitary and it is never selected, so branch 0
    is loaded.
    """
    if len(gadgets) == 1:
        return phases[0] * gadgets[0]
    amps = np.asarray(amps, dtype=float)
    if np.linalg.norm(amps) < 1e-12:
        amps = np.eye(len(amps))[0]
    return _prep_select_prep(amps, gadgets, phases, n, workspace=1)


def rotated_diagonal_gadget(net, amps, phases, n):
    """Flag-copy select over modes ``0 .. r-1`` conjugated by a rotation network.

    Returns the unitary and its ancilla count (index register plus flag).
    """
    r = len(phases)
    t = index_width(r) + 1
    loaded = np.zeros(2 ** (t - 1))
    loaded[:r] = amps
    ops = [_flag_copy(xi, n) for xi in range(r)]
    gadget = _prep_select_prep(loaded, ops, phases, n, workspace=1)
    lifted = _lift(ladders.network_unitary(net), t)
    return lifted @ gadget @ lifted.conj().T, t


def dyad_gadget(su, sv, n):
    """``lift(U_u) R_vac lift(U_v^dag)`` from two prep-form ladders.

    The ancilla-zero block is the dyad ``|u><v|`` of the two loaded states.
    """
    prep_u = ladders.schedule_unitary(su)
    prep_v = ladders.schedule_unitary(sv)
    return _lift(prep_u, 1) @ vacuum_reflection_gadget(n) @ _lift(prep_v.conj().T, 1)


def hermitian_dyad_branch(su, sv, n):
    """Hermitian ``i(L - L^dag)/2`` for the dyad ``L`` of two prep-form ladders.

    Two-term sub-select over the dyad gadget and its adjoint with phases
    ``[i, -i]``; the adjoint gadget encodes the adjoint dyad, so both arms
    reuse one circuit body.
    """
    w_l = dyad_gadget(su, sv, n)
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return _prep_select_prep(amps, [w_l, w_l.conj().T], [1j, -1j], n, workspace=1)


def dyad_block_encoding(u, v, lam, n, pivot_u=None, pivot_v=None):
    """Single-ancilla block encoding of the one-electron dyad ``|u><v|``.

    The vacuum-reflection gadget conjugated by the two prep-form ladders;
    the encoded block equals the dyad exactly on the one-excitation
    sector.  ``lam`` only sets the reported normalization (``alpha = lam``);
    a zero coefficient falls back to ``alpha = 1`` and is flagged.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if lam < 0:
        raise ValidationError("lam must be nonnegative")
    su = ladders.one_electron_angles(u, pivot=pivot_u, n=n)
    sv = ladders.one_electron_angles(v, pivot=pivot_v, n=n)
    w = dyad_gadget(su, sv, n)
    flags = ()
    alpha = lam
    if lam == 0.0:
        alpha = 1.0
        flags = ("DegenerateCoefficient",)
        target = FockOperator(np.zeros((2**n, 2**n), dtype=complex), n)
    else:
        target = FockOperator(dyad_matrix(u, v, n), n, tag="dyad")
    err = restricted_block_error(w, target, 1, sector=1)
    return w, BlockEncodingReport(
        alpha=alpha, ancillas=1, measured_error=err, sector="N=1", flags=flags
    )


def dyad_matrix(u, v, n):
    """Dense ``|u><v|`` over one-electron basis states."""
    dim = 2**n
    pu = np.zeros(dim, dtype=complex)
    pv = np.zeros(dim, dtype=complex)
    for p in range(n):
        pu[jw.basis_state(n, [p])] = u[p]
        pv[jw.basis_state(n, [p])] = v[p]
    return np.outer(pu, pv.conj())


def pair_dyad_block_encoding(u_pairs, v_pairs, lam, n, pivot_u=None, pivot_v=None):
    """Single-ancilla block encoding of the two-electron dyad ``|U><V|``."""
    su = ladders.two_electron_angles(u_pairs, pivot_pair=pivot_u, n=n)
    sv = ladders.two_electron_angles(v_pairs, pivot_pair=pivot_v, n=n)
    w = dyad_gadget(su, sv, n)
    target = FockOperator(pair_dyad_matrix(u_pairs, v_pairs, n), n, tag="pair dyad")
    err = restricted_block_error(w, target, 1, sector=2)
    return w, BlockEncodingReport(
        alpha=lam, ancillas=1, measured_error=err, sector="N=2"
    )


def pair_dyad_matrix(u_pairs, v_pairs, n):
    """Dense ``|U><V|`` over two-electron basis states."""
    dim = 2**n
    pu = np.zeros(dim, dtype=complex)
    pv = np.zeros(dim, dtype=complex)
    for k, (p, q) in enumerate(ladders.pair_indices(n)):
        pu[jw.basis_state(n, [p, q])] = u_pairs[k]
        pv[jw.basis_state(n, [p, q])] = v_pairs[k]
    return np.outer(pu, pv.conj())


def occupation_gadget(w_vec, n, pivot=None):
    """Flagged encoding of the rotated occupation ``n_w`` (one ancilla).

    The number-conserving ladder for ``w`` conjugates a flag-copy gadget
    ``X_f CNOT_{pivot->f}``; the flag-zero block is ``n_w`` exactly on
    every particle sector.
    """
    sched = ladders.one_electron_angles(w_vec, pivot=pivot, n=n).as_number_conserving()
    return flagged_occupation(sched, n)


def diagonal_one_body_encoding(eigvals, rotation_full, n):
    """PREP-SELECT-PREP encoding of ``sum_xi lambda_xi n_(xi)`` rotated.

    Index register of width ``ceil(log2 R)`` loads ``sqrt(|lambda|/Gamma)``
    amplitudes; each branch is a flag-copy gadget on the corresponding
    mode with the eigenvalue sign as a branch phase; the shared basis
    rotation conjugates the whole gadget.  The encoded block equals the
    operator divided by ``Gamma = sum |lambda|`` exactly.
    """
    if len(eigvals) == 0:
        raise ValidationError("empty eigenvalue list")
    amps, signs, gamma = signed_loading(eigvals)
    net = ladders.rotation_network_from_matrix(rotation_full)
    w, t = rotated_diagonal_gadget(net, amps, signs, n)
    return w, gamma, t


def reflect_about_ancilla_vacuum(t, n):
    """Diagonal ``2 |0^t><0^t| (x) I - I`` on a (t + n)-qubit register."""
    dim = 2 ** (t + n)
    diag = -np.ones(dim)
    diag[: 2**n] = 1.0
    return diag


def squared_block_gadget(w, t, n):
    """Signal-qubit gadget whose block is the square of ``<0_t|W|0_t>``.

    Averages ``W R0 W`` (one reflection-conjugated double application)
    with the identity on a Hadamard-conjugated signal qubit; for an
    involution ``W`` with Hermitian block ``A`` the result encodes ``A^2``
    exactly.
    """
    refl = reflect_about_ancilla_vacuum(t, n)
    double = w @ (refl[:, None] * w)
    dim = double.shape[0]
    had = np.kron(_H2, np.eye(dim))
    mid = np.zeros((2 * dim, 2 * dim), dtype=complex)
    mid[:dim, :dim] = double
    mid[dim:, dim:] = np.eye(dim)
    return had @ mid @ had


def channel_block_encoding(ch, n, squared=True):
    """Deterministic block encoding of a diagonalized Cholesky channel.

    Unsquared form encodes ``O_mu / Gamma_mu`` with ``a_I + 1`` ancillas;
    the squared form adds one signal qubit and encodes
    ``O_mu^2 / Gamma_mu^2``.
    """
    if ch.eigvals is None:
        raise ValidationError("channel must be eigendecomposed first")
    if ch.rank == 0:
        raise ValidationError("channel has no retained eigenmodes")
    w, gamma, t = diagonal_one_body_encoding(ch.eigvals, ch.rotation_full, n)
    o_mu = channel_operator(ch, n)
    if not squared:
        target = FockOperator(o_mu / gamma, n, tag="channel")
        err = restricted_block_error(w, target, t)
        return w, BlockEncodingReport(
            alpha=gamma, ancillas=t, measured_error=err, sector="all"
        )
    w2 = squared_block_gadget(w, t, n)
    target = FockOperator(o_mu @ o_mu / gamma**2, n, tag="channel squared")
    err = restricted_block_error(w2, target, t + 1)
    return w2, BlockEncodingReport(
        alpha=gamma**2, ancillas=t + 1, measured_error=err, sector="all"
    )


def channel_operator(ch, n):
    """Dense ``O_mu = sum_xi lambda_xi n_(mu xi)``."""
    cr, _ = jw.jw_ladder_ops(n)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for xi in range(ch.rank):
        w = ch.rotation[:, xi]
        aw = sum(w[p] * cr[p] for p in range(n))
        out += ch.eigvals[xi] * (aw @ aw.conj().T).toarray()
    return out


# ---------------------------------------------------------------------------
# multiplexing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LCUBranch:
    """One multiplexed branch: coefficient, block-encoding unitary, its alpha."""

    omega: complex
    unitary: np.ndarray
    alpha: float


def lcu_multiplex(branches, n, selector_width=None, workspace=None, target=None,
                  sector=None):
    """Binary-multiplexed PREP-SELECT-PREP combination of branch encodings.

    PREP loads ``sqrt(|Omega_s| alpha_s / alpha)``; coefficient phases ride
    on the SELECT branches.  The encoded block is
    ``sum_s Omega_s L_s / alpha`` with ``alpha = sum_s |Omega_s| alpha_s``.
    """
    if not branches:
        raise ValidationError("at least one branch required")
    weights = np.array([abs(b.omega) * b.alpha for b in branches])
    alpha = float(weights.sum())
    if alpha <= 0:
        raise ValidationError("all branch weights vanish")
    width = selector_width
    if width is None:
        width = index_width(len(branches))
    if 2**width < len(branches):
        raise CapacityError(
            f"{len(branches)} branches exceed selector capacity 2**{width}"
        )
    amps = np.zeros(2**width)
    amps[: len(branches)] = np.sqrt(weights / alpha)
    phases = [
        b.omega / abs(b.omega) if abs(b.omega) > 0 else 1.0 for b in branches
    ]
    t_branches = max(
        int(np.log2(b.unitary.shape[0] // 2**n)) for b in branches
    )
    t = t_branches if workspace is None else workspace
    if width == 0 and t == t_branches:
        w = phases[0] * np.asarray(branches[0].unitary)
        w = _lift(w, t - int(np.log2(w.shape[0] // 2**n)))
    else:
        w = _prep_select_prep(
            amps, [b.unitary for b in branches], phases, n, workspace=t
        )
    err = float("nan")
    if target is not None:
        err = restricted_block_error(w, target, width + t, sector=sector)
    return w, BlockEncodingReport(
        alpha=alpha,
        ancillas=width + t,
        measured_error=err,
        sector="all" if sector is None else f"N={sector}",
    )


def mode_group_encoding(vectors, n, pivots=None, signs=None):
    """Encoding of ``sum_j sign_j n(w_j) / m`` over a small mode group.

    A single mode reduces to the flagged occupation gadget; two modes ride
    a one-qubit sub-selector with equal amplitudes, each realized through
    its own number-conserving ladder.  Exact on every particle sector.
    """
    m = vectors.shape[1]
    signs = [1.0] * m if signs is None else list(signs)
    gadgets = [
        occupation_gadget(vectors[:, j], n, pivot=None if pivots is None else pivots[j])
        for j in range(m)
    ]
    return occupation_select(gadgets, np.full(m, 1.0 / np.sqrt(m)), signs, n)


def hamiltonian_branches(pool):
    """Branch list (coefficient, unitary, alpha) for a Hamiltonian pool."""
    n = pool.n_so
    out = []
    for lad in pool.one_body:
        w = mode_group_encoding(lad.vectors.astype(complex), n)
        out.append(LCUBranch(lad.coefficient, w, float(lad.multiplicity)))
    for lad in pool.channels:
        w, rep = channel_block_encoding(lad.channel, n, squared=True)
        out.append(LCUBranch(lad.coefficient, w, rep.alpha))
    return out


def hamiltonian_block_encoding(pool, sector=None, selector_width=None, workspace=None):
    """Full multiplexed encoding of the pool Hamiltonian (no constant shift)."""
    target = FockOperator(
        hamiltonian_from_pool(pool).matrix / pool.alpha, pool.n_so, tag="H/alpha"
    )
    sector = pool.n_elec if sector is None else sector
    return lcu_multiplex(
        hamiltonian_branches(pool),
        pool.n_so,
        selector_width=selector_width,
        workspace=workspace,
        target=target,
        sector=sector,
    )


def pair_branch_encoding(lad, n_occ, n, pivot_u=None, pivot_v=None):
    """Hermitian branch ``i(L - L^dag)/2`` for one pair ladder."""
    uv, vo = lad.embedded_pair_vectors(n_occ, n)
    su = ladders.two_electron_angles(uv, pivot_pair=pivot_u, n=n)
    sv = ladders.two_electron_angles(vo, pivot_pair=pivot_v, n=n)
    return hermitian_dyad_branch(su, sv, n)


def bilinear_branch_encoding(lad, n, pivots=None):
    """Hermitian branch ``i(L - L^dag)/Gamma`` for one bilinear ladder.

    The Hermitian form diagonalizes into at most two rotated occupation
    modes, each realized by a flagged one-electron ladder gadget under a
    one-qubit sub-selector.
    """
    w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
    if len(w_vals) == 0:
        raise ValidationError("bilinear generator term vanishes")
    amps, signs, _ = signed_loading(w_vals)
    gadgets = [
        occupation_gadget(w_vecs[:, j], n, pivot=None if pivots is None else pivots[j])
        for j in range(len(w_vals))
    ]
    return occupation_select(gadgets, amps, signs, n)


def generator_branch_encoding(lad, n_occ, n, pivots=None):
    if lad.kind == "pair":
        pu = None if pivots is None else pivots.get("u")
        pv = None if pivots is None else pivots.get("v")
        return pair_branch_encoding(lad, n_occ, n, pivot_u=pu, pivot_v=pv)
    if lad.kind == "bilinear":
        pv = None if pivots is None else pivots.get("modes")
        return bilinear_branch_encoding(lad, n, pivots=pv)
    raise ValidationError(f"unsupported generator ladder kind {lad.kind!r}")


def generator_block_encoding(pool, mask_indices, alpha_bar=None, pivots=None,
                             selector_width=None, workspace=None):
    """Masked generator encoding with the global-normalization null branch.

    The block equals ``sum_(s in mask) omega_s i(L_s - L_s^dag) / alpha_bar``
    with ``alpha_bar`` fixed by the full compiled pool (never by the mask);
    surplus PREP amplitude is routed to the reserved address-0 null branch,
    whose workspace flip keeps it invisible to the ancilla-vacuum block.
    """
    mask_indices = frozenset(mask_indices)
    if pool.ell == 0 and mask_indices:
        raise MaskError("nonzero mask over an empty generator pool")
    addresses = {lad.address for lad in pool.ladders}
    if not mask_indices <= addresses:
        raise MaskError(
            f"mask indices {sorted(mask_indices - addresses)} not in pool"
        )
    alpha_bar = pool.alpha_bar if alpha_bar is None else float(alpha_bar)
    n = pool.n_so
    width = max(int(np.ceil(np.log2(pool.ell + 1))), 1)
    if selector_width is not None:
        if 2**selector_width < pool.ell + 1:
            raise CapacityError("selector width too small for the pool")
        width = selector_width
    amps = np.zeros(2**width)
    branch_ops = [None] * (pool.ell + 1)
    branch_phases = [1.0] * (pool.ell + 1)
    branch_ops[0] = null_branch(n)
    used = 0.0
    for lad in pool.ladders:
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        if lad.address in mask_indices:
            amps[lad.address] = np.sqrt(weight / alpha_bar)
            used += weight
        branch_pivots = None if pivots is None else pivots.get(lad.address)
        branch_ops[lad.address] = generator_branch_encoding(
            lad, pool.n_occ, n, pivots=branch_pivots
        )
        branch_phases[lad.address] = 1.0 if lad.coefficient >= 0 else -1.0
    if used > alpha_bar * (1 + 1e-12):
        raise ValidationError(
            f"masked weight {used} exceeds global normalization {alpha_bar}"
        )
    amps[0] = np.sqrt(max(1.0 - used / alpha_bar, 0.0))
    t = max(
        int(np.log2(op.shape[0] // 2**n)) for op in branch_ops if op is not None
    )
    if workspace is not None:
        if workspace < t:
            raise ShapeError("workspace narrower than the widest branch")
        t = workspace
    w = _prep_select_prep(amps, branch_ops, branch_phases, n, workspace=t)
    target = FockOperator(
        generator_dense(pool, mask_indices).matrix / alpha_bar, n, tag="A/alpha_bar"
    )
    sector = pool.n_elec if pool.n_elec is not None else pool.n_occ
    err = restricted_block_error(w, target, width + t, sector=sector)
    return w, BlockEncodingReport(
        alpha=alpha_bar,
        ancillas=width + t,
        measured_error=err,
        sector=f"N={sector}",
    )
