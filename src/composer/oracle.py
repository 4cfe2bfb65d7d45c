"""Jordan-Wigner oracle for block-encoding verification.

Every gadget is an operator tree whose leaves are dense system-gate
runs (built by the :mod:`circuit_ir` interpreter with the :mod:`ladders`
kernel) and cached sparse workspace gadgets.  It has two evaluations:
``apply`` runs it on dense state columns, so block consumers read the
``2**n x 2**n`` ancilla-zero block from the ``2**n`` columns
``|0_anc>|x>``; ``tocsr`` assembles the sparse (CSR) unitary, which only
``composer verify`` needs, for its unitarity check.  The block is checked
against the dense operator it is supposed to encode, a plain
``2**n x 2**n`` array built independently from Jordan-Wigner ladder
operators and restricted to the working sector.

The trees are built only by the :mod:`circuit_ir` interpreter, from a
skeleton's layer lines and a dial sheet; this module holds their nodes
and the cached angle-free leaves the lines map onto (flag copy, vacuum
reflection, null flip, squaring, PREP-SELECT-PREP).  Each pool encoder
(and :func:`channel_block_encoding`, for one channel) compiles a
skeleton for its one pool, dials it, runs the dial sheet on the
ancilla-zero columns (:func:`circuit_ir.execute_block`) and returns that
block with its error against the dense target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import circuit_ir, jw, ladders
from .errors import (
    CapacityError,
    MaskError,
    ShapeError,
    ValidationError,
)
from .factorization import ChannelLadder, HamiltonianPool

REPORT_FORMAT = "composer-report-v1"

# widest register (selector + workspace + system) an encoding is assembled on
MAX_ASSEMBLY_QUBITS = 13

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class BlockEncodingReport:
    """Normalization, ancilla count, and measured restricted-block error."""

    alpha: float
    ancillas: int
    measured_error: float
    sector: str


# ---------------------------------------------------------------------------
# dense reference operators
# ---------------------------------------------------------------------------


def dense_hamiltonian(ints, include_e_nn=True):
    """Dense second-quantized Hamiltonian built directly from the integrals."""
    n = ints.n_so
    cr, an = jw.jw_ladder_ops(n)  # checks n against jw.MAX_QUBITS
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
    return mat


def hamiltonian_from_pool(pool):
    """Dense rebuild of ``sum_s Omega_s L_s`` from the rank-one pool.

    Excludes the constant shift; compare against
    ``dense_hamiltonian(..., include_e_nn=False)``.
    """
    n = pool.n_so
    jw.check_n(n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for lad in pool.one_body:
        w = lad.vectors
        out += lad.coefficient * _bilinear_sum(w @ w.conj().T, n)
    for lad in pool.channels:
        o_mu = channel_operator(lad.channel, n)
        out += lad.coefficient * (o_mu @ o_mu)
    return out


@lru_cache(maxsize=None)
def _bilinear_pattern(n):
    """Sparse ``4**n x n**2`` map: column ``p * n + q`` is ``a_p^dag a_q`` flattened.

    Built from :func:`jw.jw_ladder_ops`, never from the gate maps of
    :mod:`ladders`, so the reference stays independent of what it checks.
    """
    cr, an = jw.jw_ladder_ops(n)
    ops = [(cr[p] @ an[q]).reshape(4**n, 1) for p in range(n) for q in range(n)]
    return _frozen(sparse.hstack(ops, format="csr"))


def _bilinear_sum(coef, n):
    """Dense ``sum_pq coef[p, q] a_p^dag a_q``, scattered by the cached map."""
    return (_bilinear_pattern(n) @ np.ravel(coef)).reshape(2**n, 2**n)


def dense_bilinear(u, v, n):
    """Dense ``a^dag(u) a(v) = sum_pq u_p conj(v_q) a_p^dag a_q``."""
    return _bilinear_sum(np.outer(u, np.conj(v)), n)


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
    jw.check_n(n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    selected = (
        pool.ladders
        if mask_indices is None
        else [lad for lad in pool.ladders if lad.address in set(mask_indices)]
    )
    for lad in selected:
        lmat = dense_generator_ladder(lad, pool.n_occ, n)
        out += lad.coefficient * 1j * (lmat - lmat.conj().T)
    return out


# ---------------------------------------------------------------------------
# block extraction and error measurement
# ---------------------------------------------------------------------------


def extract_block(w, n):
    """Dense top-left ``<0_anc| W |0_anc>`` block of a sparse unitary.

    The unitary has leading ancillas; only the ``2**n x 2**n`` block is
    made dense.
    """
    dim = 2**n
    if w.shape[0] % dim != 0:
        raise ShapeError("unitary dimension is not a multiple of the system size")
    return sparse.csr_matrix(w)[:dim, :dim].toarray()


def restricted_block_error(w, target, ancilla_count, sector=None):
    """Spectral norm of the encoded-block deviation on the working subspace.

    Extracts the all-ancilla-zero block of ``w`` (a block itself when
    ``ancilla_count`` is 0), subtracts the (already scaled) ``2**n x 2**n``
    target array, sandwiches with the particle-number-sector projector
    (when a sector is given) and returns the 2-norm.
    """
    n = int(np.log2(max(len(target), 1)))
    if target.shape != (2**n, 2**n):
        raise ShapeError(f"target shape {target.shape} is not 2**n x 2**n")
    if w.shape[0] != 2 ** (ancilla_count + n):
        raise ShapeError(
            f"unitary dimension {w.shape[0]} != 2**(t + n) with t={ancilla_count}"
        )
    return _sector_norm(extract_block(w, n) - target, sector)


def _sector_norm(delta, sector=None):
    """Spectral norm of ``delta`` restricted to the particle-number ``sector``.

    With no sector, the norm of the whole block.  The ``sector x sector``
    submatrix is normed, which equals the norm of ``P delta P``.
    """
    if sector is not None:
        idx = jw.sector_indices(int(np.log2(delta.shape[0])), sector)
        delta = delta[np.ix_(idx, idx)]
    return float(np.linalg.norm(delta, 2))


def assert_sector_preserving(block, n):
    """Check the block is block-diagonal over Hamming-weight sectors (to 1e-11)."""
    weights = jw.hamming_weights(n)
    off = block[weights[:, None] != weights[None, :]]
    return float(np.abs(off).max(initial=0.0)) <= 1e-11


# ---------------------------------------------------------------------------
# gadget constructions
# ---------------------------------------------------------------------------


def _frozen(mat):
    """Make a cached sparse leaf read-only, so no caller can alter the cache."""
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def _apply(op, cols, adjoint=False):
    """``op @ cols`` (or ``op^dag @ cols``) for a dense or sparse leaf or a node."""
    if isinstance(op, _Node):
        return op.apply(cols, adjoint)
    return (op.conj().T if adjoint else op) @ cols


def _csr(op):
    """CSR matrix of a dense or sparse leaf or a node."""
    if isinstance(op, _Node):
        return op.tocsr()
    return op if sparse.issparse(op) else sparse.csr_matrix(op)


class _Node:
    """Gadget node: ``apply`` acts on dense columns, ``tocsr`` assembles once."""

    _assembled = None

    def tocsr(self):
        if self._assembled is None:
            self._assembled = self._assemble()
        return self._assembled


class _Lift(_Node):
    """``phase * (I (x) op)``, ``extra`` idle most-significant ancillas: a reshape."""

    def __init__(self, op, extra, phase=None):
        self.op, self.extra, self.phase = op, extra, phase
        self.shape = (2**extra * op.shape[0],) * 2

    def _assemble(self):
        lifted = _lift(_csr(self.op), self.extra)
        return lifted if self.phase is None else self.phase * lifted

    def apply(self, cols, adjoint=False):
        dim, k = self.op.shape[0], cols.shape[1]
        slabs = cols.reshape(-1, dim, k).transpose(1, 0, 2).reshape(dim, -1)
        out = _apply(self.op, slabs, adjoint).reshape(dim, -1, k)
        if self.phase is not None:
            out = out * (np.conj(self.phase) if adjoint else self.phase)
        return out.transpose(1, 0, 2).reshape(-1, k)


class _Product(_Node):
    """``factors[0] @ factors[1] @ ...``, assembled left to right."""

    def __init__(self, *factors):
        self.factors, self.shape = factors, factors[0].shape

    def _assemble(self):
        out = _csr(self.factors[0])
        for factor in self.factors[1:]:
            out = out @ _csr(factor)
        return out

    def apply(self, cols, adjoint=False):
        for factor in self.factors if adjoint else self.factors[::-1]:
            cols = _apply(factor, cols, adjoint)
        return cols


class _Adjoint(_Node):
    """``op^dag``, assembled as the conjugate transpose of ``op``'s matrix."""

    def __init__(self, op):
        self.op, self.shape = op, op.shape

    def _assemble(self):
        return _csr(self.op).conj().T

    def apply(self, cols, adjoint=False):
        return _apply(self.op, cols, not adjoint)


class _PrepSelectPrep(_Node):
    """``(P^T (x) I) W_sel (P (x) I)``; applied, branch ``s`` acts on slab ``s``."""

    def __init__(self, prep, branches, qubits):
        self.prep, self.branches, self.qubits = prep, branches, qubits
        self.shape = (2**qubits,) * 2

    def _assemble(self):
        check_assembly_width(self.qubits)
        eye = sparse.identity(self.shape[0] // len(self.prep), format="csr")
        blocks = [eye if b is None else b.tocsr() for b in self.branches]
        select = sparse.block_diag(blocks, format="csr")
        return (
            sparse.kron(self.prep.T, eye, format="csr")
            @ select
            @ sparse.kron(self.prep, eye, format="csr")
        )

    def apply(self, cols, adjoint=False):
        n_states, k = len(self.prep), cols.shape[1]
        slabs = (self.prep @ cols.reshape(n_states, -1)).reshape(n_states, -1, k)
        for s, branch in enumerate(self.branches):
            if branch is not None:
                slabs[s] = branch.apply(slabs[s], adjoint)
        return (self.prep.T @ slabs.reshape(n_states, -1)).reshape(-1, k)


def column_block(op, n):
    """Dense ``<0_anc| W |0_anc>`` of a leaf or node, run on columns ``|0_anc>|x>``."""
    cols = np.zeros((op.shape[0], 2**n), dtype=complex)
    cols[: 2**n] = np.eye(2**n)
    return _apply(op, cols)[: 2**n]


def check_column_batch(ancillas, n, name):
    """Reject ``2**(t + n) x 2**n`` columns larger than the largest dense operator."""
    needed, allowed = 2 ** (ancillas + 2 * n), 4**jw.MAX_QUBITS
    if needed > allowed:
        raise ShapeError(
            f"the {name} column batch needs {needed} amplitudes "
            f"(2**{ancillas + n} rows x 2**{n} columns); the oracle allows {allowed}"
        )


@lru_cache(maxsize=None)
def vacuum_reflection_gadget(n):
    """Single-ancilla deterministic encoding of the vacuum projector.

    ``(H (x) I) (|0><0| (x) I + |1><1| (x) (-R0)) (H (x) I)`` with
    ``R0 = I - 2|0^n><0^n|``; the ancilla-zero block is exactly
    ``|0^n><0^n|``.  Cached per ``n`` and read-only.
    """
    dim = 2**n
    r0 = np.ones(dim)
    r0[0] = -1.0
    mid = np.concatenate([np.ones(dim), -r0])
    had = sparse.kron(_H2, sparse.identity(dim), format="csr")
    return _frozen(had @ sparse.diags(mid) @ had)


def _lift(op, extra):
    """Pad ``extra`` trivially-acting ancillas as most-significant qubits."""
    if extra == 0:
        return sparse.csr_matrix(op)
    return sparse.kron(sparse.identity(2**extra), op, format="csr")


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


def check_assembly_width(qubits):
    """Reject an encoding wider than :data:`MAX_ASSEMBLY_QUBITS`."""
    if qubits > MAX_ASSEMBLY_QUBITS:
        raise ShapeError(
            f"assembly needs {qubits} qubits; the oracle caps at {MAX_ASSEMBLY_QUBITS}"
        )


def _prep_select_prep(amplitudes, branch_ops, branch_phases, n, workspace):
    """``(PREP^T (x) I) W_sel (PREP (x) I)`` as a gadget node.

    ``branch_ops[s]`` (sparse or a node) times ``branch_phases[s]`` acts
    for selector value ``s`` on its own workspace + system register, padded
    with most-significant identity ancillas to the shared ``workspace``
    width; other values act as the identity.  ``PREP`` is the real
    Householder reflection, so unloaded addresses add no fill.
    """
    n_states = len(amplitudes)
    if n_states & (n_states - 1):
        raise ShapeError("amplitude vector length must be a power of two")
    if len(branch_ops) > n_states:
        raise CapacityError(
            f"{len(branch_ops)} branches exceed selector capacity {n_states}"
        )
    branches = [None] * n_states
    for s, (op, phase) in enumerate(zip(branch_ops, branch_phases)):
        width = int(np.log2(op.shape[0] >> n))
        if width > workspace:
            raise ShapeError("branch workspace exceeds the shared width")
        branches[s] = _Lift(op, workspace - width, phase)
    prep = _householder_prep(amplitudes)
    return _PrepSelectPrep(prep, branches, int(np.log2(n_states)) + workspace + n)


def index_width(r):
    """Qubits of a binary index register over ``r`` branches."""
    return int(np.ceil(np.log2(r))) if r > 1 else 0


@lru_cache(maxsize=None)
def null_branch(n):
    """Reserved null branch ``X (x) I``: a workspace flip (cached, read-only)."""
    return _frozen(jw.permutation(jw.bit_flip(1 + n, 0)))


def signed_loading(eigvals):
    """PREP data of a signed spectrum ``sum_k lambda_k P_k``.

    Returns ``(amplitudes, signs, gamma)``: ``sqrt(|lambda_k| / Gamma)``,
    the eigenvalue signs as ``+-1`` and ``Gamma = sum |lambda_k|``.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    gamma = np.abs(eigvals).sum()
    return np.sqrt(np.abs(eigvals) / gamma), np.where(eigvals >= 0, 1.0, -1.0), gamma


@lru_cache(maxsize=None)
def _flag_copy(pivot, n):
    """Flag-copy core ``X_f CNOT_(pivot -> f)`` (cached, read-only).

    The two flips of the flag commute, so their index maps compose in
    either order.
    """
    total = 1 + n
    flip = jw.bit_flip(total, 0)[jw.bit_flip(total, 0, 1 + pivot)]
    return _frozen(jw.permutation(flip))


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
    exactly.  A two-state PREP-SELECT-PREP with ``PREP = H`` over the
    branches ``[W R0 W, I]``; ``w`` is a sparse matrix or a gadget node.
    """
    double = _Product(w, sparse.diags(reflect_about_ancilla_vacuum(t, n)), w)
    return _PrepSelectPrep(_H2, [double, None], t + 1 + n)


def channel_block_encoding(ch, n):
    """Squared channel adaptor, run on the fabric of a one-channel pool.

    Compiles and dials that pool, runs ``ham/0`` on its ancilla-zero
    columns and returns the block with its error against
    ``O_mu^2 / Gamma_mu^2`` on every particle sector.
    """
    if ch.eigvals is None:
        raise ValidationError("channel must be eigendecomposed first")
    if ch.rank == 0:
        raise ValidationError("channel has no retained eigenmodes")
    # the channel block is exact on every sector, so n_elec is never read
    pool = HamiltonianPool((), (ChannelLadder(ch, 1.0, 0),), n_so=n, n_elec=0)
    skel = circuit_ir.one_pool_skeleton(pool, None)
    sheet = circuit_ir.dial(skel, pool, None, ())
    block = circuit_ir.execute_block(skel, sheet, "ham/0")
    o_mu = channel_operator(ch, n)
    target = o_mu @ o_mu / ch.gamma**2
    return block, _report(skel, "ham/0", block, target, ch.gamma**2, None)


def channel_operator(ch, n):
    """Dense ``O_mu = sum_xi lambda_xi n_(mu xi)``, scattered once."""
    w = ch.rotation
    return _bilinear_sum((w * ch.eigvals) @ w.conj().T, n)


def _report(skel, address, block, target, alpha, sector):
    """Report of the block run at ``address``, measured against its dense target."""
    return BlockEncodingReport(
        alpha=alpha,
        ancillas=circuit_ir.ancillas(skel, address),
        measured_error=restricted_block_error(block, target, 0, sector=sector),
        sector="all" if sector is None else f"N={sector}",
    )


def hamiltonian_block_encoding(pool):
    """Block of the pool Hamiltonian's multiplexed encoding (no constant shift).

    Compiles a Hamiltonian-only skeleton, dials it, runs it on its
    ancilla-zero columns and measures the block against the dense pool
    rebuild on the working sector; returns ``(block, report)``.
    """
    skel = circuit_ir.one_pool_skeleton(pool, None)
    sheet = circuit_ir.dial(skel, pool, None, ())
    block = circuit_ir.execute_block(skel, sheet, "ham")
    target = hamiltonian_from_pool(pool) / pool.alpha
    return block, _report(skel, "ham", block, target, pool.alpha, pool.n_elec)


def generator_block_encoding(pool, mask_indices):
    """Block of the masked generator encoding with the global-normalization null branch.

    The block equals ``sum_(s in mask) omega_s i(L_s - L_s^dag) / alpha_bar``
    with ``alpha_bar`` fixed by the full compiled pool (never by the mask);
    surplus PREP amplitude is routed to the reserved address-0 null branch,
    whose workspace flip keeps it invisible to the ancilla-vacuum block.
    A generator-only skeleton is compiled, dialed (which checks the mask
    and the masked-weight budget) and run on its ancilla-zero columns;
    returns ``(block, report)``.
    """
    mask_indices = frozenset(mask_indices)
    if pool.ell == 0 and mask_indices:
        raise MaskError("nonzero mask over an empty generator pool")
    skel = circuit_ir.one_pool_skeleton(None, pool)
    sheet = circuit_ir.dial(skel, None, pool, mask_indices)
    block = circuit_ir.execute_block(skel, sheet, "gen")
    target = generator_dense(pool, mask_indices) / pool.alpha_bar
    return block, _report(skel, "gen", block, target, pool.alpha_bar, pool.sector)
