"""Jordan-Wigner oracle for block-encoding verification.

Every gadget is an operator tree whose leaves are dense system-gate
runs (built by the :mod:`circuit_ir` interpreter with the :mod:`ladders`
kernel) and cached sparse workspace gadgets.  It has two evaluations:
``apply`` runs it on dense state columns, so block consumers read the
ancilla-zero block from a particle-number sector's columns ``|0_anc>|x>``;
``tocsr`` assembles the sparse (CSR) unitary,
which only ``composer verify`` needs, for its unitarity check.  Assembly
builds each node's CSR arrays by index arithmetic: a lift repeats its
operand's arrays along the diagonal, SELECT joins its branches' arrays,
and each PREP ``P (x) I`` is spread from the nonzeros of the small
``P``; only the products between them are sparse matrix products.  The block is checked
against the dense operator it is supposed to encode, a plain
``2**n x 2**n`` array restricted to the working sector.  Every such
reference is scattered by one of two cached, read-only maps: the one-body
map (``a_p^dag a_q``) and the two-body map over pairs (``a_p^dag a_q^dag
a_s a_r``, ``p < q``, ``r < s``).  Both are built from
:func:`jw.jw_ladder_ops` products, never from the :mod:`ladders` gate
maps, so the references stay independent of the execution they check.

The trees are built only by the :mod:`circuit_ir` interpreter, from a
skeleton's layer lines and a dial sheet; this module holds their nodes
and the cached angle-free leaves the lines map onto (flag copy, vacuum
reflection, null flip, squaring, PREP-SELECT-PREP).  Each pool encoder
compiles a skeleton for its one pool, dials it, runs the dial sheet one
adaptor at a time on its working sector's ancilla-zero columns
(:func:`circuit_ir.execute_block`) and returns that sector block with its
error against the dense target's; :func:`channel_block_encoding` runs every sector.
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
# largest amplitude a block may hold between different particle-number sectors
SECTOR_TOL = 1e-11
# rows of the Gram product W^dag W that unitarity_residual holds at a time
_GRAM_ROWS = 1024

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


def _scatter_map(ops, n):
    """Read-only CSC ``4**n x len(ops)`` map: column ``k`` is ``ops[k]`` flattened."""
    ops = [op.tocoo() for op in ops]
    rows = np.concatenate([op.row * 2**n + op.col for op in ops])
    cols = np.repeat(np.arange(len(ops)), [op.nnz for op in ops])
    data = np.concatenate([op.data for op in ops])
    return _frozen(sparse.csc_matrix((data, (rows, cols)), shape=(4**n, len(ops))))


@lru_cache(maxsize=None)
def _one_body_map(n):
    """One-body scatter map: column ``p * n + q`` is ``a_p^dag a_q``, flattened."""
    cr, an = jw.jw_ladder_ops(n)
    return _scatter_map([cr[p] @ an[q] for p in range(n) for q in range(n)], n)


@lru_cache(maxsize=None)
def _two_body_map(n):
    """Two-body scatter map: column ``k * P + l`` is ``a_p^dag a_q^dag a_s a_r``.

    ``(p < q)`` and ``(r < s)`` are the ``k``-th and ``l``-th of the ``P``
    lexicographic pairs of :func:`ladders.pair_indices`.
    """
    cr, an = jw.jw_ladder_ops(n)
    pairs = ladders.pair_indices(n)
    left = [cr[p] @ cr[q] for p, q in pairs]
    right = [an[s] @ an[r] for r, s in pairs]
    return _scatter_map([a @ b for a in left for b in right], n)


def one_body_operator(h, n):
    """Dense ``sum_pq h[p, q] a_p^dag a_q``."""
    return (_one_body_map(n) @ np.ravel(h)).reshape(2**n, 2**n)


def two_body_operator(g, n):
    """Dense ``sum_kl g[k, l] a_p^dag a_q^dag a_s a_r`` over the pair columns."""
    return (_two_body_map(n) @ np.ravel(g)).reshape(2**n, 2**n)


def one_body_expectations(psi, n):
    """``<psi| a_p^dag a_q |psi>`` for every ``p, q``: the one-body map, contracted."""
    return (_one_body_map(n).T @ np.kron(psi.conj(), psi)).reshape(n, n)


def dense_hamiltonian(ints, include_e_nn=True):
    """Dense second-quantized Hamiltonian built directly from the integrals."""
    n = ints.n_so
    # the sum over all p, q, r, s, gathered onto the pairs p < q, r < s
    anti = ints.eri - ints.eri.transpose(1, 0, 2, 3)
    anti = anti - anti.transpose(0, 1, 3, 2)
    p, q = np.triu_indices(n, 1)  # the pairs of ladders.pair_indices, in order
    g = 0.5 * anti[p[:, None], q[:, None], p, q]
    mat = one_body_operator(ints.h, n) + two_body_operator(g, n)
    if include_e_nn:
        mat = mat + ints.e_nn * np.eye(2**n)
    return mat.astype(complex)


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
        out += lad.coefficient * one_body_operator(w @ w.conj().T, n)
    for lad in pool.channels:
        o_mu = channel_operator(lad.channel, n)
        out += lad.coefficient * (o_mu @ o_mu)
    return out


def dense_bilinear(u, v, n):
    """Dense ``a^dag(u) a(v) = sum_pq u_p conj(v_q) a_p^dag a_q``."""
    return one_body_operator(np.outer(u, np.conj(v)), n)


def dense_pair_ladder(uv, vo, n_occ, n):
    """Dense pair-excitation ladder ``B^dag[U] B[V]`` on the full register.

    ``uv`` is the virtual pair vector ``U``, ``vo`` the occupied one ``V``;
    the virtual wedge indices are offset by the occupied count, and the
    occupied wedge sits on the lowest modes.
    """
    column = {pair: k for k, pair in enumerate(ladders.pair_indices(n))}
    rows = [column[n_occ + a, n_occ + b] for a, b in ladders.pair_indices(n - n_occ)]
    cols = [column[pair] for pair in ladders.pair_indices(n_occ)]
    g = np.zeros((len(column),) * 2, dtype=complex)
    g[np.ix_(rows, cols)] = np.outer(uv, vo.conj())
    return two_body_operator(g, n)


def dense_generator_ladder(pool, k):
    """Dense ``L_s`` of the generator pool's ``k``-th branch, in address order."""
    index = int(pool.branches.index[k])
    if pool.branches.pair[k]:
        return dense_pair_ladder(*pool.pairs.vectors(index), pool.n_occ, pool.n_so)
    lad = pool.bilinears[index]
    return dense_bilinear(lad.u, lad.v, pool.n_so)


def generator_dense(pool, mask_indices=None):
    """Dense Hermitian masked generator ``sum_s omega_s i(L_s - L_s^dag)``.

    The branches are added in address order.  The anti-Hermitian generator
    itself is ``-i`` times the returned matrix.
    """
    n = pool.n_so
    jw.check_n(n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    branches = pool.branches
    for k, (address, coefficient) in enumerate(
            zip(branches.address.tolist(), branches.coefficient.tolist())):
        if mask_indices is None or address in mask_indices:
            lmat = dense_generator_ladder(pool, k)
            out += coefficient * 1j * (lmat - lmat.conj().T)
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
    delta = extract_block(w, n) - target
    return sector_norm(delta if sector is None else _on_sector(delta, sector))


def sector_norm(delta):
    """Spectral norm of a block deviation ``delta``, on a sector when ``delta``
    is its ``C(n, N)``-square block (which equals the norm of ``P delta P``).

    The largest singular value, as ``np.linalg.norm(delta, 2)`` computes it
    (the same bits) without its axis handling; 0.0 for an empty block.
    """
    return float(np.linalg.svd(delta, compute_uv=False).max(initial=0.0))


def _on_sector(mat, sector):
    """The ``C(n, N)``-square block of a ``2**n``-square ``mat`` on sector ``N``,
    indexed like ``jw.sector_indices(n, N)``."""
    idx = jw.sector_indices(int(np.log2(mat.shape[0])), sector)
    return mat[np.ix_(idx, idx)]


def unitarity_residual(w):
    """``max |W^dag W - I|`` over every entry, read from the Gram product's rows.

    ``W^dag`` is formed as CSR once (each row's indices ascending) and
    multiplied by ``W`` :data:`_GRAM_ROWS` rows at a time, so the whole
    product is never held.  A product row holds no duplicate entry, so
    each block's off-diagonal entries count as they are, its diagonal
    entries against 1, and a row without its diagonal entry counts 1.
    Row ``j`` of the product depends only on row ``j`` of ``W^dag``, so
    for a ``W`` without duplicate entries every entry is summed in the
    order, and has the bits, of ``W.conj().T @ W``.  A NaN entry makes
    the residual NaN.
    """
    w = w.tocsr()
    w_dag = _adjoint_csr(w)
    dim = w_dag.shape[0]
    worst = 0.0
    for start in range(0, dim, _GRAM_ROWS):
        stop = min(start + _GRAM_ROWS, dim)
        lo, hi = w_dag.indptr[start], w_dag.indptr[stop]
        rows = sparse.csr_matrix(  # views of W^dag's rows start..stop
            (w_dag.data[lo:hi], w_dag.indices[lo:hi], w_dag.indptr[start:stop + 1] - lo),
            shape=(stop - start, w_dag.shape[1]),
        )
        gram = rows @ w
        row_of = np.repeat(np.arange(start, stop), np.diff(gram.indptr))
        diagonal = gram.indices == row_of
        dev = np.abs(gram.data)
        dev[diagonal] = np.abs(gram.data[diagonal] - 1.0)
        if np.count_nonzero(diagonal) < gram.shape[0]:
            dev = np.append(dev, 1.0)  # a missing diagonal entry: |0 - 1|
        worst = np.maximum(worst, dev.max(initial=0.0))
    return float(worst)


def assert_sector_preserving(block, n):
    """Check the block is block-diagonal over Hamming-weight sectors (to SECTOR_TOL)."""
    weights = jw.hamming_weights(n)
    off = block[weights[:, None] != weights[None, :]]
    return float(np.abs(off).max(initial=0.0)) <= SECTOR_TOL


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
    """CSR matrix of a dense or sparse leaf or a node; a dense leaf drops its zeros."""
    if isinstance(op, _Node):
        return op.tocsr()
    if sparse.issparse(op):
        return op
    return sparse.csr_matrix(_rows(op), shape=op.shape)


def _rows(op):
    """``(data, indices, indptr)`` of ``op``'s CSR form, each row's indices ascending.

    A dense leaf's are read from its nonzeros (zeros dropped), and a
    node's are its own (:meth:`_Node.rows`); a sparse leaf's are a sorted
    copy of its arrays if they are not sorted already.
    """
    if isinstance(op, _Node):
        return op.rows()
    if isinstance(op, np.ndarray):
        kept = op != 0
        indptr = np.append(np.int32(0), np.cumsum(kept.sum(axis=1), dtype=np.int32))
        return op[kept], np.nonzero(kept)[1].astype(np.int32), indptr
    op = op.tocsr()
    if not op.has_sorted_indices:
        op = op.sorted_indices()
    return op.data, op.indices, op.indptr


class _Node:
    """Gadget node: ``apply`` acts on dense columns, ``tocsr`` assembles once."""

    _assembled = None

    def tocsr(self):
        if self._assembled is None:
            self._assembled = self._assemble()
        return self._assembled

    def rows(self):
        """Row-sorted CSR arrays (:func:`_rows`) of the assembled matrix."""
        return _rows(self.tocsr())


class _Lift(_Node):
    """``phase * (I (x) op)``, ``extra`` idle most-significant ancillas.

    Applied, a dense leaf multiplies the ``2**extra`` slabs as one stack
    (no transposed copy, so a column run holds fewer slabs); any other
    operand runs on them side by side, through a transposed copy.
    Assembled, ``2**extra`` copies of ``op``'s arrays; a SELECT joins
    those arrays without building the lifted matrix.
    """

    def __init__(self, op, extra, phase=None):
        self.op, self.extra, self.phase = op, extra, phase
        self.shape = (2**extra * op.shape[0],) * 2

    def rows(self):
        return _lift(_rows(self.op), self.op.shape[0], self.extra, self.phase)

    def _assemble(self):
        return sparse.csr_matrix(self.rows(), shape=self.shape)

    def apply(self, cols, adjoint=False):
        dim, k = self.op.shape[0], cols.shape[1]
        if isinstance(self.op, np.ndarray):
            out = _apply(self.op, cols.reshape(-1, dim, k), adjoint)
        else:
            slabs = cols.reshape(-1, dim, k).transpose(1, 0, 2).reshape(dim, -1)
            out = _apply(self.op, slabs, adjoint).reshape(dim, -1, k).transpose(1, 0, 2)
        if self.phase is not None:
            out = out * (np.conj(self.phase) if adjoint else self.phase)
        return out.reshape(-1, k)


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
        return _adjoint_csr(_csr(self.op))

    def apply(self, cols, adjoint=False):
        return _apply(self.op, cols, not adjoint)


class _PrepSelectPrep(_Node):
    """``(P^T (x) I) W_sel (P (x) I)``; applied, branch ``s`` acts on slab ``s``."""

    def __init__(self, prep, branches, qubits):
        self.prep, self.branches, self.qubits = prep, branches, qubits
        self.shape = (2**qubits,) * 2

    def _assemble(self):
        check_assembly_width(self.qubits)
        dim = self.shape[0] // len(self.prep)
        select = _direct_sum([_identity(dim) if b is None else b for b in self.branches])
        return _kron_eye(self.prep.T, dim) @ select @ _kron_eye(self.prep, dim)

    def apply(self, cols, adjoint=False):
        n_states, k = len(self.prep), cols.shape[1]
        slabs = (self.prep @ cols.reshape(n_states, -1)).reshape(n_states, -1, k)
        for s, branch in enumerate(self.branches):
            if branch is not None:
                slabs[s] = branch.apply(slabs[s], adjoint)
        return (self.prep.T @ slabs.reshape(n_states, -1)).reshape(-1, k)


def column_block(op, n, columns):
    """Ancilla-zero rows of a leaf or node, run on the columns ``|0_anc>|x>``.

    ``x`` runs over ``columns`` (system basis indices), so the result is
    ``2**n x len(columns)``: the listed columns of the dense block
    ``<0_anc| W |0_anc>``.
    """
    cols = np.zeros((op.shape[0], len(columns)), dtype=complex)
    cols[columns, np.arange(len(columns))] = 1.0
    return _apply(op, cols)[: 2**n].copy()  # a copy, so the rows above are freed


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
    had = _kron_eye(_H2, dim)
    return _frozen(had @ sparse.diags(mid) @ had)


def _adjoint_csr(op):
    """CSR ``op^dag``: fresh arrays of the transpose, conjugated in place."""
    out = op.T.tocsr(copy=True)
    np.conjugate(out.data, out=out.data)
    return out


def _lift(rows, dim, extra, phase):
    """Row-sorted CSR arrays of ``phase * (I (x) op)`` from ``op``'s :func:`_rows`.

    ``op`` is ``dim``-square, under ``extra`` idle most-significant
    ancillas.  The ``2**extra`` diagonal blocks are copies of ``op``'s
    arrays, stored zeros kept (as ``sparse.kron`` leaves them), with their
    row and column offsets added; the phase scales ``op``'s values once,
    before they are copied.
    """
    data, indices, indptr = rows
    copies, nnz = 2**extra, len(data)
    block = np.arange(copies, dtype=indices.dtype)[:, None]
    if phase is not None:
        data = data * phase
    indptr = np.append(indptr[:1], indptr[1:] + block * nnz)
    return np.tile(data, copies), (indices + block * dim).ravel(), indptr


@lru_cache(maxsize=None)
def _identity(dim):
    """CSR ``I_dim`` (cached, read-only): the idle branch of a SELECT."""
    return _frozen(sparse.identity(dim, format="csr"))


def _direct_sum(blocks):
    """CSR ``block_diag`` of square blocks: their :func:`_rows`, offset, joined."""
    parts = [_rows(b) for b in blocks]
    indptr, indices, dim, nnz = [parts[0][2][:1]], [], 0, 0
    for b, (data, idx, ptr) in zip(blocks, parts):
        indptr.append(ptr[1:] + nnz)
        indices.append(idx + dim)
        dim, nnz = dim + b.shape[0], nnz + len(data)
    data = np.concatenate([data for data, _, _ in parts])
    indices, indptr = np.concatenate(indices), np.concatenate(indptr)
    return sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _kron_eye(p, dim):
    """CSR ``p (x) I_dim`` of a small dense ``p``, zeros dropped (as ``sparse.kron``).

    Row ``(r, d)`` holds each nonzero ``p[r, c]`` at column ``(c, d)``, in
    ascending ``c``: row ``r`` of ``p``, spread over ``dim`` rows.
    """
    kept = p != 0
    counts = kept.sum(axis=1, dtype=np.int32)
    d = np.arange(dim, dtype=np.int32)
    cols = np.arange(0, dim * p.shape[1], dim, dtype=np.int32)
    indices = np.concatenate([(cols[row] + d[:, None]).ravel() for row in kept])
    data = np.concatenate([np.tile(vals[row], dim) for vals, row in zip(p, kept)])
    starts = dim * (np.cumsum(counts, dtype=np.int32) - counts)
    indptr = np.append(np.int32(0), starts[:, None] + counts[:, None] * (d + 1))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(p) * dim,) * 2)


def check_prep(amplitudes):
    """The PREP amplitudes as floats, checked nonnegative with unit norm."""
    amp = np.asarray(amplitudes, dtype=float)
    if np.any(amp < -1e-14):
        raise ValidationError("prep amplitudes must be nonnegative")
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"prep amplitude norm {norm!r} != 1")
    return amp


def _householder_prep(amplitudes):
    """Real orthogonal involution with the amplitude vector as first column."""
    amp = check_prep(amplitudes)
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
    check_capacity(len(branch_ops), n_states)
    branches = [None] * n_states
    for s, (op, phase) in enumerate(zip(branch_ops, branch_phases)):
        extra = workspace - branch_width(op, n, workspace)
        branches[s] = _Lift(op, extra, phase)
    prep = _householder_prep(amplitudes)
    return _PrepSelectPrep(prep, branches, int(np.log2(n_states)) + workspace + n)


def check_capacity(n_branches, n_states):
    """Reject more branches than a selector of ``n_states`` values labels."""
    if n_branches > n_states:
        raise CapacityError(
            f"{n_branches} branches exceed selector capacity {n_states}"
        )


def branch_width(op, n, workspace):
    """Workspace qubits of a branch on ``n`` system qubits, at most ``workspace``."""
    width = int(np.log2(op.shape[0] >> n))
    if width > workspace:
        raise ShapeError("branch workspace exceeds the shared width")
    return width


def index_width(r):
    """Qubits of a binary index register over ``r`` branches."""
    return (r - 1).bit_length() if r > 1 else 0  # ceil(log2 r), exact for any int


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


@lru_cache(maxsize=None)
def _vacuum_reflection(t, n):
    """:func:`reflect_about_ancilla_vacuum` as a sparse leaf (cached, read-only)."""
    return _frozen(sparse.diags(reflect_about_ancilla_vacuum(t, n), format="csr"))


def squared_block_gadget(w, t, n):
    """Signal-qubit gadget whose block is the square of ``<0_t|W|0_t>``.

    Averages ``W R0 W`` (one reflection-conjugated double application)
    with the identity on a Hadamard-conjugated signal qubit; for an
    involution ``W`` with Hermitian block ``A`` the result encodes ``A^2``
    exactly.  A two-state PREP-SELECT-PREP with ``PREP = H`` over the
    branches ``[W R0 W, I]``; ``w`` is a sparse matrix or a gadget node.
    """
    double = _Product(w, _vacuum_reflection(t, n), w)
    return _PrepSelectPrep(_H2, [double, None], t + 1 + n)


def channel_block_encoding(ch, n):
    """Squared channel adaptor, run on the fabric of a one-channel pool.

    Compiles and dials that pool and runs ``ham/0`` on the ancilla-zero
    columns of every sector ``N = 0..n``, the widest run checked first.
    Returns the ``2**n``-square block, each sector block on its diagonal,
    with its error against ``O_mu^2 / Gamma_mu^2`` on the whole register.
    """
    if ch.eigvals is None:
        raise ValidationError("channel must be eigendecomposed first")
    if ch.rank == 0:
        raise ValidationError("channel has no retained eigenmodes")
    # the channel block is exact on every sector, so n_elec is never read
    pool = HamiltonianPool((), (ChannelLadder(ch, 1.0, 0),), n_so=n, n_elec=0)
    skel = circuit_ir.one_pool_skeleton(pool, None)
    circuit_ir.check_column_batch(skel, "ham/0", n // 2)
    sheet = circuit_ir.dial(skel, pool, None, ())
    block = np.zeros((2**n, 2**n), dtype=complex)
    for sector in range(n + 1):
        idx = jw.sector_indices(n, sector)
        block[np.ix_(idx, idx)] = circuit_ir.execute_block(skel, sheet, "ham/0", sector)
    o_mu = channel_operator(ch, n)
    target = o_mu @ o_mu / ch.gamma**2
    return block, _report(skel, "ham/0", block - target, ch.gamma**2, None)


def channel_operator(ch, n):
    """Dense ``O_mu = sum_xi lambda_xi n_(mu xi)``, scattered once."""
    w = ch.rotation
    return one_body_operator((w * ch.eigvals) @ w.conj().T, n)


def _report(skel, address, delta, alpha, sector):
    """Report of the block run at ``address``, ``delta`` off its target on
    ``sector`` (``None``: every sector)."""
    return BlockEncodingReport(
        alpha=alpha,
        ancillas=circuit_ir.ancillas(skel, address),
        measured_error=sector_norm(delta),
        sector="all" if sector is None else f"N={sector}",
    )


def hamiltonian_block_encoding(pool):
    """Block of the pool Hamiltonian's multiplexed encoding (no constant shift).

    Returns the ``block`` and ``report`` of :func:`_hamiltonian_sector`.
    """
    block, _, report = _hamiltonian_sector(pool)
    return block, report


def _hamiltonian_sector(pool):
    """``(block, target, report)``: the read-only ``C(n, N)``-square encoded
    and dense (pool rebuild over ``alpha``) blocks on ``N = n_elec``, and
    the report of their difference.  The column run is checked before the
    Hamiltonian-only skeleton is dialed and run on the sector columns.
    """
    skel = circuit_ir.one_pool_skeleton(pool, None)
    circuit_ir.check_column_batch(skel, "ham", pool.n_elec)
    sheet = circuit_ir.dial(skel, pool, None, ())
    block = circuit_ir.execute_block(skel, sheet, "ham", pool.n_elec)
    target = _on_sector(hamiltonian_from_pool(pool) / pool.alpha, pool.n_elec)
    for arr in (block, target):
        arr.setflags(write=False)
    return block, target, _report(skel, "ham", block - target, pool.alpha, pool.n_elec)


def generator_block_encoding(pool, mask_indices):
    """Block of the masked generator encoding with the global-normalization null branch.

    The block equals ``sum_(s in mask) omega_s i(L_s - L_s^dag) / alpha_bar``
    with ``alpha_bar`` fixed by the full compiled pool (never by the mask);
    surplus PREP amplitude is routed to the reserved address-0 null branch,
    whose workspace flip keeps it invisible to the ancilla-vacuum block.
    The pool's generator-only skeleton and binding are kept
    (``circuit_ir.generator_binding``); the mask is dialed onto them
    (``dial_prep``, which checks the mask and the masked-weight budget)
    and run on the ancilla-zero columns of the working sector
    ``N = pool.sector``; returns ``(block, report)``.
    """
    mask_indices = frozenset(mask_indices)
    if pool.ell == 0 and mask_indices:
        raise MaskError("nonzero mask over an empty generator pool")
    skel, binding = circuit_ir.generator_binding(pool)
    sheet = circuit_ir.dial_prep(binding, mask_indices)
    block = circuit_ir.execute_block(skel, sheet, "gen", pool.sector)
    target = _on_sector(generator_dense(pool, mask_indices), pool.sector)
    target = target / pool.alpha_bar
    return block, _report(skel, "gen", block - target, pool.alpha_bar, pool.sector)
