"""Dense/sparse Jordan-Wigner primitives for the verification oracle.

Mode ``p`` maps to qubit ``p`` with qubit 0 as the most significant bit of
the computational-basis index, so ``a_p^dag = Z^(p) (x) sigma^+ (x) I`` in
kron order.  Basis state ``|0>`` is unoccupied.
"""

from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import ShapeError

MAX_QUBITS = 12

_SZ = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
_ID2 = sparse.identity(2, format="csr")
# creation operator on one mode: |1><0|
_CR = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))


def check_n(n):
    """Reject a mode count outside ``1..MAX_QUBITS``, the dense operators' range."""
    if not 1 <= n <= MAX_QUBITS:
        raise ShapeError(f"mode count {n} outside supported range 1..{MAX_QUBITS}")


@lru_cache(maxsize=None)
def jw_ladder_ops(n):
    """Creation/annihilation matrices for all ``n`` modes.

    Returns ``(creations, annihilations)``, tuples of sparse CSR matrices of
    dimension ``2**n`` satisfying ``{a_p, a_q^dag} = delta_pq I``.
    """
    check_n(n)
    creations = []
    for p in range(n):
        op = sparse.identity(1, format="csr")
        for q in range(n):
            if q < p:
                op = sparse.kron(op, _SZ, format="csr")
            elif q == p:
                op = sparse.kron(op, _CR, format="csr")
            else:
                op = sparse.kron(op, _ID2, format="csr")
        op.eliminate_zeros()
        creations.append(op)
    annihilations = tuple(sparse.csr_matrix(c.conj().T) for c in creations)
    return tuple(creations), annihilations


@lru_cache(maxsize=None)
def hamming_weights(n):
    """Occupation count of every computational-basis index."""
    check_n(n)
    return np.array([bin(i).count("1") for i in range(2**n)], dtype=np.int64)


def number_operator(n):
    """Total number operator as a sparse diagonal matrix."""
    return sparse.diags(hamming_weights(n).astype(float), format="csr")


def sector_indices(n, n_elec):
    """Basis indices of the fixed-particle-number sector."""
    return np.nonzero(hamming_weights(n) == n_elec)[0]


def basis_state(n, occupied):
    """Index of the determinant with the given modes occupied."""
    idx = 0
    for p in occupied:
        idx |= 1 << (n - 1 - p)
    return idx


@lru_cache(maxsize=None)
def bit_flip(total, q, control=None):
    """Read-only index map of X on qubit ``q``, controlled on ``control`` if given.

    ``(X v)[i] = v[flip[i]]`` on a ``total``-qubit register.
    """
    src = np.arange(2**total)
    bit = 1 if control is None else (src >> (total - 1 - control)) & 1
    flip = src ^ (bit << (total - 1 - q))
    flip.setflags(write=False)
    return flip


@lru_cache(maxsize=None)
def occupied_states(n, modes):
    """Read-only indices of the basis states with every mode in ``modes`` occupied."""
    mask = sum(1 << (n - 1 - p) for p in modes)
    idx = np.nonzero((np.arange(2**n) & mask) == mask)[0]
    idx.setflags(write=False)
    return idx


def permutation(index_map):
    """Sparse ``P`` with ``(P v)[i] = v[index_map[i]]``."""
    dim = len(index_map)
    return sparse.csr_matrix(
        (np.ones(dim), (np.arange(dim), index_map)), shape=(dim, dim)
    )

