import base64
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np
import pytest
from scipy import sparse

from composer import circuit_ir as cir
from composer import jw, ladders, oracle
from composer.factorization import (
    BilinearLadder,
    GeneratorPool,
    PairBatch,
    PairTable,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance

H2_LIKE_FCIDUMP = """\
&FCI NORB=1,NELEC=2,MS2=0,
&END
0.7137 1 1 1 1
-1.2528 1 1 0 0
0.7137 0 0 0 0
"""


@dataclass(frozen=True, eq=False)
class PairLadder:
    """Reference pair-excitation ladder ``coefficient * B^dag[U] B[V]``, one object.

    ``U`` is the virtual wedge ``x_a y_b - x_b y_a`` over ``a < b`` and
    ``V`` the occupied one ``r_i s_j - r_j s_i``.  A generator pool holds
    its pair ladders as a :class:`PairTable`; tests build and read pools
    ladder by ladder through :func:`pool_of` and :func:`ladders_of`.
    """

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    s: np.ndarray
    coefficient: float
    address: int

    kind = "pair"

    def virtual_pair_vector(self):
        return ladders.wedge_vectors(self.x, self.y)

    def occupied_pair_vector(self):
        return ladders.wedge_vectors(self.r, self.s)


def pool_of(lads, n_occ, n_virt, n_elec=None):
    """The :class:`GeneratorPool` of pair and bilinear ladder objects.

    Each kind is stably sorted by address.  The pair ladders' table stacks
    their factors as they are, one batch per distinct factor dtypes and
    shapes (in order of first row), so every row keeps its ladder's dtype,
    shape and bytes, and a pool may mix real and complex rows.
    """
    pairs = sorted((lad for lad in lads if lad.kind == "pair"), key=attrgetter("address"))
    groups = {}
    for k, lad in enumerate(pairs):
        factors = [getattr(lad, f) for f in "xyrs"]
        key = tuple(f.dtype for f in factors) + tuple(f.shape for f in factors)
        groups.setdefault(key, []).append(k)
    batches = tuple(
        PairBatch(np.array(rows, dtype=np.intp),
                  *(np.array([getattr(pairs[k], f) for k in rows]) for f in "xyrs"))
        for rows in groups.values()
    )
    table = PairTable(np.array([lad.address for lad in pairs], dtype=np.int64),
                      np.array([lad.coefficient for lad in pairs], dtype=float), batches)
    bilinears = sorted((lad for lad in lads if lad.kind == "bilinear"),
                       key=attrgetter("address"))
    return GeneratorPool(table, tuple(bilinears), n_occ, n_virt, n_elec)


def ladders_of(pool):
    """Every ladder of ``pool`` as an object, in address order (a pair
    ladder before a bilinear one of equal address); each pair ladder's
    factors are row views of its table's batch."""
    table = pool.pairs
    coefficients, addresses = table.coefficient.tolist(), table.address.tolist()
    rows = {}
    for batch in table.batches:
        for k, *factors in zip(batch.rows.tolist(), batch.x, batch.y, batch.r, batch.s):
            rows[k] = PairLadder(*factors, coefficients[k], addresses[k])
    return [rows[k] if pair else pool.bilinears[k]
            for pair, k in zip(pool.branches.pair.tolist(), pool.branches.index.tolist())]


@pytest.fixture(scope="session")
def small_instance():
    """n_so = 4, two electrons; canonical by construction."""
    return synth_instance(7, 2, 2)


@pytest.fixture(scope="session")
def medium_instance():
    """n_so = 6, two electrons."""
    return synth_instance(3, 3, 2)


@pytest.fixture(scope="session")
def small_pools(small_instance):
    ham = build_hamiltonian_pool(small_instance, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(small_instance), 0.0, 0.0)
    return ham, gen


def mixed_generator_pool(base_gen, n_so=4, seed=11, extra=2):
    """Pair ladders from a pool plus deterministic bilinear singles."""
    rng = np.random.default_rng(seed)
    bilinears = list(base_gen.bilinears)
    occ = base_gen.n_occ
    for k in range(extra):
        u = np.zeros(n_so, dtype=complex)
        v = np.zeros(n_so, dtype=complex)
        u[occ + (k % (n_so - occ))] = 1.0
        v[k % occ] = 1.0
        bilinears.append(
            BilinearLadder(
                u=u,
                v=v,
                coefficient=float(0.05 + 0.04 * k + 0.01 * rng.uniform()),
                address=base_gen.ell + k + 1,
            )
        )
    return replace(base_gen, bilinears=tuple(bilinears))


@pytest.fixture(scope="session")
def mixed_gen_pool(small_pools):
    _, gen = small_pools
    return mixed_generator_pool(gen)


def sector_projector_diagonal(n, n_elec):
    """0/1 diagonal of the particle-number sector projector."""
    return (jw.hamming_weights(n) == n_elec).astype(float)


def sector_block(mat, sector):
    """The ``C(n, N)``-square block of a ``2**n``-square ``mat`` on sector
    ``N = sector``, indexed like ``jw.sector_indices(n, N)``."""
    idx = jw.sector_indices(int(np.log2(len(mat))), sector)
    return mat[np.ix_(idx, idx)]


def assert_encodes(w, target, n, sector):
    """Executed encoding ``w`` encodes ``target`` on the particle sector.

    Entrywise within 1e-10 on the sector block, and unitary to 1e-11 over
    every entry of the Gram product ``W^dag W - I``.
    """
    diag = sector_projector_diagonal(n, sector)
    delta = (oracle.extract_block(w, n) - target) * np.outer(diag, diag)
    assert np.abs(delta).max() <= 1e-10
    gram = w.conj().T @ w - sparse.identity(w.shape[0], format="csr")
    assert abs(gram).max() <= 1e-11


def line_value_index(skel, side, a, k):
    """Stream position of the first value that line ``k`` of adaptor ``a`` takes.

    ``a`` is the adaptor's position on ``side``.  Past its PREP amplitude,
    each earlier line takes its :data:`circuit_ir.LINE_VALUES`.
    """
    start, _ = skel.slot_spans[side, a]
    ad = dict(skel.sides())[side][a]
    gates = (line.partition("|")[0] for line in ad.layers[:k])
    return start + 1 + sum(cir.LINE_VALUES.get(gate, 0) for gate in gates)


def older_formats(current):
    """Every format name before ``current``: ``composer-<kind>-v1`` ... ``v(N-1)``."""
    stem, _, version = current.rpartition("-v")
    return [f"{stem}-v{k}" for k in range(1, int(version))]


def edit_packed(holder, key, edit):
    """Apply ``edit`` to the packed float64 array ``holder[key]``, then repack it.

    The standard base64 field is unpacked to a list of floats, ``edit``
    changes that list in place, and the list is packed back; returns what
    ``edit`` returns.
    """
    values = np.frombuffer(base64.b64decode(holder[key]), "<f8").tolist()
    result = edit(values)
    holder[key] = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()
    return result


def adaptor_targets(ham, gen):
    """Dense per-ladder target of every adaptor, keyed by side and address.

    Built from the pools, independently of the gadgets: a one-body mode
    encodes ``sum_j n(w_j) / m``, a channel ``O^2 / Gamma^2``, and a pair
    or bilinear ladder ``i(L - L^dag) / alpha``, ``alpha`` its branch's
    normalization.  Either pool may be ``None``.
    """
    out = {}
    if ham is not None:
        n = ham.n_so
        for lad in ham.one_body:
            modes = [lad.vectors[:, j] for j in range(lad.multiplicity)]
            out[f"ham/{lad.address}"] = sum(
                oracle.dense_bilinear(w, w, n) for w in modes
            ) / len(modes)
        for lad in ham.channels:
            o_mu = oracle.channel_operator(lad.channel, n)
            out[f"ham/{lad.address}"] = o_mu @ o_mu / lad.channel.gamma**2
    if gen is not None:
        branches = gen.branches
        for k, (address, alpha) in enumerate(
                zip(branches.address.tolist(), branches.alpha.tolist())):
            ell = oracle.dense_generator_ladder(gen, k)
            out[f"gen/{address}"] = 1j * (ell - ell.conj().T) / alpha
    return out
