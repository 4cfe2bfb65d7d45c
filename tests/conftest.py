import base64

import numpy as np
import pytest
from scipy import sparse

from composer import circuit_ir as cir
from composer import jw, oracle
from composer.factorization import (
    BilinearLadder,
    GeneratorPool,
    build_hamiltonian_pool,
    generator_branch_alpha,
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
    ladders = list(base_gen.ladders)
    occ = base_gen.n_occ
    for k in range(extra):
        u = np.zeros(n_so, dtype=complex)
        v = np.zeros(n_so, dtype=complex)
        u[occ + (k % (n_so - occ))] = 1.0
        v[k % occ] = 1.0
        ladders.append(
            BilinearLadder(
                u=u,
                v=v,
                coefficient=float(0.05 + 0.04 * k + 0.01 * rng.uniform()),
                address=len(ladders) + 1,
            )
        )
    return GeneratorPool(
        ladders=tuple(ladders),
        n_occ=base_gen.n_occ,
        n_virt=base_gen.n_virt,
        n_elec=base_gen.n_elec,
    )


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
    or bilinear ladder ``i(L - L^dag) / generator_branch_alpha``.  Either
    pool may be ``None``.
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
        for lad in gen.ladders:
            ell = oracle.dense_generator_ladder(lad, gen.n_occ, gen.n_so)
            out[f"gen/{lad.address}"] = (
                1j * (ell - ell.conj().T) / generator_branch_alpha(lad)
            )
    return out
