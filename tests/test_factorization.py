import base64
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composer import circuit_ir as cir
from composer import diagnostics, ladders, oracle
from composer.errors import DegenerateGapError, NotPSDError, ParseError, ValidationError
from composer.factorization import (
    BilinearLadder,
    HamiltonianPool,
    T2Tensor,
    _packed_complex,
    build_hamiltonian_pool,
    channel_eigendecomp,
    generator_branch_alpha,
    mp2_amplitudes,
    nested_svd_t2,
    pivoted_cholesky,
    pools_from_json,
    pools_to_json,
    rebuild_t2,
    reconstruct_eri,
    unpack_skew,
)
from composer.integrals import IntegralSet, synth_instance, with_orbital_energies
from conftest import PairLadder, edit_packed, ladders_of, pool_of


def zero_eri_instance(n_spatial=2):
    n = 2 * n_spatial
    h = np.diag(np.linspace(-1.0, 1.0, n))
    return IntegralSet(n_spatial, n, 2, 0.0, h, np.zeros((n, n, n, n)))


def test_cholesky_zero_tensor():
    assert pivoted_cholesky(zero_eri_instance(), 1e-8) == []


def test_cholesky_refuses_a_non_finite_cut():
    """NaN, an infinity or a negative ``tau_chol`` is a ValidationError.

    Run in a fresh interpreter killed after 60 s: a NaN cut once never
    stopped the pivoting, and a regression must fail, not hang.
    """
    script = (
        "from composer.errors import ValidationError\n"
        "from composer.factorization import pivoted_cholesky\n"
        "from composer.integrals import synth_instance\n"
        "for tau in (float('nan'), float('inf'), float('-inf'), -1e-8):\n"
        "    try:\n"
        "        pivoted_cholesky(synth_instance(1, 2, 2), tau)\n"
        "    except ValidationError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"tau_chol must be finite and nonnegative, not {tau}"
        for tau in ("nan", "inf", "-inf", "-1e-08")
    ]


def test_cholesky_exact_rank_one():
    # supermatrix g g^T from a single symmetric spatial factor
    rng = np.random.default_rng(0)
    m = 2
    g = rng.normal(size=(m, m))
    g = (g + g.T) / 2.0
    chem = np.einsum("ij,kl->ijkl", g, g)
    from composer.integrals import expand_spin

    h, eri = expand_spin(np.zeros((m, m)), chem)
    ints = IntegralSet(m, 2 * m, 2, 0.0, h, eri)
    channels = pivoted_cholesky(ints, 1e-12)
    assert len(channels) == 1
    rec = reconstruct_eri(channels, ints.n_so)
    assert np.abs(rec - eri).max() <= 1e-12


def test_cholesky_reconstruction_brute_force():
    ints = synth_instance(3, 3, 2)
    channels = pivoted_cholesky(ints, 1e-8)
    n = ints.n_so
    # full O(n^4) loop oracle
    rec = np.zeros((n, n, n, n))
    for ch in channels:
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        rec[p, q, r, s] += ch.factor[p, r] * ch.factor[q, s]
    assert np.abs(rec - ints.eri).max() <= 1e-8


def test_cholesky_exact_at_zero_tolerance():
    # the synthetic supermatrix has exact rank n_spatial
    ints = synth_instance(7, 3, 2)
    channels = pivoted_cholesky(ints, 0.0)
    rec = reconstruct_eri(channels, ints.n_so)
    assert np.abs(rec - ints.eri).max() <= 1e-12
    assert len(channels) == 3


def test_cholesky_monotone_in_tolerance():
    ints = synth_instance(9, 4, 4)
    k_loose = len(pivoted_cholesky(ints, 1e-2))
    k_tight = len(pivoted_cholesky(ints, 1e-10))
    assert k_tight >= k_loose


def test_cholesky_rejects_non_psd():
    ints = zero_eri_instance()
    eri = ints.eri.copy()
    eri[0, 0, 0, 0] = -1.0  # negative diagonal
    bad = IntegralSet(ints.n_spatial, ints.n_so, 2, 0.0, ints.h, eri)
    with pytest.raises(NotPSDError):
        pivoted_cholesky(bad, 1e-10)


def test_cholesky_deterministic_pivots():
    ints = synth_instance(5, 3, 2)
    a = pivoted_cholesky(ints, 1e-9)
    b = pivoted_cholesky(ints, 1e-9)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.factor, cb.factor)


def test_channel_eigendecomp_identity():
    ch = pivoted_cholesky(synth_instance(1, 2, 2), 1e-10)[0]
    ident = type(ch)(index=0, factor=np.eye(2))
    out = channel_eigendecomp(ident, 0.0)
    assert np.allclose(out.eigvals, [1.0, 1.0])
    assert out.rank == 2
    assert out.gamma == pytest.approx(2.0)


def test_channel_eigendecomp_cutoff():
    from composer.factorization import CholeskyChannel

    ch = CholeskyChannel(index=0, factor=np.diag([1.0, 1e-6]))
    out = channel_eigendecomp(ch, 1e-4)
    assert out.rank == 1
    assert out.gamma == pytest.approx(1.0)


def test_channel_eigendecomp_reconstruction():
    rng = np.random.default_rng(12)
    from composer.factorization import CholeskyChannel

    factor = rng.normal(size=(4, 4))
    factor = (factor + factor.T) / 2.0
    out = channel_eigendecomp(CholeskyChannel(index=0, factor=factor), 0.0)
    rec = out.rotation @ np.diag(out.eigvals) @ out.rotation.T
    assert np.abs(rec - factor).max() <= 1e-12


def test_pool_diagonal_one_body_counts():
    # htilde = diag(-1, 2) on a two-mode register: R1 = 2, K = 0, alpha = 3
    h = np.diag([-1.0, 2.0])
    ints = IntegralSet(1, 2, 2, 0.0, h, np.zeros((2, 2, 2, 2)))
    pool = build_hamiltonian_pool(ints, 1e-8, 0.0)
    assert len(pool.one_body) == 2
    assert len(pool.channels) == 0
    assert pool.ell == 2
    assert pool.alpha == pytest.approx(3.0)


def test_pool_rebuild_matches_dense_hamiltonian():
    ints = synth_instance(5, 3, 2)
    tau = 1e-9
    pool = build_hamiltonian_pool(ints, tau, 0.0)
    dense = oracle.dense_hamiltonian(ints, include_e_nn=False)
    rebuilt = oracle.hamiltonian_from_pool(pool)
    bound = 10 * tau * ints.n_so**2
    assert np.linalg.norm(dense - rebuilt, 2) <= bound


def test_mp2_zero_interaction():
    ints = with_orbital_energies(zero_eri_instance())
    t2 = mp2_amplitudes(ints)
    assert np.abs(t2.amplitudes).max() == 0.0
    assert t2.e_corr == 0.0


def test_mp2_single_term_formula():
    # one occupied pair, one virtual pair, <ij||ab> = 0.2, gap = -2
    n = 4
    eri = np.zeros((n, n, n, n))
    eri[0, 1, 2, 3] = 0.2
    eri[1, 0, 3, 2] = 0.2
    eri[2, 3, 0, 1] = 0.2
    eri[3, 2, 1, 0] = 0.2
    ints = IntegralSet(
        2,
        n,
        2,
        0.0,
        np.zeros((n, n)),
        eri,
        orb_energies=np.array([-1.0, -1.0, 0.0, 0.0]),
    )
    t2 = mp2_amplitudes(ints)
    assert t2.amplitudes.shape == (1, 1)
    assert t2.amplitudes[0, 0] == pytest.approx(-0.1, abs=1e-14)
    assert t2.e_corr == pytest.approx(-0.02, abs=1e-14)


def mode_bit(n, index, p):
    """Occupation of mode ``p`` in basis state ``index``."""
    return (index >> (n - 1 - p)) & 1


def rs_pt2_energy(ints):
    """Dense Rayleigh-Schrodinger second-order oracle (<= 6 qubits).

    Partition with the diagonal Fock operator; sums over all excited
    determinants of the same particle number.
    """
    from composer import jw

    n = ints.n_so
    eps = ints.orb_energies
    h = oracle.dense_hamiltonian(ints, include_e_nn=False)
    sector = jw.sector_indices(n, ints.n_elec)
    occ0 = frozenset(range(ints.n_elec))
    ref = jw.basis_state(n, sorted(occ0))
    e2 = 0.0
    for idx in sector:
        if idx == ref:
            continue
        occ = frozenset(p for p in range(n) if mode_bit(n, idx, p))
        e0_k = sum(eps[p] for p in occ)
        e0_0 = sum(eps[p] for p in occ0)
        v = h[idx, ref]
        if abs(v) < 1e-15:
            continue
        e2 += abs(v) ** 2 / (e0_0 - e0_k)
    return e2


def test_mp2_matches_dense_rspt2():
    ints = synth_instance(2, 3, 2)
    t2 = mp2_amplitudes(ints)
    assert t2.e_corr == pytest.approx(rs_pt2_energy(ints), abs=1e-10)


def test_mp2_degenerate_gap_raises():
    n = 4
    eri = np.zeros((n, n, n, n))
    eri[0, 1, 2, 3] = 0.2
    eri[1, 0, 3, 2] = 0.2
    eri[2, 3, 0, 1] = 0.2
    eri[3, 2, 1, 0] = 0.2
    ints = IntegralSet(
        2,
        n,
        2,
        0.0,
        np.zeros((n, n)),
        eri,
        orb_energies=np.array([-1.0, -1.0, -1.0, -1.0 + 1e-10]),
    )
    with pytest.raises(DegenerateGapError):
        mp2_amplitudes(ints)


def test_nested_svd_zero_tensor():
    t2 = T2Tensor(np.zeros((6, 1)), 2, 4)
    pool = nested_svd_t2(t2)
    assert pool.ell == 0
    assert pool.alpha_bar == 0.0


def test_nested_svd_single_amplitude():
    amp = np.zeros((6, 1))
    amp[2, 0] = 0.3
    pool = nested_svd_t2(T2Tensor(amp, 2, 4), 0.0, 0.0)
    assert pool.ell == 1
    assert ladders_of(pool)[0].coefficient == pytest.approx(0.3, abs=1e-12)
    assert np.abs(rebuild_t2(pool) - amp).max() <= 1e-12


def test_nested_svd_exact_reconstruction():
    rng = np.random.default_rng(5)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    pool = nested_svd_t2(t2, 0.0, 0.0)
    assert np.abs(rebuild_t2(pool) - t2.amplitudes).max() <= 1e-10


def test_wedge_factors_are_antisymmetric_unit_norm():
    rng = np.random.default_rng(6)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    pool = nested_svd_t2(t2, 0.0, 0.0)
    for lad in ladders_of(pool):
        uv = lad.virtual_pair_vector()
        m = unpack_skew(uv, 4)
        assert np.abs(m + m.T).max() <= 1e-12
        assert np.linalg.norm(uv) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(lad.occupied_pair_vector()) == pytest.approx(
            1.0, abs=1e-10
        )
        assert lad.coefficient > 0  # signs absorbed into the wedge vectors


def test_pool_serialization_roundtrip(small_pools):
    ham, gen = small_pools
    text = pools_to_json(ham, gen)
    ham2, gen2 = pools_from_json(text)
    assert ham2.alpha == pytest.approx(ham.alpha, abs=1e-15)
    assert gen2.alpha_bar == pytest.approx(gen.alpha_bar, abs=1e-15)
    assert np.abs(
        oracle.hamiltonian_from_pool(ham2)
        - oracle.hamiltonian_from_pool(ham)
    ).max() <= 1e-13
    assert pools_to_json(ham2, gen2) == text


def _column_stack_packed(vec):
    """Reference packing: the real and imaginary parts stacked as two columns."""
    pairs = np.column_stack([vec.real, vec.imag])
    return base64.b64encode(np.asarray(pairs, "<f8").tobytes()).decode()


_Z = np.array([0.3 + 0j, -1.5 + 2.0j, complex(-0.0, -0.0), complex(4.0, -0.0)])


@pytest.mark.parametrize(
    "vec",
    [
        np.array([0.5, -0.0, 1e-300, -2.0]),  # real, packed with +0.0 imaginary parts
        np.array([1, -2, 3]),  # integer
        _Z,  # complex, with -0.0 real and imaginary parts
        _Z[::2],  # non-contiguous complex
        np.array([0.5, -0.0, 3.0, 4.0, -1.0])[::2],  # non-contiguous real
        _Z.astype(">c16"),  # big-endian
        _Z.astype(np.complex64),
        np.zeros(0, complex),
    ],
    ids=["real", "int", "complex", "strided", "strided-real", "big-endian", "c8",
         "empty"],
)
def test_view_packing_equals_the_column_stack_reference(vec):
    assert _packed_complex(vec) == _column_stack_packed(vec)


_FLOATS = st.floats(allow_nan=False, width=64)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=12),
       step=st.integers(1, 3), real=st.booleans())
def test_view_packing_equals_the_reference_on_any_vector(parts, step, real):
    """Signed zeros, infinities and subnormals included, contiguous or not."""
    vec = np.array([complex(a, b) for a, b in parts], dtype=complex)
    vec = (vec.real if real else vec)[::step]
    assert _packed_complex(vec) == _column_stack_packed(vec)


def test_pool_loader_checks_bilinear_vector_lengths(small_pools, mixed_gen_pool):
    """A bilinear ``u`` or ``v`` column must hold ``n_so`` entries per ladder."""
    ham, _ = small_pools
    doc = json.loads(pools_to_json(ham, mixed_gen_pool))
    block = doc["generator"]["bilinear"]
    # one more complex entry: its real and imaginary parts
    edit_packed(block, "v", lambda values: values.extend([0.0, 0.0]))
    size = 8 * len(block["address"])
    message = f"generator bilinear v must hold {size} float64 values, not {size + 2}"
    with pytest.raises(ParseError, match=message):
        pools_from_json(json.dumps(doc))


def test_pool_loader_refuses_unequal_address_and_coefficient_lists(
    small_pools, mixed_gen_pool
):
    ham, _ = small_pools
    doc = json.loads(pools_to_json(ham, mixed_gen_pool))
    doc["generator"]["bilinear"]["coefficient"].pop()
    message = "generator bilinear address and coefficient must have equal lengths, "
    with pytest.raises(ParseError, match=message + "not 2 and 1"):
        pools_from_json(json.dumps(doc))


def test_pool_loader_refuses_an_unknown_ladder_kind(small_pools):
    ham, gen = small_pools
    doc = json.loads(pools_to_json(ham, gen))
    doc["generator"]["triple"] = doc["generator"]["pair"]
    with pytest.raises(ParseError, match="generator has unknown field 'triple'"):
        pools_from_json(json.dumps(doc))


_ENTRIES = st.floats(-1, 1, allow_subnormal=True)


def _drawn_vector(draw, size, complex_row):
    """A vector of ``size`` entries; a complex one has a nonzero imaginary part."""
    real = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size)))
    if not complex_row:
        return real
    imag = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    imag[draw(st.integers(0, size - 1))] = draw(st.sampled_from([0.5, -1e-300]))
    return real + 1j * np.array(imag)


def _drawn_unit_vector(draw, size):
    vec = _drawn_vector(draw, size, draw(st.booleans()))
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-3 else np.eye(size)[0]


@st.composite
def _generator_pools(draw):
    """Pair and bilinear ladders in any order of kinds, addresses ascending."""
    n_occ, n_virt = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["pair", "bilinear"]), max_size=6))
    ladders = []
    for address, kind in enumerate(kinds, start=1):
        coefficient = draw(st.floats(-2, 2))
        if kind == "pair":
            vecs = [_drawn_vector(draw, size, draw(st.booleans()))
                    for size in (n_virt, n_virt, n_occ, n_occ)]
            ladders.append(PairLadder(*vecs, coefficient, address))
        else:
            u, v = (_drawn_unit_vector(draw, n_occ + n_virt) for _ in "uv")
            ladders.append(BilinearLadder(u, v, coefficient, address))
    return pool_of(ladders, n_occ, n_virt, n_elec=n_occ)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _real_bilinear_pool():
    """A real bilinear ladder at n_so = 3 whose spectrum, taken of the real
    vectors, rounded ``alpha_bar`` one ulp away from the loaded copy's."""
    u = np.array([0.9690629422606521, 0.18424535240732187, -0.16422747654832243])
    v = np.array([-0.9910176143225039, -0.13301512508374563, -0.013822611963315834])
    lad = BilinearLadder(u / np.linalg.norm(u), v / np.linalg.norm(v), 1.0, 1)
    return pool_of((lad,), 1, 2, n_elec=1)


@settings(max_examples=60, deadline=None)
@given(gen=_generator_pools())
@example(gen=_real_bilinear_pool())
@example(gen=nested_svd_t2(mp2_amplitudes(synth_instance(1, 2, 2)), 0.0, 0.0))
@example(gen=nested_svd_t2(mp2_amplitudes(synth_instance(7, 3, 2)), 0.0, 0.0))
def test_generator_columns_load_back_bit_for_bit(gen):
    """Mixed kinds, real and complex rows, an empty kind, factorized pools:
    the pair table loads back with the same addresses, coefficients and
    batches (rows, and each factor's dtype, shape and bytes), every ladder
    loads back in address order with its own dtype, shape and bytes (a
    bilinear ladder's vectors complex, in memory as loaded), and the text
    writes back as read.
    """
    ham = HamiltonianPool((), (), n_so=gen.n_so, n_elec=gen.n_occ)
    text = pools_to_json(ham, gen)
    _, back = pools_from_json(text)
    table, loaded = gen.pairs, back.pairs
    assert _same_array(loaded.address, table.address)
    assert _same_array(loaded.coefficient, table.coefficient)
    assert len(loaded.batches) == len(table.batches)
    for batch, got in zip(table.batches, loaded.batches):
        assert np.array_equal(got.rows, batch.rows)
        for key in "xyrs":
            assert _same_array(getattr(got, key), getattr(batch, key))
    lads, back_lads = ladders_of(gen), ladders_of(back)
    assert [lad.kind for lad in back_lads] == [lad.kind for lad in lads]
    for lad, got in zip(lads, back_lads):
        assert (got.address, got.coefficient) == (lad.address, lad.coefficient)
        keys = ("x", "y", "r", "s") if lad.kind == "pair" else ("u", "v")
        for key in keys:
            vec = getattr(lad, key)
            assert _same_array(getattr(got, key), vec)
    assert pools_to_json(ham, back) == text


def _drawn_orthonormal_pair(draw, size):
    """Orthonormal factors ``(x, y)`` of ``size >= 2`` entries; each is real
    or carries a unit phase that makes every nonzero entry complex, so the
    pair vector ``x ^ y`` keeps unit norm."""
    a = np.array(draw(st.lists(_ENTRIES, min_size=2 * size, max_size=2 * size)))
    q, r = np.linalg.qr(a.reshape(size, 2))
    if np.abs(np.diag(r)).min() < 1e-3:
        q = np.eye(size)[:, :2]
    return tuple(
        q[:, k] * np.exp(1j * draw(st.sampled_from([0.4, 1.9, -2.6])))
        if draw(st.booleans()) else q[:, k].copy()
        for k in range(2)
    )


@st.composite
def _dialable_pools(draw):
    """Pair ladders with real and complex factor rows, and bilinear ladders,
    addresses ascending: a pool every factor of which a skeleton can bind."""
    n_occ, n_virt = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    kinds = draw(st.lists(st.sampled_from(["pair", "pair", "bilinear"]), min_size=1,
                          max_size=8).filter(lambda kinds: "pair" in kinds))
    ladders_ = []
    for address, kind in enumerate(kinds, start=1):
        coefficient = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.05, 2))
        if kind == "pair":
            (x, y), (r, s) = (_drawn_orthonormal_pair(draw, n) for n in (n_virt, n_occ))
            ladders_.append(PairLadder(x, y, r, s, coefficient, address))
        else:
            u, v = (_drawn_unit_vector(draw, n_occ + n_virt) for _ in "uv")
            ladders_.append(BilinearLadder(u, v, coefficient, address))
    return pool_of(ladders_, n_occ, n_virt, n_elec=n_occ)


def _row_norm(row):
    """``np.linalg.norm(row)`` by its steps, one ladder at a time: the weight
    kernel before the pair ladders were weighed as a table."""
    x = row.ravel(order="K")
    if np.iscomplexobj(x):
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def _reference_weights(lads):
    """``{address: |omega|^2 ||U||^2 ||V||^2}``, one ladder at a time."""
    return {
        lad.address: float(abs(lad.coefficient) ** 2 * (
            _row_norm(lad.virtual_pair_vector()) ** 2
            * _row_norm(lad.occupied_pair_vector()) ** 2 if lad.kind == "pair" else 1))
        for lad in lads
    }


def _reference_one_shot_mask(weights, eta):
    total = sum(weights.values())
    chosen, acc = [], 0.0
    for addr in sorted(weights, key=lambda a: (-weights[a], a)):
        chosen.append(addr)
        acc += weights[addr]
        if acc >= eta * total - 1e-15:
            break
    return frozenset(chosen)


def _reference_pair_row(skel, lad, prep):
    """A pair ladder's dialed row, the ladder a batch of one: PREP and sign,
    then the ``v`` and ``u`` ladders' angle and phase per line, then gauge."""
    ad = skel.adaptors_gen[lad.address]
    row = [prep, np.pi if lad.coefficient < 0 else 0.0]
    for k, side, vec in ((1, "v", lad.occupied_pair_vector()),
                         (0, "u", lad.virtual_pair_vector())):
        slot = cir.wedge_pairs(skel.n_system, skel.n_occ, side).index(ad.pivot[k])
        (thetas,), (phases,), (gauge,) = ladders.ladder_angles([vec], [slot])
        row += [*np.stack([thetas, phases], axis=-1).ravel().tolist(), gauge]
    return row


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(gen=_dialable_pools(), data=st.data())
def test_the_pair_table_keeps_every_per_ladder_bit(gen, data):
    """Built from ladders or loaded from a document, the table gives each
    ladder's weight, the mask, each pivot, ``alpha_bar``, each PREP
    amplitude and each pair row with the bits of its ladder alone."""
    mask = data.draw(st.sets(st.integers(1, gen.ell)))
    eta = data.draw(st.sampled_from([0.3, 0.9, 1.0]))
    ham = HamiltonianPool((), (), n_so=gen.n_so, n_elec=gen.n_occ)
    _, loaded = pools_from_json(pools_to_json(ham, gen))
    for pool in (gen, loaded):
        lads = ladders_of(pool)
        weights = _reference_weights(lads)
        got = diagnostics.ladder_weights(pool)
        assert list(got) == list(weights)
        assert _bits(got.values()) == _bits(weights.values())
        assert diagnostics.one_shot_mask(pool, eta).indices == _reference_one_shot_mask(
            weights, eta)

        plan = cir.pivots_from_pools(None, pool)
        for lad, ad in zip(lads, plan.gen):
            if lad.kind == "pair":
                assert ad.pivot == tuple(
                    cir.wedge_pairs(pool.n_so, pool.n_occ, side)[int(np.argmax(np.abs(vec)))]
                    for side, vec in (("u", lad.virtual_pair_vector()),
                                      ("v", lad.occupied_pair_vector())))

        branch = [abs(lad.coefficient) * generator_branch_alpha(lad) for lad in lads]
        alpha_bar = float(sum(branch))
        assert _bits([pool.alpha_bar]) == _bits([alpha_bar])
        skel = cir.compile_skeleton(pool.n_so, plan)
        values = cir.dial(skel, None, pool, cir.Mask.of("m", mask)).values
        used = 0.0
        for lad, weight in zip(lads, branch):
            prep = 0.0
            if lad.address in mask:
                prep = float(np.sqrt(weight / alpha_bar))
                used += weight
            start, stop = skel.slot_spans["gen", lad.address]
            row = _reference_pair_row(skel, lad, prep) if lad.kind == "pair" else [prep]
            assert _bits(values[start:start + len(row)]) == _bits(row)
        null = float(np.sqrt(max(1.0 - used / alpha_bar, 0.0)))
        assert _bits(values[slice(*skel.slot_spans["gen", 0])]) == _bits([null])


def test_weights_of_448_pair_ladders_keep_every_per_ladder_bit():
    """Synth 1:8:8 at zero cuts: each weight of the 448 pair ladders, built
    or loaded, has the bits of its ladder's own formula (one ``|omega| ** 2``
    there differs from ``|omega| * |omega|`` in its last bit), and so has
    each benchmark mask."""
    gen = nested_svd_t2(mp2_amplitudes(synth_instance(1, 8, 8)), 0.0, 0.0)
    ham = HamiltonianPool((), (), n_so=gen.n_so, n_elec=gen.n_occ)
    _, loaded = pools_from_json(pools_to_json(ham, gen))
    weights = _reference_weights(ladders_of(gen))
    assert len(weights) == 448
    for pool in (gen, loaded):
        got = diagnostics.ladder_weights(pool)
        assert list(got) == list(weights)
        assert _bits(got.values()) == _bits(weights.values())
        for eta in (0.5, 0.9, 0.99, 1.0):
            assert diagnostics.one_shot_mask(pool, eta).indices == _reference_one_shot_mask(
                weights, eta)


def test_nested_svd_truncation_monotone():
    rng = np.random.default_rng(21)
    t2 = T2Tensor(rng.normal(size=(6, 6)), 4, 4)
    errors = []
    for tau in (0.9, 0.5, 0.1, 0.0):
        pool = nested_svd_t2(t2, tau_svd=tau, tau_wedge=tau)
        errors.append(
            float(np.linalg.norm(rebuild_t2(pool) - t2.amplitudes, "fro"))
        )
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-10


_INSTANCE = synth_instance(1, 2, 2)
# each threshold past tau_chol, set through the library call that takes it
_CUTS = {
    "tau_eig": lambda tau: build_hamiltonian_pool(_INSTANCE, 1e-8, tau),
    "tau_eig-no-channel":
        lambda tau: build_hamiltonian_pool(zero_eri_instance(), 0.0, tau),
    "tau_eig-one-channel": lambda tau: channel_eigendecomp(
        pivoted_cholesky(_INSTANCE, 1e-8)[0], tau),
    "tau_svd": lambda tau: nested_svd_t2(mp2_amplitudes(_INSTANCE), tau, 0.0),
    "tau_wedge": lambda tau: nested_svd_t2(mp2_amplitudes(_INSTANCE), 0.0, tau),
}


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf"), -1e-8])
@pytest.mark.parametrize("name", sorted(_CUTS))
def test_library_thresholds_refuse_a_non_finite_or_negative_cut(name, tau):
    """A NaN cut once kept one ladder and an infinite one none, silently.

    ``tau_eig`` is refused by the pool builder even where no Cholesky
    channel is kept, and by the eigendecomposition of one channel.
    """
    with pytest.raises(ValidationError) as caught:
        _CUTS[name](tau)
    threshold = name.partition("-")[0]
    assert str(caught.value) == f"{threshold} must be finite and nonnegative, not {tau}"


def test_synth_beyond_eight_spatial_orbitals_factorizes():
    """Factorization builds no dense operator, so n_so = 18 is in range."""
    ints = synth_instance(1, 9, 8)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    assert ham.n_so == gen.n_so == 18
    assert ham.ell > 0 and gen.ell > 0 and gen.n_occ == 8
