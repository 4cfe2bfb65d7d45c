import itertools
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composer import jw, ladders
from composer.errors import NormalizationError, ShapeError, ValidationError


def one_electron_target(u, n):
    out = np.zeros(2**n, dtype=complex)
    for p in range(n):
        out[jw.basis_state(n, [p])] = u[p]
    return out


def two_electron_target(u_pairs, n):
    out = np.zeros(2**n, dtype=complex)
    for k, (p, q) in enumerate(ladders.pair_indices(n)):
        out[jw.basis_state(n, [p, q])] = u_pairs[k]
    return out


def random_unit(rng, m, complex_=True):
    v = rng.normal(size=m) + (1j * rng.normal(size=m) if complex_ else 0.0)
    return v / np.linalg.norm(v)


def test_identity_ladder_on_pivot_vector():
    u = np.zeros(5, dtype=complex)
    u[2] = 1.0
    sched = ladders.one_electron_angles(u)
    assert sched.pivot == (2,)
    assert np.abs(sched.thetas).max() == 0.0
    assert np.abs(sched.phases).max() == 0.0


def test_two_mode_equal_amplitudes_forced_angle():
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    sched = ladders.one_electron_angles(u, pivot=0)
    assert sched.thetas[0] == pytest.approx(np.pi / 4, abs=1e-15)


def test_one_electron_prep_exact():
    rng = np.random.default_rng(42)
    for n in (2, 4, 6):
        for _ in range(5):
            u = random_unit(rng, n)
            psi = ladders.prepare_one_electron(u)
            assert np.abs(psi - one_electron_target(u, n)).max() <= 1e-12


def test_one_electron_norm_check():
    with pytest.raises(NormalizationError):
        ladders.one_electron_angles(np.array([1.0, 1.0]))


def test_degenerate_tail_conventions():
    # amplitude fully outside the forced pivot: trailing angle hits pi/2
    u = np.array([1.0, 0.0, 0.0], dtype=complex)
    sched = ladders.one_electron_angles(u, pivot=2)
    assert sched.thetas[0] == pytest.approx(np.pi / 2)
    assert sched.thetas[1] == 0.0
    psi = ladders.prepare_one_electron(u, pivot=2)
    assert np.abs(psi - one_electron_target(u, 3)).max() <= 1e-12


def test_recursion_identities():
    rng = np.random.default_rng(3)
    u = random_unit(rng, 6)
    sched = ladders.one_electron_angles(u)
    mags = np.abs(u[list(sched.ordering)])
    thetas, tails = ladders._tail_angles(mags, abs(u[sched.pivot[0]]))
    assert np.abs(np.sin(thetas) * tails[:-1] - mags).max() <= 1e-12
    assert np.abs(np.cos(thetas) * tails[:-1] - tails[1:]).max() <= 1e-12


def test_tail_angles_match_the_scalar_recursion():
    """The array recursion agrees with the one-amplitude-at-a-time loop.

    The loop squares numpy scalars (``pow``) where the array form
    multiplies, so a theta may move by one rounding; tails stay within 2 ulp.
    """
    rng = np.random.default_rng(12)
    mags = np.abs(rng.normal(size=(40, 9)))
    mags[rng.random(mags.shape) < 0.2] = 0.0
    pivot_mags = np.abs(rng.normal(size=40))
    thetas, tails = ladders._tail_angles(mags, pivot_mags)
    for row, pivot_mag, theta, tail in zip(mags, pivot_mags, thetas, tails):
        ref, acc = [pivot_mag], pivot_mag**2
        for mag in row[::-1]:
            acc += mag**2
            ref.append(np.sqrt(acc))
        ref = np.array(ref[::-1])
        assert np.abs(tail - ref).max() <= 2 * np.spacing(ref.max())
        assert np.abs(theta - np.arctan2(row, ref[1:])).max() <= 4e-16


def test_wedge_vectors_equal_the_outer_product_form():
    """Stacked wedge vectors equal ``outer(x, y) - outer(y, x)`` read at ``p < q``."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    y = rng.normal(size=(3, 5))
    vectors = ladders.wedge_vectors(x, y)
    for row, a, b in zip(vectors, x, y):
        outer = np.outer(a, b) - np.outer(b, a)
        assert np.array_equal(row, [outer[p, q] for p, q in ladders.pair_indices(5)])


def test_pair_pivot_concentration():
    n = 4
    pairs = ladders.pair_indices(n)
    u = np.zeros(len(pairs), dtype=complex)
    u[2] = 1.0
    sched = ladders.two_electron_angles(u)
    assert sched.pivot == pairs[2]
    assert np.abs(sched.thetas).max() == 0.0


def test_pair_two_amplitude_forced_values():
    n = 4
    pairs = ladders.pair_indices(n)
    u = np.zeros(len(pairs), dtype=complex)
    u[0] = 1.0 / np.sqrt(2.0)
    u[1] = np.exp(1j * np.pi / 3) / np.sqrt(2.0)
    sched = ladders.two_electron_angles(u, pivot_pair=pairs[0])
    k = sched.ordering.index(pairs[1])
    assert sched.thetas[k] == pytest.approx(np.pi / 4, abs=1e-14)
    assert sched.phases[k] == pytest.approx(np.pi / 3, abs=1e-14)


@st.composite
def pair_rows(draw):
    """Unit pair vectors with exact zeros and zero tails, and a pivot per row."""
    n = draw(st.integers(2, 6), label="modes")
    size = n * (n - 1) // 2
    part = st.one_of(st.just(0.0), st.floats(-1, 1, allow_subnormal=False))
    rows, pivots = [], []
    for _ in range(draw(st.integers(1, 4), label="rows")):
        row = np.array([complex(draw(part), draw(part)) for _ in range(size)])
        row[draw(st.integers(0, size), label="tail cut"):] = 0.0
        pivot = draw(st.integers(0, size - 1), label="pivot")
        norm = np.linalg.norm(row)
        if norm < 1e-3:
            row[:], norm = 0.0, 1.0
            row[pivot] = 1.0
        rows.append(row / norm)
        pivots.append(pivot)
    return n, np.array(rows), pivots


@settings(max_examples=60, deadline=None)
@given(case=pair_rows())
def test_batched_pair_angles_equal_the_one_row_schedule(case):
    """Each row of the batched kernel is exactly ``two_electron_angles`` of it."""
    n, rows, pivots = case
    thetas, phases, gauges = ladders.ladder_angles(rows, pivots)
    for row, pivot, theta, phase, gauge in zip(rows, pivots, thetas, phases, gauges):
        sched = ladders.two_electron_angles(row, ladders.pair_indices(n)[pivot])
        assert np.array_equal(sched.thetas, theta)
        assert np.array_equal(sched.phases, phase)
        assert sched.pivot_phase == gauge


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_batched_angles_of_real_states_equal_one_electron_angles(n):
    """The dial forms every one-body mode column's angles in one batch: each
    row of a real batch, zero entries included, has the bits of
    ``one_electron_angles`` of it."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((40, n)) * (rng.uniform(size=(40, n)) < 0.8)
    rows[:, 0] += 1e-3
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    pivots = rng.integers(0, n, len(rows))
    thetas, phases, gauges = ladders.ladder_angles(rows, pivots)
    for row, pivot, theta, phase, gauge in zip(rows, pivots, thetas, phases, gauges):
        sched = ladders.one_electron_angles(row, pivot=int(pivot), n=n)
        assert sched.thetas.tobytes() == theta.tobytes()
        assert sched.phases.tobytes() == phase.tobytes()
        assert float(sched.pivot_phase).hex() == float(gauge).hex()


def test_two_electron_prep_exact():
    rng = np.random.default_rng(11)
    for n in (4, 6):
        pairs = ladders.pair_indices(n)
        for _ in range(4):
            u = random_unit(rng, len(pairs))
            sched = ladders.two_electron_angles(u)
            vac = np.zeros(2**n, dtype=complex)
            vac[0] = 1.0
            psi = ladders.apply_ladder_dense(sched, vac)
            assert np.abs(psi - two_electron_target(u, n)).max() <= 1e-12


def test_zero_angle_schedule_is_identity():
    n = 4
    sched = ladders.LadderSchedule(
        "one",
        n,
        (0,),
        (1, 2, 3),
        np.zeros(3),
        np.zeros(3),
        prep_form=False,
    )
    rng = np.random.default_rng(0)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    out = ladders.apply_ladder_dense(sched, state)
    assert np.abs(out - state).max() <= 1e-14


def test_givens_full_swap_rotation():
    # G_{01}(pi/2) moves |...01> to |...10> up to the sign convention
    n = 2
    src = np.zeros((4, 1), dtype=complex)
    src[jw.basis_state(n, [1])] = 1.0
    out = ladders.rotate(src, n, (0, 1), np.pi / 2)[:, 0]
    tgt = jw.basis_state(n, [0])
    assert abs(abs(out[tgt]) - 1.0) <= 1e-14


def expm_full(k_op):
    """``scipy.linalg.expm`` of a dense generator over the whole Fock space.

    ``K`` is zero outside the rows and columns it touches, so the
    exponential is the identity there and ``expm`` of that sub-block
    inside it (small matrices keep ``expm`` fast).
    """
    from scipy.linalg import expm

    idx = np.nonzero(np.abs(k_op).sum(axis=0) + np.abs(k_op).sum(axis=1))[0]
    out = np.eye(k_op.shape[0], dtype=complex)
    out[np.ix_(idx, idx)] = expm(k_op[np.ix_(idx, idx)])
    return out


def assert_gate_matches(n, modes, theta, phi, k_op):
    """The kernel (and its adjoint) applied to the identity equals ``expm``."""
    expected = expm_full(theta * k_op)
    eye = np.eye(2**n, dtype=complex)
    kernel = ladders.rotate(eye.copy(), n, modes, theta, phi)
    assert np.abs(kernel - expected).max() <= 1e-13
    adjoint = ladders.rotate(eye, n, modes, -theta, phi)
    assert np.abs(adjoint - expected.conj().T).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 6])
def test_gates_match_matrix_exponential(n):
    """Every Givens and pair-Givens gate equals ``expm(theta K)`` on the Fock space.

    The kernel is applied to the identity, at ``theta`` against ``expm``
    and at ``-theta`` against the adjoint.  Pivot and target pairs that
    share a mode are included.
    """
    rng = np.random.default_rng(n)
    cr, an = jw.jw_ladder_ops(n)
    for p in range(n):
        for r in range(n):
            if p == r:
                continue
            theta = rng.uniform(-np.pi, np.pi)
            k_op = (cr[p] @ an[r] - cr[r] @ an[p]).toarray()
            assert_gate_matches(n, (p, r), theta, 0.0, k_op)
    pairs = ladders.pair_indices(n)
    overlapping = 0
    for p, q in pairs:
        for r, s in pairs:
            if (p, q) == (r, s):
                continue
            overlapping += len({p, q} & {r, s}) > 0
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            a_op = (cr[p] @ cr[q] @ an[s] @ an[r]).toarray()
            k_op = np.exp(1j * phi) * a_op - np.exp(-1j * phi) * a_op.conj().T
            assert_gate_matches(n, (p, q, r, s), theta, phi, k_op)
    assert overlapping > 0


def test_pair_maps_pass_the_rotation_check():
    """At n = 6 every pair tuple's map is a signed permutation with disjoint sides.

    The map reproduces ``A`` exactly; a pair rotated onto itself
    (``A = n_p n_q``) and a repeated mode fail the cache-time check.
    """
    n = 6
    cr, an = jw.jw_ladder_ops(n)
    pairs = ladders.pair_indices(n)
    for p, q in pairs:
        for r, s in pairs:
            if (p, q) == (r, s):
                continue
            rows, partners, signs = ladders.gate_map(n, (p, q, r, s))
            assert len(rows) and not set(rows) & set(partners)
            assert len(set(rows)) == len(set(partners)) == len(rows)
            a_op = np.zeros((2**n, 2**n))
            a_op[rows, partners] = signs[:, 0]
            assert np.array_equal(a_op, (cr[p] @ cr[q] @ an[s] @ an[r]).toarray())
    for modes in [(0, 1, 0, 1), (0, 0, 1, 2), (1, 1)]:
        with pytest.raises(ValidationError, match="not a rotation"):
            ladders.gate_map(n, modes)


def sparse_gate_map(n, modes):
    """Reference map: ``A`` read off a product of Jordan-Wigner ladder matrices.

    Returns ``(rows, partners, signs)`` as ``ladders.gate_map`` does, or
    ``None`` where ``A`` fails its rotation check.
    """
    cr, an = jw.jw_ladder_ops(n)
    half = len(modes) // 2
    ops = [cr[m] for m in modes[:half]] + [an[m] for m in reversed(modes[half:])]
    a_op = reduce(operator.matmul, ops).tocoo()
    a_op.eliminate_zeros()
    rows, partners = a_op.row, a_op.col
    if not (
        len(rows)
        and np.all(np.abs(a_op.data) == 1.0)
        and len(np.unique(rows)) == len(np.unique(partners)) == len(rows)
        and not np.intersect1d(rows, partners).size
    ):
        return None
    return rows, partners, a_op.data.real.reshape(-1, 1)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=4)
@example(n=5)
@example(n=6)
def test_gate_map_equals_the_sparse_product(n):
    """Every Givens ``(p, r)`` and pair ``(p, q, r, s)`` tuple at n <= 6, repeated
    modes included: the bit-arithmetic map equals the map read off the sparse
    ladder product, entry for entry and in order, and fails the rotation check
    exactly where that one does.
    """
    tuples = itertools.chain(itertools.product(range(n), repeat=2),
                             itertools.product(range(n), repeat=4))
    for modes in tuples:
        expected = sparse_gate_map(n, modes)
        if expected is None:
            with pytest.raises(ValidationError, match="not a rotation"):
                ladders.gate_map.__wrapped__(n, modes)
            continue
        for got, want in zip(ladders.gate_map.__wrapped__(n, modes), expected):
            assert got.dtype.kind == want.dtype.kind, modes
            assert np.array_equal(got, want), modes


def test_dimension_mismatch_raises():
    sched = ladders.one_electron_angles(np.array([1.0, 0.0]), pivot=0)
    with pytest.raises(ShapeError):
        ladders.apply_ladder_dense(sched, np.zeros(8), n=2)


def test_inverse_property():
    rng = np.random.default_rng(5)
    n = 5
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    u = random_unit(rng, n)
    sched = ladders.one_electron_angles(u)
    roundtrip = ladders.apply_ladder_dense(
        sched, ladders.apply_ladder_dense(sched, state), inverse=True
    )
    assert np.abs(roundtrip - state).max() <= 1e-12
    pairs = ladders.pair_indices(n)
    up = random_unit(rng, len(pairs))
    sched2 = ladders.two_electron_angles(up)
    roundtrip = ladders.apply_ladder_dense(
        sched2, ladders.apply_ladder_dense(sched2, state), inverse=True
    )
    assert np.abs(roundtrip - state).max() <= 1e-12


def test_number_conservation_on_random_state():
    rng = np.random.default_rng(8)
    n = 5
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    nop = jw.number_operator(n)
    before = np.vdot(state, nop @ state)
    u = random_unit(rng, n)
    sched = ladders.one_electron_angles(u).as_number_conserving()
    after_state = ladders.apply_ladder_dense(sched, state)
    assert abs(np.vdot(after_state, nop @ after_state) - before) <= 1e-12
    pairs = ladders.pair_indices(n)
    sched2 = ladders.two_electron_angles(random_unit(rng, len(pairs)))
    sched2 = sched2.as_number_conserving()
    after_state = ladders.apply_ladder_dense(sched2, state)
    assert abs(np.vdot(after_state, nop @ after_state) - before) <= 1e-12


def test_prep_equals_number_conserving_plus_injections():
    # dense matrix identity on a small register
    rng = np.random.default_rng(2)
    n = 4
    u = random_unit(rng, n)
    sched = ladders.one_electron_angles(u)
    full = ladders.schedule_unitary(sched)
    nc = ladders.schedule_unitary(sched.as_number_conserving())
    # X on the pivot qubit (qubit 0 is the most significant bit)
    r = sched.pivot[0]
    inj = np.kron(np.kron(np.eye(2**r), [[0, 1], [1, 0]]), np.eye(2 ** (n - 1 - r)))
    assert np.abs(full - nc @ inj).max() <= 1e-13


def test_angles_stay_in_first_quadrant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = random_unit(rng, 6)
        sched = ladders.one_electron_angles(u)
        assert np.all(sched.thetas >= 0.0)
        assert np.all(sched.thetas <= np.pi / 2 + 1e-15)


def test_rotation_network_roundtrip():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        (net,) = ladders.rotation_networks([q])
        assert np.abs(ladders.network_single_particle(net) - q).max() <= 1e-12
        assert len(net.rotations) == n * (n - 1) // 2
        assert tuple((p, qq) for p, qq, _ in net.rotations) == (
            ladders.network_pair_sequence(n)
        )


def test_rotation_network_fock_action():
    rng = np.random.default_rng(6)
    n = 4
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    (net,) = ladders.rotation_networks([q])
    u = ladders.network_unitary(net)
    cr, _ = jw.jw_ladder_ops(n)
    for xi in (0, 2):
        lhs = u @ cr[xi].toarray() @ u.conj().T
        rhs = sum(q[p, xi] * cr[p].toarray() for p in range(n))
        assert np.abs(lhs - rhs).max() <= 1e-12


def rotation_network_loop(v):
    """Reference: one matrix's adjacent-row Givens QR, one elimination at a time."""
    a = np.asarray(v, dtype=float).copy()
    n = a.shape[0]
    elim = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            top, bot = a[i - 1, j], a[i, j]
            theta = float(np.arctan2(bot, top))
            c, s = np.cos(theta), np.sin(theta)
            a[i - 1:i + 1] = np.array([[c, s], [-s, c]]) @ a[i - 1:i + 1]
            a[i, j] = 0.0
            elim.append((i - 1, i, theta))
    signs = np.sign(np.diag(a))
    signs[signs == 0] = 1.0
    phases = np.where(signs < 0, np.pi, 0.0)
    rotations = tuple((p, q, -theta) for (p, q, theta) in reversed(elim))
    return rotations, phases


def signed_permutation(rng, n):
    """A random permutation matrix with random signs: many exact-zero angles."""
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    cases=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(["qr", "flip", "perm", "block"])),
        min_size=1, max_size=6,
    ),
)
def test_stacked_rotation_networks_equal_the_loop(n, cases):
    """Each network of a stack has the bits of its matrix decomposed alone.

    Random orthogonal matrices, with rows sign-flipped, signed
    permutations (exact zeros everywhere) and block-diagonal ones (exact
    zeros off the blocks); angles are compared by their bits, so a
    ``-0.0`` cannot pass for ``0.0``.
    """
    mats = []
    for seed, kind in cases:
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        if kind == "flip":
            q = q * rng.choice([-1.0, 1.0], size=n)[:, None]
        elif kind == "perm":
            q = signed_permutation(rng, n)
        elif kind == "block":
            k = n // 2
            q = np.zeros((n, n))
            q[k:, k:] = signed_permutation(rng, n - k)
            if k:
                q[:k, :k] = np.linalg.qr(rng.normal(size=(k, k)))[0]
        mats.append(q)
    nets = ladders.rotation_networks(mats)
    assert len(nets) == len(mats)
    for q, net in zip(mats, nets):
        rotations, phases = rotation_network_loop(q)
        assert net.n_modes == n
        assert [(p, r, t.hex()) for p, r, t in net.rotations] == [
            (p, r, t.hex()) for p, r, t in rotations
        ]
        assert net.phases.tobytes() == phases.tobytes()


def test_rotation_networks_refuse_what_they_cannot_decompose():
    q = np.eye(3)
    with pytest.raises(ShapeError, match="real orthogonal"):
        ladders.rotation_networks([q * 1j])
    with pytest.raises(ShapeError, match="stack of equal squares"):
        ladders.rotation_networks(q)
    with pytest.raises(ShapeError, match="must be orthogonal"):
        ladders.rotation_networks([q, 2 * q])
