from dataclasses import replace

import numpy as np
import pytest

from composer import circuit_ir as cir
from composer import jw, ladders, oracle
from composer.errors import CapacityError, MaskError, ShapeError
from composer.factorization import (
    BilinearLadder,
    ChannelLadder,
    GeneratorPool,
    HamiltonianPool,
    OneBodyModeLadder,
    PairLadder,
    build_hamiltonian_pool,
)
from composer.integrals import synth_instance
from conftest import adaptor_targets, line_value_index


def unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def assert_unitary(w, tol=1e-11):
    assert np.abs(w.conj().T @ w - np.eye(w.shape[0])).max() <= tol


def orthonormal_pair(rng, n):
    """Two orthonormal random complex vectors of length ``n``."""
    u, v = unit(rng, n), unit(rng, n)
    v = v - np.vdot(u, v) * u
    return u, v / np.linalg.norm(v)


def dialed(ham, gen):
    """One-pool skeleton (the other pool ``None``) and its full-mask dial sheet."""
    skel = cir.one_pool_skeleton(ham, gen)
    mask = () if gen is None else [lad.address for lad in gen.ladders]
    return skel, cir.dial(skel, ham, gen, mask)


def generator_adaptor(lad, n_occ, n_virt):
    """Executed branch of a one-ladder generator pool's adaptor, and its target."""
    gen = GeneratorPool((lad,), n_occ=n_occ, n_virt=n_virt)
    skel, sheet = dialed(None, gen)
    target = adaptor_targets(None, gen)["gen/1"]
    return cir.execute_adaptor(skel, sheet, "gen/1"), target


def test_single_mode_ladder_matrices():
    cr, an = jw.jw_ladder_ops(1)
    assert np.array_equal(cr[0].toarray(), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_anticommutation_relations():
    n = 3
    cr, an = jw.jw_ladder_ops(n)
    eye = np.eye(2**n)
    for p in range(n):
        for q in range(n):
            acom = (an[p] @ cr[q] + cr[q] @ an[p]).toarray()
            target = eye if p == q else np.zeros_like(eye)
            assert np.abs(acom - target).max() <= 1e-14
    # exact zero for the distant pair highlighted in the contract
    assert np.abs((an[0] @ cr[2] + cr[2] @ an[0]).toarray()).max() == 0.0


def test_number_operator_is_hamming_diagonal():
    n = 4
    cr, an = jw.jw_ladder_ops(n)
    total = sum((cr[p] @ an[p]).toarray() for p in range(n))
    assert np.abs(np.diag(total) - jw.hamming_weights(n)).max() == 0.0


def test_dyad_basis_projector():
    """Pair adaptor on basis wedges: the branch encodes i(|U><V| - h.c.)/2."""
    e = np.eye(2)
    lad = PairLadder(e[0], e[1], e[0], e[1], coefficient=1.0, address=1)
    w, target = generator_adaptor(lad, 2, 2)
    n = 4
    u_state, v_state = jw.basis_state(n, [2, 3]), jw.basis_state(n, [0, 1])
    assert target[u_state, v_state] == pytest.approx(0.5j)
    idx = jw.sector_indices(n, 2)
    delta = (oracle.extract_block(w, n) - target)[np.ix_(idx, idx)]
    assert np.abs(delta).max() <= 1e-12
    assert w.shape[0] == 2 ** (2 + n)
    assert_unitary(w.toarray())


def test_dyad_random_orthogonal_pair():
    """Bilinear adaptor of a random orthogonal dyad ``a^dag(u) a(v)``, every sector."""
    rng = np.random.default_rng(1)
    n = 4
    u, v = orthonormal_pair(rng, n)
    lad = BilinearLadder(u=u, v=v, coefficient=0.8, address=1)
    w, target = generator_adaptor(lad, 2, 2)
    err = oracle.restricted_block_error(w, oracle.FockOperator(target, n), 2)
    assert err <= 1e-10
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_pair_dyad_random_pair():
    rng = np.random.default_rng(5)
    n_occ, n_virt = 3, 3
    x, y = orthonormal_pair(rng, n_virt)
    r, s = orthonormal_pair(rng, n_occ)
    lad = PairLadder(x, y, r, s, coefficient=0.7, address=1)
    w, target = generator_adaptor(lad, n_occ, n_virt)
    n = n_occ + n_virt
    err = oracle.restricted_block_error(w, oracle.FockOperator(target, n), 2, sector=2)
    assert err <= 1e-12
    assert w.shape[0] == 2 ** (2 + n)
    assert_unitary(w.toarray())


def test_zero_coefficient_ladder_loads_no_weight():
    """A zero-coefficient ladder keeps its unit branch but loads no amplitude."""
    rng = np.random.default_rng(2)
    n = 3
    u, v = orthonormal_pair(rng, n)
    ladders_ = [
        BilinearLadder(u=u, v=v, coefficient=0.5, address=1),
        BilinearLadder(u=v, v=u, coefficient=0.0, address=2),
    ]
    gen = GeneratorPool(tuple(ladders_), n_occ=1, n_virt=2)
    skel = cir.one_pool_skeleton(None, gen)
    sheet = cir.dial(skel, None, gen, [2])
    zero = oracle.FockOperator(np.zeros((2**n, 2**n), dtype=complex), n)
    w = cir.execute_adaptor(skel, sheet, "gen/2")
    # the branch alone encodes i(L - L^dag)/2 for orthonormal u, v: norm 1/2
    err = oracle.restricted_block_error(w, zero, 2)
    assert err == pytest.approx(0.5, abs=1e-10)
    block = oracle.extract_block(cir.execute_generator_encoding(skel, sheet), n)
    assert np.abs(block).max() == 0.0


def _rotated_diagonal_block(ch, n):
    """Unsquared channel gadget: block ``O_mu / Gamma_mu``.

    The channel adaptor's own lines without their final ``square`` marker,
    dialed and executed.
    """
    pool = HamiltonianPool((), (ChannelLadder(ch, 1.0, 0),), n_so=n, n_elec=0)
    skel = cir.one_pool_skeleton(pool, None)
    (ad,) = skel.adaptors_ham
    assert ad.layers[-1].startswith("square|")
    skel = replace(skel, adaptors_ham=(replace(ad, layers=ad.layers[:-1]),))
    skel = replace(skel, fingerprint=cir.fabric_fingerprint(skel))
    sheet = cir.dial(skel, pool, None, ())
    return oracle.extract_block(cir.execute_adaptor(skel, sheet, "ham/0"), n)


def test_channel_single_mode_is_occupation():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, 0.0])), 1e-10
    )
    assert ch.rank == 1
    cr, an = jw.jw_ladder_ops(n)
    target = (cr[0] @ an[0]).toarray()
    assert np.abs(_rotated_diagonal_block(ch, n) - target).max() <= 1e-12


def test_channel_two_branch_signs():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, -1.0])), 0.0
    )
    assert ch.gamma == pytest.approx(2.0)
    cr, an = jw.jw_ladder_ops(n)
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert np.abs(_rotated_diagonal_block(ch, n) - target).max() <= 1e-12


def test_channel_square_matches_dense_square():
    ints = synth_instance(4, 2, 2)
    pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
    ch = pool.channels[0].channel
    n = ints.n_so
    w, rep = oracle.channel_block_encoding(ch, n)
    o_mu = oracle.channel_operator(ch, n)
    target = o_mu @ o_mu / ch.gamma**2
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-10
    assert rep.ancillas == max(int(np.ceil(np.log2(ch.rank))), 0) + 2
    assert_unitary(w)


def _plain_bilinear(u, v, n):
    """``a^dag(u) a(v)`` as the sum of sparse ladder products."""
    cr, an = jw.jw_ladder_ops(n)
    au = sum(u[p] * cr[p] for p in range(n))
    av = sum(np.conj(v[q]) * an[q] for q in range(n))
    return (au @ av).toarray()


@pytest.mark.parametrize("n", [4, 6])
def test_dense_references_match_plain_sums(n):
    """The scattered bilinear pattern equals the plain ladder sums."""
    rng = np.random.default_rng(n)
    for _ in range(3):
        u, v = unit(rng, n), unit(rng, n)
        dense = oracle.dense_bilinear(u, v, n)
        assert np.abs(dense - _plain_bilinear(u, v, n)).max() <= 1e-14
    pool = build_hamiltonian_pool(synth_instance(7, n // 2, 2), 1e-10, 0.0)
    assert pool.channels
    for lad in pool.channels:
        ch = lad.channel
        plain = sum(
            ch.eigvals[xi] * _plain_bilinear(ch.rotation[:, xi], ch.rotation[:, xi], n)
            for xi in range(ch.rank)
        )
        assert np.abs(oracle.channel_operator(ch, n) - plain).max() <= 1e-14


def test_cached_leaves_unchanged_by_verify_and_sandwich(
    small_pools, mixed_gen_pool, tmp_path
):
    """The angle-free leaves are built once, read-only, and never altered."""
    from composer import cli, mask_engine

    leaves = {
        "flag_copy": (oracle._flag_copy, (0, 4)),
        "vacuum_reflection": (oracle.vacuum_reflection_gadget, (4,)),
        "null_branch": (oracle.null_branch, (4,)),
    }
    cached = {name: build(*args) for name, (build, args) in leaves.items()}
    before = {
        name: [arr.tobytes() for arr in (m.data, m.indices, m.indptr)]
        for name, m in cached.items()
    }
    pool, skel, sheet = (tmp_path / f for f in ("pool.json", "skel.json", "dial.json"))
    assert cli.main(["factorize", "--synth", "7:2:2", "--out", str(pool)]) == 0
    assert cli.main(["compile", "--pool", str(pool), "--out", str(skel)]) == 0
    assert cli.main(["dial", "--skel", str(skel), "--pool", str(pool),
                     "--mask", "1", "--out", str(sheet)]) == 0
    assert cli.main(["verify", "--skel", str(skel), "--dial", str(sheet)]) == 0
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    rep, _ = mask_engine.similarity_sandwich(
        ham, mixed_gen_pool, frozenset([1, 2]), sector, 1e-9
    )
    assert rep.within_budget
    for name, (build, args) in leaves.items():
        leaf = cached[name]
        assert build(*args) is leaf
        arrays = (leaf.data, leaf.indices, leaf.indptr)
        assert not any(arr.flags.writeable for arr in arrays)
        assert [arr.tobytes() for arr in arrays] == before[name]


def test_flag_identity_exact():
    # <0_f| X_f CNOT |0_f> equals the occupation operator as matrices
    n = 2
    i2, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    # qubits (flag, mode 0, mode 1), most significant first
    x_flag = np.kron(np.kron(x, i2), i2)
    cnot = np.kron(np.kron(i2, p0), i2) + np.kron(np.kron(x, p1), i2)
    gadget = x_flag @ cnot
    assert np.array_equal(oracle._flag_copy(0, n).toarray(), gadget)
    block = gadget[: 2**n, : 2**n]
    cr, an = jw.jw_ladder_ops(n)
    assert np.abs(block - (cr[0] @ an[0]).toarray()).max() == 0.0


def _mode(vec, coefficient, address):
    vectors = np.asarray(vec, dtype=complex).reshape(-1, 1)
    return OneBodyModeLadder(vectors=vectors, coefficient=coefficient, address=address)


def test_lcu_single_branch_reduces(small_pools):
    """One ladder: the multiplexed encoding is its adaptor's branch, signed."""
    ham, _ = small_pools
    lad = ham.one_body[0]
    one = HamiltonianPool(
        (replace(lad, coefficient=-0.7, address=0),), (), ham.n_so, ham.n_elec
    )
    skel, sheet = dialed(one, None)
    assert one.alpha == pytest.approx(0.7 * lad.multiplicity)
    branch = cir.execute_adaptor(skel, sheet, "ham/0")
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    dim = branch.shape[0]
    assert np.abs((w[:dim, :dim] + branch).toarray()).max() <= 1e-14


def test_lcu_two_diagonal_branches_with_signs():
    n = 2
    cr, an = jw.jw_ladder_ops(n)
    pool = HamiltonianPool(
        (_mode([1.0, 0.0], 1.0, 0), _mode([0.0, 1.0], -1.0, 1)), (), n, 1
    )
    skel, sheet = dialed(pool, None)
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_lcu_capacity_error():
    n = 2
    b = oracle._flag_copy(0, n)
    with pytest.raises(CapacityError):
        oracle._prep_select_prep(np.array([1.0, 0.0]), [b] * 3, [1.0] * 3, n, 1)


def test_full_hamiltonian_block_encoding(small_instance, small_pools):
    ham, _ = small_pools
    w, rep = oracle.hamiltonian_block_encoding(ham)
    assert rep.measured_error <= 1e-9
    assert_unitary(w)
    block = oracle.extract_block(w, ham.n_so)
    assert oracle.assert_sector_preserving(block, ham.n_so)
    # against the Hamiltonian built directly from the integrals: the
    # deviation picks up only the factorization truncation on top of the
    # numerically exact multiplexing
    tau = 1e-10
    target = oracle.FockOperator(
        oracle.dense_hamiltonian(small_instance, include_e_nn=False).matrix
        / ham.alpha,
        ham.n_so,
    )
    err = oracle.restricted_block_error(
        w, target, rep.ancillas, sector=ham.n_elec
    )
    assert err <= 1e-9 + 10 * tau * ham.n_so**2 / ham.alpha


def test_theorem_error_formula_with_injected_errors(small_pools):
    """Perturb each branch, measure its own error, and check the bound."""
    ham, _ = small_pools
    n = ham.n_so
    rng = np.random.default_rng(9)
    targets = adaptor_targets(ham, None)
    noisy_modes = []
    for lad in ham.one_body:
        cols = []
        for j in range(lad.multiplicity):
            w_pert = lad.vectors[:, j].astype(complex) + 5e-6 * unit(rng, n)
            for prev in cols:
                w_pert = w_pert - np.vdot(prev, w_pert) * prev
            cols.append(w_pert / np.linalg.norm(w_pert))
        noisy_modes.append(replace(lad, vectors=np.stack(cols, axis=1)))
    noisy = replace(ham, one_body=tuple(noisy_modes))
    # the perturbed pool dialed into the clean pool's fabric
    skel = cir.one_pool_skeleton(ham, None)
    sheet = cir.dial(skel, noisy, None, ())
    eps_terms = []
    for lad in ham.ladders:
        address = f"ham/{lad.address}"
        wb = cir.execute_adaptor(skel, sheet, address)
        eps_s = oracle.restricted_block_error(
            wb,
            oracle.FockOperator(targets[address], n),
            int(np.log2(wb.shape[0])) - n,
            sector=ham.n_elec,
        )
        if lad.kind == "one_body_mode":
            alpha_s = lad.multiplicity
        else:
            alpha_s = lad.channel.gamma**2
        eps_terms.append(abs(lad.coefficient) * alpha_s * eps_s)
    target = oracle.FockOperator(
        oracle.hamiltonian_from_pool(ham).matrix / ham.alpha, n
    )
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    err = oracle.restricted_block_error(
        w, target, cir.hamiltonian_ancillas(skel), sector=ham.n_elec
    )
    bound = sum(eps_terms) / ham.alpha
    assert bound > 0.0
    assert err <= bound * (1 + 1e-6) + 1e-14


# every leaf and node builder the layer-stream interpreter calls
GADGET_BUILDERS = (
    (oracle, "_flag_copy"),
    (oracle, "vacuum_reflection_gadget"),
    (oracle, "null_branch"),
    (oracle, "squared_block_gadget"),
    (oracle, "_prep_select_prep"),
    (ladders, "apply_gates"),
    (ladders, "rotate"),
)


def test_hamiltonian_encoding_rejects_oversized_register_before_building(
    medium_instance, monkeypatch
):
    """n_so = 6: 14 qubits exceed the cap, and no gadget is built first."""
    ham = build_hamiltonian_pool(medium_instance, 1e-8, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("gadget built before the size check")

    for module, name in GADGET_BUILDERS:
        monkeypatch.setattr(module, name, forbidden)
    message = "assembly needs 14 qubits; the oracle caps at 13"
    with pytest.raises(ShapeError, match=message):
        oracle.hamiltonian_block_encoding(ham)


def test_generator_empty_mask_is_null(small_pools):
    _, gen = small_pools
    w, rep = oracle.generator_block_encoding(gen, frozenset())
    block = oracle.extract_block(w, gen.n_so)
    assert np.abs(block).max() == 0.0


def test_generator_single_ladder(mixed_gen_pool):
    gen = mixed_gen_pool
    w, rep = oracle.generator_block_encoding(gen, frozenset([1]))
    assert rep.measured_error <= 1e-10
    assert_unitary(w)


def test_generator_masks_share_global_normalization(mixed_gen_pool):
    gen = mixed_gen_pool
    _, rep1 = oracle.generator_block_encoding(gen, frozenset([1]))
    _, rep2 = oracle.generator_block_encoding(gen, frozenset([2, 3]))
    assert rep1.alpha == rep2.alpha == pytest.approx(gen.alpha_bar)


def test_generator_mask_validation(small_pools):
    _, gen = small_pools
    with pytest.raises(MaskError):
        oracle.generator_block_encoding(gen, frozenset([99]))
    from composer.factorization import GeneratorPool

    empty = GeneratorPool(ladders=(), n_occ=2, n_virt=2, n_elec=2)
    with pytest.raises(MaskError):
        oracle.generator_block_encoding(empty, frozenset([1]))


def test_restricted_block_error_identity():
    n = 2
    target = oracle.FockOperator(np.eye(4, dtype=complex), n)
    assert oracle.restricted_block_error(np.eye(4), target, 0) == 0.0


def test_restricted_block_error_perturbation_scaling():
    """One perturbed dialed angle: error scales linearly over two decades."""
    rng = np.random.default_rng(4)
    n = 3
    u, v = orthonormal_pair(rng, n)
    gen = GeneratorPool(
        (BilinearLadder(u=u, v=v, coefficient=0.8, address=1),), n_occ=1, n_virt=2
    )
    skel, sheet = dialed(None, gen)
    target = oracle.FockOperator(adaptor_targets(None, gen)["gen/1"], n)
    ad = skel.adaptors_gen[1]
    first_givens = next(k for k, ln in enumerate(ad.layers) if ln.startswith("givens|"))
    slot = line_value_index(skel, "gen", ad, first_givens)  # mode 0's first angle

    def perturbed_error(delta):
        values = list(sheet.values)
        values[slot] += delta
        w = cir.execute_adaptor(skel, replace(sheet, values=tuple(values)), "gen/1")
        return oracle.restricted_block_error(w, target, 2, sector=1)

    assert perturbed_error(0.0) <= 1e-14
    e4 = perturbed_error(1e-4)
    e2 = perturbed_error(1e-2)
    assert 1e-6 <= e4 <= 1e-2
    assert e2 / e4 == pytest.approx(100.0, rel=0.05)


def test_every_constructed_unitary_is_unitary(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    w1, _ = oracle.hamiltonian_block_encoding(ham)
    w2, _ = oracle.generator_block_encoding(mixed_gen_pool, frozenset([1, 2]))
    for w in (w1, w2):
        assert_unitary(w)


def test_blocks_preserve_hamming_sectors(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    n = ham.n_so
    w1, _ = oracle.hamiltonian_block_encoding(ham)
    assert oracle.assert_sector_preserving(oracle.extract_block(w1, n), n)
    w2, _ = oracle.generator_block_encoding(mixed_gen_pool, frozenset([1, 2, 3]))
    assert oracle.assert_sector_preserving(oracle.extract_block(w2, n), n)
