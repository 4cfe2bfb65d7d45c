import numpy as np
import pytest

from composer import jw, ladders, oracle
from composer.errors import CapacityError, MaskError, ShapeError
from composer.factorization import build_hamiltonian_pool
from composer.integrals import synth_instance


def unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def assert_unitary(w, tol=1e-11):
    assert np.abs(w.conj().T @ w - np.eye(w.shape[0])).max() <= tol


def test_single_mode_ladder_matrices():
    cr, an = oracle.jw_ladder_ops(1)
    assert np.array_equal(cr[0].toarray(), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_anticommutation_relations():
    n = 3
    cr, an = oracle.jw_ladder_ops(n)
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
    cr, an = oracle.jw_ladder_ops(n)
    total = sum((cr[p] @ an[p]).toarray() for p in range(n))
    assert np.abs(np.diag(total) - jw.hamming_weights(n)).max() == 0.0


def test_dyad_basis_projector():
    n = 3
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    w, rep = oracle.dyad_block_encoding(e0, e0, 1.0, n)
    assert rep.measured_error <= 1e-12
    assert rep.alpha == 1.0
    assert_unitary(w)


def test_dyad_random_orthogonal_pair():
    rng = np.random.default_rng(1)
    n = 4
    u = unit(rng, n)
    v = unit(rng, n)
    v = v - np.vdot(u, v) * u
    v /= np.linalg.norm(v)
    w, rep = oracle.dyad_block_encoding(u, v, 0.8, n)
    assert rep.measured_error <= 1e-10
    # block equals the dense outer-product oracle on the 1-electron sector
    block = oracle.extract_block(w, n)
    target = oracle.dyad_matrix(u, v, n)
    idx = jw.sector_indices(n, 1)
    assert np.abs((block - target)[np.ix_(idx, idx)]).max() <= 1e-12


def test_pair_dyad_random_pair():
    rng = np.random.default_rng(5)
    n = 5
    m = len(ladders.pair_indices(n))
    u, v = unit(rng, m), unit(rng, m)
    w, rep = oracle.pair_dyad_block_encoding(u, v, 0.7, n)
    assert rep.measured_error <= 1e-12
    assert (rep.alpha, rep.ancillas, rep.sector) == (0.7, 1, "N=2")
    assert_unitary(w)


def test_dyad_zero_coefficient_flagged():
    rng = np.random.default_rng(2)
    n = 3
    u, v = unit(rng, n), unit(rng, n)
    w, rep = oracle.dyad_block_encoding(u, v, 0.0, n)
    assert rep.flags == ("DegenerateCoefficient",)
    assert rep.alpha == 1.0
    assert rep.measured_error == pytest.approx(1.0, abs=1e-10)


def test_channel_single_mode_is_occupation():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, 0.0])), 1e-10
    )
    assert ch.rank == 1
    w, rep = oracle.channel_block_encoding(ch, n, squared=False)
    cr, an = oracle.jw_ladder_ops(n)
    target = (cr[0] @ an[0]).toarray()
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_channel_two_branch_signs():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, -1.0])), 0.0
    )
    assert ch.gamma == pytest.approx(2.0)
    w, rep = oracle.channel_block_encoding(ch, n, squared=False)
    cr, an = oracle.jw_ladder_ops(n)
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_channel_square_matches_dense_square():
    ints = synth_instance(4, 2, 2)
    pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
    ch = pool.channels[0].channel
    n = ints.n_so
    w, rep = oracle.channel_block_encoding(ch, n, squared=True)
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
    total = 1 + n
    gadget = (jw.pauli_x(total, 0) @ jw.controlled_x(total, 1, 0)).toarray()
    block = gadget[: 2**n, : 2**n]
    cr, an = oracle.jw_ladder_ops(n)
    assert np.abs(block - (cr[0] @ an[0]).toarray()).max() == 0.0


def test_lcu_single_branch_reduces():
    rng = np.random.default_rng(3)
    n = 3
    u = unit(rng, n)
    w, _ = oracle.dyad_block_encoding(u, u, 1.0, n)
    wl, rep = oracle.lcu_multiplex(
        [oracle.LCUBranch(0.7, w, 1.0)], n
    )
    assert rep.alpha == pytest.approx(0.7)
    assert np.abs(wl - w).max() <= 1e-14


def test_lcu_two_diagonal_branches_with_signs():
    n = 2
    cr, an = oracle.jw_ladder_ops(n)
    b0 = oracle.occupation_gadget(np.array([1.0, 0.0], dtype=complex), n)
    b1 = oracle.occupation_gadget(np.array([0.0, 1.0], dtype=complex), n)
    w, rep = oracle.lcu_multiplex(
        [oracle.LCUBranch(1.0, b0, 1.0), oracle.LCUBranch(-1.0, b1, 1.0)], n
    )
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_lcu_capacity_error():
    n = 2
    b = oracle.occupation_gadget(np.array([1.0, 0.0], dtype=complex), n)
    branches = [oracle.LCUBranch(1.0, b, 1.0)] * 3
    with pytest.raises(CapacityError):
        oracle.lcu_multiplex(branches, n, selector_width=1)


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


GADGET_BUILDERS = (
    "flagged_occupation",
    "occupation_select",
    "rotated_diagonal_gadget",
    "squared_block_gadget",
    "dyad_gadget",
    "hermitian_dyad_branch",
    "null_branch",
)


def test_hamiltonian_encoding_rejects_oversized_register_before_building(
    medium_instance, monkeypatch
):
    """n_so = 6: 14 qubits exceed the cap, and no gadget is built first."""
    ham = build_hamiltonian_pool(medium_instance, 1e-8, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("gadget built before the size check")

    for name in GADGET_BUILDERS:
        monkeypatch.setattr(oracle, name, forbidden)
    message = "assembly needs 14 qubits; the oracle caps at 13"
    with pytest.raises(ShapeError, match=message):
        oracle.hamiltonian_block_encoding(ham)


def test_theorem_error_formula_with_injected_errors(small_pools):
    """Perturb each branch, measure its own error, and check the bound."""
    ham, _ = small_pools
    n = ham.n_so
    rng = np.random.default_rng(9)
    branches = []
    eps_terms = []
    for lad in ham.one_body:
        cols = []
        for j in range(lad.multiplicity):
            w_pert = lad.vectors[:, j].astype(complex) + 5e-6 * unit(rng, n)
            w_pert /= np.linalg.norm(w_pert)
            cols.append(w_pert)
        vec_pert = np.stack(cols, axis=1)
        wb = oracle.mode_group_encoding(vec_pert, n)
        exact = sum(
            oracle.dense_bilinear(lad.vectors[:, j], lad.vectors[:, j], n)
            for j in range(lad.multiplicity)
        ) / lad.multiplicity
        target = oracle.FockOperator(exact, n)
        eps_s = oracle.restricted_block_error(
            wb, target, int(np.log2(wb.shape[0] // 2**n)), sector=ham.n_elec
        )
        branches.append(
            oracle.LCUBranch(lad.coefficient, wb, float(lad.multiplicity))
        )
        eps_terms.append(abs(lad.coefficient) * lad.multiplicity * eps_s)
    for lad in ham.channels:
        wb, repb = oracle.channel_block_encoding(lad.channel, n, squared=True)
        branches.append(oracle.LCUBranch(lad.coefficient, wb, repb.alpha))
        eps_terms.append(abs(lad.coefficient) * repb.alpha * repb.measured_error)
    target = oracle.FockOperator(
        oracle.hamiltonian_from_pool(ham).matrix / ham.alpha, n
    )
    w, rep = oracle.lcu_multiplex(
        branches, n, target=target, sector=ham.n_elec
    )
    bound = sum(eps_terms) / ham.alpha
    assert rep.measured_error <= bound * (1 + 1e-6) + 1e-14


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
    """One perturbed angle: error scales linearly over two decades."""
    rng = np.random.default_rng(4)
    n = 3
    u = unit(rng, n)
    v = unit(rng, n)
    v = v - np.vdot(u, v) * u
    v /= np.linalg.norm(v)
    target = oracle.FockOperator(oracle.dyad_matrix(u, v, n), n)

    def perturbed_error(delta):
        su = ladders.one_electron_angles(u, n=n)
        thetas = su.thetas.copy()
        thetas[0] += delta
        su_p = ladders.LadderSchedule(
            "one", n, su.pivot, su.ordering, thetas, su.phases, su.pivot_phase
        )
        sv = ladders.one_electron_angles(v, n=n)
        w = (
            oracle._lift(ladders.schedule_unitary(su_p), 1)
            @ oracle.vacuum_reflection_gadget(n)
            @ oracle._lift(ladders.schedule_unitary(sv).conj().T, 1)
        )
        return oracle.restricted_block_error(w, target, 1, sector=1)

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
