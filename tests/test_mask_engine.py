import numpy as np
import pytest

from composer import circuit_ir as cir
from composer import jw, ladders, mask_engine as me, oracle, qsp
from composer.errors import (
    DegenerateBasisError,
    SectorError,
    ShapeError,
    ValidationError,
)
from composer.factorization import build_hamiltonian_pool, mp2_amplitudes, nested_svd_t2
from composer.integrals import synth_instance
from conftest import mixed_generator_pool


def sector_basis(n, n_elec):
    return [
        np.eye(2**n, dtype=complex)[:, i] for i in jw.sector_indices(n, n_elec)
    ]


def test_model_space_projector_rejects_wrong_sector():
    with pytest.raises(SectorError):
        me.model_space_projector([1], 4, 2)  # weight-1 determinant


def test_sandwich_empty_mask_is_hamiltonian_only(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    rep, block = me.similarity_sandwich(
        ham, mixed_gen_pool, frozenset(), sector, 1e-10
    )
    h_exact = oracle.hamiltonian_from_pool(ham) / ham.alpha
    proj = me.model_space_projector(sector, 4, 2)
    dev = np.linalg.norm(proj @ (block - h_exact) @ proj, 2)
    assert dev <= 2 * rep.eps_exp + rep.eps_ham + 1e-12
    assert rep.within_budget


def test_sandwich_budget_across_masks(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    for mask in (frozenset([1]), frozenset([1, 2]), frozenset([2, 3])):
        rep, block = me.similarity_sandwich(
            ham, mixed_gen_pool, mask, sector, 1e-9
        )
        assert rep.within_budget
        # the extracted block is Hermitian to tight tolerance
        assert np.abs(block - block.conj().T).max() <= 1e-10


def test_sandwich_inherits_hamiltonian_normalization(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    rep, _ = me.similarity_sandwich(ham, mixed_gen_pool, frozenset([1]), sector, 1e-9)
    assert rep.alpha == pytest.approx(ham.alpha)


FORBIDDEN_BEFORE_SIZE_CHECK = (
    (oracle, "hamiltonian_block_encoding"),
    (oracle, "generator_block_encoding"),
    (cir, "execute_encoding"),
    (cir, "execute_generator_encoding"),
    (cir, "execute_block"),
)
COLUMN_LIMIT = 4**jw.MAX_QUBITS  # amplitudes in the largest dense operator


def test_sandwich_rejects_oversized_register_before_building(monkeypatch):
    """n_so = 10: the Hamiltonian batch needs 2**30 amplitudes; nothing is built."""
    instance = synth_instance(3, 5, 2)
    ham = build_hamiltonian_pool(instance, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(instance), 1e-6, 1e-6)

    def forbidden(*args, **kwargs):
        raise AssertionError("encoding built before the size check")

    for module, name in FORBIDDEN_BEFORE_SIZE_CHECK:
        monkeypatch.setattr(module, name, forbidden)
    sector = list(jw.sector_indices(10, 2))
    message = f"Hamiltonian column batch needs {2**30} .*allows {COLUMN_LIMIT}"
    with pytest.raises(ShapeError, match=message):
        me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-8)


def test_sandwich_rejects_oversized_generator_register_before_building(monkeypatch):
    """n_so = 8, 64 generator ladders: 2**(7 + 2 + 8) rows x 2**8 columns.

    The Hamiltonian batch (2**16 rows x 2**8 columns) fits exactly.
    """
    instance = synth_instance(7, 4, 2)
    ham = build_hamiltonian_pool(instance, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(instance), 1e-6, 1e-6)
    gen = mixed_generator_pool(gen, n_so=8, extra=64 - gen.ell)
    assert gen.ell == 64

    def forbidden(*args, **kwargs):
        raise AssertionError("encoding built before the size check")

    for module, name in FORBIDDEN_BEFORE_SIZE_CHECK:
        monkeypatch.setattr(module, name, forbidden)
    sector = list(jw.sector_indices(8, 2))
    message = f"generator column batch needs {2**25} .*allows {COLUMN_LIMIT}"
    with pytest.raises(ShapeError, match=message):
        me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)


def test_sandwich_on_six_modes(medium_instance):
    """n_so = 6: a 14-qubit Hamiltonian encoding, run on its 64 columns."""
    ham = build_hamiltonian_pool(medium_instance, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(medium_instance), 1e-6, 1e-6)
    assert cir.ancillas(cir.one_pool_skeleton(ham, None), "ham") + 6 == 14
    sector = list(jw.sector_indices(6, 2))
    for mask in (frozenset(), frozenset([1])):
        rep, block = me.similarity_sandwich(ham, gen, mask, sector, 1e-8)
        assert rep.within_budget
        assert np.abs(block - block.conj().T).max() <= 1e-10


def test_block_consumers_never_assemble(small_pools, mixed_gen_pool, monkeypatch):
    """The sandwich, exp(sigma) and the pool encoders pass with assembly disabled.

    The CSR schedule and network unitaries are disabled too; the cached
    flag-copy and null-flip leaves are rebuilt under the patch, so the
    check does not depend on which test warmed them.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("encoding assembled or per-gate matrix built")

    monkeypatch.setattr(oracle._Node, "tocsr", forbidden)
    for module, name in (
        (cir, "execute_encoding"),
        (cir, "execute_generator_encoding"),
        (ladders, "schedule_unitary"),
        (ladders, "network_unitary"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    oracle._flag_copy.cache_clear()
    oracle.null_branch.cache_clear()
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    mask = frozenset([1, 2])
    rep, _ = me.similarity_sandwich(ham, mixed_gen_pool, mask, sector, 1e-9)
    assert rep.within_budget
    _, exp_rep = qsp.exp_sigma_block(mixed_gen_pool, mask, 1e-10)
    assert exp_rep.measured_deviation <= exp_rep.eps_poly + 1e-12
    for encoded in (
        oracle.hamiltonian_block_encoding(ham),
        oracle.generator_block_encoding(mixed_gen_pool, mask),
        oracle.channel_block_encoding(ham.channels[0].channel, ham.n_so),
    ):
        block, rep = encoded
        assert block.shape == (2**ham.n_so,) * 2
        assert rep.measured_error <= 1e-10


def test_sandwich_builds_each_dense_target_once(small_pools, mixed_gen_pool,
                                                monkeypatch):
    """One call: one Hamiltonian rebuild, one generator rebuild, one ``eigh``."""
    ham, _ = small_pools
    dim = 2**ham.n_so
    calls = {"hamiltonian_from_pool": 0, "generator_dense": 0, "eigh": 0}

    def counted(name, fn, dense_only=False):
        def wrapper(*args, **kwargs):
            if not dense_only or np.shape(args[0]) == (dim, dim):
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("hamiltonian_from_pool", "generator_dense"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    # small eigh calls (ladder spectra) are not dense-target work
    monkeypatch.setattr(
        np.linalg, "eigh", counted("eigh", np.linalg.eigh, dense_only=True)
    )
    sector = list(jw.sector_indices(4, 2))
    mask = frozenset([1, 2])
    rep, _ = me.similarity_sandwich(ham, mixed_gen_pool, mask, sector, 1e-9)
    assert rep.within_budget
    assert calls == {"hamiltonian_from_pool": 1, "generator_dense": 1, "eigh": 1}


def test_topology_invariant_blocks_differ(small_pools, mixed_gen_pool):
    """One fabric digest across four masks, yet four distinct blocks."""
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(4, plan, "full", qsp_degree=6)
    sector = list(jw.sector_indices(4, 2))
    masks = [frozenset(), frozenset([1]), frozenset([2]), frozenset([1, 2, 3])]
    blocks = []
    digests = set()
    for mask in masks:
        sheet = cir.dial(skel, ham, gen, cir.Mask.of(str(sorted(mask)), mask))
        digests.add(sheet.skeleton_fingerprint)
        _, block = me.similarity_sandwich(ham, gen, mask, sector, 1e-10)
        blocks.append(block)
    assert digests == {skel.fingerprint}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert np.abs(blocks[i] - blocks[j]).max() > 1e-6


def test_matrix_table_csv_export():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    text = me.matrix_table_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 5


def test_matrix_elements_identity_gives_gram():
    rng = np.random.default_rng(0)
    states = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(3)]
    table = me.matrix_elements(np.eye(8), states, states)
    for i in range(3):
        for j in range(3):
            assert table[i, j] == pytest.approx(np.vdot(states[i], states[j]))


def test_matrix_elements_hermitian_symmetry():
    rng = np.random.default_rng(1)
    block = rng.normal(size=(8, 8))
    block = block + block.T
    states = [rng.normal(size=8) for _ in range(3)]
    table = me.matrix_elements(block, states, states)
    assert np.abs(table - table.conj().T).max() <= 1e-12


def test_matrix_elements_basis_states_index_block():
    rng = np.random.default_rng(2)
    block = rng.normal(size=(8, 8))
    basis = [np.eye(8)[:, i] for i in (1, 4)]
    table = me.matrix_elements(block, basis, basis)
    assert table[0, 1] == pytest.approx(block[1, 4])


def test_gcim_complete_basis_reaches_exact_ground(small_instance):
    h = oracle.dense_hamiltonian(small_instance)
    idx = jw.sector_indices(4, 2)
    energies, _ = me.gcim_subspace_solve(h, sector_basis(4, 2))
    exact = np.linalg.eigvalsh(h[np.ix_(idx, idx)])[0]
    assert energies[0] == pytest.approx(exact, abs=1e-10)


def test_gcim_single_state_is_expectation(small_instance):
    h = oracle.dense_hamiltonian(small_instance)
    state = sector_basis(4, 2)[0]
    energies, _ = me.gcim_subspace_solve(h, [state])
    assert energies[0] == pytest.approx(np.vdot(state, h @ state).real)


def test_gcim_degenerate_basis_error():
    # the Gram matrix of nonzero states always keeps its top direction at
    # any sub-unit relative cut, so the fully-degenerate guard fires only
    # when the threshold excludes even the largest eigenvalue
    h = np.eye(4)
    state = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateBasisError):
        me.gcim_subspace_solve(h, [state, state], s_threshold=2.0)
    with pytest.raises(ValidationError):
        me.gcim_subspace_solve(h, [np.zeros(4)])


def test_gcim_monotone_refinement(small_instance):
    rng = np.random.default_rng(5)
    h = oracle.dense_hamiltonian(small_instance)
    basis = sector_basis(4, 2)
    rng.shuffle(basis)
    prev = np.inf
    for k in range(1, len(basis) + 1):
        energies, _ = me.gcim_subspace_solve(h, basis[:k])
        assert energies[0] <= prev + 1e-10
        prev = energies[0]


def test_toy_generators_commute():
    toy = me.toy_two_generator_instance()
    comm = toy.sigma1 @ toy.sigma2 - toy.sigma2 @ toy.sigma1
    assert np.abs(comm).max() <= 1e-14


def test_toy_ordering_strict():
    toy = me.toy_two_generator_instance()
    e_single = float(np.vdot(toy.reference, toy.hamiltonian @ toy.reference).real)
    e3, _ = me.gcim_subspace_solve(toy.hamiltonian, me.toy_basis_states(toy))
    _, e_swept = me.swept_coordinate_minimum(toy)
    assert e_swept < e3[0] - 1e-4
    assert e3[0] < e_single - 1e-4


def test_toy_swept_minimum_matches_fine_grid():
    """Independent oracle: dense grid plus parabolic refinement."""
    toy = me.toy_two_generator_instance()
    _, e_module = me.swept_coordinate_minimum(toy)
    rs = np.linspace(-3.0, 3.0, 6001)
    energies = np.array([me.toy_sweep_energy(toy, r) for r in rs])
    k = int(np.argmin(energies))
    # parabola through the three best points
    x = rs[k - 1 : k + 2]
    y = energies[k - 1 : k + 2]
    a, b, c = np.polyfit(x, y, 2)
    r_star = -b / (2 * a)
    e_oracle = me.toy_sweep_energy(toy, r_star)
    assert e_module == pytest.approx(e_oracle, abs=1e-8)
