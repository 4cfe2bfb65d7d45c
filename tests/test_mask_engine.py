import csv
import dataclasses
import io
import json
import math
import tracemalloc

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
from composer.factorization import (
    BilinearLadder,
    GeneratorPool,
    HamiltonianPool,
    OneBodyModeLadder,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance


def clear_caches():
    """Empty the adaptor-run and Hamiltonian-half caches: the next sandwich is cold."""
    cir._adaptor_run.cache_clear()
    me._hamiltonian_half.cache_clear()


def sector_basis(n, n_elec):
    return [
        np.eye(2**n, dtype=complex)[:, i] for i in jw.sector_indices(n, n_elec)
    ]


def test_model_space_projector_rejects_wrong_sector():
    with pytest.raises(SectorError):
        me.model_space_projector([1], 4, 2)  # weight-1 determinant


def test_model_space_projector_indexes_the_sector():
    """The projector is over the sector's positions: determinant 5 is position 1."""
    assert jw.sector_indices(4, 2)[1] == 5
    proj = me.model_space_projector([5, 12], 4, 2)
    assert proj.shape == (6, 6)
    assert np.array_equal(np.diag(proj), [0, 1, 0, 0, 0, 1])
    with pytest.raises(ShapeError):
        me.model_space_projector([16], 4, 2)


def test_sandwich_empty_mask_is_hamiltonian_only(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    sector = list(jw.sector_indices(4, 2))
    rep, block = me.similarity_sandwich(
        ham, mixed_gen_pool, frozenset(), sector, 1e-10
    )
    assert block.shape == (6, 6)
    on_sector = np.ix_(sector, sector)
    h_exact = (oracle.hamiltonian_from_pool(ham) / ham.alpha)[on_sector]
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


def test_sandwich_report_of_numpy_model_space_serializes(small_pools, mixed_gen_pool):
    """``jw.sector_indices`` yields NumPy integers; the report holds Python ints."""
    ham, _ = small_pools
    sector = jw.sector_indices(4, 2)
    rep, _ = me.similarity_sandwich(ham, mixed_gen_pool, frozenset([1]), sector, 1e-9)
    assert all(type(i) is int for i in rep.model_space)
    assert json.loads(rep.to_json())["model_space"] == sorted(sector.tolist())


FORBIDDEN_BEFORE_SIZE_CHECK = (
    (oracle, "hamiltonian_block_encoding"),
    (oracle, "generator_block_encoding"),
    (oracle, "hamiltonian_from_pool"),
    (oracle, "generator_dense"),
    (oracle, "column_block"),
    (cir, "execute_encoding"),
    (cir, "execute_generator_encoding"),
    (cir, "execute_block"),
)
COLUMN_LIMIT = 4**jw.MAX_QUBITS  # amplitudes in the largest dense operator


def _forbid_building(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("encoding built before the size check")

    for module, name in FORBIDDEN_BEFORE_SIZE_CHECK:
        monkeypatch.setattr(module, name, forbidden)


def test_sandwich_rejects_oversized_register_before_building(monkeypatch):
    """n_so = 10, N = 4: a channel's run needs 5 slabs of 2**16 rows x C(10, 4)
    sector columns, beyond the limit; nothing is built.

    Adaptors 0-4 are mode groups on two workspace qubits, 5-9 channels on
    six; the first of the widest is named.  At N = 2 (45 columns) the same
    run fits.
    """
    instance = synth_instance(3, 5, 4)
    ham = build_hamiltonian_pool(instance, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(instance), 1e-6, 1e-6)
    _forbid_building(monkeypatch)
    needed = (cir.RUN_COPIES * 2**16 + 2**10) * math.comb(10, 4)
    sector = list(jw.sector_indices(10, 4))
    message = f"Hamiltonian adaptor 5 column run needs {needed} .*allows {COLUMN_LIMIT}"
    with pytest.raises(ShapeError, match=message):
        me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-8)
    skel = cir.one_pool_skeleton(ham, None)
    assert cir.check_column_batch(skel, "ham", 2) <= COLUMN_LIMIT


def test_sandwich_rejects_oversized_generator_register_before_building(monkeypatch):
    """n_so = 12, N = 3 (220 sector columns): the Hamiltonian, one rank-1 mode
    group on one workspace qubit, fits; the generator's bilinear adaptor, on
    two, does not.  Nothing is built.
    """
    n, n_elec = 12, 3
    modes = np.eye(n, dtype=complex)
    ham = HamiltonianPool(
        (OneBodyModeLadder(vectors=modes[:, :1], coefficient=0.5, address=0),),
        (), n, n_elec,
    )
    gen = GeneratorPool(
        (BilinearLadder(u=modes[:, 3], v=modes[:, 0], coefficient=0.1, address=1),),
        n_occ=n_elec, n_virt=n - n_elec,
    )
    _forbid_building(monkeypatch)
    sector = list(jw.sector_indices(n, n_elec))
    fits = (cir.RUN_COPIES * 2**13 + 2**12) * 220
    needed = (cir.RUN_COPIES * 2**14 + 2**12) * 220
    assert fits <= COLUMN_LIMIT < needed
    message = f"generator adaptor 1 column run needs {needed} .*allows {COLUMN_LIMIT}"
    with pytest.raises(ShapeError, match=message):
        me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)


def test_sandwich_rejects_pools_of_different_sectors(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    other = GeneratorPool(mixed_gen_pool.ladders, mixed_gen_pool.n_occ,
                          mixed_gen_pool.n_virt, n_elec=3)
    with pytest.raises(SectorError, match="generator sector N=3 differs"):
        me.similarity_sandwich(ham, other, frozenset([1]), [3], 1e-9)


def test_the_n8_sandwich_holds_no_more_than_its_column_runs_allow():
    """n_so = 8 (synth 7:4:2): the traced peak of one sandwich, caches cold or
    warm, stays under the bytes ``check_column_batch`` computes for its
    wider side's run, 16 to a complex amplitude.  The all-column
    multiplexed run peaked near 590 MB here.  Each traced run starts from
    emptied adaptor-run and Hamiltonian-half caches, so every branch is
    built and run; the run cache then holds one ``C x C`` sector block per adaptor at most.
    """
    ints = synth_instance(7, 4, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    sector = list(jw.sector_indices(8, 2))
    allowed = 16 * max(
        cir.check_column_batch(cir.one_pool_skeleton(ham, None), "ham", 2),
        cir.check_column_batch(cir.one_pool_skeleton(None, gen), "gen", 2),
    )
    for _ in range(2):
        clear_caches()
        tracemalloc.start()
        try:
            rep, block = me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.within_budget and block.shape == (28, 28)
        assert peak <= allowed, f"{peak} bytes traced, {allowed} allowed"
        assert 0 < cir._adaptor_run.cache_info().currsize <= ham.ell + gen.ell + 1


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
    # the pool encoders' blocks are the six-determinant sector's, the
    # channel's the whole register's, every sector on its diagonal
    for encoded, dim in (
        (oracle.hamiltonian_block_encoding(ham), 6),
        (oracle.generator_block_encoding(mixed_gen_pool, mask), 6),
        (oracle.channel_block_encoding(ham.channels[0].channel, ham.n_so), 16),
    ):
        block, rep = encoded
        assert block.shape == (dim, dim)
        assert rep.measured_error <= 1e-10


def test_sandwich_builds_each_dense_target_once(small_pools, mixed_gen_pool,
                                                monkeypatch):
    """One call: one Hamiltonian rebuild, one generator rebuild, one ``eigh``,
    of the six-determinant sector block."""
    ham, _ = small_pools
    dim = math.comb(ham.n_so, ham.n_elec)
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
    me._hamiltonian_half.cache_clear()  # a cold call, whatever an earlier test kept
    rep, _ = me.similarity_sandwich(ham, mixed_gen_pool, mask, sector, 1e-9)
    assert rep.within_budget
    assert calls == {"hamiltonian_from_pool": 1, "generator_dense": 1, "eigh": 1}


@pytest.mark.parametrize("synth", [(1, 2, 2), (7, 3, 2)])
def test_the_sandwich_halves_are_the_encoders_own(synth):
    """n_so = 4 and 6: the sandwich's ``eps_ham`` and ``eps_exp`` are, bit
    for bit, the Hamiltonian encoder's error and ``exp_sigma_block``'s
    deviation, cold or on kept runs."""
    ints = synth_instance(*synth)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    sector = list(jw.sector_indices(ints.n_so, ints.n_elec))
    clear_caches()
    for mask in (frozenset(), frozenset([1]), frozenset(range(1, gen.ell + 1))):
        rep, _ = me.similarity_sandwich(ham, gen, mask, sector, 1e-9)
        _, ham_rep = oracle.hamiltonian_block_encoding(ham)
        _, exp_rep = qsp.exp_sigma_block(gen, mask, 1e-9)
        assert rep.eps_ham.hex() == ham_rep.measured_error.hex(), mask
        assert rep.eps_exp.hex() == exp_rep.measured_deviation.hex(), mask


def _mask_sweep(ham, gen):
    """Masks {}, {1}, {2}, {1, 2} and full, then back: every re-dial kind."""
    full = frozenset(range(1, gen.ell + 1))
    masks = [frozenset(), frozenset([1]), frozenset([2]), frozenset([1, 2]), full]
    return masks + masks[::-1]


@pytest.mark.parametrize("synth", [(7, 3, 2), (7, 4, 2)])
def test_a_mask_sweep_reuses_kept_runs_bit_for_bit(synth):
    """n_so = 6 and 8: every block and report of a mask sweep, run on the
    runs and the Hamiltonian half cached by the calls before it, has the
    bytes of the same call on emptied caches."""
    ints = synth_instance(*synth)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    sector = list(jw.sector_indices(ints.n_so, ints.n_elec))
    masks = _mask_sweep(ham, gen)
    warm = [me.similarity_sandwich(ham, gen, mask, sector, 1e-9) for mask in masks]
    for mask, (rep, block) in zip(masks, warm):
        clear_caches()
        cold_rep, cold_block = me.similarity_sandwich(ham, gen, mask, sector, 1e-9)
        assert rep.to_json() == cold_rep.to_json()
        assert block.tobytes() == cold_block.tobytes()


def test_a_mask_change_runs_no_hamiltonian_branch(monkeypatch):
    """n_so = 6 (synth 7:3:2): after the first call, a re-dialed mask runs
    only the generator adaptors it weights for the first time."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    sector = list(jw.sector_indices(6, 2))
    assert ham.ell > 1 and gen.ell > 1
    me.similarity_sandwich(ham, gen, frozenset(), sector, 1e-9)
    runs = []

    def spy(*args, _run=oracle.column_block):
        runs.append(args)
        return _run(*args)

    monkeypatch.setattr(oracle, "column_block", spy)
    for mask, new in (([1], 1), ([1], 0), ([2], 1), ([1, 2], 0), ([], 0)):
        runs.clear()
        rep, _ = me.similarity_sandwich(ham, gen, frozenset(mask), sector, 1e-9)
        assert rep.within_budget and len(runs) == new, mask


def test_a_mask_change_dials_only_the_generator(monkeypatch):
    """n_so = 6 (synth 7:3:2): after the first call on a Hamiltonian pool, a
    mask-only call dials the generator alone; another pool object, even with
    equal contents, is dialed and replaces the cached half, and every report
    and block has the bytes of a call on emptied caches."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    twin = dataclasses.replace(ham)  # equal fields, another object
    other = build_hamiltonian_pool(synth_instance(8, 3, 2), 1e-10, 0.0)
    sector = list(jw.sector_indices(6, 2))
    dialed = []

    def spy(skel, ham_pool, gen_pool, mask, *rest, _dial=cir.dial):
        dialed.append("gen" if ham_pool is None else "ham")
        return _dial(skel, ham_pool, gen_pool, mask, *rest)

    clear_caches()
    monkeypatch.setattr(cir, "dial", spy)
    calls = [(ham, []), (ham, [1]), (ham, [1, 2]), (twin, [1, 2]), (twin, []),
             (other, [2]), (ham, [2]), (ham, [])]
    expected = [["ham", "gen"], ["gen"], ["gen"], ["ham", "gen"], ["gen"],
                ["ham", "gen"], ["ham", "gen"], ["gen"]]
    warm = []
    for (pool, mask), dials in zip(calls, expected):
        dialed.clear()
        warm.append(me.similarity_sandwich(pool, gen, frozenset(mask), sector, 1e-9))
        assert dialed == dials, (mask, dialed)
        assert me._hamiltonian_half.cache_info().currsize == 1
    monkeypatch.undo()
    for (pool, mask), (rep, block) in zip(calls, warm):
        clear_caches()
        cold_rep, cold_block = me.similarity_sandwich(pool, gen, frozenset(mask), sector, 1e-9)
        assert rep.to_json() == cold_rep.to_json()
        assert block.tobytes() == cold_block.tobytes()


def test_a_failed_hamiltonian_half_is_not_kept(monkeypatch):
    """A Hamiltonian half that raises is not kept: the next call runs it anew."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    sector = list(jw.sector_indices(6, 2))
    clear_caches()

    def leaking(skel, sheet, address, *rest, _run=cir.execute_block):
        if address == "ham":
            raise SectorError("the Hamiltonian leaks")
        return _run(skel, sheet, address, *rest)

    monkeypatch.setattr(cir, "execute_block", leaking)
    with pytest.raises(SectorError, match="leaks"):
        me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)
    assert me._hamiltonian_half.cache_info().currsize == 0
    monkeypatch.undo()
    rep, _ = me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)
    assert rep.within_budget and me._hamiltonian_half.cache_info().currsize == 1


def test_topology_invariant_blocks_differ(small_pools, mixed_gen_pool):
    """One fabric digest across four masks, yet four distinct blocks."""
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(4, plan, qsp_degree=6)
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


def matrix_table_csv(table):
    """CSV export of a complex matrix-element table."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "re", "im"])
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            writer.writerow([i, j, repr(table[i, j].real), repr(table[i, j].imag)])
    return buf.getvalue()


def test_matrix_table_csv_export():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    text = matrix_table_csv(table)
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
