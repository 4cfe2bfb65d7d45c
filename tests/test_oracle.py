import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from composer import circuit_ir as cir
from composer import jw, ladders, oracle
from composer.errors import CapacityError, MaskError, ShapeError
from composer.factorization import (
    BilinearLadder,
    ChannelLadder,
    HamiltonianPool,
    OneBodyModeLadder,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import IntegralSet, synth_instance
from conftest import PairLadder, adaptor_targets, ladders_of, line_value_index, pool_of
from conftest import sector_block


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
    mask = () if gen is None else gen.branches.address.tolist()
    return skel, cir.dial(skel, ham, gen, mask)


def generator_adaptor(lad, n_occ, n_virt):
    """Executed branch of a one-ladder generator pool's adaptor, and its target."""
    gen = pool_of((lad,), n_occ=n_occ, n_virt=n_virt)
    skel, sheet = dialed(None, gen)
    target = adaptor_targets(None, gen)["gen/1"]
    return cir.execute_encoding(skel, sheet, "gen/1"), target


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
    err = oracle.restricted_block_error(w, target, 2)
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
    err = oracle.restricted_block_error(w, target, 2, sector=2)
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
    gen = pool_of(ladders_, n_occ=1, n_virt=2)
    skel = cir.one_pool_skeleton(None, gen)
    sheet = cir.dial(skel, None, gen, [2])
    zero = np.zeros((2**n, 2**n), dtype=complex)
    w = cir.execute_encoding(skel, sheet, "gen/2")
    # the branch alone encodes i(L - L^dag)/2 for orthonormal u, v: norm 1/2
    err = oracle.restricted_block_error(w, zero, 2)
    assert err == pytest.approx(0.5, abs=1e-10)
    block = oracle.extract_block(cir.execute_encoding(skel, sheet, "gen"), n)
    assert np.abs(block).max() == 0.0


def _rotated_diagonal_blocks(ch, n):
    """Unsquared channel gadget: block ``O_mu / Gamma_mu``, on each sector
    ``N = 0..n`` in turn.

    The channel adaptor's own lines without their final ``square`` marker,
    dialed and executed.
    """
    pool = HamiltonianPool((), (ChannelLadder(ch, 1.0, 0),), n_so=n, n_elec=0)
    skel = cir.one_pool_skeleton(pool, None)
    (ad,) = skel.adaptors_ham
    assert ad.layers[-1].startswith("square|")
    skel = replace(skel, adaptors_ham=(replace(ad, text=cir._text(ad.layers[:-1])),))
    skel = replace(skel, fingerprint=cir.fabric_fingerprint(skel))
    sheet = cir.dial(skel, pool, None, ())
    return [cir.execute_block(skel, sheet, "ham/0", sector) for sector in range(n + 1)]


def _max_sector_deviation(blocks, target):
    """Largest entry of each sector's block minus ``target``'s sector block."""
    return max(np.abs(block - sector_block(target, sector)).max()
               for sector, block in enumerate(blocks))


def test_channel_single_mode_is_occupation():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, 0.0])), 1e-10
    )
    assert ch.rank == 1
    cr, an = jw.jw_ladder_ops(n)
    target = (cr[0] @ an[0]).toarray()
    assert _max_sector_deviation(_rotated_diagonal_blocks(ch, n), target) <= 1e-12


def test_channel_two_branch_signs():
    from composer.factorization import CholeskyChannel, channel_eigendecomp

    n = 2
    ch = channel_eigendecomp(
        CholeskyChannel(index=0, factor=np.diag([1.0, -1.0])), 0.0
    )
    assert ch.gamma == pytest.approx(2.0)
    cr, an = jw.jw_ladder_ops(n)
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert _max_sector_deviation(_rotated_diagonal_blocks(ch, n), target) <= 1e-12


def test_channel_square_matches_dense_square():
    ints = synth_instance(4, 2, 2)
    pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
    ch = pool.channels[0].channel
    n = ints.n_so
    block, rep = oracle.channel_block_encoding(ch, n)
    o_mu = oracle.channel_operator(ch, n)
    target = o_mu @ o_mu / ch.gamma**2
    assert np.abs(block - target).max() <= 1e-10
    assert rep.ancillas == max(int(np.ceil(np.log2(ch.rank))), 0) + 2
    # the encoder's skeleton and sheet, assembled: the unitary behind the block
    pool = HamiltonianPool((), (ChannelLadder(ch, 1.0, 0),), n_so=n, n_elec=0)
    skel, sheet = dialed(pool, None)
    w = cir.execute_encoding(skel, sheet, "ham/0")
    assert w.shape[0] == 2 ** (rep.ancillas + n)
    assert np.abs(oracle.extract_block(w, n) - block).max() <= 1e-13
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


def _loop_dense_hamiltonian(ints):
    """The sparse-loop Hamiltonian the scatter maps replaced: one term at a time."""
    n = ints.n_so
    cr, an = jw.jw_ladder_ops(n)
    out = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for p in range(n):
        for q in range(n):
            if ints.h[p, q] != 0.0:
                out = out + ints.h[p, q] * (cr[p] @ an[q])
    for p, q, r, s in np.ndindex(*(n,) * 4):
        if p != q and r != s and ints.eri[p, q, r, s] != 0.0:
            left, right = cr[p] @ cr[q], an[s] @ an[r]
            out = out + (0.5 * ints.eri[p, q, r, s]) * (left @ right)
    return out.toarray() + ints.e_nn * np.eye(2**n)


def _loop_pair_ladder(lad, n_occ, n):
    """The sparse-loop ``B^dag[U] B[V]`` the two-body map replaced."""
    cr, _ = jw.jw_ladder_ops(n)
    uv, vo = lad.virtual_pair_vector(), lad.occupied_pair_vector()
    bu = sum(uv[k] * (cr[n_occ + a] @ cr[n_occ + b])
             for k, (a, b) in enumerate(ladders.pair_indices(len(lad.x))))
    bv = sum(vo[k] * (cr[i] @ cr[j])
             for k, (i, j) in enumerate(ladders.pair_indices(len(lad.r))))
    return (bu @ bv.conj().T).toarray()


def sparse_coefficients(seed, shape, zeros):
    """Random complex array with about a ``zeros`` fraction of exact zeros."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coef[rng.random(shape) < zeros] = 0.0
    return coef


coefficient_draws = dict(
    n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
)


@settings(max_examples=30, deadline=None)
@given(**coefficient_draws)
def test_one_body_operator_matches_ladder_products(n, seed, zeros):
    """``sum h_pq a_p^dag a_q`` from the map equals the explicit product sum."""
    cr, an = jw.jw_ladder_ops(n)
    h = sparse_coefficients(seed, (n, n), zeros)
    plain = sum(h[p, q] * (cr[p] @ an[q]).toarray() for p, q in np.ndindex(n, n))
    assert np.abs(oracle.one_body_operator(h, n) - plain).max() <= 1e-13


@settings(max_examples=30, deadline=None)
@given(**coefficient_draws)
def test_two_body_operator_matches_ladder_products(n, seed, zeros):
    """``sum g a_p^dag a_q^dag a_s a_r`` over pair columns equals the product sum."""
    cr, an = jw.jw_ladder_ops(n)
    pairs = ladders.pair_indices(n)
    g = sparse_coefficients(seed, (len(pairs),) * 2, zeros)
    plain = np.zeros((2**n, 2**n), dtype=complex)
    for (k, (p, q)), (m, (r, s)) in itertools.product(enumerate(pairs), repeat=2):
        plain += g[k, m] * (cr[p] @ cr[q] @ an[s] @ an[r]).toarray()
    assert np.abs(oracle.two_body_operator(g, n) - plain).max() <= 1e-13


@settings(max_examples=20, deadline=None)
@given(**coefficient_draws, flips=st.integers(0, 7))
def test_dense_hamiltonian_gathers_every_ordered_quadruple(n, seed, zeros, flips):
    """Repeated modes, zeros and (anti)symmetric duplicates all land on the pairs.

    Each set bit of ``flips`` adds a copy of the tensor on one swapped
    ordering, signed ``(-1)**bit``, so the pair gathering meets duplicates
    that add up or cancel.
    """
    eri = sparse_coefficients(seed, (n,) * 4, zeros)
    for bit, axes in enumerate([(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]):
        if flips >> bit & 1:
            eri = eri + (-1) ** bit * eri.transpose(axes)
    h = sparse_coefficients(seed + 1, (n, n), zeros)
    ints = IntegralSet(n // 2, n, 0, 0.25, h, eri)
    got = oracle.dense_hamiltonian(ints)
    assert got.dtype == complex
    assert np.abs(got - _loop_dense_hamiltonian(ints)).max() <= 1e-13


@pytest.mark.parametrize("spec", ["7:2:2", "3:3:2", "7:4:2"])
def test_references_match_the_sparse_loops(spec):
    """The Hamiltonian and each pair ladder equal the old sparse-loop builders."""
    ints = synth_instance(*(int(x) for x in spec.split(":")))
    n = ints.n_so
    ham = oracle.dense_hamiltonian(ints)
    assert np.abs(ham - _loop_dense_hamiltonian(ints)).max() <= 1e-13
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    for lad in ladders_of(gen):
        dense = oracle.dense_pair_ladder(
            lad.virtual_pair_vector(), lad.occupied_pair_vector(), gen.n_occ, n)
        assert np.abs(dense - _loop_pair_ladder(lad, gen.n_occ, n)).max() <= 1e-13


def test_only_the_scatter_maps_read_ladder_operators():
    """In ``src/``, ``jw_ladder_ops`` is called only by the two scatter maps, so
    every dense reference goes through one kernel, and the gate maps the
    execution runs (bit arithmetic) share nothing with it."""
    allowed = {("oracle", "_one_body_map"), ("oracle", "_two_body_map")}
    callers = set()
    for path in Path(oracle.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = getattr(node, "func", None)
                name = getattr(callee, "attr", getattr(callee, "id", None))
                if isinstance(node, ast.Call) and name == "jw_ladder_ops":
                    callers.add((path.stem, func.name))
    assert callers == allowed


# calls that change a container in place
_MUTATORS = {"clear", "update", "setdefault", "pop", "append", "add", "extend"}


def _root(node):
    """The name a chain of attributes and subscripts starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_function_writes_a_module_level_name():
    """No function in ``src/`` writes a name its module binds at the top
    level (an assigned value or a class): no ``global``, no item or
    attribute store or delete, no in-place container call.  What is kept
    across calls lives in ``lru_cache``s of pure functions, and constant
    tables such as ``circuit_ir.LINE_VALUES`` are only read."""
    writes = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        shared = {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    shared.update(n.id for n in ast.walk(target)
                                  if isinstance(n, ast.Name))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            local = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
            local.update(n.id for n in ast.walk(func)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
            for node in ast.walk(func):
                stored = (isinstance(node, (ast.Attribute, ast.Subscript))
                          and isinstance(node.ctx, (ast.Store, ast.Del))
                          and _root(node))
                called = (isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr in _MUTATORS and _root(node.func.value))
                name = stored or called
                if isinstance(node, ast.Global) or name in shared - local:
                    writes.append(f"{path.name}:{node.lineno} {name or 'global'}")
    assert not writes, sorted(set(writes))


def test_cached_leaves_unchanged_by_verify_and_sandwich(
    small_pools, mixed_gen_pool, tmp_path
):
    """The angle-free leaves are built once, read-only, and never altered."""
    from composer import cli, mask_engine

    leaves = {
        "flag_copy": (oracle._flag_copy, (0, 4)),
        "vacuum_reflection": (oracle.vacuum_reflection_gadget, (4,)),
        "null_branch": (oracle.null_branch, (4,)),
        "one_body_map": (oracle._one_body_map, (4,)),
        "two_body_map": (oracle._two_body_map, (4,)),
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
    branch = cir.execute_encoding(skel, sheet, "ham/0")
    w = cir.execute_encoding(skel, sheet, "ham")
    dim = branch.shape[0]
    assert np.abs((w[:dim, :dim] + branch).toarray()).max() <= 1e-14


def test_lcu_two_diagonal_branches_with_signs():
    n = 2
    cr, an = jw.jw_ladder_ops(n)
    pool = HamiltonianPool(
        (_mode([1.0, 0.0], 1.0, 0), _mode([0.0, 1.0], -1.0, 1)), (), n, 1
    )
    skel, sheet = dialed(pool, None)
    w = cir.execute_encoding(skel, sheet, "ham")
    target = ((cr[0] @ an[0]) - (cr[1] @ an[1])).toarray() / 2.0
    assert np.abs(oracle.extract_block(w, n) - target).max() <= 1e-12


def test_lcu_capacity_error():
    n = 2
    b = oracle._flag_copy(0, n)
    with pytest.raises(CapacityError):
        oracle._prep_select_prep(np.array([1.0, 0.0]), [b] * 3, [1.0] * 3, n, 1)


def test_full_hamiltonian_block_encoding(small_instance, small_pools):
    ham, _ = small_pools
    block, rep = oracle.hamiltonian_block_encoding(ham)
    assert rep.measured_error <= 1e-9
    assert_unitary(cir.execute_encoding(*dialed(ham, None), "ham"))
    assert block.shape == (math.comb(ham.n_so, ham.n_elec),) * 2
    # against the Hamiltonian built directly from the integrals: the
    # deviation picks up only the factorization truncation on top of the
    # numerically exact multiplexing
    tau = 1e-10
    target = (
        oracle.dense_hamiltonian(small_instance, include_e_nn=False) / ham.alpha
    )
    err = oracle.sector_norm(block - sector_block(target, ham.n_elec))
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
        wb = cir.execute_encoding(skel, sheet, address)
        eps_s = oracle.restricted_block_error(
            wb, targets[address], cir.ancillas(skel, address), sector=ham.n_elec
        )
        if lad.kind == "one_body_mode":
            alpha_s = lad.multiplicity
        else:
            alpha_s = lad.channel.gamma**2
        eps_terms.append(abs(lad.coefficient) * alpha_s * eps_s)
    target = oracle.hamiltonian_from_pool(ham) / ham.alpha
    w = cir.execute_encoding(skel, sheet, "ham")
    err = oracle.restricted_block_error(
        w, target, cir.ancillas(skel, "ham"), sector=ham.n_elec
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
    """n_so = 6: 14 qubits exceed the assembly cap, and no gadget is built first."""
    ham = build_hamiltonian_pool(medium_instance, 1e-8, 0.0)
    skel, sheet = dialed(ham, None)

    def forbidden(*args, **kwargs):
        raise AssertionError("gadget built before the size check")

    for module, name in GADGET_BUILDERS:
        monkeypatch.setattr(module, name, forbidden)
    message = "assembly needs 14 qubits; the oracle caps at 13"
    with pytest.raises(ShapeError, match=message):
        cir.execute_encoding(skel, sheet, "ham")


def test_generator_empty_mask_is_null(small_pools):
    _, gen = small_pools
    block, rep = oracle.generator_block_encoding(gen, frozenset())
    assert block.shape == (math.comb(gen.n_so, gen.sector),) * 2
    assert np.abs(block).max() == 0.0


def test_generator_single_ladder(mixed_gen_pool):
    gen = mixed_gen_pool
    _, rep = oracle.generator_block_encoding(gen, frozenset([1]))
    assert rep.measured_error <= 1e-10
    skel = cir.one_pool_skeleton(None, gen)
    sheet = cir.dial(skel, None, gen, frozenset([1]))
    assert_unitary(cir.execute_encoding(skel, sheet, "gen"))


def test_generator_masks_share_global_normalization(mixed_gen_pool):
    gen = mixed_gen_pool
    _, rep1 = oracle.generator_block_encoding(gen, frozenset([1]))
    _, rep2 = oracle.generator_block_encoding(gen, frozenset([2, 3]))
    assert rep1.alpha == rep2.alpha == pytest.approx(gen.alpha_bar)


def test_generator_mask_validation(small_pools):
    _, gen = small_pools
    with pytest.raises(MaskError):
        oracle.generator_block_encoding(gen, frozenset([99]))
    empty = pool_of((), n_occ=2, n_virt=2, n_elec=2)
    with pytest.raises(MaskError):
        oracle.generator_block_encoding(empty, frozenset([1]))


def test_restricted_block_error_identity():
    n = 2
    target = np.eye(2**n, dtype=complex)
    assert oracle.restricted_block_error(np.eye(4), target, 0) == 0.0
    with pytest.raises(ShapeError, match="not 2"):
        oracle.restricted_block_error(np.eye(3), np.eye(3), 0)


def test_restricted_block_error_perturbation_scaling():
    """One perturbed dialed angle: error scales linearly over two decades."""
    rng = np.random.default_rng(4)
    n = 3
    u, v = orthonormal_pair(rng, n)
    gen = pool_of(
        (BilinearLadder(u=u, v=v, coefficient=0.8, address=1),), n_occ=1, n_virt=2
    )
    skel, sheet = dialed(None, gen)
    target = adaptor_targets(None, gen)["gen/1"]
    ad = skel.adaptors_gen[1]
    first_givens = next(k for k, ln in enumerate(ad.layers) if ln.startswith("givens|"))
    slot = line_value_index(skel, "gen", 1, first_givens)  # mode 0's first angle

    def perturbed_error(delta):
        values = sheet.values.copy()
        values[slot] += delta
        w = cir.execute_encoding(skel, replace(sheet, values=values), "gen/1")
        return oracle.restricted_block_error(w, target, 2, sector=1)

    assert perturbed_error(0.0) <= 1e-14
    e4 = perturbed_error(1e-4)
    e2 = perturbed_error(1e-2)
    assert 1e-6 <= e4 <= 1e-2
    assert e2 / e4 == pytest.approx(100.0, rel=0.05)


def test_every_constructed_unitary_is_unitary(small_pools, mixed_gen_pool):
    """The unitaries behind both pool encoders' blocks: same skeletons and sheets."""
    ham, _ = small_pools
    skel, sheet = dialed(ham, None)
    w1 = cir.execute_encoding(skel, sheet, "ham")
    skel = cir.one_pool_skeleton(None, mixed_gen_pool)
    w2 = cir.execute_encoding(skel, cir.dial(skel, None, mixed_gen_pool, [1, 2]), "gen")
    for w in (w1, w2):
        assert_unitary(w)


def test_blocks_preserve_hamming_sectors(small_pools, mixed_gen_pool):
    """Both assembled encodings' blocks are block-diagonal over Hamming
    weight, and every sector's column run passes its leak check."""
    ham, _ = small_pools
    n = ham.n_so
    assert mixed_gen_pool.ell == 3  # the full mask is {1, 2, 3}
    for pools, side in (((ham, None), "ham"), ((None, mixed_gen_pool), "gen")):
        skel, sheet = dialed(*pools)
        w = cir.execute_encoding(skel, sheet, side)
        assert oracle.assert_sector_preserving(oracle.extract_block(w, n), n)
        for sector in range(n + 1):
            cir.execute_block(skel, sheet, side, sector)


# ---------------------------------------------------------------------------
# assembly by index arithmetic against scipy's kron and block_diag
# ---------------------------------------------------------------------------

PHASES = (None, 1.0, -1.0, 1j, -1j, np.exp(0.3j))


def random_op(seed, qubits, density, stored_zeros, dense):
    """Random complex ``2**qubits`` square op, dense or CSR.

    The CSR form keeps ``stored_zeros`` of its entries as explicit zeros
    and stores each row's indices in a shuffled order.
    """
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat[rng.random((dim, dim)) >= density] = 0.0
    if dense:
        return mat
    rows, cols = np.nonzero(mat)
    data = mat[rows, cols]
    data[rng.permutation(len(data))[:stored_zeros]] = 0.0
    order = np.lexsort((rng.random(len(rows)), rows))
    indptr = np.searchsorted(rows[order], np.arange(dim + 1)).astype(np.int32)
    return sparse.csr_matrix(
        (data[order], cols[order].astype(np.int32), indptr), shape=(dim, dim)
    )


def assert_same_matrix(got, ref):
    """CSR with equal values, equal stored entries and sorted rows."""
    assert got.format == "csr" and got.indices.dtype == np.int32
    assert got.has_sorted_indices
    assert got.nnz == ref.nnz
    assert np.array_equal(got.toarray(), ref.toarray())


ops = st.builds(
    random_op,
    seed=st.integers(0, 2**32 - 1),
    qubits=st.integers(0, 3),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    stored_zeros=st.integers(0, 3),
    dense=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(op=ops, extra=st.integers(0, 3), phase=st.sampled_from(PHASES))
def test_lift_matches_kron(op, extra, phase):
    """``phase * (I (x) op)``: the block copies equal ``sparse.kron`` with ``I``."""
    got = oracle._Lift(op, extra, phase).tocsr()
    ref = sparse.kron(sparse.identity(2**extra), op, format="csr")
    if phase is not None:
        ref = phase * ref
    assert_same_matrix(got, ref)


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(ops, min_size=1, max_size=4))
def test_direct_sum_matches_block_diag(blocks):
    """The joined block arrays equal ``sparse.block_diag``, entry order included."""
    blocks = [sparse.csr_matrix(b) for b in blocks]
    got = oracle._direct_sum(blocks)
    ref = sparse.block_diag(blocks, format="csr")
    assert_same_matrix(got, ref)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)


def sparse_amplitudes(weights):
    """Normalized nonnegative amplitudes from weights, some of them zero."""
    amps = np.sqrt(np.asarray(weights, dtype=float))
    return amps / np.linalg.norm(amps)


amplitudes = st.integers(0, 4).flatmap(
    lambda k: st.lists(
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=2**k, max_size=2**k
    ).filter(any).map(sparse_amplitudes)
)


@settings(max_examples=60, deadline=None)
@given(amps=amplitudes, qubits=st.integers(0, 4))
def test_prep_kron_matches_kron(amps, qubits):
    """``P (x) I`` and ``P^T (x) I`` of a Householder prep with zero amplitudes."""
    prep = oracle._householder_prep(amps)
    for p in (prep, prep.T):
        got = oracle._kron_eye(p, 2**qubits)
        ref = sparse.kron(p, sparse.identity(2**qubits), format="csr")
        assert_same_matrix(got, ref)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def old_prep_select_prep(prep, branches, phases, workspace, n):
    """The scipy-constructor assembly: kron lifts, block_diag SELECT, kron PREPs."""
    eye = sparse.identity(2 ** (workspace + n), format="csr")
    blocks = [eye] * len(prep)
    for s, (op, phase) in enumerate(zip(branches, phases)):
        extra = workspace + n - int(np.log2(op.shape[0]))
        blocks[s] = sparse.kron(sparse.identity(2**extra), op, format="csr") * phase
    select = sparse.block_diag(blocks, format="csr")
    return (
        sparse.kron(prep.T, eye, format="csr")
        @ select
        @ sparse.kron(prep, eye, format="csr")
    )


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    amps=amplitudes.filter(lambda a: len(a) > 1),
    workspace=st.integers(0, 2),
)
def test_prep_select_prep_matches_scipy_assembly(data, amps, workspace):
    """Same left-to-right products over the same operands: equal to the last bit."""
    n = 2
    count = data.draw(st.integers(1, len(amps)), label="branches")
    branches = [
        data.draw(
            st.builds(random_op, seed=st.integers(0, 2**32 - 1),
                      qubits=st.integers(n, n + workspace), density=st.just(0.4),
                      stored_zeros=st.integers(0, 2), dense=st.booleans()),
            label=f"branch {s}",
        )
        for s in range(count)
    ]
    phases = data.draw(
        st.lists(st.sampled_from(PHASES[1:]), min_size=count, max_size=count),
        label="phases",
    )
    got = oracle._prep_select_prep(amps, branches, phases, n, workspace).tocsr()
    prep = oracle._householder_prep(amps)
    ref = old_prep_select_prep(prep, branches, phases, workspace, n)
    assert got.nnz == ref.nnz
    assert got.toarray().tobytes() == ref.toarray().tobytes()


# ---------------------------------------------------------------------------
# the unitarity residual against the sparse Gram expression it replaces
# ---------------------------------------------------------------------------


def gram_expression(w):
    """``max |W^dag W - I|`` as one sparse expression: the reference."""
    return float(abs(w.conj().T @ w - sparse.identity(w.shape[0], format="csr")).max())


def near_unitary(seed, qubits, kind):
    """A phased permutation (exactly unitary), or one with a dropped column."""
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    phases = np.exp(2j * np.pi * rng.random(dim))
    if kind == "scaled":
        phases[rng.integers(dim)] *= 1 + 1e-9
    w = sparse.csr_matrix((phases, (rng.permutation(dim), np.arange(dim))), shape=(dim, dim))
    if kind == "dropped":  # a zero column: a Gram diagonal entry goes missing
        w = w @ sparse.diags(np.r_[np.zeros(1), np.ones(dim - 1)])
    return w


gram_inputs = st.one_of(
    st.builds(random_op, seed=st.integers(0, 2**32 - 1), qubits=st.integers(0, 4),
              density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
              stored_zeros=st.integers(0, 3), dense=st.just(False)),
    st.builds(near_unitary, seed=st.integers(0, 2**32 - 1), qubits=st.integers(0, 4),
              kind=st.sampled_from(["exact", "scaled", "dropped"])),
)


@settings(max_examples=80, deadline=None)
@given(w=gram_inputs, rows=st.sampled_from([1, 3, 4, oracle._GRAM_ROWS]))
def test_unitarity_residual_has_the_bits_of_the_gram_expression(w, rows):
    """Random complex CSR matrices (empty rows, missing diagonals, unsorted
    indices, stored zeros) and near-unitary ones, read in row blocks of
    every size: equal to the reference bit for bit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_GRAM_ROWS", rows)
        assert oracle.unitarity_residual(w).hex() == gram_expression(w).hex()


@pytest.mark.parametrize("synth", ["1:2:2", "7:3:2", "7:4:2"])
def test_unitarity_residual_is_exact_on_verify_encodings(synth):
    """n_so = 4, 6 and 8: the generator unitary ``composer verify`` checks,
    for the empty, first and full masks (full alone at n_so = 8), and its
    scaled copy: the residual has the bits of the Gram expression."""
    ints = synth_instance(*map(int, synth.split(":")))
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    skel = cir.compile_skeleton(ints.n_so, cir.pivots_from_pools(ham, gen))
    full = gen.branches.address.tolist()
    masks = [full] if ints.n_so == 8 else [[], full[:1], full]
    for mask in masks:
        w = cir.execute_generator_encoding(skel, cir.dial(skel, ham, gen, mask))
        for case in (w, w * (1 + 1e-9)):
            assert oracle.unitarity_residual(case).hex() == gram_expression(case).hex()
