import dataclasses
import hashlib
import json
import math
import re
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from composer import circuit_ir as cir
from composer import jw, ladders, oracle
from composer.errors import BindError, MaskError, ParseError, SectorError, ShapeError
from composer.errors import ValidationError
from composer.factorization import (
    GeneratorPool,
    HamiltonianPool,
    OneBodyModeLadder,
    build_hamiltonian_pool,
    generator_branch_alpha,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance
from composer.resources import CONTROL_OVERHEAD, block_cost, estimate
from conftest import (
    adaptor_targets,
    assert_encodes,
    line_value_index,
    mixed_generator_pool,
    older_formats,
    sector_block,
)


@pytest.fixture(scope="module")
def compiled(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(4, plan, qsp_degree=8)
    return ham, gen, skel


@pytest.fixture(scope="module")
def compiled_n6():
    """n_so = 6 at the command-line thresholds: an 11-qubit generator encoding."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    gen = mixed_generator_pool(gen, n_so=6)
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(6, plan, qsp_degree=8)
    return ham, gen, skel


def test_compile_deterministic(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    again = cir.compile_skeleton(4, plan, qsp_degree=8)
    assert again.fingerprint == skel.fingerprint


def test_minimal_sizes_selector_width():
    # single branch on each side at n = 2: width covers the null branch
    plan_min = cir.CompilePlan(
        ham=(cir.AdaptorDescriptor("one_body_mode", pivot=(0,), rank=1),),
        gen=(cir.AdaptorDescriptor("bilinear_asym", pivot=(0, 1), rank=2),),
        n_occ=1,
    )
    skel = cir.compile_skeleton(2, plan_min, qsp_degree=2)
    assert skel.selector_width == 1  # ceil(log2 max(1, 2)) = 1
    again = cir.compile_skeleton(2, plan_min, qsp_degree=2)
    assert again.fingerprint == skel.fingerprint


def test_selector_width_counts_null_branch(small_pools):
    ham, gen5 = small_pools
    gen5 = mixed_generator_pool(gen5, extra=4)  # ell_sigma = 5
    plan = cir.pivots_from_pools(ham, gen5)
    skel = cir.compile_skeleton(4, plan, qsp_degree=2)
    assert skel.selector_width == max(
        int(np.ceil(np.log2(max(ham.ell, 5 + 1)))), 1
    )
    assert skel.selector_width == 3


def test_pivot_change_changes_fingerprint(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    bumped = []
    for d in plan.ham:
        if d.kind == "one_body_mode":
            bumped.append(replace(d, pivot=tuple((p + 1) % 4 for p in d.pivot)))
        else:
            bumped.append(d)
    plan2 = replace(plan, ham=tuple(bumped))
    skel2 = cir.compile_skeleton(4, plan2, qsp_degree=8)
    assert skel2.fingerprint != skel.fingerprint


def test_swapped_addresses_change_fingerprint(compiled):
    """Two generator adaptors trade positions, so each takes the other's address."""
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    g = list(plan.gen)
    assert g[0] != g[1]
    g[0], g[1] = g[1], g[0]
    plan2 = replace(plan, gen=tuple(g))
    skel2 = cir.compile_skeleton(4, plan2, qsp_degree=8)
    assert skel2.fingerprint != skel.fingerprint


def test_fingerprint_recompute_matches(compiled):
    _, _, skel = compiled
    assert cir.fabric_fingerprint(skel) == skel.fingerprint


def _spans_per_line(skel):
    """Reference :attr:`CircuitSkeleton.slot_spans`: each line's gate looked up."""
    spans, start = {}, 0
    for side, adaptors in skel.sides():
        for a, ad in enumerate(adaptors):
            gates = (line.partition("|")[0] for line in ad.layers)
            stop = start + 1 + sum(cir.LINE_VALUES.get(g, 0) for g in gates)
            spans[side, a] = start, stop
            start = stop
    return spans


def _fingerprint_per_line(skel):
    """Reference :func:`circuit_ir.fabric_fingerprint`: the text built line by line."""
    h = hashlib.sha256()
    h.update(
        f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
        .encode()
    )
    h.update(f"n_occ|{skel.n_occ}\n".encode())
    for _, adaptors in skel.sides():
        for a, ad in enumerate(adaptors):
            pivot = json.dumps([list(p) if type(p) is tuple else p for p in ad.pivot])
            h.update(f"adaptor:{a}:{ad.kind}:{pivot}:{ad.rank}\n".encode())
            h.update("".join(line + "\n" for line in ad.layers).encode())
    for k in range(skel.qsp_degree):
        h.update(f"qsp_rep|{k}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "synth", ["7:2:2", "1:3:2", "7:3:2", "5:3:2", "1:4:4", "1:8:8"]
)
def test_spans_and_fingerprint_match_the_per_line_formulas(
    synth, compiled, compiled_n6
):
    """Spans counted on the joined text, and the fingerprint hashed from it,
    equal the per-line formulas, compiled and loaded alike.
    """
    ints = synth_instance(*map(int, synth.split(":")))
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    skeletons = [cir.one_pool_skeleton(ham, gen), cir.one_pool_skeleton(ham, None)]
    if synth == "7:2:2":  # and the module's fixtures, once
        skeletons += [compiled[2], compiled_n6[2]]
    for skel in skeletons:
        loaded = cir.CircuitSkeleton.from_json(skel.to_json())
        for s in (skel, loaded):
            assert s.slot_spans == _spans_per_line(s)
            assert s.fingerprint == cir.fabric_fingerprint(s)
            assert s.fingerprint == _fingerprint_per_line(s)


def test_dial_binds_every_slot(compiled):
    """The spans tile the stream in adaptor order, and the sheet fills it."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 2]))
    order = [(side, a) for side, adaptors in skel.sides() for a in range(len(adaptors))]
    assert list(skel.slot_spans) == order
    spans = list(skel.slot_spans.values())
    assert [start for start, _ in spans] == [0, *(stop for _, stop in spans[:-1])]
    assert len(sheet.values) == skel.n_slots == spans[-1][1]
    assert sheet.skeleton_fingerprint == skel.fingerprint


def _prep_starts(skel, side, addresses):
    """Stream positions of the PREP amplitudes of ``side``'s ``addresses``."""
    return {skel.slot_spans[side, a][0] for a in addresses}


def _changed(a, b, tol=0.0):
    return set(np.flatnonzero(np.abs(np.subtract(a.values, b.values)) > tol).tolist())


def test_dial_never_mutates_skeleton(compiled):
    ham, gen, skel = compiled
    digest_before = cir.fabric_fingerprint(skel)
    cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 2]))
    assert cir.fabric_fingerprint(skel) == digest_before == skel.fingerprint


def test_two_masks_one_skeleton(compiled):
    ham, gen, skel = compiled
    s1 = cir.dial(skel, ham, gen, cir.Mask.of("m1", [1]))
    s2 = cir.dial(skel, ham, gen, cir.Mask.of("m2", [2, 3]))
    assert s1.skeleton_fingerprint == s2.skeleton_fingerprint
    assert s1.mask_indices != s2.mask_indices


def test_mask_changes_only_prep_amplitudes(compiled):
    """Only the generator PREP amplitudes, each its span's first value, change."""
    ham, gen, skel = compiled
    full, empty = (
        cir.dial(skel, ham, gen, cir.Mask.of(label, mask))
        for label, mask in (("full", [1, 2, 3]), ("empty", []))
    )
    assert _changed(full, empty) == _prep_starts(skel, "gen", [0, 1, 2, 3])


def test_coefficient_rescale_changes_only_amplitudes(compiled):
    ham, gen, skel = compiled
    doubled = GeneratorPool(
        ladders=tuple(
            type(lad)(
                **{
                    **{
                        f: getattr(lad, f)
                        for f in ("address",)
                    },
                    **(
                        {"x": lad.x, "y": lad.y, "r": lad.r, "s": lad.s}
                        if lad.kind == "pair"
                        else {"u": lad.u, "v": lad.v}
                    ),
                    "coefficient": 2.0 * lad.coefficient,
                }
            )
            for lad in gen.ladders
        ),
        n_occ=gen.n_occ,
        n_virt=gen.n_virt,
        n_elec=gen.n_elec,
    )
    worst = doubled.alpha_bar
    mask = cir.Mask.of("m", [1, 2])
    base, scaled = (
        cir.dial(skel, ham, pool, mask, alpha_bar=worst) for pool in (gen, doubled)
    )
    # the masked branches and the null branch take up the rescaled weight
    assert _changed(base, scaled, 1e-15) == _prep_starts(skel, "gen", [0, 1, 2])


def test_dial_rejects_oversized_pool(compiled, small_pools):
    """The error names the surplus addresses, past the compiled ones, however
    the pool lists its ladders.
    """
    ham, gen, skel = compiled
    too_big = mixed_generator_pool(gen, seed=13, extra=20)
    surplus = list(range(skel.ell_gen + 1, too_big.ell + 1))
    for pool in (too_big, replace(too_big, ladders=too_big.ladders[::-1])):
        with pytest.raises(BindError, match=re.escape(f"(addresses: {surplus})")):
            cir.dial(skel, ham, pool, cir.Mask.of("m", [1]))
    small, _ = small_pools
    plan = cir.pivots_from_pools(replace(small, channels=small.channels[:-1]), gen)
    fewer = cir.compile_skeleton(small.n_so, plan)
    last = [small.ell - 1]
    for pool in (small, replace(small, one_body=small.one_body[::-1],
                                channels=small.channels[::-1])):
        with pytest.raises(BindError, match=re.escape(f"(addresses: {last})")):
            cir.dial(fewer, pool, gen, cir.Mask.of("m", [1]))


def test_dial_rejects_foreign_mask(compiled):
    ham, gen, skel = compiled
    with pytest.raises(MaskError):
        cir.dial(skel, ham, gen, cir.Mask.of("m", [17]))


def test_dial_rejects_another_occupied_count(compiled):
    """Pairs are compiled on the skeleton's n_occ; another pool's is a BindError."""
    ham, gen, skel = compiled
    assert skel.n_occ == gen.n_occ == 2
    other = replace(gen, n_occ=1, n_virt=3, n_elec=1)
    with pytest.raises(BindError, match="n_occ 1 differs from the compiled 2"):
        cir.dial(skel, ham, other, cir.Mask.of("m", [1]))


def test_skeleton_records_the_occupied_count(small_pools, mixed_gen_pool):
    """n_occ is the generator pool's, or the Hamiltonian's n_elec without one."""
    ham, _ = small_pools
    assert cir.one_pool_skeleton(None, mixed_gen_pool).n_occ == mixed_gen_pool.n_occ
    assert cir.one_pool_skeleton(ham, None).n_occ == ham.n_elec


@lru_cache(maxsize=None)
def _synth_compiled(synth):
    """Pools and skeleton of ``--synth seed:n_spatial:n_elec`` at the CLI thresholds."""
    ints = synth_instance(*map(int, synth.split(":")))
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    return ham, gen, cir.compile_skeleton(ints.n_so, cir.pivots_from_pools(ham, gen))


def _synth_skeleton(synth):
    return _synth_compiled(synth)[2]


def _pair_adaptors(skel):
    """``(address, adaptor)`` of each pair adaptor."""
    pairs = [(a, ad) for a, ad in enumerate(skel.adaptors_gen) if ad.kind == "pair"]
    assert pairs
    return pairs


def _reloaded(skel, ad, layers):
    """``skel`` with adaptor ``ad``'s lines replaced, re-fingerprinted and loaded.

    Compile shares one ``AdaptorSpec`` among the addresses of one
    descriptor, so every address holding ``ad`` takes the edit.
    """
    edited = replace(ad, text=cir._text(layers))
    side = "adaptors_gen" if ad in skel.adaptors_gen else "adaptors_ham"
    edits = {side: tuple(edited if a is ad else a for a in getattr(skel, side))}
    tampered = replace(skel, **edits)
    tampered = replace(tampered, fingerprint=cir.fabric_fingerprint(tampered))
    return cir.CircuitSkeleton.from_json(tampered.to_json())


@pytest.mark.parametrize("synth", ["5:3:2", "1:4:4", "1:8:8"])
def test_pair_ladders_rotate_over_their_own_wedge(synth):
    """A ``u`` rotation acts on four virtual modes, a ``v`` one on four occupied.

    The ``v`` ladder is the one inside ``begin ... dagger``, the ``u``
    ladder the one after it.
    """
    skel = _synth_skeleton(synth)
    sys0 = skel.selector_width + skel.workspace_width
    virtual = range(skel.n_occ, skel.n_system)
    for _, ad in _pair_adaptors(skel):
        dagger = ad.layers.index("dagger|")
        rotations = [(k > dagger, ln.split("|")[1]) for k, ln in enumerate(ad.layers)
                     if ln.startswith("pgivens|")]
        assert rotations
        for u, qubits in rotations:
            modes = [int(q) - sys0 for q in qubits.split(",")]
            assert len(modes) == 4
            assert all((m in virtual) == u for m in modes), (u, modes)


@pytest.mark.parametrize("synth", ["1:2:2", "5:3:2", "1:4:4", "1:8:8"])
def test_pair_rotations_are_the_priced_blocks(synth):
    """One rotation per non-pivot pair of each wedge, as ``estimate`` prices it."""
    skel = _synth_skeleton(synth)
    n_occ, n_virt = skel.n_occ, skel.n_system - skel.n_occ
    blocks = (math.comb(n_virt, 2) - 1) + (math.comb(n_occ, 2) - 1)
    _, cz = block_cost("full")
    priced = estimate(skel, connectivity="full").parameters["D_II"]
    for _, ad in _pair_adaptors(skel):
        count = sum(line.startswith("pgivens|") for line in ad.layers)
        assert count == blocks
        if count >= 1:  # the priced depth floors at one block
            assert priced == CONTROL_OVERHEAD * cz * count


@pytest.mark.parametrize("synth", ["5:3:2", "1:4:4"])
def test_pair_adaptor_slots_keep_their_stream_order(synth):
    """A pair adaptor's span, which positional sheets follow, in pinned order.

    PREP amplitude and sign, then the ``v`` ladder, then the ``u`` ladder;
    a ladder is ``theta_k, phi_k`` of the ``pgivens`` line on the ``k``-th
    non-pivot pair of its wedge, then ``pivot_phi``.
    """
    ham, gen, skel = _synth_compiled(synth)
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("full", range(1, gen.ell + 1)))
    sys0 = skel.selector_width + skel.workspace_width
    for a, ad in _pair_adaptors(skel):
        lad = gen.ladders[a - 1]
        assert lad.address == a
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        expected = [np.sqrt(weight / gen.alpha_bar), np.pi * (lad.coefficient < 0)]
        rotated = []
        for side, pivot in (("v", ad.pivot[1]), ("u", ad.pivot[0])):
            wedge = cir.wedge_pairs(skel.n_system, skel.n_occ, side)
            vector = (lad.occupied_pair_vector() if side == "v"
                      else lad.virtual_pair_vector())
            (thetas,), (phases,), (gauge,) = ladders.ladder_angles(
                [vector], [wedge.index(pivot)]
            )
            for theta, phi in zip(thetas, phases):
                expected += [theta, phi]
            expected.append(gauge)
            rotated += [pq for pq in wedge if pq != pivot]
        start, stop = skel.slot_spans["gen", a]
        assert stop - start == len(expected)
        assert np.abs(np.subtract(sheet.values[start:stop], expected)).max() <= 1e-14
        lines = [ln.split("|") for ln in ad.layers if ln.startswith("pgivens|")]
        modes = [tuple(int(q) - sys0 for q in qs.split(",")[:2]) for _, qs in lines]
        assert modes == rotated


def test_a_pair_pivot_outside_its_wedge_is_rejected(compiled):
    """Compile and load both refuse a pair pivot off its side's wedge."""
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    k, ad = next((k, d) for k, d in enumerate(plan.gen) if d.kind == "pair")
    swapped = replace(ad, pivot=ad.pivot[::-1])  # u on occupied, v on virtual modes
    plan = replace(plan, gen=tuple(swapped if d is ad else d for d in plan.gen))
    match = f"gen adaptor {k + 1}: pair pivots"  # past the null branch
    with pytest.raises(ValidationError, match=match):
        cir.compile_skeleton(skel.n_system, plan)
    doc = json.loads(skel.to_json())
    stored = doc["adaptors"][doc["adaptors_gen"][k + 1]]
    stored["pivot"] = [[1, 2], list(ad.pivot[1])]
    with pytest.raises(ValidationError, match=match):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_null_branch_amplitude_is_monotone_in_the_mask(mixed_gen_pool, data):
    """A larger mask never raises the null amplitude; each PREP has unit norm."""
    gen = mixed_gen_pool
    skel = cir.one_pool_skeleton(None, gen)
    big = data.draw(st.sets(st.sampled_from([lad.address for lad in gen.ladders])))
    small = data.draw(st.sets(st.sampled_from(sorted(big))) if big else st.just(set()))
    nulls = []
    for mask in (small, big):
        sheet = cir.dial(skel, None, gen, cir.Mask.of("m", mask))
        values = cir.sheet_values(skel, sheet)
        prep = {a: values[start] for (_, a), (start, _) in skel.slot_spans.items()}
        nulls.append(prep[0])
        masked = sum(prep[a] ** 2 for a in mask)
        assert abs(nulls[-1] ** 2 + masked - 1) <= 1e-12
    assert nulls[1] <= nulls[0]


def generator_target(gen, mask_indices):
    return oracle.generator_dense(gen, mask_indices) / gen.alpha_bar


def hamiltonian_target(ham):
    return oracle.hamiltonian_from_pool(ham) / ham.alpha


@pytest.mark.parametrize("instance", ["compiled", "compiled_n6"])
def test_roundtrip_generator_execution(instance, request):
    ham, gen, skel = request.getfixturevalue(instance)
    for mask_indices in ([1], [1, 2], [2, 3], []):
        sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", mask_indices))
        w = cir.execute_encoding(skel, sheet, "gen")
        target = generator_target(gen, mask_indices)
        assert_encodes(w, target, skel.n_system, gen.sector)


def test_roundtrip_hamiltonian_execution(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    w = cir.execute_encoding(skel, sheet, "ham")
    assert_encodes(w, hamiltonian_target(ham), skel.n_system, ham.n_elec)


def _random_prefix(ham, gen, data):
    """The first ladders of each pool, and a random mask over the kept ones."""
    k_ham = data.draw(st.integers(1, ham.ell), label="hamiltonian ladders")
    k_gen = data.draw(st.integers(1, gen.ell), label="generator ladders")
    mask = data.draw(st.sets(st.integers(1, k_gen)), label="mask")
    kept = ham.ladders[:k_ham]
    ham = HamiltonianPool(
        one_body=tuple(lad for lad in kept if lad.kind == "one_body_mode"),
        channels=tuple(lad for lad in kept if lad.kind != "one_body_mode"),
        n_so=ham.n_so,
        n_elec=ham.n_elec,
        e_nn=ham.e_nn,
    )
    gen = GeneratorPool(
        ladders=gen.ladders[:k_gen],
        n_occ=gen.n_occ,
        n_virt=gen.n_virt,
        n_elec=gen.n_elec,
    )
    return ham, gen, mask


def _dial_random_prefix(ham, gen, skel, data):
    """Dial the first ladders of each pool under a random mask."""
    ham, gen, mask = _random_prefix(ham, gen, data)
    return cir.dial(skel, ham, gen, cir.Mask.of("m", mask))


def every_address(skel):
    """Both sides of the skeleton, then each adaptor on each side."""
    sides = skel.sides()
    return [side for side, _ in sides] + [
        f"{side}/{a}" for side, adaptors in sides for a in range(len(adaptors))
    ]


def _assert_blocks_match_assembly(skel, sheet, addresses):
    """At each address and on every sector ``N = 0..n``, the column block is
    the sector block of the assembled unitary's top-left block."""
    n = skel.n_system
    for address in addresses:
        top_left = oracle.extract_block(cir.execute_encoding(skel, sheet, address), n)
        for sector in range(n + 1):
            block = cir.execute_block(skel, sheet, address, sector)
            assembled = sector_block(top_left, sector)
            assert np.abs(block - assembled).max() <= 1e-13, (address, sector)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_column_blocks_match_assembly(compiled, data):
    """n_so = 4: at every address, run on each sector's columns, equals the
    assembled block."""
    ham, gen, skel = compiled
    sheet = _dial_random_prefix(ham, gen, skel, data)
    _assert_blocks_match_assembly(skel, sheet, every_address(skel))


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_generator_column_block_matches_assembly_n6(compiled_n6, data):
    """n_so = 6: every address but the 14-qubit Hamiltonian side, past the cap."""
    ham, gen, skel = compiled_n6
    sheet = _dial_random_prefix(ham, gen, skel, data)
    n = skel.n_system
    fits = [a for a in every_address(skel)
            if cir.ancillas(skel, a) + n <= oracle.MAX_ASSEMBLY_QUBITS]
    assert set(every_address(skel)) - set(fits) == {"ham"}
    _assert_blocks_match_assembly(skel, sheet, fits)


def test_generator_encoding_assembles_without_kron_or_block_diag(
    compiled_n6, monkeypatch
):
    """n_so = 6, mask {1, 2}: verify's 11-qubit unitary is assembled with
    ``sparse.kron`` and ``sparse.block_diag`` disabled, and equals its
    gadget tree run on every column.

    The cached gate maps and vacuum reflection are rebuilt under the
    patch: the maps are bit arithmetic on basis indices, with no
    Jordan-Wigner ladder matrix (which ``sparse.kron`` builds).
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("assembled through a scipy constructor")

    ham, gen, skel = compiled_n6
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 2]))
    node = cir._encoding(skel, sheet, "gen")
    dim, batch = node.shape[0], 256
    assert dim == 2**11

    def run_columns(start):
        cols = np.zeros((dim, batch), dtype=complex)
        cols[start + np.arange(batch), np.arange(batch)] = 1.0
        return oracle._apply(node, cols)

    first = run_columns(0)
    for name in ("kron", "block_diag"):
        monkeypatch.setattr(sparse, name, forbidden)
    oracle.vacuum_reflection_gadget.cache_clear()
    ladders.gate_map.cache_clear()
    w = cir.execute_generator_encoding(skel, sheet).tocsc()
    for start in range(0, dim, batch):
        ref = first if start == 0 else run_columns(start)
        assert np.abs(w[:, start:start + batch].toarray() - ref).max() <= 1e-14


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_adaptor_encodes_its_ladder(small_pools, mixed_gen_pool, data):
    """Compile -> dial -> execute one adaptor: each branch encodes its own ladder."""
    ham, gen, mask = _random_prefix(small_pools[0], mixed_gen_pool, data)
    plan = cir.pivots_from_pools(ham, gen)
    n = ham.n_so
    skel = cir.compile_skeleton(n, plan)
    sheet = cir.dial(skel, ham, gen, mask)
    targets = adaptor_targets(ham, gen)
    assert len(targets) == ham.ell + gen.ell
    for address, target in targets.items():
        w = cir.execute_encoding(skel, sheet, address)
        assert_encodes(w, target, n, ham.n_elec)
    null = cir.execute_encoding(skel, sheet, "gen/0")
    assert_encodes(null, np.zeros((2**n, 2**n)), n, ham.n_elec)


def _sector_max(block, target, sector):
    """Largest entry of a sector block minus ``target``'s block on that sector."""
    return float(np.abs(block - sector_block(target, sector)).max())


def _flipped(ladders, flips):
    return tuple(
        replace(lad, coefficient=-lad.coefficient) if flip else lad
        for lad, flip in zip(ladders, flips)
    )


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_branch_signs_follow_the_coefficients(small_pools, mixed_gen_pool, data):
    """n_so = 4: random Omega and omega signs reach both blocks through the dial."""
    ham, gen, mask = _random_prefix(small_pools[0], mixed_gen_pool, data)
    flips = data.draw(
        st.lists(st.booleans(), min_size=ham.ell + gen.ell, max_size=ham.ell + gen.ell),
        label="flipped signs",
    )
    ham = replace(
        ham,
        one_body=_flipped(ham.one_body, flips),
        channels=_flipped(ham.channels, flips[len(ham.one_body):]),
    )
    gen = replace(gen, ladders=_flipped(gen.ladders, flips[ham.ell:]))
    n = ham.n_so
    skel = cir.compile_skeleton(n, cir.pivots_from_pools(ham, gen))
    sheet = cir.dial(skel, ham, gen, mask)
    block = cir.execute_block(skel, sheet, "gen", gen.sector)
    assert _sector_max(block, generator_target(gen, mask), gen.sector) <= 1e-12
    block = cir.execute_block(skel, sheet, "ham", ham.n_elec)
    assert _sector_max(block, hamiltonian_target(ham), ham.n_elec) <= 1e-12


def test_layer_stream_is_the_program(compiled):
    """A re-targeted givens line, re-fingerprinted, changes what executes."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    n = skel.n_system
    target = hamiltonian_target(ham)
    block = cir.execute_block(skel, sheet, "ham", ham.n_elec)
    assert _sector_max(block, target, ham.n_elec) <= 1e-10
    # the givens line of the first one-body adaptor with the largest angle
    a, ad = next((a, ad) for a, ad in enumerate(skel.adaptors_ham)
                 if ad.kind == "one_body_mode")
    k = max(
        (k for k, line in enumerate(ad.layers) if line.startswith("givens|")),
        key=lambda k: abs(sheet.values[line_value_index(skel, "ham", a, k)]),
    )
    _, qubits = ad.layers[k].split("|")
    target_q, pivot = (int(q) for q in qubits.split(","))
    sys0 = skel.selector_width + skel.workspace_width
    other = next(q for q in range(sys0, sys0 + n) if q not in (target_q, pivot))
    layers = list(ad.layers)
    layers[k] = f"givens|{other},{pivot}"
    tampered = _reloaded(skel, ad, layers)
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    block = cir.execute_block(tampered, sheet, "ham", ham.n_elec)
    assert _sector_max(block, target, ham.n_elec) > 1e-3


@pytest.mark.parametrize("synth", [(7, 2, 2), (7, 3, 2), (7, 4, 2)])
def test_the_multiplexed_run_equals_the_per_adaptor_sum(synth):
    """n_so = 4, 6 and 8: on every sector ``N = 0..n``, each side's
    multiplexed encoding, one PREP-SELECT-PREP node run on the sector's
    columns, has the sector block that ``execute_block`` sums adaptor by
    adaptor, to 1e-14, so the SELECT wiring (case order, lifts and branch
    signs) stays covered, and the node leaks nothing out of the sector.

    The mask keeps every other generator ladder, so zero-weight branches
    are skipped.  At n_so = 8 the Hamiltonian pool keeps its first mode
    group and its first channel (addresses 0 and 1): its multiplexed
    register is then 14 qubits, where the whole pool's 16-qubit
    multiplexed run on all 256 columns alone peaks near 0.8 GB.
    """
    ints = synth_instance(*synth)
    n = ints.n_so
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    if n == 8:
        channel = replace(ham.channels[0], address=1)
        ham = replace(ham, one_body=ham.one_body[:1], channels=(channel,))
    base = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    gen = mixed_generator_pool(base, n_so=n, seed=synth[0])
    mask = cir.Mask.of("m", range(1, gen.ell + 1, 2))
    for skel, pools, side in ((cir.one_pool_skeleton(ham, None), (ham, None), "ham"),
                              (cir.one_pool_skeleton(None, gen), (None, gen), "gen")):
        sheet = cir.dial(skel, *pools, mask if side == "gen" else ())
        node = cir._encoding(skel, sheet, side)
        for sector in range(n + 1):
            columns = jw.sector_indices(n, sector)
            multiplexed = oracle.column_block(node, n, columns)
            outside = multiplexed[jw.hamming_weights(n) != sector]
            assert np.abs(outside).max(initial=0.0) <= oracle.SECTOR_TOL, (side, sector)
            summed = cir.execute_block(skel, sheet, side, sector)
            assert np.abs(multiplexed[columns] - summed).max() <= 1e-14, (side, sector)


def test_a_system_flip_spliced_into_an_adaptor_leaks_out_of_the_sector(compiled):
    """An ``x`` system line spliced into the first Hamiltonian adaptor,
    re-fingerprinted, moves its sector columns out of the sector.

    ``execute_block`` raises a ``SectorError`` that names the adaptor and
    the leak.
    """
    ham, gen, skel = compiled
    ad = skel.adaptors_ham[0]
    sys0 = skel.selector_width + skel.workspace_width
    tampered = _reloaded(skel, ad, [ad.layers[0], f"x|{sys0}", *ad.layers[1:]])
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    leak = r"Hamiltonian adaptor 0 leaks \d\.\d{3}e[-+]\d\d out of the N=2 sector"
    with pytest.raises(SectorError, match=leak):
        cir.execute_block(tampered, sheet, "ham", ham.n_elec)
    with pytest.raises(SectorError, match="Hamiltonian adaptor 0 leaks"):
        cir.execute_block(tampered, sheet, "ham/0", ham.n_elec)
    cir.execute_block(skel, cir.dial(skel, ham, gen, cir.Mask.of("m", [1])), "ham", 2)


def test_a_sector_outside_the_register_is_refused(compiled):
    """``sector`` must count electrons on the register's modes: 0..n."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    for sector in (-1, 5):
        with pytest.raises(SectorError, match=f"sector N={sector} outside 0..4"):
            cir.check_column_batch(skel, "gen", sector)
        with pytest.raises(SectorError, match=f"sector N={sector} outside 0..4"):
            cir.execute_block(skel, sheet, "ham", sector)
    assert cir.execute_block(skel, sheet, "ham", 0).shape == (1, 1)
    assert cir.execute_block(skel, sheet, "ham", 4).shape == (1, 1)


@pytest.mark.parametrize("sector", [True, False, 2.0, "2", None, np.int64(2)])
def test_a_sector_that_is_not_an_int_is_refused(compiled, sector, monkeypatch):
    """``sector`` must be an ``int``: a ``bool``, a float, a string, ``None``
    or a NumPy integer is refused with a ``SectorError`` that names it,
    before the address is read or any branch is built."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    built = _built(monkeypatch)
    message = re.escape(f"sector must be an int, not {sector!r}")
    with pytest.raises(SectorError, match=message):
        cir.check_column_batch(skel, "qsp/0", sector)
    with pytest.raises(SectorError, match=message):
        cir.execute_block(skel, sheet, "ham", sector)
    assert built == []


def _built(monkeypatch):
    """Positions of the branches ``execute_block`` builds from here on, in order."""
    built = []

    def spy(skel, side, a, values, _branch=cir._branch):
        built.append((side, a))
        return _branch(skel, side, a, values)

    monkeypatch.setattr(cir, "_branch", spy)
    return built


def _cold(skel, sheet, address, sector):
    """``execute_block`` on an emptied cache: every branch built and run."""
    cir._adaptor_run.cache_clear()
    return cir.execute_block(skel, sheet, address, sector)


def _nudged(sheet, index):
    """``sheet`` with ``values[index]`` moved up by one ulp."""
    values = sheet.values.copy()
    values[index] = np.nextafter(values[index], np.inf)
    values.setflags(write=False)
    return replace(sheet, values=values)


@pytest.mark.parametrize("sector", [2])
def test_a_value_nudged_by_one_ulp_reruns_exactly_its_adaptor(compiled, sector,
                                                              monkeypatch):
    """A second run of one fabric with equal values builds only its
    zero-weight branches, which are checked but never run, so never kept;
    one value moved by one ulp rebuilds its adaptor besides.  Every block
    is bit-identical to a run on an emptied cache."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 2]))
    for side, adaptors in skel.sides():
        every = [(side, a) for a in range(len(adaptors))]
        idle = [(side, a) for side, a in every
                if sheet.values[skel.slot_spans[side, a][0]] == 0.0]
        assert len(idle) < len(adaptors)
        first = _cold(skel, sheet, side, sector)
        kept = cir._adaptor_run.cache_info().currsize
        assert kept > 0
        built = _built(monkeypatch)
        again = cir.execute_block(skel, sheet, side, sector)
        assert built == idle
        assert again.tobytes() == first.tobytes()
        a = 1 if side == "gen" else 0
        start, stop = skel.slot_spans[side, a]
        assert stop - start > 1 and (side, a) not in idle
        nudged = _nudged(sheet, start + 1)
        built.clear()
        rerun = cir.execute_block(skel, nudged, side, sector)
        assert sorted(built) == sorted([(side, a), *idle])
        assert cir._adaptor_run.cache_info().currsize == kept + 1
        assert rerun.tobytes() == _cold(skel, nudged, side, sector).tobytes()
        monkeypatch.undo()


def test_a_second_geometry_reruns_every_adaptor_whose_values_changed(monkeypatch):
    """Synth 7:3:2 and 10:3:2 share one Hamiltonian pivot plan, so
    ``one_pool_skeleton`` hands back the one fabric; the second geometry
    rebuilds every adaptor whose values after its PREP amplitude changed,
    and its block is bit-identical to a run on an emptied cache."""
    pools = [build_hamiltonian_pool(synth_instance(seed, 3, 2), 1e-10, 0.0)
             for seed in (7, 10)]
    skel = cir.one_pool_skeleton(pools[0], None)
    assert cir.one_pool_skeleton(pools[1], None) is skel
    first, second = (cir.dial(skel, ham, None, ()) for ham in pools)
    cir.execute_block(skel, first, "ham", 2)
    built = _built(monkeypatch)
    block = cir.execute_block(skel, second, "ham", 2)
    def after_prep(sheet, a):
        start, stop = skel.slot_spans["ham", a]
        return sheet.values[start + 1:stop].tobytes()

    changed = [("ham", a) for a in range(skel.ell_ham)
               if after_prep(first, a) != after_prep(second, a)]
    assert changed and built == changed
    assert block.tobytes() == _cold(skel, second, "ham", 2).tobytes()


def test_a_failed_branch_is_never_kept(compiled, monkeypatch):
    """A branch that leaks out of the sector (``SectorError``) or is wider
    than its side's workspace (``ShapeError``) is not kept, so a second
    identical call raises again; a branch kept from a one-adaptor run, which
    has no shared workspace, still fails the width check in a side's run."""
    ham, gen, skel = compiled
    ad = skel.adaptors_ham[0]
    sys0 = skel.selector_width + skel.workspace_width
    leaky = _reloaded(skel, ad, [ad.layers[0], f"x|{sys0}", *ad.layers[1:]])
    sheet = cir.dial(leaky, ham, gen, cir.Mask.of("m", [1]))
    cir._adaptor_run.cache_clear()
    for _ in range(2):
        with pytest.raises(SectorError, match="Hamiltonian adaptor 0 leaks"):
            cir.execute_block(leaky, sheet, "ham", 2)
        assert cir._adaptor_run.cache_info().currsize == 0

    # one rank-1 mode group on one workspace qubit, its body wrapped in a
    # one-case select: a two-qubit branch on a one-qubit shared workspace
    modes = np.eye(4, dtype=complex)
    pool = HamiltonianPool(
        (OneBodyModeLadder(vectors=modes[:, :1], coefficient=0.5, address=0),),
        (), 4, 2,
    )
    skel = cir.compile_skeleton(4, cir.pivots_from_pools(pool, None))
    ad = skel.adaptors_ham[0]
    assert (skel.selector_width, skel.workspace_width) == (1, 1)
    wide = _reloaded(skel, ad, [ad.layers[0], "select|0", "fcase|",
                                *ad.layers[1:], "end|"])
    sheet = cir.dial(wide, pool, None, ())
    for _ in range(2):
        with pytest.raises(ShapeError, match="exceeds the shared width"):
            cir.execute_block(wide, sheet, "ham", 2)
        assert cir._adaptor_run.cache_info().currsize == 0
    cir.execute_block(wide, sheet, "ham/0", 2)
    assert cir._adaptor_run.cache_info().currsize == 1
    with pytest.raises(ShapeError, match="exceeds the shared width"):
        cir.execute_block(wide, sheet, "ham", 2)
    assert cir._adaptor_run.cache_info().currsize == 1


def test_kept_runs_are_keyed_by_their_fabric():
    """At synth 7:3:2 the generator side of the two-sided fabric runs on
    one ancilla more than on its one-pool fabric; run in turn, each block
    has the bytes of its own run on an emptied cache, and a second turn
    hits a kept run for every run of the first."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    skel = cir.compile_skeleton(6, cir.pivots_from_pools(ham, gen))
    one = cir.one_pool_skeleton(None, gen)
    assert cir.ancillas(skel, "gen") == cir.ancillas(one, "gen") + 1
    mask = cir.Mask.of("m", [1])
    runs = [(skel, cir.dial(skel, ham, gen, mask)), (one, cir.dial(one, None, gen, mask))]
    cold = [_cold(fabric, sheet, "gen", 2).tobytes() for fabric, sheet in runs]
    cir._adaptor_run.cache_clear()
    for _ in range(2):
        warm = [cir.execute_block(fabric, sheet, "gen", 2).tobytes()
                for fabric, sheet in runs]
        assert warm == cold
    info = cir._adaptor_run.cache_info()
    assert info.hits == info.misses == info.currsize <= cir.KEPT_RUNS


@lru_cache(maxsize=None)
def _pair_line_skeleton():
    """Synth 1:3:2, both pools: its pair adaptors hold ``pgivens`` lines."""
    ints = synth_instance(1, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    return ham, gen, cir.one_pool_skeleton(ham, gen)


def _two_mode_pgivens(layers):
    """Drop the pivot modes of the first ``pgivens`` line."""
    k = next(k for k, line in enumerate(layers) if line.startswith("pgivens|"))
    gate, qubits = layers[k].split("|")
    layers[k] = f"{gate}|{','.join(qubits.split(',')[:2])}"
    return k + 1


@pytest.mark.parametrize("edit", [_two_mode_pgivens])
def test_malformed_pair_lines_are_rejected(edit):
    """A two-mode ``pgivens`` fails execution.

    The edit is fingerprinted with the stream, so it loads and dials; the
    error names the line.
    """
    ham, gen, skel = _pair_line_skeleton()
    a, ad = _pair_adaptors(skel)[0]
    layers = list(ad.layers)
    line = edit(layers)
    tampered = _reloaded(skel, ad, layers)
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    match = f"layer stream near line {line}: expected pgivens on 4 modes"
    with pytest.raises(ValidationError, match=match):
        cir.execute_block(tampered, sheet, "gen", gen.sector)
    with pytest.raises(ValidationError, match=match):
        cir.execute_encoding(tampered, sheet, f"gen/{a}")


@pytest.mark.parametrize(
    ("gate", "count"),
    [("pgivens", 1), ("pgivens", 3), ("givens", 2), ("gphase", 2), ("case", 2),
     ("fcase", 1)],
)
def test_a_line_with_the_wrong_slot_count_is_rejected(gate, count):
    """A line kind fixes its value count, so any v8-style slot field is wrong.

    Re-fingerprinted, a line with ``count`` slot names after its qubits is a
    ParseError at load that names the line.
    """
    _, _, skel = _pair_line_skeleton()
    ad, k = next(
        (a, k) for _, adaptors in skel.sides() for a in adaptors
        for k, line in enumerate(a.layers) if line.startswith(f"{gate}|")
    )
    layers = list(ad.layers)
    layers[k] += "|" + ",".join(f"edited/{j}" for j in range(count))
    match = re.escape(f"malformed layer line {layers[k]!r}")
    with pytest.raises(ParseError, match=match):
        _reloaded(skel, ad, layers)


def _bad_lines(body):
    """Reference line rule: the lines of ``body`` that are not one ``|`` each,
    then its unterminated remainder, if any.
    """
    *lines, rest = body.split("\n")
    return [line for line in lines if line.count("|") != 1] + ([rest] if rest else [])


# bodies from fragments that may add a newline or a ``|``; non-string bodies
_FRAGMENTS = st.sampled_from(["rz", "0,1", "|", "||", "\n", "rz|0\n", ""])
_BODY = st.lists(_FRAGMENTS, max_size=8).map("".join)
_ENTRY = st.one_of(
    _BODY, st.integers(), st.none(), st.booleans(), st.lists(_BODY, max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(body=_ENTRY)
@example(body="")
@example(body=7)
@example(body=["rz|0"])
@example(body="rz|0")
@example(body="rz|0\nrz\n")
@example(body="rz\nrz||0\n")
def test_the_one_pass_line_check_matches_the_per_line_rule(body):
    """The one-pass text check accepts exactly the bodies whose every line
    passes the per-line rule, and otherwise names the body and the first
    line that fails; a body that is not a string is refused by name.  The
    body is a stored adaptor's ``text``.
    """
    doc = json.loads(_pair_line_skeleton()[2].to_json())
    k = doc["adaptors_gen"][1]
    doc["adaptors"][k]["text"] = body
    text = json.dumps(doc)
    if type(body) is not str:
        with pytest.raises(ParseError, match=f"^stored adaptor {k} text must be str"):
            cir.CircuitSkeleton.from_json(text)
    elif _bad_lines(body):
        bad = _bad_lines(body)[0]
        match = re.escape(f"stored adaptor {k} text: malformed layer line {bad!r}")
        with pytest.raises(ParseError, match=f"^{match}$"):
            cir.CircuitSkeleton.from_json(text)
    else:  # the lines load; only the fingerprint, over other lines, can object
        with pytest.raises(ValidationError, match="fingerprint does not match"):
            cir.CircuitSkeleton.from_json(text)


def test_a_row_that_misfits_its_span_is_a_bind_error():
    """A dropped ``givens`` line, re-fingerprinted, loads; dial names the adaptor."""
    ham, gen, skel = _pair_line_skeleton()
    a, ad = next((a, ad) for a, ad in enumerate(skel.adaptors_ham)
                 if ad.kind == "one_body_mode")
    k = next(k for k, line in enumerate(ad.layers) if line.startswith("givens|"))
    tampered = _reloaded(skel, ad, ad.layers[:k] + ad.layers[k + 1:])
    start, stop = skel.slot_spans["ham", a]
    row = stop - start
    match = f"ham adaptor {a}: {row} values for its {row - 1} slots"
    with pytest.raises(BindError, match=match):
        cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))


def _expm_line(n, gate, qs, values):
    """Dense ``expm`` (for ``x``: the Pauli kron product) of one system line."""
    cr, an = jw.jw_ladder_ops(n)
    if gate == "x":
        before, after = np.eye(2 ** qs[0]), np.eye(2 ** (n - 1 - qs[0]))
        return np.kron(np.kron(before, [[0.0, 1.0], [1.0, 0.0]]), after)
    if gate in ("rz", "cphase"):
        occ = np.eye(2**n)
        for q in qs:
            occ = occ @ (cr[q] @ an[q]).toarray()
        return expm(1j * values[0] * occ)
    if gate == "givens":
        p, r = qs
        k_op = (cr[p] @ an[r] - cr[r] @ an[p]).toarray()
    else:
        p, q, r, s = qs
        a_op = (cr[p] @ cr[q] @ an[s] @ an[r]).toarray()
        e = np.exp(1j * values[1])
        k_op = e * a_op - e.conjugate() * a_op.conj().T
    return expm(values[0] * k_op)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_of_system_lines_is_the_product_of_its_gates(data):
    """A random run of system lines, interpreted, is the ``expm`` product.

    The leaf equals the product of the lines' exponentials in application
    order, and its adjoint application their conjugate transpose.
    """
    n = data.draw(st.integers(3, 6), label="modes")
    modes, pairs = st.integers(0, n - 1), st.sampled_from(ladders.pair_indices(n))
    angle = st.floats(-np.pi, np.pi)
    lines, values, expected = [], [], np.eye(2**n)
    for _ in range(data.draw(st.integers(1, 8), label="length")):
        gate = data.draw(st.sampled_from(["givens", "pgivens", "rz", "cphase", "x"]))
        if gate == "givens":
            qs = data.draw(st.lists(modes, min_size=2, max_size=2, unique=True))
        elif gate == "pgivens":
            two_pairs = data.draw(st.lists(pairs, min_size=2, max_size=2, unique=True))
            qs = [*two_pairs[0], *two_pairs[1]]
        elif gate == "cphase":
            qs = list(data.draw(pairs))
        else:
            qs = [data.draw(modes)]
        drawn = [data.draw(angle), data.draw(angle)]
        values += drawn[: cir.LINE_VALUES.get(gate, 0)]
        lines.append(f"{gate}|{','.join(map(str, qs))}")
        expected = _expm_line(n, gate, qs, drawn) @ expected
    skel = SimpleNamespace(n_system=n, selector_width=0, workspace_width=0)
    factors, _, closer = cir._Interpreter(skel, tuple(values), lines).frame()
    assert closer is None
    [(leaf, width, adjoint)] = factors
    assert (width, adjoint) == (0, False)
    assert np.abs(leaf - expected).max() <= 1e-13
    adjoint = oracle._apply(leaf, np.eye(2**n, dtype=complex), adjoint=True)
    assert np.abs(adjoint - expected.conj().T).max() <= 1e-13


# both execution entries at n_so = 4, the block run on the two-electron sector
EXECUTIONS = (cir.execute_encoding,
              lambda skel, sheet, address: cir.execute_block(skel, sheet, address, 2))


def test_execute_rejects_an_unknown_address_and_a_foreign_sheet(compiled):
    """Every execution entry refuses an address the skeleton lacks.

    ``"ham"`` and ``"gen"`` name the two sides, so they are not on the list.
    A position is written only as ``str`` writes it: a leading zero, a sign,
    a space, an underscore or a non-ASCII digit names no adaptor, although
    ``int`` would read each as one that exists, and a label too long for
    ``int`` is refused like any other.
    """
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    for address in ("ham/99", "gen/99", "qsp/0", "qsp", "ham/", "gen/x",
                    "ham/01", "gen/+1", "gen/ 1", "gen/1_0", "gen/\u0661", "gen/-0",
                    "gen/" + "1" * 5000):
        with pytest.raises(BindError, match="no adaptor"):
            cir.ancillas(skel, address)
        with pytest.raises(BindError, match="no adaptor"):
            cir.check_column_batch(skel, address, 2)
        for execute in EXECUTIONS:
            with pytest.raises(BindError, match="no adaptor"):
                execute(skel, sheet, address)
    with pytest.raises(BindError, match="no adaptor"):
        cir.execute_block(cir.one_pool_skeleton(None, gen), sheet, "ham", 2)
    other = cir.one_pool_skeleton(ham, None)
    for execute in EXECUTIONS:
        with pytest.raises(BindError, match="fingerprint"):
            execute(other, sheet, "ham/0")


def test_one_pool_skeletons_dial_only_their_pool(compiled):
    ham, gen, _ = compiled
    ham_skel = cir.one_pool_skeleton(ham, None)
    gen_skel = cir.one_pool_skeleton(None, gen)
    assert (ham_skel.ell_ham, ham_skel.ell_gen) == (ham.ell, 0)
    assert (gen_skel.ell_ham, gen_skel.ell_gen) == (0, gen.ell)
    with pytest.raises(BindError):
        cir.dial(ham_skel, ham, gen, ())
    with pytest.raises(BindError):
        cir.dial(gen_skel, None, None, ())
    with pytest.raises(MaskError):
        cir.dial(ham_skel, ham, None, [1])
    with pytest.raises(ValidationError):
        cir.compile_skeleton(4, cir.CompilePlan(ham=(), gen=(), n_occ=2))


def test_execute_rejects_fingerprint_mismatch(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    tampered = replace(sheet, skeleton_fingerprint="0" * 64)
    for execute in EXECUTIONS:
        with pytest.raises(BindError):
            execute(skel, tampered, "gen")


def test_skeleton_json_roundtrip(compiled):
    _, _, skel = compiled
    back = cir.CircuitSkeleton.from_json(skel.to_json())
    assert back.fingerprint == skel.fingerprint
    assert back.to_json() == skel.to_json()


def _edit_lines(doc, k, edit):
    """Apply ``edit`` to stored adaptor ``k``'s list of lines, and store them back."""
    lines = doc["adaptors"][k]["text"].split("\n")[:-1]
    edit(lines)
    doc["adaptors"][k]["text"] = cir._text(lines)


def _first(doc, gate):
    """``(stored adaptor, line)`` of the first ``gate`` line, in first-use order."""
    return next(
        (k, j)
        for k, ad in enumerate(doc["adaptors"])
        for j, line in enumerate(ad["text"].split("\n"))
        if line.split("|")[0] == gate
    )


def _edit_first(gate, edit):
    """Apply ``edit`` to the fields of the first ``gate`` line in the skeleton."""

    def tamper(doc):
        k, j = _first(doc, gate)

        def edit_line(lines):
            fields = lines[j].split("|")
            edit(fields)
            lines[j] = "|".join(fields)

        _edit_lines(doc, k, edit_line)

    return tamper


def _reverse_first(gate):
    """Swap control and target of the first ``gate`` layer in the skeleton."""

    def reverse(fields):
        fields[1] = ",".join(fields[1].split(",")[::-1])

    return _edit_first(gate, reverse)


def _widen(field):
    def tamper(doc):
        doc[field] += 3

    return tamper


def _v11_width(field):
    """A v11 width key, at the value the document's skeleton derives."""

    def tamper(doc):
        doc[field] = getattr(cir.CircuitSkeleton.from_json(json.dumps(doc)), field)

    return tamper


def _gen1_body(doc):
    """Index of the stored adaptor at address ``gen/1``."""
    return doc["adaptors_gen"][1]


def _retarget(doc):
    def edit(lines):
        gate, _ = lines[0].split("|")
        lines[0] = f"{gate}|0"

    _edit_lines(doc, _gen1_body(doc), edit)


def _embed_newline(doc):
    """A newline inside a line: the part before it has no ``|``."""

    def edit(lines):
        gate, qubits = lines[0].split("|")
        lines[0] = f"{gate}\n|{qubits}"

    _edit_lines(doc, _gen1_body(doc), edit)


def _list_body(doc):
    """A v9-style list of lines in place of a stored adaptor's text."""
    ad = doc["adaptors"][_gen1_body(doc)]
    ad["text"] = ad["text"].split("\n")[:-1]


def _drop_first(gate):
    """Delete the first ``gate`` line in the skeleton."""

    def tamper(doc):
        k, j = _first(doc, gate)
        _edit_lines(doc, k, lambda lines: lines.pop(j))

    return tamper


def _move_select(fields):
    fields[1] = str(int(fields[1]) - 1)


def _scalar_body(doc):
    doc["adaptors"][_gen1_body(doc)]["text"] = 5


def _scalar_bodies(doc):
    doc["adaptors"] = 5


def _move_pair_pivot(doc):
    """Another u-pivot pair for the first pair adaptor; its layers unchanged."""
    ad = next(ad for ad in doc["adaptors"] if ad["kind"] == "pair")
    ad["pivot"][0] = [0, 1] if ad["pivot"][0] != [0, 1] else [2, 3]


def _lower_channel_rank(doc):
    ad = next(ad for ad in doc["adaptors"] if ad["kind"] == "channel")
    ad["rank"] -= 1


def _huge_channel_rank(doc):
    """A rank past any float: the workspace width derived from it stays exact."""
    ad = next(ad for ad in doc["adaptors"] if ad["kind"] == "channel")
    ad["rank"] = 10**400


@pytest.mark.parametrize(
    "tamper, error",
    [
        pytest.param(_retarget, ValidationError, id="retarget"),
        pytest.param(_reverse_first("cx"), ValidationError, id="reversed-cx"),
        pytest.param(_reverse_first("givens"), ValidationError, id="reversed-givens"),
        pytest.param(_widen("n_system"), ValidationError, id="n_system"),
        pytest.param(_v11_width("selector_width"), ParseError, id="selector_width"),
        pytest.param(_v11_width("workspace_width"), ParseError, id="workspace_width"),
        pytest.param(_widen("n_occ"), ValidationError, id="n_occ"),
        pytest.param(_widen("qsp_degree"), ValidationError, id="qsp_degree"),
        pytest.param(_drop_first("gphase"), ValidationError, id="dropped-sign-line"),
        pytest.param(_drop_first("mirror"), ValidationError, id="dropped-mirror"),
        pytest.param(
            _edit_first("select", _move_select), ValidationError, id="moved-select"
        ),
        pytest.param(_embed_newline, ParseError, id="embedded-newline"),
        pytest.param(_list_body, ParseError, id="non-string-body"),
        pytest.param(_scalar_body, ParseError, id="scalar-body"),
        pytest.param(_scalar_bodies, ParseError, id="non-list-bodies"),
        pytest.param(_move_pair_pivot, ValidationError, id="pivot"),
        pytest.param(_lower_channel_rank, ValidationError, id="rank"),
        pytest.param(_huge_channel_rank, ValidationError, id="huge-rank"),
    ],
)
def test_skeleton_json_tamper_detected(compiled, tamper, error):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    tamper(doc)
    with pytest.raises(error):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "fmt",
    older_formats(cir.SKEL_FORMAT),
    ids=lambda fmt: fmt.rpartition("-")[2],
)
def test_skeleton_v1_rejected(compiled, fmt):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    doc["format"] = fmt
    with pytest.raises(ParseError):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


# the v9 skeletons' fingerprints: a stored text is exactly the text v9 hashed
_V9_FINGERPRINTS = {
    "1:8:8": "c200aaf6c6d2a1d8f623de27e19dae7b67fffde3af47332e604cecae20fabc9d",
    "3:3:2": "255cbb040ce87a46079b3e79170d4988b22d50427b24b1d81828c930f9d77b47",
}


@pytest.mark.parametrize("synth", sorted(_V9_FINGERPRINTS))
def test_the_body_format_changes_no_fingerprint(synth):
    """Compiled and loaded, the fingerprint is v9's, and the text round-trips.

    Each distinct adaptor (kind, pivots, rank and text) is stored once:
    synth ``1:8:8``'s 465 adaptors hold 106, which keeps its skeleton
    under 160 KB.
    """
    skel = _synth_skeleton(synth)
    text = skel.to_json()
    loaded = cir.CircuitSkeleton.from_json(text)
    assert skel.fingerprint == loaded.fingerprint == _V9_FINGERPRINTS[synth]
    assert loaded.to_json() == text
    if synth == "1:8:8":
        assert len(skel.adaptors_ham) + len(skel.adaptors_gen) == 465
        assert len(json.loads(text)["adaptors"]) == 106
        assert len(text) <= 160_000


# synth 1:12:12 (n_so = 24) at the test thresholds, computed before compile
# emitted each distinct adaptor once
_N24_FINGERPRINT = "5eab67d7caf5c8d0e711a91e8034e99e4dc7feb01493a2cecaf5cb5f192561c7"


def test_the_n24_skeleton_keeps_its_fingerprint_and_bytes():
    """n_so = 24: 2,401 addresses share 484 adaptors, one object each, and
    ``compile -> to_json -> from_json -> to_json`` gives the same bytes.
    """
    skel = _synth_skeleton("1:12:12")
    text = skel.to_json()
    loaded = cir.CircuitSkeleton.from_json(text)
    assert skel.fingerprint == loaded.fingerprint == _N24_FINGERPRINT
    assert loaded.to_json() == text
    for s in (skel, loaded):
        addresses = s.adaptors_ham + s.adaptors_gen
        assert len(addresses) == 2401
        assert len({id(ad) for ad in addresses}) == 484
    assert len(json.loads(text)["adaptors"]) == 484


def _descriptor(ad):
    return ad.kind, ad.pivot, ad.rank


@pytest.mark.parametrize("synth", ["3:3:2", "1:8:8"])
def test_compile_emits_each_distinct_descriptor_once(synth, monkeypatch):
    """Each emitter runs once per distinct descriptor, and a pair side's
    ladder lines are built once per ``(side, pivot pair)``; the skeleton is
    the same.
    """
    ham, gen, skel = _synth_compiled(synth)
    plan = cir.pivots_from_pools(ham, gen)
    emitted, sides = [], []
    for name in ("_compile_one_body", "_compile_channel", "_compile_pair",
                 "_compile_bilinear_asym"):
        def spy(ad, *args, _emit=getattr(cir, name)):
            emitted.append(ad)
            return _emit(ad, *args)
        monkeypatch.setattr(cir, name, spy)

    def pair_spy(wedge, pivot_pair, sysq, _build=cir._pair_ladder_layers):
        sides.append((wedge, pivot_pair))
        return _build(wedge, pivot_pair, sysq)

    monkeypatch.setattr(cir, "_pair_ladder_layers", pair_spy)
    again = cir.compile_skeleton(skel.n_system, plan)
    assert again.to_json() == skel.to_json()
    assert sorted(emitted, key=repr) == sorted(set(plan.ham + plan.gen), key=repr)
    pair_sides = {(cir.wedge_pairs(skel.n_system, skel.n_occ, side), pivot)
                  for ad in plan.gen if ad.kind == "pair"
                  for side, pivot in zip("uv", ad.pivot)}
    assert sorted(sides) == sorted(pair_sides)
    n_virt = skel.n_system - skel.n_occ
    assert len(sides) <= math.comb(n_virt, 2) + math.comb(skel.n_occ, 2)


@pytest.mark.parametrize("synth", ["3:3:2", "1:8:8"])
def test_addresses_with_equal_descriptors_share_one_spec(synth):
    """Compiled as loaded: two addresses share one ``AdaptorSpec`` exactly
    when their kind, pivots and rank are equal.
    """
    skel = _synth_skeleton(synth)
    loaded = cir.CircuitSkeleton.from_json(skel.to_json())
    for s in (skel, loaded):
        addresses = s.adaptors_ham + s.adaptors_gen
        by_descriptor = {}
        for ad in addresses:
            assert by_descriptor.setdefault(_descriptor(ad), ad) is ad
        assert len({id(ad) for ad in addresses}) == len(by_descriptor)


def _reference_pair_pivots(gen):
    """Per ladder, in address order: ``(u, v)`` argmax pivots of a pair, else None."""
    pivots = []
    for lad in sorted(gen.ladders, key=lambda lad: lad.address):
        if lad.kind != "pair":
            pivots.append(None)
            continue
        vectors = lad.virtual_pair_vector(), lad.occupied_pair_vector()
        pivots.append(tuple(
            cir.wedge_pairs(gen.n_so, gen.n_occ, side)[int(np.argmax(np.abs(vec)))]
            for side, vec in zip("uv", vectors)
        ))
    return pivots


def _phased(lad, phase):
    """A pair ladder with complex factors: ``x`` and ``s`` times unit phases."""
    return replace(lad, x=lad.x * np.exp(1j * phase), s=lad.s * np.exp(-2j * phase))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pool", ["mixed", "1:8:8"])
def test_batched_pivots_equal_the_per_ladder_argmax(pool, seed, mixed_gen_pool):
    """Pair pivots formed in batches per factor dtype and shape are each
    ladder's own argmax, whatever the order of the pool's ladders; some
    factors are made complex so the batches split.
    """
    gen = mixed_gen_pool if pool == "mixed" else _synth_compiled(pool)[1]
    rng = np.random.default_rng(seed)
    lads = [_phased(lad, rng.uniform(0, 2 * np.pi))
            if lad.kind == "pair" and seed and rng.uniform() < 0.5 else lad
            for lad in gen.ladders]
    shuffled = replace(gen, ladders=tuple(lads[k] for k in rng.permutation(len(lads))))
    plan = cir.pivots_from_pools(None, shuffled)
    batched = [ad.pivot if ad.kind == "pair" else None for ad in plan.gen]
    assert batched == _reference_pair_pivots(shuffled)
    assert any(batched)


_V12_KEYS = {"format", "n_system", "n_occ", "qsp_degree", "adaptors", "adaptors_ham",
             "adaptors_gen", "fingerprint"}


def test_the_document_holds_only_fingerprinted_fields(compiled):
    """The key set is exactly v12's; each stored adaptor holds its kind,
    pivots, rank and text, and each side plain indices into them.
    """
    for skel in (compiled[2], _synth_skeleton("1:4:4")):
        doc = json.loads(skel.to_json())
        assert set(doc) == _V12_KEYS
        for ad in doc["adaptors"]:
            assert set(ad) == {"kind", "pivot", "rank", "text"}
        for side, adaptors in skel.sides():
            indices = doc[f"adaptors_{side}"]
            assert len(indices) == len(adaptors)
            assert all(type(k) is int for k in indices)


def test_the_skeleton_in_memory_holds_only_fingerprinted_facts():
    """No field states an address or a width: a load shares one AdaptorSpec
    per stored adaptor among the addresses that use it.
    """
    assert {f.name for f in dataclasses.fields(cir.CircuitSkeleton)} == {
        "n_system", "n_occ", "qsp_degree", "adaptors_ham", "adaptors_gen",
        "fingerprint"}
    assert {f.name for f in dataclasses.fields(cir.AdaptorSpec)} == {
        "kind", "pivot", "rank", "text"}
    loaded = cir.CircuitSkeleton.from_json(_synth_skeleton("1:8:8").to_json())
    addresses = loaded.adaptors_ham + loaded.adaptors_gen
    assert len(addresses) == 465
    assert len({id(ad) for ad in addresses}) == 106


def _channel_skeleton(rank):
    """n_so = 4, one channel of ``rank`` alone: its index register sets the width."""
    plan = cir.CompilePlan(ham=(cir.AdaptorDescriptor("channel", rank=rank),), gen=(),
                           n_occ=2)
    return cir.compile_skeleton(4, plan)


# (selector, workspace) widths the v11 documents stored
@pytest.mark.parametrize(
    "build, widths",
    [
        (lambda: _synth_skeleton("1:8:8"), (9, 6)),
        (lambda: _synth_skeleton("3:3:2"), (3, 5)),
        (lambda: cir.one_pool_skeleton(_synth_compiled("3:3:2")[0], None), (3, 5)),
        (lambda: cir.one_pool_skeleton(None, _synth_compiled("3:3:2")[1]), (2, 2)),
        (lambda: cir.one_pool_skeleton(None, _synth_compiled("1:8:8")[1]), (9, 2)),
        (lambda: _channel_skeleton(3), (1, 4)),
        (lambda: _channel_skeleton(5), (1, 5)),
        (lambda: _channel_skeleton(9), (1, 6)),
    ],
    ids=["1:8:8", "3:3:2", "3:3:2-ham", "3:3:2-gen", "1:8:8-gen", "rank-3", "rank-5",
         "rank-9"],
)
def test_the_derived_widths_are_the_stored_ones(build, widths):
    """Compiled and loaded, the widths derived from the adaptors are v11's."""
    skel = build()
    loaded = cir.CircuitSkeleton.from_json(skel.to_json())
    for s in (skel, loaded):
        assert (s.selector_width, s.workspace_width) == widths


@pytest.mark.parametrize(
    "where, key",
    [("skeleton", "manifest"), ("skeleton", "connectivity"),
     ("skeleton", "selector_width"), ("stored adaptor 1", "address"),
     ("stored adaptor 1", "body")],
)
def test_an_unknown_key_is_a_parse_error_naming_it(compiled, where, key):
    """A key outside the fingerprinted ones, at the top level or in a stored
    adaptor, is refused by name, whatever its value.
    """
    doc = json.loads(compiled[2].to_json())
    holder = doc if where == "skeleton" else doc["adaptors"][1]
    holder[key] = 1
    match = f"^{where} has unknown field {key!r}$"
    with pytest.raises(ParseError, match=match):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def _bump(field):
    """Another value of the same JSON type for a stored adaptor's ``field``."""
    return {
        "kind": lambda ad: ad["kind"] + "2",
        "pivot": lambda ad: ad["pivot"] + [0],
        "rank": lambda ad: ad["rank"] + 1,
        "text": lambda ad: ad["text"] + "x|0\n",
    }[field]


@pytest.mark.parametrize("field", ["kind", "pivot", "rank", "text"])
def test_every_stored_adaptor_field_is_bound(compiled, field):
    """Changing one field of any stored adaptor, keeping its type, fails the load."""
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    for k, ad in enumerate(doc["adaptors"]):
        edited = json.loads(json.dumps(doc))
        edited["adaptors"][k][field] = _bump(field)(ad)
        with pytest.raises(ValidationError):
            cir.CircuitSkeleton.from_json(json.dumps(edited))


def test_a_pool_listed_out_of_address_order_compiles_in_address_order(
    small_pools, mixed_gen_pool
):
    """Ladders listed in reverse give the plan of the pool in order, so
    the same skeleton, and a document that round-trips.
    """
    ham, _ = small_pools
    gen = mixed_gen_pool
    shuffled_ham = replace(
        ham, one_body=ham.one_body[::-1], channels=ham.channels[::-1]
    )
    shuffled_gen = replace(gen, ladders=gen.ladders[::-1])
    plan = cir.pivots_from_pools(shuffled_ham, shuffled_gen)
    listed = [lad.address for lad in shuffled_gen.ladders]
    assert listed != sorted(listed)
    assert plan == cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(ham.n_so, plan)
    in_order = cir.compile_skeleton(ham.n_so, cir.pivots_from_pools(ham, gen))
    assert skel.to_json() == in_order.to_json()
    loaded = cir.CircuitSkeleton.from_json(skel.to_json())
    assert loaded == skel
    assert loaded.to_json() == skel.to_json()


def _shared_skeleton_doc():
    """Synth ``1:4:4``'s skeleton document: addresses share each pair adaptor."""
    return json.loads(_synth_skeleton("1:4:4").to_json())


_SIDES = ("adaptors_ham", "adaptors_gen")


def test_a_tampered_shared_body_fails_the_fingerprint():
    """One edit to a shared stored adaptor changes every address that uses it;
    the fingerprint, recomputed per address, objects.
    """
    doc = _shared_skeleton_doc()
    uses = doc["adaptors_ham"] + doc["adaptors_gen"]
    k = next(k for k in range(len(doc["adaptors"])) if uses.count(k) > 1)
    text = doc["adaptors"][k]["text"]
    j = next(j for j, line in enumerate(text.split("\n")) if "," in line)

    def reverse(lines):
        gate, qubits = lines[j].split("|")
        lines[j] = f"{gate}|{','.join(qubits.split(',')[::-1])}"

    _edit_lines(doc, k, reverse)
    with pytest.raises(ValidationError, match="fingerprint does not match"):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def test_swapped_body_indices_fail_the_fingerprint():
    """Two side entries swap stored adaptors that were both first used before
    either: the first-use order still holds, and the fingerprint objects.
    """
    doc = _shared_skeleton_doc()
    entries = [(key, i, k) for key in _SIDES for i, k in enumerate(doc[key])]
    first = {}
    for n, (_, _, k) in enumerate(entries):
        first.setdefault(k, n)
    (side_a, i, a), (side_b, j, b) = next(
        (x, y) for n, x in enumerate(entries) for y in entries[n + 1:]
        if x[2] != y[2] and max(first[x[2]], first[y[2]]) < n
    )
    doc[side_a][i], doc[side_b][j] = b, a
    with pytest.raises(ValidationError, match="fingerprint does not match"):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


_ORDER = "sides must use each stored adaptor, in first-use order"


@pytest.mark.parametrize(
    "index, match",
    [
        (lambda n: n, _ORDER),
        (lambda n: -1, _ORDER),
        (lambda n: "0", "adaptors_gen entries must be int, not str"),
        (lambda n: True, "adaptors_gen entries must be int, not bool"),
        (lambda n: 0.0, "adaptors_gen entries must be int, not float"),
        (lambda n: None, "adaptors_gen entries must be int, not NoneType"),
    ],
    ids=["past-the-end", "negative", "string", "bool", "float", "null"],
)
def test_a_bad_body_index_is_a_parse_error(compiled, index, match):
    """A side entry that is no index of a stored adaptor."""
    doc = json.loads(compiled[2].to_json())
    doc["adaptors_gen"][1] = index(len(doc["adaptors"]))
    with pytest.raises(ParseError, match=match):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def test_bodies_are_each_used_and_in_first_use_order():
    """An unused stored adaptor, and stored adaptors listed out of first-use
    order, are refused, although neither changes any address's adaptor or
    the fingerprint.
    """
    doc = _shared_skeleton_doc()
    unused = json.loads(json.dumps(doc))
    extra = {"kind": "null", "pivot": [], "rank": 0, "text": "x|99\n"}
    unused["adaptors"].append(extra)
    reordered = json.loads(json.dumps(doc))
    last = len(doc["adaptors"]) - 1
    reordered["adaptors"].reverse()
    for key in _SIDES:
        reordered[key] = [last - k for k in reordered[key]]
    for edited in (unused, reordered):
        with pytest.raises(ParseError, match=_ORDER):
            cir.CircuitSkeleton.from_json(json.dumps(edited))


def test_a_repeated_stored_adaptor_is_a_parse_error():
    """A copy of a stored adaptor, used in first-use order, would load as the
    same skeleton, whose ``to_json`` writes other bytes; it is refused.
    """
    doc = _shared_skeleton_doc()
    gen, n = doc["adaptors_gen"], len(doc["adaptors"])
    assert gen[-1] in doc["adaptors_ham"] + gen[:-1]  # used before: its copy is new
    doc["adaptors"].append(dict(doc["adaptors"][gen[-1]]))
    gen[-1] = n
    with pytest.raises(ParseError, match="^stored adaptors must be pairwise distinct$"):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def test_dialsheet_json_roundtrip(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 3]))
    back = cir.DialSheet.from_json(sheet.to_json())
    assert back.to_json() == sheet.to_json()
    w1 = cir.execute_encoding(skel, back, "gen")
    w2 = cir.execute_encoding(skel, sheet, "gen")
    assert np.abs(w1 - w2).max() == 0.0


def test_smaller_pool_than_compiled_routes_to_null(compiled, small_pools):
    ham, gen, skel = compiled
    _, gen_small = small_pools  # one ladder versus the compiled three
    sheet = cir.dial(skel, ham, gen_small, cir.Mask.of("m", [1]))
    w = cir.execute_encoding(skel, sheet, "gen")
    target = generator_target(gen_small, [1])
    assert_encodes(w, target, skel.n_system, gen_small.sector)


def test_smaller_hamiltonian_pool_than_compiled(compiled, small_pools):
    """A looser-threshold pool dials into the larger compiled fabric."""
    ham, gen, skel = compiled
    loose = build_hamiltonian_pool(
        synth_instance(7, 2, 2), 1e-1, 0.0
    )
    assert loose.ell < skel.ell_ham
    sheet = cir.dial(skel, loose, gen, cir.Mask.of("m", [1]))
    w = cir.execute_encoding(skel, sheet, "ham")
    assert_encodes(w, hamiltonian_target(loose), skel.n_system, loose.n_elec)
