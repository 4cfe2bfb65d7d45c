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
from scipy.linalg import expm

from composer import circuit_ir as cir
from composer import jw, ladders, oracle
from composer.errors import BindError, MaskError, ParseError, ValidationError
from composer.factorization import (
    GeneratorPool,
    HamiltonianPool,
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
    sector_projector_diagonal,
)


@pytest.fixture(scope="module")
def compiled(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(4, plan, "full", qsp_degree=8)
    return ham, gen, skel


@pytest.fixture(scope="module")
def compiled_n6():
    """n_so = 6 at the command-line thresholds: an 11-qubit generator encoding."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    gen = mixed_generator_pool(gen, n_so=6)
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(6, plan, "full", qsp_degree=8)
    return ham, gen, skel


def test_compile_deterministic(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    again = cir.compile_skeleton(4, plan, "full", qsp_degree=8)
    assert again.fingerprint == skel.fingerprint


def test_minimal_sizes_selector_width():
    # single branch on each side at n = 2: width covers the null branch
    plan_min = cir.CompilePlan(
        ham=(cir.AdaptorDescriptor("one_body_mode", 0, pivot=(0,), rank=1),),
        gen=(cir.AdaptorDescriptor("bilinear_asym", 1, pivot=(0, 1), rank=2),),
        n_occ=1,
    )
    skel = cir.compile_skeleton(2, plan_min, "full", 2)
    assert skel.selector_width == 1  # ceil(log2 max(1, 2)) = 1
    again = cir.compile_skeleton(2, plan_min, "full", 2)
    assert again.fingerprint == skel.fingerprint


def test_selector_width_counts_null_branch(small_pools):
    ham, gen5 = small_pools
    gen5 = mixed_generator_pool(gen5, extra=4)  # ell_sigma = 5
    plan = cir.pivots_from_pools(ham, gen5)
    skel = cir.compile_skeleton(4, plan, "full", 2)
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
            bumped.append(
                cir.AdaptorDescriptor(
                    d.kind,
                    d.address,
                    pivot=tuple((p + 1) % 4 for p in d.pivot),
                    rank=d.rank,
                )
            )
        else:
            bumped.append(d)
    plan2 = replace(plan, ham=tuple(bumped))
    skel2 = cir.compile_skeleton(4, plan2, "full", 8)
    assert skel2.fingerprint != skel.fingerprint


def test_swapped_addresses_change_fingerprint(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    g = list(plan.gen)
    g[0], g[1] = (
        cir.AdaptorDescriptor(g[1].kind, g[0].address, g[1].pivot, g[1].rank),
        cir.AdaptorDescriptor(g[0].kind, g[1].address, g[0].pivot, g[0].rank),
    )
    plan2 = replace(plan, gen=tuple(g))
    skel2 = cir.compile_skeleton(4, plan2, "full", 8)
    assert skel2.fingerprint != skel.fingerprint


def test_fingerprint_recompute_matches(compiled):
    _, _, skel = compiled
    assert cir.fabric_fingerprint(skel) == skel.fingerprint


def _spans_per_line(skel):
    """Reference :attr:`CircuitSkeleton.slot_spans`: each line's gate looked up."""
    spans, start = {}, 0
    for side, adaptors in skel.sides():
        for ad in adaptors:
            gates = (line.partition("|")[0] for line in ad.layers)
            stop = start + 1 + sum(cir.LINE_VALUES.get(g, 0) for g in gates)
            spans[side, ad.address] = start, stop
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
    for ad in skel.adaptors_ham + skel.adaptors_gen:
        pivot = json.dumps([list(p) if isinstance(p, tuple) else p for p in ad.pivot])
        h.update(f"adaptor:{ad.address}:{ad.kind}:{pivot}:{ad.rank}\n".encode())
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
    order = [(side, ad.address) for side, adaptors in skel.sides() for ad in adaptors]
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
    ham, gen, skel = compiled
    too_big = mixed_generator_pool(gen, seed=13, extra=20)
    with pytest.raises(BindError):
        cir.dial(skel, ham, too_big, cir.Mask.of("m", [1]))


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
    pairs = [ad for ad in skel.adaptors_gen if ad.kind == "pair"]
    assert pairs
    return pairs


def _reloaded(skel, ad, layers):
    """``skel`` with adaptor ``ad``'s lines replaced, re-fingerprinted and loaded."""
    edited = replace(ad, layers=tuple(layers))
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
    for ad in _pair_adaptors(skel):
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
    for ad in _pair_adaptors(skel):
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
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("full", gen.by_address()))
    sys0 = skel.selector_width + skel.workspace_width
    for ad in _pair_adaptors(skel):
        lad = gen.by_address()[ad.address]
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        expected = [np.sqrt(weight / gen.alpha_bar), np.pi * (lad.coefficient < 0)]
        rotated = []
        for side, pivot in (("v", ad.pivot[1]), ("u", ad.pivot[0])):
            wedge = cir.wedge_pairs(skel.n_system, skel.n_occ, side)
            vector = (lad.occupied_pair_vector() if side == "v"
                      else lad.virtual_pair_vector())
            (thetas,), (phases,), (gauge,) = ladders.pair_ladder_angles(
                [vector], [wedge.index(pivot)]
            )
            for theta, phi in zip(thetas, phases):
                expected += [theta, phi]
            expected.append(gauge)
            rotated += [pq for pq in wedge if pq != pivot]
        start, stop = skel.slot_spans["gen", ad.address]
        assert stop - start == len(expected)
        assert np.abs(np.subtract(sheet.values[start:stop], expected)).max() <= 1e-14
        lines = [ln.split("|") for ln in ad.layers if ln.startswith("pgivens|")]
        modes = [tuple(int(q) - sys0 for q in qs.split(",")[:2]) for _, qs in lines]
        assert modes == rotated


def test_a_pair_pivot_outside_its_wedge_is_rejected(compiled):
    """Compile and load both refuse a pair pivot off its side's wedge."""
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    ad = next(d for d in plan.gen if d.kind == "pair")
    swapped = replace(ad, pivot=ad.pivot[::-1])  # u on occupied, v on virtual modes
    plan = replace(plan, gen=tuple(swapped if d is ad else d for d in plan.gen))
    match = f"gen adaptor {ad.address}: pair pivots"
    with pytest.raises(ValidationError, match=match):
        cir.compile_skeleton(skel.n_system, plan)
    doc = json.loads(skel.to_json())
    doc["adaptors_gen"][ad.address]["pivot"] = [[1, 2], list(ad.pivot[1])]
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
        f"{side}/{ad.address}" for side, adaptors in sides for ad in adaptors
    ]


def _assert_blocks_match_assembly(skel, sheet, addresses):
    """At each address the column block is the assembled unitary's top-left block."""
    n = skel.n_system
    for address in addresses:
        block = cir.execute_block(skel, sheet, address)
        w = cir.execute_encoding(skel, sheet, address)
        assert np.abs(block - oracle.extract_block(w, n)).max() <= 1e-13, address


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_column_blocks_match_assembly(compiled, data):
    """n_so = 4: at every address, run on columns, equals the assembled block."""
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


def _sector_max(block, target, n, sector):
    diag = sector_projector_diagonal(n, sector)
    return float(np.abs((block - target) * np.outer(diag, diag)).max())


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
    block = cir.execute_block(skel, sheet, "gen")
    assert _sector_max(block, generator_target(gen, mask), n, gen.sector) <= 1e-12
    block = cir.execute_block(skel, sheet, "ham")
    assert _sector_max(block, hamiltonian_target(ham), n, ham.n_elec) <= 1e-12


def test_layer_stream_is_the_program(compiled):
    """A re-targeted givens line, re-fingerprinted, changes what executes."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    n = skel.n_system
    target = hamiltonian_target(ham)
    block = cir.execute_block(skel, sheet, "ham")
    assert _sector_max(block, target, n, ham.n_elec) <= 1e-10
    # the givens line of the first one-body adaptor with the largest angle
    ad = next(a for a in skel.adaptors_ham if a.kind == "one_body_mode")
    k = max(
        (k for k, line in enumerate(ad.layers) if line.startswith("givens|")),
        key=lambda k: abs(sheet.values[line_value_index(skel, "ham", ad, k)]),
    )
    _, qubits = ad.layers[k].split("|")
    target_q, pivot = (int(q) for q in qubits.split(","))
    sys0 = skel.selector_width + skel.workspace_width
    other = next(q for q in range(sys0, sys0 + n) if q not in (target_q, pivot))
    layers = list(ad.layers)
    layers[k] = f"givens|{other},{pivot}"
    tampered = _reloaded(skel, ad, layers)
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    block = cir.execute_block(tampered, sheet, "ham")
    assert _sector_max(block, target, n, ham.n_elec) > 1e-3


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
    ad = next(a for a in skel.adaptors_gen if a.kind == "pair")
    layers = list(ad.layers)
    line = edit(layers)
    tampered = _reloaded(skel, ad, layers)
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    match = f"layer stream near line {line}: expected pgivens on 4 modes"
    with pytest.raises(ValidationError, match=match):
        cir.execute_block(tampered, sheet, "gen")
    with pytest.raises(ValidationError, match=match):
        cir.execute_encoding(tampered, sheet, f"gen/{ad.address}")


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


def _is_layer_line(line):
    """Reference line rule: a string, one line, one ``|``."""
    return type(line) is str and "\n" not in line and line.count("|") == 1


# lines from fragments that may add a newline or a ``|``; lists of lines
# alone, and lists mixing in non-string entries
_FRAGMENTS = st.sampled_from(["rz", "0,1", "|", "||", "\n", ""])
_LINE = st.lists(_FRAGMENTS, max_size=4).map("".join)
_ENTRY = st.one_of(
    _LINE, st.integers(), st.none(), st.booleans(), st.lists(_LINE, max_size=2)
)
_LAYERS = st.one_of(st.lists(_LINE, max_size=6), st.lists(_ENTRY, max_size=6))


@settings(max_examples=300, deadline=None)
@given(layers=_LAYERS)
@example(layers=[])
@example(layers=["rz|0", 7])
@example(layers=["rz|0\nrz"])
@example(layers=["rz", "rz||0"])
def test_the_one_pass_line_check_matches_the_per_line_rule(layers):
    """The joined-text line check accepts exactly the lists whose every entry
    passes the per-line rule, and otherwise names the first entry that fails.
    """
    doc = json.loads(_pair_line_skeleton()[2].to_json())
    ad = doc["adaptors_gen"][1]
    ad["layers"] = layers
    text = json.dumps(doc)
    bad = [line for line in layers if not _is_layer_line(line)]
    if bad:
        match = re.escape(f"adaptor {ad['address']}: malformed layer line {bad[0]!r}")
        with pytest.raises(ParseError, match=f"^{match}$"):
            cir.CircuitSkeleton.from_json(text)
    else:  # the lines load; only the fingerprint, over other lines, can object
        with pytest.raises(ValidationError, match="fingerprint does not match"):
            cir.CircuitSkeleton.from_json(text)


def test_a_row_that_misfits_its_span_is_a_bind_error():
    """A dropped ``givens`` line, re-fingerprinted, loads; dial names the adaptor."""
    ham, gen, skel = _pair_line_skeleton()
    ad = next(a for a in skel.adaptors_ham if a.kind == "one_body_mode")
    k = next(k for k, line in enumerate(ad.layers) if line.startswith("givens|"))
    tampered = _reloaded(skel, ad, ad.layers[:k] + ad.layers[k + 1:])
    start, stop = skel.slot_spans["ham", ad.address]
    row = stop - start
    match = f"ham adaptor {ad.address}: {row} values for its {row - 1} slots"
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


def test_execute_rejects_an_unknown_address_and_a_foreign_sheet(compiled):
    """Every execution entry refuses an address the skeleton lacks.

    ``"ham"`` and ``"gen"`` name the two sides, so they are not on the list.
    """
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    for address in ("ham/99", "gen/99", "qsp/0", "qsp", "ham/", "gen/x"):
        with pytest.raises(BindError, match="no adaptor"):
            cir.ancillas(skel, address)
        for execute in (cir.execute_encoding, cir.execute_block):
            with pytest.raises(BindError, match="no adaptor"):
                execute(skel, sheet, address)
    with pytest.raises(BindError, match="no adaptor"):
        cir.execute_block(cir.one_pool_skeleton(None, gen), sheet, "ham")
    other = cir.one_pool_skeleton(ham, None)
    for execute in (cir.execute_encoding, cir.execute_block):
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
    for execute in (cir.execute_encoding, cir.execute_block):
        with pytest.raises(BindError):
            execute(skel, tampered, "gen")


def test_skeleton_json_roundtrip(compiled):
    _, _, skel = compiled
    back = cir.CircuitSkeleton.from_json(skel.to_json())
    assert back.fingerprint == skel.fingerprint
    assert back.to_json() == skel.to_json()


def _edit_first(gate, edit):
    """Apply ``edit`` to the fields of the first ``gate`` line in the skeleton."""

    def tamper(doc):
        ad, k = next(
            (ad, k)
            for ad in doc["adaptors_ham"] + doc["adaptors_gen"]
            for k, line in enumerate(ad["layers"])
            if line.split("|")[0] == gate
        )
        fields = ad["layers"][k].split("|")
        edit(fields)
        ad["layers"][k] = "|".join(fields)

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


def _retarget(doc):
    gate, _ = doc["adaptors_gen"][1]["layers"][0].split("|")
    doc["adaptors_gen"][1]["layers"][0] = f"{gate}|0"


def _embed_newline(doc):
    """Merge the first two lines into one text with the same hashed bytes."""
    layers = doc["adaptors_gen"][1]["layers"]
    layers[0:2] = [layers[0] + "\n" + layers[1]]


def _list_layer(doc):
    """A v2-style ``[gate, qubits]`` list in place of a line."""
    gate, qubits = doc["adaptors_gen"][1]["layers"][0].split("|")
    qubits = [int(q) for q in qubits.split(",") if q]
    doc["adaptors_gen"][1]["layers"][0] = [gate, qubits]


def _drop_first(gate):
    """Delete the first ``gate`` line in the skeleton."""

    def tamper(doc):
        for ad in doc["adaptors_ham"] + doc["adaptors_gen"]:
            for k, line in enumerate(ad["layers"]):
                if line.split("|")[0] == gate:
                    del ad["layers"][k]
                    return

    return tamper


def _move_select(fields):
    fields[1] = str(int(fields[1]) - 1)


def _scalar_layers(doc):
    doc["adaptors_gen"][1]["layers"] = 5


def _move_pair_pivot(doc):
    """Another u-pivot pair for the first pair adaptor; its layers unchanged."""
    ad = next(ad for ad in doc["adaptors_gen"] if ad["kind"] == "pair")
    ad["pivot"][0] = [0, 1] if ad["pivot"][0] != [0, 1] else [2, 3]


def _lower_channel_rank(doc):
    ad = next(ad for ad in doc["adaptors_ham"] if ad["kind"] == "channel")
    ad["rank"] -= 1


@pytest.mark.parametrize(
    "tamper, error",
    [
        pytest.param(_retarget, ValidationError, id="retarget"),
        pytest.param(_reverse_first("cx"), ValidationError, id="reversed-cx"),
        pytest.param(_reverse_first("givens"), ValidationError, id="reversed-givens"),
        pytest.param(_widen("n_system"), ValidationError, id="n_system"),
        pytest.param(_widen("selector_width"), ValidationError, id="selector_width"),
        pytest.param(_widen("workspace_width"), ValidationError, id="workspace_width"),
        pytest.param(_widen("n_occ"), ValidationError, id="n_occ"),
        pytest.param(_drop_first("gphase"), ValidationError, id="dropped-sign-line"),
        pytest.param(_drop_first("mirror"), ValidationError, id="dropped-mirror"),
        pytest.param(
            _edit_first("select", _move_select), ValidationError, id="moved-select"
        ),
        pytest.param(_embed_newline, ParseError, id="embedded-newline"),
        pytest.param(_list_layer, ParseError, id="non-string-layer"),
        pytest.param(_scalar_layers, ParseError, id="non-list-layers"),
        pytest.param(_move_pair_pivot, ValidationError, id="pivot"),
        pytest.param(_lower_channel_rank, ValidationError, id="rank"),
    ],
)
def test_skeleton_json_tamper_detected(compiled, tamper, error):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    tamper(doc)
    with pytest.raises(error):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def test_adaptor_addresses_must_label_the_selector(compiled):
    """With no prep-slot list, an address outside the selector fails to load."""
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    doc["adaptors_gen"][1]["address"] = 2**skel.selector_width
    with pytest.raises(ValidationError, match="gen adaptor addresses"):
        cir.CircuitSkeleton.from_json(json.dumps(doc))
    moved = replace(skel.adaptors_gen[1], address=2**skel.selector_width)
    with pytest.raises(ValidationError, match="gen adaptor addresses"):
        replace(skel, adaptors_gen=(skel.adaptors_gen[0], moved,
                                    *skel.adaptors_gen[2:]))


@pytest.mark.parametrize(
    "fmt",
    ["composer-skel-v1", "composer-skel-v2", "composer-skel-v3", "composer-skel-v4",
     "composer-skel-v5", "composer-skel-v6", "composer-skel-v7", "composer-skel-v8"],
    ids=["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"],
)
def test_skeleton_v1_rejected(compiled, fmt):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    doc["format"] = fmt
    with pytest.raises(ParseError):
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
