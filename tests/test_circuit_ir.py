import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composer import circuit_ir as cir
from composer import jw, oracle
from composer.errors import BindError, MaskError, ParseError, ValidationError
from composer.factorization import (
    GeneratorPool,
    HamiltonianPool,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance
from conftest import adaptor_targets, assert_encodes, mixed_generator_pool


@pytest.fixture(scope="module")
def compiled(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(ham.ell, gen.ell, 4, plan, "full", qsp_degree=8)
    return ham, gen, skel


@pytest.fixture(scope="module")
def compiled_n6():
    """n_so = 6 at the command-line thresholds: an 11-qubit generator encoding."""
    ints = synth_instance(7, 3, 2)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    gen = mixed_generator_pool(gen, n_so=6)
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(ham.ell, gen.ell, 6, plan, "full", qsp_degree=8)
    return ham, gen, skel


def test_compile_deterministic(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    again = cir.compile_skeleton(ham.ell, gen.ell, 4, plan, "full", qsp_degree=8)
    assert again.fingerprint == skel.fingerprint


def test_minimal_sizes_selector_width():
    # single branch on each side at n = 2: width covers the null branch
    plan_min = cir.CompilePlan(
        ham=(cir.AdaptorDescriptor("one_body_mode", 0, pivot=(0,), rank=1),),
        gen=(cir.AdaptorDescriptor("bilinear_asym", 1, pivot=(0, 1), rank=2),),
    )
    skel = cir.compile_skeleton(1, 1, 2, plan_min, "full", 2)
    assert skel.selector_width == 1  # ceil(log2 max(1, 2)) = 1
    again = cir.compile_skeleton(1, 1, 2, plan_min, "full", 2)
    assert again.fingerprint == skel.fingerprint


def test_selector_width_counts_null_branch(small_pools):
    ham, gen5 = small_pools
    gen5 = mixed_generator_pool(gen5, extra=4)  # ell_sigma = 5
    plan = cir.pivots_from_pools(ham, gen5)
    skel = cir.compile_skeleton(ham.ell, 5, 4, plan, "full", 2)
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
    plan2 = cir.CompilePlan(ham=tuple(bumped), gen=plan.gen)
    skel2 = cir.compile_skeleton(ham.ell, gen.ell, 4, plan2, "full", 8)
    assert skel2.fingerprint != skel.fingerprint


def test_swapped_addresses_change_fingerprint(compiled):
    ham, gen, skel = compiled
    plan = cir.pivots_from_pools(ham, gen)
    g = list(plan.gen)
    g[0], g[1] = (
        cir.AdaptorDescriptor(g[1].kind, g[0].address, g[1].pivot, g[1].rank),
        cir.AdaptorDescriptor(g[0].kind, g[1].address, g[0].pivot, g[0].rank),
    )
    plan2 = cir.CompilePlan(ham=plan.ham, gen=tuple(g))
    skel2 = cir.compile_skeleton(ham.ell, gen.ell, 4, plan2, "full", 8)
    assert skel2.fingerprint != skel.fingerprint


def test_fingerprint_recompute_matches(compiled):
    _, _, skel = compiled
    assert cir.fabric_fingerprint(skel) == skel.fingerprint


def test_dial_binds_every_slot(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1, 2]))
    angle_slots, phase_slots = skel.slot_kinds()
    assert angle_slots == set(sheet.angle_bindings)
    assert phase_slots == set(sheet.phase_bindings)
    assert sheet.skeleton_fingerprint == skel.fingerprint


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
    ham, gen, skel = compiled
    full = cir.dial(skel, ham, gen, cir.Mask.of("full", [1, 2, 3]))
    empty = cir.dial(skel, ham, gen, cir.Mask.of("empty", []))
    angle_diff = {
        k
        for k in full.angle_bindings
        if full.angle_bindings[k] != empty.angle_bindings[k]
    }
    phase_diff = {
        k
        for k in full.phase_bindings
        if full.phase_bindings[k] != empty.phase_bindings[k]
    }
    assert phase_diff == set()
    assert all(k.startswith("prep/gen/") for k in angle_diff)


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
    base = cir.dial(skel, ham, gen, mask, alpha_bar=worst)
    scaled = cir.dial(skel, ham, doubled, mask, alpha_bar=worst)
    angle_diff = {
        k
        for k in base.angle_bindings
        if abs(base.angle_bindings[k] - scaled.angle_bindings[k]) > 1e-15
    }
    assert all(k.startswith("prep/gen/") for k in angle_diff)
    phase_diff = {
        k
        for k in base.phase_bindings
        if abs(base.phase_bindings[k] - scaled.phase_bindings[k]) > 1e-15
    }
    assert phase_diff == set()


def test_dial_rejects_oversized_pool(compiled, small_pools):
    ham, gen, skel = compiled
    too_big = mixed_generator_pool(gen, seed=13, extra=20)
    with pytest.raises(BindError):
        cir.dial(skel, ham, too_big, cir.Mask.of("m", [1]))


def test_dial_rejects_foreign_mask(compiled):
    ham, gen, skel = compiled
    with pytest.raises(MaskError):
        cir.dial(skel, ham, gen, cir.Mask.of("m", [17]))


def generator_target(gen, mask_indices):
    return oracle.generator_dense(gen, mask_indices).matrix / gen.alpha_bar


def hamiltonian_target(ham):
    return oracle.hamiltonian_from_pool(ham).matrix / ham.alpha


@pytest.mark.parametrize("instance", ["compiled", "compiled_n6"])
def test_roundtrip_generator_execution(instance, request):
    ham, gen, skel = request.getfixturevalue(instance)
    for mask_indices in ([1], [1, 2], [2, 3], []):
        sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", mask_indices))
        w = cir.execute_generator_encoding(skel, sheet)
        target = generator_target(gen, mask_indices)
        assert_encodes(w, target, skel.n_system, gen.sector)


def test_roundtrip_hamiltonian_execution(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    w = cir.execute_hamiltonian_encoding(skel, sheet)
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


def _assert_block_matches_assembly(block, w, n):
    assert np.abs(block - oracle.extract_block(w, n)).max() <= 1e-13


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_column_blocks_match_assembly(compiled, data):
    """n_so = 4: both encodings, run on columns, equal the assembled blocks."""
    ham, gen, skel = compiled
    sheet = _dial_random_prefix(ham, gen, skel, data)
    n = skel.n_system
    _assert_block_matches_assembly(
        cir.execute_generator_block(skel, sheet),
        cir.execute_generator_encoding(skel, sheet),
        n,
    )
    _assert_block_matches_assembly(
        cir.execute_hamiltonian_block(skel, sheet),
        cir.execute_hamiltonian_encoding(skel, sheet),
        n,
    )


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_generator_column_block_matches_assembly_n6(compiled_n6, data):
    ham, gen, skel = compiled_n6
    sheet = _dial_random_prefix(ham, gen, skel, data)
    _assert_block_matches_assembly(
        cir.execute_generator_block(skel, sheet),
        cir.execute_generator_encoding(skel, sheet),
        skel.n_system,
    )


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_adaptor_encodes_its_ladder(small_pools, mixed_gen_pool, data):
    """Compile -> dial -> execute_adaptor: each branch encodes its own ladder."""
    ham, gen, mask = _random_prefix(small_pools[0], mixed_gen_pool, data)
    plan = cir.pivots_from_pools(ham, gen)
    n = ham.n_so
    skel = cir.compile_skeleton(ham.ell, gen.ell, n, plan)
    sheet = cir.dial(skel, ham, gen, mask)
    targets = adaptor_targets(ham, gen)
    assert len(targets) == ham.ell + gen.ell
    for address, target in targets.items():
        assert_encodes(cir.execute_adaptor(skel, sheet, address), target, n, ham.n_elec)
    null = cir.execute_adaptor(skel, sheet, "gen/0")
    assert_encodes(null, np.zeros((2**n, 2**n)), n, ham.n_elec)


def _sector_max(block, target, n, sector):
    diag = jw.sector_projector_diagonal(n, sector)
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
    skel = cir.compile_skeleton(ham.ell, gen.ell, n, cir.pivots_from_pools(ham, gen))
    sheet = cir.dial(skel, ham, gen, mask)
    block = cir.execute_generator_block(skel, sheet)
    assert _sector_max(block, generator_target(gen, mask), n, gen.sector) <= 1e-12
    block = cir.execute_hamiltonian_block(skel, sheet)
    assert _sector_max(block, hamiltonian_target(ham), n, ham.n_elec) <= 1e-12


def test_layer_stream_is_the_program(compiled):
    """A re-targeted givens line, re-fingerprinted, changes what executes."""
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    n = skel.n_system
    target = hamiltonian_target(ham)
    block = cir.execute_hamiltonian_block(skel, sheet)
    assert _sector_max(block, target, n, ham.n_elec) <= 1e-10
    # the givens line of the first one-body adaptor with the largest angle
    ad = next(a for a in skel.adaptors_ham if a.kind == "one_body_mode")
    k = max(
        (k for k, line in enumerate(ad.layers) if line.startswith("givens|")),
        key=lambda k: abs(sheet.angle_bindings[ad.layers[k].split("|")[2]]),
    )
    _, qubits, slot = ad.layers[k].split("|")
    target_q, pivot = (int(q) for q in qubits.split(","))
    sys0 = skel.selector_width + skel.workspace_width
    other = next(q for q in range(sys0, sys0 + n) if q not in (target_q, pivot))
    layers = list(ad.layers)
    layers[k] = f"givens|{other},{pivot}|{slot}"
    retargeted = replace(ad, layers=tuple(layers))
    tampered = replace(
        skel,
        adaptors_ham=tuple(retargeted if a is ad else a for a in skel.adaptors_ham),
    )
    tampered = replace(tampered, fingerprint=cir.fabric_fingerprint(tampered))
    tampered = cir.CircuitSkeleton.from_json(tampered.to_json())
    sheet = cir.dial(tampered, ham, gen, cir.Mask.of("m", [1]))
    block = cir.execute_hamiltonian_block(tampered, sheet)
    assert _sector_max(block, target, n, ham.n_elec) > 1e-3


def test_execute_adaptor_rejects_unknown_address_and_foreign_sheet(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    for address in ("ham/99", "gen/99", "qsp/0", "ham"):
        with pytest.raises(BindError, match="no adaptor"):
            cir.execute_adaptor(skel, sheet, address)
    other = cir.one_pool_skeleton(ham, None)
    with pytest.raises(BindError, match="fingerprint"):
        cir.execute_adaptor(other, sheet, "ham/0")


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
        cir.compile_skeleton(0, 0, 4, cir.CompilePlan(ham=(), gen=()))


def test_execute_rejects_fingerprint_mismatch(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    tampered = cir.DialSheet(
        skeleton_fingerprint="0" * 64,
        mask_id=sheet.mask_id,
        mask_indices=sheet.mask_indices,
        angle_bindings=sheet.angle_bindings,
        phase_bindings=sheet.phase_bindings,
        classical_coeffs=sheet.classical_coeffs,
    )
    with pytest.raises(BindError):
        cir.execute_generator_encoding(skel, tampered)


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


def _rename_slot(fields):
    fields[2] += "_renamed"


def _widen(field):
    def tamper(doc):
        doc[field] += 3

    return tamper


def _retarget(doc):
    gate, _, slot = doc["adaptors_gen"][1]["layers"][0].split("|")
    doc["adaptors_gen"][1]["layers"][0] = f"{gate}|0|{slot}"


def _embed_newline(doc):
    """Merge the first two lines into one text with the same hashed bytes."""
    layers = doc["adaptors_gen"][1]["layers"]
    layers[0:2] = [layers[0] + "\n" + layers[1]]


def _list_layer(doc):
    """A v2-style ``[gate, qubits, slot]`` list in place of a line."""
    gate, qubits, slot = doc["adaptors_gen"][1]["layers"][0].split("|")
    doc["adaptors_gen"][1]["layers"][0] = [
        gate, [int(q) for q in qubits.split(",") if q], slot or None
    ]


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
        pytest.param(
            _edit_first("case", _rename_slot), ValidationError, id="renamed-slot"
        ),
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


@pytest.mark.parametrize(
    "fmt",
    ["composer-skel-v1", "composer-skel-v2", "composer-skel-v3", "composer-skel-v4"],
    ids=["v1", "v2", "v3", "v4"],
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
    w1 = cir.execute_generator_encoding(skel, back)
    w2 = cir.execute_generator_encoding(skel, sheet)
    assert np.abs(w1 - w2).max() == 0.0


def test_smaller_pool_than_compiled_routes_to_null(compiled, small_pools):
    ham, gen, skel = compiled
    _, gen_small = small_pools  # one ladder versus the compiled three
    sheet = cir.dial(skel, ham, gen_small, cir.Mask.of("m", [1]))
    w = cir.execute_generator_encoding(skel, sheet)
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
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    assert_encodes(w, hamiltonian_target(loose), skel.n_system, loose.n_elec)
