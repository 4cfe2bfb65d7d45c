import json

import numpy as np
import pytest

from composer import circuit_ir as cir
from composer import oracle
from composer.errors import BindError, ParseError, ValidationError
from composer.factorization import (
    GeneratorPool,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance
from conftest import mixed_generator_pool


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
    bound = set(sheet.angle_bindings) | set(sheet.phase_bindings)
    assert set(skel.all_slots()) <= bound
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
    with pytest.raises(BindError):
        cir.dial(skel, ham, gen, cir.Mask.of("m", [17]))


@pytest.mark.parametrize("instance", ["compiled", "compiled_n6"])
def test_roundtrip_generator_execution(instance, request):
    ham, gen, skel = request.getfixturevalue(instance)
    for mask_indices in ([1], [1, 2], [2, 3], []):
        sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", mask_indices))
        w = cir.execute_generator_encoding(skel, sheet)
        w_direct, _ = oracle.generator_block_encoding(
            gen,
            frozenset(mask_indices),
            selector_width=skel.selector_width,
            workspace=cir.generator_workspace_width(skel),
        )
        assert np.abs(w - w_direct).max() <= 1e-10


def test_roundtrip_hamiltonian_execution(compiled):
    ham, gen, skel = compiled
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", [1]))
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    w_direct, _ = oracle.hamiltonian_block_encoding(
        ham, selector_width=skel.selector_width, workspace=skel.workspace_width
    )
    assert np.abs(w - w_direct).max() <= 1e-10


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


def _reverse_first(gate):
    """Swap control and target of the first ``gate`` layer in the skeleton."""

    def tamper(doc):
        layer = next(
            layer
            for ad in doc["adaptors_ham"] + doc["adaptors_gen"]
            for layer in ad["layers"]
            if layer[0] == gate
        )
        layer[1] = layer[1][::-1]

    return tamper


def _widen(field):
    def tamper(doc):
        doc[field] += 3

    return tamper


def _retarget(doc):
    doc["adaptors_gen"][1]["layers"][0][1] = [0]


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(_retarget, id="retarget"),
        pytest.param(_reverse_first("cx"), id="reversed-cx"),
        pytest.param(_reverse_first("givens"), id="reversed-givens"),
        pytest.param(_widen("n_system"), id="n_system"),
        pytest.param(_widen("selector_width"), id="selector_width"),
        pytest.param(_widen("workspace_width"), id="workspace_width"),
    ],
)
def test_skeleton_json_tamper_detected(compiled, tamper):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    tamper(doc)
    with pytest.raises(ValidationError):
        cir.CircuitSkeleton.from_json(json.dumps(doc))


def test_skeleton_v1_rejected(compiled):
    _, _, skel = compiled
    doc = json.loads(skel.to_json())
    doc["format"] = "composer-skel-v1"
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
    w_direct, _ = oracle.generator_block_encoding(
        gen_small,
        frozenset([1]),
        selector_width=skel.selector_width,
        workspace=cir.generator_workspace_width(skel),
    )
    block = oracle.extract_block(w, skel.n_system)
    block_direct = oracle.extract_block(w_direct, skel.n_system)
    assert np.abs(block - block_direct).max() <= 1e-10


def test_smaller_hamiltonian_pool_than_compiled(compiled, small_pools):
    """A looser-threshold pool dials into the larger compiled fabric."""
    ham, gen, skel = compiled
    loose = build_hamiltonian_pool(
        synth_instance(7, 2, 2), 1e-1, 0.0
    )
    assert loose.ell < skel.ell_ham
    sheet = cir.dial(skel, loose, gen, cir.Mask.of("m", [1]))
    w = cir.execute_hamiltonian_encoding(skel, sheet)
    w_direct, _ = oracle.hamiltonian_block_encoding(
        loose, selector_width=skel.selector_width, workspace=skel.workspace_width
    )
    n = skel.n_system
    assert np.abs(
        oracle.extract_block(w, n) - oracle.extract_block(w_direct, n)
    ).max() <= 1e-10
