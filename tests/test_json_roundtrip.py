"""Every JSON artifact writes back the text it was read from."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composer import circuit_ir as cir
from composer.factorization import (
    T2Tensor,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
    pools_from_json,
    pools_to_json,
)
from composer.integrals import IntegralSet, synth_instance


def _same_text(text, load, dump):
    assert dump(load(text)) == text


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from([(2, 2), (3, 2), (3, 4)]),
    data=st.data(),
)
def test_every_artifact_round_trips(seed, shape, data):
    """Integrals, T2, pools, skeleton and dial sheet: ``to_json(from_json(t)) == t``."""
    ints = synth_instance(seed, *shape)
    t2 = mp2_amplitudes(ints)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(t2, 1e-6, 1e-6)
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(ints.n_so, plan, qsp_degree=4)
    addresses = [lad.address for lad in gen.ladders]
    masks = st.sets(st.sampled_from(addresses)) if addresses else st.just(set())
    mask = data.draw(masks, label="mask")
    sheet = cir.dial(skel, ham, gen, cir.Mask.of("m", mask))

    _same_text(ints.to_json(), IntegralSet.from_json, IntegralSet.to_json)
    _same_text(t2.to_json(), T2Tensor.from_json, T2Tensor.to_json)
    for pools in ((ham, gen), (ham,)):
        _same_text(pools_to_json(*pools), pools_from_json, lambda p: pools_to_json(*p))
    skel_cls = cir.CircuitSkeleton
    _same_text(skel.to_json(), skel_cls.from_json, skel_cls.to_json)
    _same_text(sheet.to_json(), cir.DialSheet.from_json, cir.DialSheet.to_json)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
@example([-0.0])
@example([5e-324, -2.225073858507201e-308, 1e-310])
@example([1.7976931348623157e308, -1.7976931348623157e308])
def test_packed_values_read_back_bit_for_bit(values):
    """A dial sheet's packed stream decodes to the very float64 bits it held."""
    sheet = cir.DialSheet("f" * 64, "m", (), tuple(values), {})
    back = cir.DialSheet.from_json(sheet.to_json()).values
    assert all(type(v) is float for v in back)
    bits = (np.array(v, dtype="<f8").view(np.uint64) for v in (values, back))
    assert np.array_equal(*bits)
