"""Every JSON artifact writes back the text it was read from."""

import base64
import binascii
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composer import circuit_ir as cir
from composer.errors import ParseError, checked_packed
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
    sheet = cir.DialSheet("f" * 64, "m", (), np.array(values, "<f8"), {})
    back = cir.DialSheet.from_json(sheet.to_json()).values
    assert back.dtype == np.dtype("<f8") and not back.flags.writeable
    bits = (np.array(v, dtype="<f8").view(np.uint64) for v in (values, back))
    assert np.array_equal(*bits)



@settings(max_examples=200, deadline=None)
@given(
    mask_id=st.text(),
    indices=st.lists(st.integers(0, 500), max_size=5),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=9),
    coeffs=st.dictionaries(st.text(max_size=4), st.lists(st.floats(-1, 1), max_size=3),
                           max_size=3),
)
@example('"q"\\ \u00e9\u2603\n', [1], [0.5], {"omega": [0.1], "\u00e9": []})
def test_sheet_text_equals_one_dumps_of_the_document(mask_id, indices, values, coeffs):
    """Appending the packed ``values`` after the rest gives the bytes of one
    ``json.dumps`` of the whole document, escapes in ``mask_id`` included.
    """
    sheet = cir.DialSheet("f" * 64, mask_id, tuple(indices), np.array(values, "<f8"),
                          coeffs)
    doc = {
        "format": cir.DIAL_FORMAT,
        "skeleton_fingerprint": "f" * 64,
        "mask_id": mask_id,
        "mask_indices": indices,
        "values": base64.b64encode(sheet.values.tobytes()).decode(),
        "classical_coeffs": coeffs,
    }
    assert sheet.to_json() == json.dumps(doc, sort_keys=True)

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _canonical_by_reencoding(value):
    """Reference rule: re-encoding the leniently decoded bytes gives ``value``."""
    try:
        raw = binascii.a2b_base64(value)
        return binascii.b2a_base64(raw, newline=False) == value.encode()
    except ValueError:
        return False


@st.composite
def _edited_encodings(draw):
    """A canonical encoding with up to two characters replaced, put in or cut."""
    text = list(binascii.b2a_base64(draw(st.binary(max_size=10)), newline=False)
                .decode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(_B64 + "=\n é"))
        edit = draw(st.sampled_from(["replace", "insert", "cut"]))
        if edit == "insert" or not text:
            text.insert(at, char)
        elif edit == "replace":
            text[min(at, len(text) - 1)] = char
        else:
            del text[min(at, len(text) - 1)]
    return "".join(text)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(_B64 + "=\n é", max_size=14), _edited_encodings()))
@example("QUJD=")  # a stray pad after a full quad
@example("QR==")  # a bit set after the last byte
@example("QQ==QUJD")  # padding before the end
def test_packed_fields_keep_the_reencoding_rule(value):
    """A packed field is refused as non-canonical exactly where the re-encoding
    rule refuses it: the strict decode with a length and last-quad check is
    the same rule, without encoding the whole field again.
    """
    try:
        checked_packed(value, "values")
        canonical = True
    except ParseError as exc:
        canonical = "strict base64" not in str(exc)
    assert canonical == _canonical_by_reencoding(value)
