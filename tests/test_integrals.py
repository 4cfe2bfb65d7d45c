import numpy as np
import pytest

from composer import oracle
from composer.errors import ParseError, ValidationError
from composer.integrals import (
    IntegralSet,
    fock_matrix,
    mean_field_shift,
    parse_fcidump,
    synth_instance,
    write_fcidump,
)
from conftest import H2_LIKE_FCIDUMP


def test_parse_minimal_h2_like():
    ints = parse_fcidump(H2_LIKE_FCIDUMP)
    assert ints.n_so == 2
    assert ints.h[0, 0] == pytest.approx(-1.2528, abs=1e-14)
    assert ints.h[1, 1] == pytest.approx(-1.2528, abs=1e-14)
    assert ints.eri[0, 1, 0, 1] == pytest.approx(0.7137, abs=1e-14)
    assert ints.eri[0, 1, 1, 0] == 0.0
    assert ints.e_nn == pytest.approx(0.7137)
    # determinant energy from brute-force diagonalization equals the
    # closed-form 2 h11 + (11|11) + E_nn
    h = oracle.dense_hamiltonian(ints)
    evals = np.linalg.eigvalsh(h[np.ix_([3], [3])])
    assert evals[0] == pytest.approx(2 * (-1.2528) + 0.7137 + 0.7137, abs=1e-12)


def test_parse_empty_body_zero_case():
    ints = parse_fcidump("&FCI NORB=2,NELEC=2 &END\n")
    assert ints.n_so == 4
    assert np.abs(ints.h).max() == 0.0
    assert np.abs(ints.eri).max() == 0.0
    assert ints.e_nn == 0.0


def test_parse_index_out_of_range():
    text = "NORB=2,NELEC=2 /\n0.5 3 1 0 0\n"
    with pytest.raises(ParseError):
        parse_fcidump(text)


def test_parse_missing_header_keys():
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NORB=2 &END\n0.5 1 1 0 0\n")


def test_nelec_exceeds_capacity():
    with pytest.raises(ValidationError):
        parse_fcidump("NORB=1,NELEC=4 /\n")


def test_roundtrip_serialize_parse(small_instance):
    text = write_fcidump(small_instance)
    back = parse_fcidump(text)
    assert back.allclose(small_instance, tol=1e-14)


def test_json_roundtrip(small_instance):
    back = IntegralSet.from_json(small_instance.to_json())
    assert back.allclose(small_instance, tol=0.0)


def test_synth_deterministic():
    a = synth_instance(1, 2, 2)
    b = synth_instance(1, 2, 2)
    assert a.to_json() == b.to_json()


def test_synth_psd_supermatrix():
    for seed in range(5):
        ints = synth_instance(seed, 3, 2)
        lo = np.linalg.eigvalsh(ints.supermatrix())[0]
        assert lo >= -1e-12


def test_synth_rejects_odd_electrons():
    with pytest.raises(ValidationError):
        synth_instance(0, 2, 3)


def test_spin_expansion_preserves_spatial_trace(small_instance):
    spatial_trace = np.trace(small_instance.h[::2, ::2])
    assert np.trace(small_instance.h) == pytest.approx(2 * spatial_trace, abs=1e-13)


def test_mean_field_shift_zero_eri():
    ints = parse_fcidump("NORB=2,NELEC=2 /\n-0.5 1 1 0 0\n1.0 2 2 0 0\n")
    assert np.abs(mean_field_shift(ints) - ints.h).max() == 0.0


def test_mean_field_shift_direct_formula():
    # sum_s <00|ss> = 0.4 with h = 0 gives htilde_00 = -0.2
    n = 2
    eri = np.zeros((n, n, n, n))
    eri[0, 0, 0, 0] = 0.3
    eri[0, 0, 1, 1] = 0.1
    ints = IntegralSet(1, 2, 2, 0.0, np.zeros((n, n)), eri)
    shifted = mean_field_shift(ints)
    assert shifted[0, 0] == pytest.approx(-0.2, abs=1e-14)


def test_mean_field_shift_matches_naive_loop(small_instance):
    naive = small_instance.h.copy().astype(float)
    n = small_instance.n_so
    for p in range(n):
        for q in range(n):
            for s in range(n):
                naive[p, q] -= 0.5 * small_instance.eri[p, q, s, s]
    assert np.abs(mean_field_shift(small_instance) - naive).max() <= 1e-14


def test_synth_is_canonical(small_instance):
    f = fock_matrix(small_instance)
    off = f - np.diag(np.diag(f))
    assert np.abs(off).max() <= 1e-12
    assert np.all(np.diff(small_instance.orb_energies) >= -1e-12)


def test_parse_fortran_exponent_format():
    ints = parse_fcidump(
        "NORB=1,NELEC=2 /\n1.0D-01 1 1 1 1\n-5.0d-01 1 1 0 0\n"
    )
    assert ints.eri[0, 1, 0, 1] == pytest.approx(0.1, abs=1e-15)
    assert ints.h[0, 0] == pytest.approx(-0.5, abs=1e-15)
