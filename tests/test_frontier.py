"""The sizes the similarity sandwich refuses today: the verification frontier.

Each case is a synth instance (``seed:n_spatial:n_elec``, the CLI's default
thresholds, mask {1}, the model space its whole sector) whose column run
needs more amplitudes than the oracle allows.  The sandwich refuses it at
entry, before it dials or runs an adaptor, and its ShapeError names what
the run needed against what is allowed.  A change that makes a size run
turns its case into a sandwich that passes its budget.
"""

import re

import pytest

from composer import circuit_ir as cir
from composer import jw, mask_engine as me
from composer.errors import ShapeError
from composer.factorization import build_hamiltonian_pool, mp2_amplitudes, nested_svd_t2
from composer.integrals import synth_instance

ALLOWED = 4**jw.MAX_QUBITS  # 16,777,216 amplitudes

# (synth, n_so, amplitudes its widest column run needs)
FRONTIER = [
    ("7:5:4", 10, 69_027_840),
    ("7:6:2", 12, 86_777_856),
]


@pytest.mark.parametrize(("synth", "n_so", "needed"), FRONTIER, ids=[f[0] for f in FRONTIER])
def test_the_sandwich_refuses_the_size_at_entry(synth, n_so, needed):
    ints = synth_instance(*map(int, synth.split(":")))
    assert ints.n_so == n_so
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 1e-6, 1e-6)
    sector = [int(i) for i in jw.sector_indices(ints.n_so, ints.n_elec)]
    runs = cir._adaptor_run.cache_info().misses
    message = f"needs {needed} amplitudes (.*); the oracle allows {ALLOWED}$"
    with pytest.raises(ShapeError, match=message) as refused:
        me.similarity_sandwich(ham, gen, cir.Mask.of("m1", [1]), sector, 1e-9)
    assert cir._adaptor_run.cache_info().misses == runs  # no adaptor ran
    assert ALLOWED == 16_777_216 < needed
    assert re.search(rf"2\*\*{n_so} rows", str(refused.value))
