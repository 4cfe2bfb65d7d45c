"""Masked similarity sandwich with a verified additive error budget.

The effective-Hamiltonian block exp(-sigma) H exp(sigma) / alpha is
composed from the blocks of the generator exponential and the Hamiltonian
encoding, each run one adaptor at a time on the ancilla-zero columns of
the two-electron sector; the measured model-space deviation stays inside
twice the exponential error plus the multiplexing error.  The block is
the sector's, indexed by position in ``jw.sector_indices(4, 2)``.
"""

from dataclasses import replace

import numpy as np

from composer import jw
from composer import mask_engine as me
from composer.factorization import (
    BilinearLadder,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance

ints = synth_instance(7, 2, 2)
ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
base = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)

# enlarge the pool with two single-excitation ladders so masks have room
u0 = np.eye(4, dtype=complex)
gen = replace(base, bilinears=(
    BilinearLadder(u=u0[:, 2], v=u0[:, 0], coefficient=0.08, address=2),
    BilinearLadder(u=u0[:, 3], v=u0[:, 1], coefficient=0.05, address=3),
))

sector = list(jw.sector_indices(4, 2))
for mask in (frozenset(), frozenset([1]), frozenset([1, 2, 3])):
    rep, block = me.similarity_sandwich(ham, gen, mask, sector, eps_poly=1e-9)
    print(f"mask {sorted(mask) or '[]'}: measured error {rep.measured_error:.2e} "
          f"<= budget 2*{rep.eps_exp:.2e} + {rep.eps_ham:.2e} "
          f"-> within: {rep.within_budget}")

# matrix elements of the dressed block in a two-determinant model space,
# the sector's first two determinants
rep, block = me.similarity_sandwich(ham, gen, frozenset([1]), sector, 1e-9)
bras = [np.eye(len(sector), dtype=complex)[:, k] for k in range(2)]
table = me.matrix_elements(block, bras, bras)
print("model-space matrix elements (times alpha):")
print(np.round(rep.alpha * table.real, 6))
