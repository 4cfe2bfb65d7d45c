"""Stability diagnostics: subspace overlaps, coverage masks, RDM drift.

These are the classical checks that justify freezing the operator
manifold: overlap curves between excitation subspaces, one-shot coverage
masks over ladder weights, and density-matrix drift under coefficient
updates.
"""

from dataclasses import replace

import numpy as np

from composer import diagnostics as dg
from composer import jw
from composer.factorization import (
    T2Tensor,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance

rng = np.random.default_rng(3)

# overlap between a tensor and a noisy copy of itself
t_ref = T2Tensor(rng.normal(size=(10, 6)), 4, 5)
noisy = T2Tensor(
    t_ref.amplitudes + 0.05 * rng.normal(size=t_ref.amplitudes.shape), 4, 5
)
curve = dg.wauc(t_ref, noisy, eps_s=1e-3)
print(f"weighted average overlap vs noisy copy: {curve.wauc:.4f} "
      f"over {curve.r_eps} retained ranks")
print(f"per-rank overlaps: {np.round(curve.ov, 3)}")

# one-shot coverage mask over a generator pool
ints = synth_instance(7, 3, 2)
gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
for eta in (0.5, 0.9, 0.99):
    mask = dg.one_shot_mask(gen, eta)
    print(f"eta = {eta}: mask {sorted(mask.indices)} "
          f"(coverage {dg.mask_coverage(gen, mask):.4f})")

# density-matrix drift under a 1 percent coefficient update
scaled = replace(gen, pairs=replace(gen.pairs, coefficient=1.01 * gen.pairs.coefficient))
ref = np.zeros(2**6, dtype=complex)
ref[jw.basis_state(6, [0, 1])] = 1.0
mask = dg.one_shot_mask(gen, 0.99)
occ, vir = dg.density_matrix_drift(gen, scaled, mask, ref, 6)
print(f"RDM drift for a 1% coefficient update: occupied {occ:.2e}, "
      f"virtual {vir:.2e}")
occ_blk, vir_blk = dg.reduced_density_blocks(gen, mask, ref, 6)
print(f"trace check: tr(D_occ) + tr(D_vir) = "
      f"{np.trace(occ_blk).real + np.trace(vir_blk).real:.10f} (electrons = 2)")
