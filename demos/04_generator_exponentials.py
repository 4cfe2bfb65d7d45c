"""Exponentiate a masked generator through the Chebyshev block recurrence.

The degree comes from the Jacobi-Anger tail of exp(-i alpha x) at the
global normalization; masks re-dial the loader amplitudes while the
normalization, and hence the degree, stays fixed via the null branch.
"""

import numpy as np

from composer import qsp
from composer.factorization import mp2_amplitudes, nested_svd_t2
from composer.integrals import synth_instance

ints = synth_instance(7, 3, 2)
t2 = mp2_amplitudes(ints)
print(f"second-order amplitudes: {t2.amplitudes.shape} pair matrix, "
      f"E_corr = {t2.e_corr:.6f}")
gen = nested_svd_t2(t2, tau_svd=0.0, tau_wedge=0.0)
print(f"generator pool: {gen.ell} pair ladders, alpha_bar = {gen.alpha_bar:.4f}")

for eps in (1e-4, 1e-8, 1e-12):
    d = qsp.degree_for(gen.alpha_bar, eps)
    print(f"  eps = {eps:g}: degree {d}")

full = frozenset(gen.branches.address.tolist())
half = frozenset(list(sorted(full))[: max(len(full) // 2, 1)])
for label, mask in (("full", full), ("half", half), ("empty", frozenset())):
    _, rep = qsp.exp_sigma_block(gen, mask, eps_poly=1e-10)
    print(f"mask {label:>5}: degree {rep.degree}, "
          f"deviation from exact exp = {rep.measured_deviation:.2e} "
          f"(certified poly error {rep.eps_poly:.2e})")

# injected block error propagates linearly with a small stable constant
for ep in (1e-6, 1e-5, 1e-4):
    _, rep = qsp.exp_sigma_block(gen, full, 1e-12, eps_prime=ep)
    print(f"injected eps' = {ep:g}: deviation {rep.measured_deviation:.3e} "
          f"-> C = dev / (d eps') = {rep.measured_deviation / (rep.degree * ep):.3f}")
