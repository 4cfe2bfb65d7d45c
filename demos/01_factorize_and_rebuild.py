"""Factorize a synthetic instance and rebuild the Hamiltonian from ladders.

The two-electron tensor compresses into symmetric Cholesky channels; the
shifted one-body matrix eigendecomposes into diagonal mode ladders.  The
dense operator reassembled from the rank-one pool must match the operator
built directly from the integrals, up to the truncation threshold.
"""

import numpy as np

from composer import oracle
from composer.factorization import (
    build_hamiltonian_pool,
    pivoted_cholesky,
    reconstruct_eri,
)
from composer.integrals import synth_instance

tau = 1e-8
ints = synth_instance(seed=11, n_spatial=3, n_elec=2)
print(f"instance: {ints.n_spatial} spatial orbitals, {ints.n_so} qubits, "
      f"{ints.n_elec} electrons")

channels = pivoted_cholesky(ints, tau)
recon = reconstruct_eri(channels, ints.n_so)
print(f"pivoted Cholesky: K = {len(channels)} channels, "
      f"max ERI reconstruction error {np.abs(recon - ints.eri).max():.2e}")

pool = build_hamiltonian_pool(ints, tau, tau_eig=0.0)
print(f"pool: R1 = {len(pool.one_body)} one-body modes, ell_H = {pool.ell}, "
      f"alpha = {pool.alpha:.4f}")

dense = oracle.dense_hamiltonian(ints, include_e_nn=False)
rebuilt = oracle.hamiltonian_from_pool(pool)
err = np.linalg.norm(dense - rebuilt, 2)
print(f"operator-norm rebuild error: {err:.2e} "
      f"(bound {10 * tau * ints.n_so**2:.2e})")
