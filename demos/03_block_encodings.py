"""Assemble and verify the three adaptor families and the full multiplex.

Every unitary is built as a sparse matrix from its defining construction,
and its block is checked against the dense operator it encodes,
restricted to the working particle-number sector.
"""

import numpy as np
from scipy import sparse

from composer import oracle
from composer.factorization import build_hamiltonian_pool
from composer.integrals import synth_instance

rng = np.random.default_rng(1)
n = 4

# 1. one-ancilla dyad adaptor |u><v| via the vacuum-reflection gadget
u = rng.normal(size=n) + 1j * rng.normal(size=n)
u /= np.linalg.norm(u)
v = rng.normal(size=n) + 1j * rng.normal(size=n)
v /= np.linalg.norm(v)
w, rep = oracle.dyad_block_encoding(u, v, 0.8, n)
print(f"dyad adaptor: alpha = {rep.alpha}, ancillas = {rep.ancillas}, "
      f"restricted error = {rep.measured_error:.2e}")

# 2. squared diagonalized channel adaptor
ints = synth_instance(4, 2, 2)
pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
ch = pool.channels[0].channel
w2, rep2 = oracle.channel_block_encoding(ch, n, squared=True)
print(f"channel adaptor: Gamma^2 = {rep2.alpha:.4f}, "
      f"ancillas = {rep2.ancillas}, error = {rep2.measured_error:.2e}")

# 3. the binary-multiplexed Hamiltonian: block = H / alpha on the sector
wh, reph = oracle.hamiltonian_block_encoding(pool)
print(f"multiplexed Hamiltonian: alpha = {reph.alpha:.4f}, "
      f"ancillas = {reph.ancillas}, restricted error = {reph.measured_error:.2e}")
block = oracle.extract_block(wh, n)
gram = wh.conj().T @ wh - sparse.identity(wh.shape[0])
print(f"  unitarity: {abs(gram).max():.2e}")
print(f"  sector preserving: {oracle.assert_sector_preserving(block, n)}")
