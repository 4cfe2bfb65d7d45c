"""Execute and verify the adaptor families and the full multiplex.

Every adaptor comes from the dialed fabric: one skeleton is compiled for
a Hamiltonian pool and a generator pool, dialed once, and each adaptor's
branch is executed from the dial sheet alone, at its address
(``execute_encoding(skel, sheet, "gen/<a>")``, assembled so its unitarity
shows too).  Its block is checked against the dense operator it encodes,
restricted to the working particle-number sector.
"""

from scipy import sparse

from composer import circuit_ir as cir
from composer import oracle
from composer.factorization import (
    build_hamiltonian_pool,
    generator_branch_alpha,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance

ints = synth_instance(4, 2, 2)
n = ints.n_so
pool = build_hamiltonian_pool(ints, 1e-10, 0.0)
gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
plan = cir.pivots_from_pools(pool, gen)
skel = cir.compile_skeleton(n, plan)
sheet = cir.dial(skel, pool, gen, [lad.address for lad in gen.ladders])


def report(label, address, target, sector):
    w = cir.execute_encoding(skel, sheet, address)
    ancillas = cir.ancillas(skel, address)
    err = oracle.restricted_block_error(w, target, ancillas, sector=sector)
    gram = w.conj().T @ w - sparse.identity(w.shape[0])
    print(f"{label}: ancillas = {ancillas}, restricted error = {err:.2e}, "
          f"unitarity = {abs(gram).max():.2e}")


# 1. pair adaptor: the dyad |U><V| of two prepared two-electron states
#    through the vacuum-reflection gadget, in the Hermitian form i(L - L^dag)/2
lad = gen.ladders[0]
ell = oracle.dense_generator_ladder(lad, gen.n_occ, n)
report(f"dyad (pair) adaptor gen/{lad.address}",
       f"gen/{lad.address}",
       1j * (ell - ell.conj().T) / generator_branch_alpha(lad), gen.sector)

# 2. squared diagonalized channel adaptor: O^2 / Gamma^2
lad = pool.channels[0]
o_mu = oracle.channel_operator(lad.channel, n)
report(f"channel adaptor ham/{lad.address} (Gamma^2 = {lad.channel.gamma**2:.4f})",
       f"ham/{lad.address}",
       o_mu @ o_mu / lad.channel.gamma**2, pool.n_elec)

# 3. the binary-multiplexed Hamiltonian: block = H / alpha on the sector,
#    from the pool encoder (run on its ancilla-zero columns), then assembled
#    from the shared sheet
block, reph = oracle.hamiltonian_block_encoding(pool)
print(f"multiplexed Hamiltonian: alpha = {reph.alpha:.4f}, "
      f"ancillas = {reph.ancillas}, restricted error = {reph.measured_error:.2e}")
print(f"  sector preserving: {oracle.assert_sector_preserving(block, n)}")
report("  assembled from the shared sheet", "ham",
       oracle.hamiltonian_from_pool(pool) / pool.alpha, pool.n_elec)
