"""Closed-form resource accounting across connectivity models.

The estimator prices the compiled fabric with exact integer conventions,
from the skeleton alone (it records the occupied count the pair wedges
are sized by, and no hardware model); the connectivity passed to
``estimate`` sets, through its table, the per-block cost of the four-mode
pair rotations.
"""

from composer import circuit_ir as cir
from composer.factorization import (
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance
from composer.resources import block_cost, estimate

for conn in ("full", "linear:1", "linear:3", "grid:2", "grid:4"):
    fswaps, cz = block_cost(conn)
    print(f"{conn:>10}: {fswaps:>2} routing swaps, {cz:>3} CZ per pair block")
print()

ints = synth_instance(7, 3, 2)
ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
plan = cir.pivots_from_pools(ham, gen)
skel = cir.compile_skeleton(ints.n_so, plan, qsp_degree=10)
print(f"n_so = {skel.n_system}, n_occ = {skel.n_occ} (recorded at compile time)")

for conn in ("full", "linear:2"):
    est = estimate(skel, connectivity=conn)
    print(f"connectivity {conn}:")
    print(est.format_table())
    print(f"single-qubit rotations tallied separately: "
          f"{est.single_qubit_rotations}")
    print()
