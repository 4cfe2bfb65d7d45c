"""Compile one skeleton, dial many instances, keep one fingerprint.

Masks and coefficient rescalings produce distinct dial sheets bound to
the same fabric digest; executing any sheet encodes the dense masked
generator it was dialed for.
"""

from composer import circuit_ir as cir
from composer import oracle
from composer.factorization import (
    GeneratorPool,
    PairLadder,
    build_hamiltonian_pool,
    mp2_amplitudes,
    nested_svd_t2,
)
from composer.integrals import synth_instance
from composer.resources import payoff_ledger

ints = synth_instance(7, 2, 2)
ham = build_hamiltonian_pool(ints, 1e-10, 0.0)
gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)

plan = cir.pivots_from_pools(ham, gen)
skel = cir.compile_skeleton(ints.n_so, plan, "full", qsp_degree=6)
print(f"compiled once: selector width {skel.selector_width}, workspace "
      f"{skel.workspace_width}, fingerprint {skel.fingerprint[:16]}...")


def rescale(pool, factor):
    return GeneratorPool(
        ladders=tuple(
            PairLadder(x=l.x, y=l.y, r=l.r, s=l.s,
                       coefficient=l.coefficient * factor, address=l.address)
            for l in pool.ladders
        ),
        n_occ=pool.n_occ, n_virt=pool.n_virt, n_elec=pool.n_elec,
    )


pools = [rescale(gen, f) for f in (1.0, 0.5, 1.3)]
worst = max(p.alpha_bar for p in pools)
masks = [cir.Mask.of(f"m{k}", idx) for k, idx in enumerate(([], [1], [1], [1]))]
masks = [cir.Mask.of("empty", []), cir.Mask.of("full", [1])]

sheets = []
for pool in pools:
    for mask in masks:
        sheets.append((pool, mask, cir.dial(skel, ham, pool, mask, alpha_bar=worst)))

fingerprints = {s.skeleton_fingerprint for _, _, s in sheets}
print(f"{len(sheets)} dials -> {len(fingerprints)} fingerprint(s), "
      f"{len({s.to_json() for _, _, s in sheets})} distinct dial sheets")

worst_dev = 0.0
for pool, mask, sheet in sheets:
    block = cir.execute_block(skel, sheet, "gen")
    target = oracle.generator_dense(pool, mask.indices) / worst
    worst_dev = max(
        worst_dev, oracle.restricted_block_error(block, target, 0, sector=pool.sector)
    )
print(f"worst executed-vs-dense-target deviation: {worst_dev:.2e}")

ledger = payoff_ledger("mask", n_dials=len(sheets), n_fingerprints=len(fingerprints))
print(f"reuse ratio: {ledger['reuse']['ratio']}")
for row in ledger["rows"]:
    print(f"  {row['artifact']:<42} conventional: {row['conventional']:<12} "
          f"here: {row['composer']}")
