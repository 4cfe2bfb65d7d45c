import numpy as np
import pytest

from composer import circuit_ir as cir
from composer.errors import ValidationError
from composer.factorization import build_hamiltonian_pool, mp2_amplitudes, nested_svd_t2
from composer.integrals import synth_instance
from composer.resources import block_cost, estimate, payoff_ledger


def test_block_cost_all_to_all():
    assert block_cost("full") == (0, 8)


def test_block_cost_linear_formula():
    assert block_cost("linear:1") == (2, 20)
    for d_g in range(1, 11):
        fswaps, cz = block_cost(f"linear:{d_g}")
        assert fswaps == 4 * d_g - 2
        assert cz == 8 + 6 * (4 * d_g - 2)


def test_block_cost_grid_formula():
    assert block_cost("grid:2") == (4, 32)
    for ell in range(2, 11):
        fswaps, cz = block_cost(f"grid:{ell}")
        assert fswaps == 4 * ell - 4
        assert cz == 8 + 6 * (4 * ell - 4)


def test_block_cost_invalid_parameters():
    with pytest.raises(ValidationError):
        block_cost("linear:0")
    with pytest.raises(ValidationError):
        block_cost("grid:1")
    with pytest.raises(ValidationError):
        block_cost("hexagon")


@pytest.fixture(scope="module")
def skeleton(small_pools, mixed_gen_pool):
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    return cir.compile_skeleton(4, plan, "full", qsp_degree=8)


def test_estimate_matches_hand_computation(skeleton):
    """Spread-sheet oracle mirroring the documented conventions."""
    assert skeleton.n_occ == 2
    est = estimate(skeleton, connectivity="full")
    n = 4
    d = 8
    channel_ranks = [ad.rank for ad in skeleton.adaptors_ham if ad.kind == "channel"]
    n_bilinear_ham = sum(ad.kind == "one_body_mode" for ad in skeleton.adaptors_ham)
    ell_sigma = skeleton.ell_gen
    depth_bilinear = 2 * (n - 1)
    depth_channels = [2 * ((n - 1) + r + 2) for r in channel_ranks]
    cz = 8  # all-to-all per-block cost
    pair_blocks = (1 - 1) + (1 - 1)  # C(2,2)=1 pair on each side, minus pivots
    depth_pair = 2 * cz * max(pair_blocks, 1)
    ham_select = n_bilinear_ham * depth_bilinear + sum(depth_channels)
    gen_select = ell_sigma * depth_pair
    expected_total = (
        d * gen_select + ell_sigma + ham_select + n_bilinear_ham
        + len(channel_ranks)
    )
    assert est.total_depth == expected_total
    rows = {r.name: r for r in est.rows}
    assert rows["hamiltonian select"].depth == ham_select
    assert rows["qsp ladders"].depth == d * gen_select


def test_hamiltonian_only_total(skeleton, small_pools):
    ham, gen = small_pools
    plan = cir.pivots_from_pools(ham, gen)
    skel = cir.compile_skeleton(4, plan, "full", qsp_degree=0)
    est = estimate(skel)
    rows = {r.name: r for r in est.rows}
    assert rows["qsp ladders"].depth == 0
    # total reduces to hamiltonian select + preps (generator rows present
    # but the polynomial stage vanishes)
    assert est.total_depth == (
        rows["hamiltonian select"].depth
        + est.parameters["ell_H"]
        + est.parameters["ell_sigma"]
        + rows["generator select"].depth * 0
    )


def test_doubling_degree_doubles_only_qsp(skeleton, small_pools, mixed_gen_pool):
    ham, _ = small_pools
    gen = mixed_gen_pool
    plan = cir.pivots_from_pools(ham, gen)
    skel2 = cir.compile_skeleton(4, plan, "full", qsp_degree=16)
    est1 = estimate(skeleton)
    est2 = estimate(skel2)
    rows1 = {r.name: r.depth for r in est1.rows}
    rows2 = {r.name: r.depth for r in est2.rows}
    assert rows2["qsp ladders"] == 2 * rows1["qsp ladders"]
    for name in rows1:
        if name != "qsp ladders":
            assert rows2[name] == rows1[name]
    assert est2.total_depth - est1.total_depth == rows1["qsp ladders"]


def test_ancilla_law(skeleton):
    est = estimate(skeleton)
    ell_sigma = est.parameters["ell_sigma"]
    ell_h = est.parameters["ell_H"]
    a_sigma = max(int(np.ceil(np.log2(ell_sigma + 1))), 1)
    a_ham = max(int(np.ceil(np.log2(ell_h))), 1)
    assert est.ancilla_width == max(a_sigma, a_ham) + skeleton.workspace_width


def synthetic_skeleton(n, n_bilinear, channel_ranks, ell_sigma, degree=4, n_occ=None):
    """Symbolic compile at arbitrary n (no dense matrices involved).

    The pair wedges are priced on ``n_occ``, half filling by default.
    """
    ham = [
        cir.AdaptorDescriptor("one_body_mode", k, pivot=(0,))
        for k in range(n_bilinear)
    ]
    ham += [
        cir.AdaptorDescriptor("channel", n_bilinear + j, rank=r)
        for j, r in enumerate(channel_ranks)
    ]
    n_occ = n // 2 if n_occ is None else n_occ
    gen = [
        cir.AdaptorDescriptor(
            "pair", s + 1, pivot=((n_occ, n_occ + 1), (0, 1))
        )
        for s in range(ell_sigma)
    ]
    plan = cir.CompilePlan(ham=tuple(ham), gen=tuple(gen), n_occ=n_occ)
    return cir.compile_skeleton(n, plan, "full", qsp_degree=degree)


def test_asymptotic_conformance():
    """Doubling-ratio exponents recover the stated orders within 15 percent.

    The additive offsets in the exact layer counts bias a naive log-log
    fit at desk scale, so the exponent is estimated from the n -> 2n
    depth ratio inside the window.
    """
    n_lo, n_hi = 6, 12
    # bilinear adaptor depth: linear in n at fixed pool sizes and degree
    depths = {}
    for n in (n_lo, n_hi):
        est = estimate(synthetic_skeleton(n, 2, [2], 1))
        rows = {r.name: r.depth for r in est.rows}
        depths[n] = rows["adaptor (bilinear dyad)"]
    slope_one = np.log(depths[n_hi] / depths[n_lo]) / np.log(n_hi / n_lo)
    assert abs(slope_one - 1.0) <= 0.15
    # hamiltonian SELECT: quadratic once ell_H and R_mu grow with n
    totals = {}
    for n in (n_lo, n_hi):
        est = estimate(synthetic_skeleton(n, n, [n] * n, 1))
        rows = {r.name: r.depth for r in est.rows}
        totals[n] = rows["hamiltonian select"]
    slope_ham = np.log(totals[n_hi] / totals[n_lo]) / np.log(n_hi / n_lo)
    assert abs(slope_ham - 2.0) <= 0.15 * 2.0


def test_estimate_stated_shape_hand_oracle():
    """n = 6, ell_sigma = 4, degree 8, all-to-all: exact hand computation."""
    skel = synthetic_skeleton(6, 3, [4, 3], 4, degree=8, n_occ=2)
    est = estimate(skel, connectivity="full")
    n = 6
    depth_bilinear = 2 * (n - 1)                      # 10
    depth_channels = [2 * ((n - 1) + 4 + 2), 2 * ((n - 1) + 3 + 2)]  # 22, 20
    pair_blocks = (6 - 1) + (1 - 1)                   # C(4,2)-1 + C(2,2)-1
    depth_pair = 2 * 8 * pair_blocks                  # 80
    ham_select = 3 * depth_bilinear + sum(depth_channels)  # 72
    gen_select = 4 * depth_pair                       # 320
    total = 8 * gen_select + 4 + ham_select + 5      # qsp + preps + select
    assert est.total_depth == total
    rows = {r.name: r.depth for r in est.rows}
    assert rows["generator select"] == gen_select
    assert rows["qsp ladders"] == 8 * gen_select


@pytest.mark.parametrize("synth", [(5, 3, 2), (1, 4, 4), (1, 8, 8)],
                         ids=["5:3:2", "1:4:4", "1:8:8"])
def test_single_qubit_tally_prices_pairs_by_their_slot_lines(synth):
    """One rotation per dialed value: each adaptor's PREP and its lines' values.

    Counted here from the lines of every adaptor on both sides, so the
    pairs' ``pgivens`` and ``cphase`` lines, the spin-paired ladders and the
    channel networks are all priced, and equal to the dialed stream.
    """
    ints = synth_instance(*synth)
    ham = build_hamiltonian_pool(ints, 1e-8, 0.0)
    gen = nested_svd_t2(mp2_amplitudes(ints), 0.0, 0.0)
    skel = cir.one_pool_skeleton(ham, gen)
    assert {ad.kind for ad in skel.adaptors_gen} == {"null", "pair"}
    adaptors = skel.adaptors_ham + skel.adaptors_gen
    gates = [line.partition("|")[0] for ad in adaptors for line in ad.layers]
    slots = len(adaptors) + sum(cir.LINE_VALUES.get(g, 0) for g in gates)
    est = estimate(skel)
    assert est.single_qubit_rotations == slots
    assert len(cir.dial(skel, ham, gen, ()).values) == slots


def test_estimate_json_roundtrip(skeleton):
    import json

    est = estimate(skeleton)
    doc = json.loads(est.to_json())
    assert doc["total_depth"] == est.total_depth
    table = est.format_table()
    assert "total" in table


def test_payoff_ledger_static_rows():
    led = payoff_ledger("geometry")
    rows = {r["artifact"]: r for r in led["rows"]}
    assert (
        rows["select multiplexer and two-qubit routing"]["composer"]
        == "compiled once"
    )
    led2 = payoff_ledger("mask")
    rows2 = {r["artifact"]: r for r in led2["rows"]}
    assert (
        rows2["term list / truncation pattern"]["composer"]
        == "fixed pool + classical mask"
    )


def test_payoff_ledger_reuse_counts():
    led = payoff_ledger("truncation", n_dials=12, n_fingerprints=1)
    assert led["reuse"]["ratio"] == "12:1"


def test_payoff_ledger_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        payoff_ledger("recalibration")
