"""Closed-form resource accounting for the compiled fabric.

Depth counts two-qubit layers; single-qubit rotations are counted
separately, from the value stream: one per dialed value (the skeleton's
``n_slots``: every PREP amplitude and every value a line takes).
Depth conventions (documented, exact integers):

* bilinear adaptor: ``n - 1`` ladder layers, selector-control overhead 2x;
* channel adaptor: ``(n - 1) + R_mu + 2`` layers (rotation mesh depth,
  flagged branches, degree-2 squaring), overhead 2x;
* pair adaptor: one four-mode block per non-pivot pair on each wedge side,
  priced per block by the connectivity table, overhead 2x;
* SELECT depth: sum over its branches; PREP depth: one layer per loaded
  label; polynomial stage: degree times the generator SELECT depth;
* total: polynomial stage + generator PREP + Hamiltonian SELECT +
  Hamiltonian PREP (adaptor rows are informational, they already sit
  inside the SELECT sums).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit_ir import wedge_pairs
from .errors import ValidationError
from .oracle import index_width

CONTROL_OVERHEAD = 2


@dataclass(frozen=True)
class Connectivity:
    """Hardware connectivity model: ``full``, ``linear:d_g``, or ``grid:L``."""

    kind: str
    param: int = 0

    @staticmethod
    def parse(text):
        text = str(text).strip()
        if text in ("full", "all-to-all"):
            return Connectivity("full")
        if ":" in text:
            kind, raw = text.split(":", 1)
            try:
                param = int(raw)
            except ValueError as exc:
                raise ValidationError(f"bad connectivity parameter {raw!r}") from exc
            if kind in ("linear", "heavy-hex"):
                return Connectivity("linear", param)
            if kind == "grid":
                return Connectivity("grid", param)
        raise ValidationError(f"unknown connectivity {text!r}")

    def __str__(self):
        return self.kind if self.kind == "full" else f"{self.kind}:{self.param}"


def block_cost(connectivity):
    """(fermionic swaps, CZ count) for one four-mode Givens block.

    linear/heavy-hex: ``(4 d_g - 2)`` swaps, ``8 + 6 (4 d_g - 2)`` CZs;
    2D grid: ``(4 L - 4)`` swaps, ``8 + 6 (4 L - 4)`` CZs;
    all-to-all: no routing, 8 CZs.
    """
    conn = (
        connectivity
        if isinstance(connectivity, Connectivity)
        else Connectivity.parse(connectivity)
    )
    if conn.kind == "full":
        return 0, 8
    if conn.kind == "linear":
        if conn.param < 1:
            raise ValidationError("heavy-hex distance d_g must be >= 1")
        fswaps = 4 * conn.param - 2
        return fswaps, 8 + 6 * fswaps
    if conn.kind == "grid":
        if conn.param < 2:
            raise ValidationError("grid dimension L must be >= 2")
        fswaps = 4 * conn.param - 4
        return fswaps, 8 + 6 * fswaps
    raise ValidationError(f"unknown connectivity kind {conn.kind!r}")


@dataclass(frozen=True)
class ResourceRow:
    name: str
    system_qubits: int
    ancillas: int
    depth: int


@dataclass(frozen=True)
class ResourceEstimate:
    """Per-block rows plus totals for one masked sandwich oracle."""

    rows: tuple
    total_depth: int
    ancilla_width: int
    single_qubit_rotations: int
    connectivity: str
    parameters: dict

    def to_json(self):
        return json.dumps(
            {
                "rows": [
                    {
                        "name": r.name,
                        "system_qubits": r.system_qubits,
                        "ancillas": r.ancillas,
                        "depth": r.depth,
                    }
                    for r in self.rows
                ],
                "total_depth": self.total_depth,
                "ancilla_width": self.ancilla_width,
                "single_qubit_rotations": self.single_qubit_rotations,
                "connectivity": self.connectivity,
                "parameters": self.parameters,
            },
            sort_keys=True,
        )

    def format_table(self):
        lines = [
            f"{'circuit block':<34}{'sys':>5}{'anc':>6}{'2q depth':>12}",
            "-" * 57,
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<34}{r.system_qubits:>5}{r.ancillas:>6}{r.depth:>12}"
            )
        lines.append("-" * 57)
        lines.append(
            f"{'total':<34}{self.parameters['n']:>5}"
            f"{self.ancilla_width:>6}{self.total_depth:>12}"
        )
        return "\n".join(lines)


def _pair_adaptor_depth(n_occ, n, conn):
    _, cz = block_cost(conn)
    n_blocks = sum(max(len(wedge_pairs(n, n_occ, side)) - 1, 0) for side in "uv")
    return cz * max(n_blocks, 1)


def estimate(skel, mask=None, connectivity=None):
    """Concrete depth/ancilla counts for one masked sandwich oracle.

    All counts are exact integers under the documented conventions; the
    stated asymptotics follow from them.  Every size comes from the
    skeleton (the pair wedges from its ``n_occ``).  The mask never changes
    the fabric cost (compile-once); its size is recorded for reference.
    """
    conn = Connectivity.parse(connectivity or skel.connectivity)
    n = skel.n_system
    d = skel.qsp_degree
    channel_ranks = [ad.rank for ad in skel.adaptors_ham if ad.kind == "channel"]
    n_bilinear_ham = sum(ad.kind == "one_body_mode" for ad in skel.adaptors_ham)
    ell_sigma = skel.ell_gen

    depth_bilinear = CONTROL_OVERHEAD * (n - 1)
    depths_channel = [CONTROL_OVERHEAD * ((n - 1) + r + 2) for r in channel_ranks]
    depth_pair = CONTROL_OVERHEAD * _pair_adaptor_depth(skel.n_occ, n, conn)

    ham_select = n_bilinear_ham * depth_bilinear + sum(depths_channel)
    gen_select = ell_sigma * depth_pair
    ham_prep = n_bilinear_ham + len(channel_ranks)
    gen_prep = ell_sigma
    qsp_depth = d * gen_select
    total = qsp_depth + gen_prep + ham_select + ham_prep

    a_sigma = max(int(np.ceil(np.log2(ell_sigma + 1))), 1)
    a_ham = max(int(np.ceil(np.log2(max(ham_prep, 1)))), 1)
    width = max(a_sigma, a_ham) + skel.workspace_width

    max_rank = max(channel_ranks, default=0)
    a_index = index_width(max_rank)
    rows = (
        ResourceRow("adaptor (bilinear dyad)", n, 1, depth_bilinear),
        ResourceRow("adaptor (pair-excitation ladder)", n, 1, depth_pair),
        ResourceRow(
            "adaptor (cholesky channel)", n, a_index + 2, max(depths_channel, default=0)
        ),
        ResourceRow("hamiltonian select", n, a_ham, ham_select),
        ResourceRow("generator select", n, a_sigma, gen_select),
        ResourceRow("prep amplitude ladder", 0, max(a_sigma, a_ham), gen_prep),
        ResourceRow("qsp ladders", n, 1, qsp_depth),
    )
    params = {
        "n": n,
        "ell_H": ham_prep,
        "ell_sigma": ell_sigma,
        "qsp_degree": d,
        "channel_ranks": channel_ranks,
        "mask_size": len(getattr(mask, "indices", mask or ())),
        "D_I": depth_bilinear,
        "D_II": depth_pair,
        "D_III": max(depths_channel, default=0),
        "D_sigma_max": depth_pair,
    }
    return ResourceEstimate(
        rows=rows,
        total_depth=total,
        ancilla_width=width,
        single_qubit_rotations=skel.n_slots,
        connectivity=str(conn),
        parameters=params,
    )


PAYOFF_ROWS = (
    (
        "term list / truncation pattern",
        "regenerate",
        "fixed pool + classical mask",
    ),
    (
        "data-loading for coefficients",
        "regenerate",
        "dial for the same topology",
    ),
    (
        "select multiplexer and two-qubit routing",
        "regenerate",
        "compiled once",
    ),
)


def payoff_ledger(update_kind, n_dials=None, n_fingerprints=None):
    """Ledger of what instance updates regenerate versus re-dial.

    ``update_kind`` is one of geometry, mask, truncation; the optional
    counters record a live reuse ratio from an actual dialing run.
    """
    if update_kind not in ("geometry", "mask", "truncation"):
        raise ValidationError(f"unknown update kind {update_kind!r}")
    doc = {
        "update_kind": update_kind,
        "rows": [
            {"artifact": a, "conventional": c, "composer": d}
            for a, c, d in PAYOFF_ROWS
        ],
    }
    if n_dials is not None and n_fingerprints is not None:
        doc["reuse"] = {
            "dials": int(n_dials),
            "fingerprints": int(n_fingerprints),
            "ratio": f"{int(n_dials)}:{int(n_fingerprints)}",
        }
    return doc
