"""Compile-once circuit IR: frozen two-qubit fabric plus re-dialable angles.

The skeleton records the fixed pool's facts: the system width, the
occupied count ``n_occ`` (a pair ladder's ``u`` side rotates over the
virtual pairs, its ``v`` side over the occupied ones: :func:`wedge_pairs`),
the adaptor bank's gate layers, and the signal-processing scaffold.  An
adaptor's address is its position on its side; the register widths are
derived from the adaptors (:func:`plan_selector_width`,
:func:`plan_workspace_width`, as compile derives them).  Each layer is one
canonical line ``gate|q0,q1,...``, held, stored and hashed in that one form.
A line's kind fixes how many dialed values it
takes (:data:`LINE_VALUES`: ``pgivens`` two, its angle and phase;
``givens``, ``rz``, ``cphase``, ``gphase`` and ``case`` one; every other
kind none), so a slot has no name: it is a position in the value stream.
The stream is, per adaptor (Hamiltonian side, then generator side, as
stored), its PREP amplitude, then the values its lines take, in line order;
:attr:`CircuitSkeleton.slot_spans` gives each adaptor's span of it.  The
fingerprint hashes the register widths, ``n_occ``, gate kinds, ordered qubit
tuples, layer order, and each adaptor's pivots and rank, never values, so it
also fixes the stream's order.  A dial sheet (``composer-dial-v4``) holds one
instance's (pools, mask, coefficient set) values as one array, ``values[i]``
binding the stream's ``i``-th slot, and is the only thing that changes
between instances; its JSON stores the array as one base64 string of
little-endian float64 bytes.

An adaptor's lines, in application order, are its whole branch, held as
one text, each line ended by a newline.  The document (``composer-skel-v12``)
holds exactly the fingerprinted facts, each once (any other key is refused):
an ``adaptors`` list of each distinct ``{kind, pivot, rank, text}`` in
first-use order, loaded as one :class:`AdaptorSpec` each, and per side the
indices into it.  Execution interprets the lines, each
reading its values from a cursor over the adaptor's span: each run of system gates
(:data:`SYSTEM_GATES`: ``givens``, ``pgivens``, ``rz``, ``cphase``, ``x``)
becomes one dense ``2**n x 2**n`` leaf, the gates applied in order to the
identity by the :mod:`ladders` kernel; on the workspace, ``cx x`` is the
flag copy, ``h mcz h`` the vacuum reflection, a lone ``x`` the null flip.
``gphase`` multiplies its branch or case by a dialed phase (0 or pi),
``gphase+i`` / ``gphase-i`` by a fixed one.  ``begin`` opens a block that
``end`` applies as listed or ``dagger`` as its adjoint; ``mirror`` applies
the adjoint of the last closed block as applied, so a mirrored half is one
line.  ``select|r`` opens a sub-select over register ``r`` whose ``case``
lines (a dialed PREP amplitude each) or ``fcase`` lines (equal fixed
amplitudes) each start a branch, up to ``end``.  ``square|s`` makes
everything before it ``W R0 W`` on signal ``s``, whose block is the square.
Execution is keyed by an address: a side, ``"ham"`` or ``"gen"`` (its
multiplexed encoding), or one adaptor's branch, ``"ham/<a>"`` or
``"gen/<a>"``.  :func:`ancillas` gives the register it runs on;
:func:`execute_block` runs each adaptor's gadget tree (:mod:`oracle`) on
its own ancilla-zero columns, those of a particle-number sector or all
``2**n``, and sums a side's blocks with their PREP weights.  Checked
sector runs are cached by fabric, adaptor, values after its PREP amplitude
and sector (:data:`KEPT_RUNS`), so a re-dial that changes only PREP
amplitudes (a mask) re-weights cached blocks instead of running branches
again; :func:`one_pool_skeleton` caches its fabrics by pivot plan, so a
scan of equal plans runs on one.
:func:`execute_encoding` assembles the multiplexed encoding as a sparse
unitary, which only ``composer verify`` needs.  Each of the two checks its
one size limit before anything is built, then the sheet against the skeleton
(:func:`sheet_values`: the fingerprint must match and the value count equal
the stream's length).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from types import MappingProxyType

import numpy as np

from . import jw, ladders, oracle
from .errors import BindError, MaskError, ParseError, SectorError, ShapeError
from .errors import ValidationError
from .errors import DICT, INT, LIST, NUMBER, STR, checked, checked_list
from .errors import checked_keys, checked_packed, fields_of
from .factorization import bilinear_asym_spectrum, generator_branch_alpha

SKEL_FORMAT = "composer-skel-v12"
DIAL_FORMAT = "composer-dial-v4"

# dialed values each line kind takes from the stream; every other kind takes none
LINE_VALUES = {"givens": 1, "pgivens": 2, "rz": 1, "cphase": 1, "gphase": 1, "case": 1}
# gates on the system register: the modes each acts on
SYSTEM_GATES = {"givens": 2, "pgivens": 4, "rz": 1, "cphase": 2, "x": 1}
# a text line holding two ``|``
_TWO_BARS = re.compile(r"\|[^\n]*\|")
# slabs of its widest adaptor's columns that a column run is allowed at once:
# a channel's squared gadget holds four (its input, its PREP slabs, and its
# output or two half-slab pairs inside W), the fifth covers the dense leaves
RUN_COPIES = 5
# checked sector runs execute_block keeps: at least ell_H + ell_sigma + 1 = 63
# at the water-like synth 7:7:10, so a mask sweep never evicts its own runs
KEPT_RUNS = 64
# the skeleton's keys and a stored adaptor's: exactly the fingerprinted facts
_SKEL_KEYS = frozenset({"format", "n_system", "n_occ", "qsp_degree", "adaptors",
                        "adaptors_ham", "adaptors_gen", "fingerprint"})
_STORED_KEYS = frozenset({"kind", "pivot", "rank", "text"})


@dataclass(frozen=True)
class Mask:
    """Classical subset of generator addresses retained in a transformation."""

    label: str
    indices: frozenset

    @staticmethod
    def of(label, indices):
        return Mask(label, frozenset(int(i) for i in indices))


@dataclass(frozen=True)
class AdaptorDescriptor:
    """Compile-time shape of one adaptor: kind, pivots, and channel rank."""

    kind: str  # one_body_mode | channel | pair | bilinear_asym
    pivot: tuple = ()
    rank: int = 0


@dataclass(frozen=True)
class CompilePlan:
    """Fixed pivots of every adaptor of both pools, and the pairs' occupied count."""

    ham: tuple
    gen: tuple
    n_occ: int


@lru_cache(maxsize=None)
def wedge_pairs(n, n_occ, side):
    """Pairs a pair ladder's ``u`` (virtual) or ``v`` (occupied) side rotates over.

    Lexicographic ``p < q``, one per entry of the side's pair vector; an
    immutable tuple, cached, so its repeat callers share it.
    """
    lo, hi = (n_occ, n) if side == "u" else (0, n_occ)
    return tuple((lo + p, lo + q) for p, q in ladders.pair_indices(hi - lo))


@lru_cache(maxsize=None)
def wedge_slots(n, n_occ, side):
    """``pair -> k``: the index of each of :func:`wedge_pairs`' pairs, read-only."""
    pairs = wedge_pairs(n, n_occ, side)
    return MappingProxyType({pair: k for k, pair in enumerate(pairs)})


def pivots_from_pools(ham_pool, gen_pool):
    """Canonical pivot plan: argmax amplitudes, frozen at compile time.

    Each side lists its pool's ladders in address order.  Either pool may
    be ``None``; the plan then covers the other alone, and without a
    generator pool ``n_occ`` is the Hamiltonian's ``n_elec``.  The pair
    ladders' pivots are the row argmaxes of their pair vectors' moduli,
    read from the pool's batches (:attr:`GeneratorPool.pair_batches`), so
    each is the one its ladder's own vectors give.
    """
    ham = []
    if ham_pool is not None:
        for lad in sorted(ham_pool.ladders, key=attrgetter("address")):
            if lad.kind == "one_body_mode":
                pivots = tuple(
                    int(np.argmax(np.abs(lad.vectors[:, j])))
                    for j in range(lad.multiplicity)
                )
                ham.append(AdaptorDescriptor("one_body_mode", pivots, lad.multiplicity))
            else:
                ham.append(AdaptorDescriptor("channel", rank=lad.channel.rank))
    gen = []
    if gen_pool is not None:
        pair_pivots = _pair_pivots(gen_pool)
        for lad in sorted(gen_pool.ladders, key=attrgetter("address")):
            if lad.kind == "pair":
                gen.append(AdaptorDescriptor("pair", pair_pivots[id(lad)]))
            else:
                w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
                pivots = tuple(
                    int(np.argmax(np.abs(w_vecs[:, j]))) for j in range(len(w_vals))
                )
                gen.append(AdaptorDescriptor("bilinear_asym", pivots, len(w_vals)))
    n_occ = ham_pool.n_elec if gen_pool is None else gen_pool.n_occ
    return CompilePlan(ham=tuple(ham), gen=tuple(gen), n_occ=n_occ)


def _pair_pivots(gen_pool):
    """``id(ladder) -> (u, v)`` pivot pairs: each side's largest-modulus wedge pair."""
    n, n_occ = gen_pool.n_so, gen_pool.n_occ
    pivots = {}
    for group, *vectors in gen_pool.pair_batches:
        u, v = (
            [wedge_pairs(n, n_occ, side)[k]
             for k in np.abs(vecs).argmax(axis=-1).tolist()]
            for side, vecs in zip("uv", vectors)
        )
        pivots.update((id(lad), pivot) for lad, pivot in zip(group, zip(u, v)))
    return pivots


@dataclass(frozen=True)
class AdaptorSpec:
    """One compiled adaptor: kind, pivot data, canonical layer text (no address)."""

    kind: str
    pivot: tuple
    rank: int
    text: str  # its lines "gate|q0,q1,...", each ended by a newline: see _layer

    @cached_property
    def layers(self):
        """The layer lines, in application order."""
        return tuple(self.text.split("\n")[:-1])


@dataclass(frozen=True)
class CircuitSkeleton:
    """Frozen two-qubit fabric whose lines fix the order of its parameter slots."""

    n_system: int
    n_occ: int
    qsp_degree: int
    adaptors_ham: tuple
    adaptors_gen: tuple
    fingerprint: str

    def __post_init__(self):
        wedges = [wedge_slots(self.n_system, self.n_occ, side) for side in "uv"]
        for a, ad in enumerate(self.adaptors_gen):  # pair sides pivot in their wedges
            if ad.kind == "pair" and not (
                len(ad.pivot) == 2 and all(p in w for p, w in zip(ad.pivot, wedges))
            ):
                raise ValidationError(
                    f"gen adaptor {a}: pair pivots {ad.pivot} off their wedges"
                )

    @property
    def ell_ham(self):
        return len(self.adaptors_ham)

    @property
    def ell_gen(self):
        # address 0 is the reserved null branch
        return len(self.adaptors_gen) - 1

    @cached_property
    def selector_width(self):
        """Selector qubits labelling every branch of either side."""
        return plan_selector_width(self.ell_ham, len(self.adaptors_gen))

    @cached_property
    def workspace_width(self):
        """Workspace qubits of the widest branch, the null flip's one at least."""
        branches = [ad for ad in self.adaptors_gen if ad.kind != "null"]
        return plan_workspace_width(self.adaptors_ham, branches)

    def sides(self):
        """``(("ham", adaptors), ("gen", adaptors))``, in stream order."""
        return ("ham", self.adaptors_ham), ("gen", self.adaptors_gen)

    @cached_property
    def slot_spans(self):
        """``(side, position) -> (start, stop)``: each adaptor's span of the stream.

        A span holds the adaptor's PREP amplitude, then the values its lines
        take (:data:`LINE_VALUES`), counted as the ``\\n<gate>|`` line starts
        of each kind in the adaptor's :attr:`AdaptorSpec.text`, once per
        distinct text.  Built on first use, by dial, execution or
        ``estimate``; loading a skeleton never builds it.
        """
        spans, start, sizes = {}, 0, {}
        for side, adaptors in self.sides():
            for a, ad in enumerate(adaptors):
                if ad.text not in sizes:
                    text = "\n" + ad.text
                    sizes[ad.text] = 1 + sum(
                        n * text.count(f"\n{gate}|") for gate, n in LINE_VALUES.items()
                    )
                stop = start + sizes[ad.text]
                spans[side, a] = start, stop
                start = stop
        return spans

    @property
    def n_slots(self):
        """Length of the value stream, the stop of its last span."""
        return next(reversed(self.slot_spans.values()))[1]

    def to_json(self):
        stored = {}  # each distinct (kind, pivot, rank, text): its index, by first use
        sides = {
            f"adaptors_{side}": [
                stored.setdefault((ad.kind, ad.pivot, ad.rank, ad.text), len(stored))
                for ad in adaptors
            ]
            for side, adaptors in self.sides()
        }
        doc = {
            "format": SKEL_FORMAT,
            "n_system": self.n_system,
            "n_occ": self.n_occ,
            "qsp_degree": self.qsp_degree,
            "adaptors": [
                {"kind": kind, "pivot": _pivot_doc(pivot), "rank": rank, "text": text}
                for kind, pivot, rank, text in stored
            ],
            **sides,
            "fingerprint": self.fingerprint,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    @fields_of("skeleton")
    def from_json(text):
        doc = checked(json.loads(text), DICT, "skeleton")
        if doc.get("format") != SKEL_FORMAT:
            raise ParseError(f"expected format {SKEL_FORMAT!r}")
        checked_keys(doc, _SKEL_KEYS, "skeleton")
        for key in ("n_system", "n_occ", "qsp_degree"):
            checked(doc[key], INT, key)
        stored = []  # one AdaptorSpec per stored adaptor, shared by its addresses
        for k, ad in enumerate(checked_list(doc["adaptors"], DICT, "adaptors")):
            where = f"stored adaptor {k}"
            checked_keys(ad, _STORED_KEYS, where)
            checked(ad["kind"], STR, f"{where} kind")
            checked(ad["rank"], INT, f"{where} rank")
            _check_body(ad["text"], f"{where} text")
            pivot = _pivot_load(ad["pivot"], where)
            stored.append(AdaptorSpec(ad["kind"], pivot, ad["rank"], ad["text"]))
        if len(set(stored)) != len(stored):
            raise ParseError("stored adaptors must be pairwise distinct")
        sides = {key: checked_list(doc[key], INT, key)
                 for key in ("adaptors_ham", "adaptors_gen")}
        # one check for range, use and order: the bytes stay canonical
        uses = sides["adaptors_ham"] + sides["adaptors_gen"]
        if list(dict.fromkeys(uses)) != list(range(len(stored))):
            raise ParseError("sides must use each stored adaptor, in first-use order")
        skel = CircuitSkeleton(
            n_system=doc["n_system"],
            n_occ=doc["n_occ"],
            qsp_degree=doc["qsp_degree"],
            **{key: tuple(map(stored.__getitem__, indices))
               for key, indices in sides.items()},
            fingerprint=checked(doc["fingerprint"], STR, "fingerprint"),
        )
        if fabric_fingerprint(skel) != skel.fingerprint:
            raise ValidationError("skeleton fingerprint does not match its layers")
        return skel


def _pivot_doc(pivot):
    return [list(p) if isinstance(p, tuple) else p for p in pivot]


def _pivot_load(doc, where):
    for p in checked(doc, LIST, f"{where} pivot"):
        if type(p) is list:
            checked_list(p, INT, f"{where} pivot pair")
        else:
            checked(p, INT, f"{where} pivot")
    return tuple(tuple(p) if isinstance(p, list) else p for p in doc)


def _check_body(text, where):
    """A ParseError naming the first bad line unless ``text`` is layer lines.

    Each line holds one ``|`` (so the hashed text is unambiguous) and is
    ended by a newline.  With no line holding two, a text with as many
    ``|`` as newlines that ends in a newline holds one on every line.
    """
    checked(text, STR, where)
    if (text.count("|") != text.count("\n") or text[-1:] not in ("", "\n")
            or _TWO_BARS.search(text)):
        *lines, rest = text.split("\n")
        bad = next((line for line in lines if line.count("|") != 1), rest)
        raise ParseError(f"{where}: malformed layer line {bad!r}")


@dataclass(frozen=True, eq=False)
class DialSheet:
    """Per-instance values of every skeleton parameter slot.

    ``values[i]`` binds the ``i``-th slot of the skeleton's value stream,
    a position its fingerprinted lines fix (:attr:`CircuitSkeleton.slot_spans`).
    In memory ``values`` is a read-only little-endian float64 array; the
    JSON field is the standard base64 of its bytes, 8 per value, so every
    value reads back bit for bit.
    """

    skeleton_fingerprint: str
    mask_id: str
    mask_indices: tuple
    values: np.ndarray
    classical_coeffs: dict

    def to_json(self):
        """The sheet as JSON with sorted keys, ``values`` written after the rest.

        ``values`` sorts last and base64 needs no escaping, so the packed
        stream is appended as it stands: the same bytes as one
        ``json.dumps`` of the whole document, without scanning the stream
        for characters to escape.
        """
        doc = {
            "format": DIAL_FORMAT,
            "skeleton_fingerprint": self.skeleton_fingerprint,
            "mask_id": self.mask_id,
            "mask_indices": list(self.mask_indices),
            "classical_coeffs": self.classical_coeffs,
        }
        packed = base64.b64encode(self.values.tobytes()).decode()
        return json.dumps(doc, sort_keys=True)[:-1] + f', "values": "{packed}"}}'

    @staticmethod
    @fields_of("dial sheet")
    def from_json(text):
        doc = checked(json.loads(text), DICT, "dial sheet")
        if doc.get("format") != DIAL_FORMAT:
            raise ParseError(f"expected format {DIAL_FORMAT!r}")
        checked(doc["skeleton_fingerprint"], STR, "skeleton_fingerprint")
        checked(doc["mask_id"], STR, "mask_id")
        checked_list(doc["mask_indices"], INT, "mask_indices")
        values = checked_packed(doc["values"], "values")
        coeffs = checked(doc["classical_coeffs"], DICT, "classical_coeffs")
        for key in ("Omega", "omega"):
            if key in coeffs:
                checked_list(coeffs[key], NUMBER, f"classical_coeffs {key}")
        for key in ("alpha", "alpha_bar"):
            if key in coeffs:
                checked(coeffs[key], NUMBER, f"classical_coeffs {key}")
        return DialSheet(
            skeleton_fingerprint=doc["skeleton_fingerprint"],
            mask_id=doc["mask_id"],
            mask_indices=tuple(doc["mask_indices"]),
            values=values,
            classical_coeffs=doc["classical_coeffs"],
        )


# ---------------------------------------------------------------------------
# compile stage
# ---------------------------------------------------------------------------


def plan_selector_width(ham_branches, gen_branches):
    """``ceil(log2)`` of the larger side's branch count (the null one counted), >= 1."""
    return max((max(ham_branches, gen_branches) - 1).bit_length(), 1)


def plan_workspace_width(ham, gen):
    """Widest workspace any branch of the two lists touches (the null flip is one)."""
    widths = [1]
    for ad in ham:
        if ad.kind == "one_body_mode":
            widths.append(1 if ad.rank <= 1 else 2)
        elif ad.kind == "channel":
            # index register, flag, squaring signal qubit
            widths.append(oracle.index_width(ad.rank) + 2)
        else:
            raise ValidationError(f"unknown hamiltonian adaptor kind {ad.kind!r}")
    for ad in gen:
        if ad.kind not in ("pair", "bilinear_asym"):
            raise ValidationError(f"unknown generator adaptor kind {ad.kind!r}")
        widths.append(2)  # sub-selector and flag
    return max(widths)


def compile_skeleton(n, pivots, qsp_degree=0):
    """Emit the reusable fabric for the pivot plan; its adaptors set the pool sizes.

    Selector width covers ``max(ell_H, ell_sigma + 1)`` (the +1 is the
    reserved null branch at address 0); each line's kind fixes the values
    it takes, so the fingerprint, which digests the canonical layer stream,
    fixes every slot's position.  An adaptor's position in the plan is its
    address.  One pool may have no ladders, for a skeleton that encodes the
    other alone.

    Each distinct :class:`AdaptorDescriptor` (kind, pivots, rank) is emitted
    once, and the addresses that share it share one :class:`AdaptorSpec`,
    as :meth:`CircuitSkeleton.from_json` shares them; each pair side's
    ladder lines are built once per ``(side, pivot pair)``.  Both memos
    live for this one call.
    """
    ell_ham, ell_gen = len(pivots.ham), len(pivots.gen)
    if ell_ham + ell_gen == 0:
        raise ValidationError("pivot plan must hold at least one adaptor")
    width = plan_selector_width(ell_ham, ell_gen + 1)
    t = plan_workspace_width(pivots.ham, pivots.gen)
    sys0 = width + t  # global index of system qubit 0
    ws0 = width

    def sysq(p):
        return sys0 + p

    pair_sides = {}  # (side, pivot pair) -> that pair ladder's lines
    emit = {"one_body_mode": _compile_one_body, "channel": _compile_channel,
            "pair": lambda *args: _compile_pair(*args, pivots.n_occ, pair_sides),
            "bilinear_asym": _compile_bilinear_asym}
    emitted = {}  # each distinct descriptor's AdaptorSpec

    def spec(ad):
        if ad not in emitted:
            emitted[ad] = emit[ad.kind](ad, n, sysq, ws0, t)
        return emitted[ad]

    adaptors_ham = [spec(ad) for ad in pivots.ham]
    adaptors_gen = [AdaptorSpec("null", (), 0, _layer("x", (ws0 + t - 1,)) + "\n")]
    adaptors_gen += [spec(ad) for ad in pivots.gen]
    skel = CircuitSkeleton(
        n_system=n,
        n_occ=int(pivots.n_occ),
        qsp_degree=int(qsp_degree),
        adaptors_ham=tuple(adaptors_ham),
        adaptors_gen=tuple(adaptors_gen),
        fingerprint="",
    )
    return replace(skel, fingerprint=fabric_fingerprint(skel))


def one_pool_skeleton(ham_pool, gen_pool):
    """Skeleton compiled for one pool alone; the other is passed as ``None``.

    Equal ``n`` and pivot plans (:class:`CompilePlan` compares by value)
    return the same fabric from an ``lru_cache`` of two, one per side, so a
    geometry or mask scan compiles once.
    """
    plan = pivots_from_pools(ham_pool, gen_pool)
    return _compiled((gen_pool if ham_pool is None else ham_pool).n_so, plan)


@lru_cache(maxsize=2)
def _compiled(n, plan):
    return compile_skeleton(n, plan)


def _layer(gate, qubits):
    """One layer as the canonical line the skeleton stores and hashes."""
    return f"{gate}|{','.join(map(str, qubits))}"


def _text(lines):
    """An adaptor's text: its lines, each ended by a newline."""
    return "\n".join([*lines, ""])


def _ladder_layers(n, pivot, sysq):
    ordering = tuple(p for p in range(n) if p != pivot)
    layers = [_layer("givens", (sysq(p), sysq(pivot))) for p in ordering]
    layers += [_layer("rz", (sysq(p),)) for p in ordering]
    layers.append(_layer("rz", (sysq(pivot),)))
    return layers


def _pair_ladder_layers(wedge, pivot_pair, sysq):
    """Prep-form pair ladder: ``x`` on its pivot pair, then its wedge's rotations."""
    r, s = pivot_pair
    layers = [_layer("x", (sysq(r),)), _layer("x", (sysq(s),))]
    layers += [_layer("pgivens", map(sysq, (p, q, r, s)))
               for p, q in wedge if (p, q) != (r, s)]
    layers.append(_layer("cphase", (sysq(r), sysq(s))))
    return layers


def _occupation_layers(n, pivot, sysq, flag):
    """Flagged occupation ``U C U^dag``: ``U^dag``, the flag copy ``C``, ``U``."""
    return ["begin|", *_ladder_layers(n, pivot, sysq), "dagger|",
            _layer("cx", (sysq(pivot), flag)), _layer("x", (flag,)), "mirror|"]


def _select_layers(register, cases):
    """Sub-select over ``register``: a dialed ``case`` line opens each body."""
    cases = [line for body in cases for line in ("case|", *body)]
    return [_layer("select", register), *cases, "end|"]


def _compile_one_body(ad, n, sysq, ws0, t):
    """Mode-group adaptor: one flagged ladder per grouped eigenvector."""
    flag, m = ws0 + t - 1, max(ad.rank, 1)
    modes = [_occupation_layers(n, ad.pivot[j], sysq, flag) for j in range(m)]
    body = modes[0] if m == 1 else _select_layers((flag - 1,), modes)
    return AdaptorSpec(ad.kind, ad.pivot, m, _text(["gphase|", *body]))


def _compile_channel(ad, n, sysq, ws0, t):
    """Squared channel: ``N S N^dag`` over a signed flag-copy select."""
    flag = ws0 + t - 1
    a_i = oracle.index_width(ad.rank)
    network = [_layer("rz", (sysq(p),)) for p in range(n)]
    network += [_layer("givens", (sysq(p), sysq(q)))
                for p, q in ladders.network_pair_sequence(n)]
    cases = [[_layer("cx", (sysq(xi), flag)), _layer("x", (flag,)), "gphase|"]
             for xi in range(ad.rank)]
    layers = ["gphase|", "begin|", *network, "dagger|",
              *_select_layers(tuple(range(flag - a_i, flag)), cases),
              "mirror|", _layer("square", (flag - a_i - 1,))]
    return AdaptorSpec(ad.kind, ad.pivot, ad.rank, _text(layers))


def _compile_pair(ad, n, sysq, ws0, t, n_occ, sides):
    """``i(L - L^dag)``: the arm ``W_L = U_u R_vac U_v^dag``, then its mirror.

    ``sides`` holds each ``(side, pivot pair)``'s ladder lines, built on
    first use.
    """
    anc = ws0 + t - 1
    for x, p in zip("uv", ad.pivot):
        if (x, p) not in sides:
            sides[x, p] = _pair_ladder_layers(wedge_pairs(n, n_occ, x), p, sysq)
    u, v = (sides[x, p] for x, p in zip("uv", ad.pivot))
    vacuum = [_layer("h", (anc,)), _layer("mcz", tuple(map(sysq, range(n)))),
              _layer("h", (anc,))]
    arm = ["gphase+i|", "begin|", "begin|", *v, "dagger|", *vacuum, *u, "end|"]
    # equal fixed amplitudes select the arm and its mirror
    layers = ("gphase|", _layer("select", (anc - 1,)), "fcase|", *arm,
              "fcase|", "gphase-i|", "mirror|", "end|")
    return AdaptorSpec(ad.kind, ad.pivot, 0, _text(layers))


def _mode_pivot(ad, j):
    """Pivot of mode ``j`` of a two-mode bilinear adaptor (0 when absent)."""
    return ad.pivot[j] if j < len(ad.pivot) else 0


def _compile_bilinear_asym(ad, n, sysq, ws0, t):
    flag = ws0 + t - 1
    cases = [[*_occupation_layers(n, _mode_pivot(ad, j), sysq, flag), "gphase|"]
             for j in range(2)]
    layers = ("gphase|", *_select_layers((flag - 1,), cases))
    return AdaptorSpec(ad.kind, ad.pivot, 2, _text(layers))


def fabric_fingerprint(skel):
    """SHA-256 digest of the register widths, ``n_occ`` and the canonical layer stream.

    Structure only: each adaptor's address (its position on its side),
    kind, pivots and rank, then its layer lines as stored, one per text
    line, so qubit tuples enter in gate order (control before target) and
    the gate kinds fix every slot's stream position; angle values never
    enter.  The widths are the derived ones.
    """
    h = hashlib.sha256()
    h.update(
        f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
        .encode()
    )
    h.update(f"n_occ|{skel.n_occ}\n".encode())
    pivots = {}  # each distinct pivot's JSON text: the pair pivots repeat
    for _, adaptors in skel.sides():
        for a, ad in enumerate(adaptors):
            if ad.pivot not in pivots:
                pivots[ad.pivot] = json.dumps(_pivot_doc(ad.pivot))
            pivot = pivots[ad.pivot]
            h.update(f"adaptor:{a}:{ad.kind}:{pivot}:{ad.rank}\n".encode())
            h.update(ad.text.encode())
    for k in range(skel.qsp_degree):
        h.update(f"qsp_rep|{k}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dial stage
# ---------------------------------------------------------------------------


def _ladder_row(sched):
    """A givens ladder's values in line order: angles, phases, then ``pivot_phi``."""
    return [*sched.thetas.tolist(), *sched.phases.tolist(), float(sched.pivot_phase)]


def _sign_phi(x):
    return np.pi if x < 0 else 0.0


def dial(skel, ham_pool, gen_pool, mask, alpha_bar=None):
    """Bind every parameter slot for one instance; the skeleton is untouched.

    Pools may be smaller than the compiled sizes; surplus amplitude routes
    to the null branch (generator) or zero-weight branches (Hamiltonian).
    A pool is ``None`` exactly when the skeleton compiled no ladders for it,
    and a generator pool must have the occupied count the skeleton records.
    Each adaptor's binder returns its row in line order, written into the
    adaptor's span of the value stream.
    """
    if (ham_pool is None, gen_pool is None) != (skel.ell_ham == 0, skel.ell_gen == 0):
        raise BindError("pools must match the sides the skeleton compiled")
    if any(p is not None and p.n_so != skel.n_system for p in (ham_pool, gen_pool)):
        raise BindError("pool register size differs from the compiled system")
    if gen_pool is not None and gen_pool.n_occ != skel.n_occ:
        raise BindError(
            f"generator pool n_occ {gen_pool.n_occ} differs from the compiled "
            f"{skel.n_occ}"
        )
    masked = frozenset(mask.indices if isinstance(mask, Mask) else mask)
    if gen_pool is None and masked:
        raise MaskError("nonzero mask over a skeleton without a generator pool")
    rows, coeffs = [], {}
    if ham_pool is not None:
        coeffs.update(_bind_hamiltonian(skel, ham_pool, rows))
    if gen_pool is not None:
        coeffs.update(_bind_generator(skel, gen_pool, masked, alpha_bar, rows))
    # every slot starts at zero, where surplus compiled modes and adaptors idle
    values = np.zeros(skel.n_slots, "<f8")
    for (side, address), row in rows:
        start, stop = skel.slot_spans[side, address]
        if len(row) != stop - start:
            raise BindError(
                f"{side} adaptor {address}: {len(row)} values for its "
                f"{stop - start} slots"
            )
        values[start:stop] = row
    values.setflags(write=False)

    label = mask.label if isinstance(mask, Mask) else "mask"
    return DialSheet(
        skeleton_fingerprint=skel.fingerprint,
        mask_id=label,
        mask_indices=tuple(sorted(masked)),
        values=values,
        classical_coeffs=coeffs,
    )


def _bind_hamiltonian(skel, ham_pool, rows):
    """Append the Hamiltonian adaptors' rows; returns the classical coefficients.

    Every channel's rotation network is decomposed in one stack, after
    the adaptors' own checks, and its values are put in after the row's
    PREP amplitude and sign.
    """
    n = skel.n_system
    ham = sorted(ham_pool.ladders, key=attrgetter("address"))
    if ham_pool.ell > skel.ell_ham:
        raise BindError(
            "hamiltonian pool exceeds compiled size",
            addresses=[lad.address for lad in ham[skel.ell_ham:]],
        )
    if [lad.address for lad in ham] != list(range(ham_pool.ell)):
        raise BindError("hamiltonian addresses must be contiguous from 0")
    alpha = ham_pool.alpha
    omega_list, channel_rows = [], []
    for addr, lad in enumerate(ham):
        ad = skel.adaptors_ham[addr]
        if (lad.kind == "one_body_mode") != (ad.kind == "one_body_mode"):
            raise BindError("adaptor kind mismatch", addresses=[addr])
        body = []
        if lad.kind == "one_body_mode":
            if lad.multiplicity != ad.rank:
                raise BindError(
                    "mode multiplicity differs from compiled rank", addresses=[addr]
                )
            for j in range(lad.multiplicity):
                sched = ladders.one_electron_angles(
                    lad.vectors[:, j].astype(complex), pivot=ad.pivot[j], n=n
                )
                if lad.multiplicity > 1:  # the mode's case amplitude
                    body.append(float(1 / np.sqrt(ad.rank)))
                body += _ladder_row(sched)
            weight = abs(lad.coefficient) * lad.multiplicity
        else:
            ch = lad.channel
            if ch.rank > ad.rank:
                raise BindError(
                    "channel rank exceeds compiled rank", addresses=[addr]
                )
            amps, signs, _ = oracle.signed_loading(ch.eigvals)
            for xi in range(ch.rank):  # each case: amplitude, then sign
                body += [float(amps[xi]), _sign_phi(signs[xi])]
            body += [0.0] * (2 * (ad.rank - ch.rank))  # surplus eigenmodes idle
            weight = abs(lad.coefficient) * ch.gamma**2
        omega_list.append(lad.coefficient)
        prep = float(np.sqrt(weight / alpha))
        row = [prep, _sign_phi(lad.coefficient), *body]
        rows.append((("ham", addr), row))
        if lad.kind != "one_body_mode":
            channel_rows.append((lad.channel.rotation_full, row))
    if channel_rows:
        nets = ladders.rotation_networks([rot for rot, _ in channel_rows])
        for (_, row), net in zip(channel_rows, nets):
            row[2:2] = [*net.phases.tolist(), *(theta for _, _, theta in net.rotations)]
    return {"Omega": [float(x) for x in omega_list], "alpha": float(alpha)}


def _pair_rows(skel, gen_pool, bound):
    """``(key, row)`` per pair ladder, each of the pool's batches in one array pass.

    ``bound`` maps ``id(ladder)`` to its ``(adaptor, prep)``; the wedge
    vectors are the pool's own (:attr:`GeneratorPool.pair_batches`), and
    each pivot's index in its wedge is looked up (:func:`wedge_slots`).  A
    row is PREP and sign, then the ``v`` and ``u`` ladders' lines' values.
    """
    slots = [wedge_slots(skel.n_system, skel.n_occ, side) for side in "uv"]
    out = []
    for group, *vectors in gen_pool.pair_batches:
        entries = [bound[id(lad)] for lad in group]
        sides = []
        for k, vecs in enumerate(vectors):
            pivots = [slots[k][ad.pivot[k]] for ad, _ in entries]
            thetas, phases, gauges = ladders.pair_ladder_angles(vecs, pivots)
            per_line = np.stack([thetas, phases], axis=-1).reshape(len(group), -1)
            sides.append(np.column_stack([per_line, gauges]))
        heads = [[prep, _sign_phi(lad.coefficient)]
                 for lad, (_, prep) in zip(group, entries)]
        table = np.hstack([heads, sides[1], sides[0]])
        out += [(("gen", lad.address), row) for lad, row in zip(group, table)]
    return out


def _bind_generator(skel, gen_pool, masked, alpha_bar, rows):
    """Append the generator adaptors' rows; checks mask and budget."""
    n = skel.n_system
    gen = sorted(gen_pool.ladders, key=attrgetter("address"))
    if gen_pool.ell > skel.ell_gen:
        raise BindError(
            "generator pool exceeds compiled size",
            addresses=[lad.address for lad in gen[skel.ell_gen:]],
        )
    addresses = [lad.address for lad in gen]
    if addresses != list(range(1, gen_pool.ell + 1)):
        raise BindError("generator addresses must be contiguous from 1")
    if not masked <= set(addresses):
        raise MaskError(
            "mask addresses missing from generator pool "
            f"(addresses: {sorted(masked.difference(addresses))})"
        )
    alpha_bar = gen_pool.alpha_bar if alpha_bar is None else float(alpha_bar)
    omega_gen, pairs = [], {}
    used = 0.0
    for addr, lad in enumerate(gen, start=1):
        ad = skel.adaptors_gen[addr]
        expected = "pair" if lad.kind == "pair" else "bilinear_asym"
        if ad.kind != expected:
            raise BindError("adaptor kind mismatch", addresses=[addr])
        omega_gen.append(lad.coefficient)
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        prep = 0.0
        if addr in masked:
            prep = float(np.sqrt(weight / alpha_bar))
            used += weight
        if lad.kind == "pair":
            pairs[id(lad)] = ad, prep
            continue
        w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
        amps, signs, _ = oracle.signed_loading(w_vals)
        row = [prep, _sign_phi(lad.coefficient)]
        for j in range(len(w_vals)):  # each case: amplitude, ladder, sign
            pivot = _mode_pivot(ad, j)
            sched = ladders.one_electron_angles(w_vecs[:, j], pivot=pivot, n=n)
            row += [float(amps[j]), *_ladder_row(sched), _sign_phi(signs[j])]
        row += [0.0] * ((2 * n + 1) * (2 - len(w_vals)))  # a missing mode idles
        rows.append((("gen", addr), row))
    rows += _pair_rows(skel, gen_pool, pairs)
    if used > alpha_bar * (1 + 1e-12):
        raise BindError("masked weight exceeds the global normalization")
    rows.append((("gen", 0), [float(np.sqrt(max(1.0 - used / alpha_bar, 0.0)))]))
    return {"omega": [float(x) for x in omega_gen], "alpha_bar": float(alpha_bar)}


# ---------------------------------------------------------------------------
# execution: the layer stream, interpreted with the dial sheet's values
# ---------------------------------------------------------------------------


def schedule_from_values(values, n, pivot, targets):
    """Schedule read back from one ladder's values; ``targets`` include the pivot.

    Takes the ladder's ``2k + 1`` values from the iterator ``values`` in line
    order: a givens ladder's angles, then phases; a pair ladder's angle and
    phase per ``pgivens`` line; then ``pivot_phi``.
    """
    sector, skip = ("one", pivot[0]) if len(pivot) == 1 else ("two", tuple(pivot))
    ordering = tuple(t for t in targets if t != skip)
    k = len(ordering)
    taken = np.fromiter(values, float, 2 * k + 1)
    rot = taken[:2 * k]
    thetas, phs = rot.reshape(2, k) if sector == "one" else rot.reshape(k, 2).T
    return ladders.LadderSchedule(
        sector, n, tuple(pivot), ordering, thetas, phs, taken[2 * k]
    )


class _Interpreter:
    """One adaptor's layer lines (grammar in the module docstring), run once.

    A frame's factors are ``(node, width, adjoint)`` in application order;
    ``width`` counts workspace qubits up from the system register, whose
    neighbour is local qubit ``-1``.  ``values`` are the adaptor's after
    its PREP amplitude, each line taking its own from a cursor.
    """

    def __init__(self, skel, values, lines):
        self.n = skel.n_system
        self.sys0 = skel.selector_width + skel.workspace_width
        self.values = values
        self.cursor = 0
        self.lines = [line.split("|") for line in lines]
        self.pos = 0
        self.last = None  # the most recently closed block, as applied

    def frame(self):
        """Factors and phase of the lines up to the next closer, and that closer."""
        factors, run, phase = [], [], 1.0
        while self.pos < len(self.lines):
            gate, qubits = self.lines[self.pos]
            self.pos += 1
            taken = self.cursor + LINE_VALUES.get(gate, 0)
            angles, self.cursor = self.values[self.cursor:taken], taken
            qs = [int(q) - self.sys0 for q in qubits.split(",")] if qubits else []
            if qs and min(qs) >= 0:
                run.append(self._system_gate(gate, tuple(qs), angles))
                continue
            if run:
                factors.append((self._leaf(run), 0, False))
                run = []
            if gate in ("end", "dagger", "case", "fcase"):
                return factors, phase, (gate, *angles)
            if gate == "gphase":
                phase *= np.exp(1j * angles[0])
            elif gate in ("gphase+i", "gphase-i"):
                phase *= 1j if gate == "gphase+i" else -1j
            elif gate == "begin":
                body, body_phase, closer = self.frame()
                closed = closer and closer[0] in ("end", "dagger")
                self._expect(closed and body_phase == 1.0,
                             "a phase-free block closed by end or dagger")
                self.last = (*_combine(body), closer[0] == "dagger")
                factors.append(self.last)
            elif gate == "mirror":
                self._expect(self.last, "a closed block before its mirror")
                node, width, adjoint = self.last
                factors.append((node, width, not adjoint))
            elif gate == "select":
                factors.append(self._sub_select(qs))
            elif gate == "square":
                node, width = _combine(factors)
                self._expect(qs == [-width - 1], "the signal right above the block")
                squared = oracle.squared_block_gadget(node, width, self.n)
                factors = [(squared, width + 1, False)]
            else:
                factors.append((self._idiom(gate, qs), 1, False))
        if run:
            factors.append((self._leaf(run), 0, False))
        return factors, phase, None

    def _system_gate(self, gate, qs, angles):
        """One system line as a :func:`ladders.apply_gates` gate."""
        if gate not in SYSTEM_GATES:
            raise ValidationError(f"unknown system gate {gate!r}")
        modes = SYSTEM_GATES[gate]
        self._expect(len(qs) == modes, f"{gate} on {modes} modes")
        if gate == "x":
            return ("x", qs)
        if gate in ("rz", "cphase"):
            return ("phase", qs, *angles)
        return ("rot", qs, angles[0], angles[1] if gate == "pgivens" else 0.0)

    def _leaf(self, run):
        """Dense product of a run of system gates, applied in order to the identity."""
        return ladders.apply_gates(np.eye(2**self.n, dtype=complex), self.n, run)

    def _idiom(self, gate, qs):
        """Flag copy ``cx x``, vacuum reflection ``h mcz h``, or the null flip ``x``."""
        n, flag = self.n, [str(self.sys0 - 1)]
        rest = self.lines[self.pos:self.pos + 2]
        system = ",".join(str(self.sys0 + p) for p in range(n))
        if gate == "x" and qs == [-1]:
            return oracle.null_branch(n)
        if gate == "cx" and qs[1:] == [-1] and qs[0] >= 0:
            self._expect(rest[:1] == [["x", *flag]], "cx, then x on its flag")
            self.pos += 1
            return oracle._flag_copy(qs[0], n)
        if gate == "h" and qs == [-1] and rest == [["mcz", system], ["h", *flag]]:
            self.pos += 2
            return oracle.vacuum_reflection_gadget(n)
        raise ValidationError(f"no gadget for {gate!r} on local qubits {qs}")

    def _sub_select(self, register):
        """PREP-SELECT-PREP over ``register``; an idle all-zero PREP loads case 0."""
        opens = ("case", "fcase")
        body, _, closer = self.frame()
        self._expect(not body and closer and closer[0] in opens, "select opens a case")
        cases = []
        while closer and closer[0] in opens:
            amp = closer[1:]  # the dialed amplitude; none on an fcase line
            body, phase, closer = self.frame()
            cases.append((amp, *_combine(body), phase))
        dialed, ops, widths, phases = zip(*cases)
        width = max(widths)
        self._expect(closer and closer[0] == "end", "select closed by end")
        self._expect(register == list(range(-width - len(register), -width)),
                     "the select register right above its cases")
        amps = np.zeros(2 ** len(register))
        amps[: len(ops)] = sum(dialed, ()) if all(dialed) else 1 / np.sqrt(len(ops))
        if np.linalg.norm(amps) < 1e-12:
            amps[0] = 1.0
        node = oracle._prep_select_prep(amps, ops, phases, self.n, width)
        return node, width + len(register), False

    def _expect(self, ok, what):
        if not ok:
            raise ValidationError(f"layer stream near line {self.pos}: expected {what}")


def _combine(factors):
    """One node from factors in application order, lifted to the widest.

    A block and its mirror share one lifted node.
    """
    if not factors:
        raise ValidationError("empty block in the layer stream")
    width = max(w for _, w, _ in factors)
    lifted, ops = {}, []
    for node, w, adjoint in reversed(factors):
        if w < width:
            node = lifted.setdefault(id(node), oracle._Lift(node, width - w))
        ops.append(oracle._Adjoint(node) if adjoint else node)
    return (ops[0] if len(ops) == 1 else oracle._Product(*ops)), width


def _own_values(skel, values, side, a):
    """The bytes of adaptor ``a``'s values after its PREP amplitude."""
    start, stop = skel.slot_spans[side, a]
    return values[start + 1:stop].tobytes()


def _branch(skel, side, a, values):
    """Gadget node of adaptor ``a``'s lines, read from its own values, and its phase."""
    ad = getattr(skel, f"adaptors_{side}")[a]
    lines = _Interpreter(skel, np.frombuffer(values, "<f8").tolist(), ad.layers)
    factors, phase, closer = lines.frame()
    if closer is not None:
        raise ValidationError(f"adaptor {a}: unmatched {closer[0]!r}")
    return _combine(factors)[0], phase


# how the size-limit messages name each side
_SIDE_NAMES = {"ham": "Hamiltonian", "gen": "generator"}


def _addressed(skel, address):
    """``(side, entries)``: ``(position, adaptor)`` of each adaptor on a side,
    or of the one ``address`` names.

    ``address`` is a side, ``"ham"`` or ``"gen"``, or one adaptor on it,
    ``"ham/<a>"`` or ``"gen/<a>"``, its position ``a`` written as ``str``
    writes it.
    """
    side, slash, label = address.partition("/")
    entries = list(enumerate(dict(skel.sides()).get(side, ())))
    if slash:
        entries = [(a, ad) for a, ad in entries if str(a) == label]
    if not entries:
        raise BindError(f"no adaptor at {address!r} in the skeleton")
    return side, entries


def _own_workspace(side, ad):
    """Workspace qubits of adaptor ``ad``'s branch alone (the null flip's is one)."""
    ads = () if ad.kind == "null" else (ad,)
    return plan_workspace_width(*((ads, ()) if side == "ham" else ((), ads)))


def ancillas(skel, address):
    """Qubits above the system register that the encoding at ``address`` runs on.

    One adaptor runs on its own workspace.  A side runs on the selector
    plus a workspace: the Hamiltonian on the shared one, the generator on
    the widest any of its branches touches (the idle shared ancillas would
    not affect its block).
    """
    side, entries = _addressed(skel, address)
    if address == "ham":
        return skel.selector_width + skel.workspace_width
    width = max(_own_workspace(side, ad) for _, ad in entries)
    return width if "/" in address else skel.selector_width + width


def _encoding(skel, sheet, address):
    """Gadget node of the encoding at ``address``, read from the sheet's values.

    A side is PREP-SELECT-PREP over its branches (oracle checks the PREP
    norm).  One adaptor is the branch that multiplexer selects (the same
    lines) without its sign line's phase, so its block is the adaptor's
    normalized ladder term.
    """
    values = sheet_values(skel, sheet)
    side, entries = _addressed(skel, address)
    branches = [_branch(skel, side, a, _own_values(skel, values, side, a))
                for a, _ in entries]
    if "/" in address:
        return branches[0][0]
    amps = np.zeros(2**skel.selector_width)
    amps[:len(entries)] = [values[skel.slot_spans[side, a][0]] for a, _ in entries]
    ops, phases = zip(*branches)
    width = ancillas(skel, side) - skel.selector_width
    return oracle._prep_select_prep(amps, ops, phases, skel.n_system, width)


def execute_encoding(skel, sheet, address):
    """Sparse (CSR) unitary of the encoding at ``address``, run from its lines.

    ``address`` names a side's multiplexed encoding, ``"ham"`` or
    ``"gen"``, or one adaptor's branch, ``"ham/<a>"`` or ``"gen/<a>"``.
    Its :func:`ancillas` plus the system register are checked against the
    assembly cap before anything is built.  The result certifies the
    fabric and the dial data, not the pools.
    """
    oracle.check_assembly_width(ancillas(skel, address) + skel.n_system)
    return oracle._csr(_encoding(skel, sheet, address))


def check_column_batch(skel, address, sector=None):
    """Reject the column run at ``address`` before anything is built; return its size.

    :func:`execute_block` runs one adaptor at a time, so a run holds
    :data:`RUN_COPIES` slabs of its widest adaptor's ``2**(w + n) x C``
    columns (``w`` that adaptor's own workspace, ``C`` the ``C(n, N)``
    sector columns, or all ``2**n`` when ``sector`` is ``None``) and the
    ``2**n x C`` sum.  That many amplitudes may be no more than the
    largest dense operator holds.
    """
    side, entries = _addressed(skel, address)
    n = skel.n_system
    if sector is not None and not 0 <= sector <= n:
        raise SectorError(f"sector N={sector} outside 0..{n}")
    columns = 2**n if sector is None else math.comb(n, sector)
    a, width = max(((a, _own_workspace(side, ad)) for a, ad in entries),
                   key=itemgetter(1))
    needed = (RUN_COPIES * 2 ** (width + n) + 2**n) * columns
    allowed = 4**jw.MAX_QUBITS
    if needed > allowed:
        raise ShapeError(
            f"the {_SIDE_NAMES[side]} adaptor {a} column run needs {needed} "
            f"amplitudes ({RUN_COPIES} x 2**{width + n} + 2**{n} rows x {columns} "
            f"columns); the oracle allows {allowed}"
        )
    return needed


def execute_block(skel, sheet, address, sector=None):
    """Ancilla-zero block of the encoding at ``address``, run one adaptor at a time.

    The PREP is real orthogonal with the amplitudes ``p_s`` as its first
    column, so a side's block is ``sum_s p_s**2 phase_s B_s``, where
    ``B_s`` is adaptor ``s``'s own block on its own workspace; one
    adaptor's block is its ``B_s`` alone, without its sign line's phase
    (as :func:`_encoding` selects it).  Each ``B_s`` runs on the columns
    ``|0_anc>|x>`` (``oracle.column_block``): ``x`` in
    ``jw.sector_indices(n, sector)``, or all ``2**n`` when ``sector`` is
    ``None``.  With a sector the result is the ``C(n, N)``-square sector
    block, and each ``B_s`` may hold at most ``oracle.SECTOR_TOL`` in the
    rows outside the sector (a :class:`SectorError` naming the adaptor);
    without one, the ``2**n x 2**n`` block.  An adaptor of zero weight is
    built (its lines and width are checked) but not run.

    Each weighted ``B_s`` and phase come from :func:`_adaptor_run`, a pure
    function of the fabric (by value), the adaptor, its values after its
    PREP amplitude, the sector and the shared workspace, cached with a
    sector (the latest :data:`KEPT_RUNS`): a mask re-dial, which changes
    only PREP amplitudes, runs only the branches it weights for the first
    time.  A run that fails a check raises, so it is never kept.

    The run is checked before anything is built (:func:`check_column_batch`),
    then the sheet (:func:`sheet_values`), then a side's PREP and SELECT as
    ``oracle._prep_select_prep`` checks them: amplitudes nonnegative with
    unit norm, no more branches than the selector holds, and no branch
    wider than the side's shared workspace.
    """
    check_column_batch(skel, address, sector)
    values = sheet_values(skel, sheet)
    side, entries = _addressed(skel, address)
    n = skel.n_system
    single = "/" in address
    weights, workspace = [1.0], None
    if not single:
        oracle.check_capacity(len(entries), 2**skel.selector_width)
        amps = [values[skel.slot_spans[side, a][0]] for a, _ in entries]
        weights = oracle.check_prep(amps) ** 2
        workspace = ancillas(skel, side) - skel.selector_width
    run = _adaptor_run.__wrapped__ if sector is None else _adaptor_run
    dim = 2**n if sector is None else math.comb(n, sector)
    block = np.zeros((dim, dim), dtype=complex)
    for (a, _), weight in zip(entries, weights):
        own = _own_values(skel, values, side, a)
        if weight == 0.0:
            oracle.branch_width(_branch(skel, side, a, own)[0], n, workspace)
            continue
        part, phase = run(skel, side, a, own, sector, workspace)
        block += (weight * (1.0 if single else phase)) * part
    return block


@lru_cache(maxsize=KEPT_RUNS)
def _adaptor_run(skel, side, a, values, sector, workspace):
    """``(B_s, phase)``: adaptor ``a``'s checked, read-only block on the
    sector rows (all ``2**n`` without one), run from its :func:`_own_values`,
    and its sign line's phase.  Its node may be no wider than ``workspace``
    (``None`` for a one-adaptor address, which has no shared one).
    """
    n = skel.n_system
    node, phase = _branch(skel, side, a, values)
    if workspace is not None:
        oracle.branch_width(node, n, workspace)
    columns = np.arange(2**n) if sector is None else jw.sector_indices(n, sector)
    part = oracle.column_block(node, n, columns)
    if sector is not None:
        leak = float(np.abs(part[jw.hamming_weights(n) != sector]).max(initial=0.0))
        if leak > oracle.SECTOR_TOL:
            raise SectorError(
                f"{_SIDE_NAMES[side]} adaptor {a} leaks {leak:.3e} out of the "
                f"N={sector} sector (tolerance {oracle.SECTOR_TOL:g})"
            )
        part = part[columns]
    part.setflags(write=False)
    return part, phase


def execute_generator_encoding(skel, sheet):
    """The generator side's :func:`execute_encoding`, the unitary ``verify`` checks."""
    return execute_encoding(skel, sheet, "gen")


def sheet_values(skel, sheet):
    """A dial sheet's value stream, checked against the skeleton.

    The sheet must carry the skeleton's fingerprint and one value per slot;
    ``values[i]`` binds the stream's ``i``-th slot.
    """
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")
    if len(sheet.values) != skel.n_slots:
        raise BindError(
            f"dial sheet holds {len(sheet.values)} values for the skeleton's "
            f"{skel.n_slots} slots"
        )
    return sheet.values
