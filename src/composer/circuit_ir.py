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
little-endian float64 bytes.  :func:`dial` is two stages: :func:`bind`
binds everything a mask leaves equal (every ladder row, the Hamiltonian
PREP, the coefficients) into a :class:`Binding`, and :func:`dial_prep`
writes one mask's generator PREP amplitudes into a copy of its stream.

An adaptor's lines, in application order, are its whole branch, held as
one text, each line ended by a newline.  The document (``composer-skel-v12``)
holds exactly the fingerprinted facts, each once (any other key is refused):
an ``adaptors`` list of each distinct ``{kind, pivot, rank, text}`` in
first-use order, loaded as one :class:`AdaptorSpec` each, and per side the
indices into it.  Everything derived from the adaptors is derived once per
distinct one (:attr:`CircuitSkeleton.stored`): a load checks the stored
texts' lines and counts their values in one scan (:func:`_line_scan`), so
it builds the spans, and the fingerprint encodes each distinct adaptor once
and hashes the addresses' bytes as one buffer.  Execution interprets the
lines, each reading its values from a cursor over the adaptor's span: each
run of system gates (:data:`SYSTEM_GATES`: ``givens``, ``pgivens``, ``rz``,
``cphase``, ``x``) becomes one dense ``2**n x 2**n`` leaf, the gates applied in order to the
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
its own ancilla-zero columns of one particle-number sector, checks that
nothing leaks out of it, and sums a side's sector blocks with their PREP
weights.  Every checked run is cached by fabric, adaptor, values after its
PREP amplitude and sector (:data:`KEPT_RUNS`), so a re-dial that changes
only PREP amplitudes (a mask) re-weights cached blocks instead of running
branches again, and a branch it leaves idle is width-checked once
(:func:`_idle_branch`); :func:`one_pool_skeleton` caches its fabrics by
pivot plan, so a scan of equal plans runs on one, and
:func:`generator_binding` keeps the last generator pool's fabric and
binding, so a mask re-dial of it is one :func:`dial_prep`.
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
from dataclasses import InitVar, dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import attrgetter, itemgetter
from types import MappingProxyType

import numpy as np

from . import jw, ladders, oracle
from .errors import BindError, MaskError, ParseError, SectorError, ShapeError
from .errors import ValidationError
from .errors import DICT, INT, LIST, NUMBER, STR, checked, checked_list
from .errors import checked_keys, checked_packed, fields_of
from .factorization import bilinear_asym_spectrum, sequential_sum

SKEL_FORMAT = "composer-skel-v12"
DIAL_FORMAT = "composer-dial-v4"

# dialed values each line kind takes from the stream; every other kind takes none
LINE_VALUES = {"givens": 1, "pgivens": 2, "rz": 1, "cphase": 1, "gphase": 1, "case": 1}
# gates on the system register: the modes each acts on
SYSTEM_GATES = {"givens": 2, "pgivens": 4, "rz": 1, "cphase": 2, "x": 1}
# a text line holding two ``|``
_TWO_BARS = re.compile(r"\|[^\n]*\|")
# the line scan's gate table (_line_scan): a line's first eight bytes, cut
# after its ``|``, are the little-endian word of ``gate|``; each kind of
# LINE_VALUES is the interval [word, word + 1) of _GATE_BOUNDS, and a right
# search lands on its value count in _GATE_VALUES, every other word on a zero
_GATE_WORDS = sorted(
    (int.from_bytes(f"{gate}|".encode(), "little"), n) for gate, n in LINE_VALUES.items()
)
_GATE_BOUNDS = np.array([b for word, _ in _GATE_WORDS for b in (word, word + 1)], np.uint64)
_GATE_VALUES = np.array([0, *(v for _, n in _GATE_WORDS for v in (n, 0))], np.int64)
# the low bytes of a line's word kept for a gate of k bytes: its k bytes and
# its ``|``, all eight from k = 7 on (a longer gate's word holds no ``|`` and
# matches no kind)
_GATE_MASKS = np.array([(1 << 8 * (k + 1)) - 1 for k in range(7)] + [2**64 - 1], np.uint64)
_BAR_NEWLINE = int.from_bytes(b"|\n", "little")
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
    read from the batches of the pool's table
    (:class:`~composer.factorization.PairTable`), so each is the one its
    ladder's own vectors give.
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
        branches = gen_pool.branches
        for pair, index in zip(branches.pair.tolist(), branches.index.tolist()):
            if pair:
                gen.append(AdaptorDescriptor("pair", pair_pivots[index]))
            else:
                lad = gen_pool.bilinears[index]
                w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
                pivots = tuple(
                    int(np.argmax(np.abs(w_vecs[:, j]))) for j in range(len(w_vals))
                )
                gen.append(AdaptorDescriptor("bilinear_asym", pivots, len(w_vals)))
    n_occ = ham_pool.n_elec if gen_pool is None else gen_pool.n_occ
    return CompilePlan(ham=tuple(ham), gen=tuple(gen), n_occ=n_occ)


def _pair_pivots(gen_pool):
    """``(u, v)`` pivot pairs per pair table row: each side's largest-modulus wedge pair."""
    n, n_occ = gen_pool.n_so, gen_pool.n_occ
    pivots = [None] * len(gen_pool.pairs.address)
    for batch in gen_pool.pairs.batches:
        u, v = (
            [wedge_pairs(n, n_occ, side)[k]
             for k in np.abs(vecs).argmax(axis=-1).tolist()]
            for side, vecs in zip("uv", (batch.u, batch.v))
        )
        for k, pivot in zip(batch.rows.tolist(), zip(u, v)):
            pivots[k] = pivot
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
    # each stored adaptor's value count, when the loader's line scan has
    # counted them (:meth:`from_json`); never a field, so never compared
    value_counts: InitVar[np.ndarray | None] = None

    def __post_init__(self, value_counts):
        if value_counts is not None:  # the spans, without a second scan
            object.__setattr__(self, "span_bounds", self._bounds(value_counts))
        self.pair_slots  # pair sides pivot in their wedges

    def __hash__(self):
        # equality stays by value, and equal skeletons have equal fingerprints
        return hash(self.fingerprint)

    @cached_property
    def stored(self):
        """``(adaptors, (ham, gen))``: each distinct adaptor object, in first-use
        order (Hamiltonian side, then generator side), and each side's indices
        into them, one per address.

        The addresses that share an :class:`AdaptorSpec` object share one
        entry, as a loaded skeleton's addresses share each stored adaptor
        and a compiled one's each distinct descriptor; everything derived
        from the adaptors is derived once per entry.
        """
        every = self.adaptors_ham + self.adaptors_gen
        ids = list(map(id, every))
        first = dict(zip(ids, every))  # keys in first-use order
        indices = tuple(map(dict(zip(first, range(len(first)))).__getitem__, ids))
        cut = len(self.adaptors_ham)
        return tuple(first.values()), (indices[:cut], indices[cut:])

    @cached_property
    def pair_slots(self):
        """``(len(adaptors_gen), 2)`` read-only: each generator adaptor's pivots' wedge slots.

        Row ``a`` holds the index of adaptor ``a``'s ``u`` and ``v`` pivot
        pairs in their wedges (:func:`wedge_slots`), or ``-1, -1`` off a
        pair adaptor.  Each distinct adaptor (:attr:`stored`) is looked up
        once; a pivot off its wedge is a ValidationError naming the first
        address that uses it.  Built when the skeleton is.
        """
        wedge_u, wedge_v = (wedge_slots(self.n_system, self.n_occ, side) for side in "uv")
        adaptors, (_, gen) = self.stored
        slots = [(-1, -1)] * len(adaptors)
        for k in dict.fromkeys(gen):  # each distinct adaptor, by its first address
            ad = adaptors[k]
            if ad.kind == "pair":
                u, v = ad.pivot if len(ad.pivot) == 2 else (None, None)
                slots[k] = wedge_u.get(u), wedge_v.get(v)
                if None in slots[k]:
                    raise ValidationError(
                        f"gen adaptor {gen.index(k)}: pair pivots {ad.pivot} off their wedges"
                    )
        table = np.array(slots, np.intp).reshape(-1, 2)[list(gen)]
        table.setflags(write=False)
        return table

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
        """Workspace qubits of the widest branch, the null flip's one at least,
        from each side's distinct adaptors (:attr:`stored`)."""
        adaptors, (ham, gen) = self.stored
        branches = [adaptors[k] for k in dict.fromkeys(gen) if adaptors[k].kind != "null"]
        return plan_workspace_width([adaptors[k] for k in dict.fromkeys(ham)], branches)

    def sides(self):
        """``(("ham", adaptors), ("gen", adaptors))``, in stream order."""
        return ("ham", self.adaptors_ham), ("gen", self.adaptors_gen)

    @cached_property
    def span_bounds(self):
        """``{side: bounds}``: adaptor ``a``'s span of the stream is ``bounds[a]:bounds[a + 1]``.

        A span holds the adaptor's PREP amplitude, then the values its lines
        take (:data:`LINE_VALUES`).  One line scan (:func:`_line_scan`)
        counts them per distinct adaptor (:attr:`stored`), and the counts
        are gathered through each side's indices.  Each side's bounds are
        a read-only ``int64`` array, the generator side's starting at the
        Hamiltonian side's stop.  :meth:`from_json` builds them at load,
        from its own scan of the stored texts; a skeleton built otherwise
        builds them on first use, and a ParseError names a line of its
        texts that is not a layer line.
        """
        adaptors, _ = self.stored
        texts = [ad.text for ad in adaptors]
        _, counts = _line_scan(texts)
        if counts is None:
            for text in texts:
                _check_body(text, "adaptor text")
        return self._bounds(counts)

    def _bounds(self, counts):
        """:attr:`span_bounds` from each distinct adaptor's value count."""
        _, (ham, gen) = self.stored
        ends = np.zeros(len(ham) + len(gen) + 1, np.int64)
        counts.take(ham + gen).cumsum(out=ends[1:])
        ends.setflags(write=False)
        return {"ham": ends[:len(ham) + 1], "gen": ends[len(ham):]}

    @cached_property
    def slot_spans(self):
        """``(side, position) -> (start, stop)``: each adaptor's span of the stream
        (:attr:`span_bounds`)."""
        return {
            (side, a): span
            for side, bounds in self.span_bounds.items()
            for a, span in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        }

    @cached_property
    def n_slots(self):
        """Length of the value stream, the stop of its last span."""
        return int(self.span_bounds["gen"][-1])

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
        """The skeleton a document holds, every field checked; its spans built.

        The stored adaptors are checked with one fast test of each one's
        keys and types and one line scan of their texts (:func:`_line_scan`),
        which also counts each text's values, so :attr:`span_bounds` is
        built here without a second scan.  Only a document that fails them
        runs the per-field checks (:func:`_check_stored`), whose ParseError
        names its first fault.  The fingerprint is recomputed from the
        texts the scan encoded (:func:`fabric_fingerprint`).
        """
        doc = checked(json.loads(text), DICT, "skeleton")
        if doc.get("format") != SKEL_FORMAT:
            raise ParseError(f"expected format {SKEL_FORMAT!r}")
        checked_keys(doc, _SKEL_KEYS, "skeleton")
        for key in ("n_system", "n_occ", "qsp_degree"):
            checked(doc[key], INT, key)
        docs = checked_list(doc["adaptors"], DICT, "adaptors")
        stored = _stored_specs(docs)  # one AdaptorSpec each, shared by its addresses
        encoded, counts = _line_scan([ad.text for ad in stored or ()])
        if stored is None or counts is None:  # name the first fault
            _check_stored(docs)
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
            value_counts=counts,  # in first-use order, as the order check made it
        )
        if fabric_fingerprint(skel, encoded) != skel.fingerprint:
            raise ValidationError("skeleton fingerprint does not match its layers")
        return skel


def _pivot_doc(pivot):
    return [list(p) if isinstance(p, tuple) else p for p in pivot]


def _stored_specs(docs):
    """One :class:`AdaptorSpec` per stored adaptor document, or ``None``
    unless each passes one fast test of what :func:`_check_stored` checks
    field by field: exactly the stored keys, a ``str`` kind and text, an
    ``int`` rank, and a pivot that lists ints and lists of ints.  The
    texts' lines are left to :func:`_line_scan`.
    """
    specs = []
    for ad in docs:
        if ad.keys() != _STORED_KEYS:
            return None
        kind, pivot, rank, text = ad["kind"], ad["pivot"], ad["rank"], ad["text"]
        if (type(kind), type(rank), type(text), type(pivot)) != (str, int, str, list):
            return None
        entries = set(map(type, pivot))
        if list in entries:
            pairs = [p for p in pivot if type(p) is list]
            if not (entries <= {int, list} and set(map(type, chain(*pairs))) <= {int}):
                return None
            pivot = [tuple(p) if type(p) is list else p for p in pivot]
        elif not entries <= {int}:
            return None
        specs.append(AdaptorSpec(kind, tuple(pivot), rank, text))
    return specs


def _check_stored(docs):
    """Raise the ParseError of the first stored adaptor field that fails its check.

    Field by field, in document order: the keys, the kind, the rank, the
    text's lines (:func:`_check_body`) and the pivot.  Only a document
    whose stored adaptors fail the fast checks (:func:`_stored_specs`,
    :func:`_line_scan`) runs these.
    """
    for k, ad in enumerate(docs):
        where = f"stored adaptor {k}"
        checked_keys(ad, _STORED_KEYS, where)
        checked(ad["kind"], STR, f"{where} kind")
        checked(ad["rank"], INT, f"{where} rank")
        _check_body(ad["text"], f"{where} text")
        for p in checked(ad["pivot"], LIST, f"{where} pivot"):
            if type(p) is list:
                checked_list(p, INT, f"{where} pivot pair")
            else:
                checked(p, INT, f"{where} pivot")
    raise AssertionError("the fast checks refused stored adaptors the field checks accept")


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


def _line_scan(texts):
    """``(encoded, counts)``: each text as UTF-8, and each one's value count, in one pass.

    The texts are joined after a leading newline and scanned once for
    their ``|`` and newline bytes (neither is ever part of a longer UTF-8
    character).  They are layer lines, as :func:`_check_body` accepts them,
    when those bytes alternate ``|``, newline after the leading one and
    every nonempty text ends in a newline.  Then each line's gate is the
    bytes before its ``|``, matched exactly against the kinds of
    :data:`LINE_VALUES` through its first eight bytes (:data:`_GATE_BOUNDS`),
    and a text's count is one (its PREP amplitude) plus the values its
    lines take.  ``counts`` is an ``int64`` array, or ``None`` when a text
    is not layer lines.
    """
    encoded = [text.encode() for text in texts]
    raw = b"".join([b"\n", *encoded, bytes(8)])  # every line start reads a whole word
    body = np.frombuffer(raw, np.uint8, len(raw) - 8)
    marks = ((body == 10) | (body == 124)).nonzero()[0]  # newline, then | and newline pairs
    if (not len(marks) % 2 or (body[marks[1:]].view("<u2") != _BAR_NEWLINE).any()
            or not all(map(bytes.endswith, filter(None, encoded), repeat(b"\n")))):
        return encoded, None
    starts, bars = marks[0:-1:2] + 1, marks[1::2]
    words = np.ndarray((len(body) + 1,), "<u8", raw, 0, (1,))[starts]  # unaligned reads
    words &= _GATE_MASKS.take(bars - starts, mode="clip")
    done = np.zeros(len(words) + 1, np.int64)  # values of the lines before each
    _GATE_VALUES.take(_GATE_BOUNDS.searchsorted(words, "right")).cumsum(out=done[1:])
    edges = np.fromiter(accumulate(map(len, encoded), initial=1), np.intp, len(texts) + 1)
    done = done.take(marks[2::2].searchsorted(edges))
    return encoded, done[1:] - done[:-1] + 1


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
    geometry or mask scan compiles once.  Each pool object's plan is
    derived once (:func:`_one_pool_plan`).
    """
    plan = _one_pool_plan(ham_pool, gen_pool)
    return _compiled((gen_pool if ham_pool is None else ham_pool).n_so, plan)


@lru_cache(maxsize=2)
def _one_pool_plan(ham_pool, gen_pool):
    """:func:`pivots_from_pools` of the last two pool pairs, one per side;
    pools compare by identity (``eq=False``)."""
    return pivots_from_pools(ham_pool, gen_pool)


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


def fabric_fingerprint(skel, encoded=None):
    """SHA-256 digest of the register widths, ``n_occ`` and the canonical layer stream.

    Structure only: each adaptor's address (its position on its side),
    kind, pivots and rank, then its layer lines as stored, one per text
    line, so qubit tuples enter in gate order (control before target) and
    the gate kinds fix every slot's stream position; angle values never
    enter.  The widths are the derived ones.  Each distinct adaptor
    (:attr:`CircuitSkeleton.stored`) is encoded once, as its
    ``:kind:pivot:rank`` line (the pivot as ``json.dumps`` writes a list
    of ints and lists of ints, which ``str`` writes alike) and its text;
    ``encoded`` holds those texts when the caller has encoded them
    (:meth:`CircuitSkeleton.from_json`).  Every address adds its
    ``adaptor:<a>`` prefix, and the bytes are hashed in one buffer.
    """
    adaptors, sides = skel.stored
    if encoded is None:
        encoded = [ad.text.encode() for ad in adaptors]
    bodies = [f":{ad.kind}:{_pivot_doc(ad.pivot)}:{ad.rank}\n".encode() + text
              for ad, text in zip(adaptors, encoded)]
    head = (f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
            f"n_occ|{skel.n_occ}\n")
    parts = [head.encode()]
    for indices in sides:
        prefixes = [b"adaptor:%d" % a for a in range(len(indices))]
        parts += chain.from_iterable(zip(prefixes, map(bodies.__getitem__, indices)))
    parts += [b"qsp_rep|%d\n" % k for k in range(skel.qsp_degree)]
    return hashlib.sha256(b"".join(parts)).hexdigest()


# ---------------------------------------------------------------------------
# dial stage
# ---------------------------------------------------------------------------


def _ladder_row(sched):
    """A givens ladder's values in line order: angles, phases, then ``pivot_phi``."""
    return [*sched.thetas.tolist(), *sched.phases.tolist(), float(sched.pivot_phase)]


def _sign_phi(x):
    return np.pi if x < 0 else 0.0


@dataclass(frozen=True, eq=False)
class Binding:
    """A dial's mask-free stage (:func:`bind`): every slot but the generator's PREP.

    ``values`` is the read-only stream, every slot bound except the
    generator adaptors' PREP amplitudes and the null branch's, which are
    zero; ``prep_slots`` are their positions, the null branch's first.
    ``weights`` is each generator address's ``|omega| alpha`` in address
    order and ``alpha_bar`` the pool's normalization (both ``None``
    without a generator pool); ``classical_coeffs`` holds every
    coefficient but ``alpha_bar``, each list as a tuple.
    """

    fingerprint: str
    values: np.ndarray
    classical_coeffs: MappingProxyType
    weights: np.ndarray | None
    prep_slots: np.ndarray | None
    alpha_bar: float | None


def dial(skel, ham_pool, gen_pool, mask, alpha_bar=None):
    """Bind every parameter slot for one instance; the skeleton is untouched.

    The composition of its two stages: :func:`bind`, which binds every
    ladder row, the Hamiltonian PREP and the coefficients, none of which
    a mask changes, then :func:`dial_prep`, which writes the mask's
    generator PREP amplitudes, the null amplitude and ``alpha_bar`` into
    a copy of that stream.  The pools are checked before the mask.  A
    caller that keeps the binding re-dials a mask with :func:`dial_prep`
    alone: the library keeps the last generator pool's
    (:func:`generator_binding`), ``composer dial`` keeps nothing.
    """
    return dial_prep(bind(skel, ham_pool, gen_pool), mask, alpha_bar)


def bind(skel, ham_pool, gen_pool):
    """The mask-free stage of :func:`dial`: a :class:`Binding` of the pools.

    Pools may be smaller than the compiled sizes; surplus amplitude routes
    to the null branch (generator) or zero-weight branches (Hamiltonian).
    A pool is ``None`` exactly when the skeleton compiled no ladders for it,
    and a generator pool must have the occupied count the skeleton records.
    The binders return each adaptor's row in line order, written into the
    adaptor's span of the value stream (:attr:`CircuitSkeleton.span_bounds`),
    except the pair ladders': they are bound from the generator pool's
    :class:`~composer.factorization.PairTable`, a batch at a time, and each
    batch's rows are written through their spans' starts at once, with no
    per-ladder object or loop.
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
    rows, tables, coeffs = [], [], {}
    if ham_pool is not None:
        coeffs.update(_bind_hamiltonian(skel, ham_pool, rows))
    weights = prep_slots = alpha_bar = None
    if gen_pool is not None:
        coeffs.update(_bind_generator(skel, gen_pool, rows, tables))
        weights = gen_pool.branches.weight
        weights.setflags(write=False)
        prep_slots = skel.span_bounds["gen"][:len(weights) + 1]
        alpha_bar = gen_pool.alpha_bar
    # every slot starts at zero, where surplus compiled modes and adaptors idle
    values = np.zeros(skel.n_slots, "<f8")
    for (side, address), row in rows:
        start, stop = skel.span_bounds[side][address:address + 2].tolist()
        _check_span(side, address, len(row), stop - start)
        values[start:stop] = row
    bounds = skel.span_bounds["gen"]
    for addresses, table in tables:  # the pair batches
        starts, stops = bounds[addresses], bounds[addresses + 1]
        wrong = np.flatnonzero(stops - starts != table.shape[1])
        if len(wrong):
            k = wrong[0]
            _check_span("gen", addresses[k], table.shape[1], stops[k] - starts[k])
        values[starts[:, None] + np.arange(table.shape[1])] = table
    values.setflags(write=False)
    coeffs = {key: tuple(value) if isinstance(value, list) else value
              for key, value in coeffs.items()}
    return Binding(skel.fingerprint, values, MappingProxyType(coeffs), weights,
                   prep_slots, alpha_bar)


def dial_prep(binding, mask, alpha_bar=None):
    """The mask's stage of :func:`dial`: a :class:`DialSheet` from a kept binding.

    Checks the mask against the generator pool (a ``MaskError`` names the
    addresses it lacks) and the masked weight ``used`` against
    ``alpha_bar`` (the pool's unless given), then writes into a copy of the
    binding's stream each masked address's PREP amplitude
    ``sqrt(|omega| alpha / alpha_bar)`` (0 elsewhere) and the null branch's
    ``sqrt(1 - used / alpha_bar)``.  ``used`` is added one branch at a
    time in address order, as ``alpha_bar`` is.  A failed check writes
    nothing, and the binding is never changed.
    """
    masked = frozenset(mask.indices if isinstance(mask, Mask) else mask)
    coeffs = {key: list(value) if isinstance(value, tuple) else value
              for key, value in binding.classical_coeffs.items()}
    values = binding.values
    if binding.weights is None:
        if masked:
            raise MaskError("nonzero mask over a skeleton without a generator pool")
    else:
        ell = len(binding.weights)
        missing = masked.difference(range(1, ell + 1))
        if missing:
            raise MaskError(
                f"mask addresses missing from generator pool (addresses: {sorted(missing)})"
            )
        alpha_bar = binding.alpha_bar if alpha_bar is None else float(alpha_bar)
        chosen = np.zeros(ell, bool)
        chosen[np.fromiter(masked, np.intp, len(masked)) - 1] = True
        weight = binding.weights[chosen]
        prep = np.zeros(ell + 1)
        prep[1:][chosen] = np.sqrt(weight / alpha_bar)
        used = sequential_sum(weight)
        if used > alpha_bar * (1 + 1e-12):
            raise BindError("masked weight exceeds the global normalization")
        prep[0] = np.sqrt(max(1.0 - used / alpha_bar, 0.0))
        values = values.copy()
        values[binding.prep_slots] = prep
        values.setflags(write=False)
        coeffs["alpha_bar"] = float(alpha_bar)
    label = mask.label if isinstance(mask, Mask) else "mask"
    return DialSheet(
        skeleton_fingerprint=binding.fingerprint,
        mask_id=label,
        mask_indices=tuple(sorted(masked)),
        values=values,
        classical_coeffs=coeffs,
    )


@lru_cache(maxsize=1)
def generator_binding(gen_pool):
    """``(fabric, binding)`` of a generator pool alone (:func:`one_pool_skeleton`,
    :func:`bind`), kept for the last pool object; pools compare by identity
    (``eq=False``), so a mask re-dial of one pool is a :func:`dial_prep`."""
    skel = one_pool_skeleton(None, gen_pool)
    return skel, bind(skel, None, gen_pool)


def _check_span(side, address, held, slots):
    if held != slots:
        raise BindError(f"{side} adaptor {address}: {held} values for its {slots} slots")


def _bind_hamiltonian(skel, ham_pool, rows):
    """Append the Hamiltonian adaptors' rows; returns the classical coefficients.

    Every one-body mode column's ladder angles are formed in one batch
    (:func:`ladders.ladder_angles`, each column's norm checked) and every
    channel's rotation network is decomposed in one stack, both after the
    adaptors' own checks; the network's values are put in after the row's
    PREP amplitude and sign.
    """
    ham = sorted(ham_pool.ladders, key=attrgetter("address"))
    if ham_pool.ell > skel.ell_ham:
        raise BindError(
            "hamiltonian pool exceeds compiled size",
            addresses=[lad.address for lad in ham[skel.ell_ham:]],
        )
    if [lad.address for lad in ham] != list(range(ham_pool.ell)):
        raise BindError("hamiltonian addresses must be contiguous from 0")
    for addr, lad in enumerate(ham):
        ad = skel.adaptors_ham[addr]
        if (lad.kind == "one_body_mode") != (ad.kind == "one_body_mode"):
            raise BindError("adaptor kind mismatch", addresses=[addr])
        if lad.kind == "one_body_mode" and lad.multiplicity != ad.rank:
            raise BindError("mode multiplicity differs from compiled rank", addresses=[addr])
        for pivot in ad.pivot if lad.kind == "one_body_mode" else ():
            if not 0 <= pivot < skel.n_system:
                raise ShapeError(f"pivot {pivot} out of range")
        if lad.kind != "one_body_mode" and lad.channel.rank > ad.rank:
            raise BindError("channel rank exceeds compiled rank", addresses=[addr])
    modes = [(lad, skel.adaptors_ham[addr]) for addr, lad in enumerate(ham)
             if lad.kind == "one_body_mode"]
    mode_rows = iter(())
    if modes:
        columns = np.concatenate([lad.vectors.T for lad, _ in modes])
        thetas, phases, gauges = ladders.ladder_angles(
            columns, [p for _, ad in modes for p in ad.pivot]
        )
        mode_rows = iter(np.column_stack([thetas, phases, gauges]).tolist())
    alpha = ham_pool.alpha
    omega_list, channel_rows, ham_rows = [], [], []
    for addr, lad in enumerate(ham):
        ad = skel.adaptors_ham[addr]
        body = []
        if lad.kind == "one_body_mode":
            for _ in range(lad.multiplicity):
                if lad.multiplicity > 1:  # the mode's case amplitude
                    body.append(float(1 / np.sqrt(ad.rank)))
                body += next(mode_rows)
            weight = abs(lad.coefficient) * lad.multiplicity
        else:
            ch = lad.channel
            amps, signs, _ = oracle.signed_loading(ch.eigvals)
            for xi in range(ch.rank):  # each case: amplitude, then sign
                body += [float(amps[xi]), _sign_phi(signs[xi])]
            body += [0.0] * (2 * (ad.rank - ch.rank))  # surplus eigenmodes idle
            weight = abs(lad.coefficient) * ch.gamma**2
        omega_list.append(lad.coefficient)
        prep = float(np.sqrt(weight / alpha))
        row = [prep, _sign_phi(lad.coefficient), *body]
        if lad.kind != "one_body_mode":
            channel_rows.append((lad.channel.rotation_full, row))
        ham_rows.append(row)
    if channel_rows:
        angles, phases = ladders.network_angles([rot for rot, _ in channel_rows])
        network_rows = np.hstack([phases, angles]).tolist()
        for (_, row), network in zip(channel_rows, network_rows):
            row[2:2] = network
    rows += [(("ham", addr), row) for addr, row in enumerate(ham_rows)]
    return {"Omega": [float(x) for x in omega_list], "alpha": float(alpha)}


def _pair_rows(skel, gen_pool, sign):
    """``(addresses, table)`` per batch of the pool's pair table, in one array pass.

    ``sign`` holds every generator address's sign phase, address ``a`` at
    ``a - 1``.  The wedge vectors are the batch's own
    (:class:`~composer.factorization.PairBatch`), and each pivot's index in
    its wedge is the skeleton's (:attr:`CircuitSkeleton.pair_slots`).  A
    row is the PREP amplitude (0 here: :func:`dial_prep` writes it) and
    sign, then the ``v`` and ``u`` ladders' lines' values: an angle and a
    phase per ``pgivens`` line, then the pivot gauge.
    """
    table = gen_pool.pairs
    out = []
    for batch in table.batches:
        addresses = table.address[batch.rows]
        pivots = skel.pair_slots[addresses]
        u, v = (ladders.ladder_angles(vecs, pivots[:, k])
                for k, vecs in enumerate((batch.u, batch.v)))
        rows = np.empty((len(addresses), 2 + sum(2 * t.shape[1] + 1 for t, _, _ in (u, v))))
        rows[:, 0], rows[:, 1] = 0.0, sign[addresses - 1]
        start = 2
        for thetas, phases, gauges in (v, u):
            stop = start + 2 * thetas.shape[1]
            rows[:, start:stop:2], rows[:, start + 1:stop:2] = thetas, phases
            rows[:, stop] = gauges
            start = stop + 1
        out.append((addresses, rows))
    return out


def _bind_generator(skel, gen_pool, rows, tables):
    """Append the generator adaptors' rows, and the pair batches' tables
    (:func:`_pair_rows`), each PREP amplitude 0; returns the coefficients.

    Everything is read from the pool's :class:`~composer.factorization.Branches`
    in address order.
    """
    n = skel.n_system
    branches = gen_pool.branches
    addresses = branches.address
    ell = len(addresses)
    if ell > skel.ell_gen:
        raise BindError(
            "generator pool exceeds compiled size",
            addresses=addresses[skel.ell_gen:].tolist(),
        )
    if not np.array_equal(addresses, np.arange(1, ell + 1)):
        raise BindError("generator addresses must be contiguous from 1")
    # a pair ladder binds to a pair adaptor, a bilinear one to a bilinear_asym
    bilinear = np.flatnonzero(~branches.pair)
    fits = branches.pair == (skel.pair_slots[1:ell + 1, 0] >= 0)
    fits[bilinear] = [skel.adaptors_gen[a].kind == "bilinear_asym"
                      for a in addresses[bilinear].tolist()]
    if not fits.all():
        raise BindError("adaptor kind mismatch", addresses=[int(addresses[~fits][0])])
    sign = np.where(branches.coefficient < 0, np.pi, 0.0)
    for k in bilinear.tolist():
        addr = k + 1
        ad = skel.adaptors_gen[addr]
        lad = gen_pool.bilinears[branches.index[k]]
        w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
        amps, signs, _ = oracle.signed_loading(w_vals)
        row = [0.0, sign[k]]
        for j in range(len(w_vals)):  # each case: amplitude, ladder, sign
            pivot = _mode_pivot(ad, j)
            sched = ladders.one_electron_angles(w_vecs[:, j], pivot=pivot, n=n)
            row += [float(amps[j]), *_ladder_row(sched), _sign_phi(signs[j])]
        row += [0.0] * ((2 * n + 1) * (2 - len(w_vals)))  # a missing mode idles
        rows.append((("gen", addr), row))
    tables += _pair_rows(skel, gen_pool, sign)
    rows.append((("gen", 0), [0.0]))  # the null branch's PREP amplitude
    return {"omega": branches.coefficient.tolist()}


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


def check_column_batch(skel, address, sector):
    """Reject the column run at ``address`` before anything is built; return its size.

    ``sector`` is an ``int`` (not a ``bool``) in ``0..n``, else a
    :class:`SectorError` names it.  :func:`execute_block` runs one adaptor
    at a time, so a run holds :data:`RUN_COPIES` slabs of its widest
    adaptor's ``2**(w + n) x C`` columns (``w`` that adaptor's own
    workspace, ``C`` the ``C(n, N)`` sector columns) and the ``2**n x C``
    sum.  That many amplitudes may be no more than the largest dense
    operator holds.
    """
    if type(sector) is not int:
        raise SectorError(f"sector must be an int, not {sector!r}")
    side, entries = _addressed(skel, address)
    n = skel.n_system
    if not 0 <= sector <= n:
        raise SectorError(f"sector N={sector} outside 0..{n}")
    columns = math.comb(n, sector)
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


def execute_block(skel, sheet, address, sector):
    """Sector block of the encoding at ``address``, run one adaptor at a time.

    The PREP is real orthogonal with the amplitudes ``p_s`` as its first
    column, so a side's block is ``sum_s p_s**2 phase_s B_s``, where
    ``B_s`` is adaptor ``s``'s own block on its own workspace; one
    adaptor's block is its ``B_s`` alone, without its sign line's phase
    (as :func:`_encoding` selects it).  Each ``B_s`` runs on the columns
    ``|0_anc>|x>`` (``oracle.column_block``), ``x`` in
    ``jw.sector_indices(n, sector)``, and may hold at most
    ``oracle.SECTOR_TOL`` in the rows outside the sector (a
    :class:`SectorError` naming the adaptor).  The result is the
    ``C(n, N)``-square sector block, indexed like those columns.  An
    adaptor of zero weight is built (its lines and width are checked) but
    not run, once per fabric, adaptor, values after its PREP amplitude and
    shared workspace (:func:`_idle_branch`, the latest :data:`KEPT_RUNS`).

    Each weighted ``B_s`` and phase come from :func:`_adaptor_run`, a pure
    function of the fabric (by value), the adaptor, its values after its
    PREP amplitude, the sector and the shared workspace, cached (the
    latest :data:`KEPT_RUNS`): a mask re-dial, which changes only PREP
    amplitudes, runs only the branches it weights for the first time.  A
    run that fails a check raises, so it is never kept.

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
    block = np.zeros((math.comb(n, sector),) * 2, dtype=complex)
    for (a, _), weight in zip(entries, weights):
        own = _own_values(skel, values, side, a)
        if weight == 0.0:
            _idle_branch(skel, side, a, own, workspace)
            continue
        part, phase = _adaptor_run(skel, side, a, own, sector, workspace)
        block += (weight * (1.0 if single else phase)) * part
    return block


@lru_cache(maxsize=KEPT_RUNS)
def _idle_branch(skel, side, a, values, workspace):
    """Build idle adaptor ``a``'s branch from its :func:`_own_values` and check
    it is no wider than ``workspace``; only the passed check is kept, never
    the node."""
    oracle.branch_width(_branch(skel, side, a, values)[0], skel.n_system, workspace)


@lru_cache(maxsize=KEPT_RUNS)
def _adaptor_run(skel, side, a, values, sector, workspace):
    """``(B_s, phase)``: adaptor ``a``'s checked, read-only sector block,
    run from its :func:`_own_values`, and its sign line's phase.  Its node
    may be no wider than ``workspace`` (``None`` for a one-adaptor address,
    which has no shared one).
    """
    n = skel.n_system
    node, phase = _branch(skel, side, a, values)
    if workspace is not None:
        oracle.branch_width(node, n, workspace)
    columns = jw.sector_indices(n, sector)
    part = oracle.column_block(node, n, columns)
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
