"""Compile-once circuit IR: frozen two-qubit fabric plus re-dialable angles.

The skeleton records the fixed pool's facts: the register widths, the
occupied count ``n_occ`` (a pair ladder's ``u`` side rotates over the
virtual pairs, its ``v`` side over the occupied ones: :func:`wedge_pairs`),
the selector tree, the adaptor bank's gate layers with structural slot
identifiers, and the signal-processing scaffold.  Each layer is one
canonical line ``gate|q0,q1,...|slot`` (empty slot field for a fixed
gate), held, stored and hashed in that one form.  The slot stream is,
per adaptor (Hamiltonian side, then generator side, as stored), its PREP
amplitude ``prep/<side>/<address>``, then its lines' slot fields in line
order; a skeleton whose stream names a slot twice cannot be dialed or
executed.  The fingerprint hashes the register widths, ``n_occ``, gate
kinds, ordered qubit tuples, layer order, slot identifiers, and each
adaptor's pivots and rank, never angle values, so it also fixes the
stream's order.  A dial sheet (``composer-dial-v3``) holds one
instance's (pools, mask, coefficient set) values as one array,
``values[i]`` binding the stream's ``i``-th slot, and is the only thing
that changes between instances.

An adaptor's lines, in application order, are its whole branch
(``composer-skel-v7``), and execution interprets them: each run of
system gates (``givens``, ``pgivens`` then its ``pgivens_phase``, ``rz``,
``cphase``, ``x``) becomes one dense ``2**n x 2**n`` leaf, the gates
applied in order to the identity by the :mod:`ladders` kernel (a
``pgivens_phase`` anywhere else is an error); on the workspace, ``cx x``
is the flag copy, ``h mcz h`` the vacuum reflection, a lone ``x`` the
null flip.  ``gphase`` multiplies its branch or case by a dialed phase
(``.../sign_phi``: 0 or pi), ``gphase+i`` / ``gphase-i`` by a fixed one.
``begin`` opens a block that ``end`` applies as listed or ``dagger`` as
its adjoint; ``mirror`` applies the adjoint of the last closed block as
applied, so a mirrored half is one line.  ``select|r|`` opens a
sub-select over register ``r`` whose ``case`` lines (slot: the PREP
amplitude; none: equal fixed amplitudes) each start a branch, up to
``end``.  ``square|s|`` makes everything before it ``W R0 W`` on signal
``s``, whose block is the square.  Execution first pairs the sheet's
values with the slot names (:func:`sheet_bindings`: the fingerprint must
match and the value count equal the slot count);
``execute_*_encoding`` assemble the gadget tree (:mod:`oracle`) as a
sparse unitary, ``execute_*_block`` run it on the ``2**n`` ancilla-zero
columns.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ladders, oracle
from .errors import BindError, MaskError, ParseError, ValidationError
from .errors import DICT, INT, LIST, NUMBER, STR, checked, checked_list
from .factorization import bilinear_asym_spectrum, generator_branch_alpha

SKEL_FORMAT = "composer-skel-v7"
DIAL_FORMAT = "composer-dial-v3"

# gates on the system register, each with the number of modes it acts on
SYSTEM_GATES = {"givens": 2, "pgivens": 4, "rz": 1, "cphase": 2, "x": 1}


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
    address: int
    pivot: tuple = ()
    rank: int = 0


@dataclass(frozen=True)
class CompilePlan:
    """Fixed pivots of every adaptor of both pools, and the pairs' occupied count."""

    ham: tuple
    gen: tuple
    n_occ: int


def wedge_pairs(n, n_occ, side):
    """Pairs a pair ladder's ``u`` (virtual) or ``v`` (occupied) side rotates over.

    Lexicographic ``p < q``, one per entry of the side's pair vector.
    """
    lo, hi = (n_occ, n) if side == "u" else (0, n_occ)
    return tuple((lo + p, lo + q) for p, q in ladders.pair_indices(hi - lo))


def pivots_from_pools(ham_pool, gen_pool):
    """Canonical pivot plan: argmax amplitudes, frozen at compile time.

    Either pool may be ``None``; the plan then covers the other alone,
    and without a generator pool ``n_occ`` is the Hamiltonian's ``n_elec``.
    """
    ham = []
    if ham_pool is not None:
        for lad in ham_pool.one_body:
            pivots = tuple(
                int(np.argmax(np.abs(lad.vectors[:, j])))
                for j in range(lad.multiplicity)
            )
            ham.append(
                AdaptorDescriptor(
                    "one_body_mode",
                    lad.address,
                    pivot=pivots,
                    rank=lad.multiplicity,
                )
            )
        for lad in ham_pool.channels:
            ham.append(
                AdaptorDescriptor("channel", lad.address, rank=lad.channel.rank)
            )
    gen = []
    if gen_pool is not None:
        n = gen_pool.n_so
        for lad in gen_pool.ladders:
            if lad.kind == "pair":
                vectors = lad.virtual_pair_vector(), lad.occupied_pair_vector()
                pivot = tuple(
                    wedge_pairs(n, gen_pool.n_occ, side)[int(np.argmax(np.abs(vec)))]
                    for side, vec in zip("uv", vectors)
                )
                gen.append(AdaptorDescriptor("pair", lad.address, pivot=pivot))
            else:
                w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
                pivots = tuple(
                    int(np.argmax(np.abs(w_vecs[:, j]))) for j in range(len(w_vals))
                )
                gen.append(
                    AdaptorDescriptor(
                        "bilinear_asym", lad.address, pivot=pivots, rank=len(w_vals)
                    )
                )
    n_occ = ham_pool.n_elec if gen_pool is None else gen_pool.n_occ
    return CompilePlan(ham=tuple(ham), gen=tuple(gen), n_occ=n_occ)


@dataclass(frozen=True)
class AdaptorSpec:
    """One compiled adaptor: address, kind, pivot data, canonical layer lines."""

    address: int
    kind: str
    pivot: tuple
    rank: int
    layers: tuple  # ("gate|q0,q1,...|slot", ...), see _layer


@dataclass(frozen=True)
class CircuitSkeleton:
    """Frozen two-qubit fabric with addressed parameter slots."""

    n_system: int
    n_occ: int
    selector_width: int
    workspace_width: int
    qsp_degree: int
    adaptors_ham: tuple
    adaptors_gen: tuple
    connectivity: str
    fingerprint: str

    def __post_init__(self):
        # each address is a selector label and names the PREP slot prep/<side>/<address>
        for side, adaptors in self.sides():
            addresses = sorted(ad.address for ad in adaptors)
            fits = len(addresses) <= 2**self.selector_width
            if not fits or addresses != list(range(len(addresses))):
                raise ValidationError(
                    f"{side} adaptor addresses must be 0, 1, ... within the selector"
                )
        wedges = [wedge_pairs(self.n_system, self.n_occ, side) for side in "uv"]
        for ad in self.adaptors_gen:  # each pair side pivots inside its own wedge
            ok = len(ad.pivot) == 2 and all(p in w for p, w in zip(ad.pivot, wedges))
            if ad.kind == "pair" and not ok:
                raise ValidationError(
                    f"gen adaptor {ad.address}: pair pivots {ad.pivot} off their wedges"
                )

    @property
    def ell_ham(self):
        return len(self.adaptors_ham)

    @property
    def ell_gen(self):
        # address 0 is the reserved null branch
        return len(self.adaptors_gen) - 1

    def sides(self):
        """``(("ham", adaptors), ("gen", adaptors))``, the slot prefix of each side."""
        return ("ham", self.adaptors_ham), ("gen", self.adaptors_gen)

    @cached_property
    def slot_names(self):
        """The slots in stream order, which a dial sheet's values follow.

        Built on first use, by dial or execution (loading a skeleton and
        ``estimate`` never build it); a name the stream holds twice is a
        ValidationError.
        """
        names = tuple(_slot_stream(self))
        if len(set(names)) != len(names):
            twice = Counter(names).most_common(1)[0][0]
            raise ValidationError(f"slot {twice!r} appears twice in the layer stream")
        return names

    def to_json(self):
        doc = {
            "format": SKEL_FORMAT,
            "n_system": self.n_system,
            "n_occ": self.n_occ,
            "selector_width": self.selector_width,
            "workspace_width": self.workspace_width,
            "qsp_degree": self.qsp_degree,
            "connectivity": self.connectivity,
            "adaptors_ham": [_adaptor_doc(a) for a in self.adaptors_ham],
            "adaptors_gen": [_adaptor_doc(a) for a in self.adaptors_gen],
            "fingerprint": self.fingerprint,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        doc = checked(json.loads(text), DICT, "skeleton")
        if doc.get("format") != SKEL_FORMAT:
            raise ParseError(f"expected format {SKEL_FORMAT!r}")
        for key in ("n_system", "n_occ", "selector_width", "workspace_width",
                    "qsp_degree"):
            checked(doc[key], INT, key)
        for key in ("adaptors_ham", "adaptors_gen"):
            checked_list(doc[key], DICT, key)
        skel = CircuitSkeleton(
            n_system=doc["n_system"],
            n_occ=doc["n_occ"],
            selector_width=doc["selector_width"],
            workspace_width=doc["workspace_width"],
            qsp_degree=doc["qsp_degree"],
            adaptors_ham=tuple(_adaptor_load(a) for a in doc["adaptors_ham"]),
            adaptors_gen=tuple(_adaptor_load(a) for a in doc["adaptors_gen"]),
            connectivity=checked(doc.get("connectivity", "full"), STR, "connectivity"),
            fingerprint=checked(doc["fingerprint"], STR, "fingerprint"),
        )
        if fabric_fingerprint(skel) != skel.fingerprint:
            raise ValidationError("skeleton fingerprint does not match its layers")
        return skel


def _slot_stream(skel):
    """The slots in stream order: per adaptor, its PREP amplitude, then its lines'."""
    for side, adaptors in skel.sides():
        for ad in adaptors:
            yield f"prep/{side}/{ad.address}"
            yield from filter(None, [line.rpartition("|")[2] for line in ad.layers])


def _adaptor_doc(ad):
    return {
        "address": ad.address,
        "kind": ad.kind,
        "pivot": _pivot_doc(ad.pivot),
        "rank": ad.rank,
        "layers": list(ad.layers),
    }


def _pivot_doc(pivot):
    return [list(p) if isinstance(p, tuple) else p for p in pivot]


def _pivot_load(doc, where):
    for p in checked(doc, LIST, f"{where}: pivot"):
        if type(p) is list:
            checked_list(p, INT, f"{where}: pivot pair")
        else:
            checked(p, INT, f"{where}: pivot")
    return tuple(tuple(p) if isinstance(p, list) else p for p in doc)


def _adaptor_load(doc):
    where = f"adaptor {checked(doc['address'], INT, 'adaptor address')}"
    checked(doc["kind"], STR, f"{where}: kind")
    checked(doc["rank"], INT, f"{where}: rank")
    layers = doc["layers"]
    if type(layers) is not list:
        raise ParseError(f"{where}: layers must be a list of lines")
    for line in layers:
        # one line per layer keeps the hashed text unambiguous
        if type(line) is not str or "\n" in line or line.count("|") != 2:
            raise ParseError(f"{where}: malformed layer line {line!r}")
    return AdaptorSpec(
        address=doc["address"],
        kind=doc["kind"],
        pivot=_pivot_load(doc["pivot"], where),
        rank=doc["rank"],
        layers=tuple(layers),
    )


@dataclass(frozen=True)
class DialSheet:
    """Per-instance values of every skeleton parameter slot.

    ``values[i]`` binds the skeleton's ``slot_names[i]``; the fingerprint
    fixes that order, and :func:`sheet_bindings` pairs the two.
    """

    skeleton_fingerprint: str
    mask_id: str
    mask_indices: tuple
    values: tuple
    classical_coeffs: dict

    def to_json(self):
        doc = {
            "format": DIAL_FORMAT,
            "skeleton_fingerprint": self.skeleton_fingerprint,
            "mask_id": self.mask_id,
            "mask_indices": list(self.mask_indices),
            "values": self.values,
            "classical_coeffs": self.classical_coeffs,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        doc = checked(json.loads(text), DICT, "dial sheet")
        if doc.get("format") != DIAL_FORMAT:
            raise ParseError(f"expected format {DIAL_FORMAT!r}")
        checked(doc["skeleton_fingerprint"], STR, "skeleton_fingerprint")
        checked(doc["mask_id"], STR, "mask_id")
        checked_list(doc["mask_indices"], INT, "mask_indices")
        values = checked_list(doc["values"], NUMBER, "values")
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
            values=tuple(values),
            classical_coeffs=doc["classical_coeffs"],
        )


# ---------------------------------------------------------------------------
# compile stage
# ---------------------------------------------------------------------------


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


def compile_skeleton(n, pivots, connectivity="full", qsp_degree=0):
    """Emit the reusable fabric for the pivot plan; its adaptors set the pool sizes.

    Selector width covers ``max(ell_H, ell_sigma + 1)`` (the +1 is the
    reserved null branch at address 0); every rotation receives a unique
    structural slot identifier; the fingerprint digests the canonical
    layer stream.  One pool may have no ladders, for a skeleton that
    encodes the other alone.
    """
    ell_ham, ell_gen = len(pivots.ham), len(pivots.gen)
    if ell_ham + ell_gen == 0:
        raise ValidationError("pivot plan must hold at least one adaptor")
    width = max(int(np.ceil(np.log2(max(ell_ham, ell_gen + 1)))), 1)
    t = plan_workspace_width(pivots.ham, pivots.gen)
    sys0 = width + t  # global index of system qubit 0
    ws0 = width

    def sysq(p):
        return sys0 + p

    emit = {"one_body_mode": _compile_one_body, "channel": _compile_channel,
            "pair": lambda *args: _compile_pair(*args, pivots.n_occ),
            "bilinear_asym": _compile_bilinear_asym}
    adaptors_ham = [emit[ad.kind](ad, n, sysq, ws0, t) for ad in pivots.ham]
    adaptors_gen = [AdaptorSpec(0, "null", (), 0, (_layer("x", (ws0 + t - 1,)),))]
    adaptors_gen += [emit[ad.kind](ad, n, sysq, ws0, t) for ad in pivots.gen]
    skel = CircuitSkeleton(
        n_system=n,
        n_occ=int(pivots.n_occ),
        selector_width=width,
        workspace_width=t,
        qsp_degree=int(qsp_degree),
        adaptors_ham=tuple(adaptors_ham),
        adaptors_gen=tuple(adaptors_gen),
        connectivity=str(connectivity),
        fingerprint="",
    )
    return replace(skel, fingerprint=fabric_fingerprint(skel))


def one_pool_skeleton(ham_pool, gen_pool):
    """Skeleton compiled for one pool alone; the other is passed as ``None``."""
    plan = pivots_from_pools(ham_pool, gen_pool)
    n = (gen_pool if ham_pool is None else ham_pool).n_so
    return compile_skeleton(n, plan)


def _layer(gate, qubits, slot=None):
    """One layer as the canonical line the skeleton stores and hashes.

    ``gate|q0,q1,...|slot``, with an empty slot field for a fixed gate.
    """
    return f"{gate}|{','.join(map(str, qubits))}|{slot or ''}"


def _ladder_layers(prefix, n, pivot, sysq):
    ordering = tuple(p for p in range(n) if p != pivot)
    layers = [
        _layer("givens", (sysq(p), sysq(pivot)), f"{prefix}/rot/{k}/theta")
        for k, p in enumerate(ordering)
    ]
    layers += [
        _layer("rz", (sysq(p),), f"{prefix}/rot/{k}/phi")
        for k, p in enumerate(ordering)
    ]
    layers.append(_layer("rz", (sysq(pivot),), f"{prefix}/pivot_phi"))
    return layers


def _pair_ladder_layers(prefix, wedge, pivot_pair, sysq):
    """Prep-form pair ladder: ``x`` on its pivot pair, then its wedge's rotations."""
    r, s = pivot_pair
    layers = [_layer("x", (sysq(r),)), _layer("x", (sysq(s),))]
    ordering = (pq for pq in wedge if pq != (r, s))
    for k, (p, q) in enumerate(ordering):
        qubits = (sysq(p), sysq(q), sysq(r), sysq(s))
        layers.append(_layer("pgivens", qubits, f"{prefix}/rot/{k}/theta"))
        layers.append(_layer("pgivens_phase", qubits, f"{prefix}/rot/{k}/phi"))
    layers.append(_layer("cphase", (sysq(r), sysq(s)), f"{prefix}/pivot_phi"))
    return layers


def _occupation_layers(prefix, n, pivot, sysq, flag):
    """Flagged occupation ``U C U^dag``: ``U^dag``, the flag copy ``C``, ``U``."""
    return ["begin||", *_ladder_layers(prefix, n, pivot, sysq), "dagger||",
            _layer("cx", (sysq(pivot), flag)), _layer("x", (flag,)), "mirror||"]


def _select_layers(register, cases):
    """Sub-select over ``register``: (amplitude slot or ``None``, body) per case."""
    cases = [line for slot, body in cases for line in (_layer("case", (), slot), *body)]
    return [_layer("select", register), *cases, "end||"]


def _sign(prefix):
    return _layer("gphase", (), f"{prefix}/sign_phi")


def _compile_one_body(ad, n, sysq, ws0, t):
    """Mode-group adaptor: one flagged ladder per grouped eigenvector."""
    prefix, flag, m = f"ham/{ad.address}", ws0 + t - 1, max(ad.rank, 1)
    modes = [
        (f"{prefix}/subprep/{j}",
         _occupation_layers(f"{prefix}/mode{j}", n, ad.pivot[j], sysq, flag))
        for j in range(m)
    ]
    body = modes[0][1] if m == 1 else _select_layers((flag - 1,), modes)
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, m, (_sign(prefix), *body))


def _compile_channel(ad, n, sysq, ws0, t):
    """Squared channel: ``N S N^dag`` over a signed flag-copy select."""
    prefix, flag = f"ham/{ad.address}", ws0 + t - 1
    a_i = oracle.index_width(ad.rank)
    network = [_layer("rz", (sysq(p),), f"{prefix}/net/phase/{p}") for p in range(n)]
    network += [
        _layer("givens", (sysq(p), sysq(q)), f"{prefix}/net/{k}/theta")
        for k, (p, q) in enumerate(ladders.network_pair_sequence(n))
    ]
    cases = [
        (f"{prefix}/prep/{xi}", [_layer("cx", (sysq(xi), flag)), _layer("x", (flag,)),
                                 _sign(f"{prefix}/select/{xi}")])
        for xi in range(ad.rank)
    ]
    layers = [_sign(prefix), "begin||", *network, "dagger||",
              *_select_layers(tuple(range(flag - a_i, flag)), cases),
              "mirror||", _layer("square", (flag - a_i - 1,))]
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, ad.rank, tuple(layers))


def _compile_pair(ad, n, sysq, ws0, t, n_occ):
    """``i(L - L^dag)``: the arm ``W_L = U_u R_vac U_v^dag``, then its mirror."""
    prefix, anc = f"gen/{ad.address}", ws0 + t - 1
    u, v = (_pair_ladder_layers(f"{prefix}/{x}", wedge_pairs(n, n_occ, x), p, sysq)
            for x, p in zip("uv", ad.pivot))
    vacuum = [_layer("h", (anc,)), _layer("mcz", tuple(map(sysq, range(n)))),
              _layer("h", (anc,))]
    arm = ["gphase+i||", "begin||", "begin||", *v, "dagger||", *vacuum, *u, "end||"]
    cases = [(None, arm), (None, ["gphase-i||", "mirror||"])]
    layers = (_sign(prefix), *_select_layers((anc - 1,), cases))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, 0, layers)


def _mode_pivot(ad, j):
    """Pivot of mode ``j`` of a two-mode bilinear adaptor (0 when absent)."""
    return ad.pivot[j] if j < len(ad.pivot) else 0


def _compile_bilinear_asym(ad, n, sysq, ws0, t):
    prefix, flag = f"gen/{ad.address}", ws0 + t - 1
    cases = [
        (f"{prefix}/subprep/{j}",
         [*_occupation_layers(f"{prefix}/mode{j}", n, _mode_pivot(ad, j), sysq, flag),
          _sign(f"{prefix}/submode/{j}")])
        for j in range(2)
    ]
    layers = (_sign(prefix), *_select_layers((flag - 1,), cases))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, 2, layers)


def fabric_fingerprint(skel):
    """SHA-256 digest of the register widths, ``n_occ`` and the canonical layer stream.

    Structure only: each adaptor's address, kind, pivots and rank, then
    its layer lines as stored, one per text line, so qubit tuples enter
    in gate order (control before target); angle values never do.
    """
    h = hashlib.sha256()
    h.update(
        f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
        .encode()
    )
    h.update(f"n_occ|{skel.n_occ}\n".encode())
    for ad in skel.adaptors_ham + skel.adaptors_gen:
        pivot = json.dumps(_pivot_doc(ad.pivot))
        h.update(f"adaptor:{ad.address}:{ad.kind}:{pivot}:{ad.rank}\n".encode())
        h.update("".join(line + "\n" for line in ad.layers).encode())
    for k in range(skel.qsp_degree):
        h.update(f"qsp_rep|{k}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dial stage
# ---------------------------------------------------------------------------


def _bind(bindings, prefix, thetas, phases, pivot_phase):
    """One ladder's slots, from lists of floats: its rotations, then ``pivot_phi``."""
    for k, theta in enumerate(thetas):
        bindings[f"{prefix}/rot/{k}/theta"] = theta
    for k, phi in enumerate(phases):
        bindings[f"{prefix}/rot/{k}/phi"] = phi
    bindings[f"{prefix}/pivot_phi"] = float(pivot_phase)


def _bind_schedule(bindings, sched, prefix):
    _bind(bindings, prefix, sched.thetas.tolist(), sched.phases.tolist(),
          sched.pivot_phase)


def dial(skel, ham_pool, gen_pool, mask, alpha_bar=None):
    """Bind every parameter slot for one instance; the skeleton is untouched.

    Pools may be smaller than the compiled sizes; surplus amplitude routes
    to the null branch (generator) or zero-weight branches (Hamiltonian).
    A pool is ``None`` exactly when the skeleton compiled no ladders for it,
    and a generator pool must have the occupied count the skeleton records.
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
    # every slot starts at zero, where surplus compiled adaptors idle
    bindings, coeffs = dict.fromkeys(skel.slot_names, 0.0), {}
    n_slots = len(bindings)
    if ham_pool is not None:
        coeffs.update(_bind_hamiltonian(skel, ham_pool, bindings))
    if gen_pool is not None:
        coeffs.update(_bind_generator(skel, gen_pool, masked, alpha_bar, bindings))
    if len(bindings) > n_slots:
        unknown = bindings.keys() - set(skel.slot_names)
        raise BindError("bindings address unknown slots", addresses=unknown)

    label = mask.label if isinstance(mask, Mask) else "mask"
    return DialSheet(
        skeleton_fingerprint=skel.fingerprint,
        mask_id=label,
        mask_indices=tuple(sorted(masked)),
        values=tuple(bindings.values()),
        classical_coeffs=coeffs,
    )


def _bind_hamiltonian(skel, ham_pool, bindings):
    """Bind the Hamiltonian adaptors and PREP; returns the classical coefficients."""
    n = skel.n_system
    if ham_pool.ell > skel.ell_ham:
        raise BindError(
            "hamiltonian pool exceeds compiled size",
            addresses=[lad.address for lad in ham_pool.ladders[skel.ell_ham:]],
        )
    if sorted(lad.address for lad in ham_pool.ladders) != list(range(ham_pool.ell)):
        raise BindError("hamiltonian addresses must be contiguous from 0")
    alpha = ham_pool.alpha
    ham_by_addr = {lad.address: lad for lad in ham_pool.ladders}
    adaptors_ham = {ad.address: ad for ad in skel.adaptors_ham}
    omega_list = []
    for addr in sorted(ham_by_addr):
        lad = ham_by_addr[addr]
        ad = adaptors_ham.get(addr)
        if ad is None:
            raise BindError("address missing from skeleton", addresses=[addr])
        if (lad.kind == "one_body_mode") != (ad.kind == "one_body_mode"):
            raise BindError("adaptor kind mismatch", addresses=[addr])
        if lad.kind == "one_body_mode":
            if lad.multiplicity != ad.rank:
                raise BindError(
                    "mode multiplicity differs from compiled rank", addresses=[addr]
                )
            for j in range(lad.multiplicity):
                sched = ladders.one_electron_angles(
                    lad.vectors[:, j].astype(complex), pivot=ad.pivot[j], n=n
                )
                _bind_schedule(bindings, sched, f"ham/{addr}/mode{j}")
                if lad.multiplicity > 1:
                    bindings[f"ham/{addr}/subprep/{j}"] = float(1 / np.sqrt(ad.rank))
            weight = abs(lad.coefficient) * lad.multiplicity
        else:
            ch = lad.channel
            if ch.rank > ad.rank:
                raise BindError(
                    "channel rank exceeds compiled rank", addresses=[addr]
                )
            net = ladders.rotation_network_from_matrix(ch.rotation_full)
            for k, (_, _, theta) in enumerate(net.rotations):
                bindings[f"ham/{addr}/net/{k}/theta"] = float(theta)
            for p in range(n):
                bindings[f"ham/{addr}/net/phase/{p}"] = float(net.phases[p])
            amps, signs, _ = oracle.signed_loading(ch.eigvals)
            for xi in range(ch.rank):  # surplus compiled eigenmodes idle at zero
                bindings[f"ham/{addr}/prep/{xi}"] = float(amps[xi])
                bindings[f"ham/{addr}/select/{xi}/sign_phi"] = (
                    np.pi if signs[xi] < 0 else 0.0
                )
            weight = abs(lad.coefficient) * ch.gamma**2
        omega_list.append(lad.coefficient)
        bindings[f"ham/{addr}/sign_phi"] = np.pi if lad.coefficient < 0 else 0.0
        bindings[f"prep/ham/{addr}"] = float(np.sqrt(weight / alpha))
    return {"Omega": [float(x) for x in omega_list], "alpha": float(alpha)}


def _bind_pairs(skel, pairs, bindings):
    """Bind the ``(ladder, adaptor)`` pairs' wedge ladders, one array pass per side."""
    for k, (side, factors) in enumerate((("u", "xy"), ("v", "rs"))):
        wedge = wedge_pairs(skel.n_system, skel.n_occ, side)
        pivots = [wedge.index(ad.pivot[k]) for _, ad in pairs]
        x, y = (np.array([getattr(lad, f) for lad, _ in pairs]) for f in factors)
        angles = ladders.pair_ladder_angles(ladders.wedge_vectors(x, y), pivots)
        for (lad, _), *row in zip(pairs, *(a.tolist() for a in angles)):
            _bind(bindings, f"gen/{lad.address}/{side}", *row)


def _bind_generator(skel, gen_pool, masked, alpha_bar, bindings):
    """Bind the generator adaptors and the masked PREP; checks mask and budget."""
    n = skel.n_system
    if gen_pool.ell > skel.ell_gen:
        raise BindError(
            "generator pool exceeds compiled size",
            addresses=[lad.address for lad in gen_pool.ladders[skel.ell_gen:]],
        )
    addresses = {lad.address for lad in gen_pool.ladders}
    if sorted(addresses) != list(range(1, gen_pool.ell + 1)):
        raise BindError("generator addresses must be contiguous from 1")
    if not masked <= addresses:
        raise MaskError(
            "mask addresses missing from generator pool "
            f"(addresses: {sorted(masked - addresses)})"
        )
    alpha_bar = gen_pool.alpha_bar if alpha_bar is None else float(alpha_bar)
    adaptors_gen = {ad.address: ad for ad in skel.adaptors_gen}
    gen_by_addr = gen_pool.by_address()
    omega_gen, pairs = [], []
    used = 0.0
    for addr in sorted(gen_by_addr):
        lad = gen_by_addr[addr]
        ad = adaptors_gen.get(addr)
        if ad is None:
            raise BindError("address missing from skeleton", addresses=[addr])
        expected = "pair" if lad.kind == "pair" else "bilinear_asym"
        if ad.kind != expected:
            raise BindError("adaptor kind mismatch", addresses=[addr])
        if lad.kind == "pair":
            pairs.append((lad, ad))
        else:
            w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
            amps, signs, _ = oracle.signed_loading(w_vals)
            for j in range(len(w_vals)):  # a missing second mode idles at zero
                pivot = _mode_pivot(ad, j)
                sched = ladders.one_electron_angles(w_vecs[:, j], pivot=pivot, n=n)
                _bind_schedule(bindings, sched, f"gen/{addr}/mode{j}")
                bindings[f"gen/{addr}/subprep/{j}"] = float(amps[j])
                bindings[f"gen/{addr}/submode/{j}/sign_phi"] = (
                    np.pi if signs[j] < 0 else 0.0
                )
        omega_gen.append(lad.coefficient)
        bindings[f"gen/{addr}/sign_phi"] = np.pi if lad.coefficient < 0 else 0.0
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        if addr in masked:
            bindings[f"prep/gen/{addr}"] = float(np.sqrt(weight / alpha_bar))
            used += weight
        else:
            bindings[f"prep/gen/{addr}"] = 0.0
    if pairs:
        _bind_pairs(skel, pairs, bindings)
    if used > alpha_bar * (1 + 1e-12):
        raise BindError("masked weight exceeds the global normalization")
    bindings["prep/gen/0"] = float(np.sqrt(max(1.0 - used / alpha_bar, 0.0)))
    return {"omega": [float(x) for x in omega_gen], "alpha_bar": float(alpha_bar)}


# ---------------------------------------------------------------------------
# execution: the layer stream, interpreted with the dial sheet's values
# ---------------------------------------------------------------------------


def schedule_from_bindings(values, prefix, n, pivot, targets):
    """Schedule read back from :func:`_bind`'s slots; ``targets`` include the pivot.

    ``values`` is the :func:`sheet_bindings` map.
    """
    sector, skip = ("one", pivot[0]) if len(pivot) == 1 else ("two", tuple(pivot))
    ordering = tuple(t for t in targets if t != skip)
    thetas = np.array([values[f"{prefix}/rot/{k}/theta"] for k in range(len(ordering))])
    phs = np.array([values[f"{prefix}/rot/{k}/phi"] for k in range(len(ordering))])
    pivot_phi = values[f"{prefix}/pivot_phi"]
    return ladders.LadderSchedule(
        sector, n, tuple(pivot), ordering, thetas, phs, pivot_phi
    )


class _Interpreter:
    """One adaptor's layer lines (grammar in the module docstring), run once.

    A frame's factors are ``(node, width, adjoint)`` in application order;
    ``width`` counts workspace qubits up from the system register, whose
    neighbour is local qubit ``-1``.
    """

    def __init__(self, skel, values, lines):
        self.n = skel.n_system
        self.sys0 = skel.selector_width + skel.workspace_width
        self.values = values  # slot name -> value
        self.lines = [line.split("|") for line in lines]
        self.pos = 0
        self.last = None  # the most recently closed block, as applied

    def frame(self):
        """Factors and phase of the lines up to the next closer, and that closer."""
        factors, run, phase = [], [], 1.0
        while self.pos < len(self.lines):
            gate, qubits, slot = self.lines[self.pos]
            self.pos += 1
            qs = [int(q) - self.sys0 for q in qubits.split(",")] if qubits else []
            if qs and min(qs) >= 0:
                run.append(self._system_gate(gate, qubits, tuple(qs), slot))
                continue
            if run:
                factors.append((self._leaf(run), 0, False))
                run = []
            if gate in ("end", "dagger", "case"):
                return factors, phase, (gate, slot)
            if gate == "gphase":
                phase *= np.exp(1j * self.values[slot])
            elif gate in ("gphase+i", "gphase-i"):
                phase *= 1j if gate == "gphase+i" else -1j
            elif gate == "begin":
                body, body_phase, closer = self.frame()
                self._expect(closer and closer[0] != "case" and body_phase == 1.0,
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

    def _system_gate(self, gate, qubits, qs, slot):
        """One system line as a :func:`ladders.apply_gates` gate.

        ``pgivens`` reads its ``pgivens_phase`` line here, so a phase line
        met anywhere else is stray.
        """
        self._expect(gate != "pgivens_phase", "pgivens before its phase")
        if gate not in SYSTEM_GATES:
            raise ValidationError(f"unknown system gate {gate!r}")
        arity = SYSTEM_GATES[gate]
        self._expect(len(qs) == arity, f"{gate} on {arity} modes")
        if gate == "givens":
            return ("rot", qs, self.values[slot], 0.0)
        if gate == "pgivens":
            phase_line = self.lines[self.pos] if self.pos < len(self.lines) else []
            self._expect(phase_line[:2] == ["pgivens_phase", qubits],
                         "pgivens, its phase")
            self.pos += 1
            return ("rot", qs, self.values[slot], self.values[phase_line[2]])
        if gate == "x":
            return ("x", qs)
        return ("phase", qs, self.values[slot])

    def _leaf(self, run):
        """Dense product of a run of system gates, applied in order to the identity."""
        return ladders.apply_gates(np.eye(2**self.n, dtype=complex), self.n, run)

    def _idiom(self, gate, qs):
        """Flag copy ``cx x``, vacuum reflection ``h mcz h``, or the null flip ``x``."""
        n, flag = self.n, [str(self.sys0 - 1), ""]
        rest = self.lines[self.pos:self.pos + 2]
        system = ",".join(str(self.sys0 + p) for p in range(n))
        if gate == "x" and qs == [-1]:
            return oracle.null_branch(n)
        if gate == "cx" and qs[1:] == [-1] and qs[0] >= 0:
            self._expect(rest[:1] == [["x", *flag]], "cx, then x on its flag")
            self.pos += 1
            return oracle._flag_copy(qs[0], n)
        if gate == "h" and qs == [-1] and rest == [["mcz", system, ""], ["h", *flag]]:
            self.pos += 2
            return oracle.vacuum_reflection_gadget(n)
        raise ValidationError(f"no gadget for {gate!r} on local qubits {qs}")

    def _sub_select(self, register):
        """PREP-SELECT-PREP over ``register``; an idle all-zero PREP loads case 0."""
        body, _, closer = self.frame()
        self._expect(not body and closer and closer[0] == "case", "select opens a case")
        cases = []
        while closer and closer[0] == "case":
            slot = closer[1]
            body, phase, closer = self.frame()
            cases.append((slot, *_combine(body), phase))
        slots, ops, widths, phases = zip(*cases)
        width = max(widths)
        self._expect(closer and closer[0] == "end", "select closed by end")
        self._expect(register == list(range(-width - len(register), -width)),
                     "the select register right above its cases")
        amps = np.zeros(2 ** len(register))
        amps[: len(ops)] = (
            [self.values[s] for s in slots] if all(slots) else 1 / np.sqrt(len(ops))
        )
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


def _branch(skel, values, ad):
    """Gadget node of one adaptor's lines, and its branch phase (the sign)."""
    factors, phase, closer = _Interpreter(skel, values, ad.layers).frame()
    if closer is not None:
        raise ValidationError(f"adaptor {ad.address}: unmatched {closer[0]!r}")
    return _combine(factors)[0], phase


def generator_workspace_width(skel):
    """Widest workspace any generator branch actually touches.

    The shared register is sized by the Hamiltonian channels; generator
    execution lifts only to its own branch width (the idle ancillas do
    not affect the encoded block and would inflate the assembled register).
    """
    branches = [ad for ad in skel.adaptors_gen if ad.kind != "null"]
    return plan_workspace_width((), branches)


def hamiltonian_ancillas(skel):
    """Selector plus workspace qubits the Hamiltonian encoding is assembled on."""
    return skel.selector_width + skel.workspace_width


def generator_ancillas(skel):
    """Selector plus workspace qubits the generator encoding is assembled on."""
    return skel.selector_width + generator_workspace_width(skel)


def execute_generator_encoding(skel, sheet):
    """Sparse (CSR) masked generator encoding, run from the skeleton's lines.

    The result certifies the fabric and the dial data, not the pools.
    """
    oracle.check_assembly_width(generator_ancillas(skel) + skel.n_system)
    return _select(skel, sheet, "gen").tocsr()


def execute_generator_block(skel, sheet):
    """Dense block of :func:`execute_generator_encoding`, run on columns."""
    oracle.check_column_batch(generator_ancillas(skel), skel.n_system, "generator")
    return oracle.column_block(_select(skel, sheet, "gen"), skel.n_system)


def execute_hamiltonian_encoding(skel, sheet):
    """Sparse (CSR) Hamiltonian encoding, run from the skeleton's lines."""
    oracle.check_assembly_width(hamiltonian_ancillas(skel) + skel.n_system)
    return _select(skel, sheet, "ham").tocsr()


def execute_hamiltonian_block(skel, sheet):
    """Dense block of :func:`execute_hamiltonian_encoding`, run on columns."""
    oracle.check_column_batch(hamiltonian_ancillas(skel), skel.n_system, "Hamiltonian")
    return oracle.column_block(_select(skel, sheet, "ham"), skel.n_system)


def _select(skel, sheet, side):
    """PREP-SELECT-PREP node over one side's branches; checks the PREP norm."""
    values = sheet_bindings(skel, sheet)
    adaptors = skel.adaptors_gen if side == "gen" else skel.adaptors_ham
    amps = np.zeros(2**skel.selector_width)
    for ad in adaptors:
        amps[ad.address] = values[f"prep/{side}/{ad.address}"]
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        name = "generator" if side == "gen" else "hamiltonian"
        raise BindError(f"{name} prep amplitudes have norm {norm!r}")
    ops, phases = zip(*(
        _branch(skel, values, ad) for ad in sorted(adaptors, key=lambda a: a.address)
    ))
    width = generator_workspace_width(skel) if side == "gen" else skel.workspace_width
    return oracle._prep_select_prep(amps, ops, phases, skel.n_system, width)


def execute_adaptor(skel, sheet, address):
    """Sparse (CSR) branch unitary of one adaptor, run from its layer lines.

    ``address`` is the adaptor's slot prefix, ``"ham/<a>"`` or
    ``"gen/<a>"``.  The branch is the one the multiplexed encoding selects
    (the same lines), on its own workspace plus the system register and
    without its sign line's phase, so its block is the adaptor's
    normalized ladder term.
    """
    side = address.partition("/")[0]
    adaptors = dict(skel.sides()).get(side, ())
    ad = next((a for a in adaptors if f"{side}/{a.address}" == address), None)
    if ad is None:
        raise BindError(f"no adaptor at {address!r} in the skeleton")
    # the null flip is the one-qubit floor of plan_workspace_width
    own = () if ad.kind == "null" else (ad,)
    lists = (own, ()) if side == "ham" else ((), own)
    oracle.check_assembly_width(plan_workspace_width(*lists) + skel.n_system)
    return oracle._csr(_branch(skel, sheet_bindings(skel, sheet), ad)[0])


def sheet_bindings(skel, sheet):
    """Slot name -> value map of a dial sheet, the one place names meet values.

    The sheet must carry the skeleton's fingerprint and one value per slot;
    ``values[i]`` binds ``skel.slot_names[i]``.
    """
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")
    if len(sheet.values) != len(skel.slot_names):
        raise BindError(
            f"dial sheet holds {len(sheet.values)} values for the skeleton's "
            f"{len(skel.slot_names)} slots"
        )
    return dict(zip(skel.slot_names, sheet.values))
