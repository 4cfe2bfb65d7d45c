"""Compile-once circuit IR: frozen two-qubit fabric plus re-dialable angles.

The skeleton records the selector tree, the adaptor bank's gate layers
with structural slot identifiers, and the signal-processing scaffold.
Each layer is one canonical line ``gate|q0,q1,...|slot`` (empty slot
field for a fixed gate); the lines are held in memory, stored in the
JSON document and hashed by the fingerprint in that one form, and the
slot fields are the skeleton's only list of parameter slots.  The
fingerprint hashes the register widths, gate kinds, ordered qubit
tuples, layer order, slot identifiers, and each adaptor's pivots and
rank, never angle values.  A dial sheet binds every parameter slot for
one instance (pools, mask, coefficient set) and is the only thing that
changes between instances.

An adaptor's lines, in application order, are its whole branch
(``composer-skel-v5``), and execution interprets them: each run of
system gates (``givens``, ``pgivens`` then its ``pgivens_phase``, ``rz``,
``cphase``, ``x``) becomes one sparse leaf; on the workspace, ``cx x``
is the flag copy, ``h mcz h`` the vacuum reflection, a lone ``x`` the
null flip.  ``gphase`` multiplies its branch or case by a dialed phase
(``.../sign_phi``: 0 or pi), ``gphase+i`` / ``gphase-i`` by a fixed one.
``begin`` opens a block that ``end`` applies as listed or ``dagger`` as
its adjoint; ``mirror`` applies the adjoint of the last closed block as
applied, so a mirrored half is one line.  ``select|r|`` opens a
sub-select over register ``r`` whose ``case`` lines (slot: the PREP
amplitude; none: equal fixed amplitudes) each start a branch, up to
``end``.  ``square|s|`` makes everything before it ``W R0 W`` on signal
``s``, whose block is the square.  Execution first checks the
fingerprint and that the dial sheet binds exactly the skeleton's slots;
``execute_*_encoding`` assemble the gadget tree (:mod:`oracle`) as a
sparse unitary, ``execute_*_block`` run it on the ``2**n`` ancilla-zero
columns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from . import jw, ladders, oracle
from .errors import BindError, CapacityError, MaskError, ParseError, ValidationError
from .errors import DICT, INT, LIST, NUMBER, STR, checked, checked_list
from .factorization import bilinear_asym_spectrum, generator_branch_alpha

SKEL_FORMAT = "composer-skel-v5"
DIAL_FORMAT = "composer-dial-v1"

# gates whose slot binds a phase; every other slot binds an angle or amplitude
PHASE_GATES = frozenset({"rz", "cphase", "pgivens_phase", "gphase"})


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
    """Fixed pivot assignments covering every adaptor of both pools."""

    ham: tuple
    gen: tuple


def pivots_from_pools(ham_pool, gen_pool):
    """Canonical pivot plan: argmax amplitudes, frozen at compile time.

    Either pool may be ``None``; the plan then covers the other alone.
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
                pairs = ladders.pair_indices(n)
                pivot = tuple(
                    pairs[int(np.argmax(np.abs(vec)))]
                    for vec in lad.embedded_pair_vectors(gen_pool.n_occ, n)
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
    return CompilePlan(ham=tuple(ham), gen=tuple(gen))


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
    selector_width: int
    workspace_width: int
    qsp_degree: int
    adaptors_ham: tuple
    adaptors_gen: tuple
    prep_slots_ham: tuple
    prep_slots_gen: tuple
    connectivity: str
    fingerprint: str

    @property
    def ell_ham(self):
        return len(self.adaptors_ham)

    @property
    def ell_gen(self):
        # address 0 is the reserved null branch
        return len(self.adaptors_gen) - 1

    def slot_kinds(self):
        """``(angle slots, phase slots)``: each slot classed by its line's gate."""
        angles, phases = list(self.prep_slots_ham + self.prep_slots_gen), []
        for ad in self.adaptors_ham + self.adaptors_gen:
            for line in ad.layers:
                gate, _, slot = line.split("|")
                if slot:
                    (phases if gate in PHASE_GATES else angles).append(slot)
        return frozenset(angles), frozenset(phases)

    def to_json(self):
        doc = {
            "format": SKEL_FORMAT,
            "n_system": self.n_system,
            "selector_width": self.selector_width,
            "workspace_width": self.workspace_width,
            "qsp_degree": self.qsp_degree,
            "connectivity": self.connectivity,
            "adaptors_ham": [_adaptor_doc(a) for a in self.adaptors_ham],
            "adaptors_gen": [_adaptor_doc(a) for a in self.adaptors_gen],
            "prep_slots_ham": list(self.prep_slots_ham),
            "prep_slots_gen": list(self.prep_slots_gen),
            "fingerprint": self.fingerprint,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        doc = checked(json.loads(text), DICT, "skeleton")
        if doc.get("format") != SKEL_FORMAT:
            raise ParseError(f"expected format {SKEL_FORMAT!r}")
        for key in ("n_system", "selector_width", "workspace_width", "qsp_degree"):
            checked(doc[key], INT, key)
        for key in ("adaptors_ham", "adaptors_gen"):
            checked_list(doc[key], DICT, key)
        for key in ("prep_slots_ham", "prep_slots_gen"):
            checked_list(doc[key], STR, key)
        skel = CircuitSkeleton(
            n_system=doc["n_system"],
            selector_width=doc["selector_width"],
            workspace_width=doc["workspace_width"],
            qsp_degree=doc["qsp_degree"],
            adaptors_ham=tuple(_adaptor_load(a) for a in doc["adaptors_ham"]),
            adaptors_gen=tuple(_adaptor_load(a) for a in doc["adaptors_gen"]),
            prep_slots_ham=tuple(doc["prep_slots_ham"]),
            prep_slots_gen=tuple(doc["prep_slots_gen"]),
            connectivity=checked(doc.get("connectivity", "full"), STR, "connectivity"),
            fingerprint=checked(doc["fingerprint"], STR, "fingerprint"),
        )
        if fabric_fingerprint(skel) != skel.fingerprint:
            raise ValidationError("skeleton fingerprint does not match its layers")
        return skel


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
    """Per-instance bindings for every skeleton parameter slot."""

    skeleton_fingerprint: str
    mask_id: str
    mask_indices: tuple
    angle_bindings: dict
    phase_bindings: dict
    classical_coeffs: dict

    def to_json(self):
        doc = {
            "format": DIAL_FORMAT,
            "skeleton_fingerprint": self.skeleton_fingerprint,
            "mask_id": self.mask_id,
            "mask_indices": list(self.mask_indices),
            "angle_bindings": self.angle_bindings,
            "phase_bindings": self.phase_bindings,
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
        for key in ("angle_bindings", "phase_bindings"):
            bindings = checked(doc[key], DICT, key)
            checked_list(list(bindings.values()), NUMBER, key)
        coeffs = checked(doc["classical_coeffs"], DICT, "classical_coeffs")
        for key in ("Omega", "omega"):
            if key in coeffs:
                checked_list(coeffs[key], NUMBER, f"classical_coeffs {key}")
        for key, kinds in (("alpha", NUMBER), ("alpha_bar", NUMBER), ("n_occ", INT)):
            if key in coeffs:
                checked(coeffs[key], kinds, f"classical_coeffs {key}")
        return DialSheet(
            skeleton_fingerprint=doc["skeleton_fingerprint"],
            mask_id=doc["mask_id"],
            mask_indices=tuple(doc["mask_indices"]),
            angle_bindings=doc["angle_bindings"],
            phase_bindings=doc["phase_bindings"],
            classical_coeffs=doc["classical_coeffs"],
        )


# ---------------------------------------------------------------------------
# compile stage
# ---------------------------------------------------------------------------


def plan_workspace_width(plan):
    """Widest workspace any branch of the plan touches (the null flip is one)."""
    widths = [1]
    for ad in plan.ham:
        if ad.kind == "one_body_mode":
            widths.append(1 if ad.rank <= 1 else 2)
        elif ad.kind == "channel":
            # index register, flag, squaring signal qubit
            widths.append(oracle.index_width(ad.rank) + 2)
        else:
            raise ValidationError(f"unknown hamiltonian adaptor kind {ad.kind!r}")
    for ad in plan.gen:
        if ad.kind not in ("pair", "bilinear_asym"):
            raise ValidationError(f"unknown generator adaptor kind {ad.kind!r}")
        widths.append(2)  # sub-selector and flag
    return max(widths)


def compile_skeleton(ham_pool_size, gen_pool_size, n, pivots, connectivity="full",
                     qsp_degree=0):
    """Emit the reusable fabric for the given pool sizes and pivot plan.

    Selector width covers ``max(ell_H, ell_sigma + 1)`` (the +1 is the
    reserved null branch at address 0); every rotation receives a unique
    structural slot identifier; the fingerprint digests the canonical
    layer stream.  One pool may have no ladders, for a skeleton that
    encodes the other alone.
    """
    if min(ham_pool_size, gen_pool_size) < 0 or ham_pool_size + gen_pool_size == 0:
        raise ValidationError("pool sizes must be nonnegative and not both zero")
    if len(pivots.ham) != ham_pool_size or len(pivots.gen) != gen_pool_size:
        raise CapacityError("pivot plan does not cover every adaptor")
    width = max(
        int(np.ceil(np.log2(max(ham_pool_size, gen_pool_size + 1)))), 1
    )
    t = plan_workspace_width(pivots)
    sys0 = width + t  # global index of system qubit 0
    ws0 = width

    def sysq(p):
        return sys0 + p

    emit = {"one_body_mode": _compile_one_body, "channel": _compile_channel,
            "pair": _compile_pair, "bilinear_asym": _compile_bilinear_asym}
    adaptors_ham = [emit[ad.kind](ad, n, sysq, ws0, t) for ad in pivots.ham]
    adaptors_gen = [AdaptorSpec(0, "null", (), 0, (_layer("x", (ws0 + t - 1,)),))]
    adaptors_gen += [emit[ad.kind](ad, n, sysq, ws0, t) for ad in pivots.gen]
    prep_ham = tuple(f"prep/ham/{s}" for s in range(ham_pool_size))
    prep_gen = tuple(f"prep/gen/{s}" for s in range(gen_pool_size + 1))
    skel = CircuitSkeleton(
        n_system=n,
        selector_width=width,
        workspace_width=t,
        qsp_degree=int(qsp_degree),
        adaptors_ham=tuple(adaptors_ham),
        adaptors_gen=tuple(adaptors_gen),
        prep_slots_ham=prep_ham,
        prep_slots_gen=prep_gen,
        connectivity=str(connectivity),
        fingerprint="",
    )
    return replace(skel, fingerprint=fabric_fingerprint(skel))


def one_pool_skeleton(ham_pool, gen_pool):
    """Skeleton compiled for one pool alone; the other is passed as ``None``."""
    plan = pivots_from_pools(ham_pool, gen_pool)
    n = (gen_pool if ham_pool is None else ham_pool).n_so
    return compile_skeleton(len(plan.ham), len(plan.gen), n, plan)


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


def _pair_ladder_layers(prefix, n, pivot_pair, sysq):
    """Prep-form pair ladder: ``x`` on its own pivot pair, then the rotations."""
    r, s = pivot_pair
    layers = [_layer("x", (sysq(r),)), _layer("x", (sysq(s),))]
    ordering = (pq for pq in ladders.pair_indices(n) if pq != (r, s))
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


def _compile_pair(ad, n, sysq, ws0, t):
    """``i(L - L^dag)``: the arm ``W_L = U_u R_vac U_v^dag``, then its mirror."""
    prefix, anc = f"gen/{ad.address}", ws0 + t - 1
    u, v = (_pair_ladder_layers(f"{prefix}/{x}", n, p, sysq)
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
    """SHA-256 digest of the register widths and the canonical layer stream.

    Structure only: each adaptor's address, kind, pivots and rank, then
    its layer lines as stored, one per text line, so qubit tuples enter
    in gate order (control before target); angle values never do.
    """
    h = hashlib.sha256()
    h.update(
        f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
        .encode()
    )
    for ad in skel.adaptors_ham + skel.adaptors_gen:
        pivot = json.dumps(_pivot_doc(ad.pivot))
        h.update(f"adaptor:{ad.address}:{ad.kind}:{pivot}:{ad.rank}\n".encode())
        h.update("".join(line + "\n" for line in ad.layers).encode())
    for slot in skel.prep_slots_ham + skel.prep_slots_gen:
        h.update(f"prep|{slot}\n".encode())
    for k in range(skel.qsp_degree):
        h.update(f"qsp_rep|{k}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dial stage
# ---------------------------------------------------------------------------


def _bind(angles, phases, sched, prefix):
    for k, theta in enumerate(sched.thetas):
        angles[f"{prefix}/rot/{k}/theta"] = float(theta)
    for k, phi in enumerate(sched.phases):
        phases[f"{prefix}/rot/{k}/phi"] = float(phi)
    phases[f"{prefix}/pivot_phi"] = float(sched.pivot_phase)


def dial(skel, ham_pool, gen_pool, mask, alpha=None, alpha_bar=None, mask_id=None):
    """Bind every parameter slot for one instance; the skeleton is untouched.

    Pools may be smaller than the compiled sizes; surplus amplitude routes
    to the null branch (generator) or zero-weight branches (Hamiltonian).
    A pool is ``None`` exactly when the skeleton compiled no ladders for it.
    """
    if (ham_pool is None, gen_pool is None) != (skel.ell_ham == 0, skel.ell_gen == 0):
        raise BindError("pools must match the sides the skeleton compiled")
    if any(p is not None and p.n_so != skel.n_system for p in (ham_pool, gen_pool)):
        raise BindError("pool register size differs from the compiled system")
    masked = frozenset(mask.indices if isinstance(mask, Mask) else mask)
    if gen_pool is None and masked:
        raise MaskError("nonzero mask over a skeleton without a generator pool")
    angles, phases, coeffs = {}, {}, {}
    if ham_pool is not None:
        coeffs.update(_bind_hamiltonian(skel, ham_pool, alpha, angles, phases))
    if gen_pool is not None:
        coeffs.update(
            _bind_generator(skel, gen_pool, masked, alpha_bar, angles, phases)
        )
    missing, unknown = _slot_mismatch(skel, angles, phases)
    if unknown:
        raise BindError("bindings address unknown slots", addresses=unknown)
    for bindings, idle in zip((angles, phases), missing):
        # surplus compiled adaptors idle at zero so every slot is bound
        bindings.update(dict.fromkeys(idle, 0.0))

    label = mask.label if isinstance(mask, Mask) else (mask_id or "mask")
    return DialSheet(
        skeleton_fingerprint=skel.fingerprint,
        mask_id=label,
        mask_indices=tuple(sorted(masked)),
        angle_bindings=angles,
        phase_bindings=phases,
        classical_coeffs=coeffs,
    )


def _bind_hamiltonian(skel, ham_pool, alpha, angles, phases):
    """Bind the Hamiltonian adaptors and PREP; returns the classical coefficients."""
    n = skel.n_system
    if ham_pool.ell > skel.ell_ham:
        raise BindError(
            "hamiltonian pool exceeds compiled size",
            addresses=[lad.address for lad in ham_pool.ladders[skel.ell_ham:]],
        )
    if sorted(lad.address for lad in ham_pool.ladders) != list(range(ham_pool.ell)):
        raise BindError("hamiltonian addresses must be contiguous from 0")
    alpha = ham_pool.alpha if alpha is None else float(alpha)
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
                _bind(angles, phases, sched, f"ham/{addr}/mode{j}")
                if lad.multiplicity > 1:
                    angles[f"ham/{addr}/subprep/{j}"] = float(1 / np.sqrt(ad.rank))
            weight = abs(lad.coefficient) * lad.multiplicity
        else:
            ch = lad.channel
            if ch.rank > ad.rank:
                raise BindError(
                    "channel rank exceeds compiled rank", addresses=[addr]
                )
            net = ladders.rotation_network_from_matrix(ch.rotation_full)
            for k, (_, _, theta) in enumerate(net.rotations):
                angles[f"ham/{addr}/net/{k}/theta"] = float(theta)
            for p in range(n):
                phases[f"ham/{addr}/net/phase/{p}"] = float(net.phases[p])
            amps, signs, _ = oracle.signed_loading(ch.eigvals)
            for xi in range(ch.rank):  # surplus compiled eigenmodes idle at zero
                angles[f"ham/{addr}/prep/{xi}"] = float(amps[xi])
                phases[f"ham/{addr}/select/{xi}/sign_phi"] = (
                    np.pi if signs[xi] < 0 else 0.0
                )
            weight = abs(lad.coefficient) * ch.gamma**2
        omega_list.append(lad.coefficient)
        phases[f"ham/{addr}/sign_phi"] = np.pi if lad.coefficient < 0 else 0.0
        angles[f"prep/ham/{addr}"] = float(np.sqrt(weight / alpha))
    return {"Omega": [float(x) for x in omega_list], "alpha": float(alpha)}


def _bind_generator(skel, gen_pool, masked, alpha_bar, angles, phases):
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
    omega_gen = []
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
            uv, vo = lad.embedded_pair_vectors(gen_pool.n_occ, n)
            su = ladders.two_electron_angles(uv, pivot_pair=ad.pivot[0], n=n)
            sv = ladders.two_electron_angles(vo, pivot_pair=ad.pivot[1], n=n)
            _bind(angles, phases, su, f"gen/{addr}/u")
            _bind(angles, phases, sv, f"gen/{addr}/v")
        else:
            w_vals, w_vecs = bilinear_asym_spectrum(lad.u, lad.v)
            amps, signs, _ = oracle.signed_loading(w_vals)
            for j in range(len(w_vals)):  # a missing second mode idles at zero
                pivot = _mode_pivot(ad, j)
                sched = ladders.one_electron_angles(w_vecs[:, j], pivot=pivot, n=n)
                _bind(angles, phases, sched, f"gen/{addr}/mode{j}")
                angles[f"gen/{addr}/subprep/{j}"] = float(amps[j])
                phases[f"gen/{addr}/submode/{j}/sign_phi"] = (
                    np.pi if signs[j] < 0 else 0.0
                )
        omega_gen.append(lad.coefficient)
        phases[f"gen/{addr}/sign_phi"] = np.pi if lad.coefficient < 0 else 0.0
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        if addr in masked:
            angles[f"prep/gen/{addr}"] = float(np.sqrt(weight / alpha_bar))
            used += weight
        else:
            angles[f"prep/gen/{addr}"] = 0.0
    if used > alpha_bar * (1 + 1e-12):
        raise BindError("masked weight exceeds the global normalization")
    angles["prep/gen/0"] = float(np.sqrt(max(1.0 - used / alpha_bar, 0.0)))
    return {
        "omega": [float(x) for x in omega_gen],
        "alpha_bar": float(alpha_bar),
        "n_occ": int(gen_pool.n_occ),
    }


# ---------------------------------------------------------------------------
# execution: the layer stream, interpreted with the dial sheet's values
# ---------------------------------------------------------------------------


def schedule_from_bindings(sheet, prefix, sector, n, pivot):
    """Ladder schedule read back from the slots :func:`_bind` filled."""
    if sector == "one":
        ordering = tuple(p for p in range(n) if p != pivot[0])
    else:
        ordering = tuple(
            pq for pq in ladders.pair_indices(n) if pq != tuple(pivot)
        )
    thetas = np.array(
        [sheet.angle_bindings[f"{prefix}/rot/{k}/theta"] for k in range(len(ordering))]
    )
    phs = np.array(
        [sheet.phase_bindings[f"{prefix}/rot/{k}/phi"] for k in range(len(ordering))]
    )
    pivot_phi = sheet.phase_bindings[f"{prefix}/pivot_phi"]
    return ladders.LadderSchedule(
        sector, n, tuple(pivot), ordering, thetas, phs, pivot_phi
    )


class _Interpreter:
    """One adaptor's layer lines (grammar in the module docstring), run once.

    A frame's factors are ``(node, width, adjoint)`` in application order;
    ``width`` counts workspace qubits up from the system register, whose
    neighbour is local qubit ``-1``.
    """

    def __init__(self, skel, sheet, lines):
        self.n = skel.n_system
        self.sys0 = skel.selector_width + skel.workspace_width
        self.angles, self.phases = sheet.angle_bindings, sheet.phase_bindings
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
                run.append((gate, qs, slot))
                continue
            if run:
                factors.append((self._leaf(run), 0, False))
                run = []
            if gate in ("end", "dagger", "case"):
                return factors, phase, (gate, slot)
            if gate == "gphase":
                phase *= np.exp(1j * self.phases[slot])
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

    def _leaf(self, run):
        """Product of a run of system gates; consecutive ``rz`` form one phase layer."""
        n, gates, rz = self.n, [], None
        # a closing sentinel flushes a trailing phase layer
        for k, (gate, qs, slot) in enumerate(run + [("", [], "")]):
            if gate == "rz":
                rz = np.zeros(n) if rz is None else rz
                rz[qs[0]] += self.phases[slot]
                continue
            if rz is not None and rz.any():
                gates.append(_diag(jw.phase_layer(n, rz)))
            rz = None
            if gate == "givens":
                gates.append(ladders.givens_gate(n, *qs, self.angles[slot]))
            elif gate == "pgivens":  # its phase is the next line's slot
                nxt = run[k + 1] if k + 1 < len(run) else ("",)
                self._expect(nxt[:2] == ("pgivens_phase", qs), "pgivens, its phase")
                theta, phi = self.angles[slot], self.phases[nxt[2]]
                gates.append(ladders.pair_givens_gate(n, *qs, theta, phi))
            elif gate == "cphase" and self.phases[slot] != 0.0:
                gates.append(_diag(jw.pair_phase_diagonal(n, *qs, self.phases[slot])))
            elif gate == "x":
                gates.append(jw.pauli_x(n, qs[0]))
            elif gate not in ("cphase", "pgivens_phase", ""):
                raise ValidationError(f"unknown system gate {gate!r}")
        leaf = gates[0] if gates else _diag(np.ones(2**n, dtype=complex))
        for gate in gates[1:]:
            leaf = gate @ leaf
        return leaf

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
            [self.angles[s] for s in slots] if all(slots) else 1 / np.sqrt(len(ops))
        )
        if np.linalg.norm(amps) < 1e-12:
            amps[0] = 1.0
        node = oracle._prep_select_prep(amps, ops, phases, self.n, width)
        return node, width + len(register), False

    def _expect(self, ok, what):
        if not ok:
            raise ValidationError(f"layer stream near line {self.pos}: expected {what}")


def _diag(entries):
    return sparse.diags(entries, format="csr")


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


def _branch(skel, sheet, ad):
    """Gadget node of one adaptor's lines, and its branch phase (the sign)."""
    factors, phase, closer = _Interpreter(skel, sheet, ad.layers).frame()
    if closer is not None:
        raise ValidationError(f"adaptor {ad.address}: unmatched {closer[0]!r}")
    return _combine(factors)[0], phase


def generator_workspace_width(skel):
    """Widest workspace any generator branch actually touches.

    The shared register is sized by the Hamiltonian channels; generator
    execution lifts only to its own branch width (the idle ancillas do
    not affect the encoded block and would inflate the assembled register).
    """
    branches = tuple(ad for ad in skel.adaptors_gen if ad.kind != "null")
    return plan_workspace_width(CompilePlan(ham=(), gen=branches))


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
    _check_sheet(skel, sheet)
    adaptors = skel.adaptors_gen if side == "gen" else skel.adaptors_ham
    amps = np.zeros(2**skel.selector_width)
    for ad in adaptors:
        amps[ad.address] = sheet.angle_bindings[f"prep/{side}/{ad.address}"]
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        name = "generator" if side == "gen" else "hamiltonian"
        raise BindError(f"{name} prep amplitudes have norm {norm!r}")
    ops, phases = zip(*(
        _branch(skel, sheet, ad) for ad in sorted(adaptors, key=lambda a: a.address)
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
    adaptors = {"ham": skel.adaptors_ham, "gen": skel.adaptors_gen}.get(side, ())
    ad = next((a for a in adaptors if f"{side}/{a.address}" == address), None)
    if ad is None:
        raise BindError(f"no adaptor at {address!r} in the skeleton")
    if side == "ham":
        plan = CompilePlan(ham=(ad,), gen=())
    else:  # the null flip is the one-qubit floor of plan_workspace_width
        plan = CompilePlan(ham=(), gen=() if ad.kind == "null" else (ad,))
    oracle.check_assembly_width(plan_workspace_width(plan) + skel.n_system)
    _check_sheet(skel, sheet)
    return _branch(skel, sheet, ad)[0].tocsr()


def _check_sheet(skel, sheet):
    """The sheet is bound to this skeleton and binds exactly its slots."""
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")
    missing, unknown = _slot_mismatch(skel, sheet.angle_bindings, sheet.phase_bindings)
    if unknown or any(missing):
        raise BindError(
            "dial sheet must bind exactly the skeleton's slots "
            f"(missing: {sorted(set().union(*missing))}; unknown: {unknown})"
        )


def _slot_mismatch(skel, angles, phases):
    """Angle and phase slots left unbound, and the bound names no such slot has."""
    missing, unknown = [], []
    for kind, bindings in zip(skel.slot_kinds(), (angles, phases)):
        missing.append(kind.difference(bindings))
        if len(bindings) > len(kind) - len(missing[-1]):
            unknown += bindings.keys() - kind
    return missing, sorted(unknown)
