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

Layer lists describe the forward body of each gadget; the mirrored
uncompute halves reuse the same slots by construction, so they are
implied by the gadget template rather than listed twice.

Execution rebuilds each encoding from a dial sheet as one gadget tree
(:mod:`oracle`): ``execute_*_encoding`` assemble it as a sparse unitary,
``execute_*_block`` run it on the ``2**n`` ancilla-zero columns and
return only the dense encoded block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import ladders, oracle
from .errors import BindError, CapacityError, MaskError, ParseError, ValidationError
from .errors import DICT, INT, LIST, NUMBER, STR, checked, checked_list
from .factorization import bilinear_asym_spectrum, generator_branch_alpha

SKEL_FORMAT = "composer-skel-v4"
DIAL_FORMAT = "composer-dial-v1"


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

    def all_slots(self):
        out = []
        for ad in self.adaptors_ham + self.adaptors_gen:
            for line in ad.layers:
                slot = line.rpartition("|")[2]
                if slot:
                    out.append(slot)
        out.extend(self.prep_slots_ham)
        out.extend(self.prep_slots_gen)
        return tuple(out)

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

    adaptors_ham = []
    for ad in pivots.ham:
        if ad.kind == "one_body_mode":
            adaptors_ham.append(_compile_one_body(ad, n, sysq, ws0, t))
        else:
            adaptors_ham.append(_compile_channel(ad, n, sysq, ws0, t))
    adaptors_gen = [_compile_null(ws0 + t - 1)]
    for ad in pivots.gen:
        if ad.kind == "pair":
            adaptors_gen.append(_compile_pair(ad, n, sysq, ws0, t))
        else:
            adaptors_gen.append(_compile_bilinear_asym(ad, n, sysq, ws0, t))
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
    ordering = tuple(
        pq for pq in ladders.pair_indices(n) if pq != tuple(pivot_pair)
    )
    r, s = pivot_pair
    layers = []
    for k, (p, q) in enumerate(ordering):
        qubits = (sysq(p), sysq(q), sysq(r), sysq(s))
        layers.append(_layer("pgivens", qubits, f"{prefix}/rot/{k}/theta"))
        layers.append(_layer("pgivens_phase", qubits, f"{prefix}/rot/{k}/phi"))
    layers.append(_layer("cphase", (sysq(r), sysq(s)), f"{prefix}/pivot_phi"))
    return layers


def _compile_one_body(ad, n, sysq, ws0, t):
    """Mode-group adaptor: one flagged ladder per grouped eigenvector."""
    prefix = f"ham/{ad.address}"
    m = max(ad.rank, 1)
    flag = ws0 + t - 1
    sub = ws0 + t - 2
    layers = [] if m == 1 else [_layer("h", (sub,))]
    for j in range(m):
        layers += _ladder_layers(f"{prefix}/mode{j}", n, ad.pivot[j], sysq)
        layers.append(_layer("cx", (sysq(ad.pivot[j]), flag)))
        layers.append(_layer("x", (flag,)))
        layers.append(
            _layer("index_load", (sub,) if m > 1 else (), f"{prefix}/subprep/{j}")
        )
    if m > 1:
        layers.append(_layer("h", (sub,)))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, m, tuple(layers))


def _compile_channel(ad, n, sysq, ws0, t):
    prefix = f"ham/{ad.address}"
    a_i = oracle.index_width(ad.rank)
    t_s = a_i + 2
    base = ws0 + t - t_s  # signal qubit position
    signal = base
    index = tuple(range(base + 1, base + 1 + a_i))
    flag = base + 1 + a_i
    layers = [
        _layer("givens", (sysq(p), sysq(q)), f"{prefix}/net/{k}/theta")
        for k, (p, q) in enumerate(ladders.network_pair_sequence(n))
    ]
    layers += [_layer("rz", (sysq(p),), f"{prefix}/net/phase/{p}") for p in range(n)]
    for xi in range(ad.rank):
        layers.append(_layer("index_load", index, f"{prefix}/prep/{xi}"))
        layers.append(_layer("cx", (sysq(xi), flag)))
        layers.append(_layer("x", (flag,)))
        layers.append(_layer("rz", (flag,), f"{prefix}/select/{xi}/sign_phi"))
    layers.append(_layer("h", (signal,)))
    layers.append(_layer("mcz", index + (flag,)))
    layers.append(_layer("h", (signal,)))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, ad.rank, tuple(layers))


def _compile_null(flag):
    return AdaptorSpec(0, "null", (), 0, (_layer("x", (flag,)),))


def _compile_pair(ad, n, sysq, ws0, t):
    prefix = f"gen/{ad.address}"
    sub = ws0 + t - 2
    anc = ws0 + t - 1
    pu, pv = ad.pivot
    layers = [
        _layer("h", (sub,)),
        _layer("x", (sysq(pu[0]),)),
        _layer("x", (sysq(pu[1]),)),
        *_pair_ladder_layers(f"{prefix}/v", n, pv, sysq),
        _layer("h", (anc,)),
        _layer("mcz", tuple(sysq(p) for p in range(n))),
        _layer("h", (anc,)),
        *_pair_ladder_layers(f"{prefix}/u", n, pu, sysq),
        _layer("h", (sub,)),
    ]
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, 0, tuple(layers))


def _mode_pivot(ad, j):
    """Pivot of mode ``j`` of a two-mode bilinear adaptor (0 when absent)."""
    return ad.pivot[j] if j < len(ad.pivot) else 0


def _compile_bilinear_asym(ad, n, sysq, ws0, t):
    prefix = f"gen/{ad.address}"
    sub = ws0 + t - 2
    flag = ws0 + t - 1
    layers = [_layer("h", (sub,))]
    for j in range(2):
        pivot = _mode_pivot(ad, j)
        layers += _ladder_layers(f"{prefix}/mode{j}", n, pivot, sysq)
        layers.append(_layer("cx", (sysq(pivot), flag)))
        layers.append(_layer("x", (flag,)))
        layers.append(_layer("index_load", (sub,), f"{prefix}/subprep/{j}"))
        layers.append(_layer("rz", (flag,), f"{prefix}/submode/{j}/sign_phi"))
    layers.append(_layer("h", (sub,)))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, 2, tuple(layers))


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
    angles = {}
    phases = {}
    coeffs = {}
    if ham_pool is not None:
        coeffs.update(_bind_hamiltonian(skel, ham_pool, alpha, angles, phases))
    if gen_pool is not None:
        coeffs.update(
            _bind_generator(skel, gen_pool, masked, alpha_bar, angles, phases)
        )

    known = set(skel.all_slots())
    double = set(angles) & set(phases)
    if double:
        raise BindError("slots bound twice", addresses=sorted(double))
    bound = set(angles) | set(phases)
    unknown = bound - known
    if unknown:
        raise BindError("bindings address unknown slots", addresses=sorted(unknown))
    # surplus compiled adaptors idle at zero angles so every slot is bound
    for slot in known - bound:
        if slot.endswith("phi") or "/phase/" in slot:
            phases[slot] = 0.0
        else:
            angles[slot] = 0.0

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
                angles[f"ham/{addr}/subprep/{j}"] = float(
                    1.0 / np.sqrt(lad.multiplicity)
                )
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
            # surplus compiled eigenmodes load zero amplitude
            for xi in range(ad.rank):
                loaded = xi < ch.rank
                angles[f"ham/{addr}/prep/{xi}"] = float(amps[xi]) if loaded else 0.0
                phases[f"ham/{addr}/select/{xi}/sign_phi"] = (
                    np.pi if loaded and signs[xi] < 0 else 0.0
                )
            weight = abs(lad.coefficient) * ch.gamma**2
        omega_list.append(lad.coefficient)
        angles[f"prep/ham/{addr}"] = float(np.sqrt(weight / alpha))
    for addr in range(ham_pool.ell, skel.ell_ham):
        angles[f"prep/ham/{addr}"] = 0.0
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
            for j in range(2):  # a missing second mode idles at zero amplitude
                pivot = _mode_pivot(ad, j)
                if j < len(w_vals):
                    vec = w_vecs[:, j]
                    amp, sign = float(amps[j]), np.pi if signs[j] < 0 else 0.0
                else:
                    vec = np.eye(n, dtype=complex)[:, pivot]
                    amp, sign = 0.0, 0.0
                sched = ladders.one_electron_angles(vec, pivot=pivot, n=n)
                _bind(angles, phases, sched, f"gen/{addr}/mode{j}")
                angles[f"gen/{addr}/subprep/{j}"] = amp
                phases[f"gen/{addr}/submode/{j}/sign_phi"] = sign
        omega_gen.append(lad.coefficient)
        weight = abs(lad.coefficient) * generator_branch_alpha(lad)
        if addr in masked:
            angles[f"prep/gen/{addr}"] = float(np.sqrt(weight / alpha_bar))
            used += weight
        else:
            angles[f"prep/gen/{addr}"] = 0.0
    for addr in range(gen_pool.ell + 1, skel.ell_gen + 1):
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
# execution (sparse rebuild from bindings alone)
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


def _occupation_from_bindings(sheet, prefix, n, pivot):
    sched = schedule_from_bindings(sheet, prefix, "one", n, (pivot,))
    return oracle.flagged_occupation(sched.as_number_conserving(), n)


def _gen_branch_from_bindings(sheet, ad, n):
    prefix = f"gen/{ad.address}"
    if ad.kind == "null":
        return oracle.null_branch(n)
    if ad.kind == "pair":
        su = schedule_from_bindings(sheet, f"{prefix}/u", "two", n, ad.pivot[0])
        sv = schedule_from_bindings(sheet, f"{prefix}/v", "two", n, ad.pivot[1])
        return oracle.hermitian_dyad_branch(su, sv, n)
    if ad.kind == "bilinear_asym":
        gadgets = [
            _occupation_from_bindings(sheet, f"{prefix}/mode{j}", n, _mode_pivot(ad, j))
            for j in range(2)
        ]
        amps = [sheet.angle_bindings[f"{prefix}/subprep/{j}"] for j in range(2)]
        phases = [
            np.exp(1j * sheet.phase_bindings[f"{prefix}/submode/{j}/sign_phi"])
            for j in range(2)
        ]
        return oracle.occupation_select(gadgets, amps, phases, n)
    raise ValidationError(f"unknown generator adaptor kind {ad.kind!r}")


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
    """Sparse (CSR) rebuild of the masked generator encoding from a dial sheet.

    Verifies the fingerprint binding and reconstructs every branch from
    slot values only, so the result certifies the dial data rather than
    the pools it came from.
    """
    oracle.check_assembly_width(generator_ancillas(skel) + skel.n_system)
    return _generator_select(skel, sheet).tocsr()


def execute_generator_block(skel, sheet):
    """Dense block of :func:`execute_generator_encoding`, run on columns."""
    oracle.check_column_batch(generator_ancillas(skel), skel.n_system, "generator")
    return oracle.column_block(_generator_select(skel, sheet), skel.n_system)


def _generator_select(skel, sheet):
    """Generator PREP-SELECT-PREP node; checks the fingerprint and the PREP norm."""
    _check_fingerprint(skel, sheet)
    n = skel.n_system
    omegas = sheet.classical_coeffs["omega"]
    branch_ops = []
    branch_phases = []
    amps = np.zeros(2**skel.selector_width)
    for ad in sorted(skel.adaptors_gen, key=lambda a: a.address):
        branch_ops.append(_gen_branch_from_bindings(sheet, ad, n))
        if ad.kind == "null":
            branch_phases.append(1.0)
        else:
            om = omegas[ad.address - 1] if ad.address - 1 < len(omegas) else 0.0
            branch_phases.append(1.0 if om >= 0 else -1.0)
        amps[ad.address] = sheet.angle_bindings.get(f"prep/gen/{ad.address}", 0.0)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        raise BindError(f"generator prep amplitudes have norm {norm!r}")
    return oracle._prep_select_prep(
        amps, branch_ops, branch_phases, n, generator_workspace_width(skel)
    )


def _ham_branch_from_bindings(sheet, ad, n):
    prefix = f"ham/{ad.address}"
    if ad.kind == "one_body_mode":
        m = max(ad.rank, 1)
        gadgets = [
            _occupation_from_bindings(sheet, f"{prefix}/mode{j}", n, ad.pivot[j])
            for j in range(m)
        ]
        amps = [sheet.angle_bindings[f"{prefix}/subprep/{j}"] for j in range(m)]
        return oracle.occupation_select(gadgets, amps, [1.0] * m, n)
    if ad.kind == "channel":
        seq = ladders.network_pair_sequence(n)
        rotations = tuple(
            (p, q, sheet.angle_bindings[f"{prefix}/net/{k}/theta"])
            for k, (p, q) in enumerate(seq)
        )
        net_phases = np.array(
            [sheet.phase_bindings[f"{prefix}/net/phase/{p}"] for p in range(n)]
        )
        net = ladders.RotationNetwork(n, rotations, net_phases)
        amps = [sheet.angle_bindings[f"{prefix}/prep/{xi}"] for xi in range(ad.rank)]
        phases = [
            np.exp(1j * sheet.phase_bindings[f"{prefix}/select/{xi}/sign_phi"])
            for xi in range(ad.rank)
        ]
        w, t = oracle.rotated_diagonal_gadget(net, amps, phases, n)
        return oracle.squared_block_gadget(w, t, n)
    raise ValidationError(f"unknown hamiltonian adaptor kind {ad.kind!r}")


def execute_adaptor(skel, sheet, address):
    """Sparse (CSR) branch unitary of one adaptor, rebuilt from a dial sheet.

    ``address`` is the adaptor's slot prefix, ``"ham/<a>"`` or
    ``"gen/<a>"``.  The branch is the one the multiplexed encoding selects
    (the same builder), on its own workspace plus the system register and
    without its coefficient sign, so its block is the adaptor's
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
    _check_fingerprint(skel, sheet)
    build = _ham_branch_from_bindings if side == "ham" else _gen_branch_from_bindings
    return build(sheet, ad, skel.n_system).tocsr()


def _check_fingerprint(skel, sheet):
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")


def execute_hamiltonian_encoding(skel, sheet):
    """Sparse (CSR) rebuild of the Hamiltonian encoding from a dial sheet."""
    oracle.check_assembly_width(hamiltonian_ancillas(skel) + skel.n_system)
    return _hamiltonian_select(skel, sheet).tocsr()


def execute_hamiltonian_block(skel, sheet):
    """Dense block of :func:`execute_hamiltonian_encoding`, run on columns."""
    oracle.check_column_batch(hamiltonian_ancillas(skel), skel.n_system, "Hamiltonian")
    return oracle.column_block(_hamiltonian_select(skel, sheet), skel.n_system)


def _hamiltonian_select(skel, sheet):
    """Hamiltonian PREP-SELECT-PREP node; checks the fingerprint and the PREP norm."""
    _check_fingerprint(skel, sheet)
    n = skel.n_system
    branch_ops = []
    branch_phases = []
    amps = np.zeros(2**skel.selector_width)
    omegas = sheet.classical_coeffs["Omega"]
    for ad in sorted(skel.adaptors_ham, key=lambda a: a.address):
        amp = sheet.angle_bindings.get(f"prep/ham/{ad.address}", 0.0)
        amps[ad.address] = amp
        if amp == 0.0 and ad.address >= len(omegas):
            branch_ops.append(None)
            branch_phases.append(1.0)
            continue
        branch_ops.append(_ham_branch_from_bindings(sheet, ad, n))
        om = omegas[ad.address] if ad.address < len(omegas) else 0.0
        branch_phases.append(1.0 if om >= 0 else -1.0)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        raise BindError(f"hamiltonian prep amplitudes have norm {norm!r}")
    return oracle._prep_select_prep(
        amps, branch_ops, branch_phases, n, skel.workspace_width
    )
