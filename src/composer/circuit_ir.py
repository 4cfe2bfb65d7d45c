"""Compile-once circuit IR: frozen two-qubit fabric plus re-dialable angles.

The skeleton records the selector tree, the adaptor bank's gate layers
with structural slot identifiers, and the signal-processing scaffold;
its fingerprint hashes the register widths, gate kinds, ordered qubit
tuples, layer order, and slot identifiers, never angle values.  A dial
sheet binds every parameter slot for one instance (pools, mask,
coefficient set) and is the only thing that changes between instances.

Layer lists describe the forward body of each gadget; the mirrored
uncompute halves reuse the same slots by construction, so they are
implied by the gadget template rather than listed twice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import ladders, oracle
from .errors import BindError, CapacityError, ParseError, ValidationError
from .factorization import bilinear_asym_spectrum, generator_branch_alpha

SKEL_FORMAT = "composer-skel-v2"
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
    """Canonical pivot plan: argmax amplitudes, frozen at compile time."""
    n = ham_pool.n_so
    ham = []
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
    """One compiled adaptor: address, kind, pivot data, layers, slot ids."""

    address: int
    kind: str
    pivot: tuple
    rank: int
    layers: tuple  # ((gate, qubits, slot_or_None), ...)
    slots: tuple


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
            out.extend(ad.slots)
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
        doc = json.loads(text)
        if doc.get("format") != SKEL_FORMAT:
            raise ParseError(f"expected format {SKEL_FORMAT!r}")
        skel = CircuitSkeleton(
            n_system=doc["n_system"],
            selector_width=doc["selector_width"],
            workspace_width=doc["workspace_width"],
            qsp_degree=doc["qsp_degree"],
            adaptors_ham=tuple(_adaptor_load(a) for a in doc["adaptors_ham"]),
            adaptors_gen=tuple(_adaptor_load(a) for a in doc["adaptors_gen"]),
            prep_slots_ham=tuple(doc["prep_slots_ham"]),
            prep_slots_gen=tuple(doc["prep_slots_gen"]),
            connectivity=doc.get("connectivity", "full"),
            fingerprint=doc["fingerprint"],
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
        "layers": [[g, list(q), s] for (g, q, s) in ad.layers],
        "slots": list(ad.slots),
    }


def _pivot_doc(pivot):
    return [list(p) if isinstance(p, tuple) else p for p in pivot]


def _pivot_load(doc):
    return tuple(tuple(p) if isinstance(p, list) else p for p in doc)


def _adaptor_load(doc):
    return AdaptorSpec(
        address=doc["address"],
        kind=doc["kind"],
        pivot=_pivot_load(doc["pivot"]),
        rank=doc["rank"],
        layers=tuple((g, tuple(q), s) for g, q, s in doc["layers"]),
        slots=tuple(doc["slots"]),
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
        doc = json.loads(text)
        if doc.get("format") != DIAL_FORMAT:
            raise ParseError(f"expected format {DIAL_FORMAT!r}")
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
    layer stream.
    """
    if ham_pool_size <= 0 or gen_pool_size <= 0:
        raise ValidationError("pool sizes must be positive")
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


def _ladder_layers(prefix, n, pivot, sysq):
    ordering = tuple(p for p in range(n) if p != pivot)
    layers = []
    slots = []
    for k, p in enumerate(ordering):
        slot = f"{prefix}/rot/{k}/theta"
        layers.append(("givens", (sysq(p), sysq(pivot)), slot))
        slots.append(slot)
    for k, p in enumerate(ordering):
        slot = f"{prefix}/rot/{k}/phi"
        layers.append(("rz", (sysq(p),), slot))
        slots.append(slot)
    slot = f"{prefix}/pivot_phi"
    layers.append(("rz", (sysq(pivot),), slot))
    slots.append(slot)
    return layers, slots


def _pair_ladder_layers(prefix, n, pivot_pair, sysq):
    ordering = tuple(
        pq for pq in ladders.pair_indices(n) if pq != tuple(pivot_pair)
    )
    r, s = pivot_pair
    layers = []
    slots = []
    for k, (p, q) in enumerate(ordering):
        slot = f"{prefix}/rot/{k}/theta"
        layers.append(("pgivens", (sysq(p), sysq(q), sysq(r), sysq(s)), slot))
        slots.append(slot)
        slot = f"{prefix}/rot/{k}/phi"
        layers.append(("pgivens_phase", (sysq(p), sysq(q), sysq(r), sysq(s)), slot))
        slots.append(slot)
    slot = f"{prefix}/pivot_phi"
    layers.append(("cphase", (sysq(r), sysq(s)), slot))
    slots.append(slot)
    return layers, slots


def _compile_one_body(ad, n, sysq, ws0, t):
    """Mode-group adaptor: one flagged ladder per grouped eigenvector."""
    prefix = f"ham/{ad.address}"
    m = max(ad.rank, 1)
    flag = ws0 + t - 1
    sub = ws0 + t - 2
    layers = [] if m == 1 else [("h", (sub,), None)]
    slots = []
    for j in range(m):
        lmode, smode = _ladder_layers(f"{prefix}/mode{j}", n, ad.pivot[j], sysq)
        layers += lmode
        slots += smode
        layers.append(("cx", (sysq(ad.pivot[j]), flag), None))
        layers.append(("x", (flag,), None))
        amp = f"{prefix}/subprep/{j}"
        layers.append(("index_load", (sub,) if m > 1 else (), amp))
        slots.append(amp)
    if m > 1:
        layers.append(("h", (sub,), None))
    return AdaptorSpec(ad.address, ad.kind, ad.pivot, m, tuple(layers), tuple(slots))


def _compile_channel(ad, n, sysq, ws0, t):
    prefix = f"ham/{ad.address}"
    a_i = oracle.index_width(ad.rank)
    t_s = a_i + 2
    base = ws0 + t - t_s  # signal qubit position
    signal = base
    index = tuple(range(base + 1, base + 1 + a_i))
    flag = base + 1 + a_i
    layers = []
    slots = []
    for k, (p, q) in enumerate(ladders.network_pair_sequence(n)):
        slot = f"{prefix}/net/{k}/theta"
        layers.append(("givens", (sysq(p), sysq(q)), slot))
        slots.append(slot)
    for p in range(n):
        slot = f"{prefix}/net/phase/{p}"
        layers.append(("rz", (sysq(p),), slot))
        slots.append(slot)
    for xi in range(ad.rank):
        slot = f"{prefix}/prep/{xi}"
        layers.append(("index_load", index, slot))
        slots.append(slot)
        sign = f"{prefix}/select/{xi}/sign_phi"
        layers.append(("cx", (sysq(xi), flag), None))
        layers.append(("x", (flag,), None))
        layers.append(("rz", (flag,), sign))
        slots.append(sign)
    layers.append(("h", (signal,), None))
    layers.append(("mcz", tuple(index) + (flag,), None))
    layers.append(("h", (signal,), None))
    return AdaptorSpec(
        ad.address, ad.kind, ad.pivot, ad.rank, tuple(layers), tuple(slots)
    )


def _compile_null(flag):
    return AdaptorSpec(0, "null", (), 0, (("x", (flag,), None),), ())


def _compile_pair(ad, n, sysq, ws0, t):
    prefix = f"gen/{ad.address}"
    sub = ws0 + t - 2
    anc = ws0 + t - 1
    pu, pv = ad.pivot
    layers = [("h", (sub,), None), ("x", (sysq(pu[0]),), None), ("x", (sysq(pu[1]),), None)]
    lu, su = _pair_ladder_layers(f"{prefix}/u", n, pu, sysq)
    lv, sv = _pair_ladder_layers(f"{prefix}/v", n, pv, sysq)
    layers += lv + [("h", (anc,), None), ("mcz", tuple(sysq(p) for p in range(n)), None),
                    ("h", (anc,), None)] + lu
    layers.append(("h", (sub,), None))
    return AdaptorSpec(
        ad.address, ad.kind, ad.pivot, 0, tuple(layers), tuple(su + sv)
    )


def _mode_pivot(ad, j):
    """Pivot of mode ``j`` of a two-mode bilinear adaptor (0 when absent)."""
    return ad.pivot[j] if j < len(ad.pivot) else 0


def _compile_bilinear_asym(ad, n, sysq, ws0, t):
    prefix = f"gen/{ad.address}"
    sub = ws0 + t - 2
    flag = ws0 + t - 1
    layers = [("h", (sub,), None)]
    slots = []
    for j in range(2):
        pivot = _mode_pivot(ad, j)
        lmode, smode = _ladder_layers(f"{prefix}/mode{j}", n, pivot, sysq)
        layers += lmode
        layers.append(("cx", (sysq(pivot), flag), None))
        layers.append(("x", (flag,), None))
        slots += smode
        amp = f"{prefix}/subprep/{j}"
        layers.append(("index_load", (sub,), amp))
        slots.append(amp)
        sign = f"{prefix}/submode/{j}/sign_phi"
        layers.append(("rz", (flag,), sign))
        slots.append(sign)
    layers.append(("h", (sub,), None))
    return AdaptorSpec(
        ad.address, ad.kind, ad.pivot, 2, tuple(layers), tuple(slots)
    )


def fabric_fingerprint(skel):
    """SHA-256 digest of the register widths and the canonical layer stream.

    Structure only: qubit tuples are hashed in gate order (control before
    target), never angle values.
    """
    h = hashlib.sha256()
    h.update(
        f"registers|{skel.n_system}|{skel.selector_width}|{skel.workspace_width}\n"
        .encode()
    )
    for ad in skel.adaptors_ham + skel.adaptors_gen:
        h.update(f"adaptor:{ad.address}:{ad.kind}\n".encode())
        for gate, qubits, slot in ad.layers:
            h.update(
                f"{gate}|{','.join(str(q) for q in qubits)}|{slot or ''}\n".encode()
            )
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
    """
    n = skel.n_system
    if ham_pool.n_so != n or gen_pool.n_so != n:
        raise BindError("pool register size differs from the compiled system")
    if ham_pool.ell > skel.ell_ham:
        raise BindError(
            "hamiltonian pool exceeds compiled size",
            addresses=[lad.address for lad in ham_pool.ladders[skel.ell_ham:]],
        )
    if gen_pool.ell > skel.ell_gen:
        raise BindError(
            "generator pool exceeds compiled size",
            addresses=[lad.address for lad in gen_pool.ladders[skel.ell_gen:]],
        )
    mask_indices = frozenset(mask.indices if isinstance(mask, Mask) else mask)
    addresses = {lad.address for lad in gen_pool.ladders}
    if sorted(addresses) != list(range(1, gen_pool.ell + 1)):
        raise BindError("generator addresses must be contiguous from 1")
    if sorted(lad.address for lad in ham_pool.ladders) != list(range(ham_pool.ell)):
        raise BindError("hamiltonian addresses must be contiguous from 0")
    if not mask_indices <= addresses:
        raise BindError(
            "mask addresses missing from generator pool",
            addresses=mask_indices - addresses,
        )
    alpha = ham_pool.alpha if alpha is None else float(alpha)
    alpha_bar = gen_pool.alpha_bar if alpha_bar is None else float(alpha_bar)

    angles = {}
    phases = {}
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
        if addr in mask_indices:
            angles[f"prep/gen/{addr}"] = float(np.sqrt(weight / alpha_bar))
            used += weight
        else:
            angles[f"prep/gen/{addr}"] = 0.0
    for addr in range(gen_pool.ell + 1, skel.ell_gen + 1):
        angles[f"prep/gen/{addr}"] = 0.0
    if used > alpha_bar * (1 + 1e-12):
        raise BindError("masked weight exceeds the global normalization")
    angles["prep/gen/0"] = float(np.sqrt(max(1.0 - used / alpha_bar, 0.0)))

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
        mask_indices=tuple(sorted(mask_indices)),
        angle_bindings=angles,
        phase_bindings=phases,
        classical_coeffs={
            "Omega": [float(x) for x in omega_list],
            "omega": [float(x) for x in omega_gen],
            "alpha": float(alpha),
            "alpha_bar": float(alpha_bar),
            "n_occ": int(gen_pool.n_occ),
        },
    )


# ---------------------------------------------------------------------------
# execution (dense rebuild from bindings alone)
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
    not affect the encoded block and would inflate the dense register).
    """
    branches = tuple(ad for ad in skel.adaptors_gen if ad.kind != "null")
    return plan_workspace_width(CompilePlan(ham=(), gen=branches))


def execute_generator_encoding(skel, sheet):
    """Dense rebuild of the masked generator encoding from a dial sheet.

    Verifies the fingerprint binding and reconstructs every branch from
    slot values only, so the result certifies the dial data rather than
    the pools it came from.
    """
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")
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
        amps, branch_ops, branch_phases, n, workspace=generator_workspace_width(skel)
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


def execute_hamiltonian_encoding(skel, sheet):
    """Dense rebuild of the Hamiltonian encoding from a dial sheet."""
    if sheet.skeleton_fingerprint != skel.fingerprint:
        raise BindError("dial sheet bound to a different skeleton fingerprint")
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
        amps, branch_ops, branch_phases, n, workspace=skel.workspace_width
    )
