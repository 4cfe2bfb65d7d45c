"""Electronic-structure integral ingestion, synthesis, and normalization.

Everything downstream works with spin-orbital integrals in the physicists'
convention ``<pq|rs>``.  Spin orbitals are interleaved: spatial orbital ``k``
occupies modes ``2k`` (alpha) and ``2k+1`` (beta), so paired spins stay
adjacent for ladder routing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .errors import DICT, INT, NUMBER, checked, checked_list

INTS_FORMAT = "composer-ints-v1"

_HERMITICITY_TOL = 1e-12
_PSD_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class IntegralSet:
    """One instance of the electronic-structure problem.

    Attributes
    ----------
    n_spatial : number of spatial orbitals
    n_so : number of spin orbitals (= 2 * n_spatial = qubit count)
    n_elec : electron count
    e_nn : constant energy offset (nuclear repulsion)
    h : (n_so, n_so) Hermitian one-body matrix
    eri : (n_so,)*4 two-electron tensor ``<pq|rs>``, physicists' convention
    orb_energies : length n_so vector, or None if not yet derived
    """

    n_spatial: int
    n_so: int
    n_elec: int
    e_nn: float
    h: np.ndarray
    eri: np.ndarray
    orb_energies: np.ndarray | None = None

    def __post_init__(self):
        for name in ("h", "eri", "orb_energies"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    def supermatrix(self):
        """Chemists' supermatrix ``M[(p,r),(q,s)] = <pq|rs>``."""
        n = self.n_so
        return self.eri.transpose(0, 2, 1, 3).reshape(n * n, n * n)

    def validate(self):
        n = self.n_so
        if n != 2 * self.n_spatial:
            raise ValidationError("n_so must equal 2 * n_spatial")
        if self.n_elec > n:
            raise ValidationError(f"NELEC {self.n_elec} exceeds 2*NORB {n}")
        if self.h.shape != (n, n) or self.eri.shape != (n, n, n, n):
            raise ValidationError("integral array shapes inconsistent with n_so")
        if np.abs(self.h - self.h.conj().T).max() > _HERMITICITY_TOL:
            raise ValidationError("one-body matrix is not Hermitian to 1e-12")
        sym1 = np.abs(self.eri - self.eri.transpose(1, 0, 3, 2)).max()
        sym2 = np.abs(self.eri - self.eri.transpose(2, 3, 0, 1)).max()
        if max(sym1, sym2) > 1e-10:
            raise ValidationError("two-electron tensor violates 8-fold symmetry")
        m = self.supermatrix()
        lo = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
        if lo < _PSD_TOL:
            raise ValidationError(f"supermatrix not PSD: min eigenvalue {lo:.3e}")
        return self

    def allclose(self, other, tol=1e-14):
        if (self.n_spatial, self.n_so, self.n_elec) != (
            other.n_spatial,
            other.n_so,
            other.n_elec,
        ):
            return False
        if abs(self.e_nn - other.e_nn) > tol:
            return False
        if np.abs(self.h - other.h).max() > tol:
            return False
        if np.abs(self.eri - other.eri).max() > tol:
            return False
        return True

    def to_json(self):
        doc = {
            "format": INTS_FORMAT,
            "n_spatial": self.n_spatial,
            "n_so": self.n_so,
            "n_elec": self.n_elec,
            "e_nn": self.e_nn,
            "h": self.h.reshape(-1).tolist(),
            "eri": self.eri.reshape(-1).tolist(),
            "orb_energies": None
            if self.orb_energies is None
            else self.orb_energies.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        """Inverse of :meth:`to_json`; a wrongly typed field is a ParseError."""
        doc = checked(json.loads(text), DICT, "integrals")
        if doc.get("format") != INTS_FORMAT:
            raise ParseError(f"expected format {INTS_FORMAT!r}")

        def numbers(key):
            return np.array(checked_list(doc[key], NUMBER, key), dtype=float)

        n = checked(doc["n_so"], INT, "n_so")
        orb = doc.get("orb_energies")
        return IntegralSet(
            n_spatial=checked(doc["n_spatial"], INT, "n_spatial"),
            n_so=n,
            n_elec=checked(doc["n_elec"], INT, "n_elec"),
            e_nn=float(checked(doc["e_nn"], NUMBER, "e_nn")),
            h=numbers("h").reshape(n, n),
            eri=numbers("eri").reshape(n, n, n, n),
            orb_energies=None if orb is None else numbers("orb_energies"),
        ).validate()


def expand_spin(h_sp, chem_sp):
    """Expand spatial integrals to interleaved spin orbitals.

    ``chem_sp[i,j,k,l]`` is the chemists' integral ``(ij|kl)``.  The returned
    two-electron tensor is ``<pq|rs>`` over spin orbitals:
    ``<pq|rs> = (p~r~|q~s~) * delta(spin p, spin r) * delta(spin q, spin s)``.
    """
    m = h_sp.shape[0]
    n = 2 * m
    h = np.zeros((n, n))
    for sigma in (0, 1):
        h[sigma::2, sigma::2] = h_sp
    eri = np.zeros((n, n, n, n))
    # physicists' <pq|rs> groups (p,r) on electron 1 and (q,s) on electron 2
    phys_sp = chem_sp.transpose(0, 2, 1, 3)  # [p~, q~, r~, s~] = (p~r~|q~s~)
    for sp in (0, 1):
        for sq in (0, 1):
            eri[sp::2, sq::2, sp::2, sq::2] = phys_sp
    return h, eri


def spatial_from_spin(ints):
    """Recover spatial ``h`` and chemists' ``(ij|kl)`` from a spin-orbital set."""
    m = ints.n_spatial
    h_sp = ints.h[0::2, 0::2].copy()
    # all-alpha <pq|rs> equals (p~r~|q~s~), so (ij|kl) = eri[2i, 2k, 2j, 2l]
    chem = ints.eri[0::2, 0::2, 0::2, 0::2].transpose(0, 2, 1, 3).copy()
    return h_sp, chem


_NUM = r"[-+]?[\d.]+(?:[eEdD][-+]?\d+)?"


def parse_fcidump(text):
    """Parse FCIDUMP-formatted text into an :class:`IntegralSet`.

    The namelist header must define NORB and NELEC and is terminated by
    ``&END`` or ``/``.  Body lines read ``value i j k l`` with 1-based
    spatial indices in the chemists' convention ``(ij|kl)``; ``i j 0 0``
    feeds the one-body matrix, ``i 0 0 0`` an orbital energy, and
    ``0 0 0 0`` the constant shift.  ORBSYM/ISYM entries are ignored.
    """
    lines = text.splitlines()
    header_parts = []
    body_start = None
    for ln, line in enumerate(lines, start=1):
        header_parts.append(line)
        stripped = line.strip()
        if "&END" in stripped.upper() or stripped.endswith("/") or stripped == "/":
            body_start = ln
            break
    if body_start is None:
        raise ParseError("namelist header not terminated by &END or /", line=len(lines))
    header = " ".join(header_parts)

    def _key(name):
        match = re.search(rf"{name}\s*=\s*({_NUM})", header, flags=re.IGNORECASE)
        return match

    m_norb = _key("NORB")
    m_nelec = _key("NELEC")
    if m_norb is None or m_nelec is None:
        raise ParseError("header must define NORB and NELEC", line=body_start)
    try:
        norb = int(float(m_norb.group(1)))
        nelec = int(float(m_nelec.group(1)))
    except ValueError as exc:
        raise ParseError(f"malformed NORB/NELEC: {exc}", line=body_start) from exc
    if norb < 1:
        raise ParseError("NORB must be positive", line=body_start)
    if nelec > 2 * norb:
        raise ValidationError(f"NELEC {nelec} exceeds 2*NORB {2 * norb}")

    h_sp = np.zeros((norb, norb))
    chem = np.zeros((norb, norb, norb, norb))
    e_nn = 0.0
    eps_records = {}
    for ln, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 5:
            raise ParseError(f"expected 'value i j k l', got {stripped!r}", line=ln)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise ParseError(f"malformed body line: {exc}", line=ln) from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise ParseError(f"index {idx} out of range 0..{norb}", line=ln)
        if i == 0 and j == 0 and k == 0 and l == 0:
            e_nn = value
        elif j == 0 and k == 0 and l == 0:
            eps_records[i - 1] = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ParseError("one-body entry requires i, j > 0", line=ln)
            h_sp[i - 1, j - 1] = value
            h_sp[j - 1, i - 1] = value
        else:
            if 0 in (i, j, k, l):
                raise ParseError("two-body entry requires all indices > 0", line=ln)
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d),
                (b, a, c, d),
                (a, b, d, c),
                (b, a, d, c),
                (c, d, a, b),
                (d, c, a, b),
                (c, d, b, a),
                (d, c, b, a),
            ):
                chem[p, q, r, s] = value

    h, eri = expand_spin(h_sp, chem)
    orb = None
    if eps_records:
        eps_sp = np.zeros(norb)
        for idx, value in eps_records.items():
            eps_sp[idx] = value
        orb = np.repeat(eps_sp, 2)
    ints = IntegralSet(
        n_spatial=norb,
        n_so=2 * norb,
        n_elec=nelec,
        e_nn=e_nn,
        h=h,
        eri=eri,
        orb_energies=orb,
    ).validate()
    if orb is None:
        ints = with_orbital_energies(ints)
    return ints


def write_fcidump(ints):
    """Serialize back to FCIDUMP text (canonical unique-entry order)."""
    h_sp, chem = spatial_from_spin(ints)
    m = ints.n_spatial
    out = [f"&FCI NORB={m},NELEC={ints.n_elec},MS2=0,", "&END"]
    seen = set()
    for i in range(m):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j + 1 if k == i else k + 1
                for l in range(lmax):
                    key = (i, j, k, l)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = float(chem[i, j, k, l])
                    if value != 0.0:
                        out.append(f"{value!r} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(m):
        for j in range(i + 1):
            if h_sp[i, j] != 0.0:
                out.append(f"{float(h_sp[i, j])!r} {i + 1} {j + 1} 0 0")
    out.append(f"{float(ints.e_nn)!r} 0 0 0 0")
    return "\n".join(out) + "\n"


def mean_field_shift(ints):
    """One-body matrix with the mean-field shift applied.

    ``h~_pq = h_pq - 1/2 sum_s <pq|ss>``; the shifted matrix feeds the
    one-electron rank-one pool.
    """
    shift = 0.5 * np.einsum("pqss->pq", ints.eri)
    htilde = ints.h - shift
    return (htilde + htilde.conj().T) / 2.0


def fock_matrix(ints):
    """Closed-shell Fock matrix over spin orbitals (lowest-n_elec occupation)."""
    occ = range(ints.n_elec)
    f = ints.h.astype(float).copy()
    for k in occ:
        f += ints.eri[:, k, :, k] - ints.eri[:, k, k, :]
    return (f + f.conj().T) / 2.0


def with_orbital_energies(ints):
    """Attach orbital energies as closed-shell Fock eigenvalues (ascending)."""
    eps = np.linalg.eigvalsh(fock_matrix(ints))
    return replace(ints, orb_energies=eps)


def synth_instance(seed, n_spatial, n_elec):
    """Deterministic synthetic instance with canonical orbitals.

    The two-electron tensor is a sum of ``n_spatial`` symmetric outer
    products, so its supermatrix is PSD by construction and of known rank.
    The one-body matrix is fixed so that the closed-shell Fock matrix is
    diagonal with a comfortable HOMO-LUMO gap; the instance is therefore
    canonical, which the perturbative-amplitude module relies on.
    """
    if n_spatial < 1:
        raise ValidationError("n_spatial must be at least 1")
    if n_elec % 2 != 0:
        raise ValidationError("n_elec must be even (closed shell)")
    if n_elec > 2 * n_spatial:
        raise ValidationError("n_elec exceeds 2 * n_spatial")

    rng = np.random.default_rng(seed)
    m = n_spatial
    chem = np.zeros((m, m, m, m))
    for _ in range(m):
        g = rng.uniform(-1.0, 1.0, size=(m, m))
        g = (g + g.T) / 2.0
        chem += np.einsum("ij,kl->ijkl", g, g)
    # scale interactions to keep the mean field comparable to the gap
    chem *= 0.5 / max(1.0, np.abs(chem).max())

    n_occ_sp = n_elec // 2
    eps_occ = np.sort(rng.uniform(-2.0, -1.0, size=n_occ_sp))
    eps_vir = np.sort(rng.uniform(0.5, 2.0, size=m - n_occ_sp))
    eps_sp = np.concatenate([eps_occ, eps_vir])

    # closed-shell mean field from the lowest-n_elec occupation
    g_mat = np.zeros((m, m))
    for k in range(n_occ_sp):
        g_mat += 2.0 * chem[:, :, k, k] - chem[:, k, k, :]
    h_sp = np.diag(eps_sp) - g_mat
    h_sp = (h_sp + h_sp.T) / 2.0

    scale = 1.0 / max(1.0, np.abs(h_sp).max())
    h_sp *= scale
    chem *= scale

    h, eri = expand_spin(h_sp, chem)
    ints = IntegralSet(
        n_spatial=m,
        n_so=2 * m,
        n_elec=n_elec,
        e_nn=float(np.round(rng.uniform(0.0, 1.0), 6)),
        h=h,
        eri=eri,
    ).validate()
    return with_orbital_energies(ints)
