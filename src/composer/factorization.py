"""Nested low-rank factorizations of the Hamiltonian and doubles generator.

The two-electron tensor is compressed by pivoted Cholesky into symmetric
channel factors; each factor eigendecomposes into a squared diagonal
one-body form.  The doubles tensor is compressed by an SVD over
antisymmetric pair spaces, followed by a skew-spectral (Youla canonical
form) wedge extraction of each singular vector.  The result of both paths
is a pool of rank-one operator ladders with real coefficients.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter

import numpy as np
from scipy import linalg as sla

from . import ladders as ladder_mod
from .errors import (
    DegenerateGapError,
    NotPSDError,
    ParseError,
    ValidationError,
)
from .errors import DICT, INT, NUMBER, checked, checked_list, fields_of
from .errors import checked_keys, checked_packed_batch
from .integrals import mean_field_shift, with_orbital_energies

POOL_FORMAT = "composer-pool-v3"
T2_FORMAT = "composer-t2-v1"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CholeskyChannel:
    """One symmetric factor of the two-electron supermatrix.

    ``factor`` reconstructs as ``rotation @ diag(eigvals) @ rotation.T`` up
    to the channel eigenvalue cut; ``rotation_full`` appends the dropped
    eigenvectors so downstream code has a deterministic orthogonal
    completion for basis-rotation networks.
    """

    index: int
    factor: np.ndarray
    eigvals: np.ndarray | None = None
    rotation: np.ndarray | None = None
    rotation_full: np.ndarray | None = None

    def __post_init__(self):
        for name in ("factor", "eigvals", "rotation", "rotation_full"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def rank(self):
        return 0 if self.eigvals is None else len(self.eigvals)

    @property
    def gamma(self):
        if self.eigvals is None:
            raise ValidationError("channel not eigendecomposed")
        return float(np.abs(self.eigvals).sum())


@dataclass(frozen=True, eq=False)
class BilinearLadder:
    """Rank-one bilinear ladder ``coefficient * a^dag(u) a(v)``.

    ``u`` and ``v`` are unit vectors; norms and phases are absorbed into
    the real coefficient and the vectors themselves.
    """

    u: np.ndarray
    v: np.ndarray
    coefficient: float
    address: int

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        for name, vec in (("u", self.u), ("v", self.v)):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValidationError(f"{name} must be unit norm")

    kind = "bilinear"


@dataclass(frozen=True, eq=False)
class OneBodyModeLadder:
    """Diagonal one-body pool term ``coefficient * sum_j n(w_j)``.

    One eigenmode of the shifted one-body matrix; for spin-free inputs
    the alpha/beta partners of one spatial eigenvector share a single
    address (``vectors`` then holds both orthonormal columns), matching
    the spatial-level pool counting of the double factorization.
    """

    vectors: np.ndarray  # (n_so, m) orthonormal columns, m in {1, 2}
    coefficient: float
    address: int

    def __post_init__(self):
        self.vectors.setflags(write=False)
        gram = self.vectors.conj().T @ self.vectors
        if np.abs(gram - np.eye(self.multiplicity)).max() > 1e-10:
            raise ValidationError("mode vectors must be orthonormal")

    kind = "one_body_mode"

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class PairLadder:
    """Rank-one pair-excitation ladder from wedge factors.

    The virtual-side wedge amplitude is ``x_a y_b - x_b y_a`` over ``a < b``
    and analogously ``r_i s_j - r_j s_i`` on the occupied side; with
    orthonormal ``(x, y)`` and ``(r, s)`` both pair vectors have unit norm.
    """

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    s: np.ndarray
    coefficient: float
    address: int

    def __post_init__(self):
        for arr in (self.x, self.y, self.r, self.s):
            arr.setflags(write=False)

    kind = "pair"

    def virtual_pair_vector(self):
        return ladder_mod.wedge_vectors(self.x, self.y)

    def occupied_pair_vector(self):
        return ladder_mod.wedge_vectors(self.r, self.s)


@dataclass(frozen=True, eq=False)
class ChannelLadder:
    """Projected-quadratic ladder: one squared diagonalized channel."""

    channel: CholeskyChannel
    coefficient: float
    address: int

    kind = "channel"


@dataclass(frozen=True, eq=False)
class HamiltonianPool:
    """Rank-one ladder pool of the electronic Hamiltonian (minus the shift)."""

    one_body: tuple
    channels: tuple
    n_so: int
    n_elec: int
    e_nn: float = 0.0

    @property
    def ell(self):
        return len(self.one_body) + len(self.channels)

    @property
    def alpha(self):
        """LCU normalization ``sum_s |Omega_s| alpha_s``."""
        total = sum(
            abs(lad.coefficient) * lad.multiplicity for lad in self.one_body
        )
        total += sum(
            abs(lad.coefficient) * lad.channel.gamma**2 for lad in self.channels
        )
        return float(total)

    @property
    def ladders(self):
        return tuple(self.one_body) + tuple(self.channels)


def bilinear_asym_spectrum(u, v):
    """Eigen-data of the Hermitian form ``i(u v^dag - v u^dag)``.

    Used to encode ``i(L - L^dag)`` for a bilinear ladder as a short sum of
    occupation operators in a rotated one-particle basis.  Returns
    ``(eigvals, eigvecs)`` with zero modes removed, largest ``|eigval|``
    first.
    """
    b = 1j * (np.outer(u, v.conj()) - np.outer(v, u.conj()))
    w, vecs = np.linalg.eigh(b)
    order = np.argsort(-np.abs(w), kind="stable")
    w = w[order]
    vecs = vecs[:, order]
    keep = np.abs(w) > 1e-14
    return w[keep], vecs[:, keep]


def generator_branch_alpha(lad):
    """Block-encoding normalization of one generator branch.

    Pair ladders use the two-term dyad construction (factor 2 for the
    ladder and its adjoint); bilinear ladders use the rotated occupation
    form whose normalization is the absolute eigenvalue sum.
    """
    if lad.kind == "pair":
        return 2.0
    if lad.kind == "bilinear":
        w, _ = bilinear_asym_spectrum(lad.u, lad.v)
        return float(np.abs(w).sum())
    raise ValidationError(f"unsupported generator ladder kind {lad.kind!r}")


@dataclass(frozen=True, eq=False)
class GeneratorPool:
    """Rank-one ladder pool of an anti-Hermitian generator.

    ``alpha_bar`` is the global normalization over the full compiled pool;
    masking never changes it (unused amplitude is routed to a null branch).
    """

    ladders: tuple
    n_occ: int
    n_virt: int
    n_elec: int | None = None

    @property
    def n_so(self):
        return self.n_occ + self.n_virt

    @property
    def ell(self):
        return len(self.ladders)

    @property
    def sector(self):
        """Working particle-number sector: ``n_elec``, else the occupied count."""
        return self.n_occ if self.n_elec is None else self.n_elec

    @cached_property
    def alpha_bar(self):
        return float(
            sum(
                abs(lad.coefficient) * generator_branch_alpha(lad)
                for lad in self.ladders
            )
        )

    @cached_property
    def pair_batches(self):
        """``(group, u, v)`` per group of pair ladders with equal factor dtypes and shapes.

        ``u`` and ``v`` hold the group's virtual and occupied pair vectors,
        one row per ladder in pool order, each side formed in one batch.
        The operations are elementwise, so every row keeps the bits of the
        ladder's own :meth:`PairLadder.virtual_pair_vector` and
        :meth:`PairLadder.occupied_pair_vector`; a loaded pool of real pair
        ladders is one group.  The pool is frozen, so compile's pivots, the
        mask weights and every dial read these arrays instead of stacking
        the ladders' factors again.
        """
        groups = {}
        for lad in self.ladders:
            if lad.kind == "pair":
                key = (lad.x.dtype, lad.y.dtype, lad.r.dtype, lad.s.dtype,
                       lad.x.shape, lad.y.shape, lad.r.shape, lad.s.shape)
                groups.setdefault(key, []).append(lad)
        return tuple(
            (group, *(  # equal shapes and dtypes: np.array stacks them as np.stack does
                ladder_mod.wedge_vectors(*(np.array([getattr(lad, f) for lad in group])
                                           for f in side))
                for side in ("xy", "rs")
            ))
            for group in groups.values()
        )

    @property
    def weights(self):
        return np.array([lad.coefficient for lad in self.ladders])


@dataclass(frozen=True, eq=False)
class T2Tensor:
    """Antisymmetric doubles amplitudes on pair spaces.

    ``amplitudes[(a<b), (i<j)]`` with lexicographic pair enumeration over
    virtual and occupied indices respectively.
    """

    amplitudes: np.ndarray
    n_occ: int
    n_virt: int
    e_corr: float | None = None

    def __post_init__(self):
        self.amplitudes.setflags(write=False)
        nvp = self.n_virt * (self.n_virt - 1) // 2
        nop = self.n_occ * (self.n_occ - 1) // 2
        if self.amplitudes.shape != (nvp, nop):
            raise ValidationError("pair-matrix shape inconsistent with counts")

    def to_json(self):
        doc = {
            "format": T2_FORMAT,
            "n_occ": self.n_occ,
            "n_virt": self.n_virt,
            "pair_convention": "lexicographic a<b rows, i<j columns",
            "values": self.amplitudes.reshape(-1).tolist(),
            "e_corr": self.e_corr,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        """Inverse of :meth:`to_json`; a wrongly typed field is a ParseError."""
        doc = checked(json.loads(text), DICT, "t2")
        if doc.get("format") != T2_FORMAT:
            raise ParseError(f"expected format {T2_FORMAT!r}")
        n_occ = checked(doc["n_occ"], INT, "n_occ")
        n_virt = checked(doc["n_virt"], INT, "n_virt")
        e_corr = checked(doc.get("e_corr"), (*NUMBER, type(None)), "e_corr")
        nvp = n_virt * (n_virt - 1) // 2
        nop = n_occ * (n_occ - 1) // 2
        values = np.array(checked_list(doc["values"], NUMBER, "values"), dtype=float)
        return T2Tensor(values.reshape(nvp, nop), n_occ, n_virt, e_corr=e_corr)


def unpack_skew(vec, n):
    """Skew-symmetric matrix from its ``p < q`` pair-vector."""
    m = np.zeros((n, n), dtype=vec.dtype)
    for k, (p, q) in enumerate(ladder_mod.pair_indices(n)):
        m[p, q] = vec[k]
        m[q, p] = -vec[k]
    return m


# ---------------------------------------------------------------------------
# pivoted Cholesky
# ---------------------------------------------------------------------------


def _check_threshold(name, tau):
    """A ValidationError naming ``tau`` unless ``0 <= tau < inf`` (NaN fails)."""
    if not 0 <= tau < math.inf:
        raise ValidationError(f"{name} must be finite and nonnegative, not {tau}")


def pivoted_cholesky(ints, tau_chol):
    """Pivoted Cholesky factorization of the two-electron supermatrix.

    Pivots on the largest residual diagonal (ties break to the lowest
    index) until it drops to ``tau_chol``; each vector reshapes into a
    symmetric ``n_so x n_so`` channel factor so that
    ``<pq|rs> ~= sum_mu L^mu[p,r] L^mu[q,s]`` with max-entry error at most
    ``tau_chol``.
    """
    _check_threshold("tau_chol", tau_chol)  # a NaN cut never stops the pivoting
    n = ints.n_so
    m = ints.supermatrix()
    m = (m + m.T) / 2.0
    diag = np.diag(m).copy()
    floor = max(diag.max(initial=0.0), 0.0) * 1e-14
    cut = max(tau_chol, floor)
    rows = []
    channels = []
    guard = -10.0 * max(tau_chol, 1e-14)
    while True:
        if diag.min() < guard:
            raise NotPSDError(
                f"residual diagonal {diag.min():.3e} below -10*tau during pivoting"
            )
        q = int(np.argmax(diag))
        dmax = float(diag[q])
        if dmax <= cut:
            break
        col = m[:, q].copy()
        for row in rows:
            col -= row[q] * row
        col /= np.sqrt(dmax)
        diag -= col * col
        rows.append(col)
        factor = col.reshape(n, n)
        factor = (factor + factor.T) / 2.0
        channels.append(CholeskyChannel(index=len(channels), factor=factor))
    return channels


def reconstruct_eri(channels, n):
    """Dense ``<pq|rs>`` rebuilt from channel factors (test oracle aid)."""
    out = np.zeros((n, n, n, n))
    for ch in channels:
        out += np.einsum("pr,qs->pqrs", ch.factor, ch.factor)
    return out


def channel_eigendecomp(ch, tau_eig):
    """Populate channel eigenmodes, dropping relative magnitudes below cut."""
    _check_threshold("tau_eig", tau_eig)
    w, v = np.linalg.eigh(ch.factor)
    order = np.argsort(-np.abs(w), kind="stable")
    w = w[order]
    v = v[:, order]
    wmax = np.abs(w).max(initial=0.0)
    if wmax == 0.0:
        keep = np.zeros(len(w), dtype=bool)
    else:
        keep = np.abs(w) / wmax >= tau_eig
    retained = np.nonzero(keep)[0]
    dropped = np.nonzero(~keep)[0]
    order2 = np.concatenate([retained, dropped]).astype(int)
    return replace(
        ch,
        eigvals=w[retained],
        rotation=v[:, retained],
        rotation_full=v[:, order2],
    )


def _is_spin_symmetric(mat):
    """True when the matrix is spin diagonal with equal alpha/beta blocks."""
    if mat.shape[0] % 2 != 0:
        return False
    aa = mat[0::2, 0::2]
    bb = mat[1::2, 1::2]
    ab = mat[0::2, 1::2]
    return (
        np.abs(aa - bb).max(initial=0.0) <= 1e-12
        and np.abs(ab).max(initial=0.0) <= 1e-12
    )


def _one_body_modes(htilde):
    """Eigenmodes of the shifted one-body matrix, spin partners grouped.

    For a spin-symmetric matrix the spatial eigenproblem is solved once
    and each eigenvector spawns both interleaved spin columns under a
    single mode (so the pool counts spatial modes); otherwise every
    spin-orbital eigenvector is its own mode.
    """
    n = htilde.shape[0]
    if _is_spin_symmetric(htilde):
        kappa_sp, vecs_sp = np.linalg.eigh(htilde[0::2, 0::2])
        modes = []
        for eta in range(len(kappa_sp)):
            cols = np.zeros((n, 2))
            cols[0::2, 0] = vecs_sp[:, eta]
            cols[1::2, 1] = vecs_sp[:, eta]
            modes.append((float(kappa_sp[eta]), cols))
        return modes
    kappa, vecs = np.linalg.eigh(htilde)
    return [
        (float(kappa[eta]), vecs[:, eta : eta + 1].copy())
        for eta in range(len(kappa))
    ]


def build_hamiltonian_pool(ints, tau_chol, tau_eig):
    """Factor the Hamiltonian into its rank-one ladder pool.

    The mean-field-shifted one-body matrix supplies diagonal one-body
    mode ladders (one per retained eigenmode, with alpha/beta partners of
    a spin-free input sharing an address); the Cholesky channels enter
    with the 1/2 two-body prefactor folded into their coefficients.
    """
    _check_threshold("tau_eig", tau_eig)  # checked even when no channel is kept
    htilde = mean_field_shift(ints)
    if np.abs(htilde.imag).max() > 1e-13:
        raise ValidationError("complex one-body matrices are not supported")
    modes = _one_body_modes(htilde.real)
    modes.sort(key=lambda item: -abs(item[0]))
    one_body = tuple(
        OneBodyModeLadder(vectors=cols, coefficient=kappa, address=k)
        for k, (kappa, cols) in enumerate(modes)
    )
    channels = [
        channel_eigendecomp(ch, tau_eig) for ch in pivoted_cholesky(ints, tau_chol)
    ]
    chan_ladders = tuple(
        ChannelLadder(channel=ch, coefficient=0.5, address=len(one_body) + k)
        for k, ch in enumerate(channels)
    )
    return HamiltonianPool(
        one_body=one_body,
        channels=chan_ladders,
        n_so=ints.n_so,
        n_elec=ints.n_elec,
        e_nn=ints.e_nn,
    )


# ---------------------------------------------------------------------------
# doubles amplitudes and the generator pool
# ---------------------------------------------------------------------------


def mp2_amplitudes(ints):
    """Second-order doubles amplitudes on the restricted pair storage.

    ``t[(a<b),(i<j)] = <ij||ab> / (eps_i + eps_j - eps_a - eps_b)`` with the
    conventional quarter factor omitted by the restricted sums; the
    second-order correlation energy is attached to the returned tensor.
    Orbitals are assumed canonical and energy ordered.
    """
    if ints.orb_energies is None:
        ints = with_orbital_energies(ints)
    eps = ints.orb_energies
    n_occ = ints.n_elec
    n_virt = ints.n_so - n_occ
    if n_occ < 2 or n_virt < 2:
        return T2Tensor(
            np.zeros((n_virt * (n_virt - 1) // 2, n_occ * (n_occ - 1) // 2)),
            n_occ,
            n_virt,
            e_corr=0.0,
        )
    occ_pairs = ladder_mod.pair_indices(n_occ)
    virt_pairs = ladder_mod.pair_indices(n_virt)
    t = np.zeros((len(virt_pairs), len(occ_pairs)))
    e_corr = 0.0
    for col, (i, j) in enumerate(occ_pairs):
        for row, (a, b) in enumerate(virt_pairs):
            ga, gb = n_occ + a, n_occ + b
            anti = ints.eri[i, j, ga, gb] - ints.eri[i, j, gb, ga]
            denom = eps[i] + eps[j] - eps[ga] - eps[gb]
            if abs(denom) < 1e-8:
                raise DegenerateGapError(
                    f"degenerate denominator for (i,j,a,b)=({i},{j},{ga},{gb}): "
                    f"{denom:.3e}"
                )
            t[row, col] = anti / denom
            e_corr += t[row, col] * anti
    return T2Tensor(t, n_occ, n_virt, e_corr=float(e_corr))


def _youla_wedges(m):
    """Real skew-symmetric canonical form as ``sum_k beta_k (x y^T - y x^T)``.

    Uses the real Schur form, whose 2x2 antisymmetric blocks give the
    optimal rank-k wedge truncation.  Returns ``(betas, xs, ys)`` with
    ``beta_k > 0`` sorted descending.
    """
    n = m.shape[0]
    if n < 2 or np.abs(m).max() == 0.0:
        return np.array([]), [], []
    t, z = sla.schur(m, output="real")
    blocks = []
    i = 0
    while i < n - 1:
        beta = t[i, i + 1]
        if abs(t[i + 1, i]) > 1e-13 or abs(beta) > 1e-13:
            x = z[:, i].copy()
            y = z[:, i + 1].copy()
            if beta < 0:
                x, y = y, x
                beta = -beta
            blocks.append((float(beta), x, y))
            i += 2
        else:
            i += 1
    blocks.sort(key=lambda item: -item[0])
    if not blocks:
        return np.array([]), [], []
    betas, xs, ys = zip(*blocks)
    return np.array(betas), list(xs), list(ys)


def nested_svd_t2(t2, tau_svd=1e-6, tau_wedge=1e-6):
    """Decompose the doubles tensor into pair-excitation ladders.

    SVD on the pair matrix, then a skew-spectral wedge extraction of every
    retained singular vector on each side.  The product of the singular
    value and the two wedge weights supplies the real ladder coefficient
    ``omega``; with zero thresholds the decomposition is exact.
    """
    _check_threshold("tau_svd", tau_svd)
    _check_threshold("tau_wedge", tau_wedge)
    amp = t2.amplitudes
    if np.abs(amp).max(initial=0.0) == 0.0:
        return GeneratorPool(
            ladders=(), n_occ=t2.n_occ, n_virt=t2.n_virt, n_elec=t2.n_occ
        )
    u, sing, vh = np.linalg.svd(amp, full_matrices=False)
    smax = sing[0]
    ladders = []
    address = 1
    for mu in range(len(sing)):
        if smax > 0 and sing[mu] / smax < tau_svd:
            break
        if sing[mu] == 0.0:
            break
        mv = unpack_skew(u[:, mu], t2.n_virt)
        mo = unpack_skew(vh[mu, :], t2.n_occ)
        betas, xs, ys = _youla_wedges(mv)
        gammas, rs, ss = _youla_wedges(mo)
        if len(betas) == 0 or len(gammas) == 0:
            continue
        bmax, gmax = betas[0], gammas[0]
        for kap in range(len(betas)):
            if betas[kap] / bmax < tau_wedge:
                break
            for eta in range(len(gammas)):
                if gammas[eta] / gmax < tau_wedge:
                    break
                omega = float(sing[mu] * betas[kap] * gammas[eta])
                ladders.append(
                    PairLadder(
                        x=xs[kap],
                        y=ys[kap],
                        r=rs[eta],
                        s=ss[eta],
                        coefficient=omega,
                        address=address,
                    )
                )
                address += 1
    return GeneratorPool(
        ladders=tuple(ladders), n_occ=t2.n_occ, n_virt=t2.n_virt, n_elec=t2.n_occ
    )


def rebuild_t2(pool, n_virt=None, n_occ=None):
    """Pair matrix reassembled from a generator pool (reconstruction check)."""
    n_virt = n_virt or pool.n_virt
    n_occ = n_occ or pool.n_occ
    nvp = n_virt * (n_virt - 1) // 2
    nop = n_occ * (n_occ - 1) // 2
    out = np.zeros((nvp, nop))
    for lad in pool.ladders:
        if lad.kind != "pair":
            continue
        out += lad.coefficient * np.outer(
            lad.virtual_pair_vector().real, lad.occupied_pair_vector().real
        )
    return out


# ---------------------------------------------------------------------------
# pool serialization
# ---------------------------------------------------------------------------


# packed arrays of a serialized channel, in document order
CHANNEL_ARRAYS = ("factor", "eigvals", "rotation", "rotation_full")
# complex vectors of a serialized generator ladder, per kind: each a column
GENERATOR_VECTORS = {"pair": ("x", "y", "r", "s"), "bilinear": ("u", "v")}
# each kind's ladder type, built from its vectors, coefficient and address in order
_GENERATOR_LADDERS = {"pair": PairLadder, "bilinear": BilinearLadder}
# the generator section's keys: its counts, then one block per kind
_GENERATOR_KEYS = frozenset({"alpha_bar", "ell", "n_occ", "n_virt", *GENERATOR_VECTORS})


def _packed(arr):
    """Standard base64 of ``arr``'s little-endian float64 bytes, row-major."""
    return base64.b64encode(np.asarray(arr, "<f8").tobytes()).decode()


def _packed_complex(vec):
    """A complex vector packed as interleaved real and imaginary parts.

    A contiguous little-endian complex128 copy already holds them in that
    order, so its float64 view is packed as it stands.
    """
    return _packed(np.ascontiguousarray(vec, "<c16").view("<f8"))


def _ladder_fields(item, where):
    """Checked ``coefficient`` and ``address`` of one serialized ladder."""
    coefficient = checked(item["coefficient"], NUMBER, f"{where} coefficient")
    return {
        "coefficient": float(coefficient),
        "address": checked(item["address"], INT, f"{where} address"),
    }


def pools_to_json(ham, gen=None, manifest=None):
    """Serialize the compile-stage pool contract, encoded once.

    ``manifest``, a JSON-ready dict, is stored under the ``manifest`` key
    when given (``composer factorize`` writes its run manifest there); the
    library callers pass none, and the key is then absent.
    """
    doc = {
        "format": POOL_FORMAT,
        "n_so": ham.n_so,
        "n_elec": ham.n_elec,
        "e_nn": ham.e_nn,
        "hamiltonian": {
            "alpha": ham.alpha,
            "ell": ham.ell,
            "one_body": [
                {
                    "address": lad.address,
                    "coefficient": lad.coefficient,
                    "multiplicity": lad.multiplicity,
                    "vectors": _packed(lad.vectors),
                }
                for lad in ham.one_body
            ],
            "channels": [
                {
                    "address": lad.address,
                    "coefficient": lad.coefficient,
                    **{key: _packed(getattr(lad.channel, key))
                       for key in CHANNEL_ARRAYS},
                }
                for lad in ham.channels
            ],
        },
    }
    if gen is not None:
        doc["generator"] = {
            "alpha_bar": gen.alpha_bar,
            "ell": gen.ell,
            "n_occ": gen.n_occ,
            "n_virt": gen.n_virt,
            **_generator_blocks(gen),
        }
    if manifest is not None:
        doc["manifest"] = manifest
    return json.dumps(doc, sort_keys=True)


def _generator_blocks(gen):
    """One block per ladder kind: its ladders in address order, by columns.

    ``address`` and ``coefficient`` are JSON lists; each vector key packs
    the kind's vectors stacked in list order, as interleaved complex.
    """
    ladders = sorted(gen.ladders, key=attrgetter("address"))
    unknown = [lad.kind for lad in ladders if lad.kind not in GENERATOR_VECTORS]
    if unknown:
        raise ValidationError(f"unsupported generator ladder kind {unknown[0]!r}")
    blocks = {}
    for kind, keys in GENERATOR_VECTORS.items():
        lads = [lad for lad in ladders if lad.kind == kind]
        blocks[kind] = {
            "address": [lad.address for lad in lads],
            "coefficient": [lad.coefficient for lad in lads],
            # stacked as complex (a real vector gets +0.0 imaginary parts),
            # so an empty kind packs as ""
            **{key: _packed_complex(np.concatenate(
                [np.zeros(0, complex), *(getattr(lad, key) for lad in lads)]))
               for key in keys},
        }
    return blocks


def _rows_real_where_possible(z):
    """The rows of the complex array ``z``, one array each.

    A row whose imaginary parts are all zero is real: a row of one
    contiguous copy of every real part.
    """
    real = z.real.copy()
    has_imag = (z.imag != 0).any(axis=1).tolist()
    return [row if imag else real_row for row, real_row, imag in zip(z, real, has_imag)]


@fields_of("pool")
def pools_from_json(text):
    """Inverse of :func:`pools_to_json`; returns ``(ham, gen_or_None)``.

    Every field read is type-checked; a wrongly typed or missing one is a
    ParseError.  Every packed array of the pool is decoded in one batch
    (:func:`errors.checked_packed_batch`), each array a view of it, and
    checked for the length its ladders need: a generator column holds
    ``len(address)`` vectors of its key's size.  Each generator ladder
    takes one row of each of its kind's columns; a pair ladder's row whose
    imaginary parts are all zero is real, a bilinear ladder's vectors are
    complex.  The generator pool lists its ladders in address order.
    """
    doc = checked(json.loads(text), DICT, "pool")
    if doc.get("format") != POOL_FORMAT:
        raise ParseError(f"expected format {POOL_FORMAT!r}")
    n = checked(doc["n_so"], INT, "n_so")
    hdoc = checked(doc["hamiltonian"], DICT, "hamiltonian")
    modes = checked_list(hdoc["one_body"], DICT, "one_body")
    chans = checked_list(hdoc["channels"], DICT, "channels")
    gdoc, blocks = None, {}
    if "generator" in doc:
        gdoc = checked(doc["generator"], DICT, "generator")
        checked_keys(gdoc, _GENERATOR_KEYS, "generator")
        blocks = {kind: _generator_block(gdoc[kind], kind)
                  for kind in GENERATOR_VECTORS}

    # every packed array, in document order: one batch
    packed = [(item["vectors"], "one_body ladder vectors") for item in modes]
    packed += [
        (item[key], f"channel {key}") for item in chans for key in CHANNEL_ARRAYS
    ]
    packed += [
        (block[key], f"generator {kind} {key}")
        for kind, (block, _, _) in blocks.items()
        for key in GENERATOR_VECTORS[kind]
    ]
    values, bounds = checked_packed_batch(packed)
    arrays = iter(
        (values[start:stop], what)
        for (_, what), start, stop in zip(packed, bounds, bounds[1:])
    )

    def take(size=None):
        """The next packed array, checked to hold ``size`` values if given."""
        arr, what = next(arrays)
        if size is not None and len(arr) != size:
            raise ParseError(f"{what} must hold {size} float64 values, not {len(arr)}")
        return arr

    one_body = []
    for item in modes:
        m = checked(item["multiplicity"], INT, "one_body ladder multiplicity")
        one_body.append(OneBodyModeLadder(
            vectors=take(n * m).reshape(n, m), **_ladder_fields(item, "one_body ladder")
        ))
    channels = []
    for item in chans:
        factor = take(n * n).reshape(n, n)
        eig = take()
        ch = CholeskyChannel(
            index=len(channels),
            factor=factor,
            eigvals=eig,
            rotation=take(n * len(eig)).reshape(n, len(eig)),
            rotation_full=take(n * n).reshape(n, n),
        )
        channels.append(ChannelLadder(channel=ch, **_ladder_fields(item, "channel")))
    ham = HamiltonianPool(
        one_body=tuple(one_body),
        channels=tuple(channels),
        n_so=n,
        n_elec=checked(doc["n_elec"], INT, "n_elec"),
        e_nn=float(checked(doc.get("e_nn", 0.0), NUMBER, "e_nn")),
    )
    if gdoc is None:
        return ham, None
    n_occ = checked(gdoc["n_occ"], INT, "generator n_occ")
    n_virt = checked(gdoc["n_virt"], INT, "generator n_virt")
    sizes = {"x": n_virt, "y": n_virt, "r": n_occ, "s": n_occ, "u": n, "v": n}
    gen_ladders = []
    for kind, (_, addresses, coefficients) in blocks.items():
        count = len(addresses)
        columns = []
        for key in GENERATOR_VECTORS[kind]:
            # interleaved real and imaginary parts, one row per ladder
            z = take(2 * count * sizes[key]).view(complex).reshape(count, sizes[key])
            columns.append(_rows_real_where_possible(z) if kind == "pair" else list(z))
        gen_ladders += map(_GENERATOR_LADDERS[kind], *columns, coefficients, addresses)
    gen = GeneratorPool(
        ladders=tuple(sorted(gen_ladders, key=attrgetter("address"))),
        n_occ=n_occ,
        n_virt=n_virt,
        n_elec=n_occ,
    )
    return ham, gen


def _generator_block(block, kind):
    """``(block, addresses, coefficients)`` of one kind's checked block."""
    where = f"generator {kind}"
    checked(block, DICT, where)
    addresses = checked_list(block["address"], INT, f"{where} address")
    coefficients = checked_list(block["coefficient"], NUMBER, f"{where} coefficient")
    if len(addresses) != len(coefficients):
        raise ParseError(
            f"{where} address and coefficient must have equal lengths, "
            f"not {len(addresses)} and {len(coefficients)}"
        )
    return block, addresses, [float(c) for c in coefficients]
