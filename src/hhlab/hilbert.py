"""Finite tensor Hilbert space: fermions x truncated phonons.

The space is F (x) P, where F is the fermionic Fock space over the modes
(x, sigma) -- occupancy bitstrings over 2*n_sites modes -- and P is the
product of per-site phonon ladders truncated at occupation ``n_max``.

Conventions
-----------
* Mode order is site-major (lattice site order, i.e. all left-half modes
  before all right-half modes), with spin up before spin down at each site.
* Fermion basis index: mode 0 is the slowest (leftmost kron factor), so
  i_F = sum_m n_m 2^(M-1-m).  Jordan-Wigner strings run over modes m' < m.
* Boson basis index: site-major base-(n_max+1), site 0 slowest.
* A full-space operator is kron(F_part, B_part); the flat index is
  i = i_F * boson_dim + i_B.

The truncated model is the object of study: all operator identities are
exact finite-dimensional statements (the truncated position operator is
still Hermitian, so its phase exponentials are exactly unitary).  The only
deliberately truncated relation is the CCR,
[b, b*] = 1 - (n_max + 1) P_top, with P_top the projector onto the top
rung.  Operators on each factor are dense complex matrices; the embeddings
here form dense full-space Kronecker products for small-size diagnostics
and test oracles only.  hhlab.model scatters the nonzero entries of each
term's small fermion and boson factors straight into one dense matrix (or
into scipy.sparse terms), and hhlab.rpverify compares the reflection split
as sparse Kronecker products and diagonal vectors.  A hard dimension cap keeps
sizes at desk scale.  The exact unitaries of hhlab.model are signed
permutations, held as a :class:`Monomial` and applied by re-indexing; only
the truly dense Lang-Firsov unitary and theta (whose checks also take dense
random unitaries) stay dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Monomial",
    "HilbertBasis",
    "build_basis",
    "adjoint",
    "hermiticity_residual",
]

DEFAULT_DIM_CAP = 16384
_STRIP_ROWS = 128   # rows per strip of row_strips: 8 MB of complex128 at dim 4096

_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # <0|c|1> = 1
_SIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)       # (-1)^n


@dataclass(frozen=True, eq=False)
class Monomial:
    """The signed permutation U e_i = sign[i] e_{perm[i]}, every sign +1 or -1.

    U^-1 = U^T, so U A U^-1 is a re-indexing of A with sign flips, exact to the bit.
    """

    perm: np.ndarray
    sign: np.ndarray

    def compose(self, other):
        """The product self @ other (other acts first)."""
        return Monomial(self.perm[other.perm], other.sign * self.sign[other.perm])

    def kron(self, other):
        """self (x) other, with self the slow index."""
        return Monomial((self.perm[:, None] * len(other.perm) + other.perm).ravel(),
                        np.outer(self.sign, other.sign).ravel())

    def conjugate(self, a):
        """U A U^-1 for a dense matrix A, or for a diagonal given as a 1-d vector."""
        inv = np.argsort(self.perm)
        if a.ndim == 1:
            return a[inv]
        out = a[np.ix_(inv, inv)]
        out *= self.sign[inv][:, None]
        out *= self.sign[inv]
        return out

    def to_dense(self):
        return np.eye(len(self.perm))[:, self.perm] * self.sign


class HilbertBasis:
    """Indexed tensor basis for fermions on ``sites`` x truncated phonons.

    Usually built from a lattice via :func:`build_basis`; ``sites`` alone is
    enough for the half-space bases used by the reflection machinery.
    """

    def __init__(self, sites, n_max, lattice=None, cap=DEFAULT_DIM_CAP):
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.lattice = lattice
        self.sites = [tuple(x) for x in sites]
        self.site_index = {x: i for i, x in enumerate(self.sites)}
        self.n_sites = len(self.sites)
        self.n_max = int(n_max)
        self.modes = [(x, s) for x in self.sites for s in ("up", "down")]
        self.n_modes = 2 * self.n_sites
        self.fermion_dim = 2 ** self.n_modes
        self.boson_dim = (self.n_max + 1) ** self.n_sites
        self.total_dim = self.fermion_dim * self.boson_dim
        if self.total_dim > cap:
            raise ValueError(
                f"total dimension {self.total_dim} exceeds the cap {cap}; "
                "reduce the lattice size or n_max (or raise cap= explicitly)"
            )
        self._fermion_cache = {}
        self._boson_cache = {}

    # -- index arithmetic -----------------------------------------------------

    def mode_index(self, x, spin):
        if spin not in ("up", "down"):
            raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")
        x = tuple(x)
        if x not in self.site_index:
            raise ValueError(f"unknown site {x}")
        return 2 * self.site_index[x] + (0 if spin == "up" else 1)

    def boson_tuple(self, boson_index):
        """Per-site phonon occupations of boson basis state ``boson_index``."""
        d = self.n_max + 1
        out = []
        for _ in range(self.n_sites):
            out.append(boson_index % d)
            boson_index //= d
        return tuple(reversed(out))

    # -- fermion operators (on the fermion factor) ------------------------------

    def _fermion_kron(self, slot, block):
        mats = [_SIGN] * slot + [block] + [np.eye(2, dtype=complex)] * (self.n_modes - slot - 1)
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def c(self, x, spin):
        """Annihilator c_{x sigma} with Jordan-Wigner signs, fermion factor."""
        m = self.mode_index(x, spin)
        if ("c", m) not in self._fermion_cache:
            self._fermion_cache[("c", m)] = self._fermion_kron(m, _ANNIHILATE)
        return self._fermion_cache[("c", m)]

    def cdag(self, x, spin):
        return self.c(x, spin).conj().T

    def n_spin(self, x, spin):
        """Number operator n_{x sigma} (diagonal)."""
        cd = self.cdag(x, spin)
        return cd @ self.c(x, spin)

    def n_site(self, x):
        """n_x = n_{x up} + n_{x down} (diagonal)."""
        return self.n_spin(x, "up") + self.n_spin(x, "down")

    def charge(self, x):
        """q_x = n_x - 1 (diagonal, eigenvalues -1, 0, 0, +1 per site)."""
        return self.n_site(x) - np.eye(self.fermion_dim)

    def spin_z(self, x):
        """s_x = n_{x up} - n_{x down} (diagonal)."""
        return self.n_spin(x, "up") - self.n_spin(x, "down")

    def fermion_parity(self, sites=None):
        """(-1)^(N over sites) as a diagonal matrix on the fermion factor."""
        sites = self.sites if sites is None else sites
        diag = np.ones(self.fermion_dim)
        for x in sites:
            for spin in ("up", "down"):
                m = self.mode_index(x, spin)
                occ = (np.arange(self.fermion_dim) >> (self.n_modes - 1 - m)) & 1
                diag = diag * np.where(occ, -1.0, 1.0)
        return np.diag(diag.astype(complex))

    def fermion_vacuum(self):
        v = np.zeros(self.fermion_dim, dtype=complex)
        v[0] = 1.0
        return v

    # -- boson operators (on the boson factor) ---------------------------------

    def _ladder(self):
        d = self.n_max + 1
        b = np.zeros((d, d), dtype=complex)
        for n in range(1, d):
            b[n - 1, n] = np.sqrt(n)
        return b

    def _boson_kron(self, site_slot, block):
        d = self.n_max + 1
        eye = np.eye(d, dtype=complex)
        mats = [eye] * self.n_sites
        mats[site_slot] = block
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def boson(self, x, kind, omega=None):
        """Truncated ladder operators at site x, on the boson factor.

        kind: 'annihilate', 'create', 'number', 'position', 'momentum'.
        position = (b* + b)/sqrt(2 omega), momentum = i sqrt(omega/2)(b* - b);
        both Hermitian, require ``omega``.
        """
        s = self.site_index[tuple(x)]
        key = (kind, s, omega)
        if key in self._boson_cache:
            return self._boson_cache[key]
        b = self._ladder()
        if kind == "annihilate":
            block = b
        elif kind == "create":
            block = b.conj().T
        elif kind == "number":
            block = b.conj().T @ b
        elif kind in ("position", "momentum"):
            if omega is None or omega <= 0:
                raise ValueError("position/momentum need omega > 0")
            if kind == "position":
                block = (b.conj().T + b) / np.sqrt(2.0 * omega)
            else:
                block = 1j * np.sqrt(omega / 2.0) * (b.conj().T - b)
        else:
            raise ValueError(f"unknown boson operator kind {kind!r}")
        out = self._boson_kron(s, block)
        self._boson_cache[key] = out
        return out

    def boson_vacuum(self):
        v = np.zeros(self.boson_dim, dtype=complex)
        v[0] = 1.0
        return v

    # -- embeddings into the full space ----------------------------------------

    def embed_fermion(self, F):
        return np.kron(F, np.eye(self.boson_dim, dtype=complex))

    def embed_boson(self, B):
        return np.kron(np.eye(self.fermion_dim, dtype=complex), B)

    def vacuum(self):
        return np.kron(self.fermion_vacuum(), self.boson_vacuum())

    def __repr__(self):
        return (f"HilbertBasis(n_sites={self.n_sites}, n_max={self.n_max}, "
                f"total_dim={self.total_dim})")


def build_basis(lattice, n_max, cap=DEFAULT_DIM_CAP):
    """Tensor basis over a lattice; errors out above the dimension cap."""
    return HilbertBasis(lattice.sites, n_max, lattice=lattice, cap=cap)


# -- matrix algebra helpers ------------------------------------------------------


def adjoint(a):
    return np.asarray(a).conj().T


def row_strips(n):
    """Slices of _STRIP_ROWS consecutive rows covering range(n).

    A reduction taken strip by strip reads a transposed partner as one block
    of columns, instead of through a full strided transpose, and keeps each
    temporary to a strip; the maximum of the strip maxima is the maximum.
    """
    return [slice(i, min(i + _STRIP_ROWS, n)) for i in range(0, n, _STRIP_ROWS)]


def hermiticity_residual(a):
    """Max-entry deviation of a from its adjoint.

    |a_ij - conj(a_ji)| is symmetric in (i, j), exactly in floating point, so
    only the upper triangle is scanned, one strip of rows at a time.
    """
    a = np.asarray(a)
    if not a.size:
        return 0.0
    return float(np.max([np.max(np.abs(a[s, s.start:] - a[s.start:, s].conj().T))
                         for s in row_strips(a.shape[0])]))
