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
rung.  Every fermion-factor operator is read off
:meth:`HilbertBasis.mode_tables` by bit arithmetic: c is a CSR signed
partial permutation, and the parity and the occupations are 1-d diagonals.
hhlab.model sums each bond term's fermion factor, read off the same tables,
with the entries of its small dense boson factor into a CSR array, and
hhlab.rpverify compares the reflection split as sparse Kronecker products
and diagonal vectors.  The boson-factor operators are small dense matrices,
each a one-site block of :func:`site_boson` embedded in the boson factor.  A
hard dimension cap keeps sizes at desk scale.  The exact unitaries of
hhlab.model are signed permutations, held as a :class:`Monomial` and
applied by re-indexing, to a CSR array or to a diagonal given as a 1-d
vector (a dense matrix is refused).  The reflection theta of hhlab.rpverify
is one too, read off the mode tables of the half spaces, and densified only
for its antiunitary map, whose checks also take dense random unitaries;
the Lang-Firsov unitary of hhlab.model is a block-diagonal CSR array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._lazy import LazyModule

__all__ = [
    "Monomial",
    "HilbertBasis",
    "build_basis",
    "site_boson",
    "adjoint",
    "hermiticity_residual",
]

sparse = LazyModule("scipy.sparse")

DEFAULT_DIM_CAP = 16384


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
        """U A U^-1 for a scipy.sparse matrix A, as a CSR array by
        (U A U^T)[perm[i], perm[j]] = sign[i] sign[j] A[i, j], or for a
        diagonal given as a 1-d vector.  A dense 2-d A is refused with
        TypeError: pass ``csr_array(A)``."""
        if sparse.issparse(a):
            a = a.tocoo()
            return sparse.csr_array((self.sign[a.row] * self.sign[a.col] * a.data,
                                     (self.perm[a.row], self.perm[a.col])), shape=a.shape)
        if np.ndim(a) != 1:
            raise TypeError(f"Monomial.conjugate takes a scipy.sparse matrix or a 1-d "
                            f"diagonal, not a dense array of shape {np.shape(a)}")
        return a[np.argsort(self.perm)]

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
        self._mode_tables = None
        self._boson_cache = {}

    # -- index arithmetic -----------------------------------------------------

    def _site_slot(self, x):
        x = tuple(x)
        if x not in self.site_index:
            raise ValueError(f"unknown site {x}")
        return self.site_index[x]

    def mode_index(self, x, spin):
        if spin not in ("up", "down"):
            raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")
        return 2 * self._site_slot(x) + (0 if spin == "up" else 1)

    def boson_tuple(self, boson_index):
        """Per-site phonon occupations of boson basis state ``boson_index``."""
        d = self.n_max + 1
        out = []
        for _ in range(self.n_sites):
            out.append(boson_index % d)
            boson_index //= d
        return tuple(reversed(out))

    # -- fermion operators (on the fermion factor) ------------------------------

    def mode_tables(self):
        """(occupations, strings) on the fermion factor, each (n_modes, fermion_dim):
        the occupation n_m of every mode m in every fermion state, and the sign
        (-1)^(n_0 + ... + n_(m-1)) of the Jordan-Wigner string of c_m there.

        Built once per basis and read-only.  Every fermion-factor operator
        is read off these by bit arithmetic.
        """
        if self._mode_tables is None:
            shift = self.n_modes - 1 - np.arange(self.n_modes)
            occ = (np.arange(self.fermion_dim) >> shift[:, None]) & 1
            strings = 1.0 - 2.0 * ((np.cumsum(occ, axis=0) - occ) % 2)
            occ.flags.writeable = strings.flags.writeable = False
            self._mode_tables = occ, strings
        return self._mode_tables

    def c(self, x, spin):
        """Annihilator c_{x sigma} with Jordan-Wigner signs on the fermion
        factor, as a CSR signed partial permutation: each state j with
        n_m = 1 goes to j ^ bit_m with the sign strings[m, j] of
        :meth:`mode_tables`.  Row i holds one entry if n_m = 0 at i, and none
        otherwise, so the CSR arrays are written down directly."""
        m = self.mode_index(x, spin)
        occ, strings = self.mode_tables()
        empty = 1 - occ[m]
        cols = np.flatnonzero(empty) ^ (1 << (self.n_modes - 1 - m))
        indptr = np.concatenate(([0], np.cumsum(empty)))
        return sparse.csr_array((strings[m, cols], cols, indptr), shape=(self.fermion_dim,) * 2)

    def cdag(self, x, spin):
        """c*_{x sigma}: the transpose of the real :meth:`c`."""
        return self.c(x, spin).T

    def fermion_parity(self, sites=None):
        """The diagonal of (-1)^(N over sites) on the fermion factor, as a 1-d vector."""
        sites = self.sites if sites is None else sites
        occ = self.mode_tables()[0]
        modes = [self.mode_index(x, spin) for x in sites for spin in ("up", "down")]
        return 1.0 - 2.0 * (occ[modes].sum(axis=0) % 2)

    def fermion_vacuum(self):
        v = np.zeros(self.fermion_dim, dtype=complex)
        v[0] = 1.0
        return v

    # -- boson operators (on the boson factor) ---------------------------------

    def _boson_kron(self, site_slot, block):
        mats = [np.eye(self.n_max + 1, dtype=complex)] * self.n_sites
        mats[site_slot] = block
        return reduce(np.kron, mats)

    def boson(self, x, kind, omega=None):
        """The one-site operator :func:`site_boson` at site x, on the boson factor."""
        s = self._site_slot(x)
        key = (kind, s, omega)
        if key not in self._boson_cache:
            self._boson_cache[key] = self._boson_kron(s, site_boson(self.n_max, kind, omega))
        return self._boson_cache[key]

    def boson_vacuum(self):
        v = np.zeros(self.boson_dim, dtype=complex)
        v[0] = 1.0
        return v

    def vacuum(self):
        return np.kron(self.fermion_vacuum(), self.boson_vacuum())

    def __repr__(self):
        return (f"HilbertBasis(n_sites={self.n_sites}, n_max={self.n_max}, "
                f"total_dim={self.total_dim})")


def site_boson(n_max, kind, omega=None):
    """A truncated ladder operator of one site, a dense complex (n_max + 1)-square matrix.

    kind: 'annihilate', 'create', 'number', 'position', 'momentum'.
    position = (b* + b)/sqrt(2 omega), momentum = i sqrt(omega/2)(b* - b);
    both Hermitian, require ``omega``.
    """
    b = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    if kind == "annihilate":
        return b
    if kind == "create":
        return b.conj().T
    if kind == "number":
        return b.conj().T @ b
    if kind not in ("position", "momentum"):
        raise ValueError(f"unknown boson operator kind {kind!r}")
    if omega is None or omega <= 0:
        raise ValueError("position/momentum need omega > 0")
    if kind == "position":
        return (b.conj().T + b) / np.sqrt(2.0 * omega)
    return 1j * np.sqrt(omega / 2.0) * (b.conj().T - b)


def build_basis(lattice, n_max, cap=DEFAULT_DIM_CAP):
    """Tensor basis over a lattice; errors out above the dimension cap."""
    return HilbertBasis(lattice.sites, n_max, lattice=lattice, cap=cap)


# -- matrix algebra helpers ------------------------------------------------------


def adjoint(a):
    return np.asarray(a).conj().T


def hermiticity_residual(a):
    """Max-entry deviation of a (dense or scipy.sparse) from its adjoint.

    A sparse a whose transpose has its pattern (every Hermitian operator the
    models build) is compared entry by entry, with no union pattern formed.
    """
    if not sparse.issparse(a):
        a = np.asarray(a)
        if not a.size:
            return 0.0
        return float(abs(a - a.conj().T).max())
    a = sparse.csr_array(a)
    t = a.T.tocsr()
    if (a.has_canonical_format and np.array_equal(a.indptr, t.indptr)
            and np.array_equal(a.indices, t.indices)):
        return float(np.max(np.abs(a.data - t.data.conj()), initial=0.0))
    return float(abs(a - t.conj()).max())
