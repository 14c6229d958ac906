"""Periodic hypercubic lattice geometry.

The simulation cell is the torus [-L, L)^nu with integer sites and periodic
identification L = -L, so there are (2L)^nu sites.  L must be a positive odd
integer; oddness is what makes the left/right reflection used by the
reflection-positivity machinery map the even sublattice onto the odd one.

Site ordering is lexicographic on coordinates.  Because coordinates run from
-L to L-1, this automatically places every site of the left half
(x_1 < 0) before every site of the right half (x_1 >= 0), which the
Hilbert-space factorization in :mod:`hhlab.rpverify` relies on.

A "field configuration" h is simply a numpy array of length ``n_sites``
(real or complex), indexed in site order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

__all__ = ["Lattice", "Bond", "build_lattice", "dispersion"]


@dataclass(frozen=True)
class Bond:
    """Directed nearest-neighbor bond (x, x + delta_j), reduced mod 2L."""

    i: int          # index of x
    j: int          # index of x + delta_j
    direction: int  # j in 1..nu


class Lattice:
    """Torus [-L, L)^nu with parity, reflection, Laplacian and momentum tools.

    Immutable after construction; safe to share between threads.  The
    per-geometry tables (``staggered_signs``, the matrix of -Delta) are
    built on first use, once, and handed out read-only.
    """

    def __init__(self, nu, ell, _sites=None):
        if _sites is not None:
            # degenerate single-site cell, used by unit tests only
            self.nu = nu
            self.ell = ell
            self.sites = _sites
        else:
            if nu < 1:
                raise ValueError(f"spatial dimension must be >= 1, got {nu}")
            if ell < 1 or ell % 2 == 0:
                raise ValueError(f"L must be a positive odd integer, got {ell}")
            self.nu = int(nu)
            self.ell = int(ell)
            self.sites = [tuple(x) for x in product(range(-ell, ell), repeat=nu)]
        self.site_index = {x: i for i, x in enumerate(self.sites)}
        self.n_sites = len(self.sites)

    @classmethod
    def single_site(cls):
        """One-site cell with no bonds (unit-test helper, not a real torus)."""
        return cls(1, 1, _sites=[(0,)])

    # -- geometry -----------------------------------------------------------

    def wrap(self, x):
        """Reduce a coordinate vector to its representative in [-L, L)^nu."""
        two_ell = 2 * self.ell
        return tuple((c + self.ell) % two_ell - self.ell for c in x)

    def shift(self, x, direction, step=1):
        """Site x + step * delta_direction (direction in 1..nu), wrapped."""
        y = list(x)
        y[direction - 1] += step
        return self.wrap(y)

    def norm1(self, x):
        """Taxicab norm sum_j |x_j| of the canonical representative."""
        return sum(abs(c) for c in x)

    def parity(self, x):
        """'even' or 'odd' according to the parity of sum_j |x_j|."""
        return "even" if self.norm1(x) % 2 == 0 else "odd"

    def staggered_sign(self, x):
        """(-1)**(sum_j |x_j|) of the canonical representative."""
        return -1 if self.norm1(x) % 2 else 1

    @cached_property
    def staggered_signs(self):
        """The staggered_sign of every site, in site order, as a read-only float vector."""
        return _read_only(np.array([self.staggered_sign(x) for x in self.sites], dtype=float))

    @property
    def even_sites(self):
        return [x for x in self.sites if self.norm1(x) % 2 == 0]

    @property
    def odd_sites(self):
        return [x for x in self.sites if self.norm1(x) % 2 == 1]

    @property
    def left_sites(self):
        """Sites with x_1 < 0, in site order."""
        return [x for x in self.sites if x[0] < 0]

    @property
    def right_sites(self):
        """Sites with x_1 >= 0, in site order."""
        return [x for x in self.sites if x[0] >= 0]

    def reflect(self, x):
        """Reflection r(x) = (-x_1 - 1, x_2, ..., x_nu), defined on x_1 >= 0.

        Maps the right half onto the left half bijectively and flips
        sublattice parity (|x_1| changes parity, other entries unchanged).
        """
        if x[0] < 0:
            raise ValueError(f"reflect is defined on the right half (x_1 >= 0), got {x}")
        return (-x[0] - 1,) + tuple(x[1:])

    def reflect_inv(self, y):
        """Inverse reflection, defined on the left half (x_1 < 0)."""
        if y[0] >= 0:
            raise ValueError(f"reflect_inv is defined on the left half (x_1 < 0), got {y}")
        return (-y[0] - 1,) + tuple(y[1:])

    # -- bonds and Laplacian --------------------------------------------------

    def bonds(self):
        """Directed bond enumeration sum_x sum_j (x, x + delta_j).

        Each undirected nearest-neighbor pair appears exactly once for
        L >= 3.  For L = 1 the wrap-around makes x + delta_j and x - delta_j
        the same site, so each pair appears twice; this mirrors the literal
        Hamiltonian sums and is intended.
        """
        if self.n_sites == 1:
            return []
        out = []
        for x in self.sites:
            for j in range(1, self.nu + 1):
                y = self.shift(x, j)
                out.append(Bond(self.site_index[x], self.site_index[y], j))
        return out

    def laplacian_matrix(self):
        """Dense matrix of -Delta (positive semidefinite, kernel = constants),
        built once and returned read-only: copy it to modify it.

        (-Delta h)_x = 2 nu h_x - sum_j (h_{x+delta_j} + h_{x-delta_j}),
        summed over :meth:`bonds` (at L = 1, x + delta_j = x - delta_j).  It
        is the lattice's one -Delta: every caller takes
        ``laplacian_matrix() @ h``, so the infrared forms and checks that
        share an f = (-Delta) h agree to the bit.
        """
        return self._laplacian_matrix

    @cached_property
    def _laplacian_matrix(self):
        n = self.n_sites
        m = np.zeros((n, n))
        for b in self.bonds():
            m[b.i, b.i] += 1.0
            m[b.j, b.j] += 1.0
            m[b.i, b.j] -= 1.0
            m[b.j, b.i] -= 1.0
        return _read_only(m)

    # -- momentum space -------------------------------------------------------

    def momentum_grid(self):
        """Dual grid points p with p_j = pi k_j / L, k_j in [-L, L).

        Representatives live in [-pi, pi), matching the site coordinate
        range; -pi is equivalent to +pi mod 2 pi for integer sites.
        Returns an array of shape (n_sites, nu), lexicographic in k.
        """
        ks = np.array(list(product(range(-self.ell, self.ell), repeat=self.nu)))
        return np.pi * ks / self.ell

    def fourier(self, h):
        """hat h(p) = (2 pi)^(-nu/2) sum_x e^{-i x.p} h_x on the dual grid."""
        h = np.asarray(h, dtype=complex)
        xs = np.array(self.sites)
        ps = self.momentum_grid()
        phase = np.exp(-1j * ps @ xs.T)
        return (2 * np.pi) ** (-self.nu / 2) * phase @ h

    def fourier_inverse(self, hhat):
        """Inverse of :meth:`fourier`; reproduces h to roundoff."""
        hhat = np.asarray(hhat, dtype=complex)
        xs = np.array(self.sites)
        ps = self.momentum_grid()
        phase = np.exp(1j * xs @ ps.T)
        return (2 * np.pi) ** (self.nu / 2) / self.n_sites * phase @ hhat

    def __repr__(self):
        return f"Lattice(nu={self.nu}, ell={self.ell}, n_sites={self.n_sites})"


def _read_only(a):
    a.flags.writeable = False
    return a


def build_lattice(nu, ell):
    """Build the torus [-L, L)^nu; rejects even or nonpositive L."""
    return Lattice(nu, ell)


def dispersion(p):
    """Return (E, F) with E = sum_j (1 - cos p_j), F = sum_j (1 + cos p_j).

    E >= 0 with equality only at p = 0; E + F = 2 nu identically.  E is the
    symbol of -Delta up to a factor 2: -Delta e^{ip.x} = 2 E(p) e^{ip.x}.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    c = np.cos(p)
    return float(np.sum(1.0 - c)), float(np.sum(1.0 + c))
