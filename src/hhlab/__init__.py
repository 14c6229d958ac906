"""Exact-diagonalization laboratory for the extended Holstein-Hubbard model.

Modules:

* ``lattice``  -- periodic torus geometry, parity, reflection, Laplacian,
  momentum grid.
* ``hilbert``  -- fermion (x) truncated-phonon tensor basis and operators,
  and ``Monomial``, the signed permutations that hold the exact unitaries.
* ``model``    -- the Hamiltonian, its phase-dressed and zigzag images, the
  external-field family, and the explicit unitary transformations.
* ``sectors``  -- the split of a Hamiltonian into connected components and
  their real gauge, and the spin-SU(2) and reflection sectors of H''.
* ``thermo``   -- spectral data, thermal expectations, the infrared
  quadratic forms, charge correlations.
* ``rpverify`` -- the antiunitary reflection, left/right factorization,
  and exact verification of every inequality in the reflection-positivity
  chain (partition-function Cauchy-Schwarz, Gaussian domination, infrared
  bounds, half filling, free-energy bounds).
* ``fuzz``     -- the stacked solvers behind the random-instance fuzz of
  ``rpverify``: the two-Hilbert-space inequality, solved with its two
  symmetric Hamiltonians as real matrices, and the convexity lemma.
* ``bounds``   -- the closed-form staggered charge-order bound, torus
  quadrature, parameter sweeps, finite-volume momentum-space identities.
* ``cli``      -- the ``hhlab`` command-line front end.
"""

from .lattice import Lattice, build_lattice, dispersion
from .hilbert import HilbertBasis, build_basis
from .model import ModelParams
from .bounds import BoundReport, main_bound, torus_integral

__all__ = [
    "Lattice", "build_lattice", "dispersion",
    "HilbertBasis", "build_basis",
    "ModelParams",
    "BoundReport", "main_bound", "torus_integral",
]

__version__ = "0.1.0"
