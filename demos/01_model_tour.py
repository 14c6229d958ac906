"""Tour of the model: the Hamiltonian, its unitary images, and half filling.

Builds the extended Holstein-Hubbard model on the smallest periodic cell
(two sites), shows that the three Hamiltonians H, H', H'' are Hermitian,
that H'' is the exact zigzag image of H', and that the system is exactly
half filled at every temperature.
"""

import numpy as np

from hhlab import ModelParams, build_basis, build_lattice
from hhlab import model, thermo

lat = build_lattice(nu=1, ell=1)
params = ModelParams(t=1.0, U=2.0, V=1.5, g=0.8, omega=1.0, beta=2.0, n_max=3)
basis = build_basis(lat, params.n_max)
print(f"lattice: {lat}")
print(f"basis:   {basis}  (fermions {basis.fermion_dim} x phonons {basis.boson_dim})")

hs = model.hamiltonian_set(params, basis)   # CSR arrays, each checked Hermitian
print(f"\nu_eff = U - 2 g^2/omega = {params.u_eff:+.3f}"
      f"   hopping phase constant alpha = {params.alpha:.3f}")

w = np.linalg.eigvalsh(hs.H.toarray())
print(f"spectrum of H: [{w[0]:+.4f}, ..., {w[-1]:+.4f}]  ({len(w)} levels)")

V = model.build_zigzag(basis)
dev = abs(hs.H2 - V.conjugate(hs.H1)).max()
print(f"H'' equals the zigzag conjugation of H' to {dev:.1e} (exact identity)")

w1, w2 = np.linalg.eigvalsh(hs.H1.toarray()), np.linalg.eigvalsh(hs.H2.toarray())
print(f"spectra of H' and H'' agree to {np.max(np.abs(w1 - w2)):.1e}")

spec = thermo.spectral(hs.H, params.beta)
print(f"\nconnected components of H: {len(spec.blocks)} "
      f"(largest {max(len(b[0]) for b in spec.blocks)})")
for x in lat.sites:
    n_diag = np.repeat(1.0 + model.charge_diagonals(basis)[lat.site_index[x]],
                       basis.boson_dim)
    print(f"<n_{x}> = {spec.expectation(n_diag):.15f}")
print("half filling is enforced by the hole-particle/spin-flip symmetry, "
      "exactly, at any phonon truncation.")
