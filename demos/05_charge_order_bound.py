"""The closed-form staggered charge-order bound and a small phase map.

Evaluates the certified lower bound on the staggered charge correlation in
three dimensions, sweeps the electron-phonon coupling, and contrasts the
certified region with direct strong-coupling diagonalization on the small
cell (where the staggered correlation is visibly positive).
"""

from dataclasses import replace

from hhlab import ModelParams, main_bound, torus_integral
from hhlab import bounds, build_basis, thermo
from hhlab.lattice import build_lattice

val, err = torus_integral(3)
oracle, _ = bounds.torus_integral_oracle(3)
print(f"torus integral of 1/E over (-pi,pi)^3: {val:.6f} (est. err {err:.1e}; "
      f"Bessel-representation oracle {oracle:.6f})")

base = ModelParams(t=1.0, U=1.0, V=10.0, g=3.0, omega=1.0, beta=10.0)
rep = main_bound(base, nu=3)
print(f"\nat t={base.t}, U={base.U}, V={base.V}, g={base.g}, beta={base.beta}:")
print(f"  gap = nu V - u_eff = {rep.gap:.2f}")
print(f"  rhs = 1 - {rep.entropy_term:.4f} (entropy) - {rep.hopping_term:.4f} "
      f"(hopping) - {rep.ir_term:.4f} (infrared) - {rep.gamma2_term:.4f}")
print(f"      = {rep.rhs:.4f}   -> certified long-range charge order: {rep.certified}")

print("\nsweep over the electron-phonon coupling g:")
points = [replace(base, g=g) for g in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]
print("      g      gap      rhs   certified")
for r in bounds.phase_sweep(points, nu=3):
    print(f"  {r.g:5.2f}  {r.gap:7.2f}  {r.rhs:+7.4f}  {r.certified}")

print("\ndesk-scale cross-check (1d ring, exact diagonalization):")
strong = ModelParams(t=0.1, U=1.0, V=5.0, g=2.0, omega=1.0, beta=20.0, n_max=6)
lat = build_lattice(1, 1)
basis = build_basis(lat, strong.n_max)
for x in lat.sites:
    c = thermo.charge_correlation(strong, basis, x, (0,), which="original")
    print(f"  (-1)^|x| <q_x q_o> at x={x}: {lat.staggered_sign(x) * c:+.4f}")
print("the staggered correlation is positive -- the same ordering tendency "
      "the bound certifies in d >= 3.")
