"""Measured versus displayed polaron-transformation constants.

The polaron (displacement) unitary U = exp(-i pi N_p / 2) exp(L) with
L = -i omega^(-3/2) g sum_x q_x pi_x is exactly unitary at any truncation.
It is block-diagonal over the fermion states, with a Kronecker product of
one-site factors in each block, so its conjugation action is measured on
one-site matrices, in about a millisecond at n_max = 10:

  * U c U^-1 = exp(i alpha_hat phi) c with alpha_hat = g / sqrt(omega)
    (exact at truncation);
  * U b U^-1 -> i b - d q with d -> g / (sqrt(2) omega) away from the
    truncation boundary;
  * the single-site charge gap renormalizes U -> U - g^2 / omega.

The displayed textbook-style constants (alpha = sqrt(2) g omega^{-3/2},
displacement g / omega with no phase on b, effective U - 2 g^2 / omega) do
not match these measurements; the diagnostic below flags each mismatch.
The downstream bound engine nevertheless uses u_eff = U - 2 g^2 / omega as
defined, since the reflection-positivity analysis concerns the
formula-built H'' regardless of how it is reached from H.
"""

import numpy as np

from hhlab import ModelParams
from hhlab import model

params = ModelParams(t=1.0, U=2.0, V=1.0, g=0.8, omega=1.3, beta=1.0, n_max=10)

d = model.lang_firsov_diagnostic(params)
print(f"phase constant:       measured {d['alpha_hat']:.6f}   "
      f"displayed {d['displayed_alpha']:.6f}   "
      f"(g/sqrt(omega) = {params.g / np.sqrt(params.omega):.6f}; "
      f"residual {d['phase_residual']:.1e})")
print(f"displacement (b fit): measured zeta = {d['zeta']:.4f}, "
      f"d = {d['displacement']:.4f}   displayed (1, {d['displayed_displacement']:.4f})"
      f"   (g/(sqrt(2) omega) = {params.g / (np.sqrt(2) * params.omega):.4f})")
print(f"effective U:          measured {d['u_eff_measured']:.6f}   "
      f"displayed {d['displayed_u_eff']:.6f}   "
      f"(U - g^2/omega = {params.U - params.g ** 2 / params.omega:.6f})")
print(f"\nmismatch flags: alpha={d['mismatch_alpha']}, "
      f"displacement={d['mismatch_displacement']}, u_eff={d['mismatch_u_eff']}")

print("\nconvergence of the measured charge gap in the truncation:")
for n_max in (2, 4, 8, 16, 32):
    gap = model._single_site_charge_gap(
        ModelParams(t=1.0, U=2.0, V=1.0, g=0.8, omega=1.3, beta=1.0, n_max=n_max))
    print(f"  n_max = {n_max:2d}: {gap:.10f}   "
          f"(limit {params.U - params.g ** 2 / params.omega:.10f})")
