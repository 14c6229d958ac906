"""The infrared chain: Duhamel bound, double-commutator bound, Falk-Bruch.

For the charge observable A = sum_x q_x ((-Delta) h)_x the chain reads

    g = <A* A>  <=  FB(b, c)  with  b <= b0,  c <= c0,

where b is the Duhamel two-point function, c the double-commutator weight,
b0 and c0 their field-theoretic bounds, and FB the Falk-Bruch function.
The script prints every link for a few random complex fields.
"""

import numpy as np

from hhlab import ModelParams, build_basis, build_lattice
from hhlab import model, rpverify, thermo

params = ModelParams(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=2)
lat = build_lattice(nu=1, ell=1)
basis = build_basis(lat, params.n_max)
H2 = model.build_doubleprime_csr(params, basis)
spec = thermo.spectral(H2, params.beta)
bond_exp = thermo.pairing_bond_expectations(params, basis, spec)

rng = np.random.default_rng(3)
for k in range(4):
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # the forms read H'' from spec, which keeps its entries
    g_q, b_q, c_q = thermo.quadratic_form_quantities(params, basis, h, spec,
                                                     bond_expectations=bond_exp)
    fb = rpverify.falk_bruch_rhs(b_q, c_q)
    print(f"h{k}:  g = {g_q:.5f}   b = {b_q:.5f}   c = {c_q:.5f}   "
          f"FB(b, c) = {fb:.5f}")
    for res in rpverify.infrared_chain_check(params, basis, h, spec, H2, bond_exp):
        print(f"   [{'ok' if res.passed else 'FAIL'}] {res.statement}  "
              f"({res.lhs:.5f} <= {res.rhs:.5f})")
    print()

print("the nested commutator behind c is evaluated both elementwise from the "
      "Hamiltonian matrix\nand from its closed-form bond expansion; the two "
      "routes are required to agree to 1e-9.")
