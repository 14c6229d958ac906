"""Sensitivity rows: each mutation of the program below must make a check fail.

A check that passes on the program and on every mutation of it tests nothing.
Each row applies one mutation, names the check that must catch it and says
why.  The counts in the comments were measured at seed 2024 with 1 BLAS
thread; the assertions leave room for rounding in borderline instances.
"""

import numpy as np
import pytest
from scipy import sparse

import oracles
from hhlab import cli, fuzz, model, rpverify, thermo
from hhlab.hilbert import build_basis
from hhlab.lattice import build_lattice


def test_negative_couplings_break_the_dls_inequality():
    """Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D) is a Cauchy-Schwarz inequality
    for the reflection-positive form that lambda_j >= 0 gives the coupling
    -sum_j lambda_j (C_j (x) theta D_j theta^-1 + h.c.).  With lambda -> -lambda
    the form is no longer positive, and the inequality fails on most draws.
    The input check refuses such draws, so they go to the solver past it."""
    draws = rpverify._draw_dls(np.random.default_rng(2024), 256, 8)
    flipped = [(A, B, C, D, -lam, W, beta) for A, B, C, D, lam, W, beta in draws]
    assert all(res.passed for res in rpverify._dls_results(draws, 1e-10))
    failed = sum(not res.passed for res in rpverify._dls_results(flipped, 1e-10))
    assert failed >= 128, failed    # 184 of 256


def test_linear_theta_breaks_the_dls_suite(monkeypatch):
    """theta must be antiunitary.  Taken as the linear v -> W v, it changes
    H(A,B,C,D) only: Z(A,A,C,C) and Z(B,B,D,D) come from the real frame,
    which needs an antiunitary theta and then does not depend on it.  The
    random instances still hold (0 of 1000 fail), and lambda = 0 still
    factorizes, but at A = B, C = D the lhs is no longer 2 ln Z(A,A,C,C), so
    dls_equality_symmetric must fail.  (When all three Hamiltonians took theta
    from the solver, 435 of the 1000 instances failed.)"""
    def passed(records):
        return {res.name: res.passed for res in records if res.name != "dls"}

    assert all(passed(rpverify.dls_fuzz(1000, seed=2024)).values())
    monkeypatch.setattr(fuzz, "_reflected", lambda W, X: W @ X @ fuzz._adjoint(W))
    assert passed(rpverify.dls_fuzz(1000, seed=2024)) == {
        "dls_fuzz": True, "dls_equality_lambda0": True, "dls_equality_symmetric": False}


def test_linear_theta_breaks_the_symmetric_draws(monkeypatch):
    """At B = A and D = C the complex H(A,B,C,D) is H(A,A,C,C), whose ln Z the
    real frame gives without theta.  A linear theta changes only the complex
    solve, so the two sides part on almost every draw (256 of 256)."""
    draws = fuzz._draw_dls(np.random.default_rng(2024), 256, 8)
    symmetric = [(A, A, C, C, lam, W, beta) for A, _, C, _, lam, W, beta in draws]
    monkeypatch.setattr(fuzz, "_reflected", lambda W, X: W @ X @ fuzz._adjoint(W))
    lhs, rhs = fuzz._dls_log_sides(symmetric)
    broken = np.abs(lhs - rhs) > 1e-12 * np.maximum(np.abs(lhs), 1.0)
    assert np.sum(broken) >= 250, np.sum(broken)


def default_params(n_max):
    d = cli.CONFIG_DEFAULTS
    return model.ModelParams(t=d["t"], U=d["U"], V=d["V"], g=d["g"], omega=d["omega"],
                             beta=d["beta"], n_max=n_max)


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_dropped_field_constant_breaks_gaussian_domination(monkeypatch, nu, n_max):
    """H''(h) = H'' - V sum_bonds (q_x - q_y)(h_x - h_y) + (V/2) sum_bonds
    (h_x - h_y)^2.  Without the positive constant the field enters linearly,
    log Z(eps h) is convex in eps, and its slope at eps = 0 is beta V times a
    sum of <q_x> that vanish at half filling.  So log Z(h) >= log Z(0), and
    Z(h) <= Z(0) fails on every field that is not constant (20 of 20 here,
    at the default couplings)."""
    params = default_params(n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    fields = np.random.default_rng(2024).standard_normal((20, basis.n_sites))

    def passed():
        ens = rpverify.FieldPartition(params, basis)
        return sum(rpverify.gaussian_domination_check(params, basis, h, ens).passed
                   for h in fields)

    assert passed() == 20
    correction = model.field_diagonal_correction

    def without_constant(params, basis, h):
        const = sum(0.5 * params.V * (h[b.i] - h[b.j]) ** 2 for b in basis.lattice.bonds())
        return correction(params, basis, h) - const

    monkeypatch.setattr(model, "field_diagonal_correction", without_constant)
    assert passed() == 0


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_negated_a_operators_break_only_theta_fermion(monkeypatch, nu, n_max):
    """theta is read off the mode tables, not built from the a's, so with
    every a -> -a the relation theta a_(r x) theta^-1 = c_x reads -c_x and
    theta_fermion fails.  The crossing pairing terms of T'' factor as
    -t (C (x) theta C theta^-1 + h.c.), C = exp(i alpha phi_l) a*_{l s}: C
    enters twice, so its sign cancels and lr_T_cross still passes, as does
    every other record."""
    params = default_params(n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)

    def failed():
        records = (rpverify.theta_relations_check(params, basis)
                   + rpverify.verify_lr_split(params, basis))
        return {res.name for res in records if not res.passed}

    assert failed() == set()
    build = model.build_a_operators
    monkeypatch.setattr(model, "build_a_operators",
                        lambda basis: {k: -a for k, a in build(basis).items()})
    assert failed() == {"theta_fermion"}


@pytest.mark.parametrize("mu", [0.01, 0.1])
@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_chemical_potential_breaks_half_filling(monkeypatch, nu, n_max, mu):
    """<n_x> = 1 holds because the hole-particle map u takes H to T + K + W,
    with W even in the s_x, and the spin flip D flips every s_x and keeps
    u H u^-1.  A chemical potential -mu N = -mu sum_x (q_x + 1) becomes
    -mu sum_x (s_x + 1) under u, which D does not keep, so half_filling must
    fail on every draw of the verify suite's couplings (5 of 5, with
    deviations from 1e-6 to 1e-2 against the tolerance 1e-10)."""
    basis = build_basis(build_lattice(nu, 1), n_max)
    rng = np.random.default_rng(2024)
    draws = [model.ModelParams(t=rng.uniform(0.1, 2.0), U=rng.uniform(0.1, 3.0),
                               V=rng.uniform(0.1, 3.0), g=rng.uniform(-2.0, 2.0),
                               omega=rng.uniform(0.3, 2.0), beta=rng.uniform(0.0, 4.0),
                               n_max=n_max) for _ in range(5)]

    def failed():
        return sum(not res.passed for params in draws
                   for res in rpverify.half_filling_check(params, basis))

    assert failed() == 0
    build = model.build_original_csr
    number = np.repeat((model.charge_diagonals(basis) + 1.0).sum(axis=0), basis.boson_dim)
    monkeypatch.setattr(model, "build_original_csr",
                        lambda params, basis: build(params, basis)
                        - mu * sparse.diags_array(number))
    assert failed() == 5


def test_single_counted_pair_instances_break_the_nested_commutator_2x2(monkeypatch):
    """c = beta <[A, [H'', A*]]> is taken two ways: from the entries of H''
    that the spectral data keep, and in closed form from the pairing-bond
    expectations, which are the same entries summed by site pair and
    divided by the number of instances on the pair (2 on the 2x2 torus,
    where eps = +1 and -1 give one pair).  Counting 1 instance for 2 doubles
    every bond with H'' unchanged, and infrared_chain_check must raise the
    mismatch on every field (5 of 5).  The row runs at 2x2: at nu = 1 the
    two sites carry f_1 = -f_0, since f = (-Delta) h sums to zero, so every
    bond weight |f_x + f_y|^2 is 0, c = 0 both ways, and all 5 fields pass
    under the mutation."""
    params = default_params(0)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    H2 = model.build_doubleprime_csr(params, basis)
    rng = np.random.default_rng(2024)
    fields = rng.standard_normal((5, basis.n_sites)) + 1j * rng.standard_normal((5, basis.n_sites))
    spec = thermo.spectral(H2, params.beta)
    for h in fields:
        assert len(rpverify.infrared_chain_check(params, basis, h, spec, H2)) == 5
    flips = thermo._pair_flips

    def single_counted(basis, instances):
        *labels, counts = flips(basis, instances)
        assert counts.tolist() == [2] * 4
        return *labels, np.where(counts == 2, 1, counts)

    monkeypatch.setattr(thermo, "_pair_flips", single_counted)
    spec = thermo.spectral(H2, params.beta)     # a fresh spec: it keeps the bond expectations
    for h in fields:
        with pytest.raises(AssertionError, match="nested commutator mismatch"):
            rpverify.infrared_chain_check(params, basis, h, spec, H2)


def test_scaled_bond_terms_break_the_label_identity(monkeypatch):
    """Every term of model.pairing_bond_terms is, bit for bit, H'' on the
    entries of its site pair over the instances there: the identity the
    bond expectations are read by (tests/oracles.terms_off_doubleprime).
    Scaling the terms by 1.001 with H'' unchanged must break it for all 8."""
    params = default_params(0)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    assert oracles.terms_off_doubleprime(params, basis) == []
    terms = model.pairing_bond_terms
    monkeypatch.setattr(model, "pairing_bond_terms", lambda params, basis: (
        (key, 1.001 * term) for key, term in terms(params, basis)))
    assert len(oracles.terms_off_doubleprime(params, basis)) == 8
