"""Sensitivity rows: each mutation of the program below must make a check fail.

A check that passes on the program and on every mutation of it tests nothing.
Each row applies one mutation, names the check that must catch it and says
why.  The counts in the comments were measured at seed 2024 with 1 BLAS
thread; the assertions leave room for rounding in borderline instances.
"""

import numpy as np
import pytest

from hhlab import cli, fuzz, model, rpverify
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


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_dropped_field_constant_breaks_gaussian_domination(monkeypatch, nu, n_max):
    """H''(h) = H'' - V sum_bonds (q_x - q_y)(h_x - h_y) + (V/2) sum_bonds
    (h_x - h_y)^2.  Without the positive constant the field enters linearly,
    log Z(eps h) is convex in eps, and its slope at eps = 0 is beta V times a
    sum of <q_x> that vanish at half filling.  So log Z(h) >= log Z(0), and
    Z(h) <= Z(0) fails on every field that is not constant (20 of 20 here,
    at the default couplings)."""
    d = cli.CONFIG_DEFAULTS
    params = model.ModelParams(t=d["t"], U=d["U"], V=d["V"], g=d["g"], omega=d["omega"],
                               beta=d["beta"], n_max=n_max)
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
def test_negated_a_operators_break_only_the_crossing_split(monkeypatch, nu, n_max):
    """The crossing pairing terms of T'' factor as -t (C (x) theta C theta^-1 + h.c.),
    C = exp(i alpha phi_l) a*_{l s}.  With every a -> -a the left factor C
    changes sign.  theta is built from the same a's, so its fermion part is
    re-signed by the left fermion parity; a anticommutes with that parity,
    so theta (-a) theta^-1 = c still holds, and theta C theta^-1 does not
    change.  So lr_T_cross fails against the crossing terms read off the
    mode tables, while every theta_* record still passes: the relations that
    define theta cannot see a global sign of the a's they are built from."""
    d = cli.CONFIG_DEFAULTS
    params = model.ModelParams(t=d["t"], U=d["U"], V=d["V"], g=d["g"], omega=d["omega"],
                               beta=d["beta"], n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)

    def failed():
        records = (rpverify.theta_relations_check(params, basis)
                   + rpverify.verify_lr_split(params, basis))
        return {res.name for res in records if not res.passed}

    assert failed() == set()
    build = model.build_a_operators
    monkeypatch.setattr(model, "build_a_operators",
                        lambda basis: {k: -a for k, a in build(basis).items()})
    assert failed() == {"lr_T_cross"}
