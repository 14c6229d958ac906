"""Sensitivity rows: each mutation of the program below must make a check fail.

A check that passes on the program and on every mutation of it tests nothing.
Each row applies one mutation, names the check that must catch it and says
why.  The counts in the comments were measured at seed 2024 with 1 BLAS
thread; the assertions leave room for rounding in borderline instances.
"""

import numpy as np

from hhlab import fuzz, rpverify


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
