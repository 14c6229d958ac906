"""The closed-form staggered charge-order bound and its momentum-space tools.

The certified lower bound on the staggered charge correlation reads

    rhs = 1 - ln[4 (1 - e^{-beta omega})^{-1}] / (beta gap)
            - 8 nu t / gap
            - gamma1 * Int_{(-pi,pi)^nu} dp / E(p)
            - gamma2,

with gap = nu V - u_eff, u_eff = U - 2 g^2 / omega,
E(p) = sum_j (1 - cos p_j), gamma1 = (2 pi)^{-nu} (1/2) [(beta V)^{-1}
+ (t/V)^{1/2}] and gamma2 = (1/4)(t/V)^{1/2}.  A point is certified when
gap > 0, nu >= 3 and rhs > 0 (the bound is evaluated exactly as displayed;
no renormalization of the 2-pi bookkeeping).

The torus integral of 1/E is integrable only for nu >= 3 (the integrand
grows like 2/|p|^2 at the origin).  It is computed by shifted-midpoint
tensor quadrature on even grids (which never sample p = 0) with Richardson
extrapolation over grid doublings, cross-checked against an independent
Bessel-function representation:

    (2 pi)^{-nu} Int dp / E(p) = Int_0^inf [e^{-s} I_0(s)]^nu ds,

which :func:`torus_integral_oracle` evaluates with numpy alone, to about
1e-15 relative.  At nu = 3 both equal Watson's integral, whose closed form
sqrt(6) / (96 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24) is due
to Glasser and Zucker (PNAS 74, 1800 (1977)).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
import math

import numpy as np

from . import model as _model

__all__ = [
    "torus_integral",
    "torus_integral_oracle",
    "BoundReport",
    "main_bound",
    "phase_sweep",
    "finite_volume_fourier_check",
]


# Largest finest half grid (points) torus_integral will sum.  The grid is
# summed slab by slab, so this limits the work, not the memory.
_MAX_HALF_GRID_POINTS = 2 ** 27
# Most points of the half grid held at a time: a power of two of at least 128,
# numpy's pairwise block, so that the slabs are subtrees of np.sum's own tree.
_SLAB_POINTS = 2 ** 14


def _pairwise(sums):
    """Sum a list by adding neighbours, level by level; an odd one out is
    carried up.  For 2^k terms this is the order of numpy's pairwise sum."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])] + sums[len(sums) & ~1:]
    return sums[0]


def _midpoint_value(nu, n):
    """Midpoint rule for Int_{(-pi,pi)^nu} dp / E(p) on an n^nu grid.

    n must be even so the singular point p = 0 is never sampled.  The grid
    is symmetric under p -> -p and E is even in each p_j, so the sum runs
    over the (n/2)^nu points of the positive orthant and is multiplied by
    2^nu (exact in floating point).

    The half grid is summed in slabs of at most _SLAB_POINTS points, each a
    run of consecutive points in C order, and the slab sums are added by
    :func:`_pairwise`.  When (n/2)^nu is a power of two every slab is a
    subtree of numpy's pairwise summation, so the value has the bits of
    np.sum(1 / E) over the whole half grid.
    """
    if n % 2:
        raise ValueError("grid size must be even to dodge p = 0")
    h = n // 2
    pts = -np.pi + (np.arange(h, n) + 0.5) * (2 * np.pi / n)
    one_minus_cos = 1.0 - np.cos(pts)
    # a slab fixes the leading indices (their partial sum of E is in
    # `prefix`), takes `run` values of the next index and all of the last
    # `whole`; E is summed left to right as for the whole grid (0 + x = x,
    # since 1 - cos > 0 on the grid)
    whole = 0
    while whole < nu - 1 and h ** (whole + 1) <= _SLAB_POINTS:
        whole += 1
    run = max(d for d in range(1, h + 1) if h % d == 0 and d * h ** whole <= _SLAB_POINTS)
    prefix = np.zeros(1)
    for _ in range(nu - whole - 1):
        prefix = np.add.outer(prefix, one_minus_cos)
    sums = []
    for p in prefix.ravel():
        for start in range(0, h, run):
            E = p + one_minus_cos[start:start + run]
            for _ in range(whole):
                E = np.add.outer(E, one_minus_cos)
            sums.append(float(np.sum(1.0 / E)))
    return float(_pairwise(sums) * 2.0 ** nu * (2 * np.pi / n) ** nu)


@lru_cache(maxsize=32)
def torus_integral(nu, grid_n=None, refinements=4, rel_tol=1e-4):
    """Int_{(-pi,pi)^nu} dp / E(p) with an error estimate, for nu >= 3.

    Midpoint values on grids grid_n, 2 grid_n, ... are Richardson
    extrapolated with an empirically estimated leading order (the
    singularity makes the error O(1/n), not spectral).  Returns
    (value, error_estimate); raises ValueError for nu <= 2, where the
    integral diverges, for a rel_tol that is not finite and > 0, and for a
    grid_n that is not a positive even integer, before any grid is summed.
    Each grid is summed on its (n/2)^nu positive-orthant half, at most
    _SLAB_POINTS points at a time, so memory grows only with the number of
    slabs (one float each), not with the points.
    The default grid shrinks with nu so that the finest half grid has
    2^18, 2^20 and 2^20 points at nu = 3, 4 and 5.  The work grows with it:
    a finest half grid of more than 2^27 points is refused with a
    ValueError before anything is allocated.  nu = 6 (16^6) runs at the
    default grid, nu = 7 (16^7) is refused.
    """
    if nu <= 2:
        raise ValueError(f"integral diverges for nu <= 2 (got nu = {nu})")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
    if refinements < 3:
        raise ValueError("need at least 3 refinements to extrapolate")
    if grid_n is None:
        grid_n = max(4, 2 ** (7 - nu))
    if not (isinstance(grid_n, (int, np.integer)) and grid_n > 0 and grid_n % 2 == 0):
        raise ValueError(f"grid_n must be a positive even integer, got {grid_n!r}")
    ns = [grid_n * 2 ** k for k in range(refinements)]
    half_points = (ns[-1] // 2) ** nu
    if half_points > _MAX_HALF_GRID_POINTS:
        raise ValueError(
            f"torus grid too large: the finest half grid has {half_points} points "
            f"(limit {_MAX_HALF_GRID_POINTS}, a bound on the quadrature's work)")
    vals = [_midpoint_value(nu, n) for n in ns]
    extrapolants = []
    for k in range(len(vals) - 2):
        d1 = vals[k + 1] - vals[k]
        d2 = vals[k + 2] - vals[k + 1]
        if d2 == 0.0 or d1 / d2 <= 1.0:
            extrapolants.append(vals[k + 2])
            continue
        order = math.log2(d1 / d2)
        extrapolants.append(vals[k + 2] + d2 / (2 ** order - 1.0))
    value = extrapolants[-1]
    if len(extrapolants) >= 2:
        err = abs(extrapolants[-1] - extrapolants[-2])
    else:
        err = abs(vals[-1] - vals[-2])
    if err > rel_tol * abs(value):
        raise RuntimeError(
            f"torus integral did not converge to {rel_tol} relative "
            f"(estimate {value}, error {err}); increase grid_n or refinements")
    return value, err


# sqrt(2 pi s) e^{-s} I_0(s) ~ sum_k a_k s^{-k}, a_k = ((2k - 1)!!)^2 / (k! 8^k): the
# first eight terms are summed past _I0E_SWITCH, where the remainder is positive
# and below twice the first omitted term (1.006 times it at s = 700)
_I0E_SWITCH = 700.0
_I0E_COEFFS = [math.prod(((2 * j - 1) ** 2 / (8 * j) for j in range(1, k + 1)), start=1.0)
               for k in range(9)]
_I0E_SERIES = _I0E_COEFFS[:8]
_I0E_SERIES_REMAINDER = 2.0 * _I0E_COEFFS[8] / _I0E_SWITCH ** 8
# relative accuracy of _i0e below the switch: np.i0 (Cephes' i0) times e^{-s} is
# within 7e-16 of e^{-s} I_0(s) at every node
_I0E_REL = 1e-15
# trapezoid nodes in u = ln s: the window and its step
_U_LO, _U_HI, _U_STEP = -40.0, 80.0, 0.125


def _i0e(s):
    """e^{-s} I_0(s) for an array of s > 0: np.i0 below _I0E_SWITCH, past it
    the asymptotic series."""
    out = np.empty_like(s)
    small = s < _I0E_SWITCH
    out[small] = np.i0(s[small]) * np.exp(-s[small])
    big = s[~small]
    out[~small] = np.polyval(_I0E_SERIES[::-1], 1.0 / big) / np.sqrt(2.0 * np.pi * big)
    return out


def torus_integral_oracle(nu):
    """Independent evaluation via the exponential-Bessel representation
    (2 pi)^nu Int_0^inf i0e(s)^nu ds, with numpy alone.

    In u = ln s the integrand e^u i0e(e^u)^nu is analytic in the strip
    |Im u| < pi/2 and decays exponentially at both ends, so the trapezoid
    rule converges geometrically, with an error of order exp(-pi^2 / h) at
    step h (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).  The rule
    runs at h = 1/8 on u in [-40, 80].  Returns (value, error_estimate); the
    estimate adds to |T(h) - T(2h)| bounds on the two tails cut off by the
    window (i0e <= 1 below it; above it sqrt(2 pi s) i0e(s) decreases to 1,
    so the tail is at most e^u i0e(e^u)^nu / (nu/2 - 1) at u = 80), on the
    truncated series and on the rounding of i0e.  Raises ValueError for
    nu <= 2, where the integral diverges.
    """
    if nu <= 2:
        raise ValueError(f"integral diverges for nu <= 2 (got nu = {nu})")
    n = round((_U_HI - _U_LO) / _U_STEP)
    s = np.exp(np.linspace(_U_LO, _U_HI, n + 1))
    f = s * _i0e(s) ** nu
    fine = _U_STEP * (np.sum(f) - 0.5 * (f[0] + f[-1]))
    coarse = 2.0 * _U_STEP * (np.sum(f[::2]) - 0.5 * (f[0] + f[-1]))
    tails = s[0] + f[-1] / (nu / 2.0 - 1.0)
    rel = nu * (_I0E_REL + _I0E_SERIES_REMAINDER) + 16.0 * np.finfo(float).eps
    err = abs(fine - coarse) + tails + rel * fine
    scale = (2.0 * np.pi) ** nu
    return float(scale * fine), float(scale * err)


@dataclass(frozen=True)
class BoundReport:
    """All named terms of the charge-order bound plus the verdict."""

    nu: int
    t: float
    U: float
    V: float
    g: float
    omega: float
    beta: float
    u_eff: float
    gap: float
    entropy_term: float
    hopping_term: float
    ir_term: float
    gamma2_term: float
    rhs: float
    certified: bool
    reason: str = ""

    def to_record(self):
        return {name: getattr(self, name) for name in _REPORT_FIELDS}


_REPORT_FIELDS = tuple(f.name for f in fields(BoundReport))


def main_bound(params, nu):
    """Evaluate the staggered charge-order bound at one parameter point.

    gap <= 0 or nu <= 2 yield a report with certified = False and a reason
    rather than an error; the terms are NaN where undefined.  nu < 1 is
    refused with a ValueError.
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    ue = params.u_eff
    gap = nu * params.V - ue
    base = dict(nu=nu, t=params.t, U=params.U, V=params.V, g=params.g,
                omega=params.omega, beta=params.beta, u_eff=ue, gap=gap)
    if gap <= 0:
        nan = float("nan")
        return BoundReport(**base, entropy_term=nan, hopping_term=nan, ir_term=nan,
                           gamma2_term=nan, rhs=nan, certified=False,
                           reason="nu V - u_eff <= 0")
    entropy = math.log(4.0 / (1.0 - math.exp(-params.beta * params.omega))) / (params.beta * gap)
    hopping = 8.0 * nu * params.t / gap
    gamma2 = 0.25 * math.sqrt(params.t / params.V)
    if nu <= 2:
        return BoundReport(**base, entropy_term=entropy, hopping_term=hopping,
                           ir_term=float("inf"), gamma2_term=gamma2, rhs=float("-inf"),
                           certified=False, reason="integral diverges for nu <= 2")
    integral, _ = torus_integral(nu)
    gamma1 = (2.0 * np.pi) ** (-nu) * 0.5 * (1.0 / (params.beta * params.V)
                                             + math.sqrt(params.t / params.V))
    ir = gamma1 * integral
    rhs = 1.0 - entropy - hopping - ir - gamma2
    certified = bool(rhs > 0.0)
    return BoundReport(**base, entropy_term=entropy, hopping_term=hopping, ir_term=ir,
                       gamma2_term=gamma2, rhs=rhs, certified=certified,
                       reason="" if certified else "rhs <= 0")


def phase_sweep(params_list, nu):
    """One BoundReport per parameter point, in input order.

    The torus integral is evaluated once per nu and cached, so a sweep
    costs one quadrature plus arithmetic per point.
    """
    return [main_bound(p, nu) for p in params_list]


# -- finite-volume momentum-space identities -------------------------------------


def finite_volume_fourier_check(basis, h, spec=None, tol=1e-9):
    """Verify the momentum-space forms of the three quadratic forms entering
    the infrared bound, on the finite torus, against direct real-space
    evaluation, and report the finite-volume analogue of the bound on
    <q_o^2> (reported, not asserted -- its sharp form is a statement about
    the infinite-volume limit).

    The verified identities carry the symbol of -Delta, which is 2 E(p);
    the deviation of each measured prefactor from the bare-E(p) variant is
    part of the returned report (the convention chain is logged, never
    silently absorbed).

    The torus is that of ``basis``.  ``spec`` is the spectral data of H''
    on ``basis`` (``thermo.spectral``); the structure-factor and g checks
    take their Gibbs state from it, and without it only the momentum
    identities are checked.  A ``spec`` of another dimension is refused
    with ValueError.  Returns (checks, report_dict).
    """
    from .lattice import dispersion
    from .rpverify import CheckResult, _eq

    if spec is not None and spec.dim != basis.total_dim:
        raise ValueError(f"spec has dimension {spec.dim}, not the basis dimension "
                         f"{basis.total_dim}")
    lat = basis.lattice
    nu = lat.nu
    h = np.asarray(h, dtype=complex)
    lap, stag = lat.laplacian_matrix(), lat.staggered_signs

    ps = lat.momentum_grid()
    E = np.array([dispersion(p)[0] for p in ps])
    F = 2.0 * nu - E
    hhat = lat.fourier(h)
    norm = (2.0 * np.pi) ** nu / lat.n_sites

    checks = []
    X_real = float(np.real(np.vdot(h, lap @ h)))
    X_mom = norm * float(np.sum(2.0 * E * np.abs(hhat) ** 2))
    checks.append(_eq("fourier_quadratic", "<h|(-D)h> = norm sum 2E |hhat|^2",
                      X_real, X_mom, tol))
    f = lap @ h
    Y_real = float(np.real(np.vdot(f, stag * (lap @ (stag * f)))))
    Y_mom = norm * float(np.sum((2.0 * E) ** 2 * 2.0 * F * np.abs(hhat) ** 2))
    checks.append(_eq("fourier_cubic",
                      "<(-D)h|tau(-D)tau(-D)h> = norm sum (2E)^2 2F |hhat|^2",
                      Y_real, Y_mom, tol))

    report = {
        "norm": norm,
        "quadratic_real": X_real,
        "quadratic_momentum": X_mom,
        "bare_E_prefactor_ratio": X_mom / max(norm * float(np.sum(E * np.abs(hhat) ** 2)), 1e-300),
    }

    if spec is not None:
        qd = _model.charge_diagonals(basis)
        origin = lat.site_index[(0,) * nu]
        corr = np.empty(lat.n_sites)
        for i in range(lat.n_sites):
            corr[i] = spec.expectation(np.repeat(qd[i] * qd[origin], basis.boson_dim))
        # structure factor S(p) = sum_x e^{-ipx} G(x) = (2 pi)^{nu/2} Ghat(p)
        xs = np.array(lat.sites)
        S = np.real(np.exp(-1j * ps @ xs.T) @ corr)
        checks.append(CheckResult("fourier_structure_positive",
                                  "(2 pi)^{nu/2} Ghat(p) >= 0 at every grid p",
                                  float(S.min()), 0.0, float(S.min()),
                                  bool(S.min() >= -tol)))
        # g = <A* A> for the diagonal A = sum_x f_x q_x: one field needs no forms
        a = np.repeat(f @ qd, basis.boson_dim)
        g_real = float(spec.expectation(np.abs(a) ** 2))
        g_mom = norm * float(np.sum((2.0 * E) ** 2 * S * np.abs(hhat) ** 2))
        checks.append(_eq("fourier_g", "g = norm sum (2E)^2 S(p) |hhat|^2",
                          g_real, g_mom, max(tol, 1e-8)))
        # finite-volume analogue of the q_o^2 decomposition (reported only)
        q2 = float(corr[origin])
        report.update({
            "q2_origin": q2,
            "q2_from_structure_factor": float(np.sum(S)) / lat.n_sites,
            "structure_factor": S.tolist(),
        })
    return checks, report

