import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hhlab import bounds, model, thermo
from hhlab.hilbert import build_basis
from hhlab.lattice import build_lattice
from hhlab.model import ModelParams

P = ModelParams


def test_u_eff_values():
    assert P(t=1, U=4, V=1, g=1, omega=1, beta=1).u_eff == 2.0
    assert P(t=1, U=7, V=1, g=0, omega=1, beta=1).u_eff == 7.0
    assert P(t=1, U=1, V=1, g=3, omega=1, beta=1).u_eff == -17.0


# -- torus integral ------------------------------------------------------------------


@pytest.mark.parametrize("nu", [1, 2])
def test_integral_diverges_low_dimension(nu):
    with pytest.raises(ValueError, match="diverges"):
        bounds.torus_integral(nu)
    with pytest.raises(ValueError, match="diverges"):
        bounds.torus_integral_oracle(nu)


def test_integral_matches_oracle_nu3():
    val, err = bounds.torus_integral(3)
    oracle, _ = bounds.torus_integral_oracle(3)
    assert abs(val - oracle) / oracle < 1e-3
    assert err < 1e-3 * oracle  # reported error bar is itself small
    # the oracle agrees with the classical simple-cubic lattice value
    assert abs(oracle / (2 * np.pi) ** 3 - 0.505462) < 1e-5


# Watson's integral Int_0^inf i0e(s)^3 ds, in the closed form of Glasser and
# Zucker (PNAS 74, 1800 (1977))
WATSON = (math.sqrt(6) / (96 * math.pi ** 3) * math.gamma(1 / 24) * math.gamma(5 / 24)
          * math.gamma(7 / 24) * math.gamma(11 / 24))


def test_oracle_matches_watson_closed_form():
    oracle, err = bounds.torus_integral_oracle(3)
    deviation = abs(oracle / (2 * math.pi) ** 3 - WATSON) / WATSON
    assert deviation < 1e-12
    assert math.isfinite(err)
    assert deviation - 1e-13 <= err / oracle <= 1e-10


@pytest.mark.parametrize("nu", range(3, 9))
def test_oracle_matches_scipy_quad(nu):
    from scipy.integrate import quad
    from scipy.special import i0e

    want = (2 * math.pi) ** nu * quad(lambda s: i0e(s) ** nu, 0.0, math.inf, limit=400)[0]
    oracle, err = bounds.torus_integral_oracle(nu)
    assert abs(oracle - want) <= 1e-10 * want
    assert math.isfinite(err) and err <= 1e-10 * oracle


def test_i0e_matches_scipy_on_both_sides_of_the_switch():
    from scipy.special import i0e

    s = np.concatenate([np.geomspace(1e-18, 1e35, 2001),
                        bounds._I0E_SWITCH + np.linspace(-1.0, 1.0, 101)])
    assert np.max(np.abs(bounds._i0e(s) / i0e(s) - 1.0)) <= 1e-15


def test_integral_stable_across_refinements():
    vals = [bounds.torus_integral(3, grid_n=g, refinements=r)[0]
            for g, r in ((8, 5), (16, 4), (32, 4))]
    spread = (max(vals) - min(vals)) / vals[-1]
    assert spread < 1e-3


def test_integral_per_mode_monotone_in_dimension():
    v3 = bounds.torus_integral(3)[0] / (2 * np.pi) ** 3
    v4 = bounds.torus_integral(4)[0] / (2 * np.pi) ** 4
    assert v4 < v3


@pytest.mark.parametrize("n", [9, 0, -4, 3])
def test_midpoint_rejects_odd_grids(n):
    # the engine refuses a grid that is not a positive even integer before any sum
    with pytest.raises(ValueError, match="positive even integer"):
        bounds.torus_integral(3, grid_n=n)
    if n % 2:
        with pytest.raises(ValueError):
            bounds._midpoint_value(3, n)


def _full_grid_midpoint_value(nu, n):
    """Oracle: the midpoint rule summed over the whole n^nu grid."""
    if n % 2:
        raise ValueError("grid size must be even to dodge p = 0")
    pts = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
    one_minus_cos = 1.0 - np.cos(pts)
    E = np.zeros((n,) * nu)
    for axis in range(nu):
        shape = [1] * nu
        shape[axis] = n
        E = E + one_minus_cos.reshape(shape)
    return float(np.sum(1.0 / E) * (2 * np.pi / n) ** nu)


# (n/2)^nu is not a power of two on (3, 6), (3, 12) and (4, 12), so there the
# slabs do not line up with numpy's pairwise tree
@pytest.mark.parametrize("nu, n", [(3, 4), (3, 8), (3, 16), (4, 4), (4, 8), (4, 16), (5, 8),
                                   (3, 6), (3, 12), (4, 12)])
def test_half_grid_midpoint_matches_full_grid(nu, n, monkeypatch):
    full = _full_grid_midpoint_value(nu, n)
    assert bounds._midpoint_value(nu, n) == pytest.approx(full, rel=1e-13, abs=0)
    # the smallest slab allowed, so that these small grids are summed in several slabs
    monkeypatch.setattr(bounds, "_SLAB_POINTS", 128)
    assert bounds._midpoint_value(nu, n) == pytest.approx(full, rel=1e-13, abs=0)


def _whole_half_grid_value(nu, n):
    """Oracle: the half grid held whole and summed by one np.sum."""
    pts = -np.pi + (np.arange(n // 2, n) + 0.5) * (2 * np.pi / n)
    one_minus_cos = 1.0 - np.cos(pts)
    E = one_minus_cos
    for _ in range(nu - 1):
        E = np.add.outer(E, one_minus_cos)
    return float(np.sum(1.0 / E) * 2.0 ** nu * (2 * np.pi / n) ** nu)


@pytest.mark.parametrize("nu", [3, 4, 5])
def test_slab_sums_have_the_bits_of_the_whole_grid_sum(nu, monkeypatch):
    # every grid torus_integral(nu) sums by default: (n/2)^nu is a power of
    # two, so the slab sums combine in numpy's own pairwise order, at the
    # default slab and at the smallest one allowed
    grid_n = max(4, 2 ** (7 - nu))
    for slab in (bounds._SLAB_POINTS, 128):
        monkeypatch.setattr(bounds, "_SLAB_POINTS", slab)
        for n in (grid_n * 2 ** k for k in range(4)):
            assert bounds._midpoint_value(nu, n) == _whole_half_grid_value(nu, n), (slab, n)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_midpoint_memory_does_not_grow_with_the_grid():
    # the whole half grid of (5, 32) is 2^20 points, 8 MiB per float64 array
    assert _traced_peak(bounds._midpoint_value, 5, 32) < 2 ** 20
    # nu = 6 sums half grids of up to 16^6 = 2^24 points, 128 MiB per array
    # held whole; streamed it stays under 1 MiB
    bounds.torus_integral.cache_clear()
    assert _traced_peak(bounds.torus_integral, 6) < 2 ** 20


def test_oversize_torus_grid_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="torus grid too large"):
            bounds.torus_integral(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the limit is on the finest half grid: at the default grid nu = 6 has
    # 16^6 = 2^24 points and is allowed; two more refinements at nu = 5
    # (64^5 = 2^30 points) are not
    assert 16 ** 6 <= bounds._MAX_HALF_GRID_POINTS < 16 ** 7
    with pytest.raises(ValueError, match="torus grid too large"):
        bounds.torus_integral(5, refinements=6)


# -- the main bound -------------------------------------------------------------------


def test_main_bound_fixture_point():
    rep = bounds.main_bound(P(t=1, U=1, V=10, g=3, omega=1, beta=10), 3)
    assert rep.gap == 47.0
    assert rep.certified
    # frozen after first computation; the hopping term 24/47 dominates
    assert np.isclose(rep.hopping_term, 24.0 / 47.0)
    assert np.isclose(rep.entropy_term, math.log(4.0 / (1 - math.exp(-10.0))) / 470.0)
    assert np.isclose(rep.gamma2_term, 0.25 * math.sqrt(0.1))
    assert np.isclose(rep.ir_term, 0.0824472, atol=2e-4)
    assert np.isclose(rep.rhs, 0.3249079, atol=3e-4)
    assert np.isclose(rep.rhs,
                      1.0 - rep.entropy_term - rep.hopping_term - rep.ir_term
                      - rep.gamma2_term)


def test_main_bound_limit_towards_one():
    rep = bounds.main_bound(P(t=1e-18, U=1, V=10, g=3, omega=1, beta=1e12), 3)
    assert abs(rep.rhs - 1.0) < 1e-6
    assert rep.certified


def test_main_bound_gap_nonpositive():
    rep = bounds.main_bound(P(t=1, U=50, V=1, g=0.1, omega=1, beta=5), 3)
    assert not rep.certified
    assert rep.reason == "nu V - u_eff <= 0"
    assert math.isnan(rep.rhs)


def test_main_bound_low_dimension_reports():
    rep = bounds.main_bound(P(t=1, U=1, V=10, g=3, omega=1, beta=10), 2)
    assert not rep.certified
    assert rep.ir_term == float("inf")


def test_certified_requires_all_hypotheses():
    # rhs <= 0 at weak coupling even though the gap is positive
    rep = bounds.main_bound(P(t=5.0, U=1, V=2, g=1, omega=1, beta=2), 3)
    assert rep.gap > 0 and not rep.certified and rep.reason == "rhs <= 0"


@pytest.mark.parametrize("params", [
    P(t=1, U=1, V=10, g=3, omega=1, beta=10),          # certified
    P(t=5.0, U=1, V=2, g=1, omega=1, beta=2),          # rhs <= 0
    P(t=1, U=50, V=1, g=0.1, omega=1, beta=5),         # gap <= 0: NaN terms
])
def test_report_record_matches_asdict(params):
    rep = bounds.main_bound(params, 3)
    rec, ref = rep.to_record(), asdict(rep)
    assert type(rec) is dict and list(rec) == list(ref)
    for key, value in ref.items():
        assert rec[key] == value or (math.isnan(value) and math.isnan(rec[key])), key


# -- sweeps ------------------------------------------------------------------------------


def test_sweep_single_point_matches_main_bound():
    p = P(t=1, U=1, V=10, g=3, omega=1, beta=10)
    assert bounds.phase_sweep([p], 3)[0] == bounds.main_bound(p, 3)


def test_sweep_monotone_in_g():
    from dataclasses import replace

    base = P(t=0.5, U=2.0, V=8.0, g=1.0, omega=1.0, beta=10.0)
    points = [replace(base, g=g) for g in (1.0, 1.5, 2.0, 2.5, 3.0)]
    reports = bounds.phase_sweep(points, 3)
    rhs = [r.rhs for r in reports]
    assert all(r.gap > 0 for r in reports)
    assert rhs == sorted(rhs)


def test_certified_points_satisfy_all_hypotheses():
    from dataclasses import replace

    base = P(t=0.5, U=2.0, V=8.0, g=0.3, omega=1.0, beta=10.0)
    points = [replace(base, g=g) for g in np.linspace(0.2, 3.0, 8)]
    for rep in bounds.phase_sweep(points, 3):
        if rep.certified:
            assert rep.gap > 0 and rep.nu >= 3 and rep.rhs > 0


def test_sweep_entropy_decreasing_in_beta():
    from dataclasses import replace

    base = P(t=0.5, U=1.0, V=8.0, g=2.0, omega=1.0, beta=1.0)
    points = [replace(base, beta=b) for b in (1.0, 2.0, 4.0, 8.0)]
    ent = [r.entropy_term for r in bounds.phase_sweep(points, 3)]
    assert ent == sorted(ent, reverse=True)


# -- finite-volume momentum-space identities ------------------------------------------------


def test_fourier_identities_random_field():
    rng = np.random.default_rng(9)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    basis = build_basis(build_lattice(1, 3), 0)   # the torus only: nothing is built on it
    checks, report = bounds.finite_volume_fourier_check(basis, h)
    for c in checks:
        assert c.passed, c
    # the literal bare-E(p) prefactor misses the symbol of -Delta by exactly 2
    assert np.isclose(report["bare_E_prefactor_ratio"], 2.0)


def test_fourier_identities_single_momentum():
    lat = build_lattice(1, 3)
    p = lat.momentum_grid()[2]
    h = np.exp(1j * np.array(lat.sites).dot(p))
    checks, _ = bounds.finite_volume_fourier_check(build_basis(lat, 0), h)
    for c in checks:
        assert c.passed, c


def test_fourier_identities_with_structure_factor():
    params = P(t=0.9, U=1.2, V=1.1, g=0.7, omega=1.4, beta=1.1, n_max=2)
    rng = np.random.default_rng(10)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    spec = thermo.spectral(model.build_doubleprime_csr(params, basis), params.beta)
    checks, report = bounds.finite_volume_fourier_check(basis, rng.standard_normal(2), spec)
    for c in checks:
        assert c.passed, c
    assert np.isclose(report["q2_origin"], report["q2_from_structure_factor"])
    assert min(report["structure_factor"]) >= -1e-12


def test_fourier_g_matches_infrared_chain_g():
    # the Fourier check computes g = <A* A> directly; the infrared chain reads it
    # from its Hermitian form G
    params = P(t=0.8, U=1.1, V=0.6, g=0.9, omega=1.3, beta=1.4, n_max=0)
    rng = np.random.default_rng(11)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    checks, _ = bounds.finite_volume_fourier_check(basis, h, spec)
    fourier_g = next(c for c in checks if c.name == "fourier_g")
    assert fourier_g.passed, fourier_g
    g, _, _ = thermo.quadratic_form_quantities(params, basis, h, spec)
    assert fourier_g.lhs == pytest.approx(g, rel=1e-12, abs=1e-12)


def test_fourier_check_refuses_spectrum_of_another_dimension():
    params = P(t=0.9, U=1.2, V=1.1, g=0.7, omega=1.4, beta=1.1, n_max=1)
    small = build_basis(build_lattice(1, 1), 0)
    spec = thermo.spectral(model.build_doubleprime_csr(params, build_basis(build_lattice(1, 1), 1)),
                           params.beta)
    with pytest.raises(ValueError, match="dimension"):
        bounds.finite_volume_fourier_check(small, np.ones(2), spec)
