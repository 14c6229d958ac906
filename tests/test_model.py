import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from hhlab import model
from hhlab.hilbert import HilbertBasis, build_basis, hermiticity_residual
from hhlab.lattice import Lattice, build_lattice
from hhlab.rpverify import build_lr_split, verify_lr_split
import oracles
from oracles import dense_doubleprime, dense_pairing_terms, dense_transformed
from test_hilbert import is_hermitian

P = model.ModelParams


def small_params(**kw):
    base = dict(t=0.9, U=1.4, V=1.1, g=0.8, omega=1.3, beta=1.2, n_max=2)
    base.update(kw)
    return P(**base)


# (nu, n_max) on the L = 1 torus
ORACLE_GEOMETRIES = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]


# -- parameter container -------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        P(t=-1, U=1, V=1, g=0, omega=1, beta=1)
    with pytest.raises(ValueError):
        P(t=1, U=0, V=1, g=0, omega=1, beta=1)
    with pytest.raises(ValueError):
        P(t=1, U=1, V=1, g=0, omega=-2, beta=1)
    with pytest.raises(ValueError):
        P(t=1, U=1, V=1, g=0, omega=1, beta=-0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["t", "U", "V", "g", "omega", "beta"])
def test_params_refuse_nonfinite_couplings(name, value):
    good = dict(t=1.0, U=1.0, V=1.0, g=0.5, omega=1.0, beta=1.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        P(**{**good, name: value})
    P(**{**good, "t": 1e-18, "beta": 1e12})   # extreme but finite stays valid


def test_u_eff_values():
    assert P(t=1, U=4, V=1, g=1, omega=1, beta=1).u_eff == 2.0
    assert P(t=1, U=5, V=1, g=0, omega=1, beta=1).u_eff == 5.0
    assert P(t=1, U=1, V=1, g=3, omega=1, beta=1).u_eff == -17.0


def test_alpha_value():
    p = P(t=1, U=1, V=1, g=2.0, omega=4.0, beta=1)
    assert np.isclose(p.alpha, np.sqrt(2) * 4.0 ** -1.5 * 2.0)


# -- independent assembly oracle ------------------------------------------------------


def _apply_c(f, m, M):
    if not (f >> (M - 1 - m)) & 1:
        return None
    sign = (-1) ** bin(f >> (M - m)).count("1")
    return sign, f & ~(1 << (M - 1 - m))


def _apply_cdag(f, m, M):
    if (f >> (M - 1 - m)) & 1:
        return None
    sign = (-1) ** bin(f >> (M - m)).count("1")
    return sign, f | (1 << (M - 1 - m))


def independent_original(params, lat, basis):
    """H assembled by explicit bit arithmetic on basis states; shares no
    code with the kron-product builders."""
    nb, M, d = basis.boson_dim, basis.n_modes, params.n_max + 1
    dim = basis.total_dim
    H = np.zeros((dim, dim), dtype=complex)

    charges = np.empty((basis.fermion_dim, lat.n_sites))
    for f in range(basis.fermion_dim):
        occ = [(f >> (M - 1 - m)) & 1 for m in range(M)]
        charges[f] = [occ[2 * s] + occ[2 * s + 1] - 1 for s in range(lat.n_sites)]

    tuples = [basis.boson_tuple(b) for b in range(nb)]
    for f in range(basis.fermion_dim):
        q = charges[f]
        coul = params.U * np.sum(q ** 2)
        for bd in lat.bonds():
            coul += params.V * q[bd.i] * q[bd.j]
        for b in range(nb):
            i = f * nb + b
            H[i, i] += coul + params.omega * sum(tuples[b])

    for bd in lat.bonds():
        for s in (0, 1):
            mi, mj = 2 * bd.i + s, 2 * bd.j + s
            for f in range(basis.fermion_dim):
                for src, dst in ((mj, mi), (mi, mj)):
                    r1 = _apply_c(f, src, M)
                    if r1 is None:
                        continue
                    r2 = _apply_cdag(r1[1], dst, M)
                    if r2 is None:
                        continue
                    amp = -params.t * r1[0] * r2[0]
                    for b in range(nb):
                        H[r2[1] * nb + b, f * nb + b] += amp

    for site in range(lat.n_sites):
        for b, tup in enumerate(tuples):
            n = tup[site]
            stride = d ** (lat.n_sites - 1 - site)
            if n > 0:  # annihilate
                for f in range(basis.fermion_dim):
                    H[f * nb + b - stride, f * nb + b] += params.g * charges[f, site] * np.sqrt(n)
            if n < params.n_max:  # create
                for f in range(basis.fermion_dim):
                    H[f * nb + b + stride, f * nb + b] += params.g * charges[f, site] * np.sqrt(n + 1)
    return H


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_original_matches_independent_assembly(nu, n_max):
    lat = build_lattice(nu, 1)
    params = small_params(n_max=n_max)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    assert H.shape == (basis.total_dim, basis.total_dim)
    oracle = independent_original(params, lat, basis)
    assert np.max(np.abs(H - oracle)) < 1e-12


def test_single_site_interaction_spectrum():
    lat = Lattice.single_site()
    basis = build_basis(lat, 1)
    params = P(t=1.0, U=2.5, V=1.0, g=0.0, omega=1.0, beta=1.0, n_max=1)
    H = oracles.build_original(params, basis)
    w = np.linalg.eigvalsh(H)
    # U q^2 spectrum {U, 0, 0, U} tensored with the phonon ladder {0, omega}
    expected = np.sort(np.concatenate([[params.U, 0, 0, params.U],
                                       [params.U + 1, 1, 1, params.U + 1]]))
    assert np.allclose(w, expected)


def test_all_hamiltonians_hermitian():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    hs = model.hamiltonian_set(params, basis)
    for H in (hs.H, hs.H1, hs.H2):
        assert hermiticity_residual(H) < 1e-12 * max(1.0, np.max(np.abs(H)))


# -- Lang-Firsov unitary ----------------------------------------------------------------


def test_lang_firsov_unitary():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    U = model.lang_firsov(params, basis).toarray()
    assert np.max(np.abs(U @ U.conj().T - np.eye(basis.total_dim))) < 1e-10


def test_lang_firsov_g0_is_number_phase():
    lat = build_lattice(1, 1)
    params = small_params(g=0.0)
    basis = build_basis(lat, params.n_max)
    U = model.lang_firsov(params, basis).toarray()
    n_tot = np.zeros(basis.boson_dim)
    for x in basis.sites:
        n_tot += np.real(np.diag(basis.boson(x, "number")))
    expected = oracles.embed_boson(basis, np.diag(np.exp(-0.5j * np.pi * n_tot)))
    assert np.max(np.abs(U - expected)) < 1e-12


def test_conjugation_preserves_spectrum():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    U = model.lang_firsov(params, basis).toarray()
    w1 = np.linalg.eigvalsh(H)
    w2 = np.linalg.eigvalsh(U @ H @ U.conj().T)
    assert np.max(np.abs(w1 - w2)) < 1e-9 * max(1.0, np.max(np.abs(w1)))


@pytest.mark.parametrize("nu,n_max", [(1, 0), (1, 2), (1, 6), (2, 0)])
def test_lang_firsov_is_csr_matching_dense_oracle(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    U = model.lang_firsov(params, basis)
    assert isinstance(U, sparse.csr_array)
    assert np.max(np.abs(U.toarray() - oracles.lang_firsov(params, basis))) <= 1e-14


def test_transformed_equals_original_at_g0():
    lat = build_lattice(1, 1)
    params = small_params(g=0.0)
    basis = build_basis(lat, params.n_max)
    assert np.max(np.abs(oracles.build_transformed(params, basis)
                         - oracles.build_original(params, basis))) < 1e-12


def test_lang_firsov_diagnostic_measures_and_flags():
    # The unitary's own conjugation constants: phase alpha_hat = g / sqrt(omega)
    # exactly at any truncation, displacement (zeta, d) -> (i, g / (sqrt(2) omega)),
    # single-site charge gap -> U - g^2/omega.  Each is compared against the
    # displayed constants (sqrt(2) g omega^{-3/2}, (1, g/omega), U - 2 g^2/omega)
    # and flagged; none of the displayed values reproduces the measurement.
    params = small_params(g=0.8, omega=1.3, n_max=6)
    diag = model.lang_firsov_diagnostic(params)
    assert diag["phase_residual"] < 1e-6
    assert np.isclose(diag["alpha_hat"], params.g / np.sqrt(params.omega), atol=1e-6)
    assert abs(diag["zeta"] - 1j) < 0.05
    assert np.isclose(diag["displacement"].real, params.g / (np.sqrt(2) * params.omega),
                      atol=0.05)
    assert np.isclose(diag["u_eff_measured"], params.U - params.g ** 2 / params.omega,
                      atol=1e-4)
    assert diag["mismatch_alpha"] and diag["mismatch_displacement"] and diag["mismatch_u_eff"]


@pytest.mark.parametrize("n_max", [2, 6])
def test_lang_firsov_diagnostic_matches_dense_oracle(n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    got = model.lang_firsov_diagnostic(params)
    want = oracles.lang_firsov_diagnostic(params, basis)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, bool):
            assert got[key] is value, key
        else:
            assert abs(got[key] - value) <= 1e-12, key


def test_lang_firsov_diagnostic_forms_no_full_space_matrix():
    # at dim 1936 one dense complex full-space matrix is 57 MiB; the dense
    # products of the oracle peak at about 635 MiB here
    import scipy.optimize  # noqa: F401  (its import is not part of the bound)

    params = small_params(n_max=10)
    tracemalloc.start()
    try:
        model.lang_firsov_diagnostic(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("n_max", [0, 1])
def test_lang_firsov_diagnostic_refuses_n_max_below_two(n_max):
    # at n_max = 1 the fit window reaches the top rung, where the fit cannot
    # see the q term
    with pytest.raises(ValueError, match=f"needs n_max >= 2, got {n_max}$"):
        model.lang_firsov_diagnostic(small_params(n_max=n_max))


def test_u_eff_measured_converges_in_n_max():
    errs = []
    for n_max in (2, 4, 8, 16):
        params = small_params(n_max=n_max)
        errs.append(abs(model._single_site_charge_gap(params)
                        - (params.U - params.g ** 2 / params.omega)))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-10


# -- zigzag -------------------------------------------------------------------------------


def test_zigzag_conjugations():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    Vf = model.zigzag_fermion(basis).to_dense()
    assert np.max(np.abs(Vf @ Vf.conj().T - np.eye(basis.fermion_dim))) < 1e-12
    for x in lat.sites:
        for spin in ("up", "down"):
            got = Vf @ oracles.c(basis, x, spin) @ Vf.conj().T
            want = (oracles.cdag if lat.parity(x) == "odd" else oracles.c)(basis, x, spin)
            assert np.max(np.abs(got - want)) < 1e-12, (x, spin)
        q = oracles.charge(basis, x)
        got = Vf @ q @ Vf.conj().T
        assert np.max(np.abs(got - lat.staggered_sign(x) * q)) < 1e-12


def test_doubleprime_is_zigzag_image_and_isospectral():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    H1 = oracles.build_transformed(params, basis)
    H2 = model.build_doubleprime(params, basis)
    Vfull = model.build_zigzag(basis).to_dense()
    assert np.max(np.abs(H2 - Vfull @ H1 @ Vfull.conj().T)) < 1e-10
    w1, w2 = np.linalg.eigvalsh(H1), np.linalg.eigvalsh(H2)
    assert np.max(np.abs(w1 - w2)) < 1e-10 * max(1.0, np.max(np.abs(w1)))


# -- dense oracle of H'' ---------------------------------------------------------------------


def _assert_matches_dense_oracle(params, nu):
    basis = build_basis(build_lattice(nu, 1), params.n_max)
    assert np.array_equal(model.build_doubleprime(params, basis),
                          dense_doubleprime(params, basis))
    terms = list(model.pairing_bond_terms(params, basis))
    oracle = dense_pairing_terms(params, basis)
    assert [key for key, _ in terms] == [key for key, _ in oracle]
    for (_, term), (_, want) in zip(terms, oracle):
        assert sparse.issparse(term)
        assert np.array_equal(term.toarray(), want)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_doubleprime_equals_dense_oracle(nu, n_max):
    _assert_matches_dense_oracle(small_params(n_max=n_max), nu)


@pytest.mark.parametrize("nu,ell,n_max", [(nu, 1, n_max) for nu, n_max in ORACLE_GEOMETRIES]
                         + [(1, 3, 0), (3, 1, 0)])
def test_each_bond_term_is_doubleprime_on_its_site_pair(nu, ell, n_max):
    # the identity thermo.pairing_bond_expectations reads the bonds by: H'' on
    # the entries that flip a site pair, over the terms on it (two on the L = 1
    # tori, one on the six-site ring)
    basis = build_basis(build_lattice(nu, ell), n_max, cap=2 ** 16)
    assert oracles.terms_off_doubleprime(small_params(n_max=n_max), basis) == []


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_transformed_equals_dense_oracle(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    assert np.array_equal(oracles.build_transformed(params, basis),
                          dense_transformed(params, basis))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ORACLE_GEOMETRIES),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
def test_doubleprime_equals_dense_oracle_random_couplings(geometry, t, U, V, g, omega):
    nu, n_max = geometry
    _assert_matches_dense_oracle(P(t=t, U=U, V=V, g=g, omega=omega, beta=1.0, n_max=n_max), nu)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_phonon_gauge_makes_doubleprime_real(nu, n_max):
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime(small_params(n_max=n_max), basis)
    g = oracles.phonon_gauge(basis)
    n_tot = sum(np.real(np.diag(basis.boson(x, "number"))) for x in basis.sites)
    assert np.max(np.abs(g - np.tile(np.exp(0.5j * np.pi * n_tot), basis.fermion_dim))) < 1e-14
    assert set(g.tolist()) <= {1, 1j, -1, -1j}
    if n_max > 0:  # the phonon phases make H'' itself complex
        assert np.max(np.abs(H2.imag)) > 0.1
    gauged = g.conj()[:, None] * H2 * g[None, :]
    assert np.max(np.abs(gauged.imag)) <= 1e-12 * np.max(np.abs(H2))


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_spin_swap_commutes_with_field_hamiltonian(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    S_swap = model.spin_swap(basis)
    perm, sign = S_swap.perm, S_swap.sign
    assert np.array_equal(perm[perm], np.arange(basis.total_dim))
    assert np.array_equal(sign[perm], sign) and set(sign.tolist()) == {1.0, -1.0}
    if basis.total_dim <= 1024:  # the helper is the fermion mode permutation on the fermion factor
        S = np.zeros((basis.total_dim,) * 2)
        S[perm, np.arange(basis.total_dim)] = sign
        swap = {}
        for x in basis.sites:
            swap[basis.mode_index(x, "up")] = basis.mode_index(x, "down")
            swap[basis.mode_index(x, "down")] = basis.mode_index(x, "up")
        assert np.array_equal(S, np.kron(model.fermion_mode_permutation(basis, swap).to_dense(),
                                         np.eye(basis.boson_dim)))
    qd = model.charge_diagonals(basis)
    assert np.array_equal(qd[:, perm[::basis.boson_dim] // basis.boson_dim], qd)
    g = oracles.phonon_gauge(basis)
    rng = np.random.default_rng(nu + 10 * n_max)
    for h in (np.zeros(basis.n_sites), rng.standard_normal(basis.n_sites)):
        H = oracles.build_field_hamiltonian(params, basis, h)
        for M in (H, g.conj()[:, None] * H * g[None, :]):  # before and after the gauge
            swapped = np.empty_like(M)
            swapped[np.ix_(perm, perm)] = sign[:, None] * M * sign[None, :]
            assert np.array_equal(swapped, M)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_zigzag_spin_operators_match_dense_oracle_and_commute_with_field_hamiltonian(nu, n_max):
    """S'+ and 2 S'z are the zigzag images of the dense S+ and 2 S^z, S'+
    keeps every site occupation, and [H''(h), S'+ (x) 1] = 0 for every h."""
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    raising, twice_m = model.zigzag_spin_operators(basis)
    V = model.zigzag_fermion(basis).to_dense()
    s_plus = sum(oracles.cdag(basis, x, "up") @ oracles.c(basis, x, "down") for x in basis.sites)
    assert np.array_equal(raising.toarray(), V @ s_plus.real @ V.T)
    s_z2 = sum(np.diag(oracles.spin_z(basis, x)).real for x in basis.sites)
    assert np.array_equal(np.diag(twice_m).astype(float), V @ np.diag(s_z2) @ V.T)
    r, c = raising.nonzero()
    assert np.array_equal(twice_m[r], twice_m[c] + 2)
    q = model.charge_diagonals(basis)
    assert np.array_equal(q[:, r], q[:, c])
    up = np.kron(raising.toarray(), np.eye(basis.boson_dim))
    rng = np.random.default_rng(nu + 10 * n_max)
    for h in (np.zeros(basis.n_sites), rng.standard_normal(basis.n_sites)):
        H = oracles.build_field_hamiltonian(params, basis, h)
        assert np.max(np.abs(H @ up - up @ H)) <= 1e-13 * np.max(np.abs(H))


# -- external field ------------------------------------------------------------------------


def test_field_hamiltonian_at_zero_field():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    assert np.array_equal(oracles.build_field_hamiltonian(params, basis, np.zeros(2)), H2)


def test_field_hamiltonian_constant_field():
    lat = build_lattice(2, 1)
    params = small_params(n_max=0)
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    Hc = oracles.build_field_hamiltonian(params, basis, 1.3 * np.ones(4))
    assert np.max(np.abs(Hc - H2)) < 1e-12


def test_field_expansion_identity():
    # (V/2) sum_bonds (q_x - q_y)^2 + (u_eff - nu V) sum q^2 = u_eff sum q^2
    # - V sum q_x q_y, using the bond count of the directed enumeration
    lat = build_lattice(2, 1)
    params = small_params(n_max=0)
    basis = build_basis(lat, params.n_max)
    qd = model.charge_diagonals(basis)
    lhs = (params.u_eff - lat.nu * params.V) * sum(q ** 2 for q in qd)
    for b in lat.bonds():
        lhs += 0.5 * params.V * (qd[b.i] - qd[b.j]) ** 2
    rhs = params.u_eff * sum(q ** 2 for q in qd)
    for b in lat.bonds():
        rhs += -params.V * qd[b.i] * qd[b.j]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_field_hamiltonian_hermitian_for_real_h():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    rng = np.random.default_rng(3)
    H = oracles.build_field_hamiltonian(params, basis, rng.standard_normal(2))
    assert is_hermitian(H, tol=1e-12)


# -- hole-particle, spin flip, a-operators ------------------------------------------------


def test_hole_particle_action():
    lat = build_lattice(1, 1)
    basis = build_basis(lat, 0)
    u = model.hole_particle_fermion(basis).to_dense()
    assert np.max(np.abs(u @ u.conj().T - np.eye(basis.fermion_dim))) < 1e-12
    for x in lat.sites:
        up = u @ oracles.c(basis, x, "up") @ u.conj().T
        assert np.max(np.abs(up - oracles.c(basis, x, "up"))) < 1e-12
        dn = u @ oracles.c(basis, x, "down") @ u.conj().T
        want = lat.staggered_sign(x) * oracles.cdag(basis, x, "down")
        assert np.max(np.abs(dn - want)) < 1e-12
        q_conj = u @ oracles.charge(basis, x) @ u.conj().T
        assert np.max(np.abs(q_conj - oracles.spin_z(basis, x))) < 1e-12


def test_spin_flip_action():
    lat = build_lattice(1, 1)
    basis = build_basis(lat, 2)
    D = model.build_spin_flip(basis).to_dense()
    assert np.max(np.abs(D @ D.conj().T - np.eye(basis.total_dim))) < 1e-12
    for x in lat.sites:
        cu = oracles.embed_fermion(basis, oracles.c(basis, x, "up"))
        cd = oracles.embed_fermion(basis, oracles.c(basis, x, "down"))
        assert np.max(np.abs(D @ cu @ D.conj().T - cd)) < 1e-12
        b = oracles.embed_boson(basis, basis.boson(x, "annihilate"))
        assert np.max(np.abs(D @ b @ D.conj().T + b)) < 1e-12


def test_spin_flip_fixes_hole_particle_image():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    u = model.build_hole_particle(basis).to_dense()
    D = model.build_spin_flip(basis).to_dense()
    hh = u @ H @ u.conj().T
    assert np.max(np.abs(D @ hh @ D.conj().T - hh)) < 1e-10


def test_pure_fermion_limit_matches_charge_model():
    # g = 0, n_max = 0: the phonon factor is trivial and H reduces to the
    # extended Hubbard Hamiltonian; compare against an independent assembly
    lat = build_lattice(1, 1)
    params = small_params(g=1e-30, n_max=0)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    oracle = independent_original(params, lat, basis)
    assert np.max(np.abs(H - oracle)) < 1e-12


# -- exact unitaries against their dense oracles ----------------------------------------
#
# The library holds every exact unitary as a signed permutation (hilbert.Monomial).
# The dense builders below are the products of single-mode particle-hole factors,
# the looped mode permutation and the Kronecker spin flip it replaced; they are
# kept here as oracles only.


def dense_particle_hole_factor(basis, x, spin):
    """[prod over all other modes of (-1)^n] (c*_{x s} + c_{x s}) as a dense matrix."""
    nf = basis.fermion_dim
    idx = np.arange(nf)
    own = basis.mode_index(x, spin)
    string = np.ones(nf)
    for m in range(basis.n_modes):
        if m == own:
            continue
        occ = (idx >> (basis.n_modes - 1 - m)) & 1
        string = string * np.where(occ, -1.0, 1.0)
    return np.diag(string.astype(complex)) @ (oracles.cdag(basis, x, spin)
                                              + oracles.c(basis, x, spin))


def dense_zigzag_fermion(basis):
    out = np.eye(basis.fermion_dim, dtype=complex)
    for x in basis.lattice.odd_sites:
        for spin in ("up", "down"):
            out = out @ dense_particle_hole_factor(basis, x, spin)
    return out


def dense_hole_particle_fermion(basis):
    lat = basis.lattice
    nf = basis.fermion_dim
    idx = np.arange(nf)
    out = np.eye(nf, dtype=complex)
    for x in lat.sites:
        out = out @ dense_particle_hole_factor(basis, x, "down")
    twist = np.ones(nf)
    for x in lat.odd_sites:
        m = basis.mode_index(x, "down")
        occ = (idx >> (basis.n_modes - 1 - m)) & 1
        twist = twist * np.where(occ, -1.0, 1.0)
    return np.diag(twist.astype(complex)) @ out


def looped_mode_permutation(basis, perm):
    """c*_m -> c*_{perm[m]}: re-create each bitstring, sign by counting inversions."""
    nf, M = basis.fermion_dim, basis.n_modes
    u = np.zeros((nf, nf), dtype=complex)
    for i in range(nf):
        targets = [perm[m] for m in range(M) if (i >> (M - 1 - m)) & 1]
        sign = 1
        for a in range(len(targets)):
            for b in range(a + 1, len(targets)):
                if targets[a] > targets[b]:
                    sign = -sign
        j = 0
        for m in targets:
            j |= 1 << (M - 1 - m)
        u[j, i] = sign
    return u


def spin_swap_modes(basis):
    swap = {}
    for x in basis.sites:
        swap[basis.mode_index(x, "up")] = basis.mode_index(x, "down")
        swap[basis.mode_index(x, "down")] = basis.mode_index(x, "up")
    return swap


def dense_spin_flip(basis):
    n_tot = np.zeros(basis.boson_dim)
    for x in basis.sites:
        n_tot += np.real(np.diag(basis.boson(x, "number")))
    parity = np.diag(np.where(np.round(n_tot).astype(int) % 2 == 1, -1.0, 1.0).astype(complex))
    return np.kron(looped_mode_permutation(basis, spin_swap_modes(basis)), parity)


def dense_unitaries(basis):
    """(name, monomial, dense oracle) of every full-space exact unitary."""
    eye = np.eye(basis.boson_dim)
    return [
        ("zigzag", model.build_zigzag(basis), np.kron(dense_zigzag_fermion(basis), eye)),
        ("hole_particle", model.build_hole_particle(basis),
         np.kron(dense_hole_particle_fermion(basis), eye)),
        ("spin_flip", model.build_spin_flip(basis), dense_spin_flip(basis)),
        ("spin_swap", model.spin_swap(basis),
         np.kron(looped_mode_permutation(basis, spin_swap_modes(basis)), eye)),
    ]


def exactly_equal(a, b):
    """Entrywise equality after +0.0, which folds -0.0 into 0.0."""
    return np.array_equal(np.asarray(a) + 0.0, np.asarray(b) + 0.0)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6), (2, 1)])
def test_unitaries_equal_dense_oracles(nu, n_max):
    basis = build_basis(build_lattice(nu, 1), n_max)
    assert exactly_equal(model.zigzag_fermion(basis).to_dense(), dense_zigzag_fermion(basis))
    assert exactly_equal(model.hole_particle_fermion(basis).to_dense(),
                         dense_hole_particle_fermion(basis))
    swap = spin_swap_modes(basis)
    assert exactly_equal(model.fermion_mode_permutation(basis, swap).to_dense(),
                         looped_mode_permutation(basis, swap))
    if basis.total_dim <= 1024:
        for name, mono, dense in dense_unitaries(basis):
            assert exactly_equal(mono.to_dense(), dense), name


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_conjugate_equals_dense_product(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    hs = model.hamiltonian_set(params, basis)
    diag = np.random.default_rng(nu + 10 * n_max).standard_normal(basis.total_dim)
    for name, mono, dense in dense_unitaries(basis):
        for S in (hs.H, hs.H1, hs.H2):
            A = S.toarray()
            want = dense @ A @ dense.conj().T
            assert exactly_equal(mono.conjugate(sparse.csr_array(A)).toarray(), want), name
            image = mono.conjugate(S)
            assert isinstance(image, sparse.csr_array) and image.nnz == S.nnz, name
            assert exactly_equal(image.toarray(), want), name
        assert exactly_equal(mono.conjugate(diag), np.diag(dense @ np.diag(diag) @ dense.conj().T))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda nu: st.tuples(st.just(nu), st.permutations(range(4 * nu)))))
def test_mode_permutation_matches_looped_oracle(case):
    nu, perm = case
    basis = build_basis(build_lattice(nu, 1), 0)
    assert exactly_equal(model.fermion_mode_permutation(basis, perm).to_dense(),
                         looped_mode_permutation(basis, perm))


# -- bit-arithmetic fermion factors and the CSR H'' -------------------------------------


def _assert_triple_is_dense_nonzeros(triple, dense):
    """(rows, cols, signs) equals np.nonzero of the dense factor: positions,
    order and values, every value a real +-1."""
    rows, cols, signs = triple
    r, c = np.nonzero(dense)
    assert np.array_equal(rows, r) and np.array_equal(cols, c)
    assert np.array_equal(signs, dense[r, c]) and set(signs.tolist()) <= {1.0, -1.0}


def _half_space_basis(nu, n_max):
    return build_lr_split(build_basis(build_lattice(nu, 1), n_max)).basis_L


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
@pytest.mark.parametrize("pairing", [False, True])
def test_bond_factors_are_dense_product_nonzeros(nu, n_max, pairing):
    params = small_params(n_max=n_max)
    lat = build_lattice(nu, 1)
    basis = build_basis(lat, n_max)
    instances = model._pairing_instances(lat) if pairing else model._hopping_instances(lat)
    second = oracles.cdag if pairing else oracles.c
    for inst, fermions, boson in model._bond_factors(basis, instances, pairing, params):
        x, y = inst[0], inst[1]
        for spin, triple in zip(("up", "down"), fermions):
            _assert_triple_is_dense_nonzeros(triple, oracles.cdag(basis, x, spin)
                                             @ second(basis, y, spin))
        assert np.array_equal(boson, model._hop_phase(basis, params, x, y))


# -- the bond phase from one-site factors ----------------------------------------------

# the benchmark's couplings (perfbench, 2x2 workloads)
BENCHMARK_COUPLINGS = dict(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1), (2, 2)])
def test_hop_phase_matches_whole_boson_space_exponential(nu, n_max):
    # the library multiplies one-site factors; the oracle runs one eigh of the
    # generator on the whole boson factor, for every bond and every site
    params = small_params(n_max=n_max)
    lat = build_lattice(nu, 1)
    basis = build_basis(lat, n_max, cap=2 ** 16)
    pairs = {inst[:2] for inst in model._pairing_instances(lat) + model._hopping_instances(lat)}
    for x, y in pairs:
        want = oracles.hop_phase(params, basis, x, y)
        assert np.max(np.abs(model._hop_phase(basis, params, x, y) - want)) <= 1e-14, (x, y)
    for x in basis.sites:
        want = oracles.expm_i_hermitian(-params.alpha * basis.boson(x, "position",
                                                                    omega=params.omega))
        assert np.max(np.abs(model._hop_phase(basis, params, x) - want)) <= 1e-14, x


@pytest.mark.parametrize("n_max", [0, 1, 2, 6])
def test_site_phase_is_symmetric_real_on_even_and_imaginary_on_odd_entries(n_max):
    u = model._site_phase(small_params(n_max=n_max), n_max)
    odd = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)) % 2 == 1
    assert np.all(u.imag[~odd] == 0) and np.all(u.real[odd] == 0)
    assert np.array_equal(u, u.T)
    assert np.max(np.abs(u @ u.conj().T - np.eye(n_max + 1))) <= 1e-14


def test_doubleprime_stores_exactly_the_kronecker_pattern():
    # 4 distinct site pairs, 2 spins, each term and its adjoint: 64 fermion
    # states with both modes empty times the 64 entries of u (x) conj(u) (x) 1
    # on the 16-dimensional boson factor; plus the diagonal
    basis = build_basis(build_lattice(2, 1), 1)
    H2 = model.build_doubleprime_csr(P(**BENCHMARK_COUPLINGS, n_max=1), basis)
    assert H2.nnz == 4 * 2 * 2 * 64 * 64 + basis.total_dim == 69_632
    rows = np.repeat(np.arange(basis.total_dim), np.diff(H2.indptr))
    off = np.abs(H2.data[rows != H2.indices])
    assert off.min() >= 1e-12 * np.abs(H2.data).max()


@pytest.mark.parametrize("nu,n_max", [(1, 2), (1, 6), (2, 0), (2, 1), (2, 2)])
def test_particle_hole_maps_doubleprime_onto_itself_bit_for_bit(nu, n_max):
    # Pi_0 maps each pairing term onto the adjoint of its spin partner, with
    # the phase conjugated by phonon parity: exact since u is exactly
    # symmetric with its parity structure.  (Pi_a, a != 0, still leaves about
    # 1e-16 at 2x2, from the diagonal, so it is not asserted here.)
    basis = build_basis(build_lattice(nu, 1), n_max, cap=2 ** 16)
    for params in (small_params(n_max=n_max), P(**BENCHMARK_COUPLINGS, n_max=n_max)):
        H2 = model.build_doubleprime_csr(params, basis)
        image = model.particle_hole_symmetry(basis, np.arange(basis.n_sites)).conjugate(H2)
        image.sort_indices()
        assert np.array_equal(image.indptr, H2.indptr)
        assert np.array_equal(image.indices, H2.indices)
        assert np.array_equal(image.data, H2.data)


def test_hamiltonians_and_split_eigendecompose_one_site_only(monkeypatch):
    # no phonon operator larger than one site is exponentiated: every eigh
    # while H, H', H'' and the reflection split are built has n_max + 1 rows
    rows = []
    eigh = np.linalg.eigh

    def recorder(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorder)
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), 1)
    model.hamiltonian_set(params, basis)
    assert rows and max(rows) <= 2
    rows.clear()
    assert all(res.passed for res in verify_lr_split(params, basis))
    assert rows and max(rows) <= 2


@pytest.mark.parametrize("nu,n_max", [(1, 0), (2, 0), (2, 1)])
def test_fermion_pairs_on_half_space_basis_are_dense_product_nonzeros(nu, n_max):
    basis = _half_space_basis(nu, n_max)
    for a in range(basis.n_modes):
        for b in range(basis.n_modes):
            if a == b:
                continue
            (x, sa), (y, sb) = basis.modes[a], basis.modes[b]
            cdag_x = oracles.cdag(basis, x, sa)
            _assert_triple_is_dense_nonzeros(model._fermion_pair(basis, a, b, False),
                                             cdag_x @ oracles.c(basis, y, sb))
            _assert_triple_is_dense_nonzeros(model._fermion_pair(basis, a, b, True),
                                             cdag_x @ oracles.cdag(basis, y, sb))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda nu: st.tuples(
    st.just(nu), st.lists(st.integers(0, 4 * nu - 1), min_size=2, max_size=2, unique=True),
    st.booleans())))
def test_fermion_pair_matches_bit_loop_and_dense_oracles(case):
    nu, (a, b), pairing = case
    basis = build_basis(build_lattice(nu, 1), 0)
    M = basis.n_modes
    rows, cols, signs = model._fermion_pair(basis, a, b, pairing)
    want = {}
    for f in range(basis.fermion_dim):
        first = (_apply_cdag if pairing else _apply_c)(f, b, M)
        second = first and _apply_cdag(first[1], a, M)
        if second:
            want[second[1]] = (f, first[0] * second[0])
    assert sorted(want) == rows.tolist()
    assert [want[r] for r in rows.tolist()] == list(zip(cols.tolist(), signs.tolist()))
    (x, sa), (y, sb) = basis.modes[a], basis.modes[b]
    dense = oracles.cdag(basis, x, sa) @ (oracles.cdag if pairing else oracles.c)(basis, y, sb)
    _assert_triple_is_dense_nonzeros((rows, cols, signs), dense)


def test_mode_tables_are_cached_and_read_only():
    basis = build_basis(build_lattice(2, 1), 0)
    occ, strings = basis.mode_tables()
    assert basis.mode_tables()[0] is occ and basis.mode_tables()[1] is strings
    for table in (occ, strings):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    for m, (x, spin) in enumerate(basis.modes):
        assert np.array_equal(occ[m], np.diag(oracles.n_spin(basis, x, spin)).real)
        # c_m = (string of m) sigma^-_m: its entries carry the string's sign at the source state
        r, c = np.nonzero(oracles.c(basis, x, spin))
        assert np.array_equal(oracles.c(basis, x, spin)[r, c], strings[m, c])


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_doubleprime_csr_equals_dense(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime_csr(params, basis)
    assert isinstance(H2, sparse.csr_array) and H2.dtype == complex
    assert np.array_equal(H2.toarray(), model.build_doubleprime(params, basis))
