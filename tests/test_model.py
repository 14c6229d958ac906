import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from hhlab import model
from hhlab.hilbert import HilbertBasis, build_basis, hermiticity_residual
from hhlab.lattice import Lattice, build_lattice
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
    H = model.build_original(params, basis)
    assert H.shape == (basis.total_dim, basis.total_dim)
    oracle = independent_original(params, lat, basis)
    assert np.max(np.abs(H - oracle)) < 1e-12


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_original_structures_sum_to_original(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    S = model.original_structures(basis)
    assert all(isinstance(S[k], sparse.csr_array) and S[k].dtype == np.float64 for k in ("t", "g"))
    H = (params.t * S["t"] + params.g * S["g"]).toarray() + np.diag(
        params.U * S["U"] + params.V * S["V"] + params.omega * S["omega"])
    assert np.max(np.abs(H - model.build_original(params, basis))) < 1e-12


def test_single_site_interaction_spectrum():
    lat = Lattice.single_site()
    basis = build_basis(lat, 1)
    params = P(t=1.0, U=2.5, V=1.0, g=0.0, omega=1.0, beta=1.0, n_max=1)
    H = model.build_original(params, basis)
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
    U = model.lang_firsov(params, basis)
    assert np.max(np.abs(U @ U.conj().T - np.eye(basis.total_dim))) < 1e-10


def test_lang_firsov_g0_is_number_phase():
    lat = build_lattice(1, 1)
    params = small_params(g=0.0)
    basis = build_basis(lat, params.n_max)
    U = model.lang_firsov(params, basis)
    n_tot = np.zeros(basis.boson_dim)
    for x in basis.sites:
        n_tot += np.real(np.diag(basis.boson(x, "number")))
    expected = basis.embed_boson(np.diag(np.exp(-0.5j * np.pi * n_tot)))
    assert np.max(np.abs(U - expected)) < 1e-12


def test_conjugation_preserves_spectrum():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H = model.build_original(params, basis)
    U = model.lang_firsov(params, basis)
    w1 = np.linalg.eigvalsh(H)
    w2 = np.linalg.eigvalsh(U @ H @ U.conj().T)
    assert np.max(np.abs(w1 - w2)) < 1e-9 * max(1.0, np.max(np.abs(w1)))


def test_transformed_equals_original_at_g0():
    lat = build_lattice(1, 1)
    params = small_params(g=0.0)
    basis = build_basis(lat, params.n_max)
    assert np.max(np.abs(model.build_transformed(params, basis)
                         - model.build_original(params, basis))) < 1e-12


def test_lang_firsov_diagnostic_measures_and_flags():
    # The unitary's own conjugation constants: phase alpha_hat = g / sqrt(omega)
    # exactly at any truncation, displacement (zeta, d) -> (i, g / (sqrt(2) omega)),
    # single-site charge gap -> U - g^2/omega.  Each is compared against the
    # displayed constants (sqrt(2) g omega^{-3/2}, (1, g/omega), U - 2 g^2/omega)
    # and flagged; none of the displayed values reproduces the measurement.
    lat = build_lattice(1, 1)
    params = small_params(g=0.8, omega=1.3, n_max=6)
    basis = build_basis(lat, params.n_max)
    diag = model.lang_firsov_diagnostic(params, basis)
    assert diag["phase_residual"] < 1e-6
    assert np.isclose(diag["alpha_hat"], params.g / np.sqrt(params.omega), atol=1e-6)
    assert abs(diag["zeta"] - 1j) < 0.05
    assert np.isclose(diag["displacement"].real, params.g / (np.sqrt(2) * params.omega),
                      atol=0.05)
    assert np.isclose(diag["u_eff_measured"], params.U - params.g ** 2 / params.omega,
                      atol=1e-4)
    assert diag["mismatch_alpha"] and diag["mismatch_displacement"] and diag["mismatch_u_eff"]


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
            got = Vf @ basis.c(x, spin) @ Vf.conj().T
            want = basis.cdag(x, spin) if lat.parity(x) == "odd" else basis.c(x, spin)
            assert np.max(np.abs(got - want)) < 1e-12, (x, spin)
        q = basis.charge(x)
        got = Vf @ q @ Vf.conj().T
        assert np.max(np.abs(got - lat.staggered_sign(x) * q)) < 1e-12


def test_doubleprime_is_zigzag_image_and_isospectral():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    H1 = model.build_transformed(params, basis)
    H2 = model.build_doubleprime(params, basis)
    Vfull = model.build_zigzag(basis).to_dense()
    assert np.max(np.abs(H2 - Vfull @ H1 @ Vfull.conj().T)) < 1e-10
    w1, w2 = np.linalg.eigvalsh(H1), np.linalg.eigvalsh(H2)
    assert np.max(np.abs(w1 - w2)) < 1e-10 * max(1.0, np.max(np.abs(w1)))


# -- dense oracle of H'' ---------------------------------------------------------------------


def dense_pairing_terms(params, basis):
    """The pairing terms of T'' as dense full-space Kronecker products,
    -t sum_s (c*_{x s} c*_{y s} (x) exp(-i alpha (phi_x - phi_y)) + h.c.),
    one per (x, y, j, eps) in the library's order."""
    lat = basis.lattice
    out = []
    for x in lat.even_sites:
        for j in range(1, lat.nu + 1):
            for eps in (+1, -1):
                y = lat.shift(x, j, eps)
                phi_x = basis.boson(x, "position", omega=params.omega)
                phi_y = basis.boson(y, "position", omega=params.omega)
                phase = model.expm_i_hermitian(-params.alpha * (phi_x - phi_y))
                term = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
                for spin in ("up", "down"):
                    pair = np.kron(basis.cdag(x, spin) @ basis.cdag(y, spin), phase)
                    term += -params.t * (pair + pair.conj().T)
                out.append(((x, y, j, eps), term))
    return out


def dense_charge_and_phonon(params, basis, v_coeff):
    """u_eff sum q^2 + v_coeff sum_bonds q q + K as dense full-space matrices."""
    lat = basis.lattice
    P_f = np.zeros((basis.fermion_dim, basis.fermion_dim), dtype=complex)
    for x in lat.sites:
        P_f += params.u_eff * basis.charge(x) @ basis.charge(x)
    for b in lat.bonds():
        P_f += v_coeff * basis.charge(lat.sites[b.i]) @ basis.charge(lat.sites[b.j])
    K_b = np.zeros((basis.boson_dim, basis.boson_dim), dtype=complex)
    for x in lat.sites:
        K_b += params.omega * basis.boson(x, "number")
    return basis.embed_fermion(P_f) + basis.embed_boson(K_b)


def dense_doubleprime(params, basis):
    """H'' = T'' + P'' + K with every part a dense full-space matrix."""
    T2 = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for _, term in dense_pairing_terms(params, basis):
        T2 += term
    return T2 + dense_charge_and_phonon(params, basis, -params.V)


def dense_transformed(params, basis):
    """H' = T' + P' + K with every part a dense full-space matrix: each
    phase-dressed hopping term as a Kronecker product,
    -t (c*_{x s} c_{y s} (x) exp(-i alpha (phi_x - phi_y)) + h.c.)."""
    lat = basis.lattice
    T1 = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for b in lat.bonds():
        x, y = lat.sites[b.i], lat.sites[b.j]
        phi_x = basis.boson(x, "position", omega=params.omega)
        phi_y = basis.boson(y, "position", omega=params.omega)
        phase = model.expm_i_hermitian(-params.alpha * (phi_x - phi_y))
        for spin in ("up", "down"):
            term = np.kron(basis.cdag(x, spin) @ basis.c(y, spin), phase)
            T1 += -params.t * (term + term.conj().T)
    return T1 + dense_charge_and_phonon(params, basis, params.V)


def _assert_matches_dense_oracle(params, nu):
    basis = build_basis(build_lattice(nu, 1), params.n_max)
    assert np.array_equal(model.build_doubleprime(params, basis),
                          dense_doubleprime(params, basis))
    terms = model.pairing_bond_terms(params, basis)
    oracle = dense_pairing_terms(params, basis)
    assert [key for key, _ in terms] == [key for key, _ in oracle]
    for (_, term), (_, want) in zip(terms, oracle):
        assert sparse.issparse(term)
        assert np.array_equal(term.toarray(), want)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_doubleprime_equals_dense_oracle(nu, n_max):
    _assert_matches_dense_oracle(small_params(n_max=n_max), nu)


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(1, 6)])
def test_transformed_equals_dense_oracle(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    assert np.array_equal(model.build_transformed(params, basis), dense_transformed(params, basis))


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
    g = model.phonon_gauge(basis)
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
    g = model.phonon_gauge(basis)
    rng = np.random.default_rng(nu + 10 * n_max)
    for h in (np.zeros(basis.n_sites), rng.standard_normal(basis.n_sites)):
        H = model.build_field_hamiltonian(params, basis, h)
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
    s_plus = sum(basis.cdag(x, "up") @ basis.c(x, "down") for x in basis.sites)
    assert np.array_equal(raising.toarray(), V @ s_plus.real @ V.T)
    s_z2 = sum(np.diag(basis.spin_z(x)).real for x in basis.sites)
    assert np.array_equal(np.diag(twice_m).astype(float), V @ np.diag(s_z2) @ V.T)
    r, c = raising.nonzero()
    assert np.array_equal(twice_m[r], twice_m[c] + 2)
    q = model.charge_diagonals(basis)
    assert np.array_equal(q[:, r], q[:, c])
    up = np.kron(raising.toarray(), np.eye(basis.boson_dim))
    rng = np.random.default_rng(nu + 10 * n_max)
    for h in (np.zeros(basis.n_sites), rng.standard_normal(basis.n_sites)):
        H = model.build_field_hamiltonian(params, basis, h)
        assert np.max(np.abs(H @ up - up @ H)) <= 1e-13 * np.max(np.abs(H))


# -- external field ------------------------------------------------------------------------


def test_field_hamiltonian_at_zero_field():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    assert np.array_equal(model.build_field_hamiltonian(params, basis, np.zeros(2)), H2)


def test_field_hamiltonian_constant_field():
    lat = build_lattice(2, 1)
    params = small_params(n_max=0)
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    Hc = model.build_field_hamiltonian(params, basis, 1.3 * np.ones(4))
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
    H = model.build_field_hamiltonian(params, basis, rng.standard_normal(2))
    assert is_hermitian(H, tol=1e-12)


# -- hole-particle, spin flip, a-operators ------------------------------------------------


def test_hole_particle_action():
    lat = build_lattice(1, 1)
    basis = build_basis(lat, 0)
    u = model.hole_particle_fermion(basis).to_dense()
    assert np.max(np.abs(u @ u.conj().T - np.eye(basis.fermion_dim))) < 1e-12
    for x in lat.sites:
        up = u @ basis.c(x, "up") @ u.conj().T
        assert np.max(np.abs(up - basis.c(x, "up"))) < 1e-12
        dn = u @ basis.c(x, "down") @ u.conj().T
        want = lat.staggered_sign(x) * basis.cdag(x, "down")
        assert np.max(np.abs(dn - want)) < 1e-12
        q_conj = u @ basis.charge(x) @ u.conj().T
        assert np.max(np.abs(q_conj - basis.spin_z(x))) < 1e-12


def test_spin_flip_action():
    lat = build_lattice(1, 1)
    basis = build_basis(lat, 2)
    D = model.build_spin_flip(basis).to_dense()
    assert np.max(np.abs(D @ D.conj().T - np.eye(basis.total_dim))) < 1e-12
    for x in lat.sites:
        cu = basis.embed_fermion(basis.c(x, "up"))
        cd = basis.embed_fermion(basis.c(x, "down"))
        assert np.max(np.abs(D @ cu @ D.conj().T - cd)) < 1e-12
        b = basis.embed_boson(basis.boson(x, "annihilate"))
        assert np.max(np.abs(D @ b @ D.conj().T + b)) < 1e-12


def test_spin_flip_fixes_hole_particle_image():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    H = model.build_original(params, basis)
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
    H = model.build_original(params, basis)
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
    return np.diag(string.astype(complex)) @ (basis.cdag(x, spin) + basis.c(x, spin))


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
        for A in (hs.H, hs.H1, hs.H2):
            assert exactly_equal(mono.conjugate(A), dense @ A @ dense.conj().T), name
        assert exactly_equal(mono.conjugate(diag), np.diag(dense @ np.diag(diag) @ dense.conj().T))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda nu: st.tuples(st.just(nu), st.permutations(range(4 * nu)))))
def test_mode_permutation_matches_looped_oracle(case):
    nu, perm = case
    basis = build_basis(build_lattice(nu, 1), 0)
    assert exactly_equal(model.fermion_mode_permutation(basis, perm).to_dense(),
                         looped_mode_permutation(basis, perm))
