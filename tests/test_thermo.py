import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import oracles
from hhlab import model, rpverify, sectors, thermo
from hhlab.hilbert import build_basis
from hhlab.lattice import build_lattice
from test_model import ORACLE_GEOMETRIES

P = model.ModelParams


def small_params(**kw):
    base = dict(t=0.9, U=1.4, V=1.1, g=0.8, omega=1.3, beta=1.2, n_max=2)
    base.update(kw)
    return P(**base)


@pytest.fixture(scope="module")
def state():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    return lat, params, basis, H2, spec


@pytest.fixture(scope="module")
def oracle(state):
    _, params, _, H2, _ = state
    return Oracle(H2, params.beta, blockwise=True)


@pytest.fixture(scope="module")
def state_2x2():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), 1)
    H2 = model.build_doubleprime(params, basis)
    return params, basis, H2, thermo.spectral(H2, params.beta)


# -- spectral data --------------------------------------------------------------------


def test_reconstruction_and_logz(state):
    lat, params, basis, H2, spec = state
    for idx, w, Q in spec.blocks:
        assert np.max(np.abs((Q * w) @ Q.conj().T - H2[np.ix_(idx, idx)])) < 1e-9 * np.max(np.abs(H2))
    w = spec.eigenvalues
    assert np.isclose(spec.logZ, np.log(np.sum(np.exp(-params.beta * (w - w[0]))))
                      - params.beta * w[0])


def test_blocks_partition_the_space(state):
    _, _, basis, _, spec = state
    idx = np.concatenate([blk[0] for blk in spec.blocks])
    assert sorted(idx.tolist()) == list(range(basis.total_dim))


def test_large_beta_logz_is_finite():
    lat = build_lattice(1, 1)
    params = small_params(beta=5000.0, n_max=1)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    spec = thermo.spectral(H, params.beta)
    assert np.isfinite(spec.logZ)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -1.0])
def test_spectral_refuses_a_beta_of_no_gibbs_state_before_any_block(monkeypatch, beta):
    # nan and inf gave log Z = nan, and -1 a finite log Z of no Gibbs state
    def refuse(*args):
        raise AssertionError("a block was scattered")

    monkeypatch.setattr(thermo, "_stream_stacks", refuse)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        thermo.spectral(np.diag([0.5, 1.0, 2.0]), beta)


@pytest.mark.parametrize("H", [np.zeros((0, 0)), sparse.csr_array((0, 0))], ids=["dense", "csr"])
def test_spectral_refuses_an_empty_matrix(H):
    # a dense one raised ZeroDivisionError, a CSR one a ValueError from numpy's max
    with pytest.raises(ValueError, match="H must be square and not empty"):
        thermo.spectral(H, 1.0)


def non_finite(case):
    """A Hermitian 2 x 2 H with a NaN off the diagonal, a NaN on it, or an inf entry."""
    return {"offdiagonal_nan": np.array([[0.0, np.nan], [np.nan, 0.0]]),
            "diagonal_nan": np.array([[np.nan, 1.0], [1.0, 0.0]]),
            "inf": np.array([[0.0, np.inf], [np.inf, 1.0]])}[case]


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("case", ["offdiagonal_nan", "diagonal_nan", "inf"])
def test_spectral_refuses_a_non_finite_entry_before_any_block(monkeypatch, case, form):
    # these gave log Z = ln 2, 1.47 and nan: the residual check's scale was nan,
    # and res > 1e-9 * nan is False
    def refuse(*args):
        raise AssertionError("a block was scattered")

    H = non_finite(case)
    monkeypatch.setattr(thermo, "_stream_stacks", refuse)
    with pytest.raises(ValueError, match="H has an entry that is not finite"):
        thermo.spectral(H if form == "dense" else sparse.csr_array(H), 1.0)


# -- thermal expectation ---------------------------------------------------------------


def test_expectation_identity(state):
    _, _, basis, _, spec = state
    assert np.isclose(spec.expectation(np.ones(basis.total_dim, dtype=complex)), 1.0)
    assert np.isclose(spec.expectation(np.ones(basis.total_dim)), 1.0)


def test_expectation_beta_zero():
    lat = build_lattice(1, 1)
    params = small_params(beta=0.0, n_max=1)
    basis = build_basis(lat, params.n_max)
    H = oracles.build_original(params, basis)
    spec = thermo.spectral(H, 0.0)
    a = np.random.default_rng(0).standard_normal(basis.total_dim)
    assert np.isclose(spec.expectation(a), a.mean())


def test_half_filling_under_original():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    spec = thermo.spectral(oracles.build_original(params, basis), params.beta)
    for x in lat.sites:
        n_diag = np.repeat(1.0 + model.charge_diagonals(basis)[lat.site_index[x]],
                           basis.boson_dim)
        assert abs(spec.expectation(n_diag) - 1.0) < 1e-12


def test_half_filling_at_infinite_temperature():
    # beta = 0 counts dimensions: half the fermion modes are occupied
    lat = build_lattice(1, 1)
    params = small_params(beta=0.0, n_max=1)
    basis = build_basis(lat, params.n_max)
    spec = thermo.spectral(oracles.build_original(params, basis), 0.0)
    n_diag = np.repeat(1.0 + model.charge_diagonals(basis)[0], basis.boson_dim)
    assert abs(spec.expectation(n_diag) - 1.0) < 1e-12


def dense_gibbs_state(H, beta):
    """e^{-beta H} / Z from one eigendecomposition of the whole matrix."""
    w, q = np.linalg.eigh(H)
    wt = np.exp(-beta * (w - w[0]))
    return (q * wt) @ q.conj().T / wt.sum()


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_pairing_bond_expectations_match_dense_trace(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    rho = dense_gibbs_state(H2, params.beta)
    got = thermo.pairing_bond_expectations(params, basis, spec)
    terms = list(model.pairing_bond_terms(params, basis))
    assert [key for key, _ in got] == [key for key, _ in terms]
    for (_, val), (_, term) in zip(got, terms):
        want = np.trace(rho @ term.toarray())
        assert isinstance(val, float)
        assert abs(val - want) <= 1e-12 * abs(want)


def test_another_dimension_is_refused_before_any_term(monkeypatch):
    # a nu=1 spec of dim 64 against a 2x2 basis of dim 256: each raised a bare
    # IndexError, or numpy's "shapes not aligned"
    params = small_params(n_max=1)
    spec = thermo.spectral(model.build_doubleprime_csr(params, build_basis(build_lattice(1, 1), 1)),
                           params.beta)
    basis = build_basis(build_lattice(2, 1), 0)
    assert (spec.dim, basis.total_dim) == (64, 256)

    def refuse(*args):
        raise AssertionError("an entry was read")

    monkeypatch.setattr(thermo, "_entry_products", refuse)
    with pytest.raises(ValueError, match="dimension 64, not the basis dimension 256"):
        thermo.pairing_bond_expectations(params, basis, spec)
    with pytest.raises(ValueError, match=r"shape \(5,\), not the dimension 64"):
        spec.expectation(np.ones(5))


def test_expectation_refuses_a_matrix(state):
    # a matrix, dense or sparse, was traced against the Gibbs state; only a
    # diagonal is taken now, with a Hermitian one giving a float
    _, params, basis, H2, spec = state
    n = basis.total_dim
    for A in (np.eye(n), sparse.eye_array(n, format="csr"), np.ones((n, 1))):
        with pytest.raises(ValueError, match=r"takes a diagonal \(a 1-d array\), got shape"):
            spec.expectation(A)
    a = np.random.default_rng(8).standard_normal(n)
    assert spec.expectation(a) == np.dot(a, spec.rho_diag())
    assert isinstance(spec.expectation(a + 0j), float)
    val = spec.expectation(1j * a)
    assert isinstance(val, complex) and close(val, 1j * np.dot(a, spec.rho_diag()))


# -- Duhamel two-point function -----------------------------------------------------------


def test_duhamel_identity_is_one(state, oracle):
    _, _, basis, _, _ = state
    one = np.eye(basis.total_dim, dtype=complex)
    assert np.isclose(oracle.duhamel(one, one), 1.0)


def test_duhamel_commuting_equals_static(state, oracle):
    _, _, basis, H2, spec = state
    # A = H commutes with H: (A, A) = <A* A>
    assert np.isclose(oracle.duhamel(H2, H2), oracle.expectation(H2 @ H2))


def test_duhamel_positive_and_symmetric(state, oracle):
    _, _, basis, _, _ = state
    rng = np.random.default_rng(1)
    n = basis.total_dim
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    aa = oracle.duhamel(A, A)
    assert abs(complex(aa).imag) < 1e-10 * max(1.0, abs(aa))
    assert complex(aa).real >= -1e-12
    assert np.isclose(oracle.duhamel(A, B), np.conj(oracle.duhamel(B, A)))


def test_duhamel_complex_split(state, oracle):
    # (A, A) = (A_R, A_R) + (A_I, A_I) with A_R, A_I the Hermitian parts
    _, _, basis, _, _ = state
    rng = np.random.default_rng(2)
    n = basis.total_dim
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a_r = (A + A.conj().T) / 2
    a_i = (A - A.conj().T) / 2j
    lhs = oracle.duhamel(A, A)
    rhs = oracle.duhamel(a_r, a_r) + oracle.duhamel(a_i, a_i)
    assert np.isclose(lhs, rhs)


def test_duhamel_bogoliubov_sandwich(state, oracle):
    # 0 <= (A, A) <= <A*A + AA*>/2
    _, _, basis, _, spec = state
    rng = np.random.default_rng(3)
    n = basis.total_dim
    for _ in range(5):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        aa = complex(oracle.duhamel(A, A)).real
        sym = oracle.expectation(A.conj().T @ A + A @ A.conj().T).real / 2
        assert -1e-12 <= aa <= sym * (1 + 1e-12)


def test_duhamel_diagonal_fast_path_matches_dense(state, oracle):
    _, _, basis, _, _ = state
    rng = np.random.default_rng(4)
    d = rng.standard_normal(basis.total_dim)
    dense = oracle.duhamel(np.diag(d.astype(complex)), np.diag(d.astype(complex)))
    fast = oracle.duhamel(d, d)
    assert np.isclose(dense, fast)


def test_duhamel_small_gap_series_continuity():
    # kernel continuity across the series switch: compare two nearly
    # degenerate spectra
    w = np.array([0.0, 1e-7, 1.0])
    kern = thermo._duhamel_kernel(1.0, w, w)
    assert np.all(np.isfinite(kern))
    assert np.isclose(kern[0, 1], np.exp(0.0), atol=1e-6)
    # symmetric kernel
    assert np.allclose(kern, kern.T, atol=1e-12)


def test_duhamel_kernel_finite_across_wide_gaps():
    # beta * gap = 900: e^{beta gap} overflows, the kernel must not
    w = np.array([0.0, 300.0, 300.5])
    kern = thermo._duhamel_kernel(3.0, w, w)
    assert np.all(np.isfinite(kern))
    assert np.array_equal(kern, kern.T)
    assert kern[0, 1] == pytest.approx(-np.expm1(-900.0) / 900.0, rel=1e-15)
    assert kern[1, 2] == pytest.approx(np.exp(-900.0) * -np.expm1(-1.5) / 1.5, rel=1e-15)


def kernel_by_the_formula(beta, w_row, w_col):
    """The Duhamel kernel as it was first written: every step a separate array."""
    em = w_col[None, :]
    en = w_row[:, None]
    delta = beta * np.abs(en - em)
    small = delta < thermo._GAP_SERIES_CUTOFF
    safe = np.where(small, 1.0, delta)
    ratio = np.where(small, 1.0 - delta / 2.0 + delta ** 2 / 6.0,
                     -np.expm1(-safe) / safe)
    return np.exp(-beta * np.minimum(en, em)) * ratio


@pytest.mark.parametrize("beta", [0.3, 2.0, 40.0])
def test_duhamel_kernel_matches_the_formula(beta):
    cut = thermo._GAP_SERIES_CUTOFF / beta
    rng = np.random.default_rng(int(beta * 10))
    w = np.sort(np.concatenate([
        [0.0, 0.0, 1.0, 1.0, 1.0],                              # exact degeneracy
        1.0 + cut * np.array([0.5, 0.999, 1.001, 2.0]),          # both sides of the cutoff
        2.0 + rng.random(20) * 1e-3,
        rng.random(20) * 800.0 / beta,                           # beta |dE| up to 800
    ]))
    kern = thermo._duhamel_kernel(beta, w, w)
    assert np.array_equal(kern, kern.T)
    want = kernel_by_the_formula(beta, w, w)
    assert np.all(np.abs(kern - want) <= 4e-16 * np.abs(want))
    # rectangular, as the oracle takes it between two blocks
    rect = thermo._duhamel_kernel(beta, w[:7], w[3:])
    assert np.all(np.abs(rect - want[:7, 3:]) <= 4e-16 * np.abs(want[:7, 3:]))


# -- charge correlations --------------------------------------------------------------------


def test_charge_correlation_range():
    params = small_params()
    basis = build_basis(build_lattice(1, 1), params.n_max)
    val = thermo.charge_correlation(params, basis, (0,), (0,), which="zigzag")
    assert 0.0 <= val <= 1.0


def test_charge_correlation_refuses_unknown_hamiltonian_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("H built before the choice was checked")

    monkeypatch.setattr(model, "build_original_csr", refuse)
    basis = build_basis(build_lattice(1, 1), 0)
    with pytest.raises(ValueError, match="'original' or 'zigzag'"):
        thermo.charge_correlation(small_params(n_max=0), basis, (0,), (0,), which="doubleprime")


def test_correlation_cache_entry_holds_only_the_diagonals():
    # <q_x q_y> reads only rho's diagonal and the charge diagonals, so a cache
    # entry holds those two vectors (0.04 MiB here), not H's eigenvectors
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    entry = thermo._correlation_state(params, basis, "original")
    assert len(entry) == 2 and all(isinstance(a, np.ndarray) and a.base is None for a in entry)
    assert sum(a.nbytes for a in entry) == 8 * (basis.total_dim + basis.n_sites * basis.fermion_dim)
    rho, qd = entry
    spec = thermo.spectral(model.build_original_csr(params, basis), params.beta)
    assert np.array_equal(rho, spec.rho_diag())
    assert np.array_equal(qd, model.charge_diagonals(basis))
    x, y = basis.sites[0], basis.sites[1]
    want = spec.expectation(np.repeat(qd[0] * qd[1], basis.boson_dim))
    assert thermo.charge_correlation(params, basis, x, y) == want


def test_zigzag_sign_relation_exact():
    params = small_params()
    lat = build_lattice(1, 1)
    basis = build_basis(lat, params.n_max)
    for x in lat.sites:
        zz = thermo.charge_correlation(params, basis, x, (0,), which="zigzag")
        orig = thermo.charge_correlation(params, basis, x, (0,), which="original")
        assert abs(zz - lat.staggered_sign(x) * orig) < 1e-12


def test_translation_invariance():
    params = small_params(n_max=1)
    lat = build_lattice(1, 1)
    basis = build_basis(lat, params.n_max)
    a = thermo.charge_correlation(params, basis, (-1,), (0,), which="original")
    b = thermo.charge_correlation(params, basis, (0,), (1,), which="original")
    assert np.isclose(a, b)


def test_strong_coupling_charge_order():
    # nu V - u_eff = 12 > 0: staggered correlation positive at the far site
    params = P(t=0.1, U=1.0, V=5.0, g=2.0, omega=1.0, beta=20.0, n_max=6)
    lat = build_lattice(1, 1)
    val = thermo.charge_correlation(params, build_basis(lat, params.n_max), (-1,), (0,),
                                    which="original")
    assert lat.staggered_sign((-1,)) * val > 0.1


# -- g, b, c quantities -----------------------------------------------------------------------


@pytest.mark.parametrize("nu,n_max", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)])
def test_quadratic_forms_match_per_field_oracle(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    rng = np.random.default_rng(10 * nu + n_max)
    n = basis.n_sites
    fields = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    assert_forms_match(params, basis, spec, Oracle(H2, params.beta, blockwise=True), fields)
    for M in spec._forms[1]:
        assert M.shape == (n, n)
        assert np.array_equal(M, M.conj().T)
    # a CSR H'' gives the same forms as the dense one
    csr = model.build_doubleprime_csr(params, basis)
    got = thermo._quadratic_forms(thermo.spectral(csr, params.beta), basis)
    assert all(np.array_equal(a, b) for a, b in zip(got, spec._forms[1]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2, max_size=2))
def test_quadratic_forms_match_oracle_random_couplings(n_max, t, U, V, g, omega, beta, h):
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=beta, n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, beta)
    assert_bonds_match_gibbs_oracle(params, basis, spec)
    assert_forms_match(params, basis, spec, Oracle(H2, beta), [np.array(h)])
    assert_orbit_reads_match_every_component(params, basis, H2, spec)


def test_quadratic_forms_cached_for_one_hamiltonian(monkeypatch):
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    bond_exp = thermo.pairing_bond_expectations(params, basis, spec)
    built = []
    build = thermo._build_quadratic_forms
    monkeypatch.setattr(thermo, "_build_quadratic_forms",
                        lambda spec, basis: built.append(basis) or build(spec, basis))
    h = np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.5j, 0.1 - 0.9j])

    def run(b=basis, bonds=bond_exp, s=spec):
        out = thermo.quadratic_form_quantities(params, b, h, s, bonds)
        assert s._forms[0] is b   # one slot, the last basis
        return out

    g0, b0, c0 = run()
    assert c0 > 1.0
    assert run() == (g0, b0, c0) and len(built) == 1
    # doubled bond terms double the closed form, which must match the entries spec keeps
    with pytest.raises(AssertionError, match="nested commutator mismatch"):
        run(bonds=[(key, 2.0 * w) for key, w in bond_exp])
    assert len(built) == 1 and spec._forms[2] is None
    # the refused bonds are not kept: without bonds, spec's own are read
    assert thermo.quadratic_form_quantities(params, basis, h, spec) == (g0, b0, c0)
    # a diagonal shift of H'' has its own spectral data and forms; c keeps its
    # value, as D_x vanishes on the diagonal
    shifted = thermo.spectral(H2 + 0.5 * np.eye(basis.total_dim), params.beta)
    for got, want in zip(run(s=shifted), (g0, b0, c0)):
        assert close(got, want, 1e-10)
    assert len(built) == 2
    # an equal basis is another object: the slot is keyed by identity
    assert run(b=build_basis(build_lattice(2, 1), 0)) == (g0, b0, c0)
    assert run() == (g0, b0, c0)
    assert len(built) == 4


def test_bond_expectations_computed_once_without_them(monkeypatch):
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    want = [thermo.quadratic_form_quantities(params, basis, h, spec,
                                             thermo.pairing_bond_expectations(params, basis, spec))
            for h in np.eye(4)]
    calls = []
    bonds = thermo.pairing_bond_expectations
    monkeypatch.setattr(thermo, "pairing_bond_expectations",
                        lambda *args: calls.append(args) or bonds(*args))
    spec = thermo.spectral(H2, params.beta)
    for _ in range(3):
        assert [thermo.quadratic_form_quantities(params, basis, h, spec)
                for h in np.eye(4)] == want
    assert len(calls) == 1
    # bonds handed in take over, and are kept: the bonds are those of spec and basis
    given = bonds(params, basis, spec)
    thermo.quadratic_form_quantities(params, basis, np.eye(4)[0], spec, given)
    assert spec._forms[2] is given and len(calls) == 1
    thermo.quadratic_form_quantities(params, basis, np.eye(4)[0], spec)
    assert spec._forms[2] is given and len(calls) == 1


@pytest.mark.parametrize("beta", [2.4, 0.0])
def test_forms_refuse_a_beta_that_is_not_the_spec_beta(monkeypatch, beta):
    # c was beta <[A, [H'', A*]]> with the beta of params, and b and g those of
    # spec's Gibbs state: a mismatch mixed two temperatures in one record
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    H2 = model.build_doubleprime_csr(params, basis)
    spec = thermo.spectral(H2, params.beta)
    other = P(**{**params.__dict__, "beta": beta})

    def refuse(*args):
        raise AssertionError("a form or bond was read")

    monkeypatch.setattr(thermo, "_build_quadratic_forms", refuse)
    monkeypatch.setattr(thermo, "pairing_bond_expectations", refuse)
    h = np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.5j, 0.1 - 0.9j])
    match = f"params.beta = {beta} is not the beta 1.2 of spec"
    with pytest.raises(ValueError, match=match):
        thermo.quadratic_form_quantities(other, basis, h, spec)
    with pytest.raises(ValueError, match=match):
        rpverify.infrared_chain_check(other, basis, h, spec, H2)
    assert spec._forms is None


@pytest.mark.parametrize("wrong", ["spec", "H"])
def test_quadratic_forms_refuse_another_dimension_before_reading_blocks(monkeypatch, wrong):
    params = small_params(n_max=0)
    small = build_basis(build_lattice(1, 1), 0)
    basis = build_basis(build_lattice(1, 1), 2)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    if wrong == "spec":
        spec = thermo.spectral(model.build_doubleprime(params, small), params.beta)
    else:
        H2 = H2[:-1, :-1]

    def refuse(*args):
        raise AssertionError("a block was read")

    monkeypatch.setattr(thermo, "_build_quadratic_forms", refuse)
    if wrong == "spec":   # the forms take no H: only the chain check is handed one
        with pytest.raises(ValueError, match="dimension"):
            thermo.quadratic_form_quantities(params, basis, np.ones(2), spec)
    with pytest.raises(ValueError, match="dimension"):
        rpverify.infrared_chain_check(params, basis, np.ones(2), spec, H2)


def test_forms_read_no_hamiltonian_entries_after_the_spectral_build(monkeypatch, state_2x2):
    # spec keeps the entries of H'' from its one read: the forms and the chain
    # check must not read H'' again, dense or CSR
    params, basis, dense, _ = state_2x2
    h = np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.5j, 0.1 - 0.9j])

    def refuse_to_read(*args):
        raise AssertionError("H'' was read again")

    for H2 in (model.build_doubleprime_csr(params, basis), dense):
        spec = thermo.spectral(H2, params.beta)
        bonds = thermo.pairing_bond_expectations(params, basis, spec)
        with monkeypatch.context() as patch:
            patch.setattr(sectors, "_offdiagonal_pattern", refuse_to_read)
            g, b, c = thermo.quadratic_form_quantities(params, basis, h, spec, bonds)
            records = rpverify.infrared_chain_check(params, basis, h, spec, H2, bonds)
        assert c > 0.0 and len(records) == 5


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0)])
def test_forms_and_chain_check_take_one_laplacian(nu, n_max):
    # both entry points take f = laplacian_matrix() @ h, so their (g, b, c)
    # agree to the bit
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime_csr(params, basis)
    spec = thermo.spectral(H2, params.beta)
    bonds = thermo.pairing_bond_expectations(params, basis, spec)
    rng = np.random.default_rng(40 + nu)
    for _ in range(20):
        h = rng.standard_normal(basis.n_sites) + 1j * rng.standard_normal(basis.n_sites)
        duhamel, _, commutator, falk_bruch, _ = rpverify.infrared_chain_check(
            params, basis, h, spec, H2, bonds)
        assert thermo.quadratic_form_quantities(params, basis, h, spec, bonds) == (
            falk_bruch.lhs, duhamel.lhs, commutator.lhs)


def staggered_charge_spread(basis, H):
    """Per component of H: does the staggered charge take more than one value on it?"""
    charge = np.repeat(basis.lattice.staggered_signs @ model.charge_diagonals(basis),
                       basis.boson_dim)
    labels = component_labels(H)
    return [np.ptp(charge[labels == lab]) > 0 for lab in range(labels.max() + 1)]


def test_staggered_charge_is_constant_on_every_component_of_doubleprime(state_2x2):
    # the identity that lets the build take one charge product fewer per block
    _, basis, H2, _ = state_2x2
    assert not any(staggered_charge_spread(basis, H2))
    for nu, n_max in ORACLE_GEOMETRIES:
        basis = build_basis(build_lattice(nu, 1), n_max)
        H2 = model.build_doubleprime(small_params(n_max=n_max), basis)
        assert not any(staggered_charge_spread(basis, H2))


def test_forms_of_the_original_hamiltonian_match_the_oracle():
    # H moves charge between the sublattices: the build falls back to all products
    params = small_params(n_max=2)
    basis = build_basis(build_lattice(1, 1), 2)
    H = oracles.build_original(params, basis)
    spread = staggered_charge_spread(basis, H)
    assert (sum(spread), len(spread)) == (5, 25)
    assert_raw_forms_match(basis, thermo.spectral(H, params.beta), Oracle(H, params.beta),
                           np.random.default_rng(8))


def with_flux(H, k, l):
    """A complex copy of the dense H with a phase on its entries (k, l) and (l, k)."""
    F = H.astype(complex)
    F[k, l] *= np.exp(0.7j)
    F[l, k] = np.conj(F[k, l])
    return F


def flux_entry(params, basis):
    """(k, l): the first entry of H'', in order, that lies on a cycle, so that a
    phase on it sends its component down the complex path."""
    H = model.build_doubleprime(params, basis)
    for k, l in zip(*np.nonzero(np.triu(H, 1))):
        if not all(thermo.spectral(with_flux(H, k, l), params.beta).real_blocks):
            return k, l
    raise AssertionError("no entry of H'' lies on a cycle")


def doubleprime_with_flux(params, basis):
    """H'' with a phase on the entry of :func:`flux_entry`."""
    return with_flux(model.build_doubleprime(params, basis), *flux_entry(params, basis))


def test_forms_on_a_component_with_flux_match_the_oracle():
    # a phase on one entry of a cycle of H'' sends its component down the complex path
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    F = doubleprime_with_flux(params, basis)
    spec = thermo.spectral(F, params.beta)
    assert not all(spec.real_blocks) and any(spec.real_blocks)
    assert_raw_forms_match(basis, spec, Oracle(F, params.beta), np.random.default_rng(9))


def assert_raw_forms_match(basis, spec, oracle, rng):
    """f^H G f, f^H B f and beta f^H C f against the oracle's direct sums."""
    G, B, C = thermo._quadratic_forms(spec, basis)
    for _ in range(4):
        h = rng.standard_normal(basis.n_sites) + 1j * rng.standard_normal(basis.n_sites)
        f = basis.lattice.laplacian_matrix() @ h
        got = [np.vdot(f, M @ f).real for M in (G, B, spec.beta * C)]
        for val, want in zip(got, oracle.forms(basis, h)):
            assert close(val, want)


def test_form_build_memory_is_bounded(state_2x2):
    # the build holds a few n x n arrays of one block at a time (10.8 MiB at
    # its peak here, every block one tile); the bound keeps speed from being
    # bought with memory
    params, basis, H2, spec = state_2x2
    spec.rho_diag()
    spec._rho_entries()
    tracemalloc.start()
    try:
        thermo._build_quadratic_forms(spec, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_tiled_form_build_memory_follows_the_budget(monkeypatch, state_2x2):
    # in tiles of 1 MiB the build peaks at 3.3 MiB here, against 10.8 MiB for
    # whole blocks: the tiles, not the blocks, set the peak
    params, basis, H2, spec = state_2x2
    spec.rho_diag()
    spec._rho_entries()
    monkeypatch.setattr(thermo, "_TILE_BYTES", 1 << 20)
    assert traced_peak(lambda: thermo._build_quadratic_forms(spec, basis)) < 4 * 2 ** 20


def test_spectral_build_memory_is_bounded(state_2x2):
    # a build holding a whole stack of every block size, a gauged copy of it and
    # five stack-sized residual temporaries peaked at 47.1 MiB here; one stack
    # per size, gauged in place, at 29.9 MiB; in stacks of at most
    # _STACK_BYTES, largest first, at 21.6 MiB.  Scattered as float64 from the
    # one gauged stream, it peaks at 14.0 MiB
    params, basis, H2, _ = state_2x2
    assert traced_peak(lambda: thermo.spectral(H2, params.beta)) < 17.5 * 2 ** 20


def test_bond_expectations_memory_is_bounded(state_2x2):
    # the bonds are summed over H'''s kept entries one component at a time, with
    # no term built: 2.2 MiB at the peak here, against 7.1 MiB when each of the
    # eight terms was built as a CSR array and its entries searched for
    params, basis, _, spec = state_2x2
    spec._rho_entries()
    assert traced_peak(lambda: thermo.pairing_bond_expectations(params, basis, spec)) < 4 * 2 ** 20


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 0), (2, 1)])
def test_bonds_and_forms_have_the_bits_of_whole_gibbs_blocks(nu, n_max):
    # rho is read once at the entries of H'' and B's Gram matrix is built in
    # tiles; every block here is one tile, so the forms keep the bits of the
    # sums over whole Gibbs blocks and whole charge products.  The bonds are
    # summed by site pair over H'''s entries, not term by term: 1e-13 relative
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    spec = thermo.spectral(model.build_doubleprime_csr(params, basis), params.beta)
    assert_bonds_match_gibbs_oracle(params, basis, spec)
    for got, want in zip(thermo._build_quadratic_forms(spec, basis),
                         oracles.quadratic_forms(spec, basis)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nu,n_max", [(1, 2), (2, 1)])
def test_rho_read_in_row_slabs_matches_whole_gibbs_blocks(monkeypatch, nu, n_max):
    # at the default _RHO_SLAB_BYTES each block here is one slab, with the bits
    # of the whole block (above); one row per slab moves rho by rounding only
    monkeypatch.setattr(thermo, "_RHO_SLAB_BYTES", 1)
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    spec = thermo.spectral(model.build_doubleprime_csr(params, basis), params.beta)
    key, _, ends = spec._entries
    want = np.concatenate([r.take(key[ends[c]:ends[c + 1]] - spec._stream.offset[c])
                           for c, r in enumerate(oracles.gibbs_blocks(spec))])
    assert np.max(np.abs(spec._rho_entries() - want)) <= 1e-14 * np.max(np.abs(want))


def test_rho_read_forms_no_whole_gibbs_block(monkeypatch, state_2x2):
    # a component's Gibbs block and the scaled copy of q it was formed from
    # took two blocks of the largest size at once
    params, basis, H2, _ = state_2x2
    spec = thermo.spectral(H2, params.beta)
    monkeypatch.setattr(thermo, "_RHO_SLAB_BYTES", 1 << 16)
    largest = max(len(w) for _, w, _ in spec._eig)
    kept = len(spec._entries[1]) * 8
    assert traced_peak(spec._rho_entries) < kept + largest ** 2 * 8


# -- reads on one component per orbit of Pi_0 and the spin swap ---------------------------


def every_component_reads(params, basis, H):
    """(G, B, C) and the bonds of a fresh spectral data of H, read on every
    component: both symmetry checks made to fail."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermo, "_component_image", lambda spec, symmetry: None)
        spec = thermo.spectral(H, params.beta)
        reps, weight = thermo._component_orbits(spec, basis)
        assert np.array_equal(reps, np.arange(len(spec._eig))) and np.all(weight == 1.0)
        return (thermo._build_quadratic_forms(spec, basis),
                thermo.pairing_bond_expectations(params, basis, spec))


def assert_orbit_reads_match_every_component(params, basis, H, spec=None):
    """G, B, C and the bonds read on the orbit representatives against those
    read on every component, to 1e-12 of each form's and each bond's size."""
    spec = spec or thermo.spectral(H, params.beta)
    forms, bonds = every_component_reads(params, basis, H)
    for got, want in zip(thermo._build_quadratic_forms(spec, basis), forms):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    got = thermo.pairing_bond_expectations(params, basis, spec)
    assert [key for key, _ in got] == [key for key, _ in bonds]
    for (_, val), (_, want) in zip(got, bonds):
        assert abs(val - want) <= 1e-12 * abs(want)
    return spec


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_orbit_reads_match_every_component(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    spec = assert_orbit_reads_match_every_component(
        params, basis, model.build_doubleprime_csr(params, basis))
    reps, weight = thermo._component_orbits(spec, basis)
    assert len(reps) < len(spec._eig) and weight.sum() == len(spec._eig)


@pytest.mark.parametrize("nu,n_max,reps,components", [(2, 1, 39, 85), (1, 2, 20, 41)])
def test_orbit_representatives_are_pinned(nu, n_max, reps, components):
    # a symmetry check that fails in silence would read every component: pinned
    # here, so that such a fallback fails
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    spec = thermo.spectral(model.build_doubleprime_csr(params, basis), params.beta)
    got, weight = thermo._component_orbits(spec, basis)
    assert (len(got), len(spec._eig)) == (reps, components)
    assert set(weight.tolist()) <= {1.0, 2.0, 4.0} and weight.sum() == components
    # the orbit map is kept with its basis: an equal basis is another key
    assert thermo._component_orbits(spec, basis)[0] is got
    assert thermo._component_orbits(spec, build_basis(build_lattice(nu, 1), n_max))[0] is not got
    # rho is read on the representatives only
    thermo.pairing_bond_expectations(params, basis, spec)
    assert np.array_equal(np.flatnonzero(spec._rho_read), got)


@pytest.mark.parametrize("broken", ["particle_hole", "spin_swap"])
def test_orbit_reads_fall_back_where_a_symmetry_breaks(broken):
    # eps sum_x q_x is odd under Pi_0 and even under the swap; eps sum_x s_x
    # the other way round.  Either leaves every orbit a singleton, and nothing
    # is refused
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), 1)
    diagonals = model.charge_diagonals(basis) if broken == "particle_hole" else \
        model.spin_diagonals(basis)
    H = model.build_doubleprime_csr(params, basis) + sparse.diags_array(
        np.repeat(1e-3 * diagonals.sum(axis=0), basis.boson_dim))
    spec = thermo.spectral(H, params.beta)
    symmetries = {"particle_hole": model.particle_hole_symmetry(basis, np.arange(4)),
                  "spin_swap": model.spin_swap(basis)}
    for name, symmetry in symmetries.items():
        assert (thermo._component_image(spec, symmetry) is None) == (name == broken)
    reps, weight = thermo._component_orbits(spec, basis)
    assert len(reps) == len(spec._eig) == 85 and np.all(weight == 1.0)
    assert_orbit_reads_match_every_component(params, basis, H, spec)
    assert_bonds_match_gibbs_oracle(params, basis, spec)


def test_orbit_check_refuses_an_entry_moved_off_its_image():
    # one off-diagonal pair of H'' scaled by 1 + 1e-9: its image under each
    # symmetry no longer matches it, so both checks fail
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    H = model.build_doubleprime(params, basis)
    k, l = np.argwhere(np.triu(H, 1) != 0)[0]
    H[k, l] *= 1 + 1e-9
    H[l, k] = H[k, l]
    spec = thermo.spectral(H, params.beta)
    assert thermo._component_image(spec, model.spin_swap(basis)) is None
    assert thermo._component_image(spec, model.particle_hole_symmetry(basis, np.arange(4))) is None
    assert_orbit_reads_match_every_component(params, basis, H, spec)


def test_bonds_of_the_six_site_ring_match_the_gibbs_oracle():
    # L = 3: each site pair carries one instance, where the L = 1 tori carry two
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(1, 3), 0, cap=4096)
    spec = thermo.spectral(model.build_doubleprime_csr(params, basis), params.beta)
    assert len(assert_bonds_match_gibbs_oracle(params, basis, spec)) == 6


def test_bonds_of_a_field_hamiltonian_tell_the_site_pairs_apart():
    # at h = 0 the eight bonds are equal by symmetry, and a permuted pair label
    # goes unseen; under H''(h) the four site pairs read four values
    params = P(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=1)
    basis = build_basis(build_lattice(2, 1), 1)
    h = np.array([0.7, -1.1, 0.3, 0.9])
    H = model.build_doubleprime_csr(params, basis) + sparse.diags_array(
        np.repeat(model.field_diagonal_correction(params, basis, h), basis.boson_dim))
    got = [val for _, val in assert_bonds_match_gibbs_oracle(
        params, basis, thermo.spectral(H, params.beta))]
    assert got[::2] == got[1::2]            # eps = +1 and -1 share their pair
    assert np.round(got[::2], 3).tolist() == [-0.838, -0.058, -0.049, -0.712]


def test_bonds_on_a_component_with_flux_match_the_gibbs_oracle():
    # the phase on one entry of H'' goes into the term that holds the entry
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    k, l = flux_entry(params, basis)
    spec = thermo.spectral(with_flux(model.build_doubleprime(params, basis), k, l), params.beta)
    assert not all(spec.real_blocks)
    terms = [(key, with_flux(term.toarray(), k, l))
             for key, term in model.pairing_bond_terms(params, basis)]
    assert_bonds_match_gibbs_oracle(params, basis, spec, terms)


def tiled_case(case):
    """(H, beta, basis, tile budget) with blocks past the budget."""
    if case == "flux":
        params, basis = small_params(n_max=0), build_basis(build_lattice(2, 1), 0)
        return doubleprime_with_flux(params, basis), params.beta, basis, 1
    nu, n_max = (2, 1) if case == "2x2" else (1, 2)
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    build = oracles.build_original if case == "original" else model.build_doubleprime_csr
    # 1 << 17: tiles of 64 states at 2x2, where tiles of one state take minutes
    return build(params, basis), params.beta, basis, 1 << 17 if case == "2x2" else 1


@pytest.mark.parametrize("case", ["nu1", "2x2", "original", "flux"])
def test_tiled_gram_matches_one_tile(monkeypatch, case):
    # a block past the tile budget sums its Gram matrix tile by tile, in
    # another order: B, and b with it, move within 1e-13 relative; G and C not
    H, beta, basis, budget = tiled_case(case)
    spec = thermo.spectral(H, beta)
    whole = thermo._quadratic_forms(spec, basis)
    monkeypatch.setattr(thermo, "_TILE_BYTES", budget)
    spec = thermo.spectral(H, beta)
    if case == "flux":
        assert not all(spec.real_blocks)
    tiled = thermo._quadratic_forms(spec, basis)
    assert np.array_equal(tiled[0], whole[0]) and np.array_equal(tiled[2], whole[2])
    assert np.max(np.abs(tiled[1] - whole[1])) <= 1e-13 * np.max(np.abs(whole[1]))
    rng = np.random.default_rng(12)
    for _ in range(8):
        h = rng.standard_normal(basis.n_sites) + 1j * rng.standard_normal(basis.n_sites)
        f = basis.lattice.laplacian_matrix() @ h
        for got, want in zip(tiled, whole):
            assert abs(np.vdot(f, got @ f) - np.vdot(f, want @ f)) <= 1e-13 * abs(np.vdot(f, want @ f))


def test_spec_keeps_no_gibbs_block_after_bonds_and_forms(state_2x2):
    # the Gibbs state is kept only at the entries of H'': no attribute holds an
    # array of n^2 entries (n the largest component) but the eigenvectors
    params, basis, H2, _ = state_2x2
    spec = thermo.spectral(H2, params.beta)
    thermo.quadratic_form_quantities(params, basis, np.ones(4), spec)
    assert spec._forms[2] is not None       # the bond expectations were taken too
    n = max(len(idx) for idx, _, _ in spec._eig)
    eigenvectors = {id(q) for _, _, q in spec._eig}

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)

    kept = [a for value in vars(spec).values() for a in arrays(value)]
    assert sum(id(a) in eigenvectors for a in kept) == len(spec._eig)
    assert [a.shape for a in kept if a.size >= n * n and id(a) not in eigenvectors] == []


def whole_matrix_pattern(H):
    """The off-diagonal nonzeros of a dense H read through one n x n bool."""
    rows, cols = np.divmod(np.flatnonzero(H != 0.0), H.shape[0])
    off = rows != cols
    return rows[off], cols[off], H[rows[off], cols[off]]


@pytest.mark.parametrize("slab_bytes", [sectors._PATTERN_SLAB_BYTES, 3000],
                         ids=["default", "uneven"])
def test_dense_pattern_read_in_row_slabs_equals_the_whole_read(monkeypatch, state_2x2,
                                                               slab_bytes):
    # 3000 B: slabs of one row at 2x2, and of 11 rows (not dividing 144) at nu=1
    monkeypatch.setattr(sectors, "_PATTERN_SLAB_BYTES", slab_bytes)
    _, _, H2, _ = state_2x2
    H1 = model.build_doubleprime(small_params(), build_basis(build_lattice(1, 1), 2)).real
    for H in (H2, H1):
        for got, want in zip(sectors._offdiagonal_pattern(H), whole_matrix_pattern(H)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dense_pattern_read_memory_is_bounded(state_2x2):
    # the n x n bool of H'' != 0 peaked at 17.3 MiB here; in row slabs of
    # 1 MiB the read peaks at 5.1 MiB, 4.9 MiB of it the returned entries
    _, _, H2, _ = state_2x2
    assert traced_peak(lambda: sectors._offdiagonal_pattern(H2)) < 10 * 2 ** 20


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadratic_form_zero_and_constant_field(state):
    lat, params, basis, H2, spec = state
    for h in (np.zeros(2), 0.8 * np.ones(2)):
        g_q, b_q, c_q = thermo.quadratic_form_quantities(params, basis, h, spec)
        assert abs(g_q) < 1e-12 and abs(b_q) < 1e-12 and abs(c_q) < 1e-12


def test_quadratic_form_closed_form_agreement(state):
    # the assertion inside quadratic_form_quantities compares the direct
    # elementwise nested commutator with the bond-sum closed form
    lat, params, basis, H2, spec = state
    rng = np.random.default_rng(5)
    for _ in range(4):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g_q, b_q, c_q = thermo.quadratic_form_quantities(params, basis, h, spec)
        assert g_q >= -1e-12 and b_q >= -1e-12 and c_q >= -1e-12


def test_nested_commutator_matrix_identity(state):
    # [A, [H, A*]] for diagonal A equals the closed-form bond expansion as
    # matrices, not just in expectation
    lat, params, basis, H2, spec = state
    rng = np.random.default_rng(6)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = lat.laplacian_matrix() @ h
    qd = model.charge_diagonals(basis)
    a = np.repeat(f @ qd, basis.boson_dim)
    direct = (np.diag(a) @ (H2 @ np.diag(np.conj(a)) - np.diag(np.conj(a)) @ H2)
              - (H2 @ np.diag(np.conj(a)) - np.diag(np.conj(a)) @ H2) @ np.diag(a))
    closed = np.zeros_like(H2)
    for (x, y, _, _), term in model.pairing_bond_terms(params, basis):
        fx, fy = f[lat.site_index[x]], f[lat.site_index[y]]
        closed += -abs(fx + fy) ** 2 * term
    assert np.max(np.abs(direct - closed)) < 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_a_operator_is_normal(state):
    # A = sum_x q_x f_x is a combination of commuting Hermitian diagonals,
    # so A* A = A A* exactly
    lat, params, basis, _, _ = state
    rng = np.random.default_rng(7)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    qd = model.charge_diagonals(basis)
    a = f @ qd
    A = np.diag(np.repeat(a, basis.boson_dim))
    assert np.max(np.abs(A.conj().T @ A - A @ A.conj().T)) == 0.0


# -- the engine against complex eigh with no gauge ------------------------------------------

HAMILTONIANS = {
    "H": oracles.build_original,
    "H1": oracles.build_transformed,
    "H2": model.build_doubleprime,
    "VHV": lambda params, basis: model.build_zigzag(basis).conjugate(
        sparse.csr_array(oracles.build_original(params, basis))).toarray(),
}


class Oracle:
    """Spectral quantities of H from complex ``eigh`` with no gauge: of the whole
    matrix, or (``blockwise``) of each connected component, for sizes where one
    eigh of the whole matrix is too slow (about 90 s at dim 4096)."""

    def __init__(self, H, beta, blockwise=False):
        n = H.shape[0]
        if blockwise:
            labels = component_labels(H)
            parts = [np.flatnonzero(labels == lab) for lab in range(labels.max() + 1)]
        else:
            parts = [np.arange(n)]
        self.H, self.beta = H, beta
        self.blocks = [(idx, *np.linalg.eigh(H[np.ix_(idx, idx)])) for idx in parts]
        self.w = np.sort(np.concatenate([w for _, w, _ in self.blocks]))
        self.e0 = self.w[0]
        wts = [np.exp(-beta * (w - self.e0)) for _, w, _ in self.blocks]
        self.z = sum(wt.sum() for wt in wts)
        self.logZ = -beta * self.e0 + np.log(self.z)
        self.rhos = [(q * wt) @ q.conj().T / self.z for (_, _, q), wt in zip(self.blocks, wts)]
        self.rho_diag = np.zeros(n)
        for (idx, _, _), rho in zip(self.blocks, self.rhos):
            self.rho_diag[idx] = rho.diagonal().real

    def expectation(self, term):
        term = sparse.csr_array(term)
        return sum(np.vdot(rho, term[idx][:, idx].toarray())
                   for (idx, _, _), rho in zip(self.blocks, self.rhos))

    def duhamel(self, A, B):
        """The Duhamel two-point function (A, B) = Z^-1 sum_{m,n} conj(A_mn) B_mn
        kappa(E_m, E_n) over the eigenbasis, block pair by block pair.  A 1-d A
        or B is a diagonal: it has no elements between blocks."""
        A, B = np.asarray(A), np.asarray(B)
        total = 0.0
        for bi, (idx_i, w_i, q_i) in enumerate(self.blocks):
            for bj, (idx_j, w_j, q_j) in enumerate(self.blocks):
                if (A.ndim == 1 or B.ndim == 1) and bi != bj:
                    continue
                at, bt = (eigenbasis_block(X, idx_i, idx_j, q_i, q_j) for X in (A, B))
                kern = thermo._duhamel_kernel(self.beta, w_i - self.e0, w_j - self.e0)
                total += np.sum(np.conj(at) * bt * kern)
        return complex(total / self.z)

    def forms(self, basis, h):
        """(g, b, c) of A = sum_x q_x ((-Delta) h)_x by the direct sums."""
        f = basis.lattice.laplacian_matrix() @ np.asarray(h, dtype=complex)
        a = np.repeat(f @ model.charge_diagonals(basis), basis.boson_dim)
        g = np.dot(self.rho_diag, np.abs(a) ** 2)
        b = c = 0.0
        for (idx, w, q), rho in zip(self.blocks, self.rhos):
            at = q.conj().T @ (a[idx, None] * q)
            kern = thermo._duhamel_kernel(self.beta, w - self.e0, w - self.e0)
            b += np.sum(np.abs(at) ** 2 * kern) / self.z
            diff = a[idx, None] - a[None, idx]
            c += np.vdot(rho, -self.H[np.ix_(idx, idx)] * np.abs(diff) ** 2)
        return g, b, self.beta * c.real


def component_labels(H):
    """Connected components of H's exact sparsity pattern, numbered by their smallest index."""
    return connected_components(sparse.csr_array(H != 0.0), directed=False)[1]


def eigenbasis_block(A, idx_i, idx_j, q_i, q_j):
    """Matrix elements <n|A|m>, n in block i, m in block j; a 1-d A is a diagonal."""
    if A.ndim == 1:
        return (q_i.conj().T * A[idx_i]) @ q_j
    return q_i.conj().T @ A[np.ix_(idx_i, idx_j)] @ q_j


def close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def assert_engine_matches(spec, oracle, H):
    scale = np.max(np.abs(oracle.w))
    assert np.max(np.abs(spec.eigenvalues - oracle.w)) <= 1e-12 * scale
    assert close(spec.logZ, oracle.logZ)
    assert np.max(np.abs(spec.rho_diag() - oracle.rho_diag)) <= 1e-12 * np.max(oracle.rho_diag)
    # blocks still yields the unitary eigenvectors of H's components
    for idx, w, Q in spec.blocks:
        assert np.max(np.abs((Q * w) @ Q.conj().T - H[np.ix_(idx, idx)])) <= 1e-12 * scale
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(len(idx)))) <= 1e-12


def assert_bonds_match(params, basis, spec, oracle):
    got = thermo.pairing_bond_expectations(params, basis, spec)
    for (_, val), (_, term) in zip(got, model.pairing_bond_terms(params, basis)):
        assert close(val, oracle.expectation(term).real)
    assert_bonds_match_gibbs_oracle(params, basis, spec)


def assert_bonds_match_gibbs_oracle(params, basis, spec, terms=None):
    """The bonds read off H'''s entries against the traces of the terms
    (model.pairing_bond_terms, or ``terms``) over whole Gibbs blocks, to
    1e-13 relative on each."""
    got = thermo.pairing_bond_expectations(params, basis, spec)
    want = oracles.bond_expectations(params, basis, spec, terms)
    assert [key for key, _ in got] == [key for key, _ in want]
    for (_, val), (_, w) in zip(got, want):
        assert isinstance(val, float) and abs(val - w) <= 1e-13 * abs(w)
    return got


def assert_bonds_match_or_refused(params, basis, spec, oracle, which):
    """The bonds of H'' match both oracles; a spec of H or H' is refused: its
    hopping entries flip two modes in opposite directions, and H's phonon
    coupling flips none.  V H V^-1 is neither: at n_max = 0 its entries are
    those of H'' off the diagonal."""
    if which in ("H", "H1"):
        with pytest.raises(ValueError, match="not the spectral data of H''"):
            thermo.pairing_bond_expectations(params, basis, spec)
    elif which == "H2":
        assert_bonds_match(params, basis, spec, oracle)


def assert_forms_match(params, basis, spec, oracle, fields):
    bonds = thermo.pairing_bond_expectations(params, basis, spec)
    for h in fields:
        got = thermo.quadratic_form_quantities(params, basis, h, spec, bonds)
        for val, want in zip(got, oracle.forms(basis, h)):
            assert close(val, want)


@pytest.mark.parametrize("which", sorted(HAMILTONIANS))
@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_engine_matches_dense_eigh(nu, n_max, which):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H = HAMILTONIANS[which](params, basis)
    spec = thermo.spectral(H, params.beta)
    oracle = Oracle(H, params.beta)
    assert_engine_matches(spec, oracle, H)
    assert_bonds_match_or_refused(params, basis, spec, oracle, which)
    if which == "H2":
        rng = np.random.default_rng(100 * nu + n_max)
        fields = rng.standard_normal((3, basis.n_sites)) + 1j * rng.standard_normal((3, basis.n_sites))
        assert_forms_match(params, basis, spec, oracle, fields)


def test_forms_match_ungauged_eigh_on_2x2_torus():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), 1)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    assert all(spec.real_blocks)
    oracle = Oracle(H2, params.beta, blockwise=True)
    assert_engine_matches(spec, oracle, H2)
    rng = np.random.default_rng(21)
    assert_forms_match(params, basis, spec, oracle,
                       rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from(sorted(HAMILTONIANS)),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2, max_size=2))
@example(1, "H", 1.0, 1.0, 1.0, 2.2250738585e-313, 1.0, 1.0, [0j, 0j])    # subnormal g
def test_engine_matches_dense_eigh_random_couplings(n_max, which, t, U, V, g, omega, beta, h):
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=beta, n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    H = HAMILTONIANS[which](params, basis)
    spec = thermo.spectral(H, beta)
    assert all(spec.real_blocks)
    oracle = Oracle(H, beta)
    assert_engine_matches(spec, oracle, H)
    assert_bonds_match_or_refused(params, basis, spec, oracle, which)
    if which == "H2":
        assert_forms_match(params, basis, spec, oracle, [np.array(h)])


# -- which components take the real path -------------------------------------------------


@pytest.mark.parametrize("which", sorted(HAMILTONIANS))
@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_every_model_component_is_solved_real(nu, n_max, which):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H = HAMILTONIANS[which](params, basis)
    labels, phase = sectors._phase_gauge(H)
    assert np.array_equal(labels, component_labels(H))
    assert np.array_equal(np.abs(phase), np.ones(basis.total_dim))
    spec = thermo.spectral(H, params.beta)
    assert len(spec.real_blocks) == labels.max() + 1
    assert all(spec.real_blocks)


@pytest.mark.parametrize("which", ["H", "H1", "H2"])
@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES)
def test_split_of_sparse_input_equals_split_of_dense(nu, n_max, which):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H = HAMILTONIANS[which](params, basis)
    S = sparse.csr_array(H)
    for got, want in zip(sectors._phase_gauge(S), sectors._phase_gauge(H)):
        assert np.array_equal(got, want)
    got, want = sectors._gauged_sparse(S), sectors._gauged_sparse(H)
    for name in ("labels", "phase", "key", "vals", "ends", "diagonal", "imag", "flux"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert not got.flux.any() and got.vals.dtype == got.diagonal.dtype == np.float64


def gauged_real_matrix(rng, n):
    """A Hermitian matrix D R D^-1 with R real symmetric on the path 0-1-...-(n-1)
    plus chords, and D a random diagonal phase: real in some gauge."""
    R = np.diag(rng.standard_normal(n))
    for k in range(n - 1):
        R[k, k + 1] = R[k + 1, k] = 1.0 + rng.random()
    for k in range(n - 2):
        R[k, k + 2] = R[k + 2, k] = rng.standard_normal()
    d = np.exp(2j * np.pi * rng.random(n))
    return d[:, None] * R * d.conj()[None, :]


def test_rounding_level_entry_keeps_the_real_path():
    # a breadth-first tree from node 0 would reach node n-1 through the tiny
    # entry and carry its arbitrary phase onto the large entries
    rng = np.random.default_rng(3)
    n = 8
    H = gauged_real_matrix(rng, n)
    H[0, n - 1] = 1e-17 * np.exp(1.234j)
    H[n - 1, 0] = np.conj(H[0, n - 1])
    spec = thermo.spectral(H, 0.7)
    assert spec.real_blocks == [True]
    assert_engine_matches(spec, Oracle(H, 0.7), H)


def test_subnormal_links_get_unit_phases():
    # complex division by a subnormal modulus overflows; the gauge must still
    # come out unimodular and make the block real
    rng = np.random.default_rng(6)
    n = 5
    H = gauged_real_matrix(rng, n) * 1e-310
    H[np.diag_indices(n)] = rng.standard_normal(n)
    _, phase = sectors._phase_gauge(H)
    assert np.all(np.isfinite(phase))
    assert np.allclose(np.abs(phase), 1.0)
    spec = thermo.spectral(H, 0.9)
    assert spec.real_blocks == [True]


def test_flux_component_takes_the_complex_path():
    # a 3-cycle with flux pi/3 next to a flux-free component
    rng = np.random.default_rng(4)
    H = np.zeros((7, 7), dtype=complex)
    H[:3, :3] = [[0.3, 1.0, 0.8], [1.0, -0.2, 1.1 * np.exp(1j * np.pi / 3)],
                 [0.8, 1.1 * np.exp(-1j * np.pi / 3), 0.5]]
    H[3:, 3:] = gauged_real_matrix(rng, 4)
    spec = thermo.spectral(H, 1.3)
    assert spec.real_blocks == [False, True]
    oracle = Oracle(H, 1.3)
    assert_engine_matches(spec, oracle, H)
    # the Gibbs state at the entries of the flux component, where the forms
    # and the bonds read it, in the gauge d: rho_kl = d_k r_kl conj(d_l)
    key, _, ends = spec._entries
    k, l = np.divmod(key[ends[0]:ends[1]], 3)
    rows, cols = spec._eig[0][0][k], spec._eig[0][0][l]
    got = spec._phase[rows] * spec._rho_entries()[ends[0]:ends[1]] * spec._phase[cols].conj()
    assert len(got) == 6 and np.max(np.abs(got - oracle.rhos[0][rows, cols])) <= 1e-12


def test_reconstruction_residual_charges_the_discarded_imaginary_part():
    # an entry of 5e-13 with a phase no gauge removes stays on the real path
    # (below 1e-12 of the largest entry); the real eigh drops its imaginary
    # part, and the residual must account for it
    rng = np.random.default_rng(5)
    H = gauged_real_matrix(rng, 6)
    H[0, 5] = 5e-13 * np.exp(0.9j)
    H[5, 0] = np.conj(H[0, 5])
    spec = thermo.spectral(H, 1.0)
    assert spec.real_blocks == [True]
    (idx, w, Q), = spec.blocks
    actual = np.max(np.abs((Q * w) @ Q.conj().T - H))
    assert actual > 1e-13
    (_, _, q), = spec._eig
    g = gauged_matrix(H, spec._phase)
    assert spec._stream.imag[0] == np.max(np.abs(g.imag)) > 0.0
    assert thermo._block_residual(w, q, g.real, spec._stream.imag[0]) >= actual


def gauged_matrix(H, phase):
    """conj(d_k) H_kl d_l over a whole matrix, in the order of sectors._gauged."""
    return phase.conj()[:, None] * H * phase[None, :]


# -- the bounded build against one stack per size -----------------------------------------


def per_size_stack_oracle(H, beta):
    """(eig, logZ) as built with one stack per component size, cut out of the
    whole H, gauged out of place and solved whole: eig[c] = (w, q) of
    component c.  Each block holds +0.0 off H's nonzero entries, so the
    gauge leaves there the signed zeros that LAPACK reads."""
    stream = sectors._gauged_sparse(H)
    labels, phase, flux = stream.labels, stream.phase, stream.flux
    D = H.toarray() if sparse.issparse(H) else H
    sizes = np.bincount(labels)
    eig = [None] * len(sizes)
    for n in np.unique(sizes):
        labs = np.flatnonzero(sizes == n)
        idx = np.array([np.flatnonzero(labels == lab) for lab in labs])
        blk = D[idx[:, :, None], idx[:, None, :]]
        blk[blk == 0] = 0.0
        blk[:, np.arange(n), np.arange(n)] = D.diagonal()[idx]
        g = phase[idx].conj()[..., :, None] * blk * phase[idx][..., None, :]
        real = flux[labs] == 0.0
        for which, a in ((real, g.real), (~real, blk)):
            if which.any():
                w, q = np.linalg.eigh(a if which.all() else a[which])
                for lab, wi, qi in zip(labs[which], w, q):
                    eig[lab] = (wi, qi)
    e0 = min(float(w[0]) for w, _ in eig)
    z = float(sum(np.exp(-beta * (w - e0)).sum() for w, _ in eig))
    return eig, -beta * e0 + float(np.log(z))


def flux_pair_matrix():
    """Two 3-state components, one with flux pi/3 and one without, and a
    4-state one: a stack of one size that mixes the two paths."""
    rng = np.random.default_rng(11)
    H = np.zeros((10, 10), dtype=complex)
    H[:3, :3] = [[0.3, 1.0, 0.8], [1.0, -0.2, 1.1 * np.exp(1j * np.pi / 3)],
                 [0.8, 1.1 * np.exp(-1j * np.pi / 3), 0.5]]
    H[3:6, 3:6] = gauged_real_matrix(rng, 3)
    H[6:, 6:] = gauged_real_matrix(rng, 4)
    return H


def default_doubleprime():
    from hhlab.cli import CONFIG_DEFAULTS as d
    params = P(t=d["t"], U=d["U"], V=d["V"], g=d["g"], omega=d["omega"], beta=d["beta"],
               n_max=d["n_max"])
    basis = build_basis(build_lattice(d["nu"], d["ell"]), d["n_max"])
    return model.build_doubleprime_csr(params, basis), params.beta


@pytest.mark.parametrize("stack_bytes", [thermo._STACK_BYTES, 1], ids=["default", "one_block"])
@pytest.mark.parametrize("case", ["nu1_default", "2x2", "flux"])
def test_bounded_build_has_the_bits_of_one_stack_per_size(monkeypatch, state_2x2, case,
                                                          stack_bytes):
    # stack_bytes = 1 splits every size into stacks of one block
    if case == "nu1_default":
        H, beta = default_doubleprime()
    elif case == "2x2":
        params, _, H, _ = state_2x2
        beta = params.beta
    else:
        H, beta = flux_pair_matrix(), 1.3
    monkeypatch.setattr(thermo, "_STACK_BYTES", stack_bytes)
    spec = thermo.spectral(H, beta)
    eig, logz = per_size_stack_oracle(H, beta)
    assert len(spec._eig) == len(eig)
    for (_, w, q), (w_want, q_want) in zip(spec._eig, eig):
        assert q.dtype == q_want.dtype
        assert np.array_equal(w, w_want) and np.array_equal(q, q_want)
    assert spec.logZ == logz
    assert spec.real_blocks == [np.isrealobj(q) for _, q in eig]
    if case == "flux":
        assert spec.real_blocks == [False, True, True]
