import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import oracles
from hhlab import model, rpverify, sectors, thermo
from hhlab.hilbert import HilbertBasis, build_basis
from hhlab.lattice import build_lattice
from test_model import ORACLE_GEOMETRIES

P = model.ModelParams


def small_params(**kw):
    base = dict(t=0.9, U=1.4, V=1.1, g=0.8, omega=1.3, beta=1.2, n_max=2)
    base.update(kw)
    return P(**base)


@pytest.fixture(scope="module")
def chain_state():
    lat = build_lattice(1, 1)
    params = small_params()
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    spec = thermo.spectral(H2, params.beta)
    bonds = thermo.pairing_bond_expectations(params, basis, spec)
    return lat, params, basis, H2, spec, bonds


# -- antiunitary plumbing ---------------------------------------------------------------


def test_antiunitary_inverse_and_conjugation():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    th = rpverify.AntiunitaryMap(q)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.allclose(th.inverse().apply(th.apply(v)), v)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # theta (i A) theta^-1 = -i theta A theta^-1 (antilinearity)
    assert np.allclose(th.conjugate(1j * A), -1j * th.conjugate(A))
    # conjugate_back inverts conjugate
    assert np.allclose(th.conjugate_back(th.conjugate(A)), A)
    # adjoint compatibility: (theta A theta^-1)^dagger = theta A^dagger theta^-1
    assert np.allclose(th.conjugate(A).conj().T, th.conjugate(A.conj().T))


def test_antiunitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        rpverify.AntiunitaryMap(np.diag([1.0, 2.0]))


def test_antiunitary_rejects_a_non_finite_map():
    # nan > 1e-10 is False: a W of nan passed as unitary
    with pytest.raises(ValueError, match=r"not unitary \(deviation nan\)"):
        rpverify.AntiunitaryMap(np.full((2, 2), np.nan))


def test_lr_split_reorders_kron_products():
    lat = build_lattice(1, 1)
    basis = build_basis(lat, 1)
    split = rpverify.build_lr_split(basis)
    bl, br = split.basis_L, split.basis_R
    rng = np.random.default_rng(1)
    FL = rng.standard_normal((bl.fermion_dim,) * 2)
    FR = rng.standard_normal((br.fermion_dim,) * 2)
    BL = rng.standard_normal((bl.boson_dim,) * 2)
    BR = rng.standard_normal((br.boson_dim,) * 2)
    full = np.kron(np.kron(FL, FR), np.kron(BL, BR))
    lr = np.kron(np.kron(FL, BL), np.kron(FR, BR))
    assert np.max(np.abs(split.to_lr(full) - lr)) < 1e-12
    # the sparse and the diagonal (1-d) forms of the operand give the same entries
    assert np.array_equal(split.to_lr(sparse.csr_array(full)).toarray(), split.to_lr(full))
    assert np.array_equal(split.to_lr(np.diag(full)), np.diag(split.to_lr(full)))


def test_matrix_eq_sparse_and_diagonal_operands_match_dense():
    rng = np.random.default_rng(12)
    n = 300  # more than one strip of rows
    A = 3.0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A[rng.random((n, n)) < 0.95] = 0.0
    B = A.copy()
    B[rng.random((n, n)) < 0.01] += 1e-11  # some of these fall outside A's pattern
    far = B.copy()
    far[7, 11] += 0.5
    for other in (B, far):
        dense = rpverify._matrix_eq("m", "A = B", A, other, 1e-10)
        assert rpverify._matrix_eq("m", "A = B", sparse.csr_array(A),
                                   sparse.csr_array(other), 1e-10) == dense
        diag = rpverify._matrix_eq("m", "A = B", np.diag(A), np.diag(other), 1e-10)
        assert diag == rpverify._matrix_eq("m", "A = B", np.diag(np.diag(A)),
                                           np.diag(np.diag(other)), 1e-10)
    assert dense.lhs > 0.01 and not dense.passed  # the pair off by 0.5 at one entry
    # a NaN entry in either operand fails the check for every operand kind
    nan = A.copy()
    nan[5, 5] = np.nan
    for kind in (lambda M: M, sparse.csr_array, np.diag):
        for pair in ((nan, A), (A, nan)):
            rec = rpverify._matrix_eq("m", "A = B", *map(kind, pair), 1e-10)
            assert np.isnan(rec.slack) and not rec.passed, kind


# -- theta and the factorization ---------------------------------------------------------


@pytest.mark.parametrize("nu", [1, 2])
def test_theta_relations(nu):
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(nu, 1), params.n_max)
    for res in rpverify.theta_relations_check(params, basis):
        assert res.passed, res


@pytest.mark.parametrize("nu,ell,n_max", [(1, 1, 0), (1, 1, 2), (2, 1, 0), (2, 1, 1), (2, 1, 2),
                                          (3, 1, 0), (1, 3, 0)])
def test_theta_equals_the_state_by_state_oracle(nu, ell, n_max):
    # W is read off the mode tables; the oracle builds each right state and its
    # preimage from dense c*- and a*-strings.  Only on the 6-site ring does the
    # reflection reverse the order of the modes, so only there do the
    # Jordan-Wigner inversions enter the signs
    basis = build_basis(build_lattice(nu, ell), n_max, cap=65536)
    theta, split = rpverify.build_theta(basis)
    assert np.array_equal(theta.W, oracles.theta_matrix(split))


@pytest.mark.parametrize("nu", [1, 2])
def test_lr_split_identities(nu):
    params = small_params(n_max=1 if nu == 2 else 2)
    basis = build_basis(build_lattice(nu, 1), params.n_max)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(basis.n_sites)
    for res in rpverify.verify_lr_split(params, basis, h):
        assert res.passed, res


def dense_lr_split(params, basis, h, tol=1e-10):
    """The checks of verify_lr_split with every side a dense full-space
    matrix: the operators re-indexed by split.perm and the Kronecker
    products with the identity formed densely.  [(name, CheckResult)]."""
    lat = basis.lattice
    theta, split = rpverify.build_theta(basis)
    bl, br = split.basis_L, split.basis_R

    def to_lr(op):
        return op[np.ix_(split.perm, split.perm)]

    def kron_l(op_l):
        return np.kron(op_l, np.eye(br.total_dim, dtype=complex))

    def kron_r(op_r):
        return np.kron(np.eye(bl.total_dim, dtype=complex), op_r)

    def diag(vector):
        return np.diag(vector.astype(complex))

    pairs = []
    x_l, x_r = lat.left_sites[0], lat.right_sites[0]
    for x, side in ((x_l, "L"), (x_r, "R")):
        c_full = to_lr(oracles.embed_fermion(basis, oracles.c(basis, x, "up")))
        if side == "L":
            expected = kron_l(np.kron(oracles.c(bl, x, "up"), np.eye(bl.boson_dim)))
        else:
            par = np.kron(np.diag(bl.fermion_parity()), np.eye(bl.boson_dim))
            expected = np.kron(par, np.kron(oracles.c(br, x, "up"), np.eye(br.boson_dim)))
        pairs.append(("lr_fermion_embed", c_full, expected))
    pi = basis.boson(x_l, "momentum", omega=params.omega)
    pairs.append(("lr_boson_embed", to_lr(oracles.embed_boson(basis, pi)),
                  kron_l(np.kron(np.eye(bl.fermion_dim),
                                 bl.boson(x_l, "momentum", omega=params.omega)))))

    parts = {key: np.zeros((basis.total_dim,) * 2, dtype=complex) for key in ("LL", "RR", "cross")}
    internal = {"L": [], "R": []}
    for inst, term in model.pairing_bond_terms(params, basis):
        sx, sy = rpverify._bond_side(lat, inst[0], inst[1])
        parts["cross" if sx != sy else sx + sy] += term.toarray()
        if sx == sy:
            internal[sx].append(inst)

    def half_pairing(b, instances):
        """The internal pairing terms on a half basis as dense Kronecker products."""
        out = np.zeros((b.total_dim,) * 2, dtype=complex)
        for x, y, *_ in instances:
            phase = model.expm_i_hermitian(-params.alpha * (b.boson(x, "position", omega=params.omega)
                                                            - b.boson(y, "position", omega=params.omega)))
            for spin in ("up", "down"):
                pair = np.kron(oracles.cdag(b, x, spin) @ oracles.cdag(b, y, spin), phase)
                out += -params.t * (pair + pair.conj().T)
        return out

    T_L, T_R = half_pairing(bl, internal["L"]), half_pairing(br, internal["R"])
    pairs += [("lr_T_internal_L", to_lr(parts["LL"]), kron_l(T_L)),
              ("lr_T_internal_R", to_lr(parts["RR"]), kron_r(T_R)),
              ("lr_T_reflect", T_R, theta.conjugate(T_L))]

    a_ops = model.build_a_operators(bl)
    cross = np.zeros((basis.total_dim,) * 2, dtype=complex)
    for x, y, even_side in rpverify._crossing_instances(params, lat):
        ell, sgn_alpha, coeff = (y, 1.0, -params.t) if even_side == "R" else (x, -1.0, params.t)
        phase = model.expm_i_hermitian(
            sgn_alpha * params.alpha * bl.boson(ell, "position", omega=params.omega))
        for spin in ("up", "down"):
            C = np.kron(a_ops[(ell, spin)].toarray().conj().T, np.eye(bl.boson_dim))
            C = C @ np.kron(np.eye(bl.fermion_dim), phase)
            block = np.kron(C, theta.conjugate(C))
            cross += coeff * (block + block.conj().T)
    pairs.append(("lr_T_cross", to_lr(parts["cross"]), cross))

    qd = model.charge_diagonals(basis)
    p_diag = (model._charge_products(qd, model._onsite_terms(lat, params.u_eff)
                                     + model._bond_terms(lat, -params.V))
              + model.field_diagonal_correction(params, basis, h))
    P_L, P_R = (diag(rpverify._half_charge_squares(params, lat, b, h, side))
                for b, side in ((bl, "L"), (br, "R")))
    P_cross = np.zeros((basis.total_dim,) * 2, dtype=complex)
    for b in lat.bonds():
        sx, sy = rpverify._bond_side(lat, lat.sites[b.i], lat.sites[b.j])
        if sx != sy:
            di = np.repeat(qd[b.i] - h[b.i], basis.boson_dim)
            dj = np.repeat(qd[b.j] - h[b.j], basis.boson_dim)
            P_cross += -params.V * diag(di * dj)
    pairs.append(("lr_P_split", to_lr(diag(np.repeat(p_diag, basis.boson_dim))),
                  kron_l(P_L) + kron_r(P_R) + to_lr(P_cross)))
    h_reflected = np.array(h, dtype=float)
    for x in lat.left_sites:
        h_reflected[lat.site_index[x]] = h[lat.site_index[lat.reflect_inv(x)]]
    P_L_r = diag(rpverify._half_charge_squares(params, lat, bl, h_reflected, "L"))
    pairs.append(("lr_P_reflect", P_R, theta.conjugate(P_L_r)))

    K_full, K_L, K_R = (diag(np.tile(model._phonon_energy(b, params.omega), b.fermion_dim))
                        for b in (basis, bl, br))
    pairs += [("lr_K_split", to_lr(K_full), kron_l(K_L) + kron_r(K_R)),
              ("lr_K_reflect", K_R, theta.conjugate(K_L))]
    return [(name, rpverify._matrix_eq(name, "", A, B, tol)) for name, A, B in pairs]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_lr_split_matches_dense_oracle_random_couplings(n_max, t, U, V, g, omega, h):
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=1.0, n_max=n_max)
    assert_lr_split_matches_dense_oracle(params, build_basis(build_lattice(1, 1), n_max), h)


def test_lr_split_matches_dense_oracle_2x2():
    # each half of the 2x2 torus holds internal pairing bonds; the 2-site ring has none
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    assert_lr_split_matches_dense_oracle(params, basis, np.random.default_rng(5).standard_normal(4))


def test_full_space_annihilator_equals_the_dense_one():
    basis = build_basis(build_lattice(2, 1), 0)
    for x in basis.sites:
        for spin in ("up", "down"):
            assert np.array_equal(basis.c(x, spin).toarray(), oracles.c(basis, x, spin))


def test_lr_split_forms_no_dense_full_space_annihilator(monkeypatch):
    # a dense c of the full basis is fermion_dim^2 entries: 64 GiB at nu = 3
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(2, 1), 0)
    h = np.random.default_rng(5).standard_normal(4)
    want = [r.to_record() for r in rpverify.verify_lr_split(params, basis, h)]
    sparse_c = HilbertBasis.c
    full_space_calls = []

    def c(self, x, spin):
        a = sparse_c(self, x, spin)
        if self is basis:
            assert sparse.issparse(a), "dense annihilator of the full basis"
            full_space_calls.append((x, spin))
        return a

    monkeypatch.setattr(HilbertBasis, "c", c)
    assert [r.to_record() for r in rpverify.verify_lr_split(params, basis, h)] == want
    assert full_space_calls


def assert_lr_split_matches_dense_oracle(params, basis, h):
    got = rpverify.verify_lr_split(params, basis, h)
    want = dense_lr_split(params, basis, np.asarray(h))
    assert [r.name for r in got] == [name for name, _ in want]
    for res, (_, ref) in zip(got, want):
        assert res.passed == ref.passed, (res, ref)
        assert res.slack == ref.slack or max(res.slack, ref.slack) <= 1e-14, (res, ref)


# -- two-Hilbert-space inequality ----------------------------------------------------------


def test_dls_fuzz_small():
    for res in rpverify.dls_fuzz(n_instances=150, seed=11):
        assert res.passed, res


def test_dls_rejects_negative_lambda():
    rng = np.random.default_rng(3)
    inst = rpverify.random_dls_instance(rng)
    with pytest.raises(ValueError):
        rpverify.DLSInstance(A=inst.A, B=inst.B, Cs=inst.Cs, Ds=inst.Ds,
                             lambdas=[-1.0] * len(inst.lambdas), beta=1.0,
                             theta=inst.theta)


def _random_bounded_per_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_dls_instance_per_matrix(rng, dim_max=8):
    """random_dls_instance as it drew one matrix per call (kept verbatim as an oracle)."""
    n = int(rng.integers(2, dim_max + 1))
    A = _random_bounded_per_matrix(rng, n)
    A = (A + A.conj().T) / 2
    B = _random_bounded_per_matrix(rng, n)
    B = (B + B.conj().T) / 2
    k = int(rng.integers(1, 4))
    Cs = [_random_bounded_per_matrix(rng, n) for _ in range(k)]
    Ds = [_random_bounded_per_matrix(rng, n) for _ in range(k)]
    lams = list(rng.uniform(0.0, 2.0, size=k))
    if rng.random() < 0.5:
        W = np.eye(n, dtype=complex)  # standard conjugation
    else:
        q, _ = np.linalg.qr(_random_bounded_per_matrix(rng, n))
        W = q
    beta = float(rng.uniform(0.05, 3.0))
    return rpverify.DLSInstance(A=A, B=B, Cs=Cs, Ds=Ds, lambdas=lams, beta=beta,
                                theta=rpverify.AntiunitaryMap(W))


@pytest.mark.parametrize("seed,dim_max", [(0, 8), (11, 8), (2024, 8), (7, 3), (99, 16)])
def test_random_dls_instance_bit_identical_to_per_matrix_draws(seed, dim_max):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        got = rpverify.random_dls_instance(new, dim_max=dim_max)
        want = _random_dls_instance_per_matrix(old, dim_max=dim_max)
        for a, b in [(got.A, want.A), (got.B, want.B), (got.theta.W, want.theta.W),
                     *zip(got.Cs, want.Cs), *zip(got.Ds, want.Ds)]:
            assert a.shape == b.shape and np.array_equal(a, b)
        assert len(got.Cs) == len(want.Cs) == len(got.Ds)
        assert got.lambdas == want.lambdas and got.beta == want.beta
    assert new.bit_generator.state == old.bit_generator.state


# The per-instance evaluation of the DLS and convexity fuzz as it ran before the
# stacked solver (kept verbatim as oracles, with the draws above): one complex
# eigvalsh or eigh per Hamiltonian.


def _kron_per_instance(X, Y):
    """np.kron for square X and Y, by one broadcast product."""
    n, m = X.shape[0], Y.shape[0]
    return (X[:, None, :, None] * Y[None, :, None, :]).reshape(n * m, n * m)


def _log_partition_per_instance(beta, w):
    w0 = w[0]
    return -beta * w0 + float(np.log(np.sum(np.exp(-beta * (w - w0)))))


def _dls_check_per_instance(inst, tol=1e-10):
    """Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D), evaluated in log space."""
    def lz(left, right, cs, ds):
        eye = np.eye(inst.A.shape[0])
        H = _kron_per_instance(left, eye) + _kron_per_instance(eye, inst.theta.conjugate(right))
        for lam, C, D in zip(inst.lambdas, cs, ds):
            block = _kron_per_instance(C, inst.theta.conjugate(D))
            H -= lam * (block + block.conj().T)
        if np.max(np.abs(H - H.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(H))):
            raise AssertionError("coupled Hamiltonian lost Hermiticity")
        return _log_partition_per_instance(inst.beta, np.linalg.eigvalsh(H))

    lhs = 2.0 * lz(inst.A, inst.B, inst.Cs, inst.Ds)
    rhs = lz(inst.A, inst.A, inst.Cs, inst.Cs) + lz(inst.B, inst.B, inst.Ds, inst.Ds)
    slack = (rhs - lhs) / 2.0
    return rpverify.CheckResult("dls", "Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D)",
                                lhs, rhs, float(slack), bool(slack >= -tol))


def _dls_fuzz_per_instance(n_instances=1000, seed=2024, dim_max=8, tol=1e-10):
    rng = np.random.default_rng(seed)
    out = []
    worst = np.inf
    for _ in range(n_instances):
        res = _dls_check_per_instance(_random_dls_instance_per_matrix(rng, dim_max=dim_max),
                                      tol=tol)
        worst = min(worst, res.slack)
        if not res.passed:
            out.append(res)
    out.append(rpverify.CheckResult("dls_fuzz", f"{n_instances} random instances hold",
                                    worst, 0.0, worst, worst >= -tol))

    inst = _random_dls_instance_per_matrix(rng, dim_max=dim_max)
    zero = rpverify.DLSInstance(A=inst.A, B=inst.B, Cs=inst.Cs, Ds=inst.Ds,
                                lambdas=[0.0] * len(inst.lambdas), beta=inst.beta,
                                theta=inst.theta)
    res = _dls_check_per_instance(zero, tol=0.0)
    out.append(rpverify._eq("dls_equality_lambda0", "lambda = 0 gives exact equality",
                            res.lhs, res.rhs, 1e-12, scale=max(abs(res.lhs), 1.0)))
    sym = rpverify.DLSInstance(A=inst.A, B=inst.A, Cs=inst.Cs, Ds=inst.Cs,
                               lambdas=inst.lambdas, beta=inst.beta, theta=inst.theta)
    res = _dls_check_per_instance(sym, tol=0.0)
    out.append(rpverify._eq("dls_equality_symmetric", "A = B, C = D gives exact equality",
                            res.lhs, res.rhs, 1e-12, scale=max(abs(res.lhs), 1.0)))
    return out


def _convexity_lemma_check_per_pair(n_pairs=500, dim_max=32, seed=77, tol=1e-9):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_pairs):
        n = int(rng.integers(2, dim_max + 1))
        B = _random_bounded_per_matrix(rng, n)
        C = _random_bounded_per_matrix(rng, n)
        B = (B + B.conj().T) / 2
        C = (C + C.conj().T) / 2
        w, q = np.linalg.eigh(B + C)
        w0 = w[0]
        zs = np.sum(np.exp(-(w - w0)))
        lhs = -w0 + np.log(zs)
        gibbs = (q * np.exp(-(w - w0))) @ q.conj().T / zs
        mean_b = float(np.real(np.vdot(gibbs, B)))
        rhs = -mean_b + _log_partition_per_instance(1.0, np.linalg.eigvalsh(C))
        worst = min(worst, (rhs - lhs) / max(abs(lhs), abs(rhs), 1.0))
    return rpverify.CheckResult("convexity_lemma", "ln Tr e^-(B+C) <= <-B> + ln Tr e^-C",
                                0.0, 0.0, float(worst), bool(worst >= -tol))


def assert_dls_records_match(got, want):
    """Names, statements, pass flags and the lhs of every record identical, rhs
    and slack within 1e-13 of the checks' scale max(|lhs|, |rhs|, 1): the
    solver takes Z(A,A,C,C) and Z(B,B,D,D) from real matrices, the oracle from
    complex ones, and the summary's lhs is the worst of those slacks."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [g[k] for k in ("name", "statement", "pass")] == \
            [w[k] for k in ("name", "statement", "pass")], (g, w)
        scale = max(abs(w["lhs"]), abs(w["rhs"]), 1.0)
        assert g["lhs"] == w["lhs"] or (g["name"] == "dls_fuzz"
                                        and abs(g["lhs"] - w["lhs"]) <= 1e-13 * scale), (g, w)
        assert abs(g["rhs"] - w["rhs"]) <= 1e-13 * scale, (g, w)
        assert abs(g["slack"] - w["slack"]) <= 1e-13 * scale, (g, w)


# windows of 256 draws: 255 and 257 leave a partial window; a negative tol fails
# the instances with slack below -tol (-1e3: all of them), whose dls records must
# come back one by one in draw order
@pytest.mark.parametrize("seed,dim_max,n_instances,tol", [
    *[(seed, dim_max, 257, 1e-10) for seed in (0, 2024) for dim_max in (2, 5, 8)],
    (7, 8, 1, 1e-10), (7, 8, 255, 1e-10), (2024, 8, 1000, 1e-10),
    (3, 2, 300, -1.0), (3, 5, 300, -1.0), (3, 8, 300, -1.0), (3, 8, 300, -1e3),
])
def test_dls_fuzz_records_identical_to_per_instance_oracle(seed, dim_max, n_instances, tol):
    got = [r.to_record() for r in rpverify.dls_fuzz(n_instances, seed, dim_max, tol)]
    want = [r.to_record() for r in _dls_fuzz_per_instance(n_instances, seed, dim_max, tol)]
    assert_dls_records_match(got, want)
    failed = sum(r["name"] == "dls" for r in got)
    if tol == -1e3:
        assert failed == n_instances
    elif tol < 0:
        assert failed >= 10


def test_dls_check_identical_to_per_instance_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        inst = rpverify.random_dls_instance(rng, dim_max=6)
        assert_dls_records_match([rpverify.dls_check(inst).to_record()],
                                 [_dls_check_per_instance(inst).to_record()])


@pytest.mark.parametrize("seed,dim_max,n_pairs", [
    (77, 32, 500), (707, 32, 257), (8, 16, 80), (5, 2, 255), (5, 5, 1), (9, 8, 600),
])
def test_convexity_lemma_identical_to_per_pair_oracle(seed, dim_max, n_pairs):
    # <B> is summed off the diagonal of q^H B q, the oracle's off a Gibbs matrix:
    # the record is identical but for the slack (relative to max(|lhs|, |rhs|, 1)),
    # which moves by rounding only, 2.8e-16 at most over 500 pairs
    got = rpverify.convexity_lemma_check(n_pairs=n_pairs, dim_max=dim_max, seed=seed).to_record()
    want = _convexity_lemma_check_per_pair(n_pairs=n_pairs, dim_max=dim_max, seed=seed).to_record()
    assert abs(got.pop("slack") - want.pop("slack")) <= 1e-14
    assert got == want


def _off_hermitian(M):
    M = M.copy()
    M[0, 1] += 1e-3
    return M


# (field of a draw (A, B, C, D, lambdas, W, beta), how it is spoiled, the refusal)
_BAD_DLS_INPUTS = [
    (5, lambda W: 1.01 * W, "unitary part is not unitary"),
    (0, _off_hermitian, "A must be Hermitian"),
    (1, _off_hermitian, "B must be Hermitian"),
    (4, lambda lam: np.concatenate([lam[:-1], [-0.5]]), "lambda_j must be nonnegative"),
]

# each of these raised LinAlgError, numpy's concatenate, IndexError or a matmul error,
# or gave a record: a nan one at beta = nan, a failing one (slack -6.65) at beta = -1
_UNFIT_DLS_INPUTS = [
    (0, lambda A: np.where(np.eye(len(A)) == 1, np.nan, A), "A has an entry that is not finite"),
    (2, lambda C: np.concatenate([C[:-1], np.full((1,) + C.shape[1:], np.nan)]),
     "Cs has an entry that is not finite"),
    (4, lambda lam: np.concatenate([lam[:-1], [np.nan]]), "lambdas has an entry that is not finite"),
    (6, lambda beta: np.nan, "beta must be finite and >= 0, got nan"),
    (6, lambda beta: -1.0, "beta must be finite and >= 0, got -1.0"),
    (1, lambda B: np.eye(3), r"B must be 2 x 2 \(A has 2 columns\), got shape \(3, 3\)"),
    (4, lambda lam: lam[:-1], "lambdas must hold one value per C"),
    (3, lambda D: D[:-1], "Ds must hold as many matrices as Cs"),
    (5, lambda W: np.eye(3), r"W must be 2 x 2 \(A has 2 columns\), got shape \(3, 3\)"),
    # 4 x 4 matrices were cut into four of A's 2 x 2 each
    (2, lambda C: np.tile(C, (1, 2, 2)), r"Cs must be matrices 2 x 2 \(A has 2 columns\)"),
]


@pytest.mark.parametrize("field,spoil,match", _BAD_DLS_INPUTS)
def test_dls_inputs_refused_in_a_batch_and_alone(field, spoil, match):
    assert_dls_draw_refused(field, spoil, match)


@pytest.mark.parametrize("field,spoil,match", _UNFIT_DLS_INPUTS,
                         ids=["A_nan", "C_nan", "lambda_nan", "beta_nan", "beta_negative",
                              "B_size", "lambdas_short", "Ds_short", "W_size", "C_size"])
def test_dls_inputs_of_no_instance_refused_before_any_solve(monkeypatch, field, spoil, match):
    def refuse(*args):
        raise AssertionError("a draw was solved")

    monkeypatch.setattr(rpverify, "_dls_log_sides", refuse)
    assert_dls_draw_refused(field, spoil, match)


def assert_dls_draw_refused(field, spoil, match):
    """The draw 7 of 12 with one field spoiled is refused in a batch and alone."""
    # dim_max=2: every draw has n = 2, so the spoiled one shares a stack with others
    draws = rpverify._draw_dls(np.random.default_rng(4), 12, dim_max=2)
    draw = list(draws[7])
    draw[field] = spoil(draw[field])
    draws[7] = tuple(draw)
    with pytest.raises(ValueError, match=match):
        rpverify._check_dls_inputs(draws)
    A, B, C, D, lams, W, beta = draw
    with pytest.raises(ValueError, match=match):
        rpverify.dls_check(rpverify.DLSInstance(
            A=A, B=B, Cs=list(C), Ds=list(D), lambdas=list(lams), beta=beta,
            theta=rpverify.AntiunitaryMap(W, check=False)))


def test_dls_coupled_hamiltonian_refused_in_a_batch_and_alone():
    """B made non-Hermitian after construction passes no input check; the
    coupled H of its draw then fails the solver's own Hermiticity check."""
    rng = np.random.default_rng(6)
    insts = [rpverify.random_dls_instance(rng, dim_max=2) for _ in range(12)]
    insts[7].B = _off_hermitian(insts[7].B)
    with pytest.raises(AssertionError, match="coupled Hamiltonian lost Hermiticity"):
        rpverify._dls_results([inst._draw() for inst in insts], tol=1e-10)
    with pytest.raises(AssertionError, match="coupled Hamiltonian lost Hermiticity"):
        rpverify.dls_check(insts[7])
    assert all(rpverify.dls_check(inst).passed for inst in insts[:7] + insts[8:])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the fuzz holds one window of draws and one stack of at most 1 MiB at a time,
# about 5.5 MiB at its peak, whatever the count
FUZZ_PEAK_BOUND = 8 * 2 ** 20


@pytest.mark.parametrize("n_instances", [1000, 5000])
def test_dls_fuzz_memory_does_not_grow_with_count(n_instances):
    peak = _traced_peak(lambda: rpverify.dls_fuzz(n_instances=n_instances))
    assert peak < FUZZ_PEAK_BOUND, peak


@pytest.mark.parametrize("n_pairs", [500, 1500])
def test_convexity_lemma_memory_does_not_grow_with_count(n_pairs):
    peak = _traced_peak(lambda: rpverify.convexity_lemma_check(n_pairs=n_pairs))
    assert peak < FUZZ_PEAK_BOUND, peak


@pytest.mark.parametrize("check,kwargs,name", [
    (rpverify.dls_fuzz, {"n_instances": 0}, "n_instances"),
    (rpverify.dls_fuzz, {"n_instances": -3}, "n_instances"),
    (rpverify.dls_fuzz, {"dim_max": 1}, "dim_max"),
    (rpverify.convexity_lemma_check, {"n_pairs": 0}, "n_pairs"),
    (rpverify.convexity_lemma_check, {"n_pairs": -3}, "n_pairs"),
    (rpverify.convexity_lemma_check, {"dim_max": 1}, "dim_max"),
], ids=["dls_none", "dls_negative", "dls_dim_1", "convexity_none", "convexity_negative",
        "convexity_dim_1"])
def test_fuzz_without_draws_or_below_2x2_refused_before_any_draw(monkeypatch, check, kwargs,
                                                                 name):
    # an empty fuzz used to pass with slack inf (written as Infinity)
    def refuse(*args, **kw):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(rpverify.np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        check(**kwargs)


def test_trace_product_identity():
    assert rpverify.trace_product_check().passed


# -- reflection positivity of Z and Gaussian domination --------------------------------------


@pytest.fixture(scope="module")
def field_state():
    lat = build_lattice(1, 1)
    params = small_params(n_max=1)
    basis = build_basis(lat, params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    return lat, params, basis, ens


def test_field_partition_matches_dense_logz(field_state):
    lat, params, basis, ens = field_state
    h = np.array([0.3, -1.1])
    Hh = oracles.build_field_hamiltonian(params, basis, h)
    dense = thermo.spectral(Hh, params.beta).logZ
    assert np.isclose(ens.log_partition(h), dense, rtol=0, atol=1e-10)


def _dense_log_partition(params, basis, h):
    return thermo.spectral(oracles.build_field_hamiltonian(params, basis, h), params.beta).logZ


def _assert_rel_close(got, want, rtol=1e-12):
    assert abs(got - want) <= rtol * max(abs(want), 1.0), (got, want)


def test_field_partition_matches_dense_logz_2x2():
    params = P(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    rng = np.random.default_rng(31)
    for h in (rng.standard_normal(4), rng.standard_normal(4), np.full(4, 0.75)):
        _assert_rel_close(ens.log_partition(h), _dense_log_partition(params, basis, h))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_field_partition_matches_dense_logz_random_couplings(n_max, t, U, V, g, omega, beta, h):
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=beta, n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    ens = rpverify.FieldPartition(params, basis)
    _assert_rel_close(ens.log_partition(h), _dense_log_partition(params, basis, h))


def test_field_partition_refuses_block_not_real_in_gauge():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    off = np.abs(H2) - np.diag(np.diag(np.abs(H2)))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    H2[i, j] *= np.exp(0.25j * np.pi)  # still Hermitian, same sparsity
    H2[j, i] *= np.exp(-0.25j * np.pi)
    assert np.array_equal(H2, H2.conj().T)
    with pytest.raises(ValueError, match="not real in the gauge read off H''"):
        rpverify.FieldPartition(params, basis, H2)


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diagonal", "offdiagonal"])
def test_field_partition_refuses_a_non_finite_entry_before_any_block(monkeypatch, where,
                                                                    value, form):
    # such an H'' died in LAPACK with LinAlgError
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    i, j = (0, 0) if where == "diagonal" else np.argwhere(np.triu(H2, 1) != 0)[0]
    H2[i, j] = H2[j, i] = value

    def refuse(*args):
        raise AssertionError("a block was scattered")

    monkeypatch.setattr(sectors, "_block_stacks", refuse)
    with pytest.raises(ValueError, match="H has an entry that is not finite"):
        rpverify.FieldPartition(params, basis, H2 if form == "dense" else sparse.csr_array(H2))


@pytest.mark.parametrize("entry", ["field_partition", "highest_weight_sectors"])
@pytest.mark.parametrize("H2", [sparse.csr_array(np.eye(8)), np.eye(65)], ids=["8x8", "65x65"])
def test_doubleprime_of_another_shape_refused_before_any_entry_is_read(monkeypatch, entry, H2):
    # an 8 x 8 H'' at nu = 1 (dim 64) raised IndexError inside the [H'', S'+] check
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)

    def refuse(*args):
        raise AssertionError("an entry was read")

    monkeypatch.setattr(sectors, "_offdiagonal_pattern", refuse)
    with pytest.raises(ValueError, match=r"not \(total_dim, total_dim\) = \(64, 64\)"):
        if entry == "field_partition":
            rpverify.FieldPartition(params, basis, H2)
        else:
            sectors.highest_weight_sectors(basis, H2, rpverify._mirror_symmetry(basis)[0])


def test_field_partition_refuses_diagonal_shift_breaking_spin_raising():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    raising, _ = model.zigzag_spin_operators(basis)
    i = raising.nonzero()[1][0] * basis.boson_dim  # a state that S'+ does not annihilate
    H2[i, i] += 0.25  # still Hermitian, real in the gauge, same sparsity
    with pytest.raises(ValueError, match="does not commute with the spin raising operator"):
        rpverify.FieldPartition(params, basis, H2)


def test_field_partition_refuses_bond_breaking_spin_raising():
    """One pairing entry and its adjoint scaled by a real factor: H'' keeps its
    sparsity and stays real in the gauge, but no longer commutes with S'+."""
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    off = np.abs(H2) - np.diag(np.diag(np.abs(H2)))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    H2[i, j] *= 1.25
    H2[j, i] *= 1.25
    with pytest.raises(ValueError, match="does not commute with the spin raising operator"):
        rpverify.FieldPartition(params, basis, H2)


def _spin_groups(basis):
    """The full-space states of each group of one site occupation pattern, one
    2 S'z and one boson state, for the groups of more than one state."""
    _, twice_m = model.zigzag_spin_operators(basis)
    q = model.charge_diagonals(basis)
    groups = {}
    for i in range(basis.total_dim):
        f, b = divmod(i, basis.boson_dim)
        groups.setdefault((tuple(q[:, f]), twice_m[f], b), []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def _linked_diagonal(basis, H2, link):
    """The diagonal of H'' (which commutes with S'+), with the first state of each
    group joined to the others by entries 1e-14 link(k) and their adjoints: a tree,
    so no flux, and a commutator far below 1e-12 of the largest entry."""
    H = np.diag(np.diag(H2))
    for k, group in enumerate(_spin_groups(basis)):
        H[group[0], group[1:]] = 1e-14 * link(k)
        H[group[1:], group[0]] = np.conj(1e-14 * link(k))
    return H


def test_field_partition_refuses_flux_first():
    # a 3-cycle with flux pi/3 on the diagonal of H'': refused for its flux
    # before the commutator with S'+, which the cycle also breaks
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H = np.diag(np.diag(model.build_doubleprime(params, basis))).astype(complex)
    (i, j, k), phase = (0, 1, 2), np.exp(1j * np.pi / 3)
    H[i, j], H[j, k], H[k, i] = 1.0, 1.0, phase
    H += np.triu(H, 1).conj().T + np.tril(H, -1).conj().T
    with pytest.raises(ValueError, match="carries flux"):
        rpverify.FieldPartition(params, basis, H)


def test_field_partition_refuses_component_with_two_values_of_spin_z():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    _, twice_m = model.zigzag_spin_operators(basis)
    m = np.repeat(twice_m, basis.boson_dim)
    i, j = np.flatnonzero(m == 0)[0], np.flatnonzero(m == 2)[0]
    H2[i, j] = H2[j, i] = 1e-14  # joins two components of different S'z, without flux
    with pytest.raises(ValueError, match="more than one value of S'z"):
        rpverify.FieldPartition(params, basis, H2)


def test_field_partition_refuses_gauge_not_one_phase_on_a_group():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    ens = rpverify.FieldPartition(params, basis, _linked_diagonal(basis, H2, lambda k: 1.0))
    assert sum(w * len(idx) for idx, _, w in ens.sectors) == basis.total_dim
    twisted = _linked_diagonal(basis, H2, lambda k: np.exp(0.25j * np.pi) if k == 0 else 1.0)
    with pytest.raises(ValueError, match="not [+]-1 times one phase on a group"):
        rpverify.FieldPartition(params, basis, twisted)


@pytest.mark.parametrize("n", [1, 3])
def test_field_of_the_wrong_length_is_refused(n):
    # at nu = 1 there are 2 sites: a field of 3 used to be cached under its own
    # key, and a field of 1 raised a bare IndexError
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    h = np.zeros(n)
    for check in (ens.log_partition,
                  lambda h: rpverify.gaussian_domination_check(params, basis, h, ens),
                  lambda h: rpverify.rp_reflection_check(params, basis, h, ens)):
        with pytest.raises(ValueError, match=r"shape \(n_sites,\) = \(2,\)"):
            check(h)
    assert not ens._cache


@pytest.mark.parametrize("h", [[np.nan, 0.0], [np.inf, 0.0], [1e200, 0.0]],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_field_is_refused_before_any_solve(h):
    # each used to reach LAPACK, which raised "Eigenvalues did not converge";
    # 1e200 is finite, but its correction overflows
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    match = "h must be finite" if not np.all(np.isfinite(h)) else "correction of h .* not finite"
    for check in (ens.log_partition,
                  lambda h: rpverify.gaussian_domination_check(params, basis, h, ens),
                  lambda h: rpverify.rp_reflection_check(params, basis, h, ens),
                  lambda h: model.field_diagonal_correction(params, basis, h)):
        with pytest.raises(ValueError, match=match):
            check(np.array(h))
    assert not ens._cache


@pytest.mark.parametrize("h,match", [([np.nan, 0.0], "h must be finite"),
                                     ([np.inf, 1.0], "h must be finite"),
                                     ([1.0, 0.0, 0.0], r"shape \(n_sites,\) = \(2,\)")],
                         ids=["nan", "inf", "length"])
def test_infrared_path_refuses_a_bad_field_before_any_form(h, match):
    # nan and inf gave five records with nan slacks and passed=False; a wrong
    # length failed inside numpy's matmul
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime_csr(params, basis)
    spec = thermo.spectral(H2, params.beta)
    h = np.array(h, dtype=complex)
    # (-Delta) h of an infinite entry meets inf - inf, and numpy warns before the refusal
    warns = pytest.warns(RuntimeWarning) if np.isinf(h).any() else contextlib.nullcontext()
    with warns, pytest.raises(ValueError, match=match):
        rpverify.infrared_chain_check(params, basis, h, spec, H2)
    with pytest.raises(ValueError, match=match):
        thermo.quadratic_form_quantities(params, basis, h, spec)
    assert spec._forms is None


# -- the particle-hole symmetry Pi of the field family ----------------------------------------


def test_particle_hole_translation_is_found_on_the_lattice_alone():
    """(N I - sigma sigma^T)(I + P_a)(-Delta) = 0 holds for a = 0 on the
    two-site ring and a = (1, 1) on the 2x2 torus, and for no even
    translation of the 2x2x2 torus or of the six-site ring."""
    ring, torus = build_lattice(1, 1), build_lattice(2, 1)
    assert np.array_equal(model.particle_hole_translation(ring), [0, 1])
    sites = model.particle_hole_translation(torus)
    assert [torus.sites[k] for k in sites] == [torus.wrap((x + 1, y + 1)) for x, y in torus.sites]
    for lat in (build_lattice(3, 1), build_lattice(1, 3)):
        translations = list(model._even_translations(lat))
        assert len(translations) == (4 if lat.nu == 3 else 3)
        assert all(np.any(model._translation_residual(lat, t)) for t in translations)
        assert model.particle_hole_translation(lat) is None


@pytest.mark.parametrize("nu,n_max", [(1, 1), (1, 3), (2, 0), (2, 1)])
def test_particle_hole_symmetry_of_doubleprime(nu, n_max):
    """Pi is an involution that keeps H'', commutes with the mirror of Theta,
    sends S'+ to -S'+ and q_x to -q_{x+a}."""
    params = small_params(n_max=n_max, g=-0.8)
    basis = build_basis(build_lattice(nu, 1), n_max)
    sites = model.particle_hole_translation(basis.lattice)
    Pi = model.particle_hole_symmetry(basis, sites)
    square = Pi.compose(Pi)
    assert np.array_equal(square.perm, np.arange(basis.total_dim)) and np.all(square.sign == 1)
    H2 = model.build_doubleprime_csr(params, basis)
    assert abs(Pi.conjugate(H2) - H2).max() <= 1e-15 * abs(H2).max()
    M, _ = rpverify._mirror_symmetry(basis)
    assert all(np.array_equal(getattr(M.compose(Pi), f), getattr(Pi.compose(M), f))
               for f in ("perm", "sign"))
    raising, _ = model.zigzag_spin_operators(basis)
    up = sparse.kron(raising, sparse.eye_array(basis.boson_dim), format="csr")
    assert abs(Pi.conjugate(up) + up).max() == 0
    q = np.repeat(model.charge_diagonals(basis), basis.boson_dim, axis=1)
    for x in range(basis.n_sites):
        assert np.array_equal(Pi.conjugate(q[x]), -q[sites[x]])


def _field_partition_sizes(stacks):
    return sorted(blk.shape[1] for _, blk, w, *_ in stacks for _ in w)


@pytest.mark.parametrize("n_max", [0, 1])
def test_particle_hole_sectors_match_dense_logz_2x2(n_max, monkeypatch):
    """General fields take the sectors of the spin SU(2) reduced by Pi, with
    the partner of each +-Q pair counted by its shift, and reflected fields
    those reduced by Theta and Pi; ``sectors`` stays the SU(2) reduction,
    that of a FieldPartition built with no translation for Pi."""
    params = P(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=n_max)
    basis = build_basis(build_lattice(2, 1), n_max)
    ens = rpverify.FieldPartition(params, basis)
    assert ens.uses_particle_hole
    with monkeypatch.context() as m:
        m.setattr(model, "particle_hole_translation", lambda lat: None)
        plain = rpverify.FieldPartition(params, basis)
    assert not plain.uses_particle_hole
    assert len(ens.sectors) == len(plain.sectors)
    assert all(np.array_equal(i, j) and np.array_equal(a, b) and v == w for (i, a, v), (j, b, w)
               in zip(ens.sectors, plain.sectors))
    counted = sum(int((w + (pair[1] if pair else 0)).sum()) * blk.shape[1]
                  for _, blk, w, *pair in ens._stacks)
    assert counted == basis.total_dim
    assert all(np.any(stack[4]) for stack in ens._stacks if len(stack) > 3)
    sizes = np.array(_field_partition_sizes(ens._stacks), dtype=np.int64)
    if n_max == 1:
        assert np.sum(sizes ** 3) == 49_962_330 and sizes.max() == 320
        assert 164 in sizes and 156 in sizes and 126 in sizes and 114 in sizes
    rng = np.random.default_rng(17)
    fields = [*rng.standard_normal((2, 4)), 2.0 * basis.lattice.staggered_signs,
              *rpverify.reflected_configs(basis.lattice, rng.standard_normal(4))]
    for h in fields:
        _assert_rel_close(ens.log_partition(h), _dense_log_partition(params, basis, h))
    const = rpverify.gaussian_domination_check(params, basis, np.full(4, 0.75), ens)
    assert const.slack == 0.0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_particle_hole_sectors_match_dense_logz_random_couplings(n_max, t, U, V, g, omega,
                                                                  beta, h):
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=beta, n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    ens = rpverify.FieldPartition(params, basis)
    assert ens.uses_particle_hole
    for field in (np.array(h), *rpverify.reflected_configs(basis.lattice, h)):
        _assert_rel_close(ens.log_partition(field), _dense_log_partition(params, basis, field))


@pytest.mark.parametrize("nu,n_max", [(1, 1), (2, 0)])
def test_particle_hole_breaking_diagonal_is_solved_without_pi(nu, n_max):
    """eps sum_x q_x keeps S'+ and Theta but not Pi: the H'' is not refused,
    Pi is left out, and log Z still matches the dense oracle."""
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    shift = 0.25 * np.repeat(model.charge_diagonals(basis).sum(axis=0), basis.boson_dim)
    H2 = model.build_doubleprime(params, basis)
    H2[np.diag_indices_from(H2)] += shift
    ens = rpverify.FieldPartition(params, basis, H2)
    assert not ens.uses_particle_hole
    rng = np.random.default_rng(8)
    for h in (rng.standard_normal(basis.n_sites), np.zeros(basis.n_sites),
              *rpverify.reflected_configs(basis.lattice, rng.standard_normal(basis.n_sites))):
        Hh = oracles.build_field_hamiltonian(params, basis, h)
        Hh[np.diag_indices_from(Hh)] += shift
        _assert_rel_close(ens.log_partition(h), thermo.spectral(Hh, params.beta).logZ)


def test_six_site_ring_is_solved_without_pi():
    """No even translation of the six-site ring meets the site condition:
    FieldPartition does not use Pi there, and matches the dense oracle."""
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(1, 3), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    assert not ens.uses_particle_hole
    h = np.random.default_rng(6).standard_normal(basis.n_sites)
    _assert_rel_close(ens.log_partition(h), _dense_log_partition(params, basis, h))


def test_pair_shift_that_is_not_constant_raises(monkeypatch):
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    correction = model.field_diagonal_correction
    noise = 1e-6 * np.random.default_rng(2).standard_normal(basis.fermion_dim)
    monkeypatch.setattr(model, "field_diagonal_correction",
                        lambda *a: correction(*a) + noise)
    with pytest.raises(AssertionError, match="shifts a paired sector by no one constant"):
        ens.log_partition([0.3, -1.1])
    assert not ens._cache


def test_field_partition_refuses_group_split_over_components():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    with pytest.raises(ValueError, match="spans several components"):
        rpverify.FieldPartition(params, basis, np.diag(np.diag(H2)))


def test_field_partition_refuses_sectors_that_miss_states(monkeypatch):
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    vectors = sectors._highest_weight_vectors
    monkeypatch.setattr(sectors, "_highest_weight_vectors",
                        lambda *a: ((s, v[:, :, 1:]) for s, v in vectors(*a)))
    with pytest.raises(ValueError, match="not total_dim"):
        rpverify.FieldPartition(params, basis)


def test_field_partition_highest_weight_sectors_2x2():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    sizes = np.array([len(idx) for idx, _, _ in ens.sectors])
    assert all(blk.shape == (n, n) for n, (_, blk, _) in zip(sizes, ens.sectors))
    assert sum(w * n for n, (_, _, w) in zip(sizes, ens.sectors)) == basis.total_dim
    assert {w for _, _, w in ens.sectors} == {1, 2, 3, 4, 5}
    assert sizes.max() == 320
    assert np.isclose(np.sum(sizes.astype(float) ** 3), 1.231e8, rtol=1e-3)


def test_field_partition_sector_sizes_match_counting_formula_2x2():
    """Summed over the sectors of one (D_up, D_down), with D_s = N_{s,even} -
    N_{s,odd}, the sizes are c(D_up) c(D_down) - c(D_up + 1) c(D_down - 1)
    times boson_dim, where c(D) counts the occupations of one spin with that D."""
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    parity = np.array([basis.lattice.staggered_sign(x) for x in basis.sites])
    occ = basis.mode_tables()[0]
    d_up, d_down = parity @ occ[0::2], parity @ occ[1::2]
    _, twice_m = model.zigzag_spin_operators(basis)
    assert np.array_equal(twice_m, d_up - d_down)
    c = {}
    for bits in range(2 ** basis.n_sites):
        d = int(parity @ ((bits >> np.arange(basis.n_sites)) & 1))
        c[d] = c.get(d, 0) + 1
    got = {}
    for idx, _, weight in ens.sectors:
        f = idx // basis.boson_dim
        key = (int(d_up[f[0]]), int(d_down[f[0]]))
        assert np.all(d_up[f] == key[0]) and np.all(d_down[f] == key[1])
        assert weight == key[0] - key[1] + 1
        got[key] = got.get(key, 0) + len(idx)
    want = {(du, dd): (c[du] * c[dd] - c.get(du + 1, 0) * c.get(dd - 1, 0)) * basis.boson_dim
            for du in c for dd in c if du >= dd}
    assert got == {key: n for key, n in want.items() if n}


def test_field_partition_builds_without_a_dense_full_space_array():
    """At dim 4096 the construction, the [H'', S'+] check included, forms no
    dense 4096^2 array (134 MB); H'' is allocated before.  Read once as a
    gauged stream and checked in slabs it peaks at 8.8 MiB, where three
    complex gauged copies and whole sparse products peaked at 17.7 MiB."""
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    tracemalloc.start()
    try:
        rpverify.FieldPartition(params, basis, H2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20, peak


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_field_partition_sectors_reproduce_spectrum(nu, n_max):
    """At h = 0 the sectors, each counted with its weight, hold the spectrum of H''."""
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H2 = model.build_doubleprime(params, basis)
    ens = rpverify.FieldPartition(params, basis, H2)
    got = np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(blk), weight)
                                  for _, blk, weight in ens.sectors]))
    want = thermo.spectral(H2, params.beta).eigenvalues
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nu,n_max", [(1, 1), (1, 2), (2, 0)])
def test_mirror_symmetry_of_doubleprime(nu, n_max):
    """M conj(H'') M^T = H'', M keeps S'z and sends S'+ to -S'+, and r is an
    involution of the sites that maps the bonds onto themselves."""
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    M, sites = rpverify._mirror_symmetry(basis)
    H2 = model.build_doubleprime(params, basis)
    image = M.conjugate(sparse.csr_array(H2.conj())).toarray()
    assert np.max(np.abs(image - H2)) <= 1e-12 * np.max(np.abs(H2))
    raising, twice_m = model.zigzag_spin_operators(basis)
    nb = basis.boson_dim
    assert np.array_equal(M.conjugate(np.repeat(twice_m, nb).astype(float)), np.repeat(twice_m, nb))
    up = sparse.kron(raising, sparse.eye_array(nb)).toarray()
    assert np.array_equal(M.conjugate(sparse.csr_array(up)).toarray(), -up)
    assert np.array_equal(sites[sites], np.arange(basis.n_sites))
    bonds = {frozenset((b.i, b.j)) for b in basis.lattice.bonds()}
    assert {frozenset((sites[i], sites[j])) for i, j in map(tuple, bonds)} == bonds


@pytest.mark.parametrize("n_max", [0, 1])
def test_field_partition_mirror_sectors_match_dense_logz_2x2(n_max):
    params = P(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=n_max)
    basis = build_basis(build_lattice(2, 1), n_max)
    ens = rpverify.FieldPartition(params, basis)
    assert sum(int(w.sum()) * blk.shape[1] for _, blk, w in ens._mirror_stacks) == basis.total_dim
    if n_max == 1:
        sizes = np.concatenate([np.full(len(w), blk.shape[1]) for _, blk, w in ens._mirror_stacks])
        assert len(sizes) == 35 and np.sum(sizes.astype(np.int64) ** 3) == 12_635_241
    rng = np.random.default_rng(5)
    fields = [np.zeros(4), np.full(4, 0.75)]
    for h in rng.standard_normal((2, 4)):
        fields += rpverify.reflected_configs(basis.lattice, h)
    for h in fields:
        assert np.array_equal(h, h[ens._mirror_sites])
        _assert_rel_close(ens.log_partition(h), _dense_log_partition(params, basis, h))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_field_partition_reflected_fields_match_dense_logz(n_max, t, U, V, g, omega, beta, h):
    """Each reflected field of h takes the mirror sectors, and h itself (unless
    it is reflection-invariant) the highest-weight sectors."""
    params = P(t=t, U=U, V=V, g=g, omega=omega, beta=beta, n_max=n_max)
    basis = build_basis(build_lattice(1, 1), n_max)
    ens = rpverify.FieldPartition(params, basis)
    assert sum(int(w.sum()) * blk.shape[1] for _, blk, w in ens._mirror_stacks) == basis.total_dim
    for field in (np.array(h), *rpverify.reflected_configs(basis.lattice, h)):
        _assert_rel_close(ens.log_partition(field), _dense_log_partition(params, basis, field))


def test_field_partition_refuses_field_term_breaking_reflection_last():
    """eps q_x on one site keeps every site occupation, so S'+ still commutes
    with H'', but the reflection does not; the SU(2) refusals come first."""
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    H2 = model.build_doubleprime(params, basis)
    H2[np.diag_indices_from(H2)] += 0.25 * np.repeat(model.charge_diagonals(basis)[0],
                                                     basis.boson_dim)
    with pytest.raises(ValueError, match="not invariant under the reflection Theta"):
        rpverify.FieldPartition(params, basis, H2)
    raising, _ = model.zigzag_spin_operators(basis)
    i = raising.nonzero()[1][0] * basis.boson_dim  # a state that S'+ does not annihilate
    H2[i, i] += 0.25
    with pytest.raises(ValueError, match="does not commute with the spin raising operator"):
        rpverify.FieldPartition(params, basis, H2)


def test_field_partition_cache_is_bounded_lru(monkeypatch):
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(1, 1), params.n_max)
    ens = rpverify.FieldPartition(params, basis)
    computed = []
    correction = model.field_diagonal_correction
    monkeypatch.setattr(model, "field_diagonal_correction",
                        lambda *a: computed.append(1) or correction(*a))
    size = rpverify.LOG_Z_CACHE_SIZE
    fields = [[1e-3 * k, 0.0] for k in range(size)]
    first = ens.log_partition([0.5, -0.5])
    for h in fields[:size - 1]:
        ens.log_partition(h)
    assert len(ens._cache) == size and len(computed) == size
    assert ens.log_partition([0.5, -0.5]) == first  # a hit, which makes it the most recent
    assert len(computed) == size
    ens.log_partition(fields[-1])  # evicts the least recently used: fields[0]
    assert len(ens._cache) == size and len(computed) == size + 1
    ens.log_partition([0.5, -0.5])
    assert len(computed) == size + 1
    ens.log_partition(fields[0])
    assert len(ens._cache) == size and len(computed) == size + 2


def test_rp_equality_for_symmetric_field(field_state):
    lat, params, basis, ens = field_state
    h = np.zeros(lat.n_sites)
    res = rpverify.rp_reflection_check(params, basis, h, ens)
    assert res.passed and abs(res.slack) < 1e-12
    # reflection-symmetric h: equality as well
    h = np.array([0.4, 0.4])  # h_{-1} = h_0 is r-symmetric on the two-site cell
    res = rpverify.rp_reflection_check(params, basis, h, ens)
    assert res.passed and abs(res.slack) < 1e-12


def test_rp_random_fields(field_state):
    lat, params, basis, ens = field_state
    rng = np.random.default_rng(4)
    for _ in range(8):
        res = rpverify.rp_reflection_check(
            params, basis, rng.standard_normal(lat.n_sites), ens)
        assert res.passed, res


def test_gauss_equality_cases(field_state):
    lat, params, basis, ens = field_state
    for h in (np.zeros(lat.n_sites), 1.7 * np.ones(lat.n_sites)):
        res = rpverify.gaussian_domination_check(params, basis, h, ens)
        assert res.passed and abs(res.slack) < 1e-10


def test_gauss_random_fields(field_state):
    lat, params, basis, ens = field_state
    rng = np.random.default_rng(5)
    for _ in range(10):
        res = rpverify.gaussian_domination_check(
            params, basis, rng.standard_normal(lat.n_sites), ens)
        assert res.passed, res


# -- infrared chain ----------------------------------------------------------------------------


def test_infrared_chain_zero_field(chain_state):
    lat, params, basis, H2, spec, bonds = chain_state
    checks = rpverify.infrared_chain_check(params, basis, np.zeros(2), spec, H2, bonds)
    for res in checks:
        assert res.passed, res


def test_infrared_chain_eigenvector_field(chain_state):
    # h an eigenvector of -Delta: b0 = eigenvalue * |h|^2 / (2 beta V)
    lat, params, basis, H2, spec, bonds = chain_state
    h = np.array([1.0, -1.0])  # staggered: (-Delta) h = 4 h on the two-site ring
    checks = {c.name: c for c in
              rpverify.infrared_chain_check(params, basis, h, spec, H2, bonds)}
    b0 = checks["ir_duhamel_bound"].rhs
    assert np.isclose(b0, 4.0 * 2.0 / (2 * params.beta * params.V))
    for res in checks.values():
        assert res.passed, res


def test_infrared_chain_random_complex(chain_state):
    lat, params, basis, H2, spec, bonds = chain_state
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for res in rpverify.infrared_chain_check(params, basis, h, spec, H2, bonds):
            assert res.passed, res


def test_falk_bruch_limits():
    assert rpverify.falk_bruch_rhs(0.0, 1.0) == 0.0
    assert rpverify.falk_bruch_rhs(0.7, 0.0) == 0.7
    # smooth near c -> 0: b (1 + x/3 + ...) with x = c / 4b
    b, c = 0.5, 1e-9
    assert np.isclose(rpverify.falk_bruch_rhs(b, c), b * (1 + c / (12 * b)), rtol=1e-6)


# -- half filling and free-energy chain ----------------------------------------------------------


@pytest.mark.parametrize("nu,ell", [(1, 1)])
def test_half_filling_random_draws(nu, ell):
    rng = np.random.default_rng(7)
    for k in range(4):
        params = P(t=float(rng.uniform(0.1, 2)), U=float(rng.uniform(0.1, 3)),
                   V=float(rng.uniform(0.1, 3)), g=float(rng.uniform(-2, 2)),
                   omega=float(rng.uniform(0.3, 2)), beta=float(rng.uniform(0.0, 4)),
                   n_max=int(rng.integers(0, 3)))
        basis = build_basis(build_lattice(nu, ell), params.n_max)
        for res in rpverify.half_filling_check(params, basis, mechanism=(k == 0)):
            assert res.passed, res


def test_convexity_lemma():
    assert rpverify.convexity_lemma_check(n_pairs=80, dim_max=16, seed=8).passed


def test_q2_chain_strong_coupling():
    params = P(t=0.1, U=1.0, V=5.0, g=2.0, omega=1.0, beta=20.0, n_max=2)
    checks = rpverify.q2_lower_bound_check(params, build_basis(build_lattice(1, 1), 2))
    assert len(checks) == 2
    for res in checks:
        assert res.passed, res
    # the bound should actually have a positive right-hand side here
    assert checks[1].lhs > 0.9


def test_q2_chain_out_of_regime():
    params = P(t=1.0, U=40.0, V=1.0, g=0.1, omega=1.0, beta=1.0, n_max=1)
    checks = rpverify.q2_lower_bound_check(params, build_basis(build_lattice(1, 1), 1))
    assert len(checks) == 1 and not checks[0].passed


# -- no dense fermion factor on the full space -------------------------------------------


def test_annihilators_at_nu3_stay_sparse_and_small():
    """At nu = 3, n_max = 0 (dim 65536) a dense complex c would take
    65536^2 * 16 B = 64 GiB.  Read off the cached mode tables, c and c* are
    sparse with 32768 entries each; their traced peak measured 1.75 MiB, and
    the bound here is 4 MiB."""
    basis = build_basis(build_lattice(3, 1), 0, cap=65536)
    basis.mode_tables()
    for x, spin in (basis.modes[0], basis.modes[-1]):
        for op in (basis.c, basis.cdag):
            tracemalloc.start()
            try:
                a = op(x, spin)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sparse.issparse(a) and a.nnz == basis.fermion_dim // 2
            assert peak < 4 * 2 ** 20, peak


def _refuse_fermion_operators(monkeypatch, basis):
    def refuse(*args):
        raise AssertionError("fermion operator on the full space")

    monkeypatch.setattr(basis, "c", refuse, raising=False)
    monkeypatch.setattr(basis, "cdag", refuse, raising=False)


def test_full_space_builders_form_no_dense_fermion_operator_2x2(monkeypatch):
    """H, H' and H'' and the pairing terms are built from the mode tables by
    bit arithmetic, so they ask the full basis for no c or c* at all."""
    params = P(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=1)
    basis = build_basis(build_lattice(2, 1), params.n_max)
    _refuse_fermion_operators(monkeypatch, basis)
    with pytest.raises(AssertionError, match="fermion operator"):
        basis.c(basis.sites[0], "up")
    hs = model.hamiltonian_set(params, basis)
    for m in (hs.H, hs.H1, hs.H2, model.build_doubleprime(params, basis)):
        assert m.shape == (basis.total_dim,) * 2
    assert len(list(model.pairing_bond_terms(params, basis))) == 8
    ens = rpverify.FieldPartition(params, basis)   # theta from the half-space mode tables
    assert np.isfinite(ens.log_partition(np.zeros(basis.n_sites)))


@pytest.mark.parametrize("build", [lambda p, b: list(model.pairing_bond_terms(p, b))],
                         ids=["pairing_bond_terms"])
def test_six_site_ring_terms_stay_small(build):
    """On the 6-site ring (dim 4096) one dense complex fermion factor would be
    268 MB; the terms are built from bit arithmetic well below that."""
    params = small_params(n_max=0)
    basis = build_basis(build_lattice(1, 3), params.n_max)
    tracemalloc.start()
    try:
        build(params, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak


@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_field_partition_on_csr_matches_dense_exactly(nu, n_max):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    csr = rpverify.FieldPartition(params, basis, model.build_doubleprime_csr(params, basis))
    dense = rpverify.FieldPartition(params, basis, model.build_doubleprime(params, basis))
    rng = np.random.default_rng(41 + nu + 10 * n_max)
    h = rng.standard_normal(basis.n_sites)
    for f in (np.zeros(basis.n_sites), np.full(basis.n_sites, 0.75), h,
              *rpverify.reflected_configs(basis.lattice, h)):
        assert csr.log_partition(f) == dense.log_partition(f)
