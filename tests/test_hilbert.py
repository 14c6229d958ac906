import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import oracles
from hhlab.hilbert import HilbertBasis, Monomial, adjoint, build_basis, hermiticity_residual
from hhlab.lattice import Lattice, build_lattice
from hhlab.model import build_a_operators, charge_diagonals


def commutator(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def is_hermitian(a, tol=1e-12):
    return hermiticity_residual(a) <= tol


def test_dims_single_site():
    basis = HilbertBasis(Lattice.single_site().sites, 1)
    assert basis.fermion_dim == 4
    assert basis.boson_dim == 2
    assert basis.total_dim == 8


def test_dims_two_sites():
    basis = build_basis(build_lattice(1, 1), 2)
    assert basis.total_dim == 16 * 9 == 144


def test_dims_four_sites():
    basis = build_basis(build_lattice(2, 1), 1)
    assert basis.total_dim == 256 * 16 == 4096


def test_dimension_cap():
    with pytest.raises(ValueError, match="reduce"):
        build_basis(build_lattice(1, 3), 1)  # 4^6 * 2^6 >> 16384
    build_basis(build_lattice(1, 3), 0, cap=4096)  # fits when asked nicely


def test_unknown_mode_rejected():
    basis = build_basis(build_lattice(1, 1), 0)
    with pytest.raises(ValueError):
        basis.c((7,), "up")
    with pytest.raises(ValueError):
        basis.c((0,), "sideways")
    with pytest.raises(ValueError, match="unknown site"):
        basis.boson((7,), "annihilate")


def test_car_single_mode():
    basis = HilbertBasis(Lattice.single_site().sites, 0)
    c = basis.c((0,), "up").toarray()
    assert np.allclose(anticommutator(c, adjoint(c)), np.eye(4))
    assert np.allclose(c @ basis.fermion_vacuum(), 0.0)


def test_car_all_modes():
    basis = build_basis(build_lattice(1, 1), 0)
    c = {X: basis.c(*X).toarray() for X in basis.modes}
    for X in basis.modes:
        for Y in basis.modes:
            ac = anticommutator(c[X], adjoint(c[Y]))
            expected = np.eye(basis.fermion_dim) if X == Y else 0.0
            assert np.allclose(ac, expected), (X, Y)
            assert np.allclose(anticommutator(c[X], c[Y]), 0.0)


def test_a_operators_satisfy_car():
    basis = build_basis(build_lattice(1, 1), 0)
    a = {k: m.toarray() for k, m in build_a_operators(basis).items()}
    keys = list(a)
    for X in keys:
        for Y in keys:
            ac = anticommutator(a[X], adjoint(a[Y]))
            expected = np.eye(basis.fermion_dim) if X == Y else 0.0
            assert np.allclose(ac, expected), (X, Y)
            assert np.allclose(anticommutator(a[X], a[Y]), 0.0)


# the bases whose fermion factor the annihilator property test draws from
SMALL_BASES = {
    "single_site": lambda: HilbertBasis(Lattice.single_site().sites, 0),
    "ring": lambda: build_basis(build_lattice(1, 1), 0),
    "2x2_left": lambda: HilbertBasis(build_lattice(2, 1).left_sites, 0),
    "2x2_right": lambda: HilbertBasis(build_lattice(2, 1).right_sites, 0),
}


def _is_zero(a):
    return sparse.csr_array(a).count_nonzero() == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL_BASES)), st.data())
def test_csr_annihilators_equal_the_kron_chain_and_satisfy_car(name, data):
    """c and c* are CSR arrays equal, entry for entry, to the dense
    Kronecker-chain oracle, and {c_X, c*_Y} = delta_XY, {c_X, c_Y} = 0 hold
    as sparse products."""
    basis = SMALL_BASES[name]()
    modes = st.sampled_from(basis.modes)
    X, Y = data.draw(modes), data.draw(modes)
    cX, cY, cdY = basis.c(*X), basis.c(*Y), basis.cdag(*Y)
    assert isinstance(cX, sparse.csr_array) and cX.nnz == basis.fermion_dim // 2
    assert np.array_equal(cX.toarray(), oracles.c(basis, *X))
    assert np.array_equal(cdY.toarray(), oracles.cdag(basis, *Y))
    mixed = cX @ cdY + cdY @ cX
    assert _is_zero(mixed - sparse.eye_array(basis.fermion_dim) if X == Y else mixed)
    assert _is_zero(cX @ cY + cY @ cX)
    assert np.array_equal(np.diag(oracles.n_spin(basis, *X)), (cX.T @ cX).diagonal())


def test_fermion_parity_is_the_diagonal_of_the_kron_chain():
    basis = build_basis(build_lattice(1, 1), 0)
    for sites in ([], basis.sites[:1], basis.sites):
        dense = np.eye(basis.fermion_dim)
        for x in sites:
            for spin in ("up", "down"):
                dense = dense @ (np.eye(basis.fermion_dim) - 2 * oracles.n_spin(basis, x, spin))
        parity = basis.fermion_parity(sites)
        assert parity.shape == (basis.fermion_dim,)
        assert np.array_equal(np.diag(dense), parity)
        assert np.array_equal(dense, np.diag(parity))


def test_ladder_matrix_n_max_one():
    basis = HilbertBasis(Lattice.single_site().sites, 1)
    b = basis.boson((0,), "annihilate")
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.allclose(b, expected)


def test_truncated_ccr():
    # [b, b*] = 1 - (n_max + 1) P_top exactly
    basis = HilbertBasis(Lattice.single_site().sites, 3)
    b = basis.boson((0,), "annihilate")
    comm = commutator(b, adjoint(b))
    assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]))


def test_position_momentum_hermitian():
    basis = build_basis(build_lattice(1, 1), 3)
    for x in basis.sites:
        assert is_hermitian(basis.boson(x, "position", omega=0.7))
        assert is_hermitian(basis.boson(x, "momentum", omega=0.7))


def test_position_momentum_need_omega():
    basis = build_basis(build_lattice(1, 1), 1)
    with pytest.raises(ValueError):
        basis.boson((0,), "position")


def test_ccr_between_sites():
    basis = build_basis(build_lattice(1, 1), 2)
    b0 = basis.boson((-1,), "annihilate")
    b1 = basis.boson((0,), "annihilate")
    assert np.allclose(commutator(b0, adjoint(b1)), 0.0)


def test_charge_and_numbers_diagonal():
    basis = build_basis(build_lattice(1, 1), 0)
    for x, diag in zip(basis.sites, charge_diagonals(basis)):
        q = oracles.charge(basis, x)
        assert np.allclose(q, np.diag(np.diag(q)))
        vals = np.unique(np.real(np.diag(q)))
        assert set(np.round(vals).astype(int)) == {-1, 0, 1}
        assert np.array_equal(np.diag(q), diag)


def test_charges_commute():
    basis = build_basis(build_lattice(1, 1), 0)
    q0 = oracles.charge(basis, (-1,))
    q1 = oracles.charge(basis, (0,))
    assert np.allclose(commutator(q0, q1), 0.0)


def test_algebra_helpers():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.allclose(commutator(a, a), 0.0)
    assert np.allclose(adjoint(adjoint(a)), a)
    with pytest.raises(ValueError):
        commutator(a, np.eye(4))
    h = a + adjoint(a)
    assert is_hermitian(h, tol=1e-12)
    assert hermiticity_residual(a) > 0.1


def _sparse_pattern(pattern, rng, n=12):
    """A non-Hermitian CSR array: with a symmetric pattern, a one-sided one,
    or a symmetric one stored with duplicate entries."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = rng.random((n, n)) < 0.3
    mask = mask | mask.T if pattern != "one_sided" else mask
    a = sparse.csr_array(x * mask)
    if pattern == "duplicates":
        a = sparse.csr_array((np.repeat(a.data / 2, 2), np.repeat(a.indices, 2), 2 * a.indptr),
                             shape=a.shape)
        assert not a.has_canonical_format
    return a


@pytest.mark.parametrize("pattern", ["symmetric", "one_sided", "duplicates"])
def test_sparse_hermiticity_residual_matches_the_dense_one(pattern):
    rng = np.random.default_rng(12)
    a = _sparse_pattern(pattern, rng)
    herm = a + a.conj().T
    for m in (a, herm, herm * (1 + 1e-9j)):
        assert hermiticity_residual(m) == hermiticity_residual(m.toarray())
    assert hermiticity_residual(herm) == 0.0


def test_embeddings_commute_between_factors():
    basis = build_basis(build_lattice(1, 1), 1)
    f = oracles.embed_fermion(basis, oracles.charge(basis, (0,)))
    b = oracles.embed_boson(basis, basis.boson((0,), "annihilate"))
    assert np.allclose(commutator(f, b), 0.0)


def test_vacuum_is_unit_basis_state():
    basis = build_basis(build_lattice(1, 1), 1)
    v = basis.vacuum()
    assert v[0] == 1.0 and np.count_nonzero(v) == 1


# -- signed permutations ------------------------------------------------------------


def random_monomial(rng, n):
    return Monomial(rng.permutation(n), rng.choice([-1.0, 1.0], size=n))


def test_monomial_algebra_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, k = (int(v) for v in rng.integers(1, 9, size=2))
        a, b, c = random_monomial(rng, n), random_monomial(rng, n), random_monomial(rng, k)
        A = a.to_dense()
        assert np.array_equal(np.abs(A).sum(axis=0), np.ones(n))
        assert np.array_equal(A[a.perm, np.arange(n)], a.sign)
        assert np.array_equal(a.compose(b).to_dense(), A @ b.to_dense())
        assert np.array_equal(a.kron(c).to_dense(), np.kron(A, c.to_dense()))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(a.conjugate(sparse.csr_array(M)).toarray(), A @ M @ A.T)
        with pytest.raises(TypeError, match="dense"):
            a.conjugate(M)
        d = rng.standard_normal(n)
        assert np.array_equal(a.conjugate(d), np.diag(A @ np.diag(d) @ A.T))
