import numpy as np
import pytest

from hhlab.hilbert import HilbertBasis, Monomial, adjoint, build_basis, hermiticity_residual
from hhlab.lattice import Lattice, build_lattice
from hhlab.model import build_a_operators


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


def test_car_single_mode():
    basis = HilbertBasis(Lattice.single_site().sites, 0)
    c = basis.c((0,), "up")
    assert np.allclose(anticommutator(c, adjoint(c)), np.eye(4))
    assert np.allclose(c @ basis.fermion_vacuum(), 0.0)


def test_car_all_modes():
    basis = build_basis(build_lattice(1, 1), 0)
    for X in basis.modes:
        for Y in basis.modes:
            ac = anticommutator(basis.c(*X), adjoint(basis.c(*Y)))
            expected = np.eye(basis.fermion_dim) if X == Y else 0.0
            assert np.allclose(ac, expected), (X, Y)
            assert np.allclose(anticommutator(basis.c(*X), basis.c(*Y)), 0.0)


def test_a_operators_satisfy_car():
    basis = build_basis(build_lattice(1, 1), 0)
    a = build_a_operators(basis)
    keys = list(a)
    for X in keys:
        for Y in keys:
            ac = anticommutator(a[X], adjoint(a[Y]))
            expected = np.eye(basis.fermion_dim) if X == Y else 0.0
            assert np.allclose(ac, expected), (X, Y)
            assert np.allclose(anticommutator(a[X], a[Y]), 0.0)


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
    for x in basis.sites:
        q = basis.charge(x)
        assert np.allclose(q, np.diag(np.diag(q)))
        vals = np.unique(np.real(np.diag(q)))
        assert set(np.round(vals).astype(int)) == {-1, 0, 1}


def test_charges_commute():
    basis = build_basis(build_lattice(1, 1), 0)
    q0 = basis.charge((-1,))
    q1 = basis.charge((0,))
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


def test_embeddings_commute_between_factors():
    basis = build_basis(build_lattice(1, 1), 1)
    f = basis.embed_fermion(basis.charge((0,)))
    b = basis.embed_boson(basis.boson((0,), "annihilate"))
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
        assert np.array_equal(a.conjugate(M), A @ M @ A.T)
        d = rng.standard_normal(n)
        assert np.array_equal(a.conjugate(d), np.diag(A @ np.diag(d) @ A.T))
