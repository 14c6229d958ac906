import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhlab.lattice import Bond, Lattice, build_lattice, dispersion


def test_build_smallest_odd():
    lat = build_lattice(1, 1)
    assert lat.sites == [(-1,), (0,)]
    assert lat.n_sites == 2


def test_build_two_dim():
    lat = build_lattice(2, 1)
    assert lat.n_sites == 4
    assert set(lat.sites) == {(-1, -1), (-1, 0), (0, -1), (0, 0)}


@pytest.mark.parametrize("ell", [0, 2, -1, 4])
def test_even_or_nonpositive_ell_rejected(ell):
    with pytest.raises(ValueError, match="odd"):
        build_lattice(1, ell)


def test_left_sites_precede_right_sites():
    lat = build_lattice(2, 3)
    first_right = next(i for i, x in enumerate(lat.sites) if x[0] >= 0)
    assert all(x[0] < 0 for x in lat.sites[:first_right])
    assert all(x[0] >= 0 for x in lat.sites[first_right:])


def test_parity_examples():
    lat = build_lattice(3, 1)
    assert lat.parity((0, 0, 0)) == "even"
    assert lat.parity((-1, 1, 0)) == "even"
    assert build_lattice(1, 1).parity((-1,)) == "odd"


def test_reflect_examples():
    lat = build_lattice(2, 3)
    assert lat.reflect((0, 2)) == (-1, 2)
    assert build_lattice(1, 1).reflect((0,)) == (-1,)


def test_reflect_is_parity_flipping_bijection():
    lat = build_lattice(2, 3)
    images = set()
    for x in lat.right_sites:
        y = lat.reflect(x)
        assert y in lat.left_sites
        assert lat.parity(y) != lat.parity(x)
        assert lat.reflect_inv(y) == x
        images.add(y)
    assert images == set(lat.left_sites)


def test_reflect_rejects_wrong_half():
    lat = build_lattice(1, 3)
    with pytest.raises(ValueError):
        lat.reflect((-1,))
    with pytest.raises(ValueError):
        lat.reflect_inv((0,))


def test_bond_enumeration_once_per_pair_for_large_l():
    lat = build_lattice(1, 3)
    bonds = lat.bonds()
    assert len(bonds) == 6
    pairs = {frozenset((b.i, b.j)) for b in bonds}
    assert len(pairs) == 6


def test_bond_enumeration_doubles_at_l1():
    lat = build_lattice(1, 1)
    bonds = lat.bonds()
    assert len(bonds) == 2
    assert all(frozenset((b.i, b.j)) == frozenset((0, 1)) for b in bonds)


def test_laplacian_kills_constants():
    lat = build_lattice(2, 3)
    assert np.allclose(lat.laplacian_matrix() @ np.full(lat.n_sites, 3.7), 0.0)


def test_laplacian_staggered_eigenvector():
    lat = build_lattice(1, 3)
    h = np.array([lat.staggered_sign(x) for x in lat.sites], dtype=float)
    assert np.allclose(lat.laplacian_matrix() @ h, 4 * lat.nu * h)


def test_laplacian_matches_bond_assembled_matrix():
    lat = build_lattice(2, 1)
    rng = np.random.default_rng(0)
    h = rng.standard_normal(lat.n_sites)
    # independent assembly of -Delta from the bond list
    m = np.zeros((4, 4))
    for b in lat.bonds():
        m[b.i, b.i] += 1
        m[b.j, b.j] += 1
        m[b.i, b.j] -= 1
        m[b.j, b.i] -= 1
    assert np.allclose(lat.laplacian_matrix() @ h, m @ h)
    assert np.array_equal(m, lat.laplacian_matrix())


def test_minus_laplacian_psd_with_constant_kernel():
    lat = build_lattice(2, 3)
    w, q = np.linalg.eigh(lat.laplacian_matrix())
    assert w[0] > -1e-12
    assert np.sum(np.abs(w) < 1e-10) == 1
    const = q[:, np.argmin(np.abs(w))]
    assert np.allclose(np.abs(const), np.abs(const[0]))


def test_dispersion_endpoints():
    e, f = dispersion(np.zeros(3))
    assert e == 0.0 and f == 6.0
    e, f = dispersion(np.full(3, np.pi))
    assert np.isclose(e, 6.0) and np.isclose(f, 0.0)


@given(st.integers(1, 4), st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4))
def test_dispersion_sum_identity(nu, ps):
    p = np.array((ps * nu)[:nu])
    e, f = dispersion(p)
    assert e >= -1e-15
    assert np.isclose(e + f, 2 * len(p))


def test_momentum_grid_size_and_range():
    lat = build_lattice(2, 3)
    ps = lat.momentum_grid()
    assert ps.shape == (lat.n_sites, 2)
    assert np.all(ps >= -np.pi) and np.all(ps < np.pi)


def test_fourier_roundtrip():
    lat = build_lattice(2, 1)
    rng = np.random.default_rng(1)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    back = lat.fourier_inverse(lat.fourier(h))
    assert np.max(np.abs(back - h)) < 1e-12 * max(1.0, np.max(np.abs(h)))


def test_fourier_constant_supported_at_zero():
    lat = build_lattice(1, 3)
    hhat = lat.fourier(np.ones(lat.n_sites))
    ps = lat.momentum_grid()
    on = np.all(np.isclose(ps, 0.0), axis=1)
    assert np.all(np.abs(hhat[~on]) < 1e-12)
    assert abs(hhat[on][0]) > 1.0


def test_fourier_delta_has_flat_modulus():
    lat = build_lattice(1, 3)
    h = np.zeros(lat.n_sites)
    h[lat.site_index[(0,)]] = 1.0
    hhat = lat.fourier(h)
    assert np.allclose(np.abs(hhat), (2 * np.pi) ** (-0.5))


def test_parseval_identity_direct_sum_oracle():
    # <h|(-Delta)h> = ((2 pi)^nu / |Lambda|) sum_p 2 E(p) |hhat(p)|^2, with
    # hhat evaluated by an explicit double loop (independent of .fourier)
    lat = build_lattice(1, 3)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(lat.n_sites)
    lhs = h @ lat.laplacian_matrix() @ h
    rhs = 0.0
    for p in lat.momentum_grid():
        hhat = sum(np.exp(-1j * np.dot(p, x)) * h[i] for i, x in enumerate(lat.sites))
        hhat *= (2 * np.pi) ** (-lat.nu / 2)
        e, _ = dispersion(p)
        rhs += 2.0 * e * abs(hhat) ** 2
    rhs *= (2 * np.pi) ** lat.nu / lat.n_sites
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=25)
@given(st.integers(1, 3), st.sampled_from([1, 3]), st.integers(0, 10 ** 6))
def test_wrap_is_idempotent_and_in_range(nu, ell, seed):
    lat = Lattice(nu, ell)
    rng = np.random.default_rng(seed)
    x = tuple(int(v) for v in rng.integers(-3 * ell, 3 * ell, size=nu))
    w = lat.wrap(x)
    assert all(-ell <= c < ell for c in w)
    assert lat.wrap(w) == w
    assert all((a - b) % (2 * ell) == 0 for a, b in zip(x, w))


def test_single_site_helper():
    lat = Lattice.single_site()
    assert lat.n_sites == 1
    assert lat.bonds() == []
    assert np.array_equal(lat.laplacian_matrix(), [[0.0]])


def test_bond_type_fields():
    lat = build_lattice(2, 1)
    b = lat.bonds()[0]
    assert isinstance(b, Bond)
    assert b.direction in (1, 2)


def _looped_laplacian(lat, h):
    """(Delta h)_x summed site by site, neighbour by neighbour, in the order of the formula."""
    h = np.asarray(h)
    out = -2 * lat.nu * h.astype(np.result_type(h, float))
    for i, x in enumerate(lat.sites):
        for j in range(1, lat.nu + 1):
            out[i] += h[lat.site_index[lat.shift(x, j, +1)]]
            out[i] += h[lat.site_index[lat.shift(x, j, -1)]]
    return out


@pytest.mark.parametrize("nu,ell", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 1)])
def test_laplacian_is_bit_identical_to_site_loop(nu, ell):
    # the matrix assembled from the bond list, column by column against the
    # formula summed at every site: integer entries, so equal to the bit
    lat = build_lattice(nu, ell)
    columns = [-_looped_laplacian(lat, e) for e in np.eye(lat.n_sites)]
    assert np.array_equal(lat.laplacian_matrix(), np.column_stack(columns))
    rng = np.random.default_rng(nu + 10 * ell)
    h = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
    assert np.allclose(lat.laplacian_matrix() @ h, -_looped_laplacian(lat, h), rtol=0, atol=1e-13)


def test_lattice_tables_are_cached_and_read_only():
    lat = build_lattice(2, 3)
    lap = lat.laplacian_matrix()
    assert lat.laplacian_matrix() is lap and lat.staggered_signs is lat.staggered_signs
    for table in (lap, lat.staggered_signs):
        with pytest.raises(ValueError):
            table[0] = 7
    with pytest.raises(ValueError):
        lap += 1.0
    assert np.array_equal(lat.staggered_signs, [lat.staggered_sign(x) for x in lat.sites])
    # a caller's copy is its own; the cache stays -Delta
    mine = lat.laplacian_matrix().copy()
    mine[0, 0] = 99.0
    assert np.allclose(lat.laplacian_matrix().sum(axis=1), 0.0) and lap[0, 0] == 2 * lat.nu
