"""The entry stream of ``sectors._gauged_sparse`` and the one symmetry check
on it, ``sectors._invariance``, against whole-matrix references."""

import numpy as np
import pytest
from scipy import sparse

import oracles
from hhlab import model, rpverify, sectors, thermo
from hhlab.hilbert import Monomial, build_basis
from hhlab.lattice import build_lattice
from test_model import ORACLE_GEOMETRIES
from test_thermo import flux_pair_matrix, gauged_real_matrix, small_params

SYMMETRIES = ["theta", "pi", "pi0", "swap"]


def symmetry(basis, name):
    """(signed permutation, antiunitary) of Theta, Pi, Pi_0 or the spin swap."""
    if name == "theta":
        return rpverify._mirror_symmetry(basis)[0], True
    if name == "swap":
        return model.spin_swap(basis), False
    sites = (model.particle_hole_translation(basis.lattice) if name == "pi"
             else np.arange(basis.n_sites))
    return model.particle_hole_symmetry(basis, sites), False


def assert_check_matches_reference(H, basis, name):
    stream = sectors._gauged_sparse(H)
    perm, antiunitary = symmetry(basis, name)
    O = sectors._gauged_symmetry(stream.labels, stream.phase, perm, antiunitary)
    to, dev = sectors._invariance(stream, O)
    want_to, want_dev = oracles.symmetry_change(H, stream.labels, stream.phase, O)
    assert dev == want_dev
    assert (to is None) == (want_to is None)
    if to is not None:
        assert np.array_equal(to, want_to)
    return stream, dev


@pytest.mark.parametrize("name", SYMMETRIES)
@pytest.mark.parametrize("nu,n_max", ORACLE_GEOMETRIES + [(2, 1)])
def test_stream_check_matches_the_whole_sparse_difference(nu, n_max, name):
    params = small_params(n_max=n_max)
    basis = build_basis(build_lattice(nu, 1), n_max)
    H = (model.build_doubleprime_csr if (nu, n_max) == (2, 1) else model.build_doubleprime)(
        params, basis)
    stream, dev = assert_check_matches_reference(H, basis, name)
    assert dev <= sectors._SYMMETRY_TOL * stream.top


def mutated(H, stream, O, how):
    """H with one entry pair moved, or scaled by 10 or 0.1 times the symmetry
    tolerance: the largest entry whose image under O is another entry."""
    H = H.copy()
    rows, cols = np.nonzero(np.triu(H, 1))
    order = np.argsort(-np.abs(H[rows, cols]), kind="stable")
    i, j = next((rows[a], cols[a]) for a in order
                if {O.perm[rows[a]], O.perm[cols[a]]} != {rows[a], cols[a]})
    if how == "moved":
        free = [c for c in range(len(H)) if c != i and H[i, c] == 0 and stream.labels[c] ==
                stream.labels[i]]
        H[i, free[0]], H[free[0], i] = H[i, j], H[j, i]
        H[i, j] = H[j, i] = 0.0
    else:
        scale = {"tol_x10": 10.0, "tol_x0.1": 0.1}[how] * sectors._SYMMETRY_TOL * stream.top
        H[i, j] *= 1.0 + scale / abs(H[i, j])
        H[j, i] = np.conj(H[i, j])
    return H


@pytest.mark.parametrize("name", SYMMETRIES)
@pytest.mark.parametrize("how", ["moved", "tol_x10", "tol_x0.1"])
def test_stream_check_matches_the_reference_on_mutated_doubleprime(how, name):
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), 1)
    H = model.build_doubleprime(params, basis)
    stream = sectors._gauged_sparse(H)
    perm, antiunitary = symmetry(basis, name)
    O = sectors._gauged_symmetry(stream.labels, stream.phase, perm, antiunitary)
    H = mutated(H, stream, O, how)
    stream, dev = assert_check_matches_reference(H, basis, name)
    if how != "moved":
        assert (dev > sectors._SYMMETRY_TOL * stream.top) == (how == "tol_x10")


def test_stream_check_counts_an_entry_that_is_no_image():
    # under a 3-cycle, no involution, the largest entry of O G O^T - G is an
    # entry of G (10 at (0, 2)) that no entry is moved onto
    H = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    stream = sectors._gauged_sparse(H)
    O = Monomial(np.array([1, 2, 0]), np.ones(3))
    to, dev = sectors._invariance(stream, O)
    assert np.array_equal(to, [0]) and dev == 10.0
    assert dev == oracles.symmetry_change(H, stream.labels, stream.phase, O)[1]


def test_stream_is_real_without_flux_and_complex_with_it():
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), 1)
    for H in (model.build_doubleprime(params, basis), model.build_doubleprime_csr(params, basis)):
        stream = sectors._gauged_sparse(H)
        assert stream.vals.dtype == stream.diagonal.dtype == np.float64
        assert not stream.flux.any()
    stream = sectors._gauged_sparse(flux_pair_matrix())
    assert stream.vals.dtype == stream.diagonal.dtype == np.complex128
    assert list(stream.flux > 0.0) == [True, False, False]


def test_small_imaginary_part_takes_the_complex_path_and_is_kept():
    # 1e-6 on one chord of a gauge-real component is flux: the component is
    # solved complex, with the imaginary part in its block
    H = gauged_real_matrix(np.random.default_rng(8), 6)
    H[0, 2] += 1e-6j
    H[2, 0] = np.conj(H[0, 2])
    stream = sectors._gauged_sparse(H)
    assert stream.vals.dtype == np.complex128 and stream.flux[0] > 0.0
    assert np.array_equal(stream.phase, np.ones(6))
    assert H[0, 2] in stream.vals
    spec = thermo.spectral(H, 1.0)
    assert spec.real_blocks == [False]
    (idx, w, Q), = spec.blocks
    assert np.max(np.abs((Q * w) @ Q.conj().T - H)) <= 1e-12


@pytest.mark.parametrize("form", ["unsorted", "duplicates", "coo", "csc"])
def test_pattern_reads_a_canonical_csr_in_place_and_any_other_by_a_copy(form):
    params = small_params(n_max=1)
    basis = build_basis(build_lattice(1, 1), 1)
    H = model.build_doubleprime_csr(params, basis)
    assert H.has_canonical_format
    want = sectors._offdiagonal_pattern(H)
    H.tocoo = H.tocsr = None                  # a canonical CSR is read without a copy
    got = sectors._offdiagonal_pattern(H)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    H = model.build_doubleprime_csr(params, basis)
    if form == "unsorted":                   # each row's columns descending
        rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
        order = np.lexsort((-H.indices, rows))
        other = sparse.csr_array((H.data[order], H.indices[order], H.indptr), shape=H.shape)
    elif form == "duplicates":               # each entry stored as two halves
        other = sparse.csr_array((np.repeat(H.data / 2, 2), np.repeat(H.indices, 2),
                                  2 * H.indptr), shape=H.shape)
    else:
        other = H.tocoo() if form == "coo" else H.tocsc()
    assert not (other.format == "csr" and other.has_canonical_format)
    got = sectors._offdiagonal_pattern(other)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
