"""Dense oracles for the tests, at small sizes only.

hhlab reads every fermion operator off the mode tables of
:class:`hhlab.hilbert.HilbertBasis` and assembles every Hamiltonian as a CSR
array.  The oracles here are the textbook constructions they are checked
against: each annihilator as a dense Kronecker chain, the occupation
diagonals as products of those, the Hamiltonians H' and H'' as sums of dense
Kronecker products, H, H' and H''(h) as the library's CSR sums
densified, and theta's W built state by state from a*- and c*-strings.
"""

from functools import reduce

import numpy as np

from hhlab import model

_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # <0|c|1> = 1
_SIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)       # (-1)^n


# -- fermion operators on the fermion factor -----------------------------------------


def c(basis, x, spin):
    """c_{x spin} as the dense fermion_dim x fermion_dim Kronecker chain
    (-1)^n (x) ... (x) (-1)^n (x) c (x) 1 (x) ... (x) 1: the Jordan-Wigner
    string runs over the modes before it."""
    m = basis.mode_index(x, spin)
    eye = np.eye(2, dtype=complex)
    return reduce(np.kron, [_SIGN] * m + [_ANNIHILATE] + [eye] * (basis.n_modes - m - 1))


def cdag(basis, x, spin):
    return c(basis, x, spin).conj().T


def n_spin(basis, x, spin):
    """Number operator n_{x spin} = c* c (diagonal)."""
    return cdag(basis, x, spin) @ c(basis, x, spin)


def charge(basis, x):
    """q_x = n_{x up} + n_{x down} - 1 (diagonal, eigenvalues -1, 0, 0, +1 per site)."""
    return n_spin(basis, x, "up") + n_spin(basis, x, "down") - np.eye(basis.fermion_dim)


def spin_z(basis, x):
    """s_x = n_{x up} - n_{x down} (diagonal)."""
    return n_spin(basis, x, "up") - n_spin(basis, x, "down")


# -- Hamiltonians as dense Kronecker sums ----------------------------------------------


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
                    pair = np.kron(cdag(basis, x, spin) @ cdag(basis, y, spin), phase)
                    term += -params.t * (pair + pair.conj().T)
                out.append(((x, y, j, eps), term))
    return out


def dense_charge_and_phonon(params, basis, v_coeff):
    """u_eff sum q^2 + v_coeff sum_bonds q q + K as dense full-space matrices."""
    lat = basis.lattice
    P_f = np.zeros((basis.fermion_dim, basis.fermion_dim), dtype=complex)
    for x in lat.sites:
        P_f += params.u_eff * charge(basis, x) @ charge(basis, x)
    for b in lat.bonds():
        P_f += v_coeff * charge(basis, lat.sites[b.i]) @ charge(basis, lat.sites[b.j])
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
            term = np.kron(cdag(basis, x, spin) @ c(basis, y, spin), phase)
            T1 += -params.t * (term + term.conj().T)
    return T1 + dense_charge_and_phonon(params, basis, params.V)


# -- the library's CSR Hamiltonians, densified ----------------------------------------


def build_original(params, basis):
    """H = T + P + I + K of :func:`hhlab.model.build_original_csr` as a dense matrix."""
    return model.build_original_csr(params, basis).toarray()


def build_transformed(params, basis):
    """H' = T' + P' + K, the library's sum of its defining terms, as a dense matrix."""
    return model._sparse_sum(basis, model._dressed(params, basis, False)).toarray()


def build_field_hamiltonian(params, basis, h):
    """H''(h) = T'' + P''(h) + K as a dense matrix; equals H'' entrywise at h = 0."""
    h = np.asarray(h, dtype=float)
    H = model.build_doubleprime(params, basis)
    H[np.diag_indices_from(H)] += np.repeat(model.field_diagonal_correction(params, basis, h),
                                            basis.boson_dim)
    return H


# -- the reflection theta ----------------------------------------------------------------


def theta_matrix(split):
    """theta's W (H_L -> H_R) for an ``rpverify.LRSplit``, state by state:
    each right state c*_{m_1} ... c*_{m_k} Omega_R (modes ascending) is the
    image of a*_{r m_1} ... a*_{r m_k} Omega_L, both built from the dense
    half-space operators; the phonon factor relabels the occupation of each
    site y by r(y)."""
    lat, bl, br = split.basis.lattice, split.basis_L, split.basis_R
    adags = {k: a.T.toarray() for k, a in model.build_a_operators(bl).items()}
    cdags = [br.cdag(x, spin).toarray() for x, spin in br.modes]
    W_xi = np.zeros((br.fermion_dim, bl.fermion_dim), dtype=complex)
    for i in range(br.fermion_dim):
        ms = [m for m in range(br.n_modes) if (i >> (br.n_modes - 1 - m)) & 1]
        e_vec, f_vec = br.fermion_vacuum(), bl.fermion_vacuum()
        for m in reversed(ms):
            x, spin = br.modes[m]
            e_vec = cdags[m] @ e_vec
            f_vec = adags[(lat.reflect(x), spin)] @ f_vec
        W_xi += np.outer(e_vec, f_vec)
    P = np.zeros((br.boson_dim, bl.boson_dim))
    for i in range(bl.boson_dim):
        n_l = bl.boson_tuple(i)
        j = 0
        for y in br.sites:
            j = j * (br.n_max + 1) + n_l[bl.site_index[lat.reflect(y)]]
        P[j, i] = 1.0
    return np.kron(W_xi, P)
