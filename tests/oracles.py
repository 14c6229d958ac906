"""Dense oracles for the tests, at small sizes only.

hhlab reads every fermion operator off the mode tables of
:class:`hhlab.hilbert.HilbertBasis` and assembles every Hamiltonian as a CSR
array.  The oracles here are the textbook constructions they are checked
against: each annihilator as a dense Kronecker chain, the occupation
diagonals as products of those, the Hamiltonians H' and H'' as sums of dense
Kronecker products, H, H' and H''(h) as the library's CSR sums
densified, the bond phase exp(-i alpha (phi_x - phi_y)) as one dense
exponential on the whole boson factor, the Lang-Firsov unitary as one dense
exponential of its whole generator, with its diagnostic on dense full-space
products, theta's W built state by state from a*- and c*-strings, the
bond expectations and infrared forms read off whole Gibbs blocks, and each
bond term set against H'' on the entries of its site pair.
"""

from collections import Counter
from functools import reduce

import numpy as np
from scipy.linalg import blas
from scipy.sparse import coo_array, csr_array

from hhlab import model, sectors, thermo

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


# -- embeddings into the full space ----------------------------------------------------


def embed_fermion(basis, F):
    """F (x) 1 on the full space, for a dense F on the fermion factor."""
    return np.kron(F, np.eye(basis.boson_dim, dtype=complex))


def embed_boson(basis, B):
    """1 (x) B on the full space, for a dense B on the boson factor."""
    return np.kron(np.eye(basis.fermion_dim, dtype=complex), B)


# -- phonon exponentials on the whole boson factor --------------------------------------


def expm_i_hermitian(h):
    """exp(i h) for Hermitian h, via eigendecomposition (exactly unitary)."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * w)) @ q.conj().T


def hop_phase(params, basis, x, y):
    """exp(-i alpha (phi_x - phi_y)) by one eigh of its generator on the whole
    boson factor: the reference for ``model._hop_phase``, which multiplies
    one-site factors."""
    phi_x = basis.boson(x, "position", omega=params.omega)
    phi_y = basis.boson(y, "position", omega=params.omega)
    return expm_i_hermitian(-params.alpha * (phi_x - phi_y))


def phonon_gauge(basis):
    """The diagonal of the phonon gauge i^{N_p}, N_p = sum_x n_x, on the full space.

    Conjugation by it maps each phi_x to i times a real antisymmetric matrix,
    so exp(-i alpha (phi_x - phi_y)) becomes real and H'' and H''(h) become
    real symmetric.  Its entries are exactly 1, i, -1 or -i.
    """
    n_p = model._phonon_digits(basis).sum(axis=1)
    return np.tile(model._I_POWERS[n_p % 4], basis.fermion_dim)


# -- Hamiltonians as dense Kronecker sums ----------------------------------------------


def dense_pairing_terms(params, basis):
    """The pairing terms of T'' as dense full-space Kronecker products,
    -t sum_s (c*_{x s} c*_{y s} (x) exp(-i alpha (phi_x - phi_y)) + h.c.),
    one per (x, y, j, eps) in the library's order, with the library's phase
    (checked against :func:`hop_phase` on its own), so the Kronecker assembly
    is compared bit for bit."""
    lat = basis.lattice
    out = []
    for x in lat.even_sites:
        for j in range(1, lat.nu + 1):
            for eps in (+1, -1):
                y = lat.shift(x, j, eps)
                phase = model._hop_phase(basis, params, x, y)
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
    return embed_fermion(basis, P_f) + embed_boson(basis, K_b)


def dense_doubleprime(params, basis):
    """H'' = T'' + P'' + K with every part a dense full-space matrix."""
    T2 = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for _, term in dense_pairing_terms(params, basis):
        T2 += term
    return T2 + dense_charge_and_phonon(params, basis, -params.V)


def dense_transformed(params, basis):
    """H' = T' + P' + K with every part a dense full-space matrix: each
    phase-dressed hopping term as a Kronecker product,
    -t (c*_{x s} c_{y s} (x) exp(-i alpha (phi_x - phi_y)) + h.c.), with the
    library's phase as in :func:`dense_pairing_terms`."""
    lat = basis.lattice
    T1 = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for b in lat.bonds():
        x, y = lat.sites[b.i], lat.sites[b.j]
        phase = model._hop_phase(basis, params, x, y)
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


# -- thermal sums over whole Gibbs blocks ------------------------------------------------


def gibbs_blocks(spec):
    """Every component's Gibbs block in the gauge of ``spec``, q diag(e^{-beta w}) q^H / Z."""
    blocks = [(q * wt) @ q.conj().T for (_, _, q), wt in zip(spec._eig, spec._weights)]
    for r in blocks:
        r /= spec.z_shifted
    return blocks


def _by_component(spec, rows, cols, vals):
    """(k, l, gauged vals, ends) of the entries inside the components of ``spec``."""
    comp = spec._block_of[rows]
    inside = np.flatnonzero(comp == spec._block_of[cols])
    inside = inside[np.argsort(comp[inside], kind="stable")]
    ends = np.searchsorted(comp[inside], np.arange(len(spec._eig) + 1))
    rows, cols, vals = rows[inside], cols[inside], vals[inside]
    vals = sectors._gauged(vals, spec._phase[rows], spec._phase[cols])
    return spec._position[rows], spec._position[cols], vals, ends


def bond_expectations(params, basis, spec, terms=None):
    """[(key, <term>)] of the pairing bond terms (those of
    ``model.pairing_bond_terms``, or ``terms``), each trace summed over the
    term's entries inside a component against that component's whole Gibbs
    block.  Each term is Hermitian, so its trace must be real to 1e-10
    relative; the real part is returned."""
    rho = gibbs_blocks(spec)
    out = []
    for key, term in terms or model.pairing_bond_terms(params, basis):
        A = coo_array(term)
        k, l, data, ends = _by_component(spec, A.row, A.col, A.data)
        total = 0.0 + 0.0j
        for c in np.flatnonzero(np.diff(ends)):
            s = slice(ends[c], ends[c + 1])
            total += np.vdot(rho[c][k[s], l[s]], data[s])
        if abs(total.imag) > 1e-10 * max(1.0, abs(total)):
            raise AssertionError(f"<{key}> of a Hermitian term has imaginary part {total.imag}")
        out.append((key, total.real))
    return out


def terms_off_doubleprime(params, basis):
    """The keys of the terms of ``model.pairing_bond_terms`` that are not,
    bit for bit, H'' (``model.build_doubleprime_csr``) on the entries that
    flip the term's site pair, divided by the number of terms on that pair.
    An entry (k, l) flips {x, y} when the XOR of the fermion indices of k
    and l has the bits of modes (x, s) and (y, s) set, for s up or down."""
    H = model.build_doubleprime_csr(params, basis).tocoo()
    flip = (H.row // basis.boson_dim) ^ (H.col // basis.boson_dim)
    terms = list(model.pairing_bond_terms(params, basis))
    count = Counter(frozenset(key[:2]) for key, _ in terms)
    off = []
    for key, term in terms:
        bit = {(x, s): 1 << (basis.n_modes - 1 - basis.mode_index(x, s))
               for x in key[:2] for s in ("up", "down")}
        on = np.isin(flip, [bit[key[0], s] | bit[key[1], s] for s in ("up", "down")])
        got = term.tocoo()
        if not (np.array_equal(got.row, H.row[on]) and np.array_equal(got.col, H.col[on])
                and np.array_equal(got.data, H.data[on] / count[frozenset(key[:2])])):
            off.append(key)
    return off


def quadratic_forms(spec, basis):
    """(G, B, C) of ``thermo._build_quadratic_forms`` with every block's charge
    products and Duhamel kernel held whole, and C read off its Gibbs block,
    summed over the engine's orbit representatives with their weights
    (``thermo._component_orbits``), so that the two sums take one order."""
    qd = model.charge_diagonals(basis)
    centred = (qd - qd.mean(axis=0))[:, np.arange(spec.dim) // basis.boson_dim]
    rho = spec.rho_diag()
    G = (centred * rho) @ centred.T
    B, C = np.zeros((2,) + G.shape)
    stag = basis.lattice.staggered_signs
    lone = np.bincount(spec._block_of)[spec._block_of] == 1
    keys, h_all, ends = spec._entries
    gibbs = gibbs_blocks(spec)
    for c, weight in zip(*thermo._component_orbits(spec, basis)):
        (idx, w, q), wt = spec._eig[c], spec._weights[c]
        if len(idx) == 1:
            continue
        p, coef = _charge_products(q, qd[:, idx // basis.boson_dim], stag)
        kern = thermo._duhamel_kernel(spec.beta, w - spec.e0, w - spec.e0)
        p *= np.sqrt(kern, out=kern)
        d = np.vstack([np.diagonal(p, 0, 1, 2).real, np.sqrt(wt)])
        p = p.reshape(len(p), len(idx) ** 2)
        gram = d @ d.T
        gram[:-1, :-1] += 2.0 * (((p.conj() @ p.T).real if np.iscomplexobj(p) else p @ p.T)
                                 - gram[:-1, :-1])
        B += weight * (coef @ gram @ coef.T)
        s = slice(ends[c], ends[c + 1])
        (k, l), h_kl = np.divmod(keys[s] - spec._stream.offset[c], len(idx)), h_all[s]
        r = gibbs[c].take(k * len(idx) + l)
        nested = -(r.conj() * h_kl).real if np.iscomplexobj(r) else r * -h_kl.real
        cb = centred[:, idx]
        d = cb.take(k, axis=1) - cb.take(l, axis=1)
        C += weight * ((d * nested) @ d.T)
    B = B / spec.z_shifted + (centred[:, lone] * rho[lone]) @ centred[:, lone].T
    lower = np.tril_indices(len(qd), -1)
    for M in (G, B, C):
        M[lower] = M.T[lower]
    return G, B, C


def _charge_products(q, qb, stag):
    """(p, coef), M_x = sum_j coef[x, j] p[j] + coef[x, -1] I, with each
    p[j] = q^H diag(q_j - q_0) q held whole in its lower triangle."""
    n_sites, n = qb.shape
    diff = qb[1:] - qb[0]
    coef = np.zeros((n_sites, n_sites))
    coef[1:, :-1] = np.eye(n_sites - 1)
    charge = stag @ qb
    if n_sites > 1 and stag.sum() == 0 and charge.min() == charge.max():
        diff = diff[:-1]
        coef[-1] = np.r_[-stag[-1] * stag[1:-1], 0.0, stag[-1] * charge[0]]
    coef = (coef - coef.mean(axis=0))[:, np.r_[:len(diff), -1]]
    update = blas.zherk if np.iscomplexobj(q) else blas.dsyrk
    p = np.zeros((len(diff), n, n), dtype=q.dtype)
    for j, dj in enumerate(diff):
        for v in np.unique(dj[dj != 0]):
            update(v, q[dj == v].T, beta=1.0, c=p[j].T, overwrite_c=1)
    return p, coef


# -- a symmetry of H in the gauge, by whole sparse matrices -------------------------------


def symmetry_change(H, labels, phase, O):
    """(to, dev), the reference of ``sectors._invariance``: G = conj(d) H d on
    H's nonzero entries (its real part where no component carries flux), as a
    CSR array, and dev the largest entry of the sparse O G O^T - G; ``to`` the
    component O maps each component onto, None unless every component maps
    onto one of its size."""
    h = coo_array(H)
    g = phase[h.row].conj() * h.data
    g *= phase[h.col]
    if np.all(np.abs(g.imag) <= 1e-12 * np.max(np.abs(h.data))):
        g = g.real
    G = csr_array((g, (h.row, h.col)), shape=H.shape)
    dev = float(np.max(np.abs((O.conjugate(G) - G).data), initial=0.0))
    sizes = np.bincount(labels)
    to = np.array([labels[O.perm[np.flatnonzero(labels == c)]] for c in range(len(sizes))],
                  dtype=object)
    if not all(len(set(t)) == 1 and sizes[t[0]] == sizes[c] for c, t in enumerate(to)):
        return None, dev
    return np.array([t[0] for t in to]), dev


# -- the Lang-Firsov unitary and its diagnostic, on the full space ------------------------


def lang_firsov(params, basis):
    """exp(-i pi N_p / 2) exp(L) as a dense matrix, L = -i omega^(-3/2) g sum_x q_x pi_x,
    with the whole generator exponentiated by dense eigendecomposition."""
    gen = sum(embed_fermion(basis, charge(basis, x))
              @ embed_boson(basis, basis.boson(x, "momentum", omega=params.omega))
              for x in basis.sites)
    c = params.omega ** (-1.5) * params.g
    return np.conj(phonon_gauge(basis))[:, None] * expm_i_hermitian(-c * gen)


def lang_firsov_diagnostic(params, basis, rtol=1e-6):
    """The dict of ``model.lang_firsov_diagnostic``, with U of :func:`lang_firsov`
    and every operator, fit window and phase trial a dense full-space matrix."""
    from scipy.optimize import minimize_scalar

    U = lang_firsov(params, basis)
    Ui = U.conj().T
    x = basis.sites[0]

    b_full = embed_boson(basis, basis.boson(x, "annihilate"))
    q_full = embed_fermion(basis, charge(basis, x))
    target = U @ b_full @ Ui

    low = max(1, basis.n_max // 2)
    mask = np.tile(np.all(model._phonon_digits(basis) <= low, axis=1), basis.fermion_dim)
    window = np.ix_(mask, mask)

    def tr(a, b):
        return complex(np.vdot(a[window], b[window]))

    gram = np.array([[tr(b_full, b_full), tr(b_full, q_full)],
                     [tr(q_full, b_full), tr(q_full, q_full)]])
    rhs = np.array([tr(b_full, target), tr(q_full, target)])
    zeta, minus_d = np.linalg.solve(gram, rhs)
    d = -minus_d
    resid = (target - zeta * b_full + d * q_full)[window]
    disp_residual = float(np.linalg.norm(resid) / max(np.linalg.norm(target[window]), 1e-300))

    c_full = embed_fermion(basis, c(basis, x, "up"))
    cd_full = embed_fermion(basis, cdag(basis, x, "up"))
    conj_c = U @ c_full @ Ui
    phase_op = conj_c @ cd_full + cd_full @ conj_c
    w, q = np.linalg.eigh(basis.boson(x, "position", omega=params.omega))

    def mismatch_norm(a):
        phase = (q * np.exp(1j * a * w)) @ q.conj().T
        return float(np.linalg.norm(phase_op - embed_boson(basis, phase)))

    scale = max(abs(params.alpha), abs(params.g) / np.sqrt(params.omega), 1e-3)
    res = minimize_scalar(mismatch_norm, bounds=(-8 * scale, 8 * scale), method="bounded",
                          options={"xatol": 1e-12})
    alpha_hat = float(res.x)
    phase_residual = float(res.fun) / max(float(np.linalg.norm(phase_op)), 1e-300)

    u_eff_measured = model._single_site_charge_gap(params)
    displayed_d = params.g / params.omega
    return {
        "zeta": complex(zeta),
        "displacement": complex(d),
        "displacement_residual": disp_residual,
        "displayed_displacement": displayed_d,
        "alpha_hat": alpha_hat,
        "phase_residual": phase_residual,
        "displayed_alpha": float(params.alpha),
        "u_eff_measured": u_eff_measured,
        "displayed_u_eff": float(params.u_eff),
        "mismatch_displacement": not (abs(zeta - 1.0) <= rtol and
                                      abs(d - displayed_d) <= rtol * max(1.0, abs(displayed_d))),
        "mismatch_alpha": not abs(alpha_hat - params.alpha) <= rtol * max(1.0, abs(params.alpha)),
        "mismatch_u_eff": not abs(u_eff_measured - params.u_eff) <= 1e-3 * max(1.0, abs(params.u_eff)),
    }
