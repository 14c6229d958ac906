"""Hamiltonians of the extended Holstein-Hubbard model and its unitary images.

Three Hamiltonians live here, each assembled directly from its defining
formula (conjugation by the explicit unitaries is a cross-check, never the
definition).  All three go through the same few term helpers: a bond term
-t (fermion (x) boson + h.c.) gives the entries of its Kronecker factors, the
fermion factor a partial signed permutation read off the basis by bit
arithmetic and the boson factor a small dense matrix, the phase a Kronecker
product of one-site factors exp(-i alpha phi); the e-ph coupling gives one
boson block per fermion state, and the charge and phonon terms are diagonal
vectors.  One assembly, ``_sparse_sum``, sums the entries into a CSR array,
so no full-space Kronecker product, no dense fermion_dim x fermion_dim
product and no dense full-space matrix is formed.  ``build_original_csr``,
``build_doubleprime_csr`` and ``hamiltonian_set`` return CSR arrays
(``build_doubleprime`` densifies H''):

* H  = T + P + I + K: hopping, on-site U and nearest-neighbor V charge
  repulsion, linear electron-phonon coupling g, dispersionless phonons omega.
* H' = T' + P' + K: hopping dressed with phonon phase factors
  exp(-i alpha (phi_x - phi_y)), alpha = sqrt(2) omega^-3/2 g, and U
  replaced by u_eff = U - 2 g^2 / omega.
* H'' = T'' + P'' + K: the zigzag image of H', with hopping turned into
  same-spin pairing on even-site bonds and the V term sign-flipped.
  ``field_diagonal_correction`` gives the external field h that the
  Gaussian-domination argument differentiates through:
  P''(h) = (u_eff - nu V) sum_x q_x^2 + (V/2) sum_bonds (q_x - h_x - q_y + h_y)^2,
  so H''(0) = H'' entrywise and h enters only through differences.

Charge operators q_x commute with every transformation generator used here,
which is what makes the zigzag sign relation for charge correlations an
exact finite-dimensional identity (see hhlab.thermo.charge_correlation).
These unitaries (zigzag, hole-particle, spin flip, spin swap, mode
permutations) are signed permutations: their builders return a
:class:`hhlab.hilbert.Monomial` made by bit arithmetic, applied by
re-indexing (``V.conjugate(H)``).  ``lang_firsov`` is a CSR array holding
one Kronecker product of one-site factors per fermion state.

The displayed Lang-Firsov constants are treated as data to be measured, not
assumed: ``lang_firsov_diagnostic`` extracts the displacement and phase
constants actually generated by the unitary and flags disagreements with
the displayed alpha, g/omega and u_eff values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from ._lazy import LazyModule
from .hilbert import Monomial, adjoint, hermiticity_residual, site_boson

__all__ = [
    "ModelParams",
    "HamiltonianSet",
    "build_original_csr",
    "build_doubleprime",
    "build_doubleprime_csr",
    "field_diagonal_correction",
    "hamiltonian_set",
    "lang_firsov",
    "build_zigzag",
    "zigzag_fermion",
    "zigzag_spin_operators",
    "build_hole_particle",
    "hole_particle_fermion",
    "build_spin_flip",
    "spin_swap",
    "particle_hole_translation",
    "particle_hole_symmetry",
    "build_a_operators",
    "fermion_mode_permutation",
    "lang_firsov_diagnostic",
]

sparse = LazyModule("scipy.sparse")


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings, inverse temperature and phonon truncation.

    All six couplings must be finite; t, U, V, omega must be positive; g is
    any real; beta >= 0.
    """

    t: float
    U: float
    V: float
    g: float
    omega: float
    beta: float
    n_max: int = 2

    def __post_init__(self):
        for name in ("t", "U", "V", "g", "omega", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t <= 0:
            raise ValueError(f"t must be > 0, got {self.t}")
        if self.U <= 0:
            raise ValueError(f"U must be > 0, got {self.U}")
        if self.V <= 0:
            raise ValueError(f"V must be > 0, got {self.V}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def alpha(self):
        """Hopping phase constant alpha = sqrt(2) omega^(-3/2) g."""
        return np.sqrt(2.0) * self.omega ** (-1.5) * self.g

    @property
    def u_eff(self):
        """Effective on-site interaction u_eff = U - 2 g^2 / omega."""
        return self.U - 2.0 * self.g ** 2 / self.omega


@dataclass
class HamiltonianSet:
    """H, H' and H'' on a common basis as CSR arrays, with the Hermiticity
    residual of each (``hermiticity_residual`` of the matrix, keyed "H",
    "H1", "H2")."""

    H: sparse.csr_array
    H1: sparse.csr_array
    H2: sparse.csr_array
    residuals: dict


def _require_lattice(basis):
    if basis.lattice is None:
        raise ValueError("this builder needs a basis constructed from a lattice")
    return basis.lattice


def _position_modes(params, n_max):
    """The eigendecomposition (w, v) of the one-site position operator phi."""
    return np.linalg.eigh(site_boson(n_max, "position", omega=params.omega))


def _site_phase(params, n_max):
    """u = exp(-i alpha phi) on one site, set exactly symmetric, real on entries of
    even m + n and imaginary on odd m + n, as phi is real, symmetric and parity-odd."""
    w, v = _position_modes(params, n_max)
    u = (v * np.exp(-1j * params.alpha * w)) @ v.conj().T
    u = (u + u.T) / 2
    return np.where(np.add.outer(*[np.arange(n_max + 1)] * 2) % 2, 1j * u.imag, u.real)


def _hop_phase(basis, params, x, y=None):
    """exp(-i alpha (phi_x - phi_y)) on the boson factor (exp(-i alpha phi_x) without
    y): u (:func:`_site_phase`) on x (x) its conjugate on y (x) the identity elsewhere."""
    mats = [np.eye(basis.n_max + 1)] * basis.n_sites
    mats[basis.site_index[x]] = u = _site_phase(params, basis.n_max)
    if y is not None:
        mats[basis.site_index[y]] = u.conj()
    return reduce(np.kron, mats)


# -- term helpers: every Hamiltonian is a composition of these ----------------------


def _hopping_instances(lat):
    """(x, y) for every directed bond x -> y = x + delta_j."""
    return [(lat.sites[b.i], lat.sites[b.j]) for b in lat.bonds()]


def _pairing_instances(lat):
    """(x, y, j, eps) for every even site x and partner y = x + eps delta_j."""
    return [(x, lat.shift(x, j, eps), j, eps)
            for x in lat.even_sites for j in range(1, lat.nu + 1) for eps in (+1, -1)]


def _fermion_pair(basis, a, b, pairing):
    """c*_a c_b, or c*_a c*_b if ``pairing``, on the fermion factor as a
    partial signed permutation (rows, cols, signs), rows ascending: the
    nonzero entries of the dense product in the order np.nonzero gives.

    Read off :meth:`HilbertBasis.mode_tables` by bit arithmetic, one factor
    at a time: c_b (c*_b) takes each state j with n_b = 1 (0) to j ^ bit_b
    with the Jordan-Wigner sign of b at j, and c*_a takes it on only where
    n_a = 0, with its own sign there.  Signs are +-1.0.
    """
    occ, strings = basis.mode_tables()
    bit_a, bit_b = 1 << (basis.n_modes - 1 - a), 1 << (basis.n_modes - 1 - b)
    cols = np.flatnonzero(occ[b] == (0 if pairing else 1))
    mid = cols ^ bit_b
    keep = occ[a, mid] == 0
    cols, mid = cols[keep], mid[keep]
    rows = mid ^ bit_a
    order = np.argsort(rows)
    return rows[order], cols[order], (strings[b, cols] * strings[a, mid])[order]


def _bond_factors(basis, instances, pairing, params=None):
    """The Kronecker factors of the bond term of each (x, y, ...) instance.

    Yields (instance, fermions, boson): ``fermions`` holds the fermion factor
    for s = up, down, c*_{x s} c*_{y s} if ``pairing`` and c*_{x s} c_{y s}
    otherwise, each as the (rows, cols, signs) of :func:`_fermion_pair`, so
    no fermion_dim x fermion_dim matrix is formed; ``boson`` is the phase of
    :func:`_hop_phase` with the alpha of ``params``, a Kronecker product of
    one-site factors, or the identity when no params are given (the bare
    hopping of H).  The term is -t sum_s (fermion (x) boson + h.c.).  Works
    on any basis holding both sites, half-space bases included.
    """
    eye = np.eye(basis.boson_dim)
    for inst in instances:
        x, y = inst[0], inst[1]
        boson = eye if params is None else _hop_phase(basis, params, x, y)
        yield inst, [_fermion_pair(basis, basis.mode_index(x, s), basis.mode_index(y, s), pairing)
                     for s in ("up", "down")], boson


def _bond_entries(basis, coeff, fermions, boson):
    """The nonzero entries of coeff sum_s (fermion_s (x) boson + h.c.) as a list
    of flat (rows, cols, values): each spin's term, then its adjoint.

    Each fermion_s is a (rows, cols, signs) triple of :func:`_fermion_pair`
    and ``boson`` a dense matrix on the boson factor.
    """
    nb = basis.boson_dim
    br, bc = np.nonzero(boson)
    out = []
    for r, c, signs in fermions:
        values = (coeff * (signs[:, None] * boson[br, bc])).ravel()
        rows, cols = (r[:, None] * nb + br).ravel(), (c[:, None] * nb + bc).ravel()
        out += [(rows, cols, values), (cols, rows, values.conj())]
    return out


def _block_entries(basis, f, scale, boson):
    """The nonzero entries of sum_i scale[i] |f[i]><f[i]| (x) boson as one flat
    (rows, cols, values): one boson block on each fermion state f[i]."""
    nb = basis.boson_dim
    br, bc = np.nonzero(boson)
    return ((f[:, None] * nb + br).ravel(), (f[:, None] * nb + bc).ravel(),
            (scale[:, None] * boson[br, bc]).ravel())


def _charge_boson_entries(basis, charges, bosons, coeff=1.0):
    """The nonzero entries of coeff sum_x diag(charges[x]) (x) bosons[x], one
    flat (rows, cols, values) per x."""
    return [_block_entries(basis, f, coeff * q[f], boson)
            for q, boson in zip(charges, bosons) for f in [np.flatnonzero(q)]]


_NO_ENTRIES = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)


def _sparse_sum(basis, entries):
    """The sum of the entries [(rows, cols, values), ...] as a CSR array in
    the dtype of the values; no entries give an all-zero float64 array."""
    rows, cols, values = map(np.concatenate, zip(*entries, _NO_ENTRIES))
    return sparse.coo_array((values, (rows, cols)), shape=(basis.total_dim,) * 2).tocsr()


def _bond_sum(basis, coeff, factors):
    """The entries of coeff (fermion (x) boson + h.c.) over ``factors``, made
    term by term as they are consumed."""
    for _, fermions, boson in factors:
        yield from _bond_entries(basis, coeff, fermions, boson)


def _bond_csr(basis, coeff, factors):
    """coeff sum (fermion (x) boson + h.c.) over ``factors``, as a CSR array."""
    return _sparse_sum(basis, _bond_sum(basis, coeff, factors))


def _ladder_sums(basis):
    """b_x + b*_x on the boson factor, for every site."""
    return [basis.boson(x, "annihilate") + adjoint(basis.boson(x, "annihilate"))
            for x in basis.sites]


def _onsite_terms(lat, coeff):
    return [(coeff, s, s) for s in range(lat.n_sites)]


def _bond_terms(lat, coeff):
    return [(coeff, b.i, b.j) for b in lat.bonds()]


def _charge_products(charges, terms):
    """Diagonal of sum coeff c_i c_j over the (coeff, i, j) of ``terms``, added
    in that order, on the fermion factor; ``charges`` holds the c_x diagonals.

    The order fixes the rounding of the sum: H adds its bond terms first, H'
    and H'' their on-site terms first.
    """
    out = np.zeros(charges.shape[1])
    for coeff, i, j in terms:
        out += coeff * charges[i] * charges[j]
    return out


def _phonon_energy(basis, omega):
    """Diagonal of omega sum_x b*_x b_x on the boson factor."""
    out = np.zeros(basis.boson_dim)
    for x in basis.sites:
        out += omega * np.diag(basis.boson(x, "number")).real
    return out


def _diagonal(basis, fermion, boson):
    """fermion (x) 1 + 1 (x) boson, for diagonals given as vectors, as one
    flat (rows, cols, values) entry."""
    idx = np.arange(basis.total_dim)
    return idx, idx, np.repeat(fermion, basis.boson_dim) + np.tile(boson, basis.fermion_dim)


# -- Hamiltonian builders ---------------------------------------------------------


def _original(params, basis, charges):
    """T + P + I + K with ``charges`` as the diagonals of the q_x in P and I,
    as a CSR array.

    With charge_diagonals this is H; with spin_diagonals it is the
    hole-particle image u H u^-1 = T + K + U sum s^2 + V sum s s + g sum s (b + b*).
    """
    lat = _require_lattice(basis)
    p = _charge_products(charges, _bond_terms(lat, params.V) + _onsite_terms(lat, params.U))
    return _sparse_sum(basis, [
        *_bond_sum(basis, -params.t, _bond_factors(basis, _hopping_instances(lat), False)),
        *_charge_boson_entries(basis, charges, _ladder_sums(basis), params.g),
        _diagonal(basis, p, _phonon_energy(basis, params.omega))])


def build_original_csr(params, basis):
    """The extended Holstein-Hubbard Hamiltonian H = T + P + I + K, as a CSR array."""
    return _original(params, basis, charge_diagonals(basis))


def _dressed(params, basis, pairing):
    """The entries of -t sum (bond term (x) phase + h.c.), term by term, then
    the diagonal u_eff sum q^2 + v sum q q + K: H' with the hopping terms and
    v = V, H'' with the pairing terms if ``pairing`` and v = -V."""
    lat = _require_lattice(basis)
    instances = _pairing_instances(lat) if pairing else _hopping_instances(lat)
    yield from _bond_sum(basis, -params.t, _bond_factors(basis, instances, pairing, params))
    p = _charge_products(charge_diagonals(basis), _onsite_terms(lat, params.u_eff)
                         + _bond_terms(lat, -params.V if pairing else params.V))
    yield _diagonal(basis, p, _phonon_energy(basis, params.omega))


def build_doubleprime_csr(params, basis):
    """H'' = T'' + P'' + K from its defining formula, as a CSR array, with the
    zeros of its diagonal stored.

    T'' is summed from the Kronecker factors of its pairing terms; P'' and K
    are diagonal and added as vectors.
    """
    return _sparse_sum(basis, _dressed(params, basis, True))


def build_doubleprime(params, basis):
    """H'' of :func:`build_doubleprime_csr` as a dense matrix (a small-size oracle)."""
    return build_doubleprime_csr(params, basis).toarray()


def pairing_bond_terms(params, basis):
    """The pairing terms of T'': yields one (instance, term) pair per even
    site x, direction j and eps, with instance (x, y, j, eps) and
    y = x + eps delta_j.

    Each term is -t sum_s (c*_{x s} c*_{y s} (x) exp(-i alpha (phi_x - phi_y)) + h.c.),
    a scipy.sparse CSR array built as it is consumed.  Their sum is T''.
    For L = 1 the eps = +/- terms coincide pairwise (doubled wrap bonds,
    intended).
    """
    lat = _require_lattice(basis)
    for inst, fermions, boson in _bond_factors(basis, _pairing_instances(lat), True, params):
        yield inst, _sparse_sum(basis, _bond_entries(basis, -params.t, fermions, boson))


def _occupations(basis, spin):
    """Diagonal of every n_{x spin} on the fermion factor, shape (n_sites, fermion_dim)."""
    return basis.mode_tables()[0][[basis.mode_index(x, spin) for x in basis.sites]]


def charge_diagonals(basis):
    """Diagonal of every q_x on the fermion factor, shape (n_sites, fermion_dim)."""
    return (_occupations(basis, "up") + _occupations(basis, "down") - 1).astype(float)


def spin_diagonals(basis):
    """Diagonal of every s_x on the fermion factor, shape (n_sites, fermion_dim)."""
    return (_occupations(basis, "up") - _occupations(basis, "down")).astype(float)


def _site_vector(h, n_sites, dtype=float):
    """h as a vector of ``dtype``, refused with ValueError unless its shape is (n_sites,)."""
    h = np.asarray(h, dtype=dtype)
    if h.shape != (n_sites,):
        raise ValueError(f"h must have shape (n_sites,) = ({n_sites},), got {h.shape}")
    return h


def _site_field(h, n_sites, dtype=float):
    """h as a vector of ``dtype``, refused with ValueError unless its shape is
    (n_sites,) and every entry is finite."""
    h = _site_vector(h, n_sites, dtype)
    if not np.all(np.isfinite(h)):
        raise ValueError(f"h must be finite, got h = {h}")
    return h


def field_diagonal_correction(params, basis, h):
    """Diagonal vector d(h) on the fermion factor with H''(h) = H'' + d(h).

    Expanding P''(h) - P''(0) = -V sum_bonds (q_x - q_y)(h_x - h_y)
    + (V/2) sum_bonds (h_x - h_y)^2; both pieces are diagonal in the
    occupancy basis because the q_x are.  An h whose shape is not
    (n_sites,), an h with an entry that is not finite, and an h whose
    correction overflows are refused with ValueError.
    """
    lat = _require_lattice(basis)
    h = _site_field(h, basis.n_sites)
    q = charge_diagonals(basis)
    diag = np.zeros(basis.fermion_dim)
    const = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in lat.bonds():
            dh = h[b.i] - h[b.j]
            diag += -params.V * (q[b.i] - q[b.j]) * dh
            const += 0.5 * params.V * dh * dh
        out = diag + const
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the field correction of h = {h} is not finite")
    return out


def hamiltonian_set(params, basis):
    """All three Hamiltonians as CSR arrays, each checked Hermitian."""
    mats = {"H": build_original_csr(params, basis),
            "H1": _sparse_sum(basis, _dressed(params, basis, False)),
            "H2": build_doubleprime_csr(params, basis)}
    residuals = {}
    for name, m in mats.items():
        res = residuals[name] = hermiticity_residual(m)
        if res > 1e-12 * max(1.0, float(abs(m).max())):
            raise AssertionError(f"{name} fails Hermiticity: residual {res}")
    return HamiltonianSet(**mats, residuals=residuals)


# -- unitary transformations -------------------------------------------------------


_I_POWERS = np.array([1, 1j, -1, -1j])


def _lang_firsov_factors(params, n_max):
    """u(q) = conj(i^n) exp(-i c q pi) for q = -1, 0, 1, stacked in that order:
    the factor of the Lang-Firsov unitary on a site of charge q, with
    c = omega^(-3/2) g and pi the one-site momentum."""
    pi = site_boson(n_max, "momentum", omega=params.omega)
    c = params.omega ** (-1.5) * params.g
    rot = np.conj(_I_POWERS[np.arange(n_max + 1) % 4])
    modes = [np.linalg.eigh(-c * q * pi) for q in (-1, 0, 1)]
    return np.stack([rot[:, None] * ((v * np.exp(1j * w)) @ v.conj().T) for w, v in modes])


def lang_firsov(params, basis):
    """The Lang-Firsov unitary exp(-i pi N_p / 2) exp(L) on the full space, as
    a CSR array,

    with L = -i omega^(-3/2) g sum_x q_x pi_x (anti-Hermitian, so exp(L) is
    exactly unitary at any truncation).  L is diagonal in the fermion state f,
    so the block of f is (x)_x u(q_x(f)) (:func:`_lang_firsov_factors`).
    """
    u = _lang_firsov_factors(params, basis.n_max)
    patterns, pattern_of = np.unique(charge_diagonals(basis).astype(int) + 1, axis=1,
                                     return_inverse=True)
    return _sparse_sum(basis, [
        _block_entries(basis, f, np.ones(len(f)), reduce(np.kron, u[pattern]))
        for k, pattern in enumerate(patterns.T) for f in [np.flatnonzero(pattern_of == k)]])


def _phonon_digits(basis):
    """Per-site phonon occupations (base-(n_max + 1) digits, last site first), per boson index."""
    d = basis.n_max + 1
    return np.arange(basis.boson_dim)[:, None] // d ** np.arange(basis.n_sites) % d


def _parity_sign(counts):
    return 1.0 - 2.0 * (counts % 2)


def _on_phonons(basis, sign=None):
    """The diagonal monomial ``sign`` on the boson factor (the identity by default)."""
    return Monomial(np.arange(basis.boson_dim),
                    np.ones(basis.boson_dim) if sign is None else sign)


def _mode_flip(basis, x, spin):
    """v_{x s} = [prod over all other modes of (-1)^n] (c*_{x s} + c_{x s}), its own inverse.

    With the string over every other mode, v c_Y v^-1 = c_Y exactly for every
    other mode Y (a same-spin string would add a global sign per factor).
    """
    m = basis.mode_index(x, spin)
    occ = basis.mode_tables()[0]
    jw, string = occ[:m].sum(axis=0), occ.sum(axis=0) - occ[m]
    return Monomial(np.arange(basis.fermion_dim) ^ (1 << (basis.n_modes - 1 - m)),
                    _parity_sign(jw + string))


def zigzag_fermion(basis):
    """Zigzag unitary on the fermion factor: product of v_{x up} v_{x down}
    over odd sites, in lattice site order.  Conjugation sends c_{x s} to
    c*_{x s} on the odd sublattice and leaves the even sublattice alone,
    hence q_x -> (-1)^|x| q_x.
    """
    lat = _require_lattice(basis)
    return reduce(Monomial.compose, [_mode_flip(basis, x, spin)
                                     for x in lat.odd_sites for spin in ("up", "down")])


def zigzag_spin_operators(basis):
    """S'+ = V S+ V^-1 and the diagonal of 2 S'z = V 2 S^z V^-1 on the fermion
    factor, with V the zigzag unitary of :func:`zigzag_fermion`.

    S+ = sum_x c*_{x up} c_{x down} moves a down fermion at x to the empty up
    mode of x.  Both Jordan-Wigner strings then run over the same occupied
    modes, so every entry is +1.  S+ keeps each n_x, and V maps each n_x to
    itself or to 2 - n_x, so S'+ keeps every site occupation as well.  S'+ is
    returned as a scipy.sparse CSR array with entries +-1.  2 S'z is an integer
    vector, and S'+ raises it by 2.
    """
    occ = basis.mode_tables()[0]
    site, f = np.nonzero((occ[0::2] == 0) & (occ[1::2] == 1))
    bit = 1 << (basis.n_modes - 1 - np.arange(basis.n_modes))
    raised = f + bit[2 * site] - bit[2 * site + 1]
    V = zigzag_fermion(basis)
    raising = sparse.csr_array((V.sign[raised] * V.sign[f], (V.perm[raised], V.perm[f])),
                               shape=(basis.fermion_dim, basis.fermion_dim))
    return raising, V.conjugate((occ[0::2] - occ[1::2]).sum(axis=0))


def build_zigzag(basis):
    """Zigzag unitary on the full space (acts as identity on phonons)."""
    return zigzag_fermion(basis).kron(_on_phonons(basis))


def fermion_mode_permutation(basis, perm):
    """Second-quantized unitary of a mode permutation: c*_m -> c*_{perm[m]}.

    Each occupied bitstring is re-created with the permuted modes; the sign
    is the parity of the inversions of ``perm`` among the occupied modes.
    """
    M = basis.n_modes
    p = np.array([perm[m] for m in range(M)])
    occ = basis.mode_tables()[0]
    crossed = np.triu(p[:, None] > p[None, :], 1).astype(int)  # a < b with perm[a] > perm[b]
    inversions = np.sum(occ * (crossed @ occ), axis=0)
    return Monomial(np.sum(occ << (M - 1 - p)[:, None], axis=0), _parity_sign(inversions))


def hole_particle_fermion(basis):
    """Hole-particle unitary u on the fermion factor:

    u c_{x up} u^-1 = c_{x up} and u c_{x down} u^-1 = (-1)^|x| c*_{x down},
    hence u q_x u^-1 = s_x.  Built as the product of single-mode
    particle-hole factors on the down modes followed by a phase twist
    (-1)^{n_{x down}} on odd sites.
    """
    lat = _require_lattice(basis)
    flips = reduce(Monomial.compose, [_mode_flip(basis, x, "down") for x in lat.sites])
    odd = [lat.site_index[x] for x in lat.odd_sites]
    twist = _parity_sign(_occupations(basis, "down")[odd].sum(axis=0))
    return Monomial(np.arange(basis.fermion_dim), twist).compose(flips)


def build_hole_particle(basis):
    """Hole-particle unitary on the full space (identity on phonons)."""
    return hole_particle_fermion(basis).kron(_on_phonons(basis))


def _spin_swap(basis):
    """The fermion factor of c_{x up} <-> c_{x down}: mode 2s + 1 is the down partner of 2s."""
    return fermion_mode_permutation(basis, np.arange(basis.n_modes) ^ 1)


def build_spin_flip(basis):
    """Spin-swap (x) phonon-parity unitary D:

    D c_{x up} D^-1 = c_{x down}, D c_{x down} D^-1 = c_{x up},
    D b_x D^-1 = -b_x.
    """
    parity = _parity_sign(_phonon_digits(basis).sum(axis=1))
    return _spin_swap(basis).kron(_on_phonons(basis, parity))


def spin_swap(basis):
    """The global spin swap c_{x up} <-> c_{x down} (phonons untouched) as a
    signed permutation S of the full space.

    (S A S^T)[perm[i], perm[j]] = sign[i] sign[j] A[i, j].  S is an
    involution: perm[perm] is the identity and sign[perm] = sign.  Every q_x
    is invariant under it, so it commutes with the field term.
    """
    return _spin_swap(basis).kron(_on_phonons(basis))


def _even_translations(lat):
    """The site permutation x -> x + a of every translation a of the torus
    with sum_j a_j even (it keeps the sublattices), a = 0 first."""
    for a in product(range(2 * lat.ell), repeat=lat.nu):
        if sum(a) % 2 == 0:
            yield np.array([lat.site_index[lat.wrap(tuple(c + s for c, s in zip(x, a)))]
                            for x in lat.sites])


def _translation_residual(lat, sites):
    """(N I - sigma sigma^T)(I + P)(-Delta) in integers, for the translation P
    sending site x to sites[x] and sigma the staggered signs: zero iff, for
    every field, q -> -P q maps the field term onto itself plus a multiple
    of the staggered charge sum_x sigma_x q_x."""
    n = lat.n_sites
    lap = lat.laplacian_matrix().astype(np.int64)
    sigma = lat.staggered_signs.astype(np.int64)
    shift = np.zeros((n, n), dtype=np.int64)
    shift[sites, np.arange(n)] = 1
    eye = np.eye(n, dtype=np.int64)
    return (n * eye - np.outer(sigma, sigma)) @ (eye + shift) @ lap


def particle_hole_translation(lat):
    """The sites x + a of the first even translation a whose residual
    (:func:`_translation_residual`) vanishes, or None if none does.

    It exists on the two-site ring (a = 0) and on the 2x2 torus
    (a = (1, 1)); on the 2x2x2 torus every even translation leaves a
    residual.  Only with it does :func:`particle_hole_symmetry` relate
    H''(h) to itself at every field h.
    """
    for sites in _even_translations(lat):
        if not np.any(_translation_residual(lat, sites)):
            return sites
    return None


def particle_hole_symmetry(basis, sites):
    """Pi = S T C as a signed permutation of the full space, for the
    translation x -> sites[x] of :func:`particle_hole_translation`.

    C is particle-hole on every mode (``_mode_flip``), twisted by (-1)^n on
    the odd sites for both spins, times phonon parity, so C q_x C^-1 = -q_x
    and C b_x C^-1 = -b_x; T is the translation of the fermion modes
    (``fermion_mode_permutation``) and of the phonon digits; S is the spin
    swap.  Pi is an involution that commutes with H'' and with the mirror of
    the reflection Theta, and sends S'+ to -S'+.  It maps q_x to -q_{x+a}:
    the staggered charge Q_st = sum_x sigma_x q_x to -Q_st, and the field
    term of H''(h) to itself plus a multiple of Q_st.
    """
    lat = _require_lattice(basis)
    occ = basis.mode_tables()[0]
    flips = reduce(Monomial.compose, [_mode_flip(basis, x, s) for x in basis.sites
                                      for s in ("up", "down")])
    odd = [2 * lat.site_index[x] + s for x in lat.odd_sites for s in (0, 1)]
    twist = Monomial(np.arange(basis.fermion_dim), _parity_sign(occ[odd].sum(axis=0)))
    modes = (2 * np.asarray(sites)[:, None] + np.arange(2)).ravel()
    fermion = _spin_swap(basis).compose(fermion_mode_permutation(basis, modes)).compose(
        twist.compose(flips))
    n = basis.n_sites
    digits = _phonon_digits(basis)[:, ::-1]                   # site order
    boson = Monomial((digits * (basis.n_max + 1) ** (n - 1 - np.asarray(sites))).sum(axis=1),
                     _parity_sign(digits.sum(axis=1)))
    return fermion.kron(boson)


def build_a_operators(basis):
    """Left-half annihilators a_{x s} = c_{x s} (-1)^{N_L}, fermion factor.

    N_L counts fermions on sites with x_1 < 0 (for a half-space basis that
    is every site).  Returns {(site, spin): CSR array}; the a's satisfy the
    canonical anticommutation relations exactly.
    """
    left = [x for x in basis.sites if x[0] < 0]
    par = basis.fermion_parity(left)
    out = {}
    for x in left:
        for s in ("up", "down"):
            a = out[(x, s)] = basis.c(x, s)
            a.data *= par[a.indices]  # c diag(par): column j times par[j]
    return out


# -- Lang-Firsov constant diagnostics ----------------------------------------------


def lang_firsov_diagnostic(params, rtol=1e-6):
    """Measure the conjugation constants that the Lang-Firsov unitary
    actually generates, and compare with the displayed values.

    Returns a dict with the fitted coefficients of
    U b_x U^-1 = zeta * b_x - d * q_x  (least squares over {b, q}),
    the fitted alpha_hat minimizing || {U c U^-1, c*} - exp(i a phi_x) ||_F,
    the single-site polaron-shifted charge gap as a measured u_eff, and
    boolean mismatch flags against the displayed (1, g/omega, alpha, u_eff).
    On fermion state f, with q = q_x(f), U b_x U^-1 is u(q) b u(q)^H on site x
    and {U c_x U^-1, c*_x} is u(q) u(q + 1)^H if mode (x, up) is empty and
    u(q - 1) u(q)^H if filled (:func:`_lang_firsov_factors`), so each trace
    and norm is a sum over the charges of site x of one-site terms, the same
    on every site.  Refused with ValueError unless params.n_max >= 2, so that
    the fit window stays below the top rung.
    """
    if params.n_max < 2:
        raise ValueError(f"the Lang-Firsov diagnostic needs n_max >= 2, got {params.n_max}")
    from scipy.optimize import minimize_scalar

    u = _lang_firsov_factors(params, params.n_max)
    uh = u.conj().transpose(0, 2, 1)

    # fit away from the truncation boundary: the top phonon rungs carry O(1)
    # Frobenius-weight artifacts (and by trace cyclicity a global fit cannot
    # see the q term at all), so restrict to low occupations on every site.
    # q_x = -1, 0, 1 on 1, 2 and 1 of the four occupations of site x; each
    # class is weighted by the root of its count, and factors common to every
    # class (the other sites and modes) cancel
    k = params.n_max // 2 + 1
    root_count = np.sqrt([1.0, 2.0, 1.0])[:, None, None]
    b = site_boson(params.n_max, "annihilate")
    b_cls = root_count * b[:k, :k]
    q_cls = root_count * np.array([-1.0, 0.0, 1.0])[:, None, None] * np.eye(k)
    target = root_count * (u @ b @ uh)[:, :k, :k]

    def tr(a, c):
        return complex(np.vdot(a, c))

    gram = np.array([[tr(b_cls, b_cls), tr(b_cls, q_cls)],
                     [tr(q_cls, b_cls), tr(q_cls, q_cls)]])
    rhs = np.array([tr(b_cls, target), tr(q_cls, target)])
    zeta, minus_d = np.linalg.solve(gram, rhs)
    d = -minus_d
    resid = target - zeta * b_cls + d * q_cls
    disp_residual = float(np.linalg.norm(resid) / max(np.linalg.norm(target), 1e-300))

    # u(q) u(q + 1)^H for q = -1 and 0, each on half of the fermion states;
    # phi is eigendecomposed as for the bond phase, so a trial a costs one product
    phase_op = u[:-1] @ uh[1:]
    w, v = _position_modes(params, params.n_max)

    def mismatch_norm(a):
        return float(np.linalg.norm(phase_op - (v * np.exp(1j * a * w)) @ v.conj().T))

    scale = max(abs(params.alpha), abs(params.g) / np.sqrt(params.omega), 1e-3)
    res = minimize_scalar(mismatch_norm, bounds=(-8 * scale, 8 * scale), method="bounded",
                          options={"xatol": 1e-12})
    alpha_hat = float(res.x)
    phase_residual = float(res.fun) / max(float(np.linalg.norm(phase_op)), 1e-300)

    u_eff_measured = _single_site_charge_gap(params)

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


def _single_site_charge_gap(params):
    """Measured effective on-site repulsion: ground energy of the |q| = 1
    sector of the one-site problem U q^2 + g q (b + b*) + omega b* b,
    relative to the q = 0 sector.  Converges to U - g^2/omega as n_max grows.
    """
    b = site_boson(params.n_max, "annihilate").real
    k = params.omega * b.T @ b
    coup = params.g * (b + b.T)
    e_charged = np.linalg.eigvalsh(params.U * np.eye(params.n_max + 1) + coup + k)[0]
    e_neutral = np.linalg.eigvalsh(k)[0]
    return float(e_charged - e_neutral)
