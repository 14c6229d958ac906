"""Reflection-positivity machinery and exact verification of its identities.

The antiunitary reflection theta from the left half onto the right half
(:func:`build_theta`: on the phonons the site relabeling composed with
complex conjugation, so the momentum operator flips sign), the left/right
factorization of every Hamiltonian piece, and each inequality of the
reflection-positivity chain as a finite matrix statement: the
two-Hilbert-space (Dyson-Lieb-Simon) inequality with lambda >= 0 couplings,
fuzzed over random instances, the trace product, reflection positivity of Z
and Gaussian domination on Z(h) (:class:`FieldPartition`), the Duhamel and
double-commutator bounds b <= b0 and c <= c0, the Falk-Bruch bound and its
corollary, the free-energy chain for <q_o^2>, and the half-filling identity.

Every check returns a :class:`CheckResult` with the checked statement, the
two sides, a relative slack and a pass flag; suites return lists of them.
The stacked solvers of the DLS and convexity fuzz live in ``hhlab.fuzz``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import sectors as _sectors
from . import thermo as _thermo
from ._lazy import LazyModule
from .fuzz import (_WINDOW, _Buffers, _check_dls_inputs, _check_unitary, _convexity_slacks,
                   _dls_log_sides, _draw_dls, _hermitian_part, _random_bounded)
from .hilbert import HilbertBasis, Monomial

sparse = LazyModule("scipy.sparse")

__all__ = [
    "CheckResult",
    "AntiunitaryMap",
    "LRSplit",
    "build_lr_split",
    "build_theta",
    "theta_relations_check",
    "verify_lr_split",
    "DLSInstance",
    "dls_check",
    "dls_fuzz",
    "trace_product_check",
    "FieldPartition",
    "rp_reflection_check",
    "gaussian_domination_check",
    "infrared_chain_check",
    "falk_bruch_rhs",
    "half_filling_check",
    "convexity_lemma_check",
    "q2_lower_bound_check",
]


@dataclass
class CheckResult:
    """One verified statement: lhs (<=, or =) rhs with relative slack."""

    name: str
    statement: str
    lhs: float
    rhs: float
    slack: float
    passed: bool

    def to_record(self):
        return {
            "name": self.name,
            "statement": self.statement,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": bool(self.passed),
        }


def _ineq(name, statement, lhs, rhs, tol):
    """lhs <= rhs up to relative tolerance; slack is scale-free.

    The scale floor of 1 makes the comparison absolute for quantities that
    are both numerically zero (e.g. bounds whose two sides vanish
    identically on a small geometry)."""
    lhs, rhs = float(lhs), float(rhs)
    slack = (rhs - lhs) / max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, statement, lhs, rhs, slack, slack >= -tol)


def _eq(name, statement, lhs, rhs, tol, scale=None):
    scale = max(abs(lhs), abs(rhs), 1.0) if scale is None else scale
    slack = abs(lhs - rhs) / scale
    return CheckResult(name, statement, float(np.real_if_close(lhs)),
                       float(np.real_if_close(rhs)), float(slack), bool(slack <= tol))


def _matrix_eq(name, statement, A, B, tol):
    """A = B entrywise: two dense matrices, two scipy.sparse matrices or two
    diagonals given as 1-d vectors; a NaN entry fails the check."""
    a_max, b_max, diff = (abs(M).max() for M in (A, B, A - B))
    scale = max(float(a_max), float(b_max), 1.0)
    dev = float(diff) / scale
    return CheckResult(name, statement, dev, 0.0, dev, bool(dev <= tol))


# -- antiunitary maps ---------------------------------------------------------------


class AntiunitaryMap:
    """v -> W conj(v) with W unitary; composition-ready building block.

    Conjugation of a linear operator: theta A theta^-1 = W conj(A) W*.
    The inverse map is v -> W^T conj(v).
    """

    def __init__(self, W, check=True):
        W = np.asarray(W, dtype=complex)
        if check:
            _check_unitary(W)
        self.W = W

    def apply(self, v):
        return self.W @ np.conj(v)

    def inverse(self):
        return AntiunitaryMap(self.W.T, check=False)

    def conjugate(self, A):
        """theta A theta^-1 as a matrix (maps ops on the domain to the range)."""
        return self.W @ np.conj(A) @ self.W.conj().T

    def conjugate_back(self, A):
        """theta^-1 A theta."""
        return self.inverse().conjugate(A)


# -- left/right factorization --------------------------------------------------------


def _sparse_kron(X, Y):
    """X (x) Y as a CSR array, for dense or sparse X and Y."""
    return sparse.kron(sparse.csr_array(X), Y, format="csr")


@dataclass
class LRSplit:
    """Index bookkeeping for H = H_L (x) H_R and the two half bases; full-space
    operators are scipy.sparse matrices, or 1-d vectors for diagonals."""

    basis: HilbertBasis
    basis_L: HilbertBasis
    basis_R: HilbertBasis
    perm: np.ndarray  # LR-layout index -> full-layout index

    def to_lr(self, op):
        """Rewrite a full-space operator (a dense or sparse matrix, or a
        diagonal given as a 1-d vector) in the (H_L (x) H_R) index layout."""
        op = op[self.perm]
        return op if op.ndim == 1 else op[:, self.perm]

    def kron_l(self, op_l):
        """op_l (x) 1 as a CSR array, or as a 1-d vector for a diagonal given as one."""
        n = self.basis_R.total_dim
        return np.repeat(op_l, n) if op_l.ndim == 1 else _sparse_kron(op_l, sparse.eye_array(n))

    def kron_r(self, op_r):
        """1 (x) op_r as a CSR array, or as a 1-d vector for a diagonal given as one."""
        n = self.basis_L.total_dim
        return np.tile(op_r, n) if op_r.ndim == 1 else _sparse_kron(sparse.eye_array(n), op_r)


def build_lr_split(basis):
    """Factorize the full basis over the left (x_1 < 0) and right halves.

    Relies on the basis ordering invariants: fermion modes and phonon sites
    are site-major with all left sites first, so the reshuffle
    F_L F_R P_L P_R -> (F_L P_L)(F_R P_R) is pure index arithmetic.
    """
    lat = basis.lattice
    if lat is None:
        raise ValueError("lr split needs a lattice-backed basis")
    left, right = lat.left_sites, lat.right_sites
    if not left or not right:
        raise ValueError("lattice has an empty half")
    if basis.sites[: len(left)] != left:
        raise AssertionError("basis sites are not ordered left-before-right")
    bl = HilbertBasis(left, basis.n_max, lattice=None, cap=basis.fermion_dim * basis.boson_dim)
    br = HilbertBasis(right, basis.n_max, lattice=None, cap=basis.fermion_dim * basis.boson_dim)
    dfl, dfr, dpl, dpr = bl.fermion_dim, br.fermion_dim, bl.boson_dim, br.boson_dim
    ifl, ipl, ifr, ipr = np.meshgrid(
        np.arange(dfl), np.arange(dpl), np.arange(dfr), np.arange(dpr), indexing="ij")
    full = ((ifl * dfr + ifr) * (dpl * dpr)) + (ipl * dpr + ipr)
    lr = (ifl * dpl + ipl) * (dfr * dpr) + (ifr * dpr + ipr)
    perm = np.empty(basis.total_dim, dtype=np.intp)
    perm[lr.ravel()] = full.ravel()
    return LRSplit(basis=basis, basis_L=bl, basis_R=br, perm=perm)


def _theta_monomial(split):
    """theta's W as a signed permutation of the half spaces, W e_a = sign[a] e_perm[a].

    A left fermion state with modes l_1 < ... < l_k occupied is
    +-a*_{l_1} ... a*_{l_k} Omega_L, and theta sends it to the right state
    whose modes are the reflections of the l_i.  The sign is
    (-1)^(k(k+1)/2 + inversions): the (-1)^{N_L} of each a* gives
    (-1)^(k(k+1)/2), and the Jordan-Wigner reordering of the reflected modes
    gives the inversions that ``model.fermion_mode_permutation`` counts.
    The phonon factor relabels the digit of each site y by r(y).
    """
    lat, bl, br = split.basis.lattice, split.basis_L, split.basis_R
    modes = [br.mode_index(lat.reflect_inv(x), spin) for x, spin in bl.modes]
    fermions = _model.fermion_mode_permutation(bl, modes)
    k = bl.mode_tables()[0].sum(axis=0)
    fermions = Monomial(fermions.perm, fermions.sign * _model._parity_sign(k * (k + 1) // 2))
    d = bl.n_max + 1
    digits = _model._phonon_digits(bl)[:, ::-1]                 # (boson state, site)
    relabel = digits[:, [bl.site_index[lat.reflect(y)] for y in br.sites]]
    phonons = Monomial(relabel @ d ** np.arange(br.n_sites)[::-1], np.ones(bl.boson_dim))
    return fermions.kron(phonons)


def build_theta(basis_or_split):
    """The antiunitary reflection theta: H_L -> H_R, and the split it is taken on.

    Fermion part: the antilinear map sending the left CONS built from
    a*-strings over reflected modes to the right CONS built from c*-strings
    (both in canonical increasing-mode order; the definition is independent
    of the representative since both sides flip sign together under
    permutations).  Phonon part: site relabeling y -> r(y) composed with
    conjugation.  W is the signed permutation of :func:`_theta_monomial`,
    densified.
    """
    split = basis_or_split if isinstance(basis_or_split, LRSplit) else build_lr_split(basis_or_split)
    return AntiunitaryMap(_theta_monomial(split).to_dense()), split


def theta_relations_check(params, basis, tol=1e-10, seed=0):
    """All defining relations of theta as matrix identities, plus
    antiunitarity on random vector pairs and theta Omega_L = Omega_R."""
    theta, split = build_theta(basis)
    lat = basis.lattice
    bl, br = split.basis_L, split.basis_R
    a_ops = _model.build_a_operators(bl)
    out = []

    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(100):
        u = rng.standard_normal(bl.total_dim) + 1j * rng.standard_normal(bl.total_dim)
        v = rng.standard_normal(bl.total_dim) + 1j * rng.standard_normal(bl.total_dim)
        lhs = np.vdot(theta.apply(u), theta.apply(v))
        dev = max(dev, abs(lhs - np.conj(np.vdot(u, v))))
    out.append(CheckResult("theta_antiunitary", "<theta u|theta v> = conj(<u|v>)",
                           dev, 0.0, dev, dev <= 1e-12))

    out.append(_matrix_eq("theta_vacuum", "theta Omega_L = Omega_R",
                          theta.apply(bl.vacuum()).reshape(-1, 1),
                          br.vacuum().reshape(-1, 1), tol))

    for x in br.sites:
        for spin in ("up", "down"):
            a_full = np.kron(a_ops[(lat.reflect(x), spin)].toarray(), np.eye(bl.boson_dim))
            c_full = np.kron(br.c(x, spin).toarray(), np.eye(br.boson_dim))
            out.append(_matrix_eq(
                "theta_fermion", f"theta a_(r{x},{spin}) theta^-1 = c_({x},{spin})",
                theta.conjugate(a_full), c_full, tol))
        phi_l = bl.boson(lat.reflect(x), "position", omega=params.omega)
        pi_l = bl.boson(lat.reflect(x), "momentum", omega=params.omega)
        b_l = bl.boson(lat.reflect(x), "annihilate")
        phi_r = br.boson(x, "position", omega=params.omega)
        pi_r = br.boson(x, "momentum", omega=params.omega)
        b_r = br.boson(x, "annihilate")
        emb_l = lambda m: np.kron(np.eye(bl.fermion_dim), m)
        emb_r = lambda m: np.kron(np.eye(br.fermion_dim), m)
        out.append(_matrix_eq("theta_position", f"theta phi_r({x}) theta^-1 = phi_{x}",
                              theta.conjugate(emb_l(phi_l)), emb_r(phi_r), tol))
        out.append(_matrix_eq("theta_momentum", f"theta pi_r({x}) theta^-1 = -pi_{x}",
                              theta.conjugate(emb_l(pi_l)), -emb_r(pi_r), tol))
        out.append(_matrix_eq("theta_ladder", f"theta b_r({x}) theta^-1 = b_{x}",
                              theta.conjugate(emb_l(b_l)), emb_r(b_r), tol))
    return out


# -- the split of T'', P''(h), K and its theta-covariance ----------------------------


def _bond_side(lat, x, y):
    return ("L" if x[0] < 0 else "R"), ("L" if y[0] < 0 else "R")


def _crossing_instances(params, lat):
    """Crossing pairing instances as (even site, partner, even side)."""
    out = []
    for x in lat.even_sites:
        for j in range(1, lat.nu + 1):
            for eps in (+1, -1):
                y = lat.shift(x, j, eps)
                sx, sy = _bond_side(lat, x, y)
                if sx != sy:
                    if j != 1:
                        raise AssertionError("crossing bonds can only run along direction 1")
                    out.append((x, y, sx))
    return out


def _half_charge_squares(params, lat, half_basis, h, side):
    """The diagonal of P''(h) restricted to one half, with the crossing-bond
    square terms, on the half-space basis.

    (u_eff - nu V) sum q^2 + (V/2) sum_internal (q_x - h_x - q_y + h_y)^2
    + (V/2) sum_crossing (q_own - h_own)^2, where "own" is this half's
    endpoint of each crossing bond.  The last piece is what makes the three
    displayed parts sum exactly to P''(h).
    """
    diag = np.zeros(half_basis.fermion_dim)
    qdiag = dict(zip(half_basis.sites, _model.charge_diagonals(half_basis)))
    coeff = params.u_eff - lat.nu * params.V
    for x in half_basis.sites:
        diag += coeff * qdiag[x] ** 2
    for b in lat.bonds():
        x, y = lat.sites[b.i], lat.sites[b.j]
        sx, sy = _bond_side(lat, x, y)
        if sx == side and sy == side:
            dq = qdiag[x] - h[b.i] - qdiag[y] + h[b.j]
            diag += 0.5 * params.V * dq ** 2
        elif side in (sx, sy) and sx != sy:
            own = x if sx == side else y
            own_i = b.i if sx == side else b.j
            diag += 0.5 * params.V * (qdiag[own] - h[own_i]) ** 2
    return np.repeat(diag, half_basis.boson_dim)


def verify_lr_split(params, basis, h=None, tol=1e-10):
    """Verify the T''/P''(h)/K tensor splits and their theta-covariance.

    Classification is by bond endpoints (the only reading under which the
    three parts sum to the whole); crossing bonds always pair a site with
    its reflection partner, and each enters the cross term as
    -t (C (x) theta C theta^-1 + h.c.) with C = exp(i alpha phi_l) a*_{l s}
    when the even endpoint is on the right, and with the opposite overall
    sign and conjugated phase when the even endpoint is on the left.
    """
    lat = basis.lattice
    h = np.zeros(lat.n_sites) if h is None else np.asarray(h, dtype=float)
    theta, split = build_theta(basis)
    bl, br = split.basis_L, split.basis_R
    out = []

    # identification of elementary operators under the factorization
    x_l, x_r = lat.left_sites[0], lat.right_sites[0]

    def c_up(b, x):
        return _sparse_kron(b.c(x, "up"), sparse.eye_array(b.boson_dim))

    for x, side in ((x_l, "L"), (x_r, "R")):
        c_full = split.to_lr(c_up(basis, x))
        if side == "L":
            expected = split.kron_l(c_up(bl, x))
        else:
            par = sparse.diags_array(np.repeat(bl.fermion_parity(), bl.boson_dim))
            expected = _sparse_kron(par, c_up(br, x))
        out.append(_matrix_eq("lr_fermion_embed", f"c_({x},up) factorizes ({side})",
                              c_full, expected, tol))
    pi_full = split.to_lr(_sparse_kron(sparse.eye_array(basis.fermion_dim),
                                       basis.boson(x_l, "momentum", omega=params.omega)))
    expected = split.kron_l(np.kron(np.eye(bl.fermion_dim),
                                    bl.boson(x_l, "momentum", omega=params.omega)))
    out.append(_matrix_eq("lr_boson_embed", f"pi_({x_l}) factorizes (L)", pi_full, expected, tol))

    # T'' split: the full-space bond terms by side, against the internal
    # instances assembled on each half basis
    t_parts = {key: sparse.csr_array((basis.total_dim, basis.total_dim), dtype=complex)
               for key in ("LL", "RR", "cross")}
    internal = {"L": [], "R": []}
    for inst, term in _model.pairing_bond_terms(params, basis):
        sx, sy = _bond_side(lat, inst[0], inst[1])
        key = "cross" if sx != sy else sx + sy
        t_parts[key] = t_parts[key] + term
        if sx == sy:
            internal[sx].append(inst)
    T_L, T_R = (_model._bond_csr(b, -params.t, _model._bond_factors(b, internal[side], True, params))
                .toarray() for b, side in ((bl, "L"), (br, "R")))
    out.append(_matrix_eq("lr_T_internal_L", "internal-left pairing = T''_L (x) 1",
                          split.to_lr(t_parts["LL"]), split.kron_l(T_L), tol))
    out.append(_matrix_eq("lr_T_internal_R", "internal-right pairing = 1 (x) T''_R",
                          split.to_lr(t_parts["RR"]), split.kron_r(T_R), tol))
    out.append(_matrix_eq("lr_T_reflect", "T''_R = theta T''_L theta^-1",
                          T_R, theta.conjugate(T_L), tol))

    a_ops = _model.build_a_operators(bl)
    crossing = sparse.csr_array((basis.total_dim, basis.total_dim), dtype=complex)
    for x, y, even_side in _crossing_instances(params, lat):
        right, ell, sgn_alpha, coeff = ((x, y, +1.0, -params.t) if even_side == "R"
                                        else (y, x, -1.0, +params.t))
        if lat.reflect(right) != ell:
            raise AssertionError("crossing bond does not pair reflection partners")
        phi_l = bl.boson(ell, "position", omega=params.omega)
        phase = _model.expm_i_hermitian(sgn_alpha * params.alpha * phi_l)
        for spin in ("up", "down"):
            C = np.kron(a_ops[(ell, spin)].T.toarray(), np.eye(bl.boson_dim))
            C = C @ np.kron(np.eye(bl.fermion_dim), phase)
            block = _sparse_kron(C, theta.conjugate(C))
            crossing = crossing + coeff * (block + block.conj().T)
    out.append(_matrix_eq(
        "lr_T_cross", "crossing pairing = sum_bonds +/- t (C (x) theta C theta^-1 + h.c.)",
        split.to_lr(t_parts["cross"]), crossing, tol))

    # P''(h) split, every part a diagonal
    qd = _model.charge_diagonals(basis)
    p_diag = (_model._charge_products(qd, _model._onsite_terms(lat, params.u_eff)
                                      + _model._bond_terms(lat, -params.V))
              + _model.field_diagonal_correction(params, basis, h))
    P_L = _half_charge_squares(params, lat, bl, h, "L")
    P_R = _half_charge_squares(params, lat, br, h, "R")
    crossing_bonds = [(b.i, b.j) for b in lat.bonds()
                      if _bond_side(lat, lat.sites[b.i], lat.sites[b.j])[0]
                      != _bond_side(lat, lat.sites[b.i], lat.sites[b.j])[1]]
    p_cross = sum(-params.V * ((qd[i] - h[i]) * (qd[j] - h[j])) for i, j in crossing_bonds)
    out.append(_matrix_eq("lr_P_split",
                          "P''(h) = P_L(h_L) (x) 1 + 1 (x) P_R(h_R) + cross",
                          split.to_lr(np.repeat(p_diag, basis.boson_dim)),
                          split.kron_l(P_L) + split.kron_r(P_R)
                          + split.to_lr(np.repeat(p_cross, basis.boson_dim)), tol))
    # theta-covariance with the reflected field:  P_R(h_R) = theta P_L(r(h_R)) theta^-1
    P_L_r = _half_charge_squares(params, lat, bl, reflected_configs(lat, h)[1], "L")
    out.append(_matrix_eq("lr_P_reflect", "P''_R(h_R) = theta P''_L(r(h_R)) theta^-1",
                          np.diag(P_R), theta.conjugate(np.diag(P_L_r)), tol))

    # K split: K = omega sum_x b*_x b_x on each basis, as a diagonal
    K_full, K_L, K_R = (np.tile(_model._phonon_energy(b, params.omega), b.fermion_dim)
                        for b in (basis, bl, br))
    out.append(_matrix_eq("lr_K_split", "K = K_L (x) 1 + 1 (x) K_R",
                          split.to_lr(K_full), split.kron_l(K_L) + split.kron_r(K_R), tol))
    out.append(_matrix_eq("lr_K_reflect", "K_R = theta K_L theta^-1",
                          np.diag(K_R), theta.conjugate(np.diag(K_L)), tol))
    return out


# -- the two-Hilbert-space partition function inequality ------------------------------


@dataclass
class DLSInstance:
    """H = A (x) 1 + 1 (x) theta B theta^-1
           - sum_j lambda_j (C_j (x) theta D_j theta^-1 + C*_j (x) theta D*_j theta^-1).

    A, B Hermitian; lambda_j >= 0; theta an antiunitary map between equal
    dimensions.  The square of its partition function is bounded by the
    product of the two symmetrized ones.
    """

    A: np.ndarray
    B: np.ndarray
    Cs: list
    Ds: list
    lambdas: list
    beta: float
    theta: AntiunitaryMap

    def __post_init__(self):
        n = np.shape(self.A)[-1]
        for name in ("Cs", "Ds"):       # checked before _draw cuts them to A's shape
            for M in getattr(self, name):
                if np.shape(M) != (n, n):
                    raise ValueError(f"{name} must be matrices {n} x {n} (A has {n} columns), "
                                     f"got shape {np.shape(M)}")
        _check_dls_inputs([self._draw()])

    def _draw(self):
        shape = (-1,) + self.A.shape
        return (self.A, self.B, np.reshape(self.Cs, shape), np.reshape(self.Ds, shape),
                np.asarray(self.lambdas, dtype=float), self.theta.W, self.beta)


def _dls_results(draws, tol, buffers=None):
    """The ``dls`` check of each draw, in draw order.  ``fuzz`` solves
    H(A,B,C,D) as a complex matrix and the two symmetric Hamiltonians, which
    do not depend on theta, as real symmetric ones (derived in its docstring),
    on ``buffers`` if given."""
    lhs, rhs = _dls_log_sides(draws, buffers)
    slack = (rhs - lhs) / 2.0
    return [CheckResult("dls", "Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D)", l, r, float(s),
                        bool(s >= -tol)) for l, r, s in zip(lhs, rhs, slack)]


def dls_check(inst, tol=1e-10):
    """Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D), evaluated in log space."""
    return _dls_results([inst._draw()], tol)[0]


def random_dls_instance(rng, dim_max=8):
    A, B, C, D, lams, W, beta = _draw_dls(rng, 1, dim_max)[0]
    return DLSInstance(A=A, B=B, Cs=list(C), Ds=list(D), lambdas=list(lams), beta=beta,
                       theta=AntiunitaryMap(W))


def _check_fuzz_size(name, n, dim_max):
    """Refuse, with ValueError, a fuzz of no draws (its record would pass with
    slack inf), ``name`` being the argument n, or of matrices below 2 x 2."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")
    if dim_max < 2:
        raise ValueError(f"dim_max must be at least 2, got {dim_max}")


def dls_fuzz(n_instances=1000, seed=2024, dim_max=8, tol=1e-10):
    """Random-instance fuzz of the partition-function inequality, plus the
    exact equality cases lambda = 0 and (A, C) = (B, D); the second compares
    the complex solve of H(A,A,C,C) (lhs) with its real frame (rhs).
    Refuses, with ValueError and before any draw, n_instances < 1 and
    dim_max < 2."""
    _check_fuzz_size("n_instances", n_instances, dim_max)
    rng = np.random.default_rng(seed)
    out = []
    worst = np.inf
    buffers = _Buffers()            # every window's stacks are solved on these
    for start in range(0, n_instances, _WINDOW):
        for res in _dls_results(_draw_dls(rng, min(_WINDOW, n_instances - start), dim_max), tol,
                                buffers):
            worst = min(worst, res.slack)
            if not res.passed:
                out.append(res)
    out.append(CheckResult("dls_fuzz", f"{n_instances} random instances hold",
                           worst, 0.0, worst, worst >= -tol))

    d = random_dls_instance(rng, dim_max=dim_max)
    for name, statement, inst in (
            ("dls_equality_lambda0", "lambda = 0 gives exact equality",
             DLSInstance(d.A, d.B, d.Cs, d.Ds, [0.0] * len(d.lambdas), d.beta, d.theta)),
            ("dls_equality_symmetric", "A = B, C = D gives exact equality",
             DLSInstance(d.A, d.A, d.Cs, d.Cs, d.lambdas, d.beta, d.theta))):
        res = dls_check(inst, tol=0.0)
        out.append(_eq(name, statement, res.lhs, res.rhs, 1e-12, scale=max(abs(res.lhs), 1.0)))
    return out


def trace_product_check(seed=5, tol=1e-12):
    """Tr[A (x) theta A theta^-1] = |Tr A|^2 >= 0 for 50 random 6 x 6 A and theta."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        A, M = _random_bounded(rng, 6, 2)
        q, _ = np.linalg.qr(M)
        th = AntiunitaryMap(q)
        lhs = complex(np.trace(np.kron(A, th.conjugate(A))))
        rhs = abs(np.trace(A)) ** 2
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1.0))
    return CheckResult("trace_product", "Tr[A (x) theta A theta^-1] = |Tr A|^2",
                       worst, 0.0, worst, worst <= tol)


# -- reflection positivity of Z and Gaussian domination -------------------------------


def _mirror_symmetry(basis):
    """The signed permutation M of the antiunitary Theta = M K, and the
    sites r(x) of every site x.

    In the layout of :func:`build_lr_split`, Theta (u (x) v) =
    theta^-1 v (x) theta u, followed by ``model.spin_swap``: M conj(H'') M^T
    = H'', M keeps S'z and sends S'+ to -S'+, and M commutes with the field
    term of every h with h = h o r.  theta's W is a signed permutation
    (:func:`_theta_monomial`), so M is one.
    """
    split = build_lr_split(basis)
    theta = _theta_monomial(split)
    w, s, n = theta.perm, theta.sign, len(theta.perm)   # theta e_a = s[a] e_w[a]
    a, b = np.divmod(np.arange(n * n), n)               # the LR index a n + b
    c = np.argsort(w)[b]                                # theta^-1 e_b = s[c] e_c
    perm, sign = np.empty(n * n, dtype=np.intp), np.empty(n * n)
    perm[split.perm], sign[split.perm] = split.perm[c * n + w[a]], s[a] * s[c]
    lat = basis.lattice
    sites = [lat.site_index[lat.reflect(x) if x[0] >= 0 else lat.reflect_inv(x)] for x in lat.sites]
    return _model.spin_swap(basis).compose(Monomial(perm, sign)), np.array(sites)


# log Z values a FieldPartition keeps; the least recently used is dropped first
LOG_Z_CACHE_SIZE = 4096
class FieldPartition:
    """Fast Z(h) evaluation for the field family H''(h) = H'' + diag(h-terms).

    The field only shifts the diagonal and commutes with the spin SU(2) of
    the zigzag frame, so ``sectors.highest_weight_sectors`` reduces H'' once
    to real blocks on its highest-weight states: ``sectors`` holds (idx,
    real block, weight 2M + 1), idx one representative basis index per
    column.  At 2x2, n_max = 1 (dim 4096) the largest is 320 and the sum of
    n^3 is 1.23e8.  Where ``model.particle_hole_translation`` finds the site
    condition (the two-site ring and the 2x2 torus, not the 2x2x2 one), the
    particle-hole symmetry Pi of ``model.particle_hole_symmetry`` reduces
    them further (``uses_particle_hole``): of two sectors with staggered
    charge +-Q one is solved and the other counted as e^{-beta s} times it,
    s read off the field correction, and one with Q = 0 is split in two; at
    2x2 the sum of n^3 is 4.996e7.  A log Z costs one real eigvalsh per
    sector, the sectors of one size solved as one stack, and equals the
    complex one up to rounding.

    A field with np.array_equal(h, h o r), r the reflection of the lattice
    (both fields of :func:`reflected_configs`, h = 0 and every constant
    field), is solved on the mirror sectors instead, as Theta = M K of
    :func:`_mirror_symmetry` commutes with H''(h), and so does Pi: at 2x2
    the sum of n^3 is 1.264e7 and the largest block 160 (5.04e7 and 320
    with Theta alone).

    Construction reads H'' once and refuses, with ValueError, every H''
    that ``sectors.highest_weight_sectors`` refuses; one that Pi does not
    keep is solved without Pi.  At 2x2 it keeps 4 MiB and peaks at 8-9 MiB
    traced (n_max = 1), and 100 and 189 MiB (n_max = 2, CSR H'').  log Z values are cached per configuration rounded
    to 12 digits, keeping the LOG_Z_CACHE_SIZE most recently used.
    """

    def __init__(self, params, basis, H2=None):
        self.params = params
        self.basis = basis
        if H2 is None:
            H2 = _model.build_doubleprime_csr(params, basis)
        reflection, self._mirror_sites = _mirror_symmetry(basis)
        # the sectors of one size are solved as one stack
        self._stacks, self._mirror_stacks, self._highest_weight = \
            _sectors.highest_weight_sectors(basis, H2, reflection)
        self._cache = OrderedDict()

    @property
    def sectors(self):
        """(idx, real block, weight) of each spin-SU(2) highest-weight sector,
        built on each call where Pi reduces the stacks a log Z solves."""
        stacks = (self._stacks if self._highest_weight is None
                  else _sectors._sector_stacks(*self._highest_weight))
        return [(idx, blk, int(weight)) for stack in stacks
                for idx, blk, weight in zip(*stack[:3])]

    @property
    def uses_particle_hole(self):
        """Whether Pi reduces the sectors that a log Z solves."""
        return self._highest_weight is not None

    def log_partition(self, h):
        h = np.asarray(h, dtype=float)
        key = tuple(np.round(h, 12))
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        corr = np.repeat(_model.field_diagonal_correction(self.params, self.basis, h),
                         self.basis.boson_dim)
        ws = []
        mirrored = np.array_equal(h, h[self._mirror_sites])
        for idx, blk, weight, *pair in self._mirror_stacks if mirrored else self._stacks:
            a = blk.copy()
            diag = np.arange(a.shape[1])
            a[:, diag, diag] += corr[idx]
            ws.append((weight, np.linalg.eigvalsh(a)))
            if pair:                    # (partner, partner_weight) of the sectors Pi pairs
                ws.append((pair[1], ws[-1][1] + _sectors._pair_shift(corr, idx, pair[0])))
        w0 = min(float(w[:, 0].min()) for _, w in ws)
        beta = self.params.beta
        z = sum(float(weight @ np.exp(-beta * (w - w0)).sum(axis=1)) for weight, w in ws)
        lz = -beta * w0 + float(np.log(z))
        self._cache[key] = lz
        if len(self._cache) > LOG_Z_CACHE_SIZE:
            self._cache.popitem(last=False)
        return lz


def reflected_configs(lat, h):
    """((h_L, r^-1(h_L)), (r(h_R), h_R)) for a field configuration h; an h
    whose shape is not (n_sites,) is refused with ValueError."""
    h = _model._site_field(h, lat.n_sites)
    keep_left = np.array(h)
    for x in lat.right_sites:
        keep_left[lat.site_index[x]] = h[lat.site_index[lat.reflect(x)]]
    keep_right = np.array(h)
    for x in lat.left_sites:
        keep_right[lat.site_index[x]] = h[lat.site_index[lat.reflect_inv(x)]]
    return keep_left, keep_right


def rp_reflection_check(params, basis, h, ens, tol=1e-9):
    """Z(h_L, h_R)^2 <= Z(h_L, r^-1(h_L)) Z(r(h_R), h_R), in log space, with
    Z taken from the FieldPartition ``ens`` of H''."""
    hl, hr = reflected_configs(basis.lattice, h)
    lz = ens.log_partition(h)
    lzl = ens.log_partition(hl)
    lzr = ens.log_partition(hr)
    slack = 0.5 * (lzl + lzr) - lz
    return CheckResult("rp_of_Z", "Z(h)^2 <= Z(h_L, r^-1 h_L) Z(r h_R, h_R)",
                       2.0 * lz, lzl + lzr, float(slack), bool(slack >= -tol))


def gaussian_domination_check(params, basis, h, ens, tol=1e-10):
    """Z(h) <= Z(0), with Z taken from the FieldPartition ``ens`` of H'';
    exact equality for constant h."""
    lz = ens.log_partition(h)
    lz0 = ens.log_partition(np.zeros(basis.n_sites))
    slack = lz0 - lz
    return CheckResult("gaussian_domination", "Z(h) <= Z(0)",
                       lz, lz0, float(slack), bool(slack >= -tol))


# -- the infrared chain ----------------------------------------------------------------


def falk_bruch_rhs(b, c, tol=1e-12):
    """(1/2) sqrt(bc) coth sqrt(c / 4b), continued through b -> 0 or c -> 0.

    Equal to b * G(c/(4b)) with G(x) = sqrt(x) coth sqrt(x), G(0) = 1.
    """
    b = max(float(b), 0.0)
    c = max(float(c), 0.0)
    if b <= tol:
        return 0.5 * math.sqrt(b * c)
    if c <= tol:
        return b
    sx = math.sqrt(c / (4.0 * b))
    return b * sx / math.tanh(sx)


def infrared_chain_check(params, basis, h, spec, H2, bond_expectations=None, tol=1e-9):
    """The chain g <= Falk-Bruch(b, c) with b <= b0, c <= c0 and the
    resulting two-term bound on g, for one (possibly complex) field h.

    b0 is the stated constant <h|(-Delta)h>/(2 beta V); the weaker constant
    without the 1/2 (the one Gaussian domination proves with single-counted
    bonds) is reported as a separate always-true check.  The stated one
    fails numerically in a corner of parameter space (small t, beta V ~ 1).

    The forms read the entries of H'' from ``spec``: ``H2`` is only checked
    to have spec's shape, and one of another shape is refused with ValueError,
    as is, before any form is read, an h whose shape is not (n_sites,), with
    an entry that is not finite, or whose <h|(-Delta)h> overflows, and a
    spec whose beta is not ``params.beta``.
    """
    if H2.shape != (spec.dim, spec.dim):
        raise ValueError(f"H2 has shape {H2.shape}, not the dimension {spec.dim} of spec")
    lat = basis.lattice
    h = _model._site_vector(h, basis.n_sites, complex)
    lap, stag = lat.laplacian_matrix(), lat.staggered_signs
    f = lap @ h                                          # (-Delta) h
    X = float(np.vdot(h, f).real)                        # <h|(-Delta)h>
    if not math.isfinite(X):        # every h with an entry that is not finite lands here
        _model._site_field(h, basis.n_sites, complex)
        raise ValueError(f"<h|(-Delta)h> is not finite for h = {h}")
    g_q, b_q, c_q = _thermo._form_values(params, basis, f, spec, bond_expectations)
    sf = stag * f
    Y = float(np.vdot(sf, lap @ sf).real)
    b0 = X / (2.0 * params.beta * params.V)
    c0 = 4.0 * params.beta * params.t * Y
    fb = falk_bruch_rhs(b_q, c_q)
    root = math.sqrt(params.t / params.V)
    ginq = 0.5 * (1.0 / (params.beta * params.V) + root) * X + 0.25 * root * Y   # gamma1', gamma2

    return [
        _ineq("ir_duhamel_bound", "b <= <h|(-D)h>/(2 beta V)", b_q, b0, tol),
        _ineq("ir_duhamel_bound_weak", "b <= <h|(-D)h>/(beta V)", b_q, 2.0 * b0, tol),
        _ineq("ir_commutator_bound", "c <= 4 beta t <(-D)h|tau(-D)tau(-D)h>", c_q, c0, tol),
        _ineq("ir_falk_bruch", "g <= (1/2) sqrt(bc) coth sqrt(c/4b)", g_q, fb, tol),
        _ineq("ir_two_term", "g <= gamma1' <h|(-D)h> + gamma2 <(-D)h|tau(-D)tau(-D)h>",
              g_q, ginq, tol),
    ]


# -- half filling -----------------------------------------------------------------------


def half_filling_check(params, basis, tol=1e-10, mechanism=False):
    """<n_x> = 1 for every site under the original Hamiltonian on ``basis``.

    With ``mechanism=True`` additionally verifies the symmetry argument as
    matrix identities: u H u^-1 = T + K + W with
    W = U sum s^2 + V sum s s + g sum s (b + b*), and D (u H u^-1) D^-1
    unchanged while D flips every s_x.
    """
    lat = basis.lattice
    H = _model.build_original_csr(params, basis)
    spec = _thermo.spectral(H, params.beta)
    out = []
    worst = 0.0
    for x in lat.sites:
        n_diag = np.repeat(1.0 + _model.charge_diagonals(basis)[lat.site_index[x]],
                           basis.boson_dim)
        worst = max(worst, abs(spec.expectation(n_diag) - 1.0))
    out.append(CheckResult("half_filling", "<n_x> = 1 at every site",
                           1.0 + worst, 1.0, worst, worst <= tol))
    if mechanism:
        hh = _model.build_hole_particle(basis).conjugate(H)
        # T + K + W: the terms of H with every q_x replaced by s_x
        out.append(_matrix_eq("half_filling_decomposition",
                              "u H u^-1 = T + K + U sum s^2 + V sum ss + g sum s(b+b*)",
                              hh, _model._original(params, basis, _model.spin_diagonals(basis)),
                              tol))
        out.append(_matrix_eq("half_filling_spin_flip", "D (u H u^-1) D^-1 = u H u^-1",
                              _model.build_spin_flip(basis).conjugate(hh), hh, tol))
    return out


# -- the free-energy chain for <q_o^2> ---------------------------------------------------


def convexity_lemma_check(n_pairs=500, dim_max=32, seed=77, tol=1e-9):
    """ln Tr e^{-(B+C)} <= <-B> + ln Tr e^{-C} for random Hermitian pairs,
    with <.> the Gibbs average of B + C.  Refuses, with ValueError and before
    any draw, n_pairs < 1 and dim_max < 2."""
    _check_fuzz_size("n_pairs", n_pairs, dim_max)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for start in range(0, n_pairs, _WINDOW):
        # the window is a temporary, released before the next one is drawn
        worst = min(worst, *_convexity_slacks(
            [_hermitian_part(_random_bounded(rng, int(rng.integers(2, dim_max + 1)), 2))
             for _ in range(min(_WINDOW, n_pairs - start))]))
    return CheckResult("convexity_lemma", "ln Tr e^-(B+C) <= <-B> + ln Tr e^-C",
                       0.0, 0.0, float(worst), bool(worst >= -tol))


def q2_lower_bound_check(params, basis, tol=1e-9):
    """The finite-volume lower bound on <q_o^2> under H'' on ``basis`` at strong coupling:

        <q_o^2> >= 1 - 8 nu t / gap - ln[4 (1 - e^{-beta omega})^{-1}] / (beta gap)

    with gap = nu V - u_eff > 0, plus the exact product-state energy
    <Psi|H''|Psi> = -gap |Lambda| that drives the free-energy estimate.
    The bound survives phonon truncation because the truncated Tr e^{-beta K}
    is smaller than its untruncated value.
    """
    lat = basis.lattice
    nu = lat.nu
    gap = nu * params.V - params.u_eff
    if gap <= 0:
        return [CheckResult("q2_lower_bound", "nu V - u_eff > 0 required",
                            gap, 0.0, gap, False)]
    H2 = _model.build_doubleprime_csr(params, basis)

    psi = np.zeros(basis.fermion_dim, dtype=complex)
    psi[-1] = 1.0  # all modes occupied: every site doubly occupied
    psi_full = np.kron(psi, basis.boson_vacuum())
    energy = float(np.real(np.vdot(psi_full, H2 @ psi_full)))
    out = [_eq("q2_product_state", "<Psi|H''|Psi> = -(nu V - u_eff) |Lambda|",
               energy, -gap * lat.n_sites, 1e-12,
               scale=max(abs(energy), 1.0))]

    spec = _thermo.spectral(H2, params.beta)
    q2_diag = np.repeat(_model.charge_diagonals(basis)[0] ** 2, basis.boson_dim)
    q2 = spec.expectation(q2_diag)
    entropy = np.log(4.0 / (1.0 - np.exp(-params.beta * params.omega))) / (params.beta * gap)
    rhs = 1.0 - 8.0 * nu * params.t / gap - entropy
    out.append(_ineq("q2_lower_bound",
                     "<q_o^2> >= 1 - 8 nu t/gap - ln[4/(1-e^-beta omega)]/(beta gap)",
                     rhs, q2, tol))
    return out
