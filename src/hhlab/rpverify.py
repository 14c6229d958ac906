"""Reflection-positivity machinery and exact verification of its identities.

Contents:

* an explicit antiunitary map theta from the left-half Hilbert space onto
  the right half, built on the fermion side from the correspondence
  a*_{r(X)} ... Omega_L  <->  c*_X ... Omega_R  (with a_X = c_X (-1)^{N_L})
  and on the phonon side from the site-relabeling permutation composed with
  complex conjugation (occupation basis vectors are real; the momentum
  operator is purely imaginary there and flips sign, as it must);
* the left/right tensor factorization of every Hamiltonian piece, with all
  conjugation identities checked as exact matrix identities (full-space
  sides sparse or diagonal, theta on the dense half-space operators);
* the trace-product and Cauchy-Schwarz inequalities for partition
  functions (the two-Hilbert-space inequality with lambda >= 0 couplings,
  fuzzed over random instances), reflection positivity of Z, Gaussian
  domination, the Duhamel/double-commutator bounds b <= b0 and c <= c0,
  the Falk-Bruch bound and its corollary, the free-energy chain for the
  lower bound on <q_o^2>, and the half-filling identity;
* Z(h) of the field family H''(h) for reflection positivity and Gaussian
  domination (:class:`FieldPartition`), solved on the highest-weight states
  of the spin SU(2) of the zigzag frame, one real block per component of
  H'' with S'z = M >= 0, counted 2M + 1 times, and for a reflection-invariant
  field on those blocks reduced further by the reflection.

Every check returns a :class:`CheckResult` with the checked statement, the
two sides, a relative slack and a pass flag; suites return lists of them.

Sign conventions worth recording: with bonds enumerated once (directed sum
over +delta_j), the sharp Duhamel bound provable from Gaussian domination
is b <= <h|(-Delta)h>/(beta V); the stated b0 carries an extra 1/2 that
numerically fails in a corner of parameter space (small t, beta V ~ 1) and
holds with wide margin elsewhere.  Both slacks are reported.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import model as _model
from . import thermo as _thermo
from .hilbert import HilbertBasis, Monomial, row_strips

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
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = (rhs - lhs) / scale
    return CheckResult(name, statement, float(lhs), float(rhs), float(slack), bool(slack >= -tol))


def _eq(name, statement, lhs, rhs, tol, scale=None):
    scale = max(abs(lhs), abs(rhs), 1.0) if scale is None else scale
    slack = abs(lhs - rhs) / scale
    return CheckResult(name, statement, float(np.real_if_close(lhs)),
                       float(np.real_if_close(rhs)), float(slack), bool(slack <= tol))


def _matrix_eq(name, statement, A, B, tol):
    """A = B entrywise: two dense matrices, two scipy.sparse matrices or two
    diagonals given as 1-d vectors; a NaN entry fails the check."""
    if sparse.issparse(A):
        a_max, b_max, diff = (abs(M).max() for M in (A, B, A - B))
    else:
        # max |A|, max |B| and max |A - B| in one pass over strips of rows
        a_max, b_max, diff = np.max([(np.max(np.abs(A[s])), np.max(np.abs(B[s])),
                                      np.max(np.abs(A[s] - B[s])))
                                     for s in row_strips(A.shape[0])], axis=0)
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
            dev = np.max(np.abs(W @ W.conj().T - np.eye(W.shape[0])))
            if dev > 1e-10:
                raise ValueError(f"unitary part is not unitary (deviation {dev})")
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


def build_theta(basis_or_split):
    """The antiunitary reflection theta: H_L -> H_R.

    Fermion part: the antilinear map sending the left CONS built from
    a*-strings over reflected modes to the right CONS built from c*-strings
    (both in canonical increasing-mode order; the definition is independent
    of the representative since both sides flip sign together under
    permutations).  Phonon part: site relabeling y -> r(y) composed with
    conjugation.
    """
    split = basis_or_split if isinstance(basis_or_split, LRSplit) else build_lr_split(basis_or_split)
    lat = split.basis.lattice
    bl, br = split.basis_L, split.basis_R

    a_ops = _model.build_a_operators(bl)
    adags = {k: m.conj().T for k, m in a_ops.items()}

    W_xi = np.zeros((br.fermion_dim, bl.fermion_dim), dtype=complex)
    for i in range(br.fermion_dim):
        ms = [m for m in range(br.n_modes) if (i >> (br.n_modes - 1 - m)) & 1]
        e_vec = br.fermion_vacuum()
        f_vec = bl.fermion_vacuum()
        for m in reversed(ms):
            x, spin = br.modes[m]
            e_vec = br.cdag(x, spin) @ e_vec
            f_vec = adags[(lat.reflect(x), spin)] @ f_vec
        W_xi += np.outer(e_vec, f_vec)

    P = np.zeros((br.boson_dim, bl.boson_dim))
    for i in range(bl.boson_dim):
        n_l = bl.boson_tuple(i)
        m_r = tuple(n_l[bl.site_index[lat.reflect(y)]] for y in br.sites)
        j = 0
        for v in m_r:
            j = j * (br.n_max + 1) + v
        P[j, i] = 1.0

    return AntiunitaryMap(np.kron(W_xi, P)), split


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
            a_full = np.kron(a_ops[(lat.reflect(x), spin)], np.eye(bl.boson_dim))
            c_full = np.kron(br.c(x, spin), np.eye(br.boson_dim))
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
    for x, side in ((x_l, "L"), (x_r, "R")):
        c_full = split.to_lr(_sparse_kron(basis.c(x, "up"), sparse.eye_array(basis.boson_dim)))
        if side == "L":
            expected = split.kron_l(np.kron(bl.c(x, "up"), np.eye(bl.boson_dim)))
        else:
            par = np.kron(bl.fermion_parity(), np.eye(bl.boson_dim))
            expected = _sparse_kron(par, np.kron(br.c(x, "up"), np.eye(br.boson_dim)))
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
    T_L = _model._bond_matrix(bl, -params.t, _model._bond_factors(bl, internal["L"], True, params))
    T_R = _model._bond_matrix(br, -params.t, _model._bond_factors(br, internal["R"], True, params))
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
            C = np.kron(a_ops[(ell, spin)].conj().T, np.eye(bl.boson_dim))
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
        if any(l < 0 for l in self.lambdas):
            raise ValueError("lambda_j must be nonnegative")
        for M, nm in ((self.A, "A"), (self.B, "B")):
            if np.max(np.abs(M - M.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
                raise ValueError(f"{nm} must be Hermitian")


def _log_partition(beta, w):
    w0 = w[0]
    return -beta * w0 + float(np.log(np.sum(np.exp(-beta * (w - w0)))))


def _kron(X, Y):
    """np.kron for square X and Y, by one broadcast product."""
    n, m = X.shape[0], Y.shape[0]
    return (X[:, None, :, None] * Y[None, :, None, :]).reshape(n * m, n * m)


def dls_check(inst, tol=1e-10):
    """Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D), evaluated in log space."""
    def lz(left, right, cs, ds):
        eye = np.eye(inst.A.shape[0])
        H = _kron(left, eye) + _kron(eye, inst.theta.conjugate(right))
        for lam, C, D in zip(inst.lambdas, cs, ds):
            block = _kron(C, inst.theta.conjugate(D))
            H -= lam * (block + block.conj().T)
        if np.max(np.abs(H - H.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(H))):
            raise AssertionError("coupled Hamiltonian lost Hermiticity")
        return _log_partition(inst.beta, np.linalg.eigvalsh(H))

    lhs = 2.0 * lz(inst.A, inst.B, inst.Cs, inst.Ds)
    rhs = lz(inst.A, inst.A, inst.Cs, inst.Cs) + lz(inst.B, inst.B, inst.Ds, inst.Ds)
    slack = (rhs - lhs) / 2.0
    return CheckResult("dls", "Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D)",
                       lhs, rhs, float(slack), bool(slack >= -tol))


def _random_bounded(rng, n, count=None):
    """A complex n x n matrix with standard normal real and imaginary parts,
    or a stack of ``count`` of them drawn in one call.

    Generator.standard_normal fills any shape from the same stream, so the
    stack equals ``count`` matrices drawn one by one, each real part first.
    """
    x = rng.standard_normal((1 if count is None else count, 2, n, n))
    out = x[:, 0] + 1j * x[:, 1]
    return out[0] if count is None else out


def random_dls_instance(rng, dim_max=8):
    n = int(rng.integers(2, dim_max + 1))
    A, B = _random_bounded(rng, n, 2)
    A = (A + A.conj().T) / 2
    B = (B + B.conj().T) / 2
    k = int(rng.integers(1, 4))
    pairs = _random_bounded(rng, n, 2 * k)
    Cs, Ds = list(pairs[:k]), list(pairs[k:])
    lams = list(rng.uniform(0.0, 2.0, size=k))
    if rng.random() < 0.5:
        W = np.eye(n, dtype=complex)  # standard conjugation
    else:
        q, _ = np.linalg.qr(_random_bounded(rng, n))
        W = q
    beta = float(rng.uniform(0.05, 3.0))
    return DLSInstance(A=A, B=B, Cs=Cs, Ds=Ds, lambdas=lams, beta=beta,
                       theta=AntiunitaryMap(W))


def dls_fuzz(n_instances=1000, seed=2024, dim_max=8, tol=1e-10):
    """Random-instance fuzz of the partition-function inequality, plus the
    exact equality cases lambda = 0 and (A, C) = (B, D)."""
    rng = np.random.default_rng(seed)
    out = []
    worst = np.inf
    for _ in range(n_instances):
        res = dls_check(random_dls_instance(rng, dim_max=dim_max), tol=tol)
        worst = min(worst, res.slack)
        if not res.passed:
            out.append(res)
    out.append(CheckResult("dls_fuzz", f"{n_instances} random instances hold",
                           worst, 0.0, worst, worst >= -tol))

    inst = random_dls_instance(rng, dim_max=dim_max)
    zero = DLSInstance(A=inst.A, B=inst.B, Cs=inst.Cs, Ds=inst.Ds,
                       lambdas=[0.0] * len(inst.lambdas), beta=inst.beta, theta=inst.theta)
    res = dls_check(zero, tol=0.0)
    out.append(_eq("dls_equality_lambda0", "lambda = 0 gives exact equality",
                   res.lhs, res.rhs, 1e-12, scale=max(abs(res.lhs), 1.0)))
    sym = DLSInstance(A=inst.A, B=inst.A, Cs=inst.Cs, Ds=inst.Cs,
                      lambdas=inst.lambdas, beta=inst.beta, theta=inst.theta)
    res = dls_check(sym, tol=0.0)
    out.append(_eq("dls_equality_symmetric", "A = B, C = D gives exact equality",
                   res.lhs, res.rhs, 1e-12, scale=max(abs(res.lhs), 1.0)))
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
    term of every h with h = h o r.  theta's W is a +-1 monomial, so M is one.
    """
    theta, split = build_theta(basis)
    n = len(theta.W)
    w = np.argmax(np.abs(theta.W), axis=0)              # theta e_a = s[a] e_w[a]
    s = theta.W[w, np.arange(n)].real
    if not np.array_equal(theta.W, Monomial(w, s).to_dense()):
        raise AssertionError("theta is not a signed permutation")
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

    The external field only shifts the diagonal, and S'+, the zigzag image
    of the spin raising operator sum_x c*_{x up} c_{x down}, commutes with
    H'' and with every field term.  So H'' is reduced once, by
    ``thermo.highest_weight_sectors``, to real blocks on the highest-weight
    states of each component with S'z = M >= 0, each counted 2M + 1 times.
    The components and the diagonal gauge are those ``thermo.spectral``
    reads off the same matrix, and the field correction stays diagonal on
    every block.

    ``sectors`` holds (idx, real block, weight 2M + 1), where idx has one
    representative basis index per column of the block.  At 2x2, n_max = 1
    (dim 4096) the largest block is 320 and the sum of n^3 is 1.23e8.  Every
    log partition function costs one real eigvalsh per sector, with the
    sectors of one size solved as one stack, and equals the complex one up to
    rounding.

    A field with np.array_equal(h, h o r), r the reflection of the lattice
    (both fields of :func:`reflected_configs`, h = 0 and every constant
    field), is solved on the mirror sectors instead: the antiunitary Theta =
    M K of :func:`_mirror_symmetry` commutes with H''(h) for such h, so a
    sector that Theta maps onto another is counted twice and a sector mapped
    onto itself splits into the +-1 eigenspaces of Theta.  At 2x2 that is 35
    sectors with sum n^3 = 5.04e7, and a log Z costs about half as much.
    Every other field takes the sectors above.

    Construction refuses, with ValueError and in this order, an H'' that
    carries flux, breaks [H'', S'+] = 0, does not split into multiplets as
    ``thermo.highest_weight_sectors`` describes, or is not invariant under
    Theta.  log Z values are cached per configuration rounded to 12 digits,
    keeping the LOG_Z_CACHE_SIZE most recently used.
    """

    def __init__(self, params, basis, H2=None):
        self.params = params
        self.basis = basis
        if H2 is None:
            H2 = _model.build_doubleprime(params, basis)
        reflection, self._mirror_sites = _mirror_symmetry(basis)
        # the sectors of one size are solved as one stack; ``sectors`` views the stacks
        self._stacks, self._mirror_stacks = _thermo.highest_weight_sectors(basis, H2, reflection)
        self.sectors = [(idx, blk, int(weight)) for stack in self._stacks
                        for idx, blk, weight in zip(*stack)]
        self._cache = OrderedDict()

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
        for idx, blk, weight in self._mirror_stacks if mirrored else self._stacks:
            a = blk.copy()
            diag = np.arange(a.shape[1])
            a[:, diag, diag] += corr[idx]
            ws.append((weight, np.linalg.eigvalsh(a)))
        w0 = min(float(w[:, 0].min()) for _, w in ws)
        beta = self.params.beta
        z = sum(float(weight @ np.exp(-beta * (w - w0)).sum(axis=1)) for weight, w in ws)
        lz = -beta * w0 + float(np.log(z))
        self._cache[key] = lz
        if len(self._cache) > LOG_Z_CACHE_SIZE:
            self._cache.popitem(last=False)
        return lz


def reflected_configs(lat, h):
    """((h_L, r^-1(h_L)), (r(h_R), h_R)) for a field configuration h."""
    h = np.asarray(h, dtype=float)
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
        return 0.5 * np.sqrt(b * c)
    if c <= tol:
        return b
    x = c / (4.0 * b)
    sx = np.sqrt(x)
    return b * sx / np.tanh(sx)


def infrared_chain_check(params, basis, h, spec, H2, bond_expectations=None, tol=1e-9):
    """The chain g <= Falk-Bruch(b, c) with b <= b0, c <= c0 and the
    resulting two-term bound on g, for one (possibly complex) field h.

    b0 is the stated constant <h|(-Delta)h>/(2 beta V); the weaker constant
    without the 1/2 (the one Gaussian domination proves with single-counted
    bonds) is reported as a separate always-true check.
    """
    lat = basis.lattice
    h = np.asarray(h, dtype=complex)
    g_q, b_q, c_q = _thermo.quadratic_form_quantities(
        params, basis, h, spec, H2, bond_expectations=bond_expectations)

    lap = lat.laplacian_matrix()
    stag = np.array([lat.staggered_sign(x) for x in lat.sites], dtype=float)
    X = float(np.real(np.vdot(h, lap @ h)))              # <h|(-Delta)h>
    f = lap @ h                                          # (-Delta) h
    Y = float(np.real(np.vdot(f, stag * (lap @ (stag * f)))))
    b0 = X / (2.0 * params.beta * params.V)
    c0 = 4.0 * params.beta * params.t * Y
    fb = falk_bruch_rhs(b_q, c_q)
    gamma1_full = 0.5 * (1.0 / (params.beta * params.V) + np.sqrt(params.t / params.V))
    gamma2 = 0.25 * np.sqrt(params.t / params.V)
    ginq = gamma1_full * X + gamma2 * Y

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
    H = _model.build_original(params, basis)
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
    with <.> the Gibbs average of B + C."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_pairs):
        n = int(rng.integers(2, dim_max + 1))
        B, C = _random_bounded(rng, n, 2)
        B = (B + B.conj().T) / 2
        C = (C + C.conj().T) / 2
        w, q = np.linalg.eigh(B + C)
        w0 = w[0]
        zs = np.sum(np.exp(-(w - w0)))
        lhs = -w0 + np.log(zs)
        gibbs = (q * np.exp(-(w - w0))) @ q.conj().T / zs
        mean_b = float(np.real(np.vdot(gibbs, B)))
        rhs = -mean_b + _log_partition(1.0, np.linalg.eigvalsh(C))
        worst = min(worst, (rhs - lhs) / max(abs(lhs), abs(rhs), 1.0))
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
    H2 = _model.build_doubleprime(params, basis)

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
