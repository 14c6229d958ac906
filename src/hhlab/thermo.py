"""Spectral decomposition, thermal expectations and Duhamel two-point functions.

A Hamiltonian (a dense matrix) is first split into the connected components
of its exact sparsity pattern (H[i, j] != 0.0); each component is
eigendecomposed exactly with dense LAPACK, and all thermal sums run
blockwise.  This is a lossless reordering -- parity-type conservation laws
show up as exact structural zeros of the matrix -- and cuts the eigensolver
cost by the usual cubic factor.  Components are detected from exact zeros
only, so a "dirty" matrix simply degrades to one big block, never to a wrong
answer.  The Gibbs state is kept as its diagonal blocks only: it is exactly
block-diagonal, so an observable (a dense matrix, a scipy.sparse matrix or a
1-d diagonal) enters a thermal average only through its diagonal blocks.

The Duhamel two-point function is evaluated spectrally:

    (A, B) = Z^-1 sum_{m,n} (A*)_{mn} B_{nm} kappa(E_m, E_n),
    kappa(E, E') = (e^{-beta E} - e^{-beta E'}) / (beta (E' - E)),

with a second-order series for beta |E - E'| < 1e-6 to avoid the 0/0.
All exponentials are shifted by the ground energy so beta can be large.

The infrared quantities g = <A* A>, b = (A, A) and c = beta <[A, [H'', A*]]>
of A = sum_x f_x q_x are Hermitian forms in the N-vector f (N = n_sites).
Their three N x N matrices are built once per (spectral data, basis, H'')
from the blocks -- about N times the work of one field by direct sums, 0.5 s
at dim 4096 on one BLAS thread -- and cached on the spectral data, after
which each field costs O(N^2) (see quadratic_form_quantities).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import connected_components

from . import model as _model
from .hilbert import build_basis

__all__ = [
    "SpectralData",
    "spectral",
    "charge_correlation",
    "quadratic_form_quantities",
    "pairing_bond_expectations",
    "HamiltonianFamily",
]

_GAP_SERIES_CUTOFF = 1e-6


class SpectralData:
    """Eigenpairs of a Hermitian matrix plus cached thermal weights.

    Attributes of interest: ``beta``, ``e0`` (ground energy), ``logZ``,
    ``blocks`` (list of (index array, eigenvalues, eigenvector matrix)).
    Immutable once built.
    """

    def __init__(self, H, beta, check=True):
        H = np.ascontiguousarray(H)
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        labels = _component_labels(H)
        blocks = []
        for lab in range(labels.max() + 1):
            idx = np.flatnonzero(labels == lab)
            w, q = np.linalg.eigh(H[np.ix_(idx, idx)])
            blocks.append((idx, w, q))
        self._finish(blocks, n, beta)
        if check:
            res = self.reconstruction_residual(H)
            scale = max(float(np.max(np.abs(H))), 1e-300)
            if res > 1e-9 * scale:
                raise AssertionError(f"eigendecomposition residual {res} too large")

    @classmethod
    def from_blocks(cls, blocks, dim, beta):
        """Assemble from per-component eigenpairs [(indices, w, Q), ...]."""
        self = cls.__new__(cls)
        self._finish(blocks, dim, beta)
        return self

    def _finish(self, blocks, dim, beta):
        self.dim = dim
        self.beta = float(beta)
        self.blocks = blocks
        self.e0 = min(float(w[0]) for _, w, _ in self.blocks)
        self._weights = [np.exp(-self.beta * (w - self.e0)) for _, w, _ in self.blocks]
        self.z_shifted = float(sum(wt.sum() for wt in self._weights))
        self.logZ = -self.beta * self.e0 + float(np.log(self.z_shifted))
        self._block_of = np.empty(dim, dtype=np.intp)   # component of each basis index
        self._position = np.empty(dim, dtype=np.intp)   # its index inside the component
        for k, (idx, _, _) in enumerate(blocks):
            self._block_of[idx] = k
            self._position[idx] = np.arange(len(idx))
        self._rho_diag = None
        self._rho_blocks = None
        self._forms = None

    @property
    def eigenvalues(self):
        return np.sort(np.concatenate([w for _, w, _ in self.blocks]))

    def reconstruction_residual(self, H):
        res = 0.0
        for (idx, w, q) in self.blocks:
            back = (q * w) @ q.conj().T
            res = max(res, float(np.max(np.abs(back - H[np.ix_(idx, idx)]))))
        return res

    def rho_diag(self):
        """Diagonal of the Gibbs state in the original basis."""
        if self._rho_diag is None:
            d = np.zeros(self.dim)
            for (idx, _, q), wt in zip(self.blocks, self._weights):
                d[idx] = (np.abs(q) ** 2) @ wt
            self._rho_diag = d / self.z_shifted
        return self._rho_diag

    def rho_blocks(self):
        """Per-component Gibbs blocks rho_i (the full state is their direct
        sum); cached."""
        if self._rho_blocks is None:
            self._rho_blocks = [(q * wt) @ q.conj().T / self.z_shifted
                                for (_, _, q), wt in zip(self.blocks, self._weights)]
        return self._rho_blocks

    # -- thermal averages ----------------------------------------------------

    def expectation(self, A):
        """<A> = Tr[A e^{-beta H}] / Z.  A may be a dense matrix, a
        scipy.sparse matrix or a diagonal (1-d array).  Hermitian input gives
        a real result; the imaginary part is checked to be < 1e-10 relative
        and discarded then.

        Tr(rho A) = sum_ij conj(rho_ij) A_ij (rho is Hermitian) runs over the
        diagonal blocks of rho only: its entries between components are
        exact zeros, so the entries of A there contribute exactly 0.
        """
        if issparse(A):
            val = self._sparse_trace(A)
        else:
            A = np.asarray(A)
            if A.ndim == 1:
                val = complex(np.dot(A, self.rho_diag()))
            else:
                val = complex(sum(np.vdot(rho_i, A[np.ix_(idx, idx)])
                                  for (idx, _, _), rho_i in zip(self.blocks, self.rho_blocks())))
        return _realize_if_hermitian(val, A)

    def _sparse_trace(self, A):
        """Tr(rho A) from the stored entries of a sparse A inside one component."""
        A = A.tocoo()
        comp = self._block_of[A.row]
        inside = comp == self._block_of[A.col]
        rows, cols, data, comp = A.row[inside], A.col[inside], A.data[inside], comp[inside]
        rho = self.rho_blocks()
        total = 0.0 + 0.0j
        for k in np.unique(comp):
            sel = comp == k
            total += np.vdot(rho[k][self._position[rows[sel]], self._position[cols[sel]]],
                             data[sel])
        return complex(total)

    def duhamel(self, A, B):
        """Duhamel two-point function (A, B) at this spectral data.

        (A, A) >= 0 and (A, B) = conj((B, A)); diagonal observables may be
        passed as 1-d arrays (their eigenbasis matrix elements are then
        confined to the diagonal blocks, which is much cheaper).
        """
        A = np.asarray(A)
        B = np.asarray(B)
        diag_a, diag_b = A.ndim == 1, B.ndim == 1
        total = 0.0 + 0.0j
        for bi, (idx_i, w_i, q_i) in enumerate(self.blocks):
            for bj, (idx_j, w_j, q_j) in enumerate(self.blocks):
                if (diag_a or diag_b) and bi != bj:
                    continue  # diagonal observables have no cross-block elements
                at = _eigenbasis_block(A, idx_i, idx_j, q_i, q_j)
                bt = at if B is A else _eigenbasis_block(B, idx_i, idx_j, q_i, q_j)
                if at is None or bt is None:
                    continue
                # shifted energies: the e^{beta e0} cancels against z_shifted
                kern = _duhamel_kernel(self.beta, w_i - self.e0, w_j - self.e0)
                total += np.sum(np.conj(at) * bt * kern)
        return complex(total / self.z_shifted)


def _max_abs(A):
    if issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    return float(np.max(np.abs(A)))


def _realize_if_hermitian(val, A):
    if A.ndim == 1:
        herm = np.all(np.abs(A.imag) < 1e-14) if np.iscomplexobj(A) else True
    else:
        herm = _max_abs(A - A.conj().T) < 1e-12 * max(1.0, _max_abs(A))
    if herm:
        scale = max(abs(val), 1.0)
        if abs(val.imag) > 1e-10 * scale:
            raise AssertionError(f"Hermitian observable returned imag part {val.imag}")
        return val.real
    return val


def _eigenbasis_block(A, idx_i, idx_j, q_i, q_j):
    """Matrix elements <n|A|m>, n in block i, m in block j."""
    if A.ndim == 1:
        return (q_i.conj().T * A[idx_i]) @ q_j
    sub = A[np.ix_(idx_i, idx_j)]
    if not sub.any():
        return None
    return q_i.conj().T @ sub @ q_j


def _duhamel_kernel(beta, w_row, w_col):
    """kern[n, m] = kappa(E_m, E_n) for E_n in w_row, E_m in w_col.

    kappa(E, E') = (e^{-beta E} - e^{-beta E'}) / (beta (E' - E)), continued
    through E = E' by its limit e^{-beta E}.  kappa is symmetric, so it is
    taken from the lower energy, e^{-beta min} (1 - e^{-d}) / d with
    d = beta |E - E'|: neither factor exceeds 1 on energies above the ground
    state, however wide the gap.  Energies are used as given; callers divide
    by a consistently shifted Z, so a common shift cancels.
    """
    em = w_col[None, :]
    en = w_row[:, None]
    delta = beta * np.abs(en - em)
    small = delta < _GAP_SERIES_CUTOFF
    safe = np.where(small, 1.0, delta)
    ratio = np.where(small, 1.0 - delta / 2.0 + delta ** 2 / 6.0,
                     -np.expm1(-safe) / safe)
    return np.exp(-beta * np.minimum(en, em)) * ratio


def _component_labels(H):
    mask = H != 0.0
    np.fill_diagonal(mask, True)
    graph = csr_matrix(mask)
    _, labels = connected_components(graph, directed=False)
    return labels


def spectral(H, beta, check=True):
    """Eigendecompose H (blockwise) and attach thermal weights at beta."""
    return SpectralData(H, beta, check=check)


# -- charge correlations ------------------------------------------------------


@lru_cache(maxsize=8)
def _correlation_state(params, nu, ell, which):
    lat = _model_lattice(nu, ell)
    basis = build_basis(lat, params.n_max)
    H = _model.build_original(params, basis)
    if which == "zigzag":
        H = _model.build_zigzag(basis).conjugate(H)
    elif which == "doubleprime":
        H = _model.build_doubleprime(params, basis)
    elif which != "original":
        raise ValueError(f"which must be 'original', 'zigzag' or 'doubleprime', got {which!r}")
    spec = spectral(H, params.beta)
    qd = _model.charge_diagonals(basis)
    return lat, basis, spec, qd


@lru_cache(maxsize=32)
def _model_lattice(nu, ell):
    from .lattice import build_lattice

    return build_lattice(nu, ell)


def charge_correlation(params, nu, ell, x, y, which="original"):
    """<q_x q_y> under the chosen Hamiltonian on the (nu, ell) torus.

    ``which`` selects the original H, its zigzag image V H V^-1 (for which
    <q_x q_y> picks up exactly the staggered sign (-1)^(|x| + |y|) relative
    to the original -- an identity that survives phonon truncation because
    the zigzag unitary is exact and the Lang-Firsov unitary commutes with
    every q), or the formula-built H''.
    """
    lat, basis, spec, qd = _correlation_state(params, nu, ell, which)
    i, j = lat.site_index[lat.wrap(x)], lat.site_index[lat.wrap(y)]
    diag = np.repeat(qd[i] * qd[j], basis.boson_dim)
    return spec.expectation(diag)


# -- the g, b, c quantities of the infrared bound -------------------------------


def quadratic_form_quantities(params, basis, h, spec, H, bond_expectations=None):
    """(g, b, c) for the observable A = sum_x q_x ((-Delta) h)_x under H''.

    g = <A* A>, b = the Duhamel (A, A), c = beta <[A, [H'', A*]]>.  Each is a
    Hermitian form in f = (-Delta) h: g = f^H G f, b = f^H B f and
    c = beta f^H C f, with the N x N matrices (N = n_sites) of
    :func:`_quadratic_forms`.  They are built on the first call for a
    (spec, basis, H) and cached on ``spec``.  The build costs about N
    evaluations of one field by direct sums over the blocks (0.5 s at dim
    4096 on one BLAS thread); after it a field costs O(N^2) plus the bond sum
    below, and touches no block.  A caller with one field that needs only g
    should take the diagonal expectation <|a|^2> instead, as
    :func:`hhlab.bounds.finite_volume_fourier_check` does.

    The nested commutator is evaluated two ways -- from the Hamiltonian
    matrix (A is diagonal, so [A, [H, A*]] = -H o |a_k - a_l|^2, which is
    what C holds) and from the closed-form bond expansion with coefficients
    t |f_x + f_y|^2 -- and the two must agree to 1e-9 relative.

    ``spec`` must be the spectral data of the same H'' matrix used for the
    direct route;  ``bond_expectations`` optionally carries precomputed
    thermal expectations of the pairing bond terms (see
    :func:`pairing_bond_expectations`); without them every call computes
    them from the blocks.
    """
    lat = basis.lattice
    h = np.asarray(h, dtype=complex)
    f = lat.laplacian(-h)          # f = (-Delta) h
    G, B, C = _quadratic_forms(spec, basis, H)
    g_q = np.vdot(f, G @ f).real   # G is real symmetric
    b_q = np.vdot(f, B @ f)
    if abs(b_q.imag) > 1e-9 * max(1.0, abs(b_q)):
        raise AssertionError(f"(A, A) should be real, got {b_q}")
    b_q = b_q.real
    c_direct = np.vdot(f, C @ f)
    if abs(c_direct.imag) > 1e-10 * max(1.0, abs(c_direct)):
        raise AssertionError(f"<[A, [H, A*]]> should be real, got {c_direct}")
    c_direct = params.beta * c_direct.real

    # closed form: [A, [T'', A*]] = sum_bonds t |f_x + f_y|^2 (phase c*c* + h.c.)
    # i.e. each stored bond term (built with -t) reweighted by -|f_x + f_y|^2
    if bond_expectations is None:
        bond_expectations = pairing_bond_expectations(params, basis, spec)
    c_closed = 0.0
    for (x, y, _, _), w in bond_expectations:
        fx, fy = f[lat.site_index[x]], f[lat.site_index[y]]
        c_closed += -params.beta * abs(fx + fy) ** 2 * w
    scale = max(abs(c_direct), abs(c_closed), 1.0)
    if abs(c_direct - c_closed) > 1e-9 * scale:
        raise AssertionError(
            f"nested commutator mismatch: direct {c_direct}, closed form {c_closed}")
    return float(g_q), float(b_q), float(c_direct)


def _quadratic_forms(spec, basis, H):
    """(G, B, C) for ``spec``, ``basis`` and ``H``: built on first use, then
    held in the single slot ``spec._forms``.

    The slot is keyed by the identity of ``basis`` and ``H`` and keeps both
    alive, so a recycled id cannot hit a stale entry; another pair replaces it.
    """
    slot = spec._forms
    if slot is None or slot[0] is not basis or slot[1] is not H:
        slot = spec._forms = (basis, H, _build_quadratic_forms(spec, basis, H))
    return slot[2]


def _build_quadratic_forms(spec, basis, H):
    """The N x N Hermitian matrices of g, b and c/beta for A = sum_x f_x q_x.

    With q_x(k) the centred charge of basis state k (below), M_x =
    Q^H diag(q_x) Q on a block with eigenvectors Q, kappa the Duhamel kernel
    of the block, rho_i its Gibbs block and D_x,kl = q_x(k) - q_x(l):

        G_xy = sum_k rho_kk q_x(k) q_y(k)
        B_xy = Z^-1 sum_blocks sum_nm kappa_nm conj(M_x)_nm (M_y)_nm
        C_xy = -sum_blocks sum_kl conj(rho_i)_kl H_kl D_x,kl D_y,kl

    The charges are centred, q_x - N^-1 sum_y q_y: f = (-Delta) h sums to
    zero, so A is unchanged, and the forms lose the total-charge mode whose
    large entries f^H M f would otherwise cancel (about three digits of b on
    the 2x2 torus).  Each form is summed block by block for x <= y and
    mirrored as its conjugate, so it is exactly Hermitian; no full-space or
    per-site dim^2 array is formed.  The cost is N products Q^H diag(q_x) Q
    per block, about N per-field evaluations of the direct sums.
    """
    qd = _model.charge_diagonals(basis)
    n = qd.shape[0]
    upper = [(x, y) for x in range(n) for y in range(x, n)]
    G = np.zeros((n, n))
    B = np.zeros((n, n), dtype=complex)
    C = np.zeros((n, n), dtype=complex)
    rho_d = spec.rho_diag()
    for (idx, w, q), rho_i in zip(spec.blocks, spec.rho_blocks()):
        qb = qd[:, idx // basis.boson_dim]          # q_x on the block, one row per site
        m = []
        for qx in qb:
            nz = np.flatnonzero(qx)                 # q_x is 0 on about half the states
            m.append((q[nz].conj().T * qx[nz]) @ q[nz])
        mean = sum(m) / n
        m = [mx - mean for mx in m]
        qb = qb - qb.mean(axis=0)
        kern = _duhamel_kernel(spec.beta, w - spec.e0, w - spec.e0)
        d = [qx[:, None] - qx[None, :] for qx in qb]
        nested = -H[np.ix_(idx, idx)] * np.conj(rho_i)
        for x, y in upper:
            G[x, y] += np.dot(rho_d[idx], qb[x] * qb[y])
            B[x, y] += np.vdot(m[x], kern * m[y])
            C[x, y] += np.sum(nested * (d[x] * d[y]))
    B /= spec.z_shifted
    for M in (B, C):
        M.imag[np.diag_indices(n)] = 0.0           # a Hermitian diagonal is real
    lower = np.tril_indices(n, -1)
    for M in (G, B, C):
        M[lower] = np.conj(M.T[lower])
    return G, B, C


def pairing_bond_expectations(params, basis, spec):
    """Thermal expectation of each pairing bond term of T''.

    Returns [((x, y, j, eps), <term>), ...]; the closed form of the nested
    commutator is a reweighting of exactly these numbers, so computing them
    once per spectral data makes the g/b/c evaluation O(1) per field h.
    """
    out = []
    for key, term in _model.pairing_bond_terms(params, basis):
        out.append((key, spec.expectation(term)))
    return out


class HamiltonianFamily:
    """A coupling-linear family H(c) = sum_k c_k S_k on a fixed basis.

    Each structure S_k is a dense matrix or, when diagonal, a 1-d vector.
    The union sparsity pattern of the dense structures -- and hence the
    component split -- is coupling-independent, so it is computed once and
    every member of the family is diagonalized sector by sector, with a real
    ``eigh`` when every structure is real.  Meant for scans over many
    parameter draws on one geometry.
    """

    def __init__(self, structures):
        names = list(structures)
        dim = structures[names[0]].shape[0]
        mask = np.zeros((dim, dim), dtype=bool)
        for name in names:
            if structures[name].ndim == 2:
                mask |= structures[name] != 0.0
        labels = _component_labels(mask)
        self.dim = dim
        self.names = names
        self.dtype = np.result_type(*structures.values())
        self.sectors = []
        for lab in range(labels.max() + 1):
            idx = np.flatnonzero(labels == lab)
            restricted = {name: s[idx] if s.ndim == 1 else np.ascontiguousarray(s[np.ix_(idx, idx)])
                          for name, s in structures.items()}
            self.sectors.append((idx, restricted))

    def spectral(self, coeffs, beta):
        """SpectralData of H(coeffs) at inverse temperature beta."""
        unknown = set(coeffs) - set(self.names)
        if unknown:
            raise ValueError(f"unknown couplings {sorted(unknown)}")
        blocks = []
        for idx, restricted in self.sectors:
            M = np.zeros((len(idx), len(idx)), dtype=self.dtype)
            for name, c in coeffs.items():
                if c != 0.0:
                    s = restricted[name]
                    if s.ndim == 1:
                        M.flat[::len(idx) + 1] += c * s
                    else:
                        M += c * s
            w, q = np.linalg.eigh(M)
            blocks.append((idx, w, q))
        return SpectralData.from_blocks(blocks, self.dim, beta)
