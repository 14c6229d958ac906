"""Spectral decomposition, thermal expectations, the infrared forms and
charge correlations.

A Hamiltonian is split into the connected components of its exact
sparsity pattern, and into a gauge in which each component without flux is
real, by ``sectors._gauged_sparse``; its entries are scattered into stacks
of equal-size dense blocks (``sectors._block_stacks``), each
eigendecomposed exactly with dense LAPACK.  A "dirty" matrix degrades to
one big block, never to a wrong answer.  The Gibbs state is block-diagonal
over the components, and it is kept only at H's entries: an observable
enters a thermal average only through its nonzero entries inside the
components, and each Gibbs block is dropped as soon as it is read.

The infrared forms g, b and c are built from the spectral data alone
(:func:`quadratic_form_quantities`).  All exponentials are shifted by the
ground energy so beta can be large.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import blas
from scipy.sparse import coo_array, issparse

from . import model as _model
from . import sectors as _sectors
from .hilbert import hermiticity_residual

__all__ = [
    "SpectralData",
    "spectral",
    "charge_correlation",
    "quadratic_form_quantities",
    "pairing_bond_expectations",
]

_GAP_SERIES_CUTOFF = 1e-6
# SpectralData solves the blocks of one size in stacks of at most this
_STACK_BYTES = 1 << 20
# _kernel_gram holds a block's charge products and Duhamel kernel in tiles of
# at most this (or one entry); a block of 576 real states is one tile
_TILE_BYTES = 16 << 20


class SpectralData:
    """Eigenpairs of a Hermitian matrix plus cached thermal weights.

    Each component of H (dense or scipy.sparse) is solved in the gauge d of
    ``sectors._gauged_sparse``: by a real ``eigh`` of G = conj(d) H_blk d where
    it carries no flux, else by a complex ``eigh`` of H_blk (d = 1 there).
    The eigenvectors are stored in the gauge (those of H are Q = diag(d) q),
    and the Gibbs state, thermal sums and infrared forms are taken there,
    in real arithmetic on the real blocks.  beta must be finite and >= 0,
    or construction raises ValueError before any block is solved.

    The eigenpairs must reproduce H to 1e-9 times its largest entry, or
    construction raises AssertionError.  On a real block the residual is the
    elementwise bound |q w q^T - Re G| + |Im G| >= |Q W Q^H - H_blk|: the
    imaginary part the real ``eigh`` discards is charged to the check.

    H's gauged off-diagonal entries are kept for the infrared forms, grouped
    by component (``_entries``) before any block is solved.  At its peak the
    build holds H's entries twice (as read and as kept), the eigenvectors
    solved so far (the largest blocks first, so the fewest then), and one
    stack of at most _STACK_BYTES or one block, gauged in place, with its
    eigenvectors and two one-block temporaries.  At 2x2, n_max = 1 that is
    22 MiB traced, 14 MiB of it kept; at n_max = 2, 545 MiB, 340 MiB kept.
    The Gibbs state is read once, on first use, at those entries
    (:meth:`_rho_entries`, one more value per entry: 31 MiB at n_max = 2),
    one component's Gibbs block at a time; no Gibbs block is kept.

    Attributes of interest: ``beta``, ``e0`` (ground energy), ``logZ``,
    ``blocks`` and ``real_blocks``.  Immutable once built.
    """

    def __init__(self, H, beta):
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        beta = float(beta)
        if not 0.0 <= beta < np.inf:        # nan fails both
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        labels, phase, entries, flux = _sectors._gauged_sparse(H)
        self.dim = n
        self._block_of = labels                 # component of each basis index
        # each component's size, and each basis index's position in its component
        _, self._size, _, self._position = _sectors._positions(labels)
        self._phase = phase                     # the gauge d on the full space
        self._eig = eig = [None] * len(flux)    # (indices, w, q) with q in the gauge
        # H's off-diagonal entries (the diagonal is the last n), for the forms
        self._entries = self._by_component(*(a[:-n] for a in entries))
        scale, res = max(1e-300, float(np.abs(entries[2]).max())), 0.0
        for labs, idx, (blk,) in _sectors._block_stacks(labels, [entries], _STACK_BYTES):
            real = flux[labs] == 0.0
            if real.all():              # gauged in place, in the order of sectors._gauged
                np.multiply(phase[idx].conj()[..., None], blk, out=blk)
                g = np.multiply(blk, phase[idx][:, None], out=blk)
            else:
                g = _sectors._gauged(blk, phase[idx], phase[idx])
            for sel, a, target in ((real, g.real, g), (~real, blk, blk)):
                if not sel.any():
                    continue
                if not sel.all():               # a copy only for a mixed stack
                    a, target = a[sel], target[sel]
                w, q = np.linalg.eigh(a)
                res = max(res, _block_residual(w, q, target))
                for lab, i, wi, qi in zip(labs[sel], idx[sel], w, q):
                    eig[lab] = (i, wi, qi)
            del blk, g, a, target       # released before the next stack is scattered
        if res > 1e-9 * scale:
            raise AssertionError(f"eigendecomposition residual {res} too large")
        self.beta = beta
        self.e0 = min(float(w[0]) for _, w, _ in eig)
        self._weights = [np.exp(-self.beta * (w - self.e0)) for _, w, _ in eig]
        self.z_shifted = float(sum(wt.sum() for wt in self._weights))
        self.logZ = -self.beta * self.e0 + float(np.log(self.z_shifted))
        self._rho_diag = None
        self._rho_at = None
        self._forms = None

    @property
    def blocks(self):
        """[(indices, w, Q)] with Q the unitary eigenvectors of H's component,
        built on each access."""
        return [(idx, w, self._phase[idx, None] * q) for idx, w, q in self._eig]

    @property
    def real_blocks(self):
        """One flag per component: True where it was solved by a real ``eigh``."""
        return [np.isrealobj(q) for _, _, q in self._eig]

    @property
    def eigenvalues(self):
        return np.sort(np.concatenate([w for _, w, _ in self._eig]))

    def _gauge(self, a, rows, cols):
        """conj(d[rows]) a d[cols]: the rows x cols part a of an operator, in the gauge."""
        return _sectors._gauged(a, self._phase[rows], self._phase[cols])

    def rho_diag(self):
        """Diagonal of the Gibbs state in the original basis."""
        if self._rho_diag is None:
            d = np.zeros(self.dim)
            for (idx, _, q), wt in zip(self._eig, self._weights):
                d[idx] = (np.abs(q) ** 2) @ wt
            self._rho_diag = d / self.z_shifted
        return self._rho_diag

    def _gibbs_block(self, c):
        """Component c's Gibbs block in the gauge, q diag(e^{-beta w}) q^H / Z; not kept."""
        (_, _, q), wt = self._eig[c], self._weights[c]
        r = (q * wt) @ q.conj().T
        r /= self.z_shifted
        return r

    def _rho_entries(self):
        """The gauged Gibbs state at H's off-diagonal entries, aligned with
        ``_entries``: built once, each component's Gibbs block dropped once read."""
        if self._rho_at is None:
            key, _, ends = self._entries
            real = all(np.isrealobj(q) for _, _, q in self._eig)
            rho = np.empty(len(key), dtype=float if real else complex)
            for c in np.flatnonzero(np.diff(ends)):
                s = slice(ends[c], ends[c + 1])
                rho[s] = self._gibbs_block(c).take(key[s])
            self._rho_at = rho
        return self._rho_at

    # -- thermal averages --

    def expectation(self, A):
        """<A> = Tr[A e^{-beta H}] / Z.  A may be a dense matrix, a
        scipy.sparse matrix or a diagonal (1-d array).  Hermitian input gives
        a real result; the imaginary part is checked to be < 1e-10 relative
        and discarded then.

        Tr(rho A) = sum_ij conj(rho_ij) A_ij (rho is Hermitian) runs over the
        nonzero entries of A inside the components only: rho is exactly 0
        between them.  In the gauge, conj(rho_ij) A_ij = conj(r_ij)
        (conj(d_i) A_ij d_j) with r the gauged Gibbs block.
        """
        A = A if issparse(A) else np.asarray(A)
        if A.ndim not in (1, 2) or A.shape != (self.dim,) * A.ndim:
            raise ValueError(f"operator has shape {A.shape}, not the dimension {self.dim} "
                             f"of the spectral data")
        val = complex(np.dot(A, self.rho_diag())) if A.ndim == 1 else self._sparse_trace(A)
        return _realize_if_hermitian(val, A)

    def _sparse_trace(self, A):
        """Tr(rho A) from the nonzero entries of A inside one component.

        rho is read at H's entries (:meth:`_rho_entries`, first, so that no
        Gibbs block is formed beside A's entries), whose keys rise within
        each component; a component where A has an entry off them (on its
        diagonal, say) forms its Gibbs block for this call.
        """
        rho = self._rho_entries()
        A = coo_array(A)
        key, data, ends = self._by_component(A.row, A.col, A.data)
        keys, _, at = self._entries
        total = 0.0 + 0.0j
        for c in np.flatnonzero(np.diff(ends)):
            s, h = slice(ends[c], ends[c + 1]), slice(at[c], at[c + 1])
            pattern = keys[h]
            pos = np.searchsorted(pattern, key[s])
            if pos.max() < len(pattern) and np.array_equal(pattern[pos], key[s]):
                r = rho[h][pos]
            else:
                r = self._gibbs_block(c).take(key[s])
            total += np.vdot(r.real if np.isrealobj(self._eig[c][2]) else r, data[s])
        return complex(total)

    def _by_component(self, rows, cols, vals):
        """(key, vals, ends): the entries inside the components, gauged, at
        key = k n + l with k and l their positions in a component of n
        states; component c at ends[c]:ends[c + 1]."""
        comp = self._block_of[rows]
        inside = np.flatnonzero(comp == self._block_of[cols])
        inside = inside[np.argsort(comp[inside], kind="stable")]
        ends = np.searchsorted(comp[inside], np.arange(len(self._eig) + 1))
        rows, cols, vals = rows[inside], cols[inside], vals[inside]
        del comp, inside
        vals = self._gauge(vals, rows, cols)
        key = self._size[self._block_of[rows]]
        key *= self._position[rows]
        key += self._position[cols]
        return key, vals, ends


def _realize_if_hermitian(val, A):
    if A.ndim == 1:
        herm = np.all(np.abs(A.imag) < 1e-14) if np.iscomplexobj(A) else True
    else:
        herm = hermiticity_residual(A) < 1e-12 * max(1.0, float(abs(A).max()))
    if herm:
        scale = max(abs(val), 1.0)
        if abs(val.imag) > 1e-10 * scale:
            raise AssertionError(f"Hermitian observable returned imag part {val.imag}")
        return val.real
    return val


def _duhamel_kernel(beta, w_row, w_col):
    """kern[n, m] = kappa(E_m, E_n) for E_n in w_row, E_m in w_col.

    kappa(E, E') = (e^{-beta E} - e^{-beta E'}) / (beta (E' - E)), continued
    through E = E' by its limit e^{-beta E}.  kappa is symmetric, so it is
    taken from the lower energy, e^{-beta min} (1 - e^{-d}) / d with
    d = beta |E - E'|: neither factor exceeds 1 on energies above the ground
    state, however wide the gap; below _GAP_SERIES_CUTOFF the ratio is its
    Taylor series.  Each step is symmetric in (E, E'), and e^{-beta min} is
    the larger exponential.  Energies are used as given; callers divide by a
    consistently shifted Z, so a common shift cancels.
    """
    neg = np.subtract.outer(w_row, w_col)
    np.abs(neg, out=neg)
    neg *= -beta                                    # -d
    small = neg > -_GAP_SERIES_CUTOFF
    d = -neg[small]
    with np.errstate(invalid="ignore"):             # 0 / 0 at d = 0, replaced below
        kern = np.expm1(neg)
        kern /= neg
    kern[small] = 1.0 - d / 2.0 + d ** 2 / 6.0
    kern *= np.maximum.outer(np.exp(-beta * w_row), np.exp(-beta * w_col), out=neg)
    return kern


def _block_residual(w, q, g):
    """Largest entry of |q w q^H - g| over a block or a stack of blocks, with
    Re g in place of g and |Im g| added where q is real: an elementwise
    bound on |Q W Q^H - H_blk|.  Taken one block at a time, in place."""
    n, res = q.shape[-1], 0.0
    for wi, qi, gi in zip(w.reshape(-1, n), q.reshape(-1, n, n), g.reshape(-1, n, n)):
        back = (qi * wi) @ qi.T.conj()
        if np.isrealobj(qi) and np.iscomplexobj(gi):
            back -= gi.real
            np.abs(back, out=back)
            back += np.abs(gi.imag)
        else:
            back = np.abs(back - gi)
        res = max(res, float(back.max()))
    return res


def spectral(H, beta):
    """Eigendecompose H (blockwise) and attach thermal weights at beta."""
    return SpectralData(H, beta)




# -- charge correlations --


@lru_cache(maxsize=8)
def _correlation_state(params, basis, which):
    """(rho's diagonal, the charge diagonals): all that <q_x q_y> reads of
    the Gibbs state, so an entry keeps no eigenvectors."""
    if which not in ("original", "zigzag"):
        raise ValueError(f"which must be 'original' or 'zigzag', got {which!r}")
    H = _model.build_original_csr(params, basis)
    if which == "zigzag":
        H = _model.build_zigzag(basis).conjugate(H)
    return spectral(H, params.beta).rho_diag(), _model.charge_diagonals(basis)


def charge_correlation(params, basis, x, y, which="original"):
    """<q_x q_y> under the chosen Hamiltonian on ``basis`` (built on a torus).

    ``which`` selects the original H or its zigzag image V H V^-1, for which
    <q_x q_y> picks up exactly the staggered sign (-1)^(|x| + |y|) relative
    to the original -- an identity that survives phonon truncation because
    the zigzag unitary is exact and the Lang-Firsov unitary commutes with
    every q.
    """
    lat = basis.lattice
    rho, qd = _correlation_state(params, basis, which)
    i, j = lat.site_index[lat.wrap(x)], lat.site_index[lat.wrap(y)]
    return float(np.dot(np.repeat(qd[i] * qd[j], basis.boson_dim), rho))


# -- the g, b, c quantities of the infrared bound --


def quadratic_form_quantities(params, basis, h, spec, bond_expectations=None):
    """(g, b, c) for the observable A = sum_x q_x ((-Delta) h)_x under H''.

    g = <A* A>, b = the Duhamel (A, A), c = beta <[A, [H'', A*]]>: forms in
    f = (-Delta) h, g = f^H G f, b = f^H B f, c = beta f^H C f, with G, B, C
    of :func:`_quadratic_forms`, cached on ``spec`` (built without reading
    H''); then a field costs one product of N x N forms.

    The nested commutator is evaluated two ways -- from the Hamiltonian
    matrix (A is diagonal, so [A, [H, A*]] = -H o |a_k - a_l|^2, which is
    what C holds) and from the closed-form bond expansion with coefficients
    t |f_x + f_y|^2 (:func:`_bond_form`) -- and the two must agree to 1e-9
    relative.

    ``spec`` must be the spectral data of H'', whose entries it keeps; one
    whose dimension is not ``basis.total_dim`` is refused with ValueError
    before any block is read, as is an h whose shape is not (n_sites,) or
    with an entry that is not finite.  ``bond_expectations`` are those of
    :func:`pairing_bond_expectations`; without them they are computed once
    per ``params`` and kept on ``spec``.
    """
    h = _model._site_field(h, basis.n_sites, complex)
    f = basis.lattice.laplacian_matrix() @ h                              # f = (-Delta) h
    return _form_values(params, basis, f, spec, bond_expectations)


def _form_values(params, basis, f, spec, bond_expectations=None):
    """(g, b, c) of :func:`quadratic_form_quantities` at f = (-Delta) h."""
    _check_dimension(spec, basis)
    _quadratic_forms(spec, basis)
    slot = spec._forms
    own = bond_expectations is None
    if own:
        bond_expectations = slot[2] if slot[3] == params else pairing_bond_expectations(
            params, basis, spec)
    if slot[2] is not bond_expectations:
        slot[1][3] = _bond_form(basis, bond_expectations)
        slot[2], slot[3] = bond_expectations, params if own else None
    g_q, b_q, c_direct, c_closed = ((slot[1] @ f) @ f.conj()).tolist()
    if abs(b_q.imag) > 1e-9 * max(1.0, abs(b_q)):
        raise AssertionError(f"(A, A) should be real, got {b_q}")
    if abs(c_direct.imag) > 1e-10 * max(1.0, abs(c_direct)):
        raise AssertionError(f"<[A, [H, A*]]> should be real, got {c_direct}")
    c_direct, c_closed = params.beta * c_direct.real, -params.beta * c_closed.real
    if abs(c_direct - c_closed) > 1e-9 * max(abs(c_direct), abs(c_closed), 1.0):
        raise AssertionError(
            f"nested commutator mismatch: direct {c_direct}, closed form {c_closed}")
    return g_q.real, b_q.real, c_direct


def _check_dimension(spec, basis):
    if spec.dim != basis.total_dim:
        raise ValueError(f"spec has dimension {spec.dim}, not the basis dimension "
                         f"{basis.total_dim}")


def _bond_form(basis, bond_expectations):
    """W, f^H W f = sum_bonds |f_x + f_y|^2 <term>: [A, [T'', A*]] is each
    bond term (built with -t) reweighted by -|f_x + f_y|^2."""
    index, W = basis.lattice.site_index, np.zeros((basis.n_sites,) * 2)
    for (x, y, _, _), w in bond_expectations:
        ends = [index[x], index[y]]
        np.add.at(W, np.ix_(ends, ends), w)
    return W


def _quadratic_forms(spec, basis):
    """(G, B, C), built on first use into the single slot ``spec._forms`` =
    [basis, (G, B, C, W), the bonds of W, the params they were computed here
    for or None], keyed by the identity of ``basis``: it keeps the basis
    alive, so a recycled id cannot hit a stale entry."""
    slot = spec._forms
    if slot is None or slot[0] is not basis:
        forms = np.zeros((4, basis.n_sites, basis.n_sites), complex)   # as f: no cast
        forms[:3] = _build_quadratic_forms(spec, basis)
        slot = spec._forms = [basis, forms, None, None]
    return slot[1][:3].real


def _build_quadratic_forms(spec, basis):
    """The N x N real symmetric matrices of g, b and c/beta for A = sum_x f_x q_x.

    With q_x(k) the centred charge of basis state k (below), M_x =
    Q^H diag(q_x) Q on a block with eigenvectors Q, kappa the Duhamel kernel
    of the block, rho the Gibbs state and D_x,kl = q_x(k) - q_x(l):

        G_xy = sum_k rho_kk q_x(k) q_y(k)
        B_xy = Z^-1 sum_blocks sum_nm kappa_nm conj(M_x)_nm (M_y)_nm
        C_xy = -sum_kl conj(rho)_kl H_kl D_x,kl D_y,kl

    The charges are centred, q_x - N^-1 sum_y q_y: f = (-Delta) h sums to
    zero, so A is unchanged, and the forms lose the total-charge mode whose
    large entries f^H M f would otherwise cancel (about three digits of b on
    the 2x2 torus).  B and C are real (each equals its conjugate).

    Everything is taken in the gauge of ``spec``: diag(q_x) commutes with it,
    so M_x = q^H diag(q_x) q with the gauged eigenvectors q, and
    conj(rho) o H = conj(r) o G with r the gauged Gibbs state and
    G = conj(d) H d.  The M_x are combinations of a few p_j and I
    (:func:`_charge_differences`): B takes their kappa-Gram matrix, built
    in tiles of bounded size (:func:`_kernel_gram`).  C runs over the
    off-diagonal nonzeros of G (``SpectralData._entries``), where r is read
    once (``SpectralData._rho_entries``): no Gibbs block is kept.  The forms
    are mirrored from the upper triangle: exactly symmetric.
    """
    qd = _model.charge_diagonals(basis)
    centred = (qd - qd.mean(axis=0))[:, np.arange(spec.dim) // basis.boson_dim]
    rho = spec.rho_diag()
    G = (centred * rho) @ centred.T
    B, C = np.zeros((2,) + G.shape)
    stag = basis.lattice.staggered_signs
    # a state alone in its component has M_x = q_x and no entry off the diagonal
    lone = spec._size[spec._block_of] == 1
    key, h_all, ends = spec._entries
    rho_at = spec._rho_entries()
    for c, ((idx, w, q), wt) in enumerate(zip(spec._eig, spec._weights)):
        if len(idx) == 1:
            continue
        diff, coef = _charge_differences(qd[:, idx // basis.boson_dim], stag)
        B += coef @ _kernel_gram(q, w - spec.e0, wt, diff, spec.beta) @ coef.T
        s = slice(ends[c], ends[c + 1])
        (k, l), h_kl, r = np.divmod(key[s], len(idx)), h_all[s], rho_at[s]
        nested = -(r.conj() * h_kl).real if np.iscomplexobj(q) else r.real * -h_kl.real
        cb = centred[:, idx]
        d = cb.take(k, axis=1) - cb.take(l, axis=1)
        C += (d * nested) @ d.T
    B = B / spec.z_shifted + (centred[:, lone] * rho[lone]) @ centred[:, lone].T
    lower = np.tril_indices(len(qd), -1)
    for M in (G, B, C):
        M[lower] = M.T[lower]
    return G, B, C


def _charge_differences(qb, stag):
    """The centred M_x = q^H diag(q_x - N^-1 sum_y q_y) q of a block (qb
    (N, n) the charges of its states) as (diff, coef): with p[j] =
    q^H diag(diff[j]) q, M_x = sum_j coef[x, j] p[j] + coef[x, -1] I.

    diff[j] = q_{j+1} - q_0 (differences in -2..2, free of the total-charge
    mode).  Where sum_x stag_x = 0 and the staggered charge sum_x stag_x q_x
    is one c on the block (H'' conserves it), the last difference follows
    from the others and c I.
    """
    n_sites = len(qb)
    diff = qb[1:] - qb[0]
    coef = np.zeros((n_sites, n_sites))
    coef[1:, :-1] = np.eye(n_sites - 1)
    charge = stag @ qb
    if n_sites > 1 and stag.sum() == 0 and charge.min() == charge.max():
        diff = diff[:-1]
        coef[-1] = np.r_[-stag[-1] * stag[1:-1], 0.0, stag[-1] * charge[0]]
    return diff, (coef - coef.mean(axis=0))[:, np.r_[:len(diff), -1]]


def _kernel_gram(q, w, wt, diff, beta):
    """gram[i, j] = sum_nm kappa_nm conj(p_i)_nm (p_j)_nm over the products
    p_j = q^H diag(diff[j]) q of a block and p_-1 = I (kappa_nn = wt), with
    kappa the Duhamel kernel of the shifted energies w.

    The p_j are taken in their lower triangles, in tiles of the eigen-index
    that hold at most _TILE_BYTES of products and kernel: row slabs, each a
    square on the diagonal (one rank-k update, syrk or herk, per charge
    value, of the slab's columns of q) and the squares left of it (one
    product per j over the states where diff[j] is not 0).  The Gram matrix
    counts each off-diagonal pair of the triangles twice.  A block within
    the budget is one tile, with one update per value over the whole of q.
    """
    n, m = len(w), len(diff)
    step = max(1, math.isqrt(_TILE_BYTES // ((m + 2) * q.itemsize)))
    slabs = [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]
    nonzero = [np.flatnonzero(dj) for dj in diff]
    diag = np.empty((m + 1, n))
    diag[-1] = np.sqrt(wt)
    cross = None
    for i, rows in enumerate(slabs):
        p = _charge_products(q[:, rows], diff)
        p *= _root_kernel(beta, w[rows], w[rows])
        diag[:-1, rows] = np.diagonal(p, 0, 1, 2).real
        cross = _gram(p) if cross is None else cross + _gram(p)
        for cols in slabs[:i]:
            p = np.empty((m, rows.stop - rows.start, cols.stop - cols.start), dtype=q.dtype)
            for j, (dj, nz) in enumerate(zip(diff, nonzero)):
                left = q[nz, rows].T * dj[nz]
                np.matmul(left.conj() if np.iscomplexobj(left) else left, q[nz, cols], out=p[j])
            p *= _root_kernel(beta, w[rows], w[cols])
            cross += _gram(p)
    gram = diag @ diag.T
    gram[:-1, :-1] += 2.0 * (cross - gram[:-1, :-1])
    return gram


def _root_kernel(beta, w_row, w_col):
    """The square root of :func:`_duhamel_kernel`, taken in place."""
    kern = _duhamel_kernel(beta, w_row, w_col)
    return np.sqrt(kern, out=kern)


def _gram(p):
    """sum_kl conj(p_i)_kl (p_j)_kl for a stack p of matrices."""
    p = p.reshape(len(p), p.shape[1] * p.shape[2])
    return (p.conj() @ p.T).real if np.iscomplexobj(p) else p @ p.T


def _charge_products(q, diff):
    """p[j] = q^H diag(diff[j]) q in its lower triangle (+0.0 above), one
    rank-k update (syrk, or herk if complex) per value of diff[j]."""
    update = blas.zherk if np.iscomplexobj(q) else blas.dsyrk
    p = np.zeros((len(diff),) + (q.shape[1],) * 2, dtype=q.dtype)
    for j, dj in enumerate(diff):
        for v in np.unique(dj[dj != 0]):
            update(v, q[dj == v].T, beta=1.0, c=p[j].T, overwrite_c=1)
    return p


def pairing_bond_expectations(params, basis, spec):
    """Thermal expectation of each pairing bond term of T'', the terms built
    and read one at a time.

    Returns [((x, y, j, eps), <term>), ...]; the closed form of the nested
    commutator is a reweighting of exactly these numbers, so computing them
    once per spectral data makes the g/b/c evaluation O(1) per field h.
    A ``spec`` whose dimension is not ``basis.total_dim`` is refused with
    ValueError before any term is built.
    """
    _check_dimension(spec, basis)
    return [(key, spec.expectation(term))
            for key, term in _model.pairing_bond_terms(params, basis)]

