"""Spectral decomposition, thermal expectations, the infrared forms and
charge correlations.

A Hamiltonian (a CSR array of hhlab.model, or a dense oracle) is split
into the connected components of its exact sparsity pattern
(H[i, j] != 0.0), read from its nonzero entries by :func:`_gauged_sparse`,
and scattered into stacks of equal-size dense blocks
(:func:`_block_stacks`), each eigendecomposed exactly with dense LAPACK.
A "dirty" matrix degrades to one big block, never to a wrong answer.  The
Gibbs state is kept as its diagonal blocks: an observable enters a thermal
average only through its nonzero entries inside the components.

The same pass reads off a diagonal unitary gauge d from a maximum-modulus
spanning forest of the pattern (_phase_gauge), in which every component
without flux is real symmetric (H'', H, H' and V H V^-1 all are) and is
solved by a real ``eigh``.  The two engines share this split:
``SpectralData`` and ``highest_weight_sectors``, which reduces H'' for the
Z(h) of ``rpverify.FieldPartition`` by the spin SU(2) of the zigzag frame
and by the reflection Theta.

The infrared forms g, b and c are built from the spectral data alone
(:func:`quadratic_form_quantities`).  All exponentials are shifted by the
ground energy so beta can be large.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import blas
from scipy.sparse import coo_array, csr_array, csr_matrix, eye_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from . import model as _model
from .hilbert import Monomial, hermiticity_residual

__all__ = [
    "SpectralData",
    "spectral",
    "highest_weight_sectors",
    "charge_correlation",
    "quadratic_form_quantities",
    "pairing_bond_expectations",
]

_GAP_SERIES_CUTOFF = 1e-6
_GAUGE_IMAG_TOL = 1e-12
# SpectralData solves the blocks of one size in stacks of at most this
_STACK_BYTES = 1 << 20


class SpectralData:
    """Eigenpairs of a Hermitian matrix plus cached thermal weights.

    Each component of H (dense or scipy.sparse) is solved in the gauge d of
    :func:`_gauged_sparse`: by a real ``eigh`` of G = conj(d) H_blk d where
    it carries no flux, else by a complex ``eigh`` of H_blk (d = 1 there).
    The eigenvectors are stored in the gauge (those of H are Q = diag(d) q),
    and the Gibbs blocks, thermal sums and infrared forms are taken there,
    in real arithmetic on the real blocks.

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
    23 MiB traced, 15 MiB of it kept; at n_max = 2, 576 MiB, 371 MiB kept.

    Attributes of interest: ``beta``, ``e0`` (ground energy), ``logZ``,
    ``blocks`` and ``real_blocks``.  Immutable once built.
    """

    def __init__(self, H, beta):
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        labels, phase, entries, flux = _gauged_sparse(H)
        self.dim = n
        self._block_of = labels                 # component of each basis index
        self._position = _positions(labels)[3]  # its index inside the component
        self._phase = phase                     # the gauge d on the full space
        self._eig = eig = [None] * len(flux)    # (indices, w, q) with q in the gauge
        # H's off-diagonal entries (the diagonal is the last n), for the forms
        self._entries = self._by_component(*(a[:-n] for a in entries))
        scale, res = max(1e-300, float(np.abs(entries[2]).max())), 0.0
        for labs, idx, (blk,) in _block_stacks(labels, [entries], _STACK_BYTES):
            real = flux[labs] == 0.0
            if real.all():              # gauged in place, in the order of _gauged
                np.multiply(phase[idx].conj()[..., None], blk, out=blk)
                g = np.multiply(blk, phase[idx][:, None], out=blk)
            else:
                g = _gauged(blk, phase[idx], phase[idx])
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
        self.beta = float(beta)
        self.e0 = min(float(w[0]) for _, w, _ in eig)
        self._weights = [np.exp(-self.beta * (w - self.e0)) for _, w, _ in eig]
        self.z_shifted = float(sum(wt.sum() for wt in self._weights))
        self.logZ = -self.beta * self.e0 + float(np.log(self.z_shifted))
        self._rho_diag = None
        self._gibbs = None
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
        return _gauged(a, self._phase[rows], self._phase[cols])

    def rho_diag(self):
        """Diagonal of the Gibbs state in the original basis."""
        if self._rho_diag is None:
            d = np.zeros(self.dim)
            for (idx, _, q), wt in zip(self._eig, self._weights):
                d[idx] = (np.abs(q) ** 2) @ wt
            self._rho_diag = d / self.z_shifted
        return self._rho_diag

    def _gibbs_blocks(self):
        """Per-component Gibbs blocks in the gauge, q diag(e^{-beta w}) q^H / Z; cached."""
        if self._gibbs is None:
            gibbs = [(q * wt) @ q.conj().T for (_, _, q), wt in zip(self._eig, self._weights)]
            for r in gibbs:
                r /= self.z_shifted
            self._gibbs = gibbs
        return self._gibbs

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
        val = complex(np.dot(A, self.rho_diag())) if A.ndim == 1 else self._sparse_trace(A)
        return _realize_if_hermitian(val, A)

    def _sparse_trace(self, A):
        """Tr(rho A) from the nonzero entries of A inside one component."""
        A = coo_array(A)
        k, l, data, ends = self._by_component(A.row, A.col, A.data)
        rho = self._gibbs_blocks()
        total = 0.0 + 0.0j
        for c in np.flatnonzero(np.diff(ends)):
            s = slice(ends[c], ends[c + 1])
            total += np.vdot(rho[c][k[s], l[s]], data[s])
        return complex(total)

    def _by_component(self, rows, cols, vals):
        """(k, l, vals, ends): the entries inside the components, gauged, k
        and l positions in them; component c at ends[c]:ends[c + 1]."""
        comp = self._block_of[rows]
        inside = np.flatnonzero(comp == self._block_of[cols])
        inside = inside[np.argsort(comp[inside], kind="stable")]
        ends = np.searchsorted(comp[inside], np.arange(len(self._eig) + 1))
        rows, cols, vals = rows[inside], cols[inside], vals[inside]
        del comp, inside
        vals = self._gauge(vals, rows, cols)
        return self._position[rows], self._position[cols], vals, ends


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


def _offdiagonal_pattern(H):
    """Rows, columns and values of H's nonzero off-diagonal entries, row by
    row: of a dense H, or of the stored entries of a scipy.sparse H."""
    if issparse(H):
        H = H.tocoo().tocsr()               # duplicates summed, each row sorted
        rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
        keep = (rows != H.indices) & (H.data != 0)
        return rows[keep], H.indices[keep], H.data[keep]
    rows, cols = np.divmod(np.flatnonzero(H != 0.0), H.shape[0])   # 3x faster than np.nonzero(H)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    return rows, cols, H[rows, cols]


def _phase_gauge(H, entries=None):
    """Component labels of H's exact sparsity pattern, and a gauge d on the
    full space (|d_k| = 1) in which every flux-free component is real.  H is
    dense or scipy.sparse; ``entries`` is its :func:`_offdiagonal_pattern`
    if the caller has it.

    One pass over H's nonzero entries builds a maximum-modulus spanning
    forest of the pattern: the minimum spanning tree of the weights -|H_kl|
    plus a virtual node n joined to every node by a heavier edge, which the
    tree takes once per component.  The phases are carried down each tree
    from the node the virtual edge joins (d = 1 there): a child k of p gets
    d_k = d_p H_kp / |H_kp|, so every tree edge of conj(d) H d is
    |H_pk| > 0.  A Hermitian component without flux is then real, and a
    component with flux stays complex.  The maximum modulus matters: an
    entry at rounding level carries an arbitrary phase, and a tree through
    it would leave O(1) imaginary parts on the large entries it bypasses.
    The phases are multiplied down the trees by pointer jumping, in
    O(n log n).  The components are numbered by their smallest index.
    """
    n = H.shape[0]
    rows, cols, vals = _offdiagonal_pattern(H) if entries is None else entries
    weights = np.concatenate([-np.abs(vals), np.ones(n)])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n)), [len(weights)]])
    tree = minimum_spanning_tree(csr_matrix((weights, np.concatenate([cols, np.arange(n)]), indptr),
                                            shape=(n + 1, n + 1)))
    _, up = breadth_first_order(tree, n, directed=False, return_predecessors=True)
    up = up[:n]
    roots = np.flatnonzero(up == n)
    up[roots] = roots
    # the link H[k, up[k]] (conj(H[up[k], k]) for Hermitian H), looked up in
    # the entries, which run row by row; n * n is a sentinel past every key
    key, want = np.append(rows * n + cols, n * n), np.arange(n) * n + up
    at = np.searchsorted(key, want)
    link = np.where(key[at] == want, np.append(vals, 0)[at], 0)
    link[roots] = 1.0
    if np.iscomplexobj(link):
        # Scale each link to largest part +-1 before taking its phase: complex
        # division by a subnormal |link| overflows and leaves NaN phases.
        top = np.maximum(np.abs(link.real), np.abs(link.imag))
        top[top == 0] = 1.0
        link = link.real / top + 1j * (link.imag / top)
    phase = np.divide(link, np.abs(link), out=np.ones_like(link), where=link != 0)
    # phase[k] holds the product of the links from k up to (not including) up[k]
    while not np.array_equal(up, up[up]):
        phase = phase * phase[up]
        up = up[up]
    _, first, comp = np.unique(up, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[comp], phase / np.abs(phase)


def _gauged_sparse(H):
    """H (dense or scipy.sparse) split into the components of its exact
    sparsity pattern, read from its nonzero entries.

    Returns (labels, phase, (rows, cols, values), flux).  ``labels`` and the
    gauge ``phase`` are those of :func:`_phase_gauge`; the entries are H's
    own (not gauged) over its off-diagonal pattern, row by row, then its
    diagonal.  ``flux`` holds, per component, the largest imaginary part of
    conj(d) H d where it exceeds _GAUGE_IMAG_TOL times the component's
    largest entry (the component carries flux), else 0.  The gauge is reset
    to 1 on every component with flux.
    """
    n = H.shape[0]
    rows, cols, vals = _offdiagonal_pattern(H)
    labels, phase = _phase_gauge(H, (rows, cols, vals))
    rows, cols = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, H.diagonal()])
    imag, top = np.zeros((2, labels.max() + 1))
    np.maximum.at(imag, labels[rows], np.abs(_gauged(vals, phase[rows], phase[cols]).imag))
    np.maximum.at(top, labels[rows], np.abs(vals))
    flux = np.where(imag > _GAUGE_IMAG_TOL * top, imag, 0.0)
    phase[flux[labels] > 0.0] = 1.0
    return labels, phase, (rows, cols, vals), flux


def _positions(labels):
    """(order, sizes, start, position): the labelled indices by label, each
    label's size and start there, and each index's position in its label."""
    inside = np.flatnonzero(labels >= 0)
    order = inside[np.argsort(labels[inside], kind="stable")]
    sizes = np.bincount(labels[inside])
    start = np.cumsum(sizes) - sizes
    position = np.zeros(len(labels), dtype=np.intp)
    position[order] = np.arange(len(order)) - start[labels[order]]
    return order, sizes, start, position


def _block_stacks(labels, entries, max_bytes=None):
    """The entries of operators that are block-diagonal over ``labels``,
    scattered into one stack of equal-size dense blocks per block size.

    ``labels`` names the block of every index (-1: none, and the entries
    there are dropped); ``entries`` is a list of (rows, cols, values), one
    per operator, none between two blocks.  Yields, by ascending block size
    n, (labs, idx, stacks): the labels of the m blocks of that stack, their
    indices idx (m, n), ascending in each block, and per operator its blocks
    (m, n, n) in the dtype of its values, +0.0 off its entries; none is kept
    here.  ``max_bytes`` splits a size into stacks of at most that (or one
    block), and the largest size comes first.
    """
    order, sizes, start, position = _positions(labels)
    itemsize = sum(v.itemsize for _, _, v in entries)
    for n in np.unique(sizes[sizes > 0])[::1 if max_bytes is None else -1]:
        labs = np.flatnonzero(sizes == n)
        step = len(labs) if max_bytes is None else max(1, max_bytes // (itemsize * n * n))
        for chunk in (labs[s:s + step] for s in range(0, len(labs), step)):
            slot = np.full(len(sizes) + 1, -1)      # slot[-1] stays -1, for the label -1
            slot[chunk] = np.arange(len(chunk))
            yield (chunk, order[start[chunk][:, None] + np.arange(n)],
                   [_scatter(slot[labels[r]], position, r, c, v, (len(chunk), n, n))
                    for r, c, v in entries])


def _scatter(k, position, r, c, v, shape):
    """v at (k, position[r], position[c]) of a stack of +0.0, k < 0 dropped."""
    sel = k >= 0
    blocks = np.zeros(shape, dtype=v.dtype)
    blocks[k[sel], position[r[sel]], position[c[sel]]] = v[sel]
    return blocks


def _gauged(a, row_phase, col_phase):
    """conj(row_phase) a col_phase, for a matrix or a stack of them (outer
    product), or for entries a of a sparse matrix (as many as the phases)."""
    if a.ndim == row_phase.ndim:
        out = row_phase.conj() * a
        out *= col_phase
        return out
    return row_phase.conj()[..., :, None] * a * col_phase[..., None, :]


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


# -- the spin SU(2) of H'' --


# largest entry of [H'', S'+] and of Theta H'' Theta^-1 - H'' relative to that of H'';
# largest deviation of the gauge on a group from +-1 times one phase, and of Theta on
# the sectors from an orthogonal involution
_SYMMETRY_TOL = 1e-12
# eigenvalues of S'- S'+ below this are zeros: the others are S(S + 1) - M(M + 1) >= 2
_KERNEL_CUT = 0.5


def _check_commutes(basis, G, raising, phase):
    """Refuse, with ValueError, an H'' that does not commute with S'+ (x) 1.

    G is H'' in the gauge d as a sparse matrix, and S = conj(d) (S'+ (x) 1) d
    is formed as one too: conj(d) [H'', S'+] d = [G, S], so nothing dense
    is formed.
    """
    nb = basis.boson_dim
    up = raising.tocoo()
    rows = (up.row[:, None] * nb + np.arange(nb)).ravel()
    cols = (up.col[:, None] * nb + np.arange(nb)).ravel()
    S = csr_array((_gauged(np.repeat(up.data, nb), phase[rows], phase[cols]),
                          (rows, cols)), shape=G.shape)
    dev = float(np.max(np.abs((G @ S - S @ G).data), initial=0.0))
    if dev > _SYMMETRY_TOL * float(np.max(np.abs(G.data), initial=0.0)):
        raise ValueError(f"H'' does not commute with the spin raising operator S'+: "
                         f"largest entry of the commutator {dev:.3e}")


def _highest_weight_vectors(basis, raising, twice_m):
    """The kernel of S'+ on each group of fermion states that share one site
    occupation pattern and one 2 S'z = 2M >= 0.

    S'+ keeps the pattern and raises 2M by 2, so S'- S'+ = S^2 - S'z (S'z + 1)
    is block-diagonal over the groups.  Its kernel on a group is spanned by
    the highest-weight states, S = M.  Yields (states, vectors): ``states``
    (g, n) holds the fermion states of g groups of n states each, ascending,
    and ``vectors`` (g, n, k) an orthonormal real basis of the kernel on
    each, of one dimension k.
    """
    occ = basis.mode_tables()[0]
    pattern = ((occ[0::2] + occ[1::2]) * 3 ** np.arange(basis.n_sites)[:, None]).sum(axis=0)
    states = np.flatnonzero(twice_m >= 0)
    group_of = np.full(basis.fermion_dim, -1)
    group_of[states] = np.unique(pattern[states] * (basis.n_sites + 1) + twice_m[states],
                                 return_inverse=True)[1]
    casimir = (raising.T @ raising).tocoo()
    for _, states, (stack,) in _block_stacks(group_of, [(casimir.row, casimir.col, casimir.data)]):
        w, q = np.linalg.eigh(stack)
        dims = np.sum(w < _KERNEL_CUT, axis=1)
        for k in np.unique(dims[dims > 0]):
            these = dims == k
            yield states[these], q[these, :, :k]


def _project_highest_weight(basis, labels, phase, G, raising, twice_m):
    """The highest-weight basis of each component as the columns of a sparse
    P: returns (P, col_lab, col_rep, comp_m), the component and the
    representative of each column, and 2M of each component.

    Every component must hold one value M of S'z (``twice_m`` is 2 S'z on the
    fermion factor).  The highest-weight vectors of a group of fermion states
    (:func:`_highest_weight_vectors`) are tensored with each boson state.
    Such a group must lie in one component, where the gauge is s_k phi with
    s_k = +-1 and one phase phi per group.  The vectors are multiplied by s,
    so P^T G P is real and has the spectrum of H'' on the highest-weight
    states.  col_rep is the first basis state of the group of each column.
    The sum of (2M + 1) x size must be total_dim.
    """
    nb = basis.boson_dim
    twice_m_full = np.repeat(twice_m, nb)
    _, first = np.unique(labels, return_index=True)
    comp_m = twice_m_full[first]
    mixed = np.flatnonzero(twice_m_full != comp_m[labels])
    if mixed.size:
        raise ValueError(f"component {labels[mixed[0]]} of H'' holds more than one value of S'z")
    rows, cols, vals, col_lab, col_rep = [], [], [], [], []
    for states, vectors in _highest_weight_vectors(basis, raising, twice_m):
        full = states[:, None, :] * nb + np.arange(nb)[:, None]      # (group, boson, state)
        lab = labels[full]
        if np.any(lab != lab[..., :1]):
            raise ValueError("a group of fermion states with one site occupation pattern "
                             "and one S'z spans several components of H''")
        ratio = phase[full] * phase[full[..., :1]].conj()
        sign = np.sign(ratio.real)
        dev = float(np.max(np.abs(ratio - sign)))
        if dev > _SYMMETRY_TOL:
            raise ValueError(f"the gauge read off H'' is not +-1 times one phase on a group "
                             f"of one site occupation pattern and one S'z (deviation {dev:.3e})")
        g, k = vectors.shape[0], vectors.shape[2]
        shape = full.shape + (k,)                                     # (group, boson, state, column)
        ids = sum(map(len, col_lab)) + np.arange(g * nb * k).reshape(g, nb, 1, k)
        rows.append(np.broadcast_to(full[..., None], shape).ravel())
        cols.append(np.broadcast_to(ids, shape).ravel())
        vals.append((sign[..., None] * vectors[:, None]).ravel())
        col_lab.append(np.repeat(lab[..., 0].ravel(), k))
        col_rep.append(np.repeat(full[..., 0].ravel(), k))
    rows, cols, vals, col_lab, col_rep = map(np.concatenate, (rows, cols, vals, col_lab, col_rep))
    count = np.bincount(col_lab, minlength=len(comp_m))
    total = int(np.sum((comp_m + 1) * count))
    if total != basis.total_dim:
        raise ValueError(f"the highest-weight sectors hold {total} states with their multiplets, "
                         f"not total_dim = {basis.total_dim}")
    # renumber the columns component by component, each in the order of its states
    order = np.lexsort((np.arange(len(col_lab)), col_rep, col_lab))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    P = csr_array((vals, (rows, rank[cols])), shape=(basis.total_dim, len(order)))
    return P, col_lab[order], col_rep[order], comp_m


def _sector_stacks(B, col_lab, col_rep, weight):
    """The sparse B as one stack (idx = col_rep, real blocks, weight[labs]) per
    block size of the labels ``col_lab``, without the entries between two
    labels: rounding, between the eigenspaces of Theta."""
    B = B.tocoo()
    keep = col_lab[B.row] == col_lab[B.col]
    return [(col_rep[idx], blocks, weight[labs]) for labs, idx, (blocks,)
            in _block_stacks(col_lab, [(B.row[keep], B.col[keep], B.data[keep])])]


def _mirror_sectors(labels, phase, G, reflection, P, col_lab, col_rep, comp_m):
    """The sectors reduced by Theta = M K (K conjugates), for h = h o r.

    In the gauge, M conj(H'') M^T = H'' reads O G O^T = G, O the signed
    permutation conj(d[perm]) sign conj(d) up to one phase per component.
    A sector that O maps onto another is kept once.  One mapped onto itself
    is split into the +-1 eigenspaces of R = P^T O P, solved on each
    connected component of R's pattern: it lies on one charge orbit
    {q, q o r}, where the field correction of an invariant h is constant.
    Returns (U, with P U the sectors, labels 2c, or 2c + 1 on the -1 eigenspace, their
    representatives, weight per label).
    """
    perm = reflection.perm
    _, first = np.unique(labels, return_index=True)
    o = phase[perm].conj() * reflection.sign * phase.conj()
    sign = np.sign((o * o[first[labels]].conj()).real)
    dev = float(np.max(np.abs((Monomial(perm, sign).conjugate(G) - G).data), initial=0.0))
    if dev > _SYMMETRY_TOL * float(np.max(np.abs(G.data), initial=0.0)):
        raise ValueError(f"H'' is not invariant under the reflection Theta: largest change "
                         f"of an entry {dev:.3e}")
    image = labels[perm[first]]                     # O maps c onto image[c]
    p = P.tocoo()
    R = P.T @ csr_array((sign[p.row] * p.data, (perm[p.row], p.col)), shape=P.shape)
    dev = float(np.max(np.abs((R.T @ R - eye_array(R.shape[0])).data), initial=0.0))
    piece = np.where(image[col_lab] == col_lab, connected_components(R, directed=False)[1], -1)
    kept = np.flatnonzero(col_lab < image[col_lab])
    rows, cols, vecs = [kept], [np.arange(len(kept))], [np.ones(len(kept))]
    new_lab, new_rep = [2 * col_lab[kept]], [col_rep[kept]]
    R = ((R + R.T) / 2).tocoo()     # for orthogonal R, eigenvalues +-1 iff R = R^T
    for _, idx, (stack,) in _block_stacks(piece, [(R.row, R.col, R.data)]):
        w, v = np.linalg.eigh(stack)
        dev = max(dev, float(np.max(np.abs(np.abs(w) - 1.0))))
        m, k = idx.shape
        rows.append(np.broadcast_to(idx[:, None, :], (m, k, k)).ravel())
        cols.append(sum(map(len, new_lab)) + np.arange(m * k * k) // k)
        vecs.append(np.swapaxes(v, 1, 2).ravel())
        new_lab.append((2 * col_lab[idx[:, :1]] + (w < 0)).ravel())
        new_rep.append(np.repeat(col_rep[idx[:, 0]], k))
    if dev > _SYMMETRY_TOL:
        raise ValueError(f"the reflection Theta is not an orthogonal involution on the "
                         f"sectors (deviation {dev:.3e})")
    rows, cols, vecs, new_lab, new_rep = map(np.concatenate, (rows, cols, vecs, new_lab, new_rep))
    U = csr_array((vecs, (rows, cols)), shape=(P.shape[1], len(new_lab)))
    weight = (comp_m + 1) * np.where(image == np.arange(len(image)), 1, 2)
    return U, new_lab, new_rep, np.repeat(weight, 2)


def highest_weight_sectors(basis, H2, reflection):
    """H'' reduced by the spin SU(2) of the zigzag frame, for Z(h) of the
    field family H''(h): one stack (idx, real blocks, weights 2M + 1) per
    block size, and the same reduced further by Theta = M K, for h = h o r.

    S'+ = V S+ V^-1, the zigzag image of S+ = sum_x c*_{x up} c_{x down}
    (``model.zigzag_spin_operators``), commutes with H'' and keeps every site
    occupation, so it commutes with every field term too.  H''(h) is then
    fixed by its restriction to the highest-weight states (ker S'+) of each
    component with S'z = M >= 0, counted 2M + 1 times.  Each idx holds one
    representative basis index per column; the field correction of H''(h)
    is constant on its group, or for h = h o r on its charge orbit
    (:func:`_mirror_sectors`).  ``reflection`` is M, a
    ``hilbert.Monomial`` that keeps S'z and sends S'+ to -S'+.  Refuses,
    with ValueError, in this order: a component with flux; an H'' whose
    commutator with S'+ exceeds 1e-12 times its largest entry; a component
    with two values of S'z; a group split over components or with a gauge
    that is not +-1 times one phase; multiplets that miss total_dim; an H''
    that Theta changes by over 1e-12 times its largest entry; a Theta that
    is not an orthogonal involution on the sectors.
    """
    labels, phase, (rows, cols, vals), flux = _gauged_sparse(H2)
    if flux.any():
        raise ValueError(f"block of H'' carries flux: it is not real in the gauge read off "
                         f"H'' (largest imaginary entry {flux[flux > 0.0][0]:.3e})")
    G = csr_array((_gauged(vals, phase[rows], phase[cols]).real, (rows, cols)), shape=H2.shape)
    del rows, cols, vals                      # G holds them from here on
    raising, twice_m = _model.zigzag_spin_operators(basis)
    _check_commutes(basis, G, raising, phase)
    P, col_lab, col_rep, comp_m = _project_highest_weight(basis, labels, phase, G, raising, twice_m)
    B = P.T @ (G @ P)
    U, *mirror = _mirror_sectors(labels, phase, G, reflection, P, col_lab, col_rep, comp_m)
    return (_sector_stacks(B, col_lab, col_rep, comp_m + 1),
            _sector_stacks(U.T @ (B @ U), *mirror))


# -- charge correlations --


@lru_cache(maxsize=8)
def _correlation_state(params, basis, which):
    if which not in ("original", "zigzag"):
        raise ValueError(f"which must be 'original' or 'zigzag', got {which!r}")
    H = _model.build_original_csr(params, basis)
    if which == "zigzag":
        H = _model.build_zigzag(basis).conjugate(H)
    return spectral(H, params.beta), _model.charge_diagonals(basis)


def charge_correlation(params, basis, x, y, which="original"):
    """<q_x q_y> under the chosen Hamiltonian on ``basis`` (built on a torus).

    ``which`` selects the original H or its zigzag image V H V^-1, for which
    <q_x q_y> picks up exactly the staggered sign (-1)^(|x| + |y|) relative
    to the original -- an identity that survives phonon truncation because
    the zigzag unitary is exact and the Lang-Firsov unitary commutes with
    every q.
    """
    lat = basis.lattice
    spec, qd = _correlation_state(params, basis, which)
    i, j = lat.site_index[lat.wrap(x)], lat.site_index[lat.wrap(y)]
    diag = np.repeat(qd[i] * qd[j], basis.boson_dim)
    return spec.expectation(diag)


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
    before any block is read.  ``bond_expectations`` are those of
    :func:`pairing_bond_expectations`; without them they are computed once
    per ``params`` and kept on ``spec``.
    """
    f = basis.lattice.laplacian_matrix() @ np.asarray(h, dtype=complex)    # f = (-Delta) h
    return _form_values(params, basis, f, spec, bond_expectations)


def _form_values(params, basis, f, spec, bond_expectations=None):
    """(g, b, c) of :func:`quadratic_form_quantities` at f = (-Delta) h."""
    if spec.dim != basis.total_dim:
        raise ValueError(f"spec has dimension {spec.dim}, not the basis dimension "
                         f"{basis.total_dim}")
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
    of the block, rho_i its Gibbs block and D_x,kl = q_x(k) - q_x(l):

        G_xy = sum_k rho_kk q_x(k) q_y(k)
        B_xy = Z^-1 sum_blocks sum_nm kappa_nm conj(M_x)_nm (M_y)_nm
        C_xy = -sum_blocks sum_kl conj(rho_i)_kl H_kl D_x,kl D_y,kl

    The charges are centred, q_x - N^-1 sum_y q_y: f = (-Delta) h sums to
    zero, so A is unchanged, and the forms lose the total-charge mode whose
    large entries f^H M f would otherwise cancel (about three digits of b on
    the 2x2 torus).  B and C are real (each equals its conjugate).

    Everything is taken in the gauge of ``spec``: diag(q_x) commutes with it,
    so M_x = q^H diag(q_x) q with the gauged eigenvectors q, and
    conj(rho_i) o H_blk = conj(r_i) o G with r_i the gauged Gibbs block and
    G = conj(d) H_blk d.  The M_x are combinations of a few P_j and I
    (:func:`_charge_products`): B takes their kappa-Gram matrix.  D_x runs
    over the off-diagonal nonzeros of G (``SpectralData._entries``).  The
    forms are mirrored from the upper triangle: exactly symmetric.
    """
    qd = _model.charge_diagonals(basis)
    centred = (qd - qd.mean(axis=0))[:, np.arange(spec.dim) // basis.boson_dim]
    rho = spec.rho_diag()
    G = (centred * rho) @ centred.T
    B, C = np.zeros((2,) + G.shape)
    stag = basis.lattice.staggered_signs
    # a state alone in its component has M_x = q_x and no entry off the diagonal
    lone = np.bincount(spec._block_of)[spec._block_of] == 1
    k_all, l_all, h_all, ends = spec._entries
    for c, ((idx, w, q), wt) in enumerate(zip(spec._eig, spec._weights)):
        if len(idx) == 1:
            continue
        p, coef = _charge_products(q, qd[:, idx // basis.boson_dim], stag)
        kern = _duhamel_kernel(spec.beta, w - spec.e0, w - spec.e0)
        p *= np.sqrt(kern, out=kern)
        d = np.vstack([np.diagonal(p, 0, 1, 2).real, np.sqrt(wt)])   # kappa_nn = wt: I last
        p = p.reshape(len(p), len(idx) ** 2)
        gram = d @ d.T              # the triangles of p count each off-diagonal pair once
        gram[:-1, :-1] += 2.0 * (((p.conj() @ p.T).real if np.iscomplexobj(p) else p @ p.T)
                                 - gram[:-1, :-1])
        B += coef @ gram @ coef.T
        s = slice(ends[c], ends[c + 1])
        k, l, h_kl = k_all[s], l_all[s], h_all[s]
        r = spec._gibbs_blocks()[c].take(k * len(idx) + l)     # take: 1.6x [k, l]
        nested = -(r.conj() * h_kl).real if np.iscomplexobj(r) else r * -h_kl.real
        cb = centred[:, idx]
        d = cb.take(k, axis=1) - cb.take(l, axis=1)
        C += (d * nested) @ d.T
    B = B / spec.z_shifted + (centred[:, lone] * rho[lone]) @ centred[:, lone].T
    lower = np.tril_indices(len(qd), -1)
    for M in (G, B, C):
        M[lower] = M.T[lower]
    return G, B, C


def _charge_products(q, qb, stag):
    """The centred M_x = q^H diag(q_x - N^-1 sum_y q_y) q of a block (q its
    eigenvectors, qb (N, n) the charges of its states) as (p, coef):
    M_x = sum_j coef[x, j] p[j] + coef[x, -1] I.

    p[j] = q^H diag(q_j - q_0) q (j >= 1; differences in -2..2, free of the
    total-charge mode) in its lower triangle (+0.0 above), one rank-k
    update (syrk, or herk if complex) per value.  Where sum_x stag_x = 0 and
    the staggered charge sum_x stag_x q_x is one c on the block (H''
    conserves it), the last difference follows from the others and c I.
    """
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


def pairing_bond_expectations(params, basis, spec):
    """Thermal expectation of each pairing bond term of T'', the terms built
    and read one at a time.

    Returns [((x, y, j, eps), <term>), ...]; the closed form of the nested
    commutator is a reweighting of exactly these numbers, so computing them
    once per spectral data makes the g/b/c evaluation O(1) per field h.
    """
    return [(key, spec.expectation(term))
            for key, term in _model.pairing_bond_terms(params, basis)]

