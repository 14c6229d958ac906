"""Spectral decomposition, thermal expectations, the infrared forms and
charge correlations.

A Hamiltonian (dense or scipy.sparse) is split into the connected
components of its exact sparsity pattern (H[i, j] != 0.0), read from its
nonzero entries by :func:`_gauged_sparse`.  The entries of each component
are scattered into one stack of equal-size dense blocks per component size
(:func:`_block_stacks`), each block is eigendecomposed exactly with dense
LAPACK, and all thermal sums run blockwise.  Components are detected from
exact zeros only, so a "dirty" matrix degrades to one big block, never to a
wrong answer.  The Gibbs state is kept as its diagonal blocks: an
observable (dense, scipy.sparse or a 1-d diagonal) enters a thermal average
only through its nonzero entries inside the components.

The same pass reads off a diagonal unitary gauge d from a maximum-modulus
spanning forest of the pattern (_phase_gauge), in which every component
without flux is real symmetric (H'', H, H' and V H V^-1 all are) and is
solved by a real ``eigh``.  The three engines share this split:
``SpectralData``, ``HamiltonianFamily`` and ``highest_weight_sectors``.  The
last reduces H'', for the Z(h) of ``rpverify.FieldPartition``, to the
highest-weight states of the spin SU(2) of the zigzag frame, and once more
by the reflection Theta: a sector that Theta maps onto another is kept once
with twice its weight, and one mapped onto itself is split into the +-1
eigenspaces of Theta.  These mirror sectors serve exactly the fields with
np.array_equal(h, h o r); any other field takes the first set.
An H'' that Theta does not leave invariant is refused after every refusal
of the SU(2) reduction.  At 2x2, n_max = 1 (dim 4096) the two sets hold 60
sectors (sum n^3 = 1.23e8) and 35 (5.04e7).

The infrared forms g, b and c are built once per spectral data (see
quadratic_form_quantities).  All exponentials are shifted by the ground
energy so beta can be large.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse import coo_array, csr_array, csr_matrix, eye_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from . import model as _model

__all__ = [
    "SpectralData",
    "spectral",
    "highest_weight_sectors",
    "charge_correlation",
    "quadratic_form_quantities",
    "pairing_bond_expectations",
    "HamiltonianFamily",
]

_GAP_SERIES_CUTOFF = 1e-6
_GAUGE_IMAG_TOL = 1e-12


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
    :meth:`from_blocks` takes eigenpairs that are already solved, in the
    unit gauge d = 1.

    Attributes of interest: ``beta``, ``e0`` (ground energy), ``logZ``,
    ``blocks`` (list of (index array, eigenvalues, eigenvectors Q of H's
    component), built on each access) and ``real_blocks`` (one flag per
    component, True where a real ``eigh`` solved it).  Immutable once built.
    """

    def __init__(self, H, beta):
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        labels, phase, entries, flux = _gauged_sparse(H)
        eig = [None] * len(flux)
        scale, res = 1e-300, 0.0
        for labs, idx, (blk,) in _block_stacks(labels, [entries]):   # one stack per size
            scale = max(scale, float(np.abs(blk).max()))
            g = _gauged(blk, phase[idx], phase[idx])
            real = flux[labs] == 0.0
            for sel, a, target in ((real, g.real, g), (~real, blk, blk)):
                if not sel.any():
                    continue
                if not sel.all():               # a copy only for a mixed stack
                    a, target = a[sel], target[sel]
                w, q = np.linalg.eigh(a)
                res = max(res, _block_residual(w, q, target))
                for lab, i, wi, qi in zip(labs[sel], idx[sel], w, q):
                    eig[lab] = (i, wi, qi)
        self._finish(eig, n, beta, phase)
        if res > 1e-9 * scale:
            raise AssertionError(f"eigendecomposition residual {res} too large")

    @classmethod
    def from_blocks(cls, blocks, dim, beta):
        """Assemble from per-component eigenpairs [(indices, w, Q), ...]."""
        self = cls.__new__(cls)
        self._finish(blocks, dim, beta, np.ones(dim))
        return self

    def _finish(self, eig, dim, beta, phase):
        self.dim = dim
        self.beta = float(beta)
        self._eig = eig          # (indices, w, q) with q in the gauge
        self._phase = phase      # the gauge d on the full space
        self.e0 = min(float(w[0]) for _, w, _ in eig)
        self._weights = [np.exp(-self.beta * (w - self.e0)) for _, w, _ in eig]
        self.z_shifted = float(sum(wt.sum() for wt in self._weights))
        self.logZ = -self.beta * self.e0 + float(np.log(self.z_shifted))
        self._block_of = np.empty(dim, dtype=np.intp)   # component of each basis index
        self._position = np.empty(dim, dtype=np.intp)   # its index inside the component
        for k, (idx, _, _) in enumerate(eig):
            self._block_of[idx] = k
            self._position[idx] = np.arange(len(idx))
        self._rho_diag = None
        self._gibbs = None
        self._forms = None

    @property
    def blocks(self):
        """[(indices, w, Q)] with Q the unitary eigenvectors of H's component."""
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
            self._gibbs = [(q * wt) @ q.conj().T / self.z_shifted
                           for (_, _, q), wt in zip(self._eig, self._weights)]
        return self._gibbs

    # -- thermal averages ----------------------------------------------------

    def expectation(self, A):
        """<A> = Tr[A e^{-beta H}] / Z.  A may be a dense matrix, a
        scipy.sparse matrix or a diagonal (1-d array).  Hermitian input gives
        a real result; the imaginary part is checked to be < 1e-10 relative
        and discarded then.

        Tr(rho A) = sum_ij conj(rho_ij) A_ij (rho is Hermitian) runs over the
        nonzero entries of a matrix A inside the components only (dense A is
        read as a sparse one): the entries of rho between components are
        exact zeros, so the entries of A there contribute exactly 0.  In the
        gauge, conj(rho_ij) A_ij = conj(r_ij) (conj(d_i) A_ij d_j) with r the
        gauged Gibbs block.
        """
        A = A if issparse(A) else np.asarray(A)
        val = complex(np.dot(A, self.rho_diag())) if A.ndim == 1 else self._sparse_trace(A)
        return _realize_if_hermitian(val, A)

    def _sparse_trace(self, A):
        """Tr(rho A) from the nonzero entries of A inside one component."""
        A = coo_array(A)
        comp = self._block_of[A.row]
        inside = comp == self._block_of[A.col]
        rows, cols, data, comp = A.row[inside], A.col[inside], A.data[inside], comp[inside]
        data = self._gauge(data, rows, cols)
        rho = self._gibbs_blocks()
        total = 0.0 + 0.0j
        for k in np.unique(comp):
            sel = comp == k
            total += np.vdot(rho[k][self._position[rows[sel]], self._position[cols[sel]]],
                             data[sel])
        return complex(total)


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
    """H split into the components of its exact sparsity pattern, read from
    its nonzero entries (H dense or scipy.sparse): no dense block is gathered.

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


def _block_stacks(labels, entries):
    """The entries of operators that are block-diagonal over ``labels``,
    scattered into one stack of equal-size dense blocks per block size.

    ``labels`` names the block of every index (-1: none, and the entries
    there are dropped); ``entries`` is a list of (rows, cols, values), one
    per operator, none between two blocks.  Yields, by ascending block size
    n, (labs, idx, stacks): the labels of the m blocks of that size, their
    indices idx (m, n), ascending in each block, and per operator its blocks
    (m, n, n) in the dtype of its values, +0.0 off its entries.
    """
    inside = np.flatnonzero(labels >= 0)
    order = inside[np.argsort(labels[inside], kind="stable")]
    sizes = np.bincount(labels[inside])
    start = np.cumsum(sizes) - sizes
    position = np.zeros(len(labels), dtype=np.intp)   # index inside its block
    position[order] = np.arange(len(order)) - start[labels[order]]
    for n in np.unique(sizes[sizes > 0]):
        labs = np.flatnonzero(sizes == n)
        slot = np.full(len(sizes) + 1, -1)      # slot[-1] stays -1, for the label -1
        slot[labs] = np.arange(len(labs))
        stacks = []
        for r, c, v in entries:
            k = slot[labels[r]]
            sel = k >= 0
            blocks = np.zeros((len(labs), n, n), dtype=v.dtype)
            blocks[k[sel], position[r[sel]], position[c[sel]]] = v[sel]
            stacks.append(blocks)
        yield labs, order[start[labs][:, None] + np.arange(n)], stacks


def _gauged(a, row_phase, col_phase):
    """conj(row_phase) a col_phase, for a matrix or a stack of them (outer
    product), or for entries a of a sparse matrix (as many as the phases)."""
    if a.ndim == row_phase.ndim:
        return row_phase.conj() * a * col_phase
    return row_phase.conj()[..., :, None] * a * col_phase[..., None, :]


def _block_residual(w, q, g):
    """Largest entry of |q w q^H - g| over a block or a stack of blocks, with
    Re g in place of g and |Im g| added where q is real: an elementwise
    bound on |Q W Q^H - H_blk|."""
    back = (q * w[..., None, :]) @ np.swapaxes(q, -1, -2).conj()
    if np.isrealobj(q) and np.iscomplexobj(g):
        return float(np.max(np.abs(back - g.real) + np.abs(g.imag)))
    return float(np.max(np.abs(back - g)))


def spectral(H, beta):
    """Eigendecompose H (blockwise) and attach thermal weights at beta."""
    return SpectralData(H, beta)


# -- the spin SU(2) of H'' --------------------------------------------------------


# largest entry of [H'', S'+] and of Theta H'' Theta^-1 - H'' relative to that of H'';
# largest deviation of the gauge on a group from +-1 times one phase, and of Theta on
# the sectors from an orthogonal involution
_SYMMETRY_TOL = 1e-12
# eigenvalues of S'- S'+ below this are zeros: the others are S(S + 1) - M(M + 1) >= 2
_KERNEL_CUT = 0.5


def _check_commutes(basis, G, raising, phase):
    """Refuse, with ValueError, an H'' that does not commute with S'+ (x) 1.

    G is H'' in the gauge d as a sparse matrix, and S = conj(d) (S'+ (x) 1) d
    is formed as one too: conj(d) [H'', S'+] d = [G, S], so no dense
    full-space product is formed.
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
    the highest-weight states, S = M.  The blocks of each size are solved as
    one stack.  Yields (states, vectors): ``states`` (g, n) holds the fermion
    states of g groups of n states each, ascending, and ``vectors`` (g, n, k)
    an orthonormal real basis of the kernel on each, of one dimension k.
    """
    occ = _model._mode_occupations(basis)
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


def _sector_stacks(G, P, col_lab, col_rep, weight):
    """P^T G P as one stack (idx = col_rep, real blocks, weight[labs]) per
    block size of the labels ``col_lab``, without the entries between two
    labels: rounding, between the eigenspaces of Theta."""
    B = (P.T @ (G @ P)).tocoo()
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
    Returns (P U, labels 2c, or 2c + 1 on the -1 eigenspace, their
    representatives, weight per label).
    """
    perm = reflection.perm
    _, first = np.unique(labels, return_index=True)
    o = phase[perm].conj() * reflection.sign * phase.conj()
    sign = np.sign((o * o[first[labels]].conj()).real)
    g = G.tocoo()
    moved = csr_array((sign[g.row] * sign[g.col] * g.data, (perm[g.row], perm[g.col])), shape=G.shape)
    dev = float(np.max(np.abs((moved - G).data), initial=0.0))
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
    return P @ U, new_lab, new_rep, np.repeat(weight, 2)


def highest_weight_sectors(basis, H2, reflection):
    """H'' reduced by the spin SU(2) of the zigzag frame, for Z(h) of the
    field family H''(h): one stack (idx, real blocks, weights 2M + 1) per
    block size, and the same reduced further by Theta = M K, for h = h o r.

    S'+ = V S+ V^-1, the zigzag image of S+ = sum_x c*_{x up} c_{x down}
    (``model.zigzag_spin_operators``), commutes with H'' and keeps every site
    occupation, so it commutes with every field term too.  H''(h) is then
    fixed by its restriction to the highest-weight states (ker S'+) of each
    component with S'z = M >= 0, counted 2M + 1 times.  The gauged H'' is
    kept as one sparse matrix: no dense block or full-space product is
    formed.  Each idx holds one representative basis index per column; the
    field correction of H''(h) is constant on its group, or for h = h o r
    on its charge orbit (:func:`_mirror_sectors`).  ``reflection`` is M, a
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
    return (_sector_stacks(G, P, col_lab, col_rep, comp_m + 1),
            _sector_stacks(G, *_mirror_sectors(labels, phase, G, reflection,
                                               P, col_lab, col_rep, comp_m)))


# -- charge correlations ------------------------------------------------------


@lru_cache(maxsize=8)
def _correlation_state(params, basis, which):
    H = _model.build_original(params, basis)
    if which == "zigzag":
        H = _model.build_zigzag(basis).conjugate(H)
    elif which == "doubleprime":
        H = _model.build_doubleprime(params, basis)
    elif which != "original":
        raise ValueError(f"which must be 'original', 'zigzag' or 'doubleprime', got {which!r}")
    return spectral(H, params.beta), _model.charge_diagonals(basis)


def charge_correlation(params, basis, x, y, which="original"):
    """<q_x q_y> under the chosen Hamiltonian on ``basis`` (built on a torus).

    ``which`` selects the original H, its zigzag image V H V^-1 (for which
    <q_x q_y> picks up exactly the staggered sign (-1)^(|x| + |y|) relative
    to the original -- an identity that survives phonon truncation because
    the zigzag unitary is exact and the Lang-Firsov unitary commutes with
    every q), or the formula-built H''.
    """
    lat = basis.lattice
    spec, qd = _correlation_state(params, basis, which)
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
    (spec, basis, H) and cached on ``spec``.  The build costs N products
    q^T diag(q_x) q per real block (about 0.2 s at dim 4096 on one BLAS
    thread); after it a field costs O(N^2) plus the bond sum below, and
    touches no block.  A caller with one field that needs only g
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
    the 2x2 torus).

    Everything is taken in the gauge of ``spec``: diag(q_x) commutes with it,
    so M_x = q^H diag(q_x) q with the gauged eigenvectors q, and
    conj(rho_i) o H_blk = conj(r_i) o G with r_i the gauged Gibbs block and
    G = conj(d) H_blk d.  On a real block M_x and r_i are real, and Im G
    drops out of C exactly (it is antisymmetric, r_i and D_x o D_y are
    symmetric), so the block is summed in real arithmetic.  The N matrices
    M_x of a block are stacked as rows of length n^2, and the D_x as rows
    over the off-diagonal nonzeros of H_blk (the only entries where
    H_kl D_x,kl survives), so each of B and C takes one product per block.
    No full-space or per-site dim^2 array is formed.  The cost is N products
    q^H diag(q_x) q per block.  The forms are mirrored from the upper
    triangle, with a real diagonal, so they are exactly Hermitian.
    """
    qd = _model.charge_diagonals(basis)
    n = qd.shape[0]
    G = np.zeros((n, n))
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    rho_d = spec.rho_diag()
    for (idx, w, q), rho_i in zip(spec._eig, spec._gibbs_blocks()):
        qb = qd[:, idx // basis.boson_dim]          # q_x on the block, one row per site
        m = np.empty((n, len(idx), len(idx)), dtype=q.dtype)
        for x, qx in enumerate(qb):
            nz = np.flatnonzero(qx)                 # q_x is 0 on about half the states
            m[x] = (q[nz].conj().T * qx[nz]) @ q[nz]
        m -= m.mean(axis=0)
        m = m.reshape(n, -1)
        qb = qb - qb.mean(axis=0)
        kern = _duhamel_kernel(spec.beta, w - spec.e0, w - spec.e0).ravel()
        k, l, h_kl = _offdiagonal_pattern(H[np.ix_(idx, idx)])   # D_x vanishes on the diagonal
        nested = -rho_i[k, l].conj() * spec._gauge(h_kl, idx[k], idx[l])
        if np.isrealobj(rho_i):
            nested = nested.real
        d = qb[:, k] - qb[:, l]
        G = G + (qb * rho_d[idx]) @ qb.T
        B = B + (m.conj() * kern) @ m.T
        C = C + (d * nested) @ d.T
    B /= spec.z_shifted
    lower = np.tril_indices(n, -1)
    for M in (G, B, C):
        M[lower] = np.conj(M.T[lower])
    for M in (B, C):
        if np.iscomplexobj(M):
            M.imag[np.diag_indices(n)] = 0.0        # a Hermitian diagonal is real
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

    Each structure S_k is a scipy.sparse matrix (``model.original_structures``
    gives CSR arrays) or, when diagonal, a 1-d vector.  The components of the
    union pattern of the matrices are coupling-independent: they are found
    once, by :func:`_gauged_sparse` on the sum of their moduli, and each
    structure is scattered into one stack of equal-size blocks per component
    size.  Every member of the family is then diagonalized stack by stack,
    with a real ``eigh`` when every structure is real.  Meant for scans over
    many parameter draws on one geometry.
    """

    def __init__(self, structures):
        self.names = list(structures)
        self.dim = structures[self.names[0]].shape[0]
        self.dtype = np.result_type(*(s.dtype for s in structures.values()))
        matrices = {name: coo_array(s) for name, s in structures.items() if s.ndim == 2}
        labels = _gauged_sparse(sum(abs(s) for s in matrices.values()))[0]
        self._count = labels.max() + 1
        self._stacks = []
        for labs, idx, blocks in _block_stacks(labels, [(s.row, s.col, s.data)
                                                        for s in matrices.values()]):
            parts = {name: s[idx] for name, s in structures.items() if s.ndim == 1}
            parts.update(zip(matrices, blocks))
            self._stacks.append((labs, idx, parts))

    def spectral(self, coeffs, beta):
        """SpectralData of H(coeffs) at inverse temperature beta."""
        unknown = set(coeffs) - set(self.names)
        if unknown:
            raise ValueError(f"unknown couplings {sorted(unknown)}")
        eig = [None] * self._count
        for labs, idx, parts in self._stacks:
            M = np.zeros(idx.shape + idx.shape[1:], dtype=self.dtype)
            diag = np.arange(idx.shape[1])
            for name, c in coeffs.items():
                if c != 0.0:
                    s = parts[name]
                    if s.ndim == idx.ndim:          # a diagonal, restricted to the stack
                        M[:, diag, diag] += c * s
                    else:
                        M += c * s
            w, q = np.linalg.eigh(M)
            for lab, i, wi, qi in zip(labs, idx, w, q):
                eig[lab] = (i, wi, qi)
        return SpectralData.from_blocks(eig, self.dim, beta)
