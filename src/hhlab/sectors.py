"""How a Hamiltonian splits into blocks: its connected components and their
gauge, and the spin-SU(2) and Theta sectors of H''.

A Hamiltonian (a CSR array of hhlab.model, or a dense oracle) is split
into the connected components of its exact sparsity pattern
(H[i, j] != 0.0), read from its nonzero entries by :func:`_gauged_sparse`,
and its entries are scattered into stacks of equal-size dense blocks
(:func:`_block_stacks`).  The same pass reads off a diagonal unitary gauge
d from a maximum-modulus spanning forest of the pattern (_phase_gauge), in
which every component without flux is real symmetric (H'', H, H' and
V H V^-1 all are).  Both spectral engines take this split:
``thermo.SpectralData``, and :func:`highest_weight_sectors`, which reduces
H'' for the Z(h) of ``rpverify.FieldPartition`` by the spin SU(2) of the
zigzag frame and by the reflection Theta.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array, csr_matrix, eye_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from . import model as _model
from .hilbert import Monomial

__all__ = ["highest_weight_sectors"]

_GAUGE_IMAG_TOL = 1e-12
# a dense H is read for its pattern in row slabs of at most this (or one row)
_PATTERN_SLAB_BYTES = 1 << 20


def _offdiagonal_pattern(H):
    """Rows, columns and values of H's nonzero off-diagonal entries, row by
    row: of a dense H, read in row slabs of at most _PATTERN_SLAB_BYTES, or
    of the stored entries of a scipy.sparse H."""
    if issparse(H):
        H = H.tocoo().tocsr()               # duplicates summed, each row sorted
        rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
        keep = (rows != H.indices) & (H.data != 0)
        return rows[keep], H.indices[keep], H.data[keep]
    n = H.shape[0]
    step = max(1, _PATTERN_SLAB_BYTES // (H.itemsize * n))
    flat = np.concatenate([np.flatnonzero(H[r0:r0 + step] != 0.0) + r0 * n   # 3x faster
                           for r0 in range(0, n, step)])                     # than np.nonzero
    rows, cols = np.divmod(flat, n)
    del flat
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
