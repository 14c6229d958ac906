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
zigzag frame, by the particle-hole symmetry Pi and by the reflection Theta;
one reducer (:func:`_involution_sectors`) serves Pi and Theta.
"""

from __future__ import annotations

import numpy as np

from . import model as _model
from ._lazy import LazyModule
from .hilbert import Monomial

sparse = LazyModule("scipy.sparse")
csgraph = LazyModule("scipy.sparse.csgraph")

__all__ = ["highest_weight_sectors"]

_GAUGE_IMAG_TOL = 1e-12
# a dense H is read for its pattern in row slabs of at most this (or one row)
_PATTERN_SLAB_BYTES = 1 << 20


def _offdiagonal_pattern(H):
    """Rows, columns and values of H's nonzero off-diagonal entries, row by
    row: of a dense H, read in row slabs of at most _PATTERN_SLAB_BYTES, or
    of the stored entries of a scipy.sparse H."""
    if sparse.issparse(H):
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
    tree = csgraph.minimum_spanning_tree(
        sparse.csr_matrix((weights, np.concatenate([cols, np.arange(n)]), indptr),
                          shape=(n + 1, n + 1)))
    _, up = csgraph.breadth_first_order(tree, n, directed=False, return_predecessors=True)
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
    to 1 on every component with flux.  An H with an entry that is not
    finite is refused with ValueError, before the gauge is read.
    """
    n = H.shape[0]
    rows, cols, vals = _offdiagonal_pattern(H)
    diagonal = H.diagonal()
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(diagonal))):
        raise ValueError("H has an entry that is not finite")
    labels, phase = _phase_gauge(H, (rows, cols, vals))
    rows, cols = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diagonal])
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
# largest spread of a paired sector's shift over its columns, relative to the field correction
_SHIFT_TOL = 1e-12


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
    S = sparse.csr_array((_gauged(np.repeat(up.data, nb), phase[rows], phase[cols]),
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
    P = sparse.csr_array((vals, (rows, rank[cols])), shape=(basis.total_dim, len(order)))
    return P, col_lab[order], col_rep[order], comp_m


def _sector_stacks(B, col_lab, col_rep, weight, partner=None, partner_weight=None):
    """The sparse B as one stack (idx, real blocks, weight) per block size of
    the labels ``col_lab``, without the entries between two labels:
    rounding, between the eigenspaces of an involution.

    idx = col_rep of the columns and ``weight`` is per label.  With
    ``partner``, a representative of each column's image in the sector
    paired with its own, a stack that holds a paired block also holds
    (partner[idx], partner_weight per block): the paired sector has the
    spectrum of the block shifted by a constant, and is counted
    partner_weight times.
    """
    B = B.tocoo()
    keep = col_lab[B.row] == col_lab[B.col]
    stacks = []
    for labs, idx, (blocks,) in _block_stacks(col_lab, [(B.row[keep], B.col[keep], B.data[keep])]):
        stack = (col_rep[idx], blocks, weight[labs])
        if partner is not None and partner_weight[labs].any():
            stack += (partner[idx], partner_weight[labs])
        stacks.append(stack)
    return stacks


def _pair_shift(corr, idx, partner):
    """The constant s by which the field correction ``corr`` shifts the
    spectrum of each block's paired sector: corr[partner] - corr[idx], as
    (m, 1), refused with AssertionError unless it is one constant per block
    to _SHIFT_TOL times the largest |corr|."""
    s = corr[partner] - corr[idx]
    dev = float(np.max(np.abs(s - s[:, :1])))
    if dev > _SHIFT_TOL * max(1.0, float(np.max(np.abs(corr)))):
        raise AssertionError(f"the field correction shifts a paired sector by no one constant "
                             f"(spread {dev:.3e})")
    return s[:, :1]


def _gauged_symmetry(labels, phase, symmetry, antiunitary):
    """A signed permutation of H'' (or the M of an antiunitary M K) in the
    gauge d, as a real Monomial: conj(d[perm]) sign d (conj(d) for M K), up
    to one phase per component, which is divided out."""
    _, first = np.unique(labels, return_index=True)
    o = phase[symmetry.perm].conj() * symmetry.sign * (phase.conj() if antiunitary else phase)
    return Monomial(symmetry.perm, np.sign((o * o[first[labels]].conj()).real))


def _changed(G, O):
    """The largest entry of O G O^T - G, and whether it exceeds _SYMMETRY_TOL
    times the largest entry of G."""
    dev = float(np.max(np.abs((O.conjugate(G) - G).data), initial=0.0))
    return dev, dev > _SYMMETRY_TOL * float(np.max(np.abs(G.data), initial=0.0))


def _same(a, b):
    return np.array_equal(a.perm, b.perm) and np.array_equal(a.sign, b.sign)


def _involution_sectors(X, O, col_lab, col_rep, weight):
    """Sectors reduced by an involution O, a real Monomial of the gauged
    space: the one reducer of Theta and of Pi.

    The columns of the sparse X are the orthonormal real basis of the
    sectors in the full space, labelled by ``col_lab``, with a
    representative basis state ``col_rep`` each, and ``weight`` per label.
    R = X^T O X is O on the columns.  The largest entry of each column of R
    names the sector it is mapped to, which must be one per sector; the
    other entries between two sectors are dropped as rounding.  A sector L
    that O maps onto another is kept once, as 2L, if L is the lower label.
    One mapped onto itself is split into the +-1 eigenspaces of R, 2L and
    2L + 1, by one eigh per connected piece of R's pattern, so each new
    column lies on the states of its piece.

    Returns (U, labels, reps, partner, weight, paired, dev): X U are the
    new columns; ``partner`` is O's image of the representative of each
    kept column, and the representative itself for a split one; the new
    weight is the old one, and paired[2L] is True for a kept pair; dev is
    the largest deviation of R from an orthogonal involution, inf if O does
    not map sectors onto sectors.
    """
    x = X.tocoo()
    R = (X.T @ sparse.csr_array((O.sign[x.row] * x.data, (O.perm[x.row], x.col)),
                                shape=X.shape)).tocoo()
    n = X.shape[1]
    order = np.lexsort((-np.abs(R.data), R.col))
    cols, top = np.unique(R.col[order], return_index=True)
    if len(cols) < n:
        return (None,) * 6 + (np.inf,)
    to = col_lab[R.row[order[top]]]                 # the sector each column is mapped to
    image = np.full(len(weight), -1)
    image[col_lab] = to
    if not (np.array_equal(image[col_lab], to) and np.array_equal(image[to], col_lab)):
        return (None,) * 6 + (np.inf,)
    keep = col_lab[R.row] == image[col_lab[R.col]]
    R = sparse.csr_array((R.data[keep], (R.row[keep], R.col[keep])), shape=(n, n))
    dev = float(np.max(np.abs((R.T @ R - sparse.eye_array(n)).data), initial=0.0))
    piece = np.where(image[col_lab] == col_lab,
                     csgraph.connected_components(R, directed=False)[1], -1)
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
    rows, cols, vecs, new_lab, new_rep = map(np.concatenate, (rows, cols, vecs, new_lab, new_rep))
    paired = np.zeros(2 * len(image), dtype=bool)
    paired[2 * col_lab[kept]] = True
    U = sparse.csr_array((vecs, (rows, cols)), shape=(n, len(new_lab)))
    partner = np.where(paired[new_lab], O.perm[new_rep], new_rep)
    return U, new_lab, new_rep, partner, np.repeat(weight, 2), paired, dev


def _particle_hole_sectors(basis, labels, phase, G, raising, hw, theta, reflection):
    """The sectors of every field reduced by Pi, and those of h = h o r by
    Theta and Pi together, or None where the lattice fails the site
    condition of ``model.particle_hole_translation`` or Pi fails a check.

    Pi is ``model.particle_hole_symmetry`` of that translation.  It must be
    an involution that commutes with the mirror M of Theta, keep S'+ up to
    sign, leave G unchanged to _SYMMETRY_TOL and be an orthogonal involution
    on the highest-weight sectors.  Theta then acts on the sectors Pi keeps
    as Theta, or as Pi Theta where Theta leads to the partner that Pi
    drops: an involution that commutes with H''(h) for h = h o r, where
    sigma . f = 0.
    """
    sites = _model.particle_hole_translation(basis.lattice)
    if sites is None:
        return None
    particle_hole = _model.particle_hole_symmetry(basis, sites)
    P, A, col_lab, col_rep, weight = hw
    n = len(labels)
    up = sparse.kron(raising, sparse.eye_array(basis.boson_dim), format="csr")
    image = particle_hole.conjugate(up)
    if not (_same(particle_hole.compose(particle_hole), Monomial(np.arange(n), np.ones(n)))
            and _same(reflection.compose(particle_hole), particle_hole.compose(reflection))
            and min(abs(image - up).max(), abs(image + up).max()) == 0):
        return None
    pi = _gauged_symmetry(labels, phase, particle_hole, antiunitary=False)
    if _changed(G, pi)[1]:
        return None
    U1, lab1, rep1, partner, w1, paired1, dev = _involution_sectors(P, pi, col_lab, col_rep, weight)
    if dev > _SYMMETRY_TOL:
        return None
    kept = np.zeros(labels.max() + 1, dtype=bool)
    kept[labels[rep1]] = True
    swap = ~kept[labels[theta.perm]]
    pi_theta = pi.compose(theta)
    mixed = Monomial(np.where(swap, pi_theta.perm, theta.perm),
                     np.where(swap, pi_theta.sign, theta.sign))
    U2, lab2, rep2, _, w2, paired2, dev = _involution_sectors(P @ U1, mixed, lab1, rep1,
                                                             w1 * (1 + paired1))
    if dev > _SYMMETRY_TOL:
        return None
    A1 = U1.T @ (A @ U1)
    return (_sector_stacks(A1, lab1, rep1, w1, partner, w1 * paired1),
            _sector_stacks(U2.T @ (A1 @ U2), lab2, rep2, w2 * (1 + paired2)))


def highest_weight_sectors(basis, H2, reflection):
    """H'' reduced for Z(h) of the field family H''(h) = H'' + d(h): by the
    spin SU(2) of the zigzag frame, then by Pi where it applies, and for
    h = h o r by Theta as well.

    Returns (stacks, mirror_stacks, highest_weight): the stacks of
    :func:`_sector_stacks` for every field and for h = h o r, and, where Pi
    reduces them, the arguments of :func:`_sector_stacks` that build the
    spin-SU(2) sectors alone (the sparse block-diagonal H'' on the
    highest-weight columns, their labels, representatives and weights);
    None where it does not, as ``stacks`` are those sectors then.

    S'+ = V S+ V^-1, the zigzag image of S+ = sum_x c*_{x up} c_{x down}
    (``model.zigzag_spin_operators``), commutes with H'' and keeps every site
    occupation, so it commutes with every field term too.  H''(h) is then
    fixed by its restriction to the highest-weight states (ker S'+) of each
    component with S'z = M >= 0, counted 2M + 1 times.  Each idx holds one
    representative basis index per column; the field correction d(h) is
    constant on its group.  ``reflection`` is the M of Theta = M K, a
    ``hilbert.Monomial`` that keeps S'z and sends S'+ to -S'+; Theta
    commutes with H''(h) for h = h o r, whose correction is constant on each
    charge orbit {q, q o r}.

    Pi is ``model.particle_hole_symmetry``, built where
    ``model.particle_hole_translation`` finds an even translation a that
    meets the site condition on the lattice alone: the two-site ring and
    the 2x2 torus, not the 2x2x2 one.  Pi maps q_x to -q_{x+a} and the
    staggered charge Q_st, which H'' keeps and each component carries one
    value of, to -Q_st, and by the site condition it sends d(h) to
    d(h) + c(h) Q_st, c(h) = 2 V sigma . f / N, f = (-Delta) h.  So
    a component with Q_st = Q != 0 has the spectrum of its partner -Q
    shifted by c(h) Q: one is kept, its partner counted by that shift (read
    off d(h) at matched representatives, and checked constant); a
    component with Q_st = 0 is split into its Pi = +-1 halves.  For h = h o r,
    sigma . f = 0 and Theta and Pi both commute with H''(h): the sectors Pi
    keeps are split again by Theta or Pi Theta, and those with Q_st = 0 in
    four.  At 2x2, n_max = 1 this takes the sum of n^3 from 1.231e8 to
    4.996e7 for a general field and from 5.04e7 to 1.264e7 for h = h o r,
    whose largest block falls from 320 to 160.  If Pi fails a check of
    :func:`_particle_hole_sectors`, nothing is refused: the sectors are those
    of the spin SU(2) and Theta alone.

    Refuses, with ValueError, in this order: a component with flux; an H''
    whose commutator with S'+ exceeds 1e-12 times its largest entry; a
    component with two values of S'z; a group split over components or with
    a gauge that is not +-1 times one phase; multiplets that miss
    total_dim; an H'' that Theta changes by over 1e-12 times its largest
    entry; a Theta that is not an orthogonal involution on the sectors.
    """
    labels, phase, (rows, cols, vals), flux = _gauged_sparse(H2)
    if flux.any():
        raise ValueError(f"block of H'' carries flux: it is not real in the gauge read off "
                         f"H'' (largest imaginary entry {flux[flux > 0.0][0]:.3e})")
    G = sparse.csr_array((_gauged(vals, phase[rows], phase[cols]).real, (rows, cols)),
                         shape=H2.shape)
    del rows, cols, vals                      # G holds them from here on
    raising, twice_m = _model.zigzag_spin_operators(basis)
    _check_commutes(basis, G, raising, phase)
    P, col_lab, col_rep, comp_m = _project_highest_weight(basis, labels, phase, G, raising, twice_m)
    A = P.T @ (G @ P)
    theta = _gauged_symmetry(labels, phase, reflection, antiunitary=True)
    dev, changed = _changed(G, theta)
    if changed:
        raise ValueError(f"H'' is not invariant under the reflection Theta: largest change "
                         f"of an entry {dev:.3e}")
    reduced = _particle_hole_sectors(basis, labels, phase, G, raising,
                                     (P, A, col_lab, col_rep, comp_m + 1), theta, reflection)
    if reduced is not None:
        return (*reduced, (A, col_lab, col_rep, comp_m + 1))
    U, lab, rep, _, weight, paired, dev = _involution_sectors(P, theta, col_lab, col_rep,
                                                              comp_m + 1)
    if dev > _SYMMETRY_TOL:
        raise ValueError(f"the reflection Theta is not an orthogonal involution on the "
                         f"sectors (deviation {dev:.3e})")
    return (_sector_stacks(A, col_lab, col_rep, comp_m + 1),
            _sector_stacks(U.T @ (A @ U), lab, rep, weight * (1 + paired)), None)
