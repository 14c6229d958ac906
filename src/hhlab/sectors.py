"""How a Hamiltonian splits into blocks: its connected components and their
gauge, and the spin-SU(2) and Theta sectors of H''.

A Hamiltonian (a CSR array of hhlab.model, or a dense oracle) is read once
(:func:`_gauged_sparse`): its nonzero entries give the connected components
of its exact sparsity pattern (H[i, j] != 0.0) and a diagonal unitary gauge
d (_phase_gauge), in which every component without flux is real symmetric
(H'', H, H' and V H V^-1 all are).  The same pass gauges each entry once and
writes the entries out component by component, as one :class:`_Entries`
stream, float64 where no component carries flux.  Both spectral engines
read that stream alone: ``thermo.SpectralData`` scatters it into stacks of
equal-size dense blocks, and :func:`highest_weight_sectors` builds from it
the real G that it reduces for the Z(h) of ``rpverify.FieldPartition`` by
the spin SU(2) of the zigzag frame, the particle-hole symmetry Pi and the
reflection Theta.  One reducer (:func:`_involution_sectors`) serves Pi and
Theta, and one check on the stream (:func:`_invariance`) serves Theta, Pi
and the Pi_0 and spin swap of ``thermo``.
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
# the entries are gauged, checked and regrouped in slabs of about this many (or one row)
_SLAB_ENTRIES = 1 << 14


def _offdiagonal_pattern(H):
    """Rows, columns and values of H's nonzero off-diagonal entries, row by
    row, each row's columns ascending: of a dense H, read in row slabs of at
    most _PATTERN_SLAB_BYTES, or of the stored entries of a scipy.sparse H,
    read in place where it is a canonical CSR (as ``model`` builds them),
    with 32-bit rows and columns where they fit."""
    if sparse.issparse(H):
        if H.format != "csr" or not H.has_canonical_format:
            H = H.tocoo().tocsr()               # duplicates summed, each row sorted
        n = H.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int32 if n < 2 ** 31 else np.int64),
                         np.diff(H.indptr))
        keep = (rows != H.indices) & (H.data != 0)
        return rows[keep], H.indices[keep].astype(rows.dtype, copy=False), H.data[keep]
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
    m = len(rows)
    itype = np.int32 if m + n < 2 ** 31 else np.int64
    weights = np.empty(m + n)
    np.negative(np.abs(vals, out=weights[:m]), out=weights[:m])
    weights[m:] = 1.0
    index = np.empty(m + n, dtype=itype)
    index[:m], index[m:] = cols, np.arange(n)
    indptr = np.zeros(n + 2, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:n + 1])
    indptr[-1] = m + n
    tree = csgraph.minimum_spanning_tree(
        sparse.csr_matrix((weights, index, indptr), shape=(n + 1, n + 1)), overwrite=True)
    del weights, index, indptr
    _, up = csgraph.breadth_first_order(tree, n, directed=False, return_predecessors=True)
    up = up[:n]
    roots = np.flatnonzero(up == n)
    up[roots] = roots
    # the link H[k, up[k]] (conj(H[up[k], k]) for Hermitian H), looked up in
    # the entries, whose keys ascend: they run row by row
    key, want = rows * np.int64(n) + cols, np.arange(n) * n + up
    at = np.searchsorted(key, want)
    found = np.flatnonzero(at < m)
    found = found[key[at[found]] == want[found]]
    del key
    link = np.zeros(n, dtype=vals.dtype)
    link[found] = vals[at[found]]
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


class _Entries:
    """H's entries, read and gauged once (:func:`_gauged_sparse`), as a
    stream that runs component by component.

    ``vals`` holds H's nonzero off-diagonal entries in the gauge d,
    conj(d_k) H_kl d_l, and ``diagonal`` H's diagonal: float64 (the real
    parts) where no component carries flux, else complex, with the
    components that carry flux left ungauged (d = 1 there).  Component c
    lies at ends[c]:ends[c + 1], its rows ascending, and row k at
    first[k]:first[k] + count[k], its columns ascending.  An entry's ``key``
    is offset[c] + n k' + l', k' and l' the positions of its row and column
    among the n states of c and offset[c] the sum of n^2 over the
    components before c: the keys ascend along the stream.

    Per component, ``imag`` is the largest |Im| of a gauged entry, ``peak``
    the largest |H_kl| and ``flux`` the imaginary part where it exceeds
    _GAUGE_IMAG_TOL times ``peak``, else 0; ``top`` is the largest modulus
    in the stream.  ``labels`` and ``phase`` are those of
    :func:`_phase_gauge`; ``order``, ``sizes``, ``start`` and ``position``
    those of :func:`_positions`.
    """

    def __init__(self, labels, phase, rows):
        n = len(labels)
        self.labels, self.phase = labels, phase
        self.order, self.sizes, self.start, self.position = _positions(labels)
        self.offset = np.cumsum(self.sizes ** 2) - self.sizes ** 2
        self.count = np.bincount(rows, minlength=n)
        in_order = self.count[self.order]
        self.first = np.empty(n, dtype=np.intp)
        self.first[self.order] = np.cumsum(in_order) - in_order
        last = self.order[self.start + self.sizes - 1]      # each component's last row
        self.ends = np.concatenate([[0], self.first[last] + self.count[last]])

    def runs(self, rows, weight=None):
        """``rows`` in runs of about _SLAB_ENTRIES entries (or one row), or of
        that much ``weight`` per row."""
        ends = np.cumsum(self.count[rows] if weight is None else weight[rows])
        cuts = np.searchsorted(ends, np.arange(_SLAB_ENTRIES, ends[-1] if len(ends) else 0,
                                               _SLAB_ENTRIES))
        return [run for run in np.split(rows, np.unique(cuts + 1)) if len(run)]

    def csr(self):
        """G, the stream with its diagonal, as a CSR array with each row's
        columns ascending: the stream's rows moved whole, in runs."""
        n, labels = len(self.labels), self.labels
        itype = np.int32 if len(self.vals) + n < 2 ** 31 else np.int64
        indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(self.count + 1, out=indptr[1:])
        data = np.empty(indptr[-1], dtype=self.vals.dtype)
        indices = np.empty(indptr[-1], dtype=itype)
        # an entry's column is order[key + shift] of its row
        shift = self.start[labels] - self.offset[labels] - self.sizes[labels] * self.position
        for rows in self.runs(self.order):
            count = self.count[rows]
            span = slice(self.first[rows[0]], self.first[rows[-1]] + count[-1])
            k = np.repeat(rows, count)
            l = self.order[self.key[span] + np.repeat(shift[rows], count)]
            above = l > k                   # the diagonal goes before these
            to = _ranges(indptr[rows], count) + above
            data[to], indices[to] = self.vals[span], l
            to = indptr[rows] + count - np.bincount(np.repeat(np.arange(len(rows)), count),
                                                    above, len(rows)).astype(itype)
            data[to], indices[to] = self.diagonal[rows], rows
        return sparse.csr_array((data, indices, indptr), shape=(n, n))


def _ranges(first, count):
    """The positions first[i]:first[i] + count[i], one run after the other."""
    at = np.repeat(first - (np.cumsum(count) - count), count)
    at += np.arange(len(at))
    return at


def _gauged_sparse(H):
    """H (dense or scipy.sparse) read once, as an :class:`_Entries` stream:
    its entries over the components of its exact sparsity pattern, in the
    gauge of :func:`_phase_gauge`.

    The entries are gauged once each, conj(d_k) H_kl then times d_l
    (:func:`_gauged`), in slabs of _SLAB_ENTRIES, and each row is moved
    whole to its component's place in the stream: no sort.  The real parts
    are kept, and the largest imaginary part of each component is taken on
    the way.  A component whose largest imaginary part exceeds
    _GAUGE_IMAG_TOL times its largest entry carries flux: then the gauge is
    reset to 1 there and the stream is written again as complex, with those
    components' entries as H has them.  An H with an entry that is not
    finite is refused with ValueError, before the gauge is read.
    """
    rows, cols, vals = _offdiagonal_pattern(H)
    diagonal = H.diagonal()
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(diagonal))):
        raise ValueError("H has an entry that is not finite")
    labels, phase = _phase_gauge(H, (rows, cols, vals))
    s = _Entries(labels, phase, rows)
    s.imag, s.peak = np.zeros((2, len(s.sizes)))
    read = np.cumsum(s.count) - s.count                   # each row's first entry as read
    s.key = np.empty(len(rows), dtype=np.int32 if s.offset[-1] + s.sizes[-1] ** 2 < 2 ** 31
                     else np.int64)
    s.vals = np.empty(len(rows))
    slabs = [slice(lo, lo + _SLAB_ENTRIES) for lo in range(0, len(rows), _SLAB_ENTRIES)]
    for sl in slabs:
        r, c = rows[sl], cols[sl]
        lab = labels[r]
        at = s.first[r] + np.arange(sl.start, sl.start + len(r)) - read[r]
        s.key[at] = s.offset[lab] + s.sizes[lab] * s.position[r] + s.position[c]
        g = _gauged(vals[sl], phase[r], phase[c])
        np.maximum.at(s.peak, lab, np.abs(vals[sl]))
        np.maximum.at(s.imag, lab, np.abs(g.imag))
        s.vals[at] = g.real
    g = _gauged(diagonal, phase, phase)
    np.maximum.at(s.peak, labels, np.abs(diagonal))
    np.maximum.at(s.imag, labels, np.abs(g.imag))
    s.diagonal = g.real
    s.flux = np.where(s.imag > _GAUGE_IMAG_TOL * s.peak, s.imag, 0.0)
    if s.flux.any():
        ungauged = s.flux[labels] > 0.0
        phase[ungauged] = 1.0
        s.vals = s.vals.astype(complex)
        for sl in slabs:
            r = rows[sl]
            at = s.first[r] + np.arange(sl.start, sl.start + len(r)) - read[r]
            gauged = _gauged(vals[sl], phase[r], phase[cols[sl]])
            s.vals[at] = np.where(ungauged[r], vals[sl], gauged)
        s.diagonal = np.where(ungauged, diagonal, g)
    s.top = max(_largest(s.vals), _largest(s.diagonal))
    return s


def _largest(a):
    """The largest modulus in a, in slabs."""
    return max((float(np.max(np.abs(a[i:i + _SLAB_ENTRIES])))
                for i in range(0, a.size, _SLAB_ENTRIES)), default=0.0)


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


def _block_stacks(labels, M):
    """The entries of M inside the blocks named by ``labels`` (-1: none),
    scattered into one stack of equal-size dense blocks per block size;
    entries between two blocks are dropped.  M is a CSR or CSC array, or a
    function that returns its rows or columns as one (:func:`_sandwich`).

    Yields, by ascending block size n, (labs, idx, blocks): the labels of
    the m blocks of that size, their indices idx (m, n), ascending in each
    block, and the blocks (m, n, n) in M's dtype, +0.0 off its entries; none
    is kept here.  Each size reads its own rows (or columns) of M only.
    """
    take = M if callable(M) else lambda major: _major(M, major)
    order, sizes, start, position = _positions(labels)
    for n in np.unique(sizes[sizes > 0]):
        labs = np.flatnonzero(sizes == n)
        idx = order[start[labs][:, None] + np.arange(n)]
        sub = take(idx.ravel())
        major = np.repeat(np.arange(idx.size), np.diff(sub.indptr))    # block m', index k'
        keep = np.flatnonzero(labels[sub.indices] == np.repeat(labs, n)[major])
        major, minor = major[keep], position[sub.indices[keep]]
        if sub.format == "csc":
            major, minor = major // n * n + minor, major % n
        blocks = np.zeros((len(labs), n, n), dtype=sub.dtype)
        blocks.reshape(-1)[major * n + minor] = sub.data[keep]
        yield labs, idx, blocks


def _major(M, major):
    """The rows (of a CSR M) or columns (of a CSC M) ``major``, gathered from
    M's arrays into its format."""
    count = M.indptr[major + 1] - M.indptr[major]
    indptr = np.zeros(len(major) + 1, dtype=M.indptr.dtype)
    np.cumsum(count, out=indptr[1:])
    at = _ranges(M.indptr[major], count)
    shape = (len(major), M.shape[1]) if M.format == "csr" else (M.shape[0], len(major))
    return type(M)((M.data[at], M.indices[at], indptr), shape=shape)


def _sandwich(U, A):
    """The columns of U^T A U, a function for :func:`_block_stacks`: each
    bit for bit that of U^T @ (A @ U), whose last product scipy forms
    column by column (U^T is CSC), with nothing of that size formed."""
    Uc = U.tocsc()
    return lambda columns: U.T @ (A @ _major(Uc, columns))


def _gauged(a, row_phase, col_phase):
    """conj(row_phase) a col_phase for entries a of a matrix (as many as the
    phases): conj(d_k) a_kl first, then times d_l."""
    out = row_phase.conj() * a
    out *= col_phase
    return out


def _invariance(entries, O):
    """(to, dev) for a real signed permutation O of the gauged space (a
    Monomial) and the :class:`_Entries` stream ``entries`` of G = conj(d) H d:
    the component that O maps each component onto, None unless O maps every
    component onto one of its size; and dev, the largest entry of
    O G O^T - G, the diagonal included.  The symmetry checks compare dev
    with _SYMMETRY_TOL times ``entries.top``.

    The rows are taken in runs of the stream's own order.  The entry (k, l)
    of the row k = perm^-1[t] of a target row t moves to (t, perm[l]) with
    the sign sign[k] sign[l], and is looked up in a table of the stream
    positions of the run's keys, one slot per (row, state of its
    component): a run holds about _SLAB_ENTRIES entries and at most 16
    times that many slots.  An image that is no entry, and an entry that is
    no image, count their whole modulus, as they do in O G O^T - G.
    Nothing of the stream's length is formed.
    """
    e, labels = entries, entries.labels
    image = labels[O.perm]
    to = image[e.order[e.start]]                # the image of each component's first index
    if not (np.array_equal(image, to[labels]) and np.array_equal(e.sizes[to], e.sizes)):
        to = None
    dev = float(np.max(np.abs(e.diagonal[O.perm] - e.diagonal), initial=0.0))
    inverse = np.empty_like(O.perm)
    inverse[O.perm] = np.arange(len(O.perm))
    # row k's entries have keys base[k] + position[l]; per index in the stream's order,
    # the position and component of its image and its sign
    width = e.sizes[labels]
    base = e.offset[labels] + width * e.position
    moved_at, moved_in, sign = e.position[O.perm][e.order], image[e.order], O.sign[e.order]
    for t in e.runs(e.order, e.count + width // 16):
        k = inverse[t]
        count = e.count[k]
        at = _ranges(e.first[k], count)
        l = e.key[at] + np.repeat(e.start[labels[k]] - base[k], count)     # in the stream's order
        want = np.repeat(base[t] - base[t[0]], count) + moved_at[l]
        slots = base[t[-1]] + width[t[-1]] - base[t[0]]
        if to is None:
            want[moved_in[l] != np.repeat(labels[t], count)] = slots     # no entry there
        span = slice(e.first[t[0]], e.first[t[-1]] + e.count[t[-1]])
        m = span.stop - span.start
        table = np.full(slots + 1, m)           # slot m: no entry, of value 0
        table[e.key[span] - base[t[0]]] = np.arange(m)
        there = table[want]
        vals, hit = np.append(e.vals[span], 0), np.zeros(m + 1, dtype=bool)
        hit[there] = True
        moved = e.vals[at] * (np.repeat(O.sign[k], count) * sign[l])
        moved -= vals[there]
        dev = max(dev, float(np.max(np.abs(moved), initial=0.0)),
                  float(np.max(np.abs(vals[:m][~hit[:m]]), initial=0.0)))
    return to, dev


# -- the spin SU(2) of H'' --


# largest entry of [H'', S'+] and of Theta H'' Theta^-1 - H'' relative to that of H'';
# largest deviation of the gauge on a group from +-1 times one phase, and of Theta on
# the sectors from an orthogonal involution
_SYMMETRY_TOL = 1e-12
# eigenvalues of S'- S'+ below this are zeros: the others are S(S + 1) - M(M + 1) >= 2
_KERNEL_CUT = 0.5
# largest spread of a paired sector's shift over its columns, relative to the field correction
_SHIFT_TOL = 1e-12


def _check_commutes(basis, G, raising, phase, top):
    """Refuse, with ValueError, an H'' that does not commute with S'+ (x) 1.

    G is H'' in the gauge d as a CSR array and ``top`` its largest entry,
    and S = conj(d) (S'+ (x) 1) d is formed as one too: conj(d) [H'', S'+] d
    = [G, S].  The commutator is taken in slabs of rows of about
    2 _SLAB_ENTRIES entries of G, on views of G's and S's arrays and the
    rows of G that S's rows reach, so nothing of G's size is formed.
    """
    nb = basis.boson_dim
    up = raising.tocoo()
    rows = (up.row[:, None] * nb + np.arange(nb)).ravel()
    cols = (up.col[:, None] * nb + np.arange(nb)).ravel()
    S = sparse.csr_array((_gauged(np.repeat(up.data, nb), phase[rows], phase[cols]),
                          (rows.astype(G.indices.dtype), cols.astype(G.indices.dtype))),
                         shape=G.shape)       # in G's index type: no product converts G
    n, dev = G.shape[0], 0.0
    step = max(1, 2 * _SLAB_ENTRIES * n // max(1, G.nnz))
    for r0 in range(0, n, step):
        need = np.unique(_rows(S, r0, r0 + step).indices)     # the rows of G they read
        slab = _rows(G, r0, r0 + step) @ S - _rows(S, r0, r0 + step, need) @ _major(G, need)
        dev = max(dev, float(np.max(np.abs(slab.data), initial=0.0)))
    if dev > _SYMMETRY_TOL * top:
        raise ValueError(f"H'' does not commute with the spin raising operator S'+: "
                         f"largest entry of the commutator {dev:.3e}")


def _rows(M, r0, r1, columns=None):
    """Rows r0:r1 of the CSR array M, on views of its arrays; with ``columns``
    (ascending, holding every column they reach), on those alone, renumbered."""
    a, b = M.indptr[r0], M.indptr[min(r1, M.shape[0])]
    indptr, indices = M.indptr[r0:r1 + 1] - a, M.indices[a:b]
    if columns is not None:
        indices = np.searchsorted(columns, indices).astype(indices.dtype)
    width = M.shape[1] if columns is None else len(columns)
    return sparse.csr_array((M.data[a:b], indices, indptr), shape=(len(indptr) - 1, width))


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
    for _, states, stack in _block_stacks(group_of, (raising.T @ raising).tocsr()):
        w, q = np.linalg.eigh(stack)
        dims = np.sum(w < _KERNEL_CUT, axis=1)
        for k in np.unique(dims[dims > 0]):
            these = dims == k
            yield states[these], q[these, :, :k]


def _project_highest_weight(basis, labels, phase, raising, twice_m):
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
    """The sparse B (or a function of its columns, :func:`_sandwich`) as one
    stack (idx, real blocks, weight) per block size of the labels
    ``col_lab``, without the entries between two labels: rounding, between
    the eigenspaces of an involution.

    idx = col_rep of the columns and ``weight`` is per label.  With
    ``partner``, a representative of each column's image in the sector
    paired with its own, a stack that holds a paired block also holds
    (partner[idx], partner_weight per block): the paired sector has the
    spectrum of the block shifted by a constant, and is counted
    partner_weight times.
    """
    stacks = []
    for labs, idx, blocks in _block_stacks(col_lab, B):
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
    R = ((R + R.T) / 2).tocsr()     # for orthogonal R, eigenvalues +-1 iff R = R^T
    for _, idx, stack in _block_stacks(piece, R):
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


def _particle_hole(basis, entries, raising, reflection):
    """Pi in the gauge of the stream ``entries`` of H'' (a real Monomial), or
    None where the lattice fails the site condition of
    ``model.particle_hole_translation`` or Pi fails a check.

    Pi is ``model.particle_hole_symmetry`` of that translation.  It must be
    an involution that commutes with the mirror M of Theta, keep S'+ up to
    sign and leave G unchanged to _SYMMETRY_TOL (:func:`_invariance`).
    """
    sites = _model.particle_hole_translation(basis.lattice)
    if sites is None:
        return None
    particle_hole = _model.particle_hole_symmetry(basis, sites)
    n = basis.total_dim
    up = sparse.kron(raising, sparse.eye_array(basis.boson_dim), format="csr")
    image = particle_hole.conjugate(up)
    if not (_same(particle_hole.compose(particle_hole), Monomial(np.arange(n), np.ones(n)))
            and _same(reflection.compose(particle_hole), particle_hole.compose(reflection))
            and min(abs(image - up).max(), abs(image + up).max()) == 0):
        return None
    pi = _gauged_symmetry(entries.labels, entries.phase, particle_hole, antiunitary=False)
    return None if _invariance(entries, pi)[1] > _SYMMETRY_TOL * entries.top else pi


def _particle_hole_sectors(labels, pi, hw, theta):
    """The sectors of every field reduced by Pi (``pi``, of
    :func:`_particle_hole`), and those of h = h o r by Theta and Pi
    together, or None where Pi is not an orthogonal involution on the
    highest-weight sectors.

    Theta acts on the sectors Pi keeps as Theta, or as Pi Theta where Theta
    leads to the partner that Pi drops: an involution that commutes with
    H''(h) for h = h o r, where sigma . f = 0.
    """
    P, A, col_lab, col_rep, weight = hw
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
            _sector_stacks(_sandwich(U2, A1), lab2, rep2, w2 * (1 + paired2)))


def highest_weight_sectors(basis, H2, reflection):
    """H'' reduced for Z(h) of the field family H''(h) = H'' + d(h): by the
    spin SU(2) of the zigzag frame, then by Pi where it applies, and for
    h = h o r by Theta as well.

    Returns (stacks, mirror_stacks, highest_weight): the stacks of
    :func:`_sector_stacks` for every field and for h = h o r, and, where Pi
    reduces them, the arguments of :func:`_sector_stacks` that build the
    spin-SU(2) sectors alone (H'' on the highest-weight columns, their
    labels, representatives and weights); None where it does not.

    S'+ = V S+ V^-1, the zigzag image of S+ = sum_x c*_{x up} c_{x down}
    (``model.zigzag_spin_operators``), commutes with H'' and every field
    term, so H''(h) is fixed by its restriction to the highest-weight states
    (ker S'+) of each component with S'z = M >= 0, counted 2M + 1 times.
    Each idx holds one representative basis index per column; d(h) is
    constant on its group.  ``reflection`` is the M of Theta = M K, a
    ``hilbert.Monomial`` that keeps S'z and sends S'+ to -S'+; Theta
    commutes with H''(h) for h = h o r.

    Pi (``model.particle_hole_symmetry``) exists where
    ``model.particle_hole_translation`` finds an even translation a that
    meets the site condition: the two-site ring and the 2x2 torus, not the
    2x2x2 one.  Pi maps q_x to -q_{x+a}, the staggered charge Q_st (one
    value per component) to -Q_st, and d(h) to d(h) + c(h) Q_st, c(h) =
    2 V sigma . f / N, f = (-Delta) h.  So of two components with Q_st =
    +-Q != 0 one is kept and the other counted by the shift c(h) Q (read
    off d(h) at matched representatives, and checked constant), and one
    with Q_st = 0 is split into its Pi = +-1 halves.  For h = h o r,
    sigma . f = 0: the sectors Pi keeps are split again by Theta or
    Pi Theta.  At 2x2, n_max = 1 the sum of n^3 falls from 1.231e8 to
    4.996e7 for a general field and from 5.04e7 to 1.264e7 for h = h o r,
    whose largest block falls from 320 to 160.  If Pi fails a check,
    nothing is refused: the sectors are those of the spin SU(2) and Theta.

    H'' is read once, as the stream of :func:`_gauged_sparse`, on which
    Theta and Pi are checked; the real G built from it then holds the
    entries.  At 2x2, n_max = 2 (CSR H'', 4.1 M entries) the construction
    keeps 100 MiB and peaks at 189 MiB traced, in the read.

    Refuses, with ValueError, in this order: an H'' whose shape is not
    (total_dim, total_dim), before any entry is read; a component with
    flux; an H'' whose commutator with S'+ exceeds 1e-12 times its largest
    entry; a component with two values of S'z; a group split over
    components or with a gauge that is not +-1 times one phase; multiplets
    that miss total_dim; an H'' that Theta changes by over 1e-12 times its
    largest entry; a Theta that is not an orthogonal involution on the
    sectors.
    """
    n = basis.total_dim
    if H2.shape != (n, n):
        raise ValueError(f"H'' has shape {H2.shape}, not (total_dim, total_dim) = ({n}, {n})")
    entries = _gauged_sparse(H2)
    if entries.flux.any():
        flux = entries.flux
        raise ValueError(f"block of H'' carries flux: it is not real in the gauge read off "
                         f"H'' (largest imaginary entry {flux[flux > 0.0][0]:.3e})")
    labels, phase, top = entries.labels, entries.phase, entries.top
    # Theta and Pi are checked on the stream, and refused in their turn below
    theta = _gauged_symmetry(labels, phase, reflection, antiunitary=True)
    theta_dev = _invariance(entries, theta)[1]
    raising, twice_m = _model.zigzag_spin_operators(basis)
    pi = _particle_hole(basis, entries, raising, reflection)
    G = entries.csr()
    del entries                               # G holds the entries from here on
    _check_commutes(basis, G, raising, phase, top)
    P, col_lab, col_rep, comp_m = _project_highest_weight(basis, labels, phase, raising, twice_m)
    A = P.T @ (G @ P)
    del G
    if theta_dev > _SYMMETRY_TOL * top:
        raise ValueError(f"H'' is not invariant under the reflection Theta: largest change "
                         f"of an entry {theta_dev:.3e}")
    hw = (P, A, col_lab, col_rep, comp_m + 1)
    reduced = None if pi is None else _particle_hole_sectors(labels, pi, hw, theta)
    if reduced is not None:
        return (*reduced, (A, col_lab, col_rep, comp_m + 1))
    U, lab, rep, _, weight, paired, dev = _involution_sectors(P, theta, col_lab, col_rep,
                                                              comp_m + 1)
    if dev > _SYMMETRY_TOL:
        raise ValueError(f"the reflection Theta is not an orthogonal involution on the "
                         f"sectors (deviation {dev:.3e})")
    return (_sector_stacks(A, col_lab, col_rep, comp_m + 1),
            _sector_stacks(_sandwich(U, A), lab, rep, weight * (1 + paired)), None)
