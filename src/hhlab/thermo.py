"""Spectral decomposition, thermal expectations, the infrared forms and
charge correlations.

A Hamiltonian is read once by ``sectors._gauged_sparse``, as a stream of
its entries, component by component of its exact sparsity pattern and in a
gauge in which each component without flux is real; the stream is
scattered into stacks of equal-size dense blocks (:func:`_stream_stacks`),
each eigendecomposed exactly with dense LAPACK.  A "dirty" matrix degrades to
one big block, never to a wrong answer.  The Gibbs state is block-diagonal
over the components.  Its diagonal serves the thermal averages of diagonal
observables; off the diagonal it is kept only at H's own entries, which is
all the infrared forms and the pairing-bond expectations read, and each
Gibbs block is dropped as soon as it is read there.  Those two reads visit
one component per orbit of Pi_0 and the spin swap, which map H'' onto
itself (:func:`_component_orbits`).

The infrared forms g, b and c are built from the spectral data alone
(:func:`quadratic_form_quantities`).  All exponentials are shifted by the
ground energy so beta can be large.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import model as _model
from . import sectors as _sectors
from ._lazy import LazyModule
from .hilbert import Monomial

blas = LazyModule("scipy.linalg.blas")

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
# _rho_entries reads a Gibbs block in row slabs of at most this (or one row);
# a block of up to 724 real states is one slab, with the bits of the whole block
_RHO_SLAB_BYTES = 4 << 20


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
    construction raises AssertionError.  On a real block the residual is
    max |q w q^T - Re G| plus the component's largest |Im G| (of the
    stream), >= |Q W Q^H - H_blk|: the imaginary part the real ``eigh``
    discards is charged to the check.

    H's gauged off-diagonal entries are kept, grouped by component, for the
    infrared forms and the pairing-bond expectations: the stream itself
    (``_stream``, ``_entries``), real where no component carries flux.  A
    block is scattered from it as float64 (or complex where its component
    carries flux), solved and released.  At its peak the build holds H's
    entries as read, the stream, the eigenvectors solved so far (the
    largest blocks first, so the fewest then), and one stack of at most
    _STACK_BYTES or one block, with its eigenvectors and a one-block
    residual temporary.  At 2x2, n_max = 1 that is 14 MiB traced, 12 MiB
    of it kept; at n_max = 2 (CSR H''), 322 MiB, 294 MiB kept.  The Gibbs
    state is read on first use at those entries (:meth:`_rho_entries`, one
    more value per entry: 31 MiB at n_max = 2), in row slabs of one
    component's Gibbs block at a time; no whole Gibbs block is formed.  The
    reads that take a basis (the forms and the bonds) read it, and the
    entries, on one component per orbit of Pi_0 and the spin swap only
    (:func:`_component_orbits`, cached on the spec with its basis): 39 of
    the 85 components at 2x2, n_max = 1, holding 0.58 of the sum of n^3.
    Where either symmetry fails its check in the gauge, every component is
    read.  Thermal averages of other observables are taken of diagonals
    only (:meth:`expectation`), over every component.

    Attributes of interest: ``beta``, ``e0`` (ground energy), ``logZ``,
    ``blocks`` and ``real_blocks``.  Immutable once built.
    """

    def __init__(self, H, beta):
        n = H.shape[0]
        if H.shape != (n, n) or n == 0:
            raise ValueError(f"H must be square and not empty, got shape {H.shape}")
        beta = float(beta)
        if not 0.0 <= beta < np.inf:        # nan fails both
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        stream = _sectors._gauged_sparse(H)
        self.dim = n
        self._stream = stream                   # H's gauged entries, for the orbit checks
        self._block_of = stream.labels          # component of each basis index
        # each component's size, and each basis index's position in its component
        self._size, self._position = stream.sizes, stream.position
        self._phase = stream.phase              # the gauge d on the full space
        self._eig = eig = [None] * len(stream.sizes)    # (indices, w, q) with q in the gauge
        # H's off-diagonal entries by component, for the forms and bonds
        self._entries = (stream.key, stream.vals, stream.ends)
        res = 0.0
        for labs, idx, blk in _stream_stacks(stream, _STACK_BYTES):
            w, q = np.linalg.eigh(blk)
            res = max(res, _block_residual(w, q, blk, 0.0 if np.iscomplexobj(blk)
                                           else stream.imag[labs]))
            for lab, i, wi, qi in zip(labs, idx, w, q):
                eig[lab] = (i, wi, qi)
            del blk                     # released before the next stack is scattered
        if res > 1e-9 * max(1e-300, float(stream.peak.max())):
            raise AssertionError(f"eigendecomposition residual {res} too large")
        self.beta = beta
        self.e0 = min(float(w[0]) for _, w, _ in eig)
        self._weights = [np.exp(-self.beta * (w - self.e0)) for _, w, _ in eig]
        self.z_shifted = float(sum(wt.sum() for wt in self._weights))
        self.logZ = -self.beta * self.e0 + float(np.log(self.z_shifted))
        self._rho_diag = None
        self._rho_at = None
        self._rho_read = np.zeros(len(eig), dtype=bool)
        self._orbits = None
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

    def rho_diag(self):
        """Diagonal of the Gibbs state in the original basis."""
        if self._rho_diag is None:
            d = np.zeros(self.dim)
            for (idx, _, q), wt in zip(self._eig, self._weights):
                d[idx] = (np.abs(q) ** 2) @ wt
            self._rho_diag = d / self.z_shifted
        return self._rho_diag

    def _rho_entries(self, components=None):
        """The gauged Gibbs state at H's off-diagonal entries, aligned with
        ``_entries``, read on ``components`` (every component by default) and
        nan on a component not read yet.  Each component is read once, from
        row slabs of its Gibbs block q diag(e^{-beta w}) q^H / Z of at most
        _RHO_SLAB_BYTES (or one row), each dropped when read: neither the whole
        block nor a scaled copy of q is formed (a complex q is conjugated
        once)."""
        key, _, ends = self._entries
        if self._rho_at is None:
            real = all(np.isrealobj(q) for _, _, q in self._eig)
            self._rho_at = np.full(len(key), np.nan, dtype=float if real else complex)
        todo = np.arange(len(self._eig)) if components is None else np.asarray(components)
        for c in todo[~self._rho_read[todo]]:
            (_, _, q), wt = self._eig[c], self._weights[c]
            local = key[ends[c]:ends[c + 1]] - self._stream.offset[c]
            n = len(wt)
            step = max(1, _RHO_SLAB_BYTES // (q.itemsize * n))
            cuts = np.searchsorted(local, np.arange(0, n + step, step) * n)
            qh = q.conj().T
            for r0, lo, hi in zip(range(0, n, step), cuts, cuts[1:]):
                if hi > lo:
                    slab = (q[r0:r0 + step] * wt) @ qh
                    self._rho_at[ends[c] + lo:ends[c] + hi] = \
                        slab.take(local[lo:hi] - r0 * n) / self.z_shifted
        self._rho_read[todo] = True
        return self._rho_at

    # -- thermal averages --

    def expectation(self, A):
        """<A> = Tr[A e^{-beta H}] / Z = sum_k A_k rho_kk for a diagonal
        operator, given as the 1-d array A of its diagonal.  A Hermitian one
        (every |Im A_k| < 1e-14) gives a float, any other a complex number.
        A 2-d operand (a matrix, dense or sparse) is refused with ValueError,
        as is a diagonal of another length than the dimension.
        """
        if np.ndim(A) != 1:
            raise ValueError(f"expectation takes a diagonal (a 1-d array), got shape "
                             f"{np.shape(A)}")
        A = np.asarray(A)
        if A.shape != (self.dim,):
            raise ValueError(f"operator has shape {A.shape}, not the dimension {self.dim} "
                             f"of the spectral data")
        val = complex(np.dot(A, self.rho_diag()))
        return val if np.iscomplexobj(A) and np.any(np.abs(A.imag) >= 1e-14) else val.real


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


def _stream_stacks(stream, max_bytes):
    """Each component's block of the entry stream of ``sectors._gauged_sparse``,
    in stacks of equal-size blocks of at most ``max_bytes`` (or one block),
    the largest first: yields (labs, idx, blocks), idx (m, n) each block's
    indices, ascending.  A block is real where its component carries no
    flux, else complex (H's own entries); off the entries it holds the
    signed zeros that gauging leaves (:func:`_gauged_zeros`)."""
    s = stream
    for n in np.unique(s.sizes)[::-1]:
        for flux in (False, True):
            labs = np.flatnonzero((s.sizes == n) & ((s.flux > 0.0) == flux))
            step = max(1, max_bytes // ((16 if flux else 8) * n * n))
            for chunk in (labs[i:i + step] for i in range(0, len(labs), step)):
                idx = s.order[s.start[chunk][:, None] + np.arange(n)]
                m = len(chunk)
                blocks = (np.zeros((m, n, n), dtype=complex) if flux
                          else _gauged_zeros(s.phase[idx]))
                count = s.ends[chunk + 1] - s.ends[chunk]
                at = _sectors._ranges(s.ends[chunk], count)
                vals, diagonal = s.vals[at], s.diagonal[idx]
                if not flux:
                    vals, diagonal = vals.real, diagonal.real
                blocks.reshape(-1)[s.key[at] + np.repeat(np.arange(m) * n * n - s.offset[chunk],
                                                         count)] = vals
                blocks[:, np.arange(n), np.arange(n)] = diagonal
                yield chunk, idx, blocks


def _gauged_zeros(phase):
    """The real parts of conj(d_k) 0 d_l over a stack of blocks with gauge
    ``phase`` (m, n), in the order of ``sectors._gauged``: the signed zeros
    that gauging leaves off a block's entries, which LAPACK reads."""
    zero = phase.conj() * np.zeros((), dtype=phase.dtype)
    if not np.iscomplexobj(phase):
        return zero[..., :, None] * phase[..., None, :]
    out = zero.real[..., :, None] * phase.real[..., None, :]
    out -= zero.imag[..., :, None] * phase.imag[..., None, :]
    return out


def _block_residual(w, q, g, imag):
    """Largest entry of |q w q^H - g| + imag over a stack of blocks g, with
    ``imag`` per block (or one for all): on a real block, the largest
    imaginary part that the real ``eigh`` discards, so the sum bounds
    |Q W Q^H - H_blk|.  Taken one block at a time, in place."""
    n, res = q.shape[-1], 0.0
    imag = np.broadcast_to(imag, w.shape[:-1])
    for wi, qi, gi, ii in zip(w.reshape(-1, n), q.reshape(-1, n, n), g.reshape(-1, n, n),
                              imag.reshape(-1)):
        back = (qi * wi) @ qi.T.conj()
        back -= gi
        res = max(res, float(np.abs(back).max()) + float(ii))
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
    t |f_x + f_y|^2 (:func:`_bond_form`) over the pairing-bond expectations,
    which are the same entries of H'' summed by site pair -- and the two
    must agree to 1e-9 relative.

    ``spec`` must be the spectral data of H'' at ``params.beta``, whose
    entries it keeps.  One whose dimension is not ``basis.total_dim`` or
    whose beta is not ``params.beta`` is refused with ValueError before any
    form is read, as is an h whose shape is not (n_sites,) or with an entry
    that is not finite.  ``bond_expectations`` are those of
    :func:`pairing_bond_expectations`, and are kept on ``spec`` for calls
    without them; with none kept, they are computed there.
    """
    h = _model._site_field(h, basis.n_sites, complex)
    f = basis.lattice.laplacian_matrix() @ h                              # f = (-Delta) h
    return _form_values(params, basis, f, spec, bond_expectations)


def _form_values(params, basis, f, spec, bond_expectations=None):
    """(g, b, c) of :func:`quadratic_form_quantities` at f = (-Delta) h."""
    _check_dimension(spec, basis)
    if params.beta != spec.beta:
        raise ValueError(f"params.beta = {params.beta} is not the beta {spec.beta} of spec")
    _quadratic_forms(spec, basis)
    slot = spec._forms
    if bond_expectations is None:
        bond_expectations = (slot[2] if slot[2] is not None
                             else pairing_bond_expectations(params, basis, spec))
    if slot[2] is not bond_expectations:
        slot[1][3] = _bond_form(basis, bond_expectations)
        slot[2] = bond_expectations
    g_q, b_q, c_direct, c_closed = ((slot[1] @ f) @ f.conj()).tolist()
    if abs(b_q.imag) > 1e-9 * max(1.0, abs(b_q)):
        raise AssertionError(f"(A, A) should be real, got {b_q}")
    if abs(c_direct.imag) > 1e-10 * max(1.0, abs(c_direct)):
        raise AssertionError(f"<[A, [H, A*]]> should be real, got {c_direct}")
    c_direct, c_closed = params.beta * c_direct.real, -params.beta * c_closed.real
    if abs(c_direct - c_closed) > 1e-9 * max(abs(c_direct), abs(c_closed), 1.0):
        slot[2] = None              # not the bonds of spec: none is kept for the next call
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
    [basis, (G, B, C, W), the bonds of W or None], keyed by the identity of
    ``basis``: it keeps the basis alive, so a recycled id cannot hit a stale
    entry."""
    slot = spec._forms
    if slot is None or slot[0] is not basis:
        forms = np.zeros((4, basis.n_sites, basis.n_sites), complex)   # as f: no cast
        forms[:3] = _build_quadratic_forms(spec, basis)
        slot = spec._forms = [basis, forms, None]
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

    B and C are summed over one component per orbit of Pi_0 and the spin
    swap (:func:`_component_orbits`), each counted by the size of its
    orbit: both symmetries keep q_x q_y, so every image contributes what
    its representative does, up to rounding (B moves by 3.7e-16 relative
    at 2x2, n_max = 1, against the sum over every component).  Where either
    symmetry fails its check, every component is summed.  G and the lone
    states are read off rho's diagonal, over every state.
    """
    qd = _model.charge_diagonals(basis)
    centred = (qd - qd.mean(axis=0))[:, np.arange(spec.dim) // basis.boson_dim]
    rho = spec.rho_diag()
    G = (centred * rho) @ centred.T
    B, C = np.zeros((2,) + G.shape)
    stag = basis.lattice.staggered_signs
    # a state alone in its component has M_x = q_x and no entry off the diagonal
    lone = spec._size[spec._block_of] == 1
    for c, weight in zip(*_component_orbits(spec, basis)):
        (idx, w, q), wt = spec._eig[c], spec._weights[c]
        if len(idx) == 1:
            continue
        diff, coef = _charge_differences(qd[:, idx // basis.boson_dim], stag)
        B += weight * (coef @ _kernel_gram(q, w - spec.e0, wt, diff, spec.beta) @ coef.T)
        (k, l), p = _entry_positions(spec, c), _entry_products(spec, c)
        cb = centred[:, idx]
        d = cb.take(k, axis=1) - cb.take(l, axis=1)
        C -= weight * ((d * p) @ d.T)
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


def _entry_positions(spec, c):
    """(k, l): the positions in component c of ``spec`` of H's kept
    off-diagonal entries there."""
    key, _, ends = spec._entries
    return np.divmod(key[ends[c]:ends[c + 1]] - spec._stream.offset[c], len(spec._eig[c][0]))


def _entry_products(spec, c):
    """p = Re(conj(rho_kl) H_kl) at H's kept off-diagonal entries in
    component c of ``spec``, taken in the gauge as Re(conj(r_kl) G_kl)."""
    _, g, ends = spec._entries
    s = slice(ends[c], ends[c + 1])
    r, g = spec._rho_entries((c,))[s], g[s]
    return (r.conj() * g).real if np.iscomplexobj(spec._eig[c][2]) else r.real * g.real


def _component_orbits(spec, basis):
    """(reps, weight): one representative component of ``spec`` per orbit of
    the group generated by Pi_0 (``model.particle_hole_symmetry`` with the
    identity translation) and the spin swap (``model.spin_swap``), ascending,
    and the size of its orbit.  Built on first use into the slot
    ``spec._orbits`` = [basis, reps, weight], keyed by the identity of
    ``basis`` as ``spec._forms`` is.

    Pi_0 sends every q_x to -q_x and keeps the site pair each pairing flip
    changes, and the swap keeps every q_x and maps the flip of one spin on a
    site pair to that of the other: a component and its image contribute
    the same to G, B, C and the bond sums, up to rounding, wherever H is
    mapped onto itself.  If either symmetry fails :func:`_component_image`,
    every orbit is a singleton: nothing is refused.
    """
    slot = spec._orbits
    if slot is None or slot[0] is not basis:
        n = len(spec._eig)
        images = [_component_image(spec, symmetry) for symmetry in (
            _model.particle_hole_symmetry(basis, np.arange(basis.n_sites)),
            _model.spin_swap(basis))]
        least = np.arange(n)
        if all(image is not None for image in images):
            # the least component of each orbit, spread along the images (both
            # involutions) until it stops moving
            while True:
                spread = np.minimum.reduce([least] + [least[image] for image in images])
                if np.array_equal(spread, least):
                    break
                least = spread
        reps = np.flatnonzero(least == np.arange(n))
        slot = spec._orbits = [basis, reps, np.bincount(least)[reps].astype(float)]
    return slot[1], slot[2]


def _component_image(spec, symmetry):
    """The component that the signed permutation ``symmetry``, an involution,
    maps each component of ``spec`` onto, or None unless it maps H onto
    itself.

    The symmetry is taken in the gauge of ``spec`` (``sectors._gauged_symmetry``,
    a real signed permutation O) and checked on H's kept entries by
    ``sectors._invariance``: each component must map onto one component of
    equal size, and O G O^T - G, the diagonal included, must stay within
    _SYMMETRY_TOL times the largest entry of G.
    """
    n = len(symmetry.perm)
    if not _sectors._same(symmetry.compose(symmetry), Monomial(np.arange(n), np.ones(n))):
        return None
    stream = spec._stream
    O = _sectors._gauged_symmetry(stream.labels, stream.phase, symmetry, antiunitary=False)
    to, dev = _sectors._invariance(stream, O)
    return to if to is not None and dev <= _sectors._SYMMETRY_TOL * stream.top else None


def _pair_flips(basis, instances):
    """(flips, pair_of_flip, pair_of, counts) of the pairing ``instances``
    (x, y, j, eps): the fermion-index XOR of each pair flip c*_{x s} c*_{y s},
    ascending, and the site pair {x, y} it flips; the site pair of each
    instance; and the number of instances on each site pair."""
    pairs = {}
    pair_of = np.array([pairs.setdefault(frozenset(inst[:2]), len(pairs)) for inst in instances])
    bit = {(x, s): 1 << (basis.n_modes - 1 - basis.mode_index(x, s))
           for pair in pairs for x in pair for s in ("up", "down")}
    flips = np.array([bit[x, s] | bit[y, s] for x, y in pairs for s in ("up", "down")])
    order = np.argsort(flips)
    return flips[order], np.repeat(np.arange(len(pairs)), 2)[order], pair_of, np.bincount(pair_of)


def pairing_bond_expectations(params, basis, spec):
    """Thermal expectation of each pairing bond term of T'', read off the
    entries of H'' that ``spec`` keeps: no term is built.

    Returns [((x, y, j, eps), <term>), ...] in the order of
    ``model.pairing_bond_terms``; the closed form of the nested commutator
    is a reweighting of exactly these numbers, so computing them once per
    spectral data makes the g/b/c evaluation O(1) per field h.

    Each off-diagonal entry (k, l) of H'' flips one pair c*_{x s} c*_{y s},
    read from the XOR of the fermion indices of k and l.  The term of each
    instance on {x, y} is H'' on the entries of that pair over the number m
    of instances there (2 on the L = 1 tori, where eps = +-1 coincide), so
    <term> = sum Re(conj(rho_kl) H_kl) / m over those entries: ``params`` is
    not read.  The sums run over one component per orbit of Pi_0 and the
    spin swap (:func:`_component_orbits`), counted by the size of its
    orbit: Pi_0 keeps the site pair each entry flips, and the swap maps
    the flip of one spin onto that of the other on the same pair.  Where
    either symmetry fails its check, every component is summed.  Every
    entry is still checked to be a pair flip: a spec with an entry that is
    no such flip (one of H or H', say) is refused with ValueError, as is,
    before any entry is read, one whose dimension is not ``basis.total_dim``.
    """
    _check_dimension(spec, basis)
    instances = _model._pairing_instances(_model._require_lattice(basis))
    flips, pair_of_flip, pair_of, counts = _pair_flips(basis, instances)
    reps, orbit_size = _component_orbits(spec, basis)
    weight = np.zeros(len(spec._eig))
    weight[reps] = orbit_size
    sums = np.zeros(len(counts))
    for c, (idx, _, _) in enumerate(spec._eig):
        k, l = _entry_positions(spec, c)
        row, col = idx[k] // basis.boson_dim, idx[l] // basis.boson_dim
        flip = row ^ col
        at = np.minimum(np.searchsorted(flips, flip), len(flips) - 1)
        made = row & flip               # both modes filled in row, or both empty
        if not np.all((flips[at] == flip) & ((made == flip) | (made == 0))):
            raise ValueError("spec has an entry that flips no pairing pair of the basis: "
                             "it is not the spectral data of H''")
        if weight[c]:
            sums += weight[c] * np.bincount(pair_of_flip[at], weights=_entry_products(spec, c),
                                            minlength=len(counts))
    return [(inst, float(sums[pair] / counts[pair])) for inst, pair in zip(instances, pair_of)]
