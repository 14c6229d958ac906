"""The stacked solvers behind the random-instance fuzz of ``rpverify``: the
two-Hilbert-space (Dyson-Lieb-Simon) inequality and the convexity lemma.

Draws are made _WINDOW at a time and solved in stacks of one shape of at most
_STACK_BYTES, so memory does not grow with the count.  Nothing here depends
on the lattice; the checks and their records live in ``rpverify``.

A DLS draw (A, B, C, D, lambdas, W, beta) couples two n-dimensional spaces
through the antiunitary theta v = W conj(v), so theta X theta^-1 =
W conj(X) W^H (:func:`_reflected`), and

    H(A,B,C,D) = A (x) 1 + 1 (x) theta B theta^-1
                 - sum_j lambda_j (C_j (x) theta D_j theta^-1 + h.c.).

The inequality is Z(A,B,C,D)^2 <= Z(A,A,C,C) Z(B,B,D,D).  H(A,B,C,D) is solved
as a complex Hermitian n^2 x n^2 matrix (:func:`_coupled`).

The two symmetric ones are real problems.  Conjugated by 1 (x) W^H, which
sends theta X theta^-1 to conj(X),

    H(A,A,C,C) ~ H' = A (x) 1 + 1 (x) conj(A)
                      - sum_j lambda_j (C_j (x) conj(C_j) + C_j^H (x) C_j^T),

so Z(A,A,C,C) does not depend on theta.  On the row-major vec(M) of an
n x n matrix M, (X (x) Y) vec(M) = vec(X M Y^T), so H' is the superoperator

    S(M) = A M + M A - sum_j lambda_j (C_j M C_j^H + C_j^H M C_j),

which maps Hermitian M to Hermitian M.  N = Re M + Im M is an isometry (in
the Hilbert-Schmidt norm) of the Hermitian matrices onto the real n x n
matrices: Re M is the symmetric part of N, Im M its antisymmetric part, and
M = ((1 + i) N + (1 - i) N^T) / 2.  For S = sum P M Q the image of N is
Re S(M) + Im S(M) = sum Re(P N Q) + Im(P N^T Q), so on vec(N)

    R = Re H' + (Im H') Pi,     Pi vec(N) = vec(N^T),

a real symmetric n^2 x n^2 matrix with the spectrum of H(A,A,C,C)
(:func:`_real_frame`).  It is the matrix of S in the orthonormal Hermitian
basis {E_aa, ((1 + i) E_ab + (1 - i) E_ba) / 2 : a != b}, which is the basis
{E_aa, (E_ab + E_ba)/sqrt 2, i (E_ab - E_ba)/sqrt 2 : a < b} turned by 45
degrees in each pair (a, b): no index gathers, and no sqrt 2.  The entries
of R are sums over j of products, so R is assembled by one matrix product
over the 2k factors C_j, C_j^H of each draw and one strided pass.  A real
eigvalsh of dim 64 takes about half the time of the complex one (170 against
320 us on one BLAS thread), so the three solves of a draw cost about two
complex ones.
"""

from __future__ import annotations

import numpy as np

# the DLS and convexity fuzz draw _WINDOW instances at a time, solved in stacks of at
# most _STACK_BYTES: memory does not grow with the count
_WINDOW = 256
_STACK_BYTES = 1 << 20


class _Buffers:
    """Output arrays reused from one stack to the next: one flat array per
    role, grown to the largest request.  A run of stacks then takes its
    largest arrays from the allocator once, not once per stack (which the
    allocator may return to the system and fault back in each time)."""

    def __init__(self):
        self._flat = {}

    def take(self, role, shape, dtype):
        """An uninitialized array of ``shape``, on the buffer of ``role``."""
        size = int(np.prod(shape))
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            flat = self._flat[role] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _adjoint(M):
    return np.swapaxes(M, -1, -2).conj()


def _check_unitary(W):
    """Refuse, with ValueError, a W (or a stack of them) not unitary to 1e-10."""
    dev = np.max(np.abs(W @ _adjoint(W) - np.eye(W.shape[-1])), axis=(-2, -1))
    if np.any(dev > 1e-10):
        raise ValueError(f"unitary part is not unitary (deviation {np.max(dev)})")


def _stacks(draws, nbytes):
    """Yields (indices, fields stacked) of the draws (tuples of arrays and
    floats) of one shape, at most _STACK_BYTES // nbytes(len(first field))
    at a time."""
    groups = {}
    for i, d in enumerate(draws):
        groups.setdefault(tuple(getattr(x, "shape", ()) for x in d), []).append(i)
    for shapes, idx in groups.items():
        step = max(1, _STACK_BYTES // nbytes(shapes[0][0]))
        for chunk in (idx[s:s + step] for s in range(0, len(idx), step)):
            yield chunk, [np.array(x) for x in zip(*(draws[i] for i in chunk))]


def _hermitian_part(M):
    return (M + _adjoint(M)) / 2


def _hermitian(M, tol):
    """max |M - M^H| <= tol max(1, max |M|) for each matrix of a stack."""
    dev = np.max(np.abs(M - _adjoint(M)), axis=(-2, -1))
    return not np.any(dev > tol * np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1))))


def _check_dls_inputs(draws):
    """Refuse, with ValueError, draws (A, B, C, D, lambdas, W, beta) with a
    lambda_j < 0, A or B not Hermitian to 1e-12 or W not unitary."""
    for _, (A, B, _, _, lam, W, _) in _stacks(draws, lambda n: 16 * n * n):
        if np.any(lam < 0):
            raise ValueError("lambda_j must be nonnegative")
        for M, nm in ((A, "A"), (B, "B")):
            if not _hermitian(M, 1e-12):
                raise ValueError(f"{nm} must be Hermitian")
        _check_unitary(W)


def _random_bounded(rng, n, count):
    """``count`` complex n x n matrices with standard normal real and imaginary
    parts, drawn in one call: the same stream as one by one, real part first."""
    x = rng.standard_normal((count, 2, n, n))
    return x[:, 0] + 1j * x[:, 1]


def _draw_dls(rng, count, dim_max):
    """``count`` draws of ``rpverify.random_dls_instance`` in a row, as checked
    tuples (A, B, C, D, lambdas, W, beta), C and D stacks (k, n, n).

    The stream is read in the order of one draw at a time; the random W of
    one size are orthonormalized afterwards by one stacked QR."""
    draws, to_qr = [], {}
    for i in range(count):
        n = int(rng.integers(2, dim_max + 1))
        A, B = _hermitian_part(_random_bounded(rng, n, 2))
        k = int(rng.integers(1, 4))
        pairs = _random_bounded(rng, n, 2 * k)
        lams = rng.uniform(0.0, 2.0, size=k)
        W = np.eye(n, dtype=complex)  # standard conjugation
        if rng.random() >= 0.5:
            to_qr.setdefault(n, []).append((i, _random_bounded(rng, n, 1)[0]))
        draws.append([A, B, pairs[:k], pairs[k:], lams, W, float(rng.uniform(0.05, 3.0))])
    for group in to_qr.values():
        idx, M = zip(*group)
        for i, W in zip(idx, np.linalg.qr(np.array(M))[0]):
            draws[i][5] = W
    draws = [tuple(d) for d in draws]
    _check_dls_inputs(draws)
    return draws


def _log_partition(beta, w):
    """ln Tr e^{-beta H} per row of ascending eigenvalues w (m, N), beta (m,)."""
    w0 = w[:, 0]
    return -beta * w0 + np.log(np.sum(np.exp(-beta[:, None] * (w - w0[:, None])), axis=1))


def _reflected(W, X):
    """theta X theta^-1 = W conj(X) W^H for each W (m, 1, n, n) and X (m, p, n, n)."""
    return W @ X.conj() @ _adjoint(W)


def _coupled(A, X, C, lam, buffers=None):
    """H(A,B,C,D) of m stacked draws, X (m, k + 1, n, n) holding theta B
    theta^-1 and the theta D_j theta^-1, on the "H" buffer of ``buffers``.

    The identity terms are written onto diagonal views.  K = C_j (x) X_j is
    formed once per term, on the "K" buffer, and K^H is its conjugate
    transpose, taken on the "KH" buffer: the product of the
    conjugate-transposed factors has the same bits (conj(z w) = conj(z)
    conj(w) exactly).  So every entry has the bits of A (x) 1 + 1 (x) X_0
    minus, term by term, lambda_j (K + K^H)."""
    m, k, n = C.shape[:3]
    buffers = buffers or _Buffers()
    H = buffers.take("H", (m, n, n, n, n), complex)
    H.fill(0.0)
    np.einsum("mabcb->mabc", H)[...] = A[:, :, None, :]          # A (x) 1
    np.einsum("mabad->mabd", H)[...] += X[:, 0, None]            # 1 (x) X_0
    H = H.reshape(m, n * n, n * n)
    K = buffers.take("K", (m, n, n, n, n), complex)
    block = buffers.take("KH", (m, n * n, n * n), complex)
    for j in range(k):
        np.multiply(C[:, j, :, None, :, None], X[:, j + 1, None, :, None, :], out=K)
        np.conjugate(np.swapaxes(K.reshape(m, n * n, n * n), 1, 2), out=block)   # K^H
        block += K.reshape(m, n * n, n * n)
        block *= lam[:, j, None, None]
        H -= block
    return H


def _real_frame(A, C, lam, buffers=None):
    """The real symmetric R = Re H' + (Im H') Pi of H(A,A,C,C) for m stacked
    pairs (A, C), C (m, k, n, n), on the "R" buffer of ``buffers``: see the
    module docstring."""
    m, k, n = C.shape[:3]
    buffers = buffers or _Buffers()
    P = np.concatenate([C, _adjoint(C)], axis=1).reshape(m, 2 * k, n * n)
    weights = -np.concatenate([lam, lam], axis=1)[:, :, None]
    # -sum_p lambda_p P_ac conj(P_bd), indexed [a, c, b, d]
    G = np.matmul(np.swapaxes(weights * P, -1, -2), P.conj(),
                  out=buffers.take("G", (m, n * n, n * n), complex)).reshape(m, n, n, n, n)
    np.einsum("macbb->macb", G)[...] += A[:, :, :, None]        # A (x) 1
    np.einsum("maabd->mabd", G)[...] += A.conj()[:, None]       # 1 (x) conj(A)
    R = buffers.take("R", (m, n, n, n, n), float)
    # R[ab, cd] = Re H'[ab, cd] + Im H'[ab, dc]
    np.add(G.real.transpose(0, 1, 3, 2, 4), G.imag.transpose(0, 1, 3, 4, 2), out=R)
    return R.reshape(m, n * n, n * n)


def _dls_sides(A, B, C, D, lam, W, beta, buffers=None):
    """2 ln Z(A,B,C,D) and ln Z(A,A,C,C) + ln Z(B,B,D,D) of m stacked draws,
    C and D (m, k, n, n): H(A,B,C,D) in one complex stack, and the two
    symmetric ones in one real stack, both on ``buffers``."""
    H = _coupled(A, _reflected(W[:, None], np.concatenate([B[:, None], D], axis=1)), C, lam,
                 buffers)
    R = _real_frame(np.concatenate([A, B]), np.concatenate([C, D]), np.tile(lam, (2, 1)),
                    buffers)
    for M in (H, R):
        if not _hermitian(M, 1e-10):
            raise AssertionError("coupled Hamiltonian lost Hermiticity")
    lz = _log_partition(np.tile(beta, 2), np.linalg.eigvalsh(R)).reshape(2, -1)
    return 2.0 * _log_partition(beta, np.linalg.eigvalsh(H)), lz[0] + lz[1]


def _dls_log_sides(draws, buffers=None):
    """(2 ln Z(A,B,C,D), ln Z(A,A,C,C) + ln Z(B,B,D,D)) of each draw, in draw
    order, solved in stacks of one (k, n) on ``buffers`` (reused by every
    stack; new ones without it)."""
    buffers = buffers or _Buffers()
    lhs, rhs = np.empty((2, len(draws)))
    for idx, stack in _stacks(draws, lambda n: 48 * n ** 4):
        lhs[idx], rhs[idx] = _dls_sides(*stack, buffers)
    return lhs, rhs


def _convexity_slacks(pairs):
    """(rhs - lhs) / max(|lhs|, |rhs|, 1) of the convexity lemma for each
    Hermitian pair (B, C), in draw order, solved in stacks of one n."""
    slack = np.empty(len(pairs))
    for idx, (B, C) in _stacks(pairs, lambda n: 16 * n * n):
        w, q = np.linalg.eigh(B + C)
        e = np.exp(-(w - w[:, :1]))
        zs = np.sum(e, axis=1)
        lhs = -w[:, 0] + np.log(zs)
        gibbs = (q * e[:, None, :]) @ np.swapaxes(q.conj(), -1, -2) / zs[:, None, None]
        mean_b = np.array([np.vdot(g, b).real for g, b in zip(gibbs, B)])
        rhs = -mean_b + _log_partition(np.ones(len(idx)), np.linalg.eigvalsh(C))
        slack[idx] = (rhs - lhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return slack
