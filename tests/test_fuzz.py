"""The real frame of the two symmetric DLS Hamiltonians (hhlab.fuzz) against
the complex matrices it replaces."""

import numpy as np
import pytest

from hhlab import fuzz


def symmetric_hamiltonian(A, C, lam, W):
    """H(A,A,C,C) as a dense complex matrix, theta X theta^-1 = W conj(X) W^H."""
    def reflect(X):
        return W @ X.conj() @ W.conj().T

    n = len(A)
    H = np.kron(A, np.eye(n)) + np.kron(np.eye(n), reflect(A))
    for l, c in zip(lam, C):
        block = np.kron(c, reflect(c))
        H -= l * (block + block.conj().T)
    return H


def random_pairs(rng, n, m, k):
    """m Hermitian A, m stacks of k complex C and their m x k couplings."""
    A = fuzz._hermitian_part(fuzz._random_bounded(rng, n, m))
    return A, fuzz._random_bounded(rng, n, m * k).reshape(m, k, n, n), rng.uniform(0, 2, (m, k))


@pytest.mark.parametrize("unitary", ["identity", "random"])
@pytest.mark.parametrize("n", range(2, 9))
def test_real_frame_spectrum_matches_complex_eigvalsh(n, unitary):
    rng = np.random.default_rng(100 + n)
    A, C, lam = random_pairs(rng, n, 4, 1 + n % 3)
    R = fuzz._real_frame(A, C, lam)
    assert R.dtype == np.float64 and R.shape == (4, n * n, n * n)
    for a, c, l, r in zip(A, C, lam, R):
        W = (np.eye(n) if unitary == "identity"
             else np.linalg.qr(fuzz._random_bounded(rng, n, 1)[0])[0])
        want = np.linalg.eigvalsh(symmetric_hamiltonian(a, c, l, W))
        scale = max(1.0, np.max(np.abs(want)))           # the spectral norm of H(A,A,C,C)
        assert np.max(np.abs(r - r.T)) <= 1e-14 * scale
        assert np.max(np.abs(np.linalg.eigvalsh(r) - want)) <= 1e-13 * scale


def _spoil_offdiagonal(A):
    A = A.copy()
    A[0, 1] += 1e-3
    return A


def _spoil_diagonal(A):
    A = A.copy()
    A[0, 0] += 1e-6j
    return A


# (spoil, flagged): the real symmetric R of H(A,A,C,C) is checked as a full
# matrix, and must flag the A that the check of the complex H(A,A,C,C) flags.
# A + i eps 1 leaves H(A,A,C,C) Hermitian: the shift cancels against conj(A).
_SPOILS = [(_spoil_offdiagonal, True), (_spoil_diagonal, True),
           (lambda A: A + 1e-3j * np.eye(len(A)), False), (lambda A: A, False)]


@pytest.mark.parametrize("spoil,flagged", _SPOILS)
def test_real_frame_hermiticity_check_flags_what_the_complex_check_flags(spoil, flagged):
    rng = np.random.default_rng(8)
    A, C, lam = random_pairs(rng, 3, 6, 2)
    A = np.array([spoil(a) for a in A])
    R = fuzz._real_frame(A, C, lam)
    for a, c, l, r in zip(A, C, lam, R):
        W = np.linalg.qr(fuzz._random_bounded(rng, 3, 1)[0])[0]
        assert not fuzz._hermitian(symmetric_hamiltonian(a, c, l, W), 1e-10) == flagged
        assert not fuzz._hermitian(r, 1e-10) == flagged


def test_real_pair_refused_when_only_it_lost_hermiticity(monkeypatch):
    """H(A,B,C,D) is checked first; with it made Hermitian, a spoiled A is
    still refused through the real pair."""
    draws = fuzz._draw_dls(np.random.default_rng(4), 12, dim_max=2)
    _, stack = next(fuzz._stacks(draws, lambda n: 48 * n ** 4))
    stack[0][0] = _spoil_offdiagonal(stack[0][0])
    with pytest.raises(AssertionError, match="coupled Hamiltonian lost Hermiticity"):
        fuzz._dls_sides(*stack)
    coupled = fuzz._coupled
    monkeypatch.setattr(fuzz, "_coupled", lambda *args: fuzz._hermitian_part(coupled(*args)))
    with pytest.raises(AssertionError, match="coupled Hamiltonian lost Hermiticity"):
        fuzz._dls_sides(*stack)


def test_symmetric_draws_give_equal_sides():
    """At B = A and D = C, H(A,B,C,D) is H(A,A,C,C): its complex solve and the
    real frame must give the same ln Z, so 2 ln Z(A,A,C,C) = 2 ln Z(A,A,C,C)
    to rounding (4.6e-15 at worst over these draws)."""
    draws = fuzz._draw_dls(np.random.default_rng(2024), 256, 8)
    lhs, rhs = fuzz._dls_log_sides([(A, A, C, C, lam, W, beta)
                                    for A, _, C, _, lam, W, beta in draws])
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(lhs), 1.0))


def kron_coupled(A, X, C, lam):
    """H(A,B,C,D) of one draw by np.kron, X[0] = theta B theta^-1 and
    X[j + 1] = theta D_j theta^-1."""
    eye = np.eye(len(A))
    H = np.kron(A, eye) + np.kron(eye, X[0])
    for l, c, x in zip(lam, C, X[1:]):
        K = np.kron(c, x)
        H = H - l * (K + K.conj().T)
    return H


def coupled_inputs(rng, n, m, k):
    A, C, lam = random_pairs(rng, n, m, k)
    return A, fuzz._random_bounded(rng, n, m * (k + 1)).reshape(m, k + 1, n, n), C, lam


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(2, 9))
def test_coupled_on_a_dirty_reused_buffer_matches_the_kron_oracle(n, k):
    rng = np.random.default_rng(10 * n + k)
    buffers = fuzz._Buffers()
    dirty = fuzz._coupled(*coupled_inputs(rng, 9, 3, 3), buffers)   # a larger stack first
    A, X, C, lam = coupled_inputs(rng, n, 4, k)
    H = fuzz._coupled(A, X, C, lam, buffers)
    assert np.shares_memory(H, dirty)
    for a, x, c, l, h in zip(A, X, C, lam, H):
        assert np.array_equal(h, kron_coupled(a, x, c, l))


def two_product_coupled(A, X, C, lam):
    """H(A,B,C,D) of m stacked draws with the h.c. block of each term formed
    as a second broadcast product of the conjugate-transposed factors."""
    m, k, n = C.shape[:3]

    def kron(P, Q):
        return (P[:, :, None, :, None] * Q[:, None, :, None, :]).reshape(m, n * n, n * n)

    H = np.zeros((m, n, n, n, n), complex)
    np.einsum("mabcb->mabc", H)[...] = A[:, :, None, :]
    np.einsum("mabad->mabd", H)[...] += X[:, 0, None]
    H = H.reshape(m, n * n, n * n)
    Ch, Xh = fuzz._adjoint(C), fuzz._adjoint(X)
    for j in range(k):
        block = kron(C[:, j], X[:, j + 1])
        block += kron(Ch[:, j], Xh[:, j + 1])
        block *= lam[:, j, None, None]
        H -= block
    return H


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(2, 9))
def test_coupled_has_the_bits_of_the_two_product_assembly(n, k):
    """K^H taken as the conjugate transpose of K = C_j (x) X_j, not as the
    product of the conjugate-transposed factors, changes no bit of H."""
    rng = np.random.default_rng(20 * n + k)
    inputs = coupled_inputs(rng, n, 5, k)
    assert np.array_equal(fuzz._coupled(*inputs), two_product_coupled(*inputs))


def test_reused_buffers_keep_the_bits_of_fresh_ones():
    # one window of draws of every shape, solved on one set of buffers, against
    # each stack solved on arrays of its own
    draws = fuzz._draw_dls(np.random.default_rng(31), 256, 8)
    lhs, rhs = fuzz._dls_log_sides(draws, fuzz._Buffers())
    for idx, stack in fuzz._stacks(draws, lambda n: 48 * n ** 4):
        want_lhs, want_rhs = fuzz._dls_sides(*stack)
        assert np.array_equal(lhs[idx], want_lhs) and np.array_equal(rhs[idx], want_rhs)
