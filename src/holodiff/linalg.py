"""Small dense complex linear algebra with certified degeneracy checks.

Determinants, solves and inverses are numpy's LAPACK calls.  What this
module adds is the certification around them: determinant residuals are
ratios to a Hadamard bound, taken on the row-normalized matrix so that
they cannot underflow, a solve or inverse whose row-scaled reciprocal
condition falls below a threshold fails loudly with that magnitude, and
numerical rank uses complete pivoting (which LAPACK's LU does not offer)
with a relative threshold.  Positivity of Im tau is certified where the
point is built, by `siegel.SiegelPoint`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateMatrixError",
    "hadamard_ratio",
    "det",
    "signed_minor",
    "solve",
    "inverse",
    "inverse_cond1",
    "pivot_rows",
    "numerical_rank",
    "scale_rows",
]

_TINY = np.finfo(float).tiny
PIVOT_RTOL = 1e-13  # floor on the row-scaled reciprocal condition in solve/inverse
RANK_RTOL = 1e-8  # floor on each rank pivot, relative to the largest entry


class DegenerateMatrixError(ArithmeticError):
    """Raised when a matrix is too close to singular to trust.

    `pivot` is the magnitude that failed its threshold.  From `solve` and
    `inverse` it is the row-scaled reciprocal condition number of the
    matrix, computed from its LAPACK inverse, or 0 when LAPACK meets an
    exactly zero pivot.
    """

    def __init__(self, message: str, pivot: float):
        super().__init__(f"{message} (pivot magnitude {pivot:.3e})")
        self.pivot = pivot


def _as_square(a, stack=False) -> np.ndarray:
    """a as a complex square matrix, or with `stack` a stack (..., n, n) of them."""
    a = np.asarray(a, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hadamard_ratio(a):
    """|det a| over its Hadamard bound, computed without underflow.

    The ratio does not change when a row is scaled, so each row is first
    divided by its largest magnitude (no square can then underflow) and
    then by its 2-norm; the bound of the result is 1 and the ratio is its
    |det|.  A zero row gives 0.  A square matrix gives a float; a stack
    (..., n, n) gives an array of ratios from one `det` call.  Its
    magnitudes are Python's complex abs, as in the one-matrix case:
    numpy's complex abs can differ from it in the last bit.  The rows are
    summed from a C-contiguous copy, so a transposed or sliced input
    gives the ratios of its contiguous copy.
    """
    a = scale_rows(np.ascontiguousarray(_as_square(a, stack=True)))
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    d = det(a / norms)
    if a.ndim == 2:
        return abs(d)
    return np.array([abs(v) for v in d.ravel().tolist()]).reshape(d.shape)


def det(a):
    """Determinant through LAPACK's partially pivoted LU.

    A square matrix gives a complex number; a stack of square matrices
    (..., n, n) gives an array of determinants from one call.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim > 2 and a.shape[-1] == a.shape[-2]:
        return np.linalg.det(a)
    return complex(np.linalg.det(_as_square(a)))


def signed_minor(a, p: int, q: int):
    """Cofactor (-1)^(p+q) det of a with row p and column q removed (0-based).

    A stack (..., n, n) gives every matrix's cofactor from one `det` call.
    """
    a = _as_square(a, stack=True)
    n = a.shape[-1]
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"minor position ({p}, {q}) out of range for size {n}")
    sub = np.delete(np.delete(a, p, axis=-2), q, axis=-1)
    return (-1.0) ** (p + q) * det(sub)


def _certify_inverse(a: np.ndarray, a_inv: np.ndarray) -> None:
    """Refuse a when its row-scaled reciprocal condition is below PIVOT_RTOL.

    That condition is 1/(|D^-1 a|_inf |a^-1 D|_inf) with D the row
    max-norms of a, so scaling a row of a leaves it unchanged.  A stack of
    matrices is refused when any one of them is, with the smallest
    condition as the reported magnitude.  The rows are summed from a
    C-contiguous copy, so a transposed or sliced a gets the condition of
    its contiguous copy.
    """
    if a.size == 0:
        return
    abs_a = np.abs(np.ascontiguousarray(a))
    d = np.maximum(abs_a.max(axis=-1), _TINY)
    cond = (abs_a.sum(axis=-1) / d).max(axis=-1) * (
        np.abs(a_inv) @ d[..., None]).max(axis=(-2, -1))
    rcond = 1.0 / float(cond.max())
    if rcond < PIVOT_RTOL:
        raise DegenerateMatrixError(
            "degenerate configuration: row-scaled reciprocal condition below threshold",
            rcond,
        )


def solve(a, b) -> np.ndarray:
    """Solve a x = b, refusing a numerically singular a.

    One LAPACK factorization also yields a^-1 for `_certify_inverse`; the
    reported magnitude is the row-scaled reciprocal condition of a, or 0
    when LAPACK meets an exactly zero pivot.  A stack a (..., n, n) with b
    (..., n) or (..., n, k) is solved by one LAPACK call, certified matrix
    by matrix; one refused matrix fails the call.
    """
    a = _as_square(a, stack=True)
    b = np.asarray(b, dtype=complex)
    n = a.shape[-1]
    rhs = b[..., None] if b.ndim == a.ndim - 1 else b
    if rhs.shape[-2] != n:
        raise ValueError(f"right-hand side has {rhs.shape[-2]} rows, expected {n}")
    k = rhs.shape[-1]
    aug = np.zeros(a.shape[:-1] + (k + n,), dtype=complex)  # [b | I]
    aug[..., :k] = rhs
    aug[..., k:] = np.eye(n)
    try:
        sol = np.linalg.solve(a, aug)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMatrixError("degenerate configuration: singular matrix", 0.0) from exc
    _certify_inverse(a, sol[..., k:])
    return sol[..., :k].reshape(b.shape)


def inverse(a) -> np.ndarray:
    """Matrix inverse through LAPACK, with the same degeneracy test as `solve`."""
    a = _as_square(a)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMatrixError("degenerate configuration: singular matrix", 0.0) from exc
    _certify_inverse(a, a_inv)
    return a_inv


def inverse_cond1(a):
    """(a^-1, 1-norm condition number of a) from one inversion.

    A matrix that `inverse` refuses gives (None, inf).
    """
    a = _as_square(a)
    if a.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex), 1.0
    try:
        a_inv = inverse(a)
    except DegenerateMatrixError:
        return None, float("inf")
    na = float(np.max(np.sum(np.abs(a), axis=0)))
    return a_inv, na * float(np.max(np.sum(np.abs(a_inv), axis=0)))


def pivot_rows(a) -> list[int]:
    """Rows chosen as pivots by complete-pivoting elimination, in pivot order.

    Pivots are accepted while they stay above RANK_RTOL times the largest
    magnitude of the original matrix; the rows never chosen depend
    numerically on the chosen ones.
    """
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if m.size == 0:
        return []
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return []
    # Elimination runs in place and zeroes each pivot's row and column, so
    # the row-major scan below meets the remaining entries in the order of
    # the remaining submatrix; a zeroed entry can win it only when every
    # remaining entry is zero, and then the threshold ends the loop.
    pivots = []
    for _ in range(min(m.shape)):
        i, j = divmod(int(np.argmax(np.abs(m))), m.shape[1])
        piv = m[i, j]
        if abs(piv) < RANK_RTOL * scale:
            break
        pivots.append(i)
        m -= (m[:, j] / piv)[:, None] * m[i]
        m[i] = 0.0
        m[:, j] = 0.0
    return pivots


def numerical_rank(a) -> int:
    """Rank by complete-pivoting elimination at the RANK_RTOL threshold."""
    return len(pivot_rows(a))


def scale_rows(a) -> np.ndarray:
    """Each row divided by its largest magnitude; zero rows stay zero."""
    a = np.asarray(a)
    rows = np.max(np.abs(a), axis=-1, keepdims=True)
    rows[rows == 0] = 1.0
    return a / rows

