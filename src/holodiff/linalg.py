"""Small dense complex linear algebra with explicit pivot control.

Everything here targets matrices of size at most a few dozen, where an
explicitly coded elimination is both fast enough and preferable to opaque
library calls: determinant residuals are normalized by a Hadamard bound,
near-singular solves fail loudly with the offending pivot magnitude, and
numerical rank uses complete pivoting with a relative threshold.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateMatrixError",
    "hadamard_bound",
    "det",
    "det_with_bound",
    "signed_minor",
    "solve",
    "inverse",
    "cond1",
    "pivot_rows",
    "numerical_rank",
    "scale_rows",
    "is_positive_definite",
]

_TINY = np.finfo(float).tiny


class DegenerateMatrixError(ArithmeticError):
    """Raised when elimination meets a pivot too small to trust."""

    def __init__(self, message: str, pivot: float):
        super().__init__(f"{message} (pivot magnitude {pivot:.3e})")
        self.pivot = pivot


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hadamard_bound(a) -> float:
    """Product of row 2-norms; an upper bound for |det a|."""
    a = _as_square(a)
    if a.shape[0] == 0:
        return 1.0
    return float(np.prod(np.linalg.norm(a, axis=1)))


def _lu(a):
    """Partially pivoted elimination.

    Returns (lu, perm, sign, rownorm) where lu holds U above the diagonal
    and the multipliers below it, perm[i] is the original index of the row
    now in position i, and rownorm are max-abs norms of the original rows.
    """
    u = np.array(a, dtype=complex)
    n = u.shape[0]
    rownorm = np.max(np.abs(u), axis=1) if n else np.empty(0)
    perm = np.arange(n)
    sign = 1.0
    for k in range(n):
        r = k + int(np.argmax(np.abs(u[k:, k])))
        if r != k:
            u[[k, r]] = u[[r, k]]
            perm[[k, r]] = perm[[r, k]]
            sign = -sign
        piv = u[k, k]
        if piv != 0 and k + 1 < n:
            fac = u[k + 1 :, k] / piv
            u[k + 1 :, k + 1 :] -= np.outer(fac, u[k, k + 1 :])
            u[k + 1 :, k] = fac
    return u, perm, sign, rownorm


def det(a) -> complex:
    """Determinant via partially pivoted elimination."""
    a = _as_square(a)
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    u, _, sign, _ = _lu(a)
    return complex(sign * np.prod(np.diagonal(u)))


def det_with_bound(a):
    """(determinant, Hadamard bound) pair for residual normalization."""
    a = _as_square(a)
    return det(a), hadamard_bound(a)


def signed_minor(a, p: int, q: int) -> complex:
    """Cofactor (-1)^(p+q) det of a with row p and column q removed (0-based)."""
    a = _as_square(a)
    n = a.shape[0]
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"minor position ({p}, {q}) out of range for size {n}")
    sub = np.delete(np.delete(a, p, axis=0), q, axis=1)
    return (-1.0) ** (p + q) * det(sub)


def solve(a, b, *, pivot_rtol: float = 1e-13) -> np.ndarray:
    """Solve a x = b, rejecting pivots below pivot_rtol times the row norm."""
    a = _as_square(a)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    u, perm, _, rownorm = _lu(a)
    for k in range(n):
        floor = pivot_rtol * max(rownorm[perm[k]], _TINY)
        if abs(u[k, k]) < floor:
            raise DegenerateMatrixError(
                "degenerate configuration: elimination pivot below threshold",
                abs(u[k, k]),
            )
    x = b[perm].astype(complex, copy=True)
    for k in range(n):  # forward substitution with unit lower factor
        x[k + 1 :] -= np.multiply.outer(u[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
    return x


def inverse(a) -> np.ndarray:
    """Matrix inverse through the pivot-checked solver."""
    a = _as_square(a)
    return solve(a, np.eye(a.shape[0], dtype=complex))


def cond1(a) -> float:
    """1-norm condition number; infinite when the solve degenerates."""
    a = _as_square(a)
    if a.shape[0] == 0:
        return 1.0
    na = float(np.max(np.sum(np.abs(a), axis=0)))
    try:
        ni = float(np.max(np.sum(np.abs(inverse(a)), axis=0)))
    except DegenerateMatrixError:
        return float("inf")
    return na * ni


def pivot_rows(a, rtol: float = 1e-8) -> list[int]:
    """Rows chosen as pivots by complete-pivoting elimination, in pivot order.

    Pivots are accepted while they stay above rtol times the largest
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
    rows = list(range(m.shape[0]))
    pivots = []
    for _ in range(min(m.shape)):
        flat = int(np.argmax(np.abs(m)))
        i, j = divmod(flat, m.shape[1])
        piv = m[i, j]
        if abs(piv) < rtol * scale:
            break
        pivots.append(rows.pop(i))
        col = m[:, j] / piv
        m = m - np.outer(col, m[i, :])
        m = np.delete(np.delete(m, i, axis=0), j, axis=1)
        if m.size == 0:
            break
    return pivots


def numerical_rank(a, rtol: float = 1e-8) -> int:
    """Rank by complete-pivoting elimination at a relative threshold."""
    return len(pivot_rows(a, rtol))


def scale_rows(a) -> np.ndarray:
    """Each row divided by its largest magnitude; zero rows stay zero."""
    a = np.asarray(a)
    rows = np.max(np.abs(a), axis=1)
    rows[rows == 0] = 1.0
    return a / rows[:, None]


def is_positive_definite(a, floor_rtol: float = 1e-12) -> bool:
    """Positive definiteness of a Hermitian matrix by symmetric elimination.

    Successive diagonal pivots must exceed floor_rtol times the trace.
    """
    h = np.array(a, dtype=complex)
    h = (h + h.conj().T) / 2.0
    n = h.shape[0]
    floor = floor_rtol * max(abs(float(np.trace(h).real)), _TINY)
    for k in range(n):
        piv = h[k, k].real
        if piv <= floor:
            return False
        col = h[k + 1 :, k]
        h[k + 1 :, k + 1 :] -= np.outer(col, col.conj()) / piv
    return True
