"""Small dense complex linear algebra with certified degeneracy checks.

Determinants, solves and inverses are numpy's LAPACK calls.  What this
module adds is the certification around them: determinant residuals are
ratios to a Hadamard bound, taken on the row-normalized matrix so that
they cannot underflow, a solve or inverse whose row-scaled reciprocal
condition falls below a threshold fails loudly with that magnitude (a
stack of sets solved in one call is refused set by set), and numerical
rank comes from singular values with a relative threshold.  Positivity
of Im tau is certified where the point is built, by `siegel.SiegelPoint`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateMatrixError",
    "hadamard_ratio",
    "det",
    "signed_minor",
    "solve",
    "solve_sets",
    "inverse",
    "inverse_cond1",
    "numerical_rank",
    "scale_rows",
]

_TINY = np.finfo(float).tiny
PIVOT_RTOL = 1e-13  # floor on the row-scaled reciprocal condition in solve/inverse
RANK_RTOL = 1e-8  # floor on each singular value, relative to the largest entry


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


def _conditions(a: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """Row-scaled condition of each matrix of a stack (..., n, n), given its inverse.

    That condition is |D^-1 a|_inf |a^-1 D|_inf with D the row max-norms
    of a, so scaling a row of a leaves it unchanged.  The rows are summed
    from a C-contiguous copy, so a transposed or sliced a gets the
    condition of its contiguous copy.
    """
    abs_a = np.abs(np.ascontiguousarray(a))
    d = np.maximum(abs_a.max(axis=-1), _TINY)
    return (abs_a.sum(axis=-1) / d).max(axis=-1) * (
        np.abs(a_inv) @ d[..., None]).max(axis=(-2, -1))


def _refusal(cond: np.ndarray):
    """The DegenerateMatrixError that refuses matrices of conditions `cond`,
    or None: a group is refused when its reciprocal condition 1/max(cond)
    is below PIVOT_RTOL, and that reciprocal is the reported magnitude."""
    rcond = 1.0 / float(cond.max())
    if rcond < PIVOT_RTOL:
        return DegenerateMatrixError(
            "degenerate configuration: row-scaled reciprocal condition below threshold",
            rcond,
        )
    return None


def _singular() -> DegenerateMatrixError:
    """The refusal of a matrix in which LAPACK meets an exactly zero pivot."""
    return DegenerateMatrixError("degenerate configuration: singular matrix", 0.0)


def solve_sets(a, b):
    """Solve a stack of sets of systems a x = b, refusing set by set.

    Set s is a[s] with b[s]: a is (S, ..., n, n) and b (S, ..., n) or
    (S, ..., n, k).  One LAPACK factorization of each matrix solves
    [b | I], so it also yields a^-1, which certifies the solution.
    Returns (x, a_inv, refusals): the solutions shaped like b, the
    inverses, and per set None or the DegenerateMatrixError that refuses
    it.  A set is refused when its smallest row-scaled reciprocal
    condition is below PIVOT_RTOL, with that condition as the magnitude,
    or with magnitude 0 when LAPACK meets an exactly zero pivot in one of
    its matrices.  One call solves every set; only when a zero pivot
    fails that call is each set solved alone, so a refused set leaves
    the others' bits unchanged.  The rows of a zero-pivot set are NaN.
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
    except np.linalg.LinAlgError:
        if len(a) == 1:
            aug[...] = np.nan
            return aug[..., :k].reshape(b.shape), aug[..., k:], [_singular()]
        parts = [solve_sets(a[s:s + 1], b[s:s + 1]) for s in range(len(a))]
        return (np.concatenate([x for x, _, _ in parts]),
                np.concatenate([inv for _, inv, _ in parts]),
                [r for _, _, [r] in parts])
    if a.size == 0:
        refusals = [None] * len(a)
    else:
        cond = _conditions(a, sol[..., k:])
        refusals = [_refusal(c) for c in cond.reshape(len(a), -1)]
    return sol[..., :k].reshape(b.shape), sol[..., k:], refusals


def solve(a, b) -> np.ndarray:
    """Solve a x = b, refusing a numerically singular a: the one-set case
    of `solve_sets`, raising its refusal.  A stack a (..., n, n) with b
    (..., n) or (..., n, k) is one set, so one refused matrix fails the
    call."""
    x, _, [refusal] = solve_sets(np.asarray(a)[None], np.asarray(b)[None])
    if refusal is not None:
        raise refusal
    return x[0]


def inverse(a) -> np.ndarray:
    """Matrix inverse through LAPACK, with the same degeneracy test as `solve`."""
    a = _as_square(a)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc
    refusal = _refusal(_conditions(a, a_inv)) if a.size else None
    if refusal is not None:
        raise refusal
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


def numerical_rank(a) -> int:
    """Number of singular values at or above RANK_RTOL times the largest
    magnitude of a."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(sigma >= RANK_RTOL * scale))


def scale_rows(a) -> np.ndarray:
    """Each row divided by its largest magnitude; zero rows stay zero."""
    a = np.asarray(a)
    rows = np.max(np.abs(a), axis=-1, keepdims=True)
    rows[rows == 0] = 1.0
    return a / rows

