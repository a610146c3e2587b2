"""Calculus on the Siegel upper half-space in pair-index form.

Points are symmetric complex matrices with positive-definite imaginary
part.  The metric, the volume-form minors, the metric induced on a
family of expansion tables, and the Bergman kernel identities are all
written through the symmetric-square machinery of `pairindex`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .pairindex import PairIndexMap, build_pair_index, pair_vector, sym_square

__all__ = [
    "SiegelPoint",
    "SymplecticElement",
    "random_siegel_point",
    "random_symplectic",
    "siegel_metric",
    "modular_transform",
    "volume_minor",
    "induced_metric_xi",
    "bergman_kernel",
    "bergman_square_lhs",
    "ambient_volume_density",
]

SYMMETRY_RTOL = 1e-12


class SiegelPoint:
    """Symmetric complex matrix with positive-definite imaginary part.

    The one owner of what is derived from tau: the symmetry and
    positivity checks run once here, and Y^-1 and the smallest
    eigenvalue of Y are computed on first use and kept.
    """

    def __init__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"need a square matrix, got shape {z.shape}")
        scale = max(float(np.max(np.abs(z))), 1e-300)
        dev = float(np.max(np.abs(z - z.T)))
        if dev > SYMMETRY_RTOL * scale:
            raise ValueError(f"matrix is not symmetric: deviation {dev:.3e} vs scale {scale:.3e}")
        self.z = (z + z.T) / 2
        self.g = z.shape[0]
        self.y = np.ascontiguousarray(self.z.imag)
        if not linalg.is_positive_definite(self.y):
            raise ValueError("imaginary part is not positive definite")

    @cached_property
    def y_inv(self) -> np.ndarray:
        return linalg.inverse(self.y).real

    @cached_property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Y."""
        return float(np.min(np.linalg.eigvalsh(self.y)))

    def __repr__(self) -> str:
        return f"SiegelPoint(g={self.g})"


def random_siegel_point(g: int, rng: np.random.Generator) -> SiegelPoint:
    """Well-conditioned random point: symmetric real part, Gram imaginary part."""
    x = rng.standard_normal((g, g))
    b = rng.standard_normal((g, g))
    y = b @ b.T + 0.5 * np.eye(g)
    return SiegelPoint((x + x.T) / 2 + 1j * y)


class SymplecticElement:
    """Integer block matrix [[A,B],[C,D]] preserving the standard symplectic form."""

    def __init__(self, a, b, c, d):
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.c = np.asarray(c, dtype=np.int64)
        self.d = np.asarray(d, dtype=np.int64)
        g = self.a.shape[0]
        for blk in (self.a, self.b, self.c, self.d):
            if blk.shape != (g, g):
                raise ValueError("all four blocks must be square of equal size")
        self.g = g
        m = self.matrix()
        j = self._form(g)
        if not np.array_equal(m.T @ j @ m, j):
            raise ValueError("blocks do not satisfy the symplectic form condition")

    @staticmethod
    def _form(g: int) -> np.ndarray:
        j = np.zeros((2 * g, 2 * g), dtype=np.int64)
        j[:g, g:] = np.eye(g, dtype=np.int64)
        j[g:, :g] = -np.eye(g, dtype=np.int64)
        return j

    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, m) -> "SymplecticElement":
        m = np.asarray(m, dtype=np.int64)
        g = m.shape[0] // 2
        return cls(m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(eye, zero, zero, eye)

    @classmethod
    def inversion(cls, g: int) -> "SymplecticElement":
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(zero, -eye, eye, zero)

    @classmethod
    def upper_shear(cls, s) -> "SymplecticElement":
        s = np.asarray(s, dtype=np.int64)
        g = s.shape[0]
        if not np.array_equal(s, s.T):
            raise ValueError("shear block must be symmetric")
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(eye, s, zero, eye)

    @classmethod
    def lower_shear(cls, s) -> "SymplecticElement":
        s = np.asarray(s, dtype=np.int64)
        g = s.shape[0]
        if not np.array_equal(s, s.T):
            raise ValueError("shear block must be symmetric")
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(eye, zero, s, eye)

    def __matmul__(self, other: "SymplecticElement") -> "SymplecticElement":
        return SymplecticElement.from_matrix(self.matrix() @ other.matrix())


def random_symplectic(g: int, rng: np.random.Generator, steps: int = 6) -> SymplecticElement:
    """Random word in shears and the inversion; exact integer arithmetic."""
    elem = SymplecticElement.identity(g)
    for _ in range(steps):
        kind = rng.integers(3)
        if kind == 2:
            factor = SymplecticElement.inversion(g)
        else:
            raw = rng.integers(-2, 3, size=(g, g))
            s = np.asarray(raw + raw.T, dtype=np.int64)
            factor = (
                SymplecticElement.upper_shear(s)
                if kind == 0
                else SymplecticElement.lower_shear(s)
            )
        elem = elem @ factor
    return elem


def _y_inverse(y) -> np.ndarray:
    """Y^-1 of a SiegelPoint (cached) or of a positive-definite matrix."""
    if isinstance(y, SiegelPoint):
        return y.y_inv
    ymat = np.asarray(y, dtype=float)
    if not linalg.is_positive_definite(ymat):
        raise ValueError("needs a positive-definite matrix")
    return linalg.inverse(ymat).real


def siegel_metric(y, pm: PairIndexMap) -> np.ndarray:
    """Pair-indexed metric: row weight (2 - delta) times sym_square(Y^-1).

    Symmetric because the weights cancel the asymmetric normalization of
    the symmetric square.
    """
    return pm.weight[:, None] * sym_square(_y_inverse(y), pm)


def modular_transform(tau: SiegelPoint, m: SymplecticElement):
    """Transformed point (A tau + B)(C tau + D)^-1 and the transport cocycle.

    Returns (new SiegelPoint, (C tau + D)^T).  Symmetry and positivity of
    the result are asserted, not assumed.
    """
    if m.g != tau.g:
        raise ValueError("genus mismatch between point and group element")
    den = m.c @ tau.z + m.d.astype(complex)
    num = m.a @ tau.z + m.b.astype(complex)
    zt = num @ linalg.inverse(den)
    scale = max(float(np.max(np.abs(zt))), 1e-300)
    dev = float(np.max(np.abs(zt - zt.T)))
    if dev > 1e-10 * scale:
        raise AssertionError(f"transformed point lost symmetry: {dev:.3e}")
    return SiegelPoint((zt + zt.T) / 2), den.T


def volume_minor(tau2, pm: PairIndexMap, rows, cols) -> complex:
    """Weighted minor of sym_square(tau2^-1) on the given slot selections.

    Both selections are strictly increasing 0-based slot lists of equal
    length; the weight product runs over the row selection.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column selections must have equal length")
    for sel in (rows, cols):
        if any(not 0 <= i < pm.m for i in sel):
            raise ValueError(f"slot index out of range 0..{pm.m - 1}")
        if any(b <= a for a, b in zip(sel, sel[1:])):
            raise ValueError("selections must be strictly increasing")
    s = sym_square(_y_inverse(tau2), pm)
    sub = s[np.ix_(rows, cols)]
    return linalg.det(sub) * float(np.prod(pm.weight[rows]))


def induced_metric_xi(w_table: np.ndarray, tau2, pm: PairIndexMap) -> np.ndarray:
    """Metric induced on the expansion family: W^T diag(2-delta) S conj(W).

    `w_table` is the (M, N) expansion table; the result is N x N
    Hermitian positive semidefinite.
    """
    w_table = np.asarray(w_table, dtype=complex)
    if w_table.ndim != 2 or w_table.shape[0] != pm.m:
        raise ValueError(f"expected table with {pm.m} rows, got shape {w_table.shape}")
    return w_table.T @ siegel_metric(tau2, pm) @ np.conj(w_table)


def bergman_kernel(omega_at_z, omega_at_w, tau2) -> complex:
    """Kernel value: omega(z)^T tau2^-1 conj(omega(w))."""
    u = np.asarray(omega_at_z, dtype=complex)
    v = np.asarray(omega_at_w, dtype=complex)
    return complex(u @ _y_inverse(tau2) @ np.conj(v))


def bergman_square_lhs(u, v, tau2, pm: PairIndexMap) -> complex:
    """Pair-index double sum that must reproduce the squared kernel."""
    uu = pair_vector(np.asarray(u, dtype=complex), pm)
    vv = pair_vector(np.asarray(v, dtype=complex), pm)
    s = sym_square(_y_inverse(tau2), pm)
    return complex((pm.weight * uu) @ s @ np.conj(vv))


def ambient_volume_density(y, pm: PairIndexMap):
    """Determinant of the metric and its closed form 2^(M-g)/det(Y)^(g+1)."""
    metric = siegel_metric(y, pm)
    det_metric = linalg.det(metric).real
    ymat = y.y if isinstance(y, SiegelPoint) else np.asarray(y, dtype=float)
    closed = 2.0 ** (pm.m - pm.g) / linalg.det(ymat).real ** (pm.g + 1)
    return det_metric, closed
