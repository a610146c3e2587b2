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
_EPS = np.finfo(float).eps
SYMPLECTIC_WORD_LENGTH = 6  # factors in a random_symplectic word


class SiegelPoint:
    """Symmetric complex matrix with positive-definite imaginary part.

    The one owner of what is derived from tau: the finiteness, symmetry
    and positivity checks run once here, and give the smallest and
    largest eigenvalues `lambda_min` and `lambda_max` of Y.  Computed on
    first use and kept: Y^-1, the theta lattice box's half-widths with
    their tail bound, and the split of tau into a real-reduced matrix and
    an integer one.  A point that theta refuses at `theta.RADIUS_CAP`
    keeps no box and is refused again at every use.  Its arrays are
    read-only.
    """

    def __init__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1] or z.size == 0:
            raise ValueError(f"need a non-empty square matrix, got shape {z.shape}")
        # the largest modulus is NaN or infinite exactly when some entry is
        # (or when a modulus overflows), and is the symmetry test's scale
        peak = float(np.max(np.abs(z)))
        if not np.isfinite(peak):
            raise ValueError("matrix has a non-finite entry")
        scale = max(peak, 1e-300)
        dev = float(np.max(np.abs(z - z.T)))
        if dev > SYMMETRY_RTOL * scale:
            raise ValueError(f"matrix is not symmetric: deviation {dev:.3e} vs scale {scale:.3e}")
        self.z = (z + z.T) / 2
        self.g = z.shape[0]
        self.y = np.ascontiguousarray(self.z.imag)
        self.z.setflags(write=False)
        self.y.setflags(write=False)
        # LAPACK's symmetric eigensolver is backward stable: each computed
        # eigenvalue lies within p(g) eps |Y|_2 of an exact one (LAPACK
        # Users' Guide, section 4.7).  Taking p(g) = g, a smallest computed
        # eigenvalue above g eps times the largest certifies Y > 0.
        lam = np.linalg.eigvalsh(self.y)
        if not lam[0] > self.g * _EPS * lam[-1]:
            raise ValueError(f"imaginary part is not positive definite: "
                             f"eigenvalues {lam[0]:.3e} to {lam[-1]:.3e}")
        self.lambda_min, self.lambda_max = float(lam[0]), float(lam[-1])

    @cached_property
    def y_inv(self) -> np.ndarray:
        out = linalg.inverse(self.y).real
        out.setflags(write=False)
        return out

    @cached_property
    def theta_truncation(self) -> tuple:
        """(half-widths, bound) of `theta._box_half_widths`: the theta
        lattice box around a row's centre and the tail bound outside it."""
        from .theta import _box_half_widths

        half, bound = _box_half_widths(self)
        half.setflags(write=False)
        return half, bound

    @cached_property
    def real_split(self) -> tuple:
        """(tau - S, S) for the integer symmetric S, even on the diagonal,
        that brings Re tau into [-1, 1] on the diagonal and [-1/2, 1/2] off
        it.  exp(i pi n.S.n) = 1 for integer n, so a theta sum over Z^g is
        the same at tau and tau - S; the subtraction is exact, and phases
        computed at tau - S no longer lose digits to a large Re tau."""
        period = 1.0 + np.eye(self.g)
        s = period * np.rint(self.z.real / period)
        split = self.z - s, s
        for a in split:
            a.setflags(write=False)
        return split

    def __repr__(self) -> str:
        return f"SiegelPoint(g={self.g})"


def random_siegel_point(g: int, rng: np.random.Generator) -> SiegelPoint:
    """Well-conditioned random point: symmetric real part, Gram imaginary part."""
    x = rng.standard_normal((g, g))
    b = rng.standard_normal((g, g))
    y = b @ b.T + 0.5 * np.eye(g)
    return SiegelPoint((x + x.T) / 2 + 1j * y)


def _int64_block(x) -> np.ndarray:
    """x as an int64 array; ValueError unless every entry is an integer value.

    Dtypes that cast to int64 exactly pass on a dtype test alone; others
    must hold finite integer values below 2^63 in magnitude.
    """
    x = np.asarray(x)
    if not np.can_cast(x.dtype, np.int64):
        if x.dtype.kind not in "fcu" or not np.all(
            (np.round(x.real) == x) & (np.abs(x) < 2.0**63)
        ):
            raise ValueError("symplectic blocks must hold integer values within int64")
        x = x.real
    return x.astype(np.int64, copy=False)


class SymplecticElement:
    """Integer block matrix [[A,B],[C,D]] preserving the standard symplectic form."""

    def __init__(self, a, b, c, d):
        self.a = _int64_block(a)
        self.b = _int64_block(b)
        self.c = _int64_block(c)
        self.d = _int64_block(d)
        g = self.a.shape[0]
        for blk in (self.a, self.b, self.c, self.d):
            if blk.shape != (g, g):
                raise ValueError("all four blocks must be square of equal size")
        self.g = g
        # M^T J M = J block by block: A^T C and B^T D symmetric and
        # A^T D - C^T B = I (the lower-left block is minus the transpose of
        # that one).  int64 products wrap, so this decides it in Z/2^64.
        ac = self.a.T @ self.c
        bd = self.b.T @ self.d
        if not (np.array_equal(ac, ac.T) and np.array_equal(bd, bd.T)
                and np.array_equal(self.a.T @ self.d - self.c.T @ self.b,
                                   np.eye(g, dtype=np.int64))):
            raise ValueError("blocks do not satisfy the symplectic form condition")


def random_symplectic(g: int, rng: np.random.Generator) -> SymplecticElement:
    """Random word in shears and the inversion; exact integer arithmetic.

    The word is the product, left to right, of SYMPLECTIC_WORD_LENGTH
    factors.  Each factor is applied to the running blocks in place of a
    full matrix product: an upper shear [[I,S],[0,I]] sends (A,B,C,D) to
    (A, AS+B, C, CS+D), a lower shear [[I,0],[S,I]] to (A+BS, B, C+DS, D)
    and the inversion [[0,-I],[I,0]] to (B, -A, D, -C).
    """
    a = np.eye(g, dtype=np.int64)
    b = np.zeros((g, g), dtype=np.int64)
    c = np.zeros((g, g), dtype=np.int64)
    d = np.eye(g, dtype=np.int64)
    for _ in range(SYMPLECTIC_WORD_LENGTH):
        kind = rng.integers(3)
        if kind == 2:
            a, b, c, d = b, -a, d, -c
            continue
        raw = rng.integers(-2, 3, size=(g, g))
        s = raw + raw.T
        if kind == 0:
            b = a @ s + b
            d = c @ s + d
        else:
            a = a + b @ s
            c = c + d @ s
    return SymplecticElement(a, b, c, d)


def siegel_metric(tau: SiegelPoint, pm: PairIndexMap) -> np.ndarray:
    """Pair-indexed metric: row weight (2 - delta) times sym_square(Y^-1).

    Symmetric because the weights cancel the asymmetric normalization of
    the symmetric square.
    """
    return pm.weight[:, None] * sym_square(tau.y_inv, pm)


def modular_transform(tau: SiegelPoint, m: SymplecticElement):
    """Transformed point (A tau + B)(C tau + D)^-1 and the transport cocycle.

    Returns (new SiegelPoint, (C tau + D)^T, (C tau + D)^-1): the inverse
    is the one the transformation used, so callers that transport tangent
    vectors need not invert the cocycle again.  Symmetry and positivity
    of the result are asserted, not assumed.
    """
    if m.g != tau.g:
        raise ValueError("genus mismatch between point and group element")
    den = m.c @ tau.z + m.d.astype(complex)
    num = m.a @ tau.z + m.b.astype(complex)
    inv_den = linalg.inverse(den)
    zt = num @ inv_den
    scale = max(float(np.max(np.abs(zt))), 1e-300)
    dev = float(np.max(np.abs(zt - zt.T)))
    if dev > 1e-10 * scale:
        raise AssertionError(f"transformed point lost symmetry: {dev:.3e}")
    return SiegelPoint((zt + zt.T) / 2), den.T, inv_den


def volume_minor(tau: SiegelPoint, pm: PairIndexMap, rows, cols) -> complex:
    """Minor of the Siegel metric on the given slot selections: the
    determinant of sym_square(Y^-1) on them, times the row weights.

    Both selections are strictly increasing 0-based slot lists of equal
    length.
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
    return linalg.det(siegel_metric(tau, pm)[np.ix_(rows, cols)])


def induced_metric_xi(w_table: np.ndarray, tau: SiegelPoint, pm: PairIndexMap) -> np.ndarray:
    """Metric induced on the expansion family: W^T diag(2-delta) S conj(W).

    `w_table` is the (M, N) expansion table; the result is N x N
    Hermitian positive semidefinite.
    """
    w_table = np.asarray(w_table, dtype=complex)
    if w_table.ndim != 2 or w_table.shape[0] != pm.m:
        raise ValueError(f"expected table with {pm.m} rows, got shape {w_table.shape}")
    return w_table.T @ siegel_metric(tau, pm) @ np.conj(w_table)


def bergman_kernel(omega_at_z, omega_at_w, tau: SiegelPoint) -> complex:
    """Kernel value: omega(z)^T Y^-1 conj(omega(w))."""
    u = np.asarray(omega_at_z, dtype=complex)
    v = np.asarray(omega_at_w, dtype=complex)
    return complex(u @ tau.y_inv @ np.conj(v))


def bergman_square_lhs(u, v, tau: SiegelPoint, pm: PairIndexMap) -> complex:
    """Pair-index double sum that must reproduce the squared kernel."""
    uu = pair_vector(np.asarray(u, dtype=complex), pm)
    vv = pair_vector(np.asarray(v, dtype=complex), pm)
    return complex(uu @ siegel_metric(tau, pm) @ np.conj(vv))


def ambient_volume_density(tau: SiegelPoint, pm: PairIndexMap):
    """Determinant of the metric and its closed form 2^(M-g)/det(Y)^(g+1)."""
    det_metric = linalg.det(siegel_metric(tau, pm)).real
    closed = 2.0 ** (pm.m - pm.g) / linalg.det(tau.y).real ** (pm.g + 1)
    return det_metric, closed
