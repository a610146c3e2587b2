"""Theta functions with half-integer characteristics and their identities.

A characteristic is folded into the argument,
theta[a,b](z) = exp(i pi a.tau.a + 2 pi i a.(z + b)) theta(z + tau a + b),
so the engine sums over Z^g only and rows of different characteristics
share one sum.  Each row is translated into the fundamental cell by
quasi-periodicity; the prefactors are kept as a separate log scale so
nothing overflows.  Truncation follows Deconinck, Heil, Bobenko, van
Hoeij and Schmies (2004): terms outside the ellipsoid pi v.Y.v < R_e^2
around a row's centre sum to a certified fraction of its peak term, and
R_e, solved once per tau, does not depend on the argument.  The sum runs
over the ellipsoid's bounding box, so a batch of arguments at one tau
shares a single lattice box.  Within it, term moduli come from one real
matmul and one real exp, and only the unit phases are factored: one
complex exp per lattice point, shared by every row, and two per row and
axis, so no complex exp runs per (row, point) term.  On top of
the engine: the Fay trisecant residual and the end-to-end cross-ratio
comparison between cardinal bases and theta quotients at genus 2 and up,
with the Riemann constant in closed form from `jacobian`.  Each makes
one lattice sum per identity, split into groups only where MAX_TERMS
demands it.  The trisecant residual takes a batch of T trials at one
tau: T (3m^2 - m + 2) rows, then one stacked O(m^3) scaled determinant;
a single trial is the batch of one.  The cross-ratio check sums, per
draw, theta(w) and eight rows per anchor pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import (
    NonGenericAnchorsError,
    cardinal_basis,
    differential_dimension,
    holomorphic_basis,
)
from .curves import sample_points
from .siegel import SiegelPoint

__all__ = [
    "TruncationError",
    "ThetaNearZeroError",
    "CoincidentPointsError",
    "ScaledComplex",
    "ThetaCharacteristic",
    "theta",
    "theta_value",
    "scaled_det",
    "odd_characteristics",
    "fay_residual",
    "CrossRatioResult",
    "gamma_cross_ratio_check",
]


class TruncationError(RuntimeError):
    """The lattice sum cannot meet the target error within the radius cap,
    or would exceed the term budget."""


class ThetaNearZeroError(RuntimeError):
    """A theta value required to be nonzero fell below its floor."""


class CoincidentPointsError(ValueError):
    """Jacobian points required distinct are closer than the separation floor."""


class ScaledComplex:
    """Complex value stored as mantissa * exp(log_scale).

    `err` bounds the absolute error of the mantissa; `peak` records the
    mantissa-scale magnitude of the largest series term, the natural
    yardstick for is-this-zero tests.  Negation keeps both, and a plain
    factor c scales both by |c|.  For a = a.m + da with |da| <= a.err, and
    b alike, a * b has err |a.m| b.err + |b.m| a.err + a.err b.err and
    peak a.peak b.peak; a / b has err (|b.m| a.err + |a.m| b.err) /
    (|b.m| (|b.m| - b.err)), infinite once b.err reaches |b.m|, and peak
    a.peak / |b.m|.
    """

    __slots__ = ("mantissa", "log_scale", "err", "peak")

    def __init__(self, mantissa: complex, log_scale: float = 0.0,
                 err: float = 0.0, peak: float = 1.0):
        self.mantissa = complex(mantissa)
        self.log_scale = float(log_scale)
        self.err = float(err)
        self.peak = float(peak)

    @property
    def value(self) -> complex:
        return self.mantissa * np.exp(self.log_scale)

    def normalized(self) -> "ScaledComplex":
        m = abs(self.mantissa)
        if m == 0:
            return ScaledComplex(0.0, 0.0, self.err, self.peak)
        shift = float(np.log(m))
        return ScaledComplex(self.mantissa / m, self.log_scale + shift,
                             self.err / m, self.peak / m)

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            err = (abs(self.mantissa) * other.err + abs(other.mantissa) * self.err
                   + self.err * other.err)
            return ScaledComplex(self.mantissa * other.mantissa,
                                 self.log_scale + other.log_scale, err, self.peak * other.peak)
        c = abs(other)
        return ScaledComplex(self.mantissa * other, self.log_scale, self.err * c, self.peak * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledComplex):
            if other.mantissa == 0:
                raise ZeroDivisionError("division by an exactly zero scaled value")
            b = abs(other.mantissa)
            err = math.inf
            if other.err < b:
                err = (b * self.err + abs(self.mantissa) * other.err) / (b * (b - other.err))
            return ScaledComplex(self.mantissa / other.mantissa,
                                 self.log_scale - other.log_scale, err, self.peak / b)
        c = abs(other)
        return ScaledComplex(self.mantissa / other, self.log_scale, self.err / c, self.peak / c)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.log_scale, self.err, self.peak)

    def __repr__(self):
        return f"ScaledComplex({self.mantissa!r}, log_scale={self.log_scale:.6g})"


def scaled_rel_diff(a: ScaledComplex, b: ScaledComplex) -> float:
    """|a - b| / max(|a|, |b|) evaluated at a shared scale."""
    a = a.normalized()
    b = b.normalized()
    if a.mantissa == 0 and b.mantissa == 0:
        return 0.0
    top = max(a.log_scale if a.mantissa != 0 else -np.inf,
              b.log_scale if b.mantissa != 0 else -np.inf)
    av = a.mantissa * np.exp(a.log_scale - top) if a.mantissa != 0 else 0.0
    bv = b.mantissa * np.exp(b.log_scale - top) if b.mantissa != 0 else 0.0
    return float(abs(av - bv) / max(abs(av), abs(bv)))


class ThetaCharacteristic:
    """Half-integer characteristic (a, b), entries in {0, 1/2}."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float).reshape(-1)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must have equal length")
        for vec in (self.a, self.b):
            if not np.all((vec == 0.0) | (vec == 0.5)):
                raise ValueError("characteristic entries must be 0 or 1/2")
        self.g = len(self.a)

    @property
    def parity(self) -> int:
        return int(round(4.0 * float(self.a @ self.b))) % 2

    @property
    def is_odd(self) -> bool:
        return self.parity == 1

    @classmethod
    def zero(cls, g: int) -> "ThetaCharacteristic":
        return cls(np.zeros(g), np.zeros(g))

    @classmethod
    def from_bits(cls, ia: int, ib: int, g: int) -> "ThetaCharacteristic":
        a = np.array([(ia >> i) & 1 for i in range(g)], dtype=float) / 2
        b = np.array([(ib >> i) & 1 for i in range(g)], dtype=float) / 2
        return cls(a, b)

    @classmethod
    def first_odd(cls, g: int) -> "ThetaCharacteristic":
        """odd_characteristics(g)[0]: every a-bits 0 is even, and at a-bits 1
        the b-bits 1 is the first odd one."""
        return cls.from_bits(1, 1, g)

    def __repr__(self):
        return f"ThetaCharacteristic(a={self.a.tolist()}, b={self.b.tolist()})"


def odd_characteristics(g: int, count=None) -> list:
    """Odd characteristics in the fixed (a-bits, b-bits) enumeration order."""
    out = []
    for ia in range(2**g):
        for ib in range(2**g):
            ch = ThetaCharacteristic.from_bits(ia, ib, g)
            if ch.is_odd:
                out.append(ch)
                if count is not None and len(out) == count:
                    return out
    if count is not None and len(out) < count:
        raise ValueError(f"only {len(out)} odd characteristics exist at g={g}")
    return out


# Truncation policy: target error relative to the peak term, cap on the
# widest half-width of the lattice box, and a budget on lattice points
# times batch rows summed in one call.
THETA_EPS = 1e-13
RADIUS_CAP = 40.0
MAX_TERMS = 1 << 22


def _siegel(tau) -> SiegelPoint:
    """tau as a SiegelPoint: passed through, or validated from a matrix or a g=1 scalar."""
    if isinstance(tau, SiegelPoint):
        return tau
    mat = np.asarray(tau, dtype=complex)
    return SiegelPoint(mat.reshape(1, 1) if mat.ndim == 0 else mat)


def _tail_bound(g: int, r: float, radius: float):
    """(bound, slope): an upper bound on the sum of exp(-|v|^2) over the
    points v, |v| >= radius, of any translate of a lattice in R^g whose
    nonzero vectors are all at least 2r long, and its derivative in the
    radius (Deconinck, Heil, Bobenko, van Hoeij and Schmies, *Computing
    Riemann theta functions*, Math. Comp. 73 (2004), Thm 2).  For
    radius >= 2r, with a = radius - 2r,

        bound = (g / 2r^g) sum_{k<g} C(g-1, k) r^(g-1-k) Gamma((k+1)/2, a^2),
        slope = -(g / r^g) (a + r)^(g-1) exp(-a^2).

    Proof.  The balls B(v, r) are disjoint, and for |v| >= radius they lie
    in |x| >= radius - r >= r.  On B(v, r), |x| <= |v| + r, and
    h(s) = exp(-(s - r)^2) decreases for s >= r, so
    exp(-|v|^2) = h(|v| + r) <= h(|x|): each term is at most the mean of
    h(|x|) over its ball, of volume V_g r^g.  Summing over the disjoint
    balls and integrating in polar coordinates (unit sphere area g V_g),
    the tail is at most (g / r^g) int_{radius-r}^inf s^(g-1) h(s) ds
    = (g / r^g) int_a^inf (t + r)^(g-1) exp(-t^2) dt.  The binomial
    expansion of (t + r)^(g-1) gives the sum above, since
    int_a^inf t^k exp(-t^2) dt = Gamma((k+1)/2, a^2) / 2 for a >= 0; the
    slope is minus the integrand at a.  At half-integer orders
    Gamma(1/2, x) = sqrt(pi) erfc(sqrt x), Gamma(1, x) = exp(-x) and
    Gamma(s + 1, x) = s Gamma(s, x) + x^s exp(-x).
    """
    a = radius - 2.0 * r
    x = a * a
    gam = [math.sqrt(math.pi) * math.erfc(a), math.exp(-x)]
    for k in range(2, g):
        s = (k - 1) / 2
        # x^s exp(-x) as one exp, which cannot overflow
        gam.append(s * gam[k - 2] + (math.exp(s * math.log(x) - x) if x else 0.0))
    # powers of 1/r by float products, which overflow to inf, not an error
    acc = 0.0
    for k in reversed(range(g)):
        acc = acc / r + math.comb(g - 1, k) * gam[k]
    rise = math.exp(-x)
    for _ in range(g - 1):
        rise *= 1.0 + a / r
    return g / (2.0 * r) * acc, -g / r * rise


def _packing_radius(g: int, lam: float) -> float:
    """The ball radius r that `_tail_bound` uses for the lattice
    sqrt(pi) T Z^g, Y = T^T T, whose smallest eigenvalue is lam.

    A nonzero n has pi n.Y.n >= pi lam, so any r <= sqrt(pi lam) / 2 keeps
    the balls disjoint.  For a large radius R the log of the bound moves
    with r as -g / r + 4R, so it is least near r = g / (4R).  The solved
    R_e lies between sqrt(-log THETA_EPS) and 1.5 times it up to g = 8,
    and the bound is flat near its least: r = g / (4 sqrt(-log THETA_EPS))
    gives an R_e within 0.3% of the best r's, without a search.
    """
    return min(math.sqrt(math.pi * lam) / 2.0, g / (4.0 * math.sqrt(-math.log(THETA_EPS))))


def _ellipsoid_radius(g: int, lam: float):
    """(R_e, bound): the radius where `_tail_bound` falls to THETA_EPS for
    the lattice sqrt(pi) T Z^g, Y = T^T T, whose smallest eigenvalue is
    lam, with the ball radius of `_packing_radius`, and the bound there.
    lam > 0 is certified by `SiegelPoint`.

    The log of the bound is concave in the radius: it is the tail integral
    of the log-concave (t + r)^(g-1) exp(-t^2) (Prekopa).  So Newton's
    method on it steps past the root at most once and then descends to it
    from above, where the bound holds up to rounding; `err` carries the
    bound itself.
    """
    r = _packing_radius(g, lam)
    radius = 2.0 * r
    bound, slope = _tail_bound(g, r, radius)
    if not math.isfinite(bound):
        raise TruncationError(f"smallest eigenvalue of Im tau is {lam:.3e}; no tail bound")
    step = 0.0
    if bound > THETA_EPS:
        # start where exp(-a^2) alone is THETA_EPS
        radius += math.sqrt(-math.log(THETA_EPS))
        bound, slope = _tail_bound(g, r, radius)
        step = math.inf
    while abs(step) > 1e-9 * radius:
        step = math.log(bound / THETA_EPS) * bound / -slope
        # a step so long that the bound underflows is halved back into range
        while not ((nxt := _tail_bound(g, r, radius + step))[0] > 0.0 and nxt[1] < 0.0):
            step /= 2.0
        radius += step
        bound, slope = nxt
    return radius, bound


def _truncation(point: SiegelPoint):
    """(half-widths h, bound): the box |n_k + c0_k| <= h_k around a row's
    centre -c0 holds its ellipsoid pi (n + c0).Y.(n + c0) < R_e^2, and the
    terms outside that sum to at most bound times the peak term.

    On that ellipsoid (n + c0)_k reaches at most (R_e / sqrt(pi))
    sqrt((Y^-1)_kk), by Cauchy-Schwarz in the Y inner product; h_k is that,
    or 1 where that is smaller.  R_e is solved once per point
    (`SiegelPoint.theta_ellipsoid`); none of this depends on the argument
    z.
    """
    radius, bound = point.theta_ellipsoid
    # max_k (Y^-1)_kk >= tr(Y^-1) / g >= 1 / (g lam_min), so a Y too close
    # to singular is refused from its spectrum, before Y^-1 is formed
    widest = radius / math.sqrt(math.pi * point.g * point.lambda_min)
    if widest <= RADIUS_CAP:
        # at least one step on each axis: where Y is so large that the
        # ellipsoid is narrower than that, theta can sit far below the peak
        # term, and the lattice points on both sides of the centre carry it
        half = np.maximum(radius / math.sqrt(math.pi) * np.sqrt(np.diag(point.y_inv)), 1.0)
        widest = float(np.max(half))
    if widest > RADIUS_CAP:
        # the radius whose widest half-width is the cap
        at_cap = radius * RADIUS_CAP / widest
        achieved = _tail_bound(point.g, _packing_radius(point.g, point.lambda_min), at_cap)[0]
        raise TruncationError(
            f"needs radius {widest:.1f} > cap {RADIUS_CAP:.1f}; "
            f"best relative bound at the cap is {achieved:.3e}"
        )
    return half, bound


def _reduce(point: SiegelPoint, v: np.ndarray, tau: np.ndarray | None = None):
    """Rows v = tau m + n + r with integer rows m, n and small remainders r.

    tau defaults to the point's matrix; any matrix with the point's
    imaginary part may stand in for it.
    """
    tau = point.z if tau is None else tau
    mvec = np.rint(v.imag @ point.y_inv.T)
    nvec = np.rint((v - mvec @ tau.T).real)
    return v - mvec @ tau.T - nvec, mvec, nvec


def _split_real(point: SiegelPoint):
    """(tau - S, S) for the integer symmetric S, even on the diagonal, that
    brings Re tau into [-1, 1] on the diagonal and [-1/2, 1/2] off it.

    exp(i pi n.S.n) = 1 for integer n, so a theta sum over Z^g is the same
    at tau and tau - S; the subtraction is exact, and phases computed at
    tau - S no longer lose digits to a large Re tau.
    """
    period = 1.0 + np.eye(point.g)
    s = period * np.rint(point.z.real / period)
    return point.z - s, s


def _fold(point: SiegelPoint, *groups):
    """(tau_s, rows w, log factors L) with theta[a,b](z) = exp(L) theta(w).

    Each group is (zs, char), char a ThetaCharacteristic or None.  By
    theta[a,b](z) = exp(i pi a.tau.a + 2 pi i a.(z + b)) theta(z + tau a + b),
    w is z + tau a + b up to a lattice vector, so one lattice sum over Z^g
    at the returned rows, in group order, serves every characteristic.
    tau_s is the real-reduced matrix of `_split_real`, split once here
    for the fold and for the kernel.
    """
    g = point.g
    tau, s = _split_real(point)
    rows, logs = [], []
    for zs, char in groups:
        zs = np.asarray(zs, dtype=complex)
        if zs.size % g:
            raise ValueError(f"arguments do not split into rows of length {g}")
        zs = zs.reshape(-1, g)
        if char is None:
            rows.append(zs)
            logs.append(np.zeros(len(zs), dtype=complex))
            continue
        if char.g != g:
            raise ValueError(f"characteristic has length {char.g}, expected {g}")
        a, b = char.a, char.b
        # First z = tau m + n + r, with theta[a,b](z) =
        # exp(-i pi m.tau.m - 2 pi i m.(r + b) + 2 pi i a.n) theta[a,b](r), so
        # the fold's factor is formed at a small r.  With tau = tau_s + S the
        # reduction at tau_s returns n + S m, and a.n, a.S.a and S a matter
        # only modulo 1, 2 and 1: all exact multiples of 1/2.
        r, mvec, nvec = _reduce(point, zs, tau)
        sa = s @ a
        logs.append(-1j * np.pi * np.einsum("bi,bi->b", mvec, mvec @ tau + 2.0 * (r + b))
                    + 2j * np.pi * (((nvec - mvec @ s) @ a) % 1.0)
                    + 1j * np.pi * (a @ tau @ a + (a @ sa) % 2.0) + 2j * np.pi * ((r + b) @ a))
        rows.append(r + (tau @ a + b + sa % 1.0))
    return tau, np.concatenate(rows), np.concatenate(logs)


_LOG_TINY = math.log(np.finfo(float).tiny)


def _theta_arrays(point: SiegelPoint, tau: np.ndarray, zs: np.ndarray, log_fac: np.ndarray):
    """exp(log_fac) theta(z) at every row of zs, by one lattice sum over Z^g.

    tau is the real-reduced matrix that `_fold` returns with the rows.

    Returns arrays (mantissa, log scale, err, peak), one entry per row.
    Each term is a modulus exp(Re w) times a unit phase, with
    Re w = -pi u.Y.u - 2 pi u.y0 at the reduced argument z0 = x0 + i y0.
    The moduli come from one real matmul and one real exp, after the
    row's largest exponent is subtracted.  Only the phases are factored:
    one complex exp(i pi u.X.u) per lattice point, shared by every row,
    with X reduced modulo the integer symmetric matrices that leave it
    unchanged on Z^g, and the axis phases exp(2 pi i u_k x0_k), two complex
    exps per row and axis and a running product along it, contracted one
    axis at a time by batched np.matmul.
    Factoring the moduli would overflow at large Y even where their
    product does not.
    """
    g = point.g
    half, bound = _truncation(point)
    z0, mvec, _ = _reduce(point, zs, tau)
    # quasi-periodicity: -i pi m.tau.m - 2 pi i m.z0
    pref = log_fac - 1j * np.pi * np.einsum("bi,bi->b", mvec, mvec @ tau + 2.0 * z0)
    y0 = z0.imag
    c0 = y0 @ point.y_inv.T
    peak_log = np.pi * np.einsum("bi,bi->b", y0, c0)

    lo = np.ceil(-c0.max(axis=0) - half).astype(int)
    hi = np.floor(half - c0.min(axis=0)).astype(int)
    sizes = [int(n) for n in hi - lo + 1]
    rows = len(zs)
    terms = rows * math.prod(sizes)
    if terms > MAX_TERMS:
        raise TruncationError(
            f"lattice sum needs {terms} terms (points x rows) > budget {MAX_TERMS}"
        )
    axes = [np.arange(lo[k], hi[k] + 1, dtype=float) for k in range(g)]
    # the box's lattice points as the columns of u, in C order
    u = np.empty([g] + sizes)
    for k in range(g):
        u[k] = axes[k].reshape([-1] + [1] * (g - 1 - k))
    u = u.reshape(g, -1)
    # Re w for every (row, point) from one matmul of [2 y0, 1] by [u; u.Y.u]
    quad = np.einsum("ij,ij->j", u, point.y @ u)
    re_w = np.hstack([2.0 * y0, np.ones((rows, 1))]) @ np.vstack([u, quad])
    re_w *= -np.pi
    mx = re_w.max(axis=1)
    re_w -= mx[:, None]
    # moduli that would be subnormal are below 1e-307 of the row's largest
    # term; dropping them changes no digit and keeps later products fast
    re_w[re_w < _LOG_TINY] = -np.inf
    np.exp(re_w, out=re_w)
    acc = re_w.astype(complex)
    acc *= np.exp(1j * np.pi * np.einsum("ij,ij->j", u, tau.real @ u))
    for k in range(g):
        # axis-k phases exp(2 pi i x0_k u) at u = lo_k .. hi_k: per row one
        # exp for the first and one for the ratio, then a running product
        phase = np.empty((sizes[k], rows), dtype=complex)
        phase[0] = np.exp(2j * np.pi * lo[k] * z0[:, k].real)
        phase[1:] = np.exp(2j * np.pi * z0[:, k].real)
        np.cumprod(phase, axis=0, out=phase)
        # one row vector of phases times the (n_k, rest) matrix of each row
        # keeps np.matmul on BLAS for one row and for thousands
        acc = np.matmul(phase.T[:, None, :], acc.reshape(rows, sizes[k], -1))
    mant = acc.reshape(rows) * np.exp(1j * pref.imag)
    peak_mant = np.exp(peak_log - mx)
    return mant, mx + pref.real, peak_mant * bound, peak_mant


def theta(z, tau, char: ThetaCharacteristic | None = None):
    """Theta series with characteristic at z, by one lattice sum.

    z of shape (g,) gives one ScaledComplex; a stack of rows (n, g) gives
    a list with one ScaledComplex per row.  The characteristic is folded
    into the argument (see `_fold`), then each row is translated into the
    fundamental cell; both prefactors go into its log scale and phase.
    The truncation ellipsoid does not depend on z, so one lattice box, the
    union of the per-row boxes, serves every row: the neglected tail of
    each row is below THETA_EPS relative to its peak term, and that
    certified bound is stored in `err`.  Raises TruncationError before
    allocating when lattice points times rows would exceed MAX_TERMS.
    """
    point = _siegel(tau)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if zs.ndim > 2 or zs.shape[-1] != point.g:
        raise ValueError(f"arguments are not rows of length {point.g}: shape {zs.shape}")
    vals = [ScaledComplex(mk, sk, err=ek, peak=pk)
            for mk, sk, ek, pk in zip(*_theta_arrays(point, *_fold(point, (zs, char))))]
    return vals if zs.ndim == 2 else vals[0]


def theta_value(z, tau, char=None) -> complex:
    """Plain complex theta value; only safe at moderate scales."""
    return theta(z, tau, char).value


def lattice_reduce_tau(v, tau):
    """Split v = tau m + n + r with integer m, n and a small remainder r."""
    point = _siegel(tau)
    v = np.asarray(v, dtype=complex).reshape(1, point.g)
    r, mvec, nvec = _reduce(point, v)
    return r[0], mvec[0], nvec[0]


@functools.cache
def _pairs(n: int):
    """Read-only index arrays (i, j) of the pairs i < j below n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _separation(points, point: SiegelPoint):
    """(t, error): the first point set of points (T, n, g) with two points
    closer than MIN_SEPARATION modulo the lattice, and its
    CoincidentPointsError; (T, None) when every set is separated."""
    n, g = points.shape[1:]
    i, j = _pairs(n)
    r, _, _ = _reduce(point, (points[:, i] - points[:, j]).reshape(-1, g))
    close = np.max(np.abs(r), axis=1).reshape(len(points), -1) < MIN_SEPARATION
    bad = np.flatnonzero(close.any(axis=1))
    if not len(bad):
        return len(points), None
    t = int(bad[0])
    k = np.argmax(close[t])
    return t, CoincidentPointsError(
        f"points {i[k]} and {j[k]} are within {MIN_SEPARATION} on the Jacobian")


def _normalized(mant: np.ndarray, logs: np.ndarray):
    """Array form of ScaledComplex.normalized: unit mantissas, moduli moved
    into the log scales; zero mantissas stay zero."""
    mod = np.abs(mant)
    mod[mod == 0] = 1.0
    return mant / mod, logs + np.log(mod)


def _scaled_det(mant: np.ndarray, logs: np.ndarray):
    """(mantissa, log scale) of det(mant * exp(logs)), by pivoted elimination.

    After normalizing each entry, every row, then every column, is brought
    to the scale of its largest entry, so the mantissa matrix handed to
    `linalg.det` has entries of modulus at most one; the row and column
    scales return as the log scale.  A stack of matrices (..., m, m) gives
    arrays of mantissas and log scales, one per matrix, from one `det`.
    """
    mant, logs = _normalized(mant, logs)
    logs[mant == 0] = -np.inf
    row_top = np.max(logs, axis=-1, keepdims=True)
    row_top[~np.isfinite(row_top)] = 0.0
    col_top = np.max(logs - row_top, axis=-2, keepdims=True)
    col_top[~np.isfinite(col_top)] = 0.0
    scaled = mant * np.exp(logs - row_top - col_top)
    return linalg.det(scaled), np.sum(row_top, axis=(-2, -1)) + np.sum(col_top, axis=(-2, -1))


def scaled_det(entries) -> ScaledComplex:
    """Determinant of a square matrix of scaled entries; see _scaled_det."""
    mant = np.array([[e.mantissa for e in row] for row in entries], dtype=complex)
    logs = np.array([[e.log_scale for e in row] for row in entries], dtype=float)
    return ScaledComplex(*_scaled_det(mant, logs))


THETA_FLOOR = 1e-8
# Jacobian points closer than this, modulo the lattice, count as coincident
MIN_SEPARATION = 1e-4
# draws gamma_cross_ratio_check makes before it gives up
CROSS_RATIO_ATTEMPTS = 6


def _cell_box_points(point: SiegelPoint) -> int:
    """Most lattice points one `_theta_arrays` box can hold at this tau.

    Every row is reduced into the fundamental cell first, so its centre
    offset c0 lies in [-1/2, 1/2]^g, and the box of any batch of rows
    spans at most 2 floor(h_k + 1/2) + 1 points on axis k (with a margin
    for the rounding of c0).
    """
    half = _truncation(point)[0]
    return math.prod(2 * math.floor(h + 0.5 + 1e-6) + 1 for h in half.tolist())


def fay_residual(w, xs, ys, tau, delta: ThetaCharacteristic):
    """Relative deviation between the two sides of the trisecant identity.

    Both sides are formed from theta translates and reduced prime forms
    in scaled arithmetic, as arrays of mantissas and log scales; the
    half-differential normalizations cancel between the two sides, so the
    reduced form suffices.

    With w of length g and m points xs and ys, the residual is returned
    and a failing configuration raises.  With w of shape (T, g) and xs, ys
    of shape (T, m, g), T trials at one tau run as one batch and the
    result is (residuals, error): the residuals of the trials before the
    first failing trial, in trial order, and that trial's
    CoincidentPointsError, ThetaNearZeroError or ZeroDivisionError, or
    None when every trial passes.  The batch makes one separation test,
    one lattice sum of T (3m^2 - m + 2) rows and one stacked determinant;
    trials whose rows would together exceed MAX_TERMS are split into the
    fewest consecutive groups that fit, one lattice sum per group.
    """
    one = np.ndim(w) != 2
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if one:
        w, xs, ys = [w], xs[None], ys[None]
    m = xs.shape[1]
    if m < 2 or ys.shape[1] != m:
        raise ValueError("need m >= 2 points on each side")
    if not delta.is_odd:
        raise ValueError("the prime-form characteristic must be odd")
    point = _siegel(tau)
    g = point.g
    w = np.asarray(w, dtype=complex).reshape(-1, g)
    xs = xs.reshape(len(w), m, g)
    ys = ys.reshape(len(w), m, g)
    usable, error = _separation(np.concatenate([xs, ys], axis=1), point)
    per_sum = max(1, MAX_TERMS // ((3 * m * m - m + 2) * _cell_box_points(point)))
    out = []
    for a in range(0, usable, per_sum):
        b = min(a + per_sum, usable)
        res, err = _fay_trials(point, w[a:b], xs[a:b], ys[a:b], delta)
        out += res
        if err is not None:
            error = err
            break
    if not one:
        return out, error
    if error is not None:
        raise error
    return out[0]


def _fay_trials(point: SiegelPoint, w, xs, ys, delta):
    """(residuals, error) of fay_residual for trials at separated points,
    from one lattice sum."""
    trials, m, g = xs.shape
    # Per trial, 3m^2 - m + 2 rows: theta(w), the shifted
    # theta(w + sum x - sum y) and the m^2 matrix numerators
    # theta(w + x_i - y_j), then the odd translates: the m^2 prime forms
    # E(x_i, y_j), and E(x_i, x_j), E(y_i, y_j) for i < j.
    k = m * m
    iu, ju = _pairs(m)
    cross = (xs[:, :, None, :] - ys[:, None, :, :]).reshape(trials, k, g)
    shift = w + xs.sum(axis=1) - ys.sum(axis=1)
    mant, logs, _, peak = _theta_arrays(point, *_fold(
        point, (np.concatenate([w[:, None], shift[:, None], w[:, None] + cross], axis=1), None),
        (np.concatenate([cross, xs[:, iu] - xs[:, ju], ys[:, iu] - ys[:, ju]], axis=1), delta)))
    even = trials * (k + 2)
    even_m, odd_m = mant[:even].reshape(trials, k + 2), mant[even:].reshape(trials, -1)
    even_l, odd_l = logs[:even].reshape(trials, k + 2), logs[even:].reshape(trials, -1)
    low = np.abs(even_m[:, 0]) < THETA_FLOOR * peak[:even:k + 2]
    zero = np.any(odd_m[:, :k] == 0, axis=1)
    bad = np.flatnonzero(low | zero)
    done, error = trials, None
    if len(bad):
        done = bad[0]
        error = (ThetaNearZeroError("theta(w) is below the nonvanishing floor") if low[done]
                 else ZeroDivisionError("division by an exactly zero scaled value"))
    # only the trials before the first failing one go on
    tw_m, sh_m, num_m, odd_m = (even_m[:done, :1], even_m[:done, 1:2], even_m[:done, 2:],
                                odd_m[:done])
    tw_l, sh_l, num_l, odd_l = (even_l[:done, :1], even_l[:done, 1:2], even_l[:done, 2:],
                                odd_l[:done])

    # lhs: theta(shift) prod_{i<j} E(x_i, x_j) E(y_i, y_j) over
    # theta(w) prod_{i,j} E(x_i, y_j); rhs: det theta(w + x_i - y_j) /
    # (theta(w) E(x_i, y_j))
    top_m, top_l = _normalized(np.hstack([sh_m, odd_m[:, k:]]), np.hstack([sh_l, odd_l[:, k:]]))
    den_m, den_l = _normalized(np.hstack([tw_m, odd_m[:, :k]]), np.hstack([tw_l, odd_l[:, :k]]))
    lhs_m = np.prod(top_m, axis=1) / np.prod(den_m, axis=1)
    lhs_l = np.sum(top_l, axis=1) - np.sum(den_l, axis=1)
    rhs_m, rhs_l = _scaled_det((num_m / (tw_m * odd_m[:, :k])).reshape(-1, m, m),
                               (num_l - (tw_l + odd_l[:, :k])).reshape(-1, m, m))
    if (m * (m - 1) // 2) % 2 == 1:
        rhs_m = -rhs_m
    return [scaled_rel_diff(ScaledComplex(*lhs), ScaledComplex(*rhs))
            for lhs, rhs in zip(zip(lhs_m, lhs_l), zip(rhs_m, rhs_l))], error


@dataclass
class CrossRatioResult:
    """Outcome of the curve-side vs theta-side cross-ratio comparison."""

    weight: int
    residual: float
    attempts: int


def gamma_cross_ratio_check(pd, weight: int, seed: int) -> CrossRatioResult:
    """Compare cardinal-basis cross-ratios against theta quotients, genus >= 2.

    Anchors and probes are sampled on the curve, mapped to the Jacobian,
    and the shift w is assembled from the anchor images and the Riemann
    constant of `jacobian.riemann_constant`.  Each draw makes one lattice
    sum, of theta(w) and, for every anchor pair, the four theta translates
    and four prime forms (odd translates) of its cross-ratio, in which
    every factor that depends on local trivializations or on the
    half-differential normalization cancels; rows beyond MAX_TERMS go in
    further consecutive sums.  Non-generic draws retry with a bumped seed.
    """
    from .jacobian import abel_map, riemann_constant

    curve = pd.curve
    g = curve.genus
    if g < 2:
        raise ValueError(f"the cross-ratio check needs genus >= 2, got {g}")
    n = differential_dimension(g, weight)
    delta = ThetaCharacteristic.first_odd(g)
    basis_n = holomorphic_basis(curve, weight)
    shift = (2 * weight - 1) * riemann_constant(pd)
    point = pd.tau
    step = max(1, MAX_TERMS // _cell_box_points(point))
    i, j = _pairs(n)
    last_error = None
    for attempt in range(CROSS_RATIO_ATTEMPTS):
        s = seed + 7919 * attempt
        pts = sample_points(curve, n + 2, s, mode="real")
        anchors = pts[:n]
        probes = pts[n:]
        try:
            gam = cardinal_basis(basis_n, anchors)
            imgs = np.array([img.vector for img in abel_map(pd, pts)])
            z1, z2, p_i, p_j = imgs[n], imgs[n + 1], imgs[i], imgs[j]
            w = imgs[:n].sum(axis=0) - shift
            # rows: theta(w), the four even translates of every pair, then
            # the four odd ones; in each four, two numerators, then two
            # denominators
            even = np.stack([w + z1 - p_i, w + z2 - p_j, w + z2 - p_i, w + z1 - p_j], axis=1)
            odd = np.stack([z1 - p_j, z2 - p_i, z1 - p_i, z2 - p_j], axis=1)
            tau, rows, facs = _fold(point, (np.vstack([w, even.reshape(-1, g)]), None),
                                    (odd.reshape(-1, g), delta))
            parts = [_theta_arrays(point, tau, rows[a:a + step], facs[a:a + step])
                     for a in range(0, len(rows), step)]
            mant, logs, _, peak = (np.concatenate(x) for x in zip(*parts))
            if abs(mant[0]) < THETA_FLOOR * peak[0]:
                raise ThetaNearZeroError("theta(w) below floor")
            gvals = gam.evaluate(probes)
            if np.min(np.abs(gvals)) < 1e-10 * np.max(np.abs(gvals)):
                raise ThetaNearZeroError("cardinal basis nearly vanishing at a probe")
            if np.any(np.abs(mant[1:]) < 1e-10 * peak[1:]):
                raise ThetaNearZeroError("cross-ratio factor too close to zero")
            mant, logs = (x.reshape(2, -1, 4) for x in _normalized(mant[1:], logs[1:]))
            theta_ratio = (np.prod(mant[..., :2], axis=(0, 2)) / np.prod(mant[..., 2:], axis=(0, 2))
                           * np.exp(np.sum(logs[..., :2], axis=(0, 2))
                                    - np.sum(logs[..., 2:], axis=(0, 2))))
            curve_ratio = (gvals[i, 0] * gvals[j, 1]) / (gvals[i, 1] * gvals[j, 0])
            dev = np.abs(curve_ratio - theta_ratio) / np.maximum(np.abs(curve_ratio),
                                                                 np.abs(theta_ratio))
            return CrossRatioResult(weight, float(np.max(dev)), attempt + 1)
        except (NonGenericAnchorsError, ThetaNearZeroError) as exc:
            last_error = exc
    raise ThetaNearZeroError(
        f"no usable configuration after {CROSS_RATIO_ATTEMPTS} attempts: {last_error}"
    )
