"""Theta functions with half-integer characteristics and their identities.

A characteristic is folded into the argument,
theta[a,b](z) = exp(i pi a.tau.a + 2 pi i a.(z + b)) theta(z + tau a + b),
so the engine sums over Z^g only and rows of different characteristics
share one sum.  Each row is translated into the fundamental cell by
quasi-periodicity; the prefactors are kept as a separate log scale so
nothing overflows.  Truncation follows Deconinck, Heil, Bobenko, van
Hoeij and Schmies (2004): terms outside the ellipsoid pi v.Y.v < R_e^2
around a row's centre sum to a certified fraction of its peak term, and
R_e does not depend on the argument.  The box half-widths R_e gives and
the split of Re tau into a reduced and an integer part depend on tau
alone, so both are computed once and kept on the `SiegelPoint`.  The sum
runs over the ellipsoid's bounding box, so a batch of arguments at one
tau shares a single lattice box.  Within it, term moduli come from one
real matmul and one real exp, and only the unit phases are factored: one
complex exp per lattice point, shared by every row, and two per row and
axis, so no complex exp runs per (row, point) term.  On top of the
engine: the Fay trisecant residual and the end-to-end cross-ratio
comparison between cardinal bases and theta quotients at genus 2 and up,
with the Riemann constant in closed form from `jacobian`.  Each hands
all its rows to one engine call, which splits them into consecutive
chunks only where MAX_TERMS demands it and returns one array-valued
`ScaledComplex`.  The cross-ratio check works on that value; the
trisecant reads its mantissa and log-scale arrays as one block of even
rows and one of odd rows per trial and forms no err or peak, reading
only theta(w)'s peak for the floor test.  The trisecant residual takes a
batch of T trials at one tau and gives one entry per trial, its residual
or the error that stopped it: T (3m^2 - m + 2) rows, then one stacked
O(m^3) scaled determinant over the trials that reach it; a single trial
is the batch of one.  The cross-ratio check sums, per draw, theta(w)
and eight rows per anchor pair.
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
from .jacobian import abel_map, riemann_constant
from .siegel import SiegelPoint

__all__ = [
    "TruncationError",
    "ThetaNearZeroError",
    "CoincidentPointsError",
    "ScaledComplex",
    "ThetaCharacteristic",
    "theta",
    "fay_residual",
    "CrossRatioResult",
    "gamma_cross_ratio_check",
]


class TruncationError(RuntimeError):
    """The lattice sum cannot meet the target error within the radius cap,
    or one row's box alone would exceed the term budget."""


class ThetaNearZeroError(RuntimeError):
    """A theta value required to be nonzero fell below its floor."""


class CoincidentPointsError(ValueError):
    """Jacobian points required distinct are closer than the separation floor."""


class ScaledComplex:
    """Complex values mantissa * exp(log_scale), element by element.

    `mantissa`, `log_scale`, `err` and `peak` share one shape: 0-d for one
    number, held as numpy scalars, whose * and abs round as Python's do, or
    a row axis for a stacked `theta` call, reshaped as its callers need.
    Arithmetic, `normalized` and indexing act element by element and
    broadcast.  `err` bounds the absolute error of the mantissa, inf
    where no bound is known; `peak` is the mantissa-scale magnitude of the
    largest series term, the yardstick of `below`.  Negation keeps both,
    and a plain factor c scales both by |c|.  For a = a.m + da with
    |da| <= a.err, and b alike, a * b has err
    |a.m| b.err + |b.m| a.err + a.err b.err and peak a.peak b.peak; a / b
    has err (|b.m| a.err + |a.m| b.err) / (|b.m| (|b.m| - b.err)),
    infinite once b.err reaches |b.m|, and peak a.peak / |b.m|.  An err
    or peak that overflows is inf, with no warning: an inf err is no bound.
    """

    __slots__ = ("mantissa", "log_scale", "err", "peak")

    def __init__(self, mantissa, log_scale=0.0, err=0.0, peak=1.0):
        m, s = np.asarray(mantissa, dtype=complex), np.asarray(log_scale, dtype=float)
        e, p = np.asarray(err, dtype=float), np.asarray(peak, dtype=float)
        # np.broadcast_arrays costs several times the rest of the call
        if not m.shape == s.shape == e.shape == p.shape:
            m, s, e, p = np.broadcast_arrays(m, s, e, p)
        self.mantissa, self.log_scale, self.err, self.peak = m[()], s[()], e[()], p[()]

    @classmethod
    def concatenate(cls, values) -> "ScaledComplex":
        return cls(*(np.concatenate([getattr(v, n) for v in values]) for n in cls.__slots__))

    @property
    def value(self):
        return self.mantissa * np.exp(self.log_scale)

    def __getitem__(self, index) -> "ScaledComplex":
        return ScaledComplex(self.mantissa[index], self.log_scale[index],
                             self.err[index], self.peak[index])

    def reshape(self, *shape) -> "ScaledComplex":
        return ScaledComplex(self.mantissa.reshape(shape), self.log_scale.reshape(shape),
                             self.err.reshape(shape), self.peak.reshape(shape))

    def below(self, floor: float):
        """Where |mantissa| < floor * peak."""
        return np.abs(self.mantissa) < floor * self.peak

    def normalized(self) -> "ScaledComplex":
        """Unit mantissas, moduli moved into the log scales; zeros stay zero."""
        mant, logs, mod = _normalize(self.mantissa, self.log_scale)
        with np.errstate(over="ignore"):
            err, peak = self.err / mod, self.peak / mod
        return ScaledComplex(mant, logs, err, peak)

    def prod(self, axis) -> "ScaledComplex":
        """Product along axis, with the err and peak that repeated `*` gives."""
        mod = np.abs(self.mantissa)
        with np.errstate(over="ignore"):
            err = (mod + self.err).prod(axis=axis) - mod.prod(axis=axis)
            peak = self.peak.prod(axis=axis)
        return ScaledComplex(self.mantissa.prod(axis=axis), self.log_scale.sum(axis=axis),
                             err, peak)

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            with np.errstate(over="ignore"):
                err = (np.abs(self.mantissa) * other.err + np.abs(other.mantissa) * self.err
                       + self.err * other.err)
                peak = self.peak * other.peak
            return ScaledComplex(self.mantissa * other.mantissa,
                                 self.log_scale + other.log_scale, err, peak)
        c = np.abs(other)
        with np.errstate(over="ignore"):
            err, peak = self.err * c, self.peak * c
        return ScaledComplex(self.mantissa * other, self.log_scale, err, peak)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledComplex):
            if np.any(other.mantissa == 0):
                raise ZeroDivisionError("division by an exactly zero scaled value")
            b = np.abs(other.mantissa)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                err = np.where(other.err < b, (b * self.err + np.abs(self.mantissa) * other.err)
                               / (b * (b - other.err)), math.inf)
                peak = self.peak / b
            return ScaledComplex(self.mantissa / other.mantissa,
                                 self.log_scale - other.log_scale, err, peak)
        c = np.abs(other)
        with np.errstate(over="ignore"):
            err, peak = self.err / c, self.peak / c
        return ScaledComplex(self.mantissa / other, self.log_scale, err, peak)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.log_scale, self.err, self.peak)


def _normalize(mant, logs):
    """(mant / mod, logs + log(mod), mod), mod = |mant| or 1 where mant is 0:
    unit mantissas, moduli moved into the log scales; zeros stay zero."""
    mod = np.where(mant == 0, 1.0, np.abs(mant))
    return mant / mod, logs + np.log(mod), mod


def scaled_rel_diff(a: ScaledComplex, b: ScaledComplex):
    """|a - b| / max(|a|, |b|) per element, evaluated at a shared scale.

    A 0-d pair gives a float, stacks an array of their broadcast shape.
    """
    diff = _rel_diff(a.mantissa, a.log_scale, b.mantissa, b.log_scale)
    return float(diff) if diff.ndim == 0 else diff


def _rel_diff(a_mant, a_log, b_mant, b_log) -> np.ndarray:
    """`scaled_rel_diff` of a = a_mant exp(a_log) and b = b_mant exp(b_log),
    as an array of their broadcast shape.

    Each element is computed in Python scalars from `.tolist()`: numpy's
    complex abs and division can differ from Python's in the last bit.
    """
    fields = np.broadcast_arrays(a_mant, a_log, b_mant, b_log)
    out = []
    for am, al, bm, bl in zip(*(x.ravel().tolist() for x in fields)):
        # unit mantissas, moduli moved into the log scales; a zero side is -inf
        sides = [(x / abs(x), log + float(np.log(abs(x)))) if x != 0 else (0.0, -math.inf)
                 for x, log in ((am, al), (bm, bl))]
        top = max(log for _, log in sides)
        av, bv = (x * np.exp(log - top) if x != 0 else 0.0 for x, log in sides)
        out.append(0.0 if am == 0 and bm == 0 else float(abs(av - bv) / max(abs(av), abs(bv))))
    return np.reshape(out, fields[0].shape)


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
    def from_bits(cls, ia: int, ib: int, g: int) -> "ThetaCharacteristic":
        if not (0 <= ia < 1 << g and 0 <= ib < 1 << g):
            raise ValueError(f"characteristic bits ({ia}, {ib}) outside [0, {1 << g}) at g = {g}")
        a = np.array([(ia >> i) & 1 for i in range(g)], dtype=float) / 2
        b = np.array([(ib >> i) & 1 for i in range(g)], dtype=float) / 2
        return cls(a, b)

    @classmethod
    def first_odd(cls, g: int) -> "ThetaCharacteristic":
        """The first odd characteristic in the order of ascending a-bits, then
        b-bits: every a-bits 0 is even, and at a-bits 1 the b-bits 1 is the
        first odd one."""
        return cls.from_bits(1, 1, g)

    def __repr__(self):
        return f"ThetaCharacteristic(a={self.a.tolist()}, b={self.b.tolist()})"


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


def _box_half_widths(point: SiegelPoint):
    """(half-widths h, bound): the box |n_k + c0_k| <= h_k around a row's
    centre -c0 holds its ellipsoid pi (n + c0).Y.(n + c0) < R_e^2, and the
    terms outside that sum to at most bound times the peak term.

    On that ellipsoid (n + c0)_k reaches at most (R_e / sqrt(pi))
    sqrt((Y^-1)_kk), by Cauchy-Schwarz in the Y inner product; h_k is that,
    or 1 where that is smaller.  None of this depends on the argument z,
    so the point computes it once and keeps it (`SiegelPoint.theta_truncation`).
    Raises TruncationError where the widest h_k exceeds RADIUS_CAP.
    """
    radius, bound = _ellipsoid_radius(point.g, point.lambda_min)
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
    v = v - mvec @ tau.T
    nvec = np.rint(v.real)
    return v - nvec, mvec, nvec


def _fold(point: SiegelPoint, *groups):
    """(rows w, log factors L) with theta[a,b](z) = exp(L) theta(w).

    Each group is (zs, char), char a ThetaCharacteristic or None.  By
    theta[a,b](z) = exp(i pi a.tau.a + 2 pi i a.(z + b)) theta(z + tau a + b),
    w is z + tau a + b up to a lattice vector, so one lattice sum over Z^g
    at the returned rows, in group order, serves every characteristic.
    """
    g = point.g
    tau, s = point.real_split
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
    return np.concatenate(rows), np.concatenate(logs)


_LOG_TINY = math.log(np.finfo(float).tiny)


def _theta_arrays(point: SiegelPoint, zs: np.ndarray, log_fac: np.ndarray):
    """exp(log_fac) theta(z) at every row of zs, by one lattice sum over Z^g,
    summed at the point's real-reduced matrix (`SiegelPoint.real_split`).

    Where rows times box points exceed MAX_TERMS, consecutive chunks of
    MAX_TERMS // box rows (at least one) are summed each in its own box;
    only a row whose box alone is over the budget raises TruncationError,
    before any lattice is built.

    Returns one ScaledComplex with an entry per row.
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
    tau = point.real_split[0]
    half, bound = point.theta_truncation
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
    box = math.prod(sizes)
    if rows * box > MAX_TERMS:
        if rows == 1:
            raise TruncationError(f"one row's lattice sum needs {box} terms > budget {MAX_TERMS}")
        step = max(1, MAX_TERMS // box)
        return ScaledComplex.concatenate([
            _theta_arrays(point, zs[a:a + step], log_fac[a:a + step])
            for a in range(0, rows, step)])
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
    return ScaledComplex(mant, mx + pref.real, peak_mant * bound, peak_mant)


def theta(z, tau, char: ThetaCharacteristic | None = None):
    """Theta series with characteristic at z, by one lattice sum.

    Returns one ScaledComplex: 0-d for z of shape (g,), and with one entry
    per row for a stack of rows (n, g).  The characteristic is folded
    into the argument (see `_fold`), then each row is translated into the
    fundamental cell; both prefactors go into its log scale and phase.
    The truncation ellipsoid does not depend on z, so one lattice box, the
    union of the per-row boxes, serves every row: the neglected tail of
    each row is below THETA_EPS relative to its peak term, and that
    certified bound is stored in `err`.  A batch over MAX_TERMS is summed
    in chunks as `_theta_arrays` describes.
    """
    point = _siegel(tau)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if zs.ndim > 2 or zs.shape[-1] != point.g:
        raise ValueError(f"arguments are not rows of length {point.g}: shape {zs.shape}")
    vals = _theta_arrays(point, *_fold(point, (zs, char)))
    return vals if zs.ndim == 2 else vals[0]


@functools.cache
def _pairs(n: int):
    """Read-only index arrays (i, j) of the pairs i < j below n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _separation(points, point: SiegelPoint):
    """One entry per point set of points (T, n, g): the CoincidentPointsError
    of its first two points closer than MIN_SEPARATION modulo the lattice,
    or None when the set is separated."""
    n, g = points.shape[1:]
    i, j = _pairs(n)
    r, _, _ = _reduce(point, (points[:, i] - points[:, j]).reshape(-1, g))
    close = np.max(np.abs(r), axis=1).reshape(len(points), -1) < MIN_SEPARATION
    out = [None] * len(points)
    for t in np.flatnonzero(close.any(axis=1)):
        k = np.argmax(close[t])
        out[t] = CoincidentPointsError(
            f"points {i[k]} and {j[k]} are within {MIN_SEPARATION} on the Jacobian")
    return out


def _det_arrays(mant, logs):
    """(mantissas, log scales) of the determinants of the (..., m, m)
    entries mant exp(logs), one per matrix of a stack, by pivoted
    elimination in one `linalg.det` call; no error bound is carried.

    After normalizing each entry, every row, then every column, is brought
    to the scale of its largest entry, so the mantissa matrix handed to
    `linalg.det` has entries of modulus at most one; the row and column
    scales return as the log scale.
    """
    mant, logs, _ = _normalize(mant, logs)
    logs = np.where(mant == 0, -np.inf, logs)
    row_top = np.max(logs, axis=-1, keepdims=True)
    row_top[~np.isfinite(row_top)] = 0.0
    col_top = np.max(logs - row_top, axis=-2, keepdims=True)
    col_top[~np.isfinite(col_top)] = 0.0
    scaled = mant * np.exp(logs - row_top - col_top)
    return linalg.det(scaled), np.sum(row_top, axis=(-2, -1)) + np.sum(col_top, axis=(-2, -1))


THETA_FLOOR = 1e-8
# Jacobian points closer than this, modulo the lattice, count as coincident
MIN_SEPARATION = 1e-4
# draws gamma_cross_ratio_check makes before it gives up
CROSS_RATIO_ATTEMPTS = 6


def fay_residual(w, xs, ys, tau, delta: ThetaCharacteristic):
    """Relative deviation between the two sides of the trisecant identity,
    for T trials at one tau.

    w has shape (T, g) and xs, ys have shape (T, m, g), with m >= 2 and g
    the genus of tau; any other shapes raise ValueError.  The result has
    one entry per trial, in trial order: its residual, or the
    CoincidentPointsError, ThetaNearZeroError or ZeroDivisionError that
    stopped it.  Both sides are formed from theta translates and reduced
    prime forms in scaled arithmetic, on the mantissa and log-scale arrays
    of one lattice sum; the half-differential normalizations cancel
    between the two sides, so the reduced form suffices.  The batch makes
    one separation test, one `_theta_arrays` call on the 3m^2 - m + 2 rows
    of each separated trial, and one stacked determinant.
    """
    point = _siegel(tau)
    w = np.asarray(w, dtype=complex)
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if (w.ndim != 2 or xs.ndim != 3 or xs.shape != ys.shape or xs.shape[::2] != w.shape
            or w.shape[1] != point.g or xs.shape[1] < 2):
        raise ValueError(f"need w of shape (T, g) and xs, ys of shape (T, m, g) with m >= 2 "
                         f"at g = {point.g}; got w {w.shape}, xs {xs.shape}, ys {ys.shape}")
    if not delta.is_odd:
        raise ValueError("the prime-form characteristic must be odd")
    out = _separation(np.concatenate([xs, ys], axis=1), point)
    ok = [t for t, err in enumerate(out) if err is None]
    if ok:
        for t, r in zip(ok, _fay_trials(point, w[ok], xs[ok], ys[ok], delta)):
            out[t] = r
    return out


def _fay_trials(point: SiegelPoint, w, xs, ys, delta):
    """fay_residual's entries for trials at separated points, from one
    lattice sum, whose mantissas and log scales are read as per-trial
    blocks; err and peak are not formed, and only theta(w)'s peak is read."""
    trials, m, g = xs.shape
    # Per trial, 3m^2 - m + 2 rows: theta(w), the shifted
    # theta(w + sum x - sum y) and the m^2 matrix numerators
    # theta(w + x_i - y_j), then the odd translates: the m^2 prime forms
    # E(x_i, y_j), and E(x_i, x_j), E(y_i, y_j) for i < j.
    k = m * m
    iu, ju = _pairs(m)
    cross = (xs[:, :, None, :] - ys[:, None, :, :]).reshape(trials, k, g)
    shift = w + xs.sum(axis=1) - ys.sum(axis=1)
    vals = _theta_arrays(point, *_fold(
        point, (np.concatenate([w[:, None], shift[:, None], w[:, None] + cross], axis=1), None),
        (np.concatenate([cross, xs[:, iu] - xs[:, ju], ys[:, iu] - ys[:, ju]], axis=1), delta)))
    # all trials' k + 2 even rows come first, then their 2k - m odd ones
    n_even = trials * (k + 2)
    (even_m, odd_m), (even_l, odd_l) = (
        (a[:n_even].reshape(trials, -1), a[n_even:].reshape(trials, -1))
        for a in (vals.mantissa, vals.log_scale))
    # a trial with theta(w) below the floor, or an exactly zero prime form,
    # which the stacked division would refuse for every trial, is left out
    low = np.abs(even_m[:, 0]) < THETA_FLOOR * vals.peak[:n_even:k + 2]
    zero = np.any(odd_m[:, :k] == 0, axis=1)
    out = [ThetaNearZeroError("theta(w) is below the nonvanishing floor") if lo
           else ZeroDivisionError("a prime form E(x_i, y_j) is exactly zero") if z
           else None for lo, z in zip(low, zero)]
    good = np.flatnonzero(~(low | zero))
    even_m, odd_m, even_l, odd_l = even_m[good], odd_m[good], even_l[good], odd_l[good]

    # lhs: theta(shift) prod_{i<j} E(x_i, x_j) E(y_i, y_j) over
    # theta(w) prod_{i,j} E(x_i, y_j); rhs: det theta(w + x_i - y_j) /
    # (theta(w) E(x_i, y_j))
    top_m, top_l, _ = _normalize(np.hstack([even_m[:, 1:2], odd_m[:, k:]]),
                                 np.hstack([even_l[:, 1:2], odd_l[:, k:]]))
    bot_m, bot_l, _ = _normalize(np.hstack([even_m[:, :1], odd_m[:, :k]]),
                                 np.hstack([even_l[:, :1], odd_l[:, :k]]))
    bot_m = bot_m.prod(axis=1)
    den = even_m[:, :1] * odd_m[:, :k]
    # a zero left after the floor and prime-form tests, from an underflowed
    # product, refuses the whole batch, as a stacked division does
    if np.any(bot_m == 0) or np.any(den == 0):
        raise ZeroDivisionError("division by an exactly zero scaled value")
    rhs_m, rhs_l = _det_arrays((even_m[:, 2:] / den).reshape(-1, m, m),
                               (even_l[:, 2:] - (even_l[:, :1] + odd_l[:, :k])).reshape(-1, m, m))
    if (m * (m - 1) // 2) % 2 == 1:
        rhs_m = -rhs_m
    diff = _rel_diff(top_m.prod(axis=1) / bot_m, top_l.sum(axis=1) - bot_l.sum(axis=1),
                     rhs_m, rhs_l)
    for t, r in zip(good, diff.tolist()):
        out[t] = r
    return out


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
    constant of `jacobian.riemann_constant`.  Each draw makes one
    `_theta_arrays` call, on theta(w) and, for every anchor pair, the four
    theta translates and four prime forms (odd translates) of its
    cross-ratio, in which every factor that depends on local
    trivializations or on the half-differential normalization cancels.
    Non-generic draws retry with a bumped seed.  Only weight 2 certifies
    the Riemann constant K: on the bundled genus-2 curve at seed 20260818,
    weight 1 passes 6 of the 15 shifts K + h by a nonzero half-period h at
    residuals <= 2.1e-14, while weight 2 fails all 15 at 0.48 or more.
    """
    curve = pd.curve
    g = curve.genus
    if g < 2:
        raise ValueError(f"the cross-ratio check needs genus >= 2, got {g}")
    n = differential_dimension(g, weight)
    delta = ThetaCharacteristic.first_odd(g)
    basis_n = holomorphic_basis(curve, weight)
    shift = (2 * weight - 1) * riemann_constant(pd)
    i, j = _pairs(n)
    last_error = None
    for attempt in range(CROSS_RATIO_ATTEMPTS):
        pts = sample_points(curve, n + 2, seed + 7919 * attempt, mode="real")
        try:
            gam = cardinal_basis(basis_n, pts[:n])
            imgs = abel_map(pd, pts)[0]
            z1, z2, p_i, p_j = imgs[n], imgs[n + 1], imgs[i], imgs[j]
            w = imgs[:n].sum(axis=0) - shift
            # rows: theta(w), the four even translates of every pair, then
            # the four odd ones; in each four, two numerators, then two
            # denominators
            even = np.stack([w + z1 - p_i, w + z2 - p_j, w + z2 - p_i, w + z1 - p_j], axis=1)
            odd = np.stack([z1 - p_j, z2 - p_i, z1 - p_i, z2 - p_j], axis=1)
            vals = _theta_arrays(pd.tau, *_fold(
                pd.tau, (np.vstack([w, even.reshape(-1, g)]), None), (odd.reshape(-1, g), delta)))
            if vals[0].below(THETA_FLOOR):
                raise ThetaNearZeroError("theta(w) below floor")
            gvals = gam.evaluate(pts[n:])
            if np.min(np.abs(gvals)) < 1e-10 * np.max(np.abs(gvals)):
                raise ThetaNearZeroError("cardinal basis nearly vanishing at a probe")
            if np.any(vals[1:].below(1e-10)):
                raise ThetaNearZeroError("cross-ratio factor too close to zero")
            factors = vals[1:].normalized().reshape(2, -1, 4)
            theta_ratio = (factors[..., :2].prod(axis=(0, 2))
                           / factors[..., 2:].prod(axis=(0, 2))).value
            curve_ratio = (gvals[i, 0] * gvals[j, 1]) / (gvals[i, 1] * gvals[j, 0])
            dev = np.abs(curve_ratio - theta_ratio) / np.maximum(np.abs(curve_ratio),
                                                                 np.abs(theta_ratio))
            return CrossRatioResult(weight, float(np.max(dev)), attempt + 1)
        except (NonGenericAnchorsError, ThetaNearZeroError) as exc:
            last_error = exc
    raise ThetaNearZeroError(
        f"no usable configuration after {CROSS_RATIO_ATTEMPTS} attempts: {last_error}")
