"""Theta functions with half-integer characteristics and their identities.

The series is evaluated after translating the argument into the
fundamental cell by quasi-periodicity; the translation prefactor is kept
as a separate log scale so nothing overflows.  Truncation radii come
from a certified Gaussian tail bound that does not depend on the
argument, so a batch of arguments at one tau shares a single lattice
sum.  On top of the engine: the reduced prime form, the brute-force
search for the Riemann-constant half-period, the Fay trisecant residual
with an O(m^3) scaled determinant, and the end-to-end cross-ratio
comparison between cardinal bases and theta quotients on a genus-2
Jacobian.
"""

from __future__ import annotations

import itertools
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
    "AmbiguousConstantsError",
    "ScaledComplex",
    "ThetaCharacteristic",
    "ThetaEvalConfig",
    "theta",
    "theta_batch",
    "theta_value",
    "scaled_det",
    "reduced_prime_form",
    "odd_characteristics",
    "fay_residual",
    "RiemannConstants",
    "find_riemann_constants",
    "theta_side_cross_ratio",
    "CrossRatioResult",
    "gamma_cross_ratio_check",
]


class TruncationError(RuntimeError):
    """The lattice sum cannot meet the target error within the radius cap,
    or would exceed the configured term budget."""


class ThetaNearZeroError(RuntimeError):
    """A theta value required to be nonzero fell below its floor."""


class CoincidentPointsError(ValueError):
    """Jacobian points required distinct are closer than the separation floor."""


class AmbiguousConstantsError(RuntimeError):
    """The half-period search found no clearly separated minimizer."""


class ScaledComplex:
    """Complex value stored as mantissa * exp(log_scale).

    `err` bounds the absolute error of the mantissa; `peak` records the
    mantissa-scale magnitude of the largest series term, the natural
    yardstick for is-this-zero tests.
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

    def abs_log(self) -> float:
        if self.mantissa == 0:
            return -np.inf
        return float(np.log(abs(self.mantissa)) + self.log_scale)

    def normalized(self) -> "ScaledComplex":
        m = abs(self.mantissa)
        if m == 0:
            return ScaledComplex(0.0, 0.0, self.err, self.peak)
        shift = float(np.log(m))
        return ScaledComplex(self.mantissa / m, self.log_scale + shift,
                             self.err / m, self.peak / m)

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            return ScaledComplex(self.mantissa * other.mantissa,
                                 self.log_scale + other.log_scale)
        return ScaledComplex(self.mantissa * other, self.log_scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledComplex):
            if other.mantissa == 0:
                raise ZeroDivisionError("division by an exactly zero scaled value")
            return ScaledComplex(self.mantissa / other.mantissa,
                                 self.log_scale - other.log_scale)
        return ScaledComplex(self.mantissa / other, self.log_scale)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.log_scale)

    def __repr__(self):
        return f"ScaledComplex({self.mantissa!r}, log_scale={self.log_scale:.6g})"

    @staticmethod
    def sum(items) -> "ScaledComplex":
        items = [it.normalized() for it in items]
        finite = [it for it in items if it.mantissa != 0]
        if not finite:
            return ScaledComplex(0.0)
        top = max(it.log_scale for it in finite)
        acc = sum(it.mantissa * np.exp(it.log_scale - top) for it in finite)
        return ScaledComplex(acc, top)


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
        return odd_characteristics(g, 1)[0]

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


@dataclass(frozen=True)
class ThetaEvalConfig:
    """Truncation policy: target error relative to the peak term, radius cap,
    and a budget on lattice points times batch rows summed in one call.
    """

    eps: float = 1e-13
    radius_cap: float = 40.0
    max_terms: int = 1 << 22

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


DEFAULT_CFG = ThetaEvalConfig()


def _siegel(tau) -> SiegelPoint:
    """tau as a SiegelPoint: passed through, or validated from a matrix or a g=1 scalar."""
    if isinstance(tau, SiegelPoint):
        return tau
    mat = np.asarray(tau, dtype=complex)
    return SiegelPoint(mat.reshape(1, 1) if mat.ndim == 0 else mat)


def _truncation(point: SiegelPoint, cfg: ThetaEvalConfig):
    """(radius, mu, log of the lattice-sum factor) meeting cfg.eps.

    Terms outside the radius-R box around the peak are bounded by
    exp(-mu R^2) times the peak term times exp(log_tb); none of this
    depends on the argument z.
    """
    lam = point.lambda_min
    if not lam > 0:
        # Y passed the pivot test but its computed spectrum reaches zero
        raise TruncationError(f"smallest eigenvalue of Im tau is {lam:.3e}; no tail bound")
    mu4 = np.pi * lam / 8.0
    total, j = 0.0, 0
    while True:
        term = np.exp(-mu4 * j * j)
        total += term
        j += 1
        if term < 1e-18 or j > 100000:
            break
    mu = np.pi * lam / 2.0
    log_tb = point.g * np.log(2.0 * total)
    radius = np.sqrt(max((log_tb - np.log(cfg.eps)) / mu, 0.0))
    radius = max(radius, 3.0)
    if radius > cfg.radius_cap:
        achieved = np.exp(-mu * cfg.radius_cap**2 + log_tb)
        raise TruncationError(
            f"needs radius {radius:.1f} > cap {cfg.radius_cap:.1f}; "
            f"best relative bound at the cap is {achieved:.3e}"
        )
    return radius, mu, log_tb


def _reduce(point: SiegelPoint, v: np.ndarray):
    """Rows v = tau m + n + r with integer rows m, n and small remainders r."""
    mvec = np.rint(v.imag @ point.y_inv.T)
    nvec = np.rint((v - mvec @ point.z.T).real)
    return v - mvec @ point.z.T - nvec, mvec, nvec


def theta_batch(zs, tau, char: ThetaCharacteristic | None = None,
                cfg: ThetaEvalConfig | None = None) -> list[ScaledComplex]:
    """Theta series with characteristic at every row of zs, one lattice sum.

    Each row is first translated into the fundamental cell; the
    quasi-periodicity prefactor goes into its log scale.  The truncation
    radius does not depend on z, so one lattice box, the union of the
    per-row boxes, serves every row: the neglected tail of each row is
    below cfg.eps relative to its largest term, and that certified bound
    is stored in `err`.  Raises TruncationError before allocating when
    lattice points times rows would exceed cfg.max_terms.
    """
    point = _siegel(tau)
    cfg = cfg or DEFAULT_CFG
    g = point.g
    zs = np.asarray(zs, dtype=complex)
    if zs.size % g:
        raise ValueError(f"arguments do not split into rows of length {g}")
    zs = zs.reshape(-1, g)
    if char is None:
        char = ThetaCharacteristic.zero(g)
    if char.g != g:
        raise ValueError(f"characteristic has length {char.g}, expected {g}")
    a, b = char.a, char.b

    z0, mvec, nvec = _reduce(point, zs)
    pref = (-1j * np.pi * np.einsum("bi,ij,bj->b", mvec, point.z, mvec)
            - 2j * np.pi * np.sum(mvec * (z0 + nvec + b), axis=1)
            + 2j * np.pi * (nvec @ a))
    y0 = z0.imag
    c0 = y0 @ point.y_inv.T
    peak_log = np.pi * np.sum(y0 * c0, axis=1)
    radius, mu, log_tb = _truncation(point, cfg)

    center = -a - c0
    lo = np.ceil(np.min(center, axis=0) - radius).astype(int)
    hi = np.floor(np.max(center, axis=0) + radius).astype(int)
    terms = len(zs) * math.prod(int(n) for n in hi - lo + 1)
    if terms > cfg.max_terms:
        raise TruncationError(
            f"lattice sum needs {terms} terms (points x rows) > budget {cfg.max_terms}"
        )
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(g)]
    mesh = np.meshgrid(*axes, indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=1).astype(float) + a
    quad = 1j * np.pi * np.einsum("ij,jk,ik->i", u, point.z, u)
    w = quad[:, None] + 2j * np.pi * (u @ (z0 + b).T)
    mx = np.max(w.real, axis=0)
    mant = np.sum(np.exp(w - mx), axis=0) * np.exp(1j * pref.imag)
    peak_mant = np.exp(peak_log - mx)
    tail = peak_mant * np.exp(-mu * radius**2 + log_tb)
    return [ScaledComplex(mk, sk, err=ek, peak=pk)
            for mk, sk, ek, pk in zip(mant, mx + pref.real, tail, peak_mant)]


def theta(z, tau, char: ThetaCharacteristic | None = None,
          cfg: ThetaEvalConfig | None = None) -> ScaledComplex:
    """Theta series with characteristic at one argument z; see theta_batch."""
    point = _siegel(tau)
    z = np.asarray(z, dtype=complex).reshape(point.g)
    return theta_batch(z[None, :], point, char, cfg)[0]


def theta_value(z, tau, char=None, cfg=None) -> complex:
    """Plain complex theta value; only safe at moderate scales."""
    return theta(z, tau, char, cfg).value


def reduced_prime_form(u, v, tau, delta: ThetaCharacteristic,
                       cfg=None) -> ScaledComplex:
    """Odd theta translate theta[delta](u - v); antisymmetric in (u, v)."""
    if not delta.is_odd:
        raise ValueError("the prime-form characteristic must be odd")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return theta(u - v, tau, delta, cfg)


def lattice_reduce_tau(v, tau):
    """Split v = tau m + n + r with integer m, n and a small remainder r."""
    point = _siegel(tau)
    v = np.asarray(v, dtype=complex).reshape(1, point.g)
    r, mvec, nvec = _reduce(point, v)
    return r[0], mvec[0], nvec[0]


def _check_separation(points, point: SiegelPoint, min_sep):
    pts = np.asarray(points, dtype=complex)
    i, j = np.triu_indices(len(pts), 1)
    r, _, _ = _reduce(point, pts[i] - pts[j])
    close = np.flatnonzero(np.max(np.abs(r), axis=1) < min_sep)
    if len(close):
        k = close[0]
        raise CoincidentPointsError(
            f"points {i[k]} and {j[k]} are within {min_sep} on the Jacobian"
        )


def scaled_det(entries) -> ScaledComplex:
    """Determinant of a square matrix of scaled entries, by pivoted elimination.

    Every row, then every column, is brought to the scale of its largest
    entry, so the mantissa matrix handed to `linalg.det` has entries of
    modulus at most one; the row and column scales return as a log scale.
    """
    rows = [[e.normalized() for e in row] for row in entries]
    mant = np.array([[e.mantissa for e in row] for row in rows], dtype=complex)
    logs = np.array([[e.log_scale for e in row] for row in rows])
    logs[mant == 0] = -np.inf
    row_top = np.max(logs, axis=1, keepdims=True)
    row_top[~np.isfinite(row_top)] = 0.0
    col_top = np.max(logs - row_top, axis=0, keepdims=True)
    col_top[~np.isfinite(col_top)] = 0.0
    scaled = mant * np.exp(logs - row_top - col_top)
    return ScaledComplex(linalg.det(scaled), float(np.sum(row_top) + np.sum(col_top)))


def _scaled_prod(items) -> ScaledComplex:
    """Product of scaled values with every factor normalized first."""
    items = [it.normalized() for it in items]
    return ScaledComplex(np.prod([it.mantissa for it in items]),
                         sum(it.log_scale for it in items))


THETA_FLOOR = 1e-8


def fay_residual(w, xs, ys, tau, delta: ThetaCharacteristic,
                 cfg=None, *, min_sep: float = 1e-4) -> float:
    """Relative deviation between the two sides of the trisecant identity.

    Both sides are formed from theta translates and reduced prime forms
    in scaled arithmetic; the half-differential normalizations cancel
    between the two sides, so the reduced form suffices.
    """
    m = len(xs)
    if m < 2 or len(ys) != m:
        raise ValueError("need m >= 2 points on each side")
    if not delta.is_odd:
        raise ValueError("the prime-form characteristic must be odd")
    point = _siegel(tau)
    g = point.g
    w = np.asarray(w, dtype=complex).reshape(g)
    xs = np.array([np.asarray(x, dtype=complex).reshape(g) for x in xs])
    ys = np.array([np.asarray(y, dtype=complex).reshape(g) for y in ys])
    _check_separation(np.concatenate([xs, ys]), point, min_sep)
    tw = theta(w, point, cfg=cfg)
    if abs(tw.mantissa) < THETA_FLOOR * tw.peak:
        raise ThetaNearZeroError("theta(w) is below the nonvanishing floor")

    # One odd batch: the m^2 prime forms E(x_i, y_j), then E(x_i, x_j) and
    # E(y_i, y_j) for i < j.  One even batch: the shifted theta(w + sum x -
    # sum y), then the m^2 matrix numerators theta(w + x_i - y_j).
    iu, ju = np.triu_indices(m, 1)
    cross = (xs[:, None, :] - ys[None, :, :]).reshape(m * m, g)
    odd = theta_batch(np.concatenate([cross, xs[iu] - xs[ju], ys[iu] - ys[ju]]),
                      point, delta, cfg)
    shift = w + xs.sum(axis=0) - ys.sum(axis=0)
    even = theta_batch(np.concatenate([shift[None, :], w + cross]), point, cfg=cfg)
    exy = odd[:m * m]

    lhs = _scaled_prod([even[0]] + odd[m * m:]) / _scaled_prod([tw] + exy)
    entries = [[even[1 + i * m + j] / (tw * exy[i * m + j]) for j in range(m)]
               for i in range(m)]
    rhs = scaled_det(entries)
    if (m * (m - 1) // 2) % 2 == 1:
        rhs = -rhs
    return scaled_rel_diff(lhs, rhs)


@dataclass
class RiemannConstants:
    """Certified half-period minimizing theta over the probe images."""

    vector: np.ndarray
    a_half: np.ndarray
    b_half: np.ndarray
    score: float
    runner_up: float


def find_riemann_constants(tau, probe_images, cfg=None, *,
                           vanish_tol: float = 1e-6,
                           separation: float = 1e-2) -> RiemannConstants:
    """Brute-force search over all 4^g half-periods.

    Scores each candidate h by the worst normalized theta magnitude over
    the probe images; certifies the winner is below `vanish_tol` and the
    runner-up above `separation`.
    """
    point = _siegel(tau)
    g = point.g
    probes = np.array([np.asarray(p, dtype=complex).reshape(g) for p in probe_images])
    if len(probes) < 2 * g:
        raise ValueError(f"need at least {2 * g} probe images, got {len(probes)}")
    chars = [ThetaCharacteristic.from_bits(ia, ib, g)
             for ia in range(2**g) for ib in range(2**g)]
    hs = np.array([point.z @ ch.a + ch.b for ch in chars])
    diffs = probes[None, :, :] - hs[:, None, :]
    vals = theta_batch(diffs.reshape(-1, g), point, cfg=cfg)
    ratio = np.array([abs(v.mantissa) / v.peak for v in vals])
    worst = np.max(ratio.reshape(len(chars), len(probes)), axis=1)
    best, second = np.argsort(worst, kind="stable")[:2]
    if worst[best] > vanish_tol or worst[second] < separation:
        raise AmbiguousConstantsError(
            f"no separated minimizer: best {worst[best]:.3e}, "
            f"runner-up {worst[second]:.3e}"
        )
    return RiemannConstants(hs[best], chars[best].a, chars[best].b,
                            float(worst[best]), float(worst[second]))


def theta_side_cross_ratio(w, z1, z2, pi_img, pj_img, tau,
                           delta: ThetaCharacteristic, cfg=None) -> complex:
    """Cross-ratio of theta translates and prime forms at two probes.

    Every factor that depends on local trivializations or on the
    half-differential normalization cancels in this combination.
    """
    if not delta.is_odd:
        raise ValueError("the prime-form characteristic must be odd")
    point = _siegel(tau)
    w = np.asarray(w, dtype=complex)
    ev = theta_batch([w + z1 - pi_img, w + z2 - pj_img, w + z2 - pi_img, w + z1 - pj_img],
                     point, cfg=cfg)
    od = theta_batch([z1 - pj_img, z2 - pi_img, z1 - pi_img, z2 - pj_img],
                     point, delta, cfg)
    for f in ev + od:
        if abs(f.mantissa) < 1e-10 * f.peak:
            raise ThetaNearZeroError("cross-ratio factor too close to zero")
    return (_scaled_prod(ev[:2] + od[:2]) / _scaled_prod(ev[2:] + od[2:])).value


@dataclass
class CrossRatioResult:
    """Outcome of the curve-side vs theta-side cross-ratio comparison."""

    weight: int
    residual: float
    attempts: int
    constants: RiemannConstants


def gamma_cross_ratio_check(pd, weight: int, seed: int,
                            cfg=None, retries: int = 6) -> CrossRatioResult:
    """Compare cardinal-basis cross-ratios against theta quotients, genus 2.

    Anchors and probes are sampled on the curve, mapped to the Jacobian,
    and the shift w is assembled from the anchor images and the certified
    Riemann-constant half-period.  Non-generic draws retry with a bumped
    seed.
    """
    from .jacobian import abel_map

    curve = pd.curve
    if curve.genus != 2:
        raise ValueError("the cross-ratio check runs on genus-2 models")
    n = differential_dimension(2, weight)
    delta = ThetaCharacteristic.first_odd(2)
    basis_n = holomorphic_basis(curve, weight)
    last_error = None
    for attempt in range(retries):
        s = seed + 7919 * attempt
        pts = sample_points(curve, n + 6, s, mode="real")
        anchors = pts[:n]
        probes = pts[n:n + 2]
        vrc_pts = pts[n + 2:]
        try:
            gam = cardinal_basis(basis_n, anchors)
            anchor_imgs = [abel_map(pd, p).vector for p in anchors]
            probe_imgs = [abel_map(pd, p).vector for p in probes]
            vrc_imgs = [abel_map(pd, p).vector for p in vrc_pts]
            constants = find_riemann_constants(pd.tau, vrc_imgs, cfg)
            w = sum(anchor_imgs) - (2 * weight - 1) * constants.vector
            tw = theta(w, pd.tau, cfg=cfg)
            if abs(tw.mantissa) < THETA_FLOOR * tw.peak:
                raise ThetaNearZeroError("theta(w) below floor")
            gvals = gam.evaluate(probes)
            if np.min(np.abs(gvals)) < 1e-10 * np.max(np.abs(gvals)):
                raise ThetaNearZeroError("cardinal basis nearly vanishing at a probe")
            worst = 0.0
            for i, j in itertools.combinations(range(n), 2):
                curve_ratio = (gvals[i, 0] * gvals[j, 1]) / (gvals[i, 1] * gvals[j, 0])
                theta_ratio = theta_side_cross_ratio(
                    w, probe_imgs[0], probe_imgs[1],
                    anchor_imgs[i], anchor_imgs[j], pd.tau, delta, cfg,
                )
                dev = abs(curve_ratio - theta_ratio) / max(
                    abs(curve_ratio), abs(theta_ratio)
                )
                worst = max(worst, dev)
            return CrossRatioResult(weight, worst, attempt + 1, constants)
        except (NonGenericAnchorsError, ThetaNearZeroError,
                AmbiguousConstantsError) as exc:
            last_error = exc
    raise ThetaNearZeroError(
        f"no usable configuration after {retries} attempts: {last_error}"
    )
