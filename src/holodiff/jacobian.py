"""Period matrices and Abel maps for real-branch-point hyperelliptic curves.

Segment integrals between consecutive branch points carry fixed sheet
phases: on the segment with m branch points to its right, y continues
as i^m sqrt|f|.  All 2g segments run in one node-doubling loop, each
stopping on its own, with the same values bit for bit as one loop per
segment; on the real axis |f| is a float64 product.  Crossing cycles are
built from these segments; the symmetry and positivity certificates on
the resulting period matrix are computed, not assumed, and any
bookkeeping error fails hard there.

Abel maps integrate the normalized differentials along a real-axis
chain plus, for a complex target x, a straight leg from x.real to x with
a continuity-tracked square root.  A sequence of points shares one array
quadrature for the real-axis parts and one for the legs, each point
doubling its nodes until it converges; the normalization and the sheet
flip act on the whole block of vectors.  The vectors and error bounds
are bit for bit those of one point at a time.  The Riemann constant for
this base point and these cycles is a sum of branch-point images, read
off the segment integrals.  A separate helper handles genus-1 cubics
with complex roots, where the real-segment machinery does not apply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .curves import CurvePoint, HyperellipticCurve
from .siegel import SiegelPoint

__all__ = [
    "QuadratureError",
    "PathError",
    "PeriodCertificateError",
    "PeriodData",
    "quad_segment",
    "compute_periods",
    "abel_map",
    "riemann_constant",
    "elliptic_tau_from_cubic",
]

QUAD_CAP = 2**13
QUAD_RTOL = 1e-10
SEGMENT_RTOL = 1e-12
BRANCH_CLEARANCE = 1e-6
SYMMETRY_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Node doubling failed to converge within the node cap, or a rule
    value was not finite."""


class PathError(RuntimeError):
    """An integration path runs too close to a branch point."""


class PeriodCertificateError(RuntimeError):
    """A period-matrix certificate (symmetry or positivity) failed."""


@functools.cache
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _chebyshev_nodes(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))[::-1]


def _node_doubling(rule, count: int, rtol: float, cap: int, what: str):
    """Node doubling on `count` integrals at once, each stopping on its own.

    rule(n, idx) returns the values of the integrals idx at n nodes, one
    per leading index, for n = 32, 64, ... up to cap.  An integral stops
    when two successive values agree to `rtol` in its max norm; returns
    (values, |value - previous value|) for all integrals in index order.
    A non-finite value raises, since inf - inf would never be tested.
    """
    idx = np.arange(count)
    n, prev, gap = 32, None, np.full(1, np.inf)
    while n <= cap:
        val = rule(n, idx)
        if not np.isfinite(val).all():
            raise QuadratureError(f"{what}: non-finite value at {n} nodes")
        if prev is None:
            out, gaps = np.empty(val.shape, val.dtype), np.empty(val.shape)
        else:
            gap = abs(val - prev)
            axes = tuple(range(1, val.ndim))
            scale = np.maximum(np.max(abs(val), axis=axes), 1e-300)
            done = np.max(gap, axis=axes) <= rtol * scale
            out[idx[done]] = val[done]
            gaps[idx[done]] = gap[done]
            idx, val, gap = idx[~done], val[~done], gap[~done]
            if not len(idx):
                return out, gaps
        prev = val
        n *= 2
    raise QuadratureError(
        f"{what}: no convergence at {cap} nodes; last difference {np.max(gap[0]):.3e}"
    )


def _one_sided_rule(f, a, b, sing_a, n: int):
    """Gauss-Legendre rule at n nodes after x = a + t^2 (sing_a) or b - t^2.

    The substitution removes an inverse-square-root singularity at the
    flagged end.  f(x, d) gets the abscissae and their offsets d = +t^2
    (resp. -t^2) from the flagged end, exact where x - end recomputed
    from the rounded x is not, so the integrand can take its singular
    factor from d.  a, b and sing_a are scalars, or (k, 1) columns for k
    intervals at once; then f maps (k, n) abscissae to (rows, k, n).
    """
    width = np.sqrt(b - a)
    t, w = _gauss_legendre(n)
    tt = (t + 1) * (width / 2)
    ww = w * (width / 2)
    d = tt * tt * np.where(sing_a, 1.0, -1.0)
    return np.sum(f(np.where(sing_a, a, b) + d, d) * 2.0 * tt * ww, axis=-1)


def quad_segment(f, a, b):
    """Integrate f over the intervals [a_k, b_k], with an inverse-square-root
    singularity at both ends of each, by Gauss-Chebyshev.

    a and b are 1-d arrays; f maps (intervals, n) abscissae to
    (..., intervals, n), so rows of f share their nodes.  All intervals run
    in one node-doubling loop, each stopping when two successive values
    agree to SEGMENT_RTOL; returns (values, last doubling differences) with
    the interval as leading index.
    """
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    bad = np.flatnonzero(~(lo < hi))
    if len(bad):
        raise ValueError(f"need a < b, got [{lo[bad[0]]}, {hi[bad[0]]}]")
    half = (hi - lo)[:, None] / 2
    mid = (lo + hi)[:, None] / 2

    def rule(n: int, idx):
        t = _chebyshev_nodes(n)
        x = mid[idx] + half[idx] * t
        val = (np.pi / n) * np.sum(f(x) * half[idx] * np.sqrt(1.0 - t * t), axis=-1)
        return np.moveaxis(val, -1, 0)

    return _node_doubling(rule, len(lo), SEGMENT_RTOL, QUAD_CAP, "segment quadrature")


def _f_real(curve: HyperellipticCurve, x: np.ndarray) -> np.ndarray:
    """f(x) at real abscissae, factor by factor in the order of
    `HyperellipticCurve.f`: the real part of its complex product, bit for
    bit, without the complex temporaries."""
    e = np.asarray(curve.branch_points)
    out = x - e[0]
    for ei in e[1:]:
        out *= x - ei
    return out


def _f_off_end(curve: HyperellipticCurve, end: np.ndarray, d: np.ndarray) -> np.ndarray:
    """f at x = e[end] + d, one branch index per row of d, in the factor
    order of `_f_real`, each factor x - e_i formed as (e[end] - e_i) + d:
    the singular factor is d itself, exact where x - e[end] recomputed
    from the rounded x is not."""
    e = np.asarray(curve.branch_points)
    gaps = e[end][:, None] - e
    out = gaps[:, :1] + d
    for i in range(1, len(e)):
        out *= gaps[:, i : i + 1] + d
    return out


def _sqrt_abs_f(curve: HyperellipticCurve, x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(_f_real(curve, x)))


def _monomial_rows(curve: HyperellipticCurve, end=None):
    """Integrand with rows x^k / sqrt|f(x)|, k = 0..g-1: of x for
    quad_segment, or with `end` of (x, d) for `_one_sided_rule`, singular
    at branch points e[end], one per row, with f from `_f_off_end`."""
    g = curve.genus
    if end is None:
        return lambda x: np.stack([x**k for k in range(g)]) / _sqrt_abs_f(curve, x)
    return lambda x, d: (np.stack([x**k for k in range(g)])
                         / np.sqrt(np.abs(_f_off_end(curve, end, d))))


def _segment_phase(curve: HyperellipticCurve, seg_index: int) -> complex:
    # m branch points to the right of the open segment: y = i^m sqrt|f|
    m = 2 * curve.genus - seg_index
    return (-1j) ** (m % 4)


@dataclass(frozen=True, eq=False)
class PeriodData:
    """Periods of the monomial differentials and the normalized matrix.

    Frozen, with read-only arrays: one instance may serve many callers,
    and a write by one would change what the others compute.
    """

    curve: HyperellipticCurve
    a_periods: np.ndarray
    b_periods: np.ndarray
    normalization: np.ndarray
    tau: SiegelPoint
    seg_values: np.ndarray
    seg_errors: np.ndarray
    symmetry_dev: float

    def __post_init__(self):
        for arr in (self.a_periods, self.b_periods, self.normalization,
                    self.seg_values, self.seg_errors):
            arr.setflags(write=False)

    @property
    def genus(self) -> int:
        return self.curve.genus


def compute_periods(curve: HyperellipticCurve) -> PeriodData:
    """Period data with computed symmetry and positivity certificates.

    Cycle i surrounds the segment [e_{2i-1}, e_{2i}]; its crossing
    partner chains the remaining segments out to the last branch point.
    Certificate failures raise, they are never patched over.
    """
    g = curve.genus
    e = np.asarray(curve.branch_points)
    vals, seg_err = quad_segment(_monomial_rows(curve), e[:-1], e[1:])
    seg = np.array([_segment_phase(curve, j) for j in range(2 * g)])[:, None] * vals

    # cycle i rings the cut [e_{2i}, e_{2i+1}] (0-based); its crossing
    # partner rings [e_{2i+1}, e_{2g}], where the traversals above and
    # below the axis cancel on every cut and double on every gap, so
    # only the odd-index segments contribute
    a_mat = np.empty((g, g), dtype=complex)
    b_mat = np.empty((g, g), dtype=complex)
    for i in range(g):
        a_mat[i] = 2.0 * seg[2 * i]
        b_mat[i] = 2.0 * np.sum(seg[2 * i + 1 :: 2], axis=0)

    a_inv, cond = linalg.inverse_cond1(a_mat)
    if not np.isfinite(cond) or cond > 1e10:
        raise PeriodCertificateError(f"cycle-period matrix ill conditioned: {cond:.3e}")
    tau_raw = b_mat @ a_inv
    scale = max(float(np.max(np.abs(tau_raw))), 1e-300)
    dev = float(np.max(np.abs(tau_raw - tau_raw.T))) / scale
    if dev > SYMMETRY_TOL:
        raise PeriodCertificateError(
            f"period matrix failed the symmetry certificate: deviation {dev:.3e}"
        )
    try:
        tau = SiegelPoint((tau_raw + tau_raw.T) / 2)
    except ValueError as exc:
        raise PeriodCertificateError(f"positivity certificate failed: {exc}") from exc
    normalization = a_inv.T
    return PeriodData(
        curve, a_mat, b_mat, normalization, tau, seg, seg_err, dev
    )


# i^k for k = 0..3, as Python's complex power gives them
_I_POWERS = np.array([1j**k for k in range(4)])


def _axis_y(curve: HyperellipticCurve, xs: np.ndarray) -> np.ndarray:
    """Continued y values at real abscissae on the tracked sheet."""
    e = np.asarray(curve.branch_points)
    seg = np.searchsorted(e, xs) - 1  # -1 left of every branch point
    # right of every branch point the phase is 1 and y = +sqrt f
    return _I_POWERS[(2 * curve.genus - seg) % 4] * _sqrt_abs_f(curve, xs)


def _real_chains(pd: PeriodData, xs: np.ndarray):
    """Monomial integrals from the first branch point to real abscissae.

    Returns (vectors, continued y at the endpoints, errors), one row or
    entry per abscissa.  Full cached segments are chained in order; the
    final partial segment, or the leg left of the first branch point, runs
    as one array quadrature over all abscissae, singular at its
    branch-point end, each abscissa doubling its nodes until it alone
    converges.
    """
    curve = pd.curve
    g = curve.genus
    e = np.asarray(curve.branch_points)
    dist = np.abs(xs[:, None] - e[None, :])
    on_branch = np.any(dist <= 1e-12, axis=1)
    near = np.flatnonzero(~on_branch & (np.min(dist, axis=1) < BRANCH_CLEARANCE))
    if len(near):
        raise PathError(
            f"endpoint {float(xs[near[0]])} is within {BRANCH_CLEARANCE} of a branch point"
        )

    # sequential sums over the leading segments, as a point-by-point
    # chain adds them
    prefix = np.cumsum(np.vstack([np.zeros(g), pd.seg_values]), axis=0)
    err_prefix = np.cumsum(np.concatenate([[0.0], np.sum(pd.seg_errors, axis=1)]))
    left = xs < e[0]
    chained = np.where(left, 0, np.searchsorted(e[1:], xs + 1e-12, side="right"))
    totals = prefix[chained]
    errs = err_prefix[chained]

    # partial segments start at the branch point left of the abscissa;
    # right of every branch point y continues as +sqrt|f|
    j_left = np.searchsorted(e, xs) - 1
    phases = np.array([_segment_phase(curve, j) for j in range(2 * g)] + [1.0 + 0.0j])
    k = np.flatnonzero(left | ~on_branch)
    if len(k):
        lo = np.where(left[k], xs[k], e[j_left[k]])[:, None]
        hi = np.where(left[k], e[0], xs[k])[:, None]
        sing_lo = ~left[k][:, None]
        end = np.where(left[k], 0, j_left[k])  # the singular branch point
        vals, gaps = _node_doubling(
            lambda n, idx: _one_sided_rule(_monomial_rows(curve, end[idx]), lo[idx], hi[idx],
                                           sing_lo[idx], n).T,
            len(k), QUAD_RTOL, QUAD_CAP, "segment quadrature",
        )
        coef = np.where(left[k], -_segment_phase(curve, -1), phases[j_left[k]])
        part = coef[:, None] * vals
        totals[k] = np.where(left[k][:, None], part, totals[k] + part)
        errs[k] += np.sum(gaps, axis=1)
    ys = _axis_y(curve, xs)
    ys[on_branch & ~left] = 0.0
    return totals, ys, errs


def _tracked_sqrt(s: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Square roots s, rows of nodes along paths, signs flipped so that each
    stays on the branch of its predecessor, the first on that of its row's
    `prev`: |s - p| > |s + p| exactly when Re(s conj p) < 0, so the flips
    are a running product of that test against the untracked predecessor."""
    before = np.concatenate([prev[:, None], s[:, :-1]], axis=1)
    turn = s.real * before.real + s.imag * before.imag < 0
    flip = np.cumprod(np.where(turn, -1.0, 1.0), axis=1) < 0
    return np.where(flip, -s, s)


def _complex_legs(pd: PeriodData, z0: np.ndarray, z1: np.ndarray, y_start: np.ndarray):
    """Monomial integrals along straight legs z0 -> z1, y tracked from
    y_start, one entry per leg, in one node-doubling loop; returns (vectors,
    continued y at the ends, errors).  Every leg is checked against the
    branch points before any is integrated."""
    curve = pd.curve
    g = curve.genus
    e = np.asarray(curve.branch_points)
    for a, b in zip(z0.tolist(), z1.tolist()):
        if _point_segment_distance(e, a, b) < BRANCH_CLEARANCE:
            raise PathError(f"leg {a} -> {b} passes within {BRANCH_CLEARANCE} of a branch point")

    step = (z1 - z0)[:, None]
    y_end = np.empty(len(z0), dtype=complex)

    def rule(n: int, idx):
        t, w = _gauss_legendre(n)
        tt = (t + 1) / 2
        zs = z0[idx, None] + tt * step[idx]
        # the end of each leg rides as one more node of its row
        path = np.concatenate([zs, z1[idx, None]], axis=1)
        ys = _tracked_sqrt(np.sqrt(curve.f(path.ravel())).reshape(path.shape), y_start[idx])
        y_end[idx] = ys[:, -1]
        powers = np.stack([zs**k for k in range(g)], axis=1)
        return np.sum(w / 2 * powers * step[idx, :, None] / ys[:, None, :-1], axis=-1)

    vals, gaps = _node_doubling(rule, len(z0), QUAD_RTOL, QUAD_CAP, "leg integration")
    return vals, y_end, np.max(gaps, axis=1)


def abel_map(pd: PeriodData, p):
    """Integral of the normalized differentials from the first branch point.

    `p` is one CurvePoint, giving its (g,) vector and its error bound, or
    a sequence of n of them, giving an (n, g) block of vectors and an
    (n,) array of error bounds.  The real-axis chains of all points, to
    the real parts of their x, run as one array quadrature; a complex
    target adds a straight leg from x.real to x.  Landing on the opposite
    sheet is fixed by negation, which is exact for a branch-point base.
    """
    points = [p] if isinstance(p, CurvePoint) else list(p)
    curve = pd.curve
    if any(q.model is not curve for q in points):
        raise ValueError("point does not belong to this period data's curve")
    xs = np.array([complex(q.x) for q in points], dtype=complex)
    totals, ys, errs = _real_chains(pd, xs.real)
    k = np.flatnonzero(np.abs(xs.imag) > 1e-14)
    if len(k):
        vals, ys[k], dq = _complex_legs(pd, xs[k].real + 0j, xs[k], ys[k])
        totals[k] += vals
        errs[k] += dq

    # stacked matrix-vector products: each row the bits of N @ total
    vecs = np.matmul(pd.normalization, totals[:, :, None])[:, :, 0]
    y_t = np.array([complex(q.y) for q in points], dtype=complex)
    flip = (np.abs(y_t) > 0) & (np.abs(ys) > 0) & (np.abs(ys - y_t) > np.abs(ys + y_t))
    vecs[flip] = -vecs[flip]
    if isinstance(p, CurvePoint):
        return vecs[0], float(errs[0])
    return vecs, errs


def riemann_constant(pd: PeriodData) -> np.ndarray:
    """Vector of Riemann constants K for the base point and cycles of pd.

    With base e_0 and the cycles of `compute_periods`, K = sum_{j=1..g}
    A(e_{2j}) in 0-based branch indices (Mumford, Tata Lectures on Theta
    II, ch. IIIa), a half-period with theta(A(D) - K) = 0 for every
    effective divisor D of degree g - 1.  A(e_k) chains the first k
    segment integrals, so segment j enters the sum g - floor(j/2) times.
    """
    g = pd.genus
    return pd.normalization @ ((g - np.arange(2 * g) // 2) @ pd.seg_values)


def _aligned_inverse_sqrt_sum(p: complex, q: complex, third: complex):
    """Chebyshev sum of 1/sqrt(x - third) along [p, q], branch tracked."""
    half = (q - p) / 2
    mid = (p + q) / 2
    if _point_segment_distance(third, p, q) < 1e-9:
        raise PathError("third root sits on the integration segment")

    def rule(n: int, _):
        t = _chebyshev_nodes(n)
        s = np.sqrt(mid + half * t - third)[None]
        return np.array([(np.pi / n) * complex(np.sum(1.0 / _tracked_sqrt(s, s[:, 0])))])

    return _node_doubling(rule, 1, SEGMENT_RTOL, QUAD_CAP, "cubic segment sum")[0][0]


def _point_segment_distance(pts, a: complex, b: complex) -> float:
    """Distance from the segment [a, b] to the nearest of the points pts."""
    d = b - a
    if d == 0:
        return float(np.min(np.abs(pts - a)))
    t = np.clip(((pts - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return float(np.min(np.abs(pts - (a + t * d))))


def reduce_to_fundamental_domain(t: complex) -> complex:
    """Translate and invert until |Re| <= 1/2 and |t| >= 1."""
    if t.imag <= 0:
        raise ValueError("needs a point of the upper half plane")
    for _ in range(256):
        t = t - round(t.real)
        if abs(t) < 1.0 - 1e-15:
            t = -1.0 / t
        else:
            return t
    raise RuntimeError("fundamental-domain reduction did not terminate")


def elliptic_tau_from_cubic(cubic) -> complex:
    """Reduced lattice parameter of y^2 = cubic(x), complex roots allowed.

    Accepts three roots or four polynomial coefficients (highest power
    first).  Periods are taken along the two straight segments joining
    consecutive roots; the sign ambiguity of each tracked square root is
    resolved by picking the upper-half-plane ratio and reducing it to
    the fundamental domain.
    """
    arr = np.asarray(cubic, dtype=complex).reshape(-1)
    if len(arr) == 3:
        roots = arr
    elif len(arr) == 4:
        if arr[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        roots = np.roots(arr)
    else:
        raise ValueError("pass three roots or four coefficients")
    r0, r1, r2 = roots
    s1 = _aligned_inverse_sqrt_sum(r0, r1, r2)
    s2 = _aligned_inverse_sqrt_sum(r1, r2, r0)
    ratio = s1 / s2
    if ratio.imag == 0:
        raise PeriodCertificateError("degenerate period ratio on the real line")
    if ratio.imag < 0:
        ratio = -ratio
    return reduce_to_fundamental_domain(complex(ratio))
