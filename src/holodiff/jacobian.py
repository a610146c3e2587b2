"""Period matrices and Abel maps for real-branch-point hyperelliptic curves.

Segment integrals between consecutive branch points carry fixed sheet
phases: on the segment with m branch points to its right, y continues
as i^m sqrt|f|.  Crossing cycles are built from these segments; the
symmetry and positivity certificates on the resulting period matrix are
computed, not assumed, and any bookkeeping error fails hard there.

Abel maps integrate the normalized differentials along a real-axis
chain plus, for complex targets, straight legs with continuity-tracked
square roots.  A separate helper handles genus-1 cubics with complex
roots, where the real-segment machinery does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, theta
from .curves import CurvePoint, HyperellipticCurve
from .siegel import SiegelPoint

__all__ = [
    "QuadratureError",
    "PathError",
    "PeriodCertificateError",
    "PeriodData",
    "AbelImage",
    "quad_segment",
    "compute_periods",
    "abel_map",
    "lattice_reduce",
    "lattice_distance",
    "elliptic_tau_from_cubic",
]

QUAD_CAP = 2**13
QUAD_RTOL = 1e-10
SEGMENT_RTOL = 1e-12
BRANCH_CLEARANCE = 1e-6
SYMMETRY_TOL = 1e-6
GENUS_CAP = 3


class QuadratureError(RuntimeError):
    """Node doubling failed to converge within the node cap."""


class PathError(RuntimeError):
    """An integration path runs too close to a branch point."""


class PeriodCertificateError(RuntimeError):
    """A period-matrix certificate (symmetry or positivity) failed."""


_GL_CACHE: dict = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _chebyshev_nodes(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))[::-1]


def _node_doubling(rule, rtol: float, cap: int, what: str):
    """Node doubling: rule(n) for n = 32, 64, ... up to cap.

    Stops when two successive values agree to `rtol` in the max norm and
    returns (value, |value - previous value|), elementwise for vectors.
    """
    n, prev, gap = 32, None, np.inf
    while n <= cap:
        val = rule(n)
        if prev is not None:
            gap = abs(val - prev)
            if np.max(gap) <= rtol * max(np.max(abs(val)), 1e-300):
                return val, gap
        prev = val
        n *= 2
    raise QuadratureError(
        f"{what}: no convergence at {cap} nodes; last difference {np.max(gap):.3e}"
    )


def quad_segment(f, a: float, b: float, sing_a: bool, sing_b: bool,
                 rtol: float = QUAD_RTOL, cap: int = QUAD_CAP):
    """Integrate f over [a, b] with inverse-square-root endpoint flags.

    Both ends flagged: Gauss-Chebyshev absorbs both singularities.  One
    end flagged: the substitution x = a + t^2 (resp. b - t^2) removes it,
    then Gauss-Legendre.  Node counts double until two successive values
    agree to `rtol`; returns (value, last doubling difference).  An f
    returning rows of shape (k, n) integrates all k rows on shared nodes
    and returns both as length-k vectors.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    half = (b - a) / 2
    mid = (a + b) / 2

    def rule(n: int):
        if sing_a and sing_b:
            t = _chebyshev_nodes(n)
            x = mid + half * t
            return (np.pi / n) * np.sum(f(x) * half * np.sqrt(1.0 - t * t), axis=-1)
        if sing_a or sing_b:
            width = np.sqrt(b - a)
            t, w = _gauss_legendre(n)
            tt = (t + 1) * (width / 2)
            ww = w * (width / 2)
            x = a + tt * tt if sing_a else b - tt * tt
            return np.sum(f(x) * 2.0 * tt * ww, axis=-1)
        t, w = _gauss_legendre(n)
        x = mid + half * t
        return np.sum(f(x) * w * half, axis=-1)

    val, gap = _node_doubling(rule, rtol, cap, "segment quadrature")
    if np.ndim(val) == 0:
        return complex(val), float(gap)
    return val, gap


def _sqrt_abs_f(curve: HyperellipticCurve, x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(curve.f(x).real))


def _monomial_rows(curve: HyperellipticCurve):
    """quad_segment integrand with rows x^k / sqrt|f(x)|, k = 0..g-1."""
    return lambda x: np.stack([x**k for k in range(curve.genus)]) / _sqrt_abs_f(curve, x)


def _segment_phase(curve: HyperellipticCurve, seg_index: int) -> complex:
    # m branch points to the right of the open segment: y = i^m sqrt|f|
    m = 2 * curve.genus - seg_index
    return (-1j) ** (m % 4)


@dataclass
class PeriodData:
    """Periods of the monomial differentials and the normalized matrix."""

    curve: HyperellipticCurve
    a_periods: np.ndarray
    b_periods: np.ndarray
    normalization: np.ndarray
    tau: SiegelPoint
    seg_values: np.ndarray
    seg_errors: np.ndarray
    symmetry_dev: float

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
    if g > GENUS_CAP:
        raise ValueError(f"genus {g} exceeds the supported cap {GENUS_CAP}")
    e = np.asarray(curve.branch_points)
    nseg = 2 * g
    seg = np.empty((nseg, g), dtype=complex)
    seg_err = np.empty((nseg, g))
    rows = _monomial_rows(curve)
    for j in range(nseg):
        val, seg_err[j] = quad_segment(
            rows, float(e[j]), float(e[j + 1]), True, True, rtol=SEGMENT_RTOL
        )
        seg[j] = _segment_phase(curve, j) * val

    # cycle i rings the cut [e_{2i}, e_{2i+1}] (0-based); its crossing
    # partner rings [e_{2i+1}, e_{2g}], where the traversals above and
    # below the axis cancel on every cut and double on every gap, so
    # only the odd-index segments contribute
    a_mat = np.empty((g, g), dtype=complex)
    b_mat = np.empty((g, g), dtype=complex)
    for i in range(g):
        a_mat[i] = 2.0 * seg[2 * i]
        b_mat[i] = 2.0 * np.sum(seg[2 * i + 1 :: 2], axis=0)

    cond = linalg.cond1(a_mat)
    if not np.isfinite(cond) or cond > 1e10:
        raise PeriodCertificateError(f"cycle-period matrix ill conditioned: {cond:.3e}")
    tau_raw = b_mat @ linalg.inverse(a_mat)
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
    normalization = linalg.inverse(a_mat.T)
    return PeriodData(
        curve, a_mat, b_mat, normalization, tau, seg, seg_err, dev
    )


@dataclass
class AbelImage:
    """Image of a curve point in the Jacobian, with its path record."""

    point: object
    vector: np.ndarray
    path: tuple
    err: float


def _branch_index(curve: HyperellipticCurve, x: float):
    e = np.asarray(curve.branch_points)
    hits = np.nonzero(np.abs(e - x) <= 1e-12)[0]
    return int(hits[0]) if len(hits) else None


def _real_chain(pd: PeriodData, x_target: float):
    """Monomial integrals from the first branch point to a real abscissa.

    Returns (vector, continued y at the endpoint, path record, error).
    Full cached segments are chained; the final partial segment uses
    singular quadrature at its branch-point end.
    """
    curve = pd.curve
    g = curve.genus
    e = np.asarray(curve.branch_points)
    total = np.zeros(g, dtype=complex)
    err = 0.0
    path = []
    bidx = _branch_index(curve, x_target)
    if bidx is None and float(np.min(np.abs(e - x_target))) < BRANCH_CLEARANCE:
        raise PathError(
            f"endpoint {x_target} is within {BRANCH_CLEARANCE} of a branch point"
        )

    if x_target < e[0]:
        phase = _segment_phase(curve, -1)  # all branch points to the right
        val, dq = quad_segment(
            _monomial_rows(curve), float(x_target), float(e[0]), False, True
        )
        total = -phase * val
        err += float(np.sum(dq))
        path.append(f"real:{e[0]}->{x_target}")
        y_end = phase_y(curve, x_target, phase)
        return total, y_end, tuple(path), err

    for j in range(len(e) - 1):
        if e[j + 1] > x_target + 1e-12:
            break
        total += pd.seg_values[j]
        err += float(np.sum(pd.seg_errors[j]))
        path.append(f"seg:{j}")
    if bidx is not None:
        y_end = 0.0 + 0.0j
        return total, y_end, tuple(path), err

    # partial segment from its left branch point to the target
    j = int(np.searchsorted(e, x_target) - 1)
    start = float(e[j])
    if x_target > start + 1e-12:
        if j < 2 * curve.genus:
            phase = _segment_phase(curve, j)
        else:
            phase = 1.0 + 0.0j  # right of every branch point
        val, dq = quad_segment(_monomial_rows(curve), start, float(x_target), True, False)
        total += phase * val
        err += float(np.sum(dq))
        path.append(f"partial:{start}->{x_target}")
    y_end = phase_y(curve, x_target, None)
    return total, y_end, tuple(path), err


def phase_y(curve: HyperellipticCurve, x: float, phase=None) -> complex:
    """Continued y value at a real abscissa on the tracked sheet."""
    e = np.asarray(curve.branch_points)
    if phase is None:
        if x < e[0]:
            seg = -1
        elif x > e[-1]:
            return complex(np.sqrt(curve.f(x)[0].real))
        else:
            seg = int(np.searchsorted(e, x) - 1)
        m = 2 * curve.genus - seg
        phase_val = 1j ** (m % 4)
    else:
        # phase passed in is the 1/y phase; invert it for y itself
        phase_val = 1.0 / phase
    return phase_val * float(_sqrt_abs_f(curve, np.array([x]))[0])


def _segment_branch_distance(curve: HyperellipticCurve, z0: complex, z1: complex) -> float:
    return min(_point_segment_distance(ee, z0, z1) for ee in curve.branch_points)


def _tracked_sqrt(s: np.ndarray, prev: complex) -> np.ndarray:
    """Square roots s with signs flipped in order so that each stays on the
    branch of its predecessor, the first one on the branch of `prev`."""
    for idx in range(len(s)):
        if abs(s[idx] - prev) > abs(s[idx] + prev):
            s[idx] = -s[idx]
        prev = s[idx]
    return s


def _complex_leg(pd: PeriodData, z0: complex, z1: complex, y_start: complex):
    """Straight-leg monomial integrals with continuity-tracked square root."""
    curve = pd.curve
    g = curve.genus
    if _segment_branch_distance(curve, z0, z1) < BRANCH_CLEARANCE:
        raise PathError(
            f"leg {z0} -> {z1} passes within {BRANCH_CLEARANCE} of a branch point"
        )

    y_end = None

    def rule(n: int):
        nonlocal y_end
        t, w = _gauss_legendre(n)
        tt = (t + 1) / 2
        zs = z0 + tt * (z1 - z0)
        ys = _tracked_sqrt(np.sqrt(curve.f(zs)), y_start)
        y_end = _tracked_sqrt(np.sqrt(curve.f(np.array([z1]))), ys[-1])[0]
        powers = np.stack([zs**k for k in range(g)])
        return np.sum(w / 2 * powers * (z1 - z0) / ys, axis=-1)

    vals, gap = _node_doubling(rule, QUAD_RTOL, QUAD_CAP, "leg integration")
    return vals, y_end, float(np.max(gap))


def abel_map(pd: PeriodData, p: CurvePoint, *, via=None) -> AbelImage:
    """Integral of the normalized differentials from the first branch point.

    Real targets use the segment chain; complex targets add a straight
    leg from the real axis, optionally detoured through `via` for
    path-independence experiments.  Landing on the opposite sheet is
    fixed by negation, which is exact for a branch-point base.
    """
    curve = pd.curve
    if p.model is not curve:
        raise ValueError("point does not belong to this period data's curve")
    x_t = complex(p.x)
    y_t = complex(p.y)
    legs = []
    if via is not None:
        via = complex(via)
        anchor = via.real
        legs = [(anchor, via), (via, x_t)]
    elif abs(x_t.imag) > 1e-14:
        anchor = x_t.real
        legs = [(anchor, x_t)]
    else:
        anchor = x_t.real

    total, y_run, path, err = _real_chain(pd, float(anchor))
    path = list(path)
    for z0, z1 in legs:
        z0c = complex(z0)
        if abs(z0c - z1) < 1e-15:
            continue
        vals, y_run, dq = _complex_leg(pd, z0c, z1, y_run)
        total = total + vals
        err += dq
        path.append(f"leg:{z0c}->{z1}")

    vec = pd.normalization @ total
    if abs(y_t) > 0 and abs(y_run) > 0:
        if abs(y_run - y_t) > abs(y_run + y_t):
            vec = -vec
            path.append("sheet-flip")
    return AbelImage(p, vec, tuple(path), err)


def lattice_reduce(source, v):
    """Split v = tau m + n + r, integer m and n, remainder r small."""
    tau = source.tau if isinstance(source, PeriodData) else source
    return theta.lattice_reduce_tau(v, tau)


def lattice_distance(source, v) -> float:
    """Max-norm distance of v from the period lattice."""
    r, _, _ = lattice_reduce(source, v)
    return float(np.max(np.abs(r)))


def _aligned_inverse_sqrt_sum(p: complex, q: complex, third: complex,
                              rtol: float = SEGMENT_RTOL):
    """Chebyshev sum of 1/sqrt(x - third) along [p, q], branch tracked."""
    half = (q - p) / 2
    mid = (p + q) / 2
    dist = _point_segment_distance(third, p, q)
    if dist < 1e-9:
        raise PathError("third root sits on the integration segment")

    def rule(n: int) -> complex:
        t = _chebyshev_nodes(n)
        x = mid + half * t
        s = np.sqrt(x - third)
        return (np.pi / n) * complex(np.sum(1.0 / _tracked_sqrt(s, s[0])))

    return _node_doubling(rule, rtol, QUAD_CAP, "cubic segment sum")[0]


def _point_segment_distance(pt: complex, a: complex, b: complex) -> float:
    d = b - a
    if d == 0:
        return abs(pt - a)
    t = np.clip(((pt - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return float(abs(pt - (a + t * d)))


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
