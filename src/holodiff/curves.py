"""Explicit curve models, point sampling and curve description files.

Two families are supported: smooth plane curves F(x, y) = 0 of degree
d >= 4 given by monomial coefficients, and hyperelliptic curves
y^2 = f(x) with f a monic polynomial whose 2g+1 real branch points are
pairwise separated.  Each model class owns what its kind decides: its
holomorphic monomial family and their chart values, its sampling round,
and `canonical`, True when the curve is not hyperelliptic.  Points carry
their affine coordinates, a chart tag saying which coordinate
trivializes differentials at that point, and for hyperelliptic curves a
sheet sign.

Sampling is deterministic given a seed: x is drawn from a disk of radius
2 (complex mode) or the interval [-2, 2] (real mode), and candidates are
rejected while they sit too close to a chart breakdown, a branch point,
or a previously accepted point.  A draw reads numpy's default Generator
as its `uniform` and `integers` calls would, but the samplers decode it
from the raw words of the bit generator, read in blocks (`_WordStream`):
every word position is decoded on arrays as if a draw started there,
and a plain loop walks the words draw by draw.  A plane-curve draw is x
and then which root of F(x, .) to take, counting the roots in order of
their distance from the fixed non-real point ROOT_ORDER_POINT; the drawn
roots come from one Aberth-Ehrlich iteration on all rows of a degree
(`_aberth`, numpy only, each row stopping on its own) plus three
row-wise Newton steps.  A hyperelliptic draw is x and then the sheet.

`sample_sets` draws several point sets, each from its own seed, in one
pass: each round walks every unfinished set's own stream, evaluates the
candidates of all sets together (the plane-curve roots of all sets in
one `_pick_roots` call), and then lets each set accept its own
candidates in its own draw order.  Each set keeps its own budget of
MAX_DRAWS_PER_POINT rejected draws per point, and a set that exhausts
it ends with its own `SamplingError` while the others go on, so every
set gets the points, or the error, that drawing it alone gives.
`sample_points` is its one-set case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurveSpecError",
    "ChartError",
    "SamplingError",
    "PlaneCurve",
    "HyperellipticCurve",
    "CurvePoint",
    "sample_points",
    "sample_sets",
    "parse_curve_spec",
]

ON_CURVE_RTOL = 1e-10
CHART_RATIO_MIN = 1e-6
CHART_FLOOR = 1e-10  # chart_values flags a point whose tested quantity falls below this scale
MIN_POINT_SEPARATION = 1e-4
MAX_DRAWS_PER_POINT = 50
BRANCH_MARGIN = 0.05  # hyperelliptic draws closer than this to a branch point are rejected
MIN_BRANCH_SEPARATION = 1e-3
ABERTH_MAX_STEPS = 50
# the drawn root index counts roots by their distance from this non-real point
ROOT_ORDER_POINT = complex(0.6180339887498949, 0.7548776662466927)


class CurveSpecError(ValueError):
    """Malformed curve description file; message cites line or field."""


class ChartError(RuntimeError):
    """Requested chart cannot trivialize differentials at the point."""


class SamplingError(RuntimeError):
    """Point sampling exhausted its draw budget."""


class PlaneCurve:
    """Smooth plane curve F(x, y) = 0 of total degree d >= 4."""

    canonical = True  # never hyperelliptic, so the pair products span 3g-3 (Max Noether)

    def __init__(self, degree: int, coeffs):
        if not isinstance(degree, (int, np.integer)) or degree < 4:
            raise ValueError(f"degree must be an integer >= 4, got {degree!r}")
        self.degree = int(degree)
        terms = []
        seen = set()
        for r, s, c in coeffs:
            r, s, c = int(r), int(s), complex(c)
            if r < 0 or s < 0 or r + s > self.degree:
                raise ValueError(f"monomial exponents ({r}, {s}) out of range")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient of monomial ({r}, {s}) is not finite: {c!r}")
            if (r, s) in seen:
                raise ValueError(f"duplicate monomial ({r}, {s})")
            seen.add((r, s))
            if c != 0:
                terms.append((r, s, c))
        if not terms:
            raise ValueError("curve has no nonzero coefficients")
        self._r = np.array([t[0] for t in terms], dtype=np.intp)
        self._s = np.array([t[1] for t in terms], dtype=np.intp)
        self._c = np.array([t[2] for t in terms], dtype=complex)
        if not np.any(self._r + self._s == self.degree):
            raise ValueError("no monomial of total degree equal to the stated degree")
        self.coeffs = tuple(terms)
        # term t adds into the coefficient of y^s_t, column degree - s_t
        self._y_slots = np.zeros((len(terms), self.degree + 1))
        self._y_slots[np.arange(len(terms)), self.degree - self._s] = 1.0
        self.coeff_scale = float(np.max(np.abs(self._c)))
        self.genus = (self.degree - 1) * (self.degree - 2) // 2
        for arr in (self._r, self._s, self._c, self._y_slots):
            arr.setflags(write=False)

    def _powers(self, vals, exps, shift=0):
        vals = np.asarray(vals, dtype=complex)
        e = exps - shift
        out = np.where(
            e[:, None] >= 0,
            vals[None, :] ** np.maximum(e, 0)[:, None],
            0.0,
        )
        return out

    def f(self, x, y):
        """F(x, y), vectorized over point arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        return np.einsum(
            "t,tp,tp->p", self._c, self._powers(x, self._r), self._powers(y, self._s)
        )

    def fx(self, x, y):
        """Partial derivative of F in x."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        return np.einsum(
            "t,tp,tp->p",
            self._c * self._r,
            self._powers(x, self._r, shift=1),
            self._powers(y, self._s),
        )

    def fy(self, x, y):
        """Partial derivative of F in y."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        return np.einsum(
            "t,tp,tp->p",
            self._c * self._s,
            self._powers(x, self._r),
            self._powers(y, self._s, shift=1),
        )

    def on_curve_scale(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        m = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        return self.coeff_scale * m**self.degree

    def y_poly_coeffs(self, x) -> np.ndarray:
        """Coefficients of F(x, .) as a polynomial in y, highest power first.

        For an array of x the coefficients run along a new last axis.
        """
        x = np.asarray(x, dtype=complex)[..., None]
        return (self._c * x**self._r) @ self._y_slots

    def fx_y_poly_coeffs(self, x) -> np.ndarray:
        """Coefficients of F_x(x, .) as a polynomial in y, highest power first."""
        x = np.asarray(x, dtype=complex)[..., None]
        return (self._c * self._r * x ** np.maximum(self._r - 1, 0)) @ self._y_slots

    def monomials(self, weight: int) -> list[tuple[int, int]]:
        """Exponents (r, s) of the holomorphic family x^r y^s dx / F_y, r + s <= d - 3."""
        if weight != 1:
            raise ValueError("plane models only carry the weight-1 monomial family")
        return [(r, s) for r in range(self.degree - 2) for s in range(self.degree - 2 - r)]

    def chart_values(self, points, monomials, weight: int):
        """Coefficients of x^r y^s (dx / F_y)^n, one row per monomial and one
        column per point, in each point's chart, with the chart test:
        (values, flagged points, name of the tested quantity, its values)."""
        x, y, a, b = _monomial_powers(points, monomials)
        on_x = np.array([pt.chart == "x" for pt in points], dtype=bool)
        denom = np.where(on_x, self.fy(x, y), self.fx(x, y))
        big = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        scale = self.coeff_scale * big ** (self.degree - 1)
        sign = np.where(on_x, 1.0, (-1.0) ** weight)
        with np.errstate(divide="ignore", invalid="ignore"):  # flagged points
            values = sign * x**a * y**b / denom**weight
        return values, np.abs(denom) < CHART_FLOOR * scale, "|denominator|", denom

    def _draw_round(self, sets, mode):
        """One draw per set of as many candidates as it is short, as lists of
        (x, y, chart, sheet, reason); reason is None when acceptable.

        A draw reads x, then the root number rng.integers(k) when F(x, .) has
        k >= 1 roots.  x is decoded at every word position of each set, F(x, .)
        and k at all of them at once, and a plain loop walks each set's words
        draw by draw.  The drawn roots of every set then come from one
        `_pick_roots` call and three row-wise Newton steps.  A set gets fewer
        candidates than it is short only when rejected bounded draws ran past
        the words read for them.
        """
        per_x = 1 if mode == "real" else 2
        d = self.degree
        xs = []
        for s in sets:
            s.words.read((per_x + 1) * s.short)
            xs.append(_x_draws(s.words.doubles(), mode))
        sizes = [len(x) for x in xs]
        xs = np.concatenate(xs)
        coeffs = self.y_poly_coeffs(xs)
        nz = coeffs != 0
        nroots = np.where(nz.any(axis=1), d - np.argmax(nz, axis=1), 0).tolist()
        at, pick, ends, start = [], [], [], 0
        for s, size in zip(sets, sizes):
            stop, pos = len(at) + s.short, 0
            while len(at) < stop and pos < size:
                at.append(start + pos)
                k = nroots[start + pos]
                pos += per_x
                if k:
                    v, pos = s.words.integer(k, pos)
                else:
                    v = -1
                pick.append(v)
            s.words.used(pos)
            ends.append(len(at))
            start += size
        xs, coeffs, pick = xs[at], coeffs[at], np.array(pick)
        ok = np.flatnonzero(pick >= 0)
        x, f = xs[ok], coeffs[ok]
        y = _pick_roots(f, pick[ok])
        fy = f[:, :-1] * np.arange(d, 0, -1)
        for _ in range(3):  # Newton polish on the drawn roots
            dfy = _horner_rows(fy, y)
            y = y - np.divide(_horner_rows(f, y), dfy, out=np.zeros_like(y), where=dfy != 0)
        fv = np.abs(_horner_rows(f, y))
        gx = np.abs(_horner_rows(self.fx_y_poly_coeffs(x), y))
        gy = np.abs(_horner_rows(fy, y))
        grad = gx + gy
        verdict = np.select(
            [
                fv > ON_CURVE_RTOL * self.on_curve_scale(x, y),
                grad == 0.0,
                gy >= CHART_RATIO_MIN * grad,
                gx >= CHART_RATIO_MIN * grad,
            ],
            [
                "root polish left the curve residual too large",
                "vanishing gradient (singular point)",
                "x",
                "y",
            ],
            "near-singular chart",
        )
        xl = xs.tolist()
        out = [(xi, 0j, None, None, "no y roots at drawn x") for xi in xl]
        for i, yi, v in zip(ok.tolist(), y.tolist(), verdict.tolist()):
            out[i] = ((xl[i], yi, v, None, None) if v in ("x", "y")
                      else (xl[i], yi, None, None, v))
        return [out[a:b] for a, b in zip([0] + ends[:-1], ends)]

    def __repr__(self) -> str:
        return f"PlaneCurve(degree={self.degree}, genus={self.genus})"


class HyperellipticCurve:
    """Hyperelliptic curve y^2 = prod (x - e_i) with sorted real branch points."""

    canonical = False  # the pair products span only 2g-1 dimensions

    def __init__(self, branch_points):
        e = np.asarray(branch_points, dtype=float)
        if e.ndim != 1:
            raise ValueError(f"branch points must be a flat sequence, got shape {e.shape}")
        if len(e) < 3 or len(e) % 2 == 0:
            raise ValueError(
                f"need an odd number >= 3 of branch points, got {len(e)}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError(f"branch points must be finite, got {e.tolist()}")
        if np.any(np.diff(e) <= 0):
            raise ValueError("branch points must be strictly increasing")
        if np.min(np.diff(e)) < MIN_BRANCH_SEPARATION:
            raise ValueError(
                f"branch points closer than the separation floor {MIN_BRANCH_SEPARATION}"
            )
        self.branch_points = tuple(float(v) for v in e)
        self._e = np.array(self.branch_points)
        self._e.setflags(write=False)
        self.genus = (len(e) - 1) // 2

    def f(self, x):
        """f(x) = prod (x - e_i), vectorized."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        return np.prod(x[:, None] - self._e[None, :], axis=1)

    def branch_distance(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        return np.min(np.abs(x[:, None] - self._e[None, :]), axis=1)

    def on_curve_scale(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        return np.maximum(1.0, np.abs(x)) ** len(self._e)

    def monomials(self, weight: int) -> list[tuple[int, int]]:
        """Exponents (j, m) of the holomorphic family x^j (dx)^n / y^m."""
        if weight >= 2 and self.genus < 2:
            raise ValueError("weight >= 2 requires genus >= 2")
        # x^j (dx)^n / y^n is holomorphic up to j = n(g-1); the y^(n-1) family
        # only exists once n(2g-2) clears the ramification weight 2g+1.
        mono = [(j, weight) for j in range(weight * (self.genus - 1) + 1)]
        extra = weight * (2 * self.genus - 2) - (2 * self.genus + 1)
        if extra >= 0:
            mono.extend((j, weight - 1) for j in range(extra // 2 + 1))
        return mono

    def chart_values(self, points, monomials, weight: int):
        """Values of x^j (dx)^n / y^m in the x chart, as `PlaneCurve.chart_values` gives them."""
        x, y, a, b = _monomial_powers(points, monomials)
        bad = np.zeros(len(points), dtype=bool)
        if np.any(b > 0):
            bad = np.abs(y) < CHART_FLOOR * np.sqrt(self.on_curve_scale(x, y))
        with np.errstate(divide="ignore", invalid="ignore"):
            return x**a / y**b, bad, "|y|", y

    def _draw_round(self, sets, mode):
        """One draw per set of as many candidates as it is short, as lists of
        (x, y, chart, sheet, reason); reason is None when acceptable.

        A candidate reads doubles: x, then the sheet when x is far enough
        from the branch points.  Every word position of every set is decoded
        at once as if a candidate started there, and a plain loop walks each
        set's words candidate by candidate.
        """
        per_x = 1 if mode == "real" else 2
        xs, sheets = [], []
        for s in sets:
            s.words.read((per_x + 1) * s.short)
            u = s.words.doubles()
            usable = len(u) - per_x  # positions followed by a sheet double
            xs.append(_x_draws(u, mode)[:usable])
            sheets.append(u[per_x:])
        x = np.concatenate(xs)
        near = (self.branch_distance(x) < BRANCH_MARGIN).tolist()
        sheet = np.where(np.concatenate(sheets) < 0.5, 1, -1)
        y = (sheet * np.sqrt(self.f(x))).tolist()
        xl, sheet = x.tolist(), sheet.tolist()
        out, start = [], 0
        for s, block in zip(sets, xs):
            cands, pos = [], start
            for _ in range(s.short):
                if near[pos]:
                    cands.append((xl[pos], 0j, None, None, "too close to a branch point"))
                    pos += per_x
                else:
                    cands.append((xl[pos], y[pos], "x", sheet[pos], None))
                    pos += per_x + 1
            s.words.used(pos - start)
            out.append(cands)
            start += len(block)
        return out

    def __repr__(self) -> str:
        return f"HyperellipticCurve(genus={self.genus}, branch_points={self.branch_points})"


@dataclass(frozen=True, eq=False)
class CurvePoint:
    """Affine point of a curve model with its trivializing chart."""

    model: object
    x: complex
    y: complex
    chart: str = "x"
    sheet: int | None = None

    def __post_init__(self):
        if self.chart not in ("x", "y"):
            raise ValueError(f"chart must be 'x' or 'y', got {self.chart!r}")

    def __repr__(self) -> str:
        return f"CurvePoint(x={self.x:.6g}, y={self.y:.6g}, chart={self.chart!r})"


def _too_close(x, y, accepted) -> bool:
    for p in accepted:
        if abs(x - p.x) + abs(y - p.y) < MIN_POINT_SEPARATION:
            return True
    return False


def _monomial_powers(points, monomials):
    """x and y of the points as arrays, and the monomials' exponent columns a, b."""
    x = np.array([pt.x for pt in points], dtype=complex)
    y = np.array([pt.y for pt in points], dtype=complex)
    a, b = (np.array(e)[:, None] for e in zip(*monomials))
    return x, y, a, b


def _horner_rows(coeffs, z):
    """Value at z[i] of the polynomial with coefficients coeffs[i], highest power first."""
    acc = np.zeros_like(z)
    for c in coeffs.T:
        acc = acc * z + c
    return acc


def _aberth(c):
    """Roots of the monic polynomials y^m + c[i, 0] y^(m-1) + ... + c[i, m-1],
    one row of m roots per row of c, by Aberth-Ehrlich iteration.

    All rows iterate at once (O. Aberth, Math. Comp. 27, 1973; D. A. Bini,
    Numer. Algorithms 13, 1996).  Row i starts on the roots of the binomial
    (y - s)^m + p(s), s = -c[i, 0] / m the mean of the roots, turned by 0.1
    rad so that a real polynomial does not start symmetric under
    conjugation.  A root rests while its correction w is below 4 eps |y|,
    or while p(y) is within the rounding of its Horner evaluation (4 m eps
    times the Horner sum of |c_j| |y|^j) and |w| is at least half the
    correction of the step before: rounding, not distance to the root,
    then drives w.  A row leaves the iteration at the first step at which
    all its roots rest; a row still moving after ABERTH_MAX_STEPS steps
    keeps its iterate.  Every operation is element by element within a row,
    so a row's roots do not depend on the rows it is batched with.
    """
    m = c.shape[1]
    c = c.T  # one row per power, one column per polynomial
    s = -c[0] / m
    ps = s + c[0]
    for cj in c[1:]:
        ps = ps * s + cj
    radius = np.abs(ps) ** (1.0 / m)
    if m > 1 and not radius.all():  # p(s) = 0: a circle through the Cauchy-type bound
        bound = np.max(np.abs(c) ** (1.0 / np.arange(1, m + 1))[:, None], axis=0)
        radius = np.where(radius == 0, bound, radius)
    turn = np.exp(1j * ((2 * np.pi / m) * np.arange(m) + 0.1))[:, None]
    z = s + radius * np.exp(1j * np.angle(-ps) / m) * turn
    out = np.empty_like(z)
    live = np.arange(z.shape[1])
    abs_c = np.abs(c)
    eps = np.finfo(float).eps
    last = np.inf  # |w| of the step before
    # a row whose iterate leaves the finite numbers just runs to the step cap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_MAX_STEPS):
            abs_z = np.abs(z)
            f, df, scale = z + c[0], 1.0, abs_z + abs_c[0]
            for cj, abs_cj in zip(c[1:], abs_c[1:]):
                df = df * z + f
                f = f * z + cj
                scale = scale * abs_z + abs_cj
            newton = f / df
            diff = z[:, None] - z[None, :]  # diff[k, j] = z_k - z_j
            diff.reshape(m * m, -1)[:: m + 1] = np.inf
            recip = np.reciprocal(diff)
            near = recip[:, 0]
            for j in range(1, m):  # in order, so no batch-dependent summation
                near = near + recip[:, j]
            w = newton / (1.0 - newton * near)
            step = np.abs(w)
            rest = (step <= 4 * eps * abs_z) | (
                (np.abs(f) <= 4 * m * eps * scale) & (step >= 0.5 * last))
            done = np.logical_and.reduce(rest, axis=0)
            if np.count_nonzero(done):
                out[:, live[done]] = z[:, done]
                live, keep = live[~done], ~done
                if not len(live):
                    return out.T
                z, w, step, rest = z[:, keep], w[:, keep], step[:, keep], rest[:, keep]
                c, abs_c = c[:, keep], abs_c[:, keep]
            z = np.where(rest, z, z - w)
            last = step
    out[:, live] = z
    return out.T


def _pick_roots(coeffs, pick):
    """Root number pick[i] of row i's polynomial, its roots ordered by their
    distance from ROOT_ORDER_POINT.

    Leading zero coefficients are stripped; trailing ones stand for roots
    at 0, ordered with the rest.  Rows of one stripped degree share one
    `_aberth` call.  The order needs no branch cut, and since the point is
    not real it tells the two roots of a conjugate pair apart.
    """
    nz = coeffs != 0
    lead = nz.argmax(axis=1)
    nroots = coeffs.shape[1] - 1 - lead
    deg = nroots - nz[:, ::-1].argmax(axis=1)
    roots = np.zeros((len(pick), coeffs.shape[1] - 1), dtype=complex)
    for m in sorted(set(deg.tolist()) - {0}):
        rows = (deg == m).nonzero()[0]
        p = coeffs[rows[:, None], lead[rows, None] + np.arange(m + 1)]
        roots[rows, :m] = _aberth(p[:, 1:] / p[:, :1])
    dist = np.abs(roots - ROOT_ORDER_POINT)
    dist[np.arange(roots.shape[1]) >= nroots[:, None]] = np.inf  # no root in these slots
    at = np.arange(len(pick))
    return roots[at, np.argsort(dist, axis=1, kind="stable")[at, pick]]


class _WordStream:
    """A Generator's draws decoded from the raw 64-bit words of its PCG64.

    numpy's Generator reads the stream this way, and so does this class: a
    double (`random`, `uniform`) is (word >> 11) * 2**-53 of one fresh
    word; `integers(k)` for 2 <= k <= 2**32 is Lemire's method on 32-bit
    halves, the low half of a fresh word first and its high half kept for
    the next bounded draw, drawing again while the low half of the product
    is below (2**32 - k) % k; `integers(1)` reads nothing.  Words read
    ahead and not yet used, and the kept half, carry over from one block
    of draws to the next.
    """

    def __init__(self, rng):
        self._raw = rng.bit_generator.random_raw
        self.words = np.empty(0, dtype=np.uint64)  # read ahead, not yet used
        self.half = None  # high half kept by the last bounded draw

    def read(self, count):
        """Make at least `count` words unused, reading the shortfall as one block."""
        if len(self.words) < count:
            self.words = np.concatenate([self.words, self._raw(count - len(self.words))])

    def doubles(self):
        """The double rng.random() would read from each unused word."""
        return (self.words >> 11) * 2.0**-53

    def integer(self, k, pos):
        """rng.integers(k), 1 <= k <= 2**32, with fresh words taken from
        position `pos` on: (value, next position)."""
        if k == 1:
            return 0, pos
        floor = (2**32 - k) % k
        while True:
            if self.half is None:
                if pos == len(self.words):
                    self.read(pos + 1)
                word = int(self.words[pos])
                pos += 1
                low, self.half = word & 0xFFFFFFFF, word >> 32
            else:
                low, self.half = self.half, None
            prod = low * k
            if prod & 0xFFFFFFFF >= floor:
                return prod >> 32, pos

    def used(self, count):
        """Drop the first `count` unused words."""
        self.words = self.words[count:]


def _x_draws(u, mode):
    """x drawn at every position of the doubles u, as rng.uniform reads them.

    Real mode: -2 + 4 u[i].  Complex mode: radius 2 sqrt(u[i]) and angle
    2 pi u[i+1], so the last position starts no draw.
    """
    if mode == "real":
        return (-2.0 + 4.0 * u).astype(complex)
    r = 2.0 * np.sqrt(u[:-1])
    phi = 2.0 * np.pi * u[1:]
    x = np.empty(len(r), dtype=complex)
    x.real = r * np.cos(phi)
    x.imag = r * np.sin(phi)
    return x


class _PointSet:
    """One requested point set: its word stream, the points accepted so far,
    the draw budget spent since the last one, and the error that ended it."""

    def __init__(self, count, seed):
        self.count = count
        self.words = _WordStream(np.random.default_rng(seed))
        self.points: list[CurvePoint] = []
        self.misses = 0  # draws rejected since the last accepted point
        self.error = None

    @property
    def short(self):
        return self.count - len(self.points)


def _accept(model, s: _PointSet, cands):
    """Accept a set's candidates in draw order within its per-point budget;
    the set's error is set when the budget runs out."""
    for x, y, chart, sheet, reason in cands:
        if reason is None and _too_close(x, y, s.points):
            reason = "duplicate of an accepted point"
        if reason is None:
            s.points.append(CurvePoint(model, complex(x), complex(y), chart, sheet))
            s.misses = 0
            continue
        s.misses += 1
        if s.misses == MAX_DRAWS_PER_POINT:
            s.error = SamplingError(
                f"gave up after {MAX_DRAWS_PER_POINT} draws; last rejection: {reason}"
            )
            return


def sample_sets(model, requests, mode: str = "complex"):
    """Draw several point sets, each as `sample_points(model, count, seed,
    mode)` draws it, in one pass.

    `requests` lists (count, seed) pairs.  Every round draws the candidates
    each unfinished set is short of from its own stream and evaluates all
    of them together; then each set accepts its own candidates in its own
    draw order, within its own per-point budget.  The result lists, per
    request, its points, or the `SamplingError` that ended its draws; a
    failing set leaves the others unchanged.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    if any(count < 0 for count, _ in requests):
        raise ValueError("count must be nonnegative")
    draw = getattr(model, "_draw_round", None)
    if draw is None:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    sets = [_PointSet(count, seed) for count, seed in requests]
    pending = [s for s in sets if s.count]
    while pending:
        for s, cands in zip(pending, draw(pending, mode)):
            _accept(model, s, cands)
        pending = [s for s in pending if s.error is None and s.short]
    return [s.error or s.points for s in sets]


def sample_points(model, count: int, seed: int, mode: str = "complex"):
    """Draw `count` distinct generic points of the model, deterministically.

    mode 'complex' draws x from the disk of radius 2, mode 'real' from the
    interval [-2, 2].  Both reject points near chart breakdowns or branch
    points and points indistinct from earlier accepted ones.  This is the
    one-set case of `sample_sets`.
    """
    [points] = sample_sets(model, [(count, seed)], mode)
    if isinstance(points, SamplingError):
        raise points
    return points


def _require(cond, field, message):
    if not cond:
        raise CurveSpecError(f"field {field!r}: {message}")


def _real(v) -> bool:
    """Whether v is a JSON number that a float holds finitely: json reads
    NaN, Infinity and 1e999 as non-finite floats, an integer past the
    float range does not convert, and true and false are bools, which
    Python counts as ints but a spec does not count as numbers."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def parse_curve_spec(text: str):
    """Parse a JSON curve description into a curve model.

    Plane curves: {"type": "plane", "degree": d, "coeffs": [[r, s, re, im], ...]}.
    Hyperelliptic: {"type": "hyperelliptic", "branch_points": [e1, ...]}.
    Errors cite the offending line (syntax) or field (content).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurveSpecError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CurveSpecError("JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise CurveSpecError(str(exc)) from exc
    _require(isinstance(doc, dict), "<root>", "expected a JSON object")
    kind = doc.get("type")
    _require(
        kind in ("plane", "hyperelliptic"),
        "type",
        f"expected 'plane' or 'hyperelliptic', got {kind!r}",
    )
    if kind == "plane":
        _require("degree" in doc, "degree", "missing")
        degree = doc["degree"]
        _require(
            type(degree) is int and degree >= 4,
            "degree",
            f"expected an integer >= 4, got {degree!r}",
        )
        _require("coeffs" in doc, "coeffs", "missing")
        raw = doc["coeffs"]
        _require(isinstance(raw, list) and raw, "coeffs", "expected a nonempty list")
        terms = []
        for i, entry in enumerate(raw):
            field = f"coeffs[{i}]"
            _require(
                isinstance(entry, list) and len(entry) == 4,
                field,
                "expected [r, s, re, im]",
            )
            r, s, re, im = entry
            _require(
                type(r) is int and type(s) is int,
                field,
                "exponents must be integers",
            )
            _require(_real(re) and _real(im), field,
                     f"coefficient parts must be finite numbers, got {re!r}, {im!r}")
            _require(
                0 <= r and 0 <= s and r + s <= degree,
                field,
                f"exponents ({r}, {s}) out of range for degree {degree}",
            )
            terms.append((r, s, complex(re, im)))
        try:
            return PlaneCurve(degree, terms)
        except ValueError as exc:
            raise CurveSpecError(f"field 'coeffs': {exc}") from exc
    _require("branch_points" in doc, "branch_points", "missing")
    raw = doc["branch_points"]
    _require(isinstance(raw, list), "branch_points", "expected a list")
    for i, v in enumerate(raw):
        _require(_real(v), f"branch_points[{i}]", f"expected a finite real number, got {v!r}")
    try:
        return HyperellipticCurve([float(v) for v in raw])
    except ValueError as exc:
        raise CurveSpecError(f"field 'branch_points': {exc}") from exc
