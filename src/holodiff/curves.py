"""Explicit curve models, point sampling and curve description files.

Two families are supported: smooth plane curves F(x, y) = 0 of degree
d >= 4 given by monomial coefficients, and hyperelliptic curves
y^2 = f(x) with f a monic polynomial whose 2g+1 real branch points are
pairwise separated.  Points carry their affine coordinates, a chart tag
saying which coordinate trivializes differentials at that point, and for
hyperelliptic curves a sheet sign.

Sampling is deterministic given a seed: x is drawn from a disk of radius
2 (complex mode) or the interval [-2, 2] (real mode), the remaining
coordinate comes from companion-matrix root finding plus three Newton
steps, and candidates are rejected while they sit too close to a chart
breakdown, a branch point, or a previously accepted point.
"""

from __future__ import annotations

import json
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
    "load_curve_spec",
    "parse_curve_spec",
]

ON_CURVE_RTOL = 1e-10
CHART_RATIO_MIN = 1e-6
MIN_POINT_SEPARATION = 1e-4
MAX_DRAWS_PER_POINT = 50


class CurveSpecError(ValueError):
    """Malformed curve description file; message cites line or field."""


class ChartError(RuntimeError):
    """Requested chart cannot trivialize differentials at the point."""


class SamplingError(RuntimeError):
    """Point sampling exhausted its draw budget."""


class PlaneCurve:
    """Smooth plane curve F(x, y) = 0 of total degree d >= 4."""

    kind = "plane"

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
        self.coeff_scale = float(np.max(np.abs(self._c)))
        self.genus = (self.degree - 1) * (self.degree - 2) // 2

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

    def _y_poly(self, term_values) -> np.ndarray:
        c = np.zeros(self.degree + 1, dtype=complex)
        for s, v in zip(self._s, term_values):
            c[self.degree - s] += v
        return c

    def y_poly_coeffs(self, x: complex) -> np.ndarray:
        """Coefficients of F(x, .) as a polynomial in y, highest power first."""
        return self._y_poly(self._c * np.asarray(x, dtype=complex) ** self._r)

    def fx_y_poly_coeffs(self, x: complex) -> np.ndarray:
        """Coefficients of F_x(x, .) as a polynomial in y, highest power first."""
        xp = np.asarray(x, dtype=complex) ** np.maximum(self._r - 1, 0)
        return self._y_poly(self._c * self._r * xp)

    def __repr__(self) -> str:
        return f"PlaneCurve(degree={self.degree}, genus={self.genus})"


class HyperellipticCurve:
    """Hyperelliptic curve y^2 = prod (x - e_i) with sorted real branch points."""

    kind = "hyperelliptic"

    def __init__(self, branch_points, min_separation: float = 1e-3):
        e = np.asarray(branch_points, dtype=float)
        if e.ndim != 1 or len(e) < 3 or len(e) % 2 == 0:
            raise ValueError(
                f"need an odd number >= 3 of branch points, got {len(e)}"
            )
        if np.any(np.diff(e) <= 0):
            raise ValueError("branch points must be strictly increasing")
        if np.min(np.diff(e)) < min_separation:
            raise ValueError(
                f"branch points closer than the separation floor {min_separation}"
            )
        self.branch_points = tuple(float(v) for v in e)
        self._e = e
        self.genus = (len(e) - 1) // 2
        self.coeff_scale = 1.0

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


def _draw_x(rng, mode: str) -> complex:
    if mode == "real":
        return complex(rng.uniform(-2.0, 2.0))
    r = 2.0 * np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def _horner(coeffs, z: complex) -> complex:
    """Value at z of the polynomial with `coeffs`, highest power first.

    Plain Python complex arithmetic: on one scalar, a NumPy call's
    overhead costs more than the whole loop.
    """
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _sample_plane(model: PlaneCurve, count, rng, mode):
    pts: list[CurvePoint] = []
    last_reason = "no draws attempted"
    for _ in range(count):
        for _ in range(MAX_DRAWS_PER_POINT):
            x = _draw_x(rng, mode)
            coeffs = model.y_poly_coeffs(x)
            nz = np.nonzero(np.abs(coeffs) > 0)[0]
            if len(nz) == 0 or len(coeffs) - 1 - nz[0] < 1:
                last_reason = "no y roots at drawn x"
                continue
            roots = np.roots(coeffs[nz[0] :])
            if len(roots) == 0:
                last_reason = "no y roots at drawn x"
                continue
            y = complex(roots[rng.integers(len(roots))])
            f_coeffs = coeffs.tolist()
            fy_coeffs = np.polyder(coeffs).tolist()
            for _ in range(3):  # Newton polish on the drawn root
                dfy = _horner(fy_coeffs, y)
                if abs(dfy) == 0:
                    break
                y = y - _horner(f_coeffs, y) / dfy
            fv = abs(_horner(f_coeffs, y))
            if fv > ON_CURVE_RTOL * model.on_curve_scale(x, y)[0]:
                last_reason = "root polish left the curve residual too large"
                continue
            gx = abs(_horner(model.fx_y_poly_coeffs(x).tolist(), y))
            gy = abs(_horner(fy_coeffs, y))
            grad = gx + gy
            if grad == 0.0:
                last_reason = "vanishing gradient (singular point)"
                continue
            if gy >= CHART_RATIO_MIN * grad:
                chart = "x"
            elif gx >= CHART_RATIO_MIN * grad:
                chart = "y"
            else:
                last_reason = "near-singular chart"
                continue
            if _too_close(x, y, pts):
                last_reason = "duplicate of an accepted point"
                continue
            pts.append(CurvePoint(model, complex(x), complex(y), chart))
            break
        else:
            raise SamplingError(
                f"gave up after {MAX_DRAWS_PER_POINT} draws; last rejection: {last_reason}"
            )
    return pts


def _sample_hyperelliptic(model: HyperellipticCurve, count, rng, mode, branch_margin):
    pts: list[CurvePoint] = []
    last_reason = "no draws attempted"
    for _ in range(count):
        for _ in range(MAX_DRAWS_PER_POINT):
            x = _draw_x(rng, mode)
            if model.branch_distance(x)[0] < branch_margin:
                last_reason = "too close to a branch point"
                continue
            sheet = 1 if rng.uniform() < 0.5 else -1
            y = sheet * np.sqrt(model.f(x)[0])
            if _too_close(x, y, pts):
                last_reason = "duplicate of an accepted point"
                continue
            pts.append(CurvePoint(model, complex(x), complex(y), "x", sheet))
            break
        else:
            raise SamplingError(
                f"gave up after {MAX_DRAWS_PER_POINT} draws; last rejection: {last_reason}"
            )
    return pts


def sample_points(
    model,
    count: int,
    seed: int,
    mode: str = "complex",
    *,
    branch_margin: float = 0.05,
):
    """Draw `count` distinct generic points of the model, deterministically.

    mode 'complex' draws x from the disk of radius 2, mode 'real' from the
    interval [-2, 2].  Both reject points near chart breakdowns or branch
    points and points indistinct from earlier accepted ones.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    if isinstance(model, PlaneCurve):
        return _sample_plane(model, count, rng, mode)
    if isinstance(model, HyperellipticCurve):
        return _sample_hyperelliptic(model, count, rng, mode, branch_margin)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _require(cond, field, message):
    if not cond:
        raise CurveSpecError(f"field {field!r}: {message}")


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
            isinstance(degree, int) and degree >= 4,
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
                isinstance(r, int) and isinstance(s, int),
                field,
                "exponents must be integers",
            )
            _require(
                isinstance(re, (int, float)) and isinstance(im, (int, float)),
                field,
                "coefficient parts must be numbers",
            )
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
        _require(
            isinstance(v, (int, float)),
            f"branch_points[{i}]",
            f"expected a real number, got {v!r}",
        )
    try:
        return HyperellipticCurve([float(v) for v in raw])
    except ValueError as exc:
        raise CurveSpecError(f"field 'branch_points': {exc}") from exc


def load_curve_spec(path):
    """Load a curve model from a JSON description file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curve_spec(fh.read())
