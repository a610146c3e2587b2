"""Bases of holomorphic n-differentials on explicit curves.

A weight-n differential is always evaluated as the coefficient of
(dx)^n in the point's own chart ('x'), or of (dy)^n in the 'y' chart.
Every identity verified downstream is a ratio in which this per-point
trivialization choice cancels.

The module provides the raw monomial families, cardinal bases
normalized to gamma_i(anchor_j) = delta_ij, the product basis of
quadratic differentials built from a cardinal weight-1 basis, and the
expansion table of pair products in that product basis.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .curves import HyperellipticCurve, PlaneCurve, ChartError, SamplingError, sample_points
from .pairindex import PairIndexMap, build_pair_index

__all__ = [
    "NonGenericAnchorsError",
    "RankDeficiencyError",
    "DifferentialBasis",
    "PetriBasis",
    "differential_dimension",
    "holomorphic_basis",
    "cardinal_basis",
    "petri_basis",
    "pair_products",
    "expansion_coefficients",
]

ANCHOR_COND_LIMIT = 1e8
CHART_FLOOR = 1e-10
CERTIFICATE_SEED = 104729  # petri_basis draws its certificate points here by default


class NonGenericAnchorsError(RuntimeError):
    """Anchor points too degenerate to normalize a basis on."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class RankDeficiencyError(RuntimeError):
    """A spanning certificate came out below the expected rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


def differential_dimension(genus: int, weight: int) -> int:
    """Dimension (2n-1)(g-1) + [n=1] of the weight-n differential space."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    if weight == 1:
        return genus
    if genus < 2:
        raise ValueError("weight >= 2 requires genus >= 2")
    return (2 * weight - 1) * (genus - 1)


def _plane_monomials(degree: int) -> list[tuple[int, int]]:
    return [
        (r, s)
        for r in range(degree - 2)
        for s in range(degree - 2 - r)
    ]


def _hyperelliptic_monomials(genus: int, weight: int) -> list[tuple[int, int]]:
    # x^j (dx)^n / y^n is holomorphic up to j = n(g-1); the y^(n-1) family
    # only exists once n(2g-2) clears the ramification weight 2g+1.
    mono = [(j, weight) for j in range(weight * (genus - 1) + 1)]
    extra = weight * (2 * genus - 2) - (2 * genus + 1)
    if extra >= 0:
        mono.extend((j, weight - 1) for j in range(extra // 2 + 1))
    return mono


class DifferentialBasis:
    """Linear combinations of a monomial differential family on one model."""

    def __init__(self, model, weight: int, monomials, coeffs=None):
        self.model = model
        self.weight = int(weight)
        self.monomials = tuple(monomials)
        if coeffs is None:
            coeffs = np.eye(len(self.monomials), dtype=complex)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != len(self.monomials):
            raise ValueError("coefficient matrix does not match the monomial family")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def _raw_values(self, points):
        """Monomial values, shape (len(monomials), len(points)), in one array
        pass, with the chart test: (values, flagged points, name of the
        tested quantity, its values)."""
        if any(pt.model is not self.model for pt in points):
            raise ValueError("point does not belong to this basis's model")
        x = np.array([pt.x for pt in points], dtype=complex)
        y = np.array([pt.y for pt in points], dtype=complex)
        a, b = (np.array(e)[:, None] for e in zip(*self.monomials))
        model = self.model
        if isinstance(model, PlaneCurve):
            on_x = np.array([pt.chart == "x" for pt in points], dtype=bool)
            denom = np.where(on_x, model.fy(x, y), model.fx(x, y))
            big = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
            scale = model.coeff_scale * big ** (model.degree - 1)
            sign = np.where(on_x, 1.0, (-1.0) ** self.weight)
            with np.errstate(divide="ignore", invalid="ignore"):  # flagged points
                values = sign * x**a * y**b / denom**self.weight
            return values, np.abs(denom) < CHART_FLOOR * scale, "|denominator|", denom
        # hyperelliptic: x^j / y^m
        bad = np.zeros(len(points), dtype=bool)
        if np.any(b > 0):
            bad = np.abs(y) < CHART_FLOOR * np.sqrt(model.on_curve_scale(x, y))
        with np.errstate(divide="ignore", invalid="ignore"):
            return x**a / y**b, bad, "|y|", y

    def raw_sets(self, point_sets) -> list:
        """Monomial values of several point sets in one array pass.

        Per set, in order: its (len(monomials), len(set)) array, as a pass
        over that set alone gives it, or the ChartError naming the set's
        first point where the chart breaks down; a failing set leaves the
        others unchanged.  Any basis on this monomial family turns a slot
        into its own values through `evaluate(points, raw)`.
        """
        points = [pt for pts in point_sets for pt in pts]
        values, bad, what, tested = self._raw_values(points)
        out, start = [], 0
        for pts in point_sets:
            stop = start + len(pts)
            flagged = np.flatnonzero(bad[start:stop])
            if len(flagged):
                i = start + int(flagged[0])
                out.append(ChartError(
                    f"chart breakdown at {points[i]!r}: {what} = {abs(tested[i]):.3e}"))
            else:
                out.append(values[:, start:stop].copy())
            start = stop
        return out

    def evaluate(self, points, raw=None) -> np.ndarray:
        """Matrix [basis_i(points_j)] of chart coefficients, shape (dim, len(points)).

        The coefficients are applied to `raw`, the points' slot of a
        `raw_sets` pass (a ChartError slot is raised), or, when no slot is
        given, to the one-set pass `raw_sets([points])`.
        """
        if raw is None:
            [raw] = self.raw_sets([points])
        if isinstance(raw, ChartError):
            raise raw
        if raw.shape != (len(self.monomials), len(points)):
            raise ValueError(f"monomial values of shape {raw.shape} do not match "
                             f"{len(self.monomials)} monomials at {len(points)} points")
        return self.coeffs @ raw

    def transform(self, matrix) -> "DifferentialBasis":
        """New basis whose elements are rows of `matrix` applied to this one."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(
                f"transform matrix needs {self.dim} columns, got shape {matrix.shape}"
            )
        return DifferentialBasis(self.model, self.weight, self.monomials, matrix @ self.coeffs)


def holomorphic_basis(model, weight: int = 1) -> DifferentialBasis:
    """The monomial basis of holomorphic weight-n differentials on the model."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    if isinstance(model, PlaneCurve):
        if weight != 1:
            raise ValueError("plane models only carry the weight-1 monomial family")
        return DifferentialBasis(model, 1, _plane_monomials(model.degree))
    if isinstance(model, HyperellipticCurve):
        if weight >= 2 and model.genus < 2:
            raise ValueError("weight >= 2 requires genus >= 2")
        return DifferentialBasis(model, weight, _hyperelliptic_monomials(model.genus, weight))
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _cardinal(basis: DifferentialBasis, anchors, raw=None):
    """(cardinal basis at the anchors, condition number of the evaluation);
    `raw` is the anchors' slot of a `raw_sets` pass, if there was one."""
    phi_inv, cond = linalg.inverse_cond1(basis.evaluate(anchors, raw))
    if not np.isfinite(cond) or cond > ANCHOR_COND_LIMIT:
        raise NonGenericAnchorsError("non-generic anchors", cond)
    return basis.transform(phi_inv), cond


def cardinal_basis(basis: DifferentialBasis, anchors) -> DifferentialBasis:
    """Basis gamma with gamma_i(anchor_j) = delta_ij.

    Independent of which basis spans the input space: two inputs related
    by an invertible matrix produce identical cardinal bases.
    """
    if len(anchors) != basis.dim:
        raise ValueError(f"need {basis.dim} anchors, got {len(anchors)}")
    return _cardinal(basis, anchors)[0]


def pair_products(values: np.ndarray, pm: PairIndexMap) -> np.ndarray:
    """Rows of pairwise products: out[i] = values[first_i] * values[second_i].

    `values` has g rows (one per element); works on vectors and matrices.
    """
    values = np.asarray(values)
    if values.shape[0] != pm.g:
        raise ValueError(f"expected {pm.g} rows, got {values.shape[0]}")
    return values[pm.first] * values[pm.second]


class PetriBasis:
    """Cardinal weight-1 basis sigma plus its quadratic product family.

    The first N = 3g-3 product slots form the distinguished quadratic
    basis v; all M = g(g+1)/2 products are exposed for relation work.
    """

    def __init__(self, model, anchors, sigma, omega, sigma_coeffs, condition, rank):
        self.model = model
        self.anchors = tuple(anchors)
        self.sigma = sigma
        self.omega = omega
        self.sigma_coeffs = sigma_coeffs
        self.anchor_condition = condition
        self.rank_certificate = rank
        self.pm = build_pair_index(model.genus)

    @property
    def genus(self) -> int:
        return self.model.genus

    @property
    def v_dim(self) -> int:
        return 3 * self.genus - 3

    def products(self, points, raw=None) -> np.ndarray:
        """All M pair products sigma_a * sigma_b at the points, slot order;
        `raw` as in `DifferentialBasis.evaluate`."""
        sig = self.sigma.evaluate(points, raw)
        return pair_products(sig, self.pm)

    def v_matrix(self, points, raw=None) -> np.ndarray:
        """The first 3g-3 product rows (the quadratic basis) at the points."""
        return self.products(points, raw)[: self.v_dim]


def petri_basis(model, anchors, *, certificate=None, anchor_raw=None,
                certificate_raw=None) -> PetriBasis:
    """Build the cardinal sigma basis and certify the span of its products.

    The rank certificate is the numerical rank of the first 3g-3 products
    over the 3g-3 points `certificate`, by default drawn at
    CERTIFICATE_SEED.  A `SamplingError` given as `certificate` is raised
    once the anchors pass, where the default points would be drawn.  A
    plane model must certify at full rank; other models report whatever
    rank the products actually have.

    `anchor_raw` and `certificate_raw` are the two sets' slots of one
    `raw_sets` pass of the holomorphic basis: the anchors' columns go
    through phi^-1 and the certificate's through sigma's coefficients, and
    a ChartError slot is raised where that set's evaluation would raise.
    Without them each set is evaluated on its own.
    """
    g = model.genus
    if g < 2:
        raise ValueError("product bases need genus >= 2")
    if len(anchors) != g:
        raise ValueError(f"need {g} anchors, got {len(anchors)}")
    omega = holomorphic_basis(model, 1)
    sigma, cond = _cardinal(omega, anchors, anchor_raw)
    petri = PetriBasis(model, anchors, sigma, omega, sigma.coeffs, cond, rank=-1)
    if certificate is None:
        certificate = sample_points(model, 3 * g - 3, CERTIFICATE_SEED)
    elif isinstance(certificate, SamplingError):
        raise certificate
    vmat = petri.v_matrix(certificate, certificate_raw)
    petri.rank_certificate = linalg.numerical_rank(linalg.scale_rows(vmat))
    if isinstance(model, PlaneCurve) and petri.rank_certificate < petri.v_dim:
        raise RankDeficiencyError(
            f"unexpected rank deficiency: certified {petri.rank_certificate} < {petri.v_dim}",
            petri.rank_certificate,
        )
    return petri


def expansion_coefficients(petri: PetriBasis, nodes) -> np.ndarray:
    """Table of product expansions in the quadratic basis, shape (M, N).

    Row i holds the coordinates of omega_a*omega_b (pair slot i) in the
    v basis, solved from point evaluation at the N nodes.  The table is
    node-set independent because both sides are global sections.
    """
    n = petri.v_dim
    if len(nodes) != n:
        raise ValueError(f"need exactly {n} nodes, got {len(nodes)}")
    vmat = petri.v_matrix(nodes)
    om = petri.omega.evaluate(nodes)
    u = pair_products(om, petri.pm)
    return linalg.solve(vmat.T, u.T).T
