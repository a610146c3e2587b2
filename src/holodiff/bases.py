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
from .curves import CurvePoint, HyperellipticCurve, PlaneCurve, ChartError, sample_points
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
    "product_layout",
]

ANCHOR_COND_LIMIT = 1e8
RANK_RTOL = 1e-8
CHART_FLOOR = 1e-10


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

    def element_names(self) -> list[str]:
        names = []
        if isinstance(self.model, PlaneCurve):
            for r, s in self.monomials:
                names.append(f"x^{r} y^{s} (dx)^{self.weight} / F_y^{self.weight}")
        else:
            for j, m in self.monomials:
                names.append(f"x^{j} (dx)^{self.weight} / y^{m}")
        return names

    def _raw_values(self, points) -> np.ndarray:
        vals = np.empty((len(self.monomials), len(points)), dtype=complex)
        for col, pt in enumerate(points):
            if pt.model is not self.model:
                raise ValueError("point does not belong to this basis's model")
            vals[:, col] = self._raw_at(pt)
        return vals

    def _raw_at(self, pt: CurvePoint) -> np.ndarray:
        if isinstance(self.model, PlaneCurve):
            return self._raw_plane(pt)
        return self._raw_hyperelliptic(pt)

    def _raw_plane(self, pt: CurvePoint) -> np.ndarray:
        model = self.model
        x, y = pt.x, pt.y
        scale = model.coeff_scale * max(1.0, abs(x), abs(y)) ** (model.degree - 1)
        if pt.chart == "x":
            denom = model.fy(x, y)[0]
            sign = 1.0
        else:
            denom = model.fx(x, y)[0]
            sign = (-1.0) ** self.weight
        if abs(denom) < CHART_FLOOR * scale:
            raise ChartError(f"chart breakdown at {pt!r}: |denominator| = {abs(denom):.3e}")
        out = np.empty(len(self.monomials), dtype=complex)
        for t, (r, s) in enumerate(self.monomials):
            out[t] = sign * (x**r) * (y**s) / denom**self.weight
        return out

    def _raw_hyperelliptic(self, pt: CurvePoint) -> np.ndarray:
        x, y = pt.x, pt.y
        scale = np.sqrt(self.model.on_curve_scale(x, y)[0])
        out = np.empty(len(self.monomials), dtype=complex)
        for t, (j, m) in enumerate(self.monomials):
            if m > 0 and abs(y) < CHART_FLOOR * scale:
                raise ChartError(f"chart breakdown at {pt!r}: |y| = {abs(y):.3e}")
            out[t] = x**j / y**m if m > 0 else x**j
        return out

    def evaluate(self, points) -> np.ndarray:
        """Matrix [basis_i(points_j)] of chart coefficients, shape (dim, len(points))."""
        return self.coeffs @ self._raw_values(points)

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


def _cardinal(basis: DifferentialBasis, anchors):
    """(cardinal basis at the anchors, condition number of the evaluation)."""
    phi = basis.evaluate(anchors)
    cond = linalg.cond1(phi)
    if not np.isfinite(cond) or cond > ANCHOR_COND_LIMIT:
        raise NonGenericAnchorsError("non-generic anchors", cond)
    return basis.transform(linalg.inverse(phi)), cond


def cardinal_basis(basis: DifferentialBasis, anchors) -> DifferentialBasis:
    """Basis gamma with gamma_i(anchor_j) = delta_ij.

    Independent of which basis spans the input space: two inputs related
    by an invertible matrix produce identical cardinal bases.
    """
    if len(anchors) != basis.dim:
        raise ValueError(f"need {basis.dim} anchors, got {len(anchors)}")
    return _cardinal(basis, anchors)[0]


def product_layout(g: int) -> list[tuple[int, int]]:
    """Slot order of the product basis: squares first, then staggered pairs.

    Slot i <= g holds the pair (i, i); slot i = k + j(2g - j + 1)/2 holds
    (j, j + k).  The result coincides with the PairIndexMap tuple order.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    layout: dict[int, tuple[int, int]] = {i: (i, i) for i in range(1, g + 1)}
    for j in range(1, g):
        for k in range(1, g - j + 1):
            layout[k + j * (2 * g - j + 1) // 2] = (j, j + k)
    m = g * (g + 1) // 2
    if sorted(layout) != list(range(1, m + 1)):
        raise AssertionError("slot formula failed to enumerate 1..M")
    return [layout[i] for i in range(1, m + 1)]


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

    def products(self, points) -> np.ndarray:
        """All M pair products sigma_a * sigma_b at the points, slot order."""
        sig = self.sigma.evaluate(points)
        return pair_products(sig, self.pm)

    def v_matrix(self, points) -> np.ndarray:
        """The first 3g-3 product rows (the quadratic basis) at the points."""
        return self.products(points)[: self.v_dim]


def _product_rank(petri: PetriBasis, points) -> int:
    return linalg.numerical_rank(linalg.scale_rows(petri.v_matrix(points)), rtol=RANK_RTOL)


def petri_basis(model, anchors, *, certificate_seed: int = 104729, fresh_points=None) -> PetriBasis:
    """Build the cardinal sigma basis and certify the span of its products.

    The rank certificate is the numerical rank of the first 3g-3 products
    over 3g-3 fresh sample points.  A plane model must certify at full
    rank; other models report whatever rank the products actually have.
    """
    g = model.genus
    if g < 2:
        raise ValueError("product bases need genus >= 2")
    if len(anchors) != g:
        raise ValueError(f"need {g} anchors, got {len(anchors)}")
    omega = holomorphic_basis(model, 1)
    sigma, cond = _cardinal(omega, anchors)
    petri = PetriBasis(model, anchors, sigma, omega, sigma.coeffs, cond, rank=-1)
    if fresh_points is None:
        fresh_points = sample_points(model, 3 * g - 3, certificate_seed)
    petri.rank_certificate = _product_rank(petri, fresh_points)
    if isinstance(model, PlaneCurve) and petri.rank_certificate < petri.v_dim:
        raise RankDeficiencyError(
            f"unexpected rank deficiency: certified {petri.rank_certificate} < {petri.v_dim}",
            petri.rank_certificate,
        )
    return petri


def expansion_coefficients(petri: PetriBasis, nodes, omega_basis=None) -> np.ndarray:
    """Table of product expansions in the quadratic basis, shape (M, N).

    Row i holds the coordinates of omega_a*omega_b (pair slot i) in the
    v basis, solved from point evaluation at the N nodes.  The table is
    node-set independent because both sides are global sections.
    """
    n = petri.v_dim
    if len(nodes) != n:
        raise ValueError(f"need exactly {n} nodes, got {len(nodes)}")
    vmat = petri.v_matrix(nodes)
    basis = petri.omega if omega_basis is None else omega_basis
    if basis.dim != petri.genus:
        raise ValueError("omega basis must have one element per genus dimension")
    om = basis.evaluate(nodes)
    u = pair_products(om, petri.pm)
    return linalg.solve(vmat.T, u.T).T
