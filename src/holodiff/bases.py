"""Bases of holomorphic n-differentials on explicit curves.

A weight-n differential is always evaluated as the coefficient of
(dx)^n in the point's own chart ('x'), or of (dy)^n in the 'y' chart.
Every identity verified downstream is a ratio in which this per-point
trivialization choice cancels.

The monomial families and their chart values come from the curve
model.  The module provides bases over them, cardinal bases
normalized to gamma_i(anchor_j) = delta_ij, the product basis of
quadratic differentials built from a cardinal weight-1 basis, and the
expansion table of pair products in that product basis.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .curves import ChartError
from .pairindex import build_pair_index, pair_vector

__all__ = [
    "NonGenericAnchorsError",
    "RankDeficiencyError",
    "DifferentialBasis",
    "PetriBasis",
    "differential_dimension",
    "holomorphic_basis",
    "cardinal_basis",
    "expansion_coefficients",
]

ANCHOR_COND_LIMIT = 1e8


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
        """The model's `chart_values` of the monomials at points of this basis's model."""
        if any(pt.model is not self.model for pt in points):
            raise ValueError("point does not belong to this basis's model")
        return self.model.chart_values(points, self.monomials, self.weight)

    def evaluate_sets(self, point_sets) -> list:
        """Values of the basis on several point sets, from one array pass.

        Per set, in order: its (dim, len(set)) matrix of chart
        coefficients, bit for bit what `evaluate` gives on that set alone,
        or the ChartError naming the set's first point where the chart
        breaks down; a failing set leaves the others unchanged.
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
                out.append(self.coeffs @ values[:, start:stop])
            start = stop
        return out

    def evaluate(self, points) -> np.ndarray:
        """Matrix [basis_i(points_j)] of chart coefficients, shape (dim, len(points));
        the one-set case of `evaluate_sets`, raising its ChartError."""
        [values] = self.evaluate_sets([points])
        if isinstance(values, ChartError):
            raise values
        return values

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
    return DifferentialBasis(model, weight, model.monomials(weight))


def _cardinal(phi: np.ndarray) -> np.ndarray:
    """phi^-1 for the basis values phi at the anchors, refused when phi is
    ill conditioned."""
    phi_inv, cond = linalg.inverse_cond1(phi)
    if not np.isfinite(cond) or cond > ANCHOR_COND_LIMIT:
        raise NonGenericAnchorsError("non-generic anchors", cond)
    return phi_inv


def cardinal_basis(basis: DifferentialBasis, anchors) -> DifferentialBasis:
    """Basis gamma with gamma_i(anchor_j) = delta_ij.

    Independent of which basis spans the input space: two inputs related
    by an invertible matrix produce identical cardinal bases.
    """
    if len(anchors) != basis.dim:
        raise ValueError(f"need {basis.dim} anchors, got {len(anchors)}")
    return basis.transform(_cardinal(basis.evaluate(anchors)))


class PetriBasis:
    """Cardinal weight-1 basis sigma plus its quadratic product family.

    Built from `omega_anchors`, the values of the weight-1 basis `omega`
    at the g anchors: sigma = phi^-1 omega with phi = omega_anchors, so
    sigma at any points is phi^-1 times omega's columns there.  The first
    N = 3g-3 product slots form the distinguished quadratic basis v; all
    M = g(g+1)/2 products are exposed for relation work.  The rank
    certificate is set by `certify`.
    """

    def __init__(self, omega: DifferentialBasis, omega_anchors):
        g = omega.model.genus
        if g < 2:
            raise ValueError("product bases need genus >= 2")
        if omega_anchors.shape[1] != g:
            raise ValueError(f"need {g} anchors, got {omega_anchors.shape[1]}")
        self.omega = omega
        self.omega_anchors = omega_anchors
        self.phi_inv = _cardinal(omega_anchors)
        self.rank_certificate = -1
        self.pm = build_pair_index(g)

    @property
    def genus(self) -> int:
        return self.pm.g

    @property
    def v_dim(self) -> int:
        return 3 * self.genus - 3

    def products(self, omega_values) -> np.ndarray:
        """All M pair products sigma_a * sigma_b, slot order, at the points
        whose omega columns are `omega_values`."""
        return pair_vector(self.phi_inv @ omega_values, self.pm)

    def v_matrix(self, omega_values) -> np.ndarray:
        """The first 3g-3 product rows (the quadratic basis) at those points."""
        return self.products(omega_values)[: self.v_dim]

    def certify(self, omega_certificate) -> int:
        """Set and return the rank certificate: the numerical rank of the
        first 3g-3 products at the 3g-3 points whose omega columns are
        `omega_certificate`.  A canonical model must certify at full rank;
        other models report whatever rank the products actually have.
        """
        vmat = self.v_matrix(omega_certificate)
        self.rank_certificate = linalg.numerical_rank(linalg.scale_rows(vmat))
        if self.omega.model.canonical and self.rank_certificate < self.v_dim:
            raise RankDeficiencyError(
                f"unexpected rank deficiency: certified {self.rank_certificate} < {self.v_dim}",
                self.rank_certificate,
            )
        return self.rank_certificate


def expansion_coefficients(petri: PetriBasis, nodes) -> np.ndarray:
    """Table of product expansions in the quadratic basis, shape (M, N).

    Row i holds the coordinates of omega_a*omega_b (pair slot i) in the
    v basis, solved from point evaluation at the N nodes.  The table is
    node-set independent because both sides are global sections.
    """
    n = petri.v_dim
    if len(nodes) != n:
        raise ValueError(f"need exactly {n} nodes, got {len(nodes)}")
    om = petri.omega.evaluate(nodes)
    vmat = petri.v_matrix(om)
    u = pair_vector(om, petri.pm)
    return linalg.solve(vmat.T, u.T).T
