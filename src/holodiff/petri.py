"""Determinantal quadric relations among products of weight-1 differentials.

Given g base points p and 2g-2 probe points q on a curve, the tensor
a[i,j,r] multiplies the two determinants obtained by substituting q_r
for p_i (resp. p_j) in the base evaluation matrix.  Arranging chosen
columns a[.,.,r] into square matrices A(k,l) yields determinants that
vanish identically on curves; expanding a replaced row recovers the
explicit coefficients of the quadric relations satisfied by the
products omega_i * omega_j.

All vanishing tests are ratios against Hadamard bounds, never absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .bases import PetriBasis, holomorphic_basis, pair_products
from .pairindex import build_pair_index

__all__ = [
    "DegenerateRowError",
    "RelationRankError",
    "RelationInput",
    "RelationCoefficients",
    "RelationSet",
    "relation_labels",
    "fixed_column_labels",
    "substituted_determinants",
    "minor_table",
    "a_tensor",
    "build_A",
    "verify_theorem1",
    "verify_block_singular",
    "relation_coefficients",
    "coefficients_from_matrices",
    "annihilation_residual",
    "build_relation_set",
]

DET_TOL = 1e-8
DELTA_RTOL = 1e-10
RANK_RTOL = 1e-8


class DegenerateRowError(RuntimeError):
    """The normalizing cofactor for the chosen row vanished."""


class RelationRankError(RuntimeError):
    """The extracted relations do not span the expected rank."""

    def __init__(self, message: str, offending_labels):
        super().__init__(message)
        self.offending_labels = tuple(offending_labels)


class RelationInput:
    """Evaluation data for the relation machinery: base and probe points."""

    def __init__(self, model, p_points, q_points, basis=None):
        g = model.genus
        if len(p_points) != g:
            raise ValueError(f"need {g} base points, got {len(p_points)}")
        if len(q_points) != 2 * g - 2:
            raise ValueError(f"need {2 * g - 2} probe points, got {len(q_points)}")
        self.model = model
        self.basis = holomorphic_basis(model, 1) if basis is None else basis
        self.p_points = tuple(p_points)
        self.q_points = tuple(q_points)
        self.omega_p = self.basis.evaluate(self.p_points)
        self.omega_q = self.basis.evaluate(self.q_points)
        self.det_p, self.hadamard_p = linalg.det_with_bound(self.omega_p)
        if abs(self.det_p) < 1e-12 * max(self.hadamard_p, 1e-300):
            raise linalg.DegenerateMatrixError(
                "base-point evaluation matrix is singular", abs(self.det_p)
            )

    @property
    def genus(self) -> int:
        return self.model.genus


def relation_labels(g: int) -> list[tuple[int, int]]:
    """All admissible labels (k,l), 3 <= k < l <= g; empty below genus 4."""
    return [(k, l) for k in range(3, g + 1) for l in range(k + 1, g + 1)]


def fixed_column_labels(g: int) -> list[tuple[int, int]]:
    """The 2g-3 fixed column labels (1,2)..(1,g),(2,3)..(2,g)."""
    return [(1, b) for b in range(2, g + 1)] + [(2, b) for b in range(3, g + 1)]


def substituted_determinants(inp: RelationInput) -> np.ndarray:
    """d[i,r] = det of the base matrix with column i replaced by probe r.

    Computed through the solved system d = det_p * (omega_p^-1 omega_q),
    one elimination for all (i, r) at once.
    """
    return inp.det_p * linalg.solve(inp.omega_p, inp.omega_q)


def minor_table(inp: RelationInput) -> np.ndarray:
    """D[m,i]: signed minors of the transposed base evaluation matrix.

    Contracting D with probe values reproduces substituted_determinants:
    (D @ omega_q)[m,r] = d[m,r].
    """
    return inp.det_p * linalg.inverse(inp.omega_p)


def a_tensor(inp: RelationInput) -> np.ndarray:
    """a[i,j,r]: product of the two point-substituted determinants."""
    d = substituted_determinants(inp)
    return np.einsum("ir,jr->ijr", d, d)


def build_A(inp: RelationInput, k: int, l: int, a=None) -> np.ndarray:
    """(2g-2) x (2g-2) matrix with columns a[.,.,r] over the fixed labels plus (k,l)."""
    g = inp.genus
    if g < 4:
        raise ValueError("labels need genus >= 4")
    if not (3 <= k < l <= g):
        raise ValueError(f"label ({k}, {l}) out of range: need 3 <= k < l <= {g}")
    if a is None:
        a = a_tensor(inp)
    cols = fixed_column_labels(g) + [(k, l)]
    out = np.empty((2 * g - 2, 2 * g - 2), dtype=complex)
    for c, (i, j) in enumerate(cols):
        out[:, c] = a[i - 1, j - 1, :]
    return out


def verify_theorem1(inp: RelationInput, tol: float = DET_TOL):
    """Determinant-to-Hadamard ratios of every labeled matrix, plus overall PASS."""
    a = a_tensor(inp)
    ratios = []
    for k, l in relation_labels(inp.genus):
        mat = build_A(inp, k, l, a)
        det, bound = linalg.det_with_bound(mat)
        ratios.append(((k, l), abs(det) / max(bound, 1e-300)))
    ok = all(r <= tol for _, r in ratios)
    return ratios, ok


@dataclass
class BlockReport:
    """Residuals of the stacked point-evaluation singularity check."""

    label: tuple[int, int]
    det_ratio: float
    identity_dev: float
    zero_dev: float
    proportionality_dev: float


def verify_block_singular(inp: RelationInput, petri: PetriBasis, k: int, l: int) -> BlockReport:
    """Stack the quadratic basis and one extra product at all points.

    Columns are v_1..v_N, sigma_k*sigma_l; rows are values at the base
    points then the probes.  The matrix is singular, its top-left block
    is the identity, its top-right block vanishes, and its bottom-right
    block is proportional to the labeled determinant matrix by
    1/det(base evaluation)^2.
    """
    g = inp.genus
    if petri.anchors != inp.p_points:
        raise ValueError("product basis must be anchored at the same base points")
    if not (3 <= k < l <= g):
        raise ValueError(f"label ({k}, {l}) out of range: need 3 <= k < l <= {g}")
    points = list(inp.p_points) + list(inp.q_points)
    prods = petri.products(points)
    n = petri.v_dim
    pm = petri.pm
    big = np.empty((3 * g - 2, 3 * g - 2), dtype=complex)
    big[:, :n] = prods[:n].T
    big[:, n] = prods[pm.slot_of(k, l) - 1].T
    det, bound = linalg.det_with_bound(big)
    det_ratio = abs(det) / max(bound, 1e-300)
    identity_dev = float(np.max(np.abs(big[:g, :g] - np.eye(g))))
    zero_dev = float(np.max(np.abs(big[:g, g:])))
    lower_right = big[g:, g:]
    amat = build_A(inp, k, l)
    target = amat / inp.det_p**2
    prop_dev = float(np.max(np.abs(lower_right - target)) / max(np.max(np.abs(target)), 1e-300))
    return BlockReport((k, l), det_ratio, identity_dev, zero_dev, prop_dev)


@dataclass
class RelationCoefficients:
    """One quadric relation: symmetrized coefficients plus raw provenance."""

    label: tuple[int, int]
    row: int
    coefficients: np.ndarray
    raw: np.ndarray
    delta: complex


def coefficients_from_matrices(amat: np.ndarray, dmat: np.ndarray, row: int, g: int,
                               k: int, l: int) -> RelationCoefficients:
    """Relation coefficients by expanding a replaced row of the labeled matrix.

    Row `row` (1-based) of the labeled matrix is replaced, per column
    label (a,b), by D[a,i]*D[b,j]; the determinant is expanded along that
    row through the cofactors of the original matrix, and normalized by
    the cofactor of the last column.

    The cofactor row of `row` spans the null space of the matrix with
    that row deleted, so by Cramer's rule the normalized row cof/delta is
    the null vector whose last entry is 1: one solve, not one elimination
    per cofactor.  Only delta = cof[-1] is computed as a minor.
    """
    size = amat.shape[0]
    if not 1 <= row <= size:
        raise ValueError(f"row must be in 1..{size}, got {row}")
    r0 = row - 1
    delta = linalg.signed_minor(amat, r0, size - 1)
    rest = np.delete(amat, r0, axis=0)
    try:
        y = linalg.solve(rest[:, :-1], -rest[:, -1])
    except linalg.DegenerateMatrixError:
        y = None
    # max|cof| / |delta| = max(1, max|y|)
    if y is None or np.max(np.abs(y)) > 1.0 / DELTA_RTOL:
        raise DegenerateRowError(
            f"normalizing cofactor vanished for row {row}; try a different row"
        )
    ratios = np.append(y, 1.0)
    labels = fixed_column_labels(g) + [(k, l)]
    raw = np.zeros((g, g), dtype=complex)
    for c, (a, b) in enumerate(labels):
        raw += ratios[c] * np.outer(dmat[a - 1], dmat[b - 1])
    return RelationCoefficients((k, l), row, (raw + raw.T) / 2, raw, delta)


def relation_coefficients(inp: RelationInput, row: int, k: int, l: int) -> RelationCoefficients:
    """Extract the symmetric quadric-relation coefficients for one label."""
    amat = build_A(inp, k, l)
    dmat = minor_table(inp)
    return coefficients_from_matrices(amat, dmat, row, inp.genus, k, l)


def annihilation_residual(coeff: np.ndarray, omega_values: np.ndarray) -> np.ndarray:
    """Per-point relative residual of sum_ij c_ij w_i(z) w_j(z).

    `omega_values` has one column per evaluation point.  The scale is
    the largest coefficient magnitude times the squared largest basis
    value at each point.
    """
    quad = np.einsum("ij,ip,jp->p", coeff, omega_values, omega_values)
    scale = np.max(np.abs(coeff)) * np.max(np.abs(omega_values), axis=0) ** 2
    return np.abs(quad) / np.maximum(scale, 1e-300)


@dataclass
class RelationSet:
    """All quadric relations of one input, with a spanning certificate."""

    genus: int
    labels: tuple
    coefficients: dict
    rank: int
    provenance: dict = field(default_factory=dict)

    @property
    def expected_rank(self) -> int:
        g = self.genus
        return (g - 2) * (g - 3) // 2


def build_relation_set(inp: RelationInput, row: int = 1, provenance=None) -> RelationSet:
    """Extract every label's coefficients and certify their joint rank."""
    g = inp.genus
    labels = relation_labels(g)
    amats = {}
    a = a_tensor(inp)
    dmat = minor_table(inp)
    coeffs = {}
    for k, l in labels:
        amats[(k, l)] = build_A(inp, k, l, a)
        coeffs[(k, l)] = coefficients_from_matrices(amats[(k, l)], dmat, row, g, k, l)
    pm = build_pair_index(g)
    rank = 0
    if labels:
        flat = np.empty((len(labels), pm.m), dtype=complex)
        for idx, lab in enumerate(labels):
            c = coeffs[lab].coefficients
            flat[idx] = c[pm.first, pm.second]
        pivots = linalg.pivot_rows(linalg.scale_rows(flat), rtol=RANK_RTOL)
        rank = len(pivots)
        expected = (g - 2) * (g - 3) // 2
        if rank < expected:
            bad = [lab for idx, lab in enumerate(labels) if idx not in pivots]
            raise RelationRankError(
                f"relation rank {rank} below expected {expected}; "
                f"dependent labels: {bad}",
                bad,
            )
    prov = {"row": row}
    if provenance:
        prov.update(provenance)
    return RelationSet(g, tuple(labels), coeffs, rank, prov)

