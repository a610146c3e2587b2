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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import PetriBasis
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
    "label_relations",
    "annihilation_residual",
    "build_relation_set",
]

DELTA_RTOL = 1e-10
EXPANDED_ROW = 1  # the replaced row label_relations expands every label along


class DegenerateRowError(RuntimeError):
    """The normalizing cofactor for the chosen row vanished."""


class RelationRankError(RuntimeError):
    """The extracted relations do not span the expected rank."""

    def __init__(self, message: str, offending_labels):
        super().__init__(message)
        self.offending_labels = tuple(offending_labels)


class RelationInput:
    """Evaluation data for the relation machinery.

    `omega_p` and `omega_q` hold the values of a basis of holomorphic
    differentials, one column per point, at the g base points and at the
    2g-2 probe points; the genus is read from their shape.
    """

    def __init__(self, omega_p, omega_q):
        g = omega_p.shape[0]
        if omega_p.shape[1] != g:
            raise ValueError(f"need {g} base points, got {omega_p.shape[1]}")
        if omega_q.shape[1] != 2 * g - 2:
            raise ValueError(f"need {2 * g - 2} probe points, got {omega_q.shape[1]}")
        self.omega_p, self.omega_q = omega_p, omega_q
        self.det_p = linalg.det(self.omega_p)
        ratio = linalg.hadamard_ratio(self.omega_p)
        if ratio < 1e-12:
            raise linalg.DegenerateMatrixError(
                "base-point evaluation matrix is singular", ratio
            )

    @property
    def genus(self) -> int:
        return self.omega_p.shape[0]


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


def _column_pairs(g: int, labels) -> np.ndarray:
    """(L, 2g-2, 2) 0-based pair members of the columns of each label's matrix:
    the fixed labels, then the label itself."""
    fixed = fixed_column_labels(g)
    cols = np.array([fixed + [lab] for lab in labels], dtype=np.intp)
    return cols.reshape(len(labels), len(fixed) + 1, 2) - 1


def _labeled_matrices(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (L, 2g-2, 2g-2) stack of matrices with columns a[i,j,.] over `cols`."""
    return a[cols[..., 0], cols[..., 1]].transpose(0, 2, 1)


def build_A(inp: RelationInput, k: int, l: int) -> np.ndarray:
    """(2g-2) x (2g-2) matrix with columns a[.,.,r] over the fixed labels plus (k,l)."""
    g = inp.genus
    if g < 4:
        raise ValueError("labels need genus >= 4")
    if not (3 <= k < l <= g):
        raise ValueError(f"label ({k}, {l}) out of range: need 3 <= k < l <= {g}")
    return _labeled_matrices(a_tensor(inp), _column_pairs(g, [(k, l)]))[0]


def verify_theorem1(inp: RelationInput) -> list:
    """(label, determinant-to-Hadamard ratio) of every labeled matrix."""
    labels = relation_labels(inp.genus)
    amats = _labeled_matrices(a_tensor(inp), _column_pairs(inp.genus, labels))
    return list(zip(labels, linalg.hadamard_ratio(amats).tolist()))


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
    points then the probes, formed from the input's omega columns, so the
    product basis must be anchored where omega_p was taken.  The matrix is
    singular, its top-left block is the identity, its top-right block
    vanishes, and its bottom-right block is proportional to the labeled
    determinant matrix by 1/det(base evaluation)^2.
    """
    g = inp.genus
    if not np.array_equal(petri.omega_anchors, inp.omega_p):
        raise ValueError("product basis must be anchored at the same base points")
    if not (3 <= k < l <= g):
        raise ValueError(f"label ({k}, {l}) out of range: need 3 <= k < l <= {g}")
    prods = petri.products(np.hstack([inp.omega_p, inp.omega_q]))
    n = petri.v_dim
    pm = petri.pm
    big = np.empty((3 * g - 2, 3 * g - 2), dtype=complex)
    big[:, :n] = prods[:n].T
    big[:, n] = prods[pm.slot_of(k, l) - 1].T
    det_ratio = linalg.hadamard_ratio(big)
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


def _relations(amats: np.ndarray, dmat: np.ndarray, row: int, cols: np.ndarray,
               labels) -> list[RelationCoefficients]:
    """Relation coefficients of a stack of labeled matrices, one per label.

    Row `row` (1-based) of each labeled matrix is replaced, per column
    label (a,b), by D[a,i]*D[b,j]; the determinant is expanded along that
    row through the cofactors of the original matrix, and normalized by
    the cofactor of the last column.

    The cofactor row of `row` spans the null space of the matrix with
    that row deleted, so by Cramer's rule the normalized row cof/delta is
    the null vector whose last entry is 1: one solve, not one elimination
    per cofactor.  Only delta = cof[-1] is computed as a minor.  Every
    delta comes from one stacked `det`, every null vector from one
    stacked `solve`, and the raw coefficients from one pass over the
    columns.
    """
    size = amats.shape[-1]
    if not 1 <= row <= size:
        raise ValueError(f"row must be in 1..{size}, got {row}")
    r0 = row - 1
    deltas = linalg.signed_minor(amats, r0, size - 1).tolist()
    rest = np.delete(amats, r0, axis=-2)
    try:
        y = linalg.solve(rest[..., :-1], -rest[..., -1])
    except linalg.DegenerateMatrixError:
        y = None
    # max|cof| / |delta| = max(1, max|y|)
    if y is None or np.max(np.abs(y), initial=0.0) > 1.0 / DELTA_RTOL:
        raise DegenerateRowError(
            f"normalizing cofactor vanished for row {row}; try a different row"
        )
    ratios = np.concatenate([y, np.ones((len(y), 1))], axis=-1)
    raw = np.zeros((len(y),) + (dmat.shape[-1],) * 2, dtype=complex)
    for c in range(cols.shape[1]):
        outer = dmat[cols[:, c, 0], :, None] * dmat[cols[:, c, 1], None, :]
        raw += ratios[:, c, None, None] * outer
    sym = (raw + raw.transpose(0, 2, 1)) / 2
    return [RelationCoefficients(lab, row, sym[i], raw[i], deltas[i])
            for i, lab in enumerate(labels)]


def label_relations(inp: RelationInput) -> dict:
    """Coefficients of every label's relation along EXPANDED_ROW, keyed by label."""
    labels = relation_labels(inp.genus)
    cols = _column_pairs(inp.genus, labels)
    amats = _labeled_matrices(a_tensor(inp), cols)
    return dict(zip(labels, _relations(amats, minor_table(inp), EXPANDED_ROW, cols, labels)))


def annihilation_residual(coeff: np.ndarray, omega_values: np.ndarray) -> np.ndarray:
    """Per-point relative residual of sum_ij c_ij w_i(z) w_j(z).

    `omega_values` has one column per evaluation point.  `coeff` is one
    (g, g) matrix, giving one residual per point, or a stack (L, g, g),
    giving shape (L, points), each row bit for bit as its matrix alone
    gives it (except in the last bits at g = 2 with one point, where
    einsum picks another loop order).  The scale is the largest
    coefficient magnitude of the matrix times the squared largest basis
    value at each point.
    """
    quad = np.einsum("...ij,ip,jp->...p", coeff, omega_values, omega_values)
    peak = np.max(np.abs(coeff), axis=(-2, -1))[..., None]
    scale = peak * np.max(np.abs(omega_values), axis=0) ** 2
    return np.abs(quad) / np.maximum(scale, 1e-300)


@dataclass
class RelationSet:
    """All quadric relations of one input, with a spanning certificate."""

    genus: int
    labels: tuple
    coefficients: dict
    rank: int

    @property
    def expected_rank(self) -> int:
        g = self.genus
        return (g - 2) * (g - 3) // 2


def build_relation_set(inp: RelationInput) -> RelationSet:
    """Extract every label's coefficients and certify their joint rank."""
    g = inp.genus
    labels = relation_labels(g)
    coeffs = label_relations(inp)
    rs = RelationSet(g, tuple(labels), coeffs, 0)
    if labels:
        pm = build_pair_index(g)
        flat = np.empty((len(labels), pm.m), dtype=complex)
        for idx, lab in enumerate(labels):
            c = coeffs[lab].coefficients
            flat[idx] = c[pm.first, pm.second]
        pivots = linalg.pivot_rows(linalg.scale_rows(flat))
        rs.rank = len(pivots)
        if rs.rank < rs.expected_rank:
            bad = [lab for idx, lab in enumerate(labels) if idx not in pivots]
            raise RelationRankError(
                f"relation rank {rs.rank} below expected {rs.expected_rank}; "
                f"dependent labels: {bad}",
                bad,
            )
    return rs

