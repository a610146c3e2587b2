"""Determinantal quadric relations among products of weight-1 differentials.

Given g base points p and 2g-2 probe points q on a curve, the tensor
a[i,j,r] multiplies the two determinants obtained by substituting q_r
for p_i (resp. p_j) in the base evaluation matrix.  Arranging chosen
columns a[.,.,r] into square matrices A(k,l) yields determinants that
vanish identically on curves; expanding a replaced row recovers the
explicit coefficients of the quadric relations satisfied by the
products omega_i * omega_j.

All vanishing tests are ratios against Hadamard bounds, never absolute.

Every step runs on a stack of inputs of one genus.  `relation_inputs`
tests all base matrices with one `det` and one Hadamard test.
`relation_pass` solves every base matrix against [omega_q | I] in one
`linalg.solve_sets` call: times det(omega_p), the solution is the table
of substituted determinants and the inverse part the minor table.  One
gather then builds every labeled matrix, the determinant inputs' matrices
get one stacked Hadamard test, and the relation inputs' matrices one
`_relations` call.  A refusal stays with its input: a refused base or
labeled matrix gives that input exactly the exception its one-set call
raises, and the other inputs keep their bits.  `RelationInput`,
`verify_theorem1` and `label_relations` are the one-set cases, and
`certify_relation_set` certifies the rank of one input's relations.
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
    "relation_inputs",
    "relation_labels",
    "fixed_column_labels",
    "relation_pass",
    "build_A",
    "verify_theorem1",
    "verify_block_singular",
    "label_relations",
    "annihilation_residual",
    "certify_relation_set",
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
    2g-2 probe points; the genus is read from their shape.  This is the
    one-set case of `relation_inputs`, raising its refusal.
    """

    def __init__(self, omega_p, omega_q):
        [inp] = relation_inputs([(omega_p, omega_q)])
        if isinstance(inp, Exception):
            raise inp
        self.omega_p, self.omega_q, self.det_p = omega_p, omega_q, inp.det_p

    @classmethod
    def _tested(cls, omega_p, omega_q, det_p):
        """The input of a pair whose base matrix `relation_inputs` accepted."""
        inp = cls.__new__(cls)
        inp.omega_p, inp.omega_q, inp.det_p = omega_p, omega_q, det_p
        return inp

    @property
    def genus(self) -> int:
        return self.omega_p.shape[0]


def relation_inputs(pairs) -> list:
    """The RelationInput of each (omega_p, omega_q) pair, all of one genus,
    from one stacked `det` and one stacked Hadamard test of the base
    matrices.

    Per pair, in order: its input, or the DegenerateMatrixError that
    refuses its base matrix as singular, with the matrix's Hadamard ratio
    as the magnitude.  A pair with the wrong point counts raises a
    ValueError for the whole call.
    """
    for omega_p, omega_q in pairs:
        g = omega_p.shape[0]
        if omega_p.shape[1] != g:
            raise ValueError(f"need {g} base points, got {omega_p.shape[1]}")
        if omega_q.shape[1] != 2 * g - 2:
            raise ValueError(f"need {2 * g - 2} probe points, got {omega_q.shape[1]}")
    if not pairs:
        return []
    base = np.stack([omega_p for omega_p, _ in pairs])
    dets = linalg.det(base).tolist()
    ratios = linalg.hadamard_ratio(base).tolist()
    return [linalg.DegenerateMatrixError("base-point evaluation matrix is singular", ratio)
            if ratio < 1e-12 else RelationInput._tested(omega_p, omega_q, det_p)
            for (omega_p, omega_q), det_p, ratio in zip(pairs, dets, ratios)]


def relation_labels(g: int) -> list[tuple[int, int]]:
    """All admissible labels (k,l), 3 <= k < l <= g; empty below genus 4."""
    return [(k, l) for k in range(3, g + 1) for l in range(k + 1, g + 1)]


def fixed_column_labels(g: int) -> list[tuple[int, int]]:
    """The 2g-3 fixed column labels (1,2)..(1,g),(2,3)..(2,g)."""
    return [(1, b) for b in range(2, g + 1)] + [(2, b) for b in range(3, g + 1)]


def _column_pairs(g: int, labels) -> np.ndarray:
    """(L, 2g-2, 2) 0-based pair members of the columns of each label's matrix:
    the fixed labels, then the label itself."""
    fixed = fixed_column_labels(g)
    cols = np.array([fixed + [lab] for lab in labels], dtype=np.intp)
    return cols.reshape(len(labels), len(fixed) + 1, 2) - 1


def _labeled_matrices(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (..., L, 2g-2, 2g-2) stack of matrices with columns a[..., i, j, :]
    over `cols`, from a tensor a (..., g, g, 2g-2)."""
    return a[..., cols[..., 0], cols[..., 1], :].swapaxes(-1, -2)


def _labeled(inputs, cols):
    """Labeled matrices and minor tables of `inputs`, from one solve.

    One `linalg.solve_sets` call solves each base matrix against
    [omega_q | I].  Times det(omega_p), the solution is d[i,r], the
    determinant of the base matrix with column i replaced by probe r, and
    the inverse part is D[m,i], the signed minors of the transposed base
    matrix, so that (D @ omega_q)[m,r] = d[m,r].  The tensor a[i,j,r] =
    d[i,r] d[j,r] gives the labeled matrices over `cols`.  Returns
    (refusals, amats, dmat): per input None or the refusal of its base
    matrix, then the (S', L, 2g-2, 2g-2) labeled matrices and (S', g, g)
    minor tables of the S' accepted inputs, in order.
    """
    x, inv, refusals = linalg.solve_sets(np.stack([inp.omega_p for inp in inputs]),
                                         np.stack([inp.omega_q for inp in inputs]))
    ok = [s for s, refusal in enumerate(refusals) if refusal is None]
    det_p = np.array([inputs[s].det_p for s in ok], dtype=complex)[:, None, None]
    d = det_p * x[ok]
    a = np.einsum("sir,sjr->sijr", d, d)
    return refusals, _labeled_matrices(a, cols), det_p * inv[ok]


def _one(results):
    """The one result of a one-input pass; raises it if it is an exception."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def build_A(inp: RelationInput, k: int, l: int) -> np.ndarray:
    """(2g-2) x (2g-2) matrix with columns a[.,.,r] over the fixed labels plus (k,l)."""
    g = inp.genus
    if g < 4:
        raise ValueError("labels need genus >= 4")
    if not (3 <= k < l <= g):
        raise ValueError(f"label ({k}, {l}) out of range: need 3 <= k < l <= {g}")
    [refusal], amats, _ = _labeled([inp], _column_pairs(g, [(k, l)]))
    if refusal is not None:
        raise refusal
    return amats[0, 0]


def relation_pass(theorem1, relations) -> tuple[list, list]:
    """`verify_theorem1` of each input of `theorem1` and `label_relations`
    of each input of `relations`, all of one genus, in one stacked pass.

    One solve serves every input (see `_labeled`), the `theorem1` inputs'
    labeled matrices get one stacked Hadamard test and the `relations`
    inputs' matrices one `_relations` call.  Returns the two lists of
    results: per input, its result or the exception its one-set call
    raises.  A refused input leaves the others' bits unchanged.
    """
    inputs = [*theorem1, *relations]
    if not inputs:
        return [], []
    g = inputs[0].genus
    labels = relation_labels(g)
    cols = _column_pairs(g, labels)
    refusals, amats, dmat = _labeled(inputs, cols)
    t = sum(refusal is None for refusal in refusals[:len(theorem1)])  # rows of theorem1
    ratios = linalg.hadamard_ratio(amats[:t]).tolist() if t else []
    coeffs = (_relations(amats[t:], dmat[t:], EXPANDED_ROW, cols, labels)
              if len(amats) > t else [])
    done = iter([list(zip(labels, row)) for row in ratios]
                + [c if isinstance(c, Exception) else dict(zip(labels, c)) for c in coeffs])
    # each accepted input takes the result of its row of the stack, in order
    out = [refusal or next(done) for refusal in refusals]
    return out[:len(theorem1)], out[len(theorem1):]


def verify_theorem1(inp: RelationInput) -> list:
    """(label, determinant-to-Hadamard ratio) of every labeled matrix: the
    one-set case of `relation_pass`."""
    return _one(relation_pass([inp], [])[0])


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
               labels) -> list:
    """Relation coefficients of stacks of labeled matrices, set by set.

    Set s has one labeled matrix per label, amats[s] (L, n, n), and its
    minor table dmat[s].  Row `row` (1-based) of each labeled matrix is
    replaced, per column label (a,b), by D[a,i]*D[b,j]; the determinant is
    expanded along that row through the cofactors of the original matrix,
    and normalized by the cofactor of the last column.

    The cofactor row of `row` spans the null space of the matrix with
    that row deleted, so by Cramer's rule the normalized row cof/delta is
    the null vector whose last entry is 1: one solve, not one elimination
    per cofactor.  Only delta = cof[-1] is computed as a minor.  Every
    delta of every set comes from one stacked `det`, every null vector
    from one `linalg.solve_sets` call, and the raw coefficients from one
    product over all columns.  Per set, in order: the list of its labels'
    RelationCoefficients, or the DegenerateRowError that refuses it when
    one of its matrices is refused by the solve or has a normalizing
    cofactor below DELTA_RTOL of its row's largest; a refused set leaves
    the others' bits unchanged.
    """
    size = amats.shape[-1]
    if not 1 <= row <= size:
        raise ValueError(f"row must be in 1..{size}, got {row}")
    r0 = row - 1
    deltas = linalg.signed_minor(amats, r0, size - 1).tolist()
    rest = np.delete(amats, r0, axis=-2)
    y, _, refusals = linalg.solve_sets(rest[..., :-1], -rest[..., -1])
    # max|cof| / |delta| = max(1, max|y|)
    ok = [s for s, refusal in enumerate(refusals) if refusal is None
          and not np.max(np.abs(y[s]), initial=0.0) > 1.0 / DELTA_RTOL]
    y, dmat = y[ok], dmat[ok]
    ratios = np.concatenate([y, np.ones(y.shape[:-1] + (1,))], axis=-1)
    outer = dmat[:, cols[..., 0], :, None] * dmat[:, cols[..., 1], None, :]
    # summed over the columns in their order, from 0
    raw = np.add.reduce(ratios[..., None, None] * outer, axis=2, initial=0)
    sym = (raw + raw.swapaxes(-1, -2)) / 2
    out, done = [], iter(zip(sym, raw))
    for s, set_deltas in enumerate(deltas):
        if s not in ok:
            out.append(DegenerateRowError(
                f"normalizing cofactor vanished for row {row}; try a different row"))
            continue
        set_sym, set_raw = next(done)
        out.append([RelationCoefficients(lab, row, set_sym[j], set_raw[j], set_deltas[j])
                    for j, lab in enumerate(labels)])
    return out


def label_relations(inp: RelationInput) -> dict:
    """Coefficients of every label's relation along EXPANDED_ROW, keyed by
    label: the one-set case of `relation_pass`."""
    return _one(relation_pass([], [inp])[1])


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


def certify_relation_set(genus: int, coefficients: dict) -> RelationSet:
    """The RelationSet of one input's relations, as `label_relations` gives
    them, with their joint rank certified."""
    labels = relation_labels(genus)
    rs = RelationSet(genus, tuple(labels), coefficients, 0)
    if labels:
        pm = build_pair_index(genus)
        flat = np.empty((len(labels), pm.m), dtype=complex)
        for idx, lab in enumerate(labels):
            c = coefficients[lab].coefficients
            flat[idx] = c[pm.first, pm.second]
        flat = linalg.scale_rows(flat)
        rs.rank = linalg.numerical_rank(flat)
        if rs.rank < rs.expected_rank:
            # a label is dependent when its row leaves the rank of the rows
            # before it unchanged
            ranks = [linalg.numerical_rank(flat[:k]) for k in range(len(labels) + 1)]
            bad = [lab for idx, lab in enumerate(labels) if ranks[idx + 1] == ranks[idx]]
            raise RelationRankError(
                f"relation rank {rs.rank} below expected {rs.expected_rank}; "
                f"dependent labels: {bad}",
                bad,
            )
    return rs

