"""Tests for the determinantal quadric-relation machinery."""

import numpy as np
import pytest

from holodiff import linalg, petri
from holodiff.bases import holomorphic_basis, petri_basis
from holodiff.curves import sample_points

from oracles import cofactor_row

SEED = 1234


@pytest.fixture(scope="module")
def rel_input(quintic):
    pts = sample_points(quintic, 16, seed=SEED)
    return petri.RelationInput(quintic, pts[:6], pts[6:])


@pytest.fixture(scope="module")
def rel_coeff(rel_input):
    return petri.relation_coefficients(rel_input, 1, 3, 4)


@pytest.fixture(scope="module")
def quintic_petri(quintic, rel_input):
    return petri_basis(quintic, rel_input.p_points)


def test_relation_labels_enumeration():
    assert petri.relation_labels(3) == []
    assert petri.relation_labels(4) == [(3, 4)]
    assert petri.relation_labels(6) == [
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    ]


def test_fixed_column_labels():
    assert petri.fixed_column_labels(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    labels = petri.fixed_column_labels(6)
    assert len(labels) == 9
    assert labels[0] == (1, 2) and labels[-1] == (2, 6)


def test_relation_input_point_counts(quintic):
    pts = sample_points(quintic, 16, seed=SEED)
    with pytest.raises(ValueError, match="base points"):
        petri.RelationInput(quintic, pts[:5], pts[6:])
    with pytest.raises(ValueError, match="probe points"):
        petri.RelationInput(quintic, pts[:6], pts[6:15])


def test_relation_input_rejects_singular_base(quintic):
    pts = sample_points(quintic, 16, seed=SEED)
    with pytest.raises(linalg.DegenerateMatrixError):
        petri.RelationInput(quintic, (pts[0],) * 6, pts[6:])


def test_substituted_determinants_match_cramer(rel_input):
    # oracle: literally replace column i with probe column r and take det
    d = petri.substituted_determinants(rel_input)
    scale = np.max(np.abs(d))
    for i in range(6):
        for r in range(10):
            m = rel_input.omega_p.copy()
            m[:, i] = rel_input.omega_q[:, r]
            assert abs(linalg.det(m) - d[i, r]) <= 1e-10 * scale


def test_minor_table_contracts_to_substitutions(rel_input):
    dmat = petri.minor_table(rel_input)
    d = petri.substituted_determinants(rel_input)
    dev = np.max(np.abs(dmat @ rel_input.omega_q - d))
    assert dev <= 1e-10 * np.max(np.abs(d))


def test_minor_table_entries_are_signed_minors(rel_input):
    dmat = petri.minor_table(rel_input)
    scale = np.max(np.abs(dmat))
    for m, i in [(0, 0), (2, 5), (4, 1)]:
        want = linalg.signed_minor(rel_input.omega_p.T, m, i)
        assert abs(dmat[m, i] - want) <= 1e-10 * scale


def test_a_tensor_is_symmetric_product(rel_input):
    d = petri.substituted_determinants(rel_input)
    a = petri.a_tensor(rel_input)
    assert a.shape == (6, 6, 10)
    assert np.array_equal(a, np.swapaxes(a, 0, 1))
    dev = np.max(np.abs(a - np.einsum("ir,jr->ijr", d, d)))
    assert dev <= 1e-12 * np.max(np.abs(a))


def test_build_a_columns_follow_labels(rel_input):
    a = petri.a_tensor(rel_input)
    amat = petri.build_A(rel_input, 3, 5)
    assert amat.shape == (10, 10)
    cols = petri.fixed_column_labels(6) + [(3, 5)]
    for c, (i, j) in enumerate(cols):
        assert np.array_equal(amat[:, c], a[i - 1, j - 1, :])


def test_build_a_rejects_bad_labels(rel_input, quartic):
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        petri.build_A(rel_input, 2, 3)
    with pytest.raises(ValueError):
        petri.build_A(rel_input, 4, 4)
    with pytest.raises(ValueError):
        petri.build_A(rel_input, 5, 7)
    pts = sample_points(quartic, 7, seed=SEED)
    inp3 = petri.RelationInput(quartic, pts[:3], pts[3:])
    with pytest.raises(ValueError, match="genus >= 4"):
        petri.build_A(inp3, 3, 4)


def test_theorem1_all_labels_vanish(rel_input):
    ratios, ok = petri.verify_theorem1(rel_input)
    assert ok
    assert [lab for lab, _ in ratios] == petri.relation_labels(6)
    assert max(r for _, r in ratios) <= 1e-8


def test_theorem1_detects_off_curve_data(quintic):
    # replace all probe values with random data of matching scale; every
    # determinant must climb far above the singularity threshold
    pts = sample_points(quintic, 16, seed=20260818)
    inp = petri.RelationInput(quintic, pts[:6], pts[6:])
    rng = np.random.default_rng(20260818)
    inp.omega_q = rng.normal(size=inp.omega_q.shape) * np.mean(np.abs(inp.omega_q)) + 0j
    ratios, ok = petri.verify_theorem1(inp)
    assert not ok
    assert max(r for _, r in ratios) > 1e-6


def test_theorem1_hyperelliptic_vanishing(hyp_g4):
    # products depend on the index sum only, so two label columns coincide
    pts = sample_points(hyp_g4, 10, seed=20260818)
    inp = petri.RelationInput(hyp_g4, pts[:4], pts[4:])
    ratios, ok = petri.verify_theorem1(inp)
    assert ok
    assert [lab for lab, _ in ratios] == [(3, 4)]
    assert max(r for _, r in ratios) <= 1e-8


def test_scrambled_column_breaks_singularity(quintic):
    pts = sample_points(quintic, 16, seed=20260818)
    inp = petri.RelationInput(quintic, pts[:6], pts[6:])
    amat = petri.build_A(inp, 3, 4)
    det, bound = linalg.det_with_bound(amat)
    clean = abs(det) / bound
    assert clean <= 1e-8
    # column 0 is the (1,2) product, which carries relation weight; random
    # data there must restore a nonsingular determinant by many decades
    rng = np.random.default_rng(20260818)
    bad = amat.copy()
    bad[:, 0] = rng.normal(size=bad.shape[0]) * np.mean(np.abs(amat[:, 0]))
    det_bad, bound_bad = linalg.det_with_bound(bad)
    ratio = abs(det_bad) / bound_bad
    assert ratio > 1e-7
    assert ratio >= 1e10 * clean


def test_relation_ignores_high_index_columns(quintic):
    # in substituted-determinant coordinates the (3,4) null vector only
    # weights pairs drawn from {1,2,3,4}, so corrupting the (1,5) column
    # leaves the matrix singular
    pts = sample_points(quintic, 16, seed=20260818)
    inp = petri.RelationInput(quintic, pts[:6], pts[6:])
    amat = petri.build_A(inp, 3, 4)
    labels = petri.fixed_column_labels(6) + [(3, 4)]
    col = labels.index((1, 5))
    bad = amat.copy()
    rng = np.random.default_rng(20260818)
    bad[:, col] = rng.normal(size=bad.shape[0]) * np.mean(np.abs(amat[:, col]))
    det_bad, bound_bad = linalg.det_with_bound(bad)
    assert abs(det_bad) / bound_bad <= 1e-10


def test_coefficients_are_symmetric(rel_coeff):
    c = rel_coeff.coefficients
    assert rel_coeff.label == (3, 4)
    assert rel_coeff.row == 1
    assert c.shape == (6, 6)
    assert np.array_equal(c, c.T)
    assert np.array_equal(c, (rel_coeff.raw + rel_coeff.raw.T) / 2)


def test_relation_annihilates_fresh_points(quintic, rel_coeff):
    basis = holomorphic_basis(quintic, 1)
    fresh = sample_points(quintic, 20, seed=SEED + 500)
    vals = basis.evaluate(fresh)
    res = petri.annihilation_residual(rel_coeff.coefficients, vals)
    assert res.shape == (20,)
    assert np.max(res) <= 1e-8


def test_row_choice_rescales_coefficients(rel_input, rel_coeff):
    other = petri.relation_coefficients(rel_input, 5, 3, 4)
    c1, c5 = rel_coeff.coefficients, other.coefficients
    i, j = np.unravel_index(np.argmax(np.abs(c1)), c1.shape)
    ratio = c1[i, j] / c5[i, j]
    assert np.max(np.abs(c1 - ratio * c5)) <= 1e-6 * np.max(np.abs(c1))


def test_probe_choice_rescales_coefficients(quintic, rel_input, rel_coeff):
    fresh = sample_points(quintic, 10, seed=SEED + 77)
    alt = petri.RelationInput(quintic, rel_input.p_points, fresh)
    c_alt = petri.relation_coefficients(alt, 1, 3, 4).coefficients
    c = rel_coeff.coefficients
    i, j = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    ratio = c[i, j] / c_alt[i, j]
    assert np.max(np.abs(c - ratio * c_alt)) <= 1e-6 * np.max(np.abs(c))


def test_row_out_of_range(rel_input):
    amat = petri.build_A(rel_input, 3, 4)
    dmat = petri.minor_table(rel_input)
    with pytest.raises(ValueError, match="row"):
        petri.coefficients_from_matrices(amat, dmat, 0, 6, 3, 4)
    with pytest.raises(ValueError, match="row"):
        petri.coefficients_from_matrices(amat, dmat, 11, 6, 3, 4)


def test_degenerate_row_raises(rng):
    # genus 4 sizing: 5 fixed labels plus (3, 4) gives a 6 x 6 matrix
    amat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    amat[1, :5] = amat[2, :5]  # kills the cofactor dropping row 0, column 5
    dmat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    with pytest.raises(petri.DegenerateRowError, match="cofactor"):
        petri.coefficients_from_matrices(amat, dmat, 1, 4, 3, 4)


def test_cofactor_row_matches_leibniz_oracle(rng):
    # genus 4 sizing: labels (1,2),(1,3),(1,4),(2,3),(2,4) and (3,4)
    labels = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for _ in range(3):
        amat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for row in range(1, 7):
            rc = petri.coefficients_from_matrices(amat, dmat, row, 4, 3, 4)
            cof = cofactor_row(amat, row - 1)
            want = sum(
                (cof[c] / cof[-1]) * np.outer(dmat[a - 1], dmat[b - 1])
                for c, (a, b) in enumerate(labels)
            )
            assert np.max(np.abs(rc.raw - want)) <= 1e-12 * np.max(np.abs(want))
            assert rc.delta == linalg.signed_minor(amat, row - 1, 5)
            assert abs(rc.delta - cof[-1]) <= 1e-12 * abs(cof[-1])


def test_block_report_structure(rel_input, quintic_petri):
    rep = petri.verify_block_singular(rel_input, quintic_petri, 3, 6)
    assert rep.label == (3, 6)
    assert rep.det_ratio <= 1e-8
    assert rep.identity_dev <= 1e-8
    assert rep.zero_dev <= 1e-8
    assert rep.proportionality_dev <= 1e-8


def test_block_report_anchor_mismatch(quintic, rel_input, quintic_petri):
    other = petri_basis(quintic, sample_points(quintic, 6, seed=SEED + 9))
    with pytest.raises(ValueError, match="anchored"):
        petri.verify_block_singular(rel_input, other, 3, 4)
    with pytest.raises(ValueError, match="out of range"):
        petri.verify_block_singular(rel_input, quintic_petri, 2, 3)


def test_relation_set_spans_expected_rank(rel_input):
    rs = petri.build_relation_set(rel_input, provenance={"seed": SEED})
    assert rs.genus == 6
    assert rs.labels == tuple(petri.relation_labels(6))
    assert rs.rank == 6
    assert rs.rank == rs.expected_rank
    assert set(rs.coefficients) == set(rs.labels)
    assert rs.coefficients[(3, 5)].label == (3, 5)
    assert rs.provenance["row"] == 1
    assert rs.provenance["seed"] == SEED


def test_relation_set_empty_below_genus_four(quartic):
    pts = sample_points(quartic, 7, seed=SEED)
    inp = petri.RelationInput(quartic, pts[:3], pts[3:])
    rs = petri.build_relation_set(inp)
    assert rs.labels == ()
    assert rs.rank == 0
    assert rs.expected_rank == 0
    assert rs.coefficients == {}


@pytest.mark.parametrize("g,want", [(3, 0), (4, 1), (5, 3), (6, 6), (8, 15)])
def test_expected_rank_formula(g, want):
    rs = petri.RelationSet(genus=g, labels=(), coefficients={}, rank=0)
    assert rs.expected_rank == want


def test_relation_set_names_dependent_label(rel_input, monkeypatch):
    # make (4, 6)'s relation a multiple of (3, 4)'s; after row scaling the
    # two rows are equal, so the elimination picks (3, 4) and zeroes (4, 6)
    real = petri.coefficients_from_matrices
    seen = {}

    def dependent(amat, dmat, row, g, k, l):
        rc = real(amat, dmat, row, g, k, l)
        seen[(k, l)] = rc
        if (k, l) == (4, 6):
            rc.coefficients = 2.5 * seen[(3, 4)].coefficients
        return rc

    monkeypatch.setattr(petri, "coefficients_from_matrices", dependent)
    with pytest.raises(petri.RelationRankError, match="rank 5 below expected 6") as err:
        petri.build_relation_set(rel_input)
    assert err.value.offending_labels == ((4, 6),)


def test_rank_error_carries_labels():
    err = petri.RelationRankError("rank 5 below expected 6", [(3, 4)])
    assert err.offending_labels == ((3, 4),)


def test_annihilation_residual_scale_invariant(rng):
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    coeff = (coeff + coeff.T) / 2
    vals = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    res = petri.annihilation_residual(coeff, vals)
    res_scaled = petri.annihilation_residual(1e6 * coeff, 1e-3 * vals)
    assert res.shape == (7,)
    assert np.allclose(res, res_scaled, rtol=1e-12, atol=0)
    assert np.all(res > 0)
