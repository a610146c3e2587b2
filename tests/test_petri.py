"""Tests for the determinantal quadric-relation machinery."""

import numpy as np
import pytest

from holodiff import cli, curves, linalg, petri
from holodiff.bases import holomorphic_basis
from holodiff.curves import sample_points

from oracles import (a_tensor, coefficients_from_matrices, cofactor_row, minor_table,
                     petri_basis, relation_chain, substituted_determinants)

SEED = 1234


def _input(model, base, probes):
    """Relation input of the holomorphic basis's values at the base and probe points."""
    basis = holomorphic_basis(model)
    return petri.RelationInput(basis.evaluate(base), basis.evaluate(probes))


@pytest.fixture(scope="module")
def rel_input(quintic):
    pts = sample_points(quintic, 16, seed=SEED)
    return _input(quintic, pts[:6], pts[6:])


@pytest.fixture(scope="module")
def rel_coeff(rel_input):
    return petri.label_relations(rel_input)[(3, 4)]


@pytest.fixture(scope="module")
def quintic_petri(quintic):
    return petri_basis(quintic, SEED, SEED + 1)


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
        _input(quintic, pts[:5], pts[6:])
    with pytest.raises(ValueError, match="probe points"):
        _input(quintic, pts[:6], pts[6:15])


def test_relation_input_evaluates_both_point_sets_at_once(quintic, monkeypatch):
    # base and probe columns come from one evaluate_sets pass, bit for bit
    # what a separate evaluate gives on each set
    basis = holomorphic_basis(quintic)
    sizes = []
    raw_values = type(basis)._raw_values
    monkeypatch.setattr(type(basis), "_raw_values",
                        lambda self, points:
                        sizes.append(len(points)) or raw_values(self, points))
    for seed in range(40):
        pts = sample_points(quintic, 16, seed=SEED + seed)
        inp = petri.RelationInput(*basis.evaluate_sets([pts[:6], pts[6:]]))
        assert sizes == [16]
        assert np.array_equal(inp.omega_p, basis.evaluate(pts[:6]))
        assert np.array_equal(inp.omega_q, basis.evaluate(pts[6:]))
        sizes.clear()


def test_relation_input_rejects_singular_base(quintic):
    pts = sample_points(quintic, 16, seed=SEED)
    with pytest.raises(linalg.DegenerateMatrixError):
        _input(quintic, (pts[0],) * 6, pts[6:])


def test_substituted_determinants_match_cramer(rel_input):
    # oracle: literally replace column i with probe column r and take det
    d = substituted_determinants(rel_input)
    scale = np.max(np.abs(d))
    for i in range(6):
        for r in range(10):
            m = rel_input.omega_p.copy()
            m[:, i] = rel_input.omega_q[:, r]
            assert abs(linalg.det(m) - d[i, r]) <= 1e-10 * scale


def test_minor_table_contracts_to_substitutions(rel_input):
    dmat = minor_table(rel_input)
    d = substituted_determinants(rel_input)
    dev = np.max(np.abs(dmat @ rel_input.omega_q - d))
    assert dev <= 1e-10 * np.max(np.abs(d))


def test_minor_table_entries_are_signed_minors(rel_input):
    dmat = minor_table(rel_input)
    scale = np.max(np.abs(dmat))
    for m, i in [(0, 0), (2, 5), (4, 1)]:
        want = linalg.signed_minor(rel_input.omega_p.T, m, i)
        assert abs(dmat[m, i] - want) <= 1e-10 * scale


def test_a_tensor_is_symmetric_product(rel_input):
    d = substituted_determinants(rel_input)
    a = a_tensor(rel_input)
    assert a.shape == (6, 6, 10)
    assert np.array_equal(a, np.swapaxes(a, 0, 1))
    dev = np.max(np.abs(a - np.einsum("ir,jr->ijr", d, d)))
    assert dev <= 1e-12 * np.max(np.abs(a))


def test_build_a_columns_follow_labels(rel_input):
    a = a_tensor(rel_input)
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
    inp3 = _input(quartic, pts[:3], pts[3:])
    with pytest.raises(ValueError, match="genus >= 4"):
        petri.build_A(inp3, 3, 4)


def test_theorem1_all_labels_vanish(rel_input):
    ratios = petri.verify_theorem1(rel_input)
    assert [lab for lab, _ in ratios] == petri.relation_labels(6)
    assert max(r for _, r in ratios) <= 1e-8


def test_theorem1_detects_off_curve_data(quintic):
    # replace all probe values with random data of matching scale; every
    # determinant must climb far above the singularity threshold
    pts = sample_points(quintic, 16, seed=20260818)
    inp = _input(quintic, pts[:6], pts[6:])
    rng = np.random.default_rng(20260818)
    inp.omega_q = rng.normal(size=inp.omega_q.shape) * np.mean(np.abs(inp.omega_q)) + 0j
    ratios = petri.verify_theorem1(inp)
    assert max(r for _, r in ratios) > 1e-6


def test_theorem1_hyperelliptic_vanishing(hyp_g4):
    # products depend on the index sum only, so two label columns coincide
    pts = sample_points(hyp_g4, 10, seed=20260818)
    inp = _input(hyp_g4, pts[:4], pts[4:])
    ratios = petri.verify_theorem1(inp)
    assert [lab for lab, _ in ratios] == [(3, 4)]
    assert max(r for _, r in ratios) <= 1e-8


def test_theorem1_ratios_do_not_underflow_at_genus_ten():
    # On the Fermat sextic, det and Hadamard bound of an 18 x 18 labeled
    # matrix can both fall below 1e-300, and |det| / max(bound, 1e-300)
    # then reads 0.0; the row-normalized ratio keeps a certified nonzero
    # value.  The first two asserts check that this draw is such a case.
    sextic = curves.PlaneCurve(6, [(6, 0, 1.0), (0, 6, 1.0), (0, 0, 1.0)])
    pts = sample_points(sextic, 28, seed=4)
    inp = _input(sextic, pts[:10], pts[10:])
    mat = petri.build_A(inp, 3, 4)
    bound = np.prod(np.linalg.norm(mat, axis=1))
    assert bound < 1e-300
    assert abs(linalg.det(mat)) / max(bound, 1e-300) == 0.0
    ratios = petri.verify_theorem1(inp)
    assert len(ratios) == 28
    assert all(0.0 < r <= 1e-8 for _, r in ratios)


def test_scrambled_column_breaks_singularity(quintic):
    pts = sample_points(quintic, 16, seed=20260818)
    inp = _input(quintic, pts[:6], pts[6:])
    amat = petri.build_A(inp, 3, 4)
    clean = linalg.hadamard_ratio(amat)
    assert clean <= 1e-8
    # column 0 is the (1,2) product, which carries relation weight; random
    # data there must restore a nonsingular determinant by many decades
    rng = np.random.default_rng(20260818)
    bad = amat.copy()
    bad[:, 0] = rng.normal(size=bad.shape[0]) * np.mean(np.abs(amat[:, 0]))
    ratio = linalg.hadamard_ratio(bad)
    assert ratio > 1e-7
    assert ratio >= 1e10 * clean


def test_relation_ignores_high_index_columns(quintic):
    # in substituted-determinant coordinates the (3,4) null vector only
    # weights pairs drawn from {1,2,3,4}, so corrupting the (1,5) column
    # leaves the matrix singular
    pts = sample_points(quintic, 16, seed=20260818)
    inp = _input(quintic, pts[:6], pts[6:])
    amat = petri.build_A(inp, 3, 4)
    labels = petri.fixed_column_labels(6) + [(3, 4)]
    col = labels.index((1, 5))
    bad = amat.copy()
    rng = np.random.default_rng(20260818)
    bad[:, col] = rng.normal(size=bad.shape[0]) * np.mean(np.abs(amat[:, col]))
    assert linalg.hadamard_ratio(bad) <= 1e-10


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
    other = coefficients_from_matrices(petri.build_A(rel_input, 3, 4),
                                       minor_table(rel_input), 5, 6, 3, 4)
    c1, c5 = rel_coeff.coefficients, other.coefficients
    i, j = np.unravel_index(np.argmax(np.abs(c1)), c1.shape)
    ratio = c1[i, j] / c5[i, j]
    assert np.max(np.abs(c1 - ratio * c5)) <= 1e-6 * np.max(np.abs(c1))


def test_probe_choice_rescales_coefficients(quintic, rel_input, rel_coeff):
    fresh = sample_points(quintic, 10, seed=SEED + 77)
    alt = petri.RelationInput(rel_input.omega_p, holomorphic_basis(quintic).evaluate(fresh))
    c_alt = petri.label_relations(alt)[(3, 4)].coefficients
    c = rel_coeff.coefficients
    i, j = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    ratio = c[i, j] / c_alt[i, j]
    assert np.max(np.abs(c - ratio * c_alt)) <= 1e-6 * np.max(np.abs(c))


def test_row_out_of_range(rel_input):
    amat = petri.build_A(rel_input, 3, 4)
    dmat = minor_table(rel_input)
    with pytest.raises(ValueError, match="row"):
        coefficients_from_matrices(amat, dmat, 0, 6, 3, 4)
    with pytest.raises(ValueError, match="row"):
        coefficients_from_matrices(amat, dmat, 11, 6, 3, 4)


def test_degenerate_row_raises(rng):
    # genus 4 sizing: 5 fixed labels plus (3, 4) gives a 6 x 6 matrix
    amat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    amat[1, :5] = amat[2, :5]  # kills the cofactor dropping row 0, column 5
    dmat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    with pytest.raises(petri.DegenerateRowError, match="cofactor"):
        coefficients_from_matrices(amat, dmat, 1, 4, 3, 4)


def test_degenerate_row_refuses_only_its_set(rng):
    # three genus-4 sets of one labeled matrix each; the middle one made
    # exactly singular as above is refused, the others keep their bits
    amats = rng.standard_normal((3, 1, 6, 6)) + 1j * rng.standard_normal((3, 1, 6, 6))
    amats[1, 0, 1, :5] = amats[1, 0, 2, :5]
    dmat = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    labels = [(3, 4)]
    out = petri._relations(amats, dmat, 1, petri._column_pairs(4, labels), labels)
    assert isinstance(out[1], petri.DegenerateRowError)
    assert "cofactor" in str(out[1])
    for s in (0, 2):
        [got] = out[s]
        want = coefficients_from_matrices(amats[s, 0], dmat[s], 1, 4, 3, 4)
        assert np.array_equal(got.raw, want.raw) and got.delta == want.delta


def test_cofactor_row_matches_leibniz_oracle(rng):
    # genus 4 sizing: labels (1,2),(1,3),(1,4),(2,3),(2,4) and (3,4)
    labels = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for _ in range(3):
        amat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for row in range(1, 7):
            rc = coefficients_from_matrices(amat, dmat, row, 4, 3, 4)
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
    other = petri_basis(quintic, SEED + 9, SEED + 10)
    with pytest.raises(ValueError, match="anchored"):
        petri.verify_block_singular(rel_input, other, 3, 4)
    with pytest.raises(ValueError, match="out of range"):
        petri.verify_block_singular(rel_input, quintic_petri, 2, 3)


def _relation_set(inp):
    return petri.certify_relation_set(inp.genus, petri.label_relations(inp))


def test_relation_set_spans_expected_rank(rel_input):
    rs = _relation_set(rel_input)
    assert rs.genus == 6
    assert rs.labels == tuple(petri.relation_labels(6))
    assert rs.rank == 6
    assert rs.rank == rs.expected_rank
    assert set(rs.coefficients) == set(rs.labels)
    assert rs.coefficients[(3, 5)].label == (3, 5)
    assert rs.coefficients[(3, 5)].row == petri.EXPANDED_ROW == 1


def test_relation_set_empty_below_genus_four(quartic):
    pts = sample_points(quartic, 7, seed=SEED)
    inp = _input(quartic, pts[:3], pts[3:])
    rs = _relation_set(inp)
    assert rs.labels == ()
    assert rs.rank == 0
    assert rs.expected_rank == 0
    assert rs.coefficients == {}


@pytest.mark.parametrize("g,want", [(3, 0), (4, 1), (5, 3), (6, 6), (8, 15)])
def test_expected_rank_formula(g, want):
    rs = petri.RelationSet(genus=g, labels=(), coefficients={}, rank=0)
    assert rs.expected_rank == want


def test_relation_set_names_dependent_label(rel_input):
    # make (4, 6)'s relation a multiple of (3, 4)'s, which precedes it in
    # label order, so (4, 6)'s row alone leaves the rank of the rows before
    # it unchanged
    coeffs = petri.label_relations(rel_input)
    coeffs[(4, 6)].coefficients = 4.0 * coeffs[(3, 4)].coefficients
    with pytest.raises(petri.RelationRankError, match="rank 5 below expected 6") as err:
        petri.certify_relation_set(rel_input.genus, coeffs)
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


def test_annihilation_residual_stack_matches_one_matrix_calls():
    # one einsum over a (L, g, g) stack, each row bit for bit its matrix's
    # own call (numpy's einsum loop order differs at g = 2 with one point,
    # a shape no relation has: labels need g >= 4)
    rng = np.random.default_rng(19)
    for _ in range(200):
        g, count, points = (int(v) for v in rng.integers((3, 1, 1), (8, 12, 30)))
        coeff = rng.standard_normal((count, g, g)) + 1j * rng.standard_normal((count, g, g))
        vals = rng.standard_normal((g, points)) + 1j * rng.standard_normal((g, points))
        vals *= 10.0 ** rng.uniform(-3, 3, (g, points))
        res = petri.annihilation_residual(coeff, vals)
        assert res.shape == (count, points)
        for row, c in zip(res, coeff):
            assert row.tobytes() == petri.annihilation_residual(c, vals).tobytes()
    assert petri.annihilation_residual(np.zeros((0, 4, 4)), np.ones((4, 5))).shape == (0, 5)


PASS_SEEDS = [*range(1000, 1040), 1094, 2804, 14127, 73751]


def _assert_same_relations(got, want):
    assert list(got) == list(want)
    for lab, rc in got.items():
        ref = want[lab]
        assert (rc.label, rc.row, rc.delta) == (ref.label, ref.row, ref.delta)
        assert (rc.coefficients == ref.coefficients).all()
        assert (rc.raw == ref.raw).all()


def test_relation_pass_matches_the_per_set_chain(quintic):
    # the three determinantal sets of a verify-petri request, through one
    # stacked pass as the CLI runs it and with every set in both roles,
    # bit for bit what the chain of one-set LAPACK calls gives each set
    g = quintic.genus
    basis = holomorphic_basis(quintic)
    for seed in PASS_SEEDS:
        sets = cli._petri_point_sets(quintic, seed)
        oms = basis.evaluate_sets(curves.sample_sets(quintic, [sets[name] for name in
                                                               cli._RELATION_SETS]))
        pairs = [(om[:, :g], om[:, g:]) for om in oms]
        inputs = petri.relation_inputs(pairs)
        chains = [relation_chain(*pair) for pair in pairs]
        assert [inp.det_p for inp in inputs] == [linalg.det(p) for p, _ in pairs]
        ratios, coeffs = petri.relation_pass(inputs[:1], inputs[1:])
        assert ratios == [chains[0][0]]
        for got, (_, want, rank) in zip(coeffs, chains[1:]):
            _assert_same_relations(got, want)
            assert petri.certify_relation_set(g, got).rank == rank == 6
        ratios, coeffs = petri.relation_pass(inputs, inputs)
        assert ratios == [chain[0] for chain in chains]
        for got, (_, want, _) in zip(coeffs, chains):
            _assert_same_relations(got, want)


def test_relation_pass_refuses_set_by_set(quintic):
    # a singular base matrix is refused by relation_inputs and a base
    # matrix below the solve's condition floor by relation_pass; each
    # refused set gets its one-set call's exception, the others their bits
    g = quintic.genus
    basis = holomorphic_basis(quintic)
    pts = sample_points(quintic, 4 * (3 * g - 2), seed=SEED)
    oms = [basis.evaluate(pts[i:i + 3 * g - 2]) for i in range(0, len(pts), 3 * g - 2)]
    pairs = [(om[:, :g], om[:, g:]) for om in oms]
    singular = pairs[0][0].copy()
    singular[:, 1] = singular[:, 0]
    [refused] = petri.relation_inputs([(singular, pairs[0][1])])
    with pytest.raises(linalg.DegenerateMatrixError) as one_set:
        petri.RelationInput(singular, pairs[0][1])
    assert str(refused) == str(one_set.value) and refused.pivot == one_set.value.pivot
    inputs = petri.relation_inputs(pairs)
    # a near-singular base matrix: the solve refuses it, not the Hadamard test
    near = inputs[1]
    near.omega_p = near.omega_p.copy()
    near.omega_p[:, 1] = near.omega_p[:, 0] * (1 + 1e-15)
    with pytest.raises(linalg.DegenerateMatrixError) as base_refusal:
        petri.label_relations(near)
    ratios, coeffs = petri.relation_pass(inputs[:2], inputs[1:])
    assert str(ratios[1]) == str(base_refusal.value)
    assert str(coeffs[0]) == str(base_refusal.value)
    assert ratios[0] == petri.verify_theorem1(inputs[0])
    for got, inp in zip(coeffs[1:], inputs[2:]):
        _assert_same_relations(got, petri.label_relations(inp))
