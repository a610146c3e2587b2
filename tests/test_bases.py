"""Distinguished bases, cardinal bases, and product expansion tables."""

import numpy as np
import pytest

from holodiff import bases, curves, linalg
from holodiff.pairindex import pair_vector

from oracles import petri_basis


def test_dimension_formula():
    assert bases.differential_dimension(6, 1) == 6
    assert bases.differential_dimension(2, 1) == 2
    assert bases.differential_dimension(2, 2) == 3
    assert bases.differential_dimension(3, 2) == 6
    assert bases.differential_dimension(4, 2) == 9
    assert bases.differential_dimension(2, 5) == 9
    with pytest.raises(ValueError):
        bases.differential_dimension(1, 2)


def test_quintic_basis_order_and_values(quintic):
    basis = bases.holomorphic_basis(quintic)
    assert basis.dim == 6
    assert basis.monomials == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    pt = curves.CurvePoint(quintic, 0.0, -1.0, "x", 1)
    vals = basis.evaluate([pt])[:, 0]
    assert vals[0] == pytest.approx(0.2)
    assert vals[1] == pytest.approx(-0.2)
    assert vals[2] == pytest.approx(0.2)
    assert np.allclose(vals[3:], 0.0)


def test_quintic_chart_y_value(quintic):
    # same point carried in the other chart divides by F_x instead
    pts = curves.sample_points(quintic, 8, 42)
    basis = bases.holomorphic_basis(quintic)
    for p in pts:
        q = curves.CurvePoint(quintic, p.x, p.y, "y" if p.chart == "x" else "x", p.sheet)
        vx = basis.evaluate([p if p.chart == "x" else q])[:, 0]
        vy = basis.evaluate([q if p.chart == "x" else p])[:, 0]
        fx = quintic.fx(p.x, p.y)[0]
        fy = quintic.fy(p.x, p.y)[0]
        # value_x * F_y = monomial = -value_y * F_x for weight 1
        assert np.max(np.abs(vx * fy + vy * fx)) < 1e-10 * np.max(np.abs(vx * fy))


def test_plane_higher_weight_unsupported(quintic):
    with pytest.raises(ValueError):
        bases.holomorphic_basis(quintic, weight=2)


def test_hyperelliptic_example_values(hyp_g2):
    basis = bases.holomorphic_basis(hyp_g2)
    curve = curves.HyperellipticCurve([-2.0, -1.0, 0.0, 1.0, 2.0])
    y = np.sqrt(120.0)
    pt = curves.CurvePoint(hyp_g2, 3.0, y, "x", 1)
    vals = basis.evaluate([pt])[:, 0]
    assert vals[0] == pytest.approx(1 / y)
    assert vals[1] == pytest.approx(3 / y)
    del curve


@pytest.mark.parametrize("g,weight,count", [(2, 2, 3), (3, 2, 6), (4, 2, 9), (2, 3, 5)])
def test_hyperelliptic_weight_n_dimension(g, weight, count):
    e = [float(k) for k in range(-g, g + 1)]
    curve = curves.HyperellipticCurve(e)
    basis = bases.holomorphic_basis(curve, weight=weight)
    assert basis.dim == count == bases.differential_dimension(g, weight)


def test_hyperelliptic_weight2_monomials(hyp_g2):
    basis = bases.holomorphic_basis(hyp_g2, weight=2)
    # x^j (dx)^2 / y^2 for j = 0..2 at genus 2; no 1/y^1 family members
    assert basis.monomials == ((0, 2), (1, 2), (2, 2))
    pts = curves.sample_points(hyp_g2, 3, 5)
    vals = basis.evaluate(pts)
    for col, p in enumerate(pts):
        for row, (j, mpow) in enumerate(basis.monomials):
            assert vals[row, col] == pytest.approx(p.x**j / p.y**mpow)


def test_batched_evaluate_matches_per_point_formula(quintic, hyp_g4):
    plane = bases.holomorphic_basis(quintic)
    pts = curves.sample_points(quintic, 7, 61)
    # the same affine point carried in the y chart: divide by F_x, sign (-1)^1
    pts.append(curves.CurvePoint(quintic, pts[0].x, pts[0].y, "y"))
    vals = plane.evaluate(pts)
    for col, p in enumerate(pts):
        if p.chart == "x":
            denom, sign = quintic.fy(p.x, p.y)[0], 1.0
        else:
            denom, sign = quintic.fx(p.x, p.y)[0], -1.0
        for row, (r, s) in enumerate(plane.monomials):
            want = sign * p.x**r * p.y**s / denom
            assert abs(vals[row, col] - want) <= 1e-14 * abs(want)
    hyp = bases.holomorphic_basis(hyp_g4, weight=2)
    pts = curves.sample_points(hyp_g4, 5, 62)
    vals = hyp.evaluate(pts)
    for col, p in enumerate(pts):
        for row, (j, m) in enumerate(hyp.monomials):
            want = p.x**j / p.y**m
            assert abs(vals[row, col] - want) <= 1e-14 * abs(want)


def test_chart_error_names_the_offending_point(quintic, hyp_g2):
    good = curves.sample_points(quintic, 1, 63)[0]
    # F_y = 5 y^4 vanishes at (-1, 0), so the x chart breaks down there
    bad = curves.CurvePoint(quintic, -1.0 + 0j, 0j, "x")
    with pytest.raises(curves.ChartError) as exc:
        bases.holomorphic_basis(quintic).evaluate([good, bad, good])
    assert repr(bad) in str(exc.value)
    assert "|denominator|" in str(exc.value)
    branch = curves.CurvePoint(hyp_g2, 0j, 0j, "x", 1)
    with pytest.raises(curves.ChartError) as exc:
        bases.holomorphic_basis(hyp_g2).evaluate([branch])
    assert repr(branch) in str(exc.value)
    assert "|y|" in str(exc.value)


def test_evaluate_sets_slots_are_one_set_passes(quintic, hyp_g2, rng):
    # one pass over several sets gives each set the values, bit for bit,
    # and the chart error a pass over that set alone gives it
    bad = curves.CurvePoint(quintic, -1.0 + 0j, 0j, "x")
    for model, mode in ((quintic, "complex"), (hyp_g2, "real")):
        basis = bases.holomorphic_basis(model)
        mixed = basis.transform(rng.standard_normal((basis.dim, basis.dim)) + 0j)
        for seed in range(30):
            sets = curves.sample_sets(model, [(n, 100 * seed + n) for n in (6, 15, 0, 20)], mode)
            for b in (basis, mixed):
                for values, pts in zip(b.evaluate_sets(sets), sets):
                    assert values.tobytes() == b.evaluate(pts).tobytes()
    basis = bases.holomorphic_basis(quintic)
    sets = [curves.sample_points(quintic, 4, s) for s in (1, 2, 3)]
    sets[1][2] = bad
    slots = basis.evaluate_sets(sets)
    assert isinstance(slots[1], curves.ChartError) and repr(bad) in str(slots[1])
    with pytest.raises(curves.ChartError) as exc:
        basis.evaluate(sets[1])
    assert str(exc.value) == str(slots[1])
    for k in (0, 2):
        assert slots[k].tobytes() == basis.evaluate(sets[k]).tobytes()


def test_evaluate_rejects_points_of_another_model(quintic, quartic):
    pts = curves.sample_points(quintic, 2, 64) + curves.sample_points(quartic, 1, 65)
    with pytest.raises(ValueError, match="does not belong"):
        bases.holomorphic_basis(quintic).evaluate(pts)


def test_linear_independence_at_samples(quintic, hyp_g4):
    for model in (quintic, hyp_g4):
        basis = bases.holomorphic_basis(model)
        pts = curves.sample_points(model, basis.dim, 9)
        mat = basis.evaluate(pts)
        assert linalg.numerical_rank(mat) == basis.dim


def test_cardinal_basis_kronecker(quintic):
    anchors = curves.sample_points(quintic, 6, 13)
    basis = bases.holomorphic_basis(quintic)
    cardinal = bases.cardinal_basis(basis, anchors)
    vals = cardinal.evaluate(anchors)
    assert np.max(np.abs(vals - np.eye(6))) < 1e-10


def test_cardinal_basis_choice_independent(hyp_g2, rng):
    # starting from any invertible recombination, the cardinal family is the same
    anchors = curves.sample_points(hyp_g2, 2, 21)
    probes = curves.sample_points(hyp_g2, 5, 22)
    basis = bases.holomorphic_basis(hyp_g2)
    mixed = basis.transform(rng.standard_normal((2, 2)) + 0.5 * np.eye(2))
    c1 = bases.cardinal_basis(basis, anchors).evaluate(probes)
    c2 = bases.cardinal_basis(mixed, anchors).evaluate(probes)
    assert np.max(np.abs(c1 - c2)) < 1e-10 * max(1.0, np.max(np.abs(c1)))


def test_cardinal_basis_rejects_degenerate_anchors(hyp_g2):
    pts = curves.sample_points(hyp_g2, 1, 3)
    twice = [pts[0], pts[0]]
    basis = bases.holomorphic_basis(hyp_g2)
    with pytest.raises(bases.NonGenericAnchorsError) as exc:
        bases.cardinal_basis(basis, twice)
    assert "condition" in str(exc.value)


def test_cardinal_anchor_count(hyp_g2):
    basis = bases.holomorphic_basis(hyp_g2)
    with pytest.raises(ValueError):
        bases.cardinal_basis(basis, curves.sample_points(hyp_g2, 3, 4))


def test_petri_rank_dichotomy(quintic, hyp_g4):
    pb = petri_basis(quintic, 31, 131)
    assert pb.v_dim == 15
    assert pb.rank_certificate == 15

    hb = petri_basis(hyp_g4, 32, 132)
    assert hb.v_dim == 9
    assert hb.rank_certificate == 7 == 2 * hyp_g4.genus - 1


def test_petri_products_are_pair_products(quintic):
    pb = petri_basis(quintic, 33, 133)
    pts = curves.sample_points(quintic, 4, 34)
    omega_pts = pb.omega.evaluate(pts)
    prods = pb.products(omega_pts)
    sig = pb.phi_inv @ omega_pts  # the cardinal basis sigma = phi^-1 omega
    for slot, (a, b) in enumerate(zip(pb.pm.first, pb.pm.second)):
        assert np.allclose(prods[slot], sig[a] * sig[b], rtol=1e-12)
    # the v family is the leading slice of the product family
    vmat = pb.v_matrix(omega_pts)
    assert np.allclose(vmat, prods[: pb.v_dim], rtol=1e-12)


def test_petri_products_do_not_depend_on_the_omega_basis(quintic, rng):
    # sigma = phi^-1 omega is the cardinal basis whichever basis omega is
    basis = bases.holomorphic_basis(quintic)
    mixed = basis.transform(rng.standard_normal((6, 6)) + 0.5 * np.eye(6))
    anchors = curves.sample_points(quintic, 6, 43)
    pts = curves.sample_points(quintic, 4, 44)
    plain = bases.PetriBasis(basis, basis.evaluate(anchors))
    other = bases.PetriBasis(mixed, mixed.evaluate(anchors))
    want = plain.products(basis.evaluate(pts))
    got = other.products(mixed.evaluate(pts))
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_expansion_coefficients_reproduce_products(quintic):
    pb = petri_basis(quintic, 35, 135)
    nodes = curves.sample_points(quintic, pb.v_dim, 36)
    table = bases.expansion_coefficients(pb, nodes)
    assert table.shape == (21, 15)
    fresh = curves.sample_points(quintic, 30, 37)
    omega_fresh = pb.omega.evaluate(fresh)
    prods = pair_vector(omega_fresh, pb.pm)
    vmat = pb.v_matrix(omega_fresh)
    resid = np.max(np.abs(prods - table @ vmat))
    assert resid <= 1e-9 * max(1.0, np.max(np.abs(prods)))


def test_expansion_coefficients_node_independent(quintic):
    pb = petri_basis(quintic, 38, 138)
    t1 = bases.expansion_coefficients(pb, curves.sample_points(quintic, 15, 39))
    t2 = bases.expansion_coefficients(pb, curves.sample_points(quintic, 15, 40))
    assert np.max(np.abs(t1 - t2)) <= 1e-8 * max(1.0, np.max(np.abs(t1)))


def test_expansion_rejects_wrong_node_count(quintic):
    pb = petri_basis(quintic, 41, 141)
    with pytest.raises(ValueError):
        bases.expansion_coefficients(pb, curves.sample_points(quintic, 14, 42))
