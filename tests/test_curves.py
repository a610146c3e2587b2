"""Curve models, point sampling, and the JSON curve-file parser."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodiff import curves
from oracles import sample_hyperelliptic, sample_plane


def test_plane_curve_validation():
    with pytest.raises(ValueError, match="degree"):
        curves.PlaneCurve(3, [(3, 0, 1.0), (0, 0, 1.0)])  # degree too small
    with pytest.raises(ValueError, match="out of range"):
        curves.PlaneCurve(5, [(6, 0, 1.0)])  # exponents exceed degree
    with pytest.raises(ValueError, match="total degree"):
        curves.PlaneCurve(5, [(1, 0, 1.0)])  # no top-degree monomial
    with pytest.raises(ValueError, match="duplicate"):
        curves.PlaneCurve(5, [(5, 0, 1.0), (5, 0, 2.0)])  # duplicate
    with pytest.raises(ValueError, match="nonzero"):
        curves.PlaneCurve(5, [(5, 0, 0.0)])  # zero coefficient


def test_plane_curve_refuses_a_non_finite_coefficient():
    with pytest.raises(ValueError, match=r"coefficient of monomial \(0, 4\) is not finite"):
        curves.PlaneCurve(4, [(4, 0, 1.0), (0, 4, float("nan")), (0, 0, -1.0)])


def test_plane_genus_and_values(quintic):
    assert quintic.genus == 6
    assert quintic.degree == 5
    x = np.array([0.0 + 0j, 1.0 + 0j])
    y = np.array([-1.0 + 0j, 0.5 + 0j])
    f = quintic.f(x, y)
    assert f[0] == pytest.approx(0.0)
    assert f[1] == pytest.approx(1 + 0.5**5 + 1)
    # gradients of x^5 + y^5 + 1
    assert quintic.fx(x, y)[1] == pytest.approx(5.0)
    assert quintic.fy(x, y)[0] == pytest.approx(5.0)


def test_hyperelliptic_validation():
    with pytest.raises(ValueError, match="odd number"):
        curves.HyperellipticCurve([0.0, 1.0])  # even count
    with pytest.raises(ValueError, match="increasing"):
        curves.HyperellipticCurve([1.0, 0.0, 2.0])  # not increasing
    with pytest.raises(ValueError, match="separation floor 0.001"):
        curves.HyperellipticCurve([0.0, 1e-9, 1.0])  # too close


@pytest.mark.parametrize("points,shape", [(5.0, "()"), ([[0.0, 1.0, 2.0]], "(1, 3)")])
def test_hyperelliptic_refuses_a_branch_point_array_that_is_not_flat(points, shape):
    # a scalar has no length and a row of three is one row, not one point:
    # both are refused by their shape
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        curves.HyperellipticCurve(points)


@pytest.mark.parametrize("points", [[0.0, float("nan"), 2.0], [0.0, 1.0, float("inf")]])
def test_hyperelliptic_refuses_non_finite_branch_points(points):
    with pytest.raises(ValueError, match="branch points must be finite"):
        curves.HyperellipticCurve(points)


def test_hyperelliptic_model(hyp_g2):
    assert hyp_g2.genus == 2
    x = np.array([3.0 + 0j])
    assert hyp_g2.f(x)[0] == pytest.approx(3 * 5 * 4 * 2 * 1)  # prod(3 - e)
    assert hyp_g2.branch_distance(np.array([0.4 + 0.3j]))[0] == pytest.approx(0.5)


def test_sample_points_on_curve(quintic):
    pts = curves.sample_points(quintic, 12, 101)
    assert len(pts) == 12
    for p in pts:
        resid = abs(quintic.f(p.x, p.y)[0])
        assert resid <= 1e-9 * quintic.on_curve_scale(p.x, p.y)[0]
        assert p.chart in ("x", "y")
    # determinism
    again = curves.sample_points(quintic, 12, 101)
    assert all(p.x == q.x and p.y == q.y for p, q in zip(pts, again))


def test_sample_points_distinct(quintic):
    pts = curves.sample_points(quintic, 15, 7)
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            assert abs(p.x - q.x) + abs(p.y - q.y) >= 1e-4


def test_sample_real_mode(hyp_g2):
    pts = curves.sample_points(hyp_g2, 8, 11, mode="real")
    for p in pts:
        assert p.x.imag == 0.0
        assert hyp_g2.branch_distance(np.array([p.x]))[0] >= 0.05
        assert p.y**2 == pytest.approx(hyp_g2.f(np.array([p.x]))[0], rel=1e-12)


def test_sampling_failure_reports_reason(hyp_g2, monkeypatch):
    monkeypatch.setattr(curves, "BRANCH_MARGIN", 10.0)
    with pytest.raises(curves.SamplingError) as exc:
        curves.sample_points(hyp_g2, 5, 1, mode="real")
    assert "branch" in str(exc.value)


def test_plane_sampling_budget_reports_chart_reason(quintic, monkeypatch):
    # no gradient share can reach 2.0, so every draw fails the chart test
    monkeypatch.setattr(curves, "CHART_RATIO_MIN", 2.0)
    with pytest.raises(curves.SamplingError) as exc:
        curves.sample_points(quintic, 3, 0)
    assert f"gave up after {curves.MAX_DRAWS_PER_POINT} draws" in str(exc.value)
    assert "near-singular chart" in str(exc.value)


def test_sample_mode_validation(hyp_g2):
    with pytest.raises(ValueError):
        curves.sample_points(hyp_g2, 3, 0, mode="imaginary")


def test_implicit_derivative_consistency(quintic):
    # moving along the curve, dy/dx must equal -F_x / F_y
    pts = curves.sample_points(quintic, 6, 55)
    for p in pts:
        if p.chart != "x":
            continue
        h = 1e-7
        x2 = p.x + h
        roots = np.roots(quintic.y_poly_coeffs(x2))
        y2 = roots[np.argmin(np.abs(roots - p.y))]
        slope = (y2 - p.y) / h
        implicit = -quintic.fx(p.x, p.y)[0] / quintic.fy(p.x, p.y)[0]
        assert abs(slope - implicit) < 1e-5 * max(1.0, abs(implicit))


MIXED_QUARTIC = [(4, 0, 1.0), (0, 4, 1.0 + 0.5j), (0, 0, 1.0), (1, 1, 0.3 - 0.2j),
                 (2, 1, -0.7j), (1, 2, 0.4), (3, 0, 0.25 + 0.1j)]


@pytest.mark.parametrize("terms", [None, MIXED_QUARTIC])
def test_y_poly_horner_matches_direct_evaluation(quintic, terms):
    model = quintic if terms is None else curves.PlaneCurve(4, terms)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f_y = model.y_poly_coeffs(x)
        pairs = (
            (f_y, model.f),
            (np.polyder(f_y), model.fy),
            (model.fx_y_poly_coeffs(x), model.fx),
        )
        for coeffs, direct in pairs:
            want = direct(x, y)[0]
            got = curves._horner_rows(coeffs[None, :], np.array([y]))[0]
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("mode", ["complex", "real"])
@pytest.mark.parametrize(
    "terms,seeds,count",
    [(None, 2000, 16), (MIXED_QUARTIC, 500, 10)],
    ids=["quintic", "mixed-quartic"],
)
def test_batched_sampler_matches_one_draw_oracle(quintic, terms, seeds, count, mode):
    model = quintic if terms is None else curves.PlaneCurve(4, terms)
    for seed in range(seeds):
        pts = curves.sample_points(model, count, seed, mode)
        want = sample_plane(model, count, seed, mode)
        assert [(p.x, p.chart) for p in pts] == [(x, c) for x, _, c in want]
        for p, (_, y, _) in zip(pts, want):
            assert abs(p.y - y) <= 1e-15 * abs(y)


def test_draw_budget_matches_one_draw_oracle(quintic, monkeypatch):
    # a small budget and a wide separation make duplicates common, so some
    # seeds exhaust the budget of one point and others only spread misses
    # over several points; the budget must restart at every accepted point
    monkeypatch.setattr(curves, "MAX_DRAWS_PER_POINT", 3)
    monkeypatch.setattr(curves, "MIN_POINT_SEPARATION", 1.5)

    def outcome(sample):
        try:
            return [(x, c) for x, _, c in sample()]
        except curves.SamplingError as exc:
            return str(exc)

    outcomes = []
    for seed in range(200):
        got = outcome(lambda: [(p.x, p.y, p.chart)
                               for p in curves.sample_points(quintic, 8, seed)])
        assert got == outcome(lambda: sample_plane(quintic, 8, seed))
        outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes)


def _root_order(roots):
    return roots[np.argsort(abs(roots - curves.ROOT_ORDER_POINT), kind="stable")]


def _padded(poly, lead, trail, width=8):
    """poly with `lead` leading and `trail` trailing zero coefficients, right-aligned
    in a row of `width` with zeros in front."""
    row = np.zeros(width, dtype=complex)
    body = np.concatenate([np.zeros(lead), poly, np.zeros(trail)])
    row[width - len(body):] = body
    return row


def _separated_roots(rng, m, real):
    """m roots at least 0.2 apart, in the disk of radius 2; with `real`, the
    set is closed under conjugation and holds several real roots."""
    roots = []
    while len(roots) < m:
        if real and (len(roots) % 3 == 0 or len(roots) == m - 1):
            cand = [complex(rng.uniform(-2, 2))]
        else:
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            cand = [z, z.conjugate()] if real else [z]
            if real and abs(z.imag) < 0.1:
                continue
        if all(abs(c - r) >= 0.2 for c in cand for r in roots):
            roots += cand
    return np.array(roots)


def test_pick_roots_matches_sorted_np_roots():
    # every root of each row, drawn by index, against np.roots sorted by
    # the same distance; rows mix complex and real coefficients (conjugate
    # pairs, several real roots), leading and trailing zero coefficients
    # (roots at 0 are ordered with the rest) and a near-double root.  Both
    # root finders are backward stable, so they agree to a multiple of eps
    # times each root's condition number sum |c_j| |y|^j / |p'(y)|; every
    # tolerance is below half the gap between the distances of two roots,
    # so a root taken in the wrong order cannot pass.
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    coeffs, want, pick, tol = [], [], [], []
    for _ in range(400):
        m = int(rng.integers(1, 8))
        kind = rng.integers(4)
        if kind == 0:
            poly = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        elif kind == 1:
            poly = np.poly(_separated_roots(rng, m, real=True)) * rng.uniform(0.5, 2.0)
            assert not np.any(poly.imag)
        elif kind == 2:
            poly = np.poly(_separated_roots(rng, m, real=False)) * complex(*rng.standard_normal(2))
        else:
            roots = _separated_roots(rng, max(m, 2) - 1, real=False)
            # a second root 1e-5 from the first, along the ordering direction
            away = roots[0] - curves.ROOT_ORDER_POINT
            poly = np.poly(np.append(roots, roots[0] + 1e-5 * away / abs(away)))
        lead = int(rng.integers(0, 8 - len(poly) + 1))
        trail = int(rng.integers(0, 8 - len(poly) - lead + 1))
        row = _padded(poly, lead, trail)
        roots = _root_order(np.roots(row))
        cond = np.polyval(abs(poly), abs(roots)) / abs(np.polyval(np.polyder(poly), roots))
        row_tol = 200 * eps * np.where(roots == 0, 1.0, cond)  # roots at 0 are exact
        key = abs(roots - curves.ROOT_ORDER_POINT)
        gaps = np.diff(key)[roots[1:] != roots[:-1]]
        assert np.all(row_tol < 0.5 * np.min(gaps, initial=np.inf))
        coeffs += [row] * len(roots)
        want += roots.tolist()
        pick += range(len(roots))
        tol += row_tol.tolist()
    got = curves._pick_roots(np.array(coeffs), np.array(pick))
    assert np.all(abs(got - np.array(want)) <= np.array(tol))


@pytest.mark.parametrize("others", [[-2, 3j], [-2, 3j, 0.5 - 1.5j],
                                    [1.5j, -1.25, 2 - 0.5j, -0.75j]])
@pytest.mark.parametrize("base", [1, -0.5 + 1j, 1.25j])
def test_pick_roots_resolves_near_double_root(base, others):
    # roots base and base + 2**-20 next to others: every coefficient is
    # exact, so the roots are known.  Stopping at the first step where
    # |p(y)| reaches the rounding bound leaves such a pair up to 3e-8
    # off; iterating on until the corrections stop shrinking gets within
    # 1e-9, which np.roots (up to 3e-9 off here) does not beat
    roots = np.array([base, base + 2.0**-20] + others, dtype=complex)
    poly = np.array([1.0 + 0j])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    want = _root_order(roots)
    got = curves._pick_roots(np.tile(poly, (len(roots), 1)), np.arange(len(roots)))
    assert np.max(abs(got - want)) <= 1e-9


@pytest.mark.parametrize("roots", [[1, 2, 3], [1 + 1j, 1 - 1j, 1]])
def test_pick_roots_when_the_mean_of_the_roots_is_a_root(roots):
    # the start circle around the mean s has radius |p(s)|^(1/m), here 0:
    # the iteration starts on a circle through a bound on the roots instead
    roots = np.array(roots, dtype=complex)
    poly = np.poly(roots)
    got = curves._pick_roots(np.tile(poly, (len(roots), 1)), np.arange(len(roots)))
    assert np.max(abs(got - _root_order(roots))) <= 1e-14


@pytest.mark.parametrize("terms", [None, MIXED_QUARTIC])
def test_pick_roots_row_independent_of_batch(quintic, terms):
    # a row alone gives bit for bit the root it gives inside a 200-row
    # batch, so a point set drawn with other sets equals the set drawn alone
    model = quintic if terms is None else curves.PlaneCurve(4, terms)
    rng = np.random.default_rng(17)
    x = 2 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    x[::7] = x[::7].real  # real draws among the complex ones
    coeffs = model.y_poly_coeffs(x)
    pick = rng.integers(model.degree, size=200)
    batch = curves._pick_roots(coeffs, pick)
    alone = [curves._pick_roots(coeffs[i:i + 1], pick[i:i + 1])[0] for i in range(200)]
    assert batch.tolist() == alone


def test_root_step_cap_accepts_only_points_on_the_curve(monkeypatch):
    # one Aberth step leaves some mixed-quartic roots too far off for the
    # three Newton steps; such a draw is a miss with the polish reason, and
    # every accepted point still passes the on-curve test
    model = curves.PlaneCurve(4, MIXED_QUARTIC)
    monkeypatch.setattr(curves, "ABERTH_MAX_STEPS", 1)
    monkeypatch.setattr(curves, "MAX_DRAWS_PER_POINT", 1)
    reasons, accepted = set(), 0
    for seed in range(40):
        try:
            pts = curves.sample_points(model, 20, seed)
        except curves.SamplingError as exc:
            reasons.add(str(exc).split("last rejection: ")[1])
            continue
        for p in pts:
            resid = abs(model.f(p.x, p.y)[0])
            assert resid <= curves.ON_CURVE_RTOL * model.on_curve_scale(p.x, p.y)[0]
        accepted += len(pts)
    assert "root polish left the curve residual too large" in reasons
    assert accepted >= 200


@pytest.mark.parametrize("k", [1, 5, 3 * 2**30 + 1])
def test_word_stream_matches_generator_draws(k):
    # integers(1) reads no word; k = 5, the quintic's root count, rejects
    # a 32-bit draw with probability 2**-32; k = 3 * 2**30 + 1 rejects
    # about a quarter of them.  Blocks of draws carry unused words and the
    # kept half-word from one block to the next, as the samplers do.
    blocks = np.random.default_rng(k).integers(2, size=(40, 6)).tolist()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        words = curves._WordStream(np.random.default_rng(seed))
        for block in blocks:
            words.read(len(block))
            pos = 0
            for bounded in block:
                if bounded:
                    got, pos = words.integer(k, pos)
                    assert got == rng.integers(k)
                else:
                    words.read(pos + 1)
                    assert words.doubles()[pos] == rng.uniform()
                    pos += 1
            words.used(pos)
        state = rng.bit_generator.state
        assert (words.half is not None) == bool(state["has_uint32"])
        assert words.half in (None, state["uinteger"])
        words.read(1)
        assert words.words[0] == rng.bit_generator.random_raw()


@pytest.mark.parametrize("mode", ["complex", "real"])
def test_hyperelliptic_sampler_matches_one_draw_oracle(hyp_g2, hyp_g4, mode):
    for seed in range(2000):
        model = hyp_g4 if seed % 4 == 3 else hyp_g2
        got = [(p.x, p.y, p.chart, p.sheet)
               for p in curves.sample_points(model, 12, seed, mode)]
        assert got == sample_hyperelliptic(model, 12, seed, mode)


@pytest.mark.parametrize("mode", ["complex", "real"])
def test_hyperelliptic_draw_budget_matches_one_draw_oracle(hyp_g2, monkeypatch, mode):
    # wide branch margins and separations make both rejections common, so
    # some seeds exhaust the budget and others carry misses across points
    monkeypatch.setattr(curves, "MAX_DRAWS_PER_POINT", 4)
    monkeypatch.setattr(curves, "BRANCH_MARGIN", 0.3)
    monkeypatch.setattr(curves, "MIN_POINT_SEPARATION", 1.0)

    def outcome(sample):
        try:
            return sample()
        except curves.SamplingError as exc:
            return str(exc)

    outcomes = []
    for seed in range(300):
        got = outcome(lambda: [(p.x, p.y, p.chart, p.sheet)
                               for p in curves.sample_points(hyp_g2, 6, seed, mode)])
        assert got == outcome(lambda: sample_hyperelliptic(hyp_g2, 6, seed, mode))
        outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes)


def _as_tuples(points):
    return [(p.x, p.y, p.chart, p.sheet) for p in points]


@pytest.mark.parametrize("mode", ["complex", "real"])
@pytest.mark.parametrize("kind", ["quintic", "g2", "g4"])
def test_sample_sets_match_set_by_set_draws(quintic, hyp_g2, hyp_g4, kind, mode):
    # mixed counts and seeds in each call, a zero count among them; every
    # set is the points sample_points and the one-draw oracle give it alone
    model = {"quintic": quintic, "g2": hyp_g2, "g4": hyp_g4}[kind]
    counts = (16, 20, 0, 6, 15, 3)
    for call in range(40):
        requests = [(count, 97 * call + k) for k, count in enumerate(counts)]
        got = curves.sample_sets(model, requests, mode)
        assert len(got) == len(requests)
        for (count, seed), pts in zip(requests, got):
            assert _as_tuples(pts) == _as_tuples(curves.sample_points(model, count, seed, mode))
            if kind == "quintic":
                want = sample_plane(model, count, seed, mode)
                assert [(p.x, p.chart) for p in pts] == [(x, c) for x, _, c in want]
                for p, (_, y, _) in zip(pts, want):
                    assert abs(p.y - y) <= 1e-15 * abs(y)
            else:
                assert [(p.x, p.y, p.chart, p.sheet) for p in pts] == sample_hyperelliptic(
                    model, count, seed, mode)


def test_sample_sets_budget_fails_only_its_own_set(quintic, hyp_g2, monkeypatch):
    # at this separation forty points cannot all be told apart, so the
    # 40-point set runs out of draws; the small sets around it still come back
    monkeypatch.setattr(curves, "MIN_POINT_SEPARATION", 2.5)
    for model, mode in ((quintic, "complex"), (hyp_g2, "real")):
        requests = [(2, 0), (40, 1), (3, 2)]
        got = curves.sample_sets(model, requests, mode)
        assert isinstance(got[1], curves.SamplingError)
        assert str(got[1]) == (f"gave up after {curves.MAX_DRAWS_PER_POINT} draws; "
                               "last rejection: duplicate of an accepted point")
        with pytest.raises(curves.SamplingError) as exc:
            curves.sample_points(model, 40, 1, mode)
        assert str(exc.value) == str(got[1])
        for k in (0, 2):
            count, seed = requests[k]
            assert _as_tuples(got[k]) == _as_tuples(
                curves.sample_points(model, count, seed, mode))
    # every draw fails the chart test: each set gets its own error
    monkeypatch.setattr(curves, "CHART_RATIO_MIN", 2.0)
    got = curves.sample_sets(quintic, [(3, 0), (0, 1), (1, 2)])
    assert got[1] == []
    for err in (got[0], got[2]):
        assert isinstance(err, curves.SamplingError)
        assert "near-singular chart" in str(err)
    assert got[0] is not got[2]


def test_sample_sets_validation(quintic):
    with pytest.raises(ValueError, match="mode"):
        curves.sample_sets(quintic, [(3, 0)], mode="imaginary")
    with pytest.raises(ValueError, match="nonnegative"):
        curves.sample_sets(quintic, [(3, 0), (-1, 1)])
    with pytest.raises(TypeError, match="unsupported model"):
        curves.sample_sets(object(), [(3, 0)])
    assert curves.sample_sets(quintic, []) == []


def test_parse_plane_spec():
    model = curves.parse_curve_spec(
        '{"type": "plane", "degree": 5,'
        ' "coeffs": [[5, 0, 1, 0], [0, 5, 1, 0], [0, 0, 1, 0]]}'
    )
    assert isinstance(model, curves.PlaneCurve)
    assert model.genus == 6


def test_parse_hyperelliptic_spec():
    model = curves.parse_curve_spec(
        '{"type": "hyperelliptic", "branch_points": [-1, 0, 1]}'
    )
    assert isinstance(model, curves.HyperellipticCurve)
    assert model.genus == 1


def test_parse_reports_json_line():
    with pytest.raises(curves.CurveSpecError) as exc:
        curves.parse_curve_spec('{"type": "plane",\n  "degree": ')
    assert "line 2" in str(exc.value)


def test_parse_reports_field():
    with pytest.raises(curves.CurveSpecError) as exc:
        curves.parse_curve_spec('{"type": "moebius"}')
    assert "field 'type'" in str(exc.value)
    with pytest.raises(curves.CurveSpecError) as exc:
        curves.parse_curve_spec('{"type": "plane", "degree": 2, "coeffs": []}')
    assert "field 'degree'" in str(exc.value)


_QUINTIC = [[5, 0, 1, 0], [0, 5, 1, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("doc,field", [
    ('{"type": "hyperelliptic", "branch_points": [NaN, 0.5, 1.5]}', "branch_points[0]"),
    ('{"type": "hyperelliptic", "branch_points": [-1, 0.5, Infinity]}', "branch_points[2]"),
    ('{"type": "hyperelliptic", "branch_points": [-1, -Infinity, 1.5]}', "branch_points[1]"),
    ('{"type": "hyperelliptic", "branch_points": [-1, 0.5, 1e999]}', "branch_points[2]"),
    ('{"type": "hyperelliptic", "branch_points": [-1, 0.5, 1%s]}' % ("0" * 400),
     "branch_points[2]"),
    ('{"type": "plane", "degree": 5, "coeffs": [[5, 0, 1, 0], [0, 5, 1, 0], [0, 0, NaN, 0]]}',
     "coeffs[2]"),
    ('{"type": "plane", "degree": 5, "coeffs": [[5, 0, 1, 0], [0, 5, 1, Infinity]]}',
     "coeffs[1]"),
    # json reads false as a bool, which Python counts as the int 0
    ('{"type": "plane", "degree": 5, "coeffs": [[5, 0, 1, 0], [false, 5, 1, 0], [0, 0, 1, 0]]}',
     "coeffs[1]"),
], ids=["nan", "inf", "minus-inf", "1e999", "big-int", "nan-coeff", "inf-coeff",
        "bool-exponent"])
def test_parse_refuses_non_finite_numbers(doc, field):
    with pytest.raises(curves.CurveSpecError, match=re.escape(f"field '{field}'")):
        curves.parse_curve_spec(doc)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_any_non_finite_number_in_a_spec_is_refused(data):
    # a valid spec with one number, at a drawn place, spelled as a JSON
    # token that no float holds finitely or as a boolean
    token = data.draw(st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "1e999", "-2e400", "true", "false"]))
    number = st.floats(-3.0, 3.0)
    if data.draw(st.booleans()):
        doc = {"type": "hyperelliptic",
               "branch_points": data.draw(st.lists(number, min_size=3, max_size=9))}
        at = data.draw(st.integers(0, len(doc["branch_points"]) - 1))
        doc["branch_points"][at] = "@"
        field = f"branch_points[{at}]"
    else:
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), number, number)
            .filter(lambda t: t[0] + t[1] <= 5).map(list), max_size=6))
        doc = {"type": "plane", "degree": 5, "coeffs": [list(t) for t in _QUINTIC] + extra}
        at = data.draw(st.integers(0, len(doc["coeffs"]) - 1))
        doc["coeffs"][at][data.draw(st.sampled_from([2, 3]))] = "@"
        field = f"coeffs[{at}]"
    text = json.dumps(doc).replace('"@"', token)
    with pytest.raises(curves.CurveSpecError, match=re.escape(f"field '{field}'")):
        curves.parse_curve_spec(text)


def test_point_chart_validation(hyp_g2):
    with pytest.raises(ValueError):
        curves.CurvePoint(hyp_g2, 0.5, 1.0, "z", 1)
