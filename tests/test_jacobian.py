"""Tests for period matrices, Abel maps, and elliptic reduction."""

from pathlib import Path

import mpmath
import numpy as np
import pytest

from holodiff import cli, curves, theta
from holodiff import jacobian as jac
from holodiff.curves import CurvePoint, HyperellipticCurve

from oracles import abel_map_per_point, bundled, lattice_distance, periods_by_segment


def _integrate(f, a, b, sing_a=True, sing_b=True):
    """(value, last doubling difference) of f over [a, b], singular at the
    flagged ends: quad_segment on one interval when both are flagged, else
    node doubling on `_one_sided_rule`, as `_real_chains` runs it."""
    if sing_a and sing_b:
        vals, gaps = jac.quad_segment(f, np.array([a]), np.array([b]))
        return vals[0], gaps[0]
    vals, gaps = jac._node_doubling(
        lambda n, _: jac._one_sided_rule(lambda x, _: f(x), a, b, sing_a, n)[None],
        1, jac.SEGMENT_RTOL, jac.QUAD_CAP, "segment quadrature")
    return vals[0], gaps[0]


def test_quad_segment_both_singular_endpoints():
    # arcsine weight: integral of 1/sqrt(x(1-x)) over [0,1] is pi
    val, diff = _integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)
    assert abs(val - np.pi) <= 1e-12 * np.pi
    assert diff <= 1e-10 * abs(val)


def test_quad_segment_one_singular_endpoint():
    # the one-sided rule of the partial segments of `_real_chains`
    val, _ = _integrate(lambda x: x / np.sqrt(1.0 - x * x), 0.0, 1.0, False, True)
    assert abs(val - 1.0) <= 1e-12


def test_quad_segment_validation_and_cap(monkeypatch):
    with pytest.raises(ValueError, match="a < b"):
        _integrate(lambda x: x, 1.0, 0.0)
    monkeypatch.setattr(jac, "QUAD_CAP", 256)
    with pytest.raises(jac.QuadratureError, match="convergence"):
        _integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_node_doubling_refuses_non_finite_values():
    # inf - inf is never tested by the doubling gap, so a non-finite rule
    # value raises at the node count that produced it
    def f(x):
        return np.full(x.shape, np.inf if x.shape[-1] >= 64 else 1.0)

    with pytest.raises(jac.QuadratureError, match="segment quadrature: non-finite value at 64 nodes"):
        _integrate(f, 0.0, 1.0)


def test_abel_map_converges_next_to_a_branch_point():
    # 1.6e-4 left of the first branch point: with x - e0 recomputed from the
    # rounded x = e0 - t^2 the leg drifted from 32 to 1024 nodes and x
    # rounded onto e0 at 2048; the rule now passes the exact -t^2 as that
    # factor.  Oracle: mpmath at 40 digits after t = e0 - s^2, with y
    # continued along the axis to the point's own y.
    e = [-0.95, -0.746, 1.082, 1.241, 1.712, 1.944, 2.646]
    curve = curves.HyperellipticCurve(e)
    pd = jac.compute_periods(curve)
    x = -0.9501638
    y = complex(np.sqrt(curve.f(np.array([x]))[0]))
    p = curves.CurvePoint(curve, complex(x), y, "x", 1)
    vec, err = jac.abel_map(pd, p)
    assert abel_map_per_point(pd, p)[1][0] == "real:-0.95->-0.9501638"
    with mpmath.workdps(40):
        e0, reach = mpmath.mpf(e[0]), mpmath.sqrt(mpmath.mpf(e[0]) - mpmath.mpf(x))

        def rest(t):
            return abs(mpmath.fprod(t - mpmath.mpf(ei) for ei in e[1:]))

        legs = [mpmath.quad(lambda s, k=k: 2 * (e0 - s * s) ** k / mpmath.sqrt(rest(e0 - s * s)),
                            [0, reach]) for k in range(curve.genus)]
        scale = -mpmath.sqrt(abs(mpmath.fprod(mpmath.mpf(x) - mpmath.mpf(ei) for ei in e))) / y
        want = pd.normalization @ np.array([complex(scale * leg) for leg in legs])
    assert np.max(np.abs(vec - want)) <= 1e-12 * np.max(np.abs(want))
    assert err <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("sing_a, sing_b", [(True, True), (False, True), (True, False)])
def test_quad_segment_rows_match_scalar_calls(sing_a, sing_b):
    # inverse-square-root singular exactly at the flagged ends of [-1, 2]
    weight = lambda x: (x + 1.0) ** (-0.5 * sing_a) * (2.0 - x) ** (-0.5 * sing_b)

    def row(k):
        return lambda x: np.exp(0.3 * k * x) * weight(x)

    rows = lambda x: np.stack([row(k)(x) for k in range(3)])
    vals, gaps = _integrate(rows, -1.0, 2.0, sing_a, sing_b)
    assert vals.shape == gaps.shape == (3,)
    for k in range(3):
        val, _ = _integrate(row(k), -1.0, 2.0, sing_a, sing_b)
        assert abs(vals[k] - val) <= 1e-12 * abs(val)


def _assert_periods_match_segment_loop(curve):
    pd = jac.compute_periods(curve)
    tau, seg, seg_err = periods_by_segment(curve)
    assert pd.tau.z.tobytes() == tau.tobytes()
    assert pd.seg_values.tobytes() == seg.tobytes()
    assert pd.seg_errors.tobytes() == seg_err.tobytes()


def _real_branch_curve(rng, g):
    gaps = rng.uniform(0.3, 1.5, 2 * g)
    return HyperellipticCurve(np.concatenate([[0.0], np.cumsum(gaps)]) - gaps.sum() / 2)


@pytest.mark.parametrize("name", ["lemniscatic_g1.json", "hyperelliptic_g2.json"])
def test_periods_match_segment_loop_on_bundled_curves(name):
    # all segments in one node-doubling loop, bit for bit the loop of one
    # quad_segment call per segment
    _assert_periods_match_segment_loop(bundled(name))


def test_periods_match_segment_loop_on_random_curves(hyp_g3):
    # hyp_g3 has the branch points of tools/bench_layers.G3_BRANCH_POINTS
    _assert_periods_match_segment_loop(hyp_g3)
    rng = np.random.default_rng(1717)
    for _ in range(20):
        _assert_periods_match_segment_loop(_real_branch_curve(rng, int(rng.integers(1, 4))))


@pytest.mark.parametrize("g", [4, 5, 6])
def test_periods_match_segment_loop_above_the_genus_cap(g):
    _assert_periods_match_segment_loop(_real_branch_curve(np.random.default_rng(g), g))


def test_float_abs_f_matches_complex_f(hyp_g2, hyp_g3, lemniscatic):
    # |f| from the real-axis product is |Re f| of the complex one, bit for
    # bit, left of, between, on and right of the branch points
    rng = np.random.default_rng(4)
    for curve in (lemniscatic, hyp_g2, hyp_g3):
        e = np.asarray(curve.branch_points)
        x = np.concatenate([rng.uniform(e[0] - 2.0, e[-1] + 2.0, 400),
                            e[-1] + rng.uniform(0.0, 3.0, 100), e])
        assert np.abs(jac._f_real(curve, x)).tobytes() == np.abs(curve.f(x).real).tobytes()


def test_lemniscatic_periods_give_square_lattice(pd_g1):
    assert abs(pd_g1.tau.z[0, 0] - 1j) <= 1e-8


def test_elliptic_tau_from_cubic_lemniscatic():
    tau = jac.elliptic_tau_from_cubic([-1.0, 0.0, 1.0])
    assert abs(tau - 1j) <= 1e-8


def test_elliptic_tau_equianharmonic():
    w = np.exp(2j * np.pi / 3.0)
    tau = jac.elliptic_tau_from_cubic([1.0 + 0j, w, w**2])
    corners = (np.exp(1j * np.pi / 3.0), np.exp(2j * np.pi / 3.0))
    assert min(abs(tau - c) for c in corners) <= 1e-8
    # same curve through its coefficient form x^3 - 1
    tau2 = jac.elliptic_tau_from_cubic([1.0, 0.0, 0.0, -1.0])
    assert min(abs(tau2 - c) for c in corners) <= 1e-8


def test_elliptic_tau_validation():
    with pytest.raises(ValueError, match="leading"):
        jac.elliptic_tau_from_cubic([0.0, 1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="three roots or four"):
        jac.elliptic_tau_from_cubic([1.0, 2.0])


def test_fundamental_domain_reduction():
    t = jac.reduce_to_fundamental_domain(2.3 + 0.4j)
    assert abs(t.real) <= 0.5 + 1e-12
    assert abs(t) >= 1.0 - 1e-12
    base = 0.1 + 1.4j
    assert jac.reduce_to_fundamental_domain(base + 7.0) == pytest.approx(
        jac.reduce_to_fundamental_domain(base)
    )
    assert jac.reduce_to_fundamental_domain(-1.0 / base) == pytest.approx(
        jac.reduce_to_fundamental_domain(base)
    )
    with pytest.raises(ValueError, match="upper half"):
        jac.reduce_to_fundamental_domain(1.0 - 0.5j)


def test_genus2_period_certificates(pd_g2):
    assert pd_g2.genus == 2
    assert pd_g2.symmetry_dev <= 1e-12
    assert np.min(np.linalg.eigvalsh(pd_g2.tau.y)) > 0
    # normalization is the inverse transposed cycle-period matrix
    resid = pd_g2.normalization @ pd_g2.a_periods.T - np.eye(2)
    assert np.max(np.abs(resid)) <= 1e-10
    # real branch points force a purely imaginary period matrix
    assert np.max(np.abs(pd_g2.tau.z.real)) <= 1e-10 * np.max(np.abs(pd_g2.tau.z))


def test_genus3_periods():
    curve = HyperellipticCurve([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    pd = jac.compute_periods(curve)
    assert pd.genus == 3
    assert pd.symmetry_dev <= 1e-12
    assert np.min(np.linalg.eigvalsh(pd.tau.y)) > 0


def test_periods_report_on_the_bundled_genus_four_curve(capsys):
    # periods evaluate no theta, so compute_periods has no genus cap
    spec = Path(cli.__file__).parent / "data" / "hyperelliptic_g4.json"
    assert cli.main(["periods", "--spec", str(spec)]) == 0
    records = {ln.split()[0]: dict(kv.split("=", 1) for kv in ln.split()[1:])
               for ln in capsys.readouterr().out.splitlines() if ln.startswith("check=")}
    assert {r["status"] for r in records.values()} == {"PASS"}
    assert float(records["check=periods-symmetry"]["residual"]) <= 1e-13
    assert abs(float(records["check=periods-positivity"]["note"].split("=")[1]) - 0.5311) <= 1e-6
    # positivity reports the SiegelPoint certificate g eps lambda_max / lambda_min < 1
    lam = np.linalg.eigvalsh(jac.compute_periods(curves.parse_curve_spec(spec.read_text())).tau.y)
    ratio = float(records["check=periods-positivity"]["residual"])
    assert ratio == float(f"{4 * np.finfo(float).eps * lam[-1] / lam[0]:.6e}")
    assert records["check=periods-positivity"]["tol"] == "1.000000e+00"


def test_phase_y_squares_to_f(hyp_g2):
    xs = np.array([-1.5, -0.5, 0.5, 1.5, 3.0])
    ys = jac._axis_y(hyp_g2, xs)
    for x, y in zip(xs, ys):
        f = complex(hyp_g2.f(x)[0])
        assert abs(y * y - f) <= 1e-10 * max(abs(f), 1e-30)


def test_abel_base_point_is_zero(pd_g2):
    p = CurvePoint(pd_g2.curve, -2.0, 0.0)
    vec, _ = jac.abel_map(pd_g2, p)
    assert np.max(np.abs(vec)) <= 1e-12


def test_abel_branch_points_are_half_periods(pd_g2):
    for e in pd_g2.curve.branch_points:
        vec, _ = jac.abel_map(pd_g2, CurvePoint(pd_g2.curve, e, 0.0))
        assert lattice_distance(2.0 * vec, pd_g2.tau) <= 1e-6


def test_riemann_constant_is_the_sum_of_even_branch_images(pd_g1, pd_g2, pd_g3):
    for pd in (pd_g1, pd_g2, pd_g3):
        e = pd.curve.branch_points
        imgs, _ = jac.abel_map(pd, [CurvePoint(pd.curve, e[2 * j], 0.0)
                                    for j in range(1, pd.genus + 1)])
        total = imgs.sum(axis=0)
        assert np.max(np.abs(jac.riemann_constant(pd) - total)) <= 1e-12


@pytest.mark.parametrize("name", ["pd_g2", "pd_g3"])
def test_riemann_vanishing_at_the_closed_form(name, request):
    # theta(A(D) - K) = 0 on effective divisors D of degree g - 1; K plus
    # any other half-period misses on some D
    pd = request.getfixturevalue(name)
    g = pd.genus
    pts = curves.sample_points(pd.curve, 6 * (g - 1), seed=2718)
    divisors = jac.abel_map(pd, pts)[0].reshape(6, g - 1, g).sum(axis=1)
    halves = [pd.tau.z @ ch.a + ch.b
              for ch in (theta.ThetaCharacteristic.from_bits(ia, ib, g)
                         for ia in range(2**g) for ib in range(2**g))]
    shifted = jac.riemann_constant(pd) + np.array(halves)
    vals = theta.theta((divisors[None] - shifted[:, None]).reshape(-1, g), pd.tau)
    ratio = (np.abs(vals.mantissa) / vals.peak).reshape(len(halves), 6)
    assert np.max(ratio[0]) <= 1e-12
    assert np.all(np.max(ratio[1:], axis=1) > 1e-2)


def test_abel_path_independence(pd_g2):
    # the oracle's chain detoured through via lands on the same point
    x = 0.6 + 0.8j
    y = np.sqrt(complex(pd_g2.curve.f(x)[0]))
    p = CurvePoint(pd_g2.curve, x, y)
    direct, _ = jac.abel_map(pd_g2, p)
    detour, path, _ = abel_map_per_point(pd_g2, p, 0.6 + 1.6j)
    assert lattice_distance(direct - detour, pd_g2.tau) <= 1e-8
    assert [tag for tag in path if tag.startswith("leg:")] == [
        "leg:(0.6+0j)->(0.6+1.6j)", "leg:(0.6+1.6j)->(0.6+0.8j)"]
    assert any(tag.startswith("leg:") for tag in abel_map_per_point(pd_g2, p)[1])


def test_abel_involution_negates(pd_g2):
    x = -0.4 + 0.9j
    y = np.sqrt(complex(pd_g2.curve.f(x)[0]))
    up, _ = jac.abel_map(pd_g2, CurvePoint(pd_g2.curve, x, y))
    down, _ = jac.abel_map(pd_g2, CurvePoint(pd_g2.curve, x, -y))
    assert lattice_distance(up + down, pd_g2.tau) <= 1e-8


def test_abel_rejects_foreign_point(pd_g2, lemniscatic):
    p = CurvePoint(lemniscatic, 0.5, 0.1)
    with pytest.raises(ValueError, match="curve"):
        jac.abel_map(pd_g2, p)


@pytest.fixture(scope="module")
def pd_bundled():
    curve = bundled("hyperelliptic_g2.json")
    return jac.compute_periods(curve)


def _assert_matches_oracle(pd, pts):
    """One abel_map call on pts against the per-point oracle, bit for bit
    in every vector and error sum, and each point as a one-point call;
    returns the oracle's path records."""
    vecs, errs = jac.abel_map(pd, pts)
    assert vecs.shape == (len(pts), pd.genus) and errs.shape == (len(pts),)
    paths = []
    for p, got, got_err in zip(pts, vecs, errs):
        vec, path, err = abel_map_per_point(pd, p)
        assert np.array_equal(got, vec)
        assert got_err == err
        one, one_err = jac.abel_map(pd, p)
        assert one.shape == (pd.genus,) and type(one_err) is float
        assert np.array_equal(one, vec) and one_err == err
        paths.append(path)
    return paths


def test_abel_sequence_matches_per_point_chain(pd_bundled):
    # 200 seeds x 12 real points: one call per point set, bit for bit the
    # per-point vectors and error sums
    for seed in range(200):
        pts = curves.sample_points(pd_bundled.curve, 12, seed, mode="real")
        _assert_matches_oracle(pd_bundled, pts)


def _on_curve(curve, x, sheet=1.0):
    return CurvePoint(curve, x, sheet * np.sqrt(complex(curve.f(x)[0])))


def _axis_points(curve):
    """Real points left of e0, right of the last branch point and on
    branch points, on both sheets where y is nonzero."""
    e = curve.branch_points
    return [
        _on_curve(curve, e[0] - 0.7),
        _on_curve(curve, e[0] - 0.7, -1.0),
        _on_curve(curve, e[-1] + 0.5),
        _on_curve(curve, e[-1] + 0.5, -1.0),
        CurvePoint(curve, e[0], 0.0),
        CurvePoint(curve, e[2], 0.0),
        CurvePoint(curve, e[-1], 0.0),
    ]


@pytest.mark.parametrize("g", [1, 3, 4, 5])
def test_abel_block_matches_per_point_chain_at_every_genus(g):
    # the stacked normalization of a block keeps the bits of one
    # matrix-vector product per point on real-branch-point curves of
    # other genera than the bundled one, where a reordered sum would not
    rng = np.random.default_rng([20261020, g])
    for seed in range(4):
        pd = jac.compute_periods(_real_branch_curve(rng, g))
        pts = curves.sample_points(pd.curve, 36, seed, mode="real")
        _assert_matches_oracle(pd, pts + _axis_points(pd.curve))


def test_abel_sequence_matches_per_point_chain_on_hand_built_points(pd_bundled):
    curve = pd_bundled.curve
    e = curve.branch_points
    pts = _axis_points(curve) + [
        _on_curve(curve, 0.6 + 0.8j),                 # complex x
        _on_curve(curve, 0.6 + 0.8j, -1.0),
        _on_curve(curve, e[0] - 0.5 + 0.3j),          # leg from left of e0
        _on_curve(curve, e[-1] + 0.3 - 0.4j),
        _on_curve(curve, 0.3),
        _on_curve(curve, -1.4, -1.0),
    ]
    # one mixed real/complex sequence, and each point as a one-point call
    paths = _assert_matches_oracle(pd_bundled, pts)
    assert [any(tag.startswith("leg:") for tag in path) for path in paths] == [
        False] * 7 + [True] * 4 + [False] * 2
    # the oracle's chains detoured through via, real and complex points
    # alike, land on the same points of the Jacobian
    vecs = jac.abel_map(pd_bundled, pts)[0]
    for via in (0.6 + 1.6j, e[0] - 1.0 + 0.5j):
        for k in (7, 8, 11, 12):
            detour = abel_map_per_point(pd_bundled, pts[k], via)[0]
            assert lattice_distance(vecs[k] - detour, pd_bundled.tau) <= 1e-8


def test_abel_sequence_errors(pd_g2, lemniscatic):
    curve = pd_g2.curve
    good = _on_curve(curve, 0.5)
    near = curve.branch_points[1] + 1e-8
    bad = CurvePoint(curve, near, 0.1)
    with pytest.raises(jac.PathError) as info:
        jac.abel_map(pd_g2, [good, bad, good])
    assert str(info.value) == f"endpoint {near} is within {jac.BRANCH_CLEARANCE} of a branch point"
    with pytest.raises(ValueError, match="curve"):
        jac.abel_map(pd_g2, [good, CurvePoint(lemniscatic, 0.5, 0.1)])
    vecs, errs = jac.abel_map(pd_g2, [])
    assert vecs.shape == (0, 2) and errs.shape == (0,)


def test_abel_path_error_near_branch_point(pd_g2):
    e1 = pd_g2.curve.branch_points[1]
    p = CurvePoint(pd_g2.curve, e1 + 1e-8 + 1e-8j, 0.1)
    with pytest.raises(jac.PathError):
        jac.abel_map(pd_g2, p)


def _spy_node_doubling(monkeypatch):
    """Record (what, count) of every `_node_doubling` call."""
    calls, inner = [], jac._node_doubling

    def spy(rule, count, rtol, cap, what):
        calls.append((what, count))
        return inner(rule, count, rtol, cap, what)

    monkeypatch.setattr(jac, "_node_doubling", spy)
    return calls


def test_abel_block_integrates_all_complex_legs_in_one_loop(pd_bundled, monkeypatch):
    # every complex leg of a call shares one node-doubling loop, each leg
    # stopping on its own; the real chains of all points share another
    curve = pd_bundled.curve
    pts = curves.sample_points(curve, 12, 0, mode="complex") + [_on_curve(curve, 0.3)]
    legs = sum(abs(p.x.imag) > 1e-14 for p in pts)
    assert legs > 1
    calls = _spy_node_doubling(monkeypatch)
    jac.abel_map(pd_bundled, pts)
    assert calls == [("segment quadrature", len(pts)), ("leg integration", legs)]


def test_abel_block_refuses_a_leg_near_a_branch_point_before_integrating(pd_bundled, monkeypatch):
    # the second complex leg of the block starts on a branch point: its
    # PathError comes before any leg is integrated
    curve = pd_bundled.curve
    e = curve.branch_points
    pts = [_on_curve(curve, 0.6 + 0.8j), _on_curve(curve, 0.3),
           _on_curve(curve, e[2] + 0.5j), _on_curve(curve, e[3] + 0.5j)]
    calls = _spy_node_doubling(monkeypatch)
    with pytest.raises(jac.PathError) as info:
        jac.abel_map(pd_bundled, pts)
    assert str(info.value) == (f"leg {complex(e[2])} -> {e[2] + 0.5j} passes within "
                               f"{jac.BRANCH_CLEARANCE} of a branch point")
    assert "leg integration" not in [c[0] for c in calls]


def test_tracked_sqrt_matches_the_sequential_distance_test():
    # the running product of Re(s conj p) < 0 flips the same nodes as
    # comparing |s - p| with |s + p| node by node against the tracked p
    rng = np.random.default_rng(20261022)
    s = np.sqrt(rng.standard_normal((50, 40)) + 1j * rng.standard_normal((50, 40)))
    prev = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    want = s.copy()
    for row, p in zip(want, prev):
        for k in range(len(row)):
            if abs(row[k] - p) > abs(row[k] + p):
                row[k] = -row[k]
            p = row[k]
    assert np.array_equal(jac._tracked_sqrt(s, prev), want)


def test_lattice_reduce_round_trip(pd_g2, rng):
    tau = pd_g2.tau.z
    m = np.array([2.0, -1.0])
    n = np.array([-3.0, 1.0])
    r_true = 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v = tau @ m + n + r_true
    for source in (pd_g2.tau, tau):
        [r], [mm], [nn] = theta._reduce(theta._siegel(source), v[None])
        assert np.array_equal(mm, m)
        assert np.array_equal(nn, n)
        assert np.max(np.abs(r - r_true)) <= 1e-10
    lattice_vec = tau @ m + n
    assert lattice_distance(lattice_vec, pd_g2.tau) <= 1e-12


def test_periods_survive_close_branch_points():
    # 2e-3 separation still passes both certificates
    curve = HyperellipticCurve([-1.0, -0.5, -0.5 + 2e-3, 0.5, 1.0])
    pd = jac.compute_periods(curve)
    assert pd.symmetry_dev <= 1e-10
    assert np.min(np.linalg.eigvalsh(pd.tau.y)) > 0


def test_segment_errors_are_certified_small(pd_g2):
    scale = np.abs(pd_g2.seg_values)
    assert np.all(pd_g2.seg_errors <= 1e-9 * np.maximum(scale, 1e-30))
