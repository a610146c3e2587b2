"""Tests for scaled theta evaluation with half-integer characteristics."""

import numpy as np
import pytest

from holodiff import theta as th
from holodiff.siegel import SiegelPoint, random_siegel_point

from oracles import lattice_theta, leibniz_det


def test_scaled_complex_algebra():
    a = th.ScaledComplex(2.0 + 0j, 3.0)
    assert a.value == pytest.approx((2.0 + 0j) * np.exp(3.0))
    assert a.abs_log() == pytest.approx(np.log(2.0) + 3.0)
    b = a.normalized()
    assert abs(b.mantissa) == pytest.approx(1.0)
    assert b.abs_log() == pytest.approx(a.abs_log())
    prod = a * th.ScaledComplex(0.5j, -1.0)
    assert prod.value == pytest.approx(a.value * 0.5j * np.exp(-1.0))
    quot = a / th.ScaledComplex(4.0, 1.0)
    assert quot.value == pytest.approx(a.value / (4.0 * np.exp(1.0)))
    assert (-a).value == pytest.approx(-a.value)
    assert (2.0 * a).value == pytest.approx(2.0 * a.value)
    with pytest.raises(ZeroDivisionError):
        a / th.ScaledComplex(0.0)


def test_scaled_complex_sum_spans_scales():
    # the direct values would overflow; the scaled sum must not
    big = th.ScaledComplex(1.0, 1000.0)
    small = th.ScaledComplex(1.0, 0.0)
    total = th.ScaledComplex.sum([big, small])
    assert np.isfinite(total.mantissa.real)
    assert total.abs_log() == pytest.approx(1000.0)
    zero = th.ScaledComplex.sum([th.ScaledComplex(0.0), th.ScaledComplex(0.0)])
    assert zero.mantissa == 0


def test_scaled_rel_diff():
    a = th.ScaledComplex(1.0, 50.0)
    assert th.scaled_rel_diff(a, a) == 0.0
    b = th.ScaledComplex(2.0, 50.0)
    assert th.scaled_rel_diff(a, b) == pytest.approx(0.5)
    assert th.scaled_rel_diff(th.ScaledComplex(0.0), th.ScaledComplex(0.0)) == 0.0


def test_characteristic_validation():
    with pytest.raises(ValueError, match="0 or 1/2"):
        th.ThetaCharacteristic([0.3], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        th.ThetaCharacteristic([0.5], [0.5, 0.0])


def test_characteristic_parity():
    assert not th.ThetaCharacteristic.zero(2).is_odd
    assert th.ThetaCharacteristic([0.5], [0.5]).is_odd
    assert not th.ThetaCharacteristic([0.5], [0.0]).is_odd
    ch = th.ThetaCharacteristic([0.5, 0.5], [0.5, 0.5])
    assert ch.parity == 0


def test_characteristic_bits_and_first_odd():
    ch = th.ThetaCharacteristic.from_bits(1, 0, 2)
    assert ch.a.tolist() == [0.5, 0.0]
    assert ch.b.tolist() == [0.0, 0.0]
    d1 = th.ThetaCharacteristic.first_odd(1)
    assert d1.a.tolist() == [0.5] and d1.b.tolist() == [0.5]
    d2 = th.ThetaCharacteristic.first_odd(2)
    assert d2.a.tolist() == [0.5, 0.0]
    assert d2.b.tolist() == [0.5, 0.0]
    assert d2.is_odd


@pytest.mark.parametrize("g,count", [(1, 1), (2, 6), (3, 28)])
def test_odd_characteristic_counts(g, count):
    odd = th.odd_characteristics(g)
    assert len(odd) == count
    assert all(ch.is_odd for ch in odd)
    assert len(th.odd_characteristics(g, 1)) == 1
    with pytest.raises(ValueError, match="odd characteristics"):
        th.odd_characteristics(g, count + 1)


def test_config_validation():
    with pytest.raises(ValueError, match="eps"):
        th.ThetaEvalConfig(eps=0.0)


def test_theta_reference_value_at_i():
    # independent oracle: direct n in [-30, 30] sum of exp(-pi n^2)
    n = np.arange(-30, 31)
    oracle = float(np.sum(np.exp(-np.pi * n**2)))
    val = th.theta_value(0.0, 1j)
    assert abs(val - oracle) <= 1e-12
    assert abs(val - 1.0864348112133082) <= 1e-12
    assert abs(val.imag) <= 1e-14


@pytest.mark.parametrize("g", [1, 2, 3])
def test_quasi_periodicity(g, rng):
    tau = random_siegel_point(g, rng)
    char = th.ThetaCharacteristic.from_bits(1 % 2**g, 3 % 2**g, g)
    z = 0.3 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    m = rng.integers(-2, 3, size=g).astype(float)
    n = rng.integers(-2, 3, size=g).astype(float)
    lhs = th.theta(z + tau.z @ m + n, tau.z, char)
    fac = (
        -1j * np.pi * (m @ tau.z @ m)
        - 2j * np.pi * (m @ (z + char.b))
        + 2j * np.pi * (char.a @ n)
    )
    rhs = th.theta(z, tau.z, char) * th.ScaledComplex(np.exp(1j * fac.imag), fac.real)
    assert th.scaled_rel_diff(lhs, rhs) <= 1e-10


@pytest.mark.parametrize("g", [1, 2, 3])
def test_parity_under_negation(g, rng):
    tau = random_siegel_point(g, rng)
    z = 0.4 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    even = th.ThetaCharacteristic.zero(g)
    ve_plus = th.theta(z, tau.z, even)
    ve_minus = th.theta(-z, tau.z, even)
    assert th.scaled_rel_diff(ve_plus, ve_minus) <= 1e-10
    odd = th.ThetaCharacteristic.first_odd(g)
    vo_plus = th.theta(z, tau.z, odd)
    vo_minus = th.theta(-z, tau.z, odd)
    assert th.scaled_rel_diff(-vo_plus, vo_minus) <= 1e-10


def test_odd_theta_vanishes_at_origin(rng):
    tau = random_siegel_point(2, rng)
    odd = th.ThetaCharacteristic.first_odd(2)
    val = th.theta(np.zeros(2), tau.z, odd)
    assert abs(val.mantissa) <= 1e-10 * val.peak


def test_theta1_series_proportionality(rng):
    # the odd genus-1 characteristic reproduces the classical sine series
    tau = 0.31 + 1.21j
    q = np.exp(1j * np.pi * tau)
    odd = th.ThetaCharacteristic([0.5], [0.5])
    for _ in range(5):
        w = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        series = 0.0j
        for k in range(40):
            series += (
                (-1) ** k
                * q ** (k * (k + 1) + 0.25)
                * 2.0
                * np.sin((2 * k + 1) * np.pi * w)
            )
        got = th.theta_value(np.array([w]), np.array([[tau]]), odd)
        assert abs(got + series) <= 1e-12 * abs(series)


def test_characteristic_length_mismatch(rng):
    tau = random_siegel_point(2, rng)
    with pytest.raises(ValueError, match="length"):
        th.theta(np.zeros(2), tau.z, th.ThetaCharacteristic([0.5], [0.5]))


def test_truncation_cap():
    cfg = th.ThetaEvalConfig(eps=1e-13, radius_cap=2.0)
    with pytest.raises(th.TruncationError, match="cap"):
        th.theta(0.0, 1j, cfg=cfg)


def test_entry_points_reject_non_symmetric_tau():
    tau = np.array([[1j, 0.3], [0.0, 1j]])
    delta = th.ThetaCharacteristic.first_odd(2)
    pts = [np.array([0.1, 0.2]), np.array([0.3 + 0.1j, -0.2])]
    with pytest.raises(ValueError, match="symmetric"):
        th.theta_batch(np.zeros((1, 2)), tau)
    with pytest.raises(ValueError, match="symmetric"):
        th.fay_residual(np.array([0.1j, 0.2]), pts, pts[::-1], tau, delta)


def test_theta_at_point_matches_theta_at_matrix(rng):
    point = random_siegel_point(3, rng)
    char = th.ThetaCharacteristic.first_odd(3)
    z = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) + point.z @ [1.0, 0.0, -1.0]
    a = th.theta(z, point, char)
    b = th.theta(z, point.z, char)
    assert (a.mantissa, a.log_scale, a.err, a.peak) == (b.mantissa, b.log_scale, b.err, b.peak)


def test_truncation_needs_positive_spectrum():
    # a Y can pass the pivot test while its computed smallest eigenvalue
    # is not positive; the tail bound must refuse it, not fall to radius 3
    point = SiegelPoint(1j * np.eye(2))
    point.__dict__["lambda_min"] = 0.0
    with pytest.raises(th.TruncationError, match="smallest eigenvalue"):
        th.theta(np.zeros(2), point)


def test_lattice_reduce_tau(rng):
    tau = random_siegel_point(2, rng)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2) + tau.z @ [3.0, -2.0]
    r, m, n = th.lattice_reduce_tau(v, tau.z)
    assert np.array_equal(m, np.rint(m))
    assert np.array_equal(n, np.rint(n))
    assert np.max(np.abs(tau.z @ m + n + r - v)) <= 1e-12


def test_prime_form_antisymmetry(rng):
    tau = random_siegel_point(2, rng)
    delta = th.ThetaCharacteristic.first_odd(2)
    u = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    e_uv = th.reduced_prime_form(u, v, tau.z, delta)
    e_vu = th.reduced_prime_form(v, u, tau.z, delta)
    assert th.scaled_rel_diff(e_uv, -e_vu) <= 1e-10
    with pytest.raises(ValueError, match="odd"):
        th.reduced_prime_form(u, v, tau.z, th.ThetaCharacteristic.zero(2))


@pytest.mark.parametrize("m", [2, 3])
def test_fay_trisecant_genus_one(m):
    rng = np.random.default_rng(97)
    delta = th.ThetaCharacteristic.first_odd(1)
    worst = 0.0
    for _ in range(20):
        tau = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.8, 1.8)]])
        w = np.array([rng.standard_normal() + 1j * rng.standard_normal()]) * 0.3
        xs = [0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
              for _ in range(m)]
        ys = [0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
              for _ in range(m)]
        try:
            worst = max(worst, th.fay_residual(w, xs, ys, tau, delta))
        except th.ThetaNearZeroError:
            continue
    assert worst <= 1e-10


def test_fay_residual_validation():
    delta = th.ThetaCharacteristic.first_odd(1)
    tau = np.array([[1j]])
    w = np.array([0.1 + 0.1j])
    pts = [np.array([0.2]), np.array([0.4 + 0.1j])]
    with pytest.raises(ValueError, match="m >= 2"):
        th.fay_residual(w, pts[:1], pts[:1], tau, delta)
    with pytest.raises(ValueError, match="odd"):
        th.fay_residual(w, pts, pts[::-1], tau, th.ThetaCharacteristic.zero(1))
    with pytest.raises(th.CoincidentPointsError, match="Jacobian"):
        th.fay_residual(w, [pts[0], pts[0]], pts, tau, delta)


def test_fay_rejects_vanishing_theta_shift():
    # theta vanishes exactly at the half-period (1 + tau)/2
    tau = np.array([[1j]])
    delta = th.ThetaCharacteristic.first_odd(1)
    w = np.array([(1 + 1j) / 2])
    xs = [np.array([0.21]), np.array([0.55 + 0.2j])]
    ys = [np.array([0.1 - 0.1j]), np.array([0.37])]
    with pytest.raises(th.ThetaNearZeroError, match="floor"):
        th.fay_residual(w, xs, ys, tau, delta)


def test_riemann_constants_genus_one():
    tau = np.array([[0.25 + 1.3j]])
    rc = th.find_riemann_constants(tau, [np.zeros(1), np.zeros(1)])
    assert abs(rc.vector[0] - (tau[0, 0] + 1.0) / 2.0) <= 1e-12
    assert rc.score <= 1e-6
    assert rc.runner_up >= 1e-2


def test_riemann_constants_needs_enough_probes():
    tau = np.array([[1j]])
    with pytest.raises(ValueError, match="probe images"):
        th.find_riemann_constants(tau, [np.zeros(1)])


def test_riemann_constants_ambiguous_for_generic_probes(rng):
    tau = random_siegel_point(2, rng)
    probes = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    with pytest.raises(th.AmbiguousConstantsError, match="minimizer"):
        th.find_riemann_constants(tau.z, probes)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("odd", [False, True])
def test_theta_batch_matches_lattice_oracle(g, odd, rng):
    tau = random_siegel_point(g, rng)
    char = th.ThetaCharacteristic.first_odd(g) if odd else th.ThetaCharacteristic.zero(g)
    zs = 0.4 * (rng.standard_normal((5, g)) + 1j * rng.standard_normal((5, g)))
    # one row outside the fundamental cell exercises the translation
    # prefactor; two rows at opposite corners of the cell widen the
    # shared lattice box
    shifted = zs[0] + tau.z @ rng.choice([-1.0, 1.0], size=g) + 1.0
    corner = 0.45 * tau.z @ np.ones(g)
    zs = np.vstack([corner, zs, shifted, -corner])
    # the oracle box reaches 2 past sqrt(40 / (pi lam)), so the terms it
    # leaves out are below exp(-40) of the largest, even for the shifted row
    lam = float(np.min(np.linalg.eigvalsh(tau.y)))
    radius = int(np.ceil(np.sqrt(40.0 / (np.pi * lam)))) + 2
    got = th.theta_batch(zs, tau.z, char)
    assert len(got) == len(zs)
    for z, val in zip(zs, got):
        want = lattice_theta(z, tau.z, char.a, char.b, radius)
        assert abs(val.value - want) <= 1e-13 * abs(want)


def test_theta_is_one_row_of_theta_batch(rng):
    tau = random_siegel_point(2, rng)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    one = th.theta(z, tau.z)
    row = th.theta_batch([z], tau.z)[0]
    assert (one.mantissa, one.log_scale, one.err, one.peak) == (
        row.mantissa, row.log_scale, row.err, row.peak)
    with pytest.raises(ValueError, match="rows of length"):
        th.theta_batch(np.zeros(3), tau.z)


def test_theta_batch_term_budget(rng):
    # 20 rows over a box of at least 7 x 7 points need > 980 terms; the
    # check runs before the lattice is built
    tau = random_siegel_point(2, rng)
    zs = 0.3 * (rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2)))
    cfg = th.ThetaEvalConfig(max_terms=900)
    with pytest.raises(th.TruncationError, match="budget 900"):
        th.theta_batch(zs, tau.z, cfg=cfg)
    assert len(th.theta_batch(zs[:1], tau.z, cfg=th.ThetaEvalConfig(max_terms=10**4))) == 1
    with pytest.raises(ValueError, match="max_terms"):
        th.ThetaEvalConfig(max_terms=0)


def _scaled_matrix(mant, logs):
    m = mant.shape[0]
    return [[th.ScaledComplex(mant[i, j], logs[i, j]) for j in range(m)]
            for i in range(m)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scaled_det_matches_leibniz(m, rng):
    mant = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    logs = rng.uniform(-2.0, 2.0, (m, m))
    want = leibniz_det(mant * np.exp(logs))
    got = th.scaled_det(_scaled_matrix(mant, logs)).value
    assert abs(got - want) <= 1e-12 * abs(want)


def test_scaled_det_survives_extreme_scales(rng):
    # entry log scales r_i + c_j span [-800, 800]; exp(800) overflows a
    # float and exp(-800) underflows, so no entry can be formed directly
    m = 5
    mant = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = np.array([400.0, -400.0, 400.0, -400.0, 0.0])
    c = np.array([400.0, -400.0, 0.0, -400.0, 400.0])
    logs = r[:, None] + c[None, :]
    assert logs.max() == 800.0 and logs.min() == -800.0
    got = th.scaled_det(_scaled_matrix(mant, logs))
    assert np.isfinite(got.mantissa) and got.mantissa != 0
    base = leibniz_det(mant)
    expect = th.ScaledComplex(base, float(r.sum() + c.sum()))
    assert th.scaled_rel_diff(got, expect) <= 1e-12


def test_scaled_det_zero_row():
    zero = th.ScaledComplex(0.0)
    one = th.ScaledComplex(1.0, 900.0)
    assert th.scaled_det([[zero, zero], [one, one]]).mantissa == 0
