"""Tests for scaled theta evaluation with half-integer characteristics."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodiff import theta as th
from holodiff.curves import sample_points
from holodiff.jacobian import abel_map, compute_periods, riemann_constant
from holodiff.siegel import SiegelPoint, random_siegel_point

from oracles import (
    bundled,
    fay_residual_objects,
    fay_residual_stacked,
    fay_single,
    lattice_distance,
    lattice_theta,
    leibniz_det,
    odd_characteristics,
    riemann_constant_search,
)


def test_scaled_complex_algebra():
    a = th.ScaledComplex(2.0 + 0j, 3.0)
    assert a.value == pytest.approx((2.0 + 0j) * np.exp(3.0))
    b = a.normalized()
    assert abs(b.mantissa) == pytest.approx(1.0)
    assert b.value == pytest.approx(a.value)
    prod = a * th.ScaledComplex(0.5j, -1.0)
    assert prod.value == pytest.approx(a.value * 0.5j * np.exp(-1.0))
    quot = a / th.ScaledComplex(4.0, 1.0)
    assert quot.value == pytest.approx(a.value / (4.0 * np.exp(1.0)))
    assert (-a).value == pytest.approx(-a.value)
    assert (2.0 * a).value == pytest.approx(2.0 * a.value)
    with pytest.raises(ZeroDivisionError):
        a / th.ScaledComplex(0.0)
    # a stack acts element by element, a scalar field broadcasting
    s = th.ScaledComplex(np.array([2.0, 0.5j, -1.0]), 3.0)
    t = th.ScaledComplex(np.array([4.0, 1.0, 2j]), np.array([1.0, -1.0, 0.0]))
    assert s.mantissa.shape == s.log_scale.shape == (3,)
    for op in (lambda x, y: x * y, lambda x, y: x / y, lambda x, y: -x * 2.0,
               lambda x, y: x.normalized()):
        whole = op(s, t)
        for i in range(3):
            one = op(s[i], t[i])
            assert np.isscalar(one.mantissa) and one.value == pytest.approx(whole[i].value)
    assert s.reshape(3, 1)[2, 0].value == s[2].value
    assert th.ScaledComplex.concatenate([s, t[:1]]).mantissa.shape == (4,)
    assert s.prod(axis=0).value == pytest.approx(np.prod(s.value))
    with pytest.raises(ZeroDivisionError, match="exactly zero"):
        t / th.ScaledComplex(np.array([1.0, 0.0, 2.0]))


def test_scaled_complex_plain_factors_keep_error_data():
    # negation keeps err and peak; a plain factor c scales both by |c|
    a = th.ScaledComplex(2.0 - 1j, 3.0, err=1e-14, peak=4.0)
    neg = -a
    assert (neg.mantissa, neg.log_scale, neg.err, neg.peak) == (-a.mantissa, 3.0, 1e-14, 4.0)
    for c in (-2.5, 0.5j, 3 - 4j):
        for prod in (a * c, c * a):
            assert (prod.mantissa, prod.log_scale, prod.err, prod.peak) == (
                a.mantissa * c, 3.0, 1e-14 * abs(c), 4.0 * abs(c))
        quot = a / c
        assert (quot.mantissa, quot.log_scale, quot.err, quot.peak) == (
            a.mantissa / c, 3.0, 1e-14 / abs(c), 4.0 / abs(c))
    # two scaled values: the product's err and peak follow from the
    # operands' bounds, the quotient's err holds until the divisor's err
    # reaches its modulus and is infinite from there
    b = th.ScaledComplex(0.6 + 0.8j, -1.0, err=1e-13, peak=2.5)
    prod = a * b
    assert (prod.mantissa, prod.log_scale, prod.peak) == (a.mantissa * b.mantissa, 2.0, 10.0)
    assert prod.err == abs(a.mantissa) * 1e-13 + 1.0 * 1e-14 + 1e-27
    quot = a / b
    assert (quot.mantissa, quot.log_scale, quot.peak) == (a.mantissa / b.mantissa, 4.0, 4.0)
    assert quot.err == (1.0 * 1e-14 + abs(a.mantissa) * 1e-13) / (1.0 * (1.0 - 1e-13))
    for err in (1.0, 2.0):
        assert (a / th.ScaledComplex(0.6 + 0.8j, 0.0, err=err)).err == math.inf
    # the bounds hold on the perturbed operands
    rng = np.random.default_rng(7)
    for _ in range(200):
        da, db = (e * rng.uniform() * np.exp(2j * np.pi * rng.uniform()) for e in (a.err, b.err))
        x, y = a.mantissa + da, b.mantissa + db
        assert abs(x * y - prod.mantissa) <= prod.err * (1 + 1e-9)
        assert abs(x / y - quot.mantissa) <= quot.err * (1 + 1e-9)


def test_scaled_complex_error_rules_hold_element_by_element():
    # stacks give every element the err and peak of the scalar formulas,
    # the bounds hold on perturbed stacks, and the product along an axis
    # has the err and peak of repeated products
    rng = np.random.default_rng(8)
    n = 50
    mant = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = th.ScaledComplex(mant(), rng.uniform(-3, 3, n), rng.uniform(0, 1e-3, n),
                         rng.uniform(1, 4, n))
    b = th.ScaledComplex(mant(), rng.uniform(-3, 3, n), rng.uniform(0, 1e-3, n),
                         rng.uniform(1, 4, n))
    b.err[0] = 2 * abs(b.mantissa[0])  # a divisor whose err reaches its modulus
    prod, quot = a * b, a / b
    for i in range(n):
        for whole, one in ((prod, a[i] * b[i]), (quot, a[i] / b[i])):
            assert whole.err[i] == pytest.approx(one.err, rel=1e-15)
            assert (whole.peak[i], whole.log_scale[i]) == (one.peak, one.log_scale)
    assert quot.err[0] == math.inf and np.all(np.isfinite(quot.err[1:]))
    for _ in range(200):
        da, db = (e * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
                  for e in (a.err, b.err))
        x, y = a.mantissa + da, b.mantissa + db
        assert np.all(np.abs(x * y - prod.mantissa) <= prod.err * (1 + 1e-9))
        assert np.all(np.abs(x / y - quot.mantissa)[1:] <= quot.err[1:] * (1 + 1e-9))
    stack = a.reshape(5, 10)
    along = stack.prod(axis=1)
    for r in range(5):
        one = stack[r, 0]
        for j in range(1, 10):
            one = one * stack[r, j]
        assert along.err[r] == pytest.approx(one.err, rel=1e-9)
        assert along.peak[r] == pytest.approx(one.peak, rel=1e-14)


def test_scaled_rel_diff():
    a = th.ScaledComplex(1.0, 50.0)
    assert th.scaled_rel_diff(a, a) == 0.0
    b = th.ScaledComplex(2.0, 50.0)
    assert th.scaled_rel_diff(a, b) == pytest.approx(0.5)
    assert th.scaled_rel_diff(th.ScaledComplex(0.0), th.ScaledComplex(0.0)) == 0.0
    assert type(th.scaled_rel_diff(a, b)) is float
    # stacks give one residual per element, each the 0-d pair's
    s = th.ScaledComplex(np.array([[1.0, 0.0], [3.0, 1j]]), np.array([[50.0, 0.0], [-4.0, 700.0]]))
    t = th.ScaledComplex(np.array([2.0, 0.0]), 50.0)
    got = th.scaled_rel_diff(s, t)
    assert got.shape == (2, 2)
    for i, j in itertools.product(range(2), repeat=2):
        assert got[i, j] == th.scaled_rel_diff(s[i, j], t[j])


def test_characteristic_validation():
    with pytest.raises(ValueError, match="0 or 1/2"):
        th.ThetaCharacteristic([0.3], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        th.ThetaCharacteristic([0.5], [0.5, 0.0])


def test_characteristic_parity():
    assert not th.ThetaCharacteristic.from_bits(0, 0, 2).is_odd
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


@pytest.mark.parametrize("ia,ib,g", [(16, 0, 4), (-1, 0, 2), (0, 4, 2), (0, -3, 3)])
def test_characteristic_bits_out_of_range_are_refused(ia, ib, g):
    # 16 at g = 4 read as the zero characteristic, -1 at g = 2 as a = (1/2, 1/2)
    with pytest.raises(ValueError, match=rf"bits \({ia}, {ib}\) outside \[0, {2**g}\)"):
        th.ThetaCharacteristic.from_bits(ia, ib, g)


@pytest.mark.parametrize("g", range(1, 7))
def test_first_odd_is_the_first_enumerated_odd_characteristic(g):
    # first_odd builds from_bits(1, 1, g) without walking the enumeration
    first, want = th.ThetaCharacteristic.first_odd(g), odd_characteristics(g)[0]
    assert first.a.tobytes() == want.a.tobytes()
    assert first.b.tobytes() == want.b.tobytes()


@pytest.mark.parametrize("g,count", [(1, 1), (2, 6), (3, 28)])
def test_odd_characteristic_counts(g, count):
    # 2^(g-1) (2^g - 1) odd characteristics, each odd by the package's parity
    odd = odd_characteristics(g)
    assert len(odd) == count == 2 ** (g - 1) * (2**g - 1)
    assert all(ch.is_odd for ch in odd)


def test_theta_reference_value_at_i():
    # independent oracle: direct n in [-30, 30] sum of exp(-pi n^2)
    n = np.arange(-30, 31)
    oracle = float(np.sum(np.exp(-np.pi * n**2)))
    val = th.theta(0.0, 1j).value
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
    even = th.ThetaCharacteristic.from_bits(0, 0, g)
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
        got = th.theta(np.array([w]), np.array([[tau]]), odd).value
        assert abs(got + series) <= 1e-12 * abs(series)


def test_characteristic_length_mismatch(rng):
    tau = random_siegel_point(2, rng)
    with pytest.raises(ValueError, match="length"):
        th.theta(np.zeros(2), tau.z, th.ThetaCharacteristic([0.5], [0.5]))


def test_truncation_cap(monkeypatch):
    monkeypatch.setattr(th, "RADIUS_CAP", 2.0)
    with pytest.raises(th.TruncationError, match="cap"):
        th.theta(0.0, 1j)


def test_entry_points_reject_non_symmetric_tau():
    tau = np.array([[1j, 0.3], [0.0, 1j]])
    delta = th.ThetaCharacteristic.first_odd(2)
    pts = [np.array([0.1, 0.2]), np.array([0.3 + 0.1j, -0.2])]
    with pytest.raises(ValueError, match="symmetric"):
        th.theta(np.zeros((1, 2)), tau)
    with pytest.raises(ValueError, match="symmetric"):
        fay_single(np.array([0.1j, 0.2]), pts, pts[::-1], tau, delta)


def test_theta_at_point_matches_theta_at_matrix(rng):
    point = random_siegel_point(3, rng)
    char = th.ThetaCharacteristic.first_odd(3)
    z = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) + point.z @ [1.0, 0.0, -1.0]
    a = th.theta(z, point, char)
    b = th.theta(z, point.z, char)
    assert (a.mantissa, a.log_scale, a.err, a.peak) == (b.mantissa, b.log_scale, b.err, b.peak)


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.05, 0.3, 1.0, 4.0, 30.0])
def test_tail_bound_at_genus_one(a):
    # at g = 1, Y = a / pi: the shifted lattice is sqrt(a) (Z + c), and any
    # r up to sqrt(a) / 2 serves; the direct sum stops where terms fall
    # below exp(-800)
    j = np.arange(-int(np.sqrt(800.0 / a)) - 2, int(np.sqrt(800.0 / a)) + 3, dtype=float)
    for r in (math.sqrt(a) / 2.0, math.sqrt(a) / 20.0, th._packing_radius(1, a / math.pi)):
        for c in (0.0, 0.3, 0.5):
            v2 = a * (j + c) ** 2
            for radius in (2.0 * r, 2.0 * r + 0.5, 2.0 * r + 2.0, 2.0 * r + 5.0):
                tail = math.fsum(np.exp(-v2[v2 >= radius * radius]))
                assert tail <= th._tail_bound(1, r, radius)[0] * (1 + 1e-12)


def _brute_tail(y, c, radius, box):
    """sum of exp(-pi (n + c).Y.(n + c)) over n in the box |n_i| <= box with
    pi (n + c).Y.(n + c) >= radius^2: lattice_theta's whole sum at
    z = i Y c, tau = i Y, scaled to the peak exp(pi c.Y.c), less the
    terms inside the ellipsoid, added one at a time."""
    g = len(c)
    whole = lattice_theta(1j * (y @ c), 1j * y, np.zeros(g), np.zeros(g), box).real
    whole *= math.exp(-math.pi * (c @ y @ c))
    inside = []
    for n in itertools.product(range(-box, box + 1), repeat=g):
        v = np.add(n, c)
        q = math.pi * (v @ y @ v)
        if q < radius * radius:
            inside.append(math.exp(-q))
    return whole - math.fsum(inside)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_tail_bound_holds_against_a_brute_tail(g, monkeypatch):
    # Y with eigenvalues from 0.25 to 25 in random directions; the radius
    # is solved for bounds from 1e-2 down to THETA_EPS, so the tails are
    # far above the rounding of the whole sum (about 1e-15 of it).  The
    # oracle box reaches past sqrt(40 / (pi lam_min)) + 1, so the terms it
    # leaves out are below exp(-40).
    rng = np.random.default_rng(1300 + g)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((g, g)))
        lam = np.exp(rng.uniform(math.log(0.25), math.log(25.0), g))
        lam[0] = 0.25
        y = (q * lam) @ q.T
        c = rng.uniform(-0.5, 0.5, g)
        box = int(math.ceil(math.sqrt(40.0 / (math.pi * 0.25)))) + 2
        for eps in (1e-2, 1e-5, 1e-8, th.THETA_EPS):
            monkeypatch.setattr(th, "THETA_EPS", eps)
            radius, bound = th._ellipsoid_radius(g, float(np.min(np.linalg.eigvalsh(y))))
            assert bound <= eps * (1 + 1e-12)
            tail = _brute_tail(y, c, radius, box)
            assert tail <= bound + 1e-15


def test_near_singular_imaginary_part_is_refused_at_once():
    # Y = L L^T, L unit lower-triangular with entries -10: every Cholesky
    # pivot is 1, but eigvalsh gives a smallest eigenvalue about 3e-15,
    # below g eps times the largest, so the point is refused when built
    g = 8
    lower = np.eye(g) + np.tril(np.full((g, g), -10.0), -1)
    lam = np.linalg.eigvalsh(lower @ lower.T)
    assert 0 < lam[0] < 1e-12 and not lam[0] > g * np.finfo(float).eps * lam[-1]
    with pytest.raises(ValueError, match="not positive definite"):
        SiegelPoint(1j * lower @ lower.T)
    with pytest.raises(ValueError, match="not positive definite"):
        th.theta(np.zeros(g), 1j * lower @ lower.T)
    # a certified Y still too thin for the box cap is refused by the
    # truncation, from its spectrum
    thin = SiegelPoint(1j * np.diag([1e-6, 1.0]))
    with pytest.raises(th.TruncationError, match=r"needs radius \d+\.\d > cap"):
        th.theta(np.zeros(2), thin)


# theta values from the engine that summed the cube of half-width
# R(lambda_min) on every axis, at the points of _pinned_cases, in order
PINNED_THETA = {
    1: [293461.55512702744 + 31125.74900653862j, 178.89821881358915 - 223.73280028446226j,
        -115532.30671623896 + 226413.4985016452j, -105.13050743621471 - 139.37616805502802j,
        17.198213830751342 - 9.093150603345554j, -27.973140076208313 + 147.97009248105994j,
        -14.979421463119037 - 2.576570696350655j, 128.25351429411083 - 75.91683438711331j],
    2: [170369.86377331466 - 469957.0903495119j, 0.3794815696481971 + 0.3633936930725373j,
        28804.883382820215 + 40445.00791905698j, -3.7725357458228133 - 1.2284819428473996j,
        -215479.9391226461 - 9779.504491496087j, -12.441333418420214 - 6.042263449995365j,
        -137811.58619406115 + 147600.97877337466j, -12.882523334106754 + 4.3840221896648215j],
    3: [-1224895588.3829744 - 1007035025.8338925j, 14823908041.380568 - 20113947299.218975j,
        20114880.832403526 - 117571018.36969785j, -908989079.9347346 + 226915141.452868j,
        0.9867722511356299 + 0.001328231169547911j, 75.56650466754496 + 32.19911520111132j,
        -0.014484002846469477 + 0.014717847742768143j, 3553.5758072131266 - 3485.995537441105j],
}


def _pinned_cases(g):
    """(rows, point, characteristic): a random point and one whose Im tau
    spans two decades, two rows each, even and odd."""
    rng = np.random.default_rng([2021, g])
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    y = q @ np.diag(np.geomspace(0.3, 30.0, g) if g > 1 else [0.3]) @ q.T
    x = rng.standard_normal((g, g))
    for point in (random_siegel_point(g, rng), SiegelPoint((x + x.T) / 2 + 1j * y)):
        zs = rng.standard_normal((2, g)) + 1j * rng.standard_normal((2, g))
        for char in (None, th.ThetaCharacteristic.from_bits(1, 1, g)):
            yield zs, point, char


@pytest.mark.parametrize("g", [1, 2, 3])
def test_ellipsoid_box_matches_the_cube_engine(g):
    got = np.concatenate([th.theta(*case).value for case in _pinned_cases(g)])
    assert len(got) == len(PINNED_THETA[g])
    for val, want in zip(got, PINNED_THETA[g]):
        assert abs(val - want) <= 1e-13 * abs(want)


def _box_points(point):
    """(most, least): lattice points in the box of any batch of rows reduced
    into the fundamental cell, at most 2 floor(h_k + 1/2) + 1 on axis k for
    the truncation half-widths h, and in any one row's box, at least
    floor(2 h_k)."""
    half = point.theta_truncation[0]
    return (math.prod(2 * math.floor(h + 0.5) + 1 for h in half),
            math.prod(math.floor(2.0 * h) for h in half))


def test_genus_six_point_beyond_the_cube_budget_evaluates():
    # the cube of half-width R(lambda_min) needed 8 067 360 terms for one
    # row at this point, beyond MAX_TERMS; the ellipsoid's box fits
    rng = np.random.default_rng([11, 6])
    point = random_siegel_point(6, rng)
    assert _box_points(point)[0] <= th.MAX_TERMS
    z = 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    m = rng.integers(-1, 2, size=6).astype(float)
    n = rng.integers(-2, 3, size=6).astype(float)
    for char in (th.ThetaCharacteristic.from_bits(0, 0, 6), th.ThetaCharacteristic.first_odd(6)):
        base, shifted, mirrored = th.theta(np.stack([z, z + point.z @ m + n, -z]), point, char)
        assert base.err <= th.THETA_EPS * (1 + 1e-12) * base.peak
        fac = (-1j * np.pi * (m @ point.z @ m) - 2j * np.pi * (m @ (z + char.b))
               + 2j * np.pi * (char.a @ n))
        assert th.scaled_rel_diff(
            shifted, base * th.ScaledComplex(np.exp(1j * fac.imag), fac.real)) <= 1e-10
        assert th.scaled_rel_diff(mirrored, -base if char.is_odd else base) <= 1e-10


def test_theta_far_below_its_peak_keeps_relative_accuracy():
    # Im tau_11 = 60: the ellipsoid is narrower than one lattice step on
    # that axis, and at centres between two lattice points theta sits near
    # 1e-20 of its peak term; the box still holds both sides
    tau = np.array([[0.3 + 0.5j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 60j]])
    for c in ([0.3, 0.45], [0.0, 0.5], [-0.49, 0.49]):
        z = np.array([0.2, -0.1]) + 1j * (tau.imag @ c)
        for char in (th.ThetaCharacteristic.from_bits(0, 0, 2),
                     th.ThetaCharacteristic.first_odd(2)):
            got = th.theta(z, tau, char)
            want = lattice_theta(z, tau, char.a, char.b, 12)
            assert abs(want) <= 1e-15 * got.peak * math.exp(got.log_scale)
            assert abs(got.value - want) <= 1e-13 * abs(want)


def test_ellipsoid_radius_is_solved_once_per_point(monkeypatch):
    solves = []
    solve = th._ellipsoid_radius
    monkeypatch.setattr(th, "_ellipsoid_radius", lambda g, lam: solves.append(g) or solve(g, lam))
    tau = np.array([[1.2j, 0.3 + 0.2j], [0.3 + 0.2j, 0.9j]])
    point = SiegelPoint(tau)
    th.theta(np.zeros(2), point)
    th.theta(np.ones((3, 2)), point)
    assert len(solves) == 1
    # an equal point solves again: nothing is shared across points
    th.theta(np.zeros(2), SiegelPoint(tau))
    assert len(solves) == 2


def test_point_keeps_its_truncation_box_and_real_split(monkeypatch):
    point = SiegelPoint(np.array([[1.2j + 3.4, 0.3 + 0.2j], [0.3 + 0.2j, 0.9j - 2.6]]))
    for kept in (lambda p: p.theta_truncation, lambda p: p.real_split):
        first, again = kept(point), kept(point)
        assert all(a is b for a, b in zip(first, again))
    half, bound = point.theta_truncation
    tau_s, s = point.real_split
    assert (np.array_equal(half, th._box_half_widths(point)[0])
            and bound == th._box_half_widths(point)[1])
    assert np.array_equal(s, [[4.0, 0.0], [0.0, -2.0]]) and np.array_equal(tau_s + s, point.z)
    for arr in (half, tau_s, s):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1.0
    # a point refused at the cap keeps nothing: it is refused again, and
    # evaluates once the cap is back
    refused = SiegelPoint(point.z)
    monkeypatch.setattr(th, "RADIUS_CAP", 2.0)
    for _ in range(2):
        with pytest.raises(th.TruncationError, match="cap"):
            refused.theta_truncation
    monkeypatch.undo()
    assert np.array_equal(refused.theta_truncation[0], half)


def test_lattice_reduce_tau(rng):
    tau = random_siegel_point(2, rng)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2) + tau.z @ [3.0, -2.0]
    [r], [m], [n] = th._reduce(tau, v[None])
    assert np.array_equal(m, np.rint(m))
    assert np.array_equal(n, np.rint(n))
    assert np.max(np.abs(tau.z @ m + n + r - v)) <= 1e-12
    assert abs(np.max(np.abs(r)) - lattice_distance(v, tau)) <= 1e-12


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
            worst = max(worst, fay_single(w, xs, ys, tau, delta))
        except th.ThetaNearZeroError:
            continue
    assert worst <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 6])
def test_fay_residual_matches_object_form(m, pd_g2):
    rng = np.random.default_rng(4100 + m)
    delta1 = th.ThetaCharacteristic.first_odd(1)
    delta2 = th.ThetaCharacteristic.first_odd(2)
    compared = 0
    for trial in range(6):
        tau = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.8, 1.8)]])
        args1 = (0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1)),
                 [0.4 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                  for _ in range(m)],
                 [0.4 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                  for _ in range(m)],
                 tau, delta1)
        imgs, _ = abel_map(pd_g2, sample_points(pd_g2.curve, 2 * m, 50 + trial, mode="real"))
        args2 = (0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                 imgs[:m], imgs[m:], pd_g2.tau, delta2)
        for args in (args1, args2):
            try:
                want = fay_residual_objects(*args)
            except (th.ThetaNearZeroError, th.CoincidentPointsError):
                continue
            assert abs(fay_single(*args) - want) <= 1e-12
            compared += 1
    assert compared >= 8


def test_fay_residual_sums_one_lattice(pd_g2, monkeypatch):
    m = 4
    delta = th.ThetaCharacteristic.first_odd(2)
    imgs, _ = abel_map(pd_g2, sample_points(pd_g2.curve, 2 * m, 71, mode="real"))
    args = (np.array([0.1 + 0.2j, -0.3 + 0.1j]), imgs[:m], imgs[m:], pd_g2.tau, delta)
    want = fay_residual_objects(*args)
    rows = []
    kernel = th._theta_arrays

    def counted(point, zs, log_fac):
        rows.append(len(zs))
        return kernel(point, zs, log_fac)

    monkeypatch.setattr(th, "_theta_arrays", counted)
    got = fay_single(*args)
    assert rows == [3 * m * m - m + 2]
    assert abs(got - want) <= 1e-12


def _fay_batch_args(pd, m, seed, trials=3):
    rng = np.random.default_rng(seed)
    imgs, _ = abel_map(pd, sample_points(pd.curve, 2 * m * trials, seed, mode="real"))
    imgs = imgs.reshape(trials, 2, m, 2)
    w = 0.4 * (rng.standard_normal((trials, 2)) + 1j * rng.standard_normal((trials, 2)))
    return w, imgs[:, 0], imgs[:, 1], pd.tau, th.ThetaCharacteristic.first_odd(2)


def _counted_kernel(monkeypatch):
    rows = []
    kernel = th._theta_arrays

    def counted(point, zs, log_fac):
        rows.append(len(zs))
        return kernel(point, zs, log_fac)

    monkeypatch.setattr(th, "_theta_arrays", counted)
    return rows


@pytest.mark.parametrize("m", [2, 3, 6])
def test_fay_batch_matches_single_trials(m, pd_g2, monkeypatch):
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 300 + m)
    want = [fay_single(w[t], xs[t], ys[t], tau, delta) for t in range(3)]
    rows = _counted_kernel(monkeypatch)
    got = th.fay_residual(w, xs, ys, tau, delta)
    assert rows == [3 * (3 * m * m - m + 2)]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def _single_entries(w, xs, ys, tau, delta):
    """fay_residual's entry of each trial run as a batch of one."""
    return [th.fay_residual(w[t:t + 1], xs[t:t + 1], ys[t:t + 1], tau, delta)[0]
            for t in range(len(w))]


def _assert_entries(got, want, tol=1e-12):
    """Equal errors by class and message, residuals equal to within tol."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Exception):
            assert (type(a), str(a)) == (type(b), str(b))
        else:
            assert type(a) is float and (a == b or abs(a - b) <= tol)


def test_fay_batch_failing_trials_leave_the_others(pd_g2, monkeypatch):
    m = 3
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 310, trials=4)
    xs[2, 1] = xs[2, 0]
    want = _single_entries(w, xs, ys, tau, delta)
    rows = _counted_kernel(monkeypatch)
    got = th.fay_residual(w, xs, ys, tau, delta)
    # trial 2's points coincide: the other three are summed, and trial 3
    # after it keeps its batch-of-one residual
    assert isinstance(got[2], th.CoincidentPointsError) and "points 0 and 1" in str(got[2])
    assert all(isinstance(got[t], float) for t in (0, 1, 3))
    assert rows == [3 * (3 * m * m - m + 2)]
    _assert_entries(got, want)
    # theta(w) vanishing at trial 1 leaves trials 0 and 3 their residuals
    w[1] = pd_g2.tau.z @ [0.5, 0.0] + [0.5, 0.0]  # an odd half-period: theta = 0
    got = th.fay_residual(w, xs, ys, tau, delta)
    assert isinstance(got[1], th.ThetaNearZeroError) and "floor" in str(got[1])
    assert all(isinstance(got[t], float) for t in (0, 3))
    _assert_entries(got, _single_entries(w, xs, ys, tau, delta))


def _zeroed_kernel(monkeypatch, rows):
    """_theta_arrays with the mantissas of the given rows of its result set
    to zero."""
    kernel = th._theta_arrays

    def zeroed(point, zs, log_fac):
        vals = kernel(point, zs, log_fac)
        mant = vals.mantissa.copy()
        mant[list(rows)] = 0.0
        return th.ScaledComplex(mant, vals.log_scale, vals.err, vals.peak)

    monkeypatch.setattr(th, "_theta_arrays", zeroed)


def test_fay_batch_reports_an_exactly_zero_prime_form(pd_g2, monkeypatch):
    m = 3
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 330)
    want = _single_entries(w, xs, ys, tau, delta)
    # the even rows of the three trials come first, then each trial's
    # m^2 + m(m - 1) odd ones: zero trial 1's E(x_0, y_1)
    _zeroed_kernel(monkeypatch, [3 * (m * m + 2) + (2 * m * m - m) + 1])
    got = th.fay_residual(w, xs, ys, tau, delta)
    assert isinstance(got[1], ZeroDivisionError) and "exactly zero" in str(got[1])
    _assert_entries(got[::2], want[::2])


def test_fay_batch_splits_trials_to_fit_the_term_budget(pd_g2, monkeypatch):
    m = 3
    rows_per_trial = 3 * m * m - m + 2
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 320)
    whole = th.fay_residual(w, xs, ys, tau, delta)
    cell, least = _box_points(tau)
    rows = _counted_kernel(monkeypatch)
    # room for one trial's rows, then for one row: one call on the three
    # trials' rows sums them in consecutive chunks
    for budget in (rows_per_trial * cell, cell):
        monkeypatch.setattr(th, "MAX_TERMS", budget)
        rows.clear()
        got = th.fay_residual(w, xs, ys, tau, delta)
        assert rows[0] == 3 * rows_per_trial
        assert len(rows) > 2 and sum(rows[1:]) == rows[0]
        assert np.max(np.abs(np.subtract(got, whole))) <= 1e-12
    # below one row's box the batch and the batch of one are refused alike
    monkeypatch.setattr(th, "MAX_TERMS", least - 1)
    with pytest.raises(th.TruncationError, match="budget"):
        th.fay_residual(w, xs, ys, tau, delta)
    with pytest.raises(th.TruncationError, match="budget"):
        th.fay_residual(w[:1], xs[:1], ys[:1], tau, delta)


@pytest.fixture(scope="module")
def pd_bundled_g2():
    return compute_periods(bundled("hyperelliptic_g2.json"))


def _fay_pin_args(genus, m, trials, pd):
    """A batch of trials at a seeded random genus-1 tau, or at seeded points
    of the bundled genus-2 curve."""
    rng = np.random.default_rng([genus, m, trials])
    if genus == 1:
        tau = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.8, 1.8)]])
        xs, ys = 0.4 * (rng.standard_normal((2, trials, m, 1))
                        + 1j * rng.standard_normal((2, trials, m, 1)))
    else:
        tau = pd.tau
        pts = sample_points(pd.curve, 2 * m * trials, 500 + m + trials, mode="real")
        xs, ys = abel_map(pd, pts)[0].reshape(trials, 2, m, 2).transpose(1, 0, 2, 3)
    w = 0.3 * (rng.standard_normal((trials, genus)) + 1j * rng.standard_normal((trials, genus)))
    return w, xs, ys, tau, th.ThetaCharacteristic.first_odd(genus)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("m", [2, 3, 6, 12])
@pytest.mark.parametrize("genus", [1, 2])
def test_fay_residual_is_bitwise_the_stacked_form(genus, m, trials, pd_bundled_g2):
    args = _fay_pin_args(genus, m, trials, pd_bundled_g2)
    got = th.fay_residual(*args)
    assert any(isinstance(r, float) for r in got)
    _assert_entries(got, fay_residual_stacked(*args), tol=0.0)


@pytest.mark.parametrize("m", [2, 3, 6, 12])
def test_fay_residual_faults_are_bitwise_the_stacked_form(m, pd_bundled_g2, monkeypatch):
    # trial 0 at coincident points, trial 1 with theta(w) zeroed below the
    # floor, trial 2 with its E(x_0, y_1) exactly zero, trial 3 kept: the
    # kernel sees trials 1 to 3, so trial 1's theta(w) is its row 0, and
    # trial 2's first prime form follows all 3 (k + 2) even rows and
    # trial 1's 2k - m odd ones
    w, xs, ys, tau, delta = _fay_pin_args(2, m, 4, pd_bundled_g2)
    xs[0, 1] = xs[0, 0]
    k = m * m
    _zeroed_kernel(monkeypatch, [0, 3 * (k + 2) + (2 * k - m) + 1])
    got = th.fay_residual(w, xs, ys, tau, delta)
    assert [type(r) for r in got] == [th.CoincidentPointsError, th.ThetaNearZeroError,
                                      ZeroDivisionError, float]
    _assert_entries(got, fay_residual_stacked(w, xs, ys, tau, delta), tol=0.0)


@pytest.mark.parametrize("shapes", [
    # two rows of w for one trial of points: the second row was dropped
    ((2, 1), (1, 2, 1), (1, 2, 1)),
    # an unbatched call
    ((1,), (2, 1), (2, 1)),
    # fewer points on the y side
    ((1, 1), (1, 3, 1), (1, 2, 1)),
    # points of genus 2 at a genus-1 tau
    ((1, 1), (1, 2, 2), (1, 2, 2)),
])
def test_fay_residual_names_bad_shapes(shapes):
    rng = np.random.default_rng(5)
    w, xs, ys = (0.2 * (rng.standard_normal(s) + 1j * rng.standard_normal(s)) for s in shapes)
    named = ", ".join(f"{n} {s}" for n, s in zip(("w", "xs", "ys"), shapes))
    with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
        th.fay_residual(w, xs, ys, np.array([[1j]]), th.ThetaCharacteristic.first_odd(1))


def test_fay_residual_validation():
    delta = th.ThetaCharacteristic.first_odd(1)
    tau = np.array([[1j]])
    w = np.array([[0.1 + 0.1j]])
    pts = np.array([[[0.2], [0.4 + 0.1j]]])
    with pytest.raises(ValueError, match="m >= 2"):
        th.fay_residual(w, pts[:, :1], pts[:, :1], tau, delta)
    with pytest.raises(ValueError, match="odd"):
        th.fay_residual(w, pts, pts[:, ::-1], tau, th.ThetaCharacteristic.from_bits(0, 0, 1))
    [err] = th.fay_residual(w, pts[:, [0, 0]], pts, tau, delta)
    assert isinstance(err, th.CoincidentPointsError) and "Jacobian" in str(err)


def test_fay_rejects_vanishing_theta_shift():
    # theta vanishes exactly at the half-period (1 + tau)/2
    tau = np.array([[1j]])
    delta = th.ThetaCharacteristic.first_odd(1)
    w = np.array([(1 + 1j) / 2])
    xs = [np.array([0.21]), np.array([0.55 + 0.2j])]
    ys = [np.array([0.1 - 0.1j]), np.array([0.37])]
    with pytest.raises(th.ThetaNearZeroError, match="floor"):
        fay_single(w, xs, ys, tau, delta)


def test_riemann_constants_genus_one(pd_g1):
    # at genus 1, K is the half-period (1 + tau)/2, the zero of theta
    half = (1.0 + pd_g1.tau.z[0]) / 2.0
    assert lattice_distance(riemann_constant(pd_g1) - half, pd_g1.tau) <= 1e-12
    halves, scores = riemann_constant_search(pd_g1.tau, [np.zeros(1), np.zeros(1)])
    assert np.max(np.abs(halves[0] - half)) <= 1e-12
    assert scores[0] <= 1e-6
    assert scores[1] >= 1e-2


def test_riemann_constants_ambiguous_for_generic_probes(rng):
    # away from the curve no half-period makes theta vanish
    tau = random_siegel_point(2, rng)
    probes = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    _, scores = riemann_constant_search(tau, probes)
    assert scores[0] > 1e-6


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("odd", [False, True])
def test_theta_batch_matches_lattice_oracle(g, odd, rng):
    tau = random_siegel_point(g, rng)
    char = (th.ThetaCharacteristic.first_odd(g) if odd
            else th.ThetaCharacteristic.from_bits(0, 0, g))
    zs = 0.4 * (rng.standard_normal((5, g)) + 1j * rng.standard_normal((5, g)))
    # one row outside the fundamental cell exercises the translation
    # prefactor; two rows at opposite corners of the cell widen the
    # shared lattice box
    shifted = zs[0] + tau.z @ rng.choice([-1.0, 1.0], size=g) + 1.0
    corner = 0.45 * tau.z @ np.ones(g)
    zs = np.vstack([corner, zs, shifted, -corner])
    if g == 4:
        # the term-by-term oracle adds some 5e4 terms per row: keep the
        # translated row and one corner
        zs = zs[-2:]
    # the oracle box reaches 2 past sqrt(40 / (pi lam)), so the terms it
    # leaves out are below exp(-40) of the largest, even for the shifted row
    lam = float(np.min(np.linalg.eigvalsh(tau.y)))
    radius = int(np.ceil(np.sqrt(40.0 / (np.pi * lam)))) + 2
    got = th.theta(zs, tau.z, char)
    assert got.mantissa.shape == (len(zs),)
    for z, val in zip(zs, got.value):
        want = lattice_theta(z, tau.z, char.a, char.b, radius)
        assert abs(val - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("im", [0.05, 1.0, 60.0])
@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("translate", [False, True])
def test_genus_one_theta_matches_mpmath_jtheta(im, odd, translate):
    # Re tau = 1e3: the phases must not lose the digits a large real part
    # holds, also for an argument a lattice vector tau + 3 away.  Each
    # argument keeps |theta| near its largest term, so the relative error
    # is the yardstick.
    tau = complex(1e3, im)
    z = (0.45 - 0.3j if odd else 0.1 + 0.02j) + (tau + 3 if translate else 0)
    got = th.theta(np.array([z]), tau, th.ThetaCharacteristic([0.5], [0.5]) if odd else None)
    assert np.isfinite(got.mantissa) and np.isfinite(got.log_scale)
    with mpmath.workdps(30):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        arg = mpmath.pi * mpmath.mpc(z)
        want = -mpmath.jtheta(1, arg, nome) if odd else mpmath.jtheta(3, arg, nome)
        value = mpmath.mpc(got.mantissa) * mpmath.exp(got.log_scale)
        assert abs(value - want) <= 1e-13 * abs(want)


def test_theta_is_one_row_of_theta_batch(rng):
    tau = random_siegel_point(2, rng)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    one = th.theta(z, tau.z)
    row = th.theta([z], tau.z)[0]
    assert (one.mantissa, one.log_scale, one.err, one.peak) == (
        row.mantissa, row.log_scale, row.err, row.peak)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="rows of length"):
            th.theta(bad, tau.z)
    # at genus 1 a stack is (n, 1); a scalar or a length-1 z is one 0-d value
    assert th.theta(np.zeros((3, 1)), 1j).mantissa.shape == (3,)
    assert np.shape(th.theta(0.2, 1j).mantissa) == ()


def _assert_same_theta(got, want):
    """Each scaled value of got equals want's to within 1e-12 of its peak."""
    assert got.mantissa.shape == want.mantissa.shape
    assert np.all(np.abs(got.mantissa * np.exp(got.log_scale - want.log_scale) - want.mantissa)
                  <= 1e-12 * want.peak)


def test_theta_batch_term_budget(rng, monkeypatch):
    # enough rows need more than 900 terms; the batch is summed in chunks
    # that fit
    tau = random_siegel_point(2, rng)
    cell, least = _box_points(tau)
    assert cell <= 900
    rows = 900 // least + 1
    zs = 0.3 * (rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2)))
    alone = th.ScaledComplex.concatenate([th.theta(z, tau.z).reshape(1) for z in zs])
    monkeypatch.setattr(th, "MAX_TERMS", 900)
    calls = _counted_kernel(monkeypatch)
    _assert_same_theta(th.theta(zs, tau.z), alone)
    assert calls[0] == rows and len(calls) > 2 and sum(calls[1:]) == rows
    # one row whose box alone is over the budget is refused before the
    # lattice is built
    monkeypatch.setattr(th, "MAX_TERMS", least - 1)
    with pytest.raises(th.TruncationError, match=f"budget {least - 1}"):
        th.theta(zs[0], tau.z)
    with pytest.raises(th.TruncationError, match=f"budget {least - 1}"):
        th.theta(zs, tau.z)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(g=st.integers(1, 3), rows=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_theta_chunked_sum_matches_one_sum(g, rows, seed, data):
    # any budget from a row's largest box up to rows times the least one
    # splits the batch, and no value moves beyond rounding
    rng = np.random.default_rng(seed)
    point = random_siegel_point(g, rng)
    zs = rng.standard_normal((rows, g)) + 1j * rng.standard_normal((rows, g))
    char = th.ThetaCharacteristic.from_bits(
        data.draw(st.integers(0, 2**g - 1)), data.draw(st.integers(0, 2**g - 1)), g)
    want = th.theta(zs, point, char)
    cell, least = _box_points(point)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(th, "MAX_TERMS", data.draw(st.integers(cell, max(cell, rows * least - 1))))
        got = th.theta(zs, point, char)
    _assert_same_theta(got, want)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scaled_det_matches_leibniz(m, rng):
    mant = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
    logs = rng.uniform(-2.0, 2.0, (3, m, m))
    # a stack gives one determinant per matrix
    got_m, got_l = th._det_arrays(mant, logs)
    assert got_m.shape == (3,)
    for k in range(3):
        want = leibniz_det(mant[k] * np.exp(logs[k]))
        assert abs(got_m[k] * np.exp(got_l[k]) - want) <= 1e-12 * abs(want)
        one_m, one_l = th._det_arrays(mant[k], logs[k])
        assert np.shape(one_m) == ()
        assert abs(one_m * np.exp(one_l) - want) <= 1e-12 * abs(want)


def test_scaled_det_survives_extreme_scales(rng):
    # entry log scales r_i + c_j span [-800, 800]; exp(800) overflows a
    # float and exp(-800) underflows, so no entry can be formed directly
    m = 5
    mant = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = np.array([400.0, -400.0, 400.0, -400.0, 0.0])
    c = np.array([400.0, -400.0, 0.0, -400.0, 400.0])
    logs = r[:, None] + c[None, :]
    assert logs.max() == 800.0 and logs.min() == -800.0
    got = th.ScaledComplex(*th._det_arrays(mant, logs))
    assert np.isfinite(got.mantissa) and got.mantissa != 0
    base = leibniz_det(mant)
    expect = th.ScaledComplex(base, float(r.sum() + c.sum()))
    assert th.scaled_rel_diff(got, expect) <= 1e-12


def test_scaled_det_zero_row():
    mant = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
    assert th._det_arrays(mant, np.array([[0.0], [900.0]]))[0] == 0
