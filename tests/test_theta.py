"""Tests for scaled theta evaluation with half-integer characteristics."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from holodiff import theta as th
from holodiff.curves import sample_points
from holodiff.jacobian import abel_map, lattice_distance, riemann_constant
from holodiff.siegel import SiegelPoint, random_siegel_point

from oracles import fay_residual_objects, lattice_theta, leibniz_det, riemann_constant_search


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


@pytest.mark.parametrize("g", range(1, 7))
def test_first_odd_is_the_first_enumerated_odd_characteristic(g):
    # first_odd builds from_bits(1, 1, g) without walking the enumeration
    first, want = th.ThetaCharacteristic.first_odd(g), th.odd_characteristics(g, 1)[0]
    assert first.a.tobytes() == want.a.tobytes()
    assert first.b.tobytes() == want.b.tobytes()


@pytest.mark.parametrize("g,count", [(1, 1), (2, 6), (3, 28)])
def test_odd_characteristic_counts(g, count):
    odd = th.odd_characteristics(g)
    assert len(odd) == count
    assert all(ch.is_odd for ch in odd)
    assert len(th.odd_characteristics(g, 1)) == 1
    with pytest.raises(ValueError, match="odd characteristics"):
        th.odd_characteristics(g, count + 1)


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
        th.fay_residual(np.array([0.1j, 0.2]), pts, pts[::-1], tau, delta)


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
    got = [v.value for case in _pinned_cases(g) for v in th.theta(*case)]
    assert len(got) == len(PINNED_THETA[g])
    for val, want in zip(got, PINNED_THETA[g]):
        assert abs(val - want) <= 1e-13 * abs(want)


def test_genus_six_point_beyond_the_cube_budget_evaluates():
    # the cube of half-width R(lambda_min) needed 8 067 360 terms for one
    # row at this point, beyond MAX_TERMS; the ellipsoid's box fits
    rng = np.random.default_rng([11, 6])
    point = random_siegel_point(6, rng)
    assert th._cell_box_points(point) <= th.MAX_TERMS
    z = 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    m = rng.integers(-1, 2, size=6).astype(float)
    n = rng.integers(-2, 3, size=6).astype(float)
    for char in (th.ThetaCharacteristic.zero(6), th.ThetaCharacteristic.first_odd(6)):
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
        for char in (th.ThetaCharacteristic.zero(2), th.ThetaCharacteristic.first_odd(2)):
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


def test_lattice_reduce_tau(rng):
    tau = random_siegel_point(2, rng)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2) + tau.z @ [3.0, -2.0]
    r, m, n = th.lattice_reduce_tau(v, tau.z)
    assert np.array_equal(m, np.rint(m))
    assert np.array_equal(n, np.rint(n))
    assert np.max(np.abs(tau.z @ m + n + r - v)) <= 1e-12


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
        imgs = [img.vector for img in
                abel_map(pd_g2, sample_points(pd_g2.curve, 2 * m, 50 + trial, mode="real"))]
        args2 = (0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                 imgs[:m], imgs[m:], pd_g2.tau, delta2)
        for args in (args1, args2):
            try:
                want = fay_residual_objects(*args)
            except (th.ThetaNearZeroError, th.CoincidentPointsError):
                continue
            assert abs(th.fay_residual(*args) - want) <= 1e-12
            compared += 1
    assert compared >= 8


def test_fay_residual_sums_one_lattice(pd_g2, monkeypatch):
    m = 4
    delta = th.ThetaCharacteristic.first_odd(2)
    imgs = [img.vector for img in
            abel_map(pd_g2, sample_points(pd_g2.curve, 2 * m, 71, mode="real"))]
    args = (np.array([0.1 + 0.2j, -0.3 + 0.1j]), imgs[:m], imgs[m:], pd_g2.tau, delta)
    want = fay_residual_objects(*args)
    rows = []
    kernel = th._theta_arrays

    def counted(point, tau, zs, log_fac):
        rows.append(len(zs))
        return kernel(point, tau, zs, log_fac)

    monkeypatch.setattr(th, "_theta_arrays", counted)
    got = th.fay_residual(*args)
    assert rows == [3 * m * m - m + 2]
    assert abs(got - want) <= 1e-12


def _fay_batch_args(pd, m, seed, trials=3):
    rng = np.random.default_rng(seed)
    imgs = np.array([img.vector for img in abel_map(
        pd, sample_points(pd.curve, 2 * m * trials, seed, mode="real"))])
    imgs = imgs.reshape(trials, 2, m, 2)
    w = 0.4 * (rng.standard_normal((trials, 2)) + 1j * rng.standard_normal((trials, 2)))
    return w, imgs[:, 0], imgs[:, 1], pd.tau, th.ThetaCharacteristic.first_odd(2)


def _counted_kernel(monkeypatch):
    rows = []
    kernel = th._theta_arrays

    def counted(point, tau, zs, log_fac):
        rows.append(len(zs))
        return kernel(point, tau, zs, log_fac)

    monkeypatch.setattr(th, "_theta_arrays", counted)
    return rows


@pytest.mark.parametrize("m", [2, 3, 6])
def test_fay_batch_matches_single_trials(m, pd_g2, monkeypatch):
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 300 + m)
    want = [th.fay_residual(w[t], xs[t], ys[t], tau, delta) for t in range(3)]
    rows = _counted_kernel(monkeypatch)
    got, err = th.fay_residual(w, xs, ys, tau, delta)
    assert err is None and rows == [3 * (3 * m * m - m + 2)]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_fay_batch_stops_at_the_first_failing_trial(pd_g2, monkeypatch):
    m = 3
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 310, trials=4)
    xs[2, 1] = xs[2, 0]
    first = th.fay_residual(w[0], xs[0], ys[0], tau, delta)
    rows = _counted_kernel(monkeypatch)
    got, err = th.fay_residual(w, xs, ys, tau, delta)
    # trial 2's points coincide: trials 0 and 1 are summed, 2 and 3 are not
    assert isinstance(err, th.CoincidentPointsError) and "points 0 and 1" in str(err)
    assert len(got) == 2 and abs(got[0] - first) <= 1e-12
    assert rows == [2 * (3 * m * m - m + 2)]
    # theta(w) vanishing at trial 1 is reported after trial 0's residual
    w[1] = pd_g2.tau.z @ [0.5, 0.0] + [0.5, 0.0]  # an odd half-period: theta = 0
    rows.clear()
    got, err = th.fay_residual(w, xs, ys, tau, delta)
    assert isinstance(err, th.ThetaNearZeroError) and len(got) == 1
    with pytest.raises(th.ThetaNearZeroError, match="floor"):
        th.fay_residual(w[1], xs[1], ys[1], tau, delta)


def test_fay_batch_splits_trials_to_fit_the_term_budget(pd_g2, monkeypatch):
    m = 3
    rows_per_trial = 3 * m * m - m + 2
    w, xs, ys, tau, delta = _fay_batch_args(pd_g2, m, 320)
    whole, _ = th.fay_residual(w, xs, ys, tau, delta)
    box = th._cell_box_points(th._siegel(tau))
    # room for two trials per lattice sum, not three: groups [0, 1], [2]
    monkeypatch.setattr(th, "MAX_TERMS", 2 * rows_per_trial * box)
    rows = _counted_kernel(monkeypatch)
    got, err = th.fay_residual(w, xs, ys, tau, delta)
    assert err is None and rows == [2 * rows_per_trial, rows_per_trial]
    assert np.max(np.abs(np.subtract(got, whole))) <= 1e-12
    monkeypatch.setattr(th, "MAX_TERMS", rows_per_trial * box)
    rows.clear()
    got, err = th.fay_residual(w, xs, ys, tau, delta)
    assert err is None and rows == [rows_per_trial] * 3
    # below one trial's box a trial runs alone and is refused as a single call is
    monkeypatch.setattr(th, "MAX_TERMS", rows_per_trial * box - 1)
    with pytest.raises(th.TruncationError, match="budget"):
        th.fay_residual(w, xs, ys, tau, delta)
    with pytest.raises(th.TruncationError, match="budget"):
        th.fay_residual(w[0], xs[0], ys[0], tau, delta)


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


def test_riemann_constants_genus_one(pd_g1):
    # at genus 1, K is the half-period (1 + tau)/2, the zero of theta
    half = (1.0 + pd_g1.tau.z[0]) / 2.0
    assert lattice_distance(pd_g1, riemann_constant(pd_g1) - half) <= 1e-12
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
    char = th.ThetaCharacteristic.first_odd(g) if odd else th.ThetaCharacteristic.zero(g)
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
    assert len(got) == len(zs)
    for z, val in zip(zs, got):
        want = lattice_theta(z, tau.z, char.a, char.b, radius)
        assert abs(val.value - want) <= 1e-13 * abs(want)


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
    # at genus 1 a stack is (n, 1); a scalar or a length-1 z is one value
    assert len(th.theta(np.zeros((3, 1)), 1j)) == 3
    assert isinstance(th.theta(0.2, 1j), th.ScaledComplex)


def test_theta_batch_term_budget(rng, monkeypatch):
    # a row's box spans at least floor(2 h_k) points on axis k, so enough
    # rows need more than 900 terms; the check runs before the lattice is
    # built
    tau = random_siegel_point(2, rng)
    least = math.prod(math.floor(2.0 * h) for h in th._truncation(tau)[0])
    rows = 900 // least + 1
    zs = 0.3 * (rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2)))
    monkeypatch.setattr(th, "MAX_TERMS", 900)
    with pytest.raises(th.TruncationError, match="budget 900"):
        th.theta(zs, tau.z)
    monkeypatch.setattr(th, "MAX_TERMS", 10**4)
    assert len(th.theta(zs[:1], tau.z)) == 1


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
