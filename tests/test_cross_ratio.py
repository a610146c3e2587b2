"""Tests linking cardinal-basis cross-ratios to theta quotients."""

import math

import numpy as np
import pytest

from holodiff import jacobian as jac
from holodiff import theta as th
from holodiff.bases import NonGenericAnchorsError
from holodiff.curves import sample_points

from oracles import lattice_distance, riemann_constant_search


@pytest.mark.parametrize("weight", [1, 2])
def test_cross_ratio_matches_theta_side(pd_g2, weight):
    result = th.gamma_cross_ratio_check(pd_g2, weight, seed=20260818)
    assert result.weight == weight
    assert result.residual <= 1e-6
    assert result.attempts >= 1


@pytest.mark.parametrize("weight", [1, 2])
def test_cross_ratio_matches_theta_side_genus_three(pd_g3, weight):
    result = th.gamma_cross_ratio_check(pd_g3, weight, seed=20260818)
    assert result.weight == weight
    assert result.residual <= 1e-6


@pytest.mark.parametrize("weight", [1, 2])
def test_cross_ratio_matches_theta_side_genus_four(pd_g4, weight):
    result = th.gamma_cross_ratio_check(pd_g4, weight, seed=20260818)
    assert result.weight == weight
    assert result.residual <= 1e-6


@pytest.mark.parametrize("bits", range(1, 16))
def test_weight_two_refuses_every_half_period_shift_of_k(pd_g2, bits, monkeypatch):
    # negative control: K + h for each of the 15 nonzero half-periods
    # h = tau a + b; weight 2 passes at K (1.8e-13) and fails at every K + h
    a = np.array([(bits >> k) & 1 for k in range(2)]) / 2
    b = np.array([(bits >> k) & 1 for k in range(2, 4)]) / 2
    closed_form = jac.riemann_constant
    monkeypatch.setattr(th, "riemann_constant",
                        lambda pd: closed_form(pd) + pd.tau.z @ a + b)
    result = th.gamma_cross_ratio_check(pd_g2, 2, seed=20260818)
    assert result.residual >= 0.1


def _spy_theta_arrays(monkeypatch):
    """Record the (rows, returned value) of every `_theta_arrays` call."""
    calls = []
    arrays = th._theta_arrays

    def spy(point, zs, log_fac):
        out = arrays(point, zs, log_fac)
        calls.append((len(zs), out))
        return out

    monkeypatch.setattr(th, "_theta_arrays", spy)
    return calls


@pytest.mark.parametrize("pd_name", ["pd_g2", "pd_g4"])
def test_cross_ratio_makes_one_lattice_sum_per_attempt(pd_name, request, monkeypatch):
    pd = request.getfixturevalue(pd_name)
    calls = _spy_theta_arrays(monkeypatch)
    result = th.gamma_cross_ratio_check(pd, 2, seed=20260818)
    # theta(w), then four even and four odd translates for each anchor pair
    n = 3 * pd.genus - 3
    assert [rows for rows, _ in calls] == [1 + 4 * n * (n - 1)] * result.attempts


def test_cross_ratio_split_sum_matches_one_sum(pd_g2, monkeypatch):
    calls = _spy_theta_arrays(monkeypatch)
    whole = th.gamma_cross_ratio_check(pd_g2, 2, seed=20260818)
    [(_, one)] = calls
    calls.clear()
    # the 25 rows, reduced into the fundamental cell, reach across it: their
    # box is the cell's, 2 floor(h_k + 1/2) + 1 points on axis k.  With room
    # for eight rows of it, the one call on the 25 rows sums them in
    # consecutive chunks of eight, each in its own box
    box = math.prod(2 * math.floor(h + 0.5) + 1 for h in pd_g2.tau.theta_truncation[0])
    monkeypatch.setattr(th, "MAX_TERMS", 8 * box)
    split = th.gamma_cross_ratio_check(pd_g2, 2, seed=20260818)
    *chunks, (rows, _) = calls
    assert rows == 25 and [n for n, _ in chunks] == [8, 8, 8, 1]
    assert split.attempts == whole.attempts
    # the residual is a relative deviation, so it is compared absolutely
    assert abs(split.residual - whole.residual) <= 1e-12
    parts = th.ScaledComplex.concatenate([out for _, out in chunks])
    assert np.max(np.abs(parts.mantissa * np.exp(parts.log_scale - one.log_scale)
                         - one.mantissa) / one.peak) <= 1e-12


def test_cross_ratio_needs_genus_two(pd_g1):
    # at genus 1 there is one anchor and so no pair to compare
    with pytest.raises(ValueError, match="genus >= 2"):
        th.gamma_cross_ratio_check(pd_g1, 1, seed=0)


def test_cross_ratio_gives_up_after_every_attempt_fails(pd_g2, monkeypatch):
    calls = []

    def non_generic(basis, anchors):
        calls.append(len(anchors))
        raise NonGenericAnchorsError("forced", 1e20)

    monkeypatch.setattr(th, "cardinal_basis", non_generic)
    with pytest.raises(th.ThetaNearZeroError,
                       match=f"no usable configuration after {th.CROSS_RATIO_ATTEMPTS} attempts"):
        th.gamma_cross_ratio_check(pd_g2, 1, seed=20260818)
    assert len(calls) == th.CROSS_RATIO_ATTEMPTS == 6


def _curve_probes(pd):
    pts = sample_points(pd.curve, 4, seed=314, mode="real")
    return jac.abel_map(pd, pts)[0]


def test_riemann_constants_from_curve_probes(pd_g2):
    # the closed form is the half-period search's certified winner
    halves, scores = riemann_constant_search(pd_g2.tau, _curve_probes(pd_g2))
    assert scores[0] <= 1e-6
    assert scores[1] >= 1e-2
    k = jac.riemann_constant(pd_g2)
    assert lattice_distance(k - halves[0], pd_g2.tau) <= 1e-12


def test_half_period_shift_flips_no_certification(pd_g2):
    # shifting every probe by a fixed lattice vector leaves the winner at K
    shift = pd_g2.tau.z @ np.array([1.0, -2.0]) + np.array([0.0, 3.0])
    probes = [p + shift for p in _curve_probes(pd_g2)]
    halves, scores = riemann_constant_search(pd_g2.tau, probes)
    assert scores[0] <= 1e-6
    assert scores[1] >= 1e-2
    k = jac.riemann_constant(pd_g2)
    assert lattice_distance(k - halves[0], pd_g2.tau) <= 1e-12
