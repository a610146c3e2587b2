"""Tests linking cardinal-basis cross-ratios to theta quotients."""

import numpy as np
import pytest

from holodiff import theta as th
from holodiff.bases import NonGenericAnchorsError
from holodiff.curves import sample_points
from holodiff.jacobian import abel_map


@pytest.mark.parametrize("weight", [1, 2])
def test_cross_ratio_matches_theta_side(pd_g2, weight):
    result = th.gamma_cross_ratio_check(pd_g2, weight, seed=20260818)
    assert result.weight == weight
    assert result.residual <= 1e-6
    assert result.attempts >= 1
    assert result.constants.score <= 1e-6


def test_cross_ratio_needs_genus_two(pd_g1):
    with pytest.raises(ValueError, match="genus-2"):
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


def test_riemann_constants_from_curve_probes(pd_g2):
    pts = sample_points(pd_g2.curve, 4, seed=314, mode="real")
    probes = [abel_map(pd_g2, p).vector for p in pts]
    rc = th.find_riemann_constants(pd_g2.tau, probes)
    assert rc.score <= 1e-6
    assert rc.runner_up >= 1e-2
    # the certified vector is a genuine half-period of this lattice
    half = pd_g2.tau.z @ rc.a_half + rc.b_half
    assert np.max(np.abs(rc.vector - half)) <= 1e-12
    assert set(np.round(2 * rc.a_half).astype(int)) <= {0, 1}
    assert set(np.round(2 * rc.b_half).astype(int)) <= {0, 1}


def test_half_period_shift_flips_no_certification(pd_g2):
    # shifting every probe by a fixed lattice vector leaves the winner alone
    pts = sample_points(pd_g2.curve, 4, seed=314, mode="real")
    probes = [abel_map(pd_g2, p).vector for p in pts]
    shift = pd_g2.tau.z @ np.array([1.0, -2.0]) + np.array([0.0, 3.0])
    rc0 = th.find_riemann_constants(pd_g2.tau, probes)
    rc1 = th.find_riemann_constants(pd_g2.tau, [p + shift for p in probes])
    assert np.array_equal(rc0.a_half, rc1.a_half)
    assert np.array_equal(rc0.b_half, rc1.b_half)
