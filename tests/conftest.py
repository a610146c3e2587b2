"""Shared fixtures: example curves and period data, computed once."""

import numpy as np
import pytest

from holodiff import curves, jacobian


@pytest.fixture(scope="session")
def quintic():
    return curves.PlaneCurve(5, [(5, 0, 1.0), (0, 5, 1.0), (0, 0, 1.0)])


@pytest.fixture(scope="session")
def quartic():
    return curves.PlaneCurve(4, [(4, 0, 1.0), (0, 4, 1.0), (0, 0, 1.0)])


@pytest.fixture(scope="session")
def hyp_g2():
    return curves.HyperellipticCurve([-2.0, -1.0, 0.0, 1.0, 2.0])


@pytest.fixture(scope="session")
def hyp_g3():
    return curves.HyperellipticCurve([-3.1, -2.0, -0.7, 0.0, 1.3, 2.2, 3.5])


@pytest.fixture(scope="session")
def hyp_g4():
    return curves.HyperellipticCurve([float(k) for k in range(-4, 5)])


@pytest.fixture(scope="session")
def lemniscatic():
    return curves.HyperellipticCurve([-1.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def pd_g1(lemniscatic):
    return jacobian.compute_periods(lemniscatic)


@pytest.fixture(scope="session")
def pd_g2(hyp_g2):
    return jacobian.compute_periods(hyp_g2)


@pytest.fixture(scope="session")
def pd_g3(hyp_g3):
    return jacobian.compute_periods(hyp_g3)


@pytest.fixture(scope="session")
def pd_g4(hyp_g4):
    return jacobian.compute_periods(hyp_g4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
