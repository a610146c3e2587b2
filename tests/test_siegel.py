"""Tests for the Siegel-space pair-index calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodiff import linalg, siegel
from holodiff.bases import holomorphic_basis
from holodiff.curves import sample_points
from holodiff.pairindex import build_pair_index, pair_vector, sym_square

from oracles import random_symplectic_word, weighted_minor_g2


def _rand_pd(rng, g):
    b = rng.standard_normal((g, g))
    return b @ b.T + 0.5 * np.eye(g)


def _rand_symmetric_complex(rng, g):
    z = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return (z + z.T) / 2


def test_siegel_point_validation(rng):
    with pytest.raises(ValueError, match="square"):
        siegel.SiegelPoint(np.ones((2, 3)))
    bad = np.eye(2) * 1j + np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        siegel.SiegelPoint(bad)
    with pytest.raises(ValueError, match="positive definite"):
        siegel.SiegelPoint(np.array([[1.0 - 1j, 0.0], [0.0, 1.0 + 1j]]))
    pt = siegel.SiegelPoint(np.eye(3) * (2.0 + 1.5j))
    assert pt.g == 3
    assert np.array_equal(pt.z, pt.z.T)
    assert np.max(np.abs(pt.y_inv @ pt.y - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 1.0)])
def test_non_finite_entries_are_refused_first(bad):
    # refused before the symmetry test, whose subtraction would warn on inf
    z = np.eye(2) * 1j
    z[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        siegel.SiegelPoint(z)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(g=st.integers(1, 8), log_ratio=st.floats(-18.0, 0.0), log_scale=st.floats(-8.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_positivity_is_certified_from_the_spectrum(g, log_ratio, log_scale, seed):
    # Y = Q diag(lam) Q^T with lam_min / lam_max = 10^log_ratio: the point
    # exists exactly when the computed spectrum clears g eps lam_max
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    lam = 10.0 ** (log_scale + rng.uniform(log_ratio, 0.0, g))
    lam[0], lam[-1] = 10.0 ** (log_scale + log_ratio), 10.0 ** log_scale
    y = (q * lam) @ q.T
    y = (y + y.T) / 2
    spectrum = np.linalg.eigvalsh(y)
    if spectrum[0] > g * np.finfo(float).eps * spectrum[-1]:
        assert siegel.SiegelPoint(1j * y).lambda_min == spectrum[0]
    else:
        with pytest.raises(ValueError, match="not positive definite"):
            siegel.SiegelPoint(1j * y)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_random_siegel_point_is_admissible(g, rng):
    pt = siegel.random_siegel_point(g, rng)
    assert np.array_equal(pt.z, pt.z.T)
    assert np.min(np.linalg.eigvalsh(pt.y)) > 0
    assert pt.lambda_min == float(np.min(np.linalg.eigvalsh(pt.y)))


def test_symplectic_constructors():
    for g in (1, 2, 3):
        j = siegel.SymplecticElement._form(g)
        for elem in (
            siegel.SymplecticElement.identity(g),
            siegel.SymplecticElement.inversion(g),
            siegel.SymplecticElement.upper_shear(np.eye(g, dtype=int) * 2),
            siegel.SymplecticElement.lower_shear(np.eye(g, dtype=int)),
        ):
            m = elem.matrix()
            assert m.dtype == np.int64
            assert np.array_equal(m.T @ j @ m, j)
            back = siegel.SymplecticElement.from_matrix(m)
            assert np.array_equal(back.matrix(), m)


def test_symplectic_rejects_bad_blocks():
    eye = np.eye(2, dtype=int)
    with pytest.raises(ValueError, match="symplectic form"):
        siegel.SymplecticElement(eye, eye, eye, eye)
    with pytest.raises(ValueError, match="symmetric"):
        siegel.SymplecticElement.upper_shear(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="square"):
        siegel.SymplecticElement(np.eye(3, dtype=int), eye, eye, eye)
    zero = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError, match="integer"):
        siegel.SymplecticElement(eye, 0.7 * eye, zero, eye)
    with pytest.raises(ValueError, match="integer"):
        siegel.SymplecticElement.upper_shear(np.array([[1.5, 0.0], [0.0, 0.0]]))


def test_symplectic_accepts_integer_valued_blocks():
    eye = np.eye(2)
    elem = siegel.SymplecticElement(eye, 2.0 * eye, np.zeros((2, 2)), eye + 0j)
    shear = siegel.SymplecticElement.upper_shear(2 * np.eye(2, dtype=int))
    assert elem.matrix().dtype == np.int64
    assert np.array_equal(elem.matrix(), shear.matrix())


@pytest.mark.parametrize("g", range(1, 9))
def test_random_symplectic_matches_factor_by_factor_word(g):
    for seed in range(300):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        word = siegel.random_symplectic(g, rng)
        ref = random_symplectic_word(g, ref_rng)
        assert np.array_equal(word.matrix(), ref.matrix()), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_symplectic_is_exactly_symplectic(g, seed):
    rng = np.random.default_rng(seed)
    elem = siegel.random_symplectic(g, rng)
    m = elem.matrix()
    j = siegel.SymplecticElement._form(g)
    assert m.dtype == np.int64
    assert np.array_equal(m.T @ j @ m, j)


def test_modular_transform_cocycle(rng):
    g = 2
    tau = siegel.random_siegel_point(g, rng)
    m1 = siegel.random_symplectic(g, rng)
    m2 = siegel.random_symplectic(g, rng)
    mid, den1_t, inv1 = siegel.modular_transform(tau, m1)
    end, den2_t, inv2 = siegel.modular_transform(mid, m2)
    whole, den21_t, inv21 = siegel.modular_transform(tau, m2 @ m1)
    assert np.max(np.abs(end.z - whole.z)) <= 1e-8 * np.max(np.abs(whole.z))
    # transport composes: (C21 tau + D21) = (C2 tau' + D2)(C1 tau + D1)
    composed = den1_t @ den2_t
    assert np.max(np.abs(den21_t - composed)) <= 1e-8 * np.max(np.abs(composed))
    # the returned inverse is the exact inverse of the cocycle's transpose
    for den_t, inv in ((den1_t, inv1), (den2_t, inv2), (den21_t, inv21)):
        assert np.array_equal(inv, linalg.inverse(den_t.T))


def test_modular_transform_genus_mismatch(rng):
    tau = siegel.random_siegel_point(2, rng)
    with pytest.raises(ValueError, match="genus"):
        siegel.modular_transform(tau, siegel.SymplecticElement.identity(3))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_metric_matches_weighted_sym_square(g, rng):
    pm = build_pair_index(g)
    y = _rand_pd(rng, g)
    tau = siegel.SiegelPoint(1j * y)
    metric = siegel.siegel_metric(tau, pm)
    manual = pm.weight[:, None] * sym_square(linalg.inverse(tau.y).real, pm)
    assert np.array_equal(metric, manual)
    assert np.max(np.abs(metric - metric.T)) <= 1e-12 * np.max(np.abs(metric))
    with pytest.raises(ValueError, match="positive definite"):
        siegel.SiegelPoint(-1j * y)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_trace_identity(g, rng):
    pm = build_pair_index(g)
    tau = siegel.random_siegel_point(g, rng)
    metric = siegel.siegel_metric(tau, pm)
    dz = _rand_symmetric_complex(rng, g)
    dzp = dz[pm.first, pm.second]
    quad = complex(dzp @ metric @ np.conj(dzp)).real
    direct = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
    assert abs(quad - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("g", [2, 3])
def test_metric_form_is_modular_invariant(g, rng):
    tau = siegel.random_siegel_point(g, rng)
    dz = _rand_symmetric_complex(rng, g)
    mm = siegel.random_symplectic(g, rng)
    tau2, _, inv_den = siegel.modular_transform(tau, mm)
    dz2 = inv_den.T @ dz @ inv_den
    q1 = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
    q2 = complex(np.trace(tau2.y_inv @ dz2 @ tau2.y_inv @ np.conj(dz2))).real
    assert abs(q1 - q2) <= 1e-9 * abs(q1)


def test_volume_minor_against_bruteforce_g2(rng):
    pm = build_pair_index(2)
    t2 = _rand_pd(rng, 2)
    selections = [
        ([0, 1, 2], [0, 1, 2]),
        ([0, 1], [0, 1]),
        ([0, 2], [1, 2]),
        ([1], [2]),
    ]
    tau = siegel.SiegelPoint(1j * t2)
    for rows, cols in selections:
        got = siegel.volume_minor(tau, pm, rows, cols)
        want = weighted_minor_g2(t2, pm, rows, cols)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_full_volume_minor_matches_closed_form(rng):
    pm = build_pair_index(2)
    t2 = _rand_pd(rng, 2)
    full = siegel.volume_minor(siegel.SiegelPoint(1j * t2), pm, [0, 1, 2], [0, 1, 2])
    p, q, r = t2[0, 0], t2[0, 1], t2[1, 1]
    det_b = 1.0 / (p * r - q * q)
    closed = 2.0 ** (pm.m - 2) * det_b ** 3
    assert abs(full - closed) <= 1e-12 * abs(closed)


def test_volume_minor_validation(rng):
    pm = build_pair_index(2)
    tau = siegel.SiegelPoint(1j * _rand_pd(rng, 2))
    with pytest.raises(ValueError, match="equal length"):
        siegel.volume_minor(tau, pm, [0, 1], [0])
    with pytest.raises(ValueError, match="out of range"):
        siegel.volume_minor(tau, pm, [0, 3], [0, 1])
    with pytest.raises(ValueError, match="strictly increasing"):
        siegel.volume_minor(tau, pm, [1, 0], [0, 1])


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_volume_density_closed_form(g, rng):
    pm = build_pair_index(g)
    tau = siegel.SiegelPoint(1j * _rand_pd(rng, g))
    det_metric, closed = siegel.ambient_volume_density(tau, pm)
    assert abs(det_metric - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_bergman_square_identity(g, rng):
    pm = build_pair_index(g)
    tau = siegel.SiegelPoint(1j * _rand_pd(rng, g))
    u = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    v = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    lhs = siegel.bergman_square_lhs(u, v, tau, pm)
    rhs = siegel.bergman_kernel(u, v, tau) ** 2
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_induced_metric_is_hermitian_psd(rng):
    pm = build_pair_index(3)
    tau = siegel.SiegelPoint(1j * _rand_pd(rng, 3))
    w = rng.standard_normal((pm.m, 4)) + 1j * rng.standard_normal((pm.m, 4))
    h = siegel.induced_metric_xi(w, tau, pm)
    assert h.shape == (4, 4)
    assert np.max(np.abs(h - np.conj(h.T))) <= 1e-12 * np.max(np.abs(h))
    assert np.min(np.linalg.eigvalsh((h + np.conj(h.T)) / 2)) >= -1e-10
    with pytest.raises(ValueError, match="rows"):
        siegel.induced_metric_xi(w[:-1], tau, pm)


def test_induced_metric_sandwich_reproduces_squared_kernel(quintic, rng):
    # columns built from pair vectors of basis values turn the induced
    # metric into the matrix of squared kernel values
    pm = build_pair_index(6)
    basis = holomorphic_basis(quintic, 1)
    pts = sample_points(quintic, 5, seed=4242)
    vals = basis.evaluate(pts)
    tau = siegel.SiegelPoint(1j * _rand_pd(rng, 6))
    w = np.stack([pair_vector(vals[:, r], pm) for r in range(5)], axis=1)
    h = siegel.induced_metric_xi(w, tau, pm)
    kern = np.array(
        [
            [siegel.bergman_kernel(vals[:, r], vals[:, s], tau) for s in range(5)]
            for r in range(5)
        ]
    )
    assert np.max(np.abs(h - kern**2)) <= 1e-12 * np.max(np.abs(kern**2))
