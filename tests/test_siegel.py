"""Tests for the Siegel-space pair-index calculus."""

import numpy as np
import pytest

from holodiff import linalg, siegel
from holodiff.bases import holomorphic_basis
from holodiff.curves import sample_points
from holodiff.pairindex import build_pair_index, pair_vector, sym_square

from oracles import weighted_minor_g2


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
    mid, den1_t = siegel.modular_transform(tau, m1)
    end, den2_t = siegel.modular_transform(mid, m2)
    whole, den21_t = siegel.modular_transform(tau, m2 @ m1)
    assert np.max(np.abs(end.z - whole.z)) <= 1e-8 * np.max(np.abs(whole.z))
    # transport composes: (C21 tau + D21) = (C2 tau' + D2)(C1 tau + D1)
    composed = den1_t @ den2_t
    assert np.max(np.abs(den21_t - composed)) <= 1e-8 * np.max(np.abs(composed))


def test_modular_transform_genus_mismatch(rng):
    tau = siegel.random_siegel_point(2, rng)
    with pytest.raises(ValueError, match="genus"):
        siegel.modular_transform(tau, siegel.SymplecticElement.identity(3))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_metric_matches_weighted_sym_square(g, rng):
    pm = build_pair_index(g)
    y = _rand_pd(rng, g)
    metric = siegel.siegel_metric(y, pm)
    manual = pm.weight[:, None] * sym_square(linalg.inverse(y).real, pm)
    assert np.array_equal(metric, manual)
    assert np.max(np.abs(metric - metric.T)) <= 1e-12 * np.max(np.abs(metric))
    with pytest.raises(ValueError, match="positive-definite"):
        siegel.siegel_metric(-y, pm)


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
    tau2, den_t = siegel.modular_transform(tau, mm)
    inv_den = linalg.inverse(den_t.T)
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
    for rows, cols in selections:
        got = siegel.volume_minor(t2, pm, rows, cols)
        want = weighted_minor_g2(t2, pm, rows, cols)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_full_volume_minor_matches_closed_form(rng):
    pm = build_pair_index(2)
    t2 = _rand_pd(rng, 2)
    full = siegel.volume_minor(t2, pm, [0, 1, 2], [0, 1, 2])
    p, q, r = t2[0, 0], t2[0, 1], t2[1, 1]
    det_b = 1.0 / (p * r - q * q)
    closed = 2.0 ** (pm.m - 2) * det_b ** 3
    assert abs(full - closed) <= 1e-12 * abs(closed)


def test_volume_minor_validation(rng):
    pm = build_pair_index(2)
    t2 = _rand_pd(rng, 2)
    with pytest.raises(ValueError, match="equal length"):
        siegel.volume_minor(t2, pm, [0, 1], [0])
    with pytest.raises(ValueError, match="out of range"):
        siegel.volume_minor(t2, pm, [0, 3], [0, 1])
    with pytest.raises(ValueError, match="strictly increasing"):
        siegel.volume_minor(t2, pm, [1, 0], [0, 1])
    with pytest.raises(ValueError, match="positive-definite"):
        siegel.volume_minor(-t2, pm, [0, 1], [0, 1])


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_volume_density_closed_form(g, rng):
    pm = build_pair_index(g)
    y = _rand_pd(rng, g)
    det_metric, closed = siegel.ambient_volume_density(y, pm)
    assert abs(det_metric - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_bergman_square_identity(g, rng):
    pm = build_pair_index(g)
    t2 = _rand_pd(rng, g)
    u = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    v = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    lhs = siegel.bergman_square_lhs(u, v, t2, pm)
    rhs = siegel.bergman_kernel(u, v, t2) ** 2
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_induced_metric_is_hermitian_psd(rng):
    pm = build_pair_index(3)
    t2 = _rand_pd(rng, 3)
    w = rng.standard_normal((pm.m, 4)) + 1j * rng.standard_normal((pm.m, 4))
    h = siegel.induced_metric_xi(w, t2, pm)
    assert h.shape == (4, 4)
    assert np.max(np.abs(h - np.conj(h.T))) <= 1e-12 * np.max(np.abs(h))
    assert np.min(np.linalg.eigvalsh((h + np.conj(h.T)) / 2)) >= -1e-10
    with pytest.raises(ValueError, match="rows"):
        siegel.induced_metric_xi(w[:-1], t2, pm)


def test_induced_metric_sandwich_reproduces_squared_kernel(quintic, rng):
    # columns built from pair vectors of basis values turn the induced
    # metric into the matrix of squared kernel values
    pm = build_pair_index(6)
    basis = holomorphic_basis(quintic, 1)
    pts = sample_points(quintic, 5, seed=4242)
    vals = basis.evaluate(pts)
    t2 = _rand_pd(rng, 6)
    w = np.stack([pair_vector(vals[:, r], pm) for r in range(5)], axis=1)
    h = siegel.induced_metric_xi(w, t2, pm)
    kern = np.array(
        [
            [siegel.bergman_kernel(vals[:, r], vals[:, s], t2) for s in range(5)]
            for r in range(5)
        ]
    )
    assert np.max(np.abs(h - kern**2)) <= 1e-12 * np.max(np.abs(kern**2))


_Y_INVERSE_USERS = {
    "siegel_metric": lambda y, pm: siegel.siegel_metric(y, pm),
    "volume_minor": lambda y, pm: siegel.volume_minor(y, pm, [0, 1], [0, 1]),
    "induced_metric_xi": lambda y, pm: siegel.induced_metric_xi(
        np.ones((pm.m, 2), dtype=complex), y, pm),
    "bergman_kernel": lambda y, pm: siegel.bergman_kernel(np.ones(pm.g), np.ones(pm.g), y),
    "bergman_square_lhs": lambda y, pm: siegel.bergman_square_lhs(
        np.ones(pm.g), np.ones(pm.g), y, pm),
}


@pytest.mark.parametrize("user", sorted(_Y_INVERSE_USERS))
def test_y_inverse_users_reject_non_positive_definite(user, rng):
    pm = build_pair_index(3)
    y = _rand_pd(rng, 3)
    _Y_INVERSE_USERS[user](y, pm)
    with pytest.raises(ValueError, match="positive-definite"):
        _Y_INVERSE_USERS[user](-y, pm)
