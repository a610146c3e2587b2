"""Pair enumeration and symmetric-square calculus."""

import numpy as np
import pytest

from holodiff.pairindex import (
    PairIndexMap,
    build_pair_index,
    pair_vector,
    sym_square,
)

from oracles import product_layout


def _rand_c(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _pairs(pm):
    """Every pair in slot order, 1-based."""
    return list(zip((pm.first + 1).tolist(), (pm.second + 1).tolist()))


def test_slot_order_g4():
    pm = build_pair_index(4)
    assert pm.m == 10
    assert _pairs(pm) == [
        (1, 1), (2, 2), (3, 3), (4, 4),
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_slot_count_and_inverse_maps(g):
    pm = build_pair_index(g)
    assert pm.m == g * (g + 1) // 2
    assert len(_pairs(pm)) == pm.m
    for slot, (a, b) in enumerate(_pairs(pm), start=1):
        assert 1 <= a <= b <= g
        assert pm.slot_of(a, b) == slot
        assert pm.slot_of(b, a) == slot
    with pytest.raises(IndexError):
        pm.slot_of(1, g + 1)


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_explicit_slot_formula_matches_enumeration(g):
    # the closed-form slot offsets must reproduce the stored order
    pm = build_pair_index(g)
    layout = product_layout(g)
    assert len(layout) == pm.m
    assert _pairs(pm) == layout


def test_weights_are_two_minus_delta():
    pm = build_pair_index(5)
    for i, (a, b) in enumerate(_pairs(pm)):
        assert pm.weight[i] == (1.0 if a == b else 2.0)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_sym_square_functoriality(g, seed):
    rng = np.random.default_rng(seed)
    pm = build_pair_index(g)
    a = _rand_c(rng, (g, g))
    b = _rand_c(rng, (g, g))
    lhs = sym_square(a @ b, pm)
    rhs = sym_square(a, pm) @ sym_square(b, pm)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("g", range(1, 9))
def test_sym_square_matches_explicit_index_formula(g, rng):
    pm = build_pair_index(g)
    f, s = pm.first, pm.second
    divisor = (1.0 + pm.diagonal.astype(float))[None, :]
    for a in (rng.standard_normal((g, g)), _rand_c(rng, (g, g))):
        num = a[np.ix_(f, f)] * a[np.ix_(s, s)] + a[np.ix_(f, s)] * a[np.ix_(s, f)]
        assert np.array_equal(sym_square(a, pm), num / divisor)


def _ix_square(a, pm):
    """sym_square read through np.ix_ grids on A itself."""
    f, s = pm.first, pm.second
    num = a[np.ix_(f, f)] * a[np.ix_(s, s)] + a[np.ix_(f, s)] * a[np.ix_(s, f)]
    return num / (1.0 + pm.diagonal.astype(float))[None, :]


@pytest.mark.parametrize("g", [2, 3, 8])
def test_sym_square_of_a_non_contiguous_matrix(g, rng):
    # ravel copies these in row-major order, so the flat gather reads the
    # same entries as indexing their contiguous copy
    pm = build_pair_index(g)
    for base in (rng.standard_normal((2 * g, 2 * g)), _rand_c(rng, (2 * g, 2 * g))):
        square = base[:g, :g]
        for a in (square.T, base[::2, 1::2], np.asfortranarray(square)):
            assert not a.flags.c_contiguous
            assert np.array_equal(sym_square(a, pm), _ix_square(np.ascontiguousarray(a), pm))


def test_sym_square_of_a_nested_list():
    pm = build_pair_index(2)
    rows = [[1.0, 2.0], [3.0, 4.0]]
    assert np.array_equal(sym_square(rows, pm), _ix_square(np.array(rows), pm))


def test_sym_square_grids_are_built_on_first_use():
    pm = PairIndexMap(3)  # build_pair_index shares one map, which earlier tests used
    assert "square_grids" not in vars(pm) and "square_divisor" not in vars(pm)
    sym_square(np.eye(3), pm)
    assert "square_grids" in vars(pm) and "square_divisor" in vars(pm)


def test_sym_square_identity():
    pm = build_pair_index(4)
    assert np.allclose(sym_square(np.eye(4), pm), np.eye(pm.m), atol=1e-15)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_pair_vector_equivariance(g):
    rng = np.random.default_rng(g)
    pm = build_pair_index(g)
    a = _rand_c(rng, (g, g))
    u = _rand_c(rng, (g,))
    lhs = sym_square(a, pm) @ pair_vector(u, pm)
    rhs = pair_vector(a @ u, pm)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_pair_vector_entries():
    pm = build_pair_index(3)
    u = np.array([2.0, 3.0, 5.0])
    pv = pair_vector(u, pm)
    for i, (a, b) in enumerate(_pairs(pm)):
        assert pv[i] == u[a - 1] * u[b - 1]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_determinant_power(g):
    rng = np.random.default_rng(10 + g)
    pm = build_pair_index(g)
    a = _rand_c(rng, (g, g))
    a /= np.sqrt(g) * np.max(np.abs(a))
    d1 = np.linalg.det(sym_square(a, pm))
    d2 = np.linalg.det(a) ** (g + 1)
    assert abs(d1 - d2) <= 1e-10 * abs(d2)


def test_shape_validation():
    pm = build_pair_index(3)
    with pytest.raises(ValueError):
        pair_vector(np.zeros(4), pm)
    with pytest.raises(ValueError):
        sym_square(np.zeros((3, 4)), pm)
    with pytest.raises(ValueError):
        build_pair_index(0)


def test_pair_index_is_shared_and_read_only():
    pm = build_pair_index(5)
    assert build_pair_index(5) is pm
    for arr in (pm.first, pm.second, pm.diagonal, pm.weight, pm.square_divisor,
                *pm.square_grids):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
