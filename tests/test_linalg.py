"""Dense solver, determinants, and rank with independent oracles."""

import itertools

import numpy as np
import pytest

from holodiff import linalg

from oracles import pivot_rows_by_deletion


def _rand_c(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _leibniz_det(a):
    n = a.shape[0]
    total = 0.0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= a[i, perm[i]]
        total += sign * prod
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_against_leibniz(n):
    rng = np.random.default_rng(n)
    a = _rand_c(rng, (n, n))
    ref = _leibniz_det(a)
    assert abs(linalg.det(a) - ref) < 1e-12 * max(1.0, abs(ref))


def test_det_empty_and_identity():
    assert linalg.det(np.zeros((0, 0))) == 1.0
    assert linalg.det(np.eye(6)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_hadamard_bound_dominates(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        a = _rand_c(rng, (n, n))
        ratio = linalg.hadamard_ratio(a)
        assert ratio <= 1 + 1e-12
        bound = np.prod(np.linalg.norm(a, axis=1))
        assert ratio == pytest.approx(abs(linalg.det(a)) / bound, rel=1e-12)


@pytest.mark.parametrize("n", [3, 6])
def test_hadamard_ratio_survives_underflowing_rows(n):
    rng = np.random.default_rng(200 + n)
    a = _rand_c(rng, (n, n))
    want = abs(linalg.det(a)) / np.prod(np.linalg.norm(a, axis=1))
    # rows at 1e-120 underflow both det and bound: |det| / max(bound, 1e-300)
    # reads 0.0
    tiny = a * 1e-120
    bound = np.prod(np.linalg.norm(tiny, axis=1))
    assert abs(linalg.det(tiny)) / max(bound, 1e-300) == 0.0
    assert linalg.hadamard_ratio(tiny) == pytest.approx(want, rel=1e-12)
    # each row scaled on its own leaves the ratio unchanged
    mixed = a * np.logspace(-150, 150, n)[:, None]
    assert linalg.hadamard_ratio(mixed) == pytest.approx(want, rel=1e-12)
    singular = a.copy()
    singular[-1] = 0.0
    assert linalg.hadamard_ratio(singular) == 0.0


@pytest.mark.parametrize("n", [8, 10])
def test_hadamard_ratio_independent_of_memory_layout(n):
    # numpy sums a row norm pairwise only along contiguous rows; a
    # transposed or column-sliced stack must read its contiguous copy's ratios
    rng = np.random.default_rng(300 + n)
    wide = _rand_c(rng, (300, n, n + 3))
    for view in (wide.transpose(0, 2, 1)[:, :n], wide[..., 2:n + 2]):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        assert np.array_equal(linalg.hadamard_ratio(view), linalg.hadamard_ratio(copy))
        assert linalg.hadamard_ratio(view[7]) == linalg.hadamard_ratio(copy[7])


@pytest.mark.parametrize("n", [8, 10])
def test_solve_certificate_independent_of_memory_layout(n, monkeypatch):
    # with every matrix refused, the reported magnitude is the certified
    # condition itself; a transposed or column-sliced input must report
    # its contiguous copy's
    monkeypatch.setattr(linalg, "PIVOT_RTOL", 1.0)
    rng = np.random.default_rng(400 + n)
    wide = _rand_c(rng, (300, n, n + 3))
    b = _rand_c(rng, (300, n))
    for view in (wide.transpose(0, 2, 1)[:, :n], wide[..., 2:n + 2]):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        for call, args, args_copy in ((linalg.solve, (view, b), (copy, b)),
                                      (linalg.inverse, (view[7],), (copy[7],))):
            with pytest.raises(linalg.DegenerateMatrixError) as got:
                call(*args)
            with pytest.raises(linalg.DegenerateMatrixError) as want:
                call(*args_copy)
            assert got.value.pivot == want.value.pivot


def test_signed_minor_expansion():
    rng = np.random.default_rng(7)
    a = _rand_c(rng, (5, 5))
    ref = linalg.det(a)
    for i in range(5):
        expansion = sum(a[i, j] * linalg.signed_minor(a, i, j) for j in range(5))
        assert abs(expansion - ref) < 1e-12 * abs(ref)


def test_solve_residual_well_conditioned():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = _rand_c(rng, (n, n)) + 3.0 * np.eye(n)
        if linalg.inverse_cond1(a)[1] > 1e6:
            continue
        b = _rand_c(rng, (n,))
        x = linalg.solve(a, b)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-10 * max(np.max(np.abs(a)) * np.max(np.abs(x)), 1.0)


def test_solve_matrix_rhs():
    rng = np.random.default_rng(4)
    a = _rand_c(rng, (6, 6)) + 2 * np.eye(6)
    b = _rand_c(rng, (6, 3))
    x = linalg.solve(a, b)
    assert x.shape == (6, 3)
    assert np.max(np.abs(a @ x - b)) < 1e-10


def _solve_ones(a):
    return linalg.solve(a, np.ones(a.shape[0]))


def test_singular_matrix_raises_with_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    for call in (_solve_ones, linalg.inverse):
        with pytest.raises(linalg.DegenerateMatrixError) as exc:
            call(a)
        assert exc.value.pivot < 1e-10
        assert "pivot" in str(exc.value)


def test_pivot_threshold_scales_with_rows():
    # the same relative degeneracy must be rejected at any overall scale
    base = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    for call in (_solve_ones, linalg.inverse):
        for scale in (1.0, 1e12, 1e-12):
            with pytest.raises(linalg.DegenerateMatrixError):
                call(scale * base)


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    a = _rand_c(rng, (7, 7)) + 2 * np.eye(7)
    ainv = linalg.inverse(a)
    assert np.max(np.abs(a @ ainv - np.eye(7))) < 1e-10


def test_cond1_diagonal_scaled():
    # on diagonal matrices the 1-norm condition number is exact, so the
    # estimate must land within a factor of 10 on mildly perturbed ones
    rng = np.random.default_rng(6)
    for target in (1e2, 1e4, 1e6):
        d = np.geomspace(1.0, target, 5)
        a = np.diag(d).astype(complex)
        est = linalg.inverse_cond1(a)[1]
        assert target / 10 <= est <= target * 10


def test_cond1_singular_is_infinite():
    a = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    assert linalg.inverse_cond1(a)[1] == float("inf")


def test_inverse_cond1_is_one_inversion():
    rng = np.random.default_rng(7)
    a = _rand_c(rng, (5, 5)) + np.eye(5)
    a_inv, cond = linalg.inverse_cond1(a)
    assert np.array_equal(a_inv, linalg.inverse(a))
    norm1 = lambda m: np.max(np.sum(np.abs(m), axis=0))
    assert cond == norm1(a) * norm1(a_inv)
    singular = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    assert linalg.inverse_cond1(singular) == (None, float("inf"))


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_numerical_rank_constructed(rank):
    rng = np.random.default_rng(rank)
    left = _rand_c(rng, (6, rank))
    right = _rand_c(rng, (rank, 5))
    assert linalg.numerical_rank(left @ right) == rank


def test_numerical_rank_threshold(monkeypatch):
    a = np.diag([1.0, 1e-4, 1e-12]).astype(complex)
    assert linalg.RANK_RTOL == 1e-8
    assert linalg.numerical_rank(a) == 2
    monkeypatch.setattr(linalg, "RANK_RTOL", 1e-15)
    assert linalg.numerical_rank(a) == 3
    assert linalg.numerical_rank(np.zeros((3, 3))) == 0


def test_pivot_rows_match_deleting_oracle():
    # small-integer factors give rank-deficient matrices whose entries,
    # and after row scaling whole rows, tie in magnitude, so the pivot
    # order rests on the row-major tie-break
    rng = np.random.default_rng(41)
    for _ in range(400):
        r, c = (int(v) for v in rng.integers(1, 9, size=2))
        rank = int(rng.integers(0, min(r, c) + 1))
        left = rng.integers(-2, 3, size=(r, rank)) + 1j * rng.integers(-1, 2, size=(r, rank))
        a = left @ rng.integers(-2, 3, size=(rank, c))
        for m in (a, linalg.scale_rows(a)):
            assert linalg.pivot_rows(m) == pivot_rows_by_deletion(m)

