"""Pair-index bookkeeping for symmetric arrays.

A symmetric g x g array has M = g(g+1)/2 independent entries.  This module
fixes one global enumeration of those entries -- the g diagonal pairs
(1,1), ..., (g,g) first, then the off-diagonal pairs in lexicographic order
(1,2), ..., (1,g), (2,3), ..., (g-1,g) -- and implements the calculus it
induces: flattening a vector to its pair products and the symmetric square
of a matrix acting on that flattening.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

__all__ = [
    "PairIndexMap",
    "build_pair_index",
    "pair_vector",
    "sym_square",
]


class PairIndexMap:
    """Bijection between pair slots 1..M and unordered pairs of {1..g}.

    Slots and pair members are 1-based in documentation and printed
    output.  The arrays ``first`` and ``second`` hold the 0-based version
    used for numpy indexing; ``diagonal`` flags slots whose pair repeats
    an index, and ``weight`` is the 2 - delta factor attached to a slot.
    Every array is read-only, because `build_pair_index` hands one map per
    size to every caller.
    """

    def __init__(self, g: int):
        if not isinstance(g, (int, np.integer)) or g < 1:
            raise ValueError(f"size must be a positive integer, got {g!r}")
        self.g = int(g)
        self.m = self.g * (self.g + 1) // 2
        first = list(range(self.g))
        second = list(range(self.g))
        for a in range(self.g):
            for b in range(a + 1, self.g):
                first.append(a)
                second.append(b)
        self.first = np.array(first, dtype=np.intp)
        self.second = np.array(second, dtype=np.intp)
        self.diagonal = self.first == self.second
        self.weight = 2.0 - self.diagonal.astype(float)
        for arr in (self.first, self.second, self.diagonal, self.weight):
            arr.flags.writeable = False
        self._slot = {}
        for i in range(self.m):
            a, b = int(self.first[i]) + 1, int(self.second[i]) + 1
            self._slot[(a, b)] = i + 1
            self._slot[(b, a)] = i + 1

    def slot_of(self, a: int, b: int) -> int:
        """1-based slot of the unordered pair (a, b), members 1-based."""
        try:
            return self._slot[(a, b)]
        except KeyError:
            raise IndexError(f"pair ({a}, {b}) out of range for size {self.g}")

    @cached_property
    def square_grids(self) -> tuple:
        """The read-only (M, M) flat indices (ff, ss, fs, sf) that `sym_square`
        gathers through, built on first use: ff[i, j] = first[i] * g + first[j]
        is where A[first[i], first[j]] sits in the row-major ``A.ravel()``,
        and ss, fs, sf likewise pair second/second, first/second, second/first."""
        f, s = self.first, self.second
        grids = tuple(self.g * rows[:, None] + cols
                      for rows, cols in ((f, f), (s, s), (f, s), (s, f)))
        for grid in grids:
            grid.flags.writeable = False
        return grids

    @cached_property
    def square_divisor(self) -> np.ndarray:
        """Column divisor 1 + delta of `sym_square`, as a (1, M) row."""
        out = (1.0 + self.diagonal.astype(float))[None, :]
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:
        return f"PairIndexMap(g={self.g}, m={self.m})"


def build_pair_index(g: int) -> PairIndexMap:
    """The pair enumeration for symmetric g x g arrays, built once per size
    and shared by every caller."""
    return _pair_index(g)


@cache
def _pair_index(g: int) -> PairIndexMap:
    return PairIndexMap(g)


def pair_vector(u, pm: PairIndexMap) -> np.ndarray:
    """Pair products u_a * u_b, one row per slot, of a vector u of length g,
    or of each column of a (g, n) matrix u."""
    u = np.asarray(u)
    if u.ndim not in (1, 2) or u.shape[0] != pm.g:
        raise ValueError(f"expected {pm.g} rows, got shape {u.shape}")
    return u[pm.first] * u[pm.second]


def sym_square(a, pm: PairIndexMap) -> np.ndarray:
    """Symmetric square of a g x g matrix as an M x M matrix.

    Entry (i, j) is (A[1i,1j] A[2i,2j] + A[1i,2j] A[2i,1j]) / (1 + delta_j)
    where (1i, 2i) is the pair at slot i and delta_j flags a diagonal
    column slot.  With this normalization the map is functorial and acts
    on pair_vector flattenings the way the matrix acts on vectors.

    The factors are gathered from the row-major ``A.ravel()`` through
    `PairIndexMap.square_grids`: the same products and sums in the same
    order as indexing A itself, so the same bits.
    """
    a = np.asarray(a)
    if a.shape != (pm.g, pm.g):
        raise ValueError(f"expected {pm.g} x {pm.g} matrix, got shape {a.shape}")
    r = a.ravel()
    ff, ss, fs, sf = pm.square_grids
    return (r[ff] * r[ss] + r[fs] * r[sf]) / pm.square_divisor
