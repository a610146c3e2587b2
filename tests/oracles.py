"""Brute-force reference computations shared by the test modules.

Everything here is deliberately naive: explicit loops, permutation sums,
hand-written 2x2 inverses and term-by-term lattice sums, sharing no code
path with the package.
"""

import cmath
import itertools

import numpy as np


def leibniz_det(a):
    """Permutation-sum determinant, exponential cost, exact signature."""
    a = np.asarray(a)
    n = a.shape[0]
    total = 0.0j
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * a[i, perm[i]]
        total += term
    return total


def cofactor_row(a, r):
    """Cofactors (-1)^(r+c) det(a without row r and column c), one per column c.

    Each minor is its own Leibniz sum over an explicitly rebuilt submatrix.
    """
    a = np.asarray(a)
    n = a.shape[0]
    rows = [i for i in range(n) if i != r]
    out = []
    for c in range(n):
        cols = [j for j in range(n) if j != c]
        sub = np.array([[a[i, j] for j in cols] for i in rows])
        out.append((-1.0) ** (r + c) * leibniz_det(sub))
    return np.array(out)


def weighted_minor_g2(t2, pm, rows, cols):
    """Weighted symmetric-square minor at genus 2, rebuilt entry by entry.

    The 2x2 inverse is written out by hand and the determinant is a
    literal permutation sum over the selected slots.
    """
    p, q, r = t2[0, 0], t2[0, 1], t2[1, 1]
    det_t2 = p * r - q * q
    b = np.array([[r, -q], [-q, p]]) / det_t2
    pairs = [(int(x) - 1, int(y) - 1) for x, y in pm.pairs]
    size = len(rows)
    total = 0.0
    for perm in itertools.permutations(range(size)):
        sign = 1.0
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(size):
            ra, rb = pairs[rows[i]]
            ca, cb = pairs[cols[perm[i]]]
            entry = b[ra, ca] * b[rb, cb] + b[ra, cb] * b[rb, ca]
            entry /= 1.0 + (1.0 if ca == cb else 0.0)
            entry *= 2.0 - (1.0 if ra == rb else 0.0)
            term *= entry
        total += term
    return total


def lattice_theta(z, tau, a, b, radius):
    """Theta series with characteristic (a, b), summed over |n_i| <= radius.

    Terms exp(i pi u.tau.u + 2 pi i u.(z + b)), u = n + a, are added one
    at a time in plain complex arithmetic: no reduction of z into the
    fundamental cell, no scaling, no truncation bound.
    """
    z = [complex(v) for v in np.ravel(z)]
    g = len(z)
    tau = np.asarray(tau, dtype=complex).tolist()
    total = 0.0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        u = [n[i] + float(a[i]) for i in range(g)]
        quad = sum(u[i] * tau[i][j] * u[j] for i in range(g) for j in range(g))
        lin = sum(u[i] * (z[i] + float(b[i])) for i in range(g))
        total += cmath.exp(1j * cmath.pi * quad + 2j * cmath.pi * lin)
    return total
