"""Brute-force reference computations shared by the test modules.

Everything here is deliberately naive: explicit loops, permutation sums,
hand-written 2x2 inverses, term-by-term lattice sums and a one-draw-at-a-
time point sampler, sharing no code path with the package.
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


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def sample_plane(model, count, seed, mode="complex"):
    """(x, y, chart) of `count` points of a plane curve, one draw at a time.

    Reads the RNG exactly as the package's sampler does, finds each y with
    its own `np.roots` call and polishes it with three scalar Newton steps.
    Rejection rules, thresholds and the per-point draw budget are the
    package's; the coefficients of F(x, .), F_y and F_x are rebuilt term by
    term from `model.coeffs`.
    """
    from holodiff import curves

    d = model.degree
    rng = np.random.default_rng(seed)
    pts = []
    last_reason = "no draws attempted"
    for _ in range(count):
        for _ in range(curves.MAX_DRAWS_PER_POINT):
            if mode == "real":
                x = complex(rng.uniform(-2.0, 2.0))
            else:
                r = 2.0 * np.sqrt(rng.uniform())
                phi = rng.uniform(0.0, 2.0 * np.pi)
                x = complex(r * np.cos(phi), r * np.sin(phi))
            f = [0j] * (d + 1)
            fx = [0j] * (d + 1)
            for rr, s, c in model.coeffs:
                f[d - s] += c * x**rr
                if rr > 0:
                    fx[d - s] += c * rr * x ** (rr - 1)
            fy = [c * (d - i) for i, c in enumerate(f[:-1])]
            nz = [i for i, c in enumerate(f) if c != 0]
            if not nz or d - nz[0] < 1:
                last_reason = "no y roots at drawn x"
                continue
            roots = np.roots(np.array(f[nz[0]:]))
            y = complex(roots[rng.integers(len(roots))])
            for _ in range(3):
                dfy = _horner(fy, y)
                if dfy == 0:
                    break
                y = y - _horner(f, y) / dfy
            scale = model.coeff_scale * max(1.0, abs(x), abs(y)) ** d
            if abs(_horner(f, y)) > curves.ON_CURVE_RTOL * scale:
                last_reason = "root polish left the curve residual too large"
                continue
            gx, gy = abs(_horner(fx, y)), abs(_horner(fy, y))
            grad = gx + gy
            if grad == 0.0:
                last_reason = "vanishing gradient (singular point)"
                continue
            if gy >= curves.CHART_RATIO_MIN * grad:
                chart = "x"
            elif gx >= curves.CHART_RATIO_MIN * grad:
                chart = "y"
            else:
                last_reason = "near-singular chart"
                continue
            if any(abs(x - px) + abs(y - py) < curves.MIN_POINT_SEPARATION
                   for px, py, _ in pts):
                last_reason = "duplicate of an accepted point"
                continue
            pts.append((x, y, chart))
            break
        else:
            raise curves.SamplingError(
                f"gave up after {curves.MAX_DRAWS_PER_POINT} draws; "
                f"last rejection: {last_reason}"
            )
    return pts
