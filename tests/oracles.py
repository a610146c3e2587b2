"""Brute-force reference computations shared by the test modules.

Everything here is deliberately naive: explicit loops, permutation sums,
closed-form pair-slot offsets, the symplectic test on the whole 2g x 2g
matrix, hand-written 2x2 inverses, term-by-term
lattice sums, a written-out lattice distance, a parity test of every
characteristic, a search over all half-periods for the Riemann constant,
one-draw-at-a-time point samplers, a one-segment-at-a-time period loop,
a one-point-at-a-time Abel map, an object-form trisecant residual, the
trial-by-trial CLI trisecant loop, symplectic elements built and
multiplied as whole matrices with a factor-by-factor word from them,
and the determinantal checks of one relation input as a chain of
one-set LAPACK calls (the substituted determinants, the minor table
from its own inversion, the a tensor, and `relation_chain`, which
repeats the package's arithmetic step for step).  The
samplers call the Generator's own `uniform` and `integers` where the
package decodes the raw words of its bit generator.  The last five, and
the hyperelliptic sampler, repeat the package's arithmetic step for
step, so the package's array forms can be held to equal or near-equal
results.  Three helpers build package objects for the tests: a bundled
curve file parsed afresh, outside the CLI's memo, a certified
`PetriBasis` at seeded points, and one label's relation coefficients
from a labeled matrix.
"""

import cmath
import functools
import itertools
import types

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


def product_layout(g):
    """Pair-slot order from the closed-form offsets, not from an enumeration.

    Slot i <= g holds the pair (i, i); slot i = k + j(2g - j + 1)/2 holds
    (j, j + k).  Returns the pairs in slot order 1..g(g+1)/2.
    """
    layout = {i: (i, i) for i in range(1, g + 1)}
    for j in range(1, g):
        for k in range(1, g - j + 1):
            layout[k + j * (2 * g - j + 1) // 2] = (j, j + k)
    return [layout[i] for i in sorted(layout)]


def weighted_minor_g2(t2, pm, rows, cols):
    """Weighted symmetric-square minor at genus 2, rebuilt entry by entry.

    The 2x2 inverse is written out by hand and the determinant is a
    literal permutation sum over the selected slots.
    """
    p, q, r = t2[0, 0], t2[0, 1], t2[1, 1]
    det_t2 = p * r - q * q
    b = np.array([[r, -q], [-q, p]]) / det_t2
    pairs = list(zip(pm.first.tolist(), pm.second.tolist()))
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


def lattice_distance(v, tau):
    """Max-norm distance of v from the period lattice tau Z^g + Z^g.

    tau is a SiegelPoint or a matrix.  Written out: m is the rounded
    solution of Im(tau) m = Im v, n the rounded real part of v - tau m, and
    the distance is the largest modulus of the remainder v - tau m - n.
    """
    z = np.atleast_2d(np.asarray(getattr(tau, "z", tau), dtype=complex))
    v = np.asarray(v, dtype=complex).reshape(len(z))
    m = np.rint(np.linalg.solve(z.imag, v.imag))
    n = np.rint((v - z @ m).real)
    return float(np.max(np.abs(v - z @ m - n)))


def odd_characteristics(g):
    """The odd characteristics at genus g in ascending (a-bits, b-bits)
    order, by the parity of the bit count of a-bits & b-bits."""
    from holodiff.theta import ThetaCharacteristic

    return [ThetaCharacteristic.from_bits(ia, ib, g)
            for ia in range(2**g) for ib in range(2**g) if bin(ia & ib).count("1") % 2]


def bundled(name):
    """The bundled curve file `name` parsed afresh, outside the CLI's memo."""
    from importlib import resources

    from holodiff import curves

    return curves.parse_curve_spec(resources.files("holodiff").joinpath("data", name).read_text())


def petri_basis(model, anchor_seed, certificate_seed):
    """The PetriBasis of the monomial basis's values at g anchors drawn at
    `anchor_seed`, certified at 3g-3 points drawn at `certificate_seed`."""
    from holodiff import bases, curves

    g = model.genus
    omega = bases.holomorphic_basis(model)
    petri = bases.PetriBasis(omega, omega.evaluate(curves.sample_points(model, g, anchor_seed)))
    petri.certify(omega.evaluate(curves.sample_points(model, 3 * g - 3, certificate_seed)))
    return petri


def coefficients_from_matrices(amat, dmat, row, g, k, l):
    """Relation coefficients of label (k, l) by expanding row `row` of its
    labeled matrix `amat`: the one-label, one-set case of `petri._relations`."""
    from holodiff import petri

    labels = [(k, l)]
    [coeffs] = petri._relations(np.asarray(amat)[None, None], np.asarray(dmat)[None], row,
                                petri._column_pairs(g, labels), labels)
    if isinstance(coeffs, Exception):
        raise coeffs
    return coeffs[0]


def substituted_determinants(inp):
    """d[i,r] = det of the base matrix with column i replaced by probe r,
    through the solved system d = det_p * (omega_p^-1 omega_q)."""
    from holodiff import linalg

    return inp.det_p * linalg.solve(inp.omega_p, inp.omega_q)


def minor_table(inp):
    """D[m,i]: signed minors of the transposed base evaluation matrix, from
    its own inversion.  Contracting D with probe values reproduces
    substituted_determinants: (D @ omega_q)[m,r] = d[m,r]."""
    from holodiff import linalg

    return inp.det_p * linalg.inverse(inp.omega_p)


def a_tensor(inp):
    """a[i,j,r]: product of the two point-substituted determinants."""
    d = substituted_determinants(inp)
    return np.einsum("ir,jr->ijr", d, d)


def relation_chain(omega_p, omega_q):
    """The determinantal checks of one input as a chain of one-set LAPACK
    calls: (theorem1 ratios, relation coefficients by label, rank) of the
    holomorphic basis's values `omega_p` at the base points and `omega_q`
    at the probes, each slot the result or the exception that ended it.

    Every step is on its own: the base test by one `det` and one Hadamard
    ratio, the substituted determinants by one solve, the minor table by
    one inversion, and each label set's null vectors by one stacked solve
    that refuses the whole set.  This is the bitwise reference for
    `petri.relation_pass`.
    """
    from holodiff import linalg, petri

    g = omega_p.shape[0]
    det_p = linalg.det(omega_p)
    ratio = linalg.hadamard_ratio(omega_p)
    if ratio < 1e-12:
        err = linalg.DegenerateMatrixError("base-point evaluation matrix is singular", ratio)
        return err, err, err
    inp = types.SimpleNamespace(omega_p=omega_p, omega_q=omega_q, det_p=det_p)
    labels = petri.relation_labels(g)
    cols = petri._column_pairs(g, labels)
    try:
        a = a_tensor(inp)
    except linalg.DegenerateMatrixError as err:
        return err, err, err
    amats = a[cols[..., 0], cols[..., 1]].transpose(0, 2, 1)
    ratios = list(zip(labels, linalg.hadamard_ratio(amats).tolist()))
    try:
        dmat = minor_table(inp)
    except linalg.DegenerateMatrixError as err:
        return ratios, err, err
    size = amats.shape[-1]
    r0 = petri.EXPANDED_ROW - 1
    deltas = linalg.signed_minor(amats, r0, size - 1).tolist()
    rest = np.delete(amats, r0, axis=-2)
    try:
        y = linalg.solve(rest[..., :-1], -rest[..., -1])
    except linalg.DegenerateMatrixError:
        y = None
    if y is None or np.max(np.abs(y), initial=0.0) > 1.0 / petri.DELTA_RTOL:
        err = petri.DegenerateRowError(f"normalizing cofactor vanished for row "
                                       f"{petri.EXPANDED_ROW}; try a different row")
        return ratios, err, err
    ratios_y = np.concatenate([y, np.ones((len(y), 1))], axis=-1)
    raw = np.zeros((len(y),) + (dmat.shape[-1],) * 2, dtype=complex)
    for c in range(cols.shape[1]):
        outer = dmat[cols[:, c, 0], :, None] * dmat[cols[:, c, 1], None, :]
        raw += ratios_y[:, c, None, None] * outer
    sym = (raw + raw.transpose(0, 2, 1)) / 2
    coeffs = {lab: petri.RelationCoefficients(lab, petri.EXPANDED_ROW, sym[i], raw[i], deltas[i])
              for i, lab in enumerate(labels)}
    try:
        rank = petri.certify_relation_set(g, coeffs).rank
    except petri.RelationRankError as err:
        rank = err
    return ratios, coeffs, rank


def riemann_constant_search(tau, probe_images):
    """Half-periods ranked by how well theta vanishes at probe - h.

    Every h = tau a + b with a, b in {0, 1/2}^g is scored by the worst
    |theta(p - h)| over the probe images p, relative to the largest
    series term.  Returns (half-periods, scores), best first; at genus 1
    and 2, with single curve points as probes, the best is the Riemann
    constant modulo the lattice.
    """
    from holodiff import theta as th

    point = th._siegel(tau)
    g = point.g
    probes = np.array([np.asarray(p, dtype=complex).reshape(g) for p in probe_images])
    halves, scores = [], []
    for ia in range(2**g):
        for ib in range(2**g):
            ch = th.ThetaCharacteristic.from_bits(ia, ib, g)
            h = point.z @ ch.a + ch.b
            vals = th.theta(probes - h, point)
            halves.append(h)
            scores.append(np.max(np.abs(vals.mantissa) / vals.peak))
    order = np.argsort(scores, kind="stable")
    return np.array(halves)[order], np.array(scores)[order]


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def sample_plane(model, count, seed, mode="complex"):
    """(x, y, chart) of `count` points of a plane curve, one draw at a time.

    Reads the RNG exactly as the package's sampler does, finds each y with
    its own `np.roots` call (LAPACK eigenvalues of the companion matrix),
    takes the drawn root in the package's order, by distance from
    `curves.ROOT_ORDER_POINT`, and polishes it with three scalar Newton
    steps.
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
            roots = roots[np.argsort(abs(roots - curves.ROOT_ORDER_POINT), kind="stable")]
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


def sample_hyperelliptic(model, count, seed, mode="complex"):
    """(x, y, chart, sheet) of `count` points of a hyperelliptic curve, one
    draw at a time.

    Each draw calls `rng.uniform` for x (radius and angle in complex mode)
    and, when x clears the branch points, once more for the sheet; y is
    the sheet times the square root of f(x) at that one x.  Rejection
    rules and the per-point draw budget are the package's.
    """
    from holodiff import curves

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
            if model.branch_distance(x)[0] < curves.BRANCH_MARGIN:
                last_reason = "too close to a branch point"
                continue
            sheet = 1 if rng.uniform() < 0.5 else -1
            y = sheet * np.sqrt(model.f(x)[0])
            if any(abs(x - px) + abs(y - py) < curves.MIN_POINT_SEPARATION
                   for px, py, _, _ in pts):
                last_reason = "duplicate of an accepted point"
                continue
            pts.append((x, complex(y), "x", sheet))
            break
        else:
            raise curves.SamplingError(
                f"gave up after {curves.MAX_DRAWS_PER_POINT} draws; "
                f"last rejection: {last_reason}"
            )
    return pts


def periods_by_segment(curve):
    """(tau, segment values, segment errors) of `jacobian.compute_periods`,
    with one `quad_segment` call per segment.

    Each call gets its own node-doubling loop, on rows x^k / sqrt|f(x)|
    with f from the curve's complex product; tau is formed from the
    segments as the package forms it, without the certificates.
    """
    from holodiff import jacobian as jac
    from holodiff import linalg

    g = curve.genus
    e = np.asarray(curve.branch_points)

    def rows(x):
        sqrt_abs_f = np.sqrt(np.abs(curve.f(x.ravel()).real)).reshape(x.shape)
        return np.stack([x**k for k in range(g)]) / sqrt_abs_f

    seg = np.empty((2 * g, g), dtype=complex)
    seg_err = np.empty((2 * g, g))
    for j in range(2 * g):
        val, gap = jac.quad_segment(rows, e[j:j + 1], e[j + 1:j + 2])
        seg[j], seg_err[j] = (-1j) ** ((2 * g - j) % 4) * val[0], gap[0]
    a_mat = np.array([2.0 * seg[2 * i] for i in range(g)])
    b_mat = np.array([2.0 * np.sum(seg[2 * i + 1 :: 2], axis=0) for i in range(g)])
    tau = b_mat @ linalg.inverse_cond1(a_mat)[0]
    return (tau + tau.T) / 2, seg, seg_err


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def abel_map_per_point(pd, p, via=None):
    """(vector, path, err) of one Abel image, real chain one point at a time.

    Cached segments are added one by one; the partial segment, or the leg
    left of the first branch point, gets its own node-doubling loop of
    one-sided Gauss-Legendre rules, whose f forms each factor x - e_i
    from the offset d = +-t^2 from the singular branch point e_end, as
    (e_end - e_i) + d, from the curve's complex product.  Complex legs use the package's
    `_complex_leg`, which works one point at a time anyway.
    """
    from holodiff import jacobian as jac

    curve = pd.curve
    g = curve.genus
    e = np.asarray(curve.branch_points)

    def sqrt_abs_f(x):
        return np.sqrt(np.abs(curve.f(x).real))

    def phase(seg):
        # 1/y phase on the segment with 2g - seg branch points to its right
        return (-1j) ** ((2 * g - seg) % 4)

    def one_sided(a, b, sing_a, end):
        width = np.sqrt(b - a)
        n, prev = 32, None
        while n <= jac.QUAD_CAP:
            t, w = _leggauss(n)
            tt = (t + 1) * (width / 2)
            ww = w * (width / 2)
            d = tt * tt if sing_a else -(tt * tt)
            x = a + d if sing_a else b + d
            # each factor x - e_i as (e_end - e_i) + d, so the singular one is d
            factors = (e[end] - e)[None, :].astype(complex) + d[:, None]
            f = np.prod(factors, axis=1).real
            rows = np.stack([x**k for k in range(g)]) / np.sqrt(np.abs(f))
            val = np.sum(rows * 2.0 * tt * ww, axis=-1)
            if prev is not None:
                gap = abs(val - prev)
                if np.max(gap) <= jac.QUAD_RTOL * max(np.max(abs(val)), 1e-300):
                    return val, gap
            prev = val
            n *= 2
        raise jac.QuadratureError("segment quadrature did not converge")

    x_t, y_t = complex(p.x), complex(p.y)
    legs = []
    if via is not None:
        via = complex(via)
        anchor = via.real
        legs = [(anchor, via), (via, x_t)]
    elif abs(x_t.imag) > 1e-14:
        anchor = x_t.real
        legs = [(anchor, x_t)]
    else:
        anchor = x_t.real
    x = float(anchor)
    on_branch = bool(np.any(np.abs(e - x) <= 1e-12))
    if not on_branch and float(np.min(np.abs(e - x))) < jac.BRANCH_CLEARANCE:
        raise jac.PathError(
            f"endpoint {x} is within {jac.BRANCH_CLEARANCE} of a branch point")

    path, err = [], 0.0
    if x < e[0]:
        val, dq = one_sided(x, float(e[0]), False, 0)
        total = -phase(-1) * val
        err += float(np.sum(dq))
        path.append(f"real:{e[0]}->{x}")
        y_run = (1.0 / phase(-1)) * float(sqrt_abs_f(np.array([x]))[0])
    else:
        total = np.zeros(g, dtype=complex)
        for j in range(len(e) - 1):
            if e[j + 1] > x + 1e-12:
                break
            total += pd.seg_values[j]
            err += float(np.sum(pd.seg_errors[j]))
            path.append(f"seg:{j}")
        if on_branch:
            y_run = 0j
        else:
            j = int(np.searchsorted(e, x) - 1)
            start = float(e[j])
            val, dq = one_sided(start, x, True, j)
            total += (phase(j) if j < 2 * g else 1.0 + 0.0j) * val
            err += float(np.sum(dq))
            path.append(f"partial:{start}->{x}")
            if x > e[-1]:
                y_run = complex(np.sqrt(curve.f(x)[0].real))
            else:
                y_run = 1j ** ((2 * g - j) % 4) * float(sqrt_abs_f(np.array([x]))[0])

    for z0, z1 in legs:
        z0c = complex(z0)
        if abs(z0c - z1) < 1e-15:
            continue
        vals, y_run, dq = jac._complex_leg(pd, z0c, z1, y_run)
        total = total + vals
        err += dq
        path.append(f"leg:{z0c}->{z1}")

    vec = pd.normalization @ total
    if abs(y_t) > 0 and abs(y_run) > 0 and abs(y_run - y_t) > abs(y_run + y_t):
        vec = -vec
        path.append("sheet-flip")
    return vec, tuple(path), err


def fay_residual_objects(w, xs, ys, tau, delta):
    """Trisecant residual assembled from one 0-d ScaledComplex per factor.

    Same theta batches as the package, then every quotient, product and
    determinant entry is an operation on single values: normalize,
    multiply, divide, and `scaled_det_stacked` on the matrix stacked from
    its entries.
    """
    from holodiff import theta as th

    def prod(items):
        items = [it.normalized() for it in items]
        return th.ScaledComplex(np.prod([it.mantissa for it in items]),
                                sum(it.log_scale for it in items))

    m = len(xs)
    point = th._siegel(tau)
    g = point.g
    w = np.asarray(w, dtype=complex).reshape(g)
    xs = np.array([np.asarray(x, dtype=complex).reshape(g) for x in xs])
    ys = np.array([np.asarray(y, dtype=complex).reshape(g) for y in ys])
    pts = np.concatenate([xs, ys])
    for i, j in itertools.combinations(range(len(pts)), 2):
        if lattice_distance(pts[i] - pts[j], point) < th.MIN_SEPARATION:
            raise th.CoincidentPointsError(
                f"points {i} and {j} are within {th.MIN_SEPARATION} on the Jacobian")
    tw = th.theta(w, point)
    if abs(tw.mantissa) < th.THETA_FLOOR * tw.peak:
        raise th.ThetaNearZeroError("theta(w) is below the nonvanishing floor")
    iu, ju = np.triu_indices(m, 1)
    cross = (xs[:, None, :] - ys[None, :, :]).reshape(m * m, g)
    odd = th.theta(np.concatenate([cross, xs[iu] - xs[ju], ys[iu] - ys[ju]]),
                   point, delta)
    odd = [odd[r] for r in range(len(odd.mantissa))]
    shift = w + xs.sum(axis=0) - ys.sum(axis=0)
    even = th.theta(np.concatenate([shift[None, :], w + cross]), point)
    exy = odd[:m * m]
    lhs = prod([even[0]] + odd[m * m:]) / prod([tw] + exy)
    entries = [(even[1 + r] / (tw * exy[r])).reshape(1) for r in range(m * m)]
    rhs = scaled_det_stacked(th.ScaledComplex.concatenate(entries).reshape(m, m))
    if (m * (m - 1) // 2) % 2 == 1:
        rhs = -rhs
    return th.scaled_rel_diff(lhs, rhs)


def scaled_det_stacked(entries):
    """`theta._det_arrays` as ScaledComplex steps: normalize the entries,
    bring every row, then every column, to its largest entry's scale, and
    hand the mantissas to `linalg.det`."""
    from holodiff import linalg
    from holodiff import theta as th

    mod = np.where(entries.mantissa == 0, 1.0, np.abs(entries.mantissa))
    entries = th.ScaledComplex(entries.mantissa / mod, entries.log_scale + np.log(mod))
    logs = np.where(entries.mantissa == 0, -np.inf, entries.log_scale)
    row_top = np.max(logs, axis=-1, keepdims=True)
    row_top[~np.isfinite(row_top)] = 0.0
    col_top = np.max(logs - row_top, axis=-2, keepdims=True)
    col_top[~np.isfinite(col_top)] = 0.0
    scaled = entries.mantissa * np.exp(logs - row_top - col_top)
    return th.ScaledComplex(linalg.det(scaled),
                            np.sum(row_top, axis=(-2, -1)) + np.sum(col_top, axis=(-2, -1)),
                            np.full(scaled.shape[:-2], np.inf))


def fay_residual_stacked(w, xs, ys, tau, delta):
    """`theta.fay_residual` on stacked ScaledComplex values: the same
    separation test and lattice sum, then slices, reshapes, column joins,
    `normalized`, `prod`, `*`, `/` and negation of whole stacks, each
    carrying err and peak, and `scaled_det_stacked`.  The package's array
    tail performs the same mantissa and log-scale operations in the same
    order, so the two agree bit for bit, errors included."""
    from holodiff import theta as th

    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    w = np.asarray(w, dtype=complex)
    point = th._siegel(tau)
    out = th._separation(np.concatenate([xs, ys], axis=1), point)
    ok = [t for t, err in enumerate(out) if err is None]
    if not ok:
        return out
    xs, ys, w = xs[ok], ys[ok], w[ok]
    trials, m, g = xs.shape
    k = m * m
    iu, ju = np.triu_indices(m, 1)
    cross = (xs[:, :, None, :] - ys[:, None, :, :]).reshape(trials, k, g)
    shift = w + xs.sum(axis=1) - ys.sum(axis=1)
    vals = th._theta_arrays(point, *th._fold(
        point, (np.concatenate([w[:, None], shift[:, None], w[:, None] + cross], axis=1), None),
        (np.concatenate([cross, xs[:, iu] - xs[:, ju], ys[:, iu] - ys[:, ju]], axis=1), delta)))
    even = trials * (k + 2)
    even, odd = vals[:even].reshape(trials, k + 2), vals[even:].reshape(trials, -1)
    low = even.below(th.THETA_FLOOR)[:, 0]
    zero = np.any(odd.mantissa[:, :k] == 0, axis=1)
    res = [th.ThetaNearZeroError("theta(w) is below the nonvanishing floor") if lo
           else ZeroDivisionError("a prime form E(x_i, y_j) is exactly zero") if z
           else None for lo, z in zip(low, zero)]
    good = np.flatnonzero(~(low | zero))
    tw, sh, num = even[good, :1], even[good, 1:2], even[good, 2:]
    exy, pairs = odd[good, :k], odd[good, k:]

    def columns(*parts):
        return th.ScaledComplex(*(np.concatenate([getattr(p, n) for p in parts], axis=1)
                                  for n in th.ScaledComplex.__slots__))

    lhs = (columns(sh, pairs).normalized().prod(axis=1)
           / columns(tw, exy).normalized().prod(axis=1))
    rhs = scaled_det_stacked((num / (tw * exy)).reshape(-1, m, m))
    if (m * (m - 1) // 2) % 2 == 1:
        rhs = -rhs
    for t, r in zip(good, th.scaled_rel_diff(lhs, rhs).tolist()):
        res[t] = r
    for t, r in zip(ok, res):
        out[t] = r
    return out


def fay_single(w, xs, ys, tau, delta):
    """The residual of one trisecant trial, as `fay_residual` gives it for a
    batch of one; raises the error that stopped the trial."""
    from holodiff import theta as th

    [r] = th.fay_residual(np.asarray(w, dtype=complex)[None], np.asarray(xs, dtype=complex)[None],
                          np.asarray(ys, dtype=complex)[None], tau, delta)
    if isinstance(r, Exception):
        raise r
    return r


def fay_check_sequential(model, m, seed):
    """Worst residual of the CLI trisecant check on a curve, one trial at a time.

    Takes the arguments of `cli._fay_rounds` and runs each trial's attempts
    alone, in trial order: the attempt's points and w from the streams
    named by seed, trial and attempt, a theta(w) floor test, the attempt's
    own `abel_map` call and a `fay_residual` batch of one, retrying as the
    CLI does.
    """
    from holodiff import cli, curves, jacobian
    from holodiff import theta as th

    pd = jacobian.compute_periods(model)
    delta = th.ThetaCharacteristic.first_odd(pd.genus)
    worst = 0.0
    for trial in range(cli.FAY_TRIALS):
        last = None
        for attempt in range(cli.FAY_ATTEMPTS):
            try:
                s = cli._sub_seed(seed, "fay-points", trial, attempt)
                pts = curves.sample_points(model, 2 * m, s, mode="real")
                rng = np.random.default_rng(cli._seed_seq(seed, "fay-w", trial, attempt))
                w = cli._rand_complex(rng, (pd.genus,), 0.4)
                tw = th.theta(w, pd.tau)
                if abs(tw.mantissa) < th.THETA_FLOOR * tw.peak:
                    raise th.ThetaNearZeroError("theta(w) below floor")
                imgs, _ = jacobian.abel_map(pd, pts)
                worst = max(worst, fay_single(w, imgs[:m], imgs[m:], pd.tau, delta))
                break
            except (th.ThetaNearZeroError, th.CoincidentPointsError,
                    curves.SamplingError) as exc:
                last = exc
        else:
            raise last
    return worst


def symplectic_matrix(elem):
    """The blocks of a `SymplecticElement` as one 2g x 2g matrix [[A, B], [C, D]]."""
    return np.block([[elem.a, elem.b], [elem.c, elem.d]])


def symplectic_from_matrix(m):
    """The `SymplecticElement` of the 2g x 2g matrix m = [[A, B], [C, D]]."""
    from holodiff.siegel import SymplecticElement

    m = np.asarray(m)
    g = m.shape[0] // 2
    return SymplecticElement(m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])


def symplectic_product(x, y):
    """The element x y, from the product of the whole matrices."""
    return symplectic_from_matrix(symplectic_matrix(x) @ symplectic_matrix(y))


def _blocks(g):
    return np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)


def symplectic_identity(g):
    from holodiff.siegel import SymplecticElement

    eye, zero = _blocks(g)
    return SymplecticElement(eye, zero, zero, eye)


def symplectic_inversion(g):
    """The inversion [[0, -I], [I, 0]]."""
    from holodiff.siegel import SymplecticElement

    eye, zero = _blocks(g)
    return SymplecticElement(zero, -eye, eye, zero)


def symplectic_shear(s, upper):
    """The upper shear [[I, S], [0, I]] or the lower shear [[I, 0], [S, I]]
    of a symmetric integer matrix S."""
    from holodiff.siegel import SymplecticElement

    s = np.asarray(s)
    if not np.array_equal(s, s.T):
        raise ValueError("shear block must be symmetric")
    eye, zero = _blocks(len(s))
    return SymplecticElement(eye, s, zero, eye) if upper else SymplecticElement(eye, zero, s, eye)


def random_symplectic_word(g, rng):
    """Random word in shears and the inversion, one factor element at a time.

    Reads the RNG as `siegel.random_symplectic` does and multiplies whole
    matrices, each factor built as its own element.
    """
    from holodiff.siegel import SYMPLECTIC_WORD_LENGTH

    elem = symplectic_identity(g)
    for _ in range(SYMPLECTIC_WORD_LENGTH):
        kind = rng.integers(3)
        if kind == 2:
            factor = symplectic_inversion(g)
        else:
            raw = rng.integers(-2, 3, size=(g, g))
            factor = symplectic_shear(raw + raw.T, upper=kind == 0)
        elem = symplectic_product(elem, factor)
    return elem


def symplectic_form(g):
    """The standard symplectic form J = [[0, I], [-I, 0]] of size 2g, int64."""
    j = np.zeros((2 * g, 2 * g), dtype=np.int64)
    j[:g, g:] = np.eye(g, dtype=np.int64)
    j[g:, :g] = -np.eye(g, dtype=np.int64)
    return j


def is_symplectic_by_form(a, b, c, d):
    """M^T J M == J on the assembled 2g x 2g int64 matrix M = [[A, B], [C, D]],
    with wrapping int64 products: the reference for the block-by-block test
    of `SymplecticElement`."""
    m = np.block([[a, b], [c, d]]).astype(np.int64)
    j = symplectic_form(m.shape[0] // 2)
    return np.array_equal(m.T @ j @ m, j)
