"""Per-call timings of the theta, Abel-map, period, trisecant, cross-ratio,
sampling, relation and rank layers, written to BENCH_<tag>.json.

    python tools/bench_layers.py --tag TAG [--src DIR]

Imports ``holodiff`` from DIR (default: this checkout's ``src``) and
times, as the minimum over REPEATS calls after one untimed warm-up call:

- ``theta`` at one fixed argument, by genus 1..6, each at one seeded
  random tau built once as a ``SiegelPoint`` (a genus the checkout
  refuses with ``TruncationError`` has no key), and at the period matrix
  of the bundled ``hyperelliptic_g4.json`` (key ``g4_hyperelliptic``);
  and on 3 stacked seeded rows at the period matrix of the bundled
  genus-2 curve (key ``g2_bundled_3rows``), the theta(w) test of one
  genus-2 ``verify-fay`` round;
- ``fay_residual`` by number of point pairs m, on a batch of one trial on
  the bundled genus-2 curve, at seeded curve points mapped by ``abel_map``,
  and on a batch of 3 such trials at m = 6 (key ``6x3``), the batch of one
  ``verify-fay -m 6`` round;
- ``abel_map`` by number of seeded real points on that curve, as one call,
  and on 12 seeded complex points of that curve and of the bundled
  ``hyperelliptic_g4.json`` (keys ``12_complex``, ``g4_12_complex``);
- ``compute_periods`` by genus: the bundled lemniscatic curve (g = 1), the
  bundled genus-2 curve and a genus-3 curve with real branch points;
- the genus-2 ``verify-fay`` check (``cli._fay_check``, all its trials
  and retries) by m, at one seed, without the report; the timed calls
  reuse the period data that the warm-up call computed and the CLI
  memoized, so the key times the trials without ``compute_periods``;
- ``gamma_cross_ratio_check`` by genus and weight (keys ``g2_w1`` ...),
  at one seed, on the bundled genus-2 curve, on a genus-3 curve with
  real branch points and on the bundled ``hyperelliptic_g4.json``; a
  genus the checkout refuses with ``ValueError`` has no key; and at
  weight 2 on a genus-5 curve with real branch points (key ``g5_w2``),
  whose 529 theta rows per draw exceed ``theta.MAX_TERMS`` in one box, so
  it is the one timing in which the lattice sum is split into chunks;
- ``sample_points`` at one seed: on the bundled plane quintic at the
  point counts ``verify-petri`` draws (keys ``quintic_6`` ...), and on
  the bundled genus-2 curve at the 12 real points of a ``verify-fay -m 6``
  trial (key ``g2_12``);
- the six point sets of one ``verify-petri`` request on the bundled
  quintic at one seed (key ``quintic``), as one ``sample_sets`` call;
- the root stage of plane sampling, ``curves._pick_roots``, on the
  coefficient rows and root indices of the first round of those six sets
  (key ``quintic_89``, one row per drawn root: 89 at the default seed);
- ``DifferentialBasis.evaluate`` of the quintic's holomorphic basis at 16
  and at 89 seeded points (keys ``quintic_16``, ``quintic_89``; 89 is the
  point count of those six sets), and on those six sets as one request
  evaluates them: one ``evaluate_sets`` pass (key ``quintic_sets``);
- ``label_relations`` (every label's relation, key ``quintic``) on the
  bundled quintic, on the holomorphic basis's values at seeded base and
  probe points;
- the two rank certificates on the bundled quintic: ``numerical_rank``
  of the row-scaled v-matrix of one ``PetriBasis`` with seeded anchors
  and certificate points (key ``quintic_v``, 15 x 15), and
  ``certify_relation_set`` on the six relations of one seeded input
  (key ``quintic_relations``, 6 x 21);
- the four ``verify-petri`` checks on the bundled quintic (key
  ``quintic``), at one seed, without the report: each timed call builds
  the checks with ``cli._petri_checks`` and runs them with
  ``cli._run_checks``, so it draws and evaluates the request's point
  sets and runs the relation pass and the rank check;
- the pair-index Siegel layer: ``sym_square`` of a seeded real and a
  seeded complex g x g matrix at g = 3 and 8 (keys ``sym_square_g3_real``
  ...), the ``SiegelPoint`` checks on a seeded genus-8 matrix (key
  ``siegel_point_g8``) and one ``random_symplectic`` word at genus 8 from
  a fresh seeded Generator (key ``random_symplectic_g8``).

Each timed call is bracketed by two readings of the benchmark's
reference work (``perfbench/speed.py``) and scaled to the speed at which
that work takes ``speed.REFERENCE_S``, so a host that switches between
fast and slow states gives comparable numbers from run to run.  Times
are in milliseconds at that reference speed, on one thread: BLAS thread
variables are set to 1 before numpy loads.

The JSON goes to BENCH_<TAG>.json at the root of the checkout this
script sits in, with the host's Python, numpy and CPU count, so two files
from the same host compare one tree against another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import speed  # noqa: E402  (perfbench/speed.py: host-speed scaling)

THETA_GENERA = (1, 2, 3, 4, 5, 6)
# Im tau of the bundled hyperelliptic_g4.json curve as compute_periods gives
# it (its real part is zero), upper triangle by rows
HYPERELLIPTIC_G4_Y = (1.4959228059907947, 0.8059756641399558, 0.5296940621115547,
                      0.3092517720189305, 1.3886995884164448, 0.6839722468737323,
                      0.37054075091075456, 1.2453665359638166, 0.49473775863340697,
                      0.9942697166921114)
FAY_PAIRS = (2, 6, 12, 24, 48)
# the trials, and so the theta(w) rows, of one genus-2 verify-fay round
FAY_BATCH = 3
FAY_BATCH_PAIRS = 6
ABEL_POINTS = (1, 12, 36)
ABEL_COMPLEX_POINTS = 12
FAY_CHECK_PAIRS = (6, 12)
FAY_CHECK_SEED = 7
CROSS_RATIO_WEIGHTS = (1, 2)
G3_BRANCH_POINTS = (-3.1, -2.0, -0.7, 0.0, 1.3, 2.2, 3.5)
G5_BRANCH_POINTS = (-2.6, -2.05, -1.5, -0.95, -0.4, 0.15, 0.7, 1.25, 1.8, 2.35, 2.9)
PLANE_SAMPLES = (6, 16, 20)
HYPERELLIPTIC_SAMPLES = 12
EVALUATE_POINTS = (16, 89)
SYM_SQUARE_GENERA = (3, 8)
REPEATS = 15
SEED = 11


def _min_ms(call) -> float:
    """Fastest of REPEATS calls, each scaled to the benchmark's reference speed."""
    call()
    best = float("inf")
    for _ in range(REPEATS):
        before = speed.reference_seconds()
        t0 = perf_counter()
        call()
        elapsed = perf_counter() - t0
        best = min(best, speed.scaled(elapsed, before, speed.reference_seconds()))
    return 1e3 * best


def _bundled(holodiff, name):
    from holodiff import curves

    path = Path(holodiff.__file__).parent / "data" / name
    return curves.parse_curve_spec(path.read_text(encoding="utf-8"))


def bench_theta(holodiff, theta, siegel, np) -> dict:
    points = {}
    for g in THETA_GENERA:
        rng = np.random.default_rng([SEED, g])
        points[str(g)] = siegel.random_siegel_point(g, rng), rng
    y = np.zeros((4, 4))
    y[np.triu_indices(4)] = HYPERELLIPTIC_G4_Y
    points["g4_hyperelliptic"] = (siegel.SiegelPoint(1j * (y + np.triu(y, 1).T)),
                                  np.random.default_rng([SEED, 4]))
    out = {}
    for key, (point, rng) in points.items():
        z = 0.3 * (rng.standard_normal(point.g) + 1j * rng.standard_normal(point.g))
        try:
            theta.theta(z, point)
        except theta.TruncationError:
            continue
        out[key] = _min_ms(lambda: theta.theta(z, point))
    from holodiff import jacobian

    tau = jacobian.compute_periods(_bundled(holodiff, "hyperelliptic_g2.json")).tau
    rng = np.random.default_rng([SEED, 2, FAY_BATCH])
    ws = 0.4 * (rng.standard_normal((FAY_BATCH, 2)) + 1j * rng.standard_normal((FAY_BATCH, 2)))
    out[f"g2_bundled_{FAY_BATCH}rows"] = _min_ms(lambda: theta.theta(ws, tau))
    return out


def bench_fay(holodiff, np) -> dict:
    from holodiff import curves, jacobian, theta

    pd = jacobian.compute_periods(_bundled(holodiff, "hyperelliptic_g2.json"))
    delta = theta.ThetaCharacteristic.first_odd(2)
    out = {}
    for m, trials in [(m, 1) for m in FAY_PAIRS] + [(FAY_BATCH_PAIRS, FAY_BATCH)]:
        key = str(m) if trials == 1 else f"{m}x{trials}"
        rng = np.random.default_rng([SEED, m] if trials == 1 else [SEED, m, trials])
        for attempt in range(8):
            pts = curves.sample_points(pd.curve, 2 * m * trials, SEED + 1000 * m + attempt,
                                       mode="real")
            imgs = jacobian.abel_map(pd, pts)[0].reshape(trials, 2 * m, 2)
            w = 0.4 * (rng.standard_normal((trials, 2)) + 1j * rng.standard_normal((trials, 2)))
            args = (w, imgs[:, :m], imgs[:, m:], pd.tau, delta)
            if any(isinstance(r, Exception) for r in theta.fay_residual(*args)):
                continue
            out[key] = _min_ms(lambda: theta.fay_residual(*args))
            break
        else:
            raise RuntimeError(f"no usable point sets for m={m}, {trials} trials")
    return out


def bench_abel(holodiff) -> dict:
    from holodiff import curves, jacobian

    pd = jacobian.compute_periods(_bundled(holodiff, "hyperelliptic_g2.json"))
    out = {}
    for n in ABEL_POINTS:
        pts = curves.sample_points(pd.curve, n, SEED + n, mode="real")
        out[str(n)] = _min_ms(lambda: jacobian.abel_map(pd, pts))
    n = ABEL_COMPLEX_POINTS
    for prefix, name in (("", "hyperelliptic_g2.json"), ("g4_", "hyperelliptic_g4.json")):
        cpd = jacobian.compute_periods(_bundled(holodiff, name))
        pts = curves.sample_points(cpd.curve, n, SEED + n, mode="complex")
        out[f"{prefix}{n}_complex"] = _min_ms(lambda: jacobian.abel_map(cpd, pts))
    return out


def bench_periods(holodiff) -> dict:
    from holodiff import curves, jacobian

    out = {}
    for curve in (_bundled(holodiff, "lemniscatic_g1.json"),
                  _bundled(holodiff, "hyperelliptic_g2.json"),
                  curves.HyperellipticCurve(list(G3_BRANCH_POINTS))):
        out[str(curve.genus)] = _min_ms(lambda: jacobian.compute_periods(curve))
    return out


def bench_fay_check(holodiff) -> dict:
    """The genus-2 trisecant check by m.  Periods are computed once, in the
    warm-up call, and reused from the CLI's memo by the timed calls."""
    from holodiff import cli

    model = _bundled(holodiff, "hyperelliptic_g2.json")
    tol = {"fay": cli.TOLERANCES["verify-fay"]["fay"][2]}
    out = {}
    for m in FAY_CHECK_PAIRS:
        [(_, check)] = cli._fay_check(model, 2, m, FAY_CHECK_SEED, tol)
        out[str(m)] = _min_ms(check)
    return out


def bench_cross_ratio(holodiff) -> dict:
    from holodiff import curves, jacobian, theta

    cases = [(_bundled(holodiff, "hyperelliptic_g2.json"), CROSS_RATIO_WEIGHTS),
             (curves.HyperellipticCurve(list(G3_BRANCH_POINTS)), CROSS_RATIO_WEIGHTS),
             (_bundled(holodiff, "hyperelliptic_g4.json"), CROSS_RATIO_WEIGHTS),
             (curves.HyperellipticCurve(list(G5_BRANCH_POINTS)), (2,))]
    out = {}
    for curve, weights in cases:
        pd = jacobian.compute_periods(curve)
        for weight in weights:
            try:
                theta.gamma_cross_ratio_check(pd, weight, SEED)
            except ValueError:
                continue
            out[f"g{pd.genus}_w{weight}"] = _min_ms(
                lambda: theta.gamma_cross_ratio_check(pd, weight, SEED))
    return out


def bench_sample_points(holodiff) -> dict:
    from holodiff import curves

    quintic = _bundled(holodiff, "fermat_quintic.json")
    out = {f"quintic_{n}": _min_ms(lambda: curves.sample_points(quintic, n, SEED))
           for n in PLANE_SAMPLES}
    g2 = _bundled(holodiff, "hyperelliptic_g2.json")
    out[f"g2_{HYPERELLIPTIC_SAMPLES}"] = _min_ms(
        lambda: curves.sample_points(g2, HYPERELLIPTIC_SAMPLES, SEED, mode="real"))
    return out


def bench_petri_sets(holodiff) -> dict:
    from holodiff import cli, curves

    quintic = _bundled(holodiff, "fermat_quintic.json")
    requests = list(cli._petri_point_sets(quintic, SEED).values())
    return {"quintic": _min_ms(lambda: curves.sample_sets(quintic, requests))}


def bench_pick_roots(holodiff) -> dict:
    from holodiff import cli, curves

    quintic = _bundled(holodiff, "fermat_quintic.json")
    requests = list(cli._petri_point_sets(quintic, SEED).values())
    calls = []
    pick_roots = curves._pick_roots
    curves._pick_roots = lambda coeffs, pick: calls.append((coeffs, pick)) or pick_roots(coeffs, pick)
    try:
        curves.sample_sets(quintic, requests)
    finally:
        curves._pick_roots = pick_roots
    coeffs, pick = calls[0]
    return {f"quintic_{len(pick)}": _min_ms(lambda: pick_roots(coeffs, pick))}


def bench_evaluate(holodiff) -> dict:
    from holodiff import bases, cli, curves

    quintic = _bundled(holodiff, "fermat_quintic.json")
    basis = bases.holomorphic_basis(quintic)
    out = {}
    for n in EVALUATE_POINTS:
        pts = curves.sample_points(quintic, n, SEED + n)
        out[f"quintic_{n}"] = _min_ms(lambda: basis.evaluate(pts))
    sets = curves.sample_sets(quintic, list(cli._petri_point_sets(quintic, SEED).values()))
    out["quintic_sets"] = _min_ms(lambda: basis.evaluate_sets(sets))
    return out


def bench_label_relations(holodiff) -> dict:
    from holodiff import bases, curves, petri

    quintic = _bundled(holodiff, "fermat_quintic.json")
    g = quintic.genus
    pts = curves.sample_points(quintic, 3 * g - 2, SEED)
    om = bases.holomorphic_basis(quintic).evaluate(pts)
    inp = petri.RelationInput(om[:, :g], om[:, g:])
    return {"quintic": _min_ms(lambda: petri.label_relations(inp))}


def bench_rank(holodiff) -> dict:
    from holodiff import bases, curves, linalg, petri

    quintic = _bundled(holodiff, "fermat_quintic.json")
    g = quintic.genus
    omega = bases.holomorphic_basis(quintic)
    pb = bases.PetriBasis(omega, omega.evaluate(curves.sample_points(quintic, g, SEED)))
    vmat = linalg.scale_rows(pb.v_matrix(
        omega.evaluate(curves.sample_points(quintic, 3 * g - 3, SEED + 1))))
    om = omega.evaluate(curves.sample_points(quintic, 3 * g - 2, SEED))
    relations = petri.label_relations(petri.RelationInput(om[:, :g], om[:, g:]))
    return {"quintic_v": _min_ms(lambda: linalg.numerical_rank(vmat)),
            "quintic_relations": _min_ms(lambda: petri.certify_relation_set(g, relations))}


def bench_petri_check(holodiff) -> dict:
    from holodiff import cli

    quintic = _bundled(holodiff, "fermat_quintic.json")
    tol = cli.TOLERANCES["verify-petri"]
    return {"quintic": _min_ms(lambda: cli._run_checks(cli._petri_checks(quintic, SEED, tol)))}


def bench_pair_index(siegel, np) -> dict:
    from holodiff.pairindex import build_pair_index, sym_square

    out = {}
    for g in SYM_SQUARE_GENERA:
        pm = build_pair_index(g)
        rng = np.random.default_rng([SEED, g])
        real = rng.standard_normal((g, g))
        for kind, a in (("real", real), ("complex", real + 1j * rng.standard_normal((g, g)))):
            out[f"sym_square_g{g}_{kind}"] = _min_ms(lambda: sym_square(a, pm))
    z = siegel.random_siegel_point(8, np.random.default_rng([SEED, 8])).z
    out["siegel_point_g8"] = _min_ms(lambda: siegel.SiegelPoint(z))
    out["random_symplectic_g8"] = _min_ms(
        lambda: siegel.random_symplectic(8, np.random.default_rng(SEED)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import numpy as np

    import holodiff
    from holodiff import siegel, theta

    result = {
        "tag": args.tag,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "reference_s": speed.REFERENCE_S,
        "theta_ms_per_call": bench_theta(holodiff, theta, siegel, np),
        "fay_residual_ms_per_call": bench_fay(holodiff, np),
        "abel_map_ms_per_call": bench_abel(holodiff),
        "compute_periods_ms_per_call": bench_periods(holodiff),
        "fay_check_g2_ms_per_call": bench_fay_check(holodiff),
        "cross_ratio_ms_per_call": bench_cross_ratio(holodiff),
        "sample_points_ms_per_call": bench_sample_points(holodiff),
        "petri_sets_ms_per_call": bench_petri_sets(holodiff),
        "pick_roots_ms_per_call": bench_pick_roots(holodiff),
        "evaluate_ms_per_call": bench_evaluate(holodiff),
        "label_relations_ms_per_call": bench_label_relations(holodiff),
        "rank_ms_per_call": bench_rank(holodiff),
        "petri_check_ms_per_call": bench_petri_check(holodiff),
        "pair_index_ms_per_call": bench_pair_index(siegel, np),
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
