"""Command line verification suites.

Subcommands run named numerical checks against packaged or user
supplied curve files and emit a deterministic key=value report.  Exit
status: 0 when every check passes or is merely skipped with a warning,
1 when any check fails, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib
from importlib import resources

import numpy as np

from . import __version__, bases, curves, jacobian, linalg, petri, siegel, theta
from .pairindex import build_pair_index, pair_vector, sym_square
from .report import CheckRecord, Report, sha256_digest

DEFAULT_SEED = 20260818
FAY_TRIALS = 3
# Upper limit on verify-fay -m.  One residual sums its largest theta batch,
# 2m^2 - m odd translates, over one lattice box (about 160 points on the
# bundled genus-2 curve), then factors an m x m matrix.  At m = 48 that
# batch is about 0.7M terms, a sixth of the default theta budget, and the
# elimination is negligible beside it.
FAY_MAX_PAIRS = 48

_BUILTIN_CURVES = {
    "verify-petri": "fermat_quintic.json",
    "verify-fay": "hyperelliptic_g2.json",
    "periods": "hyperelliptic_g2.json",
}


def _builtin_text(name: str) -> str:
    return resources.files("holodiff").joinpath("data", name).read_text()


def _load_curve(path, default_name):
    """Returns (model, sha256 of the JSON text actually used)."""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _builtin_text(default_name)
    return curves.parse_curve_spec(text), sha256_digest(text)


def _seed_seq(seed: int, name: str) -> np.random.SeedSequence:
    """The seed sequence of the check called `name`, derived from the run seed."""
    return np.random.SeedSequence(seed, spawn_key=(zlib.crc32(name.encode()),))


def _sub_seed(seed: int, name: str) -> int:
    return int(_seed_seq(seed, name).generate_state(1, np.uint64)[0])


def _rand_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _record(name, anchor, residual, tol, note=""):
    status = "PASS" if residual <= tol else "FAIL"
    return CheckRecord(name, anchor, status, residual, tol, note=note)


def _run_checks(checks):
    """checks: list of (name, zero-arg callable returning CheckRecord), run in order."""
    records = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            rec = fn()
        except Exception as exc:
            rec = CheckRecord(
                name, "internal-error", "FAIL",
                note=f"{type(exc).__name__}: {exc}",
            )
        rec.ms = (time.perf_counter() - t0) * 1000.0
        records.append(rec)
    return records


def _emit(rep: Report, report_path) -> int:
    sys.stdout.write(rep.render(pin_ms=False))
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rep.render(pin_ms=True))
    return 0 if rep.overall() == "PASS" else 1


# ---------------------------------------------------------------- petri


def _petri_checks(model, seed, tol):
    g = model.genus
    plane = isinstance(model, curves.PlaneCurve)
    checks = []

    def fresh_input(name, offset=0):
        pts = curves.sample_points(model, 3 * g - 2, _sub_seed(seed, name) + offset)
        return petri.RelationInput(model, pts[:g], pts[g:])

    if plane:
        def check_dets():
            t = tol.get("det", 1e-8)
            inp = fresh_input("petri-determinants")
            ratios, _ = petri.verify_theorem1(inp, tol=t)
            worst = max(r for _, r in ratios)
            return _record("petri-determinants", "theorem1-dets", worst, t,
                           note=f"labels={len(ratios)}")

        def check_annihilation():
            t = tol.get("annihilation", 1e-8)
            inp = fresh_input("petri-annihilation")
            fresh = curves.sample_points(
                model, 20, _sub_seed(seed, "petri-annihilation-points"))
            omega_fresh = bases.holomorphic_basis(model).evaluate(fresh)
            a = petri.a_tensor(inp)
            dmat = petri.minor_table(inp)
            worst = 0.0
            for k, l in petri.relation_labels(g):
                rc = petri.coefficients_from_matrices(
                    petri.build_A(inp, k, l, a), dmat, 1, g, k, l)
                res = petri.annihilation_residual(rc.coefficients, omega_fresh)
                worst = max(worst, float(np.max(res)))
            return _record("petri-annihilation", "annihilation", worst, t)

        def check_relation_set():
            inp = fresh_input("petri-relations")
            rs = petri.build_relation_set(inp, provenance={"seed": seed})
            resid = float(abs(rs.rank - rs.expected_rank))
            return _record("petri-relations", "relation-rank", resid, 0.5,
                           note=f"count={len(rs.labels)} rank={rs.rank}")

        checks += [
            ("petri-determinants", check_dets),
            ("petri-annihilation", check_annihilation),
            ("petri-relations", check_relation_set),
        ]
    else:
        note = "determinantal labels need a plane model; skipped"
        checks += [
            ("petri-determinants",
             lambda: CheckRecord("petri-determinants", "theorem1-dets", "WARN", note=note)),
            ("petri-relations",
             lambda: CheckRecord("petri-relations", "relation-rank", "WARN", note=note)),
        ]

    def check_rank():
        expected = 3 * g - 3 if plane else 2 * g - 1
        base = _sub_seed(seed, "petri-rank")
        rank, last = None, None
        for attempt in range(4):
            try:
                anchors = curves.sample_points(model, g, base + attempt)
                pb = bases.petri_basis(model, anchors,
                                       certificate_seed=base + 7919 + attempt)
                rank = pb.rank_certificate
                break
            except bases.RankDeficiencyError as exc:
                rank, last = exc.rank, exc
            except bases.NonGenericAnchorsError as exc:
                last = exc
        if rank is None:
            raise last
        resid = float(abs(rank - expected))
        return _record("petri-rank", "product-rank", resid, 0.5,
                       note=f"rank={rank} expected={expected}")

    checks.append(("petri-rank", check_rank))
    return checks


# ---------------------------------------------------------------- siegel


def _functoriality_check(name, pm, seed, tol):
    """sym_square(A) pair_vector(u) = pair_vector(A u) on a draw seeded by `name`."""
    t = tol.get("functoriality", 1e-10)
    rng = np.random.default_rng(_seed_seq(seed, name))
    a = _rand_complex(rng, (pm.g, pm.g))
    u = _rand_complex(rng, (pm.g,))
    lhs = sym_square(a, pm) @ pair_vector(u, pm)
    rhs = pair_vector(a @ u, pm)
    resid = float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(rhs))), 1.0)
    return _record(name, "sym-square-functoriality", resid, t)


def _siegel_checks(genus, seed, tol, force_failure):
    pm = build_pair_index(genus)

    def check_det_power():
        t = tol.get("det-power", 1e-10)
        rng = np.random.default_rng(_seed_seq(seed, "siegel-det-power"))
        a = _rand_complex(rng, (genus, genus))
        a /= np.sqrt(genus) * float(np.max(np.abs(a)))
        d1 = linalg.det(sym_square(a, pm))
        d2 = linalg.det(a) ** (genus + 1)
        resid = abs(d1 - d2) / max(abs(d2), 1e-300)
        return _record("siegel-det-power", "det-power", resid, t)

    def check_trace():
        t = tol.get("trace", 1e-12)
        rng = np.random.default_rng(_seed_seq(seed, "siegel-trace"))
        tau = siegel.random_siegel_point(genus, rng)
        metric = siegel.siegel_metric(tau.y, pm)
        dz = _rand_complex(rng, (genus, genus))
        dz = (dz + dz.T) / 2
        dzp = dz[pm.first, pm.second]
        quad = complex(dzp @ metric @ np.conj(dzp)).real
        direct = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
        resid = abs(quad - direct) / max(abs(direct), 1e-30)
        if force_failure:
            resid += 1.0
            return _record("siegel-trace", "metric-trace", resid, t,
                           note="forced failure injected")
        return _record("siegel-trace", "metric-trace", resid, t)

    def check_invariance():
        t = tol.get("invariance", 1e-10)
        rng = np.random.default_rng(_seed_seq(seed, "siegel-invariance"))
        tau = siegel.random_siegel_point(genus, rng)
        dz = _rand_complex(rng, (genus, genus))
        dz = (dz + dz.T) / 2
        mm = siegel.random_symplectic(genus, rng)
        tau2, den_t = siegel.modular_transform(tau, mm)
        inv_den = linalg.inverse(den_t.T)
        dz2 = inv_den.T @ dz @ inv_den
        q1 = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
        q2 = complex(np.trace(tau2.y_inv @ dz2 @ tau2.y_inv @ np.conj(dz2))).real
        resid = abs(q1 - q2) / max(abs(q1), 1e-30)
        return _record("siegel-invariance", "metric-invariance", resid, t)

    def check_density():
        t = tol.get("density", 1e-10)
        rng = np.random.default_rng(_seed_seq(seed, "siegel-density"))
        tau = siegel.random_siegel_point(genus, rng)
        lhs, rhs = siegel.ambient_volume_density(tau.y, pm)
        resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        return _record("siegel-density", "volume-density", resid, t)

    return [
        ("siegel-functoriality",
         lambda: _functoriality_check("siegel-functoriality", pm, seed, tol)),
        ("siegel-det-power", check_det_power),
        ("siegel-trace", check_trace),
        ("siegel-invariance", check_invariance),
        ("siegel-density", check_density),
    ]


# ------------------------------------------------------------------ fay


def _fay_check(model, genus, m, seed, tol):
    def check():
        t = tol.get("fay", 1e-9 if genus == 1 else 1e-6)
        rng = np.random.default_rng(_seed_seq(seed, "fay-trisecant"))
        delta = theta.ThetaCharacteristic.first_odd(genus)
        worst = 0.0
        pd = None
        if genus == 2:
            pd = jacobian.compute_periods(model)
        for trial in range(FAY_TRIALS):
            last = None
            for attempt in range(8):
                try:
                    if genus == 1:
                        tau = np.array([[rng.uniform(-0.4, 0.4)
                                         + 1j * rng.uniform(0.8, 1.8)]])
                        w = _rand_complex(rng, (1,), 0.6)
                        xs = [_rand_complex(rng, (1,), 0.6) for _ in range(m)]
                        ys = [_rand_complex(rng, (1,), 0.6) for _ in range(m)]
                        r = theta.fay_residual(w, xs, ys, tau, delta)
                    else:
                        s = _sub_seed(seed, f"fay-points-{trial}") + attempt
                        pts = curves.sample_points(model, 2 * m, s, mode="real")
                        imgs = [jacobian.abel_map(pd, p).vector for p in pts]
                        w = _rand_complex(rng, (2,), 0.4)
                        r = theta.fay_residual(w, imgs[:m], imgs[m:], pd.tau, delta)
                    worst = max(worst, r)
                    break
                except (theta.ThetaNearZeroError, theta.CoincidentPointsError,
                        curves.SamplingError) as exc:
                    last = exc
            else:
                raise last
        return _record("fay-trisecant", "fay-trisecant", worst, t,
                       note=f"genus={genus} m={m} trials={FAY_TRIALS}")

    return [("fay-trisecant", check)]


# -------------------------------------------------------------- periods


def _periods_records(model, tol):
    records = []
    t0 = time.perf_counter()
    try:
        pd = jacobian.compute_periods(model)
    except (jacobian.PeriodCertificateError, jacobian.QuadratureError,
            ValueError) as exc:
        rec = CheckRecord("periods-compute", "period-matrix", "FAIL",
                          note=f"{type(exc).__name__}: {exc}")
        rec.ms = (time.perf_counter() - t0) * 1000.0
        return [rec]
    ms = (time.perf_counter() - t0) * 1000.0

    t_sym = tol.get("symmetry", 1e-6)
    rec = _record("periods-symmetry", "tau-symmetry", pd.symmetry_dev, t_sym)
    rec.ms = ms
    records.append(rec)

    lam = pd.tau.lambda_min
    rec = _record("periods-positivity", "tau-positivity",
                  0.0 if lam > 0 else 1.0, 0.5, note=f"min-eig={lam:.6e}")
    records.append(rec)

    g = pd.genus
    entries = " ".join(
        f"tau{i}{j}={pd.tau.z[i, j].real:+.6e}{pd.tau.z[i, j].imag:+.6e}j"
        for i in range(g) for j in range(i, g)
    )
    records.append(CheckRecord("periods-values", "tau-entries", "PASS",
                               note=entries))
    return records


# ------------------------------------------------------------- selftest


def _selftest_checks(seed, tol):
    def check_linalg():
        t = tol.get("solve", 1e-10)
        rng = np.random.default_rng(_seed_seq(seed, "self-linalg"))
        a = _rand_complex(rng, (8, 8))
        b = _rand_complex(rng, (8,))
        x = linalg.solve(a, b)
        resid = float(np.max(np.abs(a @ x - b)))
        scale = float(np.max(np.abs(a)) * np.max(np.abs(x)))
        return _record("self-linalg", "solve-residual", resid / max(scale, 1e-300), t)

    def check_theta():
        t = tol.get("theta", 1e-10)
        rng = np.random.default_rng(_seed_seq(seed, "self-theta"))
        tau = siegel.random_siegel_point(2, rng)
        char = theta.ThetaCharacteristic.from_bits(1, 2, 2)
        z = _rand_complex(rng, (2,), 0.5)
        mvec = np.array([1.0, -1.0])
        nvec = np.array([0.0, 2.0])
        lhs = theta.theta(z + tau.z @ mvec + nvec, tau, char)
        factor_log = (-1j * np.pi * mvec @ tau.z @ mvec
                      - 2j * np.pi * mvec @ (z + char.b) + 2j * np.pi * char.a @ nvec)
        rhs = theta.theta(z, tau, char) * theta.ScaledComplex(
            np.exp(1j * factor_log.imag), float(factor_log.real))
        resid = theta.scaled_rel_diff(lhs, rhs)
        return _record("self-theta", "theta-quasiperiodicity", resid, t)

    def check_petri():
        t = tol.get("det", 1e-8)
        model = curves.parse_curve_spec(_builtin_text("fermat_quintic.json"))
        g = model.genus
        pts = curves.sample_points(model, 3 * g - 2, _sub_seed(seed, "self-petri"))
        inp = petri.RelationInput(model, pts[:g], pts[g:])
        ratios, _ = petri.verify_theorem1(inp, tol=t)
        return _record("self-petri", "theorem1-dets", max(r for _, r in ratios), t)

    def check_fay():
        t = tol.get("fay", 1e-9)
        rng = np.random.default_rng(_seed_seq(seed, "self-fay"))
        delta = theta.ThetaCharacteristic.first_odd(1)
        for attempt in range(8):
            tau = np.array([[rng.uniform(-0.3, 0.3) + 1j * rng.uniform(0.9, 1.6)]])
            try:
                r = theta.fay_residual(
                    _rand_complex(rng, (1,), 0.5),
                    [_rand_complex(rng, (1,), 0.5) for _ in range(2)],
                    [_rand_complex(rng, (1,), 0.5) for _ in range(2)],
                    tau, delta)
                return _record("self-fay", "fay-trisecant", r, t)
            except (theta.ThetaNearZeroError, theta.CoincidentPointsError):
                continue
        raise theta.ThetaNearZeroError("no usable self-test draw")

    def check_periods():
        t = tol.get("lemniscatic", 1e-8)
        model = curves.parse_curve_spec(_builtin_text("lemniscatic_g1.json"))
        pd = jacobian.compute_periods(model)
        resid = abs(complex(pd.tau.z[0, 0]) - 1j)
        return _record("self-periods", "lemniscatic-tau", resid, t)

    return [
        ("self-pairindex",
         lambda: _functoriality_check("self-pairindex", build_pair_index(3), seed, tol)),
        ("self-linalg", check_linalg),
        ("self-theta", check_theta),
        ("self-petri", check_petri),
        ("self-fay", check_fay),
        ("self-periods", check_periods),
    ]


# ----------------------------------------------------------------- main


def _add_common(sub, with_spec):
    if with_spec:
        sub.add_argument("--spec", default=None,
                         help="path to a curve description JSON file")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                     help="override a named tolerance; repeatable")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; checks always run in order")
    sub.add_argument("--report", default=None,
                     help="also write a timing-pinned report file")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="holodiff",
        description="numerical checks for differentials, relations, and theta identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-petri", help="determinant and relation checks")
    _add_common(p, with_spec=True)

    p = subs.add_parser("verify-siegel", help="pair-index metric identities")
    p.add_argument("--genus", type=int, default=3)
    p.add_argument("--force-failure", action="store_true",
                   help="inject a failing check to exercise the failure path")
    _add_common(p, with_spec=False)

    p = subs.add_parser("verify-fay", help="trisecant identity checks")
    p.add_argument("--genus", type=int, choices=(1, 2), default=1)
    p.add_argument("-m", "--pairs", type=int, default=2, dest="m",
                   help=f"number of point pairs (2 to {FAY_MAX_PAIRS})")
    _add_common(p, with_spec=True)

    p = subs.add_parser("periods", help="period matrix with certificates")
    _add_common(p, with_spec=True)

    p = subs.add_parser("selftest", help="fixed deterministic check suite")
    _add_common(p, with_spec=False)
    return parser


def _parse_tols(pairs, parser):
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            parser.error(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            val = float(value)
        except ValueError:
            parser.error(f"--tol value for {name!r} is not a number: {value!r}")
        if val <= 0:
            parser.error(f"--tol value for {name!r} must be positive")
        out[name] = val
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args, parser, _parse_tols(args.tol, parser))
    except SystemExit as exc:
        return int(exc.code or 0)
    except curves.CurveSpecError as exc:
        print(f"error: invalid curve file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser, tol) -> int:
    digest = "-"
    model = None
    if args.command in _BUILTIN_CURVES:
        model, digest = _load_curve(args.spec, _BUILTIN_CURVES[args.command])

    if args.command == "verify-petri":
        checks = _petri_checks(model, args.seed, tol)
        records = _run_checks(checks)
    elif args.command == "verify-siegel":
        if args.genus < 1 or args.genus > 8:
            parser.error("--genus must be between 1 and 8")
        checks = _siegel_checks(args.genus, args.seed, tol, args.force_failure)
        records = _run_checks(checks)
    elif args.command == "verify-fay":
        if args.m < 2:
            parser.error("the trisecant check needs at least 2 point pairs")
        if args.m > FAY_MAX_PAIRS:
            parser.error(f"the trisecant check takes at most {FAY_MAX_PAIRS} point pairs")
        if args.genus == 2 and not (
            isinstance(model, curves.HyperellipticCurve) and model.genus == 2
        ):
            parser.error("genus 2 mode needs a genus-2 hyperelliptic curve file")
        checks = _fay_check(model, args.genus, args.m, args.seed, tol)
        records = _run_checks(checks)
    elif args.command == "periods":
        records = _periods_records(model, tol)
    elif args.command == "selftest":
        checks = _selftest_checks(args.seed, tol)
        records = _run_checks(checks)
    else:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")

    rep = Report(args.command, __version__, args.seed, digest, tol)
    for rec in records:
        rep.add(rec)
    return _emit(rep, args.report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
