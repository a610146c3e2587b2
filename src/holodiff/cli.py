"""Command line verification suites.

Subcommands run named numerical checks against packaged or user
supplied curve files and emit a deterministic key=value report.  Exit
status: 0 when every check passes or is merely skipped with a warning,
1 when any check fails, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
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
FAY_ATTEMPTS = 8  # draws per trial before the check gives up
# Upper limit on verify-fay -m.  At genus 2 one round of trials sums the
# 3m^2 - m + 2 theta rows of every trial, even and odd translates
# together, over one lattice box (at most 7 x 9 = 63 points on the bundled
# genus-2 curve), then factors one m x m matrix per trial.  At m = 48 that
# is 3 x 6866 rows, at most about 1.30M terms, 0.31 of theta.MAX_TERMS;
# where a round would exceed it, the theta engine sums its rows in
# consecutive chunks that fit.  The elimination is negligible beside the sum.
FAY_MAX_PAIRS = 48
# Upper limit on the relation entries of a verify-petri request on a plane
# model of genus g: the relation pass forms L (2g-2) g^2 complex entries per
# relation set, L = (g-2)(g-3)/2 labels, 16 bytes each, plus a temporary of
# the same size, for two sets.  On Fermat curves x^d + y^d + 1 at the
# default seed: d = 8 (g = 21, 3.0M entries) passes all four checks in
# 0.4 s at 271 MB peak RSS; d = 9 (g = 28, 13.8M entries) takes 536 MB and
# fails three checks on valid input; d = 10 (50.9M entries) would need
# about 3.3 GB if its base matrices were accepted.
PETRI_MAX_RELATION_ENTRIES = 4_000_000

# The --tol names each subcommand reads, each with its default; verify-fay's
# "fay" default is given per --genus.  A name that two subcommands share is
# the same bound on the same residual, so selftest takes its value from the
# subcommand that owns the check.
_PETRI_TOLS = {"det": 1e-8, "annihilation": 1e-8}
_SIEGEL_TOLS = {"functoriality": 1e-10, "det-power": 1e-10, "trace": 1e-12,
                "invariance": 1e-10, "density": 1e-10}
_FAY_TOLS = {"fay": {1: 1e-9, 2: 1e-6}}
TOLERANCES = {
    "verify-petri": _PETRI_TOLS,
    "verify-siegel": _SIEGEL_TOLS,
    "verify-fay": _FAY_TOLS,
    "periods": {"symmetry": jacobian.SYMMETRY_TOL},
    "selftest": {"functoriality": _SIEGEL_TOLS["functoriality"], "solve": 1e-10,
                 "theta": 1e-10, "det": _PETRI_TOLS["det"], "fay": _FAY_TOLS["fay"][1],
                 "lemniscatic": 1e-8},
}

_BUILTIN_CURVES = {
    "verify-petri": "fermat_quintic.json",
    "verify-fay": "hyperelliptic_g2.json",
    "periods": "hyperelliptic_g2.json",
}


# Repeated runs in one process (a sweep, the benchmark) reuse each curve's
# parsed model, keyed by its spec file's bytes, and its certified period
# data, keyed by the model.  Each cache keeps its _MEMO_CURVES most
# recently used entries; a call that raises stores nothing, so it raises
# again on the next run.
_MEMO_CURVES = 8


@functools.lru_cache(maxsize=_MEMO_CURVES)
def _parse(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise curves.CurveSpecError(f"not UTF-8 text: {exc.reason}") from exc
    return curves.parse_curve_spec(text)


def _load_curve(path, default_name):
    """Returns (model, sha256 of the spec file's bytes).  The file is read
    on every call; bytes parsed before give the model parsed then."""
    if path:
        with open(path, "rb") as fh:
            data = fh.read()
    else:
        data = resources.files("holodiff").joinpath("data", default_name).read_bytes()
    return _parse(data), sha256_digest(data)


@functools.lru_cache(maxsize=_MEMO_CURVES)
def _curve_periods(model):
    """Certified period data of `model`: jacobian.compute_periods on its
    first use, the same object on later ones."""
    return jacobian.compute_periods(model)


def _seed_seq(seed: int, name: str, *index: int) -> np.random.SeedSequence:
    """The seed sequence of the check called `name`, derived from the run
    seed; an index, such as a trial and an attempt, extends the spawn key."""
    return np.random.SeedSequence(seed, spawn_key=(zlib.crc32(name.encode()), *index))


def _sub_seed(seed: int, name: str, *index: int) -> int:
    return int(_seed_seq(seed, name, *index).generate_state(1, np.uint64)[0])


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

# the point sets of the three determinantal checks, each named by its check
_RELATION_SETS = ("petri-determinants", "petri-annihilation", "petri-relations")


def _petri_rank_sets(g, seed, attempt):
    """(count, seed) of the anchor and certificate sets of a petri-rank attempt."""
    return {"petri-rank": (g, _sub_seed(seed, "petri-rank", attempt)),
            "petri-rank-certificate": (3 * g - 3,
                                       _sub_seed(seed, "petri-rank-certificate", attempt))}


def _petri_skipped(model):
    """The note of each verify-petri check that has nothing to check on
    `model`, by check name."""
    if not model.canonical:
        note = "determinantal labels need a plane model; skipped"
        return {"petri-determinants": note, "petri-relations": note}
    if not petri.relation_labels(model.genus):
        note = f"genus {model.genus} has no determinantal labels; skipped"
        return dict.fromkeys(_RELATION_SETS, note)
    return {}


def _petri_point_sets(model, seed):
    """(count, seed) of every point set a verify-petri request draws unless
    its rank check retries, by name."""
    g = model.genus
    sets = {}
    if model.canonical:
        skipped = _petri_skipped(model)
        for name in _RELATION_SETS:
            if name not in skipped:
                sets[name] = (3 * g - 2, _sub_seed(seed, name))
        if "petri-annihilation" not in skipped:
            sets["petri-annihilation-points"] = (20, _sub_seed(seed, "petri-annihilation-points"))
    return sets | _petri_rank_sets(g, seed, 0)


def _petri_checks(model, seed, tol):
    g = model.genus
    checks = []
    omega = bases.holomorphic_basis(model)

    def evaluated(sets):
        """omega's values on every set of `sets`, by name: the points from
        one sampler pass, the values of the sets that drew from one
        `evaluate_sets` pass, each slot the values or its set's error."""
        pts = dict(zip(sets, curves.sample_sets(model, list(sets.values()))))
        ok = [name for name in sets if not isinstance(pts[name], curves.SamplingError)]
        return pts | dict(zip(ok, omega.evaluate_sets([pts[name] for name in ok])))

    request = functools.cache(lambda: evaluated(_petri_point_sets(model, seed)))

    def values(slots, name):
        """The slot of set `name`; raises the error it holds."""
        if isinstance(slots[name], Exception):
            raise slots[name]
        return slots[name]

    def drawn(slots, names):
        """The names of `names` whose slots hold no error."""
        return [name for name in names
                if name in slots and not isinstance(slots[name], Exception)]

    @functools.cache
    def inputs():
        """The request's slots, with each drawn relation set's values
        replaced by its RelationInput or refusal from one stacked test."""
        slots = request()
        ok = drawn(slots, _RELATION_SETS)
        return slots | dict(zip(ok, petri.relation_inputs(
            [(slots[name][:, :g], slots[name][:, g:]) for name in ok])))

    @functools.cache
    def relations():
        """The slots of `inputs`, with each accepted input replaced by its
        check's result or refusal from one stacked relation pass."""
        slots = inputs()
        dets = drawn(slots, ["petri-determinants"])
        rels = drawn(slots, ["petri-annihilation", "petri-relations"])
        ratios, coeffs = petri.relation_pass([slots[name] for name in dets],
                                             [slots[name] for name in rels])
        return slots | dict(zip(dets, ratios)) | dict(zip(rels, coeffs))

    def check_dets():
        ratios = values(relations(), "petri-determinants")
        worst = max(r for _, r in ratios)
        return _record("petri-determinants", "theorem1-dets", worst, tol["det"],
                       note=f"labels={len(ratios)}")

    def check_annihilation():
        values(inputs(), "petri-annihilation")  # its errors come before the fresh points'
        omega_fresh = values(request(), "petri-annihilation-points")
        coeffs = [rc.coefficients for rc in values(relations(), "petri-annihilation").values()]
        res = petri.annihilation_residual(np.reshape(coeffs, (-1, g, g)), omega_fresh)
        return _record("petri-annihilation", "annihilation",
                       float(np.max(res)), tol["annihilation"])

    def check_relation_set():
        rs = petri.certify_relation_set(g, values(relations(), "petri-relations"))
        resid = float(abs(rs.rank - rs.expected_rank))
        return _record("petri-relations", "relation-rank", resid, 0.5,
                       note=f"count={len(rs.labels)} rank={rs.rank}")

    # a skipped check reports WARN; a non-plane model has no annihilation check
    skipped = _petri_skipped(model)
    for name, anchor, check in (("petri-determinants", "theorem1-dets", check_dets),
                                ("petri-annihilation", "annihilation", check_annihilation),
                                ("petri-relations", "relation-rank", check_relation_set)):
        if name in skipped:
            checks.append((name, functools.partial(CheckRecord, name, anchor, "WARN",
                                                   note=skipped[name])))
        elif model.canonical:
            checks.append((name, check))

    def check_rank():
        expected = 3 * g - 3 if model.canonical else 2 * g - 1
        rank, last = None, None
        for attempt in range(4):
            slots = request() if attempt == 0 else evaluated(_petri_rank_sets(g, seed, attempt))
            try:
                pb = bases.PetriBasis(omega, values(slots, "petri-rank"))
                rank = pb.certify(values(slots, "petri-rank-certificate"))
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
    rng = np.random.default_rng(_seed_seq(seed, name))
    a = _rand_complex(rng, (pm.g, pm.g))
    u = _rand_complex(rng, (pm.g,))
    lhs = sym_square(a, pm) @ pair_vector(u, pm)
    rhs = pair_vector(a @ u, pm)
    resid = float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(rhs))), 1.0)
    return _record(name, "sym-square-functoriality", resid, tol["functoriality"])


def _siegel_checks(genus, seed, tol):
    pm = build_pair_index(genus)

    def check_det_power():
        rng = np.random.default_rng(_seed_seq(seed, "siegel-det-power"))
        a = _rand_complex(rng, (genus, genus))
        a /= np.sqrt(genus) * float(np.max(np.abs(a)))
        d1 = linalg.det(sym_square(a, pm))
        d2 = linalg.det(a) ** (genus + 1)
        resid = abs(d1 - d2) / max(abs(d2), 1e-300)
        return _record("siegel-det-power", "det-power", resid, tol["det-power"])

    def check_trace():
        rng = np.random.default_rng(_seed_seq(seed, "siegel-trace"))
        tau = siegel.random_siegel_point(genus, rng)
        metric = siegel.siegel_metric(tau, pm)
        dz = _rand_complex(rng, (genus, genus))
        dz = (dz + dz.T) / 2
        dzp = dz[pm.first, pm.second]
        quad = complex(dzp @ metric @ np.conj(dzp)).real
        direct = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
        resid = abs(quad - direct) / max(abs(direct), 1e-30)
        return _record("siegel-trace", "metric-trace", resid, tol["trace"])

    def check_invariance():
        rng = np.random.default_rng(_seed_seq(seed, "siegel-invariance"))
        tau = siegel.random_siegel_point(genus, rng)
        dz = _rand_complex(rng, (genus, genus))
        dz = (dz + dz.T) / 2
        mm = siegel.random_symplectic(genus, rng)
        tau2, _, inv_den = siegel.modular_transform(tau, mm)
        dz2 = inv_den.T @ dz @ inv_den
        q1 = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
        q2 = complex(np.trace(tau2.y_inv @ dz2 @ tau2.y_inv @ np.conj(dz2))).real
        resid = abs(q1 - q2) / max(abs(q1), 1e-30)
        return _record("siegel-invariance", "metric-invariance", resid, tol["invariance"])

    def check_density():
        rng = np.random.default_rng(_seed_seq(seed, "siegel-density"))
        tau = siegel.random_siegel_point(genus, rng)
        lhs, rhs = siegel.ambient_volume_density(tau, pm)
        resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        return _record("siegel-density", "volume-density", resid, tol["density"])

    return [
        ("siegel-functoriality",
         lambda: _functoriality_check("siegel-functoriality", pm, seed, tol)),
        ("siegel-det-power", check_det_power),
        ("siegel-trace", check_trace),
        ("siegel-invariance", check_invariance),
        ("siegel-density", check_density),
    ]


# ------------------------------------------------------------------ fay


_FAY_RETRY = (theta.ThetaNearZeroError, theta.CoincidentPointsError, curves.SamplingError)


def _fay_check(model, genus, m, seed, tol):
    def check():
        if genus == 2:
            worst = _fay_rounds(model, m, seed)
        else:
            rng = np.random.default_rng(_seed_seq(seed, "fay-trisecant"))
            worst = _fay_genus_one(rng, m, FAY_TRIALS, 0.4, (0.8, 1.8), 0.6)
        return _record("fay-trisecant", "fay-trisecant", worst, tol["fay"],
                       note=f"genus={genus} m={m} trials={FAY_TRIALS}")

    return [("fay-trisecant", check)]


def _fay_genus_one(rng, m, trials, re_tau, im_tau, scale):
    """Worst trisecant residual of `trials` genus-1 trials.  Each attempt
    draws tau, with real part in (-re_tau, re_tau) and imaginary part in
    im_tau, then w, the m x's and the m y's, each `scale` times a complex
    normal; after FAY_ATTEMPTS failed draws the last error is raised."""
    delta = theta.ThetaCharacteristic.first_odd(1)
    worst = 0.0
    for _ in range(trials):
        for _ in range(FAY_ATTEMPTS):
            tau = np.array([[rng.uniform(-re_tau, re_tau) + 1j * rng.uniform(*im_tau)]])
            w = _rand_complex(rng, (1,), scale)
            xs = [_rand_complex(rng, (1,), scale) for _ in range(m)]
            ys = [_rand_complex(rng, (1,), scale) for _ in range(m)]
            [r] = theta.fay_residual(w[None], np.array([xs]), np.array([ys]), tau, delta)
            if not isinstance(r, Exception):
                worst = max(worst, r)
                break
            if not isinstance(r, _FAY_RETRY):
                raise r
            last = r
        else:
            raise last
    return worst


def _fay_rounds(model, m, seed):
    """Worst trisecant residual of the trials on the curve `model`, at the
    first odd characteristic of its genus.  Attempt a of trial t draws its
    points and its w from streams named by seed, t and a; each round runs
    every pending trial as one batch, and a failed trial retries at its
    next attempt."""
    pd = _curve_periods(model)
    g = pd.genus
    delta = theta.ThetaCharacteristic.first_odd(g)
    pending = dict.fromkeys(range(FAY_TRIALS), 0)  # trial -> attempt
    worst = 0.0
    while pending:
        keys = list(pending.items())
        out = curves.sample_sets(model, [(2 * m, _sub_seed(seed, "fay-points", t, a))
                                         for t, a in keys], mode="real")
        ws = np.array([_rand_complex(np.random.default_rng(_seed_seq(seed, "fay-w", t, a)),
                                     (g,), 0.4) for t, a in keys])
        for k in np.flatnonzero(theta.theta(ws, pd.tau).below(theta.THETA_FLOOR)):
            if not isinstance(out[k], curves.SamplingError):
                out[k] = theta.ThetaNearZeroError("theta(w) below floor")
        ok = [k for k, pts in enumerate(out) if not isinstance(pts, Exception)]
        if ok:
            imgs = jacobian.abel_map(pd, [p for k in ok for p in out[k]])[0]
            imgs = imgs.reshape(len(ok), 2, m, g)
            res = theta.fay_residual(ws[ok], imgs[:, 0], imgs[:, 1], pd.tau, delta)
            for k, r in zip(ok, res):
                out[k] = r
        for (t, a), r in zip(keys, out):
            if not isinstance(r, Exception):
                worst = max(worst, r)
                del pending[t]
            elif not isinstance(r, _FAY_RETRY) or a + 1 == FAY_ATTEMPTS:
                raise r
            else:
                pending[t] = a + 1
    return worst


# -------------------------------------------------------------- periods


def _periods_records(model, tol):
    records = []
    t0 = time.perf_counter()
    try:
        pd = _curve_periods(model)
    except (jacobian.PeriodCertificateError, jacobian.QuadratureError,
            ValueError) as exc:
        rec = CheckRecord("periods-compute", "period-matrix", "FAIL",
                          note=f"{type(exc).__name__}: {exc}")
        rec.ms = (time.perf_counter() - t0) * 1000.0
        return [rec]
    ms = (time.perf_counter() - t0) * 1000.0

    rec = _record("periods-symmetry", "tau-symmetry", pd.symmetry_dev, tol["symmetry"])
    rec.ms = ms
    records.append(rec)

    # the SiegelPoint certificate lambda_min > g eps lambda_max, as a ratio
    tau = pd.tau
    rec = _record("periods-positivity", "tau-positivity",
                  tau.g * np.finfo(float).eps * tau.lambda_max / tau.lambda_min, 1.0,
                  note=f"min-eig={tau.lambda_min:.6e}")
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
        rng = np.random.default_rng(_seed_seq(seed, "self-linalg"))
        a = _rand_complex(rng, (8, 8))
        b = _rand_complex(rng, (8,))
        x = linalg.solve(a, b)
        resid = float(np.max(np.abs(a @ x - b)))
        scale = float(np.max(np.abs(a)) * np.max(np.abs(x)))
        return _record("self-linalg", "solve-residual", resid / max(scale, 1e-300), tol["solve"])

    def check_theta():
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
        return _record("self-theta", "theta-quasiperiodicity", resid, tol["theta"])

    def check_petri():
        model = _load_curve(None, "fermat_quintic.json")[0]
        g = model.genus
        pts = curves.sample_points(model, 3 * g - 2, _sub_seed(seed, "self-petri"))
        om = bases.holomorphic_basis(model).evaluate(pts)
        inp = petri.RelationInput(om[:, :g], om[:, g:])
        ratios = petri.verify_theorem1(inp)
        return _record("self-petri", "theorem1-dets", max(r for _, r in ratios), tol["det"])

    def check_fay():
        rng = np.random.default_rng(_seed_seq(seed, "self-fay"))
        r = _fay_genus_one(rng, 2, 1, 0.3, (0.9, 1.6), 0.5)
        return _record("self-fay", "fay-trisecant", r, tol["fay"])

    def check_periods():
        pd = _curve_periods(_load_curve(None, "lemniscatic_g1.json")[0])
        resid = abs(complex(pd.tau.z[0, 0]) - 1j)
        return _record("self-periods", "lemniscatic-tau", resid, tol["lemniscatic"])

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


def _tol_help(command):
    """--tol help naming each tolerance of `command` with its default."""
    def default(value):
        if isinstance(value, dict):
            return ", ".join(f"{v:g} at --genus {g}" for g, v in value.items())
        return f"{value:g}"

    return "override a named tolerance; repeatable (defaults: " + "; ".join(
        f"{name}={default(value)}" for name, value in TOLERANCES[command].items()) + ")"


def _add_common(sub, command):
    if command in _BUILTIN_CURVES:
        sub.add_argument("--spec", default=None,
                         help="path to a curve description JSON file")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                     help=_tol_help(command))
    sub.add_argument("--report", default=None,
                     help="also write a timing-pinned report file")


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged, and
    # the --tol list default is copied, never appended to in place
    parser = argparse.ArgumentParser(
        prog="holodiff",
        description="numerical checks for differentials, relations, and theta identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-petri", help="determinant and relation checks")
    _add_common(p, "verify-petri")

    p = subs.add_parser("verify-siegel", help="pair-index metric identities")
    p.add_argument("--genus", type=int, default=3)
    _add_common(p, "verify-siegel")

    p = subs.add_parser("verify-fay", help="trisecant identity checks")
    p.add_argument("--genus", type=int, choices=(1, 2), default=1)
    p.add_argument("-m", "--pairs", type=int, default=2, dest="m",
                   help=f"number of point pairs (2 to {FAY_MAX_PAIRS})")
    _add_common(p, "verify-fay")

    p = subs.add_parser("periods", help="period matrix with certificates")
    _add_common(p, "periods")

    p = subs.add_parser("selftest", help="fixed deterministic check suite")
    _add_common(p, "selftest")
    return parser


def _parse_tols(pairs, command, parser):
    known = TOLERANCES[command]
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            parser.error(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            val = float(value)
        except ValueError:
            parser.error(f"--tol value for {name!r} is not a number: {value!r}")
        if not 0 < val < float("inf"):
            parser.error(f"--tol value for {name!r} must be a positive finite number")
        if name not in known:
            parser.error(f"{command} reads no tolerance {name!r}; "
                         f"accepted names: {', '.join(known)}")
        out[name] = val
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args, parser, _parse_tols(args.tol, args.command, parser))
    except SystemExit as exc:
        return int(exc.code or 0)
    except curves.CurveSpecError as exc:
        print(f"error: invalid curve file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser, overrides) -> int:
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    defaults = TOLERANCES[args.command]
    if args.command == "verify-fay":
        defaults = {"fay": defaults["fay"][args.genus]}
    tol = defaults | overrides
    digest = "-"
    model = None
    # the genus-1 trisecant trials draw their own tau and read no curve
    if args.command in _BUILTIN_CURVES and getattr(args, "genus", None) != 1:
        model, digest = _load_curve(args.spec, _BUILTIN_CURVES[args.command])

    if args.command == "verify-petri":
        if model.genus < 2:
            parser.error("verify-petri needs a curve of genus >= 2")
        g = model.genus
        entries = (g - 2) * (g - 3) // 2 * (2 * g - 2) * g * g
        if model.canonical and entries > PETRI_MAX_RELATION_ENTRIES:
            parser.error(f"verify-petri at genus {g} exceeds the relation budget of "
                         f"{PETRI_MAX_RELATION_ENTRIES} entries per point set")
        checks = _petri_checks(model, args.seed, tol)
        records = _run_checks(checks)
    elif args.command == "verify-siegel":
        if args.genus < 1 or args.genus > 8:
            parser.error("--genus must be between 1 and 8")
        checks = _siegel_checks(args.genus, args.seed, tol)
        records = _run_checks(checks)
    elif args.command == "verify-fay":
        if args.m < 2:
            parser.error("the trisecant check needs at least 2 point pairs")
        if args.m > FAY_MAX_PAIRS:
            parser.error(f"the trisecant check takes at most {FAY_MAX_PAIRS} point pairs")
        if args.genus == 1 and args.spec:
            parser.error("genus 1 mode draws its own tau and reads no curve file")
        if args.genus == 2 and (model.canonical or model.genus != 2):
            parser.error("genus 2 mode needs a genus-2 hyperelliptic curve file")
        checks = _fay_check(model, args.genus, args.m, args.seed, tol)
        records = _run_checks(checks)
    elif args.command == "periods":
        if model.canonical:
            parser.error("periods needs a hyperelliptic curve file")
        records = _periods_records(model, tol)
    elif args.command == "selftest":
        checks = _selftest_checks(args.seed, tol)
        records = _run_checks(checks)
    else:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")

    rep = Report(args.command, __version__, args.seed, digest, overrides)
    for rec in records:
        rep.add(rec)
    return _emit(rep, args.report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
