"""The four benchmark workloads: their inputs and how one request runs.

A request is one CLI subcommand run in-process through
``holodiff.cli.main(argv)`` with stdout captured, or, for ``theta-g4``,
one library-level identity bundle whose verdicts are rendered with
``holodiff.report``.  Every input a request needs (its seed, and for
``theta-g4`` the τ matrices, characteristics, z and lattice shifts) is
drawn from the workload seed during set-up, before anything is timed.

Importing this module imports ``holodiff``; the caller puts the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import zlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

import holodiff
from holodiff import cli, curves, report, siegel, theta

THETA_TOL = 1e-10  # the selftest `theta` tolerance
# τ matrices per theta-g4 request.  The cost of one τ jumps with the
# lattice box, so a single-τ median flips between box sizes from one
# seed to the next; a few τ per request keep it steady.
THETA_TAUS = 4
THETA_IDENTITIES = ("theta-parity", "theta-quasiperiodicity")
THETA_CHECKS = tuple(f"{name}.tau{k}" for name in THETA_IDENTITIES
                     for k in range(THETA_TAUS))


@dataclass(frozen=True)
class Request:
    command: str
    seed: int
    payload: object  # argv list for CLI requests, (τ, char, z, m, n) tuples for theta-g4


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple  # the exact check names every report must carry
    curve: str | None  # bundled curve file parsed during set-up
    tail_pct: float  # leaves at least ten of the distinct requests beyond it
    # Distinct requests in a run.  The timed loop repeats them in rounds;
    # their verdicts make up pass_share, so the share repeats exactly
    # for a seed.
    requests: int

    def make_requests(self, seed: int, count: int | None = None) -> list:
        ss = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(self.name.encode()),))
        rng = np.random.default_rng(ss)
        seeds = rng.choice(10**6, size=count or self.requests, replace=False) + 1
        return [self._request(int(s)) for s in seeds]

    def _request(self, s: int) -> Request:
        if self.name == "theta-g4":
            rng = np.random.default_rng(s)
            bundle = []
            for _ in range(THETA_TAUS):
                tau = siegel.random_siegel_point(4, rng).z
                ia, ib = (int(v) for v in rng.integers(16, size=2))
                char = theta.ThetaCharacteristic.from_bits(ia, ib, 4)
                z = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                m = rng.integers(-1, 2, size=4).astype(float)
                n = rng.integers(-2, 3, size=4).astype(float)
                bundle.append((tau, char, z, m, n))
            return Request(self.name, s, tuple(bundle))
        argv = list(CLI_ARGS[self.name]) + ["--seed", str(s)]
        return Request(argv[0], s, argv)

    def run(self, req: Request):
        """One request: returns (exit code or None, report text)."""
        if self.name == "theta-g4":
            return None, _theta_bundle(req)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req.payload)
        return code, out.getvalue()


CLI_ARGS = {
    "fay-g2": ("verify-fay", "--genus", "2", "-m", "6"),
    "petri-quintic": ("verify-petri",),
    "siegel-g8": ("verify-siegel", "--genus", "8"),
}

WORKLOADS = {w.name: w for w in (
    Workload("theta-g4", THETA_CHECKS, None, 75.0, 40),
    Workload("fay-g2", ("fay-trisecant",), "hyperelliptic_g2.json", 85.0, 80),
    Workload("petri-quintic",
             ("petri-annihilation", "petri-determinants", "petri-rank", "petri-relations"),
             "fermat_quintic.json", 75.0, 40),
    Workload("siegel-g8",
             ("siegel-density", "siegel-det-power", "siegel-functoriality",
              "siegel-invariance", "siegel-trace"),
             None, 96.0, 300),
)}


def set_up(name: str, seed: int, count: int | None = None) -> list:
    """Everything a user pays before the first request: parse the
    workload's bundled curve and generate its requests."""
    wl = WORKLOADS[name]
    if wl.curve:
        curves.parse_curve_spec(
            resources.files("holodiff").joinpath("data", wl.curve).read_text())
    return wl.make_requests(seed, count)


def _theta_residuals(tau, char, z, m, n):
    """Quasi-periodicity and parity residuals from three theta calls."""
    base = theta.theta(z, tau, char)
    shifted = theta.theta(z + tau @ m + n, tau, char)
    log_factor = (-1j * np.pi * (m @ tau @ m) - 2j * np.pi * (m @ (z + char.b))
                  + 2j * np.pi * (char.a @ n))
    factor = theta.ScaledComplex(np.exp(1j * log_factor.imag), float(log_factor.real))
    quasi = theta.scaled_rel_diff(shifted, base * factor)
    mirrored = theta.theta(-z, tau, char)
    parity = theta.scaled_rel_diff(mirrored, base * (-1.0 if char.is_odd else 1.0))
    return {"theta-parity": parity, "theta-quasiperiodicity": quasi}


def _theta_bundle(req: Request) -> str:
    rep = report.Report(req.command, holodiff.__version__, req.seed)
    for k, inputs in enumerate(req.payload):
        try:
            residuals = _theta_residuals(*inputs)
        except Exception as exc:  # reported as internal-error, as the CLI does
            for name in THETA_IDENTITIES:
                rep.add(report.CheckRecord(f"{name}.tau{k}", "internal-error", "FAIL",
                                           note=f"{type(exc).__name__}: {exc}"))
        else:
            for name, resid in residuals.items():
                status = "PASS" if resid <= THETA_TOL else "FAIL"
                rep.add(report.CheckRecord(f"{name}.tau{k}", name, status, resid, THETA_TOL))
    return rep.render()
