"""Acceptance gate: one verdict line per required capability.

Each test prints a single [PASS]/[FAIL] line to the terminal (bypassing
capture) and then asserts, so a full run shows ten verdicts regardless
of verbosity settings.
"""

import time

import numpy as np
import pytest

from holodiff import jacobian as jac
from holodiff import linalg, petri, siegel
from holodiff import theta as th
from holodiff.bases import expansion_coefficients, holomorphic_basis
from holodiff.cli import main as cli_main
from holodiff.curves import CurvePoint, sample_points
from holodiff.pairindex import build_pair_index, pair_vector, sym_square

from oracles import (
    fay_single,
    lattice_distance,
    odd_characteristics,
    petri_basis,
    weighted_minor_g2,
)

SEED = 20260818


def _input(model, base, probes):
    """Relation input of the holomorphic basis's values at the base and probe points."""
    basis = holomorphic_basis(model)
    return petri.RelationInput(basis.evaluate(base), basis.evaluate(probes))


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_labeled_determinants_vanish(quintic, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        pts = sample_points(quintic, 16, seed=SEED + seed)
        inp = _input(quintic, pts[:6], pts[6:])
        ratios = petri.verify_theorem1(inp)
        worst = max(worst, max(r for _, r in ratios))
        assert len(ratios) == 6
    pts = sample_points(quintic, 16, seed=SEED)
    control = _input(quintic, pts[:6], pts[6:])
    crng = np.random.default_rng(SEED)
    control.omega_q = (
        crng.normal(size=control.omega_q.shape) * np.mean(np.abs(control.omega_q)) + 0j
    )
    control_worst = max(r for _, r in petri.verify_theorem1(control))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and control_worst > 1e-6 and elapsed < 10.0
    _verdict(
        capsys, "determinants-vanish-on-curve", ok,
        f"worst ratio {worst:.2e} (tol 1e-8), perturbed control {control_worst:.2e} "
        f"(floor 1e-6), 5 seeds x 6 labels, {elapsed:.1f}s",
    )


def test_criterion_02_relation_coefficients(quintic, capsys):
    t0 = time.perf_counter()
    pts = sample_points(quintic, 16, seed=SEED)
    inp = _input(quintic, pts[:6], pts[6:])
    rs = petri.certify_relation_set(inp.genus, petri.label_relations(inp))
    fresh = sample_points(quintic, 20, seed=SEED + 11)
    omega_fresh = holomorphic_basis(quintic).evaluate(fresh)
    worst = 0.0
    for lab in rs.labels:
        res = petri.annihilation_residual(rs.coefficients[lab].coefficients,
                                          omega_fresh)
        worst = max(worst, float(np.max(res)))
    alt_probes = sample_points(quintic, 10, seed=SEED + 23)
    alt = petri.RelationInput(inp.omega_p, holomorphic_basis(quintic).evaluate(alt_probes))
    c0 = rs.coefficients[(3, 4)].coefficients
    c1 = petri.label_relations(alt)[(3, 4)].coefficients
    i, j = np.unravel_index(np.argmax(np.abs(c0)), c0.shape)
    qdev = float(np.max(np.abs(c0 - (c0[i, j] / c1[i, j]) * c1))
                 / np.max(np.abs(c0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and qdev <= 1e-6 and rs.rank == 6 and elapsed < 10.0
    _verdict(
        capsys, "relation-coefficients", ok,
        f"annihilation {worst:.2e} (tol 1e-8) at 20 fresh points, "
        f"probe-independence {qdev:.2e} (tol 1e-6), rank {rs.rank}/6, {elapsed:.1f}s",
    )


def test_criterion_03_product_rank_dichotomy(quintic, hyp_g4, capsys):
    pb_plane = petri_basis(quintic, SEED, SEED + 5)
    pb_hyper = petri_basis(hyp_g4, SEED, SEED + 5)
    ok = pb_plane.rank_certificate == 15 and pb_hyper.rank_certificate == 7
    _verdict(
        capsys, "product-rank-dichotomy", ok,
        f"plane quintic rank {pb_plane.rank_certificate}/15, "
        f"hyperelliptic genus-4 rank {pb_hyper.rank_certificate}/7",
    )


def test_criterion_04_expansion_tables(quintic, capsys):
    pb = petri_basis(quintic, SEED, SEED + 5)
    nodes = sample_points(quintic, pb.v_dim, seed=SEED + 1)
    w = expansion_coefficients(pb, nodes)
    fresh = sample_points(quintic, 30, seed=SEED + 2)
    omega_fresh = pb.omega.evaluate(fresh)
    u_fresh = pair_vector(omega_fresh, pb.pm)
    v_fresh = pb.v_matrix(omega_fresh)
    resid = float(np.max(np.abs(w @ v_fresh - u_fresh))
                  / np.max(np.abs(u_fresh)))
    nodes2 = sample_points(quintic, pb.v_dim, seed=SEED + 3)
    w2 = expansion_coefficients(pb, nodes2)
    node_dev = float(np.max(np.abs(w - w2)) / np.max(np.abs(w)))
    ok = w.shape == (21, 15) and resid <= 1e-9 and node_dev <= 1e-8
    _verdict(
        capsys, "expansion-tables", ok,
        f"shape {w.shape}, residual {resid:.2e} (tol 1e-9) at 30 fresh points, "
        f"node-set independence {node_dev:.2e} (tol 1e-8)",
    )


def test_criterion_05_siegel_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_fun = worst_pow = worst_trace = worst_berg = worst_dens = 0.0
    for g in (2, 3, 4, 5):
        pm = build_pair_index(g)
        a = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        u = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        lhs = sym_square(a, pm) @ pair_vector(u, pm)
        rhs = pair_vector(a @ u, pm)
        worst_fun = max(worst_fun, float(np.max(np.abs(lhs - rhs))
                                         / np.max(np.abs(rhs))))
        a2 = a / (np.sqrt(g) * np.max(np.abs(a)))
        d1 = linalg.det(sym_square(a2, pm))
        d2 = linalg.det(a2) ** (g + 1)
        worst_pow = max(worst_pow, abs(d1 - d2) / abs(d2))
        tau = siegel.random_siegel_point(g, rng)
        metric = siegel.siegel_metric(tau, pm)
        dz = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        dz = (dz + dz.T) / 2
        dzp = dz[pm.first, pm.second]
        quad = complex(dzp @ metric @ np.conj(dzp)).real
        direct = complex(np.trace(tau.y_inv @ dz @ tau.y_inv @ np.conj(dz))).real
        worst_trace = max(worst_trace, abs(quad - direct) / abs(direct))
        v = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        bl = siegel.bergman_square_lhs(u, v, tau, pm)
        br = siegel.bergman_kernel(u, v, tau) ** 2
        worst_berg = max(worst_berg, abs(bl - br) / abs(br))
        dm, closed = siegel.ambient_volume_density(tau, pm)
        worst_dens = max(worst_dens, abs(dm - closed) / abs(closed))
    pm2 = build_pair_index(2)
    b2 = rng.standard_normal((2, 2))
    t2 = b2 @ b2.T + 0.5 * np.eye(2)
    tau2 = siegel.SiegelPoint(1j * t2)
    worst_minor = 0.0
    for rows, cols in [([0, 1, 2], [0, 1, 2]), ([0, 1], [1, 2]), ([0, 2], [0, 2])]:
        got = siegel.volume_minor(tau2, pm2, rows, cols)
        want = weighted_minor_g2(t2, pm2, rows, cols)
        worst_minor = max(worst_minor, abs(got - want) / max(abs(want), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = (worst_trace <= 1e-12 and worst_fun <= 1e-10 and worst_pow <= 1e-10
          and worst_berg <= 1e-12 and worst_minor <= 1e-12
          and worst_dens <= 1e-10 and elapsed < 5.0)
    _verdict(
        capsys, "siegel-pair-calculus", ok,
        f"trace {worst_trace:.2e} (1e-12), functoriality {worst_fun:.2e} and "
        f"det-power {worst_pow:.2e} (1e-10, g<=5), kernel-square {worst_berg:.2e} "
        f"(1e-12), minor-vs-bruteforce {worst_minor:.2e} (1e-12), "
        f"density {worst_dens:.2e} (1e-10), {elapsed:.1f}s",
    )


def test_criterion_06_theta_evaluation(capsys):
    rng = np.random.default_rng(SEED)
    n = np.arange(-30, 31)
    oracle = float(np.sum(np.exp(-np.pi * n**2)))
    ref_dev = abs(th.theta(0.0, 1j).value - oracle)
    worst_qp = worst_par = 0.0
    for g in (1, 2, 3):
        tau = siegel.random_siegel_point(g, rng)
        for ia, ib in [(0, 0), (1, 1), (1, 0)]:
            char = th.ThetaCharacteristic.from_bits(ia % 2**g, ib % 2**g, g)
            z = 0.3 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            m = rng.integers(-2, 3, size=g).astype(float)
            nv = rng.integers(-2, 3, size=g).astype(float)
            lhs = th.theta(z + tau.z @ m + nv, tau.z, char)
            fac = (-1j * np.pi * (m @ tau.z @ m)
                   - 2j * np.pi * (m @ (z + char.b))
                   + 2j * np.pi * (char.a @ nv))
            rhs = th.theta(z, tau.z, char) * th.ScaledComplex(
                np.exp(1j * fac.imag), fac.real)
            worst_qp = max(worst_qp, th.scaled_rel_diff(lhs, rhs))
            sign = -1.0 if char.is_odd else 1.0
            worst_par = max(worst_par, th.scaled_rel_diff(
                sign * th.theta(z, tau.z, char), th.theta(-z, tau.z, char)))
    ok = ref_dev <= 1e-12 and worst_qp <= 1e-10 and worst_par <= 1e-10
    _verdict(
        capsys, "theta-with-characteristics", ok,
        f"reference value dev {ref_dev:.2e} (tol 1e-12), quasi-periodicity "
        f"{worst_qp:.2e} and parity {worst_par:.2e} (tol 1e-10, g<=3)",
    )


def test_criterion_07_period_matrices(pd_g1, pd_g2, capsys):
    lem_dev = abs(pd_g1.tau.z[0, 0] - 1j)
    w = np.exp(2j * np.pi / 3.0)
    tau_eq = jac.elliptic_tau_from_cubic([1.0 + 0j, w, w**2])
    corners = (np.exp(1j * np.pi / 3.0), np.exp(2j * np.pi / 3.0))
    eq_dev = min(abs(tau_eq - c) for c in corners)
    pos = float(np.min(np.linalg.eigvalsh(pd_g2.tau.y)))
    half_dev = 0.0
    for e in pd_g2.curve.branch_points:
        vec, _ = jac.abel_map(pd_g2, CurvePoint(pd_g2.curve, e, 0.0))
        half_dev = max(half_dev, lattice_distance(2.0 * vec, pd_g2.tau))
    ok = (lem_dev <= 1e-8 and eq_dev <= 1e-8 and pd_g2.symmetry_dev <= 1e-8
          and pos > 0 and half_dev <= 1e-6)
    _verdict(
        capsys, "period-matrices-and-abel", ok,
        f"square-lattice dev {lem_dev:.2e} and hexagonal dev {eq_dev:.2e} "
        f"(tol 1e-8), genus-2 symmetry {pd_g2.symmetry_dev:.2e} (tol 1e-8), "
        f"min eig {pos:.3f} > 0, branch half-periods {half_dev:.2e} (tol 1e-6)",
    )


def test_criterion_08_trisecant_identity(pd_g2, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    delta1 = th.ThetaCharacteristic.first_odd(1)
    worst_g1 = 0.0
    for m in (2, 3):
        done = 0
        for _ in range(150):
            if done == 100:
                break
            tau = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.8, 1.8)]])
            w = 0.4 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            xs = [0.4 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                  for _ in range(m)]
            ys = [0.4 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                  for _ in range(m)]
            try:
                worst_g1 = max(worst_g1, fay_single(w, xs, ys, tau, delta1))
            except (th.ThetaNearZeroError, th.CoincidentPointsError):
                continue
            done += 1
        assert done == 100
    worst_g2 = 0.0
    odd_pair = odd_characteristics(2)[:2]
    for k, delta in enumerate(odd_pair):
        for attempt in range(8):
            pts = sample_points(pd_g2.curve, 4, seed=SEED + 31 * k + attempt,
                                mode="real")
            imgs, _ = jac.abel_map(pd_g2, pts)
            w = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            try:
                r = fay_single(w, imgs[:2], imgs[2:], pd_g2.tau, delta)
            except (th.ThetaNearZeroError, th.CoincidentPointsError):
                continue
            worst_g2 = max(worst_g2, r)
            break
        else:
            pytest.fail("no usable genus-2 draw in 8 attempts")
    elapsed = time.perf_counter() - t0
    ok = worst_g1 <= 1e-10 and worst_g2 <= 1e-6 and elapsed < 60.0
    _verdict(
        capsys, "trisecant-identity", ok,
        f"genus 1 worst {worst_g1:.2e} (tol 1e-10, m=2,3 x 100 trials), "
        f"genus 2 worst {worst_g2:.2e} (tol 1e-6, both odd translates), "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_cross_ratio_identity(pd_g2, capsys):
    details = []
    ok = True
    for weight in (1, 2):
        result = th.gamma_cross_ratio_check(pd_g2, weight, seed=SEED)
        ok = ok and result.residual <= 1e-6
        details.append(f"weight {weight}: {result.residual:.2e} "
                       f"in {result.attempts} attempt(s)")
    _verdict(
        capsys, "cardinal-cross-ratio", ok,
        "; ".join(details) + " (tol 1e-6)",
    )


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    t0 = time.perf_counter()
    r1, r2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    code1 = cli_main(["selftest", "--report", str(r1)])
    code2 = cli_main(["selftest", "--report", str(r2)])
    capsys.readouterr()
    identical = r1.read_bytes() == r2.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and identical and elapsed < 180.0
    _verdict(
        capsys, "deterministic-selftest", ok,
        f"two runs exit {code1}/{code2}, reports byte-identical: {identical}, "
        f"{elapsed:.1f}s",
    )
