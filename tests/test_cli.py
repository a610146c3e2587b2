"""End-to-end tests of the command line interface, run in process."""

import json
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from holodiff import bases, cli, curves, jacobian, petri, theta
from holodiff.cli import main

from oracles import fay_check_sequential


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = _lines(capsys)
    assert out[0] == "tool=holodiff"
    names = {ln.split()[0] for ln in out if ln.startswith("check=")}
    assert names == {
        "check=self-pairindex", "check=self-linalg", "check=self-theta",
        "check=self-petri", "check=self-fay", "check=self-periods",
    }
    assert out[-1].startswith("overall=PASS checks=6 failures=0")


def test_selftest_report_is_byte_stable(tmp_path, capsys):
    r1 = tmp_path / "a.txt"
    r2 = tmp_path / "b.txt"
    assert main(["selftest", "--report", str(r1)]) == 0
    assert main(["selftest", "--report", str(r2)]) == 0
    capsys.readouterr()
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    assert b1 == b2
    assert b" ms=0" in b1  # timings pinned in files


def test_siegel_default_passes(capsys):
    assert main(["verify-siegel"]) == 0
    out = capsys.readouterr().out
    for name in ("siegel-functoriality", "siegel-det-power", "siegel-trace",
                 "siegel-invariance", "siegel-density"):
        assert f"check={name}" in out
    assert "overall=PASS" in out


def test_siegel_genus_bounds(capsys):
    assert main(["verify-siegel", "--genus", "0"]) == 2
    assert main(["verify-siegel", "--genus", "9"]) == 2
    assert main(["verify-siegel", "--threads", "4"]) == 2
    assert main(["verify-siegel", "--force-failure"]) == 2
    capsys.readouterr()


def test_tolerance_overrides_echoed(capsys):
    assert main(["verify-siegel", "--tol", "det-power=1e-30"]) == 1
    out = capsys.readouterr().out
    assert "tolerance det-power=1.000000e-30" in out
    assert "check=siegel-det-power anchor=det-power status=FAIL" in out
    assert "overall=FAIL" in out


def test_tolerance_override_does_not_carry_into_next_call(capsys):
    # the parser is built once per process; a --tol list from one call
    # must not reach the next call's arguments or report
    assert main(["verify-siegel", "--genus", "2", "--tol", "trace=1e-3"]) == 0
    assert "tolerance trace=1.000000e-03" in capsys.readouterr().out
    assert main(["verify-siegel", "--genus", "2"]) == 0
    out = capsys.readouterr().out
    assert "tolerance" not in out
    assert "check=siegel-trace anchor=metric-trace status=PASS" in out
    assert "tol=1.000000e-12" in next(ln for ln in out.splitlines()
                                      if ln.startswith("check=siegel-trace"))


def test_usage_errors_exit_two_with_cached_parser(capsys):
    assert main(["verify-siegel", "--genus", "2"]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert main(["verify-fay", "--genus", "3"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify-siegel", "--genus", "9"]) == 2
    capsys.readouterr()
    assert main(["verify-siegel", "--genus", "2"]) == 0
    assert "overall=PASS" in capsys.readouterr().out


def test_tolerance_syntax_errors(capsys):
    assert main(["verify-siegel", "--tol", "noequals"]) == 2
    assert main(["verify-siegel", "--tol", "x=-1"]) == 2
    assert main(["verify-siegel", "--tol", "x=junk"]) == 2
    capsys.readouterr()
    for value in ("nan", "inf"):
        assert main(["verify-siegel", "--tol", f"trace={value}"]) == 2
        captured = capsys.readouterr()
        assert "tolerance trace" not in captured.out
        assert "must be a positive finite number" in captured.err


@pytest.mark.parametrize("command", ["verify-petri", "verify-siegel", "verify-fay", "periods",
                                     "selftest"])
def test_negative_seed_is_a_usage_error(command, capsys):
    assert main([command, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be a non-negative integer" in captured.err


def test_tolerance_name_the_subcommand_never_reads(capsys):
    # the siegel check is "invariance"; a misspelt name must not be
    # echoed as if it took effect
    assert main(["verify-siegel", "--genus", "2", "--tol", "invariants=1", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert "tolerance invariants" not in captured.out
    assert "'invariants'" in captured.err
    assert "functoriality, det-power, trace, invariance, density" in captured.err
    # a name read by another subcommand is refused here too
    assert main(["periods", "--tol", "fay=1"]) == 2
    assert "accepted names: symmetry" in capsys.readouterr().err
    assert main(["verify-siegel", "--genus", "2", "--tol", "invariance=1", "--seed", "3"]) == 0
    assert "tolerance invariance=1.000000e+00" in capsys.readouterr().out


def test_petri_default_quintic(capsys):
    assert main(["verify-petri"]) == 0
    out = capsys.readouterr().out
    assert "check=petri-determinants" in out
    assert "check=petri-annihilation" in out
    assert "check=petri-relations" in out
    assert "check=petri-rank" in out
    assert "rank=15 expected=15" in out
    assert "overall=PASS checks=4" in out


def test_petri_hyperelliptic_warns(tmp_path, capsys):
    spec = tmp_path / "hyp.json"
    spec.write_text(json.dumps(
        {"type": "hyperelliptic", "branch_points": [-2.0, -1.0, 0.0, 1.0, 2.0]}
    ))
    assert main(["verify-petri", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "check=petri-determinants anchor=theorem1-dets status=WARN" in out
    assert "check=petri-relations anchor=relation-rank status=WARN" in out
    assert "rank=3 expected=3" in out
    assert "overall=PASS checks=3 failures=0 warnings=2" in out


def test_petri_rank_retries_rank_deficient_draw(monkeypatch, capsys):
    # the first anchor draw at this seed certifies rank 14 < 15, and the
    # retry certifies the full rank
    outcomes = []
    certify = bases.PetriBasis.certify

    def spy(self, omega_certificate):
        try:
            rank = certify(self, omega_certificate)
        except bases.RankDeficiencyError as exc:
            outcomes.append(exc)
            raise
        outcomes.append(self)
        return rank

    monkeypatch.setattr(bases.PetriBasis, "certify", spy)
    assert main(["verify-petri", "--seed", "5039"]) == 0
    out = capsys.readouterr().out
    assert isinstance(outcomes[0], bases.RankDeficiencyError)
    assert outcomes[0].rank == 14
    assert outcomes[-1].rank_certificate == 15
    assert ("check=petri-rank anchor=product-rank status=PASS" in out
            and "rank=15 expected=15" in out)


def test_petri_rank_deficient_on_every_draw_fails(monkeypatch, capsys):
    calls = []

    def deficient(self, omega_certificate):
        calls.append(omega_certificate)
        raise bases.RankDeficiencyError("unexpected rank deficiency", 14)

    monkeypatch.setattr(bases.PetriBasis, "certify", deficient)
    assert main(["verify-petri"]) == 1
    out = capsys.readouterr().out
    assert len(calls) == 4
    assert [om.shape[1] for om in calls] == [15] * 4
    assert "check=petri-rank anchor=product-rank status=FAIL" in out
    assert "rank=14 expected=15" in out
    assert "internal-error" not in out


def test_petri_draws_every_set_in_one_pass(monkeypatch, capsys):
    calls = []
    sample_sets = curves.sample_sets
    monkeypatch.setattr(curves, "sample_sets", lambda model, requests, mode="complex":
                        calls.append(list(requests)) or sample_sets(model, requests, mode))
    monkeypatch.setattr(curves, "sample_points", None)  # nothing draws set by set
    assert main(["verify-petri"]) == 0
    capsys.readouterr()
    seed = cli.DEFAULT_SEED
    rank = cli._sub_seed(seed, "petri-rank")
    assert calls == [[
        (16, cli._sub_seed(seed, "petri-determinants")),
        (16, cli._sub_seed(seed, "petri-annihilation")),
        (16, cli._sub_seed(seed, "petri-relations")),
        (20, cli._sub_seed(seed, "petri-annihilation-points")),
        (6, rank),
        (15, rank + 7919),
    ]]


def test_petri_evaluates_every_set_in_one_pass(monkeypatch, capsys):
    # a request whose rank check needs no retry builds one holomorphic
    # basis, and its six sets share one monomial-value pass
    built, sizes = [], []
    holomorphic_basis = bases.holomorphic_basis
    raw_values = bases.DifferentialBasis._raw_values
    monkeypatch.setattr(bases, "holomorphic_basis",
                        lambda *args: built.append(args) or holomorphic_basis(*args))
    monkeypatch.setattr(bases.DifferentialBasis, "_raw_values",
                        lambda self, points: sizes.append(len(points)) or raw_values(self, points))
    assert main(["verify-petri"]) == 0
    assert "rank=15 expected=15" in capsys.readouterr().out
    assert len(built) == 1
    assert sizes == [16 + 16 + 16 + 20 + 6 + 15]


def _report_lines(out):
    return [re.sub(r" ms=\S+", "", ln) for ln in out.splitlines()]


@pytest.mark.parametrize("target,check", [
    ("petri-determinants", "petri-determinants"),
    ("petri-annihilation", "petri-annihilation"),
    ("petri-annihilation-points", "petri-annihilation"),
    ("petri-relations", "petri-relations"),
    ("petri-rank", "petri-rank"),
    ("petri-rank-certificate", "petri-rank"),
])
def test_petri_failing_set_fails_only_its_check(target, check, monkeypatch, capsys):
    seed = cli.DEFAULT_SEED
    assert main(["verify-petri"]) == 0
    want = _report_lines(capsys.readouterr().out)
    rank = cli._sub_seed(seed, "petri-rank")
    bad = rank + 7919 if target == "petri-rank-certificate" else cli._sub_seed(seed, target)
    sample_sets = curves.sample_sets

    def faulty(model, requests, mode="complex"):
        out = sample_sets(model, requests, mode)
        return [curves.SamplingError("injected sampling failure") if s == bad else pts
                for (_, s), pts in zip(requests, out)]

    monkeypatch.setattr(curves, "sample_sets", faulty)
    assert main(["verify-petri"]) == 1
    got = _report_lines(capsys.readouterr().out)
    changed = [(a, b) for a, b in zip(want, got) if a != b]
    assert len(want) == len(got)
    assert [b for _, b in changed][:1] == [
        f"check={check} anchor=internal-error status=FAIL residual=- tol=- "
        "note=SamplingError: injected sampling failure"]
    assert all(a.startswith(f"check={check} ") or a.startswith("overall=")
               for a, _ in changed)


@pytest.mark.parametrize("target,check", [
    ("petri-determinants", "petri-determinants"),
    ("petri-annihilation", "petri-annihilation"),
    ("petri-annihilation-points", "petri-annihilation"),
    ("petri-relations", "petri-relations"),
    ("petri-rank", "petri-rank"),
    ("petri-rank-certificate", "petri-rank"),
])
def test_petri_chart_breakdown_fails_only_its_check(target, check, monkeypatch, capsys):
    # two points where F_y = 5 y^4 vanishes, put into one set; the check
    # that evaluates the set names the first of them, the others pass
    seed = cli.DEFAULT_SEED
    assert main(["verify-petri"]) == 0
    want = _report_lines(capsys.readouterr().out)
    rank = cli._sub_seed(seed, "petri-rank")
    bad = rank + 7919 if target == "petri-rank-certificate" else cli._sub_seed(seed, target)
    first, second = (curves.CurvePoint(None, np.exp(1j * np.pi * k / 5), 0j, "x")
                     for k in (3, 5))
    sample_sets = curves.sample_sets

    def faulty(model, requests, mode="complex"):
        out = sample_sets(model, requests, mode)
        for (_, s), pts in zip(requests, out):
            if s == bad:
                pts[1:3] = [replace(first, model=model), replace(second, model=model)]
        return out

    monkeypatch.setattr(curves, "sample_sets", faulty)
    assert main(["verify-petri"]) == 1
    got = _report_lines(capsys.readouterr().out)
    changed = [(a, b) for a, b in zip(want, got) if a != b]
    assert len(want) == len(got)
    assert [b for _, b in changed][:1] == [
        f"check={check} anchor=internal-error status=FAIL residual=- tol=- "
        f"note=ChartError: chart breakdown at {first!r}: |denominator| = 0.000e+00"]
    assert all(a.startswith(f"check={check} ") or a.startswith("overall=")
               for a, _ in changed)


def test_petri_certificate_failure_waits_for_the_anchor_test(monkeypatch, capsys):
    # PetriBasis tests the anchors before the certificate's values are read,
    # so with every anchor draw refused the check reports the anchors,
    # not the failed certificate set
    bad = cli._sub_seed(cli.DEFAULT_SEED, "petri-rank") + 7919
    sample_sets = curves.sample_sets
    monkeypatch.setattr(curves, "sample_sets", lambda model, requests, mode="complex": [
        curves.SamplingError("injected sampling failure") if s == bad else pts
        for (_, s), pts in zip(requests, sample_sets(model, requests, mode))])
    monkeypatch.setattr(bases, "ANCHOR_COND_LIMIT", 0.0)
    assert main(["verify-petri"]) == 1
    out = "\n".join(_report_lines(capsys.readouterr().out))
    assert ("check=petri-rank anchor=internal-error status=FAIL residual=- tol=- "
            "note=NonGenericAnchorsError: non-generic anchors") in out


@pytest.mark.parametrize("seed", [1094, 2804])
def test_petri_annihilation_survives_near_singular_cofactors(seed, capsys):
    # at these seeds a labeled matrix of the annihilation input, with the
    # expanded row and the last column deleted, has a 1-norm condition
    # number above 1e11; the relation's cofactor row is solved from that
    # matrix (one elimination per cofactor left such draws at 4e-7 against
    # the 1e-8 tolerance)
    model = curves.parse_curve_spec(cli._builtin_text("fermat_quintic.json"))
    g = model.genus
    count, draw_seed = cli._petri_point_sets(model, seed)["petri-annihilation"]
    pts = curves.sample_points(model, count, draw_seed)
    om = bases.holomorphic_basis(model).evaluate(pts)
    inp = petri.RelationInput(om[:, :g], om[:, g:])
    labels = petri.relation_labels(g)
    amats = petri._labeled_matrices(petri.a_tensor(inp), petri._column_pairs(g, labels))
    cofactor = np.delete(amats, petri.EXPANDED_ROW - 1, axis=-2)[..., :-1]
    assert np.max(np.linalg.cond(cofactor, 1)) > 1e11
    assert main(["verify-petri", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert "check=petri-annihilation anchor=annihilation status=PASS" in out


def test_fay_genus_one_passes(capsys):
    assert main(["verify-fay", "--genus", "1", "-m", "2"]) == 0
    out = capsys.readouterr().out
    assert "check=fay-trisecant" in out
    assert "overall=PASS" in out


def test_fay_pair_count_validation(capsys):
    assert main(["verify-fay", "-m", "1"]) == 2
    err = capsys.readouterr().err
    assert "at least 2" in err


def test_fay_pair_count_upper_limit(monkeypatch, capsys):
    # rejected while parsing: the check, and its theta batch, is never built
    def never_built(*args):
        raise AssertionError("the trisecant check must not be built")

    monkeypatch.setattr(cli, "_fay_check", never_built)
    too_many = str(cli.FAY_MAX_PAIRS + 1)
    assert main(["verify-fay", "--genus", "2", "-m", too_many]) == 2
    assert f"at most {cli.FAY_MAX_PAIRS} point pairs" in capsys.readouterr().err


def test_fay_genus_two_survives_determinant_cancellation(capsys):
    # a permutation-sum determinant lost this draw to cancellation (3e-3)
    assert main(["verify-fay", "--genus", "2", "-m", "6", "--seed", "1017"]) == 0
    out = capsys.readouterr().out
    assert "check=fay-trisecant anchor=fay-trisecant status=PASS" in out


# seeds 1000-1599 whose genus-2 -m 6 check retries a trial (each once,
# on a CoincidentPointsError from the residual)
FAY_RETRY_SEEDS = (1003, 1081, 1124, 1142, 1169, 1178, 1203, 1223, 1288, 1381, 1531, 1584)


def _fay_g2(seed, m=6):
    """(exit code, fay-trisecant record) of verify-fay --genus 2."""
    records = []
    run = cli._run_checks

    def spy(checks):
        records.extend(run(checks))
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_run_checks", spy)
        code = main(["verify-fay", "--genus", "2", "-m", str(m), "--seed", str(seed)])
    return code, records[0]


def _assert_same_as_sequential(monkeypatch, seed, m=6):
    """Runs the batched check, then the trial-by-trial oracle loop in its place."""
    code, rec = _fay_g2(seed, m)
    monkeypatch.setattr(cli, "_fay_rounds", fay_check_sequential)
    want_code, want = _fay_g2(seed, m)
    monkeypatch.undo()
    assert (code, rec.status, rec.note) == (want_code, want.status, want.note)
    assert rec.anchor == want.anchor
    if want.residual is None:
        assert rec.residual is None
    else:
        assert abs(rec.residual - want.residual) <= 1e-12
    return rec


@pytest.mark.parametrize("seed", list(range(1000, 1040)) + list(FAY_RETRY_SEEDS))
def test_fay_rounds_match_sequential_trials(seed, monkeypatch, capsys):
    _assert_same_as_sequential(monkeypatch, seed)


def test_fay_retry_seed_runs_a_second_round(monkeypatch, capsys):
    calls = []
    abel = jacobian.abel_map
    monkeypatch.setattr(jacobian, "abel_map", lambda pd, pts: calls.append(len(pts))
                        or abel(pd, pts))
    code, rec = _fay_g2(FAY_RETRY_SEEDS[0])
    assert code == 0 and rec.status == "PASS"
    # trial k fails in round one; round two redraws trials k..2
    assert len(calls) == 2 and calls[0] == 3 * 12 and calls[1] < calls[0]


def _faulty_sampler(monkeypatch, seed, fault):
    """sample_sets with fault(trial, attempt) -> None, "sampling" or
    "coincident" applied to each fay-trisecant point set of `seed`: a
    SamplingError in that set's slot, or its first point repeated."""
    sample = curves.sample_sets
    firsts = {cli._sub_seed(seed, f"fay-points-{t}"): t for t in range(cli.FAY_TRIALS)}

    def faulty(model, requests, mode="complex"):
        out = sample(model, requests, mode)
        for k, (_, s) in enumerate(requests):
            hits = [(t, s - first) for first, t in firsts.items() if 0 <= s - first < 8]
            kind = fault(*hits[0]) if hits else None
            if kind == "sampling":
                out[k] = curves.SamplingError("injected sampling failure")
            elif kind == "coincident":
                out[k][1] = out[k][0]
        return out

    monkeypatch.setattr(curves, "sample_sets", faulty)


@pytest.mark.parametrize("seed", [1000, 1017])
def test_fay_rounds_retry_trial_zero_residual(seed, monkeypatch, capsys):
    calls = []
    abel = jacobian.abel_map
    monkeypatch.setattr(jacobian, "abel_map", lambda pd, pts: calls.append(len(pts))
                        or abel(pd, pts))
    _faulty_sampler(monkeypatch, seed, lambda t, a: "coincident" if (t, a) == (0, 0) else None)
    rec = _assert_same_as_sequential(monkeypatch, seed)
    assert rec.status == "PASS"
    assert calls[:2] == [36, 36]  # trial 0 fails; all three trials run again


def test_fay_rounds_retry_trial_one_sampling(monkeypatch, capsys):
    seed = 1000
    _faulty_sampler(monkeypatch, seed, lambda t, a: "sampling" if (t, a) == (1, 0) else None)
    rec = _assert_same_as_sequential(monkeypatch, seed)
    assert rec.status == "PASS"


def test_fay_rounds_trial_two_fails_every_attempt(monkeypatch, capsys):
    seed = 1000
    _faulty_sampler(monkeypatch, seed, lambda t, a: "coincident" if t == 2 else None)
    rec = _assert_same_as_sequential(monkeypatch, seed)
    assert rec.anchor == "internal-error"
    assert rec.note.startswith("CoincidentPointsError: points 0 and 1 are within")


def _low_theta_draws(monkeypatch, seed, draws):
    """theta with the w of the given fay-trisecant rng draws of `seed`
    (0-based, in the order trials run one after another take them) set
    below the floor, in a one-row call or in a row of a stacked call."""
    rng = np.random.default_rng(cli._seed_seq(seed, "fay-trisecant"))
    ws = [cli._rand_complex(rng, (2,), 0.4) for _ in range(max(draws) + 1)]
    low = {ws[k].tobytes() for k in draws}
    evaluate = theta.theta

    def faulty(z, tau, char=None):
        vals = evaluate(z, tau, char)
        rows = np.asarray(z, dtype=complex).reshape(-1, 2)
        out = [theta.ScaledComplex(0.0, v.log_scale, v.err, v.peak)
               if r.tobytes() in low else v
               for r, v in zip(rows, vals if isinstance(vals, list) else [vals])]
        return out if isinstance(vals, list) else out[0]

    monkeypatch.setattr(theta, "theta", faulty)


@pytest.mark.parametrize("draws, abel_points, rounds, note", [
    # trial 1 attempt 0 (the second w drawn): trial 0 is mapped in round
    # one, trials 1 and 2 in round two
    ((1,), [12, 24], 2, None),
    # every attempt of trial 2 (draws 2-9): trials 0 and 1 are mapped in
    # round one, then seven rounds of trial 2 alone map nothing
    (tuple(range(2, 10)), [24], 8, "ThetaNearZeroError: theta(w) below floor"),
])
def test_fay_rounds_retry_theta_floor(draws, abel_points, rounds, note, monkeypatch, capsys):
    seed = 1000
    _low_theta_draws(monkeypatch, seed, draws)
    abel, sample, evaluate = jacobian.abel_map, curves.sample_sets, theta.theta
    calls = {"abel": [], "sample": 0, "theta": 0}

    def count(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobian, "abel_map", lambda pd, pts: calls["abel"].append(len(pts))
                   or abel(pd, pts))
        mp.setattr(curves, "sample_sets", count("sample", sample))
        mp.setattr(theta, "theta", count("theta", evaluate))
        _fay_g2(seed)
    # one sampler pass and one theta(w) call per round; the Abel maps of
    # a round cover its trials before the first below the floor
    assert calls == {"abel": abel_points, "sample": rounds, "theta": rounds}
    rec = _assert_same_as_sequential(monkeypatch, seed)
    if note is None:
        assert rec.status == "PASS"
    else:
        assert rec.anchor == "internal-error" and rec.note == note


def test_fay_genus_two_needs_matching_curve(tmp_path, capsys):
    spec = tmp_path / "g1.json"
    spec.write_text(json.dumps(
        {"type": "hyperelliptic", "branch_points": [-1.0, 0.0, 1.0]}
    ))
    assert main(["verify-fay", "--genus", "2", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "genus-2" in err


def test_non_finite_curve_file_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "nan.json"
    spec.write_text('{"type": "hyperelliptic", "branch_points": [NaN, 0.5, 1.5]}')
    assert main(["periods", "--spec", str(spec)]) == 2
    assert "field 'branch_points[0]': expected a finite real number" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["periods"], "periods needs a hyperelliptic curve file"),
    (["verify-fay", "--genus", "2"], "genus 2 mode needs a genus-2 hyperelliptic curve file"),
])
def test_plane_curve_refused_where_a_hyperelliptic_one_is_needed(argv, message, capsys):
    spec = resources.files("holodiff").joinpath("data", "fermat_quintic.json")
    assert main(argv + ["--spec", str(spec)]) == 2
    assert message in capsys.readouterr().err


def test_fay_genus_one_refuses_a_curve_file(tmp_path, capsys):
    # the genus-1 trials draw their own tau, so a curve file would be unread
    spec = tmp_path / "g1.json"
    spec.write_text(json.dumps(
        {"type": "hyperelliptic", "branch_points": [-1.0, 0.0, 1.0]}
    ))
    assert main(["verify-fay", "--genus", "1", "--spec", str(spec)]) == 2
    assert "genus 1 mode draws its own tau and reads no curve file" in capsys.readouterr().err
    assert main(["verify-fay", "--spec", str(spec)]) == 2
    capsys.readouterr()


def test_periods_subcommand(capsys):
    assert main(["periods"]) == 0
    out = capsys.readouterr().out
    assert "check=periods-symmetry" in out
    assert "check=periods-positivity" in out
    assert "check=periods-values" in out
    assert "tau11=" in out
    assert "overall=PASS" in out


def test_report_header_carries_curve_digest(tmp_path, capsys):
    report = tmp_path / "r.txt"
    assert main(["verify-petri", "--report", str(report)]) == 0
    capsys.readouterr()
    text = report.read_text()
    lines = text.splitlines()
    assert lines[0] == "tool=holodiff"
    assert lines[1].startswith("version=")
    assert lines[2] == "command=verify-petri"
    assert lines[3].startswith("seed=")
    digest = lines[4].split("=", 1)[1]
    assert len(digest) == 64  # hex sha256 of the curve text


def test_siegel_report_has_no_curve_digest(tmp_path, capsys):
    report = tmp_path / "r.txt"
    assert main(["verify-siegel", "--report", str(report)]) == 0
    capsys.readouterr()
    assert "curve-sha256=-" in report.read_text()


def test_fay_genus_one_report_has_no_curve_digest(monkeypatch, tmp_path, capsys):
    # the genus-1 trials draw their own tau, so no curve is read or hashed
    monkeypatch.setattr(cli, "_load_curve", lambda *a: pytest.fail("a curve was loaded"))
    report = tmp_path / "r.txt"
    assert main(["verify-fay", "--genus", "1", "--report", str(report)]) == 0
    capsys.readouterr()
    assert "curve-sha256=-" in report.read_text()


def test_broken_curve_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken")
    assert main(["verify-petri", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid curve file" in err
    assert "line 2" in err


def test_wrong_field_curve_file(tmp_path, capsys):
    bad = tmp_path / "deg2.json"
    bad.write_text(json.dumps({
        "type": "plane", "degree": 2,
        "coeffs": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0], [0, 0, 1.0, 0.0]],
    }))
    assert main(["verify-petri", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "field 'degree'" in err


def test_missing_curve_file(tmp_path, capsys):
    assert main(["verify-petri", "--spec", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
