"""End-to-end tests of the command line interface, run in process."""

import hashlib
import itertools
import json
import re
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from holodiff import bases, cli, curves, jacobian, linalg, petri, theta
from holodiff.cli import main

from oracles import a_tensor, bundled, fay_check_sequential

ROOT = Path(__file__).resolve().parents[1]


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


# one quick run of each subcommand, and one per --genus where a default
# depends on it
TOLERANCE_RUNS = {
    "verify-petri": [["verify-petri"]],
    "verify-siegel": [["verify-siegel", "--genus", "2"]],
    "verify-fay": [["verify-fay", "--genus", "1"], ["verify-fay", "--genus", "2"]],
    "periods": [["periods"]],
    "selftest": [["selftest"]],
}


def _check_tols(argv, capsys):
    """The tol= field of each check line of the report of `argv`, by check."""
    main(argv)
    return dict(re.findall(r"^check=(\S+) .*? tol=(\S+)", capsys.readouterr().out, re.M))


@pytest.mark.parametrize("command, name", [(command, name)
                                           for command, names in cli.TOLERANCES.items()
                                           for name in names])
def test_every_tolerance_is_read_and_defaults_to_the_table(command, name, capsys):
    # the checks that read `name` are those whose tol= follows its override;
    # without the override each of them shows the table's default
    for argv in TOLERANCE_RUNS[command]:
        default = cli.TOLERANCES[command][name]
        if isinstance(default, dict):
            default = default[int(argv[argv.index("--genus") + 1])]
        plain = _check_tols(argv, capsys)
        overridden = _check_tols([*argv, "--tol", f"{name}=0.25"], capsys)
        readers = [check for check in plain if overridden[check] == "2.500000e-01"]
        assert readers, f"{' '.join(argv)} accepts --tol {name} but no check reads it"
        assert {plain[check] for check in readers} == {"%.6e" % default}


def test_hand_set_tolerances_do_not_grow():
    # every default in the table is a hand-set number; a change that derives
    # a bound lowers these counts in the same change, and none may raise them
    per_name = [[v for v in (d.values() if isinstance(d, dict) else [d]) if isinstance(v, float)]
                for names in cli.TOLERANCES.values() for d in names.values()]
    assert (sum(map(bool, per_name)), sum(map(len, per_name))) == (15, 16)


@pytest.mark.parametrize("command", sorted(cli.TOLERANCES))
def test_tol_help_lists_every_name_and_default(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, default in cli.TOLERANCES[command].items():
        assert f"{name}=" in text
        for value in default.values() if isinstance(default, dict) else [default]:
            assert f"{value:g}" in text


def test_readme_tolerance_table_matches_the_cli():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | `--tol` name | default |\n|---|---|---|\n")[1]
    documented = {}
    for row in itertools.takewhile(lambda ln: ln.startswith("|"), table.splitlines()):
        command, name, cell = re.fullmatch(r"\| `(\S+)` \| `(\S+)` \| (.+) \|", row).groups()
        per_genus = re.findall(r"(\S+) at `--genus (\d+)`", cell)
        default = ({int(g): float(v) for v, g in per_genus} if per_genus
                   else float(cell.split()[0]))
        documented.setdefault(command, []).append((name, default))
    assert documented == {command: list(names.items())
                          for command, names in cli.TOLERANCES.items()}


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


def test_petri_plane_quartic_has_no_labels_to_check(tmp_path, capsys):
    # genus 3 has (g-2)(g-3)/2 = 0 determinantal labels: the determinant,
    # annihilation and relation checks warn, and none draws its points
    spec = tmp_path / "quartic.json"
    spec.write_text(json.dumps({"type": "plane", "degree": 4, "coeffs": [
        [4, 0, 1.0, 0.0], [0, 4, 1.0, 0.0], [0, 0, 1.0, 0.0]]}))
    assert main(["verify-petri", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    note = "residual=- tol=- ms=0 note=genus 3 has no determinantal labels; skipped"
    assert f"check=petri-determinants anchor=theorem1-dets status=WARN {note}" in out
    assert f"check=petri-annihilation anchor=annihilation status=WARN {note}" in out
    assert f"check=petri-relations anchor=relation-rank status=WARN {note}" in out
    assert "rank=6 expected=6" in out
    assert "overall=PASS checks=4 failures=0 warnings=3" in out
    model = curves.parse_curve_spec(spec.read_text())
    assert set(cli._petri_point_sets(model, 1)) == {"petri-rank", "petri-rank-certificate"}


def test_petri_refuses_a_genus_one_curve(capsys):
    spec = resources.files("holodiff").joinpath("data", "lemniscatic_g1.json")
    assert main(["verify-petri", "--spec", str(spec)]) == 2
    assert "verify-petri needs a curve of genus >= 2" in capsys.readouterr().err


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
    assert main(["verify-petri", "--seed", "1010"]) == 0
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
    assert calls == [[
        (16, cli._sub_seed(seed, "petri-determinants")),
        (16, cli._sub_seed(seed, "petri-annihilation")),
        (16, cli._sub_seed(seed, "petri-relations")),
        (20, cli._sub_seed(seed, "petri-annihilation-points")),
        (6, cli._sub_seed(seed, "petri-rank", 0)),
        (15, cli._sub_seed(seed, "petri-rank-certificate", 0)),
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
    model = bundled("fermat_quintic.json")
    _, bad = cli._petri_point_sets(model, seed)[target]
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


@pytest.mark.parametrize("target", ["petri-determinants", "petri-annihilation",
                                    "petri-relations"])
def test_petri_singular_base_fails_only_its_check(target, monkeypatch, capsys):
    # two equal base-point columns make one set's base matrix singular; the
    # stacked relation pass refuses that set alone, with the note its
    # one-set RelationInput raises, and every other line keeps its bytes
    assert main(["verify-petri"]) == 0
    want = _report_lines(capsys.readouterr().out)
    model = bundled("fermat_quintic.json")
    g = model.genus
    _, bad = cli._petri_point_sets(model, cli.DEFAULT_SEED)[target]
    drawn, broken = {}, []
    sample_sets = curves.sample_sets

    def recording(model, requests, mode="complex"):
        out = sample_sets(model, requests, mode)
        drawn.update((s, pts) for (_, s), pts in zip(requests, out))
        return out

    basis_type = type(bases.holomorphic_basis(model))
    evaluate_sets = basis_type.evaluate_sets

    def faulty(self, point_sets):
        out = evaluate_sets(self, point_sets)
        for pts, om in zip(point_sets, out):
            if pts is drawn.get(bad):
                om[:, 1] = om[:, 0]
                broken.append(om)
        return out

    monkeypatch.setattr(curves, "sample_sets", recording)
    monkeypatch.setattr(basis_type, "evaluate_sets", faulty)
    assert main(["verify-petri"]) == 1
    got = _report_lines(capsys.readouterr().out)
    [om] = broken
    with pytest.raises(linalg.DegenerateMatrixError) as one_set:
        petri.RelationInput(om[:, :g], om[:, g:])
    note = f"DegenerateMatrixError: {one_set.value}"
    assert note.startswith("DegenerateMatrixError: base-point evaluation matrix is singular "
                           "(pivot magnitude ")
    changed = [(a, b) for a, b in zip(want, got) if a != b]
    assert len(want) == len(got)
    assert [b for _, b in changed] == [
        f"check={target} anchor=internal-error status=FAIL residual=- tol=- note={note}",
        "overall=FAIL checks=4 failures=1 warnings=0"]
    assert changed[0][0].startswith(f"check={target} ")


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
    model = bundled("fermat_quintic.json")
    _, bad = cli._petri_point_sets(model, seed)[target]
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
    bad = cli._sub_seed(cli.DEFAULT_SEED, "petri-rank-certificate", 0)
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
    model = bundled("fermat_quintic.json")
    g = model.genus
    count, draw_seed = cli._petri_point_sets(model, seed)["petri-annihilation"]
    pts = curves.sample_points(model, count, draw_seed)
    om = bases.holomorphic_basis(model).evaluate(pts)
    inp = petri.RelationInput(om[:, :g], om[:, g:])
    labels = petri.relation_labels(g)
    amats = petri._labeled_matrices(a_tensor(inp), petri._column_pairs(g, labels))
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


def test_self_fay_ends_with_the_last_retry_error(monkeypatch, capsys):
    draws = []

    def vanishing(*args):
        draws.append(args)
        return [theta.ThetaNearZeroError(f"draw {len(draws)}")]

    monkeypatch.setattr(theta, "fay_residual", vanishing)
    assert main(["selftest"]) == 1
    [line] = [line for line in _lines(capsys) if line.startswith("check=self-fay ")]
    assert "anchor=internal-error" in line
    assert line.endswith(f"note=ThetaNearZeroError: draw {cli.FAY_ATTEMPTS}")
    assert len(draws) == cli.FAY_ATTEMPTS


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


# seeds 1040-1599 whose genus-2 -m 6 check retries a trial, each once
# (1005 is the one below 1040)
FAY_RETRY_SEEDS = (1043, 1269, 1570, 1575, 1594)
# further seeds: those at which a trial retried when every w came from
# one shared stream
FAY_SHARED_STREAM_RETRY_SEEDS = (1003, 1081, 1124, 1142, 1169, 1178, 1203, 1223, 1288, 1381,
                                 1531, 1584)


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


@pytest.mark.parametrize("seed", list(range(1000, 1040)) + list(FAY_SHARED_STREAM_RETRY_SEEDS)
                         + list(FAY_RETRY_SEEDS))
def test_fay_rounds_match_sequential_trials(seed, monkeypatch, capsys):
    _assert_same_as_sequential(monkeypatch, seed)


def _abel_calls(monkeypatch):
    """The number of points of each `abel_map` call, as a list that grows."""
    calls = []
    abel = jacobian.abel_map
    monkeypatch.setattr(jacobian, "abel_map", lambda pd, pts: calls.append(len(pts))
                        or abel(pd, pts))
    return calls


def test_fay_retry_seed_runs_a_second_round(monkeypatch, capsys):
    calls = _abel_calls(monkeypatch)
    code, rec = _fay_g2(FAY_RETRY_SEEDS[0])
    assert code == 0 and rec.status == "PASS"
    # one trial fails in round one; round two redraws that trial alone
    assert calls == [3 * 12, 12]


def _faulty_sampler(monkeypatch, seed, fault):
    """sample_sets with fault(trial, attempt) -> None, "sampling" or
    "coincident" applied to each fay-trisecant point set of `seed`: a
    SamplingError in that set's slot, or its first point repeated."""
    sample = curves.sample_sets
    keys = {cli._sub_seed(seed, "fay-points", t, a): (t, a)
            for t in range(cli.FAY_TRIALS) for a in range(cli.FAY_ATTEMPTS)}

    def faulty(model, requests, mode="complex"):
        out = sample(model, requests, mode)
        for k, (_, s) in enumerate(requests):
            kind = fault(*keys[s]) if s in keys else None
            if kind == "sampling":
                out[k] = curves.SamplingError("injected sampling failure")
            elif kind == "coincident":
                out[k][1] = out[k][0]
        return out

    monkeypatch.setattr(curves, "sample_sets", faulty)


@pytest.mark.parametrize("seed", [1000, 1017])
def test_fay_rounds_retry_trial_zero_residual(seed, monkeypatch, capsys):
    calls = _abel_calls(monkeypatch)
    _faulty_sampler(monkeypatch, seed, lambda t, a: "coincident" if (t, a) == (0, 0) else None)
    rec = _assert_same_as_sequential(monkeypatch, seed)
    assert rec.status == "PASS"
    assert calls[:2] == [36, 12]  # trial 0 fails; it alone runs again


def test_fay_rounds_retry_only_the_failed_trial(monkeypatch, capsys):
    # trial 1 fails at attempt 0 after its Abel map: trials 0 and 2 keep
    # their residuals, and round two maps trial 1's next attempt alone
    seed = 1000
    calls = _abel_calls(monkeypatch)
    _faulty_sampler(monkeypatch, seed, lambda t, a: "coincident" if (t, a) == (1, 0) else None)
    rec = _assert_same_as_sequential(monkeypatch, seed)
    assert rec.status == "PASS"
    assert calls[:2] == [36, 12]


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
    """theta with the w of the given (trial, attempt) pairs of `seed` set
    below the floor, in a one-row call or in a row of a stacked call."""
    ws = [cli._rand_complex(np.random.default_rng(cli._seed_seq(seed, "fay-w", t, a)), (2,), 0.4)
          for t, a in draws]
    low = {w.tobytes() for w in ws}
    evaluate = theta.theta

    def faulty(z, tau, char=None):
        vals = evaluate(z, tau, char)
        rows = np.asarray(z, dtype=complex).reshape(-1, 2)
        hit = np.array([r.tobytes() in low for r in rows]).reshape(np.shape(vals.mantissa))
        return theta.ScaledComplex(np.where(hit, 0.0, vals.mantissa), vals.log_scale,
                                   vals.err, vals.peak)

    monkeypatch.setattr(theta, "theta", faulty)


@pytest.mark.parametrize("draws, abel_points, rounds, note", [
    # trial 1 at attempt 0: trials 0 and 2 are mapped in round one, trial 1
    # alone in round two
    (((1, 0),), [24, 12], 2, None),
    # every attempt of trial 2: trials 0 and 1 are mapped in round one,
    # then seven rounds of trial 2 alone map nothing
    (tuple((2, a) for a in range(8)), [24], 8, "ThetaNearZeroError: theta(w) below floor"),
])
def test_fay_rounds_retry_theta_floor(draws, abel_points, rounds, note, monkeypatch, capsys):
    seed = 1000
    _low_theta_draws(monkeypatch, seed, draws)
    sample, evaluate = curves.sample_sets, theta.theta
    calls = {"sample": 0, "theta": 0}

    def count(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        abel = _abel_calls(mp)
        mp.setattr(curves, "sample_sets", count("sample", sample))
        mp.setattr(theta, "theta", count("theta", evaluate))
        _fay_g2(seed)
    # one sampler pass and one theta(w) call per round; the Abel maps of
    # a round cover its trials above the floor
    assert (abel, calls) == (abel_points, {"sample": rounds, "theta": rounds})
    rec = _assert_same_as_sequential(monkeypatch, seed)
    if note is None:
        assert rec.status == "PASS"
    else:
        assert rec.anchor == "internal-error" and rec.note == note


def test_fay_scaled_overflow_does_not_warn(capsys):
    # the err of a product of normalized prime forms overflows to inf
    # here, and numpy's overflow warning, an error under warnings as
    # errors, turned the check into an internal error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rec = _fay_g2(1017, m=24)
    assert code == 0 and rec.anchor == "fay-trisecant"
    assert (rec.status, f"{rec.residual:.6e}") == ("PASS", "4.532422e-08")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fay_rounds_read_the_genus_from_the_curve(m):
    # the trials draw w, reshape the Abel images and pick the odd
    # characteristic at the curve's own genus
    model = bundled("hyperelliptic_g4.json")
    assert cli._fay_rounds(model, m, 7) <= 1e-9


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


def test_curve_digest_hashes_the_file_bytes(tmp_path, capsys):
    # a CRLF copy of the bundled spec parses alike; its digest is the file's
    data = resources.files("holodiff").joinpath("data", "hyperelliptic_g2.json").read_bytes()
    assert b"\r" not in data
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    for argv, want in ((["periods"], data), (["periods", "--spec", str(crlf)], crlf.read_bytes())):
        assert main(argv) == 0
        assert f"curve-sha256={hashlib.sha256(want).hexdigest()}" in _lines(capsys)


@pytest.fixture
def empty_memo():
    """The CLI's curve memo, emptied before and after the test, so that no
    entry made under a patched constant reaches another test."""
    def clear():
        cli._parse.cache_clear()
        cli._curve_periods.cache_clear()

    clear()
    yield clear
    clear()


def _spy(monkeypatch, module, name):
    """The first arguments of the calls of module.name, as a list that grows."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg: calls.append(arg) or fn(arg))
    return calls


def _hyperelliptic_spec(path, branch_points):
    path.write_text(json.dumps({"type": "hyperelliptic", "branch_points": branch_points}))
    return path


@pytest.mark.parametrize("argv", [["verify-fay", "--genus", "2", "-m", "6"], ["verify-petri"],
                                  ["periods"], ["selftest"]], ids=lambda argv: argv[0])
def test_memo_hits_give_the_reports_of_an_empty_memo(argv, empty_memo, tmp_path, capsys):
    runs = []
    for k in range(4):
        if k == 3:
            assert cli._parse.cache_info().currsize  # the three runs before read a memoized model
            empty_memo()
        report = tmp_path / f"r{k}.txt"
        runs.append((main(argv + ["--report", str(report)]), report.read_bytes()))
    capsys.readouterr()
    assert runs[:3] == [runs[3]] * 3


def test_memo_parses_and_computes_once_per_file_bytes(empty_memo, monkeypatch, tmp_path, capsys):
    parses = _spy(monkeypatch, curves, "parse_curve_spec")
    periods = _spy(monkeypatch, jacobian, "compute_periods")
    spec = _hyperelliptic_spec(tmp_path / "g2.json", [-2.0, -1.0, 0.0, 1.0, 2.0])
    runs = (["periods", "--spec", str(spec)], ["verify-fay", "--genus", "2", "--spec", str(spec)])

    def tau_entries():
        out = []
        for argv in runs * 3:
            assert main(argv) == 0
            out += [ln for ln in _lines(capsys) if ln.startswith("check=periods-values")]
        assert out == out[:1] * 3
        return out[0]

    before = tau_entries()
    assert (len(parses), len(periods)) == (1, 1)
    # the same path with other bytes is another curve
    _hyperelliptic_spec(spec, [-2.0, -1.0, 0.0, 1.0, 2.5])
    after = tau_entries()
    assert (len(parses), len(periods)) == (2, 2)
    assert periods[1] is not periods[0] and after != before


@pytest.mark.parametrize("branch_points, error", [
    ([-2.0, -1.0, 0.0, 1.0, 2.0], "PeriodCertificateError"),
    ([0.0, 1.0, 2.0, 3.0, 1e6], "QuadratureError"),
])
def test_memo_keeps_no_failed_periods(branch_points, error, empty_memo, monkeypatch,
                                      tmp_path, capsys):
    # the symmetry certificate fails on the bundled genus-2 curve's tau,
    # which deviates by 5e-15, under a tolerance of 1e-16; the segment
    # quadrature of the second curve does not converge
    if error == "PeriodCertificateError":
        monkeypatch.setattr(jacobian, "SYMMETRY_TOL", 1e-16)
    spec = _hyperelliptic_spec(tmp_path / "c.json", branch_points)
    periods = _spy(monkeypatch, jacobian, "compute_periods")
    report = tmp_path / "r.txt"
    for argv in (["periods"], ["verify-fay", "--genus", "2"]):
        texts = []
        for _ in range(3):
            assert main(argv + ["--spec", str(spec), "--report", str(report)]) == 1
            texts.append(report.read_text())
        assert texts == texts[:1] * 3
        assert f"status=FAIL residual=- tol=- ms=0 note={error}: " in texts[0]
    capsys.readouterr()
    assert len(periods) == 6 and cli._curve_periods.cache_info().currsize == 0


def test_memo_evicts_the_least_recently_used_curve(empty_memo, monkeypatch, tmp_path, capsys):
    parses = _spy(monkeypatch, curves, "parse_curve_spec")
    specs = [_hyperelliptic_spec(tmp_path / f"c{k}.json", [-2.0, -1.0, 0.0, 1.0, 2.0 + k / 8])
             for k in range(cli._MEMO_CURVES + 1)]

    def load(k):
        assert main(["periods", "--spec", str(specs[k])]) == 0

    for k in range(cli._MEMO_CURVES):
        load(k)
    load(0)  # a hit: curve 1 is now the least recently used
    load(cli._MEMO_CURVES)  # one curve past the bound
    capsys.readouterr()
    assert len(parses) == cli._MEMO_CURVES + 1
    assert (cli._parse.cache_info().currsize == cli._curve_periods.cache_info().currsize
            == cli._MEMO_CURVES)
    load(0)
    assert len(parses) == cli._MEMO_CURVES + 1
    load(1)
    assert len(parses) == cli._MEMO_CURVES + 2


def test_memoized_curve_data_is_read_only(empty_memo):
    # a caller writing into a shared entry would change every later run
    hyperelliptic, _ = cli._load_curve(None, "hyperelliptic_g2.json")
    plane, _ = cli._load_curve(None, "fermat_quintic.json")
    pd = cli._curve_periods(hyperelliptic)
    assert cli._curve_periods(hyperelliptic) is pd
    for arr in (pd.tau.z, pd.tau.y, pd.tau.y_inv, pd.a_periods, pd.b_periods, pd.normalization,
                pd.seg_values, pd.seg_errors, hyperelliptic._e, plane._r, plane._s, plane._c,
                plane._y_slots):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        pd.tau.z += 1
    with pytest.raises(AttributeError):
        pd.tau = None


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


@pytest.mark.parametrize("content, message", [
    # a binary file, brackets nested past the JSON parser's recursion
    # limit, and an integer literal past Python's 4300-digit conversion limit
    (b"\x7fELF\x02\x01\x01\x00\xff\xfe", "not UTF-8 text: invalid start byte"),
    (b"[" * 2000, "JSON nested too deeply"),
    (b'{"type": "hyperelliptic", "branch_points": [1' + b"0" * 5000 + b", 2, 3]}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
])
def test_malformed_curve_file_is_a_usage_error(content, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["verify-petri", "--spec", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid curve file: {message}")


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
