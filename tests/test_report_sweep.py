"""Tests of tools/report_sweep.py: one seed run, then diffs against edited copies."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_sweep.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "seed1000.json"
    done = subprocess.run([sys.executable, str(TOOL), "run", str(out), "--seeds", "1000"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return out


def _edited(path, tmp_path, edit):
    """Copy of the sweep file with the first report line `edit` changes rewritten."""
    data = json.loads(path.read_text(encoding="utf-8"))
    for run in data["runs"].values():
        for i, line in enumerate(run["report"]):
            new = edit(line)
            if new != line:
                run["report"][i] = new
                copy = tmp_path / "edited.json"
                copy.write_text(json.dumps(data), encoding="utf-8")
                return copy
    raise AssertionError("no report line to edit")


def _diff(before, after, capsys):
    code = _load_tool().main(["diff", str(before), str(after)])
    return code, capsys.readouterr().out


def test_sweep_of_one_seed_matches_itself(sweep, capsys):
    data = json.loads(sweep.read_text(encoding="utf-8"))
    assert data["seeds"] == [1000, 1000]
    assert len(data["runs"]) == 7 + 3
    petri_g4 = data["runs"]["verify-petri --spec hyperelliptic_g4.json --seed 1000"]["report"]
    assert any("rank=7 expected=7" in line for line in petri_g4)
    periods_g4 = data["runs"]["periods hyperelliptic_g4.json"]
    assert periods_g4["exit"] == 0
    assert any("min-eig=" in line for line in periods_g4["report"])
    code, out = _diff(sweep, sweep, capsys)
    assert code == 0
    assert "runs: 10 before, 10 after, 10 identical, 0 changed lines" in out


def test_sweep_records_the_holodiff_it_imported(sweep, capsys):
    data = json.loads(sweep.read_text(encoding="utf-8"))
    init = str(ROOT / "src" / "holodiff" / "__init__.py")
    assert data["holodiff"] == init
    code, out = _diff(sweep, sweep, capsys)
    assert out.splitlines()[0] == f"holodiff: {init} -> {init}"


def test_sweep_diff_counts_an_edited_residual_digit(sweep, tmp_path, capsys):
    def bump_digit(line):
        if "residual=" not in line:
            return line
        head, _, tail = line.partition("residual=")
        digit = tail[7]  # last mantissa digit of d.dddddde-XX
        return f"{head}residual={tail[:7]}{(int(digit) + 1) % 10}{tail[8:]}"

    code, out = _diff(sweep, _edited(sweep, tmp_path, bump_digit), capsys)
    assert code == 0
    assert "1 changed lines, 0 changed exit codes or verdicts" in out
    assert "residual drift" in out


def test_sweep_diff_fails_on_a_flipped_verdict(sweep, tmp_path, capsys):
    def flip(line):
        return line.replace("status=PASS", "status=FAIL", 1)

    code, out = _diff(sweep, _edited(sweep, tmp_path, flip), capsys)
    assert code == 1
    assert "-> FAIL" in out
    assert "1 changed lines, 1 changed exit codes or verdicts" in out
