"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gate import MalformedReport, check_report  # noqa: E402
from speed import REFERENCE_S, scaled  # noqa: E402
from tracing import Tracer  # noqa: E402

GOOD = """tool=holodiff
version=0.1.0
command=verify-siegel
seed=7
curve-sha256=-
check=siegel-a anchor=x status=PASS residual=1.000000e-12 tol=1.000000e-10 ms=3
check=siegel-b anchor=y status=FAIL residual=2.000000e-09 tol=1.000000e-10 ms=0 note=k=v
overall=FAIL checks=2 failures=1 warnings=0
"""


def _gate(text, exit_code=1):
    return check_report(text, command="verify-siegel", seed=7,
                        expected_checks={"siegel-a", "siegel-b"}, exit_code=exit_code)


def test_smoke_mode_prints_every_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "smoke ok"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_METRICS)


def test_scaling_uses_the_faster_reference_reading():
    assert scaled(0.01, REFERENCE_S, 2 * REFERENCE_S) == 0.01
    assert scaled(0.01, 2 * REFERENCE_S, 4 * REFERENCE_S) == 0.005


def test_gate_accepts_a_consistent_report():
    verdict = _gate(GOOD)
    assert verdict.failed_checks == ["siegel-b:y"]


@pytest.mark.parametrize("broken, exit_code", [
    (GOOD.replace("failures=1", "failures=0"), 1),
    (GOOD.replace("checks=2", "checks=3"), 1),
    (GOOD, 0),
    (GOOD.replace("status=FAIL residual=2", "status=PASS residual=2"), 1),
    (GOOD.replace("seed=7", "seed=8"), 1),
    (GOOD.replace("check=siegel-b", "check=siegel-c"), 1),
    (GOOD.replace("anchor=y status=FAIL residual=2.000000e-09 tol=1.000000e-10",
                  "anchor=internal-error status=FAIL residual=2.000000e-09 tol=-"), 1),
    (GOOD[:-1], 1),
])
def test_gate_rejects_a_malformed_report(broken, exit_code):
    with pytest.raises(MalformedReport):
        _gate(broken, exit_code)


def test_tracer_wraps_names_bound_at_import():
    run.import_package()
    from holodiff import cli, pairindex

    original = pairindex.sym_square
    assert cli.sym_square is original
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.sym_square is pairindex.sym_square
        assert cli.sym_square.__wrapped__ is original
        cli.sym_square([[1.0, 2.0], [3.0, 4.0]], pairindex.build_pair_index(2))
    finally:
        tracer.uninstall()
    assert cli.sym_square is original and pairindex.sym_square is original
    per_func, per_layer = tracer.table(1)
    assert per_func["pairindex.sym_square"]["calls"] == 1
    assert per_func["pairindex.build_pair_index"]["calls"] == 1
    assert per_layer["pairindex"]["calls"] == 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "siegel-g8",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
