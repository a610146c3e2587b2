"""The benchmark's calls into the package still work.

`perfbench/workloads.py` drives theta-g4 through `theta.theta`,
`theta.ScaledComplex`, its `*` and `theta.scaled_rel_diff`, and reports
any exception there as an internal-error FAIL, so a broken call would
show only as a lower pass share.  The workloads module is imported as
`perfbench/run.py` imports it, with `perfbench` on sys.path.
"""

import sys
from pathlib import Path

import pytest

from holodiff import theta

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_theta_g4_requests_pass(workloads):
    wl = workloads.WORKLOADS["theta-g4"]
    reports = [wl.run(req)[1] for req in wl.make_requests(1, 12)]
    checks = [line for text in reports for line in text.splitlines() if line.startswith("check=")]
    assert len(checks) == 96
    assert [line for line in checks if "status=PASS" not in line] == []
    assert not any("internal-error" in line for line in checks)


def test_fay_g2_request_calls_theta(workloads, monkeypatch):
    calls = []
    evaluate = theta.theta

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(theta, "theta", counted)
    wl = workloads.WORKLOADS["fay-g2"]
    code, text = wl.run(wl.make_requests(1, 1)[0])
    assert code == 0 and "check=fay-trisecant " in text and "status=PASS" in text
    assert calls
