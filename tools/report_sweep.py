"""Pinned-report sweep: run the CLI over fixed seeds and diff two sweeps.

    python tools/report_sweep.py run OUT.json [--src DIR] [--seeds 1000-1039]
    python tools/report_sweep.py diff BEFORE.json AFTER.json

`run` imports ``holodiff`` from DIR (default: this checkout's ``src``) and
runs each command below in-process through ``holodiff.cli.main``, once per
seed, plus ``periods`` on the bundled genus-2, lemniscatic and genus-4
curves.  A ``--spec`` names a curve file of the imported package's
``data/``; the run is keyed by the file name, so sweeps of two checkouts
line up.  It
stores the resolved path of the ``holodiff/__init__.py`` it imported, and
every run's exit code, its report with the ``ms=`` timings stripped and
the messages of the warnings it raised, in OUT.json.  The default seeds give 8 x 40 + 3 = 323 runs.

`diff` first prints the two sides' ``holodiff`` paths (``?`` for a file
written before they were stored), so a sweep that loaded the same tree
twice shows at once.  Then it prints every changed exit code, every
changed report line and every changed check verdict, then each check's
FAIL count per command on both sides, then for each check the number of
changed residuals and the largest |log10(after/before)| among them (inf
when one side is 0), then, per command, the number of runs that raised a
warning on each side.  Warnings count toward neither the identical runs
nor the exit code.
It exits 1 when an exit code or a verdict changed, else 0.  To compare two
commits, run the sweep once with ``--src`` pointing at each checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

SEEDED_COMMANDS = (
    "verify-fay --genus 2 -m 6",
    "verify-fay --genus 2 -m 24",
    "verify-fay --genus 1 -m 3",
    "verify-siegel --genus 8",
    "verify-siegel --genus 3",
    "verify-petri",
    "verify-petri --spec hyperelliptic_g4.json",
    "selftest",
)
PERIOD_CURVES = ("hyperelliptic_g2.json", "lemniscatic_g1.json", "hyperelliptic_g4.json")

_MS = re.compile(r" ms=\S+")
_CHECK = re.compile(r"^check=(\S+) .*?status=(\S+)")
_RESIDUAL = re.compile(r"^check=(\S+) .*?residual=(\S+)")


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _run_one(main, argv: list[str]) -> dict:
    out = io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    return {"exit": code, "report": _MS.sub("", out.getvalue()).splitlines(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def run_sweep(src: Path, seeds: range) -> dict:
    sys.path.insert(0, str(src))
    import holodiff
    from holodiff.cli import main

    data = Path(holodiff.__file__).parent / "data"
    runs = {}
    for command in SEEDED_COMMANDS:
        for seed in seeds:
            key = f"{command} --seed {seed}"
            argv = key.split()
            if "--spec" in argv:
                at = argv.index("--spec") + 1
                argv[at] = str(data / argv[at])
            runs[key] = _run_one(main, argv)
    for name in PERIOD_CURVES:
        runs[f"periods {name}"] = _run_one(main, ["periods", "--spec", str(data / name)])
    return {"holodiff": str(Path(holodiff.__file__).resolve()),
            "seeds": [seeds.start, seeds.stop - 1], "runs": runs}


def _verdicts(report: list[str]) -> dict:
    return dict(m.groups() for m in map(_CHECK.match, report) if m)


def _residuals(report: list[str]) -> dict:
    # a record without a residual (periods-values) prints residual=-
    return {m[1]: float(m[2]) for m in map(_RESIDUAL.match, report) if m and m[2] != "-"}


def _log_drift(before: float, after: float) -> float:
    """|log10(after/before)|; inf when exactly one side is 0."""
    if before == after:
        return 0.0
    if before == 0.0 or after == 0.0:
        return math.inf
    return abs(math.log10(after / before))


def _command(key: str) -> str:
    return key.split(" --seed ")[0]


def diff_sweeps(before: dict, after: dict) -> int:
    print(f"holodiff: {before.get('holodiff', '?')} -> {after.get('holodiff', '?')}")
    a, b = before["runs"], after["runs"]
    changed = 0
    for key in sorted(a.keys() ^ b.keys()):
        print(f"only in {'before' if key in a else 'after'}: {key}")
        changed += 1
    lines = same = 0
    drift: dict[str, list[float]] = {}
    for key in (k for k in a if k in b):
        ra, rb = a[key], b[key]
        if (ra["exit"], ra["report"]) == (rb["exit"], rb["report"]):
            same += 1
            continue
        print(f"== {key}")
        if ra["exit"] != rb["exit"]:
            print(f"  exit {ra['exit']} -> {rb['exit']}")
            changed += 1
        for line in difflib.unified_diff(ra["report"], rb["report"], n=0, lineterm=""):
            if line[:1] in "-+" and not line.startswith(("---", "+++")):
                print(f"  {line}")
                lines += line[0] == "+"
        va, vb = _verdicts(ra["report"]), _verdicts(rb["report"])
        for check in sorted(va.keys() | vb.keys()):
            if va.get(check) != vb.get(check):
                print(f"  verdict {check}: {va.get(check)} -> {vb.get(check)}")
                changed += 1
        xa, xb = _residuals(ra["report"]), _residuals(rb["report"])
        for check in xa.keys() & xb.keys():
            if xa[check] != xb[check]:
                drift.setdefault(check, []).append(_log_drift(xa[check], xb[check]))
    print(f"runs: {len(a)} before, {len(b)} after, {same} identical, "
          f"{lines} changed lines, {changed} changed exit codes or verdicts")
    runs = Counter(_command(key) for key in a)
    fails = [Counter((_command(key), c) for key, r in side.items()
                     for c, s in _verdicts(r["report"]).items() if s == "FAIL")
             for side in (a, b)]
    for command, check in sorted(fails[0].keys() | fails[1].keys()):
        n = runs[command]
        print(f"FAIL {check} in {command}: {fails[0][command, check]} of {n} before, "
              f"{fails[1][command, check]} of {n} after")
    for check, logs in sorted(drift.items()):
        print(f"residual drift {check}: {len(logs)} changed, "
              f"max |log10(after/before)| = {max(logs):.3g}")
    # a file written before warnings were recorded counts none
    warned = [Counter(_command(key) for key, r in side.items() if r.get("warnings"))
              for side in (a, b)]
    for command in sorted(warned[0].keys() | warned[1].keys()):
        n = runs[command]
        print(f"warnings in {command}: {warned[0][command]} of {n} runs before, "
              f"{warned[1][command]} of {n} after")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    p = subs.add_parser("run", help="run the sweep and write its reports")
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    p.add_argument("--seeds", type=_seed_range, default=_seed_range("1000-1039"),
                   help="inclusive seed range LO-HI")
    p = subs.add_parser("diff", help="compare two sweep files")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        sweep = run_sweep(args.src, args.seeds)
        args.out.write_text(json.dumps(sweep, indent=1) + "\n", encoding="utf-8")
        return 0
    before, after = (json.loads(p.read_text(encoding="utf-8")) for p in (args.before, args.after))
    return diff_sweeps(before, after)


if __name__ == "__main__":
    sys.exit(main())
