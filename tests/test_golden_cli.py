"""Golden outputs: the exit code, stdout and stderr of a fixed corpus of exact
CLI invocations must not change.

``golden_cli.sha256`` holds one line per invocation, the sha256 of
``json.dumps([exit code, stdout, stderr])`` and the arguments.  The corpus
covers ``index`` for every family at the threshold values of tau^2 in all
formats, ``spectrum`` for both spaces with and without ``--low``, ``phase``,
``moduli``, the ``--help`` screens, the bad-input cases and a few deep
tables (``DEEP_TABLES``); sampled commands, whose ``max_error`` is a
float, are left out.  After a change that is meant to alter an output,
rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and list every changed invocation with its reason.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from bergersphere import cli
from test_cli import BAD_INPUTS

DIGESTS = Path(__file__).with_name("golden_cli.sha256")
THRESHOLDS = ["1/8", "1/7", "1/6", "1/5", "1/4", "1/3", "1/2", "1"]
FORMATS = ["table", "csv", "json"]
# Every threshold of the phase models up to n = 12: 1/(2m+2), 1/(s(2m+2)),
# 1/(d+1) and 1/(2n+1) are all 1/k with 2 <= k <= 25, and 1/4, 1/8 and 1.
PHASE_THRESHOLD_GRID = ",".join([f"1/{k}" for k in range(25, 1, -1)] + ["1"])
# Tables far beyond the default depth, where a row form or a frequency count
# could go wrong without the shallow corpus noticing, and the largest phase
# diagram the corpus holds, at every threshold.  Depth 32 keeps the Clifford
# index fast; depth 64 takes seconds.
DEEP_TABLES = (
    [["spectrum", "--space", "clifford", "--m1", "1", "--m2", "2", "--tau-sq", "2/7",
      "--kmax", "16", "--format", fmt] for fmt in FORMATS]
    + [["spectrum", "--space", "berger", "--n", "4", "--tau-sq", "2/7", "--kmax", "16"],
       ["index", "--model", "clifford", "--m1", "3", "--m2", "3", "--tau-sq", "1/3",
        "--kmax", "32"]]
    + [["phase", "--n-max", "12", "--tau-sq-grid", PHASE_THRESHOLD_GRID, "--format", fmt]
       for fmt in ("csv", "json")])


def _model_flags():
    out = [["--model", "veronese-rp3"], ["--model", "veronese-s3"]]
    for n in range(1, 4):
        out += [["--model", "tg-berger", "--n", str(n), "--m", str(m)] for m in range(n)]
        out += [["--model", "totally-real", "--n", str(n), "--d", str(d)]
                for d in range(1, n + 1)]
        out += [["--model", "clifford", "--m1", str(m1), "--m2", str(n - 1 - m1)]
                for m1 in range(n) if m1 <= n - 1 - m1]
    out += [["--model", "circle", "--n", "1", "--s", str(s)] for s in (1, 2, 3)]
    out += [["--model", "circle", "--n", "2", "--s", "2"]]
    return out


def corpus() -> list[list[str]]:
    argvs = [["index", *flags, "--tau-sq", ts, "--format", fmt]
             for flags in _model_flags() for ts in THRESHOLDS for fmt in FORMATS]
    for ts in ("1/3", "1/2", "1"):
        for fmt in FORMATS:
            argvs += [["spectrum", "--space", "berger", "--n", n, "--tau-sq", ts,
                       "--format", fmt] for n in ("1", "2")]
            argvs += [["spectrum", "--space", "clifford", "--m1", m1, "--m2", "0",
                       "--tau-sq", ts, "--format", fmt, *low]
                      for m1 in ("0", "1") for low in ([], ["--low"])]
    argvs.append(["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "2/5", "--kmax", "6"])
    for fmt in ("csv", "json"):
        argvs += [["phase", "--n-max", n, "--format", fmt] for n in ("1", "2", "3")]
        argvs.append(["phase", "--n-max", "2", "--tau-sq-grid", "1/5,2/7,1/3", "--format", fmt])
    for fmt in FORMATS:
        argvs.append(["moduli", "--format", fmt])
        argvs.append(["moduli", "--samples", "5", "--tau-sq-min", "1/4", "--format", fmt])
    argvs += [[*cmd, "--help"] for cmd in ([], ["spectrum"], ["index"], ["phase"], ["moduli"],
                                           ["verify"], ["tai-check"], ["curvature-check"])]
    argvs += BAD_INPUTS
    argvs += [
        ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "0"],
        ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "0.5"],
        ["spectrum", "--space", "berger", "--tau-sq", "1/3"],
        ["index", "--model", "circle", "--n", "1", "--tau-sq", "1/2"],
        ["index", "--model", "circle", "--n", "1", "--s", "5", "--tau-sq", "1/2", "--kmax", "2"],
        ["index", "--model", "circle", "--n", "1", "--s", "2", "--tau-sq", "1/2", "--kmax", "0"],
        ["index", "--model", "totally-real", "--n", "1", "--d", "3", "--tau-sq", "1/2"],
        ["tai-check", "--tau-sq", "1", "--n", "2"],
        ["moduli", "--samples", "1"],
    ]
    argvs += DEEP_TABLES
    return argvs


def digest(argv: list[str]) -> str:
    """sha256 of (exit code, stdout, stderr) of one in-process invocation;
    ``--help`` and argparse errors end in SystemExit, whose code is kept."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _recorded() -> tuple[str, list[tuple[str, str]]]:
    header, *lines = DIGESTS.read_text().splitlines()
    return header, [tuple(line.split("  ", 1)) for line in lines]


def _python() -> str:
    return "python %d.%d" % sys.version_info[:2]


def test_corpus_is_the_recorded_one():
    _, recorded = _recorded()
    assert [argv for _, argv in recorded] == [" ".join(a) for a in corpus()]


def test_outputs_match_recorded_digests(monkeypatch):
    # argparse wraps help text at the terminal width; the sampled commands
    # read the seed variable.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("BERGER_SEED", raising=False)
    header, recorded = _recorded()
    # Help screens are formatted by the standard library's argparse, whose
    # layout changes between Python versions; they are compared only on the
    # version the digests were recorded with.
    same_python = header == _python()
    changed = [argv for (want, argv), args in zip(recorded, corpus())
               if (same_python or "--help" not in args) and digest(args) != want]
    assert changed == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("BERGER_SEED", None)
    old = {argv: want for want, argv in _recorded()[1]}
    new = [(" ".join(a), digest(a)) for a in corpus()]
    for argv in sorted(old.keys() - dict(new).keys()):
        print(f"removed: {argv}")
    for argv, got in new:
        if old.get(argv, got) != got:
            print(f"changed: {argv}")
        elif argv not in old:
            print(f"added: {argv}")
    lines = [_python()] + [f"{got}  {argv}" for argv, got in new]
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {DIGESTS}")
