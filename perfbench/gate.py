"""Output gates: decide whether one operation's result is correct.

Each ``check_*`` function takes an operation and its outcome and returns
``None`` when the result is right, or a one-line reason when it is not.
The expected values come from the operation's own arguments, from the
package's exported closed forms, and from identities such as the Berger
multiplicities adding up to the round ones.  Gates run outside the timed
region.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Optional

from bergersphere import models as M
from bergersphere import spectra as S
from bergersphere import stability as ST

from workloads import Op


@dataclass
class Outcome:
    """What one operation produced: exit code and stdout for CLI operations,
    the return value for library calls, or the exception it raised."""

    rc: Optional[int] = None
    stdout: str = ""
    value: Any = None
    error: Optional[str] = None

    def fingerprint(self) -> str:
        """A comparable rendering, used to check traced against untraced runs."""
        return repr((self.rc, self.stdout, self.value, self.error))


# ---------------------------------------------------------------------------
# sampled-verify
# ---------------------------------------------------------------------------

_VERIFY_HEAD = [
    ("killing-flow-isometry", 1e-6), ("killing-flow-isometry", 1e-6),
    ("curvature-symmetries", 1e-10), ("round-sphere-degeneration", 1e-12),
    ("sectional-consistency", 1e-12), ("ricci-vertical", 1e-12),
]
_CURVATURE = [("curvature-symmetries", 1e-10), ("sectional-consistency", 1e-12),
              ("ricci-vertical", 1e-12), ("round-sphere-degeneration", 1e-12)]


def _tai_expected(samples: int) -> list[tuple[str, int, float]]:
    sff = max(10, samples // 5)
    return [("tai-isometry", samples, 1e-8), ("tai-sphere-containment", samples, 1e-10),
            ("tai-sff-law", sff, 1e-6), ("tai-sff-j-invariance", sff, 1e-8),
            ("tai-minimality", sff, 1e-6)]


def expected_checks(argv) -> list[tuple[str, int, float, int]]:
    """(name, samples, tolerance, seed) of every report the command must print."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    samples, seed = int(opts["--samples"]), int(opts["--seed"])
    if argv[0] == "verify":
        quarter = max(50, samples // 4)
        rows = [(name, samples, tol) for name, tol in _VERIFY_HEAD]
        rows += [("metric-definiteness", quarter, 0.0),
                 ("geodesic-sphere-isometry", samples, 1e-8),
                 ("geodesic-sphere-isometry", samples, 1e-8),
                 ("gauss-flatness", 64, 1e-12), ("gauss-flatness", 64, 1e-12)]
        rows += _tai_expected(quarter)
        rows += [("minimality-clifford", 2, 1e-4), ("minimality-clifford", 2, 1e-4),
                 ("minimality-great-circle", 2, 1e-4), ("minimality-real-sphere", 1, 1e-4),
                 ("clifford-lattice-crosscheck", 5, 0.0),
                 ("vertical-spectrum-crosscheck", 8, 0.0), ("bidegree-crosscheck", 45, 0.0)]
    elif argv[0] == "tai-check":
        rows = _tai_expected(samples)
    else:
        rows = [(name, samples, tol) for name, tol in _CURVATURE]
    return [(name, s, tol, seed) for name, s, tol in rows]


_REPORT_LINE = re.compile(r"^(PASS|FAIL)  (\S+)  max_error=\S+  tolerance=(\S+)  "
                          r"samples=(-?\d+)  seed=(-?\d+)$")


def parse_reports(text: str, fmt: str) -> list[tuple[bool, str, int, float, int]]:
    if fmt == "json":
        return [(c["pass"], c["name"], c["samples"], float(c["tolerance"]), c["seed"])
                for c in json.loads(text)["checks"]]
    rows = []
    for line in text.splitlines():
        m = _REPORT_LINE.match(line)
        if not m:
            raise ValueError(f"unparsable report line {line!r}")
        rows.append((m[1] == "PASS", m[2], int(m[4]), float(m[3]), int(m[5])))
    return rows


def check_sampled(op: Op, out: Outcome) -> Optional[str]:
    if out.error:
        return f"raised {out.error}"
    if out.rc != 0:
        return f"exit code {out.rc}, expected 0"
    fmt = op.argv[op.argv.index("--format") + 1]
    try:
        reports = parse_reports(out.stdout, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not parse: {exc}"
    failed = [name for ok, name, *_ in reports if not ok]
    if failed:
        return f"checks reported FAIL: {failed}"
    empty = [name for _, name, samples, *_ in reports if samples <= 0]
    if empty:
        return f"checks examined no samples: {empty}"
    got = [(name, samples, tol, seed) for _, name, samples, tol, seed in reports]
    if got != expected_checks(op.argv):
        return "report list differs from the one the arguments ask for"
    return None


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------


def _opts(argv) -> dict[str, str]:
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok] = "" if nxt.startswith("--") else nxt
    return out


def _model_from(name: str, opts) -> Any:
    get = lambda key: int(opts[key])  # noqa: E731
    return {
        "tg-berger": lambda: M.TotallyGeodesicBergerSphere(get("--n"), get("--m")),
        "circle": lambda: M.CircleCover(get("--n"), get("--s")),
        "veronese-rp3": M.VeroneseRP3,
        "veronese-s3": M.VeroneseS3,
        "totally-real": lambda: M.TotallyRealSphere(get("--n"), get("--d")),
        "clifford": lambda: M.CliffordHypersurface(get("--m1"), get("--m2")),
    }[name]()


_LABEL = re.compile(r"^(tg-berger|circle|totally-real|clifford)\((\w+)=(\d+),(\w+)=(\d+)\)$")


def _model_from_label(label: str) -> Any:
    if label in ("veronese-rp3", "veronese-s3"):
        return _model_from(label, {})
    m = _LABEL.match(label)
    if not m:
        raise ValueError(f"unknown model label {label!r}")
    return _model_from(m[1], {f"--{m[2]}": m[3], f"--{m[4]}": m[5]})


def closed_form(model, tau: Fraction):
    """(index, nullity) from the exported closed forms; for covered circles,
    whose only closed form is the stability predicate, (index == 0) as a bool."""
    if isinstance(model, M.CircleCover):
        return M.circle_stability(model.s, tau)
    if isinstance(model, M.TotallyGeodesicBergerSphere):
        ref = M.tg_berger_index_nullity(model.n, model.m, tau)
    elif isinstance(model, M.CliffordHypersurface):
        ref = M.clifford_index_nullity(model.m1, model.m2, tau)
    elif isinstance(model, M.TotallyRealSphere):
        ref = M.totally_real_sphere_index_nullity(model.n, model.d, tau)
    else:
        ref = M.veronese_index_nullity(tau, quotient=isinstance(model, M.VeroneseRP3))
    return ref.index, ref.nullity


def closed_form_mismatch(model, tau: Fraction, index: int, nullity: int) -> Optional[str]:
    """Compare one (index, nullity) pair with the exported closed forms."""
    want = closed_form(model, tau)
    if isinstance(want, bool):
        if want != (index == 0):
            return f"{model.label()} at {tau}: index {index} but circle_stability={want}"
    elif want != (index, nullity):
        return f"{model.label()} at {tau}: got ({index}, {nullity}), closed form {want}"
    return None


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


_INDEX_LINE = re.compile(r"^(index|nullity): (?:>= )?(\d+)$", re.M)
_MODEL_LINE = re.compile(r"^model: (\S+)  d=(\d+)  tau\^2=(\S+)$", re.M)


def _parse_index(text: str, fmt: str) -> tuple[str, Fraction, int, int]:
    if fmt == "json":
        doc = json.loads(text)
        return doc["model"], Fraction(doc["tau_sq"]), doc["index"], doc["nullity"]
    if fmt == "csv":
        (row,) = _csv_rows(text)
        return (row["model"], Fraction(int(row["tau_sq_num"]), int(row["tau_sq_den"])),
                int(row["index"]), int(row["nullity"]))
    head = _MODEL_LINE.search(text)
    vals = dict((k, int(v)) for k, v in _INDEX_LINE.findall(text))
    return head[1], Fraction(head[3]), vals["index"], vals["nullity"]


def _check_index(op: Op, opts, fmt: str, text: str) -> Optional[str]:
    label, tau, index, nullity = _parse_index(text, fmt)
    model = _model_from(opts["--model"], opts)
    if label != model.label() or tau != Fraction(opts["--tau-sq"]):
        return f"output names {label} at {tau}"
    return closed_form_mismatch(model, tau, index, nullity)


def _phase_model_count(n_max: int) -> int:
    per_n = [n + 2 + n + (n + 1) // 2 for n in range(1, n_max + 1)]
    return sum(per_n) + 2


def _check_phase(op: Op, opts, fmt: str, text: str) -> Optional[str]:
    rows = json.loads(text)["rows"] if fmt == "json" else _csv_rows(text)
    grid = {Fraction(t) for t in opts["--tau-sq-grid"].split(",")}
    expected = _phase_model_count(int(opts["--n-max"])) * len(grid)
    if len(rows) != expected:
        return f"{len(rows)} phase rows, expected {expected}"
    for row in rows:
        tau = Fraction(int(row["tau_sq_num"]), int(row["tau_sq_den"]))
        if tau not in grid:
            return f"row at tau^2={tau} outside the requested grid"
        bad = closed_form_mismatch(_model_from_label(row["model"]), tau,
                                   int(row["index"]), int(row["nullity"]))
        if bad:
            return bad
    return None


def _check_spectrum(op: Op, opts, fmt: str, text: str) -> Optional[str]:
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["modes"]
        if Fraction(doc["tau_sq"]) != Fraction(opts["--tau-sq"]):
            return "json names the wrong tau^2"
    elif fmt == "csv":
        rows = _csv_rows(text)
    else:
        lines = text.splitlines()
        header = lines[0].split()
        rows = [dict(zip(header, line.split())) for line in lines[1:]]
    tau = Fraction(opts["--tau-sq"])
    if opts["--space"] == "berger":
        n, kmax = int(opts["--n"]), int(opts.get("--kmax") or 4)
        per_k = {k: 0 for k in range(kmax + 1)}
        for row in rows:
            k, p, mult = int(row["k"]), int(row["p"]), int(row["multiplicity"])
            if Fraction(row["value"]) != S.berger_eigenvalue(n, tau, k, p) \
                    or mult != S.berger_multiplicity(n, k, p):
                return f"berger mode ({k},{p}) differs from the closed form"
            per_k[k] += mult
        if any(total != S.round_multiplicity(n, k) for k, total in per_k.items()):
            return "berger multiplicities do not add up to the round multiplicities"
        return None
    m1, m2 = int(opts["--m1"]), int(opts["--m2"])
    if "--low" in opts:
        labels = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    else:
        kmax = int(opts.get("--kmax") or 4)
        labels = [(k1, k2, p) for k1 in range(kmax + 1) for k2 in range(kmax - k1 + 1)
                  for p in range((k1 + k2) // 2 + 1)
                  if S.clifford_multiplicity(m1, m2, k1, k2, p)]
    got = [(int(r["k1"]), int(r["k2"]), int(r["p"])) for r in rows]
    if got != labels:
        return "clifford mode labels differ from the requested range"
    for row, (k1, k2, p) in zip(rows, labels):
        if Fraction(row["value"]) != S.clifford_eigenvalue(m1, m2, tau, k1, k2, p) \
                or int(row["multiplicity"]) != S.clifford_multiplicity(m1, m2, k1, k2, p):
            return f"clifford mode ({k1},{k2},{p}) differs from the closed form"
    return None


def _check_moduli(op: Op, opts, fmt: str, text: str) -> Optional[str]:
    if fmt == "json":
        rows = [(Fraction(r["tau_sq"]), r["x"], r["y"]) for r in json.loads(text)["rows"]]
    else:
        lines = _csv_rows(text) if fmt == "csv" else [
            dict(zip(("tau_sq_num", "tau_sq_den", "x", "y"), line.split()))
            for line in text.splitlines()[1:]]
        rows = [(Fraction(int(r["tau_sq_num"]), int(r["tau_sq_den"])), float(r["x"]),
                 float(r["y"])) for r in lines]
    samples = int(opts["--samples"])
    lo, hi = Fraction(opts["--tau-sq-min"]), Fraction(opts["--tau-sq-max"])
    if len(rows) != samples:
        return f"{len(rows)} moduli rows, expected {samples}"
    step = (hi - lo) / (samples - 1)
    for j, (tau, x, y) in enumerate(rows):
        ref = ST.clifford_moduli_vector(hi - j * step)
        if tau != hi - j * step or (x, y) != (ref.x, ref.y):
            return f"moduli row {j} differs from clifford_moduli_vector"
    return None


_TABLE_CHECKS = {"index": _check_index, "phase": _check_phase,
                 "spectrum": _check_spectrum, "moduli": _check_moduli}


def check_tables(op: Op, out: Outcome) -> Optional[str]:
    if out.error:
        return f"raised {out.error}"
    if out.rc != op.expect_rc:
        return f"exit code {out.rc}, expected {op.expect_rc}"
    if op.expect_rc != 0:
        return "bad input produced output" if out.stdout else None
    opts = _opts(op.argv)
    try:
        return _TABLE_CHECKS[op.kind](op, opts, opts["--format"], out.stdout)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return f"output does not parse back: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# exact-oracles
# ---------------------------------------------------------------------------


def lxi_expected(n: int, tau: Fraction, k: int) -> list[tuple[Fraction, int]]:
    """Frequency split of degree-k harmonics from the closed multiplicities."""
    split: dict[Fraction, int] = {}
    for p in range(k // 2 + 1):
        mult = S.berger_multiplicity(n, k, p)
        if mult:
            key = Fraction(-((k - 2 * p) ** 2)) / tau
            split[key] = split.get(key, 0) + mult
    return sorted(split.items(), reverse=True)


def check_oracles(op: Op, out: Outcome) -> Optional[str]:
    if out.error:
        return f"raised {out.error}"
    if op.kind == "harmonic":
        want = S.bidegree_dimension(*op.args)
        return None if out.value == want else f"dimension {out.value}, closed form {want}"
    if op.kind == "lxi":
        n, tau, k = op.args
        want = lxi_expected(n, tau, k)
        return None if list(out.value) == want else f"spectrum {out.value}, closed form {want}"
    tau, _ = op.args
    ref = M.clifford_index_nullity(0, 0, tau)
    got = (out.value.index, out.value.nullity)
    if got != (ref.index, ref.nullity):
        return f"torus oracle {got}, closed form {(ref.index, ref.nullity)}"
    return None


CHECKS = {"sampled-verify": check_sampled, "exact-tables": check_tables,
          "exact-oracles": check_oracles}


# ---------------------------------------------------------------------------
# Self-test: a tampered result must be counted as a failure
# ---------------------------------------------------------------------------


def _flip_first(pattern: str, text: str) -> str:
    """Replace the first matched count n by 0, or by 1 when n is 0.  This also
    flips index == 0, the only thing the gate checks for covered circles."""
    return re.sub(pattern, lambda m: m[1] + ("0" if int(m[2]) else "1"), text,
                  count=1, flags=re.M)


def tamper(op: Op, out: Outcome) -> Optional[Outcome]:
    """A copy of a correct outcome with one gated value changed, or None when
    this operation kind has no tamper rule."""
    if op.argv is None:
        if op.kind == "harmonic":
            return replace(out, value=out.value + 1)
        if op.kind == "lxi":
            (value, mult), *rest = out.value
            return replace(out, value=[(value, mult + 1), *rest])
        return replace(out, value=replace(out.value, index=out.value.index + 1))
    if op.kind in ("verify", "curvature-check", "tai-check"):
        return replace(out, stdout=_flip_first(r'((?:samples=|"samples": ))(\d+)', out.stdout))
    if op.kind not in ("index", "phase") or op.expect_rc != 0:
        return None
    fmt = _opts(op.argv)["--format"]
    if fmt == "json":
        text = _flip_first(r'("index": )(\d+)', out.stdout)
    elif fmt == "csv" or op.kind == "phase":
        rows = list(csv.reader(io.StringIO(out.stdout)))
        col = rows[0].index("index")
        rows[1][col] = "0" if int(rows[1][col]) else "1"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    else:
        text = _flip_first(r"^(index: (?:>= )?)(\d+)", out.stdout)
    return replace(out, stdout=text)
