"""Command-line front end: spectra, index tables, phase diagrams, verification.

Output is deterministic for a fixed configuration and seed.  The
deformation parameter is always an exact fraction on the command line
(``--tau-sq 1/3``); float input is rejected because the classification
thresholds are exact rationals.  Exit codes: 0 success, 1 verification
failure, 2 bad input, 3 truncation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

from . import models, oracle, spectra, stability
from .geometry import GeometryDomainError, RoundSphereUnsupportedError
from .models import (CircleCover, CliffordHypersurface, TotallyGeodesicBergerSphere,
                     TotallyRealSphere, TruncationError, TruncationPolicy, VeroneseRP3,
                     VeroneseS3)

_MODEL_BY_NAME = {cls.name: cls for cls in models.MODELS}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_TRUNCATION = 3

DEFAULT_PHASE_GRID = "1/12,1/8,1/6,1/4,1/3,1/2,3/5,1"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def parse_tau_sq(text: str) -> Fraction:
    text = text.strip()
    if any(ch in text.lower() for ch in (".", "e")):
        raise CliError(
            f"tau^2 must be an exact fraction like 1/3, got {text!r}; "
            "float input is rejected because thresholds are exact rationals")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse tau^2 from {text!r}; expected num/den")
    if not (0 < value <= 1):
        raise CliError(f"tau^2 must lie in (0, 1], got {value}")
    return value


def _fraction_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _csv_dump(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _print_table(header, rows, out):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    if args.space == "berger":
        if args.n is None:
            raise CliError("--space berger needs --n")
        rows = [(m.k, m.p, _fraction_str(m.value), m.multiplicity, "vertical-split")
                for m in spectra.berger_modes(args.n, tau_sq, args.kmax)]
        header = ("k", "p", "value", "multiplicity", "source")
    else:
        if args.m1 is None or args.m2 is None:
            raise CliError("--space clifford needs --m1 and --m2")
        if args.low:
            cmodes = spectra.clifford_low_modes(args.m1, args.m2, tau_sq)
        else:
            cmodes = spectra.clifford_modes(args.m1, args.m2, tau_sq, args.kmax)
        rows = [(m.k1, m.k2, m.p, _fraction_str(m.value), m.multiplicity, "product-split")
                for m in cmodes]
        header = ("k1", "k2", "p", "value", "multiplicity", "source")

    if args.format == "json":
        out.write(json.dumps({
            "space": args.space,
            "tau_sq": str(tau_sq),
            "modes": [dict(zip(header, r)) for r in rows],
        }, indent=2) + "\n")
    elif args.format == "csv":
        out.write(_csv_dump(header, rows))
    else:
        _print_table(header, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def _build_model(args):
    """The ``--model`` family, built from the flags named like its fields."""
    cls = _MODEL_BY_NAME[args.model]
    values = []
    for field in dataclasses.fields(cls):
        value = getattr(args, field.name)
        if value is None:
            raise CliError(f"--model {args.model} needs --{field.name}")
        values.append(value)
    return cls(*values)


def _mode_rows(report):
    return [(m.family, ",".join(str(x) for x in m.labels), _fraction_str(m.value),
             m.multiplicity, m.sign) for m in report.nonpositive_modes]


def cmd_index(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    model = _build_model(args)
    policy = TruncationPolicy(k_max=args.kmax) if args.kmax is not None else None
    report = models.enumerate_index(model, tau_sq, policy)
    if args.format == "json":
        out.write(json.dumps({
            "model": model.label(),
            "d": model.dimension,
            "tau_sq": str(tau_sq),
            "index": report.index,
            "nullity": report.nullity,
            "index_is_lower_bound": report.index_is_lower_bound,
            "nullity_is_lower_bound": report.nullity_is_lower_bound,
            "truncation_k": report.truncation_k,
            "certificate": report.certificate,
            "modes": [{"family": f, "labels": l, "value": v, "multiplicity": mu, "sign": s}
                      for (f, l, v, mu, s) in _mode_rows(report)],
            "warnings": list(report.warnings),
        }, indent=2) + "\n")
    elif args.format == "csv":
        out.write(_csv_dump(
            ("model", "d", "tau_sq_num", "tau_sq_den", "index", "nullity", "source"),
            [(model.label(), model.dimension, tau_sq.numerator, tau_sq.denominator,
              report.index, report.nullity, "mode-enumeration")]))
    else:
        ge = ">= " if report.index_is_lower_bound else ""
        gn = ">= " if report.nullity_is_lower_bound else ""
        out.write(f"model: {model.label()}  d={model.dimension}  tau^2={tau_sq}\n")
        out.write(f"index: {ge}{report.index}\n")
        out.write(f"nullity: {gn}{report.nullity}\n")
        out.write(f"truncation: k<={report.truncation_k}  [{report.certificate}]\n")
        for w in report.warnings:
            out.write(f"warning: {w}\n")
        out.write("nonpositive modes:\n")
        _print_table(("family", "labels", "value", "multiplicity", "sign"),
                     _mode_rows(report), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------


def _phase_models(n_max: int):
    out = []
    for n in range(1, n_max + 1):
        for m in range(n):
            out.append(TotallyGeodesicBergerSphere(n, m))
        for s in (2, 3):
            out.append(CircleCover(n, s))
        for d in range(1, n + 1):
            out.append(TotallyRealSphere(n, d))
        for m1 in range(n):
            m2 = n - 1 - m1
            if m1 <= m2:
                out.append(CliffordHypersurface(m1, m2))
    out.append(VeroneseRP3())
    out.append(VeroneseS3())
    return out


def cmd_phase(args, out) -> int:
    grid = [parse_tau_sq(chunk) for chunk in args.tau_sq_grid.split(",") if chunk.strip()]
    if args.n_max < 1 or not grid:
        raise CliError("phase needs --n-max >= 1 and a nonempty --tau-sq-grid")
    rows = stability.phase_rows(_phase_models(args.n_max), grid)
    header = stability.PHASE_HEADER
    if args.format == "json":
        out.write(json.dumps({"rows": [dict(zip(header, r)) for r in rows]}, indent=2) + "\n")
    else:
        out.write(_csv_dump(header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------


def cmd_moduli(args, out) -> int:
    lo = parse_tau_sq(args.tau_sq_min)
    hi = parse_tau_sq(args.tau_sq_max)
    try:
        curve = stability.moduli_curve(args.samples, lo, hi)
    except GeometryDomainError as exc:
        raise CliError(str(exc))
    header = ("tau_sq_num", "tau_sq_den", "x", "y")
    rows = [(v.tau_sq.numerator, v.tau_sq.denominator, repr(v.x), repr(v.y))
            for v in curve]
    if args.format == "json":
        out.write(json.dumps({
            "rows": [{"tau_sq": str(v.tau_sq), "x": v.x, "y": v.y} for v in curve]
        }, indent=2) + "\n")
    elif args.format == "csv":
        out.write(_csv_dump(header, rows))
    else:
        _print_table(header, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / tai-check / curvature-check
# ---------------------------------------------------------------------------


def _emit_reports(reports, args, out) -> int:
    if args.format == "json":
        out.write(json.dumps({"checks": [r.to_json() for r in reports]}, indent=2) + "\n")
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{status}  {r.name}  max_error={r.max_error:.3e}  "
                      f"tolerance={r.tolerance:.1e}  samples={r.samples}  seed={r.seed}\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _samples(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def cmd_verify(args, out) -> int:
    reports = oracle.verify_all(samples=_samples(args), seed=args.seed)
    return _emit_reports(reports, args, out)


def cmd_tai_check(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    if tau_sq == 1:
        raise CliError("the projector embedding needs tau^2 < 1")
    reports = oracle.tai_checks(tau_sq, args.n, samples=_samples(args), seed=args.seed)
    return _emit_reports(reports, args, out)


def cmd_curvature_check(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    samples = _samples(args)
    reports = [
        oracle.curvature_symmetry_check(tau_sq, args.n, samples, args.seed),
        oracle.sectional_consistency_check(tau_sq, args.n, samples, args.seed),
        oracle.ricci_vertical_check(tau_sq, args.n, samples, args.seed),
        oracle.round_degeneration_check(args.n, samples, args.seed),
    ]
    return _emit_reports(reports, args, out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    env = os.environ.get("BERGER_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise CliError(f"BERGER_SEED must be an integer, got {env!r}")
    return oracle.DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergersphere",
        description="Spectra, curvature checks and stability tables for Berger spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                       help="RNG seed (default: BERGER_SEED env var or 0x5EED)")

    p = sub.add_parser("spectrum", help="Laplace spectrum tables")
    add_common(p)
    p.add_argument("--space", choices=("berger", "clifford"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--low", action="store_true",
                   help="only the low product modes entering the stability analysis")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("index", help="Jacobi index/nullity of a model submanifold")
    add_common(p)
    p.add_argument("--model", required=True, choices=tuple(_MODEL_BY_NAME))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--kmax", type=int, default=None,
                   help="override the certified truncation depth")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("phase", help="stability phase diagram over a tau^2 grid")
    add_common(p)
    p.add_argument("--tau-sq-grid", default=DEFAULT_PHASE_GRID)
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(func=cmd_phase, format="csv")

    p = sub.add_parser("moduli", help="conformal moduli curve of the flat surfaces")
    add_common(p)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--tau-sq-min", default="1/3")
    p.add_argument("--tau-sq-max", default="1")
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("verify", help="run the full verification suite")
    add_common(p)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tai-check", help="projector-embedding checks")
    add_common(p)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_tai_check)

    p = sub.add_parser("curvature-check", help="curvature identity checks")
    add_common(p)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_curvature_check)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        return args.func(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (GeometryDomainError, RoundSphereUnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
