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
import json
import os
import sys
from fractions import Fraction

from . import models, spectra, stability
from .models import (CircleCover, CliffordHypersurface, TotallyGeodesicBergerSphere,
                     TotallyRealSphere, TruncationError, VeroneseRP3, VeroneseS3)
from .params import BergerParam, GeometryDomainError, _as_fraction

_MODEL_BY_NAME = {cls.name: cls for cls in models.MODELS}
# The parameter flags of ``index``: every field of some family, in first-seen order.
_MODEL_FLAGS = tuple(dict.fromkeys(f.name for cls in models.MODELS
                                   for f in dataclasses.fields(cls)))

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_TRUNCATION = 3

DEFAULT_PHASE_GRID = "1/12,1/8,1/6,1/4,1/3,1/2,3/5,1"
# Largest ``phase --n-max``: the model list grows like 1.25 n^2 and is built
# before the first row is written; n = 64 takes about a second on the default grid.
PHASE_N_MAX = 64
# Largest ``moduli --samples``: every vector, row and the JSON document are
# held before the first byte is written; 10,000 takes well under a second.
MODULI_SAMPLES_MAX = 10_000


class CliError(Exception):
    """Bad input found by the command line itself; exits with EXIT_BAD_INPUT."""


def parse_tau_sq(text: str) -> Fraction:
    """tau^2 in (0, 1] by the package's one rule for exact input."""
    return BergerParam.coerce(_as_fraction(text, hint="; write it as a fraction like 1/3")).tau_sq


def _write_csv(header, rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json_rows(doc: dict, key: str, header, rows, out) -> None:
    """``json.dumps`` of ``doc`` with ``key`` added last, holding one object
    per row, at indent 2 and with a final newline; the rows are encoded and
    written one at a time, each re-indented to its depth in the document."""
    encoder = json.JSONEncoder(indent=2)
    head = encoder.encode({**doc, key: []})  # ends in '[]\n}'
    if not rows:
        out.write(head + "\n")
        return
    out.write(head[:-4] + "[")
    sep = "\n    "
    for row in rows:
        out.write(sep + encoder.encode(dict(zip(header, row))).replace("\n", "\n    "))
        sep = ",\n    "
    out.write("\n  ]\n}\n")


def _print_table(header, rows, out):
    """Left-aligned columns two spaces apart, each line right-stripped; every
    cell is turned into a string once."""
    columns = [list(map(str, column)) for column in zip(header, *rows)]
    line_format = "  ".join(f"%-{max(map(len, column))}s" for column in columns)
    out.writelines((line_format % line).rstrip() + "\n" for line in zip(*columns))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    kmax = 4 if args.kmax is None else args.kmax
    if kmax > models.K_LIMIT:
        raise CliError(f"--kmax must be at most {models.K_LIMIT}, got {kmax}")
    for name in ("m1", "m2") if args.space == "berger" else ("n",):
        if getattr(args, name) is not None:
            raise CliError(f"--space {args.space} takes no --{name}")
    if args.low and args.kmax is not None:
        raise CliError("--low takes no --kmax")
    if args.space == "berger":
        if args.n is None:
            raise CliError("--space berger needs --n")
        if args.low:
            raise CliError("--low applies only to --space clifford")
        rows = [(m.k, m.p, str(m.value), m.multiplicity, "vertical-split")
                for m in spectra.berger_modes(args.n, tau_sq, kmax)]
        header = ("k", "p", "value", "multiplicity", "source")
    else:
        if args.m1 is None or args.m2 is None:
            raise CliError("--space clifford needs --m1 and --m2")
        if args.low:
            by_label = {(m.k1, m.k2, m.p): m
                        for m in spectra.clifford_modes(args.m1, args.m2, tau_sq, 2)}
            cmodes = [by_label[label] for label in spectra.LOW_LABELS]
        else:
            cmodes = spectra.clifford_modes(args.m1, args.m2, tau_sq, kmax)
        rows = [(m.k1, m.k2, m.p, str(m.value), m.multiplicity, "product-split")
                for m in cmodes]
        del cmodes  # the rows hold all that is printed; free the modes before writing
        header = ("k1", "k2", "p", "value", "multiplicity", "source")

    if args.format == "json":
        _write_json_rows({"space": args.space, "tau_sq": str(tau_sq)}, "modes", header, rows,
                         out)
    elif args.format == "csv":
        _write_csv(header, rows, out)
    else:
        _print_table(header, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def _build_model(args):
    """The ``--model`` family, built from the flags named like its fields;
    a flag that names a field of another family only is rejected."""
    cls = _MODEL_BY_NAME[args.model]
    own = [field.name for field in dataclasses.fields(cls)]
    for name in _MODEL_FLAGS:
        given = getattr(args, name) is not None
        if name in own and not given:
            raise CliError(f"--model {args.model} needs --{name}")
        if name not in own and given:
            raise CliError(f"--model {args.model} takes no --{name}")
    return cls(*(getattr(args, name) for name in own))


def _mode_rows(report):
    return [(m.family, ",".join(str(x) for x in m.labels), str(m.value),
             m.multiplicity, m.sign) for m in report.nonpositive_modes]


def cmd_index(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    model = _build_model(args)
    report = models.enumerate_index(model, tau_sq, args.kmax)
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
        }, indent=2) + "\n")
    elif args.format == "csv":
        _write_csv(("model", "d", "tau_sq_num", "tau_sq_den", "index", "nullity", "source"),
                   [(model.label(), model.dimension, tau_sq.numerator, tau_sq.denominator,
                     report.index, report.nullity, "mode-enumeration")], out)
    else:
        ge = ">= " if report.index_is_lower_bound else ""
        gn = ">= " if report.nullity_is_lower_bound else ""
        out.write(f"model: {model.label()}  d={model.dimension}  tau^2={tau_sq}\n")
        out.write(f"index: {ge}{report.index}\n")
        out.write(f"nullity: {gn}{report.nullity}\n")
        out.write(f"truncation: k<={report.truncation_k}  [{report.certificate}]\n")
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
    if args.n_max > PHASE_N_MAX:
        raise CliError(f"--n-max must be at most {PHASE_N_MAX}, got {args.n_max}")
    rows = stability.phase_rows(_phase_models(args.n_max), grid)
    if args.format == "json":
        _write_json_rows({}, "rows", stability.PHASE_HEADER, rows, out)
    else:
        _write_csv(stability.PHASE_HEADER, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------


def cmd_moduli(args, out) -> int:
    lo = parse_tau_sq(args.tau_sq_min)
    hi = parse_tau_sq(args.tau_sq_max)
    if args.samples > MODULI_SAMPLES_MAX:
        raise CliError(f"--samples must be at most {MODULI_SAMPLES_MAX}, got {args.samples}")
    curve = stability.moduli_curve(args.samples, lo, hi)
    header = ("tau_sq_num", "tau_sq_den", "x", "y")
    rows = [(v.tau_sq.numerator, v.tau_sq.denominator, repr(v.x), repr(v.y))
            for v in curve]
    if args.format == "json":
        out.write(json.dumps({
            "rows": [{"tau_sq": str(v.tau_sq), "x": v.x, "y": v.y} for v in curve]
        }, indent=2) + "\n")
    elif args.format == "csv":
        _write_csv(header, rows, out)
    else:
        _print_table(header, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / tai-check / curvature-check
# ---------------------------------------------------------------------------


def _sampled():
    """The ``sampled`` module, imported by the sampled commands alone: it loads
    numpy and the float kernel, which the exact commands never need."""
    from . import sampled
    return sampled


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


def _dimension(args) -> int:
    limit = _sampled().N_LIMIT
    if args.n > limit:
        raise CliError(f"--n must be at most {limit}, got {args.n}")
    return args.n


def cmd_verify(args, out) -> int:
    reports = _sampled().verify_all(samples=_samples(args), seed=args.seed)
    return _emit_reports(reports, args, out)


def cmd_tai_check(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    reports = _sampled().tai_checks(tau_sq, _dimension(args), samples=_samples(args),
                                    seed=args.seed)
    return _emit_reports(reports, args, out)


def cmd_curvature_check(args, out) -> int:
    tau_sq = parse_tau_sq(args.tau_sq)
    n, samples = _dimension(args), _samples(args)
    sampled = _sampled()
    reports = [
        sampled.curvature_symmetry_check(tau_sq, n, samples, args.seed),
        sampled.sectional_consistency_check(tau_sq, n, samples, args.seed),
        sampled.ricci_vertical_check(tau_sq, n, samples, args.seed),
        sampled.round_degeneration_check(n, samples, args.seed),
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
    from .oracle import DEFAULT_SEED
    return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergersphere",
        description="Spectra, curvature checks and stability tables for Berger spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        if seed:
            p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                           help="RNG seed (default: BERGER_SEED env var or 0x5EED)")

    p = sub.add_parser("spectrum", help="Laplace spectrum tables")
    add_common(p)
    p.add_argument("--space", choices=("berger", "clifford"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--low", action="store_true",
                   help="only the low product modes entering the stability analysis")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("index", help="Jacobi index/nullity of a model submanifold")
    add_common(p)
    p.add_argument("--model", required=True, choices=tuple(_MODEL_BY_NAME))
    for name in _MODEL_FLAGS:
        p.add_argument(f"--{name}", type=int)
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
    add_common(p, seed=True)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tai-check", help="projector-embedding checks")
    add_common(p, seed=True)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_tai_check)

    p = sub.add_parser("curvature-check", help="curvature identity checks")
    add_common(p, seed=True)
    p.add_argument("--tau-sq", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_curvature_check)

    return parser


_parser = None


def main(argv=None, out=None) -> int:
    # Built once per process: a parser is a web of cyclic references that only
    # a full garbage collection frees, so a parser per call lets memory climb.
    global _parser
    if _parser is None:
        _parser = build_parser()
    out = out or sys.stdout
    args = _parser.parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return args.func(args, out)
    except (CliError, GeometryDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
