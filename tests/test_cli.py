"""Command-line interface: content, formats, exit codes, determinism."""

import dataclasses
import gc
import io
import itertools
import json

import pytest

from bergersphere import cli, models, oracle
from bergersphere.models import (CircleCover, CliffordHypersurface, TotallyGeodesicBergerSphere,
                                 TotallyRealSphere, VeroneseRP3, VeroneseS3)


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestSpectrumCommand:
    def test_berger_rows(self):
        code, text = run(["spectrum", "--space", "berger", "--n", "1",
                          "--tau-sq", "1/3", "--kmax", "2", "--format", "csv"])
        assert code == 0
        assert text.splitlines() == [
            "k,p,value,multiplicity,source",
            "0,0,0,1,vertical-split",
            "1,0,5,4,vertical-split",
            "2,0,16,6,vertical-split",
            "2,1,8,3,vertical-split",
        ]

    def test_clifford_low_modes(self):
        code, text = run(["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0",
                          "--tau-sq", "1/3", "--low", "--format", "json"])
        assert code == 0
        modes = json.loads(text)["modes"]
        assert [(m["k1"], m["k2"], m["p"], m["multiplicity"]) for m in modes] == [
            (0, 0, 0, 1), (1, 0, 0, 2), (0, 1, 0, 2), (1, 1, 1, 2)]

    def test_kmax_at_the_index_limit(self):
        # one more is bad input (BAD_INPUTS)
        code, text = run(["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3",
                          "--kmax", str(models.K_LIMIT), "--format", "csv"])
        assert code == 0 and text.splitlines()[-1].startswith(f"{models.K_LIMIT},")

    def test_zero_parameter_rejected(self):
        code, _ = run(["spectrum", "--space", "berger", "--n", "1",
                       "--tau-sq", "0", "--kmax", "2"])
        assert code == 2

    def test_float_parameter_rejected(self):
        code, _ = run(["spectrum", "--space", "berger", "--n", "1",
                       "--tau-sq", "0.5", "--kmax", "2"])
        assert code == 2

    def test_missing_dimension_rejected(self):
        code, _ = run(["spectrum", "--space", "berger", "--tau-sq", "1/3"])
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--space", "clifford", "--m1", "0", "--m2", "0", "--n", "4"],
         "--space clifford takes no --n"),
        (["--space", "berger", "--n", "1", "--m2", "0"], "--space berger takes no --m2"),
        (["--space", "clifford", "--m1", "0", "--m2", "0", "--low", "--kmax", "4"],
         "--low takes no --kmax"),
    ])
    def test_flag_the_space_does_not_take_rejected(self, flags, message, capsys):
        assert run(["spectrum", *flags, "--tau-sq", "1/3"]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unset_kmax_means_four(self):
        argv = ["spectrum", "--space", "clifford", "--m1", "1", "--m2", "0", "--tau-sq", "1/3"]
        assert run(argv) == run(argv + ["--kmax", "4"])


class TestIndexCommand:
    def test_clifford_table_output(self):
        code, text = run(["index", "--model", "clifford", "--m1", "0", "--m2", "0",
                          "--tau-sq", "1/3"])
        assert code == 0
        assert "index: 1" in text
        assert "nullity: 6" in text

    def test_projective_veronese(self):
        code, text = run(["index", "--model", "veronese-rp3", "--tau-sq", "3/10",
                          "--format", "json"])
        assert code == 0
        blob = json.loads(text)
        assert blob["index"] == 6 and blob["nullity"] == 10
        assert blob["d"] == 3

    def test_covering_sphere_lower_bound_marker(self):
        code, text = run(["index", "--model", "veronese-s3", "--tau-sq", "1/2"])
        assert code == 0
        assert "index: >= " in text

    def test_truncation_override_too_small(self):
        code, _ = run(["index", "--model", "circle", "--n", "1", "--s", "5",
                       "--tau-sq", "1/2", "--kmax", "2"])
        assert code == 3

    def test_zero_kmax_below_certified_bound_is_truncation(self, capsys):
        code, _ = run(["index", "--model", "circle", "--n", "1", "--s", "2",
                       "--tau-sq", "1/2", "--kmax", "0"])
        assert code == 3
        assert capsys.readouterr().err.startswith("truncation failure: ")

    def test_negative_kmax_is_bad_input(self, capsys):
        code, text = run(["index", "--model", "circle", "--n", "1", "--s", "2",
                          "--tau-sq", "1/2", "--kmax", "-3"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: k_max must be nonnegative, got -3\n"

    def test_bad_model_parameters(self):
        code, _ = run(["index", "--model", "totally-real", "--n", "1", "--d", "3",
                       "--tau-sq", "1/2"])
        assert code == 2


EXAMPLES = [TotallyGeodesicBergerSphere(3, 1), CircleCover(2, 3), VeroneseRP3(), VeroneseS3(),
            TotallyRealSphere(3, 2), CliffordHypersurface(1, 0)]


def model_flags(model, skip=None):
    return [tok for f in dataclasses.fields(model) if f.name != skip
            for tok in (f"--{f.name}", str(getattr(model, f.name)))]


class TestModelFlags:
    def test_examples_cover_every_family(self):
        assert tuple(type(m) for m in EXAMPLES) == models.MODELS

    @pytest.mark.parametrize("model", EXAMPLES, ids=lambda m: m.name)
    def test_index_rebuilds_the_model(self, model):
        argv = ["index", "--model", model.name, *model_flags(model), "--tau-sq", "1/3"]
        assert cli._build_model(cli.build_parser().parse_args(argv)) == model
        code, text = run(argv + ["--format", "json"])
        assert code == 0 and json.loads(text)["model"] == model.label()

    @pytest.mark.parametrize("model,missing", [
        (m, f.name) for m in EXAMPLES for f in dataclasses.fields(m)])
    def test_missing_parameter_rejected(self, model, missing, capsys):
        code, text = run(["index", "--model", model.name, *model_flags(model, skip=missing),
                          "--tau-sq", "1/3"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: --model {model.name} needs --{missing}\n"


BAD_INPUTS = [
    ["spectrum", "--space", "berger", "--n", "-3", "--tau-sq", "1/3"],
    ["spectrum", "--space", "clifford", "--m1", "-2", "--m2", "0", "--tau-sq", "1/3"],
    ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "-1", "--tau-sq", "1/3",
     "--low"],
    ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3", "--kmax", "-1"],
    ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3",
     "--kmax", "-1"],
    ["verify", "--samples", "0"],
    ["tai-check", "--tau-sq", "1/2", "--samples", "0"],
    ["curvature-check", "--tau-sq", "1/2", "--samples", "0"],
    ["tai-check", "--tau-sq", "1/2", "--n", "0", "--samples", "2"],
    ["phase", "--n-max", "0"],
    ["phase", "--tau-sq-grid", ",,"],
    ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3", "--low"],
    ["index", "--model", "circle", "--n", "1", "--s", "2", "--tau-sq", "1/2", "--kmax", "-3"],
    ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3", "--kmax", "100000000"],
    ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3",
     "--kmax", "65"],
    ["index", "--model", "veronese-rp3", "--n", "5", "--tau-sq", "1/3"],
    ["index", "--model", "circle", "--n", "1", "--s", "2", "--d", "3", "--tau-sq", "1/3"],
    ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3", "--n", "4"],
    ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3", "--m1", "0"],
    ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3", "--low",
     "--kmax", "-1"],
    # seeds outside [0, 2^32): each used to draw the samples of 0xFFFFFFFB or 0
    ["curvature-check", "--tau-sq", "1/3", "--n", "2", "--samples", "50", "--seed", "-5"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "2", "--samples", "50", "--seed",
     "0x1FFFFFFFB"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "2", "--samples", "50", "--seed",
     "0x100000000"],
    # n above oracle.N_LIMIT: out of memory, or roundoff past an absolute tolerance
    ["tai-check", "--tau-sq", "1/3", "--n", "17", "--samples", "1"],
    ["tai-check", "--tau-sq", "1/3", "--n", "150", "--samples", "1"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "17", "--samples", "1"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "128", "--samples", "1024"],
    ["curvature-check", "--n", "100000", "--tau-sq", "1/2"],
    # n-max above cli.PHASE_N_MAX: about 1.25 n^2 models built before any row
    ["phase", "--n-max", "65"],
    ["phase", "--n-max", "100000"],
]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUTS)
    def test_exit_code_two_with_one_line_error(self, argv, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDimensionLimit:
    @pytest.mark.parametrize("cmd", ["tai-check", "curvature-check"])
    def test_n_at_the_limit_runs(self, cmd):
        code, text = run([cmd, "--tau-sq", "1/3", "--n", str(oracle.N_LIMIT), "--samples", "3"])
        assert code == 0 and all(line.startswith("PASS") for line in text.splitlines())

    @pytest.mark.parametrize("cmd", ["tai-check", "curvature-check"])
    def test_one_more_is_bad_input(self, cmd, capsys):
        n = oracle.N_LIMIT + 1
        assert run([cmd, "--tau-sq", "1/3", "--n", str(n), "--samples", "3"]) == (2, "")
        assert capsys.readouterr().err == f"error: --n must be at most {oracle.N_LIMIT}, got {n}\n"


class TestParserReuse:
    @pytest.mark.parametrize("argv", [
        ["index", "--model", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3"],
        ["tai-check", "--tau-sq", "1/2", "--n", "1", "--samples", "3"],
        ["index", "--model", "circle", "--n", "1", "--tau-sq", "1/2"],
    ])
    def test_main_leaves_no_cyclic_garbage(self, argv):
        run(argv)  # the first call builds the parser
        gc.collect()
        run(argv)
        assert gc.collect() == 0


class TestPhaseCommand:
    def test_csv_shape_and_verdicts(self):
        import csv as csvmod
        code, text = run(["phase", "--n-max", "1", "--tau-sq-grid", "1/4,1/2,1"])
        assert code == 0
        rows = list(csvmod.reader(text.splitlines()))
        assert rows[0] == ["model", "d", "tau_sq_num", "tau_sq_den", "index",
                           "nullity", "verdict", "theorem"]
        for row in rows[1:]:
            index, verdict = int(row[4]), row[6]
            assert (index == 0) == (verdict == "stable")

    def test_repeated_grid_value_gives_one_row(self):
        once = run(["phase", "--n-max", "1", "--tau-sq-grid", "1/3"])
        assert run(["phase", "--n-max", "1", "--tau-sq-grid", "1/3,2/6"]) == once
        assert once[0] == 0 and once[1].count("\n") == 1 + len(cli._phase_models(1))

    def test_stable_window_tagged(self):
        code, text = run(["phase", "--n-max", "1", "--tau-sq-grid", "1/4"])
        assert code == 0
        row = [l for l in text.splitlines() if "tg-berger(n=1,m=0)" in l][0]
        assert row.endswith("0,2,stable,stability-window")


    def test_n_max_above_the_limit_builds_no_model(self, monkeypatch, capsys):
        def refuse(n_max):
            raise AssertionError("models built for a rejected --n-max")

        monkeypatch.setattr(cli, "_phase_models", refuse)
        n = cli.PHASE_N_MAX + 1
        assert run(["phase", "--n-max", str(n)]) == (2, "")
        assert capsys.readouterr().err == (
            f"error: --n-max must be at most {cli.PHASE_N_MAX}, got {n}\n")


def _old_csv_dump(header, rows) -> str:
    """The whole-document CSV writer the row writer replaced."""
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _old_print_table(header, rows) -> str:
    """The table printer that formatted every cell twice."""
    out = io.StringIO()
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()


WRITER_HEADER = ("model", "d", "value", "note")
WRITER_ROWS = [("clifford(m1=0,m2=0)", 2, "-4", ""),
               ("tg-berger(n=1,m=0)", 1, "1/3", 'a "quoted", comma'),
               ("circle(n=1,s=2)", 10, "-17/6", "caf\u00e9 \\ tab\there"),
               ("x" * 30, -3, "0", "line\nbreak")]


def _writer_rows(count):
    return [(*row[:3], f"{row[3]} {i}") for i, row in
            zip(range(count), itertools.cycle(WRITER_ROWS))]


@pytest.mark.parametrize("count", [0, 1, 600])
class TestRowWriters:
    @pytest.mark.parametrize("doc,key", [({}, "rows"),
                                         ({"space": "berger", "tau_sq": "1/3"}, "modes")])
    def test_json_rows_match_one_dump(self, count, doc, key):
        rows = _writer_rows(count)
        out = io.StringIO()
        cli._write_json_rows(doc, key, WRITER_HEADER, rows, out)
        want = {**doc, key: [dict(zip(WRITER_HEADER, r)) for r in rows]}
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"

    def test_csv_rows_match_the_whole_document(self, count):
        rows = _writer_rows(count)
        out = io.StringIO()
        cli._write_csv(WRITER_HEADER, rows, out)
        assert out.getvalue() == _old_csv_dump(WRITER_HEADER, rows)

    def test_table_matches_the_two_pass_printer(self, count):
        rows = [r[:3] for r in _writer_rows(count)]  # table cells hold no line breaks
        out = io.StringIO()
        cli._print_table(WRITER_HEADER[:3], rows, out)
        assert out.getvalue() == _old_print_table(WRITER_HEADER[:3], rows)


class TestModuliCommand:
    def test_endpoints(self):
        code, text = run(["moduli", "--samples", "3", "--format", "csv"])
        assert code == 0
        lines = text.splitlines()
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert (first[0], first[1]) == ("1", "1")
        assert float(first[2]) == 0.0 and float(first[3]) == 1.0
        assert (last[0], last[1]) == ("1", "3")
        assert abs(float(last[2]) - 0.5) < 1e-15
        assert abs(float(last[3]) - 0.8660254037844386) < 1e-12

    def test_bad_sample_count(self):
        code, _ = run(["moduli", "--samples", "1"])
        assert code == 2


class TestVerifyCommands:
    def test_curvature_check_passes(self):
        code, text = run(["curvature-check", "--tau-sq", "1/3", "--n", "1",
                          "--samples", "40"])
        assert code == 0
        assert all(line.startswith("PASS") for line in text.splitlines())

    def test_tai_check_json(self):
        code, text = run(["tai-check", "--tau-sq", "1/2", "--n", "2",
                          "--samples", "40", "--format", "json"])
        assert code == 0
        checks = json.loads(text)["checks"]
        assert all(c["pass"] for c in checks)
        assert {"name", "pass", "max_error", "tolerance", "samples", "seed"} <= set(checks[0])

    def test_tai_check_round_rejected(self):
        code, _ = run(["tai-check", "--tau-sq", "1", "--n", "2"])
        assert code == 2

    def test_failing_check_exits_nonzero(self):
        from argparse import Namespace
        from bergersphere.oracle import CheckReport
        failing = CheckReport("synthetic", 1.0, 1, False, 0.5, 0)
        out = io.StringIO()
        code = cli._emit_reports([failing], Namespace(format="table"), out)
        assert code == 1
        assert out.getvalue().startswith("FAIL")

    def test_verify_small_run(self):
        code, text = run(["verify", "--samples", "20", "--format", "json"])
        assert code == 0
        checks = json.loads(text)["checks"]
        assert all(c["pass"] for c in checks)
        assert len(checks) >= 15


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        argv = ["curvature-check", "--tau-sq", "1/3", "--n", "1", "--samples", "30",
                "--seed", "42"]
        assert run(argv) == run(argv)

    def test_spectrum_deterministic(self):
        argv = ["spectrum", "--space", "berger", "--n", "2", "--tau-sq", "2/5",
                "--kmax", "3", "--format", "json"]
        assert run(argv) == run(argv)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("BERGER_SEED", "0x123")
        _, text = run(["curvature-check", "--tau-sq", "1/3", "--n", "1",
                       "--samples", "10"])
        assert "seed=291" in text

    @pytest.mark.parametrize("value", ["-1", "0x100000000"])
    def test_env_seed_out_of_range_rejected(self, monkeypatch, capsys, value):
        monkeypatch.setenv("BERGER_SEED", value)
        assert run(["tai-check", "--tau-sq", "1/2", "--samples", "3"]) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: seed must lie in [0, 2^32), got {int(value, 0)}\n"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3"],
        ["index", "--model", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3"],
        ["phase", "--n-max", "1"],
        ["moduli", "--samples", "3"],
        ["verify", "--samples", "2"],
        ["tai-check", "--tau-sq", "1/2", "--samples", "2"],
        ["curvature-check", "--tau-sq", "1/2", "--samples", "2"],
    ], ids=lambda argv: argv[0])
    def test_env_seed_read_only_by_commands_that_draw(self, monkeypatch, capsys, argv):
        monkeypatch.delenv("BERGER_SEED", raising=False)
        unset = run(argv)
        monkeypatch.setenv("BERGER_SEED", "abc")
        malformed = run(argv)
        err = capsys.readouterr().err
        assert unset[0] == 0
        if argv[0] in ("verify", "tai-check", "curvature-check"):
            assert malformed == (2, "")
            assert err == "error: BERGER_SEED must be an integer, got 'abc'\n"
        else:
            assert malformed == unset and err == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", "1/3"],
        ["index", "--model", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3"],
        ["phase", "--n-max", "1"],
        ["moduli"],
    ], ids=lambda argv: argv[0])
    def test_exact_command_takes_no_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_largest_seed_accepted_and_distinct(self):
        argv = ["curvature-check", "--tau-sq", "1/3", "--n", "2", "--samples", "50", "--seed"]
        top, zero = run(argv + ["0xFFFFFFFF"]), run(argv + ["0"])
        assert top[0] == zero[0] == 0
        assert top[1].replace("seed=4294967295", "seed=0") != zero[1]
