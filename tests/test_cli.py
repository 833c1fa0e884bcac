"""Command-line interface: content, formats, exit codes, determinism."""

import dataclasses
import io
import json

import pytest

from bergersphere import cli, models
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


class TestBadInput:
    @pytest.mark.parametrize("argv", [
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
    ])
    def test_exit_code_two_with_one_line_error(self, argv, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_stable_window_tagged(self):
        code, text = run(["phase", "--n-max", "1", "--tau-sq-grid", "1/4"])
        assert code == 0
        row = [l for l in text.splitlines() if "tg-berger(n=1,m=0)" in l][0]
        assert row.endswith("0,2,stable,stability-window")


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
