"""Command-line interface: content, formats, exit codes, determinism."""

import csv
import dataclasses
import gc
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cli, models, sampled, spectra, stability
from bergersphere.models import (CircleCover, CliffordHypersurface, TotallyGeodesicBergerSphere,
                                 TotallyRealSphere, VeroneseRP3, VeroneseS3)
from bergersphere.params import BergerParam


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def spectrum_cells(text, fmt):
    """The header and rows of a ``spectrum`` output, each a tuple of strings."""
    if fmt == "json":
        modes = json.loads(text)["modes"]
        return [tuple(modes[0])] + [tuple(map(str, mode.values())) for mode in modes]
    if fmt == "csv":
        return [tuple(row) for row in csv.reader(io.StringIO(text))]
    return [tuple(line.split()) for line in text.splitlines()]


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

    @pytest.mark.parametrize("m1, m2, fmt", [(m1, m2, fmt) for m1 in range(4)
                                             for m2 in range(4)
                                             for fmt in ("table", "csv", "json")])
    def test_low_prints_the_low_labels_of_the_depth_two_table(self, m1, m2, fmt):
        argv = ["spectrum", "--space", "clifford", "--m1", str(m1), "--m2", str(m2),
                "--tau-sq", "2/7", "--format", fmt]
        (low_code, low), (full_code, full) = run([*argv, "--low"]), run([*argv, "--kmax", "2"])
        assert low_code == full_code == 0
        header, *rows = spectrum_cells(low, fmt)
        full_header, *full_rows = spectrum_cells(full, fmt)
        assert header == full_header == ("k1", "k2", "p", "value", "multiplicity", "source")
        assert spectra.LOW_LABELS == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))
        assert [tuple(map(int, row[:3])) for row in rows] == [(0, 0, 0), (1, 0, 0),
                                                              (0, 1, 0), (1, 1, 1)]
        assert [int(row[4]) for row in rows] == [1, 2 * m1 + 2, 2 * m2 + 2,
                                                 2 * (m1 + 1) * (m2 + 1)]
        by_label = {row[:3]: row for row in full_rows}
        assert rows == [by_label[row[:3]] for row in rows]

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
    # n above sampled.N_LIMIT: out of memory, or roundoff past an absolute tolerance
    ["tai-check", "--tau-sq", "1/3", "--n", "17", "--samples", "1"],
    ["tai-check", "--tau-sq", "1/3", "--n", "150", "--samples", "1"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "17", "--samples", "1"],
    ["curvature-check", "--tau-sq", "1/3", "--n", "128", "--samples", "1024"],
    ["curvature-check", "--n", "100000", "--tau-sq", "1/2"],
    # n-max above cli.PHASE_N_MAX: about 1.25 n^2 models built before any row
    ["phase", "--n-max", "65"],
    ["phase", "--n-max", "100000"],
    # samples above cli.MODULI_SAMPLES_MAX: every vector and row held before any output
    ["moduli", "--samples", "10001"],
    ["moduli", "--samples", "100000"],
]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUTS)
    def test_exit_code_two_with_one_line_error(self, argv, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["abc", "1/0", "", "nan", "1/-3", "0.5"])
    def test_inexact_tau_sq_follows_the_package_rule(self, text, capsys):
        # one rule for exact input (params._as_fraction), with a hint for the
        # command line instead of the library's BergerParam.from_float
        assert run(["spectrum", "--space", "berger", "--n", "1", "--tau-sq", text]) == (2, "")
        assert capsys.readouterr().err == (
            f"error: tau^2 must be an exact rational, got {text!r}; "
            "write it as a fraction like 1/3\n")


class TestDimensionLimit:
    @pytest.mark.parametrize("cmd", ["tai-check", "curvature-check"])
    def test_n_at_the_limit_runs(self, cmd):
        code, text = run([cmd, "--tau-sq", "1/3", "--n", str(sampled.N_LIMIT), "--samples", "3"])
        assert code == 0 and all(line.startswith("PASS") for line in text.splitlines())

    @pytest.mark.parametrize("cmd", ["tai-check", "curvature-check"])
    def test_one_more_is_bad_input(self, cmd, capsys):
        n = sampled.N_LIMIT + 1
        assert run([cmd, "--tau-sq", "1/3", "--n", str(n), "--samples", "3"]) == (2, "")
        assert capsys.readouterr().err == f"error: --n must be at most {sampled.N_LIMIT}, got {n}\n"


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


class TestTauValidatedOnce:
    """``index`` and ``phase`` hand the ``BergerParam`` they parsed on, and the
    library's ``coerce`` returns it as it is: one construction per value."""

    @pytest.fixture
    def built(self, monkeypatch):
        values = []
        validate = BergerParam.__post_init__

        def counting(param):
            values.append(param.tau_sq)
            validate(param)

        monkeypatch.setattr(BergerParam, "__post_init__", counting)
        return values

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("model", EXAMPLES, ids=lambda m: m.name)
    def test_one_param_per_index_call(self, model, fmt, built):
        code, _ = run(["index", "--model", model.name, *model_flags(model), "--tau-sq", "2/7",
                       "--format", fmt])
        assert code == 0 and built == [Fraction(2, 7)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", ["1/7,3/17,2/9,5/12,8/13,29/31", "1/3,2/6,1"])
    def test_one_param_per_phase_grid_value(self, grid, fmt, built):
        code, _ = run(["phase", "--n-max", "3", "--tau-sq-grid", grid, "--format", fmt])
        assert code == 0 and built == [Fraction(value) for value in grid.split(",")]


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


CHUNK = cli.JSON_CHUNK_ROWS


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 600])
class TestRowWriters:
    @pytest.mark.parametrize("doc,key", [({}, "rows"),
                                         ({"space": "berger", "tau_sq": "1/3"}, "modes")])
    def test_json_rows_match_one_dump(self, count, doc, key):
        rows = _writer_rows(count)
        out = io.StringIO()
        cli._write_json_rows(doc, key, WRITER_HEADER, rows, out)
        want = {**doc, key: [dict(zip(WRITER_HEADER, r)) for r in rows]}
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"

    def test_generator_rows_give_the_same_bytes(self, count):
        rows = _writer_rows(count)
        for write, header in ((cli._write_csv, WRITER_HEADER),
                              (cli._print_table, WRITER_HEADER[:3])):
            cells = [r[:len(header)] for r in rows]
            from_list, from_generator = io.StringIO(), io.StringIO()
            write(header, cells, from_list)
            write(header, (r for r in cells), from_generator)
            assert from_generator.getvalue() == from_list.getvalue()
        out = io.StringIO()
        cli._write_json_rows({}, "rows", WRITER_HEADER, (r for r in rows), out)
        want = {"rows": [dict(zip(WRITER_HEADER, r)) for r in rows]}
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"

    def test_json_writer_holds_at_most_one_chunk(self, count):
        """Every write finds at most JSON_CHUNK_ROWS rows drawn and not yet written."""
        drawn = 0

        def rows():
            nonlocal drawn
            for row in _writer_rows(count):
                drawn += 1
                yield row

        class Out(io.StringIO):
            def write(self, text):
                super().write(text)
                # Each written row opens with '{' at the start of a line indented by 4.
                pending.append(drawn - self.getvalue().count("\n    {\n"))

        pending = []
        out = Out()
        cli._write_json_rows({}, "rows", WRITER_HEADER, rows(), out)
        assert drawn == count and pending[-1] == 0
        assert max(pending) <= CHUNK
        assert len(pending) == -(-count // CHUNK) + 1

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


# Strings that the indent-2 layout or the row boundary could trip on.
AWKWARD_TEXT = ["},\n      {", '"}, {"', "back\\slash", 'quote " and \\"', "\x00\x01\x1f\x7f",
                "\b\f\n\r\t", "caf\u00e9 \u2603 \U0001f600 \ud800", "\u2028\u2029", ""]
JSON_SCALARS = st.one_of(
    st.integers(), st.sampled_from([10 ** 100, -10 ** 100, -1, 0, 2 ** 63, -2 ** 63 - 1]),
    st.booleans(), st.none(),
    st.floats(), st.sampled_from([-0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf"),
                                  float("-inf")]),
    st.text(), st.sampled_from(AWKWARD_TEXT))
JSON_KEYS = st.one_of(st.text(), st.sampled_from(AWKWARD_TEXT))


@st.composite
def json_documents(draw):
    """(doc, key, header, rows) for the JSON row writer: ``key`` not in ``doc``,
    a nonempty header of distinct keys and rows of its width."""
    doc = draw(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3))
    key = draw(JSON_KEYS.filter(lambda k: k not in doc))
    header = draw(st.lists(JSON_KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[JSON_SCALARS] * len(header)),
                         max_size=draw(st.sampled_from([3, CHUNK + 2, 2 * CHUNK + 2]))))
    return doc, key, header, rows


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(json_documents())
def test_json_rows_match_one_dump_for_any_scalars(case):
    doc, key, header, rows = case
    out = io.StringIO()
    cli._write_json_rows(doc, key, header, iter(rows), out)
    want = {**doc, key: [dict(zip(header, r)) for r in rows]}
    assert out.getvalue() == json.dumps(want, indent=2) + "\n"


def _old_index_json(model, report, tau_sq) -> str:
    """The hand-built ``index --format json`` document the row writer replaced."""
    return json.dumps({
        "model": model.label(),
        "d": model.dimension,
        "tau_sq": str(tau_sq),
        "index": report.index,
        "nullity": report.nullity,
        "index_is_lower_bound": report.index_is_lower_bound,
        "nullity_is_lower_bound": report.nullity_is_lower_bound,
        "truncation_k": report.truncation_k,
        "certificate": report.certificate,
        "modes": [{"family": m.family, "labels": ",".join(str(x) for x in m.labels),
                   "value": str(m.value), "multiplicity": m.multiplicity, "sign": m.sign}
                  for m in report.nonpositive_modes],
    }, indent=2) + "\n"


def _old_moduli_json(samples, lo, hi) -> str:
    """The hand-built ``moduli --format json`` document the row writer replaced."""
    curve = stability.moduli_curve(samples, lo, hi)
    return json.dumps({"rows": [{"tau_sq": str(v.tau_sq), "x": v.x, "y": v.y} for v in curve]},
                      indent=2) + "\n"


class TestJsonDocuments:
    @pytest.mark.parametrize("model,tau_sq", [(CliffordHypersurface(3, 3), "1/3"),
                                              (TotallyRealSphere(4, 3), "2/7"),
                                              (CircleCover(1, 2), "1/12")])
    def test_index_matches_the_hand_built_document(self, model, tau_sq):
        code, text = run(["index", "--model", model.name, *model_flags(model), "--tau-sq", tau_sq,
                          "--format", "json"])
        report = models.enumerate_index(model, BergerParam(Fraction(tau_sq)))
        assert code == 0 and report.nonpositive_modes
        assert text == _old_index_json(model, report, Fraction(tau_sq))

    def test_index_with_no_mode_matches_the_hand_built_document(self, monkeypatch):
        enumerate_index = models.enumerate_index
        reports = []

        def no_modes(*args):
            reports.append(dataclasses.replace(enumerate_index(*args), nonpositive_modes=()))
            return reports[-1]

        monkeypatch.setattr(models, "enumerate_index", no_modes)
        model = CliffordHypersurface(0, 0)
        code, text = run(["index", "--model", "clifford", "--m1", "0", "--m2", "0",
                          "--tau-sq", "1/3", "--format", "json"])
        assert code == 0 and json.loads(text)["modes"] == []
        assert text == _old_index_json(model, reports[0], Fraction(1, 3))

    @pytest.mark.parametrize("samples,lo,hi", [(2, "1/3", "1"), (65, "1/7", "5/6")])
    def test_moduli_matches_the_hand_built_document(self, samples, lo, hi):
        code, text = run(["moduli", "--samples", str(samples), "--tau-sq-min", lo,
                          "--tau-sq-max", hi, "--format", "json"])
        assert code == 0 and len(json.loads(text)["rows"]) == samples
        assert text == _old_moduli_json(samples, Fraction(lo), Fraction(hi))


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
