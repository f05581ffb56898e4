import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from risnoma import experiments as ex
from risnoma.cli import main
from risnoma.eepa import ConvergenceError
from risnoma.tables import Table, render_csv, render_json


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


class TestParseFloatList:
    def test_comma(self):
        assert ex.parse_float_list("0,5,10") == (0.0, 5.0, 10.0)

    def test_range_inclusive(self):
        assert ex.parse_float_list("0:90:30") == (0.0, 30.0, 60.0, 90.0)

    def test_range_fractional_step(self):
        vals = ex.parse_float_list("0:1:0.25")
        assert vals == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_bad_spec(self):
        with pytest.raises(ex.ConfigError):
            ex.parse_float_list("0:90")
        with pytest.raises(ex.ConfigError):
            ex.parse_float_list("1,two,3")
        with pytest.raises(ex.ConfigError):
            ex.parse_float_list("0:90:-1")


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig(kind=ex.ExperimentKind.SWEEP_ALPHA2)
        assert cfg.gammas_db == (8.0, 5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_deg": ()},
            {"delta_deg": (10.0, 5.0)},
            {"delta_deg": (0.0, 180.0)},
            {"delta_deg": (-1.0,)},
            {"schemes": ()},
            {"alpha2_step": 0.5},
            {"alpha2_step": 0.0},
            {"gammas_db": (5.0, 8.0)},
            {"gammas_db": (5.0,)},
            {"mc_trials": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(kind=ex.ExperimentKind.SWEEP_ALPHA2, **kwargs)


class TestTables:
    def test_csv_shape(self):
        t = Table(["a", "b"])
        t.append(a=1.5, b="x")
        text = render_csv(t, {"seed": 3, "alpha": "y"})
        lines = text.split("\r\n")
        assert lines[0] == "# alpha: y"
        assert lines[1] == "# seed: 3"
        assert lines[2] == "a,b"
        assert lines[3] == "1.5,x"

    def test_csv_float_round_trip(self):
        value = 0.8549662632375659
        t = Table(["v"])
        t.append(v=value)
        meta, rows = parse_csv(render_csv(t, {}))
        assert float(rows[0]["v"]) == value

    def test_json_shape(self):
        t = Table(["a"])
        t.append(a=2)
        doc = json.loads(render_json(t, {"seed": 1}))
        assert doc["meta"] == {"seed": 1}
        assert doc["rows"] == [{"a": 2}]


def reference_csv(columns, rows, meta):
    """The per-row csv.writer renderer the columnar one replaced."""
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}: {meta[key]}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns])
    return buf.getvalue()


def reference_json(columns, rows, meta):
    rows = [{c: row[c] for c in columns} for row in rows]
    return json.dumps({"meta": dict(sorted(meta.items())), "rows": rows}, indent=1) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-05, 0.1, 1 / 3, 5e-324, -2.5]
EDGE_STRINGS = ["oma", "a,b", 'say "hi"', "cr\rx", "lf\ny", "crlf\r\n", "", " lead", "caf\u00e9"]


class TestColumnarOutput:
    """render_csv and render_json give the per-row renderers' text, for
    tables built row by row and from numpy columns."""

    META = {"seed": 3, "generated": "now", "note": "a,b"}

    def check(self, table, columns, rows):
        assert render_csv(table, self.META) == reference_csv(columns, rows, self.META)
        assert render_json(table, self.META) == reference_json(columns, rows, self.META)
        # repr tells nan, -0.0 and numpy scalars apart, where == does not
        assert len(table.rows) == len(rows)
        assert repr(list(table.rows)) == repr(rows)
        if rows:
            assert repr([table.rows[0], table.rows[-1]]) == repr([rows[0], rows[-1]])
            assert repr(table.rows[::2]) == repr(rows[::2])

    def appended(self, columns, rows):
        t = Table(columns)
        for row in rows:
            t.append(**row)
        return t

    def test_mixed_columns(self):
        n = len(EDGE_FLOATS)
        columns = ["scheme", "x", "n", "delta_ub_deg", 'q"uoted,name']
        rows = [
            {
                "scheme": EDGE_STRINGS[i % len(EDGE_STRINGS)],
                "x": EDGE_FLOATS[i],
                "n": 10**i - 7,
                "delta_ub_deg": EDGE_FLOATS[-1 - i] if i % 3 else [None, ""][i % 2],
                'q"uoted,name': i % 2 == 0,
            }
            for i in range(n)
        ]
        self.check(self.appended(columns, rows), columns, rows)
        arrays = Table(
            columns,
            {
                "scheme": [r["scheme"] for r in rows],
                "x": np.array([r["x"] for r in rows]),
                "n": np.array([r["n"] for r in rows]),
                "delta_ub_deg": [r["delta_ub_deg"] for r in rows],
                'q"uoted,name': np.array([r['q"uoted,name'] for r in rows]),
            },
        )
        self.check(arrays, columns, rows)

    @pytest.mark.parametrize("values", [["", "a", ""], [""], ["a,b", "", 'x"']])
    def test_one_column_with_empty_field(self, values):
        rows = [{"v": v} for v in values]
        self.check(self.appended(["v"], rows), ["v"], rows)
        self.check(Table(["v"], {"v": list(values)}), ["v"], rows)

    def test_empty_column_name(self):
        rows = [{"": 1.5}, {"": ""}]
        self.check(self.appended([""], rows), [""], rows)

    def test_no_rows(self):
        columns = ["scheme", "asr", "cdf"]
        self.check(self.appended(columns, []), columns, [])
        empty = Table(columns, {"scheme": [], "asr": np.empty(0), "cdf": np.empty(0)})
        self.check(empty, columns, [])

    def test_random_floats_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500)
        rows = [{"scheme": "mpa", "asr": v} for v in values.tolist()]
        table = Table(["scheme", "asr"], {"scheme": ["mpa"] * len(values), "asr": values})
        self.check(table, ["scheme", "asr"], rows)
        _, parsed = parse_csv(render_csv(table, {}))
        assert np.array_equal(np.array([float(r["asr"]) for r in parsed]), values)

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError):
            Table(["a", "b"], {"a": [1, 2], "b": np.zeros(3)})


class TestSweepAlpha2Command:
    def test_stdout_csv(self, runner):
        result = runner.invoke(main, ["sweep-alpha2", "--alpha2-step", "0.1"])
        assert result.exit_code == 0
        meta, rows = parse_csv(result.output)
        assert {"seed", "config_sha256", "generated"} <= set(meta)
        assert len(rows) == 2 * 11  # two deltas, 11 grid points
        first = rows[0]
        assert float(first["alpha2"]) == 0.0
        assert float(first["r1_oma"]) == pytest.approx(1.43487, abs=1e-4)
        assert float(first["alpha2_ub"]) == pytest.approx(0.85497, abs=1e-4)

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["sweep-alpha2", "--alpha2-step", "0.1", "--format", "json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert "meta" in doc and "rows" in doc
        assert doc["rows"][0]["delta_deg"] == 0.0

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main, ["sweep-alpha2", "--alpha2-step", "0.1", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert out.read_bytes().startswith(b"# config_sha256")


class TestSweepDeltaCommand:
    def test_mode_flip_at_criterion_bound(self, runner):
        result = runner.invoke(main, ["sweep-delta", "--delta-deg", "0:90:1"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        by_delta = {float(r["delta_deg"]): r for r in rows}
        assert by_delta[74.0]["mode"] == "noma"
        assert by_delta[75.0]["mode"] == "oma"
        assert float(by_delta[0.0]["delta_ub_deg"]) == pytest.approx(74.327, abs=0.01)

    def test_reproducible_except_timestamp(self, runner):
        args = ["sweep-delta", "--delta-deg", "0:30:10", "--seed", "5"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated")]
        assert strip(a) == strip(b)
        assert a != b or strip(a) == a.splitlines()


class TestPairStudyCommand:
    def test_schemes_present(self, runner):
        result = runner.invoke(main, ["pair-study", "--gammas-db", "15,5"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        by_scheme = {r["scheme"]: r for r in rows}
        assert set(by_scheme) == {"oma", "mpa", "eepa", "srm"}
        assert by_scheme["eepa"]["mode"] == "noma"
        assert float(by_scheme["eepa"]["ee"]) == pytest.approx(5.59736, abs=1e-4)
        assert by_scheme["eepa"]["iterations"] != ""
        assert float(by_scheme["mpa"]["alpha1"]) == 1.0

    def test_eepa_solved_once(self, runner, monkeypatch):
        from risnoma import eepa as eepa_module

        calls = []
        solve = eepa_module._dinkelbach

        def counted(*args, **kwargs):
            calls.append(solve(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(eepa_module, "_dinkelbach", counted)
        result = runner.invoke(main, ["pair-study", "--gammas-db", "20,3", "--delta-deg", "30"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        eepa = next(r for r in rows if r["scheme"] == "eepa")
        assert len(calls) == 1
        _, _, _, iterations, _, _ = calls[0]
        assert int(eepa["iterations"]) == iterations == 3

    def test_eepa_zero_ee_falls_back_to_oma(self, runner):
        # the OMA-rate targets underflow to 0, and so does every rate
        result = runner.invoke(main, ["pair-study", "--gammas-db=-400,-500"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        eepa = next(r for r in rows if r["scheme"] == "eepa")
        assert (eepa["mode"], eepa["ee"], eepa["iterations"]) == ("oma", "0.0", "")

    def test_subnormal_weak_gamma_without_warning(self, runner):
        # Gamma2 = 5e-324: alpha2_ub's quotient overflows to its value, +inf,
        # without a RuntimeWarning (the suite turns one into an error)
        result = runner.invoke(main, ["pair-study", "--gammas-db=7,-3233"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        mpa = next(r for r in rows if r["scheme"] == "mpa")
        assert (mpa["mode"], mpa["alpha2"], mpa["r2"]) == ("noma", "1.0", "0.0")
        assert float(mpa["asr"]) == pytest.approx(2.587814373562031, rel=1e-15)
        result = runner.invoke(main, ["sweep-alpha2", "--gammas-db=7,-3233"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 2002 and {r["alpha2_ub"] for r in rows} == {"inf"}

    def test_oma_alone_takes_a_zero_weak_gamma(self, runner):
        # only OMA decides a pair with Gamma2 = 0; it has no criterion to divide by Gamma2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["pair-study", "--gammas-db=0,-4000", "--scheme", "oma"])
        assert result.exit_code == 0 and result.exception is None
        _, rows = parse_csv(result.output)
        assert [(r["scheme"], r["r2"], r["delta_ub_deg"]) for r in rows] == [("oma", "0.0", "")]

    def test_mpa_zero_rate_falls_back_to_oma(self, runner):
        # as for EEPA: every rate underflows to 0; SRM never falls back
        result = runner.invoke(main, ["pair-study", "--gammas-db=-400,-500"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        by_scheme = {r["scheme"]: r for r in rows}
        assert (by_scheme["mpa"]["mode"], by_scheme["mpa"]["asr"]) == ("oma", "0.0")
        assert by_scheme["srm"]["mode"] == "noma"


class TestSyslevelCommand:
    ARGS = [
        "syslevel",
        "--drops", "3",
        "--bs-density", "10",
        "--user-density", "200",
        "--delta-deg", "0:40:20",
        "--scheme", "oma,mpa",
    ]

    def test_writes_means_and_cdf(self, runner, tmp_path):
        out = tmp_path / "sys.csv"
        result = runner.invoke(main, self.ARGS + ["--out", str(out)])
        assert result.exit_code == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 3 * 2  # three deltas, two schemes
        cdf_path = tmp_path / "sys.csv.cdf.csv"
        assert cdf_path.exists()
        _, cdf_rows = parse_csv(cdf_path.read_text())
        assert set(r["scheme"] for r in cdf_rows) == {"oma", "mpa"}
        assert float(cdf_rows[-1]["cdf"]) == 1.0

    def test_delta_deg_cells_are_the_configured_values(self, runner):
        # not their radian round trip, which reads 29.999999999999996 and 59.99999999999999
        args = [a if a != "0:40:20" else "0:60:30" for a in self.ARGS]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [r["delta_deg"] for r in rows] == ["0.0", "0.0", "30.0", "30.0", "60.0", "60.0"]

    def test_explicit_cdf_out(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        cdf = tmp_path / "c.csv"
        result = runner.invoke(main, self.ARGS + ["--out", str(out), "--cdf-out", str(cdf)])
        assert result.exit_code == 0
        assert cdf.exists()
        assert not (tmp_path / "m.csv.cdf.csv").exists()


class TestValidateApproxCommand:
    def test_table(self, runner):
        result = runner.invoke(
            main,
            ["validate-approx", "--elements", "16,1024", "--delta-deg", "28.65", "--trials", "2000"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 2
        big = next(r for r in rows if r["n_elements"] == "1024")
        assert abs(float(big["rel_error"])) < 0.05


class TestConfigHandling:
    def test_config_file_applies(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"gammas-db": "8,2", "alpha2-step": 0.1}))
        result = runner.invoke(main, ["sweep-alpha2", "--config", str(cfg)])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        # [8, 2] dB upper bound exceeds the [8, 5] value
        assert float(rows[0]["alpha2_ub"]) == pytest.approx(1.70568, abs=1e-3)

    def test_cli_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"gammas-db": "8,2"}))
        result = runner.invoke(
            main,
            ["sweep-alpha2", "--config", str(cfg), "--gammas-db", "8,5", "--alpha2-step", "0.1"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0]["alpha2_ub"]) == pytest.approx(0.85497, abs=1e-3)

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"bogus": 1}))
        result = runner.invoke(main, ["sweep-alpha2", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sweep-alpha2", "--config", str(tmp_path / "absent.yaml")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, text",
        [
            ("pair-study", "targets_policy: explicit\nr1_min: abc\n"),
            ("syslevel", "drops: abc\n"),
            ("syslevel", "drops: null\n"),
            ("pair-study", "gammas_db: [8, 5]\n"),
            ("pair-study", "scheme: 5\n"),
        ],
    )
    def test_wrong_type_one_line_exit_2(self, runner, tmp_path, command, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    def test_values_take_the_option_type(self, runner, tmp_path):
        # a YAML int on a float option resolves to a float; null is a value
        # only where the option's default is None
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("tx_power_dbm: 23\ncdf_delta_deg: null\n")
        result = runner.invoke(main, ["syslevel", "--config", str(cfg), "--print-config"])
        assert result.exit_code == 0
        doc = yaml.safe_load(result.output)
        assert type(doc["tx_power_dbm"]) is float and doc["tx_power_dbm"] == 23.0
        assert doc["cdf_delta_deg"] is None

    def test_print_config(self, runner):
        result = runner.invoke(
            main, ["sweep-alpha2", "--print-config", "--gammas-db", "8,2", "--seed", "7"]
        )
        assert result.exit_code == 0
        doc = yaml.safe_load(result.output)
        assert doc["gammas_db"] == "8,2"
        assert doc["seed"] == 7

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-alpha2", "--gammas-db", "5,8"],
            ["sweep-delta", "--delta-deg", "50,10"],
            ["sweep-delta", "--delta-deg", "0:200:50"],
            ["pair-study", "--scheme", "bogus"],
            ["sweep-alpha2", "--alpha2-step", "0.7"],
        ],
    )
    def test_config_errors_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "config error" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["syslevel", "--pathloss-exponent", "1"],
            ["pair-study", "--gammas-db", "8,nan"],
            ["syslevel", "--drops", "1", "--bs-density", "0.001", "--user-density", "1"],
            ["syslevel", "--drops", "2", "--delta-deg", "0:40:20", "--cdf-delta-deg", "5"],
            ["pair-study", "--gammas-db=3100,0"],
            ["sweep-delta", "--gammas-db=3100,0"],
            ["sweep-alpha2", "--gammas-db=3100,0"],
            ["syslevel", "--tx-power-dbm", "4000"],
            ["syslevel", "--noise-dbm", "4000"],
            ["syslevel", "--drops", "1", "--tx-power-dbm", "nan"],
            ["syslevel", "--drops", "1", "--tx-power-dbm", "inf"],
            ["syslevel", "--drops", "1", "--noise-dbm", "nan"],
            ["syslevel", "--drops", "1", "--pathloss-exponent", "nan"],
            ["syslevel", "--drops", "1", "--pathloss-intercept-db", "nan"],
            ["syslevel", "--drops", "1", "--pathloss-intercept-db", "inf"],
            ["syslevel", "--drops", "1", "--pathloss-intercept-db", "-inf"],
            ["syslevel", "--drops", "1", "--ris-offset-m", "inf"],
            ["syslevel", "--drops", "1", "--ris-offset-m", "-5"],
            ["syslevel", "--drops", "1", "--user-density", "nan"],
            ["syslevel", "--drops", "1", "--area-km2", "inf"],
            ["syslevel", "--drops", "1", "--targets-policy", "explicit", "--r1-min", "-1"],
            ["syslevel", "--drops", "1", "--targets-policy", "explicit", "--r1-min", "nan"],
            ["syslevel", "--drops", "1", "--targets-policy", "explicit", "--r2-min", "2000"],
            ["sweep-delta", "--targets-policy", "explicit", "--r2-min", "-1"],
            ["sweep-alpha2", "--targets-policy", "explicit", "--r1-min", "inf"],
            ["validate-approx", "--trials", "1", "--targets-policy", "explicit", "--r1-min", "-1"],
            ["pair-study", "--delta-deg", "0,30,60"],
            ["syslevel", "--drops", "1", "--delta-ref-deg", "200"],
            ["validate-approx", "--trials", "1", "--delta-ref-deg", "500"],
            ["pair-study", "--delta-ref-deg", "nan"],
            ["sweep-delta", "--delta-ref-deg", "-1"],
            ["sweep-alpha2", "--gammas-db=7,-3233", "--delta-deg", "0,179"],
            ["sweep-delta", "--gammas-db=7,-3233", "--delta-deg", "0,179"],
            ["sweep-delta", "--gammas-db=-4000,-4000"],
            ["pair-study", "--gammas-db=0,-4000"],
        ],
    )
    def test_invalid_input_one_line_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    def test_numerical_failure_exit_3(self, runner, monkeypatch):
        def boom(cfg):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(ex, "pair_study_table", boom)
        result = runner.invoke(main, ["pair-study"])
        assert result.exit_code == 3
        assert "numerical failure" in result.output
