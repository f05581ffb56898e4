import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import risnoma
from risnoma import experiments as ex
from risnoma import tables
from risnoma.cli import main
from risnoma.eepa import ConvergenceError
from risnoma.pairing import Scheme
from risnoma.syslevel import DeploymentConfig
from risnoma.tables import Table, render_csv, render_json, write_table


# each would build a table or a range of 10^9 points and more
GRID_TOO_LARGE = [
    ["sweep-alpha2", "--alpha2-step", "1e-9"],
    ["sweep-delta", "--delta-deg", "0:179:1e-7"],
    ["validate-approx", "--elements", "1:1e12:1"],
]
# each would ask for gigabytes at once: one Monte-Carlo trial of 10^9
# elements, 10^9 users' positions, or a 10^6 x 10^6 association search
MEMORY_TOO_LARGE = [
    ["validate-approx", "--elements", "1000000000", "--trials", "1"],
    ["syslevel", "--drops", "1", "--user-density", "1e9"],
    ["syslevel", "--drops", "1", "--bs-density", "1e6"],
]


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
            {"schemes": (Scheme.OMA, Scheme.MPA, Scheme.OMA)},
            {"mc_elements": (4, ex.MAX_MC_ELEMENTS + 1)},
            {"gammas_db": (ex.MAX_GAMMA_DB + 1.0, 0.0)},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(kind=ex.ExperimentKind.SWEEP_ALPHA2, **kwargs)


class TestTables:
    def test_csv_shape(self):
        t = Table({"a": [1.5], "b": ["x"]})
        text = render_csv(t, {"seed": 3, "alpha": "y"})
        lines = text.split("\r\n")
        assert lines[0] == "# alpha: y"
        assert lines[1] == "# seed: 3"
        assert lines[2] == "a,b"
        assert lines[3] == "1.5,x"

    def test_csv_float_round_trip(self):
        value = 0.8549662632375659
        t = Table({"v": [value]})
        meta, rows = parse_csv(render_csv(t, {}))
        assert float(rows[0]["v"]) == value

    def test_json_shape(self):
        t = Table({"a": [2]})
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
    tables built from lists of row values and from numpy columns."""

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

    def from_rows(self, columns, rows):
        return Table({c: [row[c] for row in rows] for c in columns})

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
        self.check(self.from_rows(columns, rows), columns, rows)
        arrays = Table(
            {
                "scheme": [r["scheme"] for r in rows],
                "x": np.array([r["x"] for r in rows]),
                "n": np.array([r["n"] for r in rows]),
                "delta_ub_deg": [r["delta_ub_deg"] for r in rows],
                'q"uoted,name': np.array([r['q"uoted,name'] for r in rows]),
            }
        )
        self.check(arrays, columns, rows)
        # a str array, as sweep-delta's mode is, formatted once per distinct string
        self.check(Table({**arrays.data, "scheme": np.array(arrays.data["scheme"])}), columns, rows)

    @pytest.mark.parametrize("values", [["", "a", ""], [""], ["a,b", "", 'x"']])
    def test_one_column_with_empty_field(self, values):
        rows = [{"v": v} for v in values]
        self.check(self.from_rows(["v"], rows), ["v"], rows)
        self.check(Table({"v": list(values)}), ["v"], rows)

    def test_empty_column_name(self):
        rows = [{"": 1.5}, {"": ""}]
        self.check(self.from_rows([""], rows), [""], rows)

    def test_no_rows(self):
        columns = ["scheme", "asr", "cdf"]
        self.check(self.from_rows(columns, []), columns, [])
        empty = Table({"scheme": [], "asr": np.empty(0), "cdf": np.empty(0)})
        self.check(empty, columns, [])

    def test_random_floats_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500)
        rows = [{"scheme": "mpa", "asr": v} for v in values.tolist()]
        table = Table({"scheme": ["mpa"] * len(values), "asr": values})
        self.check(table, ["scheme", "asr"], rows)
        _, parsed = parse_csv(render_csv(table, {}))
        assert np.array_equal(np.array([float(r["asr"]) for r in parsed]), values)

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError):
            Table({"a": [1, 2], "b": np.zeros(3)})

    def test_float_arrays_written_by_bit_pattern(self):
        # 0.0 == -0.0 yet each is written differently; NaNs of any payload are "nan"
        nans64 = np.frombuffer(
            np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF80000DEADBEEF], dtype=np.uint64).tobytes(),
            dtype=np.float64,
        )
        nans32 = np.frombuffer(np.array([0x7FC00000, 0xFFC00000, 0x7FC0BEEF], dtype=np.uint32).tobytes(), dtype=np.float32)
        edges64 = np.concatenate([nans64, [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1 / 3, 1e16]])
        edges32 = np.concatenate([nans32, np.array([0.0, -0.0, math.inf, -math.inf, 1e-45, 0.1, 1 / 3], dtype=np.float32)])
        rng = np.random.default_rng(11)
        columns = ["x", "y"]
        data = {"x": edges64[rng.integers(0, len(edges64), 300)], "y": edges32[rng.integers(0, len(edges32), 300)]}
        assert data["y"].dtype == np.float32
        rows = [{"x": x, "y": y} for x, y in zip(data["x"].tolist(), data["y"].tolist())]
        self.check(Table(data), columns, rows)

    def test_list_cells_written_by_type(self):
        # as dict keys 1 == 1.0 == True and 0 == -0.0 == False, yet each is written differently
        ones = [1, 1.0, True, "1", True, 1.0, 1]
        zeros = [0, -0.0, False, None, 0.0, "", None, False, -0.0, 0, "0"]
        texts = ["a,b", 'say "hi"', "lf\ny", "a,b", "", 'say "hi"', "caf\u00e9", "lf\ny", "a,b"]
        columns = ["one", "zero", "text"]
        rows = [
            {"one": ones[i % len(ones)], "zero": zeros[i % len(zeros)], "text": texts[i % len(texts)]}
            for i in range(3 * len(zeros))
        ]
        self.check(self.from_rows(columns, rows), columns, rows)

    def test_campaign_cdf(self):
        # the CDF repeats: levels i/n shared by every scheme, ASR samples tied between MPA and SRM
        cfg = ex.ExperimentConfig(
            kind=ex.ExperimentKind.SYSLEVEL, delta_deg=(0.0,), deploy=DeploymentConfig(drops=2, seed=1)
        )
        _, cdf = ex.syslevel_tables(cfg)
        assert set(cdf.data["scheme"]) == {s.value for s in Scheme}
        assert len(np.unique(cdf.data["cdf"])) * len(Scheme) == len(cdf)
        assert len(np.unique(cdf.data["asr"])) < len(cdf) * 0.9
        self.check(cdf, cdf.columns, list(cdf.rows))

    def test_write_table_bytes_are_utf8_under_any_locale(self, tmp_path):
        out = tmp_path / "t.csv"
        script = (
            "import sys\n"
            "from risnoma.tables import Table, write_table\n"
            "write_table(Table({'s': ['caf\\u00e9']}), sys.argv[1], 'csv', {'note': 'na\\u00efve'})\n"
        )
        src = os.path.dirname(os.path.dirname(risnoma.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        text = render_csv(Table({"s": ["caf\u00e9"]}), {"note": "na\u00efve"})
        assert out.read_bytes() == text.encode("utf-8")


class TestChunkedOutput:
    """Tables of more than tables.CHUNK_ROWS rows render chunk by chunk:
    render_csv, render_json and the bytes write_table writes are the
    per-row renderers' text at every chunk boundary."""

    META = TestColumnarOutput.META

    def check(self, table, columns, rows, tmp_path):
        for fmt, render, reference in (("csv", render_csv, reference_csv), ("json", render_json, reference_json)):
            want = reference(columns, rows, self.META)
            assert render(table, self.META) == want
            write_table(table, tmp_path / f"t.{fmt}", fmt, self.META)
            assert (tmp_path / f"t.{fmt}").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_boundary(self, monkeypatch, tmp_path, k):
        monkeypatch.setattr(tables, "CHUNK_ROWS", k)
        columns = ["scheme", "x", "n", "cell"]
        for n in sorted({0, 1, k - 1, k, k + 1, 2 * k + 1}):
            rows = [
                {
                    "scheme": EDGE_STRINGS[i % len(EDGE_STRINGS)],
                    "x": EDGE_FLOATS[i % 3],  # values recur across chunks
                    "n": i - 1,
                    "cell": [None, 1.5, "a,b", True][i % 4],
                }
                for i in range(n)
            ]
            self.check(Table({c: [row[c] for row in rows] for c in columns}), columns, rows, tmp_path)
            arrays = Table(
                {
                    "scheme": [r["scheme"] for r in rows],
                    "x": np.array([r["x"] for r in rows]),
                    "n": np.array([r["n"] for r in rows], dtype=np.int64),
                    "cell": [r["cell"] for r in rows],
                }
            )
            self.check(arrays, columns, rows, tmp_path)
            # csv.writer quotes a lone empty field in every chunk, the header's included
            lone = [{"": ["", "a", 'x"'][i % 3]} for i in range(n)]
            self.check(Table({"": [r[""] for r in lone]}), [""], lone, tmp_path)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_str_columns_across_chunks(self, monkeypatch, tmp_path, k):
        # a list column of str only is formatted once per distinct value over
        # the whole column; a column mixing str with other types (np.str_
        # among them, equal to its str as a dict key) is formatted chunk by chunk
        monkeypatch.setattr(tables, "CHUNK_ROWS", k)
        mixed = ["mpa", None, True, 1, 1.0, np.str_("mpa"), "", 0, -0.0, np.str_("a,b"), False, "a,b"]
        columns = ["scheme", "same", "mixed"]
        n = 5 * k + 2
        rows = [
            {"scheme": EDGE_STRINGS[i % len(EDGE_STRINGS)], "same": "srm", "mixed": mixed[i % len(mixed)]}
            for i in range(n)
        ]
        table = Table({c: [row[c] for row in rows] for c in columns})
        self.check(table, columns, rows, tmp_path)
        calls = []

        def counted(value):
            calls.append(value)
            return cell(value)

        for fmt, cell, render in (("csv", tables._csv_cell, render_csv), ("json", tables._json_cell, render_json)):
            monkeypatch.setattr(tables, f"_{fmt}_cell", counted)
            del calls[:]
            render(Table({c: table.data[c] for c in columns[:2]}), {})
            body = [v for v in calls if v not in columns[:2]]  # the header's names aside
            assert sorted(body) == sorted(set(EDGE_STRINGS[: min(n, len(EDGE_STRINGS))]) | {"srm"})

    @pytest.mark.parametrize("fmt, render", [("csv", render_csv), ("json", render_json)])
    def test_writing_streams(self, tmp_path, fmt, render):
        # eight chunks and more: render holds every chunk's text, write_table one
        n = 8 * tables.CHUNK_ROWS + 1
        rng = np.random.default_rng(5)
        levels = rng.standard_normal(1000)
        table = Table(
            {
                "scheme": ["mpa", "srm", "eepa"] * (n // 3) + ["oma"] * (n % 3),
                "asr": levels[rng.integers(0, 1000, n)],
                "ee": levels[rng.integers(0, 1000, n)],
            }
        )
        peaks = []
        for run in (lambda: render(table, self.META), lambda: write_table(table, tmp_path / "t", fmt, self.META)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rendered, written = peaks
        assert written < 0.75 * rendered


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

    @pytest.mark.parametrize(
        "args, key, value, expected",
        [
            (["pair-study"], "scheme", "mode", {"oma": "oma", "mpa": "oma", "eepa": "oma", "srm": "noma"}),
            (["sweep-alpha2", "--delta-deg", "0"], "delta_deg", "alpha2_lb", {"0.0": "inf"}),
            (["sweep-delta", "--delta-deg", "0,10"], "delta_deg", "mode", {"0.0": "oma", "10.0": "oma"}),
        ],
    )
    def test_subnormal_weak_gamma_with_floors_without_warning(self, runner, args, key, value, expected):
        # nonzero floors: alpha2_lb and EEPA's weak-user threshold overflow
        # to their value, +inf, and MPA and EEPA fall back to OMA
        floors = ["--targets-policy", "explicit", "--r1-min", "0.7", "--r2-min", "0.4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args + ["--gammas-db=7,-3233"] + floors)
        assert result.exit_code == 0 and result.exception is None
        _, rows = parse_csv(result.output)
        assert {r[key]: r[value] for r in rows} == expected

    @pytest.mark.parametrize(
        "args",
        [
            ["pair-study", "--gammas-db", "300,299"],
            ["sweep-delta", "--gammas-db", "300,299", "--delta-deg", "0"],
            ["syslevel", "--drops", "1", "--delta-deg", "0"],
        ],
    )
    def test_floors_near_1024_bits_without_warning(self, runner, args):
        # MPA's threshold 2^r2 * (2^r1 - 1) / Gamma1 overflows to its value,
        # +inf, which no sinc^2 meets: MPA falls back to OMA
        floors = ["--targets-policy", "explicit", "--r1-min", "900", "--r2-min", "900"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args + floors)
        assert result.exit_code == 0 and result.exception is None
        _, rows = parse_csv(result.output)
        mpa = next(r for r in rows if r.get("scheme", "mpa") == "mpa")  # sweep-delta has only MPA's rows
        if args[0] == "syslevel":
            oma = next(r for r in rows if r["scheme"] == "oma")
            assert mpa["mean_asr"] == oma["mean_asr"]
        else:
            assert (mpa["mode"], mpa["delta_ub_deg"]) == ("oma", "")

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

    def test_delta_deg_cells_apart_where_radians_collide(self, runner):
        # both values convert to one radian value; each row keeps its own
        deltas = ["116.63514211737457", "116.63514211737458"]
        assert math.radians(float(deltas[0])) == math.radians(float(deltas[1]))
        result = runner.invoke(main, ["syslevel", "--drops", "1", "--scheme", "oma", "--delta-deg", ",".join(deltas)])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [r["delta_deg"] for r in rows] == deltas
        assert rows[0]["mean_asr"] == rows[1]["mean_asr"]

    def test_explicit_cdf_out(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        cdf = tmp_path / "c.csv"
        result = runner.invoke(main, self.ARGS + ["--out", str(out), "--cdf-out", str(cdf)])
        assert result.exit_code == 0
        assert cdf.exists()
        assert not (tmp_path / "m.csv.cdf.csv").exists()


class TestUnwritableOutput:
    SYSLEVEL = ["syslevel", "--drops", "1", "--bs-density", "10", "--user-density", "200", "--delta-deg", "0"]

    @pytest.mark.parametrize(
        "args",
        [
            SYSLEVEL + ["--out", "{tmp}/missing/x.csv"],
            SYSLEVEL + ["--cdf-out", "{tmp}/missing/c.csv"],
            ["pair-study", "--out", "{tmp}/missing/x.csv"],
            SYSLEVEL + ["--out", "{tmp}"],  # a directory
        ],
    )
    def test_one_line_exit_2(self, runner, tmp_path, args):
        result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("output error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [["pair-study"], ["sweep-alpha2", "--alpha2-step", "0.0001"]])
    def test_full_stdout_one_line_exit_2(self, args):
        # a short table fails on click's flush, a long one on the write; with
        # stdout buffered, as by default, neither may leave data for the
        # interpreter's own flush at exit ("Exception ignored", exit 120)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(risnoma.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "risnoma.cli", *args], stdout=full, stderr=subprocess.PIPE, text=True, env=env
            )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("output error: ")

    def test_syslevel_writes_both_files_or_neither(self, runner, tmp_path):
        means = tmp_path / "m.csv"
        args = self.SYSLEVEL + ["--out", str(means), "--cdf-out", str(tmp_path / "missing" / "c.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert os.listdir(tmp_path) == []
        means.write_bytes(b"an earlier run\r\n")
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert means.read_bytes() == b"an earlier run\r\n"
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_failure_mid_table_leaves_no_file(self, runner, tmp_path, monkeypatch):
        # a table is written as it renders, so its file exists before the last row
        def failing(table, meta):
            yield "a first chunk\r\n"
            raise RuntimeError("render failed")

        monkeypatch.setattr(tables, "_csv_chunks", failing)
        result = runner.invoke(main, self.SYSLEVEL + ["--out", str(tmp_path / "m.csv")])
        assert isinstance(result.exception, RuntimeError)
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_that_is_no_file_is_written_in_place(self, runner, tmp_path):
        # a device or pipe, such as /dev/null, is never replaced by a temporary file
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            result = runner.invoke(main, ["pair-study", "--out", str(fifo)])
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert result.exit_code == 0 and data.startswith(b"# config_sha256")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["p"]

    @pytest.mark.parametrize("cdf_out", ["x.csv", "sub/../x.csv"])
    def test_syslevel_outputs_that_are_one_file_rejected(self, runner, tmp_path, cdf_out):
        # both files moved onto one path would leave only the CDF
        args = self.SYSLEVEL + ["--out", str(tmp_path / "x.csv"), "--cdf-out", str(tmp_path / cdf_out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert os.listdir(tmp_path) == []

    def test_syslevel_files_share_one_metadata_block(self, runner, tmp_path):
        means, cdf = tmp_path / "m.csv", tmp_path / "c.csv"
        result = runner.invoke(main, self.SYSLEVEL + ["--out", str(means), "--cdf-out", str(cdf)])
        assert result.exit_code == 0
        meta = [[line for line in path.read_text().splitlines() if line.startswith("# ")] for path in (means, cdf)]
        assert meta[0] == meta[1] and len(meta[0]) == 3


COLUMNS = {
    "sweep-alpha2": [
        "delta_deg", "alpha2", "r1", "r2", "asr", "r1_oma", "r2_oma", "r1_target", "r2_target", "alpha2_lb", "alpha2_ub"
    ],
    "sweep-delta": ["delta_deg", "mode", "alpha2", "r1", "r2", "asr", "r1_oma", "r2_oma", "asr_oma", "delta_ub_deg"],
    "pair-study": ["scheme", "mode", "alpha1", "alpha2", "r1", "r2", "asr", "ee", "delta_ub_deg", "iterations"],
    "syslevel": [
        "scheme", "delta_deg", "mean_r1", "se_r1", "mean_r2", "se_r2", "mean_asr", "se_asr", "mean_ee", "se_ee",
        "n_pairs",
    ],
    "validate-approx": ["n_elements", "delta_deg", "mc_estimate", "sinc_sq", "rel_error"],
}
CDF_COLUMNS = ["scheme", "asr", "cdf"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(COLUMNS))
def test_columns_in_order(runner, tmp_path, command, fmt):
    # every subcommand at its defaults (syslevel on 2 drops: its columns do
    # not depend on the count), with the syslevel CDF file
    out = tmp_path / f"t.{fmt}"
    args = [command, "--format", fmt, "--out", str(out)] + (["--drops", "2"] if command == "syslevel" else [])
    assert runner.invoke(main, args).exit_code == 0
    outputs = [(out, COLUMNS[command])]
    if command == "syslevel":
        outputs.append((tmp_path / f"t.{fmt}.cdf.{fmt}", CDF_COLUMNS))
    for path, columns in outputs:
        text = path.read_bytes().decode("utf-8")
        if fmt == "csv":
            header = next(line for line in text.split("\r\n") if not line.startswith("# "))
            assert header.split(",") == columns
        else:
            rows = json.loads(text)["rows"]
            assert rows and all(list(row) == columns for row in rows)


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

    def test_cli_flag_before_config_overrides_it(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"gammas-db": "8,2", "alpha2-step": 0.1}))
        result = runner.invoke(main, ["sweep-alpha2", "--gammas-db", "8,5", "--config", str(cfg)])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0]["alpha2_ub"]) == pytest.approx(0.85497, abs=1e-3)

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"bogus": 1}))
        result = runner.invoke(main, ["sweep-alpha2", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "config error" in result.output

    # where and how a run writes, and --config itself, are not presets
    @pytest.mark.parametrize("key", ["out", "format", "print-config", "config"])
    def test_output_options_are_unknown_keys(self, runner, tmp_path, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({key: "x"}))
        result = runner.invoke(main, ["sweep-alpha2", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output == f"config error: unknown config key {key.replace('-', '_')!r}\n"

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sweep-alpha2", "--config", str(tmp_path / "absent.yaml")]
        )
        assert result.exit_code == 2

    def test_help_wins_over_a_missing_config_file(self, runner, tmp_path):
        # --help is eager: it is handled before --config, wherever it stands
        result = runner.invoke(main, ["sweep-alpha2", "--config", str(tmp_path / "absent.yaml"), "--help"])
        assert result.exit_code == 0
        assert result.output.startswith("Usage: ")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("pair-study", "targets_policy: explicit\nr1_min: abc\n"),
            ("syslevel", "drops: abc\n"),
            ("syslevel", "drops: null\n"),
            ("pair-study", "gammas_db: [8, 5]\n"),
            ("pair-study", "scheme: 5\n"),
            ("syslevel", "tx_power_dbm: [1]\n"),
            ("syslevel", "seed: [3]\n"),
            ("syslevel", "drops: [1]\n"),
            ("syslevel", "cdf_out: [1]\n"),
            ("syslevel", "delta_ref_deg: {a: 1}\n"),
            # a file value is read as the flag's text would be, never rounded or cast
            ("syslevel", "drops: 1.9\n"),
            ("syslevel", "drops: 1\nris_elements: 31.999\n"),
            ("pair-study", "seed: true\n"),
            ("syslevel", "drops: 1\ntx_power_dbm: true\n"),
            # a file that is no YAML mapping, or no text at all, is one line too
            ("pair-study", "gammas_db: [8, 5\n"),
            ("pair-study", "\tseed: 1\n"),
            ("pair-study", "b: *y\n"),
            ("pair-study", b"\xc3\x28a: 1\n"),
            ("pair-study", "- 1\n- 2\n"),
            ("pair-study", "seed: !!int abc\n"),
            pytest.param("pair-study", "seed: " + "[" * 3000 + "]" * 3000 + "\n", id="pair-study-nested-3000-deep"),
        ],
    )
    def test_wrong_type_one_line_exit_2(self, runner, tmp_path, command, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_file_encoding_is_detected(self, runner, tmp_path, encoding):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes("gammas_db: 8,2\nscheme: mpa  # Γ1,Γ2 in dB\n".encode(encoding))
        result = runner.invoke(main, ["pair-study", "--config", str(cfg), "--print-config"])
        assert result.exit_code == 0
        doc = yaml.safe_load(result.output)
        assert (doc["gammas_db"], doc["scheme"]) == ("8,2", "mpa")

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

    # YAML 1.1 reads each as a base-60 number: 90, 640, 5401 and 600.5; the
    # file must hand click the text, as the flag does
    @pytest.mark.parametrize("spec", ["1:30", "10:40", "1:30:1", "0:10:0.5"])
    def test_range_in_config_is_the_flag_text(self, runner, tmp_path, spec):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"delta_deg: {spec}\n")
        runs = [runner.invoke(main, ["sweep-delta", *args]) for args in (["--config", str(cfg)], ["--delta-deg", spec])]
        preset, flagged = ([line for line in r.output.splitlines() if not line.startswith("# generated")] for r in runs)
        assert runs[0].exit_code == runs[1].exit_code and preset == flagged
        if spec.count(":") == 1:  # no step: a config error that names the text
            assert runs[0].exit_code == 2 and preset == [f"config error: bad range spec {spec!r}, expected start:stop:step"]
        else:
            _, rows = parse_csv(runs[0].output)
            start, stop, step = map(float, spec.split(":"))
            assert [float(r["delta_deg"]) for r in rows] == [start + k * step for k in range(len(rows))]
            assert float(rows[-1]["delta_deg"]) == stop

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-alpha2", "--gammas-db", "9,2", "--alpha2-step", "0.01"],
            ["sweep-delta", "--delta-deg", "0:90:10", "--targets-policy", "oma-current"],
            ["pair-study", "--gammas-db", "15,5", "--delta-deg", "0.1"],
            ["syslevel", "--drops", "1", "--delta-deg", "0,40", "--tx-power-dbm", "20.5", "--seed", "3"],
            ["validate-approx", "--elements", "4,16", "--trials", "100", "--seed", "2"],
        ],
    )
    def test_print_config_round_trips(self, runner, tmp_path, args):
        # the echoed option set, fed back as the config file, reproduces the
        # run byte for byte, config_sha256 included
        cfg = tmp_path / "cfg.yaml"
        printed = runner.invoke(main, [*args, "--print-config"])
        assert printed.exit_code == 0
        cfg.write_text(printed.output)
        runs = [runner.invoke(main, argv) for argv in (args, [args[0], "--config", str(cfg)])]
        assert [r.exit_code for r in runs] == [0, 0]
        flagged, preset = ([line for line in r.output.splitlines() if not line.startswith("# generated")] for r in runs)
        assert flagged == preset and any(line.startswith("# config_sha256") for line in flagged)
        assert runner.invoke(main, [args[0], "--config", str(cfg), "--print-config"]).output == printed.output

    def test_hash_leaves_out_where_files_go(self, runner, tmp_path):
        def config_sha256(args):
            result = runner.invoke(main, ["syslevel", "--drops", "1", "--delta-deg", "0", *args])
            assert result.exit_code == 0
            text = result.output or open(args[1], encoding="utf-8").read()  # --out first
            return next(line for line in text.splitlines() if line.startswith("# config_sha256"))

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        hashes = {
            config_sha256(["--out", str(tmp_path / d / "m.csv"), "--cdf-out", str(tmp_path / d / "c.csv")])
            for d in ("a", "b")
        }
        hashes.add(config_sha256([]))
        assert len(hashes) == 1
        assert config_sha256(["--seed", "1"]) not in hashes

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
            ["validate-approx", "--elements", "4.7", "--trials", "10", "--delta-deg", "10"],
            ["validate-approx", "--elements", "4:16:4.5", "--trials", "10"],
            ["validate-approx", "--elements", "inf", "--trials", "10"],
            ["validate-approx", "--elements", "1e400", "--trials", "10"],
            ["pair-study", "--scheme", "mpa,mpa"],
            ["pair-study", "--scheme", "oma,mpa,eepa,srm,mpa"],
            ["syslevel", "--drops", "1", "--scheme", "oma,oma"],
            ["validate-approx", "--elements", ""],
            ["validate-approx", "--elements", ","],
            *GRID_TOO_LARGE,
            ["sweep-delta", "--delta-deg", "0:inf:1"],
            ["syslevel", "--drops", "abc"],
            ["pair-study", "--format", "xml"],
            ["pair-study", "--bogus", "1"],
            ["pair-study", "--gammas-db"],
            ["nosuch"],
            ["syslevel", "--drops", "1", "--pathloss-exponent", "1e308"],
            ["syslevel", "--drops", "1", "--pathloss-intercept-db", "-1e308"],
            ["syslevel", "--drops", "1", "--ris-offset-m", "1e308"],
            ["syslevel", "--drops", "1", "--pathloss-exponent", "100"],
            *MEMORY_TOO_LARGE,
            ["pair-study", "--gammas-db=2060,2060", "--scheme", "mpa,oma"],
            ["pair-study", "--gammas-db=1780,1780", "--scheme", "eepa", "--targets-policy", "explicit"],
            ["sweep-delta", "--gammas-db=2060,2060"],
            ["sweep-alpha2", "--gammas-db=1000.5,0"],
            ["syslevel", "--drops", "1", "--bs-density", "1", "--user-density", "30", "--tx-power-dbm", "2900"],
            ["syslevel", "--drops", "1", "--ris-elements", str(10**200)],
            ["syslevel", "--drops", "1", "--bs-antennas", str(10**400)],
            ["syslevel", "--drops", "1", "--ris-elements", str(10**154)],
            ["syslevel", "--drops", "1", "--bs-antennas", str(10**308)],
            ["syslevel", "--seed", "-1"],
            ["validate-approx", "--seed", "-1"],
            ["pair-study", "--seed", "-1"],
            ["syslevel", "--config", "{tmp}/seed.yaml"],
        ],
    )
    def test_invalid_input_one_line_exit_2(self, runner, tmp_path, args):
        (tmp_path / "seed.yaml").write_text("seed: -1\n")
        result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    @pytest.mark.skipif(resource is None, reason="needs RLIMIT_AS")
    def test_grid_too_large_fails_under_a_memory_cap(self):
        # with the address space capped in the child, a grid or an array that
        # is built before it is checked fails this test instead of exhausting memory
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        # BLAS threads reserve address space per core
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(risnoma.__file__)), OPENBLAS_NUM_THREADS="1")
        for args in [["pair-study"], *GRID_TOO_LARGE, *MEMORY_TOO_LARGE]:
            proc = subprocess.run(
                [sys.executable, "-m", "risnoma.cli", *args], capture_output=True, text=True, env=env, preexec_fn=limit
            )
            if args == ["pair-study"]:  # the cap leaves room for a plain run
                assert proc.returncode == 0, proc.stderr
                continue
            assert proc.returncode == 2, proc.stderr[-500:]
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")

    def test_numerical_failure_exit_3(self, runner, monkeypatch):
        def boom(cfg):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(ex, "pair_study_table", boom)
        result = runner.invoke(main, ["pair-study"])
        assert result.exit_code == 3
        assert "numerical failure" in result.output


def test_import_loads_no_yaml():
    # only --config and --print-config load the YAML parser; this module
    # imports yaml itself, so a fresh interpreter checks the CLI's imports
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(risnoma.__file__)))
    code = "import sys, risnoma.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'yaml'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
