"""The texts of float columns: the vectorised kernel behind
tables._float_texts against repr, which it must equal byte for byte, and
the share of values it leaves to repr."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risnoma
from risnoma import experiments as ex
from risnoma import tables
from risnoma.syslevel import DeploymentConfig
from float_families import FAMILIES, family, mismatches

CELLS = [repr, tables._json_cell]  # a float's text in CSV and in JSON


def ulps_around(x, k=2):
    """x and the k floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def edge_values():
    edges = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310, 1.7976931348623157e308]
    edges += ulps_around(1e-4) + ulps_around(9.999999999999999e15) + ulps_around(1e16)
    for j in range(-6, 18):
        edges += ulps_around(10.0**j)
    for j in range(-20, 60):
        edges += ulps_around(2.0**j)
    edges += [0.5, 0.25, 0.125, 1.5, 2.5, 0.0001220703125, 4503599627370495.5, 9007199254740993.0]
    values = np.array(edges + [-v for v in edges])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF80000DEADBEEF, 0x7FF0000000000001], dtype=np.uint64)
    return np.concatenate([values, nans.view(np.float64)])


class TestFloatTexts:
    def test_families_match_repr(self):
        # a million seeded values; tests/float_families.py checks more
        for index, name in enumerate(FAMILIES):
            values = family(name, 100_000, np.random.default_rng([7, index]))
            assert mismatches(values) == [], name

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("chunk", [1, 7, tables.CHUNK_ROWS])
    def test_edges(self, monkeypatch, cell, chunk):
        monkeypatch.setattr(tables, "CHUNK_ROWS", chunk)
        values = edge_values()
        assert mismatches(values, cell) == []
        # every value once, in the order np.unique sorts them
        assert mismatches(np.unique(values.view(np.int64)).view(np.float64), cell) == []

    @pytest.mark.parametrize("cell", CELLS)
    def test_float32_columns(self, cell):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**32, 20_000, dtype=np.uint64).astype(np.uint32)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, 1e-4, 1e16, 0.1, 1 / 3, 3.4028235e38], dtype=np.float32)
        values = np.concatenate([bits.view(np.float32), edges, rng.random(20_000).astype(np.float32)])
        assert values.dtype == np.float32
        assert mismatches(values, cell) == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_any_floats(self, values):
        for cell in CELLS:
            assert mismatches(np.array(values), cell) == []

    def test_few_values_left_to_repr(self):
        cfg = ex.ExperimentConfig(
            kind=ex.ExperimentKind.SYSLEVEL, delta_deg=(0.0,), deploy=DeploymentConfig(drops=2, seed=1)
        )
        _, cdf = ex.syslevel_tables(cfg)
        calls = []

        def counted(value):
            calls.append(value)
            return repr(value)

        for column in ("asr", "cdf"):
            values = cdf.data[column]
            del calls[:]
            texts, _ = tables._float_texts(values, counted)
            assert texts.tolist() == list(map(repr, np.unique(values.view(np.int64)).view(np.float64).tolist()))
            assert len(texts) > 1000 and len(calls) < 0.01 * len(texts), column

    def test_small_columns_left_to_float_text(self):
        # float_text writes each of fewer than 1024 distinct values; from 1024 on the kernel does
        calls = []

        def counted(value):
            calls.append(value)
            return repr(value)

        n = 1024
        values = np.random.default_rng(5).random(n)
        assert tables._float_texts(values[:-1], counted)[0].tolist() == list(map(repr, np.sort(values[:-1]).tolist()))
        assert len(calls) == n - 1
        del calls[:]
        tables._float_texts(values, counted)
        assert len(calls) < 10


def test_cli_import_leaves_the_kernel_out():
    # neither importing the CLI nor a run whose float columns are all under
    # 1024 distinct values (sweep-delta at its defaults: 91 rows) compiles
    # the kernel; this module imports it, so a fresh interpreter checks
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(risnoma.__file__)))
    code = (
        "import contextlib, io, sys, risnoma.cli\n"
        "print('risnoma.floattext' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    risnoma.cli.main(['sweep-delta'], standalone_mode=False)\n"
        "print(out.getvalue().count('\\n') > 91, 'risnoma.floattext' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\nTrue False\n"
