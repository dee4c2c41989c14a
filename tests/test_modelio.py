import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momabs import modelio, springmass
from momabs.modelio import (
    CSV_BLOCK_ROWS,
    ModelFileError,
    RunReport,
    load_json,
    load_model,
    matrix_field,
    save_json,
    save_model,
    write_csv,
    write_svg,
)


class TestModelJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "plant.json"
        save_model(path, springmass.concrete(), role="concrete")
        model = load_model(path)
        assert np.array_equal(model.a, springmass.concrete().a)
        assert np.array_equal(model.b, springmass.concrete().b)
        assert np.array_equal(model.c, springmass.concrete().c)

    def test_missing_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [[1.0]], "b": [[1.0]]}')
        with pytest.raises(ModelFileError, match="missing matrix 'c'"):
            load_model(path)

    def test_unknown_role(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [[1.0]], "b": [[1.0]], "c": [[1.0]], "role": "plant"}')
        with pytest.raises(ModelFileError, match="unknown role"):
            load_model(path)

    def test_non_numeric_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [["x"]], "b": [[1.0]], "c": [[1.0]]}')
        with pytest.raises(ModelFileError, match="not a numeric array"):
            load_model(path)

    def test_vector_rejected_as_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [1.0, 2.0], "b": [[1.0]], "c": [[1.0]]}')
        with pytest.raises(ModelFileError, match="must be a matrix"):
            load_model(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": [[1.0],\n  "b": }')
        with pytest.raises(ModelFileError, match=r"line 2, column"):
            load_json(path)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        save_json(path, {"p": springmass.embedding_p()})
        assert np.array_equal(matrix_field(load_json(path), "p", path), springmass.embedding_p())

    def test_matrix_missing_field(self, tmp_path):
        path = tmp_path / "p.json"
        save_json(path, {"p": np.eye(2)})
        with pytest.raises(ModelFileError, match="missing field 'q'"):
            matrix_field(load_json(path), "q", path)


class TestCsv:
    def test_schema_and_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        times = np.array([0.0, 0.1, 0.2])
        y = np.array([[1.0, 2.0], [np.pi, -1e-17], [1.0 / 3.0, 4.0]])
        write_csv(path, times, {"y": y, "err": np.array([0.0, 0.5, 0.25])})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,y_1,y_2,err"
        # 17 significant digits survive a parse round trip
        vals = [float(v) for v in lines[2].split(",")]
        assert vals[1] == np.pi and vals[2] == -1e-17

    def test_single_column_keeps_plain_name(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, np.array([0.0, 1.0]), {"v": np.array([1.0, 2.0])})
        assert path.read_text().splitlines()[0] == "time,v"
        # a one-column series, N x 1 or 1 x N, is one channel under the same name in both files
        times = np.linspace(0.0, 1.0, 5)
        for y in (np.sin(times)[:, None], np.sin(times)[None, :]):
            write_csv(path, times, {"y": y})
            write_svg(tmp_path / "out.svg", times, {"y": y})
            assert path.read_text().splitlines()[0] == "time,y"
            assert ">y</text>" in (tmp_path / "out.svg").read_text()

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^column 'y' must be 1x2, got \(1, 3\)$"):
            write_csv(tmp_path / "x.csv", np.array([0.0, 1.0]), {"y": np.zeros(3)})

    def test_byte_determinism(self, tmp_path):
        times = np.linspace(0.0, 1.0, 100)
        data = np.sin(3.0 * times)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, times, {"y": data})
        write_csv(p2, times, {"y": data.copy()})
        assert p1.read_bytes() == p2.read_bytes()


EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, 1e-17, np.pi, 1.0 / 3.0]
)


def strided_series():
    """100 001 samples taken from every other entry of a longer grid."""
    base = np.linspace(0.0, 20.0, 200_001)
    return base[::2], np.column_stack([np.sin(3.0 * base), 1e3 * np.cos(base)])[::2]


def per_value_csv(times, columns):
    """Reference CSV text, formatted one value at a time with f-strings."""
    names, series = ["time"], []
    for name, arr in columns.items():
        arr = np.atleast_2d(np.asarray(arr, float))
        if arr.shape[0] == times.size:
            arr = arr.T
        for i in range(arr.shape[0]):
            names.append(name if arr.shape[0] == 1 else f"{name}_{i + 1}")
            series.append(arr[i])
    lines = [",".join(names)]
    for row in range(times.size):
        lines.append(",".join([f"{times[row]:.17g}"] + [f"{s[row]:.17g}" for s in series]))
    return "\n".join(lines) + "\n"


def per_value_svg_points(times, channels):
    """Reference polyline point lists of the 900x600 plot, one f-string per point."""
    ymin = min(float(v.min()) for v in channels)
    ymax = max(float(v.max()) for v in channels)
    if ymax - ymin < 1e-30:
        ymax = ymin + 1.0
        if ymax == ymin:  # above 2**53: a one-ulp range, stepping towards 0
            ymin, ymax = sorted((ymin, float(np.nextafter(ymin, 0.0))))
    tmin, tmax = float(times[0]), float(times[-1])
    k = 1.0 if np.isfinite(480 * (ymax - ymin)) else 2.0**-10  # 480 (ymax - ymin) overflows
    stride = max(1, times.size // 2000)
    return [
        " ".join(
            f"{60 + 780 * (t - tmin) / (tmax - tmin):.2f},"
            f"{600 - 60 - 480 * (k * v - k * ymin) / (k * ymax - k * ymin):.2f}"
            for t, v in zip(times[::stride], values[::stride])
        )
        for values in channels
    ]


class TestWriterByteIdentity:
    def test_csv_edge_values(self, tmp_path):
        path = tmp_path / "edge.csv"
        times = np.arange(EDGE_VALUES.size) * 0.1
        columns = {"y": np.column_stack([EDGE_VALUES, EDGE_VALUES[::-1]]), "e": -EDGE_VALUES}
        write_csv(path, times, columns)
        assert path.read_bytes() == per_value_csv(times, columns).encode("utf-8")

    def test_csv_strided_long_series(self, tmp_path):
        path = tmp_path / "long.csv"
        times, y = strided_series()
        columns = {"y": y, "s": y[:, 0]}
        write_csv(path, times, columns)
        assert path.read_bytes() == per_value_csv(times, columns).encode("utf-8")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.0, -0.0, 5e-324, -5e-324, 1e-17, np.pi, 1.0 / 3.0, -2.5]),
            np.array([0.0, -0.0, 5e-324, 1e300, -1e300, np.inf, 1.0]),
        ],
    )
    def test_svg_edge_values(self, tmp_path, values):
        path = tmp_path / "edge.svg"
        times = np.arange(values.size) * 0.1
        write_svg(path, times, {"v": values, "w": -values})
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == per_value_svg_points(times, [values, -values])

    def test_svg_strided_long_series(self, tmp_path):
        path = tmp_path / "long.svg"
        times, y = strided_series()
        write_svg(path, times, {"y": y, "s": y[:, 0]})
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == per_value_svg_points(times, [y[:, 0], y[:, 1], y[:, 0]])
        assert len(got[0].split()) == 2001

    @pytest.mark.parametrize(
        "rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]
    )
    def test_csv_block_edges(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        path = tmp_path / "block.csv"
        times = 1e-3 * np.arange(rows)
        y = rng.standard_normal((rows, 2)) * np.resize(EDGE_VALUES[:6], (rows, 1))
        columns = {"y": y, "s": rng.standard_normal(rows)}
        write_csv(path, times, columns)
        assert path.read_bytes() == per_value_csv(times, columns).encode("utf-8")

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(  # the full finite range, where ymax - ymin and 480 (ymax - ymin) can overflow
        channels=st.integers(2, 50).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_svg_random_finite_series(self, tmp_path, channels):
        path = tmp_path / "random.svg"
        values = [np.array(c) for c in channels]
        times = np.linspace(0.0, 1.0, values[0].size)
        write_svg(path, times, {f"c{i}": v for i, v in enumerate(values)})
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == per_value_svg_points(times, values)

    # above 2**53, ymin + 1 == ymin, which once divided by a zero range; a
    # range of 2e308 is not a double, which once gave nan coordinates
    @pytest.mark.parametrize(
        "level",
        [
            2.5, -(2.0**53), 2.0**53 + 2, 1e17, -1e300, 1.7976931348623157e308,
            pytest.param([-1e308, 0.0, 1e308], id="range-2e308"),
        ],
    )
    def test_svg_constant_series(self, tmp_path, level):
        path = tmp_path / "flat.svg"
        times, values = np.linspace(0.0, 1.0, 5), np.resize(level, 5)
        write_svg(path, times, {"y": values})
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == per_value_svg_points(times, [values])
        assert "nan" not in path.read_text() and "inf" not in got[0]

    # stride = samples // 2000 steps from 1 to 2 between 3999 and 4000 samples
    @pytest.mark.parametrize("samples", [2, 3999, 4000, 4001])
    def test_svg_stride_edges(self, tmp_path, samples):
        path = tmp_path / "stride.svg"
        times = np.linspace(0.0, 4.0, samples)
        values = [np.sin(3.0 * times), np.cos(times)]
        write_svg(path, times, {"a": values[0], "b": values[1]})
        got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert got == per_value_svg_points(times, values)

    def test_csv_memory_bounded_by_block(self, monkeypatch):
        # The whole 200 001 x 7 table as float64 is 11.2 MB, and its text
        # about 30 MB.  A writer that holds either reaches that peak before
        # its first 1 MB of text is out, so the write stops there: tracing
        # the full write would take seconds.
        class Stop(Exception):
            pass

        class Sink:
            left = 1_000_000

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                self.left -= len(text)
                if self.left < 0:
                    raise Stop
                return len(text)

        monkeypatch.setattr(modelio, "open", lambda *args, **kwargs: Sink(), raising=False)
        times = np.linspace(0.0, 200.0, 200_001)
        y = np.sin(np.outer(times, np.arange(1.0, 7.0)))
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                write_csv("unused.csv", times, {"y": y})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000


def csv_bytes(tmp_path, values):
    """write_csv's bytes and per_value_csv's, with values in both columns."""
    path = tmp_path / "values.csv"
    times, columns = values[::-1].copy(), {"v": values}
    write_csv(path, times, columns)
    return path.read_bytes(), per_value_csv(times, columns).encode("utf-8")


def certified(values):
    """Which values the vectorised formatter writes without ``%``."""
    return modelio._round17(np.asarray(values, float))[0]


class TestCsvFormatter:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        floats=st.lists(st.floats(width=64), max_size=40),
    )
    def test_matches_per_value_format(self, tmp_path, bits, floats):
        # arbitrary bit patterns, and hypothesis floats: nan, +-inf, subnormals, +-0
        values = np.concatenate([np.array(bits, np.uint64).view(np.float64), np.array(floats)])
        got, want = csv_bytes(tmp_path, values)
        assert got == want

    def test_typical_values_take_the_fast_path(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(10_000) * 10.0 ** rng.integers(-20, 17, 10_000)
        assert certified(values).mean() > 0.999

    def test_decades_where_ties_are_common(self, tmp_path):
        # above about 1e13 a double has so few fraction bits that its 17th
        # digit is often an exact tie; 10**(16 - k) is a double there, so the
        # tie is certain and rounds half-even without ``%``
        rng = np.random.default_rng(12)
        decades = [rng.uniform(10.0**k, 10.0 ** (k + 1), 20_000) for k in range(12, 16)]
        values = np.concatenate(decades)
        assert certified(values).all()
        got, want = csv_bytes(tmp_path, values)
        assert got == want

    def test_exact_ties_round_half_even(self, tmp_path):
        # 18 significant digits ending in 5: % rounds half-even, down then up
        ties = np.array([1 + 2**-17, 1 + 3 * 2**-17])
        assert [f"{v:.17g}" for v in ties] == ["1.0000076293945312", "1.0000228881835938"]
        # c / 2**(17 - k) in [10**k, 2 10**k) with c odd is a double and a tie
        rng = np.random.default_rng(5)
        for k in range(12, 16):
            c = 2 * rng.integers(10**k * 2 ** (16 - k), 10**k * 2 ** (17 - k), 2000) + 1
            ties = np.concatenate([ties, c / 2.0 ** (17 - k)])
        assert all(f"{v:.18e}"[18] == "5" for v in ties[2:])
        values = np.concatenate([ties, -ties])
        assert certified(values).all()
        got, want = csv_bytes(tmp_path, values)
        assert got == want

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = 10.0 ** np.arange(-30, 31)
        values = np.concatenate(
            [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        )
        got, want = csv_bytes(tmp_path, np.concatenate([values, -values]))
        assert got == want
        # the double nearest 1e-28 lies just below it, so with k = -28 its
        # d rounds up to exactly 10**16, which must fall back
        assert Fraction(1e-28) * 10**44 < 10**16
        assert round(Fraction(1e-28) * 10**44) == 10**16
        assert not certified([1e-28]).any()

    def test_zeros_and_smallest_subnormals_fall_back(self, tmp_path):
        values = np.array([0.0, -0.0, 5e-324, -5e-324])
        assert not certified(values).any()
        got, want = csv_bytes(tmp_path, values)
        assert got == want
        assert got.splitlines()[2] == b"4.9406564584124654e-324,-0"

    def test_fast_range_edges(self, tmp_path):
        inside = np.array([1.5e-250, 9.5e249, np.nextafter(1e250, 0.0) / 2])
        outside = np.array([np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf), 1e-300, 1e300])
        assert certified(inside).all() and not certified(outside).any()
        edges = np.array([1e-250, 1e250])
        got, want = csv_bytes(tmp_path, np.concatenate([inside, outside, edges, -inside, -outside]))
        assert got == want

    def test_large_integers_and_three_digit_exponents(self, tmp_path):
        integers = [1e16, 2.0**54, 99999999999999984.0, 1e17, 2.0**60, 3e18, 12345678901234568.0]
        exponents = [1.5e100, -2.5e-100, 1.2345e200, 9.87e-200, 4.2e-5, 4.2e16, 4.2e17]
        got, want = csv_bytes(tmp_path, np.array(integers + exponents))
        assert got == want
        text = got.decode()
        for line in ("99999999999999984,", "1e+17,", "1.4999999999999999e+100,"):
            assert "\n" + line in text

    def test_non_finite_values_fall_back(self, tmp_path):
        values = np.array([np.inf, -np.inf, np.nan, -np.nan])
        assert not certified(values).any()
        got, want = csv_bytes(tmp_path, values)
        assert got == want

    def test_import_builds_no_tables(self):
        # the tables are built on the first write, so importing the CLI stays cheap
        code = (
            "import sys, momabs.cli\n"
            "from momabs import modelio\n"
            "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
            "assert modelio._format_tables.cache_info().currsize == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(modelio.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def fixed2_bytes(values):
    """(text, certified): _fixed2's space-separated text, ``%`` filling in the rest."""
    text, ok = modelio._fixed2(values)
    text[:, 7] = 32
    return text.tobytes().translate(None, b"\0") % tuple(values[~ok].tolist()), ok


class TestSvgFormatter:
    @pytest.mark.parametrize("low, high", [(1.0, 10.0), (10.0, 1000.0), (1000.0, 1e4)])
    def test_matches_percent_format(self, low, high):
        values = np.random.default_rng(int(low)).uniform(low, high, 200_000)
        got, ok = fixed2_bytes(values)
        assert got == b"".join([b"%.2f " % v for v in values.tolist()])
        assert ok.sum() == np.count_nonzero(values < 9999.995)

    def test_ties_and_range_edges(self):
        # 100 v = n + 1/2 exactly: % rounds half-even
        ties = [60.125, 1.125, 1.375, 4095.625, 4095.875]
        edges = [1.0, 9.995, 99.995, 9999.99, np.nextafter(9999.995, 0.0)]
        fallback = [
            0.0, -0.0, np.nan, np.inf, -np.inf, -60.125, -2.5, 0.5, np.nextafter(1.0, 0.0),
            9999.995, 1e4, 12345.678, 5e-324, 1e300, -1e300,
        ]
        values = np.array(ties + edges + fallback)
        got, ok = fixed2_bytes(values)
        assert got == b"".join([b"%.2f " % v for v in values.tolist()])
        assert got.startswith(b"60.12 1.12 1.38 4095.62 4095.88 ")
        assert ok.tolist() == [True] * 10 + [False] * 15
        assert len(got) > 600  # 1e300 has 301 integer digits


class TestSvg:
    def test_paper_example_series_needs_no_percent(self, tmp_path, monkeypatch):
        formatted, fallback, fixed2 = [], [], modelio._fixed2

        def spy(values):
            text, ok = fixed2(values)
            formatted.append(ok.size)
            fallback.append(np.count_nonzero(~ok))
            return text, ok

        monkeypatch.setattr(modelio, "_fixed2", spy)
        times = np.linspace(0.0, 10.0, 10_001)
        y = np.sin(np.outer(times, np.arange(1.0, 8.0))) * np.logspace(-3, 3, 7)
        write_svg(tmp_path / "plot.svg", times, {"y": y[:, :4], "e": y[:, 4:]})
        assert sum(formatted) == 8 * 2001 and sum(fallback) == 0

    def test_self_contained_canvas(self, tmp_path):
        path = tmp_path / "plot.svg"
        times = np.linspace(0.0, 2.0, 500)
        write_svg(path, times, {"y": np.sin(times), "z": np.cos(times)}, title="demo")
        text = path.read_text()
        assert text.startswith("<svg ")
        assert 'width="900"' in text and 'height="600"' in text
        assert text.count("<polyline") == 2
        assert ">demo</text>" in text and ">y</text>" in text and ">z</text>" in text
        assert "href" not in text and "script" not in text

    def test_matrix_series_split_per_channel(self, tmp_path):
        path = tmp_path / "plot.svg"
        times = np.linspace(0.0, 1.0, 50)
        write_svg(path, times, {"y": np.zeros((50, 3))})
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert ">y_1</text>" in text

    def test_constant_series_handled(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_svg(path, np.linspace(0.0, 1.0, 10), {"y": np.full(10, 2.5)})
        assert "<polyline" in path.read_text()

    def test_long_series_downsampled(self, tmp_path):
        path = tmp_path / "big.svg"
        times = np.linspace(0.0, 10.0, 100001)
        write_svg(path, times, {"y": np.sin(times)})
        points = path.read_text().split('points="')[1].split('"')[0]
        assert len(points.split()) <= 2001


class TestRunReport:
    def test_render_marks(self):
        report = RunReport(command="demo")
        assert report.add("small residual", 1e-10, 1e-8)
        assert not report.add("large residual", 1.0, 1e-8)
        report.add_flag("flag ok", True)
        text = report.render()
        assert "[PASS] small residual" in text
        assert "[FAIL] large residual" in text
        assert "result: FAILED" in text
        assert not report.all_passed

    def test_threshold_direction(self):
        report = RunReport(command="demo")
        assert report.add("rate", 2.9, 2.16, lower_is_pass=False)
        assert report.all_passed
        assert "result: OK" in report.render()

    def test_notes_and_outputs_rendered(self):
        report = RunReport(command="demo")
        report.notes.append("a remark")
        report.outputs.append("file.csv")
        text = report.render()
        assert "note: a remark" in text and "wrote: file.csv" in text
