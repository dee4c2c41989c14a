import re

import numpy as np
import pytest

from momabs import springmass
from momabs.modelio import (
    ModelFileError,
    RunReport,
    load_json,
    load_matrix,
    load_model,
    save_matrix,
    save_model,
    write_csv,
    write_svg,
)


class TestModelJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "plant.json"
        save_model(path, springmass.concrete(), name="plant", role="concrete")
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
        save_matrix(path, springmass.embedding_p(), key="p")
        assert np.array_equal(load_matrix(path, "p"), springmass.embedding_p())

    def test_matrix_missing_field(self, tmp_path):
        path = tmp_path / "p.json"
        save_matrix(path, np.eye(2), key="p")
        with pytest.raises(ModelFileError, match="missing field 'q'"):
            load_matrix(path, "q")


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

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
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
    tmin, tmax = float(times[0]), float(times[-1])
    stride = max(1, times.size // 2000)
    return [
        " ".join(
            f"{60 + 780 * (t - tmin) / (tmax - tmin):.2f},{600 - 60 - 480 * (v - ymin) / (ymax - ymin):.2f}"
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


class TestSvg:
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
