"""File interchange: JSON models and specs, CSV trajectories, SVG plots."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import StateSpaceModel

ROLES = ("concrete", "abstract", "interpolant")
CSV_BLOCK_ROWS = 1024


class ModelFileError(ValueError):
    pass


def load_json(path) -> dict:
    """Parse a model, spec or artifact file; its top level must be a JSON object."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: top level must be a JSON object, got {type(data).__name__}")
    return data


def numeric_array(data, name: str, path) -> np.ndarray:
    """``data`` as a finite float array; a ModelFileError names the file and field."""
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"{path}: field {name!r} is not a numeric array") from exc
    if not np.all(np.isfinite(arr)):
        raise ModelFileError(f"{path}: field {name!r} has non-finite entries")
    return arr


def numeric_field(data: dict, key: str, path) -> np.ndarray:
    """``data[key]`` as a float array; a ModelFileError names the file and a
    missing or non-numeric field."""
    if key not in data:
        raise ModelFileError(f"{path}: missing field {key!r}")
    return numeric_array(data[key], key, path)


def _matrix_from(data, name: str, path) -> np.ndarray:
    m = numeric_array(data, name, path)
    if m.ndim != 2:
        raise ModelFileError(f"{path}: field {name!r} must be a matrix (array of rows)")
    return m


def model_from_dict(data: dict, path, prefix: str = "") -> StateSpaceModel:
    """State-space model from the matrices a, b, c of a JSON object; error
    messages name the file and each field as ``prefix`` + key."""
    for key in ("a", "b", "c"):
        if key not in data:
            raise ModelFileError(f"{path}: missing matrix {prefix + key!r}")
    a, b, c = (_matrix_from(data[key], prefix + key, path) for key in ("a", "b", "c"))
    try:
        return StateSpaceModel(a=a, b=b, c=c)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {prefix}{exc}") from exc


def load_model(path) -> StateSpaceModel:
    data = load_json(path)
    role = data.get("role")
    if role is not None and role not in ROLES:
        raise ModelFileError(f"{path}: unknown role {role!r}")
    return model_from_dict(data, path)


def save_model(path, model: StateSpaceModel, name: str = "", role: str | None = None) -> None:
    data = {
        "name": name or Path(path).stem,
        "a": model.a.tolist(),
        "b": model.b.tolist(),
        "c": model.c.tolist(),
    }
    if role is not None:
        data["role"] = role
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def load_matrix(path, key: str = "matrix") -> np.ndarray:
    return _matrix_from(numeric_field(load_json(path), key, path), key, path)


def save_matrix(path, matrix: np.ndarray, key: str = "matrix", **extra) -> None:
    data = {key: np.asarray(matrix).tolist(), **extra}
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def write_csv(path, times: np.ndarray, columns: dict) -> None:
    """CSV with a time column then named data columns, each value formatted
    with ``%.17g``; the header names are a stable contract.

    Rows are formatted CSV_BLOCK_ROWS at a time, one ``%`` operation per
    block, and each block is written before the next is formatted, so memory
    stays bounded by one block whatever the grid length.
    """
    names, series = ["time"], [times]
    for name, arr in columns.items():
        arr = np.atleast_2d(np.asarray(arr, float))
        if arr.shape[0] == times.size:
            arr = arr.T
        if arr.shape[1] != times.size:
            raise ValueError(f"column {name!r} length does not match the time grid")
        for i in range(arr.shape[0]):
            names.append(name if arr.shape[0] == 1 else f"{name}_{i + 1}")
            series.append(arr[i])
    row = ",".join(["%.17g"] * len(series)) + "\n"
    block = np.empty((CSV_BLOCK_ROWS, len(series)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, times.size, CSV_BLOCK_ROWS):
            rows = block[: min(CSV_BLOCK_ROWS, times.size - start)]
            for j, values in enumerate(series):
                rows[:, j] = values[start : start + len(rows)]
            fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def write_svg(path, times: np.ndarray, series: dict, title: str = "") -> None:
    """Self-contained 900x600 SVG: one polyline per named channel plus a legend.

    Each polyline holds at most about 2000 points (every ``stride``-th
    sample), formatted ``%.2f,%.2f`` with one ``%`` operation per polyline.
    """
    width, height = 900, 600
    margin = 60
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    flat = {}
    for name, arr in series.items():
        arr = np.asarray(arr, float)
        if arr.ndim == 1:
            flat[name] = arr
        else:
            for i in range(arr.shape[1]):
                flat[f"{name}_{i + 1}"] = arr[:, i]
    ymin = min(float(v.min()) for v in flat.values())
    ymax = max(float(v.max()) for v in flat.values())
    if ymax - ymin < 1e-30:
        ymax = ymin + 1.0
    tmin, tmax = float(times[0]), float(times[-1])

    def sx(t):
        return margin + plot_w * (t - tmin) / (tmax - tmin)

    def sy(v):
        return height - margin - plot_h * (v - ymin) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="30" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    for label, val in ((f"{tmin:g}", tmin), (f"{tmax:g}", tmax)):
        parts.append(
            f'<text x="{sx(val):.1f}" y="{height - margin + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for val in (ymin, ymax):
        parts.append(
            f'<text x="{margin - 8}" y="{sy(val):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{val:.3g}</text>'
        )
    stride = max(1, times.size // 2000)
    xs = sx(times[::stride])
    for idx, (name, values) in enumerate(flat.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = np.column_stack([xs, sy(values[::stride])]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        lx, ly = width - margin - 150, margin + 18 * (idx + 1)
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass
class RunReport:
    """Verdict table produced by the CLI commands."""

    command: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add(self, name: str, value: float, threshold: float, lower_is_pass: bool = True) -> bool:
        ok = value <= threshold if lower_is_pass else value >= threshold
        self.checks.append(Check(name, float(value), float(threshold), bool(ok)))
        return ok

    def add_flag(self, name: str, ok: bool) -> bool:
        self.checks.append(Check(name, float(ok), 1.0, bool(ok)))
        return ok

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"# {self.command}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: value={c.value:.6g} threshold={c.threshold:.6g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for out in self.outputs:
            lines.append(f"wrote: {out}")
        lines.append("result: " + ("OK" if self.all_passed else "FAILED"))
        return "\n".join(lines)
