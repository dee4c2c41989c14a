"""File interchange: JSON models and specs, CSV trajectories, SVG plots."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import StateSpaceModel, _require_shapes

ROLES = ("concrete", "abstract", "interpolant")
CSV_BLOCK_ROWS = 1024
_SLOT = 24  # widest %.17g text, as in -2.2250738585072014e-308; see %-24.17g
_K_MAX = 256  # the 10**(16 - k) table covers |k| <= _K_MAX


class ModelFileError(ValueError):
    pass


def load_json(path) -> dict:
    """Parse a model, spec or artifact file; its top level must be a JSON object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # invalid UTF-8, or an integer past the digit limit
        raise ModelFileError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ModelFileError(f"{path}: JSON nested too deeply ({exc})") from exc
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


def save_json(path, data: dict) -> None:
    """Write ``data`` as JSON indented by 2 with a trailing newline, each array as ``tolist()`` gives it."""
    Path(path).write_text(json.dumps(data, indent=2, default=np.ndarray.tolist) + "\n", encoding="utf-8")


def save_model(path, model: StateSpaceModel, role: str | None = None) -> None:
    data = {"name": Path(path).stem, "a": model.a, "b": model.b, "c": model.c}
    if role is not None:
        data["role"] = role
    save_json(path, data)


def matrix_field(data: dict, key: str, path) -> np.ndarray:
    """``data[key]`` as a matrix; a ModelFileError names the file and field."""
    return _matrix_from(numeric_field(data, key, path), key, path)


@functools.cache
def _format_tables():
    """10**j as hi + lo doubles for j = 16 - k, k = _K_MAX down to -_K_MAX, and
    the 4-digit ASCII groups as uint32, then again with trailing zeros NUL and
    with leading zeros NUL, then ".ab" and a NUL for each two decimals ab."""
    hi, lo = [], []
    for j in range(16 - _K_MAX, 17 + _K_MAX):
        num, den = 10 ** max(j, 0), 10 ** max(-j, 0)
        h_num, h_den = (num / den).as_integer_ratio()  # int / int rounds correctly
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    quads = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    quads = (quads % 10 + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(quads[:, ::-1] == 48, axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(quads == 48, axis=1)
    dot = np.full((100, 1), 46, np.uint8)
    decimals = np.hstack([dot, quads[:100, 2:], 0 * dot])
    groups = np.concatenate([quads, quads * ~trailing, quads * ~leading, decimals])
    tables = np.array(hi), np.array(lo), groups.view(np.uint32).ravel()
    for table in tables:  # shared by every write
        table.flags.writeable = False
    return tables


def _two_product(a, b):
    """(p, e) with p = fl(ab) and p + e = ab exactly (Dekker 1971): each factor
    is split into 26-bit halves, whose products are exact."""
    p = a * b
    ah, bh = [(c := 134217729.0 * v) - (c - v) for v in (a, b)]
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _round_half_even(p, t):
    """(d, gap): d = p + rint(t) as int64, for an integer-valued double p, and
    gap = 1/2 - |t - rint(t)|, 0 at a tie.  rint rounds a tie to even, so d
    is p + t rounded as ``%`` rounds wherever p is even at a tie."""
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), 0.5 - np.abs(t - r)


def _round17(values: np.ndarray):
    """(certified, k, d) with k = floor(log10|x|) and d = round(|x| 10**(16 - k));
    the classes write_csv hands to ``%`` are not certified."""
    hi_tab, lo_tab, _ = _format_tables()
    mag = np.abs(values)
    certified = (mag >= 1e-250) & (mag <= 1e250)
    mag[~certified] = 1.0
    k = np.floor(np.log10(mag)).astype(np.int16)
    lo = lo_tab.take(_K_MAX - k)
    p, t = _two_product(mag, hi_tab.take(_K_MAX - k))
    t += mag * lo
    d, gap = _round_half_even(p, t)
    # p > 2**53 is even wherever d > 10**16; where 10**(16 - k) is a double
    # (lo = 0), p + t is exact, so gap is too and a tie is certain
    certified &= ((gap > 1e-6) | (lo == 0)) & (d > 10**16) & (d < 10**17)
    return certified, k, d


def _ascii17(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each d in (10**16, 10**17), trailing zeros NUL."""
    group_tab = _format_tables()[2]
    top = d // 10**8  # numpy divides by a scalar fast, but its % is slow
    first, low = top // 10**8, d - top * 10**8
    packed = np.empty((d.size, 5), np.uint32)
    # a 4-digit group followed only by zeros is read with its trailing zeros NUL
    for col, half, zeros_after in ((1, top - first * 10**8, low == 0), (3, low, True)):
        q = half // 10**4
        r = half - q * 10**4
        packed[:, col] = group_tab[q + 10_000 * (zeros_after & (r == 0))]
        packed[:, col + 1] = group_tab[r + 10_000 * zeros_after]
    digits = packed.view(np.uint8)[:, 3:]
    digits[:, 0] = first + 48
    return digits


def _layout(k: int):
    """(text before the digits, digits before the point, text after them) of a
    ``%.17g`` value with decimal exponent k."""
    if -4 <= k < 0:
        return b"0." + b"0" * (-k - 1), 0, b""
    if 0 <= k < 17:
        return b"", k + 1, b""
    return b"", 1, b"e%+03d" % k


def _format_values(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``%.17g`` of each value, NUL-padded, into the _SLOT-byte void
    ``out``; certified values are sorted by exponent so that each exponent's
    layout is written with slices."""
    fast, k, d = _round17(values)
    order = np.flatnonzero(fast)
    order = order[np.argsort(k[order], kind="stable")]  # a radix sort
    k = k[order]
    digits = _ascii17(d[order])
    text = np.zeros((order.size, _SLOT), np.uint8)
    text[:, 0] = np.where(values[order] < 0, 45, 0)
    starts = np.flatnonzero(np.diff(k, prepend=k[:1] - 1))
    for start, stop in zip(starts, [*starts[1:], order.size]):
        rows = slice(start, stop)
        lead, head, tail = _layout(int(k[start]))
        c = 1 + len(lead)
        text[rows, 1:c] = np.frombuffer(lead, np.uint8)
        text[rows, c : c + head] = digits[rows, :head] | 48  # keep integer zeros
        if 0 < head < 17:
            text[rows, c + head] = np.where(digits[rows, head] != 0, 46, 0)
            c += 1
        text[rows, c + head : c + 17] = digits[rows, head:]
        text[rows, c + 17 : c + 17 + len(tail)] = np.frombuffer(tail, np.uint8)
    out[order] = text.view(out.dtype)[:, 0]
    rest = np.flatnonzero(~fast)
    if rest.size:
        padded = (b"%-24.17g" * rest.size) % tuple(values[rest].tolist())
        out[rest] = np.frombuffer(padded.replace(b" ", b"\0"), out.dtype)


def _fixed2(values: np.ndarray):
    """(text, certified): ``%.2f`` of each value in 8 NUL-padded bytes, the
    last one NUL.  Values in [1, 9999.995) are certified: d = round(100 v)
    comes from the exact p + e = 100 v, whose fraction (p - rint(p)) + e is a
    double, and a tie n + 1/2 < 10**6 is a double, so e = 0 and rint(p) is
    even there; larger values would round to 10**4.  The other slots hold
    ``%.2f`` for the caller's ``%``, whose text has no fixed width."""
    groups = _format_tables()[2]
    certified = (values >= 1.0) & (values < 9999.995)
    p, e = _two_product(np.where(certified, values, 1.0), 100.0)
    d = _round_half_even(np.rint(p), (p - np.rint(p)) + e)[0]
    q = d // 100
    text = np.zeros(values.shape + (8,), np.uint8)
    words = text.view(np.uint32)
    words[..., 0] = groups[q + 20_000]  # leading zeros NUL
    words[..., 1] = groups[d - 100 * q + 30_000]
    text[~certified] = np.frombuffer(b"%.2f\0\0\0\0", np.uint8)
    return text, certified


def _channels(times: np.ndarray, columns: dict) -> tuple[list, list]:
    """(names, series): each named k x N or N x k array (N = times.size) split into its
    k channels of length N, named name_1 ... name_k, or name alone for k = 1."""
    names, series = [], []
    for name, arr in columns.items():
        arr = np.atleast_2d(np.asarray(arr, float))
        if arr.shape[0] == times.size:
            arr = arr.T
        _require_shapes(**{f"column {name!r}": (arr, (len(arr), times.size))})
        names += [name] if len(arr) == 1 else [f"{name}_{i + 1}" for i in range(len(arr))]
        series += list(arr)
    return names, series


def write_csv(path, times: np.ndarray, columns: dict) -> None:
    """CSV with a time column then named data columns, each value written as
    the bytes ``%.17g`` gives; the header names are a stable contract.

    |x| in [1e-250, 1e250] gets its 17 digits from d = round(|x| 10**(16 - k)),
    k = floor(log10|x|), as Dekker's double-double product of |x| with a table
    entry hi + lo: its error, about 2**-104 10**17, is far inside a 1e-6 tie
    margin, so d is exact.  Where 10**(16 - k) is a double (-6 <= k <= 16),
    lo = 0 and the product is exact, so an exact tie rounds half-even, as
    ``%`` rounds it.  ``%`` formats the rest: elsewhere a fraction within 1e-6
    of 1/2, d <= 10**16 or d >= 10**17 (log10 off by one, or d rounding to a
    power of ten), zeros, subnormals, inf, nan and |x| outside that range.
    Rows are formatted CSV_BLOCK_ROWS at a time into NUL-padded slots that one
    ``bytes.translate`` per block deletes, and each block is written before
    the next, so memory stays bounded by one block whatever the grid length.
    """
    names, series = _channels(times, columns)
    names, series = ["time", *names], [times, *series]
    block = np.empty((CSV_BLOCK_ROWS, len(series)))
    slots = np.empty((CSV_BLOCK_ROWS, len(series)), [("text", f"V{_SLOT}"), ("sep", "S1")])
    slots["sep"] = b","
    slots["sep"][:, -1] = b"\n"
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, times.size, CSV_BLOCK_ROWS):
            rows = block[: min(CSV_BLOCK_ROWS, times.size - start)]
            for j, values in enumerate(series):
                rows[:, j] = values[start : start + len(rows)]
            text = slots[: len(rows)].ravel()
            _format_values(rows.ravel(), text["text"])
            fh.write(text.tobytes().translate(None, b"\0"))


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def write_svg(path, times: np.ndarray, series: dict, title: str = "") -> None:
    """Self-contained 900x600 SVG: one polyline per channel plus a legend, the
    channels split and named as :func:`write_csv` splits and names its columns.

    Each polyline holds at most about 2000 points (every ``stride``-th
    sample), written as the bytes ``%.2f,%.2f`` gives: the x coordinates are
    formatted once per file and every channel's y coordinates in one call of
    the table-driven formatter, which certifies values in [1, 9999.995), so
    every coordinate of a finite series; ``%`` formats the rest.
    """
    width, height = 900, 600
    margin = 60
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    names, channels = _channels(times, series)
    ymin = min(float(v.min()) for v in channels)
    ymax = max(float(v.max()) for v in channels)
    if ymax - ymin < 1e-30:
        ymax = ymin + 1.0
        if ymax == ymin:  # above 2**53: a one-ulp range, stepping towards 0
            ymin, ymax = sorted((ymin, float(np.nextafter(ymin, 0.0))))
    tmin, tmax = float(times[0]), float(times[-1])
    # past a span of about 3.7e305, plot_h (ymax - ymin) overflows: scale exactly by 2**-10
    k = 1.0 if np.isfinite(plot_h * (ymax - ymin)) else 2.0**-10

    def sx(t):
        return margin + plot_w * (t - tmin) / (tmax - tmin)

    def sy(v):
        return height - margin - plot_h * (k * v - k * ymin) / (k * ymax - k * ymin)

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
    ys = sy(np.stack([values[::stride] for values in channels]))
    (x_text, x_ok), (y_text, y_ok) = _fixed2(xs), _fixed2(ys)
    x_text[:, 7], y_text[..., 7] = 44, 32  # "x,y " per point
    for idx, name in enumerate(names):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = np.concatenate([x_text, y_text[idx]], axis=1).tobytes().translate(None, b"\0")
        rest = ~np.column_stack([x_ok, y_ok[idx]])
        if rest.any():
            pts %= tuple(np.column_stack([xs, ys[idx]])[rest].tolist())
        parts.append(
            f'<polyline points="{pts[:-1].decode()}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
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
