"""CSV ingestion, JSON run configs, and output writers.

Numbers are serialized as shortest round-trip decimals (Python's repr), so
emitted files reproduce in-memory values exactly when read back. All
writers emit deterministic bytes for identical inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

from .adjust import PlaceboSpec, check_edges
from .engine import AnalysisConfig, ContourGrid, LineSlice, ResultTable, \
    TableRow
from .errors import (
    ConfigError,
    DataError,
    DuplicateHeader,
    IoError,
    NonFiniteValue,
    ParseError,
    TooFewRows,
)
from .regression import Dataset

TABLE_COLUMNS = ("label", "k", "direct_effect", "estimate", "std_error",
                 "ci_low", "ci_high")


@contextmanager
def _csv_reader(path: Path):
    """The open text handle of a UTF-8 file, a leading byte-order mark
    dropped, and a csv.reader over it; IoError where the file cannot be
    read, ParseError where it is not UTF-8 or a field is longer than
    ``csv.field_size_limit()``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield fh, reader
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path) -> Dataset:
    """Read a numeric CSV (header row, '.' decimals) into a Dataset.

    Raises
    ------
    ParseError
        Structural problems: empty file, ragged rows, text that is not
        UTF-8, an oversized field.
    DuplicateHeader
        Repeated column name.
    NonFiniteValue
        A cell that is not a finite number, reported with row and column.
    TooFewRows
        Header only, no data rows.
    IoError
        The file cannot be read.
    """
    path = Path(path)
    with _csv_reader(path) as (handle, rows):
        header = next(rows, None)
        if header is None:
            raise ParseError(f"{path}: file is empty")
        if not header:
            raise ParseError(f"{path}: first line is blank, not a header")
        header = [name.strip() for name in header]
        if any(not name for name in header):
            raise ParseError(f"{path}: blank column name in header")
        if len(set(header)) != len(header):
            name = next(n for i, n in enumerate(header) if n in header[:i])
            raise DuplicateHeader(f"{path}: column {name!r} appears twice")
        values = _parse_rows(path, handle, len(header))
    if values is not None:
        columns = values.T
    else:
        with _csv_reader(path) as (_, rows):
            next(rows)
            columns = _scan_rows(path, header, rows)
    return Dataset._adopt(dict(zip(header, columns)))


def _parse_rows(path: Path, handle, width: int):
    """The data rows after the header as a (rows, width) array, parsed by
    NumPy's C reader; None where ``_scan_rows`` must read the file instead.

    ``np.loadtxt`` accepts a subset of the cells ``_scan_rows`` accepts (not
    quoted cells or ``1_000``) and turns each into the same double as
    ``float()``. It does not hold rows to the header's width, refuse
    non-finite values or apply ``csv.field_size_limit()``, so an array
    that breaks one of those rules, or an empty one, is passed over and
    the scan words the error.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            values = np.loadtxt(handle, delimiter=",", comments=None,
                                ndmin=2)
        except ValueError:
            return None
    if (values.shape[0] == 0 or values.shape[1] != width
            or not np.isfinite(values).all()):
        return None
    # A line no longer than the limit holds no field longer than it; a
    # CR-only file reads as one line here and goes to the scan.
    with open(path, "rb") as raw:
        if max(map(len, raw)) > csv.field_size_limit():
            return None
    return values


def _scan_rows(path: Path, header: list, rows) -> list:
    """The columns of the csv.reader ``rows`` after the header, cell by
    cell through ``float()``; the loader's only wording of a data error."""
    # Raw doubles, not lists of float objects: a third of the memory, and
    # no small objects left to fragment the heap between loads.
    columns = [array("d") for _ in header]
    for row_number, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_number} has {len(row)} fields, "
                f"expected {len(header)}"
            )
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonFiniteValue(
                    f"{path}: row {row_number}, column {header[col]!r}: "
                    f"{cell.strip()!r} is not a finite number"
                )
            columns[col].append(value)
    if not columns[0]:
        raise TooFewRows(f"{path}: no data rows")
    # Exact-size copies, each scan buffer freed before the next is made.
    for col, scanned in enumerate(columns):
        columns[col] = np.array(scanned)
    return columns


def check_fixture_manifest(data: Dataset, manifest: Mapping) -> None:
    """Compare a loaded fixture against its recorded manifest.

    ``manifest`` holds ``n_rows`` and ``column_means`` (name to mean).
    Mismatches raise DataError so fixture drift is caught before any
    numbers are trusted.
    """
    n_rows = int(manifest["n_rows"])
    if data.n_rows != n_rows:
        raise DataError(
            f"fixture has {data.n_rows} rows, manifest says {n_rows}"
        )
    means = manifest["column_means"]
    missing = [name for name in means if name not in data]
    if missing:
        raise DataError(f"fixture lacks manifest columns {missing}")
    for name, recorded in means.items():
        got = float(np.mean(data[name]))
        tol = 1e-6 * max(1.0, abs(float(recorded)))
        if abs(got - float(recorded)) > tol:
            raise DataError(
                f"fixture column {name!r} mean {got!r} differs from "
                f"manifest value {recorded!r}"
            )


# Rows per chunk of write_dataset_csv: a chunk of 8 columns is about 0.6
# MiB of text, whatever the row count.
_ROW_BLOCK = 4096


def write_dataset_csv(data: Dataset, path) -> Path:
    """Write a Dataset as numeric CSV that load_csv reads back exactly."""
    columns = [data[name] for name in data.names]

    def blocks():
        yield ",".join(data.names) + "\n"
        for start in range(0, data.n_rows, _ROW_BLOCK):
            cells = [map(repr, col[start:start + _ROW_BLOCK].tolist())
                     for col in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    return _write_chunks(path, blocks())


_EDGE_KEYS = ("d_to_p", "p_to_y", "p_to_d", "y_to_p")
_BOOTSTRAP_KEYS = ("reps", "seed")
_OUTPUT_KEYS = ("table", "contour", "line", "svg")
_TOP_KEYS = ("data_path", "outcome", "treatment", "placebo", "role",
             "edges", "covariates", "k", "direct", "grid", "bootstrap",
             "ci_level", "outputs")


def _reject_unknown(mapping: Mapping, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")


def _as_object(value, name: str) -> dict:
    """A JSON object (absent: empty) as a dict."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a JSON object")
    return dict(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(value, name: str) -> int:
    """A JSON integer; floats and true/false are refused, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer")
    return value


def _as_number(value, name: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number")
    return float(value)


def _as_path(base: Path, value, name: str) -> Path:
    if not isinstance(value, (str, Path)):
        raise ConfigError(f"{name} must be a path")
    return (base / value).resolve()


def _as_range(value, name: str) -> tuple[float, float]:
    """A pair of JSON numbers; strings and true/false are refused."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_number(v) for v in value)):
        raise ConfigError(f"{name} must be a [low, high] pair of numbers")
    return float(value[0]), float(value[1])


# Setting key: (AnalysisConfig field, JSON type check). A key left out takes
# AnalysisConfig's default, and AnalysisConfig checks the values.
_SETTINGS = {
    "k": ("k_range", _as_range),
    "direct": ("direct_range", _as_range),
    "grid": ("grid_points_per_axis",
             lambda value, name: None if value is None
             else _as_int(value, name)),
    "bootstrap.reps": ("bootstrap_reps", _as_int),
    "bootstrap.seed": ("seed", _as_int),
    "ci_level": ("ci_level", _as_number),
}


class RunConfig:
    """File form of an analysis: data pointer, placebo spec, and settings.

    The settings (``k``, ``direct``, ``grid``, ``ci_level`` and the
    ``bootstrap`` object's ``reps`` and ``seed``) build one AnalysisConfig,
    whose defaults fill every setting left out. ``outputs`` maps any of
    table/contour/line/svg to destination paths. ``edges`` declares any of
    d_to_p, p_to_y, p_to_d and y_to_p; a set the role does not accept
    raises AmbiguousSpec here, before any data is read.
    """

    def __init__(self, data_path, outcome, treatment, placebo, role,
                 edges=None, covariates=(), bootstrap=None, outputs=None,
                 base_dir=None, **settings):
        base = Path(base_dir) if base_dir is not None else Path(".")
        self.data_path = _as_path(base, data_path, "data_path")
        if not self.data_path.is_file():
            raise ConfigError(f"data_path {self.data_path} does not exist")
        edges = _as_object(edges, "edges")
        _reject_unknown(edges, _EDGE_KEYS, "edges")
        for key, value in edges.items():
            if not isinstance(value, bool):
                raise ConfigError(f"edges.{key} must be true or false")
        if (not isinstance(covariates, (list, tuple))
                or not all(isinstance(c, str) for c in covariates)):
            raise ConfigError("covariates must be a list of column names")
        self.spec = PlaceboSpec(
            outcome_col=str(outcome),
            treatment_col=str(treatment),
            placebo_col=str(placebo),
            role=role,
            edge_d_to_p=edges.get("d_to_p", False),
            edge_p_to_y=edges.get("p_to_y", False),
            covariate_cols=tuple(covariates),
            # Writing role: mediator in a config file is already an explicit
            # choice, so the in-code acknowledgment gate is satisfied here.
            acknowledge_mediator=(role == "mediator"),
        )
        check_edges(self.spec.role, [key for key, value in edges.items()
                                     if value])
        bootstrap = _as_object(bootstrap, "bootstrap")
        _reject_unknown(bootstrap, _BOOTSTRAP_KEYS, "bootstrap")
        given = {**settings,
                 **{f"bootstrap.{key}": v for key, v in bootstrap.items()}}
        _reject_unknown(given, _SETTINGS, "config")
        fields = {field: check(given[key], key)
                  for key, (field, check) in _SETTINGS.items()
                  if key in given}
        outputs = _as_object(outputs, "outputs")
        _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
        self.outputs = {}
        for key, value in outputs.items():
            target = _as_path(base, value, f"outputs.{key}")
            if not target.parent.is_dir():
                raise ConfigError(
                    f"outputs.{key} directory {target.parent} does not exist"
                )
            self.outputs[key] = target
        self._analysis = AnalysisConfig(spec=self.spec, **fields)

    def analysis_config(self, freeze_sf: bool = False,
                        cluster_col: str | None = None,
                        seed: int | None = None) -> AnalysisConfig:
        """The engine configuration, optionally overriding the seed."""
        return dataclasses.replace(
            self._analysis, freeze_sf=freeze_sf, cluster_col=cluster_col,
            seed=self._analysis.seed if seed is None else seed)


def parse_run_config(path) -> RunConfig:
    """Load and validate a JSON run config; unknown keys are rejected."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    missing = [key for key in ("data_path", "outcome", "treatment",
                               "placebo", "role") if key not in raw]
    if missing:
        raise ConfigError(f"config {path} lacks required keys: {missing}")
    return RunConfig(base_dir=path.parent, **raw)


def _fmt(value) -> str:
    return repr(float(value))


def _write_chunks(path, chunks) -> Path:
    """Write the text ``chunks``, in order, into ``path`` opened once: the
    one write path of every output. A writer yields row blocks, so what it
    holds does not grow with the file. IoError (exit 3) where the path
    cannot be opened or written."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_table_csv(table: ResultTable, path) -> Path:
    rows = [",".join(TABLE_COLUMNS) + "\n"]
    for row in table.rows:
        rows.append(",".join([
            row.label,
            _fmt(row.k),
            _fmt(row.direct),
            _fmt(row.estimate),
            _fmt(row.se),
            _fmt(row.ci_low),
            _fmt(row.ci_high),
        ]) + "\n")
    return _write_chunks(path, rows)


def read_table_csv(path) -> ResultTable:
    """Read back a table CSV written by write_table_csv."""
    path = Path(path)
    table = []
    with _csv_reader(path) as (_, rows):
        if tuple(next(rows, ())) != TABLE_COLUMNS:
            raise ParseError(
                f"{path}: expected header {','.join(TABLE_COLUMNS)}")
        for row_number, row in enumerate(rows, start=2):
            if len(row) != len(TABLE_COLUMNS):
                raise ParseError(f"{path}: malformed row {row_number}")
            try:
                table.append(TableRow(row[0], *(float(v) for v in row[1:])))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value in row {row_number}"
                ) from None
    return ResultTable(rows=tuple(table), metadata={})


def write_contour_csv(grid: ContourGrid, path) -> Path:
    # Each axis value is formatted once; tolist() gives the Python floats
    # whose repr _fmt writes. One chunk per k value.
    directs = [_fmt(dv) for dv in grid.direct_values]

    def rows():
        yield "k,direct,estimate\n"
        for k, row in zip(map(_fmt, grid.k_values), grid.estimates):
            yield "".join([f"{k},{dv},{z!r}\n"
                           for dv, z in zip(directs, row.tolist())])

    return _write_chunks(path, rows())


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def write_contour_json(grid: ContourGrid, path) -> Path:
    payload = {
        "k_values": _json_ready(grid.k_values),
        "direct_values": _json_ready(grid.direct_values),
        "zero_contour": [_json_ready(p) for p in grid.zero_contour],
        "metadata": _json_ready(grid.metadata),
    }
    return _write_chunks(path, (json.dumps(payload, sort_keys=True, indent=1),
                                "\n"))


def write_line_csvs(line: LineSlice, path) -> list[Path]:
    """One CSV per curve; a single curve goes to the path itself."""
    path = Path(path)
    written = []
    for index, (fixed, curve) in enumerate(zip(line.fixed_values,
                                               line.curves)):
        if len(line.curves) == 1:
            target = path
        else:
            target = path.with_name(
                f"{path.stem}_{index + 1}{path.suffix or '.csv'}"
            )
        fixed_name = "fixed_direct" if line.varying == "k" else "fixed_k"
        lines = [f"{line.varying},estimate,ci_low,ci_high,{fixed_name}\n"]
        for param, est, lo, hi in curve:
            lines.append(",".join(
                [_fmt(param), _fmt(est), _fmt(lo), _fmt(hi), _fmt(fixed)]
            ) + "\n")
        written.append(_write_chunks(target, lines))
    return written


# SVG rendering: minimal hand-rolled output, deterministic bytes.
_SVG_W, _SVG_H = 720, 540
_MARGIN = 60


def _scale(lo: float, hi: float, span: float):
    width = hi - lo
    if width <= 0:
        return lambda v: _MARGIN + span / 2.0
    return lambda v: _MARGIN + (v - lo) / width * span


def _heat_color(value: float, vmax: float) -> str:
    t = 0.0 if vmax <= 0 else max(-1.0, min(1.0, value / vmax))
    if t >= 0:
        r, g, b = 255, round(255 - 175 * t), round(255 - 217 * t)
    else:
        r, g, b = round(255 + 196 * t), round(255 + 179 * t), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_plot(x_range, y_range, x_label: str, y_label: str,
              y_tick: str, body) -> str:
    """One plot page: white ground, the plot frame, both axis labels and
    the end-value ticks around ``body(to_x, to_y)``, the list of elements
    drawn in page coordinates. ``y_tick`` formats the y end values."""
    to_x = _scale(*x_range, _SVG_W - 2 * _MARGIN)
    to_y_raw = _scale(*y_range, _SVG_H - 2 * _MARGIN)

    def to_y(v):
        return _SVG_H - to_y_raw(v)

    mid = f'{_MARGIN / 3:.0f} {_SVG_H / 2:.0f}'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" '
        'fill="white"/>',
        *body(to_x, to_y),
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SVG_W - 2 * _MARGIN}" '
        f'height="{_SVG_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - _MARGIN / 3:.0f}" '
        f'text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="{_MARGIN / 3:.0f}" y="{_SVG_H / 2:.0f}" '
        f'text-anchor="middle" font-size="14" transform="rotate(-90 {mid})">'
        f'{y_label}</text>',
    ]
    for value, x in zip(x_range, (_MARGIN, _SVG_W - _MARGIN)):
        parts.append(
            f'<text x="{x}" y="{_SVG_H - _MARGIN + 18}" '
            f'text-anchor="middle" font-size="11">{value:g}</text>'
        )
    for value, y in zip(y_range, (_SVG_H - _MARGIN, _MARGIN)):
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4}" text-anchor="end" '
            f'font-size="11">{value:{y_tick}}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_contour_svg(grid: ContourGrid) -> str:
    """Filled estimate surface with the zero isoline.

    Exactly one <path> element per zero-contour polyline; the fill uses
    <rect> cells so path count identifies contour pieces.
    """
    kv, dv, z = grid.k_values, grid.direct_values, grid.estimates

    def body(to_x, to_y):
        vmax = float(np.abs(z).max()) if z.size else 0.0
        stride_k = max(1, (len(kv) - 1 + 39) // 40) if len(kv) > 1 else 1
        stride_d = max(1, (len(dv) - 1 + 39) // 40) if len(dv) > 1 else 1
        parts = ['<g stroke="none">']
        for i in range(0, max(len(kv) - 1, 1), stride_k):
            i2 = min(i + stride_k, len(kv) - 1)
            for j in range(0, max(len(dv) - 1, 1), stride_d):
                j2 = min(j + stride_d, len(dv) - 1)
                x = to_x(float(kv[i]))
                w = max(to_x(float(kv[i2])) - x, 1.0)
                y = to_y(float(dv[j2]))
                h = max(to_y(float(dv[j])) - y, 1.0)
                color = _heat_color(float(z[i, j]), vmax)
                parts.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
                    f'height="{h:.2f}" fill="{color}"/>'
                )
        parts.append("</g>")
        for polyline in grid.zero_contour:
            coords = " L ".join(f"{to_x(float(k)):.2f} {to_y(float(d)):.2f}"
                                for k, d in polyline)
            parts.append(f'<path d="M {coords}" fill="none" stroke="black" '
                         'stroke-width="1.5"/>')
        return parts

    return _svg_plot((float(kv[0]), float(kv[-1])),
                     (float(dv[0]), float(dv[-1])), "k", "direct effect", "g",
                     body)


def render_line_svg(line: LineSlice) -> str:
    """Estimate curves with CI ribbons; ribbons are <path>, curves are
    <polyline>."""
    x_lo = min(float(c[0, 0]) for c in line.curves)
    x_hi = max(float(c[-1, 0]) for c in line.curves)
    y_lo = min(float(c[:, 2].min()) for c in line.curves)
    y_hi = max(float(c[:, 3].max()) for c in line.curves)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def body(to_x, to_y):
        parts = []
        if y_lo < 0 < y_hi:
            zero_y = to_y(0.0)
            parts.append(
                f'<line x1="{_MARGIN}" y1="{zero_y:.2f}" '
                f'x2="{_SVG_W - _MARGIN}" y2="{zero_y:.2f}" stroke="#999" '
                'stroke-dasharray="4 3"/>'
            )
        for curve in line.curves:
            upper = [f"{to_x(float(p)):.2f} {to_y(float(hi)):.2f}"
                     for p, hi in zip(curve[:, 0], curve[:, 3])]
            lower = [f"{to_x(float(p)):.2f} {to_y(float(lo)):.2f}"
                     for p, lo in zip(curve[::-1, 0], curve[::-1, 2])]
            ribbon = " L ".join(upper + lower)
            parts.append(f'<path d="M {ribbon} Z" fill="#9db8d9" '
                         'fill-opacity="0.35" stroke="none"/>')
        for curve in line.curves:
            pts = " ".join(f"{to_x(float(p)):.2f},{to_y(float(e)):.2f}"
                           for p, e in zip(curve[:, 0], curve[:, 1]))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         'stroke="#1f4e8c" stroke-width="1.5"/>')
        return parts

    return _svg_plot((x_lo, x_hi), (y_lo, y_hi), line.varying, "estimate",
                     ".4g", body)


def emit_outputs(results: Mapping, cfg: RunConfig) -> list[Path]:
    """Write every configured output whose result is present.

    ``results`` maps "table"/"contour"/"line" to engine results. The svg
    output renders the contour when one is present, otherwise the line
    slice. Returns the written paths in a fixed order.
    """
    written: list[Path] = []
    table = results.get("table")
    if table is not None and "table" in cfg.outputs:
        written.append(write_table_csv(table, cfg.outputs["table"]))
    contour = results.get("contour")
    if contour is not None and "contour" in cfg.outputs:
        csv_path = cfg.outputs["contour"]
        written.append(write_contour_csv(contour, csv_path))
        json_path = csv_path.with_suffix(".json")
        if json_path == csv_path:
            json_path = csv_path.with_name(csv_path.name + ".json")
        written.append(write_contour_json(contour, json_path))
    line = results.get("line")
    if line is not None and "line" in cfg.outputs:
        written.extend(write_line_csvs(line, cfg.outputs["line"]))
    if "svg" in cfg.outputs:
        if contour is not None:
            written.append(_write_chunks(cfg.outputs["svg"],
                                         (render_contour_svg(contour),)))
        elif line is not None:
            written.append(_write_chunks(cfg.outputs["svg"],
                                         (render_line_svg(line),)))
    return written
