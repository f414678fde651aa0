"""CSV ingestion, JSON run configs, and output writers.

Every CSV output goes through ``_write_csv``, a block of rows at a time,
and writes each float as its shortest round-trip decimal (Python's repr),
so emitted files reproduce in-memory values exactly when read back. Every
JSON output is the text of ``json_text``. All writers emit deterministic
bytes for identical inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import warnings
from array import array
from contextlib import contextmanager
from itertools import repeat
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
    NumericError,
    ParseError,
    TooFewRows,
)
from .regression import Dataset

TABLE_COLUMNS = ("label", "k", "direct_effect", "estimate", "std_error",
                 "ci_low", "ci_high")


@contextmanager
def _csv_reader(path: Path):
    """A csv.reader over a UTF-8 file, a leading byte-order mark dropped;
    IoError where the file cannot be read, ParseError where it is not
    UTF-8 or a field is longer than ``csv.field_size_limit()``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield reader
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path) -> Dataset:
    """Read a numeric CSV (header row, '.' decimals) into a Dataset. The
    path is opened once; one that is not a regular file (a pipe such as
    ``<(zcat data.csv.gz)``, ``/dev/stdin``) is read once, by the row scan.
    Every error message names the path made absolute.

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
        A missing, directory or unreadable path (exit 3 in every command).
    """
    path = Path(os.path.abspath(path))
    with _csv_reader(path) as rows:
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
        values = _parse_rows(path, rows.line_num, len(header))
        columns = (values.T if values is not None
                   else _scan_rows(path, header, rows))
    return Dataset._adopt(dict(zip(header, columns)))


# The suffixes by which np.loadtxt's opener picks a decompressor.
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _parse_rows(path: Path, header_lines: int, width: int):
    """The data rows after the header's ``header_lines`` lines as a
    (rows, width) array, parsed by NumPy's C reader from the path in
    blocks; None where ``_scan_rows`` must read the rows instead.

    ``np.loadtxt`` accepts a subset of the cells ``_scan_rows`` accepts (not
    quoted cells or ``1_000``) and turns each into the same double as
    ``float()``. It does not hold rows to the header's width, refuse
    non-finite values or apply ``csv.field_size_limit()``, so an array
    that breaks one of those rules, or an empty one, is passed over and
    the scan words the error. The finiteness test here is the one check
    of a parsed cell: ``Dataset._adopt`` does not repeat it. A file named
    like a compressed one goes to the scan, which reads it as the text
    the header reader accepted, where ``np.loadtxt`` would decompress it,
    and so does a path that is not a regular file: a pipe reads once.
    """
    if path.suffix in _DECOMPRESSED or not path.is_file():
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            values = np.loadtxt(path, delimiter=",", comments=None,
                                skiprows=header_lines, ndmin=2,
                                encoding="utf-8-sig")
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
    """The columns of the header's csv.reader ``rows`` read on, cell by
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


def write_dataset_csv(data: Dataset, path) -> Path:
    """Write a Dataset as numeric CSV that load_csv reads back exactly."""
    return _write_csv(path, data.names,
                      ([_cells(data[name][rows]) for name in data.names]
                       for rows in _row_blocks(data.n_rows)))


def _is_int(value) -> bool:
    """A JSON integer: floats and true/false are refused, not truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)


def _check(what: str, test, convert=None):
    """The check of a config key: ConfigError naming the key and ``what``
    its value must be where ``test(value)`` fails; else the value, through
    ``convert(value, base_dir)`` where given."""
    def check(value, name: str, base: Path):
        if not test(value):
            raise ConfigError(f"{name} must be {what}")
        return value if convert is None else convert(value, base)
    return check


_COLUMN = _check("a column name", lambda value: isinstance(value, str))
_BOOL = _check("true or false", lambda value: isinstance(value, bool))
_INT = _check("an integer", _is_int)
_RANGE = _check("a [low, high] pair of numbers",
                lambda value: isinstance(value, (list, tuple))
                and len(value) == 2 and all(map(_is_number, value)),
                lambda value, base: (float(value[0]), float(value[1])))
_PATH = _check("a path", lambda value: isinstance(value, (str, Path)),
               lambda value, base: Path(os.path.abspath(base / value)))

# Every key a run config may hold, under its dotted name ("bootstrap.reps"
# is {"bootstrap": {"reps": ...}} in a file): (check of its JSON value, the
# AnalysisConfig field it sets or None). A setting left out takes
# AnalysisConfig's default, and AnalysisConfig checks the values.
_KEYS = {
    "data_path": (_PATH, None),
    "outcome": (_COLUMN, None),
    "treatment": (_COLUMN, None),
    "placebo": (_COLUMN, None),
    # PlaceboSpec refuses a value that is not one of the roles.
    "role": (lambda value, name, base: value, None),
    "covariates": (_check("a list of column names",
                          lambda value: isinstance(value, (list, tuple))
                          and all(isinstance(c, str) for c in value)), None),
    "edges.d_to_p": (_BOOL, None),
    "edges.p_to_y": (_BOOL, None),
    "edges.p_to_d": (_BOOL, None),
    "edges.y_to_p": (_BOOL, None),
    "k": (_RANGE, "k_range"),
    "direct": (_RANGE, "direct_range"),
    "grid": (_check("an integer",
                    lambda value: value is None or _is_int(value)),
             "grid_points_per_axis"),
    "bootstrap.reps": (_INT, "bootstrap_reps"),
    "bootstrap.seed": (_INT, "seed"),
    "ci_level": (_check("a number", _is_number), "ci_level"),
    "outputs.table": (_PATH, None),
    "outputs.contour": (_PATH, None),
    "outputs.line": (_PATH, None),
    "outputs.svg": (_PATH, None),
}
REQUIRED_KEYS = ("data_path", "outcome", "treatment", "placebo", "role")
# The objects of a config file, each spread into dotted keys.
_GROUPS = frozenset(key.split(".")[0] for key in _KEYS if "." in key)


def _refuse_unknown(keys) -> None:
    if keys:
        raise ConfigError(f"unknown config keys: {sorted(keys)}")


def _group(given: Mapping, name: str) -> dict:
    """The keys of ``given`` in group ``name``, without the group's name."""
    prefix = name + "."
    return {key[len(prefix):]: value for key, value in given.items()
            if key.startswith(prefix)}


class RunConfig:
    """An analysis from ``settings``, a mapping of the dotted keys of
    ``_KEYS``: the form ``parse_run_config`` makes of a file and the ``plm``
    flags set. Relative paths resolve against ``base_dir``; ``source``
    names the settings where a required key is missing. The settings build
    one AnalysisConfig, whose defaults fill every setting left out; edges a
    role does not accept raise AmbiguousSpec here, before any data is read.
    """

    def __init__(self, settings: Mapping, base_dir=None,
                 source: str = "config"):
        _refuse_unknown(set(settings) - set(_KEYS))
        missing = [key for key in REQUIRED_KEYS if key not in settings]
        if missing:
            raise ConfigError(f"{source} lacks required keys: {missing}")
        base = Path(base_dir) if base_dir is not None else Path(".")
        given = {key: check(settings[key], key, base)
                 for key, (check, _) in _KEYS.items() if key in settings}
        self.data_path = given["data_path"]
        edges = _group(given, "edges")
        self.spec = PlaceboSpec(
            outcome_col=given["outcome"],
            treatment_col=given["treatment"],
            placebo_col=given["placebo"],
            role=given["role"],
            edge_d_to_p=edges.get("d_to_p", False),
            edge_p_to_y=edges.get("p_to_y", False),
            covariate_cols=given.get("covariates", ()),
            # Writing role: mediator in a config file is already an explicit
            # choice, so the in-code acknowledgment gate is satisfied here.
            acknowledge_mediator=(given["role"] == "mediator"),
        )
        check_edges(self.spec.role, [key for key, value in edges.items()
                                     if value])
        self.outputs = _group(given, "outputs")
        for key, target in self.outputs.items():
            if not target.parent.is_dir():
                raise ConfigError(f"outputs.{key} directory {target.parent} "
                                  "does not exist")
        self._analysis = AnalysisConfig(
            spec=self.spec, **{field: given[key]
                               for key, (_, field) in _KEYS.items()
                               if field is not None and key in given})

    def analysis_config(self, **given) -> AnalysisConfig:
        """The engine configuration with the ``given`` AnalysisConfig
        fields replaced: the execution options ``freeze_sf``,
        ``cluster_col`` and an overriding ``seed``."""
        return dataclasses.replace(self._analysis, **given)


def parse_run_config(path) -> RunConfig:
    """Load and validate a JSON run config: its objects spread into the
    dotted keys RunConfig reads, where a dotted top-level key is unknown."""
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
    _refuse_unknown([key for key in raw if "." in key])
    settings = {}
    for key, value in raw.items():
        if key not in _GROUPS:
            settings[key] = value
        elif isinstance(value, Mapping):
            settings.update((f"{key}.{name}", v) for name, v in value.items())
        elif value is not None:
            raise ConfigError(f"{key} must be a JSON object")
    return RunConfig(settings, path.parent, source=f"config {path}")


def _write_chunks(path, chunks) -> Path:
    """Write the text ``chunks``, in order, into ``path`` opened once: the
    one write path of every output. IoError (exit 3) where the path cannot
    be opened or written."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


# Rows per block of a CSV writer: a block of 8 columns is about 0.6 MiB
# of text, whatever the row count.
_ROW_BLOCK = 4096


def _row_blocks(n_rows: int):
    """Slices of at most ``_ROW_BLOCK`` rows that cover ``range(n_rows)``."""
    return (slice(i, i + _ROW_BLOCK) for i in range(0, n_rows, _ROW_BLOCK))


def _cells(values):
    """The text of each float of ``values``: its shortest round-trip
    decimal, the one number format of every CSV output."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _write_csv(path, header, blocks) -> Path:
    """The one CSV writer: the ``header`` row, then the rows of each of
    ``blocks``, a list of columns of cell text, as many rows as its
    shortest column. Bounded blocks keep what a writer holds from growing."""
    def chunks():
        yield ",".join(header) + "\n"
        for columns in blocks:
            yield "\n".join(map(",".join, zip(*columns))) + "\n"
    return _write_chunks(path, chunks())


def write_table_csv(table: ResultTable, path) -> Path:
    blocks = (zip(*table.rows[rows]) for rows in _row_blocks(len(table.rows)))
    return _write_csv(path, TABLE_COLUMNS, ([labels, *map(_cells, numbers)]
                                            for labels, *numbers in blocks))


def read_table_csv(path) -> ResultTable:
    """Read back a table CSV written by write_table_csv."""
    path = Path(path)
    table = []
    with _csv_reader(path) as rows:
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
    """One block per k row: its k text, the direct texts (formatted once)
    and its estimates; each k is formatted with its row, not all at once."""
    directs = list(_cells(grid.direct_values))
    return _write_csv(path, ("k", "direct", "estimate"), (
        [repeat(k_text), directs, _cells(row)]
        for (k_text,), row in zip(map(_cells, grid.k_values[:, None]),
                                  grid.estimates)))


def _json_default(value):
    """An array as a list and a numpy scalar as its Python value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _non_finite(value, key: str):
    """(key, number) of the first non-finite number in ``value``, in the
    order ``json_text`` writes it, with the keys and list indices on its
    path; None where every number is finite."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, Mapping):
        parts = ((f"{key}.{name}" if key else str(name), item)
                 for name, item in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        parts = ((f"{key}[{i}]", item) for i, item in enumerate(value))
    else:
        if isinstance(value, np.generic):
            value = value.item()
        finite = not isinstance(value, float) or math.isfinite(value)
        return None if finite else (key, value)
    return next(filter(None, (_non_finite(item, name)
                              for name, item in parts)), None)


def json_text(payload) -> str:
    """The text of every JSON output: sorted keys, one-space indent,
    arrays as lists and numpy scalars as their Python values. JSON has no
    infinity or NaN, so a non-finite number raises NumericError naming
    its key, before any of the text is written."""
    try:
        return json.dumps(payload, sort_keys=True, indent=1,
                          allow_nan=False, default=_json_default)
    except ValueError:
        found = _non_finite(payload, "")
        if found is None:
            raise
        raise NumericError(f"output {found[0]} is {found[1]}; JSON has no "
                           "infinity or NaN") from None


def write_json(payload, path) -> Path:
    return _write_chunks(path, (json_text(payload), "\n"))


def write_contour_json(grid: ContourGrid, path) -> Path:
    return write_json({"k_values": grid.k_values,
                       "direct_values": grid.direct_values,
                       "zero_contour": grid.zero_contour,
                       "metadata": grid.metadata}, path)


def write_line_csvs(line: LineSlice, path) -> list[Path]:
    """One CSV per curve; a single curve goes to the path itself."""
    path = Path(path)
    fixed_name = "fixed_direct" if line.varying == "k" else "fixed_k"
    header = (line.varying, "estimate", "ci_low", "ci_high", fixed_name)
    written = []
    for index, (fixed, curve) in enumerate(zip(line.fixed_values,
                                               line.curves)):
        target = path if len(line.curves) == 1 else path.with_name(
            f"{path.stem}_{index + 1}{path.suffix or '.csv'}")
        fixed_text, = _cells((fixed,))
        written.append(_write_csv(target, header, (
            [*map(_cells, curve[rows].T), repeat(fixed_text)]
            for rows in _row_blocks(len(curve)))))
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
        stride_k = max(1, (len(kv) - 1 + 39) // 40)
        stride_d = max(1, (len(dv) - 1 + 39) // 40)
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


def emit_outputs(kind: str, result, cfg: RunConfig) -> list[Path]:
    """Write ``result``, the result of subcommand ``kind``, to
    ``cfg.outputs[kind]``: a table's CSV, a contour's CSV and JSON
    sidecar, or a line's CSVs. A contour or line also draws itself to the
    configured svg output. Returns the written paths in that order."""
    path = cfg.outputs[kind]
    if kind == "table":
        return [write_table_csv(result, path)]
    if kind == "contour":
        json_path = path.with_suffix(".json")
        if json_path == path:
            json_path = path.with_name(path.name + ".json")
        written = [write_contour_csv(result, path),
                   write_contour_json(result, json_path)]
        render = render_contour_svg
    else:
        written = write_line_csvs(result, path)
        render = render_line_svg
    if "svg" in cfg.outputs:
        written.append(_write_chunks(cfg.outputs["svg"], (render(result),)))
    return written
