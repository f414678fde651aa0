"""Tests for CSV loading, run configs, and output writers."""

import csv
import gzip
import json
import math
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plm.engine import (AnalysisConfig, ContourGrid, LineSlice, ResultTable,
                        TableRow, run_contour, run_line)
from plm.adjust import PlaceboSpec, dispatch_case
from plm.errors import (
    AmbiguousSpec,
    ConfigError,
    DataError,
    DuplicateHeader,
    IoError,
    NonFiniteValue,
    NumericError,
    ParseError,
    TooFewRows,
)
import plm.io as plm_io
from plm.io import (
    RunConfig,
    check_fixture_manifest,
    emit_outputs,
    load_csv,
    parse_run_config,
    read_table_csv,
    render_contour_svg,
    render_line_svg,
    write_contour_csv,
    write_contour_json,
    write_dataset_csv,
    write_line_csvs,
    write_table_csv,
)
from plm.regression import Dataset, ScaledColumns
from plm.selfcheck import random_recipe
from plm.simulate import simulate_scm

SVG_NS = "{http://www.w3.org/2000/svg}"


def _write_dataset(path, data):
    # The per-row form, whole file in one string: the reference that
    # write_dataset_csv's row blocks must match byte for byte.
    lines = [",".join(data.names)]
    matrix = data.matrix(data.names)
    for row in matrix:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _sim_data(seed=1, n=300):
    return simulate_scm(random_recipe("b", seed=seed, n=n))


def _spec():
    return PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                       role="placebo_outcome", edge_d_to_p=True)


def _config_payload(data_path, **overrides):
    payload = {
        "data_path": str(data_path),
        "outcome": "Y",
        "treatment": "D",
        "placebo": "P",
        "role": "placebo_outcome",
        "edges": {"d_to_p": True},
        "covariates": ["Z1"],
        "k": [-2.0, 2.0],
        "direct": [-0.5, 0.5],
        "grid": 15,
        "bootstrap": {"reps": 120, "seed": 9},
        "ci_level": 0.9,
    }
    payload.update(overrides)
    return payload


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_csv_round_trip(tmp_path):
    data = _sim_data(seed=7, n=40)
    path = _write_dataset(tmp_path / "data.csv", data)
    loaded = load_csv(path)
    assert loaded.names == data.names
    for name in data.names:
        # repr serialization means the floats survive exactly.
        assert np.array_equal(loaded[name], data[name])


def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("D,P,Y\n0,1.0,2.0\n1,NA,3.0\n", encoding="utf-8")
    with pytest.raises(NonFiniteValue, match=r"row 3.*'P'.*'NA'"):
        load_csv(path)
    path.write_text("D,Y\n0,inf\n", encoding="utf-8")
    with pytest.raises(NonFiniteValue, match=r"row 2.*'Y'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("D,P,Y\n0,1,2\n0,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_load_csv_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("D,Y,D\n0,1,2\n", encoding="utf-8")
    with pytest.raises(DuplicateHeader, match="'D'"):
        load_csv(path)


def test_load_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="empty"):
        load_csv(empty)
    header_only = tmp_path / "header.csv"
    for text in ("D,Y\n", "D,Y\n\n\r\n"):
        header_only.write_text(text, encoding="utf-8")
        # No "input contained no data" or other warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooFewRows):
                load_csv(header_only)


@pytest.mark.parametrize("content, columns, scanned", [
    (b"D,Y\r\n1,2\r\n3,4\r\n", {"D": [1, 3], "Y": [2, 4]}, False),
    (b"D,Y\r1,2\r3,4\r", {"D": [1, 3], "Y": [2, 4]}, False),
    (b'D,Y\n"1",2\n3,"4"\n', {"D": [1, 3], "Y": [2, 4]}, True),
    (b"D,Y\n 1 ,\t2\n3 , 4 \n", {"D": [1, 3], "Y": [2, 4]}, False),
    (b"D,Y\n1_000,2\n3,4\n", {"D": [1000, 3], "Y": [2, 4]}, True),
    # Spreadsheet exports start with one; it is not part of the first name.
    (b'\xef\xbb\xbf"Y",D\n1,2\n3,4\n', {"Y": [1, 3], "D": [2, 4]}, False),
    (b"D,Y\n0,1\n\n1,2\n", {"D": [0, 1], "Y": [1, 2]}, False),
    # NumPy skips the header's two physical lines, not one.
    (b'"Y\nx",D\n1,2\n3,4\n', {"Y\nx": [1, 3], "D": [2, 4]}, False),
], ids=["crlf", "cr-only", "quoted-cell", "padded-cells", "underscore-digits",
        "byte-order-mark", "blank-lines", "two-line-header"])
def test_load_csv_accepts(tmp_path, monkeypatch, content, columns, scanned):
    # NumPy's block reader reads every file whose cells it parses; the row
    # scan reads only the others.
    scan, scans = plm_io._scan_rows, []
    monkeypatch.setattr(plm_io, "_scan_rows",
                        lambda *args: scans.append(args) or scan(*args))
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    data = load_csv(path)
    assert data.names == tuple(columns)
    for name, values in columns.items():
        assert data[name].tolist() == values
    assert bool(scans) == scanned


def test_load_csv_refuses_a_gzip_file(tmp_path):
    # NumPy's opener would decompress it by its name; the header reader
    # refuses it first, so NumPy never reads it.
    path = tmp_path / "in.csv.gz"
    path.write_bytes(gzip.compress(b"D,Y\n1,2\n3,4\n"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_load_csv_reads_a_compressed_name_as_text(tmp_path, suffix):
    path = tmp_path / f"in.csv{suffix}"
    path.write_bytes(b"D,Y\n1,2\n3,4\n")
    data = load_csv(path)
    assert data["D"].tolist() == [1, 3] and data["Y"].tolist() == [2, 4]


def test_frame_of_loaded_columns_is_the_two_pass_formula(tmp_path):
    # A loaded column is a strided view of the parsed rows. The frame
    # copies it before it standardizes; its bytes do not move for that.
    values = np.random.default_rng(1).normal(1e4, 3e3, size=(5000, 4))
    path = tmp_path / "d.csv"
    path.write_text("a,b,c,d\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in values.tolist()))
    data = load_csv(path)
    frame = ScaledColumns(data, data.names)
    for j, name in enumerate(data.names, 1):
        x = data[name]
        assert x.strides == (8 * 4,)
        assert frame.mean[j].tobytes() == x.mean().tobytes()
        assert frame.scale[j].tobytes() == x.std().tobytes()
        assert (frame.zt[j].tobytes()
                == (np.subtract(x, x.mean()) / x.std()).tobytes())


@pytest.mark.parametrize("content, error, message", [
    (b"D,Y\n1,2,\n", ParseError, "row 2 has 3 fields, expected 2"),
    (b"D,Y\n1,#2\n", NonFiniteValue,
     "row 2, column 'Y': '#2' is not a finite number"),
    (b"D,Y\n1,2\n3,4,5\n", ParseError, "row 3 has 3 fields, expected 2"),
    (b"D,Y\n1,2,3\n", ParseError, "row 2 has 3 fields, expected 2"),
    (b"D,Y\n1,2\n  \n3,4\n", ParseError, "row 3 has 1 fields, expected 2"),
    (b"D\n1\n \t\n3\n", NonFiniteValue,
     "row 3, column 'D': '' is not a finite number"),
    (b"D,Y\n1,2\nnan,4\n", NonFiniteValue,
     "row 3, column 'D': 'nan' is not a finite number"),
    (b"D,Y\n1,-inf\n", NonFiniteValue,
     "row 2, column 'Y': '-inf' is not a finite number"),
    (b"D,Y\n1, 1e400\n", NonFiniteValue,
     "row 2, column 'Y': '1e400' is not a finite number"),
], ids=["trailing-comma", "hash-in-cell", "wider-row", "every-row-wider",
        "whitespace-line", "whitespace-line-one-column", "nan", "inf",
        "overflow"])
def test_load_csv_rejects(tmp_path, content, error, message):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    with pytest.raises(error) as raised:
        load_csv(path)
    assert str(raised.value) == f"{path}: {message}"


def _reference_load(path):
    """The row-by-row loader the fast parse must agree with: csv.reader
    cells through float(), names to lists of values."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader)]
            columns = [[] for _ in header]
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: row {row_number} has {len(row)} fields, "
                        f"expected {len(header)}")
                for col, cell in enumerate(row):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise NonFiniteValue(
                            f"{path}: row {row_number}, column "
                            f"{header[col]!r}: {cell.strip()!r} is not a "
                            "finite number")
                    columns[col].append(value)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not columns[0]:
        raise TooFewRows(f"{path}: no data rows")
    return dict(zip(header, columns))


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:.4e}".format),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_CELL = st.one_of(
    _NUMBER.map('"{}"'.format),
    st.tuples(st.sampled_from(["", " ", "\t", "  "]), _NUMBER,
              st.sampled_from(["", " ", "\t"])).map("".join),
    st.sampled_from(["nan", "-inf", "1e400", "1_000", "", " ", "x", "#1",
                     "1 2", '"', "0x1", "\u0661"]),
)


@st.composite
def _loader_csv(draw):
    """CSV text over 1-3 columns: clean numeric rows, or rows with quoted,
    padded, special and junk cells, ragged and blank rows; LF, CRLF or
    CR-only line endings, mixed in the second kind. The first name may be
    quoted over two lines."""
    width = draw(st.integers(1, 3))
    clean = draw(st.booleans())
    cell = _NUMBER if clean else st.one_of(_NUMBER, _ODD_CELL)
    lengths = (st.just(width) if clean
               else st.one_of(st.just(width), st.integers(0, width + 1)))
    rows = draw(st.lists(lengths.flatmap(
        lambda n: st.lists(cell, min_size=n, max_size=n)), max_size=12))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    names = [f"c{j}" for j in range(width)]
    if draw(st.booleans()):
        names[0] = f'"c{draw(endings)}0"'
    lines = [",".join(names)]
    lines += [",".join(row) for row in rows]
    ending = draw(endings)
    text = "".join(line + (ending if clean else draw(endings))
                   for line in lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=100, deadline=None)
@given(text=_loader_csv())
def test_load_csv_matches_the_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode())
        try:
            expected = _reference_load(path)
        except DataError as exc:
            with pytest.raises(type(exc)) as raised:
                load_csv(path)
            assert str(raised.value) == str(exc)
            return
        data = load_csv(path)
    assert data.names == tuple(expected)
    for name, values in expected.items():
        assert data[name].tobytes() == np.array(values).tobytes()


def _traced_load(path):
    """(Dataset, bytes held after the load, peak bytes during it)."""
    tracemalloc.start()
    try:
        data = load_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return data, held, peak


@pytest.mark.parametrize("rows, quoted", [(50_000, False), (5_000, True),
                                          (50_000, True)])
def test_load_csv_keeps_its_parsed_arrays(tmp_path, rows, quoted):
    # The Dataset keeps the loader's fresh arrays, so a load peaks near
    # the size of its result. A quoted cell sends the file to the row scan.
    values = np.random.default_rng(0).normal(1e4, 3e3, size=(rows, 11))
    text = [",".join(f"c{j}" for j in range(11))]
    text += [",".join(map(repr, row)) for row in values.tolist()]
    if quoted:
        text[1] = '"' + text[1].replace(",", '",', 1)
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    data, _, peak = _traced_load(path)
    assert np.array_equal(data.matrix(data.names), values)
    assert peak <= 1.5 * values.nbytes, peak
    if rows < 50_000:
        return
    # Loaded again, past the first load's caches: the columns are held at
    # their exact size. The row scan peaks at its growing buffers (1.07 of
    # the values before its columns were copied to exact size) plus the
    # one column being copied.
    del data
    _, held, peak = _traced_load(path)
    assert held <= 1.001 * values.nbytes, held
    if quoted:
        assert peak <= (1.07 + 1 / 11) * values.nbytes, peak


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_csv(tmp_path / "nope.csv")


def _pipe_csv(tmp_path) -> Path:
    # More than the 8 KiB the header reader takes from a pipe at once, so
    # a reader that opens the pipe again finds rows missing.
    path = _write_dataset(tmp_path / "data.csv", _sim_data(n=1500))
    assert path.stat().st_size >= 100_000
    return path


def test_load_csv_reads_a_pipe_once(tmp_path, fifo):
    path = _pipe_csv(tmp_path)
    piped = load_csv(fifo(tmp_path / "pipe.csv", path.read_bytes()))
    loaded = load_csv(path)
    assert piped.names == loaded.names
    for name in loaded.names:
        assert np.array_equal(piped[name], loaded[name])


def test_load_csv_words_a_bad_cell_in_a_pipe_as_in_a_file(tmp_path, fifo):
    path = _pipe_csv(tmp_path)
    *rows, last = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(rows) + b"NA," + last.split(b",", 1)[1])
    messages = []
    for source in (path, fifo(tmp_path / "pipe.csv", path.read_bytes())):
        with pytest.raises(NonFiniteValue) as error:
            load_csv(source)
        messages.append(str(error.value).replace(str(source), "<path>"))
    assert messages[0] == messages[1]
    assert messages[0].startswith("<path>: row 1501, column 'Z1': 'NA'")


def test_fixture_manifest_check(tmp_path):
    data = load_csv(_write_dataset(tmp_path / "d.csv", _sim_data(n=25)))
    manifest = {
        "n_rows": data.n_rows,
        "column_means": {name: float(np.mean(data[name]))
                         for name in data.names},
    }
    check_fixture_manifest(data, manifest)
    with pytest.raises(DataError, match="rows"):
        check_fixture_manifest(data, {**manifest, "n_rows": 99})
    wrong = dict(manifest["column_means"])
    wrong["Y"] += 0.1
    with pytest.raises(DataError, match="'Y'"):
        check_fixture_manifest(data, {**manifest, "column_means": wrong})
    with pytest.raises(DataError, match=r"^fixture lacks manifest columns "
                       r"\['Q'\]$"):
        check_fixture_manifest(data, {**manifest, "column_means": {
            **manifest["column_means"], "Q": 0.0}})


def test_json_text_writes_a_numpy_scalar_as_its_python_value():
    data = _sim_data(n=60)
    metadata = [run_contour(data, AnalysisConfig(
        spec=_spec(), grid_points_per_axis=3, seed=seed)).metadata
        for seed in (np.int64(7), 7)]
    assert type(metadata[0]["seed"]) is np.int64
    assert plm_io.json_text(metadata[0]) == plm_io.json_text(metadata[1])


def test_json_text_refuses_a_value_it_cannot_write():
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        plm_io.json_text({"x": object()})


@pytest.mark.parametrize("payload, where", [
    ({"a": 1.0, "b": {"c": [0.5, float("inf")]}}, r"b\.c\[1\] is inf"),
    ({"k": np.array([1.0, np.nan])}, r"k\[1\] is nan"),
    ({"x": np.float32("-inf")}, r"x is -inf"),
], ids=["nested", "array", "numpy-scalar"])
def test_json_text_names_a_non_finite_number(payload, where):
    with pytest.raises(NumericError, match=f"^output {where}; JSON has no "
                       "infinity or NaN$"):
        plm_io.json_text(payload)


def test_parse_run_config_builds_spec(tmp_path):
    data_path = _write_dataset(tmp_path / "data.csv", _sim_data(n=30))
    (tmp_path / "out").mkdir()
    payload = _config_payload(
        "data.csv",
        outputs={"table": "out/table.csv", "svg": "out/plot.svg"},
    )
    cfg = parse_run_config(_write_config(tmp_path, payload))
    assert cfg.data_path == data_path.resolve()
    assert cfg.spec.role == "placebo_outcome"
    assert cfg.spec.edge_d_to_p is True
    assert cfg.spec.covariate_cols == ("Z1",)
    assert cfg.outputs["table"] == (tmp_path / "out" / "table.csv").resolve()
    engine_cfg = cfg.analysis_config()
    assert isinstance(engine_cfg, AnalysisConfig)
    assert engine_cfg.k_range == (-2.0, 2.0)
    assert engine_cfg.direct_range == (-0.5, 0.5)
    assert engine_cfg.grid_points_per_axis == 15
    assert engine_cfg.bootstrap_reps == 120
    assert engine_cfg.seed == 9
    assert engine_cfg.ci_level == 0.9
    assert cfg.analysis_config(seed=99).seed == 99


def test_run_config_paths_resolve_against_config_dir(tmp_path):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    nested = tmp_path / "cfg"
    nested.mkdir()
    payload = _config_payload("../data.csv",
                              outputs={"table": "../table.csv"})
    cfg = parse_run_config(_write_config(nested, payload))
    assert cfg.data_path == (tmp_path / "data.csv").resolve()
    assert cfg.outputs["table"] == (tmp_path / "table.csv").resolve()


@pytest.mark.parametrize("mutate", [
    {"typo_key": 1},
    {"edges": {"d_to_p": True, "q_to_r": True}},
    {"bootstrap": {"reps": 10, "chains": 2}},
    {"outputs": {"pdf": "x.pdf"}},
    # The flat form of a nested key is not a file key.
    {"bootstrap.reps": 10},
    {"base_dir": "elsewhere"},
])
def test_run_config_rejects_unknown_keys(tmp_path, mutate):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    payload = _config_payload("data.csv", **mutate)
    with pytest.raises(ConfigError, match="unknown"):
        parse_run_config(_write_config(tmp_path, payload))


@pytest.mark.parametrize("mutate, key", [
    ({"typo_key": 1}, "typo_key"),
    ({"edges": {"d_to_p": True, "q_to_r": True}}, "edges.q_to_r"),
    ({"bootstrap.reps": 10}, "bootstrap.reps"),
])
def test_unknown_key_is_named_by_its_dotted_name(tmp_path, mutate, key):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    payload = _config_payload("data.csv", **mutate)
    with pytest.raises(ConfigError) as raised:
        parse_run_config(_write_config(tmp_path, payload))
    assert str(raised.value) == f"unknown config keys: {[key]}"


def test_run_config_requires_core_fields(tmp_path):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    payload = _config_payload("data.csv")
    del payload["treatment"]
    with pytest.raises(ConfigError, match="treatment"):
        parse_run_config(_write_config(tmp_path, payload))


def test_run_config_edge_role_consistency(tmp_path):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))

    def parse(**overrides):
        payload = _config_payload("data.csv", **overrides)
        return parse_run_config(_write_config(tmp_path, payload))

    with pytest.raises(AmbiguousSpec):
        parse(edges={"p_to_d": True})
    with pytest.raises(AmbiguousSpec):
        parse(edges={"y_to_p": True})
    # The same flags are redundant but consistent with their own roles.
    assert parse(edges={"p_to_d": True},
                 role="observed_confounder_2").spec.role \
        == "observed_confounder_2"
    assert parse(edges={"y_to_p": True}, role="post_outcome").spec.role \
        == "post_outcome"
    with pytest.raises(ConfigError, match="true or false"):
        parse(edges={"d_to_p": 1})


def test_run_config_refuses_contradictory_edges_before_reading_data(
        tmp_path):
    # The data file is not numeric: the edge check comes first.
    (tmp_path / "data.csv").write_text("Y,D,P\nx,y,z\n", encoding="utf-8")

    def parse(**overrides):
        payload = _config_payload("data.csv", **overrides)
        return parse_run_config(_write_config(tmp_path, payload))

    with pytest.raises(AmbiguousSpec, match="placebo_treatment, "
                       "observed_confounder_1, observed_confounder_2$"):
        parse(edges={"p_to_y": True})
    with pytest.raises(AmbiguousSpec,
                       match="roles that accept them: post_outcome$"):
        parse(edges={"d_to_p": True, "y_to_p": True})
    with pytest.raises(AmbiguousSpec, match="accept them: none$"):
        parse(edges={"p_to_d": True, "y_to_p": True},
              role="observed_confounder_2")
    assert parse(edges={"d_to_p": True, "p_to_y": True}).spec.edge_p_to_y


def test_run_config_mediator_role_is_acknowledged(tmp_path):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    payload = _config_payload(
        "data.csv", role="mediator",
        edges={"d_to_p": True, "p_to_y": True},
    )
    cfg = parse_run_config(_write_config(tmp_path, payload))
    assert cfg.spec.acknowledge_mediator is True


def test_run_config_malformed_inputs(tmp_path):
    _write_dataset(tmp_path / "data.csv", _sim_data(n=25))
    with pytest.raises(ConfigError, match="grid"):
        parse_run_config(_write_config(
            tmp_path, _config_payload("data.csv", grid=2.5)))
    with pytest.raises(ConfigError, match="pair"):
        parse_run_config(_write_config(
            tmp_path, _config_payload("data.csv", k=[1.0])))
    with pytest.raises(ConfigError, match="role"):
        parse_run_config(_write_config(
            tmp_path, _config_payload("data.csv", role="thing")))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        parse_run_config(bad_json)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        parse_run_config(listy)
    with pytest.raises(ConfigError, match="does not exist"):
        parse_run_config(_write_config(
            tmp_path,
            _config_payload("data.csv",
                            outputs={"table": "no_dir/table.csv"})))


def test_table_csv_round_trip(tmp_path):
    rows = (
        TableRow("SOO", 0.0, 0.0, 0.1 + 0.2, 1.0 / 3.0, -1e-17, 2.0),
        TableRow("Grid", -1.5, 0.25, np.pi, 0.0123456789012345, -1.0, 1.0),
    )
    table = ResultTable(rows=rows, metadata={"role": "placebo_outcome"})
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == \
        "label,k,direct_effect,estimate,std_error,ci_low,ci_high"
    loaded = read_table_csv(path)
    assert loaded.rows == rows
    with pytest.raises(ParseError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        read_table_csv(bad)
    header = text.splitlines()[0]
    for row, message in (("Grid,1,0,2,0.5,1", "malformed row 2"),
                         ("Grid,1,0,2,0.5,low,3",
                          "non-numeric value in row 2")):
        bad.write_text(f"{header}\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            read_table_csv(bad)
        assert str(raised.value) == f"{bad}: {message}"


def test_contour_csv_and_json(tmp_path):
    data = _sim_data()
    cfg = AnalysisConfig(spec=_spec(), direct_range=(-1.0, 1.0),
                         grid_points_per_axis=15, bootstrap_reps=50)
    grid = run_contour(data, cfg)
    csv_path = tmp_path / "contour.csv"
    write_contour_csv(grid, csv_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,direct,estimate"
    assert len(lines) == 1 + 15 * 15
    k, dv, est = (float(v) for v in lines[1].split(","))
    assert k == grid.k_values[0]
    assert dv == grid.direct_values[0]
    assert est == grid.estimates[0, 0]
    json_path = tmp_path / "contour.json"
    write_contour_json(grid, json_path)
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert set(payload) == {"k_values", "direct_values", "zero_contour",
                            "metadata"}
    assert payload["k_values"] == [float(v) for v in grid.k_values]
    assert len(payload["zero_contour"]) == len(grid.zero_contour)
    first = np.asarray(payload["zero_contour"][0])
    assert np.array_equal(first, grid.zero_contour[0])


def test_contour_csv_bytes_match_the_per_cell_form(tmp_path):
    k_values = np.arange(-1.0, 1.05, 0.1)
    direct_values = np.array([-0.0, 0.1, 0.2 + 0.1, 1e-300, -2.5e17])
    estimates = np.outer(k_values, direct_values) * 3.0
    estimates[0, :3] = (-0.0, 5e-324, 1e300)
    grid = ContourGrid(k_values, direct_values, estimates, ())
    path = write_contour_csv(grid, tmp_path / "contour.csv")
    expected = ["k,direct,estimate"] + [
        f"{float(k)!r},{float(dv)!r},{float(estimates[i, j])!r}"
        for i, k in enumerate(k_values)
        for j, dv in enumerate(direct_values)
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def _traced_write(write, *args):
    """Peak bytes that tracemalloc sees while ``write(*args)`` runs."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _contour_grid(k_rows, directs=401):
    rng = np.random.default_rng(k_rows)
    return ContourGrid(np.linspace(-2.0, 2.0, k_rows),
                       np.linspace(-1.0, 1.0, directs),
                       rng.standard_normal((k_rows, directs)), ())


def test_contour_csv_writer_peak_is_at_most_1_mib(tmp_path):
    # 1601 x 401 is a 24 MiB file; it is written one k row at a time.
    grid = _contour_grid(1601)
    peak = _traced_write(write_contour_csv, grid, tmp_path / "contour.csv")
    assert peak <= 2**20
    assert (tmp_path / "contour.csv").stat().st_size > 20 * 2**20


def test_contour_csv_writer_peak_does_not_grow_with_k_rows(tmp_path):
    path = tmp_path / "contour.csv"
    small = _traced_write(write_contour_csv, _contour_grid(101, 41), path)
    large = _traced_write(write_contour_csv, _contour_grid(1601, 41), path)
    # 16 times the rows, 2.5 MiB more text; one k row is about 1.6 KiB.
    assert large <= small + 16 * 2**10


# Around the writer's blocks of 4096 rows.
@pytest.mark.parametrize("n", [1, 4095, 4096, 8193])
def test_dataset_csv_bytes_match_the_per_row_form(tmp_path, n):
    values = np.random.default_rng(n).standard_normal((n, 3)) * [1.0, 1e-300,
                                                                 1e17]
    values[0] = (-0.0, 5e-324, 0.1 + 0.2)
    data = Dataset({"Y": values[:, 0], "D": values[:, 1], "P": values[:, 2]})
    path = write_dataset_csv(data, tmp_path / "data.csv")
    expected = _write_dataset(tmp_path / "expected.csv", data)
    assert path.read_bytes() == expected.read_bytes()
    loaded = load_csv(path)
    assert np.array_equal(loaded.matrix(loaded.names), values)


def test_dataset_csv_writer_peak_is_at_most_1_mib(tmp_path):
    # About 8 MiB of text at n = 200k; a block of rows is about 0.2 MiB.
    n = 200_000
    columns = np.random.default_rng(0).standard_normal((2, n))
    data = Dataset(dict(zip(("Y", "D"), columns)))
    peak = _traced_write(write_dataset_csv, data, tmp_path / "data.csv")
    assert peak <= 2**20


def _table(n):
    values = np.random.default_rng(n).standard_normal((n, 6)) * 1e17
    values[0] = (-0.0, 5e-324, 0.1 + 0.2, 1e-300, -2.5e17, 1.0)
    return ResultTable(rows=tuple(TableRow(f"Grid{i}", *row)
                                  for i, row in enumerate(values.tolist())))


def _line(n):
    curve = np.random.default_rng(n).standard_normal((n, 4)) * 1e-3
    curve[0] = (-0.0, 5e-324, 1e300, -2.5e17)
    return LineSlice("k", (0.1 + 0.2,), (curve,))


def _per_row_table(table):
    return ["label,k,direct_effect,estimate,std_error,ci_low,ci_high"] + [
        ",".join([row.label, *(repr(float(v)) for v in row[1:])])
        for row in table.rows]


def _per_row_line(line):
    return ["k,estimate,ci_low,ci_high,fixed_direct"] + [
        ",".join(repr(float(v)) for v in (*point, line.fixed_values[0]))
        for point in line.curves[0]]


@pytest.mark.parametrize("write, make, reference, rows", [
    (write_table_csv, _table, _per_row_table, 200_000),
    (lambda line, path: write_line_csvs(line, path)[0], _line,
     _per_row_line, 200_001)], ids=["table", "line"])
def test_table_and_line_csv_writers_stream_the_per_row_form(
        tmp_path, write, make, reference, rows):
    # Around the one CSV writer's blocks of 4096 rows.
    path = tmp_path / "out.csv"
    for n in (1, 4095, 4096, 8193):
        result = make(n)
        write(result, path)
        assert path.read_bytes() == ("\n".join(reference(result))
                                     + "\n").encode(), n
    # Over 12 MiB of text at 200k rows; a block of rows is under 1 MiB.
    peak = _traced_write(write, make(rows), path)
    assert peak <= 3 * 2**20
    assert path.stat().st_size > 12 * 2**20


def test_line_csv_single_and_multi(tmp_path):
    data = _sim_data()
    cfg = AnalysisConfig(spec=_spec(), direct_range=(-1.0, 1.0),
                         grid_points_per_axis=9, bootstrap_reps=60, seed=3)
    single = run_line(data, cfg, varying="k", fixed_percentiles=(0.5,))
    path = tmp_path / "line.csv"
    written = write_line_csvs(single, path)
    assert written == [path]
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,estimate,ci_low,ci_high,fixed_direct"
    assert len(lines) == 1 + 9
    assert all(line.endswith(repr(0.0)) for line in lines[1:])

    double = run_line(data, cfg, varying="k", fixed_percentiles=(0.25, 0.75))
    written = write_line_csvs(double, tmp_path / "multi.csv")
    assert [p.name for p in written] == ["multi_1.csv", "multi_2.csv"]
    body = written[1].read_text(encoding="utf-8").splitlines()
    assert body[1].endswith(repr(0.5))


def test_contour_svg_valid_xml_one_path_per_polyline():
    data = _sim_data()
    cfg = AnalysisConfig(spec=_spec(), direct_range=(-1.0, 1.0),
                         grid_points_per_axis=21, bootstrap_reps=50)
    grid = run_contour(data, cfg)
    assert grid.zero_contour
    svg = render_contour_svg(grid)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    paths = root.findall(f".//{SVG_NS}path")
    assert len(paths) == len(grid.zero_contour)
    assert root.findall(f".//{SVG_NS}rect")
    assert root.findall(f".//{SVG_NS}text")


def test_line_svg_curves_and_ribbons():
    data = _sim_data()
    cfg = AnalysisConfig(spec=_spec(), direct_range=(-1.0, 1.0),
                         grid_points_per_axis=9, bootstrap_reps=60, seed=3)
    line = run_line(data, cfg, varying="k", fixed_percentiles=(0.0, 1.0))
    svg = render_line_svg(line)
    root = ET.fromstring(svg)
    assert len(root.findall(f".//{SVG_NS}polyline")) == 2
    assert len(root.findall(f".//{SVG_NS}path")) == 2


def test_emit_outputs_writes_configured_results(tmp_path):
    data = _sim_data()
    data_path = _write_dataset(tmp_path / "data.csv", data)
    payload = _config_payload(
        "data.csv", grid=9,
        bootstrap={"reps": 60, "seed": 3},
        outputs={"table": "table.csv", "contour": "contour.csv",
                 "line": "line.csv", "svg": "plot.svg"},
    )
    cfg = parse_run_config(_write_config(tmp_path, payload))
    engine_cfg = cfg.analysis_config()
    from plm.engine import run_table
    results = {
        "table": run_table(load_csv(data_path), engine_cfg),
        "contour": run_contour(load_csv(data_path), engine_cfg),
        "line": run_line(load_csv(data_path), engine_cfg),
    }
    svg_path = tmp_path / "plot.svg"

    # A table writes its CSV and no SVG.
    assert emit_outputs("table", results["table"], cfg) == [
        tmp_path / "table.csv"]
    assert not svg_path.exists()

    # A line writes its CSV and draws its curves.
    written = emit_outputs("line", results["line"], cfg)
    assert [p.name for p in written] == ["line.csv", "plot.svg"]
    assert "<polyline" in svg_path.read_text(encoding="utf-8")

    # A contour writes its CSV and sidecar and draws its zero isoline.
    written = emit_outputs("contour", results["contour"], cfg)
    assert [p.name for p in written] == ["contour.csv", "contour.json",
                                         "plot.svg"]
    svg_text = svg_path.read_text(encoding="utf-8")
    assert svg_text.count("<path") == len(results["contour"].zero_contour)

    # Second emission produces identical bytes.
    before = {p: p.read_bytes() for p in written}
    emit_outputs("contour", results["contour"], cfg)
    for p, blob in before.items():
        assert p.read_bytes() == blob


@pytest.mark.parametrize("name, sidecar", [("c.json", "c.json.json"),
                                           ("c", "c.json")])
def test_contour_sidecar_never_overwrites_its_csv(tmp_path, name, sidecar):
    data_path = _write_dataset(tmp_path / "data.csv", _sim_data(n=60))
    payload = _config_payload("data.csv", grid=5,
                              outputs={"contour": name})
    cfg = parse_run_config(_write_config(tmp_path, payload))
    grid = run_contour(load_csv(data_path), cfg.analysis_config())
    written = emit_outputs("contour", grid, cfg)
    assert written == [tmp_path / name, tmp_path / sidecar]
    with open(tmp_path / name, encoding="utf-8") as handle:
        assert handle.readline() == "k,direct,estimate\n"
    assert json.loads((tmp_path / sidecar).read_text(encoding="utf-8"))[
        "k_values"] == grid.k_values.tolist()
