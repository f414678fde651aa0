"""End-to-end tests for the command line interface."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plm
from plm.adjust import _ROLE_TABLE, ROLES
from plm.cli import _ANALYSIS_FLAGS, cli_main
from plm.io import load_csv, read_table_csv, write_dataset_csv
from plm.regression import Dataset
from plm.selfcheck import random_recipe
from plm.simulate import SCMRecipe, simulate_scm


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PLM_SEED", raising=False)


def _data_csv(tmp_path, seed=1, n=250, name="data.csv"):
    data = simulate_scm(random_recipe("b", seed=seed, n=n))
    return write_dataset_csv(data, tmp_path / name)


def _table_argv(data_path, out, **extra):
    argv = ["table", "--data", str(data_path), "--outcome", "Y",
            "--treatment", "D", "--placebo", "P",
            "--role", "placebo_outcome", "--edge-d-to-p",
            "--reps", "80", "--seed", "3", "--out", str(out)]
    for flag, value in extra.items():
        argv.append(flag)
        if value is not None:
            argv.append(str(value))
    return argv


def test_table_flag_form(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    out = tmp_path / "table.csv"
    assert cli_main(_table_argv(data_path, out)) == 0
    assert str(out) in capsys.readouterr().out
    table = read_table_csv(out)
    labels = [row.label for row in table.rows]
    assert labels[:3] == ["SOO", "Standard DID", "k=1 DID"]
    assert all(label == "Grid" for label in labels[3:])


def test_table_config_form_reruns_identically(tmp_path):
    _data_csv(tmp_path)
    (tmp_path / "out").mkdir()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data_path": "data.csv",
        "outcome": "Y", "treatment": "D", "placebo": "P",
        "role": "placebo_outcome",
        "edges": {"d_to_p": True},
        "k": [-2.0, 2.0],
        "grid": 3,
        "bootstrap": {"reps": 80, "seed": 11},
        "outputs": {"table": "out/table.csv"},
    }), encoding="utf-8")
    out = tmp_path / "out" / "table.csv"
    assert cli_main(["table", "--config", str(config)]) == 0
    first = out.read_bytes()
    assert cli_main(["table", "--config", str(config)]) == 0
    assert out.read_bytes() == first


def test_retired_workers_flag_exits_two(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    out = tmp_path / "t.csv"
    assert cli_main(_table_argv(data_path, out, **{"--workers": 2})) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_table_refuses_the_svg_flag(tmp_path, capsys):
    # table draws no SVG; the flag used to be taken and nothing written.
    data_path = _data_csv(tmp_path)
    out, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    assert cli_main(_table_argv(data_path, out, **{"--svg": svg})) == 2
    assert "--svg" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()
    # A config shared with contour and line may still name an SVG.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**_RUN, "bootstrap": {"reps": 20},
                                  "outputs": {"table": "t.csv",
                                              "svg": "t.svg"}}),
                      encoding="utf-8")
    assert cli_main(["table", "--config", str(config)]) == 0
    assert out.exists() and not svg.exists()


def test_single_cluster_exits_three(tmp_path, capsys):
    data = simulate_scm(random_recipe("b", seed=1, n=250))
    columns = {name: data[name] for name in data.names}
    data_path = write_dataset_csv(Dataset({**columns, "C": np.zeros(250)}),
                                  tmp_path / "data.csv")
    out = tmp_path / "t.csv"
    assert cli_main(_table_argv(data_path, out, **{"--cluster": "C"})) == 3
    assert "one cluster" in capsys.readouterr().err
    assert not out.exists()


def test_config_clashes_with_flags(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    config = tmp_path / "run.json"
    config.write_text("{}", encoding="utf-8")
    code = cli_main(["table", "--config", str(config),
                     "--data", str(data_path)])
    assert code == 2
    assert "--data" in capsys.readouterr().err


def test_flag_form_missing_pieces(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    code = cli_main(["table", "--data", str(data_path), "--outcome", "Y"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--treatment" in err and "--out" in err


def test_unknown_role_rejected_by_parser(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    code = cli_main(_table_argv(data_path, tmp_path / "t.csv")[:-4]
                    + ["--role", "nonsense"])
    assert code == 2
    capsys.readouterr()


def test_bad_data_cell_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("D,P,Y\n0,1,2\n1,NA,3\n", encoding="utf-8")
    code = cli_main(["table", "--data", str(bad), "--outcome", "Y",
                     "--treatment", "D", "--placebo", "P",
                     "--role", "placebo_outcome",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "row 3" in capsys.readouterr().err


def test_degenerate_placebo_exits_four(tmp_path, capsys):
    rows = ["D,P,Y"]
    rng = np.random.default_rng(0)
    for _ in range(40):
        d = rng.integers(0, 2)
        rows.append(f"{d},1.0,{d + rng.normal():.6f}")
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = cli_main(["table", "--data", str(path), "--outcome", "Y",
                     "--treatment", "D", "--placebo", "P",
                     "--role", "placebo_outcome", "--reps", "50",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert "degenerac" in capsys.readouterr().err


def test_contradictory_edges_exit_two_before_the_data_is_read(tmp_path,
                                                              capsys):
    path = tmp_path / "bad.csv"
    path.write_text("Y,D,P\nx,y,z\n", encoding="utf-8")
    code = cli_main(_table_argv(path, tmp_path / "t.csv",
                                **{"--edge-p-to-d": None}))
    assert code == 2
    assert ("edges (d_to_p, p_to_d); roles that accept them: none"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edge", ["p_to_d", "y_to_p"])
def test_implied_edge_help_names_the_roles_that_imply_it(edge):
    flag = "--edge-" + edge.replace("_", "-")
    text = next(kwargs["help"] for name, _, kwargs in _ANALYSIS_FLAGS
                if name == flag)
    implying = {role for role, rule in _ROLE_TABLE.items()
                if rule.implies == edge}
    assert implying
    assert {role for role in ROLES if role in text} == implying


@pytest.mark.parametrize("jitter", [False, True])
def test_covariate_constant_up_to_rounding_exits_four(tmp_path, jitter):
    # One ulp of jitter on half the rows is spread of rounding only.
    data = simulate_scm(random_recipe("b", seed=1, n=300))
    w = np.full(data.n_rows, 7.77e-3)
    if jitter:
        w[np.random.default_rng(2).random(w.size) < 0.5] += np.spacing(w[0])
    path = write_dataset_csv(
        Dataset({**{name: data[name] for name in data.names}, "W": w}),
        tmp_path / "data.csv")
    assert cli_main(_table_argv(path, tmp_path / "t.csv",
                                **{"--covariates": "W"})) == 4


def test_too_few_rows_exits_three(tmp_path, capsys):
    # Five rows for the five coefficients of Y ~ D + P + X1 + X2.
    rng = np.random.default_rng(2)
    rows = ["Y,D,P,X1,X2"]
    rows += [",".join(f"{v:.6f}" for v in rng.normal(size=5))
             for _ in range(5)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = cli_main(["table", "--data", str(path), "--outcome", "Y",
                     "--treatment", "D", "--placebo", "P",
                     "--role", "placebo_treatment", "--covariates", "X1,X2",
                     "--reps", "20", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "rows" in capsys.readouterr().err


def test_contour_config_writes_csv_json_svg(tmp_path, capsys):
    _data_csv(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data_path": "data.csv",
        "outcome": "Y", "treatment": "D", "placebo": "P",
        "role": "placebo_outcome",
        "edges": {"d_to_p": True},
        "direct": [-1.0, 1.0],
        "grid": 15,
        "outputs": {"contour": "surface.csv", "svg": "surface.svg"},
    }), encoding="utf-8")
    assert cli_main(["contour", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "surface.csv").is_file()
    assert (tmp_path / "surface.json").is_file()
    assert (tmp_path / "surface.svg").is_file()
    assert out.count("\n") == 3
    payload = json.loads((tmp_path / "surface.json").read_text("utf-8"))
    assert payload["zero_contour"]
    # A table run against the same config has no table output configured.
    assert cli_main(["table", "--config", str(config)]) == 2


@pytest.mark.parametrize("key, value, message", [
    ("bootstrap", {"reps": "abc"}, "bootstrap.reps"),
    ("ci_level", "x", "ci_level"),
    ("edges", [1], "edges"),
    ("outputs", {"table": 5}, "outputs.table"),
    ("bootstrap", {"seed": 1.5}, "bootstrap.seed"),
    ("bootstrap", {"reps": 2.7}, "bootstrap.reps"),
    ("bootstrap", {"reps": True}, "bootstrap.reps"),
    ("covariates", "X", "covariates"),
    ("k", ["1", 2], "k must be"),
    ("k", [True, 2], "k must be"),
    ("direct", [-1.0, False], "direct must be"),
])
def test_malformed_config_value_exits_two(tmp_path, capsys, key, value,
                                          message):
    # Each used to be truncated, iterated character by character, or to
    # escape as a ValueError/TypeError traceback.
    _data_csv(tmp_path)
    raw = {
        "data_path": "data.csv",
        "outcome": "Y", "treatment": "D", "placebo": "P",
        "role": "placebo_outcome",
        "edges": {"d_to_p": True},
        "bootstrap": {"reps": 20, "seed": 1},
        "outputs": {"table": "table.csv"},
        key: value,
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["table", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "table.csv").exists()


_FLAGS = ["--outcome", "Y", "--treatment", "D", "--placebo", "P",
          "--role", "placebo_outcome", "--edge-d-to-p", "--reps", "20"]
_RUN = {"data_path": "data.csv", "outcome": "Y", "treatment": "D",
        "placebo": "P", "role": "placebo_outcome", "edges": {"d_to_p": True},
        "outputs": {"table": "t.csv"}}


@pytest.mark.parametrize("files, argv, env_seed, code", [
    ({"in.csv": b"Y,D,P\n1,2,\xff\n"},
     ["table", "--data", "in.csv", *_FLAGS, "--out", "t.csv"], None, 3),
    ({"in.csv": b"Y,D,P\n1,2," + b"1" * 200_000 + b"\n"},
     ["table", "--data", "in.csv", *_FLAGS, "--out", "t.csv"], None, 3),
    # A finite oversized field in data that fit otherwise: a float parser
    # alone would read it as 0.
    ({"in.csv": b"Y,D,P\n" + b"".join(
        b"%d,%d,%d\n" % (i * i % 7, i % 2, i * 3 % 5) for i in range(30))
      + b"1,1," + b"0" * 200_000 + b"\n"},
     ["table", "--data", "in.csv", *_FLAGS, "--out", "t.csv"], None, 3),
    ({"run.json": b'{"data_path": "data.csv", \xff}'},
     ["table", "--config", "run.json"], None, 2),
    ({"did.csv": b"G,Y,N\n1,10,5\n1,14,7\n0,6,4\n0,8,6\n"},
     ["did", "--data", "did.csv", "--outcome", "Y", "--placebo", "N",
      "--group", "G", "--out", "missing/did.json"], None, 3),
    ({}, ["semiparam", "--theta-s-y", "1", "--theta-s-n", "0.5", "--k", "1",
          "--out", "missing/semi.json"], None, 3),
    ({}, ["table", "--data", "data.csv", *_FLAGS, "--seed", "-1",
          "--out", "t.csv"], None, 2),
    ({"run.json": json.dumps({**_RUN, "bootstrap": {"reps": 20,
                                                     "seed": -1}}).encode()},
     ["table", "--config", "run.json"], None, 2),
    ({}, ["table", "--data", "data.csv", *_FLAGS, "--out", "t.csv"], "-3", 2),
    ({}, ["simulate", "--case", "a", "--n", "10", "--seed", "-1",
          "--out", "sim.csv"], None, 2),
    ({}, ["simulate", "--case", "a", "--n", "10", "--out", "sim.csv"], "-3",
     2),
    ({}, ["verify", "--seed", "-5", "--draws", "1"], None, 2),
    ({}, ["verify", "--draws", "0"], None, 2),
    ({"in.csv": b"\n"},
     ["table", "--data", "in.csv", *_FLAGS, "--out", "t.csv"], None, 3),
    # An output path that is a directory (None: make it one).
    ({"outdir": None},
     ["contour", "--data", "data.csv", *_FLAGS, "--grid", "5",
      "--out", "outdir"], None, 3),
    ({"outdir": None},
     ["line", "--data", "data.csv", *_FLAGS, "--out", "outdir"], None, 3),
    ({"outdir": None},
     ["table", "--data", "data.csv", *_FLAGS, "--out", "outdir"], None, 3),
    ({"outdir": None},
     ["simulate", "--case", "a", "--n", "10", "--out", "outdir"], None, 3),
], ids=["csv-not-utf8", "csv-field-too-long", "csv-finite-field-too-long",
        "config-not-utf8", "did-out-missing-dir", "semiparam-out-missing-dir",
        "table-negative-seed", "config-negative-seed", "env-negative-seed",
        "simulate-negative-seed", "simulate-env-negative-seed",
        "verify-negative-seed", "verify-no-draws", "csv-blank-first-line",
        "contour-out-is-dir", "line-out-is-dir", "table-out-is-dir",
        "simulate-out-is-dir"])
def test_unreadable_file_or_bad_number_exits_with_its_code(
        tmp_path, monkeypatch, capsys, files, argv, env_seed, code):
    # Each used to escape cli_main as a traceback.
    monkeypatch.chdir(tmp_path)
    _data_csv(tmp_path)
    for name, content in files.items():
        if content is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(content)
    if env_seed is not None:
        monkeypatch.setenv("PLM_SEED", env_seed)
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert "plm: " in err
    if "outdir" in files:
        assert "cannot write " in err and "outdir" in err


def test_config_with_a_byte_order_mark_runs(tmp_path, capsys):
    # Windows editors save JSON with a leading byte-order mark.
    _data_csv(tmp_path)
    text = json.dumps({**_RUN, "bootstrap": {"reps": 20, "seed": 1}})
    plain = tmp_path / "plain.json"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.json"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert cli_main(["table", "--config", str(plain)]) == 0
    first = (tmp_path / "t.csv").read_bytes()
    (tmp_path / "t.csv").unlink()
    assert cli_main(["table", "--config", str(marked)]) == 0
    capsys.readouterr()
    assert (tmp_path / "t.csv").read_bytes() == first


def test_flag_and_config_forms_share_defaults(tmp_path, capsys):
    # Neither form sets k, direct, grid, seed or ci_level: both take
    # AnalysisConfig's defaults, the only copy, and write the same bytes.
    data_path = _data_csv(tmp_path)
    flags = tmp_path / "flags.csv"
    assert cli_main(["table", "--data", str(data_path), *_FLAGS,
                     "--out", str(flags)]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**_RUN, "bootstrap": {"reps": 20},
                                  "outputs": {"table": "config.csv"}}),
                      encoding="utf-8")
    assert cli_main(["table", "--config", str(config)]) == 0
    capsys.readouterr()
    assert flags.read_bytes() == (tmp_path / "config.csv").read_bytes()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3), st.floats())
# Values near the schema's: names, ranges, small counts, sub-objects.
_VALUE = st.one_of(
    _JSON, _NUMBER, st.sampled_from(["Y", "D", "P", "X", "data.csv", ""]),
    st.lists(_NUMBER, min_size=2, max_size=2),
    st.fixed_dictionaries({"reps": st.integers(-1, 6),
                           "seed": st.integers(-2, 5)}),
    st.dictionaries(st.sampled_from(["d_to_p", "p_to_y", "p_to_d", "y_to_p",
                                     "x"]), _JSON, max_size=2))
_RANGE = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(sorted)


@st.composite
def _configs(draw):
    """A valid run config, then a few keys replaced or dropped."""
    y, d, p = draw(st.permutations(["Y", "D", "P"]))
    config = {
        "data_path": "data.csv", "outcome": y, "treatment": d,
        "placebo": p, "role": draw(st.sampled_from(ROLES)),
        "edges": draw(st.dictionaries(st.sampled_from(["d_to_p", "p_to_y"]),
                                      st.booleans())),
        "covariates": draw(st.lists(st.sampled_from(["X", "G"]),
                                    max_size=1)),
        "k": draw(_RANGE), "direct": draw(_RANGE),
        "grid": draw(st.integers(1, 4)),
        "bootstrap": {"reps": draw(st.integers(2, 6)),
                      "seed": draw(st.integers(0, 5))},
        "ci_level": draw(st.floats(0.5, 0.99)),
    }
    if draw(st.integers(0, 2)) == 2:
        config[draw(st.sampled_from([*config, "extra"]))] = draw(_VALUE)
    if draw(st.integers(0, 5)) == 5:
        del config[draw(st.sampled_from(sorted(config)))]
    return config


_CELL = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(0, 1).map(str))
_BAD_CELL = st.sampled_from(["", "nan", "inf", "x", "1e309", '"1"'])


@st.composite
def _csv_bytes(draw):
    """Numeric CSV text with the config's columns, sometimes a bad cell,
    a ragged row, a repeated name or a byte-order mark; or any bytes."""
    if draw(st.integers(0, 7)) == 7:
        return draw(st.binary(max_size=64))
    header = draw(st.permutations(["Y", "D", "P", *draw(st.lists(
        st.sampled_from(["X", "G"]), unique=True))]))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(header),
                                  max_size=len(header)),
                         min_size=1, max_size=25))
    if rows and draw(st.integers(0, 3)) == 3:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELL)
    if rows and draw(st.integers(0, 5)) == 5:
        rows[-1] = rows[-1][:-1]
    if draw(st.integers(0, 9)) == 9:
        header = [*header, header[0]]
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n"
                                             for row in rows)
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["table", "contour", "line"]),
       config=_configs(), csv_bytes=_csv_bytes())
def test_any_config_and_csv_exit_with_a_documented_code(command, config,
                                                        csv_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data.csv").write_bytes(csv_bytes)
        config = {**config, "outputs": {command: "out.csv"}}
        (root / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert cli_main([command, "--config", str(root / "run.json")]) in (
            0, 2, 3, 4)


def test_line_multiple_fixed_positions(tmp_path, capsys):
    data_path = _data_csv(tmp_path)
    out = tmp_path / "line.csv"
    code = cli_main(["line", "--data", str(data_path), "--outcome", "Y",
                     "--treatment", "D", "--placebo", "P",
                     "--role", "placebo_outcome", "--edge-d-to-p",
                     "--direct", "-1", "1", "--grid", "9",
                     "--reps", "60", "--vary", "k", "--at", "0.25", "0.75",
                     "--out", str(out), "--svg", str(tmp_path / "line.svg")])
    assert code == 0
    assert (tmp_path / "line_1.csv").is_file()
    assert (tmp_path / "line_2.csv").is_file()
    svg = (tmp_path / "line.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 2
    capsys.readouterr()


def test_line_passes_only_the_flags_given(tmp_path, monkeypatch, capsys):
    # run_line's signature is the only copy of the line defaults.
    run_line, calls = plm.cli.run_line, []

    def recording_run_line(data, cfg, **kwargs):
        calls.append(kwargs)
        return run_line(data, cfg, **kwargs)

    monkeypatch.setattr(plm.cli, "run_line", recording_run_line)
    argv = ["line", "--data", str(_data_csv(tmp_path)), "--outcome", "Y",
            "--treatment", "D", "--placebo", "P", "--role",
            "placebo_outcome", "--edge-d-to-p", "--grid", "5", "--reps",
            "20", "--out", str(tmp_path / "line.csv")]
    assert cli_main(argv) == 0
    assert cli_main(argv + ["--vary", "direct", "--at", "0.25"]) == 0
    assert calls == [{}, {"varying": "direct", "fixed_percentiles": [0.25]}]
    capsys.readouterr()


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    data_path = _data_csv(tmp_path)
    out = tmp_path / "t.csv"
    assert cli_main(_table_argv(data_path, out)) == 0
    seed3 = out.read_bytes()
    monkeypatch.setenv("PLM_SEED", "99")
    assert cli_main(_table_argv(data_path, out)) == 0
    env99 = out.read_bytes()
    assert env99 != seed3
    monkeypatch.delenv("PLM_SEED")
    argv = _table_argv(data_path, out)
    argv[argv.index("--seed") + 1] = "99"
    assert cli_main(argv) == 0
    assert out.read_bytes() == env99
    monkeypatch.setenv("PLM_SEED", "not-a-seed")
    assert cli_main(_table_argv(data_path, out)) == 2
    assert "PLM_SEED" in capsys.readouterr().err


def test_did_json_hand_example(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_text(
        "G,Y,N\n1,10,5\n1,14,7\n0,6,4\n0,8,6\n", encoding="utf-8"
    )
    argv = ["did", "--data", str(path), "--outcome", "Y",
            "--placebo", "N", "--group", "G"]
    assert cli_main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_Y"] == 5.0
    assert payload["dim_N"] == 1.0
    assert set(payload["att_at_m"]) == {"0", "0.5", "1", "1.5"}
    assert payload["att_at_m"]["0"] == 5.0
    assert payload["att_at_m"]["1"] == 4.0
    assert payload["att_at_m"]["1.5"] == 3.5
    assert payload["trends"] == {
        "trend_treated": 6.0, "trend_control": 2.0,
        "bias_Y_minus_bias_N": 4.0,
    }
    assert payload["w_for_m_1"] == 1.0

    out = tmp_path / "did.json"
    assert cli_main(argv + ["--att-n", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    with_effect = json.loads(out.read_text(encoding="utf-8"))
    assert with_effect["att_at_m"]["1"] == 5.0
    assert with_effect["w_for_m_1"] == 0.5


def test_semiparam_json(tmp_path, capsys):
    argv = ["semiparam", "--theta-s-y", "2", "--theta-s-n", "1",
            "--theta-l-n", "0", "--k", "4", "--s2-y", "9", "--s2-n", "4"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"estimate": -1.0}
    assert cli_main(argv + ["--sign-m", "-1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"estimate": 5.0}
    assert cli_main(["semiparam", "--theta-s-y", "2", "--theta-s-n", "1",
                     "--k", "-1"]) == 2
    capsys.readouterr()


def test_simulate_reproduces_recipe(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = cli_main(["simulate", "--case", "a", "--n", "50", "--seed", "4",
                     "--coef", "z->y=0.7", "--noise-sd", "y=0.5",
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    loaded = load_csv(out)
    expected = simulate_scm(SCMRecipe(
        n=50, graph_case="a", coefficients={"z->y": 0.7},
        noise_sd={"y": 0.5}, seed=4,
    ))
    assert loaded.names == expected.names
    assert np.array_equal(loaded.matrix(loaded.names),
                          expected.matrix(expected.names))


def test_simulate_rejects_bad_recipe(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert cli_main(["simulate", "--case", "a", "--n", "20",
                     "--coef", "q->r=1", "--out", str(out)]) == 2
    assert cli_main(["simulate", "--case", "a", "--n", "20",
                     "--coef", "z->y", "--out", str(out)]) == 2
    capsys.readouterr()


def test_verify_reports_and_passes(capsys):
    assert cli_main(["verify", "--seed", "7", "--draws", "2"]) == 0
    out = capsys.readouterr().out
    assert "single-placebo recovery" in out
    assert "double-placebo recovery" in out
    assert "bias factorization" in out
    assert "all checks passed" in out


def test_help_and_missing_subcommand(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main([]) == 2
    capsys.readouterr()


def test_back_to_back_runs_match_fresh_processes(tmp_path, monkeypatch,
                                                 capsys):
    # cli_main keeps one parser per process: a good run and a usage error,
    # each run twice in this process, give what a fresh process gives.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this
    data_path = _data_csv(tmp_path)
    out = tmp_path / "table.csv"
    runs = [_table_argv(data_path, out), ["table", "--reps", "many"]]
    fresh = []
    for argv in runs:
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "plm.cli", *argv],
            capture_output=True, text=True, timeout=300, env=_child_env(),
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      out.read_bytes() if out.exists() else None))
    assert [run[0] for run in fresh] == [0, 2]
    for argv, want in zip(runs * 2, fresh * 2):
        out.unlink(missing_ok=True)
        code = cli_main(argv)
        stdout, stderr = capsys.readouterr()
        assert (code, stdout, stderr,
                out.read_bytes() if out.exists() else None) == want


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child_env():
    """The caller's environment with this process's plm first on PYTHONPATH.

    A child process then imports the same source tree the tests import,
    whatever PYTHONPATH the caller happened to set.
    """
    env = dict(os.environ)
    entries = [str(Path(plm.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def _declared_script(name):
    """The ``module:attr`` target of a ``[project.scripts]`` entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"no {name!r} in [project.scripts]"
    return scripts[name]


def _check_plm_command(command):
    """Run ``verify`` to success and hold the config-error exit code."""
    env = _child_env()
    proc = subprocess.run(
        [command, "verify", "--draws", "1"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    proc = subprocess.run(
        [command, "table"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr


# Run in a child process, whose BLAS thread count is set before numpy
# loads: each plm command in argv[1] (JSON, name to argv) once, between
# readings, each after a settle of argv[2] seconds, of how often each
# thread but the main one has gone to sleep (voluntary context switches;
# None without /proc).
_THREAD_PROBE = """
import json, os, sys, threading, time
from plm.cli import cli_main

def sleeps():
    if not os.path.isdir("/proc/self/task"):
        return None
    out = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != threading.get_native_id():
            with open(f"/proc/self/task/{tid}/status") as fh:
                out[tid] = int(fh.read().split("voluntary_ctxt_switches:")
                               [1].split()[0])
    return out

growth = {}
settle = float(sys.argv[2])
for name, argv in json.loads(sys.argv[1]).items():
    time.sleep(settle)
    before = sleeps()
    assert cli_main(argv) == 0, name
    time.sleep(settle)
    after = sleeps()
    if before is not None:
        growth[name] = max([after[t] - v for t, v in before.items()
                            if t in after], default=0)
print(json.dumps({"threads": None if before is None else len(before),
                  "growth": growth}))
"""


@pytest.fixture(scope="module")
def blas_thread_runs(tmp_path_factory):
    """(output files by name, probe report) of ``plm table`` with row and
    cluster bootstrap, ``plm line`` and ``plm contour`` on n = 20 000
    earnings-scale rows, at OPENBLAS_NUM_THREADS 1 and 2. A size at which
    two threads would split the sums of a whole-frame QR or Gram product:
    at a few thousand rows OpenBLAS splits them without reordering."""
    root = tmp_path_factory.mktemp("blas_threads")
    rng = np.random.default_rng(12)
    n = 20_000
    z = rng.standard_normal(n)
    x = 25.0 + 7.0 * rng.standard_normal((4, n))
    d = (0.8 * z + rng.standard_normal(n) > 0.3).astype(float)
    p = 1e4 + 400.0 * d + 50.0 * x[0] + 3000.0 * rng.standard_normal(n)
    y = (1e4 + 1000.0 * d + 2500.0 * z + 60.0 * x[1] + 0.3 * p
         + 4000.0 * rng.standard_normal(n))
    data_path = write_dataset_csv(
        Dataset({"Y": y, "D": d, "P": p, "X1": x[0], "X2": x[1], "X3": x[2],
                 "X4": x[3], "C": rng.integers(0, 60, n)}), root / "data.csv")
    runs = {}
    for threads in (1, 2):
        out = root / str(threads)
        out.mkdir()
        base = ["--data", str(data_path), "--outcome", "Y", "--treatment",
                "D", "--placebo", "P", "--role", "placebo_outcome",
                "--edge-d-to-p", "--covariates", "X1,X2,X3,X4",
                "--direct", "-100", "100", "--seed", "5"]
        commands = {
            "table": ["table", *base, "--reps", "400",
                      "--out", str(out / "table.csv")],
            "table --cluster": ["table", *base, "--reps", "400", "--cluster",
                                "C", "--out", str(out / "cluster.csv")],
            "line": ["line", *base, "--reps", "200", "--grid", "21",
                     "--out", str(out / "line.csv")],
            "contour": ["contour", *base, "--grid", "41",
                        "--out", str(out / "contour.csv")],
        }
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, json.dumps(commands),
             "0.5" if threads > 1 else "0"],
            capture_output=True, text=True, timeout=300,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": str(threads)})
        assert proc.returncode == 0, proc.stderr
        runs[threads] = ({path.name: path.read_bytes()
                          for path in sorted(out.iterdir())},
                         json.loads(proc.stdout.splitlines()[-1]))
    return runs


def test_output_bytes_do_not_depend_on_the_blas_thread_count(
        blas_thread_runs):
    # Every product plm hands OpenBLAS is one it runs on the calling
    # thread, so no sum is split differently with more threads.
    files = blas_thread_runs[1][0]
    assert sorted(files) == ["cluster.csv", "contour.csv", "contour.json",
                             "line.csv", "table.csv"]
    assert blas_thread_runs[2][0] == files


def test_runs_never_wake_a_blas_worker(blas_thread_runs):
    report = blas_thread_runs[2][1]
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to read thread switches from")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs: OpenBLAS starts no worker thread")
    assert report["threads"] >= 1  # OpenBLAS's worker
    assert report["growth"] == dict.fromkeys(
        ["table", "table --cluster", "line", "contour"], 0)


def test_installed_entry_point(tmp_path):
    # The console script an install creates, written here the way
    # installers write it, so the declared entry is checked without one.
    module, _, attr = _declared_script("plm").partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    script = tmp_path / "bin" / "plm"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    _check_plm_command(str(script))


@pytest.mark.skipif(shutil.which("plm") is None,
                    reason="plm console script not installed")
def test_plm_on_path():
    _check_plm_command(shutil.which("plm"))


def test_import_loads_no_scipy():
    # NumPy is the only numeric dependency: a second BLAS would bring its
    # own thread pool.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, plm, plm.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "plm.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "table" in proc.stdout
