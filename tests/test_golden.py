"""Checked-in values of small fixed-seed table runs.

``golden_tables.json`` holds every row (label, k, direct, estimate, SE, CI
low, CI high), the scale factor where the role has one, and the dropped
replicate count of ``run_table`` on four specs, each with the row and the
cluster bootstrap. A run must give the same values to 1e-10 relative, so
a change of numpy, BLAS or the engine that moves a result by more than
rounding fails here. The values were taken with numpy 2.4.6 (see README
"Numerical guarantees").

    PYTHONPATH=src python tests/test_golden.py

rewrites the file from the current code; do so only for a change meant to
move the values, and say why beside it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from plm.adjust import PlaceboSpec
from plm.double import DoublePlaceboSpec
from plm.engine import AnalysisConfig, run_table
from plm.regression import Dataset
from plm.selfcheck import random_recipe
from plm.simulate import simulate_scm

GOLDEN = Path(__file__).with_name("golden_tables.json")
REL = 1e-10

# Name, graph and spec of each run; X1 is the confounder Z1, observed.
_SPECS = {
    "placebo_outcome": ("b", PlaceboSpec("Y", "D", "P", "placebo_outcome",
                                         edge_d_to_p=True,
                                         covariate_cols=("X1",))),
    "placebo_treatment": ("a", PlaceboSpec("Y", "D", "P",
                                           "placebo_treatment",
                                           covariate_cols=("X1",))),
    "post_outcome": ("g", PlaceboSpec("Y", "D", "P", "post_outcome",
                                      covariate_cols=("X1",))),
    "double_placebo": ("double_a", DoublePlaceboSpec("Y", "D", "P", "N",
                                                     ("X1",))),
}
_RUNS = [(name, cluster_col) for name in _SPECS for cluster_col in
         (None, "C")]


def _table(name, cluster_col):
    """The run's values: a draw of n = 200 with Z2 hidden and Z1 observed,
    20 clusters in C, 60 replicates and two grid points per axis."""
    graph, spec = _SPECS[name]
    data = simulate_scm(random_recipe(graph, seed=21, n=200, z_dim=2))
    cols = {name: data[name] for name in data.names if name[0] != "Z"}
    cols["X1"] = data["Z1"]
    cols["C"] = np.random.default_rng(22).integers(0, 20, 200)
    table = run_table(Dataset(cols), AnalysisConfig(
        spec=spec, k_range=(-1.0, 2.0), direct_range=(0.0, 0.5),
        grid_points_per_axis=2, bootstrap_reps=60, seed=7,
        cluster_col=cluster_col))
    meta = table.metadata
    return {"rows": [list(row) for row in table.rows],
            "scale_factor": meta.get("scale_factor"),
            "bootstrap_failures": meta["bootstrap_failures"]}


def _key(name, cluster_col):
    return f"{name}/{cluster_col or 'rows'}"


@pytest.mark.parametrize("name, cluster_col", _RUNS,
                         ids=[_key(*run) for run in _RUNS])
def test_table_matches_its_golden_values(name, cluster_col):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[
        _key(name, cluster_col)]
    got = _table(name, cluster_col)
    assert got["bootstrap_failures"] == want["bootstrap_failures"]
    assert len(got["rows"]) == len(want["rows"])
    values = [(got["scale_factor"], want["scale_factor"])]
    for got_row, want_row in zip(got["rows"], want["rows"]):
        assert got_row[0] == want_row[0]
        values += zip(got_row[1:], want_row[1:])
    for value, golden in values:
        assert (value is None) == (golden is None)
        if golden is not None:
            assert abs(value - golden) <= REL * abs(golden), (value, golden)


if __name__ == "__main__":
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(
        f"{json.dumps(_key(*run))}: {json.dumps(_table(*run))}"
        for run in _RUNS), encoding="utf-8")
