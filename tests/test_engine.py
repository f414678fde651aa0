"""Tests for the grid/contour/line runners and the bootstrap."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plm.adjust import (
    _ROLE_TABLE,
    ROLES,
    CaseFormula,
    PlaceboSpec,
    dispatch_case,
    ovb_estimate,
    standard_did_k,
)
from plm.double import DoubleFormula, DoublePlaceboSpec
from plm.engine import (
    AnalysisConfig,
    _bind,
    _bootstrap_quantities,
    _cluster_ids,
    _replicate_counts,
    _replicate_rows,
    _surface,
    _zero_contour,
    bootstrap,
    run_contour,
    run_line,
    run_table,
)
from plm.errors import (
    BootstrapDegenerate,
    ConfigError,
    DataError,
    DenominatorNearZero,
    MediatorCautionWarning,
    NonpositiveScale,
    NumericError,
    ScaleConfusionWarning,
    TooFewRows,
)
from plm import engine, regression
from plm.regression import Dataset, ScaledColumns
from plm.selfcheck import random_recipe
from plm.simulate import SCMRecipe, population_regression, \
    recipe_covariance, simulate_scm


def _data(seed=1, n=300, graph_case="b"):
    return simulate_scm(random_recipe(graph_case, seed=seed, n=n))


def _spec(**kwargs):
    base = dict(outcome_col="Y", treatment_col="D", placebo_col="P",
                role="placebo_outcome", edge_d_to_p=True)
    base.update(kwargs)
    return PlaceboSpec(**base)


def _cfg(**kwargs):
    base = dict(spec=_spec(), bootstrap_reps=200, seed=5)
    base.update(kwargs)
    return AnalysisConfig(**base)


def test_standard_did_k():
    assert standard_did_k(0.5) == 2.0
    with pytest.raises(NonpositiveScale):
        standard_did_k(0.0)


def test_table_anchor_rows_match_case_formula():
    data = _data()
    cfg = _cfg()
    table = run_table(data, cfg)
    case = dispatch_case(cfg.spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    by_label = {row.label: row for row in table.rows if row.label != "Grid"}
    assert by_label["SOO"].estimate == pytest.approx(coefs.target, abs=1e-12)
    assert by_label["SOO"].k == 0.0
    # k = 1/SF cancels the scale factor, leaving target minus placebo.
    assert by_label["Standard DID"].k == pytest.approx(1.0 / sf, rel=1e-12)
    assert by_label["Standard DID"].estimate == pytest.approx(
        coefs.target - coefs.placebo, rel=1e-10
    )
    assert by_label["k=1 DID"].estimate == pytest.approx(
        case.adjust(coefs, 1.0, 0.0, sf), abs=1e-12
    )
    assert table.metadata["scale_factor"] == pytest.approx(sf, rel=1e-12)
    assert table.metadata["standard_did_k"] == pytest.approx(1 / sf,
                                                             rel=1e-12)


def test_table_grid_rows_sit_at_range_quartiles():
    data = _data()
    table = run_table(data, _cfg(k_range=(-2.0, 2.0),
                                 direct_range=(-1.0, 1.0)))
    grid = [(row.k, row.direct) for row in table.rows if row.label == "Grid"]
    assert grid == [
        (k, d) for k in (-1.0, 0.0, 1.0) for d in (-0.5, 0.0, 0.5)
    ]
    wider = run_table(data, _cfg(k_range=(0.0, 1.0),
                                 grid_points_per_axis=4))
    ks = sorted({row.k for row in wider.rows if row.label == "Grid"})
    assert ks == pytest.approx([0.2, 0.4, 0.6, 0.8], abs=1e-12)


# A child process that caps its own address space at 4 GiB, whatever the
# machine's overcommit policy, and refuses to fit, then asks for a table
# whose 300000 x 300000 grid takes 671 GiB a coordinate.
_IMPOSSIBLE_GRID = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
import numpy as np
from plm import engine
from plm.adjust import PlaceboSpec
from plm.regression import Dataset

def refuse(*args):
    raise AssertionError("the table was fitted")

engine._bind = refuse
spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                   role="placebo_outcome", edge_d_to_p=True)
data = Dataset({name: np.arange(10.0) ** i
                for i, name in enumerate("YDP", 1)})
try:
    engine.run_table(data, engine.AnalysisConfig(
        spec=spec, grid_points_per_axis=300000, direct_range=(-1.0, 1.0)))
except MemoryError:
    print("MemoryError")
"""


def test_an_impossible_table_grid_is_refused_before_any_fit():
    pytest.importorskip("resource")
    source = str(Path(engine.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPOSSIBLE_GRID],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.stdout.strip() == "MemoryError", proc.stderr


def test_degenerate_direct_range_collapses_grid():
    data = _data()
    table = run_table(data, _cfg(direct_range=(0.0, 0.0)))
    grid = [row for row in table.rows if row.label == "Grid"]
    assert len(grid) == 3
    assert all(row.direct == 0.0 for row in grid)


def test_table_estimates_affine_check_on_grid():
    data = _data()
    cfg = _cfg(direct_range=(-1.0, 1.0))
    table = run_table(data, cfg)
    case = dispatch_case(cfg.spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    for row in table.rows:
        expected = case.adjust(coefs, row.k, row.direct, sf)
        assert row.estimate == pytest.approx(expected, rel=1e-10)
        assert row.se > 0
        assert row.ci_low < row.ci_high


def test_identical_runs_are_identical():
    data = _data()
    cfg = _cfg()
    first = run_table(data, cfg)
    second = run_table(data, cfg)
    assert first.rows == second.rows
    line_first = run_line(data, cfg)
    line_second = run_line(data, cfg)
    for a, b in zip(line_first.curves, line_second.curves):
        np.testing.assert_array_equal(a, b)


def test_freeze_sf_changes_only_sf_dependent_rows():
    data = _data()
    free = run_table(data, _cfg())
    frozen = run_table(data, _cfg(freeze_sf=True))
    by_label = dict(zip((r.label for r in free.rows), free.rows))
    frozen_by = dict(zip((r.label for r in frozen.rows), frozen.rows))
    # k = 0 wipes the placebo term, so freezing SF cannot matter there.
    assert by_label["SOO"].se == frozen_by["SOO"].se
    assert by_label["k=1 DID"].se != frozen_by["k=1 DID"].se
    assert by_label["k=1 DID"].estimate == frozen_by["k=1 DID"].estimate


def test_bootstrap_se_tracks_theory_for_mean():
    rng = np.random.default_rng(3)
    y = rng.normal(size=500)
    data = Dataset({"Y": y})
    cfg = AnalysisConfig(bootstrap_reps=600, seed=9)
    out = bootstrap(data, cfg, lambda d: float(d["Y"].mean()))
    theory = y.std(ddof=1) / np.sqrt(y.size)
    assert out["se"] == pytest.approx(theory, rel=0.25)
    assert out["ci"][0] < y.mean() < out["ci"][1]


def test_cluster_bootstrap_widens_se_for_clustered_noise():
    rng = np.random.default_rng(8)
    n_clusters = 40
    per = 25
    cluster_effect = rng.normal(size=n_clusters) * 2.0
    cluster = np.repeat(np.arange(n_clusters), per).astype(float)
    y = cluster_effect[cluster.astype(int)] + rng.normal(size=n_clusters * per)
    data = Dataset({"Y": y, "C": cluster})
    stat = lambda d: float(d["Y"].mean())
    iid = bootstrap(data, AnalysisConfig(bootstrap_reps=400, seed=1), stat)
    clustered = bootstrap(
        data,
        AnalysisConfig(bootstrap_reps=400, seed=1, cluster_col="C"),
        stat,
    )
    assert clustered["se"] > 2.0 * iid["se"]


def test_single_cluster_is_a_data_error():
    # One cluster makes every resample the full sample: SE 0, not an error
    # estimate, so both bootstrap paths refuse it.
    data = _noise_data(300, ("Y", "D", "P"), C=np.ones(300))
    with pytest.raises(DataError, match="one cluster"):
        run_table(data, _cfg(cluster_col="C"))
    with pytest.raises(DataError, match="one cluster"):
        bootstrap(data, AnalysisConfig(cluster_col="C"),
                  lambda d: float(d["Y"].mean()))


def _failing_mean(failing):
    """The mean of Y, raising a NumericError on the replicates ``failing``:
    ``bootstrap`` calls it once a replicate, in replicate order."""
    reps = itertools.count()

    def statistic(d):
        if next(reps) in failing:
            raise NonpositiveScale("refused")
        return float(d["Y"].mean())
    return statistic


def test_bootstrap_drops_a_replicate_whose_statistic_raises():
    # Replicate 7 alone raises: it is dropped, and the SE and interval are
    # those of the other 199 replicates' means.
    data = Dataset({"Y": np.random.default_rng(4).normal(size=50)})
    out = bootstrap(data, AnalysisConfig(bootstrap_reps=200, seed=2),
                    _failing_mean({7}))
    kept = np.delete([data["Y"][_replicate_rows(counts)].mean()
                      for counts in _counts(data, None, 2, range(200))], 7)
    assert out["se"] == pytest.approx(np.std(kept, ddof=1), rel=1e-12)
    assert out["ci"] == pytest.approx(np.percentile(kept, [2.5, 97.5]),
                                      rel=1e-12)


def test_bootstrap_raises_past_one_percent_dropped():
    # Two of 200 replicates raising is 1 percent, kept; three is more.
    data = Dataset({"Y": np.random.default_rng(4).normal(size=50)})
    cfg = AnalysisConfig(bootstrap_reps=200, seed=2)
    bootstrap(data, cfg, _failing_mean({0, 1}))
    with pytest.raises(BootstrapDegenerate, match="3 of 200"):
        bootstrap(data, cfg, _failing_mean({0, 1, 2}))


def test_bootstrap_degenerate_raises():
    # A single informative treatment row: most resamples lose it and the
    # short regressions are rank deficient far more often than 1%.
    data = Dataset(
        {
            "Y": [1.0, 2.0, 3.0, 2.5, 1.5, 2.2],
            "D": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "P": [0.5, 1.0, 0.2, 0.8, 0.3, 0.9],
        }
    )
    with pytest.raises(BootstrapDegenerate):
        run_table(data, _cfg(bootstrap_reps=100))


def test_contour_zero_curve_lies_on_surface():
    data = _data()
    cfg = _cfg(direct_range=(-1.0, 1.0), grid_points_per_axis=41)
    grid = run_contour(data, cfg)
    assert grid.estimates.shape == (41, 41)
    case = dispatch_case(cfg.spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    assert grid.zero_contour, "expected a zero crossing in this range"
    count = 0
    for polyline in grid.zero_contour:
        for k, dv in polyline:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                value = case.adjust(coefs, k, dv, sf)
            assert abs(value) <= 1e-8 * max(1.0, abs(coefs.target))
            count += 1
    assert count >= cfg.grid_points_per_axis // 2


def test_contour_constant_surface_has_no_zero_curve():
    data = _data()
    cfg = _cfg(k_range=(0.0, 0.0), direct_range=(0.0, 0.0),
               grid_points_per_axis=11)
    grid = run_contour(data, cfg)
    assert np.all(grid.estimates == grid.estimates[0, 0])
    assert grid.zero_contour == ()


def test_contour_degenerate_direct_axis_single_polyline():
    data = _data()
    cfg = _cfg(k_range=(-2.0, 2.0), direct_range=(0.0, 0.0),
               grid_points_per_axis=21)
    grid = run_contour(data, cfg)
    assert len(grid.zero_contour) == 1
    polyline = grid.zero_contour[0]
    # One straight crossing at constant k.
    assert np.ptp(polyline[:, 0]) <= 1e-12
    assert polyline.shape[0] == 21


@pytest.mark.parametrize("g", [2, 4])
def test_contour_saddle_keeps_the_branches_apart(monkeypatch, g):
    # (target, placebo, SF) = (-1e-3, 0, 1): estimate = -1e-3 + k * direct,
    # two hyperbola branches hugging the axes with a saddle cell at the
    # origin. No polyline may cross from one branch to the other through
    # the positive region between them.
    a, b, c = -1e-3, 0.0, 1.0
    monkeypatch.setattr(CaseFormula, "quantities",
                        lambda self, cols, idx=None: np.array([a, 0.0, 1.0]))
    grid = run_contour(_data(), _cfg(k_range=(-1.0, 1.0),
                                     direct_range=(-1.0, 1.0),
                                     grid_points_per_axis=g))
    assert len(grid.zero_contour) == 2
    for polyline in grid.zero_contour:
        k, d = polyline.T
        assert np.ptp(np.sign(k)) == 0
        assert np.all(np.abs(a + k * (b + c * d)) <= 1e-12 * max(1.0, abs(a)))


@pytest.mark.parametrize("double", [False, True])
def test_surface_reproduces_the_estimate(double):
    if double:
        data = simulate_scm(SCMRecipe(n=300, graph_case="double_a", seed=2))
        spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                                 placebo_treatment_col="P",
                                 placebo_outcome_col="N", beta_yp_long=0.3,
                                 beta_np_long=-0.2)
    else:
        data, spec = _data(), _spec()
    formula, cols = _bind(data, AnalysisConfig(spec=spec))
    q = np.asarray(formula.quantities(cols, slice(None)))
    a, b, c = _surface(*formula.triple(q))
    k, d = np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 1.0, 9))
    assert np.allclose(a + k * (b + c * d),
                       ovb_estimate(*formula.triple(q), k, d),
                       rtol=1e-12, atol=1e-12 * max(1.0, abs(a)))


def _edge_crossings(k_values, direct_values, a, b, c):
    """Where ``z > 0`` changes along a grid edge, linearly interpolated."""
    k, d = np.meshgrid(k_values, direct_values, indexing="ij")
    z = a + k * (b + c * d)
    points = []
    for axis in (0, 1):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        crossed = (z[head] > 0) != (z[tail] > 0)
        z0, z1 = z[head][crossed], z[tail][crossed]
        t = z0 / (z0 - z1)
        points.append(np.column_stack(
            [p[head][crossed] + t * (p[tail][crossed] - p[head][crossed])
             for p in (k, d)]))
    return np.concatenate(points)


def _check_zero_contour(k_values, direct_values, a, b, c, max_polylines=2):
    """The closed-form polylines against the edge crossings: each polyline
    on one branch and running along direct, and the two point sets equal
    within 1e-12 of each axis's span."""
    polylines = _zero_contour(k_values, direct_values, a, b, c)
    assert len(polylines) <= max_polylines
    for polyline in polylines:
        assert len(polyline) > 0
        assert np.all(np.diff(polyline[:, 1]) >= 0)
        assert np.ptp(np.sign(polyline[:, 0])) == 0
    traced = np.concatenate(polylines) if polylines else np.empty((0, 2))
    reference = _edge_crossings(k_values, direct_values, a, b, c)
    tol = 1e-12 * np.array([np.ptp(k_values), np.ptp(direct_values)])
    near = np.all(np.abs(traced[:, None] - reference[None]) <= tol, axis=2)
    assert near.any(axis=1).all(), "a traced point is no edge crossing"
    assert near.any(axis=0).all(), "an edge crossing was not traced"
    return polylines


def test_zero_contour_matches_edge_crossings_on_random_surfaces():
    rng = np.random.default_rng(7)
    for _ in range(500):
        k_lo, d_lo = rng.uniform(-3.0, 1.0, 2)
        k_hi, d_hi = (k_lo, d_lo) + rng.uniform(0.5, 4.0, 2)
        gk, gd = rng.integers(2, 41, 2)
        c = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2.0, 1.0)
        # The asymptote direct = -b / c often crosses the rectangle, so
        # saddle cells near (0, -b / c) are common.
        b = -c * rng.uniform(d_lo - 1.0, d_hi + 1.0)
        a = rng.choice([-1.0, 1.0]) * abs(c) * 10 ** rng.uniform(-4.0, 0.5)
        _check_zero_contour(np.linspace(k_lo, k_hi, gk),
                            np.linspace(d_lo, d_hi, gd), a, b, c)


_K = np.linspace(-2.0, 2.0, 21)
_D = np.linspace(-1.0, 1.0, 21)
_K201 = np.linspace(-2.0, 2.0, 201)  # the default k grid; k = 0 is on it
_QUARTERS = np.linspace(-2.0, 2.0, 9)


@pytest.mark.parametrize("k_values, direct_values, a, b, c, max_polylines", [
    pytest.param(_K, _D, 0.5, -1.0, 0.0, 1, id="c=0"),
    pytest.param(_K, _D, 0.2, -1.5 * _D[5], 1.5, 2, id="asymptote-on-grid"),
    pytest.param(_K201, _D, 0.3, 0.1, 1.2, 2, id="k=0-on-grid"),
    pytest.param(_K201, _D, 0.0, 0.3, 1.2, 3, id="a=0-k=0-on-grid"),
    pytest.param(np.linspace(-2.0, 2.0, 20), _D, 0.0, 0.3, 1.2, 3,
                 id="a=0"),
    pytest.param(_QUARTERS, _QUARTERS, -1.0, 0.0, 1.0, 2, id="zero-nodes"),
    pytest.param(_K, np.zeros(21), 0.3, -1.0, 2.0, 1, id="flat-direct"),
    pytest.param(np.zeros(11), np.zeros(11), 0.4, -1.0, 2.0, 0,
                 id="flat-both"),
])
def test_zero_contour_special_cases(k_values, direct_values, a, b, c,
                                    max_polylines):
    polylines = _check_zero_contour(k_values, direct_values, a, b, c,
                                    max_polylines)
    assert len(polylines) == max_polylines


def test_zero_contour_repeats_a_point_where_grid_lines_meet_on_it():
    # k * direct = 1 passes through the nodes (1, 1) and (2, 0.5) of this
    # grid; each comes once from its k line and once from its direct line.
    (_, positive) = _zero_contour(_QUARTERS, _QUARTERS, -1.0, 0.0, 1.0)
    assert np.all(np.abs(positive[:, 0] * positive[:, 1] - 1.0) <= 1e-15)
    for node in ([1.0, 1.0], [2.0, 0.5]):
        assert np.all(positive == node, axis=1).sum() == 2


def test_line_slice_shapes_and_k_zero_anchor():
    data = _data()
    cfg = _cfg(direct_range=(-1.0, 1.0), grid_points_per_axis=17)
    line = run_line(data, cfg, varying="k", fixed_percentiles=(0.0, 0.5))
    assert line.varying == "k"
    assert line.fixed_values == (-1.0, 0.0)
    assert len(line.curves) == 2
    case = dispatch_case(cfg.spec)
    coefs = case.fit_coefficients(data)
    for curve in line.curves:
        assert curve.shape == (17, 4)
        np.testing.assert_allclose(curve[:, 0],
                                   np.linspace(-2.0, 2.0, 17), atol=1e-12)
        assert np.all(curve[:, 2] <= curve[:, 3])
        at_zero = curve[np.isclose(curve[:, 0], 0.0)]
        assert at_zero[0, 1] == pytest.approx(coefs.target, abs=1e-12)
    direct_line = run_line(data, cfg, varying="direct")
    assert direct_line.fixed_values == (0.0,)
    assert direct_line.curves[0].shape == (17, 4)


def test_line_validation():
    data = _data()
    with pytest.raises(ConfigError, match="varying"):
        run_line(data, _cfg(), varying="sf")
    with pytest.raises(ConfigError, match="percentile"):
        run_line(data, _cfg(), fixed_percentiles=(1.5,))
    with pytest.raises(ConfigError, match="percentile"):
        run_line(data, _cfg(), fixed_percentiles=())


def test_double_placebo_table():
    data = simulate_scm(SCMRecipe(n=400, graph_case="double_a", seed=2))
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N")
    cfg = AnalysisConfig(spec=spec, bootstrap_reps=200, seed=4,
                         k_range=(0.0, 2.0), direct_range=(0.0, 0.0))
    table = run_table(data, cfg)
    labels = [row.label for row in table.rows]
    assert labels[:2] == ["SOO", "Point ID"]
    formula = DoubleFormula(spec)
    fits = formula.fit_coefficients(data)
    by_label = {row.label: row for row in table.rows}
    assert by_label["SOO"].estimate == pytest.approx(fits.beta_yd,
                                                     abs=1e-12)
    assert by_label["Point ID"].estimate == pytest.approx(
        formula.adjust(fits, 1.0, 0.0), rel=1e-12
    )
    assert table.metadata["role"] == "double_placebo"
    assert all(row.se > 0 for row in table.rows)


@pytest.mark.parametrize("double", [False, True])
def test_runners_describe_the_formula_in_metadata(double):
    if double:
        data = simulate_scm(SCMRecipe(n=300, graph_case="double_a", seed=2))
        spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                                 placebo_treatment_col="P",
                                 placebo_outcome_col="N", beta_yp_long=0.3,
                                 beta_np_long=-0.2)
        formula = dict(role="double_placebo",
                       direct_effect_name="treatment->placebo_outcome",
                       alternatives=(), cautions=(), beta_yp_long=0.3,
                       beta_np_long=-0.2)
        anchor = {}
    else:
        data, spec = _data(), _spec()
        sf = dispatch_case(spec).sf(data)
        formula = dict(role="placebo_outcome",
                       direct_effect_name="treatment->placebo",
                       alternatives=(), cautions=(), scale_factor=sf)
        anchor = {"standard_did_k": 1.0 / sf}
    cfg = AnalysisConfig(spec=spec, bootstrap_reps=20, seed=1,
                         grid_points_per_axis=3)
    base = {"n_rows": data.n_rows, "seed": 1, **formula}
    boot = dict(bootstrap_reps=20, bootstrap_failures=0, ci_level=0.95,
                freeze_sf=False, cluster_col=None)
    assert run_contour(data, cfg).metadata == base
    assert run_line(data, cfg).metadata == {**base, **boot}
    assert run_table(data, cfg).metadata == {**base, **boot, **anchor}


def test_double_placebo_vanishing_pair_is_rejected():
    # An assumed placebo-pair direct part equal to the measured coefficient
    # leaves the double-placebo surface undefined on every runner.
    data = simulate_scm(SCMRecipe(n=200, graph_case="double_a", seed=2))
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N")
    fits = DoubleFormula(spec).fit_coefficients(data)
    spec = dataclasses.replace(spec, beta_np_long=fits.beta_np)
    cfg = AnalysisConfig(spec=spec, bootstrap_reps=20, seed=4)
    for runner in (run_table, run_contour, run_line):
        with pytest.raises(DenominatorNearZero):
            runner(data, cfg)


def _rescaled(data, name, units):
    return Dataset({col: data[col] * (units if col == name else 1.0)
                    for col in data.names})


def test_double_placebo_pair_check_does_not_depend_on_units():
    # At P x 1e13 the P coefficient is 3.3e-14: below NEAR_ZERO, yet no
    # nearer its assumed direct part (0) than at P x 1.
    data = simulate_scm(SCMRecipe(n=400, graph_case="double_b", seed=5))
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N")
    cfg = AnalysisConfig(spec=spec, bootstrap_reps=50, seed=3)
    formula = DoubleFormula(spec)
    results = []
    for units in (1.0, 1e13):
        scaled = _rescaled(data, "P", units)
        fits = formula.fit_coefficients(scaled)
        results.append((formula.adjust(fits, 1.0, 0.0),
                        run_table(scaled, cfg).rows[:2]))
    (point, anchors), (point_13, anchors_13) = results
    assert point_13 == pytest.approx(point, rel=1e-8)
    for row, row_13 in zip(anchors, anchors_13):
        assert row.label == row_13.label
        assert row_13[3:] == pytest.approx(row[3:], rel=1e-8)


@pytest.mark.parametrize("units", [1.0, 1e13])
def test_placebo_pair_vanishing_to_rounding_is_rejected(units):
    # N = 0.3 + 0.8 D exactly: its P coefficient is rounding (7e-18 at
    # P x 1), so at the default np_long = 0 the pair vanishes, in any units
    # of P, on QR's full sample and in every Gram row.
    data = simulate_scm(SCMRecipe(n=400, graph_case="double_b", seed=5))
    data = Dataset({**{name: data[name] for name in data.names},
                    "N": 0.3 + 0.8 * data["D"], "P": data["P"] * units})
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N")
    with pytest.raises(DenominatorNearZero):
        DoubleFormula(spec).fit_coefficients(data)
    cfg = AnalysisConfig(spec=spec, bootstrap_reps=20, seed=4)
    with pytest.raises(DenominatorNearZero):
        run_table(data, cfg)
    formula, frame = _bind(data, cfg)
    q = formula.gram_quantities(frame, _grams(frame, None, 4, range(20)))
    assert np.isnan(q).all()


def test_mediator_metadata_carries_caution():
    data = _data(graph_case="d")
    spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                       role="mediator", edge_d_to_p=True, edge_p_to_y=True,
                       acknowledge_mediator=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MediatorCautionWarning)
        table = run_table(data, AnalysisConfig(spec=spec,
                                               bootstrap_reps=100, seed=0))
    assert table.metadata["cautions"]


def test_wide_k_range_warns():
    data = _data()
    with pytest.warns(ScaleConfusionWarning):
        run_contour(data, _cfg(k_range=(0.0, 50.0),
                               grid_points_per_axis=5))


@pytest.mark.parametrize("runner", [run_table, run_contour, run_line])
def test_large_k_warning_names_the_callers_line(runner):
    # As CaseFormula.adjust's does: the warning points at this file, not
    # into the engine.
    with pytest.warns(ScaleConfusionWarning) as record:
        runner(_data(), _cfg(k_range=(0.0, 50.0), grid_points_per_axis=5,
                             bootstrap_reps=20))
    assert record[0].filename == __file__


def test_config_validation():
    with pytest.raises(ConfigError, match="k_range"):
        AnalysisConfig(k_range=(2.0, -2.0))
    with pytest.raises(ConfigError, match="bootstrap_reps"):
        AnalysisConfig(bootstrap_reps=1)
    with pytest.raises(ConfigError, match="ci_level"):
        AnalysisConfig(ci_level=1.0)
    with pytest.raises(ConfigError, match="freeze_sf"):
        AnalysisConfig(spec=_role_spec("double_placebo"), freeze_sf=True)
    with pytest.raises(ConfigError, match="grid_points"):
        AnalysisConfig(grid_points_per_axis=0)
    with pytest.raises(ConfigError, match="^spec must be a PlaceboSpec or "
                       "DoublePlaceboSpec$"):
        AnalysisConfig(spec="x")
    with pytest.raises(ConfigError, match="spec"):
        run_table(_data(), AnalysisConfig())


def _noise_data(n, names, seed=3, **extra):
    rng = np.random.default_rng(seed)
    return Dataset({**{name: rng.normal(size=n) for name in names}, **extra})


def test_too_few_rows_is_the_same_error_on_every_path():
    # Five rows for the five coefficients of Y ~ D + P + X1 + X2.
    data = _noise_data(5, ("Y", "D", "P", "X1", "X2"))
    spec = _spec(role="placebo_treatment", edge_d_to_p=False,
                 covariate_cols=("X1", "X2"))
    case = dispatch_case(spec)
    with pytest.raises(TooFewRows):
        case.fit_coefficients(data)
    with pytest.raises(TooFewRows):
        case.sf(data)
    with pytest.raises(TooFewRows):
        run_table(data, _cfg(spec=spec, bootstrap_reps=20))


def test_short_cluster_replicate_is_dropped():
    # Two of six clusters are single rows; a resample drawing only those has
    # six rows for the six coefficients of Y ~ D + P + X1 + X2 + X3 and must
    # count as a dropped replicate rather than abort the run.
    sizes = (1, 1, 30, 30, 30, 30)
    cluster = np.repeat(np.arange(6.0), sizes)
    data = _noise_data(cluster.size, ("Y", "D", "P", "X1", "X2", "X3"),
                       C=cluster)
    spec = _spec(role="placebo_treatment", edge_d_to_p=False,
                 covariate_cols=("X1", "X2", "X3"))
    cfg = _cfg(spec=spec, bootstrap_reps=1000, seed=4, cluster_col="C")
    groups = _cluster_ids(data, "C")
    short = sum(
        _replicate_rows(counts, groups).size <= 6
        for counts in _counts(data, groups, cfg.seed,
                              range(cfg.bootstrap_reps))
    )
    assert short > 0
    table = run_table(data, cfg)
    assert table.metadata["bootstrap_failures"] == short


def _scanned_cluster_ids(data, cluster_col):
    """The reference: one boolean scan of the column per cluster id, the
    ids in sorted order."""
    column = data[cluster_col]
    ids = np.full(column.size, -1, dtype=np.intp)
    for c, value in enumerate(sorted(set(column.tolist()))):
        ids[column == value] = c
    return ids


def test_cluster_pool_matches_a_scan_per_cluster(monkeypatch):
    # Ids that are neither contiguous nor sorted by first appearance.
    rng = np.random.default_rng(11)
    ids = rng.choice([41.0, -7.0, 1e6, 3.5, 12.0, 40.0], size=240)
    data = _noise_data(ids.size, ("Y", "D", "P"), C=ids)
    groups = _cluster_ids(data, "C")
    want = _scanned_cluster_ids(data, "C")
    assert groups.dtype == want.dtype
    assert np.array_equal(groups, want)
    # Each cluster's sums of the column-pair products: the Gram matrix of
    # that cluster alone, against the rows of its scan.
    cfg = _cfg(bootstrap_reps=60, seed=2, cluster_col="C")
    frame = _bind(data, cfg)[1]
    got = frame.grouped(groups).grams(np.eye(6, dtype=np.uint8))
    scans = frame.grams(np.array([want == c for c in range(6)],
                                 dtype=np.uint8))
    diag = np.sqrt(np.diagonal(scans, axis1=1, axis2=2))
    scale = diag[:, :, None] * diag[:, None, :]
    assert np.all(np.abs(got - scans) <= 1e-12 * scale)
    table = run_table(data, cfg)
    monkeypatch.setattr(engine, "_cluster_ids", _scanned_cluster_ids)
    assert run_table(data, cfg) == table


def _earnings_data(seed, n, collinearity=1.0, placebo_noise=3000.0,
                   clusters=0):
    """Earnings-scale columns: Y, P and N have means about 1e4.

    X2 is X1 plus ``collinearity`` times its SD in noise, and P is linear
    in D and X1 up to ``placebo_noise`` (SD) of confounder and noise, so
    small values of either make a design or a residual nearly degenerate.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    x1 = 25.0 + 7.0 * rng.normal(size=n)
    x2 = x1 + collinearity * 7.0 * rng.normal(size=n)
    d = (0.8 * z + rng.normal(size=n) > 0.3).astype(float)
    p = (1e4 + 400.0 * d + 50.0 * x1
         + placebo_noise * (0.6 * z + 0.8 * rng.normal(size=n)))
    placebo_n = 1e4 + 1500.0 * z + 40.0 * x2 + 2500.0 * rng.normal(size=n)
    y = (1e4 + 1000.0 * d + 2500.0 * z + 60.0 * x1 + 0.3 * p
         + 4000.0 * rng.normal(size=n))
    return Dataset({"Y": y, "D": d, "P": p, "N": placebo_n, "X1": x1,
                    "X2": x2, "C": rng.integers(0, max(clusters, 1), n)})


_ROLE_EDGES = {"observed_confounder_1": {"edge_p_to_y": True},
               "mediator": {"edge_d_to_p": True, "edge_p_to_y": True,
                            "acknowledge_mediator": True}}


def _role_spec(role, covariates=("X1", "X2")):
    if role == "double_placebo":
        return DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                                 placebo_treatment_col="P",
                                 placebo_outcome_col="N",
                                 covariate_cols=covariates)
    return PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                       role=role, covariate_cols=covariates,
                       **_ROLE_EDGES.get(role, {}))


# Distinct designs each role fits: the small QRs of one full-sample
# evaluation, each of its columns of the frame's R.
_DESIGNS = {"placebo_outcome": 1, "placebo_treatment": 3,
            "observed_confounder_1": 4, "observed_confounder_2": 3,
            "mediator": 3, "post_outcome": 3, "double_placebo": 1}


def _counting_qr(monkeypatch):
    """The shapes of the matrices every np.linalg.qr call factors."""
    qr = np.linalg.qr
    calls = []

    def counting_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


def _counting_factor(monkeypatch):
    """The number of rows every ScaledColumns.factor call factors."""
    factor = ScaledColumns.factor
    calls = []

    def counting_factor(frame, idx=slice(None)):
        calls.append(len(frame.zt[0, idx]))
        return factor(frame, idx)

    monkeypatch.setattr(ScaledColumns, "factor", counting_factor)
    return calls


@pytest.mark.parametrize("role", [*ROLES, "double_placebo"])
def test_bootstrap_replicates_run_no_qr(monkeypatch, role):
    # On well-conditioned data every replicate is fitted from its weighted
    # Gram matrix: the run factors its n-row frame once, for the full
    # sample, and each design takes one small QR of that R, whatever the
    # reps. The frame's factor is blocked: one stacked QR of equal row
    # blocks that cover the n rows once but for fewer than a block left
    # over, then one QR of their Rs and those rows (at n = 400 one block
    # holds every row). No QR factors more than a block's rows.
    calls = _counting_qr(monkeypatch)
    for n, reps in ((400, 20), (400, 200), (3000, 20), (3000, 200)):
        data = _earnings_data(seed=3, n=n)
        q = len(_bind(data, AnalysisConfig(spec=_role_spec(role)))[1].zt)
        block = regression._qr_block(q)
        tall = ([(n, q)] if n <= block
                else [(n // block, block, q), (n // block * q + n % block, q)])
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MediatorCautionWarning)
            table = run_table(data, AnalysisConfig(spec=_role_spec(role),
                                                   bootstrap_reps=reps,
                                                   seed=1))
        assert table.metadata["bootstrap_failures"] == 0
        assert all(shape[-2] <= block for shape in calls)
        assert calls[:len(tall)] == tall
        assert [shape[0] for shape in calls[len(tall):]] == \
            [q] * _DESIGNS[role]


def _natural_scales(role, data):
    """sd(response) / sd(regressor) of each coefficient a role reads; 0
    for a ratio of SDs (SF, np_unit), compared relative to its size."""
    sd = {name: np.std(data[name]) for name in data.names}
    if role == "double_placebo":
        pairs = (("Y", "D"), ("Y", "P"), ("N", "D"), ("N", "P"))
        return np.array([*(sd[a] / sd[b] for a, b in pairs), 0.0])
    names = {"y": "Y", "d": "D", "p": "P"}
    row = _ROLE_TABLE[role]
    coefficient = [sd[names[response]] / sd[names[column]]
                   for response, _, column in (row.target, row.placebo)]
    return np.array([*coefficient, 0.0])


def _replicate_both_ways(data, role, seed, rep, clusters):
    """(QR, batched, fell back) quantities of one replicate; an error stands
    in for the quantities of a path that raises it. The batched path is the
    engine's: the replicate's row of a Gram batch, refitted by QR where the
    row holds NaN."""
    formula, frame = _bind(data, AnalysisConfig(spec=_role_spec(role)))
    groups = _cluster_ids(data, "C") if clusters else None
    idx = _replicate_rows(_counts(data, groups, seed, [rep])[0], groups)
    try:
        want = np.array(formula.quantities(frame, idx))
    except (NumericError, TooFewRows) as exc:
        want = type(exc)
    got = formula.gram_quantities(frame,
                                  _grams(frame, groups, seed, [rep]))[0]
    fell_back = not np.isfinite(got).all()
    if fell_back:
        try:
            got = np.array(formula.quantities(frame, idx))
        except (NumericError, TooFewRows) as exc:
            got = type(exc)
    return want, got, fell_back, data.take(idx)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
       log_collinearity=st.floats(-4.0, 1.0),
       log_placebo_noise=st.floats(-2.0, 4.0),
       role=st.sampled_from([*ROLES, "double_placebo"]),
       clusters=st.sampled_from([0, 15]), rep=st.integers(0, 10_000))
def test_gram_replicates_match_qr(seed, n, log_collinearity,
                                  log_placebo_noise, role, clusters, rep):
    _assert_replicate_matches_qr(
        _earnings_data(seed, n, 10.0**log_collinearity,
                       10.0**log_placebo_noise, clusters),
        role, seed, rep, clusters)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
       log_mean=st.floats(0.0, 12.0), log_outcome_sd=st.floats(-8.0, -3.0),
       log_placebo_sd=st.floats(-8.0, -3.0),
       role=st.sampled_from([*ROLES, "double_placebo"]),
       clusters=st.sampled_from([0, 15]), rep=st.integers(0, 10_000))
def test_gram_replicates_of_nearly_constant_columns_match_qr(
        seed, n, log_mean, log_outcome_sd, log_placebo_sd, role, clusters,
        rep):
    # The outcome and placebos with SDs of 1e-8 to 1e-3 of means of 1 to
    # 1e12: the band of the near-constant column rule, where a norm is
    # nearest the residual guard.
    data = _earnings_data(seed, n, clusters=clusters)
    sd = {"Y": 10.0**log_outcome_sd, "P": 10.0**log_placebo_sd,
          "N": 10.0**log_placebo_sd}
    data = Dataset({name: 10.0**log_mean * (1.0 + sd[name] * (
        data[name] - data[name].mean()) / data[name].std())
        if name in sd else data[name] for name in data.names})
    _assert_replicate_matches_qr(data, role, seed, rep, clusters)


def _assert_replicate_matches_qr(data, role, seed, rep, clusters):
    """One replicate's batched quantities equal QR's exactly where it was
    refitted, and are within 1e-9 of each value's natural scale where
    not."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MediatorCautionWarning)
        want, got, fell_back, rows = _replicate_both_ways(
            data, role, seed, rep, clusters)
    if isinstance(want, type) or isinstance(got, type) or fell_back:
        # Refitted by QR: the same numbers, or the same error, exactly.
        assert got is want or np.array_equal(got, want)
        return
    # To 1e-9 of each coefficient or of its natural scale, and of SF.
    scale = np.maximum(np.abs(want), _natural_scales(role, rows))
    assert np.all(np.abs(got - want) <= 1e-9 * scale), (got, want)


@pytest.mark.parametrize("clusters", [0, 15])
@pytest.mark.parametrize("role, kwargs", [
    # X2 within 1e-4 SD of X1: pivot ratio far below GRAM_TOL.
    ("placebo_treatment", {"collinearity": 1e-4}),
    ("double_placebo", {"collinearity": 1e-4}),
    # P within 1e-3 of D and X1: a norm SF reads lost to cancellation.
    ("placebo_outcome", {"placebo_noise": 1e-3}),
])
def test_untrusted_gram_replicate_is_refitted_by_qr(role, kwargs, clusters):
    data = _earnings_data(seed=5, n=300, clusters=clusters, **kwargs)
    want, got, fell_back, _ = _replicate_both_ways(data, role, 5, 0,
                                                   clusters)
    assert fell_back
    assert np.array_equal(got, want)


def test_gram_path_refers_a_resample_constant_to_qr():
    # x = 1e6 + 5e-4 u has SD 3e-10 of its RMS over all rows, u's spread
    # cut 20x in the first of two clusters. That cluster drawn twice leaves
    # x an SD of 2e-11 of its RMS: well scaled for the Gram path, constant
    # for QR. Within 1e-8 of constant, every resample goes to QR.
    rng = np.random.default_rng(7)
    u = rng.standard_normal(400)
    u[:200] /= 20
    cols = {"x": 1e6 + 5e-4 * u,
            "y": 1.0 + 2.04 * u + rng.standard_normal(400)}
    groups = np.repeat([0, 1], 200)
    frame = ScaledColumns(cols)
    beta, l2 = regression.gram_least_squares(
        frame, frame.grouped(groups).grams(np.array([[2, 0], [1, 1]])),
        ["x"], ["y"])
    assert np.isnan(beta).all() and np.isnan(l2).all()
    regression.least_squares(frame, frame.factor(), ["x"], ["y"])
    idx = _replicate_rows(np.array([2, 0]), groups)
    with pytest.raises(regression.RankDeficient):
        regression.least_squares(frame, frame.factor(idx), ["x"], ["y"])


def test_gram_path_refers_a_near_constant_response_to_qr():
    # w has SD 1e-11 of its RMS, which QR, never judging a response
    # constant, fits to a slope of about 5e-11.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(400)
    cols = {"x": x, "w": 5.0 + 5e-11 * (rng.standard_normal(400) + x)}
    frame = ScaledColumns(cols)
    beta, l2 = regression.gram_least_squares(
        frame, frame.grams(np.ones((1, 400), dtype=int)), ["x"], ["w"])
    assert np.isnan(beta).all() and np.isnan(l2).all()
    want = regression.least_squares(frame, frame.factor(), ["x"], ["w"])[0]
    assert want[1, 0] == pytest.approx(5e-11, rel=0.2)


def test_gram_path_refuses_a_block_that_is_not_positive_definite():
    # Four rows, in the frame's units, on which x2 equals x1: the design
    # block [[4, 0, 0], [0, 4, 4], [0, 4, 4]] is exactly singular, and
    # every step of its Cholesky is exact, so the stacked Cholesky raises.
    rng = np.random.default_rng(5)
    frame = ScaledColumns({name: rng.normal(size=40)
                           for name in ("x1", "x2", "y")})
    z = np.array([[1.0, 1, 1, 1], [1, -1, -1, -1], [1, 1, 1, -1],
                  [1, -1, -1, 1]])
    singular = z.T @ z
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular[None, :3, :3])
    g = frame.grams(rng.integers(0, 3, size=(2, 40)))
    beta, l2 = regression.gram_least_squares(
        frame, np.stack([g[0], singular, g[1]]), ["x1", "x2"], ["y"])
    assert np.isnan(beta[1]).all() and np.isnan(l2[1]).all()
    want_beta, want_l2 = regression.gram_least_squares(frame, g,
                                                       ["x1", "x2"], ["y"])
    assert np.isfinite(want_beta).all() and np.isfinite(want_l2).all()
    assert np.array_equal(beta[[0, 2]], want_beta)
    assert np.array_equal(l2[[0, 2]], want_l2)


def _qr_reference(formula, cols, data, cfg):
    """Kept rows and dropped count of one-at-a-time QR evaluation."""
    groups = (None if cfg.cluster_col is None
              else _cluster_ids(data, cfg.cluster_col))
    rows = []
    for counts in _counts(data, groups, cfg.seed, range(cfg.bootstrap_reps)):
        try:
            rows.append(formula.quantities(cols,
                                           _replicate_rows(counts, groups)))
        except (NumericError, TooFewRows):
            continue
    return np.array(rows, dtype=float), cfg.bootstrap_reps - len(rows)


def _bootstrap_matches_qr(data, cfg):
    """The engine's kept rows, checked against ``_qr_reference``: the same
    drops, and each row within test_gram_replicates_match_qr's bound."""
    formula, cols = _bind(data, cfg)
    got, failures = _bootstrap_quantities(formula, cols, data, cfg, None)
    want, want_failures = _qr_reference(formula, cols, data, cfg)
    assert failures == want_failures
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), _natural_scales(cfg.spec.role, data))
    assert np.all(np.abs(got - want) <= 1e-9 * scale)
    return got, want


def _resampled(data, cfg):
    """The run's frame as the engine resamples it: by rows, or grouped by
    clusters."""
    frame = _bind(data, cfg)[1]
    if cfg.cluster_col is None:
        return frame
    return frame.grouped(_cluster_ids(data, cfg.cluster_col))


def _batch_size(data, cfg):
    return _resampled(data, cfg).batch


def _counts(data, groups, seed, reps):
    """The engine's counts of replicates ``reps`` over the rows, or over
    the clusters ``groups`` numbers."""
    units = data.n_rows if groups is None else groups.max() + 1
    return _replicate_counts(seed, reps, units)


def _grams(frame, groups, seed, reps):
    """The engine's Gram stack of replicates ``reps``."""
    if groups is not None:
        frame = frame.grouped(groups)
    return frame.grams(_replicate_counts(seed, reps, frame.units))


def _budget(data, cfg, batch):
    """A BATCH_BYTES whose batches hold ``batch`` resamples: their counts,
    a byte a unit, and 6 q^2 floats each for a frame of q columns fill
    half of it."""
    frame = _resampled(data, cfg)
    q = len(frame.zt)
    return 2 * (frame.units + 8 * 6 * q * q) * batch


def test_bootstrap_one_replicate_past_a_batch(monkeypatch):
    # A batch of seven, then a batch of one; a row block of the column-pair
    # products and of the widened counts holds 37 of the 300 rows, an
    # eighth of them, so the products are summed over nine blocks, the
    # last one short.
    data = _earnings_data(seed=2, n=300)
    cfg = AnalysisConfig(spec=_role_spec("placebo_treatment"), seed=4)
    monkeypatch.setattr(regression, "BATCH_BYTES",
                        _budget(data, cfg, 7))
    batch = _batch_size(data, cfg)
    assert batch == 7
    _bootstrap_matches_qr(data, AnalysisConfig(
        spec=cfg.spec, seed=4, bootstrap_reps=batch + 1))


@pytest.mark.parametrize("role", ["observed_confounder_1", "double_placebo"])
def test_bootstrap_in_batches_of_one(monkeypatch, role):
    monkeypatch.setattr(regression, "BATCH_BYTES", 1)
    data = _earnings_data(seed=3, n=80, clusters=8)
    for cluster_col in (None, "C"):
        cfg = AnalysisConfig(spec=_role_spec(role), seed=6, bootstrap_reps=12,
                             cluster_col=cluster_col)
        assert _batch_size(data, cfg) == 1
        _bootstrap_matches_qr(data, cfg)


@pytest.mark.parametrize("role, make_data, cluster_col, reps", [
    ("observed_confounder_1", lambda: _earnings_data(seed=8, n=300), None,
     40),
    ("observed_confounder_1",
     lambda: _earnings_data(seed=8, n=300, clusters=20), "C", 40),
    ("double_placebo", lambda: _earnings_data(seed=8, n=300), None, 40),
    ("double_placebo", lambda: _earnings_data(seed=8, n=300, clusters=20),
     "C", 40),
    # Resamples of only the single-row clusters are dropped.
    ("placebo_treatment", lambda: _short_clusters(), "C", 1000),
])
def test_replicate_rows_do_not_depend_on_the_batch_size(
        monkeypatch, role, make_data, cluster_col, reps):
    # Batches of one, of seven and of every replicate: each sums the pair
    # products over its own row blocks, so the rows may move by rounding.
    data = make_data()
    covariates = ("X1", "X2", "X3") if "X3" in data else ("X1", "X2")
    cfg = AnalysisConfig(spec=_role_spec(role, covariates), seed=5,
                         bootstrap_reps=reps, cluster_col=cluster_col)
    formula, frame = _bind(data, cfg)
    results = []
    for batch in (1, 7, reps):
        monkeypatch.setattr(regression, "BATCH_BYTES",
                            _budget(data, cfg, batch))
        assert _batch_size(data, cfg) == batch
        results.append(_bootstrap_quantities(formula, frame, data, cfg,
                                             None))
    want, failures = results[-1]
    assert (failures > 0) == (reps == 1000)
    scale = np.maximum(np.abs(want), _natural_scales(role, data))
    for got, got_failures in results:
        assert got_failures == failures
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("cluster_col", [None, "C"])
def test_counts_past_the_count_width_leave_the_rows(monkeypatch,
                                                    cluster_col):
    # With the one-byte limit lowered to 1, every batch trips the check and
    # holds its counts at bincount's width: the same counts, the same rows.
    data = _earnings_data(seed=8, n=300, clusters=20)
    cfg = AnalysisConfig(spec=_role_spec("observed_confounder_1"), seed=5,
                         bootstrap_reps=40, cluster_col=cluster_col)
    formula, frame = _bind(data, cfg)
    units = _resampled(data, cfg).units
    narrow = _replicate_counts(cfg.seed, range(40), units)
    want = _bootstrap_quantities(formula, frame, data, cfg, None)
    monkeypatch.setattr(engine, "_COUNT_MAX", 1)
    wide = _replicate_counts(cfg.seed, range(40), units)
    assert narrow.dtype == np.uint8 and wide.dtype != np.uint8
    assert wide.max() > 1 and np.array_equal(wide, narrow)
    got = _bootstrap_quantities(formula, frame, data, cfg, None)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0])


def test_a_count_past_one_byte_is_held_exactly(monkeypatch):
    # A stream that draws unit 0 every time, which no seed gives in
    # practice: 300 draws of one unit, past the one-byte count.
    class Zeros:
        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.int64)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    counts = _replicate_counts(0, range(2), 300)
    assert counts[:, 0].tolist() == [300, 300]
    assert counts[:, 1:].max() == 0
    assert len(_replicate_rows(counts[1])) == 300


def _drawn_counts(seed, rep, units):
    """The draw, written out: replicate ``rep`` draws ``units`` units with
    replacement from its own seed stream, and counts them."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    return np.bincount(rng.integers(0, units, units), minlength=units)


@pytest.mark.parametrize("seed, reps, units", [
    (0, range(4), 1),
    (0, range(3), 2),
    (7, [0, 999, 4], 300),
    (2**32 - 1, [12345], 2675),
    (123_456_789_012, [1, 0], 50_000),
])
def test_replicate_counts_are_the_documented_draw(seed, reps, units):
    counts = _replicate_counts(seed, reps, units)
    assert counts.shape == (len(reps), units)
    for row, rep in zip(counts, reps):
        assert np.array_equal(row, _drawn_counts(seed, rep, units))


# The draw as literals, taken with numpy 2.4.6: each replicate's first
# eight counts, and a SHA-256 of the uint8 count rows. A numpy whose
# Generator stream moved would pass the test above and fail this one.
@pytest.mark.parametrize("seed, reps, units, first, digest", [
    (7, [0, 999, 4], 300,
     [[0, 1, 2, 0, 2, 0, 1, 1], [0, 1, 1, 0, 1, 3, 0, 0],
      [2, 3, 1, 1, 1, 3, 0, 1]],
     "c01906e86efd42d15d2b4f14c2d4d2f122db2b92909126f6ce62f616671bdbb6"),
    (2**32 - 1, [12345], 2675, [[2, 0, 1, 0, 1, 1, 0, 1]],
     "62d093377609d5c3db7efd2f7816b24c6c7cb3d05effdde4f019c73e6edcddc0"),
    (123_456_789_012, [1, 0], 50_000,
     [[0, 1, 1, 1, 1, 3, 2, 3], [2, 0, 1, 1, 1, 1, 0, 3]],
     "c050f2d175a1da3f80e261fd6764cdf77370880862884a163369330e828d1190"),
    (5, [3, 70], 100_003,
     [[2, 1, 0, 2, 0, 0, 1, 2], [2, 2, 1, 0, 2, 0, 1, 3]],
     "0461fb3362d8058cd2241fff402dd9dedae5c1ef08fd158df4441e48f6d7df01"),
])
def test_replicate_counts_are_pinned(seed, reps, units, first, digest):
    counts = _replicate_counts(seed, reps, units)
    assert counts.dtype == np.uint8
    assert counts[:, :8].tolist() == first
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("cluster_col", [None, "C"])
def test_bootstrap_rows_are_the_draw_in_row_order(cluster_col):
    # Each replicate's rows, in row order, each as often as the draw
    # counted it, or its cluster: the units are the clusters in sorted id
    # order, whatever order the rows list them in.
    cluster = [40.0, -7.0, 40.0, 3.5, 1e6, -7.0, 3.5, 3.5]
    data = Dataset({"R": np.arange(8.0), "C": np.array(cluster)})
    seen = []

    def record(d):
        seen.append(d["R"])
        return float(len(seen))

    bootstrap(data, AnalysisConfig(bootstrap_reps=20, seed=3,
                                   cluster_col=cluster_col), record)
    unit = {value: c for c, value in enumerate(sorted(set(cluster)))}
    for rep, rows in enumerate(seen):
        if cluster_col is None:
            times = _drawn_counts(3, rep, 8)
        else:
            drawn = _drawn_counts(3, rep, len(unit))
            times = [drawn[unit[value]] for value in cluster]
        assert np.array_equal(rows, np.repeat(np.arange(8.0), times))


def _per_point(full, reps, k, direct, ci_level):
    """Estimate, SE, CI low and CI high at (k, direct) one point at a time:
    1-D ``np.std`` and ``np.percentile`` of the replicates' draws."""
    draws = ovb_estimate(*reps, k, direct)
    alpha = 1.0 - ci_level
    lo, hi = np.percentile(draws, [100.0 * alpha / 2.0,
                                   100.0 * (1.0 - alpha / 2.0)])
    return [float(ovb_estimate(*full, k, direct)),
            float(np.std(draws, ddof=1)), float(lo), float(hi)]


# 9000 replicates run past numpy's 8192-element ufunc buffer.
@pytest.mark.parametrize("reps", [2, 1000, 9000])
@pytest.mark.parametrize("cluster_col", [None, "C"])
@pytest.mark.parametrize("role", ["observed_confounder_1", "double_placebo"])
def test_table_and_line_equal_a_per_point_evaluation(role, cluster_col,
                                                     reps):
    data = _earnings_data(seed=4, n=200, clusters=40)
    cfg = AnalysisConfig(spec=_role_spec(role), k_range=(-1.5, 2.5),
                         direct_range=(-0.5, 1.0), grid_points_per_axis=4,
                         bootstrap_reps=reps, seed=7, cluster_col=cluster_col)
    formula, frame = _bind(data, cfg)
    q_full = np.asarray(formula.quantities(frame))
    full = formula.triple(q_full)
    triples = formula.triple(
        _bootstrap_quantities(formula, frame, data, cfg, q_full)[0])
    for row in run_table(data, cfg).rows:
        assert [row.estimate, row.se, row.ci_low, row.ci_high] == \
            _per_point(full, triples, row.k, row.direct, cfg.ci_level)
    for varying in ("k", "direct"):
        line = run_line(data, cfg, varying, (0.0, 0.7))
        for fixed, curve in zip(line.fixed_values, line.curves):
            for value, estimate, ci_low, ci_high in curve.tolist():
                k, direct = ((value, fixed) if varying == "k"
                             else (fixed, value))
                want = _per_point(full, triples, k, direct, cfg.ci_level)
                assert [estimate, ci_low, ci_high] == [want[0], *want[2:]]


def test_evaluation_does_not_depend_on_the_block_size(monkeypatch):
    # The draws of one point at a time give what one block of all does.
    data = _data()
    cfg = _cfg(direct_range=(-1.0, 1.0), grid_points_per_axis=5)
    want = run_table(data, cfg), run_line(data, cfg, "direct", (0.2, 0.9))
    monkeypatch.setattr(engine, "BATCH_BYTES", 8 * cfg.bootstrap_reps)
    table, line = run_table(data, cfg), run_line(data, cfg, "direct",
                                                 (0.2, 0.9))
    assert table == want[0]
    assert all(np.array_equal(got, curve)
               for got, curve in zip(line.curves, want[1].curves))


def _short_clusters():
    # The data of test_short_cluster_replicate_is_dropped.
    cluster = np.repeat(np.arange(6.0), (1, 1, 30, 30, 30, 30))
    return _noise_data(cluster.size, ("Y", "D", "P", "X1", "X2", "X3"),
                       C=cluster)


@pytest.mark.parametrize("make_data, covariates, cluster_col, seed, reps", [
    # X2 within 1% of an SD of X1: some resamples' pivot ratios fall
    # below GRAM_TOL, and QR fits and keeps them.
    (lambda: _earnings_data(seed=5, n=60, collinearity=0.01), ("X1", "X2"),
     None, 2, 200),
    # Resamples of only the single-row clusters: QR raises TooFewRows.
    (_short_clusters, ("X1", "X2", "X3"), "C", 4, 1000),
])
def test_untrusted_replicate_inside_a_batch(monkeypatch, make_data,
                                            covariates, cluster_col, seed,
                                            reps):
    data = make_data()
    cfg = AnalysisConfig(spec=_role_spec("placebo_treatment", covariates),
                         seed=seed, bootstrap_reps=reps,
                         cluster_col=cluster_col)
    formula, frame = _bind(data, cfg)
    groups = (None if cluster_col is None
              else _cluster_ids(data, cluster_col))
    rows = formula.gram_quantities(frame,
                                   _grams(frame, groups, seed, range(reps)))
    untrusted = [rep for rep, row in enumerate(rows)
                 if not np.isfinite(row).all()]
    # Batches of ten: some untrusted replicate has trusted neighbours in
    # its own batch.
    monkeypatch.setattr(regression, "BATCH_BYTES",
                        _budget(data, cfg, 10))
    assert _batch_size(data, cfg) == 10
    assert any(rep % 10 not in (0, 9) and rep - 1 not in untrusted
               and rep + 1 not in untrusted for rep in untrusted)
    if cluster_col is not None:
        counts = _counts(data, groups, seed, untrusted)
        for idx in (_replicate_rows(c, groups) for c in counts):
            assert idx.size <= 6
            with pytest.raises(TooFewRows):
                formula.quantities(frame, idx)
    _bootstrap_matches_qr(data, cfg)


def test_batch_whose_stacked_cholesky_raises(monkeypatch):
    # Make the stacked Cholesky raise for any stack holding a resample of
    # one chosen row count: the kernel factors the blocks one at a time,
    # refuses each such resample, which is refitted by QR, and the rest of
    # the batch keeps the Gram path.
    data = _earnings_data(seed=7, n=300, clusters=15)
    cfg = AnalysisConfig(spec=_role_spec("placebo_outcome"), seed=3,
                         bootstrap_reps=64, cluster_col="C")
    groups = _cluster_ids(data, "C")
    sizes = [_replicate_rows(counts, groups).size
             for counts in _counts(data, groups, cfg.seed,
                                   range(cfg.bootstrap_reps))]
    marked = np.array(sizes) == sizes[20]
    cholesky = np.linalg.cholesky
    raised = []

    def refusing_cholesky(a, *args, **kwargs):
        if np.any(a[:, 0, 0] == sizes[20]):
            raised.append(len(a))
            raise np.linalg.LinAlgError("refused")
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", refusing_cholesky)
    got, want = _bootstrap_matches_qr(data, cfg)
    assert raised and raised[0] == cfg.bootstrap_reps
    assert np.array_equal(got[marked], want[marked])
    assert not np.array_equal(got[~marked], want[~marked])


def test_resamples_that_are_not_positive_definite(monkeypatch):
    # Seven clusters, and X1 and X2 constant within each: a resample of
    # two distinct clusters gives X1 and X2 two values each, so with the
    # intercept its design block is singular up to rounding. The stacked
    # Cholesky of its batch raises; that resample is refused, and QR drops
    # it.
    data = _earnings_data(seed=7, n=300, clusters=7)
    x = 25.0 + 7.0 * np.random.default_rng(7).normal(size=(2, 7))
    cluster = data["C"].astype(int)
    data = Dataset({**{name: data[name] for name in data.names},
                    "X1": x[0][cluster], "X2": x[1][cluster]})
    cfg = AnalysisConfig(spec=_role_spec("placebo_outcome"), seed=1,
                         bootstrap_reps=200, cluster_col="C")
    cholesky = np.linalg.cholesky
    raised = []

    def counting_cholesky(a, *args, **kwargs):
        try:
            return cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            raised.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    got, _ = _bootstrap_matches_qr(data, cfg)
    assert max(raised) > 1
    assert len(got) == cfg.bootstrap_reps - 1


def test_double_placebo_resamples_of_one_cluster(monkeypatch):
    # A cluster-level placebo treatment over five clusters of 12 rows. Six
    # of 2000 resamples draw one cluster, so P is constant over them: its
    # SD there is 0, which np_unit must not divide by, and their design
    # blocks are singular, which must not break the batch's one stacked
    # Cholesky. The Gram path refers them to QR, which drops them.
    rng = np.random.default_rng(0)
    cluster = np.repeat(np.arange(5), 12)
    p = rng.normal(size=5)[cluster]
    d = rng.normal(size=60)
    data = Dataset({"Y": d + 0.5 * p + rng.normal(size=60), "D": d, "P": p,
                    "N": 0.3 * d + 0.7 * p + rng.normal(size=60),
                    "C": cluster.astype(float)})
    cfg = AnalysisConfig(spec=_role_spec("double_placebo", ()),
                         bootstrap_reps=2000, seed=0, cluster_col="C")
    cholesky = np.linalg.cholesky
    stacks = []

    def counting_cholesky(a, *args, **kwargs):
        stacks.append(len(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = run_table(data, cfg)
    assert table.metadata["bootstrap_failures"] == 6
    assert stacks == [cfg.bootstrap_reps]


def test_gram_path_refuses_too_few_rows():
    # Six distinct rows for the six coefficients of Y ~ D + P + X1 + X2 +
    # X3: the design block is invertible, but QR raises TooFewRows, so the
    # Gram row must be refused.
    data = _noise_data(6, ("Y", "D", "P", "X1", "X2", "X3"))
    formula, frame = _bind(data, AnalysisConfig(
        spec=_role_spec("placebo_treatment", ("X1", "X2", "X3"))))
    row = formula.gram_quantities(frame,
                                  frame.grams(np.ones((1, 6), dtype=int)))[0]
    assert not np.isfinite(row).all()
    with pytest.raises(TooFewRows):
        formula.quantities(frame, np.arange(6))


def test_vanishing_placebo_pair_in_one_replicate_is_dropped():
    # Assume the placebo-pair direct part equals replicate 30's measured
    # coefficient: that replicate's pair vanishes, and QR drops it.
    data = _earnings_data(seed=4, n=200)
    formula, cols = _bind(data, AnalysisConfig(
        spec=_role_spec("double_placebo")))
    idx = _replicate_rows(_counts(data, None, 2, [30])[0])
    beta_np = formula.quantities(cols, idx)[3]
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N",
                             covariate_cols=("X1", "X2"),
                             beta_np_long=beta_np)
    cfg = AnalysisConfig(spec=spec, seed=2, bootstrap_reps=100)
    got, _ = _bootstrap_matches_qr(data, cfg)
    assert len(got) == cfg.bootstrap_reps - 1


@pytest.mark.parametrize("sizes", [
    (1,) * 40,  # single-row clusters
    (1, 1, 2, 3, 5, 80, 200, 1, 9, 40),  # very unequal clusters
])
def test_cluster_grams_match_row_weighted_grams(sizes):
    rng = np.random.default_rng(9)
    cluster = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    data = _earnings_data(seed=9, n=cluster.size)
    data = Dataset({**{name: data[name] for name in data.names},
                    "C": cluster.astype(float)})
    _, frame = _bind(data, AnalysisConfig(
        spec=_role_spec("observed_confounder_1")))
    groups = _cluster_ids(data, "C")
    reps = range(50)
    got = _grams(frame, groups, 4, reps)
    want = frame.grams(_counts(data, groups, 4, reps)[:, groups])
    diag = np.sqrt(np.diagonal(want, axis1=1, axis2=2))
    scale = diag[:, :, None] * diag[:, None, :]
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_row_bootstrap_memory_stays_within_the_batch_budget():
    # Twelve replicates' row counts would take 19 MB and the column-pair
    # products 34 MB; in batches neither is held whole.
    n = 200_000
    data = _noise_data(n, ("Y", "D", "P", "X1", "X2"))
    cfg = _cfg(spec=_spec(role="placebo_treatment", edge_d_to_p=False,
                          covariate_cols=("X1", "X2")),
               bootstrap_reps=12)
    formula, cols = _bind(data, cfg)
    stored = len(cols.zt) * n * 8  # ScaledColumns.zt
    # Slack: a replicate's draw and its bincount, a column's temporaries
    # while it is scaled, and 1 MiB for small arrays.
    slack = 4 * n * 8 + 2**20
    tracemalloc.start()
    try:
        q_rows, failures = _bootstrap_quantities(formula, cols, data, cfg,
                                                 None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (q_rows.shape, failures) == ((12, 3), 0)
    assert peak <= stored + regression.BATCH_BYTES + slack, peak


def test_small_sample_bootstrap_memory_stays_within_the_batch_budget():
    # At 300 rows a resample's Gram matrix and solve temporaries outweigh
    # its counts, so the budget must count them too; the frame is built
    # before the trace starts.
    reps = 8000
    data = _noise_data(300, ("Y", "D", "P", "X1", "X2", "X3", "X4"))
    cfg = _cfg(spec=_spec(role="observed_confounder_1", edge_d_to_p=False,
                          edge_p_to_y=True,
                          covariate_cols=("X1", "X2", "X3", "X4")),
               bootstrap_reps=reps)
    formula, frame = _bind(data, cfg)
    assert frame.batch < reps
    # Half the budget for a batch's counts and floats, a row block of the
    # counts widened to float64 no larger than the counts, and slack: each
    # kept row's view while listed and its copy in the result, and 0.5 MiB
    # for small arrays.
    bound = (regression.BATCH_BYTES // 2 + frame.batch * data.n_rows
             + reps * 200 + 2**19)
    tracemalloc.start()
    try:
        q_rows, failures = _bootstrap_quantities(formula, frame, data, cfg,
                                                 None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (q_rows.shape, failures) == ((reps, 3), 0)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("role, make_data, cluster_col, qr_refits", [
    # Well conditioned: every replicate from its Gram matrix.
    ("placebo_treatment", lambda: _earnings_data(seed=3, n=400), None,
     False),
    # X2 within 1% of an SD of X1: QR refits some replicates and keeps them.
    ("double_placebo",
     lambda: _earnings_data(seed=5, n=60, collinearity=0.01), None, True),
    # Resamples of only the single-row clusters: the refit factors those
    # few rows and raises TooFewRows.
    ("placebo_treatment", _short_clusters, "C", False),
])
def test_bootstrap_does_not_depend_on_a_covariates_units(
        monkeypatch, role, make_data, cluster_col, qr_refits):
    data = make_data()
    covariates = ("X1", "X2", "X3") if "X3" in data else ("X1", "X2")
    cfg = AnalysisConfig(spec=_role_spec(role, covariates), seed=4,
                         bootstrap_reps=1000, cluster_col=cluster_col)
    calls = _counting_factor(monkeypatch)
    want = run_table(data, cfg)
    got = run_table(_rescaled(data, "X1", 1e11), cfg)
    # One factorization of the n-row frame per run, and one per refit.
    tall = [rows for rows in calls if rows == data.n_rows]
    assert (len(tall) > 2) == qr_refits
    assert got.metadata["bootstrap_failures"] == \
        want.metadata["bootstrap_failures"]
    assert (want.metadata["bootstrap_failures"] > 0) == (cluster_col
                                                         is not None)
    for row, want_row in zip(got.rows, want.rows, strict=True):
        assert row[:3] == want_row[:3]
        assert row[3:] == pytest.approx(want_row[3:], rel=1e-10)


# Each role's target and placebo coefficient, as (response, regressors,
# column) of its short regressions, and its SF as the (response,
# regressors) pair whose residual SDs it divides. The long regressions add
# the confounder Z1.
_POPULATION_ROLES = {
    "placebo_outcome": (("Y", ("D",), "D"), ("P", ("D",), "D"),
                        (("Y", ("D",)), ("P", ("D",)))),
    "placebo_treatment": (("Y", ("D", "P"), "D"), ("Y", ("D", "P"), "P"),
                          (("P", ("D",)), ("D", ("P",)))),
}


def _population_point(recipe, role):
    """The population target and the (k, direct) that reach it."""
    names, sigma = recipe_covariance(recipe)
    at = {name: i for i, name in enumerate(names)}

    def coef(response, regressors, column):
        return population_regression(names, sigma, response,
                                     regressors)[column]

    def residual_sd(response, regressors):
        beta = population_regression(names, sigma, response, regressors)
        return np.sqrt(sigma[at[response], at[response]] - sum(
            b * sigma[at[name], at[response]] for name, b in beta.items()))

    target, placebo, (num, den) = _POPULATION_ROLES[role]
    long_target = coef(target[0], (*target[1], "Z1"), target[2])
    direct = coef(placebo[0], (*placebo[1], "Z1"), placebo[2])
    sf = residual_sd(*num) / residual_sd(*den)
    k = (coef(*target) - long_target) / ((coef(*placebo) - direct) * sf)
    return long_target, k, direct


@pytest.mark.parametrize("role, graph, edges", [
    ("placebo_outcome", "a", {}),
    ("placebo_treatment", "a", {}),
    # Graph b's edge D -> P makes the population direct effect non-zero.
    ("placebo_outcome", "b", {"edge_d_to_p": True}),
], ids=["placebo_outcome", "placebo_treatment", "placebo_outcome-graph_b"])
def test_adjusted_estimate_ci_covers_the_population_target(role, graph,
                                                           edges):
    # Acceptance 10's form for an adjusted estimate, a ratio through SF:
    # 200 datasets from one recipe, each row-bootstrap CI taken at the
    # population (k, direct). The bound, at least 186 of 200 at nominal 95%,
    # was set before the first run.
    recipe = random_recipe(graph, seed=0, n=400)
    target, k, direct = _population_point(recipe, role)
    spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                       role=role, **edges)
    covered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in range(200):
            data = simulate_scm(dataclasses.replace(recipe,
                                                    seed=100_000 + r))
            cfg = AnalysisConfig(spec=spec, k_range=(k, k),
                                 direct_range=(direct, direct),
                                 grid_points_per_axis=1, bootstrap_reps=400,
                                 seed=r)
            (row,) = [row for row in run_table(data, cfg).rows
                      if row.label == "Grid"]
            covered += row.ci_low <= target <= row.ci_high
    assert covered >= 186, f"coverage {covered}/200 below 93%"
