"""The table, line and contour runners against their definition.

A table row's or line point's interval is defined by the bootstrap: each
replicate takes the rows its counts name, fits the formula to them by QR,
and gives the adjusted estimate at the point; the SE (ddof 1) and the
percentile interval are taken over the kept replicates. ``bootstrap()``
reads the same draw and never uses the Gram path, so the reference here is
one ``bootstrap()`` call per setting whose statistic reads public members
only: ``CaseFormula.fit_coefficients``, ``sf`` and ``adjust``, or, for
the double placebo, ``fit_double_shorts``, ``check_placebo_pair`` and
``pair_slope``. Under ``freeze_sf`` it uses the full-sample SF.

``run_table`` and ``run_line`` must match it to 1e-10 of the SE and of the
CI width, with equal ``bootstrap_failures``, or raise the same error: at
the default byte budget and at one small enough for several replicate
batches and evaluation blocks, each with a short last one. ``run_contour``
must match ``adjust`` on the full sample at its grid points. The bound
was set before the first run. Stress inputs (n = p + 2, units of 1e+-11,
4, 5 and 7 clusters with cluster-level covariates) run a few specs each.
"""

import dataclasses
import functools

import numpy as np
import pytest

from plm import engine, regression
from plm.adjust import PlaceboSpec, dispatch_case, ovb_estimate
from plm.double import (DoublePlaceboSpec, check_placebo_pair,
                        fit_double_shorts, pair_slope)
from plm.engine import AnalysisConfig, bootstrap, run_contour, run_line, \
    run_table
from plm.errors import BootstrapDegenerate, PlmError
from plm.regression import Dataset
from plm.selfcheck import SINGLE_CASES, random_recipe
from plm.simulate import simulate_scm

BOUND = 1e-10
REPS = 100
_CASES = [*SINGLE_CASES, ("double_a", "double_placebo", {}),
          ("double_b", "double_placebo", {})]


def _unit(graph):
    """A draw of the graph, n = 240: Z2 hidden, Z1 observed as the
    covariate X1 (correlated with D), and 30 clusters of rows in C."""
    data = simulate_scm(random_recipe(graph, seed=3, n=240, z_dim=2))
    cols = {name: data[name] for name in data.names if name[0] != "Z"}
    cols["X1"] = data["Z1"]
    cols["C"] = np.random.default_rng(4).integers(0, 30, 240)
    return cols


def _earnings(graph):
    """``_unit`` at earnings scale: outcome and placebos with means about
    1e4 and SDs in the thousands, X1 about 25."""
    cols = _unit(graph)
    for name in ("Y", "P", "N"):
        if name in cols:
            cols[name] = 1e4 + 3e3 * cols[name]
    cols["X1"] = 25.0 + 7.0 * cols["X1"]
    return cols


def _clusters(graph, groups=6):
    """``_unit`` in ``groups`` clusters of (nearly) equal size, with two
    cluster-level covariates X2 and X3: a resample of two distinct
    clusters or fewer makes them collinear with the intercept."""
    cols = _unit(graph)
    cols["C"] = np.arange(240) * groups // 240
    rng = np.random.default_rng(5)
    cols["X2"], cols["X3"] = rng.normal(size=(2, groups))[:, cols["C"]]
    return cols


def _tight(graph):
    """``_unit`` cut to n = p + 2 rows, p the frame's columns: an intercept
    and every column but C."""
    cols = _unit(graph)
    return {name: col[:len(cols) + 2] for name, col in cols.items()}


def _units(graph):
    """``_unit`` with the outcome and placebos in units of 1e11, the
    treatment and X1 in units of 1e-11."""
    cols = _unit(graph)
    for name, unit in (("Y", 1e11), ("P", 1e11), ("N", 1e11), ("D", 1e-11),
                       ("X1", 1e-11)):
        if name in cols:
            cols[name] = unit * cols[name]
    return cols


# Each input: its builder, the cluster column it resamples by (None for
# rows), the seed, and how many of the 100 replicates every path drops, or
# the error every path raises. Of the resamples of 6 clusters at seed 13,
# one holds two clusters or fewer and is dropped; at seed 11 three do, and
# the bootstrap raises. So does every bootstrap of 7 rows, 4 clusters or 5
# clusters; of 7 clusters at seed 14, one resample is dropped.
_INPUTS = {"unit": (_unit, None, 11, 0), "earnings": (_earnings, "C", 11, 0),
           "few_clusters": (_clusters, "C", 13, 1),
           "n_p_plus_2": (_tight, None, 11, BootstrapDegenerate),
           "units_1e11": (_units, None, 11, 0),
           "clusters_4": (functools.partial(_clusters, groups=4), "C", 11,
                          BootstrapDegenerate),
           "clusters_5": (functools.partial(_clusters, groups=5), "C", 11,
                          BootstrapDegenerate),
           "clusters_7": (functools.partial(_clusters, groups=7), "C", 14, 1)}
# The specs each stress input runs: one SF ratio, two, and the double
# placebo.
_STRESS_CASES = [_CASES[0], _CASES[4], _CASES[-1]]
_PARAMS = [(make, *case) for make in _INPUTS
           for case in (_CASES if make in ("unit", "earnings", "few_clusters")
                        else _STRESS_CASES)]


def _spec(graph, role, edges, covariates):
    if role == "double_placebo":
        return DoublePlaceboSpec("Y", "D", "P", "N", covariates)
    return PlaceboSpec("Y", "D", "P", role, covariate_cols=covariates,
                       **edges)


def _definition(spec):
    """(statistic, estimate): ``statistic(rows)`` fits one sample and
    returns its fits; ``estimate(fits, k, direct, sf)`` is the adjusted
    estimate of those fits at (k, direct), at the SF ``sf`` where given."""
    if isinstance(spec, DoublePlaceboSpec):
        def statistic(rows):
            fits = fit_double_shorts(rows, "Y", "D", "P", "N",
                                     spec.covariate_cols)
            check_placebo_pair(fits, spec.beta_np_long)
            return fits

        def estimate(fits, k, direct, sf=None):
            return ovb_estimate(fits.beta_yd, fits.beta_nd, pair_slope(
                fits, spec.beta_yp_long, spec.beta_np_long), k, direct)
        return statistic, estimate
    case = dispatch_case(spec)

    def statistic(rows):
        return case.fit_coefficients(rows), case.sf(rows)

    def estimate(fits, k, direct, sf=None):
        coefs, own_sf = fits
        return case.adjust(coefs, k, direct, own_sf if sf is None else sf)
    return statistic, estimate


def _outcome(run, *args):
    """``run(*args)``, or the class and message of the package error it
    raises: a bootstrap's message counts its dropped replicates by class."""
    try:
        return run(*args)
    except PlmError as exc:
        return type(exc), str(exc)


def _run(data, cfg, varying):
    """(failures, points) of run_table and of run_line along ``varying``
    at ``cfg``, or the error they raise (``_outcome``): a point is (k,
    direct, estimate, SE or None, CI low, CI high), of every table row,
    then of each line point."""
    table = _outcome(run_table, data, cfg)
    line = _outcome(run_line, data, cfg, varying, (0.0, 0.7))
    if isinstance(table, tuple):
        assert line == table
        return table
    assert line.metadata["bootstrap_failures"] == \
        table.metadata["bootstrap_failures"]
    points = [(row.k, row.direct, row.estimate, row.se, row.ci_low,
               row.ci_high) for row in table.rows]
    for fixed, curve in zip(line.fixed_values, line.curves):
        for value, estimate, ci_low, ci_high in curve.tolist():
            k, direct = (value, fixed) if varying == "k" else (fixed, value)
            points.append((k, direct, estimate, None, ci_low, ci_high))
    return table.metadata["bootstrap_failures"], points


def _assert_defined(points, replicates, full, estimate, sf, ci_level):
    """Each point against the estimates of the kept replicates' fits there,
    at the SF ``sf`` where given: within BOUND of the SE and of the CI
    width."""
    alpha = 1.0 - ci_level
    for k, direct, got, se, ci_low, ci_high in points:
        draws = np.array([estimate(fits, k, direct, sf)
                          for fits in replicates])
        want_se = np.std(draws, ddof=1)
        want_lo, want_hi = np.percentile(
            draws, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
        width = want_hi - want_lo
        want = estimate(full, k, direct)
        assert abs(got - want) <= BOUND * want_se, (got, want)
        if se is not None:
            assert abs(se - want_se) <= BOUND * want_se, (se, want_se)
        assert abs(ci_low - want_lo) <= BOUND * width, (ci_low, want_lo)
        assert abs(ci_high - want_hi) <= BOUND * width, (ci_high, want_hi)


def _config(spec, cluster_col, seed):
    return AnalysisConfig(spec=spec, k_range=(-1.5, 2.0),
                          direct_range=(-0.4, 0.6), grid_points_per_axis=2,
                          bootstrap_reps=REPS, seed=seed,
                          cluster_col=cluster_col)


def _replicates(data, cfg, statistic):
    """The fits ``bootstrap()`` keeps, or the error it raises
    (``_outcome``)."""
    kept = []

    def record(rows):
        kept.append(statistic(rows))
        return 0.0

    outcome = _outcome(bootstrap, data, cfg, record)
    return outcome if isinstance(outcome, tuple) else kept


def _small_budget(monkeypatch, units, q):
    """Batches of 30 replicates of a frame of q columns over ``units``, and
    evaluation blocks of 5 points or a few more: each set with a short last
    one."""
    monkeypatch.setattr(regression, "BATCH_BYTES",
                        2 * 30 * (units + 8 * 6 * q * q))
    monkeypatch.setattr(engine, "BATCH_BYTES", 8 * REPS * 5)


@pytest.mark.filterwarnings("ignore::plm.errors.MediatorCautionWarning")
@pytest.mark.parametrize("make, graph, role, edges", _PARAMS,
                         ids=[f"{m}-{g}-{r}" for m, g, r, _ in _PARAMS])
def test_runners_equal_their_definition(monkeypatch, make, graph, role,
                                        edges):
    build, cluster_col, seed, outcome = _INPUTS[make]
    cols = build(graph)
    data = Dataset(cols)
    spec = _spec(graph, role, edges,
                 tuple(name for name in cols if name[0] == "X"))
    statistic, estimate = _definition(spec)
    full = statistic(data)
    cfg = _config(spec, cluster_col, seed)
    replicates = _replicates(data, cfg, statistic)
    # (SF held fixed or None, run): each line along k at the default
    # budget, along the direct effect at the small one and with freeze_sf.
    runs = [(None, _run(data, cfg, "k"))]
    with monkeypatch.context() as patch:
        # The frame: an intercept and every column but C.
        _small_budget(patch, len(np.unique(cols[cluster_col or "Y"])),
                      len(cols))
        runs.append((None, _run(data, cfg, "direct")))
    if role != "double_placebo":
        runs.append((full[1], _run(
            data, dataclasses.replace(cfg, freeze_sf=True), "direct")))
    if isinstance(replicates, tuple):
        assert replicates[0] is outcome
        assert all(run == replicates for _, run in runs)
        return
    assert REPS - len(replicates) == outcome
    for sf, (failures, points) in runs:
        assert failures == outcome
        _assert_defined(points, replicates, full, estimate, sf,
                        cfg.ci_level)


@pytest.mark.parametrize("graph, role, edges", [
    _CASES[0], _CASES[-1]], ids=["a-placebo_outcome", "double_b"])
def test_a_degenerate_bootstrap_raises_on_every_path(monkeypatch, graph,
                                                     role, edges):
    cols = _clusters(graph)
    data = Dataset(cols)
    spec = _spec(graph, role, edges, ("X1", "X2", "X3"))
    cfg = _config(spec, "C", 11)
    statistic = _definition(spec)[0]
    assert _replicates(data, cfg, statistic)[0] is BootstrapDegenerate
    assert _run(data, cfg, "k")[0] is BootstrapDegenerate
    # Each names the cause: the three dropped resamples hold two clusters
    # or fewer, so the cluster-level covariates are collinear with the
    # intercept.
    message = r"^3 of 100 bootstrap replicates failed \(RankDeficient: 3\); "
    for run in (run_table, lambda *args: run_line(*args, "k", (0.0, 0.7)),
                lambda *args: bootstrap(*args, statistic)):
        with pytest.raises(BootstrapDegenerate, match=message):
            run(data, cfg)
    _small_budget(monkeypatch, 6, len(cols))
    assert _run(data, cfg, "direct")[0] is BootstrapDegenerate


@pytest.mark.filterwarnings("ignore::plm.errors.MediatorCautionWarning")
@pytest.mark.parametrize("graph, role, edges", _CASES,
                         ids=[f"{g}-{r}" for g, r, _ in _CASES])
def test_contour_equals_the_full_sample_adjustment(graph, role, edges):
    cols = _earnings(graph)
    data = Dataset(cols)
    spec = _spec(graph, role, edges, ("X1",))
    statistic, estimate = _definition(spec)
    full = statistic(data)
    grid = run_contour(data, AnalysisConfig(spec=spec, k_range=(-1.5, 2.0),
                                            direct_range=(-0.4, 0.6),
                                            grid_points_per_axis=7))
    want = np.array([[estimate(full, k, direct) for direct in
                      grid.direct_values] for k in grid.k_values])
    assert np.all(np.abs(grid.estimates - want)
                  <= BOUND * np.abs(want).max())
