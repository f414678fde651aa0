"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n: PASS/SKIP`` line on the real
terminal (bypassing capture) so a full run shows the gate at a glance.
Criteria 1-3 exercise the two real-data fixtures and skip, with the
printed reason, when those files are not committed; criterion 4 is the
substitution rule that makes the property suite (5-10) the gate in that
situation.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fixture_path, load_fixture
from plm.adjust import PlaceboSpec, dispatch_case, k_from_m, m_from_k
from plm.cli import cli_main
from plm.did import (
    DIDAssumption,
    GroupMeans,
    att,
    dim,
    m_to_w,
    parallel_trends_gap,
    w_to_m,
)
from plm.double import DoubleFormula, DoublePlaceboSpec
from plm.engine import AnalysisConfig, bootstrap, run_line, run_table
from plm.oracle import fit_ols, residual
from plm.regression import Dataset
from plm.selfcheck import double_recovery_error, identity_residual, \
    random_recipe, run_selfcheck
from plm.semiparam import SemiparamInputs, adjust_partially_linear
from plm.simulate import SCMRecipe, simulate_scm

NSW_FILE = "nsw_psid.csv"
ZIKA_FILE = "zika_birth_rates.csv"
NSW_COVARIATES = ("age", "education", "black", "hispanic", "married",
                  "nodegree")


def _report(capsys, number: int, status: str, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d}: {status} - {detail}")


def _skip_missing(capsys, number: int, name: str):
    if fixture_path(name).is_file():
        return
    _report(capsys, number, "SKIP",
            f"fixture {name} not exported (tests/fixtures/README.md); "
            "criteria 5-10 substitute per criterion 4")
    pytest.skip(f"{name} not committed")


def _nsw_spec(data):
    covs = tuple(c for c in NSW_COVARIATES if c in data)
    return PlaceboSpec(outcome_col="re78", treatment_col="treat",
                       placebo_col="re74", role="placebo_outcome",
                       covariate_cols=covs)


def test_acceptance_01_program_table_reproduction(capsys):
    _skip_missing(capsys, 1, NSW_FILE)
    data = load_fixture(NSW_FILE)
    start = time.perf_counter()
    # Quartile grids over these ranges put k at {-1, 0, 1} and the direct
    # effect at {-7500, 0, 7500}.
    cfg = AnalysisConfig(spec=_nsw_spec(data), k_range=(-2.0, 2.0),
                         direct_range=(-15000.0, 15000.0),
                         grid_points_per_axis=3, bootstrap_reps=1000,
                         seed=0)
    table = run_table(data, cfg)
    elapsed = time.perf_counter() - start
    rows = {row.label: row for row in table.rows if row.label != "Grid"}
    assert rows["SOO"].estimate == pytest.approx(-5928.11, abs=0.5)
    assert abs(rows["SOO"].se / 822.57 - 1.0) <= 0.15
    assert rows["Standard DID"].k == pytest.approx(0.845, abs=0.001)
    assert rows["Standard DID"].estimate == pytest.approx(1718.01, abs=0.5)
    assert rows["k=1 DID"].estimate == pytest.approx(3115.31, abs=0.5)
    grid = {(round(r.k, 6), round(r.direct, 6)): r.estimate
            for r in table.rows if r.label == "Grid"}
    assert grid[(-1.0, 0.0)] == pytest.approx(-14971.53, abs=0.5)
    assert grid[(1.0, 7500.0)] == pytest.approx(11985.91, abs=0.5)
    for (k, _), estimate in grid.items():
        if k == 0.0:
            assert estimate == pytest.approx(-5928.11, abs=0.5)
    assert elapsed < 30.0
    _report(capsys, 1, "PASS",
            f"table values within +/-0.5, SEs within 15%, {elapsed:.1f}s")


def test_acceptance_02_program_narrative_band(capsys):
    _skip_missing(capsys, 2, NSW_FILE)
    data = load_fixture(NSW_FILE)
    cfg = AnalysisConfig(spec=_nsw_spec(data), k_range=(0.0, 2.0),
                         direct_range=(0.0, 0.0), grid_points_per_axis=201,
                         bootstrap_reps=100, seed=0)
    line = run_line(data, cfg, varying="k")
    curve = line.curves[0]
    at = lambda k: curve[np.argmin(np.abs(curve[:, 0] - k)), 1]
    assert abs(at(2.0 / 3.0)) <= 500.0
    assert at(1.5) == pytest.approx(8000.0, abs=500.0)
    _report(capsys, 2, "PASS",
            "estimates ~0 at k~2/3 and ~8000 at k=1.5 (+/-500)")


def test_acceptance_03_outbreak_reproduction(capsys):
    _skip_missing(capsys, 3, ZIKA_FILE)
    data = load_fixture(ZIKA_FILE)
    means = GroupMeans.from_data(data, outcome="birth_rate_2016",
                                 placebo="birth_rate_2014",
                                 group="treated")
    assert dim(means)["dim_Y"] == pytest.approx(3.4, abs=0.1)
    assert -1.35 <= att(means, DIDAssumption(m=1.0)) <= -1.15
    spec = PlaceboSpec(outcome_col="birth_rate_2016",
                       treatment_col="treated",
                       placebo_col="birth_rate_2014",
                       role="placebo_outcome")
    case = dispatch_case(spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    assert -1.35 <= case.adjust(coefs, 1.0, 0.0, sf) <= -1.15
    k_flip = coefs.target / (coefs.placebo * sf)
    assert k_flip == pytest.approx(0.70, abs=0.07)
    assert case.adjust(coefs, 1.2, 0.0, sf) == pytest.approx(-2.0,
                                                             abs=0.15)
    _report(capsys, 3, "PASS",
            "DIM +3.4, DID band, sign flip near k=0.70, -2.0 at k=1.2")


def test_acceptance_04_substitution_rule(capsys):
    missing = [name for name in (NSW_FILE, ZIKA_FILE)
               if not fixture_path(name).is_file()]
    if missing:
        detail = (f"fixtures {missing} absent, so criteria 1-3 skip and "
                  "the property suite (criteria 5-10) is the gate")
    else:
        detail = "both fixtures present; criteria 1-3 ran directly"
    _report(capsys, 4, "PASS", detail)


def test_acceptance_05_recovery_identity_suite(capsys):
    start = time.perf_counter()
    report = run_selfcheck(seed=1, draws=100)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert report.max_recovery_error <= 1e-8
    assert report.max_double_error <= 1e-8
    assert report.max_identity_residual <= 1e-8
    assert elapsed < 60.0
    _report(capsys, 5, "PASS",
            f"100 draws/case, max recovery {report.max_recovery_error:.1e},"
            f" double {report.max_double_error:.1e}, {elapsed:.1f}s")


def test_acceptance_06_algebraic_identities(capsys):
    rng = np.random.default_rng(6)
    # m <-> k round trip at 1e-12.
    for sf in (0.3, 1.1827, 4.0):
        for k in (-2.0, -0.5, 0.0, 0.845, 3.0):
            assert abs(k_from_m(m_from_k(k, sf), sf) - k) <= 1e-12
    # m <-> w round trip at 1e-10.
    for _ in range(50):
        means = GroupMeans(*(rng.uniform(1.0, 10.0, size=4)))
        for att_n in (0.0, 0.7):
            for m in (-1.0, 0.0, 0.5, 1.0, 2.0):
                w = m_to_w(m, means, att_n=att_n)
                assert abs(w_to_m(w, means, att_n=att_n) - m) <= 1e-10
    # Bias factorization residual at 1e-8 over 100 simulations.
    worst = max(identity_residual(seed=i, z_dim=i % 3 + 1)
                for i in range(100))
    assert worst <= 1e-8
    # Partialled-out slope equals the multivariate coefficient at 1e-9.
    for seed in range(20):
        data = simulate_scm(random_recipe("b", seed=seed, n=200, z_dim=2))
        direct_coef = fit_ols(data, "Y", ("D", "P", "Z1", "Z2")).coef("D")
        ry = residual(data, "Y", ("P", "Z1", "Z2"))
        rd = residual(data, "D", ("P", "Z1", "Z2"))
        slope = float(ry @ rd / (rd @ rd))
        assert abs(slope - direct_coef) <= 1e-9 * max(1.0,
                                                      abs(direct_coef))
    # att at m=1 is exactly the difference of the two group contrasts.
    for _ in range(20):
        means = GroupMeans(*(rng.uniform(-5.0, 5.0, size=4)))
        d = dim(means)
        assert att(means, DIDAssumption(m=1.0)) == d["dim_Y"] - d["dim_N"]
        gap = parallel_trends_gap(means)
        assert gap["bias_Y_minus_bias_N"] == pytest.approx(
            att(means, DIDAssumption(m=1.0)), abs=1e-12)
    # Group-mean DID agrees with the regression route at 1e-10.
    rng_b = np.random.default_rng(42)
    g = (rng_b.random(400) < 0.5).astype(float)
    y = 2.0 + 1.5 * g + rng_b.normal(size=400)
    n = 0.5 + 0.8 * g + rng_b.normal(size=400)
    data = Dataset({"G": g, "Y": y, "N": n})
    means = GroupMeans.from_data(data, outcome="Y", placebo="N", group="G")
    spec = PlaceboSpec(outcome_col="Y", treatment_col="G",
                       placebo_col="N", role="placebo_outcome")
    case = dispatch_case(spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    for m in (0.0, 0.5, 1.0, 1.7):
        from_means = att(means, DIDAssumption(m=m))
        from_fit = case.adjust(coefs, k_from_m(m, sf), 0.0, sf)
        assert abs(from_means - from_fit) <= 1e-10
    _report(capsys, 6, "PASS",
            "m<->k 1e-12, m<->w 1e-10, factorization 1e-8 x100, "
            "partialling 1e-9, DID bridge 1e-10")


def test_acceptance_07_double_placebo_point_identification(capsys):
    worst = max(
        double_recovery_error(graph, seed=seed, z_dim=1,
                              point_identified=True)
        for graph in ("double_a", "double_b")
        for seed in range(25)
    )
    assert worst <= 1e-8
    # Negative control: two hidden drivers with unequal loadings break the
    # product-equal-one shortcut even with the true imperfections supplied.
    recipe = SCMRecipe(
        n=400, graph_case="double_a", z_dim=2,
        coefficients={"z->y": (1.4, 0.2), "z->n": (0.2, 1.4),
                      "z->d": (0.9, 0.8), "z->p": (0.3, 1.2),
                      "d->y": 1.0},
        seed=13,
    )
    data = simulate_scm(recipe)
    long_y = fit_ols(data, "Y", ("D", "P", "Z1", "Z2"))
    long_n = fit_ols(data, "N", ("D", "P", "Z1", "Z2"))
    formula = DoubleFormula(DoublePlaceboSpec(
        "Y", "D", "P", "N", beta_yp_long=long_y.coef("P"),
        beta_np_long=long_n.coef("P")))
    got = formula.adjust(formula.fit_coefficients(data), 1.0,
                         long_n.coef("D"))
    miss = abs(got - long_y.coef("D"))
    assert miss >= 10 * 1e-8
    _report(capsys, 7, "PASS",
            f"single-Z recovery {worst:.1e}; unequal-loading control "
            f"misses by {miss:.1e} (>=1e-7)")


def test_acceptance_08_semiparametric_reduction(capsys):
    worst = 0.0
    for seed in range(20):
        data = simulate_scm(random_recipe("b", seed=100 + seed, n=250))
        spec = PlaceboSpec(outcome_col="Y", treatment_col="D",
                           placebo_col="P", role="placebo_outcome",
                           edge_d_to_p=True)
        case = dispatch_case(spec)
        coefs = case.fit_coefficients(data)
        sf = case.sf(data)
        rng = np.random.default_rng(seed)
        k_lin = float(rng.uniform(-2.0, 2.0))
        direct = float(rng.uniform(-0.5, 0.5))
        inputs = SemiparamInputs(
            theta_s_y=coefs.target, theta_s_n=coefs.placebo,
            theta_l_n=direct, k=k_lin ** 2, gamma=1.0,
            s2_y=sf ** 2, s2_n=1.0,
            sign_m=-1 if k_lin < 0 else 1,
        )
        linear = case.adjust(coefs, k_lin, direct, sf)
        gap = abs(adjust_partially_linear(inputs) - linear)
        worst = max(worst, gap / max(1.0, abs(linear)))
    assert worst <= 1e-8
    _report(capsys, 8, "PASS",
            f"20 linear draws, max relative gap {worst:.1e}")


def test_acceptance_09_byte_identical_outputs(capsys, tmp_path):
    from plm.io import write_dataset_csv
    data = simulate_scm(random_recipe("b", seed=3, n=250))
    write_dataset_csv(data, tmp_path / "data.csv")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data_path": "data.csv",
        "outcome": "Y", "treatment": "D", "placebo": "P",
        "role": "placebo_outcome", "edges": {"d_to_p": True},
        "direct": [-1.0, 1.0], "grid": 5,
        "bootstrap": {"reps": 120, "seed": 11},
        "outputs": {"table": "table.csv", "contour": "contour.csv",
                    "line": "line.csv"},
    }), encoding="utf-8")

    def run_all():
        for kind in ("table", "contour", "line"):
            assert cli_main([kind, "--config", str(config)]) == 0
        return {name: (tmp_path / name).read_bytes()
                for name in ("table.csv", "contour.csv", "contour.json",
                             "line.csv")}

    first = run_all()
    assert run_all() == first
    capsys.readouterr()
    _report(capsys, 9, "PASS",
            "table/contour/line bytes identical across reruns")


def test_acceptance_10_bootstrap_calibration(capsys):
    n = 10_000
    truth, sd = 3.0, 2.0
    statistic = lambda d: float(d["x"].mean())
    data = Dataset({"x": np.random.default_rng(2026).normal(truth, sd, n)})
    out = bootstrap(data, AnalysisConfig(bootstrap_reps=1000, seed=0),
                    statistic)
    analytic = sd / np.sqrt(n)
    se_ratio = out["se"] / analytic
    assert abs(se_ratio - 1.0) <= 0.10
    covered = 0
    for trial in range(200):
        rng = np.random.default_rng(10_000 + trial)
        tdata = Dataset({"x": rng.normal(truth, sd, n)})
        res = bootstrap(tdata,
                        AnalysisConfig(bootstrap_reps=600, seed=trial,
                                       ci_level=0.95),
                        statistic)
        lo, hi = res["ci"]
        covered += int(lo <= truth <= hi)
    assert covered >= 186, f"coverage {covered}/200 below 93%"
    _report(capsys, 10, "PASS",
            f"SE ratio {se_ratio:.3f} (within 10%), CI coverage "
            f"{covered}/200 at nominal 95%")
