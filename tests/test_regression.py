"""The least-squares kernel, and the oracle's fits and bias
decompositions."""

import tracemalloc

import numpy as np
import pytest

from plm import oracle, regression
from plm.errors import (
    DegenerateResidual,
    DenominatorNearZero,
    NonFiniteValue,
    RankDeficient,
    TooFewRows,
    UnknownColumn,
)
from plm.oracle import (
    bias_decomposition_oracle,
    cohens_f,
    fit_ols,
    partial_corr,
    residual,
    verify_bias_factor_identity,
)
from plm.regression import (
    Dataset,
    ScaledColumns,
    guard_residual_norm,
    least_squares,
)
from plm.selfcheck import random_recipe
from plm.simulate import simulate_scm


def test_dataset_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        Dataset({"a": [1.0, np.nan, 3.0]})
    with pytest.raises(NonFiniteValue):
        Dataset({"a": [1.0, np.inf]})


def test_dataset_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Dataset({"a": [1.0, 2.0], "b": [1.0]})


def test_dataset_copies_the_callers_arrays():
    values = np.array([1.0, 2.0, 3.0])
    strided = np.arange(6.0).reshape(3, 2)[:, 1]
    data = Dataset({"a": values, "b": strided, "c": [4.0, 5.0, 6.0]})
    values[0] = 99.0
    strided[0] = 99.0
    assert data["a"].tolist() == [1.0, 2.0, 3.0]
    assert data["b"].tolist() == [1.0, 3.0, 5.0]
    assert not data["a"].flags.writeable


@pytest.mark.parametrize("unit, offset", [(1e155, 0.0), (1e300, 0.0),
                                          (1e308, 1.2)])
def test_a_huge_column_standardizes_without_overflow(unit, offset):
    # At 1e155 the squares overflow, and at 1e308 around 1.2 the sum too:
    # the frame is that of the column in units of ``unit``, and no
    # RuntimeWarning (an error under this suite) is raised.
    values = np.random.default_rng(3).normal(size=60)
    if offset:
        values = offset + 0.1 * values
    small = ScaledColumns({"D": values})
    huge = ScaledColumns({"D": values * unit})
    assert huge.zt[1] == pytest.approx(small.zt[1], rel=1e-12, abs=1e-12)
    assert huge.scale[1] == pytest.approx(small.scale[1] * unit, rel=1e-12)
    assert huge.mean[1] == pytest.approx(small.mean[1] * unit, rel=1e-12,
                                         abs=1e-12 * unit)


def test_a_design_that_cannot_be_solved_is_rank_deficient():
    # A column standardized to zeros at an infinite SD, as a column of
    # 1e155s once was: no rank rule sees it, and the triangular solve
    # fails.
    rng = np.random.default_rng(4)
    frame = ScaledColumns({"y": rng.normal(size=30),
                           "d": rng.normal(size=30)})
    frame.zt[2] = 0.0
    frame.scale[2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            RankDeficient, match=r"^design on \['d'\] cannot be solved"):
        least_squares(frame, frame.factor(), ("d",), ("y",))


def test_dataset_take_resamples_rows():
    data = Dataset({"a": [1.0, 2.0, 3.0]})
    sub = data.take([2, 0, 2])
    assert sub.n_rows == 3
    assert sub["a"].tolist() == [3.0, 1.0, 3.0]
    assert not sub["a"].flags.writeable


@pytest.mark.parametrize("columns, message", [
    ({}, "dataset needs at least one column"),
    ({"": [1.0]}, "column names must be non-empty strings"),
    ({1: [1.0]}, "column names must be non-empty strings"),
    ({"a": [[1.0, 2.0], [3.0, 4.0]]}, "column 'a' is not one-dimensional"),
    ({"a": [], "b": []}, "dataset needs at least one row"),
], ids=["no-columns", "empty-name", "non-string-name", "two-d", "no-rows"])
def test_dataset_refuses_a_malformed_table(columns, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(columns)


def test_dataset_take_of_no_rows_is_refused():
    # As Dataset() itself refuses a table with no rows.
    with pytest.raises(ValueError, match="^dataset needs at least one row$"):
        Dataset({"a": [1.0, 2.0]}).take([])


def test_noise_free_linear_fit_is_exact():
    d = np.array([0.0, 1.0] * 5)
    data = Dataset({"y": 2.0 * d, "d": d})
    fit = fit_ols(data, "y", ["d"])
    assert fit.coef("d") == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_constant_response_gives_zero_slopes():
    rng = np.random.default_rng(3)
    data = Dataset({"y": np.full(30, 7.25), "x": rng.standard_normal(30)})
    fit = fit_ols(data, "y", ["x"])
    assert fit.coef("x") == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(7.25, abs=1e-12)


def test_matches_high_precision_normal_equations():
    # Expected values computed once with 50-digit arithmetic on the exact
    # same draw: explicit solve of (X'X) b = X'y, intercept included.
    rng = np.random.default_rng(20260822)
    x = rng.standard_normal((200, 4))
    beta_true = np.array([1.5, -2.0, 0.0, 0.75])
    y = 3.0 + x @ beta_true + rng.standard_normal(200)
    data = Dataset(
        {"y": y, "x1": x[:, 0], "x2": x[:, 1], "x3": x[:, 2], "x4": x[:, 3]}
    )
    fit = fit_ols(data, "y", ["x1", "x2", "x3", "x4"])
    expected = {
        "x1": 1.6052864998758861631,
        "x2": -2.0387088156415741174,
        "x3": 0.089964300594232821728,
        "x4": 0.73996537494520189447,
    }
    assert fit.intercept == pytest.approx(3.0816799727769018184, rel=1e-9)
    for name, value in expected.items():
        assert fit.coef(name) == pytest.approx(value, rel=1e-9)


def test_fit_errors():
    data = Dataset({"y": [1.0, 2.0, 3.0], "x": [0.0, 1.0, 2.0]})
    with pytest.raises(UnknownColumn):
        fit_ols(data, "y", ["missing"])
    with pytest.raises(TooFewRows):
        fit_ols(Dataset({"y": [1.0, 2.0], "x": [0.0, 1.0]}), "y", ["x"])
    dup = Dataset({"y": [1.0, 2.0, 3.0, 4.0], "a": [1.0, 2.0, 3.0, 4.0],
                   "b": [2.0, 4.0, 6.0, 8.0]})
    with pytest.raises(RankDeficient):
        fit_ols(dup, "y", ["a", "b"])


def _slope_data(n=300, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x, 1.0 + 2.04 * x + rng.standard_normal(n)


@pytest.mark.parametrize("units", [1e11, 1e-11])
def test_slope_and_se_do_not_depend_on_the_regressors_units(units):
    # The reference is lstsq at unit scale, rescaled: the rank rule and the
    # fit see standardized columns, so the units change nothing else. The
    # residual norm, from which an SE is built, is in the response's units.
    x, y = _slope_data()
    design = np.column_stack([np.ones(x.size), x])
    beta, rss = np.linalg.lstsq(design, y, rcond=None)[:2]
    frame = ScaledColumns({"y": y, "x": x * units})
    slopes, l2, _ = least_squares(frame, frame.factor(), ["x"], ["y"])
    assert slopes[1, 0] * units == pytest.approx(beta[1], rel=1e-8)
    assert l2[0] == pytest.approx(np.sqrt(rss[0]), rel=1e-8)


@pytest.mark.parametrize("n", [300, 2675])
@pytest.mark.parametrize("value", [0.1, 1e4 + 0.1, 7.77e-3])
@pytest.mark.parametrize("jitter", [False, True])
def test_regressor_constant_up_to_rounding_is_rank_deficient(n, value,
                                                             jitter):
    # np.std(np.full(300, 0.1)) is 1.4e-17, not 0. With ``jitter`` half the
    # rows sit one ulp higher: rounding-level spread that, scaled to unit SD,
    # would be a full-rank column of noise.
    x, y = _slope_data(n)
    w = np.full(n, value)
    if jitter:
        w[np.random.default_rng(2).random(n) < 0.5] += np.spacing(value)
    frame = ScaledColumns({"y": y, "x": x, "w": w})
    with pytest.raises(RankDeficient):
        least_squares(frame, frame.factor(), ["x", "w"], ["y"])


def test_near_constant_regressor_is_refused_only_below_the_rank_rule():
    # A regressor 1e6 + 1e6 * rho * noise has SD rho of its RMS.
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(300)
    for rho, recovered in ((1e-11, False), (1e-9, True)):
        x = 1e6 + 1e6 * rho * noise
        y = 3.0 + 2.04 * noise + rng.standard_normal(300)
        frame = ScaledColumns({"y": y, "x": x})
        if not recovered:
            with pytest.raises(RankDeficient):
                least_squares(frame, frame.factor(), ["x"], ["y"])
            continue
        # x - mean(x) is exact, so lstsq on the centred column is the
        # reference.
        design = np.column_stack([np.ones(300), x - x.mean()])
        want = np.linalg.lstsq(design, y, rcond=None)[0][1]
        beta = least_squares(frame, frame.factor(), ["x"], ["y"])[0]
        assert beta[1, 0] == pytest.approx(want, rel=1e-8)


def _lstsq(columns, response, regressors):
    """(slopes, residual norm) by numpy lstsq on centred regressors."""
    design = np.column_stack([np.ones(len(columns[response]))]
                             + [columns[name] - columns[name].mean()
                                for name in regressors])
    beta, rss = np.linalg.lstsq(design, columns[response], rcond=None)[:2]
    return beta[1:], np.sqrt(rss[0])


def test_near_constant_response_keeps_its_slope():
    # w has SD 1e-11 of its RMS: constant as a regressor, but as a response
    # it keeps QR's slope of about 5e-11 in a run's frame, as the oracle's
    # lstsq fit does.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(400)
    cols = {"x": x, "w": 5.0 + 5e-11 * (rng.standard_normal(400) + x)}
    # w - 5 is exact, so lstsq on it is the reference.
    want = _lstsq({"x": x, "w": cols["w"] - 5.0}, "w", ["x"])[0][0]
    assert want == pytest.approx(5e-11, rel=0.2)
    frame = ScaledColumns(cols)
    r = frame.factor()
    beta = least_squares(frame, r, ["x"], ["w"])[0]
    assert beta[1, 0] == pytest.approx(want, rel=1e-8)
    assert fit_ols(Dataset(cols), "w", ["x"]).coef("x") == pytest.approx(
        want, rel=1e-8)
    with pytest.raises(RankDeficient):
        least_squares(frame, r, ["w"], ["x"])


def test_designs_of_one_frame_ignore_the_columns_they_exclude():
    # One frame holds a constant column c and x3 = x1 + x2 exactly: the
    # designs that leave them out fit as lstsq does, and the designs that
    # take them in are refused, as a frame of their own columns refuses them.
    rng = np.random.default_rng(8)
    x1 = 25.0 + 7.0 * rng.standard_normal(300)
    x2 = 1e4 + 3000.0 * rng.standard_normal(300)
    y = 1e4 + 60.0 * x1 + 0.3 * x2 + 4000.0 * rng.standard_normal(300)
    cols = {"y": y, "x1": x1, "c": np.full(300, 7.77e-3), "x2": x2,
            "x3": x1 + x2, "e": 2.0 + 3.0 * x1 - x2}
    frame = ScaledColumns(cols)
    r = frame.factor()
    for design in (["x1"], ["x2"], ["x1", "x2"]):
        beta, l2, y_l2 = least_squares(frame, r, design, ["y"])
        slopes, norm = _lstsq(cols, "y", design)
        assert beta[1:, 0] == pytest.approx(slopes, rel=1e-10)
        assert l2[0] == pytest.approx(norm, rel=1e-10)
        assert y_l2[0] == pytest.approx(np.linalg.norm(cols["y"]), rel=1e-12)
    for design in (["c"], ["x1", "c"], ["x1", "x2", "x3"]):
        with pytest.raises(RankDeficient):
            least_squares(frame, r, design, ["y"])
        own = ScaledColumns(cols, ["y", *design])
        with pytest.raises(RankDeficient):
            least_squares(own, own.factor(), design, ["y"])
    # An exact combination as a response: a residual of rounding only.
    _, l2, y_l2 = least_squares(frame, r, ["x1", "x2"], ["e"])
    with pytest.raises(DegenerateResidual):
        guard_residual_norm(l2[0], y_l2[0], "e", ["x1", "x2"])
    # Three rows for the three coefficients of y ~ x1 + x2.
    with pytest.raises(TooFewRows):
        least_squares(frame, frame.factor(np.arange(3)), ["x1", "x2"],
                      ["y"])
    least_squares(frame, frame.factor(np.arange(4)), ["x1", "x2"], ["y"])


def _mixed_scale_frame(rows, q=10, seed=0):
    """A frame of q - 1 columns (q with the intercept) in units from 1 to
    1e8, each with its own offset."""
    rng = np.random.default_rng(seed)
    return ScaledColumns({f"x{j}": 10.0 ** j * rng.standard_normal(rows) + j
                          for j in range(q - 1)})


def _assert_same_r(r, rows):
    """``r`` is R of np.linalg.qr of ``rows`` up to the signs of its rows,
    to 1e-13 of each column's norm."""
    want = np.linalg.qr(rows, mode="r")
    assert r.shape == want.shape
    signs = np.sign(np.diag(r)) * np.sign(np.diag(want))
    tol = 1e-13 * np.linalg.norm(rows, axis=0)
    assert (np.abs(r * signs[:, None] - want) <= tol).all()


def test_blocked_factor_matches_one_qr():
    q = 10
    block = regression._qr_block(q)
    assert block * q <= 8192 and block >= 2 * q
    frame = _mixed_scale_frame(100_000, q)
    for rows in (1, q - 1, q, block - 1, block, block + 1, 3 * block + 7,
                 100_000):
        _assert_same_r(frame.factor(slice(rows)), frame.zt[:, :rows].T)
    _assert_same_r(frame.factor(), frame.zt.T)
    # A resample's rows, some drawn more than once.
    idx = np.random.default_rng(1).integers(0, 100_000, 3 * block + 7)
    idx[:40] = idx[40]
    _assert_same_r(frame.factor(idx), frame.zt[:, idx].T)


@pytest.mark.parametrize("batch", [1, 2, 16, 17, 40])
def test_gram_sub_products_match_one_product(batch):
    # Groups of 16 resamples, the rest together (a lone one's product is a
    # dgemv), each over steps of a few hundred rows: the sums reorder, the
    # Gram matrices stay those of one product to rounding.
    frame = _mixed_scale_frame(5000)
    counts = np.random.default_rng(batch).integers(0, 4, (batch, 5000),
                                                   dtype=np.uint8)
    want = np.einsum("bu,iu,ju->bij", counts.astype(float), frame.zt,
                     frame.zt)
    diag = np.sqrt(np.diagonal(want, axis1=1, axis2=2))
    scale = diag[:, :, None] * diag[:, None, :]
    assert np.all(np.abs(frame.grams(counts) - want) <= 1e-12 * scale)


def test_blocked_factor_makes_no_copy_of_the_frame():
    # One np.linalg.qr of the rows copies all of them (a resample's rows
    # twice, gathered and then copied). The blocked factor reads the frame
    # in place, half of BATCH_BYTES of rows at a time, and gathers a
    # resample's rows as it goes.
    rows, q = 200_000, 10
    frame = _mixed_scale_frame(rows, q)
    copy = rows * q * 8
    for idx, bound in ((slice(None), copy / 3),
                       (np.arange(rows)[::-1], 0.75 * copy)):
        tracemalloc.start()
        try:
            frame.factor(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, copy)


def test_fwl_residual_on_residual_matches_joint_fit():
    rng = np.random.default_rng(8)
    x1 = rng.standard_normal(150)
    x2 = rng.standard_normal(150)
    d = 0.6 * x1 - 0.2 * x2 + rng.standard_normal(150)
    y = 1.5 * d + x1 + 0.5 * x2 + rng.standard_normal(150)
    data = Dataset({"y": y, "d": d, "x1": x1, "x2": x2})
    joint = fit_ols(data, "y", ["d", "x1", "x2"]).coef("d")
    ry = residual(data, "y", ["x1", "x2"])
    rd = residual(data, "d", ["x1", "x2"])
    slope = float(ry @ rd / (rd @ rd))
    assert slope == pytest.approx(joint, rel=1e-9)


def _single_z_scm(n, seed, gamma_y=2.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    d = z + rng.standard_normal(n)
    y = d + gamma_y * z + rng.standard_normal(n)
    return Dataset({"y": y, "d": d, "z": z})


def test_bias_decomposition_zero_coefficient_z():
    rng = np.random.default_rng(9)
    n = 5000
    z = rng.standard_normal(n)
    d = rng.standard_normal(n)
    y = d + rng.standard_normal(n)
    data = Dataset({"y": y, "d": d, "z": z})
    dec = bias_decomposition_oracle(data, "y", "d", [], ["z"])
    assert abs(dec.bias) < 0.1
    assert dec.bias == pytest.approx(dec.short_coef - dec.long_coef, abs=1e-12)
    assert dec.product == pytest.approx(dec.bias, abs=1e-8)


def test_bias_decomposition_single_z_identity():
    data = _single_z_scm(100_000, 10)
    dec = bias_decomposition_oracle(data, "y", "d", [], ["z"])
    assert dec.bias == pytest.approx(dec.short_coef - dec.long_coef, rel=1e-12)
    assert dec.product == pytest.approx(dec.bias, rel=1e-8)
    # With D = Z + e and Y = D + 2Z + u the population gap is 1.0.
    assert dec.bias == pytest.approx(1.0, abs=0.05)


def test_bias_decomposition_two_z_uses_fitted_combination():
    rng = np.random.default_rng(12)
    n = 20_000
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    d = z1 - 0.5 * z2 + rng.standard_normal(n)
    y = 0.8 * d + 2.0 * z1 + 1.0 * z2 + rng.standard_normal(n)
    data = Dataset({"y": y, "d": d, "z1": z1, "z2": z2})
    dec = bias_decomposition_oracle(data, "y", "d", [], ["z1", "z2"])
    assert dec.product == pytest.approx(dec.bias, rel=1e-8)


@pytest.mark.parametrize("scale", [1e-14, 1e14])
def test_bias_decomposition_is_unit_free_in_the_outcome(scale):
    data = simulate_scm(random_recipe("a", 3, n=300))
    unit = bias_decomposition_oracle(data, "Y", "D", [], ["Z1"])
    rescaled = Dataset({name: data[name] * (scale if name == "Y" else 1.0)
                        for name in data.names})
    dec = bias_decomposition_oracle(rescaled, "Y", "D", [], ["Z1"])
    assert dec.product == pytest.approx(dec.bias, rel=1e-8)
    assert dec.partial_corr == pytest.approx(unit.partial_corr, rel=1e-8)
    assert dec.cohens_f == pytest.approx(unit.cohens_f, rel=1e-8)


def test_identity_residual_small_on_simulated_data():
    for seed in (21, 22, 23):
        data = _single_z_scm(4000, seed)
        resid = verify_bias_factor_identity(data, "y", "d", [], ["z"])
        assert abs(resid) <= 1e-8


def test_identity_scale_free_in_outcome():
    data = _single_z_scm(4000, 24)
    scaled = Dataset({"y": 10.0 * data["y"], "d": data["d"], "z": data["z"]})
    assert abs(verify_bias_factor_identity(scaled, "y", "d", [], ["z"])) <= 1e-8


def test_identity_raises_when_z_unrelated_to_treatment():
    rng = np.random.default_rng(25)
    n = 500
    d = rng.standard_normal(n)
    z_raw = rng.standard_normal(n)
    # Construct z exactly orthogonal to the intercept and to d.
    design = np.column_stack([np.ones(n), d])
    z = z_raw - design @ np.linalg.lstsq(design, z_raw, rcond=None)[0]
    y = d + z + rng.standard_normal(n)
    data = Dataset({"y": y, "d": d, "z": z})
    with pytest.raises(DenominatorNearZero):
        verify_bias_factor_identity(data, "y", "d", [], ["z"])


def test_identity_gives_the_confounder_combination_by_value(monkeypatch):
    # The fitted combination of Z enters the last partial correlation as a
    # vector: no copy of the data set is made to give it a column name.
    data = _single_z_scm(500, 26)
    want = verify_bias_factor_identity(data, "y", "d", [], ["z"])

    def no_copy(columns):
        raise AssertionError("the data set was copied")

    monkeypatch.setattr(oracle, "Dataset", no_copy)
    assert verify_bias_factor_identity(data, "y", "d", [], ["z"]) == want


def test_partial_corr_takes_a_vector_wherever_it_takes_a_name():
    data = simulate_scm(random_recipe("a", 3, n=200, z_dim=2))
    want = partial_corr(data, "Y", "D", ("Z1", "Z2"))
    for a, b, given in (("Y", "D", (data["Z1"], "Z2")),
                        ("Y", "D", ("Z1", data["Z2"].copy())),
                        (data["Y"], "D", ("Z1", "Z2")),
                        ("Y", data["D"], (data["Z1"], data["Z2"]))):
        assert partial_corr(data, a, b, given) == want


def test_partial_corr_and_cohens_f():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(3000)
    b = 0.5 * a + rng.standard_normal(3000)
    data = Dataset({"a": a, "b": b})
    r = partial_corr(data, "a", "b", [])
    expected = np.corrcoef(a, b)[0, 1]
    assert r == pytest.approx(expected, rel=1e-10)
    assert cohens_f(0.6) == pytest.approx(0.6 / np.sqrt(1 - 0.36), rel=1e-12)
    with pytest.raises(DenominatorNearZero):
        cohens_f(1.0)


def test_partial_corr_zero_residual_is_relative_to_the_data_scale():
    # Earnings-scale columns: the residual of A = 3 X1 - 2 X2 on (X1, X2)
    # is rounding noise far above 1e-12, and its cosine with B means nothing.
    rng = np.random.default_rng(0)
    x1, x2, b, noise = 1e4 + 1e4 * rng.standard_normal((4, 200))
    data = Dataset({"X1": x1, "X2": x2, "A": 3 * x1 - 2 * x2, "B": b,
                    "A2": 3 * x1 - 2 * x2 + noise})
    with pytest.raises(DenominatorNearZero):
        partial_corr(data, "A", "B", ("X1", "X2"))
    with pytest.raises(DenominatorNearZero):
        partial_corr(data, "B", "A", ("X1", "X2"))
    # A real residual at the same scale still gives its correlation.
    design = np.column_stack([np.ones(200), x1, x2])
    ra, rb = (y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
              for y in (data["A2"], b))
    expected = ra @ rb / (np.linalg.norm(ra) * np.linalg.norm(rb))
    assert partial_corr(data, "A2", "B", ("X1", "X2")) == pytest.approx(
        expected, rel=1e-9)
