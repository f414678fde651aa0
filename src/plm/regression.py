"""Dense OLS with QR, residualization, and bias decompositions.

This module is the numeric foundation for everything else: every adjustment
formula in the package is assembled from short-regression coefficients and
residual norms computed here. It also houses the oracle-side decomposition of
omitted variable bias used to validate the adjustment formulas on simulated
data where the confounders are observed.

Conventions
-----------
* An intercept is always included in every fit and never reported among the
  slope coefficients; it is available separately as ``FitSummary.intercept``.
* Standard errors are classical (homoskedastic). Inference in the rest of the
  package comes from the bootstrap, not from these.
* Sample standard deviations use the n-1 denominator. Ratio quantities are
  built from L2 norms of residuals so that common denominators cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    DegenerateResidual,
    DivisionByNearZero,
    NonFiniteValue,
    RankDeficient,
    TooFewRows,
    UnknownColumn,
)

# The package's tolerances: RANK_TOL bounds the smallest |R_ii| of a design
# relative to the largest; NEAR_ZERO is the size, relative to the natural
# scale where one exists, below which a norm, gap, or denominator is zero.
# GRAM_TOL bounds where a Gram solve is trusted to match QR (see
# gram_least_squares).
RANK_TOL = 1e-10
NEAR_ZERO = 1e-12
GRAM_TOL = 1e-2


class Dataset:
    """Immutable table of named numeric columns.

    Parameters
    ----------
    columns : mapping of str to array-like
        Column name to vector of observations. All vectors must have the
        same length (at least one row), names must be unique and non-empty,
        and every value must be finite.

    Raises
    ------
    ValueError
        Empty table, empty column name, or unequal column lengths.
    NonFiniteValue
        Any NaN or infinite entry.
    """

    __slots__ = ("_columns", "n_rows")

    def __init__(self, columns):
        cleaned: dict[str, np.ndarray] = {}
        n_rows = None
        if not columns:
            raise ValueError("dataset needs at least one column")
        for name, values in dict(columns).items():
            if not isinstance(name, str) or not name:
                raise ValueError("column names must be non-empty strings")
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not one-dimensional")
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n_rows}"
                )
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise NonFiniteValue(
                    f"column {name!r} has a non-finite value at row {bad + 1}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            cleaned[name] = arr
        if n_rows is None or n_rows < 1:
            raise ValueError("dataset needs at least one row")
        self._columns = cleaned
        self.n_rows = n_rows

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(
                f"column {name!r} not in dataset (has: {', '.join(self._columns)})"
            ) from None

    def __len__(self) -> int:
        return self.n_rows

    def take(self, indices) -> "Dataset":
        """Row subset/resample by integer indices, skipping re-validation."""
        idx = np.asarray(indices, dtype=np.intp)
        out = object.__new__(Dataset)
        cols = {}
        for name, arr in self._columns.items():
            sub = arr[idx]
            sub.setflags(write=False)
            cols[name] = sub
        out._columns = cols
        out.n_rows = int(idx.shape[0])
        return out

    def matrix(self, names) -> np.ndarray:
        """Stack the named columns into an (n_rows, len(names)) matrix."""
        return np.column_stack([self[name] for name in names])


@dataclass(frozen=True)
class FitSummary:
    """Result of a least-squares fit.

    Attributes
    ----------
    coefficients : dict
        Slope coefficient per regressor (intercept excluded).
    intercept : float
        Fitted intercept.
    residuals : ndarray
        Response minus fitted values, length ``n_rows``.
    residual_l2 : float
        L2 norm of the residual vector.
    dof : int
        Residual degrees of freedom, ``n_rows - (p + 1)``.
    se : dict
        Classical standard error per regressor.
    response_name : str
    regressor_names : tuple of str
    """

    coefficients: dict[str, float]
    intercept: float
    residuals: np.ndarray
    residual_l2: float
    dof: int
    se: dict[str, float]
    response_name: str
    regressor_names: tuple[str, ...]

    def coef(self, name: str) -> float:
        try:
            return self.coefficients[name]
        except KeyError:
            raise UnknownColumn(
                f"no coefficient for {name!r} in fit of {self.response_name!r} "
                f"on {self.regressor_names}"
            ) from None


@dataclass(frozen=True)
class Residualization:
    """Residual of one variable after partialling out controls.

    ``sd`` is the sample standard deviation of the residual vector computed
    as ``l2_norm / sqrt(n_rows - 1)``; ratio-based formulas elsewhere use
    ``l2_norm`` directly so the convention never matters there.
    """

    variable: str
    controls: tuple[str, ...]
    residual: np.ndarray
    sd: float
    l2_norm: float


@dataclass(frozen=True)
class BiasDecomposition:
    """Short-minus-long coefficient gap and its correlation factorization.

    ``bias`` is ``short_coef - long_coef`` exactly. The same number factors
    into ``partial_corr * cohens_f * sd_ratio`` where ``partial_corr`` is the
    partial correlation of the response with the fitted confounder
    combination, ``cohens_f`` is the Cohen's-f association of the treatment
    with that combination, and ``sd_ratio`` rescales from correlation units
    back to coefficient units.
    """

    partial_corr: float
    cohens_f: float
    bias: float
    long_coef: float
    short_coef: float
    sd_ratio: float

    @property
    def product(self) -> float:
        """The factorized bias; equals ``bias`` up to rounding."""
        return self.partial_corr * self.cohens_f * self.sd_ratio


def least_squares(cols, regressors, y, idx=slice(None)):
    """QR least squares of ``y`` on an intercept plus the named regressors.

    The package's one least-squares kernel. ``cols`` maps names to full
    columns (a Dataset or a plain dict), ``idx`` picks the rows (all of
    them, or a bootstrap resample) and ``y`` holds the response at those
    rows: one vector, or one column per response sharing the design.
    Returns (beta, residuals, r) with the intercept in ``beta[0]``.

    Raises TooFewRows unless there are more rows than coefficients and
    RankDeficient when a diagonal of R falls to RANK_TOL of the largest.
    """
    n = y.shape[0]
    x = np.empty((n, len(regressors) + 1))
    x[:, 0] = 1.0
    for j, name in enumerate(regressors):
        x[:, j + 1] = cols[name][idx]
    if n <= x.shape[1]:
        raise TooFewRows(
            f"{n} rows cannot support {len(regressors)} regressors plus "
            "intercept"
        )
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOL * diag.max():
        raise RankDeficient(
            f"collinear design on {list(regressors)} "
            f"(min |R_ii| = {diag.min():.3e})"
        )
    beta = solve_triangular(r, q.T @ y)
    return beta, y - x @ beta, r


class GramFallback(Exception):
    """A Gram solve that might differ from QR; refit the rows with QR."""


class ScaledColumns:
    """An intercept plus named columns, centred and scaled once.

    Each column is centred by its mean and divided by its SD (1 for a
    constant column) over all rows of ``cols``, so the cross-product matrix
    of any resample is well scaled whatever the columns' units. ``gram(idx)``
    is that matrix for rows ``idx``: a resample is the integer row weights
    ``bincount(idx)``, so no rows are gathered.
    """

    def __init__(self, cols):
        names = sorted(cols)  # a fixed layout, whatever the mapping's order
        self.position = {name: j for j, name in enumerate(names, 1)}
        self.mean = np.zeros(len(names) + 1)
        self.scale = np.ones(len(names) + 1)
        # Stored transposed, (columns, rows): the weighted product is fastest
        # in this layout. Filled a row at a time, so building it needs no
        # temporary the size of the data.
        self.zt = np.empty((len(names) + 1, len(cols[names[0]])))
        self.zt[0] = 1.0
        for j, name in enumerate(names, 1):
            values = cols[name]
            self.mean[j] = values.mean()
            sd = values.std()
            if sd > 0:
                self.scale[j] = sd
            np.subtract(values, self.mean[j], out=self.zt[j])
            self.zt[j] /= self.scale[j]

    def gram(self, idx) -> np.ndarray:
        w = np.bincount(idx, minlength=self.zt.shape[1])
        return (self.zt * w) @ self.zt.T


def gram_least_squares(cols: ScaledColumns, g: np.ndarray, regressors,
                       responses):
    """``least_squares`` from a weighted Gram matrix of ``cols``.

    ``g`` is ``cols.gram(idx)``; ``responses`` name the columns fitted on
    an intercept plus ``regressors``. Solves the normal equations with a
    Cholesky factor of the design block and returns (beta, l2, exact) in
    raw units: beta as ``least_squares`` lays it out, the residual norms
    sqrt(g[v,v] - g[v,S] beta) and, per response, whether its norm is
    trusted: its ratio to the response's centred norm (the pivot the
    response would add to the factor) is above GRAM_TOL, and it is clear
    of ``guard_residual_norm`` by a factor 1/GRAM_TOL.

    Raises GramFallback unless the coefficients match QR's to rounding:
    too few rows, a pivot ratio of the factor at or below GRAM_TOL
    (cond(g) near 1/GRAM_TOL**2; at GRAM_TOL = 1e-2 the coefficients stay
    within about 1e-10 of QR's, relative to their size or to
    sd(response) / sd(regressor)), or a raw pivot ratio within a factor
    1/GRAM_TOL of RANK_TOL (the pivots times the column SDs are QR's
    |R_ii|). Callers refit those rows with ``least_squares``, which
    raises what it always did.
    """
    s = [0, *(cols.position[name] for name in regressors)]
    v = [cols.position[name] for name in responses]
    if g[0, 0] <= len(s):
        raise GramFallback
    chol, info = lapack.dpotrf(g[np.ix_(s, s)], lower=1)
    if info != 0:
        raise GramFallback
    pivots = np.diag(chol)
    raw_pivots = pivots * cols.scale[s]
    if (pivots.min() <= GRAM_TOL * pivots.max()
            or raw_pivots.min() <= RANK_TOL / GRAM_TOL * raw_pivots.max()):
        raise GramFallback
    g_sv = g[np.ix_(s, v)]
    b, _ = lapack.dpotrs(chol, g_sv, lower=1)
    g_vv = g[v, v]
    r2 = g_vv - np.einsum("ij,ij->j", g_sv, b)
    m = cols.mean[v] / cols.scale[v]
    uncentred = g_vv + 2.0 * m * g[0, v] + m * m * g[0, 0]
    exact = ((r2 > GRAM_TOL**2 * g_vv)
             & (r2 > (NEAR_ZERO / GRAM_TOL) ** 2 * uncentred))
    beta = b * (cols.scale[v] / cols.scale[s][:, None])
    beta[0] += cols.mean[v] - cols.mean[s] @ beta
    return beta, cols.scale[v] * np.sqrt(np.maximum(r2, 0.0)), exact


def guard_residual_norm(l2: float, values: np.ndarray, variable: str,
                        controls) -> float:
    """Return the residual norm ``l2`` of the column ``values`` if usable.

    ``values`` is ``variable`` at the fitted rows and ``controls`` its
    regressors. Raises DegenerateResidual when ``l2`` is at most NEAR_ZERO
    times the root-mean-square of ``values`` times sqrt(n): a ratio with
    that norm would be built on rounding noise.
    """
    scale = float(np.sqrt(np.mean(values**2)))
    if l2 <= NEAR_ZERO * max(scale, 1e-300) * np.sqrt(values.shape[0]):
        raise DegenerateResidual(
            f"residual of {variable!r} on {list(controls)} has (near) zero "
            "norm; scale factor undefined"
        )
    return float(l2)


def fit_ols(data: Dataset, response: str, regressors) -> FitSummary:
    """Ordinary least squares of ``response`` on ``regressors`` + intercept.

    Parameters
    ----------
    data : Dataset
    response : str
        Column to fit.
    regressors : sequence of str
        Slope columns; may be empty for an intercept-only fit.

    Returns
    -------
    FitSummary

    Raises
    ------
    UnknownColumn, TooFewRows, RankDeficient
    """
    regressors = tuple(regressors)
    beta, resid, r = least_squares(data, regressors, data[response])
    rss = float(resid @ resid)
    dof = data.n_rows - (len(regressors) + 1)
    sigma2 = rss / dof
    r_inv = solve_triangular(r, np.eye(r.shape[0]))
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    se_all = np.sqrt(sigma2 * xtx_inv_diag)
    return FitSummary(
        coefficients={name: float(b) for name, b in zip(regressors, beta[1:])},
        intercept=float(beta[0]),
        residuals=resid,
        residual_l2=float(np.linalg.norm(resid)),
        dof=dof,
        se={name: float(s) for name, s in zip(regressors, se_all[1:])},
        response_name=response,
        regressor_names=regressors,
    )


def residualize(data: Dataset, variable: str, controls) -> Residualization:
    """Residual of ``variable`` after OLS on ``controls`` + intercept.

    With no controls this is just centering. The residual's sample SD and L2
    norm are returned alongside the vector; a zero SD is legal here and only
    becomes an error where a scale factor divides by it.
    """
    controls = tuple(controls)
    resid = _residual_vector(data, variable, controls)
    l2 = float(np.linalg.norm(resid))
    return Residualization(
        variable=variable,
        controls=controls,
        residual=resid,
        sd=l2 / np.sqrt(data.n_rows - 1),
        l2_norm=l2,
    )


def _residual_vector(data: Dataset, variable, controls) -> np.ndarray:
    """Residual of a column (by name) or raw vector on controls + intercept."""
    y = data[variable] if isinstance(variable, str) else np.asarray(variable)
    return least_squares(data, tuple(controls), y)[1]


def partial_corr(data: Dataset, a, b, given) -> float:
    """Partial correlation of ``a`` and ``b`` given the ``given`` columns.

    ``a`` and ``b`` may be column names or raw vectors. Computed as the
    cosine of the two residual vectors after partialling out ``given``.
    """
    ra = _residual_vector(data, a, given)
    rb = _residual_vector(data, b, given)
    na = float(np.linalg.norm(ra))
    nb = float(np.linalg.norm(rb))
    if na <= NEAR_ZERO or nb <= NEAR_ZERO:
        raise DivisionByNearZero(
            "partial correlation undefined: a residual has (near) zero norm"
        )
    return float(ra @ rb / (na * nb))


def cohens_f(r: float) -> float:
    """Map a (partial) correlation to Cohen's f, r / sqrt(1 - r^2)."""
    if abs(r) >= 1.0:
        raise DivisionByNearZero("correlation magnitude at 1; f is unbounded")
    return r / np.sqrt(1.0 - r * r)


def _fitted_confounder_combination(
    data: Dataset, response: str, treatment: str, controls, z_cols
):
    """Collapse multivariate Z to the single column driving the response.

    Returns (zc, long_coef, short_coef) where zc is Z times the long-fit
    coefficients of the response on Z. Regressing on zc reproduces the same
    coefficient on the treatment as regressing on all of Z, which lets every
    scalar-confounder identity apply verbatim when Z has several columns.
    """
    z_cols = tuple(z_cols)
    long_fit = fit_ols(data, response, (treatment, *z_cols, *controls))
    short_fit = fit_ols(data, response, (treatment, *controls))
    gamma = np.array([long_fit.coef(z) for z in z_cols])
    zc = data.matrix(z_cols) @ gamma
    return zc, long_fit.coef(treatment), short_fit.coef(treatment)


def bias_decomposition_oracle(
    data_with_z: Dataset, response: str, treatment: str, controls, z_cols
) -> BiasDecomposition:
    """Decompose omitted variable bias using observed confounder columns.

    Fits the regression of ``response`` on treatment + controls both with and
    without ``z_cols``, takes the coefficient gap on the treatment, and
    factors it into partial-correlation times Cohen's-f times an SD ratio.
    Only meaningful on (simulated) data where the confounders are observed;
    the rest of the package never sees Z.

    Returns
    -------
    BiasDecomposition
    """
    controls = tuple(controls)
    zc, long_coef, short_coef = _fitted_confounder_combination(
        data_with_z, response, treatment, controls, z_cols
    )
    bias = short_coef - long_coef
    ry = _residual_vector(data_with_z, response, (treatment, *controls))
    rd = _residual_vector(data_with_z, treatment, controls)
    rz_dt = _residual_vector(data_with_z, zc, (treatment, *controls))
    rz_ctrl = _residual_vector(data_with_z, zc, controls)
    zc_norm = float(np.linalg.norm(rz_dt))
    if zc_norm <= NEAR_ZERO * max(1.0, float(np.linalg.norm(zc))):
        # Fitted combination carries no signal: no confounding measured.
        pc = 0.0
        f = 0.0
    else:
        pc = float(ry @ rz_dt / (np.linalg.norm(ry) * zc_norm))
        r_dz = float(
            rd @ rz_ctrl / (np.linalg.norm(rd) * np.linalg.norm(rz_ctrl))
        )
        f = float(cohens_f(r_dz))
    sd_ratio = float(np.linalg.norm(ry) / np.linalg.norm(rd))
    return BiasDecomposition(
        partial_corr=pc,
        cohens_f=f,
        bias=bias,
        long_coef=long_coef,
        short_coef=short_coef,
        sd_ratio=sd_ratio,
    )


def verify_bias_factor_identity(
    data_with_z: Dataset, response: str, treatment: str, controls, z_cols
) -> float:
    """Residual of the exact identity linking the two bias-factor routes.

    On any sample, with f denoting Cohen's f of a partial correlation,

        1 = f(Y~D|X) / (R(Y~Z|D,X) * f(D~Z|X))
              - f(Y~D|Z,X) / (f(Y~Z|D,X) * R(D~Z|X))

    where Z is the fitted scalar confounder combination. Returns 1 minus the
    evaluated right-hand side, which should sit at rounding level.

    Raises
    ------
    DivisionByNearZero
        Any denominator factor with magnitude below 1e-12.
    """
    controls = tuple(controls)
    zc, _, _ = _fitted_confounder_combination(
        data_with_z, response, treatment, controls, z_cols
    )
    r_yd_x = partial_corr(data_with_z, response, treatment, controls)
    r_yz_dx = partial_corr(data_with_z, response, zc, (treatment, *controls))
    r_dz_x = partial_corr(data_with_z, treatment, zc, controls)
    zc_name = "_zc"
    while zc_name in data_with_z:
        zc_name += "_"
    merged = Dataset(
        {zc_name: zc, **{name: data_with_z[name] for name in data_with_z.names}}
    )
    r_yd_zx = partial_corr(merged, response, treatment, (zc_name, *controls))
    f_yd_x = cohens_f(r_yd_x)
    f_dz_x = cohens_f(r_dz_x)
    f_yz_dx = cohens_f(r_yz_dx)
    f_yd_zx = cohens_f(r_yd_zx)
    for label, value in (
        ("R(Y~Z|D,X)", r_yz_dx),
        ("f(D~Z|X)", f_dz_x),
        ("f(Y~Z|D,X)", f_yz_dx),
        ("R(D~Z|X)", r_dz_x),
    ):
        if abs(value) < NEAR_ZERO:
            raise DivisionByNearZero(f"identity factor {label} is near zero")
    rhs = f_yd_x / (r_yz_dx * f_dz_x) - f_yd_zx / (f_yz_dx * r_dz_x)
    return float(1.0 - rhs)
