"""The reference the self-check holds the adjustment formulas to.

Every fit here is ``np.linalg.lstsq`` on an explicit design [1, X], apart
from the package's own QR and Gram kernels in ``regression``, so a fault
in those kernels cannot cancel out of a comparison with them
(differential testing; McKeeman, Digital Technical Journal 10(1), 1998).
On simulated data, where the confounders Z are observed, it gives the
long fits, residuals, partial correlations and the factorisation of
omitted variable bias into partial correlation times Cohen's f times an
SD ratio (Cinelli & Hazlett, JRSS-B 82(1), 2020). The rest of the
package never sees Z.

A regressor, response or control may be a column name or a raw vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorNearZero, RankDeficient, TooFewRows, \
    UnknownColumn
from .regression import NEAR_ZERO, Dataset


@dataclass(frozen=True)
class FitSummary:
    """Result of ``fit_ols``: slope coefficient per regressor, and the
    intercept apart from them."""

    coefficients: dict[str, float]
    intercept: float
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


def _column(data: Dataset, v) -> np.ndarray:
    """The column of ``data`` named ``v``, or ``v`` itself as a vector."""
    return data[v] if isinstance(v, str) else np.asarray(v)


def _fit(data: Dataset, regressors, y):
    """(design, beta) of lstsq of the vector ``y`` on the design [1, X] of
    ``regressors``; beta[0] is the intercept.

    Raises TooFewRows unless there are more rows than coefficients, and
    RankDeficient where lstsq finds the design's rank below its width.
    """
    design = np.column_stack([np.ones(len(y)),
                              *(_column(data, v) for v in regressors)])
    rows, width = design.shape
    if rows <= width:
        raise TooFewRows(
            f"{rows} rows cannot support {width - 1} regressors plus "
            "intercept")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < width:
        raise RankDeficient(
            f"collinear design of {width - 1} regressors plus intercept "
            f"(lstsq rank {rank})")
    return design, beta


def fit_ols(data: Dataset, response: str, regressors) -> FitSummary:
    """Ordinary least squares of ``response`` on ``regressors`` + intercept.

    Raises UnknownColumn, TooFewRows or RankDeficient.
    """
    regressors = tuple(regressors)
    beta = _fit(data, regressors, data[response])[1]
    return FitSummary(
        coefficients={name: float(b) for name, b in zip(regressors, beta[1:])},
        intercept=float(beta[0]),
        response_name=response,
        regressor_names=regressors,
    )


def residual(data: Dataset, variable, controls) -> np.ndarray:
    """Residual of ``variable`` after OLS on ``controls`` + intercept."""
    y = _column(data, variable)
    design, beta = _fit(data, controls, y)
    return y - design @ beta


def partial_corr(data: Dataset, a, b, given) -> float:
    """Partial correlation of ``a`` and ``b`` given the ``given`` columns:
    the cosine of their residuals after partialling out ``given``."""
    va, vb = _column(data, a), _column(data, b)
    ra = residual(data, va, given)
    rb = residual(data, vb, given)
    na = float(np.linalg.norm(ra))
    nb = float(np.linalg.norm(rb))
    if (na <= NEAR_ZERO * np.linalg.norm(va)
            or nb <= NEAR_ZERO * np.linalg.norm(vb)):
        raise DenominatorNearZero(
            "partial correlation undefined: a residual has (near) zero norm"
        )
    return float(ra @ rb / (na * nb))


def cohens_f(r: float) -> float:
    """Map a (partial) correlation to Cohen's f, r / sqrt(1 - r^2)."""
    if abs(r) >= 1.0:
        raise DenominatorNearZero("correlation magnitude at 1; f is unbounded")
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
    """
    controls = tuple(controls)
    zc, long_coef, short_coef = _fitted_confounder_combination(
        data_with_z, response, treatment, controls, z_cols
    )
    ry = residual(data_with_z, response, (treatment, *controls))
    rd = residual(data_with_z, treatment, controls)
    rz_dt = residual(data_with_z, zc, (treatment, *controls))
    rz_ctrl = residual(data_with_z, zc, controls)
    zc_norm = float(np.linalg.norm(rz_dt))
    if zc_norm <= NEAR_ZERO * np.linalg.norm(zc):
        # Fitted combination carries no signal: no confounding measured.
        pc = 0.0
        f = 0.0
    else:
        pc = float(ry @ rz_dt / (np.linalg.norm(ry) * zc_norm))
        r_dz = float(
            rd @ rz_ctrl / (np.linalg.norm(rd) * np.linalg.norm(rz_ctrl))
        )
        f = float(cohens_f(r_dz))
    return BiasDecomposition(
        partial_corr=pc,
        cohens_f=f,
        bias=short_coef - long_coef,
        long_coef=long_coef,
        short_coef=short_coef,
        sd_ratio=float(np.linalg.norm(ry) / np.linalg.norm(rd)),
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

    Raises DenominatorNearZero where a denominator factor has magnitude
    below NEAR_ZERO.
    """
    controls = tuple(controls)
    zc, _, _ = _fitted_confounder_combination(
        data_with_z, response, treatment, controls, z_cols
    )
    r_yd_x = partial_corr(data_with_z, response, treatment, controls)
    r_yz_dx = partial_corr(data_with_z, response, zc, (treatment, *controls))
    r_dz_x = partial_corr(data_with_z, treatment, zc, controls)
    r_yd_zx = partial_corr(data_with_z, response, treatment, (zc, *controls))
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
            raise DenominatorNearZero(f"identity factor {label} is near zero")
    rhs = f_yd_x / (r_yz_dx * f_dz_x) - f_yd_zx / (f_yz_dx * r_dz_x)
    return float(1.0 - rhs)
