"""Adjustment with both a placebo treatment and a placebo outcome.

With a placebo treatment P and a placebo outcome N available at once, the
product of the two relative-confounding parameters is all that is needed on
top of the three direct-link coefficients, and under a single shared
confounder that product is exactly 1, giving point identification with no
relative-confounding input at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DenominatorNearZero
from .regression import NEAR_ZERO, Dataset, fit_ols


class DoubleShortFits(NamedTuple):
    """The four observable short coefficients.

    beta_yd: D coefficient from Y ~ D + P + X
    beta_yp: P coefficient from Y ~ D + P + X
    beta_nd: D coefficient from N ~ D + P + X
    beta_np: P coefficient from N ~ D + P + X
    """

    beta_yd: float
    beta_yp: float
    beta_nd: float
    beta_np: float


@dataclass(frozen=True)
class DoublePlaceboPoint:
    """Sensitivity parameters for the double-placebo adjustment.

    ``k_product`` is the product of the two scaled relative-confounding
    ratios (equivalently the ratio of the two raw bias ratios); the factors
    are never needed individually. The three ``*_long`` fields are the direct
    causal coefficients P-to-Y, D-to-N, and P-to-N, all zero for perfect
    placebos. An equivalent regrouping of the product exists with the same
    interpretation; only the product enters the formula.
    """

    k_product: float
    beta_yp_long: float = 0.0
    beta_nd_long: float = 0.0
    beta_np_long: float = 0.0

    def __post_init__(self):
        values = (self.k_product, self.beta_yp_long, self.beta_nd_long,
                  self.beta_np_long)
        if not all(np.isfinite(v) for v in values):
            raise ConfigError("double-placebo parameters must be finite")


@dataclass(frozen=True)
class DoublePlaceboSpec:
    """Column declaration for a double-placebo analysis.

    ``beta_yp_long`` and ``beta_np_long`` are held fixed in grids; the
    D-to-N direct effect takes the table's second axis.
    """

    outcome_col: str
    treatment_col: str
    placebo_treatment_col: str
    placebo_outcome_col: str
    covariate_cols: tuple[str, ...] = ()
    beta_yp_long: float = 0.0
    beta_np_long: float = 0.0

    role = "double_placebo"

    def __post_init__(self):
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        names = [self.outcome_col, self.treatment_col,
                 self.placebo_treatment_col, self.placebo_outcome_col,
                 *self.covariate_cols]
        if len(set(names)) != len(names):
            raise ConfigError(
                "outcome, treatment, placebos, and covariates must be distinct"
            )
        if not (np.isfinite(self.beta_yp_long)
                and np.isfinite(self.beta_np_long)):
            raise ConfigError("fixed long coefficients must be finite")


def fit_double_shorts(data: Dataset, outcome: str, treatment: str,
                      placebo_treatment: str, placebo_outcome: str,
                      covariates=()) -> DoubleShortFits:
    """Fit the two short regressions and collect the four coefficients."""
    x = tuple(covariates)
    fit_y = fit_ols(data, outcome, (treatment, placebo_treatment, *x))
    fit_n = fit_ols(data, placebo_outcome, (treatment, placebo_treatment, *x))
    return DoubleShortFits(
        beta_yd=fit_y.coef(treatment),
        beta_yp=fit_y.coef(placebo_treatment),
        beta_nd=fit_n.coef(treatment),
        beta_np=fit_n.coef(placebo_treatment),
    )


def placebo_pair_vanishes(beta_np, beta_np_long):
    """Elementwise: whether ``beta_np - np_long`` counts as zero.

    The gap counts as zero within NEAR_ZERO of max(1, |beta_np|,
    |np_long|). With no confounding measured between the two placebos the
    double-placebo formula divides by zero and is undefined.
    """
    scale = np.maximum(1.0, np.maximum(np.abs(beta_np), abs(beta_np_long)))
    return np.abs(beta_np - beta_np_long) <= NEAR_ZERO * scale


def check_placebo_pair(beta_np: float, beta_np_long: float) -> None:
    """Raise DenominatorNearZero where ``placebo_pair_vanishes``."""
    if placebo_pair_vanishes(beta_np, beta_np_long):
        raise DenominatorNearZero(
            "measured placebo-pair coefficient equals its assumed direct "
            "part; the double-placebo adjustment is undefined"
        )


def double_placebo_estimate(fits: DoubleShortFits, k_product, beta_yp_long,
                            beta_nd_long, beta_np_long):
    """The double-placebo formula, elementwise over array arguments.

        beta_yd - k_product * (beta_yp - yp_long) * (beta_nd - nd_long)
                                / (beta_np - np_long)

    Unguarded: callers run ``check_placebo_pair`` on the short fits first.
    """
    return fits.beta_yd - k_product * (
        (fits.beta_yp - beta_yp_long)
        * (fits.beta_nd - beta_nd_long)
        / (fits.beta_np - beta_np_long)
    )


def adjust_double_placebo(fits: DoubleShortFits,
                          point: DoublePlaceboPoint) -> float:
    """Adjusted Y~D coefficient from the four short fits.

    Applies ``double_placebo_estimate`` at ``point`` after
    ``check_placebo_pair`` has ruled out a vanishing denominator.
    """
    check_placebo_pair(fits.beta_np, point.beta_np_long)
    return double_placebo_estimate(fits, point.k_product, point.beta_yp_long,
                                   point.beta_nd_long, point.beta_np_long)


def point_identify_double_placebo(fits: DoubleShortFits,
                                  imperfection: Mapping[str, float]
                                  | None = None) -> float:
    """Point estimate under a single shared confounder (k_product = 1).

    Valid when one confounder (or confounder combinations with equal
    partial associations) drives both placebos; then the relative level of
    confounding drops out entirely. ``imperfection`` may supply
    ``beta_yp_long``, ``beta_nd_long``, ``beta_np_long`` for imperfect
    placebos; omitted entries default to 0.
    """
    extra = dict(imperfection or {})
    unknown = set(extra) - {"beta_yp_long", "beta_nd_long", "beta_np_long"}
    if unknown:
        raise ConfigError(
            f"unknown imperfection keys: {sorted(unknown)}"
        )
    return adjust_double_placebo(fits, DoublePlaceboPoint(k_product=1.0,
                                                          **extra))
