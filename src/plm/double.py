"""Adjustment with both a placebo treatment and a placebo outcome.

With a placebo treatment P and a placebo outcome N available at once, the
product of the two relative-confounding parameters is all that is needed on
top of the three direct-link coefficients, and under a single shared
confounder that product is exactly 1, giving point identification with no
relative-confounding input at all.

The adjustment is the single-placebo one, ``adjust.ovb_estimate``, with
beta_yd as the target, beta_nd as the placebo coefficient, and the placebo
pair's slope (beta_yp - yp_long) / (beta_np - np_long) as the scale in
place of a ratio of residual norms. ``DoubleFormula`` serves it: to the
engine through the members ``adjust.CaseFormula`` serves a role with, and
on a whole dataset through ``fit_coefficients`` and ``adjust``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adjust import SensitivityPoint, ovb_estimate
from .errors import ConfigError, DenominatorNearZero
from .regression import (GRAM_TOL, NEAR_ZERO, Dataset, ScaledColumns,
                         gram_least_squares, least_squares)


class DoubleShortFits(NamedTuple):
    """The four observable short coefficients, and the unit of beta_np.

    beta_yd: D coefficient from Y ~ D + P + X
    beta_yp: P coefficient from Y ~ D + P + X
    beta_nd: D coefficient from N ~ D + P + X
    beta_np: P coefficient from N ~ D + P + X
    np_unit: sd(N) / sd(P) over the fitted rows, beta_np's natural unit
             (1 for coefficients given without data)
    """

    beta_yd: float
    beta_yp: float
    beta_nd: float
    beta_np: float
    np_unit: float = 1.0

    @classmethod
    def read(cls, beta, np_unit):
        """From coefficients ``beta[..., coefficient, response]`` of the
        shared-design fits (``DoubleFormula``), one or a stack of them: D
        and P on Y, then on N."""
        return cls(*beta.T[[0, 0, 1, 1], [1, 2, 1, 2]], np_unit)


@dataclass(frozen=True)
class DoublePlaceboSpec:
    """Column declaration for a double-placebo analysis.

    ``beta_yp_long`` and ``beta_np_long`` are the direct P-to-Y and P-to-N
    links, zero for perfect placebos, held fixed in grids; the D-to-N
    direct effect takes the table's second axis.
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


def placebo_pair_vanishes(beta_np, beta_np_long, np_unit, tol=NEAR_ZERO):
    """Elementwise: whether ``beta_np - np_long`` counts as zero.

    The gap counts as zero within ``tol`` of max(|beta_np|, |np_long|,
    np_unit). All three scale alike with the units of N and P, so the rule
    does not depend on them. With no confounding measured between the two
    placebos the double-placebo formula divides by zero.
    """
    scale = np.maximum(np.maximum(np.abs(beta_np), abs(beta_np_long)),
                       np_unit)
    return np.abs(beta_np - beta_np_long) <= tol * scale


class DoubleFormula:
    """A double-placebo spec as the engine reads it, and the double
    placebo's public API.

    The members of ``adjust.CaseFormula``. A quantity row holds the
    ``DoubleShortFits``, and ``triple`` maps rows to (beta_yd, beta_nd,
    pair slope): k is the product parameter and the direct effect the
    D-to-N direct link, while ``beta_yp_long`` and ``beta_np_long`` stay
    fixed at the spec's values. On a whole dataset ``fit_coefficients``
    gives the short fits and ``adjust(fits, k, direct_effect)`` the
    adjusted estimate; k = 1 is point identification under a single shared
    confounder.
    """

    def __init__(self, spec: DoublePlaceboSpec):
        self.spec = spec
        self.design = (spec.treatment_col, spec.placebo_treatment_col,
                       *spec.covariate_cols)
        self.responses = (spec.outcome_col, spec.placebo_outcome_col)
        self.columns = (*self.design, *self.responses)

    def quantities(self, frame: ScaledColumns,
                   idx=slice(None)) -> DoubleShortFits:
        """The four short coefficients of the shared design D + P + X, with
        Y and N as its two responses, on rows ``idx`` (all, the default, or
        a resample's row numbers) of the frame of ``columns``, and np_unit
        over those rows: all from one QR of the frame's rows. A vanishing
        placebo pair raises, so such replicates are dropped."""
        r = frame.factor(idx)
        beta = least_squares(frame, r, self.design, self.responses)[0]
        j = [frame.position[name] for name in (self.spec.placebo_treatment_col,
                                               self.spec.placebo_outcome_col)]
        sd = frame.scale[j]  # over all rows, np.std of each column
        if not isinstance(idx, slice):
            # Over a resample's rows: each column's R below the intercept
            # is its centred norm there.
            sd = sd * np.linalg.norm(r[1:, j], axis=0)
        fits = DoubleShortFits.read(beta, sd[1] / sd[0])
        self._check_pair(fits)
        return fits

    def _check_pair(self, fits: DoubleShortFits) -> None:
        """Raise DenominatorNearZero where ``placebo_pair_vanishes``."""
        if placebo_pair_vanishes(fits.beta_np, self.spec.beta_np_long,
                                 fits.np_unit):
            raise DenominatorNearZero(
                "measured placebo-pair coefficient equals its assumed direct "
                "part; the double-placebo adjustment is undefined"
            )

    def gram_quantities(self, frame: ScaledColumns, g):
        """``quantities`` rows, (batch, 5), from ``g = frame.grams(counts)``;
        NaN rows as in gram_least_squares, whose reason 6 is a pair within
        1e-8 of vanishing, far beyond its reason 4's 1e-10 of QR's: QR
        decides it and raises as ``quantities`` does."""
        sd = frame.spread(g, (self.spec.placebo_treatment_col,
                              self.spec.placebo_outcome_col))[0]
        unit = np.divide(sd[:, 1], sd[:, 0], out=np.full(len(g), np.nan),
                         where=sd[:, 0] > 0)
        q = np.stack(DoubleShortFits.read(
            gram_least_squares(frame, g, self.design, self.responses)[0],
            unit), axis=-1)
        q[placebo_pair_vanishes(q[:, 3], self.spec.beta_np_long, unit,
                                NEAR_ZERO / GRAM_TOL**2)] = np.nan
        return q

    def triple(self, q):
        """(target, placebo, scale) of quantity rows ``q`` (..., 5): beta_yd,
        beta_nd and the pair slope (beta_yp - yp_long) / (beta_np -
        np_long), unguarded: ``quantities`` and ``adjust`` check the pair."""
        fits = DoubleShortFits(*np.moveaxis(q, -1, 0))
        return fits.beta_yd, fits.beta_nd, (
            (fits.beta_yp - self.spec.beta_yp_long)
            / (fits.beta_np - self.spec.beta_np_long))

    @staticmethod
    def anchors(q):
        """Anchor rows at product 0 and 1 (point identification)."""
        return [("SOO", 0.0, 0.0), ("Point ID", 1.0, 0.0)], {}

    def metadata(self, q) -> dict:
        return dict(role=self.spec.role,
                    direct_effect_name="treatment->placebo_outcome",
                    alternatives=(), cautions=(),
                    beta_yp_long=self.spec.beta_yp_long,
                    beta_np_long=self.spec.beta_np_long)

    @staticmethod
    def warn_large_k(k: float, stacklevel: int) -> None:
        """None: the product parameter has no raw-bias scale."""

    def fit_coefficients(self, data: Dataset) -> DoubleShortFits:
        """``quantities`` on all rows of ``data``, a Dataset or a mapping of
        names to columns."""
        return DoubleShortFits(*map(float, self.quantities(
            ScaledColumns(data, self.columns))))

    def adjust(self, fits: DoubleShortFits, k: float,
               direct_effect: float) -> float:
        """beta_yd - k * (beta_nd - direct_effect) * pair slope, for the
        product k and the D-to-N direct effect, once the pair is checked."""
        SensitivityPoint(k=k, direct_effect=direct_effect)  # finite check
        self._check_pair(fits)
        return float(ovb_estimate(*self.triple(fits), k, direct_effect))
