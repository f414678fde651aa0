"""Difference-in-differences through the placebo-outcome lens.

A pre-period outcome is a placebo outcome, so two-period two-group DID is
the placebo-outcome adjustment applied to group means. The raw
relative-confounding ratio m generalizes the parallel-trends assumption:
m = 1 reproduces standard DID, m = 0 the simple difference in means. An
alternative parameterization w mixes level and trend stability and maps to
m in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjust import ovb_estimate
from .errors import ConfigError, DataError, DenominatorNearZero
from .regression import NEAR_ZERO, Dataset


@dataclass(frozen=True)
class GroupMeans:
    """Cell means of the outcome Y and pre-period outcome N by group."""

    mean_y_treated: float
    mean_y_control: float
    mean_n_treated: float
    mean_n_control: float
    n_treated: int = 1
    n_control: int = 1

    def __post_init__(self):
        means = (self.mean_y_treated, self.mean_y_control,
                 self.mean_n_treated, self.mean_n_control)
        if not all(np.isfinite(v) for v in means):
            raise ConfigError("group means must be finite")
        if self.n_treated < 1 or self.n_control < 1:
            raise ConfigError("each group needs at least one row")

    @classmethod
    def from_data(cls, data: Dataset, outcome: str, placebo: str,
                  group: str) -> "GroupMeans":
        """Compute cell means from unit-level data with a 0/1 group column."""
        g = data[group]
        if not np.isin(g, (0.0, 1.0)).all():
            raise DataError(f"group column {group!r} must be 0/1")
        treated = g == 1.0
        n1 = int(treated.sum())
        n0 = g.size - n1
        if n1 == 0 or n0 == 0:
            raise DataError("both groups must be non-empty")
        y = data[outcome]
        n = data[placebo]
        return cls(
            mean_y_treated=float(y[treated].mean()),
            mean_y_control=float(y[~treated].mean()),
            mean_n_treated=float(n[treated].mean()),
            mean_n_control=float(n[~treated].mean()),
            n_treated=n1,
            n_control=n0,
        )


@dataclass(frozen=True)
class DIDAssumption:
    """Sensitivity inputs: the bias ratio m and the pre-period effect.

    ``att_n`` is the treated-group effect on the pre-period outcome,
    zero unless anticipation is entertained.
    """

    m: float
    att_n: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.m) and np.isfinite(self.att_n)):
            raise ConfigError("m and att_n must be finite")


def dim(means: GroupMeans) -> dict:
    """Treated-minus-control difference in means for Y and for N."""
    return {
        "dim_Y": means.mean_y_treated - means.mean_y_control,
        "dim_N": means.mean_n_treated - means.mean_n_control,
    }


def att(means: GroupMeans, assumption: DIDAssumption) -> float:
    """Adjusted treatment effect: dim_Y - m * (dim_N - att_n).

    m = 0 returns the raw difference in means, m = 1 the standard DID
    estimate (when att_n = 0).
    """
    d = dim(means)
    return ovb_estimate(d["dim_Y"], d["dim_N"], 1.0, assumption.m,
                        assumption.att_n)


def parallel_trends_gap(means: GroupMeans) -> dict:
    """Observed mean change per group and the gap between them.

    The gap equals the standard DID estimate; when the treatment moves
    neither outcome (so both observed means are counterfactual) it equals
    the difference between the Y-confounding and N-confounding levels,
    which is what m = 1 assumes away.
    """
    trend_treated = means.mean_y_treated - means.mean_n_treated
    trend_control = means.mean_y_control - means.mean_n_control
    return {
        "trend_treated": trend_treated,
        "trend_control": trend_control,
        "bias_Y_minus_bias_N": trend_treated - trend_control,
    }


def _control_level_gap(means: GroupMeans) -> float:
    gap = means.mean_y_control - means.mean_n_control
    scale = max(abs(means.mean_y_control), abs(means.mean_n_control))
    if abs(gap) <= NEAR_ZERO * scale:
        raise DenominatorNearZero(
            "control group shows no mean change, the level-stability "
            "weight w is undefined"
        )
    return gap


def m_to_w(m: float, means: GroupMeans, att_n: float = 0.0) -> float:
    """Weight w of the equal-trends anchor implied by a bias ratio m.

    w = 1 places the treated counterfactual on the parallel-trends path,
    w = 0 on the stable-level path (counterfactual mean equal to the
    pre-period mean). m = 1 always maps to w = 1 when att_n = 0.
    """
    if not np.isfinite(m):
        raise ConfigError("m must be finite")
    d = dim(means)
    numerator = (means.mean_y_control + m * (d["dim_N"] - att_n)
                 - means.mean_n_treated)
    return numerator / _control_level_gap(means)


def w_to_m(w: float, means: GroupMeans, att_n: float = 0.0) -> float:
    """Bias ratio m implied by a mixing weight w (inverse of m_to_w)."""
    if not np.isfinite(w):
        raise ConfigError("w must be finite")
    d = dim(means)
    denom = d["dim_N"] - att_n
    scale = max(abs(means.mean_n_treated), abs(means.mean_n_control))
    if abs(denom) <= NEAR_ZERO * scale:
        raise DenominatorNearZero(
            "groups share the same adjusted pre-period mean, every m "
            "gives the same estimate and w determines no unique m"
        )
    numerator = (means.mean_n_treated
                 + w * (means.mean_y_control - means.mean_n_control)
                 - means.mean_y_control)
    return numerator / denom
