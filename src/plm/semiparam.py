"""Placebo-outcome adjustment beyond the linear model.

The same short-minus-scaled-placebo shape survives when the outcome
models are partially linear or fully nonparametric: the adjusted target
equals the short target minus a scaled version of the placebo's
short-minus-long gap, with the scale split into a variance-explained
ratio gamma, a squared relative-confounding parameter k, an explicit
sign, and the ratio of residual variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .adjust import ovb_estimate
from .errors import ConfigError, NonpositiveScale


@dataclass(frozen=True)
class SemiparamInputs:
    """Inputs to the model-agnostic placebo-outcome adjustment.

    theta_s_y : short (confounded) estimate for the outcome
    theta_s_n : short estimate for the placebo outcome
    theta_l_n : long (clean) value for the placebo outcome, usually 0
    k : squared relative-confounding strength, nonnegative
    gamma : ratio of confounder-explained variance shares, nonnegative
    s2_y, s2_n : residual variances of outcome and placebo, positive
    sign_m : sign of the bias ratio, +1 or -1
    """

    theta_s_y: float
    theta_s_n: float
    theta_l_n: float
    k: float
    gamma: float = 1.0
    s2_y: float = 1.0
    s2_n: float = 1.0
    sign_m: int = 1

    def __post_init__(self):
        values = (self.theta_s_y, self.theta_s_n, self.theta_l_n,
                  self.k, self.gamma, self.s2_y, self.s2_n)
        if not all(np.isfinite(v) for v in values):
            raise ConfigError("semiparametric inputs must be finite")
        if self.k < 0:
            raise ConfigError("k is a squared strength and cannot be negative")
        if self.gamma < 0:
            raise ConfigError("gamma is a variance ratio and cannot be "
                              "negative")
        if self.s2_y <= 0 or self.s2_n <= 0:
            raise NonpositiveScale("residual variances must be positive")
        if self.sign_m not in (1, -1):
            raise ConfigError("sign_m must be +1 or -1")


def adjust_partially_linear(inputs: SemiparamInputs) -> float:
    """Adjusted effect under partially linear or nonparametric outcome models.

    theta_s_y - sign_m * sqrt(gamma * k) * (theta_s_n - theta_l_n)
              * sqrt(s2_y / s2_n)

    The expression is the same for both model classes; they differ only in
    how the short estimates and residual variances are produced. Reduces to
    the linear placebo-outcome adjustment when gamma = 1 and k equals the
    squared linear relative-confounding parameter.
    """
    scale = sqrt(inputs.gamma * inputs.k) * sqrt(inputs.s2_y / inputs.s2_n)
    return ovb_estimate(inputs.theta_s_y, inputs.theta_s_n, scale,
                        inputs.sign_m, inputs.theta_l_n)
