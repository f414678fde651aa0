"""Single-placebo sensitivity adjustments.

A placebo variable P (a negative control) shares unobserved confounders Z
with the treatment D and outcome Y but is assumed to have no, or a known
small, direct causal tie to the variable of interest. Each supported causal
role of P comes with a pair of short regressions, a scale factor built from
residual norms, and an affine adjustment

    adjusted = short_target - k * (measured - direct_effect) * SF

where ``k`` is the scale-free relative-confounding parameter and
``direct_effect`` is the case's direct-link coefficient in the placebo's raw
units. ``m = k * SF`` is the same assumption on the raw-bias-ratio scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousSpec,
    ConfigError,
    MediatorCautionWarning,
    NonpositiveScale,
    ScaleConfusionWarning,
    UnsupportedCase,
)
from .regression import (
    Dataset,
    ScaledColumns,
    gram_least_squares,
    guard_residual_norm,
    least_squares,
)

LARGE_K = 10.0


class _Role(NamedTuple):
    """One placebo role, written with placeholders.

    ``y``, ``d`` and ``p`` stand for the outcome, treatment and placebo
    columns; a string of them lists regressors in order, so ``"dp"`` means
    (d, p), and the covariates x are always appended. ``target`` and
    ``placebo`` name a short-regression coefficient as (response,
    regressors, column). SF is the product of the ``sf`` ratios, each
    written (num, num_controls, den, den_controls) for
    r(num | num_controls) / r(den | den_controls), where r is the norm of
    the residual after OLS on the controls, x, and an intercept.

    ``accepts`` maps each set of declared edges (``d_to_p``, ``p_to_y``)
    the role's graph allows to the cautions the role carries with it.
    ``implies`` names the edge the graph itself has (``p_to_d`` or
    ``y_to_p``), which may be declared or left out.
    """

    target: tuple[str, str, str]
    placebo: tuple[str, str, str]
    sf: tuple[tuple[str, str, str, str], ...]
    direct_effect_name: str
    accepts: dict[frozenset[str], tuple[str, ...]]
    implies: str = ""


_NONE = frozenset()
_D_TO_P = frozenset({"d_to_p"})
_P_TO_Y = frozenset({"p_to_y"})
_BOTH = _D_TO_P | _P_TO_Y

# The only place that knows the roles.
_ROLE_TABLE = {
    "placebo_outcome": _Role(
        ("y", "d", "d"), ("p", "d", "d"),
        (("y", "d", "p", "d"),),
        "treatment->placebo",
        {_NONE: (), _D_TO_P: (), _BOTH: (
            "placebo lies on a causal path from treatment to outcome; "
            "the measured placebo coefficient is part of the total "
            "effect and the relative-confounding parameter includes "
            "the mediated channel",)}),
    "placebo_treatment": _Role(
        ("y", "dp", "d"), ("y", "dp", "p"),
        (("p", "d", "d", "p"),),
        "placebo->outcome",
        {_NONE: (), _P_TO_Y: ()}),
    "observed_confounder_1": _Role(
        ("y", "dp", "d"), ("p", "d", "d"),
        (("y", "dp", "d", "p"), ("d", "", "p", "d")),
        "treatment->placebo",
        {_P_TO_Y: ()}),
    "observed_confounder_2": _Role(
        ("y", "dp", "d"), ("d", "p", "p"),
        (("y", "dp", "d", "p"), ("p", "", "d", "p")),
        "placebo->treatment",
        {_NONE: (), _P_TO_Y: ()}, implies="p_to_d"),
    "mediator": _Role(
        ("y", "d", "d"), ("y", "dp", "p"),
        (("p", "d", "d", ""), ("y", "d", "y", "dp")),
        "placebo->outcome",
        {_BOTH: ("mediator case acknowledged: parameters conflate causal "
                 "and confounding channels",)}),
    "post_outcome": _Role(
        ("y", "d", "d"), ("p", "dy", "y"),
        (("y", "d", "d", ""), ("y", "d", "p", "dy")),
        "outcome->placebo",
        {_NONE: (), _D_TO_P: ()}, implies="y_to_p"),
}

ROLES = tuple(_ROLE_TABLE)


@dataclass(frozen=True)
class PlaceboSpec:
    """Declares which column plays the placebo and how it sits in the graph.

    ``edge_d_to_p`` and ``edge_p_to_y`` declare direct causal links from
    the treatment to the placebo and from the placebo to the outcome; the
    role table (``_Role``) holds the sets of them each role accepts.

    ``acknowledge_mediator`` must be set to run the mediator case, which is
    discouraged; see ``dispatch_case``.
    """

    outcome_col: str
    treatment_col: str
    placebo_col: str
    role: str
    edge_d_to_p: bool = False
    edge_p_to_y: bool = False
    covariate_cols: tuple[str, ...] = ()
    acknowledge_mediator: bool = False

    def __post_init__(self):
        if self.role not in ROLES:
            raise ConfigError(
                f"unknown role {self.role!r}; expected one of {ROLES}"
            )
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        names = [self.outcome_col, self.treatment_col, self.placebo_col,
                 *self.covariate_cols]
        if len(set(names)) != len(names):
            raise ConfigError(
                "outcome, treatment, placebo, and covariates must be distinct"
            )


@dataclass(frozen=True)
class SensitivityPoint:
    """One (k, direct_effect) assumption.

    ``direct_effect`` is the coefficient of the role's direct link (its
    ``direct_effect_name``), always in the placebo variable's raw units.
    """

    k: float
    direct_effect: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.k) and np.isfinite(self.direct_effect)):
            raise ConfigError("sensitivity parameters must be finite")


class ShortCoefficients(NamedTuple):
    """Observable inputs to an adjustment: target and measured coefficient."""

    target: float
    placebo: float


def _check_sf(sf: float) -> None:
    if not np.isfinite(sf) or sf <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {sf}")


def ovb_estimate(target, placebo, scale, k, direct_effect):
    """target - k * (placebo - direct_effect) * scale, elementwise.

    The package's one adjusted estimate: every role's, with its SF as the
    scale, and the double placebo's, with the placebo pair's slope.
    """
    return target - k * (placebo - direct_effect) * scale


def m_from_k(k: float, sf: float) -> float:
    """Convert scale-free k to the raw bias ratio m = k * SF."""
    _check_sf(sf)
    return k * sf


def k_from_m(m: float, sf: float) -> float:
    """Convert a raw bias ratio m to the scale-free k = m / SF."""
    _check_sf(sf)
    return m / sf


def standard_did_k(sf: float) -> float:
    """The k value whose adjustment reproduces standard DID, 1 / SF."""
    return k_from_m(1.0, sf)


def check_edges(role: str, declared) -> dict[str, tuple[str, ...]]:
    """Every role that accepts the ``declared`` edge names (any of d_to_p,
    p_to_y, p_to_d, y_to_p), mapped to the cautions it carries with them;
    AmbiguousSpec, naming those roles, where ``role`` is not one of them."""
    declared = frozenset(declared)
    accepting = {}
    for name, rule in _ROLE_TABLE.items():
        own = declared - {rule.implies}
        if own in rule.accepts:
            accepting[name] = rule.accepts[own]
    if role not in accepting:
        raise AmbiguousSpec(
            f"role {role} does not accept the declared edges "
            f"({', '.join(sorted(declared)) or 'none'}); roles that "
            f"accept them: {', '.join(accepting) or 'none'}")
    return accepting


def _role_consistency(spec: PlaceboSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Validate role against edges; return (alternatives, cautions)."""
    accepting = check_edges(spec.role, [
        edge for edge, given in (("d_to_p", spec.edge_d_to_p),
                                 ("p_to_y", spec.edge_p_to_y)) if given])
    if spec.role == "mediator" and not spec.acknowledge_mediator:
        raise UnsupportedCase(
            "mediator-case adjustment is discouraged and gated; set "
            "acknowledge_mediator=True to run the total-effect "
            "adjustment anyway (direct/indirect decomposition is out of "
            "scope; see the mediation-analysis literature)"
        )
    if _ROLE_TABLE[spec.role].implies:
        return (), accepting[spec.role]
    return tuple(other for other in accepting if other != spec.role
                 and not _ROLE_TABLE[other].implies), accepting[spec.role]


class CaseFormula:
    """One taxonomy case, resolved against concrete column names.

    ``short_regressions`` lists the (response, regressors) pairs the two
    coefficients come from. ``quantities(frame, idx)`` evaluates (target,
    placebo, SF) on rows ``idx`` of the frame (``ScaledColumns``) of the
    named ``columns``, from one QR of its rows; ``fit_coefficients`` (the
    ShortCoefficients) and ``sf`` (the positive scale factor) read it on a
    whole dataset. ``gram_quantities(frame, g)`` evaluates the same triple
    for a whole batch of resamples from their stacked Gram matrices
    (``ScaledColumns``) and serves the bootstrap replicates.
    ``adjust(coefs, k, direct_effect, sf)`` is the adjusted estimate.
    ``alternatives`` names other roles compatible with the declared edges
    and ``cautions`` carries flags (for example for the mediator case) that
    result tables propagate into their metadata. ``columns``, ``triple``,
    ``anchors``, ``metadata`` and ``warn_large_k`` complete the members the
    engine reads, shared with DoubleFormula.

    The plan behind these: ``designs`` holds each distinct regressor tuple
    once and ``responses`` the responses fitted on it, both in order of
    first use, so a design costs one solve per evaluation: a small QR of
    its columns of the frame's R, or one stacked solve of a batch's Gram
    blocks. ``target`` and ``placebo`` are (design, response, beta row)
    indices; ``norms`` lists the (design, response) residuals SF reads and
    ``sf_ratios`` each ratio's (numerator, denominator) positions in
    ``norms``.
    """

    def __init__(self, spec: PlaceboSpec):
        self.alternatives, self.cautions = _role_consistency(spec)
        role = _ROLE_TABLE[spec.role]
        self.role = spec.role
        self.direct_effect_name = role.direct_effect_name
        names = {"y": spec.outcome_col, "d": spec.treatment_col,
                 "p": spec.placebo_col}
        x = spec.covariate_cols
        self.columns = (*names.values(), *x)
        designs: list[tuple[str, ...]] = []
        responses: list[list[str]] = []
        norms: list[tuple[int, int]] = []

        def locate(response, regressors):
            regressors = (*(names[c] for c in regressors), *x)
            if regressors not in designs:
                designs.append(regressors)
                responses.append([])
            i = designs.index(regressors)
            if names[response] not in responses[i]:
                responses[i].append(names[response])
            return i, responses[i].index(names[response])

        def coefficient(response, regressors, column):
            i, j = locate(response, regressors)
            return i, j, 1 + designs[i].index(names[column])

        def norm(variable, controls):
            key = locate(variable, controls)
            if key not in norms:
                norms.append(key)
            return norms.index(key)

        self.target = coefficient(*role.target)
        self.placebo = coefficient(*role.placebo)
        self.sf_ratios = tuple((norm(num, num_c), norm(den, den_c))
                               for num, num_c, den, den_c in role.sf)
        self.norms = tuple(norms)
        self.designs = tuple(designs)
        self.responses = tuple(map(tuple, responses))
        self.short_regressions = tuple(dict.fromkeys(
            (self.responses[i][j], self.designs[i])
            for i, j, _ in (self.target, self.placebo)))

    def quantities(self, frame: ScaledColumns, idx=slice(None)):
        """(target, placebo, SF) on rows ``idx`` of the frame of
        ``columns``: one QR of the frame's rows and one small QR per
        design (``least_squares``)."""
        r = frame.factor(idx)
        fits = [least_squares(frame, r, regressors, responses)
                for regressors, responses in zip(self.designs,
                                                  self.responses)]

        def norm(i, j):
            return guard_residual_norm(fits[i][1][j], fits[i][2][j],
                                       self.responses[i][j], self.designs[i])

        return self._assemble([fit[0] for fit in fits], norm)

    def gram_quantities(self, frame: ScaledColumns, g):
        """(target, placebo, SF) rows, (batch, 3), from a stack of Gram
        matrices ``g = frame.grams(counts)``, no QR.

        A row holds NaN where it might differ from ``quantities`` on that
        resample, including where a norm SF reads is lost to cancellation
        (see gram_least_squares).
        """
        fits = [gram_least_squares(frame, g, regressors, responses)
                for regressors, responses in zip(self.designs,
                                                 self.responses)]
        return np.stack(self._assemble([beta for beta, _ in fits],
                                       lambda i, j: fits[i][1][:, j]),
                        axis=-1)

    def _assemble(self, betas, norm):
        """(target, placebo, SF) from each design's betas, one resample's
        or a stack's; ``norm(i, j)`` is the checked residual norm of
        response j on design i."""
        norms = [norm(i, j) for i, j in self.norms]
        sf = 1.0
        for num, den in self.sf_ratios:
            sf *= norms[num] / norms[den]
        (ti, tj, tr), (pi, pj, pr) = self.target, self.placebo
        return betas[ti][..., tr, tj], betas[pi][..., pr, pj], sf

    @staticmethod
    def triple(q):
        """(target, placebo, scale) of quantity rows ``q`` (..., 3)."""
        return np.moveaxis(q, -1, 0)

    @staticmethod
    def anchors(q):
        """A table's anchor rows (label, k, direct) at the full-sample
        quantities ``q``, and the metadata that names them: k = 0, the k
        that reproduces standard DID (1 / SF), and k = 1."""
        did_k = standard_did_k(float(q[2]))
        return ([("SOO", 0.0, 0.0), ("Standard DID", did_k, 0.0),
                 ("k=1 DID", 1.0, 0.0)], {"standard_did_k": did_k})

    def metadata(self, q) -> dict:
        """What a result reports of the role, at full-sample ``q``."""
        return dict(role=self.role,
                    direct_effect_name=self.direct_effect_name,
                    alternatives=self.alternatives, cautions=self.cautions,
                    scale_factor=float(q[2]))

    @staticmethod
    def warn_large_k(k: float, stacklevel: int) -> None:
        """ScaleConfusionWarning where |k| exceeds LARGE_K, warned at
        ``stacklevel`` as ``warnings.warn`` counts it from here."""
        if abs(k) > LARGE_K:
            warnings.warn(
                f"|k| = {abs(k):.3g} exceeds {LARGE_K:g}; k is scale-free, "
                "so values this large usually mean m (raw-bias ratio) was "
                "intended", ScaleConfusionWarning, stacklevel=stacklevel)

    def fit_coefficients(self, data: Dataset) -> ShortCoefficients:
        target, placebo, _ = self.quantities(ScaledColumns(data,
                                                           self.columns))
        return ShortCoefficients(target=float(target), placebo=float(placebo))

    def sf(self, data: Dataset) -> float:
        return self.quantities(ScaledColumns(data, self.columns))[2]

    def adjust(self, coefs: ShortCoefficients, k: float, direct_effect: float,
               sf: float) -> float:
        SensitivityPoint(k=k, direct_effect=direct_effect)  # finite check
        if self.role == "mediator":
            warnings.warn(
                "mediator-case adjustment: the sensitivity parameter "
                "conflates causal and confounding channels; interpret with "
                "care",
                MediatorCautionWarning,
                stacklevel=2,
            )
        _check_sf(sf)
        self.warn_large_k(k, stacklevel=3)
        return ovb_estimate(coefs.target, coefs.placebo, sf, k, direct_effect)


def dispatch_case(spec: PlaceboSpec) -> CaseFormula:
    """Resolve a PlaceboSpec to its case formula.

    The declared role wins whenever several roles accept the declared
    edges; ``alternatives`` lists the others, where neither role implies an
    edge of its own. Raises AmbiguousSpec when the role does not accept the
    edges and UnsupportedCase for the gated mediator role without its
    acknowledgment flag.
    """
    return CaseFormula(spec)

def scale_factor(case: CaseFormula, data: Dataset) -> float:
    """Evaluate the case's scale factor on a dataset."""
    value = case.sf(data)
    _check_sf(value)
    return value
