"""Internal consistency checks on freshly simulated data.

Every adjustment here has an exact finite-sample counterpart: feed it the
relative-confounding value and direct-effect value computed from the full
regressions (the ones that include the hidden driver Z) by ``plm.oracle``,
apart from the package's kernel, and it must return the clean coefficient
to floating-point accuracy. These routines run that round trip for
randomized structural models, plus the decomposition identity that ties
the bias factors together. They back the ``verify`` command and the test
suite.

Two tables state what the checks read: ``simulate._GRAPHS`` the graphs
the models are drawn from, and ``_ORACLE`` each role's full regressions,
written apart from the role table the formulas read. The cases are
derived from the role table and the graphs (``SINGLE_CASES``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adjust import _ROLE_TABLE, PlaceboSpec, ShortCoefficients, \
    dispatch_case
from .double import (DoublePlaceboPoint, adjust_double_placebo,
                     fit_double_shorts, point_identify_double_placebo)
from .errors import ConfigError, MediatorCautionWarning, \
    ScaleConfusionWarning
from .oracle import (bias_decomposition_oracle, fit_ols,
                     verify_bias_factor_identity)
from .regression import Dataset, ScaledColumns
from .simulate import _GRAPHS, GRAPH_EDGES, SCMRecipe, simulate_scm

# The three-node graph of each set of edges besides z's.
_GRAPH_OF = {frozenset(edges): graph
             for graph, (nodes, edges) in _GRAPHS.items() if len(nodes) == 3}

# The place of each (graph, role) case: ``run_selfcheck`` draws case i's
# seeds from seed + 1000 * i, so this order fixes what ``plm verify`` prints.
_CASE_ORDER = (
    ("a", "placebo_outcome"), ("a", "placebo_treatment"),
    ("b", "placebo_outcome"), ("c", "placebo_treatment"),
    ("c", "observed_confounder_1"), ("d", "mediator"),
    ("e", "observed_confounder_2"), ("f", "observed_confounder_2"),
    ("g", "post_outcome"), ("h", "post_outcome"), ("d", "placebo_outcome"),
)


def _case_place(case) -> int:
    """The place of a (graph, role, ...) case in ``_CASE_ORDER``; a
    ValueError naming the case where it has none."""
    try:
        return _CASE_ORDER.index(case[:2])
    except ValueError:
        raise ValueError(
            f"self-check case {case[:2]} of the role table has no place in "
            "selfcheck._CASE_ORDER; add it there to fix its seeds") from None


# Graph label, placebo role, and the PlaceboSpec flags: one case for each
# set of declared edges a role accepts, on the graph of d -> y, those edges
# and the one the role implies.
SINGLE_CASES: tuple[tuple[str, str, dict], ...] = tuple(sorted((
    (_GRAPH_OF[frozenset({"d->y", *(edge.replace("_to_", "->") for edge in
                                    (*declared, rule.implies) if edge)})],
     role, {**{f"edge_{edge}": True for edge in sorted(declared)},
            "acknowledge_mediator": True})
    for role, rule in _ROLE_TABLE.items() for declared in rule.accepts),
    key=_case_place))

# The bound ``plm verify`` holds each worst-case error to, as it prints it.
CHECK_TOL_TEXT = "1e-8"
CHECK_TOL = float(CHECK_TOL_TEXT)


@dataclass(frozen=True)
class CheckReport:
    """Worst-case errors from one self-check run."""

    draws: int
    max_recovery_error: float
    max_double_error: float
    max_identity_residual: float

    @property
    def ok(self) -> bool:
        return all(error <= CHECK_TOL for error in (
            self.max_recovery_error, self.max_double_error,
            self.max_identity_residual))


def random_recipe(graph_case: str, seed: int, n: int = 160,
                  z_dim: int = 1) -> SCMRecipe:
    """Structural model with randomized, well-separated coefficients.

    Magnitudes stay in [0.5, 1.5] with random signs so no pathway is
    accidentally null and no denominator collapses.
    """
    rng = np.random.default_rng(seed)
    coefficients = {}
    nodes = set()
    for edge in sorted(GRAPH_EDGES[graph_case]):
        src, dst = edge.split("->")
        nodes.update((src, dst))
        size = z_dim if src == "z" else None
        mag = rng.uniform(0.5, 1.5, size=size)
        sign = rng.choice((-1.0, 1.0), size=size)
        value = mag * sign
        coefficients[edge] = float(value) if size is None else tuple(value)
    noise = {node: float(rng.uniform(0.7, 1.3)) for node in sorted(nodes)}
    return SCMRecipe(n=n, graph_case=graph_case, coefficients=coefficients,
                     z_dim=z_dim, noise_sd=noise, seed=int(rng.integers(2**31)))


# Each role's two regressions on the simulated columns, written
# independently of ``adjust._ROLE_TABLE`` so that the recovery round trip
# checks that table, SF included: the target's and the direct effect's,
# each as (response, regressors, coefficient). Their long fits add Z,
# then X.
_ORACLE = {
    "placebo_outcome": (("Y", "D", "D"), ("P", "D", "D")),
    "placebo_treatment": (("Y", "DP", "D"), ("Y", "DP", "P")),
    "observed_confounder_1": (("Y", "DP", "D"), ("P", "D", "D")),
    "mediator": (("Y", "D", "D"), ("Y", "DP", "P")),
    "observed_confounder_2": (("Y", "DP", "D"), ("D", "P", "P")),
    "post_outcome": (("Y", "D", "D"), ("P", "YD", "Y")),
}


def _oracle_quantities(role: str, data: Dataset, x: tuple[str, ...],
                       z: tuple[str, ...]):
    """Clean coefficient, true direct effect, and the two exact bias
    decompositions: each ``_ORACLE`` regression's long-fit coefficient,
    and its ``bias_decomposition_oracle`` with the coefficient's column as
    the treatment and the other regressors, then X, as controls."""
    regressions = _ORACLE[role]
    longs = [fit_ols(data, response, (*regressors, *z, *x)).coef(column)
             for response, regressors, column in regressions]
    biases = [bias_decomposition_oracle(
        data, response, column, (*regressors.replace(column, ""), *x), z)
        for response, regressors, column in regressions]
    return (*longs, *biases)


def round_trip_inputs(graph_case: str, role: str, spec_kwargs: dict,
                      seed: int, n: int = 160, z_dim: int = 1):
    """(case, (target, placebo, SF), oracle) of one draw: the case
    formula, its short quantities, and ``_oracle_quantities``.

    The last hidden driver is treated as unobserved; earlier ones (when
    z_dim > 1) are used as observed covariates, exercising the X channel.
    """
    recipe = random_recipe(graph_case, seed, n=n, z_dim=z_dim)
    data = simulate_scm(recipe)
    x = tuple(f"Z{i}" for i in range(1, z_dim))
    z = (f"Z{z_dim}",)
    case = dispatch_case(PlaceboSpec(
        outcome_col="Y", treatment_col="D", placebo_col="P", role=role,
        covariate_cols=x, **spec_kwargs))
    return (case, case.quantities(ScaledColumns(data, case.columns)),
            _oracle_quantities(role, data, x, z))


def recovery_error(graph_case: str, role: str, spec_kwargs: dict,
                   seed: int, n: int = 160, z_dim: int = 1) -> float:
    """Relative error of the exact-parameter round trip for one draw.

    The oracle's k is scale-free, the ratio of the two biases in
    correlation units (partial correlation times Cohen's f), so the case
    formula gets back the clean coefficient only if its SF is the
    oracle's ratio of the two biases' SD ratios.
    """
    case, (short_target, placebo, sf), (target, direct, bias_t, bias_p) = \
        round_trip_inputs(graph_case, role, spec_kwargs, seed, n, z_dim)
    k = ((bias_t.partial_corr * bias_t.cohens_f)
         / (bias_p.partial_corr * bias_p.cohens_f))
    with warnings.catch_warnings():
        # The round trip feeds back whatever exact k the draw implies, so
        # both advisory warnings are expected noise here.
        warnings.simplefilter("ignore", MediatorCautionWarning)
        warnings.simplefilter("ignore", ScaleConfusionWarning)
        adjusted = case.adjust(ShortCoefficients(float(short_target),
                                                 float(placebo)),
                               k, direct, sf)
    return abs(adjusted - target) / max(1.0, abs(target))


def double_recovery_error(graph_case: str, seed: int, n: int = 200,
                          z_dim: int = 1,
                          point_identified: bool = True) -> float:
    """Round-trip error for the double-placebo formula on one draw.

    With ``point_identified`` the single-confounder shortcut (product
    fixed at 1) is used; it is exact only for z_dim = 1. Otherwise the
    product is computed from the four exact biases, which is exact for
    any z_dim.
    """
    recipe = random_recipe(graph_case, seed, n=n, z_dim=z_dim)
    data = simulate_scm(recipe)
    z = tuple(f"Z{i}" for i in range(1, z_dim + 1))
    fits = fit_double_shorts(data, "Y", "D", "P", "N")
    long_y = fit_ols(data, "Y", ("D", "P", *z))
    long_n = fit_ols(data, "N", ("D", "P", *z))
    target = long_y.coef("D")
    longs = {"beta_yp_long": long_y.coef("P"),
             "beta_nd_long": long_n.coef("D"),
             "beta_np_long": long_n.coef("P")}
    if point_identified:
        adjusted = point_identify_double_placebo(fits, longs)
    else:
        k_product = (((fits.beta_yd - target)
                      / (fits.beta_yp - longs["beta_yp_long"]))
                     / ((fits.beta_nd - longs["beta_nd_long"])
                        / (fits.beta_np - longs["beta_np_long"])))
        adjusted = adjust_double_placebo(
            fits, DoublePlaceboPoint(k_product=k_product, **longs))
    return float(abs(adjusted - target) / max(1.0, abs(target)))


def identity_residual(seed: int, n: int = 400, z_dim: int = 1) -> float:
    """Residual of the bias-factor decomposition identity on one draw."""
    recipe = random_recipe("a", seed, n=n, z_dim=z_dim)
    data = simulate_scm(recipe)
    z = tuple(f"Z{i}" for i in range(1, z_dim + 1))
    return abs(verify_bias_factor_identity(data, "Y", "D", (), z))


def run_selfcheck(seed: int = 0, draws: int = 25) -> CheckReport:
    """Run all checks ``draws`` times per configuration.

    Alternates between a purely hidden driver and a two-component driver
    with one component observed.
    """
    if draws < 1 or seed < 0:
        raise ConfigError("verify needs draws >= 1 and seed >= 0")
    rec_errors = []
    for base, (graph_case, role, kwargs) in enumerate(SINGLE_CASES):
        for i in range(draws):
            draw_seed = seed + 1000 * base + i
            z_dim = 1 + (i % 2)
            rec_errors.append(recovery_error(graph_case, role, kwargs,
                                             draw_seed, z_dim=z_dim))
    dbl_errors = []
    for base, graph_case in enumerate(("double_a", "double_b")):
        for i in range(draws):
            draw_seed = seed + 20000 + 1000 * base + i
            dbl_errors.append(double_recovery_error(graph_case, draw_seed))
            dbl_errors.append(double_recovery_error(
                graph_case, draw_seed, z_dim=2, point_identified=False))
    id_residuals = [identity_residual(seed + 40000 + i, z_dim=1 + (i % 3))
                    for i in range(draws)]
    return CheckReport(
        draws=draws,
        max_recovery_error=max(rec_errors),
        max_double_error=max(dbl_errors),
        max_identity_residual=max(id_residuals),
    )
