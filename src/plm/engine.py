"""Grid evaluation, contours, and bootstrap inference.

Every adjustment here is affine in the sensitivity parameters, so one pass
over the data yields the handful of coefficients and residual norms that
determine the whole surface. The bootstrap therefore resamples rows once,
stores those per-replicate quantities, and reuses them for every grid
point, anchor row, and line slice.

Full-sample quantities come from one QR per design. Bootstrap replicates
do not refit rows: every coefficient and residual norm a role reads is a
function of the cross-product (Gram) matrix of an intercept and the
columns the engine reads, and a resample is the same as integer counts
over rows, or over clusters for the cluster bootstrap. So
``_bootstrap_quantities`` centres and scales the columns once per run
(``regression.ScaledColumns``) and runs the replicates in batches sized
by the fixed byte budget ``regression.BATCH_BYTES``. A batch stacks its
replicates' counts and forms all their Gram matrices with one matrix
product, against the column-pair products of each row block or, for
clusters, against each cluster's sums of them, formed once per run. Each
design is then solved for the whole batch with one stacked Cholesky and
solve (``regression.gram_least_squares``). A replicate whose Gram solve
might not match QR to rounding -- too few rows, a Cholesky pivot ratio at
or below ``GRAM_TOL``, a rank or residual check of QR's too close to call,
a norm SF reads lost to cancellation, or a double placebo's vanishing
placebo pair -- comes back as NaN and is refitted by QR, in replicate
order, so the same replicates fail, with the same errors, as under QR
everywhere. Where a batch's stacked Cholesky fails, the batch is split in
halves until the replicate whose design block is not positive definite is
alone, and that one goes to QR.

Replicate ``rep`` draws its rows from its own ``SeedSequence(spawn_key=rep)``
and batch sizes depend only on the data's shape and the fixed budget,
never on timing, so reruns with the same BLAS thread count give the same
output bytes. The generic ``bootstrap()`` runs the same draws through one
serial loop, ``_replicates``.

The zero contour needs no search. Each engine's ``surface`` gives the
estimate as a + k * (b + c * direct), zero on the hyperbola
k = -a / (b + c * direct), so the contour is the hyperbola's crossings with
the grid lines in closed form: one polyline per branch, negative k first,
each in increasing direct, a point repeated where two grid lines meet on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .adjust import (
    LARGE_K,
    PlaceboSpec,
    dispatch_case,
    ovb_estimate,
)
from .double import (
    DoublePlaceboSpec,
    DoubleShortFits,
    check_placebo_pair,
    double_placebo_estimate,
    fit_double_shorts,
    placebo_pair_vanishes,
    short_design,
)
from .errors import (
    BootstrapDegenerate,
    ConfigError,
    DataError,
    NonpositiveScale,
    NumericError,
    ScaleConfusionWarning,
    TooFewRows,
)
from .regression import (
    Dataset,
    ScaledColumns,
    gram_least_squares,
)

# A replicate that raises one of these is dropped and counted; a cluster
# resample can come out with too few rows for the design.
_REPLICATE_FAILURES = (NumericError, TooFewRows)


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings shared by the table, contour, line, and bootstrap runners.

    ``k_range`` spans the relative-confounding parameter (the product
    parameter for double-placebo specs); ``direct_range`` spans the
    case-specific direct-effect coefficient (the treatment-to-placebo-
    outcome direct link for double-placebo specs). ``freeze_sf`` holds the
    scale factor at its full-sample value inside bootstrap replicates
    instead of re-estimating it; double-placebo specs have no scale factor
    and refuse it. ``cluster_col`` switches the bootstrap to
    resampling whole clusters.
    """

    spec: PlaceboSpec | DoublePlaceboSpec | None = None
    k_range: tuple[float, float] = (-2.0, 2.0)
    direct_range: tuple[float, float] = (0.0, 0.0)
    grid_points_per_axis: int | None = None
    bootstrap_reps: int = 1000
    seed: int = 0
    ci_level: float = 0.95
    freeze_sf: bool = False
    cluster_col: str | None = None

    def __post_init__(self):
        for name in ("k_range", "direct_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ConfigError(
                    f"{name} must be a finite (low, high) pair, got "
                    f"{(lo, hi)}"
                )
            object.__setattr__(self, name, (float(lo), float(hi)))
        g = self.grid_points_per_axis
        if g is not None and g < 1:
            raise ConfigError("grid_points_per_axis must be at least 1")
        if self.bootstrap_reps < 2:
            raise ConfigError("bootstrap_reps must be at least 2")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError("ci_level must sit strictly between 0 and 1")
        if self.freeze_sf and isinstance(self.spec, DoublePlaceboSpec):
            raise ConfigError(
                "freeze_sf needs a scale factor; double-placebo specs have "
                "none")


class TableRow(NamedTuple):
    """One table entry: a labeled point in (k, direct) space."""

    label: str
    k: float
    direct: float
    estimate: float
    se: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[TableRow, ...]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ContourGrid:
    """Estimate surface over the (k, direct) rectangle.

    ``estimates[i, j]`` belongs to ``(k_values[i], direct_values[j])``.
    The estimate is a + k * (b + c * direct), zero on the hyperbola
    k = -a / (b + c * direct). ``zero_contour`` holds its crossings with
    the grid lines as polylines of (k, direct) points, one per branch:
    negative k first, each in increasing direct (then k), so that every
    segment stays in one grid cell. A point where a k line and a direct
    line meet on the zero set appears once per line. With a = 0 the zero
    set is the lines k = 0 and direct = -b / c, up to three polylines.
    """

    k_values: np.ndarray
    direct_values: np.ndarray
    estimates: np.ndarray
    zero_contour: tuple[np.ndarray, ...]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LineSlice:
    """One-dimensional slices of the surface with bootstrap bands.

    ``curves[i]`` is an (n, 4) array of (parameter value, estimate,
    ci_low, ci_high) holding the fixed parameter at ``fixed_values[i]``.
    """

    varying: str
    fixed_values: tuple[float, ...]
    curves: tuple[np.ndarray, ...]
    metadata: dict = field(default_factory=dict)


def standard_did_k(sf: float) -> float:
    """The k value whose adjustment reproduces standard DID, 1 / SF."""
    if not np.isfinite(sf) or sf <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {sf}")
    return 1.0 / sf


class _SingleEngine:
    """Per-replicate quantities (target, placebo, SF) for a placebo spec."""

    def __init__(self, data: Dataset, spec: PlaceboSpec):
        self.case = dispatch_case(spec)
        self.spec = spec
        names = {spec.outcome_col, spec.treatment_col, spec.placebo_col,
                 *spec.covariate_cols}
        self.cols = {name: data[name] for name in names}

    def quantities(self, idx):
        return self.case.quantities(self.cols, idx)

    def gram_quantities(self, cols: ScaledColumns, g):
        return self.case.gram_quantities(cols, g)

    @staticmethod
    def estimate(q, k, direct):
        """Adjusted estimate; q rows are (target, placebo, sf)."""
        return ovb_estimate(q[..., 0], q[..., 1], k, direct, q[..., 2])

    @staticmethod
    def surface(q):
        """(a, b, c) with ``estimate(q, k, d) = a + k * (b + c * d)``."""
        target, placebo, sf = q
        return target, -placebo * sf, sf


class _DoubleEngine:
    """Per-replicate short coefficients for a double-placebo spec."""

    def __init__(self, data: Dataset, spec: DoublePlaceboSpec):
        self.spec = spec
        self.names = (spec.outcome_col, spec.treatment_col,
                      spec.placebo_treatment_col, spec.placebo_outcome_col,
                      spec.covariate_cols)
        self.design, self.responses = short_design(*self.names)
        self.cols = {name: data[name]
                     for name in {*self.design, *self.responses}}

    def quantities(self, idx):
        """(yd, yp, nd, np) coefficients from one QR on rows ``idx``.

        Raises DenominatorNearZero where the placebo-pair coefficient
        equals its assumed direct part, so such replicates are dropped.
        """
        fits = fit_double_shorts(self.cols, *self.names, idx)
        check_placebo_pair(fits.beta_np, self.spec.beta_np_long)
        return fits

    def gram_quantities(self, cols: ScaledColumns, g):
        """``quantities`` rows, (batch, 4), from ``g = cols.grams(counts)``;
        NaN rows as in gram_least_squares. A vanishing placebo pair is a
        NaN row too, so QR decides it and raises as ``quantities`` does."""
        q = np.stack(DoubleShortFits.read(
            gram_least_squares(cols, g, self.design, self.responses)[0]),
            axis=-1)
        q[placebo_pair_vanishes(q[:, 3], self.spec.beta_np_long)] = np.nan
        return q

    def estimate(self, q, k_product, beta_nd_long):
        """Adjusted estimate; q rows are (yd, yp, nd, np) coefficients."""
        return double_placebo_estimate(
            DoubleShortFits(*np.moveaxis(q, -1, 0)), k_product,
            self.spec.beta_yp_long, beta_nd_long, self.spec.beta_np_long)

    def surface(self, q):
        """(a, b, c) with ``estimate(q, k, d) = a + k * (b + c * d)``."""
        yd, yp, nd, np_ = q
        slope = ((yp - self.spec.beta_yp_long)
                 / (np_ - self.spec.beta_np_long))
        return yd, -slope * nd, slope


def _build_engine(data: Dataset, cfg: AnalysisConfig):
    if isinstance(cfg.spec, PlaceboSpec):
        return _SingleEngine(data, cfg.spec)
    if isinstance(cfg.spec, DoublePlaceboSpec):
        return _DoubleEngine(data, cfg.spec)
    raise ConfigError(
        "config.spec must be a PlaceboSpec or DoublePlaceboSpec"
    )


def _warn_on_ranges(cfg: AnalysisConfig) -> None:
    if isinstance(cfg.spec, DoublePlaceboSpec):
        return
    largest = max(abs(cfg.k_range[0]), abs(cfg.k_range[1]))
    if largest > LARGE_K:
        warnings.warn(
            f"k range reaches |k| = {largest:g}, beyond {LARGE_K:g}; k is "
            "scale-free, so ranges this wide usually mean m (raw-bias "
            "ratio) was intended",
            ScaleConfusionWarning,
            stacklevel=3,
        )


def _cluster_index_pool(data: Dataset, cluster_col: str):
    """Row numbers of each cluster, clusters in sorted id order."""
    _, inverse = np.unique(data[cluster_col], return_inverse=True)
    n_clusters = int(inverse.max()) + 1
    if n_clusters < 2:
        # Every resample would be the full sample: a zero-width interval.
        raise DataError(
            f"cluster column {cluster_col!r} holds one cluster; the cluster "
            "bootstrap needs at least two"
        )
    return [np.flatnonzero(inverse == c) for c in range(n_clusters)]


def _replicate_indices(rng, n_rows: int, members) -> np.ndarray:
    """A replicate's rows: its first draw picks rows, or whole clusters
    (``members``), with replacement; ``_replicate_counts`` counts the same
    draw."""
    if members is None:
        return rng.integers(0, n_rows, n_rows)
    n_clusters = len(members)
    chosen = rng.integers(0, n_clusters, n_clusters)
    return np.concatenate([members[c] for c in chosen])


def _replicate_rng(seed: int, rep: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    )


def _replicate_counts(seed: int, reps, units: int) -> np.ndarray:
    """(len(reps), units): how often each replicate drew each unit, a row
    or a cluster, in the draw ``_replicate_indices`` makes."""
    counts = np.empty((len(reps), units))
    for i, rep in enumerate(reps):
        draw = _replicate_rng(seed, rep).integers(0, units, units)
        counts[i] = np.bincount(draw, minlength=units)
    return counts


def _kept(rows, reps: int):
    """The kept replicates' rows as an array and the number dropped; more
    than 1 percent dropped raises BootstrapDegenerate."""
    failures = reps - len(rows)
    if failures > 0.01 * reps:
        raise BootstrapDegenerate(
            f"{failures} of {reps} bootstrap replicates failed; the design "
            "is too close to degenerate for resampling inference"
        )
    return np.array(rows, dtype=float), failures


def _replicates(data: Dataset, cfg: AnalysisConfig,
                fit: Callable[[np.ndarray], object]):
    """``fit(idx)`` of every bootstrap replicate that does not fail.

    Returns the array of results, one row per kept replicate in replicate
    order, and the number of replicates dropped because ``fit`` raised one
    of ``_REPLICATE_FAILURES`` (see ``_kept``).
    """
    members = (None if cfg.cluster_col is None
               else _cluster_index_pool(data, cfg.cluster_col))
    rows = []
    for rep in range(cfg.bootstrap_reps):
        idx = _replicate_indices(_replicate_rng(cfg.seed, rep), data.n_rows,
                                 members)
        try:
            rows.append(fit(idx))
        except _REPLICATE_FAILURES:
            continue
    return _kept(rows, cfg.bootstrap_reps)


def _gram_rows(engine, cols: ScaledColumns, g) -> list:
    """``engine.gram_quantities`` of the Gram stack ``g``, one row per
    replicate; a row holding NaN is one the Gram solve cannot vouch for.

    Where the stacked Cholesky fails, the stack is split in halves and each
    retried, so one replicate whose design block is not positive definite
    costs a few small retries and ends alone as a NaN row, and the rest of
    its batch keeps the Gram path.
    """
    try:
        return list(engine.gram_quantities(cols, g))
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return [np.full(1, np.nan)]
        half = len(g) // 2
        return (_gram_rows(engine, cols, g[:half])
                + _gram_rows(engine, cols, g[half:]))


def _bootstrap_quantities(engine, data: Dataset, cfg: AnalysisConfig,
                          q_full):
    """Per-replicate quantity rows and the dropped-replicate count;
    ``freeze_sf`` pins each row's SF to the full sample's ``q_full``.

    Replicates run in batches of ``cols.batch``, each fitted from one
    stack of Gram matrices; a row the Gram solve cannot vouch for is
    refitted by QR on the replicate's rows, in replicate order, and
    dropped if that raises one of ``_REPLICATE_FAILURES``.
    """
    members = (None if cfg.cluster_col is None
               else _cluster_index_pool(data, cfg.cluster_col))
    cols = ScaledColumns(engine.cols, members)
    kept = []
    for start in range(0, cfg.bootstrap_reps, cols.batch):
        reps = range(start, min(start + cols.batch, cfg.bootstrap_reps))
        g = cols.grams(_replicate_counts(cfg.seed, reps, cols.units))
        for rep, row in zip(reps, _gram_rows(engine, cols, g)):
            if not np.isfinite(row).all():
                idx = _replicate_indices(_replicate_rng(cfg.seed, rep),
                                         data.n_rows, members)
                try:
                    row = engine.quantities(idx)
                except _REPLICATE_FAILURES:
                    continue
            kept.append(row)
    q_rows, failures = _kept(kept, cfg.bootstrap_reps)
    if cfg.freeze_sf:
        q_rows[:, 2] = q_full[2]
    return q_rows, failures


def _ci_bounds(values: np.ndarray, ci_level: float, axis=None):
    alpha = 1.0 - ci_level
    lo, hi = np.percentile(values,
                           [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)],
                           axis=axis)
    return lo, hi


def _axis_quartiles(bounds: tuple[float, float], g: int) -> np.ndarray:
    """g interior range quantiles, i / (g + 1) of the way across."""
    lo, hi = bounds
    fractions = np.arange(1, g + 1) / (g + 1)
    return np.unique(lo + fractions * (hi - lo))


def _metadata(engine, data: Dataset, cfg: AnalysisConfig, q_full,
              failures: int | None = None) -> dict:
    """Run description; ``failures`` is given by the bootstrap runners."""
    meta = {"n_rows": data.n_rows, "seed": cfg.seed}
    if isinstance(engine, _SingleEngine):
        case = engine.case
        meta.update(
            role=engine.spec.role,
            direct_effect_name=case.direct_effect_name,
            alternatives=case.alternatives,
            cautions=case.cautions,
            scale_factor=float(q_full[2]),
        )
    else:
        meta.update(
            role="double_placebo",
            direct_effect_name="treatment->placebo_outcome",
            alternatives=(),
            cautions=(),
            beta_yp_long=engine.spec.beta_yp_long,
            beta_np_long=engine.spec.beta_np_long,
        )
    if failures is not None:
        meta.update(
            bootstrap_reps=cfg.bootstrap_reps,
            bootstrap_failures=failures,
            ci_level=cfg.ci_level,
            freeze_sf=cfg.freeze_sf,
            cluster_col=cfg.cluster_col,
        )
    return meta


def run_table(data: Dataset, cfg: AnalysisConfig) -> ResultTable:
    """Anchored sensitivity table with bootstrap SEs and CIs.

    Anchor rows: the unadjusted estimate (k = 0), the k that reproduces
    standard DID (1 / SF), and k = 1; double-placebo specs anchor at the
    unadjusted estimate and the single-confounder point identification
    (product = 1). Grid rows sit at interior range quantiles of both
    parameter ranges, i / (g + 1) across each span, so the default g = 3
    gives the quartile points.
    """
    engine = _build_engine(data, cfg)
    _warn_on_ranges(cfg)
    q_full = np.asarray(engine.quantities(slice(None)))
    if isinstance(engine, _DoubleEngine):
        anchors = [("SOO", 0.0, 0.0), ("Point ID", 1.0, 0.0)]
    else:
        sf_full = float(q_full[2])
        anchors = [
            ("SOO", 0.0, 0.0),
            ("Standard DID", standard_did_k(sf_full), 0.0),
            ("k=1 DID", 1.0, 0.0),
        ]
    g = 3 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    k_values = _axis_quartiles(cfg.k_range, g)
    direct_values = _axis_quartiles(cfg.direct_range, g)
    points = anchors + [
        ("Grid", float(k), float(dv))
        for k in k_values
        for dv in direct_values
    ]
    q_rows, failures = _bootstrap_quantities(engine, data, cfg, q_full)
    rows = []
    for label, k, dv in points:
        est = float(engine.estimate(q_full, k, dv))
        draws = engine.estimate(q_rows, k, dv)
        lo, hi = _ci_bounds(draws, cfg.ci_level)
        rows.append(TableRow(
            label=label,
            k=k,
            direct=dv,
            estimate=est,
            se=float(np.std(draws, ddof=1)),
            ci_low=float(lo),
            ci_high=float(hi),
        ))
    meta = _metadata(engine, data, cfg, q_full, failures)
    if isinstance(engine, _SingleEngine):
        meta.update(standard_did_k=standard_did_k(sf_full))
    return ResultTable(rows=tuple(rows), metadata=meta)


def run_contour(data: Dataset, cfg: AnalysisConfig) -> ContourGrid:
    """Estimate surface over the full (k, direct) rectangle.

    No bootstrap: the surface is a point-estimate map, with the zero-level
    set found in closed form from the engine's ``surface`` for overlay
    plots.
    """
    engine = _build_engine(data, cfg)
    _warn_on_ranges(cfg)
    q_full = np.asarray(engine.quantities(slice(None)))
    g = 201 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    k_values = np.linspace(*cfg.k_range, g)
    direct_values = np.linspace(*cfg.direct_range, g)
    estimates = engine.estimate(q_full, k_values[:, None],
                                direct_values[None, :])
    contour = _zero_contour(k_values, direct_values, *engine.surface(q_full))
    return ContourGrid(
        k_values=k_values,
        direct_values=direct_values,
        estimates=estimates,
        zero_contour=tuple(contour),
        metadata=_metadata(engine, data, cfg, q_full),
    )


def run_line(data: Dataset, cfg: AnalysisConfig, varying: str = "k",
             fixed_percentiles: tuple[float, ...] = (0.5,)) -> LineSlice:
    """One-dimensional estimate curves with bootstrap confidence bands.

    ``varying`` is "k" or "direct"; the other parameter is held at the
    given fractions of its configured range (default: midpoint).
    """
    if varying not in ("k", "direct"):
        raise ConfigError("varying must be 'k' or 'direct'")
    for frac in fixed_percentiles:
        if not 0.0 <= frac <= 1.0:
            raise ConfigError("fixed_percentiles must sit in [0, 1]")
    if not fixed_percentiles:
        raise ConfigError("at least one fixed percentile is required")
    engine = _build_engine(data, cfg)
    _warn_on_ranges(cfg)
    q_full = np.asarray(engine.quantities(slice(None)))
    g = 201 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    vary_bounds = cfg.k_range if varying == "k" else cfg.direct_range
    fixed_bounds = cfg.direct_range if varying == "k" else cfg.k_range
    axis = np.linspace(*vary_bounds, g)
    fixed_values = tuple(
        float(fixed_bounds[0] + f * (fixed_bounds[1] - fixed_bounds[0]))
        for f in fixed_percentiles
    )
    q_rows, failures = _bootstrap_quantities(engine, data, cfg, q_full)
    curves = []
    for fv in fixed_values:
        if varying == "k":
            est = engine.estimate(q_full, axis, fv)
            draws = engine.estimate(q_rows[None, :, :], axis[:, None], fv)
        else:
            est = engine.estimate(q_full, fv, axis)
            draws = engine.estimate(q_rows[None, :, :], fv, axis[:, None])
        lo, hi = _ci_bounds(draws, cfg.ci_level, axis=1)
        curves.append(np.column_stack([axis, est, lo, hi]))
    return LineSlice(
        varying=varying,
        fixed_values=fixed_values,
        curves=tuple(curves),
        metadata=_metadata(engine, data, cfg, q_full, failures),
    )


def bootstrap(data: Dataset, cfg: AnalysisConfig,
              statistic: Callable[[Dataset], float]) -> dict:
    """Generic row (or cluster) bootstrap of a scalar statistic.

    Returns {"se": float, "ci": (low, high)} with a percentile interval at
    ``cfg.ci_level``. Replicates where the statistic raises a numeric
    error count as failures, tolerated up to 1 percent.
    """
    draws, _ = _replicates(data, cfg, lambda idx: statistic(data.take(idx)))
    lo, hi = _ci_bounds(draws, cfg.ci_level)
    return {"se": float(np.std(draws, ddof=1)),
            "ci": (float(lo), float(hi))}


def _zero_contour(k_values, direct_values, a, b, c):
    """``ContourGrid.zero_contour`` of the surface a + k * (b + c * direct).

    The crossings of every grid line with k = -a / (b + c * direct) that
    fall inside the rectangle; a line with no crossing (an asymptote, or
    k = 0) divides by zero and its non-finite value is dropped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.concatenate([-a / (b + c * direct_values), k_values])
        d = np.concatenate([direct_values, -(a / k_values + b) / c])
    inside = ((k_values[0] <= k) & (k <= k_values[-1])
              & (direct_values[0] <= d) & (d <= direct_values[-1]))
    k, d = k[inside], d[inside]
    branch = np.sign(k)
    order = np.lexsort((k, d, branch))
    points = np.column_stack([k, d])[order]
    if not len(points):
        return []
    return np.split(points, np.flatnonzero(np.diff(branch[order])) + 1)
