"""Grid evaluation, contours, and bootstrap inference.

A spec reaches the engine as its formula, ``adjust.CaseFormula`` for a
placebo role or ``double.DoubleFormula`` for the double placebo; ``_bind``
is the one place that tells them apart. A formula names the ``columns`` it
reads, evaluates its quantity rows (a role's target, placebo and SF, the
double placebo's four short coefficients) on rows ``idx`` by QR
(``quantities``) or for a batch of resamples (``gram_quantities``), and
maps rows to their ``triple`` (target, placebo, scale). From the triple on
every spec is the same: the estimate is ``adjust.ovb_estimate``, target -
k * (placebo - direct) * scale, with a role's SF or the double placebo's
pair slope as the scale. ``anchors``, ``metadata`` and ``warn_large_k``
complete the formula. Every runner fits once (``_fit``): bind, full-sample
quantities, bootstrap (table and line), triples and metadata. The estimate
is affine in each sensitivity parameter, so the replicates' triples serve
every point: ``_evaluate`` gives each table row and line point its estimate,
SE and percentile interval, at most ``BATCH_BYTES`` of draws at a time.

Each run builds one frame, ``regression.ScaledColumns``: an intercept
and the columns the formula reads, centred and scaled once. Everything
reads it. The full-sample quantities take one R-only QR of the frame's n
rows, factored in row blocks, and each design one small QR of its columns
of that R (``regression.least_squares``). Bootstrap replicates do not
refit rows: every coefficient and residual norm a role reads is a
function of the cross-product (Gram) matrix of the frame's columns, and a
resample is the same as integer counts over rows, or over clusters for
the cluster bootstrap. So ``_bootstrap_quantities`` runs the replicates
in batches bounded by the fixed byte budget ``regression.BATCH_BYTES``:
a batch's counts are held in one byte a unit (``_replicate_counts``
checks the maximum) and widened to float64 one row block at a time. A
batch forms all its Gram matrices from the counts of each row block times
the column-pair products of that block, formed once per batch, or, for
clusters, each cluster's sums of them, formed once per run; the products
are cut into pieces OpenBLAS runs on the calling thread. Each design is
then solved for the whole batch with one stacked Cholesky and solve
(``regression.gram_least_squares``). A replicate whose Gram solve
might not match QR to rounding, for one of the six reasons that kernel
lists, comes back as NaN and is refitted by one QR of the frame's rows
its counts name, in replicate order, so the same replicates fail, with
the same errors, as under QR everywhere.

A replicate is its counts (``_replicate_counts``), one draw from its own
``SeedSequence(entropy=seed, spawn_key=(rep,))``; the rows a QR refit or
the generic ``bootstrap()`` reads come from them, in row order
(``_replicate_rows``). Batch sizes depend only on the data's shape and
the fixed budget, never on timing, and every product the frame hands
OpenBLAS is small enough to run on the calling thread, so reruns with any
BLAS thread count give the same output bytes.

The zero contour needs no search. ``_surface`` gives the estimate as
a + k * (b + c * direct), zero on the hyperbola
k = -a / (b + c * direct), so the contour is the hyperbola's crossings with
the grid lines in closed form: one polyline per branch, negative k first,
each in increasing direct, a point repeated where two grid lines meet on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .adjust import PlaceboSpec, dispatch_case, ovb_estimate
from .adjust import standard_did_k  # noqa: F401, re-exported
from .double import DoubleFormula, DoublePlaceboSpec
from .errors import (
    BootstrapDegenerate,
    ConfigError,
    DataError,
    NumericError,
    TooFewRows,
)
from .regression import BATCH_BYTES, Dataset, ScaledColumns

# A replicate that raises one of these is dropped and counted by its class;
# a cluster resample can come out with too few rows for the design.
_REPLICATE_FAILURES = (NumericError, TooFewRows)

# The largest count a batch of replicate counts holds in one byte a unit.
_COUNT_MAX = np.iinfo(np.uint8).max


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
        if not isinstance(self.spec, (PlaceboSpec, DoublePlaceboSpec,
                                      type(None))):
            raise ConfigError(
                "spec must be a PlaceboSpec or DoublePlaceboSpec")
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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
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


def _bind(data: Dataset, cfg: AnalysisConfig):
    """The spec's formula and the run's frame (``ScaledColumns``) of the
    columns it reads; the one place that tells the kinds of spec apart."""
    if cfg.spec is None:
        raise ConfigError("config.spec must be a PlaceboSpec or "
                          "DoublePlaceboSpec")
    formula = (DoubleFormula(cfg.spec)
               if isinstance(cfg.spec, DoublePlaceboSpec)
               else dispatch_case(cfg.spec))
    return formula, ScaledColumns(data, formula.columns)


def _surface(target, placebo, scale):
    """(a, b, c) such that the estimate at (k, d) is a + k * (b + c * d)."""
    return target, -placebo * scale, scale


def _cluster_ids(data: Dataset, cluster_col: str) -> np.ndarray:
    """Each row's cluster number, clusters numbered in sorted id order."""
    clusters, ids = np.unique(data[cluster_col], return_inverse=True)
    if len(clusters) < 2:
        # Every resample would be the full sample: a zero-width interval.
        raise DataError(
            f"cluster column {cluster_col!r} holds one cluster; the cluster "
            "bootstrap needs at least two"
        )
    return ids


def _replicate_counts(seed: int, reps, units: int) -> np.ndarray:
    """(len(reps), units): how often replicate ``rep`` drew each unit, a
    row or a cluster, drawing ``units`` of them with replacement from its
    own ``SeedSequence(entropy=seed, spawn_key=(rep,))``.

    Held as uint8, one byte a unit. A count above ``_COUNT_MAX`` (for more
    than 255 units, a chance below 1e-500 a unit) is checked for, and its
    batch is held at the width of ``bincount``'s integers instead.
    """
    counts = np.empty((len(reps), units), dtype=np.uint8)
    for i, rep in enumerate(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        drawn = np.bincount(rng.integers(0, units, units), minlength=units)
        if drawn.max() > _COUNT_MAX:
            counts = counts.astype(drawn.dtype, copy=False)
        counts[i] = drawn
    return counts


def _replicate_rows(counts: np.ndarray, groups=None) -> np.ndarray:
    """A replicate's rows, in row order, from its ``counts`` over units:
    the rows, or the clusters numbered by ``groups`` (``_cluster_ids``)."""
    if groups is not None:
        counts = counts[groups]
    return np.repeat(np.arange(len(counts)), counts)


def _kept(rows, reps: int, causes: Counter):
    """The kept replicates' rows as an array and the number dropped; more
    than 1 percent dropped raises BootstrapDegenerate, naming the count of
    each exception class in ``causes`` that dropped them."""
    failures = reps - len(rows)
    if failures > 0.01 * reps:
        named = ", ".join(f"{name}: {count}"
                          for name, count in sorted(causes.items()))
        raise BootstrapDegenerate(
            f"{failures} of {reps} bootstrap replicates failed ({named}); "
            "the design is too close to degenerate for resampling inference"
        )
    return np.array(rows, dtype=float), failures


def _bootstrap_quantities(formula, frame: ScaledColumns, data: Dataset,
                          cfg: AnalysisConfig, q_full):
    """Per-replicate quantity rows of ``formula`` on the run's ``frame``
    and the dropped-replicate count; ``freeze_sf`` pins each row's SF to
    the full sample's ``q_full``.

    Replicates run in batches of ``frame.batch``, over rows or, grouped,
    over clusters, each fitted from one stack of Gram matrices; a row the
    Gram solve cannot vouch for is refitted by QR of the frame's rows its
    counts name (``_replicate_rows``), in replicate order, and dropped if
    that raises one of ``_REPLICATE_FAILURES``.
    """
    groups = None
    if cfg.cluster_col is not None:
        groups = _cluster_ids(data, cfg.cluster_col)
        frame = frame.grouped(groups)
    kept, causes = [], Counter()
    for start in range(0, cfg.bootstrap_reps, frame.batch):
        reps = range(start, min(start + frame.batch, cfg.bootstrap_reps))
        counts = _replicate_counts(cfg.seed, reps, frame.units)
        for drawn, row in zip(counts, formula.gram_quantities(
                frame, frame.grams(counts))):
            if not np.isfinite(row).all():
                try:
                    row = formula.quantities(frame,
                                             _replicate_rows(drawn, groups))
                except _REPLICATE_FAILURES as exc:
                    causes[type(exc).__name__] += 1
                    continue
            kept.append(row)
    q_rows, failures = _kept(kept, cfg.bootstrap_reps, causes)
    if cfg.freeze_sf:
        q_rows[:, 2] = q_full[2]
    return q_rows, failures


def _axis_quartiles(bounds: tuple[float, float], g: int) -> np.ndarray:
    """g interior range quantiles, i / (g + 1) of the way across."""
    lo, hi = bounds
    fractions = np.arange(1, g + 1) / (g + 1)
    return np.unique(lo + fractions * (hi - lo))


def _fit(data: Dataset, cfg: AnalysisConfig, resample: bool):
    """Every runner's one fit: the (target, placebo, scale) triple of the
    full sample and, if ``resample``, of the kept replicates (else None), the
    metadata, the formula and ``q_full``. The large-k warning names the line
    that called the runner."""
    formula, frame = _bind(data, cfg)
    formula.warn_large_k(max(map(abs, cfg.k_range)), stacklevel=4)
    q_full = np.asarray(formula.quantities(frame))
    meta = {"n_rows": data.n_rows, "seed": cfg.seed,
            **formula.metadata(q_full)}
    reps = None
    if resample:
        q_rows, failures = _bootstrap_quantities(formula, frame, data, cfg,
                                                 q_full)
        reps = formula.triple(q_rows)
        meta.update(bootstrap_reps=cfg.bootstrap_reps,
                    bootstrap_failures=failures, ci_level=cfg.ci_level,
                    freeze_sf=cfg.freeze_sf, cluster_col=cfg.cluster_col)
    return formula.triple(q_full), reps, meta, formula, q_full


def _spread(draws: np.ndarray, ci_level: float):
    """Standard error (ddof 1) and percentile interval at ``ci_level`` of
    ``draws`` along their last axis."""
    alpha = 1.0 - ci_level
    lo, hi = np.percentile(draws,
                           [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)],
                           axis=-1)
    return np.std(draws, axis=-1, ddof=1), lo, hi


def _evaluate(full, reps, k: np.ndarray, direct: np.ndarray,
              ci_level: float):
    """Estimate, SE, CI low and CI high at the points (k[i], direct[i]),
    forming the replicates' draws at most BATCH_BYTES at a time."""
    se, lo, hi = np.empty((3, len(k)))
    block = max(1, BATCH_BYTES // (8 * len(reps[0])))
    for start in range(0, len(k), block):
        at = slice(start, start + block)
        se[at], lo[at], hi[at] = _spread(
            ovb_estimate(*reps, k[at, None], direct[at, None]), ci_level)
    return ovb_estimate(*full, k, direct), se, lo, hi


def run_table(data: Dataset, cfg: AnalysisConfig) -> ResultTable:
    """Anchored sensitivity table with bootstrap SEs and CIs.

    Anchor rows: the unadjusted estimate (k = 0), the k that reproduces
    standard DID (1 / SF), and k = 1; double-placebo specs anchor at the
    unadjusted estimate and the single-confounder point identification
    (product = 1). Grid rows sit at interior range quantiles of both
    parameter ranges, i / (g + 1) across each span, so the default g = 3
    gives the quartile points.
    """
    g = 3 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    k_values = _axis_quartiles(cfg.k_range, g)
    direct_values = _axis_quartiles(cfg.direct_range, g)
    # Built before the fit, so a grid too large to hold fails at once.
    grid_k = np.repeat(k_values, len(direct_values))
    grid_direct = np.tile(direct_values, len(k_values))
    full, reps, meta, formula, q_full = _fit(data, cfg, resample=True)
    anchors, anchor_meta = formula.anchors(q_full)
    labels, anchor_k, anchor_direct = zip(*anchors)
    k = np.concatenate([anchor_k, grid_k])
    direct = np.concatenate([anchor_direct, grid_direct])
    values = _evaluate(full, reps, k, direct, cfg.ci_level)
    rows = tuple(map(TableRow, labels + ("Grid",) * len(grid_k),
                     *(column.tolist() for column in (k, direct, *values))))
    return ResultTable(rows=rows, metadata={**meta, **anchor_meta})


def run_contour(data: Dataset, cfg: AnalysisConfig) -> ContourGrid:
    """Estimate surface over the full (k, direct) rectangle.

    No bootstrap: the surface is a point-estimate map, with the zero-level
    set found in closed form from ``_surface`` for overlay plots.
    """
    full, _, meta, *_ = _fit(data, cfg, resample=False)
    g = 201 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    k_values = np.linspace(*cfg.k_range, g)
    direct_values = np.linspace(*cfg.direct_range, g)
    return ContourGrid(k_values=k_values, direct_values=direct_values,
                       estimates=ovb_estimate(*full, k_values[:, None],
                                              direct_values[None, :]),
                       zero_contour=tuple(_zero_contour(
                           k_values, direct_values, *_surface(*full))),
                       metadata=meta)


def run_line(data: Dataset, cfg: AnalysisConfig, varying: str = "k",
             fixed_percentiles: tuple[float, ...] = (0.5,)) -> LineSlice:
    """One-dimensional estimate curves with bootstrap confidence bands.

    ``varying`` is "k" or "direct"; the other parameter is held at the
    given fractions of its configured range (default: midpoint).
    """
    if varying not in ("k", "direct"):
        raise ConfigError("varying must be 'k' or 'direct'")
    if not all(0.0 <= frac <= 1.0 for frac in fixed_percentiles):
        raise ConfigError("fixed_percentiles must sit in [0, 1]")
    if not fixed_percentiles:
        raise ConfigError("at least one fixed percentile is required")
    g = 201 if cfg.grid_points_per_axis is None else cfg.grid_points_per_axis
    bounds = (cfg.k_range, cfg.direct_range)
    vary_bounds, (lo, hi) = bounds if varying == "k" else bounds[::-1]
    axis = np.linspace(*vary_bounds, g)
    fixed_values = tuple(float(lo + f * (hi - lo)) for f in fixed_percentiles)
    full, reps, meta, *_ = _fit(data, cfg, resample=True)
    curves = []
    for fv in fixed_values:
        fixed = np.full(g, fv)
        k, dv = (axis, fixed) if varying == "k" else (fixed, axis)
        estimate, _, ci_low, ci_high = _evaluate(full, reps, k, dv,
                                                 cfg.ci_level)
        curves.append(np.column_stack([axis, estimate, ci_low, ci_high]))
    return LineSlice(varying=varying, fixed_values=fixed_values,
                     curves=tuple(curves), metadata=meta)


def bootstrap(data: Dataset, cfg: AnalysisConfig,
              statistic: Callable[[Dataset], float]) -> dict:
    """Generic row (or cluster) bootstrap of a scalar statistic.

    Returns {"se": float, "ci": (low, high)} with a percentile interval at
    ``cfg.ci_level``. Each replicate's statistic reads the rows its counts
    name (``_replicate_rows``); replicates where it raises a numeric error
    count as failures, tolerated up to 1 percent (``_kept``).
    """
    groups = (None if cfg.cluster_col is None
              else _cluster_ids(data, cfg.cluster_col))
    units = data.n_rows if groups is None else int(groups.max()) + 1
    draws, causes = [], Counter()
    for rep in range(cfg.bootstrap_reps):
        rows = _replicate_rows(_replicate_counts(cfg.seed, (rep,), units)[0],
                               groups)
        try:
            draws.append(statistic(data.take(rows)))
        except _REPLICATE_FAILURES as exc:
            causes[type(exc).__name__] += 1
    se, lo, hi = _spread(_kept(draws, cfg.bootstrap_reps, causes)[0],
                         cfg.ci_level)
    return {"se": float(se), "ci": (float(lo), float(hi))}


def _zero_contour(k_values, direct_values, a, b, c):
    """``ContourGrid.zero_contour`` of the surface a + k * (b + c * direct).

    The crossings of every grid line with k = -a / (b + c * direct) that
    fall inside the rectangle; a line with no crossing (an asymptote, or
    k = 0) divides by zero, a subnormal k can overflow, and the non-finite
    value is dropped.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
