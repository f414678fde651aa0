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

import copy
from dataclasses import dataclass

import numpy as np

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

# Bytes a batch of bootstrap resamples may hold beyond the stored columns
# (see ScaledColumns). Fixed, so batch sizes never depend on timing.
BATCH_BYTES = 8 << 20

# OpenBLAS runs a matrix-vector product or rank-1 update (dgemv, dger) of
# at most _GEMV_ENTRIES entries, and a matrix product (dgemm) of at most
# _GEMM_PRODUCTS multiply-adds, on the calling thread. The frame's QR and
# Gram products (ScaledColumns.factor, .grams) are cut into pieces that
# size, so a run never wakes a BLAS worker and no sum's order depends on
# the BLAS thread count.
_GEMV_ENTRIES = 8192
_GEMM_PRODUCTS = 1 << 18
_GEMM_RESAMPLES = 16

# Floats a resample of a batch holds, in units of q^2 for a frame of q
# columns: its Gram matrix (q^2), and while a design of k coefficients and
# v responses is solved (gram_least_squares, k + v <= q) the design block,
# its Cholesky factor, the right-hand sides, the solution and the
# coefficients (2 k^2 + 3 k v < 3 q^2) with their vectors, and the fits
# of the designs solved before it (under q^2).
_RESAMPLE_FLOATS = 6


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
        self._keep(columns, copy=True)

    @classmethod
    def _adopt(cls, columns) -> "Dataset":
        """A Dataset that keeps the given arrays without copying them; for
        loaders whose fresh arrays no one else holds."""
        out = object.__new__(cls)
        out._keep(columns, copy=False)
        return out

    def _keep(self, columns, copy: bool) -> None:
        cleaned: dict[str, np.ndarray] = {}
        n_rows = None
        if not columns:
            raise ValueError("dataset needs at least one column")
        for name, values in dict(columns).items():
            if not isinstance(name, str) or not name:
                raise ValueError("column names must be non-empty strings")
            arr = (np.array if copy else np.asarray)(values, dtype=np.float64)
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


def _standardize(values, out):
    """Write ``values`` centred and scaled to unit SD into ``out``; return
    (mean, SD). An exactly constant column is written as zeros (SD 1)."""
    mean = values.mean()
    sd = values.std()
    np.subtract(values, mean, out=out)
    if sd > 0:
        out /= sd
    return mean, sd if sd > 0 else 1.0


def _block_rows(units: int, per_row: int) -> int:
    """Rows (or groups) of a block when ``per_row`` floats a row fill half
    of BATCH_BYTES: at least one, at most ``units``."""
    return max(1, min(units, BATCH_BYTES // 2 // (8 * per_row)))


def _step_rows(resamples: int, pairs: int) -> int:
    """Rows of a product of ``resamples`` rows of counts and ``pairs``
    columns that OpenBLAS runs on the calling thread; a lone resample's
    product is a dgemv."""
    return max(1, (_GEMM_PRODUCTS // resamples if resamples > 1
                   else _GEMV_ENTRIES) // pairs)


def _qr_block(q: int) -> int:
    """Rows of a block of ``_blocked_r`` for q columns: rows x q at most
    _GEMV_ENTRIES, since LAPACK's Householder QR of q <= 32 columns is all
    dgemv and dger, and at least 2q."""
    return max(2 * q, _GEMV_ENTRIES // q)


def _blocked_r(take, rows: int, q: int) -> np.ndarray:
    """R, (min(rows, q), q), of a QR of the (rows, q) matrix whose rows
    lo:hi are ``take(lo, hi)``, by TSQR (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 34(1), 2012).

    Blocks of ``_qr_block(q)`` rows are factored by stacked R-only QRs,
    half of BATCH_BYTES of rows at a time, so no copy of the whole matrix
    is made. Their Rs, with the rows left over, are factored the same way
    until one block remains. R is that of one QR up to the signs of its
    rows.
    """
    block = _qr_block(q)
    while rows > block:
        full = rows - rows % block
        step = block * max(1, _block_rows(full, q) // block)
        rs = [np.linalg.qr(take(lo, min(lo + step, full))
                           .reshape(-1, block, q), mode="r").reshape(-1, q)
              for lo in range(0, full, step)]
        stacked = np.concatenate([*rs, take(full, rows)])
        take, rows = (lambda lo, hi, a=stacked: a[lo:hi]), len(stacked)
    return np.linalg.qr(take(0, rows), mode="r")


class ScaledColumns:
    """A run's frame: an intercept plus the columns ``names`` of ``cols``
    (a Dataset or a mapping; by default every key of the mapping), each
    centred and scaled to unit SD once over all rows (``_standardize``),
    in that order. Every fit of the run reads it, so no design gathers or
    re-standardizes columns, and a cross-product matrix of any resample is
    well scaled whatever the columns' units.

    ``factor(idx)`` is the frame's one tall QR, on all rows or on a
    resample's, factored in row blocks (``_blocked_r``): ``least_squares``
    fits each design of the frame's columns from that R with one small QR.
    ``grams(counts)`` gives the cross-product (Gram) matrices of a batch
    of resamples, held as counts over ``units``: the rows, or in the frame
    ``grouped(members)`` returns the groups of rows. No rows are gathered.

    Row units: every Gram matrix is ``counts @ P`` for the products P of
    each column pair at each row, formed in row blocks as the product runs
    and multiplied in sub-products small enough for OpenBLAS to keep on
    the calling thread (``_step_rows``).
    Group units: ``grouped`` forms each group's sums of those products
    once, G rows of q(q+1)/2 values held outside the budget, so a resample
    costs one small product. ``batch`` is the number of resamples whose
    counts, one byte per unit (``engine._replicate_counts``), and floats
    fill half of BATCH_BYTES: a resample's Gram matrix and the temporaries
    of its designs' solves, at most ``_RESAMPLE_FLOATS`` q^2 in all (q the
    frame's columns). ``grams`` fills at most the other half with a row
    block of the pair products and of the counts widened to float64, the
    latter no larger than the counts. So the pair products are formed once
    per batch, and a batch is bounded by the byte budget, not by eight
    bytes a unit.
    """

    def __init__(self, cols, names=None):
        names = list(cols if names is None else names)
        self.position = {name: j for j, name in enumerate(names, 1)}
        self.mean = np.zeros(len(names) + 1)
        self.scale = np.ones(len(names) + 1)
        # Stored transposed, (columns, rows), so a row block of every column
        # is contiguous. Filled a row at a time, so building it needs no
        # temporary the size of the data.
        self.zt = np.empty((len(names) + 1, len(cols[names[0]])))
        self.zt[0] = 1.0
        for j, name in enumerate(names, 1):
            self.mean[j], self.scale[j] = _standardize(cols[name], self.zt[j])
        self._upper = np.triu_indices(len(self.zt))
        self.units = self.zt.shape[1]
        self._unit_sums = None

    def __len__(self) -> int:
        """The number of named columns."""
        return len(self.position)

    def grouped(self, members) -> "ScaledColumns":
        """This frame, sharing its columns, with the groups of rows as the
        units a resample counts; ``members`` holds the row numbers of each
        group. Forms each group's sums of the column-pair products."""
        groups = np.empty(self.zt.shape[1], dtype=np.intp)
        for c, rows in enumerate(members):
            groups[rows] = c
        sums = np.zeros((len(members), len(self._upper[0])))
        width = _block_rows(len(groups), sums.shape[1])
        for start, pairs in self._pair_blocks(width):
            ids = groups[start:start + pairs.shape[1]]
            for k, products in enumerate(pairs):
                sums[:, k] += np.bincount(ids, weights=products,
                                          minlength=len(members))
        out = copy.copy(self)
        out.units, out._unit_sums = len(members), sums
        return out

    def factor(self, idx=slice(None)) -> np.ndarray:
        """R of a QR of the frame's rows ``idx`` (``_blocked_r``): (min(rows,
        columns), columns), the columns in frame order. A resample's rows
        are gathered as they are factored."""
        if isinstance(idx, slice):
            rows = self.zt[:, idx].T
            return _blocked_r(lambda lo, hi: rows[lo:hi], len(rows),
                              len(self.zt))
        return _blocked_r(lambda lo, hi: self.zt[:, idx[lo:hi]].T, len(idx),
                          len(self.zt))

    @property
    def batch(self) -> int:
        """Resamples per batch over the frame's ``units``."""
        q = len(self.zt)
        return max(1, BATCH_BYTES // 2 // (self.units
                                           + 8 * _RESAMPLE_FLOATS * q * q))

    def _pair_blocks(self, width: int):
        """(first row, products) of consecutive blocks of ``width`` rows;
        ``products`` is (column pairs, rows), pairs in ``_upper`` order, in
        one reused buffer."""
        q, n = self.zt.shape
        buffer = np.empty((len(self._upper[0]), width))
        for start in range(0, n, width):
            stop = min(start + width, n)
            block = buffer[:, :stop - start]
            k = 0
            for i in range(q):
                np.multiply(self.zt[i:, start:stop], self.zt[i, start:stop],
                            out=block[k:k + q - i])
                k += q - i
            yield start, block

    def grams(self, counts: np.ndarray) -> np.ndarray:
        """Gram matrices (batch, q, q) of the resamples ``counts`` (batch,
        units), integers of any width: ``Z' diag(w) Z`` with ``w`` each
        resample's row counts."""
        batch, units = counts.shape
        pairs_n = len(self._upper[0])
        grouped = self._unit_sums is not None
        # A row block of the counts widened to float64 holds no more bytes
        # than the batch's counts.
        width = min(_block_rows(units, batch + (0 if grouped else pairs_n)),
                     max(1, units // 8))
        if grouped:
            blocks = ((start, self._unit_sums[start:start + width].T)
                      for start in range(0, units, width))
        else:
            blocks = self._pair_blocks(width)
        wide = np.empty((batch, width))
        flat = np.zeros((batch, pairs_n))
        # Every sub-product stays on the calling thread: the resamples in
        # groups of _GEMM_RESAMPLES, one stacked product (a dgemm per
        # group) per step of rows, and the rest together.
        whole = batch - batch % _GEMM_RESAMPLES
        parts = [(out, rows, _step_rows(out.shape[-2], pairs_n))
                 for out, rows in (
                     (flat[:whole].reshape(-1, _GEMM_RESAMPLES, pairs_n),
                      slice(whole)),
                     (flat[whole:], slice(whole, None)))
                 if out.size]
        for start, pairs in blocks:
            block = wide[:, :pairs.shape[1]]
            block[...] = counts[:, start:start + pairs.shape[1]]
            for out, rows, step in parts:
                for c in range(0, block.shape[1], step):
                    out += np.matmul(
                        block[rows, c:c + step].reshape(*out.shape[:-1], -1),
                        pairs[:, c:c + step].T)
        q = len(self.zt)
        g = np.empty((batch, q, q))
        i, j = self._upper
        g[:, i, j] = flat
        g[:, j, i] = flat
        return g

    def spread(self, g: np.ndarray, names):
        """(SD, RMS), (batch, columns), of the named columns over each
        resample of ``g = self.grams(counts)``, in the columns' own units."""
        j = np.array([self.position[name] for name in names])
        rows = g[:, :1, 0]
        z_mean = g[:, 0, j] / rows
        sd = self.scale[j] * np.sqrt(np.maximum(g[:, j, j] / rows - z_mean**2,
                                                0.0))
        return sd, np.hypot(sd, self.mean[j] + self.scale[j] * z_mean)


def least_squares(frame: ScaledColumns, r, regressors, responses):
    """Least squares of each of ``responses`` on an intercept plus
    ``regressors``, all columns of ``frame``, on the rows ``r`` factors.

    The package's one least-squares kernel; a lone design is a frame of
    its own columns. ``r = frame.factor(idx)`` is the R of the frame's rows
    ``idx`` (all of them, or a resample), and the design's R is that of the
    small QR of its columns of ``r``: the frame is Q R, so its columns J
    are Q R[:, J] (Golub & Van Loan, Matrix Computations, 5.2). Returns
    (beta, l2, y_l2, r_x) in the columns' own units: beta (coefficients,
    responses) with the intercept in ``beta[0]``, each response's residual
    norm and own L2 norm, and R of the centred design [1, X - mean].

    Raises TooFewRows unless there are more rows than coefficients, and
    RankDeficient where a regressor is constant over the rows (SD at most
    RANK_TOL of its root mean square, or of its root mean square about
    the frame's centre) or a diagonal of the design's R, each regressor
    scaled to unit SD over the rows, falls to RANK_TOL of the largest.
    Responses are never judged constant.
    """
    s = np.array([0, *(frame.position[name] for name in regressors)])
    v = np.array([frame.position[name] for name in responses])
    k = len(s)
    # R has min(rows, columns) rows, and a design has fewer coefficients
    # than the frame has columns, so this compares the rows.
    if len(r) <= k:
        raise TooFewRows(
            f"{len(r)} rows cannot support {len(regressors)} regressors plus "
            "intercept"
        )
    # Over the rows: the intercept's R is sqrt(rows), and a column's mean
    # and centred norm are its first entry and the rest of its R column.
    # The frame holds a column about its full-sample mean, so one constant
    # over the rows shows an SD at rounding of its offset from that mean.
    z_sd = np.linalg.norm(r[1:, s[1:]], axis=0) / abs(r[0, 0])
    sd = frame.scale[s[1:]] * z_sd
    offset = frame.scale[s[1:]] * r[0, s[1:]] / r[0, 0]
    constant = sd <= RANK_TOL * np.hypot(
        sd, np.maximum(abs(frame.mean[s[1:]] + offset), abs(offset)))
    r_d = np.linalg.qr(r[:, np.r_[s, v]], mode="r")
    diag = np.abs(np.diag(r_d)[:k]) / np.r_[1.0,
                                             np.where(constant, np.inf, z_sd)]
    if diag.min() <= RANK_TOL * diag.max():
        raise RankDeficient(
            f"collinear design on {list(regressors)} "
            f"(min |R_ii| = {diag.min():.3e})"
        )
    b = np.linalg.solve(r_d[:k, :k], r_d[:k, k:])
    beta = b * (frame.scale[v] / frame.scale[s][:, None])
    beta[0] += frame.mean[v] - frame.mean[s] @ beta
    y_l2 = np.linalg.norm(frame.scale[v] * r[:, v]
                          + np.outer(r[:, 0], frame.mean[v]), axis=0)
    return (beta, frame.scale[v] * np.linalg.norm(r_d[k:, k:], axis=0), y_l2,
            r_d[:k, :k] * frame.scale[s])


def gram_least_squares(cols: ScaledColumns, g: np.ndarray, regressors,
                       responses):
    """``least_squares`` for each matrix of ``g = cols.grams(counts)``.

    ``responses`` name the columns fitted on an intercept plus
    ``regressors``. Solves each resample's normal equations and returns
    (beta, l2) in raw units: beta (batch, coefficients, responses), each
    resample laid out as ``least_squares`` lays it out, and the residual
    norms sqrt(g[v,v] - g[v,S] beta), (batch, responses).

    NaN marks a value that might not match QR to rounding. A resample's
    betas and norms are NaN where it has too few rows or a pivot ratio of
    the Cholesky factor of its design block at or below GRAM_TOL
    (cond(g) near 1/GRAM_TOL**2; at GRAM_TOL = 1e-2 the coefficients stay
    within about 1e-10 of QR's, relative to their size or to
    sd(response) / sd(regressor)), or a regressor or response whose SD over
    the resample (``cols.spread``) is at most RANK_TOL / GRAM_TOL of its
    RMS, so QR's constant-column rule (``least_squares``) decides it; a
    column constant about the frame's centre has a pivot ratio of about
    its SD over that offset, far below GRAM_TOL. QR's rank rule needs no
    other mirror: its |R_ii| are these pivots
    restandardized over the resample's n rows, the intercept's sqrt(n) the
    largest and each other at least its pivot / sqrt(N) for the N rows of
    ``cols``, so its ratio stays above GRAM_TOL / sqrt(N), far above
    RANK_TOL. A norm is also NaN unless its ratio to the response's centred
    norm (the pivot the response would add to the factor) is above
    GRAM_TOL and it is clear of ``guard_residual_norm`` by a factor
    1/GRAM_TOL. Callers refit those resamples with ``least_squares``, which
    raises what it always did.

    Raises numpy.linalg.LinAlgError when the stacked Cholesky fails: some
    design block with enough rows is not numerically positive definite.
    """
    s = np.array([0, *(cols.position[name] for name in regressors)])
    v = np.array([cols.position[name] for name in responses])
    identity = np.eye(len(s))
    g_ss = g[:, s[:, None], s]
    sd, rms = cols.spread(g, (*regressors, *responses))
    trusted = (g[:, 0, 0] > len(s)) & (sd > RANK_TOL / GRAM_TOL * rms).all(1)
    g_ss[~trusted] = identity  # keep the stack factorable
    pivots = np.diagonal(np.linalg.cholesky(g_ss), axis1=1, axis2=2)
    trusted &= pivots.min(1) > GRAM_TOL * pivots.max(1)
    # NumPy has no stacked triangular solve. On the blocks trusted here
    # (cond below about 1/GRAM_TOL**2) an LU solve is as accurate, and
    # identity blocks keep the others from breaking it down.
    g_ss[~trusted] = identity
    g_sv = g[:, s[:, None], v]
    b = np.linalg.solve(g_ss, g_sv)
    g_vv = g[:, v, v]
    r2 = g_vv - np.einsum("mij,mij->mj", g_sv, b)
    m = cols.mean[v] / cols.scale[v]
    uncentred = g_vv + 2.0 * m * g[:, 0, v] + m * m * g[:, 0, :1]
    exact = (trusted[:, None] & (r2 > GRAM_TOL**2 * g_vv)
             & (r2 > (NEAR_ZERO / GRAM_TOL) ** 2 * uncentred))
    l2 = np.where(exact, cols.scale[v] * np.sqrt(np.maximum(r2, 0.0)),
                  np.nan)
    beta = b * (cols.scale[v] / cols.scale[s][:, None])
    beta[:, 0] += cols.mean[v] - np.einsum("i,mij->mj", cols.mean[s], beta)
    beta[~trusted] = np.nan
    return beta, l2


def guard_residual_norm(l2: float, norm: float, variable: str,
                        controls) -> float:
    """Return the residual norm ``l2`` of a column if usable.

    ``norm`` is the L2 norm of ``variable`` at the fitted rows, ``controls``
    its regressors. Raises DegenerateResidual when ``l2`` is at most
    NEAR_ZERO of ``norm``: a ratio with it would rest on rounding noise.
    """
    if l2 <= NEAR_ZERO * norm:
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
    beta, l2, r = _fit_vector(data, regressors, data[response])
    dof = data.n_rows - (len(regressors) + 1)
    sigma2 = float(l2) ** 2 / dof
    r_inv = np.linalg.inv(r)
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    se_all = np.sqrt(sigma2 * xtx_inv_diag)
    return FitSummary(
        coefficients={name: float(b) for name, b in zip(regressors, beta[1:])},
        intercept=float(beta[0]),
        residuals=_residual_vector(data, response, regressors, beta),
        residual_l2=float(l2),
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


def _fit_vector(data: Dataset, regressors, y):
    """(beta, l2, r_x) of ``least_squares`` of the vector ``y`` on an
    intercept plus the named columns, from a frame of those columns alone
    (``y`` keyed None)."""
    frame = ScaledColumns({**{name: data[name] for name in regressors},
                           None: y})
    beta, l2, _, r = least_squares(frame, frame.factor(), regressors, [None])
    return beta[:, 0], l2[0], r


def _residual_vector(data: Dataset, variable, controls, beta=None):
    """Residual of a column (by name) or raw vector on controls + intercept,
    at coefficients ``beta`` (by default, fitted here)."""
    y = data[variable] if isinstance(variable, str) else np.asarray(variable)
    if beta is None:
        beta = _fit_vector(data, controls, y)[0]
    return y - beta[0] - sum(b * data[name]
                             for name, b in zip(controls, beta[1:]))


def partial_corr(data: Dataset, a, b, given) -> float:
    """Partial correlation of ``a`` and ``b`` given the ``given`` columns.

    ``a`` and ``b`` may be column names or raw vectors. Computed as the
    cosine of the two residual vectors after partialling out ``given``.
    """
    va, vb = (data[v] if isinstance(v, str) else np.asarray(v)
              for v in (a, b))
    ra = _residual_vector(data, va, given)
    rb = _residual_vector(data, vb, given)
    na = float(np.linalg.norm(ra))
    nb = float(np.linalg.norm(rb))
    if (na <= NEAR_ZERO * np.linalg.norm(va)
            or nb <= NEAR_ZERO * np.linalg.norm(vb)):
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
