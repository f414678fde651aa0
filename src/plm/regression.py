"""Dense least squares: the data table, the tolerances and the kernels.

This module is the numeric foundation for everything else: every adjustment
formula in the package is assembled from short-regression coefficients and
residual norms computed here, by QR (``least_squares``) on a run's frame of
standardized columns (``ScaledColumns``), or for a batch of bootstrap
resamples from their Gram matrices (``gram_least_squares``).

Conventions
-----------
* An intercept is always included in every fit; ``least_squares`` returns
  it in the first row of its coefficients.
* Ratio quantities are built from L2 norms of residuals so that common
  denominators cancel.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np

from .errors import (
    DegenerateResidual,
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
        """A Dataset that keeps the given arrays without copying them or
        testing them for finiteness; for callers whose fresh arrays no one
        else holds and whose every cell is known to be finite. ``io``'s
        loader is one caller: ``_parse_rows`` tests its parsed array with
        ``np.isfinite``, and ``_scan_rows`` refuses each non-finite cell as
        it reads it. ``take`` is the other: it indexes finite columns."""
        out = object.__new__(cls)
        out._keep(columns, copy=False)
        return out

    def _keep(self, columns, copy: bool) -> None:
        """Keep ``columns``: copied and tested for finiteness where
        ``copy``, else adopted as they are (see ``_adopt``)."""
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
            if copy and not np.all(np.isfinite(arr)):
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

    def take(self, indices) -> "Dataset":
        """The rows at the integer ``indices``, as a resample draws them.
        Each column is a fresh copy of a finite column, so ``_adopt``
        keeps it without a second copy or finiteness test."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset._adopt({name: arr[idx]
                               for name, arr in self._columns.items()})

    def matrix(self, names) -> np.ndarray:
        """Stack the named columns into an (n_rows, len(names)) matrix."""
        return np.column_stack([self[name] for name in names])


def _standardize(values, out):
    """Write ``values`` centred and scaled to unit SD into ``out``; return
    (mean, SD). An exactly constant column is written as zeros (SD 1).

    ``values`` is copied into ``out`` first and read there: a loaded
    column is a strided view of the parsed rows, and one strided pass is
    cheaper than the three of its mean, SD and centring. The mean, the SD
    and the result are the same bytes as those taken from ``values``.

    Where the sum or the squares overflow, so the mean or the SD is not
    finite, both are taken again over the column divided by its largest
    magnitude and scaled back: then the SD is at most that magnitude."""
    np.copyto(out, values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = out.mean(), out.std()
    unit = 1.0
    if not (np.isfinite(mean) and np.isfinite(sd)):
        unit = np.abs(out).max()
        out /= unit
        mean, sd = out.mean(), out.std()
    out -= mean
    if sd > 0:
        out /= sd
    return mean * unit, sd * unit if sd > 0 else 1.0


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
    ``grouped(groups)`` returns the groups of rows. No rows are gathered.

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

    def grouped(self, groups) -> "ScaledColumns":
        """This frame, sharing its columns, with groups of rows as the units
        a resample counts; ``groups`` holds each row's group number, every
        number from 0 to the largest used. Forms each group's sums of the
        column-pair products."""
        units = int(groups.max()) + 1
        sums = np.zeros((units, len(self._upper[0])))
        width = _block_rows(len(groups), sums.shape[1])
        for start, pairs in self._pair_blocks(width):
            ids = groups[start:start + pairs.shape[1]]
            for k, products in enumerate(pairs):
                sums[:, k] += np.bincount(ids, weights=products,
                                          minlength=units)
        out = copy.copy(self)
        out.units, out._unit_sums = units, sums
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
    (beta, l2, y_l2) in the columns' own units: beta (coefficients,
    responses) with the intercept in ``beta[0]``, and each response's
    residual norm and own L2 norm.

    Raises TooFewRows unless there are more rows than coefficients, and
    RankDeficient where a regressor is constant over the rows (SD at most
    RANK_TOL of its root mean square, or of its root mean square about
    the frame's centre) or a diagonal of the design's R, each regressor
    scaled to unit SD over the rows, falls to RANK_TOL of the largest, or
    where the design's triangular solve still fails. Responses are never
    judged constant.
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
    try:
        b = np.linalg.solve(r_d[:k, :k], r_d[:k, k:])
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(
            f"design on {list(regressors)} cannot be solved ({exc})"
        ) from None
    beta = b * (frame.scale[v] / frame.scale[s][:, None])
    beta[0] += frame.mean[v] - frame.mean[s] @ beta
    y_l2 = np.linalg.norm(frame.scale[v] * r[:, v]
                          + np.outer(r[:, 0], frame.mean[v]), axis=0)
    return beta, frame.scale[v] * np.linalg.norm(r_d[k:, k:], axis=0), y_l2


def gram_least_squares(cols: ScaledColumns, g: np.ndarray, regressors,
                       responses):
    """``least_squares`` for each matrix of ``g = cols.grams(counts)``.

    ``responses`` name the columns fitted on an intercept plus
    ``regressors``. Solves each resample's normal equations and returns
    (beta, l2) in raw units: beta (batch, coefficients, responses), each
    resample laid out as ``least_squares`` lays it out, and the residual
    norms sqrt(g[v,v] - g[v,S] beta), (batch, responses).

    NaN marks a value that might not match QR to rounding; callers refit
    its resample with ``least_squares``, which raises what it always did.
    These are the six reasons to refer a resample to QR (the fifth refers
    a norm only):

    1. too few rows: no more than coefficients;
    2. a near-constant column: a regressor or response whose SD over the
       resample (``cols.spread``) is at most RANK_TOL / GRAM_TOL = 1e-8 of
       its RMS, so QR's constant-column rule decides it (a column constant
       about the frame's centre has a pivot ratio far below GRAM_TOL);
    3. a block not positive definite: where the stacked Cholesky fails,
       each block is factored alone and one that fails gets pivots of 0,
       so no finite ``g`` raises;
    4. a Cholesky pivot ratio of the design block at or below GRAM_TOL
       (cond near 1/GRAM_TOL**2). Above it the coefficients are within
       about 1e-10 of QR's, relative to their size or to sd(response) /
       sd(regressor), and QR's |R_ii| ratio stays above GRAM_TOL / sqrt(N)
       for the N rows of ``cols``, far above RANK_TOL;
    5. a norm lost to cancellation: at most GRAM_TOL of the response's
       norm about the frame's centre. Past reason 2 a norm above that is
       above GRAM_TOL * 1e-8 of the response's L2 norm, so it clears
       ``guard_residual_norm`` by 1/GRAM_TOL;
    6. a double placebo's pair within 1e-8 of vanishing
       (``DoubleFormula.gram_quantities``), so QR's check decides it.
    """
    s = np.array([0, *(cols.position[name] for name in regressors)])
    v = np.array([cols.position[name] for name in responses])
    identity = np.eye(len(s))
    g_ss = g[:, s[:, None], s]
    sd, rms = cols.spread(g, (*regressors, *responses))
    trusted = (g[:, 0, 0] > len(s)) & (sd > RANK_TOL / GRAM_TOL * rms).all(1)
    g_ss[~trusted] = identity  # keep the stack factorable
    try:
        factor = np.linalg.cholesky(g_ss)
    except np.linalg.LinAlgError:
        # Block by block: one that is not positive definite keeps pivots
        # of 0, which the ratio below refuses.
        factor = np.zeros_like(g_ss)
        for i in range(len(g_ss)):
            with contextlib.suppress(np.linalg.LinAlgError):
                factor[i] = np.linalg.cholesky(g_ss[i:i + 1])
    pivots = np.diagonal(factor, axis1=1, axis2=2)
    trusted &= pivots.min(1) > GRAM_TOL * pivots.max(1)
    # NumPy has no stacked triangular solve. On the blocks trusted here
    # (cond below about 1/GRAM_TOL**2) an LU solve is as accurate, and
    # identity blocks keep the others from breaking it down.
    g_ss[~trusted] = identity
    g_sv = g[:, s[:, None], v]
    b = np.linalg.solve(g_ss, g_sv)
    g_vv = g[:, v, v]
    r2 = g_vv - np.einsum("mij,mij->mj", g_sv, b)
    exact = trusted[:, None] & (r2 > GRAM_TOL**2 * g_vv)
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
