"""Output checks for one benchmark operation.

Each check reads what the operation wrote (or, for the double placebo,
the rows it returned) and compares the numbers against reference values
computed independently with ``numpy.linalg.lstsq``. Coefficients and
scale factors must agree to 1e-8 relative. Bootstrap standard errors and
percentile intervals are rebuilt from the reference quantities of every
replicate (``workloads.bootstrap_reference``) and must agree to 1e-9 of
the size of the largest term they are made of (the two implementations
agree to about 1e-12 of it). ``digest`` hashes the outputs so
a run can require identical bytes from every session.

Standard library only, so it can check files without importing ``plm``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path

RTOL = 1e-8
BOOT_RTOL = 1e-9
TABLE_HEADER = ["label", "k", "direct_effect", "estimate", "std_error",
                "ci_low", "ci_high"]


def digest(paths, rows=None) -> str:
    """sha256 over the named files' bytes, or over the rows' repr.

    Files are read in blocks, so checking never raises the workload
    process's peak memory above what the program itself reached.
    """
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    if rows is not None:
        h.update(repr([tuple(row) for row in rows]).encode())
    return h.hexdigest()


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), abs(scale))


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _table_rows(path):
    rows = _read_csv(path)
    if rows[0] != TABLE_HEADER:
        raise ValueError(f"{path}: header {rows[0]}")
    return [(r[0], *map(float, r[1:])) for r in rows[1:]]


def _single_estimate(ref, k, direct):
    return ref["target"] - k * (ref["placebo"] - direct) * ref["sf"]


def _single_draw(q, k, direct):
    """Estimate and its largest term on one replicate (target, placebo,
    SF)."""
    shift = k * (q[1] - direct) * q[2]
    return q[0] - shift, max(abs(q[0]), abs(shift))


def _double_draw(q, k, direct):
    """The same for a double-placebo replicate (yd, yp, nd, np)."""
    shift = k * q[1] * (q[2] - direct) / q[3]
    return q[0] - shift, max(abs(q[0]), abs(shift))


def _percentile(ordered, q):
    """Percentile ``q`` of sorted values, interpolated linearly between
    neighbours (numpy's default method)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _bootstrap_want(ref, draw, k, direct):
    """(se, ci_low, ci_high, scale) of the reference draws at one point."""
    pairs = [draw(q, k, direct) for q in ref["replicates"]]
    draws = sorted(value for value, _ in pairs)
    alpha = 1.0 - ref["ci_level"]
    return (statistics.stdev(draws), _percentile(draws, 50.0 * alpha),
            _percentile(draws, 100.0 - 50.0 * alpha),
            max(term for _, term in pairs))


def _check_bootstrap_rows(rows, ref, draw, errors):
    """Standard error and interval of every table row."""
    for label, k, direct, _estimate, *got in rows:
        *want, scale = _bootstrap_want(ref, draw, k, direct)
        for name, g, w in zip(("std_error", "ci_low", "ci_high"), got,
                              want):
            if abs(g - w) > BOOT_RTOL * scale:
                errors.append(f"{label} at k={k!r}, direct={direct!r}: "
                              f"{name} {g!r} != {w!r}")


def _check_single_rows(rows, ref, errors):
    """Anchor and grid rows of a single-placebo table."""
    labels = [row[0] for row in rows]
    if labels[:3] != ["SOO", "Standard DID", "k=1 DID"]:
        errors.append(f"anchor rows {labels[:3]}")
        return
    if not _close(rows[1][1], 1.0 / ref["sf"]):
        errors.append(f"Standard DID k {rows[1][1]!r} != 1/SF "
                      f"{1.0 / ref['sf']!r}")
    for label, k, direct, estimate, *_ in rows:
        want = _single_estimate(ref, k, direct)
        scale = max(abs(ref["target"]), abs(k * (ref["placebo"] - direct)
                                            * ref["sf"]))
        if not _close(estimate, want, scale):
            errors.append(f"{label} at k={k!r}, direct={direct!r}: "
                          f"{estimate!r} != {want!r}")
    _check_bootstrap_rows(rows, ref, _single_draw, errors)


def _check_double_rows(rows, ref, errors):
    labels = [row[0] for row in rows]
    if labels[:2] != ["SOO", "Point ID"]:
        errors.append(f"anchor rows {labels[:2]}")
        return
    for label, k, direct, estimate, *_ in rows:
        shift = k * ref["yp"] * (ref["nd"] - direct) / ref["np"]
        want = ref["yd"] - shift
        if not _close(estimate, want, max(abs(ref["yd"]), abs(shift))):
            errors.append(f"{label} at k={k!r}, direct={direct!r}: "
                          f"{estimate!r} != {want!r}")
    _check_bootstrap_rows(rows, ref, _double_draw, errors)


def _check_contour(op, ref, errors):
    surface, sidecar, svg = op["outputs"]
    grid = ref["grid"]
    # Streamed: the surface has grid**2 rows.
    with open(surface, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        count, at_zero = 0, []
        for k, _direct, estimate in reader:
            count += 1
            if float(k) == 0.0:
                at_zero.append(float(estimate))
    if header != ["k", "direct", "estimate"] or count != grid**2:
        errors.append(f"surface has {count} rows, want {grid**2}")
        return
    if len(at_zero) != grid:
        errors.append(f"surface has {len(at_zero)} points at k = 0")
    for value in at_zero:
        if not _close(value, ref["target"]):
            errors.append(f"k = 0 estimate {value!r} != target "
                          f"{ref['target']!r}")
            break
    polylines = json.loads(Path(sidecar).read_text())["zero_contour"]
    if not polylines:
        errors.append("zero contour is empty")
    paths = Path(svg).read_text().count("<path ")
    if paths != len(polylines):
        errors.append(f"svg has {paths} paths for {len(polylines)} "
                      "contour pieces")


def _check_line(op, ref, errors):
    *curves, svg = op["outputs"]
    if len(curves) != ref["curves"]:
        errors.append(f"{len(curves)} curves, want {ref['curves']}")
    for path in curves:
        rows = _read_csv(path)
        if len(rows) != ref["grid"] + 1:
            errors.append(f"{path}: {len(rows) - 1} rows")
            continue
        at_zero = [r for r in rows[1:] if float(r[0]) == 0.0]
        if len(at_zero) != 1 or not _close(float(at_zero[0][1]),
                                           ref["target"]):
            errors.append(f"{path}: k = 0 estimate is not the target")
        for r in rows[1:]:
            k, lo, hi, fixed = (float(r[i]) for i in (0, 2, 3, 4))
            _se, want_lo, want_hi, scale = _bootstrap_want(
                ref, _single_draw, k, fixed)
            if (abs(lo - want_lo) > BOOT_RTOL * scale
                    or abs(hi - want_hi) > BOOT_RTOL * scale):
                errors.append(f"{path}: band at k={k!r} is "
                              f"[{lo!r}, {hi!r}], want "
                              f"[{want_lo!r}, {want_hi!r}]")
                break
    if Path(svg).read_text().count("<polyline ") != len(curves):
        errors.append("line svg does not draw one polyline per curve")


def _check_did(op, ref, errors):
    out = json.loads(Path(op["outputs"][0]).read_text())
    means = [abs(ref[key]) for key in ("mean_y_treated", "mean_y_control",
                                       "mean_n_treated", "mean_n_control")]
    dim_y = ref["mean_y_treated"] - ref["mean_y_control"]
    dim_n = ref["mean_n_treated"] - ref["mean_n_control"]
    gap = ref["mean_y_control"] - ref["mean_n_control"]
    # (want, scale): differences of means are checked against the size
    # of the means they cancel.
    want = {"dim_Y": (dim_y, max(means)), "dim_N": (dim_n, max(means)),
            "w_for_m_1": ((ref["mean_y_control"] + dim_n
                           - ref["mean_n_treated"]) / gap,
                          3 * max(means) / abs(gap))}
    for m in (0.0, 0.5, 1.0, 1.5):
        want[f"att_at_m.{m:g}"] = (dim_y - m * dim_n, 2.5 * max(means))
    got = {"dim_Y": out["dim_Y"], "dim_N": out["dim_N"],
           "w_for_m_1": out["w_for_m_1"]}
    got.update({f"att_at_m.{key}": value
                for key, value in out["att_at_m"].items()})
    for key, (value, scale) in want.items():
        if key not in got or not _close(got[key], value, scale):
            errors.append(f"did {key}: {got.get(key)!r} != {value!r}")


def check(op: dict, rows=None) -> list[str]:
    """Problems found in one operation's outputs; empty when correct."""
    ref = op["check"]
    errors: list[str] = []
    try:
        kind = ref["type"]
        if kind == "table":
            _check_single_rows(_table_rows(op["outputs"][0]), ref, errors)
        elif kind == "double":
            _check_double_rows([tuple(r) for r in rows], ref, errors)
        elif kind == "contour":
            _check_contour(op, ref, errors)
        elif kind == "line":
            _check_line(op, ref, errors)
        elif kind == "did":
            _check_did(op, ref, errors)
        else:
            errors.append(f"unknown check {kind!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors
