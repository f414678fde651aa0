"""Self-test of the benchmark's output checks and comparison rules.

    python3 bench/selftest.py

Builds every workload's inputs in a temporary directory under
``.bench_work``, writes outputs with the reference values themselves (no
``plm`` needed; standard errors and intervals come from the reference
replicates through numpy), and requires that the checks accept them and
flag each perturbed copy: one number off by a relative 1e-6 in a table's
estimate, standard error or interval, in the double placebo's estimate or
standard error, in the contour's k = 0 column, in a line slice's estimate
or band, and in the did output. It also checks the compare command's
verdicts on made-up result sets. Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import check  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402


def _single(q, k, direct):
    return q[..., 0] - k * (q[..., 1] - direct) * q[..., 2]


def _double(q, k, direct):
    return q[..., 0] - k * q[..., 1] * (q[..., 2] - direct) / q[..., 3]


def _row(ref, estimate, label, k, direct):
    """A table row from the reference point and replicates, via numpy."""
    full = np.array([ref[key] for key in ("target", "placebo", "sf")]
                    if "sf" in ref else
                    [ref[key] for key in ("yd", "yp", "nd", "np")])
    draws = estimate(np.array(ref["replicates"]), k, direct)
    alpha = 1.0 - ref["ci_level"]
    lo, hi = np.percentile(draws, [50.0 * alpha, 100.0 - 50.0 * alpha])
    return (label, k, direct, float(estimate(full, k, direct)),
            float(np.std(draws, ddof=1)), float(lo), float(hi))


def _write_table(op, path: Path) -> None:
    ref = op["check"]
    rows = [("SOO", 0.0, 0.0), ("Standard DID", 1.0 / ref["sf"], 0.0),
            ("k=1 DID", 1.0, 0.0), ("Grid", -1.0, -100.0),
            ("Grid", 1.0, 100.0)]
    lines = [",".join(check.TABLE_HEADER)]
    for point in rows:
        label, *values = _row(ref, _single, *point)
        lines.append(",".join([label, *map(repr, values)]))
    path.write_text("\n".join(lines) + "\n")


def _double_rows(op):
    return [_row(op["check"], _double, *point)
            for point in (("SOO", 0.0, 0.0), ("Point ID", 1.0, 0.0),
                          ("Grid", 0.5, 10.0))]


def _write_contour(op) -> None:
    ref = op["check"]
    ref["grid"] = 3
    surface, sidecar, svg = map(Path, op["outputs"])
    ks = [-1.0, 0.0, 1.0]
    lines = ["k,direct,estimate"]
    for k in ks:
        for direct in (-1.0, 0.0, 1.0):
            est = ref["target"] - k * (ref["placebo"] - direct) * ref["sf"]
            lines.append(f"{k!r},{direct!r},{est!r}")
    surface.write_text("\n".join(lines) + "\n")
    sidecar.write_text(json.dumps({"zero_contour": [[[0.5, 0.5]]]}))
    svg.write_text('<svg><path d="M 0 0"/></svg>\n')


def _write_line(op) -> None:
    ref = op["check"]
    ref["grid"] = 3
    *curves, svg = map(Path, op["outputs"])
    for path in curves:
        lines = ["k,estimate,ci_low,ci_high,fixed_direct"]
        for k in (-1.0, 0.0, 1.0):
            _, _, _, est, _, lo, hi = _row(ref, _single, "", k, 0.0)
            lines.append(",".join(map(repr, (k, est, lo, hi, 0.0))))
        path.write_text("\n".join(lines) + "\n")
    svg.write_text("".join("<polyline />" for _ in curves))


def _write_did(op) -> None:
    ref = op["check"]
    dim_y = ref["mean_y_treated"] - ref["mean_y_control"]
    dim_n = ref["mean_n_treated"] - ref["mean_n_control"]
    gap = ref["mean_y_control"] - ref["mean_n_control"]
    payload = {
        "dim_Y": dim_y, "dim_N": dim_n,
        "att_at_m": {f"{m:g}": dim_y - m * dim_n for m in (0, 0.5, 1, 1.5)},
        "w_for_m_1": (ref["mean_y_control"] + dim_n
                      - ref["mean_n_treated"]) / gap,
    }
    Path(op["outputs"][0]).write_text(json.dumps(payload))


def _perturb_csv(path: Path, row: int, column: int) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _contour_k0_row(path: Path) -> int:
    rows = path.read_text().splitlines()
    return next(i for i, line in enumerate(rows[1:], 1)
                if float(line.split(",")[0]) == 0.0)


# Cells perturbed, one at a time, as (row, column) of the first output
# file: a table's Standard DID estimate and standard error and its SOO
# upper bound; the contour's first k = 0 estimate (row found at run
# time); a line slice's k = 0 estimate and lower band. The did case
# perturbs DID at m = 1.
PERTURBED = {
    "table": ((2, 3), (2, 4), (1, 6)),
    "contour": ((None, 2),),
    "line": ((2, 1), (1, 2)),
    "did": (None,),
}


def _output_cases(workdir: Path) -> list[str]:
    failures = []

    def expect(name, problems, flagged):
        if bool(problems) != flagged:
            failures.append(f"{name}: expected "
                            f"{'a problem' if flagged else 'no problem'}, "
                            f"got {problems}")

    for name in workloads.WORKLOADS:
        wd = workdir / name
        wd.mkdir()
        plan = workloads.build(name, 7, wd)
        for op in plan["ops"]:
            kind = op["check"]["type"]
            label = f"{name}/{op['name']}"
            if kind == "double":
                rows = _double_rows(op)
                expect(label, check.check(op, rows), False)
                for column in (3, 4):  # estimate, standard error
                    bad = [list(r) for r in rows]
                    bad[1][column] *= 1 + 1e-6
                    expect(f"{label} column {column} perturbed",
                           check.check(op, bad), True)
                continue
            writer = {"table": lambda o: _write_table(o, Path(o["outputs"][0])),
                      "contour": _write_contour, "line": _write_line,
                      "did": _write_did}[kind]
            first = Path(op["outputs"][0])
            for cell in PERTURBED[kind]:
                writer(op)
                expect(label, check.check(op, None), False)
                before = check.digest(op["outputs"])
                if kind == "did":
                    payload = json.loads(first.read_text())
                    payload["att_at_m"]["1"] *= 1 + 1e-6
                    first.write_text(json.dumps(payload))
                else:
                    row, column = cell
                    if row is None:
                        row = _contour_k0_row(first)
                    _perturb_csv(first, row, column)
                expect(f"{label} cell {cell} perturbed",
                       check.check(op, None), True)
                if check.digest(op["outputs"]) == before:
                    failures.append(f"{label}: digest missed the change")
    return failures


def _compare_cases() -> list[str]:
    failures = []
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    cases = {
        "unchanged": [v * 1.001 for v in base],
        "improved": [v * 0.8 for v in base],
        "regressed": [v * 1.3 for v in base],
    }
    for want, change in cases.items():
        got = compare.verdict(base, change, list(zip(base, change)), 0.1,
                              True)["verdict"]
        if got != want:
            failures.append(f"compare: {want} case reported {got}")
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    got = compare.verdict(noisy, base, list(zip(noisy, base)), 0.1,
                          True)["verdict"]
    if got != "unresolved":
        failures.append(f"compare: wide-spread case reported {got}")
    return failures


def main() -> int:
    workdir = BENCH.parent / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        failures = _output_cases(workdir) + _compare_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
