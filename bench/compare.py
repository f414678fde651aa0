"""Compare two result sets of the benchmark: parent against change.

    python3 bench/compare.py collect --parent DIR --change DIR \\
        --workload table_small --workload surface_io --pairs 10 --out DIR
    python3 bench/compare.py report PARENT CHANGE
    python3 bench/compare.py summary RESULTS > bench/baseline.json

``collect`` runs this benchmark's code against two checkouts in
alternating pairs (pair i runs the parent first when i is even, the change
first when it is odd), with seed i + 1 and the ``run_seconds`` of
``BENCHMARK.json``, and saves each run's record under ``OUT/parent`` and
``OUT/change``.

``report`` reads two result sets (directories or files of the records
``run.py`` saves) and prints, for each workload and end-to-end
metric, each side's median and quartiles, the change's win share over
pairs matched by seed, and a verdict against the bounds in
``BENCHMARK.json``:

* unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* improved: there are at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side) and the medians differ by
  more than the parent's quartile distance;
* unchanged: anything else.

Two result sets of the same code should report every pairing unchanged;
that is the benchmark's steadiness check.

``summary`` prints one result set's medians as JSON, the form of
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10


def load_records(path: Path, traced: bool = False) -> list[dict]:
    """Run records from a directory of record files, or from one file.

    Only untraced records unless ``traced``, then only traced ones.
    """
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(file.read_text()) for file in files]
    return [r for r in records if bool(r["trace"]) == traced]


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bounds() -> dict:
    return {m["name"]: m for m in spec()["end_to_end"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], pairs, bound: float,
            lower_is_better: bool) -> dict:
    """Summary of one metric on one workload; ``pairs`` is (p, c) tuples."""
    sign = 1.0 if lower_is_better else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1p, q3p = _quartiles(parent)
    q1c, q3c = _quartiles(change)
    spread = (q3p - q1p) / abs(med_p) if med_p else float("inf")
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    every_run_better = (max(change) < min(parent) if lower_is_better
                        else min(change) > max(parent))
    if spread > bound and not every_run_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    elif (len(pairs) >= MIN_PAIRS and share >= 0.9
          and -worse * abs(med_p) > q3p - q1p):
        result = "improved"
    else:
        result = "unchanged"
    return {"parent_median": med_p, "parent_q": (q1p, q3p),
            "change_median": med_c, "change_q": (q1c, q3c),
            "parent_spread": spread,
            "change_spread": ((q3c - q1c) / abs(med_c) if med_c
                              else float("inf")),
            "change_worse_by": worse, "win_share": share,
            "pairs": len(pairs), "verdict": result}


def report(parent_path: Path, change_path: Path) -> int:
    parent, change = load_records(parent_path), load_records(change_path)
    metrics = bounds()
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    if not workloads:
        print("no workload appears in both result sets", file=sys.stderr)
        return 2
    verdicts = []
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        by_seed = {r["seed"]: r for r in c_runs}
        matched = [(r, by_seed[r["seed"]]) for r in p_runs
                   if r["seed"] in by_seed]
        note = "" if len(matched) >= MIN_PAIRS else (
            f"  (only {len(matched)} pairs; at least {MIN_PAIRS} needed "
            "for a claim)")
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change "
              f"runs{note}")
        for name, spec in metrics.items():
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in matched]
            v = verdict(p_vals, c_vals, pairs, spec["bound"],
                        spec["better"] == "lower")
            verdicts.append(v["verdict"])
            unit = spec["unit"]
            print(f"  {name:12s} parent {v['parent_median']:.4g} {unit} "
                  f"[{v['parent_q'][0]:.4g}, {v['parent_q'][1]:.4g}] "
                  f"spread {v['parent_spread']:.3f} | change "
                  f"{v['change_median']:.4g} [{v['change_q'][0]:.4g}, "
                  f"{v['change_q'][1]:.4g}] spread {v['change_spread']:.3f} "
                  f"| worse by {v['change_worse_by']:+.3f} (bound "
                  f"{spec['bound']}) | wins {v['win_share']:.2f} of "
                  f"{v['pairs']} | {v['verdict']}")
    return 1 if "regressed" in verdicts else 0


def summary(path: Path) -> int:
    """Print a baseline: per workload, the end-to-end medians and quartiles
    of the untraced runs and the per-layer medians of the traced runs."""
    runs, traced = load_records(path), load_records(path, traced=True)
    out = {}
    for workload in sorted({r["workload"] for r in runs + traced}):
        entry = {}
        mine = [r for r in runs if r["workload"] == workload]
        if mine:
            entry["runs"] = len(mine)
            entry["seeds"] = sorted(r["seed"] for r in mine)
            entry["end_to_end"] = {}
            for name, first in mine[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in mine]
                q1, q3 = _quartiles(values)
                entry["end_to_end"][name] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "unit": first["unit"]}
        layered = [r for r in traced if r["workload"] == workload]
        if layered:
            entry["traced_runs"] = len(layered)
            entry["per_layer"] = {
                name: {"median": statistics.median(
                    r["layers"][name]["value"] for r in layered),
                    "unit": first["unit"]}
                for name, first in layered[0]["layers"].items()}
            entry["layer_self_s"] = layered[0]["layer_self_s"]
        entry["environment"] = (mine or layered)[0]["environment"]
        out[workload] = entry
    print(json.dumps(out, indent=1))
    return 0


def collect(args) -> int:
    out = Path(args.out)
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    seconds = spec()["run_seconds"]
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = pair + 1
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                 "parent")
            for side in order:
                argv = [sys.executable, str(BENCH / "run.py"),
                        "--checkout", str(sides[side]),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"]
                run = subprocess.run(argv, cwd=sides[side],
                                     capture_output=True, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or len(lines) < 2:
                    print(f"{side} {workload} seed {seed} failed:\n"
                          f"{run.stderr}", file=sys.stderr)
                    return 3
                target = out / side / f"{workload}-seed{seed}.json"
                record = json.loads(lines[-2])["record"]
                target.write_text(json.dumps(record, indent=1) + "\n")
                result = json.loads(lines[-1])
                print(f"{workload} seed {seed} {side}: correct "
                      f"{result['correct']}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two result sets")
    rep.add_argument("parent", type=Path)
    rep.add_argument("change", type=Path)
    summ = sub.add_parser("summary", help="medians of one result set")
    summ.add_argument("results", type=Path)
    col = sub.add_parser("collect", help="run alternating pairs")
    col.add_argument("--parent", required=True, help="parent checkout")
    col.add_argument("--change", required=True, help="change checkout")
    col.add_argument("--workload", action="append", required=True)
    col.add_argument("--pairs", type=int, default=MIN_PAIRS)
    col.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change)
    if args.command == "summary":
        return summary(args.results)
    return collect(args)


if __name__ == "__main__":
    sys.exit(main())
