"""Benchmark of the ``plm`` package: one workload, one seed, one run.

    python3 bench/run.py --workload table_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run generates the workload's inputs
from the seed, times how long a fresh process takes to import ``plm``
(several times), then starts the workload process (``worker.py``), which
runs sessions back to back for ``--seconds`` seconds and checks every
operation's outputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is the full record of the run (all
metrics, sample counts, digests, failures and the environment), which is
also saved under ``.bench_work/results/`` for ``compare.py``.

The run exits nonzero without a result when the checkout has no
``src/plm`` or the workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 6
# Per-layer values the record keeps besides BENCHMARK.json's list: layers
# that only some workloads run, and the tracing overhead as a difference.
RECORD_ONLY_UNITS = {
    "engine.run_table_s": "s",
    "engine.run_line_s": "s",
    "engine.run_contour_s": "s",
    "double.run_table_s": "s",
    "did.s": "s",
    "trace.overhead_s": "s",
}
# The whole run must end within 180 s; leave room to clean up.
RUN_LIMIT_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    """Environment for the probe and workload processes.

    ``plm`` comes from this checkout's ``src`` only, BLAS threads equal
    ``nproc`` for every common BLAS, and ``PLM_SEED`` (which would
    override the configured seed) is dropped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PLM_SEED", None)
    threads = str(nproc())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        env[name] = threads
    return env


def _git(root: Path, *args) -> str | None:
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", *args], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, workdir: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    inputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(workdir.iterdir()) if p.is_file()}
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": nproc(),
        "nproc": nproc(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "inputs_sha256": inputs,
    }


def setup_probe(env, root: Path, limit: float) -> dict:
    """Spawn a process that only imports plm; time spawn to import end."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--probe"]
    spawned = time.monotonic()
    out = subprocess.run(argv, env=env, cwd=root, capture_output=True,
                         text=True, timeout=max(limit, 1.0))
    if out.returncode != 0:
        raise RuntimeError(f"import probe failed: {out.stderr.strip()}")
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return {"setup_s": probe["import_done"] - spawned,
            "import_s": probe["import_s"]}


def e2e_values(worker: dict, setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "session_s": statistics.median(s["wall"] for s in worker["sessions"]),
        "cpu_s": statistics.median(s["cpu"] for s in worker["sessions"]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=BENCH.parent,
                        help="checkout whose src/plm is measured (default: "
                             "the one holding this script)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = args.checkout.resolve()
    if not (root / "src" / "plm" / "__init__.py").is_file():
        print(f"bench: {root / 'src' / 'plm'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    results = root / ".bench_work" / "results"
    spans = root / ".bench_work" / "spans"
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = root / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    spans.mkdir(exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        env_record = environment(root, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1) + "\n")
        env = child_env(root)

        def remaining():
            return RUN_LIMIT_S - (time.monotonic() - started)

        setup_probe(env, root, remaining())  # fills __pycache__, page cache
        probes = [setup_probe(env, root, remaining())
                  for _ in range(SETUP_PROBES)]
        result_path = workdir / "worker.json"
        spawned = time.monotonic()
        code = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"),
             "--plan", str(plan_path), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(result_path),
             "--spans", str(spans / f"{tag}.json")],
            env=env, cwd=root, stdout=subprocess.DEVNULL,
            timeout=max(remaining(), 1.0)).returncode
        if code != 0:
            print(f"bench: workload process exited {code}", file=sys.stderr)
            return 3
        worker = json.loads(result_path.read_text())
    except (subprocess.TimeoutExpired, RuntimeError, OSError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected_src = (root / "src" / "plm").resolve()
    if Path(worker["plm_file"]).resolve().parent != expected_src:
        print(f"bench: imported plm from {worker['plm_file']}, not from "
              f"{expected_src}", file=sys.stderr)
        return 3

    setup = [p["setup_s"] for p in probes]
    setup.append(worker["import_done"] - spawned)
    e2e = {name: {"value": value, "unit": e2e_units[name]}
           for name, value in e2e_values(worker, setup).items()}
    attempted = worker["attempted"]
    failed = len(worker["failures"])
    layers = {}
    if args.trace:
        values = dict(worker["layers"])
        values["import.plm_s"] = statistics.median(
            [p["import_s"] for p in probes] + [worker["import_s"]])
        units = layer_units | RECORD_ONLY_UNITS
        layers = {name: {"value": value, "unit": units[name]}
                  for name, value in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": e2e,
        "failed_ratio": failed / attempted,
        "layers": layers,
        "layer_self_s": worker.get("self_s", {}),
        "samples": {
            "setup_s": setup,
            "session_s": [s["wall"] for s in worker["sessions"]],
            "cpu_s": [s["cpu"] for s in worker["sessions"]],
            "traced_session_s": [s["wall"] for s in worker.get("traced",
                                                               [])],
        },
        "warmup": worker["warmup"],
        "attempted": attempted,
        "failed": failed,
        "failures": worker["failures"],
        "digests": worker["digests"],
        "environment": env_record,
        "run_s": time.monotonic() - started,
    }
    (results / f"{tag}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": ({name: layers[name] for name in layer_units}
                    if args.trace else e2e),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
