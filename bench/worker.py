"""The workload process: one client running sessions back to back.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count fixed. It imports ``plm`` first, so the
parent can time set-up from spawn to the end of that import, then runs a
warm-up session and timed sessions until its time is up, checking every
operation's outputs after each session.

Operations go through public entry points only: ``plm.cli.cli_main``
in-process (the ``plm`` command minus interpreter start) and
``plm.run_table`` for the double placebo, which has no CLI form.

With ``--trace 1`` it alternates untraced sessions with traced ones. A
traced session wraps the public functions the CLI calls (config parsing,
CSV loading, the runners, the writers, the did helpers) in spans recorded
from here, outside the program. One further session turns tracemalloc
on inside the runners for allocation peaks, and a few probes call single
layers directly. Spans stay in memory and are written when the run ends.

``--probe`` only imports ``plm`` and reports when the import returned.
"""

import time
import sys

_T0 = time.perf_counter()
import plm  # noqa: E402  (timed: set-up ends when this returns)
import plm.cli  # noqa: E402  (what the ``plm`` command loads)

IMPORT_DONE = time.monotonic()
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402

MIB = 2.0 ** 20


class OpFailed(Exception):
    """An operation exited nonzero."""


class Tracer:
    """Spans (name, start, end, parent, session, op) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.session = None
        self.op = None
        self.memory = False

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "id": len(self.spans),
               "parent": parent["id"] if parent else None,
               "root": parent["root"] if parent else name,
               "session": self.session, "op": self.op}
        self.spans.append(rec)
        self._stack.append(rec)
        measure_memory = self.memory and name.startswith("engine.")
        if measure_memory:
            tracemalloc.start()
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - cpu0
            if measure_memory:
                rec["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()


def _file_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(_args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _bootstrap_counts(_args, result):
    meta = result.metadata
    if "bootstrap_reps" not in meta:
        return {}
    return {"reps": meta["bootstrap_reps"],
            "failures": meta["bootstrap_failures"]}


# Public functions wrapped in spans: (span name, module, attribute, hook
# that reads counts from the arguments and result).
TRACED = (
    ("io.parse_run_config", "plm.io", "parse_run_config", None),
    ("io.load_csv", "plm.io", "load_csv", _file_bytes),
    ("io.emit_outputs", "plm.io", "emit_outputs", _written_bytes),
    ("engine.run_table", "plm.engine", "run_table", _bootstrap_counts),
    ("engine.run_contour", "plm.engine", "run_contour", None),
    ("engine.run_line", "plm.engine", "run_line", _bootstrap_counts),
    ("did.att", "plm.did", "att", None),
    ("did.m_to_w", "plm.did", "m_to_w", None),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if hook is not None:
                rec.update(hook(args, result))
            return result
    return traced


def install_spans(tracer: Tracer) -> list:
    """Wrap every binding of the traced functions inside ``plm``.

    Returns the patches so ``remove_spans`` can restore the originals.
    """
    patches = []
    modules = [m for name, m in sys.modules.items()
               if name == "plm" or name.startswith("plm.")]
    for span_name, module, attr, hook in TRACED:
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(tracer, span_name, original, hook)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                patches.append((mod, key, original))
                setattr(mod, key, wrapper)
    group_means = plm.did.GroupMeans
    original = group_means.__dict__["from_data"]
    patches.append((group_means, "from_data", original))
    group_means.from_data = classmethod(_wrap(
        tracer, "did.GroupMeans.from_data", original.__func__, None))
    return patches


def remove_spans(patches: list) -> None:
    for obj, key, original in reversed(patches):
        setattr(obj, key, original)


def _double_config(op: dict, reps: int):
    spec = plm.DoublePlaceboSpec(
        outcome_col="Y", treatment_col="D", placebo_treatment_col="P",
        placebo_outcome_col="N", covariate_cols=tuple(op["covariates"]))
    return plm.AnalysisConfig(
        spec=spec, k_range=tuple(op["k"]), direct_range=tuple(op["direct"]),
        grid_points_per_axis=op["grid"], bootstrap_reps=reps,
        seed=op["seed"], ci_level=op["ci_level"])


def run_op(op: dict):
    """Run one operation; returns the double placebo's rows, else None."""
    if op["kind"] == "double":
        data = plm.load_csv(op["data"])
        return plm.run_table(data, _double_config(op, op["reps"])).rows
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = plm.cli.cli_main(op["argv"])
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return None


class Session:
    """Times sessions and checks every operation's outputs."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, tracer: Tracer | None = None, sid=None) -> dict:
        outcomes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in self.ops:
            if tracer is not None:
                tracer.session, tracer.op = sid, op["name"]
            root = "op.double" if op["kind"] == "double" else "cli.main"
            with (tracer.span(root) if tracer is not None
                  else contextlib.nullcontext()):
                try:
                    outcomes.append((op, run_op(op), None))
                except Exception:  # counted as a failed operation
                    outcomes.append((op, None, traceback.format_exc()))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        for op, rows, error in outcomes:
            self.attempted += 1
            problems = [error] if error else check.check(op, rows)
            if not problems:
                digest = check.digest(op["outputs"], rows)
                first = self.digests.setdefault(op["name"], digest)
                if digest != first:
                    problems.append(f"output digest {digest} differs from "
                                    f"the first session's {first}")
            if problems:
                self.failures.append(f"session {sid} op {op['name']}: "
                                     + "; ".join(problems))
                print(self.failures[-1], file=sys.stderr)
        return {"wall": wall, "cpu": cpu}


def _median(values):
    return statistics.median(values) if values else 0.0


def untraced_run(session: Session, seconds: float) -> dict:
    warmup = session.run(sid="warmup")
    deadline = time.perf_counter() + seconds
    timed = []
    while True:
        timed.append(session.run(sid=len(timed)))
        expected = _median([s["wall"] for s in timed])
        if time.perf_counter() + expected > deadline:
            break
    return {"warmup": warmup, "sessions": timed}


def traced_run(session: Session, plan: dict, seconds: float,
               tracer: Tracer) -> dict:
    warmup = session.run(sid="warmup")
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        untraced.append(session.run(sid=f"u{len(untraced)}"))
        patches = install_spans(tracer)
        try:
            traced.append(session.run(tracer, len(traced)))
        finally:
            remove_spans(patches)
        expected = _median([s["wall"] for s in traced])
        # Room for another pair plus the allocation session.
        if time.perf_counter() + 3 * expected > deadline:
            break
    # Allocation peaks come from one more session with tracemalloc on
    # inside the runners only; its times are not used.
    tracer.memory = True
    patches = install_spans(tracer)
    try:
        session.run(tracer, "memory")
    finally:
        remove_spans(patches)
        tracer.memory = False
    self_s, layers = layer_metrics(tracer.spans, len(traced))
    layers.update(probe_layers(plan, tracer.spans))
    traced_s = _median([s["wall"] for s in traced])
    untraced_s = _median([s["wall"] for s in untraced])
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    return {"warmup": warmup, "sessions": untraced, "traced": traced,
            "layers": layers, "self_s": self_s}


def layer_metrics(spans, n_sessions: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-span-name self times, from the spans.

    Both are medians over the traced sessions of per-session totals. A
    span's self time is its duration minus its children's. Layers that
    only some workloads run (one runner, the double placebo, did) are
    reported only where they run; ``engine.run_s`` covers all runners.
    """
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = (children.get(s["parent"], 0.0)
                                     + s["end"] - s["start"])
    timed = [s for s in spans if isinstance(s["session"], int)]

    def per_session(select, value):
        totals = dict.fromkeys(range(n_sessions), 0.0)
        for s in timed:
            if select(s):
                totals[s["session"]] += value(s)
        return _median(list(totals.values()))

    def own(s):
        return s["end"] - s["start"] - children.get(s["id"], 0.0)

    def named(name, root=None):
        return lambda s: s["name"] == name and root in (None, s["root"])

    def rate(name):
        chosen = [s for s in timed if s["name"] == name]
        busy = sum(own(s) for s in chosen)
        return sum(s["bytes"] for s in chosen) / MIB / busy if busy else 0.0

    engine = [s for s in timed if s["name"].startswith("engine.")]
    engine_wall = sum(s["end"] - s["start"] for s in engine)
    boot = [s for s in engine if "reps" in s]
    memory = [s["peak_alloc"] for s in spans if "peak_alloc" in s]
    did = ("did.GroupMeans.from_data", "did.att", "did.m_to_w")
    self_s = {name: per_session(named(name), own)
              for name in sorted({s["name"] for s in timed})}
    specific = {
        "engine.run_table_s": named("engine.run_table", "cli.main"),
        "engine.run_line_s": named("engine.run_line"),
        "engine.run_contour_s": named("engine.run_contour"),
        "double.run_table_s": named("engine.run_table", "op.double"),
        "did.s": lambda s: s["name"] in did,
    }
    layers = {metric: per_session(select, own)
              for metric, select in specific.items()
              if any(select(s) for s in timed)}
    return self_s, layers | {
        "io.load_csv_s": per_session(named("io.load_csv"), own),
        "io.load_csv_mb_per_s": rate("io.load_csv"),
        "io.emit_s": per_session(named("io.emit_outputs"), own),
        "io.emit_mb_per_s": rate("io.emit_outputs"),
        "io.bytes_written": per_session(named("io.emit_outputs"),
                                        lambda s: s["bytes"]),
        "cli.overhead_s": per_session(named("cli.main"), own),
        "engine.run_s": per_session(
            lambda s: s["name"].startswith("engine."), own),
        "engine.cpu_wall_ratio": (sum(s["cpu"] for s in engine)
                                  / engine_wall if engine_wall else 0.0),
        "engine.peak_alloc_mb": max(memory, default=0) / MIB,
        "engine.replicates_ok_ratio": (
            sum(s["reps"] - s["failures"] for s in boot)
            / sum(s["reps"] for s in boot) if boot else 1.0),
    }


def _timed(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fit_ols_flops(n: int, p: int) -> float:
    """Floating-point operations of one ``fit_ols``, computed not measured.

    Householder QR (2np^2 - 2p^3/3) plus forming the thin Q (the same
    again), Q'y and the fitted values (2np each), the triangular inverse
    for standard errors (p^3/3) and the residual norms (4n).
    """
    return 4 * n * p * p - 4 * p**3 / 3 + 4 * n * p + p**3 / 3 + 4 * n


def probe_layers(plan: dict, spans) -> dict:
    """Single-layer timings made by calling public functions directly."""
    data = plm.load_csv(plan["data"])
    ops = plan["ops"]
    full_fit = 0.0
    for op in ops:
        if "config" not in op:
            continue
        case = plm.dispatch_case(plm.parse_run_config(op["config"]).spec)
        full_fit += _timed(lambda: (case.fit_coefficients(data),
                                    case.sf(data)), 3)
    regressors = ("D", "P", *[n for n in data.names if n.startswith("X")])
    fit_s = _timed(lambda: plm.fit_ols(data, "Y", regressors), 9)
    flops = fit_ols_flops(data.n_rows, len(regressors) + 1)
    # Replicate cost: the runner at the workload's reps minus the same
    # runner at reps = 2, over the extra replicates.
    extra_s, extra_reps = 0.0, 0
    for op in ops:
        if "reps" not in op:
            continue
        full = [s["end"] - s["start"] for s in spans
                if s["op"] == op["name"] and isinstance(s["session"], int)
                and s["name"] in ("engine.run_table", "engine.run_line")]
        if op["kind"] == "double":
            cfg = _double_config(op, 2)
        else:
            cfg = dataclasses.replace(
                plm.parse_run_config(op["config"]).analysis_config(
                    cluster_col=op.get("cluster")),
                bootstrap_reps=2)
        if op["kind"] == "line":
            short = _timed(lambda: plm.run_line(
                data, cfg, varying="k", fixed_percentiles=tuple(op["at"])), 3)
        else:
            short = _timed(lambda: plm.run_table(data, cfg), 3)
        extra_s += _median(full) - short
        extra_reps += op["reps"] - 2
    return {
        "adjust.full_fit_s": full_fit,
        "regression.fit_ols_s": fit_s,
        "regression.fit_gflops": flops / fit_s / 1e9,
        "engine.replicate_ms": (1e3 * extra_s / extra_reps
                                if extra_reps else 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps({"import_done": IMPORT_DONE, "import_s": IMPORT_S}))
        return 0
    plan = json.loads(Path(args.plan).read_text())
    session = Session(plan["ops"])
    tracer = Tracer()
    if args.trace:
        result = traced_run(session, plan, args.seconds, tracer)
    else:
        result = untraced_run(session, args.seconds)
    result.update(
        import_done=IMPORT_DONE,
        import_s=IMPORT_S,
        plm_file=plm.__file__,
        attempted=session.attempted,
        failures=session.failures,
        digests=session.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    )
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    if args.spans and tracer.spans:
        Path(args.spans).write_text(json.dumps(tracer.spans) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
