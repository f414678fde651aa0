"""Workload definitions, seeded input generation and reference values.

Each workload is one analysis session that a user of ``plm`` would run,
repeated back to back by a single client in a closed loop. Two settings
hold for every workload:

* ``workers=1``. The CLI default; the benchmark never passes
  ``--workers``, so a later change that retires the option does not break
  the benchmark, and the bootstrap runs the way most users run it.
* BLAS threads equal to ``nproc`` (the CPUs this process may run on).
  That is OpenBLAS's own default, so the numbers are what users get; the
  benchmark sets it explicitly so the caller's environment cannot change
  it.

Inputs are generated here with numpy from the workload seed and written as
CSV/JSON by the benchmark itself, so they are byte-identical across
commits of the program: ``plm.simulate`` never shapes them. The data is
earnings-scale, like the NSW job-training data the paper analyses: ``Y``
(post-period earnings), ``P`` (a pre-period earnings placebo) and ``N`` (a
second placebo outcome) have means around 1e4, ``D`` is a binary
treatment, ``X1``-``X3`` are continuous covariates and ``X4``-``X6``
binary ones. A hidden confounder drives ``D``, ``Y``, ``P`` and ``N``.

Reference values for the output checks are computed independently of the
program with ``numpy.linalg.lstsq``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COVARIATES = ("X1", "X2", "X3", "X4", "X5", "X6")
K_RANGE = (-2.0, 2.0)
TABLE_DIRECT = (-200.0, 200.0)
CI_LEVEL = 0.95

# Edges each single-placebo role requires (or accepts) in a run config.
ROLE_EDGES = {
    "placebo_outcome": {},
    "placebo_treatment": {},
    "observed_confounder_1": {"p_to_y": True},
    "mediator": {"d_to_p": True, "p_to_y": True},
    "observed_confounder_2": {},
    "post_outcome": {},
}

# Independent statement of each role: the target coefficient and the
# placebo coefficient as (response, regressors besides X, coefficient),
# and the scale factor as a product of residual-norm ratios
# r(v | S, X) / r(w | T, X), each ratio written ((v, S), (w, T)).
ROLE_ORACLE = {
    "placebo_outcome": (
        ("Y", ("D",), "D"), ("P", ("D",), "D"),
        ((("Y", ("D",)), ("P", ("D",))),),
    ),
    "placebo_treatment": (
        ("Y", ("D", "P"), "D"), ("Y", ("D", "P"), "P"),
        ((("P", ("D",)), ("D", ("P",))),),
    ),
    "observed_confounder_1": (
        ("Y", ("D", "P"), "D"), ("P", ("D",), "D"),
        ((("Y", ("D", "P")), ("D", ("P",))), (("D", ()), ("P", ("D",)))),
    ),
    "mediator": (
        ("Y", ("D",), "D"), ("Y", ("D", "P"), "P"),
        ((("P", ("D",)), ("D", ())), (("Y", ("D",)), ("Y", ("D", "P")))),
    ),
    "observed_confounder_2": (
        ("Y", ("D", "P"), "D"), ("D", ("P",), "P"),
        ((("Y", ("D", "P")), ("D", ("P",))), (("P", ()), ("D", ("P",)))),
    ),
    "post_outcome": (
        ("Y", ("D",), "D"), ("P", ("D", "Y"), "Y"),
        ((("Y", ("D",)), ("D", ())), (("Y", ("D",)), ("P", ("D", "Y")))),
    ),
}

# Why each workload exists; BENCHMARK.json carries the one-line form.
#
# table_small: the paper's flagship NSW shape (n = 2675, 6 covariates).
#   Bootstrap replicate fits are about 80% of a session (5.8 ms for each
#   of 7 x 98 replicates beyond the first two, of a 5.0 s session on a
#   2-core machine) and per-call Python/BLAS overhead dominates them, so
#   the role-table refactor and the Gram-matrix bootstrap act here; io
#   does almost nothing.
# table_large: the same engine layer bound by memory bandwidth (50k-row
#   gathers, tall QR), plus cluster resampling and a 50k-row CSV parse. A
#   batching change that wins on table_small can lose time or blow up
#   memory here.
# surface_io: the bootstrap is a minor share. CSV parse, the 160k-row
#   contour writer, the SVG renderers, pure-Python marching squares and
#   did do the work, and it writes as well as reads. A bootstrap
#   optimisation should show no change here.
#
# The table workloads use half the replicates of their first design (200
# and 100): at those sizes one session takes 9 s and 13 s on a 2-core
# machine, too long for several sessions in one 30-second run. Halving
# them lowers the replicate share of a table_small session from about 90%
# to about 80%, and of a table_large session to about 60%.
WORKLOADS = {
    "table_small": {"n": 2675, "clusters": 0, "reps": 100},
    "table_large": {"n": 50_000, "clusters": 500, "reps": 50},
    "surface_io": {"n": 20_000, "clusters": 0, "reps": 30, "grid": 401},
}


def generate(n: int, seed: int, clusters: int = 0) -> dict[str, np.ndarray]:
    """Earnings-scale columns with a hidden confounder, from one seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    x1 = 25.0 + 7.0 * rng.standard_normal(n)
    x2 = 10.0 + 2.0 * rng.standard_normal(n)
    x3 = rng.standard_normal(n) + 0.3 * z
    x4 = (rng.random(n) < 0.4).astype(float)
    x5 = (rng.random(n) < 0.3).astype(float)
    x6 = (rng.random(n) < 0.5).astype(float)
    d = ((0.8 * z + 0.2 * x3 + rng.standard_normal(n)) > 0.3).astype(float)
    p = (1e4 + 2000.0 * z + 50.0 * x1 + 300.0 * x2 + 800.0 * x4
         + 3000.0 * rng.standard_normal(n))
    placebo_n = (1e4 + 1500.0 * z + 40.0 * x1 + 200.0 * x5
                 + 2500.0 * rng.standard_normal(n))
    y = (1e4 + 1000.0 * d + 2500.0 * z + 60.0 * x1 + 250.0 * x2 + 0.3 * p
         + 500.0 * x6 + 4000.0 * rng.standard_normal(n))
    cols = {"Y": y, "D": d, "P": p, "N": placebo_n,
            "X1": x1, "X2": x2, "X3": x3, "X4": x4, "X5": x5, "X6": x6}
    if clusters:
        cols["C"] = rng.integers(0, clusters, n).astype(float)
    return cols


def write_csv(cols: dict[str, np.ndarray], path: Path) -> None:
    names = list(cols)
    matrix = np.column_stack([cols[name] for name in names])
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in matrix.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _design(cols, regressors):
    n = cols["Y"].shape[0]
    return np.column_stack([np.ones(n)] + [cols[name] for name in regressors])


def _coefficient(cols, response, regressors, name):
    regressors = (*regressors, *COVARIATES)
    beta = np.linalg.lstsq(_design(cols, regressors), cols[response],
                           rcond=None)[0]
    return float(beta[1 + regressors.index(name)])


def _residual_norm(cols, variable, controls):
    x = _design(cols, (*controls, *COVARIATES))
    beta = np.linalg.lstsq(x, cols[variable], rcond=None)[0]
    return float(np.linalg.norm(cols[variable] - x @ beta))


def role_reference(cols, role: str) -> dict:
    """Target coefficient, placebo coefficient and SF for one role."""
    target, placebo, ratios = ROLE_ORACLE[role]
    sf = 1.0
    for (num, den) in ratios:
        sf *= _residual_norm(cols, *num) / _residual_norm(cols, *den)
    return {"target": _coefficient(cols, *target),
            "placebo": _coefficient(cols, *placebo), "sf": sf}


def double_reference(cols) -> dict:
    """The double placebo's four short coefficients."""
    regs = ("D", "P")
    return {
        "yd": _coefficient(cols, "Y", regs, "D"),
        "yp": _coefficient(cols, "Y", regs, "P"),
        "nd": _coefficient(cols, "N", regs, "D"),
        "np": _coefficient(cols, "N", regs, "P"),
    }


def double_quantities(cols) -> tuple:
    """The double placebo's four short coefficients, as a tuple."""
    ref = double_reference(cols)
    return ref["yd"], ref["yp"], ref["nd"], ref["np"]


def role_quantities(role: str):
    """Per-sample (target, placebo, SF) of one role, as a tuple."""
    def quantities(cols):
        ref = role_reference(cols, role)
        return ref["target"], ref["placebo"], ref["sf"]
    return quantities


def replicate_indices(seed: int, rep: int, n: int, members=None):
    """Rows of bootstrap replicate ``rep``, drawn as ``plm`` documents it.

    Each replicate has its own generator, seeded by the run seed with the
    replicate number as spawn key. It draws ``n`` rows with replacement,
    or, with ``members`` (the row numbers of each cluster, clusters in
    sorted id order), as many whole clusters as there are.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    if members is None:
        return rng.integers(0, n, n)
    chosen = rng.integers(0, len(members), len(members))
    return np.concatenate([members[c] for c in chosen])


def bootstrap_reference(cols, quantities, reps: int, seed: int,
                        cluster: str | None = None) -> list[list[float]]:
    """``quantities`` on every bootstrap replicate of ``cols``.

    The output checks rebuild each row's bootstrap draws from these, and
    with them its standard error and percentile interval.
    """
    n = cols["Y"].shape[0]
    members = None
    if cluster is not None:
        _, inverse = np.unique(cols[cluster], return_inverse=True)
        members = [np.flatnonzero(inverse == c)
                   for c in range(int(inverse.max()) + 1)]
    draws = []
    for rep in range(reps):
        idx = replicate_indices(seed, rep, n, members)
        draws.append(list(quantities({name: col[idx]
                                      for name, col in cols.items()})))
    return draws


def did_reference(cols) -> dict:
    treated = cols["D"] == 1.0
    return {
        "mean_y_treated": float(cols["Y"][treated].mean()),
        "mean_y_control": float(cols["Y"][~treated].mean()),
        "mean_n_treated": float(cols["P"][treated].mean()),
        "mean_n_control": float(cols["P"][~treated].mean()),
    }


def _boot(cols, quantities, reps, seed, cluster=None) -> dict:
    return {"replicates": bootstrap_reference(cols, quantities, reps, seed,
                                              cluster),
            "ci_level": CI_LEVEL}


def _round_sig(value: float, digits: int = 6) -> float:
    return float(f"{value:.{digits - 1}e}")


def _config(workdir: Path, name: str, role: str, reps: int, seed: int,
            outputs: dict, direct=TABLE_DIRECT, grid=3) -> str:
    cfg = {
        "data_path": "data.csv",
        "outcome": "Y",
        "treatment": "D",
        "placebo": "P",
        "role": role,
        "edges": ROLE_EDGES[role],
        "covariates": list(COVARIATES),
        "k": list(K_RANGE),
        "direct": list(direct),
        "grid": grid,
        "bootstrap": {"reps": reps, "seed": seed},
        "ci_level": CI_LEVEL,
        # Relative to the config's directory, so the config's bytes do not
        # depend on where the run happens.
        "outputs": {key: Path(value).name for key, value in outputs.items()},
    }
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs into ``workdir`` and return its plan.

    The plan lists the session's operations in order. Each has the argv
    for ``plm.cli.cli_main`` (or the spec for the double placebo, which has
    no CLI form), the files it writes, and the reference values its
    outputs are checked against.
    """
    spec = WORKLOADS[workload]
    cols = generate(spec["n"], seed, spec["clusters"])
    data_path = workdir / "data.csv"
    write_csv(cols, data_path)
    reps = spec["reps"]
    ops = []
    if workload == "table_small":
        for role in ROLE_EDGES:
            out = str(workdir / f"{role}.csv")
            cfg = _config(workdir, role, role, reps, seed, {"table": out})
            ops.append({"name": role, "kind": "table", "config": cfg,
                        "argv": ["table", "--config", cfg], "outputs": [out],
                        "reps": reps,
                        "check": {"type": "table",
                                  **role_reference(cols, role),
                                  **_boot(cols, role_quantities(role),
                                          reps, seed)}})
        ops.append({"name": "double_placebo", "kind": "double",
                    "data": str(data_path), "covariates": list(COVARIATES),
                    "k": list(K_RANGE), "direct": list(TABLE_DIRECT),
                    "grid": 3, "reps": reps, "seed": seed,
                    "ci_level": CI_LEVEL, "outputs": [],
                    "check": {"type": "double", **double_reference(cols),
                              **_boot(cols, double_quantities, reps,
                                      seed)}})
    elif workload == "table_large":
        for role, extra in (("placebo_outcome", []),
                            ("observed_confounder_1", ["--cluster", "C"])):
            out = str(workdir / f"{role}.csv")
            cfg = _config(workdir, role, role, reps, seed, {"table": out})
            cluster = extra[1] if extra else None
            ops.append({"name": role + ("_cluster" if extra else ""),
                        "kind": "table", "config": cfg,
                        "argv": ["table", "--config", cfg, *extra],
                        "cluster": cluster,
                        "outputs": [out], "reps": reps,
                        "check": {"type": "table",
                                  **role_reference(cols, role),
                                  **_boot(cols, role_quantities(role),
                                          reps, seed, cluster)}})
    elif workload == "surface_io":
        role = "placebo_outcome"
        ref = role_reference(cols, role)
        # A direct-effect range centred on the placebo coefficient, wide
        # enough that the zero contour crosses it for |k| above 2/3.
        half = _round_sig(1.5 * abs(ref["target"]) / ref["sf"])
        centre = _round_sig(ref["placebo"])
        direct = (centre - half, centre + half)
        grid = spec["grid"]
        surface = str(workdir / "surface.csv")
        surface_svg = str(workdir / "surface.svg")
        cfg = _config(workdir, "contour", role, reps, seed,
                      {"contour": surface, "svg": surface_svg},
                      direct=direct, grid=grid)
        ops.append({"name": "contour", "kind": "contour", "config": cfg,
                    "argv": ["contour", "--config", cfg],
                    "outputs": [surface, str(workdir / "surface.json"),
                                surface_svg],
                    "check": {"type": "contour", "grid": grid, **ref}})
        at = [0.25, 0.5, 0.75]
        line = str(workdir / "slice.csv")
        line_svg = str(workdir / "slice.svg")
        cfg = _config(workdir, "line", role, reps, seed,
                      {"line": line, "svg": line_svg},
                      direct=direct, grid=grid)
        line_paths = [str(workdir / f"slice_{i + 1}.csv")
                      for i in range(len(at))]
        ops.append({"name": "line", "kind": "line", "config": cfg,
                    "argv": ["line", "--config", cfg, "--at",
                             *map(str, at)],
                    "at": at, "outputs": [*line_paths, line_svg],
                    "reps": reps,
                    "check": {"type": "line", "grid": grid,
                              "curves": len(at), **ref,
                              **_boot(cols, role_quantities(role), reps,
                                      seed)}})
        did_out = str(workdir / "did.json")
        ops.append({"name": "did", "kind": "did",
                    "data": str(data_path),
                    "argv": ["did", "--data", str(data_path), "--outcome",
                             "Y", "--placebo", "P", "--group", "D",
                             "--out", did_out],
                    "outputs": [did_out],
                    "check": {"type": "did", **did_reference(cols)}})
    else:
        raise KeyError(workload)
    return {"workload": workload, "seed": seed, "data": str(data_path),
            "ops": ops}
