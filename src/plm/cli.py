"""Command line interface.

Subcommands: table, contour, line, did, semiparam, simulate, verify.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
degeneracy. The PLM_SEED environment variable overrides the configured
bootstrap seed for table/contour/line runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .adjust import _ROLE_TABLE, ROLES
from .did import DIDAssumption, GroupMeans, att, dim, m_to_w, \
    parallel_trends_gap
from .engine import run_contour, run_line, run_table
from .errors import ConfigError, DataError, NumericError, PlmError
from .io import _EDGE_KEYS, RunConfig, _write_chunks, emit_outputs, \
    load_csv, parse_run_config, write_dataset_csv
from .selfcheck import run_selfcheck
from .semiparam import SemiparamInputs, adjust_partially_linear
from .simulate import GRAPH_EDGES, SCMRecipe, simulate_scm


def _implied_edge_help(text: str, edge: str) -> str:
    """``text`` naming the roles whose graph has ``edge`` itself."""
    roles = [role for role, rule in _ROLE_TABLE.items()
             if rule.implies == edge]
    return f"{text} ({', '.join(roles)} only)"


# The flags that define an analysis: (flag, needed without --config,
# argparse keywords). A config file holds the same information, so --config
# clashes with each of them.
_ANALYSIS_FLAGS = (
    ("--data", True, dict(metavar="PATH", help="input CSV")),
    ("--outcome", True, dict(metavar="COL")),
    ("--treatment", True, dict(metavar="COL")),
    ("--placebo", True, dict(metavar="COL")),
    ("--role", True, dict(choices=ROLES)),
    ("--covariates", False, dict(metavar="COL,COL",
                                 help="comma separated covariate columns")),
    ("--edge-d-to-p", False, dict(action="store_true",
                                  help="treatment affects the placebo")),
    ("--edge-p-to-y", False, dict(action="store_true",
                                  help="placebo affects the outcome")),
    ("--edge-p-to-d", False, dict(action="store_true",
                                  help=_implied_edge_help(
                                      "placebo affects the treatment",
                                      "p_to_d"))),
    ("--edge-y-to-p", False, dict(action="store_true",
                                  help=_implied_edge_help(
                                      "outcome affects the placebo",
                                      "y_to_p"))),
    ("--k", False, dict(nargs=2, type=float, metavar=("MIN", "MAX"))),
    ("--direct", False, dict(nargs=2, type=float, metavar=("MIN", "MAX"))),
    ("--grid", False, dict(type=int)),
    ("--reps", False, dict(type=int, help="bootstrap replicates")),
    ("--seed", False, dict(type=int)),
    ("--ci-level", False, dict(type=float)),
    ("--out", True, dict(metavar="PATH", help="output file")),
    ("--svg", False, dict(metavar="PATH",
                          help="also render an SVG (contour and line only)")),
)


def _flag_value(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _env_seed() -> int | None:
    raw = os.environ.get("PLM_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"PLM_SEED must be an integer, got {raw!r}"
        ) from None


def _analysis_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    data = parent.add_argument_group("analysis (use --config or flags)")
    data.add_argument("--config", metavar="PATH",
                      help="JSON run config; excludes the flags below")
    for flag, _, kwargs in _ANALYSIS_FLAGS:
        data.add_argument(flag, **kwargs)
    run = parent.add_argument_group("execution")
    run.add_argument("--freeze-sf", action="store_true", default=False,
                     help="hold the scale factor at its full-sample value "
                          "inside the bootstrap")
    run.add_argument("--cluster", metavar="COL",
                     help="cluster bootstrap on this column")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plm",
        description="Sensitivity analysis for linear treatment effects "
                    "using imperfect placebos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _analysis_parent()

    analyses = {}
    for kind, help_text in (
            ("table", "benchmark rows plus a grid of adjusted estimates"),
            ("contour", "estimate surface over the (k, direct) rectangle"),
            ("line", "one-dimensional slices with bootstrap bands")):
        analyses[kind] = sub.add_parser(kind, parents=[parent],
                                        help=help_text)
        analyses[kind].set_defaults(
            func=functools.partial(_run_analysis, kind))
    # Unset line flags stay off the namespace, so run_line's own defaults
    # apply (see _run_analysis).
    analyses["line"].add_argument("--vary", choices=("k", "direct"),
                                  dest="varying", default=argparse.SUPPRESS)
    analyses["line"].add_argument(
        "--at", nargs="+", type=float, metavar="FRACTION",
        dest="fixed_percentiles", default=argparse.SUPPRESS,
        help="fixed-axis positions as range fractions")

    p_did = sub.add_parser(
        "did", help="difference-in-differences with a pre-period outcome",
    )
    p_did.add_argument("--data", required=True, metavar="PATH")
    p_did.add_argument("--outcome", required=True, metavar="COL")
    p_did.add_argument("--placebo", required=True, metavar="COL",
                       help="pre-period outcome column")
    p_did.add_argument("--group", required=True, metavar="COL",
                       help="0/1 treatment group column")
    p_did.add_argument("--att-n", type=float, default=0.0,
                       help="assumed treatment effect on the pre-period "
                            "outcome")
    p_did.add_argument("--out", metavar="PATH",
                       help="write JSON here instead of stdout")
    p_did.set_defaults(func=_run_did)

    p_semi = sub.add_parser(
        "semiparam",
        help="adjust a flexible-model estimate from summary statistics",
    )
    p_semi.add_argument("--theta-s-y", type=float, required=True,
                        help="short-model effect on the outcome")
    p_semi.add_argument("--theta-s-n", type=float, required=True,
                        help="short-model effect on the placebo")
    p_semi.add_argument("--theta-l-n", type=float, default=0.0,
                        help="assumed true effect on the placebo")
    p_semi.add_argument("--k", type=float, required=True)
    p_semi.add_argument("--gamma", type=float, default=1.0)
    p_semi.add_argument("--s2-y", type=float, default=1.0)
    p_semi.add_argument("--s2-n", type=float, default=1.0)
    p_semi.add_argument("--sign-m", type=int, choices=(-1, 1), default=1)
    p_semi.add_argument("--out", metavar="PATH")
    p_semi.set_defaults(func=_run_semiparam)

    p_sim = sub.add_parser(
        "simulate", help="draw a synthetic dataset from a linear SCM",
    )
    p_sim.add_argument("--case", required=True,
                       choices=sorted(GRAPH_EDGES))
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--z-dim", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--coef", action="append", default=[],
                       metavar="EDGE=VALUE",
                       help="e.g. --coef 'z->y=0.5' or 'z->y=0.5,0.2'; "
                            "repeatable")
    p_sim.add_argument("--noise-sd", action="append", default=[],
                       metavar="NODE=VALUE",
                       help="e.g. --noise-sd y=0.8; repeatable")
    p_sim.add_argument("--out", required=True, metavar="PATH")
    p_sim.set_defaults(func=_run_simulate)

    p_verify = sub.add_parser(
        "verify", help="run randomized internal consistency checks",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--draws", type=int, default=25)
    p_verify.set_defaults(func=_run_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's one parser, built on first use; parsing never
    changes it, so each ``cli_main`` call reuses it."""
    return build_parser()


def _run_config_from_flags(kind: str, args) -> RunConfig:
    missing = [flag for flag, needed, _ in _ANALYSIS_FLAGS
               if needed and _flag_value(args, flag) is None]
    if missing:
        raise ConfigError(f"missing {', '.join(missing)} (or use --config)")
    covariates = [c.strip() for c in (args.covariates or "").split(",")
                  if c.strip()]
    edges = {key: True for key in _EDGE_KEYS if getattr(args, f"edge_{key}")}
    outputs = {kind: args.out}
    if args.svg:
        if kind == "table":
            raise ConfigError("--svg is for contour and line; table draws "
                              "no SVG")
        outputs["svg"] = args.svg
    # Only the settings given: AnalysisConfig holds the defaults.
    settings = {"k": args.k, "direct": args.direct, "grid": args.grid,
                "ci_level": args.ci_level}
    bootstrap = {"reps": args.reps, "seed": args.seed}
    return RunConfig(
        data_path=args.data,
        outcome=args.outcome,
        treatment=args.treatment,
        placebo=args.placebo,
        role=args.role,
        edges=edges,
        covariates=covariates,
        bootstrap={key: v for key, v in bootstrap.items() if v is not None},
        outputs=outputs,
        **{key: v for key, v in settings.items() if v is not None},
    )


def _run_analysis(kind: str, args) -> int:
    if args.config is not None:
        clashing = [flag for flag, _, _ in _ANALYSIS_FLAGS
                    if _flag_value(args, flag) not in (None, False)]
        if clashing:
            raise ConfigError(
                f"--config cannot be combined with {', '.join(clashing)}"
            )
        cfg = parse_run_config(args.config)
        if kind not in cfg.outputs:
            raise ConfigError(f"config does not set outputs.{kind}")
    else:
        cfg = _run_config_from_flags(kind, args)
    engine_cfg = cfg.analysis_config(
        freeze_sf=args.freeze_sf,
        cluster_col=args.cluster,
        seed=_env_seed(),
    )
    data = load_csv(cfg.data_path)
    results = {}
    if kind == "table":
        results["table"] = run_table(data, engine_cfg)
    elif kind == "contour":
        results["contour"] = run_contour(data, engine_cfg)
    else:
        given = {name: value for name, value in vars(args).items()
                 if name in ("varying", "fixed_percentiles")}
        results["line"] = run_line(data, engine_cfg, **given)
    for path in emit_outputs(results, cfg):
        print(path)
    return 0


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out is None:
        print(text)
    else:
        _write_chunks(out, (text, "\n"))
        print(out)


def _run_did(args) -> int:
    data = load_csv(args.data)
    means = GroupMeans.from_data(data, outcome=args.outcome,
                                 placebo=args.placebo, group=args.group)
    payload = dim(means)
    payload["att_at_m"] = {
        f"{m:g}": att(means, DIDAssumption(m=m, att_n=args.att_n))
        for m in (0.0, 0.5, 1.0, 1.5)
    }
    payload["trends"] = parallel_trends_gap(means)
    payload["w_for_m_1"] = m_to_w(1.0, means, att_n=args.att_n)
    _emit_json(payload, args.out)
    return 0


def _run_semiparam(args) -> int:
    inputs = SemiparamInputs(
        theta_s_y=args.theta_s_y,
        theta_s_n=args.theta_s_n,
        theta_l_n=args.theta_l_n,
        k=args.k,
        gamma=args.gamma,
        s2_y=args.s2_y,
        s2_n=args.s2_n,
        sign_m=args.sign_m,
    )
    _emit_json({"estimate": adjust_partially_linear(inputs)}, args.out)
    return 0


def _parse_pairs(items, what: str) -> dict:
    parsed = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"{what} must look like NAME=VALUE: {item!r}")
        try:
            if "," in value:
                parsed[key] = tuple(float(v) for v in value.split(","))
            else:
                parsed[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"{what} value is not numeric: {item!r}"
            ) from None
    return parsed


def _run_simulate(args) -> int:
    noise = _parse_pairs(args.noise_sd, "--noise-sd")
    env_seed = _env_seed()
    recipe = SCMRecipe(
        n=args.n,
        graph_case=args.case,
        coefficients=_parse_pairs(args.coef, "--coef"),
        z_dim=args.z_dim,
        noise_sd=noise if noise else 1.0,
        seed=args.seed if env_seed is None else env_seed,
    )
    print(write_dataset_csv(simulate_scm(recipe), args.out))
    return 0


def _run_verify(args) -> int:
    report = run_selfcheck(seed=args.seed, draws=args.draws)
    print(f"draws per case: {report.draws}")
    print(f"single-placebo recovery, max abs error: "
          f"{report.max_recovery_error:.3e}")
    print(f"double-placebo recovery, max abs error: "
          f"{report.max_double_error:.3e}")
    print(f"bias factorization, max abs residual: "
          f"{report.max_identity_residual:.3e}")
    if report.ok:
        print("all checks passed (tolerance 1e-8)")
        return 0
    print("CHECKS FAILED", file=sys.stderr)
    return 4


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help, matching the
        # exit code contract.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"plm: configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"plm: data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"plm: numeric degeneracy: {exc}", file=sys.stderr)
        return 4
    except PlmError as exc:
        print(f"plm: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
