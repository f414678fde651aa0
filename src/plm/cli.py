"""Command line interface.

Subcommands: table, contour, line, did, semiparam, simulate, verify.
Exit codes: 0 success, 2 configuration error (or a request too large for
memory), 3 data error, 4 numeric degeneracy. Warnings print on one line
each, as ``plm: warning: <message>``. The PLM_SEED environment
variable overrides the configured bootstrap seed for table/contour/line
runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings

from .adjust import _ROLE_TABLE, ROLES
from .did import DIDAssumption, GroupMeans, att, dim, m_to_w, \
    parallel_trends_gap
from .engine import run_contour, run_line, run_table
from .errors import ConfigError, DataError, NumericError, PlmError
from .io import REQUIRED_KEYS, RunConfig, emit_outputs, json_text, \
    load_csv, parse_run_config, write_dataset_csv, write_json
from .selfcheck import CHECK_TOL_TEXT, run_selfcheck
from .semiparam import SemiparamInputs, adjust_partially_linear
from .simulate import GRAPH_EDGES, SCMRecipe, simulate_scm


def _implied_edge_help(text: str, edge: str) -> str:
    """``text`` naming the roles whose graph has ``edge`` itself."""
    roles = [role for role, rule in _ROLE_TABLE.items()
             if rule.implies == edge]
    return f"{text} ({', '.join(roles)} only)"


def _column_list(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


# The flags that define an analysis: (flag, the config key it sets and the
# flag's dest, argparse keywords); "{kind}" is the subcommand. A config file
# holds the same keys, so --config clashes with each of them.
_ANALYSIS_FLAGS = (
    ("--data", "data_path", dict(metavar="PATH", help="input CSV")),
    ("--outcome", "outcome", dict(metavar="COL")),
    ("--treatment", "treatment", dict(metavar="COL")),
    ("--placebo", "placebo", dict(metavar="COL")),
    ("--role", "role", dict(choices=ROLES)),
    ("--covariates", "covariates", dict(
        type=_column_list, metavar="COL,COL",
        help="comma separated covariate columns")),
    ("--edge-d-to-p", "edges.d_to_p", dict(
        action="store_true", help="treatment affects the placebo")),
    ("--edge-p-to-y", "edges.p_to_y", dict(
        action="store_true", help="placebo affects the outcome")),
    ("--edge-p-to-d", "edges.p_to_d", dict(
        action="store_true",
        help=_implied_edge_help("placebo affects the treatment", "p_to_d"))),
    ("--edge-y-to-p", "edges.y_to_p", dict(
        action="store_true",
        help=_implied_edge_help("outcome affects the placebo", "y_to_p"))),
    ("--k", "k", dict(nargs=2, type=float, metavar=("MIN", "MAX"))),
    ("--direct", "direct", dict(nargs=2, type=float, metavar=("MIN", "MAX"))),
    ("--grid", "grid", dict(type=int)),
    ("--reps", "bootstrap.reps", dict(
        type=int, metavar="REPS", help="bootstrap replicates")),
    ("--seed", "bootstrap.seed", dict(type=int, metavar="SEED")),
    ("--ci-level", "ci_level", dict(type=float)),
    ("--out", "outputs.{kind}", dict(metavar="PATH", help="output file")),
    ("--svg", "outputs.svg", dict(
        metavar="PATH", help="also render an SVG (contour and line only)")),
)


def _flag_keys(kind: str) -> dict:
    """Each analysis flag of subcommand ``kind`` under its config key."""
    return {key.format(kind=kind): flag for flag, key, _ in _ANALYSIS_FLAGS}


def _env_seed() -> dict:
    """``{"seed": PLM_SEED}`` where PLM_SEED is set, else nothing."""
    raw = os.environ.get("PLM_SEED")
    if raw is None or raw == "":
        return {}
    try:
        return {"seed": int(raw)}
    except ValueError:
        raise ConfigError(
            f"PLM_SEED must be an integer, got {raw!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Leaves an option not given off the namespace, so the library's own
    default applies. Reads "-1e-3" as a value, as argparse reads "-1": no
    plm option starts with "-" and a digit. Its subparsers share the
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _analysis_parent(kind: str) -> argparse.ArgumentParser:
    parent = _Parser(add_help=False)
    data = parent.add_argument_group("analysis (use --config or flags)")
    data.add_argument("--config", metavar="PATH",
                      help="JSON run config; excludes the flags below")
    for flag, key, kwargs in _ANALYSIS_FLAGS:
        data.add_argument(flag, dest=key.format(kind=kind), **kwargs)
    run = parent.add_argument_group("execution")
    run.add_argument("--freeze-sf", action="store_true",
                     help="hold the scale factor at its full-sample value "
                          "inside the bootstrap")
    run.add_argument("--cluster", metavar="COL", dest="cluster_col",
                     help="cluster bootstrap on this column")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plm",
        description="Sensitivity analysis for linear treatment effects "
                    "using imperfect placebos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyses = {}
    for kind, help_text in (
            ("table", "benchmark rows plus a grid of adjusted estimates"),
            ("contour", "estimate surface over the (k, direct) rectangle"),
            ("line", "one-dimensional slices with bootstrap bands")):
        analyses[kind] = sub.add_parser(
            kind, parents=[_analysis_parent(kind)], help=help_text)
        analyses[kind].set_defaults(
            func=functools.partial(_run_analysis, kind))
    analyses["line"].add_argument("--vary", choices=("k", "direct"),
                                  dest="varying")
    analyses["line"].add_argument(
        "--at", nargs="+", type=float, metavar="FRACTION",
        dest="fixed_percentiles",
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
    p_did.add_argument("--att-n", type=float,
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
    # SemiparamInputs has no default for theta_l_n: this one the CLI states.
    p_semi.add_argument("--theta-l-n", type=float, default=0.0,
                        help="assumed true effect on the placebo")
    p_semi.add_argument("--k", type=float, required=True)
    p_semi.add_argument("--gamma", type=float)
    p_semi.add_argument("--s2-y", type=float)
    p_semi.add_argument("--s2-n", type=float)
    p_semi.add_argument("--sign-m", type=int, choices=(-1, 1))
    p_semi.add_argument("--out", metavar="PATH")
    p_semi.set_defaults(func=_run_semiparam)

    p_sim = sub.add_parser(
        "simulate", help="draw a synthetic dataset from a linear SCM",
    )
    p_sim.add_argument("--case", required=True, dest="graph_case",
                       choices=sorted(GRAPH_EDGES))
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--z-dim", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--coef", action="append", dest="coefficients",
                       metavar="EDGE=VALUE",
                       help="e.g. --coef 'z->y=0.5' or 'z->y=0.5,0.2'; "
                            "repeatable")
    p_sim.add_argument("--noise-sd", action="append", metavar="NODE=VALUE",
                       help="e.g. --noise-sd y=0.8; repeatable")
    p_sim.add_argument("--out", required=True, metavar="PATH")
    p_sim.set_defaults(func=_run_simulate)

    p_verify = sub.add_parser(
        "verify", help="run randomized internal consistency checks",
    )
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--draws", type=int)
    p_verify.set_defaults(func=_run_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's one parser, built on first use; parsing never
    changes it, so each ``cli_main`` call reuses it."""
    return build_parser()


def _run_config_from_flags(kind: str, args) -> RunConfig:
    """The config keys the given flags set, as a config file sets them."""
    flags = _flag_keys(kind)
    settings = {key: value for key, value in vars(args).items()
                if key in flags}
    missing = [flag for key, flag in flags.items() if key not in settings
               and key in (*REQUIRED_KEYS, f"outputs.{kind}")]
    if missing:
        raise ConfigError(f"missing {', '.join(missing)} (or use --config)")
    if kind == "table" and "outputs.svg" in settings:
        raise ConfigError("--svg is for contour and line; table draws no SVG")
    return RunConfig(settings)


def _run_analysis(kind: str, args) -> int:
    if "config" in args:
        clashing = [flag for key, flag in _flag_keys(kind).items()
                    if key in args]
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
        **_options(args, "freeze_sf", "cluster_col"), **_env_seed())
    data = load_csv(cfg.data_path)
    runner = {"table": run_table, "contour": run_contour,
              "line": run_line}[kind]
    line = _options(args, "varying", "fixed_percentiles")
    for path in emit_outputs({kind: runner(data, engine_cfg, **line)}, cfg):
        print(path)
    return 0


def _options(args, *names: str) -> dict:
    """The options among ``names`` that were given, under those names."""
    return {name: value for name, value in vars(args).items()
            if name in names}


def _library_kwargs(args) -> dict:
    """The options given to a subcommand, under the library's names."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "func", "out")}


def _emit_json(payload: dict, args) -> None:
    if "out" in args:
        write_json(payload, args.out)
        print(args.out)
    else:
        print(json_text(payload))


def _run_did(args) -> int:
    data = load_csv(args.data)
    means = GroupMeans.from_data(data, outcome=args.outcome,
                                 placebo=args.placebo, group=args.group)
    assumed = _options(args, "att_n")
    payload = dim(means)
    payload["att_at_m"] = {
        f"{m:g}": att(means, DIDAssumption(m=m, **assumed))
        for m in (0.0, 0.5, 1.0, 1.5)
    }
    payload["trends"] = parallel_trends_gap(means)
    payload["w_for_m_1"] = m_to_w(1.0, means, **assumed)
    _emit_json(payload, args)
    return 0


def _run_semiparam(args) -> int:
    inputs = SemiparamInputs(**_library_kwargs(args))
    _emit_json({"estimate": adjust_partially_linear(inputs)}, args)
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
    recipe = _library_kwargs(args)
    for name, flag in (("noise_sd", "--noise-sd"), ("coefficients", "--coef")):
        if name in recipe:
            recipe[name] = _parse_pairs(recipe[name], flag)
    recipe.update(_env_seed())
    print(write_dataset_csv(simulate_scm(SCMRecipe(**recipe)), args.out))
    return 0


def _run_verify(args) -> int:
    report = run_selfcheck(**_library_kwargs(args))
    print(f"draws per case: {report.draws}")
    print(f"single-placebo recovery, max abs error: "
          f"{report.max_recovery_error:.3e}")
    print(f"double-placebo recovery, max abs error: "
          f"{report.max_double_error:.3e}")
    print(f"bias factorization, max abs residual: "
          f"{report.max_identity_residual:.3e}")
    if report.ok:
        print(f"all checks passed (tolerance {CHECK_TOL_TEXT})")
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
    except MemoryError as exc:
        # A grid or replicate count too large for this machine.
        detail = f" ({exc})" if str(exc) else ""
        print(f"plm: configuration error: the request does not fit in "
              f"memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    # Each warning on one line, in the form of the errors above. Set here,
    # not in cli_main, so an in-process caller keeps its own formatter.
    warnings.formatwarning = lambda message, *_: f"plm: warning: {message}\n"
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
