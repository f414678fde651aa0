"""Mutants of plm that the test suite must kill.

    python tests/mutants.py

A mutant is one exact replacement of text in one file, with the test ids
that must fail on it. For each mutant the script copies ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` into a temporary
directory, applies the replacement there and runs only the mutant's ids. A mutant whose ids all pass survives. First the ids run on
an unmutated copy, where each must pass, so a mistyped id or a failing
test cannot pass for a kill. Every mutant's text must occur exactly once
in its file. The script prints one line per mutant and exits 1 if any
mutant survives or does not apply.

Hypothesis runs with a fixed seed, so a kill by a property test repeats.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    kills: tuple[str, ...]


_REGRESSION = "src/plm/regression.py"
_DOUBLE = "src/plm/double.py"
_IO = "src/plm/io.py"
_ENGINE = "src/plm/engine.py"
_ENGINE_TESTS = "tests/test_engine.py::"
_IO_TESTS = "tests/test_io.py::"
_WRONG_TYPE = ("tests/test_cli.py::test_a_wrong_json_type_exits_two_before_the"
               "_data_is_read")
_DEFINED = ("tests/test_definition.py::test_runners_equal_their_definition"
            "[unit-a-placebo_outcome]",
            "tests/test_definition.py::test_runners_equal_their_definition"
            "[few_clusters-double_b-double_placebo]")
_RECOVERY = ("tests/test_selfcheck.py::test_selfcheck_passes_on_small_run",
             "tests/test_acceptance.py::test_acceptance_05_recovery_identity"
             "_suite")

MUTANTS = (
    # gram_least_squares' six reasons to refer a resample to QR.
    Mutant("too few rows", _REGRESSION,
           "trusted = (g[:, 0, 0] > len(s)) & (sd >",
           "trusted = (g[:, 0, 0] > 0) & (sd >",
           (_ENGINE_TESTS + "test_gram_path_refuses_too_few_rows",)),
    Mutant("near-constant column", _REGRESSION,
           "(sd > RANK_TOL / GRAM_TOL * rms).all(1)",
           "(sd > 0.0 * rms).all(1)",
           (_ENGINE_TESTS + "test_gram_path_refers_a_resample_constant_to_qr",
            _ENGINE_TESTS
            + "test_gram_path_refers_a_near_constant_response_to_qr")),
    Mutant("block not positive definite: re-raise", _REGRESSION,
           "        factor = np.zeros_like(g_ss)\n",
           "        raise\n",
           (_ENGINE_TESTS
            + "test_gram_path_refuses_a_block_that_is_not_positive_definite",
            _ENGINE_TESTS + "test_resamples_that_are_not_positive_definite")),
    Mutant("pivot ratio", _REGRESSION,
           "trusted &= pivots.min(1) > GRAM_TOL * pivots.max(1)",
           "trusted &= pivots.min(1) > 0.0 * pivots.max(1)",
           (_ENGINE_TESTS + "test_untrusted_gram_replicate_is_refitted_by_qr"
            "[placebo_treatment-kwargs0-0]",
            _ENGINE_TESTS + "test_gram_replicates_match_qr")),
    Mutant("norm lost to cancellation", _REGRESSION,
           "exact = trusted[:, None] & (r2 > GRAM_TOL**2 * g_vv)",
           "exact = trusted[:, None] & (r2 > 0.0 * g_vv)",
           (_ENGINE_TESTS + "test_untrusted_gram_replicate_is_refitted_by_qr"
            "[placebo_outcome-kwargs2-0]",
            _ENGINE_TESTS + "test_gram_replicates_match_qr")),
    Mutant("placebo pair near vanishing", _DOUBLE,
           "        q[placebo_pair_vanishes(q[:, 3], self.spec.beta_np_long, "
           "unit,\n                                NEAR_ZERO / GRAM_TOL**2)]"
           " = np.nan\n",
           "",
           (_ENGINE_TESTS
            + "test_placebo_pair_vanishing_to_rounding_is_rejected[1.0]",
            _ENGINE_TESTS
            + "test_vanishing_placebo_pair_in_one_replicate_is_dropped")),
    # Guards that keep a resample of a constant column from breaking the
    # batch.
    Mutant("identity blocks before the stacked Cholesky", _REGRESSION,
           "    g_ss[~trusted] = identity  # keep the stack factorable\n",
           "",
           (_ENGINE_TESTS + "test_double_placebo_resamples_of_one_cluster",)),
    Mutant("np_unit of a constant placebo treatment", _DOUBLE,
           "out=np.full(len(g), np.nan),\n"
           "                         where=sd[:, 0] > 0)",
           "out=np.full(len(g), np.nan))",
           (_ENGINE_TESTS + "test_double_placebo_resamples_of_one_cluster",)),
    # Rules whose tests were first proved against hand-made mutants.
    Mutant("placebo pair judged without np_unit", _DOUBLE,
           "np.maximum(np.maximum(np.abs(beta_np), abs(beta_np_long)),\n"
           "                       np_unit)",
           "np.maximum(np.abs(beta_np), abs(beta_np_long))",
           (_ENGINE_TESTS
            + "test_placebo_pair_vanishing_to_rounding_is_rejected[1.0]",
            _ENGINE_TESTS + "test_placebo_pair_vanishing_to_rounding_is_"
            "rejected[10000000000000.0]")),
    Mutant("constant column only at SD 0", _REGRESSION,
           "constant = sd <= RANK_TOL * np.hypot(",
           "constant = sd <= 0.0 * np.hypot(",
           ("tests/test_regression.py::test_regressor_constant_up_to_rounding"
            "_is_rank_deficient[True-0.1-300]",
            "tests/test_regression.py::test_near_constant_regressor_is_refused"
            "_only_below_the_rank_rule",
            "tests/test_cli.py::test_covariate_constant_up_to_rounding_exits"
            "_four[True]")),
    Mutant("observed_confounder_2 without its implied edge",
           "src/plm/adjust.py",
           '{_NONE: (), _P_TO_Y: ()}, implies="p_to_d"),',
           "{_NONE: (), _P_TO_Y: ()}),",
           ("tests/test_adjust.py::test_dispatch_over_every_role_and_edge_set"
            "[observed_confounder_2-False-False-False]",
            "tests/test_cli.py::test_implied_edge_help_names_the_roles_that"
            "_imply_it[p_to_d]")),
    Mutant("TSQR without the remainder rows", _REGRESSION,
           "np.concatenate([*rs, take(full, rows)])",
           "np.concatenate(rs)",
           ("tests/test_regression.py::test_blocked_factor_matches_one_qr",
            _ENGINE_TESTS
            + "test_bootstrap_replicates_run_no_qr[placebo_outcome]")),
    Mutant("Gram products without the remainder resamples", _REGRESSION,
           "slice(whole)),\n"
           "                     (flat[whole:], slice(whole, None)))",
           "slice(whole)),)",
           ("tests/test_regression.py::test_gram_sub_products_match_one_"
            "product[17]",
            _ENGINE_TESTS + "test_bootstrap_one_replicate_past_a_batch")),
    # The steps of a table's or line's evaluation, each killed by the
    # runners' check against their definition.
    Mutant("SE without Bessel's correction", _ENGINE,
           "np.std(draws, axis=-1, ddof=1)",
           "np.std(draws, axis=-1, ddof=0)", _DEFINED),
    Mutant("lower percentile bound", _ENGINE,
           "[100.0 * alpha / 2.0, 100.0",
           "[100.0 * alpha, 100.0", _DEFINED),
    Mutant("upper percentile bound", _ENGINE,
           "100.0 * (1.0 - alpha / 2.0)]",
           "100.0 * (1.0 - alpha)]", _DEFINED),
    Mutant("evaluation without its last partial block", _ENGINE,
           "for start in range(0, len(k), block):",
           "for start in range(0, len(k) - block + 1, block):", _DEFINED),
    # The validation tables: each states a fact the recovery checks read.
    Mutant("oracle with a wrong direct-effect regression",
           "src/plm/selfcheck.py",
           '"placebo_treatment": (("Y", "DP", "D"), ("Y", "DP", "P")),',
           '"placebo_treatment": (("Y", "DP", "D"), ("P", "D", "D")),',
           _RECOVERY),
    Mutant("graph b without its edge d -> p", "src/plm/simulate.py",
           '"b": ("dpy", ("d->y", "d->p")),',
           '"b": ("dpy", ("d->y",)),',
           ("tests/test_selfcheck.py::test_single_cases_run_on_the_graph"
            "_their_edges_describe",)),
    Mutant("role table with a wrong regressor string", "src/plm/adjust.py",
           '("y", "dp", "d"), ("y", "dp", "p"),',
           '("y", "d", "d"), ("y", "dp", "p"),', _RECOVERY),
    # The run-config schema: one mutant per kind of check.
    Mutant("config string check", _IO,
           '_check("a column name", lambda value: isinstance(value, str))',
           '_check("a column name", lambda value: True)',
           (_WRONG_TYPE + "[outcome-null]", _WRONG_TYPE + "[placebo-bool]")),
    Mutant("config boolean check", _IO,
           '_check("true or false", lambda value: isinstance(value, bool))',
           '_check("true or false", lambda value: True)',
           (_IO_TESTS + "test_run_config_edge_role_consistency",
            _WRONG_TYPE + "[edges.d_to_p-number]")),
    Mutant("config integer check", _IO,
           '_INT = _check("an integer", _is_int)',
           '_INT = _check("an integer", _is_number)',
           ("tests/test_cli.py::test_malformed_config_value_exits_two"
            "[bootstrap-value4-bootstrap.seed]",
            "tests/test_cli.py::test_malformed_config_value_exits_two"
            "[bootstrap-value5-bootstrap.reps]")),
    Mutant("config number check", _IO,
           '(_check("a number", _is_number), "ci_level")',
           '(_check("a number", lambda value: True), "ci_level")',
           ("tests/test_cli.py::test_malformed_config_value_exits_two"
            "[ci_level-x-ci_level]", _WRONG_TYPE + "[ci_level-bool]")),
    Mutant("config range check", _IO,
           "and len(value) == 2 and all(map(_is_number, value)),",
           "and len(value) == 2,",
           ("tests/test_cli.py::test_malformed_config_value_exits_two"
            "[k-value8-k must be]",
            "tests/test_cli.py::test_malformed_config_value_exits_two"
            "[direct-value10-direct must be]")),
    Mutant("config path check", _IO,
           '_check("a path", lambda value: isinstance(value, (str, Path)),',
           '_check("a path", lambda value: True,',
           ("tests/test_cli.py::test_malformed_config_value_exits_two"
            "[outputs-value3-outputs.table]", _WRONG_TYPE + "[data_path-null]")),
    Mutant("config output directory check", _IO,
           "            if not target.parent.is_dir():",
           "            if False:",
           (_IO_TESTS + "test_run_config_malformed_inputs",)),
    Mutant("config unknown key check", _IO,
           "_refuse_unknown(set(settings) - set(_KEYS))",
           "_refuse_unknown(())",
           (_IO_TESTS + "test_run_config_rejects_unknown_keys[mutate0]",
            _IO_TESTS + "test_run_config_rejects_unknown_keys[mutate5]")),
    Mutant("config required key check", _IO,
           "missing = [key for key in REQUIRED_KEYS if key not in settings]",
           "missing = []",
           (_IO_TESTS + "test_run_config_requires_core_fields",)),
    Mutant("config file accepts a top-level dotted key", _IO,
           '_refuse_unknown([key for key in raw if "." in key])',
           "_refuse_unknown([])",
           (_IO_TESTS + "test_run_config_rejects_unknown_keys[mutate4]",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _passes(where: Path, ids) -> bool:
    """Whether pytest passes every one of ``ids`` in the copy ``where``."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *ids],
        cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return run.returncode == 0


def _mutated(where: Path, mutant: Mutant) -> bool:
    """Apply ``mutant`` in the copy ``where``; False if its text does not
    occur exactly once."""
    path = where / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main() -> int:
    ids = sorted({test for mutant in MUTANTS for test in mutant.kills})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if not _passes(Path(tmp), ids):
            print("the mutants' tests fail on the unmutated code",
                  file=sys.stderr)
            return 1
    bad = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp)
            _copy(where)
            if not _mutated(where, mutant):
                verdict = "does not apply"
            elif _passes(where, mutant.kills):
                verdict = "SURVIVED"
            else:
                verdict = "killed"
        print(f"{verdict:>14}  {mutant.name}", flush=True)
        if verdict != "killed":
            bad.append(mutant.name)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed: "
              + "; ".join(bad))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
