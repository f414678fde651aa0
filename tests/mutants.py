"""Mutants of plm that the test suite must kill.

    python tests/mutants.py

A mutant is one exact replacement of text in one file, with the test ids
that must fail on it. For each mutant the script copies ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` into a temporary
directory, applies the replacement there and runs the mutant's ids in
one pytest call, reading from its JUnit XML report which of them failed.
The mutant is killed only if every one of its ids failed (an id whose
module no longer imports counts as failed); otherwise it survives. First
the ids run on an unmutated copy, where each must pass, so a mistyped id
or a failing test cannot pass for a kill. Every mutant's text must occur
exactly once in its file. The script prints one line per mutant and
exits 1 if any mutant survives or does not apply.

Hypothesis runs with a fixed seed, so a kill by a property test repeats.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
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
_ORACLE = "src/plm/oracle.py"
_DOUBLE = "src/plm/double.py"
_IO = "src/plm/io.py"
_ENGINE = "src/plm/engine.py"
_ADJUST = "src/plm/adjust.py"
_ENGINE_TESTS = "tests/test_engine.py::"
_IO_TESTS = "tests/test_io.py::"
_DISPATCH = "tests/test_adjust.py::test_dispatch_over_every_role_and_edge_set"
_NAMED = "tests/test_adjust.py::test_ambiguous_spec_names_every_accepting_role"
_WRONG_TYPE = ("tests/test_cli.py::test_a_wrong_json_type_exits_two_before_the"
               "_data_is_read")
_DEFINED = ("tests/test_definition.py::test_runners_equal_their_definition"
            "[unit-a-placebo_outcome]",
            "tests/test_definition.py::test_runners_equal_their_definition"
            "[few_clusters-double_b-double_placebo]")
_DID = "tests/test_did.py::test_m_w_maps_refuse_a_non_finite_argument"
_TABLE = "tests/test_regression.py::test_dataset_refuses_a_malformed_table"
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
    # The edge rules of the role table: each role's accepted edge sets and
    # implied edge, against test_adjust's own table of dispatch outcomes.
    Mutant("placebo_outcome refuses d -> p alone", _ADJUST,
           "{_NONE: (), _D_TO_P: (), _BOTH: (",
           "{_NONE: (), _BOTH: (",
           (_DISPATCH + "[placebo_outcome-True-False-False]",
            _NAMED + "[placebo_treatment]")),
    Mutant("placebo_treatment accepts d -> p", _ADJUST,
           '"placebo->outcome",\n        {_NONE: (), _P_TO_Y: ()}),',
           '"placebo->outcome",\n        {_NONE: (), _D_TO_P: (), '
           '_P_TO_Y: ()}),',
           (_DISPATCH + "[placebo_treatment-True-False-False]",
            _NAMED + "[placebo_treatment]")),
    Mutant("observed_confounder_1 accepts no declared edge", _ADJUST,
           "{_P_TO_Y: ()}),",
           "{_NONE: (), _P_TO_Y: ()}),",
           (_DISPATCH + "[observed_confounder_1-False-False-False]",
            _NAMED + "[observed_confounder_1]")),
    Mutant("observed_confounder_2 refuses no declared edge", _ADJUST,
           '{_NONE: (), _P_TO_Y: ()}, implies="p_to_d"),',
           '{_P_TO_Y: ()}, implies="p_to_d"),',
           (_DISPATCH + "[observed_confounder_2-False-False-False]",
            _NAMED + "[observed_confounder_1]")),
    Mutant("observed_confounder_2 without its implied edge", _ADJUST,
           '{_NONE: (), _P_TO_Y: ()}, implies="p_to_d"),',
           "{_NONE: (), _P_TO_Y: ()}),",
           (_DISPATCH + "[observed_confounder_2-False-False-False]",
            "tests/test_cli.py::test_implied_edge_help_names_the_roles_that"
            "_imply_it[p_to_d]")),
    Mutant("mediator accepts d -> p alone", _ADJUST,
           '{_BOTH: ("mediator case',
           '{_D_TO_P: (), _BOTH: ("mediator case',
           (_DISPATCH + "[mediator-True-False-True]", _NAMED + "[mediator]")),
    Mutant("post_outcome refuses d -> p", _ADJUST,
           '{_NONE: (), _D_TO_P: ()}, implies="y_to_p"),',
           '{_NONE: ()}, implies="y_to_p"),',
           (_DISPATCH + "[post_outcome-True-False-False]",
            _NAMED + "[placebo_treatment]")),
    Mutant("post_outcome without its implied edge", _ADJUST,
           '{_NONE: (), _D_TO_P: ()}, implies="y_to_p"),',
           "{_NONE: (), _D_TO_P: ()}),",
           (_DISPATCH + "[post_outcome-False-False-False]",
            "tests/test_cli.py::test_implied_edge_help_names_the_roles_that"
            "_imply_it[y_to_p]")),
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
    Mutant("role table with a wrong regressor string", _ADJUST,
           '("y", "dp", "d"), ("y", "dp", "p"),',
           '("y", "d", "d"), ("y", "dp", "p"),', _RECOVERY),
    Mutant("placebo_outcome's SF ratio upside down", _ADJUST,
           '        (("y", "d", "p", "d"),),\n',
           '        (("p", "d", "y", "d"),),\n',
           ("tests/test_adjust.py::test_placebo_outcome_hand_example",
            "tests/test_adjust.py::test_role_paths_match_lstsq_reference"
            "[placebo_outcome]",
            "tests/test_selfcheck.py::test_scale_factor_is_the_oracles_sd"
            "_ratio[1-a-placebo_outcome]", *_RECOVERY)),
    Mutant("oracle design without the intercept column", _ORACLE,
           "    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)\n",
           "    beta, _, rank, _ = np.linalg.lstsq(design[:, 1:], y, "
           "rcond=None)\n    beta, rank = np.r_[0.0, beta], rank + 1\n",
           ("tests/test_regression.py::test_matches_high_precision_normal"
            "_equations",
            "tests/test_regression.py::test_partial_corr_and_cohens_f",
            *_RECOVERY)),
    Mutant("self-check cases on graphs without the implied edge",
           "src/plm/selfcheck.py",
           "(*declared, rule.implies) if edge",
           "declared if edge",
           ("tests/test_selfcheck.py::test_single_cases_run_on_the_graph"
            "_their_edges_describe",
            "tests/test_selfcheck.py::test_every_three_node_graph_serves"
            "_a_case")),
    # The package's tolerances and the width of a replicate's counts.
    Mutant("rank rule looser", _REGRESSION,
           "RANK_TOL = 1e-10", "RANK_TOL = 1e-13",
           ("tests/test_regression.py::test_near_constant_regressor_is_refused"
            "_only_below_the_rank_rule",
            _ENGINE_TESTS
            + "test_gram_path_refers_a_near_constant_response_to_qr")),
    Mutant("near zero looser", _REGRESSION,
           "NEAR_ZERO = 1e-12", "NEAR_ZERO = 1e-15",
           ("tests/test_adjust.py::test_scale_factor_refuses_a_residual_only"
            "_at_rounding_scale[1e-13-True]",)),
    Mutant("near zero stricter", _REGRESSION,
           "NEAR_ZERO = 1e-12", "NEAR_ZERO = 1e-9",
           ("tests/test_adjust.py::test_scale_factor_refuses_a_residual_only"
            "_at_rounding_scale[1e-11-False]",)),
    Mutant("Gram path trusted further", _REGRESSION,
           "GRAM_TOL = 1e-2", "GRAM_TOL = 1e-4",
           (_ENGINE_TESTS + "test_gram_replicates_match_qr",
            _ENGINE_TESTS + "test_untrusted_gram_replicate_is_refitted_by_qr"
            "[placebo_treatment-kwargs0-0]")),
    Mutant("counts one byte wide up to two bytes' limit", _ENGINE,
           "_COUNT_MAX = np.iinfo(np.uint8).max",
           "_COUNT_MAX = np.iinfo(np.uint16).max",
           (_ENGINE_TESTS + "test_a_count_past_one_byte_is_held_exactly",)),
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
            "[ci_level-x-ci_level]", _WRONG_TYPE + "[ci_level-list]")),
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
    # The one CSV writer's blocks of rows.
    Mutant("row blocks one row short", _IO,
           "slice(i, i + _ROW_BLOCK)",
           "slice(i, i + _ROW_BLOCK - 1)",
           (_IO_TESTS + "test_dataset_csv_bytes_match_the_per_row_form[4096]",
            _IO_TESTS + "test_table_and_line_csv_writers_stream_the_per_row"
            "_form[line]")),
    Mutant("config file accepts a top-level dotted key", _IO,
           '_refuse_unknown([key for key in raw if "." in key])',
           "_refuse_unknown([])",
           (_IO_TESTS + "test_run_config_rejects_unknown_keys[mutate4]",)),
    # The CSV loader's block reader and the checks Dataset._adopt relies on.
    Mutant("block reader skips one header line", _IO,
           "skiprows=header_lines,",
           "skiprows=1,",
           (_IO_TESTS + "test_load_csv_accepts[two-line-header]",)),
    Mutant("block reader keeps non-finite cells", _IO,
           "\n            or not np.isfinite(values).all()):",
           "):",
           (_IO_TESTS + "test_load_csv_rejects[nan]",
            _IO_TESTS + "test_load_csv_rejects[inf]")),
    Mutant("block reader decompresses by the file's name", _IO,
           "path.suffix in _DECOMPRESSED or ",
           "",
           (_IO_TESTS + "test_load_csv_reads_a_compressed_name_as_text[.gz]",
            _IO_TESTS
            + "test_load_csv_reads_a_compressed_name_as_text[.xz]")),
    Mutant("block reader reads a non-regular file", _IO,
           " or not path.is_file()",
           "",
           (_IO_TESTS + "test_load_csv_reads_a_pipe_once",
            _IO_TESTS
            + "test_load_csv_words_a_bad_cell_in_a_pipe_as_in_a_file")),
    # The contour sidecar's name and the JSON writer's default.
    Mutant("contour sidecar overwrites a .json CSV", _IO,
           "        if json_path == path:\n",
           "        if False:\n",
           (_IO_TESTS + "test_contour_sidecar_never_overwrites_its_csv"
            "[c.json-c.json.json]",)),
    Mutant("JSON writer refuses a numpy scalar", _IO,
           "    if isinstance(value, np.generic):\n        return value.item()",
           "    if False:\n        return value.item()",
           (_IO_TESTS
            + "test_json_text_writes_a_numpy_scalar_as_its_python_value",)),
    Mutant("JSON writer writes any object as null", _IO,
           "    raise TypeError(",
           "    return None\n    raise TypeError(",
           (_IO_TESTS + "test_json_text_refuses_a_value_it_cannot_write",)),
    # Input checks: one mutant per check.
    Mutant("m_to_w takes a non-finite m", "src/plm/did.py",
           "    if not np.isfinite(m):\n", "    if False:\n",
           tuple(_DID + f"[m_to_w-{v}]" for v in ("nan", "inf", "-inf"))),
    Mutant("w_to_m takes a non-finite w", "src/plm/did.py",
           "    if not np.isfinite(w):\n", "    if False:\n",
           tuple(_DID + f"[w_to_m-{v}]" for v in ("nan", "inf", "-inf"))),
    Mutant("double-placebo spec takes non-finite long coefficients", _DOUBLE,
           "        if not (np.isfinite(self.beta_yp_long)\n"
           "                and np.isfinite(self.beta_np_long)):\n",
           "        if False:\n",
           tuple(f"tests/test_double.py::test_spec_refuses_a_non_finite_long"
                 f"_coefficient[{field}-nan]"
                 for field in ("beta_yp_long", "beta_np_long"))),
    Mutant("analysis config takes any spec", _ENGINE,
           "        if not isinstance(self.spec, (PlaceboSpec, "
           "DoublePlaceboSpec,\n" + " " * 38 + "type(None))):\n",
           "        if False:\n",
           (_ENGINE_TESTS + "test_config_validation",)),
    Mutant("fixture manifest names a column the data lacks", _IO,
           "    if missing:\n        raise DataError(f\"fixture lacks",
           "    if False:\n        raise DataError(f\"fixture lacks",
           (_IO_TESTS + "test_fixture_manifest_check",)),
    Mutant("dataset with no columns", _REGRESSION,
           "        if not columns:\n", "        if False:\n",
           (_TABLE + "[no-columns]",)),
    Mutant("dataset with an empty column name", _REGRESSION,
           "if not isinstance(name, str) or not name:",
           "if not isinstance(name, str):",
           (_TABLE + "[empty-name]",)),
    Mutant("dataset with a two-dimensional column", _REGRESSION,
           "            if arr.ndim != 1:\n", "            if False:\n",
           (_TABLE + "[two-d]",)),
    Mutant("dataset with no rows", _REGRESSION,
           "if n_rows is None or n_rows < 1:", "if n_rows is None:",
           (_TABLE + "[no-rows]", "tests/test_regression.py::test_dataset"
            "_take_of_no_rows_is_refused")),
    # The double placebo's scale, as the runners and the self-check read it.
    Mutant("pair slope adds the placebo-to-outcome link", _DOUBLE,
           "(fits.beta_yp - self.spec.beta_yp_long)",
           "(fits.beta_yp + self.spec.beta_yp_long)",
           ("tests/test_double.py::test_single_confounder_point_"
            "identification_exact",
            "tests/test_double.py::test_general_k_product_exact_with_two_"
            "confounders")),
    # Numbers past the float range: one mutant per guard.
    Mutant("a huge column standardizes to zeros", _REGRESSION,
           "    if not (np.isfinite(mean) and np.isfinite(sd)):\n",
           "    if False:\n",
           tuple(f"tests/test_regression.py::test_a_huge_column_standardizes"
                 f"_without_overflow[{case}]"
                 for case in ("1e+155-0.0", "1e+300-0.0", "1e+308-1.2"))
           + tuple(f"tests/test_cli.py::test_a_huge_treatment_runs_a_table"
                   f"[{unit}]" for unit in ("1e+155", "1e+300"))),
    Mutant("a failed solve escapes least_squares", _REGRESSION,
           "    except np.linalg.LinAlgError as exc:\n        raise Rank",
           "    except ZeroDivisionError as exc:\n        raise Rank",
           ("tests/test_regression.py::test_a_design_that_cannot_be_solved"
            "_is_rank_deficient",)),
    Mutant("JSON writer writes a non-finite number", _IO,
           "allow_nan=False, ", "",
           tuple(_IO_TESTS + "test_json_text_names_a_non_finite_number"
                 f"[{case}]" for case in ("nested", "array", "numpy-scalar"))
           + ("tests/test_cli.py::test_semiparam_of_a_huge_product_exits"
              "_four",)),
    Mutant("group means that overflow are a configuration error",
           "src/plm/did.py",
           "        if not np.isfinite(means).all():\n",
           "        if False:\n",
           ("tests/test_did.py::test_group_means_that_overflow_are_a_numeric"
            "_error",
            "tests/test_cli.py::test_did_of_a_huge_outcome_exits_four_before"
            "_writing")),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _outcomes(where: Path, ids) -> tuple[set[str], set[str]]:
    """(passed, failed) of ``ids`` in the copy ``where``, from one pytest
    call's JUnit XML report. An id the report does not name failed: its
    module did not import. A skipped id is in neither set."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    report = where / "report.xml"
    report.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--continue-on-collection-errors",
         f"--junitxml={report}", *ids],
        cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    ran = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            test = (case.get("classname").replace(".", "/") + ".py::"
                    + case.get("name"))
            ran[test] = {child.tag for child in case}
    passed = {test for test in ids
              if test in ran and not ran[test] & {"failure", "error",
                                                   "skipped"}}
    failed = {test for test in ids
              if test not in ran or ran[test] & {"failure", "error"}}
    return passed, failed


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
        passed, _ = _outcomes(Path(tmp), ids)
        if passed != set(ids):
            print("the mutants' tests do not pass on the unmutated code: "
                  + "; ".join(sorted(set(ids) - passed)), file=sys.stderr)
            return 1
    bad = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp)
            _copy(where)
            if not _mutated(where, mutant):
                verdict = "does not apply"
            elif _outcomes(where, mutant.kills)[1] != set(mutant.kills):
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
