"""Partial identification of linear treatment effects with imperfect
placebos.

A placebo treatment or placebo outcome that shares confounding with the
effect of interest bounds that effect even when the placebo is itself
confounded or weakly affected by the treatment. This package fits the
required short regressions, applies the case-specific adjustment, and
maps out sensitivity over the two assumption parameters: the relative
confounding strength k and the placebo's direct effect.

Entry points
------------
dispatch_case / CaseFormula
    Pick the adjustment formula implied by a PlaceboSpec and apply it.
run_table, run_contour, run_line
    Batch runners with bootstrap uncertainty (engine module).
load_csv, parse_run_config, emit_outputs
    File plumbing used by the ``plm`` command line tool.
"""

from .adjust import (
    ROLES,
    CaseFormula,
    PlaceboSpec,
    SensitivityPoint,
    ShortCoefficients,
    dispatch_case,
    k_from_m,
    m_from_k,
    standard_did_k,
)
from .did import (
    DIDAssumption,
    GroupMeans,
    att,
    dim,
    m_to_w,
    parallel_trends_gap,
    w_to_m,
)
from .double import (
    DoublePlaceboPoint,
    DoublePlaceboSpec,
    DoubleShortFits,
    adjust_double_placebo,
    fit_double_shorts,
    point_identify_double_placebo,
)
from .engine import (
    AnalysisConfig,
    ContourGrid,
    LineSlice,
    ResultTable,
    TableRow,
    bootstrap,
    run_contour,
    run_line,
    run_table,
)
from .errors import (
    AmbiguousSpec,
    BootstrapDegenerate,
    ConfigError,
    DataError,
    DegenerateResidual,
    DenominatorNearZero,
    DuplicateHeader,
    InvalidRecipe,
    IoError,
    MediatorCautionWarning,
    NonFiniteValue,
    NonpositiveScale,
    NumericError,
    ParseError,
    PlmError,
    RankDeficient,
    ScaleConfusionWarning,
    TooFewRows,
    UnknownColumn,
    UnsupportedCase,
)
from .io import (
    RunConfig,
    check_fixture_manifest,
    emit_outputs,
    load_csv,
    parse_run_config,
    read_table_csv,
    write_dataset_csv,
)
from .oracle import (
    BiasDecomposition,
    FitSummary,
    bias_decomposition_oracle,
    cohens_f,
    fit_ols,
    partial_corr,
    verify_bias_factor_identity,
)
from .regression import Dataset
from .selfcheck import CheckReport, run_selfcheck
from .semiparam import (
    SemiparamInputs,
    adjust_partially_linear,
)
from .simulate import (
    GRAPH_EDGES,
    SCMRecipe,
    population_partial_corr,
    population_regression,
    recipe_covariance,
    simulate_scm,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
