"""Tests for the randomized self-check harness itself."""

from plm.adjust import _ROLE_TABLE
from plm.selfcheck import (SINGLE_CASES, CheckReport, identity_residual,
                           run_selfcheck)


def test_selfcheck_passes_on_small_run():
    report = run_selfcheck(seed=0, draws=3)
    assert report.ok, report
    assert report.draws == 3
    assert report.max_recovery_error <= 1e-8
    assert report.max_double_error <= 1e-8
    assert report.max_identity_residual <= 1e-8


def test_identity_residual_multivariate_driver():
    assert identity_residual(seed=4, z_dim=3) <= 1e-8


def test_report_flags_failures():
    bad = CheckReport(draws=1, max_recovery_error=1e-3,
                      max_double_error=0.0, max_identity_residual=0.0)
    assert not bad.ok


def test_single_cases_cover_every_accepted_edge_set():
    declared = [(role, frozenset(edge for edge in ("d_to_p", "p_to_y")
                                 if kwargs.get(f"edge_{edge}")))
                for _, role, kwargs in SINGLE_CASES]
    accepted = {(role, edges) for role, rule in _ROLE_TABLE.items()
                for edges in rule.accepts}
    assert len(declared) == len(set(declared))
    assert set(declared) == accepted
