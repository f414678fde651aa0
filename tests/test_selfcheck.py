"""Tests for the randomized self-check harness itself."""

import pytest

from plm.adjust import _ROLE_TABLE
from plm.selfcheck import (_CASE_ORDER, SINGLE_CASES, CheckReport,
                           _case_place, identity_residual,
                           round_trip_inputs, run_selfcheck)
from plm.simulate import _GRAPHS, GRAPH_EDGES, SCMRecipe, simulate_scm


def test_selfcheck_passes_on_small_run():
    report = run_selfcheck(seed=0, draws=3)
    assert report.ok, report
    assert report.draws == 3
    assert report.max_recovery_error <= 1e-8
    assert report.max_double_error <= 1e-8
    assert report.max_identity_residual <= 1e-8


def test_report_holds_python_floats():
    report = run_selfcheck(seed=0, draws=1)
    for error in (report.max_recovery_error, report.max_double_error,
                  report.max_identity_residual):
        assert type(error) is float
    assert "np." not in repr(report)


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


def test_single_cases_run_on_the_graph_their_edges_describe():
    # A case's graph has exactly the edges between observed nodes that its
    # spec declares, the one its role implies, and d -> y; each runs from
    # an earlier column of the simulated data to a later one.
    edge_names = {"d_to_p": "d->p", "p_to_y": "p->y", "p_to_d": "p->d",
                  "y_to_p": "y->p"}
    for graph, role, kwargs in SINGLE_CASES:
        declared = [name for name in ("d_to_p", "p_to_y")
                    if kwargs.get(f"edge_{name}")]
        implied = [_ROLE_TABLE[role].implies] if _ROLE_TABLE[role].implies \
            else []
        observed = {edge for edge in GRAPH_EDGES[graph]
                    if not edge.startswith("z->")}
        assert observed == {"d->y", *(edge_names[name]
                                      for name in declared + implied)}
    for graph, edges in GRAPH_EDGES.items():
        names = simulate_scm(SCMRecipe(n=1, graph_case=graph)).names
        for edge in edges:
            src, dst = edge.upper().split("->")
            assert src == "Z" or names.index(src) < names.index(dst)


def test_every_three_node_graph_serves_a_case():
    # A graph that no case runs on would drop out of ``plm verify``.
    three_node = {graph for graph, (nodes, _) in _GRAPHS.items()
                  if len(nodes) == 3}
    assert {graph for graph, _, _ in SINGLE_CASES} == three_node


def test_single_cases_keep_their_seed_order():
    # Each case's place fixes the seeds ``plm verify`` draws for it.
    assert [case[:2] for case in SINGLE_CASES] == list(_CASE_ORDER)


def test_a_case_without_a_place_is_named():
    # A new accepted edge set in the role table makes a case that
    # _CASE_ORDER does not list; the error names it and where to add it.
    assert _case_place(("d", "placebo_outcome", {})) == len(_CASE_ORDER) - 1
    with pytest.raises(ValueError, match=r"\('c', 'placebo_outcome'\).*"
                       r"selfcheck\._CASE_ORDER"):
        _case_place(("c", "placebo_outcome", {}))


@pytest.mark.parametrize("graph_case, role, kwargs", SINGLE_CASES)
@pytest.mark.parametrize("z_dim", [1, 2])
def test_scale_factor_is_the_oracles_sd_ratio(graph_case, role, kwargs,
                                              z_dim):
    # SF carries the scale-free k back to coefficient units: it must be the
    # ratio of the oracle's SD ratios of the target's and the direct
    # effect's biases, whatever else the round trip checks.
    for seed in (11, 12, 13):
        _, (_, _, sf), (_, _, bias_t, bias_p) = round_trip_inputs(
            graph_case, role, kwargs, seed, z_dim=z_dim)
        want = bias_t.sd_ratio / bias_p.sd_ratio
        assert sf == pytest.approx(want, rel=1e-12, abs=0), (seed, sf, want)
