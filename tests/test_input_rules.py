"""Every input rule is checked in one place: the process-node rule of
``graphs.process_nodes``, the IV query-set rule of ``effects._query_sets``,
the component-name rule of ``model.component_names`` and the rule that a
conditioning set shares no node with a or c, of
``stationary._check_conditioning``."""

import numpy as np
import pytest

from varma_causal import (
    EffectQuery,
    IvQuery,
    ModelError,
    SeparationQuery,
    SimulationConfig,
    check_iv_conditions,
    conditional_covariance,
    cross_covariance,
    endo,
    estimate_from_data,
    fisher_z_pvalue,
    identify_population,
    innov,
    lagged_design,
    population_ci,
    simulate,
    solve_stationary,
    stable_marginal_separation,
    total_causal_effect,
)

# every caller of the node rule, with the bad node in one of its roles
NODE_CALLERS = {
    "stable_marginal_separation": lambda spec, bad: stable_marginal_separation(
        spec, SeparationQuery([bad], [], [endo(0, -1)])),
    "total_causal_effect[y]": lambda spec, bad: total_causal_effect(
        spec, EffectQuery(bad, [endo(0, -1)])),
    "total_causal_effect[x]": lambda spec, bad: total_causal_effect(
        spec, EffectQuery(endo(0, 1), [bad])),
    "check_iv_conditions": lambda spec, bad: check_iv_conditions(
        spec, endo(1, 1), [endo(0, -1)], [bad]),
    "identify_population": lambda spec, bad: identify_population(
        spec, IvQuery(endo(1, 1), [bad], [endo(0, -2)])),
    "cross_covariance": lambda spec, bad: cross_covariance(
        solve_stationary(spec), [endo(0, 0)], [bad]),
    "population_ci": lambda spec, bad: population_ci(
        solve_stationary(spec), SeparationQuery([bad], [], [endo(1, -1)])),
    "lagged_design": lambda spec, bad: lagged_design(
        np.zeros((50, spec.d)), [endo(0, -1), bad]),
    "estimate_from_data": lambda spec, bad: estimate_from_data(
        np.zeros((50, spec.d)), IvQuery(endo(1, 1), [bad], [endo(0, -2)])),
    "fisher_z_pvalue": lambda spec, bad: fisher_z_pvalue(
        np.zeros((50, spec.d)), endo(0, -1), bad),
}
# (node for a process of d components, message fragment)
BAD_NODES = {
    "innovation": (lambda d: innov(0, 0), "endogenous"),
    "component d": (lambda d: endo(d, 0), "outside"),
    "component -1": (lambda d: endo(-1, 0), "outside"),
}


# every caller of the overlap rule, with nodes a, c and a conditioning set b
OVERLAP_CALLERS = {
    "conditional_covariance": lambda spec, a, c, b: conditional_covariance(
        solve_stationary(spec), [a], [c], b),
    "fisher_z_pvalue": lambda spec, a, c, b: fisher_z_pvalue(
        simulate(SimulationConfig(spec, n=200, seed=1)), a, c, b),
}


@pytest.mark.parametrize("bad", BAD_NODES)
@pytest.mark.parametrize("caller", NODE_CALLERS)
def test_nodes_outside_the_process_rejected(varma_lagged_spec, caller, bad):
    node, fragment = BAD_NODES[bad]
    with pytest.raises(ModelError, match=fragment):
        NODE_CALLERS[caller](varma_lagged_spec, node(varma_lagged_spec.d))


def test_iv_query_sets_must_be_non_empty(varma_lagged_spec):
    with pytest.raises(ModelError, match="non-empty"):
        IvQuery(endo(1, 0), [], [endo(0, -2)])
    with pytest.raises(ModelError, match="non-empty"):
        check_iv_conditions(varma_lagged_spec, endo(1, 0), [endo(0, -1)], [])


@pytest.mark.parametrize("role", ["a", "c"])
@pytest.mark.parametrize("caller", OVERLAP_CALLERS)
def test_conditioning_set_overlapping_a_or_c_rejected(varma_lagged_spec, caller, role):
    a, c = endo(0, 0), endo(1, 0)
    b = (endo(0, -1), a if role == "a" else c)
    with pytest.raises(ModelError, match="overlaps"):
        OVERLAP_CALLERS[caller](varma_lagged_spec, a, c, b)
