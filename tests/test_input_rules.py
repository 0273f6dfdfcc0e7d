"""Every input rule is checked in one place: the process-node rule of
``graphs.process_nodes``, the IV query-set rule of ``effects._query_sets``,
the component-name rule of ``model.component_names`` and the rule that a
conditioning set shares no node with a or c, of
``stationary._check_conditioning``. The rules that guard one entry point
each are checked here too, each by its message."""

import re

import numpy as np
import pytest

from varma_causal import (
    DirectedMixedGraph,
    EffectQuery,
    EstimationError,
    GraphError,
    IvQuery,
    ModelError,
    SeparationQuery,
    SimulationConfig,
    VarmaSpec,
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
    run_gmp_experiment,
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


def wrong_shape_law(rng, n, d):
    return np.zeros((n, d + 1))


# the rules of one entry point each: (call on a d = 2 spec, error, message)
SINGLE_RULES = {
    "names length": (lambda spec: VarmaSpec(spec.a, spec.b, spec.gamma, names=["X"]),
                     ModelError, "names must have length 2"),
    "no A0": (lambda spec: VarmaSpec([]), ModelError, "need at least A0"),
    "negative gamma": (lambda spec: VarmaSpec(spec.a, spec.b, [1.0, -0.5]),
                       ModelError, "gamma entries must be non-negative"),
    "weight not k x k": (lambda spec: IvQuery(endo(1, 0), [endo(0, -1)],
                                              [endo(0, -2), endo(1, -2)], weight=np.eye(3)),
                         ModelError, "weight must be 2x2"),
    "too few usable rows": (lambda spec: estimate_from_data(
        np.random.default_rng(1).standard_normal((4, 2)),
        IvQuery(endo(1, 0), [endo(0, -1)], [endo(0, -2)])),
        EstimationError, "2 usable rows are too few for 1 regressors"),
    "no steps": (lambda spec: simulate(SimulationConfig(spec, n=0, seed=1)),
                 ModelError, "need n > 0 simulation steps"),
    "innovation law shape": (lambda spec: simulate(SimulationConfig(
        spec, n=10, seed=1, burn_in=0, innovation_law=wrong_shape_law)),
        ModelError, "innovation law must return shape (10, 2)"),
    "experiment mode": (lambda spec: run_gmp_experiment(lambda rng: spec, 1, 1, mode="exact"),
                        ModelError, "unknown experiment mode 'exact'"),
    "duplicate nodes": (lambda spec: DirectedMixedGraph([endo(0, 0), endo(0, 0)]),
                        GraphError, "duplicate nodes in graph construction"),
    "empty a": (lambda spec: SeparationQuery([], [], [endo(0, 0)]),
                GraphError, "separation query needs non-empty a and c sets"),
    "empty c": (lambda spec: SeparationQuery([endo(0, 0)], [], []),
                GraphError, "separation query needs non-empty a and c sets"),
}


@pytest.mark.parametrize("rule", SINGLE_RULES)
def test_single_entry_rules(varma_lagged_spec, rule):
    call, error, message = SINGLE_RULES[rule]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(varma_lagged_spec)


@pytest.mark.parametrize("column", [0, 1])
def test_fisher_z_of_a_constant_column_is_one(column):
    # a zero conditional variance leaves no correlation to test: p = 1
    data = np.random.default_rng(2).standard_normal((50, 2))
    data[:, column] = 3.0
    assert fisher_z_pvalue(data, endo(0, 0), endo(1, 0)) == 1.0
