"""Causal analysis of VARMA(p,q) time series with instantaneous effects.

Full-time graphs and their marginalized ADMGs, d-/m-separation, exact
stationary (conditional) covariances via the state-space Lyapunov equation,
total causal effects, and instrumental-variable identification and estimation.
"""

from .errors import (
    EstimationError,
    GraphError,
    ModelError,
    UnderIdentifiedError,
    VarmaCausalError,
)
from .graphs import (
    ENDOGENOUS,
    INNOVATION,
    DirectedMixedGraph,
    SeparationQuery,
    SeparationResult,
    TimedNode,
    augment,
    endo,
    graph_from_json,
    graph_to_json,
    innov,
    latent_project,
    m_separated,
    node_from_json,
    node_label,
    node_to_json,
    parse_node_ref,
    sorted_nodes,
    to_dot,
)
from .model import (
    RewrittenVarSpec,
    ValidationReport,
    VarmaSpec,
    full_time_window,
    ice_matrix,
    load_spec,
    marginalized_admg_window,
    remove_instantaneous,
    spec_from_json,
    spec_to_json,
    validate,
)
from .stationary import (
    CiVerdict,
    StateSpaceForm,
    conditional_covariance,
    cross_covariance,
    population_ci,
    solve_stationary,
)
from .effects import (
    EffectQuery,
    IvConditionReport,
    TotalEffect,
    check_iv_conditions,
    stable_marginal_separation,
    total_causal_effect,
)
from .iv import (
    IvQuery,
    IvResult,
    estimate_from_data,
    identify_population,
    lagged_design,
)
from .simulation import (
    CoefficientSampler,
    ExperimentReport,
    QueryRecord,
    SimulationConfig,
    faithfulness_check,
    fisher_z_pvalue,
    run_faithfulness_experiment,
    run_gmp_experiment,
    sample_stable_spec,
    simulate,
)

__version__ = "0.1.0"
