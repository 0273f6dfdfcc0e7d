import numpy as np
import pytest

from varma_causal import (
    DirectedMixedGraph,
    SeparationQuery,
    VarmaSpec,
    endo,
)


@pytest.fixture(scope="session")
def var_instant_spec():
    # X_t = 1/2 X_(t-1) + eX_t;  Y_t = 1/3 X_t + 1/2 Y_(t-1) + eY_t
    return VarmaSpec(
        a=[[[0, 0], [1 / 3, 0]], [[1 / 2, 0], [0, 1 / 2]]],
        gamma=[1, 1],
        names=["X", "Y"],
    )


@pytest.fixture(scope="session")
def varma_instant_spec():
    # X_t = 1/2 X_(t-1) + eX_t + 1/4 eY_(t-1)
    # Y_t = 1/5 X_t + 1/3 X_(t-1) + 1/2 Y_(t-1) + eY_t
    return VarmaSpec(
        a=[[[0, 0], [1 / 5, 0]], [[1 / 2, 0], [1 / 3, 1 / 2]]],
        b=[[[0, 1 / 4], [0, 0]]],
        gamma=[1, 1],
        names=["X", "Y"],
    )


@pytest.fixture(scope="session")
def varma_lagged_spec():
    # X_t = 1/2 X_(t-1) + eX_t + 1/4 eY_(t-1)
    # Y_t = 1/3 X_(t-1) + 1/2 Y_(t-1) + eY_t
    return VarmaSpec(
        a=[[[0, 0], [0, 0]], [[1 / 2, 0], [1 / 3, 1 / 2]]],
        b=[[[0, 1 / 4], [0, 0]]],
        gamma=[1, 1],
        names=["X", "Y"],
    )


# Stationary cross covariances of varma_lagged_spec, with X = (X@-1, Y@-1),
# I = (X@-2, Y@-2), Y = Y@0, and the effect beta they identify.
# test_acceptance.yule_walker_lagged_tables derives them in exact rational
# arithmetic (Yule-Walker equations, Gamma_0 by a rational Kronecker solve)
# without the library; test_criterion_01_reference_covariance_tables checks
# these constants against that derivation to 1e-15.
LAGGED_SPEC_COV_XI = np.array([[17 / 24, 53 / 108], [77 / 108, 505 / 486]])
LAGGED_SPEC_COV_YI = np.array([[16 / 27, 166 / 243]])
LAGGED_SPEC_BETA = np.array([1 / 3, 1 / 2])


@pytest.fixture(scope="session")
def cancellation_spec():
    # triangle X -> Y -> Z with X -> Z chosen so the total effect cancels:
    # gamma_edge + alpha*beta = 0 makes Z independent of X despite adjacency
    alpha, beta = 0.5, 0.4
    a0 = np.array([[0, 0, 0], [alpha, 0, 0], [-alpha * beta, beta, 0]])
    return VarmaSpec(a=[a0, np.zeros((3, 3))], gamma=[1, 1, 1])


def decoded_records(g, v):
    """The coded incidence record of node ``v`` of a finite graph ``g``, each
    neighbour decoded: (neighbour, arrowhead at v, arrowhead there)."""
    k = g.nodes.index(v)
    return [(g.nodes[k + off], here, there) for off, here, there in g._coded.records[k]]


def random_dag(rng, n, p_edge=0.35, coeff=False, time_spread=0):
    """Random DAG over n TimedNodes with a shuffled topological order."""
    nodes = [endo(i, -int(rng.integers(0, time_spread + 1))) for i in range(n)]
    if len(set(nodes)) != n:  # collapse duplicates from the time draw
        nodes = [endo(i, 0) for i in range(n)]
    order = list(nodes)
    rng.shuffle(order)
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                c = float(rng.uniform(-2, 2)) if coeff else None
                directed.append((order[i], order[j], c))
    return DirectedMixedGraph(nodes, directed)


def random_admg(rng, n, p_edge=0.3, p_bi=0.2):
    g = random_dag(rng, n, p_edge)
    nodes = list(g.nodes)
    bidirected = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_bi:
                bidirected.append((nodes[i], nodes[j]))
    return DirectedMixedGraph(
        nodes, [(t, h, c) for (t, h), c in g.directed.items()], bidirected
    )


def random_query(rng, g, max_b=3):
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    na = int(rng.integers(1, 3))
    nc = int(rng.integers(1, 3))
    nb = int(rng.integers(0, max_b + 1))
    if na + nc > len(nodes):
        na = nc = 1
    nb = min(nb, len(nodes) - na - nc)
    if nb < 0:
        return None
    return SeparationQuery(
        nodes[:na], nodes[na + nc:na + nc + nb], nodes[na:na + nc]
    )
