"""Reference implementations, kept apart from the library as test oracles.

``m_separated_oracle`` enumerates simple paths and ``d_separated_moral``
applies the moralized-ancestral-graph criterion. Of the library's separation
core they share only the ancestor sets of ``DirectedMixedGraph``; the edges
at a node come from ``edges_at``, which reads the public edge sets, not the
library's coded incidence.

``deepening_separation`` is the window-deepening loop as it ran before one
Bayes-ball pass served all of a query's windows: a fresh pass of the
library's ``_connection`` on each window, from scratch.

``autocovariances_by_recursion`` is the n x n recursion from which the
stationary law read its autocovariances before it kept one lag table.

``estimate_from_data`` is the row-major IV estimator the library used before
it built its design one node row at a time: an n x k design, centred into a
copy, residualized one block at a time. It shares only the weighted solve and
the rank routine with the library.
"""

from typing import Optional, Sequence

import numpy as np

from varma_causal import effects
from varma_causal.errors import EstimationError, GraphError, ModelError
from varma_causal.graphs import (
    ENDOGENOUS, DirectedMixedGraph, SeparationQuery, TimedNode, UndirectedGraph, _connection,
    _result, sorted_nodes)
from varma_causal.iv import IvQuery, IvResult, _weighted_solve
from varma_causal.stationary import numerical_rank


def moralize(g: DirectedMixedGraph) -> UndirectedGraph:
    """Moral graph of a DAG: adjacency plus marriages of common parents."""
    if g.bidirected:
        raise GraphError("graph has bi-directed edges; use augment() instead")
    edges = {frozenset(e) for e in g.directed}
    for v in g.nodes:
        ps = g.parents(v)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add(frozenset((ps[i], ps[j])))
    return UndirectedGraph(g.nodes, edges)


def edges_at(g: DirectedMixedGraph, v: TimedNode) -> list:
    """Edges at ``v`` as (neighbour, arrowhead at v, arrowhead at the
    neighbour), read from ``g.directed`` and ``g.bidirected``: children,
    parents, then spouses, each in node order."""
    return ([(h, False, True) for h in sorted_nodes(h for t, h in g.directed if t == v)]
            + [(t, True, False) for t in sorted_nodes(t for t, h in g.directed if h == v)]
            + [(w, True, True) for w in sorted_nodes(w for pair in g.bidirected if v in pair
                                                     for w in pair if w != v)])


def m_separated_oracle(
    g: DirectedMixedGraph, query: SeparationQuery, max_paths: int = 10**6
) -> bool:
    """Direct check by enumerating simple paths (test oracle).

    Walks every simple path from ``query.a`` to ``query.c`` and evaluates its
    blocking status: blocked iff some non-collider on it lies in ``b`` or some
    collider has no descendant in ``b``. Returns as soon as an open path is
    found; raises once more than ``max_paths`` paths have been enumerated.
    """
    g._codes((*query.a, *query.b, *query.c))  # unknown nodes raise GraphError
    b_set, c_set = set(query.b), set(query.c)
    an_b = set(g.ancestors(query.b)) if query.b else set()
    incident = {v: edges_at(g, v) for v in g.nodes}
    counter = [0]

    def count_one():
        counter[0] += 1
        if counter[0] > max_paths:
            raise GraphError(f"path enumeration exceeded {max_paths} simple paths")

    def dfs(node, entered_head, prefix_open, on_path):
        # extends the path ending at `node`; returns True iff an open
        # completion to c exists among the enumerated ones
        for other, head_here, head_other in incident[node]:
            if other in on_path:
                continue
            step_open = prefix_open and (
                node in an_b if entered_head and head_here else node not in b_set)
            if other in c_set:
                count_one()
                if step_open:
                    return True
                continue
            if dfs(other, head_other, step_open, on_path | {other}):
                return True
        return False

    for a in query.a:
        for other, _, head_other in incident[a]:
            if other in c_set:
                count_one()
                return False  # single-edge path has no junctions, always open
            if dfs(other, head_other, True, {a, other}):
                return False
    return True


def d_separated_moral(g: DirectedMixedGraph, query: SeparationQuery) -> bool:
    """d-separation via the moralized ancestral subgraph (DAG only)."""
    g._codes((*query.a, *query.b, *query.c))  # unknown nodes raise GraphError
    if g.bidirected:
        raise GraphError("moralization-based check requires a DAG")
    ancestral = g.subgraph(g.ancestors((*query.a, *query.b, *query.c)))
    return moralize(ancestral).separated(query.a, query.c, query.b)


def deepening_separation(spec, query: SeparationQuery, nodes, top: int,
                         t_min: Optional[int], cut=None):
    """``effects._deepening_separation`` with a fresh pass per window.

    Returns (SeparationResult, (bottom, top) of the last window, stabilized,
    the separated verdict of each window in turn).
    """
    admg = spec._admg
    codes = tuple(tuple(map(admg.code, s)) for s in (query.a, query.b, query.c))
    ceiling = (top + 1) * spec.d
    removed = frozenset()
    if cut is not None:
        removed = effects._causal_cut(
            admg, admg.code(cut.y), frozenset(map(admg.code, cut.x_set)),
            min(v.time for v in cut.x_set) * spec.d, ceiling)
    earliest = min(v.time for v in nodes)
    if t_min is None:
        t_min = earliest - (spec.max_lag + 1) * (spec.d + 1)
    lag = max(spec.max_lag, 1)
    bottom = min(t_min, earliest) + lag
    verdicts, stabilized = [], False
    for _ in range(effects.MAX_STABILIZATION_ROUNDS):
        bottom -= lag
        connection = next(_connection(admg, codes, (bottom * spec.d,), ceiling, removed))
        verdicts.append(connection is None)
        if verdicts[-2:] == [verdicts[-1]] * 2:
            stabilized = True
            break
    result = _result(admg, codes, removed, connection, admg.node)
    return result, (bottom, top), stabilized, verdicts


def autocovariances_by_recursion(ss, span: int) -> dict:
    """Cov(S_t, S_(t-h)) for h = -span..span from the companion form of the
    law ``ss``: the top-left d x d block of Sigma_h = F Sigma_(h-1), with
    Sigma_0 = Sigma_z, transposed for negative h."""
    out, block = {}, ss.sigma_z
    for h in range(span + 1):
        out[h] = block[:ss.d, :ss.d]
        out[-h] = out[h].T
        block = ss.f @ block
    return out


def lagged_design(data: np.ndarray, nodes: Sequence[TimedNode]) -> np.ndarray:
    """Observation matrix for nodes given as (component, lag) references.

    Row t of the result stacks data[t + time(v), component(v)] over the nodes,
    for every anchor t where all references fall inside the series; the first
    max-lag-span rows are dropped.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    nodes = tuple(nodes)
    for v in nodes:
        if v.kind != ENDOGENOUS:
            raise ModelError(f"data designs are over endogenous nodes; got {v!r}")
        if not 0 <= v.component < d:
            raise ModelError(f"component {v.component} outside data with {d} columns")
    times = [v.time for v in nodes]
    t_hi = max(times)
    span = t_hi - min(times)
    n_eff = n - span
    if n_eff <= 0:
        raise EstimationError(f"series of length {n} too short for lag span {span}")
    # anchor the latest reference on rows span..n-1
    out = np.empty((n_eff, len(nodes)))
    for j, v in enumerate(nodes):
        offset = v.time - t_hi  # <= 0
        start = span + offset
        out[:, j] = data[start:start + n_eff, v.component]
    return out


def _residualize(block: np.ndarray, controls: Optional[np.ndarray]) -> np.ndarray:
    if controls is None or controls.shape[1] == 0:
        return block
    coef, *_ = np.linalg.lstsq(controls, block, rcond=None)
    return block - controls @ coef


def estimate_from_data(data: np.ndarray, query: IvQuery) -> IvResult:
    """Closed-form weighted IV estimate from an observed series.

    Builds lagged blocks for Y, X, I, B from overlapping windows, centers
    them, replaces each block by its OLS residuals on B (centering only when B
    is empty), and evaluates
    beta = E^[r_Y r_I'] W E^[r_I r_X'] (E^[r_X r_I'] W E^[r_I r_X'])^(-1).
    A sample moment matrix E^[r_X r_I'] of numerical rank below dim(X)
    raises :class:`EstimationError`.

    Linear residualization equals the conditional expectation on B under the
    Gaussian stationary law; for non-Gaussian innovations it is only the best
    linear approximation, and the estimator targets the linearly-residualized
    moment equation.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    nodes = (query.y, *query.x_set, *query.i_set, *query.b_set)
    design = lagged_design(data, nodes)
    n_eff = design.shape[0]
    n_regressors = len(query.x_set) + len(query.b_set)
    if n_eff <= n_regressors + 1:
        raise EstimationError(
            f"{n_eff} usable rows are too few for {n_regressors} regressors")
    design = design - design.mean(axis=0)

    ny, nx, ni = 1, len(query.x_set), len(query.i_set)
    y_block = design[:, :ny]
    x_block = design[:, ny:ny + nx]
    i_block = design[:, ny + nx:ny + nx + ni]
    b_block = design[:, ny + nx + ni:]
    controls = b_block if b_block.shape[1] else None

    r_y = _residualize(y_block, controls)
    r_x = _residualize(x_block, controls)
    r_i = _residualize(i_block, controls)

    s_yi = r_y.T @ r_i / n_eff
    s_xi = r_x.T @ r_i / n_eff
    rank = numerical_rank(s_xi)
    if rank < nx:
        raise EstimationError(
            f"sample moment matrix E^[r_X r_I'] is singular (rank {rank} < dim(X) = {nx})")
    beta, residual = _weighted_solve(s_yi, s_xi, query.weight_or_identity())
    return IvResult(beta, residual, None, int(n_eff))
