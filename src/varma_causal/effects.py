"""Total causal effects and the graph-side conditions for IV identification.

A causal path starts in the treatment set, never revisits it, and runs along
directed endogenous edges only; the total effect is the sum over such paths of
the products of edge coefficients. Because directed edges never point backward
in time, every causal path lives inside the time window spanned by the query,
so finite windows compute the infinite-graph quantity exactly. Separation
has no such constructive bound; one window-deepening loop serves both
``stable_marginal_separation`` and the instrument condition, and reports
carry the window actually used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import GraphError, ModelError
from .graphs import (
    ENDOGENOUS,
    DirectedMixedGraph,
    SeparationQuery,
    TimedNode,
    m_separated,
)
from .model import (
    GraphWindow,
    VarmaSpec,
    full_time_window,
    marginalized_admg_window,
    require_valid,
)
from .stationary import conditional_covariance, numerical_rank, solve_stationary

MAX_STABILIZATION_ROUNDS = 12


@dataclass(frozen=True)
class EffectQuery:
    """Target node y and ordered treatment nodes; all endogenous, y not in x."""

    y: TimedNode
    x_set: tuple[TimedNode, ...]

    def __init__(self, y: TimedNode, x_set: Sequence[TimedNode]):
        x_set = tuple(x_set)
        for v in (y, *x_set):
            if v.kind != ENDOGENOUS:
                raise ModelError(f"effect queries are over endogenous nodes; got {v!r}")
        if y in x_set:
            raise ModelError("y must not be part of the treatment set")
        if len(set(x_set)) != len(x_set):
            raise ModelError("duplicate treatment nodes")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_set", x_set)


@dataclass(frozen=True)
class TotalEffect:
    query: EffectQuery
    beta: np.ndarray


def _path_sums_to(g: DirectedMixedGraph, y: TimedNode, x_set: frozenset) -> dict:
    """For each node, the coefficient sum of directed paths to y avoiding x_set."""
    sums: dict[TimedNode, float] = {}
    for v in reversed(g.topological_order()):
        if v == y:
            sums[v] = 1.0
            continue
        total = 0.0
        for w in g.children(v):
            if w in x_set:
                continue
            hw = sums.get(w, 0.0)
            if hw != 0.0:
                total += g.directed[(v, w)] * hw
        sums[v] = total
    return sums


def total_causal_effect(spec: VarmaSpec, query: EffectQuery) -> TotalEffect:
    """Sum of path coefficients over causal paths from each treatment to y.

    Computed by dynamic programming in topological order over the endogenous
    full-time window spanning the query; treatments that lie later than y get
    entry 0 (no causal path can exist).
    """
    require_valid(spec, allow_zero_variance=True)
    times = [v.time for v in (query.y, *query.x_set)]
    window = full_time_window(spec, min(times), max(times), include_innovations=False)
    g = window.graph
    x_set = frozenset(query.x_set)
    sums = _path_sums_to(g, query.y, x_set)
    beta = np.zeros(len(query.x_set))
    for j, x in enumerate(query.x_set):
        total = 0.0
        for w in g.children(x):
            if w in x_set:
                continue
            hw = sums.get(w, 0.0)
            if hw != 0.0:
                total += g.directed[(x, w)] * hw
        beta[j] = total
    return TotalEffect(query, beta)


def _causal_reach(g: DirectedMixedGraph, y: TimedNode, x_set: frozenset) -> set:
    """Nodes with a directed path to y whose interior avoids x_set."""
    reach = {y}
    queue = deque([y])
    while queue:
        u = queue.popleft()
        if u != y and u in x_set:
            continue  # paths may start in x_set but never pass through it
        for v in g.parents(u):
            if v not in reach:
                reach.add(v)
                queue.append(v)
    return reach


def cut_causal_edges(window: Union[GraphWindow, DirectedMixedGraph],
                     query: EffectQuery) -> DirectedMixedGraph:
    """Remove every outgoing treatment edge that starts a causal path to y."""
    g = window.graph if isinstance(window, GraphWindow) else window
    for v in (query.y, *query.x_set):
        if not g.has_node(v):
            raise GraphError(
                f"node {v!r} missing from window; build a wider window")
    x_set = frozenset(query.x_set)
    reach = _causal_reach(g, query.y, x_set)
    cut = [
        (tail, head)
        for (tail, head) in g.directed
        if tail in x_set and head not in x_set and head in reach
    ]
    return g.without_directed(cut)


def _deepening_separation(spec: VarmaSpec, query: SeparationQuery,
                          nodes: Sequence[TimedNode], top: int,
                          t_min: Optional[int], cut: Optional[EffectQuery] = None):
    """m-separation on marginalized windows [bottom, top] of deepening bottom.

    The bottom starts at ``t_min`` (default: earliest of ``nodes`` minus
    (max(p,q)+1)·(d+1), never above the earliest node) and moves down by
    max(p,q,1) lags until two consecutive verdicts agree, for at most
    MAX_STABILIZATION_ROUNDS windows. With ``cut`` set, the causal edges of
    that effect query are removed from each window before the test.

    Returns (SeparationResult, last GraphWindow built, stabilized).
    """
    earliest = min(v.time for v in nodes)
    if t_min is None:
        t_min = earliest - (spec.max_lag + 1) * (spec.d + 1)
    bottom = min(t_min, earliest)
    lag = max(spec.max_lag, 1)
    previous = None
    for _ in range(MAX_STABILIZATION_ROUNDS):
        window = marginalized_admg_window(spec, bottom, top)
        graph = window.graph if cut is None else cut_causal_edges(window, cut)
        result = m_separated(graph, query)
        if previous is not None and previous == result.separated:
            return result, window, True
        previous = result.separated
        bottom -= lag
    return result, window, False


def stable_marginal_separation(spec: VarmaSpec, query: SeparationQuery,
                               t_min: Optional[int] = None):
    """m-separation in the full-time marginalized ADMG via deepening windows.

    Open paths never rise above the latest query time, so the window top is
    exact; the bottom starts at ``t_min`` (default: earliest query time minus
    (max(p,q)+1)·(d+1)) and moves down by max(p,q,1) lags until the verdict
    agrees twice in a row. For stationary processes some finite depth always
    suffices, but no constructive bound is available, so the returned
    ``stabilized`` flag records that this is a heuristic stopping rule.

    Returns (SeparationResult, (t_min_used, t_max_used), stabilized).
    """
    nodes = (*query.a, *query.b, *query.c)
    result, window, stabilized = _deepening_separation(
        spec, query, nodes, max(v.time for v in nodes), t_min)
    return result, (window.t_min, window.t_max), stabilized


@dataclass(frozen=True)
class IvConditionReport:
    """Graph- and moment-side conditions for IV identification of a total effect.

    ``instrument_separated``: instruments are m-separated from y by b after
    cutting the causal treatment edges (condition 1). ``confounding_free``:
    ancestors of b avoid spouses of descendants of x ∪ {y} (condition 2).
    ``rank``/``rank_ok``: rank of E[Cov(X, I | B)] vs dim(X) (condition 3).
    ``under_identified`` flags dim(X) > dim(I). ``stabilized`` reports whether
    the deepening-window verdict for condition 1 settled; the window bounds used
    are included because the stopping rule is heuristic.
    """

    instrument_separated: bool
    confounding_free: bool
    rank: int
    rank_ok: bool
    under_identified: bool
    all_hold: bool
    window_used: tuple[int, int]
    stabilized: bool
    witness: Optional[tuple[TimedNode, ...]] = None

    def to_dict(self) -> dict:
        return {
            "instrument_separated": self.instrument_separated,
            "confounding_free": self.confounding_free,
            "rank": self.rank,
            "rank_ok": self.rank_ok,
            "under_identified": self.under_identified,
            "all_hold": self.all_hold,
            "window_used": list(self.window_used),
            "stabilized": self.stabilized,
            "witness": [list(v) for v in self.witness] if self.witness else None,
        }


def _query_sets(y, x_set, i_set, b_set):
    y_tuple = (y,)
    sets = {"x": tuple(x_set), "i": tuple(i_set), "b": tuple(b_set)}
    seen = set(y_tuple)
    for name, nodes in sets.items():
        for v in nodes:
            if v.kind != ENDOGENOUS:
                raise ModelError(f"{name} nodes must be endogenous; got {v!r}")
            if v in seen:
                raise ModelError(f"node {v!r} appears in more than one query set")
            seen.add(v)
    return sets["x"], sets["i"], sets["b"]


def _iv_report(spec: VarmaSpec, y: TimedNode, x_set, i_set, b_set,
               t_min: Optional[int], rank: int) -> IvConditionReport:
    """Conditions 1 and 2 on the marginalized ADMG, with the rank of
    E[Cov(X, I | B)] (condition 3) computed by the caller."""
    nodes = (y, *x_set, *i_set, *b_set)
    result, window, stabilized = _deepening_separation(
        spec, SeparationQuery(i_set, b_set, (y,)), nodes,
        max(v.time for v in nodes) + spec.q, t_min, cut=EffectQuery(y, x_set))

    g = window.graph
    an_b = set(g.ancestors(b_set)) if b_set else set()
    sp_de = set(g.spouses_of_set(g.descendants((y, *x_set))))
    confounding_free = not (an_b & sp_de)
    rank_ok = rank == len(x_set)

    return IvConditionReport(
        instrument_separated=result.separated,
        confounding_free=confounding_free,
        rank=rank,
        rank_ok=rank_ok,
        under_identified=len(x_set) > len(i_set),
        all_hold=result.separated and confounding_free and rank_ok,
        window_used=(window.t_min, window.t_max),
        stabilized=stabilized,
        witness=result.witness,
    )


def check_iv_conditions(
    window: Union[GraphWindow, VarmaSpec],
    y: TimedNode,
    x_set: Sequence[TimedNode],
    i_set: Sequence[TimedNode],
    b_set: Sequence[TimedNode] = (),
) -> IvConditionReport:
    """Evaluate the three identification conditions on the marginalized ADMG.

    Accepts a marginalized window (its spec and bottom start the deepening
    loop) or a spec directly. Condition 1 uses the deepening-window heuristic
    of :func:`stable_marginal_separation`, on windows topped out q lags above
    the query. Condition 2 is read off the last of those windows; it is exact
    there, because spouse pairs span at most q lags and ancestors of b are
    bounded by b's times. Condition 3 compares the numerical rank of
    E[Cov(X, I | B)] (singular values above 1e-8 of the largest) with dim(X).
    """
    if isinstance(window, VarmaSpec):
        spec = window
        t_min = None
    else:
        spec = window.spec
        t_min = window.t_min
        contained = set(v.time for v in (y, *x_set, *i_set, *b_set))
        if min(contained) < window.t_min or max(contained) > window.t_max:
            raise GraphError(
                "query nodes fall outside the given window; build a wider window")
    require_valid(spec, allow_zero_variance=True)
    x_set, i_set, b_set = _query_sets(y, x_set, i_set, b_set)
    if not x_set or not i_set:
        raise ModelError("x and i sets must be non-empty")

    rank = numerical_rank(conditional_covariance(solve_stationary(spec), x_set, i_set, b_set))
    return _iv_report(spec, y, x_set, i_set, b_set, t_min, rank)
