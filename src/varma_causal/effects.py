"""Total causal effects and the graph-side conditions for IV identification.

A causal path starts in the treatment set, never revisits it, and runs along
directed endogenous edges only; the total effect is the sum over such paths of
the products of edge coefficients. Because directed edges never point backward
in time, every causal path lives inside the time window spanned by the query,
so finite windows compute the infinite-graph quantity exactly. Separation
has no such constructive bound; one window-deepening loop serves both
``stable_marginal_separation`` and the instrument condition, and reports
carry the window actually used. The loop builds no window graph: it runs the
integer-coded separation core of ``graphs`` on the spec's compiled incidence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphError, ModelError
from .graphs import (
    DirectedMixedGraph,
    SeparationQuery,
    TimedNode,
    _connection,
    _reach,
    _result,
    node_to_json,
    process_nodes,
)
from .model import VarmaSpec, full_time_window
from .stationary import conditional_covariance, numerical_rank, solve_stationary

MAX_STABILIZATION_ROUNDS = 12


@dataclass(frozen=True)
class EffectQuery:
    """Target y and ordered distinct treatments x, y not in x; nodes checked when answered."""

    y: TimedNode
    x_set: tuple[TimedNode, ...]

    def __init__(self, y: TimedNode, x_set: Sequence[TimedNode]):
        x_set = tuple(x_set)
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
    times = [v.time for v in process_nodes((query.y, *query.x_set), spec.d)]
    g = full_time_window(spec, min(times), max(times), include_innovations=False)
    sums = _path_sums_to(g, query.y, frozenset(query.x_set))
    return TotalEffect(query, np.array([sums[x] for x in query.x_set]))


def _causal_cut(coded, y: int, x_set: frozenset, floor: int, ceiling: int) -> set:
    """Code pairs, in both orders, of the treatment edges that start a causal
    path to y, in ``coded`` inside [floor, ceiling).

    Causal paths may start in x_set but never pass through it, so the walk
    back from y runs without the edges into x_set. ``floor`` may cut off
    nodes earlier than every treatment: none heads a treatment edge.
    """
    period, parents = coded.period, coded.parents
    into_x = {e for x in x_set for off in parents[x % period] for e in ((x, x + off), (x + off, x))}
    reach = _reach(coded, (y,), parents, floor, ceiling, into_x)
    return {e for head in reach - x_set for off in parents[head % period] if head + off in x_set
            for e in ((head + off, head), (head, head + off))}


def cut_causal_edges(g: DirectedMixedGraph, query: EffectQuery) -> DirectedMixedGraph:
    """Remove every outgoing treatment edge that starts a causal path to y."""
    for v in (query.y, *query.x_set):
        if not g.has_node(v):
            raise GraphError(
                f"node {v!r} missing from window; build a wider window")
    index = g._index
    cut = _causal_cut(g._coded, index[query.y], frozenset(index[x] for x in query.x_set),
                      0, len(g.nodes))
    directed = [(t, h, c) for (t, h), c in g.directed.items() if (index[t], index[h]) not in cut]
    return DirectedMixedGraph(g.nodes, directed, g.bidirected)


def _deepening_separation(spec: VarmaSpec, query: SeparationQuery,
                          nodes: Sequence[TimedNode], top: int,
                          t_min: Optional[int], cut: Optional[EffectQuery] = None):
    """m-separation on marginalized windows [bottom, top] of deepening bottom.

    The bottom starts at ``t_min`` (default: earliest of ``nodes`` minus
    (max(p,q)+1)·(d+1), never above the earliest node) and moves down by
    max(p,q,1) lags until two consecutive verdicts agree, for at most
    MAX_STABILIZATION_ROUNDS windows. With ``cut`` set, the causal edges of
    that effect query are removed first. No window is built: no edge points
    back in time, so An(a ∪ b ∪ c) in a window is the ancestor closure over
    the compiled incidence cut at its bottom code, and one Bayes-ball pass,
    extended as the bottom drops (see ``graphs._connection``), decides every
    round. The witness is searched on the last window only. Each window is
    an induced subgraph of the next and An(b) only grows, so a path open in
    one window is open in all deeper ones: verdicts never turn back from
    connected, and at most three rounds run (separated, connected, connected).

    Returns (SeparationResult, (bottom, top) of the last window, stabilized).
    """
    admg = spec._admg
    nodes = process_nodes(nodes, spec.d)
    codes = tuple(tuple(map(admg.code, s)) for s in (query.a, query.b, query.c))
    ceiling = (top + 1) * spec.d
    removed = frozenset()
    if cut is not None:
        removed = _causal_cut(admg, admg.code(cut.y), frozenset(map(admg.code, cut.x_set)),
                              min(v.time for v in cut.x_set) * spec.d, ceiling)
    earliest = min(v.time for v in nodes)
    if t_min is None:
        t_min = earliest - (spec.max_lag + 1) * (spec.d + 1)
    lag, start = max(spec.max_lag, 1), min(t_min, earliest)
    bottoms = range(start, start - MAX_STABILIZATION_ROUNDS * lag, -lag)
    rounds = _connection(admg, codes, (t * spec.d for t in bottoms), ceiling, removed)
    previous, stabilized = None, False
    for bottom, connection in zip(bottoms, rounds):
        if previous is not None and previous == (connection is None):
            stabilized = True
            break
        previous = connection is None
    return _result(admg, codes, removed, connection, admg.node), (bottom, top), stabilized


def stable_marginal_separation(spec: VarmaSpec, query: SeparationQuery,
                               t_min: Optional[int] = None):
    """m-separation in the full-time marginalized ADMG via deepening windows.

    Runs on the spec's compiled marginalized ADMG. Open paths never rise
    above the latest query time, so the window top is exact; the bottom
    starts at ``t_min`` (default: earliest query time minus
    (max(p,q)+1)·(d+1)) and moves down by max(p,q,1) lags until the verdict
    agrees twice in a row: a connecting path stays open in deeper windows,
    so that takes at most three windows. For stationary processes some finite
    depth always suffices, but no constructive bound is available, so the
    returned ``stabilized`` flag records that this is a heuristic stopping
    rule: a separated verdict may still turn connected deeper down. The
    verdict and witness equal :func:`~varma_causal.graphs.m_separated` on
    ``marginalized_admg_window(spec, *window)``.

    Returns (SeparationResult, (t_min_used, t_max_used), stabilized).
    """
    nodes = (*query.a, *query.b, *query.c)
    return _deepening_separation(spec, query, nodes, max(v.time for v in nodes), t_min)


def _json_value(value):
    """A result field in its JSON form: nodes by ``node_to_json``, tuples and
    arrays as lists, nested results as their field dicts."""
    if isinstance(value, TimedNode):
        return node_to_json(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return _field_dict(value) if is_dataclass(value) else value


def _field_dict(result) -> dict:
    """A result's fields by name in declaration order, in their JSON form."""
    return {f.name: _json_value(getattr(result, f.name)) for f in fields(result)}


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

    to_dict = _field_dict


def _query_sets(y, x_set, i_set, b_set):
    """x, i and b as tuples: x and i non-empty, no node twice, y in none."""
    x_set, i_set, b_set = sets = tuple(x_set), tuple(i_set), tuple(b_set)
    if not x_set or not i_set:
        raise ModelError("x and i sets must be non-empty")
    seen = {y}
    for v in (*x_set, *i_set, *b_set):
        if v in seen:
            raise ModelError(f"node {v!r} appears in more than one query set")
        seen.add(v)
    return sets


def _iv_report(spec: VarmaSpec, y: TimedNode, x_set, i_set, b_set,
               rank: int) -> IvConditionReport:
    """Conditions 1 and 2 on the marginalized ADMG, with the rank of
    E[Cov(X, I | B)] (condition 3) computed by the caller."""
    nodes = (y, *x_set, *i_set, *b_set)
    result, (bottom, top), stabilized = _deepening_separation(
        spec, SeparationQuery(i_set, b_set, (y,)), nodes,
        max(v.time for v in nodes) + spec.q, None, cut=EffectQuery(y, x_set))

    # condition 2 on the uncut last window: An(b) ∩ Sp(De(x ∪ y)), where Sp
    # adds one bi-directed step and keeps the nodes themselves
    admg = spec._admg
    floor, ceiling = bottom * spec.d, (top + 1) * spec.d
    an_b = _reach(admg, map(admg.code, b_set), admg.parents, floor, ceiling)
    de = _reach(admg, map(admg.code, (y, *x_set)), admg.children, floor, ceiling)
    sp_de = de | {v + off for v in de for off in admg.spouses[v % spec.d]
                  if floor <= v + off < ceiling}
    confounding_free = not (an_b & sp_de)
    rank_ok = rank == len(x_set)

    return IvConditionReport(
        instrument_separated=result.separated,
        confounding_free=confounding_free,
        rank=rank,
        rank_ok=rank_ok,
        under_identified=len(x_set) > len(i_set),
        all_hold=result.separated and confounding_free and rank_ok,
        window_used=(bottom, top),
        stabilized=stabilized,
        witness=result.witness,
    )


def check_iv_conditions(
    spec: VarmaSpec,
    y: TimedNode,
    x_set: Sequence[TimedNode],
    i_set: Sequence[TimedNode],
    b_set: Sequence[TimedNode] = (),
) -> IvConditionReport:
    """Evaluate the three identification conditions on the marginalized ADMG.

    Conditions 1 and 2 run on the spec's compiled marginalized ADMG.
    Condition 1 uses the deepening-window heuristic of
    :func:`stable_marginal_separation` after cutting the causal treatment
    edges, on windows topped out q lags above the query. Condition 2 is read
    off the last of those windows, uncut; it is exact there, because spouse
    pairs span at most q lags and ancestors of b are bounded by b's times.
    Condition 3 compares the numerical rank of E[Cov(X, I | B)] (singular
    values above 1e-8 of the largest) with dim(X).
    """
    x_set, i_set, b_set = _query_sets(y, x_set, i_set, b_set)
    rank = numerical_rank(conditional_covariance(solve_stationary(spec), x_set, i_set, b_set))
    return _iv_report(spec, y, x_set, i_set, b_set, rank)
