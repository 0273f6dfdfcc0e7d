"""Total causal effects and the graph-side conditions for IV identification.

A causal path starts in the treatment set, never revisits it, and runs along
directed endogenous edges only; the total effect is the sum over such paths of
the products of edge coefficients, read off the structural impulse responses
of the rewrite by one linear solve, with no window graph. Separation in the
infinite graph, for ``stable_marginal_separation`` and the instrument
condition, is the window-deepening policy of ``graphs`` on the spec's
compiled incidence; reports carry the window used and whether the verdict
is certified for the infinite graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .graphs import (
    SeparationQuery,
    TimedNode,
    _reach,
    node_to_json,
    process_nodes,
)
from .model import VarmaSpec, companion_matrix, remove_instantaneous
from .stationary import conditional_covariance, numerical_rank, solve_stationary


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


def _causal_reach(coded, y: int, x_set: frozenset, floor: int, ceiling: int) -> set:
    """y and the codes in ``coded`` inside [floor, ceiling) with a causal path
    to y that passes no node of x_set: the walk back from y without the edges
    into x_set, which reaches treatments but never leaves them."""
    period, parents = coded.period, coded.parents
    into_x = {e for x in x_set for off in parents[x % period] for e in ((x, x + off), (x + off, x))}
    return _reach(coded, (y,), parents, floor, ceiling, into_x)


def total_causal_effect(spec: VarmaSpec, query: EffectQuery) -> TotalEffect:
    """Sum of path coefficients over causal paths from each treatment to y.

    The sum over all directed paths from S_j@s to S_i@t is the structural
    impulse response R_(t-s)[i, j] (0 for s > t): R_h = E1'·Φ^h·E1·C for Φ
    the companion matrix of the rewrite's lags C A1..C Ap, E1 its first d
    columns and C = (I - A0)^(-1), so R_0 = C and, for p = 0, R_h = 0 beyond
    it. Only the R_h at the time differences of the query nodes are formed,
    each from Φ^h by repeated squaring, so a treatment h lags back costs
    O(log h) products. Cut at their last treatment, the paths from x_k to y
    give R(x_k, y) = Σ_l R(x_k, x_l)·β_l, one solve whose matrix is unit
    triangular in causal order. A treatment with no causal path to y that
    avoids the other treatments, a later one included, gets an exact 0. The
    converse holds only while the path sums stay above the float range: a
    treatment with such a path reads 0.0 too once its impulse responses
    underflow, about 1,100 lags back on the worked VARMA(1,1) example
    (6.2e-299 at 1,000 lags).
    """
    y, *x_set = nodes = process_nodes((query.y, *query.x_set), spec.d)
    rw, admg, start = remove_instantaneous(spec), spec._admg, min(v.time for v in nodes)
    comp, d, responses = companion_matrix(rw.ar), spec.d, {0: rw.ice}
    for h in {t.time - x.time for x in x_set for t in (*x_set, y) if t.time > x.time}:
        responses[h] = (np.linalg.matrix_power(comp, h)[:d, :d] @ rw.ice if rw.ar
                        else np.zeros_like(rw.ice))
    sums = np.reshape([[responses[t.time - x.time][t.component, x.component]
                        if x.time <= t.time else 0.0 for t in (*x_set, y)] for x in x_set],
                      (len(x_set), len(x_set) + 1))  # R(x_k, t) for t in (*x_set, y)
    beta = np.linalg.solve(sums[:, :-1], sums[:, -1])
    reach = _causal_reach(admg, admg.code(y), frozenset(map(admg.code, x_set)),
                          start * spec.d, (y.time + 1) * spec.d)
    beta[[admg.code(x) not in reach for x in x_set]] = 0.0
    return TotalEffect(query, beta)


def _causal_cut(coded, y: int, x_set: frozenset, floor: int, ceiling: int) -> set:
    """Code pairs, in both orders, of the treatment edges that start a causal
    path to y (see :func:`_causal_reach`), in ``coded`` inside [floor, ceiling).
    ``floor`` may cut off nodes earlier than every treatment: none heads a
    treatment edge."""
    parents = coded.parents
    return {e for head in _causal_reach(coded, y, x_set, floor, ceiling) - x_set
            for off in parents[head % coded.period] if head + off in x_set
            for e in ((head + off, head), (head, head + off))}


def _deepening_separation(spec: VarmaSpec, query: SeparationQuery,
                          nodes: Sequence[TimedNode], top: int,
                          t_min: Optional[int], cut: Optional[EffectQuery] = None):
    """m-separation on marginalized windows [bottom, top], decided by
    ``graphs._CodedGraph._periodic_separation`` on the spec's compiled ADMG.
    The bottom starts at ``t_min`` (default: earliest of ``nodes`` minus
    (max(p,q)+1)·(d+1), never above the earliest node) and moves down by
    max(p,q,1) lags; with ``cut`` set, the causal edges of that effect query
    are removed first. Returns (SeparationResult, (bottom, top) of the
    reported window, depth_certified).
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
    result, bottom, depth_certified = admg._periodic_separation(
        codes, removed, earliest, min(t_min, earliest), max(spec.max_lag, 1), ceiling)
    return result, (bottom, top), depth_certified


def stable_marginal_separation(spec: VarmaSpec, query: SeparationQuery,
                               t_min: Optional[int] = None):
    """m-separation in the full-time marginalized ADMG via deepening windows.

    Runs on the spec's compiled marginalized ADMG. Open paths never rise
    above the latest query time, so the window top is exact; the bottom
    starts at ``t_min`` (default: earliest query time minus
    (max(p,q)+1)·(d+1)) and moves down by max(p,q,1) lags, for at most three
    windows. Which window settles the verdict, and why, is set out once at
    ``graphs._CodedGraph._periodic_separation``. The verdict and witness
    equal :func:`~varma_causal.graphs.m_separated` on
    ``marginalized_admg_window(spec, *window)``.

    Returns (SeparationResult, (t_min_used, t_max_used), depth_certified),
    where ``depth_certified`` is True for a verdict exact for the infinite
    graph: every connected one, and a separated one whose pass parked no
    state below its window. It is False for a separated verdict that only
    two agreeing windows settled; with no constructive depth bound here,
    such a verdict may still turn connected deeper down.
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
    ``under_identified`` flags dim(X) > dim(I). ``depth_certified`` says
    whether condition 1's verdict holds in the infinite graph, as in
    :func:`stable_marginal_separation`; the window bounds used are included
    because an uncertified verdict rests on the stopping rule.
    """

    instrument_separated: bool
    confounding_free: bool
    rank: int
    rank_ok: bool
    under_identified: bool
    all_hold: bool
    window_used: tuple[int, int]
    depth_certified: bool
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
    result, (bottom, top), depth_certified = _deepening_separation(
        spec, SeparationQuery(i_set, b_set, (y,)), nodes,
        max(v.time for v in nodes) + spec.q, None, cut=EffectQuery(y, x_set))

    # condition 2 on the uncut last window: An(b) ∩ Sp(De(x ∪ y)), where Sp
    # adds one bi-directed step and keeps the nodes themselves; An(∅) is empty
    confounding_free = True
    if b_set:
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
        depth_certified=depth_certified,
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
    Condition 1 is the separation of :func:`stable_marginal_separation`,
    after cutting the causal treatment edges, on windows topped out q lags
    above the query; ``depth_certified`` is as there. Condition 2 is
    read off the last of those windows, uncut; it is exact there, because
    spouse pairs span at most q lags and ancestors of b are bounded by b's
    times, and it holds at once for an empty b, whose ancestor set is empty.
    Condition 3 compares the numerical rank of E[Cov(X, I | B)] (singular
    values above 1e-8 of the largest) with dim(X).
    """
    x_set, i_set, b_set = _query_sets(y, x_set, i_set, b_set)
    rank = numerical_rank(conditional_covariance(solve_stationary(spec), x_set, i_set, b_set))
    return _iv_report(spec, y, x_set, i_set, b_set, rank)
