"""Total causal effects and the graph-side conditions for IV identification.

A causal path starts in the treatment set, never revisits it, and runs along
directed endogenous edges only; the total effect is the sum over such paths of
the products of edge coefficients, read off the structural impulse responses
of the rewrite by one linear solve, with no window graph. Separation has no
constructive window bound; one window-deepening loop serves both
``stable_marginal_separation`` and the instrument condition, and reports
carry the window actually used and whether the verdict is certified for the
infinite graph. The loop builds no window graph: it runs the
integer-coded separation core of ``graphs`` on the spec's compiled incidence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .graphs import (
    SeparationQuery,
    SeparationResult,
    TimedNode,
    _connection,
    _junction_open,
    _reach,
    _result,
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


def _short_witness(coded, query, cut, floor: int, deep: int, ceiling: int):
    """The codes of the witness of one or two edges that ``graphs._result``
    finds on every window of ``coded`` from [floor, ceiling) down to [deep,
    ceiling), or None when the witness is longer or its middle node lies
    under ``floor``. The scan runs in the search's order: the first steps of
    the a codes as ``_connection`` lists them, an a–c edge first (budget 0),
    then the edges on from a neighbour of c (budget 1), without the edges in
    ``cut``. A middle node m is open by ``_junction_open``; An(b), needed
    only when m is a collider, is taken inside [deep, ceiling). That is
    exact at m, because no edge points back in time and the caller's
    ``deep`` lies an edge span below every a code.
    """
    a, b, c = query
    c_set, period, records = set(c), coded.period, coded.records
    steps = [(u, u + off, there) for u in a for off, here, there in records[u % period]
             if u + off not in a and not (here != there and (u, u + off) in cut)]
    for u, other, _ in steps:
        if other in c_set:
            return u, other
    near_c = {w + off for w in c for off, _, _ in records[w % period]}
    b_set, an_b = set(b), None
    for u, m, head_m in steps:
        if m not in near_c:
            continue
        for off, here, there in records[m % period]:
            w = m + off
            if w not in c_set or (here != there and (m, w) in cut):
                continue
            if head_m and here and an_b is None:
                an_b = _reach(coded, b, coded.parents, deep, ceiling, cut)
            if _junction_open(m, head_m, here, b_set, an_b):
                # a middle node under the floor: a deeper window's witness, not the first's
                return (u, m, w) if m >= floor else None
    return None


def _deepening_separation(spec: VarmaSpec, query: SeparationQuery,
                          nodes: Sequence[TimedNode], top: int,
                          t_min: Optional[int], cut: Optional[EffectQuery] = None):
    """m-separation on marginalized windows [bottom, top] of deepening bottom.

    The bottom starts at ``t_min`` (default: earliest of ``nodes`` minus
    (max(p,q)+1)·(d+1), never above the earliest node) and moves down by
    lag = max(p,q,1) until two consecutive verdicts agree. With ``cut`` set,
    the causal edges of that effect query are removed first. No window is
    built: no edge points back in time, so whether a node of a window is in
    its An(b) or An(a ∪ b ∪ c) does not depend on the window's bottom, and
    one Bayes-ball pass, extended as the bottom drops (see
    ``graphs._connection``), decides every round. Each window is an induced
    subgraph of the next and An(b) only grows, so a path open in one window
    is open in all deeper ones: verdicts never turn back from connected, and
    three windows always settle them. The witness is searched on the last
    window only, except in the early exits below. A path that leaves [s,
    top] falls and climbs earliest − s + 1 lags, so it has at least
    2·⌈(earliest − s + 1)/lag⌉ edges; a witness with fewer edges in window s
    is then the shortest in every deeper window, tie-break included (the
    bound is strict, so a path of equal length that dips cannot win the
    tie). Each exit reports the second window, as the confirming round
    would:

    - an a–c edge, not cut, is the witness, first in incidence order; no
      pass runs;
    - a two-edge witness whose middle node lies in the first window is the
      witness of every window from there down (see :func:`_short_witness`);
      no pass runs;
    - a separated window whose pass parked no state under its floor is
      separated in every deeper window (see ``graphs._connection``): the
      verdict is certified for the infinite graph;
    - a witness of under 4 edges in the shallow window s = earliest − lag,
      which the pass tries first when it lies above the first window;
    - a witness in the first window under that window's bound.

    The searches of the last two exits stop at their window's bound.

    Returns (SeparationResult, (bottom, top) of the last window,
    depth_certified): True for a connected verdict or a certified separated
    one, False for a separated verdict that only the stopping rule settled.
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
    # verdicts never turn back from connected, so three windows settle them
    bottoms = range(start, start - 3 * lag, -lag)
    reported = bottoms[1], top
    witness = _short_witness(admg, codes, removed, start * spec.d, bottoms[1] * spec.d, ceiling)
    if witness is not None:
        return SeparationResult(False, tuple(map(admg.node, witness))), reported, True
    floors = (earliest - lag, *bottoms) if earliest - lag > start else bottoms
    rounds = zip(floors, _connection(admg, codes, (t * spec.d for t in floors),
                                     ceiling, removed))
    for bottom, connection in rounds:
        if connection is False:
            return SeparationResult(True), reported, True
        if connection is not None:
            # a path below this window falls and climbs earliest - bottom + 1 lags
            result = _result(admg, codes, removed, connection, admg.node,
                             2 * -(-(earliest - bottom + 1) // lag))
            if result is not None:
                return result, reported, True
        if bottom == start:
            break
    previous = not connection
    for bottom, connection in rounds:
        if previous == (not connection):
            break
        previous = not connection
    return (_result(admg, codes, removed, connection, admg.node), (bottom, top),
            connection is not None)


def stable_marginal_separation(spec: VarmaSpec, query: SeparationQuery,
                               t_min: Optional[int] = None):
    """m-separation in the full-time marginalized ADMG via deepening windows.

    Runs on the spec's compiled marginalized ADMG. Open paths never rise
    above the latest query time, so the window top is exact; the bottom
    starts at ``t_min`` (default: earliest query time minus
    (max(p,q)+1)·(d+1)) and moves down by max(p,q,1) lags until the verdict
    agrees twice in a row: a connecting path stays open in deeper windows,
    so that takes at most three windows. A connected query whose witness is
    too short to dip below the window it was found in is final at once, and
    the second window, which would find the same witness, is reported
    without being searched: a query with an edge between a and c, or with a
    two-edge witness inside the first window, runs no pass at all, and a
    witness of under 4 edges is found in the shallow window that reaches
    max(p,q,1) lags below the earliest query time. A separated verdict is
    final at once, and exact for the infinite graph, when the Bayes-ball
    pass parked no state below its window, so no deeper window can change
    it. Otherwise the separated verdict rests on the stopping rule: for
    stationary processes some finite depth always suffices, but no
    constructive bound is available here, so such a verdict may still turn
    connected deeper down.
    The verdict and witness equal :func:`~varma_causal.graphs.m_separated` on
    ``marginalized_admg_window(spec, *window)``.

    Returns (SeparationResult, (t_min_used, t_max_used), depth_certified),
    where ``depth_certified`` is True for a connected verdict and for a
    separated one certified as above, and False for a separated verdict
    that only the stopping rule settled.
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
    Condition 1 uses the deepening windows of
    :func:`stable_marginal_separation` after cutting the causal treatment
    edges, on windows topped out q lags above the query; ``depth_certified``
    says whether its verdict is exact for the infinite graph. Condition 2 is
    read off the last of those windows, uncut; it is exact there, because
    spouse pairs span at most q lags and ancestors of b are bounded by b's
    times, and it holds at once for an empty b, whose ancestor set is empty.
    Condition 3 compares the numerical rank of E[Cov(X, I | B)] (singular
    values above 1e-8 of the largest) with dim(X).
    """
    x_set, i_set, b_set = _query_sets(y, x_set, i_set, b_set)
    rank = numerical_rank(conditional_covariance(solve_stationary(spec), x_set, i_set, b_set))
    return _iv_report(spec, y, x_set, i_set, b_set, rank)
