"""Reference implementations, kept apart from the library as test oracles.

``m_separated_oracle`` enumerates simple paths and ``d_separated_moral``
applies the moralized-ancestral-graph criterion. Of the library's separation
core they share only the ancestor sets of ``DirectedMixedGraph``; the edges
at a node come from ``edges_at``, which reads the public edge sets, not the
library's coded incidence.

``cut_causal_edges`` removes the causal treatment edges of an effect query
from a finite window graph, through the library's ``_causal_cut`` on the
window's one-slice coding; the IV tests compare the compiled cut against it.

``window_pass`` is one window of the deepening loop: a fresh pass of the
library's ``_connection`` on the window, from scratch, and
``window_separation`` its verdict and witness.
``deepening_separation`` is the window-deepening loop as it ran before one
Bayes-ball pass served all of a query's windows: that fresh pass on each
window, until two verdicts agree or for at most ``DEEPENING_ROUNDS`` windows.

The proof devices of the global Markov property, which the library's
answers never call, live here too: ``augmented_graph`` (the library's
``augment`` pairs as an ``UndirectedGraph``), ``extend_separated_sets``,
``is_m_connecting_path``, ``subgraph`` and ``adjacent`` on a
``DirectedMixedGraph``, and ``embed_as_var``, the VARMA process as a
doubled-dimension VAR.

``autocovariances_by_recursion`` is the n x n recursion from which the
stationary law read its autocovariances before it kept one lag table, and
``schur_complement_by_eigh`` the Schur step before it took one conditioning
node without ``eigh`` or skipped the mask copies when it keeps every
eigenvalue. ``population_ci_by_cross_covariance`` is the CI verdict as it ran
before it gathered Python floats from the lag rows: the numpy gather of
``cross_covariance``, that Schur step for every B, the empty one included,
and the same verdict loop.

``instantaneous_order_by_columns`` and ``ice_matrix_by_columns`` are the
topological order and total instantaneous effects as they ran before the
Kahn pass read its children once: one ``flatnonzero`` per column of A0, on
every visit, and one numpy row update per edge of the substitution.

``iv_report_walking_every_b`` is the IV report as it ran before condition 2
skipped its walk for an empty B: De(x ∪ y) and its spouses are walked for
every B.

``ma_delta`` and ``sigma_delta`` are the rewrite's loadings against
delta_t = C eps_t and Var(delta_t), which the library no longer forms.
``admg_records_by_window`` compiles a marginalized ADMG form's slice records
as the library did before it read them off the coefficient supports: the
window [-max(p,q), max(p,q)] of ``TimedNode`` edges, cut to the edges at
slice 0, through ``graphs._incidence``. ``sample_stable_spec_by_tril`` is the
coefficient sampler before its numpy calls were trimmed.

``exact_lyapunov`` solves X = F X F^T + Q in rationals by the Kronecker
system (I - F kron F) vec X = vec Q, and ``exact_state_covariance`` builds
the library's companion state of a rational spec and solves it that way, on
the whole state and without any float arithmetic.

``estimate_from_data`` is the row-major IV estimator the library used before
it built its design one node row at a time: an n x k design, centred into a
copy, residualized one block at a time. It shares only the weighted solve and
the rank routine with the library.
"""

import math
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from varma_causal import effects
from varma_causal.errors import EstimationError, GraphError, ModelError
from varma_causal.graphs import (
    ENDOGENOUS, DirectedMixedGraph, SeparationQuery, TimedNode, _connection, _first_steps,
    _incidence, _kahn_order, _reach, _result, augment, endo, m_separated, sorted_nodes)
from varma_causal.model import VarmaSpec, remove_instantaneous
from varma_causal.simulation import CoefficientSampler
from varma_causal.iv import IvQuery, IvResult, _weighted_solve
from varma_causal.stationary import (CI_DEFAULT_TOL, LYAPUNOV_MAX_DOUBLINGS, PINV_RTOL,
                                     CiVerdict, cross_covariance, numerical_rank)


# windows tried by ``deepening_separation`` before it gives up; the library
# stops by the third, which the tests check against this cap
DEEPENING_ROUNDS = 12


class UndirectedGraph:
    """Plain undirected graph used for moralization/augmentation results."""

    def __init__(self, nodes, edges):
        self.nodes = sorted_nodes(nodes)
        self.edges = frozenset(frozenset(e) for e in edges)
        self._adj = {v: set() for v in self.nodes}
        for pair in self.edges:
            v, w = tuple(pair)
            self._adj[v].add(w)
            self._adj[w].add(v)

    def has_edge(self, v, w) -> bool:
        return frozenset((v, w)) in self.edges

    def separated(self, a, c, b) -> bool:
        """True iff no path from ``a`` to ``c`` avoids ``b``."""
        a, c, b = set(a), set(c), set(b)
        queue = deque(v for v in a if v not in b)
        seen = set(queue)
        while queue:
            v = queue.popleft()
            if v in c:
                return False
            for w in self._adj[v]:
                if w not in seen and w not in b:
                    seen.add(w)
                    queue.append(w)
        return True

    def connected_components(self, exclude=()) -> list[tuple]:
        exclude = set(exclude)
        out, seen = [], set(exclude)
        for start in self.nodes:
            if start in seen:
                continue
            comp, queue = {start}, deque([start])
            seen.add(start)
            while queue:
                v = queue.popleft()
                for w in self._adj[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        queue.append(w)
            out.append(sorted_nodes(comp))
        return out


def augmented_graph(g: DirectedMixedGraph) -> UndirectedGraph:
    """The augmented graph of ``g``, on the library's ``augment`` pairs."""
    return UndirectedGraph(g.nodes, augment(g))


def subgraph(g: DirectedMixedGraph, keep) -> DirectedMixedGraph:
    """The subgraph of ``g`` induced by ``keep``, coefficients kept."""
    keep = frozenset(keep)
    g._codes(keep)  # unknown nodes raise GraphError
    directed = [(t, h, c) for (t, h), c in g.directed.items() if t in keep and h in keep]
    return DirectedMixedGraph(keep, directed, [pair for pair in g.bidirected if pair <= keep])


def adjacent(g: DirectedMixedGraph, v: TimedNode, w: TimedNode) -> bool:
    return (v, w) in g.directed or (w, v) in g.directed or frozenset((v, w)) in g.bidirected


def is_m_connecting_path(g: DirectedMixedGraph, path, b) -> bool:
    """Check a concrete node path for m-connectivity given ``b``.

    With parallel edges the open orientation is preferred at each step, so a
    True result certifies at least one open edge realization of the path.
    """
    b_set = set(b)
    an_b = set(g.ancestors(tuple(b_set))) if b_set else set()
    if len(path) < 2 or len(set(path)) != len(path):
        return False

    def step_options(v, w):
        opts = []
        if (v, w) in g.directed:
            opts.append((False, True))
        if (w, v) in g.directed:
            opts.append((True, False))
        if frozenset((v, w)) in g.bidirected:
            opts.append((True, True))
        return opts

    # entry flags reachable at each step: a collider is open iff it is in
    # An(b), a non-collider iff it is not in b
    flags = {f_w for (_, f_w) in step_options(path[0], path[1])}
    if not flags:
        return False
    for v, w in zip(path[1:], path[2:]):
        nxt = set()
        for entered in flags:
            for head_v, head_w in step_options(v, w):
                if (v in an_b) if entered and head_v else (v not in b_set):
                    nxt.add(head_w)
        if not nxt:
            return False
        flags = nxt
    return True


def extend_separated_sets(g: DirectedMixedGraph, query: SeparationQuery):
    """Extend separated (a, c) to fill the node set while staying separated.

    Requires the graph nodes to equal the ancestor closure of the query and
    the query to be separated. Components of the augmented graph minus ``b``
    containing ``a`` go to the first returned set, those containing ``c`` to
    the second; leftover components join the first for determinism.
    """
    closure = g.ancestors((*query.a, *query.b, *query.c))
    if set(closure) != set(g.nodes):
        raise GraphError("extend_separated_sets requires nodes == "
                         "ancestors(a ∪ b ∪ c)")
    if not m_separated(g, query).separated:
        raise GraphError("extend_separated_sets requires a separated query")
    a_set, c_set = set(query.a), set(query.c)
    a_plus, c_plus = set(), set()
    for comp in augmented_graph(g).connected_components(exclude=query.b):
        comp_set = set(comp)
        if comp_set & a_set:
            a_plus |= comp_set
        elif comp_set & c_set:
            c_plus |= comp_set
        else:
            a_plus |= comp_set
    return sorted_nodes(a_plus), sorted_nodes(c_plus)


def embed_as_var(spec: VarmaSpec) -> VarmaSpec:
    """Embed the VARMA(p,q) as a 2d-dimensional VAR(max(p,q)) on (S_t, eps_t).

    The first d components follow the original process, the last d reproduce
    the innovations; their own innovations are degenerate at zero (variance
    exactly 0, flagged by validate, accepted by the stationary solver). The
    instantaneous block carries A0 together with the unit loading of eps_t on
    S_t, so the embedded full-time DAG is the VARMA full-time DAG.
    """
    remove_instantaneous(spec)  # validates the spec
    d, p, q = spec.d, spec.p, spec.q
    zero = np.zeros((d, d))
    c0 = np.block([[spec.a[0], np.eye(d)], [zero, zero]])
    lags = []
    for k in range(1, max(p, q) + 1):
        ak = spec.a[k] if k <= p else zero
        bk = spec.b[k - 1] if k <= q else zero
        lags.append(np.block([[ak, bk], [zero, zero]]))
    gamma = np.concatenate([np.zeros(d), spec.gamma])
    names = None
    if spec.names:
        names = [*spec.names, *[f"eps({n})" for n in spec.names]]
    return VarmaSpec([c0, *lags], (), gamma, names=names)


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
    ancestral = subgraph(g, g.ancestors((*query.a, *query.b, *query.c)))
    return moralize(ancestral).separated(query.a, query.c, query.b)


def cut_causal_edges(g: DirectedMixedGraph, query) -> DirectedMixedGraph:
    """Remove every outgoing treatment edge that starts a causal path to y."""
    for v in (query.y, *query.x_set):
        if v not in g._index:
            raise GraphError(
                f"node {v!r} missing from window; build a wider window")
    index = g._index
    cut = effects._causal_cut(g._coded, index[query.y],
                              frozenset(index[x] for x in query.x_set), 0, len(g.nodes))
    directed = [(t, h, c) for (t, h), c in g.directed.items() if (index[t], index[h]) not in cut]
    return DirectedMixedGraph(g.nodes, directed, g.bidirected)


def _coded_window_query(spec, query: SeparationQuery, top: int, cut):
    """The codes of the query's sets, the window ceiling and the code pairs
    of the causal edges of ``cut`` removed, as ``effects._deepening_separation``
    computes them."""
    admg = spec._admg
    codes = tuple(tuple(map(admg.code, s)) for s in (query.a, query.b, query.c))
    ceiling = (top + 1) * spec.d
    removed = frozenset()
    if cut is not None:
        removed = effects._causal_cut(
            admg, admg.code(cut.y), frozenset(map(admg.code, cut.x_set)),
            min(v.time for v in cut.x_set) * spec.d, ceiling)
    return codes, ceiling, removed


def window_pass(spec, query: SeparationQuery, bottom: int, top: int, cut=None):
    """What a fresh pass of ``_connection`` yields on the one marginalized
    window [bottom, top] of the spec's compiled ADMG, with the causal edges
    of the effect query ``cut`` removed when given: the reachability table
    when connected, None when separated with a state parked under the
    bottom, False when separated with none parked."""
    admg = spec._admg
    codes, ceiling, removed = _coded_window_query(spec, query, top, cut)
    starts = _first_steps(admg, codes[0], removed)
    return next(_connection(admg, codes, starts, (bottom * spec.d,), ceiling, removed))


def window_separation(spec, query: SeparationQuery, bottom: int, top: int, cut=None):
    """m-separation on the one marginalized window [bottom, top], from
    :func:`window_pass`."""
    admg = spec._admg
    codes, _, removed = _coded_window_query(spec, query, top, cut)
    return _result(admg, codes, removed, window_pass(spec, query, bottom, top, cut), admg.node)


def deepening_separation(spec, query: SeparationQuery, nodes, top: int,
                         t_min: Optional[int], cut=None):
    """``effects._deepening_separation`` with a fresh pass per window.

    Returns (SeparationResult, (bottom, top) of the last window,
    depth_certified, the separated verdict of each window in turn), where
    depth_certified holds when the verdicts agreed twice within
    ``DEEPENING_ROUNDS`` windows and the last window is connected or its
    pass parked nothing.
    """
    admg = spec._admg
    codes, ceiling, removed = _coded_window_query(spec, query, top, cut)
    earliest = min(v.time for v in nodes)
    if t_min is None:
        t_min = earliest - (spec.max_lag + 1) * (spec.d + 1)
    lag = max(spec.max_lag, 1)
    bottom = min(t_min, earliest) + lag
    verdicts, stabilized = [], False
    for _ in range(DEEPENING_ROUNDS):
        bottom -= lag
        connection = window_pass(spec, query, bottom, top, cut)
        verdicts.append(not connection)
        if verdicts[-2:] == [verdicts[-1]] * 2:
            stabilized = True
            break
    result = _result(admg, codes, removed, connection, admg.node)
    return result, (bottom, top), stabilized and connection is not None, verdicts


def lyapunov_doubling_by_difference(f, q):
    """Smith doubling with the difference stop: done once the Frobenius norm
    of the new sum minus the old is at most 1e-12 of the new sum's. Returns
    the solution and the number of doublings."""
    sigma, a = q.copy(), f.copy()
    for iterations in range(1, LYAPUNOV_MAX_DOUBLINGS + 1):
        nxt = sigma + a @ sigma @ a.T
        a = a @ a
        done = np.linalg.norm(nxt - sigma, "fro") <= 1e-12 * np.linalg.norm(nxt, "fro")
        sigma = nxt
        if done:
            break
    return (sigma + sigma.T) / 2.0, iterations


def schur_complement_by_eigh(joint: np.ndarray, nb: int):
    """The library's Schur step as it ran for every non-empty B before it
    took one B node without ``eigh``: S_AC - (S_AB V_k / w_k)(V_k' S_BC)
    over the eigenvalues w_k of S_BB above PINV_RTOL of the largest, and
    the mask of those kept."""
    na = len(joint) - nb
    w, v = np.linalg.eigh(joint[na:, :nb])
    kept = abs(w) > PINV_RTOL * abs(w).max()
    v = v[:, kept]
    scaled = joint[:na, :nb] @ v * (1 / w[kept])
    return joint[:na, nb:] - scaled @ (v.T @ joint[na:, nb:]), kept


def population_ci_by_cross_covariance(ss, query: SeparationQuery,
                                      tol: float = CI_DEFAULT_TOL) -> CiVerdict:
    """``population_ci`` by the numpy gather of ``cross_covariance`` of the
    (A ∪ C ∪ B) x (B ∪ A ∪ C) nodes, ``schur_complement_by_eigh`` for a
    non-empty B, and the library's verdict loop in Python floats."""
    stacked, b = (*query.a, *query.c), query.b
    joint = cross_covariance(ss, (*stacked, *b), (*b, *stacked))
    cond = (schur_complement_by_eigh(joint, len(b))[0] if b else joint).tolist()
    uncond = ss.autocov(0).diagonal().tolist()
    na, tiny = len(query.a), float(np.finfo(float).tiny)
    degenerate_node = [cond[k][k] <= 1e-10 * max(uncond[v.component], tiny)
                       for k, v in enumerate(stacked)]
    degenerate, max_corr, independent = False, 0.0, True
    for i in range(na):
        for j in range(na, len(stacked)):
            if degenerate_node[i] or degenerate_node[j]:
                degenerate = True
                continue
            corr = abs(cond[i][j]) / math.sqrt(cond[i][i] * cond[j][j])
            max_corr = max(max_corr, corr)
            if corr >= tol:
                independent = False
    return CiVerdict(independent, max_corr, degenerate, tol)


def instantaneous_order_by_columns(a0: np.ndarray):
    """Topological order of the support of A0, children read by one
    ``flatnonzero`` per column on every visit; None on a cycle."""
    d = a0.shape[0]
    order = _kahn_order(range(d), lambda j: np.flatnonzero(a0[:, j]).tolist(), int)
    return order if len(order) == d else None


def ice_matrix_by_columns(a0: np.ndarray) -> np.ndarray:
    """(I - A0)^(-1) by forward substitution in ``instantaneous_order_by_columns``
    order, with the library's errors."""
    a0 = np.asarray(a0, dtype=float)
    d = a0.shape[0]
    if np.any(np.diag(a0) != 0):
        raise ModelError("diag(A0) must be zero")
    order = instantaneous_order_by_columns(a0)
    if order is None:
        raise ModelError("instantaneous effect graph has a cycle")
    ice = np.zeros((d, d))
    for i in order:
        ice[i, i] = 1.0
        for j in np.nonzero(a0[i])[0]:
            ice[i] += a0[i, j] * ice[j]
    return ice


def iv_report_walking_every_b(spec: VarmaSpec, y, x_set, i_set, b_set, rank: int):
    """``effects._iv_report`` with the condition-2 walk run for every b."""
    nodes = (y, *x_set, *i_set, *b_set)
    result, (bottom, top), depth_certified = effects._deepening_separation(
        spec, SeparationQuery(i_set, b_set, (y,)), nodes,
        max(v.time for v in nodes) + spec.q, None, cut=effects.EffectQuery(y, x_set))
    admg = spec._admg
    floor, ceiling = bottom * spec.d, (top + 1) * spec.d
    an_b = _reach(admg, map(admg.code, b_set), admg.parents, floor, ceiling)
    de = _reach(admg, map(admg.code, (y, *x_set)), admg.children, floor, ceiling)
    sp_de = de | {v + off for v in de for off in admg.spouses[v % spec.d]
                  if floor <= v + off < ceiling}
    confounding_free = not (an_b & sp_de)
    return effects.IvConditionReport(
        instrument_separated=result.separated, confounding_free=confounding_free, rank=rank,
        rank_ok=rank == len(x_set), under_identified=len(x_set) > len(i_set),
        all_hold=result.separated and confounding_free and rank == len(x_set),
        window_used=(bottom, top), depth_certified=depth_certified, witness=result.witness)


def ma_delta(spec: VarmaSpec) -> tuple:
    """C Bl C^(-1), the MA loadings of the rewrite against delta_t = C eps_t."""
    inv_ice = np.eye(spec.d) - spec.a[0]
    return tuple(remove_instantaneous(spec).ice @ bl @ inv_ice for bl in spec.b)


def sigma_delta(spec: VarmaSpec) -> np.ndarray:
    """Var(delta_t) = C Gamma C^T of the rewrite's innovations delta_t = C eps_t."""
    ice = remove_instantaneous(spec).ice
    return ice @ np.diag(spec.gamma) @ ice.T


def admg_records_by_window(spec: VarmaSpec, rewritten: bool = False) -> tuple:
    """Slice-0 records of a marginalized ADMG form, read off the window
    [-max(p,q), max(p,q)], which holds every neighbour of slice 0."""
    admg = spec._rewritten_admg if rewritten else spec._admg
    _, directed, bidirected = admg.window(-spec.max_lag, spec.max_lag)
    return _incidence([endo(i, 0) for i in range(spec.d)],
                      [(t, h) for t, h, _ in directed if 0 in (t.time, h.time)],
                      [(v, w) for v, w in bidirected if 0 in (v.time, w.time)],
                      admg.code)


def sample_stable_spec_by_tril(sampler: CoefficientSampler, seed) -> VarmaSpec:
    """The library's rejection sampler with ``np.tril``, ``np.ix_`` and a
    fresh product per sparsity mask: the draws every later sampler must keep."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    c = sampler.entry_scale()
    d = sampler.d

    def draw(shape):
        out = rng.uniform(-c, c, shape)
        if sampler.sparsity > 0:
            out = out * (rng.random(shape) >= sampler.sparsity)
        return out

    for _ in range(sampler.max_rejections + 1):
        tri = np.tril(draw((d, d)), -1)
        perm = rng.permutation(d)
        a0 = np.zeros((d, d))
        a0[np.ix_(perm, perm)] = tri
        if sampler.mask_a0 is not None:
            a0 = a0 * sampler.mask_a0
        ars = [draw((d, d)) for _ in range(sampler.p)]
        if sampler.mask_ar is not None:
            ars = [m * mask for m, mask in zip(ars, sampler.mask_ar)]
        mas = [draw((d, d)) for _ in range(sampler.q)]
        if sampler.mask_ma is not None:
            mas = [m * mask for m, mask in zip(mas, sampler.mask_ma)]
        gamma = rng.uniform(0.5, 2.0, d)
        spec = VarmaSpec([a0, *ars], mas, gamma)
        try:
            remove_instantaneous(spec)
        except ModelError:
            continue
        return spec
    raise ModelError(
        f"no stable draw in {sampler.max_rejections + 1} draws; "
        f"reduce the coefficient scale (current {c:.4g})")


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


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def mat_add(*ms):
    return [[sum(vals, Fraction(0)) for vals in zip(*rows)] for rows in zip(*ms)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def solve_exact(m, rhs):
    """Gauss-Jordan elimination over Fractions: the exact x with m x = rhs."""
    n = len(m)
    rows = [list(row) + [r] for row, r in zip(m, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def exact_lyapunov(f, q):
    """The X with X = F X F^T + Q, from (I - F kron F) vec X = vec Q."""
    n = len(f)
    idx = [(i, j) for i in range(n) for j in range(n)]
    system = [[int(r == c) - f[i][k] * f[j][l] for c, (k, l) in enumerate(idx)]
              for r, (i, j) in enumerate(idx)]
    flat = solve_exact(system, [q[i][j] for i, j in idx])
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def exact_state_covariance(a, b, gamma):
    """Sigma_z of ``StateSpaceForm`` for rational A0..Ap, B1..Bq and gamma.

    With C = (I - A0)^(-1) and P = max(p, 1), the state (S_t..S_(t-P+1),
    eps_t..eps_(t-q+1)) moves by F: first block row C A1..C Ap (0 if p = 0)
    and C B1..C Bq, identity shifts inside the S blocks and inside the eps
    blocks; eps_t loads through G = (C, 0, .., 0, I, 0, .., 0). The whole
    state is solved by :func:`exact_lyapunov`.
    """
    d, p, q = len(gamma), len(a) - 1, len(b)
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    minus_a0 = mat_add(eye, [[-x for x in row] for row in a[0]])
    c = transpose([solve_exact(minus_a0, col) for col in eye])
    ar = [mat_mul(c, ak) for ak in a[1:]] or [[[Fraction(0)] * d for _ in range(d)]]
    blocks, n = len(ar), d * (len(ar) + q)
    f = [[Fraction(0)] * n for _ in range(n)]
    g = [[Fraction(0)] * d for _ in range(n)]
    for k, m in enumerate([*ar, *(mat_mul(c, bl) for bl in b)]):
        for i in range(d):
            f[i][k * d:(k + 1) * d] = m[i]
    for start, count in ((0, blocks), (blocks * d, q)):
        for i in range(d * (count - 1)):
            f[start + d + i][start + i] = Fraction(1)
    for i in range(d):
        g[i] = c[i]
        if q:
            g[blocks * d + i][i] = Fraction(1)
    sigma = [[gamma[i] * int(i == j) for j in range(d)] for i in range(d)]
    return exact_lyapunov(f, mat_mul(mat_mul(g, sigma), transpose(g)))


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
    beta, residual, _ = _weighted_solve(np.vstack((s_yi, s_xi)), query.weight)
    return IvResult(beta, residual, None, int(n_eff))


def fisher_z_pvalue(data: np.ndarray, a: TimedNode, c: TimedNode,
                    b: Sequence[TimedNode] = ()) -> float:
    """Fisher-z test of a ⫫ c | b from the OLS residuals of a row-major design.

    The two columns are residualized on the centred b columns with
    ``np.linalg.lstsq``, which cuts singular values only at machine precision.
    """
    design = lagged_design(data, (a, c, *b))
    design = design - design.mean(axis=0)
    controls = design[:, 2:] if b else None
    xa, xc = _residualize(design[:, :2], controls).T
    denom = math.sqrt(float(xa @ xa) * float(xc @ xc))
    dof = design.shape[0] - len(b) - 3
    if denom == 0 or dof <= 0:
        return 1.0
    r = max(-0.999999999, min(0.999999999, float(xa @ xc) / denom))
    stat = math.sqrt(dof) * abs(math.atanh(r))
    return 2.0 * (1.0 - 0.5 * (1.0 + math.erf(stat / math.sqrt(2.0))))
