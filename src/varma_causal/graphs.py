"""Finite directed mixed graphs and graphical separation.

Graphs carry two edge sets: directed edges (optionally weighted by a real
coefficient) and bi-directed edges. A graph with an empty bi-directed set
behaves exactly like a DAG in every operation, so the same machinery covers
d-separation on DAGs and m-separation on ADMGs.

One separation core, on integer node codes (:class:`_CodedGraph`), serves
finite graphs and the periodic marginalized ADMG of a spec: ``_connection``
decides with one Bayes-ball pass over (node, entered-with-arrowhead) states
of the query's ancestral nodes, and ``_result`` searches a witness path only
when the query is connected. The augmented graph (``augment``) serves
``extend_separated_sets``; the reference deciders of the tests (path
enumeration, moralization) live outside the library.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import GraphError

ENDOGENOUS = "endogenous"
INNOVATION = "innovation"


class TimedNode(NamedTuple):
    """A node of a full-time graph: process component at a time offset."""

    component: int
    time: int
    kind: str = ENDOGENOUS


def endo(component: int, time: int) -> TimedNode:
    return TimedNode(component, time, ENDOGENOUS)


def innov(component: int, time: int) -> TimedNode:
    return TimedNode(component, time, INNOVATION)


def node_sort_key(v: TimedNode):
    # Reproducible ordering for every set-valued return.
    return (v.time, v.component, v.kind)


def sorted_nodes(nodes: Iterable[TimedNode]) -> tuple[TimedNode, ...]:
    return tuple(sorted(nodes, key=node_sort_key))


def node_label(v: TimedNode, names: Optional[list[str]] = None) -> str:
    name = names[v.component] if names else f"S{v.component}"
    if v.kind == INNOVATION:
        return f"e({name})@{v.time}"
    return f"{name}@{v.time}"


# Internal incident-edge record: (neighbor, head_here, head_there). The
# head_* flags say whether the edge carries an arrowhead at that endpoint;
# they are all a path algorithm needs to classify colliders.


def _kahn_order(nodes, children, key) -> tuple:
    """Topological order, smallest free node by ``key`` first; short on a cycle."""
    indeg = Counter(w for v in nodes for w in children(v))
    heap = sorted((key(v), v) for v in nodes if indeg[v] == 0)
    order = []
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (key(w), w))
    return tuple(order)


class _CodedGraph:
    """Integer-coded incidence of a graph that repeats every ``period`` codes.

    Node i of time slice t has code t·period + i; floor ``//`` and ``%``
    decode it, negative times included. ``records[i]`` lists the edges at
    node i of slice 0 as (offset to the neighbour's code, arrowhead here,
    arrowhead there) in incidence order, which breaks witness ties. Split off
    once: ``entering[h][i]``, the (offset, arrowhead there) of the edges with
    arrowhead flag h at node i, for the reverse Bayes-ball step, and the
    neighbour offsets of each edge kind for the closures.
    """

    def __init__(self, period: int, records):
        self.period, self.records = period, records
        self.entering = tuple(tuple(tuple((off, there) for off, here, there in r if here == h)
                                    for r in records) for h in (False, True))
        self.children, self.parents, self.spouses = (
            tuple(tuple(off for off, there in r if there == t) for r in self.entering[h])
            for h, t in ((False, True), (True, False), (True, True)))


def _reach(coded: _CodedGraph, starts, offsets, floor: int, ceiling: int,
           cut=frozenset()) -> set:
    """``starts`` and every code reachable along ``offsets`` (``parents``,
    ``children`` or ``spouses`` of ``coded``) inside [floor, ceiling), without
    the edges in ``cut`` (code pairs, each stored in both orders)."""
    period = coded.period
    seen = set(starts)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for off in offsets[v % period]:
            w = v + off
            if floor <= w < ceiling and w not in seen and not (cut and (v, w) in cut):
                seen.add(w)
                stack.append(w)
    return seen


class DirectedMixedGraph:
    """Finite graph over :class:`TimedNode` with directed and bi-directed edges.

    Parameters
    ----------
    nodes : iterable of TimedNode
    directed : iterable of (tail, head) or (tail, head, coefficient)
        Directed edges; the induced directed graph must be acyclic.
    bidirected : iterable of (v, w)
        Bi-directed edges, stored unordered. A directed and a bi-directed
        edge may coexist between the same pair.

    The graph is immutable after construction; all operations are read-only.
    """

    def __init__(self, nodes, directed=(), bidirected=()):
        self.nodes: tuple[TimedNode, ...] = sorted_nodes(nodes)
        self._index = {v: k for k, v in enumerate(self.nodes)}  # node code
        if len(self._index) != len(self.nodes):
            raise GraphError("duplicate nodes in graph construction")

        self.directed: dict[tuple[TimedNode, TimedNode], Optional[float]] = {}
        for edge in directed:
            if len(edge) == 2:
                (tail, head), coeff = edge, None
            else:
                tail, head, coeff = edge
            self._require(tail)
            self._require(head)
            if tail == head:
                raise GraphError(f"self-loop on {tail}")
            self.directed[(tail, head)] = coeff

        self.bidirected: frozenset[frozenset] = frozenset(
            frozenset(pair) for pair in bidirected
        )
        for pair in self.bidirected:
            if len(pair) != 2:
                raise GraphError(f"bi-directed self-loop on {set(pair)}")
            for v in pair:
                self._require(v)

        self._incident = self._build_incident()
        self._order = _kahn_order(self.nodes, self.children, node_sort_key)
        if len(self._order) != len(self.nodes):
            cycle = sorted_nodes(set(self.nodes) - set(self._order))
            raise GraphError(f"directed cycle among {[tuple(v) for v in cycle]}")

    def _require(self, v: TimedNode) -> None:
        if v not in self._index:
            raise GraphError(f"unknown node {v!r}")

    def _codes(self, nodes) -> tuple[int, ...]:
        for v in nodes:
            self._require(v)
        return tuple(self._index[v] for v in nodes)

    @functools.cached_property
    def _coded(self) -> _CodedGraph:
        """The one-slice coding: code = index in ``nodes``, period = len(nodes)."""
        return _CodedGraph(len(self.nodes), tuple(
            tuple((self._index[w] - k, here, there) for w, here, there in self._incident[v])
            for k, v in enumerate(self.nodes)))

    def _build_incident(self):
        """Edges at each node in the order that breaks witness ties: directed
        edges by (tail, head) under ``node_sort_key``, time first; then the
        time-sorted bi-directed pairs compared as ``TimedNode`` tuples,
        component first. ``model._MarginalizedAdmg`` templates share this rule."""
        incident = {v: [] for v in self.nodes}
        for tail, head in sorted(self.directed, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))):
            incident[tail].append((head, False, True))
            incident[head].append((tail, True, False))
        for pair in sorted(self.bidirected, key=lambda p: sorted_nodes(p)):
            v, w = sorted_nodes(pair)
            incident[v].append((w, True, True))
            incident[w].append((v, True, True))
        return incident

    # -- local neighborhoods ------------------------------------------------

    def has_node(self, v: TimedNode) -> bool:
        return v in self._index

    def _neighbors(self, v, head_here, head_there):
        self._require(v)
        return tuple(w for w, here, there in self._incident[v]
                     if here == head_here and there == head_there)

    def parents(self, v: TimedNode) -> tuple[TimedNode, ...]:
        return self._neighbors(v, True, False)

    def children(self, v: TimedNode) -> tuple[TimedNode, ...]:
        return self._neighbors(v, False, True)

    def spouses(self, v: TimedNode) -> tuple[TimedNode, ...]:
        """Bi-directed neighbors of ``v``; a node is a spouse of itself."""
        return sorted_nodes({*self._neighbors(v, True, True), v})

    def adjacent(self, v: TimedNode, w: TimedNode) -> bool:
        return (
            (v, w) in self.directed
            or (w, v) in self.directed
            or frozenset((v, w)) in self.bidirected
        )

    def topological_order(self) -> tuple[TimedNode, ...]:
        return self._order

    # -- reachability sets --------------------------------------------------

    def ancestors(self, s: Iterable[TimedNode]) -> tuple[TimedNode, ...]:
        """Reflexive-transitive closure over reversed directed edges.

        Bi-directed edges carry no ancestry. Every node is an ancestor of
        itself.
        """
        return self._closure(s, self._coded.parents)

    def descendants(self, s: Iterable[TimedNode]) -> tuple[TimedNode, ...]:
        return self._closure(s, self._coded.children)

    def _closure(self, s, offsets) -> tuple[TimedNode, ...]:
        # codes follow the sorted node order
        reached = _reach(self._coded, self._codes(tuple(s)), offsets, 0, len(self.nodes))
        return tuple(self.nodes[k] for k in sorted(reached))

    # -- derived graphs -----------------------------------------------------

    def subgraph(self, keep: Iterable[TimedNode]) -> "DirectedMixedGraph":
        keep = frozenset(keep)
        for v in keep:
            self._require(v)
        directed = [
            (t, h, c) for (t, h), c in self.directed.items() if t in keep and h in keep
        ]
        bidirected = [pair for pair in self.bidirected if pair <= keep]
        return DirectedMixedGraph(keep, directed, bidirected)


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


@dataclass(frozen=True)
class SeparationQuery:
    """Pairwise disjoint node sets (a, c) to be tested for separation by b."""

    a: tuple[TimedNode, ...]
    b: tuple[TimedNode, ...]
    c: tuple[TimedNode, ...]

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", sorted_nodes(a))
        object.__setattr__(self, "b", sorted_nodes(b))
        object.__setattr__(self, "c", sorted_nodes(c))
        sa, sb, sc = set(self.a), set(self.b), set(self.c)
        if sa & sb or sa & sc or sb & sc:
            raise GraphError("separation query sets must be pairwise disjoint")
        if not sa or not sc:
            raise GraphError("separation query needs non-empty a and c sets")

    def validate_in(self, g: DirectedMixedGraph) -> None:
        for v in (*self.a, *self.b, *self.c):
            if not g.has_node(v):
                raise GraphError(f"unknown node {v!r} in separation query")


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    witness: Optional[tuple[TimedNode, ...]] = None

    def __bool__(self) -> bool:
        return self.separated


def augment(g: DirectedMixedGraph) -> UndirectedGraph:
    """Augmented graph: v-w iff v and w are collider-connected in ``g``.

    Adjacent nodes are collider connected by convention. On a graph without
    bi-directed edges this coincides edge-for-edge with :func:`moralize`.
    """
    edges = set()
    for source in g.nodes:
        # State search over (node, entered-with-arrowhead-here). A walk may
        # continue through a node only when both flanking edges put an
        # arrowhead at it, i.e. the node is a collider on the walk.
        seen = set()
        queue = deque()
        for other, _, head_other in g._incident[source]:
            state = (other, head_other)
            if other != source and state not in seen:
                seen.add(state)
                queue.append(state)
        while queue:
            node, entered_head = queue.popleft()
            if node != source:
                edges.add(frozenset((source, node)))
            if not entered_head:
                continue
            for other, head_here, head_other in g._incident[node]:
                if not head_here or other == source:
                    continue
                state = (other, head_other)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return UndirectedGraph(g.nodes, edges)


def _junction_open(node, entered_head, exit_head, b_set, an_b):
    if entered_head and exit_head:
        return node in an_b
    return node not in b_set


def _connection(coded: _CodedGraph, query, floor: int, ceiling: int, cut=frozenset()):
    """Reachability table of a connected query, or None when b separates it.

    ``query`` holds the code tuples (a, b, c); the graph is ``coded`` inside
    [floor, ceiling) without the edges in ``cut`` (see :func:`_reach`). The
    table holds the states 2·x + h (x entered with arrowhead flag h) that
    start an m-connecting walk to c through An(a ∪ b ∪ c): Bayes-ball
    reachability (Shachter 1998; van der Zander, Liśkiewicz & Textor 2019)
    run backwards from c, in O(V + E). The query is connected iff a non-a
    neighbour of an a node starts such a walk. Returns (An(a ∪ b ∪ c), An(b),
    table, first steps of a) when connected.
    """
    a, b, c = query
    keep = _reach(coded, (*a, *b, *c), coded.parents, floor, ceiling, cut)
    an_b = _reach(coded, b, coded.parents, floor, ceiling, cut)
    b_set, period, entering = set(b), coded.period, coded.entering
    good = {2 * v + flag for v in c for flag in (0, 1)}
    stack = list(good)
    while stack:
        state = stack.pop()
        y, head_y = state >> 1, state & 1
        # x steps onto y by an edge with arrowhead flag head_y at y, if the
        # walk may pass x entered either way and leaving with head_x
        for off, head_x in entering[head_y][y % period]:
            x = y + off
            if x not in keep or (cut and head_x != head_y and (x, y) in cut):
                continue
            free, entered = x not in b_set, 2 * x
            if free and entered not in good:
                good.add(entered)
                stack.append(entered)
            if (x in an_b if head_x else free) and entered + 1 not in good:
                good.add(entered + 1)
                stack.append(entered + 1)
    a_set = set(a)
    starts = [(u, u + off, there) for u in a for off, here, there in coded.records[u % period]
              if u + off not in a_set and not (cut and here != there and (u, u + off) in cut)]
    if not any(2 * other + there in good for _, other, there in starts):
        return None
    return keep, an_b, good, starts


def _result(coded: _CodedGraph, query, cut, connection, node) -> SeparationResult:
    """Separated, or connected with its shortest m-connecting path as witness
    (ties broken by incidence order), given what :func:`_connection` found;
    ``node`` decodes a code.

    The witness comes from a depth-first search over simple paths, pruned by
    the reachability table; the table is sound for walks, hence never prunes
    a valid simple-path completion.
    """
    if connection is None:
        return SeparationResult(True)
    keep, an_b, good, starts = connection
    b_set, c_set = set(query[1]), set(query[2])
    period, records = coded.period, coded.records

    # passed itself, not closed over: that cycle would hold ``good`` until gc
    def dfs(dfs, v, entered_head, path, on_path, budget):
        for off, head_here, head_other in records[v % period]:
            other = v + off
            if other in on_path or (cut and head_here != head_other and (v, other) in cut):
                continue
            if not _junction_open(v, entered_head, head_here, b_set, an_b):
                continue
            if other in c_set:
                return path + [other]
            if budget == 0 or 2 * other + head_other not in good:
                continue
            found = dfs(dfs, other, head_other, path + [other], on_path | {other}, budget - 1)
            if found is not None:
                return found
        return None

    # Iterative deepening returns the shortest connecting path; the budget
    # counts interior nodes still allowed.
    for budget in range(len(keep)):
        for u, other, head_other in starts:
            if other in c_set:
                return SeparationResult(False, (node(u), node(other)))
            if budget == 0 or 2 * other + head_other not in good:
                continue
            found = dfs(dfs, other, head_other, [u, other], {u, other}, budget - 1)
            if found is not None:
                return SeparationResult(False, tuple(map(node, found)))
    raise GraphError("internal inconsistency: reachability table connected "
                     "but no m-connecting path found")


def m_separated(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationResult:
    """m-separation verdict with a connecting-path witness when it fails.

    One reachability pass over the ancestors of the query nodes decides, and
    the witness search runs only for a connected query (see
    :func:`_connection`). On a DAG this is d-separation.
    """
    query.validate_in(g)
    codes = tuple(map(g._codes, (query.a, query.b, query.c)))
    connection = _connection(g._coded, codes, 0, len(g.nodes))
    return _result(g._coded, codes, frozenset(), connection, g.nodes.__getitem__)


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

    # entry flags reachable at each step
    flags = {f_w for (_, f_w) in step_options(path[0], path[1])}
    if not flags:
        return False
    for v, w in zip(path[1:], path[2:]):
        nxt = set()
        for entered in flags:
            for head_v, head_w in step_options(v, w):
                if _junction_open(v, entered, head_v, b_set, an_b):
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
    query.validate_in(g)
    closure = g.ancestors((*query.a, *query.b, *query.c))
    if set(closure) != set(g.nodes):
        raise GraphError("extend_separated_sets requires nodes == "
                         "ancestors(a ∪ b ∪ c)")
    if not m_separated(g, query).separated:
        raise GraphError("extend_separated_sets requires a separated query")
    aug = augment(g)
    a_set, c_set = set(query.a), set(query.c)
    a_plus, c_plus = set(), set()
    for comp in aug.connected_components(exclude=query.b):
        comp_set = set(comp)
        if comp_set & a_set:
            a_plus |= comp_set
        elif comp_set & c_set:
            c_plus |= comp_set
        else:
            a_plus |= comp_set
    return sorted_nodes(a_plus), sorted_nodes(c_plus)


def latent_project(g: DirectedMixedGraph, keep: Iterable[TimedNode]) -> DirectedMixedGraph:
    """Latent projection of a DAG onto ``keep``.

    Directed edge v→w iff v→w exists or a directed path from v to w runs
    through latent nodes only; bi-directed v↔w iff some latent node reaches
    both v and w through latent-interior directed paths. Coefficients survive
    only on edges already present in ``g``.
    """
    if g.bidirected:
        raise GraphError("latent projection is defined for DAG inputs only")
    keep = frozenset(keep)
    for v in keep:
        g._require(v)
    latent = frozenset(g.nodes) - keep

    def latent_reach(start_children):
        # kept nodes reachable through latent-interior directed paths
        reached, seen = set(), set()
        stack = list(start_children)
        while stack:
            w = stack.pop()
            if w in keep:
                reached.add(w)
                continue
            if w in seen:
                continue
            seen.add(w)
            stack.extend(g.children(w))
        return reached

    directed = {}
    for (tail, head), coeff in g.directed.items():
        if tail in keep and head in keep:
            directed[(tail, head)] = coeff
    for v in keep:
        for w in latent_reach(g.children(v)):
            if w != v and (v, w) not in directed:
                directed[(v, w)] = None

    bidirected = set()
    for u in latent:
        reached = sorted_nodes(latent_reach(g.children(u)))
        for i in range(len(reached)):
            for j in range(i + 1, len(reached)):
                bidirected.add(frozenset((reached[i], reached[j])))

    return DirectedMixedGraph(
        keep, [(t, h, c) for (t, h), c in directed.items()], bidirected
    )


# -- serialization ----------------------------------------------------------

def _node_dict(v: TimedNode) -> dict:
    return {"component": v.component, "time": v.time, "kind": v.kind}


def _node_from_dict(d: dict) -> TimedNode:
    kind = d.get("kind", ENDOGENOUS)
    if kind not in (ENDOGENOUS, INNOVATION):
        raise GraphError(f"unknown node kind {kind!r}")
    return TimedNode(int(d["component"]), int(d["time"]), kind)


def graph_to_json(g: DirectedMixedGraph) -> dict:
    return {
        "nodes": [_node_dict(v) for v in g.nodes],
        "directed": [
            {"tail": _node_dict(t), "head": _node_dict(h), "coefficient": c}
            for (t, h), c in sorted(
                g.directed.items(),
                key=lambda e: (node_sort_key(e[0][0]), node_sort_key(e[0][1])),
            )
        ],
        "bidirected": [
            [_node_dict(v) for v in sorted_nodes(pair)]
            for pair in sorted(g.bidirected, key=lambda p: tuple(map(node_sort_key, sorted_nodes(p))))
        ],
    }


def graph_from_json(data: dict) -> DirectedMixedGraph:
    nodes = [_node_from_dict(d) for d in data["nodes"]]
    directed = [
        (_node_from_dict(e["tail"]), _node_from_dict(e["head"]), e.get("coefficient"))
        for e in data.get("directed", [])
    ]
    bidirected = [
        tuple(_node_from_dict(d) for d in pair) for pair in data.get("bidirected", [])
    ]
    return DirectedMixedGraph(nodes, directed, bidirected)


def to_dot(g: DirectedMixedGraph, names: Optional[list[str]] = None) -> str:
    """Graphviz rendering; bi-directed edges use dir=both."""
    lines = ["digraph G {"]
    for v in g.nodes:
        lines.append(f'  "{node_label(v, names)}";')
    for (t, h), c in sorted(
        g.directed.items(),
        key=lambda e: (node_sort_key(e[0][0]), node_sort_key(e[0][1])),
    ):
        attr = f' [label="{c:g}"]' if c is not None else ""
        lines.append(f'  "{node_label(t, names)}" -> "{node_label(h, names)}"{attr};')
    for pair in sorted(g.bidirected, key=lambda p: tuple(map(node_sort_key, sorted_nodes(p)))):
        v, w = sorted_nodes(pair)
        lines.append(
            f'  "{node_label(v, names)}" -> "{node_label(w, names)}" [dir=both];'
        )
    lines.append("}")
    return "\n".join(lines)
