"""Finite directed mixed graphs and graphical separation.

Graphs carry two edge sets: directed edges (optionally weighted by a real
coefficient) and bi-directed edges. A graph with an empty bi-directed set
behaves exactly like a DAG in every operation, so the same machinery covers
d-separation on DAGs and m-separation on ADMGs.

``m_separated`` decides separation with one reachability pass over
(node, entered-with-arrowhead) states of the query's ancestral nodes and
searches for a witness path only when the query is connected; both read
incidence lists through a function, so they run on compiled templates too. The
augmented-graph criterion (``augment``, ``moralize``, ``d_separated_moral``)
serves ``extend_separated_sets`` and, with ``m_separated_oracle``, a direct
enumeration of simple paths, cross-checks the verdicts in the tests.
"""

from __future__ import annotations

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


def _closure(starts, step) -> set:
    """``starts`` together with every node reachable from them by ``step``."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for w in step(queue.popleft()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


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
        self._node_set = frozenset(self.nodes)
        if len(self._node_set) != len(self.nodes):
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
        if v not in self._node_set:
            raise GraphError(f"unknown node {v!r}")

    def _build_incident(self):
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
        return v in self._node_set

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
        return sorted_nodes(_closure(s, self.parents))

    def descendants(self, s: Iterable[TimedNode]) -> tuple[TimedNode, ...]:
        return sorted_nodes(_closure(s, self.children))

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


def _connecting_states(incident, keep, b_set, an_b, c_nodes) -> set:
    """States (x, entered-with-arrowhead-at-x) that start an m-connecting walk
    to ``c_nodes`` through ``keep``: Bayes-ball reachability (Shachter 1998;
    van der Zander, Liśkiewicz & Textor 2019) run backwards, in O(V + E).
    ``incident(v)`` lists the incident-edge records of ``v``.
    """
    def step(state):
        # states (x, flag) that may step onto y via an edge whose arrowhead
        # flag at y matches head_y
        y, head_y = state
        return [(x, flag) for x, head_y_side, head_x_side in incident(y)
                if head_y_side == head_y and x in keep
                for flag in (False, True) if _junction_open(x, flag, head_x_side, b_set, an_b)]

    return _closure({(cnode, flag) for cnode in c_nodes for flag in (False, True)}, step)


def _connection(incident, query: SeparationQuery, keep, an_b):
    """Reachability table and first steps of a connected query, or None when
    ``query.b`` separates it.

    ``keep`` is An(a ∪ b ∪ c) and ``an_b`` is An(b). The table of
    :func:`_connecting_states` decides: the query is connected iff a
    non-``a`` neighbour of an ``a`` node starts an m-connecting walk to ``c``.
    """
    good = _connecting_states(incident, keep, set(query.b), an_b, query.c)
    a_set = set(query.a)
    starts = [(a, other, head_other) for a in query.a
              for other, _, head_other in incident(a) if other not in a_set]
    if not any((other, head_other) in good for _, other, head_other in starts):
        return None
    return good, starts


def _result(incident, query: SeparationQuery, keep, an_b, connection) -> SeparationResult:
    """Separated, or connected with its shortest m-connecting path as witness
    (ties broken by incidence order), given what :func:`_connection` found.

    The witness comes from a depth-first search over simple paths, pruned by
    the reachability table; the table is sound for walks, hence never prunes
    a valid simple-path completion.
    """
    if connection is None:
        return SeparationResult(True)
    good, starts = connection
    b_set, c_set = set(query.b), set(query.c)

    def dfs(node, entered_head, path, on_path, budget):
        for other, head_here, head_other in incident(node):
            if other in on_path:
                continue
            if not _junction_open(node, entered_head, head_here, b_set, an_b):
                continue
            if other in c_set:
                return path + [other]
            if budget == 0 or (other, head_other) not in good:
                continue
            found = dfs(other, head_other, path + [other], on_path | {other}, budget - 1)
            if found is not None:
                return found
        return None

    # Iterative deepening returns the shortest connecting path; the budget
    # counts interior nodes still allowed.
    for budget in range(len(keep)):
        for a, other, head_other in starts:
            if other in c_set:
                return SeparationResult(False, (a, other))
            if budget == 0 or (other, head_other) not in good:
                continue
            found = dfs(other, head_other, [a, other], {a, other}, budget - 1)
            if found is not None:
                return SeparationResult(False, tuple(found))
    raise GraphError("internal inconsistency: reachability table connected "
                     "but no m-connecting path found")


def m_separated(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationResult:
    """m-separation verdict with a connecting-path witness when it fails.

    One reachability pass over the ancestors of the query nodes decides, and
    the witness search runs only for a connected query (see
    :func:`_connection`). On a DAG this is d-separation.
    """
    query.validate_in(g)
    keep = set(g.ancestors((*query.a, *query.b, *query.c)))
    an_b = set(g.ancestors(query.b)) if query.b else set()
    incident = g._incident.__getitem__
    return _result(incident, query, keep, an_b, _connection(incident, query, keep, an_b))


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


def m_separated_oracle(
    g: DirectedMixedGraph, query: SeparationQuery, max_paths: int = 10**6
) -> bool:
    """Direct check by enumerating simple paths (test oracle).

    Walks every simple path from ``query.a`` to ``query.c`` and evaluates its
    blocking status: blocked iff some non-collider on it lies in ``b`` or some
    collider has no descendant in ``b``. Returns as soon as an open path is
    found; raises once more than ``max_paths`` paths have been enumerated.
    """
    query.validate_in(g)
    b_set, c_set = set(query.b), set(query.c)
    an_b = set(g.ancestors(query.b)) if query.b else set()
    counter = [0]

    def count_one():
        counter[0] += 1
        if counter[0] > max_paths:
            raise GraphError(f"path enumeration exceeded {max_paths} simple paths")

    def dfs(node, entered_head, prefix_open, on_path):
        # extends the path ending at `node`; returns True iff an open
        # completion to c exists among the enumerated ones
        for other, head_here, head_other in g._incident[node]:
            if other in on_path:
                continue
            step_open = prefix_open and _junction_open(
                node, entered_head, head_here, b_set, an_b
            )
            if other in c_set:
                count_one()
                if step_open:
                    return True
                continue
            if dfs(other, head_other, step_open, on_path | {other}):
                return True
        return False

    for a in query.a:
        for other, _, head_other in g._incident[a]:
            if other in c_set:
                count_one()
                return False  # single-edge path has no junctions, always open
            if dfs(other, head_other, True, {a, other}):
                return False
    return True


def d_separated_moral(g: DirectedMixedGraph, query: SeparationQuery) -> bool:
    """d-separation via the moralized ancestral subgraph (DAG only)."""
    query.validate_in(g)
    if g.bidirected:
        raise GraphError("moralization-based check requires a DAG")
    ancestral = g.subgraph(g.ancestors((*query.a, *query.b, *query.c)))
    return moralize(ancestral).separated(query.a, query.c, query.b)


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
