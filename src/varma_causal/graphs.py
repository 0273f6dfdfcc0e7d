"""Finite directed mixed graphs and graphical separation.

Graphs carry two edge sets: directed edges (optionally weighted by a real
coefficient) and bi-directed edges. A graph with an empty bi-directed set
behaves exactly like a DAG in every operation, so the same machinery covers
d-separation on DAGs and m-separation on ADMGs.

One separation core, on integer node codes (:class:`_CodedGraph`), serves
finite graphs and the periodic marginalized ADMG of a spec; its offset
records are the one incidence either keeps. ``_connection``
decides with one Bayes-ball pass over (node, entered-with-arrowhead) states
of the query's ancestral nodes, and ``_result`` searches a witness path only
when the query is connected; ``_CodedGraph._periodic_separation`` deepens
the windows of the periodic graph. The proof devices of the global Markov
property and the reference deciders of the tests (path enumeration,
moralization) live outside the library, in ``tests/reference.py``.

Every input and output writes a timed node in one of two forms, each with
its writer and reader here: JSON ``{"component", "time", "kind"}``
(``node_to_json``, ``node_from_json``) and text ``name@time`` or
``e(name)@time`` (``node_label``, ``parse_node_ref``).
Questions about a process take its endogenous nodes S_i@t, 0 <= i < d, as
``process_nodes`` checks; finite graphs take the nodes they hold.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import GraphError, ModelError

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


def process_nodes(nodes: Iterable[TimedNode], d: int) -> tuple[TimedNode, ...]:
    """``nodes`` as a tuple, if each is an endogenous node of a process with
    ``d`` components; ModelError otherwise."""
    nodes = tuple(nodes)
    for v in nodes:
        if v.kind != ENDOGENOUS:
            raise ModelError(f"process queries are over endogenous nodes; got {v!r}")
        if not 0 <= v.component < d:
            raise ModelError(f"component {v.component} of {v!r} outside 0..{d - 1}")
    return nodes


def sorted_nodes(nodes: Iterable[TimedNode]) -> tuple[TimedNode, ...]:
    return tuple(sorted(nodes, key=node_sort_key))


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
    arrowhead there) in :func:`_incidence` order, which breaks witness ties;
    they are a graph's only incidence, a finite graph being the one-slice
    case. Split off once: ``entering[h][i]``, the (offset, arrowhead there)
    of the edges with arrowhead flag h at node i, for the reverse Bayes-ball
    step, and the neighbour offsets of each edge kind for the closures.
    """

    def __init__(self, period: int, records):
        self.period, self.records = period, records
        self.entering = tuple(tuple(tuple((off, there) for off, here, there in r if here == h)
                                    for r in records) for h in (False, True))
        self.children, self.parents, self.spouses = (
            tuple(tuple(off for off, there in r if there == t) for r in self.entering[h])
            for h, t in ((False, True), (True, False), (True, True)))

    def _periodic_separation(self, query, cut, earliest: int, start: int, lag: int,
                             ceiling: int):
        """m-separation of the code tuples (a, b, c) of ``query``, without the
        edges in ``cut``, on windows of this periodic graph: the codes from
        bottom·period up to ``ceiling``, decoded by the compiled ADMG's
        ``node``. The bottom, a time, starts at ``start`` and drops by
        ``lag``, the longest edge span in time slices; ``earliest`` is the
        query's earliest time.

        No edge points back in time, so a node's membership in An(b) or
        An(a ∪ b ∪ c) does not depend on the bottom, and one
        :func:`_connection` pass, extended as the bottom drops, decides every
        window. Each window is an induced subgraph of the next and An(b) only
        grows, so a path open in one window is open in all deeper ones: the
        verdicts never turn back from connected, and three windows settle
        them as two agreeing in a row. A separated pass that parked nothing
        under its floor is final for every lower floor, which makes the same
        decisions above it and could reach a new state only by a parked step.
        A path that leaves window s falls and climbs earliest − s + 1 lags,
        so it has at least 2·⌈(earliest − s + 1)/lag⌉ edges: a shorter
        witness in window s is the shortest in every deeper window, tie-break
        included (the bound is strict, so a path of equal length that dips
        cannot win). The exits, each reporting the second window, as the
        confirming round would, unless it says otherwise:

        - an a–c edge, not cut, or a two-edge witness whose middle node lies
          in the first window (see :func:`_short_witness`), before any pass;
        - a separated pass that parked nothing, at any floor: certified, and
          no search runs;
        - a witness under the dip bound, whose search stops at the bound, in
          the shallow window earliest − lag (a bound of 4 edges), tried first
          when it lies above the first window, or in the first window;
        - on the second window, reported: a separated verdict, or a connected
          one after a connected first window, searched in full;
        - on the third window, reported: its verdict, searched in full.

        Returns (SeparationResult, bottom of the reported window,
        depth_certified), which is False only for a separated verdict that
        the stopping rule settled.
        """
        period, node = self.period, self.node
        bottoms = range(start, start - 3 * lag, -lag)
        starts = _first_steps(self, query[0], cut)
        witness = _short_witness(self, query, cut, starts, start * period, bottoms[1] * period,
                                 ceiling)
        if witness is not None:
            return SeparationResult(False, tuple(map(node, witness))), bottoms[1], True
        floors = (earliest - lag, *bottoms) if earliest - lag > start else bottoms
        passes = _connection(self, query, starts, (t * period for t in floors), ceiling, cut)
        for bottom, connection in zip(floors, passes):
            if connection is False:
                return SeparationResult(True), bottoms[1], True
            if bottom >= start:  # the shallow or the first window
                if connection is not None:
                    # a path below this window falls and climbs earliest - bottom + 1 lags
                    result = _result(self, query, cut, connection, node,
                                     2 * -(-(earliest - bottom + 1) // lag))
                    if result is not None:
                        return result, bottoms[1], True
                first_connected = connection is not None
            elif bottom == bottoms[2] or connection is None or first_connected:
                return _result(self, query, cut, connection, node), bottom, connection is not None


def _reach(coded: _CodedGraph, starts, offsets, floor: int, ceiling: int,
           cut=frozenset(), seen=None, below=None) -> set:
    """``starts`` and every code reachable along ``offsets`` (``parents``,
    ``children`` or ``spouses`` of ``coded``) inside [floor, ceiling), without
    the edges in ``cut`` (code pairs, each stored in both orders). A given
    ``seen`` must hold ``starts`` and is extended in place; codes with a step
    under the floor are appended to ``below``, if given, for a lower floor."""
    if seen is None:
        seen = starts = set(starts)
    period, stack = coded.period, list(starts)
    while stack:
        v = stack.pop()
        for off in offsets[v % period]:
            w = v + off
            if floor <= w < ceiling and w not in seen and not (cut and (v, w) in cut):
                seen.add(w)
                stack.append(w)
            elif w < floor and below is not None:
                below.append(v)
    return seen


def _incidence(nodes, directed, bidirected, code) -> tuple:
    """:class:`_CodedGraph` records of ``nodes``, coded 0, 1, ... by ``code``,
    with edges in the order that breaks witness ties: directed (tail, head)
    pairs by code, which follows ``node_sort_key``, time first; then the
    time-sorted bi-directed pairs compared as ``TimedNode`` tuples, component
    first. Endpoints coded outside ``nodes`` get no record."""
    return _coded_records(len(nodes), sorted((code(t), code(h)) for t, h in directed),
                          [(code(v), code(w)) for v, w in sorted(map(sorted_nodes, bidirected))])


def _coded_records(count: int, directed, bidirected) -> tuple:
    """Records of codes 0..count-1 from code pairs in :func:`_incidence` order:
    directed (tail, head), then bi-directed; other codes get no record."""
    records = [[] for _ in range(count)]
    for pairs, at_v in ((directed, False), (bidirected, True)):
        for v, w in pairs:
            if 0 <= v < count:
                records[v].append((w - v, at_v, True))
            if 0 <= w < count:
                records[w].append((v - w, True, at_v))
    return tuple(map(tuple, records))


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

        # the one-slice coding: code = index in ``nodes``, period = len(nodes)
        self._coded = _CodedGraph(len(self.nodes), _incidence(
            self.nodes, self.directed, self.bidirected, self._index.__getitem__))
        children = self._coded.children
        order = _kahn_order(range(len(self.nodes)), lambda k: [k + off for off in children[k]], int)
        if len(order) != len(self.nodes):
            cycle = sorted_nodes(set(self.nodes) - {self.nodes[k] for k in order})
            raise GraphError(f"directed cycle among {[tuple(v) for v in cycle]}")

    def _require(self, v: TimedNode) -> None:
        if v not in self._index:
            raise GraphError(f"unknown node {v!r}")

    def _codes(self, nodes) -> tuple[int, ...]:
        for v in nodes:
            self._require(v)
        return tuple(self._index[v] for v in nodes)

    def _neighbors(self, v, offsets) -> tuple[TimedNode, ...]:
        (k,) = self._codes((v,))
        return tuple(self.nodes[k + off] for off in offsets[k])

    def children(self, v: TimedNode) -> tuple[TimedNode, ...]:
        return self._neighbors(v, self._coded.children)


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


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    witness: Optional[tuple[TimedNode, ...]] = None

    def __bool__(self) -> bool:
        return self.separated


def augment(g: DirectedMixedGraph) -> frozenset:
    """Edges of the augmented graph as unordered node pairs: v-w iff v and w
    are collider-connected in ``g``, adjacent nodes included by convention.
    On a graph without bi-directed edges these are the moral graph's edges.
    """
    edges, records = set(), g._coded.records
    for source in range(len(g.nodes)):
        # State search over codes (node, entered-with-arrowhead-here). A walk
        # may continue through a node only when both flanking edges put an
        # arrowhead at it, i.e. the node is a collider on the walk.
        seen = {(source + off, head_other) for off, _, head_other in records[source]}
        queue = deque(seen)
        while queue:
            node, entered_head = queue.popleft()
            edges.add(frozenset((g.nodes[source], g.nodes[node])))
            if not entered_head:
                continue
            for off, head_here, head_other in records[node]:
                state = (node + off, head_other)
                if head_here and state[0] != source and state not in seen:
                    seen.add(state)
                    queue.append(state)
    return frozenset(edges)


def _junction_open(node, entered_head, exit_head, b_set, an_b):
    if entered_head and exit_head:
        return node in an_b
    return node not in b_set


def _first_steps(coded: _CodedGraph, a, cut) -> list:
    """The first steps (u, w, arrowhead flag at w) of walks from the a codes,
    in incidence order: each edge from an a node u to a non-a node w, without
    the edges in ``cut``."""
    period, records = coded.period, coded.records
    return [(u, u + off, there) for u in a for off, here, there in records[u % period]
            if u + off not in a and not (cut and here != there and (u, u + off) in cut)]


def _connection(coded: _CodedGraph, query, starts, floors, ceiling: int, cut=frozenset()):
    """For each of the descending ``floors`` in turn: the reachability table
    of a connected query; when b separates it, None if the pass parked a
    state under the floor, and False if it parked none.

    ``query`` holds the code tuples (a, b, c), and ``starts`` the
    :func:`_first_steps` of a; the graph is ``coded`` inside [floor,
    ceiling) without the edges in ``cut`` (see :func:`_reach`). The
    table holds the states 2·x + h (x entered with arrowhead flag h) that
    start an m-connecting walk to c through An(a ∪ b ∪ c): Bayes-ball
    reachability (Shachter 1998; van der Zander, Liśkiewicz & Textor 2019)
    run backwards from c, in O(V + E). The query is connected iff a first
    step of a starts such a walk. Yields (An(a ∪ b ∪ c), An(b), table,
    ``starts``) when connected.

    One pass serves every floor: floors fall on time-slice boundaries and no
    edge points back in time, so a node or state with a step under the floor
    is parked and expanded again when the floor drops. Each yield equals a
    fresh pass on its window; the next floor extends its tables in place.
    What a False yield means for lower floors is proved at
    :func:`_periodic_separation`.
    """
    a, b, c = query
    b_set, period, entering = set(b), coded.period, coded.entering
    parked = [*a, *b, *c], list(b), [2 * v + flag for v in c for flag in (0, 1)]
    keep, an_b, good = map(set, parked)
    for floor in floors:
        (keep_from, b_from, stack), parked = parked, ([], [], [])
        _reach(coded, keep_from, coded.parents, floor, ceiling, cut, keep, parked[0])
        _reach(coded, b_from, coded.parents, floor, ceiling, cut, an_b, parked[1])
        while stack:
            state = stack.pop()
            y, head_y = state >> 1, state & 1
            # x steps onto y by an edge with arrowhead flag head_y at y, if the
            # walk may pass x entered either way and leaving with head_x
            for off, head_x in entering[head_y][y % period]:
                x = y + off
                if x not in keep or (cut and head_x != head_y and (x, y) in cut):
                    if x < floor:
                        parked[2].append(state)
                    continue
                free, entered = x not in b_set, 2 * x
                if free and entered not in good:
                    good.add(entered)
                    stack.append(entered)
                if (x in an_b if head_x else free) and entered + 1 not in good:
                    good.add(entered + 1)
                    stack.append(entered + 1)
        if any(2 * other + there in good for _, other, there in starts):
            yield keep, an_b, good, starts
        else:
            yield None if parked[2] else False


def _result(coded: _CodedGraph, query, cut, connection, node,
            limit: Optional[int] = None) -> Optional[SeparationResult]:
    """Separated, or connected with its shortest m-connecting path as witness
    (ties broken by incidence order), given what :func:`_connection` found;
    ``node`` decodes a code. With ``limit``, only paths of fewer than
    ``limit`` edges are searched, and None means the witness is longer.

    The witness comes from a depth-first search over simple paths, pruned by
    the reachability table; the table is sound for walks, hence never prunes
    a valid simple-path completion. It says only whether a state reaches c,
    not how soon, and a walk may repeat a node where a path may not: when
    short walks connect but the simple paths are long, each budget up to the
    witness's length visits every open simple path of that length, which
    grows exponentially on dense windows.
    """
    if not connection:
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
    budgets = len(keep) if limit is None else min(len(keep), limit - 1)
    for budget in range(budgets):
        for u, other, head_other in starts:
            if other in c_set:
                return SeparationResult(False, (node(u), node(other)))
            if budget == 0 or 2 * other + head_other not in good:
                continue
            found = dfs(dfs, other, head_other, [u, other], {u, other}, budget - 1)
            if found is not None:
                return SeparationResult(False, tuple(map(node, found)))
    if budgets < len(keep):
        return None
    raise GraphError("internal inconsistency: reachability table connected "
                     "but no m-connecting path found")


def _short_witness(coded: _CodedGraph, query, cut, starts, floor: int, deep: int,
                   ceiling: int):
    """The codes of the witness of one or two edges that :func:`_result`
    finds on every window of ``coded`` from [floor, ceiling) down to [deep,
    ceiling), or None when the witness is longer or its middle node lies
    under ``floor``. The scan runs in the search's order over ``starts``,
    the :func:`_first_steps` of a: an a–c edge first (budget 0), then the
    edges on from a neighbour of c (budget 1), without the edges in ``cut``.
    A middle node m is open by :func:`_junction_open`; An(b), needed only
    when m is a collider, is taken inside [deep, ceiling). That is exact at
    m, because no edge points back in time and ``deep`` lies an edge span
    below every a code.
    """
    _, b, c = query
    c_set, period, records = set(c), coded.period, coded.records
    for u, other, _ in starts:
        if other in c_set:
            return u, other
    near_c = {w + off for w in c for off, _, _ in records[w % period]}
    b_set, an_b = set(b), None
    for u, m, head_m in starts:
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


def m_separated(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationResult:
    """m-separation verdict with a connecting-path witness when it fails.

    One reachability pass over the ancestors of the query nodes decides, and
    the witness search runs only for a connected query (see
    :func:`_connection`). On a DAG this is d-separation.
    """
    codes = tuple(map(g._codes, (query.a, query.b, query.c)))
    starts = _first_steps(g._coded, codes[0], frozenset())
    connection = next(_connection(g._coded, codes, starts, (0,), len(g.nodes)))
    return _result(g._coded, codes, frozenset(), connection, g.nodes.__getitem__)


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


# -- node codec: the one JSON form and the one text form of a timed node ----

def node_to_json(v: TimedNode) -> dict:
    return {"component": v.component, "time": v.time, "kind": v.kind}


def node_from_json(data) -> TimedNode:
    """Read :func:`node_to_json`'s form. ``kind`` defaults to endogenous, and
    the time may be keyed ``lag``, as query files of earlier versions wrote it."""
    try:
        component, time = data["component"], data["time"] if "time" in data else data["lag"]
        kind = data.get("kind", ENDOGENOUS)
    except (KeyError, TypeError):
        raise GraphError(f"bad node {data!r}; expected component, time and kind") from None
    if kind not in (ENDOGENOUS, INNOVATION):
        raise GraphError(f"unknown node kind {kind!r}")
    if not (type(component) is int and type(time) is int and component >= 0):
        raise GraphError(f"bad node {data!r}; expected integer time and component >= 0")
    return TimedNode(component, time, kind)


def node_label(v: TimedNode, names=None) -> str:
    """Text form: ``name@time``, or ``e(name)@time`` for an innovation, where
    ``name`` is the component's name in ``names`` or its 0-based index."""
    name = names[v.component] if names else v.component
    return f"e({name})@{v.time}" if v.kind == INNOVATION else f"{name}@{v.time}"


def parse_node_ref(ref: str, spec=None, names=None) -> TimedNode:
    """Read :func:`node_label`'s form. ``names`` defaults to those of the
    VarmaSpec ``spec``, which also bounds the component; a 0-based index
    always works. A name of ``names`` wins over the ``e(name)`` reading."""
    if names is None and spec is not None:
        names = spec.names
    try:
        name, time_text = ref.rsplit("@", 1)
        time = int(time_text)
    except ValueError:
        raise ModelError(f"bad node reference {ref!r}; expected name@lag") from None
    names, kind = list(names or ()), ENDOGENOUS
    if name not in names and name.startswith("e(") and name.endswith(")"):
        name, kind = name[2:-1], INNOVATION
    if name in names:
        component = names.index(name)
    elif name.isdecimal():
        component = int(name)
    else:
        raise ModelError(f"unknown component {name!r} (model names: {names or 'none'})")
    if spec is not None and component >= spec.d:
        raise ModelError(f"component index {component} outside 0..{spec.d - 1}")
    return TimedNode(component, time, kind)


def _ordered_edges(g: DirectedMixedGraph):
    """(tail, head, coefficient) and time-sorted bi-directed (v, w) edges in
    the order of the graph outputs: by ``node_sort_key`` of each endpoint."""
    return (sorted(((t, h, c) for (t, h), c in g.directed.items()),
                   key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))),
            sorted(map(sorted_nodes, g.bidirected), key=lambda p: tuple(map(node_sort_key, p))))


def graph_to_json(g: DirectedMixedGraph) -> dict:
    directed, bidirected = _ordered_edges(g)
    return {
        "nodes": [node_to_json(v) for v in g.nodes],
        "directed": [{"tail": node_to_json(t), "head": node_to_json(h), "coefficient": c}
                     for t, h, c in directed],
        "bidirected": [[node_to_json(v), node_to_json(w)] for v, w in bidirected],
    }


def graph_from_json(data: dict) -> DirectedMixedGraph:
    """Read :func:`graph_to_json`'s form; a missing key raises GraphError."""
    try:
        nodes = [node_from_json(d) for d in data["nodes"]]
        directed = [(node_from_json(e["tail"]), node_from_json(e["head"]), e.get("coefficient"))
                    for e in data.get("directed", [])]
        bidirected = [tuple(map(node_from_json, pair)) for pair in data.get("bidirected", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc!r}") from None
    return DirectedMixedGraph(nodes, directed, bidirected)


def to_dot(g: DirectedMixedGraph, names: Optional[list[str]] = None) -> str:
    """Graphviz rendering; bi-directed edges use dir=both."""
    directed, bidirected = _ordered_edges(g)
    lines = ["digraph G {", *(f'  "{node_label(v, names)}";' for v in g.nodes)]
    for t, h, c in directed:
        attr = f' [label="{c:g}"]' if c is not None else ""
        lines.append(f'  "{node_label(t, names)}" -> "{node_label(h, names)}"{attr};')
    for v, w in bidirected:
        lines.append(f'  "{node_label(v, names)}" -> "{node_label(w, names)}" [dir=both];')
    lines.append("}")
    return "\n".join(lines)
