"""Reference separation deciders, kept apart from the library as test oracles.

``m_separated_oracle`` enumerates simple paths and ``d_separated_moral``
applies the moralized-ancestral-graph criterion. Of the library's separation
core they share only the ancestor sets of ``DirectedMixedGraph``.
"""

from varma_causal.errors import GraphError
from varma_causal.graphs import DirectedMixedGraph, SeparationQuery, UndirectedGraph


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
