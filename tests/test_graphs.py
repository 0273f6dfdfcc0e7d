import json

import pytest
from hypothesis import given, settings, strategies as st

from varma_causal import (
    ENDOGENOUS,
    INNOVATION,
    DirectedMixedGraph,
    GraphError,
    ModelError,
    SeparationQuery,
    TimedNode,
    augment,
    endo,
    full_time_window,
    graph_from_json,
    graph_to_json,
    innov,
    latent_project,
    m_separated,
    marginalized_admg_window,
    node_from_json,
    node_label,
    node_to_json,
    parse_node_ref,
    rewritten_full_time_window,
    to_dot,
)
from reference import (
    augmented_graph, extend_separated_sets, is_m_connecting_path, m_separated_oracle, moralize)
from conftest import decoded_records

X, Y = 0, 1


def chain(*names):
    nodes = [endo(i, 0) for i in range(len(names))]
    return nodes, DirectedMixedGraph(
        nodes, [(nodes[i], nodes[i + 1]) for i in range(len(names) - 1)]
    )


class TestConstruction:
    def test_cycle_rejected(self):
        a, b = endo(0, 0), endo(1, 0)
        with pytest.raises(GraphError, match="cycle"):
            DirectedMixedGraph([a, b], [(a, b), (b, a)])

    def test_self_loops_rejected(self):
        a = endo(0, 0)
        with pytest.raises(GraphError, match="self-loop"):
            DirectedMixedGraph([a], [(a, a)])
        with pytest.raises(GraphError, match="self-loop"):
            DirectedMixedGraph([a], [], [(a, a)])

    def test_unknown_node_rejected(self):
        a = endo(0, 0)
        with pytest.raises(GraphError, match="unknown node"):
            DirectedMixedGraph([a], [(a, endo(5, 0))])

    def test_parallel_directed_and_bidirected_allowed(self):
        a, b = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, b], [(a, b, 0.5)], [(a, b)])
        assert (a, b) in g.directed and frozenset((a, b)) in g.bidirected

    def test_nodes_sorted_by_time_component_kind(self):
        g = DirectedMixedGraph([endo(1, 0), endo(0, -1), innov(0, -1)])
        assert g.nodes == (endo(0, -1), innov(0, -1), endo(1, 0))


class TestNeighborhoods:
    def test_ancestors_chain(self):
        (a, b, c), g = chain("a", "b", "c")
        assert g.ancestors([c]) == (a, b, c)

    def test_bidirected_carries_no_ancestry(self):
        a, b = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, b], [], [(a, b)])
        assert g.ancestors([b]) == (b,)

    def test_ancestors_var_instant_window(self, var_instant_spec):
        g = full_time_window(var_instant_spec, -2, 0)
        anc = g.ancestors([endo(Y, 0)])
        assert set(anc) == {endo(i, t) for i in (X, Y) for t in (-2, -1, 0)}

    def test_unknown_node_in_ancestors(self):
        (_, _, c), g = chain("a", "b", "c")
        with pytest.raises(GraphError, match="unknown node"):
            g.ancestors([endo(9, 9)])

    def test_spouses_include_self(self):
        a, b = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, b], [], [(a, b)])
        assert g.spouses(a) == (a, b)

    def test_spouses_without_bidirected(self):
        (a, b, c), g = chain("a", "b", "c")
        for v in (a, b, c):
            assert g.spouses(v) == (v,)

    def test_spouses_marginalized_window(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -2, 0)
        assert g.spouses(endo(X, 0)) == (endo(Y, -1), endo(X, 0))


class TestMoralizeAugment:
    def test_collider_marries_parents(self):
        x, y, z = endo(0, 0), endo(1, 0), endo(2, 0)
        g = DirectedMixedGraph([x, y, z], [(x, z), (y, z)])
        moral = moralize(g)
        assert moral.has_edge(x, y) and moral.has_edge(x, z) and moral.has_edge(y, z)

    def test_chain_adds_no_edges(self):
        (a, b, c), g = chain("a", "b", "c")
        moral = moralize(g)
        assert moral.edges == {frozenset((a, b)), frozenset((b, c))}

    def test_moralize_rejects_bidirected(self):
        a, b = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, b], [], [(a, b)])
        with pytest.raises(GraphError, match="augment"):
            moralize(g)

    def test_varma_instant_window_marriage(self, varma_instant_spec):
        g = full_time_window(varma_instant_spec, -1, 0, include_innovations=True)
        moral = moralize(g)
        # X@-1 and Y@-1 share the child Y@0; eps(Y)@0 and X@0 do too
        assert moral.has_edge(endo(X, -1), endo(Y, -1))
        assert moral.has_edge(innov(Y, 0), endo(X, 0))

    def test_augment_equals_moralize_on_dag(self, var_instant_spec):
        g = full_time_window(var_instant_spec, -2, 0)
        assert augment(g) == moralize(g).edges

    def test_bidirected_chain_collider_connected(self):
        x, y, z = endo(0, 0), endo(1, 0), endo(2, 0)
        g = DirectedMixedGraph([x, y, z], [], [(x, y), (y, z)])
        aug = augmented_graph(g)
        assert aug.has_edge(x, y) and aug.has_edge(y, z) and aug.has_edge(x, z)


class TestSeparation:
    def test_var_instant_reference_query_separated(self, var_instant_spec):
        g = full_time_window(var_instant_spec, -2, 0)
        q = SeparationQuery([endo(Y, 0)], [endo(X, 0), endo(Y, -1)], [endo(X, -1)])
        assert m_separated(g, q).separated
        assert m_separated_oracle(g, q)

    def test_var_instant_rewritten_query_connected(self, var_instant_spec):
        # the rewrite adds X@-1 -> Y@0, so the same query is connected there
        g = rewritten_full_time_window(var_instant_spec, -2, 0,
                                       include_innovations=False)
        q = SeparationQuery([endo(Y, 0)], [endo(X, 0), endo(Y, -1)], [endo(X, -1)])
        result = m_separated(g, q)
        assert not result.separated
        assert result.witness == (endo(Y, 0), endo(X, -1))
        assert not m_separated_oracle(g, q)

    def test_marginalized_rewrite_query_connected(self, varma_instant_spec):
        # in the rewritten marginalized ADMG, X@0 <-> Y@0 links the pair
        g = marginalized_admg_window(varma_instant_spec, -2, 0, rewritten=True)
        q = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        result = m_separated(g, q)
        assert result.separated is False
        assert m_separated_oracle(g, q) is False
        assert is_m_connecting_path(g, result.witness, q.b)

    def test_marginalized_original_query_separated(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -2, 0)
        q = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        assert m_separated(g, q).separated is True
        assert m_separated_oracle(g, q) is True

    def test_witness_is_connecting_path(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -3, 0)
        q = SeparationQuery([endo(X, -2)], [], [endo(Y, 0)])
        result = m_separated(g, q)
        assert not result.separated
        assert result.witness[0] == endo(X, -2)
        assert result.witness[-1] == endo(Y, 0)
        assert is_m_connecting_path(g, result.witness, q.b)

    def test_overlapping_sets_rejected(self):
        a, b = endo(0, 0), endo(1, 0)
        with pytest.raises(GraphError, match="disjoint"):
            SeparationQuery([a], [a], [b])

    def test_oracle_single_edge_and_disconnected(self):
        a, c = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, c], [(a, c)])
        assert m_separated_oracle(g, SeparationQuery([a], [], [c])) is False
        g2 = DirectedMixedGraph([a, c])
        assert m_separated_oracle(g2, SeparationQuery([a], [], [c])) is True

    def test_oracle_path_guard(self):
        # complete DAG minus the direct edge: all 0-to-7 paths run through the
        # conditioned middle layer, so enumeration must visit them all
        nodes = [endo(i, 0) for i in range(8)]
        edges = [
            (nodes[i], nodes[j])
            for i in range(8) for j in range(i + 1, 8)
            if (i, j) != (0, 7)
        ]
        g = DirectedMixedGraph(nodes, edges)
        q = SeparationQuery([nodes[0]], nodes[1:7], [nodes[7]])
        with pytest.raises(GraphError, match="exceeded"):
            m_separated_oracle(g, q, max_paths=20)


class TestWitnessTieBreak:
    """Incidence order breaks ties between equally short witnesses: directed
    edges by (tail, head) under node_sort_key, time first; bi-directed pairs,
    each time-sorted, compared as TimedNode tuples, component first."""

    S0, S1_now, S1_earlier = endo(0, -3), endo(1, -3), endo(1, -4)
    QUERY = SeparationQuery([S0], [], [S1_now, S1_earlier])

    def test_bidirected_pairs_compare_component_first(self):
        g = DirectedMixedGraph([self.S0, self.S1_now, self.S1_earlier], bidirected=[
            (self.S0, self.S1_now), (self.S0, self.S1_earlier)])
        # (S0@-3, S1@-3) sorts before (S1@-4, S0@-3): component 0 < 1
        assert [w for w, _, _ in decoded_records(g, self.S0)] == [self.S1_now, self.S1_earlier]
        assert m_separated(g, self.QUERY).witness == (self.S0, self.S1_now)

    def test_directed_edges_compare_time_first(self):
        g = DirectedMixedGraph([self.S0, self.S1_now, self.S1_earlier], [
            (self.S1_now, self.S0), (self.S1_earlier, self.S0)])
        assert [w for w, _, _ in decoded_records(g, self.S0)] == [self.S1_earlier, self.S1_now]
        assert m_separated(g, self.QUERY).witness == (self.S0, self.S1_earlier)

    def test_json_lists_bidirected_pairs_time_first(self):
        g = DirectedMixedGraph([self.S0, self.S1_now, self.S1_earlier], bidirected=[
            (self.S0, self.S1_now), (self.S0, self.S1_earlier)])
        pairs = [[(d["component"], d["time"]) for d in pair]
                 for pair in graph_to_json(g)["bidirected"]]
        assert pairs == [[(1, -4), (0, -3)], [(0, -3), (1, -3)]]


class TestExtension:
    def test_two_components_unique(self):
        (a, b, c), g = chain("a", "b", "c")
        q = SeparationQuery([a], [b], [c])
        a_plus, c_plus = extend_separated_sets(g, q)
        assert a_plus == (a,) and c_plus == (c,)

    def test_already_full_unchanged(self):
        (a, b, c), g = chain("a", "b", "c")
        q = SeparationQuery([a], [b], [c])
        a_plus, c_plus = extend_separated_sets(g, q)
        assert set(a_plus) | set(q.b) | set(c_plus) == set(g.nodes)

    def test_leftovers_go_to_first_set(self):
        # d is an ancestor of b2 but its component holds neither a nor c
        a, b1, c, d, b2 = (endo(i, 0) for i in range(5))
        g = DirectedMixedGraph([a, b1, c, d, b2], [(a, b1), (d, b2)])
        q = SeparationQuery([a], [b1, b2], [c])
        a_plus, c_plus = extend_separated_sets(g, q)
        assert d in a_plus and d not in c_plus
        assert c_plus == (c,)

    def test_precondition_violations(self):
        a, b, c = endo(0, 0), endo(1, 0), endo(2, 0)
        g = DirectedMixedGraph([a, b, c], [(a, b), (b, c)])
        with pytest.raises(GraphError, match="separated"):
            extend_separated_sets(g, SeparationQuery([a], [], [c]))
        d = endo(3, 0)
        g2 = DirectedMixedGraph([a, b, c, d], [(a, b)])  # d outside the closure
        with pytest.raises(GraphError, match="ancestors"):
            extend_separated_sets(g2, SeparationQuery([a], [b], [c]))


class TestLatentProjection:
    def test_identity_when_all_kept(self):
        (a, b, c), g = chain("a", "b", "c")
        proj = latent_project(g, [a, b, c])
        assert dict(proj.directed) == dict(g.directed)
        assert not proj.bidirected

    def test_latent_confounder(self):
        u, v, w = endo(0, 0), endo(1, 0), endo(2, 0)
        g = DirectedMixedGraph([u, v, w], [(u, v), (u, w)])
        proj = latent_project(g, [v, w])
        assert not proj.directed
        assert proj.bidirected == frozenset({frozenset((v, w))})

    def test_latent_chain_becomes_directed_edge(self):
        (a, b, c), g = chain("a", "b", "c")
        proj = latent_project(g, [a, c])
        assert (a, c) in proj.directed and not proj.bidirected

    def test_rejects_admg_input(self):
        a, b = endo(0, 0), endo(1, 0)
        g = DirectedMixedGraph([a, b], [], [(a, b)])
        with pytest.raises(GraphError, match="DAG"):
            latent_project(g, [a])

    def test_varma_instant_rewritten_projection_edges(self, varma_instant_spec):
        # projecting the rewritten full-time DAG over the endogenous nodes
        # yields both bi-directed families of the rewritten marginalized ADMG
        window = rewritten_full_time_window(varma_instant_spec, -2, 0)
        keep = [v for v in window.nodes if v.kind == "endogenous"]
        proj = latent_project(window, keep)
        assert frozenset((endo(Y, -1), endo(X, 0))) in proj.bidirected
        assert frozenset((endo(X, 0), endo(Y, 0))) in proj.bidirected
        assert frozenset((endo(Y, -1), endo(Y, 0))) in proj.bidirected


class TestSerialization:
    def test_json_round_trip(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -2, 0)
        g2 = graph_from_json(graph_to_json(g))
        assert g2.nodes == g.nodes
        assert dict(g2.directed) == dict(g.directed)
        assert g2.bidirected == g.bidirected

    def test_dot_contains_both_edge_kinds(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -1, 0)
        dot = to_dot(g, ["X", "Y"])
        assert '"X@-1" -> "X@0"' in dot
        assert '"Y@-1" -> "X@0" [dir=both];' in dot


@st.composite
def nodes_and_names(draw):
    """A timed node of either kind, with model names (unique, some of them
    digits or holding '@') or without."""
    names = draw(st.none() | st.lists(st.text("XYZab_09@", min_size=1, max_size=3),
                                      min_size=1, max_size=6, unique=True))
    component = draw(st.integers(0, len(names) - 1 if names else 40))
    time = draw(st.integers(-10**6, 10**6))
    return TimedNode(component, time, draw(st.sampled_from([ENDOGENOUS, INNOVATION]))), names


class TestNodeCodec:
    @given(nodes_and_names())
    @settings(max_examples=300, deadline=None)
    def test_both_forms_round_trip(self, case):
        node, names = case
        assert node_from_json(json.loads(json.dumps(node_to_json(node)))) == node
        assert parse_node_ref(node_label(node, names), names=names) == node

    def test_text_forms(self):
        assert node_label(innov(X, -2), ["X", "Y"]) == "e(X)@-2"
        assert node_label(innov(Y, 3)) == "e(1)@3" and node_label(endo(Y, 0)) == "1@0"
        assert node_from_json({"component": 1, "lag": -3}) == endo(Y, -3)

    @pytest.mark.parametrize("data", [
        {"component": 0, "time": 0, "kind": "latent"},
        {"component": 0, "kind": ENDOGENOUS},
        {"time": 0, "kind": ENDOGENOUS},
        {"component": 0, "time": 1.5},
        {"component": 0, "time": "0"},
        {"component": -1, "time": 0},
        [0, -2, ENDOGENOUS],
        None,
    ], ids=["unknown-kind", "missing-time", "missing-component", "float-time",
            "string-time", "negative-component", "list", "null"])
    def test_json_reader_rejects(self, data):
        with pytest.raises(GraphError):
            node_from_json(data)

    def test_graph_reader_rejects_a_missing_key(self):
        with pytest.raises(GraphError, match="'nodes'"):
            graph_from_json({})

    @pytest.mark.parametrize("ref", ["Z@0", "e(Z)@0", "X@1.5", "X@", "X", "-1@0"])
    def test_text_reader_rejects(self, ref):
        with pytest.raises(ModelError):
            parse_node_ref(ref, names=["X", "Y"])
