import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from varma_causal import (
    DirectedMixedGraph,
    SeparationQuery,
    augment,
    endo,
    latent_project,
    m_separated,
)
from reference import (
    adjacent, augmented_graph, d_separated_moral, edges_at, extend_separated_sets,
    is_m_connecting_path, m_separated_oracle, moralize, subgraph)
from conftest import random_admg, random_dag, random_query


@st.composite
def small_dags(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [endo(i, 0) for i in range(n)]
    perm = draw(st.permutations(range(n)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((nodes[perm[i]], nodes[perm[j]]))
    return DirectedMixedGraph(nodes, edges)


class TestAncestorAlgebra:
    @given(small_dags(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_idempotent_reflexive(self, g, data):
        nodes = list(g.nodes)
        small = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
        bigger = small | data.draw(st.sets(st.sampled_from(nodes)))
        an_small = set(g.ancestors(small))
        an_big = set(g.ancestors(bigger))
        assert an_small <= an_big
        assert small <= an_small
        assert set(g.ancestors(an_small)) == an_small
        de = set(g.descendants(small))
        assert small <= de
        assert set(g.descendants(de)) == de

    @given(small_dags())
    @settings(max_examples=60, deadline=None)
    def test_augment_equals_moralize_on_dags(self, g):
        assert augment(g) == moralize(g).edges


def brute_collider_connected(g, v, w):
    """DFS over simple paths whose intermediate nodes are all colliders."""
    if adjacent(g, v, w):
        return True

    def dfs(node, entered_head, on_path):
        for other, head_here, head_other in edges_at(g, node):
            if other in on_path:
                continue
            if not (entered_head and head_here):
                continue  # node must be a collider to extend through it
            if other == w:
                return True
            if dfs(other, head_other, on_path | {other}):
                return True
        return False

    for other, _, head_other in edges_at(g, v):
        if other == w:
            return True
        if dfs(other, head_other, {v, other}):
            return True
    return False


class TestAugmentOracle:
    def test_matches_brute_force_on_random_admgs(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            g = random_admg(rng, int(rng.integers(2, 7)))
            aug = augmented_graph(g)
            nodes = list(g.nodes)
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    expected = brute_collider_connected(g, nodes[i], nodes[j])
                    assert aug.has_edge(nodes[i], nodes[j]) == expected


class TestSeparationEquivalence:
    def test_dags_three_way_agreement(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 300:
            g = random_dag(rng, int(rng.integers(2, 10)), time_spread=2)
            q = random_query(rng, g)
            if q is None:
                continue
            nx_dag = nx.DiGraph(list(g.directed))
            nx_dag.add_nodes_from(g.nodes)
            oracle = m_separated_oracle(g, q)
            assert m_separated(g, q).separated == oracle
            assert d_separated_moral(g, q) == oracle
            assert nx.is_d_separator(nx_dag, set(q.a), set(q.c), set(q.b)) == oracle
            checked += 1

    def test_admgs_agree_with_oracle(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 300:
            g = random_admg(rng, int(rng.integers(2, 9)))
            q = random_query(rng, g)
            if q is None:
                continue
            result = m_separated(g, q)
            assert result.separated == m_separated_oracle(g, q)
            if not result.separated:
                assert is_m_connecting_path(g, result.witness, q.b)
                assert result.witness[0] in set(q.a)
                assert result.witness[-1] in set(q.c)
            checked += 1

    def test_latent_projection_preserves_separation(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 200:
            g = random_dag(rng, int(rng.integers(3, 9)))
            keep = [v for v in g.nodes if rng.random() < 0.6]
            if len(keep) < 2:
                continue
            proj = latent_project(g, keep)
            pool = list(keep)
            rng.shuffle(pool)
            b = pool[2:2 + int(rng.integers(0, 3))]
            q = SeparationQuery([pool[0]], b, [pool[1]])
            assert m_separated(g, q).separated == m_separated(proj, q).separated
            checked += 1


class TestExtensionProperty:
    def test_extension_keeps_separation(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 60:
            g = random_admg(rng, int(rng.integers(3, 9)), p_bi=0.15)
            q = random_query(rng, g)
            if q is None:
                continue
            # restrict to the ancestral closure so the precondition holds
            sub = subgraph(g, g.ancestors((*q.a, *q.b, *q.c)))
            if not m_separated(sub, q).separated:
                continue
            a_plus, c_plus = extend_separated_sets(sub, q)
            assert set(q.a) <= set(a_plus)
            assert set(q.c) <= set(c_plus)
            assert not (set(a_plus) & set(c_plus))
            assert set(a_plus) | set(q.b) | set(c_plus) == set(sub.nodes)
            q2 = SeparationQuery(a_plus, q.b, c_plus)
            assert m_separated(sub, q2).separated
            checked += 1
