import numpy as np
import pytest

from varma_causal import (
    EffectQuery,
    GraphError,
    ModelError,
    SeparationQuery,
    VarmaSpec,
    check_iv_conditions,
    cut_causal_edges,
    endo,
    full_time_window,
    marginalized_admg_window,
    stable_marginal_separation,
    total_causal_effect,
)
from varma_causal import effects, graphs
from test_model import random_stable_spec

X, Y = 0, 1


def brute_force_effect(spec, query):
    """Enumerate causal paths on the spanning window; sum coefficient products."""
    times = [v.time for v in (query.y, *query.x_set)]
    g = full_time_window(spec, min(times), max(times)).graph
    forbidden = set(query.x_set)
    out = []
    for x in query.x_set:
        total = 0.0
        stack = [(x, 1.0)]
        while stack:
            node, prod = stack.pop()
            for child in g.children(node):
                if child in forbidden:
                    continue
                value = prod * g.directed[(node, child)]
                if child == query.y:
                    total += value
                else:
                    stack.append((child, value))
        out.append(total)
    return np.array(out)


class TestTotalEffect:
    def test_varma_lagged_beta(self, varma_lagged_spec):
        query = EffectQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)))
        effect = total_causal_effect(varma_lagged_spec, query)
        assert np.max(np.abs(effect.beta - [1 / 3, 1 / 2])) < 1e-15

    def test_single_edge(self):
        spec = VarmaSpec(a=[np.zeros((2, 2)), [[0, 0], [0.7, 0]]], gamma=[1, 1])
        effect = total_causal_effect(spec, EffectQuery(endo(Y, 0), (endo(X, -1),)))
        assert effect.beta[0] == pytest.approx(0.7, abs=1e-15)

    def test_treatment_later_than_target_gets_zero(self, varma_lagged_spec):
        query = EffectQuery(endo(Y, -2), (endo(X, 0), endo(X, -3)))
        effect = total_causal_effect(varma_lagged_spec, query)
        assert effect.beta[0] == 0.0
        assert effect.beta[1] != 0.0

    def test_blocking_treatment_absorbs_paths(self, var_instant_spec):
        # every path X@-1 -> Y@0 passes X@0 or Y@-1 except the instantaneous
        # route; with both in the treatment set, X@-1 keeps no causal path
        query = EffectQuery(endo(Y, 0), (endo(X, -1), endo(X, 0), endo(Y, -1)))
        effect = total_causal_effect(var_instant_spec, query)
        assert effect.beta[0] == 0.0
        assert effect.beta[1] == pytest.approx(1 / 3)
        assert effect.beta[2] == pytest.approx(1 / 2)

    def test_matches_brute_force_on_random_specs(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            spec = random_stable_spec(rng)
            y = endo(int(rng.integers(0, spec.d)), 0)
            pool = [endo(i, -t) for i in range(spec.d) for t in range(3)]
            rng.shuffle(pool)
            xs = tuple(v for v in pool if v != y)[: int(rng.integers(1, 3))]
            query = EffectQuery(y, xs)
            got = total_causal_effect(spec, query).beta
            want = brute_force_effect(spec, query)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_window_enlargement_invariance(self, varma_lagged_spec):
        # adding an unreachable far-past treatment must not change the others
        base = EffectQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)))
        wide = EffectQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1), endo(X, -6)))
        b1 = total_causal_effect(varma_lagged_spec, base).beta
        b2 = total_causal_effect(varma_lagged_spec, wide).beta
        assert np.max(np.abs(b1 - b2[:2])) < 1e-15

    def test_query_validation(self):
        with pytest.raises(ModelError, match="treatment"):
            EffectQuery(endo(0, 0), (endo(0, 0),))
        with pytest.raises(ModelError, match="duplicate"):
            EffectQuery(endo(0, 0), (endo(1, 0), endo(1, 0)))


class TestCutCausalEdges:
    def test_varma_lagged_cut_set(self, varma_lagged_spec):
        query = EffectQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)))
        window = marginalized_admg_window(varma_lagged_spec, -3, 0)
        cut = cut_causal_edges(window, query)
        removed = set(window.graph.directed) - set(cut.directed)
        assert removed == {(endo(X, -1), endo(Y, 0)), (endo(Y, -1), endo(Y, 0))}
        assert (endo(X, -1), endo(X, 0)) in cut.directed
        assert cut.bidirected == window.graph.bidirected

    def test_no_causal_path_leaves_graph_unchanged(self, varma_lagged_spec):
        query = EffectQuery(endo(X, 0), (endo(Y, -2),))  # Y never feeds X
        window = marginalized_admg_window(varma_lagged_spec, -3, 0)
        cut = cut_causal_edges(window, query)
        assert set(cut.directed) == set(window.graph.directed)

    def test_chain_cuts_only_first_edge(self):
        spec = VarmaSpec(
            a=[np.zeros((3, 3)),
               np.array([[0, 0, 0], [0.4, 0, 0], [0, 0.4, 0]])],
            gamma=[1, 1, 1])
        window = full_time_window(spec, -2, 0)
        query = EffectQuery(endo(2, 0), (endo(0, -2),))
        cut = cut_causal_edges(window, query)
        assert (endo(0, -2), endo(1, -1)) not in cut.directed
        assert (endo(1, -1), endo(2, 0)) in cut.directed

    def test_cut_zeroes_all_causal_effects(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            spec = random_stable_spec(rng)
            y = endo(int(rng.integers(0, spec.d)), 0)
            pool = [endo(i, -t) for i in range(spec.d) for t in range(1, 3)]
            rng.shuffle(pool)
            xs = tuple(pool[: int(rng.integers(1, 3))])
            query = EffectQuery(y, xs)
            window = full_time_window(spec, min(v.time for v in xs), 0)
            cut = cut_causal_edges(window, query)
            forbidden = set(xs)
            for x in xs:  # no causal path may survive the cut
                stack = [x]
                seen = set()
                while stack:
                    node = stack.pop()
                    for child in cut.children(node):
                        if child in forbidden or child in seen:
                            continue
                        assert child != y
                        seen.add(child)
                        stack.append(child)

    def test_missing_node_error(self, varma_lagged_spec):
        window = marginalized_admg_window(varma_lagged_spec, -1, 0)
        query = EffectQuery(endo(Y, 0), (endo(X, -5),))
        with pytest.raises(GraphError, match="wider window"):
            cut_causal_edges(window, query)


class TestIvConditions:
    def test_single_instrument_fails_with_witness(self, varma_lagged_spec):
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1),), (endo(X, -2),))
        assert report.instrument_separated is False
        assert report.witness == (endo(X, -2), endo(Y, -1), endo(Y, 0))
        assert not report.all_hold

    def test_under_identified_flag(self, varma_lagged_spec):
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2),))
        assert report.under_identified
        assert not report.rank_ok

    def test_final_setup_all_hold(self, varma_lagged_spec):
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)))
        assert report.all_hold
        assert report.rank == 2
        assert report.stabilized
        assert not report.under_identified

    def test_report_serializes(self, varma_lagged_spec):
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)))
        data = report.to_dict()
        assert data["all_hold"] is True and data["window_used"][1] >= 0

    def test_condition2_detects_bad_conditioning(self, varma_lagged_spec):
        # Y@-1 is a treatment ancestor of b and spouse of descendant X@0
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1),), (endo(X, -3),),
            b_set=(endo(Y, -1),))
        assert report.confounding_free is False

    def test_overlapping_sets_rejected(self, varma_lagged_spec):
        with pytest.raises(ModelError, match="more than one"):
            check_iv_conditions(
                varma_lagged_spec, endo(Y, 0), (endo(X, -1),), (endo(X, -1),))

    def test_one_window_per_deepening_round(self, varma_lagged_spec, monkeypatch):
        # condition 2 reads the last window of the loop instead of rebuilding it
        calls = {"window": 0, "separation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(effects, "marginalized_admg_window",
                            counted("window", effects.marginalized_admg_window))
        monkeypatch.setattr(effects, "m_separated",
                            counted("separation", effects.m_separated))
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)), b_set=(endo(Y, -3),))
        assert report.stabilized and calls["separation"] >= 2
        assert calls["window"] == calls["separation"]

    def test_one_graph_per_deepening_round(self, varma_lagged_spec, monkeypatch):
        # the window is built in closed form and the verdict needs no derived
        # graph; the IV conditions add only the cut window
        calls = {"window": 0, "graph": 0}
        build_graph = graphs.DirectedMixedGraph.__init__
        build_window = effects.marginalized_admg_window

        def counted_graph(self, *args, **kwargs):
            calls["graph"] += 1
            build_graph(self, *args, **kwargs)

        def counted_window(*args, **kwargs):
            calls["window"] += 1
            return build_window(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("off the separation path")

        monkeypatch.setattr(graphs.DirectedMixedGraph, "__init__", counted_graph)
        monkeypatch.setattr(effects, "marginalized_admg_window", counted_window)
        monkeypatch.setattr(graphs, "augment", forbidden)
        monkeypatch.setattr(graphs, "latent_project", forbidden)

        query = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        _, _, stabilized = stable_marginal_separation(varma_lagged_spec, query)
        assert stabilized and calls["window"] >= 2
        assert calls["graph"] == calls["window"]

        calls.update(window=0, graph=0)
        report = check_iv_conditions(
            varma_lagged_spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)), b_set=(endo(Y, -3),))
        assert report.stabilized and calls["window"] >= 2
        assert calls["graph"] <= 2 * calls["window"]

    def test_window_too_small_error(self, varma_lagged_spec):
        window = marginalized_admg_window(varma_lagged_spec, -1, 0)
        with pytest.raises(GraphError, match="wider window"):
            check_iv_conditions(
                window, endo(Y, 0), (endo(X, -1),), (endo(X, -4),))


class TestStableSeparation:
    def test_known_separation_on_varma_lagged(self, varma_lagged_spec):
        q = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        result, window, stabilized = stable_marginal_separation(varma_lagged_spec, q)
        assert result.separated and stabilized
        assert window[1] == 0

    def test_translation_consistency(self, varma_lagged_spec):
        q1 = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        q2 = SeparationQuery([endo(X, 5)], [endo(X, 4), endo(Y, 4)], [endo(Y, 5)])
        r1, _, _ = stable_marginal_separation(varma_lagged_spec, q1)
        r2, _, _ = stable_marginal_separation(varma_lagged_spec, q2)
        assert r1.separated == r2.separated
