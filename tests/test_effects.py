import itertools

import networkx as nx
import numpy as np
import pytest

from varma_causal import (
    CoefficientSampler,
    EffectQuery,
    GraphError,
    ModelError,
    SeparationQuery,
    VarmaSpec,
    check_iv_conditions,
    cut_causal_edges,
    endo,
    full_time_window,
    is_m_connecting_path,
    m_separated,
    marginalized_admg_window,
    sample_stable_spec,
    stable_marginal_separation,
    total_causal_effect,
)
from varma_causal import effects, graphs, model, simulation
from reference import deepening_separation
from test_acceptance import mixed_sampler
from test_model import random_stable_spec

X, Y = 0, 1


def brute_force_effect(spec, query):
    """Enumerate causal paths on the spanning window; sum coefficient products."""
    times = [v.time for v in (query.y, *query.x_set)]
    g = full_time_window(spec, min(times), max(times))
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
        removed = set(window.directed) - set(cut.directed)
        assert removed == {(endo(X, -1), endo(Y, 0)), (endo(Y, -1), endo(Y, 0))}
        assert (endo(X, -1), endo(X, 0)) in cut.directed
        assert cut.bidirected == window.bidirected

    def test_no_causal_path_leaves_graph_unchanged(self, varma_lagged_spec):
        query = EffectQuery(endo(X, 0), (endo(Y, -2),))  # Y never feeds X
        window = marginalized_admg_window(varma_lagged_spec, -3, 0)
        cut = cut_causal_edges(window, query)
        assert set(cut.directed) == set(window.directed)

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

    def test_no_window_graph_and_one_compile_per_spec(self, monkeypatch):
        # separation and the IV conditions run on the compiled records:
        # no graph is built, nothing is projected, the spec compiles and
        # validates once, not once per deepening round
        spec = VarmaSpec(
            a=[np.zeros((2, 2)), [[1 / 2, 0], [1 / 3, 1 / 2]]],
            b=[[[0, 1 / 4], [0, 0]]], gamma=[1, 1])
        compiles, validations = [], []
        compile_admg, validate = model._MarginalizedAdmg.__init__, model.validate

        def counted_compile(self, *args, **kwargs):
            compiles.append(args)
            compile_admg(self, *args, **kwargs)

        def counted_validate(*args, **kwargs):
            validations.append(args)
            return validate(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("off the separation path")

        monkeypatch.setattr(model, "validate", counted_validate)
        monkeypatch.setattr(model._MarginalizedAdmg, "__init__", counted_compile)
        monkeypatch.setattr(graphs.DirectedMixedGraph, "__init__", forbidden)
        for module in (model, graphs, effects):
            for name in ("marginalized_admg_window", "latent_project", "augment"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)

        query = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        first, _, stabilized = stable_marginal_separation(spec, query)
        assert first.separated and stabilized
        shifted = SeparationQuery([endo(X, 3)], [endo(Y, 2)], [endo(Y, 5)])
        assert not stable_marginal_separation(spec, shifted)[0].separated
        assert len(validations) == 1
        report = check_iv_conditions(
            spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)), b_set=(endo(Y, -3),))
        assert report.stabilized
        assert len(compiles) == 1
        assert len(validations) == 1

    def test_condition2_spouses_are_one_step(self):
        # De(x ∪ y) reaches back to X@-1 and Y@-1; one bi-directed step adds
        # X@-2 and Y@-2, outside An(b) = {X@t : t <= -3}, while a second
        # step X@-2 <-> X@-3 would enter it
        spec = VarmaSpec([[[0, 0], [0, 0]], [[-0.42, 0], [-0.31, 0]]],
                         [[[-0.38, 0], [-0.43, -0.29]]], [1, 1])
        report = check_iv_conditions(
            spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)), b_set=(endo(X, -3),))
        assert report.confounding_free is True


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

    @pytest.mark.parametrize("spec, first", [
        # S0@t <-> S1@t and S0@t <-> S1@(t-1) through the MA loadings of e1
        (VarmaSpec(a=[np.zeros((2, 2))], b=[[[0, 0.5], [0, 0.5]]], gamma=[1, 1]), endo(1, -3)),
        # S1@t -> S0@t and S1@(t-1) -> S0@t
        (VarmaSpec(a=[[[0, 0.5], [0, 0]], [[0, 0.5], [0, 0]]], gamma=[1, 1]), endo(1, -4)),
    ])
    def test_templates_break_witness_ties_like_windows(self, spec, first):
        # compiled records follow graphs._incidence, as finite graphs do: see
        # test_graphs.TestWitnessTieBreak for the same pairs in a finite graph
        q = SeparationQuery([endo(0, -3)], [], [endo(1, -3), endo(1, -4)])
        result, window, _ = stable_marginal_separation(spec, q)
        assert result.witness == (endo(0, -3), first)
        assert m_separated(marginalized_admg_window(spec, *window), q) == result


def sampled_query_specs(rng, count):
    return [sample_stable_spec(
        CoefficientSampler(d=1 + k % 3, p=1 + k % 2, q=k % 3, sparsity=0.65), rng)
        for k in range(count)]


def draw_iv_sets(rng, d):
    y = endo(int(rng.integers(0, d)), 0)
    pool = [endo(i, -t) for t in range(1, 5) for i in range(d)]
    rng.shuffle(pool)
    nx, ni, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(0, 2))
    return y, tuple(pool[:nx]), tuple(pool[nx:nx + ni]), tuple(pool[nx + ni:nx + ni + nb])


class TestWindowOracle:
    """The compiled rounds against m_separated on materialized windows.

    Both run the same separation core, so these pin the window arithmetic
    and the cut; TestNetworkxOracle is the independent check of verdicts.
    """

    def test_each_round_matches_its_window(self, monkeypatch):
        rounds = effects.MAX_STABILIZATION_ROUNDS
        monkeypatch.setattr(effects, "MAX_STABILIZATION_ROUNDS", 1)
        rng = np.random.default_rng(606)
        for spec in sampled_query_specs(rng, 12):
            lag = max(spec.max_lag, 1)
            for _ in range(4):
                query = simulation._draw_query(rng, spec.d, 5)
                nodes = (*query.a, *query.b, *query.c)
                top = max(v.time for v in nodes)
                start = min(v.time for v in nodes) - (spec.max_lag + 1) * (spec.d + 1)
                for bottom in range(start, start - rounds * lag, -lag):
                    result, window, _ = stable_marginal_separation(spec, query, t_min=bottom)
                    assert window == (bottom, top)
                    assert result == m_separated(
                        marginalized_admg_window(spec, bottom, top), query)

    def test_each_iv_round_matches_its_cut_window(self, monkeypatch):
        rounds = effects.MAX_STABILIZATION_ROUNDS
        monkeypatch.setattr(effects, "MAX_STABILIZATION_ROUNDS", 1)
        rng = np.random.default_rng(607)
        for spec in sampled_query_specs(rng, 12):
            lag = max(spec.max_lag, 1)
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                query = SeparationQuery(instruments, b, (y,))
                nodes = (y, *xs, *instruments, *b)
                top = max(v.time for v in nodes) + spec.q
                start = min(v.time for v in nodes) - (spec.max_lag + 1) * (spec.d + 1)
                for bottom in range(start, start - rounds * lag, -lag):
                    result, window, _ = effects._deepening_separation(
                        spec, query, nodes, top, bottom, cut=EffectQuery(y, xs))
                    assert window == (bottom, top)
                    cut = cut_causal_edges(
                        marginalized_admg_window(spec, bottom, top), EffectQuery(y, xs))
                    assert result == m_separated(cut, query)

    def test_one_pass_matches_fresh_rounds(self):
        # the criterion-07 queries (seed 707) and, on each of their specs,
        # the cut separation of _iv_report: one pass extended across the
        # windows against a fresh pass per window, from the default first
        # window and from the narrowest one, which the verdicts outgrow
        rounds = []
        for trial in range(200):
            rng = np.random.default_rng((707, trial))
            spec = mixed_sampler(rng)
            calls = [simulation._draw_query(rng, spec.d, 5) for _ in range(20)]
            calls = [(query, (*query.a, *query.b, *query.c), 0, None) for query in calls]
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                nodes = (y, *xs, *instruments, *b)
                calls.append((SeparationQuery(instruments, b, (y,)), nodes, spec.q,
                              EffectQuery(y, xs)))
            for (query, nodes, above, cut), narrowest in itertools.product(calls, (False, True)):
                top = max(v.time for v in nodes) + above
                t_min = min(v.time for v in nodes) if narrowest else None
                *fresh, verdicts = deepening_separation(spec, query, nodes, top, t_min, cut)
                assert list(effects._deepening_separation(
                    spec, query, nodes, top, t_min, cut)) == fresh
                # a connecting path stays open in every deeper window, so
                # the verdicts settle by the third window
                assert verdicts == sorted(verdicts, reverse=True)
                rounds.append(len(verdicts))
        assert len(rounds) == 9600 and set(rounds) == {2, 3}

    def test_iv_report_matches_its_last_window(self):
        rng = np.random.default_rng(608)
        for spec in sampled_query_specs(rng, 12):
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                report = check_iv_conditions(spec, y, xs, instruments, b)
                g = marginalized_admg_window(spec, *report.window_used)
                cut = cut_causal_edges(g, EffectQuery(y, xs))
                result = m_separated(cut, SeparationQuery(instruments, b, (y,)))
                assert (report.instrument_separated, report.witness) == (
                    result.separated, result.witness)
                an_b = set(g.ancestors(b)) if b else set()
                sp_de = {s for v in g.descendants((y, *xs)) for s in g.spouses(v)}
                assert report.confounding_free == (not an_b & sp_de)


def networkx_full_time_dag(spec, t_min, t_max):
    """The process's full-time DAG with innovation nodes on [t_min, t_max],
    read off the spec's matrices: S_j@(t-k) -> S_i@t iff A_k[i, j] != 0,
    e_i@t -> S_i@t, and e_j@(t-l) -> S_i@t iff B_l[i, j] != 0."""
    dag = nx.DiGraph()
    for t in range(t_min, t_max + 1):
        for i in range(spec.d):
            dag.add_edge(("e", i, t), ("s", i, t))
            for k, mat in enumerate(spec.a):
                dag.add_edges_from((("s", int(j), t - k), ("s", i, t))
                                   for j in np.flatnonzero(mat[i]) if t - k >= t_min)
            for l, mat in enumerate(spec.b, start=1):
                dag.add_edges_from((("e", int(j), t - l), ("s", i, t))
                                   for j in np.flatnonzero(mat[i]) if t - l >= t_min)
    return dag


class TestNetworkxOracle:
    """The infinite-graph verdicts against networkx on a deep full-time DAG,
    which shares no code with the library."""

    def test_verdicts_and_witnesses(self):
        rng = np.random.default_rng(909)
        verdicts = set()
        for d, p, q in [(d, p, q) for d in (1, 2, 3) for p in (1, 2) for q in (0, 1, 2)] * 2:
            spec = sample_stable_spec(CoefficientSampler(d=d, p=p, q=q, sparsity=0.65), rng)
            lag = max(spec.max_lag, 1)
            dag = networkx_full_time_dag(spec, -5 - 4 * lag * (d + 1), 0)
            for _ in range(8):
                query = simulation._draw_query(rng, d, 5)
                result, window, _ = stable_marginal_separation(spec, query)
                a, b, c = ({("s", v.component, v.time) for v in s}
                           for s in (query.a, query.b, query.c))
                assert result.separated == nx.is_d_separator(dag, a, c, b)
                verdicts.add(result.separated)
                if not result.separated:
                    path = result.witness
                    assert path[0] in query.a and path[-1] in query.c
                    assert is_m_connecting_path(
                        marginalized_admg_window(spec, *window), path, query.b)
        assert verdicts == {True, False}


def shifted(nodes, s):
    return tuple(endo(v.component, v.time + s) for v in nodes)


class TestIntegerCoding:
    """Edge cases of the t·d + i node codes of the separation core."""

    @pytest.mark.parametrize("s", [10**6, -10**6, -37])
    def test_translated_queries(self, s):
        # floor // and % decode negative codes: far from 0 the verdicts,
        # witnesses, windows and IV reports are the translated ones
        rng = np.random.default_rng(910)
        for spec in sampled_query_specs(rng, 9):
            for _ in range(4):
                query = simulation._draw_query(rng, spec.d, 5)
                result, (lo, hi), stabilized = stable_marginal_separation(spec, query)
                moved, window, moved_stabilized = stable_marginal_separation(
                    spec, SeparationQuery(*(shifted(n, s) for n in (query.a, query.b, query.c))))
                assert moved.separated == result.separated
                assert moved.witness == (result.witness and shifted(result.witness, s))
                assert (window, moved_stabilized) == ((lo + s, hi + s), stabilized)
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                report = check_iv_conditions(spec, y, xs, instruments, b)
                moved = check_iv_conditions(spec, *shifted((y,), s), shifted(xs, s),
                                            shifted(instruments, s), shifted(b, s))
                assert moved.window_used == tuple(t + s for t in report.window_used)
                assert moved.witness == (report.witness and shifted(report.witness, s))
                assert (moved.instrument_separated, moved.confounding_free, moved.stabilized) == (
                    report.instrument_separated, report.confounding_free, report.stabilized)

    def test_one_component(self):
        # d = 1: the code is the time itself
        query = SeparationQuery([endo(0, 0)], [endo(0, -1), endo(0, -2)], [endo(0, -3)])
        verdicts = []
        for ma in ([], [[[0.4]]]):
            spec = VarmaSpec([[[0]], [[0.5]], [[-0.2]]], ma, [1])
            result, window, stabilized = stable_marginal_separation(spec, query)
            assert stabilized
            assert result == m_separated(marginalized_admg_window(spec, *window), query)
            verdicts.append(result.separated)
        # two past values screen off an AR(2), not an ARMA(2, 1)
        assert verdicts == [True, False]

    def test_offsets_wrapping_across_a_time_slice(self):
        # S2@-1 -> S0@0 has code offset +1 and S0@-1 -> S2@0 offset -1: both
        # cross a slice boundary between components 0 and d-1
        a1 = np.zeros((3, 3))
        a1[0, 2], a1[2, 0] = 0.5, 0.4
        spec = VarmaSpec([np.zeros((3, 3)), a1], gamma=[1, 1, 1])
        admg = spec._admg
        neighbours = {(admg.node(off), here, there) for off, here, there in admg.records[0]}
        assert neighbours == {(endo(2, -1), True, False), (endo(2, 1), False, True)}
        chain = SeparationQuery([endo(0, -2)], [], [endo(0, 0)])
        result, window, _ = stable_marginal_separation(spec, chain)
        assert result.witness == (endo(0, -2), endo(2, -1), endo(0, 0))
        assert result == m_separated(marginalized_admg_window(spec, *window), chain)
        blocked = SeparationQuery([endo(0, -2)], [endo(2, -1)], [endo(0, 0)])
        assert stable_marginal_separation(spec, blocked)[0].separated

    def test_cut_at_the_window_bottom(self, varma_lagged_spec, monkeypatch):
        # the treatment X@-2 is the earliest node, so the window starting
        # there has the cut edges X@-2 -> X@-1 and X@-2 -> Y@-1 at its bottom
        monkeypatch.setattr(effects, "MAX_STABILIZATION_ROUNDS", 1)
        y, xs = endo(Y, 0), (endo(X, -2),)
        g = marginalized_admg_window(varma_lagged_spec, -2, 1)
        cut = cut_causal_edges(g, EffectQuery(y, xs))
        assert set(g.directed) - set(cut.directed) == {
            (endo(X, -2), endo(X, -1)), (endo(X, -2), endo(Y, -1))}
        for instruments, b in ((endo(X, -1),), ()), ((endo(Y, -1),), (endo(X, -1),)):
            query = SeparationQuery(instruments, b, (y,))
            nodes = (y, *xs, *instruments, *b)
            result, window, _ = effects._deepening_separation(
                varma_lagged_spec, query, nodes, 1, -2, cut=EffectQuery(y, xs))
            assert window == (-2, 1)
            assert result == m_separated(cut, query)
