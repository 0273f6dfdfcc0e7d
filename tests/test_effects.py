import dataclasses
import itertools
import math

import networkx as nx
import numpy as np
import pytest

from varma_causal import (
    CoefficientSampler,
    EffectQuery,
    GraphError,
    ModelError,
    SeparationQuery,
    SeparationResult,
    VarmaSpec,
    check_iv_conditions,
    endo,
    full_time_window,
    m_separated,
    marginalized_admg_window,
    sample_stable_spec,
    stable_marginal_separation,
    total_causal_effect,
)
from varma_causal import effects, graphs, model, simulation
from reference import (
    DEEPENING_ROUNDS, cut_causal_edges, deepening_separation, is_m_connecting_path,
    iv_report_walking_every_b, window_pass, window_separation)
from test_acceptance import mixed_sampler
from test_model import random_stable_spec

X, Y = 0, 1


def causal_paths(spec, query):
    """(k, coefficient product) for each causal path from x_k to y, enumerated
    on the window spanning the query."""
    times = [v.time for v in (query.y, *query.x_set)]
    g = full_time_window(spec, min(times), max(times))
    forbidden = set(query.x_set)
    for k, x in enumerate(query.x_set):
        stack = [(x, 1.0)]
        while stack:
            node, prod = stack.pop()
            for child in g.children(node):
                if child in forbidden:
                    continue
                value = prod * g.directed[(node, child)]
                if child == query.y:
                    yield k, value
                else:
                    stack.append((child, value))


def brute_force_effect(spec, query):
    """Sum the coefficient products of the enumerated causal paths."""
    out = np.zeros(len(query.x_set))
    for k, value in causal_paths(spec, query):
        out[k] += value
    return out


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

    def test_exact_zero_iff_no_causal_path(self):
        # a treatment whose every path to y passes another treatment has
        # path sums that cancel in the solve only up to rounding; its entry
        # must be 0.0 exactly, and every other entry must not be
        rng = np.random.default_rng(44)
        zeros = 0
        for _ in range(60):
            spec = random_stable_spec(rng)
            y = endo(int(rng.integers(0, spec.d)), 0)
            pool = [endo(i, -t) for i in range(spec.d) for t in range(-1, 4)]
            rng.shuffle(pool)
            xs = tuple(v for v in pool if v != y)[: int(rng.integers(1, 8))]
            query = EffectQuery(y, xs)
            beta = total_causal_effect(spec, query).beta
            reached = {k for k, _ in causal_paths(spec, query)}
            assert [b != 0.0 for b in beta] == [k in reached for k in range(len(xs))]
            zeros += len(xs) - len(reached)
        assert zeros > 40

    def test_zeros_at_thousands_of_lags(self, varma_lagged_spec):
        # Y never feeds X: an exact 0 at any span. The paths from 1,000 lags
        # back to Y@0 sum to about 1e-299, still non-zero; near 1,100 lags
        # they underflow to 0.0, which the docstring states
        for lag in (1_000, 5_000):
            query = EffectQuery(endo(X, 0), (endo(Y, -lag), endo(X, -3)))
            assert total_causal_effect(varma_lagged_spec, query).beta[0] == 0.0
        far = EffectQuery(endo(Y, 0), (endo(X, -1_000), endo(Y, -1_000)))
        assert (total_causal_effect(varma_lagged_spec, far).beta != 0.0).all()

    @pytest.mark.parametrize("lags", [
        [[[0, 0], [0.6, 0]]],  # p = 0: pure MA, no response beyond lag 0
        [[[0, 0], [0.6, 0]], [[0.5, 0], [0.3, 0.4]]],  # p = 1
    ])
    def test_horizon_beyond_p(self, lags):
        # treatments in y's slice, three lags back and one slice after y: the
        # recurrence runs past p, where R_h has no term for p = 0
        spec = VarmaSpec(a=lags, b=[[[0, 0.3], [0, 0]]], gamma=[1, 1])
        query = EffectQuery(endo(Y, 0), (endo(X, 0), endo(X, -3), endo(Y, -3), endo(X, 1)))
        beta = total_causal_effect(spec, query).beta
        assert np.max(np.abs(beta - brute_force_effect(spec, query))) < 1e-15
        assert list(beta == 0.0) == [False, spec.p == 0, spec.p == 0, True]

    def test_far_treatment_takes_logarithmic_products(self, varma_lagged_spec, monkeypatch):
        # R_h comes from the companion power Φ^h by repeated squaring, so a
        # treatment h = 20,000 lags back takes O(log h) matrix products, where
        # the lag-by-lag recursion took one step per lag; every product that
        # reads the rewrite's matrices or the companion matrix is counted
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.extend([ufunc] if ufunc is np.matmul else [])
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                out = getattr(ufunc, method)(*plain, **kwargs)
                return out.view(Counted) if isinstance(out, np.ndarray) else out

        rw = model.remove_instantaneous(varma_lagged_spec)
        counted = dataclasses.replace(rw, ice=rw.ice.view(Counted),
                                      ar=tuple(m.view(Counted) for m in rw.ar))
        monkeypatch.setattr(effects, "remove_instantaneous", lambda spec: counted)
        monkeypatch.setattr(effects, "companion_matrix",
                            lambda ar: model.companion_matrix(ar).view(Counted), raising=False)
        h = 20_000
        beta = total_causal_effect(varma_lagged_spec, EffectQuery(endo(Y, 0), (endo(X, -h),))).beta
        assert beta.shape == (1,) and np.isfinite(beta).all()
        assert 0 < len(products) <= 2 * h.bit_length() + 1

    def test_no_treatments(self, varma_lagged_spec):
        beta = total_causal_effect(varma_lagged_spec, EffectQuery(endo(Y, 0), ())).beta
        assert beta.shape == (0,) and beta.dtype == float

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
        assert report.depth_certified
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
        # separation, the IV conditions and total effects run on the compiled
        # records and the rewrite: no graph is built, nothing is projected,
        # the spec compiles and validates once, not once per deepening round
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
            raise AssertionError("off the compiled path")

        monkeypatch.setattr(model, "validate", counted_validate)
        monkeypatch.setattr(model._MarginalizedAdmg, "__init__", counted_compile)
        monkeypatch.setattr(graphs.DirectedMixedGraph, "__init__", forbidden)
        for module in (model, graphs, effects):
            for name in ("marginalized_admg_window", "latent_project", "augment"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)

        query = SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)])
        first, _, depth_certified = stable_marginal_separation(spec, query)
        assert first.separated and depth_certified
        shifted = SeparationQuery([endo(X, 3)], [endo(Y, 2)], [endo(Y, 5)])
        assert not stable_marginal_separation(spec, shifted)[0].separated
        assert len(validations) == 1
        report = check_iv_conditions(
            spec, endo(Y, 0), (endo(X, -1), endo(Y, -1)),
            (endo(X, -2), endo(Y, -2)), b_set=(endo(Y, -3),))
        assert report.depth_certified
        effect = total_causal_effect(spec, EffectQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1))))
        assert np.max(np.abs(effect.beta - [1 / 3, 1 / 2])) < 1e-15
        assert len(compiles) == 1
        assert len(validations) == 1

    def test_reports_match_the_walk_for_every_b(self):
        # An(∅) is empty, so an empty b skips condition 2's walk; reports
        # with and without b equal those of the walk run for every b
        rng = np.random.default_rng(2913)
        counts = {True: 0, False: 0}
        for spec in sampled_query_specs(rng, 18):
            for _ in range(5):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                for b_set in dict.fromkeys((b, b + (endo(int(rng.integers(0, spec.d)), -5),), ())):
                    report = effects._iv_report(spec, y, xs, instruments, b_set, len(xs))
                    assert report == iv_report_walking_every_b(
                        spec, y, xs, instruments, b_set, len(xs))
                    counts[report.confounding_free] += bool(b_set)
        assert min(counts.values()) > 5

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
        result, window, depth_certified = stable_marginal_separation(varma_lagged_spec, q)
        assert result.separated and depth_certified
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


def settles_below(window, bottom, top, lag):
    """True iff ``window`` is one a deepening loop started at ``bottom``
    reports: the second or the third window below ``top``."""
    return window in ((bottom - lag, top), (bottom - 2 * lag, top))


def count_work(monkeypatch):
    """Count the separation core's work on compiled ADMGs, not on the finite
    graphs of ``m_separated``: one entry per ``_connection`` pass, the
    number of windows it yielded, and one entry per ``_result`` call, what
    it returned."""
    passes, searches = [], []
    connection, result = graphs._connection, graphs._result

    def counted(found):
        passes.append(0)
        for table in found:
            passes[-1] += 1
            yield table

    def counted_connection(coded, *args):
        found = connection(coded, *args)
        return counted(found) if isinstance(coded, model._MarginalizedAdmg) else found

    def counted_result(coded, *args):
        found = result(coded, *args)
        if isinstance(coded, model._MarginalizedAdmg):
            searches.append(found)
        return found

    monkeypatch.setattr(graphs, "_connection", counted_connection)
    monkeypatch.setattr(graphs, "_result", counted_result)
    return passes, searches


class TestWindowOracle:
    """The compiled rounds against m_separated on materialized windows.

    Both run the same separation core, so these pin the window arithmetic
    and the cut; TestNetworkxOracle is the independent check of verdicts.
    """

    def test_each_round_matches_its_window(self):
        # every window bottom the deepening loop may reach, down to the
        # reference loop's cap: the one-window pass against m_separated on
        # that window, and the answer of the loop started there against
        # m_separated on the window it reports
        rng = np.random.default_rng(606)
        for spec in sampled_query_specs(rng, 12):
            lag = max(spec.max_lag, 1)
            for _ in range(4):
                query = simulation._draw_query(rng, spec.d, 5)
                nodes = (*query.a, *query.b, *query.c)
                top = max(v.time for v in nodes)
                start = min(v.time for v in nodes) - (spec.max_lag + 1) * (spec.d + 1)
                for bottom in range(start, start - DEEPENING_ROUNDS * lag, -lag):
                    assert window_separation(spec, query, bottom, top) == m_separated(
                        marginalized_admg_window(spec, bottom, top), query)
                    result, window, _ = stable_marginal_separation(spec, query, t_min=bottom)
                    assert settles_below(window, bottom, top, lag)
                    assert result == m_separated(marginalized_admg_window(spec, *window), query)

    def test_each_iv_round_matches_its_cut_window(self):
        # as above, for the instrument condition on windows cut by the
        # causal treatment edges
        rng = np.random.default_rng(607)
        for spec in sampled_query_specs(rng, 12):
            lag = max(spec.max_lag, 1)
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                effect = EffectQuery(y, xs)
                query = SeparationQuery(instruments, b, (y,))
                nodes = (y, *xs, *instruments, *b)
                top = max(v.time for v in nodes) + spec.q
                start = min(v.time for v in nodes) - (spec.max_lag + 1) * (spec.d + 1)
                for bottom in range(start, start - DEEPENING_ROUNDS * lag, -lag):
                    cut = cut_causal_edges(marginalized_admg_window(spec, bottom, top), effect)
                    assert window_separation(spec, query, bottom, top, effect) == m_separated(
                        cut, query)
                    result, window, _ = effects._deepening_separation(
                        spec, query, nodes, top, bottom, cut=effect)
                    assert settles_below(window, bottom, top, lag)
                    cut = cut_causal_edges(marginalized_admg_window(spec, *window), effect)
                    assert result == m_separated(cut, query)

    def test_one_pass_matches_fresh_rounds(self, monkeypatch):
        # the criterion-07 queries (seed 707) and, on each of their specs,
        # the cut separation of _iv_report: one pass extended across the
        # windows against a fresh pass per window, from the default first
        # window and from the narrowest one, which the verdicts outgrow.
        # Each answer takes one branch, with its own work: an a-c edge, or
        # a two-edge witness whose middle node lies in the first window,
        # returns before any pass; a separated window whose pass parked
        # nothing is certified at once; a witness with fewer edges than a
        # path dipping below the window needs returns from the shallow
        # window [earliest - lag, top], tried first when it lies above the
        # first window, or from the first window; otherwise the pass resumes
        passes, searches = count_work(monkeypatch)
        rounds, branches = [], dict.fromkeys(
            ("adjacent", "two-edge", "certified", "shallow", "first", "resumed"), 0)
        for trial in range(200):
            rng = np.random.default_rng((707, trial))
            spec = mixed_sampler(rng)
            lag = max(spec.max_lag, 1)
            calls = [simulation._draw_query(rng, spec.d, 5) for _ in range(20)]
            calls = [(query, (*query.a, *query.b, *query.c), 0, None) for query in calls]
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                nodes = (y, *xs, *instruments, *b)
                calls.append((SeparationQuery(instruments, b, (y,)), nodes, spec.q,
                              EffectQuery(y, xs)))
            for (query, nodes, above, cut), narrowest in itertools.product(calls, (False, True)):
                top = max(v.time for v in nodes) + above
                earliest = min(v.time for v in nodes)
                t_min = earliest if narrowest else None
                *fresh, verdicts = deepening_separation(spec, query, nodes, top, t_min, cut)
                passes.clear()
                searches.clear()
                assert list(effects._deepening_separation(
                    spec, query, nodes, top, t_min, cut)) == fresh
                # a connecting path stays open in every deeper window, so
                # the verdicts settle by the third window
                assert verdicts == sorted(verdicts, reverse=True)
                rounds.append(len(verdicts))
                start = earliest - (0 if narrowest else (spec.max_lag + 1) * (spec.d + 1))
                shallow = earliest - lag > start
                # what a fresh pass yields on the shallow and the first window
                early = [window_pass(spec, query, bottom, top, cut)
                         for bottom in (earliest - lag, start)[1 - shallow:]]
                certified = [i for i, found in enumerate(early) if found is False]
                shallow_connected = shallow and bool(early[0])
                edges = math.inf if fresh[0].separated else len(fresh[0].witness) - 1
                if edges == 1:
                    branch, work = "adjacent", ([], 0)
                elif edges == 2 and fresh[0].witness[1].time >= start:
                    branch, work = "two-edge", ([], 0)
                elif certified:
                    branch, work = "certified", ([1 + certified[0]], 0)
                elif shallow and edges < 4:
                    branch, work = "shallow", ([1], 1)
                elif edges < 2 * -(-(earliest - start + 1) // lag):
                    branch, work = "first", ([1 + shallow], 1 + shallow_connected)
                else:
                    # a separated window certified at the second bottom needs no search
                    last_search = not (fresh[0].separated and fresh[2])
                    branch, work = "resumed", ([shallow + len(verdicts)],
                                               shallow_connected + (not verdicts[0]) + last_search)
                # windows yielded per _connection pass, and _result calls
                assert (passes, len(searches)) == work
                branches[branch] += 1
        assert len(rounds) == 9600 and set(rounds) == {2, 3}
        assert min(branches.values()) > 0

    @pytest.mark.parametrize("c_time, depth", [(-1, 1), (-2, 2), (-2, 3), (-2, 4), (-4, 6),
                                               (-3, 3), (-3, 4), (-3, 5)])
    def test_connected_first_window_stops_below_the_dip_bound(self, monkeypatch, c_time, depth):
        # X_t = X_(t-1)/2 + e_t, lag 1, from the first window [-depth, 0]:
        # the witness X@0 <- ... <- X@c_time has -c_time edges, and a path
        # below window [s, 0] needs 2·(c_time - s + 1). The 1-edge witness is
        # an edge and the 2-edge one has its middle node in the first
        # window: no pass runs. The 3-edge witness from depth 3 meets the
        # first window's bound of 2 and the second is searched; from depth 4
        # it stops in the first window, and from depth 5 in the shallow
        # window [-4, 0] ahead of it. From depth 6 the 4-edge witness meets
        # the shallow window's bound of 4 and falls through to the first.
        # All match a fresh pass per window
        t_min = -depth
        spec = VarmaSpec(a=[[[0.0]], [[0.5]]], gamma=[1.0])
        query = SeparationQuery([endo(X, 0)], [], [endo(X, c_time)])
        nodes = (endo(X, 0), endo(X, c_time))
        *fresh, verdicts = deepening_separation(spec, query, nodes, 0, t_min)
        assert verdicts == [False, False] and len(fresh[0].witness) == 1 - c_time
        passes, searches = count_work(monkeypatch)
        assert list(effects._deepening_separation(spec, query, nodes, 0, t_min)) == fresh
        assert fresh[1:] == [(t_min - 1, 0), True]
        assert (passes, len(searches)) == {
            (-1, 1): ([], 0), (-2, 2): ([], 0), (-2, 3): ([], 0), (-2, 4): ([], 0),
            (-4, 6): ([2], 2), (-3, 3): ([2], 2), (-3, 4): ([1], 1),
            (-3, 5): ([1], 1)}[c_time, depth]

    def test_adjacent_query_runs_no_pass(self, monkeypatch):
        # an a-c edge decides the query: neither the Bayes-ball pass nor
        # the witness search runs, for the narrowest and the default window
        spec = VarmaSpec(a=[[[0.0]], [[0.5]]], gamma=[1.0])
        query = SeparationQuery([endo(X, 0)], [endo(X, -2)], [endo(X, -1)])
        passes, searches = count_work(monkeypatch)
        for t_min in (-2, None):
            result, window, _ = stable_marginal_separation(spec, query, t_min)
            assert result.witness == (endo(X, 0), endo(X, -1))
            assert result == m_separated(marginalized_admg_window(spec, *window), query)
        assert (passes, searches) == ([], [])

    def test_four_edge_shallow_witness_falls_through(self, monkeypatch):
        # lag 2: Y@(t-1) -> X@t, Y@(t-1) -> Y@t, X@(t-2) -> X@t, X@(t-2) -> Y@t.
        # In the shallow window [-3, 0] the witness X@-1 <- Y@-2 <- Y@-3 ->
        # X@-2 -> X@0 has 4 edges, as many as a path below it needs; the
        # deeper windows' witness of the same length dips to X@-4 and comes
        # first in incidence order, so the shallow one must not be returned
        spec = VarmaSpec(a=[np.zeros((2, 2)), [[0, 0.2], [0, 0.1]], [[-0.1, 0], [0.05, 0]]],
                         gamma=[1, 1])
        query = SeparationQuery([endo(X, -1)], [endo(Y, -1)], [endo(X, 0)])
        shallow = window_separation(spec, query, -3, 0)
        assert shallow.witness == (endo(X, -1), endo(Y, -2), endo(Y, -3), endo(X, -2), endo(X, 0))
        passes, searches = count_work(monkeypatch)
        result, window, _ = stable_marginal_separation(spec, query)
        assert result.witness == (endo(X, -1), endo(Y, -2), endo(X, -4), endo(X, -2), endo(X, 0))
        assert (result, window) == (window_separation(spec, query, -12, 0), (-12, 0))
        assert result == m_separated(marginalized_admg_window(spec, *window), query)
        # the shallow search stops at its bound: it finds no witness under 4 edges
        assert passes == [2] and searches == [None, result]

    def test_two_edge_witness_under_the_first_window_falls_through(self, monkeypatch):
        # X_t = X_(t-1)/2 + e, Y_t = X_(t-1)/2 + e': the witness X@0 <- X@-1
        # -> Y@0 has its middle node one lag under the narrowest first
        # window [0, 0], which is separated; the pass settles at (-2, 0),
        # where accepting the two-edge witness would report (-1, 0)
        spec = VarmaSpec(a=[np.zeros((2, 2)), [[0.5, 0], [0.5, 0]]], gamma=[1, 1])
        query = SeparationQuery([endo(X, 0)], [], [endo(Y, 0)])
        nodes = (endo(X, 0), endo(Y, 0))
        *fresh, verdicts = deepening_separation(spec, query, nodes, 0, 0)
        assert verdicts == [True, False, False]
        passes, searches = count_work(monkeypatch)
        assert list(effects._deepening_separation(spec, query, nodes, 0, 0)) == fresh
        assert fresh[:2] == [SeparationResult(False, (endo(X, 0), endo(X, -1), endo(Y, 0))),
                             (-2, 0)]
        assert (passes, len(searches)) == ([3], 1)
        # from the default first window the same witness needs no pass
        passes.clear()
        searches.clear()
        assert stable_marginal_separation(spec, query) == (fresh[0], (-7, 0), True)
        assert (passes, searches) == ([], [])

    @pytest.mark.parametrize("ar, certified", [(0.0, True), (0.5, False)])
    def test_separated_verdict_certified_when_nothing_parks(self, monkeypatch, ar, certified):
        # X_t = ar·X_(t-1) + e_t, X@0 against X@-2 given X@-1. With ar = 0
        # X@-2 has no ancestor, the walk back from it stops at once, and the
        # shallow window certifies the verdict. With ar = 1/2 the walk climbs
        # down X@-2's parents to every floor: the verdict rests on the two
        # agreeing windows, as a fresh pass per window finds
        spec = VarmaSpec(a=[[[0.0]], [[ar]]], gamma=[1.0])
        query = SeparationQuery([endo(X, 0)], [endo(X, -1)], [endo(X, -2)])
        nodes = (*query.a, *query.b, *query.c)
        fresh = deepening_separation(spec, query, nodes, 0, None)
        passes, searches = count_work(monkeypatch)
        result, window, depth_certified = stable_marginal_separation(spec, query)
        assert [result, window, depth_certified] == list(fresh[:3])
        assert result.separated and depth_certified == certified
        assert window_separation(spec, query, window[0] - 40, 0).separated
        assert (window_pass(spec, query, -3, 0) is False) == certified
        # certified in the shallow window, or the pass runs on to the second
        assert (passes, len(searches)) == (([1], 0) if certified else ([3], 1))

    def test_certified_verdicts_hold_40_lags_deeper(self):
        # criterion-07-style queries and IV cut queries (seed 2707): every
        # certified separated verdict is separated on a window 40 lag steps
        # below the one reported, and connected answers are certified
        rng = np.random.default_rng(2707)
        certified = uncertified = 0
        for _ in range(200):
            spec = mixed_sampler(rng)
            lag = max(spec.max_lag, 1)
            calls = [simulation._draw_query(rng, spec.d, 5) for _ in range(20)]
            calls = [(query, (*query.a, *query.b, *query.c), 0, None) for query in calls]
            for _ in range(4):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                calls.append((SeparationQuery(instruments, b, (y,)), (y, *xs, *instruments, *b),
                              spec.q, EffectQuery(y, xs)))
            for query, nodes, above, cut in calls:
                top = max(v.time for v in nodes) + above
                result, (bottom, _), depth_certified = effects._deepening_separation(
                    spec, query, nodes, top, None, cut)
                if not result.separated:
                    assert depth_certified
                elif depth_certified:
                    certified += 1
                    assert window_separation(spec, query, bottom - 40 * lag, top, cut).separated
                else:
                    uncertified += 1
        assert certified > 5 * uncertified > 0

    def test_short_witness_exits_on_dense_specs(self, monkeypatch):
        # denser specs than the criterion sampler (d up to 6, sparsity down
        # to 0.3), with IV cut queries, from the default and the narrowest
        # first window: every answer equals the fresh-pass loop and
        # m_separated on the materialized window it reports, among them
        # shallow-window witnesses of exactly 4 edges, which fall through,
        # two-edge witnesses that run no pass, IV cut ones among them, and
        # two-edge witnesses under the narrowest first window, which do not
        # return before the pass
        passes, _ = count_work(monkeypatch)
        rng = np.random.default_rng(612)
        four_edge_shallow = 0
        two_edge = dict.fromkeys(("exit", "cut exit", "narrow fall-through"), 0)
        for k in range(24):
            spec = sample_stable_spec(CoefficientSampler(
                d=1 + k % 6, p=1 + k % 2, q=k % 3, sparsity=(0.3, 0.45, 0.6)[k % 3]), rng)
            lag = max(spec.max_lag, 1)
            calls = [simulation._draw_query(rng, spec.d, 5) for _ in range(4)]
            calls = [(query, (*query.a, *query.b, *query.c), 0, None) for query in calls]
            for _ in range(2):
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                calls.append((SeparationQuery(instruments, b, (y,)), (y, *xs, *instruments, *b),
                              spec.q, EffectQuery(y, xs)))
            for (query, nodes, above, cut), narrowest in itertools.product(calls, (False, True)):
                top = max(v.time for v in nodes) + above
                earliest = min(v.time for v in nodes)
                t_min = earliest if narrowest else None
                *fresh, _ = deepening_separation(spec, query, nodes, top, t_min, cut)
                passes.clear()
                result, window, depth_certified = effects._deepening_separation(
                    spec, query, nodes, top, t_min, cut)
                assert [result, window, depth_certified] == fresh
                g = marginalized_admg_window(spec, *window)
                assert result == m_separated(g if cut is None else cut_causal_edges(g, cut), query)
                shallow = window_separation(spec, query, earliest - lag, top, cut)
                four_edge_shallow += not narrowest and len(shallow.witness or ()) == 5
                if len(result.witness or ()) == 3:
                    # no pass runs iff the middle node lies in the first window
                    start = window[0] + lag
                    assert (passes == []) == (result.witness[1].time >= start)
                    key = ("narrow fall-through" if passes
                           else "cut exit" if cut is not None else "exit")
                    two_edge[key] += 1
        assert four_edge_shallow > 0
        assert min(two_edge.values()) > 0

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
                result, (lo, hi), depth_certified = stable_marginal_separation(spec, query)
                moved, window, moved_certified = stable_marginal_separation(
                    spec, SeparationQuery(*(shifted(n, s) for n in (query.a, query.b, query.c))))
                assert moved.separated == result.separated
                assert moved.witness == (result.witness and shifted(result.witness, s))
                assert (window, moved_certified) == ((lo + s, hi + s), depth_certified)
                y, xs, instruments, b = draw_iv_sets(rng, spec.d)
                report = check_iv_conditions(spec, y, xs, instruments, b)
                moved = check_iv_conditions(spec, *shifted((y,), s), shifted(xs, s),
                                            shifted(instruments, s), shifted(b, s))
                assert moved.window_used == tuple(t + s for t in report.window_used)
                assert moved.witness == (report.witness and shifted(report.witness, s))
                assert (moved.instrument_separated, moved.confounding_free,
                        moved.depth_certified) == (report.instrument_separated,
                                                   report.confounding_free, report.depth_certified)

    def test_one_component(self):
        # d = 1: the code is the time itself
        query = SeparationQuery([endo(0, 0)], [endo(0, -1), endo(0, -2)], [endo(0, -3)])
        verdicts = []
        for ma in ([], [[[0.4]]]):
            spec = VarmaSpec([[[0]], [[0.5]], [[-0.2]]], ma, [1])
            result, window, depth_certified = stable_marginal_separation(spec, query)
            assert result == m_separated(marginalized_admg_window(spec, *window), query)
            verdicts.append((result.separated, depth_certified))
        # two past values screen off an AR(2), not an ARMA(2, 1); the walk
        # back from c = X@-3 through its unconditioned parents reaches every
        # floor, so the separated verdict is left uncertified
        assert verdicts == [(True, False), (False, True)]

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

    def test_cut_at_the_window_bottom(self, varma_lagged_spec):
        # the treatment X@-2 is the earliest node, so the window starting
        # there has the cut edges X@-2 -> X@-1 and X@-2 -> Y@-1 at its bottom;
        # the loop started there reports a deeper window, cut the same way
        y, xs = endo(Y, 0), (endo(X, -2),)
        effect = EffectQuery(y, xs)
        g = marginalized_admg_window(varma_lagged_spec, -2, 1)
        cut = cut_causal_edges(g, effect)
        assert set(g.directed) - set(cut.directed) == {
            (endo(X, -2), endo(X, -1)), (endo(X, -2), endo(Y, -1))}
        for instruments, b in ((endo(X, -1),), ()), ((endo(Y, -1),), (endo(X, -1),)):
            query = SeparationQuery(instruments, b, (y,))
            nodes = (y, *xs, *instruments, *b)
            assert window_separation(varma_lagged_spec, query, -2, 1, effect) == m_separated(
                cut, query)
            result, window, _ = effects._deepening_separation(
                varma_lagged_spec, query, nodes, 1, -2, cut=effect)
            assert settles_below(window, -2, 1, 1)
            deeper = cut_causal_edges(marginalized_admg_window(varma_lagged_spec, *window), effect)
            assert result == m_separated(deeper, query)
