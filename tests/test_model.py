import json
import re

import numpy as np
import pytest

from varma_causal import (
    CoefficientSampler,
    IvQuery,
    ModelError,
    SeparationQuery,
    SimulationConfig,
    TimedNode,
    VarmaSpec,
    check_iv_conditions,
    endo,
    estimate_from_data,
    full_time_window,
    ice_matrix,
    identify_population,
    innov,
    latent_project,
    marginalized_admg_window,
    remove_instantaneous,
    rewritten_full_time_window,
    sample_stable_spec,
    simulate,
    solve_stationary,
    spec_from_json,
    spec_to_json,
    stable_marginal_separation,
    validate,
)
from varma_causal import model
from conftest import decoded_records
from reference import (admg_records_by_window, embed_as_var, ice_matrix_by_columns,
                       instantaneous_order_by_columns, ma_delta, sigma_delta, subgraph)

X, Y = 0, 1


def random_acyclic_a0(rng, d, scale=1.0, keep=0.6):
    tri = np.tril(rng.uniform(-scale, scale, (d, d)), -1)
    tri *= rng.random((d, d)) < keep
    perm = rng.permutation(d)
    a0 = np.zeros((d, d))
    a0[np.ix_(perm, perm)] = tri
    return a0


def random_stable_spec(rng, d=None, p=None, q=None, sparsity=0.4):
    d = d or int(rng.integers(1, 4))
    p = p if p is not None else int(rng.integers(1, 3))
    q = q if q is not None else int(rng.integers(0, 3))
    for _ in range(100):
        a0 = random_acyclic_a0(rng, d, scale=0.7)
        ars = [
            rng.uniform(-0.9 / (max(p, 1) * d), 0.9 / (max(p, 1) * d), (d, d))
            * (rng.random((d, d)) >= sparsity)
            for _ in range(p)
        ]
        mas = [
            rng.uniform(-0.5, 0.5, (d, d)) * (rng.random((d, d)) >= sparsity)
            for _ in range(q)
        ]
        spec = VarmaSpec([a0, *ars], mas, rng.uniform(0.5, 2.0, d))
        if validate(spec).passed:
            return spec
    raise AssertionError("no stable draw")


class TestValidation:
    def test_var_instant_passes(self, var_instant_spec):
        report = validate(var_instant_spec)
        assert report.passed
        assert report.instantaneous_acyclic
        assert report.topological_order == (0, 1)
        assert report.spectral_radius == pytest.approx(0.5)

    def test_unit_root_fails_with_radius(self):
        spec = VarmaSpec(a=[[[0.0]], [[1.0]]], gamma=[1.0])
        report = validate(spec)
        assert not report.passed
        assert report.spectral_radius == pytest.approx(1.0)
        assert any("unstable" in m for m in report.messages)

    def test_instantaneous_cycle_fails(self):
        spec = VarmaSpec(a=[[[0, 0.5], [0.5, 0]], np.zeros((2, 2))], gamma=[1, 1])
        report = validate(spec)
        assert not report.passed and not report.instantaneous_acyclic

    def test_nonzero_diagonal_fails(self):
        spec = VarmaSpec(a=[[[0.1]], [[0.2]]], gamma=[1.0])
        assert not validate(spec).passed

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelError, match="must be 2x2"):
            VarmaSpec(a=[np.zeros((2, 2)), np.zeros((3, 3))], gamma=[1, 1])
        with pytest.raises(ModelError, match="gamma"):
            VarmaSpec(a=[np.zeros((2, 2))], gamma=[1.0])

    def test_zero_variance_flagged_not_rejected(self):
        spec = VarmaSpec(a=[np.zeros((2, 2))], gamma=[0.0, 1.0])
        assert not validate(spec).passed
        report = validate(spec, allow_zero_variance=True)
        assert report.passed and not report.gamma_positive

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ModelError, match="A1 has non-finite"):
            VarmaSpec(a=[np.zeros((2, 2)), [[np.nan, 0], [0, 0.5]]], gamma=[1, 1])
        with pytest.raises(ModelError, match="B1 has non-finite"):
            VarmaSpec(a=[np.zeros((1, 1))], b=[[[-np.inf]]], gamma=[1])
        with pytest.raises(ModelError, match="gamma has non-finite"):
            VarmaSpec(a=[np.zeros((2, 2))], gamma=[1.0, np.inf])
        with pytest.raises(ModelError, match="gamma has non-finite"):
            VarmaSpec(a=[np.zeros((2, 2))], gamma=[np.nan, 1.0])

    @pytest.mark.parametrize("names, message", [
        # component 1 could not be named, and the DOT output would merge nodes
        (["X", "X"], "distinct"),
        # component 0 named 1 would be written 1@t and read back as index 1
        ([1, 0], "strings"),
        # e(X)@0 would read as the innovation of X, not as component 1
        (["X", "e(X)"], r"\['e\(X\)'\] read as innovations"),
    ], ids=["duplicate", "non-string", "innovation-form"])
    def test_ambiguous_names_rejected(self, names, message):
        with pytest.raises(ModelError, match=message):
            VarmaSpec(a=[np.zeros((2, 2))], names=names)

    def test_innovation_form_of_no_other_name_accepted(self):
        assert VarmaSpec(a=[np.zeros((2, 2))], names=["e(Y)", "Z"]).names == ("e(Y)", "Z")

    def test_topological_order_takes_smallest_free_component(self):
        # edges 3 -> 0 -> 2; components 1 and 3 are free from the start
        a0 = np.zeros((4, 4))
        a0[0, 3], a0[2, 0] = 0.5, 0.3
        assert validate(VarmaSpec(a=[a0], gamma=np.ones(4))).topological_order == (1, 3, 0, 2)


class TestRewrite:
    def test_var_instant_rewrite_numbers(self, var_instant_spec):
        rw = remove_instantaneous(var_instant_spec)
        assert abs(rw.ar[0][1, 0] - 1 / 6) < 1e-12
        expected = np.array([[9, 3], [3, 10]]) / 9
        assert np.max(np.abs(sigma_delta(var_instant_spec) - expected)) < 1e-12

    def test_varma_instant_rewrite_numbers(self, varma_instant_spec):
        rw = remove_instantaneous(varma_instant_spec)
        assert abs(rw.ar[0][1, 0] - 13 / 30) < 1e-12
        assert abs(rw.ice[1, 0] - 1 / 5) < 1e-12
        assert abs(rw.ma_eps[0][1, 1] - 1 / 20) < 1e-12

    def test_identity_rewrite_without_instantaneous(self, varma_lagged_spec):
        rw = remove_instantaneous(varma_lagged_spec)
        assert np.array_equal(rw.ice, np.eye(2))
        assert np.array_equal(rw.ar[0], varma_lagged_spec.a[1])
        assert np.array_equal(sigma_delta(varma_lagged_spec), np.diag(varma_lagged_spec.gamma))

    def test_ma_delta_consistent_with_ma_eps(self, varma_instant_spec):
        rw = remove_instantaneous(varma_instant_spec)
        # C Bl C^{-1} * C = C Bl
        recovered = ma_delta(varma_instant_spec)[0] @ rw.ice
        assert np.max(np.abs(recovered - rw.ma_eps[0])) < 1e-14

    def test_rewrite_cached_and_read_only(self, varma_instant_spec):
        rw = remove_instantaneous(varma_instant_spec)
        assert remove_instantaneous(varma_instant_spec) is rw
        for arr in (rw.ice, *rw.ar, *rw.ma_eps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_spec_owns_its_arrays(self):
        base = np.array([[0.5, 0.0, 9.0], [0.0, 0.5, 9.0]])
        gamma = np.ones(2)
        spec = VarmaSpec(a=[np.zeros((2, 2)), base[:, :2]], gamma=gamma)
        rw = remove_instantaneous(spec)
        base[0, 0], gamma[0] = 2.0, 5.0  # the caller's arrays stay writable
        assert spec.a[1][0, 0] == 0.5 and spec.gamma[0] == 1.0
        assert rw.ar[0][0, 0] == 0.5

    def test_invalid_spec_raises_on_every_call(self):
        spec = VarmaSpec(a=[[[0, 0.5], [0.5, 0]]], gamma=[1, 1])
        for _ in range(2):
            with pytest.raises(ModelError, match="invalid process specification: .*cycle"):
                remove_instantaneous(spec)

    def test_one_validation_across_layers(self, monkeypatch):
        spec = VarmaSpec(
            a=[[[0, 0], [1 / 5, 0]], [[1 / 2, 0], [1 / 3, 1 / 2]]],
            b=[[[0, 1 / 4], [0, 0]]], gamma=[1, 1])
        validations = []
        original = model.validate

        def counted_validate(*args, **kwargs):
            validations.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "validate", counted_validate)
        y, xs, instruments = endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2))
        query = IvQuery(y, xs, instruments)
        solve_stationary(spec)
        estimate_from_data(simulate(SimulationConfig(spec, n=2_000, seed=3)), query)
        assert identify_population(spec, query).conditions is not None
        check_iv_conditions(spec, y, xs, instruments)
        stable_marginal_separation(
            spec, SeparationQuery([endo(X, 0)], [endo(X, -1), endo(Y, -1)], [endo(Y, 0)]))
        marginalized_admg_window(spec, -3, 0)
        marginalized_admg_window(spec, -3, 0, rewritten=True)
        embed_as_var(spec)
        assert len(validations) == 1


class TestIceMatrix:
    def test_two_node_base_case(self):
        a0 = np.array([[0.0, 0.0], [0.7, 0.0]])
        assert np.array_equal(ice_matrix(a0), np.array([[1.0, 0.0], [0.7, 1.0]]))

    def test_zero_gives_identity(self):
        assert np.array_equal(ice_matrix(np.zeros((3, 3))), np.eye(3))

    def test_cyclic_rejected(self):
        with pytest.raises(ModelError, match="cycle"):
            ice_matrix(np.array([[0, 0.5], [0.5, 0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (2,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ModelError, match=re.escape(
                f"A0 must be a square matrix, got shape {shape}")):
            ice_matrix(np.zeros(shape))

    def test_inverse_identity_and_path_sums(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            a0 = random_acyclic_a0(rng, d)
            ice = ice_matrix(a0)
            assert np.max(np.abs((np.eye(d) - a0) @ ice - np.eye(d))) < 1e-12
            brute = brute_force_ice(a0)
            assert np.max(np.abs(brute - ice)) < 1e-10

    def test_kahn_pass_matches_the_column_route(self):
        # order and ICE bytes against one flatnonzero per column on every
        # visit: sampled specs, and supports with -0.0 entries (zero in both
        # routes), cycles and non-zero diagonals, whose errors stay the same
        rng = np.random.default_rng(2806)
        a0s = [sample_stable_spec(CoefficientSampler(d=d, p=1, q=0, sparsity=s), rng).a[0]
               for d in range(1, 7) for s in (0.2, 0.5, 0.8)]
        for k in range(300):
            d = 1 + k % 6
            a0 = random_acyclic_a0(rng, d, keep=0.7)
            a0[(a0 == 0) & (rng.random((d, d)) < 0.5)] = -0.0
            if k % 4 == 1:  # a back edge, often closing a cycle
                i, j = rng.integers(0, d, 2)
                a0[i, j] = 0.3 if i != j else 0.0
            if k % 9 == 2:
                a0[k % d, k % d] = 0.5
            a0s.append(a0)
        cyclic = diagonal = 0
        for a0 in a0s:
            order = instantaneous_order_by_columns(a0)
            assert model.instantaneous_order(a0) == order
            try:
                want = ice_matrix_by_columns(a0)
            except ModelError as err:
                cyclic += "cycle" in str(err)
                diagonal += "diag" in str(err)
                with pytest.raises(ModelError, match=re.escape(str(err))):
                    ice_matrix(a0)
                continue
            assert ice_matrix(a0).tobytes() == want.tobytes()
            report = validate(VarmaSpec([a0, 0.1 * np.eye(len(a0))]))
            assert report.topological_order == order and report.passed
        assert cyclic >= 10 and diagonal >= 10

    def test_negative_zero_closes_no_cycle(self):
        a0 = np.array([[0.0, -0.0], [0.5, 0.0]])
        assert model.instantaneous_order(a0) == instantaneous_order_by_columns(a0) == (0, 1)
        assert ice_matrix(a0).tobytes() == ice_matrix_by_columns(a0).tobytes()

    def test_structural_zeros_are_exact(self):
        rng = np.random.default_rng(5)
        a0 = random_acyclic_a0(rng, 5, keep=0.4)
        ice = ice_matrix(a0)
        brute = brute_force_ice(a0)
        assert np.array_equal(ice == 0.0, brute == 0.0)


def brute_force_ice(a0):
    """Sum of coefficient products over all directed paths, per pair."""
    d = a0.shape[0]
    out = np.eye(d)
    for j in range(d):
        stack = [(j, 1.0)]
        while stack:
            node, prod = stack.pop()
            for nxt in range(d):
                if a0[nxt, node] != 0:
                    out[nxt, j] += prod * a0[nxt, node]
                    stack.append((nxt, prod * a0[nxt, node]))
    return out


class TestEmbedding:
    def test_block_structure(self, varma_lagged_spec):
        emb = embed_as_var(varma_lagged_spec)
        assert (emb.d, emb.p, emb.q) == (4, 1, 0)
        a1, b1 = varma_lagged_spec.a[1], varma_lagged_spec.b[0]
        assert np.array_equal(emb.a[1][:2, :2], a1)
        assert np.array_equal(emb.a[1][:2, 2:], b1)
        assert np.array_equal(emb.a[1][2:], np.zeros((2, 4)))
        # instantaneous block: A0 plus the unit loading of eps on S
        assert np.array_equal(emb.a[0][:2, 2:], np.eye(2))
        assert np.array_equal(emb.gamma, np.array([0, 0, 1, 1]))

    def test_degenerate_variances_flagged_not_rejected(self, varma_lagged_spec):
        emb = embed_as_var(varma_lagged_spec)
        report = validate(emb, allow_zero_variance=True)
        assert report.passed and not report.gamma_positive

    def test_stationarity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_stable_spec(rng)
            emb = embed_as_var(spec)
            r_orig = validate(spec, allow_zero_variance=True).spectral_radius
            r_emb = validate(emb, allow_zero_variance=True).spectral_radius
            assert abs(r_orig - r_emb) < 1e-9

    def test_orders_padded_to_max(self):
        spec = VarmaSpec(
            a=[np.zeros((1, 1))], b=[[[0.5]], [[0.25]]], gamma=[1.0])
        emb = embed_as_var(spec)
        assert emb.p == 2 and emb.q == 0 and emb.d == 2


class TestWindows:
    def test_varma_lagged_full_window_adjacency(self, varma_lagged_spec):
        g = full_time_window(varma_lagged_spec, -2, 1, include_innovations=True)
        assert g.directed[(innov(Y, -1), endo(X, 0))] == pytest.approx(0.25)
        assert g.directed[(innov(X, 0), endo(X, 0))] == 1.0
        assert g.directed[(endo(X, -1), endo(Y, 0))] == pytest.approx(1 / 3)
        assert (innov(X, -1), endo(Y, 0)) not in g.directed

    def test_zero_matrices_only_unit_innovation_edges(self):
        spec = VarmaSpec(a=[np.zeros((2, 2)), np.zeros((2, 2))],
                         b=[np.zeros((2, 2))], gamma=[1, 1])
        g = full_time_window(spec, -1, 0, include_innovations=True)
        assert set(g.directed) == {
            (innov(i, t), endo(i, t)) for i in (0, 1) for t in (-1, 0)
        }

    def test_translation_isomorphism(self, varma_instant_spec):
        w1 = full_time_window(varma_instant_spec, 0, 3, include_innovations=True)
        w2 = full_time_window(varma_instant_spec, 10, 13, include_innovations=True)
        shift = lambda v: TimedNode(v.component, v.time + 10, v.kind)
        assert {(shift(t), shift(h)): c for (t, h), c in w1.directed.items()} == dict(
            w2.directed)

    def test_invalid_range(self, varma_lagged_spec):
        with pytest.raises(ModelError, match="invalid window"):
            full_time_window(varma_lagged_spec, 1, 0)
        with pytest.raises(ModelError, match="invalid window"):
            marginalized_admg_window(varma_lagged_spec, 1, 0)

    def test_varma_lagged_marginalized_adjacency(self, varma_lagged_spec):
        g = marginalized_admg_window(varma_lagged_spec, -2, 0)
        expected_directed = set()
        for t in (-1, 0):
            expected_directed |= {
                (endo(X, t - 1), endo(X, t)),
                (endo(X, t - 1), endo(Y, t)),
                (endo(Y, t - 1), endo(Y, t)),
            }
        assert set(g.directed) == expected_directed
        assert g.bidirected == frozenset(
            frozenset((endo(Y, t - 1), endo(X, t))) for t in (-1, 0)
        )

    def test_marginalized_window_translation_invariant(self, varma_instant_spec):
        w1 = marginalized_admg_window(varma_instant_spec, -3, 0)
        w2 = marginalized_admg_window(varma_instant_spec, 7, 10)
        shift = lambda v: TimedNode(v.component, v.time + 10, v.kind)
        assert {frozenset(map(shift, p)) for p in w1.bidirected} == set(w2.bidirected)
        assert {(shift(t), shift(h)) for t, h in w1.directed} == set(w2.directed)

    def test_pure_var_has_no_bidirected(self, var_instant_spec):
        g = marginalized_admg_window(var_instant_spec, -2, 0)
        assert not g.bidirected
        assert (endo(X, 0), endo(Y, 0)) in g.directed  # instantaneous edge kept

    def test_rewrite_adds_bidirected_families(self, varma_instant_spec):
        original = marginalized_admg_window(varma_instant_spec, -2, 0)
        rewritten = marginalized_admg_window(varma_instant_spec, -2, 0, rewritten=True)
        assert original.bidirected < rewritten.bidirected
        assert frozenset((endo(X, 0), endo(Y, 0))) in rewritten.bidirected

    @pytest.mark.parametrize("rewritten", [False, True])
    def test_closed_form_equals_latent_projection(self, varma_instant_spec, rewritten):
        # reference: project a DAG widened max(p,q)+1 steps left onto its
        # endogenous nodes, then crop to the window. Dense specs give each
        # innovation a high fan-out; in the last spec one innovation loads
        # S0 and S1 at 1e-200 each, whose float product underflows to 0
        dense = [sample_stable_spec(CoefficientSampler(d=d, p=p, q=q), (56, d, p, q))
                 for d, p, q in ((6, 2, 2), (4, 1, 3))]
        tiny = VarmaSpec([np.zeros((3, 3)), 0.5 * np.eye(3)],
                         [[[1e-200, 0, 0], [1e-200, 0, 0], [0, 0, 0]]], [1, 1, 1])
        specs = [varma_instant_spec, *sampled_window_specs(), *dense, tiny]
        builder = rewritten_full_time_window if rewritten else full_time_window
        for spec in specs:
            for t_min, t_max in ((-3, 0), (-12, 0), (5, 9), (0, 0), (-1, 0)):
                wide = builder(spec, t_min - spec.max_lag - 1, t_max,
                               include_innovations=True)
                projected = latent_project(
                    wide, [v for v in wide.nodes if v.kind == "endogenous"])
                reference = subgraph(projected, (v for v in projected.nodes if v.time >= t_min))
                g = marginalized_admg_window(spec, t_min, t_max, rewritten=rewritten)
                assert g.nodes == reference.nodes
                assert g.directed == reference.directed
                assert g.bidirected == reference.bidirected

    @pytest.mark.parametrize("rewritten", [False, True])
    def test_dense_structural_windows_read_off_the_matrices(self, monkeypatch, rewritten):
        # d = 16, p = q = 2 with every coefficient drawn: each innovation
        # loads dozens of nodes; past the one compile of the spec, the
        # structural windows build none of the bi-directed pairs
        spec = sample_stable_spec(CoefficientSampler(d=16, p=2, q=2), 16)
        admg = spec._rewritten_admg if rewritten else spec._admg
        rw = remove_instantaneous(spec)
        lags, loadings = (((np.zeros((16, 16)), *rw.ar), (rw.ice, *rw.ma_eps)) if rewritten
                          else (spec.a, (np.eye(16), *spec.b)))
        builder = rewritten_full_time_window if rewritten else full_time_window
        edges = model._lag_edges

        def structural_edges(mats, *args):
            # the loading-support products, or a fresh compile, would come
            # through here with other matrices
            if mats is not admg.lags and mats is not admg.loadings:
                raise AssertionError("bi-directed edges built for a structural window")
            return edges(mats, *args)

        monkeypatch.setattr(model, "_lag_edges", structural_edges)
        for innovations in (False, True):
            g = builder(spec, -2, 2, include_innovations=innovations)
            mats = ((endo, lags), (innov, loadings)) if innovations else ((endo, lags),)
            expected = {(tail(j, t - k), endo(i, t)): mat[i, j]
                        for tail, family in mats for k, mat in enumerate(family)
                        for t in range(-2, 3) if t - k >= -2 for i, j in np.argwhere(mat).tolist()}
            kinds = (endo, innov) if innovations else (endo,)
            assert set(g.nodes) == {kind(i, t) for kind in kinds
                                    for t in range(-2, 3) for i in range(16)}
            assert g.directed == expected and not g.bidirected

    @pytest.mark.parametrize("rewritten", [False, True])
    def test_template_incidence_order(self, varma_instant_spec, rewritten):
        # the compiled records, decoded and cut to a window, list each
        # node's edges in the order of the window graph's incidence table,
        # which breaks ties between shortest separation witnesses
        for spec in [varma_instant_spec] + sampled_window_specs():
            admg = spec._rewritten_admg if rewritten else spec._admg
            for t_min, t_max in ((-3, 0), (-12, 0), (5, 9), (0, 0), (-1, 0)):
                g = marginalized_admg_window(spec, t_min, t_max, rewritten=rewritten)
                for v in g.nodes:
                    decoded = [(admg.node(admg.code(v) + off), here, there)
                               for off, here, there in admg.records[v.component]]
                    inside = [e for e in decoded if t_min <= e[0].time <= t_max]
                    assert inside == decoded_records(g, v)


class TestCompile:
    @pytest.mark.parametrize("rewritten", [False, True])
    def test_records_match_the_window_read(self, rewritten):
        # slice records read off the supports in codes against the window
        # [-max(p,q), max(p,q)] cut to slice 0 through graphs._incidence:
        # d 1-6, p 0-3, q 0-3 and sparsity 0-0.8, one spec per cell
        bidirected = 0
        for d in range(1, 7):
            for p in range(4):
                for q in range(4):
                    for sparsity in (0.0, 0.2, 0.4, 0.6, 0.8):
                        spec = sample_stable_spec(
                            CoefficientSampler(d=d, p=p, q=q, sparsity=sparsity), (29, d, p, q))
                        admg = spec._rewritten_admg if rewritten else spec._admg
                        want = model._CodedGraph(d, admg_records_by_window(spec, rewritten))
                        for field in ("records", "entering", "children", "parents", "spouses"):
                            assert getattr(admg, field) == getattr(want, field)
                        bidirected += any(e[2] for r in admg.records for e in r)
        assert bidirected > 300

    def test_compile_builds_no_window_and_validate_one_order(self, monkeypatch):
        # the compile reads the supports, not a window of TimedNode edges,
        # and validate runs one Kahn pass, which ICE substitution reuses
        spec = sample_stable_spec(CoefficientSampler(d=4, p=2, q=2, sparsity=0.3), 29)
        want = [admg_records_by_window(spec, rewritten) for rewritten in (False, True)]

        def forbidden(*args, **kwargs):
            raise AssertionError("window built by the compile")

        passes = []
        kahn_order = model._kahn_order
        with monkeypatch.context() as patch:
            patch.setattr(model._MarginalizedAdmg, "window", forbidden)
            patch.setattr(model._MarginalizedAdmg, "directed_window", forbidden)
            patch.setattr(model, "_kahn_order", lambda *args: passes.append(args)
                          or kahn_order(*args))
            got = [model._MarginalizedAdmg(spec, rewritten).records for rewritten in (False, True)]
            report = validate(spec)
        assert got == want
        assert report.passed and len(passes) == 1


def sampled_window_specs():
    """18 seeded sampler specs: d 1-3, p 1-2, q 0-2."""
    return [sample_stable_spec(CoefficientSampler(d=d, p=p, q=q, sparsity=0.65), (55, d, p, q))
            for d in (1, 2, 3) for p in (1, 2) for q in (0, 1, 2)]


def build_g_star(spec, t_min, t_max):
    """Extended DAG: lagged parents of instantaneous ancestors are drawn into
    every node, then all instantaneous edges are removed."""
    base = full_time_window(spec, t_min, t_max)
    extra = set()
    for v in base.nodes:
        instantaneous_ancestors = [
            u for u in base.ancestors([v]) if u.time == v.time
        ]
        for u in instantaneous_ancestors:
            for parent in base.parents(u):
                if parent.time < u.time:
                    extra.add((parent, v))
    directed = {
        (t, h) for (t, h) in base.directed if t.time != h.time
    } | {e for e in extra if e[0].time != e[1].time}
    return directed


class TestRewriteGraphProperties:
    def test_cor2_ancestor_containment(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            spec = random_stable_spec(rng)
            orig = full_time_window(spec, -4, 0, include_innovations=True)
            rewr = rewritten_full_time_window(spec, -4, 0)
            for i in range(spec.d):
                node = endo(i, 0)
                an_orig = set(orig.ancestors([node]))
                an_rewr = set(rewr.ancestors([node]))
                assert an_rewr <= an_orig

    def test_prop6_edge_containment(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            spec = random_stable_spec(rng, q=0)
            rewr = rewritten_full_time_window(
                spec, -3, 0, include_innovations=False)
            g_star_edges = build_g_star(spec, -3, 0)
            assert set(rewr.directed) <= g_star_edges

    def test_prop7_exact_zero_innovation_covariance(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            a0 = random_acyclic_a0(rng, d, keep=0.4)
            spec = VarmaSpec([a0, np.zeros((d, d))], gamma=rng.uniform(0.5, 2, d))
            sigma = sigma_delta(spec)
            g = full_time_window(spec, 0, 0)
            for i in range(d):
                for j in range(i + 1, d):
                    an_i = {v for v in g.ancestors([endo(i, 0)])}
                    an_j = {v for v in g.ancestors([endo(j, 0)])}
                    if not an_i & an_j:
                        assert sigma[i, j] == 0.0


class TestModelJson:
    def test_round_trip(self, varma_instant_spec):
        data = spec_to_json(varma_instant_spec)
        clone = spec_from_json(json.loads(json.dumps(data)))
        assert clone.d == varma_instant_spec.d and clone.p == varma_instant_spec.p and clone.q == varma_instant_spec.q
        for m1, m2 in zip(clone.a, varma_instant_spec.a):
            assert np.array_equal(m1, m2)
        for m1, m2 in zip(clone.b, varma_instant_spec.b):
            assert np.array_equal(m1, m2)
        assert clone.names == varma_instant_spec.names

    def test_inconsistent_metadata_rejected(self, varma_lagged_spec):
        data = spec_to_json(varma_lagged_spec)
        data["p"] = 3
        with pytest.raises(ModelError, match="claims p=3"):
            spec_from_json(data)

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            spec_from_json({"gamma": [1.0]})
