import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import varma_causal
from varma_causal import (
    CoefficientSampler,
    EffectQuery,
    EstimationError,
    IvQuery,
    ModelError,
    SimulationConfig,
    StateSpaceForm,
    UnderIdentifiedError,
    VarmaSpec,
    check_iv_conditions,
    endo,
    estimate_from_data,
    fisher_z_pvalue,
    identify_population,
    lagged_design,
    node_to_json,
    sample_stable_spec,
    simulate,
    total_causal_effect,
)
from varma_causal import iv
from varma_causal.stationary import RANK_RTOL, _schur_complement, numerical_rank
from reference import estimate_from_data as row_major_estimate
from reference import fisher_z_pvalue as lstsq_fisher_z
from test_model import random_stable_spec

X, Y = 0, 1
CHUNK = iv._CHUNK_ROWS


class TestQueryValidation:
    def test_weight_must_be_spd(self, varma_lagged_spec):
        y, xs, instruments = endo(Y, 0), (endo(X, -1),), (endo(X, -2),)
        with pytest.raises(ModelError, match="positive definite"):
            IvQuery(y, xs, instruments, weight=[[-1.0]])
        with pytest.raises(ModelError, match="symmetric"):
            IvQuery(y, xs, (endo(X, -2), endo(Y, -2)),
                    weight=[[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("weight", [[["a", 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]]])
    def test_weight_must_be_numeric(self, weight):
        with pytest.raises(ModelError, match="weight must be a numeric matrix"):
            IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2), endo(Y, -2)), weight=weight)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weight_must_be_finite(self, bad):
        with pytest.raises(ModelError, match="weight has non-finite entries"):
            IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2), endo(Y, -2)),
                    weight=[[bad, 0.0], [0.0, 1.0]])

    def test_disjointness_enforced(self):
        with pytest.raises(ModelError, match="more than one"):
            IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -1),))

    def test_json_round_trip(self):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2)), (endo(Y, -3),),
                        weight=2.0 * np.eye(2))
        data = query.to_dict()
        assert data["y"] == {"component": 1, "time": 0, "kind": "endogenous"}
        assert data["x"][0] == {"component": 0, "time": -1, "kind": "endogenous"}
        clone = IvQuery.from_dict(data)
        assert clone.y == query.y and clone.x_set == query.x_set
        assert clone.i_set == query.i_set and clone.b_set == query.b_set
        assert np.array_equal(clone.weight, query.weight)

    def test_json_reader_rejects_a_missing_key(self):
        with pytest.raises(ModelError, match="'y'"):
            IvQuery.from_dict({"x": []})
        with pytest.raises(ModelError, match="not iterable"):
            IvQuery.from_dict({"y": node_to_json(endo(Y, 0)), "x": 3, "i": []})


class TestIdentifyPopulation:
    def test_result_to_dict_holds_plain_lists(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2),))
        data = identify_population(varma_lagged_spec, query).to_dict()
        conditions = data["conditions"]
        assert type(data["beta"]) is list and data["sample_size"] == "population"
        assert type(conditions["window_used"]) is list
        assert conditions["witness"] == [node_to_json(v) for v in
                                         (endo(X, -2), endo(Y, -1), endo(Y, 0))]
        assert all(type(v) is dict for v in conditions["witness"])

    def test_varma_lagged_beta(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2)))
        result = identify_population(varma_lagged_spec, query)
        assert np.max(np.abs(result.beta - [1 / 3, 1 / 2])) < 1e-9
        assert result.moment_residual < 1e-9
        assert result.sample_size == "population"
        assert result.conditions.all_hold

    def test_decoupled_outcome_gives_zero(self):
        spec = VarmaSpec(
            a=[np.zeros((2, 2)), np.diag([0.5, 0.4])], gamma=[1, 1])
        query = IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2),))
        result = identify_population(spec, query, check_conditions=False)
        assert abs(result.beta[0]) < 1e-12

    def test_under_identified_raises(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2),))
        with pytest.raises(UnderIdentifiedError) as excinfo:
            identify_population(varma_lagged_spec, query)
        assert excinfo.value.rank == 1 and excinfo.value.required == 2

    def test_components_outside_the_spec_rejected(self, varma_lagged_spec):
        xs, instruments = (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2))
        for y in (endo(-1, 0), endo(5, 0)):
            for check_conditions in (False, True):
                with pytest.raises(ModelError, match="outside"):
                    identify_population(varma_lagged_spec, IvQuery(y, xs, instruments),
                                        check_conditions=check_conditions)

    def test_weight_scaling_invariance(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2)))
        scaled = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                         (endo(X, -2), endo(Y, -2)), weight=7.0 * np.eye(2))
        b1 = identify_population(varma_lagged_spec, query, check_conditions=False).beta
        b2 = identify_population(varma_lagged_spec, scaled, check_conditions=False).beta
        assert np.max(np.abs(b1 - b2)) < 1e-12

    def test_over_identified_matches_effect(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2), endo(X, -3)))
        result = identify_population(varma_lagged_spec, query, check_conditions=False)
        assert np.max(np.abs(result.beta - [1 / 3, 1 / 2])) < 1e-9

    @pytest.mark.parametrize("small, rank", [(0.99e-8, 1), (1.01e-8, 2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rank_edge_through_the_solve(self, varma_lagged_spec, monkeypatch, small, rank,
                                         weighted):
        # s_xi = R1 diag(1, small) R2' around the RANK_RTOL cut; the weight
        # W = R2 diag(1, across²) R2' moves the second singular value of
        # s_xi L to across·small, over the cut, yet the rank stays that of s_xi
        assert RANK_RTOL == 1e-8
        r1, r2 = (np.array([[c, -s], [s, c]]) for c, s in ((0.6, 0.8), (0.28, 0.96)))
        s_xi = r1 @ np.diag([1.0, small]) @ r2.T
        moments = np.vstack(([0.3, -0.2] @ s_xi, s_xi))
        monkeypatch.setattr(iv, "conditional_covariance", lambda ss, a, c, b: moments)
        across = 0.5 if rank == 2 else 2.0
        weight = r2 @ np.diag([1.0, across ** 2]) @ r2.T if weighted else None
        if weighted:
            weighted_svals = np.linalg.svd(s_xi @ np.linalg.cholesky(weight), compute_uv=False)
            assert (weighted_svals[1] > RANK_RTOL * weighted_svals[0]) != (rank == 2)
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2)),
                        weight=weight)
        assert numerical_rank(s_xi) == rank
        if rank == 1:
            with pytest.raises(UnderIdentifiedError) as excinfo:
                identify_population(varma_lagged_spec, query, check_conditions=False)
            assert (excinfo.value.rank, excinfo.value.required) == (1, 2)
        else:
            result = identify_population(varma_lagged_spec, query, check_conditions=False)
            assert np.max(np.abs(result.beta - [0.3, -0.2])) < 1e-6

    def test_one_stationary_solve_with_conditions(self, varma_lagged_spec, monkeypatch):
        y, xs, instruments = endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2))
        reference = check_iv_conditions(varma_lagged_spec, y, xs, instruments)
        solves = []
        original = StateSpaceForm.__init__

        def counting(self, spec):
            solves.append(spec)
            original(self, spec)

        monkeypatch.setattr(StateSpaceForm, "__init__", counting)
        result = identify_population(varma_lagged_spec, IvQuery(y, xs, instruments))
        assert len(solves) == 1
        assert result.conditions == reference

    def test_wide_just_identified_query(self):
        # 48 treatments (all components at lags 1-4), 48 instruments (lags
        # 5-8); cond(S_XI) is about 1.4e6, so a solve through the normal
        # matrix S_XI S_XI' would see about 2e12
        d, p = 12, 4
        spec = sample_stable_spec(CoefficientSampler(d=d, p=p, q=2), 7)
        xs = [endo(i, -k) for k in range(1, p + 1) for i in range(d)]
        instruments = [endo(i, -k) for k in range(p + 1, 2 * p + 1) for i in range(d)]
        result = identify_population(spec, IvQuery(endo(0, 0), xs, instruments),
                                     check_conditions=False)
        ice = np.linalg.inv(np.eye(d) - spec.a[0])
        row = np.concatenate([(ice @ spec.a[k])[0] for k in range(1, p + 1)])
        assert np.max(np.abs(result.beta - row)) < 1e-9

    def test_agrees_with_path_counting_on_random_specs(self):
        rng = np.random.default_rng(51)
        agreements = 0
        attempts = 0
        while agreements < 100 and attempts < 700:
            attempts += 1
            spec = random_stable_spec(rng, p=1, q=int(rng.integers(0, 2)))
            d = spec.d
            y = endo(int(rng.integers(0, d)), 0)
            xs = tuple(endo(i, -1) for i in range(d))
            instruments = tuple(endo(i, -2) for i in range(d))
            report = check_iv_conditions(spec, y, xs, instruments)
            if not report.all_hold:
                continue
            identified = identify_population(
                spec, IvQuery(y, xs, instruments), check_conditions=False).beta
            direct = total_causal_effect(spec, EffectQuery(y, xs)).beta
            assert np.max(np.abs(identified - direct)) < 1e-8
            agreements += 1
        assert agreements >= 100


class TestLaggedDesign:
    def test_matches_manual_slices(self):
        data = np.arange(20, dtype=float).reshape(10, 2)
        nodes = (endo(1, 0), endo(0, -1), endo(1, -2))
        design = lagged_design(data, nodes)
        assert design.shape == (8, 3)
        assert np.array_equal(design[:, 0], data[2:, 1])
        assert np.array_equal(design[:, 1], data[1:-1, 0])
        assert np.array_equal(design[:, 2], data[:-2, 1])

    def test_short_series_error(self):
        with pytest.raises(EstimationError, match="too short"):
            lagged_design(np.zeros((3, 1)), (endo(0, 0), endo(0, -5)))


class TestEstimateFromData:
    def test_varma_lagged_moderate_sample(self, varma_lagged_spec):
        series = simulate(SimulationConfig(varma_lagged_spec, n=30_000, seed=99))
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2)))
        result = estimate_from_data(series, query)
        assert result.sample_size == 30_000 - 2
        assert np.max(np.abs(result.beta - [1 / 3, 1 / 2])) < 0.05

    def test_weight_scaling_invariance(self, varma_lagged_spec):
        series = simulate(SimulationConfig(varma_lagged_spec, n=5_000, seed=3))
        base = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                       (endo(X, -2), endo(Y, -2)))
        scaled = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                         (endo(X, -2), endo(Y, -2)), weight=0.25 * np.eye(2))
        b1 = estimate_from_data(series, base).beta
        b2 = estimate_from_data(series, scaled).beta
        assert np.max(np.abs(b1 - b2)) < 1e-12

    def test_constant_series_singular(self):
        query = IvQuery(endo(0, 0), (endo(0, -1),), (endo(0, -2),))
        for series in (np.ones((100, 1)), np.ones(100)):  # a 1-D series is one column
            with pytest.raises(EstimationError, match="singular"):
                estimate_from_data(series, query)

    @pytest.mark.parametrize("instruments, b, weight", [
        # B empty, over-identified so the moment residual is not rounding noise
        ((endo(X, -2), endo(Y, -2), endo(X, -3)), (), None),
        # B non-empty: the query of test_conditional_iv_configuration_consistent
        ((endo(X, -2), endo(Y, -2)), (endo(Y, -3),), None),
        # a non-identity weight
        ((endo(X, -2), endo(Y, -2), endo(X, -3)), (),
         np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])),
        # |B| = 3, over-identified, with a non-identity weight
        ((endo(X, -2), endo(Y, -2), endo(X, -3)), (endo(Y, -3), endo(X, -4), endo(Y, -4)),
         np.array([[1.5, -0.4, 0.1], [-0.4, 0.8, 0.0], [0.1, 0.0, 2.0]])),
    ])
    def test_matches_row_major_reference(self, varma_lagged_spec, instruments, b, weight):
        series = simulate(SimulationConfig(varma_lagged_spec, n=20_000, seed=7))
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), instruments, b, weight)
        new, ref = estimate_from_data(series, query), row_major_estimate(series, query)
        assert new.sample_size == ref.sample_size
        assert np.max(np.abs(new.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))
        # exactly identified queries leave a residual at rounding level on both sides
        assert np.isclose(new.moment_residual, ref.moment_residual, rtol=1e-12, atol=1e-15)

    def test_near_duplicate_conditioning_columns(self, varma_lagged_spec):
        # a third column Z copies Y, exactly or up to a relative 1e-7, and B
        # holds both at lag 3. Cov(B, B) then has an eigenvalue below
        # PINV_RTOL = 1e-10 of the largest, so the direction Z - Y is dropped:
        # a copy conditions as Y alone, and the perturbed copy as the mean
        # column (Y + Z) / 2 alone. lstsq, which cuts at machine precision,
        # keeps the 1e-7 direction and moves beta by far more
        series = simulate(SimulationConfig(varma_lagged_spec, n=20_000, seed=7))
        y = series[:, Y]
        noise = 1e-7 * y.std() * np.random.default_rng(3).standard_normal(len(y))

        def estimates(z, b_columns):
            data = np.column_stack([series, z, (y + z) / 2])
            query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                            (endo(X, -2), endo(Y, -2)), [endo(k, -3) for k in b_columns])
            return estimate_from_data(data, query).beta, row_major_estimate(data, query).beta

        def relative(u, v):
            return np.max(np.abs(u - v)) / np.max(np.abs(v))

        both, _ = estimates(y, (Y, 2))
        assert relative(both, estimates(y, (Y,))[0]) <= 1e-12
        both, lstsq = estimates(y + noise, (Y, 2))
        assert relative(both, estimates(y + noise, (3,))[0]) <= 1e-12
        assert relative(lstsq, both) > 1e-5

    def test_conditional_iv_configuration_consistent(self, varma_lagged_spec):
        # nonempty conditioning set passing all three conditions
        y = endo(Y, 0)
        xs = (endo(X, -1), endo(Y, -1))
        instruments = (endo(X, -2), endo(Y, -2))
        b = (endo(Y, -3),)
        report = check_iv_conditions(varma_lagged_spec, y, xs, instruments, b)
        assert report.all_hold
        query = IvQuery(y, xs, instruments, b)
        truth = identify_population(varma_lagged_spec, query, check_conditions=False).beta
        assert np.max(np.abs(truth - [1 / 3, 1 / 2])) < 1e-9

        def error_at(n, seed):
            series = simulate(SimulationConfig(varma_lagged_spec, n=n, seed=seed))
            est = estimate_from_data(series, query)
            return np.max(np.abs(est.beta - truth))

        small = [error_at(10_000, s) for s in range(9)]
        large = [error_at(40_000, s) for s in range(9)]
        # quadrupling the sample should shrink the error roughly by half
        assert np.median(small) / np.median(large) > 1.3


class TestNonFiniteSeries:
    """A NaN or infinity in a column that a query reads raises EstimationError
    before any factorization, in both data-side calls, with or without b."""

    @pytest.fixture()
    def series(self, varma_lagged_spec):
        return simulate(SimulationConfig(varma_lagged_spec, n=2_000, seed=4))

    def calls(self, series):
        xs, instruments = (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2))
        return [lambda: estimate_from_data(series, IvQuery(endo(Y, 0), xs, instruments)),
                lambda: estimate_from_data(
                    series, IvQuery(endo(Y, 0), xs, instruments, (endo(X, -3),))),
                lambda: fisher_z_pvalue(series, endo(X, 0), endo(Y, 0)),
                lambda: fisher_z_pvalue(series, endo(Y, 0), endo(Y, -2), (endo(X, -1),))]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, series, bad):
        series[700, X] = bad
        for call in self.calls(series):
            with pytest.raises(EstimationError, match="non-finite sample moments"):
                call()

    def test_overflowing_moments_raise(self, series):
        # finite values whose products overflow leave the moments infinite
        series[700:703, X] = 1e300, -1e300, 1e300
        for call in self.calls(series):
            with pytest.raises(EstimationError, match="non-finite sample moments"):
                call()

    @pytest.mark.parametrize("bad", [(np.nan,), (-np.inf,), (1e300, -1e300, 1e300)],
                             ids=["nan", "-inf", "overflow"])
    def test_last_chunk_alone_raises(self, varma_lagged_spec, bad):
        # a series of three chunks, spoilt in the last one only: its moments
        # reach the one k x k check through the chunk sum and the mean terms
        series = simulate(SimulationConfig(varma_lagged_spec, n=3 * CHUNK + 50, seed=4))
        series[-30:-30 + len(bad), X] = bad
        for call in self.calls(series):
            with pytest.raises(EstimationError, match="non-finite sample moments"):
                call()

    def test_unread_column_is_ignored(self, series):
        query = (series, endo(Y, 0), endo(Y, -2), (endo(Y, -1),))
        clean = fisher_z_pvalue(*query)
        series[700, X] = np.nan
        assert fisher_z_pvalue(*query) == clean


def one_product_moments(data, a, c, b):
    """Cov^(A, C | B) from the whole centred design in one product, the
    form the sample moments take for n_eff <= iv._CHUNK_ROWS."""
    rows = lagged_design(data, (*a, *b, *c)).T
    rows -= rows.mean(axis=1, keepdims=True)
    joint = rows[:len(a) + len(b)] @ rows[len(a):].T / rows.shape[1]
    return _schur_complement(joint, len(b))[0]


class TestChunkedMoments:
    """Designs longer than iv._CHUNK_ROWS rows are formed one chunk at a time
    and combined exactly; shorter ones in one product, as before."""

    # the IV query and the Fisher-z query both span 3 lags
    QUERY = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2)),
                    (endo(Y, -3),))
    CI = (endo(X, 0), endo(Y, 0), (endo(X, -1), endo(Y, -1), endo(X, -3)))

    @pytest.mark.parametrize("n_eff", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunk_edges(self, varma_lagged_spec, n_eff):
        series = simulate(SimulationConfig(varma_lagged_spec, n=n_eff + 3, seed=n_eff))
        new, ref = estimate_from_data(series, self.QUERY), row_major_estimate(series, self.QUERY)
        assert new.sample_size == ref.sample_size == n_eff
        assert np.max(np.abs(new.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))
        p, p_ref = fisher_z_pvalue(series, *self.CI), lstsq_fisher_z(series, *self.CI)
        assert abs(p - p_ref) <= 1e-12 * p_ref + 1e-15
        for a, c, b in (((self.QUERY.y, *self.QUERY.x_set), self.QUERY.i_set, self.QUERY.b_set),
                        (self.CI[:2], self.CI[:2], self.CI[2])):
            chunked = iv._sample_conditional_covariance(series, a, c, b)[0]
            whole = one_product_moments(series, a, c, b)
            if n_eff <= CHUNK:
                assert np.array_equal(chunked, whole)
            else:
                assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_working_memory_bounded(self, varma_lagged_spec):
        # at most about one chunk of the design is alive at a time: two
        # chunks' worth bounds the traced peak, where the whole 200k-row
        # design is 8.0 MB
        series = simulate(SimulationConfig(varma_lagged_spec, n=200_000, seed=1))
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2)))
        # (rows of a chunk of the design, call): the Fisher-z design stacks
        # (a, c), b and (a, c)
        calls = [(5, lambda: estimate_from_data(series, query)),
                 (7, lambda: fisher_z_pvalue(series, *self.CI))]
        for nodes, call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * nodes * CHUNK * 8


def test_lstsq_only_in_weighted_solve():
    # one residualization path: conditional covariances go through the Schur
    # step, and a least-squares solve appears only in iv._weighted_solve
    calls = []
    for path in sorted(Path(varma_causal.__file__).parent.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, (*scope, child.name))
                    continue
                func = child.func if isinstance(child, ast.Call) else None
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "lstsq":
                    calls.append((path.stem, ".".join(scope)))
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    assert calls == [("iv", "_weighted_solve")]
