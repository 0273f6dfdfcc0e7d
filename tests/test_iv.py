import numpy as np
import pytest

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
    identify_population,
    lagged_design,
    sample_stable_spec,
    simulate,
    total_causal_effect,
)
from reference import estimate_from_data as row_major_estimate
from test_model import random_stable_spec

X, Y = 0, 1


class TestQueryValidation:
    def test_weight_must_be_spd(self, varma_lagged_spec):
        y, xs, instruments = endo(Y, 0), (endo(X, -1),), (endo(X, -2),)
        with pytest.raises(ModelError, match="positive definite"):
            IvQuery(y, xs, instruments, weight=[[-1.0]])
        with pytest.raises(ModelError, match="symmetric"):
            IvQuery(y, xs, (endo(X, -2), endo(Y, -2)),
                    weight=[[1.0, 0.5], [0.0, 1.0]])

    def test_disjointness_enforced(self):
        with pytest.raises(ModelError, match="more than one"):
            IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -1),))

    def test_json_round_trip(self):
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)),
                        (endo(X, -2), endo(Y, -2)), (endo(Y, -3),),
                        weight=2.0 * np.eye(2))
        data = query.to_dict()
        assert data["y"] == {"component": 1, "lag": 0}
        assert data["x"][0] == {"component": 0, "lag": -1}
        clone = IvQuery.from_dict(data)
        assert clone.y == query.y and clone.x_set == query.x_set
        assert clone.i_set == query.i_set and clone.b_set == query.b_set
        assert np.array_equal(clone.weight, query.weight)


class TestIdentifyPopulation:
    def test_result_to_dict_holds_plain_lists(self, varma_lagged_spec):
        query = IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2),))
        data = identify_population(varma_lagged_spec, query).to_dict()
        conditions = data["conditions"]
        assert type(data["beta"]) is list and data["sample_size"] == "population"
        assert type(conditions["window_used"]) is list
        assert conditions["witness"] == [[X, -2, "endogenous"], [Y, -1, "endogenous"],
                                         [Y, 0, "endogenous"]]
        assert all(type(v) is list for v in conditions["witness"])

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
        with pytest.raises(EstimationError, match="singular"):
            estimate_from_data(np.ones((100, 1)), query)

    @pytest.mark.parametrize("instruments, b, weight", [
        # B empty, over-identified so the moment residual is not rounding noise
        ((endo(X, -2), endo(Y, -2), endo(X, -3)), (), None),
        # B non-empty: the query of test_conditional_iv_configuration_consistent
        ((endo(X, -2), endo(Y, -2)), (endo(Y, -3),), None),
        # a non-identity weight
        ((endo(X, -2), endo(Y, -2), endo(X, -3)), (),
         np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])),
    ])
    def test_matches_row_major_reference(self, varma_lagged_spec, instruments, b, weight):
        series = simulate(SimulationConfig(varma_lagged_spec, n=20_000, seed=7))
        query = IvQuery(endo(Y, 0), (endo(X, -1), endo(Y, -1)), instruments, b, weight)
        new, ref = estimate_from_data(series, query), row_major_estimate(series, query)
        assert new.sample_size == ref.sample_size
        assert np.max(np.abs(new.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))
        # exactly identified queries leave a residual at rounding level on both sides
        assert np.isclose(new.moment_residual, ref.moment_residual, rtol=1e-12, atol=1e-15)

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
