import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from varma_causal import model, simulation
from varma_causal import (
    CoefficientSampler,
    EstimationError,
    ModelError,
    SeparationQuery,
    SimulationConfig,
    VarmaSpec,
    endo,
    faithfulness_check,
    fisher_z_pvalue,
    node_to_json,
    population_ci,
    remove_instantaneous,
    run_faithfulness_experiment,
    run_gmp_experiment,
    sample_stable_spec,
    simulate,
    solve_stationary,
    stable_marginal_separation,
    validate,
)
from varma_causal.simulation import default_burn_in

X, Y = 0, 1


def per_step_simulation(config):
    """The recursion one step at a time: the reference for ``simulate``."""
    spec = config.spec
    rw = remove_instantaneous(spec)
    burn = config.burn_in if config.burn_in is not None else default_burn_in(spec)
    rng = np.random.default_rng(config.seed)
    total, d = config.n + burn, spec.d
    if config.innovation_law is None:
        eps = rng.standard_normal((total, d))
    else:
        eps = np.asarray(config.innovation_law(rng, total, d), dtype=float)
    eps = eps * np.sqrt(spec.gamma)
    driven = eps @ rw.ice.T
    for lag, mat in enumerate(rw.ma_eps, start=1):
        driven[lag:] += eps[:-lag] @ mat.T
    ar_t = [m.T.copy() for m in rw.ar]
    series = np.zeros((total, d))
    for t in range(total):
        acc = driven[t]
        for k, mat_t in enumerate(ar_t, start=1):
            if t - k >= 0:
                acc = acc + series[t - k] @ mat_t
        series[t] = acc
    return series[burn:]


def assert_matches_per_step(config, rtol=1e-12):
    blocked, reference = simulate(config), per_step_simulation(config)
    assert blocked.shape == reference.shape == (config.n, config.spec.d)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(blocked - reference)) <= rtol * scale


def uniform_law(rng, n, d):
    return rng.uniform(-np.sqrt(3), np.sqrt(3), (n, d))


SPARSE_LAG_70 = VarmaSpec(
    a=[np.zeros((2, 2)), 0.3 * np.eye(2), *[np.zeros((2, 2))] * 68,
       np.array([[0.5, 0.0], [0.2, 0.5]])],
    gamma=[1, 2])


class TestBlockedRecursion:
    @pytest.mark.parametrize("shape, seed", [((3, 2, 2), 11), ((2, 3, 2), 5)])
    def test_sampled_specs_match_per_step(self, shape, seed):
        d, p, q = shape
        spec = sample_stable_spec(CoefficientSampler(d=d, p=p, q=q), seed)
        assert_matches_per_step(SimulationConfig(spec, n=5_000, seed=seed))

    def test_worked_spec_matches_per_step(self, varma_lagged_spec):
        assert_matches_per_step(SimulationConfig(varma_lagged_spec, n=20_000, seed=2024))

    def test_near_unit_root_matches_per_step(self):
        # both codes round differently in a near random walk, so the gap
        # grows with n; 1.1e-13 relative was measured at this length
        spec = VarmaSpec(a=[[[0.0]], [[1 - 1e-6]]], gamma=[1.0])
        assert_matches_per_step(SimulationConfig(spec, n=50_000, seed=9))

    def test_moving_average_only_is_bitwise(self):
        spec = VarmaSpec(a=[[[0, 0], [0.4, 0]]], b=[[[0.3, 0.2], [0, 0.1]], [[0, 0], [-0.5, 0]]],
                         gamma=[1, 0.5])
        config = SimulationConfig(spec, n=1_000, seed=4)
        assert np.array_equal(simulate(config), per_step_simulation(config))

    @pytest.mark.parametrize("burn_in", [0, None])
    def test_lag_order_above_block(self, burn_in):
        # lag 70 reaches back across more than one 64-step block
        assert_matches_per_step(SimulationConfig(SPARSE_LAG_70, n=300, seed=6, burn_in=burn_in))

    @pytest.mark.parametrize("n, burn_in", [(10, 5), (64, 0), (65, 0), (100, 30)])
    def test_short_series_and_partial_blocks(self, varma_lagged_spec, n, burn_in):
        assert_matches_per_step(SimulationConfig(varma_lagged_spec, n=n, seed=1, burn_in=burn_in))

    @pytest.mark.parametrize("n, burn_in", [(2_000, 0), (2_003, None)])
    def test_moving_average_order_above_block_width(self, n, burn_in):
        # 128 floats hold 4 steps at d = 32, fewer than q = 5, so the
        # level-0 block is stretched to 5 steps and the MA lags reach back
        # over the whole block before; 2,003 + 400 burn-in steps end in a
        # partial block
        spec = sample_stable_spec(CoefficientSampler(d=32, p=1, q=5), 7)
        assert simulation._block_operators(spec, 0)[3] == 5
        assert_matches_per_step(SimulationConfig(spec, n=n, seed=3, burn_in=burn_in))

    def test_zero_burn_in_with_custom_law(self):
        spec = sample_stable_spec(CoefficientSampler(d=3, p=2, q=2), 11)
        assert_matches_per_step(SimulationConfig(spec, n=1_000, seed=12, burn_in=0,
                                                 innovation_law=uniform_law))

    def test_seed_contract_independent_of_recursion(self):
        # with every A and B zero the series is the scaled innovations, so
        # this pins which draws a seed makes whatever the recursion does
        gamma = np.array([0.5, 1.0, 2.0])
        spec = VarmaSpec(a=[np.zeros((3, 3))] * 3, b=[np.zeros((3, 3))], gamma=gamma)
        n, seed = 500, 77
        burn = default_burn_in(spec)
        expected = np.sqrt(gamma) * np.random.default_rng(seed).standard_normal((n + burn, 3))[burn:]
        assert np.array_equal(simulate(SimulationConfig(spec, n=n, seed=seed)), expected)


class TestSimulate:
    def test_same_seed_identical_output(self, varma_lagged_spec):
        cfg = SimulationConfig(varma_lagged_spec, n=5_000, seed=2024)
        assert np.array_equal(simulate(cfg), simulate(cfg))

    def test_block_operators_built_once_per_spec(self, monkeypatch):
        # cached on the spec: later calls reuse them and give the series of
        # a spec that builds them afresh
        def make():
            return sample_stable_spec(CoefficientSampler(d=3, p=2, q=2), 13)

        builds = []
        companion = simulation.companion_matrix
        monkeypatch.setattr(simulation, "companion_matrix",
                            lambda ar: builds.append(ar) or companion(ar))
        spec = make()
        series = [simulate(SimulationConfig(spec, n=300, seed=s)) for s in (1, 2, 1)]
        assert len(builds) == 1
        assert np.array_equal(series[0], series[2])
        assert np.array_equal(series[1], simulate(SimulationConfig(make(), n=300, seed=2)))
        assert len(builds) == 2

    def test_block_operators_memory_bounded(self):
        # every level's operators, the fused level-0 ones included, hold
        # about (128 floats)² whatever d, so a d = 32, p = 2 spec keeps
        # well under 4 MB after 20k steps
        spec = sample_stable_spec(CoefficientSampler(d=32, p=2, q=1), 0)
        remove_instantaneous(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate(SimulationConfig(spec, n=20_000, seed=1))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cached = sum(arr.nbytes for level in spec._levels
                     for arr in level if isinstance(arr, np.ndarray))
        assert cached < 4e6
        assert kept < 4e6

    def test_white_noise_autocorrelation(self):
        spec = VarmaSpec(a=[np.zeros((2, 2)), np.zeros((2, 2))], gamma=[1, 1])
        series = simulate(SimulationConfig(spec, n=20_000, seed=5))
        n = len(series)
        for i in range(2):
            x = series[:, i] - series[:, i].mean()
            r = float(x[1:] @ x[:-1] / (x @ x))
            assert abs(r) < 4 / np.sqrt(n)

    def test_sample_covariances_match_stationary_law(self, varma_lagged_spec):
        n = 100_000
        series = simulate(SimulationConfig(varma_lagged_spec, n=n, seed=77))
        ss = solve_stationary(varma_lagged_spec)
        for h in range(4):
            emp = series[h:].T @ series[: n - h] / (n - h)
            exact = ss.autocov(h)
            scale = max(1.0, np.abs(exact).max())
            assert np.max(np.abs(emp - exact)) / scale < 0.05

    def test_varma_lagged_lag2_outcome_covariance(self, varma_lagged_spec):
        # population value 16/27 from the exact pipeline; 5 batch-mean
        # standard errors at n = 1e5
        n = 100_000
        series = simulate(SimulationConfig(varma_lagged_spec, n=n, seed=123))
        prods = series[2:, Y] * series[: n - 2, X]
        batches = np.array_split(prods, 100)
        means = np.array([b.mean() for b in batches])
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(prods.mean() - 16 / 27) < 5 * se

    def test_innovation_law_pluggable(self, varma_lagged_spec):
        cfg = SimulationConfig(varma_lagged_spec, n=50_000, seed=8,
                               innovation_law=uniform_law)
        series = simulate(cfg)
        ss = solve_stationary(varma_lagged_spec)
        emp = series.T @ series / len(series)
        assert np.max(np.abs(emp - ss.autocov(0))) < 0.05

    def test_custom_law_array_left_unchanged(self):
        # the draws are copied into the simulation's own buffer, so the
        # law's own array stays as it was
        spec = VarmaSpec(a=[np.zeros((2, 2)), [[0.5, 0], [0.2, 0.3]]], gamma=[4.0, 0.25])
        draws = np.random.default_rng(3).standard_normal((60, 2))
        kept = draws.copy()
        config = SimulationConfig(spec, n=50, seed=1, burn_in=10,
                                  innovation_law=lambda rng, n, d: draws)
        first = simulate(config)
        assert np.array_equal(draws, kept)
        assert np.array_equal(simulate(config), first)

    def test_divergent_innovations_detected(self, varma_lagged_spec):
        def explosive_law(rng, n, d):
            return np.full((n, d), 1e13)

        with pytest.raises(EstimationError, match="diverged"):
            simulate(SimulationConfig(varma_lagged_spec, n=100, seed=1,
                                      innovation_law=explosive_law))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_innovations_detected(self, varma_lagged_spec, value):
        with pytest.raises(EstimationError, match="diverged"):
            simulate(SimulationConfig(varma_lagged_spec, n=100, seed=1,
                                      innovation_law=lambda rng, n, d: np.full((n, d), value)))

    @pytest.mark.parametrize("value, diverged", [
        (1e12, False), (-1e12, False), (np.nextafter(1e12, np.inf), True),
        (-np.nextafter(1e12, np.inf), True)])
    def test_divergence_threshold_edge(self, value, diverged):
        # without lags the series is the innovations exactly, so the check
        # sees the law's value: |x| up to 1e12 passes, anything above fails
        spec = VarmaSpec(a=[np.zeros((2, 2))], gamma=[1, 1])
        config = SimulationConfig(spec, n=50, seed=1, burn_in=0,
                                  innovation_law=lambda rng, n, d: np.full((n, d), value))
        if diverged:
            with pytest.raises(EstimationError, match="diverged"):
                simulate(config)
        else:
            assert np.all(simulate(config) == value)

    def test_invalid_spec_rejected(self):
        spec = VarmaSpec(a=[[[0.0]], [[1.2]]], gamma=[1.0])
        with pytest.raises(ModelError, match="unstable"):
            simulate(SimulationConfig(spec, n=10, seed=0))

    def test_negative_burn_in_rejected(self, varma_lagged_spec):
        with pytest.raises(ModelError, match="burn_in"):
            simulate(SimulationConfig(varma_lagged_spec, n=100, seed=1, burn_in=-5))
        assert len(simulate(SimulationConfig(varma_lagged_spec, n=100, seed=1, burn_in=0))) == 100


class TestSampler:
    def test_univariate_small_scale_always_accepted(self):
        sampler = CoefficientSampler(d=1, p=1, q=0, scale=0.8)
        _, rejections = sample_stable_spec(sampler, 3, return_rejections=True)
        assert rejections == 0

    def test_accepted_specs_all_validate(self):
        sampler = CoefficientSampler(d=3, p=2, q=1)
        for seed in range(200):
            spec = sample_stable_spec(sampler, seed)
            assert validate(spec).passed

    def test_accepted_spec_validated_once(self, monkeypatch):
        # count the reports validate builds, so a call is counted however
        # the caller imported validate
        validations = []
        original = model.ValidationReport

        def counted_report(**fields):
            validations.append(fields)
            return original(**fields)

        monkeypatch.setattr(model, "ValidationReport", counted_report)
        spec, rejections = sample_stable_spec(
            CoefficientSampler(d=2, p=1, q=1), 3, return_rejections=True)
        solve_stationary(spec)
        assert rejections == 0
        assert len(validations) == 1

    def test_acceptance_rate_positive(self):
        sampler = CoefficientSampler(d=3, p=2, q=1)
        rejections = [
            sample_stable_spec(sampler, seed, return_rejections=True)[1]
            for seed in range(50)
        ]
        accept_rate = 50 / (50 + sum(rejections))
        assert accept_rate > 0.2

    def test_max_rejections_error(self):
        sampler = CoefficientSampler(d=3, p=2, q=0, scale=5.0, max_rejections=10)
        with pytest.raises(ModelError, match="reduce the coefficient scale"):
            sample_stable_spec(sampler, 0)

    def test_masks_respected(self):
        mask = np.array([[1, 0], [0, 1]], dtype=float)
        sampler = CoefficientSampler(d=2, p=1, q=1, mask_ar=[mask], mask_ma=[mask])
        spec = sample_stable_spec(sampler, 4)
        assert spec.a[1][0, 1] == 0 and spec.a[1][1, 0] == 0
        assert spec.b[0][0, 1] == 0 and spec.b[0][1, 0] == 0

    def test_sparsity_zeroes_entries(self):
        sampler = CoefficientSampler(d=3, p=2, q=1, sparsity=0.9)
        spec = sample_stable_spec(sampler, 9)
        zeros = sum(int(np.sum(m == 0)) for m in (*spec.a, *spec.b))
        assert zeros > 30  # 54 entries at 90% sparsity


class TestExperiments:
    def test_gmp_no_violations_and_deterministic(self):
        sampler = CoefficientSampler(d=2, p=1, q=1, sparsity=0.6)
        rep1 = run_gmp_experiment(sampler, trials=8, queries_per_trial=6, seed=42)
        rep2 = run_gmp_experiment(sampler, trials=8, queries_per_trial=6, seed=42)
        assert rep1.to_dict() == rep2.to_dict()
        assert rep1.summary["violations"] == 0
        assert rep1.summary["separated"] > 0
        assert rep1.summary["all_stabilized"]

    def test_diagonal_var_components_always_separated(self):
        # A0 = B = 0 with diagonal A1: distinct components never connect
        mask_diag = np.eye(2)
        sampler = CoefficientSampler(d=2, p=1, q=0, mask_a0=np.zeros((2, 2)),
                                     mask_ar=[mask_diag])
        report = run_gmp_experiment(sampler, trials=4, queries_per_trial=6, seed=3)
        for rec in report.records:
            comps_a = {v[0] for v in rec.a}
            comps_c = {v[0] for v in rec.c}
            if not (comps_a & comps_c):
                assert rec.separated
                assert rec.magnitude < 1e-10

    def test_faithfulness_low_violation_rate(self):
        sampler = CoefficientSampler(d=2, p=1, q=1, sparsity=0.5)
        report = run_faithfulness_experiment(
            sampler, trials=10, queries_per_trial=6, seed=17)
        assert report.summary["connected"] > 0
        assert report.summary["violation_rate"] < 0.05

    def test_cancellation_spec_flagged(self, cancellation_spec):
        query = SeparationQuery([endo(0, 0)], [], [endo(2, 0)])
        separated, ci, violation, _ = faithfulness_check(cancellation_spec, query)
        assert not separated
        assert ci.independent
        assert violation

    def test_cancellation_inside_experiment(self, cancellation_spec):
        report = run_faithfulness_experiment(
            lambda rng: cancellation_spec, trials=2, queries_per_trial=40,
            window=2, seed=5)
        assert report.summary["violations"] > 0

    def test_empirical_mode_populates_pvalues(self):
        sampler = CoefficientSampler(d=2, p=1, q=0, sparsity=0.5)
        report = run_gmp_experiment(sampler, trials=2, queries_per_trial=3,
                                    seed=9, mode="empirical")
        assert all(r.p_value is not None for r in report.records)

    def test_report_round_trips_to_json_and_csv(self, tmp_path):
        sampler = CoefficientSampler(d=2, p=1, q=0, sparsity=0.5)
        report = run_gmp_experiment(sampler, trials=2, queries_per_trial=2, seed=1)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        report.save_json(str(jpath))
        report.save_csv(str(cpath))
        loaded = json.loads(jpath.read_text())
        assert loaded["summary"] == report.summary
        assert len(loaded["records"]) == len(report.records)
        lines = cpath.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.records)


    def test_to_dict_holds_plain_lists(self):
        sampler = CoefficientSampler(d=2, p=1, q=0, sparsity=0.5)
        report = run_gmp_experiment(sampler, trials=1, queries_per_trial=2, seed=1)
        data = report.to_dict()
        assert type(data["records"]) is list and data["summary"] is report.summary
        for rec, row in zip(report.records, data["records"]):
            assert row["a"] == [node_to_json(v) for v in rec.a]
            assert all(type(node) is dict for node in row["a"] + row["b"] + row["c"])

class TestStructuralZero:
    """X_t = a X_(t-2) + e_t + b e_(t-1): a connected query whose conditional
    covariance vanishes for every (a, b), because the coefficients are tied
    across time. Faithfulness fails on it structurally, not by chance."""

    QUERY = SeparationQuery([endo(0, -5)], [endo(0, -3)], [endo(0, -2)])

    @pytest.mark.parametrize("a, b", [("0.7", "0.5"), ("0.2", "-0.9"), ("-0.382", "-0.055")])
    def test_connected_yet_exactly_independent(self, a, b):
        a, b = Fraction(a), Fraction(b)
        spec = VarmaSpec(a=[[[0.0]], [[0.0]], [[float(a)]]], b=[[[float(b)]]], gamma=[1.0])
        result, _, stabilized = stable_marginal_separation(spec, self.QUERY)
        assert not result.separated and stabilized
        # X@-5 -> X@-3 <-> X@-2, open at the conditioned collider X@-3
        assert result.witness == (endo(0, -5), endo(0, -3), endo(0, -2))

        # Yule-Walker with unit innovation variance: E[X_t e_t] = 1 and
        # E[X_t e_(t-1)] = b give g0 = a g2 + 1 + b², g1 = a g1 + b,
        # g2 = a g0 and g3 = a g1
        g1 = b / (1 - a)
        g0 = (1 + b * b) / (1 - a * a)
        g2, g3 = a * g0, a * g1
        ss = solve_stationary(spec)
        for h, exact in enumerate((g0, g1, g2, g3)):
            assert abs(ss.autocov(h)[0, 0] - float(exact)) <= 1e-12 * float(g0)
        # Cov(X@-5, X@-2 | X@-3) = g3 - g2 g1 / g0 = a g1 - a g0 g1 / g0
        assert g3 - g2 * g1 / g0 == 0
        assert g3 != 0  # unconditionally the two are dependent

        assert population_ci(ss, self.QUERY).independent
        assert faithfulness_check(spec, self.QUERY)[2]  # flagged as a violation


class TestFisherZ:
    @pytest.mark.parametrize("a, c, b, expected", [
        (endo(X, 0), endo(Y, 0), (endo(X, -1), endo(Y, -1)), 0.0478729128104014),
        (endo(Y, 0), endo(X, -3), (endo(Y, -1),), 0.03005141544855716)])
    def test_fixed_series_values(self, varma_lagged_spec, a, c, b, expected):
        # p-values as computed from an n x k row-major design, on a series
        # from the per-step reference loop: neither the design's memory
        # layout nor the simulation recursion may move them
        series = per_step_simulation(SimulationConfig(varma_lagged_spec, n=3_000, seed=31))
        assert abs(fisher_z_pvalue(series, a, c, b) - expected) <= 1e-12 * expected

    def test_detects_dependence_and_independence(self, varma_lagged_spec):
        series = simulate(SimulationConfig(varma_lagged_spec, n=20_000, seed=31))
        dependent = fisher_z_pvalue(series, endo(X, 0), endo(X, -1))
        assert dependent < 1e-6
        # X_t vs Y_t given {X_(t-1), Y_(t-1)} is m-separated, so the partial
        # correlation should look null
        independent = fisher_z_pvalue(
            series, endo(X, 0), endo(Y, 0), (endo(X, -1), endo(Y, -1)))
        assert independent > 1e-4
