"""Acceptance suite: one pass/fail line per criterion (run with -s to stream).

Criterion 1 runs on the worked VARMA(1,1) example ``varma_lagged_spec`` and is
split in two. ``test_criterion_01_identified_effect`` checks that IV
identification from the exact stationary law returns beta = (1/3, 1/2) within
a second, and that the cross covariances match the conftest constants.
``test_criterion_01_reference_covariance_tables`` derives the reference tables
Cov(X, I) and Cov(Y, I) in exact rational arithmetic by the Yule-Walker
equations, without the library, and checks the library's stationary law, the
conftest constants and the identified beta against them.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from varma_causal import (
    CoefficientSampler,
    IvQuery,
    SeparationQuery,
    SimulationConfig,
    cross_covariance,
    endo,
    estimate_from_data,
    faithfulness_check,
    ice_matrix,
    identify_population,
    latent_project,
    m_separated,
    remove_instantaneous,
    run_faithfulness_experiment,
    run_gmp_experiment,
    sample_stable_spec,
    simulate,
    solve_stationary,
)
from reference import (
    d_separated_moral, embed_as_var, exact_lyapunov, m_separated_oracle, mat_add, mat_mul,
    sigma_delta, solve_exact, transpose)
from conftest import LAGGED_SPEC_BETA, LAGGED_SPEC_COV_XI, LAGGED_SPEC_COV_YI, random_admg, random_dag, random_query
from test_model import brute_force_ice, random_acyclic_a0

X, Y = 0, 1

# varma_lagged_spec in exact rationals: S_t = A1 S_(t-1) + e_t + B1 e_(t-1),
# Cov(e_t) = SIGMA.
LAGGED_A1 = [[Fraction(1, 2), Fraction(0)], [Fraction(1, 3), Fraction(1, 2)]]
LAGGED_B1 = [[Fraction(0), Fraction(1, 4)], [Fraction(0), Fraction(0)]]
LAGGED_SIGMA = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def yule_walker_lagged_tables():
    """Exact Cov(X, I) and Cov(Y, I) of varma_lagged_spec, without the library.

    With Gamma_k = E[S_t S_(t-k)^T], A = A1, B = B1, Sigma = SIGMA:

        Gamma_0 = A Gamma_0 A^T + A Sigma B^T + B Sigma A^T + Sigma + B Sigma B^T
        Gamma_1 = A Gamma_0 + B Sigma
        Gamma_2 = A Gamma_1

    Gamma_0 comes from the linear system (I - A kron A) vec Gamma_0 = vec Q in
    rationals (``reference.exact_lyapunov``). With X = (X@-1, Y@-1),
    I = (X@-2, Y@-2) and Y = Y@0, Cov(X, I) = Gamma_1 and Cov(Y, I) is row Y
    of Gamma_2.
    """
    a, b, sigma = LAGGED_A1, LAGGED_B1, LAGGED_SIGMA
    q = mat_add(mat_mul(mat_mul(a, sigma), transpose(b)), mat_mul(mat_mul(b, sigma), transpose(a)),
                sigma, mat_mul(mat_mul(b, sigma), transpose(b)))
    gamma0 = exact_lyapunov(a, q)
    gamma1 = mat_add(mat_mul(a, gamma0), mat_mul(b, sigma))
    gamma2 = mat_mul(a, gamma1)
    return gamma1, [gamma2[Y]]


def report(tag, ok, detail):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def lagged_spec_nodes():
    return {
        "y": endo(Y, 0),
        "x": (endo(X, -1), endo(Y, -1)),
        "i": (endo(X, -2), endo(Y, -2)),
    }


def mixed_sampler(rng):
    d = int(rng.integers(1, 4))
    p = int(rng.integers(1, 3))
    q = int(rng.integers(0, 3))
    return sample_stable_spec(
        CoefficientSampler(d=d, p=p, q=q, sparsity=0.65), rng)


class TestCriterion01WorkedPopulation:
    def test_criterion_01_identified_effect(self, varma_lagged_spec, lagged_spec_nodes):
        start = time.perf_counter()
        ss = solve_stationary(varma_lagged_spec)
        cov_xi = cross_covariance(ss, lagged_spec_nodes["x"], lagged_spec_nodes["i"])
        cov_yi = cross_covariance(ss, (lagged_spec_nodes["y"],), lagged_spec_nodes["i"])
        result = identify_population(
            varma_lagged_spec, IvQuery(lagged_spec_nodes["y"], lagged_spec_nodes["x"], lagged_spec_nodes["i"]),
            check_conditions=False)
        elapsed = time.perf_counter() - start
        beta_err = float(np.max(np.abs(result.beta - LAGGED_SPEC_BETA)))
        ok = beta_err < 1e-9 and elapsed < 1.0
        assert report(
            "01 (beta)", ok,
            f"identified beta err {beta_err:.2e}, runtime {elapsed * 1e3:.0f} ms")
        # exact cross-covariance values; test_criterion_01_reference_covariance_tables
        # checks these constants against a rational Yule-Walker derivation
        xi_err = float(np.max(np.abs(cov_xi - LAGGED_SPEC_COV_XI)))
        yi_err = float(np.max(np.abs(cov_yi - LAGGED_SPEC_COV_YI)))
        assert report(
            "01 (derived covariances)", xi_err < 1e-9 and yi_err < 1e-9,
            f"Cov(X,I) err {xi_err:.2e}, Cov(Y,I) err {yi_err:.2e}")

    def test_criterion_01_reference_covariance_tables(self, varma_lagged_spec, lagged_spec_nodes):
        spec = varma_lagged_spec
        # the rational derivation describes the fixture's own process
        assert (spec.p, spec.q) == (1, 1) and not spec.a[0].any()
        for got, exact in ((spec.a[1], LAGGED_A1), (spec.b[0], LAGGED_B1),
                           (np.diag(spec.gamma), LAGGED_SIGMA)):
            assert np.array_equal(got, np.array(exact, dtype=float))

        ref_xi, ref_yi = yule_walker_lagged_tables()
        F = Fraction
        assert ref_xi == [[F(17, 24), F(53, 108)], [F(77, 108), F(505, 486)]]
        assert ref_yi == [[F(16, 27), F(166, 243)]]
        # Cov(Y, I) = beta Cov(X, I) identifies beta exactly
        beta = solve_exact(transpose(ref_xi), ref_yi[0])
        assert beta == [F(1, 3), F(1, 2)]

        ref_xi = np.array(ref_xi, dtype=float)
        ref_yi = np.array(ref_yi, dtype=float)
        # the constants other tests compare against rest on this derivation
        assert np.max(np.abs(LAGGED_SPEC_COV_XI - ref_xi)) < 1e-15
        assert np.max(np.abs(LAGGED_SPEC_COV_YI - ref_yi)) < 1e-15
        assert np.max(np.abs(LAGGED_SPEC_BETA - np.array(beta, dtype=float))) < 1e-15

        ss = solve_stationary(spec)
        cov_xi = cross_covariance(ss, lagged_spec_nodes["x"], lagged_spec_nodes["i"])
        cov_yi = cross_covariance(ss, (lagged_spec_nodes["y"],), lagged_spec_nodes["i"])
        err = max(float(np.max(np.abs(cov_xi - ref_xi))),
                  float(np.max(np.abs(cov_yi - ref_yi))))
        assert report("01 (reference tables)", err < 1e-9,
                      f"exact Yule-Walker reference tables, max err {err:.3e}")


class TestCriterion02VarInstantRewrite:
    def test_criterion_02(self, var_instant_spec):
        rw = remove_instantaneous(var_instant_spec)
        lag_err = abs(rw.ar[0][1, 0] - 1 / 6)
        sigma_err = float(np.max(np.abs(sigma_delta(var_instant_spec)
                                        - np.array([[9, 3], [3, 10]]) / 9)))
        ok = lag_err < 1e-12 and sigma_err < 1e-12
        assert report("02", ok,
                      f"lagged coeff err {lag_err:.2e}, sigma_delta err {sigma_err:.2e}")


class TestCriterion03VarmaInstantRewrite:
    def test_criterion_03(self, varma_instant_spec):
        rw = remove_instantaneous(varma_instant_spec)
        errs = (
            abs(rw.ar[0][1, 0] - 13 / 30),
            abs(rw.ice[1, 0] - 1 / 5),
            abs(rw.ma_eps[0][1, 1] - 1 / 20),
        )
        ok = max(errs) < 1e-12
        assert report("03", ok, f"rewrite coefficient errs {[f'{e:.2e}' for e in errs]}")


class TestCriterion04SeparationOracle:
    def test_criterion_04(self):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        agree = total = 0
        for kind in ("dag", "admg"):
            produced = 0
            while produced < 1000:
                if kind == "dag":
                    g = random_dag(rng, int(rng.integers(2, 10)), time_spread=2)
                else:
                    g = random_admg(rng, int(rng.integers(2, 9)))
                produced += 1
                for _ in range(2):
                    q = random_query(rng, g)
                    if q is None:
                        continue
                    verdict = m_separated(g, q).separated
                    oracle = m_separated_oracle(g, q)
                    total += 1
                    agree += verdict == oracle
                    if kind == "dag":
                        total += 1
                        agree += d_separated_moral(g, q) == oracle
        elapsed = time.perf_counter() - start
        ok = agree == total and elapsed < 30
        assert report(
            "04", ok,
            f"{agree}/{total} oracle agreements on 2000 graphs, {elapsed:.1f}s")


class TestCriterion05LatentProjection:
    def test_criterion_05(self):
        rng = np.random.default_rng(505)
        agree = total = 0
        produced = 0
        while produced < 500:
            g = random_dag(rng, int(rng.integers(3, 10)))
            keep = [v for v in g.nodes if rng.random() < 0.6]
            if len(keep) < 2:
                continue
            produced += 1
            proj = latent_project(g, keep)
            pool = list(keep)
            rng.shuffle(pool)
            b = pool[2:2 + int(rng.integers(0, 3))]
            q = SeparationQuery([pool[0]], b, [pool[1]])
            total += 1
            agree += m_separated(g, q).separated == m_separated(proj, q).separated
        ok = agree == total
        assert report("05", ok, f"{agree}/{total} projection agreements on 500 DAGs")


class TestCriterion06IceOracle:
    def test_criterion_06(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a0 = random_acyclic_a0(rng, d)
            worst = max(worst, float(np.max(np.abs(
                ice_matrix(a0) - brute_force_ice(a0)))))
        ok = worst < 1e-10
        assert report("06", ok, f"200 instantaneous matrices, max path-sum err {worst:.2e}")


class TestCriterion07GlobalMarkov:
    def test_criterion_07(self):
        start = time.perf_counter()
        result = run_gmp_experiment(mixed_sampler, trials=200,
                                    queries_per_trial=20, window=5,
                                    tol=1e-7, seed=707)
        elapsed = time.perf_counter() - start
        summary = result.summary
        ok = (summary["violations"] == 0 and summary["queries"] == 4000
              and summary["separated"] >= 200 and elapsed < 300)
        assert report(
            "07", ok,
            f"{summary['separated']} separated queries of {summary['queries']}, "
            f"{summary['violations']} violations, max |corr| "
            f"{summary['max_separated_magnitude']:.2e}, {elapsed:.0f}s")


class TestCriterion08Faithfulness:
    def test_criterion_08(self, cancellation_spec):
        result = run_faithfulness_experiment(mixed_sampler, trials=200,
                                             queries_per_trial=20, window=5,
                                             tol=1e-7, seed=707)
        summary = result.summary
        rate_ok = summary["violation_rate"] < 0.01 and summary["connected"] > 0
        query = SeparationQuery([endo(0, 0)], [], [endo(2, 0)])
        separated, ci, violation, _ = faithfulness_check(cancellation_spec, query)
        cancel_ok = violation and not separated and ci.independent
        ok = rate_ok and cancel_ok
        assert report(
            "08", ok,
            f"violation rate {summary['violation_rate']:.4f} over "
            f"{summary['connected']} connected queries; cancellation spec "
            f"flagged: {violation}")


class TestCriterion09EstimatorConsistency:
    def test_criterion_09(self, varma_lagged_spec, lagged_spec_nodes):
        start = time.perf_counter()
        query = IvQuery(lagged_spec_nodes["y"], lagged_spec_nodes["x"], lagged_spec_nodes["i"])

        series = simulate(SimulationConfig(varma_lagged_spec, n=200_000, seed=909))
        big_err = float(np.max(np.abs(
            estimate_from_data(series, query).beta - LAGGED_SPEC_BETA)))

        def err_at(n, seed):
            data = simulate(SimulationConfig(varma_lagged_spec, n=n, seed=seed))
            return float(np.max(np.abs(
                estimate_from_data(data, query).beta - LAGGED_SPEC_BETA)))

        small = np.median([err_at(10_000, s) for s in range(20)])
        large = np.median([err_at(100_000, s) for s in range(20)])
        elapsed = time.perf_counter() - start
        ok = big_err < 0.02 and small >= 2 * large and elapsed < 120
        assert report(
            "09", ok,
            f"err(2e5) {big_err:.4f}; median err 1e4/1e5 = "
            f"{small:.4f}/{large:.4f} (ratio {small / large:.2f}); {elapsed:.0f}s")


class TestCriterion10LyapunovResidual:
    def test_criterion_10(self, var_instant_spec, varma_instant_spec, varma_lagged_spec):
        residuals = {}
        for name, spec in (("ex1", var_instant_spec), ("ex2", varma_instant_spec),
                           ("ex5", varma_lagged_spec), ("ex5-embedded", embed_as_var(varma_lagged_spec)),
                           ("ex2-embedded", embed_as_var(varma_instant_spec))):
            residuals[name] = solve_stationary(spec).residual
        rng = np.random.default_rng(1010)
        for k in range(25):
            spec = mixed_sampler(rng)
            residuals[f"sampled-{k}"] = solve_stationary(spec).residual
        worst = max(residuals.values())
        ok = worst < 1e-10
        assert report("10", ok, f"max relative Lyapunov residual {worst:.2e} "
                                f"over {len(residuals)} solves")
