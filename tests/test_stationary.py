import math
import struct
import sys
from collections import Counter
from fractions import Fraction as Fr

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from varma_causal import (
    CoefficientSampler,
    IvQuery,
    ModelError,
    SeparationQuery,
    SimulationConfig,
    VarmaSpec,
    conditional_covariance,
    cross_covariance,
    endo,
    estimate_from_data,
    fisher_z_pvalue,
    identify_population,
    innov,
    m_separated,
    population_ci,
    sample_stable_spec,
    simulate,
    solve_stationary,
    validate,
)
from varma_causal import iv, stationary
from varma_causal.simulation import _draw_query
from varma_causal.stationary import (
    LYAPUNOV_MAX_DOUBLINGS,
    LYAPUNOV_RESIDUAL_RTOL,
    PINV_RTOL,
    RANK_RTOL,
    numerical_rank,
    _solve_lyapunov_doubling,
)
from conftest import LAGGED_SPEC_COV_XI, LAGGED_SPEC_COV_YI
from reference import (autocovariances_by_recursion, embed_as_var, exact_state_covariance,
                       lyapunov_doubling_by_difference, population_ci_by_cross_covariance,
                       rewritten_full_time_window, schur_complement_by_eigh)
from test_model import random_stable_spec

X, Y = 0, 1


def near_unit_root_varma11():
    """Rewritten AR matrix with eigenvalues 1 - 1e-6, 0.4, -0.3 and an
    instantaneous edge 0 -> 2."""
    rng = np.random.default_rng(37)
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    ar = v @ np.diag([1 - 1e-6, 0.4, -0.3]) @ v.T
    a0 = np.zeros((3, 3))
    a0[2, 0] = 0.5
    return VarmaSpec([a0, (np.eye(3) - a0) @ ar],
                     [rng.uniform(-0.3, 0.3, (3, 3))], [1.0, 0.5, 2.0])


class TestLyapunov:
    def test_univariate_ar1_variance(self):
        ss = solve_stationary(VarmaSpec(a=[[[0.0]], [[0.5]]], gamma=[1.0]))
        assert ss.autocov(0)[0, 0] == pytest.approx(4 / 3, abs=1e-12)

    def test_matches_scipy_on_random_specs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            spec = random_stable_spec(rng)
            ss = solve_stationary(spec)
            q = ss.g_load @ np.diag(spec.gamma) @ ss.g_load.T
            ref = solve_discrete_lyapunov(ss.f, q)
            assert np.max(np.abs(ref - ss.sigma_z)) < 1e-9
            assert ss.residual < LYAPUNOV_RESIDUAL_RTOL

    def test_doubling_path_for_large_state(self):
        # the largest state in this module: d*(p+q) = 7*9 = 63
        rng = np.random.default_rng(32)
        spec = random_stable_spec(rng, d=7, p=5, q=4, sparsity=0.8)
        ss = solve_stationary(spec)
        assert ss.f.shape[0] == 63
        q = ss.g_load @ np.diag(spec.gamma) @ ss.g_load.T
        ref = solve_discrete_lyapunov(ss.f, q)
        assert np.max(np.abs(ref - ss.sigma_z)) < 1e-9

    def test_doubling_agrees_with_direct_solver(self):
        # scipy's direct method solves the Kronecker-vectorized system
        rng = np.random.default_rng(33)
        f = rng.uniform(-0.3, 0.3, (6, 6))
        g = rng.uniform(-1, 1, (6, 2))
        q = g @ g.T
        direct = solve_discrete_lyapunov(f, q, method="direct")
        doubled, _ = _solve_lyapunov_doubling(f, q)
        assert np.max(np.abs(direct - doubled)) < 1e-11

    def test_near_unit_root_ar1(self):
        phi = 1 - 1e-6
        spec = VarmaSpec(a=[[[0.0]], [[phi]]], gamma=[1.0])
        ss = solve_stationary(spec)
        # 1 - phi is exact in floating point, 1 - phi**2 is not
        exact = 1.0 / ((1.0 - phi) * (1.0 + phi))
        assert ss.autocov(0)[0, 0] == pytest.approx(exact, rel=1e-9)
        assert ss.residual < LYAPUNOV_RESIDUAL_RTOL
        _, iterations = _solve_lyapunov_doubling(ss.f, ss.g_load @ ss.g_load.T)
        assert iterations < LYAPUNOV_MAX_DOUBLINGS

    def test_small_variance_scale(self):
        # the solve must not depend on the scale of the variances
        phi, gamma = 0.9, 1e-10
        ss = solve_stationary(VarmaSpec(a=[[[0.0]], [[phi]]], gamma=[gamma]))
        assert ss.autocov(0)[0, 0] == pytest.approx(gamma / (1 - phi ** 2), rel=1e-12)
        assert ss.residual < LYAPUNOV_RESIDUAL_RTOL

    def test_near_unit_root_varma11(self):
        spec = near_unit_root_varma11()
        assert validate(spec).passed
        ss = solve_stationary(spec)
        assert np.max(np.abs(np.linalg.eigvals(ss.f))) == pytest.approx(1 - 1e-6, abs=1e-12)
        q = ss.g_load @ np.diag(spec.gamma) @ ss.g_load.T
        ref = solve_discrete_lyapunov(ss.f, q)
        assert np.max(np.abs(ref - ss.sigma_z)) < 1e-9 * np.max(np.abs(ref))
        assert ss.residual < LYAPUNOV_RESIDUAL_RTOL
        _, iterations = _solve_lyapunov_doubling(ss.f, q)
        assert iterations < LYAPUNOV_MAX_DOUBLINGS

    def test_residual_gate_fires(self, monkeypatch, varma_lagged_spec):
        solve = stationary._solve_lyapunov_doubling

        def off_by_1e_6(f, q):
            sigma, iterations = solve(f, q)
            return sigma * (1 + 1e-6), iterations

        monkeypatch.setattr(stationary, "_solve_lyapunov_doubling", off_by_1e_6)
        with pytest.raises(ModelError, match="Lyapunov solve residual"):
            solve_stationary(varma_lagged_spec)

    def test_unstable_spec_rejected(self):
        with pytest.raises(ModelError, match="unstable"):
            solve_stationary(VarmaSpec(a=[[[0.0]], [[1.01]]], gamma=[1.0]))

    def test_psd_state_covariance(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            ss = solve_stationary(random_stable_spec(rng))
            eigs = np.linalg.eigvalsh(ss.sigma_z)
            assert eigs.min() > -1e-10 * max(eigs.max(), 1.0)


# rational specs (A0..Ap, B1..Bq, gamma) for the exact whole-state solve
EXACT_SPECS = {
    # instantaneous edge 0 -> 1, so Theta_0 = C is not the identity
    "d2_p1_q2_instantaneous": (
        [[[0, 0], [Fr(1, 2), 0]], [[Fr(1, 2), Fr(1, 5)], [0, Fr(1, 3)]]],
        [[[Fr(1, 4), 0], [Fr(1, 3), Fr(-1, 5)]], [[0, Fr(1, 6)], [Fr(-1, 7), 0]]],
        [1, Fr(3, 2)]),
    "d1_p2_q2": ([[[0]], [[Fr(1, 2)]], [[Fr(-1, 3)]]], [[[Fr(2, 5)]], [[Fr(1, 4)]]], [2]),
    "d2_p0_q2": ([[[0, Fr(1, 3)], [0, 0]]],
                 [[[Fr(1, 2), Fr(-1, 4)], [0, Fr(1, 3)]], [[Fr(1, 5), 0], [Fr(1, 6), Fr(-1, 2)]]],
                 [Fr(1, 2), 1]),
}


# the companion root 1 - 2^-20 of the near-unit-root rational specs, whose
# entries are all dyadic, so each float spec is its rational spec exactly
NEAR_ROOT = 1 - Fr(1, 2**20)
NEAR_ROOT_SPECS = {
    "ar1": ([[[0]], [[NEAR_ROOT]]], [], [1]),
    # instantaneous edge 0 -> 1; C A1 = [[rho, 0], [1/4, 1/4]], roots rho and 1/4
    "d2_varma11_instantaneous": (
        [[[0, 0], [Fr(1, 2), 0]], [[NEAR_ROOT, 0], [Fr(1, 4) - NEAR_ROOT / 2, Fr(1, 4)]]],
        [[[Fr(1, 4), 0], [Fr(1, 8), Fr(-1, 2)]]],
        [1, Fr(3, 2)]),
}
RATIONAL_SPECS = {**EXACT_SPECS, **NEAR_ROOT_SPECS}


def exact_spec(name):
    a, b, gamma = RATIONAL_SPECS[name]
    return VarmaSpec([np.array(m, dtype=float) for m in a],
                     [np.array(m, dtype=float) for m in b], [float(g) for g in gamma])


def exact_sigma_z(name):
    a, b, gamma = RATIONAL_SPECS[name]
    frac = lambda ms: [[[Fr(x) for x in row] for row in m] for m in ms]
    return np.array(exact_state_covariance(frac(a), frac(b), [Fr(g) for g in gamma]),
                    dtype=float)


class TestExactStateCovariance:
    @pytest.mark.parametrize("name", sorted(EXACT_SPECS))
    def test_sigma_z_matches_rational_solve(self, name):
        exact = exact_sigma_z(name)
        ss = solve_stationary(exact_spec(name))
        assert ss.sigma_z.shape == exact.shape
        assert np.max(np.abs(ss.sigma_z - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("name", sorted(NEAR_ROOT_SPECS))
    def test_near_unit_root_error_within_the_conditioning_bound(self, name):
        # Sigma_z solves (I - F kron F) vec Sigma = vec Q. The eigenvalues of
        # I - F kron F are 1 - l_i l_j over the roots l of F, the smallest
        # being 1 - rho^2 at the slow root rho, so a rounding of relative
        # size eps in the equation (eps = 2^-52) moves Sigma_z by up to
        # eps / (1 - rho^2) relative: 2^-52 / (2^-19 - 2^-40) = 1.16e-10.
        # The solve is off by about 9.8e-12 here, which the 1e-13 of the
        # well-damped specs above would reject.
        exact = exact_sigma_z(name)
        ss = solve_stationary(exact_spec(name))
        error = np.max(np.abs(ss.sigma_z - exact)) / np.max(np.abs(exact))
        assert np.max(np.abs(np.linalg.eigvals(ss.f))) == pytest.approx(float(NEAR_ROOT),
                                                                       abs=1e-12)
        assert error <= np.finfo(float).eps / float(1 - NEAR_ROOT ** 2)
        # the residual gate passes: it bounds the residual, not this error
        assert ss.residual < LYAPUNOV_RESIDUAL_RTOL


GATE_SPECS = {
    **{name: lambda name=name: exact_spec(name) for name in EXACT_SPECS},
    "d3_p2_q0": lambda: random_stable_spec(np.random.default_rng(38), d=3, p=2, q=0),
    "d3_p0_q2": lambda: random_stable_spec(np.random.default_rng(39), d=3, p=0, q=2),
    "near_unit_root_varma11": near_unit_root_varma11,
}


class TestGateAndStopRule:
    """The residual gate and the doubling stop, each by a dot product."""

    @pytest.mark.parametrize("name", sorted(GATE_SPECS))
    def test_residual_is_the_dense_frobenius_residual(self, name):
        spec = GATE_SPECS[name]()
        ss = solve_stationary(spec)
        q = (ss.g_load * spec.gamma) @ ss.g_load.T
        dense = (np.linalg.norm(ss.sigma_z - ss.f @ ss.sigma_z @ ss.f.T - q, "fro")
                 / np.linalg.norm(ss.sigma_z, "fro"))
        # the residual is itself at rounding level, so also compare relatively
        assert abs(ss.residual - dense) <= 1e-15
        assert abs(ss.residual - dense) <= 1e-9 * dense

    @pytest.mark.parametrize("name", sorted(GATE_SPECS))
    def test_step_stop_doubles_as_often_as_the_difference_stop(self, name, monkeypatch):
        solves = []
        original = stationary._solve_lyapunov_doubling

        def recording(f, q):
            out = original(f, q)
            solves.append((f, q, *out))
            return out

        monkeypatch.setattr(stationary, "_solve_lyapunov_doubling", recording)
        solve_stationary(GATE_SPECS[name]())
        (f, q, sigma, iterations), = solves
        by_difference, expected = lyapunov_doubling_by_difference(f, q)
        assert iterations == expected
        assert np.array_equal(sigma, by_difference)


class TestCrossCovariance:
    def test_scalar_variance_positive(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        out = cross_covariance(ss, [endo(X, 0)], [endo(X, 0)])
        assert isinstance(out, np.ndarray)
        assert out.shape == (1, 1) and out[0, 0] > 0

    def test_varma_lagged_treatment_instrument_block(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        xs = [endo(X, -1), endo(Y, -1)]
        instruments = [endo(X, -2), endo(Y, -2)]
        got = cross_covariance(ss, xs, instruments)
        assert np.max(np.abs(got - LAGGED_SPEC_COV_XI)) < 1e-12
        assert got[0, 0] == pytest.approx(17 / 24, abs=1e-12)

    def test_varma_lagged_outcome_instrument_block(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        got = cross_covariance(ss, [endo(Y, 0)], [endo(X, -2), endo(Y, -2)])
        assert np.max(np.abs(got - LAGGED_SPEC_COV_YI)) < 1e-12

    def test_time_symmetry(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        a, b = endo(X, 0), endo(Y, -2)
        forward = cross_covariance(ss, [a], [b])[0, 0]
        backward = cross_covariance(ss, [b], [a])[0, 0]
        assert forward == pytest.approx(backward, abs=1e-14)

    def test_gather_reads_the_autocovariance_entries(self):
        # one gather over the stacked lag table reads the very entries of
        # autocov(tu - tv)[cu, cv], for either sign of the lag, repeated
        # nodes, shrinking and growing spans, and empty node lists
        rng = np.random.default_rng(36)
        for _ in range(10):
            spec = random_stable_spec(rng, d=3)
            ss = solve_stationary(spec)
            for span in (6, 2, 9):
                pool = [endo(i, t) for t in range(-span, 1) for i in range(3)]
                u = [pool[k] for k in rng.integers(0, len(pool), 5)]
                v = [pool[k] for k in rng.integers(0, len(pool), 4)]
                expected = [[ss.autocov(a.time - b.time)[a.component, b.component]
                             for b in v] for a in u]
                assert np.array_equal(cross_covariance(ss, u, v), expected)
            assert cross_covariance(ss, [], v).shape == (0, 4)
            assert cross_covariance(ss, u, []).shape == (5, 0)

    def test_innovation_nodes_rejected(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        with pytest.raises(ModelError, match="endogenous"):
            cross_covariance(ss, [innov(X, 0)], [endo(X, 0)])

    def test_components_outside_the_spec_rejected(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        for bad in (endo(-1, 0), endo(2, -1), endo(5, 0)):
            with pytest.raises(ModelError, match="outside"):
                cross_covariance(ss, [endo(X, 0)], [bad])
            with pytest.raises(ModelError, match="outside"):
                conditional_covariance(ss, [endo(X, 0)], [endo(Y, 0)], [bad])
            with pytest.raises(ModelError, match="outside"):
                population_ci(ss, SeparationQuery([bad], [], [endo(Y, 0)]))

    def test_embedded_pipeline_matches_direct(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            spec = random_stable_spec(rng, d=2)
            direct = solve_stationary(spec)
            embedded = solve_stationary(embed_as_var(spec))
            for h in range(4):
                err = np.max(np.abs(
                    embedded.autocov(h)[:2, :2] - direct.autocov(h)))
                assert err < 1e-9


class TestConditionalCovariance:
    def test_empty_b_equals_cross_covariance(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        a, c = [endo(Y, 0)], [endo(X, -1)]
        plain = cross_covariance(ss, a, c)
        cond = conditional_covariance(ss, a, c, [])
        assert np.array_equal(plain, cond)

    def test_var_instant_conditional_independence(self, var_instant_spec):
        ss = solve_stationary(var_instant_spec)
        cond = conditional_covariance(
            ss, [endo(Y, 0)], [endo(X, -1)], [endo(X, 0), endo(Y, -1)])
        assert abs(cond[0, 0]) < 1e-12

    def test_conditional_variance_psd(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            spec = random_stable_spec(rng)
            ss = solve_stationary(spec)
            nodes = [endo(i, -t) for i in range(spec.d) for t in (0, 1)]
            cond = conditional_covariance(
                ss, nodes[:2], nodes[:2], nodes[2:4] if len(nodes) > 3 else [])
            assert np.linalg.eigvalsh((cond + cond.T) / 2).min() > -1e-10

    def test_swap_symmetry(self, varma_instant_spec):
        ss = solve_stationary(varma_instant_spec)
        a, c, b = [endo(X, 0), endo(Y, 0)], [endo(X, -2)], [endo(Y, -1)]
        left = conditional_covariance(ss, a, c, b)
        right = conditional_covariance(ss, c, a, b)
        assert np.max(np.abs(left - right.T)) < 1e-14

    def test_overlap_rejected(self, varma_lagged_spec):
        ss = solve_stationary(varma_lagged_spec)
        with pytest.raises(ModelError, match="overlaps"):
            conditional_covariance(ss, [endo(X, 0)], [endo(Y, 0)], [endo(X, 0)])

    @pytest.mark.parametrize("caller", ["conditional_covariance", "estimate_from_data",
                                        "fisher_z_pvalue", "population_ci",
                                        "population_ci_without_b"])
    def test_one_schur_step_per_call(self, varma_lagged_spec, monkeypatch, caller):
        # population and sample moments share one Schur step, taken once per
        # call; population_ci takes none for an empty B
        b = (endo(Y, -3), endo(X, -4))
        series = simulate(SimulationConfig(varma_lagged_spec, n=500, seed=2))
        calls = {
            "conditional_covariance": lambda: conditional_covariance(
                solve_stationary(varma_lagged_spec), [endo(X, 0)], [endo(Y, -1)], b),
            "estimate_from_data": lambda: estimate_from_data(series, IvQuery(
                endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2)), b)),
            "fisher_z_pvalue": lambda: fisher_z_pvalue(series, endo(X, 0), endo(Y, -1), b),
            "population_ci": lambda: population_ci(
                solve_stationary(varma_lagged_spec), SeparationQuery([endo(X, 0)], b,
                                                                     [endo(Y, -1)])),
            "population_ci_without_b": lambda: population_ci(
                solve_stationary(varma_lagged_spec), SeparationQuery([endo(X, 0)], (),
                                                                     [endo(Y, -1)])),
        }
        steps = []
        original = stationary._schur_complement

        def counting(joint, nb):
            steps.append(nb)
            return original(joint, nb)

        for name, module in list(sys.modules.items()):  # every binding of the step
            if (name.startswith("varma_causal")
                    and vars(module).get("_schur_complement") is original):
                monkeypatch.setattr(module, "_schur_complement", counting)
        calls[caller]()
        assert steps == ([] if caller == "population_ci_without_b" else [len(b)])


def schur_of_blocks(monkeypatch, s_ac, s_ab, s_cb, s_bb):
    """conditional_covariance on a joint (a ∪ b) x (b ∪ c) covariance given by its blocks."""
    na, nc, nb = len(s_ac), len(s_cb), len(s_bb)
    joint = np.block([[s_ab, s_ac], [s_bb, s_cb.T]])
    monkeypatch.setattr(stationary, "cross_covariance", lambda ss, u, v: joint)
    nodes = [endo(0, -t) for t in range(na + nc + nb)]
    return conditional_covariance(None, nodes[:na], nodes[na:na + nc], nodes[na + nc:])


class TestPseudoInverse:
    """The pseudo-inverse of Cov(B, B) inside conditional_covariance."""

    @pytest.mark.parametrize("ratio, kept", [(2e-10, True), (5e-11, False)])
    def test_eigenvalue_cut_at_pinv_rtol(self, monkeypatch, ratio, kept):
        # Cov(B, B) = Q diag(1, ratio) Q^T; a and c load the small direction
        # q2 by sqrt(ratio), which adds -1 to Cov(a, c | B) while it is kept
        assert PINV_RTOL == 1e-10
        q1, q2 = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
        s_bb = np.outer(q1, q1) + ratio * np.outer(q2, q2)
        load = (q1 + np.sqrt(ratio) * q2)[None]
        cond = schur_of_blocks(monkeypatch, np.array([[3.0]]), load, load, s_bb)
        assert cond[0, 0] == pytest.approx(1.0 if kept else 2.0, abs=1e-5)

    def test_matches_numpy_pinv(self, monkeypatch):
        # with a and c loading B by the identity, Cov(a, c | B) = -pinv(Cov(B, B))
        rng = np.random.default_rng(1410)
        for m in range(1, 5):
            for rank in range(m + 1):
                for scale in (1e-6, 1.0, 1e6):
                    root = rng.standard_normal((m, rank))
                    s_bb = scale * root @ root.T
                    eye = np.eye(m)
                    inverse = -schur_of_blocks(monkeypatch, np.zeros((m, m)), eye, eye, s_bb)
                    expected = np.linalg.pinv(s_bb, rcond=PINV_RTOL, hermitian=True)
                    assert np.linalg.norm(inverse - expected) <= 1e-14 * np.linalg.norm(expected)


def assert_same_schur_bytes(joint, nb):
    got, kept = stationary._schur_complement(joint, nb)
    want, want_kept = schur_complement_by_eigh(joint, nb)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert kept.tolist() == want_kept.tolist()
    return kept


class TestOneNodeSchurStep:
    """One B node takes S_AC - (S_AB (1/S_BB)) S_BC without ``eigh``; on a
    1 x 1 matrix ``eigh`` gives w = S_BB and V = 1, so the bytes and the
    kept mask are those of the ``eigh`` route."""

    def test_population_side(self):
        rng = np.random.default_rng(2701)
        for k in range(40):
            spec = sample_stable_spec(CoefficientSampler(
                d=1 + k % 3, p=1 + k % 2, q=k % 3, sparsity=0.3), rng)
            ss = solve_stationary(spec)
            pool = [endo(i, -t) for t in range(6) for i in range(spec.d)]
            for _ in range(5):
                nodes = [pool[j] for j in rng.permutation(len(pool))[:5]]
                na = int(rng.integers(1, 3))
                a, b, c = nodes[:na], nodes[na:na + 1], nodes[na + 1:]
                assert_same_schur_bytes(cross_covariance(ss, (*a, *b), (*b, *c)), 1)
                stacked = (*a, *c)
                assert_same_schur_bytes(cross_covariance(ss, (*stacked, *b), (*b, *stacked)), 1)

    def test_sample_side(self, varma_lagged_spec, monkeypatch):
        # the (A ∪ B) x (B ∪ C) Gram matrices that estimate_from_data and
        # fisher_z_pvalue form, one chunk and several
        joints = []
        original = iv._schur_complement
        monkeypatch.setattr(iv, "_schur_complement",
                            lambda joint, nb: joints.append(joint.copy()) or original(joint, nb))
        for n in (500, 40_000):
            series = simulate(SimulationConfig(varma_lagged_spec, n=n, seed=n))
            estimate_from_data(series, IvQuery(endo(Y, 0), (endo(X, -1),), (endo(X, -2),),
                                               (endo(Y, -3),)))
            fisher_z_pvalue(series, endo(X, 0), endo(Y, -1), (endo(X, -2),))
        assert len(joints) == 4
        for joint in joints:
            assert_same_schur_bytes(joint, 1)

    @pytest.mark.parametrize("s_bb", [0.0, -0.0, 1e-300, -2.5, 1e300])
    def test_edge_values_of_s_bb(self, s_bb):
        # S_BB = 0 keeps nothing and returns S_AC, signed zeros included
        joint = np.array([[1.5, -0.0, 0.0, 2.0],
                          [-3.0, 0.25, -0.0, 7.0],
                          [s_bb, 0.5, -1.25, 3.0]])
        assert_same_schur_bytes(joint, 1)
        got, kept = stationary._schur_complement(joint, 1)
        if s_bb == 0:
            assert not kept[0] and got.tobytes() == joint[:2, 1:].tobytes()


class TestEighSchurStep:
    """Two or more B nodes take the ``eigh`` step; when every eigenvalue is
    kept it uses V without the mask copies, in the order they give it, so the
    bytes are those of the masked route."""

    def test_population_joints(self):
        rng = np.random.default_rng(2803)
        for k in range(30):
            spec = sample_stable_spec(CoefficientSampler(
                d=2 + k % 2, p=1 + k % 2, q=k % 3, sparsity=0.3), rng)
            ss = solve_stationary(spec)
            pool = [endo(i, -t) for t in range(6) for i in range(spec.d)]
            for nb in (2, 3):
                nodes = [pool[j] for j in rng.permutation(len(pool))[:nb + 3]]
                a, b, c = nodes[:1], nodes[1:nb + 1], nodes[nb + 1:]
                assert all(assert_same_schur_bytes(
                    cross_covariance(ss, (*a, *b), (*b, *c)), nb))

    def test_dropped_direction(self):
        # the fourth column is a combination of the second and third, so
        # S_BB of B = columns 1..3 is singular and one direction is dropped
        rng = np.random.default_rng(2804)
        m = rng.standard_normal((50, 5))
        m[:, 3] = m[:, 1] - 2.0 * m[:, 2]
        gram = m.T @ m
        for a, c in (([0], [4]), ([0, 4], [4, 0])):
            kept = assert_same_schur_bytes(gram[np.ix_([*a, 1, 2, 3], [1, 2, 3, *c])], 3)
            assert kept.tolist().count(False) == 1


class TestPopulationCiGather:
    """``population_ci`` gathers Python floats from the lag rows; its
    verdicts are those of the ``cross_covariance`` route."""

    @staticmethod
    def assert_same_verdict(ss, query):
        got = population_ci(ss, query)
        want = population_ci_by_cross_covariance(ss, query)
        assert (got.independent, got.degenerate, got.tol) == (
            want.independent, want.degenerate, want.tol)
        assert (struct.pack("<d", got.max_abs_correlation)
                == struct.pack("<d", want.max_abs_correlation))
        return got

    def test_matches_the_cross_covariance_route(self):
        # criterion-07 specs and queries: d 1-3, p 1-2, q 0-2, sparsity 0.65,
        # nodes at lags 0..5 and 0-3 conditioning nodes
        sizes = Counter()
        for trial in range(40):
            rng = np.random.default_rng((2805, trial))
            spec = sample_stable_spec(CoefficientSampler(
                d=int(rng.integers(1, 4)), p=int(rng.integers(1, 3)),
                q=int(rng.integers(0, 3)), sparsity=0.65), rng)
            ss = solve_stationary(spec)
            for _ in range(20):
                query = _draw_query(rng, spec.d, 5)
                self.assert_same_verdict(ss, query)
                sizes[len(query.b)] += 1
        assert min(sizes[nb] for nb in range(4)) >= 100

    def test_degenerate_node_and_dropped_direction(self):
        # S_t = eps_t: in the embedded process component 2 copies component
        # 0, so conditioning 0 on 2 leaves it no variance, and Cov(B, B) of
        # B = {0, 2} at one time is singular
        ss = solve_stationary(embed_as_var(VarmaSpec(a=[np.zeros((2, 2))], gamma=[1.0, 1.0])))
        flagged = self.assert_same_verdict(
            ss, SeparationQuery([endo(0, 0)], [endo(2, 0)], [endo(1, 0)]))
        assert flagged.degenerate
        a, b, c = [endo(1, 0)], [endo(0, -1), endo(2, -1)], [endo(3, 0), endo(1, -1)]
        self.assert_same_verdict(ss, SeparationQuery(a, b, c))
        kept = stationary._schur_complement(
            cross_covariance(ss, (*a, *c, *b), (*b, *a, *c)), len(b))[1]
        assert kept.tolist().count(False) == 1

    def test_rows_only_for_population_ci(self, varma_lagged_spec, monkeypatch):
        # the other readers of a fresh law gather from the table and build no rows
        built = []
        original = stationary.StateSpaceForm._lag_rows
        monkeypatch.setattr(stationary.StateSpaceForm, "_lag_rows",
                            lambda self, span: built.append(span) or original(self, span))
        ss = solve_stationary(varma_lagged_spec)
        conditional_covariance(ss, [endo(X, 0)], [endo(Y, -1)], [endo(Y, -3), endo(X, -4)])
        identify_population(varma_lagged_spec, IvQuery(
            endo(Y, 0), (endo(X, -1), endo(Y, -1)), (endo(X, -2), endo(Y, -2))))
        assert built == [] and ss._rows == (None, None)
        population_ci(ss, SeparationQuery([endo(X, 0)], [endo(Y, -3)], [endo(Y, -1)]))
        assert built == [3] and ss._rows[0] is ss._lags[0]

    def test_rows_are_never_served_after_a_growth(self, varma_instant_spec):
        ss = solve_stationary(varma_instant_spec)
        short = SeparationQuery([endo(X, 0)], [endo(Y, 0)], [endo(Y, -1)])
        population_ci(ss, short)
        old_table, old_rows = ss._rows
        assert old_table is ss._lags[0] and old_rows == old_table.tolist()
        ss.autocov(12)  # grows the table past the rows
        assert ss._lags[0] is not old_table
        for query in (short, SeparationQuery([endo(X, 0)], [endo(Y, -4)], [endo(Y, -9)])):
            verdict = population_ci(ss, query)
            table, rows = ss._rows
            assert table is ss._lags[0] and rows is not old_rows and rows == table.tolist()
            assert verdict == population_ci_by_cross_covariance(
                solve_stationary(varma_instant_spec), query)


class TestPopulationCi:
    def test_var_instant_separated_query_independent(self, var_instant_spec):
        ss = solve_stationary(var_instant_spec)
        q = SeparationQuery([endo(Y, 0)], [endo(X, 0), endo(Y, -1)], [endo(X, -1)])
        verdict = population_ci(ss, q)
        assert verdict.independent and not verdict.degenerate
        assert verdict.max_abs_correlation < 1e-12

    def test_rewritten_graph_connection_does_not_break_ci(self, var_instant_spec):
        # the rewritten full-time DAG connects the pair, yet the distribution
        # keeps the conditional independence of the original separation
        g = rewritten_full_time_window(var_instant_spec, -2, 0,
                                       include_innovations=False)
        q = SeparationQuery([endo(Y, 0)], [endo(X, 0), endo(Y, -1)], [endo(X, -1)])
        assert not m_separated(g, q).separated
        assert population_ci(solve_stationary(var_instant_spec), q).independent

    def test_adjacent_nodes_dependent(self, var_instant_spec):
        ss = solve_stationary(var_instant_spec)
        q = SeparationQuery([endo(X, -1)], [], [endo(X, 0)])
        assert not population_ci(ss, q).independent

    def test_degenerate_conditioning_flagged(self):
        # S_t = eps_t exactly: conditioning S on its own innovation channel in
        # the embedded process leaves zero conditional variance
        spec = VarmaSpec(a=[np.zeros((2, 2))], gamma=[1.0, 1.0])
        emb = embed_as_var(spec)
        ss = solve_stationary(emb)
        q = SeparationQuery([endo(0, 0)], [endo(2, 0)], [endo(1, 0)])
        verdict = population_ci(ss, q)
        assert verdict.degenerate and verdict.independent

    @pytest.mark.parametrize("g, degenerate", [(1.2e-10, True), (1.5e-10, False)])
    def test_degenerate_cutoff_is_1e_10_of_the_variance(self, g, degenerate):
        # X_t = Y_t + eX_t, Y_t = Y_(t-1)/2 + eY_t, Var(eX) = g: Var(X@0 | Y@0)
        # = g against Var(X@0) = g + 4/3, so the cutoff lies at g = 1.33e-10
        spec = VarmaSpec(a=[[[0, 1], [0, 0]], [[0, 0], [0, 0.5]]], gamma=[g, 1])
        q = SeparationQuery([endo(X, 0)], [endo(Y, 0)], [endo(Y, -1)])
        assert population_ci(solve_stationary(spec), q).degenerate is degenerate

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tolerance_outside_open_positive_range_rejected(self, varma_lagged_spec, tol):
        ss = solve_stationary(varma_lagged_spec)
        q = SeparationQuery([endo(X, -1)], [], [endo(Y, 0)])
        assert population_ci(ss, q, tol=0.5).max_abs_correlation > 0.2
        with pytest.raises(ModelError, match="CI tolerance must be positive and finite"):
            population_ci(ss, q, tol=tol)


class TestNumericalRank:
    def test_cutoff_at_rank_rtol(self):
        # singular values count when above RANK_RTOL times the largest
        assert RANK_RTOL == 1e-8
        assert numerical_rank(np.diag([1, 0.99e-8])) == 1
        assert numerical_rank(np.diag([1, 1.01e-8])) == 2
        assert numerical_rank(np.diag([1e3, 0.99e-5])) == 1  # relative to the largest


class TestLagTable:
    """A law keeps one d x d lag table, grown by n x d column blocks."""

    @staticmethod
    def wide_law():
        # state dimension n = 12 · (4 + 2) = 72
        spec = sample_stable_spec(CoefficientSampler(d=12, p=4, q=2, sparsity=0.5), 72)
        ss = solve_stationary(spec)
        assert ss.f.shape == (72, 72)
        return ss

    def test_held_arrays_stay_small(self):
        ss = self.wide_law()
        ss.autocov(40)
        held = [a for value in vars(ss).values()
                for a in (value if isinstance(value, (tuple, list)) else (value,))
                if isinstance(a, np.ndarray)]
        # F, G, Sigma_z, 81 lag blocks of 12 x 12 and one 72 x 12 block:
        # 0.19 MB; n x n blocks per lag would hold 1.7 MB
        assert sum(a.nbytes for a in held) < 0.3e6

    def test_lags_match_the_state_recursion(self):
        ss = self.wide_law()
        expected = autocovariances_by_recursion(ss, 40)
        for h in range(-40, 41):
            got = ss.autocov(h)
            assert np.max(np.abs(got - expected[h])) <= 1e-13 * np.max(np.abs(expected[h]))
            assert np.array_equal(ss.autocov(-h), got.T)
        with pytest.raises(ValueError, match="read-only"):
            ss.autocov(3)[0, 0] = 0.0


class TestConcurrentTableGrowth:
    def test_parallel_readers_get_consistent_blocks(self, varma_instant_spec):
        from concurrent.futures import ThreadPoolExecutor

        ss = solve_stationary(varma_instant_spec)
        reference = [solve_stationary(varma_instant_spec).autocov(h) for h in range(40)]

        def read(h):
            return np.max(np.abs(ss.autocov(h) - reference[h]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the table growth
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                errors = list(pool.map(read, list(range(40)) * 5))
        finally:
            sys.setswitchinterval(interval)
        assert max(errors) == 0.0

    def test_parallel_verdicts_read_rows_of_their_own_table(self, varma_instant_spec):
        # on each fresh law, verdicts spanning 1..39 lags in a shuffled order
        # interleave row builds with table growth
        from concurrent.futures import ThreadPoolExecutor

        queries = [SeparationQuery([endo(X, 0)], [endo(Y, -(h // 2))], [endo(Y, -h)])
                   for h in range(1, 40)]
        reference = [population_ci_by_cross_covariance(solve_stationary(varma_instant_spec), q)
                     for q in queries]
        order = np.random.default_rng(2807).permutation(list(range(39)) * 3).tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between the table and its rows
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    ss = solve_stationary(varma_instant_spec)
                    same = list(pool.map(lambda k: population_ci(ss, queries[k]) == reference[k],
                                         order, timeout=60))
                    assert all(same)
        finally:
            sys.setswitchinterval(interval)
