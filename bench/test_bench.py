"""Tests of the benchmark's output checks: each passes on the library's true
answers and fails on a planted error.

    python3 -m pytest bench -q
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import varma_causal as vc  # noqa: E402
import workloads as wl  # noqa: E402
from measure import Runner, unexpected_failures  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def one_round(workload, inputs):
    runner = Runner()
    return workload.run_round(inputs, runner, range(len(inputs))), runner


@pytest.fixture(scope="module")
def gmp():
    workload = wl.GmpSeparation()
    trials = workload.build(5)
    outputs, _ = one_round(workload, trials)
    return workload, trials, outputs


def gmp_problems(workload, trials, outputs):
    return wl.check_gmp([q for _, _, q in trials], outputs, workload.window,
                        workload.oracle_depth_factor)


def replace_answer(outputs, want_separated, new_answer):
    """Copy of outputs with the first answer of the given verdict replaced."""
    out = [(spec, list(answers)) for spec, answers in outputs]
    for _, answers in out:
        for k, (separated, ci) in enumerate(answers):
            if separated == want_separated:
                answers[k] = new_answer(separated, ci)
                return out
    raise AssertionError("no answer with that verdict")


def test_moral_graph_oracle_matches_networkx_d_separator(gmp):
    import networkx as nx

    workload, trials, outputs = gmp
    compared = 0
    for (_, _, queries), (spec, _) in zip(trials, outputs):
        # shallow windows keep nx.is_d_separator fast
        dag = oracles.full_time_dag(spec.a, spec.b, -workload.window - 2 * spec.max_lag, 0)
        for q in queries:
            a, b, c = ({("S", v.component, v.time) for v in s} for s in (q.a, q.b, q.c))
            assert oracles.d_separated(dag, wl._nodes(q.a), wl._nodes(q.b), wl._nodes(q.c)) \
                == nx.is_d_separator(dag, a, c, b)
            compared += 1
    assert compared == sum(len(q) for _, _, q in trials) >= 80


def test_gmp_check_passes_on_library_answers(gmp):
    assert gmp_problems(*gmp) == []


@pytest.mark.parametrize("verdict", [True, False])
def test_gmp_check_fails_on_flipped_verdict(gmp, verdict):
    workload, trials, outputs = gmp
    flipped = replace_answer(outputs, verdict, lambda sep, ci: (not sep, ci))
    problems = gmp_problems(workload, trials, flipped)
    assert any("networkx" in p for p in problems)


def test_gmp_check_fails_on_markov_violation(gmp):
    workload, trials, outputs = gmp
    violated = replace_answer(outputs, True, lambda sep, ci: (
        sep, dataclasses.replace(ci, max_abs_correlation=1e-3, independent=False)))
    assert any("conditional correlation" in p for p in gmp_problems(workload, trials, violated))


def test_gmp_check_fails_when_vacuous(gmp):
    workload, trials, outputs = gmp
    keep = [k for k, (_, answers) in enumerate(outputs) if not any(s for s, _ in answers)]
    problems = wl.check_gmp([trials[k][2] for k in keep], [outputs[k] for k in keep],
                            workload.window, workload.oracle_depth_factor)
    assert any("vacuous" in p for p in problems)


@pytest.fixture(scope="module")
def iv_small():
    """The first n=16 spec of iv_wide, its query for y=0, and scipy's law."""
    spec, query = wl.IvWide().build(5)[0]
    return spec, query, oracles.ScipyLaw(spec.a, spec.b, spec.gamma)


def test_iv_beta_check_fails_on_shift(iv_small):
    spec, query, law = iv_small
    beta = vc.identify_population(spec, query, check_conditions=False).beta
    assert wl.check_population_beta(beta, spec, query, law) is None
    moved = beta.copy()
    moved[3] += 1e-6
    assert wl.check_population_beta(moved, spec, query, law) is not None


def test_gamma0_check_fails_on_shifted_entry(iv_small):
    spec, _, law = iv_small
    gamma0 = vc.solve_stationary(spec).autocov(0).copy()
    assert wl.check_gamma0(gamma0, law) is None
    gamma0[2, 5] += 1e-6
    assert wl.check_gamma0(gamma0, law) is not None


def test_kept_failure_is_a_well_posed_query_the_library_rejects():
    workload = wl.IvWide()
    answers = workload.build(5)
    (index,) = workload.expected_failures(answers)
    spec, query = answers[index]
    law = oracles.ScipyLaw(spec.a, spec.b, spec.gamma)
    with pytest.raises(vc.EstimationError) as err:
        vc.identify_population(spec, query, check_conditions=False)
    assert workload._check_kept(spec, query, err.value, law) is None
    assert workload._check_kept(spec, query, vc.ModelError("other"), law) is not None
    # once the gate is fixed, a right answer passes and a wrong one does not
    beta = oracles.lagged_effect_row(spec.a, query.y.component)
    right = vc.IvResult(beta, 0.0, None, "population")
    assert workload._check_kept(spec, query, right, law) is None
    wrong = vc.IvResult(beta + 1e-3, 0.0, None, "population")
    assert workload._check_kept(spec, query, wrong, law) is not None


def test_only_kept_failures_are_allowed():
    workload = wl.IvWide()
    answers = workload.build(5)
    (kept,) = workload.expected_failures(answers)
    runner = Runner()
    runner.failed_keys = {kept}
    assert unexpected_failures(workload, answers, [runner]) == []
    runner.failed_keys = {kept, 0}
    assert unexpected_failures(workload, answers, [runner]) == ["answer 0 failed"]
    runner.failed_keys = set()
    assert unexpected_failures(workload, answers, [runner]) == []


def test_worked_law_is_exact():
    a1, gamma0, gamma1 = wl.worked_exact_law()
    assert gamma0 == [[Fraction(17, 12), Fraction(13, 27)], [Fraction(13, 27), Fraction(427, 243)]]
    assert gamma1 == [[Fraction(17, 24), Fraction(53, 108)], [Fraction(77, 108), Fraction(505, 486)]]
    b1, sigma = ([[Fraction(x) for x in row] for row in m] for m in wl.WORKED_EXACT[1:])
    shifted = [row[:] for row in gamma0]
    shifted[0][1] += Fraction(1, 10**6)
    assert oracles.varma11_lag0_residual(shifted, a1, b1, sigma) != [[0, 0], [0, 0]]


@pytest.fixture(scope="module")
def sim():
    """One 10k-step answer per spec of simulate_estimate."""
    workload = wl.SimulateEstimate()
    answers = workload.build(5)
    answers = [answers[0], answers[len(workload.lengths[0])]]
    outputs, _ = one_round(workload, answers)
    return workload, answers, outputs


def sim_problems(sim, edit):
    workload, answers, outputs = sim
    edited = [list(o) for o in outputs]
    edit(edited)
    return wl.check_simulate_estimate(answers, [tuple(o) for o in edited], workload.clt_sigmas)


def test_simulate_estimate_check_passes_on_library_answers(sim):
    assert sim_problems(sim, lambda out: None) == []


@pytest.mark.parametrize("k", [0, 1])
def test_population_beta_check_fails_on_shift(sim, k):
    def edit(out):
        pop = out[k][2]
        out[k][2] = dataclasses.replace(pop, beta=pop.beta + 1e-6)
    assert any("population beta" in p for p in sim_problems(sim, edit))


def test_all_hold_check_fails(sim):
    def edit(out):
        pop = out[1][2]
        out[1][2] = dataclasses.replace(
            pop, conditions=dataclasses.replace(pop.conditions, all_hold=False))
    assert any("IV conditions" in p for p in sim_problems(sim, edit))


def test_beta_hat_bound_fails_far_from_truth(sim):
    def edit(out):
        est = out[0][1]
        out[0][1] = dataclasses.replace(est, beta=est.beta + [0.0, 0.2])
    assert any("beta_hat" in p for p in sim_problems(sim, edit))


def test_sample_covariance_bound_and_rerun_fail_on_changed_series(sim):
    series = vc.simulate(sim[1][0][0])
    series[:, 0] *= 1.2

    def edit(out):
        out[0][0] = wl.SeriesSummary.of(series)
    problems = sim_problems(sim, edit)
    assert any("sample Gamma0" in p for p in problems)
    assert any("different series" in p for p in problems)


def test_tracer_records_layers_and_restores_originals():
    spec = vc.VarmaSpec(**wl.WORKED)
    query = vc.SeparationQuery([vc.endo(0, 0)], [vc.endo(0, -1), vc.endo(1, -1)], [vc.endo(1, 0)])
    originals = (vc.m_separated, vc.effects.marginalized_admg_window,
                 vc.DirectedMixedGraph.__init__, vc.simulation.solve_stationary)
    tracer = Tracer()
    tracer.install()
    try:
        assert vc.effects.m_separated is not originals[0]
        tracer.answer = 0
        vc.stable_marginal_separation(spec, query)
    finally:
        tracer.uninstall()
    assert (vc.m_separated, vc.effects.marginalized_admg_window,
            vc.DirectedMixedGraph.__init__, vc.simulation.solve_stationary) == originals
    names = {rec[1] for rec in tracer.spans}
    assert {"effects.separation", "model.window", "graphs.latent_project",
            "graphs.graph_build", "graphs.m_separated", "graphs.augment"} <= names
    assert all(rec[3] == 0 for rec in tracer.spans)
    metrics = layer_metrics(tracer.spans, rounds=1, answers=1)
    assert metrics["effects.separation.rounds_per_query"][0] >= 2
    assert metrics["model.window.calls"][0] == metrics["effects.separation.rounds_per_query"][0]
