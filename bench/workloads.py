"""The three benchmark workloads.

Each workload builds a list of inputs from the seed (``build``), runs one
round of answers through the library's public functions, visiting the inputs
in a given order (``run_round``), reduces a round to a value that must repeat
exactly in every round (``digest``), and checks the first round's outputs
against the references in ``oracles`` (``check``). Every round repeats the
same operations on the same inputs.

Calls go through the package attribute (``vc.name``) at call time, so the
wrappers that the traced mode installs on the package see them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import oracles
import varma_causal as vc

CI_TOL = 1e-7


def _nodes(nodes):
    return [(v.component, v.time) for v in nodes]


def lagged_iv_query(d: int, p: int, q: int, y: int):
    """y@0 on every component at lags 1..p, instrumented by lags L+1..L+p.

    With L = max(p, q) the instruments predate every innovation in the error
    of y@0, so the instrument set is valid by construction.
    """
    lag = max(p, q)
    x = [vc.endo(i, -k) for k in range(1, p + 1) for i in range(d)]
    i_set = [vc.endo(i, -k) for k in range(lag + 1, lag + p + 1) for i in range(d)]
    return vc.IvQuery(vc.endo(y, 0), x, i_set)


def check_gamma0(program_gamma0, law) -> str | None:
    """Compare the library's lag-0 covariance with scipy's, relative 1e-8."""
    ref = law.gamma(0)
    err = float(np.max(np.abs(np.asarray(program_gamma0) - ref)))
    if err > 1e-8 * max(1.0, float(np.max(np.abs(ref)))):
        return f"Gamma0 differs from scipy's Lyapunov solve by {err:.3g}"
    return None


def check_population_beta(beta, spec, query, law) -> str | None:
    """beta against row y of (I - A0)^-1 [A1..Ap], within 1e-10 cond(S_XI)."""
    ref = oracles.lagged_effect_row(spec.a, query.y.component)
    tol = oracles.beta_tolerance(law.cov(_nodes(query.x_set), _nodes(query.i_set)))
    err = float(np.max(np.abs(np.asarray(beta) - ref)))
    if not err <= tol:
        return f"beta for y={query.y.component} off the exact row by {err:.3g} (tol {tol:.3g})"
    return None


# -- gmp_separation -------------------------------------------------------------

class GmpSeparation:
    """Separation queries with population CI verdicts on sampled stable specs.

    One trial samples a spec with the criterion-07 mixed sampler settings
    (sparsity 0.65), solves its stationary law, and answers 20 queries on it,
    as the experiment harness does; one answer is one
    stable_marginal_separation + population_ci. Each round runs every
    (d, p, q) with d 1-3, p 1-2, q 0-2 ``specs_per_shape`` times. The specs
    come from a fixed pool drawn from ``spec_pool_seed`` and the benchmark seed
    draws the queries: a round's cost depends mostly on which specs it holds,
    and a pool drawn per seed made it vary from seed to seed.
    """

    name = "gmp_separation"
    shapes = [(d, p, q) for d in (1, 2, 3) for p in (1, 2) for q in (0, 1, 2)]
    specs_per_shape = 2
    queries_per_spec = 20
    spec_pool_seed = 707
    window = 5
    oracle_depth_factor = 4

    def _draw_query(self, rng, d):
        pool = [vc.endo(i, -t) for t in range(self.window + 1) for i in range(d)]
        rng.shuffle(pool)
        na, nc, nb = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                      int(rng.integers(0, 4)))
        na = min(na, max(1, len(pool) - 2))
        nc = min(nc, max(1, len(pool) - na - 1))
        nb = min(nb, len(pool) - na - nc)
        return vc.SeparationQuery(pool[:na], pool[na + nc:na + nc + nb], pool[na:na + nc])

    def build(self, seed: int):
        trials = []
        for k, (d, p, q) in enumerate(self.shapes * self.specs_per_shape):
            rng = np.random.default_rng((seed, k))
            sampler = vc.CoefficientSampler(d=d, p=p, q=q, sparsity=0.65)
            spec_seed = int(np.random.default_rng((self.spec_pool_seed, k)).integers(2**63))
            queries = [self._draw_query(rng, d) for _ in range(self.queries_per_spec)]
            trials.append((sampler, spec_seed, queries))
        return trials

    @staticmethod
    def _prepare(sampler, spec_seed):
        spec = vc.sample_stable_spec(sampler, spec_seed)
        return spec, vc.solve_stationary(spec)

    @staticmethod
    def _answer(spec, ss, query):
        result, _, _ = vc.stable_marginal_separation(spec, query)
        return result.separated, vc.population_ci(ss, query, tol=CI_TOL)

    def run_round(self, trials, runner, order):
        out = [None] * len(trials)
        for k in order:
            sampler, spec_seed, queries = trials[k]
            spec, ss = runner.step(("spec", k), self._prepare, sampler, spec_seed)
            out[k] = (spec, [runner.answer((k, j), self._answer, spec, ss, query)
                             for j, query in enumerate(queries)])
        return out

    def digest(self, outputs):
        return tuple((sep, ci.max_abs_correlation) for _, answers in outputs
                     for sep, ci in answers)

    def check(self, trials, outputs):
        return check_gmp([queries for _, _, queries in trials], outputs,
                         self.window, self.oracle_depth_factor)


def check_gmp(queries_per_trial, outputs, window: int, depth_factor: int):
    """networkx d-separation, the global Markov property, and non-vacuity.

    Each spec's full-time DAG with innovation nodes reaches depth_factor *
    lag * (d + 1) below the earliest query time, several times deeper than the
    library's first window of (lag + 1) * (d + 1).
    """
    problems = []
    counts = {True: 0, False: 0}
    for queries, (spec, answers) in zip(queries_per_trial, outputs):
        f, _ = oracles.state_space(spec.a, spec.b)
        if f.size and max(abs(np.linalg.eigvals(f))) >= 1:
            problems.append(f"sampled spec {spec!r} is not stable")
        lag = max(spec.max_lag, 1)
        dag = oracles.full_time_dag(
            spec.a, spec.b, -window - depth_factor * lag * (spec.d + 1), 0)
        for query, (separated, ci) in zip(queries, answers):
            ref = oracles.d_separated(dag, _nodes(query.a), _nodes(query.b), _nodes(query.c))
            if separated != ref:
                problems.append(f"{query} on {spec!r}: verdict {separated}, networkx {ref}")
            if separated and not ci.max_abs_correlation < CI_TOL:
                problems.append(f"{query} on {spec!r}: separated but conditional "
                                f"correlation {ci.max_abs_correlation:.3g}")
            counts[bool(separated)] += 1
    if not counts[True] or not counts[False]:
        problems.append(f"vacuous round: {counts[True]} separated, {counts[False]} connected")
    return problems


# -- iv_wide ----------------------------------------------------------------------

class IvWide:
    """Population IV identification with conditions off on wide specs.

    Seeded specs are VARMA(1, q) with a strong diagonal AR part, so the moment
    matrix stays well conditioned on every seed; (d, q) sets the state
    dimension d(1 + q) from 16 to 72, across the direct-solve limit of 60.
    One answer is one identify_population call; the target y cycles over the
    components of each spec. The last answer of every round is the kept
    failure: a fixed, seed-independent d=12, p=4, q=2 spec whose well-posed
    just-identified query the library rejects.
    """

    name = "iv_wide"
    # (d, q, answers per round)
    shapes = [(8, 1, 30), (8, 2, 20), (8, 3, 10), (10, 3, 4), (12, 3, 2),
              (15, 3, 1), (16, 3, 16), (18, 3, 16)]
    kept_shape = (12, 4, 2)
    kept_seed = 7

    @staticmethod
    def _wide_spec(rng, d, q):
        while True:
            a0 = np.zeros((d, d))
            perm = rng.permutation(d)
            a0[np.ix_(perm, perm)] = np.tril(
                rng.uniform(-0.3, 0.3, (d, d)) * (rng.random((d, d)) < 0.2), -1)
            a1 = rng.uniform(-0.05, 0.05, (d, d)) / np.sqrt(d)
            np.fill_diagonal(a1, 0.8 * rng.uniform(0.9, 1.0, d))
            b = [rng.uniform(-0.3, 0.3, (d, d)) / np.sqrt(d) for _ in range(q)]
            c = np.linalg.inv(np.eye(d) - a0)
            if max(abs(np.linalg.eigvals(c @ a1))) < 0.95:
                return vc.VarmaSpec([a0, a1], b, rng.uniform(0.5, 2.0, d))

    def build(self, seed: int):
        answers = []
        for k, (d, q, count) in enumerate(self.shapes):
            specs = [self._wide_spec(np.random.default_rng((seed, k, j)), d, q)
                     for j in range(-(-count // d))]
            answers += [(specs[j // d], lagged_iv_query(d, 1, q, j % d)) for j in range(count)]
        d, p, q = self.kept_shape
        kept = vc.sample_stable_spec(vc.CoefficientSampler(d=d, p=p, q=q), self.kept_seed)
        answers.append((kept, lagged_iv_query(d, p, q, 0)))
        return answers

    def run_round(self, answers, runner, order):
        out = [None] * len(answers)
        for k in order:
            spec, query = answers[k]
            out[k] = runner.answer(k, vc.identify_population, spec, query,
                                   check_conditions=False)
        return out

    def digest(self, outputs):
        return tuple(type(r).__name__ if isinstance(r, Exception) else r.beta.tobytes()
                     for r in outputs)

    def expected_failures(self, answers):
        return {len(answers) - 1}

    def check(self, answers, outputs):
        problems = []
        laws = {}
        for index, ((spec, query), result) in enumerate(zip(answers, outputs)):
            if id(spec) not in laws:
                laws[id(spec)] = oracles.ScipyLaw(spec.a, spec.b, spec.gamma)
                problems.append(check_gamma0(vc.solve_stationary(spec).autocov(0),
                                             laws[id(spec)]))
            law = laws[id(spec)]
            if index in self.expected_failures(answers):
                problems.append(self._check_kept(spec, query, result, law))
            elif isinstance(result, Exception):
                problems.append(f"answer {index} failed: {result}")
            else:
                problems.append(check_population_beta(result.beta, spec, query, law))
        return [p for p in problems if p]

    @staticmethod
    def _check_kept(spec, query, result, law):
        """The kept query is well posed: solving S_XI' beta' = S_YI' directly
        recovers the exact row to 1e-9. An answer is checked like any other;
        a failure must be the EstimationError of the moment-matrix gate."""
        if not isinstance(result, Exception):
            return check_population_beta(result.beta, spec, query, law)
        if type(result) is not vc.EstimationError:
            return f"kept query failed with {result!r}, not EstimationError"
        s_xi = law.cov(_nodes(query.x_set), _nodes(query.i_set))
        s_yi = law.cov(_nodes([query.y]), _nodes(query.i_set))
        beta = np.linalg.solve(s_xi.T, s_yi.T).ravel()
        err = float(np.max(np.abs(beta - oracles.lagged_effect_row(spec.a, query.y.component))))
        if not err <= 1e-9:
            return f"kept query is not well posed: direct solve misses the exact row by {err:.3g}"
        return None


# -- simulate_estimate ------------------------------------------------------------

WORKED = {  # X_t = 1/2 X_(t-1) + eX_t + 1/4 eY_(t-1);  Y_t = 1/3 X_(t-1) + 1/2 Y_(t-1) + eY_t
    "a": [[[0, 0], [0, 0]], [[0.5, 0], [1 / 3, 0.5]]],
    "b": [[[0, 0.25], [0, 0]]],
    "gamma": [1, 1],
}
WIDER = {  # d = 3, p = q = 2, instantaneous chain 0 -> 1 -> 2
    "a": [[[0, 0, 0], [0.4, 0, 0], [0, -0.3, 0]],
          [[0.5, 0, 0.1], [0, 0.4, 0], [0.2, 0, 0.3]],
          [[-0.2, 0, 0], [0, 0.2, 0], [0, 0.1, -0.1]]],
    "b": [[[0.3, 0, 0], [0, 0, 0.2], [0, 0.25, 0]],
          [[0, 0.2, 0], [0, 0.15, 0], [0.1, 0, 0]]],
    "gamma": [1, 0.8, 1.2],
}
# exact rational coefficients of WORKED
WORKED_EXACT = ([["1/2", 0], ["1/3", "1/2"]], [[0, "1/4"], [0, 0]], [[1, 0], [0, 1]])
WORKED_GAMMA0 = [["17/12", "13/27"], ["13/27", "427/243"]]


@dataclasses.dataclass(frozen=True)
class SeriesSummary:
    """What the checks need of a simulated series, so no series is kept."""

    shape: tuple
    digest: str
    cov: np.ndarray  # lag-0 sample covariance, divisor n

    @classmethod
    def of(cls, series):
        return cls(series.shape, hashlib.blake2b(series.tobytes()).hexdigest(),
                   np.cov(series, rowvar=False, bias=True))


class SimulateEstimate:
    """The README flow: simulate, estimate_from_data, identify_population.

    Each round simulates 70 trajectories of the worked VARMA(1,1) spec and 30
    of a fixed wider d=3, p=q=2 spec, 10k to 200k steps long, with simulation
    seeds drawn from the benchmark seed. One answer is one simulate +
    estimate + identify (conditions on).
    """

    name = "simulate_estimate"
    # trajectory lengths per round: 70 for the worked spec, 30 for the wider
    # one. Sorted by cost, answers 1-60 are worked 10k runs and answers 67-94
    # wider 10k runs, so the median and the 90th percentile each fall inside
    # a block of alike answers rather than on the edge between two blocks.
    lengths = ((10_000,) * 60 + (20_000,) * 6 + (50_000,) * 2 + (100_000, 200_000),
               (10_000,) * 28 + (50_000, 100_000))
    clt_sigmas = 6.0

    def build(self, seed: int):
        worked = vc.VarmaSpec(**WORKED)
        wider = vc.VarmaSpec(**WIDER)
        specs = [(worked, vc.IvQuery(vc.endo(1, 0), (vc.endo(0, -1), vc.endo(1, -1)),
                                     (vc.endo(0, -2), vc.endo(1, -2)))),
                 (wider, lagged_iv_query(3, 2, 2, 0))]
        answers = []
        for s, ((spec, query), lengths) in enumerate(zip(specs, self.lengths)):
            for k, n in enumerate(lengths):
                sim_seed = int(np.random.default_rng((seed, s, k)).integers(2**63))
                answers.append((vc.SimulationConfig(spec, n=n, seed=sim_seed), query))
        return answers

    @staticmethod
    def _answer(config, query):
        series = vc.simulate(config)
        estimate = vc.estimate_from_data(series, query)
        population = vc.identify_population(config.spec, query)
        return series, estimate, population

    def run_round(self, answers, runner, order):
        out = [None] * len(answers)
        for k in order:
            series, estimate, population = runner.answer(k, self._answer, *answers[k])
            out[k] = (SeriesSummary.of(series), estimate, population)
        return out

    def digest(self, outputs):
        return tuple((s.digest, e.beta.tobytes(), p.beta.tobytes()) for s, e, p in outputs)

    def check(self, answers, outputs):
        return check_simulate_estimate(answers, outputs, self.clt_sigmas)


def worked_exact_law():
    """A, Gamma0, Gamma1 of the worked spec in Fractions.

    Gamma0 is the literal WORKED_GAMMA0, proved exact by a zero residual in the
    Yule-Walker lag-0 equation; Gamma1 = A Gamma0 + B Sigma.
    """
    from fractions import Fraction

    a1, b1, sigma = ([[Fraction(x) for x in row] for row in m] for m in WORKED_EXACT)
    gamma0 = [[Fraction(x) for x in row] for row in WORKED_GAMMA0]
    residual = oracles.varma11_lag0_residual(gamma0, a1, b1, sigma)
    if any(x != 0 for row in residual for x in row):
        raise AssertionError(f"{WORKED_GAMMA0} leaves Yule-Walker residual {residual}")
    return a1, gamma0, oracles.varma11_gamma1(gamma0, a1, b1, sigma)


def check_simulate_estimate(answers, outputs, sigmas: float):
    problems = []
    a1, gamma0, gamma1 = worked_exact_law()
    gammas = oracles.varma11_autocovariances(gamma0, gamma1, a1, horizon=200)
    for (config, query), (series, estimate, population) in zip(answers, outputs):
        spec = config.spec
        ref = oracles.lagged_effect_row(spec.a, query.y.component)
        if not np.max(np.abs(population.beta - ref)) <= 1e-9:
            problems.append(f"population beta {population.beta} is not {ref} to 1e-9")
        if not population.conditions.all_hold:
            problems.append(f"IV conditions fail for {spec!r}: {population.conditions}")
        if series.shape != (config.n, spec.d):
            problems.append(f"series shape {series.shape} for n={config.n}")
        if spec.d != 2:
            continue
        # worked spec: CLT bounds around the exact law
        sd = oracles.iv_asymptotic_sd(oracles.to_float(gamma1), oracles.to_float(gamma0),
                                      1.0, estimate.sample_size)
        if not oracles.within(estimate.beta, ref, sigmas * sd):
            problems.append(f"n={config.n}: beta_hat {estimate.beta} outside "
                            f"{sigmas} sd {sd} of {ref}")
        sd_cov = oracles.lag0_sample_cov_sd(gammas, config.n)
        if not oracles.within(series.cov, gammas[0], sigmas * sd_cov):
            problems.append(f"n={config.n}: sample Gamma0 {series.cov.tolist()} outside "
                            f"{sigmas} sd of the exact law")
    seen = set()
    for (config, _), (series, _, _) in zip(answers, outputs):
        if id(config.spec) not in seen:
            seen.add(id(config.spec))
            if SeriesSummary.of(vc.simulate(config)).digest != series.digest:
                problems.append(f"seed {config.seed} gave a different series on rerun")
    return [p for p in problems if p]


WORKLOADS = {w.name: w for w in (GmpSeparation(), IvWide(), SimulateEstimate())}
