"""Trajectory simulation, stable coefficient sampling, and the Monte Carlo
harnesses that exercise the global Markov property and almost-sure
faithfulness at desk scale.

Determinism contract: a 64-bit experiment seed fully determines every
sampled spec, query and series; each trial derives its own generator from
(seed, trial index), so a trial's records do not depend on the trials run
before it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EstimationError, ModelError
from .graphs import SeparationQuery, TimedNode, endo, node_label
from .model import VarmaSpec, as_integer, companion_matrix, remove_instantaneous
from .stationary import (CI_DEFAULT_TOL, StateSpaceForm, _check_tol, population_ci,
                         solve_stationary)
from .effects import _field_dict, stable_marginal_separation
from .iv import _CHUNK_ROWS, _chunks, _sample_conditional_covariance


def default_burn_in(spec: VarmaSpec) -> int:
    # geometric ergodicity makes the start-up transient decay like rho^burn
    # for spectral radius rho: negligible at this depth for well-damped specs,
    # but not near the unit root (rho = 1 - 1e-6 leaves rho^200 ~ 0.9998)
    return 50 * (spec.p + spec.q) + 100


# floats per block of driving terms at every level of the simulation
# recursion, so a level's operators hold about _BLOCK_WIDTH² floats whatever
# its dimension. Chosen by measurement (fused level 0, q = 1, median of 3) on
# a 2-core x86_64 machine with one OpenBLAS thread: 200k steps took
# 18.5/13.9/15.9 ms at widths 64/128/256 for d = 2, p = 1, 26/22/26 ms for
# d = 3, p = 2 and 76/69/75 ms for d = 8, p = 2; 20k at d = 32, p = 2 51/39/35 ms
_BLOCK_WIDTH = 128


def _level_operators(comp: np.ndarray, lags: int, loadings=None):
    """Block operators of a VAR(lags) whose companion matrix is comp.

    With dim = rows of comp / lags, a block has L = max(lags, q, 2,
    _BLOCK_WIDTH // dim) steps. Block (j, i) of the Toeplitz matrix T is
    H_(j-i), the top-left dim x dim block of comp^(j-i) (zero above the
    diagonal), and rows j*dim..(j+1)*dim of the carry matrix G are the top
    dim rows of comp^(j+1). A block whose driving terms are u (flattened row
    by row) and whose companion state before it is z then reads T u + G z.
    With ``loadings`` Θ_0..Θ_q, u_t = Σ_l Θ_l e_(t-l), and own = T M and
    prev = T M' take the block's draws e and the q draws before it, where
    block (j, i) of M is Θ_(j-i) and of M' Θ_(j+q-i) (zero off lags 0..q);
    else own = T and prev is empty. Returns (own, prev, G, L, lags), read-only.
    """
    dim = comp.shape[0] // lags
    q = len(loadings) - 1 if loadings else 0
    length = max(lags, q, 2, _BLOCK_WIDTH // dim)
    top = np.eye(dim, comp.shape[0])
    carry = np.empty((length, dim, comp.shape[0]))
    for j in range(length):
        top = top @ comp
        carry[j] = top
    impulse = np.concatenate([np.eye(dim)[None], carry[:-1, :, :dim]])
    lag = np.arange(length)[:, None] - np.arange(length)[None, :]
    toeplitz = impulse[np.maximum(lag, 0)] * (lag >= 0)[:, :, None, None]
    own = toeplitz.transpose(0, 2, 1, 3).reshape(length * dim, length * dim)
    if loadings:  # columns of [M' M]: the q draws before the block, then its own
        lag = lag[:, :1] + q - np.arange(q + length)
        theta = np.concatenate([loadings, np.zeros((1, dim, dim))])
        mix = theta[np.where((lag >= 0) & (lag <= q), lag, -1)].transpose(0, 2, 1, 3)
        own = own @ mix.reshape(length * dim, -1)
    prev, own = own[:, :q * dim], own[:, q * dim:]
    carry = carry.reshape(length * dim, comp.shape[0])
    for arr in (own, prev, carry):
        arr.setflags(write=False)
    return own, prev, carry, length, lags


def _block_operators(spec: VarmaSpec, level: int):
    """Operators of recursion level ``level``, built on first use and cached.

    Level 0 is the rewrite, with the companion matrix F of its lags C A1..C
    Ap and the loadings C·diag(√γ), C B_l·diag(√γ) of the raw draws. Level
    k+1 is the recurrence of the companion states at the block boundaries of
    level k, a VAR(1) whose matrix is F_k^(L_k); its rows are the top rows
    of F_k^(L_k), ..., F_k^(L_k-lags+1), read off the carry matrix of level
    k. The levels are kept, read-only, in the spec's ``_levels`` slot.
    """
    levels = spec._levels
    while len(levels) <= level:
        if levels:
            *_, carry, length, lags = levels[-1]
            dim = carry.shape[1]
            comp = carry.reshape(length, -1, dim)[::-1][:lags].reshape(dim, dim)
            levels.append(_level_operators(comp, 1))
        else:
            rw = remove_instantaneous(spec)
            loadings = [m * np.sqrt(spec.gamma) for m in (rw.ice, *rw.ma_eps)]
            levels.append(_level_operators(companion_matrix(rw.ar), len(rw.ar), loadings))
    return levels[level]


def _block_buffer(spec: VarmaSpec, level: int, m: int):
    """The level's zeroed (blocks, L*dim) buffer for m rows, and those rows."""
    own, _, _, length, _ = _block_operators(spec, level)
    buf = np.zeros((-(-m // length), own.shape[1]))
    return buf, buf.reshape(-1, own.shape[1] // length)[:m]


def _var_solve(buf: np.ndarray, m: int, spec: VarmaSpec, level: int = 0) -> np.ndarray:
    """The level's recursion from zero state, driven by the m rows of a
    :func:`_block_buffer` (raw draws at level 0), solved in place.

    One product gives every block's response from zero state, one more adds
    the MA lags reaching into the block before; the companion states at the
    block boundaries solve the next level's recursion, driven by those
    responses' end states; one more product adds their carries. Each product
    runs on groups of blocks of about ``_CHUNK_ROWS`` steps, the last group
    first, so a group's response overwrites its draws only after the group
    after it has read them, and the result is a view of ``buf``; with one
    group, it is a view of that group's response. No temporary is larger
    than a group, and every row takes the same products as in one product
    over all blocks.
    """
    own, prev, carry, length, lags = _block_operators(spec, level)
    blocks, width = buf.shape
    dim = width // length
    if blocks == 1:
        return (own[:m * dim, :m * dim] @ buf[0, :m * dim]).reshape(m, dim)
    group = max(1, _CHUNK_ROWS // length)
    for lo, hi in reversed(_chunks(blocks, group)):
        resp = buf[lo:hi] @ own.T
        if prev.size:
            first = max(lo, 1)
            resp[first - lo:] += buf[first - 1:hi - 1, width - prev.shape[1]:] @ prev.T
        if hi - lo < blocks:
            buf[lo:hi] = resp
        else:  # one group: its response is the whole result, with no copy
            buf = resp
    nxt, ends = _block_buffer(spec, level + 1, blocks - 1)
    # companion state after each block but the last: its last rows, newest first
    ends.reshape(blocks - 1, lags, dim)[:] = buf.reshape(blocks, length, dim)[:-1, ::-1][:, :lags]
    states = _var_solve(nxt, blocks - 1, spec, level + 1)
    for lo, hi in _chunks(blocks - 1, group):
        buf[lo + 1:hi + 1] += states[lo:hi] @ carry.T
    return buf.reshape(-1, dim)[:m]


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs fully determining one simulated trajectory.

    ``innovation_law`` may be a callable (rng, n, d) -> (n, d) array of
    zero-mean unit-variance draws; innovations are scaled by sqrt(gamma).
    ``None`` means Gaussian.
    """

    spec: VarmaSpec
    n: int
    seed: int
    burn_in: Optional[int] = None
    innovation_law: Optional[Callable] = None


def simulate(config: SimulationConfig) -> np.ndarray:
    """Iterate the process recursion and return n rows after burn-in.

    Uses the rewrite without instantaneous effects. The draws go straight
    into the block buffer of :func:`_var_solve`, whose first operator folds
    sqrt(gamma), C and the MA lags into the VAR solve, so a trajectory takes
    a few matrix products, applied in place to groups of blocks, so the
    working memory beyond the series returned is O(d·_CHUNK_ROWS), not
    series-sized. It equals the per-step recursion up to rounding. Specs
    without AR lags apply the MA part directly, in the same groups of
    ``_CHUNK_ROWS`` steps, last group first, each written over its draws.
    The series starts from zero, and the burn-in (default
    50(p+q)+100 steps) only damps that start by rho^burn for spectral radius
    rho: near the unit root the transient remains.
    """
    spec = config.spec
    rw = remove_instantaneous(spec)
    n, seed = as_integer(config.n, "n"), as_integer(config.seed, "seed", 0)
    if n <= 0:
        raise ModelError("need n > 0 simulation steps")
    burn = (default_burn_in(spec) if config.burn_in is None
            else as_integer(config.burn_in, "burn_in"))
    if burn < 0:
        raise ModelError("need burn_in >= 0")
    rng = np.random.default_rng(seed)
    total = n + burn
    d = spec.d

    buf, eps = _block_buffer(spec, 0, total) if rw.ar else (None, np.empty((total, d)))
    if config.innovation_law is None:
        rng.standard_normal(out=eps)  # the draws of standard_normal((total, d))
    else:
        draws = config.innovation_law(rng, total, d)
        if np.shape(draws) != (total, d):
            raise ModelError(f"innovation law must return shape {(total, d)}")
        eps[:] = draws  # a copy: the law's own array stays unchanged
        if not np.isfinite(eps).all():
            raise EstimationError("simulation diverged: non-finite innovation draws")

    if rw.ar:
        series = _var_solve(buf, total, spec)
    else:
        eps *= np.sqrt(spec.gamma)
        # last group first: a group reads the q draws before it, which the
        # groups before it have not yet overwritten
        for lo, hi in reversed(_chunks(total, _CHUNK_ROWS)):
            resp = eps[lo:hi] @ rw.ice.T
            for lag, mat in enumerate(rw.ma_eps, start=1):
                first = max(lo, lag)
                if first < hi:
                    resp[first - lo:] += eps[first - lag:hi - lag] @ mat.T
            eps[lo:hi] = resp
        series = eps
    if not (series.max() <= 1e12 and series.min() >= -1e12):  # also rejects NaN
        raise EstimationError(
            "simulation diverged; re-check the stability of the specification")
    return series[burn:]


@dataclass(frozen=True)
class CoefficientSampler:
    """Rejection sampler over stable specifications.

    Entries are uniform on [-scale, scale] (default scale 0.9/(max(p,1)·d));
    the instantaneous matrix is sampled strictly lower triangular and then
    conjugated by a random permutation so its acyclic pattern is arbitrary in
    user ordering. ``sparsity`` zeroes each coefficient independently with
    that probability (dense full-time graphs admit almost no separations, so
    separation-heavy experiments want it well above zero); the optional
    boolean masks zero out fixed entries instead. Innovation variances are
    uniform on [0.5, 2].
    """

    d: int
    p: int
    q: int
    scale: Optional[float] = None
    sparsity: float = 0.0
    mask_a0: Optional[np.ndarray] = None
    mask_ar: Optional[Sequence[np.ndarray]] = None
    mask_ma: Optional[Sequence[np.ndarray]] = None
    max_rejections: int = 500

    def __post_init__(self):
        for name in ("d", "p", "q", "max_rejections"):
            as_integer(getattr(self, name), name)
        if not (self.d >= 1 and self.p >= 0 and self.q >= 0 and 0 <= self.sparsity <= 1
                and self.max_rejections >= 0
                and (self.scale is None or 0 <= self.scale < math.inf)):
            raise ModelError(
                f"sampler needs d >= 1, p >= 0, q >= 0, sparsity in [0, 1], max_rejections "
                f">= 0 and a finite scale >= 0; got d={self.d}, p={self.p}, q={self.q}, "
                f"sparsity={self.sparsity}, max_rejections={self.max_rejections}, "
                f"scale={self.scale}")
        # a mask list of another length would change the order: zip truncates
        a0 = None if self.mask_a0 is None else [self.mask_a0]
        for name, count, masks in (("mask_a0", 1, a0), ("mask_ar", self.p, self.mask_ar),
                                   ("mask_ma", self.q, self.mask_ma)):
            shapes = None if masks is None else [np.shape(m) for m in masks]
            if shapes is not None and shapes != [(self.d, self.d)] * count:
                raise ModelError(f"{name} needs {count} masks of shape ({self.d}, {self.d}); "
                                 f"got shapes {shapes}")

    def entry_scale(self) -> float:
        return self.scale if self.scale is not None else 0.9 / (max(self.p, 1) * self.d)


def sample_stable_spec(sampler: CoefficientSampler, seed) -> VarmaSpec:
    """Draw coefficient matrices until the spec validates.

    A draw is accepted through :func:`remove_instantaneous`, so the returned
    spec carries its cached rewrite and no later layer validates it again
    (gamma is drawn positive, so the zero-variance allowance never applies).

    ``seed`` may be an integer (or tuple) seed or a Generator. Raises when all
    ``max_rejections`` + 1 draws fail, advising a smaller scale.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    c = sampler.entry_scale()
    d = sampler.d
    lower = np.tri(d, k=-1, dtype=bool)  # np.tril(·, -1) as a fixed mask

    def draw(shape):
        out = rng.uniform(-c, c, shape)
        if sampler.sparsity > 0:
            out *= rng.random(shape) >= sampler.sparsity
        return out

    for _ in range(sampler.max_rejections + 1):
        tri = np.where(lower, draw((d, d)), 0.0)
        perm = rng.permutation(d)
        a0 = np.zeros((d, d))
        a0[perm[:, None], perm] = tri
        if sampler.mask_a0 is not None:
            a0 = a0 * sampler.mask_a0
        ars = [draw((d, d)) for _ in range(sampler.p)]
        if sampler.mask_ar is not None:
            ars = [m * mask for m, mask in zip(ars, sampler.mask_ar)]
        mas = [draw((d, d)) for _ in range(sampler.q)]
        if sampler.mask_ma is not None:
            mas = [m * mask for m, mask in zip(mas, sampler.mask_ma)]
        gamma = rng.uniform(0.5, 2.0, d)
        spec = VarmaSpec([a0, *ars], mas, gamma)
        try:
            remove_instantaneous(spec)  # validates once and caches the rewrite
        except ModelError:
            continue
        return spec
    raise ModelError(
        f"no stable draw in {sampler.max_rejections + 1} draws; "
        f"reduce the coefficient scale (current {c:.4g})")


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def fisher_z_pvalue(data: np.ndarray, a: TimedNode, c: TimedNode,
                    b: Sequence[TimedNode] = ()) -> float:
    """Fisher-z partial-correlation test of a ⫫ c | b on lagged observations.

    The sample Cov^((a, c) | b) drops b directions with singular value below
    about 1e-5 of the largest, and the r kept give the dof n - r - 3. A
    conditional variance or dof <= 0 gives p = 1.0; a or c in b raises ModelError.
    The moments are those of :func:`estimate_from_data`, formed in chunks of
    ``_CHUNK_ROWS`` rows, so the working memory does not grow with n.
    """
    cov, kept, n = _sample_conditional_covariance(data, (a, c), (a, c), b)
    (var_a, cov_ac), (_, var_c) = cov.tolist()
    dof = n - int(np.count_nonzero(kept)) - 3
    if var_a <= 0 or var_c <= 0 or dof <= 0:
        return 1.0
    r = max(-0.999999999, min(0.999999999, cov_ac / math.sqrt(var_a * var_c)))
    stat = math.sqrt(dof) * abs(math.atanh(r))
    return 2.0 * (1.0 - _phi(stat))


@dataclass(frozen=True)
class QueryRecord:
    trial: int
    a: tuple
    b: tuple
    c: tuple
    separated: bool
    depth_certified: bool
    magnitude: float
    degenerate: bool
    violation: bool
    p_value: Optional[float] = None

    to_dict = _field_dict


@dataclass(frozen=True)
class ExperimentReport:
    """Per-query records plus summary rates; reproducible from the seed."""

    kind: str
    seed: int
    trials: int
    queries_per_trial: int
    window: int
    tol: float
    mode: str
    summary: dict
    records: tuple[QueryRecord, ...]

    to_dict = _field_dict

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(QueryRecord)])
            writer.writeheader()
            for rec in self.records:
                writer.writerow({**rec.to_dict(), **{
                    key: ";".join(map(node_label, getattr(rec, key))) for key in "abc"}})


def _draw_query(rng: np.random.Generator, d: int, window: int) -> SeparationQuery:
    pool = [endo(i, -t) for t in range(window + 1) for i in range(d)]
    rng.shuffle(pool)
    na = int(rng.integers(1, 3))
    nc = int(rng.integers(1, 3))
    nb = int(rng.integers(0, 4))
    na = min(na, max(1, len(pool) - 2))
    nc = min(nc, max(1, len(pool) - na - 1))
    nb = min(nb, len(pool) - na - nc)
    a = pool[:na]
    c = pool[na:na + nc]
    b = pool[na + nc:na + nc + nb]
    return SeparationQuery(a, b, c)


def faithfulness_check(spec: VarmaSpec, query: SeparationQuery,
                       tol: float = CI_DEFAULT_TOL,
                       ss: Optional[StateSpaceForm] = None):
    """Return (separated, ci_verdict, violation, depth_certified) for one query.

    A faithfulness violation is an m-connected query whose population
    conditional covariance vanishes at tolerance ``tol`` (non-degenerate).
    The tolerance gate is an engineering stand-in for an exact zero, and no
    principled finite-precision threshold exists. Exact zeros are not always
    null events: because coefficients are tied across time, two open paths
    can cancel for every coefficient value (in X_t = a X_(t-2) + e_t +
    b e_(t-1), Cov(X@-5, X@-2 | X@-3) = 0 although the query is connected).
    """
    ss = ss or solve_stationary(spec)
    result, _, depth_certified = stable_marginal_separation(spec, query)
    ci = population_ci(ss, query, tol=tol)
    violation = (not result.separated) and ci.independent and not ci.degenerate
    return result.separated, ci, violation, depth_certified


def _check_query_pool(window: int, d: int) -> None:
    if (window + 1) * d < 2:  # _draw_query's pool of nodes
        raise ModelError(f"separation queries need (window + 1)·d >= 2 nodes to draw from; "
                         f"got window={window}, d={d}")


def _run_experiment(kind, sampler, trials, queries_per_trial, window, tol,
                    seed, mode):
    _check_tol(tol)
    if mode not in ("population", "empirical"):
        raise ModelError(f"unknown experiment mode {mode!r}")
    trials, queries_per_trial, seed = (as_integer(value, name, 0) for value, name in (
        (trials, "trials"), (queries_per_trial, "queries_per_trial"), (seed, "seed")))
    window = as_integer(window, "window")
    if not callable(sampler):  # a callable sampler's d is known per spec
        _check_query_pool(window, sampler.d)

    records = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        spec = sampler(rng) if callable(sampler) else sample_stable_spec(sampler, rng)
        _check_query_pool(window, spec.d)
        ss = solve_stationary(spec)
        series = None
        if mode == "empirical":
            series = simulate(SimulationConfig(
                spec, n=4000, seed=int(rng.integers(0, 2**63 - 1))))
        for _ in range(queries_per_trial):
            query = _draw_query(rng, spec.d, window)
            separated, ci, violation, depth_certified = faithfulness_check(spec, query, tol, ss)
            if kind == "gmp":
                violation = separated and not ci.independent
            p_value = None
            if series is not None:
                p_value = min(
                    fisher_z_pvalue(series, a, c, query.b)
                    for a in query.a for c in query.c
                )
            records.append(QueryRecord(
                trial=trial,
                a=query.a, b=query.b, c=query.c,
                separated=separated,
                depth_certified=depth_certified,
                magnitude=ci.max_abs_correlation,
                degenerate=ci.degenerate,
                violation=violation,
                p_value=p_value,
            ))

    separated = [r for r in records if r.separated]
    connected = [r for r in records if not r.separated]
    violations = sum(r.violation for r in records)
    if kind == "gmp":
        relevant = len(separated)
        extreme = max((r.magnitude for r in separated), default=0.0)
        extreme_key = "max_separated_magnitude"
    else:
        relevant = len(connected)
        extreme = min((r.magnitude for r in connected), default=float("inf"))
        extreme_key = "min_connected_magnitude"
    summary = {
        "queries": len(records),
        "separated": len(separated),
        "connected": len(connected),
        "violations": int(violations),
        "violation_rate": violations / relevant if relevant else 0.0,
        extreme_key: extreme,
        "uncertified": sum(not r.depth_certified for r in records),
    }
    return ExperimentReport(
        kind=kind, seed=seed, trials=trials, queries_per_trial=queries_per_trial,
        window=window, tol=tol, mode=mode, summary=summary, records=tuple(records))


def run_gmp_experiment(sampler, trials: int, queries_per_trial: int,
                       window: int = 5, tol: float = CI_DEFAULT_TOL, seed: int = 0,
                       mode: str = "population") -> ExperimentReport:
    """Sample specs and queries; every m-separated query must come out
    conditionally uncorrelated at ``tol``. Violations are recorded, not raised.
    """
    return _run_experiment("gmp", sampler, trials, queries_per_trial, window,
                           tol, seed, mode)


def run_faithfulness_experiment(sampler, trials: int, queries_per_trial: int,
                                window: int = 5, tol: float = CI_DEFAULT_TOL,
                                seed: int = 0, mode: str = "population") -> ExperimentReport:
    """Count m-connected queries whose conditional covariance vanishes.

    Under continuous coefficient sampling most such events have probability
    zero, but not all: a structural zero, where paths cancel for every value
    of coefficients tied across time (see :func:`faithfulness_check`), is
    counted whenever its support is drawn. Near-cancellations at finite
    precision are counted too, so the rate is small, not zero.
    """
    return _run_experiment("faithfulness", sampler, trials, queries_per_trial,
                           window, tol, seed, mode)
