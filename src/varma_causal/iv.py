"""Instrumental-variable identification and estimation of total causal effects.

Identification solves the population moment equation
E[Cov(Y - beta X, I | B)] = 0 with conditional covariances from the exact
stationary law; estimation solves its sample analogue on centred lagged
observations and is consistent whenever the graph-side conditions hold. Both
sides take Cov(., . | B) by the same Schur step on a joint moment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EstimationError, ModelError, UnderIdentifiedError
from .graphs import TimedNode, node_from_json, process_nodes
from .model import VarmaSpec
from .effects import IvConditionReport, _field_dict, _iv_report, _json_value, _query_sets
from .stationary import (_check_conditioning, _rank_of, _schur_complement,
                         conditional_covariance, numerical_rank, solve_stationary)


@dataclass(frozen=True)
class IvQuery:
    """Target y, treatments x, instruments i, conditioning set b, weight W."""

    y: TimedNode
    x_set: tuple[TimedNode, ...]
    i_set: tuple[TimedNode, ...]
    b_set: tuple[TimedNode, ...] = ()
    weight: Optional[np.ndarray] = None

    def __init__(self, y, x_set, i_set, b_set=(), weight=None):
        x_set, i_set, b_set = _query_sets(y, x_set, i_set, b_set)
        if weight is not None:
            try:
                weight = np.asarray(weight, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ModelError(f"weight must be a numeric matrix: {exc}") from None
            k = len(i_set)
            if weight.shape != (k, k):
                raise ModelError(f"weight must be {k}x{k}")
            if not np.all(np.isfinite(weight)):
                raise ModelError("weight has non-finite entries")
            if not np.allclose(weight, weight.T, atol=1e-12):
                raise ModelError("weight must be symmetric")
            if np.min(np.linalg.eigvalsh(weight)) <= 0:
                raise ModelError("weight must be positive definite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_set", x_set)
        object.__setattr__(self, "i_set", i_set)
        object.__setattr__(self, "b_set", b_set)
        object.__setattr__(self, "weight", weight)

    def to_dict(self) -> dict:
        out = {"y": _json_value(self.y), "x": _json_value(self.x_set),
               "i": _json_value(self.i_set), "b": _json_value(self.b_set)}
        if self.weight is not None:
            out["weight"] = self.weight.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "IvQuery":
        """Read :meth:`to_dict`'s form; a missing key or a non-list node set
        raises ModelError."""
        try:
            y = node_from_json(data["y"])
            x, i = ([node_from_json(d) for d in data[key]] for key in ("x", "i"))
            b, weight = [node_from_json(d) for d in data.get("b", [])], data.get("weight")
        except (KeyError, TypeError, AttributeError) as exc:
            raise ModelError(f"malformed IV query: {exc!r}") from None
        return cls(y, x, i, b, weight=weight)


@dataclass(frozen=True)
class IvResult:
    beta: np.ndarray
    moment_residual: float
    conditions: Optional[IvConditionReport]
    sample_size: Union[int, str]

    to_dict = _field_dict


def _weighted_solve(moments: np.ndarray, w: Optional[np.ndarray]):
    """beta minimizing (s_yi - beta s_xi) W (s_yi - beta s_xi)' for moments
    [s_yi; s_xi] = Cov([Y; X], I | B), with the moment residual and rank(s_xi).

    Rank below dim(X) raises UnderIdentifiedError. With W = L L' this is the
    least-squares problem of (s_yi L)' on (s_xi L)', conditioned like s_xi
    rather than like the normal matrix s_xi W s_xi'. Without a weight (W = I)
    one factorization serves both: the rank comes from the singular values
    that the least-squares solve returns. Only a given W is factored by
    Cholesky, and the rank is then that of the unweighted s_xi.
    """
    s_yi, s_xi = moments[:1], moments[1:]
    if w is None:
        lhs, rhs = s_xi, s_yi
    else:
        chol = np.linalg.cholesky(w)
        lhs, rhs = s_xi @ chol, s_yi @ chol
    beta, _, _, svals = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)
    rank = _rank_of(svals) if w is None else numerical_rank(s_xi)
    if rank < len(s_xi):
        raise UnderIdentifiedError(
            f"moment matrix Cov(X,I|B) is singular (rank {rank} < dim(X) = {len(s_xi)}); "
            "the total causal effect is under-identified", rank=rank, required=len(s_xi))
    beta = beta.T
    residual = float(np.max(np.abs(s_yi - beta @ s_xi)))
    return beta.reshape(-1), residual, rank


def identify_population(spec: VarmaSpec, query: IvQuery,
                        check_conditions: bool = True) -> IvResult:
    """Solve beta · E[Cov(X,I|B)] = E[Cov(Y,I|B)] from the stationary law.

    With full row rank the solution is unique; rank deficiency raises
    :class:`UnderIdentifiedError` carrying the rank found. When
    ``check_conditions`` is set the result carries the full graph-side
    condition report, built from the same stationary solve and rank.
    """
    # one Schur complement: row 0 is E[Cov(Y,I|B)], the rest E[Cov(X,I|B)]
    moments = conditional_covariance(solve_stationary(spec), (query.y, *query.x_set),
                                     query.i_set, query.b_set)
    beta, residual, rank = _weighted_solve(moments, query.weight)
    conditions = (_iv_report(spec, query.y, query.x_set, query.i_set, query.b_set, rank)
                  if check_conditions else None)
    return IvResult(beta, residual, conditions, "population")


# rows of the long axis (lagged-design rows, simulated steps) that the sample
# moments and the simulation's block products take at a time, so their
# working memory grows with k·_CHUNK_ROWS for k columns, not with the
# series. Chosen by measurement (best of 15) on a 2-core x86_64 machine with
# one OpenBLAS thread, at 4,096/8,192/16,384/32,768/65,536 rows against one
# product: at 200k steps the estimate took 2.22/1.40/1.40/1.52/1.69 ms
# against 2.81 for a 5-node query, and 4.94/3.86/4.30/6.54/6.43 ms against
# 9.35 for a 13-node one; at 10k steps, 8,192 rows split the series and took
# 0.127 ms against 0.103; simulating 200k steps took 8.9-9.8 ms (d = 2) and
# 14.0-15.1 ms (d = 3) at every size, against 9.8 and 16.4 ungrouped
_CHUNK_ROWS = 16_384


def _chunks(n: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of ceil(n / size) near-equal parts of range(n): one
    part when n <= size, and none shorter than size // 2 otherwise."""
    if n <= size:  # every short series, at every simulation level: kept cheap
        return [(0, n)]
    count = -(-n // size)
    return [(n * j // count, n * (j + 1) // count) for j in range(count)]


def lagged_design(data: np.ndarray, nodes: Sequence[TimedNode]) -> np.ndarray:
    """Observation matrix for endogenous nodes whose components are data columns.

    Row t of the result stacks data[t + time(v), component(v)] over the nodes,
    for every anchor t where all references fall inside the series; the first
    max-lag-span rows are dropped. Each column is contiguous in memory. Rows
    lo..hi-1 alone are the design of the slice data[lo : hi + span], which is
    how the sample moments build it one chunk at a time.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    nodes = process_nodes(nodes, d)
    if not nodes:
        raise ModelError("nodes must be non-empty")
    times = [v.time for v in nodes]
    t_hi = max(times)
    span = t_hi - min(times)
    n_eff = n - span
    if n_eff <= 0:
        raise EstimationError(f"series of length {n} too short for lag span {span}")
    # anchor the latest reference on rows span..n-1, one contiguous row per
    # node, so the design is the transpose of a (nodes, n_eff) buffer
    rows = np.empty((len(nodes), n_eff))
    for j, v in enumerate(nodes):
        start = span + v.time - t_hi
        rows[j] = data[start:start + n_eff, v.component]
    return rows.T


def _sample_conditional_covariance(data, a, c, b):
    """Cov^(A, C | B) of the centred lagged observations, the mask of the B
    directions kept and the count n_eff: the rows of (A, B) times those of
    (B, C), over n_eff, through the Schur step. By Frisch–Waugh–Lovell that is
    the cross moment of the OLS residuals on B, short of the directions dropped.

    The design is built by :func:`lagged_design` one chunk of at most
    ``_CHUNK_ROWS`` rows at a time, each centred on its own means and
    multiplied in one product; more than one chunk combine exactly (Chan,
    Golub & LeVeque 1983) as M = Σ_c M_c + Σ_c n_c (μ_c − μ)(μ_c − μ)ᵀ, so
    the working memory is O(k² + k·_CHUNK_ROWS) for k nodes. Non-finite
    moments (a NaN or infinity in a column read, in any chunk) raise
    EstimationError.
    """
    _check_conditioning(a, c, b)
    nodes, na, nb = (*a, *b, *c), len(a), len(b)
    span = max(v.time for v in nodes) - min(v.time for v in nodes)
    n_eff = len(data) - span
    parts = _chunks(n_eff, _CHUNK_ROWS)
    means = np.empty((len(parts), len(nodes)))
    with np.errstate(invalid="ignore", over="ignore"):  # checked on the k x k result
        for k, ((lo, hi), mean) in enumerate(zip(parts, means)):
            rows = lagged_design(data[lo:hi + span], nodes).T  # one contiguous row per node
            mean[:] = rows.mean(axis=1)
            rows -= mean[:, None]
            product = rows[:na + nb] @ rows[na:].T
            joint = joint + product if k else product
            del rows  # one chunk alive at a time
        if len(parts) > 1:
            counts = np.array([hi - lo for lo, hi in parts], dtype=float)[:, None]
            means -= counts.T @ means / n_eff
            joint = joint + (means[:, :na + nb] * counts).T @ means[:, na:]
        joint = joint / n_eff
    if not np.isfinite(joint).all():
        raise EstimationError("non-finite sample moments: the columns the query reads "
                              "hold NaN, infinite or overflowing values")
    return (*_schur_complement(joint, nb), n_eff)


def estimate_from_data(data: np.ndarray, query: IvQuery) -> IvResult:
    """Closed-form weighted IV estimate from an observed series:
    beta = S_YI W S_XI' (S_XI W S_XI')^(-1) for S = Cov^([Y; X], I | B) of the
    centred lagged blocks. An S_XI of numerical rank below dim(X) raises
    :class:`UnderIdentifiedError`, an EstimationError. B directions with
    singular value below about 1e-5 of the largest are dropped, so a
    duplicated or nearly duplicated B column counts once. Under the Gaussian
    stationary law S is the conditional covariance given B; otherwise it is
    the best linear approximation, which the estimator targets. S is formed
    in chunks of ``_CHUNK_ROWS`` rows (see
    :func:`_sample_conditional_covariance`): beyond the data, the working
    memory is O(k² + k·_CHUNK_ROWS) for the k query nodes, not O(k·n).
    """
    n_regressors = len(query.x_set) + len(query.b_set)
    moments, _, n_eff = _sample_conditional_covariance(
        data, (query.y, *query.x_set), query.i_set, query.b_set)
    if n_eff <= n_regressors + 1:
        raise EstimationError(
            f"{n_eff} usable rows are too few for {n_regressors} regressors")
    beta, residual, _ = _weighted_solve(moments, query.weight)
    return IvResult(beta, residual, None, int(n_eff))
