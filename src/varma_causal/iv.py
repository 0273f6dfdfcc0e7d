"""Instrumental-variable identification and estimation of total causal effects.

Identification solves the population moment equation
E[Cov(Y - beta X, I | B)] = 0 with conditional covariances from the exact
stationary law; estimation evaluates the closed-form weighted estimator on
residualized lagged observation blocks and is consistent whenever the
graph-side conditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EstimationError, ModelError, UnderIdentifiedError
from .graphs import ENDOGENOUS, TimedNode, endo
from .model import VarmaSpec
from .effects import IvConditionReport, _field_dict, _iv_report, _query_sets
from .stationary import conditional_covariance, numerical_rank, solve_stationary


def _node_ref(v: TimedNode) -> dict:
    return {"component": v.component, "lag": v.time}


def _node_from_ref(d: dict) -> TimedNode:
    return endo(int(d["component"]), int(d["lag"]))


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
        if not x_set or not i_set:
            raise ModelError("x and i sets must be non-empty")
        if weight is not None:
            weight = np.asarray(weight, dtype=float)
            k = len(i_set)
            if weight.shape != (k, k):
                raise ModelError(f"weight must be {k}x{k}")
            if not np.allclose(weight, weight.T, atol=1e-12):
                raise ModelError("weight must be symmetric")
            if np.min(np.linalg.eigvalsh(weight)) <= 0:
                raise ModelError("weight must be positive definite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_set", x_set)
        object.__setattr__(self, "i_set", i_set)
        object.__setattr__(self, "b_set", b_set)
        object.__setattr__(self, "weight", weight)

    def weight_or_identity(self) -> np.ndarray:
        return np.eye(len(self.i_set)) if self.weight is None else self.weight

    def to_dict(self) -> dict:
        out = {
            "y": _node_ref(self.y),
            "x": [_node_ref(v) for v in self.x_set],
            "i": [_node_ref(v) for v in self.i_set],
            "b": [_node_ref(v) for v in self.b_set],
        }
        if self.weight is not None:
            out["weight"] = self.weight.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "IvQuery":
        return cls(
            _node_from_ref(data["y"]),
            [_node_from_ref(d) for d in data["x"]],
            [_node_from_ref(d) for d in data["i"]],
            [_node_from_ref(d) for d in data.get("b", [])],
            weight=data.get("weight"),
        )


@dataclass(frozen=True)
class IvResult:
    beta: np.ndarray
    moment_residual: float
    conditions: Optional[IvConditionReport]
    sample_size: Union[int, str]

    def to_dict(self) -> dict:
        return _field_dict(self, beta=self.beta.tolist(),
                           conditions=self.conditions.to_dict() if self.conditions else None)


def _weighted_solve(s_yi: np.ndarray, s_xi: np.ndarray, w: np.ndarray):
    """beta minimizing (s_yi - beta s_xi) W (s_yi - beta s_xi)'; s_xi has full row rank.

    With W = L L' this is the least-squares problem of (s_yi L)' on
    (s_xi L)'. The normal matrix s_xi W s_xi' is never formed, so the
    solve is conditioned like s_xi rather than like its square.
    """
    chol = np.linalg.cholesky(w)
    beta, *_ = np.linalg.lstsq((s_xi @ chol).T, (s_yi @ chol).T, rcond=None)
    beta = beta.T
    residual = float(np.max(np.abs(s_yi - beta @ s_xi)))
    return beta.reshape(-1), residual


def identify_population(spec: VarmaSpec, query: IvQuery,
                        check_conditions: bool = True) -> IvResult:
    """Solve beta · E[Cov(X,I|B)] = E[Cov(Y,I|B)] from the stationary law.

    With full row rank the solution is unique; rank deficiency raises
    :class:`UnderIdentifiedError` carrying the rank found. When
    ``check_conditions`` is set the result carries the full graph-side
    condition report, built from the same stationary solve and rank.
    """
    ss = solve_stationary(spec)
    s_xi = conditional_covariance(ss, query.x_set, query.i_set, query.b_set)
    s_yi = conditional_covariance(ss, (query.y,), query.i_set, query.b_set)

    rank = numerical_rank(s_xi)
    if rank < len(query.x_set):
        raise UnderIdentifiedError(
            f"E[Cov(X,I|B)] has rank {rank} < dim(X) = {len(query.x_set)}; "
            "the total causal effect is under-identified",
            rank=rank, required=len(query.x_set))

    beta, residual = _weighted_solve(s_yi, s_xi, query.weight_or_identity())
    conditions = None
    if check_conditions:
        conditions = _iv_report(spec, query.y, query.x_set, query.i_set,
                                query.b_set, rank)
    return IvResult(beta, residual, conditions, "population")


def lagged_design(data: np.ndarray, nodes: Sequence[TimedNode]) -> np.ndarray:
    """Observation matrix for nodes given as (component, lag) references.

    Row t of the result stacks data[t + time(v), component(v)] over the nodes,
    for every anchor t where all references fall inside the series; the first
    max-lag-span rows are dropped. Each column is contiguous in memory.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    nodes = tuple(nodes)
    for v in nodes:
        if v.kind != ENDOGENOUS:
            raise ModelError(f"data designs are over endogenous nodes; got {v!r}")
        if not 0 <= v.component < d:
            raise ModelError(f"component {v.component} outside data with {d} columns")
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


def estimate_from_data(data: np.ndarray, query: IvQuery) -> IvResult:
    """Closed-form weighted IV estimate from an observed series.

    Builds lagged blocks for Y, X, I, B from overlapping windows, centers
    them, replaces each block by its OLS residuals on B (centering only when B
    is empty), and evaluates
    beta = E^[r_Y r_I'] W E^[r_I r_X'] (E^[r_X r_I'] W E^[r_I r_X'])^(-1).
    A sample moment matrix E^[r_X r_I'] of numerical rank below dim(X)
    raises :class:`EstimationError`.

    Linear residualization equals the conditional expectation on B under the
    Gaussian stationary law; for non-Gaussian innovations it is only the best
    linear approximation, and the estimator targets the linearly-residualized
    moment equation.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    nodes = (query.y, *query.x_set, *query.i_set, *query.b_set)
    rows = lagged_design(data, nodes).T  # one contiguous row per node
    n_eff = rows.shape[1]
    n_regressors = len(query.x_set) + len(query.b_set)
    if n_eff <= n_regressors + 1:
        raise EstimationError(
            f"{n_eff} usable rows are too few for {n_regressors} regressors")
    rows -= rows.mean(axis=1, keepdims=True)

    nx, ni = len(query.x_set), len(query.i_set)
    resid, controls = rows[:1 + nx + ni], rows[1 + nx + ni:]
    if len(controls):
        coef, *_ = np.linalg.lstsq(controls.T, resid.T, rcond=None)
        resid = resid - coef.T @ controls
    r_y, r_x, r_i = resid[:1], resid[1:1 + nx], resid[1 + nx:]

    s_yi = r_y @ r_i.T / n_eff
    s_xi = r_x @ r_i.T / n_eff
    rank = numerical_rank(s_xi)
    if rank < nx:
        raise EstimationError(
            f"sample moment matrix E^[r_X r_I'] is singular (rank {rank} < dim(X) = {nx})")
    beta, residual = _weighted_solve(s_yi, s_xi, query.weight_or_identity())
    return IvResult(beta, residual, None, int(n_eff))
