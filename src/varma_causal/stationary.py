"""Exact stationary second-moment analysis.

The process is put into the companion state space of its rewrite without
instantaneous effects, the stationary state covariance is obtained from the
discrete Lyapunov equation, and cross/conditional covariances between
finite sets of the process's nodes (``graphs.process_nodes``) are read off
the autocovariance table. Under the Gaussian module contract, conditional
covariances are exact Schur complements and zero conditional covariance is
conditional independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ModelError
from .graphs import SeparationQuery, TimedNode, process_nodes
from .model import VarmaSpec, companion_matrix, remove_instantaneous

LYAPUNOV_RESIDUAL_RTOL = 1e-10
PINV_RTOL = 1e-10
RANK_RTOL = 1e-8
CI_DEFAULT_TOL = 1e-7
# Smith doubling stops once a doubling changes the sum by at most
# LYAPUNOV_STEP_RTOL of its Frobenius norm, or after LYAPUNOV_MAX_DOUBLINGS
LYAPUNOV_STEP_RTOL = 1e-12
LYAPUNOV_MAX_DOUBLINGS = 200


def _solve_lyapunov_doubling(f: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """Smith doubling; returns the solution and the number of doublings.

    After k doublings the partial sum covers F^j Q F^j' for j < 2^k, so it
    converges quadratically for spectral radius < 1 (about 25 doublings at
    radius 1 - 1e-6).
    """
    sigma = q.copy()
    a = f.copy()
    for iterations in range(1, LYAPUNOV_MAX_DOUBLINGS + 1):
        nxt = sigma + a @ sigma @ a.T
        a = a @ a
        # relative, so the stop does not depend on the scale of Q
        done = (np.linalg.norm(nxt - sigma, "fro")
                <= LYAPUNOV_STEP_RTOL * np.linalg.norm(nxt, "fro"))
        sigma = nxt
        if done:
            break
    return (sigma + sigma.T) / 2.0, iterations


def numerical_rank(m: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL times the largest."""
    svals = np.linalg.svd(m, compute_uv=False)
    cutoff = RANK_RTOL * max(svals[0] if svals.size else 0.0, np.finfo(float).tiny)
    return int(np.sum(svals > cutoff))


class StateSpaceForm:
    """Companion state space of the rewrite without instantaneous effects.

    The state stacks max(p,1) lags of S and q lags of eps; F is the
    companion matrix of C A1..C Ap (or 0) and C B1..C Bq, without the shift
    into the first eps block. The stationary state covariance solves
    Sigma_z = F Sigma_z F^T + G Gamma G^T by Smith doubling, and the solve
    residual is checked to 1e-10 relative. The gate bounds the residual, not
    the error of Sigma_z: near the unit root a relative error delta leaves a
    residual of about delta·(1 - rho²), so with ill-conditioned eigenvectors
    an error of 4.2e-8 was measured at a residual of 2.0e-13.
    The spec is validated through its rewrite slot, but each form solves
    the Lyapunov equation anew. The autocovariances are kept in one lag table,
    grown on demand by the n x d column blocks X_h = F X_(h-1) from
    X_0 = Sigma_z[:, :d]: the top d rows of X_h are autocov(h), and only the
    last block is kept to grow from.
    """

    def __init__(self, spec: VarmaSpec):
        self.spec = spec
        d = spec.d
        rw = remove_instantaneous(spec)
        p_blocks = max(spec.p, 1)
        # the block below S_(t-p_blocks+1) is eps_t, which enters through G
        f = companion_matrix([*(rw.ar or [np.zeros((d, d))]), *rw.ma_eps])
        f[p_blocks * d:(p_blocks + 1) * d, (p_blocks - 1) * d:p_blocks * d] = 0
        n = f.shape[0]

        g = np.zeros((n, d))
        g[:d] = rw.ice
        if spec.q:
            g[p_blocks * d:(p_blocks + 1) * d] = np.eye(d)

        q_mat = g @ np.diag(spec.gamma) @ g.T
        sigma_z, _ = _solve_lyapunov_doubling(f, q_mat)

        denom = max(np.linalg.norm(sigma_z, "fro"), np.finfo(float).tiny)
        residual = np.linalg.norm(sigma_z - f @ sigma_z @ f.T - q_mat, "fro") / denom
        if residual > LYAPUNOV_RESIDUAL_RTOL:
            raise ModelError(
                f"Lyapunov solve residual {residual:.3g} exceeds {LYAPUNOV_RESIDUAL_RTOL}")

        self.d = d
        self.f = f
        self.g_load = g
        self.sigma_z = sigma_z
        self.residual = float(residual)
        sigma_z.setflags(write=False)
        # (lag table for s = 0, X_0), swapped as one pair for concurrent readers
        self._lags = sigma_z[None, :d, :d], sigma_z[:, :d]

    def autocov(self, h: int) -> np.ndarray:
        """Cov(S_t, S_(t-h)), read-only; autocov(-h) is autocov(h).T."""
        table = self._lag_table(abs(h))
        return table[len(table) // 2 + h]

    def _lag_table(self, span: int) -> np.ndarray:
        """autocov(h) for h = -s..s stacked at s + h, for some s >= span."""
        table, block = self._lags
        later = []
        for _ in range(len(table) // 2, span):
            block = self.f @ block
            later.append(block[:self.d])
        if later:
            later = np.array(later)
            table = np.concatenate((later[::-1].transpose(0, 2, 1), table, later))
            table.setflags(write=False)
            self._lags = table, block
        return table


def solve_stationary(spec: VarmaSpec) -> StateSpaceForm:
    return StateSpaceForm(spec)


@dataclass(frozen=True)
class NodeSetCovariance:
    u: tuple[TimedNode, ...]
    v: tuple[TimedNode, ...]
    matrix: np.ndarray


def cross_covariance(ss: StateSpaceForm, u: Sequence[TimedNode],
                     v: Sequence[TimedNode]) -> NodeSetCovariance:
    """Cov(U, V) for ordered lists of the process's nodes, from the stationary law."""
    u, v = process_nodes(u, ss.d), process_nodes(v, ss.d)
    tu, tv = [w.time for w in u], [w.time for w in v]
    table = ss._lag_table(max(max(tu, default=0) - min(tv, default=0),
                             max(tv, default=0) - min(tu, default=0)))
    # one gather: entry (i, j) is autocov(tu_i - tv_j)[cu_i, cv_j], at flat
    # index ((mid + tu_i - tv_j)·d + cu_i)·d + cv_j of the stacked table
    d, mid = ss.d, len(table) // 2
    rows = np.array([((mid + w.time) * d + w.component) * d for w in u], dtype=np.intp)
    cols = np.array([w.component - w.time * d * d for w in v], dtype=np.intp)
    return NodeSetCovariance(u, v, np.take(table, np.add.outer(rows, cols)))


def conditional_covariance(ss: StateSpaceForm, a: Sequence[TimedNode],
                           c: Sequence[TimedNode],
                           b: Sequence[TimedNode] = ()) -> np.ndarray:
    """Cov(A, C | B) of the Gaussian stationary law (Schur complement).

    With B empty this is the plain cross covariance. Singular values of
    Cov(B, B) below 1e-10 of the largest are treated as zero.
    """
    overlap = (set(a) | set(c)) & set(b)
    if overlap:
        raise ModelError(f"conditioning set overlaps a/c nodes: {sorted(overlap)}")
    # one gather for all four blocks, each copied out contiguous
    ac, nodes = len(a) + len(c), (*a, *c, *b)
    joint = cross_covariance(ss, nodes, nodes).matrix
    s_ac = np.ascontiguousarray(joint[:len(a), len(a):ac])
    if not b:
        return s_ac
    s_ab, s_cb, s_bb = (np.ascontiguousarray(joint[rows, ac:])
                        for rows in (slice(len(a)), slice(len(a), ac), slice(ac, None)))
    # numpy.linalg.pinv(s_bb, PINV_RTOL, hermitian=True), step for step
    w, u = np.linalg.eigh(s_bb)
    order = np.argsort(abs(w))[::-1]
    w, u = w[order], u[:, order]
    inv = np.divide(1, abs(w), out=np.zeros_like(w), where=abs(w) > PINV_RTOL * abs(w[0]))
    return s_ac - s_ab @ ((u * np.copysign(1.0, w)) @ (inv[:, None] * u.T)) @ s_cb.T


@dataclass(frozen=True)
class CiVerdict:
    independent: bool
    max_abs_correlation: float
    degenerate: bool
    tol: float

    def __bool__(self) -> bool:
        return self.independent


def population_ci(ss: StateSpaceForm, query: SeparationQuery,
                  tol: float = CI_DEFAULT_TOL) -> CiVerdict:
    """Population conditional-independence verdict for Gaussian innovations.

    Each entry of Cov(A, C | B) is compared against tol times the product of
    the two conditional standard deviations (the squared geometric mean), i.e.
    the conditional correlation must fall below tol. A node whose conditional
    variance is at most 1e-10 of its unconditional variance is degenerate: its
    entries count as independent and the verdict is flagged.

    For non-Gaussian innovations m-separation still forces these covariances
    to zero, but zero covariance then no longer certifies independence; the
    verdict is only an independence statement under Gaussianity.
    """
    stacked = (*query.a, *query.c)
    # Python floats round abs, /, * and sqrt as numpy's float64 scalars do
    cond = conditional_covariance(ss, stacked, stacked, query.b).tolist()
    uncond = ss.autocov(0).diagonal().tolist()
    na, tiny = len(query.a), float(np.finfo(float).tiny)
    degenerate_node = [cond[k][k] <= 1e-10 * max(uncond[v.component], tiny)
                       for k, v in enumerate(stacked)]
    degenerate, max_corr, independent = False, 0.0, True
    for i in range(na):
        for j in range(na, len(stacked)):
            if degenerate_node[i] or degenerate_node[j]:
                degenerate = True
                continue
            corr = abs(cond[i][j]) / math.sqrt(cond[i][i] * cond[j][j])
            max_corr = max(max_corr, corr)
            if corr >= tol:
                independent = False
    return CiVerdict(independent, max_corr, degenerate, tol)
