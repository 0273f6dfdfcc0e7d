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
# the smallest positive normal float, the floor of relative cutoffs
_TINY = float(np.finfo(float).tiny)


def _solve_lyapunov_doubling(f: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """Smith doubling; returns the solution and the number of doublings.

    After k doublings the partial sum covers F^j Q F^j' for j < 2^k, so it
    converges quadratically for spectral radius < 1 (about 25 doublings at
    radius 1 - 1e-6). It stops once the squared Frobenius norm of the step
    just added is at most LYAPUNOV_STEP_RTOL² times that of the new sum, one
    dot product each and no difference array.
    """
    sigma = q.copy()
    a = f.copy()
    # relative, so the stop does not depend on the scale of Q
    rtol_sq = LYAPUNOV_STEP_RTOL ** 2
    for iterations in range(1, LYAPUNOV_MAX_DOUBLINGS + 1):
        step = a @ sigma @ a.T
        sigma += step
        if np.vdot(step, step) <= rtol_sq * np.vdot(sigma, sigma):
            break
        a = a @ a
    return (sigma + sigma.T) / 2.0, iterations


def _rank_of(svals: np.ndarray) -> int:
    """Number of the singular values ``svals`` above RANK_RTOL times the largest."""
    cutoff = RANK_RTOL * max(svals.max(initial=0.0), _TINY)
    return int(np.count_nonzero(svals > cutoff))


def numerical_rank(m: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL times the largest."""
    return _rank_of(np.linalg.svd(m, compute_uv=False))


class StateSpaceForm:
    """Companion state space of the rewrite without instantaneous effects.

    The state stacks max(p,1) lags of S and q lags of eps; F is the
    companion matrix of C A1..C Ap (or 0) and C B1..C Bq, without the shift
    into the first eps block. The stationary state covariance Sigma_z solves
    Sigma_z = F Sigma_z F^T + G Gamma G^T, but only its AR block, the
    covariance of x_t = (S_t..S_(t-max(p,1)+1)), needs a Lyapunov solve. With
    Phi the companion of C A1..C Ap, Theta_0 = C, Theta_l = C B_l and E1 the
    first d rows, x_t = Phi x_(t-1) + E1 sum_l Theta_l eps_(t-l). The eps
    blocks are white, I_q (x) Gamma; the cross blocks C_k = Cov(x_t, eps_(t-k))
    follow C_0 = E1 Theta_0 Gamma, C_k = Phi C_(k-1) + E1 Theta_k Gamma; and
    Gamma_x = Phi Gamma_x Phi^T + Q_eff with Q_eff = E1 (sum_l Theta_l Gamma
    Theta_l^T) E1^T + Phi M + M^T Phi^T, M = sum_(l>=1) C_(l-1) Theta_l^T E1^T,
    which is the AR block of F Sigma_z F^T + G Gamma G^T while that block of
    Sigma_z is zero. Smith doubling thus runs on d·max(p,1) rows instead of
    n = d·(max(p,1)+q), and the residual of the full n x n equation is checked
    to 1e-10 relative. The gate bounds the residual, not the error of Sigma_z:
    near the unit root a relative error delta leaves a residual of about
    delta·(1 - rho²), so with ill-conditioned eigenvectors an error of 4.2e-8
    was measured at a residual of 2.0e-13.
    The spec is validated through its rewrite slot, and each form solves its
    AR block anew; nothing is cached across forms. The autocovariances are
    kept in one lag table, grown on demand by the n x d column blocks
    X_h = F X_(h-1) from X_0 = Sigma_z[:, :d]: the top d rows of X_h are
    autocov(h), and only the last block is kept to grow from. ``population_ci``
    reads the table as nested Python lists, built from it on first request and
    kept paired with the table they came from, so a grown table makes them
    stale; the other readers gather from the array and build no lists.
    """

    def __init__(self, spec: VarmaSpec):
        self.spec = spec
        d, q, gamma = spec.d, spec.q, spec.gamma
        rw = remove_instantaneous(spec)
        m = max(spec.p, 1) * d
        # the block below S_(t-max(p,1)+1) is eps_t, which enters through G
        f = companion_matrix([*(rw.ar or [np.zeros((d, d))]), *rw.ma_eps])
        f[m:m + d, m - d:m] = 0
        n = f.shape[0]

        g = np.zeros((n, d))
        g[:d] = rw.ice
        if q:
            g[m:m + d] = np.eye(d)

        q_mat = (g * gamma) @ g.T
        phi = f[:m, :m]
        if q:
            # Sigma_z outside its AR block, from Q: Q holds the first eps block
            # Gamma and the cross block C_0 = E1 Theta_0 Gamma; each later eps
            # block is Gamma, and C_k = Phi C_(k-1) + E1 Theta_k Gamma, with
            # Theta_k in F[:d] just left of column block k
            sigma_z = q_mat.copy()
            sigma_z[:m, :m] = 0
            for k in range(m + d, n, d):
                sigma_z[k:k + d, k:k + d] = q_mat[m:m + d, m:m + d]
                sigma_z[:m, k:k + d] = phi @ sigma_z[:m, k - d:k] + f[:m, k - d:k] * gamma
                sigma_z[k:k + d, :m] = sigma_z[:m, k:k + d].T
            # while the AR block of sigma_z is zero, that of F sigma_z F^T + Q is Q_eff
            top = f[:m]
            sigma_z[:m, :m], _ = _solve_lyapunov_doubling(
                phi, top @ sigma_z @ top.T + q_mat[:m, :m])
        else:  # the state is the AR block, and Q_eff is Q
            sigma_z, _ = _solve_lyapunov_doubling(phi, q_mat)

        gap = sigma_z - f @ sigma_z @ f.T - q_mat
        denom = max(math.sqrt(np.vdot(sigma_z, sigma_z)), _TINY)
        residual = math.sqrt(np.vdot(gap, gap)) / denom
        if residual > LYAPUNOV_RESIDUAL_RTOL:
            raise ModelError(
                f"Lyapunov solve residual {residual:.3g} exceeds {LYAPUNOV_RESIDUAL_RTOL}")

        self.d = d
        self.f = f
        self.g_load = g
        self.sigma_z = sigma_z
        self.residual = float(residual)
        sigma_z.setflags(write=False)
        # (lag table for s = 0, X_0), swapped as one pair for concurrent readers;
        # (lag table, its rows as lists), likewise, built on request
        self._lags = sigma_z[None, :d, :d], sigma_z[:, :d]
        self._rows = None, None

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

    def _lag_rows(self, span: int) -> list:
        """``_lag_table(span)`` as nested lists of Python floats."""
        table = self._lag_table(span)
        rows = self._rows
        if rows[0] is not table:
            rows = table, table.tolist()
            self._rows = rows
        return rows[1]


def solve_stationary(spec: VarmaSpec) -> StateSpaceForm:
    return StateSpaceForm(spec)


def cross_covariance(ss: StateSpaceForm, u: Sequence[TimedNode],
                     v: Sequence[TimedNode]) -> np.ndarray:
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
    return np.take(table, np.add.outer(rows, cols))


def _check_conditioning(a, c, b) -> None:
    overlap = (set(a) | set(c)) & set(b)
    if overlap:
        raise ModelError(f"conditioning set overlaps a/c nodes: {sorted(overlap)}")


def _schur_complement(joint: np.ndarray, nb: int):
    """S_AC - S_AB S_BB^+ S_BC of a joint (A ∪ B) x (B ∪ C) moment matrix.

    With S_BB = V diag(w) V' from ``eigh``, eigenvalues with |w| at most
    PINV_RTOL of the largest count as zero, and the step is S_AC -
    (S_AB V_k / w_k)(V_k' S_BC) on the kept columns k. The mask of those kept,
    in ``eigh`` order, comes second (``()`` for an empty B); callers only count
    it. On a sample Gram matrix that drops each direction of the B rows whose
    singular value is below about 1e-5 of the largest. For one B node ``eigh``
    gives w = S_BB and V = 1, so the step is S_AC - (S_AB (1/S_BB)) S_BC,
    taken directly with the same roundings, and S_AC itself when S_BB = 0.
    When every eigenvalue is kept, V is not copied through the mask; it is
    only laid out column-major, as the mask's copy would be, so the products
    round the same.
    """
    if not nb:
        return joint, ()
    na = len(joint) - nb
    if nb == 1:
        s_bb = joint[na, 0]
        kept = np.array([abs(s_bb) > PINV_RTOL * abs(s_bb)])
        if not kept[0]:
            return joint[:na, 1:].copy(), kept
        return joint[:na, 1:] - (joint[:na, :1] * (1 / s_bb)) @ joint[na:, 1:], kept
    w, v = np.linalg.eigh(joint[na:, :nb])
    kept = abs(w) > PINV_RTOL * abs(w).max()
    if False in kept.tolist():
        v, w = v[:, kept], w[kept]
    else:
        v = np.asfortranarray(v)
    scaled = joint[:na, :nb] @ v * (1 / w)
    return joint[:na, nb:] - scaled @ (v.T @ joint[na:, nb:]), kept


def conditional_covariance(ss: StateSpaceForm, a: Sequence[TimedNode],
                           c: Sequence[TimedNode], b: Sequence[TimedNode] = ()) -> np.ndarray:
    """Cov(A, C | B) of the Gaussian stationary law, by the Schur step on the
    gathered (A ∪ B) x (B ∪ C) covariance; B may share no node with A or C.
    Eigenvalues of Cov(B, B) below 1e-10 of the largest count as zero.
    """
    _check_conditioning(a, c, b)
    return _schur_complement(cross_covariance(ss, (*a, *b), (*b, *c)), len(b))[0]


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ModelError(f"CI tolerance must be positive and finite, got {tol}")


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

    The joint (A ∪ C ∪ B) x (B ∪ A ∪ C) covariance is gathered as Python
    floats from the lag table's rows, the entries ``cross_covariance`` gathers;
    only a non-empty B hands it to numpy, for the Schur step of
    ``conditional_covariance``, so the verdict has the bytes of that route.

    For non-Gaussian innovations m-separation still forces these covariances
    to zero, but zero covariance then no longer certifies independence; the
    verdict is only an independence statement under Gaussianity. A tol
    outside (0, inf), NaN included, raises ModelError.
    """
    _check_tol(tol)
    # a query's sets are disjoint; its nodes are checked once, a, c, b in turn
    nodes = process_nodes((*query.a, *query.c, *query.b), ss.d)
    nb, ns = len(query.b), len(nodes) - len(query.b)
    times = [w.time for w in nodes]
    rows = ss._lag_rows(max(times) - min(times))
    mid = len(rows) // 2
    # entry (i, j) is autocov(t_i - t_j)[c_i, c_j], rows (A, C, B), columns (B, A, C)
    cols = [(mid - t, j) for j, t, _ in (*nodes[ns:], *nodes[:ns])]
    cond = [[rows[t + k][i][j] for k, j in cols] for i, t, _ in nodes]
    if nb:
        cond = _schur_complement(np.array(cond), nb)[0].tolist()
    # Python floats round abs, /, * and sqrt as numpy's float64 scalars do
    uncond, na = rows[mid], len(query.a)
    degenerate_node = [cond[k][k] <= 1e-10 * max(uncond[v.component][v.component], _TINY)
                       for k, v in enumerate(nodes[:ns])]
    degenerate, max_corr, independent = False, 0.0, True
    for i in range(na):
        for j in range(na, ns):
            if degenerate_node[i] or degenerate_node[j]:
                degenerate = True
                continue
            corr = abs(cond[i][j]) / math.sqrt(cond[i][i] * cond[j][j])
            max_corr = max(max_corr, corr)
            if corr >= tol:
                independent = False
    return CiVerdict(independent, max_corr, degenerate, tol)
