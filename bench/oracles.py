"""Reference computations made apart from varma_causal.

Nothing here imports the library. Specs enter as their plain coefficient
arrays (``a`` = A0..Ap, ``b`` = B1..Bq, ``gamma`` = innovation variances) and
nodes as ``(component, time)`` pairs, so every check compares an answer of the
program with a value reached by another route: a full-time DAG in networkx,
an explicit inverse of (I - A0), a state-space form solved by scipy, or exact
rational arithmetic.
"""

from __future__ import annotations

import numpy as np


# -- stationary law by scipy --------------------------------------------------

def state_space(a, b):
    """Companion form z_t = F z_(t-1) + G eps_t of the process without A0.

    z_t stacks S_t..S_(t-p+1) and eps_t..eps_(t-q+1). With C = (I - A0)^-1,
    S_t = sum_k C A_k S_(t-k) + C eps_t + sum_l C B_l eps_(t-l).
    """
    a = [np.asarray(m, dtype=float) for m in a]
    b = [np.asarray(m, dtype=float) for m in b]
    d = a[0].shape[0]
    p, q = len(a) - 1, len(b)
    ps = max(p, 1)
    n = d * (ps + q)
    c = np.linalg.inv(np.eye(d) - a[0])
    f = np.zeros((n, n))
    g = np.zeros((n, d))
    for k in range(1, p + 1):
        f[:d, (k - 1) * d:k * d] = c @ a[k]
    for l in range(1, q + 1):
        f[:d, (ps + l - 1) * d:(ps + l) * d] = c @ b[l - 1]
    for k in range(1, ps):
        f[k * d:(k + 1) * d, (k - 1) * d:k * d] = np.eye(d)
    for l in range(1, q):
        f[(ps + l) * d:(ps + l + 1) * d, (ps + l - 1) * d:(ps + l) * d] = np.eye(d)
    g[:d] = c
    if q:
        g[ps * d:(ps + 1) * d] = np.eye(d)
    return f, g


class ScipyLaw:
    """Autocovariances Gamma_h = Cov(S_t, S_(t-h)) from scipy's Lyapunov solver."""

    def __init__(self, a, b, gamma):
        from scipy.linalg import solve_discrete_lyapunov

        self.f, g = state_space(a, b)
        self.d = g.shape[1]
        q_mat = g @ np.diag(np.asarray(gamma, dtype=float)) @ g.T
        self.sigma_z = solve_discrete_lyapunov(self.f, q_mat)
        self._blocks = [self.sigma_z]

    def gamma(self, h: int) -> np.ndarray:
        if h < 0:
            return self.gamma(-h).T
        while len(self._blocks) <= h:
            self._blocks.append(self.f @ self._blocks[-1])
        return self._blocks[h][:self.d, :self.d]

    def cov(self, u, v) -> np.ndarray:
        """Cov(U, V) for lists of (component, time) nodes."""
        return np.array([[self.gamma(tu - tv)[iu, iv] for iv, tv in v] for iu, tu in u])


# -- IV references ------------------------------------------------------------

def lagged_effect_row(a, y: int) -> np.ndarray:
    """Row y of (I - A0)^-1 [A1 ... Ap]: the effect of S_(t-1..t-p) on S_t^y.

    Entries are ordered lag-major, component-minor, as X = every component at
    lags 1..p.
    """
    a = [np.asarray(m, dtype=float) for m in a]
    c = np.linalg.inv(np.eye(a[0].shape[0]) - a[0])
    return np.hstack([(c @ m)[y] for m in a[1:]])


def beta_tolerance(s_xi: np.ndarray) -> float:
    """Tolerance for a population IV coefficient: 1e-10 * cond(S_XI).

    The normal-equation solve loses up to about eps * cond(S_XI)^2, which this
    bound exceeds for every cond(S_XI) below 4.5e5.
    """
    return 1e-10 * float(np.linalg.cond(s_xi))


# -- full-time DAG in networkx ------------------------------------------------

def full_time_dag(a, b, t_min: int, t_max: int):
    """The full-time DAG with innovation nodes over [t_min, t_max].

    Nodes are ("S", i, t) and ("e", i, t); S_j@(t-k) -> S_i@t iff A_k[i,j] != 0,
    e_i@t -> S_i@t always, e_j@(t-l) -> S_i@t iff B_l[i,j] != 0.
    """
    import networkx as nx

    a = [np.asarray(m, dtype=float) for m in a]
    loadings = [np.eye(a[0].shape[0]), *(np.asarray(m, dtype=float) for m in b)]
    d = a[0].shape[0]
    g = nx.DiGraph()
    for t in range(t_min, t_max + 1):
        for i in range(d):
            g.add_node(("S", i, t))
            g.add_node(("e", i, t))
    for t in range(t_min, t_max + 1):
        for kind, mats in (("S", a), ("e", loadings)):
            for k, mat in enumerate(mats):
                if t - k < t_min:
                    continue
                for i, j in zip(*np.nonzero(mat)):
                    g.add_edge((kind, int(j), t - k), ("S", int(i), t))
    return g


def d_separated(dag, a_nodes, b_nodes, c_nodes) -> bool:
    """d-separation of endogenous (component, time) node sets in a DAG.

    Lauritzen's criterion with networkx primitives: b separates a from c iff
    they are disconnected in the moral graph of the ancestral subgraph of
    a | b | c once b is removed. ``networkx.is_d_separator`` decides the same
    (the tests compare the two), but it can queue a node once per path, and a
    single query on a window 40 lags deep ran for minutes.
    """
    import networkx as nx

    x, z, y = ({("S", i, t) for i, t in nodes} for nodes in (a_nodes, b_nodes, c_nodes))
    keep = x | y | z
    for v in x | y | z:
        keep |= nx.ancestors(dag, v)
    moral = nx.moral_graph(dag.subgraph(keep))
    moral.remove_nodes_from(z)
    reach = set().union(*(nx.node_connected_component(moral, v) for v in x))
    return not reach & y


# -- exact rational law of the worked VARMA(1,1) example ----------------------

def _mat_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _mat_t(x):
    return [list(row) for row in zip(*x)]


def _mat_add(*ms):
    return [[sum(m[i][j] for m in ms) for j in range(len(ms[0][0]))]
            for i in range(len(ms[0]))]


def varma11_lag0_residual(gamma0, a, b, sigma):
    """Gamma0 - (A Gamma0 A' + A Sigma B' + B Sigma A' + Sigma + B Sigma B').

    The Yule-Walker lag-0 equation of S_t = A S_(t-1) + e_t + B e_(t-1). For a
    stable A its solution is unique, so a zero residual proves gamma0 exact.
    """
    bs = _mat_mul(b, sigma)
    a_sigma = _mat_mul(a, sigma)
    rhs = _mat_add(_mat_mul(_mat_mul(a, gamma0), _mat_t(a)), _mat_mul(a_sigma, _mat_t(b)),
                   _mat_mul(bs, _mat_t(a)), sigma, _mat_mul(bs, _mat_t(b)))
    return [[g - r for g, r in zip(grow, rrow)] for grow, rrow in zip(gamma0, rhs)]


def varma11_gamma1(gamma0, a, b, sigma):
    """Gamma1 = A Gamma0 + B Sigma."""
    return _mat_add(_mat_mul(a, gamma0), _mat_mul(b, sigma))


def to_float(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


def varma11_autocovariances(gamma0, gamma1, a1, horizon: int):
    """Gamma_0..Gamma_horizon as floats; Gamma_h = A Gamma_(h-1) for h >= 2."""
    a = np.asarray(a1, dtype=float)
    out = [to_float(gamma0), to_float(gamma1)]
    while len(out) <= horizon:
        out.append(a @ out[-1])
    return out


def lag0_sample_cov_sd(gammas, n: int) -> np.ndarray:
    """Bartlett's CLT standard deviation of each lag-0 sample covariance entry.

    n Var(c_ij) -> sum_h [g_ii(h) g_jj(h) + g_ij(h) g_ji(h)], with
    g(h) = Gamma_h for h >= 0 and Gamma_(-h)' below.
    """
    d = gammas[0].shape[0]
    acc = np.zeros((d, d))
    for h in range(-(len(gammas) - 1), len(gammas)):
        g = gammas[h] if h >= 0 else gammas[-h].T
        acc += np.outer(np.diag(g), np.diag(g)) + g * g.T
    return np.sqrt(acc / n)


def iv_asymptotic_sd(s_xi: np.ndarray, gamma_ii: np.ndarray, sigma_u2: float,
                     n: int) -> np.ndarray:
    """Standard deviation of a just-identified IV estimate with white errors.

    beta_hat - beta = (u'I / n) S_XI^-1 with u a martingale difference
    independent of the instruments, so sqrt(n)(beta_hat - beta) tends to
    N(0, sigma_u^2 S_XI^-T Gamma_II S_XI^-1).
    """
    inv = np.linalg.inv(s_xi)
    cov = sigma_u2 * inv.T @ gamma_ii @ inv
    return np.sqrt(np.diag(cov) / n)


def within(values, reference, bound) -> bool:
    return bool(np.all(np.abs(np.asarray(values) - np.asarray(reference)) <= bound))

