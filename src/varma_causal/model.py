"""VARMA(p,q) process specifications with instantaneous effects.

A process is given by coefficient matrices A0..Ap (A0 holds the instantaneous
effects, with acyclic support), MA matrices B1..Bq, and independent innovation
variances gamma. The module provides validity checking, the canonical
rewrites (instantaneous-effect elimination, total-instantaneous-effect matrix,
doubled-dimension VAR embedding) and finite full-time graph windows, both as
DAGs over (endogenous, innovation) nodes and as marginalized ADMGs over the
endogenous nodes only, all with edges read off the coefficient supports. The
marginalized ADMG is compiled once per spec into the integer-coded incidence
of one time slice, on which the separation loop of ``effects`` runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .graphs import DirectedMixedGraph, TimedNode, _CodedGraph, _incidence, _kahn_order, endo, innov

STABILITY_MARGIN = 1e-8


def _as_matrix(m, d, what):
    arr = np.array(m, dtype=float)  # a copy, so no caller can change a validated spec
    if arr.shape != (d, d):
        raise ModelError(f"{what} must be {d}x{d}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what} has non-finite entries")
    return arr


def component_names(names, d: int) -> tuple[str, ...]:
    """``names`` as a tuple if they are ``d`` distinct strings, none of the
    form ``e(name)`` of another (``graphs.node_label``); ModelError otherwise."""
    names = tuple(names)
    if len(names) != d:
        raise ModelError(f"names must have length {d}")
    if not all(isinstance(n, str) for n in names):
        raise ModelError(f"names must be strings, got {list(names)}")
    if len(set(names)) != d:
        raise ModelError(f"names must be distinct, got {list(names)}")
    shadowed = [f"e({n})" for n in names if f"e({n})" in names]
    if shadowed:
        raise ModelError(f"names {shadowed} read as innovations of other components")
    return names


class VarmaSpec:
    """Process definition: S_t = A0 S_t + sum_k Ak S_(t-k) + eps_t + sum_l Bl eps_(t-l).

    Parameters
    ----------
    a : sequence of (d, d) arrays
        Lag matrices A0..Ap; ``a[0]`` carries the instantaneous effects and
        must have a zero diagonal.
    b : sequence of (d, d) arrays
        MA matrices B1..Bq (may be empty).
    gamma : length-d array
        Innovation variances (diagonal of the innovation covariance).
    names : optional component names, used for display only; see
        :func:`component_names`.

    Shape errors and non-finite or negative entries raise immediately;
    stability and acyclicity are checked by :func:`validate`. Instances are
    immutable after construction. Every layer needs a valid spec: it is
    validated once on first use; the rewrite, both ADMG forms and the
    simulation levels are named slots on the spec, each filled on first use.
    """

    def __init__(self, a: Sequence, b: Sequence = (), gamma: Sequence = None, names=None):
        if len(a) < 1:
            raise ModelError("need at least A0")
        d = np.asarray(a[0], dtype=float).shape[0]
        self.d = d
        self.a = tuple(_as_matrix(m, d, f"A{k}") for k, m in enumerate(a))
        self.b = tuple(_as_matrix(m, d, f"B{l + 1}") for l, m in enumerate(b))
        self.p = len(self.a) - 1
        self.q = len(self.b)
        if gamma is None:
            gamma = np.ones(d)
        self.gamma = np.array(gamma, dtype=float)
        if self.gamma.shape != (d,):
            raise ModelError(f"gamma must have length {d}, got shape {self.gamma.shape}")
        if not np.all(np.isfinite(self.gamma)):
            raise ModelError("gamma has non-finite entries")
        if np.any(self.gamma < 0):
            raise ModelError("gamma entries must be non-negative")
        self.names = component_names(names, d) if names is not None else None
        for arr in (*self.a, *self.b, self.gamma):
            arr.setflags(write=False)
        self._rewrite = None  # RewrittenVarSpec, left by validate on an acyclic, stable spec
        self._levels = []  # simulation block operators, one entry per recursion level

    def __repr__(self):
        return f"VarmaSpec(d={self.d}, p={self.p}, q={self.q})"

    @property
    def max_lag(self) -> int:
        return max(self.p, self.q)

    @cached_property
    def _admg(self) -> "_MarginalizedAdmg":
        return _MarginalizedAdmg(self, False)

    @cached_property
    def _rewritten_admg(self) -> "_MarginalizedAdmg":
        return _MarginalizedAdmg(self, True)


def instantaneous_order(a0: np.ndarray):
    """Topological order of the instantaneous DAG (edge j→i iff A0[i,j] != 0).

    Returns None when the support graph is cyclic.
    """
    d = a0.shape[0]
    order = _kahn_order(range(d), lambda j: np.flatnonzero(a0[:, j]).tolist(), int)
    return order if len(order) == d else None


def companion_matrix(ar_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Companion form of a VAR lag polynomial (matrices for lags 1..p)."""
    p = len(ar_mats)
    if p == 0:
        return np.zeros((0, 0))
    d = ar_mats[0].shape[0]
    comp = np.zeros((d * p, d * p))
    for k, m in enumerate(ar_mats):
        comp[:d, k * d:(k + 1) * d] = m
    if p > 1:
        comp[d:, :-d] = np.eye(d * (p - 1))
    return comp


@dataclass(frozen=True)
class ValidationReport:
    instantaneous_acyclic: bool
    topological_order: Optional[tuple[int, ...]]
    spectral_radius: float
    gamma_positive: bool
    passed: bool
    messages: tuple[str, ...]


def validate(spec: VarmaSpec, allow_zero_variance: bool = False) -> ValidationReport:
    """Check instantaneous acyclicity, stability and innovation variances.

    The stability clause requires every root of
    det((I - A0) λ^p - A1 λ^(p-1) - ... - Ap) to satisfy |λ| < 1; it is
    checked through the companion matrix of (I - A0)^(-1) Ak with a margin of
    1e-8 on the spectral radius. The report is computed anew on every call;
    an acyclic, stable spec keeps the rewrite built from the same matrices.
    """
    messages = []
    a0 = spec.a[0]
    if np.any(np.diag(a0) != 0):
        messages.append("diag(A0) must be zero")
        order = None
    else:
        order = instantaneous_order(a0)
        if order is None:
            messages.append("instantaneous effect graph has a cycle")
    acyclic = order is not None

    radius = float("inf")
    if acyclic:
        ice = ice_matrix(a0)
        ar = tuple(ice @ ak for ak in spec.a[1:])
        comp = companion_matrix(ar)
        radius = float(np.max(np.abs(np.linalg.eigvals(comp)))) if comp.size else 0.0
    if radius >= 1 - STABILITY_MARGIN:
        messages.append(f"unstable: companion spectral radius {radius:.6g} >= 1 - 1e-8")
    elif spec._rewrite is None:
        inv_ice = np.eye(spec.d) - a0
        rw = RewrittenVarSpec(
            ice=ice,
            ar=ar,
            ma_eps=tuple(ice @ bl for bl in spec.b),
            ma_delta=tuple(ice @ bl @ inv_ice for bl in spec.b),
            sigma_delta=ice @ np.diag(spec.gamma) @ ice.T,
        )
        for arr in (rw.ice, *rw.ar, *rw.ma_eps, *rw.ma_delta, rw.sigma_delta):
            arr.setflags(write=False)
        spec._rewrite = rw

    gamma_pos = bool(np.all(spec.gamma > 0))
    if not gamma_pos and not allow_zero_variance:
        messages.append("gamma entries must be strictly positive")
    passed = (
        acyclic
        and radius < 1 - STABILITY_MARGIN
        and (gamma_pos or allow_zero_variance)
    )
    return ValidationReport(
        instantaneous_acyclic=acyclic,
        topological_order=order,
        spectral_radius=radius,
        gamma_positive=gamma_pos,
        passed=passed,
        messages=tuple(messages),
    )


def ice_matrix(a0: np.ndarray) -> np.ndarray:
    """(I - A0)^(-1), the matrix of total instantaneous causal effects.

    Entry (i, j) is the sum over all directed paths from component j to
    component i in the instantaneous DAG of the products of edge
    coefficients, with ones on the diagonal. Computed by forward substitution
    in topological order so that entries without a connecting path are exact
    floating-point zeros.
    """
    a0 = np.asarray(a0, dtype=float)
    d = a0.shape[0]
    if np.any(np.diag(a0) != 0):
        raise ModelError("diag(A0) must be zero")
    order = instantaneous_order(a0)
    if order is None:
        raise ModelError("instantaneous effect graph has a cycle")
    ice = np.zeros((d, d))
    for i in order:
        ice[i, i] = 1.0
        for j in np.nonzero(a0[i])[0]:
            ice[i] += a0[i, j] * ice[j]
    return ice


@dataclass(frozen=True)
class RewrittenVarSpec:
    """Equivalent representation without instantaneous effects.

    ``ar`` holds C A1..C Ap (C = (I - A0)^(-1)); ``ma_eps`` holds C B1..C Bq,
    the MA loadings when the equation is written against the original
    innovations (with contemporaneous loading C); ``ma_delta`` holds
    C Bl C^(-1), the loadings against delta_t = C eps_t; ``sigma_delta`` is
    Var(delta_t) = C Gamma C^T. The arrays are read-only, as one rewrite
    is shared by every caller of the spec.
    """

    ice: np.ndarray
    ar: tuple[np.ndarray, ...]
    ma_eps: tuple[np.ndarray, ...]
    ma_delta: tuple[np.ndarray, ...]
    sigma_delta: np.ndarray


def remove_instantaneous(spec: VarmaSpec) -> RewrittenVarSpec:
    """Rewrite the process without instantaneous effects (distribution kept).

    Every layer validates a spec here: the first call runs :func:`validate`
    once (zero innovation variances allowed), raises :class:`ModelError` with
    the report's messages if the spec is invalid, and otherwise returns the
    read-only rewrite that validate left on the spec, as do all later calls.
    """
    if spec._rewrite is None:
        report = validate(spec, allow_zero_variance=True)
        if not report.passed:
            raise ModelError("invalid process specification: " + "; ".join(report.messages))
    return spec._rewrite


def embed_as_var(spec: VarmaSpec) -> VarmaSpec:
    """Embed the VARMA(p,q) as a 2d-dimensional VAR(max(p,q)) on (S_t, eps_t).

    The first d components follow the original process, the last d reproduce
    the innovations; their own innovations are degenerate at zero (variance
    exactly 0, flagged by validate, accepted by the stationary solver). The
    instantaneous block carries A0 together with the unit loading of eps_t on
    S_t, so the embedded full-time DAG is the VARMA full-time DAG.
    """
    remove_instantaneous(spec)  # validates the spec
    d, p, q = spec.d, spec.p, spec.q
    ell = max(p, q)
    zero = np.zeros((d, d))
    c0 = np.block([[spec.a[0], np.eye(d)], [zero, zero]])
    lags = []
    for k in range(1, ell + 1):
        ak = spec.a[k] if k <= p else zero
        bk = spec.b[k - 1] if k <= q else zero
        lags.append(np.block([[ak, bk], [zero, zero]]))
    gamma = np.concatenate([np.zeros(d), spec.gamma])
    names = None
    if spec.names:
        names = [*spec.names, *[f"eps({n})" for n in spec.names]]
    return VarmaSpec([c0, *lags], (), gamma, names=names)


def _lag_edges(mats, tail, t_min, t_max):
    """Edges tail(j, t-k) -> endo(i, t) with coefficient mats[k][i, j].

    One edge per exactly non-zero entry, for heads and tails in [t_min, t_max].
    """
    support = [(k, np.argwhere(mat).tolist()) for k, mat in enumerate(mats)]
    return [
        (tail(j, t - k), endo(i, t), float(mats[k][i, j]))
        for t in range(t_min, t_max + 1)
        for k, entries in support
        if t - k >= t_min
        for i, j in entries
    ]


class _MarginalizedAdmg(_CodedGraph):
    """The full-time marginalized ADMG of a spec, validated and compiled once.

    Lags A0..Ap and innovation loadings L_0..L_q = I, B1..Bq; in the
    rewritten form (no instantaneous effects, original innovations) lags 0,
    C A1..C Ap and loadings C, C B1..C Bq with C = (I - A0)^(-1). A window
    reads S_j@(t-k) -> S_i@t off the lags and S_k@(t-δ) <-> S_i@t off
    ``shared[δ]`` = Σ_l supp(L_(l+δ)) supp(L_l)^T (i > k at δ = 0), which
    counts the innovations loading both in integers, so no product of small
    loadings underflows. The graph is translation invariant, so the separation core
    reads it integer-coded, period d: S_i@t is t·d + i, and ``records[i]``
    lists the edges at S_i@0 as offsets k·d + j - i to S_j@k, in the
    ``graphs._incidence`` order of the window [-max(p,q), max(p,q)], which
    holds every neighbour of slice 0.
    """

    def __init__(self, spec: VarmaSpec, rewritten: bool):
        rw = remove_instantaneous(spec)  # validates the spec
        if rewritten:
            self.lags = (np.zeros((spec.d, spec.d)), *rw.ar)
            self.loadings = (rw.ice, *rw.ma_eps)
        else:
            self.lags, self.loadings = spec.a, (np.eye(spec.d), *spec.b)
        support = [(m != 0).astype(np.int64) for m in self.loadings]
        self.shared = [sum(support[l + delta] @ support[l].T for l in range(len(support) - delta))
                       for delta in range(len(support))]
        self.shared[0] = np.tril(self.shared[0], -1)
        d = self.d = spec.d
        _, directed, bidirected = self.window(-spec.max_lag, spec.max_lag)
        super().__init__(d, _incidence([endo(i, 0) for i in range(d)],
                                       [(t, h) for t, h, _ in directed if 0 in (t.time, h.time)],
                                       [(v, w) for v, w in bidirected if 0 in (v.time, w.time)],
                                       self.code))

    def code(self, v: TimedNode) -> int:
        return v.time * self.d + v.component

    def node(self, code: int) -> TimedNode:
        return endo(code % self.d, code // self.d)

    def directed_window(self, t_min: int, t_max: int):
        """Nodes and directed edges (with coefficients) of [t_min, t_max]."""
        if t_min > t_max:
            raise ModelError(f"invalid window [{t_min}, {t_max}]")
        nodes = [endo(i, t) for t in range(t_min, t_max + 1) for i in range(self.d)]
        return nodes, _lag_edges(self.lags, endo, t_min, t_max)

    def window(self, t_min: int, t_max: int):
        """Nodes, directed (with coefficients) and bi-directed edges of [t_min, t_max]."""
        nodes, directed = self.directed_window(t_min, t_max)
        return nodes, directed, [(v, w) for v, w, _ in _lag_edges(self.shared, endo, t_min, t_max)]


def _structural_window(admg: _MarginalizedAdmg, t_min, t_max, include_innovations):
    """Window of the full-time DAG of S_t = sum_k AR_k S_(t-k) + sum_l L_l eps_(t-l)."""
    nodes, directed = admg.directed_window(t_min, t_max)
    if include_innovations:
        nodes += [innov(i, t) for t in range(t_min, t_max + 1) for i in range(admg.d)]
        directed += _lag_edges(admg.loadings, innov, t_min, t_max)
    return DirectedMixedGraph(nodes, directed)


def full_time_window(
    spec: VarmaSpec, t_min: int, t_max: int, include_innovations: bool = False
) -> DirectedMixedGraph:
    """Finite window of the process's full-time DAG.

    Endogenous edges come from the A matrices (lag 0 included); with
    innovations, eps_t^i feeds S_t^i with unit coefficient and eps_(t-l)^j
    feeds S_t^i iff (Bl)[i,j] != 0.
    """
    return _structural_window(spec._admg, t_min, t_max, include_innovations)


def rewritten_full_time_window(
    spec: VarmaSpec, t_min: int, t_max: int, include_innovations: bool = True
) -> DirectedMixedGraph:
    """Window of the full-time DAG of the rewrite without instantaneous effects.

    The rewrite keeps the original innovations: the contemporaneous loading is
    C = (I - A0)^(-1) and the lag-l loading is C Bl; endogenous lags are C Ak.
    """
    return _structural_window(spec._rewritten_admg, t_min, t_max, include_innovations)


def marginalized_admg_window(
    spec: VarmaSpec, t_min: int, t_max: int, rewritten: bool = False
) -> DirectedMixedGraph:
    """Window of the full-time marginalized ADMG over endogenous nodes.

    Innovations have no parents and only endogenous children, so their latent
    projection has a closed form: the directed edges are those of the
    full-time DAG between endogenous nodes of [t_min, t_max], with their
    coefficients, and S_i@t <-> S_k@u iff one innovation eps_j@s loads both
    (the loadings of :func:`full_time_window`, or of
    :func:`rewritten_full_time_window` when ``rewritten``), read off the
    integer products of the loading supports by the walk that reads the
    directed edges, as is the separation loop's compiled incidence.
    """
    admg = spec._rewritten_admg if rewritten else spec._admg
    return DirectedMixedGraph(*admg.window(t_min, t_max))


# -- JSON model format --------------------------------------------------------

def spec_to_json(spec: VarmaSpec) -> dict:
    out = {
        "d": spec.d,
        "p": spec.p,
        "q": spec.q,
        "A": [m.tolist() for m in spec.a],
        "B": [m.tolist() for m in spec.b],
        "gamma": spec.gamma.tolist(),
    }
    if spec.names:
        out["names"] = list(spec.names)
    return out


def spec_from_json(data: dict) -> VarmaSpec:
    """A spec from its JSON form; any malformed entry raises ModelError."""
    try:
        spec = VarmaSpec(data["A"], data.get("B", []), data.get("gamma"), names=data.get("names"))
        for key in ("d", "p", "q"):
            if key in data and int(data[key]) != getattr(spec, key):
                raise ModelError(f"model JSON claims {key}={data[key]} "
                                 f"but matrices give {getattr(spec, key)}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ModelError(f"malformed model JSON: {exc}") from exc
    return spec


def load_spec(path: str) -> VarmaSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
