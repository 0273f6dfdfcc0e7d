"""VARMA(p,q) process specifications with instantaneous effects.

A process is given by coefficient matrices A0..Ap (A0 holds the instantaneous
effects, with acyclic support), MA matrices B1..Bq, and independent innovation
variances gamma. The module provides validity checking, the canonical
rewrites (instantaneous-effect elimination, total-instantaneous-effect matrix)
and finite full-time graph windows, both as DAGs over (endogenous, innovation)
nodes and as marginalized ADMGs over the endogenous nodes only, all with edges
read off the coefficient supports. The
marginalized ADMG is compiled once per spec into the integer-coded incidence
of one time slice, on which the separation loop of ``effects`` runs.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .graphs import DirectedMixedGraph, TimedNode, _CodedGraph, _coded_records, _kahn_order, endo, innov

STABILITY_MARGIN = 1e-8


def _as_matrix(m, d, what):
    arr = np.array(m, dtype=float)  # a copy, so no caller can change a validated spec
    if arr.shape != (d, d):
        raise ModelError(f"{what} must be {d}x{d}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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


def as_integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int if it is an integer, of at least ``least`` when
    given; ModelError naming ``name`` otherwise."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ModelError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ModelError(f"{name} must be >= {least}, got {number}")
    return number


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
    validated once on first use; the rewrite, the marginalized ADMG and the
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
        if not np.isfinite(self.gamma).all():
            raise ModelError("gamma has non-finite entries")
        if (self.gamma < 0).any():
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
        remove_instantaneous(self)  # validates the spec
        return _MarginalizedAdmg(self.d, self.a, (np.eye(self.d), *self.b))


def instantaneous_order(a0: np.ndarray):
    """Topological order of the instantaneous DAG (edge j→i iff A0[i,j] != 0).

    Returns None when the support graph is cyclic.
    """
    d = a0.shape[0]
    # the children of j, read once: the rows i with A0[i, j] != 0 (-0.0 is zero)
    children = [[i for i, edge in enumerate(col) if edge] for col in (a0 != 0).T.tolist()]
    order = _kahn_order(range(d), children.__getitem__, int)
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
    1e-8 on the spectral radius. The report is computed anew on every call,
    with one topological pass, whose order the substitution of
    :func:`ice_matrix` runs on; an acyclic, stable spec keeps the rewrite
    built from the same matrices.
    """
    messages = []
    a0 = spec.a[0]
    if a0.diagonal().any():
        messages.append("diag(A0) must be zero")
        order = None
    else:
        order = instantaneous_order(a0)
        if order is None:
            messages.append("instantaneous effect graph has a cycle")
    acyclic = order is not None

    radius = float("inf")
    if acyclic:
        ice = _forward_substitution(a0, order)
        ar = tuple(ice @ ak for ak in spec.a[1:])
        comp = companion_matrix(ar)
        radius = float(np.abs(np.linalg.eigvals(comp)).max()) if comp.size else 0.0
    if radius >= 1 - STABILITY_MARGIN:
        messages.append(f"unstable: companion spectral radius {radius:.6g} >= 1 - 1e-8")
    elif spec._rewrite is None:
        rw = RewrittenVarSpec(ice=ice, ar=ar, ma_eps=tuple(ice @ bl for bl in spec.b))
        for arr in (rw.ice, *rw.ar, *rw.ma_eps):
            arr.setflags(write=False)
        spec._rewrite = rw

    gamma_pos = bool((spec.gamma > 0).all())
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
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise ModelError(f"A0 must be a square matrix, got shape {a0.shape}")
    if np.any(np.diag(a0) != 0):
        raise ModelError("diag(A0) must be zero")
    order = instantaneous_order(a0)
    if order is None:
        raise ModelError("instantaneous effect graph has a cycle")
    return _forward_substitution(a0, order)


def _forward_substitution(a0: np.ndarray, order) -> np.ndarray:
    """:func:`ice_matrix` of an acyclic A0 given its topological ``order``:
    row i is e_i plus A0[i, j] times row j for each parent j, ascending, in
    Python floats, as one numpy row update per edge would round them."""
    d, rows = len(order), a0.tolist()
    ice = [None] * d
    for i in order:
        row = [0.0] * d
        row[i] = 1.0
        for j, coeff in enumerate(rows[i]):
            if coeff:
                row = [x + coeff * y for x, y in zip(row, ice[j])]
        ice[i] = row
    return np.array(ice).reshape(d, d)


@dataclass(frozen=True)
class RewrittenVarSpec:
    """Equivalent representation without instantaneous effects.

    ``ar`` holds C A1..C Ap (C = (I - A0)^(-1)); ``ma_eps`` holds C B1..C Bq,
    the MA loadings when the equation is written against the original
    innovations (with contemporaneous loading C). The arrays are read-only,
    as one rewrite is shared by every caller of the spec.
    """

    ice: np.ndarray
    ar: tuple[np.ndarray, ...]
    ma_eps: tuple[np.ndarray, ...]


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


def _support(mats) -> list:
    """(k, i, j) of every exactly non-zero entry mats[k][i, j], by lag and
    then row by row: the edge tail(j, t-k) -> S_i@t at every time t."""
    return list(zip(*[axis.tolist() for axis in np.array(mats).nonzero()]))


def _lag_edges(mats, tail, t_min, t_max):
    """Edges tail(j, t-k) -> endo(i, t) with coefficient mats[k][i, j].

    One edge per :func:`_support` entry, for heads and tails in [t_min, t_max].
    """
    support = _support(mats)
    return [
        (tail(j, t - k), endo(i, t), float(mats[k][i, j]))
        for t in range(t_min, t_max + 1)
        for k, i, j in support
        if t - k >= t_min
    ]


class _MarginalizedAdmg(_CodedGraph):
    """The full-time marginalized ADMG of S_t = Σ_k lags[k] S_(t-k) +
    Σ_l loadings[l] eps_(t-l), compiled once. A spec's is its ``_admg``:
    lags A0..Ap and loadings L_0..L_q = I, B1..Bq. A window reads
    S_j@(t-k) -> S_i@t off the lags and S_k@(t-δ) <-> S_i@t off
    ``shared[δ]`` = Σ_l supp(L_(l+δ)) supp(L_l)^T (i > k at δ = 0), which
    counts the innovations loading both in integers, so no product of small
    loadings underflows. The graph is translation invariant, so the separation core
    reads it integer-coded, period d: S_i@t is t·d + i, and ``records[i]``
    lists the edges at S_i@0 as offsets k·d + j - i to S_j@k, in the
    ``graphs._incidence`` order. The compile reads them off the same
    :func:`_support` entries as the windows, in codes and without a window:
    an entry (k, i, j) gives the edge into slice 0, j - k·d to i, and its
    translate by k slices out of slice 0, j to k·d + i (one edge at k = 0).
    """

    def __init__(self, d: int, lags, loadings):
        self.d, self.lags, self.loadings = d, lags, loadings
        # [L_0 .. L_q] side by side: shared[δ] is [L_δ .. L_q] [L_0 .. L_(q-δ)]^T
        wide = (np.concatenate(self.loadings, axis=1) != 0).astype(np.int64)
        self.shared = [wide[:, delta * d:] @ wide[:, :wide.shape[1] - delta * d].T
                       for delta in range(len(self.loadings))]
        self.shared[0] = np.tril(self.shared[0], -1)
        directed, bidirected = (
            {e for k, i, j in _support(mats) for e in ((j - k * d, i), (j, i + k * d))}
            for mats in (self.lags, self.shared))
        # directed pairs by code; bi-directed ones as graphs._incidence compares
        # them, as TimedNode tuples: component, then time
        super().__init__(d, _coded_records(d, sorted(directed), sorted(
            bidirected, key=lambda e: (e[0] % d, e[0] // d, e[1] % d, e[1] // d))))

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


def marginalized_admg_window(spec: VarmaSpec, t_min: int, t_max: int) -> DirectedMixedGraph:
    """Window of the full-time marginalized ADMG over endogenous nodes.

    Innovations have no parents and only endogenous children, so their latent
    projection has a closed form: the directed edges are those of the
    full-time DAG between endogenous nodes of [t_min, t_max], with their
    coefficients, and S_i@t <-> S_k@u iff one innovation eps_j@s loads both
    (the loadings of :func:`full_time_window`), read off the integer
    products of the loading supports by the walk that reads the directed
    edges, as is the separation loop's compiled incidence.
    """
    return DirectedMixedGraph(*spec._admg.window(t_min, t_max))


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
