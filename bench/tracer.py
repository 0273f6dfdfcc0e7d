"""Spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper in every
``varma_causal`` module that holds it (the package namespace and each module
that imported it), and wraps ``DirectedMixedGraph.__init__`` to count graph
constructions; ``uninstall`` puts the originals back. The untraced run never
creates a Tracer. Spans live in memory as
``[id, name, parent id, answer id, start ns, end ns, attrs]``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import varma_causal as vc


def _window_attrs(args, kwargs, out):
    _, t_min, t_max = args[:3]
    return {"depth": t_max - t_min, "nodes": len(out.graph.nodes)}


# per-layer name -> (module, attribute, attrs(args, kwargs, result) or None)
LAYERS = {
    "model.validate": ("varma_causal.model", "validate", None),
    "model.window": ("varma_causal.model", "marginalized_admg_window", _window_attrs),
    "graphs.latent_project": ("varma_causal.graphs", "latent_project", None),
    "graphs.m_separated": ("varma_causal.graphs", "m_separated", None),
    "graphs.augment": ("varma_causal.graphs", "augment", None),
    "effects.separation": ("varma_causal.effects", "stable_marginal_separation", None),
    "effects.iv_conditions": ("varma_causal.effects", "check_iv_conditions", None),
    "stationary.solve": ("varma_causal.stationary", "solve_stationary",
                         lambda a, k, out: {"dim": out.sigma_z.shape[0]}),
    "stationary.conditional_covariance": ("varma_causal.stationary",
                                          "conditional_covariance", None),
    "stationary.population_ci": ("varma_causal.stationary", "population_ci", None),
    "iv.identify": ("varma_causal.iv", "identify_population", None),
    "iv.estimate": ("varma_causal.iv", "estimate_from_data", None),
    "simulation.simulate": ("varma_causal.simulation", "simulate",
                            lambda a, k, out: {"steps": len(out)}),
    "simulation.sample_spec": ("varma_causal.simulation", "sample_stable_spec", None),
}
GRAPH_BUILD = "graphs.graph_build"


class Tracer:
    def __init__(self):
        self.spans = []
        self.answer = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1] if stack else None, self.answer,
                   time.perf_counter_ns(), 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = time.perf_counter_ns()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "varma_causal" or key.startswith("varma_causal.")]
        for name, (module, attr, attrs) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))
        cls = vc.DirectedMixedGraph
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(GRAPH_BUILD, cls.__init__, None)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def layer_metrics(spans, rounds: int, answers: int):
    """Per-layer counts and self times per round, from one traced phase.

    A span's self time is its duration minus its children's durations.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[2] is not None:
            child_ns[rec[2]] += rec[5] - rec[4]
    calls, self_ns = {}, {}
    for rec, inner in zip(spans, child_ns):
        calls[rec[1]] = calls.get(rec[1], 0) + 1
        self_ns[rec[1]] = self_ns.get(rec[1], 0) + rec[5] - rec[4] - inner

    def owner(rec):
        """Name of the nearest enclosing separation or IV-condition span."""
        parent = rec[2]
        while parent is not None and spans[parent][1] not in (
                "effects.separation", "effects.iv_conditions"):
            parent = spans[parent][2]
        return None if parent is None else spans[parent][1]

    windows = [rec for rec in spans if rec[1] == "model.window" and rec[6]]
    sep_windows = [rec for rec in windows if owner(rec) == "effects.separation"]
    sims = [rec for rec in spans if rec[1] == "simulation.simulate" and rec[6]]
    sim_ns = sum(rec[5] - rec[4] for rec in sims)
    steps = sum(rec[6]["steps"] for rec in sims)
    dims = [rec[6]["dim"] for rec in spans if rec[1] == "stationary.solve" and rec[6]]
    n_sep = calls.get("effects.separation", 0)

    def per_round(x):
        return x / rounds

    def secs(name):
        return per_round(self_ns.get(name, 0) / 1e9)

    m = {
        "model.validate.calls": (per_round(calls.get("model.validate", 0)), "count"),
        "model.validate.s": (secs("model.validate"), "s"),
        "model.window.calls": (per_round(calls.get("model.window", 0)), "count"),
        "model.window.s": (secs("model.window"), "s"),
        "model.window.nodes": (per_round(sum(r[6]["nodes"] for r in windows)), "count"),
        "graphs.latent_project.s": (secs("graphs.latent_project"), "s"),
        "graphs.graph_build.calls": (per_round(calls.get(GRAPH_BUILD, 0)), "count"),
        "graphs.graph_build.s": (secs(GRAPH_BUILD), "s"),
        "graphs.m_separated.calls": (per_round(calls.get("graphs.m_separated", 0)), "count"),
        "graphs.m_separated.s": (secs("graphs.m_separated"), "s"),
        "graphs.augment.s": (secs("graphs.augment"), "s"),
        "effects.separation.s": (secs("effects.separation"), "s"),
        "effects.separation.rounds_per_query": (
            len(sep_windows) / n_sep if n_sep else 0.0, "windows/query"),
        "effects.separation.depth_lags": (
            statistics.fmean(r[6]["depth"] for r in sep_windows) if sep_windows else 0.0,
            "lags"),
        "effects.iv_conditions.s": (secs("effects.iv_conditions"), "s"),
        "stationary.solve.calls": (per_round(calls.get("stationary.solve", 0)), "count"),
        "stationary.solve.s": (secs("stationary.solve"), "s"),
        "stationary.solve.max_dim": (max(dims, default=0), "dim"),
        "stationary.solves_per_answer": (len(dims) / answers if answers else 0.0,
                                         "solves/answer"),
        "stationary.conditional_covariance.s": (secs("stationary.conditional_covariance"), "s"),
        "stationary.population_ci.s": (secs("stationary.population_ci"), "s"),
        "iv.identify.s": (secs("iv.identify"), "s"),
        "iv.estimate.s": (secs("iv.estimate"), "s"),
        "simulation.simulate.s": (secs("simulation.simulate"), "s"),
        "simulation.steps": (per_round(steps), "count"),
        "simulation.steps_per_s": (steps / (sim_ns / 1e9) if sim_ns else 0.0, "1/s"),
        "simulation.sample_spec.s": (secs("simulation.sample_spec"), "s"),
    }
    return m
