"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (invalid model, estimation
failure, ...), 2 on usage errors. Nodes are read and written in the text
form of ``graphs.node_label``: ``name@lag``, where ``name`` is a component
name from the model file's "names" array or a 0-based index, and ``lag`` is
the time offset relative to the anchor (non-positive for the past):
``X@-1``, ``0@0``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import VarmaCausalError, ModelError
from .graphs import SeparationQuery, graph_to_json, node_label, parse_node_ref, to_dot
from .model import (
    component_names,
    full_time_window,
    load_spec,
    marginalized_admg_window,
    validate,
)
from .stationary import CI_DEFAULT_TOL
from .effects import EffectQuery, stable_marginal_separation, total_causal_effect
from .iv import IvQuery, estimate_from_data, identify_population
from .simulation import (
    CoefficientSampler,
    SimulationConfig,
    run_faithfulness_experiment,
    run_gmp_experiment,
    simulate,
)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _load_csv(path: str):
    """CSV series: one row per time step, optional header of component names."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        names = None
        try:
            [float(tok) for tok in first.strip().split(",") if tok != ""]
            skip = 0
        except ValueError:
            names = [tok.strip() for tok in first.strip().split(",")]
            skip = 1
        if (skip or not first.strip()) and not any(line.strip() for line in fh):
            raise ModelError(f"CSV {path} has no data rows")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ModelError(f"malformed CSV {path}: {exc}") from None
    if names is not None:
        names = component_names(names, data.shape[1])
    return data, names


def _cmd_validate(args) -> int:
    spec = load_spec(args.model)
    report = validate(spec)
    for line in report.messages:
        print(f"FAIL: {line}")
    print(f"instantaneous acyclic: {report.instantaneous_acyclic}")
    if report.topological_order is not None:
        print(f"topological order:     {list(report.topological_order)}")
    print(f"spectral radius:       {report.spectral_radius:.12g}")
    print(f"gamma positive:        {report.gamma_positive}")
    print(f"overall:               {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def _parse_window(text: str):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ModelError(f"bad window {text!r}; expected a:b") from None


def _cmd_graph(args) -> int:
    spec = load_spec(args.model)
    lo, hi = _parse_window(args.window)
    if args.marginalize:
        graph = marginalized_admg_window(spec, lo, hi)
    else:
        graph = full_time_window(spec, lo, hi, include_innovations=args.innovations)
    if args.output and args.output.endswith(".json"):
        payload = json.dumps(graph_to_json(graph), indent=2)
    else:
        payload = to_dot(graph, spec.names)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_separate(args) -> int:
    spec = load_spec(args.model)
    query = SeparationQuery(
        [parse_node_ref(r, spec) for r in args.a],
        [parse_node_ref(r, spec) for r in args.b or []],
        [parse_node_ref(r, spec) for r in args.c],
    )
    t_min = None
    if args.window is not None:
        t_min = min(v.time for v in (*query.a, *query.b, *query.c)) - args.window
    result, used, stabilized = stable_marginal_separation(spec, query, t_min=t_min)
    print("separated" if result.separated else "connected")
    if result.witness:
        path = " - ".join(node_label(v, spec.names) for v in result.witness)
        print(f"witness: {path}")
    print(f"window used: [{used[0]}, {used[1]}]  stabilized: {stabilized}")
    return 0


def _cmd_effect(args) -> int:
    spec = load_spec(args.model)
    query = EffectQuery(
        parse_node_ref(args.y, spec),
        [parse_node_ref(r, spec) for r in args.x],
    )
    effect = total_causal_effect(spec, query)
    _print_json({
        "y": node_label(query.y, spec.names),
        "x": [node_label(v, spec.names) for v in query.x_set],
        "beta": effect.beta.tolist(),
    })
    return 0


def _cmd_iv(args) -> int:
    if not args.model and not args.data:
        raise ModelError("iv needs a model (-m) for population mode or --data for estimation")
    spec = load_spec(args.model) if args.model else None
    names = spec.names if spec else None
    data = None
    if args.data:
        data, header = _load_csv(args.data)
        if names is None:
            names = header
    weight = None
    if args.weight:
        with open(args.weight, "r", encoding="utf-8") as fh:
            weight = np.asarray(json.load(fh), dtype=float)
    ref = lambda r: parse_node_ref(r, spec, names)
    query = IvQuery(
        ref(args.y),
        [ref(r) for r in args.x],
        [ref(r) for r in args.i],
        [ref(r) for r in args.b or []],
        weight=weight,
    )
    if data is not None:
        result = estimate_from_data(data, query)
    else:
        result = identify_population(spec, query, check_conditions=not args.no_conditions)
    _print_json(result.to_dict())
    return 0


def _cmd_simulate(args) -> int:
    spec = load_spec(args.model)
    series = simulate(SimulationConfig(spec, n=args.n, seed=args.seed,
                                       burn_in=args.burn_in))
    header = ",".join(spec.names) if spec.names else ",".join(
        f"S{i}" for i in range(spec.d))
    np.savetxt(args.output, series, delimiter=",", header=header, comments="")
    print(f"wrote {series.shape[0]} rows x {series.shape[1]} columns to {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    sampler = CoefficientSampler(d=args.d, p=args.p, q=args.q,
                                 sparsity=args.sparsity)
    runner = run_gmp_experiment if args.kind == "gmp" else run_faithfulness_experiment
    report = runner(sampler, trials=args.trials,
                    queries_per_trial=args.queries_per_trial,
                    window=args.window, tol=args.tol, seed=args.seed,
                    mode=args.mode)
    if args.output:
        report.save_json(args.output)
    if args.csv:
        report.save_csv(args.csv)
    _print_json({"kind": report.kind, "summary": report.summary})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varma-causal",
        description="Causal analysis of VARMA processes with instantaneous effects")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file for validity")
    p.add_argument("-m", "--model", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("graph", help="export a full-time graph window")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--window", required=True,
                   help="time range a:b (use --window=-3:0 for negative starts)")
    p.add_argument("--marginalize", action="store_true",
                   help="marginalized ADMG over the endogenous nodes "
                        "(innovations latent)")
    p.add_argument("--innovations", action="store_true",
                   help="include innovation nodes (full graph only)")
    p.add_argument("-o", "--output", help=".dot or .json target; default stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("separate", help="m-separation query on the marginalized graph")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--a", nargs="+", required=True, metavar="NODE")
    p.add_argument("--b", nargs="*", metavar="NODE")
    p.add_argument("--c", nargs="+", required=True, metavar="NODE")
    p.add_argument("--window", type=int,
                   help="extra lags below the earliest query node to start from")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("effect", help="total causal effect of x nodes on y")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--x", nargs="+", required=True)
    p.set_defaults(func=_cmd_effect)

    p = sub.add_parser("iv", help="IV identification (model) or estimation (data)")
    p.add_argument("-m", "--model")
    p.add_argument("--data", help="CSV series, one row per time step")
    p.add_argument("--y", required=True)
    p.add_argument("--x", nargs="+", required=True)
    p.add_argument("--i", nargs="+", required=True)
    p.add_argument("--b", nargs="*")
    p.add_argument("--weight", help="JSON file with a positive definite matrix")
    p.add_argument("--no-conditions", action="store_true",
                   help="skip the graph-side condition report")
    p.set_defaults(func=_cmd_iv)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="Markov/faithfulness Monte Carlo runs")
    p.add_argument("kind", choices=["gmp", "faithfulness"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--queries-per-trial", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--sparsity", type=float, default=0.65)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--tol", type=float, default=CI_DEFAULT_TOL)
    p.add_argument("--mode", choices=["population", "empirical"],
                   default="population")
    p.add_argument("-o", "--output", help="JSON report path")
    p.add_argument("--csv", help="CSV record path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VarmaCausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
