"""Command-line interface.

Subcommands:

* ``reconcile`` — read a network and base forecasts, write the reconciled
  forecasts plus a diagnostics JSON sidecar.
* ``update add-edge | remove-edge | check-update`` — local changes to an
  existing reconciliation.
* ``benchmark`` — generate random instances and compare methods.

Exit codes: 0 success, 2 validation/input error, 3 solver failure,
4 disconnection during edge removal.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fileio
from .benchmark import DEFAULT_METHODS, GeneratorConfig, run_benchmark
from .dynamic import UpdateLedger, add_edge_update, check_data_update, remove_edge
from .errors import BadParameter, Disconnected, FlowRecError, SolverError, ValidationError
from .network import FlowAggregationMatrix
from .reconcile import LossSpec, reconcile_general
from .series import check_coherence

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_DISCONNECTED = 4


def _parse_loss(text: str, weights, epsilon: float | None) -> LossSpec:
    """The loss that ``--loss``, ``--weights`` and ``--epsilon`` select;
    ``--epsilon`` turns l2 into the relaxed loss."""
    if epsilon is not None:
        if text != "l2":
            raise BadParameter(
                "--epsilon relaxes the l2 reconciliation and cannot be combined "
                f"with --loss {text}"
            )
        return LossSpec("relaxed", weights=weights, epsilon=epsilon)
    if text == "l2":
        return LossSpec("l2", weights=weights)
    if text == "l1":
        return LossSpec("l1", weights=weights)
    if text.startswith("huber:"):
        try:
            delta = float(text[len("huber:") :])
        except ValueError:
            raise BadParameter(f"--loss {text!r}: the huber delta is not a number") from None
        return LossSpec("huber", weights=weights, delta=delta)
    raise BadParameter(f"--loss must be l2, l1 or huber:<delta>, got {text!r}")


def _horizon_diagnostics(vec, res, pre) -> dict:
    """One sidecar entry: a result's stats, every certificate it carries,
    and the coherence of the forecast before (``pre``) and of the answer
    after."""
    stats, post = res.stats, res.coherence
    diag = {
        "method": stats.method,
        "loss_value": res.loss_value,
        "iterations": stats.iterations,
        "wall_time_s": stats.wall_time_s,
        "horizon": vec.horizon,
        "pre_max_node_residual": pre.max_node_residual,
        "pre_max_edge_residual": pre.max_edge_residual,
        "post_max_node_residual": post.max_node_residual,
        "post_max_edge_residual": post.max_edge_residual,
        "coherent": post.coherent,
    }
    for key in ("duality_gap", "max_violation", "gradient_norm"):
        if getattr(stats, key) is not None:
            diag[key] = getattr(stats, key)
    return diag


def _cmd_reconcile(args) -> int:
    net = fileio.read_network(args.network)
    agg = FlowAggregationMatrix.from_network(net)
    vectors = fileio.read_forecast(args.forecast, net)
    weights = fileio.read_weights(args.weights, net) if args.weights else None
    box = fileio.read_box(args.box, net) if args.box else None
    loss = _parse_loss(args.loss, weights, args.epsilon)

    # Every horizon in one call.  Under l2 without a box that is one block
    # CG over the (n, H) panel, so with two or more horizons a horizon is
    # not bitwise its one-horizon answer; every other loss solves the
    # columns one at a time.
    panel = np.column_stack([v.data for v in vectors])
    solved = reconcile_general(panel, agg, loss, box=box)

    pre = check_coherence(panel, agg)  # the input panel's coherence, in one check
    horizon_diags = [_horizon_diagnostics(*entry) for entry in zip(vectors, solved, pre)]
    fileio.write_forecast(args.out, [res.y_tilde for res in solved], net)
    sidecar = args.out + ".diagnostics.json"
    fileio.write_diagnostics(sidecar, {"horizons": horizon_diags})
    print(f"wrote {args.out} and {sidecar}")
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise BadParameter(f"{what}: {text!r} is not a comma-separated integer list") from None


def _cmd_add_edge(args) -> int:
    net = fileio.read_network(args.network)
    y = fileio.read_forecast(args.reconciled, net)[0]
    new_paths = [_parse_int_list(p, "--path") for p in args.path]
    initial = None
    if args.initial_values is not None:
        try:
            initial = [float(x) for x in args.initial_values.split(",")]
        except ValueError:
            raise BadParameter(
                f"--initial-values: {args.initial_values!r} is not a float list"
            ) from None
    res = add_edge_update(
        net, y, (args.tail, args.head), args.forecast_value, new_paths, initial
    )
    fileio.write_network(res.network, args.out_network)
    fileio.write_forecast(args.out, res.y_tilde, res.network)
    plan_path = args.out + ".plan.json"
    fileio.write_diagnostics(
        plan_path,
        {
            "operation": "add-edge",
            "edge": [args.tail, args.head],
            "delta": res.delta,
            "per_path_adjustment": res.per_path_adjustment,
            "affected_paths": list(res.affected_paths),
        },
    )
    print(f"wrote {args.out}, {args.out_network} and {plan_path}")
    return EXIT_OK


def _cmd_remove_edge(args) -> int:
    net = fileio.read_network(args.network)
    y = fileio.read_forecast(args.reconciled, net)[0]
    plan, updated, y_new = remove_edge(net, y, (args.tail, args.head))
    fileio.write_network(updated, args.out_network)
    fileio.write_forecast(args.out, y_new, updated)
    plan_path = args.out + ".plan.json"
    fileio.write_diagnostics(
        plan_path,
        {
            "operation": "remove-edge",
            "removed_edge": plan.removed_edge,
            "affected_paths": list(plan.affected_paths),
            "replacement_routes": {str(q): list(r) for q, r in plan.phi.items()},
            "target_paths": {str(q): j for q, j in plan.target_paths.items()},
            "squared_change": plan.squared_change,
            "bound": plan.bound,
        },
    )
    print(f"wrote {args.out}, {args.out_network} and {plan_path}")
    return EXIT_OK


def _cmd_check_update(args) -> int:
    net = fileio.read_network(args.network)
    y_rec = fileio.read_forecast(args.reconciled, net)[0]
    y_base = fileio.read_forecast(args.forecast, net)[0]
    ledger = UpdateLedger(y_rec.data, y_base.data, index_map=net.index_map)
    idx = fileio.component_index(net, args.kind, args.id)
    verdict = check_data_update(ledger, idx, args.value)
    print(verdict.value)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg = GeneratorConfig(
        nodes=args.nodes,
        instances=args.instances,
        density=args.density,
        sigma=args.sigma,
        max_paths=args.max_paths,
        max_hops=args.max_hops,
        seed=args.seed,
    )
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    report = run_benchmark(cfg, methods, args.out_dir)
    for entry in report.summary:
        print(
            f"{entry['method']}: rmse {entry['rmse_overall_mean']:.6g} "
            f"+- {entry['rmse_overall_sd']:.6g}, "
            f"mae {entry['mae_overall_mean']:.6g} +- {entry['mae_overall_sd']:.6g}"
        )
    print(f"wrote {', '.join(sorted(report.files.values()))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrec",
        description="Coherent forecast reconciliation on flow networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconcile", help="project base forecasts onto the coherent subspace")
    rec.add_argument("--network", required=True, help="network JSON file")
    rec.add_argument("--forecast", required=True, help="base forecast CSV")
    rec.add_argument("--loss", default="l2", help="l2, l1 or huber:<delta> (default l2)")
    rec.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="per-edge violation budget; selects the relaxed loss, l2 with every "
        "edge free to sit up to epsilon off its path sum",
    )
    rec.add_argument("--weights", default=None, help="per-component weights CSV")
    rec.add_argument(
        "--box",
        default=None,
        help="bounds CSV (kind,id,lower,upper); l1 takes bounds on every level, "
        "the smooth losses on path components only",
    )
    rec.add_argument("--out", required=True, help="output forecast CSV")
    rec.set_defaults(func=_cmd_reconcile)

    upd = sub.add_parser("update", help="local changes to an existing reconciliation")
    upd_sub = upd.add_subparsers(dest="update_command", required=True)

    add = upd_sub.add_parser("add-edge", help="open a new edge and route flow onto it")
    add.add_argument("--network", required=True)
    add.add_argument("--reconciled", required=True, help="current reconciled CSV")
    add.add_argument("--tail", required=True)
    add.add_argument("--head", required=True)
    add.add_argument("--forecast-value", type=float, required=True)
    add.add_argument(
        "--path",
        action="append",
        required=True,
        help="comma-separated edge indices of a new path; the new edge has "
        "index = current edge count; repeatable",
    )
    add.add_argument("--initial-values", default=None, help="comma-separated start values")
    add.add_argument("--out", required=True, help="updated reconciled CSV")
    add.add_argument("--out-network", required=True, help="updated network JSON")
    add.set_defaults(func=_cmd_add_edge)

    rem = upd_sub.add_parser("remove-edge", help="delete an edge and reroute its flow")
    rem.add_argument("--network", required=True)
    rem.add_argument("--reconciled", required=True)
    rem.add_argument("--tail", required=True)
    rem.add_argument("--head", required=True)
    rem.add_argument("--out", required=True)
    rem.add_argument("--out-network", required=True)
    rem.set_defaults(func=_cmd_remove_edge)

    chk = upd_sub.add_parser(
        "check-update",
        help="test whether a changed input forecast can keep the reconciliation; "
        "exact for l1, while under l2 a fresh solve can beat the kept vector "
        "by delta^2 * P_xx",
    )
    chk.add_argument("--network", required=True)
    chk.add_argument("--reconciled", required=True)
    chk.add_argument("--forecast", required=True, help="current base forecast CSV")
    chk.add_argument("--kind", required=True, choices=("node", "edge", "path"))
    chk.add_argument("--id", required=True, help="component id (name, tail->head, or Pi)")
    chk.add_argument("--value", type=float, required=True)
    chk.set_defaults(func=_cmd_check_update)

    ben = sub.add_parser("benchmark", help="compare methods on random instances")
    ben.add_argument("--nodes", type=int, default=50)
    ben.add_argument("--instances", type=int, default=100)
    ben.add_argument("--density", type=float, default=None)
    ben.add_argument("--sigma", type=float, default=None)
    ben.add_argument("--max-paths", type=int, default=None)
    ben.add_argument("--max-hops", type=int, default=8)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument(
        "--methods",
        default=",".join(DEFAULT_METHODS),
        help="comma-separated method names (default base,bu,l2)",
    )
    ben.add_argument("--out-dir", required=True)
    ben.set_defaults(func=_cmd_benchmark)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Disconnected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FlowRecError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
