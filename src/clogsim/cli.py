"""Command-line interface: fn, net, run, and sweep subcommands.

Exit codes: 0 success, 1 usage or parameter error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import montecarlo
from .decision import (
    DecisionParams,
    FixedPointContinuum,
    find_fixed_points,
    phi_to_tau,
    tabulate_curve,
)
from .dynamics import simulate_run
from .io_config import (
    RUN_KEYS,
    SWEEP_KEYS,
    ConfigError,
    parse_run_config,
    parse_sweep_config,
    read_config_file,
    write_csv,
    write_sweep_outputs,
)
from .network import bfs_distances, edge_array, generate_pa_network
from .scenarios import KINDS

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clogsim",
        description="Informational-cascade simulator on scale-free networks",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="{fn,net,run,sweep}")

    p_fn = sub.add_parser(
        "fn",
        help="decision-function curve tables and fixed-point reports",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_fn.add_argument("--family", choices=["clog", "logistic"], default="clog")
    p_fn.add_argument("--phi", type=float, required=True, help="inflection angle in degrees")
    p_fn.add_argument("--beta", type=float, default=0.0, help="bias")
    p_fn.add_argument("--points", type=int, default=101, help="curve grid size")
    p_fn.add_argument(
        "--fixed-points", action="store_true",
        help="emit location,stability,derivative instead of the curve",
    )
    p_fn.add_argument("--out", default=None, help="output file (default: stdout)")

    p_net = sub.add_parser(
        "net",
        help="generate one network; write edges.csv and nodes.csv",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_net.add_argument("--n", type=int, default=256)
    p_net.add_argument("--attach", type=int, default=2)
    p_net.add_argument("--seed", type=int, required=True)
    p_net.add_argument("--out-dir", default=".")

    p_run = sub.add_parser(
        "run",
        help="execute one seeded run",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_scenario_flags(p_run)
    p_run.add_argument("--degree", default=None, help="innovator degree")
    p_run.add_argument("--run-index", default=None, help="run index within the cell")
    p_run.add_argument("--out-dir", default=".")
    p_run.add_argument("--dump-trajectory", action="store_true", help="write trajectory.csv (t,mbar)")
    p_run.add_argument("--dump-nodes", action="store_true",
                       help="write nodes.csv (id,degree,beta,distance,m_final)")
    p_run.add_argument("--dump-edges", action="store_true", help="write edges.csv (src,dst)")

    p_sweep = sub.add_parser(
        "sweep",
        help="execute a Monte Carlo grid; write cells.csv and runs.csv",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--degrees", default=None, help="innovator degrees (list or lo:hi[:step])")
    p_sweep.add_argument("--runs", default=None, help="runs per (phi, degree) cell")
    p_sweep.add_argument("--config", default=None, help="key=value file; flags override it")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default and maximum: all cores)")
    p_sweep.add_argument("--out-dir", default=".")
    return parser


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default=None, choices=list(KINDS))
    p.add_argument("--phi", default=None, help="angle in degrees (sweep: list or lo:hi[:step])")
    p.add_argument("--seed", default=None, help="master seed")
    p.add_argument("--n", default=None, help="population size")
    p.add_argument("--attach", default=None, help="links per new node")
    p.add_argument("--alpha", default=None, help="learning rate")
    p.add_argument("--max-iters", default=None, help="cycle cap per run")
    p.add_argument("--regen-limit", default=None, help="network regenerations per run")


def _emit_csv(out, header, rows) -> None:
    if out is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        write_csv(out, header, rows)


def _flag_pairs(args, keys) -> dict:
    """The config pairs of the flags given among ``keys``."""
    return {key: value for key in keys if (value := getattr(args, key)) is not None}


def _cmd_fn(args) -> int:
    # The angle's range depends on the family; check it here to name the flag.
    try:
        phi_to_tau(args.phi, args.family)
    except ValueError as e:
        raise UsageError(f"phi: {e}") from None
    try:
        params = DecisionParams(phi_deg=args.phi, beta=args.beta)
    except ValueError as e:
        raise UsageError(f"beta: {e}") from None
    if args.fixed_points:
        result = find_fixed_points(args.family, params)
        if isinstance(result, FixedPointContinuum):
            rows = [("", "continuum", f"{result.derivative:.9g}")]
        else:
            rows = [
                (f"{fp.location:.9g}", fp.stability, f"{fp.derivative:.9g}")
                for fp in result
            ]
        _emit_csv(args.out, ("location", "stability", "derivative"), rows)
    else:
        if args.points < 2:
            raise UsageError(f"points: must be at least 2, got {args.points}")
        table = tabulate_curve(args.family, params, args.points)
        rows = [(f"{m:.9g}", f"{v:.9g}") for m, v in table]
        _emit_csv(args.out, ("m", "f_m"), rows)
    return 0


def _cmd_net(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed: must be non-negative, got {args.seed}")
    if args.attach < 1:
        raise UsageError(f"attach: must be at least 1, got {args.attach}")
    if args.n <= args.attach:
        raise UsageError(f"n: must exceed attach ({args.attach}), got {args.n}")
    rng = np.random.default_rng(args.seed)
    net = generate_pa_network(args.n, args.attach, rng)
    os.makedirs(args.out_dir, exist_ok=True)
    edges_path = os.path.join(args.out_dir, "edges.csv")
    nodes_path = os.path.join(args.out_dir, "nodes.csv")
    write_csv(edges_path, ("src", "dst"), edge_array(net).tolist())
    write_csv(nodes_path, ("id", "degree"), [(i, int(d)) for i, d in enumerate(net.degrees)])
    print(f"n={net.n} edges={net.edge_count} max_degree={int(net.degrees.max())} "
          f"wrote {edges_path} {nodes_path}")
    return 0


def _cmd_run(args) -> int:
    config, seed, regen_limit, run_index = parse_run_config(_flag_pairs(args, RUN_KEYS))
    degree = config.innovator_degree

    # The sweep's own per-run draws, so any sweep run can be replayed in
    # isolation from its coordinates.
    _, rng, net, innovator, attempts, beta = montecarlo.prepare_run(
        config, seed, run_index, regen_limit
    )
    if net is None:
        raise RuntimeError(
            f"no node of degree {degree} in {regen_limit} generated networks"
        )
    trace: list[float] | None = [] if args.dump_trajectory else None
    outcome, m_final = simulate_run(
        net, innovator, config.phi_deg, beta, rng,
        alpha=config.alpha, max_iters=config.max_iters, mbar_trace=trace,
    )

    print(f"outcome={outcome.outcome_label} mbar_final={outcome.mbar_final:.9g} "
          f"t_final={outcome.t_final} terminated_by={outcome.terminated_by} "
          f"innovator={innovator} degree={degree} networks_tried={attempts}")

    def dump(name, header, rows):
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, name)
        write_csv(path, header, rows)
        print(f"wrote {path}")

    if args.dump_trajectory:
        dump("trajectory.csv", ("t", "mbar"), [(t, float(v)) for t, v in enumerate(trace)])
    if args.dump_nodes:
        dist = bfs_distances(net, innovator)
        dump("nodes.csv", ("id", "degree", "beta", "distance", "m_final"), [
            (i, int(net.degrees[i]), float(beta[i]), int(dist[i]), float(m_final[i]))
            for i in range(net.n)
        ])
    if args.dump_edges:
        dump("edges.csv", ("src", "dst"), edge_array(net).tolist())
    return 0


def _cmd_sweep(args) -> int:
    file_pairs = read_config_file(args.config) if args.config else {}
    spec = parse_sweep_config({**file_pairs, **_flag_pairs(args, SWEEP_KEYS)})
    workers = montecarlo.worker_count(args.workers)
    if args.workers is not None and workers < args.workers:
        print(f"note: --workers {args.workers} exceeds the {workers} cores; using {workers}",
              file=sys.stderr)
    cells, records = montecarlo.execute_sweep(spec, workers=workers)
    cells_path, runs_path = write_sweep_outputs(cells, records, spec.scenario.kind, args.out_dir)

    total = len(records)
    failures = sum(r.failed for r in records)
    print(f"cells={len(cells)} runs={total} regen_failures={failures} "
          f"wrote {cells_path} {runs_path}")
    dead_cells = [c for c in cells if c.runs == 0]
    if dead_cells:
        coords = ", ".join(f"(phi={c.phi_deg:g}, degree={c.innovator_degree})" for c in dead_cells)
        print(f"error: cells with only regeneration failures: {coords}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {"fn": _cmd_fn, "net": _cmd_net, "run": _cmd_run, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (fn, net, run, or sweep)")
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        print("run 'clogsim --help' for usage", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
