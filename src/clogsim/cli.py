"""Command-line interface: fn, net, run, and sweep subcommands.

Exit codes: 0 success, 1 usage or parameter error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import montecarlo
from .decision import (
    DecisionParams,
    FixedPointContinuum,
    find_fixed_points,
    tabulate_curve,
)
from .dynamics import simulate_run
from .io_config import (
    ConfigError,
    format_field,
    read_config_file,
    write_csv,
    write_sweep_outputs,
)
from .montecarlo import (
    DEFAULT_REGEN_LIMIT,
    DESK_DEGREE_LIST,
    DESK_PHI_LIST,
    DESK_RUNS_PER_CELL,
    SweepSpec,
)
from .network import bfs_distances, edge_array, generate_pa_network
from .scenarios import KINDS, ScenarioConfig

__all__ = ["main", "build_parser"]

# The keys a sweep --config file may set: every sweep flag but --workers,
# --config and --out-dir, by exact name.
SWEEP_KEYS = ("scenario", "phi", "seed", "n", "attach", "alpha", "max_iters", "regen_limit",
              "degrees", "runs")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int:
    """argparse type of a master seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        # mix_seed keeps only the low 64 bits, so a larger seed would alias one below.
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {seed}")
    return seed


def _grid(conv):
    """argparse type of a sweep grid axis: a comma list (``45,60,90``) or
    an inclusive range (``2:20`` / ``2:20:3``) of ``conv`` values.  A range
    value ``lo + k*step`` becomes the value its 9-digit CSV text parses back
    to; a step too fine for the text, or an empty range, is rejected.
    """

    def parse(text: str) -> tuple:
        try:
            if ":" in text:
                parts = text.split(":")
                if len(parts) not in (2, 3):
                    raise ValueError
                lo, hi = conv(parts[0]), conv(parts[1])
                step = conv(parts[2]) if len(parts) == 3 else conv("1")
                if step <= 0 or hi < lo:
                    raise ValueError
                values = []
                while (v := conv(format_field(lo + len(values) * step))) <= hi:
                    if values and v <= values[-1]:
                        raise ValueError
                    values.append(v)
                if not values:
                    raise ValueError
            else:
                values = [conv(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list or lo:hi[:step] range, got {text!r}"
            ) from None
        return tuple(values)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clogsim",
        description="Informational-cascade simulator on scale-free networks",
    )
    sub = parser.add_subparsers(dest="command", metavar="{fn,net,run,sweep}")

    p_fn = sub.add_parser(
        "fn",
        help="decision-function curve tables and fixed-point reports",
    )
    p_fn.add_argument("--family", choices=["clog", "logistic"], default="clog")
    p_fn.add_argument("--phi", type=float, required=True, help="inflection angle in degrees")
    p_fn.add_argument("--beta", type=float, default=0.0, help="bias (default: %(default)s)")
    p_fn.add_argument("--points", type=int, default=101,
                      help="curve grid size (default: %(default)s)")
    p_fn.add_argument(
        "--fixed-points", action="store_true",
        help="emit location,stability,derivative instead of the curve",
    )
    p_fn.add_argument("--out", default=None, help="output file (default: stdout)")

    p_net = sub.add_parser(
        "net",
        help="generate one network; write edges.csv and nodes.csv",
    )
    p_net.add_argument("--n", type=int, default=256)
    p_net.add_argument("--attach", type=int, default=2)
    p_net.add_argument("--seed", type=_seed, required=True)
    p_net.add_argument("--out-dir", default=".")

    p_run = sub.add_parser("run", help="execute one seeded run")
    _add_scenario_flags(p_run)
    p_run.add_argument("--phi", type=float, required=True, help="angle in degrees")
    p_run.add_argument("--degree", type=int, required=True, help="innovator degree")
    p_run.add_argument("--run-index", type=int, default=0,
                       help="run index within the cell (default: %(default)s)")
    p_run.add_argument("--out-dir", default=".")
    p_run.add_argument("--dump-trajectory", action="store_true", help="write trajectory.csv (t,mbar)")
    p_run.add_argument("--dump-nodes", action="store_true",
                       help="write nodes.csv (id,degree,beta,distance,m_final)")
    p_run.add_argument("--dump-edges", action="store_true", help="write edges.csv (src,dst)")

    p_sweep = sub.add_parser(
        "sweep", help="execute a Monte Carlo grid; write cells.csv and runs.csv"
    )
    _add_sweep_flags(p_sweep)
    return parser


def _add_scenario_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--scenario", required=required, choices=KINDS)
    p.add_argument("--seed", type=_seed, required=required, help="master seed")
    p.add_argument("--n", type=int, default=ScenarioConfig.n,
                   help="population size (default: %(default)s)")
    p.add_argument("--attach", type=int, default=ScenarioConfig.attach_count,
                   help="links per new node (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=ScenarioConfig.alpha,
                   help="learning rate (default: %(default)s)")
    p.add_argument("--max-iters", type=int, default=ScenarioConfig.max_iters,
                   help="cycle cap per run (default: %(default)s)")
    p.add_argument("--regen-limit", type=int, default=DEFAULT_REGEN_LIMIT,
                   help="network regenerations per run (default: %(default)s)")


def _add_sweep_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    _add_scenario_flags(p, required)
    p.add_argument("--phi", type=_grid(float), default=DESK_PHI_LIST,
                   help="angles in degrees (list or lo:hi[:step]; default: %(default)s)")
    p.add_argument("--degrees", type=_grid(int), default=DESK_DEGREE_LIST,
                   help="innovator degrees (list or lo:hi[:step]; default: %(default)s)")
    p.add_argument("--runs", type=int, default=DESK_RUNS_PER_CELL,
                   help="runs per (phi, degree) cell (default: %(default)s)")
    p.add_argument("--config", default=None,
                   help="file of key=value lines, read as flags that precede the others")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default and maximum: the cores this process may use)")
    p.add_argument("--out-dir", default=".")


def _with_config_flags(argv: list) -> list:
    """``argv`` with a sweep's --config file lines inserted as flags right
    after ``sweep``, so that the command line's own flags win.

    Each line's value is checked by its flag's own type and choices first,
    so that an error names the file and line it came from.
    """
    if argv[:1] != ["sweep"]:
        return argv
    prescan = _Parser(add_help=False)
    prescan.add_argument("--config")
    path = prescan.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    check = _Parser(add_help=False)
    _add_sweep_flags(check, required=False)
    flags = []
    for lineno, flag in read_config_file(path, SWEEP_KEYS):
        try:
            check.parse_args([flag])
        except ConfigError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
        flags.append(flag)
    return ["sweep", *flags, *argv[1:]]


def _scenario(args, phi_deg: float, degree: int) -> ScenarioConfig:
    return ScenarioConfig(
        kind=args.scenario, phi_deg=phi_deg, alpha=args.alpha, n=args.n,
        attach_count=args.attach, innovator_degree=degree, max_iters=args.max_iters,
    )


def _cmd_fn(args) -> int:
    params = DecisionParams(phi_deg=args.phi, beta=args.beta)
    if args.fixed_points:
        result = find_fixed_points(args.family, params)
        if isinstance(result, FixedPointContinuum):
            rows = [("", "continuum", result.derivative)]
        else:
            rows = [(fp.location, fp.stability, fp.derivative) for fp in result]
        write_csv(args.out, ("location", "stability", "derivative"), rows)
    else:
        table = tabulate_curve(args.family, params, args.points)
        write_csv(args.out, ("m", "f_m"), table.tolist())
    return 0


def _cmd_net(args) -> int:
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
    config = _scenario(args, args.phi, args.degree)
    # The sweep's own per-run draws, so any sweep run can be replayed in
    # isolation from its coordinates.
    _, rng, net, innovator, attempts, beta = montecarlo.prepare_run(
        config, args.seed, args.run_index, args.regen_limit
    )
    if net is None:
        raise RuntimeError(
            f"no node of degree {args.degree} in {args.regen_limit} generated networks"
        )
    trace: list[float] | None = [] if args.dump_trajectory else None
    outcome, m_final = simulate_run(
        net, innovator, config.phi_deg, beta, rng,
        alpha=config.alpha, max_iters=config.max_iters, mbar_trace=trace,
    )

    print(f"outcome={outcome.outcome_label} mbar_final={outcome.mbar_final:.9g} "
          f"t_final={outcome.t_final} terminated_by={outcome.terminated_by} "
          f"innovator={innovator} degree={args.degree} networks_tried={attempts}")

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
    spec = SweepSpec(
        scenario=_scenario(args, args.phi[0], args.degrees[0]),
        phi_list=args.phi,
        degree_list=args.degrees,
        runs_per_cell=args.runs,
        master_seed=args.seed,
        regen_limit=args.regen_limit,
    )
    workers = montecarlo.worker_count(args.workers)
    if args.workers is not None and workers < args.workers:
        print(f"note: --workers {args.workers} exceeds the {workers} cores; using {workers}",
              file=sys.stderr)
    cells, records = montecarlo.execute_sweep(spec, workers=workers)
    cells_path, runs_path = write_sweep_outputs(cells, records, spec.scenario.kind, args.out_dir)

    total = len(records)
    failures = np.count_nonzero(records.failed)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config_flags(argv))
        if args.command is None:
            raise ConfigError("a subcommand is required (fn, net, run, or sweep)")
        return _COMMANDS[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        print("run 'clogsim --help' for usage", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
