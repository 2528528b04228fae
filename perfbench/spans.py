"""Per-layer spans for a serial, in-process ``clogsim sweep``.

Each span wraps a module attribute that clogsim looks up at call time, so
the program is traced without changing it:

    span                  wrapped attribute             looked up by
    cli                   cli.main                      (the benchmark)
    montecarlo.sweep      montecarlo.execute_sweep      cli
    montecarlo.run        montecarlo.execute_run        execute_sweep
    montecarlo.aggregate  montecarlo.aggregate_cells    execute_sweep
    network.grow          montecarlo.generate_pa_network  prepare_run
    network.bfs           network._is_connected         generate_pa_network
                          network.bfs_distances, scenarios.bfs_distances
    network.find          montecarlo.find_node_with_degree  prepare_run
    scenarios.biases      montecarlo.scenario_biases    execute_run
    dynamics.run          montecarlo.run_to_completion  execute_run
    decision.rule         closures made by dynamics.production_rule
    io_config.write       cli.write_sweep_outputs       cli

Spans nest by call.  A span's self time is its duration minus the durations
of the spans it called, so the self times of all spans add up to the root
span exactly.  Spans are aggregated by name in memory.  An attribute that
no longer exists is left alone: its span records no calls, and the metrics
derived from it are missing rather than zero.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

ROOT_SPAN = "cli"
SPAN_TARGETS = (
    ("montecarlo", "execute_sweep", "montecarlo.sweep"),
    ("montecarlo", "execute_run", "montecarlo.run"),
    ("montecarlo", "aggregate_cells", "montecarlo.aggregate"),
    ("montecarlo", "generate_pa_network", "network.grow"),
    ("network", "_is_connected", "network.bfs"),
    ("network", "bfs_distances", "network.bfs"),
    ("scenarios", "bfs_distances", "network.bfs"),
    ("montecarlo", "find_node_with_degree", "network.find"),
    ("montecarlo", "scenario_biases", "scenarios.biases"),
    ("montecarlo", "run_to_completion", "dynamics.run"),
    ("cli", "write_sweep_outputs", "io_config.write"),
)
RULE_FACTORY = ("dynamics", "production_rule")
RULE_SPAN = "decision.rule"
CAPPED = "max_iterations"  # RunOutcome.terminated_by of a run stopped by the cycle cap

# Metrics whose sum is the root span: one self time per span name.
SELF_TIME_METRICS = (
    "cli.self_s", "montecarlo.self_s", "montecarlo.aggregate_s", "network.grow_s",
    "network.bfs_s", "network.find_s", "scenarios.self_s", "dynamics.self_s",
    "decision.rule_s", "io_config.write_s",
)


class Tracer:
    """Call counts, total and self times per span name, plus the run-level
    counts the per-layer metrics need."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.run_ns: list[int] = []
        self.cycles = 0
        self.capped_runs = 0
        self.nodes_found = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        stack, clock = self._stack, time.perf_counter_ns
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - children
                if stack:
                    stack[-1] += duration
            if on_result is not None:
                on_result(result, duration)
            return result

        return traced

    def _on_run(self, record, duration: int) -> None:
        self.run_ns.append(duration)

    def _on_outcome(self, outcome, duration: int) -> None:
        self.cycles += outcome.t_final
        self.capped_runs += outcome.terminated_by == CAPPED

    def _on_find(self, node, duration: int) -> None:
        self.nodes_found += node is not None

    def _rule_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap(RULE_SPAN, factory(*args, **kwargs))
        return traced_factory

    @contextmanager
    def installed(self):
        """Swap the traced attributes in; restore them on exit."""
        hooks = {"montecarlo.run": self._on_run, "dynamics.run": self._on_outcome,
                 "network.find": self._on_find}
        targets = [(m, a, lambda fn, s=s: self.wrap(s, fn, hooks.get(s)))
                   for m, a, s in SPAN_TARGETS]
        targets.append((*RULE_FACTORY, self._rule_factory))
        saved = []
        try:
            for module_name, attr, make in targets:
                try:
                    module = importlib.import_module(f"clogsim.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, make(fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def trace_main(self, argv: list[str]) -> int:
        """Run ``clogsim.cli.main(argv)`` under the root span, traced."""
        from clogsim import cli

        with self.installed():
            return self.wrap(ROOT_SPAN, cli.main)(argv)

    def wall_s(self) -> float:
        return self.total_ns[ROOT_SPAN] / 1e9


def tail_index(n: int) -> int | None:
    """Index, in ascending order, of the highest percentile that leaves at
    least ten samples beyond it; None below eleven samples."""
    return n - 11 if n >= 11 else None


def layer_metrics(tr: Tracer, *, serial_s: float, parallel_s: float, workers: int,
                  rows: int, nbytes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    A metric is left out when the span it derives from recorded no calls.
    ``serial_s`` is the untraced serial wall time of the same grid and
    ``parallel_s`` the untraced wall time with ``workers`` processes.
    """
    def self_s(span):
        return tr.self_ns[span] / 1e9

    def total_s(span):
        return tr.total_ns[span] / 1e9

    calls = tr.calls
    wall = tr.wall_s()
    m = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": ((wall - serial_s) / serial_s, "ratio"),
        "cli.self_s": (self_s(ROOT_SPAN), "s"),
    }
    if calls[RULE_SPAN]:
        n = calls[RULE_SPAN]
        m["decision.rule_calls"] = (n, "count")
        m["decision.rule_s"] = (self_s(RULE_SPAN), "s")
        m["decision.rule_us"] = (self_s(RULE_SPAN) / n * 1e6, "us")
        m["decision.rule_share"] = (self_s(RULE_SPAN) / wall, "ratio")
    if calls["dynamics.run"]:
        m["dynamics.cycles"] = (tr.cycles, "count")
        m["dynamics.capped_runs"] = (tr.capped_runs, "count")
        m["dynamics.self_s"] = (self_s("dynamics.run"), "s")
        if tr.cycles:
            m["dynamics.cycle_us"] = (self_s("dynamics.run") / tr.cycles * 1e6, "us")
    grows = calls["network.grow"]
    if grows:
        m["network.grow_calls"] = (grows, "count")
        m["network.grow_s"] = (self_s("network.grow"), "s")
        m["network.grow_ms"] = (self_s("network.grow") / grows * 1e3, "ms")
    if calls["network.bfs"]:
        m["network.bfs_calls"] = (calls["network.bfs"], "count")
        m["network.bfs_s"] = (self_s("network.bfs"), "s")
        m["network.bfs_us"] = (self_s("network.bfs") / calls["network.bfs"] * 1e6, "us")
    if calls["network.find"]:
        m["network.find_s"] = (self_s("network.find"), "s")
    if calls["scenarios.biases"]:
        m["scenarios.biases_us"] = (total_s("scenarios.biases") / calls["scenarios.biases"] * 1e6, "us")
        m["scenarios.self_s"] = (self_s("scenarios.biases"), "s")
    runs = calls["montecarlo.run"]
    if runs:
        ordered = sorted(tr.run_ns)
        m["montecarlo.runs"] = (runs, "count")
        m["montecarlo.run_p50_ms"] = (statistics.median(ordered) / 1e6, "ms")
        tail = tail_index(runs)
        if tail is not None:
            m["montecarlo.run_tail_ms"] = (ordered[tail] / 1e6, "ms")
        m["montecarlo.self_s"] = (self_s("montecarlo.sweep") + self_s("montecarlo.run"), "s")
        m["montecarlo.pool_efficiency"] = (serial_s / (workers * parallel_s), "ratio")
        if grows:
            m["montecarlo.regen_per_run"] = (grows / runs, "ratio")
            if calls["network.find"]:
                m["montecarlo.prepare_yield"] = (tr.nodes_found / grows, "ratio")
    if calls["montecarlo.aggregate"]:
        m["montecarlo.aggregate_s"] = (self_s("montecarlo.aggregate"), "s")
    if calls["io_config.write"]:
        m["io_config.write_s"] = (self_s("io_config.write"), "s")
        m["io_config.rows"] = (rows, "count")
        m["io_config.bytes"] = (nbytes, "bytes")
    return m


def layer_shares(tr: Tracer) -> dict:
    """Self time per layer (the span name's prefix) as a share of the wall."""
    wall = tr.total_ns[ROOT_SPAN]
    shares: Counter = Counter()
    for span, ns in tr.self_ns.items():
        shares[span.split(".")[0]] += ns / wall
    return dict(shares.most_common())
