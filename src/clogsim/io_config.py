"""Configuration parsing and CSV serialization shared by the subcommands.

Configuration is a flat key=value mapping, either from command-line flags
or from a plain-text file (one pair per line, ``#`` comments); flags
override file values.  This module parses the pairs and names the key at
fault in its errors; ``ScenarioConfig`` and ``SweepSpec`` validate the
values they are built from, and their errors pass on as ``ConfigError``.

CSV files carry a header row, serialize floats with 9 significant digits,
and are written atomically (temp file + rename): re-running an identical
spec reproduces byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import astuple, fields

from .montecarlo import (
    DEFAULT_REGEN_LIMIT,
    DESK_DEGREE_LIST,
    DESK_PHI_LIST,
    DESK_RUNS_PER_CELL,
    CellResult,
    SweepSpec,
)
from .scenarios import ScenarioConfig

__all__ = [
    "ConfigError",
    "read_config_file",
    "SWEEP_KEYS",
    "RUN_KEYS",
    "parse_sweep_config",
    "parse_run_config",
    "format_field",
    "write_csv",
    "write_sweep_outputs",
]


class ConfigError(ValueError):
    """Bad configuration input; the message names the offending key."""


_COMMON_KEYS = ("scenario", "phi", "seed", "n", "attach", "alpha", "max_iters", "regen_limit")
SWEEP_KEYS = _COMMON_KEYS + ("degrees", "runs")
RUN_KEYS = _COMMON_KEYS + ("degree", "run_index")


def read_config_file(path: str) -> dict:
    """key=value pairs from a plain-text file; later lines win."""
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return pairs


def _check_keys(pairs: dict, allowed) -> None:
    for key in pairs:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}; expected one of {sorted(allowed)}")


def _parse_int(pairs: dict, key: str, default=None):
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {pairs[key]!r}") from None


def _parse_float(pairs: dict, key: str, default=None):
    if key not in pairs:
        return default
    try:
        value = float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {pairs[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {pairs[key]!r}")
    return value


def _parse_list(pairs: dict, key: str, conv, default):
    """Comma list (``45,60,90``) or inclusive range (``2:20`` / ``2:20:3``).

    Every value must be the float its 9-digit CSV text parses back to, so
    a printed grid value replays the same seed.  Range values
    ``lo + k*step`` are replaced by that float; a list value that differs
    from it, or a step too fine for the text, is rejected.
    """
    if key not in pairs:
        return default
    text = pairs[key]
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
        else:
            values = [conv(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{key}: expected a comma list or lo:hi[:step] range, got {text!r}"
        ) from None
    for v in values:
        printed = format_field(v)
        if printed and conv(printed) != v:
            raise ConfigError(
                f"{key}: {v!r} prints as {printed} in sweep outputs, which would "
                f"replay a different seed; give at most 9 significant digits"
            )
    return tuple(values)


def _require_seed(pairs: dict) -> int:
    if "seed" not in pairs:
        raise ConfigError("seed: a master seed is required")
    seed = _parse_int(pairs, "seed")
    if not 0 <= seed < 2**64:
        # mix_seed keeps only the low 64 bits, so a larger seed would alias one below.
        raise ConfigError(f"seed: must lie in [0, 2**64), got {seed}")
    return seed


def _scenario_from(pairs: dict, phi_deg: float, degree: int) -> ScenarioConfig:
    if "scenario" not in pairs:
        raise ConfigError("scenario: a scenario kind is required")
    try:
        return ScenarioConfig(
            kind=pairs["scenario"],
            phi_deg=phi_deg,
            alpha=_parse_float(pairs, "alpha", ScenarioConfig.alpha),
            n=_parse_int(pairs, "n", ScenarioConfig.n),
            attach_count=_parse_int(pairs, "attach", ScenarioConfig.attach_count),
            innovator_degree=degree,
            max_iters=_parse_int(pairs, "max_iters", ScenarioConfig.max_iters),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def parse_sweep_config(pairs: dict) -> SweepSpec:
    """Validated SweepSpec from key=value pairs.

    Scenario defaults are those of ScenarioConfig, and the grid defaults
    to the desk-scale phi/degree/runs lists.  ``seed`` and ``scenario``
    have no defaults and are required.
    """
    _check_keys(pairs, SWEEP_KEYS)
    seed = _require_seed(pairs)
    phi_list = _parse_list(pairs, "phi", float, tuple(DESK_PHI_LIST))
    degree_list = _parse_list(pairs, "degrees", int, tuple(DESK_DEGREE_LIST))
    if not phi_list:
        raise ConfigError("phi: list must not be empty")
    if not degree_list:
        raise ConfigError("degrees: list must not be empty")
    scenario = _scenario_from(pairs, phi_deg=float(phi_list[0]), degree=int(degree_list[0]))
    try:
        return SweepSpec(
            scenario=scenario,
            phi_list=tuple(float(p) for p in phi_list),
            degree_list=tuple(int(d) for d in degree_list),
            runs_per_cell=_parse_int(pairs, "runs", DESK_RUNS_PER_CELL),
            master_seed=seed,
            regen_limit=_parse_int(pairs, "regen_limit", DEFAULT_REGEN_LIMIT),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def parse_run_config(pairs: dict):
    """(ScenarioConfig, seed, regen_limit, run_index) for a single run."""
    _check_keys(pairs, RUN_KEYS)
    seed = _require_seed(pairs)
    if "phi" not in pairs:
        raise ConfigError("phi: an angle is required")
    if "degree" not in pairs:
        raise ConfigError("degree: an innovator degree is required")
    config = _scenario_from(
        pairs, phi_deg=_parse_float(pairs, "phi"), degree=_parse_int(pairs, "degree")
    )
    regen_limit = _parse_int(pairs, "regen_limit", DEFAULT_REGEN_LIMIT)
    if regen_limit < 1:
        raise ConfigError(f"regen_limit: must be at least 1, got {regen_limit}")
    run_index = _parse_int(pairs, "run_index", 0)
    if run_index < 0:
        raise ConfigError(f"run_index: must be non-negative, got {run_index}")
    return config, seed, regen_limit, run_index


def format_field(value) -> str:
    """CSV field: floats at 9 significant digits, blanks for undefined."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.9g}"
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Write a CSV atomically: temp file in the target directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([format_field(v) for v in row])
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


CELLS_HEADER = tuple(f.name for f in fields(CellResult))
RUNS_HEADER = ("scenario", "phi_deg", "degree", "run_index", "mbar_final", "t_final", "outcome")


def write_sweep_outputs(cells, records, scenario_kind: str, out_dir: str):
    """Write cells.csv and runs.csv; returns their paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out_dir}: {e}") from e
    cells_path = os.path.join(out_dir, "cells.csv")
    runs_path = os.path.join(out_dir, "runs.csv")

    def run_row(r):
        t_final = None if r.failed else r.t_final
        return (scenario_kind, r.phi_deg, r.degree, r.run_index, r.mbar_final, t_final,
                r.outcome_label)

    write_csv(cells_path, CELLS_HEADER, (astuple(c) for c in cells))
    write_csv(runs_path, RUNS_HEADER, (run_row(r) for r in records))
    return cells_path, runs_path
