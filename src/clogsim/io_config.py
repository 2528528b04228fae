"""CSV serialization shared by the subcommands.

CSV files carry a header row, serialize floats with 9 significant digits,
and are written atomically (temp file + rename): re-running an identical
spec reproduces byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import tempfile

import numpy as np

from .dynamics import OUTCOMES, outcome_level

__all__ = ["format_field", "write_csv", "write_sweep_outputs"]


def format_field(value) -> str:
    """CSV field: floats at 9 significant digits, blanks for undefined."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.9g}"
    return str(value)


def _write_rows(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_field(v) for v in row])


def write_csv(path: str | None, header, rows) -> None:
    """Write a CSV atomically (temp file in the target directory + rename),
    or to stdout when ``path`` is None."""
    if path is None:
        _write_rows(sys.stdout, header, rows)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                _write_rows(fh, header, rows)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


RUNS_HEADER = ("scenario", "phi_deg", "degree", "run_index", "mbar_final", "t_final", "outcome")
_RUN_LABELS = (*OUTCOMES, "regen_failure")
_RUN_FIELDS = ["phi_deg", "degree", "run_index", "mbar_final", "t_final", "failed"]
_ROWS_PER_CHUNK = 4096


def _run_rows(records, scenario_kind: str):
    """runs.csv rows, made from one chunk of records at a time."""
    for start in range(0, len(records), _ROWS_PER_CHUNK):
        part = records[start:start + _ROWS_PER_CHUNK]
        labels = np.where(part["failed"], len(OUTCOMES), outcome_level(part["mbar_final"]))
        for (phi, d, i, m, t, failed), k in zip(part[_RUN_FIELDS].tolist(), labels.tolist()):
            yield scenario_kind, phi, d, i, m, None if failed else t, _RUN_LABELS[k]


def write_sweep_outputs(cells, records, scenario_kind: str, out_dir: str):
    """Write cells.csv and runs.csv from the record arrays ``execute_sweep``
    returns; returns their paths.  A run's outcome is the furthest
    threshold its ``mbar_final`` reached, or ``regen_failure``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out_dir}: {e}") from e
    cells_path = os.path.join(out_dir, "cells.csv")
    runs_path = os.path.join(out_dir, "runs.csv")

    write_csv(cells_path, cells.dtype.names, cells.tolist())
    write_csv(runs_path, RUNS_HEADER, _run_rows(records, scenario_kind))
    return cells_path, runs_path
