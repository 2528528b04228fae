"""Reading, hashing and checking the CSVs that one ``clogsim sweep`` writes.

The golden digest covers ``cells.csv`` byte for byte and the ``runs.csv``
columns below, selected by header name so that columns added later to
``runs.csv`` do not change it.  ``check_outputs`` holds for any seed: every
grid coordinate appears once and in order, and each cell's counts and means
agree with its runs.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

RUNS_COLUMNS = ("scenario", "phi_deg", "degree", "run_index", "mbar_final", "t_final", "outcome")
REGEN_FAILURE = "regen_failure"
# Outcome labels and the final-mean thresholds that define them, as in
# clogsim.dynamics: survival > 1e-4, dominance >= 0.5, completion >= 1 - 1e-4.
_LABEL_RANK = {"extinction": 0, "survival": 1, "dominance": 2, "completion": 3}
_THRESHOLDS = (1e-4, 0.5, 1.0 - 1e-4)
# runs.csv prints 9 significant digits; a mean this close to a threshold may
# round across it.
_ROUNDING = 1e-7


class OutputError(Exception):
    """The sweep's CSVs are missing or lack a required column."""


@dataclass(frozen=True)
class SweepOutputs:
    digest: dict
    cells: list
    runs: list
    rows: int
    bytes: int

    @property
    def regen_failures(self) -> int:
        return sum(r["outcome"] == REGEN_FAILURE for r in self.runs)

    @property
    def cycles(self) -> int:
        return sum(int(r["t_final"]) for r in self.runs if r["outcome"] != REGEN_FAILURE)


def read_outputs(out_dir: str) -> SweepOutputs:
    """Parse and hash ``cells.csv`` and ``runs.csv`` in ``out_dir``."""
    cells_path = os.path.join(out_dir, "cells.csv")
    runs_path = os.path.join(out_dir, "runs.csv")
    try:
        with open(cells_path, "rb") as fh:
            cells_bytes = fh.read()
        with open(runs_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        runs_size = os.path.getsize(runs_path)
    except (OSError, StopIteration) as e:
        raise OutputError(f"cannot read sweep outputs in {out_dir}: {e}") from None
    missing = [c for c in RUNS_COLUMNS if c not in header]
    if missing:
        raise OutputError(f"runs.csv lacks columns {missing}")

    idx = [header.index(c) for c in RUNS_COLUMNS]
    runs = [dict(zip(RUNS_COLUMNS, (row[i] for i in idx))) for row in body]
    runs_hash = hashlib.sha256()
    for r in runs:
        runs_hash.update((",".join(r[c] for c in RUNS_COLUMNS) + "\n").encode())
    cells = list(csv.DictReader(cells_bytes.decode("utf-8").splitlines()))
    return SweepOutputs(
        digest={
            "cells_sha256": hashlib.sha256(cells_bytes).hexdigest(),
            "runs_sha256": runs_hash.hexdigest(),
        },
        cells=cells,
        runs=runs,
        rows=len(cells) + len(runs),
        bytes=len(cells_bytes) + runs_size,
    )


def _label_fits(label: str, mbar: float) -> bool:
    survival, dominance, completion = _THRESHOLDS
    rank = (mbar > survival) + (mbar >= dominance) + (mbar >= completion)
    if rank == _LABEL_RANK[label]:
        return True
    return any(abs(mbar - t) < _ROUNDING for t in _THRESHOLDS)


def _check_run(r: dict, scenario: str, coords: tuple, max_iters: int) -> str | None:
    phi, degree, index = coords
    if (r["scenario"], float(r["phi_deg"]), int(r["degree"]), int(r["run_index"])) != (
        scenario, phi, degree, index
    ):
        return f"expected run ({scenario}, {phi}, {degree}, {index}), got {r}"
    if r["outcome"] == REGEN_FAILURE:
        return None if r["mbar_final"] == r["t_final"] == "" else f"regen failure with values: {r}"
    if r["outcome"] not in _LABEL_RANK:
        return f"unknown outcome: {r}"
    mbar, t_final = float(r["mbar_final"]), int(r["t_final"])
    if not (0.0 <= mbar <= 1.0 and 1 <= t_final <= max_iters and _label_fits(r["outcome"], mbar)):
        return f"inconsistent run: {r}"
    return None


def _check_cell(c: dict, phi: float, degree: int, runs: list, runs_per_cell: int) -> str | None:
    done = [r for r in runs if r["outcome"] != REGEN_FAILURE]
    ranks = [_LABEL_RANK[r["outcome"]] for r in done]
    expected = {
        "phi_deg": phi, "innovator_degree": degree, "runs": len(done),
        "n_survival": sum(k >= 1 for k in ranks), "n_dominance": sum(k >= 2 for k in ranks),
        "n_completion": sum(k >= 3 for k in ranks),
        "n_regen_failures": runs_per_cell - len(done),
    }
    got = {k: float(c[k]) if k == "phi_deg" else int(c[k]) for k in expected}
    if got != expected:
        return f"cell ({phi}, {degree}): counts {got} disagree with its runs {expected}"
    if done:
        for key, col in (("mean_mbar_final", "mbar_final"), ("mean_t_final", "t_final")):
            mean = math.fsum(float(r[col]) for r in done) / len(done)
            if not math.isclose(float(c[key]), mean, rel_tol=1e-8, abs_tol=1e-8):
                return f"cell ({phi}, {degree}): {key}={c[key]} but its runs give {mean!r}"
    return None


def check_outputs(out: SweepOutputs, scenario: str, phi: tuple, degrees: tuple,
                  runs_per_cell: int, max_iters: int) -> list[str]:
    """Problems found in the outputs of the given grid; empty when consistent."""
    cells = [(float(p), int(d)) for p in phi for d in degrees]
    if len(out.cells) != len(cells) or len(out.runs) != len(cells) * runs_per_cell:
        return [f"expected {len(cells)} cells and {len(cells) * runs_per_cell} runs, "
                f"got {len(out.cells)} and {len(out.runs)}"]
    problems = []
    for k, (phi_k, d) in enumerate(cells):
        block = out.runs[k * runs_per_cell:(k + 1) * runs_per_cell]
        for i, r in enumerate(block):
            problems.append(_check_run(r, scenario, (phi_k, d, i), max_iters))
        problems.append(_check_cell(out.cells[k], phi_k, d, block, runs_per_cell))
    return [p for p in problems if p is not None]
