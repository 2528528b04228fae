"""Byte-identity gate: a small pinned sweep per scenario, hashed.

The digests were recorded from the outputs of the code before the phi = 90
absorbing-state exit was added.  Any change that claims to leave results
unchanged must keep them; a change that alters the RNG stream or the CSV
format must say so and record new digests.
"""

import hashlib

import pytest

from clogsim.cli import main

SEED = "20260810"

# scenario -> (phi list, degrees, runs per cell, sha256 of cells.csv, of runs.csv)
GOLDEN = {
    "neutral": ("45", "3", "4",
        "2467dbffb4a4a1fb68c12aac832c4877e7093d3a474ff9602c47080090ec58fa",
        "707d53d7ffc0381cd87f43dc140859906d6851ed601da3579484854791356847"),
    "unbiased": ("60,90", "4", "3",
        "faf63596e3f4e4e931761baea6b743d26c1743397cb8c74c50ed18335abe592f",
        "d46f3dbd686663ceba2b893c07443800ed7751d60166cfa025c96f72d3a59b34"),
    "hubs": ("75,90", "6", "3",
        "f211e9af6e06d71b84ab7cedb428ab9cb462d29ba4c10e19f884323908d9431b",
        "300b089f4f3efa9bb01f849153000eccc2d5862169bd140f50f658406321f705"),
    "nearby": ("60,90", "8", "3",
        "b45c73d964b0d5de334f47a946f2cad68a0952e8c1accc79d20d05987b398e17",
        "cfa10ec28ebe714295f51abb89c7772b60af3d0997672fdca38658c9116de6f4"),
    "random": ("90", "4", "3",
        "bfba9856e8f06ac34a0782cd6ed3341994d0020c7db214be237d14e0bc3a0e0d",
        "0d7904d576b02cef2d92fe59a46f8041fbe8e8d58afe0f3851a5a0ec8258cee3"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_pinned_sweep_digests(scenario, tmp_path, capsys):
    phi, degrees, runs, cells_digest, runs_digest = GOLDEN[scenario]
    code = main([
        "sweep", "--scenario", scenario, "--phi", phi, "--degrees", degrees,
        "--runs", runs, "--seed", SEED, "--workers", "1", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert (_sha256(tmp_path / "cells.csv"), _sha256(tmp_path / "runs.csv")) == (
        cells_digest, runs_digest,
    )
