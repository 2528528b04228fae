"""Byte-identity gate: a small pinned sweep per scenario, hashed.

The digests were recorded from the outputs of the code before the phi = 90
absorbing-state exit was added.  Any change that claims to leave results
unchanged must keep them; a change that alters the RNG stream or the CSV
format must say so and record new digests.  The same sweeps, re-run with
numpy's AVX-512 dispatch switched off, must give the same digests.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x names no X86_V4 group, so the AVX-512 test skips
    from numpy.core._multiarray_umath import __cpu_features__

import clogsim
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


def _sweep_argv(scenario, out_dir):
    phi, degrees, runs = GOLDEN[scenario][:3]
    return ["sweep", "--scenario", scenario, "--phi", phi, "--degrees", degrees,
            "--runs", runs, "--seed", SEED, "--workers", "1", "--out-dir", str(out_dir)]


def _assert_digests(scenario, out_dir):
    assert (_sha256(out_dir / "cells.csv"), _sha256(out_dir / "runs.csv")) == GOLDEN[scenario][3:]


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_pinned_sweep_digests(scenario, tmp_path, capsys):
    code = main(_sweep_argv(scenario, tmp_path))
    capsys.readouterr()
    assert code == 0
    _assert_digests(scenario, tmp_path)


# Runs each argv given as JSON through the CLI, then reports whether numpy
# dispatches to its AVX-512 (X86_V4) kernels.
_CHILD = """\
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from clogsim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
print("X86_V4", __cpu_features__["X86_V4"])
"""


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy dispatches no AVX-512 (X86_V4) kernels here: none to disable")
def test_pinned_sweep_digests_without_avx512(tmp_path):
    # numpy's AVX-512 exp and log differ from its AVX2 paths by one ulp on
    # some inputs.  A rule value enters a run only through u < P, with u on
    # a 2**-53 grid, so the digests must not move when that dispatch is off.
    src = os.path.dirname(os.path.dirname(clogsim.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = [_sweep_argv(scenario, tmp_path / scenario) for scenario in sorted(GOLDEN)]
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "X86_V4 False"
    for scenario in sorted(GOLDEN):
        _assert_digests(scenario, tmp_path / scenario)
