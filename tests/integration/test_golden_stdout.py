"""Seeded serve and chaos commands print the same stdout, byte for byte.

Each fixture under ``golden_stdout/`` is the stdout of one seeded CLI
command, rendered before the host began computing live rows only and
the fleet router began polling only workers with a flush due.  Neither
change may move what the model reports, so the output must not move.
Each command runs in a fresh interpreter (plan-cache instance labels and
the process registry are per process); the exit code is compared too.
``degrade_hedge_soak`` was rendered later, before the service's trace
events and plan compiles each went through one helper; it must not move
either.  Render a fixture with ``PYTHONPATH=src python -m repro <args> > <name>.txt``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden_stdout"

# name -> (CLI arguments, exit code)
COMMANDS = {
    "serve_demo": (["serve-demo", "--requests", "1000", "--seed", "7"], 0),
    "chaos_soak": (["chaos-soak", "--seed", "7"], 0),
    "degrade_hedge_soak": (
        ["chaos-soak", "--seed", "11", "--shed-policy", "degrade", "--hedge-queue", "0.0005"],
        0,
    ),
    "fleet_soak": (["chaos-soak", "--fleet", "--seed", "7"], 0),
    "sdc_soak_seed7": (
        ["chaos-soak", "--fleet", "--sdc", "--seed", "7", "--requests", "600"], 0
    ),
    "sdc_soak_seed11": (
        ["chaos-soak", "--fleet", "--sdc", "--seed", "11", "--requests", "600"], 0
    ),
    "slo_soak": (["chaos-soak", "--fleet", "--slo", "--seed", "0"], 0),
    "fleet_soak_slow_restarts": (
        ["chaos-soak", "--fleet", "--seed", "11", "--crashes", "1", "--slow-restarts", "1"],
        0,
    ),
}


def test_every_fixture_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    args, code = COMMANDS[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
