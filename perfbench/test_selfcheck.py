"""Smoke test: the benchmark's self-check runs every workload at small sizes."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_check_passes_every_output_check():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--self-check"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for workload in ("analysis", "simulate-wide", "simulate-deep"):
        for name in ("bottleneck.scan_calls", "directions.rounds", "quantized.simulate_s",
                     "cli.self_s", "cli.bytes_out"):
            assert metrics[f"{workload}/{name}"]["value"] > 0, (workload, name)
