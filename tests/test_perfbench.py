"""Smoke test of the benchmark harness: one short traced run, no timings checked."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def test_traced_alpha_choice_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alpha-choice",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {name for name, _ in tracing.PER_LAYER} <= set(metrics)
    # non-zero only while discovery.causal_pairs is on the traced path
    assert metrics["discovery.place_yield"]["value"] > 0
