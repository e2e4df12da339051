"""Smoke test of the benchmark harness: one short traced run per workload, no timings checked."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def test_tracer_wraps_and_restores_every_traced_name():
    # in-process, so a renamed or deleted traced function fails at once
    names = [(module, name) for module, listed in tracing.TRACED.items() for name in listed]
    originals = [getattr(module, name, None) for module, name in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, name) is not original
                   for (module, name), original in zip(names, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is original
               for (module, name), original in zip(names, originals))


def traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {name for name, _ in tracing.PER_LAYER} <= set(metrics)
    return metrics


def test_traced_log_ingest_run():
    metrics = traced_metrics("log-ingest")
    # non-zero only while eventlog.parse_csv is on the traced path
    assert metrics["eventlog.parse_mb_per_s"]["value"] > 0


def test_traced_alpha_choice_run():
    metrics = traced_metrics("alpha-choice")
    # non-zero only while discovery.causal_pairs is on the traced path
    assert metrics["discovery.place_yield"]["value"] > 0


def test_traced_deep_plant_run():
    metrics = traced_metrics("deep-plant")
    # the 90-cylinder line: 7 productive fixpoint rounds over the three
    # specs, as each top-level AG is decided by a search for a violating
    # state, not a backward fixpoint; one labeling call per spec; and the
    # failing AG's witness runs 896 steps down the line
    assert metrics["verify.fixpoint_rounds"]["value"] == 7
    assert metrics["verify.satisfying_states.calls"]["value"] == 3
    assert metrics["verify.counterexample_len"]["value"] == 896


def test_traced_wide_plant_run():
    metrics = traced_metrics("wide-plant")
    # three cylinders and a gripper: 864 markings plus 2,160
    # intermediate announcing states
    assert metrics["transform.fb_states"]["value"] == 3024
    assert metrics["transform.announcing_states"]["value"] == 2160
