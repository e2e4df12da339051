"""plantmine benchmark: generated inputs in, checked verdicts out, timed per instance.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-plant --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25            # every workload, each in its own process

One run of one workload is one process: import plantmine from ``src/``, set
up several times (generate a warm-up instance's inputs, run the set-up
cross-checks, run the warm-up and check its verdicts), then run instances one
after another in a closed loop for ``--seconds``.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.py`` with ``--trace 1``.  Instance inputs and artifacts live in
``.perfbench/`` at the repository root and are removed when the run ends;
a traced run leaves its spans there as ``spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("log-ingest", "alpha-choice", "wide-plant", "deep-plant")
END_TO_END = {"setup_s": "s", "verdict_s_p50": "s", "verdict_s_tail": "s",
              "verdict_cpu_s_p50": "s", "peak_rss_mb": "MB"}
# Where each workload should spend most of its time; the traced run reports
# the measured share next to this prediction.
PREDICTED = {"log-ingest": ("eventlog.share", "cli.share"),
             "alpha-choice": ("discovery.alpha_discover.s",),
             "wide-plant": ("smv.emit_closed_loop.s",),
             "deep-plant": ("verify.check_ctl.s",)}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile.

    That is the eleventh-largest sample (nearest rank).  With fewer than 21
    samples that percentile lies below the median, and the median is reported.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(workload, seed: str, seconds: float, workdir: Path, clear, tracer=None):
    """Closed loop until ``seconds`` have passed; returns (walls, cpus, traced walls, failed).

    With a tracer, every instance runs twice on the same inputs, once traced and
    once not, in alternating order, so the tracing overhead is measured on equal work.
    """
    walls: dict[int, float] = {}
    cpus: list[float] = []
    traced_walls: dict[int, float] = {}
    failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        variants = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
        for traced in variants:
            inst = workload.make(seed, index, workdir)
            gc.collect()
            if traced:
                tracer.begin(index)
                tracer.install()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                workload.run(inst)
                error = None
            except Exception as exc:  # any exception escaping plantmine is a failed instance
                error = exc
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
            ok = error is None and workload.check(inst)
            if traced and "argv" in inst.args:
                tracer.add("cli.bytes_written",
                           sum(f.stat().st_size for f in (workdir / "out").glob("*")))
            clear(workdir)
            if not ok:
                failed += 1
                print(f"instance {index}: failed ({error!r})" if error else
                      f"instance {index}: verdict differs from the known answer",
                      file=sys.stderr)
                continue
            if traced:
                traced_walls[index] = wall1 - wall0
            else:
                walls[index] = wall1 - wall0
                cpus.append(cpu1 - cpu0)
        index += 1
        if time.perf_counter() >= deadline:
            return walls, cpus, traced_walls, failed


def run_one(args, import_s: float, workloads, tracing) -> int:
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.gate(workdir)
            warmup = workload.make(args.seed, "warmup", workdir)
            workload.run(warmup)
            if not workload.check(warmup):
                raise workloads.GateError(
                    "warm-up instance: verdicts or artifacts differ from the known answer")
            workloads.clear(workdir)
            setups.append(time.perf_counter() - started)
        tracer = tracing.Tracer() if args.trace else None
        walls, cpus, traced_walls, failed = measure(workload, args.seed, args.seconds,
                                                    workdir, workloads.clear, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(walls) + len(traced_walls) + failed
    print(f"workload {args.workload} seed {args.seed}: {attempted} instances "
          f"attempted, {failed} failed")
    print(f"  fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted})")
    samples = list(walls.values())
    if not samples:
        metrics = {}
    elif tracer is None:
        tail_value, percentile = tail(samples)
        metrics = {"setup_s": import_s + statistics.median(setups),
                   "verdict_s_p50": statistics.median(samples),
                   "verdict_s_tail": tail_value,
                   "verdict_cpu_s_p50": statistics.median(cpus),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        notes = {"setup_s": f"import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups",
                 "verdict_s_p50": f"n={len(samples)}",
                 "verdict_s_tail": f"p{percentile:.1f}, n={len(samples)}",
                 "verdict_cpu_s_p50": f"n={len(cpus)}",
                 "peak_rss_mb": "ru_maxrss of this process"}
        for name, value in metrics.items():
            print(f"  {name:<18} {value:12.4f} {END_TO_END[name]:<3} ({notes[name]})")
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    else:
        overhead = statistics.median(traced_walls.values()) / statistics.median(samples)
        layer = tracer.per_layer(traced_walls, overhead)
        spans = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans)
        units = dict(tracing.PER_LAYER)
        for name, value in layer.items():
            print(f"  {name:<34} {value:14.6f} {units[name]}")
        share = sum(layer[name] / (statistics.median(traced_walls.values())
                                   if name.endswith(".s") else 1.0)
                    for name in PREDICTED[args.workload])
        print(f"  predicted dominant {' + '.join(PREDICTED[args.workload])}: "
              f"share {share:.3f} of traced instance time, "
              f"{'confirmed' if share > 0.5 else 'NOT confirmed'} "
              f"(n={len(traced_walls)} traced instances; spans in {spans.relative_to(ROOT)})")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    correct = failed == 0 and bool(samples)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is that workload's own."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", args.seed, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if status:
        return status
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plantmine" / "__init__.py").is_file():
        print(f"error: no plantmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Nothing is written next to the sources, and tests/ is only read.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import tracing
    import workloads
    import_s = time.perf_counter() - started
    return run_one(args, import_s, workloads, tracing)


if __name__ == "__main__":
    sys.exit(main())
