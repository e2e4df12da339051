"""Command-line front end chaining the pipeline stages.

Subcommands run progressively longer prefixes of the same pipeline:

    simulate -> mine -> reach -> transform -> emit-smv -> verify

with ``pipeline`` running everything.  Each stage persists its artifact under
``--out`` with an atomic write.  A stage subcommand prints, and the final
report lists, every stage run with its elapsed time and the content digests
of its input files.

Exit codes: 0 on success (all specs hold), 1 when verification fails, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Iterable

from . import discovery, eventlog, fixture, petri, smv, transform, verify
from .errors import PlantMineError

DEFAULT_SPEC = "AG !(HOME & END)"

ARTIFACTS = {
    "log": "log.csv",
    "filtered": "filtered.csv",
    "xes": "log.xes",
    "pnml": "net.pnml",
    "dot": "reachability.dot",
    "fb": "plant.fb",
    "smv": "closed_loop.smv",
    "report": "report.txt",
}


class UsageError(PlantMineError):
    pass


# Pieces are joined in groups of this many before encoding: one encode, digest
# update and write per group rather than per CSV line, while a group of XES
# traces stays far smaller than the document.
_PIECES_PER_WRITE = 64


def _atomic_write(path: Path, pieces: Iterable[str], digest=None) -> Path:
    """Write text pieces to ``path`` as UTF-8 through a temporary file.

    Each piece is encoded once, a group at a time, and its bytes go to the
    file and, when given, to ``digest``, so no artifact is held whole in
    memory unless it comes as one piece.  A whole string
    is one piece: ``[text]``, not ``text``.  If a piece cannot be made or
    written, the temporary file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    rest = iter(pieces)
    try:
        with open(tmp, "wb") as handle:
            while group := list(islice(rest, _PIECES_PER_WRITE)):
                data = "".join(group).encode("utf-8")
                if digest is not None:
                    digest.update(data)
                handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


class _Stages:
    """The checkpoint that closes every stage.

    A stage's elapsed time runs from the previous checkpoint, so the stages
    partition the run.  ``done`` returns true when ``name`` is the stage the
    subcommand stops at, after printing the stage lines.  Its inputs went
    through ``read`` or ``write``, which digest each file's bytes once.
    """

    def __init__(self, stop: str | None) -> None:
        self.stop = stop
        self.lines = ["stages:"]
        self.clock = time.perf_counter()
        self.digests: dict[Path, str] = {}

    def read(self, path: Path) -> str:
        """The UTF-8 text of an input file, without a leading byte-order mark."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
        self.digests[path] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8-sig")

    def write(self, path: Path, pieces: Iterable[str]) -> Path:
        """Write an artifact that a later stage takes as input, digesting it on the way."""
        digest = hashlib.sha256()
        _atomic_write(path, pieces, digest)
        self.digests[path] = digest.hexdigest()
        return path

    def done(self, name: str, inputs: list[Path]) -> bool:
        digests = ", ".join(f"{p.name} sha256={self.digests[p]}" for p in inputs) or "-"
        now = time.perf_counter()
        self.lines.append(f"  {name}: inputs: {digests}; elapsed {now - self.clock:.3f}s")
        self.clock = now
        if name != self.stop:
            return False
        print("\n".join(self.lines))
        return True


def _parse_cycles(text: str) -> tuple[int, int]:
    low, sep, high = text.partition("..")
    if not sep:
        raise UsageError(f"--cycles expects MIN..MAX, got {text!r}")
    try:
        return int(low), int(high)
    except ValueError:
        raise UsageError(f"--cycles expects integers, got {text!r}") from None


def _parse_marking(specs: list[str]) -> petri.Marking | None:
    """The explicit initial marking, or ``None`` when ``--marking`` is not given."""
    if not specs:
        return None
    pairs: list[tuple[str, int]] = []
    for chunk in specs:
        for pair in chunk.split(","):
            place, sep, count = pair.partition("=")
            if not sep or not place:
                raise UsageError(f"--marking expects place=count pairs, got {pair!r}")
            try:
                pairs.append((place, int(count)))
            except ValueError:
                raise UsageError(f"--marking count must be an integer: {pair!r}") from None
    marking = petri.Marking(tuple(pairs))
    if not marking.tokens:
        raise UsageError("--marking holds no token")
    return marking


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantmine",
        description="Mine a plant model from an event log and verify it in closed loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log", type=Path, help="input event log (CSV)")
        p.add_argument("--fixture", action="store_true",
                       help="use the simulated two-cylinder fixture as input")
        p.add_argument("--component", default="HC", help="component to keep (default HC)")
        add_sim(p)

    def add_sim(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="simulator seed")
        p.add_argument("--traces", type=int, default=10, help="number of simulated traces")
        p.add_argument("--cycles", default="1..3", help="cycles per trace, MIN..MAX")
        p.add_argument("--mutate", action="append", default=[],
                       choices=sorted(fixture.MUTATIONS), help="apply a log mutation")

    def add_reach(p: argparse.ArgumentParser) -> None:
        p.add_argument("--marking", action="append", default=[],
                       help="initial marking as place=count pairs (comma separated)")
        p.add_argument("--bound", type=int, default=petri.DEFAULT_BOUND,
                       help="state bound for reachability and composition")

    def add_transform(p: argparse.ArgumentParser) -> None:
        p.add_argument("--actionmap", type=Path,
                       help="action map file (defaults to the fixture map with --fixture)")

    def add_verify(p: argparse.ArgumentParser) -> None:
        p.add_argument("--controller", type=Path,
                       help="controller file (defaults to the fixture controller with --fixture)")
        p.add_argument("--spec", action="append", default=[],
                       help=f"CTL property (default: {DEFAULT_SPEC!r})")
        p.add_argument("--strict", action="store_true",
                       help="treat composition diagnostics as verification failure")
        p.add_argument("--nusmv", type=Path,
                       help="optional NuSMV executable; cross-check its verdicts")

    common_out = {"type": Path, "default": Path("out"),
                  "help": "output directory (default ./out)"}

    p = sub.add_parser("simulate", help="generate a fixture event log")
    add_sim(p)
    p.add_argument("--out", **common_out)

    for name, extra in (("mine", []),
                        ("reach", [add_reach]),
                        ("transform", [add_reach, add_transform]),
                        ("emit-smv", [add_reach, add_transform, add_verify]),
                        ("verify", [add_reach, add_transform, add_verify]),
                        ("pipeline", [add_reach, add_transform, add_verify])):
        p = sub.add_parser(name, help=f"run the pipeline through the {name} stage")
        add_source(p)
        for adder in extra:
            adder(p)
        p.add_argument("--out", **common_out)
    return parser


def _check_syntax(args: argparse.Namespace) -> tuple[
        fixture.SimConfig | None, petri.Marking | None, list[verify.Formula]]:
    """The simulator config, explicit marking and CTL formulas, read before ``--out`` is made.

    The config is ``None`` with ``--log``, the marking without ``--marking``.
    Only what needs no model is checked here: a log source, the files each
    stage needs without ``--fixture``, the simulator options, ``--bound``,
    the counts of ``--marking`` and the syntax of ``--spec``.  The stages
    check places and atoms against the model they build.
    """
    config = None
    if getattr(args, "log", None) is None:
        if args.command != "simulate" and not args.fixture:
            raise UsageError("either --log or --fixture is required")
        low, high = _parse_cycles(args.cycles)
        config = fixture.SimConfig(n_traces=args.traces, cycles_min=low, cycles_max=high,
                                   mutations=frozenset(args.mutate))
    if hasattr(args, "actionmap") and not (args.actionmap or args.fixture):
        raise UsageError("--actionmap is required without --fixture")
    if hasattr(args, "controller") and not (args.controller or args.fixture):
        raise UsageError("--controller is required without --fixture")
    if getattr(args, "bound", 1) < 1:
        raise UsageError("bound must be positive")
    explicit = _parse_marking(getattr(args, "marking", []))
    if not hasattr(args, "spec"):
        return config, explicit, []
    return config, explicit, [verify.parse_ctl(text) for text in args.spec or [DEFAULT_SPEC]]


def _execute(args: argparse.Namespace) -> int:
    config, explicit, formulas = _check_syntax(args)
    # verify and pipeline run every stage and print the report instead
    stages = _Stages(None if args.command in ("verify", "pipeline") else args.command)

    def artifact(key: str) -> Path:
        return args.out / ARTIFACTS[key]

    # --- log acquisition ------------------------------------------------
    log_path = getattr(args, "log", None)
    if log_path is not None:
        log = eventlog.parse_csv(stages.read(log_path))
        stages.done("parse", [log_path])
    else:
        log = fixture.simulate_two_cylinder(config, args.seed)

    # --- mine: filter, group, export, discover ---------------------------
    # The component is checked before a simulated log is written.
    if args.command != "simulate":
        filtered = eventlog.filter_component(log, args.component)
        if log and not filtered:
            present = ", ".join(sorted({component for _, _, component, _ in log}))
            raise UsageError(f"--component {args.component!r} matches no event; "
                             f"the log holds events of {present}")
    # Made only now, so an error found while reading the log leaves no --out.
    args.out.mkdir(parents=True, exist_ok=True)
    if log_path is None:
        log_path = stages.write(artifact("log"), eventlog.iter_csv(log))
        if stages.done("simulate", []):
            return 0
    _atomic_write(artifact("filtered"), eventlog.iter_csv(filtered))
    traces = eventlog.group_traces(filtered)
    _atomic_write(artifact("xes"), eventlog.iter_xes(traces))
    net = discovery.alpha_discover(traces)
    pnml_path = stages.write(artifact("pnml"), [petri.export_pnml(net)])
    print(f"mined net: {len(net.places)} places, {len(net.transitions)} transitions, "
          f"{len(net.arcs)} arcs")
    if stages.done("mine", [log_path]):
        return 0

    # --- reach: strip, mark, explore -------------------------------------
    stripped = petri.strip_boundary(net)
    marking = explicit or petri.default_initial_marking(net)
    graph = petri.reachability_graph(stripped, marking, bound=args.bound)
    _atomic_write(artifact("dot"), [petri.export_dot_graph(graph)])
    print(f"reachability: {len(graph.nodes)} markings, {len(graph.edges)} edges "
          f"from {marking}")
    if stages.done("reach", [pnml_path]):
        return 0

    # --- transform --------------------------------------------------------
    if args.actionmap:
        # Custom maps start all latches false; the fixture map carries the
        # cylinder's rest position instead.
        amap = transform.parse_action_map(stages.read(args.actionmap))
        initial_valuation = {var: False for var in amap.sensor_vars}
    else:
        amap = fixture.fixture_action_map()
        initial_valuation = dict(fixture.INITIAL_VALUATION)
    fsm = transform.fsm_from_graph(graph)
    fb = transform.build_plant_fb(fsm, amap, initial_valuation,
                                  name=f"{args.component}_PLANT")
    fb_path = stages.write(artifact("fb"), [transform.export_fb(fb)])
    print(f"plant block: {len(fb.states)} states, {len(fb.transitions)} transitions, "
          f"inputs {list(fb.event_inputs)}, outputs {list(fb.event_outputs)}")
    if stages.done("transform", [pnml_path] + ([args.actionmap] if args.actionmap else [])):
        return 0

    # --- emit-smv ---------------------------------------------------------
    if args.controller:
        controller = verify.parse_controller(stages.read(args.controller))
    else:
        controller = fixture.fixture_controller()
    document = smv.emit_closed_loop(fb, controller, tuple(formulas))
    smv_path = _atomic_write(artifact("smv"), [document.text])
    model_inputs = [fb_path] + ([args.controller] if args.controller else [])
    if stages.done("emit-smv", model_inputs):
        return 0

    # --- verify -----------------------------------------------------------
    structure = verify.compose(fb, controller, bound=args.bound)
    verdicts = [verify.check_ctl(structure, formula) for formula in formulas]
    stages.done("verify", model_inputs)

    nusmv_lines: list[str] = []
    agreement = True
    if args.nusmv:
        agreement, nusmv_lines = _cross_check_nusmv(args.nusmv, smv_path, verdicts)

    failed = [i for i, v in enumerate(verdicts) if not v.holds]
    strict_block = args.strict and structure.diagnostics
    ok = not failed and not strict_block and agreement
    report = _render_report(stages.lines, formulas, verdicts, structure, fb,
                            strict=args.strict, nusmv_lines=nusmv_lines, ok=ok)
    _atomic_write(artifact("report"), [report])
    print(report, end="")
    return 0 if ok else 1


def _render_report(stage_lines: list[str], formulas, verdicts, structure, fb,
                   strict: bool, nusmv_lines: list[str], ok: bool) -> str:
    lines = ["plantmine verification report",
             "=============================",
             *stage_lines]
    lines.append("specs:")
    for formula, verdict in zip(formulas, verdicts):
        status = "HOLDS" if verdict.holds else "FAILED"
        lines.append(f"  {verify.render_ctl(formula)}: {status}")
        if verdict.counterexample:
            lines.append(f"  counterexample ({len(verdict.counterexample)} states):")
            for index, step in enumerate(verdict.counterexample):
                state = step.state
                labels = ",".join(sorted(fb.state(state.plant).valuation)) or "-"
                via = f" [{step.event}]" if step.event else ""
                lines.append(f"    {index}:{via} {state} labels={labels}")
    if structure.diagnostics:
        lines.append(f"diagnostics ({len(structure.diagnostics)}):")
        for diag in structure.diagnostics:
            lines.append(f"  {diag.kind}: {diag.event} at {diag.state}")
        if strict:
            lines.append("strict mode: diagnostics fail the run")
    else:
        lines.append("diagnostics: none")
    lines.extend(nusmv_lines)
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cross_check_nusmv(executable: Path, smv_path: Path,
                       verdicts) -> tuple[bool, list[str]]:
    """Run NuSMV on the emitted document and compare spec verdicts."""
    try:
        result = subprocess.run([str(executable), str(smv_path)],
                                capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise UsageError(f"cannot run NuSMV: {exc}") from None
    external: list[bool] = []
    for line in result.stdout.splitlines():
        line = line.strip()
        if line.startswith("-- specification") and line.endswith("is true"):
            external.append(True)
        elif line.startswith("-- specification") and line.endswith("is false"):
            external.append(False)
    if len(external) != len(verdicts):
        return False, [f"nusmv: expected {len(verdicts)} verdicts, parsed {len(external)}"]
    agreement = all(v.holds == ext for v, ext in zip(verdicts, external))
    lines = [f"nusmv: {'agreement' if agreement else 'MISMATCH'} "
             f"({', '.join('true' if e else 'false' for e in external)})"]
    return agreement, lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _execute(args)
    except (PlantMineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
