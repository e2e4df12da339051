"""The four benchmark workloads: input generation, one timed instance, verdict gate.

Each workload is a closed loop with a single caller: the next instance starts
when the previous one has returned its verdicts.  An instance's inputs are made
from ``(seed, index)`` before its timer starts; the timed part hands only
those inputs to plantmine and ends when every verdict and artifact exists; the
gate afterwards compares the verdicts with answers known from how the inputs
were built, never with plantmine's own checker.

Library-path workloads call plantmine through module attributes
(``petri.reachability_graph``), not the names re-exported by the package, so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from plantmine import cli, petri, smv, transform, verify

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SMV = ROOT / "tests" / "golden" / "fixture_closed_loop.smv"


def _test_helpers():
    """Import ``tests/helpers.py`` for its independent CTL oracle, without touching sys.path."""
    spec = importlib.util.spec_from_file_location("plantmine_test_helpers",
                                                  ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class GateError(Exception):
    """A set-up cross-check disagreed with the answer known by construction."""


@dataclass
class Instance:
    """Inputs of one instance plus what the gate needs to judge its verdicts."""

    workdir: Path
    args: dict
    expected: tuple[bool, ...]
    violation: tuple[str, ...] = ()
    fixture_smv: bool = False
    result: object = None


@dataclass(frozen=True)
class Workload:
    make: Callable[[str, object, Path], Instance]
    run: Callable[[Instance], None]
    check: Callable[[Instance], bool]
    gate: Callable[[Path], None] = lambda workdir: None


def _rng(seed: str, name: str, index: object) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _tags(rng: random.Random, count: int) -> list[str]:
    """Distinct two-letter cylinder tags; the seed decides the names and so their sort order."""
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    return rng.sample([a + b for a in letters for b in letters], count)


# ---------------------------------------------------------------------------
# CLI workloads: the verdicts come back in report.txt

def _run_cli(inst: Instance) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        inst.result = cli.main(inst.args["argv"])


def _report_verdicts(inst: Instance) -> list[tuple[bool, list[str]]] | None:
    """(holds, counterexample lines) per spec line of report.txt."""
    report = inst.workdir / "out" / "report.txt"
    if not report.exists():
        return None
    verdicts: list[tuple[bool, list[str]]] = []
    section = None
    for line in report.read_text().splitlines():
        if not line.startswith(" "):
            section = line
            continue
        if section != "specs:":
            continue
        body = line.strip()
        if body.endswith((": HOLDS", ": FAILED")):
            verdicts.append((body.endswith(": HOLDS"), []))
        elif verdicts and line.startswith("    "):
            verdicts[-1][1].append(body)
    return verdicts


def _check_cli(inst: Instance) -> bool:
    """Exit 0 and 1 both carry verdicts; exit 2 or a wrong verdict is a failure."""
    if inst.result not in (0, 1):
        return False
    verdicts = _report_verdicts(inst)
    if verdicts is None or tuple(holds for holds, _ in verdicts) != inst.expected:
        return False
    for holds, path in verdicts:
        # A failing AG spec renders its witness; the last state must carry
        # every sensor label the spec forbids together.
        if not holds and not (path and set(inst.violation) <=
                              set(path[-1].rpartition("labels=")[2].split(","))):
            return False
    if inst.fixture_smv:
        return (inst.workdir / "out" / "closed_loop.smv").read_bytes() == GOLDEN_SMV.read_bytes()
    return True


# -- log-ingest ---------------------------------------------------------------

FIXTURE_CYCLE = ("EXT", "HOME_OFF", "END_ON", "RET", "END_OFF", "HOME_ON")
FIXTURE_BASE_EPOCH = 1620640800  # 2021-05-10T10:00:00Z, the fixture simulator's base time
LOG_TRACES = (2000, 6000)
GOLDEN_RATIO_STEP = 0.6180339887498949


def _stamp(step: int) -> str:
    """The fixture simulator's timestamps: one second per event from its base time."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(FIXTURE_BASE_EPOCH + step))


def fixture_csv(n_traces: int, rng: random.Random, mutated: bool) -> str:
    """A two-cylinder fixture log in the simulator's format: 1 to 3 cycles per trace.

    ``mutated`` drops the falling sensor edges, as the simulator's
    ``drop_sensor_off`` mutation does.
    """
    cycle = tuple(a for a in FIXTURE_CYCLE
                  if not (mutated and a in ("HOME_OFF", "END_OFF")))
    lines = ["processId,timestamp,component,action"]
    step = 0
    for trace in range(1, n_traces + 1):
        for _ in range(rng.randint(1, 3)):
            for action in cycle:
                lines.append(f"{trace},{_stamp(step)},HC,{action}")
                step += 1
    return "\n".join(lines) + "\n"


def make_log_ingest(seed: str, index: object, workdir: Path) -> Instance:
    """A fixture log for ``pipeline --log <csv> --fixture``; clean logs hold, mutated ones fail.

    Trace counts follow a golden-ratio sequence over LOG_TRACES from a seeded
    offset, and every fourth instance is mutated, so any run of consecutive
    instances covers the size range evenly and a run's median does not hinge
    on a few draws.  The set-up warm-up is a clean instance of middle size, so
    set-up also checks the emitted SMV against the golden file.
    """
    rng = _rng(seed, "log-ingest", index)
    if index == "warmup":
        n_traces, mutated = sum(LOG_TRACES) // 2, False
    else:
        base = random.Random(f"{seed}:log-ingest")
        offset, phase = base.random(), base.randrange(4)
        low, high = LOG_TRACES
        n_traces = low + int(((offset + index * GOLDEN_RATIO_STEP) % 1.0) * (high - low))
        mutated = index % 4 == phase
    log_path = workdir / "log.csv"
    log_path.write_text(fixture_csv(n_traces, rng, mutated))
    argv = ["pipeline", "--log", str(log_path), "--fixture", "--out", str(workdir / "out")]
    return Instance(workdir, {"argv": argv}, expected=(not mutated,),
                    fixture_smv=not mutated, violation=("END", "HOME"))


# -- alpha-choice -------------------------------------------------------------

SORTER_ACTIONS = 12  # GO, ten exclusive BINi sensor events, ACK
SORTER_CYCLES = 100
SORTER_SPECS = (("AG !(ITEM & plant_state = Q1)", True),
                ("AG EF ITEM", True),
                ("AG !(ITEM & ctl_state = C1)", False))


def make_alpha_choice(seed: str, index: object, workdir: Path) -> Instance:
    """A sorter: GO, then one of the bins, then ACK, two to five cycles per trace.

    The first cycles visit every bin once, so the alphabet is always complete.
    After GO (plant state Q1) no item is latched; the controller is still in C1
    when a bin event latches the item, so the third spec fails.
    """
    rng = _rng(seed, "alpha-choice", index)
    bins = [f"BIN{i}" for i in range(1, SORTER_ACTIONS - 1)]
    order = rng.sample(bins, len(bins)) + [rng.choice(bins)
                                           for _ in range(SORTER_CYCLES - len(bins))]
    lines = ["processId,timestamp,component,action"]
    step = 0
    trace = 0
    while order:
        trace += 1
        take = rng.randint(2, 5)
        if len(order) - take < 2:
            take = len(order)
        for chosen in order[:take]:
            for action in ("GO", chosen, "ACK"):
                lines.append(f"sorter-{trace},{_stamp(step)},SORTER,{action}")
                step += 1
        del order[:take]
    (workdir / "log.csv").write_text("\n".join(lines) + "\n")
    (workdir / "actions.txt").write_text(
        "GO: control\n" + "".join(f"{b}: sensor ITEM=true\n" for b in bins)
        + "ACK: sensor ITEM=false\n")
    (workdir / "controller.txt").write_text(
        "states: C0 C1\ninitial: C0\n"
        f"inputs: ACK {' '.join(bins)}\noutputs: GO\n"
        "C0 --ACK/GO--> C1\n" + "".join(f"C1 --{b}/--> C0\n" for b in bins))
    argv = ["pipeline", "--log", str(workdir / "log.csv"), "--component", "SORTER",
            "--actionmap", str(workdir / "actions.txt"),
            "--controller", str(workdir / "controller.txt"),
            "--marking", "p.ACK..GO=1", "--out", str(workdir / "out")]
    for text, _ in SORTER_SPECS:
        argv += ["--spec", text]
    return Instance(workdir, {"argv": argv},
                    expected=tuple(h for _, h in SORTER_SPECS),
                    violation=("ITEM",))


# ---------------------------------------------------------------------------
# Library workloads: nets built directly, verdicts returned in memory

def _cylinder(tag: str) -> list[str]:
    """The fixture cylinder's cycle."""
    return [f"EXT_{tag}", f"HOME_{tag}_OFF", f"END_{tag}_ON",
            f"RET_{tag}", f"END_{tag}_OFF", f"HOME_{tag}_ON"]


def _gripper(tag: str) -> list[str]:
    return [f"CLOSE_{tag}", f"GRIP_{tag}_ON", f"OPEN_{tag}", f"GRIP_{tag}_OFF"]


def _sensor(action: str) -> tuple[str, bool] | None:
    """``HOME_AB_ON`` latches HOME_AB true, ``HOME_AB_OFF`` false; other actions are commands."""
    var, _, edge = action.rpartition("_")
    return (var, edge == "ON") if edge in ("ON", "OFF") else None


def _plant(rings: list[list[str]]):
    """A net of independent cycles with one place after every action.

    Returns the net, the places of each ring in action order, and the action map.
    """
    places: list[str] = []
    arcs: list[tuple[str, str]] = []
    ring_places = []
    for r, actions in enumerate(rings):
        own = [f"r{r}.{i}" for i in range(len(actions))]
        for i, action in enumerate(actions):
            arcs += [(action, own[i]), (own[i], actions[(i + 1) % len(actions)])]
        places += own
        ring_places.append(own)
    actions = [a for ring in rings for a in ring]
    sensors = {a: _sensor(a) for a in actions if _sensor(a)}
    amap = transform.ActionMap.of(control=tuple(a for a in actions if a not in sensors),
                                  sensors=sensors)
    net = petri.PetriNet(tuple(places), tuple(actions), tuple(arcs))
    return net, ring_places, amap


def _controller(states: list[str], moves: list) -> verify.ControllerFSM:
    inputs = {event for _, event, _, _ in moves}
    outputs = {out for _, _, out, _ in moves if out}
    return verify.ControllerFSM(states=tuple(states), initial=states[0], inputs=tuple(inputs),
                                outputs=tuple(outputs), transitions=tuple(moves))


def _exclusion(tags: list[str]) -> str:
    return "AG (" + " & ".join(f"!(HOME_{t} & END_{t})" for t in tags) + ")"


def _run_library(inst: Instance) -> None:
    a = inst.args
    graph = petri.reachability_graph(a["net"], a["marking"])
    fb = transform.build_plant_fb(transform.fsm_from_graph(graph), a["amap"],
                                  a["valuation"], name=a["block"])
    formulas = tuple(verify.parse_ctl(text) for text in a["specs"])
    if a["artifacts"]:
        out = inst.workdir / "out"
        out.mkdir()
        (out / "plant.fb").write_text(transform.export_fb(fb))
        (out / "reachability.dot").write_text(petri.export_dot_graph(graph))
        (out / "closed_loop.smv").write_text(
            smv.emit_closed_loop(fb, a["controller"], formulas).text)
    structure = verify.compose(fb, a["controller"])
    inst.result = (structure, [verify.check_ctl(structure, f) for f in formulas])


def _check_library(inst: Instance) -> bool:
    """Verdicts as built; a failing AG's witness is a real path into a violating state."""
    structure, verdicts = inst.result
    if tuple(v.holds for v in verdicts) != inst.expected:
        return False
    for verdict in verdicts:
        if verdict.holds:
            continue
        path = verdict.counterexample
        if not path or path[0].state != structure.initial:
            return False
        for before, after in zip(path, path[1:]):
            if (after.event, after.state) not in structure.successors[before.state]:
                return False
        if not set(inst.violation) <= structure.labels[path[-1].state]:
            return False
    return True


def _oracle_gate(make_small: Callable[[], Instance], what: str) -> None:
    """Cross-check a small instance with the test suite's path-unrolling CTL oracle."""
    ctl_oracle = _test_helpers().ctl_oracle
    inst = make_small()
    inst.args["artifacts"] = False
    _run_library(inst)
    structure, verdicts = inst.result
    for text, verdict, expected in zip(inst.args["specs"], verdicts, inst.expected):
        oracle = structure.initial in ctl_oracle(structure, verify.parse_ctl(text))
        if not oracle == verdict.holds == expected:
            raise GateError(f"{what}: {text!r} expected {expected}, "
                            f"oracle {oracle}, check_ctl {verdict.holds}")


# -- wide-plant ---------------------------------------------------------------

WIDE_CYLINDERS = 3


def make_wide_plant(seed: str, index: object, workdir: Path,
                    cylinders: int = WIDE_CYLINDERS) -> Instance:
    """m fixture cylinders and one gripper side by side, one reactive controller state.

    The controller answers every rising sensor edge with the component's next
    command.  Cylinders start retracting (before HOME_ON) and the gripper
    closing (before GRIP_ON), so no latch is set and each component announces
    its next edge on its own.  Each cylinder alone keeps HOME and END
    exclusive; two cylinders can be home at once, so the pairwise HOME
    exclusion fails.
    """
    rng = _rng(seed, "wide-plant", index)
    tags = _tags(rng, cylinders + 1)
    rings = [_cylinder(tag) for tag in tags[:-1]] + [_gripper(tags[-1])]
    net, ring_places, amap = _plant(rings)
    start = {own[4 if len(own) == 6 else 0]: 1 for own in ring_places}
    moves = [("C0", action, following if _sensor(following) is None else None, "C0")
             for ring in rings for action, following in zip(ring, ring[1:] + ring[:1])
             if _sensor(action)]
    pair = rng.sample(tags[:-1], 2)
    args = {"net": net, "marking": petri.Marking.of(start), "amap": amap,
            "valuation": {var: False for var in amap.sensor_vars},
            "controller": _controller(["C0"], moves), "block": "WIDE",
            "specs": (_exclusion(tags[:-1]), f"AG !(HOME_{pair[0]} & HOME_{pair[1]})"),
            "artifacts": True}
    return Instance(workdir, args, expected=(True, False),
                    violation=(f"HOME_{pair[0]}", f"HOME_{pair[1]}"))


def gate_wide_plant(workdir: Path) -> None:
    _oracle_gate(lambda: make_wide_plant("gate", 0, workdir, cylinders=2),
                 "two cylinders and a gripper")


# -- deep-plant ---------------------------------------------------------------

LINE_CYLINDERS = 90


def make_deep_plant(seed: str, index: object, workdir: Path,
                    cylinders: int = LINE_CYLINDERS) -> Instance:
    """A transfer line: k cylinders on one ring, each extending after its predecessor is home.

    The controller has four states per cylinder.  Every cylinder keeps HOME
    and END exclusive; the first cylinder can always return home; the last
    cylinder does extend, so ``AG !END_last`` fails with a witness that runs
    down the whole line.
    """
    rng = _rng(seed, "deep-plant", index)
    tags = _tags(rng, cylinders)
    net, (ring,), amap = _plant([[a for tag in tags for a in _cylinder(tag)]])
    states: list[str] = []
    moves = []
    for i, tag in enumerate(tags):
        own = [f"C_{tag}_{j}" for j in range(4)]
        states += own
        after = f"C_{tags[(i + 1) % cylinders]}_0"
        moves += [(own[0], f"HOME_{tags[i - 1]}_ON", f"EXT_{tag}", own[1]),
                  (own[1], f"HOME_{tag}_OFF", None, own[2]),
                  (own[2], f"END_{tag}_ON", f"RET_{tag}", own[3]),
                  (own[3], f"END_{tag}_OFF", None, after)]
    args = {"net": net, "marking": petri.Marking.of({ring[-1]: 1}), "amap": amap,
            "valuation": {var: var.startswith("HOME_") for var in amap.sensor_vars},
            "controller": _controller(states, moves), "block": "LINE",
            "specs": (_exclusion(tags), f"AG EF HOME_{tags[0]}", f"AG !END_{tags[-1]}"),
            "artifacts": False}
    return Instance(workdir, args, expected=(True, True, False),
                    violation=(f"END_{tags[-1]}",))


def gate_deep_plant(workdir: Path) -> None:
    _oracle_gate(lambda: make_deep_plant("gate", 0, workdir, cylinders=3),
                 "three-cylinder line")


WORKLOADS = {
    "log-ingest": Workload(make_log_ingest, _run_cli, _check_cli),
    "alpha-choice": Workload(make_alpha_choice, _run_cli, _check_cli),
    "wide-plant": Workload(make_wide_plant, _run_library, _check_library, gate_wide_plant),
    "deep-plant": Workload(make_deep_plant, _run_library, _check_library, gate_deep_plant),
}


def clear(workdir: Path) -> None:
    """Remove one instance's inputs and artifacts."""
    for entry in workdir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
