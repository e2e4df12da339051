"""Artifact bytes are pinned by sha256 digest.

Refactors must leave every artifact byte-identical.  This test runs the
pipeline on fixed inputs and compares each artifact's sha256 digest with the
ones pinned in ``golden/artifact_sha256.txt`` (``sha256sum`` format, one
``<digest>  <case>/<artifact>`` line each).  A change that alters these bytes
on purpose updates the pinned digests and says why in CHANGES.md; the
failure message lists the digests the code produces now.  The fixture's
SMV is also kept whole as ``golden/fixture_closed_loop.smv``; regenerate it
with ``python -m plantmine.cli emit-smv --fixture --seed 42 --traces 20
--out <dir>`` and copy ``<dir>/closed_loop.smv`` over it.

The cases:

* ``fixture`` and ``fixture-mutated``: ``pipeline --fixture --seed 42
  --traces 20``, clean and with ``--mutate drop_sensor_off``; every artifact
  but the clean run's ``report.txt``.  ``report.txt`` is pinned where a spec
  fails, so its counterexample's ``labels=`` column is covered, with each
  stage line's ``elapsed <n>s`` masked;
* ``sorter``: a CLI run on a small sorter log (GO, one of three exclusive
  ``BINi`` sensor events, ACK) with an action map and a controller; its
  block has announcing states, which the fixture's lacks;
* ``cylinders``: ``export_fb`` and ``emit_closed_loop(...).text`` of
  ``independent_cylinders(3)``, and ``export_dot_graph`` of its three-ring
  net's reachability graph, whose markings hold several tokens each;
* ``line``: ``export_fb`` and ``emit_closed_loop(...).text`` of
  ``transfer_line(3)``, whose HOME latches are set in the initial state.
"""

import hashlib
import re
from pathlib import Path

from plantmine.cli import main
from plantmine.petri import export_dot_graph, reachability_graph
from plantmine.smv import emit_closed_loop
from plantmine.transform import export_fb
from plantmine.verify import parse_ctl

from helpers import cylinder_net, independent_cylinders, transfer_line

PINNED = Path(__file__).parent / "golden" / "artifact_sha256.txt"
CLI_ARTIFACTS = ("log.csv", "filtered.csv", "log.xes", "net.pnml",
                 "reachability.dot", "plant.fb", "closed_loop.smv")
SORTER_ARTIFACTS = ("filtered.csv", "log.xes", "net.pnml", "reachability.dot",
                    "plant.fb", "closed_loop.smv", "report.txt")
BINS = ("BIN1", "BIN2", "BIN3")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sorter_inputs(directory: Path) -> list[str]:
    """Log, action map and controller files of the sorter; returns the CLI arguments."""
    lines = ["processId,timestamp,component,action"]
    step = 0
    for trace, picks in enumerate([(0, 1, 2), (2, 0), (1, 1, 0, 2), (2, 2)], start=1):
        for pick in picks:
            for action in ("GO", BINS[pick], "ACK"):
                lines.append(f"sorter-{trace},2021-05-10T10:{step // 60:02d}:"
                             f"{step % 60:02d}Z,SORTER,{action}")
                step += 1
    (directory / "log.csv").write_text("\n".join(lines) + "\n")
    (directory / "actions.txt").write_text(
        "GO: control\n" + "".join(f"{b}: sensor ITEM=true\n" for b in BINS)
        + "ACK: sensor ITEM=false\n")
    (directory / "controller.txt").write_text(
        "states: C0 C1\ninitial: C0\n"
        f"inputs: ACK {' '.join(BINS)}\noutputs: GO\n"
        "C0 --ACK/GO--> C1\n" + "".join(f"C1 --{b}/--> C0\n" for b in BINS))
    return ["--log", str(directory / "log.csv"), "--component", "SORTER",
            "--actionmap", str(directory / "actions.txt"),
            "--controller", str(directory / "controller.txt"),
            "--marking", "p.ACK..GO=1", "--spec", "AG !(ITEM & plant_state = Q1)",
            "--spec", "AG !(ITEM & ctl_state = C1)"]


def _actual_digests(tmp_path: Path) -> dict[str, str]:
    digests: dict[str, str] = {}
    runs = {"fixture": (["--fixture", "--seed", "42", "--traces", "20"], CLI_ARTIFACTS, 0),
            "fixture-mutated": (["--fixture", "--seed", "42", "--traces", "20",
                                 "--mutate", "drop_sensor_off"],
                                (*CLI_ARTIFACTS, "report.txt"), 1),
            "sorter": (_sorter_inputs(tmp_path), SORTER_ARTIFACTS, 1)}
    for case, (argv, artifacts, expected_code) in runs.items():
        out = tmp_path / case
        assert main(["pipeline", *argv, "--out", str(out)]) == expected_code, case
        for name in artifacts:
            data = (out / name).read_bytes()
            if name == "report.txt":
                data = re.sub(rb"elapsed [0-9.]+s", b"elapsed <n>s", data)
            digests[f"{case}/{name}"] = _digest(data)
    assert "__BIN" in (tmp_path / "sorter" / "plant.fb").read_text()  # announcing states
    fb, controller = independent_cylinders(3)
    document = emit_closed_loop(fb, controller, (parse_ctl("AG !(HOME_A & END_A)"),))
    digests["cylinders/plant.fb"] = _digest(export_fb(fb).encode())
    digests["cylinders/closed_loop.smv"] = _digest(document.text.encode())
    dot = export_dot_graph(reachability_graph(*cylinder_net(3)))
    digests["cylinders/reachability.dot"] = _digest(dot.encode())
    fb, controller = transfer_line(3)
    document = emit_closed_loop(fb, controller, (parse_ctl("AG !(HOME_A & END_A)"),
                                                 parse_ctl("AG !END_C")))
    digests["line/plant.fb"] = _digest(export_fb(fb).encode())
    digests["line/closed_loop.smv"] = _digest(document.text.encode())
    return digests


def test_artifact_digests_match_pins(tmp_path, capsys):
    pinned = {}
    for line in PINNED.read_text().splitlines():
        digest, _, name = line.partition("  ")
        pinned[name] = digest
    actual = _actual_digests(tmp_path)
    capsys.readouterr()
    changed = "\n".join(f"{d}  {n}" for n, d in actual.items() if pinned.get(n) != d)
    assert actual == pinned, f"artifact bytes changed; digests now:\n{changed}"
