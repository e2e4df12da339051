"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import os
import random
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from plantmine.cli import main
from plantmine.discovery import (alpha_discover, fitness, footprint,
                                 maximal_pairs)
from plantmine.eventlog import filter_component, group_traces
from plantmine.fixture import (INITIAL_VALUATION, SimConfig, fixture_action_map,
                               fixture_controller, simulate_two_cylinder)
from plantmine.petri import (Marking, default_initial_marking, reachability_graph,
                             strip_boundary)
from plantmine.smv import emit_closed_loop
from plantmine.transform import build_plant_fb, fsm_from_graph
from plantmine.verify import check_ctl, compose, parse_ctl, satisfying_states

from helpers import (ctl_oracle, ecc_words, footprint_oracle, fsm_words,
                     maximal_pairs_oracle, random_conservative_net,
                     random_controller, random_formula, random_kripke,
                     random_plant_fsm, random_sp_traceset,
                     reachable_markings_oracle)

GOLDEN_SMV = Path(__file__).parent / "golden" / "fixture_closed_loop.smv"


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_safety_property_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    code = main(["pipeline", "--fixture", "--seed", "42", "--traces", "200",
                 "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    ok = (code == 0 and elapsed < 5.0
          and "AG !(HOME & END): HOLDS" in out
          and "AG !(HOME & END): HOLDS" in (tmp_path / "report.txt").read_text())
    with capsys.disabled():
        verdict(1, ok, f"pipeline exit {code}, {elapsed:.2f}s, property HOLDS")


def test_criterion_2_counterexample_capability(tmp_path, capsys):
    code = main(["pipeline", "--fixture", "--seed", "42", "--traces", "200",
                 "--mutate", "drop_sensor_off", "--out", str(tmp_path)])
    report = (tmp_path / "report.txt").read_text()

    # validate the witness against an independently built composition
    log = simulate_two_cylinder(
        SimConfig(n_traces=200, mutations=frozenset({"drop_sensor_off"})), 42)
    traces = group_traces(filter_component(log, "HC"))
    net = alpha_discover(traces)
    graph = reachability_graph(strip_boundary(net), default_initial_marking(net))
    fb = build_plant_fb(fsm_from_graph(graph), fixture_action_map(),
                        INITIAL_VALUATION, name="HC_PLANT")
    k = compose(fb, fixture_controller())
    result = check_ctl(k, parse_ctl("AG !(HOME & END)"))
    path = result.counterexample

    path_ok = (path is not None and len(path) <= 20
               and path[0].state == k.initial
               and {"HOME", "END"} <= k.labels[path[-1].state])
    if path_ok:
        for before, after in zip(path, path[1:]):
            if (after.event, after.state) not in k.successors[before.state]:
                path_ok = False
                break
    ok = (code == 1 and "AG !(HOME & END): FAILED" in report
          and "counterexample" in report and not result.holds and path_ok)
    with capsys.disabled():
        length = len(path) if path else 0
        verdict(2, ok, f"exit {code}, counterexample of {length} states, "
                       f"final state labeled HOME and END")


def test_criterion_3_alpha_correctness_at_desk_scale(capsys):
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        traces = random_sp_traceset(rng)
        fp = footprint(traces)
        _, expected_relations = footprint_oracle(traces)
        for (a, b), rel in expected_relations.items():
            assert fp.relation(a, b).value == rel
        assert set(maximal_pairs(fp)) == maximal_pairs_oracle(traces)
        assert fitness(alpha_discover(traces), traces) == 1.0
        checked += 1
    with capsys.disabled():
        verdict(3, checked == 100,
                f"{checked}/100 series-parallel logs: relations, maximal "
                f"pairs, and fitness 1.0 all match the oracles")


def test_criterion_4_reachability_exactness(diamond_net, capsys):
    graph = reachability_graph(diamond_net, Marking.of({"source": 1}))
    diamond_ok = len(graph.nodes) == 6 and len(graph.edges) == 6

    rng = random.Random(4096)
    matches = 0
    for _ in range(100):
        net, m0 = random_conservative_net(rng)
        graph = reachability_graph(net, m0, bound=5000)
        expected, saturated = reachable_markings_oracle(net, m0)
        assert saturated
        if set(graph.nodes) == expected:
            matches += 1
    with capsys.disabled():
        verdict(4, diamond_ok and matches == 100,
                f"diamond 6 nodes/6 edges; {matches}/100 random nets match "
                f"the enumeration oracle")


def test_criterion_5_ctl_checker_soundness(capsys):
    rng = random.Random(515)
    agreements = 0
    samples = 500
    atoms = ("p", "q", "r")
    from plantmine.verify import AF, AG, AX, Atom, EF, EG, EX, Not
    p = Atom("p")
    for _ in range(samples):
        k = random_kripke(rng)
        formula = random_formula(rng, atoms, depth=3)
        assert satisfying_states(k, formula) == frozenset(ctl_oracle(k, formula))
        assert satisfying_states(k, AG(p)) == satisfying_states(k, Not(EF(Not(p))))
        assert satisfying_states(k, AF(p)) == satisfying_states(k, Not(EG(Not(p))))
        assert satisfying_states(k, AX(p)) == satisfying_states(k, Not(EX(Not(p))))
        agreements += 1
    with capsys.disabled():
        verdict(5, agreements == samples,
                f"{agreements}/{samples} random structures agree with the "
                f"path-unrolling oracle; dualities hold on every sample")


def test_criterion_6_transformation_behavior_preservation(fixture_fsm,
                                                          fixture_fb, capsys):
    depth = 12
    fixture_ok = fsm_words(fixture_fsm, depth) == ecc_words(fixture_fb, depth)

    rng = random.Random(606)
    equal = 0
    for _ in range(50):
        fsm, amap, initial = random_plant_fsm(rng, max_states=10)
        fb = build_plant_fb(fsm, amap, initial)
        if fsm_words(fsm, depth) == ecc_words(fb, depth):
            equal += 1
    with capsys.disabled():
        verdict(6, fixture_ok and equal == 50,
                f"fixture and {equal}/50 random machines keep their "
                f"depth-{depth} trace language through the transformation")


def test_criterion_7_determinism_and_golden_files(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        code = main(["pipeline", "--fixture", "--seed", "42", "--traces",
                     "200", "--out", str(out)])
        assert code == 0
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("log.csv", "filtered.csv", "net.pnml",
                     "reachability.dot", "plant.fb", "closed_loop.smv"))
    golden_ok = (first / "closed_loop.smv").read_bytes() == GOLDEN_SMV.read_bytes()
    with capsys.disabled():
        verdict(7, identical and golden_ok,
                "repeated runs byte-identical; SMV document equals the "
                "checked-in golden file")


def _find_nusmv() -> str | None:
    return os.environ.get("NUSMV") or shutil.which("NuSMV") or shutil.which("nusmv")


def test_criterion_8_optional_nusmv_agreement(tmp_path, capsys):
    executable = _find_nusmv()
    if executable is None:
        with capsys.disabled():
            print("ACCEPTANCE 8: SKIP - no NuSMV executable available")
        pytest.skip("no NuSMV executable available")

    def external_verdicts(document_text: str) -> list[bool]:
        path = tmp_path / "model.smv"
        path.write_text(document_text)
        run = subprocess.run([executable, str(path)], capture_output=True,
                             text=True, timeout=120)
        values = []
        for line in run.stdout.splitlines():
            line = line.strip()
            if line.startswith("-- specification") and line.endswith("is true"):
                values.append(True)
            elif line.startswith("-- specification") and line.endswith("is false"):
                values.append(False)
        return values

    spec = parse_ctl("AG !(HOME & END)")
    log = simulate_two_cylinder(SimConfig(n_traces=50), 42)
    traces = group_traces(filter_component(log, "HC"))
    net = alpha_discover(traces)
    graph = reachability_graph(strip_boundary(net), default_initial_marking(net))
    fb = build_plant_fb(fsm_from_graph(graph), fixture_action_map(),
                        INITIAL_VALUATION, name="HC_PLANT")
    ctl = fixture_controller()
    agreed = external_verdicts(emit_closed_loop(fb, ctl, (spec,)).text) == \
        [check_ctl(compose(fb, ctl), spec).holds]

    rng = random.Random(808)
    matches = 0
    for _ in range(20):
        fsm, amap, initial = random_plant_fsm(rng, max_states=6)
        block = build_plant_fb(fsm, amap, initial)
        controller = random_controller(rng, block)
        formula = parse_ctl("AG !(V0 & V1)")
        document = emit_closed_loop(block, controller, (formula,))
        builtin = check_ctl(compose(block, controller), formula).holds
        if external_verdicts(document.text) == [builtin]:
            matches += 1
    with capsys.disabled():
        verdict(8, agreed and matches == 20,
                f"NuSMV agrees on the fixture and {matches}/20 random pairs")
