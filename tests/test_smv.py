import random
from pathlib import Path

import pytest

from plantmine import (alpha_discover, default_initial_marking, filter_component,
                       fsm_from_graph, group_traces, reachability_graph,
                       simulate_two_cylinder, strip_boundary)
from plantmine.errors import AlphabetMismatch, SmvUnsupported, UnknownAtom
from plantmine.fixture import (INITIAL_VALUATION, SimConfig, fixture_action_map,
                               fixture_controller)
from plantmine.smv import (emit_closed_loop, emit_controller_module,
                           emit_plant_module, render_smv_formula)
from plantmine.transform import FSM, EccState, FunctionBlock, build_plant_fb
from plantmine.verify import (CompositeState, ControllerFSM, check_ctl, compose,
                              parse_ctl, render_ctl)

from helpers import (ctl_oracle, independent_cylinders, random_controller,
                     random_formula, random_plant_fsm, render_smv_formula_reference,
                     transfer_line)
from smv_eval import SmvModel

GOLDEN = Path(__file__).parent / "golden" / "fixture_closed_loop.smv"

SAFETY = parse_ctl("AG !(HOME & END)")


def latchless_loop() -> tuple[FunctionBlock, ControllerFSM]:
    """A two-state block with no latches, reset by a one-state controller."""
    fb = FunctionBlock(name="BELL", event_inputs=("RESET",), event_outputs=("PUSH",),
                       sensor_vars=(),
                       states=(EccState("Q0", None, frozenset()),
                               EccState("Q1", "PUSH", frozenset())),
                       initial_state="Q0",
                       transitions=(("Q0", None, "Q1"), ("Q1", "RESET", "Q0")))
    ctl = ControllerFSM(states=("C0",), initial="C0", inputs=("PUSH",),
                        outputs=("RESET",), transitions=(("C0", "PUSH", "RESET", "C0"),))
    return fb, ctl


class TestPlantModule:
    def test_state_enumeration_line(self, fixture_fb):
        text = emit_plant_module(fixture_fb)
        assert "  state : {Q0, Q1, Q2, Q3, Q4, Q5};" in text
        assert text.startswith("MODULE HC_PLANT(pending)")

    def test_sensor_membership_definitions(self, fixture_fb):
        text = emit_plant_module(fixture_fb)
        assert "  HOME := state in {Q0, Q1};" in text
        assert "  END := state in {Q3, Q4};" in text

    def test_each_state_enumerated_once(self, fixture_fb):
        text = emit_plant_module(fixture_fb)
        enum_line = next(l for l in text.splitlines() if l.startswith("  state :"))
        for state in ("Q0", "Q1", "Q2", "Q3", "Q4", "Q5"):
            assert enum_line.count(f"{state}") == 1

    def test_each_sensor_defined_exactly_once(self, fixture_fb):
        text = emit_plant_module(fixture_fb)
        for var in fixture_fb.sensor_vars:
            assert len([l for l in text.splitlines()
                        if l.startswith(f"  {var} :=")]) == 1

    def test_deterministic(self, fixture_fb):
        assert emit_plant_module(fixture_fb) == emit_plant_module(fixture_fb)

    def test_ndt_choice_includes_stay(self, fixture_fb):
        text = emit_plant_module(fixture_fb)
        assert "pending = none & state = Q1 : {Q1, Q2};" in text

    def test_self_ndt_rejected(self):
        # a sensor self-loop on a state free of control entries hosts its own
        # announcement, which this encoding cannot tell apart from a stutter
        fsm = FSM(states=("Q0",), initial="Q0",
                  edges=(("Q0", "HOME_ON", "Q0"),))
        fb = build_plant_fb(fsm, fixture_action_map(),
                            {"HOME": True, "END": False})
        assert ("Q0", None, "Q0") in fb.transitions
        with pytest.raises(SmvUnsupported):
            emit_plant_module(fb)

    def test_keyword_collision_rejected(self):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "MIRROR", "Q1"),))
        from plantmine.transform import ActionMap
        amap = ActionMap.of(control=("MIRROR",))
        fb = build_plant_fb(fsm, amap, {})
        with pytest.raises(SmvUnsupported):
            emit_plant_module(fb)

    @pytest.mark.parametrize("var", ["next", "state"])
    def test_sensor_keyword_collision_rejected(self, var):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0", edges=(("Q0", "HOME_ON", "Q1"),))
        from plantmine.transform import ActionMap
        fb = build_plant_fb(fsm, ActionMap.of(sensors={"HOME_ON": (var, True)}), {var: False})
        with pytest.raises(SmvUnsupported, match=f"identifier '{var}'"):
            emit_plant_module(fb)

    def test_block_without_latches_defines_nothing(self):
        fb, ctl = latchless_loop()
        plant = emit_plant_module(fb)
        assert "DEFINE" not in plant.splitlines()
        assert plant.endswith("    TRUE : state;\n  esac;\n")
        controller = emit_controller_module(ctl).splitlines()
        assert controller[controller.index("DEFINE") + 1] == "  out := case"

    def test_latch_named_accepts_is_emitted(self):
        # "accepts" is no NuSMV keyword and no emitter name
        fsm = FSM(states=("Q0", "Q1"), initial="Q0", edges=(("Q0", "HOME_ON", "Q1"),))
        from plantmine.transform import ActionMap
        amap = ActionMap.of(sensors={"HOME_ON": ("accepts", True)})
        text = emit_plant_module(build_plant_fb(fsm, amap, {"accepts": False}))
        assert "  accepts := state in {Q1};" in text


class TestControllerModule:
    def test_fixture_controller(self):
        text = emit_controller_module(fixture_controller())
        assert "MODULE CONTROLLER(pending)" in text
        assert "state = C0 & pending = HOME_ON : C1;" in text
        assert "state = C0 & pending = HOME_ON : EXT;" in text


class TestClosedLoop:
    def test_safety_spec_is_last_line(self, fixture_fb):
        document = emit_closed_loop(fixture_fb, fixture_controller(), (SAFETY,))
        last = document.text.rstrip("\n").splitlines()[-1]
        assert last == "CTLSPEC AG !(plant.HOME = TRUE & plant.END = TRUE)"

    def test_no_specs_no_ctlspec_lines(self, fixture_fb):
        document = emit_closed_loop(fixture_fb, fixture_controller(), ())
        assert "CTLSPEC" not in document.text

    def test_block_named_like_controller_module_rejected(self, fixture_fsm):
        fb = build_plant_fb(fixture_fsm, fixture_action_map(), INITIAL_VALUATION,
                            name="CONTROLLER")
        with pytest.raises(SmvUnsupported, match="'CONTROLLER'"):
            emit_closed_loop(fb, fixture_controller(), (SAFETY,))

    def test_module_names_unique_with_single_main(self, fixture_fb):
        document = emit_closed_loop(fixture_fb, fixture_controller(), (SAFETY,))
        headers = [line for line in document.text.splitlines() if line.startswith("MODULE ")]
        assert headers == ["MODULE HC_PLANT(pending)", "MODULE CONTROLLER(pending)",
                           "MODULE main"]

    def test_clean_text(self, fixture_fb):
        document = emit_closed_loop(fixture_fb, fixture_controller(), (SAFETY,))
        assert "\t" not in document.text
        assert "\r" not in document.text
        assert document.text.endswith("\n")

    def test_no_rule_for_a_pending_command(self, fixture_fb):
        # a pending command leaves through TRUE : ctl.out, since the controller
        # never reacts to its own outputs
        for fb, ctl in [(fixture_fb, fixture_controller()), independent_cylinders(2),
                        transfer_line(3)]:
            main = emit_closed_loop(fb, ctl).text.partition("MODULE main\n")[2]
            assert ctl.outputs and set(ctl.outputs) <= set(fb.event_inputs)
            for command in ctl.outputs:
                assert f"pending = {command}" not in main, fb.name
            assert main.endswith("    TRUE : ctl.out;\n  esac;\n")

    def test_matches_golden_file(self, fixture_fb):
        document = emit_closed_loop(fixture_fb, fixture_controller(), (SAFETY,))
        assert document.text == GOLDEN.read_text()

    def test_state_atoms_render(self, fixture_fb):
        formula = parse_ctl("AG (plant_state = Q0 -> ctl_state = C0)")
        text = render_smv_formula(formula, fixture_fb, fixture_controller())
        assert "plant.state = Q0" in text and "ctl.state = C0" in text

    def test_same_direction_claim_rejected(self, fixture_fb):
        from plantmine.verify import ControllerFSM
        bad = ControllerFSM(states=("C0",), initial="C0",
                            inputs=("EXT",), outputs=(), transitions=())
        with pytest.raises(AlphabetMismatch):
            emit_closed_loop(fixture_fb, bad, ())

    def test_random_pairs_emit_valid_structure(self):
        rng = random.Random(83)
        for _ in range(20):
            fsm, amap, initial = random_plant_fsm(rng, max_states=6)
            fb = build_plant_fb(fsm, amap, initial)
            ctl = random_controller(rng, fb)
            document = emit_closed_loop(fb, ctl,
                                        (parse_ctl("AG !(V0 & V1)"),))
            assert document.text.count("MODULE") == 3
            assert document.text == emit_closed_loop(
                fb, ctl, (parse_ctl("AG !(V0 & V1)"),)).text


def _atoms(fb, ctl) -> tuple[str, ...]:
    return (tuple(fb.sensor_vars) + tuple(f"plant_state={s.name}" for s in fb.states)
            + tuple(f"ctl_state={c}" for c in ctl.states))


class TestRenderSmvFormula:
    def test_matches_reference_renderer(self):
        rng = random.Random(61)
        for _ in range(100):
            fsm, amap, initial = random_plant_fsm(rng, max_states=6)
            fb = build_plant_fb(fsm, amap, initial)
            ctl = random_controller(rng, fb)
            for _ in range(20):
                formula = random_formula(rng, _atoms(fb, ctl), depth=rng.randint(1, 5),
                                         constants=0.1)
                assert (render_smv_formula(formula, fb, ctl)
                        == render_smv_formula_reference(formula, fb, ctl))

    @pytest.mark.parametrize("constant", ["TRUE", "FALSE"])
    def test_constants_render(self, fixture_fb, constant):
        formula = parse_ctl(f"AG ({constant} | HOME)")
        assert (render_smv_formula(formula, fixture_fb, fixture_controller())
                == f"AG ({constant} | plant.HOME = TRUE)")

    @pytest.mark.parametrize("atom", ["plant_state = Q99", "ctl_state = C9", "NOPE"])
    def test_unknown_atom(self, fixture_fb, atom):
        with pytest.raises(UnknownAtom):
            render_smv_formula(parse_ctl(f"AG !({atom} & HOME)"),
                               fixture_fb, fixture_controller())


def _composite(state) -> CompositeState:
    values = dict(state)
    pending = values["pending"]
    return CompositeState(values["plant.state"], values["ctl.state"],
                          None if pending == "none" else pending)


def assert_agrees(fb, ctl, formulas):
    """The emitted SMV, read back, is compose()'s structure and has check_ctl's verdicts."""
    model = SmvModel(emit_closed_loop(fb, ctl, formulas).text)
    read_back = model.kripke()
    built = compose(fb, ctl)
    assert _composite(read_back.initial) == built.initial
    assert ({_composite(s): {_composite(t) for _, t in read_back.successors[s]}
             for s in read_back.states}
            == {s: {t for _, t in built.successors[s]} for s in built.states})
    assert len(model.specs) == len(formulas)
    for spec, formula in zip(model.specs, formulas):
        smv_holds = read_back.initial in ctl_oracle(read_back, spec)
        assert smv_holds == check_ctl(built, formula).holds, render_ctl(formula)
    return built


def _random_specs(rng: random.Random, fb, ctl, count: int = 20) -> tuple:
    return tuple(random_formula(rng, _atoms(fb, ctl), depth=rng.randint(1, 3), constants=0.1)
                 for _ in range(count))


class TestOfflineAgreement:
    """An independent reading of closed_loop.smv against the built-in composition."""

    def test_fixture(self, fixture_fb):
        ctl = fixture_controller()
        specs = (SAFETY, parse_ctl("AG EF HOME"), parse_ctl("EF END"),
                 parse_ctl("AG (plant_state = Q3 -> AF ctl_state = C3)"))
        assert_agrees(fixture_fb, ctl,
                      specs + _random_specs(random.Random(5), fixture_fb, ctl))

    def test_mutated_fixture(self):
        log = simulate_two_cylinder(
            SimConfig(n_traces=12, mutations=frozenset({"drop_sensor_off"})), 42)
        net = alpha_discover(group_traces(filter_component(log, "HC")))
        graph = reachability_graph(strip_boundary(net), default_initial_marking(net))
        fb = build_plant_fb(fsm_from_graph(graph), fixture_action_map(),
                            INITIAL_VALUATION, name="HC_PLANT")
        ctl = fixture_controller()
        built = assert_agrees(fb, ctl, (SAFETY,) + _random_specs(random.Random(6), fb, ctl))
        assert not check_ctl(built, SAFETY).holds

    def test_random_plants(self):
        # every draw leaves its initial composite state
        rng = random.Random(67)
        moving = 0
        for _ in range(200):
            fsm, amap, initial = random_plant_fsm(rng)
            fb = build_plant_fb(fsm, amap, initial)
            ctl = random_controller(rng, fb)
            moving += len(assert_agrees(fb, ctl, _random_specs(rng, fb, ctl)).states) > 1
        assert moving == 200

    def test_two_independent_cylinders(self):
        # and the three-cylinder transfer line, whose HOME latches start set,
        # and a block with no latches, whose plant module has no DEFINE
        fb, ctl = independent_cylinders(2)
        specs = (parse_ctl("AG !(HOME_A & END_A)"), parse_ctl("EF END_A"),
                 parse_ctl("AG EF HOME_B"))
        assert_agrees(fb, ctl, specs + _random_specs(random.Random(7), fb, ctl))
        fb, ctl = transfer_line(3)
        specs = (parse_ctl("AG !(HOME_A & END_A)"), parse_ctl("AG !END_C"),
                 parse_ctl("AG EF HOME_A"))
        built = assert_agrees(fb, ctl, specs + _random_specs(random.Random(8), fb, ctl))
        assert not check_ctl(built, specs[1]).holds
        fb, ctl = latchless_loop()
        specs = (parse_ctl("AG EF plant_state = Q1"),
                 parse_ctl("AG (plant_state = Q1 -> AF plant_state = Q0)"))
        built = assert_agrees(fb, ctl, specs + _random_specs(random.Random(9), fb, ctl))
        assert len(built.states) == 3 and all(check_ctl(built, f).holds for f in specs)
