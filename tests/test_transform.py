import random

import pytest

from plantmine.errors import InconsistentLabeling, ParseError, UnmappedAction
from plantmine.fixture import INITIAL_VALUATION, fixture_action_map
from plantmine.transform import (FSM, ActionMap, EccState, FunctionBlock, build_plant_fb,
                                 classify_alphabet, export_fb, export_fb_dot,
                                 fsm_from_graph,
                                 parse_action_map, parse_fb)

from helpers import (build_plant_fb_reference, ecc_words, fsm_words, independent_cylinders,
                     random_plant_fsm)


class TestActionMap:
    def test_parse_round_trip(self):
        text = ("EXT: control\n"
                "HOME_ON: sensor HOME=true\n"
                "HOME_OFF: sensor HOME=false\n")
        amap = parse_action_map(text)
        assert amap.entries == (("EXT", None), ("HOME_OFF", ("HOME", False)),
                                ("HOME_ON", ("HOME", True)))
        assert amap.effect("EXT") is None
        assert amap.effect("HOME_ON") == ("HOME", True)

    def test_of_equals_parsed_fixture_map(self):
        text = ("EXT: control\nRET: control\n"
                "HOME_ON: sensor HOME=true\nHOME_OFF: sensor HOME=false\n"
                "END_ON: sensor END=true\nEND_OFF: sensor END=false\n")
        assert fixture_action_map() == parse_action_map(text)
        assert fixture_action_map().sensor_vars == ("END", "HOME")

    def test_comments_and_blanks_skipped(self):
        amap = parse_action_map("# commands\n\nEXT: control\n")
        assert amap.actions == ("EXT",)

    def test_bad_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_action_map("EXT: control\nRET control\n")
        assert exc.value.position == 2

    def test_duplicate_action_rejected(self):
        with pytest.raises(ParseError):
            parse_action_map("EXT: control\nEXT: sensor X=true\n")

    @pytest.mark.parametrize("effects", [(None, ("X", True)), (("X", True), None),
                                         (("X", True), ("X", False))])
    def test_action_with_two_effects_rejected(self, effects):
        with pytest.raises(ValueError, match="classified twice"):
            ActionMap(tuple(("EXT", effect) for effect in effects))
        lines = ["control" if e is None else f"sensor X={str(e[1]).lower()}" for e in effects]
        with pytest.raises(ParseError, match="classified twice"):
            parse_action_map("".join(f"EXT: {line}\n" for line in lines))

    def test_invalid_latch_name_rejected(self):
        with pytest.raises(ValueError, match="invalid latch 'HO-ME'"):
            ActionMap.of(sensors={"HOME_ON": ("HO-ME", True)})

    def test_unmapped_action_raises(self):
        amap = fixture_action_map()
        with pytest.raises(UnmappedAction):
            amap.effect("FOO")


class TestFsmFromGraph:
    def test_diamond_renaming(self, diamond_net):
        from plantmine.petri import Marking, reachability_graph
        graph = reachability_graph(diamond_net, Marking.of({"source": 1}))
        fsm = fsm_from_graph(graph)
        assert fsm.states == ("Q0", "Q1", "Q2", "Q3", "Q4", "Q5")
        assert fsm.initial == "Q0"
        assert len(fsm.edges) == 6
        assert fsm_from_graph(graph) == fsm

    def test_single_node_graph(self, diamond_net):
        from plantmine.petri import Marking, reachability_graph
        graph = reachability_graph(diamond_net, Marking.of({}))
        fsm = fsm_from_graph(graph)
        assert fsm.states == ("Q0",)
        assert fsm.edges == ()


class TestClassifyAlphabet:
    def test_fixture_partition(self, fixture_fsm):
        control, sensor = classify_alphabet(fixture_fsm, fixture_action_map())
        assert control == {"EXT", "RET"}
        assert sensor == {"HOME_ON", "HOME_OFF", "END_ON", "END_OFF"}

    def test_unmapped_symbol(self):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "FOO", "Q1"),))
        with pytest.raises(UnmappedAction):
            classify_alphabet(fsm, fixture_action_map())

    def test_empty_alphabet(self):
        fsm = FSM(states=("Q0",), initial="Q0", edges=())
        assert classify_alphabet(fsm, fixture_action_map()) == (frozenset(), frozenset())


class TestBuildPlantFb:
    def test_chain_example(self):
        fsm = FSM(states=("Q0", "Q1", "Q2"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"), ("Q1", "END_ON", "Q2")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        assert fb.event_inputs == ("EXT",)
        assert fb.event_outputs == ("END_ON",)
        assert ("Q0", "EXT", "Q1") in fb.transitions
        assert ("Q1", None, "Q2") in fb.transitions
        assert fb.emission("Q2") == "END_ON"
        assert fb.state("Q2").valuation == {"HOME", "END"}

    def test_equal_valuations_are_one_object(self):
        # build_plant_fb shares equal valuations, so each is hashed once
        fb, _ = independent_cylinders(3)
        valuations = [state.valuation for state in fb.states]
        assert len({id(v) for v in valuations}) == len(set(valuations))

    def test_conflicting_emissions_insert_intermediates(self):
        # two different sensor events entering the same target: both route
        # through fresh announcing states and the target itself stays silent
        fsm = FSM(states=("Q0", "Q2", "Q4"), initial="Q0",
                  edges=(("Q0", "END_ON", "Q2"), ("Q2", "RET", "Q4"),
                         ("Q4", "HOME_ON", "Q2")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        emitting = [s for s in fb.states if s.emission]
        assert {s.emission for s in emitting} == {"END_ON", "HOME_ON"}
        assert fb.emission("Q2") is None
        assert len(fb.states) == 5

    def test_control_target_never_emits(self):
        # HOME_ON is a no-op at the rest position, so both entries of Q1 agree
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"), ("Q0", "HOME_ON", "Q1")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        assert fb.emission("Q1") is None
        mids = [s.name for s in fb.states if s.name not in ("Q0", "Q1")]
        assert len(mids) == 1
        assert fb.emission(mids[0]) == "HOME_ON"

    def test_no_sensor_edges(self):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"), ("Q1", "RET", "Q0")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        assert fb.event_outputs == ()
        assert all(guard is not None for _, guard, _ in fb.transitions)

    def test_fixture_block_shape(self, fixture_fb):
        assert fixture_fb.event_inputs == ("EXT", "RET")
        assert fixture_fb.event_outputs == ("END_OFF", "END_ON", "HOME_OFF",
                                            "HOME_ON")
        assert fixture_fb.initial_state == "Q0"
        assert fixture_fb.emission("Q0") == "HOME_ON"
        ndt_count = sum(1 for _, g, _ in fixture_fb.transitions if g is None)
        assert ndt_count == 4

    def test_no_sensor_guards_remain(self, fixture_fb):
        sensor = set(fixture_fb.event_outputs)
        for _, guard, _ in fixture_fb.transitions:
            assert guard not in sensor

    def test_valuation_conflict_detected(self):
        # Q2 reachable with END latched both ways
        fsm = FSM(states=("Q0", "Q1", "Q2"), initial="Q0",
                  edges=(("Q0", "END_ON", "Q1"), ("Q1", "EXT", "Q2"),
                         ("Q0", "RET", "Q2")))
        with pytest.raises(InconsistentLabeling) as exc:
            build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        assert exc.value.state == "Q2"

    def test_initial_valuation_is_pinned(self):
        # the loop re-enters Q0 with END still latched; the rest position wins
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "END_ON", "Q1"), ("Q1", "HOME_ON", "Q0")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        assert fb.state("Q0").valuation == {"HOME"}

    def test_missing_sensor_variable_rejected(self):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "END_ON", "Q1"),))
        with pytest.raises(ValueError):
            build_plant_fb(fsm, fixture_action_map(), {"HOME": True})

    def test_injected_conflicts_raise(self):
        rng = random.Random(31)
        raised = 0
        for _ in range(60):
            fsm, amap, initial = random_plant_fsm(rng, max_states=6)
            if len(fsm.edges) < 3:
                continue
            # relabel one sensor edge with the opposite effect to force a clash
            edges = list(fsm.edges)
            for index, (src, label, dst) in enumerate(edges):
                if label.endswith("_ON"):
                    edges[index] = (src, label[:-3] + "_OFF", dst)
                    break
                if label.endswith("_OFF"):
                    edges[index] = (src, label[:-4] + "_ON", dst)
                    break
            else:
                continue
            mutated = FSM(states=fsm.states, initial=fsm.initial,
                          edges=tuple(edges))
            try:
                fb = build_plant_fb(mutated, amap, initial)
            except InconsistentLabeling:
                raised += 1
                continue
            # no conflict only if the flipped edge's target became a fresh
            # intermediate or the target is the pinned initial state
            assert fb is not None
        assert raised > 0


def _flip_sensor_edge(rng, fsm):
    """The FSM with one random sensor edge given the opposite effect."""
    sensor = [i for i, (_, label, _) in enumerate(fsm.edges)
              if label.endswith(("_ON", "_OFF"))]
    edges = list(fsm.edges)
    index = rng.choice(sensor)
    src, label, dst = edges[index]
    stem, _, polarity = label.rpartition("_")
    edges[index] = (src, f"{stem}_{'OFF' if polarity == 'ON' else 'ON'}", dst)
    return FSM(states=fsm.states, initial=fsm.initial, edges=tuple(edges))


def _add_unreachable(rng, fsm, amap):
    """The FSM plus 1-3 states that nothing reachable enters, with random edges out."""
    extra = tuple(f"U{i}" for i in range(rng.randint(1, 3)))
    states = fsm.states + extra
    edges = list(fsm.edges)
    for source in extra:
        for _ in range(rng.randint(1, 3)):
            edges.append((source, rng.choice(amap.actions), rng.choice(states)))
    return FSM(states=states, initial=fsm.initial, edges=tuple(edges))


class TestReferencePropagation:
    def test_matches_dict_propagation(self):
        # the set propagation against the dict-based one:
        # equal blocks and plantfb bytes, or the same InconsistentLabeling
        rng = random.Random(71)
        outcomes = {"plain": [0, 0], "flipped": [0, 0], "unreachable": [0, 0]}
        for _ in range(120):
            fsm, amap, initial = random_plant_fsm(rng)
            # a latch that no sensor writes, sorting before or after V0, V1
            extra = {rng.choice(("A", "Z")): rng.random() < 0.5}
            for kind, variant, valuation in (
                    ("plain", fsm, initial),
                    ("flipped", _flip_sensor_edge(rng, fsm), initial),
                    ("unreachable", _add_unreachable(rng, fsm, amap),
                     {**initial, **extra})):
                try:
                    expected = build_plant_fb_reference(variant, amap, valuation)
                except InconsistentLabeling as reference_error:
                    with pytest.raises(InconsistentLabeling) as error:
                        build_plant_fb(variant, amap, valuation)
                    assert error.value.state == reference_error.state
                    outcomes[kind][1] += 1
                    continue
                fb = build_plant_fb(variant, amap, valuation)
                assert fb == expected
                assert export_fb(fb) == export_fb(expected)
                outcomes[kind][0] += 1
        assert outcomes["plain"] == [120, 0]
        assert min(outcomes["flipped"]) > 0
        assert outcomes["unreachable"][0] > 0


class TestFbDocument:
    def test_round_trip(self, fixture_fb):
        assert parse_fb(export_fb(fixture_fb)) == fixture_fb

    def test_deterministic_bytes(self, fixture_fb):
        assert export_fb(fixture_fb) == export_fb(fixture_fb)

    def test_versioned_header(self, fixture_fb):
        assert export_fb(fixture_fb).startswith("plantfb v1\n")

    def test_two_state_document_lists_everything(self):
        fsm = FSM(states=("Q0", "Q1"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"),))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        text = export_fb(fb)
        assert text.count("\nstate ") == 2
        assert text.count("\ntrans ") == 1

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_fb("plantfb v2\nname X\n")

    @pytest.mark.parametrize("latches", [
        ("A=true A=false", "B=true"),    # A twice in Q0, B only in Q1
        ("A=true", "B=true"),            # disjoint latch sets
        ("A=true B=false", "A=false"),   # B missing in Q1
        ("A=true B=false", "A=false B=true B=false"),
    ], ids=["doubled", "disjoint", "missing", "doubled-later"])
    def test_states_must_set_the_same_latches(self, latches):
        text = ("plantfb v1\nname P\ninputs\noutputs\ninitial Q0\n"
                f"state Q0 emit=- {latches[0]}\nstate Q1 emit=- {latches[1]}\n")
        with pytest.raises(ParseError, match="latches"):
            parse_fb(text)

    def test_valuations_follow_sensor_vars_order(self):
        fb = parse_fb("plantfb v1\nname P\ninputs\noutputs\ninitial Q0\n"
                      "state Q0 emit=- B=false A=true\nstate Q1 emit=- A=false B=true\n")
        assert fb.sensor_vars == ("A", "B")
        assert fb.state("Q0").valuation == {"A"}
        assert "state Q0 emit=- A=true B=false\n" in export_fb(fb)

    def test_state_holding_an_undeclared_latch_rejected(self):
        with pytest.raises(ValueError, match="undeclared latches B"):
            FunctionBlock(name="P", event_inputs=(), event_outputs=(), sensor_vars=("A",),
                          states=(EccState("Q0", None, frozenset({"A", "B"})),),
                          initial_state="Q0", transitions=())

    def test_latch_false_everywhere_is_kept(self):
        # the wide-plant shape: no latch starts set
        fb, _ = independent_cylinders(2)
        assert fb.state(fb.initial_state).valuation == frozenset()
        assert fb.sensor_vars == ("END_A", "END_B", "HOME_A", "HOME_B")
        fsm = FSM(states=("Q0", "Q1"), initial="Q0", edges=(("Q0", "EXT", "Q1"),))
        fb = build_plant_fb(fsm, fixture_action_map(), {"HOME": False, "END": False})
        assert fb.sensor_vars == ("END", "HOME")
        assert all(state.valuation == frozenset() for state in fb.states)
        text = export_fb(fb)
        assert "sensors END HOME\n" in text and "state Q1 emit=- END=false HOME=false\n" in text
        assert parse_fb(text) == fb

    @pytest.mark.parametrize("sensors, latches", [
        ("FOO BAR", "A=true"), ("", "A=true"), ("A", ""), ("A A", "A=true"), ("A B", "A=true"),
    ], ids=["foreign", "empty", "no-latch", "doubled", "extra"])
    def test_sensors_line_must_name_the_latches(self, sensors, latches):
        text = ("plantfb v1\nname P\ninputs\noutputs\n"
                f"sensors {sensors}\ninitial Q0\nstate Q0 emit=- {latches}\n")
        with pytest.raises(ParseError, match="sensors") as error:
            parse_fb(text)
        assert error.value.position == 5

    @pytest.mark.parametrize("sensors, latches", [
        ("sensors A B", "A=true B=false"), ("sensors B A", "B=false A=true"), ("sensors", ""),
        ("", "A=true"),
    ], ids=["matching", "any-order", "no-latch", "no-line"])
    def test_sensors_line_agreeing_or_absent(self, sensors, latches):
        fb = parse_fb(f"plantfb v1\nname P\ninputs\noutputs\n{sensors}\ninitial Q0\n"
                      f"state Q0 emit=- {latches}\n")
        assert fb.sensor_vars == tuple(sorted(var.split("=")[0] for var in latches.split()))

    @pytest.mark.parametrize("line", ["name Q", "inputs", "outputs X", "sensors", "initial Q0"])
    def test_repeated_declaration_rejected(self, line):
        text = ("plantfb v1\nname P\ninputs\noutputs\nsensors B\ninitial Q0\n"
                f"{line}\nstate Q0 emit=- B=true\n")
        with pytest.raises(ParseError, match="second") as error:
            parse_fb(text)
        assert error.value.position == 7

    def test_dot_variant_renders(self, fixture_fb):
        dot = export_fb_dot(fixture_fb)
        assert "style=dashed" in dot
        assert '"Q0"' in dot


FB_TEXT = ("plantfb v1\nname P\ninputs EXT\noutputs HOME_ON\ninitial Q0\n"
           "state Q0 emit=- HOME=false\nstate Q1 emit=HOME_ON HOME=true\n"
           "trans Q0 NDT Q1\ntrans Q1 EXT Q0\n")


class TestNames:
    def test_template_parses(self):
        assert parse_fb(FB_TEXT).event_inputs == ("EXT",)

    @pytest.mark.parametrize("old, new", [
        ("EXT", "E-X"), ("HOME_ON", "H<N"), ("HOME=", "HO-ME="), ("name P", "name P-1"),
        ("EXT", "NDT"), ("HOME_ON", "NDT"),
    ], ids=["input", "output", "latch", "block", "ndt-input", "ndt-output"])
    def test_parse_fb_rejects_bad_names(self, old, new):
        with pytest.raises(ParseError, match="invalid name|reserved") as exc:
            parse_fb(FB_TEXT.replace(old, new))
        assert exc.value.position == 0

    def test_ndt_input_rejected(self):
        # exported as "trans Q0 NDT Q1", it would read back as a spontaneous move
        with pytest.raises(ValueError, match="NDT"):
            FunctionBlock(name="P", event_inputs=("NDT",), event_outputs=(), sensor_vars=(),
                          states=(EccState("Q0", None, frozenset()),
                                  EccState("Q1", None, frozenset())),
                          initial_state="Q0", transitions=(("Q0", "NDT", "Q1"),))

    def test_state_named_twice_rejected(self):
        state = EccState("Q0", None, frozenset())
        with pytest.raises(ValueError, match="duplicate"):
            FunctionBlock(name="P", event_inputs=(), event_outputs=(), sensor_vars=(),
                          states=(state, state), initial_state="Q0", transitions=())

    def test_every_accepted_block_round_trips(self):
        rng = random.Random(1107)
        valid = ["A", "B_1", "q0", "Q1", "NDT_X", "x9", "emit", "state", "true"]
        invalid = ["E-X", "H<N", "NDT", "HO ME", "", "a.b", "emit=-", "#c"]

        def names(k):
            return [rng.choice(invalid if rng.random() < 0.05 else valid) for _ in range(k)]

        accepted = 0
        for _ in range(400):
            inputs, outputs = names(rng.randint(0, 2)), names(rng.randint(0, 2))
            states = list(dict.fromkeys(names(rng.randint(1, 4))))
            latches = sorted(set(names(rng.randint(0, 2))))
            ecc = tuple(EccState(s, rng.choice([None, *outputs]),
                                 frozenset(v for v in latches if rng.random() < 0.5))
                        for s in states)
            transitions = tuple((rng.choice(states), rng.choice([None, *inputs]), rng.choice(states))
                                for _ in range(rng.randint(0, 4)))
            try:
                fb = FunctionBlock(name=names(1)[0], event_inputs=tuple(inputs),
                                   event_outputs=tuple(outputs), sensor_vars=tuple(latches),
                                   states=ecc,
                                   initial_state=states[0], transitions=transitions)
            except ValueError:
                continue
            accepted += 1
            parsed = parse_fb(export_fb(fb))
            assert parsed == fb and hash(parsed) == hash(fb)
        assert accepted >= 100


class TestLanguagePreservation:
    def test_fixture_language_equal(self, fixture_fsm, fixture_fb):
        depth = 12
        assert fsm_words(fixture_fsm, depth) == ecc_words(fixture_fb, depth)

    def test_random_fsm_languages_equal(self):
        rng = random.Random(47)
        checked = 0
        while checked < 25:
            fsm, amap, initial = random_plant_fsm(rng)
            fb = build_plant_fb(fsm, amap, initial)
            assert fsm_words(fsm, 12) == ecc_words(fb, 12)
            checked += 1
