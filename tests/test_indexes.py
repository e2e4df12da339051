"""Every model lookup agrees with a brute-force scan of the model's own data.

The models answer lookups from tables built while validating; these tests
recompute each answer with a comprehension over ``states``, ``transitions``,
``entries`` or ``arcs``, including names and events the model does not know.
They also check that each constructor makes the canonical form: shuffled and
repeated inputs give a model equal, and hash-equal, to the canonical one.
"""

import random
from dataclasses import fields

import pytest

from plantmine.errors import UnmappedAction
from plantmine.fixture import fixture_action_map, fixture_controller
from plantmine.petri import Marking, PetriNet, strip_boundary
from plantmine.transform import (ActionMap, EccState, FunctionBlock, build_plant_fb, export_fb,
                                 parse_fb)
from plantmine.verify import ControllerFSM

from helpers import random_conservative_net, random_controller, random_plant_fsm

UNKNOWN = "UNKNOWN_NAME"


def check_block(fb):
    for state in fb.states:
        assert fb.state(state.name) == [s for s in fb.states if s.name == state.name][0]
        assert fb.emission(state.name) == state.emission
    assert fb.sensor_vars == tuple(sorted(set(fb.sensor_vars)))
    assert set().union(*(state.valuation for state in fb.states)) <= set(fb.sensor_vars)
    with pytest.raises(KeyError):
        fb.state(UNKNOWN)
    for source in [s.name for s in fb.states] + [UNKNOWN]:
        assert fb.ndt_edges(source) == tuple(
            dst for src, guard, dst in fb.transitions if src == source and guard is None)
        for event in fb.event_inputs + (UNKNOWN,):
            assert fb.control_edges(source, event) == tuple(
                dst for src, guard, dst in fb.transitions if src == source and guard == event)
    parsed = parse_fb(export_fb(fb))
    assert parsed == fb
    assert hash(parsed) == hash(fb)


def check_controller(ctl):
    for state in ctl.states:
        for event in ctl.inputs + (UNKNOWN,):
            scan = [(output, target) for src, trigger, output, target in ctl.transitions
                    if src == state and trigger == event]
            assert ctl.step(state, event) == (scan[0] if scan else None)


def check_action_map(amap):
    for action, effect in amap.entries:
        assert amap.effect(action) == [e for a, e in amap.entries if a == action][0]
    assert amap.sensor_vars == tuple(sorted({e[0] for _, e in amap.entries if e is not None}))
    with pytest.raises(UnmappedAction):
        amap.effect(UNKNOWN)


def check_net(net):
    for node in net.places + net.transitions + (UNKNOWN,):
        assert net.preset(node) == tuple(src for src, dst in net.arcs if dst == node)
        assert net.postset(node) == tuple(dst for src, dst in net.arcs if src == node)


def test_random_models_match_scans():
    rng = random.Random(2211)
    for _ in range(30):
        fsm, amap, initial = random_plant_fsm(rng, max_states=10)
        fb = build_plant_fb(fsm, amap, initial)
        check_block(fb)
        check_action_map(amap)
        check_controller(random_controller(rng, fb))
        check_net(random_conservative_net(rng)[0])


def test_fixture_models_match_scans(fixture_fb, fixture_net):
    check_block(fixture_fb)
    check_action_map(fixture_action_map())
    check_controller(fixture_controller())
    check_net(fixture_net)
    check_net(strip_boundary(fixture_net))


# Collections whose repeats the constructor rejects rather than drops.
NO_REPEATS = {(Marking, "tokens"), (ActionMap, "entries"), (FunctionBlock, "states"),
              (ControllerFSM, "states")}


def rebuilt(model, rng=None):
    """The model built again from its own fields; with ``rng``, each collection scrambled.

    Scrambling shuffles, repeats items where the constructor drops repeats,
    and adds zero counts to a marking.
    """
    kwargs = {}
    for spec in fields(model):
        if not spec.init:
            continue
        value = getattr(model, spec.name)
        if rng is not None and isinstance(value, tuple):
            value = list(value)
            if (type(model), spec.name) not in NO_REPEATS and value:
                value += rng.choices(value, k=rng.randint(1, len(value)))
            if isinstance(model, Marking):
                value += [(f"zero{i}", 0) for i in range(rng.randint(1, 3))]
            rng.shuffle(value)
            value = tuple(value)
        kwargs[spec.name] = value
    return type(model)(**kwargs)


def test_constructors_make_the_canonical_form():
    rng = random.Random(1124)
    for _ in range(30):
        fsm, amap, initial = random_plant_fsm(rng, max_states=10)
        fb = build_plant_fb(fsm, amap, initial)
        net, marking = random_conservative_net(rng)
        for model in (marking, net, amap, fb, random_controller(rng, fb),
                      fixture_controller(), fixture_action_map()):
            canonical = rebuilt(model)
            assert canonical == model
            for _ in range(3):
                scrambled = rebuilt(model, rng)
                assert scrambled == canonical
                assert hash(scrambled) == hash(canonical)
        check_block(rebuilt(fb, rng))


def test_repeats_rejected_where_not_dropped():
    state = EccState("Q0", None, frozenset())
    builds = [lambda: Marking((("a", 1), ("a", 1))),
              lambda: ActionMap.of(control=("EXT", "EXT")),
              lambda: FunctionBlock(name="P", event_inputs=(), event_outputs=(), sensor_vars=(),
                                    states=(state, state), initial_state="Q0", transitions=()),
              lambda: ControllerFSM(states=("C0", "C0"), initial="C0", inputs=(), outputs=(),
                                    transitions=())]
    for build in builds:
        with pytest.raises(ValueError):
            build()
