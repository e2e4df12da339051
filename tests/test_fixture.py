import re

import pytest

from plantmine.eventlog import export_csv, filter_component, group_traces
from plantmine.fixture import (CYCLE, MUTATIONS, SimConfig, fixture_action_map,
                               fixture_controller, simulate_two_cylinder)
from plantmine.petri import default_initial_marking, strip_boundary


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.n_traces == 1 and cfg.cycles_min == 1

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SimConfig(n_traces=0)
        with pytest.raises(ValueError):
            SimConfig(cycles_min=3, cycles_max=2)
        with pytest.raises(ValueError):
            SimConfig(mutations=frozenset({"bogus"}))


class TestSimulator:
    def test_identical_bytes_for_same_seed(self):
        cfg = SimConfig(n_traces=8)
        first = export_csv(simulate_two_cylinder(cfg, 42))
        second = export_csv(simulate_two_cylinder(cfg, 42))
        assert first == second

    def test_different_seeds_differ(self):
        cfg = SimConfig(n_traces=8)
        assert simulate_two_cylinder(cfg, 1) != simulate_two_cylinder(cfg, 2)

    def test_returns_a_tuple_of_events(self):
        log = simulate_two_cylinder(SimConfig(n_traces=2), 42)
        assert type(log) is tuple and all(type(e) is tuple for e in log)

    def test_three_distinct_process_ids(self):
        log = simulate_two_cylinder(SimConfig(n_traces=3), 42)
        assert {process_id for process_id, _, _, _ in log} == {"1", "2", "3"}

    def test_unmutated_traces_match_cycle_pattern(self):
        log = simulate_two_cylinder(SimConfig(n_traces=10), 7)
        pattern = re.compile("(" + " ".join(CYCLE) + " )+$")
        for trace in group_traces(log).traces:
            text = " ".join(trace.actions) + " "
            assert pattern.match(text), trace.actions

    def test_alphabet_closure_and_component(self):
        log = simulate_two_cylinder(SimConfig(n_traces=6), 3)
        assert {action for _, _, _, action in log} <= set(CYCLE)
        assert filter_component(log, "HC") == log

    def test_drop_sensor_off_mutation(self):
        cfg = SimConfig(n_traces=4, mutations=frozenset({"drop_sensor_off"}))
        log = simulate_two_cylinder(cfg, 42)
        actions = {action for _, _, _, action in log}
        assert "HOME_OFF" not in actions and "END_OFF" not in actions
        assert actions == {"EXT", "END_ON", "RET", "HOME_ON"}

    def test_mutations_constant(self):
        assert MUTATIONS == {"drop_sensor_off"}


class TestFixtureController:
    def test_shape(self):
        ctl = fixture_controller()
        assert len(ctl.states) == 4
        assert len(ctl.transitions) == 4
        assert ctl.initial == "C0"

    def test_alphabets_match_action_map(self):
        ctl = fixture_controller()
        amap = fixture_action_map()
        sensors = {a for a, effect in amap.entries if effect is not None}
        controls = {a for a, effect in amap.entries if effect is None}
        assert set(ctl.inputs) == sensors
        assert set(ctl.outputs) == controls


class TestRestPositionMarking:
    def test_fixture_marking(self, fixture_net):
        # the rest position is the one place, besides the source, feeding the extend command
        stripped = strip_boundary(fixture_net)
        marking = default_initial_marking(fixture_net)
        assert marking.total() == 1
        place = marking.tokens[0][0]
        assert (place, "EXT") in stripped.arcs


def test_closed_loop_satisfies_sensor_exclusion(fixture_kripke):
    from plantmine.verify import check_ctl, parse_ctl
    assert check_ctl(fixture_kripke, parse_ctl("AG !(HOME & END)")).holds
