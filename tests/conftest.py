import pytest

from plantmine import (alpha_discover, build_plant_fb, compose, default_initial_marking,
                       filter_component, fixture_action_map, fixture_controller,
                       fsm_from_graph, group_traces, reachability_graph,
                       simulate_two_cylinder, strip_boundary)
from plantmine.fixture import INITIAL_VALUATION, SimConfig

from helpers import traceset


@pytest.fixture(scope="session")
def fixture_log():
    return simulate_two_cylinder(SimConfig(n_traces=12), seed=42)


@pytest.fixture(scope="session")
def fixture_traces(fixture_log):
    return group_traces(filter_component(fixture_log, "HC"))


@pytest.fixture(scope="session")
def fixture_net(fixture_traces):
    return alpha_discover(fixture_traces)


@pytest.fixture(scope="session")
def fixture_graph(fixture_net):
    return reachability_graph(strip_boundary(fixture_net),
                              default_initial_marking(fixture_net))


@pytest.fixture(scope="session")
def fixture_fsm(fixture_graph):
    return fsm_from_graph(fixture_graph)


@pytest.fixture(scope="session")
def fixture_fb(fixture_fsm):
    return build_plant_fb(fixture_fsm, fixture_action_map(),
                          INITIAL_VALUATION, name="HC_PLANT")


@pytest.fixture(scope="session")
def fixture_kripke(fixture_fb):
    return compose(fixture_fb, fixture_controller())


@pytest.fixture
def diamond_traces():
    """The two-trace log whose net is the concurrent diamond."""
    return traceset(("a", "b", "c", "d"), ("a", "c", "b", "d"))


@pytest.fixture
def diamond_net(diamond_traces):
    return alpha_discover(diamond_traces)
