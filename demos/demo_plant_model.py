"""From an event log to a plant function block, one stage at a time.

Run with:  python demos/demo_plant_model.py
"""

from plantmine import (alpha_discover, build_plant_fb, default_initial_marking,
                       filter_component, fsm_from_graph, group_traces,
                       reachability_graph, simulate_two_cylinder, strip_boundary)
from plantmine.eventlog import export_csv
from plantmine.fixture import INITIAL_VALUATION, SimConfig, fixture_action_map
from plantmine.transform import export_fb

###############################################################################
# The simulated horizontal cylinder records one six-action cycle per pass:
# extend, leave home, reach the end, retract, leave the end, reach home.
# Several cycles per scenario close the loop in the mined model.

log = simulate_two_cylinder(SimConfig(n_traces=8, cycles_min=1, cycles_max=3),
                            seed=42)
print("first log lines:")
print("\n".join(export_csv(log).splitlines()[:5]))

traces = group_traces(filter_component(log, "HC"))
print(f"\n{len(traces.traces)} scenarios, alphabet {sorted(traces.alphabet)}")

###############################################################################
# Mining yields a ring of six places between the six actions, wrapped in the
# workflow boundary (source feeds EXT, HOME_ON feeds the sink).

net = alpha_discover(traces)
print(f"mined: {len(net.places)} places / {len(net.transitions)} transitions")

###############################################################################
# For reachability the boundary is removed and the cylinder's rest position
# takes the single token: the place that the log's start activity, EXT, waits
# on besides the source.

stripped = strip_boundary(net)
marking = default_initial_marking(net)
print("initial marking:", marking)

graph = reachability_graph(stripped, marking)
fsm = fsm_from_graph(graph)
print(f"reachability: {len(graph.nodes)} markings -> FSM states {fsm.states}")
for edge in fsm.edges:
    print("  ", " --".join((edge[0], edge[1])) + "--> " + edge[2])

###############################################################################
# The transformation splits the alphabet with the action map: commands stay
# as guarded inputs, sensor events move onto spontaneous transitions whose
# target state announces them.  Each state also carries the latch values
# derived by propagating the sensor effects from the rest position.

fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION,
                    name="HC_PLANT")
print("\nplant function block document:")
print(export_fb(fb))
