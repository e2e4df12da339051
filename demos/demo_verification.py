"""Closed-loop verification: a holding property, a counterexample, SMV output.

Run with:  python demos/demo_verification.py
"""

from plantmine import (alpha_discover, build_plant_fb, check_ctl, compose,
                       default_initial_marking, emit_closed_loop, filter_component,
                       fixture_controller, fsm_from_graph, group_traces, parse_ctl,
                       reachability_graph, simulate_two_cylinder, strip_boundary)
from plantmine.fixture import INITIAL_VALUATION, SimConfig, fixture_action_map


def plant_from_log(mutations=frozenset()):
    cfg = SimConfig(n_traces=40, mutations=mutations)
    log = simulate_two_cylinder(cfg, seed=42)
    traces = group_traces(filter_component(log, "HC"))
    net = alpha_discover(traces)
    graph = reachability_graph(strip_boundary(net), default_initial_marking(net))
    return build_plant_fb(fsm_from_graph(graph), fixture_action_map(),
                          INITIAL_VALUATION, name="HC_PLANT")


###############################################################################
# The healthy plant in closed loop with the four-state controller: the home
# and end sensors are never latched at the same time.

spec = parse_ctl("AG !(HOME & END)")
plant = plant_from_log()
loop = compose(plant, fixture_controller())
print(f"closed loop: {len(loop.states)} states, "
      f"{len(loop.diagnostics)} diagnostics")
print("AG !(HOME & END):", "HOLDS" if check_ctl(loop, spec).holds else "FAILED")

###############################################################################
# Drop the falling sensor edges from the recording and the mined model keeps
# END latched through the whole cycle; the checker returns a shortest path
# into a state where both latches are true.

broken = plant_from_log(mutations=frozenset({"drop_sensor_off"}))
loop = compose(broken, fixture_controller())
verdict = check_ctl(loop, spec)
print("\nmutated log:", "HOLDS" if verdict.holds else "FAILED")
for index, step in enumerate(verdict.counterexample):
    via = f"  [{step.event}]" if step.event else ""
    print(f"  {index}: {step.state}{via}")

###############################################################################
# Other property shapes work too: every state can get back to the rest
# position, and the controller never extends while the end sensor is on.

for text in ("AG EF plant_state = Q0",
             "AG (END -> !EX plant_state = Q1)"):
    print(f"{text}:", "HOLDS" if check_ctl(loop := compose(
        plant, fixture_controller()), parse_ctl(text)).holds else "FAILED")

###############################################################################
# The same composition emitted as NuSMV input; feed it to a NuSMV binary to
# reproduce the verdicts symbolically.

document = emit_closed_loop(plant, fixture_controller(), (spec,))
print("\n--- closed_loop.smv " + "-" * 40)
print(document.text)
