"""plantmine: mine plant models from event logs and verify them in closed loop.

The pipeline mirrors a plant-model synthesis workflow: parse a recorded CSV
event log, mine a workflow Petri net with the alpha algorithm, extract the
finite state machine from its reachability graph, transform it into a basic
function block whose sensor events fire on spontaneous transitions, then
check CTL safety properties on the closed loop with a controller, either with
the built-in explicit-state checker or via emitted NuSMV code.
"""

from .discovery import (FootprintMatrix, Relation, ReplayResult, alpha_discover,
                        fitness, footprint, replay_trace)
from .errors import PlantMineError
from .eventlog import (Event, Trace, TraceSet, export_csv, export_xes, filter_component,
                       group_traces, parse_csv)
from .fixture import (SimConfig, fixture_action_map, fixture_controller,
                      rest_position_marking, simulate_two_cylinder)
from .petri import (Marking, PetriNet, ReachabilityGraph, default_initial_marking,
                    enabled_transitions, export_dot_graph, export_dot_net,
                    export_pnml, fire, reachability_graph, strip_boundary)
from .smv import SmvDocument, emit_closed_loop, emit_plant_module
from .transform import (FSM, ActionMap, EccState, FunctionBlock, build_plant_fb,
                        classify_alphabet, export_fb, fsm_from_graph, parse_action_map,
                        parse_fb)
from .verify import (ControllerFSM, CompositeState, KripkeStructure, Verdict,
                     check_ctl, compose, parse_controller, parse_ctl, render_ctl,
                     satisfying_states)

__version__ = "0.1.0"

__all__ = [
    "ActionMap", "CompositeState", "ControllerFSM", "EccState", "Event", "FSM",
    "FootprintMatrix", "FunctionBlock", "KripkeStructure", "Marking", "PetriNet", "PlantMineError",
    "ReachabilityGraph", "Relation", "ReplayResult", "SimConfig", "SmvDocument",
    "Trace", "TraceSet", "Verdict", "alpha_discover", "build_plant_fb",
    "check_ctl", "classify_alphabet", "compose", "default_initial_marking",
    "emit_closed_loop", "emit_plant_module", "enabled_transitions", "export_csv",
    "export_dot_graph", "export_dot_net", "export_fb", "export_pnml",
    "export_xes", "filter_component", "fire", "fitness", "fixture_action_map",
    "fixture_controller", "footprint", "fsm_from_graph", "group_traces",
    "parse_action_map", "parse_controller", "parse_csv", "parse_ctl", "parse_fb",
    "reachability_graph", "render_ctl", "replay_trace", "rest_position_marking",
    "satisfying_states", "simulate_two_cylinder", "strip_boundary",
]
