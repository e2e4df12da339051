"""Two-cylinder case-study fixtures: seeded log simulator, controller, action map.

The simulated horizontal cylinder cycles through extend and retract: the
extend command clears the home sensor and raises the end sensor, the retract
command does the opposite.  The recorded vocabulary uses explicit rising and
falling sensor edges so the latch values are always well defined:

    EXT, HOME_OFF, END_ON, RET, END_OFF, HOME_ON

Everything here is byte-deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from .errors import MarkingRequired
from .eventlog import Event, format_timestamp
from .petri import Marking, PetriNet
from .transform import ActionMap
from .verify import ControllerFSM, parse_controller

COMPONENT = "HC"
CYCLE = ("EXT", "HOME_OFF", "END_ON", "RET", "END_OFF", "HOME_ON")
REST_COMMAND = "EXT"  # issued from the rest position

#: Supported log mutations; ``drop_sensor_off`` deletes the falling sensor
#: edges, which makes the mined plant model violate the safety property.
MUTATIONS = frozenset({"drop_sensor_off"})
_SENSOR_OFF = frozenset({"HOME_OFF", "END_OFF"})

INITIAL_VALUATION = {"HOME": True, "END": False}

DEFAULT_BASE_TIME = datetime(2021, 5, 10, 10, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SimConfig:
    """Simulator configuration: trace count, cycles-per-trace range, mutations."""

    n_traces: int = 1
    cycles_min: int = 1
    cycles_max: int = 3
    mutations: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mutations", frozenset(self.mutations))
        if self.n_traces < 1:
            raise ValueError("n_traces must be at least 1")
        if not 1 <= self.cycles_min <= self.cycles_max:
            raise ValueError("cycles range must be non-empty and positive")
        unknown = self.mutations - MUTATIONS
        if unknown:
            raise ValueError(f"unknown mutations: {sorted(unknown)}")


def simulate_two_cylinder(cfg: SimConfig, seed: int) -> tuple[Event, ...]:
    """Generate the events of a horizontal-cylinder log, in log order.

    Trace i (process id ``str(i+1)``) repeats the six-action cycle a seeded
    number of times within the configured range.  Timestamps advance by one
    second per emitted event across the whole log.
    """
    rng = random.Random(seed)
    events = []
    step = 0
    for index in range(cfg.n_traces):
        process_id = str(index + 1)
        repeats = rng.randint(cfg.cycles_min, cfg.cycles_max)
        actions = [action for _ in range(repeats) for action in CYCLE]
        if "drop_sensor_off" in cfg.mutations:
            actions = [a for a in actions if a not in _SENSOR_OFF]
        for action in actions:
            stamp = DEFAULT_BASE_TIME + timedelta(seconds=step)
            events.append(Event(process_id, stamp, COMPONENT, action,
                                format_timestamp(stamp)))
            step += 1
    return tuple(events)


def fixture_action_map() -> ActionMap:
    """The case study's action classification: two commands, four sensor edges."""
    return ActionMap.of(
        control=("EXT", "RET"),
        sensors={"HOME_ON": ("HOME", True), "HOME_OFF": ("HOME", False),
                 "END_ON": ("END", True), "END_OFF": ("END", False)})


def fixture_controller() -> ControllerFSM:
    """A four-state controller closing the loop: extend at home, retract at the end."""
    return parse_controller(FIXTURE_CONTROLLER_TEXT)


FIXTURE_CONTROLLER_TEXT = """\
states: C0 C1 C2 C3
initial: C0
inputs: HOME_ON HOME_OFF END_ON END_OFF
outputs: EXT RET
C0 --HOME_ON/EXT--> C1
C1 --HOME_OFF/--> C2
C2 --END_ON/RET--> C3
C3 --END_OFF/--> C0
"""


def rest_position_marking(net: PetriNet) -> Marking:
    """Initial marking for the stripped mined net: the place feeding the extend command.

    The mined plant cycle has no sourceless place, so the rest position is
    identified structurally as the unique place whose postset contains the
    :data:`REST_COMMAND` transition.
    """
    feeders = net.preset(REST_COMMAND) if REST_COMMAND in net.transitions else ()
    if len(feeders) != 1:
        raise MarkingRequired(f"no single place feeds {REST_COMMAND!r}")
    return Marking.of({feeders[0]: 1})
