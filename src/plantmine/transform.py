"""Plant function-block construction from a reachability-graph FSM.

Every sensor-labeled FSM edge becomes a spontaneous (non-deterministic)
transition, and the sensor event is announced by the state the transition
enters.  Control-labeled edges stay guarded by their input event.  Each state
additionally carries a boolean latch valuation per sensor variable, derived
by propagating the sensor events' effects from the initial state; that
labeling is what the closed-loop safety property is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import InconsistentLabeling, ParseError, UnmappedAction
from .eventlog import NAME_RE
from .petri import ReachabilityGraph, _dot_digraph, _dot_quote, explore

# Guard marker for spontaneous transitions in the FB text format.
NDT_GUARD = "NDT"

_SOURCE = itemgetter(0)  # of a (source, guard, target) transition


@dataclass(frozen=True)
class ActionMap:
    """Classification of actions into control commands and sensor events.

    Each entry is ``(action, effect)``: a sensor event's effect is the
    ``(variable, value)`` latch assignment it performs, and a control
    command's effect is ``None``.
    """

    entries: tuple[tuple[str, tuple[str, bool] | None], ...]
    _by_action: dict[str, tuple[str, bool] | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Keyed on the action alone, so a repeated action reaches the check
        # below without comparing a command's None to an effect.
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e[0])))
        by_action = {}
        for action, effect in self.entries:
            if not NAME_RE.match(action) or action == NDT_GUARD:
                raise ValueError(f"invalid action name {action!r}")
            if action in by_action:
                raise ValueError(f"action {action!r} classified twice")
            if effect is not None and not NAME_RE.match(effect[0]):
                raise ValueError(f"sensor action {action!r} sets invalid latch {effect[0]!r}")
            by_action[action] = effect
        object.__setattr__(self, "_by_action", by_action)

    @classmethod
    def of(cls, control: tuple[str, ...] = (),
           sensors: Mapping[str, tuple[str, bool]] | None = None) -> "ActionMap":
        entries = [(a, None) for a in control]
        entries += [(a, (var, bool(val))) for a, (var, val) in (sensors or {}).items()]
        return cls(tuple(entries))

    def effect(self, action: str) -> tuple[str, bool] | None:
        """The latch assignment of a sensor event, ``None`` for a control command."""
        if action not in self._by_action:
            raise UnmappedAction(action)
        return self._by_action[action]

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def sensor_vars(self) -> tuple[str, ...]:
        return tuple(sorted({effect[0] for _, effect in self.entries if effect}))


def parse_action_map(text: str) -> ActionMap:
    """Parse the action-map file format.

    One entry per line: ``EXT: control`` or ``HOME_ON: sensor HOME=true``.
    Blank lines and ``#`` comments are skipped.
    """
    entries: list[tuple[str, tuple[str, bool] | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(line_no, "expected 'ACTION: control|sensor VAR=true|false'")
        action, _, rest = line.partition(":")
        action, rest = action.strip(), rest.strip()
        if rest == "control":
            entries.append((action, None))
            continue
        m = re.fullmatch(r"sensor\s+([A-Za-z0-9_]+)\s*=\s*(true|false)", rest)
        if not m:
            raise ParseError(line_no, f"bad classification {rest!r}")
        entries.append((action, (m.group(1), m.group(2) == "true")))
    try:
        return ActionMap(tuple(entries))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


@dataclass(frozen=True)
class FSM:
    """A possibly non-deterministic labeled transition system."""

    states: tuple[str, ...]
    initial: str
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        # Edge sets may be given in any order; first occurrence wins on duplicates.
        object.__setattr__(self, "edges", tuple(dict.fromkeys(tuple(e) for e in self.edges)))
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate state names")
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial!r} not in states")
        for src, label, dst in self.edges:
            if src not in state_set or dst not in state_set:
                raise ValueError(f"edge ({src}, {label}, {dst}) has unknown endpoint")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({label for _, label, _ in self.edges}))


def fsm_from_graph(graph: ReachabilityGraph) -> FSM:
    """Rename reachability-graph markings to Q0..Qn in discovery order."""
    names = {marking: f"Q{i}" for i, marking in enumerate(graph.nodes)}
    return FSM(states=tuple(names[m] for m in graph.nodes),
               initial=names[graph.initial],
               edges=tuple((names[s], label, names[d]) for s, label, d in graph.edges))


def classify_alphabet(fsm: FSM, amap: ActionMap) -> tuple[frozenset[str], frozenset[str]]:
    """Split the FSM alphabet into (control actions, sensor actions)."""
    control, sensor = set(), set()
    for action in fsm.alphabet:
        (control if amap.effect(action) is None else sensor).add(action)
    return frozenset(control), frozenset(sensor)


class EccState(NamedTuple):
    """One execution-control state: optional output-event emission plus latch values.

    ``valuation`` is the set of the block's latches that hold in this state;
    every other latch of ``FunctionBlock.sensor_vars`` is false.  A named
    tuple, since a block builds one per state and tuples are cheap.
    """

    name: str
    emission: str | None
    valuation: frozenset[str]


@dataclass(frozen=True)
class FunctionBlock:
    """Plant-model basic function block: event interface plus execution control chart.

    Transitions are (source, guard, target) with guard ``None`` for
    spontaneous (non-deterministic) transitions.  ``sensor_vars`` declares
    the block's latches; each state's valuation holds a subset of them.  The
    constructor sorts every collection (states by name) and drops repeats, so
    equal blocks serialize to identical bytes; it rejects the event ``NDT``,
    a state named twice, a state holding an undeclared latch and any name
    outside ``A-Z a-z 0-9 _``.
    """

    name: str
    event_inputs: tuple[str, ...]
    event_outputs: tuple[str, ...]
    sensor_vars: tuple[str, ...]
    states: tuple[EccState, ...]
    initial_state: str
    transitions: tuple[tuple[str, str | None, str], ...]
    _by_name: dict[str, EccState] = field(init=False, repr=False, compare=False)
    _targets: dict[tuple[str, str | None], tuple[str, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "event_inputs", tuple(sorted(set(self.event_inputs))))
        object.__setattr__(self, "event_outputs", tuple(sorted(set(self.event_outputs))))
        object.__setattr__(self, "sensor_vars", tuple(sorted(set(self.sensor_vars))))
        by_name = {s.name: s for s in self.states}
        if len(by_name) != len(self.states):
            raise ValueError("duplicate EC state names")
        object.__setattr__(self, "states", tuple(by_name[n] for n in sorted(by_name)))
        # Ordered by (source, guard, target) with a spontaneous guard first,
        # as guards are non-empty names: a native sort of each kind, then a
        # stable sort by source.
        unique = set(map(tuple, self.transitions))
        ordered = sorted(t for t in unique if t[1] is None)
        ordered += sorted(t for t in unique if t[1] is not None)
        ordered.sort(key=_SOURCE)
        transitions = tuple(ordered)
        object.__setattr__(self, "transitions", transitions)

        if set(self.event_inputs) & set(self.event_outputs):
            raise ValueError("event inputs and outputs overlap")
        if self.initial_state not in by_name:
            raise ValueError(f"initial state {self.initial_state!r} missing")
        events = self.event_inputs + self.event_outputs
        for name in (self.name, *by_name, *events, *self.sensor_vars):
            if not NAME_RE.match(name):
                raise ValueError(f"invalid name {name!r}")
        if NDT_GUARD in events:
            raise ValueError(f"event name {NDT_GUARD!r} is reserved for spontaneous transitions")
        # build_plant_fb shares equal valuations, so the set holds few members.
        undeclared = set().union(*{s.valuation for s in self.states}) - set(self.sensor_vars)
        if undeclared:
            raise ValueError(f"states hold undeclared latches {' '.join(sorted(undeclared))}")
        for state in self.states:
            if state.emission is not None and state.emission not in self.event_outputs:
                raise ValueError(f"state {state.name!r} emits unknown event")
        # Transitions are sorted, so each target tuple is sorted too.
        targets: dict[tuple[str, str | None], list[str]] = {}
        for src, guard, dst in transitions:
            if src not in by_name or dst not in by_name:
                raise ValueError(f"transition ({src}, {guard}, {dst}) has unknown endpoint")
            if guard is not None:
                if guard not in self.event_inputs:
                    raise ValueError(f"guard {guard!r} is not an event input")
                if by_name[dst].emission is not None:
                    raise ValueError(f"input-guarded transition targets emitting state {dst!r}")
            targets.setdefault((src, guard), []).append(dst)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_targets", {key: tuple(dsts) for key, dsts in targets.items()})

    def state(self, name: str) -> EccState:
        return self._by_name[name]

    def emission(self, name: str) -> str | None:
        return self.state(name).emission

    def ndt_edges(self, source: str) -> tuple[str, ...]:
        return self._targets.get((source, None), ())

    def control_edges(self, source: str, guard: str) -> tuple[str, ...]:
        return self._targets.get((source, guard), ())


def build_plant_fb(fsm: FSM, amap: ActionMap,
                   initial_valuation: Mapping[str, bool],
                   name: str = "PLANT") -> FunctionBlock:
    """Apply the plant-model transformation to an FSM.

    Interface: control actions become event inputs, sensor actions event
    outputs.  Each sensor edge (q, s, q') turns into a spontaneous transition
    whose target announces s.  The target can host the announcement only when
    every sensor edge entering it carries the same event and no input-guarded
    edge enters it; otherwise the edge routes through a fresh intermediate
    announcing state whose single outgoing spontaneous transition reaches the
    (then silent) q'.  Entering a state announces its event, so hosting under
    a conflict would re-announce the wrong event on the completion step.

    Latch valuations propagate from the initial state: entering an announcing
    state applies that sensor's effect, every other entry leaves the latches
    unchanged.  The block declares the latches of ``initial_valuation`` and
    each state's valuation is the set of them that hold.  The initial state's
    valuation is fixed by ``initial_valuation`` (the plant's rest position)
    and is not re-derived on re-entry; any other state reached with two
    different valuations raises :class:`InconsistentLabeling`.
    """
    control, sensor = classify_alphabet(fsm, amap)
    effects = {action: amap.effect(action) for action in sorted(sensor)}
    for var, _ in effects.values():
        if var not in initial_valuation:
            raise ValueError(f"initial valuation missing sensor variable {var!r}")

    # The sensor events entering each state, None standing for any command.
    entering: dict[str, set[str | None]] = {}
    for _, label, dst in fsm.edges:
        entering.setdefault(dst, set()).add(None if label in control else label)
    hostable = {dst for dst, labels in entering.items() if len(labels) == 1 and None not in labels}

    emission: dict[str, str] = {}
    taken = set(fsm.states)
    transitions: list[tuple[str, str | None, str]] = []
    extra_states: list[str] = []

    for src, label, dst in fsm.edges:
        if label in control:
            transitions.append((src, label, dst))
            continue
        if dst in hostable:
            emission[dst] = label
            transitions.append((src, None, dst))
        else:
            mid = f"{src}__{label}__{dst}"
            while mid in taken:
                mid += "_i"
            taken.add(mid)
            extra_states.append(mid)
            emission[mid] = label
            transitions.append((src, None, mid))
            transitions.append((mid, None, dst))

    all_states = list(fsm.states) + extra_states
    outgoing: dict[str, list[tuple[str | None, str]]] = {s: [] for s in all_states}
    for src, guard, dst in transitions:
        outgoing[src].append((guard, dst))

    rest = frozenset(var for var, value in initial_valuation.items() if value)
    valuations = {fsm.initial: rest}
    # Equal derived valuations are shared, so each is hashed once.
    shared = {rest: rest}
    for current, out in explore(fsm.initial, outgoing.__getitem__, len(all_states)):
        base = valuations[current]
        for _, dst in out:
            if dst == fsm.initial:
                continue
            derived = base
            if dst in emission:
                var, value = effects[emission[dst]]
                derived = base | {var} if value else base - {var}
                derived = shared.setdefault(derived, derived)
            if valuations.setdefault(dst, derived) != derived:
                raise InconsistentLabeling(dst)

    states = tuple(EccState(s, emission.get(s), valuations.get(s, rest))
                   for s in all_states)
    return FunctionBlock(name=name,
                         event_inputs=tuple(control),
                         event_outputs=tuple(sensor),
                         sensor_vars=tuple(initial_valuation),
                         states=states,
                         initial_state=fsm.initial,
                         transitions=tuple(transitions))


def export_fb(fb: FunctionBlock) -> str:
    """Serialize a function block as the versioned ``plantfb v1`` text format."""
    lines = ["plantfb v1",
             f"name {fb.name}",
             "inputs" + "".join(f" {e}" for e in fb.event_inputs),
             "outputs" + "".join(f" {e}" for e in fb.event_outputs),
             "sensors" + "".join(f" {v}" for v in fb.sensor_vars),
             f"initial {fb.initial_state}"]
    latch_text: dict[frozenset[str], str] = {}
    for state in fb.states:
        text = latch_text.get(state.valuation)
        if text is None:
            text = latch_text[state.valuation] = "".join(
                f" {v}={'true' if v in state.valuation else 'false'}" for v in fb.sensor_vars)
        lines.append(f"state {state.name} emit={state.emission or '-'}{text}")
    for src, guard, dst in fb.transitions:
        lines.append(f"trans {src} {guard or NDT_GUARD} {dst}")
    return "\n".join(lines) + "\n"


def parse_fb(text: str) -> FunctionBlock:
    """Parse the ``plantfb v1`` format.

    Each declaration (``name``, ``inputs``, ``outputs``, ``sensors``,
    ``initial``) appears at most once.  The ``sensors`` line declares the
    latches, or, when it is absent, the first state line's latches are the
    block's; every state line sets each latch once.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "plantfb v1":
        raise ParseError(1, "expected header 'plantfb v1'")
    declared: dict[str, list[str]] = {}
    sensors_line = 0
    states: list[tuple[int, str, str | None, list[tuple[str, bool]]]] = []
    transitions: list[tuple[str, str | None, str]] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *args = line.split()
        if key in ("inputs", "outputs", "sensors") or (
                key in ("name", "initial") and len(args) == 1):
            if key in declared:
                raise ParseError(line_no, f"second {key!r} declaration")
            declared[key] = args
            if key == "sensors":
                sensors_line = line_no
        elif key == "state" and len(args) >= 2:
            if not args[1].startswith("emit="):
                raise ParseError(line_no, "state line missing emit=")
            emit = args[1][len("emit="):]
            latches = []
            for item in args[2:]:
                var, _, value = item.partition("=")
                if value not in ("true", "false"):
                    raise ParseError(line_no, f"bad latch value {item!r}")
                latches.append((var, value == "true"))
            states.append((line_no, args[0], None if emit == "-" else emit, latches))
        elif key == "trans" and len(args) == 3:
            guard = None if args[1] == NDT_GUARD else args[1]
            transitions.append((args[0], guard, args[2]))
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if "name" not in declared or "initial" not in declared:
        raise ParseError(0, "missing name or initial declaration")
    sensors = declared.get("sensors", {var for var, _ in states[0][3]} if states else ())
    sensor_set = set(sensors)
    if len(sensor_set) != len(sensors):
        raise ParseError(sensors_line, "sensors line names a latch twice")
    for line_no, name, _, latches in states:
        if len(latches) != len(sensor_set) or {var for var, _ in latches} != sensor_set:
            raise ParseError(sensors_line or line_no, f"state {name} does not set each of the "
                             f"sensors' latches {' '.join(sorted(sensor_set)) or '(none)'} once")
    try:
        return FunctionBlock(
            name=declared["name"][0],
            event_inputs=tuple(declared.get("inputs", ())),
            event_outputs=tuple(declared.get("outputs", ())),
            sensor_vars=tuple(sensors),
            states=tuple(EccState(name, emit, frozenset(var for var, value in latches if value))
                         for _, name, emit, latches in states),
            initial_state=declared["initial"][0],
            transitions=tuple(transitions))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def export_fb_dot(fb: FunctionBlock) -> str:
    """DOT rendering of the ECC; spontaneous transitions are dashed."""
    lines = []
    for state in fb.states:
        label = state.name if state.emission is None else f"{state.name} / {state.emission}"
        shape = ' peripheries=2' if state.name == fb.initial_state else ""
        lines.append(f"  {_dot_quote(state.name)} [label={_dot_quote(label)}{shape}];")
    for src, guard, dst in fb.transitions:
        style = f"label={_dot_quote(guard)}" if guard else 'label="NDT" style=dashed'
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [{style}];")
    return _dot_digraph("ecc", lines)
