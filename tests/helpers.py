"""Independent oracles and random-model generators shared by the test suite.

The oracles deliberately avoid the library's own algorithms: relations come
from a plain adjacency scan, causal pairs from exhaustive subset enumeration,
reachable markings from a depth-first walk, and CTL values from bounded path
unrolling (exact at |states| steps by the pigeonhole argument).  Two
references keep the straightforward versions of optimized library code:
reachability that tests every transition at every marking, and CTL labeling
by round-based ``pre()`` fixpoints with the same ``stats['rounds']`` hook.
Two more keep the separate report and SMV formula printers that one renderer
replaced, to pin its bytes, and one the plant transformation's dict-based
latch propagation, to pin the tuple-slot version.  The event-log references
read every stored stamp text back, print its instant with strftime and quote
every name per event, to pin the stored stamp texts and the exporters that
join them.
"""

from __future__ import annotations

import random
from collections import deque
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import Mapping

from plantmine.eventlog import CSV_HEADER, Event, Trace, TraceSet
from plantmine.errors import BoundExceeded, InconsistentLabeling, UnknownAtom
from plantmine.petri import (Marking, PetriNet, ReachabilityGraph,
                             enabled_transitions, fire, reachability_graph)
from plantmine.transform import (FSM, ActionMap, EccState, FunctionBlock, build_plant_fb,
                                 classify_alphabet, fsm_from_graph)
from plantmine.verify import (AF, AG, AU, EF, EG, EU, EX, AX, And, Atom, Const,
                              ControllerFSM, Formula, Implies, KripkeStructure,
                              Not, Or)


def traceset(*action_rows: tuple[str, ...]) -> TraceSet:
    return TraceSet(tuple(Trace(str(i + 1), tuple(row))
                          for i, row in enumerate(action_rows)))


# ---------------------------------------------------------------------------
# Footprint and alpha oracles

def footprint_oracle(traces: TraceSet):
    """Plain adjacency scan; returns (succession set, relation dict)."""
    succession = set()
    for trace in traces.traces:
        for i in range(len(trace.actions) - 1):
            succession.add((trace.actions[i], trace.actions[i + 1]))
    alphabet = sorted({a for t in traces.traces for a in t.actions})
    relations = {}
    for a in alphabet:
        for b in alphabet:
            ab, ba = (a, b) in succession, (b, a) in succession
            if ab and ba:
                relations[(a, b)] = "||"
            elif ab:
                relations[(a, b)] = "->"
            elif ba:
                relations[(a, b)] = "<-"
            else:
                relations[(a, b)] = "#"
    return succession, relations


def maximal_pairs_oracle(traces: TraceSet) -> set[tuple[frozenset, frozenset]]:
    """Exhaustive enumeration of all subset pairs, then a maximality scan."""
    _, relations = footprint_oracle(traces)
    alphabet = sorted({a for t in traces.traces for a in t.actions})

    def unrelated(group) -> bool:
        return all(relations[(x, y)] == "#" for x in group for y in group)

    subsets = [frozenset(c) for size in range(1, len(alphabet) + 1)
               for c in combinations(alphabet, size)]
    candidates = [(a, b) for a in subsets if unrelated(a)
                  for b in subsets if unrelated(b)
                  and all(relations[(x, y)] == "->" for x in a for y in b)]
    return {(a, b) for a, b in candidates
            if not any((a, b) != (a2, b2) and a <= a2 and b <= b2
                       for a2, b2 in candidates)}


# ---------------------------------------------------------------------------
# Series-parallel log generator (single entry and exit action)

def _sp_tree(rng: random.Random, leaves: list[str]):
    if len(leaves) == 1:
        return ("leaf", leaves[0])
    cut = rng.randint(1, len(leaves) - 1)
    op = rng.choice(("seq", "and"))
    return (op, [_sp_tree(rng, leaves[:cut]), _sp_tree(rng, leaves[cut:])])


def _interleavings(x: tuple, y: tuple) -> set[tuple]:
    if not x:
        return {y}
    if not y:
        return {x}
    return ({(x[0],) + rest for rest in _interleavings(x[1:], y)}
            | {(y[0],) + rest for rest in _interleavings(x, y[1:])})


def sp_language(tree) -> set[tuple]:
    kind = tree[0]
    if kind == "leaf":
        return {(tree[1],)}
    left, right = (sp_language(child) for child in tree[1])
    if kind == "seq":
        return {x + y for x in left for y in right}
    return {w for x in left for y in right for w in _interleavings(x, y)}


def random_sp_traceset(rng: random.Random, max_actions: int = 6,
                       max_traces: int = 20) -> TraceSet:
    """A complete log of a random series-parallel structure.

    The first and last actions are sequential, so the structure has a single
    entry and a single exit; the log enumerates the structure's full language
    (capped, resampling oversized draws).
    """
    while True:
        n = rng.randint(3, max_actions)
        actions = [chr(ord("a") + i) for i in range(n)]
        tree = ("seq", [("leaf", actions[0]),
                        ("seq", [_sp_tree(rng, actions[1:-1]),
                                 ("leaf", actions[-1])])])
        words = sorted(sp_language(tree))
        if len(words) <= max_traces:
            return traceset(*words)


# ---------------------------------------------------------------------------
# Reachability oracle

def reachable_markings_oracle(net: PetriNet, initial: Marking,
                              max_depth: int = 200):
    """Depth-first enumeration of reachable markings.

    Returns (set of Marking, saturated); ``saturated`` is False when the
    depth cap cut any branch, in which case the set may be incomplete.
    """
    inputs = {t: [] for t in net.transitions}
    outputs = {t: [] for t in net.transitions}
    for src, dst in net.arcs:
        if dst in inputs:
            inputs[dst].append(src)
        else:
            outputs[src].append(dst)

    best_depth: dict[Marking, int] = {}
    saturated = True
    stack = [(initial, 0)]
    while stack:
        marking, depth = stack.pop()
        if marking in best_depth and best_depth[marking] <= depth:
            continue
        best_depth[marking] = depth
        if depth >= max_depth:
            saturated = False
            continue
        counts = marking.as_dict()
        for t in net.transitions:
            if all(counts.get(p, 0) >= 1 for p in inputs[t]):
                after = dict(counts)
                for p in inputs[t]:
                    after[p] -= 1
                for p in outputs[t]:
                    after[p] = after.get(p, 0) + 1
                stack.append((Marking.of(after), depth + 1))
    return set(best_depth), saturated


def random_conservative_net(rng: random.Random):
    """A small net whose transitions never create tokens, hence bounded."""
    n_places = rng.randint(2, 5)
    n_transitions = rng.randint(1, 5)
    places = [f"pl{i}" for i in range(n_places)]
    transitions = [f"t{i}" for i in range(n_transitions)]
    arcs = set()
    for t in transitions:
        ins = rng.sample(places, rng.randint(1, min(2, n_places)))
        outs = rng.sample(places, rng.randint(0, len(ins)))
        arcs.update((p, t) for p in ins)
        arcs.update((t, p) for p in outs)
    net = PetriNet(places=tuple(places), transitions=tuple(transitions),
                   arcs=tuple(arcs))
    marked = rng.sample(places, rng.randint(1, 2))
    return net, Marking.of({p: 1 for p in marked})


def random_net(rng: random.Random):
    """A small net that may hold token-generating (empty-preset) transitions.

    Such nets are often unbounded, so explore them with a small bound.
    """
    n_places = rng.randint(1, 5)
    places = [f"pl{i}" for i in range(n_places)]
    transitions = [f"t{i}" for i in range(rng.randint(1, 6))]
    arcs = set()
    for t in transitions:
        ins = rng.sample(places, rng.randint(0, min(2, n_places)))
        outs = rng.sample(places, rng.randint(0, min(2, n_places)))
        arcs.update((p, t) for p in ins)
        arcs.update((t, p) for p in outs)
    net = PetriNet(places=tuple(places), transitions=tuple(transitions),
                   arcs=tuple(arcs))
    marked = rng.sample(places, rng.randint(0, min(2, n_places)))
    return net, Marking.of({p: rng.randint(1, 2) for p in marked})


def reachability_reference(net: PetriNet, initial: Marking,
                           bound: int) -> ReachabilityGraph:
    """Breadth-first exploration that tests every transition at every marking."""
    nodes = [initial]
    seen = {initial}
    edges = []
    queue = deque([initial])
    while queue:
        marking = queue.popleft()
        for t in enabled_transitions(net, marking):
            succ = fire(net, marking, t)
            if succ not in seen:
                if len(nodes) >= bound:
                    raise BoundExceeded(bound)
                seen.add(succ)
                nodes.append(succ)
                queue.append(succ)
            edges.append((marking, t, succ))
    return ReachabilityGraph(tuple(nodes), initial, tuple(edges))


# ---------------------------------------------------------------------------
# CTL oracle: bounded path unrolling, exact at |states| steps

def ctl_oracle(k: KripkeStructure, formula: Formula) -> set:
    states = list(k.states)
    horizon = len(states)
    succs = {s: [t for _, t in k.successors[s]] for s in states}

    def holds(name: str, s) -> bool:
        return name in k.labels.get(s, frozenset())

    def sat(f: Formula) -> set:
        match f:
            case Const(value):
                return set(states) if value else set()
            case Atom(name):
                return {s for s in states if holds(name, s)}
            case Not(g):
                return set(states) - sat(g)
            case And(l, r):
                return sat(l) & sat(r)
            case Or(l, r):
                return sat(l) | sat(r)
            case Implies(l, r):
                return (set(states) - sat(l)) | sat(r)
            case EX(g):
                good = sat(g)
                return {s for s in states if any(t in good for t in succs[s])}
            case AX(g):
                good = sat(g)
                return {s for s in states if all(t in good for t in succs[s])}
            case EU(l, r):
                return _exists_until(sat(l), sat(r))
            case EF(g):
                return _exists_until(set(states), sat(g))
            case EG(g):
                return _exists_globally(sat(g))
            case AU(l, r):
                return _all_until(sat(l), sat(r))
            case AF(g):
                return _all_until(set(states), sat(g))
            case AG(g):
                return _all_globally(sat(g))
        raise TypeError(f"not a formula: {f!r}")

    def _exists_until(hold: set, goal: set) -> set:
        layer = set(goal)
        for _ in range(horizon):
            layer = goal | {s for s in hold if any(t in layer for t in succs[s])}
        return layer

    def _exists_globally(hold: set) -> set:
        # exists a path of |states| steps staying in hold -> pigeonhole lasso
        layer = set(hold)
        for _ in range(horizon):
            layer = {s for s in hold if any(t in layer for t in succs[s])}
        return layer

    def _all_until(hold: set, goal: set) -> set:
        layer = set(goal)
        for _ in range(horizon):
            layer = goal | {s for s in hold if all(t in layer for t in succs[s])}
        return layer

    def _all_globally(hold: set) -> set:
        layer = set(hold)
        for _ in range(horizon):
            layer = {s for s in hold if all(t in layer for t in succs[s])}
        return layer

    return sat(formula)


def random_kripke(rng: random.Random, max_states: int = 8,
                  atom_pool: tuple[str, ...] = ("p", "q", "r")) -> KripkeStructure:
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    successors = {}
    for s in states:
        targets = rng.sample(states, rng.randint(1, min(3, n)))
        successors[s] = tuple((f"e{i}", t) for i, t in enumerate(targets))
    labels = {s: frozenset(a for a in atom_pool if rng.random() < 0.5)
              for s in states}
    return KripkeStructure(states=states, initial=states[0],
                           successors=successors, labels=labels,
                           atoms=frozenset(atom_pool))


def random_multi_kripke(rng: random.Random, max_states: int = 40,
                        atom_pool: tuple[str, ...] = ("p", "q", "r")) -> KripkeStructure:
    """Like :func:`random_kripke`, with self-loops and parallel edges (two labels, one target)."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    successors = {}
    for i, s in enumerate(states):
        targets = rng.choices(states, k=rng.randint(1, 3))
        if rng.random() < 0.3:
            targets.append(s)
        if rng.random() < 0.3:
            targets.append(targets[0])
        successors[s] = tuple((f"e{j}", t) for j, t in enumerate(targets))
    labels = {s: frozenset(a for a in atom_pool if rng.random() < 0.5)
              for s in states}
    return KripkeStructure(states=states, initial=states[0],
                           successors=successors, labels=labels,
                           atoms=frozenset(atom_pool))


def satisfying_states_reference(k: KripkeStructure, formula: Formula,
                                stats: dict | None = None) -> frozenset:
    """Textbook labeling: EU and EG iterate a full-scan ``pre()`` to their fixpoints.

    Appends each EU/EG evaluation's number of rounds that changed the set to
    ``stats['rounds']``, in the same call order as the library.
    """
    all_states = frozenset(k.states)

    def pre(target: frozenset) -> frozenset:
        return frozenset(s for s in k.states
                         if any(t in target for _, t in k.successors[s]))

    def note_rounds(rounds: int) -> None:
        if stats is not None:
            stats.setdefault("rounds", []).append(rounds)

    def sat_eu(hold: frozenset, goal: frozenset) -> frozenset:
        current = goal
        rounds = 0
        while True:
            grown = current | (hold & pre(current))
            if grown == current:
                break
            current = grown
            rounds += 1
        note_rounds(rounds)
        return current

    def sat_eg(hold: frozenset) -> frozenset:
        current = hold
        rounds = 0
        while True:
            shrunk = current & pre(current)
            if shrunk == current:
                break
            current = shrunk
            rounds += 1
        note_rounds(rounds)
        return current

    def sat(f: Formula) -> frozenset:
        match f:
            case Const(value):
                return all_states if value else frozenset()
            case Atom(name):
                if name not in k.atoms:
                    raise UnknownAtom(name)
                return frozenset(s for s in k.states if name in k.labels.get(s, frozenset()))
            case Not(operand):
                return all_states - sat(operand)
            case And(left, right):
                return sat(left) & sat(right)
            case Or(left, right):
                return sat(left) | sat(right)
            case Implies(left, right):
                return (all_states - sat(left)) | sat(right)
            case EX(operand):
                return pre(sat(operand))
            case EU(left, right):
                return sat_eu(sat(left), sat(right))
            case EG(operand):
                return sat_eg(sat(operand))
            case EF(operand):
                return sat_eu(all_states, sat(operand))
            case AX(operand):
                return all_states - pre(all_states - sat(operand))
            case AF(operand):
                return all_states - sat_eg(all_states - sat(operand))
            case AG(operand):
                return all_states - sat_eu(all_states, all_states - sat(operand))
            case AU(left, right):
                not_right = all_states - sat(right)
                not_left = all_states - sat(left)
                bad = sat_eu(not_right, not_left & not_right) | sat_eg(not_right)
                return all_states - bad
        raise TypeError(f"not a formula: {f!r}")

    return sat(formula)


def random_formula(rng: random.Random, atoms: tuple[str, ...],
                   depth: int = 3, constants: float = 0.0) -> Formula:
    """A random formula; a leaf is ``TRUE``/``FALSE`` with probability ``constants``."""
    if depth == 0 or rng.random() < 0.2:
        if constants and rng.random() < constants:
            return Const(rng.random() < 0.5)
        return Atom(rng.choice(atoms))
    shape = rng.choice(("not", "and", "or", "implies",
                        "ex", "ef", "eg", "ax", "af", "ag", "eu", "au"))
    sub = lambda: random_formula(rng, atoms, depth - 1, constants)
    if shape == "not":
        return Not(sub())
    if shape == "and":
        return And(sub(), sub())
    if shape == "or":
        return Or(sub(), sub())
    if shape == "implies":
        return Implies(sub(), sub())
    if shape == "ex":
        return EX(sub())
    if shape == "ef":
        return EF(sub())
    if shape == "eg":
        return EG(sub())
    if shape == "ax":
        return AX(sub())
    if shape == "af":
        return AF(sub())
    if shape == "ag":
        return AG(sub())
    if shape == "eu":
        return EU(sub(), sub())
    return AU(sub(), sub())


# ---------------------------------------------------------------------------
# Reference renderers: the two separate CTL printers the library once had

def render_ctl_reference(formula: Formula) -> str:
    """The report syntax: ``E[p U q]``, unary operands bare unless binary or until."""
    def needs_parens(f: Formula) -> bool:
        return isinstance(f, (And, Or, Implies, EU, AU))

    def unary_operand(f: Formula) -> str:
        text = render_ctl_reference(f)
        return f"({text})" if needs_parens(f) else text

    match formula:
        case Const(value):
            return "TRUE" if value else "FALSE"
        case Atom(name):
            return name
        case Not(operand):
            return "!" + unary_operand(operand)
        case And(left, right):
            return f"{_bin_side(left, And, False)} & {_bin_side(right, And, True)}"
        case Or(left, right):
            return f"{_bin_side(left, Or, False)} | {_bin_side(right, Or, True)}"
        case Implies(left, right):
            return f"{_bin_side(left, Implies, False)} -> {render_ctl_reference(right)}"
        case EX(operand):
            return "EX " + unary_operand(operand)
        case EF(operand):
            return "EF " + unary_operand(operand)
        case EG(operand):
            return "EG " + unary_operand(operand)
        case AX(operand):
            return "AX " + unary_operand(operand)
        case AF(operand):
            return "AF " + unary_operand(operand)
        case AG(operand):
            return "AG " + unary_operand(operand)
        case EU(left, right):
            return f"E[{render_ctl_reference(left)} U {render_ctl_reference(right)}]"
        case AU(left, right):
            return f"A[{render_ctl_reference(left)} U {render_ctl_reference(right)}]"
    raise TypeError(f"not a formula: {formula!r}")


_PRECEDENCE = {Implies: 1, Or: 2, And: 3}


def _bin_side(f: Formula, parent: type, right_side: bool) -> str:
    text = render_ctl_reference(f)
    if type(f) in _PRECEDENCE and _PRECEDENCE[type(f)] < _PRECEDENCE[parent]:
        return f"({text})"
    if type(f) is parent and parent in (And, Or) and right_side:
        return f"({text})"
    if parent is Implies and isinstance(f, Implies):
        return f"({text})"
    return text


def render_smv_formula_reference(formula: Formula, fb: FunctionBlock,
                                 ctl: ControllerFSM) -> str:
    """The SMV syntax: ``E [ p U q ]``, atoms mapped onto the instance paths."""
    sensor_vars = set(fb.sensor_vars)
    plant_states = {s.name for s in fb.states}
    ctl_states = set(ctl.states)

    def atom_text(name: str) -> str:
        if name in sensor_vars:
            return f"plant.{name} = TRUE"
        if name.startswith("plant_state="):
            value = name[len("plant_state="):]
            if value in plant_states:
                return f"plant.state = {value}"
        if name.startswith("ctl_state="):
            value = name[len("ctl_state="):]
            if value in ctl_states:
                return f"ctl.state = {value}"
        raise UnknownAtom(name)

    def unary_operand(f: Formula) -> str:
        if isinstance(f, (Not, Const)):
            return render(f)
        return "(" + render(f) + ")"

    precedence = {Implies: 1, Or: 2, And: 3}

    def side(f: Formula, parent: type) -> str:
        text = render(f)
        if type(f) in precedence:
            if precedence[type(f)] < precedence[parent]:
                return f"({text})"
            if parent is Implies and isinstance(f, Implies):
                return f"({text})"
        return text

    def render(f: Formula) -> str:
        match f:
            case Const(value):
                return "TRUE" if value else "FALSE"
            case Atom(name):
                return atom_text(name)
            case Not(operand):
                return "!" + unary_operand(operand)
            case And(left, right):
                return f"{side(left, And)} & {side(right, And)}"
            case Or(left, right):
                return f"{side(left, Or)} | {side(right, Or)}"
            case Implies(left, right):
                return f"{side(left, Implies)} -> {render(right)}"
            case EX(op):
                return "EX " + unary_operand(op)
            case EF(op):
                return "EF " + unary_operand(op)
            case EG(op):
                return "EG " + unary_operand(op)
            case AX(op):
                return "AX " + unary_operand(op)
            case AF(op):
                return "AF " + unary_operand(op)
            case AG(op):
                return "AG " + unary_operand(op)
            case EU(left, right):
                return f"E [ {render(left)} U {render(right)} ]"
            case AU(left, right):
                return f"A [ {render(left)} U {render(right)} ]"
        raise TypeError(f"not a formula: {f!r}")

    return render(formula)


# ---------------------------------------------------------------------------
# Random plant FSMs with consistent latch valuations

PLANT_VARIABLES = ("V0", "V1")
PLANT_CONTROLS = ("CMD0", "CMD1")


def plant_action_map() -> ActionMap:
    sensors = {}
    for var in PLANT_VARIABLES:
        sensors[f"{var}_ON"] = (var, True)
        sensors[f"{var}_OFF"] = (var, False)
    return ActionMap.of(control=PLANT_CONTROLS, sensors=sensors)


def random_plant_fsm(rng: random.Random, max_states: int = 10):
    """Random FSM whose sensor edges flip exactly one latch.

    Assigning a fixed valuation per state first and labeling edges from the
    valuation difference guarantees the transformation's propagation is
    conflict-free; it also rules out spontaneous self-loops (a sensor edge
    always changes the valuation).  Every state after the first copies an
    earlier state's valuation with one latch flipped and is entered from it
    by that sensor edge, so the plant leaves its initial state on its own and
    reaches every state by spontaneous moves.
    """
    n = rng.randint(2, max_states)
    states = [f"Q{i}" for i in range(n)]
    valuations = {states[0]: {v: rng.random() < 0.5 for v in PLANT_VARIABLES}}
    edges = []
    for s in states[1:]:
        parent = rng.choice(list(valuations))
        var = rng.choice(PLANT_VARIABLES)
        valuations[s] = {**valuations[parent], var: not valuations[parent][var]}
        edges.append((parent, f"{var}_{'ON' if valuations[s][var] else 'OFF'}", s))

    def hamming(a: str, b: str) -> int:
        return sum(valuations[a][v] != valuations[b][v] for v in PLANT_VARIABLES)

    for s in states:
        candidates = [t for t in states if hamming(s, t) <= 1]
        for _ in range(rng.randint(0, 2)):
            t = rng.choice(candidates)
            changed = [v for v in PLANT_VARIABLES
                       if valuations[s][v] != valuations[t][v]]
            if changed:
                label = f"{changed[0]}_{'ON' if valuations[t][changed[0]] else 'OFF'}"
            else:
                label = rng.choice(PLANT_CONTROLS)
            edges.append((s, label, t))
    fsm = FSM(states=tuple(states), initial=states[0], edges=tuple(edges))
    return fsm, plant_action_map(), dict(valuations[states[0]])


def random_controller(rng: random.Random, fb: FunctionBlock) -> ControllerFSM:
    """Random deterministic controller over the block's crossed interface."""
    n = rng.randint(1, 4)
    states = tuple(f"C{i}" for i in range(n))
    transitions = []
    for s in states:
        for event in fb.event_outputs:
            if rng.random() < 0.7:
                output = rng.choice((None,) + tuple(fb.event_inputs)) \
                    if fb.event_inputs else None
                transitions.append((s, event, output, rng.choice(states)))
    return ControllerFSM(states=states, initial=states[0],
                         inputs=tuple(fb.event_outputs),
                         outputs=tuple(fb.event_inputs),
                         transitions=tuple(transitions))


# ---------------------------------------------------------------------------
# Plant-block reference

def _canon_valuation_reference(valuation: Mapping[str, bool]) -> tuple[tuple[str, bool], ...]:
    return tuple(sorted((var, bool(val)) for var, val in valuation.items()))


def build_plant_fb_reference(fsm: FSM, amap: ActionMap,
                             initial_valuation: Mapping[str, bool],
                             name: str = "PLANT") -> FunctionBlock:
    """The plant-model transformation with dict-based latch propagation.

    Kept to pin the block, the ``plantfb`` bytes and the state named by
    :class:`InconsistentLabeling` of the set propagation.  Only its result
    is converted to the block's form: each valuation becomes the set of the
    latches that hold.
    """
    control, sensor = classify_alphabet(fsm, amap)
    variables = sorted(initial_valuation)
    for action in sorted(sensor):
        var = amap.effect(action)[0]
        if var not in initial_valuation:
            raise ValueError(f"initial valuation missing sensor variable {var!r}")

    control_targets = {dst for _, label, dst in fsm.edges if label in control}
    incoming_sensor_labels: dict[str, set[str]] = {}
    for _, label, dst in fsm.edges:
        if label in sensor:
            incoming_sensor_labels.setdefault(dst, set()).add(label)
    hostable = {dst for dst, labels in incoming_sensor_labels.items()
                if len(labels) == 1 and dst not in control_targets}

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

    valuations: dict[str, tuple[tuple[str, bool], ...]] = {
        fsm.initial: _canon_valuation_reference(initial_valuation)}
    queue = deque([fsm.initial])
    while queue:
        current = queue.popleft()
        base = dict(valuations[current])
        for _, dst in outgoing[current]:
            derived = dict(base)
            if dst in emission:
                var, value = amap.effect(emission[dst])
                derived[var] = value
            canon = _canon_valuation_reference(derived)
            if dst == fsm.initial:
                continue
            if dst not in valuations:
                valuations[dst] = canon
                queue.append(dst)
            elif valuations[dst] != canon:
                raise InconsistentLabeling(dst)

    rest = _canon_valuation_reference(initial_valuation)
    states = tuple(EccState(s, emission.get(s),
                            frozenset(var for var, value in valuations.get(s, rest) if value))
                   for s in all_states)
    return FunctionBlock(name=name,
                         event_inputs=tuple(sorted(control)),
                         event_outputs=tuple(sorted(sensor)),
                         sensor_vars=tuple(variables),
                         states=states,
                         initial_state=fsm.initial,
                         transitions=tuple(transitions))


# ---------------------------------------------------------------------------
# Bounded trace languages

def fsm_words(fsm: FSM, depth: int) -> set[tuple]:
    outgoing: dict[str, list[tuple[str, str]]] = {}
    for src, label, dst in fsm.edges:
        outgoing.setdefault(src, []).append((label, dst))
    words = set()
    seen = set()
    stack = [(fsm.initial, ())]
    while stack:
        state, word = stack.pop()
        if (state, word) in seen:
            continue
        seen.add((state, word))
        words.add(word)
        if len(word) < depth:
            for label, target in outgoing.get(state, []):
                stack.append((target, word + (label,)))
    return words


def ecc_words(fb: FunctionBlock, depth: int) -> set[tuple]:
    """Words over consumed inputs plus announced outputs, mapped to actions.

    Announcements are the sensor action names themselves; transitions into a
    silent state contribute nothing.
    """
    outgoing: dict[str, list[tuple[str | None, str]]] = {}
    for src, guard, dst in fb.transitions:
        outgoing.setdefault(src, []).append((guard, dst))
    emission = {s.name: s.emission for s in fb.states}
    words = set()
    seen = set()
    stack = [(fb.initial_state, ())]
    while stack:
        state, word = stack.pop()
        if (state, word) in seen:
            continue
        seen.add((state, word))
        words.add(word)
        for guard, target in outgoing.get(state, []):
            symbol = guard if guard is not None else emission[target]
            new_word = word + (symbol,) if symbol is not None else word
            if len(new_word) <= depth:
                stack.append((target, new_word))
    return words


# ---------------------------------------------------------------------------
# Concurrent plants built as nets

def _cylinder_tags(m: int) -> list[str]:
    return [chr(ord("A") + i) for i in range(m)]


def _cylinder_cycle(tag: str) -> list[str]:
    """The fixture cylinder's cycle of actions, for cylinder ``tag``."""
    return [f"EXT_{tag}", f"HOME_{tag}_OFF", f"END_{tag}_ON",
            f"RET_{tag}", f"END_{tag}_OFF", f"HOME_{tag}_ON"]


def _cylinder_signals(tags: list[str]) -> tuple[dict[str, tuple[str, bool]], list[str]]:
    """Sensor actions ``HOME_x_ON`` ... ``END_x_OFF`` with their latch effects, and commands."""
    sensors, commands = {}, []
    for tag in tags:
        for var in ("HOME", "END"):
            sensors[f"{var}_{tag}_ON"] = (f"{var}_{tag}", True)
            sensors[f"{var}_{tag}_OFF"] = (f"{var}_{tag}", False)
        commands += [f"EXT_{tag}", f"RET_{tag}"]
    return sensors, commands


def cylinder_net(m: int) -> tuple[PetriNet, Marking]:
    """The marked net of :func:`independent_cylinders`: one ring per cylinder.

    Cylinder ``A``, ``B``, ... has one place after each action of the fixture
    cycle and is marked before ``HOME_x_ON``, so that no latch starts set.
    The rings share nothing, so the net reaches 6^m markings.
    """
    places, transitions, arcs, marked = [], [], [], {}
    for tag in _cylinder_tags(m):
        cycle = _cylinder_cycle(tag)
        for i, action in enumerate(cycle):
            places.append(f"{tag}{i}")
            arcs += [(action, f"{tag}{i}"), (f"{tag}{i}", cycle[(i + 1) % len(cycle)])]
        transitions += cycle
        marked[f"{tag}4"] = 1
    return PetriNet(tuple(places), tuple(transitions), tuple(arcs)), Marking.of(marked)


def independent_cylinders(m: int) -> tuple[FunctionBlock, ControllerFSM]:
    """m fixture cylinders side by side under a one-state reactive controller.

    The plant is the block of :func:`cylinder_net`'s reachability graph.  The
    controller consumes every sensor event and answers ``HOME_x_ON`` with
    ``EXT_x`` and ``END_x_ON`` with ``RET_x``.
    """
    tags = _cylinder_tags(m)
    sensors, commands = _cylinder_signals(tags)
    moves = []
    for tag in tags:
        moves += [("C0", f"HOME_{tag}_ON", f"EXT_{tag}", "C0"),
                  ("C0", f"HOME_{tag}_OFF", None, "C0"),
                  ("C0", f"END_{tag}_ON", f"RET_{tag}", "C0"),
                  ("C0", f"END_{tag}_OFF", None, "C0")]
    graph = reachability_graph(*cylinder_net(m))
    fb = build_plant_fb(fsm_from_graph(graph),
                        ActionMap.of(control=tuple(commands), sensors=sensors),
                        {var: False for var, _ in sensors.values()}, name="CYLINDERS")
    controller = ControllerFSM(states=("C0",), initial="C0", inputs=tuple(sensors),
                               outputs=tuple(commands), transitions=tuple(moves))
    return fb, controller


def transfer_line(k: int) -> tuple[FunctionBlock, ControllerFSM]:
    """k fixture cylinders ``A``, ``B``, ... on one ring, each extending after its predecessor is home.

    The net is a single cycle through every cylinder's fixture actions in
    turn, with one place after each action, marked after the last cylinder's
    ``HOME_ON`` with every HOME latch set.  The controller has four states
    per cylinder: it extends a cylinder once its predecessor (the last, for
    ``A``) reports HOME, and retracts it on its END.  Every cylinder keeps
    HOME and END exclusive, ``A`` can always return home, and the last
    cylinder does extend, so ``AG !END_last`` fails down the whole line.
    """
    tags = _cylinder_tags(k)
    ring = [action for tag in tags for action in _cylinder_cycle(tag)]
    places = [f"p{i}" for i in range(len(ring))]
    arcs = [arc for i, action in enumerate(ring)
            for arc in ((action, places[i]), (places[i], ring[(i + 1) % len(ring)]))]
    sensors, commands = _cylinder_signals(tags)
    states, moves = [], []
    for i, tag in enumerate(tags):
        own = [f"C_{tag}_{j}" for j in range(4)]
        states += own
        moves += [(own[0], f"HOME_{tags[i - 1]}_ON", f"EXT_{tag}", own[1]),
                  (own[1], f"HOME_{tag}_OFF", None, own[2]),
                  (own[2], f"END_{tag}_ON", f"RET_{tag}", own[3]),
                  (own[3], f"END_{tag}_OFF", None, f"C_{tags[(i + 1) % k]}_0")]
    graph = reachability_graph(PetriNet(tuple(places), tuple(ring), tuple(arcs)),
                               Marking.of({places[-1]: 1}))
    fb = build_plant_fb(fsm_from_graph(graph),
                        ActionMap.of(control=tuple(commands), sensors=sensors),
                        {var: var.startswith("HOME_") for var, _ in sensors.values()},
                        name="LINE")
    controller = ControllerFSM(states=tuple(states), initial=states[0], inputs=tuple(sensors),
                               outputs=tuple(commands), transitions=tuple(moves))
    return fb, controller


# ---------------------------------------------------------------------------
# Event-log references: timestamps formatted per event with strftime, names
# quoted per event (the exporters before stamp texts were stored)

def parse_timestamp_reference(text: str) -> datetime:
    """Parse an ISO-8601 instant and normalize it to UTC.

    A trailing ``Z`` is accepted as the UTC designator; naive timestamps are
    rejected because they do not denote an unambiguous instant.
    """
    raw = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    stamp = datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return stamp.astimezone(timezone.utc)


def format_timestamp_reference(stamp: datetime) -> str:
    """Render a UTC instant in the log's ISO-8601 style (millisecond precision at most).

    The milliseconds are printed only when they are non-zero, so the text
    names one millisecond instant.  glibc's ``%Y`` does not pad years before
    1000 to four digits.
    """
    stamp = stamp.astimezone(timezone.utc)
    if stamp.microsecond // 1000:
        return stamp.strftime("%Y-%m-%dT%H:%M:%S.") + f"{stamp.microsecond // 1000:03d}Z"
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def reprint_stamp_reference(text: str) -> str:
    """A stored stamp text read back and printed again by the references."""
    return format_timestamp_reference(parse_timestamp_reference(text))


def export_csv_reference(log: tuple[Event, ...]) -> str:
    """Render an event log back to the CSV schema (LF endings, trailing newline)."""
    lines = [",".join(CSV_HEADER)]
    for process_id, stamp, component, action in log:
        lines.append(",".join((process_id, reprint_stamp_reference(stamp), component, action)))
    return "\n".join(lines) + "\n"


def export_xes_reference(traces: TraceSet) -> str:
    """Render a trace set as a minimal XES document, four list entries per event."""
    # Imported here, its only user: xml.sax.saxutils loads urllib, http,
    # email and ssl, which no other helper needs.
    from xml.sax.saxutils import quoteattr

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">']
    for trace in traces.traces:
        lines.append("  <trace>")
        lines.append(f'    <string key="concept:name" value={quoteattr(trace.process_id)}/>')
        for index, action in enumerate(trace.actions):
            lines.append("    <event>")
            lines.append(f'      <string key="concept:name" value={quoteattr(action)}/>')
            if trace.timestamps is not None:
                stamp = reprint_stamp_reference(trace.timestamps[index])
                lines.append(f'      <date key="time:timestamp" value={quoteattr(stamp)}/>')
            lines.append("    </event>")
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines) + "\n"


def random_stamp(rng: random.Random, min_year: int = 1000) -> str:
    """An ISO-8601 instant in one of the shapes ``parse_csv`` accepts.

    Calendar, week and basic dates; ``T`` or space separators; minutes
    with or without seconds; 0 to 6 fraction digits; ``Z``, ``z`` or a
    numeric offset.
    """
    moment = datetime(rng.randint(min_year, 9998), 1, 1) + timedelta(
        days=rng.randrange(365), seconds=rng.randrange(86400))
    shape = rng.choice(("calendar", "calendar", "calendar", "week", "basic"))
    if shape == "week":
        year, week, weekday = moment.isocalendar()
        date = f"{year:04d}-W{week:02d}-{weekday}"
    elif shape == "basic":
        date = f"{moment.year:04d}{moment.month:02d}{moment.day:02d}"
    else:
        date = f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}"
    colon = "" if shape == "basic" else ":"
    time = f"{moment.hour:02d}{colon}{moment.minute:02d}"
    if rng.random() < 0.9:
        time += f"{colon}{moment.second:02d}"
        digits = rng.choice((0, 0, 0, 3, 3, 1, 2, 4, 5, 6))
        if digits:
            fraction = rng.choice(("0" * digits, "".join(rng.choice("0123456789")
                                                         for _ in range(digits))))
            time += "." + fraction
    zone = rng.choice(("Z", "Z", "z", "+00:00",
                       f"{rng.choice('+-')}{rng.randint(0, 14):02d}:{rng.choice((0, 30, 45)):02d}"))
    return f"{date}{rng.choice('TT ')}{time}{zone}"
