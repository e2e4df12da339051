"""Built-in explicit-state closed-loop verification.

The plant function block and a deterministic controller are composed into a
finite Kripke structure under pending-event semantics: at most one event is
in flight, the plant moves spontaneously only while no event is pending, and
a pending event is consumed by its addressee before anything else happens.
CTL properties are then checked by worklist labeling in the manner of Clarke,
Emerson and Sistla (TOPLAS 1986) on byte-vector state sets: predecessor lists
of state indexes are built once with the structure, EX is a union over
predecessors, EU/EF a backward breadth-first search and EG a successor-count
worklist, so each operator costs O(|S|+|R|).
The breadth-first walk :func:`plantmine.petri.explore` builds the product and
finds each failing AG property's shortest counterexample path.  One renderer
prints formulas both for the report (:func:`render_ctl`) and, with NuSMV's
spelling and atoms, for the ``CTLSPEC`` lines of :mod:`plantmine.smv`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, repeat
from operator import contains
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (AlphabetMismatch, NondeterministicController, ParseError,
                     UndeclaredEvent, UnknownAtom)
from .eventlog import NAME_RE
from .petri import DEFAULT_BOUND, explore
from .transform import FunctionBlock

STUTTER = "stutter"


# ---------------------------------------------------------------------------
# Controller model

@dataclass(frozen=True)
class ControllerFSM:
    """Deterministic Mealy-style controller: on one input event, optionally emit one output.

    Its constructor sorts every collection and checks every name, as ``FunctionBlock``'s does.
    """

    states: tuple[str, ...]
    initial: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    transitions: tuple[tuple[str, str, str | None, str], ...]
    _table: dict[tuple[str, str], tuple[str | None, str]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate controller states")
        object.__setattr__(self, "states", tuple(sorted(state_set)))
        object.__setattr__(self, "inputs", tuple(sorted(set(self.inputs))))
        object.__setattr__(self, "outputs", tuple(sorted(set(self.outputs))))
        object.__setattr__(self, "transitions",
                           tuple(sorted(set(tuple(t) for t in self.transitions),
                                        key=lambda t: (t[0], t[1]))))
        for name in self.states + self.inputs + self.outputs:
            if not NAME_RE.match(name):
                raise ValueError(f"invalid name {name!r}")
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial!r} not declared")
        if set(self.inputs) & set(self.outputs):
            raise ValueError("controller inputs and outputs overlap")
        table = {}
        for state, event, output, target in self.transitions:
            if state not in state_set or target not in state_set:
                raise ValueError(f"transition references unknown state: {state}->{target}")
            if event not in self.inputs:
                raise UndeclaredEvent(event)
            if output is not None and output not in self.outputs:
                raise UndeclaredEvent(output)
            if (state, event) in table:
                raise NondeterministicController(state, event)
            table[state, event] = (output, target)
        object.__setattr__(self, "_table", table)

    def step(self, state: str, event: str) -> tuple[str | None, str] | None:
        """Output event (or None) and target state, or None when the event is ignored."""
        return self._table.get((state, event))


_TRANSITION_RE = re.compile(
    r"([A-Za-z0-9_]+)\s+--([A-Za-z0-9_]+)/([A-Za-z0-9_]*)-->\s+([A-Za-z0-9_]+)\Z")


def parse_controller(text: str) -> ControllerFSM:
    """Parse the controller text format.

    Declarations first (``states:``, ``initial:``, ``inputs:``, ``outputs:``,
    each once), then one transition per line, ``C0 --HOME_ON/EXT--> C1`` with
    the output event optional (``C1 --HOME_OFF/--> C2``).
    """
    decls: dict[str, list[str]] = {}
    transitions: list[tuple[str, str, str | None, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if sep and head in ("states", "initial", "inputs", "outputs"):
            if head in decls:
                raise ParseError(line_no, f"second {head!r} declaration")
            decls[head] = rest.split()
            continue
        m = _TRANSITION_RE.match(line)
        if not m:
            raise ParseError(line_no, f"unrecognized line {line!r}")
        src, event, output, target = m.groups()
        transitions.append((src, event, output or None, target))

    for key in ("states", "initial", "inputs", "outputs"):
        if key not in decls:
            raise ParseError(0, f"missing declaration {key!r}")
    if len(decls["initial"]) != 1:
        raise ParseError(0, "exactly one initial state expected")
    try:
        return ControllerFSM(states=tuple(decls["states"]),
                             initial=decls["initial"][0],
                             inputs=tuple(decls["inputs"]),
                             outputs=tuple(decls["outputs"]),
                             transitions=tuple(transitions))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


# ---------------------------------------------------------------------------
# Closed-loop composition

class CompositeState(NamedTuple):
    plant: str
    ctl: str
    pending: str | None

    def __str__(self) -> str:
        return f"plant={self.plant} ctl={self.ctl} pending={self.pending or '-'}"


class Diagnostic(NamedTuple):
    kind: str  # "ignored_event" | "dropped_command"
    state: CompositeState
    event: str


def _check_wiring(plant: FunctionBlock, ctl: ControllerFSM) -> None:
    same_direction_out = set(ctl.outputs) & set(plant.event_outputs)
    same_direction_in = set(ctl.inputs) & set(plant.event_inputs)
    if same_direction_out or same_direction_in:
        raise AlphabetMismatch(
            f"events claimed in the same direction by both sides: "
            f"outputs {sorted(same_direction_out)}, inputs {sorted(same_direction_in)}")


@dataclass(frozen=True)
class KripkeStructure:
    """Total transition system with propositional labels.

    ``successors`` maps each state to its outgoing (edge label, target)
    pairs in a fixed order; every state has at least one successor.  A state
    with no ``labels`` entry carries no labels.
    """

    states: tuple
    initial: object
    successors: Mapping
    labels: Mapping
    atoms: frozenset[str]
    diagnostics: tuple[Diagnostic, ...] = ()
    # by state index; one predecessor entry per edge, so parallel edges repeat
    _predecessors: list[list[int]] = field(init=False, repr=False, compare=False)
    _label_list: list[frozenset] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {state: i for i, state in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate states")
        if self.initial not in index:
            raise ValueError("initial state missing from state set")
        predecessors: list[list[int]] = [[] for _ in self.states]
        label_list = [self.labels.get(state, frozenset()) for state in self.states]
        for i, (state, labels) in enumerate(zip(self.states, label_list)):
            succs = self.successors.get(state, ())
            if not succs:
                raise ValueError(f"state {state!r} has no successor")
            for _, target in succs:
                if target not in index:
                    raise ValueError(f"successor of {state!r} outside the state set")
                predecessors[index[target]].append(i)
            if not labels <= self.atoms:
                raise ValueError(f"labels of {state!r} not declared as atoms")
        object.__setattr__(self, "_predecessors", predecessors)
        object.__setattr__(self, "_label_list", label_list)


def compose(plant: FunctionBlock, ctl: ControllerFSM,
            bound: int = DEFAULT_BOUND) -> KripkeStructure:
    """Build the pending-event product of a plant block and a controller.

    From (p, c, none) the plant may stutter or take any spontaneous
    transition, making its target's announcement pending.  A pending sensor
    event is offered to the controller: consumed it yields the controller's
    output as the new pending event, unconsumed it is dropped with an
    ``ignored_event`` diagnostic.  A pending control event is executed by the
    plant when some input-guarded transition matches, otherwise dropped with
    a ``dropped_command`` diagnostic.  The structure is total by
    construction.

    The wiring is crossed: controller inputs listen to plant outputs and
    controller outputs drive plant inputs.  A controller event the plant does
    not implement is tolerated (it never fires, or surfaces as a diagnostic);
    an event claimed in the same direction by both sides is a real wiring
    error and raises :class:`AlphabetMismatch`.

    Raises :class:`BoundExceeded` as soon as more than ``bound`` composite
    states would be recorded.
    """
    _check_wiring(plant, ctl)

    atoms = set(plant.sensor_vars)
    atoms.update(f"plant_state={s.name}" for s in plant.states)
    atoms.update(f"ctl_state={c}" for c in ctl.states)

    def labels_of(state: CompositeState) -> frozenset[str]:
        return plant.state(state.plant).valuation | {f"plant_state={state.plant}",
                                                     f"ctl_state={state.ctl}"}

    def successors_of(state: CompositeState) -> tuple[tuple[str, CompositeState], ...]:
        p, c, pending = state
        moves: list[tuple[str, CompositeState]] = []
        if pending is None:
            for target in plant.ndt_edges(p):
                emitted = plant.emission(target)
                label = f"ndt/{emitted}" if emitted else "ndt/-"
                moves.append((label, CompositeState(target, c, emitted)))
            moves.append((STUTTER, state))
        elif pending in plant.event_outputs:
            step = ctl.step(c, pending)
            if step is None:
                diagnostics.add(Diagnostic("ignored_event", state, pending))
                moves.append((f"ignored {pending}", CompositeState(p, c, None)))
            else:
                output, target = step
                moves.append((f"{pending}/{output or '-'}",
                              CompositeState(p, target, output)))
        else:  # pending control command
            targets = plant.control_edges(p, pending)
            if not targets:
                diagnostics.add(Diagnostic("dropped_command", state, pending))
                moves.append((f"dropped {pending}", CompositeState(p, c, None)))
            else:
                for target in targets:
                    moves.append((f"exec {pending}",
                                  CompositeState(target, c, plant.emission(target))))
        return tuple(moves)

    diagnostics: set[Diagnostic] = set()
    initial = CompositeState(plant.initial_state, ctl.initial,
                             plant.emission(plant.initial_state))
    successors = dict(explore(initial, successors_of, bound))
    ordered_diags = tuple(sorted(diagnostics, key=lambda d: (d.kind, str(d.state), d.event)))
    return KripkeStructure(states=tuple(successors), initial=initial,
                           successors=successors,
                           labels={state: labels_of(state) for state in successors},
                           atoms=frozenset(atoms), diagnostics=ordered_diags)


# ---------------------------------------------------------------------------
# CTL formulas

class Formula:
    """Base class for CTL abstract syntax nodes."""


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Unary(Formula):
    operand: Formula


@dataclass(frozen=True)
class Binary(Formula):
    left: Formula
    right: Formula


# The operators add no field: equality, hash, repr, match arguments and
# pickling come from their shape's dataclass, and equality checks the class.
class Not(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class EX(Unary):
    pass


class EF(Unary):
    pass


class EG(Unary):
    pass


class EU(Binary):
    pass


class AX(Unary):
    pass


class AF(Unary):
    pass


class AG(Unary):
    pass


class AU(Binary):
    pass


# Each unary temporal operator is spelled as its class name, for parsing and
# rendering alike; "G" is accepted as a spelling of AG.
_PREFIX = {op.__name__: op for op in (EX, EF, EG, AX, AF, AG)} | {"G": AG, "!": Not}
# symbol, precedence (loosest first, counted from 1), right-associative
_BINARY = {Implies: ("->", 1, True), Or: ("|", 2, False), And: ("&", 3, False)}
_BY_PRECEDENCE = {rank: (op, symbol, right) for op, (symbol, rank, right) in _BINARY.items()}

# Deepest syntax tree, and nesting of operators and brackets, parse_ctl accepts.
# Per level the parser recurses at most four frames (a bracket), the renderers
# two and satisfying_states one: well under Python's default recursion limit.
MAX_CTL_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(->|[!&|()\[\]=]|[A-Za-z0-9_]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(len(text) - len(rest), f"unexpected character {rest[0]!r}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _CtlParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # operand() calls under way: operators and brackets open, plus one

    def peek(self) -> str | None:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.index][1] if self.index < len(self.tokens) else len(self.text)

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError(len(self.text), "unexpected end of formula")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        if self.peek() != token:
            raise ParseError(self.pos(), f"expected {token!r}")
        self.index += 1

    def parse(self) -> Formula:
        formula = self.binary()
        if self.peek() is not None:
            raise ParseError(self.pos(), f"trailing input {self.peek()!r}")
        depth, layer = 0, [formula]  # by layers: long & | -> chains are never on the stack
        while layer:
            depth += 1
            layer = [c for f in layer for c in vars(f).values() if isinstance(c, Formula)]
        if depth > MAX_CTL_DEPTH:
            raise ParseError(0, f"formula nested deeper than {MAX_CTL_DEPTH} levels")
        return formula

    def binary(self, precedence: int = 1) -> Formula:
        """A chain of the binary operator at ``precedence``; its operands bind tighter."""
        op, symbol, right_assoc = _BY_PRECEDENCE[precedence]
        parts = []
        while True:
            parts.append(self.binary(precedence + 1) if precedence < len(_BINARY)
                         else self.operand())
            if self.peek() != symbol:
                break
            self.take()
        if right_assoc:
            return reduce(lambda right, left: op(left, right), reversed(parts))
        return reduce(op, parts)

    def operand(self) -> Formula:
        token = self.peek()
        self.depth += 1
        if self.depth > MAX_CTL_DEPTH:
            raise ParseError(self.pos(), f"formula nested deeper than {MAX_CTL_DEPTH} levels")
        if token is None:
            raise ParseError(self.pos(), "unexpected end of formula")
        if token != "(" and token not in _PREFIX and not NAME_RE.match(token):
            raise ParseError(self.pos(), f"unexpected token {token!r}")
        self.take()
        if token in _PREFIX:
            formula = _PREFIX[token](self.operand())
        elif token in ("A", "E"):
            self.expect("[")
            left = self.binary()
            self.expect("U")
            right = self.binary()
            self.expect("]")
            formula = AU(left, right) if token == "A" else EU(left, right)
        elif token == "(":
            formula = self.binary()
            self.expect(")")
        elif token in ("TRUE", "FALSE"):
            formula = Const(token == "TRUE")
        elif self.peek() != "=":
            formula = Atom(token)
        else:  # a comparison: X = TRUE, X = FALSE or X = Y
            self.take()
            value = self.take()
            if value == "TRUE":
                formula = Atom(token)
            elif value == "FALSE":
                formula = Not(Atom(token))
            elif NAME_RE.match(value):
                formula = Atom(f"{token}={value}")
            else:
                raise ParseError(self.pos(), f"bad comparison value {value!r}")
        self.depth -= 1
        return formula


def parse_ctl(text: str) -> Formula:
    """Parse a CTL formula.

    ``G`` is accepted as a spelling of ``AG``; ``X = TRUE`` comparisons
    normalize to the bare proposition, ``X = FALSE`` to its negation, and
    ``X = Y`` to the compound proposition ``X=Y``.  Formulas nested deeper
    than :data:`MAX_CTL_DEPTH` raise :class:`ParseError`.
    """
    return _CtlParser(text).parse()


class _Syntax(NamedTuple):
    """What the report's CTL text and NuSMV's spell differently."""

    until: str  # format of E/A until, given the quantifier and both operands
    bare: tuple[type, ...]  # unary operands printed without parentheses
    group_right: bool  # parenthesize a right operand of the same & or |


_TEXT = _Syntax("{}[{} U {}]", (Const, Atom, Unary), True)


def _render(formula: Formula, atom_text: Callable[[str], str], syntax: _Syntax) -> str:
    def unary(f: Formula) -> str:
        text = render(f)
        return text if isinstance(f, syntax.bare) else f"({text})"

    def side(f: Formula, parent: type, right_side: bool) -> str:
        # Parenthesize the sides that would parse back differently under the
        # operators' precedence and associativity.
        text = render(f)
        if type(f) in _BINARY and (
                _BINARY[type(f)][1] < _BINARY[parent][1]
                or type(f) is parent and (not right_side if _BINARY[parent][2]
                                          else right_side and syntax.group_right)):
            return f"({text})"
        return text

    def render(f: Formula) -> str:
        match f:
            case Const(value):
                return "TRUE" if value else "FALSE"
            case Atom(name):
                return atom_text(name)
            case Not(inner):
                return "!" + unary(inner)
            case Unary(inner):
                return f"{type(f).__name__} {unary(inner)}"
            case EU(left, right) | AU(left, right):
                return syntax.until.format(type(f).__name__[0], render(left), render(right))
            case Binary(left, right):
                return (f"{side(left, type(f), False)} {_BINARY[type(f)][0]} "
                        f"{side(right, type(f), True)}")
        raise TypeError(f"not a formula: {f!r}")

    return render(formula)


def render_ctl(formula: Formula) -> str:
    """Canonical text rendering, parseable back by :func:`parse_ctl`."""
    return _render(formula, str, _TEXT)


# ---------------------------------------------------------------------------
# CTL model checking

class PathStep(NamedTuple):
    event: str | None  # edge label taken to reach the state; None on the first step
    state: object


@dataclass(frozen=True)
class Verdict:
    holds: bool
    counterexample: tuple[PathStep, ...] | None = None


def satisfying_states(k: KripkeStructure, formula: Formula,
                      stats: dict | None = None) -> frozenset:
    """The set of states satisfying ``formula``.

    Checking uses the adequate set {EX, EU, EG}; the remaining operators are
    rewritten by duality.  Each operator is labeled in O(|S|+|R|) over the
    structure's predecessor lists: EX is the union of the predecessors of
    its operand's states, EU grows the goal backwards through ``hold`` one
    breadth-first layer at a time, and EG drops, layer by layer, the states
    of ``hold`` whose count of successors inside ``hold`` reaches zero.

    Every set on the way is an ``int`` with one byte, 0 or 1, per state in
    ``k.states`` order, little-endian.  Bytes, not bits, make an atom and the
    frozenset result single C-level passes, at |S| bytes per set; ``!``,
    ``&``, ``|`` and ``->`` are one integer operation.

    When ``stats`` is given, every EU/EG evaluation appends its number of
    rounds to ``stats['rounds']``: the non-empty layers it added (EU, not
    counting the goal itself) or removed (EG).  A round is one step of the
    textbook fixpoint iteration that changes the set, so the counts are
    those of iterating ``pre()`` to the fixpoint.
    """
    n = len(k.states)
    ones = int.from_bytes(b"\x01" * n, "little")
    predecessors = k._predecessors

    def members(x: int) -> Iterator[int]:
        return compress(range(n), x.to_bytes(n, "little"))

    def sources(targets: Iterable[int]) -> Iterator[int]:
        return chain.from_iterable(map(predecessors.__getitem__, targets))  # one per edge

    def pre(x: int) -> int:
        found = set(sources(members(x)))
        return int.from_bytes(bytes(map(found.__contains__, range(n))), "little")

    def note_rounds(rounds: int) -> None:
        if stats is not None:
            stats.setdefault("rounds", []).append(rounds)

    def sat_eu(hold: int, goal: int) -> int:
        seen = bytearray(((ones ^ hold) | goal).to_bytes(n, "little"))  # outside hold: never added
        layer = list(members(goal))
        rounds = 0
        while layer:
            grown = []
            for s in sources(layer):
                if not seen[s]:
                    seen[s] = 1
                    grown.append(s)
            rounds += bool(grown)
            layer = grown
        note_rounds(rounds)
        return int.from_bytes(seen, "little") & (hold | goal)

    def sat_eg(hold: int) -> int:
        count = Counter(sources(members(hold)))  # successors inside hold, one per edge
        alive = bytearray(hold.to_bytes(n, "little"))
        layer = [s for s in members(hold) if not count[s]]
        rounds = 0
        while layer:
            rounds += 1
            for s in layer:
                alive[s] = 0
            dropped = []
            for s in sources(layer):
                if alive[s]:
                    count[s] -= 1
                    if not count[s]:
                        dropped.append(s)
            layer = dropped
        note_rounds(rounds)
        return int.from_bytes(alive, "little")

    def sat(f: Formula) -> int:
        match f:
            case Const(value):
                return ones if value else 0
            case Atom(name):
                if name not in k.atoms:
                    raise UnknownAtom(name)
                return int.from_bytes(bytes(map(contains, k._label_list, repeat(name))),
                                      "little")
            case Not(operand):
                return ones ^ sat(operand)
            case And(left, right):
                return sat(left) & sat(right)
            case Or(left, right):
                return sat(left) | sat(right)
            case Implies(left, right):
                return (ones ^ sat(left)) | sat(right)
            case EX(operand):
                return pre(sat(operand))
            case EU(left, right):
                return sat_eu(sat(left), sat(right))
            case EG(operand):
                return sat_eg(sat(operand))
            case EF(operand):
                return sat_eu(ones, sat(operand))
            case AX(operand):
                return ones ^ pre(ones ^ sat(operand))
            case AF(operand):
                return ones ^ sat_eg(ones ^ sat(operand))
            case AG(operand):
                return ones ^ sat_eu(ones, ones ^ sat(operand))
            case AU(left, right):
                not_right = ones ^ sat(right)
                not_left = ones ^ sat(left)
                return ones ^ (sat_eu(not_right, not_left & not_right) | sat_eg(not_right))
        raise TypeError(f"not a formula: {f!r}")

    return frozenset(compress(k.states, sat(formula).to_bytes(n, "little")))


def _shortest_violation(k: KripkeStructure, good: frozenset) -> tuple[PathStep, ...] | None:
    """Breadth-first path from the initial state to the nearest state outside ``good``, if any."""
    if len(good) == len(k.states):  # no state is outside: nothing to search
        return None
    # States come in discovery order, so the first one outside good is a
    # nearest, and setdefault keeps each state's first discoverer.
    parents: dict = {k.initial: (None, None)}
    for state, out in explore(k.initial, k.successors.__getitem__, len(k.states)):
        if state not in good:
            steps: list[PathStep] = []
            while state is not None:
                parent, label = parents[state]
                steps.append(PathStep(label, state))
                state = parent
            return tuple(reversed(steps))
        for label, target in out:
            parents.setdefault(target, (state, label))
    return None  # every state outside good is unreachable


def check_ctl(k: KripkeStructure, formula: Formula) -> Verdict:
    """Check a CTL formula on a Kripke structure.

    The verdict holds iff the initial state satisfies the formula.  A
    top-level AG holds iff no state outside its operand's states is
    reachable, and fails with a shortest path to one as the counterexample;
    other failing shapes report no witness.
    """
    if isinstance(formula, AG):
        path = _shortest_violation(k, satisfying_states(k, formula.operand))
        return Verdict(path is None, path)
    return Verdict(k.initial in satisfying_states(k, formula))
