"""Alpha-algorithm process discovery and token-replay conformance.

The miner derives the classic ordering relations from direct successions in
the log, finds the maximal causal set pairs as the maximal cliques of one
graph over input and output actions, and assembles a workflow net with one
synthetic source and sink place.  Token replay then validates that the mined
net can actually reproduce the log it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyLog, EmptyTrace, NoBoundary, UnknownAction
from .eventlog import Trace, TraceSet
from .petri import Marking, PetriNet

SOURCE_PLACE = "source"
SINK_PLACE = "sink"


class Relation(Enum):
    CAUSALITY = "->"
    REVERSE = "<-"
    PARALLEL = "||"
    UNRELATED = "#"


@dataclass(frozen=True)
class FootprintMatrix:
    """Ordering relations between actions, derived from direct successions.

    ``a -> b`` iff a is directly followed by b somewhere but never the other
    way around; both directions make the pair parallel; neither makes it
    unrelated.
    """

    alphabet: tuple[str, ...]
    direct_succession: frozenset[tuple[str, str]]

    def relation(self, a: str, b: str) -> Relation:
        ab = (a, b) in self.direct_succession
        ba = (b, a) in self.direct_succession
        if ab and ba:
            return Relation.PARALLEL
        if ab:
            return Relation.CAUSALITY
        if ba:
            return Relation.REVERSE
        return Relation.UNRELATED


def footprint(traces: TraceSet) -> FootprintMatrix:
    """Compute the footprint matrix of a trace set from its variants."""
    if not traces.traces:
        raise EmptyLog()
    succession = frozenset((a, b) for actions in traces.variants
                           for a, b in zip(actions, actions[1:]))
    return FootprintMatrix(tuple(sorted(traces.alphabet)), succession)


def causal_pairs(fp: FootprintMatrix) -> set[tuple[str, str]]:
    """The action pairs (a, b) with a -> b where neither action loops on itself."""
    looping = {a for a, b in fp.direct_succession if a == b}
    return {(a, b) for a, b in fp.direct_succession
            if (b, a) not in fp.direct_succession and not {a, b} & looping}


def maximal_pairs(fp: FootprintMatrix) -> set[tuple[frozenset[str], frozenset[str]]]:
    """The componentwise-maximal causal pairs; each one becomes a place.

    They are the maximal cliques with both sides non-empty of one graph: the
    vertices (A, a) and (B, b) of each causal pair (a, b) (an action in none
    sits in no pair), an edge between same-side vertices whose
    actions are unrelated, and one between (A, a) and (B, b) when a -> b.
    Adding a vertex to a pair grows one of its sides, so a clique is maximal
    exactly when its pair is; ``a -> a`` is impossible, so no action sits on
    both sides.  Bron-Kerbosch with Tomita pivoting runs over bit masks ((A, a)
    at bit i, (B, a) at bit n + i) on an explicit stack, as a wide alphabet
    would exceed the recursion limit.  The cost follows the number of maximal
    pairs, not the 2^n subsets of the alphabet, but an adversarial footprint
    can still have exponentially many of them.
    """
    n, index = len(fp.alphabet), {a: i for i, a in enumerate(fp.alphabet)}
    edges = [(index[a], index[b]) for a, b in causal_pairs(fp)]
    sides = sum({1 << a for a, _ in edges}), sum({1 << b + n for _, b in edges})
    unrelated = [(1 << n) - 1 & ~(1 << i) for i in range(n)]
    for x, y in fp.direct_succession:
        unrelated[index[x]] &= ~(1 << index[y])
        unrelated[index[y]] &= ~(1 << index[x])
    adjacent = [u & sides[0] for u in unrelated] + [u << n & sides[1] for u in unrelated]
    for a, b in edges:
        adjacent[a] |= 1 << b + n
        adjacent[b + n] |= 1 << a

    def members(mask: int):
        while mask:
            yield (mask & -mask).bit_length() - 1
            mask &= mask - 1

    found, stack = set(), [(0, sides[0] | sides[1], 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not all((clique | candidates) & side for side in sides):
            continue  # every clique of this branch lacks a side
        if not candidates | excluded:
            found.add(tuple(frozenset(fp.alphabet[i % n] for i in members(clique & side))
                            for side in sides))
            continue
        pivot, best = 0, -1  # most neighbours among the candidates; stop at the bound
        for u in members(excluded | candidates):
            degree = (candidates & adjacent[u]).bit_count()
            if degree > best:
                pivot, best = u, degree
                if degree >= candidates.bit_count() - 1:
                    break
        for v in members(candidates & ~adjacent[pivot]):
            stack.append((clique | 1 << v, candidates & adjacent[v], excluded & adjacent[v]))
            candidates &= ~(1 << v)
            excluded |= 1 << v
    return found


def place_id(a_set: frozenset[str], b_set: frozenset[str]) -> str:
    """Deterministic place id for a causal pair.

    Action names never contain dots, so joining the two sorted sides with
    ``..`` is unambiguous.
    """
    return "p." + ".".join(sorted(a_set)) + ".." + ".".join(sorted(b_set))


def alpha_discover(traces: TraceSet) -> PetriNet:
    """Mine a workflow net from a trace set with the alpha algorithm.

    Only the log's variants are read; the relations are set-level, so the
    mined net is independent of trace order and multiplicity.  The net gets a
    designated ``source`` place feeding every trace-initial action and a
    ``sink`` place fed by every trace-final action.
    """
    if not traces.traces:
        raise EmptyLog()
    if () in traces.variants:
        raise EmptyTrace(traces.variants[()][0].process_id)
    if {SOURCE_PLACE, SINK_PLACE} & traces.alphabet:
        raise ValueError("actions named 'source'/'sink' clash with boundary places")

    first = {actions[0] for actions in traces.variants}
    last = {actions[-1] for actions in traces.variants}
    pairs = maximal_pairs(footprint(traces))

    places = [SOURCE_PLACE, SINK_PLACE]
    arcs: set[tuple[str, str]] = set()
    arcs.update((SOURCE_PLACE, t) for t in first)
    arcs.update((t, SINK_PLACE) for t in last)
    for a_set, b_set in pairs:
        pid = place_id(a_set, b_set)
        places.append(pid)
        arcs.update((a, pid) for a in a_set)
        arcs.update((pid, b) for b in b_set)
    return PetriNet(places=tuple(places),
                    transitions=tuple(traces.alphabet),
                    arcs=tuple(arcs),
                    source=SOURCE_PLACE, sink=SINK_PLACE)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace on a workflow net."""

    fits: bool
    missing_tokens: int
    remaining_tokens: int
    final_marking: Marking


def replay_trace(net: PetriNet, trace: Trace) -> ReplayResult:
    """Token replay of a trace from {source: 1}.

    Disabled transitions are force-fired: every unsatisfied input place is
    topped up and counted as a missing token.  The trace fits when nothing
    was missing and the final marking is exactly one token on the sink.

    Note that a net whose boundary sits inside a loop (the miner produces one
    from logs that repeat a cycle per scenario) cannot fit multi-cycle
    traces: every repetition needs a fresh source token and strands one more
    token on the sink.  That is a property of plain alpha nets, not of the
    replay.
    """
    if net.source is None or net.sink is None:
        raise NoBoundary()
    transitions = set(net.transitions)
    for action in trace.actions:
        if action not in transitions:
            raise UnknownAction(action)

    counts: dict[str, int] = {net.source: 1}
    missing = 0
    for action in trace.actions:
        inputs = net.preset(action)
        for p in inputs:
            if counts.get(p, 0) < 1:
                missing += 1
                counts[p] = counts.get(p, 0) + 1
        for p in inputs:
            counts[p] -= 1
        for p in net.postset(action):
            counts[p] = counts.get(p, 0) + 1
    final = Marking.of(counts)
    remaining = sum(c for p, c in final.tokens if p != net.sink)
    fits = missing == 0 and final.as_dict() == {net.sink: 1}
    return ReplayResult(fits, missing, remaining, final)


def fitness(net: PetriNet, traces: TraceSet) -> float:
    """Fraction of traces that replay without missing tokens and end cleanly."""
    if not traces.traces:
        raise EmptyLog()
    # one replay per variant, through its first trace, counted once per trace
    fitting = sum(len(group) for group in traces.variants.values()
                  if replay_trace(net, group[0]).fits)
    return fitting / len(traces.traces)
