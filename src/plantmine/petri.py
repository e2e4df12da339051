"""Petri net core: markings, the token game, boundary stripping, reachability.

Nets here are plain place/transition nets with unit arc weights, which is all
the alpha miner ever produces.  Transition ids double as their action labels.

:func:`explore` is the one bounded breadth-first walk: reachability, latch
propagation, composition and the counterexample search supply only moves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping
from xml.sax.saxutils import escape, quoteattr

from .errors import BoundExceeded, MarkingRequired, NoBoundary, NotEnabled

DEFAULT_BOUND = 10_000


@dataclass(frozen=True)
class Marking:
    """Token counts per place as (place, count) pairs.

    The constructor sorts the pairs, drops zero counts and rejects a negative
    count or a place named twice, so equal markings compare and hash equal.
    The hash is computed once; pickling and copying go through the constructor,
    so no cached hash reaches a process that hashes strings differently.
    """

    tokens: tuple[tuple[str, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = dict(self.tokens)
        if len(counts) != len(self.tokens) or any(c < 0 for c in counts.values()):
            raise ValueError(f"marking needs one non-negative count per place: {self.tokens}")
        tokens = tuple(sorted((p, c) for p, c in counts.items() if c))
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "_hash", hash(tokens))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Marking, (self.tokens,)

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "Marking":
        return cls(tuple(counts.items()))

    def as_dict(self) -> dict[str, int]:
        return dict(self.tokens)

    def total(self) -> int:
        return sum(c for _, c in self.tokens)

    def __str__(self) -> str:
        return "{" + " ".join(f"{p}={c}" for p, c in self.tokens) + "}"


@dataclass(frozen=True)
class PetriNet:
    """A place/transition net with optional source/sink place designations."""

    places: tuple[str, ...] = ()
    transitions: tuple[str, ...] = ()
    arcs: tuple[tuple[str, str], ...] = ()
    source: str | None = None
    sink: str | None = None
    _presets: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _postsets: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "places", tuple(sorted(set(self.places))))
        object.__setattr__(self, "transitions", tuple(sorted(set(self.transitions))))
        arcs = tuple(sorted(set(tuple(a) for a in self.arcs)))
        object.__setattr__(self, "arcs", arcs)
        place_set, transition_set = set(self.places), set(self.transitions)
        if place_set & transition_set:
            raise ValueError(f"place/transition id clash: {place_set & transition_set}")
        # Arcs are sorted, so each preset and postset is sorted too.
        presets: dict[str, list[str]] = {}
        postsets: dict[str, list[str]] = {}
        for src, dst in arcs:
            ok = (src in place_set and dst in transition_set) or \
                 (src in transition_set and dst in place_set)
            if not ok:
                raise ValueError(f"arc ({src!r}, {dst!r}) does not join a place and a transition")
            presets.setdefault(dst, []).append(src)
            postsets.setdefault(src, []).append(dst)
        for designated in (self.source, self.sink):
            if designated is not None and designated not in place_set:
                raise ValueError(f"designated place {designated!r} is not in the net")
        object.__setattr__(self, "_presets", {n: tuple(v) for n, v in presets.items()})
        object.__setattr__(self, "_postsets", {n: tuple(v) for n, v in postsets.items()})

    def preset(self, node: str) -> tuple[str, ...]:
        return self._presets.get(node, ())

    def postset(self, node: str) -> tuple[str, ...]:
        return self._postsets.get(node, ())


def enabled_transitions(net: PetriNet, marking: Marking) -> tuple[str, ...]:
    """Transitions whose every input place holds at least one token, sorted by id."""
    counts = marking.as_dict()
    return tuple(t for t in net.transitions
                 if all(counts.get(p, 0) >= 1 for p in net.preset(t)))


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire one enabled transition: consume a token per input place, produce one per output."""
    if transition not in net.transitions:
        raise NotEnabled(transition)
    counts = marking.as_dict()
    inputs = net.preset(transition)
    if any(counts.get(p, 0) < 1 for p in inputs):
        raise NotEnabled(transition)
    for p in inputs:
        counts[p] -= 1
    for p in net.postset(transition):
        counts[p] = counts.get(p, 0) + 1
    return Marking.of(counts)


def strip_boundary(net: PetriNet) -> PetriNet:
    """Remove the designated source and sink places with their incident arcs.

    The miner's synthetic boundary places would otherwise dominate the
    reachability analysis; everything else is preserved verbatim.
    """
    if net.source is None or net.sink is None:
        raise NoBoundary()
    boundary = {net.source, net.sink}
    return PetriNet(
        places=tuple(p for p in net.places if p not in boundary),
        transitions=net.transitions,
        arcs=tuple((s, d) for s, d in net.arcs if s not in boundary and d not in boundary),
    )


def default_initial_marking(net: PetriNet) -> Marking:
    """One token in every place with an empty preset.

    Cyclic nets have no such place; they need an explicit marking choice, so
    this raises :class:`MarkingRequired` rather than guessing one.
    """
    sourceless = [p for p in net.places if not net.preset(p)]
    if not sourceless:
        raise MarkingRequired("no place with an empty preset")
    return Marking.of({p: 1 for p in sourceless})


@dataclass(frozen=True)
class ReachabilityGraph:
    """Explicit state space of a marked net.

    ``nodes`` lists markings in breadth-first discovery order and ``edges``
    in exploration order, which makes downstream state naming deterministic.
    Equal markings in ``initial``, ``nodes`` and ``edges`` are one object.
    """

    nodes: tuple[Marking, ...]
    initial: Marking
    edges: tuple[tuple[Marking, str, Marking], ...]


def explore(initial: Hashable, moves: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
            bound: int) -> Iterator[tuple[Hashable, tuple[tuple[object, Hashable], ...]]]:
    """Yield each node reached breadth-first from ``initial`` with its ``(label, target)`` moves.

    Nodes come in discovery order; a node's moves are read only when the walk
    reaches it.  Raises :class:`BoundExceeded` as soon as more than ``bound``
    nodes would be reached, and ``ValueError`` when ``bound`` is below one.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    seen = {initial}
    queue = deque([initial])
    while queue:
        node = queue.popleft()
        out = tuple(moves(node))
        for _, target in out:
            if target not in seen:
                if len(seen) >= bound:
                    raise BoundExceeded(bound)
                seen.add(target)
                queue.append(target)
        yield node, out


def reachability_graph(net: PetriNet, initial: Marking,
                       bound: int = DEFAULT_BOUND) -> ReachabilityGraph:
    """Breadth-first reachability exploration from ``initial``.

    Raises :class:`BoundExceeded` as soon as more than ``bound`` distinct
    markings would be recorded; stripped nets with token-generating
    transitions are unbounded, and this is the safety valve for them.
    Raises ``ValueError`` when ``initial`` marks a place the net lacks or
    ``bound`` is below one.
    """
    unknown = sorted({p for p, _ in initial.tokens} - set(net.places))
    if unknown:
        raise ValueError(f"initial marking names places not in the net: {', '.join(unknown)}")
    presets = {t: net.preset(t) for t in net.transitions}
    postsets = {t: net.postset(t) for t in net.transitions}
    consumers = {p: net.postset(p) for p in net.places}
    # Only a transition that consumes from a marked place, or from no place
    # at all, can be enabled.
    generators = {t for t in net.transitions if not presets[t]}
    # Each distinct marking is built and checked once; later edges reuse it.
    interned = {initial.tokens: initial}

    def successors(marking: Marking) -> Iterator[tuple[str, Marking]]:
        counts = marking.as_dict()
        candidates = set(generators)
        for p in counts:
            candidates.update(consumers[p])
        # net.transitions is sorted, so edges keep its order
        for t in sorted(candidates):
            inputs = presets[t]
            if not all(p in counts for p in inputs):
                continue
            after = dict(counts)
            for p in inputs:
                after[p] -= 1
                if not after[p]:
                    del after[p]
            for p in postsets[t]:
                after[p] = after.get(p, 0) + 1
            key = tuple(sorted(after.items()))
            successor = interned.get(key)
            if successor is None:
                successor = interned[key] = Marking(key)
            yield t, successor

    graph = list(explore(initial, successors, bound))
    return ReachabilityGraph(tuple(m for m, _ in graph), initial,
                             tuple((m, t, succ) for m, out in graph for t, succ in out))


def export_pnml(net: PetriNet) -> str:
    """Serialize the net as a PNML place/transition document.

    Element order is sorted by id, so identical nets serialize to identical
    bytes.  The designated source place, when present, carries initial
    marking 1.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">',
             '  <net id="net0" type="http://www.pnml.org/version-2009/grammar/ptnet">',
             '    <page id="page0">']
    for place in net.places:
        lines.append(f"      <place id={quoteattr(place)}>")
        lines.append(f"        <name><text>{escape(place)}</text></name>")
        if place == net.source:
            lines.append("        <initialMarking><text>1</text></initialMarking>")
        lines.append("      </place>")
    for transition in net.transitions:
        lines.append(f"      <transition id={quoteattr(transition)}>")
        lines.append(f"        <name><text>{escape(transition)}</text></name>")
        lines.append("      </transition>")
    for index, (src, dst) in enumerate(net.arcs):
        lines.append(f'      <arc id="a{index}" source={quoteattr(src)} '
                     f"target={quoteattr(dst)}/>")
    lines.extend(["    </page>", "  </net>", "</pnml>"])
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_digraph(name: str, lines: list[str]) -> str:
    """A DOT digraph laid out left to right around the given statement lines."""
    return "\n".join([f"digraph {name} {{", "  rankdir=LR;", *lines, "}"]) + "\n"


def export_dot_net(net: PetriNet) -> str:
    """DOT rendering of the net: places as circles, transitions as boxes."""
    lines = []
    for place in net.places:
        lines.append(f"  {_dot_quote(place)} [shape=circle];")
    for transition in net.transitions:
        lines.append(f"  {_dot_quote(transition)} [shape=box];")
    for src, dst in net.arcs:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)};")
    return _dot_digraph("petrinet", lines)


def export_dot_graph(graph: ReachabilityGraph) -> str:
    """DOT rendering of a reachability graph, nodes named in discovery order."""
    names: dict[Marking, str] = {}  # each node's quoted name
    lines = []
    for i, marking in enumerate(graph.nodes):
        names[marking] = _dot_quote(f"M{i}")
        lines.append(f"  {names[marking]} [label={_dot_quote(f'M{i} {marking}')}];")
    for src, transition, dst in graph.edges:
        lines.append(f"  {names[src]} -> {names[dst]} [label={_dot_quote(transition)}];")
    return _dot_digraph("reachability", lines)
