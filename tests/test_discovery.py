import random

import pytest

from plantmine import discovery
from plantmine.discovery import (Relation, alpha_discover, fitness, footprint,
                                 maximal_pairs, place_id, replay_trace)
from plantmine.errors import EmptyLog, EmptyTrace, NoBoundary, UnknownAction
from plantmine.eventlog import Trace, TraceSet
from plantmine.petri import strip_boundary

from helpers import (footprint_oracle, maximal_pairs_oracle, random_sp_traceset,
                     traceset)


class TestFootprint:
    def test_diamond_relations(self, diamond_traces):
        fp = footprint(diamond_traces)
        assert fp.relation("b", "c") is Relation.PARALLEL
        assert fp.relation("a", "b") is Relation.CAUSALITY
        assert fp.relation("a", "c") is Relation.CAUSALITY
        assert fp.relation("b", "d") is Relation.CAUSALITY
        assert fp.relation("c", "d") is Relation.CAUSALITY
        assert fp.relation("a", "d") is Relation.UNRELATED
        assert fp.relation("b", "a") is Relation.REVERSE

    def test_single_adjacency(self):
        fp = footprint(traceset(("a", "b")))
        assert fp.relation("a", "b") is Relation.CAUSALITY
        assert fp.relation("a", "a") is Relation.UNRELATED
        assert fp.relation("b", "b") is Relation.UNRELATED

    def test_single_action_trace(self):
        fp = footprint(traceset(("a",)))
        assert fp.direct_succession == frozenset()
        assert fp.relation("a", "a") is Relation.UNRELATED

    def test_empty_raises(self):
        with pytest.raises(EmptyLog):
            footprint(TraceSet())

    def test_relation_partition_random(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = tuple(tuple(rng.choice("abcde")
                               for _ in range(rng.randint(1, 10)))
                         for _ in range(rng.randint(1, 8)))
            traces = traceset(*rows)
            fp = footprint(traces)
            _, expected = footprint_oracle(traces)
            for (a, b), rel in expected.items():
                assert fp.relation(a, b).value == rel

    def test_repeated_shuffled_traces_against_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            rows = [tuple(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
                    for _ in range(rng.randint(1, 5))]
            rows = [rng.choice(rows) for _ in range(rng.randint(len(rows), 4 * len(rows)))]
            rng.shuffle(rows)
            traces = traceset(*rows)
            succession, _ = footprint_oracle(traces)
            fp = footprint(traces)
            assert fp.direct_succession == succession
            assert fp.alphabet == tuple(sorted({a for row in rows for a in row}))


class TestAlphaDiscover:
    def test_two_action_chain(self):
        net = alpha_discover(traceset(("a", "b")))
        assert set(net.places) == {"source", "sink", place_id({"a"}, {"b"})}
        assert set(net.transitions) == {"a", "b"}
        assert len(net.arcs) == 4
        assert net.source == "source" and net.sink == "sink"

    def test_choice_pairs(self):
        net = alpha_discover(traceset(("a", "b", "d"), ("a", "c", "d")))
        expected = {place_id({"a"}, {"b", "c"}), place_id({"b", "c"}, {"d"}),
                    "source", "sink"}
        assert set(net.places) == expected

    def test_diamond_has_six_places(self, diamond_net):
        assert len(diamond_net.places) == 6
        internal = {place_id({"a"}, {"b"}), place_id({"a"}, {"c"}),
                    place_id({"b"}, {"d"}), place_id({"c"}, {"d"})}
        assert internal < set(diamond_net.places)

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            alpha_discover(TraceSet((Trace("1", ()),)))

    def test_empty_trace_names_the_first_empty_trace(self):
        traces = TraceSet((Trace("p1", ("a", "b")), Trace("p2", ()),
                           Trace("p3", ("a",)), Trace("p4", ())))
        with pytest.raises(EmptyTrace) as exc:
            alpha_discover(traces)
        assert exc.value.process_id == "p2"

    def test_empty_log_raises(self):
        with pytest.raises(EmptyLog):
            alpha_discover(TraceSet())

    def test_order_and_multiplicity_invariance(self, diamond_traces):
        base = alpha_discover(diamond_traces)
        permuted = TraceSet(tuple(reversed(diamond_traces.traces)))
        duplicated = TraceSet(diamond_traces.traces + diamond_traces.traces[:1])
        assert alpha_discover(permuted) == base
        assert alpha_discover(duplicated) == base

    def test_maximality_against_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            traces = random_sp_traceset(rng)
            fp = footprint(traces)
            mined = {(a, b) for a, b in maximal_pairs(fp)}
            assert mined == maximal_pairs_oracle(traces)

    def test_arbitrary_footprints_against_oracle(self):
        # every direct-succession relation is the footprint of its two-event
        # traces; singleton traces complete the alphabet
        rng = random.Random(31)
        seen = set()
        for _ in range(300):
            actions = "abcdefg"[:rng.randint(1, 7)]
            density = rng.choice((0.1, 0.3, 0.5))
            rows = [(a, b) for a in actions for b in actions if rng.random() < density]
            traces = traceset(*rows, *((a,) for a in actions))
            fp = footprint(traces)
            seen.update(fp.relation(a, b) for a in actions for b in actions if a != b)
            seen.update("self-loop" for a in actions if (a, a) in fp.direct_succession)
            assert maximal_pairs(fp) == maximal_pairs_oracle(traces)
        assert seen == set(Relation) | {"self-loop"}

    def test_wide_sorter_footprint(self):
        bins = [f"BIN{i}" for i in range(1198)]
        fp = footprint(traceset(("ACK", "GO"), *(("GO", b, "ACK") for b in bins)))
        assert maximal_pairs(fp) == {
            (frozenset({"GO"}), frozenset(bins)),
            (frozenset(bins), frozenset({"ACK"})),
            (frozenset({"ACK"}), frozenset({"GO"}))}

    def test_wide_sorter_log(self):
        bins = [f"BIN{i}" for i in range(22)]
        net = alpha_discover(traceset(*(("GO", b, "ACK", "GO", c, "ACK")
                                        for b, c in zip(bins, bins[1:] + bins[:1]))))
        assert len(net.transitions) == 24
        assert set(net.places) == {"source", "sink", place_id({"GO"}, bins),
                                   place_id(bins, {"ACK"}), place_id({"ACK"}, {"GO"})}


class TestReplay:
    def test_own_trace_fits(self):
        traces = traceset(("a", "b"))
        net = alpha_discover(traces)
        result = replay_trace(net, traces.traces[0])
        assert result.fits
        assert result.missing_tokens == 0
        assert result.final_marking.as_dict() == {"sink": 1}

    def test_wrong_order_misses_tokens(self):
        net = alpha_discover(traceset(("a", "b")))
        result = replay_trace(net, Trace("x", ("b", "a")))
        assert not result.fits
        assert result.missing_tokens >= 1

    def test_empty_trace_does_not_fit(self):
        net = alpha_discover(traceset(("a", "b")))
        result = replay_trace(net, Trace("x", ()))
        assert not result.fits
        assert result.final_marking.as_dict() == {"source": 1}

    def test_unknown_action(self):
        net = alpha_discover(traceset(("a", "b")))
        with pytest.raises(UnknownAction):
            replay_trace(net, Trace("x", ("a", "zz")))

    def test_net_without_boundary_rejected(self):
        net = strip_boundary(alpha_discover(traceset(("a", "b"))))
        with pytest.raises(NoBoundary, match="net has no designated source/sink places"):
            replay_trace(net, Trace("x", ("a", "b")))


class TestFitness:
    def test_all_fit(self):
        traces = traceset(("a", "b", "d"), ("a", "c", "d"))
        assert fitness(alpha_discover(traces), traces) == 1.0

    def test_half_fit(self):
        traces = traceset(("a", "b"))
        net = alpha_discover(traces)
        mixed = TraceSet((Trace("1", ("a", "b")), Trace("2", ("b", "a"))))
        assert fitness(net, mixed) == 0.5

    def test_replays_each_distinct_trace_once(self, monkeypatch, fixture_net,
                                              fixture_traces):
        # counted through the module global that fitness calls
        net = alpha_discover(traceset(("a", "b")))
        rows = [("a", "b"), ("b", "a"), ("a", "b"), ("a", "b"), ("b", "a")]
        mixed = TraceSet(tuple(Trace(str(i), row) for i, row in enumerate(rows)))
        per_trace = (sum(replay_trace(fixture_net, t).fits for t in fixture_traces.traces)
                     / len(fixture_traces))
        calls = []

        def counting(net, trace):
            calls.append(trace.actions)
            return replay_trace(net, trace)

        monkeypatch.setattr(discovery, "replay_trace", counting)
        assert fitness(net, mixed) == 0.6
        assert calls == [("a", "b"), ("b", "a")]
        calls.clear()
        assert fitness(fixture_net, fixture_traces) == per_trace
        assert len(calls) == len({t.actions for t in fixture_traces.traces}) < len(fixture_traces)

    def test_empty_raises(self):
        net = alpha_discover(traceset(("a", "b")))
        with pytest.raises(EmptyLog):
            fitness(net, TraceSet())

    def test_sp_logs_fit_their_own_net(self):
        rng = random.Random(5)
        for _ in range(20):
            traces = random_sp_traceset(rng)
            assert fitness(alpha_discover(traces), traces) == 1.0


@pytest.mark.xfail(strict=True,
                   reason="plain alpha puts the workflow boundary inside the "
                          "plant cycle: each extra cycle per trace needs a "
                          "fresh source token and strands one on the sink, so "
                          "multi-cycle traces can never replay with fits=true")
def test_fixture_mining_closure(fixture_net, fixture_traces):
    assert fitness(fixture_net, fixture_traces) == 1.0
