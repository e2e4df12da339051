import copy
import importlib.util
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from xml.dom import minidom
from xml.etree import ElementTree

import plantmine

from plantmine.cli import _parse_marking
from plantmine.discovery import alpha_discover, place_id
from plantmine.errors import (BoundExceeded, MarkingRequired, NoBoundary,
                              NotEnabled)
from plantmine.eventlog import filter_component, group_traces, parse_csv
from plantmine.fixture import SimConfig, simulate_two_cylinder
from plantmine.petri import (Marking, PetriNet, default_initial_marking,
                             enabled_transitions, export_dot_graph,
                             export_dot_net, export_pnml, fire,
                             reachability_graph, strip_boundary)

from helpers import (cylinder_net, random_conservative_net, random_net,
                     reachability_reference, reachable_markings_oracle, traceset)

P_AB = place_id({"a"}, {"b"})
P_AC = place_id({"a"}, {"c"})
P_BD = place_id({"b"}, {"d"})
P_CD = place_id({"c"}, {"d"})


class TestMarking:
    def test_canonical_and_zero_free(self):
        assert Marking.of({"b": 1, "a": 2, "c": 0}) == Marking.of({"a": 2, "b": 1})
        assert Marking.of({}).tokens == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Marking.of({"a": -1})

    def test_constructor_sorts_and_drops_zero_counts(self):
        built = Marking((("b", 1), ("a", 1), ("c", 0)))
        assert built.tokens == (("a", 1), ("b", 1))
        assert built == Marking.of({"a": 1, "b": 1})
        assert hash(built) == hash(Marking.of({"a": 1, "b": 1}))
        assert Marking((("a", 1), ("b", 0))) == Marking((("a", 1),))

    @pytest.mark.parametrize("tokens", [(("a", -1),), (("a", 1), ("a", 1)), (("a", 1), ("a", 0))],
                             ids=["negative", "repeated", "repeated-zero"])
    def test_constructor_rejects(self, tokens):
        with pytest.raises(ValueError):
            Marking(tokens)

    def test_hand_built_marking_reaches_one_node(self):
        # two self-loop rings: whatever order the pairs come in, one marking is reachable
        net = PetriNet(places=("a", "b"), transitions=("t", "u"),
                       arcs=(("a", "t"), ("t", "a"), ("b", "u"), ("u", "b")))
        for initial in (Marking((("b", 1), ("a", 1))), Marking((("a", 1), ("b", 1), ("c", 0)))):
            graph = reachability_graph(net, initial)
            assert graph.nodes == (Marking.of({"a": 1, "b": 1}),)
            assert [t for _, t, _ in graph.edges] == ["t", "u"]

    def test_copies_are_found_by_value(self):
        m = Marking.of({"a": 1, "b": 2})
        assert copy.deepcopy(m) in {m}
        assert copy.copy(m) in {m}
        assert pickle.loads(pickle.dumps(m)) in {m}

    def test_unpickled_marking_hashes_by_this_process(self):
        # string hashes differ between processes, so a cached hash must not travel
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys; from plantmine.petri import Marking; "
                "sys.stdout.buffer.write(pickle.dumps(Marking.of({'p1': 1, 'p2': 2})))")
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(plantmine.__file__).parents[1])}
        dumped = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, check=True).stdout
        loaded, fresh = pickle.loads(dumped), Marking.of({"p1": 1, "p2": 2})
        assert loaded == fresh
        assert hash(loaded) == hash(fresh)
        assert loaded in {fresh}

    def test_lookup(self):
        m = Marking.of({"a": 2})
        assert m.as_dict().get("a", 0) == 2
        assert m.as_dict().get("zz", 0) == 0
        assert m.total() == 2


class TestNetValidation:
    def test_arc_endpoints_checked(self):
        with pytest.raises(ValueError):
            PetriNet(places=("p",), transitions=("t",), arcs=(("p", "zz"),))

    def test_place_transition_clash(self):
        with pytest.raises(ValueError):
            PetriNet(places=("x",), transitions=("x",))

    def test_place_to_place_arc_rejected(self):
        with pytest.raises(ValueError):
            PetriNet(places=("p", "q"), transitions=("t",), arcs=(("p", "q"),))

    @pytest.mark.parametrize("role", ["source", "sink"])
    def test_designated_place_must_be_in_the_net(self, role):
        with pytest.raises(ValueError, match="designated place 'z' is not in the net"):
            PetriNet(places=("p",), transitions=("t",), arcs=(("p", "t"),), **{role: "z"})


class TestTokenGame:
    def test_only_initial_enabled(self, diamond_net):
        assert enabled_transitions(diamond_net, Marking.of({"source": 1})) == ("a",)

    def test_nothing_enabled_on_empty(self, diamond_net):
        assert enabled_transitions(diamond_net, Marking.of({})) == ()

    def test_concurrent_branches_enabled(self, diamond_net):
        m = Marking.of({P_AB: 1, P_AC: 1})
        assert enabled_transitions(diamond_net, m) == ("b", "c")

    def test_fire_splits_token(self, diamond_net):
        after = fire(diamond_net, Marking.of({"source": 1}), "a")
        assert after == Marking.of({P_AB: 1, P_AC: 1})
        assert after.total() == 2

    def test_fire_disabled_raises(self, diamond_net):
        with pytest.raises(NotEnabled):
            fire(diamond_net, Marking.of({"source": 1}), "b")

    def test_fire_unknown_transition_raises(self, diamond_net):
        with pytest.raises(NotEnabled, match="transition 'zz' is not enabled"):
            fire(diamond_net, Marking.of({"source": 1}), "zz")

    def test_conservation_random(self):
        rng = random.Random(3)
        for _ in range(50):
            net, m0 = random_conservative_net(rng)
            for t in enabled_transitions(net, m0):
                after = fire(net, m0, t)
                delta = {p: after.as_dict().get(p, 0) - m0.as_dict().get(p, 0)
                         for p in net.places}
                inputs = {p for p, d in net.arcs if d == t}
                outputs = {d for s, d in net.arcs if s == t}
                for p in net.places:
                    expected = (p in outputs) - (p in inputs)
                    assert delta[p] == expected


class TestStripBoundary:
    def test_diamond_strips_to_four_places(self, diamond_net):
        stripped = strip_boundary(diamond_net)
        assert len(stripped.places) == 4
        assert stripped.source is None and stripped.sink is None
        assert ("source", "a") not in stripped.arcs
        assert ("d", "sink") not in stripped.arcs
        # the entry transition is left with an empty preset
        assert stripped.preset("a") == ()

    def test_already_stripped_raises(self, diamond_net):
        with pytest.raises(NoBoundary):
            strip_boundary(strip_boundary(diamond_net))


def _alpha_choice_workloads():
    """``perfbench/workloads.py``, loaded read-only by path for its sorter log."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("plantmine_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module


class TestDefaultInitialMarking:
    @pytest.mark.parametrize("mutations", [(), ("drop_sensor_off",)], ids=["clean", "mutated"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
    def test_fixture_rest_position(self, seed, mutations):
        log = simulate_two_cylinder(SimConfig(n_traces=10, mutations=mutations), seed)
        net = alpha_discover(group_traces(filter_component(log, "HC")))
        assert default_initial_marking(net) == Marking.of({"p.HOME_ON..EXT": 1})

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_sorter_matches_the_benchmark_marking(self, tmp_path, seed):
        argv = _alpha_choice_workloads().make_alpha_choice(seed, 0, tmp_path).args["argv"]
        log = parse_csv((tmp_path / "log.csv").read_text())
        net = alpha_discover(group_traces(filter_component(log, "SORTER")))
        given = argv[argv.index("--marking") + 1]
        assert default_initial_marking(net) == _parse_marking([given])

    def test_shared_place_before_a_starting_choice_gets_one_token(self):
        net = alpha_discover(traceset(("A", "C", "D", "B", "C", "D"),
                                      ("B", "C", "D", "A", "C", "D")))
        assert net.postset("source") == ("A", "B")
        assert default_initial_marking(net) == Marking.of({"p.D..A.B": 1})

    def test_different_start_points_are_refused(self):
        # marking both start places would put two tokens on one ring
        net = alpha_discover(traceset(("X", "A", "Y", "B", "X", "A", "Y", "B"),
                                      ("Y", "B", "X", "A", "Y", "B")))
        with pytest.raises(MarkingRequired, match="^the start activities wait on "
                                                  "different places;"):
            default_initial_marking(net)

    def test_cycle_requires_explicit_marking(self):
        # a single cycle never returns to its start, so nothing marks the rest position
        log = simulate_two_cylinder(SimConfig(n_traces=1, cycles_max=1), 7)
        net = alpha_discover(group_traces(log))
        with pytest.raises(MarkingRequired, match="^no start activity waits on a place "
                                                  "besides the source;"):
            default_initial_marking(net)

    def test_acyclic_log_is_refused(self):
        with pytest.raises(MarkingRequired, match="^no start activity waits"):
            default_initial_marking(alpha_discover(traceset(("A", "B", "C"))))

    def test_net_without_source_raises_no_boundary(self, fixture_net):
        with pytest.raises(NoBoundary):
            default_initial_marking(strip_boundary(fixture_net))


class TestReachability:
    def test_diamond_six_nodes_six_edges(self, diamond_net):
        graph = reachability_graph(diamond_net, Marking.of({"source": 1}))
        assert len(graph.nodes) == 6
        assert len(graph.edges) == 6
        assert graph.initial == Marking.of({"source": 1})
        assert Marking.of({"sink": 1}) in graph.nodes

    def test_each_distinct_marking_is_built_once(self, monkeypatch):
        net, initial = cylinder_net(3)
        calls = []
        check = Marking.__post_init__

        def counting(marking):
            calls.append(marking)
            check(marking)

        monkeypatch.setattr(Marking, "__post_init__", counting)
        graph = reachability_graph(net, initial)
        assert len(graph.nodes) == 216
        assert len(calls) == len(graph.nodes) - 1  # the initial marking is the caller's

    def test_equal_markings_are_one_object(self):
        graph = reachability_graph(*cylinder_net(3))
        node = {m: m for m in graph.nodes}
        assert graph.initial is graph.nodes[0]
        assert all(src is node[src] and dst is node[dst] for src, _, dst in graph.edges)

    def test_bound_exceeded(self, diamond_net):
        with pytest.raises(BoundExceeded) as exc:
            reachability_graph(diamond_net, Marking.of({"source": 1}), bound=3)
        assert exc.value.bound == 3

    def test_unknown_place_in_initial_marking(self, diamond_net):
        with pytest.raises(ValueError, match="nosuch"):
            reachability_graph(diamond_net, Marking.of({"source": 1, "nosuch": 1}))

    def test_dead_marking_single_node(self, diamond_net):
        # d needs both of its input places, so this marking enables nothing
        graph = reachability_graph(diamond_net, Marking.of({P_BD: 1}))
        assert len(graph.nodes) == 1
        assert graph.edges == ()

    def test_edges_are_sound(self, diamond_net):
        graph = reachability_graph(diamond_net, Marking.of({"source": 1}))
        for src, label, dst in graph.edges:
            assert label in enabled_transitions(diamond_net, src)
            assert fire(diamond_net, src, label) == dst

    def test_unbounded_net_hits_bound(self):
        net = PetriNet(places=("p",), transitions=("t",), arcs=(("t", "p"),))
        with pytest.raises(BoundExceeded):
            reachability_graph(net, Marking.of({}), bound=50)

    def test_determinism(self, diamond_net):
        first = reachability_graph(diamond_net, Marking.of({"source": 1}))
        second = reachability_graph(diamond_net, Marking.of({"source": 1}))
        assert first == second

    def test_matches_oracle_on_random_nets(self):
        rng = random.Random(17)
        for _ in range(60):
            net, m0 = random_conservative_net(rng)
            graph = reachability_graph(net, m0, bound=5000)
            expected, saturated = reachable_markings_oracle(net, m0)
            assert saturated
            assert set(graph.nodes) == expected

    def test_matches_full_scan_reference_on_random_nets(self):
        # random_net draws token-generating transitions, so many nets are unbounded
        rng = random.Random(23)
        outcomes = set()
        for _ in range(300):
            net, m0 = random_net(rng)
            try:
                expected = reachability_reference(net, m0, bound=30)
            except BoundExceeded:
                with pytest.raises(BoundExceeded):
                    reachability_graph(net, m0, bound=30)
                outcomes.add("bound")
                continue
            assert reachability_graph(net, m0, bound=30) == expected
            outcomes.add("graph")
        assert outcomes == {"bound", "graph"}

    def test_preset_lookups_linear_on_ring(self, monkeypatch):
        n = 300
        places = [f"r{i:03d}" for i in range(n)]
        transitions = [f"t{i:03d}" for i in range(n)]
        arcs = [(places[i], transitions[i]) for i in range(n)]
        arcs += [(transitions[i], places[(i + 1) % n]) for i in range(n)]
        net = PetriNet(places=tuple(places), transitions=tuple(transitions),
                       arcs=tuple(arcs))
        lookups = []
        preset = PetriNet.preset

        def counting_preset(self, node):
            lookups.append(node)
            return preset(self, node)

        monkeypatch.setattr(PetriNet, "preset", counting_preset)
        graph = reachability_graph(net, Marking.of({places[0]: 1}))
        assert len(graph.nodes) == len(graph.edges) == n
        assert len(lookups) <= 3 * (len(graph.nodes) + len(graph.edges))

    def test_fixture_net_is_one_safe(self, fixture_graph):
        for marking in fixture_graph.nodes:
            assert all(count == 1 for _, count in marking.tokens)


class TestExports:
    def test_pnml_structure_counts(self):
        net = alpha_discover_chain()
        root = ElementTree.fromstring(export_pnml(net))
        ns = "{http://www.pnml.org/version-2009/grammar/pnml}"
        assert len(root.findall(f".//{ns}place")) == 3
        assert len(root.findall(f".//{ns}transition")) == 2
        assert len(root.findall(f".//{ns}arc")) == 4

    def test_pnml_source_marked(self):
        net = alpha_discover_chain()
        document = export_pnml(net)
        assert "<initialMarking><text>1</text></initialMarking>" in document

    def test_pnml_empty_net(self):
        root = ElementTree.fromstring(export_pnml(PetriNet()))
        ns = "{http://www.pnml.org/version-2009/grammar/pnml}"
        assert root.findall(f".//{ns}place") == []

    def test_pnml_escapes_name_text(self):
        net = PetriNet(places=("a<b&c",), transitions=("t>1",), arcs=(("a<b&c", "t>1"),))
        document = minidom.parseString(export_pnml(net))
        names = [node.firstChild.data for node in document.getElementsByTagName("text")]
        ids = [node.getAttribute("id") for tag in ("place", "transition")
               for node in document.getElementsByTagName(tag)]
        assert names == ids == ["a<b&c", "t>1"]

    def test_pnml_deterministic(self, fixture_net):
        assert export_pnml(fixture_net) == export_pnml(fixture_net)

    def test_dot_net_contains_edge(self):
        net = PetriNet(places=("p",), transitions=("t",), arcs=(("p", "t"),))
        dot = export_dot_net(net)
        assert '"p" -> "t";' in dot
        assert "shape=circle" in dot and "shape=box" in dot

    def test_dot_empty_net(self):
        dot = export_dot_net(PetriNet())
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")

    def test_dot_deterministic(self, fixture_net):
        assert export_dot_net(fixture_net) == export_dot_net(fixture_net)

    def test_dot_graph_renders_nodes(self, fixture_graph):
        dot = export_dot_graph(fixture_graph)
        assert dot.count('"M0"') >= 1
        assert export_dot_graph(fixture_graph) == dot


def alpha_discover_chain():
    from helpers import traceset
    return alpha_discover(traceset(("a", "b")))
