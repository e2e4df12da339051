import copy
import dataclasses
import pickle
import random
from collections.abc import Mapping
from itertools import permutations

import pytest

from plantmine.errors import (AlphabetMismatch, BoundExceeded,
                              NondeterministicController, ParseError,
                              UndeclaredEvent, UnknownAtom)
from plantmine.fixture import (FIXTURE_CONTROLLER_TEXT, INITIAL_VALUATION,
                               fixture_action_map, fixture_controller)
from plantmine.transform import FSM, build_plant_fb
from plantmine.verify import (AF, AG, AU, AX, EF, EG, EU, EX, MAX_CTL_DEPTH, And, Atom, Binary,
                              CompositeState, Const, ControllerFSM, Formula, Implies,
                              KripkeStructure, Not, Or, Unary,
                              PathStep, check_ctl, compose, parse_controller,
                              parse_ctl, render_ctl, satisfying_states)

from helpers import (ctl_oracle, random_controller, random_formula,
                     random_kripke, random_multi_kripke, random_plant_fsm,
                     render_ctl_reference, satisfying_states_reference,
                     transfer_line)


class TestParseController:
    def test_fixture_text(self):
        ctl = parse_controller(FIXTURE_CONTROLLER_TEXT)
        assert ctl == fixture_controller()
        assert len(ctl.states) == 4
        assert len(ctl.transitions) == 4
        assert ctl.initial == "C0"

    def test_optional_output(self):
        ctl = parse_controller(FIXTURE_CONTROLLER_TEXT)
        assert ctl.step("C1", "HOME_OFF") == (None, "C2")
        assert ctl.step("C0", "HOME_ON") == ("EXT", "C1")
        assert ctl.step("C0", "END_ON") is None

    def test_undeclared_event(self):
        text = FIXTURE_CONTROLLER_TEXT + "C0 --FOO/--> C1\n"
        with pytest.raises(UndeclaredEvent):
            parse_controller(text)

    def test_nondeterministic_rejected(self):
        text = FIXTURE_CONTROLLER_TEXT + "C0 --HOME_ON/--> C2\n"
        with pytest.raises(NondeterministicController):
            parse_controller(text)

    def test_missing_declaration(self):
        with pytest.raises(ParseError):
            parse_controller("states: C0\ninitial: C0\ninputs: X\n")

    @pytest.mark.parametrize("line", ["states: C0", "initial: C1", "inputs: S", "outputs:"])
    def test_repeated_declaration_rejected(self, line):
        text = f"states: C0 C1\ninitial: C0\ninputs: S\noutputs: G\n{line}\nC0 --S/G--> C1\n"
        with pytest.raises(ParseError, match="second") as error:
            parse_controller(text)
        assert error.value.position == 5

    def test_garbage_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_controller("states: C0\n???\n")
        assert exc.value.position == 2

    @pytest.mark.parametrize("field, names", [
        ("states", ("C-0",)), ("inputs", ("HOME ON",)), ("outputs", ("E<X",))])
    def test_constructor_rejects_bad_names(self, field, names):
        declared = {"states": ("C0",), "inputs": ("S",), "outputs": ("G",), field: names}
        with pytest.raises(ValueError, match="invalid name"):
            ControllerFSM(initial=declared["states"][0], transitions=(), **declared)

    @pytest.mark.parametrize("declared, error, message", [
        ({"initial": "C9"}, ValueError, "initial state 'C9' not declared"),
        ({"outputs": ("G", "S")}, ValueError, "controller inputs and outputs overlap"),
        ({"transitions": (("C0", "S", "X", "C0"),)}, UndeclaredEvent,
         "event 'X' is not declared"),
    ], ids=["undeclared-initial", "overlap", "undeclared-output"])
    def test_constructor_rejects_inconsistent_declarations(self, declared, error, message):
        fields = {"states": ("C0",), "initial": "C0", "inputs": ("S",), "outputs": ("G",),
                  "transitions": (), **declared}
        with pytest.raises(error) as exc:
            ControllerFSM(**fields)
        assert str(exc.value) == message

    def test_blank_and_comment_lines_skipped(self):
        text = FIXTURE_CONTROLLER_TEXT.replace("\n", "\n\n# note\n  \n", 2)
        assert parse_controller(text) == fixture_controller()

    def test_two_initial_states_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_controller("states: C0 C1\ninitial: C0 C1\ninputs: S\noutputs: G\n")
        assert str(exc.value) == "parse error at 0: exactly one initial state expected"

    def test_bad_declared_name_reported_at_position_zero(self):
        with pytest.raises(ParseError, match="invalid name") as exc:
            parse_controller("states: C0\ninitial: C0\ninputs: S-1\noutputs: G\n")
        assert exc.value.position == 0

    def test_states_sorted(self):
        ctl = ControllerFSM(states=("C1", "C0"), initial="C1", inputs=(), outputs=(),
                            transitions=())
        assert ctl.states == ("C0", "C1")
        with pytest.raises(ValueError, match="duplicate"):
            ControllerFSM(states=("C0", "C0"), initial="C0", inputs=(), outputs=(),
                          transitions=())

    def test_undeclared_state_in_transition(self):
        text = ("states: C0\ninitial: C0\ninputs: S\noutputs: G\n"
                "C0 --S/G--> C9\n")
        with pytest.raises(ParseError):
            parse_controller(text)


class TestCompose:
    def test_fixture_loop_is_clean(self, fixture_kripke):
        assert fixture_kripke.diagnostics == ()
        for state in fixture_kripke.states:
            assert len(fixture_kripke.successors[state]) >= 1
        assert fixture_kripke.initial == CompositeState("Q0", "C0", "HOME_ON")

    def test_fixture_labels(self, fixture_kripke):
        labels = fixture_kripke.labels[fixture_kripke.initial]
        assert "HOME" in labels and "END" not in labels
        assert "plant_state=Q0" in labels and "ctl_state=C0" in labels

    def test_labels_are_the_valuation_and_both_states(self):
        fb, ctl = transfer_line(3)
        loops = [(fb, ctl)]
        k = compose(fb, ctl)
        assert k.labels[k.initial] == {"HOME_A", "HOME_B", "HOME_C",
                                       f"plant_state={fb.initial_state}", "ctl_state=C_A_0"}
        rng = random.Random(29)
        for _ in range(20):
            fsm, amap, initial = random_plant_fsm(rng, max_states=8)
            plant = build_plant_fb(fsm, amap, initial)
            loops.append((plant, random_controller(rng, plant)))
        for plant, controller in loops:
            k = compose(plant, controller)
            for state in k.states:
                assert k.labels[state] == plant.state(state.plant).valuation | {
                    f"plant_state={state.plant}", f"ctl_state={state.ctl}"}

    def test_ignored_event_diagnostic(self, fixture_fb):
        # a controller that never listens for HOME_OFF
        text = ("states: C0 C1\ninitial: C0\n"
                "inputs: HOME_ON END_ON END_OFF HOME_OFF\noutputs: EXT RET\n"
                "C0 --HOME_ON/EXT--> C1\n")
        deaf = parse_controller(text)
        k = compose(fixture_fb, deaf)
        kinds = {d.kind for d in k.diagnostics}
        assert "ignored_event" in kinds
        for state in k.states:
            assert len(k.successors[state]) >= 1

    def test_dropped_command_diagnostic(self, fixture_fb):
        # RET is issued immediately at the rest position, where it cannot fire
        text = ("states: C0\ninitial: C0\n"
                "inputs: HOME_ON HOME_OFF END_ON END_OFF\noutputs: EXT RET\n"
                "C0 --HOME_ON/RET--> C0\n")
        eager = parse_controller(text)
        k = compose(fixture_fb, eager)
        assert any(d.kind == "dropped_command" for d in k.diagnostics)

    def test_same_direction_claim_rejected(self, fixture_fb):
        from plantmine.verify import ControllerFSM
        bad = ControllerFSM(states=("C0",), initial="C0",
                            inputs=("HOME_ON",), outputs=("END_ON",),
                            transitions=())
        with pytest.raises(AlphabetMismatch):
            compose(fixture_fb, bad)

    def test_bound_exceeded(self, fixture_fb):
        size = len(compose(fixture_fb, fixture_controller()).states)
        assert len(compose(fixture_fb, fixture_controller(), bound=size).states) == size
        with pytest.raises(BoundExceeded) as exc:
            compose(fixture_fb, fixture_controller(), bound=size - 1)
        assert exc.value.bound == size - 1
        with pytest.raises(ValueError):
            compose(fixture_fb, fixture_controller(), bound=0)

    def test_narrower_plant_tolerated(self):
        # plant without falling sensor edges composes with the full controller
        fsm = FSM(states=("Q0", "Q1", "Q2", "Q3"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"), ("Q1", "END_ON", "Q2"),
                         ("Q2", "RET", "Q3"), ("Q3", "HOME_ON", "Q0")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        k = compose(fb, fixture_controller())
        assert len(k.states) >= 4


class TestParseCtl:
    def test_sensor_exclusion_property(self):
        formula = parse_ctl("AG !(HOME & END)")
        assert formula == AG(Not(And(Atom("HOME"), Atom("END"))))

    def test_g_spelling(self):
        assert parse_ctl("G !(HOME & END)") == parse_ctl("AG !(HOME & END)")

    def test_true_comparison_normalizes(self):
        assert parse_ctl("HOME = TRUE") == Atom("HOME")
        assert parse_ctl("HOME = FALSE") == Not(Atom("HOME"))
        assert parse_ctl("plant_state = Q0") == Atom("plant_state=Q0")

    def test_simple_ef(self):
        assert parse_ctl("EF p") == EF(Atom("p"))

    def test_until_forms(self):
        assert parse_ctl("E[p U q]") == EU(Atom("p"), Atom("q"))
        assert parse_ctl("A[p U q]") == AU(Atom("p"), Atom("q"))

    def test_precedence(self):
        assert parse_ctl("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
        assert parse_ctl("p -> q -> r") == Implies(Atom("p"),
                                                   Implies(Atom("q"), Atom("r")))

    @pytest.mark.parametrize("text, position, reason", [
        ("AG !(HOME & $END)", 12, "unexpected character '$'"),  # not the blank before it
        ("\tAG  #p", 5, "unexpected character '#'"),
        ("p&@", 2, "unexpected character '@'"),
        ("p & ", 4, "unexpected end of formula"),
        (") p", 0, "unexpected token ')'"),
        ("p & -> q", 4, "unexpected token '->'"),
        ("E [ p q ]", 6, "expected 'U'"),
        ("AG (p", 5, "expected ')'"),
        ("HOME = ->", 9, "bad comparison value '->'"),
        ("HOME =", 6, "unexpected end of formula"),
        ("p q", 2, "trailing input 'q'"),
    ])
    def test_error_position_and_reason(self, text, position, reason):
        with pytest.raises(ParseError) as exc:
            parse_ctl(text)
        assert exc.value.position == position
        assert str(exc.value) == f"parse error at {position}: {reason}"

    def test_unbalanced_raises(self):
        with pytest.raises(ParseError):
            parse_ctl("AG !(p")
        with pytest.raises(ParseError):
            parse_ctl("")
        with pytest.raises(ParseError):
            parse_ctl("p q")

    def test_render_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            formula = random_formula(rng, ("p", "q", "r"), depth=3)
            assert parse_ctl(render_ctl(formula)) == formula

    @pytest.mark.parametrize("text, value", [("TRUE", True), ("FALSE", False)])
    def test_constants_round_trip(self, text, value):
        formula = parse_ctl(f"AG ({text} | HOME)")
        assert formula == AG(Or(Const(value), Atom("HOME")))
        assert render_ctl(formula) == f"AG ({text} | HOME)"
        assert parse_ctl(render_ctl(formula)) == formula

    def test_sensor_exclusion_renders_exactly(self):
        assert render_ctl(parse_ctl("AG !(HOME & END)")) == "AG !(HOME & END)"

    def test_matches_reference_renderer(self):
        rng = random.Random(17)
        for _ in range(2000):
            formula = random_formula(rng, ("p", "q", "r"), depth=rng.randint(1, 5),
                                     constants=0.1)
            assert render_ctl(formula) == render_ctl_reference(formula)

    def test_smv_until_spelling_parses(self):
        assert parse_ctl("E [ p U q ]") == parse_ctl("E[p U q]") == EU(Atom("p"), Atom("q"))

    @pytest.mark.parametrize("nested", [
        lambda n: "!" * (n - 1) + "p",
        lambda n: " & ".join(["p"] * n),
        lambda n: " -> ".join(["p"] * n),
        lambda n: "E [ " * (n - 1) + "p" + " U q ]" * (n - 1),
        lambda n: "(" * (n - 1) + "p" + ")" * (n - 1),
    ], ids=["negations", "conjunctions", "implications", "untils", "parentheses"])
    def test_nesting_limit(self, nested):
        formula = parse_ctl(nested(MAX_CTL_DEPTH))
        assert parse_ctl(render_ctl(formula)) == formula
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_ctl(nested(MAX_CTL_DEPTH + 1))


UNARY = (Not, EX, EF, EG, AX, AF, AG)
BINARY = (And, Or, Implies, EU, AU)


class TestFormulaNodes:
    """Operators of one shape have the same fields, yet each node keeps its operator."""

    X, Y = Atom("x"), Atom("y")

    def nodes(self):
        return [op(self.X) for op in UNARY] + [op(self.X, self.Y) for op in BINARY]

    def test_operators_of_one_shape_differ(self):
        for shape, operands in ((UNARY, (self.X,)), (BINARY, (self.X, self.Y))):
            for first, second in permutations(shape, 2):
                assert first(*operands) != second(*operands)
        assert len(set(self.nodes())) == 12

    def test_repr(self):
        x, y = "Atom(name='x')", "Atom(name='y')"
        assert [repr(node) for node in self.nodes()] == [
            f"Not(operand={x})", f"EX(operand={x})", f"EF(operand={x})",
            f"EG(operand={x})", f"AX(operand={x})", f"AF(operand={x})",
            f"AG(operand={x})", f"And(left={x}, right={y})", f"Or(left={x}, right={y})",
            f"Implies(left={x}, right={y})", f"EU(left={x}, right={y})",
            f"AU(left={x}, right={y})"]

    def test_pickle_and_deepcopy_round_trip(self):
        for node in self.nodes():
            for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert twin == node and type(twin) is type(node)
                assert hash(twin) == hash(node)

    def test_replace_keeps_the_operator(self):
        z = Atom("z")
        for op in UNARY:
            assert dataclasses.replace(op(self.X), operand=z) == op(z)
        for op in BINARY:
            assert dataclasses.replace(op(self.X, self.Y), right=z) == op(self.X, z)

    def test_positional_patterns_bind_the_operands(self):
        for op in UNARY:
            match op(self.X):
                case op(operand):
                    assert operand == self.X
                case _:
                    pytest.fail(op.__name__)
        for op in BINARY:
            match op(self.X, self.Y):
                case op(left, right):
                    assert (left, right) == (self.X, self.Y)
                case _:
                    pytest.fail(op.__name__)

    def test_nodes_are_frozen(self):
        for node in self.nodes():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, dataclasses.fields(node)[0].name, self.Y)


class TestNotAFormula:
    """The renderer and the labeling reject a node that is no CTL operator."""

    @pytest.mark.parametrize("formula", ["p", Formula(), Not("p"), And(Atom("p"), None)],
                             ids=["str", "base", "nested-str", "nested-none"])
    def test_render_rejects(self, formula):
        with pytest.raises(TypeError, match="not a formula"):
            render_ctl(formula)

    @pytest.mark.parametrize("formula", ["p", Formula(), Unary(Atom("p")),
                                         Binary(Atom("p"), Atom("q")), EF(Not("p"))],
                             ids=["str", "base", "unary-shape", "binary-shape", "nested-str"])
    def test_labeling_rejects(self, formula):
        # Unary and Binary are shapes, not operators: the renderer prints
        # the first, but no labeling rule covers either
        with pytest.raises(TypeError, match="not a formula"):
            satisfying_states(single_state_structure(), formula)


def single_state_structure():
    return KripkeStructure(states=("s0",), initial="s0",
                           successors={"s0": (("loop", "s0"),)},
                           labels={"s0": frozenset({"p"})},
                           atoms=frozenset({"p", "q"}))


class TestKripkeStructure:
    def test_state_without_labels_entry_has_no_labels(self):
        k = KripkeStructure(states=("a", "b"), initial="a",
                            successors={"a": (("go", "b"),), "b": (("stay", "b"),)},
                            labels={"a": frozenset({"p"})}, atoms=frozenset({"p"}))
        assert satisfying_states(k, parse_ctl("!p")) == {"b"}
        verdict = check_ctl(k, parse_ctl("AG p"))
        assert not verdict.holds
        assert verdict.counterexample == (PathStep(None, "a"), PathStep("go", "b"))

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError, match="duplicate states"):
            KripkeStructure(states=("a", "a"), initial="a",
                            successors={"a": (("stay", "a"),)},
                            labels={}, atoms=frozenset())

    # the contracts of a hand-built structure
    @pytest.mark.parametrize("given, message", [
        ({"initial": "z"}, "initial state missing from state set"),
        ({"successors": {"a": (("go", "b"),), "b": ()}}, "state 'b' has no successor"),
        ({"successors": {"a": (("go", "z"),), "b": (("stay", "b"),)}},
         "successor of 'a' outside the state set"),
        ({"labels": {"b": frozenset({"q"})}}, "labels of 'b' not declared as atoms"),
    ], ids=["initial", "no-successor", "foreign-successor", "undeclared-label"])
    def test_malformed_structure_rejected(self, given, message):
        fields = {"states": ("a", "b"), "initial": "a",
                  "successors": {"a": (("go", "b"),), "b": (("stay", "b"),)},
                  "labels": {"a": frozenset({"p"})}, "atoms": frozenset({"p"}), **given}
        with pytest.raises(ValueError) as exc:
            KripkeStructure(**fields)
        assert str(exc.value) == message


class TestCheckCtl:
    def test_fixture_sensor_exclusion_holds(self, fixture_kripke):
        verdict = check_ctl(fixture_kripke, parse_ctl("AG !(HOME & END)"))
        assert verdict.holds
        assert verdict.counterexample is None

    def test_one_state_ef(self):
        verdict = check_ctl(single_state_structure(), parse_ctl("EF p"))
        assert verdict.holds

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            check_ctl(single_state_structure(), parse_ctl("EF zz"))

    def test_mutated_fixture_fails_with_counterexample(self):
        # drop the falling sensor edges: END stays latched inside the loop
        fsm = FSM(states=("Q0", "Q1", "Q2", "Q3"), initial="Q0",
                  edges=(("Q0", "EXT", "Q1"), ("Q1", "END_ON", "Q2"),
                         ("Q2", "RET", "Q3"), ("Q3", "HOME_ON", "Q0")))
        fb = build_plant_fb(fsm, fixture_action_map(), INITIAL_VALUATION)
        k = compose(fb, fixture_controller())
        verdict = check_ctl(k, parse_ctl("AG !(HOME & END)"))
        assert not verdict.holds
        path = verdict.counterexample
        assert path is not None and len(path) <= 20
        assert path[0].state == k.initial
        for before, after in zip(path, path[1:]):
            assert (after.event, after.state) in [
                (label, target) for label, target in k.successors[before.state]]
        last = path[-1].state
        assert {"HOME", "END"} <= k.labels[last]

    def test_counterexample_only_for_ag(self):
        k = single_state_structure()
        verdict = check_ctl(k, parse_ctl("EX q"))
        assert not verdict.holds
        assert verdict.counterexample is None

    def test_initial_violation_gives_single_state_path(self):
        k = single_state_structure()
        verdict = check_ctl(k, parse_ctl("AG q"))
        assert not verdict.holds
        assert len(verdict.counterexample) == 1
        assert verdict.counterexample[0].state == "s0"

    def test_top_level_ag_against_oracle(self):
        # the witness search decides a top-level AG; unreachable violating
        # states must not fail it, and a failure comes with a shortest path
        rng = random.Random(37)
        outcomes = set()
        for _ in range(300):
            k = rng.choice((random_kripke, random_multi_kripke))(rng)
            operand = random_formula(rng, ("p", "q", "r"), depth=2, constants=0.1)
            verdict = check_ctl(k, AG(operand))
            assert verdict.holds == (k.initial in ctl_oracle(k, AG(operand)))
            good = ctl_oracle(k, operand)
            outcomes.add((verdict.holds, len(good) == len(k.states)))
            if verdict.holds:
                assert verdict.counterexample is None
                continue
            path = verdict.counterexample
            assert path[0] == (None, k.initial)
            for before, after in zip(path, path[1:]):
                assert (after.event, after.state) in k.successors[before.state]
            assert [step.state in good for step in path] == [True] * (len(path) - 1) + [False]
            distance, layer, seen = 0, {k.initial}, {k.initial}
            while not layer - good:
                layer = {t for s in layer for _, t in k.successors[s]} - seen
                seen |= layer
                distance += 1
            assert len(path) == distance + 1
        # holding with every state good, holding with an unreachable bad
        # state, and failing all occur
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_fixpoint_rounds_bounded(self):
        rng = random.Random(29)
        for _ in range(50):
            k = random_kripke(rng)
            stats = {}
            satisfying_states(k, random_formula(rng, ("p", "q", "r")), stats)
            for rounds in stats.get("rounds", []):
                assert rounds <= len(k.states)


class TestOracleAgreement:
    def test_random_structures_and_formulas(self):
        rng = random.Random(101)
        for _ in range(150):
            k = random_kripke(rng)
            formula = random_formula(rng, ("p", "q", "r"), depth=3)
            assert satisfying_states(k, formula) == frozenset(ctl_oracle(k, formula))

    def test_dualities_as_set_equalities(self):
        rng = random.Random(59)
        p = Atom("p")
        for _ in range(100):
            k = random_kripke(rng)
            assert satisfying_states(k, AG(p)) == \
                satisfying_states(k, Not(EF(Not(p))))
            assert satisfying_states(k, parse_ctl("AF p")) == \
                satisfying_states(k, parse_ctl("!EG !p"))
            assert satisfying_states(k, parse_ctl("AX p")) == \
                satisfying_states(k, parse_ctl("!EX !p"))


def mixed_state(rng: random.Random, i: int):
    """State ``i`` as an int, a string, a pair or a composite state: all distinct."""
    return rng.choice((i, f"s{i}", (i, "t"),
                       CompositeState(f"P{i}", f"C{i % 3}", rng.choice((None, "EV")))))


def wide_chain(rng: random.Random, atoms: tuple[str, ...], width: int):
    """``width`` literals (atoms, negated atoms, rarely TRUE/FALSE) joined by random
    ``&``/``|``/``->`` in a random bracketing, with some subterms negated."""
    def literal():
        if rng.random() < 0.05:
            return Const(rng.random() < 0.5)
        atom = Atom(rng.choice(atoms))
        return Not(atom) if rng.random() < 0.3 else atom

    parts = [literal() for _ in range(width)]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        joined = rng.choice((And, Or, Implies))(parts[i], parts[i + 1])
        parts[i:i + 2] = [Not(joined) if rng.random() < 0.1 else joined]
    return parts[0]


class TestWideFormulas:
    def test_agree_with_reference_and_oracle(self):
        # byte vectors longer than a machine word, states of every hashable
        # shape, and states without a labels entry
        rng = random.Random(97)
        atoms = tuple(f"a{i}" for i in range(24))
        for _ in range(40):
            n = rng.randint(1, 150)
            states = tuple(mixed_state(rng, i) for i in range(n))
            successors = {s: tuple((f"e{j}", t) for j, t in
                                   enumerate(rng.choices(states, k=rng.randint(1, 3))))
                          for s in states}
            labels = {s: frozenset(a for a in atoms if rng.random() < 0.4) for s in states}
            labels = {s: value for s, value in labels.items() if value or rng.random() < 0.5}
            k = KripkeStructure(states=states, initial=states[0], successors=successors,
                                labels=labels, atoms=frozenset(atoms))
            width = rng.randint(50, 200)
            left = wide_chain(rng, atoms, width // 2)
            right = wide_chain(rng, atoms, width - width // 2)
            formula = rng.choice((EX(And(left, right)), AX(Or(left, right)),
                                  EU(left, right), AU(left, right)))
            stats, reference_stats = {}, {}
            got = satisfying_states(k, formula, stats)
            assert type(got) is frozenset
            assert got == satisfying_states_reference(k, formula, reference_stats)
            assert got == frozenset(ctl_oracle(k, formula))
            assert stats == reference_stats


class CountingSuccessors(Mapping):
    """A successor map that counts its lookups."""

    def __init__(self, data):
        self.data = data
        self.lookups = 0

    def __getitem__(self, state):
        self.lookups += 1
        return self.data[state]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


class TestWorklistLabeling:
    def test_matches_oracle_and_round_based_reference(self):
        # self-loops and parallel edges exercise the EG successor counts
        rng = random.Random(211)
        for _ in range(200):
            k = random_multi_kripke(rng)
            formula = random_formula(rng, ("p", "q", "r"), depth=3)
            stats, reference_stats = {}, {}
            got = satisfying_states(k, formula, stats)
            assert got == satisfying_states_reference(k, formula, reference_stats)
            assert got == frozenset(ctl_oracle(k, formula))
            assert stats == reference_stats

    def test_successor_lookups_linear_on_chain(self):
        n = 3000
        states = tuple(range(n))
        successors = CountingSuccessors(
            {s: (("next", min(s + 1, n - 1)),) for s in states})
        k = KripkeStructure(states=states, initial=0, successors=successors,
                            labels={s: frozenset({"goal"} if s == n - 1 else ())
                                    for s in states},
                            atoms=frozenset({"goal"}))
        edges = n
        for text, holds in (("EF goal", True), ("EG !goal", False),
                            ("AG !goal", False)):
            successors.lookups = 0
            verdict = check_ctl(k, parse_ctl(text))
            assert verdict.holds is holds
            assert successors.lookups <= 2 * (n + edges), text
        assert len(verdict.counterexample) == n

    def test_labeling_reads_no_successors(self):
        # the predecessor lists built with the structure are the only
        # adjacency labeling reads; only the AG witness search walks successors
        rng = random.Random(83)
        for _ in range(30):
            drawn = random_multi_kripke(rng)
            successors = CountingSuccessors(dict(drawn.successors))
            k = KripkeStructure(states=drawn.states, initial=drawn.initial,
                                successors=successors, labels=drawn.labels,
                                atoms=drawn.atoms)
            successors.lookups = 0
            for text in ("EX p", "AX p", "EF p", "EG p", "AF p", "E[p U q]", "A[p U q]"):
                check_ctl(k, parse_ctl(text))
                satisfying_states(k, parse_ctl(f"AG {text}"))
            assert successors.lookups == 0

    def test_witness_search_stops_at_first_violation(self):
        n, depth = 3000, 5
        states = tuple(range(n))
        successors = CountingSuccessors(
            {s: (("next", min(s + 1, n - 1)),) for s in states})
        k = KripkeStructure(states=states, initial=0, successors=successors,
                            labels={s: frozenset({"bad"} if s >= depth else ())
                                    for s in states},
                            atoms=frozenset({"bad"}))
        successors.lookups = 0
        verdict = check_ctl(k, parse_ctl("AG !bad"))
        assert not verdict.holds
        assert successors.lookups <= depth + 1
        assert verdict.counterexample == tuple(
            PathStep(None if s == 0 else "next", s) for s in range(depth + 1))


class TestClosedLoopWithRandomPlants:
    def test_composition_is_total_and_checkable(self):
        rng = random.Random(71)
        for _ in range(25):
            fsm, amap, initial = random_plant_fsm(rng, max_states=6)
            fb = build_plant_fb(fsm, amap, initial)
            ctl = random_controller(rng, fb)
            k = compose(fb, ctl)
            for state in k.states:
                assert len(k.successors[state]) >= 1
            formula = parse_ctl("AG !(V0 & V1)")
            assert check_ctl(k, formula).holds in (True, False)

    def test_random_plants_leave_their_initial_state(self):
        # every draw enters Q1 from Q0 by a sensor edge, so the closed loop
        # moves whatever the controller does
        rng = random.Random(67)
        moving = 0
        for _ in range(200):
            fsm, amap, initial = random_plant_fsm(rng, max_states=10)
            fb = build_plant_fb(fsm, amap, initial)
            moving += len(compose(fb, random_controller(rng, fb)).states) > 1
        assert moving >= 180


class TestTransferLine:
    @pytest.mark.parametrize("cylinders", range(3, 9))
    def test_verdicts_and_witness(self, cylinders):
        loop = compose(*transfer_line(cylinders))
        tags = [chr(ord("A") + i) for i in range(cylinders)]
        last = f"END_{tags[-1]}"
        specs = {"AG (" + " & ".join(f"!(HOME_{t} & END_{t})" for t in tags) + ")": True,
                 "AG EF HOME_A": True,
                 f"AG !{last}": False}
        for text, holds in specs.items():
            formula = parse_ctl(text)
            verdict = check_ctl(loop, formula)
            assert verdict.holds is holds is (loop.initial in ctl_oracle(loop, formula)), text
        path = verdict.counterexample
        assert path[0] == (None, loop.initial)
        for before, after in zip(path, path[1:]):
            assert (after.event, after.state) in loop.successors[before.state]
        assert [last in loop.labels[step.state] for step in path] == \
            [False] * (len(path) - 1) + [True]
