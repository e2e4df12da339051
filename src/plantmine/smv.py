"""NuSMV code generation for the plant block and the closed-loop composition.

The emitted main module encodes exactly the pending-event product semantics
of :func:`plantmine.verify.compose`, so the external model checker and the
built-in one see the same transition system.  Specs are printed by the
renderer of :mod:`plantmine.verify` in NuSMV's syntax.  Output is
byte-deterministic: LF endings, no tabs, sorted enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SmvUnsupported, UnknownAtom
from .transform import FunctionBlock
from .verify import Const, ControllerFSM, Formula, Not, _check_wiring, _render, _Syntax

# NuSMV 2.6 keywords plus the identifiers this emitter claims for itself.
_RESERVED = {
    "MODULE", "DEFINE", "MDEFINE", "CONSTANTS", "VAR", "IVAR", "FROZENVAR",
    "INIT", "TRANS", "INVAR", "SPEC", "CTLSPEC", "LTLSPEC", "PSLSPEC",
    "COMPUTE", "NAME", "INVARSPEC", "FAIRNESS", "JUSTICE", "COMPASSION",
    "ISA", "ASSIGN", "CONSTRAINT", "SIMPWFF", "CTLWFF", "LTLWFF", "PSLWFF",
    "COMPWFF", "IN", "MIN", "MAX", "MIRROR", "PRED", "PREDICATES",
    "process", "array", "of", "boolean", "integer", "real", "word", "word1",
    "bool", "signed", "unsigned", "extend", "resize", "sizeof", "uwconst",
    "swconst", "EX", "AX", "EF", "AF", "EG", "AG", "E", "F", "O", "G", "H",
    "X", "Y", "Z", "A", "U", "S", "V", "T", "BU", "EBF", "ABF", "EBG", "ABG",
    "case", "esac", "mod", "next", "init", "union", "in", "xor", "xnor",
    "self", "TRUE", "FALSE", "count", "abs", "max", "min",
    "none", "pending", "state", "plant", "ctl", "main", "out",
}

CONTROLLER_MODULE = "CONTROLLER"

# NuSMV's spelling of CTL, for the renderer of plantmine.verify.
_SMV = _Syntax("{} [ {} U {} ]", (Const, Not), False)


@dataclass(frozen=True)
class SmvDocument:
    text: str


def _check_name(name: str, role: str) -> None:
    if name in _RESERVED:
        raise SmvUnsupported(f"{role} {name!r} collides with an SMV keyword")


def _choice(targets: tuple[str, ...] | list[str]) -> str:
    return targets[0] if len(targets) == 1 else "{" + ", ".join(targets) + "}"


def _state_machine(name: str, states: tuple[str, ...] | list[str], initial: str,
                   rules: list[str], defines: list[str]) -> str:
    """Module ``name(pending)`` whose ``state`` steps by ``rules`` and else stays put."""
    lines = [f"MODULE {name}(pending)",
             "VAR",
             "  state : {" + ", ".join(states) + "};",
             "ASSIGN",
             f"  init(state) := {initial};",
             "  next(state) := case",
             *rules,
             "    TRUE : state;",
             "  esac;"]
    if defines:  # DEFINE with no entries is invalid SMV
        lines += ["DEFINE", *defines]
    return "\n".join(lines) + "\n"


def emit_plant_module(fb: FunctionBlock) -> str:
    """One SMV module for the plant block.

    The EC state becomes an enumerated variable; input-guarded transitions
    fire when their event is pending, spontaneous transitions become
    non-deterministic choices that include staying put.  Sensor variables are
    defined as state-set membership over the states whose latch valuation
    makes them true.
    """
    _check_name(fb.name, "module name")
    state_names = [s.name for s in fb.states]
    for name in state_names + [*fb.event_inputs, *fb.event_outputs, *fb.sensor_vars]:
        _check_name(name, "identifier")

    rules = []
    for (src, guard), targets in fb._targets.items():
        if guard is not None:
            rules.append(f"    pending = {guard} & state = {src} : {_choice(targets)};")
            continue
        if src in targets:
            raise SmvUnsupported(
                f"state {src!r} has a spontaneous self-loop, which this "
                "encoding cannot distinguish from a stutter step")
        rules.append(f"    pending = none & state = {src} : {_choice(sorted((src, *targets)))};")

    true_in: dict[str, list[str]] = {var: [] for var in fb.sensor_vars}
    for state in fb.states:
        for var in state.valuation:
            true_in[var].append(state.name)
    defines = [f"  {var} := state in {{{', '.join(names)}}};" if names
               else f"  {var} := FALSE;"
               for var, names in true_in.items()]
    return _state_machine(fb.name, state_names, fb.initial_state, rules, defines)


def emit_controller_module(ctl: ControllerFSM) -> str:
    """One SMV module for the controller, with its output event as a define."""
    for name in ctl.states + ctl.inputs + ctl.outputs:
        _check_name(name, "identifier")
    rules = [f"    state = {src} & pending = {event} : {target};"
             for src, event, _, target in ctl.transitions]
    outputs = [f"    state = {src} & pending = {event} : {output};"
               for src, event, output, _ in ctl.transitions if output is not None]
    defines = ["  out := case",
               *outputs,
               "    TRUE : none;",
               "  esac;"]
    return _state_machine(CONTROLLER_MODULE, ctl.states, ctl.initial, rules, defines)


def render_smv_formula(formula: Formula, fb: FunctionBlock,
                       ctl: ControllerFSM) -> str:
    """Render a CTL formula in NuSMV's syntax with atoms mapped onto the instance paths.

    Sensor atoms become ``plant.<VAR> = TRUE``; ``plant_state=Qi`` and
    ``ctl_state=Cj`` atoms become the corresponding state comparisons.  Any
    other atom raises :class:`UnknownAtom`.
    """
    sensor_vars = set(fb.sensor_vars)
    plant_states = {s.name for s in fb.states}
    ctl_states = set(ctl.states)

    def atom_text(name: str) -> str:
        if name in sensor_vars:
            return f"plant.{name} = TRUE"
        kind, _, value = name.partition("=")
        if kind == "plant_state" and value in plant_states:
            return f"plant.state = {value}"
        if kind == "ctl_state" and value in ctl_states:
            return f"ctl.state = {value}"
        raise UnknownAtom(name)

    return _render(formula, atom_text, _SMV)


def emit_closed_loop(fb: FunctionBlock, ctl: ControllerFSM,
                     specs: tuple[Formula, ...] = ()) -> SmvDocument:
    """Emit the full closed-loop SMV document with one CTLSPEC per formula.

    The single in-flight event lives in ``main.pending``; the plant moves
    spontaneously only while nothing is pending, the controller consumes
    pending sensor events, and pending control commands are executed by the
    plant (or silently dropped, mirroring the built-in composition's
    diagnostics).  The wiring tolerance matches the built-in composition: an
    event claimed in the same direction by both sides is rejected, everything
    else composes.  A block named like the controller module is rejected.
    """
    _check_wiring(fb, ctl)
    if fb.name == CONTROLLER_MODULE:
        raise SmvUnsupported(f"module name {fb.name!r} collides with the controller module")

    events = sorted(set(fb.event_inputs) | set(fb.event_outputs)
                    | set(ctl.inputs) | set(ctl.outputs))
    plant_text = emit_plant_module(fb)
    ctl_text = emit_controller_module(ctl)

    initial_emission = fb.emission(fb.initial_state) or "none"
    emitting = [(s.name, s.emission) for s in fb.states if s.emission is not None]

    lines = ["MODULE main",
             "VAR",
             "  pending : {" + ", ".join(events + ["none"]) + "};",
             f"  plant : {fb.name}(pending);",
             f"  ctl : {CONTROLLER_MODULE}(pending);",
             "ASSIGN",
             f"  init(pending) := {initial_emission};",
             "  next(pending) := case",
             "    pending = none : case",
             "      next(plant.state) = plant.state : none;"]
    for state, emission in emitting:
        lines.append(f"      next(plant.state) = {state} : {emission};")
    lines.append("      TRUE : none;")
    lines.append("    esac;")
    # A pending sensor event becomes the controller's reply.  A pending
    # command clears the slot through the same rule: the controller never
    # reacts to its own outputs, so ctl.out is none, and an input-guarded
    # target never announces anything.
    lines.append("    TRUE : ctl.out;")
    lines.append("  esac;")

    text = plant_text + "\n" + ctl_text + "\n" + "\n".join(lines) + "\n"
    for spec in specs:
        text += f"CTLSPEC {render_smv_formula(spec, fb, ctl)}\n"
    return SmvDocument(text=text)
