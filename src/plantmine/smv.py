"""NuSMV code generation for the plant block and the closed-loop composition.

The emitted main module encodes exactly the pending-event product semantics
of :func:`plantmine.verify.compose`, so the external model checker and the
built-in one see the same transition system.  Specs are printed by the
renderer of :mod:`plantmine.verify` in NuSMV's syntax.  Output is
byte-deterministic: LF endings, no tabs, sorted enumerations.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .errors import SmvUnsupported, UnknownAtom
from .transform import FunctionBlock
from .verify import _SMV, ControllerFSM, Formula, _check_wiring, _render

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


@dataclass(frozen=True)
class SmvDocument:
    text: str


def _check_name(name: str, role: str) -> None:
    if name in _RESERVED:
        raise SmvUnsupported(f"{role} {name!r} collides with an SMV keyword")


def _choice(targets: list[str]) -> str:
    return targets[0] if len(targets) == 1 else "{" + ", ".join(targets) + "}"


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

    lines = [f"MODULE {fb.name}(pending)",
             "VAR",
             "  state : {" + ", ".join(state_names) + "};",
             "ASSIGN",
             f"  init(state) := {fb.initial_state};",
             "  next(state) := case"]
    guarded: dict[tuple[str, str], list[str]] = {}
    for src, guard, dst in fb.transitions:
        if guard is not None:
            guarded.setdefault((guard, src), []).append(dst)
    for (guard, src), targets in sorted(guarded.items()):
        lines.append(f"    pending = {guard} & state = {src} : {_choice(targets)};")
    for src in state_names:
        targets = fb.ndt_edges(src)
        if src in targets:
            raise SmvUnsupported(
                f"state {src!r} has a spontaneous self-loop, which this "
                "encoding cannot distinguish from a stutter step")
        if targets:
            options = list(targets)
            insort(options, src)
            lines.append(f"    pending = none & state = {src} : {_choice(options)};")
    lines.append("    TRUE : state;")
    lines.append("  esac;")

    true_in: dict[str, list[str]] = {var: [] for var in fb.sensor_vars}
    for state in fb.states:
        for var in state.valuation:
            true_in[var].append(state.name)
    if true_in:  # DEFINE with no entries is invalid SMV
        lines.append("DEFINE")
    for var, names in true_in.items():
        lines.append(f"  {var} := state in {{{', '.join(names)}}};" if names
                     else f"  {var} := FALSE;")
    return "\n".join(lines) + "\n"


def emit_controller_module(ctl: ControllerFSM) -> str:
    """One SMV module for the controller, with its output event as a define."""
    for name in ctl.states + ctl.inputs + ctl.outputs:
        _check_name(name, "identifier")
    lines = [f"MODULE {CONTROLLER_MODULE}(pending)",
             "VAR",
             "  state : {" + ", ".join(ctl.states) + "};",
             "ASSIGN",
             f"  init(state) := {ctl.initial};",
             "  next(state) := case"]
    for src, event, _, target in ctl.transitions:
        lines.append(f"    state = {src} & pending = {event} : {target};")
    lines.append("    TRUE : state;")
    lines.append("  esac;")
    lines.append("DEFINE")
    lines.append("  out := case")
    for src, event, output, _ in ctl.transitions:
        if output is not None:
            lines.append(f"    state = {src} & pending = {event} : {output};")
    lines.append("    TRUE : none;")
    lines.append("  esac;")
    return "\n".join(lines) + "\n"


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
    routed_to_plant = [e for e in events if e not in fb.event_outputs]
    if routed_to_plant:
        guard = " | ".join(f"pending = {g}" for g in routed_to_plant)
        # Input-guarded targets never announce anything, so executing or
        # dropping a command always clears the pending slot.
        lines.append(f"    {guard} : none;")
    lines.append("    TRUE : ctl.out;")
    lines.append("  esac;")

    text = plant_text + "\n" + ctl_text + "\n" + "\n".join(lines) + "\n"
    for spec in specs:
        text += f"CTLSPEC {render_smv_formula(spec, fb, ctl)}\n"
    return SmvDocument(text=text)
