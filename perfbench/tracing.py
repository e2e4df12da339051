"""Per-module spans for the traced run, recorded from the benchmark's side.

Each stage-level public function is replaced at its module attribute by a
wrapper that records a span (name, start, end, parent span, instance) and a
few work counts taken from its arguments and return value.  The CLI calls the
stages through their modules (``eventlog.parse_csv(...)``) and the modules
call each other through their globals, so the wrappers see every call with
no change to the package.  Functions called once per event, marking or
trace (``parse_timestamp``, ``fire``, ``replay_trace``, ...) and the
recursive ``render_ctl`` stay unwrapped: a span per element would cost more
than the work it measures.

Time is attributed by module: a span's self time is its duration minus the
time of its child spans, and the self time of a span nested directly in a
span of the same module is credited to that outer span.  So
``discovery.alpha_discover.s`` includes ``causal_pairs``, and
``verify.check_ctl.s`` includes ``satisfying_states``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from plantmine import cli, discovery, eventlog, petri, smv, transform, verify

TRACED = {
    eventlog: ("parse_csv", "export_csv", "filter_component", "group_traces", "export_xes"),
    cli: ("main",),
    discovery: ("alpha_discover", "footprint", "maximal_pairs", "causal_pairs", "fitness"),
    petri: ("strip_boundary", "default_initial_marking", "reachability_graph",
            "export_pnml", "export_dot_graph", "export_dot_net"),
    transform: ("parse_action_map", "fsm_from_graph", "classify_alphabet",
                "build_plant_fb", "export_fb", "parse_fb", "export_fb_dot"),
    smv: ("emit_closed_loop", "emit_plant_module", "emit_controller_module",
          "render_smv_formula"),
    verify: ("parse_controller", "parse_ctl", "compose", "check_ctl", "satisfying_states"),
}
MODULES = tuple(module.__name__.rpartition(".")[2] for module in TRACED)

TIMED = ("eventlog.parse_csv", "eventlog.export_csv", "eventlog.export_xes",
         "eventlog.group_traces", "eventlog.filter_component",
         "discovery.alpha_discover", "discovery.fitness",
         "petri.reachability_graph", "petri.export_pnml", "petri.export_dot_graph",
         "transform.fsm_from_graph", "transform.build_plant_fb", "transform.export_fb",
         "smv.emit_closed_loop", "verify.compose", "verify.check_ctl")

#: Work counts reported as their median per traced instance.
COUNTED = {"eventlog.events": "count", "eventlog.traces": "count",
           "cli.bytes_written": "bytes",
           "discovery.alphabet": "count", "discovery.places": "count", "discovery.arcs": "count",
           "petri.markings": "count", "petri.reach_edges": "count",
           "transform.fb_states": "count", "transform.fb_transitions": "count",
           "transform.announcing_states": "count",
           "smv.bytes": "bytes",
           "verify.satisfying_states.calls": "count", "verify.fixpoint_rounds": "count",
           "verify.kripke_states": "count", "verify.kripke_edges": "count",
           "verify.diagnostics": "count"}

#: Every per-layer metric the traced run reports, with its unit.  A layer the
#: workload does not run reports 0.
PER_LAYER = (
    [(f"{name}.s", "s") for name in TIMED]
    + list(COUNTED.items())
    + [("eventlog.parse_mb_per_s", "MB/s"), ("cli.self_s", "s"),
       ("discovery.place_yield", "ratio"), ("verify.counterexample_len", "count")]
    + [(f"{module}.share", "ratio") for module in MODULES]
    + [(f"{module}.errors", "count") for module in MODULES]
    + [("trace.overhead_ratio", "ratio")])


def _counts(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts read off one call's arguments and return value."""
    match name:
        case "eventlog.parse_csv":
            return {"eventlog.events": len(result), "parse_bytes": len(args[0])}
        case "eventlog.group_traces":
            return {"eventlog.traces": len(result)}
        case "discovery.alpha_discover":
            boundary = (result.source is not None) + (result.sink is not None)
            return {"discovery.alphabet": len(result.transitions),
                    "discovery.places": len(result.places),
                    "discovery.arcs": len(result.arcs),
                    "mined_places": len(result.places) - boundary}
        case "discovery.causal_pairs":
            return {"causal_pairs": len(result)}
        case "petri.reachability_graph":
            return {"petri.markings": len(result.nodes), "petri.reach_edges": len(result.edges)}
        case "transform.build_plant_fb":
            return {"transform.fb_states": len(result.states),
                    "transform.fb_transitions": len(result.transitions),
                    "transform.announcing_states": len(result.states) - len(args[0].states)}
        case "smv.emit_closed_loop":
            return {"smv.bytes": len(result.text.encode())}
        case "verify.compose":
            return {"verify.kripke_states": len(result.states),
                    "verify.kripke_edges": sum(len(s) for s in result.successors.values()),
                    "verify.diagnostics": len(result.diagnostics)}
        case "verify.satisfying_states":
            return {"verify.satisfying_states.calls": 1}
    return {}


class Tracer:
    """Installs the wrappers and keeps every span and count in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, instance, error]
        self.counts: dict[object, defaultdict] = {}
        self.witnesses: list[int] = []
        self.instance: object = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, names in TRACED.items():
            short = module.__name__.rpartition(".")[2]
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                if name == "satisfying_states":
                    original = self._with_stats(original)
                setattr(module, name, self._wrap(f"{short}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def begin(self, instance: object) -> None:
        self.instance = instance
        self.counts[instance] = defaultdict(float)

    def add(self, key: str, value: float) -> None:
        self.counts[self.instance][key] += value

    def _with_stats(self, func):
        """Read fixpoint rounds through the public ``stats`` hook of satisfying_states."""
        def satisfying_states(k, formula, stats=None):
            own = {} if stats is None else stats
            before = len(own.get("rounds", []))
            result = func(k, formula, own)
            self.add("verify.fixpoint_rounds", sum(own.get("rounds", [])[before:]))
            return result
        return satisfying_states

    def _wrap(self, name: str, func):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.instance, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for key, value in _counts(name, args, result).items():
                self.add(key, value)
            if name == "verify.check_ctl" and result.counterexample:
                self.witnesses.append(len(result.counterexample))
            return result
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance, error in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "instance": instance,
                                         "error": error}) + "\n")

    def per_layer(self, walls: dict[object, float], overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: medians over traced instances, error totals, overhead."""
        self_time: dict[object, defaultdict] = {i: defaultdict(float) for i in walls}
        errors: defaultdict = defaultdict(int)
        owner: list[int] = []
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for index, (name, start, end, parent, instance, error) in enumerate(self.spans):
            module = name.partition(".")[0]
            same = parent is not None and self.spans[parent][0].partition(".")[0] == module
            owner.append(owner[parent] if same else index)
            if error and not same:
                errors[module] += 1
            if instance in self_time:
                credited = self.spans[owner[index]][0]
                self_time[instance][credited] += end - start - child_time[index]
                self_time[instance][module] += end - start - child_time[index]

        def median(values) -> float:
            values = list(values)
            return statistics.median(values) if values else 0.0

        per_instance = {i: {**self.counts.get(i, {}), **self_time[i]} for i in walls}
        metrics = {f"{name}.s": median(v.get(name, 0.0) for v in per_instance.values())
                   for name in TIMED}
        metrics.update({name: median(v.get(name, 0.0) for v in per_instance.values())
                        for name in COUNTED})
        metrics["cli.self_s"] = median(v.get("cli", 0.0) for v in per_instance.values())
        metrics["eventlog.parse_mb_per_s"] = median(
            v["parse_bytes"] / 1e6 / v["eventlog.parse_csv"]
            for v in per_instance.values() if v.get("eventlog.parse_csv"))
        metrics["discovery.place_yield"] = median(
            v["mined_places"] / v["causal_pairs"]
            for v in per_instance.values() if v.get("causal_pairs"))
        metrics["verify.counterexample_len"] = median(self.witnesses)
        for module in MODULES:
            metrics[f"{module}.share"] = median(
                per_instance[i].get(module, 0.0) / walls[i] for i in walls)
            metrics[f"{module}.errors"] = errors[module]
        metrics["trace.overhead_ratio"] = overhead_ratio
        return {name: metrics[name] for name, _ in PER_LAYER}
