"""An evaluator for the SMV subset that :mod:`plantmine.smv` emits.

It reads an emitted document back -- enumerated ``VAR``s, module instances
with parameters, ``init``/``next`` assignments with nested ``case ... esac``
and set choices, ``next(...)`` references, ``DEFINE``s with ``in``, and the
``CTLSPEC`` lines -- and explores it under NuSMV's synchronous semantics
(Cimatti et al., CAV 2002): every variable steps at once, a ``next``
expression may read the next value of another variable, and a set is a
non-deterministic choice.  Operator precedence follows NuSMV: ``=`` and
``in`` bind tighter than ``!`` and the temporal operators, which bind tighter
than ``&``, then ``|``, then the right-associative ``->``.

It shares no code with the emitter, the CTL parser or the built-in
composition, so a structure and verdicts that agree with
:func:`plantmine.verify.compose` and :func:`plantmine.verify.check_ctl` show
that the emitted file means what the built-in checker checks.  Only the CTL
syntax classes are borrowed, so the test suite's ``ctl_oracle`` can check the
specs.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import product

from plantmine.verify import (AF, AG, AU, EF, EG, EU, EX, AX, And, Atom, Const,
                              Formula, Implies, KripkeStructure, Not, Or)

_TOKEN_RE = re.compile(r":=|->|[A-Za-z0-9_]+|[:;(){}\[\],.=&|!]|(\S)")
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_SECTIONS = ("VAR", "ASSIGN", "DEFINE")
_KEYWORDS = {"MODULE", "CTLSPEC", "TRUE", "FALSE", "case", "esac", "next", "init",
             "in", "E", "A", "U", *_SECTIONS}
_TEMPORAL = {"EX": EX, "EF": EF, "EG": EG, "AX": AX, "AF": AF, "AG": AG}
_BOOLEAN = {"&": And, "|": Or, "->": Implies}


class SmvError(Exception):
    """The text leaves the emitted subset, or means nothing under its semantics."""


@dataclass
class _Module:
    name: str
    params: tuple[str, ...] = ()
    enums: dict[str, tuple[str, ...]] = field(default_factory=dict)
    instances: dict[str, tuple[str, tuple]] = field(default_factory=dict)
    init: dict[str, tuple] = field(default_factory=dict)
    next: dict[str, tuple] = field(default_factory=dict)
    defines: dict[str, tuple] = field(default_factory=dict)

    def declare(self, table: dict, name: str, value) -> None:
        if any(name in names for names in (self.params, self.enums,
                                           self.instances, self.defines)):
            raise SmvError(f"{self.name}: {name!r} declared twice")
        table[name] = value

    def assign(self, table: dict, name: str, value) -> None:
        if name in table:
            raise SmvError(f"{self.name}: {name!r} assigned twice")
        table[name] = value


# ---------------------------------------------------------------------------
# Parsing.  Expressions become tuples: ("const", bool), ("ref", path),
# ("next", path), ("set", frozenset), ("case", ((cond, value), ...)),
# (op, operand...) for = in ! & | -> and the CTL operators.

class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.group(1):
                raise SmvError(f"unexpected character {m.group(1)!r}")
            self.tokens.append(m.group())
        self.index = 0

    def peek(self, ahead: int = 0) -> str | None:
        index = self.index + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None or expected is not None and token != expected:
            raise SmvError(f"expected {expected or 'a token'}, got {token!r}")
        self.index += 1
        return token

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.index += 1
            return True
        return False

    def name(self) -> str:
        token = self.take()
        if not _NAME_RE.match(token) or token in _KEYWORDS or token in _TEMPORAL:
            raise SmvError(f"expected an identifier, got {token!r}")
        return token

    def names(self, close: str) -> tuple[str, ...]:
        names = [self.name()]
        while self.accept(","):
            names.append(self.name())
        self.take(close)
        return tuple(names)

    def document(self) -> tuple[dict[str, _Module], list[tuple]]:
        modules: dict[str, _Module] = {}
        while self.accept("MODULE"):
            module = self.module()
            if module.name in modules:
                raise SmvError(f"module {module.name!r} declared twice")
            modules[module.name] = module
        specs = []
        while self.accept("CTLSPEC"):
            specs.append(self.expr())
        if self.peek() is not None:
            raise SmvError(f"unexpected {self.peek()!r} at top level")
        return modules, specs

    def module(self) -> _Module:
        module = _Module(self.name())
        if self.accept("("):
            module.params = self.names(")")
        while self.peek() in _SECTIONS:
            section = self.take()
            while self.peek() not in (*_SECTIONS, "MODULE", "CTLSPEC", None):
                if section == "VAR":
                    var = self.name()
                    self.take(":")
                    if self.accept("{"):
                        module.declare(module.enums, var, self.names("}"))
                    else:
                        kind = self.name()
                        self.take("(")
                        args = [self.expr()]
                        while self.accept(","):
                            args.append(self.expr())
                        self.take(")")
                        module.declare(module.instances, var, (kind, tuple(args)))
                elif section == "ASSIGN":
                    keyword = self.take()
                    if keyword not in ("init", "next"):
                        raise SmvError(f"expected init or next, got {keyword!r}")
                    self.take("(")
                    var = self.name()
                    self.take(")")
                    self.take(":=")
                    module.assign(module.init if keyword == "init" else module.next,
                                  var, self.expr())
                else:
                    var = self.name()
                    self.take(":=")
                    module.declare(module.defines, var, self.expr())
                self.take(";")
        return module

    def expr(self) -> tuple:
        left = self.disjunction()
        if self.accept("->"):
            return ("->", left, self.expr())
        return left

    def disjunction(self) -> tuple:
        left = self.conjunction()
        while self.accept("|"):
            left = ("|", left, self.conjunction())
        return left

    def conjunction(self) -> tuple:
        left = self.unary()
        while self.accept("&"):
            left = ("&", left, self.unary())
        return left

    def unary(self) -> tuple:
        token = self.peek()
        if token == "!" or token in _TEMPORAL:
            self.take()
            return (token, self.unary())
        if token in ("E", "A") and self.peek(1) == "[":
            self.take()
            self.take("[")
            left = self.expr()
            self.take("U")
            right = self.expr()
            self.take("]")
            return (token + "U", left, right)
        left = self.primary()
        if self.peek() in ("=", "in"):
            return (self.take(), left, self.primary())
        return left

    def primary(self) -> tuple:
        token = self.take()
        if token == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if token == "case":
            branches = []
            while not self.accept("esac"):
                condition = self.expr()
                self.take(":")
                branches.append((condition, self.expr()))
                self.take(";")
            return ("case", tuple(branches))
        if token == "{":
            return ("set", frozenset(self.names("}")))
        if token == "next":
            self.take("(")
            path = self.path(self.name())
            self.take(")")
            return ("next", path)
        if token in ("TRUE", "FALSE"):
            return ("const", token == "TRUE")
        self.index -= 1
        return ("ref", self.path(self.name()))

    def path(self, head: str) -> tuple[str, ...]:
        path = [head]
        while self.accept("."):
            path.append(self.name())
        return tuple(path)


# ---------------------------------------------------------------------------
# Instances and evaluation

@dataclass
class _Scope:
    """One module instance: its flattened name prefix and parameter bindings."""

    module: _Module
    prefix: str
    params: dict[str, tuple[_Scope, tuple]]
    children: dict[str, _Scope] = field(default_factory=dict)


def _instantiate(modules: dict[str, _Module], module: _Module, prefix: str,
                 params: dict) -> _Scope:
    scope = _Scope(module, prefix, params)
    for var, (kind, args) in module.instances.items():
        if kind not in modules or len(modules[kind].params) != len(args):
            raise SmvError(f"{prefix}{var}: no module {kind} of {len(args)} parameters")
        scope.children[var] = _instantiate(
            modules, modules[kind], f"{prefix}{var}.",
            {formal: (scope, arg) for formal, arg in zip(modules[kind].params, args)})
    return scope


def _resolve(scope: _Scope, path: tuple[str, ...]):
    """Follow a dotted name to ("var", flat name), ("expr", scope, ast) or ("const", name)."""
    head, rest = path[0], path[1:]
    module = scope.module
    if head in scope.children and rest:
        return _resolve(scope.children[head], rest)
    if rest:
        raise SmvError(f"{scope.prefix}{head} has no member {rest[0]!r}")
    if head in scope.params:
        return ("expr",) + scope.params[head]
    if head in module.enums:
        return ("var", scope.prefix + head)
    if head in module.defines:
        return ("expr", scope, module.defines[head])
    if head in scope.children:
        raise SmvError(f"module instance {scope.prefix}{head} used as a value")
    return ("const", head)


def _next_var(scope: _Scope, path: tuple[str, ...]) -> str:
    target = _resolve(scope, path)
    while target[0] == "expr" and target[2][0] == "ref":
        target = _resolve(target[1], target[2][1])
    if target[0] != "var":
        raise SmvError(f"next() of {'.'.join(path)}, which is no variable")
    return target[1]


def _truth(value) -> bool:
    if not isinstance(value, bool):
        raise SmvError(f"{value!r} used as a boolean")
    return value


def _evaluate(scope: _Scope, e: tuple, current: dict, following: dict):
    """The value of ``e``: a bool, an enumeration symbol, or a frozenset of symbols."""
    op = e[0]
    if op in ("const", "set"):
        return e[1]
    if op == "ref":
        target = _resolve(scope, e[1])
        if target[0] == "var":
            return current[target[1]]
        if target[0] == "expr":
            return _evaluate(target[1], target[2], current, following)
        return target[1]
    if op == "next":
        var = _next_var(scope, e[1])
        if var not in following:
            raise SmvError(f"next({var}) read before it is chosen")
        return following[var]
    if op == "case":
        for condition, value in e[1]:
            if _truth(_evaluate(scope, condition, current, following)):
                return _evaluate(scope, value, current, following)
        raise SmvError("no case branch applies")
    values = [_evaluate(scope, operand, current, following) for operand in e[1:]]
    if op == "=":
        if any(isinstance(v, frozenset) for v in values):
            raise SmvError("set compared with =")
        return values[0] == values[1]
    if op == "in":
        if not isinstance(values[1], frozenset):
            raise SmvError("in needs a set on its right")
        return values[0] in values[1]
    if op == "!":
        return not _truth(values[0])
    if op == "&":
        return _truth(values[0]) and _truth(values[1])
    if op == "|":
        return _truth(values[0]) or _truth(values[1])
    if op == "->":
        return not _truth(values[0]) or _truth(values[1])
    raise SmvError(f"temporal operator {op} outside a CTLSPEC")


def _next_reads(e: tuple, scope: _Scope) -> set[str]:
    if e[0] == "next":
        return {_next_var(scope, e[1])}
    if e[0] == "case":
        return set().union(*(_next_reads(part, scope) for branch in e[1] for part in branch))
    if e[0] in ("const", "set", "ref"):
        return set()
    return set().union(*(_next_reads(operand, scope) for operand in e[1:]))


def _show(e: tuple) -> str:
    """SMV text of a comparison, the name of its atom in the specs' formulas."""
    if e[0] == "ref":
        return ".".join(e[1])
    if e[0] == "const":
        return "TRUE" if e[1] else "FALSE"
    if e[0] == "set":
        return "{" + ", ".join(sorted(e[1])) + "}"
    if e[0] in ("=", "in"):
        return f"{_show(e[1])} {e[0]} {_show(e[2])}"
    raise SmvError(f"{e[0]} inside a state comparison")


@dataclass(frozen=True)
class _Variable:
    name: str  # flattened, e.g. "plant.state"
    domain: tuple[str, ...]
    scope: _Scope
    init: tuple | None
    next: tuple | None


class SmvModel:
    """The transition system and the CTLSPECs of one emitted document.

    A state is a tuple of ``(variable, value)`` pairs in declaration order,
    with variables named by their instance path (``pending``,
    ``plant.state``, ``ctl.state``).
    """

    def __init__(self, text: str) -> None:
        modules, specs = _Parser(text).document()
        if "main" not in modules:
            raise SmvError("no main module")
        self.main = _instantiate(modules, modules["main"], "", {})
        self.variables: list[_Variable] = []
        self._collect(self.main)
        reads = {v.name: _next_reads(v.next, v.scope) if v.next else set()
                 for v in self.variables}
        self._order: list[_Variable] = []
        while len(self._order) < len(self.variables):
            placed = {v.name for v in self._order}
            ready = [v for v in self.variables
                     if v.name not in placed and reads[v.name] <= placed]
            if not ready:
                raise SmvError("next() references form a cycle")
            self._order += ready
        self.atoms: dict[str, tuple] = {}
        self.specs = tuple(self._formula(spec) for spec in specs)

    def _collect(self, scope: _Scope) -> None:
        module = scope.module
        for var, domain in module.enums.items():
            self.variables.append(_Variable(scope.prefix + var, domain, scope,
                                            module.init.get(var), module.next.get(var)))
        for var in module.instances:
            self._collect(scope.children[var])
        for var in list(module.init) + list(module.next):
            if var not in module.enums:
                raise SmvError(f"{scope.prefix}{var} assigned but not an enumerated variable")

    def _choices(self, variable: _Variable, e: tuple | None, current: dict,
                 following: dict) -> tuple[str, ...]:
        if e is None:
            return variable.domain
        value = _evaluate(variable.scope, e, current, following)
        choices = tuple(sorted(value)) if isinstance(value, frozenset) else (value,)
        for choice in choices:
            if choice not in variable.domain:
                raise SmvError(f"{variable.name} := {choice!r} outside its type")
        return choices

    def initial_states(self) -> tuple[tuple, ...]:
        choices = [self._choices(v, v.init, {}, {}) for v in self.variables]
        return tuple(tuple((v.name, value) for v, value in zip(self.variables, values))
                     for values in product(*choices))

    def successors(self, state: tuple) -> tuple[tuple, ...]:
        current = dict(state)
        found: list[dict] = []

        def assign(index: int, following: dict) -> None:
            if index == len(self._order):
                found.append(following)
                return
            variable = self._order[index]
            for value in self._choices(variable, variable.next, current, following):
                assign(index + 1, {**following, variable.name: value})

        assign(0, {})
        return tuple(sorted({tuple((v.name, f[v.name]) for v in self.variables)
                             for f in found}))

    def _formula(self, e: tuple) -> Formula:
        """A CTLSPEC as a formula whose atoms name the spec's state comparisons."""
        op = e[0]
        if op == "const":
            return Const(e[1])
        if op == "!":
            return Not(self._formula(e[1]))
        if op in _TEMPORAL:
            return _TEMPORAL[op](self._formula(e[1]))
        if op in _BOOLEAN:
            return _BOOLEAN[op](self._formula(e[1]), self._formula(e[2]))
        if op in ("EU", "AU"):
            return (EU if op == "EU" else AU)(self._formula(e[1]), self._formula(e[2]))
        key = _show(e)
        self.atoms[key] = e
        return Atom(key)

    def kripke(self) -> KripkeStructure:
        """The reachable structure, labeled with the specs' comparisons that hold."""
        initials = self.initial_states()
        if len(initials) != 1:
            raise SmvError(f"{len(initials)} initial states")
        states = [initials[0]]
        seen = set(states)
        successors = {}
        queue = deque(states)
        while queue:
            state = queue.popleft()
            successors[state] = tuple(("", target) for target in self.successors(state))
            if not successors[state]:
                raise SmvError(f"deadlock in {state}")
            for _, target in successors[state]:
                if target not in seen:
                    seen.add(target)
                    states.append(target)
                    queue.append(target)
        labels = {s: frozenset(key for key, e in self.atoms.items()
                               if _truth(_evaluate(self.main, e, dict(s), {})))
                  for s in states}
        return KripkeStructure(states=tuple(states), initial=states[0],
                               successors=successors, labels=labels,
                               atoms=frozenset(self.atoms))
