"""Exception types shared across the pipeline."""


class PlantMineError(Exception):
    """Base class for every error raised by this package."""


class MissingHeader(PlantMineError):
    def __init__(self) -> None:
        super().__init__("missing or invalid CSV header "
                         "(expected 'processId,timestamp,component,action')")


class MalformedRow(PlantMineError):
    def __init__(self, line_no: int, reason: str = "wrong column count") -> None:
        self.line_no = line_no
        super().__init__(f"malformed row at line {line_no}: {reason}")


class BadTimestamp(PlantMineError):
    def __init__(self, line_no: int, value: str) -> None:
        self.line_no = line_no
        self.value = value
        super().__init__(f"bad timestamp at line {line_no}: {value!r}")


class EmptyLog(PlantMineError):
    def __init__(self) -> None:
        super().__init__("event log contains no events")


class EmptyTrace(PlantMineError):
    def __init__(self, process_id: str) -> None:
        self.process_id = process_id
        super().__init__(f"trace {process_id!r} contains no actions")


class UnknownAction(PlantMineError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"no transition for action {name!r}")


class NotEnabled(PlantMineError):
    def __init__(self, transition: str) -> None:
        self.transition = transition
        super().__init__(f"transition {transition!r} is not enabled")


class NoBoundary(PlantMineError):
    def __init__(self) -> None:
        super().__init__("net has no designated source/sink places")


class MarkingRequired(PlantMineError):
    def __init__(self) -> None:
        super().__init__("no place with an empty preset; "
                         "an explicit initial marking is required")


class BoundExceeded(PlantMineError):
    def __init__(self, bound: int) -> None:
        self.bound = bound
        super().__init__(f"explored state space exceeds {bound} states")


class UnmappedAction(PlantMineError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"action {name!r} has no control/sensor classification")


class InconsistentLabeling(PlantMineError):
    def __init__(self, state: str) -> None:
        self.state = state
        super().__init__(f"sensor valuation conflict at state {state!r}")


class ParseError(PlantMineError):
    def __init__(self, position: int, reason: str) -> None:
        self.position = position
        super().__init__(f"parse error at {position}: {reason}")


class UndeclaredEvent(PlantMineError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"event {name!r} is not declared")


class NondeterministicController(PlantMineError):
    def __init__(self, state: str, event: str) -> None:
        self.state = state
        self.event = event
        super().__init__(f"controller has two transitions from {state!r} on {event!r}")


class AlphabetMismatch(PlantMineError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"controller alphabet does not fit the plant interface: {detail}")


class UnknownAtom(PlantMineError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"atomic proposition {name!r} is not declared in the structure")


class SmvUnsupported(PlantMineError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"cannot emit SMV: {detail}")
