"""Event-log handling: CSV parsing, component filtering, trace grouping, XES export.

The input schema is a four-column CSV (``processId,timestamp,component,action``)
with one recorded plant observation per row.  Logs are grouped into one trace
per process scenario before mining.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from typing import NamedTuple
from xml.sax.saxutils import quoteattr

from .errors import BadTimestamp, EmptyLog, MalformedRow, MissingHeader

CSV_HEADER = ("processId", "timestamp", "component", "action")

# Component and action names double as model identifiers downstream (DOT, SMV),
# so they are restricted to a safe charset at parse time.
NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 instant and normalize it to UTC.

    A trailing ``Z`` is accepted as the UTC designator; naive timestamps are
    rejected because they do not denote an unambiguous instant, and so are
    instants whose UTC form falls outside years 1 to 9999.  Every rejection
    raises :class:`ValueError`.
    """
    raw = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    stamp = datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_timestamp(stamp: datetime) -> str:
    """Render an instant in the log's canonical UTC form.

    ``YYYY-MM-DDTHH:MM:SSZ``, with ``.mmm`` milliseconds before the ``Z``
    only when the microseconds are non-zero (they are truncated, not
    rounded).  The year is always four digits.
    """
    stamp = stamp.astimezone(timezone.utc)
    text = stamp.isoformat()
    return text[:23] + "Z" if stamp.microsecond else text[:19] + "Z"


def _is_canonical(text: str) -> bool:
    """Whether ``text`` has the exact shape :func:`format_timestamp` prints.

    Only the separators are checked: a text of that shape that parses at all
    denotes a UTC instant whose canonical form is the text itself.
    """
    if len(text) == 20:
        return text[4::3] == "--T::Z"
    return (len(text) == 24 and text[4:20:3] == "--T::." and text[23] == "Z"
            and text[20:23] != "000")


class Event(NamedTuple):
    """One recorded observation: which component did what, when, in which scenario.

    ``timestamp`` is the UTC instant events are ordered by;
    ``timestamp_text`` is its canonical form (:func:`format_timestamp`),
    worked out once when the event is made.  The exporters write the text
    and never format the instant.
    """

    process_id: str
    timestamp: datetime
    component: str
    action: str
    timestamp_text: str


@dataclass(frozen=True)
class Trace:
    """The action sequence of one process scenario, ordered by timestamp.

    :func:`group_traces` fills ``timestamps`` and their canonical texts
    ``timestamp_texts`` (:func:`format_timestamp`) together; a trace
    without ``timestamp_texts`` is exported without dates.
    """

    process_id: str
    actions: tuple[str, ...]
    timestamps: tuple[datetime, ...] | None = None
    timestamp_texts: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TraceSet:
    """A grouped log: one trace per process id."""

    traces: tuple[Trace, ...] = ()
    # each distinct action sequence and its traces, in order of first occurrence
    variants: dict[tuple[str, ...], list[Trace]] = field(init=False, repr=False, compare=False)
    alphabet: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", {})
        for trace in self.traces:
            self.variants.setdefault(trace.actions, []).append(trace)
        object.__setattr__(self, "alphabet", frozenset(a for seq in self.variants for a in seq))

    def __len__(self) -> int:
        return len(self.traces)


def parse_csv(text: str) -> tuple[Event, ...]:
    """Parse CSV text into its events, in file order.

    The header row is mandatory and validated by name.  Fields may not contain
    commas (there is no quoting layer); a row with the wrong column count
    raises :class:`MalformedRow` with its 1-based line number.  Each distinct
    component or action name is checked against :data:`NAME_RE` once, on the
    first row that carries it.  A timestamp already in canonical form is kept
    as its own text and read as written; any other is formatted once.
    """
    lines = text.splitlines()
    if not lines:
        raise MissingHeader()
    header = tuple(name.strip() for name in lines[0].split(","))
    if header != CSV_HEADER:
        raise MissingHeader()

    # Every name that passed NAME_RE, mapped to itself: events share one
    # string per distinct name, and consecutive rows of one process share
    # their process id.
    valid_names: dict[str, str] = {}
    previous_id = ""
    events = []
    for line_no, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != 4:
            raise MalformedRow(line_no)
        process_id, stamp_text, component, action = fields
        if not process_id:
            raise MalformedRow(line_no, "empty processId")
        if process_id == previous_id:
            process_id = previous_id
        previous_id = process_id
        if component in valid_names:
            component = valid_names[component]
        elif NAME_RE.match(component):
            valid_names[component] = component
        else:
            raise MalformedRow(line_no, f"invalid component {component!r}")
        if action in valid_names:
            action = valid_names[action]
        elif NAME_RE.match(action):
            valid_names[action] = action
        else:
            raise MalformedRow(line_no, f"invalid action {action!r}")
        try:
            if _is_canonical(stamp_text):
                stamp = datetime.fromisoformat(stamp_text)
                canonical = stamp_text
            else:
                stamp = parse_timestamp(stamp_text)
                canonical = format_timestamp(stamp)
        except ValueError:
            raise BadTimestamp(line_no, stamp_text) from None
        events.append(Event(process_id, stamp, component, action, canonical))
    return tuple(events)


def export_csv(log: tuple[Event, ...]) -> str:
    """Render events back to the CSV schema (LF endings, trailing newline)."""
    lines = [",".join(CSV_HEADER)]
    lines += [f"{e.process_id},{e.timestamp_text},{e.component},{e.action}" for e in log]
    return "\n".join(lines) + "\n"


def filter_component(log: tuple[Event, ...], component: str) -> tuple[Event, ...]:
    """The events of one component, in their order in ``log``."""
    return tuple(e for e in log if e.component == component)


_BY_TIME = itemgetter(1)  # Event.timestamp


def group_traces(log: tuple[Event, ...]) -> TraceSet:
    """Group a tuple of events into one trace per process id.

    Within a trace, actions are ordered by timestamp; events with equal
    timestamps keep their original file order (stable sort).  Traces appear in
    order of first occurrence of their process id.  An empty log raises
    :class:`EmptyLog`.
    """
    if not log:
        raise EmptyLog()
    grouped: dict[str, list[Event]] = {}
    for event in log:
        grouped.setdefault(event.process_id, []).append(event)
    traces = []
    for process_id, events in grouped.items():
        events.sort(key=_BY_TIME)
        _, stamps, _, actions, texts = zip(*events)
        traces.append(Trace(process_id, actions, stamps, texts))
    return TraceSet(tuple(traces))


def export_xes(traces: TraceSet) -> str:
    """Render a trace set as a minimal XES document.

    Only the attributes the mining step needs are emitted: ``concept:name``
    on traces and events, and ``time:timestamp`` on events when the trace
    carries timestamps.  Each distinct action is quoted once, and each trace
    becomes one string.
    """
    event_head = {action: ('    <event>\n'
                           f'      <string key="concept:name" value={quoteattr(action)}/>\n')
                  for action in traces.alphabet}
    # canonical stamp texts hold only digits, '-', ':', '.', 'T' and 'Z',
    # so they need no quoting
    date_head = '      <date key="time:timestamp" value="'
    date_tail = '"/>\n    </event>\n'
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n']
    for trace in traces.traces:
        head = f'  <trace>\n    <string key="concept:name" value={quoteattr(trace.process_id)}/>\n'
        if trace.timestamp_texts is None:
            body = "".join(f"{event_head[a]}    </event>\n" for a in trace.actions)
        else:
            body = "".join(f"{event_head[a]}{date_head}{t}{date_tail}"
                           for a, t in zip(trace.actions, trace.timestamp_texts))
        parts.append(f"{head}{body}  </trace>\n")
    parts.append("</log>\n")
    return "".join(parts)
