"""Event-log handling: CSV parsing, component filtering, trace grouping, XES export.

The input schema is a four-column CSV (``processId,timestamp,component,action``)
with one recorded plant observation per row.  Logs are grouped into one trace
per process scenario before mining.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from operator import itemgetter
from typing import Iterator, NamedTuple, TypeAlias

from .errors import BadTimestamp, EmptyLog, MalformedRow, MissingHeader

CSV_HEADER = ("processId", "timestamp", "component", "action")

# Component and action names double as model identifiers downstream (DOT, SMV),
# so they are restricted to a safe charset at parse time.
NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# The characters outside XML 1.0's Char production, which no escape can
# carry: a processId holding one would make log.xes ill-formed.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

# The escapes of xml.sax.saxutils, whose import loads urllib, http, email and ssl.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def escape(data: str) -> str:
    """``data`` as XML character data: ``xml.sax.saxutils.escape``, byte for byte."""
    return data.translate(_TEXT_ESCAPES)


def quoteattr(data: str) -> str:
    """``data`` as a quoted XML attribute value: ``xml.sax.saxutils.quoteattr``, byte for byte.

    Line breaks and tabs become character references.  The value is quoted
    with ``"`` unless it holds one and no ``'``; holding both, its ``"`` become
    ``&quot;``.
    """
    data = data.translate(_ATTR_ESCAPES)
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"' + data.replace('"', "&quot;") + '"'


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
    only when the milliseconds are non-zero (microseconds are truncated, not
    rounded).  The year is always four digits.  So a canonical text names
    one millisecond instant, and it reads back as itself.
    """
    stamp = stamp.astimezone(timezone.utc)
    text = stamp.isoformat()
    return text[:23] + "Z" if stamp.microsecond >= 1000 else text[:19] + "Z"


#: One recorded observation: which component did what, when, in which
#: scenario.  An event is a plain tuple of the CSV's four columns, in this
#: order: ``(process_id, timestamp, component, action)``; read it by
#: unpacking.  ``timestamp`` is the instant's canonical UTC text
#: (:func:`format_timestamp`), its only stored form: the exporters write it
#: as is and :func:`group_traces` orders events by it.  A plain tuple of
#: strings costs one allocation, and the cyclic collector stops tracking it.
Event: TypeAlias = tuple[str, str, str, str]


class Trace(NamedTuple):
    """The action sequence of one process scenario, ordered by timestamp.

    :func:`group_traces` fills ``timestamps`` with the canonical stamp texts
    of the actions (:func:`format_timestamp`); a trace without them is
    exported without dates.
    """

    process_id: str
    actions: tuple[str, ...]
    timestamps: tuple[str, ...] | None = None


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


# Rows are split a piece of about this many characters at a time, so no list
# of every line is held at once.
_PIECE_SIZE = 1 << 16


def _pieces(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of at least :data:`_PIECE_SIZE` characters.

    Each piece but the last ends just after a ``'\n'``.  A line break ends
    every row, and ``'\r\n'`` is never cut, so the rows of the pieces, in
    order, are the rows of ``text``.  Text without ``'\n'`` is one piece.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _PIECE_SIZE) + 1 or size
        yield text[start:end]
        start = end


def _admit(names: dict[str, str], name: str, kind: str, line_no: int) -> str:
    """Record ``name``, first seen at ``line_no``, once it matches :data:`NAME_RE`."""
    if not NAME_RE.match(name):
        raise MalformedRow(line_no, f"invalid {kind} {name!r}")
    names[name] = name
    return name


def parse_csv(text: str) -> tuple[Event, ...]:
    """Parse CSV text into its events, in file order.

    The header row is mandatory and validated by name.  Fields may not contain
    commas (there is no quoting layer); a row with the wrong column count
    raises :class:`MalformedRow` with its 1-based line number, and so does a
    processId holding a character XML 1.0 cannot carry (a C0 control other
    than tab, U+FFFE, U+FFFF or a lone surrogate), checked once per run of
    rows with that id.  Each distinct component or action name is checked
    against :data:`NAME_RE` once, on the first row that carries it.  A
    timestamp already in canonical form (:func:`format_timestamp`) is checked
    and kept as written; any other is parsed and formatted once.  Rows are
    split a piece of the text at a time (:func:`_pieces`), so no list of
    every line is held.
    """
    rows = chain.from_iterable(map(str.splitlines, _pieces(text)))
    header = next(rows, "")
    if tuple(name.strip() for name in header.split(",")) != CSV_HEADER:
        raise MissingHeader()

    # Every name that passed NAME_RE, mapped to itself: events share one
    # string per distinct name, and consecutive rows of one process share
    # their process id.
    valid_names: dict[str, str] = {}
    known = valid_names.get
    not_xml = _NOT_XML.search
    check_canonical = datetime.fromisoformat
    previous_id = None
    events: list[Event] = []
    append = events.append
    for line_no, raw in enumerate(rows, 2):
        try:
            process_id, stamp_text, component, action = raw.split(",")
        except ValueError:
            raise MalformedRow(line_no) from None
        if process_id == previous_id:
            process_id = previous_id
        elif not process_id:
            raise MalformedRow(line_no, "empty processId")
        elif not_xml(process_id):
            raise MalformedRow(line_no, f"processId {process_id!r} holds a character "
                               "XML cannot carry")
        else:
            previous_id = process_id
        component = known(component) or _admit(valid_names, component, "component", line_no)
        action = known(action) or _admit(valid_names, action, "action", line_no)
        # The shapes format_timestamp prints: YYYY-MM-DDTHH:MM:SSZ, with
        # .mmm before the Z when the milliseconds are not 000.  Only the
        # separators are checked: a text of that shape that parses at all
        # denotes a UTC instant whose canonical form is the text itself.
        length = len(stamp_text)
        try:
            if (length == 20 and stamp_text[4::3] == "--T::Z"
                    or length == 24 and stamp_text[4:20:3] == "--T::."
                    and stamp_text[23] == "Z" and stamp_text[20:23] != "000"):
                check_canonical(stamp_text)
            else:
                stamp_text = format_timestamp(parse_timestamp(stamp_text))
        except ValueError:
            raise BadTimestamp(line_no, stamp_text) from None
        append((process_id, stamp_text, component, action))
    return tuple(events)


def iter_csv(log: tuple[Event, ...]) -> Iterator[str]:
    """The CSV schema of ``log``, one line per piece (LF endings)."""
    yield ",".join(CSV_HEADER) + "\n"
    for process_id, stamp, component, action in log:
        yield f"{process_id},{stamp},{component},{action}\n"


def export_csv(log: tuple[Event, ...]) -> str:
    """Render events back to the CSV schema (LF endings, trailing newline)."""
    return "".join(iter_csv(log))


def filter_component(log: tuple[Event, ...], component: str) -> tuple[Event, ...]:
    """The events of one component, in their order in ``log``."""
    return tuple(e for e in log if e[2] == component)  # an event's component


_STAMP, _ACTION = itemgetter(1), itemgetter(3)  # an event's timestamp and action


def _stamp_time(event: Event) -> str:
    # Without its Z, "...:01" is a prefix of "...:01.250" and sorts before
    # it, so the two canonical widths sort in time order.
    return event[1].rstrip("Z")


def group_traces(log: tuple[Event, ...]) -> TraceSet:
    """Group a tuple of events into one trace per process id.

    Within a trace, actions are ordered by canonical stamp text, which is
    time order; events with equal stamps keep their original file order
    (stable sort).  When every stamp in the log has one width, the texts
    are compared as they are; otherwise each is compared without its ``Z``,
    so a whole second sorts before its own milliseconds.  Traces appear in
    order of first occurrence of their process id.  An empty log raises
    :class:`EmptyLog`.
    """
    if not log:
        raise EmptyLog()
    grouped: dict[str, list[Event]] = {}
    known = grouped.get
    for event in log:
        events = known(event[0])
        if events is None:
            grouped[event[0]] = [event]
        else:
            events.append(event)
    # Canonical texts of one width sort in time order as they are.
    by_time = _STAMP if len(set(map(len, map(_STAMP, log)))) == 1 else _stamp_time
    traces = []
    # Each process's events are released once its trace is built.
    for process_id in list(grouped):
        events = grouped.pop(process_id)
        events.sort(key=by_time)
        traces.append(Trace(process_id, tuple(map(_ACTION, events)), tuple(map(_STAMP, events))))
    return TraceSet(tuple(traces))


def iter_xes(traces: TraceSet) -> Iterator[str]:
    """A trace set as a minimal XES document, one trace per piece.

    Only the attributes the mining step needs are emitted: ``concept:name``
    on traces and events, and ``time:timestamp`` on events when the trace
    carries timestamps.  Each distinct action is quoted once.
    """
    event_head = {action: ('    <event>\n'
                           f'      <string key="concept:name" value={quoteattr(action)}/>\n')
                  for action in traces.alphabet}
    undated = {action: f"{head}    </event>\n" for action, head in event_head.items()}
    # canonical stamp texts hold only digits, '-', ':', '.', 'T' and 'Z',
    # so they need no quoting
    dated = {action: f'{head}      <date key="time:timestamp" value="'
             for action, head in event_head.items()}
    date_tail = '"/>\n    </event>\n'
    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n')
    for trace in traces.traces:
        head = f'  <trace>\n    <string key="concept:name" value={quoteattr(trace.process_id)}/>\n'
        if trace.timestamps is None:
            body = "".join(map(undated.__getitem__, trace.actions))
        else:
            # each event is its action's dated head, its stamp text and date_tail
            parts = [date_tail] * (3 * len(trace.actions))
            parts[::3] = map(dated.__getitem__, trace.actions)
            parts[1::3] = trace.timestamps
            body = "".join(parts)
        yield f"{head}{body}  </trace>\n"
    yield "</log>\n"


def export_xes(traces: TraceSet) -> str:
    """Render a trace set as a minimal XES document (:func:`iter_xes`, joined)."""
    return "".join(iter_xes(traces))
