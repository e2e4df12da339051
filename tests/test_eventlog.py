import random
from collections import Counter
from datetime import datetime, timezone

import pytest
from xml.etree import ElementTree

from helpers import (export_csv_reference, export_xes_reference,
                     format_timestamp_reference, parse_timestamp_reference,
                     random_stamp)
from plantmine import eventlog
from plantmine.errors import BadTimestamp, EmptyLog, MalformedRow, MissingHeader
from plantmine.eventlog import (Event, TraceSet, export_csv, export_xes,
                                filter_component, format_timestamp, group_traces,
                                parse_csv, parse_timestamp)

HEADER = "processId,timestamp,component,action"


def make_csv(*rows):
    return "\n".join((HEADER,) + rows) + "\n"


class TestParseCsv:
    def test_single_row_echoes_fields(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT"))
        assert len(log) == 1
        event = log[0]
        assert event.process_id == "1"
        assert event.component == "HC"
        assert event.action == "EXT"
        assert event.timestamp.tzinfo == timezone.utc

    def test_header_only_is_empty_log(self):
        assert len(parse_csv(HEADER + "\n")) == 0

    def test_returns_a_tuple_of_events(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT", "1,2021-05-10T10:00:02Z,VC,GO"))
        assert type(log) is tuple and all(type(e) is Event for e in log)
        assert type(filter_component(log, "HC")) is tuple
        assert parse_csv(HEADER + "\n") == ()

    def test_three_columns_is_malformed_row(self):
        with pytest.raises(MalformedRow) as exc:
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC"))
        assert exc.value.line_no == 2

    def test_comma_in_field_is_malformed(self):
        with pytest.raises(MalformedRow):
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT,extra"))

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            parse_csv("1,2021-05-10T10:00:01Z,HC,EXT\n")
        with pytest.raises(MissingHeader):
            parse_csv("")

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(BadTimestamp) as exc:
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                               "1,not-a-time,HC,RET"))
        assert exc.value.line_no == 3

    def test_naive_timestamp_rejected(self):
        with pytest.raises(BadTimestamp):
            parse_csv(make_csv("1,2021-05-10T10:00:01,HC,EXT"))

    def test_crlf_input_accepted(self):
        log = parse_csv(HEADER + "\r\n" + "1,2021-05-10T10:00:01Z,HC,EXT\r\n")
        assert len(log) == 1

    def test_invalid_action_charset_rejected(self):
        with pytest.raises(MalformedRow):
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT RET"))

    @pytest.mark.parametrize("row, reason", [
        ("1,2021-05-10T10:01:00Z,H-C,EXT", "invalid component 'H-C'"),
        ("1,2021-05-10T10:01:00Z,HC,RE T", "invalid action 'RE T'"),
    ])
    def test_invalid_name_first_seen_late_reports_its_line(self, row, reason):
        # names are checked once, on the first row that carries them
        rows = [f"{i % 3},2021-05-10T10:00:{i:02d}Z,HC,{('EXT', 'RET')[i % 2]}"
                for i in range(40)]
        with pytest.raises(MalformedRow) as exc:
            parse_csv(make_csv(*rows, row, "1,2021-05-10T10:01:01Z,HC,EXT"))
        assert exc.value.line_no == 42
        assert reason in str(exc.value)

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00",
                                       "9999-12-31T23:30:00-01:00"])
    def test_instant_outside_utc_range_is_bad_timestamp(self, stamp):
        with pytest.raises(BadTimestamp) as exc:
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT", f"1,{stamp},HC,RET"))
        assert exc.value.line_no == 3


class TestTimestamps:
    def test_offset_normalizes_to_utc(self):
        stamp = parse_timestamp("2021-05-10T12:00:01+02:00")
        assert stamp == parse_timestamp("2021-05-10T10:00:01Z")

    def test_naive_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("2021-05-10T10:00:01")

    def test_format_converts_to_utc(self):
        stamp = datetime.fromisoformat("2021-05-10T12:00:01.5+02:00")
        assert format_timestamp(stamp) == "2021-05-10T10:00:01.500Z"
        assert format_timestamp_reference(stamp) == "2021-05-10T10:00:01.500Z"


STAMP_CASES = [
    "2021-05-10T10:00:01Z", "2021-05-10T10:00:01.120Z", "2021-05-10T12:00:01+02:00",
    "2021-05-10T01:00:01+02:00", "2021-05-10T10:00:01-05:30", "2021-12-31T23:30:00-01:00",
    "2021-05-10T10:00:01+00:00", "2021-05-10T10:00:01z", "2021-05-10T10:00:01.000Z",
    "2021-05-10T10:00:01.0001Z", "2021-05-10T10:00:01.5Z", "2021-05-10T10:00:01.123456Z",
    "2021-05-10T10:00:01.999999Z", "2021-05-10 10:00:01Z",
    "2021-W19-1T10:00:00Z", "20210510T100000Z", "2021-05-10T10:00Z", "2021-05-10T10:00+01:00",
    "2021-05-10T24:00:00Z", "2021-05-10T10:00:6xZ", "2021-05-10T10:00:01.12xZ",
    "2021-13-10T10:00:00Z", "2021-05-10T10:00:01", "2021-05-10T10:00:01.000", "not-a-time", "",
    "0999-05-10T10:00:00Z", "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00",
]


def stored_stamp(text):
    """The stamp text and instant ``parse_csv`` keeps for a one-row log, or None if rejected."""
    try:
        event = parse_csv(make_csv(f"1,{text},HC,EXT"))[0]
    except BadTimestamp as exc:
        assert exc.line_no == 2
        return None
    return event.timestamp_text, event.timestamp


def compare_with_reference(text):
    """Check one stamp against the strftime reference; returns what was compared."""
    try:
        instant = parse_timestamp_reference(text)
        expected = format_timestamp_reference(instant)
    except (ValueError, OverflowError):
        assert stored_stamp(text) is None, text
        return "rejected"
    stored, stamp = stored_stamp(text)
    assert stamp == instant == parse_timestamp(text), text
    assert stamp.tzinfo is timezone.utc
    try:
        parse_timestamp_reference(expected)
    except ValueError:
        # the reference prints years before 1000 without zero padding
        assert stored == f"{instant.year:04d}{expected[len(str(instant.year)):]}", text
        return "padded"
    assert stored == expected == format_timestamp(instant), text
    return "compared"


class TestStampText:
    """The stamp text stored at parse equals the strftime reference's output."""

    @pytest.mark.parametrize("text", STAMP_CASES)
    def test_listed_shapes(self, text):
        compare_with_reference(text)

    def test_listed_shapes_cover_each_outcome(self):
        outcomes = Counter(compare_with_reference(text) for text in STAMP_CASES)
        assert outcomes == {"compared": 18, "rejected": 10, "padded": 1}

    def test_random_stamps(self):
        rng = random.Random(8)
        texts = [random_stamp(rng, min_year=1) for _ in range(3000)]
        outcomes = Counter(compare_with_reference(text) for text in texts)
        assert outcomes["compared"] > 2500 and outcomes["padded"] > 0
        # both canonical shapes occur among the inputs
        kept = Counter(len(text) for text in texts
                       if (stored := stored_stamp(text)) and stored[0] == text)
        assert kept[20] > 50 and kept[24] > 5

    def test_canonical_logs_export_unchanged(self):
        for text in ("2021-05-10T10:00:01Z", "2021-05-10T10:00:01.120Z", "0999-05-10T10:00:00Z"):
            log_text = make_csv(f"1,{text},HC,EXT")
            assert export_csv(parse_csv(log_text)) == log_text


class TestFilterComponent:
    def test_keeps_only_matching(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                 "1,2021-05-10T10:00:02Z,VC,DRILL",
                                 "1,2021-05-10T10:00:03Z,HC,RET"))
        filtered = filter_component(log, "HC")
        assert [e.action for e in filtered] == ["EXT", "RET"]

    def test_no_match_is_empty(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT"))
        assert len(filter_component(log, "XX")) == 0

    def test_identity_when_all_match(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT"))
        assert filter_component(log, "HC") == log

    def test_idempotent(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                 "2,2021-05-10T10:00:02Z,VC,DRILL"))
        once = filter_component(log, "HC")
        assert filter_component(once, "HC") == once


class TestGroupTraces:
    def test_groups_by_process_id(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                 "1,2021-05-10T10:00:02Z,HC,RET",
                                 "2,2021-05-10T10:00:03Z,HC,EXT"))
        traces = group_traces(log)
        assert [len(t.actions) for t in traces.traces] == [2, 1]
        assert traces.alphabet == {"EXT", "RET"}

    def test_sorts_by_timestamp_within_trace(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:05Z,HC,RET",
                                 "1,2021-05-10T10:00:01Z,HC,EXT"))
        traces = group_traces(log)
        assert traces.traces[0].actions == ("EXT", "RET")

    def test_equal_timestamps_keep_file_order(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                 "1,2021-05-10T10:00:01Z,HC,RET"))
        assert group_traces(log).traces[0].actions == ("EXT", "RET")

    def test_empty_log_raises(self):
        with pytest.raises(EmptyLog):
            group_traces(parse_csv(HEADER + "\n"))
        with pytest.raises(EmptyLog):
            group_traces(())

    def test_alphabet_is_computed_once(self):
        traces = group_traces(parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                                 "2,2021-05-10T10:00:02Z,HC,RET")))
        assert traces.alphabet is traces.alphabet
        assert traces.alphabet == {"EXT", "RET"}
        assert "alphabet" not in repr(traces)
        assert TraceSet(traces.traces) == traces

    def test_variants_keep_first_occurrence_order_and_traces(self):
        # first-occurrence order is not the sorted order here
        traces = group_traces(parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,RET",
                                                 "2,2021-05-10T10:00:02Z,HC,EXT",
                                                 "2,2021-05-10T10:00:03Z,HC,RET",
                                                 "3,2021-05-10T10:00:04Z,HC,EXT",
                                                 "3,2021-05-10T10:00:05Z,HC,RET",
                                                 "4,2021-05-10T10:00:06Z,HC,EXT",
                                                 "4,2021-05-10T10:00:07Z,HC,RET")))
        assert list(traces.variants) == [("RET",), ("EXT", "RET")]
        assert [[t.process_id for t in group] for group in traces.variants.values()] == [
            ["1"], ["2", "3", "4"]]
        assert [len(group) for group in traces.variants.values()] == [1, 3]
        assert all(t is traces.traces[int(t.process_id) - 1]
                   for group in traces.variants.values() for t in group)
        assert traces.variants is traces.variants
        assert "variants" not in repr(traces)
        assert TraceSet(traces.traces) == traces

    def test_partition_property_random_logs(self):
        rng = random.Random(7)
        for _ in range(30):
            rows = []
            for line in range(rng.randint(1, 30)):
                pid = str(rng.randint(1, 4))
                second = rng.randint(0, 59)
                action = rng.choice("abcd")
                rows.append(f"{pid},2021-05-10T10:00:{second:02d}Z,HC,{action}")
            log = parse_csv(make_csv(*rows))
            traces = group_traces(log)
            log_pairs = sorted((e.process_id, e.action) for e in log)
            trace_pairs = sorted((t.process_id, a)
                                 for t in traces.traces for a in t.actions)
            assert log_pairs == trace_pairs
            for trace in traces.traces:
                stamps = list(trace.timestamps)
                assert stamps == sorted(stamps)


class TestExportXes:
    def test_event_carries_concept_name(self, fixture_traces):
        document = export_xes(fixture_traces)
        root = ElementTree.fromstring(document)
        ns = "{http://www.xes-standard.org/}"
        events = root.findall(f".//{ns}event")
        total = sum(len(t.actions) for t in fixture_traces.traces)
        assert len(events) == total
        keys = {child.get("key") for event in events for child in event}
        assert "concept:name" in keys and "time:timestamp" in keys

    def test_trace_count_preserved(self, fixture_traces):
        root = ElementTree.fromstring(export_xes(fixture_traces))
        ns = "{http://www.xes-standard.org/}"
        assert len(root.findall(f"{ns}trace")) == len(fixture_traces.traces)

    def test_empty_traceset_valid_document(self):
        from plantmine.eventlog import TraceSet
        root = ElementTree.fromstring(export_xes(TraceSet()))
        assert root.tag.endswith("log")
        assert len(list(root)) == 0

    def test_single_action_value(self):
        from helpers import traceset
        document = export_xes(traceset(("EXT",)))
        assert 'value="EXT"' in document


class TestExportCsv:
    def test_round_trip(self, fixture_log):
        assert parse_csv(export_csv(fixture_log)) == fixture_log

    def test_round_trip_pads_years_before_1000(self):
        text = make_csv("1,0999-05-10T10:00:00Z,HC,EXT",
                        "1,0001-01-01T00:00:00.5z,HC,RET",
                        "2,1000-01-01T00:30:00.250+01:00,HC,EXT")
        first = parse_csv(text)
        exported = export_csv(first)
        assert exported == make_csv("1,0999-05-10T10:00:00Z,HC,EXT",
                                    "1,0001-01-01T00:00:00.500Z,HC,RET",
                                    "2,0999-12-31T23:30:00.250Z,HC,EXT")
        assert parse_csv(exported) == first


def random_log_text(rng, rows):
    """A log of mixed stamp shapes and names, with process ids that need XML quoting."""
    pids = ("1", "2", "17", "p<1>", "a&b", 'q"\'', "x y")
    actions = ("EXT", "RET", "HOME_ON", "END_OFF", "a_1")
    return make_csv(*(f"{rng.choice(pids)},{random_stamp(rng, min_year=1001)},"
                      f"{rng.choice(('HC', 'VC'))},{rng.choice(actions)}"
                      for _ in range(rows)))


class TestExportBytes:
    """The exporters write the same bytes as the strftime references."""

    def test_random_mixed_logs(self):
        rng = random.Random(9)
        for _ in range(60):
            log = parse_csv(random_log_text(rng, rng.randint(1, 60)))
            assert export_csv(log) == export_csv_reference(log)
            filtered = filter_component(log, "HC")
            assert export_csv(filtered) == export_csv_reference(filtered)
            if len(filtered):
                traces = group_traces(filtered)
                assert export_xes(traces) == export_xes_reference(traces)

    def test_fixture_log(self, fixture_log, fixture_traces):
        assert export_csv(fixture_log) == export_csv_reference(fixture_log)
        assert export_xes(fixture_traces) == export_xes_reference(fixture_traces)


class Unformattable(datetime):
    """A datetime that fails the test when anything formats or converts it."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a datetime was formatted")

    strftime = isoformat = astimezone = __format__ = __str__ = _refuse

    @classmethod
    def of(cls, stamp):
        return cls(stamp.year, stamp.month, stamp.day, stamp.hour, stamp.minute,
                   stamp.second, stamp.microsecond, tzinfo=stamp.tzinfo)


class TestWorkCounters:
    """Per-event work counted through the module globals on a canonical log."""

    def test_names_stamps_and_quoting(self, monkeypatch, fixture_log):
        text = export_csv(fixture_log)
        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        class CountingNameRe:
            match = staticmethod(counting("NAME_RE", eventlog.NAME_RE.match))

        monkeypatch.setattr(eventlog, "NAME_RE", CountingNameRe)
        monkeypatch.setattr(eventlog, "format_timestamp",
                            counting("format_timestamp", eventlog.format_timestamp))
        monkeypatch.setattr(eventlog, "quoteattr", counting("quoteattr", eventlog.quoteattr))

        log = parse_csv(text)
        names = {e.component for e in log} | {e.action for e in log}
        assert calls["NAME_RE"] == len(names) == 7
        assert calls["format_timestamp"] == 0  # canonical stamps are kept as read

        # every timestamp refuses to be formatted while exporting
        spied = tuple(e._replace(timestamp=Unformattable.of(e.timestamp)) for e in log)
        assert export_csv(spied) == text
        traces = group_traces(spied)
        assert export_xes(traces) == export_xes_reference(group_traces(log))
        assert calls["format_timestamp"] == 0
        assert calls["quoteattr"] <= len(traces.alphabet) + len(traces)
        assert calls["NAME_RE"] == 7
