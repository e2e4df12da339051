import gc
import random
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from xml.etree import ElementTree
from xml.sax import saxutils

from helpers import (export_csv_reference, export_xes_reference,
                     format_timestamp_reference, parse_timestamp_reference,
                     random_stamp)
from plantmine import cli, eventlog
from plantmine.errors import BadTimestamp, EmptyLog, MalformedRow, MissingHeader
from plantmine.eventlog import (Trace, TraceSet, export_csv, export_xes,
                                filter_component, format_timestamp, group_traces,
                                iter_csv, iter_xes, parse_csv, parse_timestamp)
from plantmine.fixture import SimConfig, simulate_two_cylinder

HEADER = "processId,timestamp,component,action"


def make_csv(*rows):
    return "\n".join((HEADER,) + rows) + "\n"


class TestParseCsv:
    def test_single_row_echoes_fields(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT"))
        assert log == (("1", "2021-05-10T10:00:01Z", "HC", "EXT"),)

    def test_an_event_holds_each_instant_once_as_text(self):
        log = parse_csv(make_csv("1,2021-05-10T12:00:01.5+02:00,HC,EXT",
                                 "1,2021-05-10T10:00:02Z,HC,RET"))
        traces = group_traces(log)
        fields = [*(f for e in log for f in e), *(f for t in traces.traces for f in t)]
        assert not any(isinstance(f, datetime) for f in fields)
        assert log == (("1", "2021-05-10T10:00:01.500Z", "HC", "EXT"),
                       ("1", "2021-05-10T10:00:02Z", "HC", "RET"))
        assert traces.traces[0].timestamps == tuple(stamp for _, stamp, _, _ in log)

    def test_header_only_is_empty_log(self):
        assert len(parse_csv(HEADER + "\n")) == 0

    def test_returns_a_tuple_of_events(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT", "1,2021-05-10T10:00:02Z,VC,GO"))
        assert type(log) is tuple and all(type(e) is tuple for e in log)
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

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0e", "\x1f",
                                      "\ud800", "\udfff", "\ufffe", "\uffff"])
    def test_process_id_xml_cannot_carry_is_malformed(self, char):
        rows = [f"{pid},2021-05-10T10:00:0{i}Z,HC,EXT"
                for i, pid in enumerate(["1", "1", f"2{char}", "3"])]
        with pytest.raises(MalformedRow) as exc:
            parse_csv(make_csv(*rows))
        assert exc.value.line_no == 4
        assert "processId" in str(exc.value)

    def test_process_id_with_tab_or_non_ascii_exports_well_formed_xes(self):
        log = parse_csv(make_csv("a\tb,2021-05-10T10:00:01Z,HC,EXT",
                                 "\u00e9\U0001f600,2021-05-10T10:00:02Z,HC,EXT"))
        root = ElementTree.fromstring(export_xes(group_traces(log)).encode())
        names = [t.find("{http://www.xes-standard.org/}string").get("value")
                 for t in root.iter("{http://www.xes-standard.org/}trace")]
        assert names == ["a\tb", "\u00e9\U0001f600"]

    def test_process_id_checked_once_per_run_of_rows(self, monkeypatch):
        checked = []

        class Recorder:
            def search(self, text):
                checked.append(text)

        monkeypatch.setattr(eventlog, "_NOT_XML", Recorder())
        rows = [f"{pid},2021-05-10T10:00:{i:02d}Z,HC,EXT"
                for i, pid in enumerate(["1"] * 5 + ["2"] * 5 + ["1"] * 5)]
        parse_csv(make_csv(*rows))
        assert checked == ["1", "2", "1"]

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00",
                                       "9999-12-31T23:30:00-01:00"])
    def test_instant_outside_utc_range_is_bad_timestamp(self, stamp):
        with pytest.raises(BadTimestamp) as exc:
            parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT", f"1,{stamp},HC,RET"))
        assert exc.value.line_no == 3


# Every row break str.splitlines knows, as README lists them.
ROW_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")


def random_breaks_text(rng, rows):
    """The header and ``rows``, each line ended by a random row break."""
    return "".join(f"{line}{rng.choice(ROW_BREAKS)}" for line in (HEADER, *rows))


def parse_error(text):
    with pytest.raises((MalformedRow, BadTimestamp)) as exc:
        parse_csv(text)
    return type(exc.value), exc.value.line_no, str(exc.value)


class TestPieces:
    """Rows split a piece at a time read as rows split from the whole text."""

    @pytest.mark.parametrize("piece_size", [0, 1, 5, 17])
    def test_small_pieces_give_the_same_events(self, monkeypatch, piece_size):
        rng = random.Random(31)
        texts = [random_breaks_text(rng, [f"{rng.choice('123')},{random_stamp(rng)},"
                                          f"{rng.choice(('HC', 'VC'))},EXT"
                                          for _ in range(rng.randint(0, 40))])
                 for _ in range(40)]
        expected = [parse_csv(text) for text in texts]
        monkeypatch.setattr(eventlog, "_PIECE_SIZE", piece_size)
        assert [parse_csv(text) for text in texts] == expected
        assert sum(len(list(eventlog._pieces(text))) for text in texts) > 3 * len(texts)

    @pytest.mark.parametrize("bad", ["1,2021-05-10T10:00:01Z,HC", "1,not-a-time,HC,EXT", ",,,"],
                             ids=["column-count", "bad-timestamp", "empty-process-id"])
    def test_bad_row_reports_its_line_at_every_position(self, monkeypatch, bad):
        # small pieces put a boundary just before, at the end of and just
        # after some bad row at each size
        rng = random.Random(32)
        rows = [f"1,2021-05-10T10:00:{i:02d}Z,HC,EXT" for i in range(24)]
        texts = [random_breaks_text(rng, rows[:at] + [bad] + rows[at:]) for at in range(25)]
        expected = [parse_error(text) for text in texts]
        assert [line_no for _, line_no, _ in expected] == list(range(2, 27))
        for piece_size in (1, 29, 40, 64):
            monkeypatch.setattr(eventlog, "_PIECE_SIZE", piece_size)
            assert [parse_error(text) for text in texts] == expected

    def test_cr_only_text_is_one_piece_and_crlf_is_never_cut(self, monkeypatch):
        monkeypatch.setattr(eventlog, "_PIECE_SIZE", 1)
        text = make_csv("1,2021-05-10T10:00:01Z,HC,EXT").replace("\n", "\r")
        assert list(eventlog._pieces(text)) == [text]
        assert len(parse_csv(text)) == 1
        crlf = text.replace("\r", "\r\n")
        assert "".join(pieces := list(eventlog._pieces(crlf))) == crlf
        assert all(piece.endswith("\r\n") for piece in pieces)


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
    """The stamp text ``parse_csv`` keeps for a one-row log, or None if rejected."""
    try:
        (_, stamp, _, _), = parse_csv(make_csv(f"1,{text},HC,EXT"))
    except BadTimestamp as exc:
        assert exc.line_no == 2
        return None
    return stamp


def compare_with_reference(text):
    """Check one stamp against the strftime reference; returns what was compared."""
    try:
        instant = parse_timestamp_reference(text)
        expected = format_timestamp_reference(instant)
    except (ValueError, OverflowError):
        assert stored_stamp(text) is None, text
        return "rejected"
    stored = stored_stamp(text)
    assert instant == parse_timestamp(text), text
    # the stored text names the instant truncated to the millisecond
    stamp = parse_timestamp(stored)
    assert stamp == instant.replace(microsecond=instant.microsecond // 1000 * 1000), text
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
        kept = Counter(len(text) for text in texts if stored_stamp(text) == text)
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
        assert [action for _, _, _, action in filtered] == ["EXT", "RET"]

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

    def test_both_stamp_widths_sort_in_time_order(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:02Z,HC,d",
                                 "1,2021-05-10T10:00:01.999Z,HC,c",
                                 "1,2021-05-10T10:00:01.250Z,HC,b",
                                 "1,2021-05-10T10:00:01Z,HC,a"))
        assert group_traces(log).traces[0].actions == ("a", "b", "c", "d")

    def test_equal_timestamps_keep_file_order(self):
        log = parse_csv(make_csv("1,2021-05-10T10:00:01Z,HC,EXT",
                                 "1,2021-05-10T10:00:01Z,HC,RET"))
        assert group_traces(log).traces[0].actions == ("EXT", "RET")
        # instants that agree to the millisecond are equal stamps
        log = parse_csv(make_csv("1,2021-05-10T10:00:01.0009Z,HC,EXT",
                                 "1,2021-05-10T10:00:01.0001Z,HC,RET"))
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
                second = rng.randint(0, 9)
                fraction = rng.choice(("", ".000", ".0004", ".250", ".999"))
                action = rng.choice("abcd")
                rows.append(f"{pid},2021-05-10T10:00:{second:02d}{fraction}Z,HC,{action}")
            log = parse_csv(make_csv(*rows))
            traces = group_traces(log)
            log_pairs = sorted((process_id, action) for process_id, _, _, action in log)
            trace_pairs = sorted((t.process_id, a)
                                 for t in traces.traces for a in t.actions)
            assert log_pairs == trace_pairs
            for trace in traces.traces:
                # a stable sort of the process's events by instant
                events = sorted((e for e in log if e[0] == trace.process_id),
                                key=lambda e: parse_timestamp(e[1]))
                assert trace.actions == tuple(action for _, _, _, action in events)
                assert trace.timestamps == tuple(stamp for _, stamp, _, _ in events)


def canonical_log(rng, widths, events):
    """Hand-built events with canonical stamps of the given widths, each action unique.

    The stamps are drawn from a small pool of instants, so equal stamps occur;
    the action names give each event's file position.
    """
    base = datetime(2021, 5, 10, 10, tzinfo=timezone.utc)
    pool = set()
    while len(pool) < 6:
        stamp = format_timestamp(base + timedelta(seconds=rng.randint(0, 9),
                                                  milliseconds=rng.choice((0, 1, 250, 999))))
        if len(stamp) in widths:
            pool.add(stamp)
    pool = sorted(pool)
    return tuple((rng.choice("123"), rng.choice(pool), "HC", f"a{i}") for i in range(events))


class TestGroupTracesOrder:
    """Traces equal a stable sort of each process's events by instant."""

    @pytest.mark.parametrize("widths", [{20}, {24}, {20, 24}], ids=["20", "24", "mixed"])
    def test_random_canonical_logs(self, widths):
        rng = random.Random(26)
        for _ in range(60):
            log = canonical_log(rng, widths, rng.randint(1, 40))
            traces = group_traces(log)
            assert [t.process_id for t in traces.traces] == list(dict.fromkeys(e[0] for e in log))
            for trace in traces.traces:
                events = sorted((e for e in log if e[0] == trace.process_id),
                                key=lambda e: parse_timestamp(e[1]))
                assert trace == (trace.process_id,
                                 tuple(action for _, _, _, action in events),
                                 tuple(stamp for _, stamp, _, _ in events))

    def test_one_width_compares_the_texts_as_they_are(self, monkeypatch):
        rng = random.Random(27)
        calls = []
        monkeypatch.setattr(eventlog, "_stamp_time", lambda event: calls.append(event) or event[1])
        for widths in ({20}, {24}):
            group_traces(canonical_log(rng, widths, 30))
        assert calls == []
        # mixed widths compare each text without its Z
        log = canonical_log(rng, {20, 24}, 30)
        group_traces(log)
        assert sorted(calls) == sorted(log)

    def test_ties_keep_file_order_across_processes(self):
        log = (("2", "2021-05-10T10:00:01.250Z", "HC", "c"),
               ("1", "2021-05-10T10:00:01Z", "HC", "a"),
               ("2", "2021-05-10T10:00:01.250Z", "HC", "b"),
               ("1", "2021-05-10T10:00:01Z", "HC", "d"),
               ("2", "2021-05-10T10:00:01Z", "HC", "e"))
        assert [t.actions for t in group_traces(log).traces] == [("e", "c", "b"), ("a", "d")]


class TestTraceTuple:
    """A trace is a named tuple: (process_id, actions, timestamps=None)."""

    def test_fields_and_default(self):
        trace = Trace("p", ("a", "b"))
        assert Trace._fields == ("process_id", "actions", "timestamps")
        assert trace.timestamps is None and Trace._field_defaults == {"timestamps": None}
        assert trace == ("p", ("a", "b"), None) and isinstance(trace, tuple)
        assert repr(trace) == "Trace(process_id='p', actions=('a', 'b'), timestamps=None)"

    def test_equality_and_hashing(self):
        stamps = ("2021-05-10T10:00:01Z", "2021-05-10T10:00:02Z")
        dated = Trace("p", ("a", "b"), stamps)
        assert dated == Trace("p", ("a", "b"), stamps) != Trace("p", ("a", "b"))
        assert dated != Trace("q", ("a", "b"), stamps)
        assert hash(dated) == hash(Trace("p", ("a", "b"), stamps))
        assert len({dated, Trace("p", ("a", "b"), stamps), Trace("p", ("a", "b"))}) == 2

    def test_variants_of_hand_built_traces(self):
        traces = TraceSet((Trace("1", ("a", "b")), Trace("2", ("b",)),
                           Trace("3", ("a", "b"), ("2021-05-10T10:00:01Z", "2021-05-10T10:00:02Z")),
                           Trace("4", ())))
        assert list(traces.variants) == [("a", "b"), ("b",), ()]
        assert [[t.process_id for t in group] for group in traces.variants.values()] == [
            ["1", "3"], ["2"], ["4"]]
        assert traces.alphabet == {"a", "b"}
        assert TraceSet(tuple(traces.traces)) == traces


class TestPlainEvents:
    """Events are exact tuples of strings, which the cyclic collector stops tracking."""

    def test_every_source_returns_plain_tuples(self):
        simulated = simulate_two_cylinder(SimConfig(n_traces=5), seed=26)
        parsed = parse_csv(export_csv(simulated) + "9,2021-05-10T12:00:01.5+02:00,VC,GO\n")
        for log in (simulated, parsed, filter_component(parsed, "HC"),
                    filter_component(parsed, "VC")):
            assert log and all(type(e) is tuple and len(e) == 4 for e in log)
            assert all(type(f) is str for e in log for f in e)

    def test_parsed_log_leaves_no_tracked_objects(self):
        text = export_csv(simulate_two_cylinder(SimConfig(n_traces=2000), seed=42))
        gc.collect()
        before = len(gc.get_objects())
        log = parse_csv(text)
        gc.collect()
        assert len(log) > 20_000
        assert len(gc.get_objects()) - before < 50


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


class TestXmlQuoting:
    def test_random_strings_match_saxutils(self):
        # the stdlib is the reference; the package avoids importing it
        rng = random.Random(12)
        for _ in range(3000):
            data = "".join(rng.choices("&<>\"'\n\r\tab", k=rng.randint(0, 12)))
            assert eventlog.escape(data) == saxutils.escape(data), repr(data)
            assert eventlog.quoteattr(data) == saxutils.quoteattr(data), repr(data)


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

    def test_written_stamps_read_back_as_themselves(self, monkeypatch):
        rng = random.Random(10)
        stamps = [random_stamp(rng, min_year=1) for _ in range(2000)]
        stamps += [f"2021-05-10T10:00:01.{fraction}Z" for fraction in (
            "000001", "0001", "0009", "000999", "0", "000", "000000", "001", "9999")]
        kept = [stamp for stamp in stamps if stored_stamp(stamp) is not None]
        assert len(kept) > 1500
        first = parse_csv(make_csv(*(f"{i % 7},{stamp},HC,EXT" for i, stamp in enumerate(kept))))
        calls = []
        monkeypatch.setattr(eventlog, "format_timestamp", calls.append)
        assert parse_csv(export_csv(first)) == first
        assert calls == []


def random_log_text(rng, rows):
    """A log of mixed stamp shapes and names, with process ids that need XML quoting."""
    pids = ("1", "2", "17", "p<1>", "a&b", 'q"\'', "x y")
    actions = ("EXT", "RET", "HOME_ON", "END_OFF", "a_1")
    return make_csv(*(f"{rng.choice(pids)},{random_stamp(rng, min_year=1001)},"
                      f"{rng.choice(('HC', 'VC'))},{rng.choice(actions)}"
                      for _ in range(rows)))


class TestExportBytes:
    """The exporters write the same bytes as the strftime references."""

    def test_random_mixed_logs(self, tmp_path):
        # and the CLI's streamed artifacts hold the same bytes
        rng = random.Random(9)
        streamed = tmp_path / "artifact"
        for _ in range(60):
            log = parse_csv(random_log_text(rng, rng.randint(1, 60)))
            assert export_csv(log) == export_csv_reference(log)
            filtered = filter_component(log, "HC")
            assert export_csv(filtered) == export_csv_reference(filtered)
            cli._atomic_write(streamed, iter_csv(filtered))
            assert streamed.read_bytes() == export_csv_reference(filtered).encode()
            if len(filtered):
                traces = group_traces(filtered)
                assert export_xes(traces) == export_xes_reference(traces)
                cli._atomic_write(streamed, iter_xes(traces))
                assert streamed.read_bytes() == export_xes_reference(traces).encode()

    def test_fixture_log(self, fixture_log, fixture_traces):
        assert export_csv(fixture_log) == export_csv_reference(fixture_log)
        assert export_xes(fixture_traces) == export_xes_reference(fixture_traces)


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
        names = {name for _, _, component, action in log for name in (component, action)}
        assert calls["NAME_RE"] == len(names) == 7
        assert calls["format_timestamp"] == 0  # canonical stamps are kept as read

        assert export_csv(log) == text
        traces = group_traces(log)
        assert export_xes(traces) == export_xes_reference(traces)
        assert calls["format_timestamp"] == 0
        assert calls["quoteattr"] <= len(traces.alphabet) + len(traces)
        assert calls["NAME_RE"] == 7


class TestParseMemory:
    """Memory, not time: tracemalloc counts are deterministic for a seeded log."""

    def test_parse_holds_no_copy_of_the_rows(self):
        text = export_csv(simulate_two_cylinder(SimConfig(n_traces=6000), seed=42))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = parse_csv(text)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) > 70_000
        # the rows are split a piece at a time: the peak rises above what
        # parsing leaves held by far less than the text's own size
        assert peak - current < len(text) / 2, (peak - current, len(text))
        # an Event and its stamp text, with names shared
        assert current - before <= 180 * len(log), (current - before) / len(log)

    def test_grouping_holds_one_event_list_at_a_time(self):
        text = export_csv(simulate_two_cylinder(SimConfig(n_traces=6000), seed=42))
        log = parse_csv(text)
        tracemalloc.start()
        try:
            traces = group_traces(log)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traces) == 6000
        # each process's event list is released once its trace is built, and
        # a trace keeps only its actions and stamp texts
        assert peak - current < len(text) / 4, (peak - current, len(text))
