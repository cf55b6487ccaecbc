"""Evidence store tests: round trips, torn lines, latest-wins, counting,
re-reads of a changed log against a fresh store, and the on-disk snapshot
of a validated prefix."""

import gc
import hashlib
import json
import math
import os
import random
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from certaintrust import (
    CANONICAL_VARIABLES,
    EvidenceCount,
    StorageFailure,
)
from certaintrust import store as store_module
from certaintrust.store import (
    NEGATIVE,
    POSITIVE,
    DirectAssessment,
    EvidenceRecord,
    EvidenceStore,
    record_from_dict,
    record_to_dict,
)


@pytest.fixture
def store(tmp_path):
    return EvidenceStore(tmp_path / "log.jsonl")


class Name(str):
    """A name that is a str, but not exactly one."""


def add_evidence(store, merchant, variable, positive=0, negative=0, ts=0):
    for _ in range(positive):
        store.append(EvidenceRecord(merchant, variable, "positive", ts))
    for _ in range(negative):
        store.append(EvidenceRecord(merchant, variable, "negative", ts))


class TestRecords:
    def test_evidence_round_trip(self):
        rec = EvidenceRecord("A", "Delivery", "positive", 123)
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_assessment_round_trip(self):
        rec = DirectAssessment("A", "Privacy", 0.65, 3.95, 456)
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_outcome_validated(self):
        with pytest.raises(ValueError):
            EvidenceRecord("A", "Delivery", "meh", 0)

    def test_assessment_ranges_validated(self):
        with pytest.raises(ValueError):
            DirectAssessment("A", "Delivery", 1.2, 3.0, 0)
        with pytest.raises(ValueError):
            DirectAssessment("A", "Delivery", 0.5, -1.0, 0)
        with pytest.raises(ValueError, match="not bool"):
            DirectAssessment("A", "Delivery", True, 3.0, 0)
        with pytest.raises(ValueError, match="not bool"):
            DirectAssessment("A", "Delivery", 0.5, False, 0)
        for c, t_scaled in ((np.float64(0.5), np.float32(3.0)), (1, 3), (0, 2**53 + 1),
                            (0.5, np.int64(3)), (1, 10**300)):
            record = DirectAssessment("A", "Delivery", c, t_scaled, 0)
            assert (record.c, record.t_scaled) == (float(c), float(t_scaled))
            assert type(record.c) is type(record.t_scaled) is float

    def test_timestamp_must_be_integer(self):
        for timestamp in (1.5, True, np.True_, np.float64(5.0), "5"):
            with pytest.raises(ValueError, match="^timestamp must be an integer, got "):
                EvidenceRecord("A", "Delivery", "positive", timestamp)

    def test_any_integral_timestamp_but_bool_is_held_as_an_int(self):
        for timestamp in (np.int64(5), np.uint8(7), np.int64(-(2**63))):
            for record in (EvidenceRecord("A", "Delivery", "positive", timestamp),
                           DirectAssessment("A", "Delivery", 0.5, 3.0, timestamp)):
                assert type(record.timestamp) is int and record.timestamp == timestamp
        with pytest.raises(ValueError, match=r"^timestamp must fit int64, \[-2\*\*63, "):
            EvidenceRecord("A", "Delivery", "positive", np.uint64(2**63))

    @pytest.mark.parametrize("timestamp", [2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
    def test_timestamp_must_fit_int64(self, timestamp):
        fits = timestamp in (2**63 - 1, -(2**63))
        for record in (EvidenceRecord("A", "Delivery", "positive", 0),
                       DirectAssessment("A", "Delivery", 0.5, 3.0, 0)):
            if fits:
                assert replace(record, timestamp=timestamp).timestamp == timestamp
            else:
                with pytest.raises(ValueError, match=r"^timestamp must fit int64, \[-2\*\*63, "):
                    replace(record, timestamp=timestamp)

    @pytest.mark.parametrize("bad", ["", " \u3000", None, b"A", 7])
    @pytest.mark.parametrize("field", ["merchant", "variable"])
    def test_names_must_be_non_blank_strings(self, field, bad):
        for record in (EvidenceRecord("A", "Delivery", "positive", 0),
                       DirectAssessment("A", "Delivery", 0.5, 3.0, 0)):
            with pytest.raises(ValueError, match=f"{field} must be a non-empty string"):
                replace(record, **{field: bad})
            assert getattr(replace(record, **{field: Name("B")}), field) == "B"

    @pytest.mark.parametrize("record, field, value", [
        (EvidenceRecord("A", "Delivery", "positive", 0), "outcome", "meh"),
        (EvidenceRecord("A", "Delivery", "positive", 0), "outcome", None),
        (EvidenceRecord("A", "Delivery", "positive", 0), "merchant", " "),
        (EvidenceRecord("A", "Delivery", "positive", 0), "variable", 7),
        (EvidenceRecord("A", "Delivery", "positive", 0), "timestamp", True),
        (EvidenceRecord("A", "Delivery", "positive", 0), "timestamp", 1.5),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", 1.5),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", float("nan")),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", "0.5"),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", -1),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", None),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "merchant", ""),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", None),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", [0.5]),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", True),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", "x"),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", [3.0]),
        (DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", math.inf),
        pytest.param(DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "t_scaled", 10**400,
                     id="t_scaled-10**400"),
        pytest.param(DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "c", 10**400, id="c-10**400"),
        pytest.param(EvidenceRecord("A", "Delivery", "positive", 0), "timestamp", 2**63,
                     id="timestamp-2**63"),
        pytest.param(DirectAssessment("A", "Privacy", 0.5, 3.0, 0), "timestamp", -(2**63) - 1,
                     id="timestamp--2**63-1"),
    ])
    def test_dict_with_a_bad_value_rejected(self, record, field, value):
        data = record_to_dict(record)
        data[field] = value
        with pytest.raises(ValueError, match="malformed record"):
            record_from_dict(data)
        with pytest.raises(ValueError, match=f"^{field} ") as info:
            replace(record, **{field: value})
        assert repr(value) in str(info.value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "note", "merchant": "A"})


class TestAppendAndCounts:
    def test_append_increments_counts(self, store):
        assert store.counts("A", "Delivery") == EvidenceCount(0, 0)
        add_evidence(store, "A", "Delivery", positive=1)
        assert store.counts("A", "Delivery") == EvidenceCount(1, 0)

    def test_benchmark_tally(self, store):
        add_evidence(store, "A", "Delivery", positive=5, negative=2)
        assert store.counts("A", "Delivery") == EvidenceCount(5, 2)

    def test_counts_insensitive_to_interleaving(self, store):
        for outcome in ("positive", "negative", "positive", "positive", "negative"):
            store.append(EvidenceRecord("A", "Portal", outcome, 0))
        assert store.counts("A", "Portal") == EvidenceCount(3, 2)

    def test_counts_scoped_by_merchant_and_variable(self, store):
        add_evidence(store, "A", "Delivery", positive=2)
        add_evidence(store, "B", "Delivery", negative=1)
        add_evidence(store, "A", "Portal", positive=1)
        assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
        assert store.counts("B", "Delivery") == EvidenceCount(0, 1)

    def test_empty_batch_creates_no_file(self, store):
        assert store.append() is None
        assert not store.path.exists()

    def test_an_infinite_assessment_is_refused_before_the_log(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        before = store.path.read_bytes()
        with pytest.raises(ValueError, match="^t_scaled must be non-negative and finite, got inf"):
            store.append(DirectAssessment("A", "Privacy", 0.5, math.inf, 1))
        assert store.path.read_bytes() == before

    def test_a_numpy_int_is_logged_and_read_as_a_float(self, store):
        store.append(DirectAssessment("A", "Delivery", 0.5, np.int64(3), 1))
        assert b'"t_scaled": 3.0' in store.path.read_bytes()
        (record,) = EvidenceStore(store.path).records()
        assert type(record.t_scaled) is float and record.t_scaled == 3.0

    def test_a_numpy_timestamp_is_logged_and_read_as_an_int(self, store):
        store.append(EvidenceRecord("A", "Delivery", "positive", np.int64(5)),
                     DirectAssessment("A", "Delivery", 0.5, 3.0, np.uint32(6)))
        assert store.path.read_bytes().count(b'"timestamp": ') == 2
        records = EvidenceStore(store.path).records()
        assert [(type(r.timestamp), r.timestamp) for r in records] == [(int, 5), (int, 6)]

    def test_names_logged_as_written(self, store):
        store.append(EvidenceRecord("A", "physical_existence", "positive", 0),
                     EvidenceRecord("A", "Bespoke Signal", "negative", 0))
        fresh = EvidenceStore(store.path)
        assert [r.variable for r in fresh.records()] == ["physical_existence", "Bespoke Signal"]
        assert fresh.counts("A", "physical_existence") == EvidenceCount(1, 0)
        assert fresh.counts("A", "Bespoke Signal") == EvidenceCount(0, 1)
        assert fresh.counts("A", "Physical Existence") == EvidenceCount(0, 0)
        assert fresh.counts("A", "bespoke signal") == EvidenceCount(0, 0)


class TestAppendOnly:
    def test_file_grows_and_prefix_is_stable(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        first = store.path.read_bytes()
        add_evidence(store, "A", "Delivery", negative=1)
        second = store.path.read_bytes()
        assert len(second) > len(first)
        assert second.startswith(first)

    @pytest.mark.parametrize("merchant", ["Z\u0085", "Z\u2028", "\u2029Z"])
    def test_unicode_line_separators_round_trip(self, store, merchant):
        records = [
            EvidenceRecord(merchant, "Delivery", "positive", 1),
            DirectAssessment(merchant, "Privacy", 0.5, 2.5, 2),
            EvidenceRecord("A", "Delivery", "negative", 3),
        ]
        for record in records:
            store.append(record)
        assert store.records() == records
        assert EvidenceStore(store.path).records() == records
        assert store.counts(merchant, "Delivery") == EvidenceCount(1, 0)

    def test_replay_determinism(self, store):
        add_evidence(store, "A", "Delivery", positive=3, negative=1)
        store.append(DirectAssessment("A", "Privacy", 0.7, 4.5, 10))
        assert store.load_profile("A") == store.load_profile("A")
        assert store.records() == store.records()


class TestTornAndCorruptLines:
    def test_torn_final_line_skipped_with_warning(self, store):
        add_evidence(store, "A", "Delivery", positive=2)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "evidence", "merchant": "A", "varia')
        with pytest.warns(RuntimeWarning, match="torn final line"):
            records = store.records()
        assert len(records) == 2
        with pytest.warns(RuntimeWarning):
            assert store.counts("A", "Delivery") == EvidenceCount(2, 0)

    def test_corrupt_middle_line_is_fatal(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 2"):
            store.records()

    def test_schema_invalid_line_is_fatal(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "evidence", "merchant": "A"}) + "\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 2"):
            store.records()

    @pytest.mark.parametrize("end", [b"\n", b""], ids=["terminated", "unterminated"])
    def test_a_final_line_of_json_that_is_no_record_is_fatal_not_torn(self, store, end):
        """A cut write never ends in complete JSON, so only a final line that
        fails to decode as UTF-8 or JSON is torn."""
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evidence", "merchant": "A"}' + end)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StorageFailure, match=r"invalid record on line 2: malformed record "
                                                     r"\{.*\}: 'variable'$"):
                store.records()

    @pytest.mark.parametrize("field", ["c", "t_scaled"])
    def test_bool_assessment_line_is_fatal(self, store, field):
        add_evidence(store, "A", "Delivery", positive=1)
        line = record_to_dict(DirectAssessment("A", "Delivery", 0.5, 3.0, 0))
        line[field] = True
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="invalid record on line 2: .*not bool"):
            store.records()

    def test_infinite_assessment_line_is_fatal(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "assessment", "merchant": "A", "variable": "Delivery", '
                     '"c": 0.5, "t_scaled": Infinity, "timestamp": 0}\n')
        with pytest.raises(StorageFailure, match="invalid record on line 2: .*finite, got inf"):
            store.records()

    def test_torn_line_warns_on_every_read(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evid')
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="torn final line"):
                assert len(store.records()) == 1

    def test_torn_line_that_becomes_a_middle_line_is_fatal(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evid')
        with pytest.warns(RuntimeWarning):
            store.records()
        write_lines(store.path, [EvidenceRecord("A", "Delivery", "positive", 0)] * 2)
        with pytest.raises(StorageFailure, match="line 2"):
            store.records()

    @pytest.mark.parametrize("last", [
        b'{"kind": "evid',
        b'{"kind": "evidence", "merchant": "A", "variable": "Delivery", "outcome": "positive",'
        b' "timestamp": 0}',
    ], ids=["torn", "whole"])
    def test_append_after_an_unterminated_last_line_is_refused(self, store, last):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(last)
        before = store.path.read_bytes()
        with pytest.raises(StorageFailure, match="last line is unterminated") as info:
            store.append(EvidenceRecord("A", "Delivery", "positive", 0))
        assert str(store.path) in str(info.value)
        assert store.path.read_bytes() == before

    def test_torn_multibyte_character_is_a_torn_line(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        line = json.dumps(record_to_dict(EvidenceRecord("Café", "Delivery", "positive", 0)),
                          ensure_ascii=False).encode("utf-8")
        cut = line.index("é".encode("utf-8")) + 1
        with store.path.open("ab") as fh:
            fh.write(line[:cut])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            assert len(store.records()) == 1

    def test_invalid_utf8_before_the_last_line_is_fatal(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evidence", "merchant": "Caf\xc3"}\n')
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 2") as info:
            store.records()
        assert str(store.path) in str(info.value)

    def test_error_line_numbers_count_blank_lines(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write("\n  \nnot json\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 4"):
            store.records()

    @pytest.mark.parametrize("line", [
        "[" * 100_000,
        '{"kind": "evidence", "merchant": ' + "[" * 995 + "]" * 995
        + ', "variable": "Delivery", "outcome": "positive", "timestamp": 1}',
    ], ids=["undecodable", "decodable"])
    def test_deeply_nested_middle_line_is_fatal(self, store, line):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 2") as info:
            store.records()
        assert isinstance(info.value.__cause__, (RecursionError, ValueError))
        with pytest.raises(StorageFailure, match="line 2"):
            store.load_profile("A")

    def test_deeply_nested_final_line_is_a_torn_line(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write("[" * 100_000)
        with pytest.warns(RuntimeWarning, match="torn final line .*recursion"):
            assert len(store.records()) == 1
        with pytest.warns(RuntimeWarning, match="torn final line"):
            assert store.counts("A", "Delivery") == EvidenceCount(1, 0)

    def test_missing_file_reads_empty(self, store):
        assert store.records() == []
        assert store.counts("A", "Delivery") == EvidenceCount(0, 0)

    def test_a_log_that_cannot_be_read_is_a_storage_failure(self, store):
        store.path.mkdir()
        with pytest.raises(StorageFailure, match=f"^cannot read {store.path}: "):
            store.records()

    def test_a_log_removed_as_it_is_read_reads_empty(self, store, monkeypatch):
        add_evidence(store, "A", "Delivery", positive=1)
        opened = Path.open

        def removing_open(path, mode="r", *args, **kwargs):
            if path == store.path and mode == "rb":
                path.unlink()
            return opened(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", removing_open)
        assert store.records() == []

    def test_a_removed_log_drops_the_kept_prefix(self, store, decoded):
        write_lines(store.path, SAMPLE)
        assert store.records() == SAMPLE
        store.path.unlink()
        snapshot_of(store.path).unlink()
        assert store.records() == []
        write_lines(store.path, SAMPLE)
        decoded.clear()
        assert store.records() == SAMPLE
        assert len(decoded) == 3


class TestLoadProfile:
    def test_empty_store_gives_empty_profile(self, store):
        profile = store.load_profile("A")
        assert profile.counts == {}
        assert profile.assessments == {}

    def test_latest_assessment_wins(self, store):
        store.append(DirectAssessment("A", "Privacy", 0.1, 1.0, 10))
        store.append(DirectAssessment("A", "Privacy", 0.7, 4.5, 20))
        profile = store.load_profile("A")
        assert profile.assessments["Privacy"].c == 0.7

    def test_timestamp_tie_broken_by_file_order(self, store):
        store.append(DirectAssessment("A", "Privacy", 0.1, 1.0, 10))
        store.append(DirectAssessment("A", "Privacy", 0.9, 2.0, 10))
        profile = store.load_profile("A")
        assert profile.assessments["Privacy"].c == 0.9

    def test_profile_counts_match_counts_queries(self, store):
        add_evidence(store, "A", "Delivery", positive=5, negative=2)
        add_evidence(store, "A", "Portal", positive=1)
        add_evidence(store, "B", "Portal", negative=4)
        profile = store.load_profile("A")
        for name in CANONICAL_VARIABLES:
            assert profile.counts.get(name, EvidenceCount(0, 0)) == store.counts("A", name)

    def test_profile_scoped_by_merchant(self, store):
        store.append(DirectAssessment("B", "Privacy", 0.7, 4.5, 10))
        assert store.load_profile("A").assessments == {}


class TestPrefixReuse:
    def test_only_appended_lines_are_parsed(self, store, monkeypatch):
        add_evidence(store, "A", "Delivery", positive=3)
        store.records()
        parsed = []

        def counting(data):
            parsed.append(data)
            return record_from_dict(data)

        monkeypatch.setattr(store_module, "record_from_dict", counting)
        add_evidence(store, "A", "Delivery", negative=1)
        assert store.counts("A", "Delivery") == EvidenceCount(3, 1)
        assert [d["outcome"] for d in parsed] == ["negative"]

    def test_rewrite_of_earlier_bytes_is_parsed_again(self, store):
        add_evidence(store, "A", "Delivery", positive=2)
        assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
        text = store.path.read_text(encoding="utf-8")
        store.path.write_text(text.replace('"positive"', '"negative"', 1), encoding="utf-8")
        add_evidence(store, "A", "Delivery", positive=1)
        assert store.counts("A", "Delivery") == EvidenceCount(2, 1)
        assert store.records() == EvidenceStore(store.path).records()

    def test_returned_list_is_not_the_kept_one(self, store):
        add_evidence(store, "A", "Delivery", positive=2)
        first = store.records()
        first.clear()
        first.append(EvidenceRecord("B", "Portal", "negative", 0))
        assert store.records() == EvidenceStore(store.path).records()
        assert len(store.records()) == 2


def count_log_opens(monkeypatch, path: Path) -> list:
    """A list that gets one entry each time ``path`` itself is opened."""
    opened = []
    real_open = Path.open

    def counting(self, *args, **kwargs):
        if self == path:
            opened.append(args)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    return opened


class TestPinned:
    def test_reads_inside_the_scope_do_not_open_the_log(self, store, monkeypatch):
        add_evidence(store, "A", "Delivery", positive=2)
        add_evidence(store, "B", "Privacy", negative=1)
        expected = EvidenceStore(store.path).records()
        opened = count_log_opens(monkeypatch, store.path)
        with store.pinned():
            assert len(opened) == 1
            assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
            assert store.counts("B", "Privacy") == EvidenceCount(0, 1)
            assert store.records() == expected
        assert len(opened) == 1

    def test_an_append_through_another_store_is_seen_after_the_scope(self, store):
        add_evidence(store, "A", "Delivery", positive=2)
        other = EvidenceStore(store.path)
        with store.pinned():
            add_evidence(other, "A", "Delivery", negative=1)
            add_evidence(store, "B", "Privacy", positive=1)
            assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
            assert store.records("B") == []
        assert store.counts("A", "Delivery") == EvidenceCount(2, 1)
        assert store.records() == EvidenceStore(store.path).records()

    def test_an_unterminated_valid_last_line_is_read_in_the_scope(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(json.dumps(record_to_dict(EvidenceRecord("A", "Delivery", "negative", 1)))
                     .encode("utf-8"))
        expected = EvidenceStore(store.path).records("A")
        assert len(expected) == 2
        with store.pinned():
            store.path.write_bytes(b"")
            assert store.records("A") == expected
            assert store.records() == expected
        assert store.records("A") == []

    def test_a_torn_line_warns_on_entry_only(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evid')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with store.pinned():
                for _ in range(3):
                    assert store.counts("A", "Delivery") == EvidenceCount(1, 0)
        assert ["torn final line" in str(w.message) for w in caught] == [True]

    def test_a_failed_entry_leaves_the_store_unpinned(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        with store.path.open("ab") as fh:
            fh.write(b"{oops\n")
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="corrupt record on line 2"):
            with store.pinned():
                pass
        store.path.write_bytes(b"")
        assert store.records() == []

    def test_a_nested_scope_shares_the_outer_read(self, store, monkeypatch):
        add_evidence(store, "A", "Delivery", positive=2)
        other = EvidenceStore(store.path)
        opened = count_log_opens(monkeypatch, store.path)
        with store.pinned():
            with store.pinned():
                assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
            assert len(opened) == 1
            add_evidence(other, "A", "Delivery", negative=1)
            assert store.counts("A", "Delivery") == EvidenceCount(2, 0)
        assert len(opened) == 2  # the entry read and the append
        assert store.counts("A", "Delivery") == EvidenceCount(2, 1)


class TestChunkedPrefixCheck:
    """A long-lived store that has read a log of a few 64 KiB blocks sees a
    change next to a block boundary on its next read."""

    @pytest.fixture
    def log(self, store):
        """A log of about 192 KiB that ``store`` has read."""
        records = [EvidenceRecord(f"m{i % 97:03d}", "Delivery", "positive", i)
                   for i in range(3 * 65_536 // 80)]
        write_lines(store.path, records)
        assert store.records() == records
        return records

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_a_changed_byte_is_seen(self, store, log, offset):
        data = store.path.read_bytes()
        at = len(data) - 1 if offset is None else 65_536 + offset
        store.path.write_bytes(data[:at] + b"#" + data[at + 1:])
        expected = observe(reference_records, store.path)
        assert expected != (log, [])
        assert observe(store.records) == expected

    def test_a_log_cut_inside_the_kept_prefix_is_read_again(self, store, log, decoded):
        data = store.path.read_bytes()
        store.path.write_bytes(data[:-1])
        decoded.clear()
        assert observe(store.records) == observe(reference_records, store.path) == (log, [])
        assert len(decoded) == len(log)


def allocated(read, *args) -> int:
    """The peak of the memory that ``read(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        read(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadAllocation:
    """Reading a log of about 1 MB whose snapshot covers all but its last
    line copies only what it parses, in a new store object and in one that
    has read the log before."""

    @pytest.fixture(scope="class")
    def log(self, tmp_path_factory):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            import gen
        finally:
            sys.path.pop(0)
        path = tmp_path_factory.mktemp("allocation") / "log.jsonl"
        gen.write_store(path, random.Random(7), 9_000, 500)
        store = EvidenceStore(path)
        store.records()
        store.append(EvidenceRecord("m00001", "Delivery", "positive", 0))
        return path

    @staticmethod
    def readers(log: Path) -> list:
        """A new store object, and one that has read ``log`` once already."""
        again = EvidenceStore(log)
        again.load_profile("m00001")
        return [EvidenceStore(log), again]

    def test_a_cold_snapshot_hit_copies_the_log_less_than_twice(self, log):
        for store in self.readers(log):
            assert allocated(store.load_profile, "m00001") < 2 * log.stat().st_size

    def test_a_cold_snapshot_hit_holds_one_copy_of_the_snapshot(self, log):
        # the log and the snapshot file once each, plus the table and the
        # column checks' temporaries, which take under one snapshot size
        # more (0.69 on this log); a second copy of the payload would pass
        # the bound
        snapshot = log.with_name(log.name + ".snapshot").stat().st_size
        for store in self.readers(log):
            over = allocated(store.load_profile, "m00001") - log.stat().st_size
            assert over < 2 * snapshot

    @pytest.mark.parametrize("read", [lambda s: s.load_profile("m00001"), EvidenceStore.records],
                             ids=["load_profile", "records"])
    def test_a_read_outside_a_scope_leaves_nothing_in_the_store(self, log, read):
        gc.collect()
        tracemalloc.start()
        try:
            store = EvidenceStore(log)
            read(store)
            gc.collect()
            with_store = tracemalloc.get_traced_memory()[0]
            del store
            gc.collect()
            held = with_store - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 16 * 1024


class TestLineDecoding:
    def test_written_lines_decode_without_json_loads(self, store, monkeypatch):
        records = [
            EvidenceRecord("A", "Delivery", "positive", 1),
            EvidenceRecord("Café \u2028", "Privacy", "negative", 2),
            DirectAssessment("B", "Portal", 0.25, 4.5, 3),
        ]
        store.append(*records)

        def fail(*args, **kwargs):
            raise AssertionError("a well-formed log line went through json.loads")

        monkeypatch.setattr(store_module.json, "loads", fail)
        assert EvidenceStore(store.path).records() == records


def write_lines(path: Path, records) -> None:
    with path.open("ab") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)).encode("ascii") + b"\n")


@pytest.fixture
def decoded(monkeypatch):
    """The lines the store decodes, in order."""
    lines = []

    def counting(line):
        lines.append(line)
        return decode(line)

    decode = store_module.decode_line
    monkeypatch.setattr(store_module, "decode_line", counting)
    return lines


@pytest.fixture
def built(monkeypatch):
    """The merchant of every record whose constructor runs, in order."""
    merchants = []

    def counting(init):
        def build(self, merchant, *rest, **keywords):
            merchants.append(merchant)
            init(self, merchant, *rest, **keywords)
        return build

    for cls in (EvidenceRecord, DirectAssessment):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    return merchants


@pytest.fixture
def replaced(monkeypatch):
    """The targets of every ``os.replace``: one per snapshot written."""
    targets = []

    def counting(src, dst):
        targets.append(Path(dst).name)
        return move(src, dst)

    move = os.replace
    monkeypatch.setattr(store_module.os, "replace", counting)
    return targets


def pack(columns: dict) -> bytes:
    """Snapshot columns as format 5 lays them out: the timestamps as
    ``<i8`` (none when null), merchant and variable ids as ``<u4``, the
    kind bytes, then ``c`` and ``t_scaled`` as ``<f8``."""
    stamps, mids, vids = columns["timestamp"], columns["merchant"], columns["variable"]
    cs, ts = columns["c"], columns["t_scaled"]
    return (b"" if stamps is None else struct.pack(f"<{len(stamps)}q", *stamps)) + struct.pack(
        f"<{len(mids)}I", *mids) + struct.pack(f"<{len(vids)}I", *vids) + columns["kind"] + (
        struct.pack(f"<{len(cs)}d", *cs) + struct.pack(f"<{len(ts)}d", *ts))


def forge_snapshot(path: Path, table, blob: bytes, length: int | None = None) -> None:
    """A snapshot of the log's first ``length`` bytes (all by default)
    holding ``table`` and ``blob``, with valid digests cut halfway."""
    prefix = path.read_bytes()[:length]
    payload = json.dumps(table).encode("ascii") + b"\n" + blob
    cut = len(prefix) // 2
    header = {"cut": cut, "digest": [hashlib.sha256(prefix[:cut]).hexdigest(),
                                     hashlib.sha256(prefix[cut:] + payload).hexdigest()],
              "length": len(prefix), "version": store_module.SNAPSHOT_VERSION}
    snapshot_of(path).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


SAMPLE = [
    EvidenceRecord("A", "Delivery", "positive", 1),
    DirectAssessment("B", "Privacy", 0.5, 2.5, 2),
    EvidenceRecord("A", "Portal", "negative", 3),
]
#: SAMPLE's snapshot in format 5: its table line and its columns
SAMPLE_TABLE = {"merchant": ["A", "B"], "variable": ["Delivery", "Privacy", "Portal"],
                "assessments": 1}
SAMPLE_COLUMNS = {"timestamp": [1, 2, 3], "merchant": [0, 1, 0], "variable": [0, 1, 2],
                  "kind": b"+a-", "c": [0.5], "t_scaled": [2.5]}
#: SAMPLE's log as ``write_lines`` writes it, and the snapshot that format 1
#: (JSON columns under a blake2b digest) wrote for it
SAMPLE_LOG = (
    b'{"kind": "evidence", "merchant": "A", "variable": "Delivery", "outcome": "positive",'
    b' "timestamp": 1}\n'
    b'{"kind": "assessment", "merchant": "B", "variable": "Privacy", "c": 0.5, "t_scaled": 2.5,'
    b' "timestamp": 2}\n'
    b'{"kind": "evidence", "merchant": "A", "variable": "Portal", "outcome": "negative",'
    b' "timestamp": 3}\n'
)
SAMPLE_SNAPSHOT_V1 = (
    b'{"digest": "188320e75d6d45503b0ac27ab184fcc5fa14831574139b093c8bed2d9eec22be2ed5bff704b40f2c'
    b'5bfb56d2c872d102d254a42643edbb68302617213bcec097", "length": 306, "version": 1}\n'
    b'{"kind":"+a-","merchant":["A","B","A"],"variable":["Delivery","Privacy","Portal"],'
    b'"timestamp":[1,2,3],"c":[0.5],"t_scaled":[2.5]}'
)
#: the snapshot that format 3 (a table entry for timestamps outside int64,
#: null when all fit) wrote for SAMPLE's log
SAMPLE_SNAPSHOT_V3 = (
    b'{"cut": 305, "digest": ["0266b01d38e75407057c6f3d517084dc09fbe7e3b0ac2b7e298028133bc10bc4",'
    b' "149c8132cf72d6075e3b22a9262d94c16eee6557a4f9e2c9d5a7ac114edf0c52"], "length": 306,'
    b' "version": 3}\n'
    b'{"merchant":["A","B"],"variable":["Delivery","Privacy","Portal"],"c":[0.5],'
    b'"t_scaled":[2.5],"timestamp":null}\n'
    + struct.pack("<3q", 1, 2, 3) + struct.pack("<3I", 0, 1, 0) + struct.pack("<3I", 0, 1, 2)
    + b"+a-"
)
#: the snapshot that format 4 (``c`` and ``t_scaled`` in the JSON table)
#: wrote for SAMPLE's log
SAMPLE_SNAPSHOT_V4 = (
    b'{"cut": 297, "digest": ["f0323a6cd1c7b3aaeee9010c4b299b9dc1ffffe378de645749434a16805c4396",'
    b' "cb493a031f1c99230d3caa3b1645b9b6642c3520765f6ae81e025972c43d6e47"], "length": 306,'
    b' "version": 4}\n'
    b'{"merchant":["A","B"],"variable":["Delivery","Privacy","Portal"],"c":[0.5],'
    b'"t_scaled":[2.5]}\n'
    + struct.pack("<3q", 1, 2, 3) + struct.pack("<3I", 0, 1, 0) + struct.pack("<3I", 0, 1, 2)
    + b"+a-"
)
#: the sha256 of the snapshot written for SAMPLE, with the ``stat`` and
#: ``seal`` entries taken out of its header, as they vary with the log's
#: file.  A change of the layout must bump ``store.SNAPSHOT_VERSION``, so
#: that old snapshots are ignored; then update this pin.  A moved cut
#: (``store._CHECK_BYTES``) changes the header alone and needs no bump, as
#: a read takes a snapshot cut anywhere.
SAMPLE_SNAPSHOT_SHA256 = "e3351bbf84e944ae70c004387678386d95785e3c015f418aaf8fa3550c15f8ea"


def sample_payload(table: dict | None = None, columns: dict | None = None) -> tuple:
    """SAMPLE's snapshot table and blob with the entries of ``table`` and
    ``columns`` replaced.  A ``timestamp`` entry in ``table`` takes the
    timestamps out of the columns, as format 3 did when one fell outside
    int64; format 5 has no such layout and refuses the blob, whose rows
    are then 9 bytes, not 17."""
    table, columns = {**SAMPLE_TABLE, **(table or {})}, {**SAMPLE_COLUMNS, **(columns or {})}
    if "timestamp" in table:
        columns["timestamp"] = None
    return table, pack(columns)


class TestSnapshot:
    def test_a_cold_read_writes_it_and_the_next_one_takes_it(self, store, decoded):
        write_lines(store.path, SAMPLE)
        assert store.records() == SAMPLE
        assert len(decoded) == 3
        header, table, _ = snapshot_of(store.path).read_bytes().split(b"\n", 2)
        assert (header + table).isascii()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    def test_values_and_types_survive_the_round_trip(self, store, decoded):
        records = [
            EvidenceRecord("\ud800 lone", "Delivery", "positive", 2**63 - 1),
            DirectAssessment("A", "Privacy", 1, 5e-324, -(2**63)),
            DirectAssessment("\udfff", "Portal", -0.0, 3, 0),
            DirectAssessment("Café \u2028", "Privacy", 0.1 + 0.2, 1e308, 7),
            EvidenceRecord("Z\u0085", "Portal", "negative", 0),
        ]
        write_lines(store.path, records)
        miss = store.records()
        decoded.clear()
        hit = EvidenceStore(store.path).records()
        assert decoded == []
        assert hit == miss == records
        assert repr(hit) == repr(records)  # tells -0.0 from 0.0
        assert ([[type(getattr(r, f.name)) for f in fields(r)] for r in hit]
                == [[type(getattr(r, f.name)) for f in fields(r)] for r in records])

    #: the fields of a log line that the record constructors refuse: a
    #: timestamp outside int64, or a t_scaled past the largest float
    UNHELD = [pytest.param({**record_to_dict(SAMPLE[0]), "timestamp": 2**63}, id="2**63"),
              pytest.param({**record_to_dict(SAMPLE[0]), "timestamp": -(2**63) - 1},
                           id="-2**63-1"),
              pytest.param({**record_to_dict(SAMPLE[0]), "timestamp": 10**30}, id="10**30"),
              pytest.param({**record_to_dict(SAMPLE[1]), "t_scaled": 10**400},
                           id="t_scaled-10**400")]

    @staticmethod
    def check_invalid_line(store, number: int) -> None:
        """Every read of the log fails on line ``number``, as a plain reader does."""
        for reader in (store, EvidenceStore(store.path)):
            seen = observe(reader.records)
            assert seen == observe(reference_records, store.path)
            assert seen[0][:2] == (StorageFailure,
                                   f"{store.path}: invalid record on line {number}: {seen[0][3]}")

    @pytest.mark.parametrize("unheld", UNHELD)
    def test_a_timestamp_outside_int64_writes_no_snapshot(self, store, decoded, unheld):
        """The line is an invalid record: as the final line, it is no torn write."""
        write_lines(store.path, SAMPLE)
        with store.path.open("ab") as fh:
            fh.write(json.dumps(unheld).encode("ascii") + b"\n")
        self.check_invalid_line(store, 4)
        assert not snapshot_of(store.path).exists()
        assert len(decoded) == 8  # each read parses every line

    @pytest.mark.parametrize("unheld", [UNHELD[0], UNHELD[-1]])
    def test_a_timestamp_outside_int64_keeps_the_earlier_snapshot(self, store, decoded, unheld):
        """The line is an invalid record in the middle of the lines after the snapshot."""
        write_lines(store.path, SAMPLE)
        store.records()
        before = snapshot_of(store.path).read_bytes()
        with store.path.open("ab") as fh:
            fh.write(json.dumps(unheld).encode("ascii") + b"\n")
        write_lines(store.path, SAMPLE)
        decoded.clear()
        self.check_invalid_line(store, 4)
        assert snapshot_of(store.path).read_bytes() == before
        assert len(decoded) == 2  # the line, once per read, after the snapshot

    @pytest.mark.parametrize("earlier", [False, True], ids=["none", "earlier"])
    def test_a_read_that_skips_a_torn_line_writes_no_snapshot(self, store, decoded, earlier):
        """Neither a first snapshot nor a new one, though the lines before
        the torn one outnumber the snapshot's records; the first read after
        the line is completed writes one."""
        if earlier:
            write_lines(store.path, SAMPLE)
            store.records()
        before = snapshot_of(store.path).read_bytes() if earlier else None
        write_lines(store.path, SAMPLE * 2)
        expected = SAMPLE * (3 if earlier else 2)
        line = line_bytes(SAMPLE[1])
        with store.path.open("ab") as fh:
            fh.write(line[:-1])
        for reader in (store, EvidenceStore(store.path)):
            with pytest.warns(RuntimeWarning, match="torn final line"):
                assert reader.records() == expected
            assert (snapshot_of(store.path).read_bytes()
                    if snapshot_of(store.path).exists() else None) == before
        with store.path.open("ab") as fh:
            fh.write(line[-1:] + b"\n")
        assert store.records() == expected + SAMPLE[1:2]
        assert snapshot_of(store.path).read_bytes() != before
        decoded.clear()
        assert EvidenceStore(store.path).records() == expected + SAMPLE[1:2]
        assert decoded == []

    def test_a_hit_decodes_only_the_tail(self, store, decoded):
        write_lines(store.path, SAMPLE)
        store.records()
        more = [EvidenceRecord("C", "Delivery", "negative", 4),
                DirectAssessment("C", "Portal", 0.75, 1.0, 5)]
        store.append(*more)
        decoded.clear()
        assert EvidenceStore(store.path).records() == SAMPLE + more
        assert [json.loads(line)["merchant"] for line in decoded] == ["C", "C"]

    def test_damage_after_a_hit_names_the_physical_line(self, store, decoded):
        write_lines(store.path, SAMPLE)
        store.records()
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write("\nnot json\n")
        write_lines(store.path, SAMPLE[:1])
        with pytest.raises(StorageFailure, match="line 5"):
            EvidenceStore(store.path).records()
        with store.path.open("ab") as fh:
            fh.write(b'{"kind": "evid')
        store.path.write_bytes(store.path.read_bytes().replace(b"not json\n", b"\n"))
        with pytest.warns(RuntimeWarning, match="torn final line"):
            assert EvidenceStore(store.path).records() == SAMPLE + SAMPLE[:1]

    def test_a_rewritten_log_of_the_same_length_is_parsed_again(self, store):
        write_lines(store.path, SAMPLE)
        store.records()
        data = store.path.read_bytes()
        store.path.write_bytes(data.replace(b'"positive"', b'"negative"', 1))
        assert EvidenceStore(store.path).records() == reference_records(store.path)
        assert EvidenceStore(store.path).records()[0].outcome == "negative"

    def test_a_shorter_log_ignores_it(self, store):
        write_lines(store.path, SAMPLE)
        store.records()
        store.path.write_bytes(store.path.read_bytes()[:-5])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            assert EvidenceStore(store.path).records() == SAMPLE[:2]

    def test_a_forged_snapshot_of_the_same_records_is_taken(self, store, decoded):
        write_lines(store.path, SAMPLE)
        forge_snapshot(store.path, *sample_payload())
        assert EvidenceStore(store.path).records() == SAMPLE
        assert EvidenceStore(store.path).records("A") == SAMPLE[::2]
        assert decoded == []

    def test_a_length_inside_a_line_falls_back_to_the_log(self, store, decoded):
        write_lines(store.path, SAMPLE)
        first = store.path.read_bytes().index(b"\n") + 1
        table = {"merchant": ["A"], "variable": ["Delivery"], "assessments": 0}
        forge_snapshot(store.path, table, pack({"timestamp": [1], "merchant": [0], "variable": [0],
                                                "kind": b"+", "c": [], "t_scaled": []}),
                       length=first + 1)
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    # the cases of format 1 keep their ids; where format 5 cannot hold the
    # value (a bool, a string, a dict), the count of assessments holds it
    @pytest.mark.parametrize("table, columns", [
        pytest.param({"merchant": ["A", " "]}, None, id="merchant-value0"),
        pytest.param({"merchant": ["A", 7]}, None, id="merchant-value1"),
        pytest.param({"variable": [None, "Privacy", "Portal"]}, None, id="variable-value2"),
        pytest.param({"timestamp": [True, 2, 3]}, None, id="timestamp-value3"),
        pytest.param({"timestamp": [1, 2, 3.0]}, None, id="timestamp-value4"),
        pytest.param(None, {"kind": b"+ax"}, id="kind-+ax"),
        pytest.param(None, {"kind": b"+--"}, id="kind-+--"),  # one assessment too few
        pytest.param(None, {"c": [1.5]}, id="c-value7"),
        pytest.param({"assessments": True}, None, id="c-value8"),
        pytest.param(None, {"t_scaled": [-1.0]}, id="t_scaled-value9"),
        pytest.param({"assessments": "1"}, None, id="t_scaled-value10"),
        pytest.param(None, {"t_scaled": [math.inf]}, id="t_scaled-infinite"),
        pytest.param(None, {"merchant": [0, 1]}, id="merchant-value11"),  # a short column
        pytest.param(None, {"c": []}, id="c-value12"),
        pytest.param({"merchant": {"A": 0, "B": 1}}, None, id="merchant-value13"),
        pytest.param({"merchant": ["A", ["B"]]}, None, id="merchant-unhashable"),
        pytest.param({"merchant": ["A", "B", "A"]}, None, id="merchant-twice"),
        pytest.param(None, {"kind": b"+a\x00"}, id="kind-zero-byte"),
        pytest.param(None, {"merchant": [0, 2, 0]}, id="merchant-id-out-of-range"),
        pytest.param(None, {"merchant": [0, 1, 2**32 - 1]}, id="merchant-id-max"),
        pytest.param(None, {"variable": [0, 1, 3]}, id="variable-id-out-of-range"),
        pytest.param({"variable": "Delivery"}, None, id="variable-not-a-list"),
        pytest.param({"assessments": {"0": 1}}, None, id="c-not-a-list"),
        pytest.param({"timestamp": 7}, None, id="timestamp-not-a-list"),
        pytest.param(None, {"c": [math.nan]}, id="c-nan"),
        pytest.param(None, {"c": [-0.5]}, id="c-negative"),
        pytest.param(None, {"c": [math.nextafter(1.0, 2.0)]}, id="c-just-above-1"),
        pytest.param(None, {"t_scaled": [-math.inf]}, id="t_scaled-minus-infinite"),
        pytest.param(None, {"t_scaled": [math.nan]}, id="t_scaled-nan"),
        # the ids name the int marks that b and c once were; no kind but +, - and a is taken
        pytest.param(None, {"kind": b"+b-"}, id="c-marked-int-with-a-fraction"),
        pytest.param(None, {"kind": b"+c-"}, id="t_scaled-marked-int-with-a-fraction"),
        pytest.param(None, {"kind": b"+e-"}, id="kind-past-the-int-marks"),
        pytest.param({"assessments": -1}, None, id="assessments-negative"),
    ])
    def test_a_record_the_checks_reject_falls_back_to_the_log(self, store, decoded,
                                                               table, columns):
        write_lines(store.path, SAMPLE)
        forge_snapshot(store.path, *sample_payload(table, columns))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    @pytest.mark.parametrize("damage", ["cut", "extra", "short list", "long list", "both",
                                        "not an object", "no timestamp entry"])
    def test_a_blob_that_does_not_fit_the_table_falls_back_to_the_log(self, store, decoded,
                                                                       damage):
        write_lines(store.path, SAMPLE)
        table, blob = sample_payload()
        if damage == "cut":
            blob = blob[:-1]
        elif damage == "extra":
            blob += b"+"
        elif damage in ("short list", "long list"):  # for the one assessment row
            table, blob = sample_payload(
                None, {"t_scaled": [] if damage == "short list" else [2.5] * 2})
        elif damage == "both":  # c, t_scaled and the count: the blob fits, the kinds do not
            table, blob = sample_payload({"assessments": 2},
                                         {"c": [0.5] * 2, "t_scaled": [2.5] * 2})
        elif damage == "not an object":
            table = list(table.values())
        else:  # neither in the table nor in the blob
            blob = pack({**SAMPLE_COLUMNS, "timestamp": None})
        forge_snapshot(store.path, table, blob)
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    def test_a_hit_builds_only_the_records_asked_for(self, store, built):
        write_lines(store.path, SAMPLE + SAMPLE)
        store.records()
        built.clear()
        reader = EvidenceStore(store.path)
        profile = reader.load_profile("B")
        assert built == ["B", "B"]
        assert profile.assessments["Privacy"] == SAMPLE[1]
        assert reader.records("A") == [SAMPLE[0], SAMPLE[2]] * 2
        assert reader.records("nobody") == []
        assert built == ["B", "B", "A", "A", "A", "A"]

    def test_each_read_in_a_scope_builds_only_what_it_returns(self, store, built):
        write_lines(store.path, SAMPLE)
        store.records()
        reader = EvidenceStore(store.path)
        with reader.pinned():
            reader.load_profile("A")
            built.clear()
            assert reader.records() == SAMPLE
            assert len(built) == 3
            built.clear()
            assert reader.records() == SAMPLE
            assert reader.records("B") == SAMPLE[1:2]
            assert reader.load_profile("A").counts["Portal"] == EvidenceCount(0, 1)
            assert built == ["A", "B", "A", "B", "A", "A"]

    @pytest.mark.parametrize("table, columns", [
        pytest.param(None, {"c": [1.5]}, id="c-value0"),
        pytest.param(None, {"t_scaled": [float("nan")]}, id="t_scaled-value1"),
        pytest.param({"merchant": ["A", ""]}, None, id="merchant-value2"),
        pytest.param({"timestamp": [1, 2.0, 3]}, None, id="timestamp-value3"),
        pytest.param(None, {"variable": [0, 3, 2]}, id="variable-id-out-of-range"),
        pytest.param(None, {"kind": b"+x-"}, id="kind-x"),
    ])
    def test_a_bad_record_of_another_merchant_ignores_it_whole(self, store, decoded, built,
                                                               table, columns):
        write_lines(store.path, SAMPLE)
        forge_snapshot(store.path, *sample_payload(table, columns))
        assert EvidenceStore(store.path).records("A") == [SAMPLE[0], SAMPLE[2]]
        assert len(decoded) == 3
        assert built == ["A", "B", "A"]

    @pytest.mark.parametrize("damage", ["version", "length", "digest", "header", "empty", "record",
                                        "cut", "stat", "seal"])
    def test_a_damaged_header_falls_back_to_the_log(self, store, decoded, damage):
        """Each damage is refused by the stat stamp's checks first, as the
        snapshot's mtime is past the log's ctime, and then by the digests.
        ``stat`` points the stamp at the log after a change that leaves its
        records as they were; ``seal`` drops the seal and changes a record."""
        write_lines(store.path, SAMPLE)
        store.records()
        assert stamp_holds(store.path)
        head, _, payload = snapshot_of(store.path).read_bytes().partition(b"\n")
        header = json.loads(head)
        if damage == "version":
            header["version"] = store_module.SNAPSHOT_VERSION + 1
        elif damage == "length":
            header["length"] -= 1
        elif damage == "digest":
            header["digest"] = header["digest"][::-1]
        elif damage == "cut":
            header["cut"] -= 1
        elif damage == "stat":  # JSON whitespace: the same records from other bytes
            store.path.write_bytes(store.path.read_bytes().replace(b'"kind": ', b'"kind":\t', 1))
            header["stat"] = stat_entry(store.path)
        elif damage == "seal":
            del header["seal"]
        changed = json.dumps(header).encode("ascii") + b"\n" + payload
        if damage == "header":
            changed = b"[]\n" + payload
        elif damage == "empty":
            changed = b""
        elif damage in ("record", "seal"):  # the third timestamp, still a valid one
            at = changed.index(b"\n", changed.index(b"\n") + 1) + 1 + 16
            assert changed[at:at + 8] == (3).to_bytes(8, "little")
            changed = changed[:at] + b"\x04" + changed[at + 1:]
        snapshot_of(store.path).write_bytes(changed)
        settle(store.path)
        decoded.clear()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    def test_a_format_1_snapshot_is_replaced(self, store, decoded):
        write_lines(store.path, SAMPLE)
        assert store.path.read_bytes() == SAMPLE_LOG
        snapshot_of(store.path).write_bytes(SAMPLE_SNAPSHOT_V1)
        assert store.records() == SAMPLE
        assert len(decoded) == 3
        head = snapshot_of(store.path).read_bytes().partition(b"\n")[0]
        assert json.loads(head)["version"] == store_module.SNAPSHOT_VERSION
        decoded.clear()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert decoded == []

    @staticmethod
    def check_replaced(store, decoded, old: bytes) -> None:
        """SAMPLE's log with the snapshot ``old`` next to it: the first
        read parses the log and writes format 5, which the next read takes."""
        write_lines(store.path, SAMPLE)
        snapshot_of(store.path).write_bytes(old)
        assert store.records() == SAMPLE
        assert len(decoded) == 3
        written = snapshot_of(store.path).read_bytes()
        assert json.loads(written.partition(b"\n")[0])["version"] == 5
        assert written.partition(b"\n")[2] == (
            json.dumps(SAMPLE_TABLE, separators=(",", ":")).encode("ascii") + b"\n"
            + pack(SAMPLE_COLUMNS))
        decoded.clear()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert decoded == []

    def test_a_format_3_snapshot_is_replaced(self, store, decoded):
        assert hashlib.sha256(SAMPLE_SNAPSHOT_V3).hexdigest() == (  # format 3's layout pin
            "ffded64f9905842fe5a4c6768d05df64ea3d86fea47e2a1cee97af6a55b4eceb")
        self.check_replaced(store, decoded, SAMPLE_SNAPSHOT_V3)

    def test_a_format_4_snapshot_is_replaced(self, store, decoded):
        assert hashlib.sha256(SAMPLE_SNAPSHOT_V4).hexdigest() == (  # format 4's layout pin
            "81db8a563f7b94107f39a80c8449003e0e72795843efc1daeb41cd33cc4addc5")
        self.check_replaced(store, decoded, SAMPLE_SNAPSHOT_V4)

    @pytest.mark.parametrize("kind, c, t_scaled", [(b"b", 1, 2.5), (b"c", 0.5, 3), (b"d", 0, 7)])
    def test_an_int_marked_snapshot_is_replaced(self, store, decoded, kind, c, t_scaled):
        """Format 5 once marked an assessment whose ``c``, ``t_scaled`` or
        both were logged as ints with the kind byte b, c or d.  Such a
        snapshot is ignored for the log once, then replaced with kind a."""
        with store.path.open("ab") as fh:
            fh.write(json.dumps({**record_to_dict(SAMPLE[1]), "c": c, "t_scaled": t_scaled})
                     .encode("ascii") + b"\n")
        table = {"merchant": ["B"], "variable": ["Privacy"], "assessments": 1}
        columns = {"timestamp": [2], "merchant": [0], "variable": [0], "c": [c],
                   "t_scaled": [t_scaled]}
        forge_snapshot(store.path, table, pack({**columns, "kind": kind}))
        expected = repr([DirectAssessment("B", "Privacy", float(c), float(t_scaled), 2)])
        assert repr(store.records()) == expected
        assert len(decoded) == 1
        assert snapshot_of(store.path).read_bytes().partition(b"\n")[2] == (
            json.dumps(table, separators=(",", ":")).encode("ascii") + b"\n"
            + pack({**columns, "kind": b"a"}))
        decoded.clear()
        assert repr(EvidenceStore(store.path).records()) == expected
        assert decoded == []

    def test_the_layout_is_pinned(self, store):
        write_lines(store.path, SAMPLE)
        stamp = stat_entry(store.path)
        store.records()
        head, _, payload = snapshot_of(store.path).read_bytes().partition(b"\n")
        assert payload == (
            json.dumps(SAMPLE_TABLE, separators=(",", ":")).encode("ascii") + b"\n"
            + pack(SAMPLE_COLUMNS))
        header = json.loads(head)
        seal = header.pop("seal")
        assert header.pop("stat") == stamp
        assert seal == hashlib.sha256(json.dumps({**header, "stat": stamp}, sort_keys=True)
                                      .encode("ascii") + b"\n" + payload).hexdigest()
        unstamped = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
        assert hashlib.sha256(unstamped).hexdigest() == SAMPLE_SNAPSHOT_SHA256
        assert head == json.dumps({**header, "seal": seal, "stat": stamp},
                                  sort_keys=True).encode("ascii")

    @pytest.mark.parametrize("failing", ["replace", "mkstemp"])
    def test_a_failed_write_is_skipped_quietly(self, store, monkeypatch, failing):
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "replace":
            monkeypatch.setattr(store_module.os, "replace", fail)
        else:
            monkeypatch.setattr(store_module.tempfile, "mkstemp", fail)
        write_lines(store.path, SAMPLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.records() == SAMPLE
            assert EvidenceStore(store.path).records() == SAMPLE
        assert sorted(p.name for p in store.path.parent.iterdir()) == ["log.jsonl"]

    def test_it_has_the_permission_bits_of_the_log(self, store):
        write_lines(store.path, SAMPLE)
        store.path.chmod(0o640)
        store.records()
        assert snapshot_of(store.path).stat().st_mode & 0o7777 == 0o640

    def test_append_writes_no_snapshot(self, store):
        store.append(*SAMPLE)
        assert not snapshot_of(store.path).exists()
        store.records()
        before = snapshot_of(store.path).read_bytes()
        store.append(*SAMPLE)
        assert snapshot_of(store.path).read_bytes() == before

    def test_it_is_rewritten_when_a_store_has_parsed_more_than_it_holds(self, store, replaced):
        write_lines(store.path, SAMPLE + SAMPLE[:1])  # 4 records
        for _ in range(4):
            store.records()
        assert replaced == ["log.jsonl.snapshot"]
        other = EvidenceStore(store.path)
        for _ in range(4):
            other.records()
        assert len(replaced) == 1
        store.append(*SAMPLE)  # 7 records, 3 parsed after the 4 taken
        other.records()
        EvidenceStore(store.path).records()
        assert len(replaced) == 1
        store.append(*SAMPLE[:2])  # 9 records: other has now parsed 5
        other.records()
        assert len(replaced) == 2
        assert EvidenceStore(store.path).records() == reference_records(store.path)

    def test_it_is_rewritten_when_the_tail_passes_a_tenth_of_what_it_holds(self, store,
                                                                          replaced, decoded):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            import gen
        finally:
            sys.path.pop(0)
        gen.write_store(store.path, random.Random(11), 12_000, 400)
        store.records()
        assert replaced == ["log.jsonl.snapshot"]
        bound = 12_000 // 10  # above store._TAIL_LINES, below the 12,000 held
        store.append(*[EvidenceRecord("m00001", "Delivery", "positive", i) for i in range(bound)])
        decoded.clear()
        assert len(EvidenceStore(store.path).records()) == 12_000 + bound
        assert (len(replaced), len(decoded)) == (1, bound)
        store.append(EvidenceRecord("m00001", "Delivery", "negative", bound))
        records = EvidenceStore(store.path).records()
        assert len(replaced) == 2
        decoded.clear()
        assert EvidenceStore(store.path).records() == records == reference_records(store.path)
        assert decoded == []


class TestSnapshotCut:
    """Since format 3 the snapshot's SHA-256 is cut in two at ``cut``: the
    head digest covers the log's first ``cut`` bytes, the rest digest the
    other bytes of the prefix and then the snapshot after its header.  A
    header whose cut or digests do not hold exactly that is ignored for
    the log."""

    @pytest.fixture
    def log(self, store):
        """SAMPLE's log and its snapshot, then one more line after it."""
        write_lines(store.path, SAMPLE)
        store.records()
        write_lines(store.path, SAMPLE[:1])
        return store.path

    @staticmethod
    def reforge(log: Path, **changes) -> None:
        """Rewrite the snapshot's header with ``changes`` (``None`` drops an
        entry).  A changed ``cut`` or ``length`` gets the digests that
        slicing the log at them gives, as a read slices it, when it can."""
        head, _, payload = snapshot_of(log).read_bytes().partition(b"\n")
        header = {**json.loads(head), **changes}
        cut, length, data = header.get("cut"), header["length"], log.read_bytes()
        if ("cut" in changes or "length" in changes) and isinstance(cut, int):
            header["digest"] = [hashlib.sha256(data[:cut]).hexdigest(),
                                hashlib.sha256(data[cut:length] + payload).hexdigest()]
        header = {key: value for key, value in header.items() if value is not None}
        snapshot_of(log).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)

    @staticmethod
    def header(log: Path) -> dict:
        return json.loads(snapshot_of(log).read_bytes().partition(b"\n")[0])

    def test_the_digests_cover_the_prefix_at_the_cut_then_the_payload(self, log):
        header, snapshot = self.header(log), snapshot_of(log).read_bytes()
        cut, length, data = header["cut"], header["length"], log.read_bytes()
        assert 0 < cut <= length < len(data)
        assert header["digest"] == [
            hashlib.sha256(data[:cut]).hexdigest(),
            hashlib.sha256(data[cut:length] + snapshot.partition(b"\n")[2]).hexdigest()]

    @pytest.mark.parametrize("damage", ["head", "rest", "swapped", "one", "format 2"])
    def test_a_wrong_digest_falls_back_to_the_log(self, log, decoded, damage):
        header, snapshot = self.header(log), snapshot_of(log).read_bytes()
        digests, empty = header["digest"], hashlib.sha256(b"").hexdigest()
        if damage == "head":
            digests = [empty, digests[1]]
        elif damage == "rest":
            digests = [digests[0], empty]
        elif damage == "swapped":
            digests = digests[::-1]
        elif damage == "one":
            digests = digests[:1]
        else:  # one digest over the prefix and the payload, as format 2 held it
            digests = hashlib.sha256(log.read_bytes()[:header["length"]]
                                     + snapshot.partition(b"\n")[2]).hexdigest()
        self.reforge(log, digest=digests)
        decoded.clear()
        assert EvidenceStore(log).records() == SAMPLE + SAMPLE[:1]
        assert len(decoded) == 4

    @pytest.mark.parametrize("cut", [-1, "length + 1", 1.0, "0", True, None],
                             ids=["-1", "length+1", "1.0", "'0'", "True", "missing"])
    def test_a_cut_out_of_range_or_not_an_int_falls_back_to_the_log(self, log, decoded, cut):
        if cut == "length + 1":
            cut = self.header(log)["length"] + 1
        self.reforge(log, cut=cut)
        decoded.clear()
        assert EvidenceStore(log).records() == SAMPLE + SAMPLE[:1]
        assert len(decoded) == 4

    def test_a_zero_length_falls_back_to_the_log(self, log, decoded):
        self.reforge(log, cut=0, length=0)
        decoded.clear()
        assert EvidenceStore(log).records() == SAMPLE + SAMPLE[:1]
        assert len(decoded) == 4

    @pytest.mark.parametrize("at", ["start", "end"])
    def test_a_cut_at_either_end_is_taken(self, log, decoded, at):
        self.reforge(log, cut=0 if at == "start" else self.header(log)["length"])
        decoded.clear()
        assert EvidenceStore(log).records() == SAMPLE + SAMPLE[:1]
        assert len(decoded) == 1

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_a_byte_changed_beside_the_cut_is_seen(self, log, decoded, offset):
        """``Deli|very`` with the cut at ``|``: an upper-case ``I`` is the
        head's last byte, and an upper-case ``V`` the rest's first."""
        data = log.read_bytes()
        cut = data.index(b"Delivery") + 4
        self.reforge(log, cut=cut)
        assert EvidenceStore(log).records() == SAMPLE + SAMPLE[:1]  # a hit
        at = cut + offset
        log.write_bytes(data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1:])
        decoded.clear()
        records = EvidenceStore(log).records()
        assert records == reference_records(log)
        assert records[0].variable == ("DelIvery", "DeliVery")[offset + 1]
        assert len(decoded) == 4


class TestSnapshotDigestWorker:
    """A cold read hashes the head of the snapshot's digest on one worker
    thread while it checks the columns and hashes the rest, and joins the
    worker before it returns."""

    @pytest.fixture
    def log(self, store):
        write_lines(store.path, SAMPLE)
        store.records()
        os.utime(store.path)  # a new ctime: the stamp no longer holds, so a hit hashes
        return store.path

    def read_joins_the_worker(self, log) -> list:
        before = threading.active_count()
        records = EvidenceStore(log).records()
        assert threading.active_count() == before
        return records

    @staticmethod
    def hash_in_worker(monkeypatch, error=None) -> list:
        """Patch ``sha256`` so that the digest worker's hash raises
        ``error``, or, with none, stays alive a moment after its digest is
        handed over; the snapshot write of the calling thread hashes as
        usual.  Returns the ids of the threads that hashed off the calling
        thread."""
        caller, threads = threading.get_ident(), []

        class Lingering:
            def __init__(self, data):
                self.sha = sha256(data)

            def update(self, data):
                self.sha.update(data)

            def hexdigest(self):
                return self.sha.hexdigest()

            def __del__(self):
                time.sleep(0.05)

        def patched(data=b""):
            if threading.get_ident() == caller:
                return sha256(data)
            threads.append(threading.get_ident())
            if error is not None:
                raise error("no digest")
            return Lingering(data)

        sha256 = hashlib.sha256
        monkeypatch.setattr(store_module.hashlib, "sha256", patched)
        return threads

    def test_a_hit_hashes_on_one_worker_and_joins_it(self, log, decoded, monkeypatch):
        threads = self.hash_in_worker(monkeypatch)
        assert self.read_joins_the_worker(log) == SAMPLE
        assert decoded == []
        assert len(threads) == 1

    @pytest.mark.parametrize("damage", ["digest", "columns", "short", "missing"])
    def test_a_snapshot_that_is_ignored_leaves_no_thread(self, log, decoded, monkeypatch,
                                                         damage):
        if damage == "digest":
            head, _, payload = snapshot_of(log).read_bytes().partition(b"\n")
            header = {**json.loads(head), "digest": hashlib.sha256(b"").hexdigest()}
            snapshot_of(log).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        elif damage == "columns":
            forge_snapshot(log, *sample_payload(None, {"c": [1.5]}))
        elif damage == "short":
            snapshot_of(log).write_bytes(snapshot_of(log).read_bytes()[:20])
        else:
            snapshot_of(log).unlink()
        threads = self.hash_in_worker(monkeypatch)
        decoded.clear()
        assert self.read_joins_the_worker(log) == SAMPLE
        assert len(decoded) == 3
        assert len(threads) == (damage in ("digest", "columns"))

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_a_failing_column_check_leaves_no_thread(self, log, monkeypatch, error):
        def fail(*args):
            raise error("column check failed")

        monkeypatch.setattr(store_module, "_snapshot_columns", fail)
        self.hash_in_worker(monkeypatch)
        before = threading.active_count()
        if error is ValueError:
            assert self.read_joins_the_worker(log) == SAMPLE
        else:
            with pytest.raises(MemoryError, match="column check failed"):
                EvidenceStore(log).records()
        assert threading.active_count() == before

    def test_a_digest_that_raises_value_error_ignores_the_snapshot(self, log, decoded,
                                                                   monkeypatch):
        threads = self.hash_in_worker(monkeypatch, ValueError)
        decoded.clear()
        assert self.read_joins_the_worker(log) == SAMPLE
        assert len(decoded) == 3
        assert len(threads) == 1

    @pytest.mark.parametrize("columns_fail", [False, True])
    def test_a_digest_that_raises_memory_error_reaches_the_caller(self, log, monkeypatch,
                                                                  columns_fail):
        def reject(*args):
            raise ValueError("column check failed")

        self.hash_in_worker(monkeypatch, MemoryError)
        if columns_fail:  # the digest's error wins, as if it had been computed first
            monkeypatch.setattr(store_module, "_snapshot_columns", reject)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no digest"):
            EvidenceStore(log).records()
        assert threading.active_count() == before

    @pytest.mark.parametrize("damage", [None, "digest"])
    def test_a_thread_that_cannot_start_hashes_on_the_caller(self, log, decoded, monkeypatch,
                                                              damage):
        refused = []

        def refuse(thread):
            refused.append(thread)
            raise RuntimeError("can't start new thread")

        if damage:
            head, _, payload = snapshot_of(log).read_bytes().partition(b"\n")
            header = {**json.loads(head), "digest": hashlib.sha256(b"").hexdigest()}
            snapshot_of(log).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        threads = self.hash_in_worker(monkeypatch)
        decoded.clear()
        assert self.read_joins_the_worker(log) == SAMPLE
        assert (len(refused), threads, len(decoded)) == (1, [], 3 if damage else 0)

    @staticmethod
    def hash_halves(monkeypatch, half=None, error=None) -> list:
        """Patch ``sha256`` and ``_snapshot_columns`` to note, in order, each
        call that hashes bytes, as ``(on the calling thread, byte count)``,
        and each column check, as ``(True, "columns")``.  The read's
        ``sha256`` call of ``half`` raises ``error``: the head's, which the
        worker makes, or the rest's, which the calling thread makes; the
        snapshot writer's calls do not.  The worker lingers a moment after
        it hashes, so that a worker left unjoined shows."""
        caller, calls = threading.get_ident(), []
        failing = {"head": "hash_head", "rest": "_load_snapshot"}.get(half)

        class Noted:
            def __init__(self, data=None):
                if error is not None and sys._getframe(1).f_code.co_name == failing:
                    raise error("no digest")
                self.sha = sha256()
                if data is not None:
                    self.update(data)

            def update(self, data):
                calls.append((threading.get_ident() == caller, len(data)))
                self.sha.update(data)

            def hexdigest(self):
                if threading.get_ident() != caller:
                    time.sleep(0.05)
                return self.sha.hexdigest()

        def columns(*args):
            calls.append((True, "columns"))
            return check(*args)

        sha256, check = hashlib.sha256, store_module._snapshot_columns
        monkeypatch.setattr(store_module.hashlib, "sha256", Noted)
        monkeypatch.setattr(store_module, "_snapshot_columns", columns)
        return calls

    @staticmethod
    def split(log) -> tuple:
        """The cut, the length and the payload size of the log's snapshot."""
        head, _, payload = snapshot_of(log).read_bytes().partition(b"\n")
        header = json.loads(head)
        return header["cut"], header["length"], len(payload)

    def test_the_worker_hashes_the_head_in_one_call(self, log, decoded, monkeypatch):
        cut, length, payload = self.split(log)
        calls = self.hash_halves(monkeypatch)
        assert self.read_joins_the_worker(log) == SAMPLE
        assert decoded == []
        assert [n for on_caller, n in calls if not on_caller] == [cut]
        assert [n for on_caller, n in calls if on_caller] == ["columns", length - cut, payload]

    @pytest.mark.parametrize("half", ["head", "rest"])
    def test_a_value_error_from_either_half_ignores_the_snapshot(self, log, decoded,
                                                                  monkeypatch, half):
        self.hash_halves(monkeypatch, half, ValueError)
        decoded.clear()
        assert self.read_joins_the_worker(log) == SAMPLE
        assert len(decoded) == 3

    @pytest.mark.parametrize("columns_fail", [False, True])
    @pytest.mark.parametrize("half", ["head", "rest"])
    def test_a_memory_error_from_either_half_reaches_the_caller(self, log, monkeypatch, half,
                                                                 columns_fail):
        def reject(*args):
            raise ValueError("column check failed")

        calls = self.hash_halves(monkeypatch, half, MemoryError)
        if columns_fail:  # the digest's error wins, as if it had been computed first
            monkeypatch.setattr(store_module, "_snapshot_columns", reject)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no digest"):
            EvidenceStore(log).records()
        assert threading.active_count() == before
        assert any(not on_caller for on_caller, _ in calls) == (half == "rest")

    def test_a_thread_that_cannot_start_hashes_both_halves_on_the_caller(self, log, decoded,
                                                                         monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        cut, length, payload = self.split(log)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        calls = self.hash_halves(monkeypatch)
        assert self.read_joins_the_worker(log) == SAMPLE
        assert decoded == []
        assert calls == [(True, cut), (True, "columns"), (True, length - cut), (True, payload)]


class TestSplitRead:
    """On a cold hit the digest worker reads the log's head itself with
    ``os.pread`` while the calling thread reads from the cut to the end."""

    log = TestSnapshotDigestWorker.log

    @staticmethod
    def reads(monkeypatch, log: Path) -> tuple[list, list]:
        """Note each positional read of the log, as ``(on the calling thread,
        size, offset)``, and each read through the file object that the
        store opens, as ``(offset, bytes read)``."""
        caller, preads, reads = threading.get_ident(), [], []
        pread, opened = os.pread, Path.open

        def noting_pread(fd, size, offset):
            preads.append((threading.get_ident() == caller, size, offset))
            return pread(fd, size, offset)

        class Noted:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def seek(self, *args):
                return self.fh.seek(*args)

            def read(self, *args):
                at = self.fh.tell()
                data = self.fh.read(*args)
                reads.append((at, len(data)))
                return data

        def noting_open(path, *args, **kwargs):
            fh = opened(path, *args, **kwargs)
            return Noted(fh) if path == log else fh

        monkeypatch.setattr(store_module.os, "pread", noting_pread)
        monkeypatch.setattr(Path, "open", noting_open)
        return preads, reads

    def test_the_worker_preads_the_head_and_the_caller_reads_from_the_cut(self, log, decoded,
                                                                          monkeypatch):
        cut, _, _ = TestSnapshotDigestWorker.split(log)
        size = log.stat().st_size
        preads, reads = self.reads(monkeypatch, log)
        assert TestSnapshotDigestWorker().read_joins_the_worker(log) == SAMPLE
        assert decoded == []
        assert preads == [(False, cut, 0)]
        assert reads == [(cut, size - cut)]

    def test_a_head_read_in_parts_is_read_whole(self, log, decoded, monkeypatch):
        cut, _, _ = TestSnapshotDigestWorker.split(log)
        pread, offsets = os.pread, []

        def partial(fd, size, offset):  # as a read past 0x7ffff000 bytes is on Linux
            offsets.append(offset)
            return pread(fd, min(size, 64), offset)

        monkeypatch.setattr(store_module.os, "pread", partial)
        assert EvidenceStore(log).records() == SAMPLE
        assert decoded == []
        assert offsets == list(range(0, cut, 64))

    def test_a_log_cut_after_its_size_was_taken_parses_what_was_read(self, log, decoded,
                                                                     monkeypatch):
        first = log.read_bytes().index(b"\n") + 1
        assert first < TestSnapshotDigestWorker.split(log)[0]  # the cut lies past it
        fstat = os.fstat

        def cutting(fd):
            result = fstat(fd)
            os.truncate(log, first)
            return result

        monkeypatch.setattr(store_module.os, "fstat", cutting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EvidenceStore(log).records() == SAMPLE[:1]
        assert len(decoded) == 1

    def test_an_error_reading_the_head_names_the_log(self, log, monkeypatch):
        def failing(fd, size, offset):
            time.sleep(0.05)  # after the calling thread's read: the head's error still wins
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(store_module.os, "pread", failing)
        before = threading.active_count()
        with pytest.raises(StorageFailure, match=f"^cannot read {log}: .*Input/output error"):
            EvidenceStore(log).records()
        assert threading.active_count() == before

    def test_without_pread_the_worker_hashes_the_head_it_is_handed(self, log, decoded,
                                                                   monkeypatch):
        cut, length, payload = TestSnapshotDigestWorker.split(log)
        monkeypatch.delattr(store_module.os, "pread")
        calls = TestSnapshotDigestWorker.hash_halves(monkeypatch)
        assert TestSnapshotDigestWorker().read_joins_the_worker(log) == SAMPLE
        assert decoded == []
        assert [n for on_caller, n in calls if not on_caller] == [cut]
        assert [n for on_caller, n in calls if on_caller] == ["columns", length - cut, payload]


class TestStatStamp:
    """On POSIX, a snapshot stamped with the log's stat, whose stamped ctime
    is older than the snapshot's mtime and whose seal and columns check, is
    taken with no byte of the log read and no thread started; any other
    hit hashes as ``TestSnapshotDigestWorker`` and ``TestSplitRead``
    describe."""

    @pytest.fixture
    def log(self, store):
        write_lines(store.path, SAMPLE)
        store.records()
        settle(store.path)
        assert stamp_holds(store.path)
        return store.path

    @staticmethod
    def read(monkeypatch, log: Path) -> tuple:
        """A new store's records of ``log``; the log's reads, as
        ``TestSplitRead.reads`` notes them; and the threads started."""
        started, begin = [], threading.Thread.start

        def noting(thread):
            started.append(thread)
            begin(thread)

        monkeypatch.setattr(threading.Thread, "start", noting)
        preads, reads = TestSplitRead.reads(monkeypatch, log)
        return EvidenceStore(log).records(), preads, reads, started

    @staticmethod
    def hashed(log: Path) -> list:
        """The reads of a hit that hashes: the worker's ``pread`` of the head."""
        return [(False, TestSnapshotDigestWorker.split(log)[0], 0)]

    def test_a_stamped_hit_reads_no_byte_of_the_log(self, log, decoded, monkeypatch):
        records, preads, reads, started = self.read(monkeypatch, log)
        assert records == SAMPLE
        assert (preads, reads, started, decoded) == ([], [], [], [])

    @pytest.mark.parametrize("by", ["edit", "rename", "edit as the snapshot is written"])
    def test_a_changed_log_of_the_same_size_and_mtime_is_caught(self, log, decoded,
                                                                monkeypatch, by):
        """A byte changed in place, or the log replaced by a file renamed
        over it, with the size and mtime of the log as stamped; or a byte
        changed in place after the read that writes the snapshot has taken
        the log's stat, which only the stamped ctime tells."""
        before, data = log.stat(), log.read_bytes()
        at = data.index(b"Delivery") + 3
        changed = data[:at] + b"I" + data[at + 1:]
        target = log if by != "rename" else log.with_name("other.jsonl")

        def change():
            target.write_bytes(changed)
            os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
            if by == "rename":
                os.replace(target, log)

        if by == "edit as the snapshot is written":
            def changing(records):
                if log.read_bytes() != changed:
                    change()
                return payload(records)

            payload = store_module._snapshot_payload
            monkeypatch.setattr(store_module, "_snapshot_payload", changing)
            snapshot_of(log).unlink()
            EvidenceStore(log).records()
            settle(log)
        else:
            change()
        after = log.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert (after.st_ino == before.st_ino) == (by != "rename")
        decoded.clear()
        records = EvidenceStore(log).records()
        assert records == reference_records(log)
        assert records[0].variable == "DelIvery"
        assert len(decoded) == 3

    def test_a_payload_byte_flipped_under_a_valid_stamp_is_caught(self, log, decoded,
                                                                  monkeypatch):
        """The lowest byte of ``c``, 0.5 in the log: the columns still pass."""
        data = snapshot_of(log).read_bytes()
        assert data[-16:-8] == struct.pack("<d", 0.5)
        snapshot_of(log).write_bytes(data[:-16] + b"\x01" + data[-15:])
        settle(log)
        assert stamp_holds(log)
        records, preads, _, _ = self.read(monkeypatch, log)
        assert records == SAMPLE
        assert preads == self.hashed(log)
        assert len(decoded) == 3

    @pytest.mark.parametrize("later", [0, 1])
    def test_a_stamp_as_new_as_the_snapshot_is_racy(self, log, decoded, monkeypatch, later):
        """A snapshot whose mtime is the log's stamped ctime hashes; one a
        nanosecond later is taken on the stamp."""
        os.utime(snapshot_of(log), ns=(0, log.stat().st_ctime_ns + later))
        records, preads, _, started = self.read(monkeypatch, log)
        assert records == SAMPLE
        assert (preads, len(started)) == ((self.hashed(log), 1) if later == 0 else ([], 0))
        assert decoded == []

    @pytest.mark.parametrize("case", ["not POSIX", "no stamp", "unterminated"])
    def test_a_hit_the_stamp_does_not_cover_hashes(self, log, decoded, monkeypatch, case):
        """Where ``st_ctime`` is no change time; a snapshot with no ``stat``,
        as ``forge_snapshot`` and format 5's first writers write it; and a
        snapshot that ends before the log's unterminated last line."""
        expected = SAMPLE
        if case == "not POSIX":
            monkeypatch.setattr(store_module, "_CHANGE_TIMES", False)
        elif case == "no stamp":
            forge_snapshot(log, *sample_payload())
        else:
            with log.open("ab") as fh:
                fh.write(line_bytes(SAMPLE[0]))
            snapshot_of(log).unlink()
            EvidenceStore(log).records()
            expected = SAMPLE + SAMPLE[:1]
        settle(log)
        decoded.clear()
        records, preads, _, started = self.read(monkeypatch, log)
        assert records == expected
        assert (preads, len(started)) == (self.hashed(log), 1)
        assert len(decoded) == (case == "unterminated")


MERCHANTS = ("A", "Café", "Z\u0085", "\u2028B")

records_st = st.one_of(
    st.builds(
        EvidenceRecord,
        st.sampled_from(MERCHANTS),
        st.sampled_from(("Delivery", "Privacy")),
        st.sampled_from(("positive", "negative")),
        st.integers(0, 9),
    ),
    st.builds(
        DirectAssessment,
        st.sampled_from(MERCHANTS),
        st.sampled_from(("Delivery", "Privacy")),
        st.floats(0.0, 1.0),
        st.floats(0.0, 5.0),
        st.integers(0, 9),
    ),
)

steps_st = st.one_of(
    st.tuples(st.just("append"), st.lists(records_st, min_size=1, max_size=3)),
    st.tuples(st.just("snapshot"), st.sampled_from(("delete", "truncate", "flip", "digit", "stale")),
              st.integers(0, 10_000)),
    st.tuples(st.just("raw"), records_st),
    st.tuples(st.just("torn"), records_st, st.integers(1, 200)),
    st.tuples(st.just("blank"), st.sampled_from((b"\n", b"  \n", b"\r\n"))),
    st.tuples(st.just("rewrite"), st.sampled_from(("drop", "replace", "truncate", "corrupt")),
              st.integers(0, 10_000), records_st),
    st.tuples(st.just("read")),
    st.tuples(st.just("edit"), st.integers(0, 10_000)),
    st.tuples(st.just("settle")),
    st.tuples(st.just("pinned"), st.sampled_from(("delete", "truncate", "flip", "digit", "stale")),
              st.integers(0, 10_000), records_st),
)


def line_bytes(record, **dumps) -> bytes:
    return json.dumps(record_to_dict(record), **dumps).encode("utf-8")


def rewrite(path: Path, mode: str, position: int, record) -> None:
    """Change the file at or before ``position`` without appending to it."""
    data = path.read_bytes() if path.exists() else b""
    if not data:
        return
    lines = data.split(b"\n")
    k = position % len(lines)
    if mode == "drop":
        del lines[k]
    elif mode == "replace":
        lines[k] = line_bytes(record, ensure_ascii=False, sort_keys=True)
    if mode in ("drop", "replace"):
        data = b"\n".join(lines)
    elif mode == "truncate":
        data = data[: position % len(data)]
    else:
        at = position % len(data)
        data = data[:at] + b"#" + data[at + 1:]
    path.write_bytes(data)


def edit_in_place(path: Path, position: int) -> None:
    """Change one byte of the log in place and put its mtime back."""
    data = path.read_bytes() if path.exists() else b""
    if not data:
        return
    at, before = position % len(data), path.stat()
    with path.open("r+b") as fh:
        fh.seek(at)
        fh.write(bytes([data[at] ^ 0x01]))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def snapshot_of(path: Path) -> Path:
    return path.with_name(path.name + ".snapshot")


def settle(path: Path) -> None:
    """Make the stamp of the log's snapshot not racy, as if the snapshot
    had been written a clock tick after the log's last change: wait until
    the file clock has passed the log's ctime, and give the snapshot that
    time as its mtime with ``os.utime``."""
    snapshot = snapshot_of(path)
    if not (path.exists() and snapshot.exists()):
        return
    changed, deadline = path.stat().st_ctime_ns, time.monotonic() + 5
    os.utime(snapshot)
    while snapshot.stat().st_mtime_ns <= changed:
        assert time.monotonic() < deadline, "the file clock did not pass the log's ctime"
        time.sleep(0.001)
        os.utime(snapshot)


def stat_entry(path: Path) -> list:
    """The ``stat`` header entry that stamps the log at ``path`` as it is now."""
    log = path.stat()
    return [log.st_dev, log.st_ino, log.st_size, log.st_mtime_ns, log.st_ctime_ns]


def stamp_holds(path: Path) -> bool:
    """Whether the snapshot's ``stat`` entry is the log's stat now."""
    header = json.loads(snapshot_of(path).read_bytes().partition(b"\n")[0])
    return header["stat"] == stat_entry(path)


def damage_snapshot(path: Path, mode: str, position: int, earlier: list) -> None:
    """Delete, cut, flip a byte of or change a digit of the log's snapshot,
    or put back one of its ``earlier`` contents."""
    snapshot = snapshot_of(path)
    if mode == "stale":
        if earlier:
            snapshot.write_bytes(earlier[position % len(earlier)])
        return
    data = snapshot.read_bytes() if snapshot.exists() else b""
    if not data:
        return
    at = position % len(data)
    if mode == "delete":
        snapshot.unlink()
    elif mode == "truncate":
        snapshot.write_bytes(data[:at])
    elif mode == "flip":
        snapshot.write_bytes(data[:at] + bytes([data[at] ^ 0x04]) + data[at + 1:])
    else:
        # another non-zero digit after the header, so that the table may still parse
        digits = [i for i, byte in enumerate(data) if byte in b"0123456789" and i > data.find(b"\n")]
        if digits:
            at = digits[position % len(digits)]
            digit = b"%d" % ((data[at] - ord("0")) % 9 + 1)
            snapshot.write_bytes(data[:at] + digit + data[at + 1:])


def observe(read, *args):
    """What ``read(*args)`` shows: its result, or its error and the error's
    cause; plus the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seen = read(*args)
        except Exception as exc:  # compared, not handled
            cause = exc.__cause__
            seen = (type(exc), str(exc), type(cause), str(cause))
    return seen, [(w.category, str(w.message)) for w in caught]


def records_and_profile(store: EvidenceStore, merchant: str):
    return store.records(), store.load_profile(merchant)


def merchant_records(path: Path, merchant: str) -> list:
    return [r for r in reference_records(path) if r.merchant == merchant]


def fresh_records(path: Path) -> list:
    return EvidenceStore(path).records()


@settings(max_examples=150, deadline=None)
@given(st.lists(steps_st, max_size=25), st.sampled_from(MERCHANTS))
@example([("append", SAMPLE), ("settle",), ("edit", 40)], "A")
def test_long_lived_store_reads_like_a_fresh_one(steps, merchant):
    """A long-lived store, a new one (which may take the snapshot or write
    it) and a reader that never sees a snapshot agree after every step, on
    all records and on one merchant's; a second long-lived store reads
    only that merchant's, so it may keep snapshot columns across steps.
    A ``settle`` step makes the snapshot's stamp not racy, so that later
    reads may take it on the log's stat, and an ``edit`` step changes a
    log byte in place and puts its mtime back."""
    check_long_lived_store(steps, merchant)


def check_long_lived_store(steps, merchant) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        store = EvidenceStore(path)
        narrow = EvidenceStore(path)  # reads only the merchant's records
        earlier = []  # every snapshot content seen so far
        for step in steps:
            kind = step[0]
            if kind == "append":
                before = path.read_bytes() if path.exists() else b""
                if before.endswith(b"\n") or not before:
                    store.append(*step[1])
                else:
                    with pytest.raises(StorageFailure, match="last line is unterminated"):
                        store.append(*step[1])
                    assert path.read_bytes() == before
            elif kind == "raw":
                with path.open("ab") as fh:
                    fh.write(line_bytes(step[1]) + b"\n")
            elif kind == "torn":
                line = line_bytes(step[1], ensure_ascii=False)
                with path.open("ab") as fh:
                    fh.write(line[: min(step[2], len(line) - 1)])
            elif kind == "blank":
                with path.open("ab") as fh:
                    fh.write(step[1])
            elif kind == "rewrite":
                rewrite(path, *step[1:])
            elif kind == "edit":
                edit_in_place(path, step[1])
            elif kind == "settle":
                settle(path)
            elif kind == "snapshot":
                damage_snapshot(path, *step[1:], earlier)
            elif kind == "pinned":
                check_pinned_reads(path, (store, narrow), step[1:], earlier)
            expected = observe(merchant_records, path, merchant)
            for reader in (store, narrow, EvidenceStore(path)):
                assert observe(reader.records, merchant) == expected
            assert observe(narrow.load_profile, merchant) == observe(
                EvidenceStore(path).load_profile, merchant)
            assert (observe(records_and_profile, store, merchant)
                    == observe(records_and_profile, EvidenceStore(path), merchant))
            assert observe(fresh_records, path) == observe(reference_records, path)
            if snapshot_of(path).exists() and snapshot_of(path).read_bytes() not in earlier:
                earlier.append(snapshot_of(path).read_bytes())


def check_pinned_reads(path: Path, stores, step, earlier) -> None:
    """Each store's pinned scope is entered as a read of the log is, with
    the same result, error and warnings; inside it, with the snapshot
    damaged and a line appended, every merchant's records and all records
    are those of the log at entry."""
    entry, entry_warnings = observe(reference_records, path)
    scopes = [s.pinned() for s in stores]
    entered = [observe(scope.__enter__) for scope in scopes]
    if not isinstance(entry, list):
        assert entered == [(entry, entry_warnings)] * len(stores)
        return
    assert entered == [(None, entry_warnings)] * len(stores)
    try:
        *damage, record = step
        damage_snapshot(path, *damage, earlier)
        with path.open("ab") as fh:
            fh.write(line_bytes(record) + b"\n")
        for store in stores:
            for merchant in MERCHANTS:
                assert store.records(merchant) == [r for r in entry if r.merchant == merchant]
        assert stores[0].records() == entry
    finally:
        for scope in scopes:
            scope.__exit__(None, None, None)


def reference_records(path: Path) -> list:
    """The log read line by line with ``json.loads`` and ``record_from_dict``.

    The store's rules, spelled out: lines end with ``"\\n"``, blank lines
    are skipped, a bad last non-blank line is a torn write, any other bad
    line raises naming its physical line.  It never reads a snapshot.
    """
    if not path.exists():
        return []
    lines = []
    for raw in path.read_bytes().split(b"\n"):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(None)
    final = max((i for i, line in enumerate(lines) if line is None or line.strip()), default=-1)
    out = []
    for i, line in enumerate(lines):
        if line is not None and not line.strip():
            continue
        try:
            if line is None:
                raise ValueError("not valid UTF-8")
            fields = json.loads(line)
        except ValueError as exc:
            if i == final:
                warnings.warn(f"{path}: skipping torn final line ({exc})", RuntimeWarning)
                break
            raise StorageFailure(f"{path}: corrupt record on line {i + 1}") from exc
        try:
            out.append(record_from_dict(fields))
        except ValueError as exc:
            raise StorageFailure(f"{path}: invalid record on line {i + 1}: {exc}") from exc
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("kind", "c", "x")), inner, max_size=3),
    max_leaves=6,
)

valid_records_st = records_st | st.builds(
    DirectAssessment, st.sampled_from(MERCHANTS), st.just("Privacy"),
    st.floats(0.0, 1.0), st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 9),
)


@st.composite
def good_lines(draw) -> bytes:
    """A valid record (escaped or not) inside JSON whitespace."""
    body = json.dumps(record_to_dict(draw(valid_records_st)),
                      ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans()))
    space = st.text(alphabet=" \t\r", max_size=2)
    return (draw(space) + body + draw(space)).encode("utf-8")


@st.composite
def log_values(draw):
    """A record's fields with one replaced or dropped, or any JSON value."""
    if draw(st.booleans()):
        return draw(json_values)
    fields = record_to_dict(draw(records_st))
    key = draw(st.sampled_from(sorted(fields)))
    if draw(st.booleans()):
        fields[key] = draw(json_values)
    else:
        del fields[key]
    return fields


FRAGMENTS = (
    '{"a": [{"b":1}', '{"x":1}]}', '{"k":1},{"k":2}', "NaN", "-Infinity", "[]", '""',
    '"\\ud800"', '"caf\\u00e9 \\ud83d\\ude00"', "1" * 4301, "{", "not json",
    '{"kind": "evidence", "merchant": "A", "variable": "Delivery",'
    ' "outcome": "positive", "timestamp": 1e3}',
)
OTHER_SPACE = ("\x0b", "\x0c", "\xa0", "\x85", "\u2028", "\u3000")


@st.composite
def odd_lines(draw) -> bytes:
    """A line that ``json.loads`` or ``record_from_dict`` may reject, or blank."""
    good = draw(good_lines()).decode("utf-8")
    kind = draw(st.sampled_from(
        ("value", "fragment", "space", "bom", "extra", "blank", "cut", "byte")))
    if kind == "value":
        return json.dumps(draw(log_values()), ensure_ascii=draw(st.booleans())).encode("utf-8")
    if kind == "fragment":
        return draw(st.sampled_from(FRAGMENTS)).encode("utf-8")
    if kind == "space":
        space = draw(st.sampled_from(OTHER_SPACE))
        return (space + good if draw(st.booleans()) else good + space).encode("utf-8")
    if kind == "bom":
        return ("\ufeff" + good).encode("utf-8")
    if kind == "extra":
        return (good + draw(st.sampled_from((" {}", ",", "x", "1", "\x00")))).encode("utf-8")
    if kind == "blank":
        return "".join(draw(st.lists(st.sampled_from((" ", "\t", "\r") + OTHER_SPACE),
                                     max_size=3))).encode("utf-8")
    line = good.replace("A", "é").encode("utf-8")
    at = draw(st.integers(0, len(line) - 1))
    return line[:at] if kind == "cut" else line[:at] + b"\xff" + line[at:]


@settings(max_examples=300, deadline=None)
@given(st.lists(good_lines(), max_size=8),
       st.lists(st.tuples(st.integers(0, 8), odd_lines()), max_size=2),
       st.booleans())
def test_records_match_a_per_line_json_loads_reader(lines, odd, newline_at_end):
    for position, line in odd:
        lines.insert(position, line)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if newline_at_end and lines else b""))
        assert observe(EvidenceStore(path).records) == observe(reference_records, path)


INT64 = (-(2**63), 2**63 - 1)
snapshot_names = st.text(st.characters(categories=["L", "N", "P", "Zs", "Zl", "Cc", "Cs"]),
                         min_size=1, max_size=4).filter(str.strip)


def snapshot_records(stamps):
    return st.lists(st.one_of(
        st.builds(EvidenceRecord, snapshot_names, snapshot_names,
                  st.sampled_from(("positive", "negative")), stamps),
        st.builds(DirectAssessment, snapshot_names, snapshot_names,
                  st.sampled_from((0, 1, -0.0)) | st.floats(0.0, 1.0),
                  st.sampled_from((0, 7, -0.0, 1e308))
                  | st.floats(min_value=0.0, allow_infinity=False),
                  stamps),
    ), min_size=1, max_size=12)


def no_decoding():
    """A context in which the store fails if it decodes a log line."""
    return mock.patch.object(store_module, "decode_line", side_effect=AssertionError("decoded"))


def typed(records: list) -> list:
    """The records with the type of every field, which tells 1 from 1.0."""
    return [(r, [type(getattr(r, f.name)) for f in fields(r)]) for r in records]


@pytest.mark.parametrize("whole_as_int", [False, True])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_snapshot_hit_reads_what_the_log_holds(whole_as_int, data):
    """Names with any characters, lone surrogates included; timestamps
    anywhere in int64, its endpoints included; ``-0.0`` and ``1e308``; and,
    when ``whole_as_int``, each whole ``c`` and ``t_scaled`` logged as a
    JSON int, which every reader reads as a float: a hit, a miss and a plain
    reader agree exactly."""
    records = data.draw(snapshot_records(st.sampled_from(INT64) | st.integers(*INT64)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        with path.open("wb") as fh:
            for fields in map(record_to_dict, records):
                for name in ("c", "t_scaled"):
                    if whole_as_int and name in fields and fields[name].is_integer():
                        fields[name] = int(fields[name])
                fh.write(json.dumps(fields).encode("ascii") + b"\n")
        miss = EvidenceStore(path).records()
        table = json.loads(snapshot_of(path).read_bytes().split(b"\n")[1])
        assert list(table) == ["merchant", "variable", "assessments"]
        with no_decoding():
            hit = EvidenceStore(path).records()
        expected = reference_records(path)
        assert typed(hit) == typed(miss) == typed(expected)
        assert repr(hit) == repr(miss) == repr(expected)  # tells -0.0 from 0.0
        assert all(type(r.c) is type(r.t_scaled) is float
                   for r in hit if isinstance(r, DirectAssessment))
        reader = EvidenceStore(path)
        for merchant in {r.merchant for r in records}:
            mine = [r for r in expected if r.merchant == merchant]
            with no_decoding():
                assert repr(typed(reader.records(merchant))) == repr(typed(mine))


checked_names = st.sampled_from(("", " ", "\u3000", "\x85\u2028", None, 7)) | snapshot_names
checked_numbers = st.sampled_from(
    (math.nan, math.inf, -math.inf, -0.0, 1e30, -1e30, 2.0**53 + 2, 1e308)
) | st.integers(-2, 2).map(float) | st.floats(-2.0, 7.0)


@settings(max_examples=300, deadline=None)
@given(checked_names, checked_names, checked_numbers, checked_numbers,
       st.sampled_from(INT64) | st.integers(*INT64), st.booleans())
def test_a_forged_snapshot_is_taken_exactly_when_the_constructor_accepts_it(
        merchant, variable, c, t_scaled, timestamp, assessed):
    """A one-record snapshot with a valid digest is taken when the record
    constructor accepts its values, and otherwise ignored for the log.  Its
    timestamp column holds any int64, all of which the constructor takes,
    and its ``c`` and ``t_scaled`` columns any float64."""
    try:
        if assessed:
            record = DirectAssessment(merchant, variable, c, t_scaled, timestamp)
        else:
            record = EvidenceRecord(merchant, variable, "positive", timestamp)
    except ValueError:
        record = None
    table = {"merchant": [merchant], "variable": [variable], "assessments": int(assessed)}
    columns = {"timestamp": [timestamp], "merchant": [0], "variable": [0],
               "kind": b"a" if assessed else b"+",
               "c": [c] if assessed else [], "t_scaled": [t_scaled] if assessed else []}
    logged = EvidenceRecord("log", "Delivery", "negative", 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_lines(path, [logged])
        forge_snapshot(path, table, pack(columns))
        with mock.patch.object(store_module, "decode_line",
                               wraps=store_module.decode_line) as decode:
            got = EvidenceStore(path).records()
    if record is None:
        assert (got, decode.call_count) == ([logged], 1)
    else:
        assert (repr(got), decode.call_count) == (repr([record]), 0)


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


#: each endpoint of ``c`` and ``t_scaled`` and the floats either side of it
AT_THE_ENDPOINTS = [x for end in (0.0, 1.0, sys.float_info.max)
                    for x in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))]
endpoint_numbers = (st.sampled_from(AT_THE_ENDPOINTS + [-0.0, math.nan]).flatmap(
    lambda x: st.sampled_from((x, np.float64(x))))
    | st.sampled_from((0, 1, -1, 2, True, np.int64(3), 10**400)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("A", " ", "", "\u3000", Name("B"), 7, None)),
       st.sampled_from(("Delivery", "\x85", Name("Privacy"), b"Portal")),
       st.sampled_from((POSITIVE, NEGATIVE, "neutral", None)),
       endpoint_numbers, endpoint_numbers,
       st.sampled_from((0, -1, 2**70, 2**63, True, 1.0, np.int64(3), None)))
def test_the_constructors_accept_exactly_what_the_checks_accept(merchant, variable, outcome, c,
                                                                 t_scaled, timestamp):
    """Each record constructor accepts exactly the values that
    ``_check_common`` and ``_check_number`` accept, calls ``_check_common``
    on every construction, holds the timestamp as an ``int`` (``np.int64(3)``
    included) and ``c`` and ``t_scaled`` as floats."""
    common = accepts(store_module._check_common, merchant, variable, timestamp)
    assessed = (common and accepts(store_module._check_number, "c", c, 1.0, "in [0, 1]")
                and accepts(store_module._check_number, "t_scaled", t_scaled, math.inf,
                            "non-negative and finite"))
    for cls, args, valid in (
        (EvidenceRecord, (merchant, variable, outcome, timestamp),
         common and outcome in (POSITIVE, NEGATIVE)),
        (DirectAssessment, (merchant, variable, c, t_scaled, timestamp), assessed),
    ):
        with mock.patch.object(store_module, "_check_common",
                               wraps=store_module._check_common) as explained:
            assert accepts(cls, *args) == valid
        assert explained.call_count == 1
        if valid:
            held = cls(*args).timestamp
            assert type(held) is int and held == timestamp
    if assessed:
        record = DirectAssessment(merchant, variable, c, t_scaled, timestamp)
        assert (type(record.c), type(record.t_scaled)) == (float, float)
        assert (record.c, record.t_scaled) == (float(c), float(t_scaled))


def profiles(path: Path) -> list:
    """Every merchant's profile from a new store object."""
    store = EvidenceStore(path)
    return [store.load_profile(merchant) for merchant in MERCHANTS]


@settings(max_examples=100, deadline=None)
@given(st.lists(records_st, max_size=15), st.data())
def test_permuting_evidence_lines_leaves_profiles_unchanged(records, data):
    """Evidence lines in any order, with the assessment lines in theirs,
    give the same profiles, read from the log and from its snapshot."""
    order = data.draw(st.permutations(range(len(records))))
    assessments = iter([r for r in records if isinstance(r, DirectAssessment)])
    permuted = [next(assessments) if isinstance(records[i], DirectAssessment) else records[i]
                for i in order]
    seen = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in (("log.jsonl", records), ("permuted.jsonl", permuted)):
            path = Path(tmp) / name
            write_lines(path, lines)
            seen.append(profiles(path))  # a miss, which writes the snapshot
            assert snapshot_of(path).exists() == bool(lines)
            with no_decoding():
                seen.append(profiles(path))  # a hit
    assert seen[1:] == seen[:1] * 3
