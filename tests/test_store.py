"""Evidence store tests: round trips, torn lines, latest-wins, counting,
the reuse of an unchanged prefix against a fresh store, and the on-disk
snapshot of that prefix."""

import hashlib
import json
import math
import os
import struct
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certaintrust import (
    CANONICAL_VARIABLES,
    EvidenceCount,
    StorageFailure,
    UnknownVariable,
)
from certaintrust import store as store_module
from certaintrust.store import (
    DirectAssessment,
    EvidenceRecord,
    EvidenceStore,
    record_from_dict,
    record_to_dict,
)


@pytest.fixture
def store(tmp_path):
    return EvidenceStore(tmp_path / "log.jsonl")


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
        record = DirectAssessment("A", "Delivery", np.float64(0.5), np.float32(3.0), 0)
        assert (record.c, record.t_scaled) == (0.5, 3.0)

    def test_timestamp_must_be_integer(self):
        with pytest.raises(ValueError):
            EvidenceRecord("A", "Delivery", "positive", 1.5)

    @pytest.mark.parametrize("bad", ["", " \u3000", None, b"A", 7])
    @pytest.mark.parametrize("field", ["merchant", "variable"])
    def test_names_must_be_non_blank_strings(self, field, bad):
        class Name(str):
            pass

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

    def test_unknown_variable_rejected_before_writing(self, store):
        with pytest.raises(UnknownVariable):
            store.append(EvidenceRecord("A", "Bogus", "positive", 0))
        assert not store.path.exists()

    def test_batch_with_unknown_variable_writes_nothing(self, store):
        add_evidence(store, "A", "Delivery", positive=1)
        before = store.path.read_bytes()
        with pytest.raises(UnknownVariable):
            store.append(EvidenceRecord("A", "Portal", "positive", 0),
                         EvidenceRecord("A", "Bogus", "positive", 0))
        assert store.path.read_bytes() == before

    def test_empty_batch_creates_no_file(self, store):
        assert store.append() == ()
        assert not store.path.exists()

    def test_permissive_store_accepts_unknown(self, tmp_path):
        store = EvidenceStore(tmp_path / "log.jsonl", permissive=True)
        store.append(EvidenceRecord("A", "Bespoke Signal", "positive", 0))
        assert store.counts("A", "Bespoke Signal") == EvidenceCount(1, 0)

    def test_variable_normalization(self, store):
        (got,) = store.append(EvidenceRecord("A", "physical_existence", "positive", 0))
        assert got.variable == "Physical Existence"
        assert store.counts("A", "PHYSICAL EXISTENCE") == EvidenceCount(1, 0)


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
        add_evidence(store, "A", "Delivery", positive=1)
        add_evidence(store, "A", "Delivery", positive=1)
        with pytest.raises(StorageFailure, match="line 2"):
            store.records()

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


class TestLoadProfile:
    def test_empty_store_gives_twelve_zero_counts(self, store):
        profile = store.load_profile("A")
        assert set(profile.counts) == set(CANONICAL_VARIABLES)
        assert all(c == EvidenceCount(0, 0) for c in profile.counts.values())
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
            assert profile.counts[name] == store.counts("A", name)

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
    """Snapshot columns as format 2 lays them out: the timestamps as
    ``<i8`` (unless null), merchant and variable ids as ``<u4``, then the
    kind bytes."""
    stamps, mids, vids = columns["timestamp"], columns["merchant"], columns["variable"]
    return (b"" if stamps is None else struct.pack(f"<{len(stamps)}q", *stamps)) + struct.pack(
        f"<{len(mids)}I", *mids) + struct.pack(f"<{len(vids)}I", *vids) + columns["kind"]


def forge_snapshot(path: Path, table, blob: bytes, length: int | None = None) -> None:
    """A snapshot of the log's first ``length`` bytes (all by default)
    holding ``table`` and ``blob``, with a valid digest."""
    prefix = path.read_bytes()[:length]
    payload = json.dumps(table).encode("ascii") + b"\n" + blob
    header = {"digest": hashlib.sha256(prefix + payload).hexdigest(),
              "length": len(prefix), "version": 2}
    snapshot_of(path).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


SAMPLE = [
    EvidenceRecord("A", "Delivery", "positive", 1),
    DirectAssessment("B", "Privacy", 0.5, 2.5, 2),
    EvidenceRecord("A", "Portal", "negative", 3),
]
#: SAMPLE's snapshot in format 2: its table line and its columns
SAMPLE_TABLE = {"merchant": ["A", "B"], "variable": ["Delivery", "Privacy", "Portal"],
                "c": [0.5], "t_scaled": [2.5], "timestamp": None}
SAMPLE_COLUMNS = {"timestamp": [1, 2, 3], "merchant": [0, 1, 0], "variable": [0, 1, 2],
                  "kind": b"+a-"}
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
#: the sha256 of the snapshot written for SAMPLE.  A change of the layout
#: must bump ``store.SNAPSHOT_VERSION``, so that old snapshots are ignored;
#: then update this pin.
SAMPLE_SNAPSHOT_SHA256 = "db4bba0269b86ca021be2db56d4cbca3703900ea44c75d0f0deec2e862e49664"


def sample_payload(table: dict | None = None, columns: dict | None = None) -> tuple:
    """SAMPLE's snapshot table and blob with the entries of ``table`` and
    ``columns`` replaced.  A ``timestamp`` entry in ``table`` takes the
    timestamps out of the columns, as a snapshot does whose timestamps do
    not all fit int64."""
    table, columns = {**SAMPLE_TABLE, **(table or {})}, {**SAMPLE_COLUMNS, **(columns or {})}
    if table["timestamp"] is not None:
        columns["timestamp"] = None
    return table, pack(columns)


class TestSnapshot:
    def test_a_cold_read_writes_it_and_the_next_one_takes_it(self, store, decoded):
        write_lines(store.path, SAMPLE)
        assert store.records() == SAMPLE
        assert len(decoded) == 3
        assert snapshot_of(store.path).read_bytes().isascii()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    def test_values_and_types_survive_the_round_trip(self, store, decoded):
        records = [
            EvidenceRecord("\ud800 lone", "Delivery", "positive", 10**30),
            DirectAssessment("A", "Privacy", 1, float("inf"), -(10**25)),
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
        for table in (None, {"timestamp": [1, 2, 3]}):  # timestamps in the columns, in the table
            forge_snapshot(store.path, *sample_payload(table))
            assert EvidenceStore(store.path).records() == SAMPLE
            assert EvidenceStore(store.path).records("A") == SAMPLE[::2]
            assert decoded == []

    def test_a_length_inside_a_line_falls_back_to_the_log(self, store, decoded):
        write_lines(store.path, SAMPLE)
        first = store.path.read_bytes().index(b"\n") + 1
        table = {"merchant": ["A"], "variable": ["Delivery"], "c": [], "t_scaled": [],
                 "timestamp": None}
        forge_snapshot(store.path, table, pack(
            {"timestamp": [1], "merchant": [0], "variable": [0], "kind": b"+"}), length=first + 1)
        assert EvidenceStore(store.path).records() == SAMPLE
        assert len(decoded) == 3

    # the cases of format 1 keep their ids
    @pytest.mark.parametrize("table, columns", [
        pytest.param({"merchant": ["A", " "]}, None, id="merchant-value0"),
        pytest.param({"merchant": ["A", 7]}, None, id="merchant-value1"),
        pytest.param({"variable": [None, "Privacy", "Portal"]}, None, id="variable-value2"),
        pytest.param({"timestamp": [True, 2, 3]}, None, id="timestamp-value3"),
        pytest.param({"timestamp": [1, 2, 3.0]}, None, id="timestamp-value4"),
        pytest.param(None, {"kind": b"+ax"}, id="kind-+ax"),
        pytest.param(None, {"kind": b"+--"}, id="kind-+--"),  # one assessment too few
        pytest.param({"c": [1.5]}, None, id="c-value7"),
        pytest.param({"c": [True]}, None, id="c-value8"),
        pytest.param({"t_scaled": [-1]}, None, id="t_scaled-value9"),
        pytest.param({"t_scaled": ["2.5"]}, None, id="t_scaled-value10"),
        pytest.param(None, {"merchant": [0, 1]}, id="merchant-value11"),  # a short column
        pytest.param({"c": []}, None, id="c-value12"),
        pytest.param({"merchant": {"A": 0, "B": 1}}, None, id="merchant-value13"),
        pytest.param({"merchant": ["A", ["B"]]}, None, id="merchant-unhashable"),
        pytest.param({"merchant": ["A", "B", "A"]}, None, id="merchant-twice"),
        pytest.param(None, {"kind": b"+a\x00"}, id="kind-zero-byte"),
        pytest.param(None, {"merchant": [0, 2, 0]}, id="merchant-id-out-of-range"),
        pytest.param(None, {"merchant": [0, 1, 2**32 - 1]}, id="merchant-id-max"),
        pytest.param(None, {"variable": [0, 1, 3]}, id="variable-id-out-of-range"),
        pytest.param({"variable": "Delivery"}, None, id="variable-not-a-list"),
        pytest.param({"c": {"0": 0.5}}, None, id="c-not-a-list"),
        pytest.param({"timestamp": 7}, None, id="timestamp-not-a-list"),
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
        elif damage in ("short list", "long list"):
            table, blob = sample_payload(
                {"timestamp": [1, 2] if damage == "short list" else [1, 2, 3, 4]})
        elif damage == "both":  # the timestamps in the table and in the blob
            table = {**table, "timestamp": [1, 2, 3]}
        elif damage == "not an object":
            table = list(table.values())
        else:
            del table["timestamp"]
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

    def test_a_second_full_read_builds_nothing(self, store, built):
        write_lines(store.path, SAMPLE)
        store.records()
        reader = EvidenceStore(store.path)
        reader.load_profile("A")
        built.clear()
        assert reader.records() == SAMPLE
        assert len(built) == 3
        built.clear()
        assert reader.records() == SAMPLE
        assert reader.records("B") == SAMPLE[1:2]
        assert reader.load_profile("A").counts["Portal"] == EvidenceCount(0, 1)
        assert built == []

    @pytest.mark.parametrize("table, columns", [
        pytest.param({"c": [1.5]}, None, id="c-value0"),
        pytest.param({"t_scaled": [float("nan")]}, None, id="t_scaled-value1"),
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

    @pytest.mark.parametrize("damage", ["version", "length", "digest", "header", "empty", "record"])
    def test_a_damaged_header_falls_back_to_the_log(self, store, decoded, damage):
        write_lines(store.path, SAMPLE)
        store.records()
        head, _, payload = snapshot_of(store.path).read_bytes().partition(b"\n")
        header = json.loads(head)
        if damage == "version":
            header["version"] = 3
        elif damage == "length":
            header["length"] -= 1
        elif damage == "digest":
            header["digest"] = header["digest"][::-1]
        changed = json.dumps(header).encode("ascii") + b"\n" + payload
        if damage == "header":
            changed = b"[]\n" + payload
        elif damage == "empty":
            changed = b""
        elif damage == "record":  # the third timestamp, still a valid one
            at = changed.index(b"\n", changed.index(b"\n") + 1) + 1 + 16
            assert changed[at:at + 8] == (3).to_bytes(8, "little")
            changed = changed[:at] + b"\x04" + changed[at + 1:]
        snapshot_of(store.path).write_bytes(changed)
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
        assert json.loads(head)["version"] == 2
        decoded.clear()
        assert EvidenceStore(store.path).records() == SAMPLE
        assert decoded == []

    def test_the_layout_is_pinned(self, store):
        write_lines(store.path, SAMPLE)
        store.records()
        written = snapshot_of(store.path).read_bytes()
        assert written.partition(b"\n")[2] == (
            json.dumps(SAMPLE_TABLE, separators=(",", ":")).encode("ascii") + b"\n"
            + pack(SAMPLE_COLUMNS))
        assert hashlib.sha256(written).hexdigest() == SAMPLE_SNAPSHOT_SHA256

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


def snapshot_of(path: Path) -> Path:
    return path.with_name(path.name + ".snapshot")


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
def test_long_lived_store_reads_like_a_fresh_one(steps, merchant):
    """A long-lived store, a new one (which may take the snapshot or write
    it) and a reader that never sees a snapshot agree after every step, on
    all records and on one merchant's; a second long-lived store reads
    only that merchant's, so it may keep snapshot columns across steps."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        store = EvidenceStore(path)
        narrow = EvidenceStore(path)  # reads only the merchant's records
        earlier = []  # every snapshot content seen so far
        for step in steps:
            kind = step[0]
            if kind == "append":
                store.append(*step[1])
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
            elif kind == "snapshot":
                damage_snapshot(path, *step[1:], earlier)
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
    st.floats(0.0, 1.0), st.floats(min_value=0.0), st.integers(0, 9),
)


@st.composite
def good_lines(draw) -> bytes:
    """A valid record (escaped or not, maybe ``Infinity``) inside JSON whitespace."""
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
                  st.sampled_from((0, 7, -0.0, float("inf"))) | st.floats(min_value=0.0),
                  stamps),
    ), min_size=1, max_size=12)


def no_decoding():
    """A context in which the store fails if it decodes a log line."""
    return mock.patch.object(store_module, "decode_line", side_effect=AssertionError("decoded"))


def typed(records: list) -> list:
    """The records with the type of every field, which tells 1 from 1.0."""
    return [(r, [type(getattr(r, f.name)) for f in fields(r)]) for r in records]


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_snapshot_hit_reads_what_the_log_holds(wide, data):
    """Names with any characters, lone surrogates included; timestamps that
    fit int64 (kept as binary) or not (kept in the table); int ``c``,
    ``-0.0`` and ``inf``: a hit, a miss and a plain reader agree exactly."""
    records = data.draw(snapshot_records(st.integers(*INT64)))
    if wide:
        records += data.draw(snapshot_records(
            st.integers(max_value=INT64[0] - 1) | st.integers(min_value=INT64[1] + 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_lines(path, records)
        miss = EvidenceStore(path).records()
        table = json.loads(snapshot_of(path).read_bytes().split(b"\n")[1])
        assert (table["timestamp"] is None) is not wide
        with no_decoding():
            hit = EvidenceStore(path).records()
        expected = reference_records(path)
        assert typed(hit) == typed(miss) == typed(expected)
        assert repr(hit) == repr(miss) == repr(expected)  # tells -0.0 from 0.0
        reader = EvidenceStore(path)
        for merchant in {r.merchant for r in records}:
            mine = [r for r in expected if r.merchant == merchant]
            with no_decoding():
                assert repr(typed(reader.records(merchant))) == repr(typed(mine))


checked_names = st.sampled_from(("", " ", "\u3000", "\x85\u2028", None, 7)) | snapshot_names
checked_numbers = st.sampled_from(
    (True, False, math.nan, math.inf, -math.inf, -0.0, None, "0.5", [0.5])
) | st.integers(-2, 2) | st.sampled_from((10**30, -(10**30))) | st.floats(-2.0, 7.0)
checked_stamps = (st.integers(*INT64) | st.integers(max_value=INT64[0] - 1)
                  | st.integers(min_value=INT64[1] + 1) | st.sampled_from((True, 1.5, None)))


@settings(max_examples=300, deadline=None)
@given(checked_names, checked_names, checked_numbers, checked_numbers, checked_stamps,
       st.booleans())
def test_a_forged_snapshot_is_taken_exactly_when_the_constructor_accepts_it(
        merchant, variable, c, t_scaled, timestamp, assessed):
    """A one-record snapshot with a valid digest is taken when the record
    constructor accepts its values, and otherwise ignored for the log."""
    try:
        if assessed:
            record = DirectAssessment(merchant, variable, c, t_scaled, timestamp)
        else:
            record = EvidenceRecord(merchant, variable, "positive", timestamp)
    except ValueError:
        record = None
    binary = type(timestamp) is int and INT64[0] <= timestamp <= INT64[1]
    table = {"merchant": [merchant], "variable": [variable],
             "c": [c] if assessed else [], "t_scaled": [t_scaled] if assessed else [],
             "timestamp": None if binary else [timestamp]}
    columns = {"timestamp": [timestamp] if binary else None, "merchant": [0], "variable": [0],
               "kind": b"a" if assessed else b"+"}
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
