"""Evidence store tests: round trips, torn lines, latest-wins, counting,
and the reuse of an unchanged prefix against a fresh store."""

import json
import tempfile
import warnings
from pathlib import Path

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

    def test_timestamp_must_be_integer(self):
        with pytest.raises(ValueError):
            EvidenceRecord("A", "Delivery", "positive", 1.5)

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

    def test_permissive_store_accepts_unknown(self, tmp_path):
        store = EvidenceStore(tmp_path / "log.jsonl", permissive=True)
        store.append(EvidenceRecord("A", "Bespoke Signal", "positive", 0))
        assert store.counts("A", "Bespoke Signal") == EvidenceCount(1, 0)

    def test_variable_normalization(self, store):
        got = store.append(EvidenceRecord("A", "physical_existence", "positive", 0))
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
    st.tuples(st.just("append"), records_st),
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


def observe(store: EvidenceStore, merchant: str):
    """What a read shows: the records and one profile, or the error; plus the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seen = (store.records(), store.load_profile(merchant))
        except Exception as exc:  # compared, not handled
            seen = (type(exc), str(exc))
    return seen, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(st.lists(steps_st, max_size=25), st.sampled_from(MERCHANTS))
def test_long_lived_store_reads_like_a_fresh_one(steps, merchant):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        store = EvidenceStore(path)
        for step in steps:
            kind = step[0]
            if kind == "append":
                store.append(step[1])
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
            assert observe(store, merchant) == observe(EvidenceStore(path), merchant)
