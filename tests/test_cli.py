"""Command-line tests, driven through cli.main with captured output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from certaintrust import EvidenceCount, PipelineConfig, evaluate_merchant
from certaintrust import cli as cli_module
from certaintrust import store as store_module
from certaintrust.cli import build_parser, main
from certaintrust.store import (
    NEGATIVE,
    POSITIVE,
    DirectAssessment,
    EvidenceRecord,
    EvidenceStore,
)
from certaintrust.variables import DEFAULT_WIRING

import goldens


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.jsonl")


def seed_merchant(path, merchant, data, ts=100):
    store = EvidenceStore(path)
    for variable, (c, t_scaled) in data.items():
        store.append(DirectAssessment(merchant, variable, c, t_scaled, ts))


@pytest.fixture
def seeded(store_path):
    seed_merchant(store_path, "A", goldens.MERCHANT_A)
    seed_merchant(store_path, "B", goldens.MERCHANT_B)
    return store_path


@pytest.fixture
def shop_age_config(tmp_path):
    """The default wiring with ``Shop Age`` in place of ``Mandatory Registration``."""
    modules = [{"name": name, "variables": [
        "Shop Age" if v == "Mandatory Registration" else v for v in DEFAULT_WIRING[name]]}
        for name in DEFAULT_WIRING]
    path = tmp_path / "shop_age.json"
    path.write_text(json.dumps({"modules": modules}), encoding="utf-8")
    return str(path)


class TestIngest:
    def test_positive_and_negative_counts(self, store_path, capsys):
        code = main([
            "ingest", "--store", store_path, "--merchant", "A",
            "--variable", "Delivery", "--positive", "5", "--negative", "2",
            "--timestamp", "100",
        ])
        assert code == 0
        assert "Appended 7 record(s)" in capsys.readouterr().out
        store = EvidenceStore(store_path)
        counts = store.counts("A", "Delivery")
        assert (counts.r, counts.s) == (5, 2)

    def test_assessment(self, store_path, capsys):
        code = main([
            "ingest", "--store", store_path, "--merchant", "A",
            "--variable", "Physical Existence", "--assessment", "0.6,3.5",
            "--timestamp", "100",
        ])
        assert code == 0
        assert "Appended 1 record(s)" in capsys.readouterr().out
        profile = EvidenceStore(store_path).load_profile("A")
        assert profile.assessments["Physical Existence"].t_scaled == 3.5

    def test_unknown_variable_is_domain_error(self, store_path, capsys):
        code = main([
            "ingest", "--store", store_path, "--merchant", "A",
            "--variable", "Bogus", "--positive", "1",
        ])
        assert code == 1
        assert "UnknownVariable" in capsys.readouterr().err

    def test_allow_unknown_flag(self, store_path):
        code = main([
            "ingest", "--store", store_path, "--merchant", "A",
            "--variable", "Bogus", "--positive", "1", "--allow-unknown",
        ])
        assert code == 0

    def test_from_file(self, store_path, tmp_path, capsys):
        src = tmp_path / "batch.jsonl"
        lines = [
            {"kind": "evidence", "merchant": "A", "variable": "Delivery",
             "outcome": "positive", "timestamp": 5},
            {"kind": "assessment", "merchant": "A", "variable": "Privacy",
             "c": 0.7, "t_scaled": 4.5, "timestamp": 6},
        ]
        src.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        code = main(["ingest", "--store", store_path, "--from-file", str(src)])
        assert code == 0
        assert "Appended 2 record(s)" in capsys.readouterr().out

    def test_from_file_logs_an_int_c_as_a_float(self, store_path, tmp_path, capsys):
        src = tmp_path / "batch.jsonl"
        src.write_text(json.dumps({"kind": "assessment", "merchant": "A", "variable": "Privacy",
                                   "c": 1, "t_scaled": 4, "timestamp": 6}), encoding="utf-8")
        assert main(["ingest", "--store", store_path, "--from-file", str(src)]) == 0
        logged = json.loads(Path(store_path).read_text(encoding="utf-8"))
        assert (logged["c"], logged["t_scaled"]) == (1.0, 4.0)
        assert type(logged["c"]) is type(logged["t_scaled"]) is float

    @pytest.mark.parametrize("timestamp", ["9223372036854775808", "-9223372036854775809"])
    def test_a_timestamp_outside_int64_is_domain_error(self, store_path, capsys, timestamp):
        code, out, err = captured_main(capsys, [
            "ingest", "--store", store_path, "--merchant", "A", "--variable", "Delivery",
            "--positive", "1", "--timestamp", timestamp])
        assert (code, out) == (1, "")
        assert err == ("error: ValueError: timestamp must fit int64, [-2**63, 2**63), "
                       f"got {timestamp}\n")
        assert not Path(store_path).exists()

    @pytest.mark.parametrize("name", ["Z\u0085", "Z\u2028", "Z\u2029"])
    def test_unicode_line_separator_in_merchant(self, seeded, tmp_path, capsys, name):
        batch = tmp_path / "batch.jsonl"
        batch.write_text("".join(
            json.dumps({"kind": "assessment", "merchant": name, "variable": variable,
                        "c": c, "t_scaled": t_scaled, "timestamp": 1},
                       ensure_ascii=False) + "\n"
            for variable, (c, t_scaled) in goldens.MERCHANT_A.items()
        ), encoding="utf-8")
        assert main(["ingest", "--store", seeded, "--from-file", str(batch)]) == 0
        assert main(["ingest", "--store", seeded, "--merchant", name,
                     "--variable", "Delivery", "--positive", "1"]) == 0
        capsys.readouterr()
        code = main(["compare", "--store", seeded, "--merchant", name,
                     "--merchant", "A", "--format", "json"])
        assert code == 0
        ranked = json.loads(capsys.readouterr().out)
        assert {r["merchant"] for r in ranked} == {name, "A"}
        assert ranked[0]["merchant_trust"] == ranked[1]["merchant_trust"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_rejected_batch_writes_nothing(self, seeded, tmp_path, capsys, existing):
        store_path = seeded if existing else str(tmp_path / "absent.jsonl")
        before = Path(seeded).read_bytes()
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(
            json.dumps({"kind": "evidence", "merchant": "A", "variable": variable,
                        "outcome": "positive", "timestamp": 5}) + "\n"
            for variable in ("Delivery", "Privacy", "Bogus", "Portal")
        ), encoding="utf-8")
        code = main(["ingest", "--store", store_path, "--from-file", str(src)])
        assert code == 1
        assert "UnknownVariable" in capsys.readouterr().err
        if existing:
            assert Path(store_path).read_bytes() == before
        else:
            assert not Path(store_path).exists()

    @pytest.mark.parametrize("field", ["c", "t_scaled"])
    def test_bool_assessment_rejects_batch(self, seeded, tmp_path, capsys, field):
        before = Path(seeded).read_bytes()
        lines = [
            {"kind": "assessment", "merchant": "A", "variable": variable,
             "c": 0.5, "t_scaled": 3.0, "timestamp": 5}
            for variable in ("Delivery", "Privacy")
        ]
        lines[1][field] = True
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        code = main(["ingest", "--store", seeded, "--from-file", str(src)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{src}:2:" in err and "not bool" in err
        assert Path(seeded).read_bytes() == before

    def test_a_batch_line_that_is_not_utf8_names_its_line(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        good = json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                           "outcome": "positive", "timestamp": 5}).encode()
        src = tmp_path / "batch.jsonl"
        src.write_bytes(good + b"\n" + good.replace(b'"A"', b'"A\xff"') + b"\n" + good + b"\n")
        assert main(["ingest", "--store", seeded, "--from-file", str(src)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: ValueError: {src}:2: not valid UTF-8\n"
        assert Path(seeded).read_bytes() == before

    def test_a_crlf_batch_ingests(self, store_path, tmp_path, capsys):
        lines = [{"kind": "evidence", "merchant": "A", "variable": "Delivery",
                  "outcome": outcome, "timestamp": 5} for outcome in (POSITIVE, NEGATIVE)]
        src = tmp_path / "batch.jsonl"
        src.write_bytes(b"".join(json.dumps(x).encode() + b"\r\n" for x in lines) + b"\r\n")
        assert main(["ingest", "--store", store_path, "--from-file", str(src)]) == 0
        assert "Appended 2 record(s)" in capsys.readouterr().out
        assert EvidenceStore(store_path).counts("A", "Delivery") == EvidenceCount(1, 1)

    def test_records_joined_by_a_lone_cr_are_one_bad_line_as_in_the_log(self, store_path,
                                                                        tmp_path, capsys):
        line = json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                           "outcome": "positive", "timestamp": 5}).encode()
        data = line + b"\r" + line + b"\n" + line + b"\n"
        src = tmp_path / "batch.jsonl"
        src.write_bytes(data)
        assert main(["ingest", "--store", store_path, "--from-file", str(src)]) == 1
        assert f"error: ValueError: {src}:1: Extra data" in capsys.readouterr().err
        assert not Path(store_path).exists()
        Path(store_path).write_bytes(data)
        with pytest.raises(store_module.StorageFailure, match="corrupt record on line 1$"):
            EvidenceStore(store_path).records()

    def test_flags_over_the_evidence_cap_reject_batch(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"N": 7}), encoding="utf-8")
        flags = ["ingest", "--store", seeded, "--config", str(narrow),
                 "--merchant", "A", "--variable", "Delivery", "--positive", "5"]
        assert main([*flags, "--negative", "3"]) == 1
        err = capsys.readouterr().err
        assert ("EvidenceExceedsCap: merchant 'A', variable Delivery: "
                "r+s = 8 exceeds evidence cap N = 7") in err
        assert Path(seeded).read_bytes() == before
        assert main([*flags, "--negative", "2"]) == 0

    def test_file_over_the_evidence_cap_rejects_batch(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        src = tmp_path / "batch.jsonl"
        line = json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                           "outcome": "positive", "timestamp": 5})
        src.write_text(f"{line}\n" * 101, encoding="utf-8")
        code = main(["ingest", "--store", seeded, "--from-file", str(src)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: EvidenceExceedsCap: merchant 'A', variable Delivery: "
                       "r+s = 101 exceeds evidence cap N = 100\n")
        assert Path(seeded).read_bytes() == before
        assert main(["evaluate", "--store", seeded, "--merchant", "A"]) == 0

    def test_file_cap_tallies_each_pair_under_its_canonical_name(self, seeded, tmp_path,
                                                                 capsys):
        before = Path(seeded).read_bytes()
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"N": 7}), encoding="utf-8")
        src = tmp_path / "batch.jsonl"

        def ingest(lines) -> int:
            src.write_text("".join(
                json.dumps({"kind": "evidence", "merchant": merchant, "variable": variable,
                            "outcome": outcome, "timestamp": 5}) + "\n"
                for merchant, variable, outcome in lines
            ), encoding="utf-8")
            return main(["ingest", "--store", seeded, "--config", str(narrow),
                         "--from-file", str(src)])

        split = [("A", "delivery", "positive")] * 4 + [("A", "Delivery", "negative")] * 4
        assert ingest(split) == 1
        assert ("EvidenceExceedsCap: merchant 'A', variable Delivery: "
                "r+s = 8 exceeds evidence cap N = 7") in capsys.readouterr().err
        assert Path(seeded).read_bytes() == before
        assert ingest(split[1:] + [("B", "Delivery", "positive")] * 7) == 0
        store = EvidenceStore(seeded)
        assert store.counts("A", "Delivery") == EvidenceCount(3, 4)
        assert store.counts("B", "Delivery") == EvidenceCount(7, 0)

    def test_config_variable_is_accepted_by_name(self, store_path, shop_age_config, capsys):
        ingest = ["ingest", "--store", store_path, "--config", shop_age_config, "--merchant", "A"]
        assert main([*ingest, "--variable", "Shop Age", "--positive", "3"]) == 0
        assert main([*ingest, "--variable", "mandatory registration", "--positive", "1"]) == 0
        assert main([*ingest, "--variable", "Shop Aged", "--positive", "1"]) == 1
        assert ("UnknownVariable: 'Shop Aged' is not a configured variable (expected one of: "
                "Physical Existence, People Existence, Shop Age, Third Party Endorsement, "
                "Membership, Portal, Delivery, Payment Methods, Community Comment, "
                "Customer Satisfaction, Privacy, Warranty, Mandatory Registration)"
                ) in capsys.readouterr().err
        lines = Path(store_path).read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["variable"] for line in lines] == [
            "Shop Age"] * 3 + ["Mandatory Registration"]

    def test_allow_unknown_logs_the_config_spelling(self, store_path, shop_age_config, capsys):
        ingest = ["ingest", "--store", store_path, "--config", shop_age_config, "--merchant", "A"]
        assert main([*ingest, "--variable", "shop_age", "--positive", "3",
                     "--allow-unknown"]) == 0
        assert EvidenceStore(store_path).load_profile("A").counts["Shop Age"] == EvidenceCount(3, 0)
        for variable, (c, t_scaled) in goldens.MERCHANT_A.items():
            if variable != "Mandatory Registration":
                assert main([*ingest, "--variable", variable,
                             "--assessment", f"{c},{t_scaled}"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--store", store_path, "--config", shop_age_config,
                     "--merchant", "A", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "Mandatory Registration" not in report["variable_trusts"]
        assert report["variable_trusts"]["Shop Age"] > 0

    def test_config_spelling_of_a_default_name_scores(self, store_path, tmp_path, capsys):
        modules = [{"name": name, "variables": [
            "delivery" if v == "Delivery" else v for v in DEFAULT_WIRING[name]]}
            for name in DEFAULT_WIRING]
        config = tmp_path / "lower.json"
        config.write_text(json.dumps({"modules": modules}), encoding="utf-8")
        for name in PipelineConfig().variable_names():
            assert main(["ingest", "--store", store_path, "--config", str(config),
                         "--merchant", "A", "--variable", name, "--assessment", "0.5,3"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--store", store_path, "--config", str(config),
                     "--merchant", "A"]) == 0
        assert "Merchant: A" in capsys.readouterr().out
        text = Path(store_path).read_text(encoding="utf-8")
        assert '"variable": "delivery"' in text
        assert "Delivery" not in text

    def test_assessment_over_scale_rejects_batch(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        code = main(["ingest", "--store", seeded, "--merchant", "A", "--variable", "Delivery",
                     "--assessment", "0.5,5.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "merchant 'A', variable Delivery: t_scaled must be in [0, 5.0], got 5.5" in err
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(
            json.dumps({"kind": "assessment", "merchant": "B", "variable": variable,
                        "c": 0.5, "t_scaled": t_scaled, "timestamp": 5}) + "\n"
            for variable, t_scaled in (("Delivery", 5.0), ("Privacy", 8))
        ), encoding="utf-8")
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"scale": 4}), encoding="utf-8")
        for config, message in ((None, "variable Privacy: t_scaled must be in [0, 5.0], got 8"),
                                 (narrow, "variable Delivery: t_scaled must be in [0, 4], got 5.0")):
            config_args = [] if config is None else ["--config", str(config)]
            code = main(["ingest", "--store", seeded, *config_args, "--from-file", str(src)])
            assert code == 1
            err = capsys.readouterr().err
            assert "ValueError" in err and f"merchant 'B', {message}" in err
        assert Path(seeded).read_bytes() == before

    def test_deeply_nested_line_in_batch_rejects_it(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        src = tmp_path / "batch.jsonl"
        good = json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                           "outcome": "positive", "timestamp": 5})
        src.write_text(good + "\n" + "[" * 100_000 + "\n" + good + "\n", encoding="utf-8")
        code = main(["ingest", "--store", seeded, "--from-file", str(src)])
        assert code == 1
        assert f"{src}:2:" in capsys.readouterr().err
        assert Path(seeded).read_bytes() == before

    def test_flag_batch_is_fsynced_once(self, store_path, monkeypatch):
        fsyncs = []
        real_fsync = store_module.os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(store_module.os, "fsync", counting_fsync)
        code = main(["ingest", "--store", store_path, "--merchant", "A",
                     "--variable", "Delivery", "--positive", "2", "--negative", "1"])
        assert code == 0
        assert len(fsyncs) == 1
        assert EvidenceStore(store_path).counts("A", "Delivery") == EvidenceCount(2, 1)

    def test_from_file_with_merchant_is_usage_error(self, store_path, tmp_path):
        src = tmp_path / "batch.jsonl"
        src.write_text("", encoding="utf-8")
        code = main(["ingest", "--store", store_path, "--merchant", "A",
                     "--from-file", str(src)])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--positive", "9"],
        ["--negative", "1"],
        ["--assessment", "0.5,3"],
        ["--timestamp", "77"],
        ["--variable", "Delivery"],
        ["--positive", "9", "--timestamp", "77"],
    ], ids=" ".join)
    def test_from_file_with_record_flags_is_usage_error(self, seeded, tmp_path, capsys, flags):
        src = tmp_path / "batch.jsonl"
        src.write_text(json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                                   "outcome": "positive", "timestamp": 5}), encoding="utf-8")
        before = Path(seeded).read_bytes()
        code = main(["ingest", "--store", seeded, "--from-file", str(src), *flags])
        assert code == 2
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert flag in err
        assert Path(seeded).read_bytes() == before

    def test_missing_action_is_usage_error(self, store_path):
        code = main(["ingest", "--store", store_path, "--merchant", "A",
                     "--variable", "Delivery"])
        assert code == 2

    def test_malformed_assessment_is_usage_error(self, store_path):
        code = main(["ingest", "--store", store_path, "--merchant", "A",
                     "--variable", "Delivery", "--assessment", "broken"])
        assert code == 2

    def test_no_store_anywhere_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("CERTAIN_TRUST_STORE", raising=False)
        code = main(["ingest", "--merchant", "A", "--variable", "Delivery",
                     "--positive", "1"])
        assert code == 2

    def test_store_from_environment(self, store_path, monkeypatch):
        monkeypatch.setenv("CERTAIN_TRUST_STORE", store_path)
        code = main(["ingest", "--merchant", "A", "--variable", "Delivery",
                     "--positive", "1"])
        assert code == 0

    def test_from_file_that_cannot_be_read_is_storage_error(self, store_path, tmp_path, capsys):
        code = main(["ingest", "--store", store_path, "--from-file", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith(f"error: StorageFailure: cannot read {tmp_path}: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_store_is_storage_error(self, tmp_path, capsys):
        target = tmp_path / "dir.jsonl"
        target.mkdir()
        code = main(["ingest", "--store", str(target), "--merchant", "A",
                     "--variable", "Delivery", "--positive", "1"])
        assert code == 3
        assert "StorageFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True], ids=["flags", "from_file"])
    def test_unterminated_last_line_refuses_the_batch(self, seeded, tmp_path, capsys,
                                                      from_file):
        with open(seeded, "ab") as fh:
            fh.write(b'{"kind": "evid')
        before = Path(seeded).read_bytes()
        if from_file:
            src = tmp_path / "batch.jsonl"
            src.write_text(json.dumps({"kind": "evidence", "merchant": "A",
                                       "variable": "Delivery", "outcome": "positive",
                                       "timestamp": 5}) + "\n", encoding="utf-8")
            batch = ["--from-file", str(src)]
        else:
            batch = ["--merchant", "A", "--variable", "Delivery", "--positive", "1"]
        assert main(["ingest", "--store", seeded, *batch]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"StorageFailure: cannot append to {seeded}: its last line is unterminated" in err
        assert Path(seeded).read_bytes() == before
        with pytest.warns(RuntimeWarning, match="torn final line"):
            assert main(["evaluate", "--store", seeded, "--merchant", "A"]) == 0


class TestEvaluate:
    def test_human_output(self, seeded, capsys):
        code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Merchant: A" in out
        assert "Trust class: Medium" in out
        assert "Physical Existence" in out

    def test_json_matches_library_report(self, seeded, capsys):
        code = main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        want = evaluate_merchant(
            "A", PipelineConfig(), store=EvidenceStore(seeded)
        ).to_dict()
        assert got == want

    def test_json_byte_stable(self, seeded, capsys):
        main(["evaluate", "--store", seeded, "--merchant", "A", "--format", "json"])
        first = capsys.readouterr().out
        main(["evaluate", "--store", seeded, "--merchant", "A", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_a_thread_that_cannot_start_still_scores(self, seeded, monkeypatch, capsys):
        argv = ["evaluate", "--store", seeded, "--merchant", "A", "--format", "json"]
        assert main(argv) == 0  # a miss, which writes the snapshot
        os.utime(seeded)  # a new ctime: the snapshot's stamp no longer holds
        expected = capsys.readouterr().out
        refused = []

        def refuse(thread):
            refused.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(store_module.threading.Thread, "start", refuse)
        assert main(argv) == 0  # a hit, whose digest is computed on the calling thread
        assert len(refused) == 1
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", [["evaluate", "--merchant", "A"],
                                         ["compare", "--merchant", "A", "--merchant", "B"]],
                             ids=["evaluate", "compare"])
    def test_json_is_byte_identical_on_a_stamped_and_a_hashed_hit(self, seeded, monkeypatch,
                                                                   capsys, command):
        argv = [*command, "--store", seeded, "--format", "json"]
        assert main(argv) == 0  # a miss, which writes the snapshot
        expected = capsys.readouterr().out
        changed = Path(seeded).stat().st_ctime_ns  # a snapshot mtime past it: not racy
        os.utime(seeded + store_module.SNAPSHOT_SUFFIX, ns=(changed + 1, changed + 1))
        started, start = [], store_module.threading.Thread.start
        monkeypatch.setattr(store_module.threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        assert main(argv) == 0  # a hit on the stamp, with no digest worker
        assert (capsys.readouterr().out, started) == (expected, [])
        monkeypatch.setattr(store_module, "_CHANGE_TIMES", False)
        assert main(argv) == 0  # a hit that hashes
        assert (capsys.readouterr().out, len(started)) == (expected, 1)

    def test_module_trust_overrides(self, seeded, capsys):
        code = main([
            "evaluate", "--store", seeded, "--merchant", "A", "--format", "json",
            "--module-trust", "Existence=43",
            "--module-trust", "Affiliation=70",
            "--module-trust", "Fulfillment=59.5",
            "--module-trust", "Policy=61",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["merchant_trust"] == 58.375
        assert got["trust_class"] == "Medium"

    def test_module_trust_overrides_b(self, seeded, capsys):
        code = main([
            "evaluate", "--store", seeded, "--merchant", "B", "--format", "json",
            "--module-trust", "Existence=57",
            "--module-trust", "Affiliation=39",
            "--module-trust", "Fulfillment=50.5",
            "--module-trust", "Policy=42.55",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["merchant_trust"] == 47.2625
        assert got["behavioral"]["direction"] == "below_base"
        assert got["trust_class"] == "Medium"

    def test_evidence_over_cap_is_domain_error(self, store_path, tmp_path, capsys):
        seed_merchant(store_path, "A", goldens.MERCHANT_A)
        code = main(["ingest", "--store", store_path, "--merchant", "A",
                     "--variable", "Delivery", "--positive", "9",
                     "--timestamp", "200"])
        assert code == 0
        capsys.readouterr()
        # small evidence cap plus raw evidence for one variable: the
        # assessment for Delivery must be removed so counts are used
        with open(store_path, encoding="utf-8") as fh:
            lines = [ln for ln in fh
                     if '"assessment"' not in ln or '"Delivery"' not in ln]
        trimmed = tmp_path / "trimmed.jsonl"
        trimmed.write_text("".join(lines), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"N": 7}), encoding="utf-8")
        code = main(["evaluate", "--store", str(trimmed), "--merchant", "A",
                     "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "EvidenceExceedsCap" in err
        assert "merchant 'A'" in err and "variable Delivery" in err

    def test_ingest_refuses_what_evaluate_refuses_in_the_same_words(self, store_path, tmp_path,
                                                                   capsys):
        batch = [POSITIVE] * 5 + [NEGATIVE] * 3
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"N": 7}), encoding="utf-8")
        EvidenceStore(store_path).append(*[EvidenceRecord("A", "Delivery", outcome, 5)
                                           for outcome in batch])
        assert main(["evaluate", "--store", store_path, "--config", str(narrow),
                     "--merchant", "A"]) == 1
        refused = capsys.readouterr().err
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(json.dumps({"kind": "evidence", "merchant": "A",
                                           "variable": "delivery", "outcome": outcome,
                                           "timestamp": 5}) + "\n" for outcome in batch),
                       encoding="utf-8")
        fresh = str(tmp_path / "fresh.jsonl")
        assert main(["ingest", "--store", fresh, "--config", str(narrow),
                     "--from-file", str(src)]) == 1
        assert capsys.readouterr().err == refused == (
            "error: EvidenceExceedsCap: merchant 'A', variable Delivery: "
            "r+s = 8 exceeds evidence cap N = 7\n")

    def test_unknown_module_override_names_a_module(self, seeded, capsys):
        assert main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--module-trust", "Bogus=3"]) == 2
        assert capsys.readouterr().err == (
            "error: 'Bogus' is not a configured module "
            "(expected one of: Existence, Affiliation, Fulfillment, Policy)\n")

    def test_non_finite_config_number_is_domain_error(self, seeded, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"class_bounds": [10, NaN, 60, 80], "w": Infinity}', encoding="utf-8")
        assert main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: w must be a positive finite number, got inf\n")

    def test_zero_base_rate_config_fails_at_load(self, seeded, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"f": 0}', encoding="utf-8")
        for argv in (["evaluate", "--merchant", "A"],
                     ["compare", "--merchant", "A", "--merchant", "B"]):
            assert main([*argv, "--store", seeded, "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: ValueError: f must be above 0 to score, "
                "as every report divides by it, got 0\n")

    def test_assessment_over_scale_names_merchant_and_variable(self, seeded, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"scale": 10}), encoding="utf-8")
        code = main(["ingest", "--store", seeded, "--config", str(wide), "--merchant", "A",
                     "--variable", "Delivery", "--assessment", "0.5,7", "--timestamp", "200"])
        assert code == 0
        capsys.readouterr()
        code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "t_scaled must be in [0, 5.0], got 7.0" in err
        assert "merchant 'A'" in err and "variable Delivery" in err

    def test_torn_multibyte_final_line_is_skipped(self, seeded, capsys):
        with open(seeded, "ab") as fh:
            fh.write('{"kind": "evidence", "merchant": "Caf\u00e9'.encode("utf-8")[:-1])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 0
        assert "Trust class: Medium" in capsys.readouterr().out

    def test_invalid_utf8_middle_line_is_storage_error(self, seeded, capsys):
        with open(seeded, "ab") as fh:
            fh.write(b'{"kind": "evidence", "merchant": "Caf\xc3"}\n')
        seed_merchant(seeded, "C", goldens.MERCHANT_A)
        code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 3
        err = capsys.readouterr().err
        assert seeded in err and "line 25" in err

    def test_deeply_nested_middle_line_is_storage_error(self, seeded, capsys):
        with open(seeded, "a", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "\n")
        seed_merchant(seeded, "C", goldens.MERCHANT_A)
        code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 3
        err = capsys.readouterr().err
        assert "StorageFailure" in err and "corrupt record on line 25" in err

    def test_deeply_nested_final_line_is_skipped(self, seeded, capsys):
        with open(seeded, "a", encoding="utf-8") as fh:
            fh.write("[" * 100_000)
        with pytest.warns(RuntimeWarning, match="torn final line"):
            code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        assert code == 0
        assert "Trust class: Medium" in capsys.readouterr().out

    def test_empty_store_names_all_missing_variables(self, store_path, capsys):
        code = main(["evaluate", "--store", store_path, "--merchant", "A"])
        assert code == 1
        err = capsys.readouterr().err
        assert "MissingVariable" in err
        for name in PipelineConfig().variable_names():
            assert name in err

    def test_config_file(self, seeded, tmp_path, capsys):
        config = {"scale": 5, "N": 50, "w": 1.0, "f": 0.25,
                  "aggregation": "average", "class_bounds": [20, 40, 60, 80],
                  "not_mode": "preserve_certainty"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--config", str(path), "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        # lower base expectation raises the relative deviation
        assert got["behavioral"]["value"] > 100.0

    def test_config_typo_is_domain_error(self, seeded, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"aggregaton": "fuzzy"}), encoding="utf-8")
        code = main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--config", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown keys 'aggregaton'" in captured.err

    @pytest.mark.parametrize("document, named", [
        ({"modules": [{"name": "X"}]}, "modules[0]: missing keys 'variables'"),
        ({"modules": [1, 2]}, "modules[1]: must be an object, got int"),
        ({"class_bounds": 5}, "class_bounds: must be a list of numbers, got 5"),
        ({"modules": {"name": "X"}}, "modules: must be a list, got dict"),
    ])
    def test_malformed_config_value_is_domain_error(self, seeded, tmp_path, capsys,
                                                    document, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", "--store", seeded, "--merchant", "A", "--config", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: invalid config: ")
        assert named in captured.err


class TestCompare:
    def test_ranks_a_above_b(self, seeded, capsys):
        code = main(["compare", "--store", seeded,
                     "--merchant", "A", "--merchant", "B"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("A") < out.index("B")

    def test_json_ordering_and_stability(self, seeded, capsys):
        argv = ["compare", "--store", seeded, "--merchant", "B",
                "--merchant", "A", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert [r["merchant"] for r in data] == ["A", "B"]
        assert data[0]["merchant_trust"] > data[1]["merchant_trust"]

    def test_single_merchant_is_usage_error(self, seeded):
        assert main(["compare", "--store", seeded, "--merchant", "A"]) == 2

    def test_repeated_merchant_is_usage_error(self, seeded, capsys):
        code = main(["compare", "--store", seeded, "--merchant", "A",
                     "--merchant", "B", "--merchant", "A"])
        assert code == 2
        captured = capsys.readouterr()
        assert "'A'" in captured.err
        assert captured.out == ""

    def test_identical_data_ties_break_lexicographically(self, store_path, capsys):
        seed_merchant(store_path, "zeta", goldens.MERCHANT_A)
        seed_merchant(store_path, "alpha", goldens.MERCHANT_A)
        code = main(["compare", "--store", store_path,
                     "--merchant", "zeta", "--merchant", "alpha",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["merchant"] for r in data] == ["alpha", "zeta"]

    def test_one_read_of_a_log_with_a_torn_last_line(self, seeded, monkeypatch, capsys):
        seed_merchant(seeded, "C", goldens.MERCHANT_B)
        with open(seeded, "ab") as fh:
            fh.write(b'{"kind": "evid')
        opened = []
        real_open = Path.open

        def counting(self, *args, **kwargs):
            if self == Path(seeded):
                opened.append(args)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", "--store", seeded, "--merchant", "A",
                         "--merchant", "B", "--merchant", "C"])
        assert code == 0
        assert len(opened) == 1
        assert ["torn final line" in str(w.message) for w in caught] == [True]
        assert len(capsys.readouterr().out.splitlines()) == 4  # a header and three ranks

    def test_unevaluable_merchant_is_domain_error(self, seeded, capsys):
        code = main(["compare", "--store", seeded,
                     "--merchant", "A", "--merchant", "ghost"])
        assert code == 1
        assert "MissingVariable" in capsys.readouterr().err


RANKED = ("A", "B", "zeta", "alpha", "Café")


@pytest.fixture(scope="module")
def ranked_store(tmp_path_factory):
    """A store of five merchants, two of them tied with A."""
    path = str(tmp_path_factory.mktemp("ranked") / "store.jsonl")
    for merchant, data in zip(RANKED, (goldens.MERCHANT_A, goldens.MERCHANT_B,
                                       goldens.MERCHANT_A, goldens.MERCHANT_A,
                                       goldens.MERCHANT_B)):
        seed_merchant(path, merchant, data)
    return path


def compare_json(path, merchants) -> str:
    argv = ["compare", "--store", path, "--format", "json"]
    for merchant in merchants:
        argv += ["--merchant", merchant]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.permutations(RANKED))
def test_compare_json_does_not_depend_on_the_merchant_order(ranked_store, merchants):
    assert compare_json(ranked_store, merchants) == compare_json(ranked_store, RANKED)


class TestConfigFile:
    @pytest.mark.parametrize("command, merchants", [("evaluate", ["A"]), ("compare", ["A", "B"])])
    def test_json_error_names_the_file_and_line(self, seeded, tmp_path, capsys, command,
                                                merchants):
        config = tmp_path / "c.json"
        config.write_text('{"N": 7,\n "f": 0.5,}\n', encoding="utf-8")
        code = main([command, "--store", seeded, "--config", str(config),
                     *[arg for m in merchants for arg in ("--merchant", m)]])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: ValueError: {config}:2: not valid JSON: "
                       "Expecting property name enclosed in double quotes\n")

    def test_utf8_error_names_the_file(self, seeded, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"N": 7, "\xff": 1}\n')
        code = main(["evaluate", "--store", seeded, "--config", str(config), "--merchant", "A"])
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {config}: not valid UTF-8\n"

    @pytest.mark.parametrize("command", ["evaluate", "compare", "ingest", "surface"])
    def test_deep_nesting_is_one_error_line(self, seeded, tmp_path, capsys, command):
        config, out = tmp_path / "c.json", tmp_path / "s.csv"
        config.write_text("[" * 100_000, encoding="utf-8")
        before = Path(seeded).read_bytes()
        argv = {
            "evaluate": ["--store", seeded, "--merchant", "A"],
            "compare": ["--store", seeded, "--merchant", "A", "--merchant", "B"],
            "ingest": ["--store", seeded, "--merchant", "A", "--variable", "Delivery",
                       "--positive", "1"],
            "surface": ["--module", "Existence", "--x", "Physical Existence",
                        "--y", "People Existence", "--out", str(out)],
        }[command]
        code, stdout, stderr = captured_main(capsys, [command, "--config", str(config), *argv])
        assert (code, stdout, stderr) == (1, "", f"error: ValueError: {config}: "
                                                 "nested too deeply\n")
        assert Path(seeded).read_bytes() == before
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"N": 100, "N": 5}', "N"),
        ('{"modules": [{"name": "Existence", "name": "Presence", "variables": []}]}', "name"),
    ], ids=["top_level", "module_entry"])
    def test_a_repeated_key_is_refused(self, seeded, tmp_path, capsys, text, key):
        config = tmp_path / "c.json"
        config.write_text(text, encoding="utf-8")
        code, stdout, stderr = captured_main(
            capsys, ["evaluate", "--store", seeded, "--config", str(config), "--merchant", "A"])
        assert (code, stdout, stderr) == (1, "", f"error: ValueError: {config}: "
                                                 f"key {key!r} given twice\n")

    def test_ingest_checks_the_config_before_writing(self, seeded, tmp_path, capsys):
        before = Path(seeded).read_bytes()
        config = tmp_path / "c.json"
        config.write_text("{", encoding="utf-8")
        assert main(["ingest", "--store", seeded, "--config", str(config), "--merchant", "A",
                     "--variable", "Delivery", "--positive", "1"]) == 1
        assert f"{config}:1: not valid JSON" in capsys.readouterr().err
        assert Path(seeded).read_bytes() == before


class TestNoRulesCommand:
    """Every rulebase is generated, so no command writes or checks a rulebase file."""

    def test_rules_generate_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "rules.json"
        assert main(["rules", "generate", "--inputs", "3", "--out", str(out)]) == 2
        assert not out.exists()
        assert "invalid choice: 'rules'" in capsys.readouterr().err

    def test_help_lists_four_commands(self, capsys):
        assert main(["--help"]) == 0
        assert "{ingest,evaluate,compare,surface}" in capsys.readouterr().out


class TestSurface:
    def test_writes_expected_grid(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code = main(["surface", "--module", "Existence",
                     "--x", "Physical Existence", "--y", "People Existence",
                     "--resolution", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "x,y,z"
        assert len(lines) == 1 + 121

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["surface", "--module", "Existence", "--x", "Physical Existence",
                "--y", "Mandatory Registration", "--resolution", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_merchant_module_sweeps_module_outputs(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["surface", "--module", "Merchant Trust",
                     "--x", "Existence", "--y", "Policy",
                     "--resolution", "3", "--out", str(out)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").strip().split("\n")) == 10

    def test_same_variable_twice_is_usage_error(self, tmp_path):
        code = main(["surface", "--module", "Existence",
                     "--x", "Portal", "--y", "Portal",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_unknown_module_is_usage_error(self, tmp_path):
        code = main(["surface", "--module", "Nonsense", "--x", "a", "--y", "b",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_unknown_variable_is_usage_error(self, tmp_path):
        code = main(["surface", "--module", "Existence", "--x", "Portal",
                     "--y", "People Existence", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_small_resolution_is_usage_error(self, tmp_path):
        code = main(["surface", "--module", "Existence",
                     "--x", "Physical Existence", "--y", "People Existence",
                     "--resolution", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_out_in_a_missing_directory_is_storage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        code = main(["surface", "--module", "Existence", "--x", "Physical Existence",
                     "--y", "People Existence", "--resolution", "3", "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert (code, stdout) == (3, "")
        assert err.startswith(f"error: StorageFailure: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []


def all_error_classes():
    import certaintrust.errors as errors

    return [
        cls for cls in vars(errors).values()
        if isinstance(cls, type)
        and issubclass(cls, errors.TrustError)
        and cls is not errors.TrustError
    ]


class TestExitCodeTaxonomy:
    """Every domain error maps to exit 1, storage errors to exit 3."""

    def test_covers_whole_taxonomy(self):
        assert len(all_error_classes()) == 10

    @pytest.mark.parametrize("error_cls", all_error_classes(), ids=lambda c: c.__name__)
    def test_mapping(self, error_cls, seeded, monkeypatch, capsys):
        from certaintrust import StorageFailure
        from certaintrust import cli as cli_module

        def boom(*args, **kwargs):
            raise error_cls("synthetic")

        monkeypatch.setattr(cli_module, "evaluate_merchant", boom)
        code = main(["evaluate", "--store", seeded, "--merchant", "A"])
        expected = 3 if issubclass(error_cls, StorageFailure) else 1
        assert code == expected
        assert error_cls.__name__ in capsys.readouterr().err

    def test_missing_config_file_is_storage_error(self, seeded):
        code = main(["evaluate", "--store", seeded, "--merchant", "A",
                     "--config", "/nonexistent/config.json"])
        assert code == 3


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_store_untouched_by_reads(self, seeded, tmp_path):
        before = Path(seeded).read_bytes()
        main(["evaluate", "--store", seeded, "--merchant", "A"])
        main(["compare", "--store", seeded, "--merchant", "A", "--merchant", "B"])
        main(["surface", "--module", "Existence", "--x", "Portal",
              "--y", "People Existence", "--out", str(tmp_path / "s.csv")])
        assert Path(seeded).read_bytes() == before


EXISTENCE = "Physical Existence, People Existence, Mandatory Registration"

#: every usage-error site: an id, the argv (``{store}``, ``{batch}`` and
#: ``{out}`` stand for paths in the test's directory) and the message of the
#: one stderr line it must print
USAGE_ERRORS = [
    ("no_store_ingest",
     ["ingest", "--merchant", "A", "--variable", "Delivery", "--positive", "1"],
     "no store given (use --store or $CERTAIN_TRUST_STORE)"),
    ("no_store_evaluate", ["evaluate", "--merchant", "A"],
     "no store given (use --store or $CERTAIN_TRUST_STORE)"),
    ("no_store_compare", ["compare", "--merchant", "A", "--merchant", "B"],
     "no store given (use --store or $CERTAIN_TRUST_STORE)"),
    ("from_file_with_flags",
     ["ingest", "{store}", "--from-file", "{batch}", "--merchant", "A", "--positive", "1"],
     "--from-file cannot be combined with --merchant, --positive"),
    ("missing_variable", ["ingest", "{store}", "--merchant", "A", "--positive", "1"],
     "--merchant and --variable are required"),
    ("missing_merchant", ["ingest", "{store}", "--variable", "Delivery", "--positive", "1"],
     "--merchant and --variable are required"),
    ("nothing_to_ingest", ["ingest", "{store}", "--merchant", "A", "--variable", "Delivery"],
     "nothing to ingest (use --positive/--negative/--assessment)"),
    ("compare_one_merchant", ["compare", "{store}", "--merchant", "A"],
     "compare needs at least two --merchant arguments"),
    ("compare_repeated_merchant",
     ["compare", "{store}", "--merchant", "A", "--merchant", "B", "--merchant", "A"],
     "merchant 'A' is given more than once"),
    ("surface_unknown_module",
     ["surface", "--module", "Nonsense", "--x", "a", "--y", "b", "--out", "{out}"],
     "'Nonsense' is not a configured module (expected one of: "
     "Existence, Affiliation, Fulfillment, Policy, Merchant Trust)"),
    ("surface_unknown_x",
     ["surface", "--module", "Existence", "--x", "Portal", "--y", "People Existence",
      "--out", "{out}"],
     f"'Portal' is not a configured variable (expected one of: {EXISTENCE})"),
    ("surface_same_input_twice",
     ["surface", "--module", "Existence", "--x", "People_Existence", "--y", "people existence",
      "--out", "{out}"],
     "--x and --y must name different inputs"),
    ("surface_resolution_one",
     ["surface", "--module", "Existence", "--x", "Physical Existence", "--y", "People Existence",
      "--resolution", "1", "--out", "{out}"],
     "--resolution must be at least 2"),
]


@pytest.mark.parametrize("argv, message", [case[1:] for case in USAGE_ERRORS],
                         ids=[case[0] for case in USAGE_ERRORS])
def test_usage_error_is_exit_2_and_one_stderr_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.delenv("CERTAIN_TRUST_STORE", raising=False)
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps({"kind": "evidence", "merchant": "A", "variable": "Delivery",
                                 "outcome": "positive", "timestamp": 5}) + "\n",
                     encoding="utf-8")
    store, out = tmp_path / "store.jsonl", tmp_path / "out.csv"
    fills = {"{store}": ["--store", str(store)], "{batch}": [str(batch)], "{out}": [str(out)]}
    argv = [part for arg in argv for part in fills.get(arg, [arg])]
    before = sorted(tmp_path.iterdir())
    code, stdout, stderr = captured_main(capsys, argv)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == before


#: each option value that the option's argparse type refuses: an id, the
#: argv (``{store}`` stands for a path in the test's directory) and the
#: message that argparse prints after its usage lines
BAD_OPTION_VALUES = [
    ("negative_count", ["ingest", "{store}", "--merchant", "A", "--variable", "Delivery",
                        "--positive", "-1"],
     "certaintrust ingest: error: argument --positive: must be non-negative, got -1"),
    ("assessment_not_numbers", ["ingest", "{store}", "--merchant", "A", "--variable", "Delivery",
                                "--assessment", "x,y"],
     "certaintrust ingest: error: argument --assessment: expected two numbers, got 'x,y'"),
    ("module_trust_without_value", ["evaluate", "{store}", "--merchant", "A",
                                    "--module-trust", "Existence"],
     "certaintrust evaluate: error: argument --module-trust: expected 'Module=value', "
     "got 'Existence'"),
    ("module_trust_not_a_number", ["evaluate", "{store}", "--merchant", "A",
                                   "--module-trust", "Existence=x"],
     "certaintrust evaluate: error: argument --module-trust: expected a numeric value in "
     "'Existence=x'"),
]


@pytest.mark.parametrize("argv, message", [case[1:] for case in BAD_OPTION_VALUES],
                         ids=[case[0] for case in BAD_OPTION_VALUES])
def test_a_refused_option_value_is_exit_2_and_writes_nothing(tmp_path, capsys, argv, message):
    fills = {"{store}": ["--store", str(tmp_path / "store.jsonl")]}
    argv = [part for arg in argv for part in fills.get(arg, [arg])]
    code, stdout, stderr = captured_main(capsys, argv)
    assert (code, stdout) == (2, "")
    assert stderr.endswith(f"\n{message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def fresh_parser():
    """Drop the parser ``main`` keeps, so the next call builds a new one."""
    cli_module._parser.cache_clear()
    yield
    cli_module._parser.cache_clear()


def captured_main(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """``main`` parses every call with one parser, built on the first call."""

    def test_parser_built_once_across_calls(self, seeded, fresh_parser, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counting_build_parser)
        assert main(["evaluate", "--store", seeded, "--merchant", "A"]) == 0
        assert main(["compare", "--store", seeded, "--merchant", "A", "--merchant", "B"]) == 0
        assert main(["frobnicate"]) == 2
        assert main(["--help"]) == 0
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_module_trust_does_not_leak_into_the_next_call(self, seeded, fresh_parser, capsys):
        plain = ["evaluate", "--store", seeded, "--merchant", "A", "--format", "json"]
        expected = captured_main(capsys, plain)
        cli_module._parser.cache_clear()
        assert captured_main(capsys, [*plain, "--module-trust", "Affiliation=39"])[0] == 0
        assert captured_main(capsys, plain) == expected

    def test_compare_merchants_do_not_accumulate(self, seeded, fresh_parser, capsys):
        argv = ["compare", "--store", seeded, "--merchant", "A", "--merchant", "B",
                "--format", "json"]
        first = captured_main(capsys, argv)
        assert first[0] == 0
        assert len(json.loads(first[1])) == 2
        assert captured_main(capsys, argv) == first

    def test_usage_error_then_valid_call(self, seeded, fresh_parser, capsys):
        assert main(["evaluate", "--store", seeded]) == 2
        assert main(["evaluate", "--store", seeded, "--merchant", "A", "--format", "xml"]) == 2
        assert main(["evaluate", "--store", seeded, "--merchant", "A"]) == 0
        assert "Merchant: A" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"]], ids=" ".join)
    def test_help_text_is_the_same_on_every_call(self, fresh_parser, capsys, argv):
        first = captured_main(capsys, argv)
        assert first[0] == 0
        assert first[1].startswith("usage: certaintrust")
        assert captured_main(capsys, argv) == first
        assert captured_main(capsys, argv) == first


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new Python process on this checkout's source."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


class TestFreshProcess:
    """One process per CLI call, as a shell or a cron job would run it."""

    def test_help_exits_zero(self):
        result = run_python("-m", "certaintrust", "--help")
        assert result.returncode == 0
        assert result.stdout.startswith(b"usage: certaintrust")

    def test_evaluate_json_matches_in_process_main(self, seeded, capsys):
        argv = ["evaluate", "--store", seeded, "--merchant", "A", "--format", "json"]
        result = run_python("-m", "certaintrust", *argv)
        assert result.returncode == 0, result.stderr
        assert main(argv) == 0
        assert result.stdout == capsys.readouterr().out.encode("utf-8")

    def test_a_reader_that_stops_early_is_no_error(self, store_path):
        merchants = [f"M{i}" for i in range(300)]
        EvidenceStore(store_path).append(*(DirectAssessment(m, v, c, t_scaled, 0)
                                           for m in merchants
                                           for v, (c, t_scaled) in goldens.MERCHANT_A.items()))
        argv = ["compare", "--store", store_path, "--format", "json",
                *(f"--merchant={m}" for m in merchants)]  # past a pipe's buffer
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        with subprocess.Popen([sys.executable, "-m", "certaintrust", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path)) as proc:
            assert proc.stdout.read(10) == b'[\n  {\n    '
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=60), stderr) == (0, b"")

    def test_import_builds_no_parser(self):
        result = run_python("-c", "import certaintrust.cli as cli; "
                                  "print(cli._parser.cache_info().currsize)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"0\n"
