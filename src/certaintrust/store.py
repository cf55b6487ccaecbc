"""Append-only JSON-lines persistence for evidence and direct assessments.

One UTF-8 JSON object per line, discriminated by ``kind``:

    {"kind": "evidence",   "merchant": "...", "variable": "...",
     "outcome": "positive" | "negative", "timestamp": 1700000000}
    {"kind": "assessment", "merchant": "...", "variable": "...",
     "c": 0.6, "t_scaled": 3.5, "timestamp": 1700000000}

The log is never rewritten.  Appends are serialized through one writer;
readers always see a consistent prefix.  A torn final line (interrupted
write) is skipped with a warning; corruption anywhere else raises
:class:`StorageFailure`.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import StorageFailure, UnknownVariable
from .opinion import EvidenceCount
from .variables import CANONICAL_VARIABLES, normalize_name

POSITIVE = "positive"
NEGATIVE = "negative"

EVIDENCE_KIND = "evidence"
ASSESSMENT_KIND = "assessment"

STORE_ENV_VAR = "CERTAIN_TRUST_STORE"


def _check_common(merchant: str, variable: str, timestamp: int) -> None:
    if not isinstance(merchant, str) or not merchant.strip():
        raise ValueError(f"merchant must be a non-empty string, got {merchant!r}")
    if not isinstance(variable, str) or not variable.strip():
        raise ValueError(f"variable must be a non-empty string, got {variable!r}")
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        raise ValueError(f"timestamp must be an integer, got {timestamp!r}")


@dataclass(frozen=True)
class EvidenceRecord:
    """One positive or negative observation for (merchant, variable)."""

    merchant: str
    variable: str
    outcome: str
    timestamp: int

    def __post_init__(self) -> None:
        _check_common(self.merchant, self.variable, self.timestamp)
        if self.outcome not in (POSITIVE, NEGATIVE):
            raise ValueError(f"outcome must be 'positive' or 'negative', got {self.outcome!r}")


@dataclass(frozen=True)
class DirectAssessment:
    """A directly supplied (certainty, scaled rating) pair."""

    merchant: str
    variable: str
    c: float
    t_scaled: float
    timestamp: int

    def __post_init__(self) -> None:
        _check_common(self.merchant, self.variable, self.timestamp)
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must be in [0, 1], got {self.c!r}")
        if not self.t_scaled >= 0.0:
            raise ValueError(f"t_scaled must be non-negative, got {self.t_scaled!r}")


Record = EvidenceRecord | DirectAssessment


@dataclass
class MerchantProfile:
    """Snapshot derived from the log: counts plus latest assessment per variable."""

    merchant: str
    counts: dict[str, EvidenceCount] = field(default_factory=dict)
    assessments: dict[str, DirectAssessment] = field(default_factory=dict)


def record_to_dict(record: Record) -> dict:
    if isinstance(record, EvidenceRecord):
        return {
            "kind": EVIDENCE_KIND,
            "merchant": record.merchant,
            "variable": record.variable,
            "outcome": record.outcome,
            "timestamp": record.timestamp,
        }
    return {
        "kind": ASSESSMENT_KIND,
        "merchant": record.merchant,
        "variable": record.variable,
        "c": record.c,
        "t_scaled": record.t_scaled,
        "timestamp": record.timestamp,
    }


def record_from_dict(data: dict) -> Record:
    try:
        kind = data["kind"]
        if kind == EVIDENCE_KIND:
            return EvidenceRecord(
                data["merchant"], data["variable"], data["outcome"], data["timestamp"]
            )
        if kind == ASSESSMENT_KIND:
            return DirectAssessment(
                data["merchant"], data["variable"], data["c"], data["t_scaled"], data["timestamp"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed record {data!r}: {exc}") from exc
    raise ValueError(f"unknown record kind {data.get('kind')!r}")


class EvidenceStore:
    """Single-writer append-only store over one JSON-lines file."""

    def __init__(
        self,
        path: str | os.PathLike,
        variables: tuple[str, ...] = CANONICAL_VARIABLES,
        permissive: bool = False,
    ) -> None:
        self.path = Path(path)
        self.variables = variables
        self.permissive = permissive
        # the last validated newline-terminated prefix of the file: its
        # bytes, its records and its number of lines
        self._prefix = b""
        self._prefix_records: tuple[Record, ...] = ()
        self._prefix_lines = 0

    def normalize(self, variable: str) -> str:
        return normalize_name(variable, self.variables, self.permissive)

    def append(self, record: Record) -> Record:
        """Durably append one record; returns it with the variable canonicalized."""
        record = replace(record, variable=self.normalize(record.variable))
        line = json.dumps(record_to_dict(record), ensure_ascii=False, sort_keys=True)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StorageFailure(f"cannot append to {self.path}: {exc}") from exc
        return record

    def records(self) -> list[Record]:
        """All records in file order, as a new list.

        Lines end with ``"\\n"`` only.  A final non-blank line that fails to
        decode or parse is treated as a torn write and skipped with a
        warning; any earlier damage raises :class:`StorageFailure` naming
        the physical line.

        The store keeps the newline-terminated prefix it last validated,
        with that prefix's records: when the file still starts with exactly
        those bytes, only the bytes after them are parsed.  A torn or
        unterminated final line is never kept, so it is checked again on
        every read.
        """
        if not self.path.exists():
            return []
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise StorageFailure(f"cannot read {self.path}: {exc}") from exc
        if not data.startswith(self._prefix):
            self._prefix, self._prefix_records, self._prefix_lines = b"", (), 0
        tail = data[len(self._prefix):]
        try:
            lines: list[str | None] = tail.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = []
            for raw in tail.split(b"\n"):
                try:
                    lines.append(raw.decode("utf-8"))
                except UnicodeDecodeError:
                    lines.append(None)
        final = len(lines) - 1  # the last non-blank line, the only one that may be torn
        while final >= 0 and lines[final] is not None and not lines[final].strip():
            final -= 1
        out = list(self._prefix_records)
        keep = len(lines) - 1  # lines[:keep] end with "\n" and join the kept prefix
        for i, line in enumerate(lines):
            if i == keep:
                kept_records = len(out)
            if line is not None and not line.strip():
                continue
            try:
                if line is None:
                    raise ValueError("not valid UTF-8")
                fields = json.loads(line)
            except ValueError as exc:
                if i == final:
                    warnings.warn(
                        f"{self.path}: skipping torn final line ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    keep, kept_records = i, len(out)
                    break
                number = self._prefix_lines + i + 1
                raise StorageFailure(f"{self.path}: corrupt record on line {number}") from exc
            try:
                out.append(record_from_dict(fields))
            except ValueError as exc:
                number = self._prefix_lines + i + 1
                raise StorageFailure(f"{self.path}: invalid record on line {number}: {exc}") from exc
        # the kept prefix ends where line ``keep`` of the tail starts
        end = len(tail)
        for _ in range(len(lines) - keep):
            end = tail.rfind(b"\n", 0, end)
        self._prefix = data[: len(self._prefix) + end + 1]
        self._prefix_records = tuple(out[:kept_records])
        self._prefix_lines += keep
        return out

    def counts(self, merchant: str, variable: str) -> EvidenceCount:
        """Exact (r, s) tally from the log; (0, 0) for never-seen pairs."""
        variable = self.normalize(variable)
        return self.load_profile(merchant).counts.get(variable, EvidenceCount(0, 0))

    def load_profile(self, merchant: str) -> MerchantProfile:
        """Counts for every configured variable plus latest assessments.

        Assessment conflicts resolve latest-timestamp-wins, with later file
        order winning ties.
        """
        tallies: dict[str, list[int]] = {name: [0, 0] for name in self.variables}
        assessments: dict[str, DirectAssessment] = {}
        for record in self.records():
            if record.merchant != merchant:
                continue
            if isinstance(record, EvidenceRecord):
                pair = tallies.setdefault(record.variable, [0, 0])
                pair[0 if record.outcome == POSITIVE else 1] += 1
            else:
                current = assessments.get(record.variable)
                if current is None or record.timestamp >= current.timestamp:
                    assessments[record.variable] = record
        counts = {name: EvidenceCount(r, s) for name, (r, s) in tallies.items()}
        return MerchantProfile(merchant, counts, assessments)
