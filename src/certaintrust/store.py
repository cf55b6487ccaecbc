"""Append-only JSON-lines persistence for evidence and direct assessments.

One UTF-8 JSON object per line, discriminated by ``kind``:

    {"kind": "evidence",   "merchant": "...", "variable": "...",
     "outcome": "positive" | "negative", "timestamp": 1700000000}
    {"kind": "assessment", "merchant": "...", "variable": "...",
     "c": 0.6, "t_scaled": 3.5, "timestamp": 1700000000}

The log is never rewritten.  Appends are serialized through one writer;
readers always see a consistent prefix.  A torn final line (interrupted
write) is skipped with a warning; corruption anywhere else raises
:class:`StorageFailure`, and so does an append to a log whose last line
is unterminated.  A store object keeps the prefix it validated and, on
the next read, compares it with the file one chunk at a time, in place,
before it reads the bytes after it.

Next to the log, ``<log name>.snapshot`` keeps the records of a validated
prefix of it, so that a new store object parses only the lines after
that prefix.  Its first line is a JSON header.  A JSON table line follows:
the distinct merchant and variable names in first-seen order, ``c`` and
``t_scaled`` per assessment, and the timestamps only when one falls
outside int64.  Then come fixed-width little-endian columns: the
timestamps (``<i8``, unless the table holds them), merchant ids and
variable ids (``<u4``), and a kind byte per record (``+`` and ``-`` for
positive and negative evidence, ``a`` for an assessment):

    {"digest": "<sha256 of the prefix bytes, then the rest>", "length": 230, "version": 2}
    {"merchant":["A"],"variable":["Delivery","Privacy"],"c":[0.6],"t_scaled":[3.5],"timestamp":null}
    <1, 2 as <i8><0, 0 as <u4><0, 1 as <u4>+a
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import StorageFailure
from .opinion import EvidenceCount
from .variables import CANONICAL_VARIABLES, normalize_name

POSITIVE = "positive"
NEGATIVE = "negative"

EVIDENCE_KIND = "evidence"
ASSESSMENT_KIND = "assessment"

STORE_ENV_VAR = "CERTAIN_TRUST_STORE"

SNAPSHOT_SUFFIX = ".snapshot"
SNAPSHOT_VERSION = 2

#: bytes of the kept prefix compared against the file per read call
_CHUNK = 1 << 16


def _check_common(merchant: str, variable: str, timestamp: int) -> None:
    if not isinstance(merchant, str) or not merchant.strip():
        raise ValueError(f"merchant must be a non-empty string, got {merchant!r}")
    if not isinstance(variable, str) or not variable.strip():
        raise ValueError(f"variable must be a non-empty string, got {variable!r}")
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        raise ValueError(f"timestamp must be an integer, got {timestamp!r}")


def _check_number(name: str, value: float, upper: float, bounds: str) -> None:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, not bool, got {value!r}")
    try:
        valid = 0.0 <= value <= upper
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not valid:
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


# Each record class writes its slots itself.  Plain values (exact str and
# int, int or float numbers) pass one inline test; any other values get the
# checks above, which accept or reject them and say why.  Log lines,
# snapshot records and callers all build records through these
# constructors, so a snapshot admits no record that a log line would not.
@dataclass(frozen=True, slots=True, init=False)
class EvidenceRecord:
    """One positive or negative observation for (merchant, variable)."""

    merchant: str
    variable: str
    outcome: str
    timestamp: int

    def __init__(self, merchant: str, variable: str, outcome: str, timestamp: int) -> None:
        if not (type(merchant) is str and type(variable) is str and type(timestamp) is int
                and merchant.strip() and variable.strip()
                and (outcome == POSITIVE or outcome == NEGATIVE)):
            _check_common(merchant, variable, timestamp)
            if outcome not in (POSITIVE, NEGATIVE):
                raise ValueError(f"outcome must be 'positive' or 'negative', got {outcome!r}")
        set_merchant, set_variable, set_outcome, set_timestamp = self._setters
        set_merchant(self, merchant)
        set_variable(self, variable)
        set_outcome(self, outcome)
        set_timestamp(self, timestamp)


@dataclass(frozen=True, slots=True, init=False)
class DirectAssessment:
    """A directly supplied (certainty, scaled rating) pair."""

    merchant: str
    variable: str
    c: float
    t_scaled: float
    timestamp: int

    def __init__(self, merchant: str, variable: str, c: float, t_scaled: float,
                 timestamp: int) -> None:
        if not (type(merchant) is str and type(variable) is str and type(timestamp) is int
                and merchant.strip() and variable.strip()
                and (type(c) is float or type(c) is int) and 0.0 <= c <= 1.0
                and (type(t_scaled) is float or type(t_scaled) is int) and t_scaled >= 0.0):
            _check_common(merchant, variable, timestamp)
            _check_number("c", c, 1.0, "in [0, 1]")
            _check_number("t_scaled", t_scaled, math.inf, "non-negative")
        set_merchant, set_variable, set_c, set_t_scaled, set_timestamp = self._setters
        set_merchant(self, merchant)
        set_variable(self, variable)
        set_c(self, c)
        set_t_scaled(self, t_scaled)
        set_timestamp(self, timestamp)


# each class's slot setters in field order: a constructor that writes
# through them costs about a quarter less than one using object.__setattr__
for _record_type in (EvidenceRecord, DirectAssessment):
    _record_type._setters = tuple(getattr(_record_type, name).__set__
                                  for name in _record_type.__slots__)


Record = EvidenceRecord | DirectAssessment


@dataclass
class MerchantProfile:
    """Snapshot derived from the log: counts plus latest assessment per variable."""

    merchant: str
    counts: dict[str, EvidenceCount] = field(default_factory=dict)
    assessments: dict[str, DirectAssessment] = field(default_factory=dict)


def record_to_dict(record: Record) -> dict:
    """The record as a log line's fields: ``kind``, then its slots in order."""
    kind = EVIDENCE_KIND if isinstance(record, EvidenceRecord) else ASSESSMENT_KIND
    return {"kind": kind, **{name: getattr(record, name) for name in record.__slots__}}


_scan_once = json.JSONDecoder().scan_once


def decode_line(line: str):
    """The JSON value of one log line, exactly as ``json.loads(line)`` gives it.

    The usual line, one value followed by nothing but JSON whitespace,
    costs one call of the decoder's C scanner, which decodes the whole
    value; ``json.loads`` adds a regex match at each end and three
    Python-level calls.  Any other line is decoded again by ``json.loads``,
    so a bad line fails with that call's exception and message.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if end == len(line) or not line[end:].strip(" \t\n\r"):
        return value
    return json.loads(line)


def record_from_dict(data: dict) -> Record:
    try:
        kind = data["kind"]
        if kind == EVIDENCE_KIND:
            return EvidenceRecord(data["merchant"], data["variable"], data["outcome"],
                                  data["timestamp"])
        if kind == ASSESSMENT_KIND:
            return DirectAssessment(
                data["merchant"], data["variable"], data["c"], data["t_scaled"], data["timestamp"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed record {data!r}: {exc}") from exc
    raise ValueError(f"unknown record kind {data.get('kind')!r}")


#: the kind byte of a snapshot record, and back
_KINDS = {POSITIVE: "+", NEGATIVE: "-", None: "a"}
_OUTCOMES = {ord("+"): POSITIVE, ord("-"): NEGATIVE}
_ASSESSED = ord("a")


def _snapshot_payload(records) -> bytes:
    """The records as a JSON table line and fixed-width binary columns.

    The table holds the distinct merchant and variable names in first-seen
    order, ``c`` and ``t_scaled`` per assessment, and the timestamps when
    any falls outside int64 (else null).  The columns follow it: the
    timestamps as ``<i8`` when they fit, then merchant ids and variable
    ids as ``<u4`` and a kind byte per record (``+``, ``-`` or ``a``)."""
    merchants: dict[str, int] = {}
    variables: dict[str, int] = {}
    mids = [merchants.setdefault(r.merchant, len(merchants)) for r in records]
    vids = [variables.setdefault(r.variable, len(variables)) for r in records]
    assessments = [r for r in records if isinstance(r, DirectAssessment)]
    stamps = [r.timestamp for r in records]
    try:
        columns = [np.array(stamps, "<i8").tobytes()]
        stamps = None
    except OverflowError:
        columns = []
    table = {"merchant": list(merchants), "variable": list(variables),
             "c": [r.c for r in assessments], "t_scaled": [r.t_scaled for r in assessments],
             "timestamp": stamps}
    columns += [np.array(mids, "<u4").tobytes(), np.array(vids, "<u4").tobytes(),
                "".join([_KINDS[getattr(r, "outcome", None)] for r in records]).encode("ascii")]
    line = json.dumps(table, separators=(",", ":"), check_circular=False).encode("ascii")
    return b"\n".join([line, b"".join(columns)])


def _snapshot_columns(payload: bytes) -> tuple:
    """The checked columns of a snapshot payload: kinds, merchant ids,
    variable ids, timestamps, the position of each record's assessment
    among the assessments, merchant names, variable names, ``c``,
    ``t_scaled`` and the id of each merchant name.  A blob whose length
    does not fit the table, an id outside its table, a duplicate merchant
    name, or any record that the record constructors would reject raise
    ValueError or TypeError, so a snapshot is taken or ignored whole
    without building its records."""
    line, _, blob = payload.partition(b"\n")
    table = json.loads(line)
    names, variables, cs, ts, stamps = (
        table[key] for key in ("merchant", "variable", "c", "t_scaled", "timestamp"))
    n, rest = divmod(len(blob), 17 if stamps is None else 9)
    if not (type(names) is type(variables) is type(cs) is type(ts) is list and not rest
            and (stamps is None or type(stamps) is list and len(stamps) == n
                 and set(map(type, stamps)) <= {int})):
        raise ValueError("snapshot tables are not lists that fit the blob")
    if stamps is None:
        stamps, at = np.frombuffer(blob, "<i8", n), 8 * n
    else:
        stamps, at = np.array(stamps, dtype=object), 0
    mids, vids = np.frombuffer(blob, "<u4", n, at), np.frombuffer(blob, "<u4", n, at + 4 * n)
    kinds = blob[at + 8 * n:]
    index = dict(zip(names, range(len(names))))
    # str.strip raises TypeError for a name that is not a string
    if not (all(map(str.strip, names)) and all(map(str.strip, variables))
            and len(index) == len(names) and not kinds.translate(None, b"+-a")
            and kinds.count(b"a") == len(cs) == len(ts)
            and (mids < len(names)).all() and (vids < len(variables)).all()
            and set(map(type, cs)) | set(map(type, ts)) <= {int, float}
            and all(map(0.0.__le__, cs)) and all(map(1.0.__ge__, cs))
            and all(map(0.0.__le__, ts))):
        raise ValueError("snapshot holds a record the checks reject")
    kinds = np.frombuffer(kinds, np.uint8)
    assessed = np.cumsum(kinds == _ASSESSED) - 1
    return kinds, mids, vids, stamps, assessed, names, variables, cs, ts, index


def _column_records(columns: tuple, merchant: str | None = None) -> list[Record]:
    """The records of checked snapshot columns, all of them or one
    merchant's, in order, built by the same constructors as log lines."""
    kinds, mids, vids, stamps, assessed, names, variables, cs, ts, index = columns
    if merchant is None:
        rows = slice(None)
    elif merchant in index:
        rows = np.flatnonzero(mids == index[merchant])
    else:
        return []
    out = []
    for kind, m, v, t, a in zip(kinds[rows].tolist(), mids[rows].tolist(), vids[rows].tolist(),
                                stamps[rows].tolist(), assessed[rows].tolist()):
        if kind == _ASSESSED:
            out.append(DirectAssessment(names[m], variables[v], cs[a], ts[a], t))
        else:
            out.append(EvidenceRecord(names[m], variables[v], _OUTCOMES[kind], t))
    return out


class EvidenceStore:
    """Single-writer append-only store over one JSON-lines file."""

    def __init__(self, path: str | os.PathLike, permissive: bool = False) -> None:
        self.path = Path(path)
        self.permissive = permissive
        # the last validated newline-terminated prefix of the file: its
        # bytes and its records; the records taken from the snapshot stay
        # its checked columns until all of them are asked for
        self._prefix = b""
        self._columns: tuple | None = None
        self._prefix_records: tuple[Record, ...] = ()
        # how many records the snapshot holds, as far as this object knows:
        # those it loaded, or those it last wrote or tried to write
        self._snapshot_records = 0

    @property
    def _snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + SNAPSHOT_SUFFIX)

    def normalize(self, variable: str) -> str:
        return normalize_name(variable, CANONICAL_VARIABLES, self.permissive)

    def append(self, *records: Record) -> tuple[Record, ...]:
        """Durably append a batch; returns it with the variables canonicalized.

        Every variable is checked before anything is written, so a rejected
        batch leaves the file as it was.  A file whose last line has no
        ``"\\n"`` (a torn write) is refused with :class:`StorageFailure`
        and left as it was, as the batch's first line would join it.  The
        batch is written with one write and one fsync; an empty batch
        writes nothing.
        """
        records = tuple(replace(r, variable=self.normalize(r.variable)) for r in records)
        if not records:
            return records
        text = "".join(
            json.dumps(record_to_dict(r), ensure_ascii=False, sort_keys=True) + "\n"
            for r in records
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a+b") as fh:
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        raise StorageFailure(f"cannot append to {self.path}: its last line is "
                                             "unterminated; end or remove that line first")
                fh.write(text.encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StorageFailure(f"cannot append to {self.path}: {exc}") from exc
        return records

    def records(self, merchant: str | None = None) -> list[Record]:
        """All records in file order, or those of one ``merchant``, as a new list.

        Lines end with ``"\\n"`` only.  A final non-blank line that fails to
        decode or parse is treated as a torn write and skipped with a
        warning; any earlier damage raises :class:`StorageFailure` naming
        the physical line.  Every byte is validated whichever records are
        asked for, so ``records(m)`` warns and fails as ``records()`` does.

        The store keeps the newline-terminated prefix it last validated,
        with that prefix's records: when the file still starts with exactly
        those bytes, compared chunk by chunk without a copy of the file,
        only the bytes after them are read and parsed.  A torn or
        unterminated final line is never kept, so it is checked again on
        every read.  A missing log reads as empty and drops what was kept.
        A store object without a kept prefix takes it from the
        snapshot file when the snapshot's length fits, its digest matches
        the file's first bytes and its columns pass the record checks;
        otherwise the snapshot is ignored.  The records of a snapshot are
        built when first asked for: one merchant's on each ``records(m)``,
        all of them, once, on ``records()``.  After a read that parsed more
        records from the log than the snapshot holds, the kept prefix is
        written as the new snapshot.
        """
        try:
            with self.path.open("rb") as fh:
                warm = self._read_past_prefix(fh)
                data = fh.read()  # the file after the kept prefix, or all of it
        except (FileNotFoundError, NotADirectoryError):
            warm, data = False, b""  # a missing log reads as empty
        except OSError as exc:
            raise StorageFailure(f"cannot read {self.path}: {exc}") from exc
        start = 0  # data[:start] is covered by the snapshot
        if not warm:
            self._prefix, self._columns, self._prefix_records = b"", None, ()
            start, self._columns = self._load_snapshot(data)
            self._snapshot_records = len(self._columns[0]) if self._columns else 0
        tail = data[start:]
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
        out = []  # the records of the tail
        keep = len(lines) - 1  # lines[:keep] end with "\n" and join the kept prefix
        for i, line in enumerate(lines):
            if i == keep:
                kept_records = len(out)
            if line is not None and not line.strip():
                continue
            try:
                if line is None:
                    raise ValueError("not valid UTF-8")
                fields = decode_line(line)
            except (ValueError, RecursionError) as exc:
                if i == final:
                    warnings.warn(
                        f"{self.path}: skipping torn final line ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    keep, kept_records = i, len(out)
                    break
                number = self._prefix.count(b"\n") + data.count(b"\n", 0, start) + i + 1
                raise StorageFailure(f"{self.path}: corrupt record on line {number}") from exc
            try:
                out.append(record_from_dict(fields))
            except (ValueError, RecursionError) as exc:
                number = self._prefix.count(b"\n") + data.count(b"\n", 0, start) + i + 1
                raise StorageFailure(f"{self.path}: invalid record on line {number}: {exc}") from exc
        # the kept prefix ends where line ``keep`` of the tail starts
        end = len(tail)
        for _ in range(len(lines) - keep):
            end = tail.rfind(b"\n", 0, end)
        # slicing all of data or adding it to an empty prefix copies nothing,
        # so only a torn last line or a re-read's new lines cost a copy here
        self._prefix += data[: start + end + 1]
        self._prefix_records += tuple(out[:kept_records])
        held = len(self._prefix_records) + (len(self._columns[0]) if self._columns else 0)
        if held > 2 * self._snapshot_records:
            self._snapshot_records = held
            self._save_snapshot()
        if merchant is None:
            return [*self._built_prefix(), *out[kept_records:]]
        picked = [] if self._columns is None else _column_records(self._columns, merchant)
        picked += [r for r in self._prefix_records if r.merchant == merchant]
        picked += [r for r in out[kept_records:] if r.merchant == merchant]
        return picked

    def _read_past_prefix(self, fh) -> bool:
        """Whether ``fh`` starts with the kept prefix, compared one chunk at
        a time; then ``fh`` is past it, else back at its start."""
        prefix = self._prefix
        for at in range(0, len(prefix), _CHUNK):
            size = min(_CHUNK, len(prefix) - at)
            piece = fh.read(size)
            if len(piece) < size or not prefix.startswith(piece, at):
                fh.seek(0)
                return False
        return bool(prefix)

    def _built_prefix(self) -> tuple[Record, ...]:
        """The kept prefix's records, building those of the snapshot columns
        the first time."""
        if self._columns is not None:
            self._prefix_records = (*_column_records(self._columns), *self._prefix_records)
            self._columns = None
        return self._prefix_records

    def counts(self, merchant: str, variable: str) -> EvidenceCount:
        """Exact (r, s) tally from the log; (0, 0) for never-seen pairs."""
        variable = self.normalize(variable)
        return self.load_profile(merchant).counts.get(variable, EvidenceCount(0, 0))

    def load_profile(self, merchant: str) -> MerchantProfile:
        """Counts for every configured variable plus latest assessments.

        Assessment conflicts resolve latest-timestamp-wins, with later file
        order winning ties.
        """
        tallies: dict[str, list[int]] = {name: [0, 0] for name in CANONICAL_VARIABLES}
        assessments: dict[str, DirectAssessment] = {}
        for record in self.records(merchant):
            if isinstance(record, EvidenceRecord):
                pair = tallies.setdefault(record.variable, [0, 0])
                pair[0 if record.outcome == POSITIVE else 1] += 1
            else:
                current = assessments.get(record.variable)
                if current is None or record.timestamp >= current.timestamp:
                    assessments[record.variable] = record
        counts = {name: EvidenceCount(r, s) for name, (r, s) in tallies.items()}
        return MerchantProfile(merchant, counts, assessments)

    def _load_snapshot(self, data: bytes) -> tuple[int, tuple | None]:
        """The length and checked columns of the snapshot when it holds a
        prefix of ``data``, else ``(0, None)``."""
        try:
            head, _, payload = self._snapshot_path.read_bytes().partition(b"\n")
            header = json.loads(head)
            length = header["length"]
            if not (header["version"] == SNAPSHOT_VERSION and type(length) is int
                    and 0 < length <= len(data) and data[length - 1] == ord("\n")):
                return 0, None
            digest = hashlib.sha256(memoryview(data)[:length])
            digest.update(payload)
            if digest.hexdigest() != header["digest"]:
                return 0, None
            return length, _snapshot_columns(payload)
        except (OSError, ValueError, TypeError, KeyError, RecursionError):
            return 0, None

    def _save_snapshot(self) -> None:
        """Atomically replace the snapshot with the kept prefix; a failed
        write leaves the old snapshot, or none, and is not reported.  The
        snapshot gets the log's permission bits, as it holds the same data."""
        target = self._snapshot_path
        try:
            payload = _snapshot_payload(self._built_prefix())
            digest = hashlib.sha256(self._prefix)
            digest.update(payload)
            header = json.dumps({"digest": digest.hexdigest(), "length": len(self._prefix),
                                 "version": SNAPSHOT_VERSION}, sort_keys=True)
            fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp",
                                        dir=target.parent)
        except (OSError, ValueError):
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header.encode("ascii") + b"\n" + payload)
            os.chmod(temp, stat.S_IMODE(self.path.stat().st_mode))
            os.replace(temp, target)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp)
