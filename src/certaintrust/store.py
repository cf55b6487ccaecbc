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
is unterminated.  Every read outside ``with store.pinned():`` reads the
file afresh and leaves nothing in the store object.  Inside that block,
and any block nested in it, the log is read once, on entry, and every
read returns the records of that state; ``compare`` scores all its
merchants in one such block, so one ``compare`` is one read of the log
and every merchant is scored against the log as it stood then.

Next to the log, ``<log name>.snapshot`` keeps the records of a validated
prefix of it, so that a read parses only the lines after that prefix.
Its first line is a JSON header.  A JSON table line follows: the distinct
merchant and variable names in first-seen order and the number of
assessments.  Then come fixed-width little-endian columns, 17 bytes per
record: the timestamps (``<i8``), merchant ids and variable ids
(``<u4``), and a kind byte per record (``+`` and ``-`` for positive and
negative evidence, ``a`` for an assessment).  Last come ``c`` and then
``t_scaled`` per assessment (``<f8``):

    {"cut": 190, "digest": ["<head sha256>", "<rest sha256>"], "length": 230,
     "seal": "<sha256>", "stat": [2049, 131, 230, <mtime ns>, <ctime ns>], "version": 5}
    {"merchant":["A"],"variable":["Delivery","Privacy"],"assessments":1}
    <1, 2 as <i8><0, 0 as <u4><0, 1 as <u4>+a<0.6 as <f8><3.5 as <f8>

Every record fits these columns, as the record constructors take only
int64 timestamps and store ``c`` and ``t_scaled`` as floats.  A read that
skips a torn final line writes no snapshot.

Two SHA-256 digests tie the snapshot to the log: the head's covers the
prefix's first ``cut`` bytes, and the rest's the other prefix bytes and
then the snapshot after its header.  ``stat`` is the log's ``(st_dev,
st_ino, st_size, st_mtime_ns, st_ctime_ns)`` as the read that wrote the
snapshot found it, and ``seal`` one SHA-256 over the other header entries
and the payload.  On POSIX, a read whose log still has that stat and ends
at ``length``, whose stamped ctime is older than the snapshot file's
mtime, and whose seal and columns check, takes the snapshot without
reading or hashing the log.  This is Git's index stat cache with its
"racy clean" rule (Git, ``Documentation/technical/racy-git.txt``): user
space cannot set a ctime back, so any later change to the log changes its
stat, unless it lands in the clock tick of the stamp; a stamp not older
than the snapshot file is therefore not trusted, and its reads hash until
the snapshot is rewritten.  What such a read gives up: damage to the
log's prefix that leaves all five fields as they were, such as a bad disk
block or a write below the filesystem, goes unnoticed; the snapshot's own
bytes are still hashed.  Every other read hashes both digests: when the
header fits the log, one worker thread reads the head with ``os.pread``
and hashes it while the calling thread reads the log from ``cut`` to its
end, checks the columns and then hashes the rest; when no thread can be
started, the calling thread reads and hashes the head first.  The read
takes the snapshot only when both digests match and the columns pass, and
otherwise parses the bytes it has read, without reading the log again.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
import stat
import tempfile
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import StorageFailure
from .opinion import EvidenceCount

POSITIVE = "positive"
NEGATIVE = "negative"

EVIDENCE_KIND = "evidence"
ASSESSMENT_KIND = "assessment"

STORE_ENV_VAR = "CERTAIN_TRUST_STORE"

SNAPSHOT_SUFFIX = ".snapshot"
SNAPSHOT_VERSION = 5
#: one record's column checks, in bytes of SHA-256 time: the writer cuts the
#: digest so that the worker's read and hash of the head take as long as the
#: calling thread's read, checks and hash of the rest (on 2 shared cores with
#: SHA-NI, a cold hit of a 25k- or 10k-line log was fastest at 8-14 of 0-24,
#: within 1% of each other, and took 4% longer at 20, the best value when the
#: calling thread read the whole log before the worker started)
_CHECK_BYTES = 12
#: a read rewrites the snapshot when the records after it outnumber the
#: snapshot's, or both this many and a tenth of the snapshot's, so that no
#: read parses a much longer tail than that
_TAIL_LINES = 1000
#: whether ``st_ctime`` is the time of the last change to a file, which a
#: write cannot set back; on Windows it is the creation time
_CHANGE_TIMES = os.name == "posix"


def _check_common(merchant: str, variable: str, timestamp: int) -> int:
    """``timestamp`` as an ``int``, once it and the names pass."""
    if not isinstance(merchant, str) or not merchant.strip():
        raise ValueError(f"merchant must be a non-empty string, got {merchant!r}")
    if not isinstance(variable, str) or not variable.strip():
        raise ValueError(f"variable must be a non-empty string, got {variable!r}")
    if type(timestamp) is not int:  # any other integral type but bool, numpy's too
        if isinstance(timestamp, bool) or not hasattr(timestamp, "__index__"):
            raise ValueError(f"timestamp must be an integer, got {timestamp!r}")
        timestamp = operator.index(timestamp)
    if not -(2**63) <= timestamp < 2**63:
        raise ValueError(f"timestamp must fit int64, [-2**63, 2**63), got {timestamp!r}")
    return timestamp


def _check_number(name: str, value: float, upper: float, bounds: str) -> float:
    """``value`` as a float, once it is a number in ``[0, upper]``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, not bool, got {value!r}")
    try:
        # bounded as given, as float() would take a string; no bound admits
        # inf, which a log line would hold as the non-JSON Infinity
        if 0.0 <= value <= upper and (number := float(value)) != math.inf:
            return number
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int past the largest float
        pass
    raise ValueError(f"{name} must be {bounds}, got {value!r}")


# Each record class runs the checks above and writes its slots itself.  Log
# lines, snapshot records and callers all build records through these
# constructors, so a snapshot admits no record that a log line would not.
@dataclass(frozen=True, slots=True, init=False)
class EvidenceRecord:
    """One positive or negative observation for (merchant, variable)."""

    merchant: str
    variable: str
    outcome: str
    timestamp: int

    def __init__(self, merchant: str, variable: str, outcome: str, timestamp: int) -> None:
        timestamp = _check_common(merchant, variable, timestamp)
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
        timestamp = _check_common(merchant, variable, timestamp)
        c = _check_number("c", c, 1.0, "in [0, 1]")
        t_scaled = _check_number("t_scaled", t_scaled, math.inf, "non-negative and finite")
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
    """One merchant's evidence counts and latest assessment per variable,
    keyed by the variable names exactly as logged."""

    merchant: str
    counts: dict[str, EvidenceCount] = field(default_factory=dict)
    assessments: dict[str, DirectAssessment] = field(default_factory=dict)


def record_to_dict(record: Record) -> dict:
    """The record as a log line's fields: ``kind``, then its slots in order."""
    kind = EVIDENCE_KIND if isinstance(record, EvidenceRecord) else ASSESSMENT_KIND
    return {"kind": kind, **{name: getattr(record, name) for name in record.__slots__}}


def split_lines(data: bytes) -> list[str | None]:
    """The lines of a log or an ``ingest`` batch: ``data`` split at ``b"\\n"``
    alone, each decoded as UTF-8, or None where that fails.  Input that is
    all UTF-8, the usual case, is decoded in one call."""
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines: list[str | None] = []
        for raw in data.split(b"\n"):
            try:
                lines.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                lines.append(None)
        return lines


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
            return DirectAssessment(data["merchant"], data["variable"], data["c"],
                                    data["t_scaled"], data["timestamp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed record {data!r}: {exc}") from exc
    raise ValueError(f"unknown record kind {data.get('kind')!r}")


#: the kind byte of snapshot evidence, and back, and of an assessment
_KINDS = {POSITIVE: ord("+"), NEGATIVE: ord("-")}
_OUTCOMES = {kind: outcome for outcome, kind in _KINDS.items()}
_ASSESSED = ord("a")
#: the largest c, and the largest t_scaled: the largest finite float
_UPPER = np.array([[1.0], [np.finfo(np.float64).max]])


def _snapshot_payload(records) -> bytes:
    """The records as a JSON table line and fixed-width binary columns.

    The table holds the distinct merchant and variable names in first-seen
    order and the number of assessments.  The columns follow it: the
    timestamps as ``<i8``, merchant ids and variable ids as ``<u4``, a kind
    byte per record (``+`` or ``-`` for evidence, ``a`` for an assessment),
    then ``c`` and then ``t_scaled`` per assessment as ``<f8``."""
    stamps = np.array([r.timestamp for r in records], "<i8").tobytes()
    merchants: dict[str, int] = {}
    variables: dict[str, int] = {}
    mids = [merchants.setdefault(r.merchant, len(merchants)) for r in records]
    vids = [variables.setdefault(r.variable, len(variables)) for r in records]
    assessments = [r for r in records if isinstance(r, DirectAssessment)]
    numbers = [r.c for r in assessments] + [r.t_scaled for r in assessments]
    kinds = bytes([_KINDS[r.outcome] if isinstance(r, EvidenceRecord) else _ASSESSED
                   for r in records])
    table = {"merchant": list(merchants), "variable": list(variables),
             "assessments": len(assessments)}
    columns = [stamps, np.array(mids, "<u4").tobytes(), np.array(vids, "<u4").tobytes(), kinds,
               np.array(numbers, "<f8").tobytes()]
    line = json.dumps(table, separators=(",", ":"), check_circular=False).encode("ascii")
    return b"\n".join([line, b"".join(columns)])


def _snapshot_columns(data: bytes, start: int) -> tuple:
    """The checked columns of the snapshot payload at ``data[start:]``:
    kinds, merchant ids, variable ids, timestamps, the rows of the
    assessments, merchant names, variable names, ``c``, ``t_scaled`` and
    the id of each merchant name.  The fixed-width columns are views of
    ``data``; only the table line and the kind bytes are copied.  A blob
    whose length does not fit the table, an id outside its table, a
    duplicate merchant name, or any record that the record constructors
    would reject raise ValueError or TypeError, so a snapshot is taken or
    ignored whole without building its records."""
    at = data.find(b"\n", start) + 1 or len(data)  # where the blob starts
    table = json.loads(data[start:at])
    names, variables, m = table["merchant"], table["variable"], table["assessments"]
    n, rest = divmod(len(data) - at - 16 * m, 17)
    if not (type(names) is type(variables) is list and type(m) is int and 0 <= m <= n
            and not rest):
        raise ValueError("snapshot tables are not lists that fit the blob")
    stamps = np.frombuffer(data, "<i8", n, at)
    mids = np.frombuffer(data, "<u4", n, at + 8 * n)
    vids = np.frombuffer(data, "<u4", n, at + 12 * n)
    kind_bytes = data[at + 16 * n:at + 17 * n]
    kinds = np.frombuffer(kind_bytes, np.uint8)
    numbers = np.frombuffer(data, "<f8", 2 * m, at + 17 * n).reshape(2, m)  # c, then t_scaled
    assessed = np.flatnonzero(kinds >= _ASSESSED)
    index = dict(zip(names, range(len(names))))
    # str.strip raises TypeError for a name that is not a string; a NaN
    # fails both bounds
    if not (all(map(str.strip, names)) and all(map(str.strip, variables))
            and len(index) == len(names) and not kind_bytes.translate(None, b"+-a")
            and len(assessed) == m
            and (mids < len(names)).all() and (vids < len(variables)).all()
            and ((0.0 <= numbers) & (numbers <= _UPPER)).all()):
        raise ValueError("snapshot holds a record the checks reject")
    return kinds, mids, vids, stamps, assessed, names, variables, numbers[0], numbers[1], index


def _column_records(columns: tuple | None, merchant: str | None = None) -> list[Record]:
    """The records of checked snapshot columns, all of them or one
    merchant's, in order, built by the same constructors as log lines;
    none for no columns."""
    if columns is None:
        return []
    kinds, mids, vids, stamps, assessed, names, variables, cs, ts, index = columns
    if merchant is None:
        rows = np.arange(len(kinds))
    elif merchant in index:
        rows = np.flatnonzero(mids == index[merchant])
    else:
        return []
    # an assessment row's position among the assessment rows indexes c and t_scaled
    out = []
    for kind, m, v, t, a in zip(kinds[rows].tolist(), mids[rows].tolist(), vids[rows].tolist(),
                                stamps[rows].tolist(), assessed.searchsorted(rows).tolist()):
        if kind in _OUTCOMES:
            out.append(EvidenceRecord(names[m], variables[v], _OUTCOMES[kind], t))
        else:
            out.append(DirectAssessment(names[m], variables[v], cs.item(a), ts.item(a), t))
    return out


def _stamp(log: os.stat_result) -> list[int]:
    """The ``stat`` entry of a snapshot header for a log whose stat is ``log``."""
    return [log.st_dev, log.st_ino, log.st_size, log.st_mtime_ns, log.st_ctime_ns]


def _seal(header: dict, payload) -> str:
    """The hex SHA-256 of a snapshot's header entries other than ``seal``,
    serialized as the writer does, a newline, and then ``payload``."""
    seal = hashlib.sha256(json.dumps({key: value for key, value in header.items()
                                      if key != "seal"}, sort_keys=True).encode("ascii") + b"\n")
    seal.update(payload)
    return seal.hexdigest()


def _pread_head(fd: int, size: int) -> bytes:
    """The first ``size`` bytes of the file ``fd``, or all of a shorter one,
    read with ``os.pread``, which reads at most 0x7ffff000 bytes a call on
    Linux."""
    data = os.pread(fd, size, 0)
    while len(data) != size and (more := os.pread(fd, size - len(data), len(data))):
        data += more
    return data


class EvidenceStore:
    """Single-writer append-only store over one JSON-lines file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        # the read of the open pinned() scope, as _read returns it
        self._held: tuple[tuple | None, list[Record]] | None = None

    @property
    def _snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + SNAPSHOT_SUFFIX)

    def append(self, *records: Record) -> None:
        """Durably append a batch, each record's names exactly as built.

        The store matches no name: a caller that scores under a config
        passes the config's spellings, as ``ingest`` does.  A file whose
        last line has no ``"\\n"`` (a torn write) is refused with
        :class:`StorageFailure` and left as it was, as the batch's first
        line would join it.  The batch is written with one write and one
        fsync; an empty batch writes nothing.
        """
        if not records:
            return
        text = "".join(json.dumps(record_to_dict(r), ensure_ascii=False, sort_keys=True) + "\n"
                       for r in records)
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

    def records(self, merchant: str | None = None) -> list[Record]:
        """All records in file order, or those of one ``merchant``, as a new list.

        Lines are those of :func:`split_lines`.  A final non-blank line that
        fails to decode as UTF-8 or JSON is treated as a torn write and
        skipped with a warning, as a cut write never ends in complete JSON;
        a final line of JSON that the record checks reject, and any earlier
        damage, raise :class:`StorageFailure` naming the physical line.
        Every byte is validated whichever records are asked for, so
        ``records(m)`` warns and fails as ``records()`` does.

        Each call reads the file afresh, and a missing log reads as empty.
        The read takes the snapshot file when the snapshot's length fits,
        its digests match the file's first bytes and its columns pass the
        record checks, and then parses only the lines after that prefix;
        otherwise the snapshot is ignored.  On POSIX, a snapshot that
        covers the whole log and is stamped, not racily, with the log's
        stat as it is now is taken on that stamp, its seal and its columns,
        with no byte of the log read: damage to the log that leaves its
        stat as it was is then not seen (see the module docstring).  Each
        call builds only the snapshot records it returns.  When the lines
        after the snapshot hold more newline-terminated records than the
        snapshot does, or more than both ``_TAIL_LINES`` (1,000) and a
        tenth of the snapshot's records, the log's newline-terminated
        prefix is written as the new snapshot, stamped with the log's stat
        as the read took it, unless the read skipped a torn final line.

        Inside :meth:`pinned`, the file is not read: the records are those
        of the read on entry, which alone warns of a torn last line.
        """
        columns, rest = self._held or self._read(stacklevel=3)
        if merchant is None:
            return _column_records(columns) + rest
        return _column_records(columns, merchant) + [r for r in rest if r.merchant == merchant]

    @contextlib.contextmanager
    def pinned(self) -> Iterator[None]:
        """A read scope: the log is read once, on entry, and every
        :meth:`records` call inside returns what it would have returned
        then, without touching the file.  The entry read is a normal one:
        it validates every byte, warns and raises as :meth:`records` does
        and may write the snapshot.  Appends made inside the scope are seen
        by the first read after it.  A scope nested in another reads
        nothing and shares the outer read, which the outer exit drops."""
        if self._held is not None:  # nested: share the outer scope's read
            yield
            return
        self._held = self._read(stacklevel=4)  # past contextlib, to the with statement
        try:
            yield
        finally:
            self._held = None

    def _read(self, stacklevel: int) -> tuple[tuple | None, list[Record]]:
        """Read and validate the log and rewrite the snapshot as
        :meth:`records` describes, and return the checked snapshot columns,
        or None, and the records not in them.  A torn-line warning names
        the frame ``stacklevel`` calls up."""
        try:
            with self.path.open("rb") as fh:
                log = os.fstat(fh.fileno())
                head, data, start, columns = self._load_snapshot(fh, log)
        except (FileNotFoundError, NotADirectoryError):
            # a missing log reads as empty
            head, data, start, columns, log = b"", b"", 0, None, None
        except OSError as exc:
            raise StorageFailure(f"cannot read {self.path}: {exc}") from exc
        tail = data[start:]
        lines = split_lines(tail)
        final = len(lines) - 1  # the last non-blank line, the only one that may be torn
        while final >= 0 and lines[final] is not None and not lines[final].strip():
            final -= 1
        out = []  # the records of the tail
        for i, line in enumerate(lines):
            if line is not None and not line.strip():
                continue
            try:
                if line is None:
                    raise ValueError("not valid UTF-8")
                fields = decode_line(line)
            except (ValueError, RecursionError) as exc:
                if i == final:
                    warnings.warn(f"{self.path}: skipping torn final line ({exc})",
                                  RuntimeWarning, stacklevel=stacklevel)
                    return columns, out  # and writes no snapshot
                number = head.count(b"\n") + data.count(b"\n", 0, start) + i + 1
                raise StorageFailure(f"{self.path}: corrupt record on line {number}") from exc
            try:
                out.append(record_from_dict(fields))
            except (ValueError, RecursionError) as exc:
                number = head.count(b"\n") + data.count(b"\n", 0, start) + i + 1
                raise StorageFailure(f"{self.path}: invalid record on line {number}: {exc}") from exc
        # the records of newline-terminated lines: all but an unterminated last line's
        kept = len(out) - bool(lines[-1].strip())
        held = len(columns[0]) if columns else 0  # the records of the snapshot
        if kept > min(held, max(_TAIL_LINES, held // 10)):
            columns, out = None, _column_records(columns) + out
            end = start + tail.rfind(b"\n") + 1  # just past the log's last "\n"
            prefix = memoryview(b"".join((head, memoryview(data)[:end])))
            self._save_snapshot(prefix, out[: held + kept], log)
        return columns, out

    def counts(self, merchant: str, variable: str) -> EvidenceCount:
        """Exact (r, s) tally of the pair, names matched exactly; (0, 0) if never seen."""
        return self.load_profile(merchant).counts.get(variable, EvidenceCount(0, 0))

    def load_profile(self, merchant: str) -> MerchantProfile:
        """Tallies and latest assessment of each variable logged for ``merchant``.

        Assessment conflicts resolve latest-timestamp-wins, with later file
        order winning ties.
        """
        tallies: dict[str, list[int]] = {}
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

    def _load_snapshot(self, fh, log: os.stat_result) -> tuple[bytes, bytes, int, tuple | None]:
        """Read the open log ``fh``, whose ``os.fstat`` is ``log``, and take
        its snapshot when the snapshot holds a prefix of it: ``head``,
        ``data``, ``start`` and the checked columns, where ``head + data`` is
        the log as read and the snapshot covers it up to ``data[start]``; on
        a miss, ``b""``, the log, ``0`` and None.

        A snapshot stamped with ``log`` that covers the whole log, whose
        stamped ctime is older than its own mtime and whose seal and
        columns check is taken with no byte of the log read: ``b""``,
        ``b""``, ``0`` and the columns.  Otherwise, when the header fits the
        log, one worker thread reads the log's first ``cut`` bytes with
        ``os.pread`` and hashes them in one call (both release the GIL over
        large buffers), while this one reads from ``cut`` to the end, checks
        the columns and then hashes the rest.  With no thread, this one
        reads and hashes the head first; without ``os.pread``, this one
        reads the head and hands it to the worker.  What reading raises is
        raised here, the head's before the rest's.  Then a head read short,
        as when the log was cut after its size was taken, is a miss that
        returns the head alone, and a prefix that does not end at a newline
        is a miss.  Then what hashing raises is raised, the head's before
        the rest's and both before any error of the column checks, as if
        the digests had been computed first."""
        size = log.st_size
        try:
            with self._snapshot_path.open("rb") as sf:
                written = os.fstat(sf.fileno()).st_mtime_ns
                snapshot = sf.read()
            start = snapshot.find(b"\n") + 1 or len(snapshot)  # where the payload starts
            header = json.loads(snapshot[:start])
            length, cut = header["length"], header["cut"]
            fits = (header["version"] == SNAPSHOT_VERSION and type(length) is type(cut) is int
                    and 0 <= cut <= length <= size)
        except (OSError, ValueError, TypeError, KeyError, RecursionError):
            fits = False
        if not fits:
            return b"", fh.read(), 0, None
        if (_CHANGE_TIMES and length == size and log.st_ctime_ns < written
                and header.get("stat") == _stamp(log)):
            try:  # the log is as the read that wrote the snapshot found it
                if header.get("seal") == _seal(header, memoryview(snapshot)[start:]):
                    return b"", b"", 0, _snapshot_columns(snapshot, start)
            except (ValueError, TypeError, KeyError, RecursionError):
                pass
        fd, positional = fh.fileno(), hasattr(os, "pread")
        given = None if positional else fh.read(cut)  # without pread, this thread reads the head
        head = []  # the head's bytes, then their hex digest, or what reading or hashing raised

        def hash_head() -> None:
            try:
                head.append(_pread_head(fd, cut) if positional else given)
                head.append(hashlib.sha256(head[0]).hexdigest())
            except BaseException as exc:
                head.append(exc)

        worker: threading.Thread | None = threading.Thread(target=hash_head)
        try:
            worker.start()
        except RuntimeError:  # no thread can be started: read and hash the head here, first
            worker = None
            hash_head()
        try:
            fh.seek(cut)
            rest = fh.read()  # the prefix from the cut, then the tail
            try:
                columns = _snapshot_columns(snapshot, start)
            except Exception as exc:
                columns = exc
            try:
                digest = hashlib.sha256(memoryview(rest)[:length - cut])
                digest.update(memoryview(snapshot)[start:])
                second = digest.hexdigest()
            except Exception as exc:
                second = exc
        finally:  # joined whatever this thread raises; the head's read error replaces it
            if worker is not None:
                worker.join()
            if isinstance(head[0], BaseException):
                raise head[0]
        data = head[0]
        if len(data) < cut:  # the log was cut after its size was taken: parse what the head holds
            return b"", data, 0, None
        last = rest[length - cut - 1:length - cut] if cut < length else data[length - 1:length]
        try:
            if last == b"\n":  # a prefix read whole, of whole lines
                for outcome in head[1], second, columns:  # as if the digests had come first
                    if isinstance(outcome, BaseException):
                        raise outcome
                if [head[1], second] == header["digest"]:
                    return data, rest, length - cut, columns
        except (ValueError, TypeError, KeyError, RecursionError):
            pass
        return b"", data + rest, 0, None

    def _save_snapshot(self, prefix: memoryview, records: list[Record],
                       log: os.stat_result) -> None:
        """Atomically replace the snapshot with one of ``prefix``, the log's
        first bytes, which hold ``records``, stamped with ``log``, the log's
        ``os.fstat`` as read; a failed write leaves the old snapshot, or
        none, and is not reported.  The snapshot gets the log's permission
        bits, as it holds the same data."""
        target = self._snapshot_path
        try:
            payload = _snapshot_payload(records)
            cut = min(len(prefix), (len(prefix) + len(payload) + _CHECK_BYTES * len(records)) // 2)
            head, rest = hashlib.sha256(prefix[:cut]), hashlib.sha256(prefix[cut:])
            rest.update(payload)
            header = {"cut": cut, "digest": [head.hexdigest(), rest.hexdigest()],
                      "length": len(prefix), "stat": _stamp(log), "version": SNAPSHOT_VERSION}
            header["seal"] = _seal(header, payload)
            fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp",
                                        dir=target.parent)
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload)
            os.chmod(temp, stat.S_IMODE(self.path.stat().st_mode))
            os.replace(temp, target)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp)
