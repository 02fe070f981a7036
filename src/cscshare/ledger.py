"""Tamper-evident audit log for per-slot energy records and coefficients.

Each record carries the public identifier of its counting point, the slot
timestamp, a payload, and the hash of the previous record; the chain makes
any later modification of a stored record detectable. This is a single
process, single chain structure: no consensus, no replication, no payload
encryption.

Serialization is canonical (fixed field order, integers in decimal, no
whitespace) so that re-reading a ledger file reproduces the exact bytes
and hashes. Payloads are therefore restricted to JSON trees of strings,
integers, booleans and null; floats are rejected because their textual
form is not canonical across writers. Render decimals as strings.

Each payload is encoded once; the hash material and the line are spliced
from that encoding. Reading rejects any line that is not its record's
canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

from cscshare.model import parse_timestamp

GENESIS_HASH = "0" * 64

# Reserved counting-point key for repartition coefficient records.
KOR_COUNTING_POINT = "KOR"

# The one canonical encoder: sorted keys, no whitespace, ASCII only.
# Payloads are trees (append checks them, the decoder builds them), so the
# cycle check is skipped.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
).encode


def _reject_number(text: str) -> Any:
    raise ValueError(f"non-canonical number {text}: floats are not allowed")


# Decodes ledger lines; with floats and NaN/Infinity refused, every tree it
# returns holds only what _check_payload accepts.
_decode = json.JSONDecoder(
    parse_float=_reject_number, parse_constant=_reject_number
).decode

_FLAT = (str, int, type(None))  # bool is an int


def _check_payload(value: Any, path: str = "payload") -> None:
    """Reject anything but a JSON tree of strings, integers, booleans and
    null, naming the path of the first offending value."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{path}: non-string key {key!r}")
            if not isinstance(item, _FLAT):
                _check_payload(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if not isinstance(item, _FLAT):
                _check_payload(item, f"{path}[{i}]")
    elif not isinstance(value, _FLAT):
        raise ValueError(
            f"{path}: {type(value).__name__} is not canonically serializable; "
            "use strings for decimals"
        )


def _record_hash(
    counting_point_key: str, timestamp_iso: str, payload_json: str, prev_hash: str
) -> str:
    """SHA-256 of the canonical JSON array [key, timestamp, payload, prev]."""
    material = (
        f"[{_quote(counting_point_key)},{_quote(timestamp_iso)},"
        f"{payload_json},{_quote(prev_hash)}]"
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _line(
    counting_point_key: str,
    hash_: str,
    payload_json: str,
    prev_hash: str,
    timestamp_iso: str,
) -> str:
    """The canonical JSON object of a record, keys in sorted order."""
    return (
        f'{{"counting_point_key":{_quote(counting_point_key)},'
        f'"hash":{_quote(hash_)},"payload":{payload_json},'
        f'"prev_hash":{_quote(prev_hash)},"timestamp":{_quote(timestamp_iso)}}}'
    )


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One chained record.

    ``payload_json`` is the canonical encoding of ``payload``; the hash and
    the line are built from it. It is computed from ``payload`` when not
    given, and a caller that gives it must give exactly that encoding.
    """

    counting_point_key: str
    timestamp: datetime
    payload: Mapping[str, Any]
    prev_hash: str
    hash: str
    payload_json: str | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        if self.payload_json is None:
            payload = dict(self.payload)
            object.__setattr__(self, "payload", payload)
            object.__setattr__(self, "payload_json", _encode(payload))

    def timestamp_iso(self) -> str:
        return self.timestamp.isoformat()

    def to_line(self) -> str:
        """Canonical one-line serialization, including the record hash."""
        return _line(
            self.counting_point_key,
            self.hash,
            self.payload_json,
            self.prev_hash,
            self.timestamp_iso(),
        )

    def recompute_hash(self) -> str:
        return _record_hash(
            self.counting_point_key,
            self.timestamp_iso(),
            self.payload_json,
            self.prev_hash,
        )


@dataclass(frozen=True)
class ChainReport:
    intact: bool
    first_break: int | None = None
    message: str = "intact"


class Ledger:
    """Append-only hash chain. Single writer; snapshots are safe to share."""

    def __init__(self, records: Iterable[AuditRecord] = ()):
        self._records: list[AuditRecord] = list(records)
        self._last_ts: dict[str, datetime] = {}
        for r in self._records:
            self._last_ts[r.counting_point_key] = r.timestamp
        # the last timestamp object checked and its ISO text; the records
        # of one slot are appended with the same object
        self._stamp: datetime | None = None
        self._stamp_iso = ""

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    @property
    def head_hash(self) -> str:
        return self._records[-1].hash if self._records else GENESIS_HASH

    def append(
        self,
        payload: Mapping[str, Any],
        counting_point_key: str,
        timestamp: datetime,
    ) -> AuditRecord:
        """Chain a new record to the head.

        Timestamps must not regress within one counting point; equal
        timestamps are allowed (several policies may log the same slot).
        """
        if timestamp is not self._stamp:
            if timestamp.tzinfo is None or timestamp.utcoffset() is None:
                raise ValueError("record timestamp has no UTC offset")
            self._stamp = timestamp
            self._stamp_iso = timestamp.isoformat()
        payload = dict(payload)
        _check_payload(payload)
        last = self._last_ts.get(counting_point_key)
        if last is not None and timestamp < last:
            raise ValueError(
                f"timestamp regression for {counting_point_key}: "
                f"{timestamp.isoformat()} < {last.isoformat()}"
            )
        prev_hash = self.head_hash
        payload_json = _encode(payload)
        record = AuditRecord(
            counting_point_key=counting_point_key,
            timestamp=timestamp,
            payload=payload,
            prev_hash=prev_hash,
            hash=_record_hash(
                counting_point_key, self._stamp_iso, payload_json, prev_hash
            ),
            payload_json=payload_json,
        )
        self._records.append(record)
        self._last_ts[counting_point_key] = timestamp
        return record


def _with_iso(records: Iterable[AuditRecord]) -> Iterator[tuple[AuditRecord, str]]:
    """Pair each record with its timestamp's ISO text, formatting each run
    of one timestamp object once: the records of a slot share it."""
    timestamp = iso = None
    for record in records:
        if record.timestamp is not timestamp:
            timestamp = record.timestamp
            iso = timestamp.isoformat()
        yield record, iso


def verify_chain(ledger: Ledger | Iterable[AuditRecord]) -> ChainReport:
    """Recompute every hash and link; report the first break, if any.

    Truncating records off the tail is not detectable without an external
    anchor for the head hash; persist the head out of band if that matters.
    """
    prev_hash = GENESIS_HASH
    for i, (record, iso) in enumerate(_with_iso(ledger)):
        if record.prev_hash != prev_hash:
            return ChainReport(False, i, f"broken link at record {i}")
        recomputed = _record_hash(
            record.counting_point_key, iso, record.payload_json, record.prev_hash
        )
        if recomputed != record.hash:
            return ChainReport(False, i, f"hash mismatch at record {i}")
        prev_hash = record.hash
    return ChainReport(True)


def write_ledger(ledger: Ledger | Iterable[AuditRecord], target: str | Path | TextIO) -> None:
    """Write one canonical line per record, streaming."""
    lines = (
        f"{_line(r.counting_point_key, r.hash, r.payload_json, r.prev_hash, iso)}\n"
        for r, iso in _with_iso(ledger)
    )
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(lines)
    else:
        target.writelines(lines)


def _parse_record(line: str, timestamps: dict[str, datetime]) -> AuditRecord:
    obj = _decode(line)
    payload = obj["payload"]
    if not isinstance(payload, dict):
        raise ValueError("non-canonical payload: not a JSON object")
    payload_json = _encode(payload)
    timestamp_text = obj["timestamp"]
    # whitespace, key order, duplicate or extra keys and escapes all
    # change a line's bytes without changing what json.loads returns
    canonical = _line(
        obj["counting_point_key"], obj["hash"], payload_json, obj["prev_hash"],
        timestamp_text,
    )
    if canonical != line:
        raise ValueError("non-canonical line: its bytes differ from the record's")
    timestamp = timestamps.get(timestamp_text)
    if timestamp is None:
        timestamp = parse_timestamp(timestamp_text)
        # datetime parsing is more lenient than the canonical form
        # (e.g. any date/time separator); a record whose stored text
        # does not round-trip has been altered
        if timestamp.isoformat() != timestamp_text:
            raise ValueError(f"non-canonical timestamp {timestamp_text!r}")
        timestamps[timestamp_text] = timestamp
    return AuditRecord(
        counting_point_key=obj["counting_point_key"],
        timestamp=timestamp,
        payload=payload,
        prev_hash=obj["prev_hash"],
        hash=obj["hash"],
        payload_json=payload_json,
    )


def _parse_lines(lines: Iterable[str]) -> Iterator[AuditRecord]:
    # records of one slot share one datetime, as they do when appended
    timestamps: dict[str, datetime] = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            record = _parse_record(
                line[:-1] if line.endswith("\n") else line, timestamps
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"ledger line {lineno}: malformed record ({exc})") from None
        yield record


def read_ledger(source: str | Path | TextIO) -> Ledger:
    """Parse a ledger file, line by line. Every line must be its record's
    canonical serialization. Chain integrity is checked by verify_chain,
    not here; reading a tampered file must succeed so it can be reported."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="\n") as stream:
            return Ledger(_parse_lines(stream))
    return Ledger(_parse_lines(source))
