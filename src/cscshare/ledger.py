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

A ``Ledger`` is its canonical lines, exactly as the log file holds them,
and nothing else: ``append`` and ``read_ledger`` are the only ways lines
get in. ``append`` encodes each payload once and splices the hash
material and the line from that encoding; writing copies the lines out.
Reading rejects any line that is not its record's canonical
serialization, and decodes and checks each distinct payload text once.
Records are read-only views: iterating a ``Ledger`` parses them from its
lines with the reader's checker, and ``verify_chain`` re-hashes the
material it splices from each line's own slices.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NoReturn, TextIO

from cscshare.model import parse_timestamp

GENESIS_HASH = "0" * 64

# Reserved counting-point key for repartition coefficient records.
KOR_COUNTING_POINT = "KOR"

# The one canonical encoder: sorted keys, no whitespace, ASCII only, and no
# cycle check, as payloads are trees (append checks them, the decoder
# builds them). JSONEncoder.encode would build it anew on every call.
_chunks = c_make_encoder(
    markers=None, default=json.JSONEncoder().default, encoder=_quote, indent=None,
    key_separator=":", item_separator=",", sort_keys=True, skipkeys=False, allow_nan=True,
)


def _encode(payload: Mapping[str, Any]) -> str:
    return "".join(_chunks(payload, 0))


def _reject_number(text: str) -> Any:
    raise ValueError(f"non-canonical number {text}: floats are not allowed")


# Decodes ledger lines; with floats and NaN/Infinity refused, every tree it
# returns holds only what _check_payload accepts.
_decode = json.JSONDecoder(
    parse_float=_reject_number, parse_constant=_reject_number
).decode

_FLAT = (str, int, type(None))  # bool is an int
_SCALARS = frozenset((*_FLAT, bool))


def _check_payload(value: Any, path: str = "payload") -> None:
    """Reject anything but a JSON tree of strings, integers, booleans and
    null, naming the path of the first offending value."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{path}: non-string key {key!r}")
            _check_payload(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_payload(item, f"{path}[{i}]")
    elif not isinstance(value, _FLAT):
        raise ValueError(
            f"{path}: {type(value).__name__} is not canonically serializable; "
            "use strings for decimals"
        )


def _check_shallow(payload: dict) -> None:
    """``_check_payload``, in one pass over a flat payload or one of flat objects."""
    for key, value in payload.items():
        if type(key) is str and type(value) in _SCALARS:
            continue
        if type(key) is str and type(value) is dict:
            for k, v in value.items():
                if type(k) is not str or type(v) not in _SCALARS:
                    return _check_payload(payload)
            continue
        return _check_payload(payload)


def _record_hash(key_json: str, timestamp_json: str, payload_json: str, prev_json: str) -> str:
    """SHA-256 of the JSON array [key, timestamp, payload, prev], spliced
    from the JSON texts of its four members."""
    material = f"[{key_json},{timestamp_json},{payload_json},{prev_json}]"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _line(
    counting_point_key: str,
    hash_: str,
    payload_json: str,
    prev_hash: str,
    timestamp: str,
) -> str:
    """The canonical JSON object of a record, keys in sorted order."""
    return (
        f'{{"counting_point_key":{_quote(counting_point_key)},'
        f'"hash":{_quote(hash_)},"payload":{payload_json},'
        f'"prev_hash":{_quote(prev_hash)},"timestamp":{_quote(timestamp)}}}'
    )


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One chained record, a read-only view that iterating a ``Ledger``
    parses from a line; ``payload_json`` is the payload's text there."""

    counting_point_key: str
    timestamp: datetime
    payload: Mapping[str, Any]
    prev_hash: str
    hash: str
    payload_json: str = field(repr=False, kw_only=True)


@dataclass(frozen=True)
class ChainReport:
    intact: bool
    first_break: int | None = None
    message: str = "intact"


class Ledger:
    """Append-only hash chain, held as its canonical lines. Single writer.

    ``Ledger()`` is empty. A ledger that ``read_ledger`` returns takes its
    head hash and the last timestamp of each counting point from the
    checked lines, so it can be appended to as well.
    """

    def __init__(self):
        # each line ends in "\n"
        self._lines: list[str] = []
        self._head = GENESIS_HASH
        self._head_json = f'"{GENESIS_HASH}"'
        self._last_ts: dict[str, datetime] = {}
        # the last timestamp object checked and its quoted ISO text; the
        # records of one slot are appended with the same object
        self._stamp: datetime | None = None
        self._stamp_json = ""
        self._key_json: dict[str, str] = {}

    def _load(self, lines: Iterable[str] | Iterable[bytes]) -> None:
        """Keep each line that ``_parse_lines`` accepts, ending it in a newline."""
        kept, last_ts = self._lines, self._last_ts
        fields = None
        for line, fields in _parse_lines(lines, keep_payloads=False):
            kept.append(line if line.endswith("\n") else f"{line}\n")
            last_ts[fields[0]] = fields[1]
        if fields is not None:
            self._head, self._head_json = fields[5], f'"{fields[6]}"'

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[AuditRecord]:
        for _, (key, timestamp, payload, payload_json, prev_hash, hash_, _) in _parse_lines(
            self._lines
        ):
            yield AuditRecord(key, timestamp, payload, prev_hash, hash_, payload_json=payload_json)

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self)

    @property
    def head_hash(self) -> str:
        return self._head

    def append(
        self,
        payload: Mapping[str, Any],
        counting_point_key: str,
        timestamp: datetime,
    ) -> str:
        """Chain a new record to the head and return its hash.

        Timestamps must not regress within one counting point; equal
        timestamps are allowed (several policies may log the same slot).
        """
        if timestamp is not self._stamp:
            if timestamp.tzinfo is None or timestamp.utcoffset() is None:
                raise ValueError("record timestamp has no UTC offset")
            self._stamp = timestamp
            self._stamp_json = _quote(timestamp.isoformat())
        if not isinstance(payload, dict):
            payload = dict(payload)
        _check_shallow(payload)
        last = self._last_ts.get(counting_point_key)
        if last is not None and last is not timestamp and timestamp < last:
            raise ValueError(
                f"timestamp regression for {counting_point_key}: "
                f"{timestamp.isoformat()} < {last.isoformat()}"
            )
        key_json = self._key_json.get(counting_point_key)
        if key_json is None:
            key_json = self._key_json[counting_point_key] = _quote(counting_point_key)
        stamp_json, prev_json = self._stamp_json, self._head_json
        payload_json = _encode(payload)
        hash_ = _record_hash(key_json, stamp_json, payload_json, prev_json)
        # _line of the same values; a hex digest is its own JSON text
        self._lines.append(
            f'{{"counting_point_key":{key_json},"hash":"{hash_}","payload":{payload_json},'
            f'"prev_hash":{prev_json},"timestamp":{stamp_json}}}\n'
        )
        self._head, self._head_json = hash_, f'"{hash_}"'
        self._last_ts[counting_point_key] = timestamp
        return hash_


# The fixed layout of a line (README "Audit ledger"): the text before,
# between and after its four string fields and its payload.
_HEAD = '{"counting_point_key":"'
_AT_HASH = '","hash":"'
_AT_PAYLOAD = '","payload":'
_AT_PREV_HASH = ',"prev_hash":"'
_AT_TIMESTAMP = '","timestamp":"'
_TAIL = '"}'


def _cuts(line: str, stop: int) -> tuple[int, int, int, int, int] | None:
    """Where the separators of the fixed layout fall in ``line[:stop]``:
    the offsets of ``_AT_HASH``, ``_AT_PAYLOAD``, ``_AT_PREV_HASH``,
    ``_AT_TIMESTAMP`` and ``_TAIL``, or None if one is missing.

    The line is cut forwards past the key and the hash, and backwards past
    the timestamp and the previous hash, so the payload is what lies
    between. A canonical JSON string holds no quote that is not escaped,
    so in a line ``_line`` renders no separator occurs inside the field it
    is searched across, and the cuts fall where the layout puts them.
    ``line[stop:]`` may only be a line end, which no separator contains.
    """
    if not (line.startswith(_HEAD) and line.endswith(_TAIL, 0, stop)):
        return None
    at_hash = line.find(_AT_HASH, len(_HEAD))
    if at_hash < 0:
        return None
    at_payload = line.find(_AT_PAYLOAD, at_hash + len(_AT_HASH))
    if at_payload < 0:
        return None
    payload_start = at_payload + len(_AT_PAYLOAD)
    end = stop - len(_TAIL)
    at_timestamp = line.rfind(_AT_TIMESTAMP, payload_start, end)
    if at_timestamp < 0:
        return None
    at_prev_hash = line.rfind(_AT_PREV_HASH, payload_start, at_timestamp)
    if at_prev_hash < 0:
        return None
    return at_hash, at_payload, at_prev_hash, at_timestamp, end


def verify_chain(ledger: Ledger) -> ChainReport:
    """Recompute every hash and link of a ledger's lines; report the first
    break, if any.

    Each line's hash material is spliced from the line's own slices. A
    ``Ledger`` holds only canonical lines, and canonical quoting is
    one-to-one, so a link holds iff the previous-hash text equals the
    previous line's hash text.

    Truncating records off the tail is not detectable without an external
    anchor for the head hash; persist the head out of band if that matters.
    """
    # how far past its separator each field starts; the key, timestamp and
    # previous-hash slices of the hash material keep their quotes
    key_from, hash_from = len(_HEAD) - 1, len(_AT_HASH)
    payload_from, prev_from = len(_AT_PAYLOAD), len(_AT_PREV_HASH)
    timestamp_from = len(_AT_TIMESTAMP) - 1
    prev_text = GENESIS_HASH
    for i, line in enumerate(ledger._lines):
        at_hash, at_payload, at_prev_hash, at_timestamp, end = _cuts(line, len(line) - 1)
        if line[at_prev_hash + prev_from:at_timestamp] != prev_text:
            return ChainReport(False, i, f"broken link at record {i}")
        hash_ = _record_hash(
            line[key_from:at_hash + 1],
            line[at_timestamp + timestamp_from:end + 1],
            line[at_payload + payload_from:at_prev_hash],
            line[at_prev_hash + prev_from - 1:at_timestamp + 1],
        )
        prev_text = line[at_hash + hash_from:at_payload]
        if hash_ != prev_text:
            return ChainReport(False, i, f"hash mismatch at record {i}")
    return ChainReport(True)


def write_ledger(ledger: Ledger, target: str | Path | TextIO) -> None:
    """Write one canonical line per record: a ``Ledger``'s lines as they are."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(ledger._lines)
    else:
        target.writelines(ledger._lines)


def _string(text: str) -> str | None:
    """The string whose canonical JSON form is ``"text"``, else None."""
    quoted = f'"{text}"'
    try:
        value = _decode(quoted)
    except ValueError:
        return None
    return value if _quote(value) == quoted else None


def _split(
    line: str,
    stop: int,
    last_hash_text: str,
    last_hash: str,
    keys: dict[str, str],
    timestamps: dict[str, datetime],
    payloads: dict[str, tuple[dict | None, str]],
    keep_payloads: bool,
) -> tuple[str, datetime, dict | None, str, str, str, str] | None:
    """The fields of the canonical line ``line[:stop]`` (key, timestamp,
    payload, payload text, previous hash, hash, hash text), or None for
    any other line. Without ``keep_payloads`` the payload is checked but
    not kept, and None stands for it.

    The line is cut by ``_cuts`` and accepted iff each piece is the
    canonical form of its value, which is iff the line is ``_line`` of
    those values.

    Keys, timestamps and payloads repeat: each distinct text is checked
    once and its value kept in the caller's dicts, so the records that
    hold it share one object. A previous hash whose text is the last
    line's hash text is that line's hash.
    """
    cuts = _cuts(line, stop)
    if cuts is None:
        return None
    at_hash, at_payload, at_prev_hash, at_timestamp, end = cuts

    key_text = line[len(_HEAD):at_hash]
    key = keys.get(key_text)
    if key is None:
        key = _string(key_text)
        if key is None:
            return None
        keys[key_text] = key

    hash_text = line[at_hash + len(_AT_HASH):at_payload]
    # a hash needing no escape is its own text
    hash_ = hash_text if _quote(hash_text)[1:-1] == hash_text else _string(hash_text)
    if hash_ is None:
        return None

    prev_text = line[at_prev_hash + len(_AT_PREV_HASH):at_timestamp]
    prev_hash = last_hash if prev_text == last_hash_text else _string(prev_text)
    if prev_hash is None:
        return None

    timestamp_text = line[at_timestamp + len(_AT_TIMESTAMP):end]
    timestamp = timestamps.get(timestamp_text)
    if timestamp is None:
        try:
            timestamp = parse_timestamp(timestamp_text)
        except ValueError:
            return None
        # datetime parsing is more lenient than the canonical form (e.g.
        # any date/time separator); isoformat() needs no JSON escape
        if timestamp.isoformat() != timestamp_text:
            return None
        timestamps[timestamp_text] = timestamp

    payload_text = line[at_payload + len(_AT_PAYLOAD):at_prev_hash]
    cached = payloads.get(payload_text)
    if cached is None:
        try:
            payload = _decode(payload_text)
        except ValueError:
            return None
        if not isinstance(payload, dict) or _encode(payload) != payload_text:
            return None
        cached = payloads[payload_text] = (payload if keep_payloads else None, payload_text)
    payload, payload_json = cached

    return key, timestamp, payload, payload_json, prev_hash, hash_, hash_text


def _reject(line: str) -> NoReturn:
    """Raise the error that says why ``_split`` refused a line.

    The line is rejected either way; the full decode only words the error.
    """
    obj = _decode(line)
    payload = obj["payload"]
    if not isinstance(payload, dict):
        raise ValueError("non-canonical payload: not a JSON object")
    timestamp_text = obj["timestamp"]
    # whitespace, key order, duplicate or extra keys and escapes all
    # change a line's bytes without changing what json.loads returns
    canonical = _line(
        obj["counting_point_key"], obj["hash"], _encode(payload), obj["prev_hash"],
        timestamp_text,
    )
    if canonical == line and parse_timestamp(timestamp_text).isoformat() != timestamp_text:
        raise ValueError(f"non-canonical timestamp {timestamp_text!r}")
    raise ValueError("non-canonical line: its bytes differ from the record's")


def _parse_lines(
    lines: Iterable[str] | Iterable[bytes], keep_payloads: bool = True
) -> Iterator[tuple[str, tuple[str, datetime, dict | None, str, str, str, str]]]:
    """Each line, decoded, with the fields ``_split`` checked; the first
    line that is not canonical, or not UTF-8, raises ValueError with its
    number."""
    keys: dict[str, str] = {}
    # records of one slot share one datetime, as they do when appended
    timestamps: dict[str, datetime] = {}
    payloads: dict[str, tuple[dict | None, str]] = {}
    last_hash_text = last_hash = ""
    for lineno, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            stop = len(line) - 1 if line.endswith("\n") else len(line)
            fields = _split(
                line, stop, last_hash_text, last_hash, keys, timestamps, payloads, keep_payloads
            )
            if fields is None:
                _reject(line[:stop])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # RecursionError: a payload nested too deep for the decoder
            raise ValueError(f"ledger line {lineno}: malformed record ({exc})") from None
        last_hash, last_hash_text = fields[5], fields[6]
        yield line, fields


def read_ledger(source: str | Path | TextIO) -> Ledger:
    """Parse a ledger file, line by line. Every line must be its record's
    canonical serialization, ending in a newline (the last line may lack
    it). Chain integrity is checked by verify_chain, not here; reading a
    tampered file must succeed so it can be reported."""
    ledger = Ledger()
    if isinstance(source, (str, Path)):
        # as bytes, so that invalid UTF-8 is reported with its line number
        with open(source, "rb") as stream:
            ledger._load(stream)
        return ledger
    ledger._load(source)
    # a text stream that translates line ends hands "\r\n" over as "\n";
    # it records what it translated
    newlines = getattr(source, "newlines", None) or ()
    if isinstance(newlines, str):
        newlines = (newlines,)
    ends = [end for end in newlines if end != "\n"]
    if ends:
        raise ValueError(
            f"non-canonical line end {', '.join(map(repr, ends))}: ledger lines end in '\\n'"
        )
    return ledger
