"""Tamper-evident audit log for per-slot energy records and coefficients.

Each record carries the public identifier of its counting point, the slot
timestamp, a payload, and the hash of the previous record; the chain makes
any later modification of a stored record detectable. This is a single
process, single chain structure: no consensus, no replication, no payload
encryption.

Serialization is canonical (fixed field order, integers in decimal, no
whitespace) so that a ledger file read back and continued reproduces
the exact bytes and hashes. Payloads are therefore restricted to JSON trees of strings,
integers, booleans and null; floats are rejected because their textual
form is not canonical across writers. Render decimals as strings.

A ``Ledger`` is its chain's head, record count, last timestamps and
first break, and it holds only the lines appended to it, as UTF-8
bytes. ``Ledger()`` keeps them in a list. ``Ledger(path)`` writes each
into a new file as it is appended, so a settlement never holds its log;
the runner streams into the staged ``audit.log``. ``read_ledger``
returns only the chain state of what it read, so read, append and write
gives the segment that continues the log read.
``append`` encodes each payload once and splices the hash material and
the line from the same texts, through the layout reading cuts at: a
record has one serialization, written and read.
A ``PayloadTemplate`` renders payloads of one fixed shape from integer
columns: its keys and constants are encoded once, and each row's
integers are filled into the text, which ``append`` takes as it is. The
lines are byte-identical to appending the payload dicts.
Reading walks each line once. It rejects any line that is not its
record's canonical serialization, checking each payload text it has not
checked yet (it keeps a bounded set of them): a text that the template
of a shape it checked before matches is canonical, and any other is
decoded, encoded and compared, and teaches the walk its shape. It then
checks the line's link and hashes the material it splices from the
line's own slices. A walk covers a range of lines; a log file large
enough is cut at line ends into one range per core, the caller walking
the first and a child forked by ``cscshare._fork`` each other one, which
sends back its walk as JSON, and the walks are stitched in order,
checking the link at each cut. The ledger keeps the first break, and
``verify_chain`` reports it. A line is the only form a record takes: the file format
(README "Audit ledger") is how to read one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
from collections import deque
from datetime import datetime
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from cscshare import _fork
from cscshare.model import Record, parse_timestamp

GENESIS_HASH = "0" * 64

# Bytes of payload text a read keeps as checked before it starts over.
# A year of 3 participants has ~4 MiB of distinct payload texts.
_CHECKED_PAYLOAD_BYTES = 16 << 20

# A read learns the templates of at most this many payload shapes (a
# settlement's log has 6), and drops them once they have missed this many
# texts more than they matched.
_SHAPES = 8

# A log file of this many bytes or more is read in ranges, one per core,
# up to _MAX_RANGES. In a fresh CLI process on 2 cores, which pays the
# fork, two ranges broke even between 1 and 2 MB (measurements in
# CHANGES.md).
_RANGED_BYTES = 2 << 20
_MAX_RANGES = 4

# Reserved counting-point key for repartition coefficient records.
KOR_COUNTING_POINT = "KOR"

# The one canonical encoder: sorted keys, no whitespace, ASCII only, and no
# cycle check, as payloads are trees (append checks them, the decoder
# builds them). JSONEncoder.encode would build it anew on every call.
_chunks = c_make_encoder(
    markers=None, default=json.JSONEncoder().default, encoder=_quote, indent=None,
    key_separator=":", item_separator=",", sort_keys=True, skipkeys=False, allow_nan=True,
)


def _encode(value: Any) -> str:
    return "".join(_chunks(value, 0))


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
            _check_payload(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_payload(item, f"{path}[{i}]")
    elif not isinstance(value, _FLAT):
        raise ValueError(
            f"{path}: {type(value).__name__} is not canonically serializable; "
            "use strings for decimals"
        )


class _Rendered(str):
    """A payload text a ``PayloadTemplate`` rendered: the canonical text of
    a checked payload by construction, which ``append`` takes as it is."""

    __slots__ = ()


def _fill(shape: dict, values: Iterator[Any]) -> dict:
    """``shape`` with its integer fields (``int``) taken from ``values``, in
    the shape's own order."""
    return {
        key: next(values) if value is int else _fill(value, values) if isinstance(value, dict) else value
        for key, value in shape.items()
    }


def _fields(shape: dict, path: tuple = ()) -> Iterator[tuple]:
    """The path of each integer field of ``shape``, in its own order."""
    for key, value in shape.items():
        if value is int:
            yield (*path, key)
        elif isinstance(value, dict):
            yield from _fields(value, (*path, key))


def _template(shape: dict, paths: list[tuple], path: tuple = ()) -> str:
    """The canonical text of ``shape`` as a %-format, ``%d`` at each integer
    field; ``paths`` gets the field paths in the text's order."""
    members = []
    for key in sorted(shape):  # the encoder's key order
        value = shape[key]
        if value is int:
            paths.append((*path, key))
            text = "%d"
        elif isinstance(value, dict):
            text = _template(value, paths, (*path, key))
        else:
            text = _encode(value).replace("%", "%%")
        members.append(f"{_quote(key).replace('%', '%%')}:{text}")
    return "{" + ",".join(members) + "}"


class PayloadTemplate:
    """A payload shape compiled once, rendered row by row from integer columns.

    ``shape`` is a payload whose integer fields are the type ``int``, at any
    depth of nested objects; every other value is a constant. It is checked
    as ``append`` checks a payload, and its keys are sorted and quoted, and
    its constants encoded, once. ``render(*columns)`` takes one column per
    integer field, in the shape's own order, and yields each row's payload
    text: the canonical text of the shape with that row's values filled
    in, which ``append`` then takes without checking or encoding it again.
    ``matcher()`` compiles the same text into a pattern that matches what
    ``render`` yields, with which a read checks payloads of the shape.
    """

    def __init__(self, shape: Mapping[str, Any]):
        if not isinstance(shape, dict):
            shape = dict(shape)
        self._fields = list(_fields(shape))
        _check_payload(_fill(shape, itertools.repeat(0)))
        paths: list[tuple] = []
        self._format = _template(shape, paths)
        # the column of each %d, in the text's order
        self._order = [self._fields.index(path) for path in paths]

    def render(self, *columns: Sequence[int]) -> Iterator[str]:
        """Each row's canonical payload text, the rows read across ``columns``.

        Each column is checked once as a whole for plain ``int``s, whose
        decimal text is their canonical form. A column holding anything
        else, a bool or an int subclass too, is a ValueError naming its
        field; ``append`` takes such values in a payload dict.
        """
        if len(columns) != len(self._fields):
            raise ValueError(f"{len(self._fields)} integer fields, {len(columns)} columns")
        for k, (path, column) in enumerate(zip(self._fields, columns)):
            if not set(map(type, column)) <= {int}:
                odd = next(v for v in column if type(v) is not int)
                name = ".".join(("payload", *path))
                raise ValueError(f"column {k} ({name}): {type(odd).__name__} is not a plain int")
        rows = zip(*[columns[i] for i in self._order], strict=True)
        return map(_Rendered, map(self._format.__mod__, rows))

    def matcher(self) -> Callable[[str], re.Match | None]:
        """The ``fullmatch`` of a pattern compiled from the template: a text
        matches iff ``render`` yields it for some row of plain ints. Each
        ``%d`` of the format matches the decimal text of an int that
        converts to text (``sys.get_int_max_str_digits()``, 0 for any
        length, bounds its digits); every other piece, ``%%`` as ``%``, is
        literal."""
        digits = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0
        integer = f"(?:0|-?[1-9][0-9]{{0,{digits - 1}}})" if digits else "(?:0|-?[1-9][0-9]*)"
        pattern = "".join(
            integer if piece == "%d" else re.escape("%" if piece == "%%" else piece)
            for piece in re.split("(%[%d])", self._format)
        )
        return re.compile(pattern).fullmatch


def _shape(payload: dict) -> dict:
    """``payload`` with the type ``int`` in place of each plain int of its
    objects, at any depth; lists, and what they hold, are constants."""
    return {
        key: int if type(value) is int else _shape(value) if type(value) is dict else value
        for key, value in payload.items()
    }


class ChainReport(Record):
    _fields = ("intact", "first_break", "message")

    def __init__(self, intact: bool, first_break: int | None = None, message: str = "intact"):
        self._set(intact=intact, first_break=first_break, message=message)


class Ledger:
    """Append-only hash chain. Single writer.

    A ledger is its head hash, its record count, the last timestamp of
    each counting point, the first break ``read_ledger`` found, and the
    lines appended to it, each ending in a newline, as UTF-8 bytes:

    - ``Ledger()`` keeps them in a list.
    - ``Ledger(path)`` creates the file ``path`` and writes each into it
      through the file's own buffer. ``write_ledger(ledger, path)`` closes
      the file, as ``close`` and leaving a ``with`` block do; nothing can
      be appended after.

    ``read_ledger`` returns a ``Ledger()`` that holds no line, only the
    chain state of what it read, so it can be appended to; the lines
    appended since are the segment that continues the log read. A log
    whose last line lacks its newline reads, but its ledger refuses
    ``append``: the segment would join that line. ``len`` counts every
    record of the chain, read or appended.
    """

    def __init__(self, path: str | Path | None = None):
        self._lines: list[bytes] = []
        self._count = 0
        # a streamed ledger's file, absolute, and the file object
        self._path = None if path is None else Path(path).absolute()
        # a 64 KiB buffer: through the default 8 KiB one, a year's appends
        # ran ~7% slower
        self._sink = None if path is None else open(path, "xb", buffering=1 << 16)
        # where append sends each line's UTF-8 bytes
        self._write = self._lines.append if path is None else self._sink.write
        # the head hash, and its text inside the quotes of a line
        self._head = self._head_text = GENESIS_HASH
        self._last_ts: dict[str, datetime] = {}
        # the last timestamp object checked and its ISO text; the records
        # of one slot are appended with the same object
        self._stamp: datetime | None = None
        self._stamp_text = ""
        # each counting-point key's text inside the quotes of a line
        self._keys: dict[str, str] = {}
        # the first break read_ledger found; append never makes one
        self._report = ChainReport(True)
        # why append refuses: the log read ends in a line without its newline
        self._unended: str | None = None

    def __enter__(self) -> Ledger:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close a streamed ledger's file, writing what its buffer holds.
        Any other ledger has no file open."""
        if self._sink is not None:
            self._sink.close()

    def __len__(self) -> int:
        return self._count

    @property
    def head_hash(self) -> str:
        return self._head

    def append(
        self,
        payload: Mapping[str, Any] | str,
        counting_point_key: str,
        timestamp: datetime,
    ) -> str:
        """Chain a new record to the head and return its hash.

        ``payload`` is checked and encoded, unless it is a text that
        ``PayloadTemplate.render`` yielded, which is both already.
        Timestamps must not regress within one counting point; equal
        timestamps are allowed (several policies may log the same slot).
        A ledger read from a log whose last line lacks its newline
        refuses every append.
        """
        if self._unended is not None:
            raise ValueError(self._unended)
        if timestamp is not self._stamp:
            if timestamp.tzinfo is None or timestamp.utcoffset() is None:
                raise ValueError("record timestamp has no UTC offset")
            self._stamp = timestamp
            # isoformat() needs no JSON escape
            self._stamp_text = timestamp.isoformat()
        if type(payload) is _Rendered:
            # one exact str copy, which the f-strings of _line and
            # _material take as it is; they would format a str subclass
            # through __format__, twice
            payload = str(payload)
        else:
            if not isinstance(payload, dict):
                payload = dict(payload)
            _check_payload(payload)
            payload = _encode(payload)
        last = self._last_ts.get(counting_point_key)
        if last is not None and last is not timestamp and timestamp < last:
            raise ValueError(
                f"timestamp regression for {counting_point_key}: "
                f"{timestamp.isoformat()} < {last.isoformat()}"
            )
        key = self._keys.get(counting_point_key)
        if key is None:
            key = self._keys[counting_point_key] = _quote(counting_point_key)[1:-1]
        stamp, prev = self._stamp_text, self._head_text
        hash_ = hashlib.sha256(_material(key, stamp, payload, prev)).hexdigest()
        # a hex digest is its own text inside quotes
        self._write(_line(key, hash_, payload, prev, stamp).encode())
        self._count += 1
        self._head = self._head_text = hash_
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


def _line(key: str, hash_: str, payload: str, prev: str, stamp: str) -> str:
    """The line of a record, ending in a newline, from the texts inside its
    four quoted fields and its payload text: the layout ``_split`` cuts."""
    return (
        f"{_HEAD}{key}{_AT_HASH}{hash_}{_AT_PAYLOAD}{payload}"
        f"{_AT_PREV_HASH}{prev}{_AT_TIMESTAMP}{stamp}{_TAIL}\n"
    )


def _material(key: str, stamp: str, payload: str, prev: str) -> bytes:
    """The UTF-8 bytes a record's hash is the SHA-256 of: the JSON array
    [key, timestamp, payload, prev], from the same texts ``_line`` takes."""
    return f'["{key}","{stamp}",{payload},"{prev}"]'.encode()


def verify_chain(ledger: Ledger) -> ChainReport:
    """The first break in a ledger's hash chain, or intact.

    ``read_ledger`` checks each line's link and hash right after it has
    checked the line, and the ``Ledger`` it returns keeps the first break
    it found. ``append`` computes each link and hash itself and never
    makes a break, so the kept report is what a walk recomputing every
    hash and link would find, and no line is cut again here.

    Truncating records off the tail is not detectable without an external
    anchor for the head hash; persist the head out of band if that matters.
    """
    return ledger._report


def write_ledger(ledger: Ledger, target: str | Path | BinaryIO) -> None:
    """Write the lines appended to ``ledger``, one canonical line per record.

    - A streamed ledger has written its lines into its own file, the only
      target it takes: this closes the file.
    - Any other ledger writes the lines appended since ``Ledger()`` or
      ``read_ledger`` to a binary stream, or to ``target`` as a new file, as
      ``Ledger(path)`` creates one; an existing file is a FileExistsError
      and is left as it was. After ``read_ledger`` these lines are the
      segment that continues the log read: the log, ending in a newline,
      followed by the segment is the whole chain.
    """
    path = ledger._path
    if path is not None:
        if not (isinstance(target, (str, Path)) and _same_file(target, path)):
            raise ValueError(f"a ledger streamed into {path} is written only to that file")
        ledger.close()
    elif isinstance(target, (str, Path)):
        with open(target, "xb") as stream:
            stream.writelines(ledger._lines)
    else:
        target.writelines(ledger._lines)


def _same_file(target: str | Path, path: Path) -> bool:
    try:
        return os.path.samefile(target, path)
    except OSError:  # no file at target
        return False


class _Checked:
    """The texts a read has checked: every counting-point key (a log has
    few), the last timestamp, as the records of one slot are adjacent, and
    payload texts until they pass ``_CHECKED_PAYLOAD_BYTES``, when the set
    starts over; and the templates of the payload shapes it has checked."""

    __slots__ = ("keys", "stamp_text", "stamp", "payloads", "payload_bytes", "shapes", "spare")

    def __init__(self):
        self.keys: dict[str, str] = {}
        self.stamp_text: str | None = None
        self.stamp: datetime | None = None
        self.payloads: set[str] = set()
        self.payload_bytes = 0
        # each learned shape's PayloadTemplate.matcher, None once dropped
        self.shapes: deque | None = deque()
        # how many more texts the templates may miss than they match
        self.spare = _SHAPES

    def payload(self, text: str) -> bool:
        """Whether the payload text ``text``, which ``payloads`` does not
        hold, is canonical; if it is, ``payloads`` holds it after.

        The text is tried against the templates learned, first the one
        after the template that matched last, as the records of a slot
        come in a fixed order of shapes. A match means the text is
        ``_encode(_decode(text))``. A text that no template matches is
        decoded, encoded and compared, and if it passes, its shape is
        learned. Past ``_SHAPES`` templates none is learned; once they
        have missed ``_SHAPES`` texts more than they matched, none is
        tried again."""
        shapes = self.shapes
        for k, match in enumerate(shapes or ()):
            if match(text) is not None:
                shapes.rotate(-1 - k)
                self.spare += 1
                break
        else:
            try:
                payload = _decode(text)
            except ValueError:
                return False
            if not isinstance(payload, dict) or _encode(payload) != text:
                return False
            if shapes is not None:
                self.spare -= 1
                if self.spare < 0:
                    self.shapes = None
                elif len(shapes) < _SHAPES:
                    try:
                        shapes.append(PayloadTemplate(_shape(payload)).matcher())
                    except RecursionError:  # a payload too deep to template
                        pass
        self.payload_bytes += len(text)
        if self.payload_bytes > _CHECKED_PAYLOAD_BYTES:
            self.payloads.clear()
            self.payload_bytes = len(text)
        self.payloads.add(text)
        return True


def _string(text: str) -> str | None:
    """The string whose canonical JSON form is ``"text"``, else None."""
    quoted = f'"{text}"'
    try:
        value = _decode(quoted)
    except ValueError:
        return None
    return value if _quote(value) == quoted else None


def _split(line: str, stop: int, checked: _Checked) -> tuple[str, datetime, str, str, bytes] | None:
    """What reading needs of the canonical line ``line[:stop]`` (key,
    timestamp, previous-hash text, hash text and hash material), or None
    for any other line. The caller checks the previous-hash text, which
    in a chain is the last line's checked hash text.

    The line is cut at the separators of its fixed layout: forwards past
    the key and the hash, and backwards past the timestamp and the
    previous hash, so the payload is what lies between. A canonical JSON
    string holds no quote that is not escaped, so in a line ``_line``
    renders no separator occurs inside the field it is searched across,
    and the cuts fall where the layout puts them. ``line[stop:]`` may only
    be a line end, which no separator contains. With a canonical
    previous-hash text, the line is accepted iff each other piece is the
    canonical form of its value, which is iff the line, ended in a
    newline, is ``_line`` of its pieces; ``_material`` of the same pieces
    is its hash material.

    Keys, timestamps and payload texts repeat: a text ``checked`` holds is
    not checked again, and the records that hold a key, or one slot's
    timestamp, share one object. A payload text it does not hold is
    matched against the templates of the shapes it checked before it is
    decoded (``_Checked.payload``).
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

    key_text = line[len(_HEAD):at_hash]
    key = checked.keys.get(key_text)
    if key is None:
        key = _string(key_text)
        if key is None:
            return None
        checked.keys[key_text] = key

    hash_text = line[at_hash + len(_AT_HASH):at_payload]
    # a hash needing no escape is its own text
    if _quote(hash_text)[1:-1] != hash_text and _string(hash_text) is None:
        return None
    prev_text = line[at_prev_hash + len(_AT_PREV_HASH):at_timestamp]

    timestamp_text = line[at_timestamp + len(_AT_TIMESTAMP):end]
    if timestamp_text == checked.stamp_text:
        timestamp = checked.stamp
    else:
        try:
            timestamp = parse_timestamp(timestamp_text)
        except ValueError:
            return None
        # datetime parsing is more lenient than the canonical form (e.g.
        # any date/time separator); isoformat() needs no JSON escape
        if timestamp.isoformat() != timestamp_text:
            return None
        checked.stamp_text, checked.stamp = timestamp_text, timestamp

    payload_text = line[payload_start:at_prev_hash]
    if payload_text not in checked.payloads and not checked.payload(payload_text):
        return None

    material = _material(key_text, timestamp_text, payload_text, prev_text)
    return key, timestamp, prev_text, hash_text, material


def _reject(line: str) -> NoReturn:
    """Raise the error that says why ``_split`` refused a line.

    The line is rejected either way; the full decode only words the error.
    """
    obj = _decode(line)
    payload = obj["payload"]
    if not isinstance(payload, dict):
        raise ValueError("non-canonical payload: not a JSON object")
    timestamp_text = obj["timestamp"]
    key, hash_, payload_text, prev = (
        obj["counting_point_key"], obj["hash"], _encode(payload), obj["prev_hash"]
    )
    # each string's text inside its quotes; any other value is a TypeError
    key, hash_, prev, stamp = (_quote(text)[1:-1] for text in (key, hash_, prev, timestamp_text))
    # whitespace, key order, duplicate or extra keys and escapes all
    # change a line's bytes without changing what json.loads returns
    canonical = _line(key, hash_, payload_text, prev, stamp)
    if canonical == f"{line}\n" and parse_timestamp(timestamp_text).isoformat() != timestamp_text:
        raise ValueError(f"non-canonical timestamp {timestamp_text!r}")
    raise ValueError("non-canonical line: its bytes differ from the record's")


# What one walk over consecutive lines of a log found, as the tuple
# (count, first_prev, last_hash, first_break, last_ts, ended, malformed):
# the lines counted, the first line's previous-hash text, the last line's
# hash text, the (index, kind) of the first link or hash break, each
# counting point's last timestamp, whether the last line ends in a
# newline, and the (index, why) of the first line that is not canonical
# or not UTF-8.
_Walk = tuple


def _walk(lines: Iterable[bytes]) -> _Walk:
    """Walk the lines once: check that each is its record's canonical
    serialization, decoded from its UTF-8 bytes, then check its link
    to the line before (not the first line's) and its hash, the SHA-256
    of the hash material it splices from the line's own slices.

    The first line's link is not the walk's to check: ``first_prev`` is
    its previous-hash text, checked only to be canonical, and ``_stitch``
    compares it with the last hash text before it. Breaks and the
    malformed line are indexed from the walk's first line; a walk stops
    at its malformed line, and ``count`` counts the lines before it."""
    last_ts: dict[str, datetime] = {}
    checked = _Checked()
    first_prev = head_text = first_break = None
    i = -1
    for i, line in enumerate(lines):
        try:
            line = line.decode("utf-8")
            stop = len(line) - 1 if line.endswith("\n") else len(line)
            fields = _split(line, stop, checked)
            if fields is None:
                _reject(line[:stop])
            key, timestamp, prev_text, hash_text, material = fields
            # canonical quoting is one-to-one, so a previous hash is the
            # last line's hash iff its text is that line's checked text
            if prev_text != head_text:
                if _string(prev_text) is None:
                    _reject(line[:stop])
                if head_text is None:
                    first_prev = prev_text
                elif first_break is None:
                    first_break = (i, "broken link")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # RecursionError: a payload nested too deep for the decoder
            return (i, first_prev, head_text, first_break, last_ts, True, (i, str(exc)))
        if first_break is None and hashlib.sha256(material).hexdigest() != hash_text:
            first_break = (i, "hash mismatch")
        last_ts[key] = timestamp
        head_text = hash_text
    return (i + 1, first_prev, head_text, first_break, last_ts, i < 0 or stop < len(line), None)


def _stitch(walks: Iterable[_Walk], name: str) -> Ledger:
    """The ledger of a log from the walks of its consecutive ranges, in
    order: the counts add up, each range's first previous hash is linked
    to the last hash before it (the genesis hash for the first), and the
    earliest break is kept. The earliest malformed line raises ValueError
    with its number in the whole log. When the last line lacks its
    newline, ``append`` refuses, naming the log as ``name``."""
    ledger = Ledger()
    count, head_text, report, ended = 0, GENESIS_HASH, None, True
    for walked, first_prev, last_hash, first_break, last_ts, walk_ended, malformed in walks:
        if malformed is not None:
            index, why = malformed
            raise ValueError(f"ledger line {count + index + 1}: malformed record ({why})")
        if not walked:
            continue
        if report is None:
            if first_prev != head_text:
                report = (count, "broken link")
            elif first_break is not None:
                index, kind = first_break
                report = (count + index, kind)
        ledger._last_ts.update(last_ts)
        count += walked
        head_text, ended = last_hash, walk_ended
    ledger._count = count
    ledger._head, ledger._head_text = _string(head_text), head_text
    if not ended:
        # a segment appended after it would join its last line
        ledger._unended = (
            f"{name} does not end in a newline: a log must end in a newline to be continued"
        )
    if report is not None:
        index, kind = report
        ledger._report = ChainReport(False, index, f"{kind} at record {index}")
    return ledger


def _lines_to(stream: BinaryIO, stop: int) -> Iterator[bytes]:
    """The lines of ``stream`` from where it is to the line end at byte ``stop``."""
    left = stop - stream.tell()
    for line in stream:
        yield line
        left -= len(line)
        if left <= 0:
            return


def _cuts(stream: BinaryIO) -> list[int]:
    """Byte offsets, from 0 to the end, that cut the log file ``stream`` at
    line ends into one range per core it is walked on: one range unless
    the log has ``_RANGED_BYTES`` or more and a forked worker may walk a
    range, up to ``_MAX_RANGES``."""
    size = os.fstat(stream.fileno()).st_size
    parts = min(_fork.cores(), _MAX_RANGES)
    if size < _RANGED_BYTES or parts < 2:
        return [0, size]
    cuts = [0]
    for k in range(1, parts):
        stream.seek(size * k // parts - 1)
        stream.readline()
        if cuts[-1] < stream.tell() < size:
            cuts.append(stream.tell())
    stream.seek(0)
    return [*cuts, size]


def _send_walk(path: str | Path, file: tuple[int, int], start: int, stop: int) -> bytes | None:
    """In a forked worker: the walk of the lines of ``path`` from byte
    ``start`` to the line end at ``stop``, as JSON, or None if ``path`` no
    longer names the ``(st_dev, st_ino)`` file the caller reads."""
    with open(path, "rb") as stream:
        opened = os.fstat(stream.fileno())
        if (opened.st_dev, opened.st_ino) != file:
            return None
        stream.seek(start)
        walk = _walk(_lines_to(stream, stop))
    # the last timestamps go as their ISO texts
    return json.dumps(walk, default=datetime.isoformat).encode("utf-8")


def _sent_walk(sent: bytes) -> _Walk:
    """The walk ``_send_walk`` sent, its pairs as JSON lists."""
    walk = json.loads(sent)
    walk[4] = {key: parse_timestamp(text) for key, text in walk[4].items()}
    return tuple(walk)


def _file_walks(stream: BinaryIO, path: str | Path) -> Iterator[_Walk]:
    """The walks of the log file ``stream`` (at ``path``), range by range.

    The caller walks the first range itself while a worker forked for
    each other range opens the file again, walks that range and sends
    back only its walk. A range whose worker sends no walk, as when the
    path was replaced meanwhile, is walked here. Every worker is reaped
    before this ends; one still running when this ends early, on an
    error or a malformed line, is killed first.
    """
    cuts = _cuts(stream)
    if len(cuts) == 2:
        yield _walk(stream)
        return
    file = os.fstat(stream.fileno())
    ranges = list(zip(cuts[1:], cuts[2:]))
    with contextlib.ExitStack() as workers:
        sends = [
            workers.enter_context(_fork.Child(_send_walk, path, (file.st_dev, file.st_ino), start, stop))
            for start, stop in ranges
        ]
        yield _walk(_lines_to(stream, cuts[1]))
        for send, (start, stop) in zip(sends, ranges):
            sent = send.result()
            if sent is None:
                stream.seek(start)
                yield _walk(_lines_to(stream, stop))
            else:
                yield _sent_walk(sent)


def read_ledger(source: str | Path | BinaryIO) -> Ledger:
    """Parse a ledger file, line by line. Every line must be its record's
    canonical serialization, ending in a newline (the last line may lack
    it, but then the ledger refuses ``append``). A break in the chain does
    not fail the read: the ledger keeps the first one for verify_chain to
    report.

    A log file of ``_RANGED_BYTES`` or more is cut at line ends into one
    range per core, up to ``_MAX_RANGES``, each walked in its own process;
    a binary stream, a smaller log, or a log on one core is walked whole.
    The ledger, and any error, is the same either way. A text stream is a
    TypeError, raised before anything is read.

    The ledger keeps no line of the source, only its chain state: the
    record count, the head, the last timestamps and the first break."""
    if isinstance(source, io.TextIOBase):
        raise TypeError("read_ledger reads a path or a binary stream, not a text stream")
    if isinstance(source, (str, Path)):
        # as bytes, so that invalid UTF-8 is reported with its line number
        with open(source, "rb") as stream, contextlib.closing(_file_walks(stream, source)) as walks:
            return _stitch(walks, f"ledger {source}")
    return _stitch([_walk(source)], "the ledger read")
