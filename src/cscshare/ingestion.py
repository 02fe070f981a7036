"""Meter data ingestion and scenario transformations.

Reads the meter CSV format, normalizes each meter class to the common
30-minute Wh grid, and applies the two scenario adjustments: the PV
emulation gain and the flat data-centre load. The two French meter
classes differ in what they report:

  linky    per-reading active energy in Wh (1 Wh resolution)
  sme_smi  cumulative energy index in kWh (1 kWh resolution) and
           10-minute average extracted power in kW (1 kW resolution)

A meter's readings have one form, MeterReadings: the columns ingest_csv
fills per meter, readings_by_meter joins across files and
normalize_to_slots reads. Missing slots are reported as errors, never
zero-filled: a silently zero-filled consumption slot would change every
allocation downstream.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timedelta
from decimal import Context, Decimal, Overflow, ROUND_HALF_EVEN, localcontext
from enum import Enum
from itertools import chain, compress, groupby, islice, repeat
from operator import attrgetter, eq, is_, itemgetter, lt, sub
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from cscshare.kernels import apportion
from cscshare.model import (
    DateRange,
    Kind,
    KorVector,
    MutableRecord,
    Record,
    SlotGrid,
    SlotSeries,
    SLOT_DURATION,
    SLOT_MINUTES,
    _SLOT_MINUTES_OF_HOUR,
    as_decimal,
    parse_timestamp,
)

CSV_HEADER = ["meter_id", "meter_class", "timestamp", "quantity_kind", "value"]

# Derived static coefficients are whole parts per KOR_SCALE (4 decimals).
KOR_SCALE = 10**4


class MeterClass(str, Enum):
    LINKY = "linky"
    SME_SMI = "sme_smi"


class QuantityKind(str, Enum):
    ENERGY_WH = "energy_wh"
    ENERGY_KWH_INDEX = "energy_kwh_index"
    POWER_KW_10MIN = "power_kw_10min"


# Which quantity each meter class can report.
_CLASS_KINDS = {
    MeterClass.LINKY: {QuantityKind.ENERGY_WH},
    MeterClass.SME_SMI: {QuantityKind.ENERGY_KWH_INDEX, QuantityKind.POWER_KW_10MIN},
}

class RawMeterRecord(Record):
    """One reading as it came off the meter, before normalization."""

    _fields = ("meter_id", "meter_class", "timestamp", "quantity_kind", "value")

    def __init__(
        self,
        meter_id: str,
        meter_class: MeterClass,
        timestamp: datetime,
        quantity_kind: QuantityKind,
        value: int | Decimal,
    ):
        if quantity_kind not in _CLASS_KINDS[meter_class]:
            raise ValueError(f"{meter_class.value} meters do not report {quantity_kind.value}")
        if value < 0:
            raise ValueError("meter values are never negative in this model")
        self._set(
            meter_id=meter_id, meter_class=meter_class, timestamp=timestamp,
            quantity_kind=quantity_kind, value=value,
        )


class RowError(Record):
    _fields = ("line", "message")

    def __init__(self, line: int, message: str):
        self._set(line=line, message=message)

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class MeterReadings(MutableRecord):
    """One meter's readings of one quantity, as columns in arrival order.

    This is the one form of a meter's readings, from ingest_csv through
    readings_by_meter to normalize_to_slots: a reading is its timestamp
    and its value. Ingestion fills the columns row by row, taking each
    timestamp from the per-file timestamp cache, and gives each meter its
    file's grids (see _Grids); readings joined across files have none.
    ``readings[k]`` builds row k as a RawMeterRecord. Readings compare
    and hash by identity, and their grids are not shown.
    """

    _fields = ("meter_id", "meter_class", "quantity_kind", "timestamps", "values")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        meter_id: str,
        meter_class: MeterClass,
        quantity_kind: QuantityKind,
        timestamps: list[datetime] | None = None,
        values: list[int | Decimal] | None = None,
        grids: _Grids | None = None,
    ):
        self.meter_id = meter_id
        self.meter_class = meter_class
        self.quantity_kind = quantity_kind
        self.timestamps = [] if timestamps is None else timestamps
        self.values = [] if values is None else values
        self.grids = grids

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> RawMeterRecord:
        return RawMeterRecord(
            self.meter_id, self.meter_class, self.timestamps[k], self.quantity_kind, self.values[k]
        )


class _Rows:
    """The rows of some MeterReadings, meter by meter, each meter's in file order."""

    def __init__(self, meters: list[MeterReadings]):
        self._meters = meters

    def __len__(self) -> int:
        return sum(map(len, self._meters))

    def __iter__(self):
        for readings in self._meters:
            yield from readings


class IngestResult(MutableRecord):
    """One meter CSV's accepted rows and its row errors.

    ``meters`` holds the rows as one MeterReadings per (meter_id,
    meter_class, quantity_kind), in order of first appearance. ``records``
    iterates the same rows as RawMeterRecords, meter by meter, and its
    len() counts them without building any.
    """

    _fields = ("meters", "errors")

    def __init__(self, meters: list[MeterReadings] | None = None, errors: list[RowError] | None = None):
        self.meters = [] if meters is None else meters
        self.errors = [] if errors is None else errors

    @property
    def records(self) -> _Rows:
        return _Rows(self.meters)

    @property
    def ok(self) -> bool:
        return not self.errors


def readings_by_meter(results: Iterable[IngestResult]) -> dict[str, MeterReadings]:
    """Each meter's readings across files, its columns joined in file order.

    A meter id read under two (class, quantity kind) pairs is an error
    naming the meter and both pairs.
    """
    parts: dict[str, list[MeterReadings]] = {}
    for result in results:
        for readings in result.meters:
            parts.setdefault(readings.meter_id, []).append(readings)
    return {meter_id: _joined(same) for meter_id, same in parts.items()}


def _joined(parts: list[MeterReadings]) -> MeterReadings:
    first = parts[0]
    if len(parts) == 1:
        return first
    for other in parts:
        if other.meter_class is not first.meter_class:
            mix = "meter classes"
        elif other.quantity_kind is not first.quantity_kind:
            mix = "quantity kinds; normalize one basis at a time"
        else:
            continue
        raise ValueError(
            f"meter {first.meter_id}: records mix {mix} ({first.meter_class.value} "
            f"{first.quantity_kind.value}, {other.meter_class.value} {other.quantity_kind.value})"
        )
    return MeterReadings(
        first.meter_id, first.meter_class, first.quantity_kind,
        [ts for p in parts for ts in p.timestamps],
        [value for p in parts for value in p.values],
    )


def ingest_csv(source: str | Path | BinaryIO) -> IngestResult:
    """Parse a meter CSV, from its path or a binary stream, into per-meter
    columns, in one pass.

    A malformed header is a hard error; a malformed row is collected into
    the error report with its line number and skipped, and so is a row
    holding a byte that is not UTF-8 (see _decoded). A path is opened as a
    binary stream, and a stream is read in blocks (see _file_blocks) and
    left open. A text stream is a TypeError, raised before anything is read.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return ingest_csv(stream)
    if isinstance(source, io.TextIOBase):
        raise TypeError("ingest_csv reads a path or a binary stream, not a text stream")
    fh = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape", newline="")
    try:
        return _ingest_rows(chain.from_iterable(_file_blocks(fh)))
    finally:
        fh.detach()  # the caller's stream stays open


# The characters of a file read at once (256 KiB of ASCII text), before
# the block is completed to its line end.
_BLOCK = 1 << 18


def _file_blocks(fh: TextIO) -> Iterator[Iterator[list[str] | _Refused]]:
    """The rows of a file opened with newline="", block by block, as
    csv.reader gives them.

    Each block of the file is completed to a line end. A block without a
    quote, a carriage return, a NUL (which csv.reader refuses before
    Python 3.11) or a line longer than csv.field_size_limit() has no
    cell that csv.reader would read other than as the text between
    commas, so its lines are split on commas. An empty line gives [""]
    where csv.reader gives [], and the row loop skips both. The first
    block that fails this test, and the rest of the file after it, go to
    csv.reader, since a quoted cell may span lines. Only the rows of a
    block holding an escaped byte go through _decoded.
    """
    limit = csv.field_size_limit()
    while block := fh.read(_BLOCK):
        block += fh.readline()
        if '"' in block or "\r" in block or "\0" in block:
            break
        lines = block.split("\n")
        if not lines[-1]:
            lines.pop()  # after the block's last line end
        if max(map(len, lines)) > limit:
            break
        rows = map(str.split, lines, repeat(","))
        yield rows if block.isascii() or not _ESCAPED.search(block) else map(_decoded, rows)
    else:
        return
    yield _csv_rows(chain(io.StringIO(block, newline=""), fh))


class _Refused:
    """A record refused before its cells are read, by csv.reader or for a
    byte that is not UTF-8: reading its cells raises the message, which
    the row loop reports as the row's error."""

    def __init__(self, message: str):
        self.message = message

    def __iter__(self):
        raise ValueError(self.message)


def _csv_rows(lines: Iterable[str]) -> Iterator[list[str] | _Refused]:
    """csv.reader's rows of lines, each through _decoded, a record it
    refuses (a cell over the field size limit) as a _Refused row; the
    reader reads on after it."""
    reader = csv.reader(lines)
    while True:
        try:
            yield from map(_decoded, reader)
            return
        except csv.Error as exc:
            yield _Refused(str(exc))


# A file is decoded with errors="surrogateescape", which gives each byte
# that is not valid UTF-8 as a lone surrogate, U+DC80 to U+DCFF.
_ESCAPED = re.compile("[\udc80-\udcff]")


def _decoded(row: list[str]) -> list[str] | _Refused:
    """The row, or, if a cell holds an escaped byte, a _Refused row
    naming the first such byte."""
    for cell in row:
        if not cell.isascii() and (escaped := _ESCAPED.search(cell)):
            return _Refused(f"invalid UTF-8 byte 0x{ord(escaped[0]) - 0xDC00:02x}")
    return row


class _Timestamps(dict):
    """Timestamp text -> its parsed timestamp, each distinct text read once per file.

    Timestamps with equal UTC offsets share one tzinfo object, so sorting
    and comparing them takes CPython's same-tzinfo path. Equal texts give
    one object, so meters read at the same instants have columns of the
    same objects; ``grids`` records the columns checked (see _Grids).

    A text is read by datetime.fromisoformat first. A text it refuses or
    reads without an offset (padding, a ``z``, a ``Z`` before Python
    3.11, a naive or date-only text) goes to parse_timestamp, which gives
    the instant, offset and error it always gives.
    """

    def __init__(self):
        super().__init__()
        self._zones: dict = {}
        self.grids = _Grids()

    def __missing__(self, text: str) -> datetime:
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            ts = None
        if ts is None or ts.tzinfo is None:
            ts = parse_timestamp(text.strip())
        zone = self._zones.setdefault(ts.tzinfo, ts.tzinfo)
        if zone is not ts.tzinfo:
            # what replace(tzinfo=zone) gives, at a fifth of its cost
            ts = datetime.combine(ts, ts.time(), zone)
        self[text] = ts
        return ts


def _ingest_rows(rows: Iterator[Sequence[str]]) -> IngestResult:
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError("empty input: missing CSV header") from None
    if isinstance(header, _Refused):
        raise ValueError(f"malformed header: {header.message}")
    if header:
        # the byte-order mark spreadsheet tools put before "CSV UTF-8"
        header[0] = header[0].removeprefix("\ufeff")
    if [h.strip() for h in header] != CSV_HEADER:
        raise ValueError(f"malformed header {header!r}, expected {','.join(CSV_HEADER)}")

    result = IngestResult()
    errors = result.errors
    meters: dict[tuple, MeterReadings] = {}
    # the (meter_id, meter_class, quantity_kind) texts of accepted rows,
    # as they stand in the file, to their columns and value parser
    routes: dict[tuple[str, str, str], tuple[MeterReadings, Callable]] = {}
    timestamps = _Timestamps()
    parsers = {**_ENERGY_PARSERS, QuantityKind.POWER_KW_10MIN: _Powers().__getitem__}
    for line, row in enumerate(rows, start=2):
        try:
            try:
                meter_id, klass, ts_text, kind_text, value_text = row
                readings, parse_value = routes[meter_id, klass, kind_text]
            except (ValueError, KeyError):
                if not "".join(row).strip():
                    continue
                readings, parse_value = _route(row, routes, meters, timestamps, parsers)
            ts = timestamps[ts_text]
            value = parse_value(value_text)
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        readings.timestamps.append(ts)
        readings.values.append(value)
    result.meters = [readings for readings in meters.values() if readings]
    return result


def _route(row: Sequence[str], routes: dict, meters: dict, timestamps: _Timestamps, parsers: dict):
    """Check the first row of a meter, class and kind text triple, and route it.

    Raises the row's error when the triple is malformed; a known but
    mismatched class and kind is reported after the timestamp and value
    have parsed, and is never routed.
    """
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    meter_id, klass, ts_text, kind_text, value_text = map(str.strip, row)
    if not meter_id:
        raise ValueError("empty meter_id")
    meter_class, kind = _members(klass, kind_text)
    parse_value = parsers[kind]
    if kind not in _CLASS_KINDS[meter_class]:
        timestamps[ts_text]
        parse_value(value_text)
        raise ValueError(f"{meter_class.value} meters do not report {kind.value}")
    key = (meter_id, meter_class, kind)
    if key not in meters:
        meters[key] = MeterReadings(meter_id, meter_class, kind, grids=timestamps.grids)
    routes[row[0], row[1], row[3]] = route = (meters[key], parse_value)
    return route


def _members(klass: str, kind_text: str) -> tuple[MeterClass, QuantityKind]:
    """The members of a class and kind text, raising the row error of an unknown text."""
    try:
        meter_class = MeterClass(klass)
    except ValueError:
        raise ValueError(f"unknown meter_class {klass!r}") from None
    try:
        kind = QuantityKind(kind_text)
    except ValueError:
        raise ValueError(f"unknown quantity_kind {kind_text!r}") from None
    return meter_class, kind


def _energy_parser(unit: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        text = text.strip()
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"energy must be an integer {unit} count, got {text!r}") from None
        if value < 0:
            raise ValueError("negative energy")
        return value

    return parse


def _parse_power(text: str) -> Decimal:
    text = text.strip()
    try:
        value = Decimal(text)
    except ArithmeticError:
        raise ValueError(f"bad power value {text!r}") from None
    if not value.is_finite():
        raise ValueError(f"bad power value {text!r}")
    if value < 0:
        raise ValueError("negative power")
    return value


class _Powers(dict):
    """Power text -> its Decimal, each distinct text parsed once per file.

    SME/SMI power comes at 1 kW resolution, so a file holds few distinct
    power texts. Equal texts share one immutable Decimal. A bad text
    raises _parse_power's error and is never stored, so each of its rows
    is reported.
    """

    def __missing__(self, text: str) -> Decimal:
        self[text] = value = _parse_power(text)
        return value


# Energy and index values are parsed row by row: their texts rarely repeat.
_ENERGY_PARSERS = {
    QuantityKind.ENERGY_WH: _energy_parser("Wh"),
    QuantityKind.ENERGY_KWH_INDEX: _energy_parser("kWh"),
}


def _slot_floor(ts: datetime) -> datetime:
    into_slot = ts.minute % SLOT_MINUTES
    if not (into_slot or ts.second or ts.microsecond):
        return ts
    return ts - timedelta(minutes=into_slot, seconds=ts.second, microseconds=ts.microsecond)


def _round_half_even(numerator: int, denominator: int) -> int:
    """numerator / denominator rounded half to even; denominator > 0."""
    q, r = divmod(numerator, denominator)
    twice = 2 * r
    if twice > denominator or (twice == denominator and q % 2):
        return q + 1
    return q


def normalize_to_slots(readings: MeterReadings, kind: Kind = Kind.CONSUMPTION) -> SlotSeries:
    """Convert one meter's readings to a 30-minute Wh series.

    A walk over the time-sorted readings groups them by the slot they
    fall in; consecutive slots must be exactly 30 minutes apart in UTC.
    Each slot keeps the instant and UTC offset of its own readings, so a
    day across a DST switch has 46 or 50 slots, each in its local offset;
    readings of one slot that carry two offsets are an error. Linky Wh
    readings within a slot are summed. SME/SMI 10-minute powers need all
    three samples of a slot, at the 0/10/20-minute marks, and convert as
    mean kW x 0.5 h x 1000. SME/SMI kWh index readings must sit on
    consecutive slot boundaries; each index delta x 1000 becomes the energy
    of the slot the earlier reading opens.

    A slot with fewer samples than its class expects is a gap error; a
    missing slot is one too, named by its local start, or by the slots on
    either side of it when those carry different UTC offsets.

    After the sort, duplicate and mark checks, a whole series (see
    _whole_starts) is normalized by columns, with the walk's arithmetic;
    any other series is walked slot by slot, and the walk names its fault.
    The walk derives each reading's slot start from its timestamp.

    A column of timestamps that its file's grids hold as checked for the
    same quantity kind (see _Grids) is not checked again: the series
    takes that column's grid, and only its energies are computed.
    """
    meter_id, quantity = readings.meter_id, readings.quantity_kind
    stamps, values = readings.timestamps, readings.values
    if not stamps:
        raise ValueError("no records to normalize")
    power = quantity is QuantityKind.POWER_KW_10MIN
    index = quantity is QuantityKind.ENERGY_KWH_INDEX
    grids = readings.grids
    grid = grids.find(quantity, stamps) if grids is not None else None
    energies = _energies(values, power, index, grids) if grid is not None else None
    if energies is not None:
        return SlotSeries(meter_id, kind, grid, energies)

    in_order = all(map(lt, stamps, islice(stamps, 1, None)))
    if not in_order:
        # a stable sort: readings of one instant keep their arrival order;
        # there are at least two readings here, so each pick is a tuple
        pick = itemgetter(*sorted(range(len(stamps)), key=stamps.__getitem__))
        stamps, values = pick(stamps), pick(values)
        for prev, cur in zip(stamps, stamps[1:]):
            if cur == prev:
                raise ValueError(f"{meter_id}: duplicate reading at {cur.isoformat()}")

    if index and len(stamps) < 2:
        raise ValueError(f"{meter_id}: index series needs at least two readings")
    whole_minutes = not any(map(_second, stamps)) and not any(map(_microsecond, stamps))
    # every reading on its class's marks: power samples on the 10-minute
    # marks, any other reading on the slot marks
    on_marks = whole_minutes and set(map(_minute, stamps)) <= (
        _TEN_MINUTE_MARKS if power else _SLOT_MINUTES_OF_HOUR
    )
    if not on_marks and (power or index):
        mark, what, where = (
            (10, "power sample", "a 10-minute boundary")
            if power
            else (SLOT_MINUTES, "index reading", "a slot boundary")
        )
        # some reading is off the mark: name the first in time order
        for ts in stamps:
            if ts.minute % mark or ts.second or ts.microsecond:
                raise ValueError(f"{meter_id}: {what} at {ts.isoformat()} is not on {where}")

    starts = _whole_starts(stamps, power, index) if on_marks else None
    if starts is not None:
        if grids is not None and grid is None and in_order:
            starts = grids.checked(quantity, stamps, starts)
        energies = _energies(values, power, index, grids)
        if energies is not None:
            return SlotSeries(meter_id, kind, starts, energies)

    floors = (
        map(sub, stamps, map(_INTO_SLOT.__getitem__, map(_minute, stamps)))
        if whole_minutes
        else map(_slot_floor, stamps)
    )
    starts: list[datetime] = []
    energies: list[int] = []
    opened = opener = None  # start and first value of the slot before
    for start, group in groupby(zip(stamps, floors, values), key=itemgetter(1)):
        if opened is not None and start - opened != SLOT_DURATION:
            samples = " (0/3 ten-minute power samples)" if power else ""
            if start.utcoffset() == opened.utcoffset():
                missing = (opened + SLOT_DURATION).isoformat()
                raise ValueError(f"{meter_id}: gap at {missing}{samples}")
            # across an offset change no one local time names the missing slot
            raise ValueError(
                f"{meter_id}: gap between {opened.isoformat()} and {start.isoformat()}{samples}"
            )
        group = list(group)
        zone = start.tzinfo
        for ts, _, _ in group:
            if ts.tzinfo is not zone and ts.utcoffset() != start.utcoffset():
                raise ValueError(
                    f"{meter_id}: readings of slot {start.isoformat()} carry two UTC offsets"
                )
        if power:
            if len(group) < 3:
                raise ValueError(
                    f"{meter_id}: gap at {start.isoformat()} "
                    f"({len(group)}/3 ten-minute power samples)"
                )
            starts.append(start)
            energies.append(_power_wh([value for _, _, value in group]))
        elif index:
            # boundary readings are distinct instants: one reading per slot,
            # whose delta to the next one is the energy of the slot it opens
            ts, _, value = group[0]
            if opener is not None:
                delta = int(value) - int(opener)
                if delta < 0:
                    raise ValueError(f"{meter_id}: index decreases at {ts.isoformat()}")
                starts.append(opened)
                energies.append(delta * 1000)
            opener = value
        else:
            starts.append(start)
            energies.append(sum([int(value) for _, _, value in group]))
        opened = start
    return SlotSeries(meter_id, kind, starts, energies)


def _whole_starts(stamps, power: bool, index: bool):
    """The slot starts of a whole series, or None.

    Every reading is on its class's marks here. A series is whole when
    every slot holds exactly the readings its class expects, each slot
    carries one tzinfo object, and consecutive starts are 30 minutes
    apart. A Linky or index reading on a slot mark is its own slot start;
    an index's last reading closes the slot before it. The power samples
    of a slot are whole when the first is on a slot mark, the third is 20
    minutes after it, and both later ones carry its tzinfo object:
    samples in strict order on 10-minute marks then leave the middle one
    at +10. These tests run over column slices; a whole series gives the
    walk's slots by the walk's arithmetic (see _energies), and any other
    goes to the walk, which names the fault.
    """
    if power:
        starts = stamps[0::3]
        if not (
            len(stamps) % 3 == 0
            and set(map(_minute, starts)) <= _SLOT_MINUTES_OF_HOUR
            and all(map(eq, map(sub, stamps[2::3], starts), repeat(_TWENTY_MINUTES)))
            and all(map(is_, map(_tzinfo, stamps[1::3]), map(_tzinfo, starts)))
            and all(map(is_, map(_tzinfo, stamps[2::3]), map(_tzinfo, starts)))
        ):
            return None
    else:
        starts = stamps
    if not all(map(eq, map(sub, starts[1:], starts[:-1]), repeat(SLOT_DURATION))):
        return None
    return starts[:-1] if index else starts


def _energies(values, power: bool, index: bool, grids: _Grids | None) -> list[int] | None:
    """The slot energies of a whole series' values, or None where an index
    decreases, which the walk names.

    A power slot's energy is looked up by its (v0, v1, v2) samples in the
    table of the file's ``grids``, so each distinct triple of a file is
    converted once; readings joined across files have a table local to
    the call.
    """
    if power:
        energy = (grids.powers if grids is not None else _SlotEnergies()).__getitem__
        return list(map(energy, zip(values[0::3], values[1::3], values[2::3])))
    if index:
        ints = list(map(int, values))
        deltas = list(map(sub, ints[1:], ints[:-1]))
        if min(deltas) < 0:
            return None
        return [delta * 1000 for delta in deltas]
    return list(map(int, values))


class _Grids:
    """The timestamp columns of one file that normalize_to_slots checked
    whole, and the grids of slot starts they gave.

    A column is recorded under its quantity kind once it is found whole
    and in time order. A later column of the same kind that holds the
    same timestamp objects in the same order takes the recorded grid
    without a check; the file's _Timestamps makes equal texts one object,
    so meters read at the same instants have such columns. Grids of the
    same start objects are one grid, whatever kind gave them. ``powers``
    holds the energies of the power triples the file's meters converted.
    """

    def __init__(self):
        self._columns: list[tuple[QuantityKind, tuple[datetime, ...], SlotGrid]] = []
        self.powers = _SlotEnergies()

    def find(self, quantity: QuantityKind, stamps: Sequence[datetime]) -> SlotGrid | None:
        """The grid of a checked ``quantity`` column of the objects of ``stamps``, or None."""
        for kind, column, grid in self._columns:
            if kind is quantity and len(column) == len(stamps) and all(map(is_, column, stamps)):
                return grid
        return None

    def checked(self, quantity: QuantityKind, stamps: Sequence[datetime], starts):
        """Record ``stamps`` as a checked ``quantity`` column whose series
        starts at ``starts``, and return the grid of those starts; if they
        fail the grid's checks, record nothing and return them as they are."""
        for _, _, grid in self._columns:
            if len(grid) == len(starts) and all(map(is_, grid, starts)):
                break
        else:
            grid = SlotGrid.of(starts)
            if grid is None:
                return starts
        self._columns.append((quantity, tuple(stamps), grid))
        return grid


def _power_wh(samples) -> int:
    """A slot's Wh from its kW samples: mean kW x 0.5 h x 1000 Wh/kWh ==
    sum_kW x 500 / 3, the sum taken in Decimal arithmetic even when a
    record holds an int, rounded half to even."""
    n, d = sum(samples, Decimal(0)).as_integer_ratio()
    return _round_half_even(n * 500, d * 3)


class _SlotEnergies(dict):
    """(v0, v1, v2) power samples -> their slot's Wh, each triple converted once.

    Equal samples are equal keys whatever their exponents (6, 6.0, 6.00),
    and give one energy, since the Decimal sum depends on values alone.
    """

    def __missing__(self, samples: tuple) -> int:
        self[samples] = energy = _power_wh(samples)
        return energy


_tzinfo = attrgetter("tzinfo")
_minute = attrgetter("minute")
_second = attrgetter("second")
_microsecond = attrgetter("microsecond")
_TEN_MINUTE_MARKS = frozenset(range(0, 60, 10))
_TWENTY_MINUTES = timedelta(minutes=20)
# minute of the hour -> the time from its slot's start
_INTO_SLOT = tuple(timedelta(minutes=minute % SLOT_MINUTES) for minute in range(60))


# Scaled slot energies are computed exactly in 60 digits; one that needs
# more overflows here instead of becoming a huge integer downstream.
_SCALED = Context(prec=60, Emax=59)


def apply_pv_gain(series: SlotSeries, gain) -> SlotSeries:
    """Scale a production series by the PV emulation gain.

    Each slot energy is multiplied and rounded half-even to integer Wh,
    which keeps conservation drift unbiased over long series.
    """
    if series.kind is not Kind.PRODUCTION:
        raise ValueError("pv gain applies to production series only")
    gain = as_decimal(gain, "gain")
    if gain <= 0:
        raise ValueError(f"gain must be > 0, got {gain}")
    try:
        with localcontext(_SCALED):
            values = [
                int((Decimal(e) * gain).to_integral_value(rounding=ROUND_HALF_EVEN))
                for e in series.energies
            ]
    except Overflow:
        raise ValueError(f"gain {gain} overflows the slot energies") from None
    return series.replace_values(values)


def add_constant_load(series: SlotSeries, power_kw) -> SlotSeries:
    """Add a flat load (e.g. a data centre) to a consumption series.

    power_kw x 0.5 h x 1000 extra Wh per 30-minute slot, rounded half-even
    when the power is not a multiple of 2 W.
    """
    if series.kind is not Kind.CONSUMPTION:
        raise ValueError("constant load applies to consumption series only")
    power_kw = as_decimal(power_kw, "power")
    if power_kw < 0:
        raise ValueError(f"power must be >= 0 kW, got {power_kw}")
    try:
        with localcontext(_SCALED):
            extra = int((power_kw * 500).to_integral_value(rounding=ROUND_HALF_EVEN))
    except Overflow:
        raise ValueError(f"power {power_kw} kW overflows the slot energies") from None
    return series.replace_values([e + extra for e in series.energies])


def read_text(path: str | Path, name: str) -> str:
    """The text of the UTF-8 file ``path``, with universal newlines and
    past one leading byte-order mark. Invalid UTF-8 is a ValueError that
    names the file, as ``name`` and the path, and the byte's offset in it:
    the mark is dropped only after the whole file is decoded, so the
    offset counts the mark's bytes too."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name} {path}: {exc}") from None
    return text.removeprefix("\ufeff")


class ScenarioConfig(Record):
    """Scenario transformations applied between ingestion and allocation."""

    _fields = ("pv_gain", "datacentre_load_kw", "include_datacentre")

    def __init__(
        self,
        pv_gain: Decimal = Decimal(1),
        datacentre_load_kw: Decimal = Decimal(0),
        include_datacentre: bool = False,
    ):
        pv_gain = as_decimal(pv_gain, "pv_gain")
        datacentre_load_kw = as_decimal(datacentre_load_kw, "datacentre_load_kw")
        if pv_gain <= 0:
            raise ValueError("pv_gain must be > 0")
        if datacentre_load_kw < 0:
            raise ValueError("datacentre_load_kw must be >= 0")
        self._set(pv_gain=pv_gain, datacentre_load_kw=datacentre_load_kw, include_datacentre=include_datacentre)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        """Load from a flat key=value file ('#' starts a comment), read as
        ``read_text`` reads it. An error names the file and the line it is
        on."""
        kwargs: dict = {}
        for number, raw in enumerate(read_text(path, "scenario config").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if "=" not in line:
                    raise ValueError(f"bad line {raw!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in ("pv_gain", "datacentre_load_kw", "include_datacentre"):
                    raise ValueError(f"unknown key {key!r}")
                kwargs[key] = _parse_bool(value) if key == "include_datacentre" else value
                cls(**{key: kwargs[key]})  # the value alone, checked as __init__ checks it
            except ValueError as exc:
                raise ValueError(f"scenario config {path} line {number}: {exc}") from None
        return cls(**kwargs)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


def derive_static_kors(history: Iterable[SlotSeries], window: DateRange) -> KorVector:
    """Derive static coefficients from consumption history over a window.

    Each participant's share of the total consumption is apportioned in
    parts per KOR_SCALE by largest remainder (ties to the smaller id), so
    the coefficients sum to exactly 1 even when the rounded shares alone
    would not. Series of one meter id given more than once are summed.
    """
    totals: dict[str, int] = {}
    covered: dict[str, bool] = {}
    for s in history:
        keep = window.mask(s.starts)
        totals[s.meter_id] = totals.get(s.meter_id, 0) + sum(compress(s.energies, keep))
        covered[s.meter_id] = covered.get(s.meter_id, False) or any(keep)
    if not totals:
        raise ValueError("no history series given")
    for pid, has_data in sorted(covered.items()):
        if not has_data:
            raise ValueError(f"participant {pid} has no data in window {window}")
    if sum(totals.values()) == 0:
        raise ValueError(f"no consumption in window {window}")

    ids = sorted(totals)
    parts = apportion(KOR_SCALE, [totals[pid] for pid in ids])
    return KorVector({pid: part / KOR_SCALE for pid, part in zip(ids, parts)})
