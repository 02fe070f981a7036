"""Core domain types for the energy-sharing engine.

Energy is carried as non-negative integer watt-hours on an aligned
30-minute grid, which keeps every allocation identity exact. Currency
rates are finite decimals within RATE_PLACES, and money is exact: every
EUR figure is computed in the one MONEY context. All types are immutable
after construction and can be shared freely between threads.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero
from decimal import Inexact, InvalidOperation, Overflow, Rounded, localcontext
from enum import Enum
from functools import cached_property
from itertools import compress, groupby, islice, repeat
from operator import and_, attrgetter, gt, le, lt, methodcaller
from typing import Iterable, Mapping, Sequence

SLOT_MINUTES = 30
DAY_SLOTS = 48
SLOT_DURATION = timedelta(minutes=SLOT_MINUTES)

# Input gate for float coefficient vectors such as w / total, whose sum
# may miss 1 by a rounding error. It plays no part in a split: slots are
# apportioned by largest remainder over the recorded decimal texts of the
# coefficients (KorVector.weights), which need not sum to exactly 1.
KOR_SUM_TOLERANCE = 1e-9

# The one context of money: every EUR figure (effective rate, kWh x rate
# product, feed-in, sum, identity check) is computed in it. Its precision
# is unlimited and any rounding traps, so a figure is exact or the
# operation raises. It never divides: kWh and percentages are shifts
# (scaleb), because a division that does not terminate would exhaust
# memory at this precision. Rounding to cents happens only in rendering.
MONEY = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, Overflow, DivisionByZero],
)

# Every digit of a rate, uplift percentage or feed-in rate lies between
# the 10^RATE_PLACES and the 10^-RATE_PLACES place. Exact figures carry
# every digit of their rates, so this bound keeps each figure, sum and
# rendered text a few hundred digits long, where 1e999999999 would take
# a billion.
RATE_PLACES = 100


class Kind(str, Enum):
    """What a meter series measures."""

    CONSUMPTION = "consumption"
    PRODUCTION = "production"


def check_slot_aligned(ts: datetime) -> datetime:
    """Validate that a timestamp sits on the 30-minute settlement grid.

    Timestamps must carry an explicit UTC offset; slot positions are
    local-time based, so naive datetimes are rejected outright, and so is
    a start that is not a datetime.
    """
    if not isinstance(ts, datetime):
        raise ValueError(f"slot start {ts!r} is not a datetime")
    if ts.tzinfo is None or ts.utcoffset() is None:
        raise ValueError(f"timestamp {ts.isoformat()} has no UTC offset")
    if ts.minute % SLOT_MINUTES or ts.second or ts.microsecond:
        raise ValueError(f"timestamp {ts.isoformat()} is not 30-minute aligned")
    return ts


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp, requiring an explicit UTC offset."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None or ts.utcoffset() is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return ts


def check_energy_wh(value: int, what: str = "energy") -> int:
    """Validate a non-negative integer watt-hour amount."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer Wh amount, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be >= 0 Wh, got {value}")
    return value


def as_decimal(value, what: str = "value") -> Decimal:
    """Coerce a rate or percentage to a finite Decimal without float contamination.

    Text must parse as a decimal number; booleans, NaN and infinities are
    rejected with ValueError.
    """
    number = None
    if isinstance(value, float):
        # str() gives the shortest round-trip form, e.g. 25.48 -> "25.48"
        number = Decimal(str(value))
    elif isinstance(value, (Decimal, int, str)) and not isinstance(value, bool):
        try:
            number = Decimal(value)
        except InvalidOperation:
            pass
    if number is None or not number.is_finite():
        raise ValueError(f"{what} is not a decimal-compatible number: {value!r}")
    return number


def check_rate(rate: Decimal, what: str) -> None:
    """Refuse a rate with a digit outside RATE_PLACES, naming ``what``."""
    if rate.adjusted() > RATE_PLACES or rate.as_tuple().exponent < -RATE_PLACES:
        raise ValueError(f"{what} has a digit outside the places 10^-{RATE_PLACES} to 10^{RATE_PLACES}")


class Record:
    """What the package's record classes share, written out once rather
    than generated at import: ``==`` over the fields named in ``_fields``,
    only against a record of the same class; ``hash()`` over the same
    fields; a ``Name(field=value, ...)`` repr; and an AttributeError for
    any assignment or deletion, so each ``__init__`` sets its fields once
    through ``_set``."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    """A record whose fields can be assigned; it compares by them, so it
    is unhashable."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class DateRange(Record):
    """Half-open local-date window [start, end)."""

    _fields = ("start", "end")

    def __init__(self, start: date, end: date):
        if start >= end:
            raise ValueError(f"empty date range {start}..{end}")
        self._set(start=start, end=end)

    def holds(self, grid: SlotGrid) -> bool:
        """Whether the local date of every start of ``grid`` lies in the
        window, told by the grid's date bounds alone."""
        return grid.dates is None or (self.start <= grid.dates[0] and grid.dates[1] < self.end)

    def mask(self, grid: SlotGrid) -> list[bool]:
        """Whether each start's local date lies in the window, as one list."""
        if self.holds(grid):
            return [True] * len(grid)
        dates = list(map(datetime.date, grid))
        return list(map(and_, map(le, repeat(self.start), dates), map(lt, dates, repeat(self.end))))

    @classmethod
    def single_day(cls, day: date) -> "DateRange":
        return cls(day, day + timedelta(days=1))

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


class SlotGrid(tuple):
    """Slot starts, checked once as a whole: every start is a datetime
    that carries a UTC offset and sits on the 30-minute grid, and the
    starts strictly increase.

    ``SlotGrid.of`` checks and builds one; the constructor does not
    check. Series on the same slots can share one grid, so what compares
    the slots of two series, or windows them, tests identity first.
    ``dates`` bounds the starts' local dates, computed once.
    """

    @classmethod
    def of(cls, starts: Iterable[datetime]) -> SlotGrid | None:
        """The starts as a grid, or None if one of them is not a datetime
        or fails a check."""
        grid = cls(starts)
        if not (
            all(issubclass(t, datetime) for t in set(map(type, grid)))
            # a fixed-offset timezone never returns None; the types are
            # tested, not the zones, as a tzinfo may be unhashable
            and (
                set(map(type, map(attrgetter("tzinfo"), grid))) == {timezone}
                or None not in map(methodcaller("utcoffset"), grid)
            )
            and set(map(attrgetter("minute"), grid)) <= _SLOT_MINUTES_OF_HOUR
            and not any(map(attrgetter("second"), grid))
            and not any(map(attrgetter("microsecond"), grid))
            and all(map(lt, grid, islice(grid, 1, None)))
        ):
            return None
        return grid

    @cached_property
    def dates(self) -> tuple[date, date] | None:
        """The first and last local dates of the starts, or None without
        starts. A start's local date may precede the first start's, where
        its UTC offset puts it before local midnight, so each is read."""
        dates = set(map(datetime.date, self))
        return (min(dates), max(dates)) if dates else None


class SlotSeries(Record):
    """Per-meter energy on the 30-minute grid, integer Wh per slot.

    Held as two columns, the slot starts as a SlotGrid and their energies
    as a tuple, and checked once as a whole: the starts as a grid, unless
    they are one already, and every energy an int >= 0. The first bad
    slot's error is raised.
    """

    _fields = ("meter_id", "kind", "starts", "energies")

    def __init__(self, meter_id: str, kind: Kind, starts: Iterable[datetime], energies: Iterable[int]):
        starts = starts if type(starts) is SlotGrid else tuple(starts)
        energies = tuple(energies)
        if len(starts) != len(energies):
            raise ValueError("value count does not match slot count")
        grid = starts if type(starts) is SlotGrid else SlotGrid.of(starts)
        if grid is None or not (set(map(type, energies)) <= {int} and min(energies, default=0) >= 0):
            # raises for every start SlotGrid.of refuses, so grid is set after it
            _check_each_slot(meter_id, starts, energies)
        self._set(meter_id=meter_id, kind=kind, starts=grid, energies=energies)

    def __len__(self) -> int:
        return len(self.starts)

    def total_wh(self, window: DateRange | None = None) -> int:
        if window is None:
            return sum(self.energies)
        return sum(compress(self.energies, window.mask(self.starts)))

    def replace_values(self, values: Sequence[int]) -> "SlotSeries":
        """The same slots with new energies; the grid is shared."""
        return SlotSeries(self.meter_id, self.kind, self.starts, values)


_SLOT_MINUTES_OF_HOUR = frozenset(range(0, 60, SLOT_MINUTES))


def _check_each_slot(meter_id: str, starts, energies) -> None:
    """Check the columns slot by slot and raise the first bad slot's error.

    Runs when the whole-column checks fail; an energy of an int subclass,
    which they reject, passes here.
    """
    prev = None
    for ts, energy in zip(starts, energies):
        check_slot_aligned(ts)
        # the label is built only for the check that raises
        if type(energy) is not int or energy < 0:
            check_energy_wh(energy, f"slot {ts.isoformat()} of meter {meter_id}")
        if prev is not None and ts <= prev:
            raise ValueError(f"meter {meter_id}: slots not strictly increasing at {ts.isoformat()}")
        prev = ts


class Participant(Record):
    """A consuming building taking part in the sharing operation.

    tariff_eur_per_kwh is the supply rate its self-consumed energy avoids;
    the two uplift percentages are the variable grid-fee and tax shares
    additionally avoided under the ownership rules of the operation.
    """

    _fields = ("id", "tariff_eur_per_kwh", "grid_uplift_pct", "tax_uplift_pct")

    def __init__(
        self,
        id: str,
        tariff_eur_per_kwh: Decimal,
        grid_uplift_pct: Decimal = Decimal(0),
        tax_uplift_pct: Decimal = Decimal(0),
    ):
        tariff = as_decimal(tariff_eur_per_kwh, "tariff")
        grid_uplift = as_decimal(grid_uplift_pct, "grid uplift")
        tax_uplift = as_decimal(tax_uplift_pct, "tax uplift")
        if not id:
            raise ValueError("participant id must be non-empty")
        if tariff <= 0:
            raise ValueError(f"participant {id}: tariff must be > 0")
        if grid_uplift < 0 or tax_uplift < 0:
            raise ValueError(f"participant {id}: uplift percentages must be >= 0")
        check_rate(tariff, f"participant {id}: tariff")
        check_rate(grid_uplift, f"participant {id}: grid uplift")
        check_rate(tax_uplift, f"participant {id}: tax uplift")
        self._set(id=id, tariff_eur_per_kwh=tariff, grid_uplift_pct=grid_uplift, tax_uplift_pct=tax_uplift)

    @property
    def effective_value_eur_per_kwh(self) -> Decimal:
        """Value of one self-consumed kWh, uplifts included, exact."""
        with localcontext(MONEY):
            return self.tariff_eur_per_kwh * (1 + (self.grid_uplift_pct + self.tax_uplift_pct).scaleb(-2))


class Community(Record):
    """The participants behind one shared production meter."""

    _fields = ("participants", "production_meter", "feed_in_eur_per_kwh")

    def __init__(self, participants: Iterable[Participant], production_meter: str, feed_in_eur_per_kwh: Decimal):
        participants = tuple(participants)
        feed_in = as_decimal(feed_in_eur_per_kwh, "feed-in rate")
        if not participants:
            raise ValueError("community needs at least one participant")
        ids = [p.id for p in participants]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate participant ids")
        if production_meter in ids:
            raise ValueError("production meter must be distinct from participant meters")
        if feed_in < 0:
            raise ValueError("feed-in rate must be >= 0")
        check_rate(feed_in, "feed-in rate")
        self._set(participants=participants, production_meter=production_meter, feed_in_eur_per_kwh=feed_in)

    def participant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.participants)


class KorVector(Record):
    """Static repartition coefficients, one per participant, summing to 1.

    ``weights`` holds each coefficient's decimal text (``texts()``, the
    form the audit ledger records) as an integer over one power-of-ten
    denominator, e.g. 0.5 and 0.25 -> 50 and 25. Static splits apportion
    along these weights, so each one can be recomputed from the ledger.
    The weights are not compared, hashed or shown.
    """

    _fields = ("entries",)

    def __init__(self, entries: Mapping[str, float]):
        entries = dict(entries)
        self._set(entries=entries)
        if not entries:
            raise ValueError("repartition vector must not be empty")
        for pid, coeff in entries.items():
            coeff = float(coeff)
            entries[pid] = coeff
            if not 0.0 <= coeff <= 1.0:
                raise ValueError(f"coefficient for {pid} outside [0, 1]: {coeff}")
        total = sum(entries.values())
        if abs(total - 1.0) > KOR_SUM_TOLERANCE:
            raise ValueError(f"coefficients must sum to 1 ± {KOR_SUM_TOLERANCE}, got {total!r}")
        # a float's text has at most 17 significant digits: scaleb is exact
        exact = {pid: as_decimal(text) for pid, text in self.texts().items()}
        places = max(0, *(-d.as_tuple().exponent for d in exact.values()))
        self._set(weights={p: int(d.scaleb(places)) for p, d in exact.items()})

    @classmethod
    def equal(cls, participant_ids: Iterable[str]) -> "KorVector":
        ids = list(participant_ids)
        share = 1.0 / len(ids)
        return cls({pid: share for pid in ids})

    def texts(self) -> dict[str, str]:
        """Each coefficient as the shortest decimal text that round-trips."""
        return {pid: str(c) for pid, c in self.entries.items()}

    def participant_ids(self) -> set[str]:
        return set(self.entries)


class StaticPolicy(Record):
    """Fixed coefficients per slot; over-allocation is lost to the grid."""

    _fields = ("kors", "name")

    def __init__(self, kors: KorVector, name: str = "static"):
        self._set(kors=kors, name=name)


class DefaultDynamicPolicy(Record):
    """Per-slot coefficients proportional to each participant's consumption."""

    _fields = ("name",)

    def __init__(self, name: str = "default-dynamic"):
        self._set(name=name)


class CustomDynamicPolicy(Record):
    """Priority waterfall, first-ranked participant served first."""

    _fields = ("order", "name")

    def __init__(self, order: Iterable[str], name: str = "custom-dynamic"):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("priority order contains duplicates")
        self._set(order=order, name=name)


AllocationPolicy = StaticPolicy | DefaultDynamicPolicy | CustomDynamicPolicy


class AllocationTable(Record):
    """One policy's allocations over a slot series, one column per quantity
    and participant, checked once as a whole: in every slot each energy is
    an int >= 0, no participant self-consumes more than it consumes, and
    self-consumed energy plus the surplus fed to the grid equals production,
    exactly, in integer Wh. The slot starts are kept as a SlotGrid,
    checked as a series' starts are unless they are one already. The
    first bad slot's error is raised. Tables compare and hash by
    identity."""

    _fields = ("slot_starts", "production", "consumption", "self_consumed", "surplus")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        slot_starts: Sequence[datetime],
        production: Sequence[int],
        consumption: Mapping[str, Sequence[int]],
        self_consumed: Mapping[str, Sequence[int]],
        surplus: Sequence[int],
    ):
        grid = slot_starts if type(slot_starts) is SlotGrid else SlotGrid.of(slot_starts)
        self._set(
            slot_starts=grid, production=production, consumption=consumption,
            self_consumed=self_consumed, surplus=surplus,
        )
        n, shares = len(production), self_consumed.values()
        columns = (production, surplus, *consumption.values(), *shares)
        if not (
            grid is not None
            and set(consumption) == set(self_consumed)
            and len(slot_starts) == n
            and all(len(c) == n and set(map(type, c)) <= {int} and min(c, default=0) >= 0 for c in columns)
            and not any(any(map(gt, self_consumed[p], c)) for p, c in consumption.items())
            and list(map(sum, zip(*shares, surplus))) == list(production)
        ):
            # raises for every start SlotGrid.of refuses, on equally long columns
            _check_each_row(self, slot_starts)
            raise ValueError("allocation columns must be equally long and hold plain ints")

    def __len__(self) -> int:
        return len(self.production)


def _check_each_row(table: AllocationTable, starts: Sequence[datetime]) -> None:
    """Check the slots every column, ``starts`` included, reaches one by
    one and raise the first bad slot's error.

    Runs when the whole-column checks fail; an energy of an int subclass,
    which they reject, passes here.
    """
    production, surplus = table.production, table.surplus
    consumption, self_consumed = table.consumption, table.self_consumed
    columns = (starts, production, surplus, *consumption.values(), *self_consumed.values())
    for k in range(min(map(len, columns))):
        check_energy_wh(production[k], "production")
        check_energy_wh(surplus[k], "surplus")
        check_slot_aligned(starts[k])
        if k and starts[k] <= starts[k - 1]:
            raise ValueError(f"slots not strictly increasing at {starts[k].isoformat()}")
        if set(consumption) != set(self_consumed):
            raise ValueError("self_consumed keys differ from consumption keys")
        for pid, c in consumption.items():
            check_energy_wh(c[k], f"consumption[{pid}]")
            sc = check_energy_wh(self_consumed[pid][k], f"self_consumed[{pid}]")
            if sc > c[k]:
                raise ValueError(f"self_consumed[{pid}] = {sc} exceeds consumption {c[k]}")
        total = sum(c[k] for c in self_consumed.values())
        if total + surplus[k] != production[k]:
            raise ValueError(
                "conservation violated: self_consumed + surplus != production "
                f"({total} + {surplus[k]} != {production[k]})"
            )


class ValidationReport(Record):
    """Findings from validate_community; empty means the inputs line up."""

    _fields = ("findings",)

    def __init__(self, findings: tuple[str, ...] = ()):
        self._set(findings=findings)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_community(
    community: Community,
    series: Iterable[SlotSeries],
    kors: Mapping[str, float] | None = None,
) -> ValidationReport:
    """Cross-check a community against its meter series.

    Returns findings rather than raising: completeness checks run on data
    that individually passed construction, and a report of everything
    wrong at once is more useful than the first failure.

    kors, when given, is a raw (not yet constructed) coefficient mapping
    to be vetted against the community roster and the sum-to-1 rule.
    """
    findings: list[str] = []
    series = list(series)

    by_meter: dict[str, SlotSeries] = {}
    for s in series:
        if s.meter_id in by_meter:
            findings.append(f"duplicate series for meter {s.meter_id}")
        by_meter[s.meter_id] = s

    production = by_meter.get(community.production_meter)
    if production is None:
        findings.append(f"no series for production meter {community.production_meter}")
    elif production.kind is not Kind.PRODUCTION:
        findings.append(f"production meter {community.production_meter} series is not production kind")

    known = set(community.participant_ids()) | {community.production_meter}
    for meter_id in by_meter:
        if meter_id not in known:
            findings.append(f"series for unknown meter {meter_id}")

    for pid in community.participant_ids():
        s = by_meter.get(pid)
        if s is None:
            findings.append(f"no consumption series for participant {pid}")
            continue
        if s.kind is not Kind.CONSUMPTION:
            findings.append(f"participant {pid} series is not consumption kind")
        if production is not None and s.starts is not production.starts:
            # one finding per run of consecutive production slots missing here
            have = set(s.starts)
            for missing, run in groupby(production.starts, key=lambda ts: ts not in have):
                if not missing:
                    continue
                run = list(run)
                if len(run) == 1:
                    findings.append(f"participant {pid}: gap at {run[0].isoformat()}")
                else:
                    findings.append(
                        f"participant {pid}: gap of {len(run)} slots "
                        f"from {run[0].isoformat()} to {run[-1].isoformat()}"
                    )

    if kors is not None:
        roster = set(community.participant_ids())
        for pid in kors:
            if pid not in roster:
                findings.append(f"KoR entry for unknown participant {pid}")
        for pid in roster:
            if pid not in kors:
                findings.append(f"KoR entry missing for participant {pid}")
        for pid, coeff in kors.items():
            if not 0.0 <= float(coeff) <= 1.0:
                findings.append(f"KoR coefficient for {pid} outside [0, 1]: {coeff}")
        total = sum(float(c) for c in kors.values())
        if abs(total - 1.0) > KOR_SUM_TOLERANCE:
            findings.append(f"KoR sum != 1 (got {total!r})")

    return ValidationReport(tuple(findings))
