"""Core domain types for the energy-sharing engine.

Energy is carried as non-negative integer watt-hours on an aligned
30-minute grid, which keeps every allocation identity exact. Currency
rates are decimals. All types are immutable after construction and can
be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from decimal import Decimal, InvalidOperation
from enum import Enum
from itertools import groupby, islice
from operator import attrgetter, gt, lt, methodcaller
from typing import Iterable, Mapping, Sequence

SLOT_MINUTES = 30
DAY_SLOTS = 48
SLOT_DURATION = timedelta(minutes=SLOT_MINUTES)

# Input gate for float coefficient vectors such as w / total, whose sum
# may miss 1 by a rounding error. It plays no part in a split: slots are
# apportioned by largest remainder over the recorded decimal texts of the
# coefficients (KorVector.weights), which need not sum to exactly 1.
KOR_SUM_TOLERANCE = 1e-9


class Kind(str, Enum):
    """What a meter series measures."""

    CONSUMPTION = "consumption"
    PRODUCTION = "production"


def check_slot_aligned(ts: datetime) -> datetime:
    """Validate that a timestamp sits on the 30-minute settlement grid.

    Timestamps must carry an explicit UTC offset; slot positions are
    local-time based, so naive datetimes are rejected outright.
    """
    if ts.tzinfo is None or ts.utcoffset() is None:
        raise ValueError(f"timestamp {ts.isoformat()} has no UTC offset")
    if ts.minute % SLOT_MINUTES or ts.second or ts.microsecond:
        raise ValueError(f"timestamp {ts.isoformat()} is not 30-minute aligned")
    return ts


def slot_index(ts: datetime) -> int:
    """Position of a slot within its local day (0..47)."""
    check_slot_aligned(ts)
    return (ts.hour * 60 + ts.minute) // SLOT_MINUTES


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


@dataclass(frozen=True)
class DateRange:
    """Half-open local-date window [start, end)."""

    start: date
    end: date

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty date range {self.start}..{self.end}")

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts.date() < self.end

    @classmethod
    def single_day(cls, day: date) -> "DateRange":
        return cls(day, day + timedelta(days=1))

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


@dataclass(frozen=True)
class SlotSeries:
    """Per-meter energy on the 30-minute grid, integer Wh per slot.

    Held as two columns, the slot starts and their energies (any sequences,
    kept as tuples), and checked once as a whole: every start carries a UTC
    offset and sits on the grid, starts strictly increase, and every energy
    is an int >= 0. The first bad slot's error is raised.
    """

    meter_id: str
    kind: Kind
    starts: tuple[datetime, ...]
    energies: tuple[int, ...]

    def __post_init__(self):
        starts, energies = tuple(self.starts), tuple(self.energies)
        if len(starts) != len(energies):
            raise ValueError("value count does not match slot count")
        if not (
            None not in map(methodcaller("utcoffset"), starts)
            and set(map(attrgetter("minute"), starts)) <= _SLOT_MINUTES_OF_HOUR
            and not any(map(attrgetter("second"), starts))
            and not any(map(attrgetter("microsecond"), starts))
            and all(map(lt, starts, islice(starts, 1, None)))
            and set(map(type, energies)) <= {int}
            and min(energies, default=0) >= 0
        ):
            _check_each_slot(self.meter_id, starts, energies)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "energies", energies)

    def __len__(self) -> int:
        return len(self.starts)

    def total_wh(self, window: DateRange | None = None) -> int:
        if window is None:
            return sum(self.energies)
        return sum(e for ts, e in zip(self.starts, self.energies) if window.contains(ts))

    def replace_values(self, values: Sequence[int]) -> "SlotSeries":
        """The same slots with new energies; the starts column is shared."""
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


@dataclass(frozen=True)
class Participant:
    """A consuming building taking part in the sharing operation.

    tariff_eur_per_kwh is the supply rate its self-consumed energy avoids;
    the two uplift percentages are the variable grid-fee and tax shares
    additionally avoided under the ownership rules of the operation.
    priority_rank orders participants for explicitly ranked policies
    (1 = first served).
    """

    id: str
    tariff_eur_per_kwh: Decimal
    grid_uplift_pct: Decimal = Decimal(0)
    tax_uplift_pct: Decimal = Decimal(0)
    priority_rank: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "tariff_eur_per_kwh", as_decimal(self.tariff_eur_per_kwh, "tariff")
        )
        object.__setattr__(
            self, "grid_uplift_pct", as_decimal(self.grid_uplift_pct, "grid uplift")
        )
        object.__setattr__(
            self, "tax_uplift_pct", as_decimal(self.tax_uplift_pct, "tax uplift")
        )
        if not self.id:
            raise ValueError("participant id must be non-empty")
        if self.tariff_eur_per_kwh <= 0:
            raise ValueError(f"participant {self.id}: tariff must be > 0")
        if self.grid_uplift_pct < 0 or self.tax_uplift_pct < 0:
            raise ValueError(f"participant {self.id}: uplift percentages must be >= 0")
        if self.priority_rank < 1:
            raise ValueError(f"participant {self.id}: priority_rank must be >= 1")

    @property
    def effective_value_eur_per_kwh(self) -> Decimal:
        """Value of one self-consumed kWh, uplifts included."""
        uplift = (self.grid_uplift_pct + self.tax_uplift_pct) / Decimal(100)
        return self.tariff_eur_per_kwh * (1 + uplift)


@dataclass(frozen=True)
class Community:
    """The participants behind one shared production meter."""

    participants: tuple[Participant, ...]
    production_meter: str
    feed_in_eur_per_kwh: Decimal

    def __post_init__(self):
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(
            self,
            "feed_in_eur_per_kwh",
            as_decimal(self.feed_in_eur_per_kwh, "feed-in rate"),
        )
        if not self.participants:
            raise ValueError("community needs at least one participant")
        ids = [p.id for p in self.participants]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate participant ids")
        ranks = [p.priority_rank for p in self.participants]
        if len(set(ranks)) != len(ranks):
            raise ValueError("priority ranks must be unique within a community")
        if self.production_meter in ids:
            raise ValueError("production meter must be distinct from participant meters")
        if self.feed_in_eur_per_kwh < 0:
            raise ValueError("feed-in rate must be >= 0")

    def participant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.participants)

    def rank_order(self) -> tuple[str, ...]:
        """Participant ids sorted by explicit priority rank."""
        return tuple(p.id for p in sorted(self.participants, key=lambda p: p.priority_rank))


@dataclass(frozen=True)
class KorVector:
    """Static repartition coefficients, one per participant, summing to 1.

    ``weights`` holds each coefficient's decimal text (``texts()``, the
    form the audit ledger records) as an integer over one power-of-ten
    denominator, e.g. 0.5 and 0.25 -> 50 and 25. Static splits apportion
    along these weights, so each one can be recomputed from the ledger.
    """

    entries: Mapping[str, float]
    weights: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = dict(self.entries)
        object.__setattr__(self, "entries", entries)
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
        object.__setattr__(self, "weights", {p: int(d.scaleb(places)) for p, d in exact.items()})

    @classmethod
    def equal(cls, participant_ids: Iterable[str]) -> "KorVector":
        ids = list(participant_ids)
        share = 1.0 / len(ids)
        return cls({pid: share for pid in ids})

    def coefficient(self, participant_id: str) -> float:
        return self.entries[participant_id]

    def texts(self) -> dict[str, str]:
        """Each coefficient as the shortest decimal text that round-trips."""
        return {pid: str(c) for pid, c in self.entries.items()}

    def participant_ids(self) -> set[str]:
        return set(self.entries)


@dataclass(frozen=True)
class StaticPolicy:
    """Fixed coefficients per slot; over-allocation is lost to the grid."""

    kors: KorVector
    name: str = "static"


@dataclass(frozen=True)
class DefaultDynamicPolicy:
    """Per-slot coefficients proportional to each participant's consumption."""

    name: str = "default-dynamic"


@dataclass(frozen=True)
class CustomDynamicPolicy:
    """Priority waterfall, first-ranked participant served first."""

    order: tuple[str, ...]
    name: str = "custom-dynamic"

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValueError("priority order contains duplicates")


AllocationPolicy = StaticPolicy | DefaultDynamicPolicy | CustomDynamicPolicy


@dataclass(frozen=True)
class SlotAllocation:
    """Outcome of one 30-minute settlement slot.

    Conservation is structural: self-consumed energy plus the surplus fed
    to the grid equals production, exactly, in integer Wh.
    """

    production: int
    consumption: Mapping[str, int]
    self_consumed: Mapping[str, int]
    surplus_to_grid: int
    slot_start: datetime | None = None

    def __post_init__(self):
        object.__setattr__(self, "consumption", dict(self.consumption))
        object.__setattr__(self, "self_consumed", dict(self.self_consumed))
        check_energy_wh(self.production, "production")
        check_energy_wh(self.surplus_to_grid, "surplus")
        if self.slot_start is not None:
            check_slot_aligned(self.slot_start)
        if set(self.consumption) != set(self.self_consumed):
            raise ValueError("self_consumed keys differ from consumption keys")
        for pid, c in self.consumption.items():
            check_energy_wh(c, f"consumption[{pid}]")
            sc = check_energy_wh(self.self_consumed[pid], f"self_consumed[{pid}]")
            if sc > c:
                raise ValueError(f"self_consumed[{pid}] = {sc} exceeds consumption {c}")
        if self.total_self_consumed + self.surplus_to_grid != self.production:
            raise ValueError(
                "conservation violated: self_consumed + surplus != production "
                f"({self.total_self_consumed} + {self.surplus_to_grid} != {self.production})"
            )

    @property
    def total_self_consumed(self) -> int:
        return sum(self.self_consumed.values())


@dataclass(frozen=True, eq=False)
class AllocationTable(Sequence[SlotAllocation]):
    """One policy's allocations over a slot series, one column per quantity
    and participant, checked once as a whole for what SlotAllocation checks
    per slot but alignment. ``table[k]`` is slot k as a SlotAllocation, and
    a table equals every sequence of the same rows."""

    slot_starts: Sequence[datetime | None]
    production: Sequence[int]
    consumption: Mapping[str, Sequence[int]]
    self_consumed: Mapping[str, Sequence[int]]
    surplus: Sequence[int]

    def __post_init__(self):
        n, shares = len(self.production), self.self_consumed.values()
        columns = (self.production, self.surplus, *self.consumption.values(), *shares)
        if not (
            set(self.consumption) == set(self.self_consumed)
            and len(self.slot_starts) == n
            and all(len(c) == n and set(map(type, c)) <= {int} and min(c, default=0) >= 0 for c in columns)
            and not any(any(map(gt, self.self_consumed[p], c)) for p, c in self.consumption.items())
            and list(map(sum, zip(*shares, self.surplus))) == list(self.production)
        ):
            list(self)  # the first bad slot raises its error
            raise ValueError("allocation columns must be equally long and hold plain ints")

    @classmethod
    def from_rows(cls, rows: Iterable[SlotAllocation]) -> "AllocationTable":
        """The table of some rows; a participant a row lacks has 0 Wh there."""
        rows = list(rows)
        ids = dict.fromkeys(pid for a in rows for pid in a.consumption)
        return cls(
            tuple(a.slot_start for a in rows), tuple(a.production for a in rows),
            {p: tuple(a.consumption.get(p, 0) for a in rows) for p in ids},
            {p: tuple(a.self_consumed.get(p, 0) for a in rows) for p in ids},
            tuple(a.surplus_to_grid for a in rows),
        )

    def __len__(self) -> int:
        return len(self.production)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return SlotAllocation(
            self.production[k], {p: c[k] for p, c in self.consumption.items()},
            {p: c[k] for p, c in self.self_consumed.items()}, self.surplus[k], self.slot_starts[k],
        )

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass(frozen=True)
class TariffBook:
    """Electricity rates and uplift percentages for one community, in EUR."""

    tariffs_eur_per_kwh: Mapping[str, Decimal]
    grid_uplift_pct: Mapping[str, Decimal]
    tax_uplift_pct: Mapping[str, Decimal]
    feed_in_eur_per_kwh: Decimal
    currency: str = "EUR"

    def __post_init__(self):
        object.__setattr__(self, "tariffs_eur_per_kwh", dict(self.tariffs_eur_per_kwh))
        object.__setattr__(self, "grid_uplift_pct", dict(self.grid_uplift_pct))
        object.__setattr__(self, "tax_uplift_pct", dict(self.tax_uplift_pct))
        keys = set(self.tariffs_eur_per_kwh)
        if set(self.grid_uplift_pct) != keys or set(self.tax_uplift_pct) != keys:
            raise ValueError("tariff book maps must cover the same participants")
        for m in (self.tariffs_eur_per_kwh, self.grid_uplift_pct, self.tax_uplift_pct):
            for pid, rate in m.items():
                if as_decimal(rate) < 0:
                    raise ValueError(f"negative rate for {pid}")
        if as_decimal(self.feed_in_eur_per_kwh) < 0:
            raise ValueError("negative feed-in rate")

    @classmethod
    def from_community(cls, community: Community) -> "TariffBook":
        return cls(
            tariffs_eur_per_kwh={p.id: p.tariff_eur_per_kwh for p in community.participants},
            grid_uplift_pct={p.id: p.grid_uplift_pct for p in community.participants},
            tax_uplift_pct={p.id: p.tax_uplift_pct for p in community.participants},
            feed_in_eur_per_kwh=community.feed_in_eur_per_kwh,
        )

    def effective_value_eur_per_kwh(self, participant_id: str) -> Decimal:
        """Avoided cost of one self-consumed kWh for the given participant."""
        uplift = (
            self.grid_uplift_pct[participant_id] + self.tax_uplift_pct[participant_id]
        ) / Decimal(100)
        return self.tariffs_eur_per_kwh[participant_id] * (1 + uplift)


@dataclass(frozen=True)
class ValidationReport:
    """Findings from validate_community; empty means the inputs line up."""

    findings: tuple[str, ...] = field(default_factory=tuple)

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
        if production is not None:
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
