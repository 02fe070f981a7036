"""Core type invariants."""

import re
from datetime import date, datetime, timedelta, timezone, tzinfo
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cscshare
from cscshare import model
from cscshare.allocation import allocate_series
from cscshare.billing import _in_window
from cscshare.model import (
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotGrid,
    SlotSeries,
    parse_timestamp,
    validate_community,
)

from conftest import DAY, TZ, slot_ts

# Energy values every energy check rejects, with the end of its message.
BAD_ENERGY = [
    (True, "must be an integer Wh amount, got True"),
    (-1, "must be >= 0 Wh, got -1"),
    (1.0, "must be an integer Wh amount, got 1.0"),
]

# Slot starts that make no grid, series or table, each with the error that
# names the bad start.
REFUSED_STARTS = {
    "off-mark": (
        [slot_ts(0), slot_ts(0) + timedelta(minutes=10)],
        "timestamp 2022-05-04T00:10:00+02:00 is not 30-minute aligned",
    ),
    "second": (
        [slot_ts(0), slot_ts(0) + timedelta(seconds=1)],
        "timestamp 2022-05-04T00:00:01+02:00 is not 30-minute aligned",
    ),
    "decreasing": ([slot_ts(1), slot_ts(0)], "slots not strictly increasing at 2022-05-04T00:00:00+02:00"),
    "repeated": ([slot_ts(0), slot_ts(0)], "slots not strictly increasing at 2022-05-04T00:00:00+02:00"),
    "naive": ([slot_ts(0).replace(tzinfo=None)], "timestamp 2022-05-04T00:00:00 has no UTC offset"),
    "none": ([slot_ts(0), None], "slot start None is not a datetime"),
    "text": (
        [slot_ts(0), "2022-05-04T00:30:00+02:00"],
        "slot start '2022-05-04T00:30:00+02:00' is not a datetime",
    ),
}


class TestTimeGrid:
    def test_alignment_accepts_slot_boundaries(self):
        starts = (slot_ts(0), slot_ts(24), slot_ts(47))
        assert SlotSeries("m", Kind.CONSUMPTION, starts, (1, 2, 3)).starts == starts

    @pytest.mark.parametrize("minute,second", [(15, 0), (30, 30), (1, 0), (0, 1)])
    def test_misaligned_timestamps_rejected(self, minute, second):
        ts = datetime(2022, 5, 4, 10, minute, second, tzinfo=TZ)
        with pytest.raises(ValueError, match="aligned"):
            SlotSeries("m", Kind.CONSUMPTION, (ts,), (100,))

    def test_naive_timestamp_rejected(self):
        ts = datetime(2022, 5, 4, 10, 0)
        with pytest.raises(ValueError, match="offset"):
            SlotSeries("m", Kind.CONSUMPTION, (ts,), (100,))

    def test_parse_timestamp_handles_z_suffix(self):
        ts = parse_timestamp("2022-05-04T10:00:00Z")
        assert ts.utcoffset() == timedelta(0)

    def test_parse_timestamp_requires_offset(self):
        with pytest.raises(ValueError, match="offset"):
            parse_timestamp("2022-05-04T10:00:00")


class TestSlotSeries:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SlotSeries("m", Kind.CONSUMPTION, (slot_ts(1), slot_ts(1)), (5, 7))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SlotSeries("m", Kind.CONSUMPTION, (slot_ts(0),), (-1,))

    @pytest.mark.parametrize("energy,problem", BAD_ENERGY)
    def test_bad_energy_message_names_slot_and_meter(self, energy, problem):
        with pytest.raises(ValueError) as excinfo:
            SlotSeries("m7", Kind.CONSUMPTION, (slot_ts(0), slot_ts(1)), (5, energy))
        assert str(excinfo.value) == f"slot 2022-05-04T00:30:00+02:00 of meter m7 {problem}"

    def test_non_integer_energy_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            SlotSeries("m", Kind.CONSUMPTION, (slot_ts(0),), (1.5,))

    def test_columns_are_checked_as_the_pairs(self):
        starts, energies = (slot_ts(0), slot_ts(1)), (10, 20)
        s = SlotSeries("m", Kind.CONSUMPTION, starts, energies)
        # energy tuples and grids are kept as they are; starts become a
        # grid, other energy sequences tuples
        assert type(s.starts) is SlotGrid and s.starts == starts and s.energies is energies
        assert SlotSeries("m", Kind.CONSUMPTION, s.starts, energies).starts is s.starts
        assert s == SlotSeries("m", Kind.CONSUMPTION, list(starts), iter(energies))
        with pytest.raises(ValueError, match="strictly increasing at 2022-05-04T00:00:00"):
            SlotSeries("m", Kind.CONSUMPTION, starts[::-1], energies)
        with pytest.raises(ValueError, match="value count does not match slot count"):
            SlotSeries("m", Kind.CONSUMPTION, starts, (10,))

    def test_replace_values_shares_the_starts_and_checks_the_values(self):
        s = SlotSeries("m7", Kind.CONSUMPTION, (slot_ts(0), slot_ts(1)), (10, 20))
        assert s.replace_values([30, 40]).starts is s.starts
        assert s.replace_values([30, 40]).energies == (30, 40)
        with pytest.raises(ValueError) as excinfo:
            s.replace_values([30, -1])
        assert str(excinfo.value) == "slot 2022-05-04T00:30:00+02:00 of meter m7 must be >= 0 Wh, got -1"

    def test_total_and_window(self):
        s = SlotSeries("m", Kind.CONSUMPTION, (slot_ts(0), slot_ts(1)), (10, 20))
        assert s.total_wh() == 30
        assert s.total_wh(DateRange.single_day(DAY)) == 30
        assert s.total_wh(DateRange.single_day(DAY + timedelta(days=1))) == 0
        late = SlotSeries("m", Kind.CONSUMPTION, (slot_ts(47), slot_ts(0, DAY + timedelta(days=1))), (10, 20))
        assert late.total_wh(DateRange.single_day(DAY)) == 10

    def test_starts_of_an_unhashable_tzinfo_are_checked_one_by_one(self):
        zone = _Zone(timedelta(hours=2))
        with pytest.raises(TypeError):
            hash(zone)
        starts = tuple(ts.replace(tzinfo=zone) for ts in (slot_ts(0), slot_ts(1)))
        assert SlotSeries("m", Kind.CONSUMPTION, starts, (10, 20)).starts == starts

    def test_a_start_whose_tzinfo_gives_no_offset_is_named(self):
        zone = _Zone(timedelta(hours=2), none_at=slot_ts(1).replace(tzinfo=None))
        starts = tuple(slot_ts(k).replace(tzinfo=zone) for k in range(3))
        with pytest.raises(ValueError, match=r"^timestamp 2022-05-04T00:30:00 has no UTC offset$"):
            SlotSeries("m", Kind.CONSUMPTION, starts, (10, 20, 30))


class TestSlotGrid:
    def test_a_series_on_a_grid_does_not_check_its_starts_again(self, monkeypatch):
        grid = SlotGrid.of(slot_ts(k) for k in range(3))
        assert type(grid) is SlotGrid

        def checked(*args):
            raise AssertionError("starts checked again")

        monkeypatch.setattr(SlotGrid, "of", checked)
        monkeypatch.setattr(model, "_check_each_slot", checked)
        s = SlotSeries("m", Kind.CONSUMPTION, grid, [1, 2, 3])
        assert s.starts is grid and s.energies == (1, 2, 3)
        assert s.replace_values([4, 5, 6]).starts is grid

    def test_a_bad_energy_on_a_grid_is_named_with_its_slot(self):
        grid = SlotGrid.of(slot_ts(k) for k in range(3))
        with pytest.raises(ValueError) as excinfo:
            SlotSeries("m7", Kind.CONSUMPTION, grid, (1, -1, 3))
        assert str(excinfo.value) == "slot 2022-05-04T00:30:00+02:00 of meter m7 must be >= 0 Wh, got -1"

    @pytest.mark.parametrize("starts, message", REFUSED_STARTS.values(), ids=REFUSED_STARTS)
    def test_starts_a_series_refuses_make_no_grid(self, starts, message):
        """SlotGrid.of, a series and a table refuse the same starts; the
        series and the table name the first bad one."""
        assert SlotGrid.of(starts) is None
        ones = [1] * len(starts)
        with pytest.raises(ValueError, match=f"^(meter m: )?{re.escape(message)}$"):
            SlotSeries("m", Kind.CONSUMPTION, starts, ones)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AllocationTable(starts, ones, {"b1": ones}, {"b1": ones}, [0] * len(starts))

    def test_a_datetime_subclass_is_a_start(self):
        starts = [_Instant(2022, 5, 4, 0, 30 * k, tzinfo=TZ) for k in range(2)]
        assert SlotGrid.of(starts) == tuple(starts)
        assert SlotSeries("m", Kind.CONSUMPTION, starts, (1, 2)).starts == tuple(starts)
        table = AllocationTable(starts, (1, 2), {"b1": (1, 2)}, {"b1": (1, 2)}, (0, 0))
        assert type(table.slot_starts) is SlotGrid and table.slot_starts == tuple(starts)

    def test_a_table_on_a_grid_does_not_check_its_starts_again(self, monkeypatch):
        grid = SlotGrid.of(slot_ts(k) for k in range(2))
        listed = AllocationTable(list(grid), (10, 20), {"b1": (4, 5)}, {"b1": (4, 5)}, (6, 15))
        assert type(listed.slot_starts) is SlotGrid and listed.slot_starts == grid

        def checked(*args):
            raise AssertionError("starts checked again")

        monkeypatch.setattr(SlotGrid, "of", checked)
        table = AllocationTable(grid, (10, 20), {"b1": (4, 5)}, {"b1": (4, 5)}, (6, 15))
        assert table.slot_starts is grid

    def test_dates_bound_every_starts_local_date(self):
        """A later start may fall on an earlier local date; the bounds are
        read once."""
        late = datetime(2024, 1, 2, 0, 0, tzinfo=timezone(timedelta(hours=1)))
        earlier_date = (late + timedelta(minutes=30)).astimezone(timezone(timedelta(hours=-1)))
        grid = SlotGrid.of([late, earlier_date, late + timedelta(hours=2)])
        assert [ts.date() for ts in grid] == [date(2024, 1, 2), date(2024, 1, 1), date(2024, 1, 2)]
        assert grid.dates == (date(2024, 1, 1), date(2024, 1, 2))
        assert grid.__dict__["dates"] is grid.dates
        assert SlotGrid.of([]).dates is None
        assert DateRange.single_day(date(2024, 1, 5)).holds(SlotGrid.of([]))

    def test_series_on_one_grid_match_at_once(self, monkeypatch):
        """Allocation takes series on the production's grid without
        comparing slots, a window that holds the grid keeps the table, and
        validation finds no gap; equal grids that are not one object are
        compared, and a mismatch is still named."""
        grid = SlotGrid.of(slot_ts(k) for k in range(4))
        pv = SlotSeries("pv", Kind.PRODUCTION, grid, (10, 20, 30, 40))
        shared = SlotSeries("b1", Kind.CONSUMPTION, grid, (5, 5, 5, 5))
        equal = SlotSeries("b2", Kind.CONSUMPTION, list(grid), (5, 5, 5, 5))
        assert equal.starts == grid and equal.starts is not grid
        table = allocate_series(DefaultDynamicPolicy(), pv, [shared, equal])
        assert table.slot_starts is grid
        assert _in_window(table, DateRange.single_day(DAY)) is table
        assert len(_in_window(table, DateRange.single_day(DAY + timedelta(days=1)))) == 0
        community = Community(
            (Participant("b1", Decimal("0.1")), Participant("b2", Decimal("0.1"))), "pv", Decimal("0.06")
        )
        assert validate_community(community, [pv, shared, equal]).ok
        short = SlotSeries("b2", Kind.CONSUMPTION, grid[:3], (5, 5, 5))
        assert validate_community(community, [pv, shared, short]).findings == (
            "participant b2: gap at 2022-05-04T01:30:00+02:00",
        )
        with pytest.raises(ValueError, match="earliest slot in only one of them is 2022-05-04T01:30"):
            allocate_series(DefaultDynamicPolicy(), pv, [shared, short])


class _Instant(datetime):
    """A datetime of its own class."""


class _Zone(tzinfo):
    """A fixed offset that is not a datetime.timezone, unhashable, and
    without an offset at one local time if ``none_at`` names it."""

    __hash__ = None

    def __init__(self, offset: timedelta, none_at: datetime | None = None):
        self.offset, self.none_at = offset, none_at

    def utcoffset(self, dt):
        return None if dt.replace(tzinfo=None) == self.none_at else self.offset

    def dst(self, dt):
        return timedelta(0)


def _contains(window: DateRange, ts: datetime) -> bool:
    """Whether the local date of ``ts`` lies in the window."""
    return window.start <= ts.date() < window.end


class TestDateRange:
    @given(
        instants=st.lists(st.datetimes(datetime(2024, 1, 1), datetime(2024, 1, 9)), max_size=40),
        hours=st.lists(st.integers(-23, 23), min_size=1, max_size=4),
        first=st.dates(date(2024, 1, 1), date(2024, 1, 9)),
        days=st.integers(1, 4),
    )
    def test_mask_is_contains_of_each_start(self, instants, hours, first, days):
        """Each start is taken at its own local date, in any offset."""
        window = DateRange(first, first + timedelta(days=days))
        starts = [
            t.replace(tzinfo=timezone.utc).astimezone(timezone(timedelta(hours=hours[k % len(hours)])))
            for k, t in enumerate(instants)
        ]
        # a grid's date bounds tell a window that holds it; the constructor
        # does not check, so any starts make a grid here
        grid = SlotGrid(starts)
        assert window.mask(grid) == [_contains(window, ts) for ts in starts]
        assert window.holds(grid) == all(_contains(window, ts) for ts in starts)
        wide = DateRange(date(2023, 12, 30), date(2024, 1, 11))
        assert wide.mask(grid) == [True] * len(starts)
        assert wide.holds(grid)


class TestParticipant:
    def test_effective_value(self, buildings):
        b1, b2, b4 = buildings
        assert b1.effective_value_eur_per_kwh == Decimal("0.2158")
        assert b2.effective_value_eur_per_kwh == Decimal("0.1794")
        assert b4.effective_value_eur_per_kwh == Decimal("0.11")

    def test_zero_tariff_rejected(self):
        with pytest.raises(ValueError, match="tariff"):
            Participant(id="x", tariff_eur_per_kwh=Decimal(0))

    def test_negative_uplift_rejected(self):
        with pytest.raises(ValueError, match="uplift"):
            Participant(id="x", tariff_eur_per_kwh=Decimal("0.1"), grid_uplift_pct=Decimal(-1))

    def test_effective_value_is_exact(self):
        p = Participant("x", Decimal("0.1234567890123456789012345678901"), Decimal("28.3"), Decimal(38))
        assert p.effective_value_eur_per_kwh == Decimal("0.2053086401275308640127530864012363")

    @pytest.mark.parametrize("text", ["1E+100", "9.9E+100", "1E-100", "0.1333E-96"])
    def test_rates_within_the_bound_accepted(self, text):
        for zero in (Decimal(0), Decimal("0E-100"), Decimal("0E+100")):
            Participant("x", Decimal(text), Decimal(text), zero)
            Community([Participant("x", Decimal(1), zero, Decimal(text))], "pv", zero)
            Community([Participant("x", Decimal(1))], "pv", Decimal(text))

    @pytest.mark.parametrize("field, text", [
        *((field, text) for field in ("tariff", "grid uplift", "tax uplift")
          for text in ("1E+101", "1E-101", "0.1333E-97", "1e999999999", "1e-999999999")),
        ("grid uplift", "0E-101"), ("tax uplift", "0E+101"),
    ])
    def test_rates_beyond_the_bound_refused_by_name(self, field, text):
        rates = {"tariff": Decimal(1), "grid uplift": Decimal(0), "tax uplift": Decimal(0), field: Decimal(text)}
        message = f"^participant b1: {field} has a digit outside the places 10\\^-100 to 10\\^100$"
        with pytest.raises(ValueError, match=message):
            Participant("b1", *rates.values())


class TestCommunity:
    def test_production_meter_must_differ(self, buildings):
        with pytest.raises(ValueError, match="distinct"):
            Community(buildings, "b1", Decimal("0.06"))

    @pytest.mark.parametrize("text", ["1E+101", "1E-101", "0E-101"])
    def test_feed_in_beyond_the_bound_refused(self, buildings, text):
        with pytest.raises(ValueError, match="^feed-in rate has a digit outside the places"):
            Community(buildings, "pv", Decimal(text))


class TestKorVector:
    def test_accepts_exact_vector(self):
        kors = KorVector({"b1": 0.4245, "b2": 0.5039, "b4": 0.0716})
        assert kors.entries["b1"] == 0.4245

    @pytest.mark.parametrize("total", [0.99, 1.01, 0.5, 1.000001])
    def test_rejects_bad_sums(self, total):
        with pytest.raises(ValueError, match="sum to 1"):
            KorVector({"a": total / 2, "b": total / 2})

    def test_rejects_out_of_range_coefficient(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            KorVector({"a": 1.5, "b": -0.5})

    def test_equal_vector_sums_to_one(self):
        for n in (1, 2, 3, 7, 11):
            KorVector.equal([f"p{i}" for i in range(n)])  # must not raise

    def test_weights_of_a_tiny_coefficient(self):
        kors = KorVector({"a": 1e-05, "b": 0.99999})
        assert kors.texts() == {"a": "1e-05", "b": "0.99999"}
        assert kors.weights == {"a": 1, "b": 99999}

    @pytest.mark.parametrize(
        "n, text, weight",
        [(3, "0.3333333333333333", 3333333333333333), (7, "0.14285714285714285", 14285714285714285)],
    )
    def test_weights_of_an_equal_vector(self, n, text, weight):
        kors = KorVector.equal([f"p{i}" for i in range(n)])
        assert set(kors.texts().values()) == {text}
        assert set(kors.weights.values()) == {weight}

    def test_weights_share_one_power_of_ten(self):
        # the longest text (1/7, 17 decimals) sets the denominator 10**17
        kors = KorVector({"a": 1e-05, "b": 1 / 3, "c": 1 / 7, "d": 1 - 1e-05 - 1 / 3 - 1 / 7})
        assert kors.texts() == {
            "a": "1e-05", "b": "0.3333333333333333",
            "c": "0.14285714285714285", "d": "0.5237995238095239",
        }
        assert kors.weights == {
            "a": 10**12, "b": 33333333333333330,
            "c": 14285714285714285, "d": 52379952380952390,
        }

    @given(weights=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_texts_and_weights_are_the_same_decimals(self, weights):
        total = sum(weights)
        if total == 0:
            return
        kors = KorVector({f"p{i}": w / total for i, w in enumerate(weights)})
        scale = 10 ** max(-Decimal(t).as_tuple().exponent for t in kors.texts().values())
        for pid, text in kors.texts().items():
            assert text == str(kors.entries[pid])
            assert Fraction(kors.weights[pid], scale) == Fraction(text)

    @given(weights=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_normalized_weights_always_accepted(self, weights):
        total = sum(weights)
        if total == 0:
            return
        KorVector({f"p{i}": w / total for i, w in enumerate(weights)})


class TestSlotAllocation:
    """Allocation tables of one slot."""

    def test_conservation_enforced_at_construction(self):
        with pytest.raises(ValueError, match="conservation"):
            AllocationTable(
                (slot_ts(0),), (100,), {"a": (60,), "b": (60,)}, {"a": (60,), "b": (20,)}, (0,)
            )

    def test_cap_enforced_at_construction(self):
        with pytest.raises(ValueError, match="exceeds consumption"):
            AllocationTable((slot_ts(0),), (100,), {"a": (10,)}, {"a": (50,)}, (50,))

    @pytest.mark.parametrize("energy,problem", BAD_ENERGY)
    @pytest.mark.parametrize("field", ["consumption", "self_consumed"])
    def test_bad_energy_message_names_field_and_participant(self, field, energy, problem):
        entries = {"consumption": {"a": (60,), "b": (20,)}, "self_consumed": {"a": (10,), "b": (0,)}}
        entries[field]["b"] = (energy,)
        with pytest.raises(ValueError) as excinfo:
            AllocationTable((slot_ts(0),), (100,), surplus=(90,), **entries)
        assert str(excinfo.value) == f"{field}[b] {problem}"

    def test_valid_allocation(self):
        entries = {"a": (60,), "b": (20,)}
        a = AllocationTable((slot_ts(0),), (100,), entries, entries, (20,))
        assert len(a) == 1
        assert sum(map(sum, a.self_consumed.values())) == 80


class TestCustomDynamicPolicy:
    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            CustomDynamicPolicy(order=("a", "a"))


class TestValidateCommunity:
    def _series(self, meter, kind, ks, day=DAY):
        return SlotSeries(meter, kind, [slot_ts(k, day) for k in ks], [100] * len(ks))

    def test_well_formed_input_empty_report(self, community):
        series = [self._series("pv1", Kind.PRODUCTION, range(4))]
        series += [self._series(p, Kind.CONSUMPTION, range(4)) for p in ("b1", "b2", "b4")]
        report = validate_community(community, series)
        assert report.ok, report.findings

    def test_kor_sum_mismatch_reported(self, community):
        series = [self._series("pv1", Kind.PRODUCTION, range(2))]
        series += [self._series(p, Kind.CONSUMPTION, range(2)) for p in ("b1", "b2", "b4")]
        report = validate_community(
            community, series, kors={"b1": 0.33, "b2": 0.33, "b4": 0.33}
        )
        assert any("KoR sum != 1" in f for f in report.findings)

    def test_missing_slot_reported_as_gap(self, community):
        series = [self._series("pv1", Kind.PRODUCTION, range(22, 28))]
        series += [self._series(p, Kind.CONSUMPTION, range(22, 28)) for p in ("b1", "b2")]
        # b4 misses slot 24 (12:00)
        series.append(self._series("b4", Kind.CONSUMPTION, [22, 23, 25, 26, 27]))
        report = validate_community(community, series)
        assert any("b4" in f and "gap at" in f and "12:00" in f for f in report.findings)

    def test_missing_day_reported_as_one_gap(self, community):
        days = [DAY + timedelta(days=d) for d in range(3)]

        def day_series(meter, kind, ds):
            starts = [slot_ts(k, d) for d in ds for k in range(48)]
            return SlotSeries(meter, kind, starts, [100] * len(starts))

        series = [day_series("pv1", Kind.PRODUCTION, days)]
        series += [day_series(p, Kind.CONSUMPTION, days) for p in ("b1", "b2")]
        # b4 misses the whole middle day
        series.append(day_series("b4", Kind.CONSUMPTION, [days[0], days[2]]))
        report = validate_community(community, series)
        assert report.findings == (
            f"participant b4: gap of 48 slots from {slot_ts(0, days[1]).isoformat()} "
            f"to {slot_ts(47, days[1]).isoformat()}",
        )

    def test_missing_series_reported(self, community):
        series = [self._series("pv1", Kind.PRODUCTION, range(2))]
        report = validate_community(community, series)
        assert any("no consumption series for participant b1" in f for f in report.findings)


def test_every_exported_name_resolves():
    assert len(set(cscshare.__all__)) == len(cscshare.__all__)
    assert [name for name in cscshare.__all__ if not hasattr(cscshare, name)] == []
