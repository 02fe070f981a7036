"""Core type invariants."""

from datetime import datetime, timedelta
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cscshare.model import (
    Community,
    CustomDynamicPolicy,
    DateRange,
    Kind,
    KorVector,
    Participant,
    SlotAllocation,
    SlotSeries,
    parse_timestamp,
    slot_index,
    validate_community,
)

from conftest import DAY, TZ, slot_ts

# Energy values every energy check rejects, with the end of its message.
BAD_ENERGY = [
    (True, "must be an integer Wh amount, got True"),
    (-1, "must be >= 0 Wh, got -1"),
    (1.0, "must be an integer Wh amount, got 1.0"),
]


class TestTimeGrid:
    def test_alignment_accepts_slot_boundaries(self):
        assert slot_index(slot_ts(0)) == 0
        assert slot_index(slot_ts(24)) == 24
        assert slot_index(slot_ts(47)) == 47

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
        # tuples are kept as they are; other sequences become tuples
        assert s.starts is starts and s.energies is energies
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


class TestCommunity:
    def test_duplicate_ranks_rejected(self, buildings):
        b1, b2, b4 = buildings
        clash = Participant(id="b9", tariff_eur_per_kwh=Decimal("0.1"), priority_rank=1)
        with pytest.raises(ValueError, match="ranks"):
            Community((b1, b2, b4, clash), "pv1", Decimal("0.06"))

    def test_production_meter_must_differ(self, buildings):
        with pytest.raises(ValueError, match="distinct"):
            Community(buildings, "b1", Decimal("0.06"))

    def test_rank_order(self, community):
        assert community.rank_order() == ("b1", "b2", "b4")


class TestKorVector:
    def test_accepts_exact_vector(self):
        kors = KorVector({"b1": 0.4245, "b2": 0.5039, "b4": 0.0716})
        assert kors.coefficient("b1") == 0.4245

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
            assert text == str(kors.coefficient(pid))
            assert Fraction(kors.weights[pid], scale) == Fraction(text)

    @given(weights=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_normalized_weights_always_accepted(self, weights):
        total = sum(weights)
        if total == 0:
            return
        KorVector({f"p{i}": w / total for i, w in enumerate(weights)})


class TestSlotAllocation:
    def test_conservation_enforced_at_construction(self):
        with pytest.raises(ValueError, match="conservation"):
            SlotAllocation(
                production=100,
                consumption={"a": 60, "b": 60},
                self_consumed={"a": 60, "b": 20},
                surplus_to_grid=0,
            )

    def test_cap_enforced_at_construction(self):
        with pytest.raises(ValueError, match="exceeds consumption"):
            SlotAllocation(
                production=100,
                consumption={"a": 10},
                self_consumed={"a": 50},
                surplus_to_grid=50,
            )

    @pytest.mark.parametrize("energy,problem", BAD_ENERGY)
    @pytest.mark.parametrize("field", ["consumption", "self_consumed"])
    def test_bad_energy_message_names_field_and_participant(self, field, energy, problem):
        entries = {"consumption": {"a": 60, "b": 20}, "self_consumed": {"a": 10, "b": 0}}
        entries[field]["b"] = energy
        with pytest.raises(ValueError) as excinfo:
            SlotAllocation(production=100, surplus_to_grid=90, **entries)
        assert str(excinfo.value) == f"{field}[b] {problem}"

    def test_valid_allocation(self):
        a = SlotAllocation(
            production=100,
            consumption={"a": 60, "b": 20},
            self_consumed={"a": 60, "b": 20},
            surplus_to_grid=20,
        )
        assert a.total_self_consumed == 80


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
