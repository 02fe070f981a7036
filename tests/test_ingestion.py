"""CSV ingestion, grid normalization and scenario transformations."""

import csv
import gc
import io
import re
import tempfile
import weakref
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cscshare import ingestion
from cscshare.ingestion import (
    IngestResult,
    MeterClass,
    MeterReadings,
    QuantityKind,
    RawMeterRecord,
    ScenarioConfig,
    _Timestamps,
    _round_half_even,
    add_constant_load,
    apply_pv_gain,
    derive_static_kors,
    ingest_csv,
    normalize_to_slots,
    readings_by_meter,
)
from cscshare.model import DateRange, Kind, SLOT_MINUTES, SlotSeries, parse_timestamp

from cscshare.runner import _ingest_meters

from conftest import DAY, paris_2024, slot_ts

HEADER = "meter_id,meter_class,timestamp,quantity_kind,value\n"


def _utf8(text: str) -> io.BytesIO:
    """The binary stream of a text's UTF-8 bytes, as ingest_csv reads it."""
    return io.BytesIO(text.encode("utf-8"))


def ten_min_ts(slot: int, sample: int):
    from datetime import timedelta

    return slot_ts(slot) + timedelta(minutes=10 * sample)


def _readings(records) -> MeterReadings:
    """One meter's records as the columns ingestion fills, in the given order."""
    records = list(records)
    first = records[0]
    return MeterReadings(
        first.meter_id, first.meter_class, first.quantity_kind,
        [r.timestamp for r in records], [r.value for r in records],
    )


class TestIngestCsv:
    def test_direct_parse(self):
        result = ingest_csv(_utf8(
            HEADER + "pv01,linky,2022-05-04T10:00:00+02:00,energy_wh,1250\n"
        ))
        assert result.ok
        (record,) = result.records
        assert record.meter_id == "pv01"
        assert record.meter_class is MeterClass.LINKY
        assert record.quantity_kind is QuantityKind.ENERGY_WH
        assert record.value == 1250

    def test_negative_energy_collected_as_row_error(self):
        result = ingest_csv(_utf8(
            HEADER + "pv01,linky,2022-05-04T10:00:00+02:00,energy_wh,-5\n"
        ))
        assert not result.records
        (err,) = result.errors
        assert err.line == 2
        assert "negative energy" in err.message

    def test_empty_file_with_header(self):
        result = ingest_csv(_utf8(HEADER))
        assert result.ok and len(result.records) == 0 and list(result.records) == []

    def test_malformed_header_is_hard_error(self):
        with pytest.raises(ValueError, match="header"):
            ingest_csv(_utf8("meter,when,value\n"))

    def test_class_kind_mismatch_is_row_error(self):
        result = ingest_csv(_utf8(
            HEADER + "m1,linky,2022-05-04T10:00:00+02:00,power_kw_10min,6\n"
        ))
        assert not result.records
        assert "do not report" in result.errors[0].message

    def test_bad_rows_reported_with_line_numbers(self):
        result = ingest_csv(_utf8(
            HEADER
            + "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,100\n"
            + "m1,linky,not-a-time,energy_wh,100\n"
            + "m1,linky,2022-05-04T11:00:00+02:00,energy_wh,abc\n"
        ))
        assert len(result.records) == 1
        assert [e.line for e in result.errors] == [3, 4]

    def test_records_view_the_meter_columns_meter_by_meter(self):
        rows = [
            "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1",
            "m2,sme_smi,2022-05-04T10:00:00+02:00,energy_kwh_index,7",
            "m1,linky,bad,energy_wh,2",
            "m1,linky,2022-05-04T10:30:00+02:00,energy_wh,3",
            "m2,sme_smi,2022-05-04T10:30:00+02:00,energy_kwh_index,9",
        ]
        result = ingest_csv(_utf8(HEADER + "\n".join(rows) + "\n"))
        m1, m2 = result.meters
        assert (m1.meter_id, m1.values, len(m1)) == ("m1", [1, 3], 2)
        assert (m2.meter_id, m2.values) == ("m2", [7, 9])
        records = result.records
        assert len(records) == 4
        assert [(r.meter_id, r.value) for r in records] == [("m1", 1), ("m1", 3), ("m2", 7), ("m2", 9)]
        assert list(records) == [m1[0], m1[1], m2[0], m2[1]]
        assert m2[-1] == RawMeterRecord(
            "m2", MeterClass.SME_SMI, m2.timestamps[1], QuantityKind.ENERGY_KWH_INDEX, 9
        )
        with pytest.raises(IndexError):
            m1[2]

    @pytest.mark.parametrize("text", ["NaN", "sNaN", "Infinity", "-Infinity", "inf", "-nan"])
    def test_non_finite_power_is_row_error(self, text):
        result = ingest_csv(_utf8(
            HEADER
            + "m1,sme_smi,2022-05-04T10:00:00+02:00,power_kw_10min,6\n"
            + f"m1,sme_smi,2022-05-04T10:10:00+02:00,power_kw_10min,{text}\n"
        ))
        assert len(result.records) == 1
        assert [str(e) for e in result.errors] == [f"line 3: bad power value {text!r}"]

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_a_field_over_the_size_limit_is_its_rows_error(self, tmp_path, source, quoted):
        big = "1" * 140_000
        cell = f'"{big}"' if quoted else big
        text = (
            HEADER
            + "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1\n"
            + f"m1,linky,2022-05-04T10:30:00+02:00,energy_wh,{cell}\n"
            + "m1,linky,2022-05-04T11:00:00+02:00,energy_wh,3\n"
        )
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        result = ingest_csv(path if source == "path" else _utf8(text))
        assert [str(e) for e in result.errors] == ["line 3: field larger than field limit (131072)"]
        (m1,) = result.meters
        assert m1.values == [1, 3]

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_a_header_over_the_size_limit_is_malformed(self, tmp_path, source):
        text = "meter_id" + "x" * 140_000 + HEADER[len("meter_id"):]
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"^malformed header: field larger than field limit \(131072\)$"):
            ingest_csv(path if source == "path" else _utf8(text))

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_a_byte_order_mark_before_the_header_is_read_past(self, tmp_path, source):
        """A file saved as "CSV UTF-8" starts with EF BB BF: it reads as
        the file without them, with the same rows, errors and line numbers."""
        text = (
            HEADER
            + "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1\n"
            + "m1,linky,not-a-time,energy_wh,2\n"
            + "m1,linky,2022-05-04T10:30:00+02:00,energy_wh,3\n"
        )
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        if source == "path":
            result = ingest_csv(path)
        else:
            with open(path, "rb") as stream:
                result = ingest_csv(stream)
        plain = ingest_csv(_utf8(text))
        assert [str(e) for e in result.errors] == [str(e) for e in plain.errors]
        assert [e.line for e in result.errors] == [3]
        (m1,) = result.meters
        assert (m1.meter_id, m1.timestamps, m1.values) == ("m1", plain.meters[0].timestamps, [1, 3])

    def test_a_byte_that_is_not_utf8_reads_alike_from_a_path_and_a_binary_stream(self, tmp_path):
        """A 0xff on line 3 is that row's error, and the rows around it
        read, whether the file is named by its path or opened "rb"."""
        path = tmp_path / "not_utf8.csv"
        path.write_bytes(
            HEADER.encode("utf-8")
            + b"m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1\n"
            + b"m1,linky,2022-05-04T10:30:00+02:00,energy_wh,2\xff\n"
            + b"m1,linky,2022-05-04T11:00:00+02:00,energy_wh,3\n"
        )
        from_path = ingest_csv(path)
        with open(path, "rb") as stream:
            from_stream = ingest_csv(stream)
        assert [str(e) for e in from_path.errors] == ["line 3: invalid UTF-8 byte 0xff"]
        assert [(e.line, e.message) for e in from_stream.errors] == [
            (e.line, e.message) for e in from_path.errors
        ]
        assert [_view(r) for r in from_stream.records] == [_view(r) for r in from_path.records]
        assert [r.value for r in from_stream.records] == [1, 3]

    def test_the_callers_stream_is_left_open(self):
        """ingest_csv reads a stream to its end and leaves it open, after
        a refused header too."""
        stream = _utf8(HEADER + "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1\n")
        assert len(ingest_csv(stream).records) == 1
        refused = _utf8("meter,when,value\n")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(refused)
        gc.collect()
        assert not stream.closed and stream.read() == b""
        assert not refused.closed

    def test_a_text_stream_is_a_type_error_before_anything_is_read(self, tmp_path):
        text = HEADER + "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,1\n"
        path = tmp_path / "meters.csv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8", newline="") as opened:
            for stream in (opened, io.StringIO(text)):
                with pytest.raises(TypeError, match="^ingest_csv reads a path or a binary stream"):
                    ingest_csv(stream)
                assert stream.tell() == 0


class TestNormalize:
    def _power_records(self, kws_by_slot):
        records = []
        for slot, kws in kws_by_slot.items():
            for i, kw in enumerate(kws):
                records.append(RawMeterRecord(
                    "m1", MeterClass.SME_SMI, ten_min_ts(slot, i),
                    QuantityKind.POWER_KW_10MIN, Decimal(kw),
                ))
        return records

    def test_sme_power_six_kw_slot(self):
        series = normalize_to_slots(_readings(self._power_records({20: [6, 6, 6]})))
        assert series.energies == (3000,)  # 6 kW x 0.5 h

    def test_sme_power_zero(self):
        series = normalize_to_slots(_readings(self._power_records({20: [0, 0, 0]})))
        assert series.energies == (0,)

    def test_sme_power_fractional_mean_rounds(self):
        # (1+2+2)/3 kW x 500 = 833.33 Wh
        series = normalize_to_slots(_readings(self._power_records({20: [1, 2, 2]})))
        assert series.energies == (833,)

    def test_sme_power_missing_sample_is_gap(self):
        with pytest.raises(ValueError, match="gap at .*10:00.*2/3"):
            normalize_to_slots(_readings(self._power_records({20: [6, 6]})))

    def test_sme_power_off_boundary_sample_rejected(self):
        record = RawMeterRecord(
            "m1", MeterClass.SME_SMI,
            slot_ts(20).replace(minute=5),
            QuantityKind.POWER_KW_10MIN, Decimal(6),
        )
        with pytest.raises(ValueError, match="10-minute boundary"):
            normalize_to_slots(_readings([record]))

    @pytest.mark.parametrize("first", ["minute", "second", "microsecond"])
    @pytest.mark.parametrize("quantity", [QuantityKind.POWER_KW_10MIN, QuantityKind.ENERGY_KWH_INDEX])
    def test_off_mark_reading_named_first_in_time_order(self, quantity, first):
        """Two readings off the mark, given latest first: the earlier one
        in time is named, whichever field puts it off the mark."""
        power = quantity is QuantityKind.POWER_KW_10MIN
        step = timedelta(minutes=10 if power else SLOT_MINUTES)
        stamps = [slot_ts(20) + k * step for k in range(6)]
        off = {
            "minute": timedelta(minutes=5 if power else 10),
            "second": timedelta(seconds=1),
            "microsecond": timedelta(microseconds=1),
        }
        later = "second" if first == "minute" else "minute"
        stamps[2] += off[first]
        stamps[4] += off[later]
        records = [
            RawMeterRecord("m1", MeterClass.SME_SMI, ts, quantity, Decimal(6) if power else 100 + k)
            for k, ts in enumerate(stamps)
        ]
        what, where = (
            ("power sample", "a 10-minute boundary") if power else ("index reading", "a slot boundary")
        )
        message = f"m1: {what} at {stamps[2].isoformat()} is not on {where}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalize_to_slots(_readings(records[::-1]))

    @pytest.mark.parametrize(
        "fault", ["a sample on the next slot's start", "a last sample in the slot after", "sample in another offset"]
    )
    def test_power_columns_that_look_whole_are_walked_for_their_fault(self, fault):
        """Six power samples in two runs of three, 30 minutes apart, are
        walked when the first slot's samples end on the next slot's start,
        the last sample falls in the slot after the last, or a sample
        carries another offset than its slot's start: the walk names the
        fault."""
        start, ten = slot_ts(20), timedelta(minutes=10)
        after = start + 3 * ten
        stamps = [start, start + ten, start + 2 * ten, after, after + ten, after + 2 * ten]
        gap = r"gap at {} \(2/3 ten-minute power samples\)"
        if fault == "a sample on the next slot's start":
            stamps = [start + ten, start + 2 * ten, after, after + ten, after + 2 * ten, after + 3 * ten]
            message = gap.format(re.escape(start.isoformat()))
        elif fault == "a last sample in the slot after":
            stamps[5] = after + 3 * ten
            message = gap.format(re.escape(after.isoformat()))
        else:
            stamps[1] = stamps[1].astimezone(timezone(timedelta(hours=1)))
            message = rf"readings of slot {re.escape(start.isoformat())} carry two UTC offsets"
        readings = MeterReadings(
            "m1", MeterClass.SME_SMI, QuantityKind.POWER_KW_10MIN, stamps, [Decimal(6)] * 6
        )
        with pytest.raises(ValueError, match=f"^m1: {message}$"):
            normalize_to_slots(readings)

    def test_linky_sum_within_slot(self):
        records = [
            RawMeterRecord("m1", MeterClass.LINKY, slot_ts(20).replace(minute=m),
                           QuantityKind.ENERGY_WH, v)
            for m, v in [(0, 100), (10, 200), (20, 300)]
        ]
        series = normalize_to_slots(_readings(records))
        assert series.energies == (600,)

    def test_linky_interior_gap_detected(self):
        records = [
            RawMeterRecord("m1", MeterClass.LINKY, slot_ts(k), QuantityKind.ENERGY_WH, 100)
            for k in (20, 22)
        ]
        with pytest.raises(ValueError, match="gap at .*10:30"):
            normalize_to_slots(_readings(records))

    def test_index_deltas_times_1000(self):
        records = [
            RawMeterRecord("m1", MeterClass.SME_SMI, slot_ts(k),
                           QuantityKind.ENERGY_KWH_INDEX, v)
            for k, v in [(20, 100), (21, 103), (22, 103)]
        ]
        series = normalize_to_slots(_readings(records))
        assert series.energies == (3000, 0)
        assert series.starts == (slot_ts(20), slot_ts(21))

    def test_index_regression_rejected(self):
        records = [
            RawMeterRecord("m1", MeterClass.SME_SMI, slot_ts(k),
                           QuantityKind.ENERGY_KWH_INDEX, v)
            for k, v in [(20, 100), (21, 99)]
        ]
        with pytest.raises(ValueError, match="decreases"):
            normalize_to_slots(_readings(records))

    def test_mixed_meter_classes_hard_error(self):
        records = [
            RawMeterRecord("m1", MeterClass.LINKY, slot_ts(20), QuantityKind.ENERGY_WH, 1),
            RawMeterRecord("m1", MeterClass.SME_SMI, slot_ts(21),
                           QuantityKind.ENERGY_KWH_INDEX, 1),
        ]
        with pytest.raises(
            ValueError,
            match=r"^meter m1: records mix meter classes \(linky energy_wh, sme_smi energy_kwh_index\)$",
        ):
            readings_by_meter([IngestResult([_readings([r]) for r in records])])

    @given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=96))
    def test_linky_normalization_conserves_energy(self, values):
        from datetime import timedelta

        records = [
            RawMeterRecord("m1", MeterClass.LINKY, slot_ts(0) + timedelta(minutes=30 * k),
                           QuantityKind.ENERGY_WH, v)
            for k, v in enumerate(values)
        ]
        series = normalize_to_slots(_readings(records))
        assert sum(series.energies) == sum(values)


class TestDstDays:
    def _records(self, quantity, first, n):
        """One meter's readings for n slots from the UTC instant first, and their energy in Wh."""
        step = timedelta(minutes=SLOT_MINUTES)
        records, total = [], 0
        if quantity is QuantityKind.ENERGY_WH:
            for k in range(n):
                for minutes, wh in ((0, 10 + k), (20, 5 * k)):
                    ts = paris_2024(first + k * step + timedelta(minutes=minutes))
                    records.append(RawMeterRecord("m1", MeterClass.LINKY, ts, quantity, wh))
                    total += wh
        elif quantity is QuantityKind.POWER_KW_10MIN:
            for k in range(n):
                for j in range(3):
                    ts = paris_2024(first + k * step + timedelta(minutes=10 * j))
                    records.append(RawMeterRecord("m1", MeterClass.SME_SMI, ts, quantity, Decimal(k + j)))
                    total += Fraction(1000 * (k + j), 6)  # kW x 10 min in Wh
        else:
            for k in range(n + 1):
                index = k * (k + 1) // 2
                records.append(RawMeterRecord("m1", MeterClass.SME_SMI, paris_2024(first + k * step), quantity, index))
            total = index * 1000
        return records, total

    @pytest.mark.parametrize("quantity", list(QuantityKind), ids=lambda q: q.value)
    @pytest.mark.parametrize(
        "first, n, first_text, last_text",
        [
            ("2024-03-30T23:00:00Z", 46, "2024-03-31T00:00:00+01:00", "2024-03-31T23:30:00+02:00"),
            ("2024-10-26T22:00:00Z", 50, "2024-10-27T00:00:00+02:00", "2024-10-27T23:30:00+01:00"),
        ],
        ids=["spring-forward", "fall-back"],
    )
    def test_switch_day_keeps_each_slots_offset(self, quantity, first, n, first_text, last_text):
        first = parse_timestamp(first)
        records, total = self._records(quantity, first, n)
        series = normalize_to_slots(_readings(reversed(records)))
        starts = [ts.isoformat() for ts in series.starts]
        assert len(series) == n
        assert starts[0] == first_text and starts[-1] == last_text
        step = timedelta(minutes=SLOT_MINUTES)
        assert starts == [paris_2024(first + k * step).isoformat() for k in range(n)]
        assert sum(series.energies) == total

    def test_two_offsets_in_one_slot_rejected(self):
        records = [
            RawMeterRecord("m1", MeterClass.LINKY, parse_timestamp(text), QuantityKind.ENERGY_WH, 100)
            for text in ("2024-03-30T10:00:00+01:00", "2024-03-30T09:10:00Z")
        ]
        with pytest.raises(
            ValueError, match=r"^m1: readings of slot 2024-03-30T10:00:00\+01:00 carry two UTC offsets$"
        ):
            normalize_to_slots(_readings(records))

    @pytest.mark.parametrize("quantity", list(QuantityKind), ids=lambda q: q.value)
    @pytest.mark.parametrize(
        "first, message",
        [
            # the missing 01:00Z slot is 03:00+02:00, which its +01:00
            # neighbour would have named 02:00+01:00, a time Paris skips
            ("2024-03-31T00:30:00Z", "gap between 2024-03-31T01:30:00+01:00 and 2024-03-31T03:30:00+02:00"),
            # the missing 01:00Z slot is 02:00+01:00, not 03:00+02:00
            ("2024-10-27T00:30:00Z", "gap between 2024-10-27T02:30:00+02:00 and 2024-10-27T02:30:00+01:00"),
            ("2024-06-12T08:00:00Z", "gap at 2024-06-12T10:30:00+02:00"),
        ],
        ids=["spring-forward", "fall-back", "one-offset"],
    )
    def test_gap_is_named_in_the_offsets_of_its_neighbours(self, quantity, first, message):
        """A slot missing across an offset change is named by the slots on
        either side of it; otherwise by its own local start."""
        first = parse_timestamp(first)
        records, _ = self._records(quantity, first, 3)
        step = timedelta(minutes=SLOT_MINUTES)
        # every reading of the middle slot goes (for an index, the one
        # reading on its opening boundary)
        kept = [r for r in records if (r.timestamp - first) // step != 1]
        samples = " (0/3 ten-minute power samples)" if quantity is QuantityKind.POWER_KW_10MIN else ""
        with pytest.raises(ValueError, match=f"^m1: {re.escape(message + samples)}$"):
            normalize_to_slots(_readings(kept))


class TestRoundHalfEven:
    @given(n=st.integers(-(10**40), 10**40), d=st.integers(1, 10**20))
    @example(n=5, d=2)
    @example(n=7, d=2)
    @example(n=-5, d=2)
    @example(n=-7, d=2)
    @example(n=2500, d=3)
    def test_matches_fraction_round(self, n, d):
        # round() on a Fraction rounds half to even
        assert _round_half_even(n, d) == round(Fraction(n, d))


class TestPvGain:
    def _production(self, values):
        return SlotSeries("pv", Kind.PRODUCTION, [slot_ts(k) for k in range(len(values))], values)

    def test_published_gain(self):
        series = apply_pv_gain(self._production([1000]), Decimal("25.48"))
        assert series.energies == (25480,)

    def test_gain_one_is_identity(self):
        src = self._production([0, 3, 17, 123456])
        assert apply_pv_gain(src, Decimal(1)).energies == src.energies

    def test_half_even_rounding(self):
        # 3 x 25.48 = 76.44 -> 76
        assert apply_pv_gain(self._production([3]), Decimal("25.48")).energies == (76,)
        # 250 x 0.006 = 1.5 -> 2 is half-up; half-even gives 2 as well (even)
        assert apply_pv_gain(self._production([250]), Decimal("0.006")).energies == (2,)
        # 250 x 0.01 = 2.5 -> 2 under half-even
        assert apply_pv_gain(self._production([250]), Decimal("0.01")).energies == (2,)

    def test_non_positive_gain_rejected(self):
        for gain in (Decimal(0), Decimal(-1)):
            with pytest.raises(ValueError, match="> 0"):
                apply_pv_gain(self._production([1]), gain)

    def test_consumption_series_rejected(self):
        series = SlotSeries("b1", Kind.CONSUMPTION, (slot_ts(0),), (1,))
        with pytest.raises(ValueError, match="production"):
            apply_pv_gain(series, Decimal(2))

    @given(
        values=st.lists(st.integers(0, 10**6), min_size=1, max_size=48),
        gain_a=st.decimals(min_value="0.01", max_value="100", places=2),
        gain_b=st.decimals(min_value="0.01", max_value="100", places=2),
    )
    def test_gain_monotonicity(self, values, gain_a, gain_b):
        if gain_a > gain_b:
            gain_a, gain_b = gain_b, gain_a
        src = self._production(values)
        low = apply_pv_gain(src, gain_a).energies
        high = apply_pv_gain(src, gain_b).energies
        assert all(a <= b for a, b in zip(low, high))


class TestConstantLoad:
    def _consumption(self, values):
        return SlotSeries("b4", Kind.CONSUMPTION, [slot_ts(k) for k in range(len(values))], values)

    def test_hundred_kw_adds_50kwh_per_slot(self):
        series = add_constant_load(self._consumption([0, 2000]), Decimal(100))
        assert series.energies == (50000, 52000)

    def test_zero_is_identity(self):
        src = self._consumption([5, 10])
        assert add_constant_load(src, Decimal(0)).energies == src.energies

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            add_constant_load(self._consumption([1]), Decimal(-1))


class TestScenarioConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment\npv_gain = 25.48\ndatacentre_load_kw = 100\ninclude_datacentre = true\n"
        )
        cfg = ScenarioConfig.from_file(path)
        assert cfg.pv_gain == Decimal("25.48")
        assert cfg.datacentre_load_kw == Decimal(100)
        assert cfg.include_datacentre is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("panels = 12\n")
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioConfig.from_file(path)

    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.pv_gain == 1 and not cfg.include_datacentre


class TestDeriveStaticKors:
    def _history(self, totals):
        out = []
        for pid, total in totals.items():
            out.append(SlotSeries(pid, Kind.CONSUMPTION, (slot_ts(10),), (total,)))
        return out

    def test_first_scenario_proportions(self):
        history = self._history({"b1": 4245, "b2": 5039, "b4": 716})
        kors = derive_static_kors(history, DateRange.single_day(DAY))
        assert kors.entries == {"b1": 0.4245, "b2": 0.5039, "b4": 0.0716}

    def test_second_scenario_proportions(self):
        history = self._history({"b1": 944, "b2": 1120, "b4": 7936})
        kors = derive_static_kors(history, DateRange.single_day(DAY))
        assert kors.entries == {"b1": 0.0944, "b2": 0.112, "b4": 0.7936}

    def test_equal_totals_give_equal_split(self):
        kors = derive_static_kors(self._history({"a": 7, "b": 7, "c": 7}),
                                  DateRange.single_day(DAY))
        assert abs(sum(kors.entries.values()) - 1) < 1e-9
        assert all(abs(v - 1 / 3) <= 1e-4 for v in kors.entries.values())

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="no consumption in window"):
            derive_static_kors(self._history({"a": 0, "b": 0}), DateRange.single_day(DAY))

    def test_participant_without_window_data_rejected(self):
        from datetime import date

        history = self._history({"a": 5})
        history.append(
            SlotSeries("b", Kind.CONSUMPTION, (slot_ts(10, date(2021, 1, 1)),), (5,))
        )
        with pytest.raises(ValueError, match="no data in window"):
            derive_static_kors(history, DateRange.single_day(DAY))

    @given(totals=st.lists(st.integers(0, 10**9), min_size=1, max_size=9))
    def test_output_always_sums_to_one(self, totals):
        if sum(totals) == 0:
            return
        history = self._history({f"p{i}": t for i, t in enumerate(totals)})
        kors = derive_static_kors(history, DateRange.single_day(DAY))
        assert abs(sum(kors.entries.values()) - 1) <= 1e-9


# Reference for the differential test below: the original row parser (Enum
# lookups and a timestamp parse per row) and a normalizer that steps a UTC
# grid over a dict of slots (Fraction rounding, datetime.replace slot
# floors), labelling each slot with its own readings' offset. The optimized
# code must agree with it on every record, slot, isoformat() and message.


def _reference_ingest(source):
    """The records and row errors of a meter CSV text or file, read row by
    row by csv.reader; a record the reader refuses is that row's error, and
    so is a row holding a byte that is not UTF-8, which a file opened with
    errors="surrogateescape" gives as a lone surrogate."""
    rows = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    next(rows)
    records, errors = [], []
    line = 1
    while True:
        line += 1
        try:
            row = next(rows)
        except StopIteration:
            return records, errors
        except csv.Error as exc:
            errors.append(f"line {line}: {exc}")
            continue
        escaped = [ch for ch in "".join(row) if "\udc80" <= ch <= "\udcff"]
        if escaped:
            errors.append(f"line {line}: invalid UTF-8 byte 0x{ord(escaped[0]) - 0xDC00:02x}")
            continue
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            records.append(_reference_row(row))
        except ValueError as exc:
            errors.append(f"line {line}: {exc}")


def _reference_row(row):
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    meter_id, klass, ts_text, kind_text, value_text = (cell.strip() for cell in row)
    if not meter_id:
        raise ValueError("empty meter_id")
    try:
        meter_class = MeterClass(klass)
    except ValueError:
        raise ValueError(f"unknown meter_class {klass!r}") from None
    try:
        kind = QuantityKind(kind_text)
    except ValueError:
        raise ValueError(f"unknown quantity_kind {kind_text!r}") from None
    ts = parse_timestamp(ts_text)
    if kind in (QuantityKind.ENERGY_WH, QuantityKind.ENERGY_KWH_INDEX):
        try:
            value = int(value_text)
        except ValueError:
            unit = "Wh" if kind is QuantityKind.ENERGY_WH else "kWh"
            raise ValueError(f"energy must be an integer {unit} count, got {value_text!r}") from None
        if value < 0:
            raise ValueError("negative energy")
    else:
        value = _reference_power(value_text)
    return RawMeterRecord(meter_id, meter_class, ts, kind, value)


def _reference_power(text):
    """A power text's value or error, parsed on its own as each row once was."""
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


def _reference_floor(ts):
    return ts.replace(minute=(ts.minute // SLOT_MINUTES) * SLOT_MINUTES, second=0, microsecond=0)


def _reference_round(x):
    q, r = divmod(x.numerator, x.denominator)
    frac = Fraction(r, x.denominator)
    if frac > Fraction(1, 2):
        return q + 1
    if frac < Fraction(1, 2):
        return q
    return q if q % 2 == 0 else q + 1


def _reference_normalize(records):
    records = sorted(records, key=lambda r: r.timestamp)
    if not records:
        raise ValueError("no records to normalize")
    meter_ids = {r.meter_id for r in records}
    if len(meter_ids) > 1:
        raise ValueError(f"records mix meter ids: {sorted(meter_ids)}")
    if len({r.meter_class for r in records}) > 1:
        raise ValueError("records mix meter classes")
    if len({r.quantity_kind for r in records}) > 1:
        raise ValueError("records mix quantity kinds; normalize one basis at a time")
    meter_id = records[0].meter_id
    quantity = records[0].quantity_kind
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp == prev.timestamp:
            raise ValueError(f"{meter_id}: duplicate reading at {cur.timestamp.isoformat()}")
    if quantity is QuantityKind.POWER_KW_10MIN:
        for r in records:
            ts = r.timestamp
            if ts.minute % 10 or ts.second or ts.microsecond:
                raise ValueError(
                    f"{meter_id}: power sample at {ts.isoformat()} is not on a 10-minute boundary"
                )
    elif quantity is QuantityKind.ENERGY_KWH_INDEX:
        if len(records) < 2:
            raise ValueError(f"{meter_id}: index series needs at least two readings")
        for r in records:
            ts = r.timestamp
            if ts.minute % SLOT_MINUTES or ts.second or ts.microsecond:
                raise ValueError(
                    f"{meter_id}: index reading at {ts.isoformat()} is not on a slot boundary"
                )

    # readings by the UTC start of their slot; the grid steps in UTC, and a
    # slot is labelled with the offset of its own readings
    step = timedelta(minutes=SLOT_MINUTES)
    per_slot = {}
    for r in records:
        per_slot.setdefault(_reference_floor(r.timestamp).astimezone(timezone.utc), []).append(r)
    utc, last = min(per_slot), max(per_slot)
    slots, start, opener = [], None, None
    while utc <= last:
        readings = per_slot.get(utc)
        if readings is None:
            suffix = " (0/3 ten-minute power samples)" if quantity is QuantityKind.POWER_KW_10MIN else ""
            after = _reference_floor(per_slot[min(u for u in per_slot if u > utc)][0].timestamp)
            if after.utcoffset() != start.utcoffset():
                raise ValueError(
                    f"{meter_id}: gap between {start.isoformat()} and {after.isoformat()}{suffix}"
                )
            raise ValueError(f"{meter_id}: gap at {(start + step).isoformat()}{suffix}")
        start = _reference_floor(readings[0].timestamp)
        if len({r.timestamp.utcoffset() for r in readings}) > 1:
            raise ValueError(f"{meter_id}: readings of slot {start.isoformat()} carry two UTC offsets")
        if quantity is QuantityKind.ENERGY_WH:
            slots.append((start, sum(int(r.value) for r in readings)))
        elif quantity is QuantityKind.POWER_KW_10MIN:
            if len(readings) < 3:
                raise ValueError(
                    f"{meter_id}: gap at {start.isoformat()} "
                    f"({len(readings)}/3 ten-minute power samples)"
                )
            samples = [Decimal(r.value) for r in readings]
            slots.append((start, _reference_round(Fraction(sum(samples)) * 500 / 3)))
        else:
            (reading,) = readings
            if opener is not None:
                delta = int(reading.value) - int(opener.value)
                if delta < 0:
                    raise ValueError(f"{meter_id}: index decreases at {reading.timestamp.isoformat()}")
                slots.append((opener.timestamp, delta * 1000))
            opener = reading
        utc += step
    return SlotSeries(meter_id, Kind.CONSUMPTION, [ts for ts, _ in slots], [e for _, e in slots])


_OFFSETS = {"+01:00": timedelta(hours=1), "+02:00": timedelta(hours=2), "Z": timedelta(0)}
_BASE = datetime(2024, 3, 30, 22, 0, tzinfo=timezone.utc)
_BAD_ROWS = [
    "m9,linky,not-a-time,energy_wh,1",
    "m9,linky,2024-03-31T01:00:00,energy_wh,1",
    "m9,linky,2024-03-31T01:00:00+01:00,power_kw_10min,x",
    "m9,linky,bad,power_kw_10min,6",
    "m9,sme_smi,2024-03-31T01:00:00+01:00,energy_wh,1",
    "m9,meter,2024-03-31T01:00:00+01:00,volts,1",
    "m9,linky,2024-03-31T01:00:00+01:00,volts,1",
    ",linky,2024-03-31T01:00:00+01:00,energy_wh,1",
    "m9,linky,2024-03-31T01:00:00+01:00,energy_wh,abc",
    "m9,sme_smi,2024-03-31T01:00:00+01:00,energy_kwh_index,1.5",
    "m9,linky,2024-03-31T01:00:00+01:00,energy_wh,-3",
    "m9,sme_smi,2024-03-31T01:00:00+01:00,power_kw_10min,-0.5",
    "m9,linky,2024-03-31T01:00:00+01:00",
    " , , ",
    "",
]


@st.composite
def _meter_csv(draw):
    offsets = {}

    def stamp(instant):
        # one offset per slot, as across a DST switch; about one slot in ten
        # mixes offsets, which is an error
        slot = (instant - _BASE) // timedelta(minutes=SLOT_MINUTES)
        if slot not in offsets:
            names = sorted(_OFFSETS)
            offsets[slot] = names if not draw(st.integers(0, 9)) else [draw(st.sampled_from(names))]
        name = draw(st.sampled_from(offsets[slot]))
        text = instant.astimezone(timezone(_OFFSETS[name])).isoformat()
        return text.replace("+00:00", "Z") if name == "Z" else text

    rows = []
    for meter_id in ("m1", "m2", "m3")[: draw(st.integers(1, 3))]:
        kind = draw(st.sampled_from([k.value for k in QuantityKind]))
        first = draw(st.integers(0, 8))
        # a slot is left out about one time in eight: gaps
        kept = [k for k in range(first, first + draw(st.integers(1, 6)))
                if draw(st.integers(0, 7))]
        slot = timedelta(minutes=SLOT_MINUTES)
        if kind == "energy_wh":
            for k in kept:
                for _ in range(draw(st.integers(1, 3))):
                    into = timedelta(seconds=draw(st.integers(0, SLOT_MINUTES * 60 - 1)))
                    wh = draw(st.integers(0, 10**6))
                    rows.append(f"{meter_id},linky,{stamp(_BASE + k * slot + into)},{kind},{wh}")
        elif kind == "power_kw_10min":
            for k in kept:
                for j in range(3):
                    if not draw(st.integers(0, 15)):
                        continue  # a missing sample
                    minutes = 10 * j + (5 if not draw(st.integers(0, 30)) else 0)
                    kw = draw(st.decimals(min_value=0, max_value=1000, places=draw(st.integers(0, 3))))
                    ts = stamp(_BASE + k * slot + timedelta(minutes=minutes))
                    rows.append(f"{meter_id},sme_smi,{ts},{kind},{kw}")
        else:
            index = draw(st.integers(0, 10**6))
            for k in (kept + [kept[-1] + 1]) if kept else []:
                rows.append(f"{meter_id},sme_smi,{stamp(_BASE + k * slot)},{kind},{index}")
                index = max(0, index + draw(st.integers(-1, 40)))
    rows += draw(st.lists(st.sampled_from(_BAD_ROWS), max_size=3))
    rows = draw(st.permutations(rows))
    return HEADER + "".join(row + "\n" for row in rows)


@st.composite
def _whole_meter_csv(draw):
    """Meter CSV text whose series are whole: every slot from a meter's
    first to its last holds exactly the readings its class expects, each
    in the Paris offset of its instant, so a series may cross the switch
    to summer time at 2024-03-31T01:00Z. An index may still decrease."""
    slot = timedelta(minutes=SLOT_MINUTES)
    rows = []
    for meter_id in ("m1", "m2", "m3")[: draw(st.integers(1, 3))]:
        kind = draw(st.sampled_from([k.value for k in QuantityKind]))
        first = draw(st.integers(0, 8))
        slots = range(first, first + draw(st.integers(1, 6)))
        if kind == "energy_wh":
            for k in slots:
                wh = draw(st.integers(0, 10**6))
                rows.append(f"{meter_id},linky,{paris_2024(_BASE + k * slot).isoformat()},{kind},{wh}")
        elif kind == "power_kw_10min":
            for k in slots:
                for j in range(3):
                    ts = paris_2024(_BASE + k * slot + timedelta(minutes=10 * j)).isoformat()
                    kw = draw(st.decimals(min_value=0, max_value=1000, places=draw(st.integers(0, 3))))
                    rows.append(f"{meter_id},sme_smi,{ts},{kind},{kw}")
        else:
            index = draw(st.integers(0, 10**6))
            for k in [*slots, slots[-1] + 1]:
                rows.append(f"{meter_id},sme_smi,{paris_2024(_BASE + k * slot).isoformat()},{kind},{index}")
                index = max(0, index + draw(st.integers(-1, 40)))
    return HEADER + "".join(row + "\n" for row in draw(st.permutations(rows)))


# the inputs of the differential tests: any series, and whole ones
_METER_CSVS = st.one_of(_meter_csv(), _whole_meter_csv())


# Pieces of a timestamp text that parse_timestamp refuses
_BAD_PIECES = {
    "hour": ["2024-03-31T24", "2024-03-31T2x", "2024-02-30T10", "2024-03-31T\u0661\u0662"],
    "minute": ["60", "6x", "\u0661\u0662", "1\u0661", "1\u00b2", " 1", "1"],
    "second": ["60", "x0", "\u0661\u0662", "1\u0661", "1\u00b2", "-1", "5"],
    "offset": ["+24:00", "+01:6x", "+01:\u0661\u0662", "", "+01:00:0x"],
}


@st.composite
def _timestamp_text(draw):
    """A timestamp text of a few hours of 2024-03-31 in +01:00, +02:00,
    -00:00 or Z, on or off a slot boundary. About one in seven carries a
    fraction, one in seven padding, and two in seven an hour, minute,
    second or offset piece that parse_timestamp refuses."""
    two_digits = st.integers(0, 59).map("{:02d}".format)
    pieces = {
        "hour": draw(st.sampled_from(["2024-03-31T00", "2024-03-31T01", "2024-03-31T23"])),
        "minute": draw(st.sampled_from(["00", "10", "20", "30", "40", "50"]) | two_digits),
        "second": draw(st.just("00") | two_digits),
        "offset": draw(st.sampled_from(["+01:00", "+02:00", "-00:00", "Z"])),
    }
    fraction = pad = ""
    change = draw(st.integers(0, 6))
    if change == 0:
        fraction = draw(st.sampled_from([".5", ".000000", ".123456"]))
    elif change == 1:
        pad = draw(st.sampled_from([" ", "\t"]))
    elif change in (2, 3):
        name = draw(st.sampled_from(sorted(_BAD_PIECES)))
        pieces[name] = draw(st.sampled_from(_BAD_PIECES[name]))
    return f"{pad}{pieces['hour']}:{pieces['minute']}:{pieces['second']}{fraction}{pieces['offset']}{pad}"


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_timestamp_text(), min_size=1, max_size=60))
@example(
    texts=[
        "2024-03-31T01:40:07+02:00",
        *(f"2024-03-31T01:{piece}+02:00" for piece in ["00:00", "10:00", "30:00", "59:59"]),
        *(f"2024-03-31T01:{piece}+02:00" for piece in ["60:00", "00:60", "1\u0661:00", "00:1\u00b2"]),
        "2024-03-31T01:10:00+01:00",
        "2024-03-31T01:10:00.000000+02:00",
        " 2024-03-31T01:10:00+02:00",
        "2024-03-30T23:10:00Z",
        "2024-03-30T23:20:00z",
        "2024-03-31",
        "2024-03-31 01:10:00+02:00",
        "2024-03-31T01:10:00",
    ]
)
def test_timestamp_cache_parses_each_text_as_parse_timestamp(texts):
    """Each text, met in any order, gives parse_timestamp's instant and
    offset, with one tzinfo object per offset, or raises parse_timestamp's
    message."""
    cache = _Timestamps()
    zones = {}
    for text in texts:
        try:
            ts = parse_timestamp(text.strip())
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                cache[text]
            continue
        got = cache[text]
        assert (got.isoformat(), got.utcoffset()) == (ts.isoformat(), ts.utcoffset())
        assert zones.setdefault(got.utcoffset(), got.tzinfo) is got.tzinfo


# Pieces of a meter CSV's body: text that csv.reader reads in every way it
# can (quotes, CR and CRLF line ends, empty lines, NUL), and whole rows,
# one quoted and spanning two lines, one with a 60-digit value
_BLOCK_ROWS = [
    "m1,linky,2024-03-31T01:00:00+01:00,energy_wh,5\n",
    '"m1","linky","2024-03-31T01:30:00+01:00","energy_wh","7"\r\n',
    "m2,sme_smi,2024-03-31T01:00:00+01:00,power_kw_10min,6.0\r",
    '"m2",sme_smi,"2024-03-31T01:10:00+01:00",power_kw_10min,"1\n2"\n',
    "m3,linky,2024-03-31T03:00:00+02:00,energy_wh," + "1" * 60 + "\n",
]


@settings(max_examples=300, deadline=None)
@given(
    # "\udcff" and "\udcc3" are written as the bytes 0xff and 0xc3, which
    # are not UTF-8 before any byte of this alphabet
    pieces=st.lists(
        st.text(alphabet='a1,"\r\n \x00\udcff\udcc3', max_size=12) | st.sampled_from(_BLOCK_ROWS), max_size=12
    ),
    header_end=st.sampled_from(["\n", "\r\n", "\r"]),
    block=st.integers(1, 16),
    limit=st.sampled_from([50, 131072]),
)
# a block read up to the \r of a \r\n
@example(pieces=["a,a,a,a,a,a,a,a\r\n", _BLOCK_ROWS[0]], header_end="\n", block=16, limit=131072)
# a quoted cell across a block's line end
@example(pieces=[_BLOCK_ROWS[0], _BLOCK_ROWS[3], _BLOCK_ROWS[0]], header_end="\n", block=1, limit=131072)
# a line over the field size limit after a block split on commas
@example(pieces=[_BLOCK_ROWS[0], _BLOCK_ROWS[4], _BLOCK_ROWS[0]], header_end="\n", block=4, limit=50)
# bytes that are not UTF-8 in a block split on commas, and in a quoted cell
@example(pieces=[_BLOCK_ROWS[0], "m1,\udcff\n", "\udcc3a,1\n", _BLOCK_ROWS[0]], header_end="\n", block=16, limit=131072)
@example(pieces=[_BLOCK_ROWS[3][:-1], "\udcc3\n", _BLOCK_ROWS[0]], header_end="\n", block=16, limit=131072)
def test_the_block_reader_reads_a_file_as_csv_reader(pieces, header_end, block, limit):
    """A file read in blocks of 1-16 characters, so that cuts land
    everywhere, gives the meters, row errors, line numbers and messages
    of csv.reader reading it row by row, under a field size limit that
    the header fits and some cells may not, with bytes that are not UTF-8
    anywhere."""
    text = HEADER[:-1] + header_end + "".join(pieces)
    saved = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "meters.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with mock.patch.object(ingestion, "_BLOCK", block):
                result = ingest_csv(path)
            with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
                records, errors = _reference_ingest(fh)
    finally:
        csv.field_size_limit(saved)
    assert [str(e) for e in result.errors] == errors
    assert _columns(result) == {key: list(map(_view, group)) for key, group in _by_meter(records).items()}


_POWER_TEXTS = st.sampled_from(["6", "6.0", "1.5", "0", "26", "NaN", "x", "-1", "-0.5", "1e3"])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["m1", "m2"]),
            _POWER_TEXTS | st.decimals(0, 50, places=1).map(str),
            st.sampled_from(["", " ", "\t"]),
        ),
        min_size=1,
        max_size=40,
    )
)
@example(rows=[("m1", "x", ""), ("m2", "x", ""), ("m1", "6", " "), ("m2", "6", " "), ("m1", "6", "")])
def test_power_texts_parse_once_per_file_as_each_row_alone(rows):
    """Power texts, padded, repeated, bad and valid, across two meters:
    each row gives the per-row parse's value, or its error with the row's
    own line; rows with equal text share one Decimal."""
    texts = [f"{pad}{text}{pad}" for _, text, pad in rows]
    body = "".join(
        f"{meter_id},sme_smi,{(_BASE + k * timedelta(minutes=10)).isoformat()},power_kw_10min,{text}\n"
        for k, ((meter_id, _, _), text) in enumerate(zip(rows, texts))
    )
    result = ingest_csv(_utf8(HEADER + body))

    expected, errors = {}, []
    for line, ((meter_id, _, _), text) in enumerate(zip(rows, texts), start=2):
        try:
            value = _reference_power(text)
        except ValueError as exc:
            errors.append(f"line {line}: {exc}")
        else:
            expected.setdefault(meter_id, []).append((text, value))
    assert [str(e) for e in result.errors] == errors
    values = {m.meter_id: m.values for m in result.meters}
    assert {
        meter_id: [(type(v), str(v)) for v in column] for meter_id, column in values.items()
    } == {meter_id: [(Decimal, str(v)) for _, v in pairs] for meter_id, pairs in expected.items()}
    shared = {}
    for meter_id, pairs in expected.items():
        for (text, _), value in zip(pairs, values[meter_id]):
            assert shared.setdefault(text, value) is value


def _outcome(normalize, records):
    try:
        series = normalize(records)
    except ValueError as exc:
        return "error", str(exc)
    return "slots", [(ts.isoformat(), energy) for ts, energy in zip(series.starts, series.energies)]


def _view(r):
    return (r.meter_id, r.meter_class, r.timestamp.isoformat(), r.quantity_kind,
            type(r.value), str(r.value))


def _by_meter(records):
    """Records grouped by meter id, class and quantity kind, each group in file order."""
    groups = {}
    for r in records:
        groups.setdefault((r.meter_id, r.meter_class, r.quantity_kind), []).append(r)
    return groups


def _columns(result):
    """Each MeterReadings of an ingest result, keyed as _by_meter keys the reference records."""
    return {
        (m.meter_id, m.meter_class, m.quantity_kind): [_view(m[k]) for k in range(len(m))]
        for m in result.meters
    }


def _power_csv(triples):
    """A whole power series of meter m1 from _BASE on, across the spring
    switch: one slot per triple of value texts."""
    ten = timedelta(minutes=10)
    return HEADER + "".join(
        f"m1,sme_smi,{paris_2024(_BASE + (3 * k + j) * ten).isoformat()},power_kw_10min,{value}\n"
        for k, triple in enumerate(triples)
        for j, value in enumerate(triple)
    )


class TestAgainstReferenceNormalizer:
    @settings(max_examples=300, deadline=None)
    @given(text=_METER_CSVS)
    # equal values of other exponents: equal triples, one conversion
    @example(text=_power_csv([
        ("6", "6.0", "6.00"), ("6.00", "6", "6.0"), ("6", "6", "6.000"), ("0.1", "0.10", "0.100"),
        ("6.0", "6.00", "6"), ("0.10", "0.1", "0.100"), ("0", "0.0", "0.00"), ("0.00", "0", "0.0"),
    ]))
    # every triple distinct, half-way energies among them
    @example(text=_power_csv([(f"{k}", f"{k}.5", f"{k + 1}.25") for k in range(12)]))
    def test_same_records_slots_and_messages(self, text):
        result = ingest_csv(_utf8(text))
        records, errors = _reference_ingest(text)
        assert [str(e) for e in result.errors] == errors

        reference = _by_meter(records)
        assert _columns(result) == {key: list(map(_view, group)) for key, group in reference.items()}
        assert list(map(_view, result.records)) == [_view(r) for group in reference.values() for r in group]
        assert len(result.records) == len(records)
        by_meter = readings_by_meter([result])
        assert by_meter.keys() == {meter_id for meter_id, _, _ in reference}
        for (meter_id, _, _), group in reference.items():
            assert _outcome(normalize_to_slots, by_meter[meter_id]) == _outcome(
                _reference_normalize, group
            )

    @settings(max_examples=300, deadline=None)
    @given(text=_METER_CSVS, data=st.data())
    def test_rows_split_across_two_files_through_the_runner_columns(self, text, data):
        rows = text.splitlines()[1:]
        in_b = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        texts = [
            HEADER + "".join(row + "\n" for row in data.draw(st.permutations(part)))
            for part in ([r for r, b in zip(rows, in_b) if not b], [r for r, b in zip(rows, in_b) if b])
        ]
        reference = [_reference_ingest(t) for t in texts]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
            for path, t in zip(paths, texts):
                path.write_text(t, encoding="utf-8")
            results = [ingest_csv(path) for path in paths]
            findings = [f"{path.name}:{e}" for path, (_, errors) in zip(paths, reference) for e in errors]
            if findings:
                with pytest.raises(ValueError) as excinfo:
                    _ingest_meters(paths)
                assert str(excinfo.value) == "meter CSV errors:\n" + "\n".join(findings)
                by_meter = readings_by_meter(results)
            else:
                by_meter = _ingest_meters(paths)

        reference_by_meter = {}
        for result, (records, errors) in zip(results, reference):
            assert [str(e) for e in result.errors] == errors
            assert len(result.records) == len(records)
            groups = _by_meter(records)
            assert _columns(result) == {key: list(map(_view, group)) for key, group in groups.items()}
            assert list(map(_view, result.records)) == [_view(r) for group in groups.values() for r in group]
            for r in records:
                reference_by_meter.setdefault(r.meter_id, []).append(r)
        assert by_meter.keys() == reference_by_meter.keys()
        for meter_id, reference_records in reference_by_meter.items():
            assert isinstance(by_meter[meter_id], MeterReadings)
            assert _outcome(normalize_to_slots, by_meter[meter_id]) == _outcome(
                _reference_normalize, reference_records
            )

    @pytest.mark.parametrize("quantity", list(QuantityKind), ids=lambda q: q.value)
    def test_a_whole_series_across_both_switches_is_normalized_by_columns(self, quantity, monkeypatch):
        """A whole series of fresh datetimes, one tzinfo object per offset
        as ingestion gives, from before the 2024 spring switch to after the
        autumn one: no slot start is derived and no slot is walked."""
        zones = {h: timezone(timedelta(hours=h)) for h in (1, 2)}

        def fresh(utc):
            local = paris_2024(utc)
            return local.replace(tzinfo=zones[local.utcoffset() // timedelta(hours=1)])

        first, slot = parse_timestamp("2024-03-30T22:00:00Z"), timedelta(minutes=SLOT_MINUTES)
        n = (parse_timestamp("2024-10-27T04:00:00Z") - first) // slot
        if quantity is QuantityKind.ENERGY_WH:
            rows = [("linky", fresh(first + k * slot), k * 7919 % 1000) for k in range(n)]
        elif quantity is QuantityKind.POWER_KW_10MIN:
            rows = [
                ("sme_smi", fresh(first + k * slot + j * timedelta(minutes=10)), Decimal(k % 97) / 4)
                for k in range(n)
                for j in range(3)
            ]
        else:
            rows = [("sme_smi", fresh(first + k * slot), k * (k + 1) // 2) for k in range(n + 1)]
        records = [RawMeterRecord("m1", MeterClass(c), ts, quantity, v) for c, ts, v in rows]
        expected = _outcome(_reference_normalize, records)
        assert expected[0] == "slots" and len(expected[1]) == n
        assert {start[-6:] for start, _ in expected[1]} == {"+01:00", "+02:00"}

        def walked(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(ingestion, "_slot_floor", walked)
        monkeypatch.setattr(ingestion, "groupby", walked)
        assert _outcome(normalize_to_slots, _readings(records)) == expected

    def test_the_walk_sums_linky_readings_with_seconds_per_slot(self, monkeypatch):
        """Linky readings off the minute, across the spring switch, are
        summed per slot as the reference sums them; their slot starts
        come from _slot_floor."""
        texts = {
            "2024-03-31T01:00:00+01:00": 5,
            "2024-03-31T01:10:07+01:00": 7,
            "2024-03-31T01:29:59.999999+01:00": 11,
            "2024-03-31T01:30:00+01:00": 13,
            "2024-03-31T01:45:00.5+01:00": 17,
            "2024-03-31T03:00:01+02:00": 19,
            "2024-03-31T03:20:00+02:00": 23,
        }
        records = [
            RawMeterRecord("m1", MeterClass.LINKY, parse_timestamp(t), QuantityKind.ENERGY_WH, v)
            for t, v in texts.items()
        ]
        floor, floored = ingestion._slot_floor, []

        def counted(ts):
            floored.append(ts)
            return floor(ts)

        monkeypatch.setattr(ingestion, "_slot_floor", counted)
        got = _outcome(normalize_to_slots, _readings(reversed(records)))
        assert got == _outcome(_reference_normalize, records) == ("slots", [
            ("2024-03-31T01:00:00+01:00", 23),
            ("2024-03-31T01:30:00+01:00", 30),
            ("2024-03-31T03:00:00+02:00", 42),
        ])
        assert len(floored) == len(records)

    @pytest.mark.parametrize("pad", [" ", "\t", "\u00a0", "\u2003", "\x1c"], ids=repr)
    def test_padded_cells_parse_as_the_reference(self, pad):
        rows = [
            "m1,linky,2024-03-31T01:00:00+01:00,energy_wh,5",
            "m1,linky,2024-03-31T01:10:00+01:00,energy_wh,x",
            "m1,linky,2024-03-31T01:30:00,energy_wh,5",
            "m1,linky,2024-03-31T01:30:00+01:00,energy_wh,-2",
            "m2,sme_smi,2024-03-31T01:00:00+01:00,power_kw_10min,1.5",
            "m2,sme_smi,2024-03-31T01:10:00+01:00,power_kw_10min,-0.5",
            "m2,linky,2024-03-31T01:20:00+01:00,power_kw_10min,2",
            "m2,linky,2024-03-31T01:20:00+01:00,power_kw_10min,z",
            "m3,sme_smi,2024-03-31T01:00:00+01:00,energy_kwh_index,1.5",
            " ,linky,2024-03-31T01:00:00+01:00,energy_wh,1",
        ]
        # each row twice: once as written, once with every cell padded
        padded = [",".join(f"{pad}{cell}{pad}" for cell in row.split(",")) for row in rows]
        text = HEADER + "".join(row + "\n" for pair in zip(rows, padded) for row in pair)
        result = ingest_csv(_utf8(text))
        records, errors = _reference_ingest(text)
        assert [str(e) for e in result.errors] == errors
        assert [(r.meter_id, r.timestamp, type(r.value), r.value) for r in result.records] == [
            (r.meter_id, r.timestamp, type(r.value), r.value) for r in records
        ]


_FAULTS = ("off-mark", "duplicate", "gap", "offset", "decrease", "split")


def _grid_files(first, n, meters):
    """The texts of two meter CSVs, a and b, for meters that read on the
    Paris slots from ``first`` slots after _BASE, which may cross the
    spring switch. Each meter is (kind, extra, fault, pos): it covers n
    slots, or n + 1 with ``extra``, and carries at most one fault at an
    interior reading or slot picked by ``pos``. A meter with the fault
    "split" has every other row in b; every other row is in a."""
    slot, ten = timedelta(minutes=SLOT_MINUTES), timedelta(minutes=10)
    a, b = [], []
    for number, (kind, extra, fault, pos) in enumerate(meters, 1):
        slots = range(first, first + n + extra)
        if kind is QuantityKind.POWER_KW_10MIN:
            instants = [_BASE + k * slot + j * ten for k in slots for j in range(3)]
            values = [str(Decimal(13 * k % 40) / 2) for k in range(len(instants))]
        elif kind is QuantityKind.ENERGY_KWH_INDEX:
            instants = [_BASE + k * slot for k in [*slots, slots[-1] + 1]]
            values = [str(100 + 3 * k) for k in range(len(instants))]
        else:
            instants = [_BASE + k * slot for k in slots]
            values = [str(7 * k % 50) for k in range(len(instants))]
        texts = [paris_2024(t).isoformat() for t in instants]
        i = 1 + pos % (len(texts) - 2)
        if fault == "off-mark":
            texts[i] = paris_2024(instants[i] + timedelta(minutes=5)).isoformat()
        elif fault == "offset":
            hours = 3 - paris_2024(instants[i]).utcoffset() // timedelta(hours=1)
            texts[i] = instants[i].astimezone(timezone(timedelta(hours=hours))).isoformat()
        elif fault == "decrease":
            values[i] = "0"
        klass = "linky" if kind is QuantityKind.ENERGY_WH else "sme_smi"
        rows = [f"m{number},{klass},{t},{kind.value},{v}" for t, v in zip(texts, values)]
        if fault == "duplicate":
            rows.insert(i + 1, rows[i])
        elif fault == "gap":
            per_slot = 3 if kind is QuantityKind.POWER_KW_10MIN else 1
            gap = 1 + pos % (len(rows) // per_slot - 2)
            del rows[gap * per_slot:(gap + 1) * per_slot]
        a += rows[0::2] if fault == "split" else rows
        b += rows[1::2] if fault == "split" else []
    return [HEADER + "".join(row + "\n" for row in rows) for rows in (a, b)]


_GRID_METERS = st.lists(
    st.tuples(
        st.sampled_from(list(QuantityKind)),
        st.integers(0, 1),
        st.sampled_from([None, None, None, *_FAULTS]),
        st.integers(0, 10),
    ),
    min_size=1,
    max_size=5,
)


class TestSharedGrids:
    """Meters of one file read at the same instants share one checked
    column per quantity kind and one grid of slot starts."""

    @settings(max_examples=300, deadline=None)
    @given(first=st.integers(0, 8), n=st.integers(3, 5), meters=_GRID_METERS)
    # a column of the same length and ends as a checked one, one reading
    # in the middle in the other offset
    @example(first=4, n=3, meters=[(QuantityKind.ENERGY_WH, 0, None, 0), (QuantityKind.ENERGY_WH, 0, "offset", 0)])
    @example(first=0, n=4, meters=[(QuantityKind.POWER_KW_10MIN, 0, None, 0), (QuantityKind.POWER_KW_10MIN, 0, "off-mark", 4)])
    # one column read as Linky Wh over n + 1 slots and as an index over n
    @example(first=4, n=3, meters=[(QuantityKind.ENERGY_WH, 1, None, 0), (QuantityKind.ENERGY_KWH_INDEX, 0, None, 0)])
    @example(first=4, n=3, meters=[(QuantityKind.ENERGY_KWH_INDEX, 0, None, 0), (QuantityKind.ENERGY_WH, 1, None, 0)])
    # a checked index column whose values decrease in a later meter
    @example(first=4, n=3, meters=[(QuantityKind.ENERGY_KWH_INDEX, 0, None, 0), (QuantityKind.ENERGY_KWH_INDEX, 0, "decrease", 0)])
    @example(first=4, n=3, meters=[(QuantityKind.ENERGY_WH, 0, None, 0), (QuantityKind.ENERGY_WH, 0, "split", 0)])
    def test_sharing_normalizes_as_fresh_unshared_columns(self, first, n, meters):
        """Each meter normalizes, in the order run takes them, to the
        series or error of fresh copies of its columns that no file's
        grids hold, and of the reference; whole series on equal slots of
        one file share one grid, and a meter joined across files holds no
        file's grids."""
        texts = _grid_files(first, n, meters)
        by_meter = readings_by_meter([ingest_csv(_utf8(text)) for text in texts])
        on_grids = {}
        for meter_id in sorted(by_meter):
            readings = by_meter[meter_id]
            kind, _, fault, _ = meters[int(meter_id[1:]) - 1]
            assert (readings.grids is None) == (fault == "split")
            fresh = MeterReadings(
                readings.meter_id, readings.meter_class, readings.quantity_kind,
                list(readings.timestamps), list(readings.values),
            )
            records = [readings[k] for k in range(len(readings))]
            got = _outcome(normalize_to_slots, readings)
            assert got == _outcome(normalize_to_slots, fresh) == _outcome(_reference_normalize, records)
            if fault is None:
                assert got[0] == "slots"
                series = normalize_to_slots(by_meter[meter_id])
                on_grids.setdefault(tuple(got[1][k][0] for k in range(len(series))), set()).add(id(series.starts))
        assert all(len(grids) == 1 for grids in on_grids.values())

    def test_a_files_whole_series_share_one_grid_each_column_checked_once(self, monkeypatch):
        """Five meters of the three kinds over the spring switch: one grid,
        and each kind's column checked whole once."""
        meters = [
            (QuantityKind.ENERGY_WH, 0, None, 0),
            (QuantityKind.POWER_KW_10MIN, 0, None, 0),
            (QuantityKind.ENERGY_KWH_INDEX, 0, None, 0),
            (QuantityKind.ENERGY_WH, 0, None, 0),
            (QuantityKind.POWER_KW_10MIN, 0, None, 0),
            (QuantityKind.ENERGY_KWH_INDEX, 0, None, 0),
        ]
        text, _ = _grid_files(4, 5, meters)
        checked = []
        whole_starts = ingestion._whole_starts
        monkeypatch.setattr(
            ingestion, "_whole_starts", lambda stamps, *kinds: checked.append(kinds) or whole_starts(stamps, *kinds)
        )
        by_meter = readings_by_meter([ingest_csv(_utf8(text))])
        series = [normalize_to_slots(by_meter[m]) for m in sorted(by_meter)]
        assert len(checked) == 3
        assert len({id(s.starts) for s in series}) == 1
        assert {start.isoformat()[-6:] for start in series[0].starts} == {"+01:00", "+02:00"}

    def test_a_files_power_meters_convert_each_triple_once(self, monkeypatch):
        """Two power meters of one file with the same samples, two distinct
        (v0, v1, v2) triples over four slots: each triple is converted
        once for the file, and each meter's energies are those of its
        columns normalized alone."""
        rows = [
            f"{meter},sme_smi,{ten_min_ts(slot, sample).isoformat()},power_kw_10min,{kw}"
            for meter in ("b1", "b2")
            for slot in range(4)
            for sample, kw in enumerate((slot % 2, 1, 2))
        ]
        converted = []
        power_wh = ingestion._power_wh
        monkeypatch.setattr(ingestion, "_power_wh", lambda samples: converted.append(samples) or power_wh(samples))
        meters = ingest_csv(_utf8(HEADER + "\n".join(rows) + "\n")).meters
        series = [normalize_to_slots(readings) for readings in meters]
        assert len(converted) == 2
        alone = [
            normalize_to_slots(MeterReadings(r.meter_id, r.meter_class, r.quantity_kind, r.timestamps, r.values))
            for r in meters
        ]
        assert series == alone
        assert [s.energies for s in series] == [(500, 667, 500, 667)] * 2

    def test_grids_are_the_files_and_go_with_its_readings(self):
        """Two files of the same text give equal series on two grids, and
        a file's grids are freed with its readings."""
        text, _ = _grid_files(0, 4, [(QuantityKind.ENERGY_WH, 0, None, 0), (QuantityKind.ENERGY_WH, 0, None, 0)])
        results = [ingest_csv(_utf8(text)) for _ in range(2)]
        series = [normalize_to_slots(readings) for result in results for readings in result.meters]
        assert series[0] == series[2] and series[1] == series[3]
        assert series[0].starts is series[1].starts
        assert series[2].starts is series[3].starts and series[2].starts is not series[0].starts
        grids = weakref.ref(results[0].meters[0].grids)
        assert grids() is not results[1].meters[0].grids
        del results, series
        gc.collect()
        assert grids() is None
