"""Hash chain behaviour and tamper detection."""

import hashlib
import io
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from cscshare.ledger import (
    GENESIS_HASH,
    AuditRecord,
    Ledger,
    read_ledger,
    verify_chain,
    write_ledger,
)

from datetime import timedelta

from conftest import DAY, slot_ts


def build_ledger(n=10):
    ledger = Ledger()
    for k in range(n):
        ledger.append(
            {"kind": "production", "energy_wh": 100 + k},
            counting_point_key="pv1",
            timestamp=slot_ts(k % 48, DAY + timedelta(days=k // 48)),
        )
    return ledger


class TestAppend:
    def test_genesis_prev_hash_is_zero(self):
        ledger = Ledger()
        record = ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        assert record.prev_hash == GENESIS_HASH

    def test_chain_links(self):
        ledger = Ledger()
        first = ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        second = ledger.append({"energy_wh": 6}, "pv1", slot_ts(1))
        assert second.prev_hash == first.hash

    def test_timestamp_regression_rejected(self):
        ledger = Ledger()
        ledger.append({"energy_wh": 5}, "pv1", slot_ts(5))
        with pytest.raises(ValueError, match="regression"):
            ledger.append({"energy_wh": 6}, "pv1", slot_ts(4))

    def test_equal_timestamps_allowed_per_point(self):
        ledger = Ledger()
        ledger.append({"policy": "static"}, "KOR", slot_ts(5))
        ledger.append({"policy": "static33"}, "KOR", slot_ts(5))

    def test_independent_points_do_not_interfere(self):
        ledger = Ledger()
        ledger.append({"energy_wh": 5}, "pv1", slot_ts(5))
        ledger.append({"energy_wh": 6}, "b1", slot_ts(1))

    def test_naive_timestamp_rejected(self):
        ledger = Ledger()
        ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        with pytest.raises(ValueError, match="no UTC offset"):
            ledger.append({"energy_wh": 6}, "pv1", slot_ts(1).replace(tzinfo=None))

    def test_float_payload_rejected(self):
        with pytest.raises(ValueError, match="serializable"):
            Ledger().append({"kor": 0.4245}, "KOR", slot_ts(0))

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"policy": "static", "coefficients": {"b1": "0.5", "b2": 0.5}},
                r"^payload\.coefficients\.b2: float is not canonically",
            ),
            ({"values": [1, [2, 2.5]]}, r"^payload\.values\[1\]\[1\]: float "),
            ({"amount": Decimal("1.5")}, r"^payload\.amount: Decimal "),
            (
                {"coefficients": {"b1": "0.5", 2: "0.5"}},
                r"^payload\.coefficients: non-string key 2$",
            ),
            ({"meta": {"ids": {"b1"}}}, r"^payload\.meta\.ids: set "),
        ],
        ids=["float-in-coefficients", "float-in-list", "decimal", "int-key", "set"],
    )
    def test_non_canonical_value_rejected_with_its_path(self, payload, message):
        ledger = Ledger()
        with pytest.raises(ValueError, match=message):
            ledger.append(payload, "KOR", slot_ts(0))
        assert len(ledger) == 0


class TestVerify:
    def test_intact_chain(self):
        assert verify_chain(build_ledger(100)).intact

    def test_empty_chain_is_intact(self):
        assert verify_chain(Ledger()).intact

    def test_payload_tamper_detected_at_index(self):
        records = list(build_ledger(100))
        victim = records[57]
        records[57] = AuditRecord(
            counting_point_key=victim.counting_point_key,
            timestamp=victim.timestamp,
            payload={"kind": "production", "energy_wh": 9_999_999},
            prev_hash=victim.prev_hash,
            hash=victim.hash,
        )
        report = verify_chain(records)
        assert not report.intact
        assert report.first_break == 57

    def test_truncating_the_head_is_not_detectable(self):
        # documented limitation: the tail can be cut without an external anchor
        records = list(build_ledger(10))[:-1]
        assert verify_chain(records).intact

    def test_dropping_a_middle_record_detected(self):
        records = list(build_ledger(10))
        del records[4]
        report = verify_chain(records)
        assert not report.intact
        assert report.first_break == 4


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        ledger = build_ledger(25)
        path = tmp_path / "audit.log"
        write_ledger(ledger, path)
        first = path.read_bytes()
        reread = read_ledger(path)
        out = io.StringIO()
        write_ledger(reread, out)
        assert out.getvalue().encode() == first
        assert [r.hash for r in reread] == [r.hash for r in ledger]
        assert verify_chain(reread).intact

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_ledger(path)

    def test_read_from_stream(self):
        ledger = build_ledger(5)
        buf = io.StringIO()
        write_ledger(ledger, buf)
        buf.seek(0)
        reread = read_ledger(buf)
        assert [r.hash for r in reread] == [r.hash for r in ledger]

    def test_non_canonical_timestamp_rejected(self, tmp_path):
        # datetime.fromisoformat accepts any date/time separator, so a
        # T -> D bit flip would otherwise re-normalize and re-verify
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(1), path)
        text = path.read_text()
        assert "T00:00:00" in text
        path.write_text(text.replace("T00:00:00", "D00:00:00"))
        with pytest.raises(ValueError, match="non-canonical timestamp"):
            read_ledger(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line.replace('":', '": ', 1),
            lambda line: line + " ",
            lambda line: json.dumps(
                dict(reversed(json.loads(line).items())), separators=(",", ":")
            ),
            lambda line: line[:-1] + ',"hash":' + json.dumps(json.loads(line)["hash"]) + "}",
            lambda line: line[:-1] + ',"note":"x"}',
            lambda line: line.replace(
                json.dumps(json.loads(line)["payload"], sort_keys=True, separators=(",", ":")),
                json.dumps(sorted(json.loads(line)["payload"].items()), separators=(",", ":")),
            ),
            lambda line: line.replace('"energy_wh":103', '"energy_wh":103.0'),
            lambda line: line.replace('"energy_wh":103', '"energy_wh":1.03e2'),
            lambda line: line.replace('"kind"', '"\\u006bind"'),
            lambda line: line + "\r",
            lambda line: "\n" + line,
        ],
        ids=[
            "whitespace", "trailing-space", "reordered-keys", "duplicate-key",
            "extra-key", "payload-as-pairs", "float", "exponent", "escaped-key",
            "crlf", "blank-line",
        ],
    )
    def test_non_canonical_line_rejected(self, tmp_path, edit):
        # most edits leave what json.loads reads from the line unchanged, so
        # only the check that a line is its record's canonical serialization
        # can catch them
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(5), path)
        lines = path.read_text().split("\n")
        assert '"energy_wh":103' in lines[3]
        lines[3] = edit(lines[3])
        path.write_bytes("\n".join(lines).encode())
        with pytest.raises(ValueError, match="line 4: malformed record"):
            read_ledger(path)

    def test_non_string_field_rejected(self, tmp_path):
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(2), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"counting_point_key":"pv1"', '"counting_point_key":1')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2: malformed record"):
            read_ledger(path)

    def test_last_line_without_newline_accepted(self, tmp_path):
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(3), path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert verify_chain(read_ledger(path)).intact

    def test_single_bit_flip_in_file_detected(self, tmp_path):
        ledger = build_ledger(20)
        path = tmp_path / "audit.log"
        write_ledger(ledger, path)
        raw = bytearray(path.read_bytes())
        # flip one bit inside an energy digit of record 7
        lines = path.read_text().splitlines()
        offset = sum(len(l) + 1 for l in lines[:7]) + lines[7].index('"energy_wh":') + 13
        raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        tampered = read_ledger(path)
        report = verify_chain(tampered)
        assert not report.intact
        assert report.first_break <= 7


@given(
    n=st.integers(1, 30),
    victim=st.data(),
)
@settings(max_examples=50)
def test_any_field_mutation_is_detected(n, victim):
    ledger = build_ledger(n)
    records = list(ledger)
    idx = victim.draw(st.integers(0, n - 1))
    field = victim.draw(st.sampled_from(["payload", "timestamp", "key"]))
    r = records[idx]
    if field == "payload":
        mutated = AuditRecord(r.counting_point_key, r.timestamp,
                              {**r.payload, "energy_wh": r.payload["energy_wh"] + 1},
                              r.prev_hash, r.hash)
    elif field == "timestamp":
        mutated = AuditRecord(r.counting_point_key, slot_ts(47), r.payload,
                              r.prev_hash, r.hash)
    else:
        mutated = AuditRecord("evil", r.timestamp, r.payload, r.prev_hash, r.hash)
    records[idx] = mutated
    report = verify_chain(records)
    assert not report.intact
    assert report.first_break <= idx


# Reference oracle: the record hash and line as plain json.dumps calls.
def _reference_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _reference_hash(key, timestamp_iso, payload, prev_hash):
    material = _reference_canonical([key, timestamp_iso, payload, prev_hash])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _reference_line(key, timestamp_iso, payload, prev_hash, record_hash):
    return _reference_canonical(
        {
            "counting_point_key": key,
            "timestamp": timestamp_iso,
            "payload": payload,
            "prev_hash": prev_hash,
            "hash": record_hash,
        }
    )


# quotes, backslashes, control, non-ASCII and astral characters
_awkward_text = st.text(
    alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\xe9\u20ac\u2028\U0001f600')
) | st.text()
_json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | _awkward_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_awkward_text, children, max_size=4),
    max_leaves=12,
)


@given(
    entries=st.lists(
        st.tuples(_awkward_text, st.dictionaries(_awkward_text, _json_trees, max_size=5)),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200, deadline=None)
def test_hash_and_line_bytes_equal_the_json_dumps_formulas(entries):
    """The spliced hash material and line reproduce, byte for byte, a
    json.dumps of [key, timestamp, payload, prev_hash] and of the record
    object with sorted keys."""
    ledger = Ledger()
    timestamp = slot_ts(3)
    for key, payload in entries:
        record = ledger.append(payload, key, timestamp)
        iso = timestamp.isoformat()
        assert record.hash == _reference_hash(key, iso, payload, record.prev_hash)
        assert record.to_line() == _reference_line(key, iso, payload, record.prev_hash, record.hash)
        direct = AuditRecord(key, timestamp, payload, record.prev_hash, record.hash)
        assert direct.to_line() == record.to_line()
        assert direct.recompute_hash() == record.hash
    buf = io.StringIO()
    write_ledger(ledger, buf)
    buf.seek(0)
    reread = read_ledger(buf)
    assert [r.to_line() for r in reread] == [r.to_line() for r in ledger]
    assert verify_chain(reread).intact
