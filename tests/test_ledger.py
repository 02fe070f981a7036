"""Hash chain behaviour and tamper detection."""

import dataclasses
import hashlib
import io
import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cscshare import ledger as ledger_mod
from cscshare.ledger import (
    GENESIS_HASH,
    AuditRecord,
    ChainReport,
    Ledger,
    read_ledger,
    verify_chain,
    write_ledger,
)

from cscshare.model import parse_timestamp

from datetime import timedelta, timezone

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


def _record(key, timestamp, payload, prev_hash, hash_):
    """A record with any field values, as a log line may hold it."""
    return AuditRecord(
        key, timestamp, payload, prev_hash, hash_, payload_json=_reference_canonical(payload)
    )


def _reread(records):
    """The ledger read back from the lines the reference writer renders."""
    return read_ledger(io.StringIO(_written(_reference_write_ledger, records), newline="\n"))


class TestAppend:
    def test_genesis_prev_hash_is_zero(self):
        ledger = Ledger()
        hash_ = ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        record = ledger.records[-1]
        assert record.hash == hash_ == ledger.head_hash
        assert record.prev_hash == GENESIS_HASH

    def test_chain_links(self):
        ledger = Ledger()
        ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        ledger.append({"energy_wh": 6}, "pv1", slot_ts(1))
        first, second = ledger.records
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
            # flat and one-level payloads take a one-pass type test first;
            # what it refuses is still worded by the full walk
            ({"x": 1.5}, r"^payload\.x: float is not canonically serializable; use strings for decimals$"),
            ({"x": float("nan")}, r"^payload\.x: float is not canonically serializable; use strings for decimals$"),
            ({"m": {"x": float("nan")}}, r"^payload\.m\.x: float is not canonically serializable; use strings"),
            ({1: "a"}, r"^payload: non-string key 1$"),
        ],
        ids=[
            "float-in-coefficients", "float-in-list", "decimal", "int-key", "set",
            "top-level-float", "top-level-nan", "nested-nan", "top-level-int-key",
        ],
    )
    def test_non_canonical_value_rejected_with_its_path(self, payload, message):
        ledger = Ledger()
        with pytest.raises(ValueError, match=message):
            ledger.append(payload, "KOR", slot_ts(0))
        assert len(ledger) == 0

    def test_append_after_a_head_hash_that_needs_escaping(self, tmp_path):
        """A ledger seeded from a read log may end in any hash text; the
        next record's hash material quotes it as JSON does."""
        forged = _record("pv1", slot_ts(0), {"energy_wh": 5}, GENESIS_HASH, 'h"\\\u00e9\n')
        path = tmp_path / "seed.log"
        _reference_write_ledger([forged], path)
        ledger = read_ledger(path)
        assert ledger.head_hash == forged.hash
        hash_ = ledger.append({"energy_wh": 6}, "pv1", slot_ts(1))
        record = ledger.records[-1]
        assert record.hash == hash_
        assert record.prev_hash == forged.hash
        iso = slot_ts(1).isoformat()
        assert record.hash == _reference_hash("pv1", iso, {"energy_wh": 6}, forged.hash)
        last_line = _written(write_ledger, ledger).split("\n")[-2]
        assert last_line == _reference_line("pv1", iso, {"energy_wh": 6}, forged.hash, record.hash)
        # verify_chain stops at the forged head, so the new record's link
        # and hash are checked as it would check them
        report = verify_chain(ledger)
        assert (report.first_break, report.message) == (0, "hash mismatch at record 0")
        out = tmp_path / "audit.log"
        write_ledger(ledger, out)
        reread = read_ledger(out)
        assert _written(_reference_write_ledger, reread) == _written(write_ledger, ledger)
        assert list(reread)[-1].prev_hash == forged.hash


class TestVerify:
    def test_intact_chain(self):
        assert verify_chain(build_ledger(100)).intact

    def test_empty_chain_is_intact(self):
        assert verify_chain(Ledger()).intact

    def test_payload_tamper_detected_at_index(self):
        records = list(build_ledger(100))
        victim = records[57]
        records[57] = _record(
            victim.counting_point_key,
            victim.timestamp,
            {"kind": "production", "energy_wh": 9_999_999},
            victim.prev_hash,
            victim.hash,
        )
        report = verify_chain(_reread(records))
        assert not report.intact
        assert report.first_break == 57

    def test_truncating_the_head_is_not_detectable(self):
        # documented limitation: the tail can be cut without an external anchor
        records = list(build_ledger(10))[:-1]
        assert verify_chain(_reread(records)).intact

    def test_dropping_a_middle_record_detected(self):
        records = list(build_ledger(10))
        del records[4]
        report = verify_chain(_reread(records))
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

    def test_invalid_utf8_reported_with_number(self, tmp_path):
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(3), path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(
            ValueError,
            match=r"^ledger line 2: malformed record \('utf-8' codec can't decode byte 0xff in position 0",
        ):
            read_ledger(path)

    def test_payload_nested_too_deep_reported_with_number(self, tmp_path):
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(2), path)
        lines = path.read_text().splitlines()
        deep = "[" * 100_000 + "]" * 100_000
        lines[1] = lines[1].replace('"energy_wh":101', f'"energy_wh":{deep}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"^ledger line 2: malformed record \(maximum recursion"):
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
        mutated = _record(r.counting_point_key, r.timestamp,
                          {**r.payload, "energy_wh": r.payload["energy_wh"] + 1},
                          r.prev_hash, r.hash)
    elif field == "timestamp":
        mutated = _record(r.counting_point_key, slot_ts(47), r.payload,
                          r.prev_hash, r.hash)
    else:
        mutated = _record("evil", r.timestamp, r.payload, r.prev_hash, r.hash)
    records[idx] = mutated
    report = verify_chain(_reread(records))
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
    direct = []
    for key, payload in entries:
        hash_ = ledger.append(payload, key, timestamp)
        record = ledger.records[-1]
        assert record.hash == hash_
        iso = timestamp.isoformat()
        assert record.hash == _reference_hash(key, iso, payload, record.prev_hash)
        line = _written(write_ledger, ledger).split("\n")[-2]
        assert line == _reference_line(key, iso, payload, record.prev_hash, record.hash)
        direct.append(_record(key, timestamp, payload, record.prev_hash, record.hash))
    assert _written(_reference_write_ledger, direct) == _written(write_ledger, ledger)
    buf = io.StringIO()
    write_ledger(ledger, buf)
    buf.seek(0)
    reread = read_ledger(buf)
    assert _written(_reference_write_ledger, reread) == _written(_reference_write_ledger, ledger)
    assert verify_chain(reread).intact


# Reference reader: the line checker before each distinct payload was
# checked once, kept verbatim. It decodes every line in full and compares
# it with its record's canonical serialization.
def _reference_parse_record(line, timestamps):
    obj = ledger_mod._decode(line)
    payload = obj["payload"]
    if not isinstance(payload, dict):
        raise ValueError("non-canonical payload: not a JSON object")
    payload_json = ledger_mod._encode(payload)
    timestamp_text = obj["timestamp"]
    canonical = ledger_mod._line(
        obj["counting_point_key"], obj["hash"], payload_json, obj["prev_hash"],
        timestamp_text,
    )
    if canonical != line:
        raise ValueError("non-canonical line: its bytes differ from the record's")
    timestamp = timestamps.get(timestamp_text)
    if timestamp is None:
        timestamp = parse_timestamp(timestamp_text)
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


def _reference_parse_lines(lines):
    timestamps = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            record = _reference_parse_record(
                line[:-1] if line.endswith("\n") else line, timestamps
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"ledger line {lineno}: malformed record ({exc})") from None
        yield record


def _outcome(read):
    """('ok', per-record fields) or ('error', message) of one read."""
    try:
        ledger = read()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [
        (
            r.counting_point_key, r.timestamp, r.timestamp.utcoffset(),
            r.timestamp.isoformat(), r.payload, r.payload_json, r.prev_hash, r.hash,
        )
        for r in ledger
    ]


# Field texts that sit next to, or look like, the separators of the line
# layout, plus escapes and non-ASCII.
_tricky_text = st.sampled_from(
    [
        "pv1", "b1", "", ',"prev_hash":"', ',"timestamp":"', '","hash":"',
        '","payload":', '"}', "\\", '"', "é", "\U0001f600", "\n", "a b",
        "KOR",
    ]
) | _awkward_text
_hash_text = st.sampled_from(["0" * 64, "f" * 64, "abc", "", "G" * 64]) | st.text(
    alphabet="0123456789abcdefABCDEF", min_size=63, max_size=65
) | _tricky_text
_timestamps = st.builds(
    lambda k, minutes, micro: (slot_ts(k) + timedelta(microseconds=micro)).replace(
        tzinfo=timezone(timedelta(minutes=minutes))
    ),
    st.integers(0, 47),
    st.sampled_from([0, 60, 120, -300, 330]),
    st.sampled_from([0, 0, 1, 500000]),
)
_records = st.builds(
    _record,
    _tricky_text,
    _timestamps,
    st.dictionaries(_tricky_text, _tricky_text | _json_trees, max_size=3),
    _hash_text,
    _hash_text,
)

_INSERTS = [
    " ", "\t", "\r", '"', "\\", ",", ":", "{", "}", "[", "]", "0", "x", "é",
    "\\u0061", '\\"', ',"prev_hash":"', ',"timestamp":"', '","hash":"', '","payload":',
    '"}', ".0", "e2",
]


@st.composite
def _mutated_logs(draw):
    """A written log, its records drawn from a small pool so that payloads,
    keys and timestamps repeat, then edited at one or two places."""
    pool = draw(st.lists(_records, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))
    records = []
    for i, pick in enumerate(picks):
        record = pool[pick]
        if records and draw(st.booleans()):
            # most logs chain: the previous hash is the last record's hash
            record = dataclasses.replace(record, prev_hash=records[-1].hash)
        records.append(record)
    buf = io.StringIO()
    _reference_write_ledger(records, buf)
    written = buf.getvalue().split("\n")[:-1]
    lines = list(written)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(
            ["insert", "delete", "replace", "flip", "pad-payload", "reorder",
             "duplicate-key", "escape", "timestamp", "crlf", "cut", "copy-earlier"]
        ))
        if kind == "insert":
            line = line[:at] + draw(st.sampled_from(_INSERTS)) + line[at:]
        elif kind == "delete":
            line = line[:at] + line[at + draw(st.integers(1, 3)):]
        elif kind == "replace":
            line = line[:at] + draw(st.sampled_from(_INSERTS)) + line[at + 1:]
        elif kind == "flip" and at < len(line):
            line = line[:at] + chr(ord(line[at]) ^ (1 << draw(st.integers(0, 6)))) + line[at + 1:]
        elif kind == "pad-payload":
            # a copy of an earlier line, whose payload text the reader has
            # then checked already, with whitespace around the payload
            j = draw(st.integers(0, max(i - 1, 0)))
            payload = records[j].payload_json
            pad = draw(st.sampled_from([" ", "\t", "\r"]))
            line = written[j].replace(
                f'"payload":{payload}',
                f'"payload":{draw(st.sampled_from([pad + payload, payload + pad]))}',
            )
        elif kind in ("reorder", "duplicate-key") and line == written[i]:
            items = list(json.loads(line).items())
            items = items[::-1] if kind == "reorder" else items + items[1:2]
            line = "{" + ",".join(
                json.dumps(k) + ":" + json.dumps(v, sort_keys=True, separators=(",", ":"))
                for k, v in items
            ) + "}"
        elif kind == "escape":
            # the same character, written as a \\u escape
            j = draw(st.integers(0, len(line) - 1))
            line = line[:j] + "\\u%04x" % ord(line[j]) + line[j + 1:]
        elif kind == "timestamp":
            text = records[i].timestamp.isoformat()
            other = draw(st.sampled_from([
                text.replace("T", " "), text.replace("T", "D"), text[:19],
                text[:19] + "Z", text + " ", text.replace("+", "-"), "2024-13-01T00:00:00+00:00",
            ]))
            line = line.replace(f'"timestamp":"{text}"', f'"timestamp":"{other}"')
        elif kind == "crlf":
            line += "\r"
        elif kind == "cut":
            line = line[:at]
        else:
            line = lines[draw(st.integers(0, i))]
        lines[i] = line
    text = "\n".join(lines)
    if draw(st.booleans()):
        text += "\n"
    return text


@given(text=_mutated_logs())
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_the_reference_reader(text, tmp_path_factory):
    """read_ledger accepts exactly the lines the reference accepts, reads
    equal records from them and rejects the others with the same line
    number and message, reading from a file or from a text stream."""
    path = tmp_path_factory.getbasetemp() / "differential.log"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return  # a lone surrogate: not UTF-8, the reference cannot read it
    expected = _outcome(lambda: list(_reference_parse_lines(io.StringIO(text, newline="\n"))))
    assert _outcome(lambda: read_ledger(path)) == expected
    assert _outcome(lambda: read_ledger(io.StringIO(text, newline="\n"))) == expected


def test_equal_payload_texts_share_one_payload(tmp_path):
    path = tmp_path / "audit.log"
    ledger = Ledger()
    for k in range(4):
        ledger.append({"kind": "production", "energy_wh": 7}, "pv1", slot_ts(k))
    write_ledger(ledger, path)
    first, *rest = read_ledger(path)
    assert all(r.payload is first.payload for r in rest)
    assert all(r.payload_json is first.payload_json for r in rest)
    # each previous hash is the record before it's hash object
    records = [first, *rest]
    assert all(b.prev_hash is a.hash for a, b in zip(records, records[1:]))


def test_crlf_log_rejected_through_a_text_stream(tmp_path):
    """A stream with universal newlines turns "\\r\\n" into "\\n" before the
    checker sees a line; the line ends it translated are refused after."""
    path = tmp_path / "audit.log"
    write_ledger(build_ledger(2), path)
    crlf = tmp_path / "crlf.log"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with open(crlf, encoding="utf-8") as stream:
        with pytest.raises(ValueError, match=r"^non-canonical line end '\\r\\n': ledger lines end in '\\n'$"):
            read_ledger(stream)
    with pytest.raises(ValueError, match=r"^ledger line 1: malformed record"):
        read_ledger(crlf)
    with pytest.raises(ValueError, match=r"^ledger line 1: malformed record"):
        read_ledger(io.StringIO(crlf.read_bytes().decode("utf-8"), newline="\n"))
    mixed = tmp_path / "mixed.log"
    mixed.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    with open(mixed, encoding="utf-8") as stream:
        with pytest.raises(ValueError, match=r"^non-canonical line end '\\r\\n': "):
            read_ledger(stream)
    with open(path, encoding="utf-8") as stream:
        assert verify_chain(read_ledger(stream)).intact


# Reference writer and verifier: the record-based Ledger.append,
# write_ledger and verify_chain from before a Ledger held its lines, kept
# verbatim but for the names of the module helpers they call.
_quote, _encode, _line, _check_shallow = (
    ledger_mod._quote, ledger_mod._encode, ledger_mod._line, ledger_mod._check_shallow
)


def _reference_record_hash(key_json, timestamp_json, payload_json, prev_hash):
    """SHA-256 of the JSON array [key, timestamp, payload, prev]; key and timestamp come quoted."""
    material = f"[{key_json},{timestamp_json},{payload_json},{_quote(prev_hash)}]"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class _ReferenceLedger:
    """Append-only hash chain. Single writer; snapshots are safe to share."""

    def __init__(self, records=()):
        self._records = list(records)
        self._last_ts = {}
        for r in self._records:
            self._last_ts[r.counting_point_key] = r.timestamp
        # the last timestamp object checked and its quoted ISO text; the
        # records of one slot are appended with the same object
        self._stamp = None
        self._stamp_json = ""
        self._key_json = {}

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self):
        return tuple(self._records)

    @property
    def head_hash(self):
        return self._records[-1].hash if self._records else GENESIS_HASH

    def append(self, payload, counting_point_key, timestamp):
        """Chain a new record to the head.

        Timestamps must not regress within one counting point; equal
        timestamps are allowed (several policies may log the same slot).
        """
        if timestamp is not self._stamp:
            if timestamp.tzinfo is None or timestamp.utcoffset() is None:
                raise ValueError("record timestamp has no UTC offset")
            self._stamp = timestamp
            self._stamp_json = _quote(timestamp.isoformat())
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
        prev_hash = self.head_hash
        payload_json = _encode(payload)
        hash_ = _reference_record_hash(key_json, self._stamp_json, payload_json, prev_hash)
        record = AuditRecord(
            counting_point_key, timestamp, payload, prev_hash, hash_, payload_json=payload_json
        )
        self._records.append(record)
        self._last_ts[counting_point_key] = timestamp
        return record


def _reference_with_iso(records):
    """Pair each record with its timestamp's ISO text, formatting each run
    of one timestamp object once: the records of a slot share it."""
    timestamp = iso = None
    for record in records:
        if record.timestamp is not timestamp:
            timestamp = record.timestamp
            iso = timestamp.isoformat()
        yield record, iso


def _reference_verify_chain(ledger):
    """Recompute every hash and link; report the first break, if any.

    Truncating records off the tail is not detectable without an external
    anchor for the head hash; persist the head out of band if that matters.
    """
    prev_hash = GENESIS_HASH
    for i, (record, iso) in enumerate(_reference_with_iso(ledger)):
        if record.prev_hash != prev_hash:
            return ChainReport(False, i, f"broken link at record {i}")
        key_json, timestamp_json = _quote(record.counting_point_key), _quote(iso)
        recomputed = _reference_record_hash(key_json, timestamp_json, record.payload_json, record.prev_hash)
        if recomputed != record.hash:
            return ChainReport(False, i, f"hash mismatch at record {i}")
        prev_hash = record.hash
    return ChainReport(True)


def _reference_write_ledger(ledger, target):
    """Write one canonical line per record, streaming."""
    lines = (
        f"{_line(r.counting_point_key, r.hash, r.payload_json, r.prev_hash, iso)}\n"
        for r, iso in _reference_with_iso(ledger)
    )
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(lines)
    else:
        target.writelines(lines)


def _written(write, ledger):
    buf = io.StringIO()
    write(ledger, buf)
    return buf.getvalue()


def _appended(ledger, payload, key, timestamp):
    """The new head hash, or the error append raised."""
    try:
        result = ledger.append(payload, key, timestamp)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", result if isinstance(result, str) else result.hash


# a head hash that needs escaping, as a log read from anywhere may end in
_FORGED = _record("pv1", slot_ts(0), {"energy_wh": 5}, GENESIS_HASH, 'h"\\é\n\U0001f600')


@given(
    entries=st.lists(
        st.tuples(
            _awkward_text | st.sampled_from(["pv1", "b1", "KOR"]),
            st.dictionaries(_awkward_text, _json_trees, max_size=5),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=6,
    ),
    forged=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_line_ledger_agrees_with_the_record_ledger(entries, forged, data):
    """Appending, writing and verifying give the bytes, hashes, errors and
    reports of the record-based reference, on the intact log and with any
    one record replaced."""
    seed = [_FORGED] if forged else []
    ledger, reference = _reread(seed), _ReferenceLedger(seed)
    stamps = [slot_ts(k) for k in range(4)]
    for key, payload, k in entries:
        # timestamps may regress, so both must refuse the same appends
        assert _appended(ledger, payload, key, stamps[k]) == _appended(reference, payload, key, stamps[k])
        assert ledger.head_hash == reference.head_hash
        assert len(ledger) == len(reference)
    assert _written(write_ledger, ledger) == _written(_reference_write_ledger, reference)
    assert list(ledger) == list(reference)
    assert verify_chain(ledger) == _reference_verify_chain(reference)

    records = list(reference)
    if not records:
        return
    i = data.draw(st.integers(0, len(records) - 1))
    field, value = data.draw(st.one_of(
        st.tuples(st.just("payload"), st.dictionaries(_awkward_text, _json_trees, max_size=3)),
        st.tuples(st.just("counting_point_key"), _awkward_text),
        st.tuples(st.just("timestamp"), _timestamps),
        st.tuples(st.just("prev_hash"), _hash_text),
        st.tuples(st.just("hash"), _hash_text),
    ))
    r = dataclasses.replace(records[i], **{field: value})
    records[i] = _record(r.counting_point_key, r.timestamp, r.payload, r.prev_hash, r.hash)
    text = _written(_reference_write_ledger, records)
    reread = read_ledger(io.StringIO(text, newline="\n"))
    expected = _reference_verify_chain(list(_reference_parse_lines(io.StringIO(text, newline="\n"))))
    assert verify_chain(reread) == expected == _reference_verify_chain(records)


def _small_log() -> bytes:
    ledger = build_ledger(3)
    stamp = slot_ts(2, DAY)
    ledger.append({"kind": "consumption", "energy_wh": 7}, "b1", stamp)
    ledger.append(
        {"policy": "static", "self_consumed_wh": {"b1": 7}, "surplus_wh": 95, "coefficients": {"b1": "1.0"}},
        "KOR",
        stamp,
    )
    return _written(write_ledger, ledger).encode("utf-8")


_SMALL_LOG = _small_log()


def _read_and_verified(read):
    try:
        return "report", verify_chain(read())
    except ValueError as exc:
        return "error", str(exc)


@given(
    at=st.integers(0, len(_SMALL_LOG) - 1),
    # mostly ASCII; a few bytes that are not UTF-8 on their own
    byte=st.integers(0, 127) | st.sampled_from([0x80, 0xE9, 0xFF]),
)
@settings(max_examples=500, deadline=None)
def test_single_byte_mutation_reads_and_verifies_as_the_reference(at, byte, tmp_path_factory):
    """Any one byte of a small log replaced: read_ledger raises the error,
    or verify_chain gives the report, of the reference reader and
    verifier."""
    raw = _SMALL_LOG[:at] + bytes([byte]) + _SMALL_LOG[at + 1:]
    path = tmp_path_factory.getbasetemp() / "mutated.log"
    path.write_bytes(raw)
    outcome = _read_and_verified(lambda: read_ledger(path))
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        assert outcome[0] == "error" and "malformed record ('utf-8' codec" in outcome[1]
        return
    try:
        records = list(_reference_parse_lines(io.StringIO(text, newline="\n")))
    except ValueError as exc:
        expected = "error", str(exc)
    else:
        expected = "report", _reference_verify_chain(records)
    assert outcome == expected
    assert _read_and_verified(lambda: read_ledger(io.StringIO(text, newline="\n"))) == expected
