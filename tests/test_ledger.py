"""Hash chain behaviour and tamper detection."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal
from enum import IntEnum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cscshare import ledger as ledger_mod
from cscshare.ledger import (
    GENESIS_HASH,
    ChainReport,
    Ledger,
    PayloadTemplate,
    read_ledger,
    verify_chain,
    write_ledger,
)

from cscshare.model import parse_timestamp

from datetime import datetime, timedelta, timezone

from conftest import DAY, slot_ts


def build_ledger(n=10, ledger=None):
    """Records 0 to n - 1 of one production meter, appended to ``ledger``
    (a new one by default) after the records it holds."""
    ledger = Ledger() if ledger is None else ledger
    for k in range(len(ledger), n):
        ledger.append(
            {"kind": "production", "energy_wh": 100 + k},
            counting_point_key="pv1",
            timestamp=slot_ts(k % 48, DAY + timedelta(days=k // 48)),
        )
    return ledger


@dataclasses.dataclass(frozen=True)
class _Record:
    """One chained record as the reference reader and writer see it;
    ``payload_json`` is the payload's canonical text."""

    counting_point_key: str
    timestamp: datetime
    payload: dict
    prev_hash: str
    hash: str
    payload_json: str = dataclasses.field(repr=False, kw_only=True)


def _record(key, timestamp, payload, prev_hash, hash_):
    """A record with any field values, as a log line may hold it."""
    return _Record(
        key, timestamp, payload, prev_hash, hash_, payload_json=_reference_canonical(payload)
    )


def _records_of(ledger):
    """The records of the lines a ledger writes, those appended to it, as
    the reference reader parses them."""
    return list(_reference_parse_lines(io.StringIO(_written(write_ledger, ledger), newline="\n")))


def _reread(records):
    """The ledger read back from the lines the reference writer renders."""
    return read_ledger(_utf8(_written(_reference_write_ledger, records)))


def _utf8(text):
    """The binary stream of a log text's UTF-8 bytes, as read_ledger reads it."""
    return io.BytesIO(text.encode("utf-8"))


def _chain_state(ledger):
    return ledger.head_hash, len(ledger), verify_chain(ledger)


def _ended(text):
    """A log's text ending in a newline, as a segment continues it."""
    return text if not text or text.endswith("\n") else f"{text}\n"


def _assert_continues(seed, segment, ledger, whole):
    """``seed``, a log, followed by ``segment``, the lines ``ledger``
    appended after reading it, is the text ``whole``, which reads back
    with the head, count and report ``ledger`` holds."""
    assert seed + segment == whole
    assert _chain_state(read_ledger(_utf8(whole))) == _chain_state(ledger)


class TestAppend:
    def test_genesis_prev_hash_is_zero(self):
        ledger = Ledger()
        hash_ = ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        record = _records_of(ledger)[-1]
        assert record.hash == hash_ == ledger.head_hash
        assert record.prev_hash == GENESIS_HASH

    def test_chain_links(self):
        ledger = Ledger()
        ledger.append({"energy_wh": 5}, "pv1", slot_ts(0))
        ledger.append({"energy_wh": 6}, "pv1", slot_ts(1))
        first, second = _records_of(ledger)
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
        record = _records_of(ledger)[-1]
        assert record.hash == hash_ == ledger.head_hash
        assert record.prev_hash == forged.hash
        iso = slot_ts(1).isoformat()
        assert record.hash == _reference_hash("pv1", iso, {"energy_wh": 6}, forged.hash)
        last_line = _written(write_ledger, ledger).split("\n")[-2]
        assert last_line == _reference_line("pv1", iso, {"energy_wh": 6}, forged.hash, record.hash)
        # verify_chain stops at the forged head, so the new record's link
        # and hash are checked as it would check them
        report = verify_chain(ledger)
        assert (report.first_break, report.message) == (0, "hash mismatch at record 0")
        out = tmp_path / "segment.log"
        write_ledger(ledger, out)
        _assert_continues(
            path.read_text(encoding="utf-8"), out.read_text(encoding="utf-8"), ledger,
            _written(_reference_write_ledger, [forged, record]),
        )


class TestVerify:
    def test_intact_chain(self):
        assert verify_chain(build_ledger(100)).intact

    def test_empty_chain_is_intact(self):
        assert verify_chain(Ledger()).intact

    def test_payload_tamper_detected_at_index(self):
        records = _records_of(build_ledger(100))
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
        records = _records_of(build_ledger(10))[:-1]
        assert verify_chain(_reread(records)).intact

    def test_dropping_a_middle_record_detected(self):
        records = _records_of(build_ledger(10))
        del records[4]
        report = verify_chain(_reread(records))
        assert not report.intact
        assert report.first_break == 4


class TestSerialization:
    def test_continuation_is_byte_identical(self, tmp_path):
        """A log read back, appended to and written gives the segment that
        continues it: the log and the segment are the bytes of one ledger
        that made every append."""
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(25), path)
        ledger = build_ledger(40, read_ledger(path))
        out = tmp_path / "segment.log"
        write_ledger(ledger, out)
        whole = build_ledger(40)
        _assert_continues(
            path.read_text(encoding="utf-8"), out.read_text(encoding="utf-8"), ledger,
            _written(write_ledger, whole),
        )
        assert _chain_state(ledger) == _chain_state(whole)
        assert verify_chain(ledger).intact

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_ledger(path)

    def test_read_from_stream(self):
        buf = io.BytesIO()
        write_ledger(build_ledger(5), buf)
        buf.seek(0)
        ledger = build_ledger(8, read_ledger(buf))
        whole = build_ledger(8)
        _assert_continues(
            buf.getvalue().decode("utf-8"), _written(write_ledger, ledger), ledger, _written(write_ledger, whole)
        )
        assert _chain_state(ledger) == _chain_state(whole)

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_a_just_read_ledger_writes_no_line(self, tmp_path, source):
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(5), path)
        if source == "path":
            ledger = read_ledger(path)
        else:
            with open(path, "rb") as stream:
                ledger = read_ledger(stream)
        assert _chain_state(ledger) == _chain_state(build_ledger(5))
        assert _written(write_ledger, ledger) == ""
        out = tmp_path / "segment.log"
        write_ledger(ledger, out)
        assert out.read_bytes() == b""

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



class TestLogFiles:
    """A ledger streamed into a file writes the bytes a ledger in memory
    writes, and one read from a file writes the segment that continues
    it."""

    def test_streamed_ledger_writes_the_bytes_of_one_in_memory(self, tmp_path):
        # ~150 kB of lines, many times the file object's buffer
        n = 517
        path = tmp_path / "audit.log"
        with Ledger(path) as streamed:
            build_ledger(n, streamed)
            assert (len(streamed), streamed.head_hash) == (n, build_ledger(n).head_hash)
            with pytest.raises(ValueError, match="written only to that file"):
                write_ledger(streamed, tmp_path / "other.log")
            write_ledger(streamed, path)
        assert path.read_text(encoding="utf-8") == _written(write_ledger, build_ledger(n))
        assert not (tmp_path / "other.log").exists()
        with pytest.raises(ValueError, match="closed file"):
            build_ledger(n + 1, streamed)
        assert len(streamed) == n
        with pytest.raises(FileExistsError):
            Ledger(path)

    @pytest.mark.parametrize("target", ["other file", "stream", "same file"])
    @pytest.mark.parametrize("ended", [True, False], ids=["ended", "last-line-unended"])
    def test_read_append_write_gives_the_segment(self, tmp_path, target, ended):
        """The segment is the in-memory log's lines after the seed's. A seed
        whose last line lacks its newline reads the same, but its ledger
        refuses to append, naming the file, and writes nothing; with the
        newline added it gives the same segment. Written over the file
        read, the segment is a FileExistsError, and the file is left byte
        for byte as it was rather than replaced by the segment."""
        expected = _written(write_ledger, build_ledger(40))
        text = _written(write_ledger, build_ledger(30))
        seed = text.encode("utf-8")
        path = tmp_path / "audit.log"
        if not ended:
            path.write_bytes(seed[:-1])
            unended = read_ledger(path)
            message = f"ledger {path} does not end in a newline: a log must end in a newline to be continued"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build_ledger(40, unended)
            assert _chain_state(unended) == _chain_state(build_ledger(30))
            assert _written(write_ledger, unended) == ""
            path.unlink()
        path.write_bytes(seed)
        ledger = build_ledger(40, read_ledger(path))
        assert _chain_state(ledger) == _chain_state(build_ledger(40))
        if target == "same file":
            with pytest.raises(FileExistsError):
                write_ledger(ledger, path)
            assert path.read_bytes() == seed
            return
        if target == "stream":
            segment = _written(write_ledger, ledger)
        else:
            out = tmp_path / "out.log"
            write_ledger(ledger, out)
            segment = out.read_text(encoding="utf-8")
        _assert_continues(text, segment, ledger, expected)
        # a second write gives the same segment
        assert _written(write_ledger, ledger) == segment
        assert path.read_bytes() == seed

    @pytest.mark.parametrize("target", ["other file", "stream", "same file"])
    def test_log_edited_after_the_read_fails_with_its_segment(self, tmp_path, target):
        """The segment holds only the appended lines, so it copies no edit
        made to the log after the read: the edited log followed by the
        segment reads with a hash mismatch at the edited record. Writing
        over the log itself is refused and leaves the edit in place."""
        path = tmp_path / "audit.log"
        write_ledger(build_ledger(30), path)
        ledger = build_ledger(31, read_ledger(path))
        raw = path.read_bytes()
        edited = raw.replace(b'"energy_wh":117', b'"energy_wh":118', 1)
        assert len(edited) == len(raw) and edited != raw
        path.write_bytes(edited)
        if target == "same file":
            with pytest.raises(FileExistsError):
                write_ledger(ledger, path)
            assert path.read_bytes() == edited
            return
        if target == "stream":
            segment = _written(write_ledger, ledger).encode("utf-8")
        else:
            out = tmp_path / "out.log"
            write_ledger(ledger, out)
            segment = out.read_bytes()
        assert raw + segment == _written(write_ledger, build_ledger(31)).encode("utf-8")
        continued = tmp_path / "continued.log"
        continued.write_bytes(edited + segment)
        assert verify_chain(read_ledger(continued)) == ChainReport(False, 17, "hash mismatch at record 17")

    @pytest.mark.parametrize("budget, checks", [(None, 3), (80, 60)])
    def test_checked_payload_texts_start_over_past_their_budget(self, tmp_path, monkeypatch, budget, checks):
        """Three payload texts of 38 bytes, all of one shape, take turns.
        Each is checked once under the default budget; under 80 bytes the
        set starts over at every third new text, and every line is
        checked. Only the first text is decoded: the other two, and every
        later check, match the template learned from it. The read is the
        same."""
        ledger = Ledger()
        for k in range(60):
            ledger.append({"kind": "production", "energy_wh": 100 + k % 3}, "pv1", slot_ts(k % 48, DAY + timedelta(days=k // 48)))
        path = tmp_path / "audit.log"
        write_ledger(ledger, path)
        if budget is not None:
            monkeypatch.setattr(ledger_mod, "_CHECKED_PAYLOAD_BYTES", budget)
        checked, decoded = [], []
        check, decode = ledger_mod._Checked.payload, ledger_mod._decode
        monkeypatch.setattr(ledger_mod._Checked, "payload", lambda self, text: checked.append(text) or check(self, text))
        monkeypatch.setattr(ledger_mod, "_decode", lambda text: decoded.append(text) or decode(text))
        reread = read_ledger(path)
        assert len(checked) == checks
        assert [text for text in decoded if text in checked] == ['{"energy_wh":100,"kind":"production"}']
        assert (len(reread), reread.head_hash, verify_chain(reread)) == (60, ledger.head_hash, ChainReport(True))


@given(
    n=st.integers(1, 30),
    victim=st.data(),
)
@settings(max_examples=50)
def test_any_field_mutation_is_detected(n, victim):
    records = _records_of(build_ledger(n))
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


def _render_line(key, hash_, payload_json, prev_hash, timestamp_iso):
    """A record's line, with no newline, from its four string fields and
    its payload text: json.dumps quotes each string, and the fields come
    in sorted key order. A field that is not a string is a TypeError, as
    it is when the ledger quotes one."""
    for value in (key, hash_, prev_hash, timestamp_iso):
        if not isinstance(value, str):
            raise TypeError(f"first argument must be a string, not {type(value).__name__}")
    return (
        f'{{"counting_point_key":{json.dumps(key)},"hash":{json.dumps(hash_)},'
        f'"payload":{payload_json},"prev_hash":{json.dumps(prev_hash)},'
        f'"timestamp":{json.dumps(timestamp_iso)}}}'
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
        record = _records_of(ledger)[-1]
        assert record.hash == hash_ == ledger.head_hash
        iso = timestamp.isoformat()
        assert record.hash == _reference_hash(key, iso, payload, record.prev_hash)
        line = _written(write_ledger, ledger).split("\n")[-2]
        assert line == _reference_line(key, iso, payload, record.prev_hash, record.hash)
        direct.append(_record(key, timestamp, payload, record.prev_hash, record.hash))
    whole = _written(_reference_write_ledger, direct)
    assert whole == _written(write_ledger, ledger)
    # the log of the first half, read and continued with the rest
    cut = len(entries) // 2
    seed = _written(_reference_write_ledger, direct[:cut])
    continued = read_ledger(_utf8(seed))
    for key, payload in entries[cut:]:
        continued.append(payload, key, timestamp)
    _assert_continues(seed, _written(write_ledger, continued), continued, whole)
    assert _chain_state(continued) == _chain_state(ledger)
    assert verify_chain(continued).intact


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
    canonical = _render_line(
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
    return _Record(
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


def _outcome(read, text_of):
    """('ok', (log text, head hash, record count)) or ('error', message)
    of one read; ``text_of`` gives the text of the log the ledger read
    holds. An accepted log is its canonical lines, so equal texts are
    equal record fields."""
    try:
        ledger = read()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (text_of(ledger), ledger.head_hash, len(ledger))


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
    """read_ledger accepts exactly the lines the reference accepts, and
    rejects the others with the same line number and message, reading
    from a file or from a binary stream. An accepted text, ended in a
    newline and followed by the segment the just-read ledger writes, is
    the reference writer's bytes of its records, so nothing is rewritten,
    and the head hash and count are the reference's."""
    path = tmp_path_factory.getbasetemp() / "differential.log"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return  # a lone surrogate: not UTF-8, the reference cannot read it
    expected = _outcome(
        lambda: _ReferenceLedger(_reference_parse_lines(io.StringIO(text, newline="\n"))),
        lambda reference: _written(_reference_write_ledger, reference),
    )

    def continued(ledger):
        return _ended(text) + _written(write_ledger, ledger)

    assert _outcome(lambda: read_ledger(path), continued) == expected
    assert _outcome(lambda: read_ledger(_utf8(text)), continued) == expected


def test_crlf_log_rejected_from_a_path_and_a_binary_stream(tmp_path):
    """A "\\r\\n" line end is not canonical: a log holding one is refused
    at that line, from its path and from a binary stream alike. A text
    stream, which could translate it to "\\n" first, is not read."""
    path = tmp_path / "audit.log"
    write_ledger(build_ledger(2), path)
    crlf = tmp_path / "crlf.log"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    mixed = tmp_path / "mixed.log"
    mixed.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    for log in (crlf, mixed):
        with pytest.raises(ValueError, match=r"^ledger line 1: malformed record"):
            read_ledger(log)
        with open(log, "rb") as stream, pytest.raises(ValueError, match=r"^ledger line 1: malformed record"):
            read_ledger(stream)
        with open(log, encoding="utf-8") as stream, pytest.raises(TypeError):
            read_ledger(stream)
    with open(path, "rb") as stream:
        assert verify_chain(read_ledger(stream)).intact


def test_a_text_stream_is_a_type_error_before_anything_is_read_or_written(tmp_path):
    """read_ledger reads nothing of a text stream and write_ledger writes
    nothing to one, a file opened "w" or an io.StringIO."""
    path = tmp_path / "audit.log"
    write_ledger(build_ledger(2), path)
    with open(path, encoding="utf-8") as opened:
        for stream in (opened, io.StringIO(path.read_text(encoding="utf-8"))):
            with pytest.raises(TypeError, match="^read_ledger reads a path or a binary stream"):
                read_ledger(stream)
            assert stream.tell() == 0
    out = tmp_path / "text.log"
    with open(out, "w", encoding="utf-8") as opened:
        for stream in (opened, io.StringIO()):
            with pytest.raises(TypeError):
                write_ledger(build_ledger(2), stream)
            assert stream.tell() == 0
    assert out.read_bytes() == b""


# Reference writer and verifier: the record-based Ledger.append,
# write_ledger and verify_chain from before a Ledger held its lines, kept
# verbatim but for the names of the module helpers they call; the lines
# are rendered by the test-local _render_line.
_quote, _encode, _check_payload = ledger_mod._quote, ledger_mod._encode, ledger_mod._check_payload


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
        _check_payload(payload)
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
        record = _Record(
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
        f"{_render_line(r.counting_point_key, r.hash, r.payload_json, r.prev_hash, iso)}\n"
        for r, iso in _reference_with_iso(ledger)
    )
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(lines)
    else:
        target.writelines(lines)


def _written(write, ledger):
    """The text of the lines ``write`` writes: write_ledger writes UTF-8
    bytes to a binary stream, the reference writer text to a text stream."""
    if write is _reference_write_ledger:
        buf = io.StringIO()
        write(ledger, buf)
        return buf.getvalue()
    buf = io.BytesIO()
    write(ledger, buf)
    return buf.getvalue().decode("utf-8")


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
    one record replaced. The seed log followed by the segment the ledger
    writes is the reference's log."""
    seed = [_FORGED] if forged else []
    ledger, reference = _reread(seed), _ReferenceLedger(seed)
    assert ledger.head_hash == reference.head_hash
    stamps = [slot_ts(k) for k in range(4)]
    for key, payload, k in entries:
        # timestamps may regress, so both must refuse the same appends
        assert _appended(ledger, payload, key, stamps[k]) == _appended(reference, payload, key, stamps[k])
        assert ledger.head_hash == reference.head_hash
        assert len(ledger) == len(reference)
    whole = _written(_reference_write_ledger, reference)
    _assert_continues(_written(_reference_write_ledger, seed), _written(write_ledger, ledger), ledger, whole)
    assert list(_reference_parse_lines(io.StringIO(whole, newline="\n"))) == list(reference)
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
    reread = read_ledger(_utf8(text))
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
    assert _read_and_verified(lambda: read_ledger(_utf8(text))) == expected


@given(
    text=_mutated_logs(),
    appended=st.lists(
        st.tuples(_tricky_text, st.dictionaries(_awkward_text, _json_trees, max_size=3)),
        max_size=3,
    ),
)
@settings(max_examples=300, deadline=None)
def test_report_survives_appends_and_a_continuation(text, appended):
    """The report a Ledger keeps from reading a tampered log is the
    reference verifier's report on its lines, after appends, and on the
    log followed by the segment the ledger writes, read back. A log whose
    last line lacks its newline refuses the first append, and is
    continued once the newline is added."""
    try:
        expected = _reference_verify_chain(
            list(_reference_parse_lines(io.StringIO(text, newline="\n")))
        )
    except ValueError:
        return  # not a log; test_reader_agrees_with_the_reference_reader
    ledger = read_ledger(_utf8(text))
    assert verify_chain(ledger) == expected
    if text != _ended(text):
        for key, payload in appended[:1]:
            with pytest.raises(ValueError, match="^the ledger read does not end in a newline: "):
                ledger.append(payload, key, slot_ts(0, DAY + timedelta(days=2)))
        ledger = read_ledger(_utf8(_ended(text)))
        assert verify_chain(ledger) == expected
    # a day later than any timestamp the log may hold, in any of its offsets
    day = DAY + timedelta(days=2)
    for k, (key, payload) in enumerate(appended):
        ledger.append(payload, key, slot_ts(k, day))
        assert verify_chain(ledger) == expected
    continued = _ended(text) + _written(write_ledger, ledger)
    fresh = _reference_verify_chain(list(_reference_parse_lines(io.StringIO(continued, newline="\n"))))
    assert _chain_state(read_ledger(_utf8(continued))) == _chain_state(ledger)
    assert verify_chain(ledger) == expected == fresh


# A payload shape: constant str, bool, None and int fields and integer
# fields (int), flat or holding one nested object of the same. Its texts
# may hold what a %-format or str.format would read as a placeholder.
_shape_text = _awkward_text | st.text(st.sampled_from('%d{}"\\a'))
_shape_members = st.dictionaries(
    _shape_text,
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _shape_text | st.just(int),
    max_size=5,
)


@st.composite
def _shapes(draw):
    shape = draw(_shape_members)
    if draw(st.booleans()):
        shape[draw(_shape_text)] = draw(_shape_members)
    return shape


def _filled(shape, values):
    """The payload of one row: ``shape`` with its int fields taken from
    ``values`` in the shape's own order."""
    return {
        key: next(values) if value is int else _filled(value, values) if isinstance(value, dict) else value
        for key, value in shape.items()
    }


def _int_fields(shape, path=("payload",)):
    """The dotted path of each int field of ``shape``, in its own order."""
    for key, value in shape.items():
        if value is int:
            yield ".".join((*path, key))
        elif isinstance(value, dict):
            yield from _int_fields(value, (*path, key))


class _Wh(IntEnum):
    SEVEN = 7


def _appending(payloads):
    """The log after appending each payload, up to the first error, and
    that error's text."""
    ledger = Ledger()
    try:
        for payload in payloads:
            ledger.append(payload, "KOR", slot_ts(0))
    except ValueError as exc:
        return _written(write_ledger, ledger), str(exc)
    return _written(write_ledger, ledger), None


@given(
    shape=_shapes(),
    rows=st.integers(0, 5),
    data=st.data(),
    odd=st.none() | st.sampled_from([True, False, 2.5, float("nan"), _Wh.SEVEN]),
)
@settings(max_examples=300, deadline=None)
def test_template_renders_what_append_encodes(shape, rows, data, odd):
    """Each rendered text is _encode (and json.dumps) of the row's payload,
    and appending the texts gives the log appending the payloads gives.
    A bool, a float or an int subclass in a column is a ValueError naming
    that column's field."""
    value = st.just(0) | st.integers(0, 10**6) | st.integers(2**64, 2**70) | st.integers(-(2**70), 0)
    fields = list(_int_fields(shape))
    columns = [data.draw(st.lists(value, min_size=rows, max_size=rows)) for _ in fields]
    template = PayloadTemplate(shape)
    if odd is not None and columns and rows:
        k = data.draw(st.integers(0, len(columns) - 1))
        columns[k][data.draw(st.integers(0, rows - 1))] = odd
        message = f"column {k} ({fields[k]}): {type(odd).__name__} is not a plain int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            template.render(*columns)
        return
    payloads = [_filled(shape, iter(row)) for row in zip(*columns)]
    outcome = _appending(template.render(*columns))
    assert outcome == _appending(payloads)
    assert outcome[1] is None
    expected = [ledger_mod._encode(p) for p in payloads]
    assert list(template.render(*columns)) == expected
    assert expected == [_reference_canonical(p) for p in payloads]
    match = template.matcher()
    assert all(match(text) for text in expected)


@pytest.mark.parametrize(
    "shape, columns, message",
    [
        ({"x": 1.5, "n": int}, (), r"^payload\.x: float is not canonically serializable"),
        ({"n": int, 2: "a"}, (), r"^payload: non-string key 2$"),
        ({"ids": [int]}, (), r"^payload\.ids\[0\]: type is not canonically serializable"),
        ({"n": int, "m": {"k": int}}, [(1, 2)], r"^2 integer fields, 1 columns$"),
    ],
    ids=["float-constant", "int-key", "field-in-a-list", "column-count"],
)
def test_template_refuses_what_append_refuses(shape, columns, message):
    with pytest.raises(ValueError, match=message):
        PayloadTemplate(shape).render(*columns)


# Template checks: a read matches a payload text against the templates of
# the shapes it has checked before it decodes the text. A text that only
# looks like such a shape must read as the reference reads it.

# The value of the int field a mutation rewrites, found by its text
_MARK = 31415926535
_DIGITS = getattr(sys, "get_int_max_str_digits", int)() or 4300
_INT_FORMS = {
    "leading-zero": "017", "minus-zero": "-0", "plus": "+1", "minus-leading-zero": "-07",
    "zeros": "00", "fraction": "1.0", "exponent": "1e2", "upper-exponent": "1E2",
    "minus-fraction": "-1.5", "space-before": " 1", "space-after": "1 ", "tab": "\t1",
    "true": "true", "false": "false", "null": "null", "string": '"1"', "list": "[1]",
    "zero": "0", "minus": "-1", "wide": str(2**70), "most-digits": "9" * _DIGITS,
    "minus-most-digits": "-" + "9" * _DIGITS, "a-digit-too-many": "1" * (_DIGITS + 1),
    "minus-a-digit-too-many": "-" + "1" * (_DIGITS + 1),
}


_TEXT_EDITS = ["reorder", "duplicate", "escape", "raw", "percent", "digit", "space"]


@st.composite
def _template_logs(draw, edit):
    """A log of six records of one payload shape, the 3rd and 6th mutated
    alike by ``edit``, chained so that only the canonical check can refuse
    a line; and the four canonical payload texts. ``edit`` is one of
    ``_TEXT_EDITS`` or names, in ``_INT_FORMS``, the text an int field
    takes. The shape has nested objects at times, and a list of ints
    among its constants."""
    shape = draw(_shapes())
    if draw(st.booleans()):
        shape[draw(_shape_text)] = draw(st.lists(st.integers(-20, 20), max_size=3))
    if not list(_int_fields(shape)):
        shape[draw(_shape_text)] = int
    fields = len(list(_int_fields(shape)))
    value = st.integers(0, 9) | st.integers(-(2**70), 2**70)
    rows = [draw(st.lists(value, min_size=fields, max_size=fields)) for _ in range(5)]
    rows[2][draw(st.integers(0, fields - 1))] = _MARK
    canonical = [_reference_canonical(_filled(shape, iter(row))) for row in rows]
    text = canonical.pop(2)
    assume(text.count(str(_MARK)) == 1)
    if edit in _INT_FORMS:
        mutated = text.replace(str(_MARK), _INT_FORMS[edit])
    elif edit in ("reorder", "duplicate"):
        items = list(json.loads(text).items())
        items = items[::-1] if edit == "reorder" else items + items[:1]
        mutated = "{" + ",".join(f"{_quote(k)}:{_reference_canonical(v)}" for k, v in items) + "}"
    elif edit == "escape":
        # one character, written as a \u escape
        j = draw(st.integers(0, len(text) - 1))
        mutated = text[:j] + "\\u%04x" % ord(text[j]) + text[j + 1:]
    elif edit == "raw":
        # a \u escape, written as its character
        escapes = [m for m in re.finditer(r"\\u([0-9a-f]{4})", text) if not 0xD800 <= int(m[1], 16) < 0xE000]
        assume(escapes)
        m = draw(st.sampled_from(escapes))
        mutated = text[:m.start()] + chr(int(m[1], 16)) + text[m.end():]
    elif edit == "percent":
        assume("%" in text)
        mutated = text.replace(draw(st.sampled_from(["%d", "%%", "%"])), draw(st.sampled_from(["5", "%", "%d", ""])), 1)
    elif edit == "digit":
        digits = [j for j, c in enumerate(text) if c.isdigit()]
        j = draw(st.sampled_from(digits))
        mutated = text[:j] + draw(st.sampled_from("0123456789")) + text[j + 1:]
    else:
        j = draw(st.integers(0, len(text)))
        mutated = text[:j] + draw(st.sampled_from([" ", "\t", "\n", "\r"])) + text[j:]
    return _chained([*canonical[:2], mutated, *canonical[2:], mutated]), canonical


def _chained(payloads):
    """The log of one record per payload text, each linked to the one
    before and hashed over its own text, one slot apart."""
    lines, prev = [], GENESIS_HASH
    for k, payload in enumerate(payloads):
        iso = slot_ts(k).isoformat()
        hash_ = _reference_record_hash(_quote("KOR"), _quote(iso), payload, prev)
        lines.append(f"{_render_line('KOR', hash_, payload, prev, iso)}\n")
        prev = hash_
    return "".join(lines)


def _reference_read(text):
    """('ok', (head hash, count, chain report)) or ('error', message) of
    the reference reader and verifier."""
    try:
        records = list(_reference_parse_lines(io.StringIO(text, newline="\n")))
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (records[-1].hash if records else GENESIS_HASH, len(records), _reference_verify_chain(records))


@pytest.mark.parametrize("edit", [*_TEXT_EDITS, *_INT_FORMS])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_template_check_reads_as_the_reference(edit, data, tmp_path_factory):
    """A payload text mutated after two texts of its shape, with a leading
    zero, a sign, a fraction or exponent, whitespace, a bool, an int of
    the most digits an int may have or one more, keys reordered or
    repeated, an escape added or removed, a %-sequence or any digit
    changed, reads as the reference reads it, serially and in forked
    ranges alike. The serial read decodes only the first canonical text:
    each later one matches its template."""
    text, canonical = data.draw(_template_logs(edit))
    path = tmp_path_factory.getbasetemp() / "template.log"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_read(text)
    decoded, decode = [], ledger_mod._decode
    with mock.patch.object(ledger_mod, "_RANGED_BYTES", float("inf")), \
            mock.patch.object(ledger_mod, "_decode", lambda text: decoded.append(text) or decode(text)):
        serial = _read_state(lambda: read_ledger(path))
    assert [t for t in decoded if t in canonical] == canonical[:1]
    with mock.patch.object(ledger_mod, "_RANGED_BYTES", 0), \
            mock.patch.object(ledger_mod.os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        ranged = _read_state(lambda: read_ledger(path))
    assert ranged == serial
    outcome, state = serial
    assert (outcome, state if outcome == "error" else state[:3]) == expected


@pytest.mark.parametrize("new_shapes", [True, False])
def test_templates_that_keep_missing_are_dropped(monkeypatch, new_shapes):
    """Where every payload has a new shape, a read learns ``_SHAPES``
    templates, each tried on the texts after it, and once they have
    missed ``_SHAPES`` more texts than they matched it learns and tries
    none. Where the payloads share one shape, one template matches every
    text after the first."""
    ledger = Ledger()
    for k in range(100):
        payload = {"energy_wh": k, "kind": "production"}
        if new_shapes:
            payload["note"] = f"n{k}"
        ledger.append(payload, "pv1", slot_ts(k % 48, DAY + timedelta(days=k // 48)))
    text = _written(write_ledger, ledger)
    learned, tried = [], []
    matcher = PayloadTemplate.matcher

    def counted(template):
        match = matcher(template)
        learned.append(match)
        return lambda text: tried.append(text) or match(text)

    monkeypatch.setattr(PayloadTemplate, "matcher", counted)
    reread = read_ledger(_utf8(text))
    assert (len(reread), reread.head_hash, verify_chain(reread)) == (100, ledger.head_hash, ChainReport(True))
    shapes = ledger_mod._SHAPES
    if new_shapes:
        assert (len(learned), len(tried)) == (shapes, shapes * (shapes + 1) // 2)
    else:
        assert (len(learned), len(tried)) == (1, 99)


def test_a_payload_too_deep_to_template_reads_as_the_reference():
    """Payloads nested about as deep as the decoder takes, too deep for
    a template to be made of their shape where Python frames are few,
    read as the reference reads them."""
    text = _chained(['{"a":' * 900 + str(k) + "}" * 900 for k in range(3)])
    ledger = read_ledger(_utf8(text))
    assert ("ok", (ledger.head_hash, len(ledger), verify_chain(ledger))) == _reference_read(text)
    assert verify_chain(ledger).intact


# Ranged reads: a log file cut at line ends, each range walked on its own
# and the walks stitched, reads as the whole log walked at once.


def _read_state(read):
    """('ok', everything a read ledger holds) or ('error', message)."""
    try:
        ledger = read()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (ledger.head_hash, len(ledger), verify_chain(ledger), ledger._last_ts, ledger._unended)


def _flip(line, at, bit):
    """A line's byte ``at`` (of its text before the newline) with one bit flipped."""
    at %= max(len(line) - 1, 1)
    return line[:at] + bytes([line[at] ^ (1 << bit)]) + line[at + 1:]


@st.composite
def _faulted_logs(draw):
    """The lines of a log of a few keys, payloads and slots, with one or
    two faults, and the indices of the lines the faults touched."""
    ledger = Ledger()
    for k in range(draw(st.integers(2, 14))):
        ledger.append(
            {"kind": "production", "energy_wh": draw(st.integers(0, 2))},
            draw(st.sampled_from(["pv1", "b1", "KOR", "b\\é"])),
            slot_ts(k % 48, DAY + timedelta(days=k // 48)),
        )
    lines = list(io.BytesIO(_written(write_ledger, ledger).encode("utf-8")))
    touched = []
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["edit", "flip", "drop", "swap", "non-canonical", "not-utf8", "unended"]))
        if fault == "edit":
            # a canonical line still, whose hash is not its material's
            lines[i] = lines[i].replace(b'"energy_wh":', b'"energy_wh":7', 1)
        elif fault == "flip":
            lines[i] = _flip(lines[i], draw(st.integers(0, 400)), draw(st.integers(0, 6)))
        elif fault == "drop" and len(lines) > 1:
            del lines[i]
            i = min(i, len(lines) - 1)
        elif fault == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif fault == "non-canonical":
            lines[i] = lines[i].replace(b'"energy_wh":', b'"energy_wh": ', 1)
        elif fault == "not-utf8":
            at = draw(st.integers(0, len(lines[i]) - 2))
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at + 1:]
        elif fault == "unended":
            i = len(lines) - 1
            lines[i] = lines[i].rstrip(b"\n")
        touched.append(i)
    # a flipped bit may make a newline of another byte, or the other way round
    lines = list(io.BytesIO(b"".join(lines)))
    return lines, [min(i, len(lines) - 1) for i in touched]


@given(log=_faulted_logs(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_walks_of_any_ranges_stitch_to_the_serial_read(log, data, tmp_path_factory):
    """Cut at 1-7 line ends, at and next to the faulty lines among them,
    and walked range by range, a faulted log stitches to what the serial
    read gives: its count, head, first break, last timestamps and refusal
    to append, or its malformed line's number and message."""
    lines, touched = log
    path = tmp_path_factory.getbasetemp() / "ranged.log"
    path.write_bytes(b"".join(lines))
    near = sorted({j for i in touched for j in (i - 1, i, i + 1, i + 2) if 0 < j < len(lines)})
    candidates = list(range(1, len(lines)))
    cuts = set(data.draw(st.lists(st.sampled_from(near), max_size=3))) if near else set()
    if candidates:
        cuts |= set(data.draw(st.lists(st.sampled_from(candidates), max_size=7)))
    bounds = [0, *sorted(cuts)[:7], len(lines)]

    def ranged():
        walks = [ledger_mod._walk(iter(lines[a:b])) for a, b in zip(bounds, bounds[1:])]
        return ledger_mod._stitch(walks, f"ledger {path}")

    assert _read_state(ranged) == _read_state(lambda: read_ledger(path))


def _long_log(path, n=360):
    """Write a log of ``n`` records of three counting points into ``path``;
    return its lines."""
    with Ledger(path) as ledger:
        for k in range(n):
            stamp = slot_ts(k // 3 % 48, DAY + timedelta(days=k // 144))
            ledger.append({"kind": "production", "energy_wh": k}, ("pv1", "b1", "KOR")[k % 3], stamp)
        write_ledger(ledger, path)
    return path.read_bytes().splitlines(keepends=True)


def _assert_no_child_left():
    """This process has no child, running or exited and not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def ranged_on(monkeypatch):
    """Set reads of any log file to go in ranges on ``cores`` cores; return
    the cuts each read makes and the walks the calling process makes."""
    made = {"cuts": [], "walks": 0}

    def on(cores):
        monkeypatch.setattr(ledger_mod, "_RANGED_BYTES", 0)
        monkeypatch.setattr(ledger_mod.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        cuts, walk = ledger_mod._cuts, ledger_mod._walk

        def recorded_cuts(stream):
            made["cuts"].append(cuts(stream))
            return made["cuts"][-1]

        def counted_walk(lines):
            made["walks"] += 1  # a forked worker counts in its own copy
            return walk(lines)

        monkeypatch.setattr(ledger_mod, "_cuts", recorded_cuts)
        monkeypatch.setattr(ledger_mod, "_walk", counted_walk)
        return made

    return on


_LOG_FAULTS = {
    "intact": lambda lines: lines,
    "hash mismatch in the last range": lambda lines: [*lines[:-5], lines[-5].replace(b'"energy_wh":', b'"energy_wh":9', 1), *lines[-4:]],
    "line dropped": lambda lines: [*lines[:120], *lines[121:]],
    "malformed in a worker's range": lambda lines: [*lines[:300], b"{}\n", *lines[301:]],
    "not UTF-8 in the caller's range": lambda lines: [*lines[:7], b"\xff\n", *lines[8:]],
    "unended": lambda lines: [*lines[:-1], lines[-1].rstrip(b"\n")],
}


@pytest.mark.parametrize("cores", [2, 3, 4, 6])
@pytest.mark.parametrize("fault", list(_LOG_FAULTS))
def test_forked_workers_read_as_the_serial_read(tmp_path, ranged_on, cores, fault):
    """Cut into one range per core, up to four, and walked by the caller
    and a forked worker for each other range, a log reads as it does
    serially, through its file and, but for the name the refusal to
    append gives the log, through a binary stream. No worker is left."""
    path = tmp_path / "audit.log"
    path.write_bytes(b"".join(_LOG_FAULTS[fault](_long_log(path))))
    serial = _read_state(lambda: read_ledger(path))
    with open(path, "rb") as stream:
        streamed = _read_state(lambda: read_ledger(stream))
    made = ranged_on(cores)
    assert _read_state(lambda: read_ledger(path)) == serial
    assert made["cuts"][0][0] == 0 and len(made["cuts"][0]) == min(cores, 4) + 1
    assert made["walks"] == 1
    _assert_no_child_left()
    if serial[0] == "ok":
        name = f"ledger {path}"
        assert streamed[1][:4] == serial[1][:4]
        assert (streamed[1][4] or "").replace("the ledger read", name) == (serial[1][4] or "")
    else:
        assert streamed == serial


def test_a_worker_that_sends_no_walk_has_its_range_walked_by_the_caller(tmp_path, ranged_on, monkeypatch):
    """A worker that ends without sending its walk neither hangs the read
    nor passes its range unread: the caller walks it."""
    path = tmp_path / "audit.log"
    path.write_bytes(b"".join(_LOG_FAULTS["line dropped"](_long_log(path))))
    serial = _read_state(lambda: read_ledger(path))
    made = ranged_on(3)
    monkeypatch.setattr(ledger_mod, "_send_walk", lambda *args: None)
    assert _read_state(lambda: read_ledger(path)) == serial
    assert made["walks"] == 3
    _assert_no_child_left()


def test_a_log_replaced_during_the_read_is_read_whole_from_the_file_opened(tmp_path, ranged_on):
    """A worker opens the log again by its path; when the path names
    another file by then, the worker sends nothing, and the caller walks
    the range from the file it opened."""
    path = tmp_path / "audit.log"
    _long_log(path)
    serial = _read_state(lambda: read_ledger(path))
    other = tmp_path / "other.log"
    _long_log(other, 200)
    made = ranged_on(2)
    with open(path, "rb") as stream:
        os.replace(other, path)
        assert _read_state(lambda: ledger_mod._stitch(ledger_mod._file_walks(stream, path), f"ledger {path}")) == serial
    assert made["walks"] == 2
    _assert_no_child_left()


def test_a_malformed_line_in_the_callers_range_terminates_the_workers(tmp_path, ranged_on, monkeypatch):
    """The caller's range holds the earliest malformed line, so the read
    raises without waiting for its workers, still running: it kills and
    reaps them."""
    path = tmp_path / "audit.log"
    path.write_bytes(b"".join(_LOG_FAULTS["not UTF-8 in the caller's range"](_long_log(path))))
    serial = _read_state(lambda: read_ledger(path))
    ranged_on(3)
    monkeypatch.setattr(ledger_mod, "_send_walk", lambda *args: time.sleep(60))
    start = time.monotonic()
    assert _read_state(lambda: read_ledger(path)) == serial
    assert time.monotonic() - start < 30
    assert serial[1].startswith("ledger line 8: malformed record ('utf-8' codec")
    _assert_no_child_left()


def test_a_log_is_read_serially_where_a_fork_may_not_pay_or_be_safe(tmp_path, monkeypatch):
    """Below the size, on one core, with another thread running, or where
    there is no ``os.fork``, a log file is one range."""
    path = tmp_path / "audit.log"
    _long_log(path)
    size = path.stat().st_size

    def cuts():
        with open(path, "rb") as stream:
            return ledger_mod._cuts(stream)

    monkeypatch.setattr(ledger_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ledger_mod, "_RANGED_BYTES", size + 1)
    assert cuts() == [0, size]
    monkeypatch.setattr(ledger_mod, "_RANGED_BYTES", size)
    assert len(cuts()) == 3
    monkeypatch.setattr(ledger_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cuts() == [0, size]
    monkeypatch.setattr(ledger_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert cuts() == [0, size]
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert cuts() == [0, size]


def test_reading_a_small_log_imports_no_multiprocessing(tmp_path):
    """``multiprocessing`` costs the command line's start-up more than a
    small log's read, and its modules stay loaded: neither the CLI's
    import, nor a small log's read, nor a ranged read, nor a run whose
    report files a forked child writes loads it or ``pickle``, which its
    workers would send results through. The ranged read and the run
    both fork."""
    path = tmp_path / "audit.log"
    write_ledger(build_ledger(20), path)
    code = (
        "import os, sys; import cscshare.cli; loaded = ['multiprocessing' in sys.modules]; "
        "from cscshare.ledger import read_ledger; assert len(read_ledger(sys.argv[1])) == 20; "
        "loaded.append('multiprocessing' in sys.modules); "
        "from cscshare import ledger, runner, synth; forks = []; os.register_at_fork(before=lambda: forks.append(1)); "
        "os.sched_getaffinity = lambda pid: {0, 1}; ledger._RANGED_BYTES = runner._FORKED_REPORT_CELLS = 0; "
        "cscshare.cli.main(['audit-verify', sys.argv[1]], standalone_mode=False); "
        "synth.synthesize_demo_data('high_radiation', 7, sys.argv[2]); "
        "cscshare.cli.main(['run', '--config', sys.argv[2] + '/run_config.json'], standalone_mode=False); "
        "print(loaded, len(forks), [name in sys.modules for name in ('multiprocessing', 'pickle')])"
    )
    src = str(Path(ledger_mod.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path), str(tmp_path / "demo")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[False, False] 2 [False, False]"
