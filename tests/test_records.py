"""The record classes: what they compare, hash, refuse and show, and that
importing the command line generates no code for them.

Each test runs a fresh interpreter, so nothing the test session has
imported already plays a part. Run as a script, this file prints what
``_behaviour`` finds.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest

import cscshare
from cscshare import billing, ingestion, ledger, model, runner


def _run(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(cscshare.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout


# Counts the code compiled from text (filename "<string>") while the
# import runs, charged to the nearest module body on the stack when that
# is one of the package's modules.
_COUNT_COMPILES = """\
import sys

compiled = 0


def count(event, args):
    global compiled
    if event == "compile" and args[1] == "<string>":
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "<module>":
            frame = frame.f_back
        name = "" if frame is None else frame.f_globals.get("__name__", "")
        compiled += name == "cscshare" or name.startswith("cscshare.")


sys.addaudithook(count)
import cscshare.cli

print(compiled, "dataclasses" in sys.modules)
"""


def test_importing_the_cli_compiles_no_code_and_no_dataclasses():
    """No module of the package compiles code from text at import, as
    ``dataclasses`` did for every record class, and ``dataclasses`` is
    not loaded."""
    assert _run("-c", _COUNT_COMPILES) == "0 False\n"


T0 = datetime(2024, 6, 12, 7, 0, tzinfo=timezone(timedelta(hours=2)))
T1 = T0 + timedelta(minutes=30)
JUNE = model.DateRange(date(2024, 6, 1), date(2024, 7, 1))


def _cases() -> dict:
    """Class name -> (the fields it compares and shows, a function making
    a record, one making a record that differs in one field)."""
    kors = model.KorVector({"b1": 0.5, "b2": 0.5})
    scr = billing.ScrReport(5, 10)
    savings = billing.SavingsReport({"b1": Decimal("1")}, Decimal("0.5"), Decimal("1.5"))
    linky, wh = ingestion.MeterClass.LINKY, ingestion.QuantityKind.ENERGY_WH
    return {
        "DateRange": (
            ("start", "end"),
            lambda: model.DateRange(date(2024, 6, 1), date(2024, 7, 1)),
            lambda: model.DateRange(date(2024, 6, 1), date(2024, 8, 1)),
        ),
        "SlotSeries": (
            ("meter_id", "kind", "starts", "energies"),
            lambda: model.SlotSeries("m1", model.Kind.CONSUMPTION, [T0, T1], [1, 2]),
            lambda: model.SlotSeries("m1", model.Kind.CONSUMPTION, [T0, T1], [1, 3]),
        ),
        "Participant": (
            ("id", "tariff_eur_per_kwh", "grid_uplift_pct", "tax_uplift_pct"),
            lambda: model.Participant("b1", "0.2"),
            lambda: model.Participant("b1", "0.2", 5),
        ),
        "Community": (
            ("participants", "production_meter", "feed_in_eur_per_kwh"),
            lambda: model.Community([model.Participant("b1", "0.2")], "pv", "0.1"),
            lambda: model.Community([model.Participant("b1", "0.2")], "pv", "0.06"),
        ),
        "KorVector": (
            ("entries",),
            lambda: model.KorVector({"b1": 0.5, "b2": 0.5}),
            lambda: model.KorVector({"b1": 0.25, "b2": 0.75}),
        ),
        "StaticPolicy": (
            ("kors", "name"),
            lambda: model.StaticPolicy(kors),
            lambda: model.StaticPolicy(kors, "static33"),
        ),
        "DefaultDynamicPolicy": (
            ("name",),
            model.DefaultDynamicPolicy,
            lambda: model.DefaultDynamicPolicy("other"),
        ),
        "CustomDynamicPolicy": (
            ("order", "name"),
            lambda: model.CustomDynamicPolicy(["b1", "b2"]),
            lambda: model.CustomDynamicPolicy(["b2", "b1"]),
        ),
        "AllocationTable": (
            ("slot_starts", "production", "consumption", "self_consumed", "surplus"),
            lambda: model.AllocationTable((T0,), (10,), {"b1": (5,)}, {"b1": (5,)}, (5,)),
            lambda: model.AllocationTable((T0,), (10,), {"b1": (6,)}, {"b1": (6,)}, (4,)),
        ),
        "ValidationReport": (
            ("findings",),
            lambda: model.ValidationReport(("no series for production meter pv",)),
            model.ValidationReport,
        ),
        "ScrReport": (
            ("self_consumed_total", "production_total", "window"),
            lambda: billing.ScrReport(5, 10),
            lambda: billing.ScrReport(5, 10, JUNE),
        ),
        "SavingsReport": (
            ("per_participant", "feed_in", "total", "window"),
            lambda: billing.SavingsReport({"b1": Decimal("1")}, Decimal("0.5"), Decimal("1.5")),
            lambda: billing.SavingsReport({"b1": Decimal("1")}, Decimal("0.5"), Decimal("1.5"), JUNE),
        ),
        "PolicyComparison": (
            ("reports", "window"),
            lambda: billing.PolicyComparison({"static": (scr, savings)}, None),
            lambda: billing.PolicyComparison({"static": (scr, savings)}, JUNE),
        ),
        "RawMeterRecord": (
            ("meter_id", "meter_class", "timestamp", "quantity_kind", "value"),
            lambda: ingestion.RawMeterRecord("m1", linky, T0, wh, 5),
            lambda: ingestion.RawMeterRecord("m1", linky, T1, wh, 5),
        ),
        "RowError": (
            ("line", "message"),
            lambda: ingestion.RowError(2, "empty meter_id"),
            lambda: ingestion.RowError(3, "empty meter_id"),
        ),
        "MeterReadings": (
            ("meter_id", "meter_class", "quantity_kind", "timestamps", "values"),
            lambda: ingestion.MeterReadings("m1", linky, wh, [T0], [5]),
            lambda: ingestion.MeterReadings("m1", linky, wh, [T0], [6]),
        ),
        "IngestResult": (
            ("meters", "errors"),
            lambda: ingestion.IngestResult((), (ingestion.RowError(2, "bad"),)),
            ingestion.IngestResult,
        ),
        "ScenarioConfig": (
            ("pv_gain", "datacentre_load_kw", "include_datacentre"),
            lambda: ingestion.ScenarioConfig("1.5", "2", True),
            ingestion.ScenarioConfig,
        ),
        "ChainReport": (
            ("intact", "first_break", "message"),
            lambda: ledger.ChainReport(True),
            lambda: ledger.ChainReport(False, 3, "broken link at record 3"),
        ),
        "RunConfig": (
            ("meter_csvs", "community_file", "out_dir", "policies", "scenario_file", "kors",
             "priority_order", "kor_window"),
            lambda: runner.RunConfig((Path("meters.csv"),), Path("community.json"), None, ("static",)),
            lambda: runner.RunConfig((Path("meters.csv"),), Path("community.json"), Path("out"), ("static",)),
        ),
        "RunResult": (
            ("out_dir", "files", "comparison"),
            lambda: runner.RunResult(Path("out"), (Path("out/a.csv"),)),
            lambda: runner.RunResult(Path("out")),
        ),
    }


def _outcome(act) -> str:
    try:
        act()
    except AttributeError:
        return "refused"
    except Exception as exc:
        return type(exc).__name__
    return "allowed"


def _walk_behaviour() -> dict:
    """A log's walk is a plain 7-tuple, and a forked worker sends it back
    as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.log"
        with ledger.Ledger(path) as log:
            for k in range(6):
                log.append({"kind": "production", "energy_wh": k}, ("pv", "b1")[k % 2], T0 + k // 2 * (T1 - T0))
            ledger.write_ledger(log, path)
        with open(path, "rb") as stream:
            walk = ledger._walk(stream)
        stat = os.stat(path)
        sent = ledger._sent_walk(ledger._send_walk(path, (stat.st_dev, stat.st_ino), 0, stat.st_size))
    return {"tuple": type(walk) is tuple and len(walk) == 7, "sent back": sent == walk, "count": walk[0]}


def _behaviour() -> dict:
    """Class name -> what its records do."""
    found = {}
    for name, (fields, make, other) in _cases().items():
        a, b = make(), make()
        values = tuple(getattr(a, f) for f in fields)
        try:
            code = hash(a)
        except TypeError:
            hashed = "unhashable"
        else:
            hashed = (
                "identity" if code == object.__hash__(a) else
                "fields" if code == hash(values) == hash(b) else "other"
            )
        copied = copy.copy(a)
        equal_copy = copied == a
        object.__setattr__(copied, "__class__", type("Twin", (type(a),), {"__slots__": ()}))
        found[name] = {
            "equal": a == b,
            "differs": a != other(),
            "itself": a == a,
            "copy": equal_copy,
            "against a subclass": a == copied or copied == a,
            "against a tuple": a.__eq__(values) is NotImplemented,
            "hash": hashed,
            "assign": _outcome(lambda: setattr(make(), fields[0], values[0])),
            "add": _outcome(lambda: setattr(make(), "extra", 1)),
            "delete": _outcome(lambda: delattr(make(), fields[0])),
            "repr": repr(a),
        }
    found["_Walk"] = _walk_behaviour()
    return found


_T0 = "datetime.datetime(2024, 6, 12, 7, 0, tzinfo=datetime.timezone(datetime.timedelta(seconds=7200)))"
_T1 = _T0.replace("7, 0,", "7, 30,")
_KORS = "KorVector(entries={'b1': 0.5, 'b2': 0.5})"
_SCR = "ScrReport(self_consumed_total=5, production_total=10, window=None)"
_SAVINGS = "SavingsReport(per_participant={'b1': Decimal('1')}, feed_in=Decimal('0.5'), total=Decimal('1.5'), window=None)"
_PARTICIPANT = "Participant(id='b1', tariff_eur_per_kwh=Decimal('0.2'), grid_uplift_pct=Decimal('0'), tax_uplift_pct=Decimal('0'))"
# Class -> (compares by its fields, its hash, frozen, its repr), as each
# class behaved when it was a dataclass. A field that holds a dict makes a
# frozen record unhashable; a record that does not compare by its fields
# hashes by identity. The mutable records hold tuples here, so only the
# class makes them unhashable.
RECORDS = {
    "DateRange": (True, "fields", True, "DateRange(start=datetime.date(2024, 6, 1), end=datetime.date(2024, 7, 1))"),
    "SlotSeries": (
        True, "fields", True,
        f"SlotSeries(meter_id='m1', kind=<Kind.CONSUMPTION: 'consumption'>, starts=({_T0}, {_T1}), energies=(1, 2))",
    ),
    "Participant": (True, "fields", True, _PARTICIPANT),
    "Community": (
        True, "fields", True,
        f"Community(participants=({_PARTICIPANT},), production_meter='pv', feed_in_eur_per_kwh=Decimal('0.1'))",
    ),
    "KorVector": (True, "unhashable", True, _KORS),
    "StaticPolicy": (True, "unhashable", True, f"StaticPolicy(kors={_KORS}, name='static')"),
    "DefaultDynamicPolicy": (True, "fields", True, "DefaultDynamicPolicy(name='default-dynamic')"),
    "CustomDynamicPolicy": (True, "fields", True, "CustomDynamicPolicy(order=('b1', 'b2'), name='custom-dynamic')"),
    "AllocationTable": (
        False, "identity", True,
        f"AllocationTable(slot_starts=({_T0},), production=(10,), consumption={{'b1': (5,)}}, "
        "self_consumed={'b1': (5,)}, surplus=(5,))",
    ),
    "ValidationReport": (True, "fields", True, "ValidationReport(findings=('no series for production meter pv',))"),
    "ScrReport": (True, "fields", True, _SCR),
    "SavingsReport": (True, "unhashable", True, _SAVINGS),
    "PolicyComparison": (
        True, "unhashable", True, f"PolicyComparison(reports={{'static': ({_SCR}, {_SAVINGS})}}, window=None)"
    ),
    "RawMeterRecord": (
        True, "fields", True,
        f"RawMeterRecord(meter_id='m1', meter_class=<MeterClass.LINKY: 'linky'>, timestamp={_T0}, "
        "quantity_kind=<QuantityKind.ENERGY_WH: 'energy_wh'>, value=5)",
    ),
    "RowError": (True, "fields", True, "RowError(line=2, message='empty meter_id')"),
    "MeterReadings": (
        False, "identity", False,
        "MeterReadings(meter_id='m1', meter_class=<MeterClass.LINKY: 'linky'>, "
        f"quantity_kind=<QuantityKind.ENERGY_WH: 'energy_wh'>, timestamps=[{_T0}], values=[5])",
    ),
    "IngestResult": (True, "unhashable", False, "IngestResult(meters=(), errors=(RowError(line=2, message='bad'),))"),
    "ScenarioConfig": (
        True, "fields", True,
        "ScenarioConfig(pv_gain=Decimal('1.5'), datacentre_load_kw=Decimal('2'), include_datacentre=True)",
    ),
    "ChainReport": (True, "fields", True, "ChainReport(intact=True, first_break=None, message='intact')"),
    "RunConfig": (
        True, "fields", True,
        "RunConfig(meter_csvs=(PosixPath('meters.csv'),), community_file=PosixPath('community.json'), "
        "out_dir=None, policies=('static',), scenario_file=None, kors=None, priority_order=None, kor_window=None)",
    ),
    "RunResult": (
        True, "unhashable", False,
        "RunResult(out_dir=PosixPath('out'), files=(PosixPath('out/a.csv'),), comparison=None)",
    ),
}


@pytest.fixture(scope="module")
def behaviour() -> dict:
    return json.loads(_run(__file__))


@pytest.mark.parametrize("name", [*RECORDS, "_Walk"])
def test_each_record_compares_hashes_refuses_and_shows_as_before(name, behaviour):
    """A record compares by its fields, and only against its own class,
    not a subclass, so its copy is equal, unless it compares by identity;
    a frozen one hashes by its fields and refuses assignment and deletion,
    any field or new attribute, with an AttributeError; a mutable one is
    unhashable unless it compares by identity; the repr is
    ``Name(field=value, ...)``. (RawMeterRecord, a slotted frozen
    dataclass, raised a TypeError for a new attribute on Python 3.11; it
    refuses it now.) A log's walk is a plain 7-tuple that a forked worker
    sends back unchanged."""
    found = behaviour[name]
    if name == "_Walk":
        assert found == {"tuple": True, "sent back": True, "count": 6}
        return
    by_fields, hashed, frozen, shown = RECORDS[name]
    refused = "refused" if frozen else "allowed"
    assert found == {
        "equal": by_fields,
        "differs": True,
        "itself": True,
        "copy": by_fields,
        "against a subclass": False,
        "against a tuple": True,
        "hash": hashed,
        "assign": refused,
        "add": refused,
        "delete": refused,
        "repr": shown,
    }


if __name__ == "__main__":
    print(json.dumps(_behaviour()))
