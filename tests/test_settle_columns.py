"""Settle on columns: allocation tables against the per-slot reference.

The reference below is the runner's ledger builder and CSV row builder as
they were when every slot was one SlotAllocation, kept verbatim and fed
from the per-slot policy functions. The column path must reproduce every
ledger line and every CSV row they give.
"""

import io
from datetime import datetime, timedelta, timezone
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from cscshare import model, runner
from cscshare.allocation import (
    allocate_custom_dynamic,
    allocate_default_dynamic,
    allocate_series,
    allocate_static,
)
from cscshare.billing import compute_savings, compute_scr
from cscshare.ledger import KOR_COUNTING_POINT, Ledger, write_ledger
from cscshare.model import (
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotAllocation,
    SlotSeries,
    StaticPolicy,
)
from cscshare.runner import load_run_config, run
from cscshare.synth import synthesize_demo_data

from conftest import DAY, paris_2024, slot_ts


def _reference_build_ledger(
    production: SlotSeries,
    allocations_by_policy: Mapping[str, Sequence[SlotAllocation]],
    static_kors: Mapping[str, KorVector],
) -> Ledger:
    ledger = Ledger()
    policy_names = sorted(allocations_by_policy)
    coefficients = {name: kors.texts() for name, kors in static_kors.items()}
    slot_rows = zip(
        production.starts,
        production.energies,
        *(allocations_by_policy[name] for name in policy_names),
        strict=True,
    )
    for ts, produced, *allocations in slot_rows:
        ledger.append(
            {"kind": "production", "energy_wh": produced},
            counting_point_key=production.meter_id,
            timestamp=ts,
        )
        for pid, energy in sorted(allocations[0].consumption.items()):
            ledger.append(
                {"kind": "consumption", "energy_wh": energy},
                counting_point_key=pid,
                timestamp=ts,
            )
        for name, allocation in zip(policy_names, allocations):
            payload = {
                "policy": name,
                "self_consumed_wh": allocation.self_consumed,
                "surplus_wh": allocation.surplus_to_grid,
            }
            if name in coefficients:
                payload["coefficients"] = coefficients[name]
            ledger.append(payload, counting_point_key=KOR_COUNTING_POINT, timestamp=ts)
    return ledger


def _reference_allocation_csv_rows(
    allocations: Sequence[SlotAllocation], participant_ids: Sequence[str]
) -> list[list]:
    header = ["slot_start", "production_wh"]
    header += [f"consumption_{pid}_wh" for pid in participant_ids]
    header += [f"self_consumed_{pid}_wh" for pid in participant_ids]
    header += ["surplus_wh"]
    rows = [header]
    for a in allocations:
        row = [a.slot_start.isoformat(), a.production]
        row += [a.consumption[pid] for pid in participant_ids]
        row += [a.self_consumed[pid] for pid in participant_ids]
        row += [a.surplus_to_grid]
        rows.append(row)
    return rows


def _ledger_text(ledger: Ledger) -> list[str]:
    buffer = io.StringIO()
    write_ledger(ledger, buffer)
    return buffer.getvalue().splitlines()


def _dst_day(first_utc: datetime, n: int) -> list[datetime]:
    return [paris_2024(first_utc + timedelta(minutes=30 * k)) for k in range(n)]


# Paris 2024: 31 March has 46 slots and 27 October has 50
_DST_DAYS = {
    46: _dst_day(datetime(2024, 3, 30, 23, tzinfo=timezone.utc), 46),
    50: _dst_day(datetime(2024, 10, 26, 22, tzinfo=timezone.utc), 50),
}

_energy = st.one_of(st.just(0), st.integers(0, 5_000), st.integers(0, 10**6))

# meter ids that need JSON escaping or would break a naive str.format or
# %-format: quotes, backslashes, braces, percent signs, control, non-ASCII
# and astral characters
_meter_id = st.text(
    st.one_of(st.sampled_from('"\\{}%\x00\n\x1f\x7f\xe9\u20ac\U0001f600'), st.characters()),
    min_size=1,
    max_size=6,
)


@st.composite
def communities(draw):
    """A production series, consumption series of 1-40 participants on the
    same slots (a few slots of one day, or a whole switch day), their
    static coefficients and a priority order."""
    n = draw(st.integers(1, 40))
    production_id, *ids = draw(st.lists(_meter_id, min_size=n + 1, max_size=n + 1, unique=True))
    if draw(st.booleans()):
        starts = _DST_DAYS[draw(st.sampled_from([46, 50]))]
    else:
        # may run past midnight, so that a one-day window cuts the table
        first = draw(st.integers(0, 47))
        positions = range(first, first + draw(st.integers(1, 8)))
        starts = [slot_ts(k % 48, DAY + timedelta(days=k // 48)) for k in positions]
    values = st.lists(_energy, min_size=len(starts), max_size=len(starts))
    production = SlotSeries(production_id, Kind.PRODUCTION, starts, draw(values))
    consumptions = [SlotSeries(pid, Kind.CONSUMPTION, starts, draw(values)) for pid in ids]
    weights = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n))
    kors = KorVector({pid: w / sum(weights) for pid, w in zip(ids, weights)})
    order = tuple(draw(st.permutations(ids)))
    return production, consumptions, kors, order


@given(community=communities())
@settings(max_examples=60, deadline=None)
def test_columns_reproduce_every_ledger_line_and_csv_row(community):
    production, consumptions, kors, order = community
    ids = sorted(s.meter_id for s in consumptions)
    equal = KorVector.equal(ids)
    policies = {
        "static": (StaticPolicy(kors), lambda p, c, ts: allocate_static(p, c, kors, ts)),
        "static33": (StaticPolicy(equal, name="static33"), lambda p, c, ts: allocate_static(p, c, equal, ts)),
        "default-dynamic": (DefaultDynamicPolicy(), allocate_default_dynamic),
        "custom-dynamic": (
            CustomDynamicPolicy(order),
            lambda p, c, ts: allocate_custom_dynamic(p, c, order, ts),
        ),
    }
    tables, rows = {}, {}
    for name, (policy, allocate_slot) in policies.items():
        tables[name] = allocate_series(policy, production, consumptions)
        rows[name] = [
            allocate_slot(prod, {s.meter_id: s.energies[k] for s in consumptions}, ts)
            for k, (ts, prod) in enumerate(zip(production.starts, production.energies))
        ]
    static_kors = {"static": kors, "static33": equal}

    expected = _ledger_text(_reference_build_ledger(production, rows, static_kors))
    assert _ledger_text(runner._build_ledger(production, tables, static_kors)) == expected

    stamps = [ts.isoformat() for ts in production.starts]
    window = DateRange.single_day(production.starts[0].date())
    participants = [Participant(pid, "0.1", priority_rank=k + 1) for k, pid in enumerate(ids)]
    community = Community(tuple(participants), production.meter_id, "0.05")
    for name, table in tables.items():
        got = [list(row) for row in runner._allocation_csv_rows(table, ids, stamps)]
        assert got == _reference_allocation_csv_rows(rows[name], ids), name
        assert table == rows[name]
        for w in (None, window):
            assert compute_scr(table, w) == compute_scr(rows[name], w)
            assert compute_savings(table, community, w) == compute_savings(
                rows[name], community, w
            )


@given(community=communities(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_table_rejects_what_a_slot_allocation_rejects(community, data):
    """One share is raised past its consumption, production following so
    that the slot still conserves energy: the table refuses it with the
    error SlotAllocation gives for that slot."""
    production, consumptions, _, order = community
    table = allocate_series(CustomDynamicPolicy(order), production, consumptions)
    k = data.draw(st.integers(0, len(table) - 1))
    pid = data.draw(st.sampled_from(order))
    consumed = table.consumption[pid][k]
    raised = {p: list(c) for p, c in table.self_consumed.items()}
    delta = consumed + 1 - raised[pid][k]
    raised[pid][k] += delta
    bumped = list(table.production)
    bumped[k] += delta
    columns = dict(
        slot_starts=table.slot_starts,
        production=bumped,
        consumption=table.consumption,
        self_consumed=raised,
        surplus=table.surplus,
    )
    with pytest.raises(ValueError) as row_error:
        SlotAllocation(
            bumped[k],
            {p: c[k] for p, c in table.consumption.items()},
            {p: c[k] for p, c in raised.items()},
            table.surplus[k],
        )
    assert str(row_error.value) == f"self_consumed[{pid}] = {consumed + 1} exceeds consumption {consumed}"
    with pytest.raises(ValueError) as table_error:
        AllocationTable(**columns)
    assert str(table_error.value) == str(row_error.value)


_TS = slot_ts(0)


@pytest.mark.parametrize(
    "columns, message",
    [
        (
            ((_TS,), (10,), {"a": (6,)}, {"a": (6,)}, (3,)),
            "conservation violated: self_consumed + surplus != production (6 + 3 != 10)",
        ),
        (((_TS,), (10,), {"a": (6,)}, {"a": (6,)}, (-1,)), "surplus must be >= 0 Wh, got -1"),
        (
            ((_TS,), (10,), {"a": (6,)}, {"a": (True,)}, (9,)),
            "self_consumed[a] must be an integer Wh amount, got True",
        ),
        (
            ((_TS,), (10.0,), {"a": (6,)}, {"a": (6,)}, (4,)),
            "production must be an integer Wh amount, got 10.0",
        ),
        (
            ((_TS,), (10,), {"a": (6,)}, {"b": (6,)}, (4,)),
            "self_consumed keys differ from consumption keys",
        ),
        (
            ((_TS, _TS), (10, 5), {"a": (6,)}, {"a": (6,)}, (4,)),
            "allocation columns must be equally long and hold plain ints",
        ),
    ],
    ids=["conservation", "negative-surplus", "bool-share", "float-production", "keys", "lengths"],
)
def test_table_check_words_errors_as_slot_allocation(columns, message):
    with pytest.raises(ValueError) as excinfo:
        AllocationTable(*columns)
    assert str(excinfo.value) == message


def test_table_rows_and_equality():
    table = AllocationTable(
        (_TS, slot_ts(1)), (10, 5), {"a": (6, 1), "b": (3, 9)}, {"a": (6, 1), "b": (3, 4)}, (1, 0)
    )
    second = SlotAllocation(5, {"a": 1, "b": 9}, {"a": 1, "b": 4}, 0, slot_ts(1))
    assert len(table) == 2
    assert table[1] == table[-1] == second
    assert table[1:] == [second]
    assert table == list(table) and table != list(table)[:1]
    assert AllocationTable.from_rows(table) == table
    assert AllocationTable((), (), {}, {}, ()) == []


def test_demo_settle_builds_no_slot_allocation(tmp_path, monkeypatch):
    synthesize_demo_data("high_radiation", 7, tmp_path)
    expected = run(load_run_config(tmp_path / "run_config.json", out_override=tmp_path / "a"))

    def refuse(self):
        raise AssertionError("settle built a SlotAllocation")

    monkeypatch.setattr(model.SlotAllocation, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        SlotAllocation(1, {}, {}, 1)
    result = run(load_run_config(tmp_path / "run_config.json", out_override=tmp_path / "b"))
    assert [p.read_bytes() for p in result.files] == [p.read_bytes() for p in expected.files]
