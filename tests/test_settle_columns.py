"""Settle on columns: allocation tables against the per-slot reference.

The reference below is the runner's ledger builder, CSV row builder and
billing sums as they were when every slot was one allocation object, kept
verbatim and fed row by row from one-slot allocations. The column path must
reproduce every ledger line, every CSV row and every report they give.
"""

import io
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from typing import Mapping, NamedTuple, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from cscshare import runner
from cscshare.allocation import allocate_series
from cscshare.billing import SavingsReport, ScrReport, compute_savings, compute_scr
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
    SlotSeries,
    StaticPolicy,
)

from conftest import DAY, allocate_slot, paris_2024, slot_ts


class _Row(NamedTuple):
    """One slot's allocation, as the reference reads it."""

    production: int
    consumption: Mapping[str, int]
    self_consumed: Mapping[str, int]
    surplus_to_grid: int
    slot_start: datetime


def _reference_build_ledger(
    production: SlotSeries,
    allocations_by_policy: Mapping[str, Sequence[_Row]],
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
    allocations: Sequence[_Row], participant_ids: Sequence[str]
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


def _reference_reports(allocations, participants, community, window):
    selected = [a for a in allocations if window is None or window.start <= a.slot_start.date() < window.end]
    scr = ScrReport(
        self_consumed_total=sum(sum(a.self_consumed.values()) for a in selected),
        production_total=sum(a.production for a in selected),
        window=window,
    )
    by_id = {p.id: p for p in participants}
    wh, surplus = {}, 0
    for a in selected:
        surplus += a.surplus_to_grid
        for pid, e in a.self_consumed.items():
            wh[pid] = wh.get(pid, 0) + e
    per = {pid: Decimal(e) / 1000 * by_id[pid].effective_value_eur_per_kwh for pid, e in sorted(wh.items())}
    feed_in = Decimal(surplus) / 1000 * community.feed_in_eur_per_kwh
    return scr, SavingsReport(per, feed_in, sum(per.values(), Decimal(0)) + feed_in, window)


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
    policies = (
        StaticPolicy(kors),
        StaticPolicy(equal, name="static33"),
        DefaultDynamicPolicy(),
        CustomDynamicPolicy(order),
    )
    tables, rows = {}, {}
    for policy in policies:
        tables[policy.name] = allocate_series(policy, production, consumptions)
        rows[policy.name] = []
        for k, (ts, prod) in enumerate(zip(production.starts, production.energies)):
            consumption = {s.meter_id: s.energies[k] for s in consumptions}
            shares, surplus = allocate_slot(policy, prod, consumption, ts)
            rows[policy.name].append(_Row(prod, consumption, shares, surplus, ts))
    static_kors = {"static": kors, "static33": equal}

    expected = _ledger_text(_reference_build_ledger(production, rows, static_kors))
    assert _ledger_text(runner._build_ledger(production, tables, static_kors)) == expected

    stamps = [ts.isoformat() for ts in production.starts]
    window = DateRange.single_day(production.starts[0].date())
    participants = [Participant(pid, "0.1") for pid in ids]
    community = Community(tuple(participants), production.meter_id, "0.05")
    for name, table in tables.items():
        got = [list(row) for row in runner._allocation_csv_rows(table, ids, stamps)]
        assert got == _reference_allocation_csv_rows(rows[name], ids), name
        for w in (None, window):
            scr, savings = _reference_reports(rows[name], participants, community, w)
            assert compute_scr(table, w) == scr
            assert compute_savings(table, community, w) == savings


@given(community=communities(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_table_rejects_what_a_slot_allocation_rejects(community, data):
    """One share is raised past its consumption, production following so
    that the slot still conserves energy: the table refuses it with the
    error a one-slot table of that slot gives."""
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
        AllocationTable(
            (table.slot_starts[k],),
            (bumped[k],),
            {p: (c[k],) for p, c in table.consumption.items()},
            {p: (c[k],) for p, c in raised.items()},
            (table.surplus[k],),
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
        (
            # slot 1's negative surplus is checked before any conservation,
            # but slot 0 is checked first
            ((_TS, slot_ts(1)), (10, 10), {"a": (6, 6)}, {"a": (6, 6)}, (3, -1)),
            "conservation violated: self_consumed + surplus != production (6 + 3 != 10)",
        ),
        (
            ((_TS.replace(minute=15),), (10,), {"a": (6,)}, {"a": (6,)}, (3,)),
            f"timestamp {_TS.replace(minute=15).isoformat()} is not 30-minute aligned",
        ),
    ],
    ids=[
        "conservation", "negative-surplus", "bool-share", "float-production", "keys", "lengths",
        "earlier-slot-first", "unaligned-start",
    ],
)
def test_table_check_words_errors_as_slot_allocation(columns, message):
    with pytest.raises(ValueError) as excinfo:
        AllocationTable(*columns)
    assert str(excinfo.value) == message
