"""Shared fixtures and helpers."""

from __future__ import annotations

from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal
from fractions import Fraction

import pytest

from cscshare.allocation import allocate_series
from cscshare.model import Community, Kind, Participant, SlotSeries

TZ = timezone(timedelta(hours=2))
DAY = date(2022, 5, 4)


def cents(value: Fraction) -> str:
    """A non-negative amount rounded half-even to cents, as text."""
    whole = round(value * 100)
    return f"{whole // 100}.{whole % 100:02d}"


def slot_ts(k: int, day: date = DAY) -> datetime:
    """Timestamp of day slot k (0..47)."""
    minutes = k * 30
    return datetime.combine(day, time(minutes // 60, minutes % 60), tzinfo=TZ)


# Europe/Paris is on +02:00 from 01:00Z on 31 March to 01:00Z on 27 October
# 2024, and on +01:00 otherwise.
SUMMER_2024 = (
    datetime(2024, 3, 31, 1, tzinfo=timezone.utc),
    datetime(2024, 10, 27, 1, tzinfo=timezone.utc),
)


def paris_2024(utc: datetime) -> datetime:
    """The Paris local time of an instant in 2024."""
    summer = SUMMER_2024[0] <= utc < SUMMER_2024[1]
    return utc.astimezone(timezone(timedelta(hours=2 if summer else 1)))


def allocate_slot(policy, production, consumption, ts=slot_ts(0)):
    """One slot allocated by allocate_series over one-slot series: each
    participant's self-consumed Wh, in the policy's order, and the surplus."""
    table = allocate_series(
        policy,
        SlotSeries("pv", Kind.PRODUCTION, (ts,), (production,)),
        [SlotSeries(pid, Kind.CONSUMPTION, (ts,), (c,)) for pid, c in consumption.items()],
    )
    return {pid: c[0] for pid, c in table.self_consumed.items()}, table.surplus[0]


def make_buildings() -> tuple[Participant, Participant, Participant]:
    """The demo community: host building, neighbour, business centre."""
    return (
        Participant(
            id="b1",
            tariff_eur_per_kwh=Decimal("0.13"),
            grid_uplift_pct=Decimal(28),
            tax_uplift_pct=Decimal(38),
        ),
        Participant(
            id="b2",
            tariff_eur_per_kwh=Decimal("0.13"),
            grid_uplift_pct=Decimal(0),
            tax_uplift_pct=Decimal(38),
        ),
        Participant(
            id="b4",
            tariff_eur_per_kwh=Decimal("0.11"),
        ),
    )


@pytest.fixture
def buildings():
    return make_buildings()


@pytest.fixture
def community(buildings):
    return Community(
        participants=buildings,
        production_meter="pv1",
        feed_in_eur_per_kwh=Decimal("0.06"),
    )
