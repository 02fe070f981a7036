"""Deterministic demo-day generator.

Real meter extracts from the pilot site are not redistributable, so the
demo and the test suite run on synthesized days that keep the shapes that
matter: a low-radiation day whose production peaks well below the
combined consumption, and a high-radiation day whose midday production
exceeds it. Office-like consumption profiles are floored so that, once
the flat data-centre load is added, every policy can place every produced
Wh (each building always covers an equal-split share of production).

Output is reproducible byte for byte for a given profile and seed.
"""

from __future__ import annotations

import io
import math
import random
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from pathlib import Path

from cscshare.ingestion import (
    _round_half_even,
    derive_static_kors,
    ingest_csv,
    normalize_to_slots,
    readings_by_meter,
)
from cscshare.model import DAY_SLOTS, DateRange, Kind, SLOT_MINUTES
from cscshare.runner import _write_json, publish

PROFILES = ("low_radiation", "high_radiation")

# Emulation gain and data-centre load the emitted scenario files carry.
DEMO_PV_GAIN = Decimal("25.48")
DEMO_DC_LOAD_KW = Decimal("100")

_TZ = timezone(timedelta(hours=2))
_DAY = {"low_radiation": date(2024, 4, 3), "high_radiation": date(2024, 6, 12)}
_PEAK_RAW_WH = {"low_radiation": 350, "high_radiation": 2600}

# Sun above the horizon between slots 14 and 38 (07:00 to 19:00).
_SUN_FIRST, _SUN_LAST = 14, 38

_PRODUCTION_METER = "pv1"
_PARTICIPANTS = ("b1", "b2", "b4")


def _slot_ts(day: date, k: int) -> datetime:
    minutes = k * SLOT_MINUTES
    return datetime.combine(day, time(minutes // 60, minutes % 60), tzinfo=_TZ)


def _sun_shape(k: int) -> float:
    if not _SUN_FIRST <= k <= _SUN_LAST:
        return 0.0
    return math.sin(math.pi * (k - _SUN_FIRST) / (_SUN_LAST - _SUN_FIRST)) ** 2


def _office_shape(k: int, night: int, peak: int, start: int, end: int) -> float:
    """Flat night load with a smooth working-hours plateau."""
    if k <= start or k >= end:
        return float(night)
    ramp = min(1.0, (k - start) / 4, (end - k) / 4)
    return night + (peak - night) * ramp


def _gained(raw_wh: int) -> int:
    scaled = Decimal(raw_wh) * DEMO_PV_GAIN
    return int(scaled.to_integral_value(rounding=ROUND_HALF_EVEN))


def synthesize_demo_data(profile: str, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Write one demo day: meter CSV, community, scenarios, coefficients.

    Returns the emitted paths keyed by role. Same profile and seed give
    byte-identical files.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    rng = random.Random(f"{profile}:{seed}")
    day = _DAY[profile]

    production_raw = []
    for k in range(DAY_SLOTS):
        shape = _sun_shape(k)
        jitter = rng.uniform(0.92, 1.02)
        production_raw.append(round(_PEAK_RAW_WH[profile] * shape * jitter))
    production_gained = [_gained(v) for v in production_raw]

    # Equal-split share of the emulated production, plus headroom: floors
    # b1/b2 so that no policy's per-slot share can outrun their consumption
    # once the data centre keeps b4 above any share it can be handed.
    floors = [math.ceil(p / 3) + 60 for p in production_gained]

    consumption: dict[str, list[int]] = {}
    shapes = {
        "b1": lambda k: _office_shape(k, 4200, 21500, 14, 38),
        "b2": lambda k: _office_shape(k, 4600, 23000, 16, 40),
        "b4": lambda k: _office_shape(k, 2600, 2900, 18, 34),
    }
    for pid in _PARTICIPANTS:
        values = []
        for k in range(DAY_SLOTS):
            v = round(shapes[pid](k) * rng.uniform(0.97, 1.05))
            if pid in ("b1", "b2"):
                v = max(v, floors[k])
            values.append(v)
        consumption[pid] = values

    # b1 is metered as SME/SMI 10-minute powers (integer kW); pick the
    # three samples of each slot so the slot energy lands at or just above
    # the target, keeping the floor guarantee intact.
    b1_powers: list[tuple[datetime, int]] = []
    b1_energy: list[int] = []
    for k in range(DAY_SLOTS):
        target = consumption["b1"][k]
        total_kw = math.ceil(Fraction(target * 3, 500))
        parts = [total_kw // 3] * 3
        for i in range(total_kw % 3):
            parts[i] += 1
        slot_ts = _slot_ts(day, k)
        for i, kw in enumerate(parts):
            b1_powers.append((slot_ts + timedelta(minutes=10 * i), kw))
        b1_energy.append(_round_half_even(sum(parts) * 500, 3))
    consumption["b1"] = b1_energy

    rows = [",".join(["meter_id", "meter_class", "timestamp", "quantity_kind", "value"])]
    for k in range(DAY_SLOTS):
        ts = _slot_ts(day, k).isoformat()
        rows.append(f"{_PRODUCTION_METER},linky,{ts},energy_wh,{production_raw[k]}")
    for ts, kw in b1_powers:
        rows.append(f"b1,sme_smi,{ts.isoformat()},power_kw_10min,{kw}")
    for pid in ("b2", "b4"):
        for k in range(DAY_SLOTS):
            ts = _slot_ts(day, k).isoformat()
            rows.append(f"{pid},linky,{ts},energy_wh,{consumption[pid][k]}")
    meters = "\n".join(rows) + "\n"

    community = {
        "participants": [
            {
                "id": "b1",
                "tariff_eur_per_kwh": "0.13",
                "grid_uplift_pct": "28",
                "tax_uplift_pct": "38",
            },
            {
                "id": "b2",
                "tariff_eur_per_kwh": "0.13",
                "grid_uplift_pct": "0",
                "tax_uplift_pct": "38",
            },
            {
                "id": "b4",
                "tariff_eur_per_kwh": "0.11",
                "grid_uplift_pct": "0",
                "tax_uplift_pct": "0",
            },
        ],
        "production_meter": _PRODUCTION_METER,
        "feed_in_eur_per_kwh": "0.06",
        "datacentre_meter": "b4",
    }

    # Static coefficients derived from this day's consumption, the same
    # derivation a year of history would get.
    ingested = ingest_csv(io.StringIO(meters))
    assert not ingested.errors
    by_meter = readings_by_meter([ingested])
    history = [
        normalize_to_slots(by_meter[pid], kind=Kind.CONSUMPTION) for pid in _PARTICIPANTS
    ]
    kors = derive_static_kors(history, DateRange.single_day(day))

    run_config = {
        "meter_csvs": ["meters.csv"],
        "community": "community.json",
        "scenario": "scenario.cfg",
        "kors": "kors.json",
        "policies": ["static", "static33", "default-dynamic", "custom-dynamic"],
        "out_dir": "reports",
    }
    out = Path(out_dir)
    with publish(out) as staging:
        (staging / "meters.csv").write_text(meters, encoding="utf-8")
        _write_json(staging / "community.json", community)
        (staging / "scenario.cfg").write_text(
            "# emulated panels and optional data centre\n"
            f"pv_gain = {DEMO_PV_GAIN}\n"
            f"datacentre_load_kw = {DEMO_DC_LOAD_KW}\n"
            "include_datacentre = false\n",
            encoding="utf-8",
        )
        (staging / "scenario_dc.cfg").write_text(
            "# emulated panels with the data centre in the operation\n"
            f"pv_gain = {DEMO_PV_GAIN}\n"
            f"datacentre_load_kw = {DEMO_DC_LOAD_KW}\n"
            "include_datacentre = true\n",
            encoding="utf-8",
        )
        _write_json(staging / "kors.json", kors.entries)
        _write_json(staging / "run_config.json", run_config)
        # each file's role is its name's stem
        paths = {p.stem: out / p.name for p in staging.iterdir()}
    return paths
