"""Seeded input generator for the settlement benchmark.

Writes meter CSVs, a community file, static coefficients and run configs
for N days x N participants on the 30-minute grid, with every timestamp in
Europe/Paris local time (the offset switches on the last Sundays of March
and October). Participant meters rotate through the three quantity kinds
the ingestion layer normalizes: linky ``energy_wh``, SME/SMI
``power_kw_10min`` and SME/SMI ``energy_kwh_index``. The production meter
is a linky ``energy_wh`` meter.

Alongside the inputs it keeps the ground truth: the integer Wh every meter
must normalize to in every slot, indexed from the first slot's UTC instant.
The checks compare the program's outputs against it. The same seed gives
byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

SLOT = timedelta(minutes=30)
KOR_SCALE = 10**4
POLICIES = ("static", "static33", "default-dynamic", "custom-dynamic")
KINDS = ("energy_wh", "power_kw_10min", "energy_kwh_index")
PRODUCTION_METER = "pv"


def _last_sunday(year: int, month: int) -> date:
    day = date(year, month, 31)
    return day - timedelta(days=(day.weekday() + 1) % 7)


def paris_offset(utc: datetime) -> timedelta:
    """Europe/Paris UTC offset at a UTC instant (EU rule, switches at 01:00 UTC)."""
    year = utc.year
    summer_from = datetime.combine(_last_sunday(year, 3), datetime.min.time(), timezone.utc) + timedelta(hours=1)
    summer_to = datetime.combine(_last_sunday(year, 10), datetime.min.time(), timezone.utc) + timedelta(hours=1)
    return timedelta(hours=2) if summer_from <= utc < summer_to else timedelta(hours=1)


def paris_local(utc: datetime) -> datetime:
    return utc.astimezone(timezone(paris_offset(utc)))


def paris_midnight_utc(day: date) -> datetime:
    """UTC instant of local midnight starting a Paris calendar day."""
    guess = datetime.combine(day, datetime.min.time(), timezone.utc) - timedelta(hours=1)
    return datetime.combine(day, datetime.min.time(), timezone.utc) - paris_offset(guess)


def round_half_even(x: Fraction) -> int:
    q, r = divmod(x.numerator, x.denominator)
    twice = 2 * r
    if twice > x.denominator or (twice == x.denominator and q % 2):
        return q + 1
    return q


def kind_of(index: int) -> str:
    return KINDS[index % len(KINDS)]


def participant_ids(n: int) -> list[str]:
    return [f"p{i:02d}" for i in range(1, n + 1)]


def _sun(local: datetime) -> float:
    """Clear-sky shape in [0, 1]: longer, higher days in summer."""
    doy = local.timetuple().tm_yday
    season = math.sin(2 * math.pi * (doy - 80) / 366)
    half_day = 6.0 + 2.2 * season
    solar_noon = 12.0 + (local.utcoffset() / timedelta(hours=1)) - 0.15
    hour = local.hour + local.minute / 60 + 0.25  # slot centre
    x = (hour - solar_noon) / half_day
    if abs(x) >= 1:
        return 0.0
    return (0.65 + 0.35 * season) * math.cos(math.pi * x / 2) ** 2


def _office(local: datetime, night: float, peak: float) -> float:
    hour = local.hour + local.minute / 60
    if local.weekday() >= 5 or not 7 <= hour < 20:
        return night
    ramp = min(1.0, (hour - 7) / 2, (20 - hour) / 2)
    return night + (peak - night) * ramp


class Dataset:
    """One community's meter readings over a window, plus ground truth."""

    def __init__(self, rng: random.Random, start: date, days: int, n_participants: int, with_pv: bool):
        self.ids = participant_ids(n_participants)
        first = paris_midnight_utc(start)
        end = paris_midnight_utc(start + timedelta(days=days))
        self.slots = int((end - first) / SLOT)
        self.starts = [first + k * SLOT for k in range(self.slots + 1)]  # plus closing boundary
        self.local = [paris_local(ts) for ts in self.starts]
        self.truth: dict[str, list[int]] = {}
        self.rows: list[str] = []

        day_means = []
        for i, pid in enumerate(self.ids):
            scale = rng.uniform(0.5, 2.0)
            night, peak = 1500 * scale, rng.uniform(4.0, 8.0) * 1500 * scale
            targets = [
                _office(self.local[k], night, peak) * rng.uniform(0.9, 1.1) for k in range(self.slots)
            ]
            day_means.append(sum(targets) / self.slots)
            getattr(self, "_emit_" + kind_of(i))(rng, pid, targets)
        if with_pv:
            self._emit_pv(rng, 2.6 * sum(day_means))

    def _emit_energy_wh(self, rng, pid, targets):
        values = [round(t) for t in targets]
        for k, wh in enumerate(values):
            self.rows.append(f"{pid},linky,{self.local[k].isoformat()},energy_wh,{wh}")
        self.truth[pid] = values

    def _emit_power_kw_10min(self, rng, pid, targets):
        values = []
        for k, t in enumerate(targets):
            mean_kw = t / 500
            kws = [max(0, round(mean_kw * rng.uniform(0.85, 1.15))) for _ in range(3)]
            for j, kw in enumerate(kws):
                ts = self.local[k] + timedelta(minutes=10 * j)
                self.rows.append(f"{pid},sme_smi,{ts.isoformat()},power_kw_10min,{kw}")
            values.append(round_half_even(Fraction(sum(kws) * 500, 3)))
        self.truth[pid] = values

    def _emit_energy_kwh_index(self, rng, pid, targets):
        cum_wh = rng.randint(0, 10**9)
        index = [cum_wh // 1000]
        for t in targets:
            cum_wh += round(t)
            index.append(cum_wh // 1000)
        for k, kwh in enumerate(index):
            self.rows.append(f"{pid},sme_smi,{self.local[k].isoformat()},energy_kwh_index,{kwh}")
        self.truth[pid] = [(b - a) * 1000 for a, b in zip(index, index[1:])]

    def _emit_pv(self, rng, peak_wh):
        values = []
        cloud = 1.0
        for k in range(self.slots):
            local = self.local[k]
            if local.hour == 0 and local.minute == 0:
                cloud = rng.uniform(0.25, 1.0)
            values.append(round(peak_wh * cloud * _sun(local) * rng.uniform(0.9, 1.05)))
        for k, wh in enumerate(values):
            self.rows.append(f"{PRODUCTION_METER},linky,{self.local[k].isoformat()},energy_wh,{wh}")
        self.truth[PRODUCTION_METER] = values

    def write(self, path: Path) -> dict:
        """Write the meter CSV to ``path``; return the ground truth it encodes."""
        header = "meter_id,meter_class,timestamp,quantity_kind,value"
        path.write_text("\n".join([header, *self.rows]) + "\n", encoding="utf-8")
        return {
            "first_slot_utc": self.starts[0],
            "slots": self.slots,
            "participants": self.ids,
            "csv_rows": len(self.rows),
            "meters": self.truth,
        }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _community(rng: random.Random, ids: list[str]) -> dict:
    ranks = list(range(1, len(ids) + 1))
    rng.shuffle(ranks)
    return {
        "participants": [
            {
                "id": pid,
                "tariff_eur_per_kwh": f"0.{rng.randint(100, 220)}",
                "grid_uplift_pct": str(rng.randint(0, 40)),
                "tax_uplift_pct": str(rng.randint(0, 40)),
                "priority_rank": rank,
            }
            for pid, rank in zip(ids, ranks)
        ],
        "production_meter": PRODUCTION_METER,
        "feed_in_eur_per_kwh": "0.06",
    }


def _static_kors(rng: random.Random, ids: list[str]) -> dict[str, float]:
    """Integer parts per 10^4, each at least one, summing to exactly 10^4."""
    cuts = sorted(rng.sample(range(1, KOR_SCALE), len(ids) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, KOR_SCALE])]
    return {pid: part / KOR_SCALE for pid, part in zip(ids, parts)}


# name -> (settle window start, days, participants, derive-kors history)
# A history of None means derive-kors reads the settled data itself.
WORKLOADS = {
    "year-3p": (date(2024, 1, 1), 366, 3, None),
    "month-40p": (date(2024, 10, 1), 31, 40, None),
    "kor-history": (date(2024, 10, 1), 31, 9, (date(2024, 1, 1), 366)),
}


def generate(workload: str, seed: int, directory: str | Path, scale: float = 1.0) -> dict:
    """Write one workload's inputs into ``directory`` and describe them.

    ``scale`` shortens every window (at least one day) so tests can run a
    workload at a tiny size.
    """
    start, days, n, history = WORKLOADS[workload]
    days = max(1, round(days * scale))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")

    settled = Dataset(rng, start, days, n, with_pv=True)
    truth = settled.write(directory / "meters.csv")
    _write_json(directory / "community.json", _community(rng, settled.ids))
    _write_json(directory / "kors.json", _static_kors(rng, settled.ids))
    _write_json(
        directory / "run_config.json",
        {
            "meter_csvs": ["meters.csv"],
            "community": "community.json",
            "kors": "kors.json",
            "policies": list(POLICIES),
            "out_dir": "out",
        },
    )
    if history is None:
        kor_truth = truth
        kor_csv = "meters.csv"
    else:
        h_start, h_days = history
        history_set = Dataset(rng, h_start, max(1, round(h_days * scale)), n, with_pv=False)
        kor_truth = history_set.write(directory / "history.csv")
        kor_csv = "history.csv"
    _write_json(
        directory / "kors_config.json",
        {"meter_csvs": [kor_csv], "community": "community.json", "out_dir": "out"},
    )
    return {"run_config": str(directory / "run_config.json"), "truth": truth, "kor_truth": kor_truth}
