"""Demo-day generator: determinism and the shape guarantees."""

from pathlib import Path

import pytest

from cscshare.ingestion import (
    add_constant_load,
    apply_pv_gain,
    ingest_csv,
    normalize_to_slots,
    readings_by_meter,
)
from cscshare.model import Kind
from cscshare.synth import DEMO_DC_LOAD_KW, DEMO_PV_GAIN, PROFILES, synthesize_demo_data


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _load_series(out_dir: Path):
    result = ingest_csv(out_dir / "meters.csv")
    assert result.ok
    by_meter = readings_by_meter([result])
    production = normalize_to_slots(by_meter.pop("pv1"), kind=Kind.PRODUCTION)
    consumption = {
        pid: normalize_to_slots(readings, kind=Kind.CONSUMPTION)
        for pid, readings in by_meter.items()
    }
    return production, consumption


def test_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synthesize_demo_data("low_radiation", 13, a)
    synthesize_demo_data("low_radiation", 13, b)
    assert _tree_bytes(a) == _tree_bytes(b)


def test_different_seed_different_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synthesize_demo_data("low_radiation", 13, a)
    synthesize_demo_data("low_radiation", 14, b)
    assert _tree_bytes(a) != _tree_bytes(b)


def test_unknown_profile_rejected(tmp_path):
    with pytest.raises(ValueError, match="profile"):
        synthesize_demo_data("medium", 1, tmp_path)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_high_radiation_exceeds_combined_consumption_somewhere(tmp_path, seed):
    out = tmp_path / str(seed)
    synthesize_demo_data("high_radiation", seed, out)
    production, consumption = _load_series(out)
    production = apply_pv_gain(production, DEMO_PV_GAIN)
    combined = [
        sum(series.energies[k] for series in consumption.values())
        for k in range(len(production))
    ]
    assert any(p > c for p, c in zip(production.energies, combined))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_datacentre_keeps_consumption_above_production(tmp_path, profile, seed):
    out = tmp_path / f"{profile}-{seed}"
    synthesize_demo_data(profile, seed, out)
    production, consumption = _load_series(out)
    production = apply_pv_gain(production, DEMO_PV_GAIN)
    consumption["b4"] = add_constant_load(consumption["b4"], DEMO_DC_LOAD_KW)
    combined = [
        sum(series.energies[k] for series in consumption.values())
        for k in range(len(production))
    ]
    assert all(c > p for p, c in zip(production.energies, combined))


def test_low_radiation_peaks_below_combined_consumption(tmp_path):
    synthesize_demo_data("low_radiation", 7, tmp_path / "d")
    production, consumption = _load_series(tmp_path / "d")
    production = apply_pv_gain(production, DEMO_PV_GAIN)
    peak = max(production.energies)
    combined_at_peak = sum(
        series.energies[production.energies.index(peak)]
        for series in consumption.values()
    )
    assert peak < combined_at_peak
