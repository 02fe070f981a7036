"""Demo-day generator: determinism and the shape guarantees."""

import hashlib
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


def test_demo_files_bytes_pinned(tmp_path):
    paths = synthesize_demo_data("high_radiation", 7, tmp_path)
    assert {role: path.name for role, path in paths.items()} == {
        "community": "community.json",
        "kors": "kors.json",
        "meters": "meters.csv",
        "run_config": "run_config.json",
        "scenario": "scenario.cfg",
        "scenario_dc": "scenario_dc.cfg",
    }
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == {
        "community.json": "859b7c50c027e8a30756c75335f795d194770b3a313946baa34c5b4a3363c4dc",
        "kors.json": "f9693e92196f60c7903e01654f448257f6cc5384de85fc57b70dfeabb31c97e7",
        "meters.csv": "789c79bf72c32d8912375652927fd70fedae6e922354d7252d6a7a837a012eb7",
        "run_config.json": "9b8d02e6a1adeb0648c6ec17addf8270b1fce0da6eb41f8f5405f676d4235371",
        "scenario.cfg": "a9fe3a5f24d7a3255c8d98775ee16f7309f08ce0d7a212bc3e8c65b95afb94fd",
        "scenario_dc.cfg": "9a39119fd2dacd336d11381f39b4301cb77b20f68e7ee242c79424b84ee14abc",
    }


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
