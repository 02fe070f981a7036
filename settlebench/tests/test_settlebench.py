"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest settlebench/tests -q
"""

import filecmp
import json
import random
import shutil
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

import checks
import loop
import run
import synthdata
from layers import Tracer

TINY = 0.01  # year windows shrink to 4 days, month windows to 1


def run_tiny(workload: str, directory: Path, rounds: int = 1) -> tuple[dict, list[dict]]:
    from cscshare import cli

    spec = synthdata.generate(workload, 7, directory, scale=TINY)
    (directory / "runs").mkdir()
    ops = []
    for index in range(rounds):
        ops += loop.run_round(cli.main, directory, index, traced=False)
    return spec, ops


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny year-3p round whose outputs each test copies before corrupting."""
    directory = tmp_path_factory.mktemp("pristine")
    spec, ops = run_tiny("year-3p", directory)
    return directory, spec, ops


def _copy(pristine, tmp_path):
    directory, spec, ops = pristine
    target = tmp_path / "data"
    shutil.copytree(directory, target)
    return target, spec, [dict(op) for op in ops]


def test_generator_is_deterministic_for_a_seed(tmp_path):
    for name in ("a", "b"):
        synthdata.generate("kor-history", 11, tmp_path / name, scale=TINY)
    synthdata.generate("kor-history", 12, tmp_path / "c", scale=TINY)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert not mismatch and not errors
    assert (tmp_path / "a" / "meters.csv").read_bytes() != (tmp_path / "c" / "meters.csv").read_bytes()


def test_paris_offsets_switch_on_the_last_sundays():
    def offset_hours(text):
        return synthdata.paris_offset(datetime.fromisoformat(text).replace(tzinfo=timezone.utc)).seconds // 3600

    assert offset_hours("2024-03-31T00:59") == 1
    assert offset_hours("2024-03-31T01:00") == 2
    assert offset_hours("2024-10-27T00:59") == 2
    assert offset_hours("2024-10-27T01:00") == 1
    rng = random.Random(0)
    assert synthdata.Dataset(rng, date(2024, 3, 31), 1, 3, with_pv=True).slots == 46
    assert synthdata.Dataset(rng, date(2024, 10, 27), 1, 3, with_pv=True).slots == 50


def test_static_kors_are_parts_per_ten_thousand_summing_to_one():
    kors = synthdata._static_kors(random.Random(3), synthdata.participant_ids(40))
    parts = [round(v * synthdata.KOR_SCALE) for v in kors.values()]
    assert all(p >= 1 for p in parts) and sum(parts) == synthdata.KOR_SCALE


@pytest.mark.parametrize("workload", sorted(synthdata.WORKLOADS))
def test_every_workload_passes_its_checks_and_repeats_its_bytes(workload, tmp_path):
    spec, ops = run_tiny(workload, tmp_path, rounds=2)
    problems, _, hashes = run.judge(ops, tmp_path, spec)
    assert problems == []
    assert not any(op["failed"] for op in ops)
    assert all(hashes.values())


def test_flipped_byte_in_audit_log_fails_audit_verify(pristine, tmp_path):
    from cscshare import cli

    data, spec, ops = _copy(pristine, tmp_path)
    log = data / "runs" / "settle-0" / "audit.log"
    raw = bytearray(log.read_bytes())
    at = raw.index(b'"energy_wh":') + len(b'"energy_wh":')
    raw[at] ^= 0x01  # one digit becomes its neighbour, the line stays valid JSON
    log.write_bytes(bytes(raw))
    ops[-1] = {**ops[-1], **loop.run_op(cli.main, ["audit-verify", str(log)])}
    run.judge(ops, data, spec)
    assert [op["failed"] for op in ops] == [False, False, True]


def test_altered_allocation_cell_fails_settle(pristine, tmp_path):
    data, spec, ops = _copy(pristine, tmp_path)
    path = data / "runs" / "settle-0" / "default-dynamic_allocations.csv"
    lines = path.read_text().splitlines()
    cells = lines[20].split(",")
    cells[2] = str(int(cells[2]) + 1)  # first participant's consumption
    lines[20] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems, _, _ = run.judge(ops, data, spec)
    assert [op["failed"] for op in ops] == [False, True, False]
    assert any("consumption" in p for p in problems)


def test_wrong_kors_value_fails_derive_kors(pristine, tmp_path):
    data, spec, ops = _copy(pristine, tmp_path)
    path = data / "runs" / "kors-0.json"
    path.write_text(path.read_text().replace("0.", "0.1", 1))
    run.judge(ops, data, spec)
    assert [op["failed"] for op in ops] == [True, False, False]


def test_differing_repetition_fails(pristine, tmp_path):
    data, spec, ops = _copy(pristine, tmp_path)
    ops = ops + [{**ops[1], "round": 1, "sha256": "0" * 64}]
    run.judge(ops, data, spec)
    assert [op["failed"] for op in ops] == [False, False, False, True]


def test_offset_mismatches_are_counted_not_failed(tmp_path):
    from cscshare import cli

    spec = synthdata.generate("kor-history", 7, tmp_path)  # October, across the switch
    out = tmp_path / "out"
    assert loop.run_op(cli.main, ["run", "--config", spec["run_config"], "--out", str(out)])["ok"]
    truth = spec["truth"]
    assert checks.check_settle(out, truth)[0] == []

    def rewrite_offsets(render):
        for path in out.glob("*_allocations.csv"):
            lines = path.read_text().splitlines()
            for i in range(1, len(lines)):
                stamp, rest = lines[i].split(",", 1)
                lines[i] = render(datetime.fromisoformat(stamp).astimezone(timezone.utc)) + "," + rest
            path.write_text("\n".join(lines) + "\n")

    rewrite_offsets(lambda utc: synthdata.paris_local(utc).isoformat())
    assert checks.check_settle(out, truth) == ([], 0)
    rewrite_offsets(lambda utc: utc.astimezone(timezone(timedelta(hours=1))).isoformat())
    summer = sum(
        synthdata.paris_offset(truth["first_slot_utc"] + k * synthdata.SLOT) == timedelta(hours=2)
        for k in range(truth["slots"])
    )
    assert 0 < summer < truth["slots"]
    assert checks.check_settle(out, truth) == ([], summer)


def test_traced_round_accounts_for_its_wall_time(tmp_path):
    from cscshare import cli

    spec = synthdata.generate("month-40p", 7, tmp_path, scale=TINY)
    (tmp_path / "runs").mkdir()
    original = cli.main.commands["run"].callback
    tracer = Tracer()
    with tracer.installed():
        ops = loop.run_round(cli.main, tmp_path, 0, traced=True)
    assert cli.main.commands["run"].callback is original
    wall = sum(op["wall_s"] for op in ops)
    uncovered = wall - sum(tracer.self_s.values())
    assert 0 <= uncovered < 0.05 * wall
    truth = spec["truth"]
    assert tracer.counts["ledger.records"] == checks.expected_records(truth)
    assert tracer.counts["kernels.calls"] == tracer.counts["allocation.slot_allocations"] == truth["slots"] * 4
    assert set(run.LAYER_TIMES) <= set(tracer.self_s)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "settlebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "settlebench/run.py", "--workload", "year-3p", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [*run.E2E.values(), "peak_rss_mb", "setup_s"]
    ops = [
        {"op": op, "traced": traced, "corrected_s": 1.0} for op in run.OPS for traced in (False, True)
    ]
    traced_round = {"wall_s": 1.0, "self_s": {}, "counts": {}, "uncovered_s": 0.0}
    metrics = run.layer_metrics({"ops": ops, "traced_rounds": [traced_round]}, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_, unit) in metrics.items()}
