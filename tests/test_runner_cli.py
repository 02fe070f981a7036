"""End-to-end runs, output contract, exit codes, determinism."""

import csv
import gc
import hashlib
import importlib.util
import json
import os
import re
import shutil
import time
import tracemalloc
import warnings
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from cscshare import runner as runner_mod
from cscshare.billing import compute_scr
from cscshare.cli import main
from cscshare.ledger import Ledger, read_ledger, verify_chain, write_ledger
from cscshare.model import AllocationTable, DateRange, parse_timestamp
from cscshare.runner import POLICY_NAMES, load_run_config, publish, run
from cscshare.synth import synthesize_demo_data

from conftest import cents, paris_2024


@pytest.fixture
def demo(tmp_path):
    synthesize_demo_data("high_radiation", 7, tmp_path)
    return tmp_path


def _tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with a file's bytes; a directory, even
    an empty one, shows as None."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestRun:
    def test_emits_reports_allocations_comparison_ledger(self, demo):
        config = load_run_config(demo / "run_config.json")
        result = run(config)
        names = sorted(p.name for p in result.files)
        expected = sorted(
            [f"{p}_report.json" for p in POLICY_NAMES]
            + [f"{p}_allocations.csv" for p in POLICY_NAMES]
            + ["comparison.csv", "comparison.json", "audit.log"]
        )
        assert names == expected
        assert all(p.exists() for p in result.files)

    def test_allocation_csv_columns(self, demo):
        result = run(load_run_config(demo / "run_config.json"))
        csv_path = result.out_dir / "static_allocations.csv"
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == [
            "slot_start", "production_wh",
            "consumption_b1_wh", "consumption_b2_wh", "consumption_b4_wh",
            "self_consumed_b1_wh", "self_consumed_b2_wh", "self_consumed_b4_wh",
            "surplus_wh",
        ]
        assert len(csv_path.read_text().splitlines()) == 49  # header + 48 slots

    def test_ledger_verifies_and_orders_appends(self, demo):
        result = run(load_run_config(demo / "run_config.json"))
        ledger = read_ledger(result.out_dir / "audit.log")
        assert verify_chain(ledger).intact
        # per slot: production, three consumptions, four policy coefficient records
        assert len(ledger) == 48 * (1 + 3 + 4)
        lines = (result.out_dir / "audit.log").read_text().splitlines()
        keys = [json.loads(line)["counting_point_key"] for line in lines[:8]]
        assert keys == ["pv1", "b1", "b2", "b4", "KOR", "KOR", "KOR", "KOR"]

    def test_scr_ordering_across_policies(self, demo):
        comparison = run(load_run_config(demo / "run_config.json")).comparison
        scr = {
            name: (report.self_consumed_total, report.production_total)
            for name, (report, _) in comparison.reports.items()
        }
        def frac(name):
            sc, prod = scr[name]
            return sc / prod
        assert frac("static33") <= frac("static")
        assert frac("static") <= frac("default-dynamic")
        assert frac("default-dynamic") == frac("custom-dynamic")

    def test_run_is_deterministic(self, demo):
        out_a = demo / "out_a"
        out_b = demo / "out_b"
        run(load_run_config(demo / "run_config.json", out_override=out_a))
        run(load_run_config(demo / "run_config.json", out_override=out_b))
        assert _tree_bytes(out_a) == _tree_bytes(out_b)

    def test_policy_filter(self, demo):
        config = load_run_config(
            demo / "run_config.json", policy_filter=["default-dynamic"]
        )
        result = run(config)
        assert sorted(p.name for p in result.files) == [
            "audit.log", "comparison.csv", "comparison.json",
            "default-dynamic_allocations.csv", "default-dynamic_report.json",
        ]

    def test_narrower_rerun_removes_other_policies_outputs(self, demo):
        out = run(load_run_config(demo / "run_config.json")).out_dir
        (out / "notes.txt").write_text("kept by the user\n")
        run(load_run_config(demo / "run_config.json", policy_filter=["static"]))
        assert sorted(p.name for p in out.iterdir()) == [
            "audit.log", "comparison.csv", "comparison.json", "notes.txt",
            "static_allocations.csv", "static_report.json",
        ]
        assert (out / "notes.txt").read_text() == "kept by the user\n"

    def test_demo_audit_log_bytes_pinned(self, demo):
        # catches a refactor that changes output bytes, which comparing two
        # runs of the same code cannot
        out = run(load_run_config(demo / "run_config.json")).out_dir
        digest = hashlib.sha256((out / "audit.log").read_bytes()).hexdigest()
        assert digest == "46bbba44ade33731324752d1e1e86da185f74af93a39833d9dfd0cc980e54a38"

    def test_demo_output_tree_bytes_pinned(self, demo):
        out = run(load_run_config(demo / "run_config.json")).out_dir
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {
            "audit.log": "46bbba44ade33731324752d1e1e86da185f74af93a39833d9dfd0cc980e54a38",
            "comparison.csv": "2172214aa844e9c1a810879a21b4e2113da65a093ba88d5bbaa516c31bc8a15e",
            "comparison.json": "ce53e7587e1e3bca4f54ca9d00e60d4f952bede8e3d370b80c45258700eb56a0",
            "custom-dynamic_allocations.csv": "deac7dc8952dbdc1983c751b0e44313917739d1ecb3ebb88e7585e4978cffa4a",
            "custom-dynamic_report.json": "512763c4c9e229a60cf98e86c968bc1a6ed3e427e7a9040934088f35e4804390",
            "default-dynamic_allocations.csv": "52c1a9b7645858e75da1f3926fb915e3467ab186309c5d840b46d550d655708b",
            "default-dynamic_report.json": "ce33173287f570e6daa8b1d331e67d1d61d280f1dd400f38d17537405a28d92d",
            "static33_allocations.csv": "2c35fa7dcf07766d053708504cca1e8d81cc795176e26b357849501c472aa60c",
            "static33_report.json": "6079c8874417b483ec74a3745179da809c527715ca49266b348598907f193199",
            "static_allocations.csv": "1a06ae3f556accef7017c1df1b27cade746f7efa9f53c8d86d314a2f99e07529",
            "static_report.json": "1421534dabf2d1ea31d890036434efe1baf735dfb7fd09d79702f1511a10983e",
        }

    @pytest.mark.parametrize(
        "ranks",
        [[None] * 3, ["1"] * 3, [1.5] * 3, [True] * 3, [3, 2, 1]],
        ids=["null", "text", "fraction", "true", "reversed"],
    )
    def test_priority_rank_is_ignored(self, demo, ranks):
        plain = run(load_run_config(demo / "run_config.json", out_override=demo / "plain")).out_dir

        def set_ranks(raw):
            for participant, rank in zip(raw["participants"], ranks):
                participant["priority_rank"] = rank

        _edit_json(demo / "community.json", set_ranks)
        ranked = run(load_run_config(demo / "run_config.json", out_override=demo / "ranked")).out_dir
        assert _tree_bytes(ranked) == _tree_bytes(plain)

    def test_validation_failure_leaves_no_outputs(self, demo):
        raw = json.loads((demo / "run_config.json").read_text())
        raw["kors"] = {"b1": 0.5, "b2": 0.2, "b4": 0.2}  # sums to 0.9
        (demo / "run_config.json").write_text(json.dumps(raw))
        config = load_run_config(demo / "run_config.json")
        with pytest.raises(ValueError, match="KoR sum"):
            run(config)
        assert not config.out_dir.exists()
        assert not list(demo.glob(".staging-*"))

    def test_zero_policies_rejected(self, demo):
        raw = json.loads((demo / "run_config.json").read_text())
        raw["policies"] = []
        (demo / "run_config.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="at least one policy"):
            load_run_config(demo / "run_config.json")

    def test_static_without_kors_rejected(self, demo):
        raw = json.loads((demo / "run_config.json").read_text())
        del raw["kors"]
        (demo / "run_config.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="kors"):
            run(load_run_config(demo / "run_config.json"))

    def test_datacentre_scenario_without_meter_rejected(self, demo):
        community = json.loads((demo / "community.json").read_text())
        del community["datacentre_meter"]
        (demo / "community.json").write_text(json.dumps(community))
        raw = json.loads((demo / "run_config.json").read_text())
        raw["scenario"] = "scenario_dc.cfg"
        (demo / "run_config.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="datacentre_meter"):
            run(load_run_config(demo / "run_config.json"))

    def test_meter_data_may_span_multiple_csvs(self, demo):
        lines = (demo / "meters.csv").read_text().splitlines()
        header, rows = lines[0], lines[1:]
        (demo / "part1.csv").write_text("\n".join([header] + rows[: len(rows) // 2]) + "\n")
        (demo / "part2.csv").write_text("\n".join([header] + rows[len(rows) // 2:]) + "\n")
        raw = json.loads((demo / "run_config.json").read_text())
        raw["meter_csvs"] = ["part1.csv", "part2.csv"]
        raw["out_dir"] = "reports_split"
        (demo / "run_config.json").write_text(json.dumps(raw))
        single = run(load_run_config(demo / "run_config.json", out_override=demo / "single"))
        # same data split across files gives the same comparison table
        split = run(load_run_config(demo / "run_config.json"))
        assert split.comparison.to_csv_rows() == single.comparison.to_csv_rows()

    def test_synth_scenario_files_parse(self, demo):
        from cscshare.ingestion import ScenarioConfig

        plain = ScenarioConfig.from_file(demo / "scenario.cfg")
        with_dc = ScenarioConfig.from_file(demo / "scenario_dc.cfg")
        assert plain.pv_gain == Decimal("25.48") and not plain.include_datacentre
        assert with_dc.include_datacentre and with_dc.datacentre_load_kw == 100

    def test_explicit_priority_order_honoured(self, demo):
        raw = json.loads((demo / "run_config.json").read_text())
        raw["priority_order"] = ["b4", "b2", "b1"]
        raw["policies"] = ["custom-dynamic"]
        (demo / "run_config.json").write_text(json.dumps(raw))
        result = run(load_run_config(demo / "run_config.json"))
        report = json.loads((result.out_dir / "custom-dynamic_report.json").read_text())
        # with b4 first in line it self-consumes more than it would otherwise
        assert Decimal(report["savings"]["per_participant_eur"]["b4"]) > 0


def _four_weeks(demo: Path) -> None:
    """Repeat the demo day's meter rows over 1-28 June 2024 (all +02:00)."""
    header, *rows = (demo / "meters.csv").read_text(encoding="utf-8").splitlines()
    days = [row.replace("2024-06-12T", f"2024-06-{d:02d}T") for d in range(1, 29) for row in rows]
    (demo / "meters.csv").write_text("\n".join([header, *days]) + "\n", encoding="utf-8")


class TestStreamedLog:
    """The run streams its log into staging, and reading a log keeps none
    of its lines, so neither holds the log in memory."""

    def test_run_and_read_peak_under_a_fraction_of_the_log(self, demo):
        """Held, the log alone would be above its file's size. Streamed,
        the run's peak is set by ingestion: the power meter's Decimal values
        and the file's timestamp cache come near half the log on this
        input, so the run is held to three quarters of it."""
        _four_weeks(demo)
        config = load_run_config(demo / "run_config.json")
        run(config)  # what a first call allocates once is not the run's
        gc.collect()
        tracemalloc.start()
        try:
            out = run(config).out_dir
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ledger = read_ledger(out / "audit.log")
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (out / "audit.log").stat().st_size
        assert len(ledger) == 28 * 48 * (1 + 3 + 4) and verify_chain(ledger).intact
        assert run_peak < size * 3 / 4, (run_peak, size)
        assert read_peak < size / 2, (read_peak, size)

    def test_append_raising_midway_leaves_no_staging_and_no_open_file(self, demo, monkeypatch):
        """Every ResourceWarning is recorded, as an unclosed file warns
        when it is freed, and none may be."""
        _four_weeks(demo)
        config = load_run_config(demo / "run_config.json")
        append, calls = Ledger.append, []

        class Boom(Exception):
            pass

        def failing(self, *args):
            calls.append(None)
            if len(calls) == 5000:  # after a few writes to the staged log
                raise Boom
            return append(self, *args)

        monkeypatch.setattr(Ledger, "append", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                run(config)
            except Boom:
                pass
            else:
                pytest.fail("the run did not raise")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert len(calls) == 5000
        assert sorted(p.name for p in demo.iterdir() if p.name.startswith(".staging-")) == []
        assert not (demo / "reports").exists()


def _synthdata_month(directory: Path) -> Path:
    """The benchmark's month-40p inputs, shortened to 4 days of 40
    participants (63,744 report cells), in ``directory``; the run config."""
    spec = importlib.util.spec_from_file_location(
        "synthdata", Path(__file__).parents[1] / "settlebench" / "synthdata.py"
    )
    synthdata = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synthdata)
    return Path(synthdata.generate("month-40p", 5, directory, scale=4 / 31)["run_config"])


class TestForkedReports:
    """A run of ``_FORKED_REPORT_CELLS`` or more has its report files
    written by a forked child while it builds the log; the tree is the one
    written in the same process."""

    @pytest.fixture
    def settle(self, monkeypatch):
        """Run a config into ``out`` with the report files written by a
        forked child, or not; return the tree and whether this process
        wrote them."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        write, calls = runner_mod._write_reports, []

        def counted(*args):
            calls.append(None)  # a forked child counts in its own copy
            return write(*args)

        monkeypatch.setattr(runner_mod, "_write_reports", counted)

        def settle(config: Path, out: Path, forked: bool):
            monkeypatch.setattr(runner_mod, "_FORKED_REPORT_CELLS", 0 if forked else float("inf"))
            calls.clear()
            run(load_run_config(config, out_override=out))
            return _tree_bytes(out), len(calls) == 1

        return settle

    @pytest.mark.parametrize("source", ["demo", "synthdata month"])
    def test_forked_and_serial_writes_give_the_same_tree(self, tmp_path, settle, source):
        if source == "demo":
            synthesize_demo_data("high_radiation", 7, tmp_path / "in")
            config = tmp_path / "in" / "run_config.json"
        else:
            config = _synthdata_month(tmp_path / "in")
        forked, written_here = settle(config, tmp_path / "forked", True)
        assert not written_here
        assert settle(config, tmp_path / "serial", False) == (forked, True)
        assert len(forked) == 11 and all(forked.values())
        _assert_no_child_left()

    def test_a_child_that_sends_nothing_leaves_the_same_tree(self, demo, settle, monkeypatch):
        """The parent writes the files itself, over any the child left."""
        config = demo / "run_config.json"
        serial = settle(config, demo / "serial", False)

        def partial(staging, *args):
            (staging / "comparison.csv").write_text("half a file")

        monkeypatch.setattr(runner_mod, "_reports_written", partial)
        assert settle(config, demo / "forked", True) == serial
        _assert_no_child_left()

    def test_a_failing_log_kills_the_child_and_keeps_the_old_tree(self, demo, settle, monkeypatch):
        config = demo / "run_config.json"
        old, _ = settle(config, demo / "out", True)

        class Boom(Exception):
            pass

        def failing(*args):
            raise Boom

        monkeypatch.setattr(runner_mod, "_reports_written", lambda *args: time.sleep(60))
        monkeypatch.setattr(runner_mod, "_build_ledger", failing)
        start = time.monotonic()
        with pytest.raises(Boom):
            settle(config, demo / "out", True)
        assert time.monotonic() - start < 30
        _assert_no_child_left()
        assert _tree_bytes(demo / "out") == old
        assert not any(p.name.startswith(".staging-") for p in (demo / "out").iterdir())


def _assert_no_child_left():
    """This process has no child, running or exited and not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_replace(monkeypatch, k: int) -> list:
    """Make the k-th ``Path.replace`` from now raise (none, for k = 0);
    the returned list grows by one per call."""
    replace, calls = Path.replace, []

    def failing(self, target):
        calls.append(None)
        if len(calls) == k:
            raise OSError(f"replace {k} failed")
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", failing)
    return calls


class TestPublish:
    """Every command publishes its files through one stage-then-move step,
    which leaves the old tree or the new one, byte for byte."""

    def _each_failing_replace(self, monkeypatch, root, setup, args):
        """Make each ``Path.replace`` of the command ``args`` raise in
        turn, over a fresh ``setup(root)``. Return how many it makes and
        the tree it leaves when none raises."""
        setup(root)
        old = _tree_bytes(root)
        with monkeypatch.context() as m:
            calls = _failing_replace(m, 0)
            r = CliRunner().invoke(main, args)
        assert r.exit_code == 0, r.output
        assert not list(root.rglob(".staging-*"))
        new = _tree_bytes(root)
        assert new != old
        for k in range(1, len(calls) + 1):
            shutil.rmtree(root)
            setup(root)
            with monkeypatch.context() as m:
                _failing_replace(m, k)
                r = CliRunner().invoke(main, args)
            assert r.exit_code == 2, (k, r.output)
            assert f"I/O error: replace {k} failed" in r.output
            assert _tree_bytes(root) == old, k
        return len(calls), new

    def test_a_rerun_leaves_the_old_tree_or_the_new(self, tmp_path, monkeypatch):
        root = tmp_path / "demo"

        def setup(root):
            synthesize_demo_data("high_radiation", 7, root)
            run(load_run_config(root / "run_config.json"))
            (root / "reports" / "notes.txt").write_text("kept by the user\n")
            _edit_json(root / "run_config.json", lambda raw: raw.update(scenario="scenario_dc.cfg"))

        args = ["run", "--config", str(root / "run_config.json"),
                "--policy", "custom-dynamic", "--policy", "static33"]
        moves, new = self._each_failing_replace(monkeypatch, root, setup, args)
        # 7 old files and 4 of the policies not rerun moved aside, 7 moved in
        assert moves == 18
        assert new["reports/notes.txt"] == b"kept by the user\n"
        assert "reports/static_report.json" not in new

    def test_a_first_run_leaves_no_out_dir_or_the_new(self, tmp_path, monkeypatch):
        root = tmp_path / "demo"
        args = ["run", "--config", str(root / "run_config.json")]
        setup = lambda root: synthesize_demo_data("high_radiation", 7, root)  # noqa: E731
        assert self._each_failing_replace(monkeypatch, root, setup, args)[0] == 11

    def test_derive_kors_over_its_file_leaves_the_old_or_the_new(self, tmp_path, monkeypatch):
        root = tmp_path / "demo"

        def setup(root):
            synthesize_demo_data("high_radiation", 7, root)
            (root / "kors.json").write_text('{"b1": 1.0, "b2": 0.0, "b4": 0.0}\n')
            (root / "notes.txt").write_text("kept by the user\n")

        args = ["derive-kors", "--config", str(root / "run_config.json"),
                "--out", str(root / "kors.json")]
        moves, new = self._each_failing_replace(monkeypatch, root, setup, args)
        assert moves == 2 and new["notes.txt"] == b"kept by the user\n"

    def test_ingest_over_its_directory_leaves_the_old_or_the_new(self, tmp_path, monkeypatch):
        root = tmp_path / "demo"

        def setup(root):
            synthesize_demo_data("high_radiation", 8, root / "seed8")
            r = CliRunner().invoke(main, ["ingest", str(root / "seed8" / "meters.csv"),
                                          "--out", str(root / "slots")])
            assert r.exit_code == 0, r.output
            synthesize_demo_data("high_radiation", 7, root)
            (root / "slots" / "notes.txt").write_text("kept by the user\n")

        args = ["ingest", str(root / "meters.csv"), "--out", str(root / "slots")]
        moves, new = self._each_failing_replace(monkeypatch, root, setup, args)
        assert moves == 8 and new["slots/notes.txt"] == b"kept by the user\n"

    def test_synth_data_over_its_directory_leaves_the_old_or_the_new(self, tmp_path, monkeypatch):
        root = tmp_path / "demo"

        def setup(root):
            synthesize_demo_data("high_radiation", 8, root)
            run(load_run_config(root / "run_config.json"))
            (root / "notes.txt").write_text("kept by the user\n")

        args = ["synth-data", "high_radiation", "--out", str(root), "--seed", "7"]
        moves, new = self._each_failing_replace(monkeypatch, root, setup, args)
        assert moves == 12 and new["notes.txt"] == b"kept by the user\n"
        assert "reports/audit.log" in new

    def test_derive_kors_write_failing_part_way_keeps_the_old_file(self, demo, monkeypatch):
        (demo / "kors.json").write_text('{"b1": 1.0, "b2": 0.0, "b4": 0.0}\n')
        old = _tree_bytes(demo)
        write_text = Path.write_text

        def cut(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", cut)
        r = CliRunner().invoke(main, [
            "derive-kors", "--config", str(demo / "run_config.json"),
            "--out", str(demo / "kors.json"),
        ])
        assert r.exit_code == 2, r.output
        assert _tree_bytes(demo) == old

    def test_a_file_that_cannot_be_put_back_is_kept(self, demo, monkeypatch):
        """If putting a replaced file back fails too, the file stays in the
        staging directory it was moved to, not deleted with it."""
        kept = b'{"b1": 1.0, "b2": 0.0, "b4": 0.0}\n'
        (demo / "kors.json").write_bytes(kept)
        replace, calls = Path.replace, []

        def failing_after_the_first(self, target):
            calls.append(None)
            if len(calls) > 1:
                raise OSError("no more moves")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", failing_after_the_first)
        r = CliRunner().invoke(main, [
            "derive-kors", "--config", str(demo / "run_config.json"),
            "--out", str(demo / "kors.json"),
        ])
        assert r.exit_code == 2, r.output
        assert not (demo / "kors.json").exists()
        assert [p.read_bytes() for p in demo.glob(".staging-*/kors.json")] == [kept]

    def test_staged_files_are_synced_before_the_moves_and_the_directory_after(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old\n")
        events = []
        fsync, replace = os.fsync, Path.replace

        def synced(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def moved(self, target):
            events.append(("replace", Path(target).name))
            return replace(self, target)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(Path, "replace", moved)
        with publish(out) as staging:
            for name in ("a.txt", "b.txt"):
                (staging / name).write_text(f"new {name}\n")
            staged = [(staging / name).stat().st_ino for name in ("a.txt", "b.txt")]
        assert events == [
            *(("fsync", inode) for inode in staged),
            ("replace", "a.txt"),  # the old file, moved aside
            ("replace", "a.txt"),
            ("replace", "b.txt"),
            ("fsync", out.stat().st_ino),
        ]
        assert [(out / name).read_text() for name in ("a.txt", "b.txt")] == ["new a.txt\n", "new b.txt\n"]

    def test_a_directory_in_place_of_an_output_is_kept(self, demo):
        out = run(load_run_config(demo / "run_config.json")).out_dir
        (out / "audit.log").unlink()
        (out / "audit.log").mkdir()
        (out / "audit.log" / "notes.txt").write_text("kept by the user\n")
        _edit_json(demo / "run_config.json", lambda raw: raw.update(scenario="scenario_dc.cfg"))
        old = _tree_bytes(demo)
        with pytest.raises(IsADirectoryError, match="audit.log is a directory"):
            run(load_run_config(demo / "run_config.json"))
        assert _tree_bytes(demo) == old


def _read_allocations(path: Path) -> AllocationTable:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids = [key[len("consumption_"):-len("_wh")] for key in rows[0] if key.startswith("consumption_")]

    def column(key):
        return [int(row[key]) for row in rows]

    return AllocationTable(
        slot_starts=[parse_timestamp(row["slot_start"]) for row in rows],
        production=column("production_wh"),
        consumption={pid: column(f"consumption_{pid}_wh") for pid in ids},
        self_consumed={pid: column(f"self_consumed_{pid}_wh") for pid in ids},
        surplus=column("surplus_wh"),
    )


class TestDstRun:
    def test_run_across_spring_forward(self, demo):
        # 2024-03-30 to 2024-04-01 in Paris: 48 + 46 + 48 slots, each with
        # its own production so a one-hour shift changes a day's total
        first = datetime(2024, 3, 29, 23, tzinfo=timezone.utc)
        step = timedelta(minutes=30)
        rows = ["meter_id,meter_class,timestamp,quantity_kind,value"]
        production = {}
        for k in range(142):
            ts = paris_2024(first + k * step)
            production[ts] = 1000 + k
            rows.append(f"pv1,linky,{ts.isoformat()},energy_wh,{1000 + k}")
            rows += [f"{pid},linky,{ts.isoformat()},energy_wh,{300 + 7 * k + j}"
                     for j, pid in enumerate(("b1", "b2", "b4"))]
        (demo / "meters.csv").write_text("\n".join(rows) + "\n")
        (demo / "scenario.cfg").write_text("pv_gain = 1\n")
        out = run(load_run_config(demo / "run_config.json")).out_dir

        april_1 = [e for ts, e in production.items() if ts >= parse_timestamp("2024-04-01T00:00:00+02:00")]
        assert len(april_1) == 48
        for policy in POLICY_NAMES:
            allocations = _read_allocations(out / f"{policy}_allocations.csv")
            starts = [ts.isoformat() for ts in allocations.slot_starts]
            assert starts == [ts.isoformat() for ts in production]
            assert "2024-03-31T03:00:00+02:00" in starts
            assert "2024-03-31T02:00:00+01:00" not in starts
            report = compute_scr(allocations, DateRange.single_day(date(2024, 4, 1)))
            assert report.production_total == sum(april_1)

        lines = (out / "audit.log").read_text().splitlines()
        assert {json.loads(line)["timestamp"] for line in lines} == {ts.isoformat() for ts in production}
        r = CliRunner().invoke(main, ["audit-verify", str(out / "audit.log")])
        assert r.exit_code == 0, r.output
        assert r.output.startswith("intact (")

    def test_run_across_fall_back(self, demo):
        # 2024-10-26 to 2024-10-28 in Paris: 48 + 50 + 48 slots; 02:00-02:30
        # comes twice on the 27th, first at +02:00, then at +01:00
        first = datetime(2024, 10, 25, 22, tzinfo=timezone.utc)
        step = timedelta(minutes=30)
        rows = ["meter_id,meter_class,timestamp,quantity_kind,value"]
        production = {}
        for k in range(146):
            ts = paris_2024(first + k * step)
            production[ts] = 1000 + k
            rows.append(f"pv1,linky,{ts.isoformat()},energy_wh,{1000 + k}")
            rows += [f"{pid},linky,{ts.isoformat()},energy_wh,{300 + 7 * k + j}"
                     for j, pid in enumerate(("b1", "b2", "b4"))]
        (demo / "meters.csv").write_text("\n".join(rows) + "\n")
        (demo / "scenario.cfg").write_text("pv_gain = 1\n")
        out = run(load_run_config(demo / "run_config.json")).out_dir

        october_27 = [e for ts, e in production.items() if ts.date() == date(2024, 10, 27)]
        assert len(october_27) == 50
        for policy in POLICY_NAMES:
            allocations = _read_allocations(out / f"{policy}_allocations.csv")
            starts = [ts.isoformat() for ts in allocations.slot_starts]
            assert starts == [ts.isoformat() for ts in production]
            assert "2024-10-27T02:00:00+02:00" in starts
            assert "2024-10-27T02:00:00+01:00" in starts
            report = compute_scr(allocations, DateRange.single_day(date(2024, 10, 27)))
            assert report.production_total == sum(october_27)

        r = CliRunner().invoke(main, ["audit-verify", str(out / "audit.log")])
        assert r.exit_code == 0, r.output
        assert r.output.startswith("intact (")


def _edit_json(path: Path, edit) -> None:
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))


def _set_tariff(value):
    def edit(raw):
        raw["participants"][0]["tariff_eur_per_kwh"] = value

    return edit


def _set_run_key(key, value):
    def edit(raw):
        raw[key] = value

    return edit


def _set_kor(value):
    def edit(raw):
        raw["kors"] = {"b1": value, "b2": 0, "b4": 0}

    return edit


class TestConfigValidation:
    """Malformed config values end in exit 1 and a message, never a traceback."""

    def _run(self, demo):
        r = CliRunner().invoke(main, ["run", "--config", str(demo / "run_config.json")])
        assert r.exit_code == 1, r.output
        assert isinstance(r.exception, SystemExit), r.exception
        assert "validation error:" in r.output
        return r.output

    @pytest.mark.parametrize("text", ["abc", "NaN", "Infinity", "-inf", "sNaN"])
    def test_bad_pv_gain(self, demo, text):
        (demo / "scenario.cfg").write_text(f"pv_gain = {text}\n")
        assert f"pv_gain is not a decimal-compatible number: '{text}'" in self._run(demo)

    def test_bad_datacentre_load(self, demo):
        (demo / "scenario.cfg").write_text("datacentre_load_kw = 1,5\n")
        assert "datacentre_load_kw is not a decimal-compatible number" in self._run(demo)

    @pytest.mark.parametrize("value", ["abc", "Infinity", "NaN", True])
    def test_bad_tariff(self, demo, value):
        _edit_json(demo / "community.json", _set_tariff(value))
        assert f"tariff is not a decimal-compatible number: {value!r}" in self._run(demo)

    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999"])
    def test_tariff_beyond_the_rate_bound(self, demo, value):
        _edit_json(demo / "community.json", _set_tariff(value))
        output = self._run(demo)
        assert "participant b1: tariff has a digit outside the places 10^-100 to 10^100" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set_kor(None), "run config: kors['b1'] is not a decimal-compatible number: None"),
            (_set_kor(True), "run config: kors['b1'] is not a decimal-compatible number: True"),
            (_set_kor("half"), "run config: kors['b1'] is not a decimal-compatible number: 'half'"),
            (_set_kor([0.25]), "run config: kors['b1'] is not a decimal-compatible number: [0.25]"),
            (_set_run_key("kors", [0.25, 0.5, 0.25]), "run config: kors must be an object"),
            (_set_run_key("priority_order", 5), "run config: priority_order must be a list"),
            (_set_run_key("priority_order", "b1"), "run config: priority_order must be a list"),
            (_set_run_key("priority_order", ["b1", 2, "b4"]), "run config: priority_order must be a list"),
        ],
        ids=[
            "kor-null", "kor-bool", "kor-text", "kor-list", "kors-list",
            "order-int", "order-str", "order-non-str-entry",
        ],
    )
    def test_bad_run_config_shape(self, demo, edit, message):
        _edit_json(demo / "run_config.json", edit)
        assert message in self._run(demo)

    @pytest.mark.parametrize(
        "file, text, message",
        [
            ("run_config.json", '{\n  "meter_csvs": [,\n', "run config {}: line 2 column 18: Expecting value"),
            ("community.json", '{\n  "participants": x\n}\n', "community file {}: line 2 column 19: Expecting value"),
            ("kors.json", '{"b1": 0.5,}\n', "kors file {}: line 1 column 12: Expecting property name"),
            ("scenario.cfg", "pv_gain = 1.1\n# a comment\ndatacentre_load_kw 3\n", "scenario config {} line 3: bad line"),
            ("scenario.cfg", "include_datacentre = maybe\n", "scenario config {} line 1: bad boolean 'maybe'"),
            ("scenario.cfg", "pv_gain = 1.1\ndatacentre_load_kw = -3\n", "scenario config {} line 2: datacentre_load_kw must be >= 0"),
            ("kors.json", b'{"b1": "\xff"}\n', "kors file {}: 'utf-8' codec can't decode byte 0xff in position 8"),
            ("scenario.cfg", b"pv_gain = 1.1 \xff\n", "scenario config {}: 'utf-8' codec can't decode byte 0xff in position 14"),
            # the byte's position counts the byte-order mark's 3 bytes
            ("kors.json", b'\xef\xbb\xbf{"b1": "\xff"}\n', "kors file {}: 'utf-8' codec can't decode byte 0xff in position 11"),
            ("scenario.cfg", b"\xef\xbb\xbfpv_gain = 1.1 \xff\n", "scenario config {}: 'utf-8' codec can't decode byte 0xff in position 17"),
        ],
        ids=[
            "run-config", "community", "kors", "scenario-line", "scenario-bool", "scenario-value",
            "kors-not-utf8", "scenario-not-utf8", "kors-bom-not-utf8", "scenario-bom-not-utf8",
        ],
    )
    def test_a_malformed_file_is_named_with_its_line(self, demo, file, text, message):
        """Invalid JSON is named with its line and column, a bad scenario
        line with its line, and invalid UTF-8 with its byte's offset in
        the file."""
        (demo / file).write_bytes(text if isinstance(text, bytes) else text.encode())
        output = self._run(demo)
        assert message.format(demo / file) in output
        assert "Traceback" not in output

    def test_kors_file_must_hold_an_object(self, demo):
        (demo / "kors.json").write_text("[0.25, 0.5, 0.25]\n")
        assert "run config: kors must be an object" in self._run(demo)

    def test_kors_file_is_read_only_when_static_runs(self, demo):
        (demo / "kors.json").unlink()
        runner = CliRunner()
        r = runner.invoke(main, ["run", "--config", str(demo / "run_config.json")])
        assert r.exit_code == 2, r.output
        assert "I/O error: [Errno 2] No such file or directory" in r.output
        assert not (demo / "reports").exists()
        r = runner.invoke(
            main, ["run", "--config", str(demo / "run_config.json"), "--policy", "static33"]
        )
        assert r.exit_code == 0, r.output
        (demo / "kors.json").write_text("[0.25, 0.5, 0.25]\n")
        r = runner.invoke(
            main, ["run", "--config", str(demo / "run_config.json"), "--policy", "default-dynamic"]
        )
        assert r.exit_code == 0, r.output

    def test_out_dir_is_required_to_run(self, demo):
        _edit_json(demo / "run_config.json", lambda raw: raw.pop("out_dir"))
        assert load_run_config(demo / "run_config.json").out_dir is None
        assert "run config: out_dir is required (or pass --out)" in self._run(demo)
        r = CliRunner().invoke(
            main,
            ["run", "--config", str(demo / "run_config.json"), "--out", str(demo / "given")],
        )
        assert r.exit_code == 0, r.output
        assert (demo / "given" / "audit.log").exists()

    @pytest.mark.parametrize("key", ["id", "production_meter", "datacentre_meter"])
    @pytest.mark.parametrize(
        "value", [None, 7, 1.5, True, ["b1"], {"id": "b1"}],
        ids=["null", "int", "fraction", "bool", "list", "object"],
    )
    def test_community_ids_must_be_json_strings(self, demo, key, value):
        def edit(raw):
            (raw["participants"][0] if key == "id" else raw)[key] = value

        _edit_json(demo / "community.json", edit)
        if key == "datacentre_meter" and value is None:
            # a null data-centre meter names none, as an absent one does
            assert run(load_run_config(demo / "run_config.json")).comparison is not None
            return
        shown = repr(Decimal("1.5")) if value == 1.5 else repr(value)
        output = self._run(demo)
        assert f"community.json: {key} must be a JSON string, got {shown}" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("participants", [{"b1": {}}, "b1", [1]], ids=["object", "text", "list-of-int"])
    def test_participants_must_be_a_list_of_objects(self, demo, participants):
        _edit_json(demo / "community.json", _set_run_key("participants", participants))
        assert "community.json: participants must be a list of objects" in self._run(demo)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("meter_csvs", "meters.csv", "run config: meter_csvs must be a list of file paths"),
            ("meter_csvs", ["meters.csv", 1], "run config: meter_csvs must be a list of file paths"),
            ("policies", "static", "run config: policies must be a list of policy names"),
            ("policies", None, "run config: policies must be a list of policy names"),
            ("community", 5, "run config: community must be a file path"),
        ],
        ids=["meters-str", "meters-int-entry", "policies-str", "policies-null", "community-int"],
    )
    def test_run_config_lists_and_paths(self, demo, key, value, message):
        _edit_json(demo / "run_config.json", _set_run_key(key, value))
        assert message in self._run(demo)

    @pytest.mark.parametrize(
        "window, message",
        [
            *(
                (window, "run config: kor_window must be an object")
                for window in [5, None, "2024-06-12", {"start": "2024-06-12"}, {"start": 1, "end": 2}]
            ),
            (
                {"start": "2024-6-12", "end": "2024-06-13"},
                "run config: kor_window start must be a date (YYYY-MM-DD), got '2024-6-12'\n",
            ),
            (
                {"start": "2024-06-12", "end": "June 13"},
                "run config: kor_window end must be a date (YYYY-MM-DD), got 'June 13'\n",
            ),
            (
                {"start": "2024-06-12", "end": "2024-06-12"},
                "run config: kor_window must end after its start (the end is exclusive), "
                "got {'start': '2024-06-12', 'end': '2024-06-12'}\n",
            ),
            (
                {"start": "2024-06-13", "end": "2024-06-12"},
                "run config: kor_window must end after its start (the end is exclusive), "
                "got {'start': '2024-06-13', 'end': '2024-06-12'}\n",
            ),
        ],
        ids=["int", "null", "text", "no-end", "int-dates", "bad-start", "bad-end", "empty", "reversed"],
    )
    def test_bad_kor_window(self, demo, window, message):
        """A kor_window that is not an object of two dates, or that holds no
        day, is a validation error of derive-kors and of run that names the
        run config and the key, and quotes the window as written."""
        _edit_json(demo / "run_config.json", _set_run_key("kor_window", window))
        config = ["--config", str(demo / "run_config.json")]
        for args in (["derive-kors", *config, "--out", str(demo / "k.json")], ["run", *config]):
            r = CliRunner().invoke(main, args)
            assert r.exit_code == 1, r.output
            assert isinstance(r.exception, SystemExit), r.exception
            assert f"validation error: {message}" in r.output

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ("pv_gain = 1e999999999\n", "gain 1E+999999999 overflows the slot energies"),
            (
                "datacentre_load_kw = 1e999999999\ninclude_datacentre = true\n",
                "power 1E+999999999 kW overflows the slot energies",
            ),
            # these fit the decimal context but not a 60-digit slot energy
            ("pv_gain = 1e5000\n", "gain 1E+5000 overflows the slot energies"),
            (
                "datacentre_load_kw = 1e5000\ninclude_datacentre = true\n",
                "power 1E+5000 kW overflows the slot energies",
            ),
        ],
        ids=["pv-gain", "datacentre-load", "pv-gain-1e5000", "datacentre-load-1e5000"],
    )
    def test_overflowing_scale(self, demo, scenario, message):
        (demo / "scenario.cfg").write_text(scenario)
        assert message in self._run(demo)

    def test_bad_kor_window_is_rejected_with_the_config(self, demo):
        # the window is parsed by load_run_config, so run rejects it as well
        _edit_json(demo / "run_config.json", _set_run_key("kor_window", 5))
        assert "run config: kor_window must be an object" in self._run(demo)

    def test_kor_window_is_parsed_with_the_config(self, demo):
        assert load_run_config(demo / "run_config.json").kor_window is None
        _edit_json(
            demo / "run_config.json",
            _set_run_key("kor_window", {"start": "2024-07-01", "end": "2024-08-01"}),
        )
        config = load_run_config(demo / "run_config.json")
        assert config.kor_window == DateRange(date(2024, 7, 1), date(2024, 8, 1))
        # derive-kors takes the window from the config: the demo day is outside it
        r = CliRunner().invoke(
            main,
            ["derive-kors", "--config", str(demo / "run_config.json"), "--out", str(demo / "k.json")],
        )
        assert r.exit_code == 1, r.output
        assert "has no data in window 2024-07-01..2024-08-01" in r.output

    def test_numeric_kor_text_accepted(self, demo):
        _edit_json(demo / "run_config.json", _set_kor("1.0"))
        config = load_run_config(demo / "run_config.json")
        assert config.kors == {"b1": 1.0, "b2": 0.0, "b4": 0.0}

    @pytest.mark.parametrize("meter", ["b4", "pv1"], ids=["participant", "production"])
    def test_the_kor_key_is_no_meter_id(self, demo, meter, monkeypatch):
        """A meter renamed KOR everywhere would log its records under the
        key of the coefficient records: run refuses it, naming the id,
        before it reads any meter CSV."""
        meters = demo / "meters.csv"
        meters.write_text(meters.read_text(encoding="utf-8").replace(f"\n{meter},", "\nKOR,"), encoding="utf-8")

        def rename(raw):
            for participant in raw["participants"]:
                if participant["id"] == meter:
                    participant["id"] = "KOR"
            for key in ("production_meter", "datacentre_meter"):
                if raw[key] == meter:
                    raw[key] = "KOR"

        _edit_json(demo / "community.json", rename)
        _edit_json(demo / "kors.json", lambda raw: raw.update({"KOR": raw.pop(meter)}) if meter in raw else None)
        message = "meter id 'KOR' is reserved for the coefficient records of the audit log"
        assert message in self._run(demo)
        assert not (demo / "reports").exists()
        monkeypatch.setattr(runner_mod, "ingest_csv", lambda path: pytest.fail(f"{path} was read"))
        with pytest.raises(ValueError, match=f"^community file {re.escape(str(demo / 'community.json'))}: {message}$"):
            run(load_run_config(demo / "run_config.json"))

    @pytest.mark.parametrize("file", ["run_config.json", "community.json", "kors.json", "scenario.cfg"])
    def test_a_byte_order_mark_before_an_input_file_is_read_past(self, demo, file):
        """Each input file may start with a UTF-8 byte-order mark, as a
        meter CSV may: the run gives the tree of the file without it. A
        malformed file's error has the line and column it has without
        the mark."""
        plain = run(load_run_config(demo / "run_config.json", out_override=demo / "plain")).out_dir
        path = demo / file
        text = path.read_bytes()
        path.write_bytes(b"\xef\xbb\xbf" + text)
        marked = run(load_run_config(demo / "run_config.json", out_override=demo / "marked")).out_dir
        assert _tree_bytes(marked) == _tree_bytes(plain)
        bad = b"pv_gain = 1.1\nx\n" if file == "scenario.cfg" else b"{\n  \"b1\": x\n}\n"
        path.write_bytes(bad)
        unmarked = self._run(demo)
        path.write_bytes(b"\xef\xbb\xbf" + bad)
        assert self._run(demo) == unmarked
        assert re.search(r"line 2( column 9)?: ", unmarked)


class TestExactMoney:
    @pytest.mark.parametrize(
        "edit",
        [
            _set_tariff("0.1333333333333333333333"),
            _set_tariff("1e30"),
            _set_run_key("feed_in_eur_per_kwh", "1e-40"),
        ],
        ids=["long-tariff", "huge-tariff", "tiny-feed-in"],
    )
    def test_long_rates_settle_to_the_exact_figures(self, demo, edit):
        _edit_json(demo / "community.json", edit)
        r = CliRunner().invoke(main, ["run", "--config", str(demo / "run_config.json")])
        assert r.exit_code == 0, r.output
        community = json.loads((demo / "community.json").read_text())
        value = {
            p["id"]: Fraction(p["tariff_eur_per_kwh"])
            * (1 + (Fraction(p["grid_uplift_pct"]) + Fraction(p["tax_uplift_pct"])) / 100)
            for p in community["participants"]
        }
        for policy in POLICY_NAMES:
            table = _read_allocations(demo / "reports" / f"{policy}_allocations.csv")
            parts = {pid: Fraction(sum(c), 1000) * value[pid] for pid, c in table.self_consumed.items()}
            feed_in = Fraction(sum(table.surplus), 1000) * Fraction(community["feed_in_eur_per_kwh"])
            savings = json.loads((demo / "reports" / f"{policy}_report.json").read_text())["savings"]
            assert savings["per_participant_eur"] == {pid: cents(v) for pid, v in parts.items()}
            assert savings["feed_in_eur"] == cents(feed_in)
            assert savings["total_eur"] == cents(sum(parts.values()) + feed_in)


class TestCli:
    def test_full_cli_round_trip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "demo"
        r = runner.invoke(main, ["synth-data", "low_radiation", "--out", str(out), "--seed", "3"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["run", "--config", str(out / "run_config.json")])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["audit-verify", str(out / "reports" / "audit.log")])
        assert r.exit_code == 0
        assert "intact" in r.output

    def test_audit_verify_detects_tampering(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "demo"
        runner.invoke(main, ["synth-data", "low_radiation", "--out", str(out)])
        runner.invoke(main, ["run", "--config", str(out / "run_config.json")])
        log = out / "reports" / "audit.log"
        lines = log.read_text().splitlines()
        tampered = lines[0].replace('"energy_wh":', '"energy_wh":1', 1)
        assert tampered != lines[0]
        lines[0] = tampered
        log.write_text("\n".join(lines) + "\n")
        r = runner.invoke(main, ["audit-verify", str(log)])
        assert r.exit_code == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:-40], "ledger line 384: malformed record"),
            (lambda data: data.replace(b"\n", b"\n\xff", 1), "ledger line 2: malformed record ('utf-8' codec"),
        ],
        ids=["cut-mid-line", "invalid-utf8"],
    )
    def test_audit_verify_reports_the_bad_line(self, demo, edit, message):
        run(load_run_config(demo / "run_config.json"))
        log = demo / "reports" / "audit.log"
        log.write_bytes(edit(log.read_bytes()))
        r = CliRunner().invoke(main, ["audit-verify", str(log)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit), r.exception
        assert f"validation error: {message}" in r.output

    def test_audit_verify_prints_the_head_hash(self, demo):
        log = run(load_run_config(demo / "run_config.json")).out_dir / "audit.log"
        r = CliRunner().invoke(main, ["audit-verify", str(log)])
        assert r.exit_code == 0, r.output
        ledger = read_ledger(log)
        assert r.output == f"intact ({len(ledger)} records), head {ledger.head_hash}\n"
        assert re.fullmatch("[0-9a-f]{64}", ledger.head_hash)

    def test_a_run_log_continues_by_the_segment_its_reader_writes(self, demo):
        """The demo log read, appended to and written to a new file: the log
        followed by that segment is the text of one ledger that made every
        append, and audit-verify of it is intact with the last head."""
        log = run(load_run_config(demo / "run_config.json")).out_dir / "audit.log"
        whole = Ledger()
        for line in log.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            whole.append(record["payload"], record["counting_point_key"], parse_timestamp(record["timestamp"]))
        ledger = read_ledger(log)
        next_slot = parse_timestamp(record["timestamp"]) + timedelta(minutes=30)
        for led in (whole, ledger):
            led.append({"kind": "production", "energy_wh": 1250}, "pv1", next_slot)
            head = led.append({"kind": "consumption", "energy_wh": 400}, "b1", next_slot)
        segment = demo / "segment.log"
        write_ledger(ledger, segment)
        continued = demo / "continued.log"
        continued.write_bytes(log.read_bytes() + segment.read_bytes())
        write_ledger(whole, demo / "whole.log")
        assert continued.read_bytes() == (demo / "whole.log").read_bytes()
        r = CliRunner().invoke(main, ["audit-verify", str(continued)])
        assert r.exit_code == 0, r.output
        assert r.output == f"intact ({48 * (1 + 3 + 4) + 2} records), head {head}\n"
        assert head == ledger.head_hash == whole.head_hash

    def test_a_run_log_cut_before_its_last_newline_refuses_to_continue(self, demo):
        """The demo log without its last byte reads and verifies intact, but
        the ledger read from it refuses the append whose segment would join
        the log's last line, and names the log."""
        log = run(load_run_config(demo / "run_config.json")).out_dir / "audit.log"
        cut = demo / "cut.log"
        cut.write_bytes(log.read_bytes()[:-1])
        r = CliRunner().invoke(main, ["audit-verify", str(cut)])
        assert r.exit_code == 0, r.output
        assert r.output.startswith(f"intact ({48 * (1 + 3 + 4)} records)")
        ledger = read_ledger(cut)
        record = json.loads(log.read_text(encoding="utf-8").splitlines()[-1])
        next_slot = parse_timestamp(record["timestamp"]) + timedelta(minutes=30)
        message = f"ledger {cut} does not end in a newline: a log must end in a newline to be continued"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ledger.append({"kind": "production", "energy_wh": 1250}, "pv1", next_slot)
        assert len(ledger) == 48 * (1 + 3 + 4)
        assert ledger.head_hash == record["hash"]

    def test_missing_config_is_io_failure(self):
        r = CliRunner().invoke(main, ["run", "--config", "/nonexistent/config.json"])
        assert r.exit_code == 2

    def test_invalid_config_is_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        r = CliRunner().invoke(main, ["run", "--config", str(bad)])
        assert r.exit_code == 1

    def test_ingest_reports_row_errors(self, tmp_path):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(
            "meter_id,meter_class,timestamp,quantity_kind,value\n"
            "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,-5\n"
        )
        r = CliRunner().invoke(main, ["ingest", str(csv_path)])
        assert r.exit_code == 1
        assert "negative energy" in r.output

    def test_ingest_reports_nan_power_as_row_error(self, tmp_path):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(
            "meter_id,meter_class,timestamp,quantity_kind,value\n"
            "b1,sme_smi,2022-05-04T10:00:00+02:00,power_kw_10min,NaN\n"
        )
        r = CliRunner().invoke(main, ["ingest", str(csv_path)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert f"{csv_path}: line 2: bad power value 'NaN'" in r.output

    @pytest.mark.parametrize("command", ["ingest", "run", "derive-kors"])
    def test_a_field_over_the_size_limit_is_a_row_error(self, demo, command):
        meters, config = demo / "meters.csv", str(demo / "run_config.json")
        with meters.open("a") as fh:
            fh.write("b1,linky,2024-06-12T07:00:00+02:00,energy_wh," + "1" * 140_000 + "\n")
        line = len(meters.read_text().splitlines())
        args = {
            "ingest": ["ingest", str(meters)],
            "run": ["run", "--config", config],
            "derive-kors": ["derive-kors", "--config", config, "--out", str(demo / "derived.json")],
        }[command]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert f"line {line}: field larger than field limit (131072)" in r.output
        assert "Traceback" not in r.output
        assert not (demo / "reports").exists() and not (demo / "derived.json").exists()

    @pytest.mark.parametrize("command", ["ingest", "run", "derive-kors"])
    def test_a_byte_that_is_not_utf8_is_its_rows_error(self, demo, command):
        """A 0xff byte and a lone 0xc3 lead byte make their rows' errors,
        named by file and line; the rows between them are read."""
        meters, config = demo / "meters.csv", str(demo / "run_config.json")
        lines = meters.read_bytes().split(b"\n")
        lines[60] += b"\xff"
        lines[70] = lines[70].replace(b"b", b"\xc3", 1)
        meters.write_bytes(b"\n".join(lines))
        args = {
            "ingest": ["ingest", str(meters)],
            "run": ["run", "--config", config],
            "derive-kors": ["derive-kors", "--config", config, "--out", str(demo / "derived.json")],
        }[command]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        name = str(meters) + ": " if command == "ingest" else "meters.csv:"
        assert f"{name}line 61: invalid UTF-8 byte 0xff\n{name}line 71: invalid UTF-8 byte 0xc3\n" in r.output
        assert "line 62" not in r.output and "Traceback" not in r.output
        assert not (demo / "reports").exists() and not (demo / "derived.json").exists()

    @pytest.mark.parametrize("files", [1, 2])
    @pytest.mark.parametrize(
        "first, message",
        [
            ("m1,linky,2022-05-04T10:00:00+02:00,energy_wh,100", "records mix meter classes"),
            ("m1,sme_smi,2022-05-04T10:00:00+02:00,power_kw_10min,1", "records mix quantity kinds"),
        ],
        ids=["class", "kind"],
    )
    def test_ingest_rejects_a_meter_read_two_ways(self, tmp_path, files, first, message):
        header = "meter_id,meter_class,timestamp,quantity_kind,value\n"
        second = "m1,sme_smi,2022-05-04T10:30:00+02:00,energy_kwh_index,5"
        rows = [[first, second]] if files == 1 else [[first], [second]]
        paths = []
        for k, part in enumerate(rows):
            paths.append(tmp_path / f"m{k}.csv")
            paths[-1].write_text(header + "".join(row + "\n" for row in part))
        r = CliRunner().invoke(main, ["ingest", *map(str, paths)])
        assert r.exit_code == 1
        assert message in r.output
        assert "meter m1: " in r.output

    def test_run_rejects_a_meter_read_two_ways(self, demo):
        meters = demo / "meters.csv"
        first_b2 = next(row for row in meters.read_text().splitlines() if row.startswith("b2,"))
        timestamp = first_b2.split(",")[2]
        with meters.open("a") as fh:
            fh.write(f"b2,sme_smi,{timestamp},energy_kwh_index,5\n")
        r = CliRunner().invoke(main, ["run", "--config", str(demo / "run_config.json")])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert (
            "validation error: meter b2: records mix meter classes (linky energy_wh, sme_smi energy_kwh_index)"
            in r.output
        )
        assert "Traceback" not in r.output
        assert not (demo / "reports").exists()

    def test_ingest_normalizes_and_writes_slots(self, tmp_path):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(
            "meter_id,meter_class,timestamp,quantity_kind,value\n"
            "m1,linky,2022-05-04T10:00:00+02:00,energy_wh,100\n"
            "m1,linky,2022-05-04T10:30:00+02:00,energy_wh,200\n"
        )
        out = tmp_path / "slots"
        r = CliRunner().invoke(main, ["ingest", str(csv_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        written = (out / "m1_slots.csv").read_text().splitlines()
        assert written[0] == "meter_id,slot_start,energy_wh"
        assert written[1] == "m1,2022-05-04T10:00:00+02:00,100"

    @pytest.mark.parametrize("meter_id", ["a,b", 'a"b'])
    def test_ingest_slot_rows_are_quoted_csv(self, tmp_path, meter_id):
        csv_path = tmp_path / "meters.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["meter_id", "meter_class", "timestamp", "quantity_kind", "value"])
            writer.writerow([meter_id, "linky", "2022-05-04T10:00:00+02:00", "energy_wh", "100"])
        out = tmp_path / "slots"
        r = CliRunner().invoke(main, ["ingest", str(csv_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        with open(out / f"{meter_id}_slots.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["meter_id", "slot_start", "energy_wh"],
            [meter_id, "2022-05-04T10:00:00+02:00", "100"],
        ]

    def test_derive_kors_cli(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "demo"
        runner.invoke(main, ["synth-data", "high_radiation", "--out", str(out)])
        kors_path = tmp_path / "missing" / "kors_out.json"  # its directory is created
        r = runner.invoke(main, [
            "derive-kors", "--config", str(out / "run_config.json"),
            "--out", str(kors_path),
        ])
        assert r.exit_code == 0, r.output
        derived = json.loads(kors_path.read_text())
        assert set(derived) == {"b1", "b2", "b4"}
        assert abs(sum(derived.values()) - 1) < 1e-9
        # the emitted file used the same derivation over the same day
        assert derived == json.loads((out / "kors.json").read_text())

    def test_derive_kors_writes_the_kors_file_its_config_names(self, demo):
        """derive-kors reads no kors file, so it can regenerate the one the
        run config names."""
        written = (demo / "kors.json").read_bytes()
        (demo / "kors.json").unlink()
        r = CliRunner().invoke(main, [
            "derive-kors", "--config", str(demo / "run_config.json"),
            "--out", str(demo / "kors.json"),
        ])
        assert r.exit_code == 0, r.output
        assert (demo / "kors.json").read_bytes() == written

    def test_derive_kors_default_window_covers_every_local_date(self, tmp_path):
        """A slot whose UTC offset puts it before the first slot's local
        midnight is in the default window, as run's window holds it."""
        stamps = [
            "2024-01-01T00:00:00+02:00", "2023-12-31T23:30:00+01:00",
            "2024-01-01T00:00:00+01:00", "2024-01-01T00:30:00+01:00",
        ]
        rows = ["meter_id,meter_class,timestamp,quantity_kind,value"]
        for meter, values in (("pv1", [100] * 4), ("a", [100] * 4), ("b", [100, 9000, 100, 100])):
            rows += [f"{meter},linky,{ts},energy_wh,{v}" for ts, v in zip(stamps, values)]
        (tmp_path / "meters.csv").write_text("\n".join(rows) + "\n")
        participants = [
            {"id": pid, "priority_rank": rank, "tariff_eur_per_kwh": "0.13",
             "grid_uplift_pct": "0", "tax_uplift_pct": "0"}
            for rank, pid in enumerate(["a", "b"], start=1)
        ]
        (tmp_path / "community.json").write_text(json.dumps(
            {"feed_in_eur_per_kwh": "0.06", "production_meter": "pv1", "participants": participants}
        ))
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"meter_csvs": ["meters.csv"], "community": "community.json", "out_dir": "out"}
        ))
        r = CliRunner().invoke(main, [
            "derive-kors", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "k.json"),
        ])
        assert r.exit_code == 0, r.output
        assert r.output == "a: 0.0412\nb: 0.9588\n"

    @pytest.mark.parametrize("meter_id", ["../escaped", "sub/m1"])
    def test_ingest_rejects_a_meter_id_that_leaves_out_dir(self, tmp_path, meter_id):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(
            "meter_id,meter_class,timestamp,quantity_kind,value\n"
            f"{meter_id},linky,2022-05-04T10:00:00+02:00,energy_wh,100\n"
        )
        out = tmp_path / "out" / "slots"
        r = CliRunner().invoke(main, ["ingest", str(csv_path), "--out", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert f"validation error: meter id {meter_id!r}" in r.output
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["meters.csv"]
