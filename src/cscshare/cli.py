"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import functools
import json
import sys
from datetime import timedelta
from pathlib import Path

import click

from cscshare import ledger as ledger_mod
from cscshare import runner as runner_mod
from cscshare import synth
from cscshare.ingestion import derive_static_kors, ingest_csv, normalize_to_slots, readings_by_meter
from cscshare.model import DateRange, Kind


def guarded(fn):
    """Map domain failures to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(2)
        except (ValueError, KeyError) as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Share 30-minute PV production among buildings and report SCR and savings."""


@main.command("synth-data")
@click.argument("profile", type=click.Choice(list(synth.PROFILES)))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", default=0, show_default=True, type=int)
@guarded
def synth_data(profile, out_dir, seed):
    """Write a deterministic demo day (meter CSV, community, scenarios)."""
    paths = synth.synthesize_demo_data(profile, seed, out_dir)
    for role in sorted(paths):
        click.echo(f"{role}: {paths[role]}")


@main.command()
@click.argument("csv_paths", nargs=-1, required=True, type=click.Path())
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Also write one normalized 30-minute series CSV per meter.")
@guarded
def ingest(csv_paths, out_dir):
    """Validate meter CSVs and normalize them to the 30-minute grid."""
    results = []
    failed = False
    for path in csv_paths:
        result = ingest_csv(path)
        for err in result.errors:
            click.echo(f"{path}: {err}", err=True)
            failed = True
        results.append(result)
    by_meter = readings_by_meter(results)
    normalized = {}
    for meter_id in sorted(by_meter):
        try:
            normalized[meter_id] = normalize_to_slots(by_meter[meter_id])
        except ValueError as exc:
            click.echo(str(exc), err=True)
            failed = True
    if failed:
        sys.exit(1)
    for meter_id, series in normalized.items():
        click.echo(f"{meter_id}: {len(series)} slots, {series.total_wh()} Wh")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for meter_id, series in normalized.items():
            lines = ["meter_id,slot_start,energy_wh"]
            slots = zip(series.starts, series.energies)
            lines += [f"{meter_id},{ts.isoformat()},{e}" for ts, e in slots]
            (out / f"{meter_id}_slots.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@main.command("derive-kors")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@guarded
def derive_kors(config_path, out_path):
    """Derive static coefficients from the consumption history in a run config.

    The optional run-config key kor_window ({"start": "YYYY-MM-DD",
    "end": "YYYY-MM-DD"}, end exclusive) restricts the window; the default
    is the full extent of the data.
    """
    config = runner_mod.load_run_config(config_path, out_override="unused")
    community, _ = runner_mod.load_community(config.community_file)
    by_meter = runner_mod._ingest_meters(config.meter_csvs)
    history = []
    # each participant's readings are released once it is normalized
    for pid in community.participant_ids():
        if pid not in by_meter:
            raise ValueError(f"no meter data for participant {pid}")
        history.append(normalize_to_slots(by_meter.pop(pid), kind=Kind.CONSUMPTION))
    del by_meter

    window = config.kor_window
    if window is None:
        # each series is strictly increasing: its first slot is its earliest
        first = min(s.starts[0] for s in history)
        last = max(s.starts[-1] for s in history)
        window = DateRange(first.date(), last.date() + timedelta(days=1))

    kors = derive_static_kors(history, window)
    Path(out_path).write_text(
        json.dumps(dict(sorted(kors.entries.items())), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    for pid, coeff in sorted(kors.entries.items()):
        click.echo(f"{pid}: {coeff}")


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Override the configured output directory.")
@click.option("--policy", "policies", multiple=True,
              help="Restrict to a subset of the configured policies.")
@guarded
def run_cmd(config_path, out_dir, policies):
    """Run the configured policies and write reports, CSVs and the audit log."""
    config = runner_mod.load_run_config(
        config_path, out_override=out_dir, policy_filter=policies or None
    )
    result = runner_mod.run(config)
    for path in result.files:
        click.echo(str(path))


@main.command("audit-verify")
@click.argument("ledger_path", type=click.Path())
@guarded
def audit_verify(ledger_path):
    """Recompute the hash chain of a ledger file."""
    ledger = ledger_mod.read_ledger(ledger_path)
    report = ledger_mod.verify_chain(ledger)
    if report.intact:
        click.echo(f"intact ({len(ledger)} records), head {ledger.head_hash}")
        return
    click.echo(report.message, err=True)
    sys.exit(1)


if __name__ == "__main__":
    main()
