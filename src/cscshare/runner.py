"""Orchestration: load data and config, run policies, emit reports.

A run is all-or-nothing: every output is staged in a directory inside
the target directory and moved into place by ``publish`` only after the
whole computation succeeded, so downstream figure scripts never see
half-written files or a mix of two runs. ``publish`` is the one way every
command writes its files. The audit log is streamed into the staged
``audit.log`` as its records are appended, so a run never holds the whole
log. A run large enough to pay for a fork has its report files written
into the staging directory by a forked child while it builds the log;
if the child does not report success, the run writes them itself.
Identical inputs produce byte-identical output trees, audit chain
included.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import tempfile
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from cscshare import _fork
from cscshare.allocation import allocate_series, derive_priority_order
from cscshare.billing import (
    PolicyComparison,
    SavingsReport,
    ScrReport,
    compare_policies,
    compute_savings,
    compute_scr,
)
from cscshare.ingestion import (
    MeterReadings,
    ScenarioConfig,
    add_constant_load,
    apply_pv_gain,
    ingest_csv,
    normalize_to_slots,
    readings_by_meter,
)
from cscshare.ledger import KOR_COUNTING_POINT, Ledger, PayloadTemplate, write_ledger
from cscshare.model import (
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    MutableRecord,
    Participant,
    Record,
    SlotSeries,
    StaticPolicy,
    as_decimal,
    parse_timestamp,
    validate_community,
)

POLICY_NAMES = ("static", "static33", "default-dynamic", "custom-dynamic")

# A run whose allocation CSVs hold this many cells (slots x columns x
# policies) or more has its report files written by a forked child while
# it builds the log; a smaller one writes them after.
_FORKED_REPORT_CELLS = 25_000


class RunConfig(Record):
    _fields = (
        "meter_csvs", "community_file", "out_dir", "policies", "scenario_file", "kors",
        "priority_order", "kor_window",
    )

    def __init__(
        self,
        meter_csvs: tuple[Path, ...],
        community_file: Path,
        # None when the config names none; run requires it
        out_dir: Path | None,
        policies: tuple[str, ...],
        scenario_file: Path | None = None,
        # a kors file is read only when the static policy runs
        kors: Mapping[str, float] | Path | None = None,
        priority_order: tuple[str, ...] | None = None,
        kor_window: DateRange | None = None,
    ):
        if not policies:
            raise ValueError("at least one policy must be selected")
        unknown = [p for p in policies if p not in POLICY_NAMES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}; choose from {POLICY_NAMES}")
        if len(set(policies)) != len(policies):
            raise ValueError("duplicate policy selection")
        self._set(
            meter_csvs=meter_csvs, community_file=community_file, out_dir=out_dir, policies=policies,
            scenario_file=scenario_file, kors=kors, priority_order=priority_order, kor_window=kor_window,
        )


class RunResult(MutableRecord):
    _fields = ("out_dir", "files", "comparison")

    def __init__(
        self, out_dir: Path, files: list[Path] | None = None, comparison: PolicyComparison | None = None
    ):
        self.out_dir = out_dir
        self.files = [] if files is None else files
        self.comparison = comparison


def load_run_config(
    path: str | Path,
    out_override: str | Path | None = None,
    policy_filter: Sequence[str] | None = None,
) -> RunConfig:
    """Read a run-config JSON file; relative paths resolve against it.
    ``run`` requires an ``out_dir``, and reads a ``kors`` file itself."""
    path = Path(path)
    raw = _read_json(path, "run config")
    base = path.parent

    def _resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    if not isinstance(raw, dict):
        raise ValueError("run config: must be a JSON object")
    for name in ("community", "scenario", "out_dir"):
        if raw.get(name) is not None and not isinstance(raw[name], str):
            raise ValueError(f"run config: {name} must be a file path")
    meter_csvs = raw.get("meter_csvs")
    if not meter_csvs:
        raise ValueError("run config: meter_csvs is required")
    if not _is_str_list(meter_csvs):
        raise ValueError("run config: meter_csvs must be a list of file paths")
    community = raw.get("community")
    if not community:
        raise ValueError("run config: community is required")

    policies = raw.get("policies", list(POLICY_NAMES))
    if not _is_str_list(policies):
        raise ValueError("run config: policies must be a list of policy names")
    policies = tuple(policies)
    if policy_filter:
        missing = [p for p in policy_filter if p not in policies]
        if missing:
            raise ValueError(f"--policy {missing} not in configured policies {policies}")
        policies = tuple(p for p in policies if p in set(policy_filter))

    if out_override:
        out_dir = Path(out_override)
    elif raw.get("out_dir"):
        out_dir = _resolve(raw["out_dir"])
    else:
        out_dir = None

    kors = raw.get("kors")
    if isinstance(kors, str):
        kors = _resolve(kors)
    elif kors is not None:
        kors = _coefficients(kors)

    priority_order = raw.get("priority_order")
    if priority_order is not None:
        if not _is_str_list(priority_order):
            raise ValueError("run config: priority_order must be a list of participant ids")
        priority_order = tuple(priority_order)

    kor_window = None
    if "kor_window" in raw:
        bounds = raw["kor_window"]
        if not isinstance(bounds, dict) or not all(
            isinstance(bounds.get(k), str) for k in ("start", "end")
        ):
            raise ValueError(
                'run config: kor_window must be an object of "start" and "end" '
                f"dates (YYYY-MM-DD), got {bounds!r}"
            )
        kor_window = DateRange(
            parse_timestamp(bounds["start"] + "T00:00:00+00:00").date(),
            parse_timestamp(bounds["end"] + "T00:00:00+00:00").date(),
        )

    scenario = raw.get("scenario")
    return RunConfig(
        meter_csvs=tuple(_resolve(p) for p in meter_csvs),
        community_file=_resolve(community),
        out_dir=out_dir,
        policies=policies,
        scenario_file=_resolve(scenario) if scenario else None,
        kors=kors,
        priority_order=priority_order,
        kor_window=kor_window,
    )


def _read_json(path: str | Path, name: str, **options):
    """The JSON value in the file ``path``; invalid JSON is a ValueError
    that names the file, as ``name`` and the path, and its line and
    column, and so is invalid UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, **options)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name} {path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name} {path}: {exc}") from None


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _coefficients(kors) -> dict[str, float]:
    """The static coefficients of a run config's ``kors`` object."""
    if not isinstance(kors, dict):
        raise ValueError("run config: kors must be an object of participant coefficients")
    return {k: float(as_decimal(v, f"run config: kors[{k!r}]")) for k, v in kors.items()}


def _static_kors(config: RunConfig) -> Mapping[str, float] | None:
    """The coefficients of the static policy, or None if it does not run."""
    if "static" not in config.policies:
        return None
    if not isinstance(config.kors, Path):
        return config.kors
    return _coefficients(_read_json(config.kors, "kors file"))


def load_community(path: str | Path) -> tuple[Community, str | None]:
    """Load the community and tariff file.

    Returns the community plus the optional meter the data-centre load
    attaches to. Rates may be JSON numbers or strings; both parse exactly,
    and Participant and Community coerce and bound them.
    """
    raw = _read_json(path, "community file", parse_float=Decimal)
    if not isinstance(raw, dict):
        raise ValueError(f"community file {path}: must be a JSON object")
    entries = raw.get("participants")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"community file {path}: participants must be a list of objects")

    def text(obj: dict, key: str) -> str:
        value = obj[key]
        if not isinstance(value, str):
            raise ValueError(f"community file {path}: {key} must be a JSON string, got {value!r}")
        return value

    try:
        participants = tuple(
            Participant(
                id=text(entry, "id"),
                tariff_eur_per_kwh=entry["tariff_eur_per_kwh"],
                grid_uplift_pct=entry.get("grid_uplift_pct", 0),
                tax_uplift_pct=entry.get("tax_uplift_pct", 0),
            )
            for entry in entries
        )
        community = Community(
            participants=participants,
            production_meter=text(raw, "production_meter"),
            feed_in_eur_per_kwh=raw["feed_in_eur_per_kwh"],
        )
    except KeyError as exc:
        raise ValueError(f"community file {path}: missing key {exc}") from None
    if raw.get("datacentre_meter") is None:
        return community, None
    return community, text(raw, "datacentre_meter") or None


def _ingest_meters(paths: Sequence[Path]) -> dict[str, MeterReadings]:
    """Each meter's readings from every file; see readings_by_meter."""
    results = []
    findings: list[str] = []
    for path in paths:
        result = ingest_csv(path)
        findings.extend(f"{path.name}:{e}" for e in result.errors)
        results.append(result)
    if findings:
        raise ValueError("meter CSV errors:\n" + "\n".join(str(f) for f in findings))
    return readings_by_meter(results)


def _full_extent(series: Iterable[SlotSeries]) -> DateRange:
    """The local dates the slots of ``series`` fall on, first to last,
    from the date bounds of their grids, each read once (SlotGrid.dates)."""
    bounds = [s.starts.dates for s in series if s.starts]
    return DateRange(min(first for first, _ in bounds), max(last for _, last in bounds) + timedelta(days=1))


def _build_policies(config: RunConfig, community: Community, kors: Mapping[str, float] | None):
    ids = community.participant_ids()
    policies = []
    for name in config.policies:
        if name == "static":
            if kors is None:
                raise ValueError("static policy requires a 'kors' entry in the run config")
            policies.append(StaticPolicy(KorVector(kors), name="static"))
        elif name == "static33":
            policies.append(StaticPolicy(KorVector.equal(ids), name="static33"))
        elif name == "default-dynamic":
            policies.append(DefaultDynamicPolicy())
        else:
            order = config.priority_order or derive_priority_order(community.participants)
            policies.append(CustomDynamicPolicy(order=order))
    return policies


def _build_ledger(
    production: SlotSeries,
    tables: Mapping[str, AllocationTable],
    static_kors: Mapping[str, KorVector],
    ledger: Ledger | None = None,
) -> Ledger:
    """Append the run's records to ``ledger`` (a new one in memory by
    default) and return it. Appends are ordered by slot, then meters, then
    policy name.

    Every table must hold one row per production slot, in slot order;
    consumption records are read from the first policy's. Each payload is
    rendered from the columns by a template of its fixed shape.
    """
    if ledger is None:
        ledger = Ledger()
    names = sorted(tables)
    consumption = sorted(tables[names[0]].consumption.items())
    produced = PayloadTemplate({"kind": "production", "energy_wh": int})
    consumed = PayloadTemplate({"kind": "consumption", "energy_wh": int})
    keys = [production.meter_id, *(pid for pid, _ in consumption)]
    payloads = [produced.render(production.energies), *(consumed.render(c) for _, c in consumption)]
    for name in names:
        table = tables[name]
        shares = dict.fromkeys(table.self_consumed, int)
        shape = {"policy": name, "self_consumed_wh": shares, "surplus_wh": int}
        if name in static_kors:
            shape["coefficients"] = static_kors[name].texts()
        payloads.append(PayloadTemplate(shape).render(*table.self_consumed.values(), table.surplus))
        keys.append(KOR_COUNTING_POINT)
    append = ledger.append
    for ts, *row in zip(production.starts, *payloads, strict=True):
        for payload, key in zip(row, keys):
            append(payload, key, ts)
    return ledger


def _allocation_csv_rows(
    table: AllocationTable, participant_ids: Sequence[str], stamps: Sequence[str]
) -> list[Sequence]:
    """The CSV rows of a table; ``stamps`` holds each slot's ISO text."""
    header = ["slot_start", "production_wh"]
    header += [f"consumption_{pid}_wh" for pid in participant_ids]
    header += [f"self_consumed_{pid}_wh" for pid in participant_ids]
    header += ["surplus_wh"]
    columns = [table.consumption[pid] for pid in participant_ids]
    columns += [table.self_consumed[pid] for pid in participant_ids]
    return [header, *zip(stamps, table.production, *columns, table.surplus, strict=True)]


def _policy_files(names: Iterable[str]) -> list[str]:
    return [f"{name}_{suffix}" for name in names for suffix in ("report.json", "allocations.csv")]


def _write_csv(path: Path, rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_reports(
    staging: Path,
    starts: Sequence[datetime],
    tables: Mapping[str, AllocationTable],
    comparison: PolicyComparison,
    participant_ids: Sequence[str],
) -> None:
    """Write each policy's report and allocations and the comparison into
    ``staging``."""
    stamps = [ts.isoformat() for ts in starts]
    for name, (scr_report, savings_report) in comparison.reports.items():
        _write_json(
            staging / f"{name}_report.json",
            {"policy": name, "scr": scr_report.to_json_dict(), "savings": savings_report.to_json_dict()},
        )
        _write_csv(
            staging / f"{name}_allocations.csv",
            _allocation_csv_rows(tables[name], participant_ids, stamps),
        )
    _write_csv(staging / "comparison.csv", comparison.to_csv_rows())
    _write_json(staging / "comparison.json", comparison.to_json_dict())


def _reports_written(*args) -> bytes:
    """In a forked child: ``_write_reports(*args)``, then say so."""
    _write_reports(*args)
    return b"written"


@contextlib.contextmanager
def publish(out_dir: str | Path, stale: Iterable[str] = ()) -> Iterator[Path]:
    """Yield a new staging directory inside ``out_dir``; when the block
    succeeds, move each file written there into ``out_dir`` and remove the
    ``stale`` names from it. Either all of that happens or none of it.
    Each staged file is synced to disk before the first move, and
    ``out_dir`` after the last, so a crash leaves no half-written file.

    The staging directory is removed however the block is left, and so is
    ``out_dir`` if this call made it and published nothing.
    """
    out_dir = Path(out_dir)
    created = not out_dir.is_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    published = False
    try:
        yield staging
        _move_in(staging, out_dir, stale)
        published = True
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not published:
            with contextlib.suppress(OSError):
                out_dir.rmdir()


def _move_in(staging: Path, out_dir: Path, stale: Iterable[str]) -> None:
    """Move each file replaced or removed into a second staging directory
    first, and put those back if any move raises. A file that cannot be
    put back stays there, as that directory is then kept."""
    names = sorted(p.name for p in staging.iterdir())
    for name in names:
        _fsync(staging / name)
    old = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    moved_out: list[str] = []
    placed: list[str] = []
    try:
        for name in [*names, *stale]:
            target = out_dir / name
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(f"{target} is a directory")
            if target.exists() or target.is_symlink():
                target.replace(old / name)
                moved_out.append(name)
        for name in names:
            (staging / name).replace(out_dir / name)
            placed.append(name)
        _fsync(out_dir)
    except BaseException:
        for name in placed:
            (out_dir / name).unlink()
        for name in moved_out:
            (old / name).replace(out_dir / name)
        old.rmdir()
        raise
    shutil.rmtree(old, ignore_errors=True)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def run(config: RunConfig) -> RunResult:
    """Execute one configured run; see the module docstring for semantics.

    Raises ValueError on validation problems and OSError on I/O failure;
    the CLI maps those to exit codes 1 and 2.
    """
    if config.out_dir is None:
        raise ValueError("run config: out_dir is required (or pass --out)")
    kors = _static_kors(config)
    community, datacentre_meter = load_community(config.community_file)
    scenario = (
        ScenarioConfig.from_file(config.scenario_file)
        if config.scenario_file
        else ScenarioConfig()
    )

    by_meter = _ingest_meters(config.meter_csvs)
    ids = community.participant_ids()
    production = None
    consumptions: dict[str, SlotSeries] = {}
    # each meter's readings are released once it is normalized
    for meter_id in sorted(by_meter):
        kind = Kind.PRODUCTION if meter_id == community.production_meter else Kind.CONSUMPTION
        normalized = normalize_to_slots(by_meter.pop(meter_id), kind=kind)
        if meter_id == community.production_meter:
            production = normalized
        else:
            consumptions[meter_id] = normalized

    if production is not None:
        production = apply_pv_gain(production, scenario.pv_gain)
    if scenario.include_datacentre:
        if not datacentre_meter or datacentre_meter not in consumptions:
            raise ValueError(
                "scenario includes the data centre but the community file names "
                "no matching datacentre_meter"
            )
        consumptions[datacentre_meter] = add_constant_load(
            consumptions[datacentre_meter], scenario.datacentre_load_kw
        )

    series = ([production] if production is not None else []) + [
        consumptions[p] for p in sorted(consumptions)
    ]
    report = validate_community(community, series, kors=kors)
    if not report.ok:
        raise ValueError("validation failed:\n" + "\n".join(report.findings))
    assert production is not None  # validate_community reported it otherwise

    window = _full_extent([production])

    policies = _build_policies(config, community, kors)
    consumption_list = [consumptions[pid] for pid in ids]

    tables: dict[str, AllocationTable] = {}
    reports: dict[str, tuple[ScrReport, SavingsReport]] = {}
    static_kors: dict[str, KorVector] = {}
    for policy in policies:
        tables[policy.name] = table = allocate_series(policy, production, consumption_list)
        reports[policy.name] = (
            compute_scr(table, window),
            compute_savings(table, community, window),
        )
        if isinstance(policy, StaticPolicy):
            static_kors[policy.name] = policy.kors

    comparison = compare_policies(reports)

    # a narrower rerun must not leave another policy's outputs behind
    stale = _policy_files(name for name in POLICY_NAMES if name not in reports)
    report_data = (production.starts, tables, comparison, sorted(ids))
    cells = len(production) * (3 + 2 * len(ids)) * len(tables)
    with publish(config.out_dir, stale) as staging, (
        _fork.Child(_reports_written, staging, *report_data)
        if cells >= _FORKED_REPORT_CELLS
        else contextlib.nullcontext()
    ) as writer:
        # the log's file is closed however this block is left
        with Ledger(staging / "audit.log") as ledger:
            _build_ledger(production, tables, static_kors, ledger)
            write_ledger(ledger, staging / "audit.log")
        if writer is None or writer.result() is None:
            _write_reports(staging, *report_data)

    emitted = [*_policy_files(sorted(reports)), "comparison.csv", "comparison.json", "audit.log"]
    return RunResult(config.out_dir, [config.out_dir / name for name in emitted], comparison)
