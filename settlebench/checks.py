"""Correctness checks on the outputs of the three benchmarked commands.

Each check compares an output against the generator's ground truth or an
independent recomputation and returns a list of problems; an empty list
means the output is correct. None of them uses the program's own code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from synthdata import KOR_SCALE, POLICIES, PRODUCTION_METER, SLOT, paris_offset

_INTACT = re.compile(r"intact \((\d+) records\)")


def tree_sha256(root: Path) -> str:
    """Hash of the relative path and bytes of every file under ``root`` (or of one file)."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


EXPECTED_FILES = {"comparison.csv", "comparison.json", "audit.log"} | {
    f"{policy}_{suffix}" for policy in POLICIES for suffix in ("report.json", "allocations.csv")
}


def check_settle(out_dir: Path, truth: dict) -> tuple[list[str], int]:
    """Check one settle output tree; return (problems, offset_mismatch_slots).

    The allocation CSVs must reproduce the ground-truth production and
    consumption of every slot, matched by UTC instant; every row must
    conserve energy and respect consumption caps, and default-dynamic must
    self-consume min(production, total consumption). Slot starts whose
    rendered offset is not Paris local time are counted, not failed.
    """
    out_dir = Path(out_dir)
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = [f"missing output {name}" for name in sorted(EXPECTED_FILES - present)]
    mismatched = 0
    for policy in POLICIES:
        path = out_dir / f"{policy}_allocations.csv"
        if path.exists():
            found, mismatched = _check_allocations(path, policy, truth)
            problems += found
    return problems, mismatched


def _check_allocations(path: Path, policy: str, truth: dict) -> tuple[list[str], int]:
    ids = truth["participants"]
    meters = truth["meters"]
    first = truth["first_slot_utc"]
    expected_header = (
        ["slot_start", "production_wh"]
        + [f"consumption_{pid}_wh" for pid in ids]
        + [f"self_consumed_{pid}_wh" for pid in ids]
        + ["surplus_wh"]
    )
    n = len(ids)
    problems: list[str] = []
    seen = set()
    mismatched = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != expected_header:
            return [f"{path.name}: unexpected header"], 0
        for line, row in enumerate(reader, start=2):
            where = f"{path.name}:{line}"
            if len(problems) > 20:
                problems.append(f"{path.name}: further problems not listed")
                break
            try:
                ts = datetime.fromisoformat(row[0])
                prod, *rest = (int(v) for v in row[1:])
            except ValueError as exc:
                problems.append(f"{where}: unparsable row ({exc})")
                continue
            if len(rest) != 2 * n + 1 or ts.utcoffset() is None:
                problems.append(f"{where}: malformed row")
                continue
            k, off = divmod(ts - first, SLOT)
            if off or not 0 <= k < truth["slots"] or k in seen:
                problems.append(f"{where}: unexpected or repeated slot {row[0]}")
                continue
            seen.add(k)
            if ts.utcoffset() != paris_offset(ts.astimezone(timezone.utc)):
                mismatched += 1
            cons, sc, surplus = rest[:n], rest[n : 2 * n], rest[2 * n]
            if prod != meters[PRODUCTION_METER][k]:
                problems.append(f"{where}: production {prod} != truth {meters[PRODUCTION_METER][k]}")
            for pid, c in zip(ids, cons):
                if c != meters[pid][k]:
                    problems.append(f"{where}: consumption of {pid} {c} != truth {meters[pid][k]}")
            if sum(sc) + surplus != prod or surplus < 0:
                problems.append(f"{where}: self-consumed + surplus != production")
            if any(not 0 <= s <= c for s, c in zip(sc, cons)):
                problems.append(f"{where}: self-consumed outside [0, consumption]")
            if policy == "default-dynamic" and sum(sc) != min(prod, sum(cons)):
                problems.append(f"{where}: default-dynamic total != min(production, consumption)")
    if not problems and len(seen) != truth["slots"]:
        problems.append(f"{path.name}: {len(seen)} slots, expected {truth['slots']}")
    return problems, mismatched


def expected_records(truth: dict) -> int:
    return truth["slots"] * (1 + len(truth["participants"]) + len(POLICIES))


def check_audit(stdout: str, truth: dict) -> list[str]:
    """audit-verify must report an intact chain of the expected length."""
    match = _INTACT.search(stdout)
    want = expected_records(truth)
    if not match:
        return [f"audit-verify did not report intact: {stdout.strip()[:200]!r}"]
    if int(match.group(1)) != want:
        return [f"audit-verify counted {match.group(1)} records, expected {want}"]
    return []


def expected_kors(truth: dict) -> dict[str, Fraction]:
    """Largest-remainder parts per 10^4 of total consumption, in exact fractions."""
    totals = {pid: sum(truth["meters"][pid]) for pid in truth["participants"]}
    grand = sum(totals.values())
    exact = {pid: Fraction(t * KOR_SCALE, grand) for pid, t in totals.items()}
    parts = {pid: int(x) for pid, x in exact.items()}
    deficit = KOR_SCALE - sum(parts.values())
    for pid in sorted(exact, key=lambda p: (-(exact[p] - parts[p]), p))[:deficit]:
        parts[pid] += 1
    return {pid: Fraction(part, KOR_SCALE) for pid, part in parts.items()}


def check_kors(path: Path, truth: dict) -> list[str]:
    try:
        got = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"derive-kors output unreadable: {exc}"]
    want = expected_kors(truth)
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"derive-kors ids {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
    return [
        f"derive-kors {pid}: {got[pid]!r} != {want[pid]}"
        for pid in sorted(want)
        if type(got[pid]) is not float or got[pid] != float(want[pid])
    ]
