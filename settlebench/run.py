#!/usr/bin/env python3
"""End-to-end settlement benchmark for cscshare.

    python3 settlebench/run.py --workload year-3p --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The benchmark generates the workload's inputs from the seed,
times the set-up every CLI call pays (a fresh interpreter importing
``cscshare.cli`` and loading the config and community), then runs the
closed loop in ``loop.py`` in one child process and checks every output.

Workloads (see ``synthdata.WORKLOADS``):

  year-3p      2024 as one settlement year (17,568 slots, both DST
               switches), PV + 3 participants, all four policies: the
               ledger's write and read sides dominate.
  month-40p    October 2024 (31 days, the 50-slot switch day included),
               40 participants: per-participant work in ingestion and
               allocation dominates.
  kor-history  derive-kors over a year of history for 9 participants,
               which is almost all ingestion; its settle and audit-verify
               run on October 2024 of the same community, so a ledger or
               allocation change moves its settle_s and audit_verify_s but
               not its derive_kors_s.

Every round runs derive-kors, settle and audit-verify. ``--trace 0``
reports the end-to-end metrics, untraced; ``--trace 1`` reports the
per-layer metrics from traced rounds and the tracing overhead against the
untraced rounds of the same run. Human-readable lines and a provenance
record come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import synthdata

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".settlebench-work"
OPS = ("settle", "audit-verify", "derive-kors")
E2E = {"settle": "settle_s", "audit-verify": "audit_verify_s", "derive-kors": "derive_kors_s"}
SETUP_SAMPLES = 9
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from speed import SpeedProbe
with SpeedProbe() as probe:
    start = time.perf_counter()
    from cscshare import cli, runner
    config = runner.load_run_config(sys.argv[1])
    runner.load_community(config.community_file)
    wall = time.perf_counter() - start
print(wall - probe.in_block_s, probe.corrected(wall))
"""
LAYER_TIMES = (
    "ingestion.parse_s",
    "ingestion.normalize_s.energy_wh",
    "ingestion.normalize_s.power_kw_10min",
    "ingestion.normalize_s.energy_kwh_index",
    "ingestion.scenario_s",
    "ingestion.derive_kors_s",
    "model.validate_s",
    *(f"allocation.allocate_s.{p}" for p in synthdata.POLICIES),
    "kernels.self_s",
    "billing.self_s",
    "ledger.append_s",
    "ledger.write_s",
    "ledger.read_s",
    "ledger.verify_s",
    "runner.self_s",
    "cli.self_s",
)
LAYER_COUNTS = {
    "ingestion.parse_rows": "count",
    "ingestion.findings": "count",
    "ingestion.normalize_slots": "count",
    "allocation.slot_allocations": "count",
    "kernels.calls": "count",
    "ledger.records": "count",
    "ledger.bytes": "B",
    "runner.output_bytes": "B",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One string-hash seed for every run, so dict and set layouts, and the
    # time they cost, do not differ from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    # Cached bytecode, as an installed package has; the warm-up set-up run
    # writes it, under the work directory rather than next to the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """(net, speed-corrected) seconds of fresh interpreters doing the set-up.

    Each child times itself from before its first ``cscshare`` import; the
    first child only warms the bytecode cache.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config), str(Path(__file__).parent)],
            env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
        )
        net, corrected = proc.stdout.split()
        samples.append((float(net), float(corrected)))
    return samples[1:]


def run_loop(data: Path, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("loop.py")), "--data", str(data),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(ops: list[dict], data: Path, workload: dict) -> tuple[list[str], int, dict]:
    """Mark each operation failed or not; return (problems, offset mismatches, reference hashes).

    The first round's settle and derive-kors outputs are checked against
    the ground truth; every later repetition must reproduce their bytes.
    """
    settle_problems, mismatched = checks.check_settle(data / "runs" / "settle-0", workload["truth"])
    reference = {
        "settle": (next(op["sha256"] for op in ops if op["op"] == "settle"), settle_problems),
        "derive-kors": (
            next(op["sha256"] for op in ops if op["op"] == "derive-kors"),
            checks.check_kors(data / "runs" / "kors-0.json", workload["kor_truth"]),
        ),
    }
    problems = []
    for op in ops:
        found = [] if op["ok"] else [f"raised: {op['error']}"]
        if op["op"] == "audit-verify":
            found += checks.check_audit(op["stdout"], workload["truth"])
        else:
            sha, ref_problems = reference[op["op"]]
            if sha is None or op["sha256"] != sha:
                found.append("output differs from the first repetition")
            found += ref_problems
        op["failed"] = bool(found)
        problems += [f"{op['op']} round {op['round']}: {p}" for p in found]
    return problems, mismatched, {name: ref[0] for name, ref in reference.items()}


def layer_metrics(result: dict, mismatched: int) -> dict:
    """Per-layer figures of the traced round with the median wall time."""
    rounds = sorted(result["traced_rounds"], key=lambda r: r["wall_s"])
    chosen = rounds[(len(rounds) - 1) // 2]
    metrics = {name: (chosen["self_s"].get(name, 0.0), "s") for name in LAYER_TIMES}
    metrics.update({name: (chosen["counts"].get(name, 0), unit) for name, unit in LAYER_COUNTS.items()})
    metrics["runner.offset_mismatch_slots"] = (mismatched, "count")
    for op in OPS:
        walls = {
            traced: statistics.median(
                o["corrected_s"] for o in result["ops"] if o["op"] == op and o["traced"] == traced
            )
            for traced in (False, True)
        }
        metrics[f"tracing.overhead_s.{op}"] = (walls[True] - walls[False], "s")
    metrics["trace.wall_s"] = (chosen["wall_s"], "s")
    metrics["trace.uncovered_s"] = (chosen["uncovered_s"], "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cscshare end-to-end settlement benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(synthdata.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cscshare" / "cli.py").is_file():
        print(f"settlebench: no cscshare sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    data = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(data, ignore_errors=True)
    try:
        workload = synthdata.generate(args.workload, args.seed, data)
        setup = [] if args.trace else measure_setup(Path(workload["run_config"]))
        result = run_loop(data, args.seconds, args.trace)
        problems, mismatched, hashes = judge(result["ops"], data, workload)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    ops = result["ops"]
    failed = sum(op["failed"] for op in ops)
    untraced = {op: [o for o in ops if o["op"] == op and not o["traced"]] for op in OPS}
    if args.trace:
        metrics = layer_metrics(result, mismatched)
    else:
        metrics = {E2E[op]: (statistics.median(o["corrected_s"] for o in runs), "s") for op, runs in untraced.items()}
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        metrics["setup_s"] = (statistics.median(c for _, c in setup), "s")

    truth, kor_truth = workload["truth"], workload["kor_truth"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "python": result["python"],
        "kernels_backend": result["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": {
            "slots": truth["slots"],
            "participants": len(truth["participants"]),
            "policies": len(synthdata.POLICIES),
            "csv_rows": truth["csv_rows"],
            "ledger_records": checks.expected_records(truth),
            "kor_history_slots": kor_truth["slots"],
            "kor_history_csv_rows": kor_truth["csv_rows"],
        },
        "output_sha256": hashes,
        "samples": {op: len(runs) for op, runs in untraced.items()},
        "uncorrected_wall_s": {
            E2E[op]: statistics.median(o["net_s"] for o in runs) for op, runs in untraced.items()
        } | ({"setup_s": statistics.median(w for w, _ in setup)} if setup else {}),
        "slowdown": statistics.median(o["slowdown"] for runs in untraced.values() for o in runs),
        "setup_samples": len(setup),
        "failed_frac": failed / len(ops),
        "problems": problems[:20],
    }
    print(f"settlebench {args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed "
          f"(failed_frac {failed / len(ops):.4f}), backend {result['backend']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
