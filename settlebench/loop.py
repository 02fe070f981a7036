"""Closed loop over the three benchmarked commands, in one process.

Runs rounds of ``derive-kors``, ``settle`` (``cscshare run``) and
``audit-verify`` through ``cscshare.cli.main`` one operation at a time,
each settle into a fresh output directory and each audit-verify on the
audit log the settle before it wrote. A round starts while the loop
expects it to end within half a round of the time budget. With tracing
on, untraced and traced rounds alternate so the tracing overhead can be
taken from the same process. Every operation runs under a speed probe
(see ``speed.py``); in traced rounds its handler's time, under 1% of the
wall time, falls into whichever layer's span it interrupts.

Prints one JSON object: every operation with its wall time, its
speed-corrected time, success, the SHA-256 of its output and its captured
standard output; the layer figures of every traced round; and the
process's peak resident memory. The first round's outputs are kept for
the caller's correctness checks, later ones are deleted once hashed.

    python loop.py --data DIR --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import time
import traceback
from pathlib import Path

from checks import tree_sha256
from layers import Tracer
from speed import SpeedProbe


def run_op(main, argv: list[str]) -> dict:
    """Time one CLI command in-process; a raise or non-zero exit is a failure.

    ``wall_s`` is the whole wall time, ``net_s`` excludes the speed probe's
    handler and ``corrected_s`` is ``net_s`` at the nominal speed.
    """
    # A full collection first, so every operation starts from the collector
    # state of a fresh CLI process instead of inheriting the last one's.
    gc.collect()
    out = io.StringIO()
    error = None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except Exception:  # a failing operation is counted, and the loop goes on
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "net_s": wall - probe.in_block_s,
        "corrected_s": probe.corrected(wall),
        "slowdown": probe.slowdown(),
        "ok": error is None,
        "error": error,
        "stdout": out.getvalue(),
    }


def run_round(main, data: Path, index: int, traced: bool) -> list[dict]:
    runs = data / "runs"
    settle_dir = runs / f"settle-{index}"
    kors_path = runs / f"kors-{index}.json"
    ops = []
    for name, argv, output in (
        ("derive-kors", ["derive-kors", "--config", str(data / "kors_config.json"), "--out", str(kors_path)], kors_path),
        ("settle", ["run", "--config", str(data / "run_config.json"), "--out", str(settle_dir)], settle_dir),
        ("audit-verify", ["audit-verify", str(settle_dir / "audit.log")], None),
    ):
        record = {"op": name, "round": index, "traced": traced, **run_op(main, argv)}
        if output is not None:
            record["sha256"] = tree_sha256(output) if output.exists() else None
        ops.append(record)
    if index > 0:
        shutil.rmtree(settle_dir, ignore_errors=True)
        kors_path.unlink(missing_ok=True)
    return ops


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from cscshare import cli, kernels

    (args.data / "runs").mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    traced_rounds: list[dict] = []
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer.installed():
                round_ops = run_round(cli.main, args.data, index, traced)
            wall = sum(op["wall_s"] for op in round_ops)
            traced_rounds.append(
                {
                    "wall_s": wall,
                    "self_s": dict(tracer.self_s),
                    "counts": dict(tracer.counts),
                    "uncovered_s": wall - sum(tracer.self_s.values()),
                }
            )
        else:
            round_ops = run_round(cli.main, args.data, index, traced)
        ops += round_ops
        index += 1
        elapsed = time.perf_counter() - start
        if index >= min_rounds and elapsed + 0.5 * elapsed / index >= args.seconds:
            break

    print(
        json.dumps(
            {
                "ops": ops,
                "traced_rounds": traced_rounds,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "backend": kernels.BACKEND,
                "python": platform.python_version(),
            }
        )
    )


if __name__ == "__main__":
    main()
