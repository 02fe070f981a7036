"""Per-layer spans, recorded from outside the program.

``Tracer.installed()`` wraps each layer's public functions at the names
their callers look them up by, and restores the originals on exit. Each
wrapper times its call, charges the time minus that of nested wrapped
calls to its layer's self time, and bumps the layer's counters. Spans are
aggregated per name, not kept one per call, because the kernels and
``Ledger.append`` run hundreds of thousands of times per operation.

Untraced runs never install a wrapper.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []

    def wrap(self, fn, name, count=None):
        """Return ``fn`` timed under ``name`` (a string or a function of the call's arguments)."""
        self_s, counts, stack = self.self_s, self.counts, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
            self_s[name if isinstance(name, str) else name(*args, **kwargs)] += elapsed - children
            if count is not None:
                for key, amount in count(result, *args, **kwargs).items():
                    counts[key] += amount
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's layer entry points for the duration of the block."""
        from cscshare import cli, kernels, ledger, runner

        targets = [
            (runner, "ingest_csv", "ingestion.parse_s", _count_parse),
            (runner, "normalize_to_slots", _normalize_name, _count_slots),
            (cli, "normalize_to_slots", _normalize_name, _count_slots),
            (runner, "apply_pv_gain", "ingestion.scenario_s", None),
            (runner, "add_constant_load", "ingestion.scenario_s", None),
            (cli, "derive_static_kors", "ingestion.derive_kors_s", None),
            (runner, "validate_community", "model.validate_s", None),
            (runner, "allocate_series", _allocate_name, _count_allocations),
            (runner, "compute_scr", "billing.self_s", None),
            (runner, "compute_savings", "billing.self_s", None),
            (runner, "compare_policies", "billing.self_s", None),
            (ledger.Ledger, "append", "ledger.append_s", lambda r, *a, **k: {"ledger.records": 1}),
            (runner, "write_ledger", "ledger.write_s", _count_ledger_bytes),
            (ledger, "read_ledger", "ledger.read_s", None),
            (ledger, "verify_chain", "ledger.verify_s", None),
            (runner, "run", "runner.self_s", _count_output_bytes),
        ]
        targets += [
            (kernels, name, "kernels.self_s", lambda r, *a, **k: {"kernels.calls": 1})
            for name in ("static_shares", "proportional_shares", "waterfall_shares")
        ]
        targets += [(command, "callback", "cli.self_s", None) for command in cli.main.commands.values()]

        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _normalize_name(records, *args, **kwargs) -> str:
    return f"ingestion.normalize_s.{records[0].quantity_kind.value}"


def _allocate_name(policy, *args, **kwargs) -> str:
    return f"allocation.allocate_s.{policy.name}"


def _count_parse(result, *args, **kwargs) -> dict:
    return {
        "ingestion.parse_rows": len(result.records) + len(result.errors),
        "ingestion.findings": len(result.errors),
    }


def _count_slots(series, *args, **kwargs) -> dict:
    return {"ingestion.normalize_slots": len(series)}


def _count_allocations(allocations, *args, **kwargs) -> dict:
    return {"allocation.slot_allocations": len(allocations)}


def _count_ledger_bytes(result, ledger, target, *args, **kwargs) -> dict:
    return {"ledger.bytes": os.path.getsize(target)}


def _count_output_bytes(result, *args, **kwargs) -> dict:
    return {"runner.output_bytes": sum(os.path.getsize(p) for p in result.files)}
