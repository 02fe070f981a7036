"""Acceptance gate.

One test per release-blocking criterion, each printing a PASS/FAIL line
(run with -s to see them live). Tolerances are pinned here and nowhere
else. Every expected value is either an exact published constant or the
output of an independent oracle computed in this file.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction

from cscshare import kernels
from cscshare.allocation import allocate_series, derive_priority_order
from cscshare.billing import compute_savings, compute_scr
from cscshare.ingestion import (
    add_constant_load,
    apply_pv_gain,
    derive_static_kors,
    ingest_csv,
    normalize_to_slots,
    readings_by_meter,
)
from cscshare.ledger import Ledger, read_ledger, verify_chain, write_ledger
from cscshare.model import (
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    SlotSeries,
    StaticPolicy,
)
from cscshare.synth import DEMO_DC_LOAD_KW, DEMO_PV_GAIN, synthesize_demo_data

from conftest import DAY, allocate_slot, make_buildings, slot_ts


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def _series(meter, kind, values, day=DAY):
    return SlotSeries(meter, kind, [slot_ts(k, day) for k in range(len(values))], values)


# --- 1. published constants ------------------------------------------------

def test_criterion_1_constants_reproduction():
    with criterion(1, "coefficient derivation and tariff ordering reproduce the published constants"):
        started = time.monotonic()

        def annual(totals):
            # spread each participant's annual total over a few slots
            out = []
            for pid, total in totals.items():
                chunk, leftover = divmod(total, 16)
                values = [chunk] * 15 + [chunk + leftover]
                out.append(_series(pid, Kind.CONSUMPTION, values))
            return out

        window = DateRange.single_day(DAY)
        first = derive_static_kors(annual({"b1": 424500, "b2": 503900, "b4": 71600}), window)
        for pid, expected in [("b1", 0.4245), ("b2", 0.5039), ("b4", 0.0716)]:
            assert abs(first.entries[pid] - expected) <= 1e-4  # 0.01 pp

        second = derive_static_kors(annual({"b1": 94400, "b2": 112000, "b4": 793600}), window)
        for pid, expected in [("b1", 0.0944), ("b2", 0.1120), ("b4", 0.7936)]:
            assert abs(second.entries[pid] - expected) <= 1e-4

        b1, b2, b4 = buildings = make_buildings()
        assert derive_priority_order(buildings) == ["b1", "b2", "b4"]
        assert b1.effective_value_eur_per_kwh == Decimal("0.2158")
        assert b2.effective_value_eur_per_kwh == Decimal("0.1794")
        assert b4.effective_value_eur_per_kwh == Decimal("0.11")

        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


# --- 2. conservation -------------------------------------------------------

def test_criterion_2_conservation_suite():
    with criterion(2, "10000 randomized slots conserve energy exactly under all three policies"):
        rng = random.Random(20220504)
        started = time.monotonic()
        for _ in range(10_000):
            n = rng.randint(1, 6)
            ids = [f"p{i}" for i in range(n)]
            magnitude = 10 ** rng.randint(1, 7)
            production = rng.randint(0, magnitude)
            consumption = {i: rng.randint(0, magnitude) for i in ids}
            weights = [rng.randint(0, 1000) for _ in ids]
            if sum(weights) == 0:
                weights[0] = 1
            kors = KorVector({i: w / sum(weights) for i, w in zip(ids, weights)})
            order = sorted(ids, key=lambda _: rng.random())

            for policy in (StaticPolicy(kors), DefaultDynamicPolicy(), CustomDynamicPolicy(order)):
                shares, surplus = allocate_slot(policy, production, consumption)
                assert sum(shares.values()) + surplus == production
                assert all(shares[i] <= consumption[i] for i in ids)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


# --- 3. dominance -----------------------------------------------------------

def test_criterion_3_dominance_suite():
    with criterion(3, "1000 randomized days: SCR static <= dynamic pair; waterfall savings dominate"):
        rng = random.Random(99)
        buildings = make_buildings()
        community = Community(buildings, "pv1", Decimal("0.06"))
        order = derive_priority_order(buildings)
        ids = [p.id for p in buildings]

        for _ in range(1000):
            weights = [rng.randint(1, 100) for _ in ids]
            kors = KorVector({i: w / sum(weights) for i, w in zip(ids, weights)})
            production, consumption = [], {i: [] for i in ids}
            for k in range(48):
                production.append(rng.randint(0, 60_000))
                for i in ids:
                    consumption[i].append(rng.randint(0, 25_000))
            production = _series("pv1", Kind.PRODUCTION, production)
            consumption = [_series(i, Kind.CONSUMPTION, c) for i, c in consumption.items()]
            static_allocs, default_allocs, custom_allocs = (
                allocate_series(policy, production, consumption)
                for policy in (StaticPolicy(kors), DefaultDynamicPolicy(), CustomDynamicPolicy(order))
            )

            scr_static = compute_scr(static_allocs)
            scr_default = compute_scr(default_allocs)
            scr_custom = compute_scr(custom_allocs)
            assert scr_default.self_consumed_total == scr_custom.self_consumed_total
            assert scr_static.self_consumed_total <= scr_default.self_consumed_total

            savings_default = compute_savings(default_allocs, community)
            savings_custom = compute_savings(custom_allocs, community)
            assert savings_custom.total >= savings_default.total
            if savings_custom.total == savings_default.total:
                assert custom_allocs.self_consumed == default_allocs.self_consumed


# --- 4. oracle equivalence ---------------------------------------------------

def test_criterion_4_small_instance_oracles():
    with criterion(4, "exhaustive small slots match brute-force and rational oracles"):
        # effective values of the demo buildings in 1e-4 EUR/kWh, strictly decreasing
        values = (2158, 1794, 1100)

        def brute_best(production, c1, c2, c3):
            # enumerate every feasible split; unique argmax for strictly
            # decreasing positive values
            best_score, best = -1, None
            for s1 in range(min(c1, production) + 1):
                left1 = production - s1
                for s2 in range(min(c2, left1) + 1):
                    s3 = min(c3, left1 - s2)
                    score = s1 * values[0] + s2 * values[1] + s3 * values[2]
                    if score > best_score:
                        best_score, best = score, [s1, s2, s3]
            return best

        def rational_proportional(production, cons):
            total = sum(cons)
            if total == 0:
                return [0] * len(cons), production
            if total < production:
                return list(cons), production - total
            exact = [Fraction(c * production, total) for c in cons]
            base = [int(e) for e in exact]
            rem = [e - b for e, b in zip(exact, base)]
            for i in sorted(range(len(cons)), key=lambda i: (-rem[i], i))[
                : production - sum(base)
            ]:
                base[i] += 1
            return base, 0

        custom_mismatches = default_mismatches = 0
        for production in range(21):
            for c1 in range(21):
                for c2 in range(21):
                    for c3 in range(21):
                        cons = [c1, c2, c3]
                        waterfall, _ = kernels.waterfall_shares(production, cons)
                        if waterfall != brute_best(production, c1, c2, c3):
                            custom_mismatches += 1
                        got = kernels.proportional_shares(production, cons)
                        if got != tuple(rational_proportional(production, cons)) and list(
                            got
                        ) != list(rational_proportional(production, cons)):
                            default_mismatches += 1
        assert custom_mismatches == 0
        assert default_mismatches == 0

        def rational_static(production, coefficients, consumption):
            # Hamilton over the exact decimal coefficients: quota e_i x P / sum(e),
            # floors, leftover units to the largest remainders, ties to the
            # lower (sorted) index, then each share capped at consumption
            exact = [Fraction(str(c)) for c in coefficients]
            quotas = [e * production / sum(exact) for e in exact]
            base = [int(q) for q in quotas]
            for i in sorted(range(len(base)), key=lambda i: (base[i] - quotas[i], i))[
                : production - sum(base)
            ]:
                base[i] += 1
            return [min(b, c) for b, c in zip(base, consumption)]

        vectors = [
            (0.5, 0.25, 0.25),
            (0.86, 0.14),
            (0.02, 0.09, 0.89),  # 0.45 and 4.45 at 5 Wh tie exactly
            tuple(KorVector.equal(range(3)).entries.values()),
            tuple(KorVector.equal(range(7)).entries.values()),
        ]
        static_mismatches = 0
        for coefficients in vectors:
            n = len(coefficients)
            ids = [f"p{i}" for i in range(n)]
            kors = KorVector(dict(zip(ids, coefficients)))
            if n <= 3:
                patterns = list(itertools.product(range(0, 21, 4), repeat=n))
            else:
                patterns = [(c,) * n for c in range(21)]
                patterns += [tuple((c + 3 * i) % 21 for i in range(n)) for c in range(21)]
            for production in range(21):
                for cons in patterns:
                    shares, _ = allocate_slot(StaticPolicy(kors), production, dict(zip(ids, cons)))
                    got = [shares[i] for i in ids]
                    if got != rational_static(production, coefficients, cons):
                        static_mismatches += 1
        assert static_mismatches == 0

        # tie the kernels to the public series surface on a sub-grid
        waterfall = CustomDynamicPolicy(["b1", "b2", "b4"])
        for production in range(9):
            for c1 in range(9):
                for c2 in range(9):
                    for c3 in range(9):
                        consumption = {"b1": c1, "b2": c2, "b4": c3}
                        shares, _ = allocate_slot(waterfall, production, consumption)
                        assert [shares[i] for i in ("b1", "b2", "b4")] == brute_best(
                            production, c1, c2, c3
                        )
                        shares, surplus = allocate_slot(DefaultDynamicPolicy(), production, consumption)
                        want, want_surplus = rational_proportional(production, [c1, c2, c3])
                        assert [shares[i] for i in ("b1", "b2", "b4")] == want
                        assert surplus == want_surplus


# --- 5. scenario properties ---------------------------------------------------

def _load_demo_series(out_dir):
    result = ingest_csv(out_dir / "meters.csv")
    assert result.ok
    by_meter = readings_by_meter([result])
    production = normalize_to_slots(by_meter.pop("pv1"), kind=Kind.PRODUCTION)
    consumption = {
        pid: normalize_to_slots(readings, kind=Kind.CONSUMPTION)
        for pid, readings in by_meter.items()
    }
    return production, consumption


def test_criterion_5_scenario_properties(tmp_path):
    with criterion(5, "data-centre days reach SCR 100% under all four policies; sunny day spills"):
        order = derive_priority_order(make_buildings())

        for profile in ("low_radiation", "high_radiation"):
            out = tmp_path / profile
            synthesize_demo_data(profile, 7, out)
            production, consumption = _load_demo_series(out)
            production = apply_pv_gain(production, DEMO_PV_GAIN)

            # the 100 kW data centre adds exactly 50 000 Wh per slot
            augmented_b4 = add_constant_load(consumption["b4"], DEMO_DC_LOAD_KW)
            assert all(
                after - before == 50_000
                for before, after in zip(consumption["b4"].energies, augmented_b4.energies)
            )
            augmented = dict(consumption, b4=augmented_b4)

            day = production.starts[0].date()
            window = DateRange.single_day(day)
            assert all(
                sum(series.energies[k] for series in augmented.values())
                > production.energies[k]
                for k in range(48)
            )

            derived = derive_static_kors(list(augmented.values()), window)
            policies = [
                StaticPolicy(derived, name="static"),
                StaticPolicy(KorVector.equal(augmented), name="static33"),
                DefaultDynamicPolicy(),
                CustomDynamicPolicy(tuple(order)),
            ]
            for policy in policies:
                allocations = allocate_series(policy, production, list(augmented.values()))
                report = compute_scr(allocations, window)
                assert report.self_consumed_total == report.production_total, policy.name
                assert report.scr_decimal() == 1

            if profile == "high_radiation":
                plain = derive_static_kors(list(consumption.values()), window)
                for policy in [
                    StaticPolicy(plain, name="static"),
                    StaticPolicy(KorVector.equal(consumption), name="static33"),
                    DefaultDynamicPolicy(),
                    CustomDynamicPolicy(tuple(order)),
                ]:
                    allocations = allocate_series(policy, production, list(consumption.values()))
                    assert any(allocations.surplus), policy.name


# --- 6. billing identities ------------------------------------------------------

def test_criterion_6_billing_identities():
    with criterion(6, "unit-kWh savings match the tariff constants; totals always decompose"):
        buildings = make_buildings()
        community = Community(buildings, "pv1", Decimal("0.06"))

        one_kwh = {"b1": (1000,), "b2": (1000,), "b4": (1000,)}
        one_kwh_each = AllocationTable((slot_ts(0),), (4000,), one_kwh, one_kwh, (1000,))
        report = compute_savings(one_kwh_each, community)
        assert report.per_participant["b1"] == Decimal("0.2158")
        assert report.per_participant["b2"] == Decimal("0.1794")
        assert report.per_participant["b4"] == Decimal("0.11")
        assert report.feed_in == Decimal("0.06")

        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 48)
            sc, surplus = {p.id: [] for p in buildings}, []
            for k in range(n):
                for column in sc.values():
                    column.append(rng.randint(0, 10**6))
                surplus.append(rng.randint(0, 10**6))
            production = [sum(slot) for slot in zip(*sc.values(), surplus)]
            allocations = AllocationTable([slot_ts(k) for k in range(n)], production, sc, sc, surplus)
            fuzzed = compute_savings(allocations, community)
            assert fuzzed.total == sum(fuzzed.per_participant.values()) + fuzzed.feed_in


# --- 7. audit ledger --------------------------------------------------------------

def test_criterion_7_audit_ledger(tmp_path):
    with criterion(7, "1000-record chain verifies; every single-bit mutation is caught; a read log continues byte for byte"):
        rng = random.Random(7)
        records = [
            (
                {"kind": "production", "energy_wh": rng.randint(0, 10**6)},
                "pv1",
                slot_ts(k % 48, DAY + timedelta(days=k // 48)),
            )
            for k in range(1000)
        ]
        ledger = Ledger()
        for record in records:
            ledger.append(*record)
        assert verify_chain(ledger).intact

        path = tmp_path / "audit.log"
        write_ledger(ledger, path)
        original = path.read_bytes()

        reread = read_ledger(path)
        hashes = [json.loads(line)["hash"] for line in original.splitlines()]
        assert (len(reread), reread.head_hash) == (len(hashes), hashes[-1]) == (1000, ledger.head_hash)
        # the log's first 600 lines, read back and continued with the rest
        first = tmp_path / "first.log"
        first.write_bytes(b"".join(original.splitlines(keepends=True)[:600]))
        continued = read_ledger(first)
        for record in records[600:]:
            continued.append(*record)
        segment = tmp_path / "segment.log"
        write_ledger(continued, segment)
        assert first.read_bytes() + segment.read_bytes() == original
        assert (len(continued), continued.head_hash, verify_chain(continued).intact) == (1000, ledger.head_hash, True)

        lines = original.split(b"\n")[:-1]
        offsets = []
        pos = 0
        for line in lines:
            offsets.append((pos, len(line)))
            pos += len(line) + 1

        for index in range(1000):
            start, length = offsets[index]
            flip_at = start + rng.randrange(length)
            mutated = bytearray(original)
            mutated[flip_at] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(mutated))
            try:
                tampered = read_ledger(path)
            except ValueError:
                continue  # mutation broke the serialization itself: detected
            report = verify_chain(tampered)
            assert not report.intact, f"bit flip in record {index} went unnoticed"
            assert report.first_break <= index


# --- 8. determinism -----------------------------------------------------------------

def test_criterion_8_run_determinism(tmp_path):
    with criterion(8, "identical config and seed give byte-identical output trees"):
        from click.testing import CliRunner

        from cscshare.cli import main

        runner = CliRunner()
        trees = []
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            r = runner.invoke(main, [
                "synth-data", "high_radiation", "--out", str(base), "--seed", "11",
            ])
            assert r.exit_code == 0, r.output
            r = runner.invoke(main, [
                "run", "--config", str(base / "run_config.json"),
                "--out", str(base / "reports"),
            ])
            assert r.exit_code == 0, r.output
            tree = {
                str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            }
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]
