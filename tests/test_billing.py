"""SCR and savings arithmetic, report identities, policy comparison."""

from collections import namedtuple
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal, Inexact, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cscshare.allocation import allocate_series, derive_priority_order
from cscshare.billing import (
    CENT,
    SavingsReport,
    ScrReport,
    _pct_diff,
    compare_policies,
    compute_savings,
    compute_scr,
    eur_str,
)
from cscshare.model import (
    MONEY,
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotSeries,
    StaticPolicy,
)

from conftest import DAY, cents, make_buildings, paris_2024, slot_ts


def _alloc(production, self_consumed, consumption=None, k=0, day=DAY):
    """One slot: its start, production, consumption, self-consumed Wh and
    surplus; consumption defaults to the self-consumed Wh."""
    consumption = consumption or dict(self_consumed)
    surplus = production - sum(self_consumed.values())
    return slot_ts(k, day), production, consumption, self_consumed, surplus


@st.composite
def _exact_rates(draw):
    """A rate of 1-60 significant digits, its first at 10^-40 to 10^6."""
    digits = draw(st.integers(1, 60))
    coefficient = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    return Decimal(f"{coefficient}E{draw(st.integers(-40, 6)) - digits + 1}")


_RATES = _exact_rates()
_RATES_OR_ZERO = st.just(Decimal(0)) | _RATES


def _table(*slots):
    """The table of some _alloc slots, which hold the same participants."""
    starts, production, consumption, self_consumed, surplus = zip(*slots)
    return AllocationTable(
        starts, production,
        {pid: tuple(c[pid] for c in consumption) for pid in consumption[0]},
        {pid: tuple(sc[pid] for sc in self_consumed) for pid in consumption[0]},
        surplus,
    )


class TestScr:
    def test_full_self_consumption_is_exactly_one(self):
        report = compute_scr(_table(_alloc(10_000, {"b1": 10_000}, {"b1": 12_000})))
        assert report.scr_decimal() == Decimal(1)
        assert report.scr_text() == "1.000000"

    def test_zero_production_undefined(self):
        report = compute_scr(_table(_alloc(0, {"b1": 0})))
        assert not report.defined
        assert report.scr_decimal() is None
        assert report.scr_text() == "undefined"

    def test_two_slot_example(self):
        allocations = _table(
            _alloc(1000, {"b1": 500}, {"b1": 500}, k=0),
            _alloc(1000, {"b1": 1000}, {"b1": 1000}, k=1),
        )
        assert compute_scr(allocations).scr_decimal() == Decimal("0.75")

    def test_window_filters_slots(self):
        allocations = _table(
            _alloc(1000, {"b1": 0}, {"b1": 0}, k=0),
            _alloc(1000, {"b1": 1000}, {"b1": 1000}, k=0, day=DAY + timedelta(days=1)),
        )
        report = compute_scr(allocations, DateRange.single_day(DAY))
        assert report.production_total == 1000
        assert report.scr_decimal() == Decimal(0)

    def test_monotone_in_self_consumption(self):
        first = _alloc(1000, {"b1": 400}, {"b1": 900}, k=0)
        base = _table(first, _alloc(1000, {"b1": 500}, {"b1": 900}, k=1))
        better = _table(first, _alloc(1000, {"b1": 600}, {"b1": 900}, k=1))
        assert compute_scr(better).scr_decimal() > compute_scr(base).scr_decimal()


class TestSavings:
    def test_unit_kwh_values(self, community):
        # one self-consumed kWh per building plus one surplus kWh
        allocations = _table(_alloc(4000, {"b1": 1000, "b2": 1000, "b4": 1000}, k=0))
        report = compute_savings(allocations, community)
        assert report.per_participant["b1"] == Decimal("0.2158")
        assert report.per_participant["b2"] == Decimal("0.1794")
        assert report.per_participant["b4"] == Decimal("0.11")
        assert report.feed_in == Decimal("0.06")
        assert report.total == Decimal("0.5652")

    def test_unknown_participant_is_hard_error(self, community):
        allocations = _table(_alloc(100, {"intruder": 100}))
        with pytest.raises(ValueError, match="unknown participant"):
            compute_savings(allocations, community)

    def test_report_rendering_rounds_to_cents(self, community):
        allocations = _table(_alloc(1234, {"b1": 1234}))
        report = compute_savings(allocations, community)
        # 1.234 kWh x 0.2158 = 0.2662972 -> 0.27 at report time
        assert report.per_participant["b1"] == Decimal("0.2662972")
        assert report.to_json_dict()["per_participant_eur"]["b1"] == "0.27"

    def test_decomposition_identity_constructed(self):
        with pytest.raises(ValueError, match="total"):
            SavingsReport(
                per_participant={"a": Decimal(1)},
                feed_in=Decimal(1),
                total=Decimal(3),
            )

    @given(
        wh=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                              st.integers(0, 10**6)), min_size=1, max_size=40),
        tariffs=st.tuples(_RATES, _RATES),
        feed=_RATES_OR_ZERO,
    )
    @settings(max_examples=100)
    def test_total_equals_parts_plus_feed_in_fuzzed(self, wh, tariffs, feed):
        p1 = Participant(id="x", tariff_eur_per_kwh=tariffs[0])
        p2 = Participant(id="y", tariff_eur_per_kwh=tariffs[1],
                         grid_uplift_pct=Decimal(28), tax_uplift_pct=Decimal(38))
        community = Community((p1, p2), "pv", feed)
        allocations = _table(*(
            _alloc(a + b + extra, {"x": a, "y": b}, k=k % 48) for k, (a, b, extra) in enumerate(wh[:40])
        ))
        report = compute_savings(allocations, community)
        parts = sum(map(Fraction, report.per_participant.values()))
        assert Fraction(report.total) == parts + Fraction(report.feed_in)

    @given(
        tariffs=st.tuples(_RATES, _RATES),
        uplifts=st.tuples(_RATES_OR_ZERO, _RATES_OR_ZERO, _RATES_OR_ZERO, _RATES_OR_ZERO),
        feed=_RATES_OR_ZERO,
        wh=st.tuples(st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 10**12)),
    )
    @example(  # each rate alone made the identity check refuse a valid input
        tariffs=(Decimal("0.1333333333333333333333"), Decimal("1e30")),
        uplifts=(Decimal(28), Decimal(38), Decimal(0), Decimal(38)),
        feed=Decimal("1e-40"),
        wh=(123456, 654321, 10**12),
    )
    @settings(max_examples=300)
    def test_figures_equal_the_fraction_recomputation(self, tariffs, uplifts, feed, wh):
        x = Participant("x", tariffs[0], uplifts[0], uplifts[1])
        y = Participant("y", tariffs[1], uplifts[2], uplifts[3])
        report = compute_savings(_table(_alloc(sum(wh), {"x": wh[0], "y": wh[1]})), Community((x, y), "pv", feed))

        def value(wh, tariff, grid, tax):
            return Fraction(wh, 1000) * Fraction(tariff) * (1 + (Fraction(grid) + Fraction(tax)) / 100)

        expected = {"x": value(wh[0], tariffs[0], *uplifts[:2]), "y": value(wh[1], tariffs[1], *uplifts[2:])}
        feed_in = Fraction(wh[2], 1000) * Fraction(feed)
        total = sum(expected.values()) + feed_in
        assert {pid: Fraction(v) for pid, v in report.per_participant.items()} == expected
        assert (Fraction(report.feed_in), Fraction(report.total)) == (feed_in, total)
        assert report.to_json_dict() == {
            "per_participant_eur": {pid: cents(v) for pid, v in expected.items()},
            "feed_in_eur": cents(feed_in),
            "total_eur": cents(total),
            "window": None,
        }

    def test_figures_ignore_the_ambient_context(self, community):
        allocations = _table(_alloc(4321, {"b1": 1234, "b2": 2000, "b4": 1}))
        report = compute_savings(allocations, community)
        for ambient in (Context(prec=3), MONEY):
            with localcontext(ambient):
                assert compute_savings(allocations, community) == report

    @given(
        lam=st.sampled_from([Decimal(2), Decimal(3), Decimal("0.5"), Decimal(10)]),
        sc=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        surplus=st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_tariff_scaling_scales_savings_exactly(self, lam, sc, surplus):
        def build(scale):
            p1 = Participant(id="x", tariff_eur_per_kwh=Decimal("0.13") * scale,
                             grid_uplift_pct=Decimal(28), tax_uplift_pct=Decimal(38))
            p2 = Participant(id="y", tariff_eur_per_kwh=Decimal("0.11") * scale)
            community = Community((p1, p2), "pv", Decimal("0.06") * scale)
            allocation = _table(_alloc(sc[0] + sc[1] + surplus, {"x": sc[0], "y": sc[1]}))
            scr = compute_scr(allocation)
            return scr, compute_savings(allocation, community)

        scr_base, base = build(Decimal(1))
        scr_scaled, scaled = build(lam)
        assert scaled.total == base.total * lam
        for pid in base.per_participant:
            assert scaled.per_participant[pid] == base.per_participant[pid] * lam
        assert scr_scaled.scr_decimal() == scr_base.scr_decimal()

    @given(case=st.lists(
        st.tuples(st.integers(0, 10**5), st.integers(0, 10**5), st.integers(0, 10**5),
                  st.integers(0, 3 * 10**5)),
        min_size=1, max_size=48))
    @settings(max_examples=100)
    def test_custom_order_dominates_default_savings(self, case):
        """With the economics-derived order, the waterfall never earns less."""
        buildings = make_buildings()
        community = Community(buildings, "pv1", Decimal("0.06"))
        order = derive_priority_order(buildings)
        starts = [slot_ts(k) for k in range(len(case))]
        *consumption, production = zip(*case)
        production = SlotSeries("pv1", Kind.PRODUCTION, starts, production)
        consumption = [
            SlotSeries(pid, Kind.CONSUMPTION, starts, energies)
            for pid, energies in zip(("b1", "b2", "b4"), consumption)
        ]
        default_allocs = allocate_series(DefaultDynamicPolicy(), production, consumption)
        custom_allocs = allocate_series(CustomDynamicPolicy(order), production, consumption)
        default = compute_savings(default_allocs, community)
        custom = compute_savings(custom_allocs, community)
        assert custom.total >= default.total
        if custom.total == default.total:
            assert custom_allocs.self_consumed == default_allocs.self_consumed


class TestComparePolicies:
    def _reports(self, totals_scr, totals_savings, window=None):
        out = {}
        for name in totals_scr:
            sc, prod = totals_scr[name]
            scr = ScrReport(sc, prod, window)
            parts, feed = totals_savings[name]
            savings = SavingsReport(
                per_participant={k: Decimal(v) for k, v in parts.items()},
                feed_in=Decimal(feed),
                total=sum((Decimal(v) for v in parts.values()), Decimal(feed)),
                window=window,
            )
            out[name] = (scr, savings)
        return out

    def test_identical_reports_zero_differences(self):
        reports = self._reports(
            {"a": (500, 1000), "b": (500, 1000)},
            {"a": ({"x": "1.00"}, "0.10"), "b": ({"x": "1.00"}, "0.10")},
        )
        assert _pairwise(compare_policies(reports)) == {
            ("a", "b"): ("0.00", "0.00"),
            ("b", "a"): ("0.00", "0.00"),
        }

    def test_savings_gap_example(self):
        reports = self._reports(
            {"custom": (1, 1), "static": (1, 1)},
            {"custom": ({"x": "104.84"}, "0"), "static": ({"x": "100.00"}, "0")},
        )
        assert _pairwise(compare_policies(reports))[("custom", "static")][1] == "4.84"

    def test_scr_gap_example(self):
        reports = self._reports(
            {"dyn": (884, 1000), "stat": (851, 1000)},
            {"dyn": ({}, "0"), "stat": ({}, "0")},
        )
        # (0.884 - 0.851) / 0.851 x 100 = 3.8778..., 3.88 at two decimals
        assert _pairwise(compare_policies(reports))[("dyn", "stat")][0] == "3.88"

    def test_mismatched_windows_hard_error(self):
        w1 = DateRange.single_day(DAY)
        w2 = DateRange.single_day(DAY + timedelta(days=1))
        reports = {}
        reports.update(self._reports({"a": (1, 1)}, {"a": ({}, "0")}, window=w1))
        reports.update(self._reports({"b": (1, 1)}, {"b": ({}, "0")}, window=w2))
        with pytest.raises(ValueError, match="window"):
            compare_policies(reports)

    def test_csv_rows_have_documented_columns(self):
        reports = self._reports(
            {"static": (500, 1000)},
            {"static": ({"b1": "1.50", "b2": "0.25"}, "0.10")},
        )
        rows = compare_policies(reports).to_csv_rows()
        assert rows[0] == [
            "policy", "scr", "savings_total_eur",
            "savings_b1_eur", "savings_b2_eur", "feed_in_eur",
        ]
        assert rows[1] == ["static", "0.500000", "1.85", "1.50", "0.25", "0.10"]

    def test_undefined_scr_renders_as_undefined(self):
        reports = self._reports({"a": (0, 0)}, {"a": ({}, "0")})
        comparison = compare_policies(reports)
        assert comparison.to_csv_rows()[1][1] == "undefined"

    def test_zero_base_or_undefined_scr_gives_null_diff(self):
        reports = self._reports(
            {"a": (1, 2), "b": (0, 0)},
            {"a": ({"x": "1"}, "0"), "b": ({}, "0")},
        )
        scr, savings = _pairwise(compare_policies(reports))[("a", "b")]
        assert scr is None  # b's SCR is undefined
        assert savings is None  # b's savings are zero


# The comparison files as rendered from one PolicyRow per policy and one
# PairwiseDiff per ordered pair of policies, the records a comparison held
# besides its reports: the reference the rendering from the reports alone
# must equal.
_PolicyRow = namedtuple("_PolicyRow", "policy scr savings")
_PairwiseDiff = namedtuple("_PairwiseDiff", "policy_a policy_b scr_rel_diff_pct savings_rel_diff_pct")


def _ref_rel_diff(a, b):
    if a is None or b is None or b == 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 28
        return (a - b) / b * 100


def _ref_pct_text(value):
    if value is None:
        return None
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def _reference_files(reports, window):
    """(comparison.csv rows, comparison.json object) of the reports."""
    rows = tuple(
        _PolicyRow(policy=name, scr=reports[name][0], savings=reports[name][1])
        for name in sorted(reports)
    )
    pairwise = []
    for a in rows:
        for b in rows:
            if a.policy == b.policy:
                continue
            pairwise.append(
                _PairwiseDiff(
                    policy_a=a.policy,
                    policy_b=b.policy,
                    scr_rel_diff_pct=_ref_rel_diff(a.scr.scr_decimal(), b.scr.scr_decimal()),
                    savings_rel_diff_pct=_ref_rel_diff(a.savings.total, b.savings.total),
                )
            )
    ids: set[str] = set()
    for row in rows:
        ids.update(row.savings.per_participant)
    ids = sorted(ids)
    header = ["policy", "scr", "savings_total_eur"]
    header += [f"savings_{pid}_eur" for pid in ids]
    header += ["feed_in_eur"]
    csv_rows = [header]
    for row in rows:
        line = [row.policy, row.scr.scr_text(), eur_str(row.savings.total)]
        line += [eur_str(row.savings.per_participant.get(pid, Decimal(0))) for pid in ids]
        line += [eur_str(row.savings.feed_in)]
        csv_rows.append(line)
    json_dict = {
        "window": str(window) if window else None,
        "policies": {
            row.policy: {"scr": row.scr.to_json_dict(), "savings": row.savings.to_json_dict()}
            for row in rows
        },
        "pairwise_rel_diff_pct": [
            {
                "policy_a": d.policy_a,
                "policy_b": d.policy_b,
                "scr": _ref_pct_text(d.scr_rel_diff_pct),
                "savings": _ref_pct_text(d.savings_rel_diff_pct),
            }
            for d in pairwise
        ],
    }
    return csv_rows, json_dict


_EUR = st.sampled_from(
    [Decimal(0), Decimal("0.0001"), Decimal("0.125"), Decimal("0.135"), Decimal("1.5"), Decimal("104.84")]
)


def _reports_of(window=None, **policies):
    """Policy name -> its reports, from (self-consumed Wh, production Wh,
    per-participant EUR, feed-in EUR)."""
    return {
        name: (ScrReport(sc, prod, window), SavingsReport(parts, feed, sum(parts.values(), feed), window))
        for name, (sc, prod, parts, feed) in policies.items()
    }


@st.composite
def _policy_reports(draw):
    """1-4 policies' reports over one window, in any order: some SCRs
    undefined, some savings totals zero, and each policy's savings naming
    only some of the participants."""
    names = draw(st.lists(
        st.sampled_from(["custom-dynamic", "default-dynamic", "static", "static33"]),
        min_size=1, max_size=4, unique=True,
    ))
    policies = {}
    for name in names:
        production = draw(st.one_of(st.just(0), st.integers(1, 10**6)))
        parts = draw(st.dictionaries(st.sampled_from(["b1", "b2", "b4"]), _EUR))
        policies[name] = (draw(st.integers(0, production)), production, parts, draw(_EUR))
    return _reports_of(draw(st.sampled_from([None, DateRange.single_day(DAY)])), **policies)


@given(reports=_policy_reports())
@example(reports=_reports_of(
    static=(0, 0, {}, Decimal(0)),
    static33=(3, 7, {"b1": Decimal("1.5")}, Decimal("0.125")),
    **{"default-dynamic": (5, 10, {"b2": Decimal("0.135"), "b4": Decimal(0)}, Decimal(0))},
))
@settings(max_examples=200)
def test_comparison_files_equal_the_reference(reports):
    comparison = compare_policies(reports)
    csv_rows, json_dict = _reference_files(reports, comparison.window)
    assert comparison.to_csv_rows() == csv_rows
    assert comparison.to_json_dict() == json_dict
    assert len(json_dict["pairwise_rel_diff_pct"]) == len(reports) * (len(reports) - 1)


def _pairwise(comparison) -> dict:
    """(policy_a, policy_b) -> the rendered SCR and savings differences."""
    return {
        (d["policy_a"], d["policy_b"]): (d["scr"], d["savings"])
        for d in comparison.to_json_dict()["pairwise_rel_diff_pct"]
    }


def test_eur_str_rounds_half_even():
    assert eur_str(Decimal("0.125")) == "0.12"
    assert eur_str(Decimal("0.135")) == "0.14"


def test_rendering_holds_figures_beyond_28_digits():
    assert eur_str(Decimal("1e30")) == "1" + "0" * 30 + ".00"
    assert _pct_diff(Decimal(1), Decimal("1e-40")) == "1" + "0" * 42 + ".00"


def test_rendering_ignores_the_ambient_context():
    with localcontext(MONEY):
        # rounding to cents is inexact, so it cannot run in the money context
        with pytest.raises(Inexact):
            Decimal("0.125").quantize(CENT)
        assert eur_str(Decimal("0.125")) == "0.12"
        assert ScrReport(1, 3).scr_text() == "0.333333"
        assert _pct_diff(Decimal(1), Decimal(3)) == "-66.67"


# First instants, in UTC, of Paris local days: before spring forward, when
# 2024-03-31 has 46 slots; before fall back, when 2024-10-27 has 50; and in
# June, when every day has 48.
_DAY_STARTS = (
    datetime(2024, 3, 29, 23, tzinfo=timezone.utc),
    datetime(2024, 10, 25, 22, tzinfo=timezone.utc),
    datetime(2024, 6, 1, 22, tzinfo=timezone.utc),
)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_windowed_reports_equal_reports_of_the_window_alone(data):
    """Windowing a table reports what allocating only the window's slots
    reports, across local midnights and DST days, empty windows included."""
    slot = timedelta(minutes=30)
    first = data.draw(st.sampled_from(_DAY_STARTS)) + data.draw(st.integers(0, 47)) * slot
    n = data.draw(st.integers(1, 150))
    starts = [paris_2024(first + k * slot) for k in range(n)]
    energies = st.lists(st.integers(0, 5000), min_size=n, max_size=n)
    buildings = make_buildings()
    community = Community(buildings, "pv1", Decimal("0.06"))
    ids = [b.id for b in buildings]
    policy = data.draw(st.sampled_from([
        StaticPolicy(KorVector({"b1": 0.5, "b2": 0.3, "b4": 0.2})),
        DefaultDynamicPolicy(),
        CustomDynamicPolicy(derive_priority_order(buildings)),
    ]))
    day = data.draw(st.sampled_from(sorted({ts.date() for ts in starts}))) + timedelta(
        days=data.draw(st.integers(-1, 1))
    )
    window = DateRange(day, day + timedelta(days=data.draw(st.integers(1, 3))))

    def allocate(keep):
        kept = [k for k in range(n) if keep(starts[k])]
        return allocate_series(
            policy,
            SlotSeries("pv1", Kind.PRODUCTION, [starts[k] for k in kept], [production[k] for k in kept]),
            [SlotSeries(pid, Kind.CONSUMPTION, [starts[k] for k in kept], [c[k] for k in kept])
             for pid, c in zip(ids, consumption)],
        )

    production = data.draw(energies)
    consumption = [data.draw(energies) for _ in ids]
    table, alone = allocate(lambda ts: True), allocate(lambda ts: window.start <= ts.date() < window.end)
    scr_alone, savings_alone = compute_scr(alone), compute_savings(alone, community)
    assert compute_scr(table, window) == ScrReport(scr_alone.self_consumed_total, scr_alone.production_total, window)
    savings = compute_savings(table, community, window)
    assert savings == SavingsReport(savings_alone.per_participant, savings_alone.feed_in, savings_alone.total, window)
    if len(alone) == 0:
        assert savings.per_participant == {}
