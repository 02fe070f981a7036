"""Per-slot policies: worked examples and the conservation/dominance laws."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cscshare import kernels
from cscshare.allocation import (
    allocate_custom_dynamic,
    allocate_default_dynamic,
    allocate_series,
    allocate_static,
    derive_priority_order,
)
from cscshare.model import (
    Community,
    CustomDynamicPolicy,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotSeries,
    StaticPolicy,
    TariffBook,
)

from conftest import make_buildings, slot_ts

KORS = KorVector({"b1": 0.4245, "b2": 0.5039, "b4": 0.0716})
CONS = {"b1": 4000, "b2": 3000, "b4": 2000}


class TestStatic:
    def test_truncation_example(self):
        a = allocate_static(10_000, CONS, KORS)
        assert a.self_consumed == {"b1": 4000, "b2": 3000, "b4": 716}
        assert a.surplus_to_grid == 2284

    def test_zero_production(self):
        a = allocate_static(0, CONS, KORS)
        assert a.self_consumed == {"b1": 0, "b2": 0, "b4": 0}
        assert a.surplus_to_grid == 0

    def test_no_truncation_branch(self):
        a = allocate_static(1000, CONS, KORS)
        # every share below consumption: shares sum to production, no surplus
        assert sum(a.self_consumed.values()) == 1000
        assert a.surplus_to_grid == 0
        # raw 424.5 / 503.9 / 71.6; the two largest remainders get the +1s
        assert a.self_consumed == {"b1": 424, "b2": 504, "b4": 72}

    def test_exact_tie_goes_to_smaller_id(self):
        # 0.86 x 25 = 21.5 and 0.14 x 25 = 3.5 tie exactly; the float
        # products 21.499999999999996 and 3.5000000000000004 used to give b the unit
        a = allocate_static(25, {"a": 10**6, "b": 10**6}, KorVector({"a": 0.86, "b": 0.14}))
        assert a.self_consumed == {"a": 22, "b": 3}
        assert a.surplus_to_grid == 0

    def test_kor_keys_must_match(self):
        with pytest.raises(ValueError, match="cover"):
            allocate_static(100, {"b1": 50, "b2": 50}, KORS)


class TestDefaultDynamic:
    def test_under_production_everyone_full(self):
        a = allocate_default_dynamic(10_000, CONS)
        assert a.self_consumed == CONS
        assert a.surplus_to_grid == 1000

    def test_proportional_branch(self):
        a = allocate_default_dynamic(6000, CONS)
        assert a.self_consumed == {"b1": 2667, "b2": 2000, "b4": 1333}
        assert a.surplus_to_grid == 0

    def test_zero_consumption_degenerate(self):
        a = allocate_default_dynamic(5000, {"b1": 0, "b2": 0, "b4": 0})
        assert a.total_self_consumed == 0
        assert a.surplus_to_grid == 5000

    def test_exact_balance_both_branches_agree(self):
        a = allocate_default_dynamic(9000, CONS)
        assert a.self_consumed == CONS
        assert a.surplus_to_grid == 0


class TestCustomDynamic:
    ORDER = ["b1", "b2", "b4"]

    def test_all_served(self):
        a = allocate_custom_dynamic(10_000, CONS, self.ORDER)
        assert a.self_consumed == CONS
        assert a.surplus_to_grid == 1000

    def test_waterfall_cuts_off(self):
        a = allocate_custom_dynamic(5000, CONS, self.ORDER)
        assert a.self_consumed == {"b1": 4000, "b2": 1000, "b4": 0}
        assert a.surplus_to_grid == 0

    def test_zero_production(self):
        a = allocate_custom_dynamic(0, CONS, self.ORDER)
        assert a.total_self_consumed == 0

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            allocate_custom_dynamic(100, CONS, ["b1", "b2"])


class TestPriorityOrder:
    def test_tariff_economics_order(self):
        buildings = make_buildings()
        book = TariffBook.from_community(Community(buildings, "pv1", Decimal("0.06")))
        order = derive_priority_order(buildings, book)
        assert order == ["b1", "b2", "b4"]
        assert book.effective_value_eur_per_kwh("b1") == Decimal("0.2158")
        assert book.effective_value_eur_per_kwh("b2") == Decimal("0.1794")
        assert book.effective_value_eur_per_kwh("b4") == Decimal("0.11")

    def test_ties_break_lexicographically(self):
        twins = [
            Participant(id=n, tariff_eur_per_kwh=Decimal("0.2"), priority_rank=r)
            for r, n in enumerate(["zeta", "alpha", "mid"], start=1)
        ]
        book = TariffBook(
            tariffs_eur_per_kwh={p.id: p.tariff_eur_per_kwh for p in twins},
            grid_uplift_pct={p.id: Decimal(0) for p in twins},
            tax_uplift_pct={p.id: Decimal(0) for p in twins},
            feed_in_eur_per_kwh=Decimal("0.06"),
        )
        assert derive_priority_order(twins, book) == ["alpha", "mid", "zeta"]

    def test_single_participant(self):
        (p,) = [Participant(id="solo", tariff_eur_per_kwh=Decimal("0.1"))]
        book = TariffBook(
            tariffs_eur_per_kwh={"solo": Decimal("0.1")},
            grid_uplift_pct={"solo": Decimal(0)},
            tax_uplift_pct={"solo": Decimal(0)},
            feed_in_eur_per_kwh=Decimal(0),
        )
        assert derive_priority_order([p], book) == ["solo"]


# --- randomized slot strategies -------------------------------------------

IDS = ("a", "b", "c", "d", "e")


@st.composite
def slot_case(draw, max_energy=10**6, max_n=5):
    n = draw(st.integers(1, max_n))
    ids = IDS[:n]
    production = draw(st.integers(0, max_energy))
    consumption = {i: draw(st.integers(0, max_energy)) for i in ids}
    return production, consumption


@st.composite
def kor_for(draw, ids):
    weights = [draw(st.integers(0, 1000)) for _ in ids]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return KorVector({i: w / total for i, w in zip(ids, weights)})


@st.composite
def slot_case_with_kors(draw):
    production, consumption = draw(slot_case())
    kors = draw(kor_for(sorted(consumption)))
    return production, consumption, kors


def every_policy(production, consumption, kors):
    order = sorted(consumption)
    return {
        "static": allocate_static(production, consumption, kors),
        "default-dynamic": allocate_default_dynamic(production, consumption),
        "custom-dynamic": allocate_custom_dynamic(production, consumption, order),
    }


# Energies far beyond any 30-minute meter reading: the kernels must stay
# exact on unbounded integers.
HUGE_CASE = (
    2**40,
    {"a": 2**39, "b": 2**39, "c": 7},
    KorVector({"a": 0.5, "b": 0.25, "c": 0.25}),
)


class TestInvariants:
    @given(case=slot_case_with_kors())
    @example(case=HUGE_CASE)
    @settings(max_examples=300)
    def test_conservation_and_caps_all_policies(self, case):
        production, consumption, kors = case
        for name, a in every_policy(production, consumption, kors).items():
            # caps and conservation are also constructor-enforced; recheck the sums
            assert sum(a.self_consumed.values()) + a.surplus_to_grid == production, name
            assert all(a.self_consumed[i] <= consumption[i] for i in consumption), name

    @given(case=slot_case_with_kors())
    @settings(max_examples=300)
    def test_dynamic_totality_and_static_bound(self, case):
        production, consumption, kors = case
        results = every_policy(production, consumption, kors)
        expected = min(production, sum(consumption.values()))
        assert results["default-dynamic"].total_self_consumed == expected
        assert results["custom-dynamic"].total_self_consumed == expected
        assert results["static"].total_self_consumed <= expected

    @given(case=slot_case())
    @settings(max_examples=300)
    def test_waterfall_at_most_one_partial(self, case):
        production, consumption = case
        order = sorted(consumption)
        a = allocate_custom_dynamic(production, consumption, order)
        partial = [i for i in order if 0 < a.self_consumed[i] < consumption[i]]
        assert len(partial) <= 1
        if partial:
            cut = order.index(partial[0])
            assert all(a.self_consumed[i] == consumption[i] for i in order[:cut])
            assert all(a.self_consumed[i] == 0 for i in order[cut + 1:])

    @given(case=slot_case_with_kors(), salt=st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_key_order_never_changes_results(self, case, salt):
        production, consumption, kors = case
        shuffled_items = list(consumption.items())
        salt.shuffle(shuffled_items)
        shuffled = dict(shuffled_items)
        for build in (
            lambda c: allocate_static(production, c, kors),
            lambda c: allocate_default_dynamic(production, c),
            lambda c: allocate_custom_dynamic(production, c, sorted(c)),
        ):
            assert build(consumption).self_consumed == build(shuffled).self_consumed

    @given(case=slot_case_with_kors())
    @settings(max_examples=200)
    def test_static_shares_presum_to_production(self, case):
        # before truncation the rounded shares must add up exactly
        production, consumption, kors = case
        huge = {i: production for i in consumption}  # no cap can bind
        a = allocate_static(production, huge, kors)
        assert a.total_self_consumed == production
        assert a.surplus_to_grid == 0


def hamilton(amount, weights):
    """Largest remainder on exact rationals, ties to the lower index."""
    quotas = [Fraction(w * amount, sum(weights)) for w in weights]
    parts = [q.numerator // q.denominator for q in quotas]
    by_remainder = sorted(range(len(parts)), key=lambda i: (parts[i] - quotas[i], i))
    for i in by_remainder[: amount - sum(parts)]:
        parts[i] += 1
    return parts


class TestApportion:
    @given(
        amount=st.integers(0, 10**6),
        weights=st.lists(
            st.one_of(st.integers(0, 12), st.integers(0, 10**17)), min_size=1, max_size=10
        ).filter(any),
    )
    @example(amount=25, weights=[86, 14])
    @example(amount=5, weights=[2, 9, 89])
    @example(amount=2, weights=[3333333333333333] * 3)
    @example(amount=10**6, weights=[0, 0, 7])
    @settings(max_examples=500)
    def test_matches_fraction_reference(self, amount, weights):
        assert kernels.apportion(amount, weights) == hamilton(amount, weights)

    def test_no_weights_no_parts(self):
        assert kernels.apportion(7, []) == []


class TestAllocateSeries:
    def _series(self, meter, kind, values, start=0):
        return SlotSeries(meter, kind, [slot_ts(start + k) for k in range(len(values))], values)

    def test_one_allocation_per_slot(self):
        production = self._series("pv1", Kind.PRODUCTION, [100] * 48)
        cons = [
            self._series("b1", Kind.CONSUMPTION, [60] * 48),
            self._series("b2", Kind.CONSUMPTION, [70] * 48),
        ]
        out = allocate_series(DefaultDynamicPolicy(), production, cons)
        assert len(out) == 48
        assert all(a.production == 100 for a in out)
        assert [a.slot_start for a in out] == list(production.starts)

    def test_empty_slot_set(self):
        production = self._series("pv1", Kind.PRODUCTION, [])
        out = allocate_series(DefaultDynamicPolicy(), production, [])
        assert out == []

    def test_slot_mismatch_names_first_gap(self):
        production = self._series("pv1", Kind.PRODUCTION, [100] * 4, start=20)
        short = [self._series("b1", Kind.CONSUMPTION, [60] * 3, start=21)]
        with pytest.raises(ValueError, match="10:00"):
            allocate_series(DefaultDynamicPolicy(), production, short)

    def test_policy_dispatch(self):
        production = self._series("pv1", Kind.PRODUCTION, [10_000])
        cons = [
            self._series(i, Kind.CONSUMPTION, [CONS[i]]) for i in ("b1", "b2", "b4")
        ]
        static = allocate_series(StaticPolicy(KORS), production, cons)
        assert static[0].self_consumed == {"b1": 4000, "b2": 3000, "b4": 716}
        custom = allocate_series(
            CustomDynamicPolicy(("b1", "b2", "b4")), production, cons
        )
        assert custom[0].self_consumed == CONS

    @given(data=st.data())
    @settings(max_examples=150)
    def test_series_equals_per_slot_functions(self, data):
        n_slots = data.draw(st.integers(1, 6))
        ids = IDS[: data.draw(st.integers(1, 5))]
        energy = st.lists(st.integers(0, 10_000), min_size=n_slots, max_size=n_slots)
        production = self._series("pv1", Kind.PRODUCTION, data.draw(energy))
        cons = [self._series(i, Kind.CONSUMPTION, data.draw(energy)) for i in ids]
        shuffled = data.draw(st.permutations(cons))
        kors = data.draw(kor_for(ids))
        order = tuple(data.draw(st.permutations(ids)))
        per_slot = [
            (StaticPolicy(kors), lambda p, c, ts: allocate_static(p, c, kors, ts)),
            (DefaultDynamicPolicy(), allocate_default_dynamic),
            (
                CustomDynamicPolicy(order),
                lambda p, c, ts: allocate_custom_dynamic(p, c, order, ts),
            ),
        ]
        for policy, allocate_slot in per_slot:
            out = allocate_series(policy, production, shuffled)
            assert len(out) == n_slots
            for k, (ts, prod) in enumerate(zip(production.starts, production.energies)):
                want = allocate_slot(prod, {s.meter_id: s.energies[k] for s in cons}, ts)
                got = out[k]
                assert got.consumption == want.consumption, policy
                assert got.self_consumed == want.self_consumed, policy
                assert got.surplus_to_grid == want.surplus_to_grid, policy
                assert got.slot_start == want.slot_start == ts, policy

    @pytest.mark.parametrize(
        "policy", [DefaultDynamicPolicy(), CustomDynamicPolicy(())], ids=lambda p: p.name
    )
    def test_no_consumption_series_is_all_surplus(self, policy):
        production = self._series("pv1", Kind.PRODUCTION, [0, 250, 900])
        out = allocate_series(policy, production, [])
        slots = list(zip(production.starts, production.energies))
        assert [(a.slot_start, a.surplus_to_grid) for a in out] == slots
        assert all(a.consumption == {} and a.self_consumed == {} for a in out)

    def test_slot_mismatch_names_earliest_differing_slot(self):
        # b1 has an extra slot before production starts and lacks the last one
        production = self._series("pv1", Kind.PRODUCTION, [100] * 4, start=20)
        shifted = [self._series("b1", Kind.CONSUMPTION, [60] * 4, start=19)]
        with pytest.raises(ValueError, match="09:30"):
            allocate_series(DefaultDynamicPolicy(), production, shifted)
