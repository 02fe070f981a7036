"""Per-slot policies: worked examples and the conservation/dominance laws."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cscshare import kernels
from cscshare.allocation import allocate_series, derive_priority_order
from cscshare.billing import compute_savings
from cscshare.model import (
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotSeries,
    StaticPolicy,
)

from conftest import allocate_slot, make_buildings, slot_ts

KORS = KorVector({"b1": 0.4245, "b2": 0.5039, "b4": 0.0716})
CONS = {"b1": 4000, "b2": 3000, "b4": 2000}
ORDER = CustomDynamicPolicy(["b1", "b2", "b4"])


class TestStatic:
    def test_truncation_example(self):
        assert allocate_slot(StaticPolicy(KORS), 10_000, CONS) == (
            {"b1": 4000, "b2": 3000, "b4": 716}, 2284
        )

    def test_zero_production(self):
        assert allocate_slot(StaticPolicy(KORS), 0, CONS) == ({"b1": 0, "b2": 0, "b4": 0}, 0)

    def test_no_truncation_branch(self):
        shares, surplus = allocate_slot(StaticPolicy(KORS), 1000, CONS)
        # every share below consumption: shares sum to production, no surplus
        assert sum(shares.values()) == 1000
        assert surplus == 0
        # raw 424.5 / 503.9 / 71.6; the two largest remainders get the +1s
        assert shares == {"b1": 424, "b2": 504, "b4": 72}

    def test_exact_tie_goes_to_smaller_id(self):
        # 0.86 x 25 = 21.5 and 0.14 x 25 = 3.5 tie exactly; the float
        # products 21.499999999999996 and 3.5000000000000004 used to give b the unit
        policy = StaticPolicy(KorVector({"a": 0.86, "b": 0.14}))
        assert allocate_slot(policy, 25, {"a": 10**6, "b": 10**6}) == ({"a": 22, "b": 3}, 0)

    def test_kor_keys_must_match(self):
        with pytest.raises(ValueError, match="cover"):
            allocate_slot(StaticPolicy(KORS), 100, {"b1": 50, "b2": 50})


class TestDefaultDynamic:
    def test_under_production_everyone_full(self):
        assert allocate_slot(DefaultDynamicPolicy(), 10_000, CONS) == (CONS, 1000)

    def test_proportional_branch(self):
        assert allocate_slot(DefaultDynamicPolicy(), 6000, CONS) == (
            {"b1": 2667, "b2": 2000, "b4": 1333}, 0
        )

    def test_zero_consumption_degenerate(self):
        shares, surplus = allocate_slot(DefaultDynamicPolicy(), 5000, {"b1": 0, "b2": 0, "b4": 0})
        assert sum(shares.values()) == 0
        assert surplus == 5000

    def test_exact_balance_both_branches_agree(self):
        assert allocate_slot(DefaultDynamicPolicy(), 9000, CONS) == (CONS, 0)


class TestCustomDynamic:
    def test_all_served(self):
        assert allocate_slot(ORDER, 10_000, CONS) == (CONS, 1000)

    def test_waterfall_cuts_off(self):
        assert allocate_slot(ORDER, 5000, CONS) == ({"b1": 4000, "b2": 1000, "b4": 0}, 0)

    def test_zero_production(self):
        shares, _ = allocate_slot(ORDER, 0, CONS)
        assert sum(shares.values()) == 0

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            allocate_slot(CustomDynamicPolicy(["b1", "b2"]), 100, CONS)


class TestPriorityOrder:
    def test_tariff_economics_order(self):
        b1, b2, b4 = buildings = make_buildings()
        assert derive_priority_order(buildings) == ["b1", "b2", "b4"]
        assert b1.effective_value_eur_per_kwh == Decimal("0.2158")
        assert b2.effective_value_eur_per_kwh == Decimal("0.1794")
        assert b4.effective_value_eur_per_kwh == Decimal("0.11")

    def test_ties_break_lexicographically(self):
        twins = [
            Participant(id=n, tariff_eur_per_kwh=Decimal("0.2"))
            for n in ["zeta", "alpha", "mid"]
        ]
        assert derive_priority_order(twins) == ["alpha", "mid", "zeta"]

    def test_single_participant(self):
        p = Participant(id="solo", tariff_eur_per_kwh=Decimal("0.1"))
        assert derive_priority_order([p]) == ["solo"]

    def test_values_beyond_28_digits_rank_exactly(self):
        # b2's value exceeds b1's only in the 29th digit: negating it in
        # a 28-digit context would make the two tie, and b1 win on id
        b1 = Participant("b1", Decimal("0.1"), Decimal(28), Decimal(38))
        b2 = Participant("b2", Decimal("0.10000000000000000000000000001"), Decimal(28), Decimal(38))
        assert b2.effective_value_eur_per_kwh > b1.effective_value_eur_per_kwh
        assert derive_priority_order([b1, b2]) == ["b2", "b1"]

    @given(
        ids=st.lists(st.text("abxyz", min_size=1, max_size=2), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_order_ranks_by_the_savings_of_one_kwh(self, ids, data):
        """The order is the ids by descending savings of one self-consumed
        kWh each, ties by id: ranking and billing read one value."""
        # a few shared rates make equal values, and so ties, likely
        tariff = st.sampled_from([Decimal("0.11"), Decimal("0.13"), Decimal("0.2")]) | st.decimals(
            min_value="0.0001", max_value="2", places=4
        )
        uplift = st.sampled_from([Decimal(0), Decimal(28), Decimal(38)]) | st.decimals(
            min_value="0", max_value="200", places=2
        )
        participants = [
            Participant(pid, data.draw(tariff), data.draw(uplift), data.draw(uplift))
            for pid in ids
        ]
        community = Community(participants, "pv", Decimal("0.06"))
        one_kwh = {pid: (1000,) for pid in ids}
        allocation = AllocationTable((slot_ts(0),), (1000 * len(ids),), one_kwh, one_kwh, (0,))
        savings = compute_savings(allocation, community).per_participant
        assert derive_priority_order(participants) == sorted(ids, key=lambda pid: (-savings[pid], pid))


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
    """Each policy's (self-consumed, surplus) split of one slot."""
    policies = (StaticPolicy(kors), DefaultDynamicPolicy(), CustomDynamicPolicy(sorted(consumption)))
    return {p.name: allocate_slot(p, production, consumption) for p in policies}


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
        for name, (shares, surplus) in every_policy(production, consumption, kors).items():
            # caps and conservation are also constructor-enforced; recheck the sums
            assert sum(shares.values()) + surplus == production, name
            assert all(shares[i] <= consumption[i] for i in consumption), name

    @given(case=slot_case_with_kors())
    @settings(max_examples=300)
    def test_dynamic_totality_and_static_bound(self, case):
        production, consumption, kors = case
        totals = {
            name: sum(shares.values())
            for name, (shares, _) in every_policy(production, consumption, kors).items()
        }
        expected = min(production, sum(consumption.values()))
        assert totals["default-dynamic"] == expected
        assert totals["custom-dynamic"] == expected
        assert totals["static"] <= expected

    @given(case=slot_case())
    @settings(max_examples=300)
    def test_waterfall_at_most_one_partial(self, case):
        production, consumption = case
        order = sorted(consumption)
        shares, _ = allocate_slot(CustomDynamicPolicy(order), production, consumption)
        partial = [i for i in order if 0 < shares[i] < consumption[i]]
        assert len(partial) <= 1
        if partial:
            cut = order.index(partial[0])
            assert all(shares[i] == consumption[i] for i in order[:cut])
            assert all(shares[i] == 0 for i in order[cut + 1:])

    @given(case=slot_case_with_kors(), salt=st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_key_order_never_changes_results(self, case, salt):
        production, consumption, kors = case
        shuffled_items = list(consumption.items())
        salt.shuffle(shuffled_items)
        shuffled = dict(shuffled_items)
        policies = (StaticPolicy(kors), DefaultDynamicPolicy(), CustomDynamicPolicy(sorted(consumption)))
        for policy in policies:
            want = allocate_slot(policy, production, consumption)
            assert allocate_slot(policy, production, shuffled) == want

    @given(case=slot_case_with_kors())
    @settings(max_examples=200)
    def test_static_shares_presum_to_production(self, case):
        # before truncation the rounded shares must add up exactly
        production, consumption, kors = case
        huge = {i: production for i in consumption}  # no cap can bind
        shares, surplus = allocate_slot(StaticPolicy(kors), production, huge)
        assert sum(shares.values()) == production
        assert surplus == 0


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
        assert list(out.production) == [100] * 48
        assert list(out.slot_starts) == list(production.starts)

    def test_empty_slot_set(self):
        production = self._series("pv1", Kind.PRODUCTION, [])
        out = allocate_series(DefaultDynamicPolicy(), production, [])
        assert len(out) == 0

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
        assert static.self_consumed == {"b1": (4000,), "b2": (3000,), "b4": (716,)}
        custom = allocate_series(
            CustomDynamicPolicy(("b1", "b2", "b4")), production, cons
        )
        assert custom.self_consumed == {pid: (c,) for pid, c in CONS.items()}

    @given(data=st.data())
    @settings(max_examples=150)
    def test_series_equals_one_slot_series(self, data):
        n_slots = data.draw(st.integers(1, 6))
        ids = IDS[: data.draw(st.integers(1, 5))]
        energy = st.lists(st.integers(0, 10_000), min_size=n_slots, max_size=n_slots)
        production = self._series("pv1", Kind.PRODUCTION, data.draw(energy))
        cons = [self._series(i, Kind.CONSUMPTION, data.draw(energy)) for i in ids]
        shuffled = data.draw(st.permutations(cons))
        kors = data.draw(kor_for(ids))
        order = tuple(data.draw(st.permutations(ids)))
        for policy in (StaticPolicy(kors), DefaultDynamicPolicy(), CustomDynamicPolicy(order)):
            out = allocate_series(policy, production, shuffled)
            assert len(out) == n_slots
            assert out.slot_starts == production.starts
            assert out.production == production.energies
            assert out.consumption == {s.meter_id: s.energies for s in cons}, policy
            for k, (ts, prod) in enumerate(zip(production.starts, production.energies)):
                consumption = {s.meter_id: s.energies[k] for s in cons}
                shares, surplus = allocate_slot(policy, prod, consumption, ts)
                assert {pid: c[k] for pid, c in out.self_consumed.items()} == shares, policy
                assert out.surplus[k] == surplus, policy

    @pytest.mark.parametrize(
        "policy", [DefaultDynamicPolicy(), CustomDynamicPolicy(())], ids=lambda p: p.name
    )
    def test_no_consumption_series_is_all_surplus(self, policy):
        production = self._series("pv1", Kind.PRODUCTION, [0, 250, 900])
        out = allocate_series(policy, production, [])
        assert out.slot_starts == production.starts
        assert out.surplus == production.energies
        assert out.consumption == {} and out.self_consumed == {}

    def test_slot_mismatch_names_earliest_differing_slot(self):
        # b1 has an extra slot before production starts and lacks the last one
        production = self._series("pv1", Kind.PRODUCTION, [100] * 4, start=20)
        shifted = [self._series("b1", Kind.CONSUMPTION, [60] * 4, start=19)]
        with pytest.raises(ValueError, match="09:30"):
            allocate_series(DefaultDynamicPolicy(), production, shifted)
