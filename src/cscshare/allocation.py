"""The three repartition policies, applied slot by slot.

Static splits production along fixed coefficients and loses whatever a
participant cannot absorb. Default dynamic follows the grid operator's
rule of splitting proportionally to consumption. Custom dynamic is a
priority waterfall serving the most valuable participant first. All
three conserve energy exactly in integer Wh.

A policy is checked against its participant set once per series in
``allocate_series``. The kernel then runs once per slot, into the columns
of one ``AllocationTable``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from cscshare import kernels
from cscshare.model import (
    AllocationPolicy,
    AllocationTable,
    CustomDynamicPolicy,
    DefaultDynamicPolicy,
    Kind,
    Participant,
    SlotSeries,
    StaticPolicy,
)

_Split = Callable[[int, list[int]], tuple[list[int], int]]


def _splitter(policy: AllocationPolicy, ids: Iterable[str]) -> tuple[list[str], _Split]:
    """Check a policy against a participant set.

    Returns the order in which the kernel reads consumption (sorted ids,
    or the priority order) and a function splitting one slot's production
    over consumption values given in that order.
    """
    ids = sorted(ids)
    if isinstance(policy, StaticPolicy):
        if policy.kors.participant_ids() != set(ids):
            raise ValueError("repartition vector does not cover the consumption keys")
        weights = [policy.kors.weights[i] for i in ids]
        return ids, lambda p, values: kernels.static_shares(p, weights, values)
    if isinstance(policy, DefaultDynamicPolicy):
        return ids, lambda p, values: kernels.proportional_shares(p, values)
    if isinstance(policy, CustomDynamicPolicy):
        if sorted(policy.order) != ids:
            raise ValueError("priority order is not a permutation of the consumption keys")
        return list(policy.order), lambda p, values: kernels.waterfall_shares(p, values)
    raise TypeError(f"unknown policy {policy!r}")


def derive_priority_order(participants: Sequence[Participant]) -> list[str]:
    """Rank participants by the value of their self-consumed kWh.

    Highest ``effective_value_eur_per_kwh`` (tariff plus avoided uplifts,
    the rate ``compute_savings`` prices with) first; ties break
    lexicographically on id so the order is reproducible. The values are
    exact, and so is their negation by ``copy_negate``, where ``-`` would
    round them to the ambient context's precision.
    """
    ranked = sorted(participants, key=lambda p: (p.effective_value_eur_per_kwh.copy_negate(), p.id))
    return [p.id for p in ranked]


def allocate_series(
    policy: AllocationPolicy,
    production: SlotSeries,
    consumptions: Sequence[SlotSeries],
) -> AllocationTable:
    """Run one policy over a whole series: one kernel call per slot.

    The policy is checked against the consumption meters once per series.
    Every consumption series must cover exactly the production slot set;
    a missing or extra slot would silently shift energy between buildings,
    so a mismatch is a hard error naming the earliest slot that only one
    of the two series has; series on the production's grid match at once.
    The series' value tuples are the table's columns.
    """
    if production.kind is not Kind.PRODUCTION:
        raise ValueError(f"series {production.meter_id} is not a production series")
    prod_slots = production.starts
    columns: dict[str, tuple[int, ...]] = {}
    for s in consumptions:
        if s.kind is not Kind.CONSUMPTION:
            raise ValueError(f"series {s.meter_id} is not a consumption series")
        if s.meter_id in columns:
            raise ValueError(f"duplicate consumption series for {s.meter_id}")
        theirs = s.starts
        if theirs is not prod_slots and theirs != prod_slots:
            mismatch = min(set(prod_slots) ^ set(theirs))
            raise ValueError(
                f"slot set of {s.meter_id} does not match production: "
                f"earliest slot in only one of them is {mismatch.isoformat()}"
            )
        columns[s.meter_id] = s.energies

    order, split = _splitter(policy, columns)
    shares, surplus = [[] for _ in order], []
    for p, *cs in zip(production.energies, *(columns[i] for i in order)):
        parts, rest = split(p, cs)
        for column, x in zip(shares, parts):
            column.append(x)
        surplus.append(rest)
    self_consumed = dict(zip(order, map(tuple, shares)))
    return AllocationTable(prod_slots, production.energies, columns, self_consumed, tuple(surplus))
