"""Per-slot allocation kernels, in pure Python.

All three kernels take production in Wh plus consumption amounts in a
fixed canonical order and return (self_consumed list, surplus),
conserving energy exactly, with Python's unbounded integers:

    sum(self_consumed) + surplus == production

Every split is one integer routine, ``apportion``: Hamilton's
largest-remainder method over integer weights, with no floating point.
Remainder ties break on the lower index, which is what makes results
independent of the caller's map ordering once inputs are in canonical
order (sorted participant ids).
"""

from __future__ import annotations

from typing import Sequence

# Implementation name, read by run provenance.
BACKEND = "python"


def apportion(amount: int, weights: Sequence[int]) -> list[int]:
    """Split amount along non-negative integer weights by largest remainder.

    Each part is floor(w * amount / total); the units left over go one
    each to the largest remainders, lower index first, so the parts sum
    exactly to amount. A non-empty weight list needs a positive total.
    """
    total = sum(weights)
    parts = []
    remainders = []
    for w in weights:
        q, r = divmod(w * amount, total)
        parts.append(q)
        remainders.append(r)
    deficit = amount - sum(parts)  # in [0, len(weights) - 1]
    if deficit:
        # a stable sort, reversed, keeps equal remainders in index order
        by_remainder = sorted(range(len(parts)), key=remainders.__getitem__, reverse=True)
        for i in by_remainder[:deficit]:
            parts[i] += 1
    return parts


def static_shares(
    production: int, weights: Sequence[int], consumption: Sequence[int]
) -> tuple[list[int], int]:
    """Fixed-coefficient split, truncated at each participant's consumption.

    Production is apportioned along the coefficient weights, then capped
    at consumption. The truncated excess is NOT redistributed; it joins
    the surplus fed to the grid.
    """
    shares = [min(s, c) for s, c in zip(apportion(production, weights), consumption)]
    return shares, production - sum(shares)


def proportional_shares(
    production: int, consumption: Sequence[int]
) -> tuple[list[int], int]:
    """Consumption-proportional split, the grid operator's default rule.

    Below total consumption, everyone gets their full consumption and the
    rest is surplus. Otherwise production is apportioned along
    consumption, which is surplus-free and never exceeds any consumption.
    """
    total = sum(consumption)
    if total == 0:
        return [0] * len(consumption), production
    if total <= production:
        return list(consumption), production - total
    return apportion(production, consumption), 0


def waterfall_shares(
    production: int, consumption: Sequence[int]
) -> tuple[list[int], int]:
    """Priority waterfall: consumption must already be in priority order."""
    remaining = production
    shares = []
    for c in consumption:
        x = c if c < remaining else remaining
        shares.append(x)
        remaining -= x
    return shares, remaining
