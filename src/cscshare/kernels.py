"""Per-slot allocation kernels, in pure Python.

All three kernels take production in Wh plus consumption amounts in a
fixed canonical order and return (self_consumed list, surplus),
conserving energy exactly, with Python's unbounded integers:

    sum(self_consumed) + surplus == production

Integer shares are produced with the largest-remainder method so that
rounding never creates or destroys a single Wh. Remainder ties break on
the lower index, which is what makes results independent of the caller's
map ordering once inputs are in canonical order.
"""

from __future__ import annotations

import math
from typing import Sequence

# Implementation name, read by run provenance.
BACKEND = "python"


def static_shares(
    production: int, kors: Sequence[float], consumption: Sequence[int]
) -> tuple[list[int], int]:
    """Fixed-coefficient split, truncated at each participant's consumption.

    Shares are floor(kor * production) corrected by largest remainder to
    sum exactly to production, then capped at consumption. The truncated
    excess is NOT redistributed; it joins the surplus fed to the grid.
    """
    n = len(kors)
    if n == 0:
        return [], production
    base = [0] * n
    rem = [0.0] * n
    for i in range(n):
        raw = kors[i] * production
        b = math.floor(raw)
        base[i] = int(b)
        rem[i] = raw - b
    deficit = production - sum(base)
    if deficit > 0:
        order = sorted(range(n), key=lambda i: (-rem[i], i))
        j = 0
        while deficit > 0:
            base[order[j % n]] += 1
            deficit -= 1
            j += 1
    elif deficit < 0:
        # Float error on a coefficient sum near the tolerance edge can
        # overshoot; take the extra units back from the smallest remainders.
        order = sorted(range(n), key=lambda i: (rem[i], -i))
        j = 0
        while deficit < 0:
            k = order[j % n]
            if base[k] > 0:
                base[k] -= 1
                deficit += 1
            j += 1
    shares = [min(base[i], consumption[i]) for i in range(n)]
    return shares, production - sum(shares)


def proportional_shares(
    production: int, consumption: Sequence[int]
) -> tuple[list[int], int]:
    """Consumption-proportional split, the grid operator's default rule.

    Below total consumption, everyone gets their full consumption and the
    rest is surplus. Otherwise shares are exact rationals c_i * P / total
    rounded by largest remainder, which keeps the split surplus-free and
    never exceeds any individual consumption.
    """
    n = len(consumption)
    total = sum(consumption)
    if total == 0:
        return [0] * n, production
    if total <= production:
        return list(consumption), production - total
    base = [0] * n
    rem = [0] * n
    for i in range(n):
        num = consumption[i] * production
        base[i] = num // total
        rem[i] = num % total
    deficit = production - sum(base)  # always in [0, n-1]
    order = sorted(range(n), key=lambda i: (-rem[i], i))
    for j in range(deficit):
        base[order[j]] += 1
    return base, 0


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
