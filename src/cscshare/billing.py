"""Self-consumption rate and savings over a settlement window.

Money is exact all the way through. Every EUR figure is computed in the
one ``model.MONEY`` context, where any rounding traps: integer Wh sums
convert to kWh by an exact decimal shift and multiply finite decimal
rates, so every figure in a report is an exact product, and so is every
sum. The SCR and the pairwise differences are ratios, not money: they
are divided at 28 significant digits in ``_RATIO``. Rounding, half-even
to cents or to the SCR's places, is the one step that rounds; it happens
only when a report is rendered, in ``_RENDER``, whose precision holds
any figure of in-bound rates.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from itertools import compress
from typing import Mapping

from cscshare.model import MONEY, AllocationTable, Community, DateRange, Record, SlotGrid

CENT = Decimal("0.01")
_SCR_PLACES = Decimal("0.000001")
_RATIO = Context(prec=28, rounding=ROUND_HALF_EVEN)
_RENDER = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


def _rounded(value: Decimal, places: Decimal) -> str:
    """The value rounded half-even to the places, as text."""
    with localcontext(_RENDER):
        return str(value.quantize(places))


def eur_str(amount: Decimal) -> str:
    """Render an amount in EUR, rounded half-even to cents."""
    return _rounded(amount, CENT)


class ScrReport(Record):
    """Self-consumption rate: community-consumed share of production."""

    _fields = ("self_consumed_total", "production_total", "window")

    def __init__(self, self_consumed_total: int, production_total: int, window: DateRange | None = None):
        if not 0 <= self_consumed_total <= max(production_total, 0):
            raise ValueError("self-consumed total outside [0, production total]")
        if production_total < 0:
            raise ValueError("negative production total")
        self._set(self_consumed_total=self_consumed_total, production_total=production_total, window=window)

    @property
    def defined(self) -> bool:
        return self.production_total > 0

    def scr_decimal(self) -> Decimal | None:
        """Fraction in [0, 1], or None when nothing was produced."""
        if not self.defined:
            return None
        with localcontext(_RATIO):
            return Decimal(self.self_consumed_total) / Decimal(self.production_total)

    def scr_text(self) -> str:
        if not self.defined:
            return "undefined"
        return _rounded(self.scr_decimal(), _SCR_PLACES)

    def to_json_dict(self) -> dict:
        return {
            "scr": self.scr_text(),
            "self_consumed_wh": self.self_consumed_total,
            "production_wh": self.production_total,
            "window": str(self.window) if self.window else None,
        }


class SavingsReport(Record):
    """Per-building, feed-in and total savings for a window, in EUR."""

    _fields = ("per_participant", "feed_in", "total", "window")

    def __init__(
        self,
        per_participant: Mapping[str, Decimal],
        feed_in: Decimal,
        total: Decimal,
        window: DateRange | None = None,
    ):
        per_participant = dict(per_participant)
        with localcontext(MONEY):
            if sum(per_participant.values(), Decimal(0)) + feed_in != total:
                raise ValueError("savings total does not equal parts plus feed-in")
        self._set(per_participant=per_participant, feed_in=feed_in, total=total, window=window)

    def to_json_dict(self) -> dict:
        return {
            "per_participant_eur": {
                pid: eur_str(v) for pid, v in sorted(self.per_participant.items())
            },
            "feed_in_eur": eur_str(self.feed_in),
            "total_eur": eur_str(self.total),
            "window": str(self.window) if self.window else None,
        }


def _in_window(table: AllocationTable, window: DateRange | None) -> AllocationTable:
    """The window's slots as one table; with no slot in the window every
    column is empty, and so is a savings report's per_participant. A table
    on a grid that the window holds is returned as it is."""
    if window is None or window.holds(table.slot_starts):
        return table
    keep = window.mask(table.slot_starts)

    def cut(column):
        return tuple(compress(column, keep))

    return AllocationTable(
        SlotGrid(compress(table.slot_starts, keep)), cut(table.production),
        {pid: cut(c) for pid, c in table.consumption.items()},
        {pid: cut(c) for pid, c in table.self_consumed.items()},
        cut(table.surplus),
    )


def compute_scr(table: AllocationTable, window: DateRange | None = None) -> ScrReport:
    """Aggregate the self-consumption rate over a window.

    SCR is undefined (not 0 or 1) when the window holds no production.
    """
    table = _in_window(table, window)
    return ScrReport(
        self_consumed_total=sum(map(sum, table.self_consumed.values())),
        production_total=sum(table.production),
        window=window,
    )


def compute_savings(
    table: AllocationTable,
    community: Community,
    window: DateRange | None = None,
) -> SavingsReport:
    """Value the allocations of a window against the community's rates.

    Each building's self-consumed kWh avoid its supply tariff plus its
    avoided grid-fee and tax percentages (``effective_value_eur_per_kwh``);
    the surplus earns the community's feed-in rate. An allocation id that
    is not a participant of the community is a ValueError. Investment
    costs are out of scope.
    """
    by_id = {p.id: p for p in community.participants}
    table = _in_window(table, window)
    wh_per_participant = {pid: sum(col) for pid, col in table.self_consumed.items() if col}

    per_participant: dict[str, Decimal] = {}
    with localcontext(MONEY):
        for pid, wh in sorted(wh_per_participant.items()):
            p = by_id.get(pid)
            if p is None:
                raise ValueError(f"unknown participant id {pid!r} in allocations")
            per_participant[pid] = Decimal(wh).scaleb(-3) * p.effective_value_eur_per_kwh
        feed_in = Decimal(sum(table.surplus)).scaleb(-3) * community.feed_in_eur_per_kwh
        total = sum(per_participant.values(), Decimal(0)) + feed_in
    return SavingsReport(
        per_participant=per_participant, feed_in=feed_in, total=total, window=window
    )


class PolicyComparison(Record):
    """Each policy's reports, by policy name in name order, over one window."""

    _fields = ("reports", "window")

    def __init__(self, reports: Mapping[str, tuple[ScrReport, SavingsReport]], window: DateRange | None):
        self._set(reports=dict(sorted(reports.items())), window=window)

    def to_csv_rows(self) -> list[list[str]]:
        ids = sorted({pid for _, savings in self.reports.values() for pid in savings.per_participant})
        header = ["policy", "scr", "savings_total_eur"]
        header += [f"savings_{pid}_eur" for pid in ids]
        header += ["feed_in_eur"]
        out = [header]
        for name, (scr, savings) in self.reports.items():
            line = [name, scr.scr_text(), eur_str(savings.total)]
            line += [eur_str(savings.per_participant.get(pid, Decimal(0))) for pid in ids]
            line += [eur_str(savings.feed_in)]
            out.append(line)
        return out

    def to_json_dict(self) -> dict:
        """The reports, and for each ordered pair of policies the relative
        difference of a against base b in percent, (a-b)/b x 100, at two
        decimals, or None where b's SCR is undefined or its figure 0."""
        reports = self.reports.items()
        return {
            "window": str(self.window) if self.window else None,
            "policies": {
                name: {"scr": scr.to_json_dict(), "savings": savings.to_json_dict()}
                for name, (scr, savings) in reports
            },
            "pairwise_rel_diff_pct": [
                {
                    "policy_a": a,
                    "policy_b": b,
                    "scr": _pct_diff(scr_a.scr_decimal(), scr_b.scr_decimal()),
                    "savings": _pct_diff(savings_a.total, savings_b.total),
                }
                for a, (scr_a, savings_a) in reports
                for b, (scr_b, savings_b) in reports
                if a != b
            ],
        }


def _pct_diff(a: Decimal | None, b: Decimal | None) -> str | None:
    if a is None or b is None or b == 0:
        return None
    with localcontext(_RATIO):
        diff = (a - b) / b * 100
    return _rounded(diff, CENT)


def compare_policies(
    reports: Mapping[str, tuple[ScrReport, SavingsReport]]
) -> PolicyComparison:
    """The policies' reports as one comparison.

    All reports must cover the same window; comparing figures computed on
    different data would be meaningless, so that is a hard error.
    """
    if not reports:
        raise ValueError("nothing to compare")
    windows = {
        (scr.window, savings.window) for scr, savings in reports.values()
    }
    if len(windows) != 1:
        raise ValueError("mismatched windows across policy reports")
    (window_pair,) = windows
    if window_pair[0] != window_pair[1]:
        raise ValueError("scr and savings reports cover different windows")
    return PolicyComparison(reports, window_pair[0])
