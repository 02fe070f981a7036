"""Collective self-consumption energy sharing engine.

Allocates 30-minute PV production among participating buildings under
three repartition policies (static coefficients, consumption-proportional
dynamic, priority waterfall), computes the self-consumption rate and the
savings under the French tariff structure, and keeps a hash-chained audit
log of every settlement record.
"""

__version__ = "0.1.0"

from cscshare.model import (
    AllocationPolicy,
    AllocationTable,
    Community,
    CustomDynamicPolicy,
    DateRange,
    DefaultDynamicPolicy,
    Kind,
    KorVector,
    Participant,
    SlotGrid,
    SlotSeries,
    StaticPolicy,
    validate_community,
)
from cscshare.allocation import (
    allocate_series,
    derive_priority_order,
)
from cscshare.billing import (
    SavingsReport,
    ScrReport,
    compare_policies,
    compute_savings,
    compute_scr,
)
from cscshare.ingestion import (
    MeterReadings,
    ScenarioConfig,
    add_constant_load,
    apply_pv_gain,
    derive_static_kors,
    ingest_csv,
    normalize_to_slots,
)
from cscshare.ledger import Ledger, read_ledger, verify_chain, write_ledger

__all__ = [
    "AllocationPolicy",
    "AllocationTable",
    "Community",
    "CustomDynamicPolicy",
    "DateRange",
    "DefaultDynamicPolicy",
    "Kind",
    "KorVector",
    "Ledger",
    "MeterReadings",
    "Participant",
    "SavingsReport",
    "ScenarioConfig",
    "ScrReport",
    "SlotGrid",
    "SlotSeries",
    "StaticPolicy",
    "add_constant_load",
    "allocate_series",
    "apply_pv_gain",
    "compare_policies",
    "compute_savings",
    "compute_scr",
    "derive_priority_order",
    "derive_static_kors",
    "ingest_csv",
    "normalize_to_slots",
    "read_ledger",
    "validate_community",
    "verify_chain",
    "write_ledger",
]
