"""The ledger's workloads, in ladder order (bare kernel first)."""

from .cattle_txn import CattleTxn
from .dashboard_mix import DashboardMix
from .durable_scaleout import DurableScaleout
from .history_scan import HistoryScan
from .ingest_wave import IngestWave
from .kernel_floor import KernelFloor

WORKLOADS = {
    workload.name: workload
    for workload in (
        KernelFloor,
        IngestWave,
        DashboardMix,
        HistoryScan,
        DurableScaleout,
        CattleTxn,
    )
}
