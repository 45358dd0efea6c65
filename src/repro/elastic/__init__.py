"""repro.elastic — elasticity: migration policy, rebalancing, autoscaling.

The runtime supplies the *mechanisms* — live activation migration
(:meth:`~repro.runtime.runtime.AodbRuntime.migrate`), graceful silo drain
(:meth:`~repro.runtime.runtime.AodbRuntime.drain_silo`) and load-aware
placement (``power_of_two``).  This package supplies the *policies* that
drive them from the observability layer's signals:

- :mod:`repro.elastic.load` — :class:`WindowedCpuLoad`: per-silo CPU
  utilization differentiated over the control interval (the cumulative
  ``silo.cpu_utilization`` probe moves too slowly for feedback control);
- :mod:`repro.elastic.rebalancer` — :class:`Rebalancer`: migrates the
  hottest movable activations off the hottest silo when windowed imbalance
  persists, with hysteresis and a per-cycle migration budget so it cannot
  thrash;
- :mod:`repro.elastic.autoscaler` — :class:`Autoscaler`: adds silos from a
  :class:`SiloSpec` pool when configured SLO rules fire, gracefully drains
  the least-loaded silo after sustained idleness, and integrates
  ``silo_seconds`` (the simulated bill) for savings reports.

``python -m repro.bench elastic`` runs the diurnal-ramp experiment: the
autoscaler grows and shrinks the cluster mid-run while sustained ingest
continues, asserting zero lost messages across every migration wave.
"""

from .autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent, SiloSpec
from .load import WindowedCpuLoad, imbalance, silo_mailbox_depths
from .rebalancer import RebalanceEvent, Rebalancer, RebalancerConfig

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "RebalanceEvent",
    "Rebalancer",
    "RebalancerConfig",
    "ScaleEvent",
    "SiloSpec",
    "WindowedCpuLoad",
    "imbalance",
    "silo_mailbox_depths",
]
