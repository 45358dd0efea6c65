"""Case study 2: beef cattle tracking & tracing (models A and B)."""

from .chain import Delivery, Distributor, Retailer, Slaughterhouse
from .cow import Cow
from .epcis import cow_events, cut_events, export_product_document
from .farmer import Farmer
from .geo import GeoFence, haversine_meters, rectangle_fence, trajectory_length_meters
from .meat import MeatCut, MeatProduct
from .model import (
    CollarReading,
    CowStatus,
    DeliveryStatus,
    EventKind,
    MeatCutStatus,
    TraceEvent,
    cut_id_for,
    gln,
    gtin,
    product_id_for,
)
from .platform import MODEL_A_ACTORS, CattlePlatform
from .tracing import (
    ProvenanceGraph,
    build_product_trace_graph,
    chain_path,
    origin_farms,
    summarize_trace,
)
from .versions import (
    MODEL_B_ACTORS,
    DistributorB,
    RetailerB,
    SlaughterhouseB,
    new_version,
)

__all__ = [
    "CattlePlatform",
    "CollarReading",
    "Cow",
    "CowStatus",
    "Delivery",
    "DeliveryStatus",
    "Distributor",
    "DistributorB",
    "EventKind",
    "Farmer",
    "GeoFence",
    "MODEL_A_ACTORS",
    "MODEL_B_ACTORS",
    "MeatCut",
    "MeatCutStatus",
    "MeatProduct",
    "ProvenanceGraph",
    "Retailer",
    "RetailerB",
    "Slaughterhouse",
    "SlaughterhouseB",
    "TraceEvent",
    "build_product_trace_graph",
    "chain_path",
    "cow_events",
    "cut_events",
    "cut_id_for",
    "export_product_document",
    "gln",
    "gtin",
    "haversine_meters",
    "new_version",
    "origin_farms",
    "product_id_for",
    "rectangle_fence",
    "summarize_trace",
    "trajectory_length_meters",
]
