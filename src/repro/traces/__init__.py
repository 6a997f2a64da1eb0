"""Trace substrate: the RouteViews / RIPE RIS stand-in.

The paper's real-data evaluation consumes one month of BGP messages dumped by
15 route collectors (213 peering sessions).  With no access to those archives
this package provides:

* a lightweight MRT-like record format with reader/writer
  (:mod:`repro.traces.mrt`) so the "parse a dump, replay it" code path exists,
* a synthetic per-session trace generator calibrated to the burst statistics
  the paper reports in §2.2.1 (:mod:`repro.traces.synthetic`), built on a
  per-session AS-path topology (:mod:`repro.traces.session_topology`),
* the popular-origin tagging used for the "84% of bursts include popular
  prefixes" statistic (:mod:`repro.traces.popularity`).

Bursts are measured on a session's columnar stream by
:func:`repro.core.burst_detection.extract_bursts`, the §2.2.1 sliding window
the run-time detector applies too.
"""

from repro.traces.collectors import Collector, CollectorPeer, build_collector_fleet
from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnarMessageView,
    ColumnarRun,
    ColumnarTrace,
    InternPool,
    decode_rib,
    encode_rib,
)
from repro.traces.columnar_store import CorruptColumnStoreError
from repro.traces.validation import TraceValidationError, ValidationReport
from repro.traces.fulltable import FullTable, FullTableConfig, FullTableGenerator
from repro.traces.mrt import (
    RowParser,
    TraceRecord,
    TraceReader,
    TraceWriter,
    records_to_columnar,
)
from repro.traces.popularity import POPULAR_ORGANIZATIONS, PopularOrigin, is_popular_asn
from repro.traces.session_topology import SessionTopology, SessionTopologyConfig
from repro.traces.synthetic import (
    BurstPlan,
    ColumnarSyntheticTrace,
    SyntheticBurst,
    SyntheticTrace,
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    SyntheticTraceStream,
    cached_columnar_stream,
    cached_trace,
)

__all__ = [
    "BurstPlan",
    "COLUMNAR_FORMAT_VERSION",
    "Collector",
    "CollectorPeer",
    "ColumnarMessageView",
    "ColumnarRun",
    "ColumnarSyntheticTrace",
    "ColumnarTrace",
    "CorruptColumnStoreError",
    "FullTable",
    "FullTableConfig",
    "FullTableGenerator",
    "InternPool",
    "POPULAR_ORGANIZATIONS",
    "PopularOrigin",
    "RowParser",
    "SessionTopology",
    "SessionTopologyConfig",
    "SyntheticBurst",
    "SyntheticTrace",
    "SyntheticTraceConfig",
    "SyntheticTraceGenerator",
    "SyntheticTraceStream",
    "TraceReader",
    "TraceRecord",
    "TraceValidationError",
    "TraceWriter",
    "ValidationReport",
    "build_collector_fleet",
    "cached_columnar_stream",
    "cached_trace",
    "decode_rib",
    "encode_rib",
    "is_popular_asn",
    "records_to_columnar",
]
