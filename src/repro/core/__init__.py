"""SWIFT core: the paper's primary contribution.

* :mod:`repro.core.fit_score` — the Withdrawal Share / Path Share metrics and
  their weighted geometric mean, the Fit Score (§4.1), including the
  multi-link extension for failures sharing an endpoint (§4.2).
* :mod:`repro.core.burst_detection` — on-line detection of withdrawal peaks
  against the recent history (§4.1 "Burst detection"), and the offline
  burst measurement of §2.2.1 over the same detector.
* :mod:`repro.core.history` — the historical burst-size model and the
  adaptive triggering thresholds (§4.2).
* :mod:`repro.core.inference` — the inference engine tying everything
  together: tracks a session's stream, detects bursts, localises the failure
  and predicts the affected prefixes (§4).
* :mod:`repro.core.backup` — backup next-hop computation honouring rerouting
  policies (§3.2, §5).
* :mod:`repro.core.encoding` — the two-part data-plane tag encoding (§5).
* :mod:`repro.core.swifted_router` — a SWIFTED border router: a BGP speaker
  plus the SWIFT engine plus a two-stage forwarding table (§3).
"""

from repro.core.backup import BackupComputer, BackupProfileIndex, ReroutingPolicy
from repro.core.burst_detection import BurstDetector, BurstDetectorConfig, BurstState
from repro.core.encoding import EncodedTags, EncoderConfig, TagEncoder
from repro.core.fit_score import FitScoreCalculator, FitScoreConfig, LinkPrefixIndex, LinkScore
from repro.core.history import HistoryModel, TriggeringSchedule
from repro.core.inference import (
    InferenceConfig,
    InferenceEngine,
    InferenceResult,
    PrefixPrediction,
)
from repro.core.loop_guard import LoopAlert, LoopGuard
from repro.core.swifted_router import SwiftConfig, SwiftedRouter, RerouteAction

__all__ = [
    "BackupComputer",
    "BackupProfileIndex",
    "BurstDetector",
    "BurstDetectorConfig",
    "BurstState",
    "EncodedTags",
    "EncoderConfig",
    "FitScoreCalculator",
    "FitScoreConfig",
    "HistoryModel",
    "InferenceConfig",
    "InferenceEngine",
    "InferenceResult",
    "LinkPrefixIndex",
    "LinkScore",
    "LoopAlert",
    "LoopGuard",
    "PrefixPrediction",
    "RerouteAction",
    "ReroutingPolicy",
    "SwiftConfig",
    "SwiftedRouter",
    "TagEncoder",
    "TriggeringSchedule",
]
