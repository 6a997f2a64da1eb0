"""Binary-classification scoring of SWIFT inferences (§6.2, §6.3).

The paper evaluates inferences as a binary classification over prefixes:

* §6.2 (failure localisation, Fig. 6) — positives are the prefixes withdrawn
  anywhere in the burst (``W``); the inference's "positives" (``W'``) are the
  prefixes whose path traversed the inferred links.  TPR = |W' ∩ W| / |W|,
  FPR = |W' − W| / |negatives| where the negatives are all prefixes announced
  on the session before the burst and not withdrawn during it.

* §6.3 (withdrawal prediction, Table 2) — identical, except that only the
  prefixes withdrawn *after* the inference count as positives (CPR), since
  rerouting already-withdrawn prefixes has no value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Set

from repro.bgp.prefix import Prefix

__all__ = ["ClassificationCounts", "classify_inference", "classify_prediction"]


@dataclass(frozen=True)
class ClassificationCounts:
    """Confusion-matrix counts plus the derived rates."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def tpr(self) -> float:
        """True positive rate (recall); 1.0 when there are no positives."""
        positives = self.true_positives + self.false_negatives
        if positives == 0:
            return 1.0
        return self.true_positives / positives

    @property
    def fpr(self) -> float:
        """False positive rate; 0.0 when there are no negatives."""
        negatives = self.false_positives + self.true_negatives
        if negatives == 0:
            return 0.0
        return self.false_positives / negatives

    @property
    def predicted_count(self) -> int:
        """Number of prefixes the inference would reroute."""
        return self.true_positives + self.false_positives


def classify_inference(
    predicted: Iterable[Prefix],
    withdrawn_in_burst: Iterable[Prefix],
    session_prefixes: Iterable[Prefix],
) -> ClassificationCounts:
    """Score an inference the way Fig. 6 does.

    Parameters
    ----------
    predicted:
        Prefixes whose path traverses the inferred links (what SWIFT reroutes).
    withdrawn_in_burst:
        All prefixes withdrawn over the *entire* burst (the positives).
    session_prefixes:
        Every prefix announced on the session before the burst (positives +
        negatives universe).
    """
    predicted_set = set(predicted)
    withdrawn_set = set(withdrawn_in_burst)
    universe = set(session_prefixes) | withdrawn_set
    negatives = universe - withdrawn_set

    tp = len(predicted_set & withdrawn_set)
    fp = len(predicted_set & negatives)
    fn = len(withdrawn_set - predicted_set)
    tn = len(negatives - predicted_set)
    return ClassificationCounts(
        true_positives=tp, false_positives=fp, false_negatives=fn, true_negatives=tn
    )


def classify_prediction(
    predicted: Iterable[Prefix],
    withdrawn_before_inference: Iterable[Prefix],
    withdrawn_in_burst: Iterable[Prefix],
    session_prefixes: Iterable[Prefix],
) -> ClassificationCounts:
    """Score the *prediction of future withdrawals* the way Table 2 does.

    Positives are only the prefixes withdrawn after the inference was made;
    the already-withdrawn prefixes are excluded from both the prediction and
    the positives (they carry no fast-reroute value), while the negatives are
    unchanged with respect to :func:`classify_inference`.
    """
    predicted_set = set(predicted)
    withdrawn_before = set(withdrawn_before_inference)
    withdrawn_total = set(withdrawn_in_burst)
    future_positives = withdrawn_total - withdrawn_before
    universe = set(session_prefixes) | withdrawn_total
    negatives = universe - withdrawn_total

    future_predicted = predicted_set - withdrawn_before
    tp = len(future_predicted & future_positives)
    fp = len(future_predicted & negatives)
    fn = len(future_positives - future_predicted)
    tn = len(negatives - future_predicted)
    return ClassificationCounts(
        true_positives=tp, false_positives=fp, false_negatives=fn, true_negatives=tn
    )
