"""ROC analysis of the SVM detector.

§7 reports accuracy at the SVM's default operating point; an adversary
free to trade false alarms for detections is better summarised by the ROC
curve and its area (AUC).  AUC = 0.5 is the coin flip the defence needs;
an AUC well above 0.5 means a determined adversary could still extract
signal even where the accuracy looks chance-like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .detect import fit_cross_chip


@dataclass(frozen=True)
class RocCurve:
    """False-positive and true-positive rates over every threshold."""

    false_positive_rate: np.ndarray
    true_positive_rate: np.ndarray
    auc: float


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC of decision scores against binary labels (1 = positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    positives = int((labels == 1).sum())
    negatives = int(labels.size - positives)
    if positives == 0 or negatives == 0:
        raise ValueError("need both classes for a ROC curve")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    tp = np.concatenate([[0], np.cumsum(sorted_labels == 1)])
    fp = np.concatenate([[0], np.cumsum(sorted_labels != 1)])
    tpr = tp / positives
    fpr = fp / negatives
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(tpr, fpr))
    return RocCurve(fpr, tpr, auc)


def detector_auc(
    features: np.ndarray,
    labels: np.ndarray,
    chip_ids: np.ndarray,
    held_out_chip: int,
    seed: int = 0,
    grid: Optional[dict] = None,
) -> Tuple[float, RocCurve]:
    """AUC of the §7 cross-chip attacker on a held-out chip."""
    _, model, x_test, y_test = fit_cross_chip(
        features, labels, chip_ids, held_out_chip, grid=grid, seed=seed
    )
    curve = roc_curve(model.decision_function(x_test), y_test)
    return curve.auc, curve
