"""The §7 detectability attacker.

"We created a training set for the SVM using datasets from two chips, and
then we attempt to classify data from a third chip. ... The classifier used
optimal parameters obtained using grid search, and performed three-fold
cross-validation."  50% accuracy is a coin flip; that is the security
target when wear is matched, and the attacker should win when wear is
mismatched (Fig. 10/12's PEC sensitivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..crypto.keys import HidingKey
from ..hiding.config import HidingConfig
from ..ml.metrics import accuracy_score
from ..ml.model_selection import grid_search_svm
from ..ml.scaler import StandardScaler
from ..ml.svm import SVC
from .datasets import (
    BENCH_SCALE,
    DatasetScale,
    build_detection_dataset,
    make_chips,
)

#: A small grid keeps the bench affordable; callers may widen it.
SMALL_GRID = {"C": [1.0, 10.0], "gamma": ["scale", 0.1]}


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of one attacker run at one (normal_pec, hidden_pec) point."""

    normal_pec: int
    hidden_pec: int
    accuracy: float
    cv_accuracy: float
    best_params: Dict


def fit_cross_chip(
    features: np.ndarray,
    labels: np.ndarray,
    chip_ids: np.ndarray,
    held_out_chip: int,
    grid: Optional[Dict] = None,
    seed: int = 0,
) -> tuple:
    """Fit the §7 attacker on every chip but `held_out_chip`.

    Grid search, scaler and SVC see only the training chips.  Returns
    (grid search result, fitted SVC, scaled held-out features, held-out
    labels).
    """
    train_mask = chip_ids != held_out_chip
    if train_mask.all() or not train_mask.any():
        raise ValueError(
            f"held-out chip {held_out_chip} not present (or is everything)"
        )
    x_train, y_train = features[train_mask], labels[train_mask]
    search = grid_search_svm(
        x_train, y_train, grid=grid or SMALL_GRID, seed=seed
    )
    scaler = StandardScaler().fit(x_train)
    model = SVC(seed=seed, **search.best_params).fit(
        scaler.transform(x_train), y_train
    )
    x_test = scaler.transform(features[~train_mask])
    return search, model, x_test, labels[~train_mask]


def train_on_two_classify_third(
    features: np.ndarray,
    labels: np.ndarray,
    chip_ids: np.ndarray,
    held_out_chip: int,
    grid: Optional[Dict] = None,
    seed: int = 0,
) -> tuple:
    """The paper's cross-chip protocol.  Returns (accuracy, cv, params)."""
    search, model, x_test, y_test = fit_cross_chip(
        features, labels, chip_ids, held_out_chip, grid=grid, seed=seed
    )
    accuracy = accuracy_score(y_test, model.predict(x_test))
    return accuracy, search.best_score, search.best_params


def detect_at(
    config: HidingConfig,
    normal_pec: int,
    hidden_pec: int,
    scale: DatasetScale = BENCH_SCALE,
    n_chips: int = 3,
    held_out_chip: int = 2,
    seed: int = 0,
    feature: str = "histogram",
    grid: Optional[Dict] = None,
) -> DetectionOutcome:
    """Run the full attacker at one point of the Fig. 10 sweep."""
    key = HidingKey.generate(b"attacker-target-%d" % seed)
    chips = make_chips(scale.chip_model(), n_chips, base_seed=100 + seed)
    features, labels, chip_ids = build_detection_dataset(
        chips, scale, config, normal_pec, hidden_pec, key,
        seed=seed, feature=feature,
    )
    accuracy, cv_accuracy, params = train_on_two_classify_third(
        features, labels, chip_ids, held_out_chip, grid=grid, seed=seed
    )
    return DetectionOutcome(
        normal_pec=normal_pec,
        hidden_pec=hidden_pec,
        accuracy=accuracy,
        cv_accuracy=cv_accuracy,
        best_params=params,
    )


def sweep_normal_pec(
    config: HidingConfig,
    hidden_pecs: Sequence[int],
    normal_pecs: Sequence[int],
    scale: DatasetScale = BENCH_SCALE,
    seed: int = 0,
    feature: str = "histogram",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> list:
    """The Fig. 10/12 sweep: accuracy for each (hidden, normal) PEC pair.

    Each grid point is a self-contained attacker run (its chips derive
    from seeds, not shared state), so the sweep fans out over workers on
    the chosen backend; outcomes come back in grid order regardless of
    scheduling.
    """
    from ..parallel import ParallelRunner

    units = [
        (config, normal_pec, hidden_pec, scale, 3, 2, seed, feature, None)
        for hidden_pec in hidden_pecs
        for normal_pec in normal_pecs
    ]
    return ParallelRunner(workers, backend).map(detect_at, units)
