"""Score matrices produced by the model or a baseline, plus ranked tag lists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snapshots import descending_order


@dataclass
class PredictionMatrix:
    """Per-pair scores in [0, 1] for one target month; every ranking derives
    from the scores (see ``top_lists``)."""

    scores: np.ndarray
    target_month: int

    def __post_init__(self) -> None:
        if not np.all((self.scores >= 0) & (self.scores <= 1)):
            raise ValueError("non-finite or out-of-range prediction scores; they must lie in [0, 1]")

    def top_lists(self, n: int) -> list[list[int]]:
        """The first ``n`` attributes of each community's
        ``snapshots.descending_order`` of its scores; ``n`` >= 1."""
        if n < 1:
            raise ValueError(f"top list length must be at least 1, got {n}")
        return descending_order(self.scores)[:, :n].tolist()
