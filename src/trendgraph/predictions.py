"""Score matrices produced by the model or a baseline, plus ranked tag lists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snapshots import descending_order


@dataclass
class PredictionMatrix:
    """Per-pair scores in [0, 1] for one target month.

    ``ranked_lists`` may carry explicit per-community rankings (the MOM
    baseline emits its top lists directly); otherwise rankings derive from
    the scores (see ``top_lists``).
    """

    scores: np.ndarray
    target_month: int
    ranked_lists: list[list[int]] | None = None

    def __post_init__(self) -> None:
        if not np.all((self.scores >= 0) & (self.scores <= 1)):
            raise ValueError("non-finite or out-of-range prediction scores; they must lie in [0, 1]")

    def top_lists(self, n: int) -> list[list[int]]:
        """The first ``n`` attributes of each community's ranking, by default its
        scores' ``snapshots.descending_order``; ``n`` >= 1."""
        if n < 1:
            raise ValueError(f"top list length must be at least 1, got {n}")
        if self.ranked_lists is not None:
            return [lst[:n] for lst in self.ranked_lists]
        return descending_order(self.scores)[:, :n].tolist()
