"""Ranking evaluation: AUC, the month-on-month baseline, and reporting.

AUC here is the probability that a random positive outranks a random
negative; ties receive half credit by default so a constant scorer lands at
0.5 (the strictly-greater reading is available via ``tie_credit=False``).
Communities lacking either class report an undefined AUC and drop out of
the macro average.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedAucError
from .predictions import PredictionMatrix
from .snapshots import Catalogs, MonthlySales, TrendSample


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    # runs of equal sorted values; a run over positions i..j shares rank (i + j) / 2 + 1
    starts = np.flatnonzero(np.concatenate([[True], sorted_v[1:] != sorted_v[:-1]]))
    lengths = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((2 * starts + lengths - 1) / 2.0 + 1.0, lengths)
    return ranks


def auc(scores, labels, tie_credit: bool = True) -> float:
    """Pairwise ranking quality via the rank-sum method, O(n log n).

    Equals the mean over (positive, negative) pairs of 1 if the positive
    scores higher, else 0, with ties worth 0.5 when ``tie_credit`` is on.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedAucError(
            f"AUC undefined with {pos.size} positives and {neg.size} negatives")
    if tie_credit:
        ranks = _average_ranks(np.concatenate([pos, neg]))
        pos_rank_sum = ranks[:pos.size].sum()
        return float((pos_rank_sum - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size))
    neg_sorted = np.sort(neg)
    wins = np.searchsorted(neg_sorted, pos, side="left").sum()
    return float(wins / (pos.size * neg.size))


@dataclass
class CommunityResult:
    community: str
    auc: float | None
    positives: int
    negatives: int
    top: list[str]


@dataclass
class EvalReport:
    """Per-community AUC plus the unweighted macro average over defined ones."""

    rows: list[CommunityResult]
    macro_auc: float | None

    def to_text(self) -> str:
        lines = [f"{'community':<16} {'auc':>9} {'pos':>6} {'neg':>6}  top tags"]
        for row in self.rows:
            shown = "undefined" if row.auc is None else f"{row.auc:.4f}"
            tags = " ".join(row.top)
            lines.append(f"{row.community:<16} {shown:>9} {row.positives:>6} {row.negatives:>6}  {tags}")
        macro = "undefined" if self.macro_auc is None else f"{self.macro_auc:.4f}"
        lines.append(f"{'macro-average':<16} {macro:>9}")
        return "\n".join(lines) + "\n"

    def to_ndjson(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(json.dumps({
                "community": row.community,
                "auc": row.auc,
                "positives": row.positives,
                "negatives": row.negatives,
                "topn": ";".join(row.top),
            }, sort_keys=True))
        return "\n".join(lines) + "\n"


def community_aucs(predictions: list[PredictionMatrix], samples: list[TrendSample],
                   n_communities: int) -> tuple[list[float | None], list[int], list[int]]:
    """Per-community AUC over valid (attribute, label) pairs, pooled across
    samples in sample order."""
    # communities x samples x attributes, so row k pools community k's pairs
    scores = np.stack([pred.scores for pred in predictions], axis=1)
    labels = np.stack([sample.labels for sample in samples], axis=1)
    valid = np.stack([sample.validity for sample in samples], axis=1) > 0
    aucs: list[float | None] = []
    positives: list[int] = []
    negatives: list[int] = []
    for k in range(n_communities):
        pooled = labels[k][valid[k]]
        n_pos = int((pooled > 0).sum())
        positives.append(n_pos)
        negatives.append(pooled.size - n_pos)
        try:
            aucs.append(auc(scores[k][valid[k]], pooled))
        except UndefinedAucError:
            aucs.append(None)
    return aucs, positives, negatives


def macro_average(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def evaluate_predictions(predictions: list[PredictionMatrix], samples: list[TrendSample],
                         catalogs: Catalogs, top_n: int = 10) -> EvalReport:
    """Score a prediction set against its samples and emit the report."""
    if not predictions or len(predictions) != len(samples):
        raise ValueError("need one prediction per sample")
    aucs, positives, negatives = community_aucs(predictions, samples, catalogs.n_communities)
    top = predictions[0].top_lists(top_n)
    rows = []
    for k, community in enumerate(catalogs.communities):
        rows.append(CommunityResult(community=community, auc=aucs[k],
                                    positives=positives[k], negatives=negatives[k],
                                    top=[catalogs.attributes[j] for j in top[k]]))
    return EvalReport(rows=rows, macro_auc=macro_average(aucs))


def mom_baseline(monthly: MonthlySales, catalogs: Catalogs,
                 target_month: int, k_percent: float = 50.0) -> PredictionMatrix:
    """Month-on-month baseline: last month's sales are next month's forecast.

    Scores are the previous month's sales min-max scaled to [0, 1] per
    community, which keeps their order, so AUC is computable and the top
    lists are the previous month's sales order.  ``catalogs`` and
    ``k_percent`` are not read.
    """
    prev = target_month - 1
    sales = monthly.month(prev)
    if sales is None:
        raise DataError(f"month {prev} needed by the month-on-month baseline is missing")
    lo = sales.min(axis=1, keepdims=True)
    spread = sales.max(axis=1, keepdims=True) - lo
    scores = np.divide(sales - lo, spread, out=np.zeros_like(sales), where=spread > 0)
    return PredictionMatrix(scores=scores, target_month=target_month)
