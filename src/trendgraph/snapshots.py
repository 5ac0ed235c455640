"""Monthly interaction records and the sales tensor every consumer reads.

Ingests the interaction CSV into records, then fills one dense
months x communities x attributes sales tensor from them.  That tensor is
the only data representation: month m's communities x attributes matrix S
is the weighted adjacency of its community-attribute bipartite graph, and
the support of S transposed, (S.T > 0), is the incidence of its hypergraph
(one hyperedge per community, connecting every attribute that community
bought that month).  Trend labels come from per-month top-K% rank lists of
the same tensor, and the timeline is sliced into fixed-length observation
windows with a train/validation/test split.

Months are abstract 1-based indices.  Attributes keep their catalog slot in
every month, so tensor shapes are stable; a month without interactions for
an attribute simply leaves it isolated.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, InsufficientHistoryError, NegativeSalesError

CSV_HEADER = ["month", "community", "attribute", "sales"]


@dataclass(frozen=True)
class InteractionRecord:
    """One (month, community, attribute) purchase count; sales is always >= 1."""

    month: int
    community: str
    attribute: str
    sales: int


@dataclass(frozen=True)
class Catalogs:
    """Stable id -> index assignment for communities and attributes."""

    communities: tuple[str, ...]
    attributes: tuple[str, ...]

    @property
    def n_communities(self) -> int:
        return len(self.communities)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def community_index(self) -> dict[str, int]:
        return {c: k for k, c in enumerate(self.communities)}

    def attribute_index(self) -> dict[str, int]:
        return {a: j for j, a in enumerate(self.attributes)}


@dataclass
class TrendSample:
    """One training instance: a window of months, its target, and labels."""

    window_months: tuple[int, ...]
    target_month: int
    labels: np.ndarray
    validity: np.ndarray


@dataclass(frozen=True)
class Split:
    """Index lists into a sample sequence ordered by target month."""

    train: tuple[int, ...]
    valid: tuple[int, ...]
    test: tuple[int, ...]


@dataclass
class LabelResult:
    labels: np.ndarray
    validity: np.ndarray
    rank_lists: list[list[int]]


def ingest(path) -> tuple[Catalogs, list[InteractionRecord]]:
    """Read an interaction CSV, summing duplicates and dropping zero-sales rows.

    Catalogs keep first-appearance order (among rows with positive sales);
    records come back sorted by (month, community index, attribute index).
    """
    totals: dict[tuple[int, str, str], int] = {}
    communities: list[str] = []
    attributes: list[str] = []
    seen_c: set[str] = set()
    seen_a: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return Catalogs((), ()), []
        if [h.strip() for h in header] != CSV_HEADER:
            raise CsvFormatError(
                f"line 1: unknown columns {header!r}, expected {CSV_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise CsvFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
            m_raw, community, attribute, s_raw = (f.strip() for f in row)
            try:
                month = int(m_raw)
                sales = int(s_raw)
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            if month < 1:
                raise CsvFormatError(f"line {lineno}: month must be >= 1, got {month}")
            if not community or not attribute:
                raise CsvFormatError(f"line {lineno}: empty community or attribute id")
            if sales < 0:
                raise NegativeSalesError(f"line {lineno}: negative sales {sales}")
            if sales == 0:
                continue
            totals[(month, community, attribute)] = totals.get((month, community, attribute), 0) + sales
            if community not in seen_c:
                seen_c.add(community)
                communities.append(community)
            if attribute not in seen_a:
                seen_a.add(attribute)
                attributes.append(attribute)
    catalogs = Catalogs(tuple(communities), tuple(attributes))
    c_idx = catalogs.community_index()
    a_idx = catalogs.attribute_index()
    records = [InteractionRecord(m, c, a, s) for (m, c, a), s in totals.items()]
    records.sort(key=lambda r: (r.month, c_idx[r.community], a_idx[r.attribute]))
    return catalogs, records


def observed_months(records: list[InteractionRecord]) -> tuple[int, int] | None:
    """Closed month range covered by the records, or None when empty."""
    if not records:
        return None
    months = [r.month for r in records]
    return min(months), max(months)


def filter_min_sales(records: list[InteractionRecord], catalogs: Catalogs,
                     threshold: int, reference_month: int | None = None
                     ) -> tuple[Catalogs, list[InteractionRecord]]:
    """Drop attributes whose reference-month total sales fall below threshold.

    The default reference month is the latest one.  Dropped attributes
    disappear from the catalog and from every month.
    """
    span = observed_months(records)
    if span is None:
        return catalogs, []
    if reference_month is None:
        reference_month = span[1]
    elif not (span[0] <= reference_month <= span[1]):
        raise ValueError(f"reference month {reference_month} outside data range {span}")
    totals: dict[str, int] = {a: 0 for a in catalogs.attributes}
    for r in records:
        if r.month == reference_month:
            totals[r.attribute] += r.sales
    kept = tuple(a for a in catalogs.attributes if totals[a] >= threshold)
    kept_set = set(kept)
    new_catalogs = Catalogs(catalogs.communities, kept)
    new_records = [r for r in records if r.attribute in kept_set]
    return new_catalogs, new_records


def sales_tensor(records: list[InteractionRecord], catalogs: Catalogs,
                 first: int, last: int) -> np.ndarray:
    """Dense sales of months first..last, shaped months x communities x attributes.

    Entry [m - first, k, j] sums the sales of every record of month m,
    community k and attribute j, so duplicate rows add up; records outside
    the range are skipped and a month without records stays all zeros.
    """
    c_idx = catalogs.community_index()
    a_idx = catalogs.attribute_index()
    kept = [r for r in records if first <= r.month <= last]
    n = len(kept)
    months = np.fromiter((r.month - first for r in kept), np.intp, n)
    communities = np.fromiter((c_idx[r.community] for r in kept), np.intp, n)
    attributes = np.fromiter((a_idx[r.attribute] for r in kept), np.intp, n)
    sales = np.fromiter((r.sales for r in kept), np.float64, n)
    out = np.zeros((last - first + 1, catalogs.n_communities, catalogs.n_attributes))
    np.add.at(out, (months, communities, attributes), sales)
    return out


def rank_lists_for_sales(sales: np.ndarray, k_percent: float) -> list[list[int]]:
    """Per-community top-K% attribute lists by sales.

    Only attributes with positive sales count toward the cutoff, which is
    ceil(K/100 * active count); ties break by ascending attribute index.
    """
    if not (0.0 < k_percent <= 100.0):
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    lists: list[list[int]] = []
    for row in sales:
        active = np.flatnonzero(row > 0)
        cutoff = math.ceil(k_percent / 100.0 * active.size)
        order = active[np.argsort(-row[active], kind="stable")]
        lists.append(order[:cutoff].tolist())
    return lists


def _label_arrays(current: list[list[int]], prior: list[list[int]] | None,
                  shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Labels and validity from the target month's top lists and the year-back
    ones; ``prior`` is None when the year-back month is unobserved."""
    if prior is None:
        return np.zeros(shape), np.zeros(shape)
    labels = np.zeros(shape)
    for k, (now, before) in enumerate(zip(current, prior)):
        labels[k, now] = 1.0
        labels[k, before] = 0.0
    return labels, np.ones(shape)


def compute_labels(records: list[InteractionRecord], catalogs: Catalogs,
                   target_month: int, k_percent: float = 50.0) -> LabelResult:
    """Label each (community, attribute) pair for the target month.

    A pair is positive when the attribute sits in the community's top-K%
    sales list at the target month but was absent from that list twelve
    months earlier.  When the year-back month is unobserved the validity
    mask is all zeros and no labels are set.
    """
    span = observed_months(records)
    shape = (catalogs.n_communities, catalogs.n_attributes)

    def observed(month: int) -> bool:
        return span is not None and span[0] <= month <= span[1]

    if not observed(target_month):
        return LabelResult(labels=np.zeros(shape), validity=np.zeros(shape),
                           rank_lists=[[] for _ in range(shape[0])])
    sales = sales_tensor(records, catalogs, target_month - 12, target_month)
    current = rank_lists_for_sales(sales[-1], k_percent)
    prior = rank_lists_for_sales(sales[0], k_percent) if observed(target_month - 12) else None
    labels, validity = _label_arrays(current, prior, shape)
    return LabelResult(labels=labels, validity=validity, rank_lists=current)


def build_windows(records: list[InteractionRecord], catalogs: Catalogs,
                  window_length: int = 12, k_percent: float = 50.0
                  ) -> tuple[list[TrendSample], Split]:
    """Slide stride-1 windows over the month range and split them.

    The last window becomes the test sample and the second-to-last the
    validation sample; everything earlier trains.  With fewer than three
    windows the allocation runs from the end backwards (test, then valid)
    and a warning is emitted.  Labels follow ``compute_labels``, from rank
    lists computed once per month of the sales tensor.
    """
    span = observed_months(records)
    if span is None:
        raise InsufficientHistoryError("no interaction records")
    first, last = span
    n_months = last - first + 1
    if n_months < window_length + 1:
        raise InsufficientHistoryError(
            f"{n_months} months of data cannot form a {window_length}-month window plus target")
    lists = [rank_lists_for_sales(month, k_percent)
             for month in sales_tensor(records, catalogs, first, last)]
    shape = (catalogs.n_communities, catalogs.n_attributes)
    samples: list[TrendSample] = []
    for start in range(first, last - window_length + 1):
        target = start + window_length
        prior = lists[target - 12 - first] if target - 12 >= first else None
        labels, validity = _label_arrays(lists[target - first], prior, shape)
        samples.append(TrendSample(window_months=tuple(range(start, start + window_length)),
                                   target_month=target, labels=labels, validity=validity))
    n = len(samples)
    if n >= 3:
        split = Split(train=tuple(range(n - 2)), valid=(n - 2,), test=(n - 1,))
    elif n == 2:
        warnings.warn("only 2 windows available: assigning valid and test, train is empty")
        split = Split(train=(), valid=(0,), test=(1,))
    else:
        warnings.warn("only 1 window available: assigning test, train and valid are empty")
        split = Split(train=(), valid=(), test=(0,))
    return samples, split


@dataclass
class SnapshotSeries:
    """Everything the model consumes: the monthly sales tensor and the samples.

    ``sales[i]`` is the communities x attributes sales matrix of month
    ``months[i]``; that month's bipartite graph and hypergraph are derived
    from it (see the module docstring).
    """

    catalogs: Catalogs
    months: tuple[int, ...]
    sales: np.ndarray
    samples: list[TrendSample] = field(default_factory=list)
    split: Split = Split((), (), ())

    @classmethod
    def build(cls, records: list[InteractionRecord], catalogs: Catalogs,
              window_length: int = 12, k_percent: float = 50.0) -> "SnapshotSeries":
        samples, split = build_windows(records, catalogs, window_length, k_percent)
        first, last = observed_months(records)
        return cls(catalogs=catalogs, months=tuple(range(first, last + 1)),
                   sales=sales_tensor(records, catalogs, first, last),
                   samples=samples, split=split)

    @property
    def last_month(self) -> int:
        return self.months[-1]
