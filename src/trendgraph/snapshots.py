"""The monthly sales tensor every consumer reads.

Ingesting the interaction CSV fills one dense months x communities x
attributes sales tensor once, straight from its rows.  That tensor is the
only data representation: month m's communities x attributes matrix S
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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, InsufficientHistoryError, NegativeSalesError

CSV_HEADER = ["month", "community", "attribute", "sales"]


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


@dataclass(frozen=True)
class MonthlySales:
    """Summed sales of every (month, community, attribute) cell.

    ``sales[i]`` is the communities x attributes matrix of month
    ``first_month + i``.  ``from_cells`` builds one whose first and last
    month hold sales (empty data has zero months); the generator's tensor and
    a slice of months, such as ``predict``'s window, may begin or end on a
    month without sales.
    """

    first_month: int
    sales: np.ndarray

    @classmethod
    def from_cells(cls, catalogs: Catalogs, months, communities, attributes,
                   sales) -> "MonthlySales":
        """Fill the tensor from parallel cell lists: a 1-based month, a community
        and an attribute index, and a positive sales count.  Repeated cells add up."""
        months = np.asarray(months, dtype=np.intp)
        first = int(months.min()) if months.size else 1
        n_months = int(months.max()) - first + 1 if months.size else 0
        out = np.zeros((n_months, catalogs.n_communities, catalogs.n_attributes))
        np.add.at(out, (months - first, np.asarray(communities, dtype=np.intp),
                        np.asarray(attributes, dtype=np.intp)),
                  np.asarray(sales, dtype=np.float64))
        return cls(first, out)

    @property
    def last_month(self) -> int:
        return self.first_month + self.sales.shape[0] - 1

    @property
    def months(self) -> range:
        return range(self.first_month, self.last_month + 1)

    def month(self, month: int) -> np.ndarray | None:
        """One month's communities x attributes sales, or None outside the span."""
        return self.sales[month - self.first_month] if month in self.months else None

    def __len__(self) -> int:
        """Number of (month, community, attribute) cells with sales."""
        return int(np.count_nonzero(self.sales))


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


def ingest(path) -> tuple[Catalogs, MonthlySales]:
    """Fill the sales tensor from an interaction CSV; duplicates add up, zero rows drop.

    Catalogs keep first-appearance order (among rows with positive sales).  A
    file in the canonical form that ``generate`` and ``ingest`` write is parsed
    with numpy; every other file goes through the csv row loop, which alone
    reports errors.  Both give the same catalogs and the same tensor.
    """
    return _ingest_canonical(path) or _ingest_rows(path)


def _ingest_rows(path) -> tuple[Catalogs, MonthlySales]:
    """The csv.reader row loop: reads every valid file and names the line of
    every error."""
    community_ids: dict[str, int] = {}
    attribute_ids: dict[str, int] = {}
    months: list[int] = []
    communities: list[int] = []
    attributes: list[int] = []
    sales_column: list[int] = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and [h.strip() for h in header] != CSV_HEADER:
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
                months.append(month)
                communities.append(community_ids.setdefault(community, len(community_ids)))
                attributes.append(attribute_ids.setdefault(attribute, len(attribute_ids)))
                sales_column.append(sales)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})") from None
    catalogs = Catalogs(tuple(community_ids), tuple(attribute_ids))
    return catalogs, MonthlySales.from_cells(catalogs, months, communities, attributes,
                                             sales_column)


# The canonical form: this exact header line, then rows <digits>,<id>,<id>,<digits>
# each ending in LF (the last LF optional).  On such rows csv.reader, str.strip
# and int() change nothing, so a numpy parse gives the row loop's result.
_CANONICAL_HEADER = (",".join(CSV_HEADER) + "\n").encode()
_MAX_DIGITS = 18                # 10**18 - 1 < 2**63
_MAX_ID_BYTES = 64              # bounds the fixed-width keys of a block
_BLOCK_BYTES = 1 << 18          # rows are parsed a block at a time to bound temporaries
# bytes a canonical id neither starts nor ends with: what str.strip removes
# among ASCII, and every non-ASCII byte
_BAD_ID_EDGE = np.array([b >= 128 or chr(b).isspace() for b in range(256)])


def _ingest_canonical(path) -> tuple[Catalogs, MonthlySales] | None:
    """Parse a canonical interaction file with numpy; None for any other file.

    Beyond the row shape: 1 to 18 ASCII digits per number, month >= 1, and ids
    of 1 to 64 bytes that are valid UTF-8, hold no '"', CR or NUL, and have no
    whitespace or non-ASCII byte at either end.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_CANONICAL_HEADER) or any(
            c in data for c in (b'"', b"\r", b"\0")):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(data, dtype=np.uint8)
    n_rows = data.count(b"\n", len(_CANONICAL_HEADER)) + (not data.endswith(b"\n"))
    months = np.empty(n_rows, dtype=np.intp)
    communities = np.empty(n_rows, dtype=np.intp)
    attributes = np.empty(n_rows, dtype=np.intp)
    sales = np.empty(n_rows)
    community_ids: dict[bytes, int] = {}
    attribute_ids: dict[bytes, int] = {}
    kept = 0
    lo = len(_CANONICAL_HEADER)
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(data)
        block = _parse_block(buf[lo:hi])
        if block is None:
            return None
        block_months, community_keys, attribute_keys, block_sales = block
        done = kept + block_months.size
        months[kept:done] = block_months
        communities[kept:done] = _number(community_keys, community_ids)
        attributes[kept:done] = _number(attribute_keys, attribute_ids)
        sales[kept:done] = block_sales
        kept, lo = done, hi
    del buf, data       # free the file's bytes before the tensor is filled
    catalogs = Catalogs(tuple(k.decode("utf-8") for k in community_ids),
                        tuple(k.decode("utf-8") for k in attribute_ids))
    return catalogs, MonthlySales.from_cells(catalogs, months[:kept], communities[:kept],
                                             attributes[:kept], sales[:kept])


def _parse_block(seg: np.ndarray):
    """Months, community keys, attribute keys and sales of the rows with
    positive sales in ``seg``, a run of whole rows; None if a row is not canonical."""
    ends = np.flatnonzero(seg == ord("\n"))
    if seg[-1] != ord("\n"):
        ends = np.append(ends, seg.size)
    commas = np.flatnonzero(seg == ord(","))
    if commas.size != 3 * ends.size:
        return None
    # of 3n commas in all, the i-th three are row i's own when they lie between
    # its start and its end, which the non-empty month and sales fields check
    c0, c1, c2 = commas.reshape(-1, 3).T
    starts = np.concatenate(([0], ends[:-1] + 1))
    months = _digits(seg, starts, c0)
    sales = _digits(seg, c2 + 1, ends)
    if months is None or sales is None or not months.all():
        return None
    for widths in (c1 - c0 - 1, c2 - c1 - 1):
        if widths.min() < 1 or widths.max() > _MAX_ID_BYTES:
            return None
    if _BAD_ID_EDGE[seg[np.concatenate((c0 + 1, c1 - 1, c1 + 1, c2 - 1))]].any():
        return None
    sold = sales > 0
    c0, c1, c2 = c0[sold], c1[sold], c2[sold]
    return months[sold], _keys(seg, c0 + 1, c1), _keys(seg, c1 + 1, c2), sales[sold]


def _digits(seg: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """Values of the fields ``seg[first:stop]``, built a digit column at a time
    from the right; None unless each field is 1 to 18 ASCII digits."""
    widths = stop - first
    if widths.min() < 1 or widths.max() > _MAX_DIGITS:
        return None
    values = np.zeros(widths.size, dtype=np.int64)
    for k in range(int(widths.max())):
        # uint8 arithmetic wraps a byte below '0' past 9
        digit = np.where(widths > k, seg[np.maximum(stop - 1 - k, first)] - ord("0"), 0)
        if digit.max() > 9:
            return None
        values += digit.astype(np.int64) * 10 ** k
    return values


def _keys(seg: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The fields ``seg[first:stop]`` as NUL-padded byte strings of one width, a
    multiple of 8; at width 8 they are viewed as uint64, which sorts faster."""
    widths = stop - first
    width = int(widths.max(initial=1))
    keys = np.zeros((widths.size, -(-width // 8) * 8), dtype=np.uint8)
    for k in range(width):
        keys[:, k] = np.where(widths > k, seg[np.minimum(first + k, stop)], 0)
    return keys.view(np.uint64 if keys.shape[1] == 8 else f"S{keys.shape[1]}").ravel()


def _number(keys: np.ndarray, ids: dict[bytes, int]) -> np.ndarray:
    """Each key's index in ``ids``; keys not seen yet join it in first-appearance order."""
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # bytes without the NUL padding; ids hold no NUL
    names = unique.view(f"S{unique.itemsize}").tolist()
    index = np.empty(unique.size, dtype=np.intp)
    for u in np.argsort(first).tolist():
        index[u] = ids.setdefault(names[u], len(ids))
    return index[inverse]


def write_interactions(path, catalogs: Catalogs, monthly: MonthlySales) -> None:
    """One interaction row per cell with sales, ordered by month, community and
    attribute index; ``generate`` and ``ingest`` both write through it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv quoting keeps an id with a comma, quote or line break one field
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for month, sales in zip(monthly.months, monthly.sales):
            communities, attributes = np.nonzero(sales)
            writer.writerows((month, catalogs.communities[k], catalogs.attributes[j], int(s))
                             for k, j, s in zip(communities.tolist(), attributes.tolist(),
                                                sales[communities, attributes].tolist()))


def filter_min_sales(monthly: MonthlySales, catalogs: Catalogs,
                     threshold: int) -> tuple[Catalogs, MonthlySales]:
    """Drop attributes whose latest-month total sales fall below threshold.

    Dropped attributes disappear from the catalog and from every month;
    months left without sales at either end of the range go too.
    """
    if not monthly.months:
        return catalogs, monthly
    kept = monthly.sales[-1].sum(axis=0) >= threshold
    new_catalogs = Catalogs(catalogs.communities,
                            tuple(a for a, keep in zip(catalogs.attributes, kept) if keep))
    sales = monthly.sales[:, :, kept]
    cells = np.nonzero(sales)
    return new_catalogs, MonthlySales.from_cells(new_catalogs, cells[0] + monthly.first_month,
                                                 cells[1], cells[2], sales[cells])


def descending_order(values: np.ndarray) -> np.ndarray:
    """Each row's column indices by descending value, ties by ascending index:
    a stable sort of ``-values`` over the last axis, so one call ranks a matrix
    or a months x communities x attributes tensor.  Every top list reads it."""
    return np.argsort(-values, axis=-1, kind="stable")


def top_k_membership(sales: np.ndarray, k_percent: float) -> np.ndarray:
    """Whether each attribute is in its row's top-K% sales list: the first
    ceil(K/100 * active count) entries of ``descending_order``, where only
    attributes with positive sales are active."""
    if not (0.0 < k_percent <= 100.0):
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    cutoff = np.ceil(k_percent / 100.0 * np.count_nonzero(sales > 0, axis=-1))
    member = np.zeros(sales.shape, dtype=bool)
    np.put_along_axis(member, descending_order(sales),
                      np.arange(sales.shape[-1]) < cutoff[..., None], axis=-1)
    return member


def build_windows(monthly: MonthlySales, catalogs: Catalogs,
                  window_length: int = 12, k_percent: float = 50.0
                  ) -> tuple[list[TrendSample], Split]:
    """Slide stride-1 windows over the month range and split them.

    The last window becomes the test sample and the second-to-last the
    validation sample; everything earlier trains.  With fewer than three
    windows the allocation runs from the end backwards (test, then valid)
    and a warning is emitted.

    A pair is positive when the attribute is a member of the community's
    top-K% sales list (``top_k_membership``) at the target month and not
    twelve months earlier.  When the year-back month is unobserved the
    validity mask is all zeros and no labels are set.  One call ranks the
    whole sales tensor.
    """
    first, last = monthly.first_month, monthly.last_month
    n_months = len(monthly.months)
    if n_months < window_length + 1:
        raise InsufficientHistoryError(
            f"{n_months} months of data cannot form a {window_length}-month window plus target")
    member = top_k_membership(monthly.sales, k_percent)
    entered = np.zeros_like(member)
    entered[12:] = member[12:] & ~member[:-12]
    samples: list[TrendSample] = []
    for target in range(first + window_length, last + 1):
        now = target - first
        samples.append(TrendSample(window_months=tuple(range(target - window_length, target)),
                                   target_month=target, labels=entered[now].astype(float),
                                   validity=np.full(entered.shape[1:], float(now >= 12))))
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

    Each month's bipartite graph and hypergraph are derived from its matrix
    in ``monthly`` (see the module docstring).
    """

    catalogs: Catalogs
    monthly: MonthlySales
    samples: list[TrendSample] = field(default_factory=list)
    split: Split = Split((), (), ())

    @classmethod
    def build(cls, monthly: MonthlySales, catalogs: Catalogs,
              window_length: int = 12, k_percent: float = 50.0) -> "SnapshotSeries":
        samples, split = build_windows(monthly, catalogs, window_length, k_percent)
        return cls(catalogs=catalogs, monthly=monthly, samples=samples, split=split)
