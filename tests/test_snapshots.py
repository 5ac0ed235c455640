import math
import warnings

import numpy as np
import pytest

from trendgraph import encoders as enc
from trendgraph import snapshots as snap
from trendgraph.predictions import PredictionMatrix
from trendgraph.errors import CsvFormatError, InsufficientHistoryError, NegativeSalesError

from conftest import index_of, monthly_from_tuples, random_monthly, sparse_sales_stack


def write_csv(tmp_path, rows, header="month,community,attribute,sales"):
    path = tmp_path / "interactions.csv"
    body = "\n".join([header] + rows)
    path.write_text(body + ("\n" if rows else "\n"), encoding="utf-8")
    return path


def cells_of(monthly):
    """(month, community index, attribute index, sales) of every cell with
    sales, in that order."""
    return [(monthly.first_month + m, k, j, monthly.sales[m, k, j])
            for m, k, j in np.argwhere(monthly.sales).tolist()]


def brute_force_labels(monthly, catalogs, target_month, k_percent):
    """Independent oracle: sort everything, slice, set-difference."""
    cells = cells_of(monthly)

    def top_list(month, community):
        pairs = {j: s for m, k, j, s in cells if m == month and k == community}
        if not pairs:
            return set()
        ordered = sorted(pairs, key=lambda j: (-pairs[j], j))
        size = math.ceil(k_percent / 100.0 * len(ordered))
        return set(ordered[:size])

    months = [m for m, _, _, _ in cells]
    labels = np.zeros((catalogs.n_communities, catalogs.n_attributes))
    if not months or not (min(months) <= target_month - 12 and target_month <= max(months)):
        return labels
    for k in range(catalogs.n_communities):
        fresh = top_list(target_month, k) - top_list(target_month - 12, k)
        for j in fresh:
            labels[k, j] = 1.0
    return labels


def window_labels(monthly, catalogs, target_month, k_percent):
    """Labels and validity of the training window whose target is
    ``target_month``; all zeros when no window has that target."""
    shape = (catalogs.n_communities, catalogs.n_attributes)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            samples, _ = snap.build_windows(monthly, catalogs, 1, k_percent)
    except InsufficientHistoryError:
        samples = []
    for sample in samples:
        if sample.target_month == target_month:
            return sample.labels, sample.validity
    return np.zeros(shape), np.zeros(shape)


class TestIngest:
    def test_duplicates_are_summed(self, tmp_path):
        path = write_csv(tmp_path, ["1,c1,a1,3", "1,c1,a1,2"])
        catalogs, monthly = snap.ingest(path)
        assert monthly.first_month == 1 and len(monthly) == 1
        np.testing.assert_array_equal(monthly.sales, [[[5.0]]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        catalogs, monthly = snap.ingest(path)
        assert catalogs.n_communities == 0 and catalogs.n_attributes == 0
        assert len(monthly) == 0 and not monthly.months
        assert monthly.sales.shape == (0, 0, 0)

    def test_negative_sales_rejected_with_line_number(self, tmp_path):
        path = write_csv(tmp_path, ["1,c1,a1,4", "1,c1,a1,-2"])
        with pytest.raises(NegativeSalesError, match="line 3"):
            snap.ingest(path)

    def test_unknown_columns_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["1,c1,a1,4"], header="month,segment,attribute,sales")
        with pytest.raises(CsvFormatError, match="unknown columns"):
            snap.ingest(path)

    def test_unparsable_month_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["1,c1,a1,4", "x,c1,a1,4"])
        with pytest.raises(CsvFormatError, match="line 3"):
            snap.ingest(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"month,community,attribute,sales\n1,c\xff,a1,4\n")
        with pytest.raises(CsvFormatError, match="latin1.csv: not UTF-8"):
            snap.ingest(path)

    def test_zero_sales_rows_mean_no_edge(self, tmp_path):
        path = write_csv(tmp_path, ["1,c1,a1,0", "2,c1,a2,3"])
        catalogs, monthly = snap.ingest(path)
        assert catalogs.attributes == ("a2",)
        assert len(monthly) == 1
        # the zero-sales row neither adds a catalog slot nor opens month 1
        assert monthly.months == range(2, 3)

    def test_catalog_first_appearance_order_and_sorted_records(self, tmp_path):
        path = write_csv(tmp_path, ["2,c2,a2,1", "1,c1,a1,1", "2,c1,a3,4"])
        catalogs, monthly = snap.ingest(path)
        assert catalogs.communities == ("c2", "c1")
        assert catalogs.attributes == ("a2", "a1", "a3")
        assert [(m, catalogs.communities[k], catalogs.attributes[j])
                for m, k, j, _ in cells_of(monthly)] == [
            (1, "c1", "a1"), (2, "c2", "a2"), (2, "c1", "a3")]


HEADER = b"month,community,attribute,sales\n"


def parse_both(path):
    """The row loop's result, after checking that the numpy parser takes the
    file and gives the same catalogs and the same tensor bytes."""
    want = snap._ingest_rows(path)
    got = snap._ingest_canonical(path)
    assert got is not None, "the numpy parser refused a canonical file"
    assert got[0] == want[0]
    assert got[1].first_month == want[1].first_month
    assert got[1].sales.shape == want[1].sales.shape
    assert got[1].sales.tobytes() == want[1].sales.tobytes()
    return want


class TestCanonicalParser:
    """The numpy parser of canonical files against the row loop, the reference."""

    CANONICAL = {
        "ids longer than 8 bytes": "1,community-one,attribute-0001,4\n"
                                   "1,c2,attribute-0002,7\n2,community-one,a,1\n",
        "ids of exactly 8 and 16 bytes": "1,c0000001,a000000000000001,3\n"
                                         "2,c0000002,a000000000000001,5\n",
        "non-ASCII ids": "1,gem\u00fcse,t\u624b\u888bs,3\n2,gem\u00fcse,a\u00a0b,2\n"
                         "2,x\u2028y,t\u624b\u888bs,9\n",
        "inner spaces and punctuation": "1,c 1,a;b|c'd,3\n1,c\t2,a\x0bb,1\n",
        "leading zeros": "007,c1,a1,0012\n0007,c1,a1,3\n12,c1,a2,000\n",
        "zero-sales rows": "1,c9,a9,0\n2,c1,a1,3\n3,c1,a2,0\n4,c2,a1,1\n6,c8,a8,0\n",
        "only zero-sales rows": "1,c9,a9,0\n",
        "no final newline": "1,c1,a1,3\n2,c2,a2,5",
        "header only": "",
        "duplicates add up": "3,c1,a1,2\n3,c1,a1,5\n1,c2,a1,1\n3,c1,a1,9\n",
        "18-digit sales": "1,c1,a1,999999999999999999\n1,c1,a2,123456789012345678\n"
                          "1,c1,a2,9007199254740993\n",
    }

    @pytest.mark.parametrize("body", CANONICAL.values(), ids=CANONICAL.keys())
    @pytest.mark.parametrize("block", [snap._BLOCK_BYTES, 12])
    def test_agrees_with_the_row_loop(self, tmp_path, monkeypatch, body, block):
        monkeypatch.setattr(snap, "_BLOCK_BYTES", block)
        path = tmp_path / "interactions.csv"
        path.write_bytes(HEADER + body.encode("utf-8"))
        parse_both(path)

    def test_zero_sales_rows_open_no_slot_and_no_month(self, tmp_path):
        path = tmp_path / "interactions.csv"
        path.write_bytes(HEADER + self.CANONICAL["zero-sales rows"].encode())
        catalogs, monthly = parse_both(path)
        assert catalogs == snap.Catalogs(("c1", "c2"), ("a1",))
        assert monthly.months == range(2, 5)

    @pytest.mark.parametrize("generator", [
        {}, {"attributes": 1200}, {"communities": 40, "attributes": 300}],
        ids=["minibatch-300", "fullbatch-1200", "communities-40"])
    def test_agrees_on_generated_datasets(self, tmp_path, generator):
        from trendgraph.synthetic import GeneratorConfig, generate, write_dataset
        path, _ = write_dataset(generate(GeneratorConfig(seed=1, **generator)), tmp_path)
        catalogs, monthly = parse_both(path)
        assert len(monthly) > 0

    NOT_CANONICAL = {
        "CRLF": b"1,c1,a1,3\r\n2,c2,a1,4\r\n",
        "blank lines": b"1,c1,a1,3\n\n2,c2,a1,4\n\n",
        "padded fields": b" 1, c1 ,a1 , 3\n2,c2,\ta1,4 \n",
        "quoted ids": b'1,"c1",a1,3\n2,c2,"a1",4\n',
        "signed number": b"1,c1,a1,+3\n2,c2,a1,4\n",
        "non-ASCII space around an id": "1,\u00a0c1,a1,3\n2,c2,a1\u3000,4\n".encode(),
        "an id over 64 bytes": b"1,c1,a1,3\n2,c2,a1,4\n1," + b"x" * 65 + b",a1,0\n",
    }

    @pytest.mark.parametrize("body", NOT_CANONICAL.values(), ids=NOT_CANONICAL.keys())
    def test_other_files_take_the_row_loop(self, tmp_path, body):
        path = tmp_path / "interactions.csv"
        path.write_bytes(HEADER + body)
        assert snap._ingest_canonical(path) is None
        catalogs, monthly = snap.ingest(path)
        # each of these files holds the rows 1,c1,a1,3 and 2,c2,a1,4
        assert catalogs == snap.Catalogs(("c1", "c2"), ("a1",))
        assert monthly.sales.tolist() == [[[3.0], [0.0]], [[0.0], [4.0]]]

    def test_bom_header_takes_the_row_loop_and_is_read(self, tmp_path):
        # spreadsheets' "CSV UTF-8" export starts with a byte-order mark
        path = tmp_path / "interactions.csv"
        path.write_bytes(b"\xef\xbb\xbf" + HEADER + b"1,c1,a1,3\n")
        assert snap._ingest_canonical(path) is None
        plain = tmp_path / "plain.csv"
        plain.write_bytes(HEADER + b"1,c1,a1,3\n")
        catalogs, monthly = snap.ingest(path)
        want_catalogs, want_monthly = snap.ingest(plain)
        assert catalogs == want_catalogs == snap.Catalogs(("c1",), ("a1",))
        assert monthly.sales.tobytes() == want_monthly.sales.tobytes()

    @pytest.mark.parametrize("row, error, match", [
        (b"0,c1,a1,4", CsvFormatError, "line 3: month must be >= 1"),
        (b"1,c1,,4", CsvFormatError, "line 3: empty community or attribute id"),
        (b"1,c1,a1,-4", NegativeSalesError, "line 3: negative sales"),
        (b"1,c1,a1,4,5", CsvFormatError, "line 3: expected 4 fields, got 5"),
        # four commas, then two: three a row on average
        (b"1,c1,a1,4,5\n1,c1,5", CsvFormatError, "line 3: expected 4 fields, got 5"),
        (b"1,c1,a1,", CsvFormatError, "line 3: invalid literal"),
        (b",c1,a1,4", CsvFormatError, "line 3: invalid literal"),
        (b"1,c1,a1,1234567890123456789012", None, None),
        (b"1,c\xff,a1,0", CsvFormatError, "not UTF-8"),
    ])
    def test_rows_the_row_loop_rejects_or_reads_alone(self, tmp_path, row, error, match):
        path = tmp_path / "interactions.csv"
        path.write_bytes(HEADER + b"1,c1,a1,3\n" + row + b"\n")
        assert snap._ingest_canonical(path) is None
        if error is None:
            snap.ingest(path)
        else:
            with pytest.raises(error, match=match):
                snap.ingest(path)

    def test_bad_month_deep_in_a_canonical_file_names_its_line(self, tmp_path):
        rows = [f"{1 + i % 25},c{i % 7},a{i % 300:03d},{i % 50}" for i in range(60_000)]
        rows[49_999] = "x,c1,a001,4"        # row 50,000 is line 50,001
        path = tmp_path / "interactions.csv"
        path.write_text("\n".join(["month,community,attribute,sales"] + rows) + "\n",
                        encoding="utf-8")
        assert snap._ingest_canonical(path) is None
        with pytest.raises(CsvFormatError, match="^line 50001: "):
            snap.ingest(path)


class TestFilterMinSales:
    def monthly(self):
        return monthly_from_tuples([
            (1, "c1", "a1", 200), (1, "c1", "a2", 500),
            (2, "c1", "a1", 99), (2, "c1", "a2", 150), (2, "c2", "a2", 1),
        ], self.catalogs())

    def catalogs(self):
        return snap.Catalogs(("c1", "c2"), ("a1", "a2", "a3"))

    def test_threshold_zero_is_identity(self):
        catalogs, monthly = snap.filter_min_sales(self.monthly(), self.catalogs(), 0)
        assert catalogs.attributes == ("a1", "a2", "a3")
        assert len(monthly) == 5
        np.testing.assert_array_equal(monthly.sales, self.monthly().sales)

    def test_below_threshold_removed_everywhere(self):
        catalogs, monthly = snap.filter_min_sales(self.monthly(), self.catalogs(), 100)
        # a1 totals 99 in the latest month, a3 totals 0: both go; a2 keeps 151
        assert catalogs.attributes == ("a2",)
        np.testing.assert_array_equal(monthly.sales, [[[500.0], [0.0]], [[150.0], [1.0]]])
        assert monthly.first_month == 1

    def test_absent_in_reference_month_removed(self):
        monthly = monthly_from_tuples([(1, "c1", "a3", 1000), (2, "c1", "a1", 100)],
                                      self.catalogs())
        catalogs, filtered = snap.filter_min_sales(monthly, self.catalogs(), 100)
        assert catalogs.attributes == ("a1",)

    def test_months_left_empty_at_the_start_are_dropped(self):
        # a3 is the only attribute sold in month 1 and falls below the threshold
        monthly = monthly_from_tuples([(1, "c1", "a3", 1000), (2, "c2", "a1", 7),
                                       (3, "c1", "a1", 100), (3, "c2", "a3", 4)],
                                      self.catalogs())
        catalogs, filtered = snap.filter_min_sales(monthly, self.catalogs(), 100)
        assert catalogs.attributes == ("a1",)
        assert filtered.first_month == 2 and filtered.last_month == 3
        np.testing.assert_array_equal(filtered.sales, [[[0.0], [7.0]], [[100.0], [0.0]]])


def sales_oracle(tuples, catalogs):
    """Per-tuple += loop over the tuples' month range."""
    if not tuples:
        return np.zeros((0, catalogs.n_communities, catalogs.n_attributes))
    first = min(m for m, _, _, _ in tuples)
    last = max(m for m, _, _, _ in tuples)
    out = np.zeros((last - first + 1, catalogs.n_communities, catalogs.n_attributes))
    c_idx = index_of(catalogs.communities)
    a_idx = index_of(catalogs.attributes)
    for m, c, a, s in tuples:
        out[m - first, c_idx[c], a_idx[a]] += s
    return out


class TestSalesTensor:
    def test_matches_per_record_loop_with_duplicates_and_empty_months(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n_c, n_a = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            catalogs = snap.Catalogs(tuple(f"c{k}" for k in range(n_c)),
                                     tuple(f"a{j}" for j in range(n_a)))
            # months 1..8 drawn at random, so some months have no sales and
            # some (month, community, attribute) cells repeat
            tuples = [(int(rng.integers(1, 9)), f"c{rng.integers(n_c)}",
                       f"a{rng.integers(n_a)}", int(rng.integers(1, 50)))
                      for _ in range(int(rng.integers(0, 30)))]
            monthly = monthly_from_tuples(tuples, catalogs)
            want = sales_oracle(tuples, catalogs)
            np.testing.assert_array_equal(monthly.sales, want)
            assert monthly.sales.dtype == np.float64 and monthly.sales.flags["C_CONTIGUOUS"]
            assert len(monthly) == len({(m, c, a) for m, c, a, _ in tuples})
            if tuples:
                assert monthly.months == range(min(t[0] for t in tuples),
                                               max(t[0] for t in tuples) + 1)
            else:
                assert not monthly.months

    def test_duplicate_rows_are_summed(self):
        catalogs = snap.Catalogs(("c1",), ("a1",))
        monthly = monthly_from_tuples([(2, "c1", "a1", 3), (2, "c1", "a1", 4),
                                       (1, "c1", "a1", 1)], catalogs)
        np.testing.assert_array_equal(monthly.sales, [[[1.0]], [[7.0]]])
        assert (monthly.first_month, monthly.last_month, len(monthly)) == (1, 2, 2)

    def test_month_reads_one_slice(self):
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        monthly = monthly_from_tuples([(3, "c1", "a2", 5), (5, "c1", "a1", 2)], catalogs)
        np.testing.assert_array_equal(monthly.month(3), [[0.0, 5.0]])
        np.testing.assert_array_equal(monthly.month(4), [[0.0, 0.0]])
        assert monthly.month(2) is None and monthly.month(6) is None


class TestBipartite:
    """A month's sales matrix is its weighted community-attribute adjacency."""

    def test_one_edge_per_attribute_of_a_basket(self):
        catalogs = snap.Catalogs(("c1",), ("a1", "a2", "a3"))
        sales = monthly_from_tuples([(1, "c1", a, 1) for a in ("a1", "a2", "a3")],
                                    catalogs).sales[0]
        np.testing.assert_array_equal(sales, [[1.0, 1.0, 1.0]])

    def test_empty_month(self):
        catalogs = snap.Catalogs(("c1",), ("a1",))
        monthly = monthly_from_tuples([(4, "c1", "a1", 1), (6, "c1", "a1", 1)], catalogs)
        assert monthly.sales.shape == (3, 1, 1) and not monthly.month(5).any()

    def test_shared_attribute_has_degree_two(self):
        catalogs = snap.Catalogs(("c1", "c2"), ("a1",))
        sales = monthly_from_tuples([(1, "c1", "a1", 2), (1, "c2", "a1", 7)], catalogs).sales[0]
        np.testing.assert_array_equal(sales, [[2.0], [7.0]])
        assert np.count_nonzero(sales[:, 0]) == 2
        np.testing.assert_array_equal(enc.neighbor_mean_matrix(sales), [[2 / 9, 7 / 9]])


class TestHypergraph:
    """The support of a month's sales matrix, transposed, is its hypergraph
    incidence; the operator factors are derived from it."""

    def test_basket_becomes_one_hyperedge(self):
        catalogs = snap.Catalogs(("c1",), ("a1", "a2", "a3"))
        monthly = monthly_from_tuples([(1, "c1", a, 1) for a in ("a1", "a2", "a3")], catalogs)
        left, right = enc.hypergraph_operator_factors(monthly.sales[0])
        # three vertices of degree 1 in one hyperedge of degree 3
        np.testing.assert_array_equal(left, [[1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(right, [[1 / 3, 1 / 3, 1 / 3]])

    def test_degrees_match_row_and_column_sums(self):
        incidence = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        sales = incidence.T * np.array([[5.0, 2.0, 0.0], [1.0, 0.0, 9.0]])
        left, right = enc.hypergraph_operator_factors(sales)
        # vertex degrees [2, 1, 1], hyperedge degrees [2, 2]
        dv = np.array([2.0, 1.0, 1.0])
        np.testing.assert_array_equal(left, incidence / np.sqrt(dv)[:, None])
        np.testing.assert_allclose(right, incidence.T / 2.0 / np.sqrt(dv)[None, :], rtol=1e-15)

    def test_empty_snapshot_gives_zero_degrees(self):
        catalogs = snap.Catalogs(("c1", "c2"), ("a1", "a2"))
        monthly = monthly_from_tuples([(1, "c1", "a1", 1), (3, "c2", "a2", 1)], catalogs)
        left, right = enc.hypergraph_operator_factors(monthly.month(2))
        assert left.shape == (2, 2) and right.shape == (2, 2)
        assert not left.any() and not right.any()

    def test_a_stack_gives_each_months_factors(self):
        rng = np.random.default_rng(7)
        for n_communities in (1, 2, 5):
            sales = sparse_sales_stack(rng, 4, n_communities, 6)
            left, right = enc.hypergraph_operator_factors(sales)
            for i, month in enumerate(sales):
                for stacked, alone in zip((left, right), enc.hypergraph_operator_factors(month)):
                    assert stacked[i].shape == alone.shape
                    assert stacked[i].tobytes() == alone.tobytes()

    def test_round_trip_reproduces_adjacency(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_c, n_a = rng.integers(1, 5), rng.integers(1, 7)
            catalogs = snap.Catalogs(tuple(f"c{k}" for k in range(n_c)),
                                     tuple(f"a{j}" for j in range(n_a)))
            tuples = []
            for k in range(n_c):
                for j in range(n_a):
                    if rng.random() < 0.4:
                        tuples.append((1, f"c{k}", f"a{j}", int(rng.integers(1, 9))))
            pairs = {(c, a) for _, c, a, _ in tuples}
            adjacency = [[k for k in range(n_c) if (f"c{k}", f"a{j}") in pairs]
                         for j in range(n_a)]
            # with no sales at all there is no month to read
            sales = (monthly_from_tuples(tuples, catalogs).sales[0] if tuples
                     else np.zeros((n_c, n_a)))
            left, right = enc.hypergraph_operator_factors(sales)
            # both factors keep exactly the incidence pattern
            assert [list(np.flatnonzero(left[j])) for j in range(n_a)] == adjacency
            np.testing.assert_array_equal(right.T != 0, left != 0)
            # degree definitions against brute-force counts over the tuples
            for j in range(n_a):
                for k in adjacency[j]:
                    members = sum(k in ks for ks in adjacency)
                    assert left[j, k] == pytest.approx(1.0 / np.sqrt(len(adjacency[j])), rel=1e-15)
                    assert right[k, j] == pytest.approx(
                        1.0 / (members * np.sqrt(len(adjacency[j]))), rel=1e-15)


class TestLabels:
    def test_hand_ranked_example(self):
        # target month 13: a1=10, a2=8, a3=5, a4=1 -> top-50% of 4 = {a1, a2}
        # month 1: a1=9, a3=4, a4=1 -> top-50% of 3 = ceil(1.5) = {a1, a3}
        tuples = [(13, "c1", "a1", 10), (13, "c1", "a2", 8), (13, "c1", "a3", 5),
                  (13, "c1", "a4", 1), (1, "c1", "a1", 9), (1, "c1", "a3", 4),
                  (1, "c1", "a4", 1)]
        catalogs = snap.Catalogs(("c1",), ("a1", "a2", "a3", "a4"))
        monthly = monthly_from_tuples(tuples, catalogs)
        labels, validity = window_labels(monthly, catalogs, 13, 50)
        np.testing.assert_array_equal(labels, [[0.0, 1.0, 0.0, 0.0]])
        sales = monthly.month(13)
        assert snap.descending_order(sales).tolist() == [[0, 1, 2, 3]]
        assert snap.top_k_membership(sales, 50).tolist() == [[True, True, False, False]]
        assert validity.all()

    def test_no_sales_no_labels(self):
        tuples = [(1, "c1", "a1", 5), (14, "c1", "a1", 5)]
        catalogs = snap.Catalogs(("c1",), ("a1",))
        labels, validity = window_labels(monthly_from_tuples(tuples, catalogs),
                                         catalogs, 13, 50)
        # month 13 has no sales, so its top list is empty; month 1 is observed
        assert not labels.any()
        assert validity.all()

    def test_identical_rank_lists_give_all_zero(self):
        tuples = [(1, "c1", "a1", 5), (1, "c1", "a2", 1),
                  (13, "c1", "a1", 7), (13, "c1", "a2", 2)]
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        labels, validity = window_labels(monthly_from_tuples(tuples, catalogs),
                                         catalogs, 13, 50)
        assert validity.all()
        assert not labels.any()

    def test_year_back_unobserved_sets_mask_to_zero(self):
        tuples = [(5, "c1", "a1", 5), (17, "c1", "a2", 5), (14, "c1", "a1", 1)]
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        samples, _ = snap.build_windows(monthly_from_tuples(tuples, catalogs), catalogs, 1)
        (sample,) = [s for s in samples if s.target_month == 14]
        # month 2 is before the observed range starts
        assert not sample.validity.any()
        assert not sample.labels.any()

    def test_positive_label_requires_positive_sales(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            monthly, catalogs = random_instance(rng)
            labels, validity = window_labels(monthly, catalogs, 13, 50)
            if validity.any():
                assert not np.any((labels > 0) & (monthly.month(13) == 0))
            else:
                assert not labels.any()


# The per-row loops that the shared order replaced, kept as its reference.

def reference_rank_lists(sales, k_percent):
    """Each row's positive-sales attributes sorted on their own, then cut."""
    lists = []
    for row in sales:
        active = np.flatnonzero(row > 0)
        cutoff = math.ceil(k_percent / 100.0 * active.size)
        order = active[np.argsort(-row[active], kind="stable")]
        lists.append(order[:cutoff].tolist())
    return lists


def reference_label_arrays(current, prior, shape):
    """Labels and validity from the target month's rank lists and the
    year-back ones; ``prior`` is None when the year-back month is unobserved."""
    if prior is None:
        return np.zeros(shape), np.zeros(shape)
    labels = np.zeros(shape)
    for k, (now, before) in enumerate(zip(current, prior)):
        labels[k, now] = 1.0
        labels[k, before] = 0.0
    return labels, np.ones(shape)


def reference_top_lists(scores, n):
    """Each row's first ``n`` columns of a lexsort on (-score, index)."""
    out = []
    for row in scores:
        order = np.lexsort((np.arange(scores.shape[1]), -row))
        out.append([int(j) for j in order[:n]])
    return out


def tied_matrices(seed, count, shape=None):
    """Matrices of a few distinct non-negative levels, so ties are common;
    about a fifth of the rows are all zero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = shape or (int(rng.integers(1, 6)), int(rng.integers(1, 13)))
        levels = int(rng.integers(1, 5))
        values = rng.integers(0, levels + 1, size=(rows, cols)) / levels
        values[rng.random(rows) < 0.2] = 0.0
        yield values


RANK_SHAPES = [None, (1, 1), (1, 9), (6, 1)]
K_PERCENTS = list(range(1, 101)) + [0.5, 12.5, 33.3, 99.99]


class TestRanking:
    @pytest.mark.parametrize("shape", RANK_SHAPES, ids=str)
    def test_order_is_descending_with_ties_by_index(self, shape):
        for values in tied_matrices(1, 200, shape):
            order = snap.descending_order(values)
            assert order.tolist() == reference_top_lists(values, values.shape[1])

    @pytest.mark.parametrize("shape", RANK_SHAPES, ids=str)
    def test_membership_and_rank_lists_match_the_per_row_loop(self, shape):
        for i, sales in enumerate(tied_matrices(2, 120, shape)):
            order = snap.descending_order(sales).tolist()
            for k_percent in K_PERCENTS[i % 3::3]:
                member = snap.top_k_membership(sales, k_percent)
                for k, want in enumerate(reference_rank_lists(sales, k_percent)):
                    # a row's rank list is its members in order, and they lead the order
                    got = [j for j in order[k] if member[k, j]]
                    assert got == want == order[k][:len(want)], (i, k_percent, k)

    def test_all_zero_rows_have_empty_lists(self):
        sales = np.zeros((3, 4))
        assert not snap.top_k_membership(sales, 100).any()
        assert snap.descending_order(sales).tolist() == [[0, 1, 2, 3]] * 3

    def test_a_stacked_tensor_ranks_each_month_as_alone(self):
        months = np.stack(list(tied_matrices(3, 9, (4, 7))))
        member = snap.top_k_membership(months, 30)
        order = snap.descending_order(months)
        for m, sales in enumerate(months):
            np.testing.assert_array_equal(order[m], snap.descending_order(sales))
            np.testing.assert_array_equal(member[m], snap.top_k_membership(sales, 30))

    @pytest.mark.parametrize("k_percent", [0, -5, 100.5])
    def test_k_outside_its_range_is_refused(self, k_percent):
        with pytest.raises(ValueError, match="k_percent must be in"):
            snap.top_k_membership(np.ones((1, 2)), k_percent)

    def test_window_labels_match_the_per_row_loop(self):
        rng = np.random.default_rng(43)
        for case in range(8):
            monthly, catalogs = random_monthly(
                seed=200 + case, n_communities=int(rng.integers(1, 5)),
                n_attributes=int(rng.integers(1, 9)), months=int(rng.integers(13, 27)),
                density=float(rng.uniform(0.2, 0.9)), max_sales=int(rng.integers(2, 6)))
            shape = (catalogs.n_communities, catalogs.n_attributes)
            for window_length in (1, 12):
                for k_percent in (1, 10, 33, 50, 100):
                    lists = [reference_rank_lists(m, k_percent) for m in monthly.sales]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        samples, _ = snap.build_windows(monthly, catalogs, window_length,
                                                        k_percent)
                    for sample in samples:
                        now = sample.target_month - monthly.first_month
                        prior = lists[now - 12] if now >= 12 else None
                        labels, validity = reference_label_arrays(lists[now], prior, shape)
                        assert sample.labels.dtype == labels.dtype
                        np.testing.assert_array_equal(sample.labels, labels)
                        np.testing.assert_array_equal(sample.validity, validity)

    @pytest.mark.parametrize("shape", RANK_SHAPES, ids=str)
    def test_top_lists_match_the_lexsort(self, shape):
        for scores in tied_matrices(4, 200, shape):
            matrix = PredictionMatrix(scores=scores, target_month=1)
            for n in (1, 2, scores.shape[1], scores.shape[1] + 3):
                assert matrix.top_lists(n) == reference_top_lists(scores, n)


def random_instance(rng):
    n_c = int(rng.integers(1, 4))
    n_a = int(rng.integers(1, 8))
    catalogs = snap.Catalogs(tuple(f"c{k}" for k in range(n_c)),
                             tuple(f"a{j}" for j in range(n_a)))
    tuples = []
    for month in (1, 13):
        for c in catalogs.communities:
            for a in catalogs.attributes:
                if rng.random() < 0.6:
                    tuples.append((month, c, a, int(rng.integers(1, 12))))
    if not tuples:
        tuples.append((1, catalogs.communities[0], catalogs.attributes[0], 1))
    return monthly_from_tuples(tuples, catalogs), catalogs


class TestWindows:
    def make_monthly(self, n_months):
        tuples = []
        for m in range(1, n_months + 1):
            tuples.append((m, "c1", "a1", 1 + m))
            tuples.append((m, "c1", "a2", 30 - m))
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        return monthly_from_tuples(tuples, catalogs), catalogs

    def test_25_months_gives_11_1_1(self):
        monthly, catalogs = self.make_monthly(25)
        samples, split = snap.build_windows(monthly, catalogs, 12)
        assert len(samples) == 13
        assert len(split.train) == 11 and len(split.valid) == 1 and len(split.test) == 1
        assert samples[split.test[0]].target_month == 25
        assert samples[split.valid[0]].target_month == 24
        assert samples[0].window_months == tuple(range(1, 13))

    def test_13_months_gives_single_test_window_with_warning(self):
        monthly, catalogs = self.make_monthly(13)
        with pytest.warns(UserWarning, match="only 1 window"):
            samples, split = snap.build_windows(monthly, catalogs, 12)
        assert len(samples) == 1
        assert split.train == () and split.valid == () and split.test == (0,)

    def test_14_months_gives_valid_and_test(self):
        monthly, catalogs = self.make_monthly(14)
        with pytest.warns(UserWarning, match="only 2 windows"):
            samples, split = snap.build_windows(monthly, catalogs, 12)
        assert split.train == () and split.valid == (0,) and split.test == (1,)

    def test_12_months_is_insufficient(self):
        monthly, catalogs = self.make_monthly(12)
        with pytest.raises(InsufficientHistoryError):
            snap.build_windows(monthly, catalogs, 12)

    def test_window_count_formula(self):
        rng = np.random.default_rng(5)
        for n_months in (13, 16, 20, 25, 31):
            monthly, catalogs = self.make_monthly(n_months)
            import warnings as w
            with w.catch_warnings():
                w.simplefilter("ignore")
                samples, _ = snap.build_windows(monthly, catalogs, 12)
            assert len(samples) == n_months - 12

    def test_sample_labels_follow_the_rule(self):
        """The labels that training reads equal the brute-force oracle; a
        window whose year-back month is unobserved is invalid and unlabelled."""
        rng = np.random.default_rng(41)
        for case in range(6):
            n_months = int(rng.integers(14, 21))
            monthly, catalogs = random_monthly(
                seed=100 + case, n_communities=int(rng.integers(1, 5)),
                n_attributes=int(rng.integers(2, 9)), months=n_months,
                max_sales=int(rng.integers(3, 30)))
            shape = (catalogs.n_communities, catalogs.n_attributes)
            for window_length in (1, 6, 12):
                for k_percent in (10, 25, 50, 75, 100):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        samples, _ = snap.build_windows(monthly, catalogs, window_length,
                                                        k_percent)
                    for sample in samples:
                        where = (n_months, window_length, k_percent, sample.target_month)
                        want = brute_force_labels(monthly, catalogs, sample.target_month,
                                                  k_percent)
                        np.testing.assert_array_equal(sample.labels, want, err_msg=str(where))
                        observed = sample.target_month - 12 >= monthly.first_month
                        np.testing.assert_array_equal(sample.validity,
                                                      np.full(shape, float(observed)),
                                                      err_msg=str(where))
                        if not observed:
                            assert not sample.labels.any(), where

    def test_series_build_collects_every_month(self):
        monthly, catalogs = self.make_monthly(25)
        series = snap.SnapshotSeries.build(monthly, catalogs)
        assert series.monthly is monthly
        assert series.monthly.months == range(1, 26)
        assert series.monthly.sales.shape == (25, 1, 2)
        np.testing.assert_array_equal(series.monthly.month(4), [[5.0, 26.0]])
        assert [s.target_month for s in series.samples] == list(range(13, 26))
