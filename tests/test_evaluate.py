import numpy as np
import pytest

from trendgraph import evaluate as ev
from trendgraph import snapshots as snap
from trendgraph.errors import DataError, UndefinedAucError
from trendgraph.predictions import PredictionMatrix

from conftest import monthly_from_tuples


def pairwise_auc_oracle(scores, labels, tie_credit=True):
    """O(n^2) double loop straight from the pairwise definition."""
    pos = [s for s, y in zip(scores, labels) if y > 0]
    neg = [s for s, y in zip(scores, labels) if y <= 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n and tie_credit:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert ev.auc([0.9, 0.1, 0.2], [1, 0, 0]) == 1.0

    def test_hand_computed_three_quarters(self):
        assert ev.auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_tied_values_share_their_average_rank(self):
        np.testing.assert_array_equal(ev._average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])),
                                      [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_all_equal_scores_give_half(self):
        assert ev.auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_literal_mode_gives_ties_zero_credit(self):
        assert ev.auc([0.3, 0.3], [1, 0], tie_credit=False) == 0.0

    def test_undefined_when_one_class_empty(self):
        with pytest.raises(UndefinedAucError):
            ev.auc([0.5, 0.6], [1, 1])
        with pytest.raises(UndefinedAucError):
            ev.auc([0.5, 0.6], [0, 0])

    def test_matches_pairwise_oracle_on_1000_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(1000):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:
                scores = rng.choice([0.1, 0.2, 0.5, 0.9], size=n)  # tie-heavy
            else:
                scores = rng.random(n)
            tie = bool(rng.integers(0, 2))
            got = ev.auc(scores, labels, tie_credit=tie)
            want = pairwise_auc_oracle(scores.tolist(), labels.tolist(), tie)
            assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        base = ev.auc(scores, labels)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s ** 3):
            assert ev.auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


def min_max_oracle(sales):
    """Each community's row min-max scaled to [0, 1] in a loop; a constant row scores 0."""
    scores = np.zeros_like(sales)
    for k in range(sales.shape[0]):
        row = sales[k]
        spread = row.max() - row.min()
        if spread > 0:
            scores[k] = (row - row.min()) / spread
    return scores


class TestMomBaseline:
    def monthly(self):
        return monthly_from_tuples([(1, "c1", "a1", 10), (2, "c1", "a2", 5)],
                                   snap.Catalogs(("c1",), ("a1", "a2")))

    def test_min_max_endpoints(self):
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        pred = ev.mom_baseline(self.monthly(), catalogs, 2, 50)
        assert pred.scores[0, 0] == 1.0 and pred.scores[0, 1] == 0.0

    def test_all_zero_previous_month_scores_zero(self):
        catalogs = snap.Catalogs(("c1", "c2"), ("a1",))
        monthly = monthly_from_tuples([(1, "c1", "a1", 10), (2, "c2", "a1", 1)], catalogs)
        pred = ev.mom_baseline(monthly, catalogs, 2, 50)
        np.testing.assert_array_equal(pred.scores[1], [0.0])

    def test_scores_equal_the_per_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_c, n_a = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            sales = (rng.integers(1, 1000, size=(2, n_c, n_a))
                     * (rng.random((2, n_c, n_a)) < 0.6)).astype(float)
            kind = rng.integers(0, 3, size=n_c)
            sales[0, kind == 1] = 0.0                                # all-zero rows
            sales[0, kind == 2] = rng.integers(1, 50, size=(int((kind == 2).sum()), 1))
            catalogs = snap.Catalogs(tuple(f"c{k}" for k in range(n_c)),
                                     tuple(f"a{j}" for j in range(n_a)))
            pred = ev.mom_baseline(snap.MonthlySales(3, sales), catalogs, 4, 50)
            want = min_max_oracle(sales[0])
            assert pred.scores.tobytes() == want.tobytes()

    def test_missing_previous_month_errors(self):
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        with pytest.raises(DataError, match="month 0"):
            ev.mom_baseline(self.monthly(), catalogs, 1, 50)

    def test_top_lists_are_the_previous_months_sales_order(self):
        # past the top-K% count too: every scorer's top list is its score order
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_c, n_a = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            catalogs = snap.Catalogs(tuple(f"c{k}" for k in range(n_c)),
                                     tuple(f"a{j}" for j in range(n_a)))
            tuples = []
            for k in range(n_c):
                for j in range(n_a):
                    if rng.random() < 0.7:
                        tuples.append((4, f"c{k}", f"a{j}", int(rng.integers(1, 6))))
            tuples.append((5, "c0", "a0", 1))
            monthly = monthly_from_tuples(tuples, catalogs)
            pred = ev.mom_baseline(monthly, catalogs, 5, 50)
            order = snap.descending_order(monthly.month(4))
            for n in range(1, n_a + 1):
                assert pred.top_lists(n) == order[:, :n].tolist()


def per_sample_community_aucs(predictions, samples, n_communities):
    """Each community's valid pairs gathered sample by sample, then concatenated."""
    aucs, positives, negatives = [], [], []
    for k in range(n_communities):
        masks = [sample.validity[k] > 0 for sample in samples]
        scores = np.concatenate([p.scores[k][m] for p, m in zip(predictions, masks)])
        labels = np.concatenate([s.labels[k][m] for s, m in zip(samples, masks)])
        positives.append(int((labels > 0).sum()))
        negatives.append(int((labels <= 0).sum()))
        try:
            aucs.append(ev.auc(scores, labels))
        except UndefinedAucError:
            aucs.append(None)
    return aucs, positives, negatives


class TestCommunityAucs:
    def test_pooled_pairs_match_the_per_sample_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n_s, n_c, n_a = (int(v) for v in rng.integers(1, [4, 5, 9]))
            predictions, samples = [], []
            for t in range(n_s):
                labels = (rng.random((n_c, n_a)) < 0.4).astype(float)
                validity = (rng.random((n_c, n_a)) < 0.7).astype(float)
                validity[rng.random(n_c) < 0.2] = 0.0              # rows without valid pairs
                scores = rng.integers(0, 4, size=(n_c, n_a)) / 3    # ties are common
                predictions.append(PredictionMatrix(scores=scores, target_month=t + 2))
                samples.append(snap.TrendSample(window_months=(t + 1,), target_month=t + 2,
                                                labels=labels, validity=validity))
            want = per_sample_community_aucs(predictions, samples, n_c)
            assert ev.community_aucs(predictions, samples, n_c) == want


class TestEvaluatePredictions:
    def sample(self, labels):
        labels = np.asarray(labels, dtype=float)
        return snap.TrendSample(window_months=tuple(range(1, 13)), target_month=13,
                                labels=labels, validity=np.ones_like(labels))

    def test_scoring_with_labels_gives_perfect_auc(self):
        catalogs = snap.Catalogs(("c1", "c2"), ("a1", "a2", "a3"))
        labels = [[1, 0, 0], [0, 1, 0]]
        sample = self.sample(labels)
        pred = PredictionMatrix(scores=np.asarray(labels, dtype=float), target_month=13)
        report = ev.evaluate_predictions([pred], [sample], catalogs)
        assert all(row.auc == 1.0 for row in report.rows)
        assert report.macro_auc == 1.0

    def test_random_scores_hover_near_half(self):
        rng = np.random.default_rng(4)
        n = 4000
        catalogs = snap.Catalogs(("c1",), tuple(f"a{j}" for j in range(n)))
        labels = (rng.random((1, n)) < 0.3).astype(float)
        sample = self.sample(labels)
        pred = PredictionMatrix(scores=rng.random((1, n)), target_month=13)
        report = ev.evaluate_predictions([pred], [sample], catalogs)
        n_pos = int(labels.sum())
        n_neg = n - n_pos
        sigma = np.sqrt((n_pos + n_neg + 1) / (12 * n_pos * n_neg))
        assert abs(report.rows[0].auc - 0.5) < 3 * sigma

    def test_report_row_count_equals_communities(self):
        catalogs = snap.Catalogs(("c1", "c2", "c3"), ("a1", "a2"))
        labels = np.zeros((3, 2))
        labels[0, 0] = 1
        sample = self.sample(labels)
        pred = PredictionMatrix(scores=np.full((3, 2), 0.5), target_month=13)
        report = ev.evaluate_predictions([pred], [sample], catalogs)
        assert len(report.rows) == 3

    def test_undefined_communities_excluded_from_macro(self):
        catalogs = snap.Catalogs(("c1", "c2"), ("a1", "a2"))
        labels = np.array([[1.0, 0.0], [0.0, 0.0]])  # c2 has no positives
        sample = self.sample(labels)
        pred = PredictionMatrix(scores=np.array([[0.9, 0.1], [0.5, 0.5]]), target_month=13)
        report = ev.evaluate_predictions([pred], [sample], catalogs)
        assert report.rows[1].auc is None
        assert report.macro_auc == 1.0

    def test_ndjson_fields(self):
        import json
        catalogs = snap.Catalogs(("c1",), ("a1", "a2"))
        labels = np.array([[1.0, 0.0]])
        sample = self.sample(labels)
        pred = PredictionMatrix(scores=np.array([[0.8, 0.3]]), target_month=13)
        report = ev.evaluate_predictions([pred], [sample], catalogs, top_n=2)
        line = json.loads(report.to_ndjson().splitlines()[0])
        assert set(line) == {"community", "auc", "positives", "negatives", "topn"}
        assert line["topn"] == "a1;a2"


class TestPredictionMatrix:
    def test_scores_domain_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PredictionMatrix(scores=np.array([[1.5]]), target_month=1)

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                PredictionMatrix(scores=np.array([[0.5, bad]]), target_month=1)

    def test_top_lists_break_ties_by_index(self):
        pred = PredictionMatrix(scores=np.array([[0.5, 0.9, 0.5, 0.1]]), target_month=1)
        assert pred.top_lists(3) == [[1, 0, 2]]

    def test_top_lists_refuse_lengths_below_one(self):
        pred = PredictionMatrix(scores=np.array([[0.1, 0.9, 0.5]]), target_month=1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                pred.top_lists(n)
