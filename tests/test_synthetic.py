import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trendgraph import snapshots as snap
from trendgraph.synthetic import GeneratorConfig, generate, write_dataset

from conftest import index_of

SMALL = GeneratorConfig(communities=3, attributes=40, months=25, seed=11)
# sha256 of the two files that GeneratorConfig() writes: acceptance criterion 6's data
INTERACTIONS_SHA256 = "f3247c80b0be7ac26c9c6def23d9a1f854e9cee17ea469db44278070034fbd92"
ANNOTATIONS_SHA256 = "37a66561608b92a756ab05b1a65f3b0f0699b73ae21dccb074e00f67e335ffb6"


class TestGeneratorConfig:
    def test_month_floor_enforced(self):
        with pytest.raises(ValueError, match="months"):
            GeneratorConfig(months=12).validate()

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="onset_rate"):
            GeneratorConfig(onset_rate=1.5).validate()
        with pytest.raises(ValueError, match="noise"):
            GeneratorConfig(noise=-0.1).validate()


class TestGenerate:
    def test_fixed_seed_gives_byte_identical_output(self, tmp_path):
        a = write_dataset(generate(SMALL), tmp_path / "a")
        b = write_dataset(generate(SMALL), tmp_path / "b")
        for path_a, path_b in zip(a, b):
            assert Path(path_a).read_bytes() == Path(path_b).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(SMALL)
        b = generate(replace(SMALL, seed=12))
        assert not np.array_equal(a.monthly.sales, b.monthly.sales)

    def test_default_config_files_keep_their_bytes(self, tmp_path):
        paths = write_dataset(generate(GeneratorConfig()), tmp_path)
        digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
        assert digests == [INTERACTIONS_SHA256, ANNOTATIONS_SHA256]

    def test_tensor_spans_every_month_with_sales_as_drawn(self):
        dataset = generate(SMALL)
        assert dataset.monthly.first_month == 1
        assert dataset.monthly.sales.shape == (SMALL.months, SMALL.communities,
                                               SMALL.attributes)
        assert dataset.catalogs.communities == ("c1", "c2", "c3")
        assert dataset.catalogs.attributes[:2] == ("a01", "a02")
        sales = dataset.monthly.sales
        assert (sales >= 0).all() and (sales == np.round(sales)).all()

    def test_zero_onset_rate_gives_no_annotations(self):
        dataset = generate(replace(SMALL, onset_rate=0.0))
        assert dataset.annotations == []

    def test_round_trips_through_ingest_without_warnings(self, tmp_path):
        import warnings

        dataset = generate(SMALL)
        # a01 first sells after c1's other attributes, and a03 never sells
        dataset.monthly.sales[0, 0, 0] = 0
        dataset.monthly.sales[:, :, 2] = 0
        interactions, _ = write_dataset(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catalogs, monthly = snap.ingest(interactions)
        # ingest numbers ids by first appearance; map its slots onto the generator's
        assert catalogs.attributes[:2] == ("a02", "a04") and "a03" not in catalogs.attributes
        c_idx = index_of(dataset.catalogs.communities)
        a_idx = index_of(dataset.catalogs.attributes)
        rows = [c_idx[c] for c in catalogs.communities]
        cols = [a_idx[a] for a in catalogs.attributes]
        assert sorted(rows) == list(range(SMALL.communities))
        assert sorted(cols) == [j for j in range(SMALL.attributes) if j != 2]
        assert monthly.first_month == dataset.monthly.first_month
        np.testing.assert_array_equal(monthly.sales, dataset.monthly.sales[:, rows][:, :, cols])

    def test_surge_free_noise_free_data_has_mostly_stable_ranks(self, tmp_path):
        quiet = replace(SMALL, attributes=120, noise=0.0, surge_factor=1.0,
                        onset_rate=0.0)
        dataset = generate(quiet)
        interactions, _ = write_dataset(dataset, tmp_path)
        catalogs, monthly = snap.ingest(interactions)
        samples, _ = snap.build_windows(monthly, catalogs, 12, 50)
        last = samples[-1]
        assert last.target_month == quiet.months
        assert last.validity.all()
        assert last.labels.mean() < 0.15

    def test_planted_onsets_are_recovered_by_the_label_rule(self, tmp_path):
        dataset = generate(GeneratorConfig())
        interactions, _ = write_dataset(dataset, tmp_path)
        catalogs, monthly = snap.ingest(interactions)
        c_idx = index_of(catalogs.communities)
        a_idx = index_of(catalogs.attributes)
        samples, _ = snap.build_windows(monthly, catalogs, 12, 50)
        labels_at = {s.target_month: s.labels for s in samples}
        by_month: dict[int, list] = {}
        for m, c, a in dataset.annotations:
            if m >= 13:
                by_month.setdefault(m, []).append((c, a))
        hits = total = 0
        for month, pairs in by_month.items():
            labels = labels_at[month]
            for c, a in pairs:
                total += 1
                hits += labels[c_idx[c], a_idx[a]] == 1.0
        assert total > 100
        assert hits / total >= 0.6

    def test_annotations_reference_real_ids(self):
        dataset = generate(SMALL)
        communities = {c for _, c, _ in dataset.annotations}
        attributes = {a for _, _, a in dataset.annotations}
        # ids that sold at least once, so ids of the written file
        catalogs = dataset.catalogs
        sold = dataset.monthly.sales.sum(axis=0) > 0
        assert communities <= {catalogs.communities[k] for k in np.flatnonzero(sold.any(axis=1))}
        assert attributes <= {catalogs.attributes[j] for j in np.flatnonzero(sold.any(axis=0))}

    def test_written_files_have_expected_headers(self, tmp_path):
        dataset = generate(SMALL)
        interactions, annotations = write_dataset(dataset, tmp_path)
        assert open(interactions).readline().strip() == "month,community,attribute,sales"
        assert open(annotations).readline().strip() == "month,community,attribute"
