from dataclasses import replace

import numpy as np
import pytest

from trendgraph import snapshots as snap
from trendgraph.synthetic import GeneratorConfig, generate, write_dataset

from conftest import index_of

SMALL = GeneratorConfig(communities=3, attributes=40, months=25, seed=11)


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
    def test_fixed_seed_gives_byte_identical_output(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.interactions_csv() == b.interactions_csv()
        assert a.annotations_csv() == b.annotations_csv()

    def test_different_seeds_differ(self):
        a = generate(SMALL)
        b = generate(replace(SMALL, seed=12))
        assert a.interactions_csv() != b.interactions_csv()

    def test_zero_onset_rate_gives_no_annotations(self):
        dataset = generate(replace(SMALL, onset_rate=0.0))
        assert dataset.annotations == []

    def test_round_trips_through_ingest_without_warnings(self, tmp_path):
        import warnings

        dataset = generate(SMALL)
        interactions, _ = write_dataset(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catalogs, monthly = snap.ingest(interactions)
        assert catalogs.n_communities == SMALL.communities
        assert monthly.sales.sum() == sum(s for _, _, _, s in dataset.rows)

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
        row_c = {c for _, c, _, _ in dataset.rows}
        row_a = {a for _, _, a, _ in dataset.rows}
        assert communities <= row_c
        assert attributes <= row_a

    def test_written_files_have_expected_headers(self, tmp_path):
        dataset = generate(SMALL)
        interactions, annotations = write_dataset(dataset, tmp_path)
        assert open(interactions).readline().strip() == "month,community,attribute,sales"
        assert open(annotations).readline().strip() == "month,community,attribute"
