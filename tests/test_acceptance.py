"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The synthetic learnability criterion trains a full-size model
and dominates the runtime (a few minutes); everything else finishes in
seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import cli
from trendgraph import encoders as enc
from trendgraph import model as md
from trendgraph import snapshots as snap
from trendgraph.evaluate import auc, community_aucs, macro_average, mom_baseline
from trendgraph.synthetic import GeneratorConfig, generate, write_dataset

from conftest import finite_difference_check, small_series
from test_encoders import make_hypergraph, two_stage_oracle
from test_evaluate import pairwise_auc_oracle
from test_snapshots import brute_force_labels, random_instance, window_labels


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class TestCriterion1GradientIntegrity:
    def test_full_model_finite_difference(self):
        started = time.perf_counter()
        series = small_series(seed=11, n_communities=3, n_attributes=5, months=14)
        config = md.ModelConfig(d=4, seed=5, batch_size=5, window_length=12)
        store = md.initialize(config, series.catalogs)
        rng = np.random.default_rng(99)
        for _, node in store.items():
            node.value += rng.uniform(0.01, 0.06, size=node.value.shape)
        consts = md.build_constants(series, config)
        samples = series.samples[:2]

        def build():
            total = None
            for sample in samples:
                scores = md.forward(series, consts, sample, store, config)
                loss = md.bce_loss(scores, sample.labels, sample.validity)
                total = loss if total is None else ad.add(total, loss)
            return total

        fd = finite_difference_check(build, store, tolerance=1e-4)
        elapsed = time.perf_counter() - started
        ok = fd.passed and elapsed < 60.0
        report(1, ok, f"full-model gradient check: worst error {fd.worst:.2e} "
                      f"(tolerance 1e-4), {elapsed:.1f}s (budget 60s)"
                      + ("" if fd.passed else f"; failures: {fd.failures}"))


class TestCriterion2HypergraphOracle:
    def test_matrix_form_equals_two_stage_aggregation(self):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            n_a = int(rng.integers(1, 9))
            n_c = int(rng.integers(1, 5))
            d = int(rng.integers(1, 6))
            incidence = (rng.random((n_a, n_c)) < 0.5).astype(float)
            hg = make_hypergraph(incidence)
            features = rng.normal(size=(n_a, d))
            mix = rng.normal(size=(d, d))
            got = enc.hyperconv_encode(hg, ad.constant(features), ad.constant(mix)).value
            want = two_stage_oracle(hg, features, mix)
            worst = max(worst, float(np.abs(got - want).max()))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-10 and elapsed < 5.0
        report(2, ok, f"hypergraph convolution vs two-stage oracle on 100 graphs: "
                      f"worst |diff| {worst:.2e} (tolerance 1e-10), {elapsed:.1f}s (budget 5s)")


class TestCriterion3AucOracle:
    def test_rank_method_equals_pairwise_definition(self):
        started = time.perf_counter()
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = (rng.choice([0.1, 0.3, 0.7], size=n) if rng.random() < 0.5
                      else rng.random(n))
            tie = bool(rng.integers(0, 2))
            fast = auc(scores, labels, tie_credit=tie)
            slow = pairwise_auc_oracle(scores.tolist(), labels.tolist(), tie)
            assert fast == pytest.approx(slow, abs=1e-12)
        elapsed = time.perf_counter() - started
        ok = elapsed < 5.0
        report(3, ok, f"rank AUC equals pairwise definition on 1000 instances "
                      f"with ties, {elapsed:.1f}s (budget 5s)")


class TestCriterion4LabelOracle:
    def test_labels_match_brute_force(self):
        started = time.perf_counter()
        rng = np.random.default_rng(123)
        labelled = 0
        for _ in range(1000):
            records, catalogs = random_instance(rng)
            k = float(rng.choice([10, 25, 50, 75, 100]))
            got, validity = window_labels(records, catalogs, 13, k)
            want = brute_force_labels(records, catalogs, 13, k)
            np.testing.assert_array_equal(got, want)
            labelled += bool(validity.any())
        elapsed = time.perf_counter() - started
        ok = elapsed < 5.0
        report(4, ok, f"training-window labels match sort/slice/set-difference oracle "
                      f"on 1000 instances across K values ({labelled} with a labelled "
                      f"window), {elapsed:.1f}s (budget 5s)")


class TestCriterion5AblationIsolation:
    def test_disabled_components_cannot_change_scores(self):
        series = small_series(seed=0)
        # each ablation is a setting: alpha weighs the other encoder 0, or
        # p = 1 rolls no skip cell (and its store has no combine_skip_*)
        disabled = {
            "hypergraph-only": ({"alpha": 1.0}, ["sage_agg_0", "sage_update_0"]),
            "bipartite-only": ({"alpha": 0.0}, ["hyper_mix_0"]),
            "gru-only": ({"p": 1}, ["skipgru_w_xr", "skipgru_w_hr", "skipgru_b_r",
                                    "skipgru_w_xu", "skipgru_w_hu", "skipgru_b_u",
                                    "skipgru_w_xc", "skipgru_w_hc", "skipgru_b_c"]),
        }
        checked = []
        for ablation, (setting, names) in disabled.items():
            config = md.ModelConfig(d=4, seed=3, **setting)
            store = md.initialize(config, series.catalogs)
            consts = md.build_constants(series, config)
            sample = series.samples[series.split.test[0]]
            base = md.forward(series, consts, sample, store, config).value
            for name in names:
                store[name].value += 0.37
            after = md.forward(series, consts, sample, store, config).value
            identical = after.tobytes() == base.tobytes()
            checked.append((ablation, identical))
        ok = all(flag for _, flag in checked)
        report(5, ok, "ablation path isolation (bit-identical scores under "
                      "perturbation of the disabled component): "
                      + ", ".join(f"{name} {'ok' if flag else 'LEAKS'}"
                                  for name, flag in checked))


class TestCriterion6SyntheticLearnability:
    def test_full_model_beats_threshold_and_mom(self, tmp_path):
        started = time.perf_counter()
        dataset = generate(GeneratorConfig())
        interactions, _ = write_dataset(dataset, tmp_path)
        catalogs, records = snap.ingest(interactions)
        series = snap.SnapshotSeries.build(records, catalogs)
        config = md.ModelConfig(seed=1, learning_rate=0.005, batch_size=300,
                                max_epochs=100)
        result = md.train(series, config)
        consts = md.build_constants(series, config)
        test_samples = [series.samples[i] for i in series.split.test]
        preds = [md.predict(series, consts, s, result.store, config)
                 for s in test_samples]
        aucs, _, _ = community_aucs(preds, test_samples, catalogs.n_communities)
        model_macro = macro_average(aucs)
        mom_preds = [mom_baseline(records, catalogs, s.target_month, config.k_percent)
                     for s in test_samples]
        mom_aucs, _, _ = community_aucs(mom_preds, test_samples, catalogs.n_communities)
        mom_macro = macro_average(mom_aucs)
        elapsed = time.perf_counter() - started
        ok = model_macro >= 0.75 and model_macro - mom_macro >= 0.05 and elapsed < 600.0
        report(6, ok, f"synthetic learnability: model macro AUC {model_macro:.4f} "
                      f"(threshold 0.75), MOM {mom_macro:.4f} (margin "
                      f"{model_macro - mom_macro:+.4f}, needs >= 0.05), "
                      f"{elapsed:.0f}s (budget 600s)")


class TestCriterion7WindowProtocol:
    def test_25_months_yield_11_1_1(self, tmp_path):
        dataset = generate(GeneratorConfig(communities=2, attributes=12, months=25,
                                           seed=3))
        interactions, _ = write_dataset(dataset, tmp_path)
        catalogs, records = snap.ingest(interactions)
        samples, split = snap.build_windows(records, catalogs, 12)
        ok = (len(samples) == 13 and len(split.train) == 11
              and len(split.valid) == 1 and len(split.test) == 1)
        report(7, ok, f"25 months -> {len(samples)} windows split "
                      f"{len(split.train)}/{len(split.valid)}/{len(split.test)} "
                      f"(expected 13 -> 11/1/1)")


class TestCriterion8Determinism:
    def test_end_to_end_reruns_byte_identical(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("\n".join([
            "communities=3", "attributes=30", "months=25", "onset_rate=0.08",
            "eligible_band=0.1,0.6", "cluster_size=5", "d=8", "batch_size=30",
            "max_epochs=4", "learning_rate=0.01", "seed=13",
        ]) + "\n")
        artifacts = []
        for tag in ("one", "two"):
            data = tmp_path / f"data_{tag}"
            run = tmp_path / f"run_{tag}"
            ev = tmp_path / f"eval_{tag}"
            assert cli.main(["generate", "--config", str(config_path), "--out", str(data)]) == 0
            assert cli.main(["train", "--config", str(config_path), "--data", str(data),
                             "--out", str(run)]) == 0
            assert cli.main(["evaluate", "--data", str(data),
                             "--checkpoint", str(run / "model.ckpt"),
                             "--out", str(ev)]) == 0
            artifacts.append({
                "interactions": (data / "interactions.csv").read_bytes(),
                "epochs": (run / "epochs.ndjson").read_bytes(),
                "checkpoint": (run / "model.ckpt").read_bytes(),
                "report_model": (ev / "report_model.ndjson").read_bytes(),
                "report_mom": (ev / "report_mom.ndjson").read_bytes(),
            })
        same = {k: artifacts[0][k] == artifacts[1][k] for k in artifacts[0]}
        ok = all(same.values())
        report(8, ok, "two identical-seed end-to-end runs byte-identical: "
                      + ", ".join(f"{k} {'ok' if v else 'DIFFERS'}" for k, v in same.items()))


class TestCriterion9FusionEndpoints:
    def test_alpha_endpoints_cut_gradients_exactly(self):
        series = small_series(seed=0)
        sample = series.samples[0]

        def gradients(alpha):
            config = md.ModelConfig(d=4, seed=3, alpha=alpha)
            store = md.initialize(config, series.catalogs)
            consts = md.build_constants(series, config)
            store.zero_grads()
            scores = md.forward(series, consts, sample, store, config)
            ad.backward(md.bce_loss(scores, sample.labels, sample.validity))
            return store

        at_zero = gradients(0.0)
        hyper_zeroed = not at_zero["hyper_mix_0"].grad.any()
        bip_alive = bool(np.abs(at_zero["sage_agg_0"].grad).max() > 0
                         and np.abs(at_zero["sage_update_0"].grad).max() > 0)
        at_one = gradients(1.0)
        bip_zeroed = bool(not at_one["sage_agg_0"].grad.any()
                          and not at_one["sage_update_0"].grad.any())
        hyper_alive = bool(np.abs(at_one["hyper_mix_0"].grad).max() > 0)
        ok = hyper_zeroed and bip_alive and bip_zeroed and hyper_alive
        report(9, ok, "fusion endpoints: alpha=0 zeroes hypergraph-encoder gradients "
                      f"({'ok' if hyper_zeroed else 'FAIL'}), alpha=1 zeroes "
                      f"bipartite-encoder gradients ({'ok' if bip_zeroed else 'FAIL'}), "
                      "complementary paths stay live "
                      f"({'ok' if bip_alive and hyper_alive else 'FAIL'})")
