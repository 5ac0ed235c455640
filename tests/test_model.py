import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import encoders as enc
from trendgraph import model as md
from trendgraph import temporal as tp
from trendgraph.errors import InsufficientHistoryError, NonFiniteError, ShapeMismatchError
from trendgraph.snapshots import Catalogs, MonthlySales, SnapshotSeries

from conftest import (finite_difference_check, hyperconv_encode_chain, random_monthly,
                      sage_encode_chain, small_series, weighted_sum_chain)

SMALL = md.ModelConfig(d=4, seed=3, batch_size=5, max_epochs=3, learning_rate=0.01)


def zeroed_store(config, catalogs):
    store = md.initialize(config, catalogs)
    for _, node in store.items():
        node.value[...] = 0.0
    return store


class TestConfigValidation:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -0.001])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match=r"learning_rate must be finite and >= 0"):
            replace(SMALL, learning_rate=rate).validate()


class TestInitialize:
    def test_same_seed_gives_identical_stores(self, tiny_series):
        a = md.initialize(SMALL, tiny_series.catalogs)
        b = md.initialize(SMALL, tiny_series.catalogs)
        assert [(n, node.value.tobytes()) for n, node in a.items()] == \
               [(n, node.value.tobytes()) for n, node in b.items()]

    def test_entries_within_uniform_bound(self, tiny_series):
        config = replace(SMALL, d=64)
        store = md.initialize(config, tiny_series.catalogs)
        for name, node in store.items():
            assert np.abs(node.value).max() <= 1.0 / math.sqrt(64)

    def test_different_seeds_differ(self, tiny_series):
        a = md.initialize(SMALL, tiny_series.catalogs)
        b = md.initialize(replace(SMALL, seed=4), tiny_series.catalogs)
        assert any(not np.array_equal(node.value, b[n].value) for n, node in a.items())

    def test_biases_and_ar_coefficients_start_at_zero(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        for name, node in store.items():
            if "bias" in name or name.startswith("ar_") or "_b_" in name:
                assert not node.value.any(), name

    def test_ar_lag_count_matches_window(self, tiny_series):
        store = md.initialize(replace(SMALL, window_length=12), tiny_series.catalogs)
        lags = [n for n, _ in store.items() if n.startswith("ar_lag_")]
        assert len(lags) == 12

    def test_no_parameter_shape_depends_on_the_attribute_catalog(self):
        communities = ("c0", "c1", "c2")
        small = md.initialize(SMALL, Catalogs(communities, tuple(f"a{j}" for j in range(5))))
        large = md.initialize(SMALL, Catalogs(communities, tuple(f"a{j}" for j in range(9))))
        assert [(n, node.value.shape) for n, node in small.items()] == \
               [(n, node.value.shape) for n, node in large.items()]


class TestForward:
    def test_all_zero_parameters_score_half(self, tiny_series):
        store = zeroed_store(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        scores = md.forward(tiny_series, consts, tiny_series.samples[0], store, SMALL)
        np.testing.assert_array_equal(scores.value, np.full(scores.value.shape, 0.5))

    def test_large_forecast_saturates_score(self, tiny_series):
        store = zeroed_store(SMALL, tiny_series.catalogs)
        store["ar_bias"].value[...] = 30.0
        consts = md.build_constants(tiny_series, SMALL)
        scores = md.forward(tiny_series, consts, tiny_series.samples[0], store, SMALL)
        assert scores.value.min() > 1.0 - 1e-9

    def test_fixed_seed_scores_bit_identical(self, tiny_series):
        consts = md.build_constants(tiny_series, SMALL)

        def run():
            store = md.initialize(SMALL, tiny_series.catalogs)
            return md.forward(tiny_series, consts, tiny_series.samples[0], store, SMALL)

        assert run().value.tobytes() == run().value.tobytes()

    def test_batched_columns_match_full_forward(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[0]
        full = md.forward(tiny_series, consts, sample, store, SMALL)
        part = md.forward(tiny_series, consts, sample, store, SMALL, attr_range=(1, 4))
        np.testing.assert_allclose(part.value, full.value[:, 1:4], atol=1e-12)

    @pytest.mark.parametrize("bad", [(1, 6), (-1, 2), (3, 3), (4, 2)])
    def test_attr_range_outside_the_catalog_is_refused(self, tiny_series, bad):
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        with pytest.raises(ShapeMismatchError, match=rf"\({bad[0]}, {bad[1]}\).* 5 attributes"):
            md.forward(tiny_series, consts, tiny_series.samples[0], store, SMALL, attr_range=bad)

    @pytest.mark.parametrize("window_length", [6, 13])
    def test_window_length_mismatch_is_refused(self, tiny_series, window_length):
        config = replace(SMALL, window_length=window_length)
        with pytest.raises(ShapeMismatchError,
                           match=rf"window has 12 months, config window_length is {window_length}"):
            md.train(tiny_series, config)

    def test_scores_follow_a_permutation_of_the_attribute_catalog(self):
        monthly, catalogs = random_monthly(seed=8)
        perm = np.random.default_rng(4).permutation(catalogs.n_attributes)
        permuted = Catalogs(catalogs.communities,
                            tuple(catalogs.attributes[j] for j in perm))
        # the permuted catalog's slot i holds attribute perm[i], so do the columns
        moved = monthly.sales[:, :, perm]
        cells = np.nonzero(moved)
        permuted_monthly = MonthlySales.from_cells(permuted, cells[0] + monthly.first_month,
                                                   cells[1], cells[2], moved[cells])

        def scores(monthly, cats):
            series = SnapshotSeries.build(monthly, cats)
            store = md.initialize(SMALL, cats)
            consts = md.build_constants(series, SMALL)
            return md.forward(series, consts, series.samples[0], store, SMALL).value

        np.testing.assert_allclose(scores(permuted_monthly, permuted),
                                   scores(monthly, catalogs)[:, perm], atol=1e-12)


class TestGraphConstants:
    def sparse_series(self):
        """Two communities (the sales patches pad to three), a first month of 4,
        an attribute that never sells, a community without sales in some months,
        and a month without any."""
        monthly, catalogs = random_monthly(seed=21, n_communities=2, n_attributes=6,
                                           months=16, density=0.5)
        sales = monthly.sales.copy()
        sales[:, :, 2] = 0
        sales[3:9, 1] = 0
        sales[5] = 0
        return SnapshotSeries(catalogs, MonthlySales(4, sales))

    def test_each_months_slice_equals_the_per_month_operators(self):
        series = self.sparse_series()
        consts = md.build_constants(series, SMALL)
        assert consts.first_month == 4 and consts.positions == 1
        for i, sales in enumerate(series.monthly.sales):
            scaled = tp.scale_sales(sales)
            left, right = enc.hypergraph_operator_factors(sales)
            patches, _ = tp.sales_patch_matrix(scaled)
            for stacked, alone in ((consts.aggregator, enc.neighbor_mean_matrix(sales)),
                                   (consts.hyper_left, left), (consts.hyper_right, right),
                                   (consts.patches, patches), (consts.scaled, scaled)):
                assert stacked[i].shape == alone.shape
                assert stacked[i].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("alpha,skipped", [(0.0, {"hyper_left", "hyper_right"}),
                                               (1.0, {"aggregator"})])
    def test_an_encoder_weighted_zero_gets_no_operators(self, alpha, skipped):
        series = self.sparse_series()
        consts = md.build_constants(series, replace(SMALL, alpha=alpha))
        both = md.build_constants(series, SMALL)
        for name in ("aggregator", "hyper_left", "hyper_right", "patches", "scaled"):
            if name in skipped:
                assert getattr(consts, name) is None
            else:
                assert getattr(consts, name).tobytes() == getattr(both, name).tobytes()

    @pytest.mark.parametrize("built,run,missing", [
        (0.0, 0.5, "hyper_left, hyper_right"), (0.0, 1.0, "hyper_left, hyper_right"),
        (1.0, 0.5, "aggregator"), (1.0, 0.0, "aggregator")])
    def test_forward_names_the_operators_it_was_not_given(self, tiny_series, built, run,
                                                          missing):
        consts = md.build_constants(tiny_series, replace(SMALL, alpha=built))
        config = replace(SMALL, alpha=run)
        store = md.initialize(config, tiny_series.catalogs)
        with pytest.raises(ValueError, match=f"alpha={run} .* {missing} were not built"):
            md.forward(tiny_series, consts, tiny_series.samples[0], store, config)

    @pytest.mark.parametrize("first", [3, 6])
    def test_a_window_outside_the_constants_months_is_refused(self, first):
        series = self.sparse_series()
        # constants of months 5..16 alone; a window of 3..14 or 6..17 reaches past them
        window = SnapshotSeries(series.catalogs, MonthlySales(5, series.monthly.sales[1:13]))
        consts = md.build_constants(window, SMALL)
        shape = (2, 6)
        sample = md.TrendSample(tuple(range(first, first + 12)), first + 12,
                                np.zeros(shape), np.zeros(shape))
        store = md.initialize(SMALL, series.catalogs)
        with pytest.raises(ShapeMismatchError, match=r"12 months from 5"):
            md.forward(window, consts, sample, store, SMALL)


class TestRowRestriction:
    """A batch encodes only its own rows, yet scores and gradients equal the
    full forward's columns."""

    RANGES = [(0, 3), (2, 6), (6, 9)]

    @pytest.fixture(params=[SMALL], ids=["one-layer"])
    def case(self, request):
        series = small_series(seed=4, n_communities=4, n_attributes=9)
        config = request.param
        store = md.initialize(config, series.catalogs)
        return series, md.build_constants(series, config), store, config

    def test_restricted_scores_equal_full_columns(self, case):
        series, consts, store, config = case
        sample = series.samples[0]
        full = md.forward(series, consts, sample, store, config).value
        for a0, a1 in self.RANGES:
            part = md.forward(series, consts, sample, store, config, attr_range=(a0, a1))
            np.testing.assert_allclose(part.value, full[:, a0:a1], rtol=0, atol=1e-12)

    def test_restricted_gradients_equal_sliced_full_forward(self, case):
        series, consts, store, config = case
        sample = series.samples[0]
        n_communities = series.catalogs.n_communities

        def grads(scores, a0, a1):
            store.zero_grads()
            ad.backward(md.bce_loss(scores, sample.labels[:, a0:a1], sample.validity[:, a0:a1]))
            return {name: node.grad.copy() for name, node in store.items()}

        for a0, a1 in self.RANGES:
            restricted = grads(md.forward(series, consts, sample, store, config,
                                          attr_range=(a0, a1)), a0, a1)
            full = md.forward(series, consts, sample, store, config)
            sliced = grads(ad.slice_block(full, (0, n_communities), (a0, a1)), a0, a1)
            for name, _ in store.items():
                np.testing.assert_allclose(restricted[name], sliced[name], rtol=0, atol=1e-12,
                                           err_msg=name)
            assert np.abs(restricted["sage_update_0"]).max() > 0
            assert np.abs(restricted["hyper_mix_0"]).max() > 0


class TestPredict:
    def test_scores_equal_the_training_forward_bytes(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[tiny_series.split.test[0]]
        predicted = md.predict(tiny_series, consts, sample, store, SMALL)
        scores = md.forward(tiny_series, consts, sample, store, SMALL)
        assert predicted.scores.tobytes() == scores.value.tobytes()

    def test_non_finite_parameter_is_named(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        store["combine_bias"].value[0, 0] = np.nan
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[tiny_series.split.test[0]]
        with pytest.raises(NonFiniteError, match="parameter 'combine_bias' contains non-finite"):
            md.predict(tiny_series, consts, sample, store, SMALL)


class TestBceLoss:
    def test_perfect_predictions_give_near_zero_loss(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = ad.constant(labels.copy())
        loss = md.bce_loss(scores, labels, np.ones_like(labels))
        assert 0.0 <= loss.value[0, 0] <= labels.size * 1.1e-7

    def test_uniform_half_gives_pairs_times_ln2(self):
        labels = np.zeros((3, 4))
        mask = np.ones((3, 4))
        scores = ad.constant(np.full((3, 4), 0.5))
        loss = md.bce_loss(scores, labels, mask)
        assert loss.value[0, 0] == pytest.approx(12 * math.log(2), rel=1e-12)

    def test_single_pair_hand_value(self):
        loss = md.bce_loss(ad.constant([[0.25]]), np.array([[1.0]]), np.array([[1.0]]))
        assert loss.value[0, 0] == pytest.approx(-math.log(0.25), rel=1e-12)

    def test_masked_pairs_never_contribute(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[0]
        mask = np.ones_like(sample.labels)
        mask[:, 2] = 0.0
        scores = md.forward(tiny_series, consts, sample, store, SMALL)
        base = md.bce_loss(scores, sample.labels, mask).value[0, 0]
        flipped = sample.labels.copy()
        flipped[:, 2] = 1.0 - flipped[:, 2]
        altered = md.bce_loss(scores, flipped, mask).value[0, 0]
        assert base == altered


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_unchanged(self, tiny_series):
        config = replace(SMALL, learning_rate=0.0, max_epochs=2)
        initial = md.initialize(config, tiny_series.catalogs).snapshot_values()
        result = md.train(tiny_series, config)
        for name, arr in initial.items():
            assert np.array_equal(result.store[name].value, arr), name

    def test_loss_strictly_decreases_on_toy_fixture(self):
        series = small_series(seed=5, n_communities=2, n_attributes=4, months=15)
        config = md.ModelConfig(d=4, seed=1, batch_size=4, max_epochs=5,
                                learning_rate=0.02)
        result = md.train(series, config)
        losses = [r.train_loss for r in result.epochs]
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_same_seed_gives_identical_epoch_logs(self, tiny_series):
        r1 = md.train(tiny_series, SMALL)
        r2 = md.train(tiny_series, SMALL)
        assert [(e.epoch, e.train_loss, e.validation_auc) for e in r1.epochs] == \
               [(e.epoch, e.train_loss, e.validation_auc) for e in r2.epochs]
        for name, node in r1.store.items():
            assert node.value.tobytes() == r2.store[name].value.tobytes()

    def test_requires_training_windows(self):
        series = small_series(seed=2, months=13)  # single window -> test only
        with pytest.raises(InsufficientHistoryError):
            md.train(series, SMALL)

    def test_early_stopping_respects_patience(self, tiny_series):
        config = replace(SMALL, max_epochs=40, patience=3, learning_rate=0.0)
        result = md.train(tiny_series, config)
        # constant validation AUC: first epoch sets the best, then patience runs out
        assert len(result.epochs) == 4

    def test_checkpoint_round_trip_reproduces_predictions(self, tiny_series, tmp_path):
        result = md.train(tiny_series, SMALL)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[tiny_series.split.test[0]]
        before = md.predict(tiny_series, consts, sample, result.store, SMALL)
        path = tmp_path / "model.ckpt"
        result.store.save(path)
        fresh = md.initialize(SMALL, tiny_series.catalogs)
        fresh.load(path)
        after = md.predict(tiny_series, consts, sample, fresh, SMALL)
        assert before.scores.tobytes() == after.scores.tobytes()


class TestAblationIsolation:
    def scores_for(self, series, config, store):
        consts = md.build_constants(series, config)
        sample = series.samples[series.split.test[0]]
        return md.forward(series, consts, sample, store, config).value

    def perturb(self, store, names):
        for name in names:
            store[name].value += 0.37

    def test_hypergraph_only_ignores_bipartite_weights(self, tiny_series):
        config = replace(SMALL, alpha=1.0)
        store = md.initialize(config, tiny_series.catalogs)
        base = self.scores_for(tiny_series, config, store)
        self.perturb(store, ["sage_agg_0", "sage_update_0"])
        assert self.scores_for(tiny_series, config, store).tobytes() == base.tobytes()

    def test_bipartite_only_ignores_hypergraph_weights(self, tiny_series):
        config = replace(SMALL, alpha=0.0)
        store = md.initialize(config, tiny_series.catalogs)
        base = self.scores_for(tiny_series, config, store)
        self.perturb(store, ["hyper_mix_0"])
        assert self.scores_for(tiny_series, config, store).tobytes() == base.tobytes()

    def test_p_one_ignores_and_skips_the_skip_cell(self, tiny_series, monkeypatch):
        config = replace(SMALL, p=1)
        store = md.initialize(config, tiny_series.catalogs)
        base = self.scores_for(tiny_series, config, store)
        self.perturb(store, [n for n, _ in store.items() if n.startswith("skipgru_")])
        rolled = []
        monkeypatch.setattr(md.tp, "skip_gru_rollout", lambda *args: rolled.append(args))
        assert self.scores_for(tiny_series, config, store).tobytes() == base.tobytes()
        assert rolled == []

    def test_full_model_reacts_to_every_component(self, tiny_series):
        store = md.initialize(SMALL, tiny_series.catalogs)
        base = self.scores_for(tiny_series, SMALL, store)
        for name in ["sage_agg_0", "hyper_mix_0", "skipgru_w_xc"]:
            fresh = md.initialize(SMALL, tiny_series.catalogs)
            self.perturb(fresh, [name])
            assert self.scores_for(tiny_series, SMALL, fresh).tobytes() != base.tobytes()


_WORKER_CONFIGS = {
    "full": SMALL,
    "bipartite-only": replace(SMALL, alpha=0.0),
    "hypergraph-only": replace(SMALL, alpha=1.0),
    "p = 1": replace(SMALL, p=1),
    "bipartite-only, p = 1": replace(SMALL, alpha=0.0, p=1),
    "hypergraph-only, p = 1": replace(SMALL, alpha=1.0, p=1),
}
# each configuration on a batch of attributes 1-3 and on all 5
WORKER_CASES = {**{name: (config, (1, 4)) for name, config in _WORKER_CONFIGS.items()},
                **{f"{name}, all attributes": (config, None)
                   for name, config in _WORKER_CONFIGS.items()}}


class TestWorkerThread:
    """The window's months and the skip cell on the worker thread against
    everything on the caller."""

    @staticmethod
    def outputs(series, config, attr_range):
        """Scores, predictions, every parameter gradient and a one-epoch
        trained store, as bytes."""
        store = md.initialize(config, series.catalogs)
        consts = md.build_constants(series, config)
        sample = series.samples[series.split.train[0]]
        a0, a1 = attr_range or (0, series.catalogs.n_attributes)
        scores = md.forward(series, consts, sample, store, config, attr_range=attr_range)
        ad.backward(md.bce_loss(scores, sample.labels[:, a0:a1], sample.validity[:, a0:a1]))
        test = series.samples[series.split.test[0]]
        trained = md.train(series, replace(config, max_epochs=1), consts=consts).store
        return {"scores": scores.value.tobytes(),
                "predict": md.predict(series, consts, test, store, config).scores.tobytes(),
                **{f"grad {n}": node.grad.tobytes() for n, node in store.items()},
                **{f"trained {n}": node.value.tobytes() for n, node in trained.items()}}

    @pytest.mark.parametrize("case", WORKER_CASES)
    def test_worker_and_inline_runs_are_byte_equal(self, tiny_series, worker, monkeypatch,
                                                   case):
        config, attr_range = WORKER_CASES[case]
        threaded = self.outputs(tiny_series, config, attr_range)
        submitted = len(worker.futures)
        monkeypatch.setattr(ad, "_WORKER", None)
        assert self.outputs(tiny_series, config, attr_range) == threaded
        # every forward encodes half of its months on the worker
        assert submitted > 0

    @pytest.mark.parametrize("broken_cell,on_worker", [("skipgru", True), ("gru", False)])
    def test_a_failed_rollout_surfaces_and_the_next_call_works(self, tiny_series, worker,
                                                                broken_cell, on_worker):
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[0]
        good = md.forward(tiny_series, consts, sample, store, SMALL).value
        broken = {**dict(store.items()), f"{broken_cell}_w_hc": ad.constant(np.zeros((3, 3)))}
        with pytest.raises(ShapeMismatchError, match=r"\(3, 3\)") as raised:
            md.forward(tiny_series, consts, sample, broken, SMALL)
        assert all(f.done() for f in worker.futures)
        assert (worker.futures[-1].exception() is raised.value) == on_worker
        again = md.forward(tiny_series, consts, sample, store, SMALL)
        assert again.value.tobytes() == good.tobytes()
        ad.backward(md.bce_loss(again, sample.labels, sample.validity))
        assert all(f.done() for f in worker.futures)

    @pytest.mark.parametrize("month,on_worker", [(0, False), (-1, True)])
    def test_a_failed_month_surfaces_and_the_next_call_works(self, tiny_series, worker,
                                                             month, on_worker):
        # the first half of the window's months is encoded on the caller,
        # the second half on the worker
        store = md.initialize(SMALL, tiny_series.catalogs)
        consts = md.build_constants(tiny_series, SMALL)
        sample = tiny_series.samples[0]
        good = md.forward(tiny_series, consts, sample, store, SMALL).value
        patches = consts.patches.copy()
        patches[sample.window_months[month] - consts.first_month, 0, 0] = np.nan
        broken = replace(consts, patches=patches)
        with pytest.raises(NonFiniteError, match="non-finite") as raised:
            md.forward(tiny_series, broken, sample, store, SMALL)
        assert all(f.done() for f in worker.futures)
        assert (worker.futures[-1].exception() is raised.value) == on_worker
        again = md.forward(tiny_series, consts, sample, store, SMALL)
        assert again.value.tobytes() == good.tobytes()
        store.zero_grads()
        ad.backward(md.bce_loss(again, sample.labels, sample.validity))
        assert all(f.done() for f in worker.futures)
        assert np.abs(store["sales_conv_kernel"].grad).max() > 0


class TestFusedLayers:
    """The two encoders and the fusion, each one autodiff node, against the
    composed chains in ``conftest``: the same scores bit for bit and the
    same gradients to 1e-12 of each gradient's largest entry, at each fusion
    weight, on a batch and on all attributes, on the worker thread and
    without it."""

    @staticmethod
    def run(series, config, attr_range):
        store = md.initialize(config, series.catalogs)
        for _, node in store.items():  # off the zero biases, so every path carries signal
            node.value += 0.05
        consts = md.build_constants(series, config)
        sample = series.samples[0]
        a0, a1 = attr_range or (0, series.catalogs.n_attributes)
        scores = md.forward(series, consts, sample, store, config, attr_range=attr_range)
        ad.backward(md.bce_loss(scores, sample.labels[:, a0:a1], sample.validity[:, a0:a1]))
        return scores.value, {name: node.grad for name, node in store.items()}

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("attr_range", [(1, 4), None], ids=["batch", "all"])
    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "inline"])
    def test_scores_and_gradients_match_the_chains(self, tiny_series, request, monkeypatch,
                                                   alpha, attr_range, on_worker):
        if on_worker:
            request.getfixturevalue("worker")
        else:
            monkeypatch.setattr(ad, "_WORKER", None)
        config = replace(SMALL, alpha=alpha)
        got_scores, got = self.run(tiny_series, config, attr_range)
        with monkeypatch.context() as patch:
            patch.setattr(enc, "sage_encode", sage_encode_chain)
            patch.setattr(enc, "hyperconv_encode", hyperconv_encode_chain)
            patch.setattr(ad, "weighted_sum", weighted_sum_chain)
            want_scores, want = self.run(tiny_series, config, attr_range)
        assert got_scores.tobytes() == want_scores.tobytes()
        for name, g in want.items():
            scale = max(np.abs(g).max(), np.finfo(float).tiny)
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name
        live = {"sage_update_0": alpha < 1.0, "hyper_mix_0": alpha > 0.0}
        assert {name: bool(got[name].any()) for name in live} == live


class TestGraphMemory:
    def test_a_whole_catalog_step_keeps_what_its_rules_read(self, monkeypatch):
        """With the batch covering every attribute, the sales embedding is
        itself the batch's features, read by both encoders and the fusion.
        Per month, the graph then keeps about 14 buffers of attributes x d
        floats: the sales embedding, the bipartite encoding, the hypergraph
        encoding, the fused input, and the state and three gate buffers of
        each recurrent cell, plus one-byte masks and the head's few buffers.
        Keeping the neighbor mean and each cell's q made it 17, and the
        composed chains kept 27, one for each product and scaled copy."""
        monkeypatch.setattr(ad, "_WORKER", None)
        series = small_series(seed=0, n_communities=4, n_attributes=200)
        config = replace(SMALL, d=16, batch_size=200)
        store = md.initialize(config, series.catalogs)
        consts = md.build_constants(series, config)
        sample = series.samples[0]
        md.forward(series, consts, sample, store, config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scores = md.forward(series, consts, sample, store, config)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        buffer = 200 * config.d * 8
        assert kept <= 15 * config.window_length * buffer, kept / buffer
        ad.backward(md.bce_loss(scores, sample.labels, sample.validity))
        assert np.abs(store["hyper_mix_0"].grad).max() > 0


class TestAlphaEndpoints:
    def gradients(self, series, alpha):
        config = replace(SMALL, alpha=alpha)
        store = md.initialize(config, series.catalogs)
        consts = md.build_constants(series, config)
        sample = series.samples[0]
        store.zero_grads()
        scores = md.forward(series, consts, sample, store, config)
        ad.backward(md.bce_loss(scores, sample.labels, sample.validity))
        return store

    def test_alpha_zero_zeroes_hypergraph_gradients(self, tiny_series):
        store = self.gradients(tiny_series, 0.0)
        assert not store["hyper_mix_0"].grad.any()
        assert np.abs(store["sage_agg_0"].grad).max() > 0
        assert np.abs(store["sage_update_0"].grad).max() > 0

    def test_alpha_one_zeroes_bipartite_gradients(self, tiny_series):
        store = self.gradients(tiny_series, 1.0)
        assert not store["sage_agg_0"].grad.any()
        assert not store["sage_update_0"].grad.any()
        assert np.abs(store["hyper_mix_0"].grad).max() > 0


class TestFullModelGradients:
    def test_finite_difference_check_on_small_model(self):
        series = small_series(seed=11, n_communities=2, n_attributes=3, months=14)
        config = md.ModelConfig(d=3, p=2, seed=5, batch_size=3, window_length=12)
        store = md.initialize(config, series.catalogs)
        # move every parameter off its exact-zero init so no ReLU sits on its kink
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

        report = finite_difference_check(build, store, tolerance=1e-4)
        assert report.passed, report.summary()
