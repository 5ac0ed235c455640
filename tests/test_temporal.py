import math
import tracemalloc

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import encoders as enc
from trendgraph import model as md
from trendgraph import temporal as tp
from trendgraph.errors import ShapeMismatchError

from conftest import finite_difference_check, gru_cell, gru_rollout_oracle, sparse_sales_stack


def make_gru_weights(rng, d, scale=1.0):
    def mat(shape):
        return ad.constant(rng.normal(size=shape) * scale)
    return tp.GruWeights(
        w_xr=mat((d, d)), w_hr=mat((d, d)), b_r=mat((1, d)),
        w_xu=mat((d, d)), w_hu=mat((d, d)), b_u=mat((1, d)),
        w_xc=mat((d, d)), w_hc=mat((d, d)), b_c=mat((1, d)))


def make_gru_params(store, rng, d, prefix):
    def reg(name, shape):
        return store.register(f"{prefix}_{name}", rng.normal(size=shape) * 0.4)
    return tp.GruWeights(
        w_xr=reg("w_xr", (d, d)), w_hr=reg("w_hr", (d, d)), b_r=reg("b_r", (1, d)),
        w_xu=reg("w_xu", (d, d)), w_hu=reg("w_hu", (d, d)), b_u=reg("b_u", (1, d)),
        w_xc=reg("w_xc", (d, d)), w_hc=reg("w_hc", (d, d)), b_c=reg("b_c", (1, d)))


def scalar_gru_reference(xs, h0, w):
    """Hand-coded per-element recurrence used as the oracle."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    d = len(h0)
    h = list(h0)
    for x in xs:
        r = [sig(sum(x[i] * w["w_xr"][i][j] for i in range(d))
                 + sum(h[i] * w["w_hr"][i][j] for i in range(d)) + w["b_r"][j])
             for j in range(d)]
        z = [sig(sum(x[i] * w["w_xu"][i][j] for i in range(d))
                 + sum(h[i] * w["w_hu"][i][j] for i in range(d)) + w["b_u"][j])
             for j in range(d)]
        n = [math.tanh(sum(x[i] * w["w_xc"][i][j] for i in range(d))
                       + r[j] * (sum(h[i] * w["w_hc"][i][j] for i in range(d)) + w["b_c"][j]))
             for j in range(d)]
        h = [(1.0 - z[j]) * n[j] + z[j] * h[j] for j in range(d)]
    return h


def embed_sales_oracle(raw, kernel, bias):
    """Per-attribute numpy loop: log1p, left-pad the community axis to the
    kernel width, valid convolution, ReLU, mean over positions."""
    width = kernel.shape[0]
    out = np.zeros((raw.shape[1], kernel.shape[1]))
    for j in range(raw.shape[1]):
        signal = np.log1p(raw[:, j])
        if signal.size < width:
            signal = np.concatenate([np.zeros(width - signal.size), signal])
        positions = signal.size - width + 1
        for p in range(positions):
            out[j] += np.maximum(signal[p:p + width] @ kernel + bias[0], 0.0)
        out[j] /= positions
    return out


def embed_sales(raw, kernel, bias):
    """The model's path: patch matrix of a communities x attributes month, then the batch embedding."""
    patches, positions = tp.sales_patch_matrix(tp.scale_sales(np.asarray(raw, dtype=float)))
    return tp.embed_sales_batch(ad.constant(patches), positions, ad.constant(kernel),
                                ad.constant(bias)).value


class TestEmbedSales:
    def test_zero_weights_give_zero(self):
        out = embed_sales([[4.0], [2.0], [9.0], [1.0]], np.zeros((3, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_zero_sales_zero_bias_give_zero(self):
        rng = np.random.default_rng(2)
        out = embed_sales(np.zeros((5, 1)), rng.normal(size=(3, 4)), np.zeros((1, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_hand_convolution_seven_communities(self):
        out = embed_sales(np.full((7, 1), math.e - 1.0), np.ones((3, 1)), np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_short_community_axis_left_pads(self):
        out = embed_sales([[math.e - 1.0]], np.ones((3, 1)), np.zeros((1, 1)))
        # padded signal is [0, 0, 1]: single position summing to 1
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_batch_embedding_matches_per_attribute(self):
        rng = np.random.default_rng(8)
        for n_communities in (1, 2, 6):
            raw = rng.integers(0, 30, size=(n_communities, 5)).astype(float)
            kernel = rng.normal(size=(3, 4))
            bias = rng.normal(size=(1, 4))
            np.testing.assert_allclose(embed_sales(raw, kernel, bias),
                                       embed_sales_oracle(raw, kernel, bias), atol=1e-12)


    def test_a_stack_gives_each_months_patches(self):
        rng = np.random.default_rng(9)
        for n_communities in (1, 2, 3, 7):
            sales = sparse_sales_stack(rng, 4, n_communities, 5)
            scaled = tp.scale_sales(sales)
            patches, positions = tp.sales_patch_matrix(scaled)
            for i, month in enumerate(sales):
                alone = tp.scale_sales(month)
                assert scaled[i].tobytes() == alone.tobytes()
                alone, alone_positions = tp.sales_patch_matrix(alone)
                assert positions == alone_positions
                assert patches[i].shape == alone.shape
                assert patches[i].tobytes() == alone.tobytes()


class TestFuse:
    """``model.forward`` feeds the GRUs (1 - alpha) * bipartite + alpha * hypergraph + sales,
    and does not run an encoder whose weight is 0."""

    def check(self, monkeypatch, series, alpha):
        parts = {"sage_encode": [], "hyperconv_encode": [], "embed_sales_batch": []}
        inputs = []
        config = md.ModelConfig(d=4, seed=3, alpha=alpha)
        store = md.initialize(config, series.catalogs)
        with monkeypatch.context() as patch:
            # the parts are recorded in call order, so the months run in order on the caller
            patch.setattr(ad, "_WORKER", None)
            for module, name in ((enc, "sage_encode"), (enc, "hyperconv_encode"),
                                 (tp, "embed_sales_batch")):
                def recorded(*args, _fn=getattr(module, name), _seen=parts[name]):
                    out = _fn(*args)
                    _seen.append(out.value)
                    return out
                patch.setattr(module, name, recorded)
            rollout = tp.gru_rollout
            patch.setattr(tp, "gru_rollout",
                          lambda xs, w: inputs.extend(x.value for x in xs) or rollout(xs, w))
            md.forward(series, md.build_constants(series, config), series.samples[0],
                       store, config)
        weights = {"sage_encode": 1.0 - alpha, "hyperconv_encode": alpha}
        run = [name for name, weight in weights.items() if weight > 0]
        assert len(inputs) == 12 and len(parts["embed_sales_batch"]) == 12
        assert all(len(parts[name]) == (12 if name in run else 0) for name in weights)
        for month, x in enumerate(inputs):
            terms = ([parts[name][month] * weights[name] for name in run]
                     + [parts["embed_sales_batch"][month]])
            np.testing.assert_array_equal(x, sum(terms[1:], terms[0]))

    def test_alpha_endpoints(self, monkeypatch, tiny_series):
        self.check(monkeypatch, tiny_series, 0.0)
        self.check(monkeypatch, tiny_series, 1.0)

    def test_alpha_midpoint(self, monkeypatch, tiny_series):
        self.check(monkeypatch, tiny_series, 0.5)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            md.ModelConfig(alpha=1.5).validate()


class TestGru:
    """Cell properties, checked on the oracle ``gru_cell`` and, where a zero
    initial state allows, on the rollouts; ``TestFusedRollout`` ties the
    rollouts to the oracle."""

    def test_all_zero_weights_and_state_give_zero(self):
        d = 3
        zeros = lambda shape: ad.constant(np.zeros(shape))
        w = tp.GruWeights(*(zeros((d, d)) if i % 3 != 2 else zeros((1, d)) for i in range(9)))
        x = ad.constant(np.ones((2, d)))
        h = ad.constant(np.zeros((2, d)))
        out = gru_cell(x, h, w)
        np.testing.assert_array_equal(out.value, np.zeros((2, d)))
        for state in tp.gru_rollout([x, x], w):
            np.testing.assert_array_equal(state.value, np.zeros((2, d)))

    def test_saturated_update_gate_copies_state(self):
        d = 2
        rng = np.random.default_rng(4)
        w = make_gru_weights(rng, d)
        w.b_u = ad.constant(np.full((1, d), 60.0))  # update gate pinned at 1
        h = ad.constant(rng.normal(size=(3, d)))
        out = gru_cell(ad.constant(rng.normal(size=(3, d))), h, w)
        np.testing.assert_allclose(out.value, h.value, atol=1e-12)

    def test_matches_scalar_reference_loop(self):
        rng = np.random.default_rng(9)
        d, steps = 3, 5
        w = make_gru_weights(rng, d, scale=0.6)
        xs_arr = [rng.normal(size=(1, d)) for _ in range(steps)]
        states = tp.gru_rollout([ad.constant(x) for x in xs_arr], w)
        ref = scalar_gru_reference(
            [x[0].tolist() for x in xs_arr], [0.0] * d,
            {name: getattr(w, name).value.tolist() for name in
             ("w_xr", "w_hr", "w_xu", "w_hu", "w_xc", "w_hc")}
            | {name: getattr(w, name).value[0].tolist() for name in ("b_r", "b_u", "b_c")})
        np.testing.assert_allclose(states[-1].value[0], ref, atol=1e-12)

    def test_skip_rollout_with_skip_one_matches_vanilla_bitwise(self):
        rng = np.random.default_rng(14)
        d, steps = 4, 6
        w = make_gru_weights(rng, d)
        xs = [ad.constant(rng.normal(size=(2, d))) for _ in range(steps)]
        vanilla = tp.gru_rollout(xs, w)
        skipped = tp.skip_gru_rollout(xs, w, skip=1)
        for a, b in zip(vanilla, skipped):
            assert a.value.tobytes() == b.value.tobytes()

    def test_skip_rollout_uses_zero_state_before_warmup(self):
        rng = np.random.default_rng(15)
        d = 2
        w = make_gru_weights(rng, d)
        xs = [ad.constant(rng.normal(size=(1, d))) for _ in range(3)]
        states = tp.skip_gru_rollout(xs, w, skip=3)
        zero = ad.constant(np.zeros((1, d)))
        for t in range(3):
            expected = gru_cell(xs[t], zero, w)
            np.testing.assert_array_equal(states[t].value, expected.value)

    def test_outputs_bounded_by_one_when_state_is(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            w = make_gru_weights(rng, d, scale=rng.uniform(0.1, 3.0))
            h = ad.constant(rng.uniform(-1, 1, size=(3, d)))
            x = ad.constant(rng.normal(size=(3, d)) * 5)
            out = gru_cell(x, h, w)
            assert np.all(np.abs(out.value) < 1.0)
            # from zero states; tanh of a large input rounds to exactly 1
            for state in tp.skip_gru_rollout([x, x, x], w, skip=2):
                assert np.all(np.abs(state.value) <= 1.0)


GRU_NAMES = ("w_xr", "w_hr", "b_r", "w_xu", "w_hu", "b_u", "w_xc", "w_hc", "b_c")


class TestFusedRollout:
    """``gru_rollout`` and ``skip_gru_rollout`` against the composed-chain
    oracle: the same states bit for bit, the same gradients to rounding."""

    def gradients(self, rollout, steps, skip, rows=3, d=4, seed=40):
        """States, then the gradients of every weight and input, of a loss
        that reads every state with its own random readout."""
        rng = np.random.default_rng(seed)
        store = ad.ParameterStore()
        w = make_gru_params(store, rng, d, "cell")
        xs = [store.register(f"x_{t}", rng.normal(size=(rows, d))) for t in range(steps)]
        readouts = [ad.constant(rng.normal(size=(rows, d))) for _ in range(steps)]
        states = rollout(xs, w, skip)
        loss = ad.sum_all(ad.hadamard(states[0], readouts[0]))
        for state, readout in zip(states[1:], readouts[1:]):
            loss = ad.add(loss, ad.sum_all(ad.hadamard(state, readout)))
        ad.backward(loss)
        return [s.value for s in states], {name: node.grad for name, node in store.items()}

    @pytest.mark.parametrize("rollout,steps,skip", [
        (lambda xs, w, skip: tp.gru_rollout(xs, w), 12, 1),
        (tp.skip_gru_rollout, 12, 1), (tp.skip_gru_rollout, 12, 2),
        (tp.skip_gru_rollout, 12, 3), (tp.skip_gru_rollout, 12, 12),
        (tp.skip_gru_rollout, 5, 9),
        (tp.skip_gru_rollout, 7, 3),  # the last block holds one step
    ])
    def test_states_and_gradients_match_the_oracle(self, rollout, steps, skip):
        got_states, got = self.gradients(rollout, steps, skip)
        want_states, want = self.gradients(gru_rollout_oracle, steps, skip)
        for a, b in zip(got_states, want_states):
            assert a.tobytes() == b.tobytes()
        assert set(got) == {f"cell_{n}" for n in GRU_NAMES} | {f"x_{t}" for t in range(steps)}
        for name, g in want.items():
            scale = max(np.abs(g).max(), np.finfo(float).tiny)
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    def test_skip_rollout_passes_finite_differences(self):
        rng = np.random.default_rng(41)
        d, rows, steps = 3, 2, 7
        store = ad.ParameterStore()
        w = make_gru_params(store, rng, d, "cell")
        xs = [store.register(f"x_{t}", rng.normal(size=(rows, d))) for t in range(steps)]
        readout = ad.constant(rng.normal(size=(rows, d)))

        def build():
            states = tp.skip_gru_rollout(xs, w, 3)
            return ad.add(ad.sum_all(ad.hadamard(states[-1], readout)),
                          ad.sum_all(ad.hadamard(states[-2], states[-3])))

        report = finite_difference_check(build, store, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_a_rollout_over_constants_keeps_no_graph(self):
        rng = np.random.default_rng(42)
        w = make_gru_weights(rng, 3)
        xs = [ad.constant(rng.normal(size=(2, 3))) for _ in range(5)]
        for states in (tp.gru_rollout(xs, w), tp.skip_gru_rollout(xs, w, 3)):
            assert all(s.parents == () and not s.needs_grad for s in states)

    def test_a_trained_rollout_is_one_node_under_its_states(self):
        rng = np.random.default_rng(43)
        store = ad.ParameterStore()
        w = make_gru_params(store, rng, 3, "cell")
        xs = [ad.constant(rng.normal(size=(2, 3))) for _ in range(5)]
        states = tp.skip_gru_rollout(xs, w, 2)
        cores = {id(s.parents[0]) for s in states}
        assert len(cores) == 1 and all(len(s.parents) == 1 for s in states)
        assert states[0].parents[0].parents == (*xs, *(getattr(w, n) for n in GRU_NAMES))

    def test_a_trained_rollout_keeps_states_and_gates_only(self):
        """Per step the rollout keeps its state and the three gate values
        (r, z, n) that backward reads; backward rebuilds q = h W_hc + b_c
        and a block's stacked inputs.  Measured with tracemalloc, within
        16 KB for the nodes and their rules."""
        rng = np.random.default_rng(46)
        rows, d, steps, skip = 300, 16, 12, 3
        store = ad.ParameterStore()
        w = make_gru_params(store, rng, d, "cell")
        xs = [store.register(f"x_{t}", rng.normal(size=(rows, d))) for t in range(steps)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            states = tp.skip_gru_rollout(xs, w, skip)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        buffer = rows * d * 8
        assert kept <= 4 * steps * buffer + 16_384, kept / buffer
        ad.backward(ad.sum_all(states[-1]))
        assert np.abs(store["x_2"].grad).max() > 0  # the chain of steps 2, 5, 8, 11

    def test_a_rollout_backward_needs_four_block_buffers(self):
        """Above the forward graph, a skip rollout's backward holds its own
        gradient (one buffer per step) and, per block of p steps, the
        rebuilt q and two new gate gradients, then the stacked inputs or
        their gradient; every other gradient goes into a gate buffer that it
        has read.  Measured with tracemalloc, within 16 KB."""
        rng = np.random.default_rng(47)
        rows, d, steps, skip = 300, 16, 12, 3
        store = ad.ParameterStore()
        w = make_gru_params(store, rng, d, "cell")
        xs = [store.register(f"x_{t}", rng.normal(size=(rows, d))) for t in range(steps)]
        for _, node in store.items():
            node.grad  # allocated before the trace, so gradients add in place
        tracemalloc.start()
        try:
            states = tp.skip_gru_rollout(xs, w, skip)
            loss = ad.sum_all(states[0])
            for state in states[1:]:
                loss = ad.add(loss, ad.sum_all(state))
            del states
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = rows * d * 8
        assert peak - forward <= (steps + 4 * skip) * buffer + 16_384, (peak - forward) / buffer
        assert np.abs(store["x_0"].grad).max() > 0

    def test_shape_mismatch_names_the_shapes(self):
        rng = np.random.default_rng(44)
        w = make_gru_weights(rng, 3)
        with pytest.raises(ShapeMismatchError, match=r"\(2, 4\)"):
            tp.gru_rollout([ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4)))], w)
        w.b_c = ad.constant(np.zeros((3, 1)))
        with pytest.raises(ShapeMismatchError, match=r"\(3, 1\)"):
            tp.gru_rollout([ad.constant(np.zeros((2, 3)))], w)

    def test_skip_below_one_and_no_steps_are_refused(self):
        w = make_gru_weights(np.random.default_rng(45), 2)
        with pytest.raises(ValueError, match="skip"):
            tp.skip_gru_rollout([ad.constant(np.zeros((1, 2)))], w, 0)
        with pytest.raises(ValueError, match="at least one step"):
            tp.gru_rollout([], w)


class TestCombine:
    def test_zero_skip_weights_reduce_to_recent_path(self):
        rng = np.random.default_rng(5)
        d = 3
        recent = ad.constant(rng.normal(size=(2, d)))
        w_r = ad.constant(rng.normal(size=(d, d)))
        bias = ad.constant(rng.normal(size=(1, d)))
        skip = [ad.constant(rng.normal(size=(2, d)))]
        out = tp.combine_recurrent(recent, skip, w_r, [ad.constant(np.zeros((d, d)))], bias)
        np.testing.assert_allclose(out.value, recent.value @ w_r.value + bias.value, atol=1e-12)

    def test_skip_two_has_exactly_one_term(self):
        d = 2
        recent = ad.constant(np.zeros((1, d)))
        w_r = ad.constant(np.zeros((d, d)))
        bias = ad.constant(np.zeros((1, d)))
        state = ad.constant([[1.0, 2.0]])
        out = tp.combine_recurrent(recent, [state], w_r, [ad.constant(np.eye(d))], bias)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_identity_weights_sum_three_terms(self):
        d = 2
        eye = ad.constant(np.eye(d))
        recent = ad.constant([[1.0, 0.0]])
        s1 = ad.constant([[0.0, 2.0]])
        s2 = ad.constant([[5.0, 5.0]])
        out = tp.combine_recurrent(recent, [s1, s2], eye, [eye, eye],
                                   ad.constant(np.zeros((1, d))))
        np.testing.assert_array_equal(out.value, [[6.0, 7.0]])

    def test_missing_history_slots_contribute_nothing(self):
        d = 2
        eye = ad.constant(np.eye(d))
        recent = ad.constant([[1.0, 1.0]])
        out = tp.combine_recurrent(recent, [None, None], eye, [eye, eye],
                                   ad.constant(np.zeros((1, d))))
        np.testing.assert_array_equal(out.value, [[1.0, 1.0]])

    def test_weight_count_mismatch(self):
        d = 2
        eye = ad.constant(np.eye(d))
        with pytest.raises(ShapeMismatchError):
            tp.combine_recurrent(eye, [eye], eye, [], ad.constant(np.zeros((1, d))))


class TestAutoregressive:
    def history(self, rng, lags, shape=(2, 3)):
        return [ad.constant(rng.uniform(0, 4, size=shape)) for _ in range(lags)]

    def test_last_lag_selector(self):
        rng = np.random.default_rng(6)
        hist = self.history(rng, 4)
        coeffs = [ad.constant(np.zeros((1, 1))) for _ in range(3)]
        coeffs.append(ad.constant(np.ones((1, 1))))
        out = tp.autoregressive(hist, coeffs, ad.constant([[0.0]]))
        np.testing.assert_allclose(out.value, hist[-1].value, atol=1e-12)

    def test_zero_coefficients_give_bias(self):
        rng = np.random.default_rng(7)
        hist = self.history(rng, 3)
        coeffs = [ad.constant(np.zeros((1, 1))) for _ in range(3)]
        out = tp.autoregressive(hist, coeffs, ad.constant([[2.5]]))
        np.testing.assert_array_equal(out.value, np.full((2, 3), 2.5))

    def test_uniform_coefficients_average_history(self):
        rng = np.random.default_rng(8)
        lags = 5
        hist = self.history(rng, lags)
        coeffs = [ad.constant(np.full((1, 1), 1.0 / lags)) for _ in range(lags)]
        out = tp.autoregressive(hist, coeffs, ad.constant([[0.0]]))
        want = np.mean([h.value for h in hist], axis=0)
        np.testing.assert_allclose(out.value, want, atol=1e-12)

    def test_length_mismatch_raises(self):
        rng = np.random.default_rng(9)
        hist = self.history(rng, 3)
        with pytest.raises(ShapeMismatchError, match="history length"):
            tp.autoregressive(hist, [ad.constant(np.zeros((1, 1)))], ad.constant([[0.0]]))


class TestTemporalGradients:
    def test_full_temporal_stack_passes_finite_differences(self):
        rng = np.random.default_rng(33)
        d, steps, skip = 3, 6, 3
        store = ad.ParameterStore()
        vanilla = make_gru_params(store, rng, d, "gru")
        skip_cell = make_gru_params(store, rng, d, "skipgru")
        w_recent = store.register("comb_recent", rng.normal(size=(d, d)))
        w_skips = [store.register(f"comb_skip_{i}", rng.normal(size=(d, d)))
                   for i in range(skip - 1)]
        bias = store.register("comb_bias", rng.normal(size=(1, d)))
        kernel = store.register("kernel", rng.normal(size=(3, d)))
        conv_bias = store.register("conv_bias", rng.normal(size=(1, d)))
        raw = [rng.integers(0, 9, size=(5, 2)).astype(float) for _ in range(steps)]
        readout = rng.normal(size=(2, d))

        def build():
            xs = []
            for month_sales in raw:
                patches, positions = tp.sales_patch_matrix(tp.scale_sales(month_sales))
                xs.append(tp.embed_sales_batch(ad.constant(patches), positions, kernel, conv_bias))
            h_r = tp.gru_rollout(xs, vanilla)
            h_s = tp.skip_gru_rollout(xs, skip_cell, skip)
            combined = tp.combine_recurrent(h_r[-1], [h_s[-2], h_s[-3]], w_recent, w_skips, bias)
            return ad.sum_all(ad.hadamard(combined, ad.constant(readout)))

        report = finite_difference_check(build, store, tolerance=1e-4)
        assert report.passed, report.summary()

    def test_autoregressive_gradients(self):
        rng = np.random.default_rng(34)
        store = ad.ParameterStore()
        lags = 4
        coeffs = [store.register(f"ar_{i}", rng.normal(size=(1, 1)) * 0.1) for i in range(lags)]
        bias = store.register("ar_bias", rng.normal(size=(1, 1)))
        hist = [ad.constant(rng.uniform(0, 3, size=(2, 3))) for _ in range(lags)]

        def build():
            return ad.sum_all(tp.autoregressive(hist, coeffs, bias))

        report = finite_difference_check(build, store)
        assert report.passed, report.summary()
