import sys
import time
import tracemalloc

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import temporal as tp
from trendgraph.errors import NonFiniteError, ShapeMismatchError

from conftest import block_row_mean, finite_difference_check, sub, tanh


class TestForwardExamples:
    def test_matmul_identity(self):
        a = ad.constant(np.arange(9.0).reshape(3, 3))
        eye = ad.constant(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, a).value, a.value)

    def test_sigmoid_of_zero_is_half(self):
        z = ad.constant(np.zeros((2, 3)))
        np.testing.assert_array_equal(ad.sigmoid(z).value, np.full((2, 3), 0.5))

    def test_row_normalize_3_4_5(self):
        v = ad.constant(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(ad.row_l2_normalize(v).value, [[0.6, 0.8]], atol=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(a, b)
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.hadamard(a, b)

    def test_slice_block(self):
        a = ad.constant(np.arange(12.0).reshape(3, 4))
        out = ad.slice_block(a, (1, 3), (0, 2))
        np.testing.assert_array_equal(out.value, [[4.0, 5.0], [8.0, 9.0]])

    def test_slice_covering_the_matrix_is_the_matrix(self):
        a = ad.constant(np.arange(12.0).reshape(3, 4))
        assert ad.slice_block(a, (0, 3), (0, 4)) is a

    def test_block_row_mean(self):
        # the test-side oracle of the fused sales-convolution op
        a = ad.constant(np.array([[1.0], [3.0], [10.0], [20.0]]))
        np.testing.assert_array_equal(block_row_mean(a, 2).value, [[2.0], [15.0]])
        store = ad.ParameterStore()
        x = store.register("x", np.random.default_rng(6).normal(size=(6, 2)))
        readout = ad.constant([[1.0, -2.0], [0.5, 3.0]])
        report = finite_difference_check(
            lambda: ad.sum_all(ad.hadamard(block_row_mean(x, 3), readout)), store)
        assert report.passed, report.summary()


class TestBackwardExamples:
    def test_sum_of_squares(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0, 2.0]])
        loss = ad.sum_all(ad.hadamard(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_matmul_grad_is_ones_bt(self):
        store = ad.ParameterStore()
        rng = np.random.default_rng(3)
        a = store.register("a", rng.normal(size=(2, 3)))
        b = ad.constant(rng.normal(size=(3, 4)))
        loss = ad.sum_all(ad.matmul(a, b))
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.value.T)

    def test_constant_loss_gives_zero_grad(self):
        store = ad.ParameterStore()
        p = store.register("p", [[5.0]])
        loss = ad.sum_all(ad.constant([[1.0, 2.0]]))
        ad.backward(loss)
        np.testing.assert_array_equal(p.grad, [[0.0]])

    def test_backward_requires_scalar(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0, 2.0]])
        with pytest.raises(ShapeMismatchError, match="1x1"):
            ad.backward(ad.hadamard(x, x))

    def test_reused_node_accumulates_once_per_path(self):
        # loss = sum(x*x) + sum(x) has gradient 2x + 1
        store = ad.ParameterStore()
        x = store.register("x", [[1.0, -2.0, 3.0]])
        loss = ad.add(ad.sum_all(ad.hadamard(x, x)), ad.sum_all(x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[3.0, -3.0, 7.0]])

    def test_gradient_linearity(self):
        # backward on a sum of losses equals summed separate backward passes
        rng = np.random.default_rng(11)
        data = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))

        def grads(combined: bool):
            store = ad.ParameterStore()
            x = store.register("x", data.copy())
            wc = ad.constant(w)
            l1 = ad.sum_all(ad.matmul(x, wc))
            l2 = ad.sum_all(ad.hadamard(x, x))
            if combined:
                ad.backward(ad.add(l1, l2))
                return x.grad.copy()
            ad.backward(l1)
            ad.backward(l2)
            return x.grad.copy()

        np.testing.assert_allclose(grads(True), grads(False), atol=1e-12)


class TestFiniteDifferenceAllPrimitives:
    """Analytic grads match central differences on random inputs, many seeds."""

    N_TRIALS = 100

    def _check(self, build_loss, param_shapes, seed, make=None):
        rng = np.random.default_rng(seed)
        store = ad.ParameterStore()
        for name, shape in param_shapes.items():
            data = make[name](rng) if make and name in make else rng.normal(size=shape)
            store.register(name, data)
        report = finite_difference_check(lambda: build_loss(store, rng), store)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_mixed_graph(self, seed):
        """One composite graph touching every primitive, checked per trial."""
        rng = np.random.default_rng(1000 + seed)
        store = ad.ParameterStore()
        a = store.register("a", rng.normal(size=(3, 4)))
        b = store.register("b", rng.normal(size=(4, 3)))
        bias = store.register("bias", rng.normal(size=(1, 3)))
        ker = store.register("ker", rng.normal(size=(2, 3)))
        patches = ad.constant(np.lib.stride_tricks.sliding_window_view(rng.normal(size=5), 2))
        r1 = ad.constant(rng.normal(size=(3, 3)))

        def build():
            m = ad.matmul(a, b)                     # 3x3
            m = ad.add(m, bias)                     # row broadcast
            m = sub(m, ad.transpose(m))          # transpose + sub, reused node
            m = ad.hadamard(m, r1)
            m = ad.sigmoid(m)
            n = ad.relu(ad.scale(ad.concat_cols(a, ad.transpose(b)), 0.7))  # 3x8
            n = ad.row_l2_normalize(n)
            n = ad.slice_block(n, (0, 3), (2, 5))   # 3x3
            n = tanh(n)
            c = ad.matmul(patches, ker)             # 4x3, width-2 convolution
            c = block_row_mean(c, 2)                # 2x3
            f = ad.affine_relu_block_mean(patches, ker, bias, 2)   # 2x3
            return ad.add(ad.add(ad.sum_all(m), ad.sum_all(f)),
                          ad.add(ad.sum_all(n), ad.sum_all(c)))

        report = finite_difference_check(build, store)
        assert report.passed, report.summary()

    def test_masked_bce_gradient(self):
        rng = np.random.default_rng(99)
        store = ad.ParameterStore()
        z = store.register("z", rng.normal(size=(3, 4)))
        labels = (rng.random((3, 4)) < 0.4).astype(float)
        mask = (rng.random((3, 4)) < 0.8).astype(float)

        def build():
            return ad.masked_bce(ad.sigmoid(z), labels, mask)

        report = finite_difference_check(build, store)
        assert report.passed, report.summary()

    def test_quadratic_loss_is_nearly_exact(self):
        rng = np.random.default_rng(5)
        store = ad.ParameterStore()
        x = store.register("x", rng.normal(size=(2, 3)))

        def build():
            return ad.sum_all(ad.hadamard(x, x))

        report = finite_difference_check(build, store, epsilon=1e-5, tolerance=1e-6)
        assert report.passed, report.summary()
        assert report.worst < 1e-6

    def test_zero_gradient_parameter_uses_absolute_error(self):
        store = ad.ParameterStore()
        unused = store.register("unused", [[0.3, -0.7]])
        used = store.register("used", [[1.0]])

        def build():
            return ad.sum_all(ad.hadamard(used, used))

        report = finite_difference_check(build, store, epsilon=1e-5)
        assert report.max_errors["unused"] < 1e-5
        assert report.passed

    def test_epsilon_domain_enforced(self):
        store = ad.ParameterStore()
        store.register("x", [[1.0]])
        with pytest.raises(ValueError, match="epsilon"):
            finite_difference_check(lambda: None, store, epsilon=1e-2)


class TestAffineReluBlockMean:
    """The fused sales-convolution op against the chain it replaces."""

    @staticmethod
    def run(fused, patches, positions, kernel_data, bias_data, readout, patch_grad=False):
        store = ad.ParameterStore()
        kernel = store.register("kernel", kernel_data)
        bias = store.register("bias", bias_data)
        x = store.register("patches", patches) if patch_grad else ad.constant(patches)
        if fused:
            out = ad.affine_relu_block_mean(x, kernel, bias, positions)
        else:
            out = block_row_mean(ad.relu(ad.add(ad.matmul(x, kernel), bias)), positions)
        ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(readout))))
        return (out.value, kernel.grad, bias.grad) + ((x.grad,) if patch_grad else ())

    @pytest.mark.parametrize("n_communities,positions", [(2, 1), (7, 5), (40, 38)])
    def test_bit_identical_to_the_composed_chain(self, n_communities, positions):
        rng = np.random.default_rng(n_communities)
        raw = rng.integers(0, 30, size=(n_communities, 9)) * (rng.random((n_communities, 9)) < 0.6)
        patches, p = tp.sales_patch_matrix(tp.scale_sales(raw.astype(float)))
        assert p == positions
        kernel, bias = rng.normal(size=(3, 8)), rng.normal(size=(1, 8))
        readout = rng.normal(size=(9, 8))
        fused = self.run(True, patches, positions, kernel, bias, readout)
        chain = self.run(False, patches, positions, kernel, bias, readout)
        assert (fused[0] == 0.0).any() and (fused[0] > 0.0).any()
        for got, want in zip(fused, chain):
            assert got.tobytes() == want.tobytes()

    def test_row_blocks_and_their_remainder_are_bit_identical_to_the_chain(self):
        # 300 attributes x 38 positions: 5 blocks of 53 attributes, then 35
        rng = np.random.default_rng(300)
        raw = rng.integers(0, 30, size=(40, 300)) * (rng.random((40, 300)) < 0.6)
        patches, positions = tp.sales_patch_matrix(tp.scale_sales(raw.astype(float)))
        step = ad.AFFINE_CHUNK_ROWS // positions
        assert patches.shape[0] == 300 * 38 and 300 // step > 2 and 300 % step
        kernel, bias = rng.normal(size=(3, 16)), rng.normal(size=(1, 16))
        readout = rng.normal(size=(300, 16))
        fused = self.run(True, patches, positions, kernel, bias, readout, patch_grad=True)
        chain = self.run(False, patches, positions, kernel, bias, readout, patch_grad=True)
        assert len(fused) == 4
        for got, want in zip(fused, chain):
            assert got.tobytes() == want.tobytes()

    def test_forward_holds_one_row_block_of_floats(self):
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(300 * 38, 3)))
        w, b = ad.constant(rng.normal(size=(3, 64))), ad.constant(rng.normal(size=(1, 64)))
        tracemalloc.start()
        try:
            out = ad.affine_relu_block_mean(x, w, b, 38)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output and one buffer of at most AFFINE_CHUNK_ROWS x 64 floats,
        # against 5.8 MB for the affine map of every row
        buffer = ad.AFFINE_CHUNK_ROWS * 64 * 8
        assert out.value.nbytes < peak <= out.value.nbytes + buffer + 100_000

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        store = ad.ParameterStore()
        x = store.register("x", rng.normal(size=(12, 3)))
        w = store.register("w", rng.normal(size=(3, 4)))
        b = store.register("b", rng.normal(size=(1, 4)))
        readout = ad.constant(rng.normal(size=(3, 4)))
        report = finite_difference_check(
            lambda: ad.sum_all(ad.hadamard(ad.affine_relu_block_mean(x, w, b, 4), readout)), store)
        assert report.passed, report.summary()

    def test_rows_not_divisible_by_block(self):
        x = ad.constant(np.zeros((5, 3)))
        with pytest.raises(ShapeMismatchError, match="5 not divisible by block 2"):
            ad.affine_relu_block_mean(x, ad.constant(np.zeros((3, 2))),
                                      ad.constant(np.zeros((1, 2))), 2)


class TestGraphFree:
    def test_op_on_constants_keeps_no_graph(self):
        a = ad.constant(np.ones((2, 2)))
        out = ad.matmul(a, ad.constant(np.eye(2)))
        assert out.parents == () and out._backward is None and not out.needs_grad


class TestBackwardReleasesGraph:
    @staticmethod
    def chain():
        store = ad.ParameterStore()
        x = store.register("x", [[1.0, -2.0]])
        hidden = ad.sigmoid(ad.matmul(x, ad.constant([[0.5], [0.25]])))
        loss = ad.sum_all(ad.hadamard(hidden, hidden))
        return x, hidden, loss

    def test_parameters_keep_gradients_and_interior_nodes_release(self):
        x, hidden, loss = self.chain()
        ad.backward(loss)
        assert x.grad.any()
        for node in (hidden, loss):
            assert node.parents == () and node._grad is None and node._backward is None
        assert hidden.value.shape == (1, 1)

    def test_second_backward_raises(self):
        _, hidden, loss = self.chain()
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="released by an earlier backward"):
            ad.backward(loss)
        with pytest.raises(RuntimeError, match="released by an earlier backward"):
            ad.backward(ad.sum_all(hidden))

    def test_backward_peak_stays_near_the_forward_graph(self):
        # a chain of 10 matmuls: holding each node's gradient until the end
        # would add 10 buffers of this size to the forward graph's peak
        n, depth = 200, 10
        size = n * n * 8
        rng = np.random.default_rng(5)
        store = ad.ParameterStore()
        x = store.register("x", rng.normal(size=(n, n)))
        mix = ad.constant(rng.normal(size=(n, n)) / np.sqrt(n))
        tracemalloc.start()
        try:
            out = x
            for _ in range(depth):
                out = ad.matmul(out, mix)
            loss = ad.sum_all(out)
            del out
            forward, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ad.backward(loss)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forward > depth * size
        assert peak - forward < 3 * size
        # what is left is the parameter's gradient
        assert after < 2 * size


class TestLogistic:
    def test_bit_identical_to_the_where_formula(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0]
        rng = np.random.default_rng(8)
        x = np.concatenate([special, rng.normal(size=493), 40.0 * rng.normal(size=500)])
        x = x.reshape(20, 50)
        kept = x.copy()
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, e) / (1.0 + e)
        assert ad.logistic(x).tobytes() == want.tobytes()
        assert x.tobytes() == kept.tobytes()


class TestWorkerGate:
    @pytest.mark.parametrize("cpus,environ,expected", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {}, False),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "many"}, False),
    ])
    def test_the_worker_needs_a_cpu_that_blas_leaves_free(self, cpus, environ, expected):
        assert ad._cpu_left_by_blas(cpus, ad.blas_threads(environ)) is expected


def relay(a, delay=0.0, error=None):
    """``a`` through a node whose backward rule sleeps ``delay`` seconds first,
    then raises ``ValueError(error)`` if an error is given."""
    def backward(g):
        time.sleep(delay)
        if error is not None:
            raise ValueError(error)
        a.accumulate_grad(g)

    return ad.Node(a.value, op="relay", parents=(a,), backward=backward)


class TestFork:
    @staticmethod
    def graph(forked):
        """Three parts over ``a`` and ``b`` (and an ``unused`` parameter),
        each with two outputs that share a node, built through ``fork`` or
        inline; the loss also reads ``a`` and ``b`` outside the parts, and
        the third part's second output is never read."""
        store = ad.ParameterStore()
        rng = np.random.default_rng(4)
        a = store.register("a", rng.normal(size=(3, 4)))
        b = store.register("b", rng.normal(size=(4, 2)))
        unused = store.register("unused", rng.normal(size=(1, 1)))

        def part(a, b, unused):
            s = ad.sigmoid(a)
            return [ad.relu(ad.matmul(s, b)), s]

        params = (a, b, unused)
        outputs = ad.fork([part] * 3, params) if forked else [part(*params) for _ in range(3)]
        total = ad.sum_all(ad.matmul(a, b))
        for (x, s), factor in zip(outputs, (1.0, -3.0, 0.1)):
            term = ad.sum_all(ad.scale(x, factor))
            if factor != 0.1:
                term = ad.add(term, ad.sum_all(ad.scale(s, factor * factor)))
            total = ad.add(total, term)
        ad.backward(total)
        return [total.value.tobytes(), *(x.value.tobytes() for outs in outputs for x in outs),
                a.grad.tobytes(), b.grad.tobytes(), unused._grad]

    def test_values_and_gradients_equal_the_inline_graph(self, worker, monkeypatch):
        inline = self.graph(False)
        assert inline[-1] is None
        assert self.graph(True) == inline
        assert len(worker.futures) == 2  # the third part, forward and backward
        monkeypatch.setattr(ad, "_WORKER", None)
        assert self.graph(True) == inline

    @staticmethod
    def shared(factors, forked, delays=None, errors=None):
        """d/dp of the sum of ``factor * p`` over parts, one part per factor,
        whose backward rules sleep ``delays`` and raise ``errors``."""
        p = ad.parameter([[1.0]])
        delays = delays or [0.0] * len(factors)
        errors = errors or [None] * len(factors)
        parts = [lambda p, f=f, d=d, e=e: [relay(ad.scale(p, f), d, e)]
                 for f, d, e in zip(factors, delays, errors)]
        outputs = ad.fork(parts, (p,)) if forked else [part(p) for part in parts]
        total = outputs[0][0]
        for (x,) in outputs[1:]:
            total = ad.add(total, x)
        ad.backward(total)
        return p.grad.tolist()

    # summed in this order, 1 + 2**53 rounds back to 2**53, so the gradient
    # is 0.5; in the reverse order it is 1
    FACTORS = (1.0, 2.0 ** 53, -2.0 ** 53, 0.5)

    @pytest.mark.parametrize("delays", [None, (0.0, 0.0, 0.02, 0.0), (0.02, 0.0, 0.0, 0.0)])
    def test_a_shared_parameter_sums_the_parts_in_part_order(self, worker, monkeypatch,
                                                              delays):
        assert self.shared(self.FACTORS, False) == [[0.5]]
        assert self.shared(self.FACTORS[::-1], False) == [[1.0]]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert self.shared(self.FACTORS, True, delays) == [[0.5]]
                assert self.shared(self.FACTORS[::-1], True, delays) == [[1.0]]
        finally:
            sys.setswitchinterval(previous)
        assert len(worker.futures) == 20
        monkeypatch.setattr(ad, "_WORKER", None)
        assert self.shared(self.FACTORS, True, delays) == [[0.5]]

    def test_over_constants_it_returns_the_parts_own_nodes(self):
        a, b = ad.constant(np.ones((2, 2))), ad.constant(np.eye(2))
        built = []

        def part(a, b):
            built.append(ad.matmul(a, b))
            return built

        (out,), = ad.fork([part], (a, b))
        assert out is built[0]
        assert out.op == "matmul" and out.parents == () and not out.needs_grad

    def test_a_failure_on_the_worker_surfaces_with_its_type_and_message(self, worker):
        with pytest.raises(ValueError, match="rule failed on the worker") as raised:
            self.shared(self.FACTORS, True, errors=[None, None, None, "rule failed on the worker"])
        assert worker.futures[-1].exception() is raised.value
        assert self.shared(self.FACTORS, True) == [[0.5]]

    def test_a_failure_on_the_caller_waits_for_the_worker(self, worker):
        with pytest.raises(ValueError, match="rule failed on the caller"):
            self.shared(self.FACTORS, True, delays=[0.0, 0.0, 0.2, 0.0],
                        errors=["rule failed on the caller", None, None, None])
        assert worker.futures[-1].done() and worker.futures[-1].exception() is None
        assert self.shared(self.FACTORS, True) == [[0.5]]


class TestInvariants:
    def test_forward_determinism_bitwise(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(6, 6))
        w = rng.normal(size=(6, 6))

        def run():
            x = ad.constant(data)
            ww = ad.constant(w)
            out = ad.row_l2_normalize(tanh(ad.matmul(ad.sigmoid(x), ww)))
            return out.value.tobytes()

        assert run() == run()

    def test_normalized_rows_have_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=(5, 7)) * rng.uniform(0.1, 50)
            out = ad.row_l2_normalize(ad.constant(x)).value
            norms = np.linalg.norm(out, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_rows_pass_through(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = ad.row_l2_normalize(ad.constant(x)).value
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_all_outputs_finite_after_random_ops(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = ad.constant(rng.normal(size=(4, 4)) * 100)
            b = ad.constant(rng.normal(size=(4, 4)) * 100)
            outs = [ad.matmul(a, b), ad.add(a, b), ad.hadamard(a, b), ad.sigmoid(a),
                    tanh(b), ad.relu(a), ad.row_l2_normalize(b), ad.transpose(a)]
            for node in outs:
                assert np.all(np.isfinite(node.value))


class TestAdam:
    def test_zero_grad_leaves_parameters_unchanged(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0, -2.0]])
        before = x.value.copy()
        ad.adam_step(store, learning_rate=0.1)
        np.testing.assert_array_equal(x.value, before)

    def test_first_step_moves_by_learning_rate(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0]])
        x.accumulate_grad(np.array([[1.0]]))
        ad.adam_step(store, learning_rate=0.1)
        # bias-corrected first step is lr * g / (|g| + eps) = ~0.1
        assert x.value[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_two_identical_steps_move_monotonically(self):
        store = ad.ParameterStore()
        x = store.register("x", [[0.0]])
        values = [0.0]
        for _ in range(2):
            store.zero_grads()
            x.accumulate_grad(np.array([[1.0]]))
            ad.adam_step(store, learning_rate=0.05)
            values.append(x.value[0, 0])
        assert values[0] > values[1] > values[2]

    def test_non_finite_gradient_rejected(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0]])
        x.accumulate_grad(np.array([[np.nan]]))
        with pytest.raises(NonFiniteError, match="x"):
            ad.adam_step(store, learning_rate=0.1)

    def test_gradients_left_intact(self):
        store = ad.ParameterStore()
        x = store.register("x", [[1.0]])
        x.accumulate_grad(np.array([[2.0]]))
        ad.adam_step(store, learning_rate=0.1)
        np.testing.assert_array_equal(x.grad, [[2.0]])


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ad.ParameterStore()
        store.register("w", [[1.0]])
        with pytest.raises(ValueError, match="already registered"):
            store.register("w", [[2.0]])

    def test_checkpoint_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        store = ad.ParameterStore()
        store.register("alpha", rng.normal(size=(3, 5)) * 1e-7)
        store.register("beta", rng.normal(size=(1, 1)) * 1e9)
        path = tmp_path / "model.ckpt"
        store.save(path)
        loaded = ad.ParameterStore.read_checkpoint(path)
        for name, node in store.items():
            assert loaded[name].tobytes() == node.value.tobytes()

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        store = ad.ParameterStore()
        store.register("w", np.linspace(-1, 1, 12).reshape(3, 4))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        store.save(p1)
        store.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOPE\n0\n")
        with pytest.raises(ValueError, match="magic"):
            ad.ParameterStore.read_checkpoint(path)

    def test_load_shape_mismatch(self, tmp_path):
        store = ad.ParameterStore()
        store.register("w", np.zeros((2, 2)))
        path = tmp_path / "model.ckpt"
        store.save(path)
        other = ad.ParameterStore()
        other.register("w", np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            other.load(path)
