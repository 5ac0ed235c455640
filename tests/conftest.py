import math
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph.errors import ShapeMismatchError
from trendgraph.snapshots import Catalogs, MonthlySales, SnapshotSeries


def index_of(ids):
    """Id -> catalog slot."""
    return {name: i for i, name in enumerate(ids)}


def monthly_from_tuples(tuples, catalogs):
    """Sales of (month, community id, attribute id, sales) tuples; repeats add up."""
    c_idx = index_of(catalogs.communities)
    a_idx = index_of(catalogs.attributes)
    return MonthlySales.from_cells(catalogs, [m for m, _, _, _ in tuples],
                                   [c_idx[c] for _, c, _, _ in tuples],
                                   [a_idx[a] for _, _, a, _ in tuples],
                                   [s for _, _, _, s in tuples])


def random_monthly(seed, n_communities=3, n_attributes=5, months=15, density=0.7,
                   max_sales=20):
    rng = np.random.default_rng(seed)
    tuples = []
    for m in range(1, months + 1):
        for c in range(n_communities):
            for a in range(n_attributes):
                if rng.random() < density:
                    tuples.append((m, f"c{c}", f"a{a}", int(rng.integers(1, max_sales))))
    catalogs = Catalogs(tuple(f"c{c}" for c in range(n_communities)),
                        tuple(f"a{a}" for a in range(n_attributes)))
    return monthly_from_tuples(tuples, catalogs), catalogs


def sparse_sales_stack(rng, n_months, n_communities, n_attributes):
    """Months x communities x attributes of sparse integer sales in which the
    last attribute never sells (isolated), the first community buys nothing in
    month 0 (an empty hyperedge) and month 1 holds no sales at all."""
    shape = (n_months, n_communities, n_attributes)
    sales = (rng.integers(1, 30, size=shape) * (rng.random(shape) < 0.5)).astype(float)
    sales[:, :, -1] = 0
    sales[0, 0] = 0
    sales[1] = 0
    return sales


def scale(a, factor):
    factor = float(factor)
    value = a.value * factor

    def backward(g):
        if a.needs_grad:
            a.accumulate_owned(g * factor)

    return ad.Node(value, op="scale", parents=(a,), backward=backward)


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ShapeMismatchError(f"concat_cols: shapes {a.value.shape} and {b.value.shape} do not conform")
    value = np.hstack([a.value, b.value])
    split = a.cols

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g[:, :split])
        if b.needs_grad:
            b.accumulate_grad(g[:, split:])

    return ad.Node(value, op="concat_cols", parents=(a, b), backward=backward)


def relu(a):
    value = np.maximum(a.value, 0.0)

    def backward(g):
        if a.needs_grad:
            a.accumulate_owned(g * (a.value > 0.0))

    return ad.Node(value, op="relu", parents=(a,), backward=backward)


def row_l2_normalize(a):
    """Scale each row to unit Euclidean norm; all-zero rows pass through.

    Backward treats zero rows as an identity map (the normalization is not
    differentiable at the origin, and zero rows stay zero in the forward).
    """
    x = a.value
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    value = x / safe

    def backward(g):
        if a.needs_grad:
            inner = (g * value).sum(axis=1, keepdims=True)
            a.accumulate_owned((g - value * inner) / safe)

    return ad.Node(value, op="row_l2_normalize", parents=(a,), backward=backward)


def sage_encode_chain(aggregator, community_embed, attribute_features, w_agg, w_update):
    """The bipartite encoding composed of autodiff ops, one node per
    operation.  The oracle of ``encoders.sage_encode``, which runs the same
    arithmetic in the same order as one node."""
    neighbor = ad.matmul(aggregator, ad.matmul(community_embed, w_agg))
    return row_l2_normalize(relu(ad.matmul(concat_cols(attribute_features, neighbor),
                                           w_update)))


def hyperconv_encode_chain(factors, attribute_features, mix):
    """The hypergraph encoding composed of autodiff ops: the oracle of
    ``encoders.hyperconv_encode``."""
    left, right = factors
    return relu(ad.matmul(left, ad.matmul(right, ad.matmul(attribute_features, mix))))


def weighted_sum_chain(nodes, weights):
    """Each node scaled, then the products added left to right: the oracle
    of ``autodiff.weighted_sum``."""
    total = scale(nodes[0], weights[0])
    for node, weight in zip(nodes[1:], weights[1:]):
        total = ad.add(total, scale(node, weight))
    return total


def block_row_mean(a, block):
    """Mean over consecutive row blocks as an autodiff op of its own: (n*block)
    rows become n.  The oracle of the block mean that
    ``autodiff.affine_relu_block_mean`` fuses with the affine map and ReLU."""
    value = a.value.reshape(a.rows // block, block, a.cols).mean(axis=1)

    def backward(g):
        if a.needs_grad:
            a.accumulate_owned(np.repeat(g / block, block, axis=0))

    return ad.Node(value, op="block_row_mean", parents=(a,), backward=backward)


def sub(a, b):
    """Elementwise difference, with the broadcasting of ``autodiff.add``."""
    ka, kb = ad._broadcast_binary(a, b, "sub")
    value = a.value - b.value

    def backward(g):
        if a.needs_grad:
            if ka == "full":
                a.accumulate_grad(g)
            else:
                a.accumulate_owned(ad._reduce_to(g, ka))
        if b.needs_grad:
            b.accumulate_owned(-ad._reduce_to(g, kb))

    return ad.Node(value, op="sub", parents=(a, b), backward=backward)


def tanh(a):
    value = np.tanh(a.value)

    def backward(g):
        if a.needs_grad:
            a.accumulate_owned(g * (1.0 - value * value))

    return ad.Node(value, op="tanh", parents=(a,), backward=backward)


def gru_cell(x, h_prev, w):
    """One gated recurrent step composed of elementwise autodiff ops, about 19
    nodes.  The oracle of ``temporal._rollout``, which runs the same
    arithmetic in the same order as one node per rollout."""
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xr), ad.matmul(h_prev, w.w_hr)), w.b_r))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xu), ad.matmul(h_prev, w.w_hu)), w.b_u))
    n = tanh(ad.add(ad.matmul(x, w.w_xc),
                    ad.hadamard(r, ad.add(ad.matmul(h_prev, w.w_hc), w.b_c))))
    return ad.add(n, ad.hadamard(z, sub(h_prev, n)))


def gru_rollout_oracle(inputs, w, skip=1):
    """States h_t = gru_cell(x_t, h_{t-skip}) from zero states, cell by cell."""
    zero = ad.constant(np.zeros((inputs[0].rows, w.w_hr.cols)))
    states = []
    for t, x in enumerate(inputs):
        states.append(gru_cell(x, states[t - skip] if t >= skip else zero, w))
    return states


@dataclass
class FiniteDifferenceReport:
    """Per-parameter worst-case error of analytic gradients vs central differences.

    The error metric is |analytic - numeric| / max(|analytic|, |numeric|, 1),
    so parameters with (near-) zero gradients are judged by absolute error.
    """

    epsilon: float
    tolerance: float
    max_errors: "OrderedDict[str, float]"

    @property
    def failures(self):
        return [name for name, err in self.max_errors.items()
                if not (math.isfinite(err) and err <= self.tolerance)]

    @property
    def passed(self):
        return not self.failures

    @property
    def worst(self):
        return max(self.max_errors.values(), default=0.0)

    def summary(self):
        lines = []
        for name, err in self.max_errors.items():
            ok = math.isfinite(err) and err <= self.tolerance
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: max_err={err:.3e}")
        return "\n".join(lines)


def finite_difference_check(loss_builder, store, epsilon=1e-5, tolerance=1e-4,
                            parameter_names=None):
    """Compare backward() gradients against central differences of the loss.

    ``loss_builder`` must rebuild the forward graph from the store's current
    parameter values and be deterministic for fixed parameters.  Non-finite
    differences are reported as failures, never raised.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    names = (list(parameter_names) if parameter_names is not None
             else [name for name, _ in store.items()])
    store.zero_grads()
    loss = loss_builder()
    ad.backward(loss)
    analytic = {name: store[name].grad.copy() for name in names}

    max_errors = OrderedDict()
    for name in names:
        theta = store[name].value
        a = analytic[name]
        numeric = np.empty_like(theta)
        for idx in np.ndindex(theta.shape):
            orig = theta[idx]
            theta[idx] = orig + epsilon
            f_plus = float(loss_builder().value[0, 0])
            theta[idx] = orig - epsilon
            f_minus = float(loss_builder().value[0, 0])
            theta[idx] = orig
            numeric[idx] = (f_plus - f_minus) / (2.0 * epsilon)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
        err = np.abs(a - numeric) / denom
        err = np.where(np.isfinite(numeric), err, np.inf)
        max_errors[name] = float(err.max()) if err.size else 0.0
    return FiniteDifferenceReport(epsilon=epsilon, tolerance=tolerance, max_errors=max_errors)


def small_series(seed=0, n_communities=3, n_attributes=5, months=15, **kwargs):
    monthly, catalogs = random_monthly(seed, n_communities, n_attributes, months, **kwargs)
    return SnapshotSeries.build(monthly, catalogs)


@pytest.fixture
def tiny_series():
    return small_series(seed=0)


class RecordingExecutor(ThreadPoolExecutor):
    """A one-thread executor that keeps every future it hands out."""

    def __init__(self):
        super().__init__(max_workers=1, thread_name_prefix="test-worker")
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def worker(monkeypatch):
    """The autodiff worker thread, installed whatever the host's CPU count."""
    executor = RecordingExecutor()
    monkeypatch.setattr(ad, "_WORKER", executor)
    yield executor
    executor.shutdown(wait=True)
