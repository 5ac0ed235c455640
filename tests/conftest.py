import numpy as np
import pytest

from trendgraph import autodiff as ad
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


def block_row_mean(a, block):
    """Mean over consecutive row blocks as an autodiff op of its own: (n*block)
    rows become n.  The oracle of the block mean that
    ``autodiff.affine_relu_block_mean`` fuses with the affine map and ReLU."""
    value = a.value.reshape(a.rows // block, block, a.cols).mean(axis=1)

    def backward(g):
        if a.needs_grad:
            a.accumulate_owned(np.repeat(g / block, block, axis=0))

    return ad.Node(value, op="block_row_mean", parents=(a,), backward=backward)


def gru_cell(x, h_prev, w):
    """One gated recurrent step composed of elementwise autodiff ops, about 19
    nodes.  The oracle of ``temporal._rollout``, which runs the same
    arithmetic in the same order as one node per rollout."""
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xr), ad.matmul(h_prev, w.w_hr)), w.b_r))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xu), ad.matmul(h_prev, w.w_hu)), w.b_u))
    n = ad.tanh(ad.add(ad.matmul(x, w.w_xc),
                       ad.hadamard(r, ad.add(ad.matmul(h_prev, w.w_hc), w.b_c))))
    return ad.add(n, ad.hadamard(z, ad.sub(h_prev, n)))


def gru_rollout_oracle(inputs, w, skip=1):
    """States h_t = gru_cell(x_t, h_{t-skip}) from zero states, cell by cell."""
    zero = ad.constant(np.zeros((inputs[0].rows, w.w_hr.cols)))
    states = []
    for t, x in enumerate(inputs):
        states.append(gru_cell(x, states[t - skip] if t >= skip else zero, w))
    return states


def small_series(seed=0, n_communities=3, n_attributes=5, months=15, **kwargs):
    monthly, catalogs = random_monthly(seed, n_communities, n_attributes, months, **kwargs)
    return SnapshotSeries.build(monthly, catalogs)


@pytest.fixture
def tiny_series():
    return small_series(seed=0)
