import tracemalloc

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import encoders as enc
from trendgraph.errors import ShapeMismatchError

from conftest import (finite_difference_check, hyperconv_encode_chain, sage_encode_chain,
                      sparse_sales_stack)


def make_snapshot(adjacency, n_communities):
    """Unit-sales communities x attributes matrix; adjacency[j] lists attribute j's communities."""
    sales = np.zeros((n_communities, len(adjacency)))
    for j, ks in enumerate(adjacency):
        sales[list(ks), j] = 1.0
    return sales


def aggregator(sales):
    return ad.constant(enc.neighbor_mean_matrix(sales))


class HypergraphOperator(tuple):
    """The (left, right) operator constants of one month's sales matrix, plus
    the attributes x communities incidence that the oracle reads."""


def make_hypergraph(incidence):
    incidence = np.asarray(incidence, dtype=float)
    # one unit sale per incident (community, attribute) pair
    left, right = enc.hypergraph_operator_factors(incidence.T.copy())
    hg = HypergraphOperator((ad.constant(left), ad.constant(right)))
    hg.incidence = incidence
    return hg


def two_stage_oracle(hg, features, mix):
    """Loop-based node-hyperedge-node propagation with the same normalizations;
    degrees are counted by loops over the incidence, every hyperedge weight is 1."""
    x = features @ mix
    n_a, n_c = hg.incidence.shape
    vertex_degrees = [sum(hg.incidence[v, e] for e in range(n_c)) for v in range(n_a)]
    edge_degrees = [sum(hg.incidence[v, e] for v in range(n_a)) for e in range(n_c)]
    edge_repr = np.zeros((n_c, x.shape[1]))
    for e in range(n_c):
        members = [v for v in range(n_a) if hg.incidence[v, e]]
        if not members:
            continue
        for v in members:
            edge_repr[e] += x[v] / np.sqrt(vertex_degrees[v])
        edge_repr[e] /= edge_degrees[e]
    out = np.zeros_like(x)
    for v in range(n_a):
        if vertex_degrees[v] == 0:
            continue
        for e in range(n_c):
            if hg.incidence[v, e]:
                out[v] += edge_repr[e]
        out[v] /= np.sqrt(vertex_degrees[v])
    return np.maximum(out, 0.0)


class TestNeighborMeanMatrix:
    def test_rows_weighted_by_edge_sales(self):
        sales = np.array([[3.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(enc.neighbor_mean_matrix(sales),
                                      [[0.75, 0.25], [0.0, 0.0]])

    def test_matches_per_edge_loop_on_random_weighted_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_a, n_c = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            edges = [(k, j, int(rng.integers(1, 100))) for k in range(n_c)
                     for j in range(n_a) if rng.random() < 0.5]
            sales = np.zeros((n_c, n_a))
            for k, j, w in edges:
                sales[k, j] = w
            want = np.zeros((n_a, n_c))
            for j in range(n_a):
                total = sum(w for _, jj, w in edges if jj == j)
                for k, jj, w in edges:
                    if jj == j:
                        want[j, k] = w / total
            np.testing.assert_allclose(enc.neighbor_mean_matrix(sales), want,
                                       rtol=4 * np.finfo(float).eps, atol=0)
            # the month's sales matrix is left as it was
            assert all(sales[k, j] == w for k, j, w in edges)

    def test_a_stack_gives_each_months_matrix(self):
        rng = np.random.default_rng(6)
        for n_communities in (1, 2, 5):
            sales = sparse_sales_stack(rng, 4, n_communities, 6)
            stacked = enc.neighbor_mean_matrix(sales)
            for i, month in enumerate(sales):
                alone = enc.neighbor_mean_matrix(month)
                assert stacked[i].shape == alone.shape
                assert stacked[i].tobytes() == alone.tobytes()


class TestSageEncode:
    def test_neighbor_mean_with_identity_weights(self):
        sales = make_snapshot([[0, 1]], 2)
        communities = ad.constant([[1.0, 3.0], [5.0, 7.0]])
        attributes = ad.constant([[0.0, 0.0]])
        w_agg = ad.constant(np.eye(2))
        # update weight passes only the neighbor half through
        w_update = ad.constant(np.vstack([np.zeros((2, 2)), np.eye(2)]))
        out = enc.sage_encode(aggregator(sales), communities, attributes, w_agg, w_update)
        mean = np.array([3.0, 5.0])
        np.testing.assert_allclose(out.value[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_self_selector_returns_normalized_embedding(self):
        sales = make_snapshot([[0]], 1)
        communities = ad.constant([[2.0, 2.0]])
        attributes = ad.constant([[3.0, 4.0]])
        w_agg = ad.constant(np.eye(2))
        w_update = ad.constant(np.vstack([np.eye(2), np.zeros((2, 2))]))
        out = enc.sage_encode(aggregator(sales), communities, attributes, w_agg, w_update)
        np.testing.assert_allclose(out.value[0], [0.6, 0.8], atol=1e-12)

    def test_isolated_attribute_stays_zero_with_zero_weights(self):
        sales = make_snapshot([[]], 2)
        communities = ad.constant(np.ones((2, 3)))
        attributes = ad.constant(np.zeros((1, 3)))
        w_agg = ad.constant(np.zeros((3, 3)))
        w_update = ad.constant(np.zeros((6, 3)))
        out = enc.sage_encode(aggregator(sales), communities, attributes, w_agg, w_update)
        np.testing.assert_array_equal(out.value, np.zeros((1, 3)))

    def test_output_rows_unit_norm_or_zero(self):
        rng = np.random.default_rng(3)
        sales = make_snapshot([[0], [0, 1], []], 2)
        out = enc.sage_encode(
            aggregator(sales),
            ad.constant(rng.normal(size=(2, 4))),
            ad.constant(rng.normal(size=(3, 4))),
            ad.constant(rng.normal(size=(4, 4))), ad.constant(rng.normal(size=(8, 4))))
        norms = np.linalg.norm(out.value, axis=1)
        for n in norms:
            assert n == pytest.approx(1.0, abs=1e-12) or n == 0.0


class TestHyperconvEncode:
    def test_single_hyperedge_averages_two_nodes(self):
        hg = make_hypergraph([[1], [1]])
        left, right = hg
        np.testing.assert_allclose(left.value @ right.value, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        features = ad.constant([[2.0, 4.0], [6.0, 8.0]])
        out = enc.hyperconv_encode(hg, features, ad.constant(np.eye(2)))
        np.testing.assert_allclose(out.value, [[4.0, 6.0], [4.0, 6.0]], atol=1e-12)

    def test_all_zero_incidence_gives_zero_output(self):
        hg = make_hypergraph(np.zeros((3, 2)))
        out = enc.hyperconv_encode(hg, ad.constant(np.ones((3, 4))), ad.constant(np.eye(4)))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_matches_two_stage_oracle_on_100_random_hypergraphs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n_a = int(rng.integers(1, 9))
            n_c = int(rng.integers(1, 5))
            d = int(rng.integers(1, 6))
            incidence = (rng.random((n_a, n_c)) < 0.5).astype(float)
            hg = make_hypergraph(incidence)
            features = rng.normal(size=(n_a, d))
            mix = rng.normal(size=(d, d))
            got = enc.hyperconv_encode(hg, ad.constant(features), ad.constant(mix))
            want = two_stage_oracle(hg, features, mix)
            np.testing.assert_allclose(got.value, want, atol=1e-10)


class TestEncoderProperties:
    def _random_setup(self, rng, n_c=3, n_a=5, d=4):
        adjacency = [[k for k in range(n_c) if rng.random() < 0.5] for _ in range(n_a)]
        sales = make_snapshot(adjacency, n_c)
        hg = make_hypergraph(sales.T)
        comm = rng.normal(size=(n_c, d))
        attr = rng.normal(size=(n_a, d))
        w_agg = rng.normal(size=(d, d))
        w_update = rng.normal(size=(2 * d, d))
        mix = rng.normal(size=(d, d))
        return sales, hg, comm, attr, w_agg, w_update, mix

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        sales, hg, comm, attr, w_agg, w_update, mix = self._random_setup(rng)
        perm = rng.permutation(sales.shape[1])

        def encode(sales, attr_table):
            g = enc.sage_encode(aggregator(sales), ad.constant(comm), ad.constant(attr_table),
                                ad.constant(w_agg), ad.constant(w_update))
            h = enc.hyperconv_encode(make_hypergraph(sales.T), ad.constant(attr_table),
                                     ad.constant(mix))
            return g.value, h.value

        base_g, base_h = encode(sales, attr)
        perm_g, perm_h = encode(sales[:, perm], attr[perm])
        np.testing.assert_allclose(perm_g, base_g[perm], atol=1e-12)
        np.testing.assert_allclose(perm_h, base_h[perm], atol=1e-12)

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(29)
        sales, hg, comm, attr, w_agg, w_update, mix = self._random_setup(rng)
        store = ad.ParameterStore()
        p_comm = store.register("comm", comm)
        p_attr = store.register("attr", attr)
        p_agg = store.register("agg", w_agg)
        p_upd = store.register("upd", w_update)
        p_mix = store.register("mix", mix)
        readout = rng.normal(size=(sales.shape[1], comm.shape[1]))

        def build():
            g = enc.sage_encode(aggregator(sales), p_comm, p_attr, p_agg, p_upd)
            h = enc.hyperconv_encode(hg, p_attr, p_mix)
            mixed = ad.add(g, h)
            return ad.sum_all(ad.hadamard(mixed, ad.constant(readout)))

        report = finite_difference_check(build, store, tolerance=1e-4)
        assert report.passed, report.summary()

    def test_community_table_untouched_by_hyperconv_path(self):
        rng = np.random.default_rng(31)
        sales, hg, comm, attr, w_agg, w_update, mix = self._random_setup(rng)
        store = ad.ParameterStore()
        p_comm = store.register("comm", comm)
        p_attr = store.register("attr", attr)
        p_mix = store.register("mix", mix)

        out = enc.hyperconv_encode(hg, p_attr, p_mix)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(p_comm.grad, np.zeros_like(comm))

        store.zero_grads()
        out = enc.sage_encode(aggregator(sales), p_comm, p_attr,
                              ad.constant(w_agg), ad.constant(w_update))
        ad.backward(ad.sum_all(out))
        assert np.abs(p_comm.grad).max() > 0


class TestOneNodeEncoders:
    """Each encoder is one autodiff node with the arithmetic of its composed
    chain (``conftest``): the same values bit for bit, the same gradients to
    1e-12 of each gradient's largest entry."""

    def month(self, rng, rows, n_a=9, n_c=4, d=5):
        """A month's operators cut to the attributes ``rows``, and the
        parameters: features over every attribute (the hypergraph reads them
        all), community embeddings and the three weights."""
        sales = sparse_sales_stack(rng, 2, n_c, n_a)[0]
        sales[:, 0] = 0  # an isolated attribute, encoded to a zero row
        left, right = enc.hypergraph_operator_factors(sales)
        a0, a1 = rows
        store = ad.ParameterStore()
        params = {name: store.register(name, rng.normal(size=shape)) for name, shape in (
            ("features", (n_a, d)), ("comm", (n_c, d)), ("agg", (d, d)),
            ("upd", (2 * d, d)), ("mix", (d, d)))}
        params["features"].value[0] = 0.0
        operators = {"aggregator": ad.constant(enc.neighbor_mean_matrix(sales)[a0:a1]),
                     "factors": (ad.constant(left[a0:a1]), ad.constant(right))}
        return store, params, operators

    def encodings(self, sage, hyper, rows, trained):
        rng = np.random.default_rng(60)
        store, p, ops = self.month(rng, rows)
        a0, a1 = rows
        features = p["features"]
        batch = ad.slice_block(features, rows, (0, features.cols))
        if not trained["features"]:
            batch = ad.constant(batch.value)
        comm = p["comm"] if trained["comm"] else ad.constant(p["comm"].value)
        outs = [sage(ops["aggregator"], comm, batch, p["agg"], p["upd"]),
                hyper(ops["factors"], features, p["mix"])]
        loss = ad.sum_all(ad.hadamard(outs[0], ad.constant(rng.normal(size=(a1 - a0, 5)))))
        loss = ad.add(loss, ad.sum_all(ad.hadamard(outs[1],
                                                   ad.constant(rng.normal(size=(a1 - a0, 5))))))
        ad.backward(loss)
        return [o.value for o in outs], {name: node.grad for name, node in store.items()}

    @pytest.mark.parametrize("rows", [(0, 9), (2, 6)], ids=["all", "batch"])
    @pytest.mark.parametrize("trained", [{"features": True, "comm": True},
                                         {"features": False, "comm": True},
                                         {"features": True, "comm": False}],
                             ids=["all-trained", "constant-features", "constant-communities"])
    def test_values_and_gradients_match_the_chains(self, rows, trained):
        got_values, got = self.encodings(enc.sage_encode, enc.hyperconv_encode, rows, trained)
        want_values, want = self.encodings(sage_encode_chain, hyperconv_encode_chain, rows,
                                           trained)
        for a, b in zip(got_values, want_values):
            assert a.tobytes() == b.tobytes()
        for name, g in want.items():
            scale = max(np.abs(g).max(), np.finfo(float).tiny)
            assert np.abs(got[name] - g).max() <= 1e-12 * scale, name
            assert got[name].any() == g.any(), name

    def test_over_constants_they_keep_no_graph(self):
        rng = np.random.default_rng(61)
        _, p, ops = self.month(rng, (0, 9))
        c = {name: ad.constant(node.value) for name, node in p.items()}
        for out in (enc.sage_encode(ops["aggregator"], c["comm"], c["features"], c["agg"],
                                    c["upd"]),
                    enc.hyperconv_encode(ops["factors"], c["features"], c["mix"])):
            assert out.parents == () and not out.needs_grad

    def test_each_keeps_only_what_its_backward_reads(self):
        """Bytes an encoding holds once its call returns, measured with
        tracemalloc: the hypergraph node its output, the bipartite node its
        output, the ReLU's one-byte mask and the row norms, each within 4 KB
        for the node and its rule."""
        rng = np.random.default_rng(62)
        n_a, d = 600, 32
        _, p, ops = self.month(rng, (0, n_a), n_a=n_a, n_c=5, d=d)
        tracemalloc.start()
        try:
            kept = []
            for encode in (lambda: enc.hyperconv_encode(ops["factors"], p["features"], p["mix"]),
                           lambda: enc.sage_encode(ops["aggregator"], p["comm"], p["features"],
                                                   p["agg"], p["upd"])):
                before = tracemalloc.get_traced_memory()[0]
                out = encode()
                kept.append(tracemalloc.get_traced_memory()[0] - before)
                assert out.needs_grad
                del out
        finally:
            tracemalloc.stop()
        floats = n_a * d * 8
        assert kept[0] <= floats + 4096, kept[0]
        assert kept[1] <= floats + n_a * d + n_a * 8 + 4096, kept[1]

    def test_shape_mismatch_names_the_shapes(self):
        rng = np.random.default_rng(63)
        _, p, ops = self.month(rng, (0, 9))
        with pytest.raises(ShapeMismatchError, match=r"\(4, 5\)"):
            enc.sage_encode(ops["aggregator"], ad.constant(np.zeros((4, 5))),
                            ad.constant(np.zeros((4, 5))), p["agg"], p["upd"])
        with pytest.raises(ShapeMismatchError, match=r"\(3, 5\)"):
            enc.hyperconv_encode(ops["factors"], ad.constant(np.zeros((3, 5))), p["mix"])
