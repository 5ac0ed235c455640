"""Per-month attribute embeddings from the two graph patterns.

Both graphs of a month are read off its communities x attributes sales
matrix S: S itself is the weighted adjacency of the bipartite graph, and
its support transposed, H = (S.T > 0), is the attributes x communities
incidence of the hypergraph with one hyperedge per community.  The
operators below are derived from S and passed to the encoders as
constants; each acts on the last two axes, so one call derives them for
every month of a months x communities x attributes sales tensor.

Both encoders take that month's attribute features as input (the model
passes its sales embedding), so an attribute's representation comes from
what it sold and to whom, never from a per-attribute parameter.  The
bipartite encoder aggregates static community embeddings into each
attribute (inductive GraphSage: sales-weighted mean over neighbors,
concatenated with the attribute's own features, then L2 normalization).
The hypergraph encoder applies the symmetrically normalized
node-hyperedge-node convolution of HGNN.  Community embeddings are
read-only in both encoders; only attribute representations evolve.

Each encoder is one autodiff node with a hand-written backward, as the
recurrent rollouts in ``temporal`` are, and not a chain of matmul, ReLU
and normalization nodes: the model encodes every month of its window, and
the chain kept each product for a backward rule that never reads it.  The
bipartite node keeps its output, the row norms and the ReLU's sign (one
byte per entry), and rebuilds the neighbor mean in backward with one matrix
product; the hypergraph node keeps its output alone.  Values equal the
chain's bit for bit, and the tests keep the chain as the oracle.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node
from .errors import ShapeMismatchError


def neighbor_mean_matrix(sales: np.ndarray) -> np.ndarray:
    """Attribute x community averaging operator weighted by edge sales.

    ``sales`` is one month's communities x attributes matrix, or a stack of
    them; row j of the result holds S[k, j] / sum_k S[k, j] at each neighbor
    k.  Isolated attributes get an all-zero row, so their aggregated neighbor
    vector is zero.
    """
    out = np.swapaxes(sales, -1, -2).copy()
    totals = out.sum(axis=-1, keepdims=True)
    np.divide(out, totals, out=out, where=totals > 0)
    return out


def sage_encode(aggregator: Node, community_embed: Node, attribute_features: Node,
                w_agg: Node, w_update: Node) -> Node:
    """Bipartite attribute encoding with aggregation and update weights.

    ``aggregator`` is the month's ``neighbor_mean_matrix`` as a constant.
    The sales-weighted mean of neighbor community embeddings (times
    ``w_agg``) is concatenated with ``attribute_features``; ``w_update`` and
    ReLU map that to the encoding, whose rows are L2-normalized (all-zero
    rows stay zero, and backward treats them as an identity map).

    One autodiff node: the arithmetic is that of the composed chain
    ``normalize(relu(concat(X, A @ (E @ w_agg)) @ w_update))``, operation
    for operation, so values equal the chain's bit for bit.  For backward it
    keeps its output, the row norms and the ReLU's sign as a one-byte mask.
    The concatenation lives only during the forward, and backward rebuilds
    the neighbor mean with the forward's product for the ``w_update``
    gradient.  Over constants it keeps none of these and builds no graph.
    """
    x = attribute_features
    rows, split = x.value.shape
    if (aggregator.value.shape != (rows, community_embed.rows)
            or w_agg.rows != community_embed.cols
            or w_update.rows != split + w_agg.cols):
        raise ShapeMismatchError(
            f"sage_encode: shapes {aggregator.value.shape}, {community_embed.value.shape}, "
            f"{x.value.shape}, {w_agg.value.shape} and {w_update.value.shape} do not conform")
    params = (aggregator, community_embed, x, w_agg, w_update)
    train = any(p.needs_grad for p in params)

    def neighbor_mean() -> np.ndarray:
        return aggregator.value @ (community_embed.value @ w_agg.value)

    value = np.hstack([x.value, neighbor_mean()]) @ w_update.value
    np.maximum(value, 0.0, out=value)
    mask = value > 0.0 if train else None
    norms = np.sqrt((value * value).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    value /= safe
    if not train:
        return Node(value, op="sage_encode")
    from_neighbor = community_embed.needs_grad or w_agg.needs_grad

    def backward(g: np.ndarray) -> None:
        inner = (g * value).sum(axis=1, keepdims=True)
        gz = (g - value * inner) / safe
        np.multiply(gz, mask, out=gz)
        if x.needs_grad or from_neighbor:
            gc = gz @ w_update.value.T
            if x.needs_grad:
                x.accumulate_grad(gc[:, :split])
            if from_neighbor:
                gp = aggregator.value.T @ np.ascontiguousarray(gc[:, split:])
                del gc
                if community_embed.needs_grad:
                    community_embed.accumulate_owned(gp @ w_agg.value.T)
                if w_agg.needs_grad:
                    w_agg.accumulate_owned(community_embed.value.T @ gp)
        if w_update.needs_grad:  # the neighbor mean is rebuilt, not kept
            w_update.accumulate_owned(np.vstack([x.value.T @ gz, neighbor_mean().T @ gz]))

    return Node(value, op="sage_encode", parents=params, backward=backward)


def hypergraph_operator_factors(sales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factored propagation operator (left, right) of one month's sales matrix,
    or of each matrix in a stack, with left @ right equal to
    Dv^-1/2 H W De^-1 H^T Dv^-1/2.

    H = (S.T > 0) is the incidence, every hyperedge weight W is 1, Dv counts
    the hyperedges at each attribute and De the attributes in each
    hyperedge.  Zero-degree vertices and hyperedges contribute zero instead
    of dividing by zero, which leaves isolated vertices at exactly zero
    after ReLU.
    """
    incidence = (np.swapaxes(sales, -1, -2) > 0).astype(np.float64)
    vertex_degrees = incidence.sum(axis=-1)
    edge_degrees = incidence.sum(axis=-2)
    d_inv_sqrt = np.zeros_like(vertex_degrees)
    nz_v = vertex_degrees > 0
    d_inv_sqrt[nz_v] = 1.0 / np.sqrt(vertex_degrees[nz_v])
    b_inv = np.zeros_like(edge_degrees)
    nz_e = edge_degrees > 0
    b_inv[nz_e] = 1.0 / edge_degrees[nz_e]
    left = d_inv_sqrt[..., :, None] * incidence
    right = b_inv[..., :, None] * np.swapaxes(incidence, -1, -2) * d_inv_sqrt[..., None, :]
    return left, right


def hyperconv_encode(factors: tuple[Node, Node], attribute_features: Node, mix: Node) -> Node:
    """Hypergraph attribute encoding: relu(left @ (right @ (X @ mix))).

    ``factors`` holds the month's ``hypergraph_operator_factors`` as
    constants, ``left`` cut to the rows of the attributes to encode.
    ``attribute_features`` X covers every attribute, because ``right`` reads
    them all.

    One autodiff node with the chain's arithmetic in the chain's order.  It
    keeps only its output, whose positive entries are the ReLU's mask, and
    reads X, ``mix`` and the factors from its parents during backward.
    """
    left, right = factors
    x = attribute_features
    if (left.cols != right.rows or right.cols != x.rows or x.cols != mix.rows):
        raise ShapeMismatchError(
            f"hyperconv_encode: shapes {left.value.shape}, {right.value.shape}, "
            f"{x.value.shape} and {mix.value.shape} do not conform")
    value = left.value @ (right.value @ (x.value @ mix.value))
    np.maximum(value, 0.0, out=value)

    def backward(g: np.ndarray) -> None:
        g_xm = right.value.T @ (left.value.T @ (g * (value > 0.0)))
        if x.needs_grad:
            x.accumulate_owned(g_xm @ mix.value.T)
        if mix.needs_grad:
            mix.accumulate_owned(x.value.T @ g_xm)

    return Node(value, op="hyperconv_encode", parents=(left, right, x, mix), backward=backward)
