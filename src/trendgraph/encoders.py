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
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node


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
    ReLU map that to the encoding, whose rows are L2-normalized.
    """
    neighbor = ad.matmul(aggregator, ad.matmul(community_embed, w_agg))
    return ad.row_l2_normalize(ad.relu(ad.matmul(ad.concat_cols(attribute_features, neighbor),
                                                 w_update)))


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
    """
    left, right = factors
    return ad.relu(ad.matmul(left, ad.matmul(right, ad.matmul(attribute_features, mix))))
