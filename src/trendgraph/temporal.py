"""Temporal head: sales embedding, recurrent evolution, AR forecast.

Per time step the model embeds that month's sales with a width-3
convolution over the community axis (``model.forward`` fuses it with the
two graph embeddings), and rolls two recurrent cells: a vanilla GRU and a
skip GRU whose state reaches back ``p`` steps to track periodic patterns.
A linear autoregressive term over the scaled sales history supplies a
per-pair forecast added inside the final score.

Sales counts are log(1+x) scaled before the convolution and the AR term;
label computation elsewhere always uses raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ShapeMismatchError

CONV_WIDTH = 3


def scale_sales(raw: np.ndarray) -> np.ndarray:
    """The global sales transform: log(1 + x). Inverse is expm1."""
    return np.log1p(raw)


@dataclass
class GruWeights:
    """One recurrent cell's parameters; the two cells never share these."""

    w_xr: Node
    w_hr: Node
    b_r: Node
    w_xu: Node
    w_hu: Node
    b_u: Node
    w_xc: Node
    w_hc: Node
    b_c: Node


def sales_patch_matrix(scaled: np.ndarray) -> tuple[np.ndarray, int]:
    """Stacked convolution windows for every attribute of a scaled sales matrix.

    Input is communities x attributes; output stacks each attribute's
    community-axis windows vertically: (attributes * positions) x width,
    plus the position count, so one matmul against the kernel covers the
    whole month.  Community axes shorter than the kernel are left-padded
    with zeros.
    """
    n_c, n_a = scaled.shape
    if n_c < CONV_WIDTH:
        scaled = np.vstack([np.zeros((CONV_WIDTH - n_c, n_a)), scaled])
        n_c = CONV_WIDTH
    positions = n_c - CONV_WIDTH + 1
    windows = np.lib.stride_tricks.sliding_window_view(scaled, CONV_WIDTH, axis=0)
    patches = windows.transpose(1, 0, 2).reshape(n_a * positions, CONV_WIDTH)
    return np.ascontiguousarray(patches), positions


def embed_sales_batch(patches: Node, positions: int, kernel: Node, bias: Node) -> Node:
    """Sales embedding of every attribute whose windows ``patches`` stacks.

    Per attribute: width-3 valid convolution with d filters, ReLU, then the
    mean over positions, giving one d-vector per attribute.  The model embeds
    the whole catalog, because the hypergraph encoder reads every attribute.
    """
    return ad.affine_relu_block_mean(patches, kernel, bias, positions)


def gru_cell(x: Node, h_prev: Node, w: GruWeights) -> Node:
    """One gated recurrent step.

    reset and update gates are sigmoids of affine maps of input and state;
    the candidate applies the reset gate to the state contribution only,
    and the output interpolates candidate and previous state by the update
    gate.
    """
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xr), ad.matmul(h_prev, w.w_hr)), w.b_r))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w.w_xu), ad.matmul(h_prev, w.w_hu)), w.b_u))
    n = ad.tanh(ad.add(ad.matmul(x, w.w_xc),
                       ad.hadamard(r, ad.add(ad.matmul(h_prev, w.w_hc), w.b_c))))
    return ad.add(n, ad.hadamard(z, ad.sub(h_prev, n)))


def gru_rollout(inputs: list[Node], w: GruWeights) -> list[Node]:
    """Vanilla recurrence from a zero initial state; returns all hidden states."""
    states: list[Node] = []
    zero = ad.constant(np.zeros(inputs[0].value.shape))
    h = zero
    for x in inputs:
        h = gru_cell(x, h, w)
        states.append(h)
    return states


def skip_gru_rollout(inputs: list[Node], w: GruWeights, skip: int) -> list[Node]:
    """Recurrence whose state reaches ``skip`` steps back; early steps use zeros."""
    if skip < 1:
        raise ValueError(f"skip must be >= 1, got {skip}")
    states: list[Node] = []
    zero = ad.constant(np.zeros(inputs[0].value.shape))
    for t, x in enumerate(inputs):
        h_prev = states[t - skip] if t >= skip else zero
        states.append(gru_cell(x, h_prev, w))
    return states


def combine_recurrent(recent: Node, skip_history: list[Node | None],
                      w_recent: Node, w_skips: list[Node], bias: Node) -> Node:
    """Blend the vanilla GRU output with trailing skip-GRU states.

    ``skip_history`` lists the skip states one step back, two steps back,
    ... (p - 1 entries); missing early slots may be None and contribute
    nothing.
    """
    if len(skip_history) != len(w_skips):
        raise ShapeMismatchError(
            f"combine_recurrent: {len(skip_history)} skip states vs {len(w_skips)} weights")
    out = ad.matmul(recent, w_recent)
    for state, weight in zip(skip_history, w_skips):
        if state is not None:
            out = ad.add(out, ad.matmul(state, weight))
    return ad.add(out, bias)


def autoregressive(scaled_history: list[Node], coefficients: list[Node], bias: Node) -> Node:
    """Per-pair linear forecast over the scaled sales history.

    Each lag has its own coefficient matrix aligned with the history entry
    of the same index; the scalar bias broadcasts over all pairs.
    """
    if len(scaled_history) != len(coefficients):
        raise ShapeMismatchError(
            f"autoregressive: history length {len(scaled_history)} vs "
            f"{len(coefficients)} coefficient lags")
    if not scaled_history:
        raise ValueError("autoregressive needs at least one lag")
    total: Node | None = None
    for sales, coeff in zip(scaled_history, coefficients):
        term = ad.hadamard(coeff, sales)
        total = term if total is None else ad.add(total, term)
    return ad.add(total, bias)
