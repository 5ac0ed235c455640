"""Temporal head: sales embedding, recurrent evolution, AR forecast.

Per time step the model embeds that month's sales with a width-3
convolution over the community axis (``model.forward`` fuses it with the
two graph embeddings), and rolls two recurrent cells: a vanilla GRU and a
skip GRU whose state reaches back ``p`` steps to track periodic patterns.
A linear autoregressive term over each pair's scaled sales history, with
lag weights that every pair shares (LSTNet's highway term), supplies a
forecast added inside the final score.

Each recurrent cell is rolled out as one autodiff node with a hand-written
backward (``_rollout``), not as a chain of about 19 elementwise nodes per
month.  Its parents are the month inputs and the cell's nine weights.  Per
month it keeps the state and three gate values; backward rebuilds the
candidate's state term h W_hc + b_c with one matrix product rather than
keeping a fourth buffer.  Since the skip cell's state at month t reads only
month t - p, its p interleaved chains are independent, so each block of p
consecutive months advances as one stacked step: 4 sequential steps instead
of 12 at p = 3.  When neither the inputs nor the weights need a gradient
(prediction, validation), the rollout keeps no gate values and builds no
graph.

Neither cell reads the other, so ``model.forward`` rolls them as two parts
of one ``autodiff.fork``: when BLAS leaves a CPU free, the skip cell rolls
forward and backward on the autodiff worker thread while the caller rolls
the vanilla one.  Results are byte-identical with or without the worker,
and BLAS stays at one thread.

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
    """The global sales transform: log(1 + x), elementwise on any shape.
    Inverse is expm1."""
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
    """Stacked convolution windows for every attribute of a scaled sales matrix,
    or of each matrix in a stack.

    Input is communities x attributes; output stacks each attribute's
    community-axis windows vertically: (attributes * positions) x width,
    plus the position count, so one matmul against the kernel covers the
    whole month.  Community axes shorter than the kernel are left-padded
    with zeros.
    """
    *months, n_c, n_a = scaled.shape
    if n_c < CONV_WIDTH:
        scaled = np.concatenate([np.zeros((*months, CONV_WIDTH - n_c, n_a)), scaled], axis=-2)
        n_c = CONV_WIDTH
    positions = n_c - CONV_WIDTH + 1
    windows = np.lib.stride_tricks.sliding_window_view(scaled, CONV_WIDTH, axis=-2)
    patches = np.swapaxes(windows, -3, -2).reshape(*months, n_a * positions, CONV_WIDTH)
    return np.ascontiguousarray(patches), positions


def embed_sales_batch(patches: Node, positions: int, kernel: Node, bias: Node) -> Node:
    """Sales embedding of every attribute whose windows ``patches`` stacks.

    Per attribute: width-3 valid convolution with d filters, ReLU, then the
    mean over positions, giving one d-vector per attribute.  The model embeds
    the whole catalog, because the hypergraph encoder reads every attribute.
    """
    return ad.affine_relu_block_mean(patches, kernel, bias, positions)


def gru_rollout(inputs: list[Node], w: GruWeights) -> list[Node]:
    """Vanilla recurrence from a zero initial state; returns all hidden states."""
    return _rollout(inputs, w, 1)


def skip_gru_rollout(inputs: list[Node], w: GruWeights, skip: int) -> list[Node]:
    """Recurrence whose state reaches ``skip`` steps back; early steps use zeros."""
    if skip < 1:
        raise ValueError(f"skip must be >= 1, got {skip}")
    return _rollout(inputs, w, skip)


def _rollout(inputs: list[Node], w: GruWeights, skip: int) -> list[Node]:
    """States h_t = cell(x_t, h_{t-skip}) of one gated recurrent cell, h_t = 0
    for t < 0, as a single autodiff node with a hand-written backward.

    Per step, reset and update gates are sigmoids of affine maps of input
    and state; the candidate applies the reset gate to the state
    contribution only, and the output interpolates candidate and previous
    state by the update gate:

        r = sigmoid((x W_xr + h W_hr) + b_r)
        z = sigmoid((x W_xu + h W_hu) + b_u)
        n = tanh(x W_xc + r * (h W_hc + b_c))
        h' = n + z * (h - n)

    in exactly this order of operations.  Step t reads only step t - skip,
    so each block of ``skip`` consecutive steps is stacked and advanced as
    one (k * rows) x d step.  The states live in one (steps * rows) x d
    buffer; the returned per-step nodes are views of its row blocks.  When
    nothing needs a gradient, neither gate values nor a graph are kept.
    Otherwise each block keeps r, z and n.  Backward rebuilds the state
    term q = h W_hc + b_c and the stacked inputs with the forward's own
    operations rather than keeping them, and writes the block's gradients
    into its gate buffers once it has read them: a block allocates three
    new buffers of its size besides its stacked inputs and their gradient.
    """
    if not inputs:
        raise ValueError("a recurrent rollout needs at least one step")
    rows, width = inputs[0].value.shape
    hidden = w.w_hr.cols
    expected = [((width, hidden), w.w_xr, w.w_xu, w.w_xc),
                ((hidden, hidden), w.w_hr, w.w_hu, w.w_hc),
                ((1, hidden), w.b_r, w.b_u, w.b_c)]
    bad = [x.value.shape for x in inputs if x.value.shape != (rows, width)]
    bad += [p.value.shape for shape, *group in expected for p in group if p.value.shape != shape]
    if bad:
        raise ShapeMismatchError(
            f"gru rollout: inputs of shape {(rows, width)} with state width {hidden} "
            f"do not conform to shapes {bad}")
    steps = len(inputs)
    states = np.empty((steps * rows, hidden))
    weights = (w.w_xr, w.w_hr, w.b_r, w.w_xu, w.w_hu, w.b_u, w.w_xc, w.w_hc, w.b_c)
    train = any(p.needs_grad for p in (*inputs, *weights))

    def block(t0: int, k: int) -> slice:
        """Rows of the k steps from t0 in the stacked buffers."""
        return slice(t0 * rows, (t0 + k) * rows)

    def stacked_inputs(t0: int, k: int) -> np.ndarray:
        """The inputs of the k steps from t0, one above the other."""
        return inputs[t0].value if k == 1 else np.vstack([x.value for x in inputs[t0:t0 + k]])

    cache = []
    for t0 in range(0, steps, skip):
        k = min(skip, steps - t0)
        x = stacked_inputs(t0, k)
        h = states[block(t0 - skip, k)] if t0 else None
        r = x @ w.w_xr.value
        z = x @ w.w_xu.value
        n = x @ w.w_xc.value
        del x
        if h is not None:
            q = h @ w.w_hr.value  # one buffer serves the three state products
            r += q
            np.matmul(h, w.w_hu.value, out=q)
            z += q
            np.matmul(h, w.w_hc.value, out=q)
            q += w.b_c.value
        r += w.b_r.value
        z += w.b_u.value
        r = ad.logistic(r)
        z = ad.logistic(z)
        if h is None:  # the zero initial state: its products would add zeros
            q = r * w.b_c.value
        else:
            q *= r
        n += q
        del q
        np.tanh(n, out=n)
        out = states[block(t0, k)]
        if h is None:
            np.negative(n, out=out)
        else:
            np.subtract(h, n, out=out)
        out *= z
        out += n
        if train:
            cache.append((t0, k, h, r, z, n))
    if not train:
        return [Node(states[block(t, 1)], op="gru_state") for t in range(steps)]

    def backward(g: np.ndarray) -> None:
        # g is this node's own gradient buffer; each block adds the gradient
        # of the states it read into it in place, so blocks run in reverse
        grads = {id(p): np.zeros_like(p.value) for p in weights if p.needs_grad}

        def add_grad(p: Node, value: np.ndarray) -> None:
            if p.needs_grad:
                grads[id(p)] += value

        while cache:  # newest block first; each block's gate values are freed once read
            t0, k, h, r, z, n = cache.pop()
            dh = g[block(t0, k)]
            # the candidate's state term, rebuilt as the forward computed it
            if h is None:
                q = np.repeat(w.b_c.value, len(r), axis=0)
            else:
                q = h @ w.w_hc.value
                q += w.b_c.value
            # d_n and d_z are the block's new buffers; the other gradients
            # overwrite values that nothing reads any more: d_r goes into q,
            # d_q into n and dh * z into z, and r holds the products below
            d_n = np.subtract(1.0, z)
            d_z = np.negative(n) if h is None else np.subtract(h, n)
            d_z *= dh
            np.multiply(n, n, out=n)
            np.subtract(1.0, n, out=n)
            np.multiply(dh, d_n, out=d_n)
            d_n *= n
            np.subtract(1.0, z, out=n)
            np.multiply(z, n, out=n)
            d_z *= n
            np.subtract(1.0, r, out=n)
            np.multiply(r, n, out=n)
            np.multiply(d_n, q, out=q)
            q *= n
            d_r, d_q, spare = q, np.multiply(d_n, r, out=n), r
            del q, n, r
            add_grad(w.b_r, d_r.sum(axis=0))
            add_grad(w.b_u, d_z.sum(axis=0))
            add_grad(w.b_c, d_q.sum(axis=0))
            x = stacked_inputs(t0, k)  # stacked again: a kept copy would double the inputs
            add_grad(w.w_xr, x.T @ d_r)
            add_grad(w.w_xu, x.T @ d_z)
            add_grad(w.w_xc, x.T @ d_n)
            del x
            stacked = inputs[t0:t0 + k]
            if any(node.needs_grad for node in stacked):
                d_x = d_r @ w.w_xr.value.T
                fits = spare if spare.shape == d_x.shape else None
                d_x += np.matmul(d_z, w.w_xu.value.T, out=fits)
                d_x += np.matmul(d_n, w.w_xc.value.T, out=fits)
                for j, node in enumerate(stacked):
                    if node.needs_grad:  # disjoint row blocks of a fresh array
                        node.accumulate_owned(d_x[block(j, 1)])
            if h is not None:
                add_grad(w.w_hr, h.T @ d_r)
                add_grad(w.w_hu, h.T @ d_z)
                add_grad(w.w_hc, h.T @ d_q)
                d_h = np.matmul(d_r, w.w_hr.value.T, out=d_n)
                d_h += np.matmul(d_z, w.w_hu.value.T, out=spare)
                d_h += np.matmul(d_q, w.w_hc.value.T, out=spare)
                d_h += np.multiply(dh, z, out=z)
                g[block(t0 - skip, k)] += d_h
                del d_h
            # free this block's buffers before the next block makes its own
            del d_n, d_r, d_z, d_q, z, spare
        # keyed by identity: a node passed for two weights gets both gradients
        for p in {id(p): p for p in weights if p.needs_grad}.values():
            p.accumulate_owned(grads[id(p)])

    core = Node(states, op="gru_rollout", parents=(*inputs, *weights), backward=backward)

    def state(t: int) -> Node:
        def backward(g: np.ndarray) -> None:
            core.grad[block(t, 1)] += g

        return Node(states[block(t, 1)], op="gru_state", parents=(core,), backward=backward)

    return [state(t) for t in range(steps)]


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
    """Linear forecast of every pair from its own scaled sales history.

    Each lag has one 1x1 coefficient, aligned with the history entry of the
    same index and shared by all pairs; the scalar bias broadcasts as well.
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
