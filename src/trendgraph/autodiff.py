"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything trainable in this package flows through here: compute nodes with
backward closures, reverse-topological gradient accumulation, Adam, and the
parameter store with its text checkpoint format.

All values are 2-D C-contiguous float64 arrays.  Forward evaluation is
eager and deterministic: identical inputs produce bit-identical outputs.
Gradients accumulate additively; callers zero them between optimizer steps.
``backward`` consumes the graph it walks: only parameters keep a gradient.

When BLAS leaves a usable CPU free (at least 2 CPUs, BLAS pinned to fewer
threads than that), one worker thread runs beside the caller, and ``fork``
is the one way to use it: independent parts of a graph run half on the
caller and half on the worker, forward and backward.  numpy releases the
interpreter lock inside matrix products and elementwise loops, so the two
overlap.  BLAS stays at the thread count the process set: 1 for the
recorded scores and timings.  ``backward`` itself is a sequential walk, and
``fork`` adds its parts' gradients in part order, so results are
byte-identical with and without the worker.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

Matrix = np.ndarray

CHECKPOINT_MAGIC = "DYTG1"

T = TypeVar("T")
S = TypeVar("S")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads(environ) -> int | None:
    """The BLAS thread count that ``environ`` sets, or None when it sets none.

    OpenBLAS runs as many threads as the first of these variables that holds
    a positive count, at most one per CPU, and one per CPU when none does.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def _cpu_left_by_blas(cpus: int, threads: int | None) -> bool:
    """Whether BLAS at ``threads`` threads (None: one per CPU) leaves a CPU free."""
    return threads is not None and threads < cpus


# read once, on import: OpenBLAS fixed its thread count when numpy loaded
BLAS_THREADS = blas_threads(os.environ)

# A worker thread pays only on a CPU that nothing else uses: on one CPU it
# adds interpreter-lock hand-offs, and next to a BLAS thread on every CPU it
# competes with BLAS threads waiting for work.  The executor starts its
# thread on the first submit, not on import.
_WORKER = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="trendgraph-worker")
           if _cpu_left_by_blas(_usable_cpus(), BLAS_THREADS) else None)


def _run_beside(main: Callable[[], T], side: Callable[[], S]) -> tuple[T, S]:
    """``(main(), side())``, with ``side`` on the worker thread while ``main``
    runs on the caller; without a worker both run on the caller.

    The two must not read each other's results.  The call returns or raises
    only once both have finished, so no task outlives it; an exception from
    ``main`` takes precedence over one from ``side``.
    """
    if _WORKER is None:
        return main(), side()
    future = _WORKER.submit(side)
    try:
        first = main()
    finally:
        wait((future,))
    return first, future.result()


def as_matrix(data) -> Matrix:
    """Coerce to a contiguous 2-D float64 array; scalars and 1-D become one row."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Node:
    """One vertex of the compute DAG: a matrix value plus a gradient slot.

    The gradient buffer is allocated lazily (most constants never need one)
    and always matches the value's shape.  ``needs_grad`` marks whether any
    trainable parameter is reachable through ``parents``; backward traversal
    prunes everything else.  A node that needs no gradient keeps neither its
    parents nor its backward rule, so a forward over constants builds no
    graph and frees each intermediate once nothing downstream reads it.
    """

    __slots__ = ("value", "op", "parents", "trainable", "needs_grad", "name",
                 "_grad", "_backward")

    def __init__(self, value: Matrix, op: str = "leaf", parents: tuple = (),
                 backward: Callable[[Matrix], None] | None = None,
                 trainable: bool = False, name: str = ""):
        self.needs_grad = trainable or any(p.needs_grad for p in parents)
        if not self.needs_grad:
            parents, backward = (), None
        self.value = value
        self.op = op
        self.parents = parents
        self.trainable = trainable
        self.name = name
        self._grad = None
        self._backward = backward

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def grad(self) -> Matrix:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def accumulate_grad(self, g: Matrix) -> None:
        if self._grad is None:
            self._grad = g.copy()
        else:
            self._grad += g

    def accumulate_owned(self, g: Matrix) -> None:
        # for freshly allocated arrays only; aliasing a view here would let a
        # later accumulation corrupt another node's gradient
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.name or self.op
        return f"<Node {tag} {self.value.shape[0]}x{self.value.shape[1]}>"


def constant(data, name: str = "") -> Node:
    """Leaf node with no gradient path."""
    value = as_matrix(data)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"constant '{name}' contains non-finite entries")
    return Node(value, op="const", name=name)


def parameter(data, name: str = "") -> Node:
    """Trainable leaf node."""
    value = as_matrix(data)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"parameter '{name}' contains non-finite entries")
    return Node(value, op="param", trainable=True, name=name)


def matmul(a: Node, b: Node) -> Node:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"matmul: shapes {a.value.shape} and {b.value.shape} do not conform")
    value = a.value @ b.value

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(g @ b.value.T)
        if b.needs_grad:
            b.accumulate_owned(a.value.T @ g)

    return Node(value, op="matmul", parents=(a, b), backward=backward)


def _broadcast_binary(a: Node, b: Node, op: str):
    """Classify an elementwise pair: same shape, or one operand 1x1 / 1xm."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return "full", "full"
    if sb == (1, 1):
        return "full", "scalar"
    if sb == (1, sa[1]):
        return "full", "row"
    if sa == (1, 1):
        return "scalar", "full"
    if sa == (1, sb[1]):
        return "row", "full"
    raise ShapeMismatchError(f"{op}: shapes {sa} and {sb} do not conform")


def _reduce_to(g: Matrix, kind: str) -> Matrix:
    if kind == "full":
        return g
    if kind == "row":
        return g.sum(axis=0, keepdims=True)
    return g.sum().reshape(1, 1)


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; a 1x1 or 1xm operand broadcasts over rows."""
    ka, kb = _broadcast_binary(a, b, "add")
    value = a.value + b.value

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            if ka == "full":
                a.accumulate_grad(g)
            else:
                a.accumulate_owned(_reduce_to(g, ka))
        if b.needs_grad:
            if kb == "full":
                b.accumulate_grad(g)
            else:
                b.accumulate_owned(_reduce_to(g, kb))

    return Node(value, op="add", parents=(a, b), backward=backward)


def hadamard(a: Node, b: Node) -> Node:
    """Elementwise product; a 1x1 or 1xm operand broadcasts over rows."""
    ka, kb = _broadcast_binary(a, b, "hadamard")
    value = a.value * b.value

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(_reduce_to(g * b.value, ka))
        if b.needs_grad:
            b.accumulate_owned(_reduce_to(g * a.value, kb))

    return Node(value, op="hadamard", parents=(a, b), backward=backward)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)
    value = a.value * factor

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(g * factor)

    return Node(value, op="scale", parents=(a,), backward=backward)


def transpose(a: Node) -> Node:
    value = np.ascontiguousarray(a.value.T)

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_grad(g.T)

    return Node(value, op="transpose", parents=(a,), backward=backward)


def concat_cols(a: Node, b: Node) -> Node:
    if a.rows != b.rows:
        raise ShapeMismatchError(f"concat_cols: shapes {a.value.shape} and {b.value.shape} do not conform")
    value = np.hstack([a.value, b.value])
    split = a.cols

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_grad(g[:, :split])
        if b.needs_grad:
            b.accumulate_grad(g[:, split:])

    return Node(value, op="concat_cols", parents=(a, b), backward=backward)


def logistic(x: Matrix) -> Matrix:
    """The logistic function 1 / (1 + exp(-x)), computed without overflow.

    This is ``where(x >= 0, 1, e) / (1 + e)`` with ``e = exp(-|x|)``, bit for
    bit: ``e`` lies in [0, 1] and a NaN propagates through the maximum.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0
    np.maximum(e, x >= 0, out=e)
    e /= denominator
    return e


def sigmoid(a: Node) -> Node:
    value = logistic(a.value)

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(g * value * (1.0 - value))

    return Node(value, op="sigmoid", parents=(a,), backward=backward)


def relu(a: Node) -> Node:
    value = np.maximum(a.value, 0.0)

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(g * (a.value > 0.0))

    return Node(value, op="relu", parents=(a,), backward=backward)


def row_l2_normalize(a: Node) -> Node:
    """Scale each row to unit Euclidean norm; all-zero rows pass through.

    Backward treats zero rows as an identity map (the normalization is not
    differentiable at the origin, and zero rows stay zero in the forward).
    """
    x = a.value
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    value = x / safe

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            inner = (g * value).sum(axis=1, keepdims=True)
            a.accumulate_owned((g - value * inner) / safe)

    return Node(value, op="row_l2_normalize", parents=(a,), backward=backward)


def slice_block(a: Node, rows: tuple[int, int], cols: tuple[int, int]) -> Node:
    """The window ``[r0:r1, c0:c1]`` of ``a``; a window covering ``a`` is ``a`` itself."""
    r0, r1 = rows
    c0, c1 = cols
    if not (0 <= r0 < r1 <= a.rows and 0 <= c0 < c1 <= a.cols):
        raise ShapeMismatchError(
            f"slice_block: window rows={rows} cols={cols} outside shape {a.value.shape}")
    if (r1 - r0, c1 - c0) == a.value.shape:
        return a
    value = np.ascontiguousarray(a.value[r0:r1, c0:c1])

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            full = np.zeros_like(a.value)
            full[r0:r1, c0:c1] = g
            a.accumulate_owned(full)

    return Node(value, op="slice", parents=(a,), backward=backward)


def sum_all(a: Node) -> Node:
    value = np.array([[a.value.sum()]])

    def backward(g: Matrix) -> None:
        if a.needs_grad:
            a.accumulate_owned(np.full_like(a.value, g[0, 0]))

    return Node(value, op="sum", parents=(a,), backward=backward)


# Rows of relu(x @ w + b) that affine_relu_block_mean holds as floats at once:
# 1 MB at width 64.  On the 40-community benchmark data, blocks of 1024 or
# 4096 rows encoded a window's months more slowly than blocks of 2048.
AFFINE_CHUNK_ROWS = 2048


def affine_relu_block_mean(x: Node, w: Node, b: Node, block: int) -> Node:
    """Mean over consecutive row blocks of relu(x @ w + b): (n*block) rows become n.

    The arithmetic is that of ``relu(add(matmul(x, w), b))`` followed by a
    block mean, operation for operation, so values and gradients equal the
    chain's bit for bit.  The forward maps about ``AFFINE_CHUNK_ROWS`` rows
    at a time, whole row blocks each time, in one reused float buffer, and
    backward keeps only the ReLU's sign as a one-byte mask.
    """
    if x.cols != w.rows or b.value.shape != (1, w.cols):
        raise ShapeMismatchError(
            f"affine_relu_block_mean: shapes {x.value.shape}, {w.value.shape} and "
            f"{b.value.shape} do not conform")
    if block < 1 or x.rows % block != 0:
        raise ShapeMismatchError(
            f"affine_relu_block_mean: row count {x.rows} not divisible by block {block}")
    n, d = x.rows // block, w.cols
    train = x.needs_grad or w.needs_grad or b.needs_grad
    value = np.empty((n, d))
    mask = np.empty((x.rows, d), dtype=bool) if train else None
    step = max(1, AFFINE_CHUNK_ROWS // block)
    buffer = np.empty((min(step, n) * block, d))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        rows = slice(i0 * block, i1 * block)
        z = buffer[:(i1 - i0) * block]
        np.matmul(x.value[rows], w.value, out=z)
        z += b.value
        np.maximum(z, 0.0, out=z)
        z.reshape(i1 - i0, block, d).mean(axis=1, out=value[i0:i1])
        if train:
            np.greater(z, 0.0, out=mask[rows])
    if not train:
        return Node(value, op="affine_relu_block_mean")

    def backward(g: Matrix) -> None:
        gz = np.repeat(g / block, block, axis=0)
        np.multiply(gz, mask, out=gz)
        if x.needs_grad:
            x.accumulate_owned(gz @ w.value.T)
        if w.needs_grad:
            w.accumulate_owned(x.value.T @ gz)
        if b.needs_grad:
            b.accumulate_owned(gz.sum(axis=0, keepdims=True))

    return Node(value, op="affine_relu_block_mean", parents=(x, w, b), backward=backward)


def masked_bce(scores: Node, labels: Matrix, mask: Matrix, eps: float = 1e-7) -> Node:
    """Binary cross-entropy summed over masked entries, scores clamped to [eps, 1-eps].

    ``labels`` and ``mask`` are plain arrays (no gradient path).  Entries
    where the clamp is active get zero gradient, matching the flat loss there.
    """
    if scores.value.shape != labels.shape or scores.value.shape != mask.shape:
        raise ShapeMismatchError(
            f"masked_bce: scores {scores.value.shape}, labels {labels.shape}, mask {mask.shape}")
    clamped = np.clip(scores.value, eps, 1.0 - eps)
    terms = labels * np.log(clamped) + (1.0 - labels) * np.log1p(-clamped)
    value = np.array([[-(mask * terms).sum()]])
    interior = (scores.value > eps) & (scores.value < 1.0 - eps)

    def backward(g: Matrix) -> None:
        if scores.needs_grad:
            d = mask * interior * (clamped - labels) / (clamped * (1.0 - clamped))
            scores.accumulate_owned(g[0, 0] * d)

    return Node(value, op="masked_bce", parents=(scores,), backward=backward)


def _topo_order(roots: Sequence[Node]) -> list[Node]:
    """Iterative post-order over the needs-grad subgraph below ``roots``;
    every node comes after all of its parents.

    Raises ``RuntimeError`` on reaching an interior node whose rule an
    earlier ``backward`` has already fired and released.
    """
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is None and not node.trainable:
            raise RuntimeError(
                f"backward: node '{node.name or node.op}' was released by an earlier "
                f"backward; run the forward again to rebuild the graph")
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.needs_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(param) into every reachable parameter's gradient,
    consuming the graph.

    Requires a 1x1 loss.  Each interior node's backward rule fires exactly
    once, then releases: in reverse topological order, the node drops its
    gradient, its rule and its parents, so each intermediate value is freed
    once no pending rule reads it.  Parameters keep their gradients.  A
    second backward over a released graph raises ``RuntimeError``.  The walk
    is sequential; only the rule of a ``fork`` uses the worker thread.
    """
    if loss.value.shape != (1, 1):
        raise ShapeMismatchError(f"backward: loss must be 1x1, got shape {loss.value.shape}")
    if loss.needs_grad:
        _propagate((loss,), (np.ones((1, 1)),))


def _propagate(roots: Sequence[Node], grads: Sequence[Matrix]) -> None:
    """Fire every rule below ``roots``, each root seeded with its gradient."""
    order = _topo_order(roots)
    for root, grad in zip(roots, grads):
        root.accumulate_grad(grad)
    while order:
        node = order.pop()
        if not node.trainable:
            node._backward(node.grad)
            node._grad = node._backward = None
            node.parents = ()


def fork(parts: Sequence[Callable[..., list[Node]]],
         params: Sequence[Node]) -> list[list[Node]]:
    """The outputs of independent ``parts``, built and differentiated half on
    the caller and half on the worker thread.

    Each part is called with private leaves that share the values of
    ``params`` and returns a list of nodes.  The first half of the parts
    runs on the caller and the rest beside it (``_run_beside``).  Each output
    that needs a gradient comes back as a handle node whose only parent is
    one join node over ``params``.  The join's rule walks the parts' private
    graphs with the same split, then adds each part's leaf gradients to
    ``params`` in part order, so a parameter that several parts read sums
    their contributions as a sequential walk of the parts in that order
    would.  Without a gradient path the outputs are the parts' own nodes,
    which keep no graph.
    """
    leaves = [[Node(p.value, op=p.op, trainable=p.needs_grad, name=p.name) for p in params]
              for _ in parts]
    half = (len(parts) + 1) // 2

    def build(lo: int, hi: int) -> list[list[Node]]:
        return [parts[i](*leaves[i]) for i in range(lo, hi)]

    first, second = _run_beside(lambda: build(0, half), lambda: build(half, len(parts)))
    outputs = first + second
    if not any(out.needs_grad for outs in outputs for out in outs):
        return outputs
    grads: list[list[Matrix | None]] = [[None] * len(outs) for outs in outputs]

    def walk(lo: int, hi: int) -> None:
        for outs, seeds in zip(outputs[lo:hi], grads[lo:hi]):
            reached = [(out, g) for out, g in zip(outs, seeds) if g is not None]
            if reached:
                _propagate(*zip(*reached))

    def join_backward(_: Matrix) -> None:
        _run_beside(lambda: walk(0, half), lambda: walk(half, len(parts)))
        for own in leaves:
            for p, leaf in zip(params, own):
                if leaf._grad is not None:
                    p.accumulate_owned(leaf._grad)

    join = Node(np.zeros((1, 1)), op="join", parents=tuple(params), backward=join_backward)

    def handle(i: int, j: int, out: Node) -> Node:
        if not out.needs_grad:
            return out

        def backward(g: Matrix) -> None:
            grads[i][j] = g

        return Node(out.value, op="fork", parents=(join,), backward=backward)

    return [[handle(i, j, out) for j, out in enumerate(outs)]
            for i, outs in enumerate(outputs)]


class ParameterStore:
    """Named trainable nodes plus Adam state; registration order is stable.

    Names are unique and shapes immutable after registration.  Optimizer
    moments mirror parameter shapes and start at zero.
    """

    def __init__(self) -> None:
        self._params: "OrderedDict[str, Node]" = OrderedDict()
        self._m: dict[str, Matrix] = {}
        self._v: dict[str, Matrix] = {}
        self.step_count = 0

    def register(self, name: str, data) -> Node:
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered")
        node = parameter(data, name=name)
        self._params[name] = node
        self._m[name] = np.zeros_like(node.value)
        self._v[name] = np.zeros_like(node.value)
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def zero_grads(self) -> None:
        for node in self._params.values():
            node.zero_grad()

    def snapshot_values(self) -> "OrderedDict[str, Matrix]":
        return OrderedDict((name, node.value.copy()) for name, node in self._params.items())

    def restore_values(self, values: dict[str, Matrix]) -> None:
        for name, arr in values.items():
            node = self._params[name]
            if node.value.shape != arr.shape:
                raise ShapeMismatchError(
                    f"restore of '{name}': shapes {node.value.shape} and {arr.shape} do not conform")
            node.value[...] = arr

    def save(self, path) -> None:
        """Write the versioned text checkpoint (see README for the layout)."""
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{CHECKPOINT_MAGIC}\n")
            fh.write(f"{len(self._params)}\n")
            for name, node in self._params.items():
                r, c = node.value.shape
                fh.write(f"{name} {r} {c}\n")
                for row in node.value:
                    fh.write(" ".join(float(x).hex() for x in row) + "\n")

    @staticmethod
    def read_checkpoint(path) -> "OrderedDict[str, Matrix]":
        """Parse a checkpoint file into an ordered name -> array map."""
        with open(path, "r") as fh:
            magic = fh.readline().strip()
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
            count = int(fh.readline())
            out: "OrderedDict[str, Matrix]" = OrderedDict()
            for _ in range(count):
                name, r, c = fh.readline().split()
                r, c = int(r), int(c)
                rows = [[float.fromhex(tok) for tok in fh.readline().split()] for _ in range(r)]
                arr = np.array(rows, dtype=np.float64).reshape(r, c)
                out[name] = arr
        return out

    def load(self, path) -> None:
        values = self.read_checkpoint(path)
        if set(values) != set(self._params):
            missing = sorted(set(self._params) - set(values))
            extra = sorted(set(values) - set(self._params))
            raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        self.restore_values(values)


def adam_step(store: ParameterStore, learning_rate: float) -> None:
    """One Adam update over every registered parameter; gradients are left intact."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name, node in store.items():
        g = node.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
    store.step_count += 1
    t = store.step_count
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, node in store.items():
        g = node.grad
        m = store._m[name]
        v = store._v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        node.value -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + eps)
