"""Full model assembly and training loop.

The forward pass, per window month: embed that month's sales for the whole
catalog, encode the scored attributes through the bipartite (sales-weighted
neighbor mean) and hypergraph patterns with that sales embedding as the
attribute input, fuse the two encodings with the mixing coefficient plus the
sales embedding, and roll both recurrent cells.  No parameter belongs to a
single attribute, and no parameter's shape depends on the attribute catalog,
so the model learns from sales and graph structure rather than from
attribute identity.  The final score for a (community, attribute) pair is
the sigmoid of the community embedding's dot product with the evolved
attribute state plus the autoregressive sales forecast, whose lag weights
every pair shares (the LSTNet highway term).

Each month's fused input reads that month's graphs and six parameters
and no other month, and the two recurrent cells read the same fused
inputs and not each other.  So ``forward`` builds the months as the parts
of one ``autodiff.fork`` and the two cells as the parts of another: when
BLAS leaves a CPU free (see ``autodiff``), the second half of each runs on
the autodiff worker thread, forward and backward, beside the first half on
the caller.  BLAS stays at one thread, and scores, gradients and trained
stores are byte-identical with or without the worker.

The ablations are settings of the fusion weight and the skip length:
``alpha = 0`` runs the bipartite encoder alone and ``alpha = 1`` the
hypergraph encoder alone, because an encoder whose weight is zero is not
run and ``build_constants`` does not build its operators; ``p = 1`` drops
the skip cell and reduces the combiner to its recent-state path.  Every
parameter keeps its slot at any ``alpha``, so a checkpoint loads under any
fusion weight.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from . import evaluate as ev
from . import temporal as tp
from .autodiff import Node, ParameterStore
from .errors import InsufficientHistoryError, NonFiniteError, ShapeMismatchError
from .predictions import PredictionMatrix
from .snapshots import Catalogs, SnapshotSeries, TrendSample

# each recurrent cell's parameters, in registration and ``GruWeights`` field order
_GRU_NAMES = tuple(f.name for f in fields(tp.GruWeights))


@dataclass
class ModelConfig:
    """Hyperparameters for one training run.  An ablation is one run under
    other values of ``alpha`` or ``p`` (see the module docstring)."""

    d: int = 64
    alpha: float = 0.5
    p: int = 3
    learning_rate: float = 0.005
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    window_length: int = 12
    k_percent: float = 50.0
    seed: int = 0
    bce_eps: float = 1e-7

    def validate(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("d", "p", "window_length", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("max_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 < self.k_percent <= 100.0):
            raise ValueError(f"k_percent must be in (0, 100], got {self.k_percent}")
        if not (0.0 < self.bce_eps < 0.5):
            raise ValueError(f"bce_eps must be in (0, 0.5), got {self.bce_eps}")


def initialize(config: ModelConfig, catalogs: Catalogs) -> ParameterStore:
    """Seeded parameter store: weights uniform in [-1/sqrt(d), 1/sqrt(d)],
    biases and autoregressive coefficients zero.

    Registration order is fixed, so identical seeds give identical stores.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    d = config.d
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    store = ParameterStore()
    store.register("community_embed", uniform((catalogs.n_communities, d)))
    # one layer per encoder; the _0 suffixes keep older checkpoints loadable
    store.register("sage_agg_0", uniform((d, d)))
    store.register("sage_update_0", uniform((2 * d, d)))
    store.register("hyper_mix_0", uniform((d, d)))
    store.register("sales_conv_kernel", uniform((tp.CONV_WIDTH, d)))
    store.register("sales_conv_bias", np.zeros((1, d)))
    for prefix in ("gru", "skipgru"):
        for name in _GRU_NAMES:
            is_weight = name.startswith("w_")
            store.register(f"{prefix}_{name}", uniform((d, d)) if is_weight else np.zeros((1, d)))
    store.register("combine_recent", uniform((d, d)))
    for i in range(1, config.p):
        store.register(f"combine_skip_{i}", uniform((d, d)))
    store.register("combine_bias", np.zeros((1, d)))
    for lag in range(config.window_length):
        store.register(f"ar_lag_{lag:02d}", np.zeros((1, 1)))
    store.register("ar_bias", np.zeros((1, 1)))
    return store


def _gru_params(store: ParameterStore, prefix: str) -> tuple[Node, ...]:
    """One cell's nine parameters in ``GruWeights`` field order."""
    return tuple(store[f"{prefix}_{name}"] for name in _GRU_NAMES)


@dataclass
class GraphConstants:
    """Arrays derived once from the sales tensor and reused every step, each
    stacked over the months: index ``m - first_month`` holds month ``m``.
    An encoder's operators are built only when its fusion weight is not 0."""

    first_month: int
    aggregator: np.ndarray | None   # months x attributes x communities; None at alpha = 1
    hyper_left: np.ndarray | None   # months x attributes x communities; None at alpha = 0
    hyper_right: np.ndarray | None  # months x communities x attributes; None at alpha = 0
    patches: np.ndarray             # months x (attributes * positions) x CONV_WIDTH
    positions: int
    scaled: np.ndarray              # months x communities x attributes


def build_constants(series: SnapshotSeries, config: ModelConfig) -> GraphConstants:
    """The graph constants of every month of ``series`` for the encoders that
    ``config.alpha`` runs."""
    sales = series.monthly.sales
    scaled = tp.scale_sales(sales)
    hyper_left, hyper_right = (enc.hypergraph_operator_factors(sales) if config.alpha > 0.0
                               else (None, None))
    patches, positions = tp.sales_patch_matrix(scaled)
    aggregator = enc.neighbor_mean_matrix(sales) if config.alpha < 1.0 else None
    return GraphConstants(first_month=series.monthly.first_month, aggregator=aggregator,
                          hyper_left=hyper_left, hyper_right=hyper_right, patches=patches,
                          positions=positions, scaled=scaled)


def forward(series: SnapshotSeries, consts: GraphConstants, sample: TrendSample,
            store: ParameterStore, config: ModelConfig,
            attr_range: tuple[int, int] | None = None) -> Node:
    """Score node for one sample: communities x the attributes ``[a0, a1)`` of
    ``attr_range`` (default all).

    Only the sales embedding covers the whole catalog, because the hypergraph
    reads every attribute; both encoders, the fusion, the recurrent cells and
    the AR term see the range's rows alone.  ``store`` maps parameter names to
    nodes: a ``ParameterStore`` for training, constants for inference.  The
    months and the two cells are each one ``autodiff.fork``; the layers are
    looked up in ``temporal`` and ``encoders`` at call time.
    """
    if len(sample.window_months) != config.window_length:
        raise ShapeMismatchError(
            f"sample window has {len(sample.window_months)} months, "
            f"config window_length is {config.window_length}")
    offsets = [m - consts.first_month for m in sample.window_months]
    if not all(0 <= i < len(consts.scaled) for i in offsets):
        raise ShapeMismatchError(
            f"sample window months {sample.window_months[0]}..{sample.window_months[-1]} "
            f"are not all among the constants' {len(consts.scaled)} months "
            f"from {consts.first_month}")
    needed = {"aggregator": config.alpha < 1.0, "hyper_left": config.alpha > 0.0,
              "hyper_right": config.alpha > 0.0}
    missing = [name for name, need in needed.items() if need and getattr(consts, name) is None]
    if missing:
        raise ValueError(
            f"alpha={config.alpha} runs an encoder whose graph constants "
            f"{', '.join(missing)} were not built; build the constants under this alpha")
    catalogs = series.catalogs
    n_attributes = catalogs.n_attributes
    a0, a1 = rows = attr_range if attr_range is not None else (0, n_attributes)
    if not 0 <= a0 < a1 <= n_attributes:
        raise ShapeMismatchError(
            f"attr_range {attr_range} is not a non-empty range of the "
            f"{n_attributes} attributes")
    community_embed = store["community_embed"]
    month_params = (store["sales_conv_kernel"], store["sales_conv_bias"], community_embed,
                    store["sage_agg_0"], store["sage_update_0"], store["hyper_mix_0"])
    inputs = [x for (x,) in ad.fork(
        [lambda *params, i=i: [_fused_input(consts, i, rows, config, *params)]
         for i in offsets], month_params)]

    steps = len(inputs)
    history: list[Node | None] = []
    skip_weights: list[Node] = []
    # at p = 1 the combiner reads no skip state, so the skip cell is not rolled
    if config.p >= 2:
        w = len(_GRU_NAMES)
        recent_states, skip_states = ad.fork(
            [lambda *v: tp.gru_rollout(list(v[:steps]), tp.GruWeights(*v[steps:-w])),
             lambda *v: tp.skip_gru_rollout(list(v[:steps]), tp.GruWeights(*v[-w:]), config.p)],
            (*inputs, *_gru_params(store, "gru"), *_gru_params(store, "skipgru")))
        last = steps - 1
        history = [skip_states[last - i] if last - i >= 0 else None
                   for i in range(1, config.p)]
        skip_weights = [store[f"combine_skip_{i}"] for i in range(1, config.p)]
    else:
        recent_states = tp.gru_rollout(inputs, tp.GruWeights(*_gru_params(store, "gru")))
    evolved = tp.combine_recurrent(recent_states[-1], history, store["combine_recent"],
                                   skip_weights, store["combine_bias"])

    history_nodes = [ad.constant(consts.scaled[i][:, a0:a1]) for i in offsets]
    coeff_nodes = [store[f"ar_lag_{lag:02d}"] for lag in range(len(sample.window_months))]
    forecast = tp.autoregressive(history_nodes, coeff_nodes, store["ar_bias"])

    affinity = ad.matmul(community_embed, ad.transpose(evolved))
    return ad.sigmoid(ad.add(affinity, forecast))


def _fused_input(consts: GraphConstants, i: int, rows: tuple[int, int], config: ModelConfig,
                 kernel: Node, conv_bias: Node, community_embed: Node, w_agg: Node,
                 w_update: Node, mix: Node) -> Node:
    """The recurrent input of the constants' ``i``-th month for the attributes
    in ``rows``: (1 - alpha) * bipartite + alpha * hypergraph + sales
    embedding, where an encoder weighted 0 is not run."""
    a0, a1 = rows
    sales = tp.embed_sales_batch(ad.constant(consts.patches[i]), consts.positions,
                                 kernel, conv_bias)
    batch_sales = ad.slice_block(sales, rows, (0, config.d))
    terms: list[Node] = []
    weights: list[float] = []
    if config.alpha < 1.0:
        terms.append(enc.sage_encode(ad.constant(consts.aggregator[i][a0:a1]), community_embed,
                                     batch_sales, w_agg, w_update))
        weights.append(1.0 - config.alpha)
    if config.alpha > 0.0:
        terms.append(enc.hyperconv_encode((ad.constant(consts.hyper_left[i][a0:a1]),
                                           ad.constant(consts.hyper_right[i])), sales, mix))
        weights.append(config.alpha)
    return ad.weighted_sum([*terms, batch_sales], [*weights, 1.0])


def predict(series: SnapshotSeries, consts: GraphConstants, sample: TrendSample,
            store: ParameterStore, config: ModelConfig) -> PredictionMatrix:
    """Full-catalog scores of one sample.  The forward runs over constant nodes
    that share the store's values, so it keeps no autodiff graph."""
    values = {}
    for name, node in store.items():
        if not np.all(np.isfinite(node.value)):
            raise NonFiniteError(f"parameter '{name}' contains non-finite entries")
        values[name] = Node(node.value, op="const", name=name)
    scores = forward(series, consts, sample, values, config)
    return PredictionMatrix(scores=scores.value.copy(), target_month=sample.target_month)


def bce_loss(scores: Node, labels: np.ndarray, validity: np.ndarray,
             eps: float = 1e-7) -> Node:
    """Masked binary cross-entropy, summed over valid pairs."""
    return ad.masked_bce(scores, labels, validity, eps=eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    validation_auc: float | None
    wall_seconds: float


@dataclass
class TrainResult:
    store: ParameterStore
    epochs: list[EpochRecord]
    best_epoch: int | None
    best_validation_auc: float | None


def train(series: SnapshotSeries, config: ModelConfig,
          consts: GraphConstants | None = None,
          log_cb: Callable[[EpochRecord], None] | None = None) -> TrainResult:
    """Mini-batch Adam over attribute chunks with early stopping on validation AUC.

    Batches are contiguous attribute ranges; the visiting order of
    (sample, batch) steps is reshuffled each epoch from a seeded generator.
    The best-validation parameter snapshot is restored at the end.  Without
    validation samples (degenerate splits) training runs to max_epochs and
    keeps the final parameters.
    """
    config.validate()
    split = series.split
    if not split.train:
        raise InsufficientHistoryError("the split has no training windows")
    store = initialize(config, series.catalogs)
    if consts is None:
        consts = build_constants(series, config)
    n_attributes = series.catalogs.n_attributes
    chunks = [(s, min(s + config.batch_size, n_attributes))
              for s in range(0, n_attributes, config.batch_size)]
    steps = [(i, chunk) for i in split.train for chunk in chunks]
    order_rng = np.random.default_rng(config.seed + 1)

    best_val: float | None = None
    best_values = None
    best_epoch: int | None = None
    epochs_without_gain = 0
    records: list[EpochRecord] = []
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        total_loss = 0.0
        for step in order_rng.permutation(len(steps)):
            sample_idx, (a0, a1) = steps[step]
            sample = series.samples[sample_idx]
            store.zero_grads()
            scores = forward(series, consts, sample, store, config, attr_range=(a0, a1))
            loss = bce_loss(scores, sample.labels[:, a0:a1], sample.validity[:, a0:a1],
                            eps=config.bce_eps)
            value = float(loss.value[0, 0])
            if not math.isfinite(value):
                raise NonFiniteError(
                    f"non-finite training loss at epoch {epoch}, sample {sample_idx}, "
                    f"attributes [{a0}, {a1})")
            ad.backward(loss)
            ad.adam_step(store, config.learning_rate)
            total_loss += value
        validation_auc = None
        if split.valid:
            preds = [predict(series, consts, series.samples[i], store, config)
                     for i in split.valid]
            samples = [series.samples[i] for i in split.valid]
            aucs, _, _ = ev.community_aucs(preds, samples)
            validation_auc = ev.macro_average(aucs)
        record = EpochRecord(epoch=epoch, train_loss=total_loss,
                             validation_auc=validation_auc,
                             wall_seconds=time.perf_counter() - started)
        records.append(record)
        if log_cb:
            log_cb(record)
        if validation_auc is not None:
            if best_val is None or validation_auc > best_val:
                best_val = validation_auc
                best_values = store.snapshot_values()
                best_epoch = epoch
                epochs_without_gain = 0
            else:
                epochs_without_gain += 1
                if epochs_without_gain >= config.patience:
                    break
    if best_values is not None:
        store.restore_values(best_values)
    return TrainResult(store=store, epochs=records, best_epoch=best_epoch,
                       best_validation_auc=best_val)
