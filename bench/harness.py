"""Workloads, timed operations and output checks of the trendgraph benchmark.

One call of ``run`` generates a synthetic interaction CSV from the seed (not
timed), then drives the public API the way the CLI does: ingest, build the
snapshot series and graph constants, train, then predict, evaluate against
the month-on-month baseline, and save and load the checkpoint in interleaved
rounds.  Three set-ups, two training runs with the same seed and four blocks
of rounds alternate over the whole run.  Every timed operation is checked; a
failed check or an exception counts the operation as failed and is reported
by name.

With ``trace`` on, the set-ups, the second training run and the rounds
record spans around the calls into each layer (see ``tracer``), every layer
of one real training step is replayed in isolation to time its forward and
backward, and ``trendgraph predict`` runs in-process.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trendgraph import (autodiff, cli, encoders, evaluate, model, predictions, snapshots,
                        synthetic, temporal)
from trendgraph.synthetic import GeneratorConfig

from tracer import NO_PARENT, Tracer, by_name, roots_of, self_times


@dataclass(frozen=True)
class Workload:
    generator: dict     # GeneratorConfig fields besides the seed
    batch_size: int


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    "minibatch-300": Workload(generator={}, batch_size=64),
    "fullbatch-1200": Workload(generator={"attributes": 1200}, batch_size=1200),
    "communities-40": Workload(generator={"communities": 40, "attributes": 300}, batch_size=64),
    # seconds-long workload for the benchmark's own tests; not in BENCHMARK.json
    "tiny": Workload(generator={"communities": 4, "attributes": 30, "months": 16,
                                "onset_rate": 0.1}, batch_size=8),
}

# One epoch per training run, so the test AUC is a function of the seed alone
# and early stopping cannot trigger.
EPOCHS = 1
LAYER_REPEATS = 5
MIN_ROUNDS = 3     # per block of rounds
MAX_ROUNDS = 500
# the rounds get at least this share of --seconds even when set-up and
# training outlast it, so a short slow spell cannot own their medians
MIN_ROUNDS_SHARE = 1 / 2
MAX_FAILURES_SHOWN = 50

# reported with --trace 0; each is gated by the bound in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_epoch_s", "s", "lower"),
    ("train_pairs_per_s", "pairs/s", "higher"),
    ("predict_ms", "ms", "lower"),
    ("evaluate_s", "s", "lower"),
    ("checkpoint_save_ms", "ms", "lower"),
    ("checkpoint_load_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# printed and recorded with every run but not gated: the test AUC is fixed by
# the seed, so its spread across seeds is the data's, and the failed share
# reads 0 on a correct program (the result line carries attempted and failed)
UNGATED = [
    ("test_macro_auc", "auc"),
    ("failed_ops_share", "ratio"),
    ("first_epoch_s", "s"),
]

# Metrics reported as the mean of their samples without the lowest and the
# highest TRIM share.  Text formatting and parsing in Python run at two
# speeds on a shared host; the median of a run jumps from one to the other
# as the share of slow time crosses one half, the mean moves in proportion.
TRIMMED = {"checkpoint_save_ms", "checkpoint_load_ms"}
TRIM = 0.1

# metrics whose median is taken over another metric's samples
SAMPLED_AS = {"train_epoch_s": "train_step_s", "train_pairs_per_s": "train_step_s"}

# layers replayed in isolation: (module, function, has a backward metric)
ISOLATED_LAYERS = [
    (encoders, "sage_encode", True),
    (encoders, "hyperconv_encode", True),
    (temporal, "embed_sales_batch", True),
    (temporal, "gru_rollout", True),
    (temporal, "skip_gru_rollout", True),
    (temporal, "combine_recurrent", False),
    (temporal, "autoregressive", True),
]


def _layer_prefix(module, fn: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fn}"


# reported with --trace 1
PER_LAYER = [
    ("snapshots.ingest_s", "s", "lower"),
    ("snapshots.build_s", "s", "lower"),
    ("snapshots.build_windows_s", "s", "lower"),
    ("snapshots.records", "count", "higher"),
    ("snapshots.records_per_s", "records/s", "higher"),
    ("model.build_constants_s", "s", "lower"),
    *[(f"{_layer_prefix(mod, fn)}.{part}_ms", "ms", "lower")
      for mod, fn, bwd in ISOLATED_LAYERS for part in (("fwd", "bwd") if bwd else ("fwd",))],
    ("encoders.rows_per_step", "count", "lower"),
    ("model.encoded_rows_used", "ratio", "higher"),
    ("model.forward_ms", "ms", "lower"),
    ("model.forward_self_ms", "ms", "lower"),
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.nodes_per_step", "count", "lower"),
    ("autodiff.matmul.calls_per_step", "count", "lower"),
    ("autodiff.matmul.gflop_per_step", "GFLOP", "lower"),
    ("autodiff.adam_step_ms", "ms", "lower"),
    ("autodiff.adam.params", "count", "lower"),
    ("autodiff.adam.nonzero_grad_share", "ratio", "higher"),
    ("autodiff.checkpoint_bytes", "bytes", "lower"),
    ("evaluate.mom_baseline_ms", "ms", "lower"),
    ("evaluate.community_aucs_ms", "ms", "lower"),
    ("evaluate.evaluate_predictions_ms", "ms", "lower"),
    ("evaluate.test_macro_auc", "auc", "higher"),
    ("predictions.top_lists_ms", "ms", "lower"),
    ("cli.predict_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_ms_per_step", "ms", "lower"),
    ("trace.untraced_step_ms", "ms", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
]


def _matmul_counts(args, kwargs, out):
    a, b = args
    return (a.rows, a.cols, b.cols, a.needs_grad, b.needs_grad)


def _rows(args, kwargs, out):
    return (out.rows,)


def _scored(args, kwargs, out):
    return (out.cols,)


SETUP_TARGETS = [
    (snapshots, "ingest", "snapshots.ingest", None),
    (snapshots.SnapshotSeries, "build", "snapshots.build", None),
    (snapshots, "build_windows", "snapshots.build_windows", None),
    (model, "build_constants", "model.build_constants", None),
]
# enough to cut an untraced epoch into steps and the validation pass
STEP_TARGETS = [
    (model, "forward", "model.forward", _scored),
    (model, "predict", "model.predict", None),
]
TRAIN_TARGETS = STEP_TARGETS + [
    (model, "bce_loss", "model.bce_loss", None),
    (encoders, "sage_encode", "encoders.sage_encode", _rows),
    (encoders, "hyperconv_encode", "encoders.hyperconv_encode", _rows),
    *[(temporal, fn, f"temporal.{fn}", None)
      for fn in ("embed_sales_batch", "gru_rollout", "skip_gru_rollout",
                 "combine_recurrent", "autoregressive")],
    (autodiff, "matmul", "autodiff.matmul", _matmul_counts),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "adam_step", "autodiff.adam_step", None),
    (evaluate, "community_aucs", "evaluate.community_aucs", None),
]
EVALUATE_TARGETS = [
    (model, "predict", "model.predict", None),
    (evaluate, "mom_baseline", "evaluate.mom_baseline", None),
    (evaluate, "evaluate_predictions", "evaluate.evaluate_predictions", None),
    (evaluate, "community_aucs", "evaluate.community_aucs", None),
    (predictions.PredictionMatrix, "top_lists", "predictions.top_lists", None),
]
STEP_BOUNDARIES = {"model.forward", "model.predict"}
STEP_ROOTS = {"model.forward", "model.bce_loss", "autodiff.backward", "autodiff.adam_step"}
ENCODER_SPANS = {"encoders.sage_encode", "encoders.hyperconv_encode"}


class BenchAbort(Exception):
    """A failed operation left nothing for the later phases to run on."""


class Ledger:
    """Counts timed operations and records every failed one by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []

    def timed(self, op: str, fn, check=None):
        """Run ``fn`` once; returns (result, seconds, ok).

        An exception or any problem reported by ``check(result)`` fails the
        operation; its result is still returned when there is one.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - started
            if len(self.failures) < MAX_FAILURES_SHOWN:
                traceback.print_exc(file=sys.stderr)
            self._fail(op, [f"{type(exc).__name__}: {exc}"])
            return None, elapsed, False
        elapsed = time.perf_counter() - started
        problems = check(result) if check is not None else []
        if problems:
            self._fail(op, problems)
        return result, elapsed, not problems

    def _fail(self, op: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:MAX_FAILURES_SHOWN - len(self.failures)]:
            self.failures.append((op, problem))
            print(f"FAILED {op}: {problem}", file=sys.stderr)


# ---- output checks: each returns a list of problems, empty when the output is right


def check_scores(preds) -> list[str]:
    problems = []
    for pred in preds:
        scores = pred.scores
        if not np.all(np.isfinite(scores)):
            problems.append(f"{int((~np.isfinite(scores)).sum())} non-finite scores "
                            f"for target month {pred.target_month}")
        elif scores.min() < 0.0 or scores.max() > 1.0:
            problems.append(f"scores outside [0, 1] for target month {pred.target_month}")
    return problems


def check_losses(result) -> list[str]:
    return [f"non-finite training loss {e.train_loss!r} at epoch {e.epoch}"
            for e in result.epochs if not math.isfinite(e.train_loss)]


def check_same_losses(first: list[float], second: list[float]) -> list[str]:
    if [x.hex() for x in first] != [x.hex() for x in second]:
        return [f"repeated training with the same seed gave per-epoch losses {second}, "
                f"first run gave {first}"]
    return []


def check_bit_identical(expected: dict, store) -> list[str]:
    """Every parameter of ``store`` equals ``expected`` bit for bit."""
    problems = []
    for name, node in store.items():
        want = expected[name]
        if want.shape != node.value.shape or want.tobytes() != node.value.tobytes():
            problems.append(f"parameter '{name}' is not bit-identical")
    return problems


def check_reports(reports) -> list[str]:
    model_report, mom_report, preds = reports
    problems = check_scores(preds)
    for name, report in (("model", model_report), ("mom", mom_report)):
        if report.macro_auc is None or not math.isfinite(report.macro_auc):
            problems.append(f"{name} test macro AUC is undefined")
    return problems


# ---- summaries


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def trimmed_mean(samples: list[float]) -> float:
    ordered = sorted(samples)
    k = int(TRIM * len(ordered))
    return statistics.mean(ordered[k:len(ordered) - k]) if ordered else math.nan


def summarize(samples: list[float]) -> dict:
    """Median, trimmed mean, extremes and sample count; once there are enough
    samples, also the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples)}
    if samples:
        ordered = sorted(samples)
        out.update(median=statistics.median(ordered), trimmed_mean=trimmed_mean(ordered),
                   min=ordered[0], max=ordered[-1])
        if len(ordered) > 10:
            k = len(ordered) - 11
            out["p_hi"] = {"q": round(100.0 * (k + 1) / len(ordered), 1), "value": ordered[k]}
    return out


@dataclass
class Result:
    ledger: Ledger
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    ungated: dict[str, tuple[float, str]] = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0


# ---- training


@dataclass
class Epoch:
    epoch: int
    loss: float
    wall: float                         # as model.train reports it, validation included
    steps: list[tuple[int, float]]      # (batch width, seconds) per optimizer step
    validation: float


@dataclass
class Training:
    store: object
    epochs: list[Epoch]


def _train(ledger, op, series, consts, config, tracer, targets, reference=None) -> Training:
    """One ``model.train`` call, cut into optimizer steps and the validation pass.

    A step runs from the start of one training ``model.forward`` to the start
    of the next forward or of the validation ``model.predict``; the
    validation pass runs from there to the end of the epoch.
    """
    ends: list[tuple[int, float]] = []

    def on_epoch(_record):
        ends.append((len(tracer.spans), time.perf_counter()))

    def check(res):
        problems = check_losses(res)
        if reference is not None:
            problems += check_same_losses([e.loss for e in reference.epochs],
                                          [e.train_loss for e in res.epochs])
            problems += check_bit_identical(reference.store.snapshot_values(), res.store)
        return problems

    with tracer.installed(targets):
        res, _, _ = ledger.timed(op, lambda: model.train(series, config, consts=consts,
                                                         log_cb=on_epoch), check)
    if res is None:
        raise BenchAbort(f"{op} failed")
    epochs = []
    lo = 0
    for record, (hi, end) in zip(res.epochs, ends):
        bounds = [s for s in tracer.spans[lo:hi]
                  if s.parent == NO_PARENT and s.name in STEP_BOUNDARIES]
        stops = [s.start for s in bounds[1:]] + [end]
        steps = [(s.counts[0], stop - s.start) for s, stop in zip(bounds, stops)
                 if s.name == "model.forward"]
        validation_start = next((s.start for s in bounds if s.name == "model.predict"), end)
        epochs.append(Epoch(record.epoch, record.train_loss, record.wall_seconds,
                            steps, end - validation_start))
        lo = hi
    return Training(store=res.store, epochs=epochs)


def epoch_estimate(epochs: list[Epoch]) -> tuple[float, float]:
    """(optimizer seconds, validation seconds) of one epoch, rebuilt from medians.

    For each batch width, the median step time counts once per step of that
    width in an epoch.  On a box whose speed drifts by tens of percent over
    seconds, this is far steadier than the wall time of whole epochs.
    """
    by_width: dict[int, list[float]] = defaultdict(list)
    for e in epochs:
        for width, seconds in e.steps:
            by_width[width].append(seconds)
    optimizer = sum(len(times) / len(epochs) * median(times) for times in by_width.values())
    return optimizer, median([e.validation for e in epochs])


# ---- the run


def run(workload: str, seed: int, seconds: float, trace: bool, workdir) -> Result:
    spec = WORKLOADS[workload]
    ledger = Ledger()
    result = Result(ledger=ledger)
    samples: dict[str, list[float]] = defaultdict(list)
    tracers = {phase: Tracer() for phase in ("setup", "train", "evaluate")}
    Path(workdir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir, prefix=f"{workload}-") as scratch:
        scratch = Path(scratch)
        started = time.perf_counter()
        dataset = synthetic.generate(GeneratorConfig(seed=seed, **spec.generator))
        csv_path, _ = synthetic.write_dataset(dataset, scratch / "data")
        generate_s = time.perf_counter() - started
        config = model.ModelConfig(batch_size=spec.batch_size, max_epochs=EPOCHS,
                                   patience=EPOCHS + 1, seed=seed)
        measure_start = time.perf_counter()

        # Set-up, training and four blocks of inference rounds alternate, so
        # every metric samples stretches of a machine whose speed drifts from
        # the start of the run to its end.  Both training runs use the same
        # seed; the process's slow first steps fall in the first run, which is
        # checked and reported but gives no medians.
        records, series, consts = _timed_setup(ledger, tracers["setup"], csv_path, config,
                                               trace, samples)
        setup_once_s = time.perf_counter() - measure_start
        first = _train(ledger, "train", series, consts, config, Tracer(), STEP_TARGETS)
        # three set-ups and two training runs in all
        fixed_s = 2 * (time.perf_counter() - measure_start) + setup_once_s
        block_s = max(seconds - fixed_s, MIN_ROUNDS_SHARE * seconds) / 4
        ckpt_dir = scratch / "run"
        ckpt_dir.mkdir()
        ckpt = ckpt_dir / cli.CHECKPOINT_NAME
        blocks = []

        def rounds(store, records, series, consts):
            with tracers["evaluate"].installed(EVALUATE_TARGETS if trace else []):
                blocks.append(_rounds(ledger, records, series, consts, config, store, ckpt,
                                      block_s, samples))

        rounds(first.store, records, series, consts)
        records, series, consts = _timed_setup(ledger, tracers["setup"], csv_path, config,
                                               trace, samples)
        rounds(first.store, records, series, consts)
        second = _train(ledger, "train-repeat", series, consts, config, tracers["train"],
                        TRAIN_TARGETS if trace else STEP_TARGETS, reference=first)
        store = second.store
        rounds(store, records, series, consts)
        # the third set-up is timed and checked; the run goes on with the second's output
        _timed_setup(ledger, tracers["setup"], csv_path, config, trace, samples)
        rounds(store, records, series, consts)
        reports = next((r for r in blocks if r is not None), None)
        labelled_pairs = int(sum(series.samples[i].validity.sum() for i in series.split.train))
        optimizer_s, validation_s = epoch_estimate(second.epochs)
        for e in second.epochs:
            samples["train_step_s"].extend(t for _, t in e.steps)
        measured_s = time.perf_counter() - measure_start

        macro = reports[0].macro_auc if reports is not None else None
        test_auc = macro if macro is not None else math.nan
        metrics = {"train_epoch_s": optimizer_s + validation_s,
                   "train_pairs_per_s": labelled_pairs / optimizer_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "evaluate.test_macro_auc": test_auc}
        if trace:
            cli.write_resolved(config, ckpt_dir)
            metrics.update(_trace_metrics(ledger, tracers, first, second, series, consts,
                                          config, store, records, ckpt, scratch / "data",
                                          samples))
            spans_path = Path(workdir) / f"spans-{workload}-seed{seed}.ndjson"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for phase, tracer in tracers.items():
                    tracer.write(fh, phase)
            result.record["spans_file"] = str(spans_path)
        for name, values in samples.items():
            metrics.setdefault(name, (trimmed_mean if name in TRIMMED else median)(values))

    # a metric whose every operation failed reads NaN; the run is then incorrect
    result.metrics = {name: (metrics.get(name, math.nan), unit)
                      for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    ungated = {"test_macro_auc": test_auc,
               "failed_ops_share": ledger.failed / ledger.attempted,
               "first_epoch_s": first.epochs[0].wall}
    result.ungated = {name: (ungated[name], unit) for name, unit in UNGATED}
    result.record.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "generator": {"seed": seed, **spec.generator},
        "model": {"batch_size": config.batch_size, "epochs": config.max_epochs,
                  "patience": config.patience, "seed": config.seed},
        "records": len(records),
        "steps_per_epoch": len(second.epochs[0].steps),
        "labelled_pairs_per_epoch": labelled_pairs,
        "epochs": {label: [{"epoch": e.epoch, "loss": e.loss, "wall_s": e.wall,
                            "validation_s": e.validation} for e in training.epochs]
                   for label, training in (("first", first), ("second", second))},
        "generate_s": generate_s,
        "measured_s": measured_s,
        "samples": {name: summarize(values) for name, values in samples.items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        **ungated,
        "failures": [{"op": op, "problem": p} for op, p in ledger.failures],
    })
    return result


def _timed_setup(ledger, tracer, csv_path, config, trace, samples):
    """One set-up as a timed operation; nothing can run without it."""
    with tracer.installed(SETUP_TARGETS if trace else []):
        out, elapsed, ok = ledger.timed("setup", lambda: _setup(csv_path, config))
    if out is None:
        raise BenchAbort("setup failed")
    if ok:
        samples["setup_s"].append(elapsed)
    return out


def _setup(csv_path, config):
    catalogs, records = snapshots.ingest(csv_path)
    series = snapshots.SnapshotSeries.build(records, catalogs,
                                            window_length=config.window_length,
                                            k_percent=config.k_percent)
    consts = model.build_constants(series, config)
    return records, series, consts


def _evaluate(records, series, consts, test_samples, store, config):
    """Test-window scoring as ``trendgraph evaluate`` does it, minus the file writes."""
    preds = [model.predict(series, consts, s, store, config) for s in test_samples]
    mom = [evaluate.mom_baseline(records, series.catalogs, s.target_month, config.k_percent)
           for s in test_samples]
    return (evaluate.evaluate_predictions(preds, test_samples, series.catalogs),
            evaluate.evaluate_predictions(mom, test_samples, series.catalogs),
            preds)


def _rounds(ledger, records, series, consts, config, store, ckpt, budget, samples):
    """Predict, evaluate, save and load once per round, at least ``MIN_ROUNDS``
    times and for ``budget`` seconds; interleaving lets every metric see the
    same stretch of machine speed.  Returns the first passing evaluation."""
    until = time.perf_counter() + budget
    trained = store.snapshot_values()
    test_samples = [series.samples[i] for i in series.split.test]
    fresh = model.initialize(config, series.catalogs)
    saved: list[bytes] = []

    def save():
        store.save(ckpt)
        return ckpt.read_bytes()

    def check_save(data):
        saved.append(data)
        return [] if data == saved[0] else ["repeated save wrote different bytes"]

    ops = [
        ("predict", "predict_ms", 1e3,
         lambda: [model.predict(series, consts, test_samples[0], store, config)], check_scores),
        ("evaluate", "evaluate_s", 1.0,
         lambda: _evaluate(records, series, consts, test_samples, store, config), check_reports),
        ("save", "checkpoint_save_ms", 1e3, save, check_save),
        ("load", "checkpoint_load_ms", 1e3, lambda: fresh.load(ckpt),
         lambda _: check_bit_identical(trained, fresh)),
    ]
    reports = None
    rounds = 0
    while rounds < MIN_ROUNDS or (time.perf_counter() < until and rounds < MAX_ROUNDS):
        for op, metric, scale, fn, check in ops:
            out, elapsed, ok = ledger.timed(op, fn, check)
            if ok:
                samples[metric].append(scale * elapsed)
                if op == "evaluate" and reports is None:
                    reports = out
        rounds += 1
    return reports


# ---- traced-run extras


def _trace_metrics(ledger, tracers, first, second, series, consts, config, store, records,
                   ckpt, data_dir, samples) -> dict[str, float]:
    """Per-layer metrics: timings go into ``samples``, single values are returned."""
    out: dict[str, float] = {}
    setup = by_name(tracers["setup"].spans)
    for metric, span in (("snapshots.ingest_s", "snapshots.ingest"),
                         ("snapshots.build_s", "snapshots.build"),
                         ("snapshots.build_windows_s", "snapshots.build_windows"),
                         ("model.build_constants_s", "model.build_constants")):
        samples[metric] = setup[span]
    out["snapshots.records"] = len(records)
    out["snapshots.records_per_s"] = len(records) / (median(setup["snapshots.ingest"])
                                                     + median(setup["snapshots.build"]))

    spans = tracers["train"].spans
    root = roots_of(spans)
    own = self_times(spans)
    step_root = [s.parent == NO_PARENT and s.name in STEP_ROOTS for s in spans]
    in_step = [step_root[root[i]] for i in range(len(spans))]
    roots = [i for i in range(len(spans)) if step_root[i]]
    durations = by_name([spans[i] for i in roots])
    steps = len(durations["autodiff.adam_step"])
    samples["model.forward_ms"] = [1e3 * d for d in durations["model.forward"]]
    samples["model.forward_self_ms"] = [1e3 * own[i] for i in roots
                                        if spans[i].name == "model.forward"]
    samples["autodiff.backward_ms"] = [1e3 * d for d in durations["autodiff.backward"]]
    samples["autodiff.adam_step_ms"] = [1e3 * d for d in durations["autodiff.adam_step"]]

    matmuls = [s.counts for i, s in enumerate(spans) if in_step[i] and s.name == "autodiff.matmul"]
    out["autodiff.matmul.calls_per_step"] = len(matmuls) / steps
    out["autodiff.matmul.gflop_per_step"] = sum(
        2.0 * m * k * n * (1 + ga + gb) for m, k, n, ga, gb in matmuls) / steps / 1e9

    encoded: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if in_step[i] and s.name in ENCODER_SPANS:
            encoded[root[i]].append(s.counts[0])
    scored_rows = sum(spans[r].counts[0] * len(rows) for r, rows in encoded.items())
    encoded_rows = sum(sum(rows) for rows in encoded.values())
    out["encoders.rows_per_step"] = encoded_rows / steps
    out["model.encoded_rows_used"] = scored_rows / encoded_rows

    # overhead: the traced second run against the untraced first one; the
    # step medians keep the first run's slow opening steps out
    untraced_opt, untraced_val = epoch_estimate(first.epochs)
    traced_opt, traced_val = epoch_estimate(second.epochs)
    out["trace.overhead_ratio"] = (traced_opt + traced_val) / (untraced_opt + untraced_val)
    steps_per_epoch = len(first.epochs[0].steps)
    out["trace.untraced_step_ms"] = 1e3 * untraced_opt / steps_per_epoch
    # self time of every span inside a step sums to the step's top-level
    # spans; rebuilt from medians the same way as the step time it is set against
    covered: list[tuple[int, float]] = []
    for i in roots:
        if spans[i].name == "model.forward":
            covered.append((spans[i].counts[0], 0.0))
        width, total = covered[-1]
        covered[-1] = (width, total + spans[i].duration)
    covered_s, _ = epoch_estimate([Epoch(0, 0.0, 0.0, covered, 0.0)])
    out["trace.self_ms_per_step"] = 1e3 * covered_s / len(second.epochs) / steps_per_epoch
    out["trace.accounted_share"] = out["trace.self_ms_per_step"] / out["trace.untraced_step_ms"]

    evaluated = by_name(tracers["evaluate"].spans)
    for metric, span in (("evaluate.mom_baseline_ms", "evaluate.mom_baseline"),
                         ("evaluate.community_aucs_ms", "evaluate.community_aucs"),
                         ("evaluate.evaluate_predictions_ms", "evaluate.evaluate_predictions"),
                         ("predictions.top_lists_ms", "predictions.top_lists")):
        samples[metric] = [1e3 * d for d in evaluated[span]]
    out["autodiff.checkpoint_bytes"] = os.path.getsize(ckpt)

    out.update(_isolated(series, consts, config, store, samples))

    argv = ["predict", "--data", str(data_dir), "--checkpoint", str(ckpt), "--top", "10"]
    printed = io.StringIO()

    def predict_cli():
        with contextlib.redirect_stdout(printed):
            return cli.main(argv)

    def check_cli(code):
        lines = printed.getvalue().splitlines()
        problems = [] if code == 0 else [f"trendgraph predict exited with {code}"]
        if len(lines) != series.catalogs.n_communities + 1:
            problems.append(f"trendgraph predict printed {len(lines)} lines, expected "
                            f"{series.catalogs.n_communities + 1}")
        return problems

    _, elapsed, ok = ledger.timed("cli-predict", predict_cli, check_cli)
    if ok:
        samples["cli.predict_s"].append(elapsed)
    return out


def _detach(value):
    """A fresh leaf with the same value and gradient need, so a replayed layer's
    backward stops at its own inputs."""
    if isinstance(value, autodiff.Node):
        if value.op in ("param", "const"):
            return value
        if value.needs_grad:
            return autodiff.parameter(value.value)
        return autodiff.constant(value.value)
    if isinstance(value, list):
        return [_detach(v) for v in value]
    return value


def _scalar(out) -> autodiff.Node:
    parts = out if isinstance(out, list) else [out]
    total = autodiff.sum_all(parts[0])
    for part in parts[1:]:
        total = autodiff.add(total, autodiff.sum_all(part))
    return total


def _graph_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _isolated(series, consts, config, store, samples) -> dict[str, float]:
    """Forward and backward of each layer on one real training step's inputs.

    One forward of the first training window's first batch records the
    arguments of every layer call; each layer is then called again on
    detached copies of its last recorded arguments, and ``autodiff.backward``
    of the summed output is timed separately.  The same step's graph gives
    the node count and the share of parameters that receive a gradient.
    """
    sample = series.samples[series.split.train[0]]
    a1 = min(config.batch_size, series.catalogs.n_attributes)
    capture = Tracer()
    targets = [(mod, fn, fn, lambda args, kwargs, out: (args, kwargs))
               for mod, fn, _ in ISOLATED_LAYERS]
    with capture.installed(targets):
        scores = model.forward(series, consts, sample, store, config, attr_range=(0, a1))
    calls = {s.name: s.counts for s in capture.spans}

    loss = model.bce_loss(scores, sample.labels[:, :a1], sample.validity[:, :a1],
                          eps=config.bce_eps)
    out = {"autodiff.nodes_per_step": _graph_size(loss)}
    store.zero_grads()
    autodiff.backward(loss)
    sizes = [node.value.size for _, node in store.items()]
    nonzero = [int(np.count_nonzero(node.grad)) for _, node in store.items()]
    out["autodiff.adam.params"] = sum(sizes)
    out["autodiff.adam.nonzero_grad_share"] = sum(nonzero) / sum(sizes)
    store.zero_grads()

    for mod, fn, has_backward in ISOLATED_LAYERS:
        args, kwargs = calls[fn]
        layer = getattr(mod, fn)
        prefix = _layer_prefix(mod, fn)
        for _ in range(LAYER_REPEATS):
            a = [_detach(v) for v in args]
            k = {key: _detach(v) for key, v in kwargs.items()}
            started = time.perf_counter()
            result = layer(*a, **k)
            samples[f"{prefix}.fwd_ms"].append(1e3 * (time.perf_counter() - started))
            if has_backward:
                total = _scalar(result)
                started = time.perf_counter()
                autodiff.backward(total)
                samples[f"{prefix}.bwd_ms"].append(1e3 * (time.perf_counter() - started))
                store.zero_grads()
    return out
