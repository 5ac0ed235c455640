"""Command-line entry point wiring generation, training, and evaluation.

Every command resolves its configuration from built-in defaults, then an
optional flat key=value config file, then command-line overrides, and
writes the resolved result next to its outputs so any run can be replayed.
Exit codes: 0 success, 1 usage error (including a path that cannot be read
or written), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as md
from .errors import DataError, NumericalError, UsageError
from .evaluate import evaluate_predictions, mom_baseline
from .model import ModelConfig
from .snapshots import MonthlySales, SnapshotSeries, filter_min_sales, ingest, write_interactions
from .synthetic import GeneratorConfig, generate, write_dataset

RESOLVED_CONFIG_NAME = "config.resolved"
CHECKPOINT_NAME = "model.ckpt"
EPOCH_LOG_NAME = "epochs.ndjson"


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems through UsageError."""

    def error(self, message):
        raise UsageError(message)


def _parse_value(raw: str, annotation):
    if annotation == "int":
        return int(raw)
    if annotation == "float":
        return float(raw)
    if annotation.startswith("tuple[float"):
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    raise ValueError(f"unsupported config field type {annotation!r}")


def _field_types(cls) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(cls)}


_MODEL_FIELDS = _field_types(ModelConfig)
_GENERATOR_FIELDS = _field_types(GeneratorConfig)


def read_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"bad config line {lineno}: {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(cls, fields: dict[str, str], raw: dict[str, str], overrides: dict[str, str]):
    known_elsewhere = set(_MODEL_FIELDS) | set(_GENERATOR_FIELDS)
    values = {}
    for source in (raw, overrides):
        for key, value in source.items():
            if key in fields:
                try:
                    values[key] = _parse_value(value, fields[key])
                except ValueError as exc:
                    raise UsageError(f"bad config value for {key}: {exc}") from None
            elif key not in known_elsewhere:
                raise UsageError(f"unknown config key {key!r}")
    config = cls(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from None
    return config


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return overrides


def _load_configs(args) -> tuple[ModelConfig, GeneratorConfig]:
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        raw = read_config_file(path)
    overrides = _collect_overrides(args)
    model_config = _resolve(ModelConfig, _MODEL_FIELDS, raw, overrides)
    generator_config = _resolve(GeneratorConfig, _GENERATOR_FIELDS, raw, overrides)
    return model_config, generator_config


def write_resolved(config, out_dir: Path, notes: dict | None = None) -> None:
    """``config`` as key=value lines, then ``notes`` as # comments, which a replay skips."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{f.name}={value}")
    for key, value in (notes or {}).items():
        lines.append(f"# {key}={value}")
    (out_dir / RESOLVED_CONFIG_NAME).write_text("\n".join(lines) + "\n",
                                                encoding="utf-8", newline="\n")


def _load_monthly(data_dir) -> tuple:
    path = Path(data_dir) / "interactions.csv"
    if not path.exists():
        raise UsageError(f"interaction file not found: {path}")
    return ingest(path)


def _load_series(data_dir, model_config: ModelConfig) -> SnapshotSeries:
    catalogs, monthly = _load_monthly(data_dir)
    return SnapshotSeries.build(monthly, catalogs, window_length=model_config.window_length,
                                k_percent=model_config.k_percent)


def cmd_generate(args) -> int:
    _, generator_config = _load_configs(args)
    try:
        dataset = generate(generator_config)
    except ValueError as exc:   # rates that overflow the Poisson draw
        raise UsageError(f"bad config: {exc}") from None
    out = Path(args.out)
    interactions, annotations = write_dataset(dataset, out)
    write_resolved(generator_config, out)
    print(f"wrote {len(dataset.monthly)} interactions to {interactions}")
    print(f"wrote {len(dataset.annotations)} onset annotations to {annotations}")
    return 0


def cmd_ingest(args) -> int:
    model_config, _ = _load_configs(args)
    source = Path(args.input)
    if not source.exists():
        raise UsageError(f"input file not found: {source}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    catalogs, monthly = ingest(source)
    filtered_catalogs, filtered = filter_min_sales(monthly, catalogs, args.min_sales)
    target = out / "interactions.csv"
    write_interactions(target, filtered_catalogs, filtered)
    write_resolved(model_config, out, notes={"min_sales": args.min_sales,
                                             "kept_attributes": filtered_catalogs.n_attributes,
                                             "dropped_attributes": catalogs.n_attributes - filtered_catalogs.n_attributes})
    print(f"kept {filtered_catalogs.n_attributes} of {catalogs.n_attributes} attributes "
          f"(min sales {args.min_sales} in month {monthly.last_month if monthly.months else '-'})")
    print(f"wrote {len(filtered)} records to {target}")
    return 0


def cmd_train(args) -> int:
    model_config, _ = _load_configs(args)
    series = _load_series(args.data, model_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / EPOCH_LOG_NAME
    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        def on_epoch(record: md.EpochRecord) -> None:
            log.write(json.dumps({"epoch": record.epoch,
                                  "train_loss": record.train_loss,
                                  "validation_auc": record.validation_auc},
                                 sort_keys=True) + "\n")
            shown = "-" if record.validation_auc is None else f"{record.validation_auc:.4f}"
            print(f"epoch {record.epoch}: loss {record.train_loss:.2f} "
                  f"val-auc {shown} ({record.wall_seconds:.1f}s)")

        result = md.train(series, model_config, log_cb=on_epoch)
    result.store.save(out / CHECKPOINT_NAME)
    # the BLAS thread count changes the trained bytes, so the run records it
    threads = "unset" if ad.BLAS_THREADS is None else ad.BLAS_THREADS
    write_resolved(model_config, out, notes={"blas_threads": threads})
    best = ("-" if result.best_epoch is None
            else f"{result.best_validation_auc:.4f} at epoch {result.best_epoch}")
    print(f"saved checkpoint to {out / CHECKPOINT_NAME} (best validation AUC {best})")
    return 0


def _restore_model(args, model_config: ModelConfig, series):
    checkpoint = Path(args.checkpoint)
    if not checkpoint.exists():
        raise UsageError(f"checkpoint not found: {checkpoint} (train first or pass --checkpoint)")
    store = md.initialize(model_config, series.catalogs)
    try:
        store.load(checkpoint)
    except ValueError as exc:
        # wrong parameter names or shapes for this config, or a damaged file
        raise UsageError(f"cannot load checkpoint {checkpoint}: {exc}") from None
    for name, node in store.items():
        if not np.all(np.isfinite(node.value)):
            raise UsageError(f"cannot load checkpoint {checkpoint}: "
                             f"non-finite value in parameter '{name}'")
    return store


def _checkpoint_config(args) -> None:
    """When no --config is given, prefer the resolved config beside the checkpoint."""
    if getattr(args, "config", None):
        return
    checkpoint = getattr(args, "checkpoint", None)
    if not checkpoint:
        return
    sibling = Path(checkpoint).parent / RESOLVED_CONFIG_NAME
    if sibling.exists():
        args.config = str(sibling)


def _check_top(args) -> None:
    if args.top < 1:
        raise UsageError(f"--top must be at least 1, got {args.top}")


def cmd_evaluate(args) -> int:
    _check_top(args)
    _checkpoint_config(args)
    model_config, _ = _load_configs(args)
    series = _load_series(args.data, model_config)
    if not series.split.test:
        raise DataError("no test window available")
    store = _restore_model(args, model_config, series)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    consts = md.build_constants(series, model_config)
    test_samples = [series.samples[i] for i in series.split.test]
    model_preds = [md.predict(series, consts, s, store, model_config) for s in test_samples]
    mom_preds = [mom_baseline(series.monthly, series.catalogs, s.target_month)
                 for s in test_samples]
    reports = {}
    for name, preds in (("model", model_preds), ("mom", mom_preds)):
        report = evaluate_predictions(preds, test_samples, series.catalogs, top_n=args.top)
        (out / f"report_{name}.txt").write_text(report.to_text(), encoding="utf-8", newline="\n")
        (out / f"report_{name}.ndjson").write_text(report.to_ndjson(), encoding="utf-8", newline="\n")
        reports[name] = report
    write_resolved(model_config, out)
    for name, report in reports.items():
        shown = "undefined" if report.macro_auc is None else f"{report.macro_auc:.4f}"
        print(f"{name} macro AUC: {shown}")
    return 0


def cmd_predict(args) -> int:
    _check_top(args)
    _checkpoint_config(args)
    model_config, _ = _load_configs(args)
    catalogs, monthly = _load_monthly(args.data)
    length = model_config.window_length
    if len(monthly.months) < length:
        raise DataError(f"predict needs window_length={length} months "
                        f"of history, data covers only {len(monthly.months)}")
    # one window ending at the last month, and constants for its months alone
    window = MonthlySales(monthly.last_month - length + 1, monthly.sales[-length:])
    series = SnapshotSeries(catalogs=catalogs, monthly=window)
    store = _restore_model(args, model_config, series)
    consts = md.build_constants(series, model_config)
    last = window.last_month
    shape = (series.catalogs.n_communities, series.catalogs.n_attributes)
    sample = md.TrendSample(window_months=tuple(window.months), target_month=last + 1,
                            labels=np.zeros(shape), validity=np.zeros(shape))
    prediction = md.predict(series, consts, sample, store, model_config)
    top = prediction.top_lists(args.top)
    print(f"predicted trending attributes for month {last + 1}:")
    for k, community in enumerate(series.catalogs.communities):
        tags = " ".join(series.catalogs.attributes[j] for j in top[k])
        print(f"{community}: {tags}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="trendgraph",
                     description="Community attribute-trend prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the seed")

    p = sub.add_parser("generate", help="write a synthetic interaction dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="validate, filter and normalize an interaction file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--min-sales", type=int, default=100,
                   help="drop attributes below this latest-month total (default 100)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model on an interaction dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against the test window")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="rank next month's trending attributes")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UsageError.exit_code
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DataError.exit_code
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NumericalError.exit_code
    except OSError as exc:     # a path that cannot be read or written; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return UsageError.exit_code


if __name__ == "__main__":
    sys.exit(main())
