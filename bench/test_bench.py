"""Tests of the benchmark itself, on the seconds-long ``tiny`` workload.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import harness
from tracer import NO_PARENT, Tracer, roots_of, self_times
from trendgraph import model, synthetic
from trendgraph.synthetic import GeneratorConfig

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result = run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def test_contract_lists_the_metrics_the_harness_defines():
    for section, defined in (("end_to_end", harness.END_TO_END),
                             ("per_layer", harness.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in CONTRACT[section]]
        assert listed == list(defined)
    assert {w["name"] for w in CONTRACT["workloads"]} == set(harness.WORKLOADS) - {"tiny"}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    spec = harness.WORKLOADS["tiny"]
    csv_path, _ = synthetic.write_dataset(
        synthetic.generate(GeneratorConfig(seed=3, **spec.generator)), data)
    config = model.ModelConfig(batch_size=spec.batch_size, max_epochs=1, seed=3)
    records, series, consts = harness._setup(csv_path, config)
    store = model.train(series, config, consts=consts).store
    return series, consts, config, store


def corrupted_copy(series, config, store, name):
    copy = model.initialize(config, series.catalogs)
    values = store.snapshot_values()
    values[name][0, 0] = np.nan
    copy.restore_values(values)
    return copy


def test_nan_in_a_store_copy_is_a_failed_predict(trained):
    series, consts, config, store = trained
    bad = corrupted_copy(series, config, store, "combine_bias")
    sample = series.samples[series.split.test[0]]
    ledger = harness.Ledger()
    _, _, ok = ledger.timed("predict", lambda: [model.predict(series, consts, sample, store, config)],
                            harness.check_scores)
    assert ok and ledger.failed == 0
    _, _, ok = ledger.timed("predict", lambda: [model.predict(series, consts, sample, bad, config)],
                            harness.check_scores)
    assert not ok
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures[0][0] == "predict" and "non-finite" in ledger.failures[0][1]


def test_truncated_checkpoint_copy_is_a_failed_load(trained, tmp_path):
    series, consts, config, store = trained
    good = tmp_path / "model.ckpt"
    store.save(good)
    data = good.read_bytes()
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(data[: len(data) // 2])
    expected = store.snapshot_values()
    fresh = model.initialize(config, series.catalogs)
    ledger = harness.Ledger()
    for path in (good, truncated):
        ledger.timed("load", lambda: fresh.load(path),
                     lambda _: harness.check_bit_identical(expected, fresh))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures[0][0] == "load"


def test_checkpoint_with_a_changed_value_fails_the_round_trip(trained, tmp_path):
    series, consts, config, store = trained
    bad = corrupted_copy(series, config, store, "ar_bias")
    path = tmp_path / "model.ckpt"
    bad.save(path)
    fresh = model.initialize(config, series.catalogs)
    fresh.load(path)
    problems = harness.check_bit_identical(store.snapshot_values(), fresh)
    assert problems == ["parameter 'ar_bias' is not bit-identical"]


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert harness.trimmed_mean([100.0] + [1.0] * 8 + [0.0]) == 1.0
    assert math.isnan(harness.trimmed_mean([]))


def test_differing_epoch_losses_are_reported():
    assert harness.check_same_losses([3.5, 2.25], [3.5, 2.25]) == []
    assert harness.check_same_losses([3.5, 2.25], [3.5, 2.2500000000000004])


def test_tracer_records_nesting_and_restores_originals():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer = Tracer()
    with tracer.installed([(module, "outer", "outer", None),
                           (module, "inner", "inner", lambda args, kwargs, out: (out,))]):
        assert module.outer(1) == 4
        assert module.inner(5) == 6
    assert (module.inner, module.outer) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [NO_PARENT, 0, NO_PARENT]
    assert roots_of(tracer.spans) == [0, 0, 2]
    assert tracer.spans[1].counts == (2,)
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration)
    assert own[2] == tracer.spans[2].duration
