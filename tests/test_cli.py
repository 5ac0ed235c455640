import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from trendgraph import autodiff as ad
from trendgraph import cli, snapshots
from trendgraph.autodiff import ParameterStore
from trendgraph.model import ModelConfig
from trendgraph.synthetic import GeneratorConfig

TINY = [
    "communities=3",
    "attributes=24",
    "months=25",
    "onset_rate=0.1",
    "eligible_band=0.1,0.6",
    "cluster_size=4",
    "d=6",
    "batch_size=24",
    "max_epochs=3",
    "learning_rate=0.01",
    "seed=5",
]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join(TINY) + "\n")
    return str(path)


@pytest.fixture
def data_dir(tmp_path, tiny_config):
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, tiny_config, data_dir):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                     "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_resolved_config(self, data_dir):
        assert (data_dir / "interactions.csv").exists()
        assert (data_dir / "annotations.csv").exists()
        resolved = (data_dir / "config.resolved").read_text()
        assert "attributes=24" in resolved
        assert "seed=5" in resolved

    def test_replays_from_its_resolved_config(self, tmp_path, data_dir):
        resolved = data_dir / "config.resolved"
        keys = [line.partition("=")[0] for line in resolved.read_text().splitlines()]
        assert keys == ["communities", "attributes", "months", "onset_rate", "noise", "seed",
                        "surge_factor", "cluster_size", "eligible_band"]
        replay = tmp_path / "replay"
        assert cli.main(["generate", "--config", str(resolved), "--out", str(replay)]) == 0
        assert (replay / "interactions.csv").read_bytes() == \
            (data_dir / "interactions.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, tiny_config, data_dir):
        other = tmp_path / "data2"
        assert cli.main(["generate", "--config", tiny_config, "--seed", "99",
                         "--out", str(other)]) == 0
        assert (other / "interactions.csv").read_bytes() != \
               (data_dir / "interactions.csv").read_bytes()


class TestIngest:
    def test_filters_and_rewrites(self, tmp_path, data_dir):
        out = tmp_path / "ingested"
        code = cli.main(["ingest", "--input", str(data_dir / "interactions.csv"),
                         "--min-sales", "40", "--out", str(out)])
        assert code == 0
        text = (out / "interactions.csv").read_text().splitlines()
        assert text[0] == "month,community,attribute,sales"
        assert len(text) > 1
        assert "min_sales=40" in (out / "config.resolved").read_text()

    def test_replays_from_its_resolved_config(self, tmp_path, data_dir):
        source = str(data_dir / "interactions.csv")
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert cli.main(["ingest", "--input", source, "--min-sales", "40",
                         "--out", str(first)]) == 0
        assert cli.main(["ingest", "--config", str(first / "config.resolved"), "--input", source,
                         "--min-sales", "40", "--out", str(replay)]) == 0
        assert (replay / "interactions.csv").read_bytes() == \
            (first / "interactions.csv").read_bytes()

    def test_its_resolved_config_trains(self, tmp_path, data_dir):
        out = tmp_path / "ingested"
        assert cli.main(["ingest", "--input", str(data_dir / "interactions.csv"),
                         "--min-sales", "40", "--out", str(out)]) == 0
        assert cli.main(["train", "--data", str(out), "--config", str(out / "config.resolved"),
                         "--set", "max_epochs=1", "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "model.ckpt").exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        code = cli.main(["ingest", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "x")])
        assert code == 1

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("month,community,attribute,sales\n1,c1,a1,-3\n")
        code = cli.main(["ingest", "--input", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_output_is_sorted_summed_and_filtered(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join([
            "month,community,attribute,sales",
            "3,c2,a2,60",
            "1,c1,a1,5",
            "3,c1,a3,9",       # a3 totals 9 + 1 = 10 in month 3, below --min-sales 40
            "2,c1,a2,0",       # zero sales: no cell
            "3,c1,a1,30",
            "2,c2,a1,4",
            "3,c1,a1,15",      # duplicate cell: summed with the row above
            "1,c2,a3,7",
            "3,c2,a3,1",
            "2,c1,a2,8",
        ]) + "\n")
        out = tmp_path / "ingested"
        code = cli.main(["ingest", "--input", str(raw), "--min-sales", "40", "--out", str(out)])
        assert code == 0
        # catalog order is first appearance on a positive row: c2, c1 and a2, a1, a3
        assert (out / "interactions.csv").read_bytes() == (
            b"month,community,attribute,sales\n"
            b"1,c1,a1,5\n"
            b"2,c2,a1,4\n"
            b"2,c1,a2,8\n"
            b"3,c2,a2,60\n"
            b"3,c1,a1,45\n")
        resolved = (out / "config.resolved").read_text()
        assert "kept_attributes=2" in resolved and "dropped_attributes=1" in resolved

    def test_ids_that_need_quoting_survive_a_second_ingest(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text('month,community,attribute,sales\n'
                       '1,c1,"a,b",5\n'
                       '1,"say ""hi""",plain,3\n'
                       '2,c1,"a,b",7\n')
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["ingest", "--input", str(raw), "--min-sales", "0",
                         "--out", str(first)]) == 0
        assert cli.main(["ingest", "--input", str(first / "interactions.csv"),
                         "--min-sales", "0", "--out", str(second)]) == 0
        catalogs, monthly = snapshots.ingest(raw)
        assert catalogs.communities == ("c1", 'say "hi"')
        assert catalogs.attributes == ("a,b", "plain")
        for out in (first, second):
            again_catalogs, again = snapshots.ingest(out / "interactions.csv")
            assert again_catalogs == catalogs
            assert again.sales.tobytes() == monthly.sales.tobytes()
        assert (second / "interactions.csv").read_bytes() == \
            (first / "interactions.csv").read_bytes()

    def test_header_only_input_writes_a_header_only_file(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("month,community,attribute,sales\n")
        out = tmp_path / "ingested"
        assert cli.main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
        assert (out / "interactions.csv").read_bytes() == b"month,community,attribute,sales\n"


class TestTrain:
    def test_writes_checkpoint_log_and_config(self, run_dir):
        assert (run_dir / "model.ckpt").exists()
        lines = (run_dir / "epochs.ndjson").read_text().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "validation_auc"}
        assert (run_dir / "config.resolved").exists()

    def test_reports_the_first_epoch_of_the_best_validation_auc(self, capsys, run_dir):
        # capsys is set up before run_dir, so it holds the training run's console
        records = [json.loads(line)
                   for line in (run_dir / "epochs.ndjson").read_text().splitlines()]
        best = max(record["validation_auc"] for record in records)
        epoch = next(r["epoch"] for r in records if r["validation_auc"] == best)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"saved checkpoint to {run_dir / 'model.ckpt'} "
            f"(best validation AUC {best:.4f} at epoch {epoch})")

    @pytest.mark.parametrize("environ, recorded", [
        ({"OPENBLAS_NUM_THREADS": "1"}, "1"),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "2"),
        ({"OMP_NUM_THREADS": "3"}, "3"),
        ({}, "unset"),
    ])
    def test_records_the_blas_thread_count_and_a_replay_skips_it(
            self, tmp_path, tiny_config, data_dir, monkeypatch, environ, recorded):
        # the count that ``environ`` gives at import is recorded; the environment
        # at the end of training, which BLAS never reads, is not
        monkeypatch.setattr(ad, "BLAS_THREADS", ad.blas_threads(environ))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert cli.main(["train", "--config", tiny_config, "--set", "max_epochs=1",
                         "--data", str(data_dir), "--out", str(first)]) == 0
        resolved = (first / "config.resolved").read_text()
        assert resolved.endswith(f"\n# blas_threads={recorded}\n")
        assert cli.main(["train", "--config", str(first / "config.resolved"),
                         "--data", str(data_dir), "--out", str(replay)]) == 0
        assert (replay / "config.resolved").read_text() == resolved
        assert (replay / "model.ckpt").read_bytes() == (first / "model.ckpt").read_bytes()

    def test_insufficient_history_is_data_error(self, tmp_path, tiny_config):
        short = tmp_path / "short"
        assert cli.main(["generate", "--config", tiny_config, "--set", "months=13",
                         "--out", str(short)]) == 0
        code = cli.main(["train", "--config", tiny_config, "--data", str(short),
                         "--out", str(tmp_path / "r")])
        assert code == 2

    def test_non_utf8_csv_is_data_error_naming_the_file(self, tmp_path, tiny_config,
                                                         data_dir, capsys):
        latin = tmp_path / "latin"
        latin.mkdir()
        rows = (data_dir / "interactions.csv").read_bytes().splitlines(keepends=True)
        rows[5] = rows[5].replace(b",c", b",\xffc", 1)
        (latin / "interactions.csv").write_bytes(b"".join(rows))
        code = cli.main(["train", "--config", tiny_config, "--data", str(latin),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"{latin / 'interactions.csv'}: not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, data_dir, capsys):
        # the others are keys that older run or data directories' config.resolved hold
        for item in ("nonsense=1", "ar_shared=true", "sales_conv_axis=time", "lr_grid=0.01",
                     "latent_dim=8", "cluster_onsets=true", "sage_layers=2", "hyper_layers=2",
                     "ablation=gru-only", "alpha_grid=0.0,1.0"):
            code = cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                             "--set", item])
            assert code == 1, item
            key = item.partition("=")[0]
            assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, named", [
        (["train", "--data", "d", "--out", "r", "--set", "alpha=2"],
         "alpha must be in [0, 1], got 2.0"),
        (["train", "--data", "d", "--out", "r", "--set", "batch_size=0"],
         "batch_size must be at least 1, got 0"),
        (["generate", "--out", "r", "--set", "months=5"], "months must be >= 13, got 5"),
        (["generate", "--out", "r", "--set", "eligible_band=0.5"],
         "eligible_band must be two values lo,hi, got (0.5,)"),
        (["train", "--data", "d", "--out", "r", "--set", "bce_eps=0.7"],
         "bce_eps must be in (0, 0.5), got 0.7"),
        (["train", "--data", "d", "--out", "r", "--set", "bce_eps=-1"],
         "bce_eps must be in (0, 0.5), got -1.0"),
        (["generate", "--out", "r", "--set", "surge_factor=nan"],
         "surge_factor must be finite and >= 1, got nan"),
        (["generate", "--out", "r", "--set", "surge_factor=inf"],
         "surge_factor must be finite and >= 1, got inf"),
        # finite, but its rates overflow the Poisson draw
        (["generate", "--out", "r", "--set", "surge_factor=1e200"], "surge_factor=1e+200 "),
        (["generate", "--out", "r", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["generate", "--out", "r", "--set", "seed=-1"], "seed must be >= 0, got -1"),
        (["train", "--data", "d", "--out", "r", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["alpha", "batch_size", "months", "eligible_band",
            "bce_eps_above_half", "bce_eps_negative", "surge_factor_nan", "surge_factor_inf",
            "surge_factor_overflow", "seed_generate", "seed_generate_set", "seed_train"])
    def test_invalid_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()


class TestConfigDocs:
    def test_readme_key_tables_name_every_config_field(self):
        """The README's two key tables name each field of both configs, and
        no key that neither config has."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Key config fields", 1)[1].split("\n## ", 1)[0]
        named = {key for line in section.splitlines() if line.startswith("| `")
                 for key in re.findall(r"`(\w+)`", line.split("|")[1])}
        fields = {f.name for cls in (ModelConfig, GeneratorConfig)
                  for f in dataclasses.fields(cls)}
        assert named == fields


class TestConfigFile:
    def test_non_utf8_config_is_usage_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"communities=3\n# caf\xe9\n")
        code = cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config file {path} is not UTF-8" in err
        assert not (tmp_path / "d").exists()

    def test_directory_as_config_is_usage_error_naming_it(self, tmp_path, capsys):
        folder = tmp_path / "folder.cfg"
        folder.mkdir()
        code = cli.main(["generate", "--config", str(folder), "--out", str(tmp_path / "d")])
        assert code == 1
        assert f"cannot read config file {folder}" in capsys.readouterr().err


class TestRemoved:
    def test_sweep_alpha_is_usage_error(self, tmp_path, capsys):
        # one run per alpha is train --set alpha=... followed by evaluate
        code = cli.main(["sweep-alpha", "--data", str(tmp_path), "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'sweep-alpha'" in err
        assert not (tmp_path / "s").exists()

    def test_alpha_grid_in_a_checkpoint_config_is_usage_error(self, tmp_path, data_dir,
                                                              run_dir, capsys):
        # a config.resolved written before the key went holds it after learning_rate
        old = tmp_path / "old"
        old.mkdir()
        (old / "model.ckpt").write_bytes((run_dir / "model.ckpt").read_bytes())
        (old / "config.resolved").write_text((run_dir / "config.resolved").read_text().replace(
            "\nbatch_size=", "\nalpha_grid=0.0,0.25,0.5,0.75,1.0\nbatch_size="))
        code = cli.main(["evaluate", "--data", str(data_dir), "--checkpoint",
                         str(old / "model.ckpt"), "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "unknown config key 'alpha_grid'" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


class TestEvaluate:
    def test_writes_model_and_mom_reports(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--data", str(data_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"),
                         "--out", str(out)])
        assert code == 0
        for name in ("report_model.txt", "report_model.ndjson",
                     "report_mom.txt", "report_mom.ndjson", "config.resolved"):
            assert (out / name).exists(), name
        row = json.loads((out / "report_model.ndjson").read_text().splitlines()[0])
        assert set(row) == {"community", "auc", "positives", "negatives", "topn"}

    def test_top_below_one_is_usage_error(self, tmp_path, data_dir, run_dir, capsys):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--data", str(data_dir), "--checkpoint",
                         str(run_dir / "model.ckpt"), "--out", str(out), "--top", "0"])
        assert code == 1
        assert "--top must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_names_the_artifact(self, tmp_path, data_dir, capsys):
        code = cli.main(["evaluate", "--data", str(data_dir),
                         "--checkpoint", str(tmp_path / "missing.ckpt"),
                         "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_sibling_config_is_picked_up(self, tmp_path, data_dir, run_dir):
        # no --config: evaluate must reuse the resolved config written by train
        out = tmp_path / "eval2"
        code = cli.main(["evaluate", "--data", str(data_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"),
                         "--out", str(out)])
        assert code == 0
        assert "d=6" in (out / "config.resolved").read_text()

    def evaluate_damaged(self, tmp_path, data_dir, run_dir, checkpoint_bytes, capsys, *extra):
        """Evaluate a checkpoint with the given contents beside the trained run's config."""
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        (damaged / "config.resolved").write_bytes((run_dir / "config.resolved").read_bytes())
        checkpoint = damaged / "model.ckpt"
        checkpoint.write_bytes(checkpoint_bytes)
        code = cli.main(["evaluate", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / "eval"), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert str(checkpoint) in err
        return err

    def test_checkpoint_with_an_unknown_parameter_is_usage_error(self, tmp_path, data_dir,
                                                                 run_dir, capsys):
        store = ParameterStore()
        for name, value in ParameterStore.read_checkpoint(run_dir / "model.ckpt").items():
            store.register(name, value)
        store.register("attribute_embed", np.zeros((24, 6)))
        store.save(tmp_path / "old.ckpt")
        err = self.evaluate_damaged(tmp_path, data_dir, run_dir,
                                    (tmp_path / "old.ckpt").read_bytes(), capsys)
        assert "unexpected ['attribute_embed']" in err

    def test_checkpoint_of_another_width_is_usage_error(self, tmp_path, data_dir, run_dir,
                                                        capsys):
        err = self.evaluate_damaged(tmp_path, data_dir, run_dir,
                                    (run_dir / "model.ckpt").read_bytes(), capsys,
                                    "--set", "d=4")
        assert "do not conform" in err

    def test_truncated_checkpoint_is_usage_error(self, tmp_path, data_dir, run_dir, capsys):
        data = (run_dir / "model.ckpt").read_bytes()
        self.evaluate_damaged(tmp_path, data_dir, run_dir, data[:len(data) // 2], capsys)

    def test_non_finite_checkpoint_is_usage_error(self, tmp_path, data_dir, run_dir, capsys):
        err = self.evaluate_damaged(tmp_path, data_dir, run_dir, nan_checkpoint(run_dir), capsys)
        assert "non-finite value in parameter 'community_embed'" in err


def nan_checkpoint(run_dir):
    """The trained checkpoint with its first community_embed value replaced by nan."""
    lines = (run_dir / "model.ckpt").read_bytes().split(b"\n")
    row = next(i for i, line in enumerate(lines) if line.startswith(b"community_embed ")) + 1
    lines[row] = b" ".join([b"nan"] + lines[row].split()[1:])
    return b"\n".join(lines)


class TestPredict:
    def test_prints_top_n_per_community(self, data_dir, run_dir, capsys):
        code = cli.main(["predict", "--data", str(data_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"), "--top", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        community_lines = [l for l in lines if l.startswith("c")]
        assert len(community_lines) == 3
        for line in community_lines:
            assert len(line.split(":")[1].split()) == 4

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_usage_error(self, data_dir, run_dir, capsys, top):
        code = cli.main(["predict", "--data", str(data_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"), "--top", top])
        captured = capsys.readouterr()
        assert code == 1
        assert f"--top must be at least 1, got {top}" in captured.err
        assert "predicted" not in captured.out

    @staticmethod
    def last_months(tmp_path, data_dir, n):
        """A data directory holding the last ``n`` months of ``data_dir``."""
        lines = (data_dir / "interactions.csv").read_text().splitlines()
        last = max(int(line.split(",")[0]) for line in lines[1:])
        out = tmp_path / f"last{n}"
        out.mkdir()
        kept = [line for line in lines[1:] if int(line.split(",")[0]) > last - n]
        (out / "interactions.csv").write_text("\n".join(lines[:1] + kept) + "\n")
        return out

    def test_window_length_months_are_enough(self, tmp_path, data_dir, run_dir, capsys):
        short = self.last_months(tmp_path, data_dir, 12)
        with warnings.catch_warnings():
            # no training windows are built, so none can be too few
            warnings.simplefilter("error")
            code = cli.main(["predict", "--data", str(short),
                             "--checkpoint", str(run_dir / "model.ckpt"), "--top", "4"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("predicted trending attributes for month")
        assert len(lines) == 4

    def test_constants_cover_the_window_alone(self, data_dir, run_dir, capsys, monkeypatch):
        built = []
        build = cli.md.build_constants

        def recording(series, config):
            built.append(series.monthly.months)
            return build(series, config)

        monkeypatch.setattr(cli.md, "build_constants", recording)
        code = cli.main(["predict", "--data", str(data_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"), "--top", "4"])
        assert code == 0
        target = int(capsys.readouterr().out.split(":")[0].split()[-1])
        assert built == [range(target - 12, target)]

    def test_fewer_months_than_window_length_is_data_error(self, tmp_path, data_dir,
                                                           run_dir, capsys):
        short = self.last_months(tmp_path, data_dir, 11)
        code = cli.main(["predict", "--data", str(short),
                         "--checkpoint", str(run_dir / "model.ckpt")])
        captured = capsys.readouterr()
        assert code == 2
        assert "window_length=12" in captured.err and "only 11" in captured.err
        assert "predicted" not in captured.out

    def test_non_finite_checkpoint_is_usage_error(self, tmp_path, data_dir, run_dir, capsys):
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        (damaged / "config.resolved").write_bytes((run_dir / "config.resolved").read_bytes())
        (damaged / "model.ckpt").write_bytes(nan_checkpoint(run_dir))
        code = cli.main(["predict", "--data", str(data_dir),
                         "--checkpoint", str(damaged / "model.ckpt")])
        captured = capsys.readouterr()
        assert code == 1
        assert str(damaged / "model.ckpt") in captured.err
        assert "non-finite value in parameter 'community_embed'" in captured.err
        assert "predicted" not in captured.out


def _directory(path):
    path.mkdir(parents=True)
    return path


def _file(path):
    path.write_text("not a directory\n")
    return path


# each case: the argv of a command given a path it cannot read or write, and that path
PATH_CASES = {
    "predict --checkpoint is a directory": lambda tmp, data: (
        ["predict", "--data", str(data), "--checkpoint", str(p := _directory(tmp / "ckpt"))], p),
    "evaluate --checkpoint is a directory": lambda tmp, data: (
        ["evaluate", "--data", str(data), "--checkpoint", str(p := _directory(tmp / "ckpt")),
         "--out", str(tmp / "eval")], p),
    "train --data holds a directory as interactions.csv": lambda tmp, data: (
        ["train", "--data", str(tmp / "d"), "--out", str(tmp / "run")],
        _directory(tmp / "d" / "interactions.csv")),
    "ingest --input is a directory": lambda tmp, data: (
        ["ingest", "--input", str(p := _directory(tmp / "in.csv")), "--out", str(tmp / "i")], p),
    "train --out is a file": lambda tmp, data: (
        ["train", "--data", str(data), "--out", str(p := _file(tmp / "run"))], p),
    "ingest --out is a file": lambda tmp, data: (
        ["ingest", "--input", str(data / "interactions.csv"), "--out",
         str(p := _file(tmp / "i"))], p),
    "generate --out lies under a file": lambda tmp, data: (
        ["generate", "--out", str(_file(tmp / "f") / "d")], tmp / "f" / "d"),
}


class TestPathErrors:
    @pytest.mark.parametrize("case", PATH_CASES)
    def test_exits_1_with_an_error_line_naming_the_path(self, tmp_path, data_dir, capsys, case):
        argv, path = PATH_CASES[case](tmp_path, data_dir)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, work", [("ingest", "ingest"), ("evaluate", "predict")])
    def test_out_is_made_before_the_work(self, tmp_path, data_dir, run_dir, monkeypatch,
                                         capsys, command, work):
        def reached(*args, **kwargs):
            raise AssertionError(f"{command} ran {work} before it made --out")

        monkeypatch.setattr(cli if work == "ingest" else cli.md, work, reached)
        argv = {"ingest": ["ingest", "--input", str(data_dir / "interactions.csv")],
                "evaluate": ["evaluate", "--data", str(data_dir),
                             "--checkpoint", str(run_dir / "model.ckpt")]}[command]
        out = _file(tmp_path / "out")
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


class TestDeterminism:
    def test_end_to_end_reruns_are_byte_identical(self, tmp_path, tiny_config):
        artifacts = {}
        for tag in ("one", "two"):
            data = tmp_path / f"data_{tag}"
            run = tmp_path / f"run_{tag}"
            eval_dir = tmp_path / f"eval_{tag}"
            assert cli.main(["generate", "--config", tiny_config, "--out", str(data)]) == 0
            assert cli.main(["train", "--config", tiny_config, "--data", str(data),
                             "--out", str(run)]) == 0
            assert cli.main(["evaluate", "--data", str(data),
                             "--checkpoint", str(run / "model.ckpt"),
                             "--out", str(eval_dir)]) == 0
            artifacts[tag] = {
                "interactions": (data / "interactions.csv").read_bytes(),
                "epochs": (run / "epochs.ndjson").read_bytes(),
                "checkpoint": (run / "model.ckpt").read_bytes(),
                "report_model": (eval_dir / "report_model.ndjson").read_bytes(),
                "report_mom": (eval_dir / "report_mom.ndjson").read_bytes(),
            }
        assert artifacts["one"] == artifacts["two"]
