import csv
import dataclasses
import gzip
import json
import logging
import os
import platform
import struct
import subprocess
import sys

import numpy as np
import pytest

import songrec
from songrec import baselines, checkpoint, cli, data
from songrec.cli import _eval_order, main
from conftest import (
    digit_chain_sessions,
    lastfm_fixture_lines,
    progress_lines,
    session_table,
    third_order_sessions,
)
from songrec.config import DataConfig, ExperimentConfig, ModelConfig, apply_override
from songrec.data import (
    PreparedDataset,
    SplitDataset,
    examples_to_arrays,
    extract_examples,
    read_prepared,
    write_prepared,
)
from songrec.models import CnnRecParams, Hyperparams, NnRecParams
from songrec.util import make_rng
from test_golden import CONFIG as GOLDEN_CONFIG
from test_golden import golden_log_lines

# a small nnrec (and, with w <= j, cnnrec) architecture for hand-made model files
TINY_HYPER = Hyperparams(d=4, j=2, h=5, m=3, w=2, stride=1, epochs=1, batch=2, lr=0.01,
                         dropout=0.0)

# the environment block every manifest records
ENVIRONMENT_KEYS = {"python", "numpy", "blas", "threads", "cpu_count", "kernel_threads"}


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    cfg = {
        "seed": 11,
        "model": {
            "family": "cnnrec",
            "d": 8,
            "j": 2,
            "h": 8,
            "m": 4,
            "w": 2,
            "epochs": 2,
            "batch": 10,
            "dropout": 0.2,
            "w2v": {"epochs": 1, "window": 2},
            "wmf": {"f": 4, "iters": 2},
            "fpmc": {"f": 4, "epochs": 2},
        },
        "eval": {"ks": [1, 3, 5, 10]},
    }
    for key, value in overrides.items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture
def workspace(tmp_path, fixture_tsv):
    config = write_config(
        tmp_path / "config.json",
        **{"data.raw_path": str(fixture_tsv), "out_dir": str(tmp_path / "run")},
    )
    return tmp_path, config


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestConfig:
    def test_defaults_are_reference_values(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.data.vocab_cap == 10000
        assert cfg.data.gap_seconds == 3600
        assert cfg.data.ratios == [0.7, 0.1, 0.2]
        hy = cfg.model
        assert (hy.d, hy.j, hy.h, hy.m, hy.w) == (60, 5, 300, 325, 2)
        assert (hy.epochs, hy.batch, hy.lr, hy.dropout) == (25, 50, 0.01, 0.7)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"sead": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig.from_dict({"model": {"hidden": 10}})

    def test_order_is_one_for_first_order_family(self):
        from songrec.baselines import fpmc_init

        cfg = ExperimentConfig.from_dict({"model": {"family": "fpmc"}})
        assert _eval_order(fpmc_init(2, 5, f=2, rng=make_rng(0)), cfg) == 1

    def test_apply_override_parses_json_values(self):
        raw = {}
        apply_override(raw, "model.j=3")
        apply_override(raw, "data.ratios=[0.5,0.25,0.25]")
        apply_override(raw, "model.family=nnrec")
        assert raw == {
            "model": {"j": 3, "family": "nnrec"},
            "data": {"ratios": [0.5, 0.25, 0.25]},
        }

    @pytest.mark.parametrize("text,value", [("Infinity", "inf"), ("-Infinity", "-inf"),
                                            ("NaN", "nan")])
    def test_non_finite_number_named_by_its_key(self, text, value):
        raw = {}
        apply_override(raw, f"model.wmf.alpha={text}")
        with pytest.raises(ValueError, match=rf"^config\.model\.wmf\.alpha must be a finite "
                                             rf"number, got {value}$"):
            ExperimentConfig.from_dict(raw)

    def test_subseeds_differ_by_component_and_root(self):
        cfg = ExperimentConfig.from_dict({"seed": 5})
        assert cfg.subseed("train") != cfg.subseed("init")
        other = ExperimentConfig.from_dict({"seed": 6})
        assert cfg.subseed("train") != other.subseed("train")

    def test_hash_stable_under_key_order(self):
        a = ExperimentConfig.from_dict({"seed": 1, "out_dir": "x"})
        b = ExperimentConfig.from_dict({"out_dir": "x", "seed": 1})
        assert a.hash() == b.hash()

    def test_bad_ratios_error(self):
        with pytest.raises(ValueError,
                           match=r"^config\.data\.ratios must be fractions that sum to 1"):
            ExperimentConfig.from_dict({"data": {"ratios": [0.5, 0.2, 0.2]}})

    def test_unknown_mode_error(self):
        with pytest.raises(ValueError, match="overlap_mode must be one of"):
            ExperimentConfig.from_dict({"data": {"overlap_mode": "bogus"}})

    def test_bad_window_error(self):
        with pytest.raises(ValueError, match="config.model.w2v.window must be >= 1"):
            ExperimentConfig.from_dict({"model": {"family": "w2v", "w2v": {"window": 0}}})

    @pytest.mark.parametrize("family", ["cnnrec", "w2v"])
    def test_neural_setting_named_by_its_key(self, family):
        with pytest.raises(ValueError, match=r"^config\.model\.h must be >= 1, got 0$"):
            ExperimentConfig.from_dict({"model": {"family": family, "h": 0}})

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError, match="config.model.wmf.lam must be > 0"):
            ExperimentConfig.from_dict({"model": {"family": "wmf", "wmf": {"lam": 0.0}}})

    @pytest.mark.parametrize("family", ["nnrec", "w2v", "wmf", "fpmc"])
    def test_family_without_filters_loads_at_order_one(self, family):
        cfg = ExperimentConfig.from_dict({"model": {"family": family, "j": 1}})
        assert (cfg.model.j, cfg.model.w) == (1, 2)
        # only cnnrec has filters: an nnrec records the configured width
        _, meta, _ = NnRecParams(5, 2, cfg.model, rng=make_rng(0)).to_checkpoint()
        assert (meta["hyper"]["j"], meta["hyper"]["w"]) == (1, 2)

    def test_cnnrec_filters_must_fit_the_context(self):
        with pytest.raises(ValueError,
                           match=r"^config\.model\.w must be <= config\.model\.j, got 2$"):
            ExperimentConfig.from_dict({"model": {"family": "cnnrec", "j": 1}})

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"])
    def test_float32_only_for_the_neural_families(self, family):
        raw = {"model": {"family": family, "dtype": "float32"}}
        if family in ("cnnrec", "nnrec"):
            assert ExperimentConfig.from_dict(raw).model.dtype == "float32"
        else:
            with pytest.raises(ValueError, match=rf"^config\.model\.dtype must be float64 "
                                                 rf"for {family}: "):
                ExperimentConfig.from_dict(raw)

    def test_dtype_outside_the_family_table_refused(self):
        with pytest.raises(ValueError, match=r"^config\.model\.dtype must be float64 or float32 "
                                             r"for nnrec: got 'float16'$"):
            ExperimentConfig.from_dict({"model": {"family": "nnrec", "dtype": "float16"}})

    def test_sections_check_themselves_when_replaced(self):
        with pytest.raises(ValueError, match=r"^config\.model\.h must be >= 1, got 0$"):
            dataclasses.replace(ModelConfig(), h=0)
        with pytest.raises(ValueError, match=r"^config\.data\.ratios must be fractions that sum"):
            dataclasses.replace(DataConfig(), ratios=[0.5, 0.2, 0.2])

    def test_readme_config_block_is_the_defaults(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("```jsonc\n", 1)[1].split("```", 1)[0]
        text = "\n".join(line.split("//", 1)[0] for line in block.splitlines())
        # through JSON, where the eval cutoffs' tuple is a list
        defaults = json.loads(json.dumps(ExperimentConfig().to_dict()))
        assert json.loads(text) == defaults


class TestPrepare:
    def test_writes_expected_stats(self, workspace):
        tmp, config = workspace
        assert run_cli("prepare", "--config", config) == 0
        stats = json.loads((tmp / "run" / "prepared" / "stats.json").read_text())
        assert stats["users"] == 2
        assert stats["songs"] == 110
        assert stats["records"] == 200
        assert stats["sessions_before_overlap"] == 20
        assert stats["sessions"] == {"train": 14, "val": 6, "test": 12}
        assert stats["parse"] == {"parsed": 200, "skipped": 0}
        manifest = json.loads((tmp / "run" / "prepare_manifest.json").read_text())
        assert manifest["seeds"]["root"] == 11
        assert "prepared_dir" in manifest["artifacts"]

    def test_rerun_byte_identical(self, tmp_path, fixture_tsv):
        outs = []
        for name in ("run-a", "run-b"):
            config = write_config(
                tmp_path / f"{name}.json",
                **{"data.raw_path": str(fixture_tsv), "out_dir": str(tmp_path / name)},
            )
            assert run_cli("prepare", "--config", config) == 0
            outs.append(read_tree(tmp_path / name / "prepared"))
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_missing_input_nonzero_exit(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            **{"data.raw_path": str(tmp_path / "nope.tsv"), "out_dir": str(tmp_path / "o")},
        )
        assert run_cli("prepare", "--config", config) == 1

    def test_set_override_changes_pipeline(self, workspace):
        tmp, config = workspace
        assert (
            run_cli("prepare", "--config", config, "--set", "data.overlap_mode=none") == 0
        )
        stats = json.loads((tmp / "run" / "prepared" / "stats.json").read_text())
        assert stats["deleted_overlap"] == {"val": 0, "test": 0}
        assert stats["sessions"] == {"train": 14, "val": 2, "test": 4}

    @pytest.mark.parametrize("unit", ["session", "record"])
    def test_negative_ratios_rejected(self, workspace, caplog, unit):
        tmp, config = workspace
        code = run_cli("prepare", "--config", config, "--set", f'data.shuffle_unit="{unit}"',
                       "--set", "data.ratios=[1.2,-0.1,-0.1]")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["config.data.ratios must be three finite non-negative numbers, "
                          "got [1.2, -0.1, -0.1]"]
        assert not (tmp / "run" / "prepared").exists()

    def test_bad_ratios_fail_before_parsing(self, tmp_path, caplog):
        # the raw log does not exist: the ratio error must come first
        code = run_cli("prepare", "--out", tmp_path,
                       "--set", f"data.raw_path={tmp_path / 'no.tsv'}",
                       "--set", "data.ratios=[0.5,0.2,0.2]")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith("config.data.ratios must be fractions that sum to 1")

    def test_prepared_dir_outside_a_new_out_dir(self, workspace):
        tmp, config = workspace
        assert run_cli("prepare", "--config", config, "--out", tmp / "fresh_out",
                       "--set", f"data.prepared_dir={tmp / 'prep'}") == 0
        assert (tmp / "prep" / "stats.json").exists()
        manifest = json.loads((tmp / "fresh_out" / "prepare_manifest.json").read_text())
        assert manifest["artifacts"]["prepared_dir"] == str(tmp / "prep")


@pytest.fixture
def prepared(workspace):
    tmp, config = workspace
    assert run_cli("prepare", "--config", config) == 0
    return tmp, config


class TestTrainEvaluate:
    @pytest.mark.parametrize("family", ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"])
    def test_train_then_evaluate_each_family(self, prepared, family):
        tmp, config = prepared
        out = tmp / f"train-{family}"
        assert (
            run_cli("train", "--config", config, "--out", out,
                    "--set", f"model.family={family}",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        ckpt = out / "model.ckpt"
        assert ckpt.exists()
        assert (out / "loss_history.csv").read_text().startswith("epoch,loss")
        assert (
            run_cli("evaluate", "--config", config, "--out", out,
                    "--checkpoint", ckpt,
                    "--set", f"model.family={family}",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["label"] == family
        assert report["n_examples"] > 0
        curves = (out / "curves.csv").read_text().splitlines()
        assert len(curves) == 1 + 4  # header + one row per cutoff

    def test_written_files_get_the_mode_open_gives(self, workspace):
        tmp, config = workspace
        out = tmp / "run"
        umask = os.umask(0o027)
        try:
            assert run_cli("prepare", "--config", config) == 0
            assert run_cli("train", "--config", config) == 0
            assert run_cli("evaluate", "--config", config, "--checkpoint", out / "model.ckpt") == 0
        finally:
            os.umask(umask)
        modes = {path: path.stat().st_mode & 0o777 for path in out.rglob("*") if path.is_file()}
        assert len(modes) == 13  # 6 prepared, 2 trained, 2 evaluated, 3 manifests
        assert modes == dict.fromkeys(modes, 0o640)

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec"])
    def test_train_logs_one_progress_line_per_epoch(self, prepared, caplog, family):
        tmp, config = prepared
        with caplog.at_level(logging.INFO, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", tmp / "progress",
                           "--set", f"model.family={family}",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        lines = [r.getMessage() for r in caplog.records if " epoch " in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == [f"{family} epoch 1/2",
                                                          f"{family} epoch 2/2"]
        assert all("examples/s" in line and "elapsed" in line for line in lines)

    def test_w2v_logs_one_progress_line_per_epoch(self, prepared, caplog):
        tmp, config = prepared
        with caplog.at_level(logging.INFO, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", tmp / "w2v-progress",
                           "--set", "model.family=w2v", "--set", "model.w2v.epochs=2",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        lines = [r.getMessage() for r in caplog.records if " epoch " in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == ["w2v epoch 1/2", "w2v epoch 2/2"]
        history = (tmp / "w2v-progress" / "loss_history.csv").read_text().splitlines()[1:]
        for line, row in zip(lines, history):
            assert f"loss {float(row.split(',')[1]):.4f}," in line
            assert "pairs/s" in line and "elapsed" in line

    # an "epoch" of wmf is one ALS iteration, logged with the objective
    # after it: every second point of its history, after the initial one
    @pytest.mark.parametrize("family,setting,unit,logged", [
        ("fpmc", "model.fpmc.epochs", "triples", slice(None)),
        ("wmf", "model.wmf.iters", "rows", slice(2, None, 2)),
    ])
    def test_fpmc_and_wmf_log_one_progress_line_per_epoch(self, prepared, caplog, family,
                                                          setting, unit, logged):
        tmp, config = prepared
        out = tmp / f"{family}-progress"
        with caplog.at_level(logging.INFO, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", out,
                           "--set", f"model.family={family}", "--set", f"{setting}=2",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        lines = [r.getMessage() for r in caplog.records if " epoch " in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == [f"{family} epoch 1/2",
                                                          f"{family} epoch 2/2"]
        history = (out / "loss_history.csv").read_text().splitlines()[1:][logged]
        assert len(history) == 2
        for line, row in zip(lines, history):
            assert f"loss {float(row.split(',')[1]):.4f}," in line
            assert f"{unit}/s" in line and "elapsed" in line

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
    # on this log an fpmc epoch is one minibatch, whose step stays finite
    @pytest.mark.parametrize("family,lr,epoch", [("cnnrec", "model.lr=1e300", 1),
                                                 ("w2v", "model.w2v.lr=1e300", 1),
                                                 ("fpmc", "model.fpmc.lr=1e200", 2)],
                             ids=["cnnrec", "w2v", "fpmc"])
    def test_diverging_training_exits_with_one_line(self, prepared, caplog, family, lr, epoch):
        tmp, config = prepared
        with caplog.at_level(logging.INFO, logger="songrec"):
            code = run_cli("train", "--config", config, "--out", tmp / "diverge",
                           "--set", f"model.family={family}", "--set", lr,
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and f"diverged in epoch {epoch}:" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()
        assert not (tmp / "diverge" / "model.ckpt").exists()
        # each epoch before the diverged one logged its line, that one none
        logged = [int(line.split(" epoch ")[1].split("/")[0]) for line in progress_lines(caplog)]
        assert logged == list(range(1, epoch))

    def test_worse_than_uniform_loss_warns(self, tmp_path, caplog):
        # on the 40-song golden log, lr 1e6 gives losses of about 21.7,
        # 27.1 and 26.9: none within 1% of -log(PROB_FLOOR), all far
        # above the log(40) = 3.69 of a uniform guess
        log = tmp_path / "plays.tsv"
        log.write_text("\n".join(golden_log_lines()) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
        common = ["--config", config, "--set", f"data.prepared_dir={tmp_path / 'prepared'}"]
        assert run_cli("prepare", *common, "--set", f"data.raw_path={log}", "--out", tmp_path) == 0
        with caplog.at_level(logging.WARNING, logger="songrec"):
            assert run_cli("train", *common, "--set", "model.lr=1e6", "--out", tmp_path / "t") == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split(" loss ")[0] for w in warnings] == ["epoch 2", "epoch 3"]
        assert all("above log(n_songs) = 3.69" in w for w in warnings)

    # at zero context vectors every w2v pair scores (1 + negatives) ln 2,
    # and at equal scores every fpmc triple ln 2; lr 1e3 keeps the losses
    # finite on this log but far above both from epoch 2 on, and w2v's
    # above ten times chance from epoch 1 on
    @pytest.mark.parametrize("family,chance,epochs",
                             [("w2v", "(1 + negatives) ln 2 = 4.16", [1, 2, 3]),
                              ("fpmc", "ln 2 = 0.69", [2, 3])], ids=["w2v", "fpmc"])
    def test_baseline_loss_above_untrained_warns(self, prepared, caplog, family, chance, epochs):
        tmp, config = prepared
        with caplog.at_level(logging.WARNING, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", tmp / "worse",
                           "--set", f"model.family={family}", "--set", f"model.{family}.lr=1e3",
                           "--set", f"model.{family}.epochs=3",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split(" loss ")[0] for w in warnings] == [f"epoch {e}" for e in epochs]
        assert all(f"above {chance}," in w for w in warnings)

    def test_one_epoch_diverging_run_warns(self, prepared, caplog):
        # lr 1e6 drives w2v's single epoch to a loss of about 6e150, far
        # above ten times chance but still finite
        tmp, config = prepared
        with caplog.at_level(logging.WARNING, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", tmp / "one",
                           "--set", "model.family=w2v", "--set", "model.w2v.lr=1e6",
                           "--set", "model.w2v.epochs=1",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split(" loss ")[0] for w in warnings] == ["epoch 1"]
        assert "above (1 + negatives) ln 2 = 4.16," in warnings[0]

    def test_manifests_record_peak_rss_and_parse_rate(self, prepared):
        tmp, config = prepared
        out = tmp / "train-wmf"
        common = ["--config", config, "--out", out, "--set", "model.family=wmf",
                  "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}"]
        assert run_cli("train", *common) == 0
        assert run_cli("evaluate", *common, "--checkpoint", out / "model.ckpt") == 0
        manifests = [tmp / "run" / "prepare_manifest.json", out / "train_manifest.json",
                     out / "evaluate_manifest.json"]
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert manifest["peak_rss_mb"] > 0, path
            assert set(manifest["environment"]) == ENVIRONMENT_KEYS, path
        assert json.loads(manifests[0].read_text())["parse_lines_per_s"] > 0

    def test_evaluate_manifest_records_example_rate(self, prepared):
        tmp, config = prepared
        out = tmp / "eval-rate"
        common = ["--config", config, "--out", out, "--set", "model.family=wmf",
                  "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}"]
        assert run_cli("train", *common) == 0
        assert run_cli("evaluate", *common, "--checkpoint", out / "model.ckpt") == 0
        manifest = json.loads((out / "evaluate_manifest.json").read_text())
        n_examples = json.loads((out / "report.json").read_text())["n_examples"]
        rate = manifest["examples_per_s"]
        assert isinstance(rate, int) and rate > 0
        # the rate and the evaluate timing describe the same call: the rate
        # is rounded to a whole example per second, the timing to 1 ms
        seconds = manifest["timings_sec"]["evaluate"]
        assert abs(n_examples / rate - seconds) <= 0.0005 + (seconds + 0.0005) / (2 * rate)

    @pytest.mark.parametrize("family,order", [("cnnrec", 2), ("fpmc", 1), ("w2v", None),
                                              ("wmf", None)])
    def test_train_manifest_records_examples_and_environment(self, prepared, monkeypatch,
                                                             family, order):
        tmp, config = prepared
        out, prepared_dir = tmp / f"manifest-{family}", tmp / "run" / "prepared"
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")  # recorded only; numpy runs OpenBLAS here
        assert run_cli("train", "--config", config, "--out", out,
                       "--set", f"model.family={family}",
                       "--set", f"data.prepared_dir={prepared_dir}") == 0
        manifest = json.loads((out / "train_manifest.json").read_text())
        train = read_prepared(prepared_dir).split.train
        want = None if order is None else len(extract_examples(train, order))
        assert manifest["examples_per_epoch"] == want
        env = manifest["environment"]
        assert set(env) == ENVIRONMENT_KEYS
        assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
        assert env["cpu_count"] == os.cpu_count()
        assert env["kernel_threads"] == (2 if len(os.sched_getaffinity(0)) > 1 else 1)
        assert isinstance(env["blas"], dict) and "name" in env["blas"]
        assert env["threads"] == {"OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
                                  "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}

    def test_zero_epochs_checkpoint_equals_initialization(self, prepared):
        tmp, config = prepared
        out = tmp / "train-zero"
        assert (
            run_cli("train", "--config", config, "--out", out,
                    "--set", "model.epochs=0",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        model = checkpoint.load_model(out / "model.ckpt")
        cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
        fresh = CnnRecParams(
            110, 2, cfg.model, rng=make_rng(cfg.subseed("init"))
        )
        for name, tensor in fresh.tensors().items():
            assert np.array_equal(model.tensors()[name], tensor), name
        history = (out / "loss_history.csv").read_text().splitlines()
        assert history == ["epoch,loss"]

    def test_training_rerun_byte_identical(self, prepared):
        tmp, config = prepared
        blobs = []
        for name in ("t1", "t2"):
            out = tmp / name
            assert (
                run_cli("train", "--config", config, "--out", out,
                        "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
            )
            blobs.append(((out / "model.ckpt").read_bytes(),
                          (out / "loss_history.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_evaluate_twice_identical_reports(self, prepared):
        tmp, config = prepared
        out = tmp / "ev"
        common = ["--config", config,
                  "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}"]
        assert run_cli("train", *common, "--out", out) == 0
        reports = []
        for name in ("e1", "e2"):
            edir = tmp / name
            assert run_cli("evaluate", *common, "--out", edir,
                           "--checkpoint", out / "model.ckpt") == 0
            reports.append((edir / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_train_loss_decreases_over_50_epochs(self, prepared):
        tmp, config = prepared
        out = tmp / "train-long"
        assert (
            run_cli("train", "--config", config, "--out", out,
                    "--set", "model.epochs=50",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        rows = (out / "loss_history.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert len(losses) == 50 and losses[-1] < losses[0]

    def test_rerun_from_manifest_config_byte_identical(self, prepared):
        # the manifest's embedded config must be sufficient to reproduce
        # the primary artifacts exactly
        tmp, config = prepared
        out1 = tmp / "m1"
        assert (
            run_cli("train", "--config", config, "--out", out1,
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        manifest = json.loads((out1 / "train_manifest.json").read_text())
        replay = tmp / "replay.json"
        replay.write_text(json.dumps(manifest["config"]))
        out2 = tmp / "m2"
        assert run_cli("train", "--config", replay, "--out", out2) == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out1 / "loss_history.csv").read_bytes() == (
            out2 / "loss_history.csv"
        ).read_bytes()

    def test_oracle_checkpoint_full_recall(self, prepared):
        # a rigged first-order model that encodes the test set's exact
        # successor map must rank every target first
        tmp, config = prepared
        from songrec.baselines import FpmcFactors
        pre = read_prepared(tmp / "run" / "prepared")
        n, u = pre.n_songs, pre.n_users
        examples = extract_examples(pre.split.test, 1)
        v_li = np.zeros((n, n))
        v_li[examples.context[:, 0], examples.target] = 1.0
        rigged = FpmcFactors(np.zeros((u, n)), np.zeros((n, n)), np.eye(n), v_li)
        out = tmp / "oracle"
        os.makedirs(out, exist_ok=True)
        checkpoint.save(out / "model.ckpt", *rigged.to_checkpoint())
        assert (
            run_cli("evaluate", "--config", config, "--out", out,
                    "--checkpoint", out / "model.ckpt",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert all(v == 1.0 for v in report["recall"].values())
        assert report["precision"]["1"] == 1.0

    @pytest.mark.parametrize("family,code", [("cnnrec", 1), ("wmf", 1), ("w2v", 0)])
    def test_user_count_mismatch(self, prepared, caplog, family, code):
        # the same vocabulary with one more user; w2v keeps no per-user
        # state, so only it can still be evaluated there
        tmp, config = prepared
        out = tmp / f"users-{family}"
        common = ["--config", config, "--out", out, "--set", f"model.family={family}"]
        assert run_cli("train", *common,
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        wider = read_prepared(tmp / "run" / "prepared")
        wider.user_keys.append("one-more-user")
        write_prepared(tmp / "wider", wider)
        assert run_cli("evaluate", *common, "--checkpoint", out / "model.ckpt",
                       "--set", f"data.prepared_dir={tmp / 'wider'}") == code
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        if code:
            assert errors == ["user mismatch: checkpoint has 2 users, prepared data has 3"]
        else:
            assert errors == [] and (out / "report.json").exists()

    def test_vocab_mismatch_reported_with_both_sizes(self, prepared, caplog):
        tmp, config = prepared
        out = tmp / "mismatch"
        os.makedirs(out, exist_ok=True)
        tiny = NnRecParams(7, 2, Hyperparams(d=4, j=2, h=5, m=3, w=2, stride=1, epochs=25,
                                             batch=50, lr=0.01, dropout=0.7), rng=make_rng(0))
        checkpoint.save(out / "model.ckpt", *tiny.to_checkpoint())
        code = run_cli("evaluate", "--config", config, "--out", out,
                       "--checkpoint", out / "model.ckpt",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        assert any("7" in r.message and "110" in r.message for r in caplog.records)


def _write_sessions_config(tmp_path, train_s, test_s, n_songs, n_users, **overrides):
    """A prepared directory holding the given sessions, and an nnrec sweep
    config on it that writes to ``<tmp_path>/sweep``."""
    prepared_dir = tmp_path / "prep"
    write_prepared(
        prepared_dir,
        PreparedDataset(
            song_keys=[f"s{i}" for i in range(n_songs)],
            user_keys=[f"u{i}" for i in range(n_users)],
            split=SplitDataset(train_s, session_table([]), test_s),
            stats={"seed": 0, "ratios": [0.7, 0.1, 0.2]},
        ),
    )
    return write_config(
        tmp_path / "c.json",
        **{"data.prepared_dir": str(prepared_dir), "out_dir": str(tmp_path / "sweep"),
           "model.family": "nnrec", **overrides},
    )


@pytest.fixture(scope="module")
def third_order_sweep(tmp_path_factory):
    """recall@1 per order of one nnrec sweep over orders 1-3 on data whose
    next song is a function of the third-previous song.

    Orders 1 and 2 see nothing of that song, so both sit at chance (1/30)
    and which of the two comes out ahead depends on the root seed.
    """
    return _sweep_recall_at_1(tmp_path_factory.mktemp("third-order"), third_order_sessions, 30)


@pytest.fixture(scope="module")
def digit_chain_sweep(tmp_path_factory):
    """recall@1 per order of one nnrec sweep over orders 1-3 on data where
    each order sees one more digit of the next song (about 1/9, 1/3 and 1
    at best)."""
    return _sweep_recall_at_1(tmp_path_factory.mktemp("digit-chain"), digit_chain_sessions, 27)


def _sweep_recall_at_1(tmp_path, sessions, n_songs):
    config = _write_sessions_config(
        tmp_path, sessions(150, seed=1), sessions(50, seed=2), n_songs=n_songs, n_users=1,
        **{"seed": 1, "model.d": 16, "model.h": 32, "model.epochs": 30, "model.batch": 50,
           "model.dropout": 0.0, "eval.ks": [1, 5]},
    )
    assert run_cli("sweep", "--config", config, "--orders", "1,2,3") == 0
    with open(tmp_path / "sweep" / "comparison.csv", newline="") as fh:
        return {r["model"]: float(r["recall"]) for r in csv.DictReader(fh) if r["k"] == "1"}


class TestSweep:
    def test_sweep_orders_artifacts(self, prepared):
        tmp, config = prepared
        out = tmp / "sweep"
        assert (
            run_cli("sweep", "--config", config, "--out", out, "--orders", "1,2",
                    "--set", "model.family=nnrec",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        rows = (out / "comparison.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 4  # header + |orders| * |ks|
        for j in (1, 2):
            assert (out / f"order-{j}" / "model.ckpt").exists()
            report = json.loads((out / f"order-{j}" / "report.json").read_text())
            assert report["label"] == f"j={j}"
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert set(manifest["environment"]) == ENVIRONMENT_KEYS

    def test_sweep_sampled_protocol(self, prepared):
        tmp, config = prepared
        out = tmp / "sweep-sampled"
        assert (
            run_cli("sweep", "--config", config, "--out", out, "--orders", "1",
                    "--set", "model.family=nnrec",
                    "--set", 'eval.protocol="sampled"',
                    "--set", "eval.n_neg=20",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        )
        report = json.loads((out / "order-1" / "report.json").read_text())
        assert report["protocol"] == "sampled(20)"

    @pytest.mark.parametrize("family,order", [("cnnrec", 2), ("nnrec", 1)])
    def test_one_order_sweep_equals_train_and_evaluate(self, prepared, family, order):
        # nnrec at j=1 sits below the configured filter width 2, which
        # only the convolutional model has
        tmp, config = prepared
        common = ["--config", config, "--set", f"model.family={family}",
                  "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}"]
        sweep = tmp / "sweep-one"
        assert run_cli("sweep", *common, "--out", sweep, "--orders", order) == 0
        single = tmp / "single"
        assert run_cli("train", *common, "--out", single, "--set", f"model.j={order}") == 0
        assert run_cli("evaluate", *common, "--out", single, "--set", f"model.j={order}",
                       "--checkpoint", single / "model.ckpt") == 0
        swept = sweep / f"order-{order}"
        for name in ("model.ckpt", "loss_history.csv"):
            assert (swept / name).read_bytes() == (single / name).read_bytes(), name
        report = json.loads((swept / "report.json").read_text())
        assert report.pop("label") == f"j={order}"
        direct = json.loads((single / "report.json").read_text())
        assert direct.pop("label") == family
        assert report == direct

    def test_sweep_on_third_order_data_prefers_order_three(self, third_order_sweep):
        # the comparison table must show the higher order winning at k=1
        # when the target is a function of the 3rd-previous song
        assert third_order_sweep["j=3"] > max(third_order_sweep["j=1"], third_order_sweep["j=2"])

    def test_third_order_signal_needs_order_three(self, third_order_sweep):
        # only a context that reaches back three songs sees the signal
        assert third_order_sweep["j=3"] >= 0.9
        assert third_order_sweep["j=3"] > third_order_sweep["j=1"]

    def test_recall_trend_non_decreasing_in_order(self, digit_chain_sweep):
        recalls = [digit_chain_sweep[f"j={j}"] for j in (1, 2, 3)]
        assert recalls == sorted(recalls)

    @pytest.mark.parametrize("orders", ["0,1", "11"], ids=["zero", "eleven"])
    def test_orders_outside_range_rejected(self, prepared, caplog, orders):
        tmp, config = prepared
        code = run_cli("sweep", "--config", config, "--out", tmp / "s0", "--orders", orders,
                       "--set", "model.family=nnrec",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "orders must lie in [1, 10]" in errors[0]
        assert "\n" not in errors[0]
        assert not (tmp / "s0").exists()

    def test_unknown_users_dropped_from_test(self, tmp_path):
        # user 1 plays only in the test split: of the two test sessions
        # only user 0's survives, two examples at j=1
        train_s = session_table([(0, [1, 2, 3, 4]), (0, [4, 3, 2, 1])])
        test_s = session_table([(0, [1, 2, 3]), (1, [1, 2, 3])])
        config = _write_sessions_config(tmp_path, train_s, test_s, n_songs=10, n_users=2)
        assert run_cli("sweep", "--config", config, "--orders", "1",
                       "--set", "model.epochs=1", "--set", "eval.ks=[1]") == 0
        report = json.loads((tmp_path / "sweep" / "order-1" / "report.json").read_text())
        assert report["n_examples"] == 2

    def test_sweep_rejects_baseline_families(self, prepared):
        tmp, config = prepared
        assert (
            run_cli("sweep", "--config", config, "--out", tmp / "s2", "--orders", "1",
                    "--set", "model.family=wmf",
                    "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 1
        )


class TestCliErrors:
    def test_bad_config_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert run_cli("prepare", "--config", bad) == 1

    @pytest.mark.parametrize("assignment", ['model.d="x"', "model.epochs=2.5",
                                            "eval.exclude_train_songs=1", "seed=true",
                                            'data.ratios=["a",0.5,0.5]', "data.ratios=[true,0,0]",
                                            'eval.ks=[1.5,5,"10"]', "model.fpmc.f=0",
                                            "model.wmf.f=0", "model.w2v.epochs=-1",
                                            "model.wmf.alpha=-1", "model.fpmc.lr=-1",
                                            'data.overlap_mode="x"', 'data.shuffle_unit="x"',
                                            'eval.protocol="x"', 'model.family="x"',
                                            "data.ratios=[1.2,-0.1,-0.1]",
                                            "data.ratios=[0.5,0.2,0.2]", "model.j=1"])
    def test_wrong_config_type_exit_code(self, tmp_path, caplog, assignment):
        code = run_cli("prepare", "--set", assignment, "--out", tmp_path)
        assert code == 1
        key = assignment.split("=")[0]
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        # cnnrec's filter width is checked on w, against the j that was set
        checked = {"model.j": "model.w"}.get(key, key)
        assert len(errors) == 1 and errors[0].startswith(f"config.{checked} must be")
        assert f"config.{key}" in errors[0]
        assert "\n" not in errors[0]

    @pytest.mark.parametrize("family", ["cnnrec", "w2v", "wmf"])
    @pytest.mark.parametrize("cut", ["half", "last line"])
    def test_cut_vocab_exits_with_one_line(self, prepared, caplog, family, cut):
        tmp, config = prepared
        vocab = tmp / "run" / "prepared" / "vocab.txt"
        lines = vocab.read_text(encoding="utf-8").splitlines(keepends=True)
        keep = len(lines) // 2 if cut == "half" else len(lines) - 1
        vocab.write_text("".join(lines[:keep]), encoding="utf-8")
        code = run_cli("train", "--config", config, "--out", tmp / "cut",
                       "--set", f"model.family={family}",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert "song index" in errors[0] and f"the {keep} lines of vocab.txt" in errors[0]

    def test_malformed_session_line_exits_with_one_line(self, prepared, caplog):
        tmp, config = prepared
        train = tmp / "run" / "prepared" / "train.txt"
        _, rest = train.read_text(encoding="utf-8").split(" ", 1)
        train.write_text("x " + rest, encoding="utf-8")
        code = run_cli("train", "--config", config, "--out", tmp / "bad",
                       "--set", "model.family=w2v",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"{train} line 1: bad user index 'x'"]

    @staticmethod
    def _rewrite_header(path, change):
        """Replace the JSON header of the checkpoint at ``path`` by
        ``change(header)``, keeping the tensor payload."""
        blob = path.read_bytes()
        prefix = len(checkpoint.MAGIC) + 8
        (n,) = struct.unpack("<Q", blob[len(checkpoint.MAGIC):prefix])
        header = json.dumps(change(json.loads(blob[prefix:prefix + n]))).encode("utf-8")
        path.write_bytes(blob[:len(checkpoint.MAGIC)] + struct.pack("<Q", len(header)) + header
                         + blob[prefix + n:])

    HEADER_CHANGES = {
        "header is a list": lambda h: [h],
        "bogus tensor dtype": lambda h: {**h, "tensors": [{**h["tensors"][0], "dtype": "bogus"},
                                                          *h["tensors"][1:]]},
        "no tensors key": lambda h: {k: v for k, v in h.items() if k != "tensors"},
        "negative dimension": lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [-7, 4]},
                                                          *h["tensors"][1:]]},
        "tensor listed twice": lambda h: {**h, "tensors": [*h["tensors"], h["tensors"][0]]},
    }

    # hyper values of the wrong type, each refused as the config refuses it
    HYPER_TYPES = {"d is true": ("d", True), "epochs is 2.5": ("epochs", 2.5),
                   "batch is true": ("batch", True), "lr is true": ("lr", True)}

    # model-file dims that are not whole numbers, none of them rounded down
    FRACTIONAL_DIMS = {"user count 2.5": ("n_users", 2.5), "song count 7.99": ("n_songs", 7.99),
                       "wmf song count 7.0": ("n_songs", 7.0)}

    @pytest.mark.parametrize("change", ["extra hyper key", "missing hyper key", "unknown dtype",
                                        "song count as a string", *HEADER_CHANGES, *HYPER_TYPES,
                                        *FRACTIONAL_DIMS])
    def test_malformed_checkpoint_header_exits_with_one_line(self, tmp_path, change):
        model_type, meta, tensors = NnRecParams(7, 2, TINY_HYPER, rng=make_rng(0)).to_checkpoint()
        if change in self.FRACTIONAL_DIMS:
            key, value = self.FRACTIONAL_DIMS[change]
            if change.startswith("wmf"):
                rng = make_rng(0)
                model_type, meta, tensors = baselines.WmfFactors(
                    rng.random((2, 3)), rng.random((7, 3))).to_checkpoint()
            meta[key] = value
        if change == "extra hyper key":
            meta["hyper"]["extra"] = 1
        elif change == "missing hyper key":
            del meta["hyper"]["d"]
        elif change == "unknown dtype":
            meta["dtype"] = "nope"
        elif change == "song count as a string":
            meta["n_songs"] = "7"
        elif change in self.HYPER_TYPES:
            key, value = self.HYPER_TYPES[change]
            meta["hyper"][key] = value
        ckpt = tmp_path / "bad.ckpt"
        checkpoint.save(ckpt, model_type, meta, tensors)
        if change in self.HEADER_CHANGES:
            self._rewrite_header(ckpt, self.HEADER_CHANGES[change])
        config = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "o"))
        proc = subprocess.run(
            [sys.executable, "-m", "songrec.cli", "evaluate", "--config", str(config),
             "--checkpoint", str(ckpt)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(songrec.__file__))},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if " ERROR " in line]
        assert len(errors) == 1 and f"{ckpt}: malformed checkpoint header" in errors[0]
        if change in self.HYPER_TYPES:
            assert f"hyper.{self.HYPER_TYPES[change][0]} must be " in errors[0]

    UNHELD_FILES = ["meta dtype float16", "meta dtype int64", "tensor dtype <i8",
                    "tensor dtype <c16", "tensor dtype <f2", "wmf with float32 tensors",
                    "cnnrec with w 3 over j 2"]

    @pytest.mark.parametrize("case", UNHELD_FILES)
    def test_model_file_no_family_holds_exits_with_one_line(self, tmp_path, case):
        # a prepared dataset the file's 12 songs and 2 users fit, so that a
        # file that loads is scored
        sessions = {"train": [(0, [0, 1, 2, 3, 4]), (1, [5, 6, 7, 8, 9])], "val": [(0, [1, 2])],
                    "test": [(0, [2, 3, 4, 5]), (1, [6, 7, 8, 9, 10])]}
        split = SplitDataset(**{name: session_table(rows) for name, rows in sessions.items()})
        write_prepared(tmp_path / "prepared",
                       PreparedDataset([f"s{i}" for i in range(12)], ["u0", "u1"], split))
        rng = make_rng(0)
        if case == "wmf with float32 tensors":
            model_type, meta, tensors = baselines.WmfFactors(
                rng.random((2, 3), np.float32), rng.random((12, 3), np.float32)).to_checkpoint()
        elif case.startswith("cnnrec"):
            # no cnnrec model takes filters wider than its context, so the
            # file is built by hand: width 3 over j 2 leaves no convolution
            # positions, and w1 reads the user embedding alone
            model_type, meta, tensors = CnnRecParams(12, 2, TINY_HYPER, rng=rng).to_checkpoint()
            meta["hyper"]["w"] = 3
            tensors["filters"] = rng.random((TINY_HYPER.m, 3, TINY_HYPER.d))
            tensors["w1"] = rng.random((TINY_HYPER.h, TINY_HYPER.d))
        else:
            model_type, meta, tensors = NnRecParams(12, 2, TINY_HYPER, rng=rng).to_checkpoint()
        if case.startswith("meta dtype "):
            meta["dtype"] = case.removeprefix("meta dtype ")
        elif case.startswith("tensor dtype "):
            tensors["e_song"] = tensors["e_song"].astype(case.removeprefix("tensor dtype "))
        ckpt = tmp_path / "odd.ckpt"
        checkpoint.save(ckpt, model_type, meta, tensors)
        config = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "o"),
                              **{"data.prepared_dir": str(tmp_path / "prepared")})
        proc = subprocess.run(
            [sys.executable, "-m", "songrec.cli", "evaluate", "--config", str(config),
             "--checkpoint", str(ckpt)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(songrec.__file__))},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if " ERROR " in line]
        assert len(errors) == 1 and f"{ckpt}: " in errors[0]
        assert not (tmp_path / "o" / "report.json").exists()

    PREPARED_DAMAGE = {
        "repeated song key": ("vocab.txt", lambda text: text + text.split(b"\n", 1)[0] + b"\n"),
        "empty vocabulary": ("vocab.txt", lambda text: b""),
        "repeated user key": ("users.txt", lambda text: text + text.split(b"\n", 1)[0] + b"\n"),
        "stats not JSON": ("stats.json", lambda text: text[1:]),
        "vocabulary not UTF-8": ("vocab.txt", lambda text: b"\xff" + text),
    }

    @pytest.mark.parametrize("damage", PREPARED_DAMAGE)
    def test_damaged_prepared_file_exits_with_one_line(self, prepared, caplog, damage):
        tmp, config = prepared
        name, change = self.PREPARED_DAMAGE[damage]
        path = tmp / "run" / "prepared" / name
        path.write_bytes(change(path.read_bytes()))
        code = run_cli("train", "--config", config, "--out", tmp / "damaged",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith(f"{path}: ")

    GZ_DAMAGE = {
        "cut in half": lambda blob: blob[:len(blob) // 2],
        "bytes 200-259 flipped": lambda blob: (blob[:200] + bytes(b ^ 0x5A for b in blob[200:260])
                                               + blob[260:]),
        "not gzipped": gzip.decompress,
    }

    @pytest.mark.parametrize("damage", GZ_DAMAGE)
    def test_broken_gzip_log_exits_with_one_line(self, tmp_path, caplog, damage):
        text = "\n".join(lastfm_fixture_lines() * 10) + "\n"  # 2,000 lines
        path = tmp_path / "plays.tsv.gz"
        path.write_bytes(self.GZ_DAMAGE[damage](gzip.compress(text.encode("utf-8"), mtime=0)))
        code = run_cli("prepare", "--out", tmp_path / "o", "--set", f"data.raw_path={path}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith(f"{path}: ")

    def test_singular_wmf_solve_exits_with_one_line(self, prepared, caplog):
        # at alpha 1e300 a row's normal equations overflow to a singular system
        tmp, config = prepared
        code = run_cli("train", "--config", config, "--out", tmp / "singular",
                       "--set", "model.family=wmf", "--set", "model.wmf.alpha=1e300",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith("wmf: row ")
        assert errors[0].endswith(" at alpha = 1e+300, lam = 0.1")
        assert not (tmp / "singular" / "model.ckpt").exists()

    def test_train_without_prepared_dir_fails(self, tmp_path):
        config = write_config(tmp_path / "c.json", **{"out_dir": str(tmp_path / "o")})
        assert run_cli("train", "--config", config) == 1

    @pytest.mark.parametrize("level", ["nonsense", "basic_format"])
    def test_unknown_log_level_rejected(self, tmp_path, level):
        # "nonsense" used to run at INFO, "basic_format" to end in a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "songrec.cli", "prepare", "--log-level", level,
             "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(songrec.__file__))},
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("level", ["debug", "Warning", "CRITICAL"])
    def test_log_level_case_insensitive(self, level):
        args = cli.build_parser().parse_args(["prepare", "--log-level", level])
        assert args.log_level == level.upper()


TRACED_CLI_NAMES = ("w2v_train", "wmf_train", "fpmc_train", "play_count_matrix",
                    "extract_examples")
TRACED_DATA_STEPS = ("build_vocab", "filter_to_vocab", "build_user_index", "sessionize",
                     "split_dataset", "delete_train_overlap")


class TestTracedNames:
    """The benchmark traces the baseline trainers and example extraction at
    their names on ``songrec.cli``, and counts work from the trainers'
    ``window`` and ``epochs`` keywords and their first positional argument.
    ``fit_model`` must reach them there, or the traced baseline metrics
    read 0. The same holds for the prepare steps on ``songrec.data`` and
    the parse counts. It also installs its tracer by name on several
    modules, and reads a sample of the test examples row by row."""

    def test_prepare_calls_traced_data_steps(self, workspace, fixture_tsv, monkeypatch):
        _, config = workspace
        calls, parsed = [], []
        for name in TRACED_DATA_STEPS:
            def record(*args, _name=name, _fn=getattr(data, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(data, name, record)

        def record_parse(stream, _fn=cli.parse_events):
            parsed.append(_fn(stream))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_events", record_parse)
        assert run_cli("prepare", "--config", config) == 0
        assert calls == list(TRACED_DATA_STEPS)
        # the benchmark counts lines from the second value parse_events returns
        (events, summary), = parsed
        lines = fixture_tsv.read_text(encoding="utf-8").splitlines()
        assert summary.parsed == len(events) > 0
        assert summary.parsed + summary.skipped == len(lines)

    def test_benchmark_tracer_installs(self):
        # install() fails on any name it can no longer find
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.dirname(os.path.dirname(songrec.__file__)),
                 os.path.join(root, "perfbench")]
        proc = subprocess.run(
            [sys.executable, "-c", "import spans; spans.install(spans.Tracer('check'))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"])
    def test_example_rows_feed_score_catalog(self, family):
        from test_checkpoint import small_models

        model = small_models()[family]
        sessions = session_table((u, [(u + i) % 8 for i in range(6)]) for u in (0, 1))
        examples = extract_examples(sessions, model.order or 2)
        step = max(1, len(examples) // 16)
        rows = examples[::step][:16]
        assert len(rows) == len(examples) > 0
        users, contexts, _ = examples_to_arrays(examples)
        want = model.score_batch(users, contexts)
        for i, e in enumerate(rows):  # one row against a batch: equal up to rounding
            assert np.allclose(model.score_catalog(e.user, e.context), want[i], rtol=1e-9,
                               atol=1e-12)

    def test_fpmc_train_reaches_the_traced_sbpr_update(self, prepared, monkeypatch):
        # the benchmark times baselines.fpmc_sbpr_update at that name
        tmp, config = prepared
        calls = []

        def record(*args, _fn=baselines.fpmc_sbpr_update):
            calls.append(len(args[1]))
            return _fn(*args)

        monkeypatch.setattr(baselines, "fpmc_sbpr_update", record)
        assert run_cli("train", "--config", config, "--out", tmp / "fpmc-traced",
                       "--set", "model.family=fpmc",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        assert calls and all(1 <= n <= baselines.SBPR_BATCH for n in calls)

    def test_adagrad_calls_pass_the_tensor_then_its_rows(self, monkeypatch):
        # the benchmark counts adagrad_step bytes from args[0] and
        # adagrad_step_rows rows from args[1]
        from songrec import models
        from test_checkpoint import TINY

        params = CnnRecParams(12, 3, TINY, rng=make_rng(1))
        calls = {"adagrad_step": [], "adagrad_step_rows": []}
        for name in calls:
            def record(*args, _name=name, _fn=getattr(models, name)):
                calls[_name].append(args)
                return _fn(*args)

            monkeypatch.setattr(models, name, record)
        users, contexts = np.array([0, 2, 0]), np.array([[1, 2, 3], [4, 5, 6], [1, 7, 7]])
        before = {name: t.copy() for name, t in params.tensors().items()}
        models.train_step((users, contexts, np.array([7, 8, 9])), params, make_rng(2))
        names = {id(t): name for name, t in params.tensors().items()}
        dense = sorted(names[id(args[0])] for args in calls["adagrad_step"])
        assert dense == ["b1", "b2", "conv_b", "filters", "w1", "w2"]
        rows = {names[id(args[0])]: args[1].tolist() for args in calls["adagrad_step_rows"]}
        assert rows == {"e_song": contexts.reshape(-1).tolist(), "e_user": users.tolist()}
        for name in [*dense, *rows]:
            assert not np.array_equal(params.tensors()[name], before[name]), name

    def test_train_step_calls_the_traced_kernels(self, monkeypatch):
        # the benchmark times the kernels at their names on songrec.models;
        # a product written inline would read 0 in core.affine.* or
        # core.conv1d.*, and the output weight must be stepped in the
        # layout the model holds, the one to_checkpoint transposes
        from songrec import models
        from test_checkpoint import TINY

        params = CnnRecParams(12, 3, TINY, rng=make_rng(1))
        kernels = ("affine", "affine_backward", "conv1d", "conv1d_backward", "adagrad_step")
        calls = {name: [] for name in kernels}
        for name in kernels:
            def record(*args, _name=name, _fn=getattr(models, name)):
                calls[_name].append(args)
                return _fn(*args)

            monkeypatch.setattr(models, name, record)
        users, contexts = np.array([0, 2, 0]), np.array([[1, 2, 3], [4, 5, 6], [1, 7, 7]])
        models.train_step((users, contexts, np.array([7, 8, 9])), params, make_rng(2))
        assert {name: len(args) for name, args in calls.items()} == {
            "affine": 2, "affine_backward": 2, "conv1d": 1, "conv1d_backward": 1,
            "adagrad_step": 6}
        assert [args[1] is params.w1 for args in calls["affine"]] == [True, False]
        assert calls["affine"][1][1] is params.w2
        stored_w2 = params.to_checkpoint()[2]["w2"]
        assert stored_w2.shape == (12, TINY.h) and stored_w2.base is params.w2
        assert sum(args[0] is params.w2 for args in calls["adagrad_step"]) == 1

    @pytest.mark.parametrize("family,reached", [
        ("cnnrec", ["extract_examples"]),
        ("nnrec", ["extract_examples"]),
        ("w2v", ["w2v_train"]),
        ("wmf", ["play_count_matrix", "wmf_train"]),
        ("fpmc", ["extract_examples", "fpmc_train"]),
    ])
    def test_fit_model_calls_traced_names(self, prepared, monkeypatch, family, reached):
        tmp, config = prepared
        calls, results = [], {}
        for name in TRACED_CLI_NAMES:
            def record(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append((_name, args, kwargs))
                results[_name] = _fn(*args, **kwargs)
                return results[_name]

            monkeypatch.setattr(cli, name, record)
        trained = []  # the pairs of each block w2v_train trains on

        def count_pairs(*args, _fn=baselines._pair_blocks):
            for centers, contexts in _fn(*args):
                trained.append(len(centers))
                yield centers, contexts

        monkeypatch.setattr(baselines, "_pair_blocks", count_pairs)
        raw = json.loads(config.read_text())
        raw["model"]["family"] = family
        cfg = ExperimentConfig.from_dict(raw)
        data = read_prepared(cfg.prepared_dir())
        cli.fit_model(cfg, data)
        assert [name for name, _, _ in calls] == reached
        for name, args, kwargs in calls:
            if name == "w2v_train":
                assert args[0] is data.split.train
                assert (kwargs["window"], kwargs["epochs"]) == (2, 1)
                # the benchmark counts an epoch's pairs from the first argument
                counted = sum(baselines._pair_count(len(x), kwargs["window"])
                              for x in baselines._session_items(args[0]))
                assert counted == sum(trained) > 0
            if name == "fpmc_train":
                assert args[0] is results["extract_examples"]
                assert kwargs["epochs"] == 2


@pytest.mark.parametrize("family", ["cnnrec", "nnrec"])
def test_neural_trainers_reach_examples_to_arrays_on_data(prepared, monkeypatch, family):
    # the benchmark times data.examples_to_arrays at that name on songrec.data
    _, config = prepared
    calls = []

    def record(examples, _fn=data.examples_to_arrays):
        calls.append(len(examples))
        return _fn(examples)

    monkeypatch.setattr(data, "examples_to_arrays", record)
    raw = json.loads(config.read_text())
    raw["model"]["family"] = family
    cfg = ExperimentConfig.from_dict(raw)
    cli.fit_model(cfg, read_prepared(cfg.prepared_dir()))
    assert len(calls) == 1 and calls[0] > 0
