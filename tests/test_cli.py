import json
import logging
import os

import numpy as np
import pytest

from songrec import checkpoint
from songrec.cli import _eval_order, main
from songrec.config import ExperimentConfig, apply_override
from songrec.models import CnnRecParams
from songrec.util import make_rng


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
        hy = cfg.model.hyperparams()
        assert (hy.d, hy.j, hy.h, hy.m, hy.w) == (60, 5, 300, 325, 2)
        assert (hy.epochs, hy.batch, hy.lr, hy.dropout_p) == (25, 50, 0.01, 0.7)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"sead": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig.from_dict({"model": {"hidden": 10}})

    def test_dropout_is_keep_resolves_to_drop_probability(self):
        cfg = ExperimentConfig.from_dict(
            {"model": {"dropout": 0.7, "dropout_is_keep": True}}
        )
        assert np.isclose(cfg.model.hyperparams().dropout_p, 0.3)

    def test_order_is_one_for_first_order_family(self):
        from songrec.baselines import fpmc_init

        cfg = ExperimentConfig.from_dict({"model": {"family": "fpmc"}})
        assert _eval_order(fpmc_init(2, 5, f=2), cfg) == 1

    def test_apply_override_parses_json_values(self):
        raw = {}
        apply_override(raw, "model.j=3")
        apply_override(raw, "data.ratios=[0.5,0.25,0.25]")
        apply_override(raw, "model.family=nnrec")
        assert raw == {
            "model": {"j": 3, "family": "nnrec"},
            "data": {"ratios": [0.5, 0.25, 0.25]},
        }

    def test_subseeds_differ_by_component_and_root(self):
        cfg = ExperimentConfig.from_dict({"seed": 5})
        assert cfg.subseed("train") != cfg.subseed("init")
        other = ExperimentConfig.from_dict({"seed": 6})
        assert cfg.subseed("train") != other.subseed("train")

    def test_hash_stable_under_key_order(self):
        a = ExperimentConfig.from_dict({"seed": 1, "out_dir": "x"})
        b = ExperimentConfig.from_dict({"out_dir": "x", "seed": 1})
        assert a.hash() == b.hash()


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

    def test_train_logs_one_progress_line_per_epoch(self, prepared, caplog):
        tmp, config = prepared
        with caplog.at_level(logging.INFO, logger="songrec"):
            assert run_cli("train", "--config", config, "--out", tmp / "progress",
                           "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}") == 0
        lines = [r.getMessage() for r in caplog.records if " epoch " in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == ["cnnrec epoch 1/2", "cnnrec epoch 2/2"]
        assert all("examples/s" in line and "elapsed" in line for line in lines)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
    def test_diverging_training_exits_with_one_line(self, prepared, caplog):
        tmp, config = prepared
        code = run_cli("train", "--config", config, "--out", tmp / "diverge",
                       "--set", "model.lr=1e300",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "diverged in epoch 1" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()
        assert not (tmp / "diverge" / "model.ckpt").exists()

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
            110, 2, cfg.model.hyperparams(), rng=make_rng(cfg.subseed("init"))
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
        from songrec.data import extract_examples, read_prepared

        pre = read_prepared(tmp / "run" / "prepared")
        n, u = pre.n_songs, pre.n_users
        examples = extract_examples(pre.split.test, 1)
        v_li = np.zeros((n, n))
        for e in examples:
            v_li[e.context[0], e.target] = 1.0
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

    def test_vocab_mismatch_reported_with_both_sizes(self, prepared, caplog):
        tmp, config = prepared
        out = tmp / "mismatch"
        os.makedirs(out, exist_ok=True)
        from songrec.models import Hyperparams, NnRecParams

        tiny = NnRecParams(7, 2, Hyperparams(d=4, j=2, h=5, m=3, w=2), rng=make_rng(0))
        checkpoint.save(out / "model.ckpt", *tiny.to_checkpoint())
        code = run_cli("evaluate", "--config", config, "--out", out,
                       "--checkpoint", out / "model.ckpt",
                       "--set", f"data.prepared_dir={tmp / 'run' / 'prepared'}")
        assert code == 1
        assert any("7" in r.message and "110" in r.message for r in caplog.records)


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

    def test_sweep_on_third_order_data_prefers_order_three(self, tmp_path):
        # comparison table must show the higher order winning at k=1 when
        # the target is a function of the 3rd-previous song
        import csv

        from conftest import third_order_sessions
        from songrec.data import PreparedDataset, SplitDataset, VocabMap, write_prepared

        train_s = third_order_sessions(150, seed=1)
        test_s = third_order_sessions(50, seed=2)
        val_s = third_order_sessions(5, seed=3)
        prepared_dir = tmp_path / "prep"
        write_prepared(
            prepared_dir,
            PreparedDataset(
                vocab=VocabMap([f"s{i}" for i in range(30)]),
                user_keys=["u0"],
                split=SplitDataset(train_s, val_s, test_s, seed=0, ratios=(0.7, 0.1, 0.2)),
                stats={"seed": 0, "ratios": [0.7, 0.1, 0.2]},
            ),
        )
        config = write_config(
            tmp_path / "c.json",
            **{
                "data.prepared_dir": str(prepared_dir),
                "out_dir": str(tmp_path / "sweep"),
                "model.family": "nnrec",
                "model.d": 16,
                "model.h": 32,
                "model.epochs": 30,
                "model.batch": 50,
                "model.dropout": 0.0,
                "eval.ks": [1, 5],
            },
        )
        assert run_cli("sweep", "--config", config, "--orders", "1,3") == 0
        with open(tmp_path / "sweep" / "comparison.csv", newline="") as fh:
            rows = {(r["model"], int(r["k"])): float(r["recall"]) for r in csv.DictReader(fh)}
        assert rows[("j=3", 1)] >= 0.8
        assert rows[("j=3", 1)] > rows[("j=1", 1)]

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
                                            "eval.exclude_train_songs=1", "seed=true"])
    def test_wrong_config_type_exit_code(self, tmp_path, caplog, assignment):
        code = run_cli("prepare", "--set", assignment, "--out", tmp_path)
        assert code == 1
        key = assignment.split("=")[0]
        assert any(f"config.{key} must be" in r.getMessage() for r in caplog.records)

    def test_train_without_prepared_dir_fails(self, tmp_path):
        config = write_config(tmp_path / "c.json", **{"out_dir": str(tmp_path / "o")})
        assert run_cli("train", "--config", config) == 1
