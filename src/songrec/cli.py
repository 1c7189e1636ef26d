"""Command-line front end: prepare | train | evaluate | sweep.

Every run is driven by one JSON config (all defaults pre-filled, see
:mod:`songrec.config`), optionally patched with ``--set key=value``
overrides. Progress goes to stderr; machine-readable artifacts go to
files under the output directory, and each command ends by atomically
writing a run manifest sufficient to reproduce it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import logging
import os
import platform
import resource
import sys
import time
import zlib

import numpy as np

from . import FAMILIES, __version__, checkpoint, core
from .baselines import fpmc_train, play_count_matrix, w2v_train, wmf_train
from .config import ExperimentConfig, apply_override
from .data import (
    drop_unknown_users,
    extract_examples,
    open_event_stream,
    parse_events,
    prepare,
    read_prepared,
    write_prepared,
)
from .evaluation import emit_curves, evaluate
from .models import train
from .util import atomic_write_json, atomic_write_text, make_rng

logger = logging.getLogger("songrec")

SEED_COMPONENTS = ("split", "init", "train", "eval")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _seeds(cfg: ExperimentConfig) -> dict:
    seeds = {"root": cfg.seed}
    seeds.update({name: cfg.subseed(name) for name in SEED_COMPONENTS})
    return seeds


def _environment() -> dict:
    """What a run's bits and speed depend on beside its config: the Python
    and numpy versions, numpy's BLAS build, the BLAS thread variables
    (null when unset) and the CPU count; and what its speed alone depends
    on: the threads the kernels run on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "kernel_threads": core.kernel_threads(),
    }


def _write_manifest(
    cfg: ExperimentConfig, command: str, artifacts: dict, timings: dict, **measured
):
    """Write ``<command>_manifest.json``; ``measured`` adds command-specific
    figures next to the timings, the process's peak RSS so far and the
    :func:`_environment`."""
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "seeds": _seeds(cfg),
        "artifacts": artifacts,
        "timings_sec": {k: round(v, 3) for k, v in timings.items()},
        "peak_rss_mb": round(peak_rss_kib / 1024, 1),
        **measured,
        "environment": _environment(),
        "version": f"songrec {__version__}",
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{command}_manifest.json")
    atomic_write_json(path, manifest)
    return path


def cmd_prepare(cfg: ExperimentConfig) -> int:
    data_cfg = cfg.data
    if not data_cfg.raw_path:
        raise ValueError("prepare needs data.raw_path in the config")
    if not os.path.exists(data_cfg.raw_path):
        raise FileNotFoundError(f"raw dataset not found: {data_cfg.raw_path}")
    t0 = time.perf_counter()
    try:
        with open_event_stream(data_cfg.raw_path) as stream:
            events, summary = parse_events(stream)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # a cut or corrupt .gz
        raise ValueError(f"{data_cfg.raw_path}: cannot decompress: {exc}") from None
    logger.info("parsed %d events (%d lines skipped)", summary.parsed, summary.skipped)
    t_parse = time.perf_counter()
    prepared = prepare(events, data_cfg, cfg.subseed("split"))
    prepared.stats["parse"] = {"parsed": summary.parsed, "skipped": summary.skipped}
    prepared.stats["root_seed"] = cfg.seed
    out = cfg.prepared_dir()
    write_prepared(out, prepared)
    t_done = time.perf_counter()
    logger.info(
        "prepared %d users / %d songs / %d records -> %s",
        prepared.n_users, prepared.n_songs, prepared.stats["records"], out,
    )
    _write_manifest(
        cfg,
        "prepare",
        {"prepared_dir": out},
        {"parse": t_parse - t0, "pipeline": t_done - t_parse},
        parse_lines_per_s=round((summary.parsed + summary.skipped) / (t_parse - t0)),
    )
    return 0


def fit_model(cfg: ExperimentConfig, prepared):
    """Train the configured family on the prepared training split, with
    the settings of its config section.

    Returns (model, per-epoch loss history).
    """
    mc = cfg.model
    split = prepared.split
    n_songs, n_users = prepared.n_songs, prepared.n_users
    if mc.family == "w2v":
        return w2v_train(split.train, n_songs, d=mc.d, rng=make_rng(cfg.subseed("train")),
                         **dataclasses.asdict(mc.w2v))
    if mc.family == "wmf":
        return wmf_train(play_count_matrix(split.train, n_users, n_songs), n_users, n_songs,
                         rng=make_rng(cfg.subseed("init")), **dataclasses.asdict(mc.wmf))
    if mc.family == "fpmc":
        examples = extract_examples(split.train, 1)  # fpmc_train refuses an empty set
        return fpmc_train(examples, n_users, n_songs, rng=make_rng(cfg.subseed("train")),
                          **dataclasses.asdict(mc.fpmc))
    params = FAMILIES[mc.family](
        n_songs, n_users, mc, rng=make_rng(cfg.subseed("init")), dtype=mc.dtype)
    examples = extract_examples(split.train, mc.j)
    if len(examples) == 0:
        raise ValueError(f"no training examples at order j={mc.j}; sessions too short?")
    history = train(examples, params, make_rng(cfg.subseed("train")))
    return params, history


def _write_trained(out_dir, model, history) -> tuple[str, str]:
    """Write ``model.ckpt`` and ``loss_history.csv`` under ``out_dir``;
    returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    checkpoint.save(ckpt_path, *model.to_checkpoint())
    checkpoint.load(ckpt_path)  # validate the written container before reporting success
    loss_path = os.path.join(out_dir, "loss_history.csv")
    lines = ["epoch,loss"] + [f"{i},{x!r}" for i, x in enumerate(history)]
    atomic_write_text(loss_path, "\n".join(lines) + "\n")
    return ckpt_path, loss_path


def cmd_train(cfg: ExperimentConfig) -> int:
    prepared = read_prepared(cfg.prepared_dir())
    t0 = time.perf_counter()
    model, history = fit_model(cfg, prepared)
    t_train = time.perf_counter()
    ckpt_path, loss_path = _write_trained(cfg.out_dir, model, history)
    logger.info(
        "trained %s in %.1fs (%d history points) -> %s",
        cfg.model.family, t_train - t0, len(history), ckpt_path,
    )
    _write_manifest(
        cfg,
        "train",
        {"checkpoint": ckpt_path, "loss_history": loss_path},
        {"train": t_train - t0},
        # w2v trains on pairs and wmf on a count matrix, neither on examples
        examples_per_epoch=prepared.split.train.n_examples(model.order) if model.order else None,
    )
    return 0


def _eval_order(model, cfg: ExperimentConfig) -> int:
    """Context length of the test examples: the model's own order, else
    the configured j for families that accept any length."""
    return model.order or cfg.model.j


def _evaluate_test_split(cfg: ExperimentConfig, model, prepared, label: str):
    """Report of ``model`` on the prepared test split, under ``cfg.eval``.

    Test users absent from training are dropped, and the examples take
    their context length from :func:`_eval_order`.
    """
    split = prepared.split
    order = _eval_order(model, cfg)
    examples = extract_examples(drop_unknown_users(split.test, split.train), order)
    if len(examples) == 0:
        raise ValueError(f"no test examples at order j={order}")
    report = evaluate(
        model,
        examples,
        cfg.eval,
        seed=cfg.subseed("eval"),
        train=split.train,
        label=label,
    )
    k = cfg.eval.ks[0]
    logger.info(
        "evaluated %s on %d examples: recall@%d = %.4f",
        label, report.n_examples, k, report.recall[k],
    )
    return report


def cmd_evaluate(cfg: ExperimentConfig, ckpt_path: str) -> int:
    model = checkpoint.load_model(ckpt_path)
    prepared = read_prepared(cfg.prepared_dir())
    if model.n_songs != prepared.n_songs:
        raise ValueError(
            f"vocabulary mismatch: checkpoint has {model.n_songs} songs, "
            f"prepared data has {prepared.n_songs}"
        )
    if model.n_users is not None and model.n_users != prepared.n_users:
        raise ValueError(
            f"user mismatch: checkpoint has {model.n_users} users, "
            f"prepared data has {prepared.n_users}"
        )
    t0 = time.perf_counter()
    report = _evaluate_test_split(cfg, model, prepared, model.model_type)
    t_eval = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report.json")
    atomic_write_json(report_path, report.to_dict())
    curves_path = os.path.join(cfg.out_dir, "curves.csv")
    emit_curves([report], curves_path)
    _write_manifest(
        cfg,
        "evaluate",
        {"checkpoint": ckpt_path, "report": report_path, "curves": curves_path},
        {"evaluate": t_eval - t0},
        examples_per_s=round(report.n_examples / (t_eval - t0)),
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig, orders: list[int]) -> int:
    """Run train + evaluate once per context order, each in
    ``order-<j>/``, and compare the orders in ``comparison.csv``."""
    if cfg.model.family not in ("cnnrec", "nnrec"):
        raise ValueError("order sweeps support the cnnrec and nnrec families")
    orders = sorted(set(orders))
    if not orders or orders[0] < 1 or orders[-1] > 10:
        raise ValueError(f"orders must lie in [1, 10], got {orders}")
    order_cfgs = {j: dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, j=j))
                  for j in orders}
    prepared = read_prepared(cfg.prepared_dir())
    t0 = time.perf_counter()
    artifacts = {}
    reports = []
    for j, order_cfg in order_cfgs.items():
        order_dir = os.path.join(cfg.out_dir, f"order-{j}")
        model, history = fit_model(order_cfg, prepared)
        _write_trained(order_dir, model, history)
        report = _evaluate_test_split(order_cfg, model, prepared, f"j={j}")
        path = os.path.join(order_dir, "report.json")
        atomic_write_json(path, report.to_dict())
        artifacts[f"order-{j}"] = path
        reports.append(report)
    t_sweep = time.perf_counter()
    comparison = os.path.join(cfg.out_dir, "comparison.csv")
    emit_curves(reports, comparison)
    artifacts["comparison"] = comparison
    _write_manifest(cfg, "sweep", artifacts, {"sweep": t_sweep - t0})
    return 0


def load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    for assignment in args.set or []:
        apply_override(raw, assignment)
    if args.out:
        raw["out_dir"] = args.out
    return ExperimentConfig.from_dict(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="songrec",
        description="Next-song recommendation experiments: data preparation, "
        "model training, top-N evaluation, and context-order sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry by dotted key, e.g. --set model.j=3",
        )
        p.add_argument("--log-level", default="INFO", type=str.upper, choices=LOG_LEVELS,
                       help="one of %(choices)s, in any case")

    common(sub.add_parser("prepare", help="build the prepared dataset directory"))
    common(sub.add_parser("train", help="train the configured model"))
    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="path to a model checkpoint")
    p_sweep = sub.add_parser("sweep", help="train/evaluate across context orders")
    common(p_sweep)
    p_sweep.add_argument(
        "--orders", default="1,2,3,4,5", help="comma-separated context orders, e.g. 1,2,3"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=args.log_level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint)
        if args.command == "sweep":
            orders = [int(tok) for tok in args.orders.split(",") if tok]
            return cmd_sweep(cfg, orders)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, KeyError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
