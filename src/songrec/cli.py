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
import json
import logging
import os
import sys
import time

from . import __version__, checkpoint
from .baselines import fpmc_train, play_count_matrix, w2v_train, wmf_train
from .config import ExperimentConfig, apply_override
from .data import (
    _train_song_sets,
    drop_unknown_users,
    extract_examples,
    open_event_stream,
    parse_events,
    prepare,
    read_prepared,
    write_prepared,
)
from .evaluation import emit_curves, evaluate, sweep_order
from .models import CnnRecParams, NnRecParams, train
from .util import atomic_write_json, atomic_write_text, make_rng

logger = logging.getLogger("songrec")

SEED_COMPONENTS = ("split", "init", "train", "eval")


def _seeds(cfg: ExperimentConfig) -> dict:
    seeds = {"root": cfg.seed}
    seeds.update({name: cfg.subseed(name) for name in SEED_COMPONENTS})
    return seeds


def _write_manifest(cfg: ExperimentConfig, command: str, artifacts: dict, timings: dict):
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "seeds": _seeds(cfg),
        "artifacts": artifacts,
        "timings_sec": {k: round(v, 3) for k, v in timings.items()},
        "version": f"songrec {__version__}",
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{command}_manifest.json")
    atomic_write_json(path, manifest)
    return path


def _loss_history_csv(path, history):
    lines = ["epoch,loss"] + [f"{i},{x!r}" for i, x in enumerate(history)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_prepare(cfg: ExperimentConfig) -> int:
    data_cfg = cfg.data
    if not data_cfg.raw_path:
        raise ValueError("prepare needs data.raw_path in the config")
    if not os.path.exists(data_cfg.raw_path):
        raise FileNotFoundError(f"raw dataset not found: {data_cfg.raw_path}")
    t0 = time.perf_counter()
    with open_event_stream(data_cfg.raw_path) as stream:
        events, summary = parse_events(stream)
    logger.info("parsed %d events (%d lines skipped)", summary.parsed, summary.skipped)
    t_parse = time.perf_counter()
    prepared = prepare(
        events,
        vocab_cap=data_cfg.vocab_cap,
        gap_seconds=data_cfg.gap_seconds,
        ratios=tuple(data_cfg.ratios),
        seed=cfg.subseed("split"),
        overlap_mode=data_cfg.overlap_mode,
        shuffle_unit=data_cfg.shuffle_unit,
    )
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
    )
    return 0


def _epoch_progress(family: str, epochs: int, n_examples: int):
    """Training callback that logs one line per epoch: loss, examples/s
    over the epoch, and seconds since training started."""
    start = last = time.perf_counter()

    def log_epoch(epoch, params, loss):
        nonlocal last
        now = time.perf_counter()
        logger.info(
            "%s epoch %d/%d: loss %.4f, %.0f examples/s, %.1fs elapsed",
            family, epoch + 1, epochs, loss, n_examples / (now - last), now - start,
        )
        last = now

    return log_epoch


def fit_model(cfg: ExperimentConfig, prepared, order: int | None = None):
    """Train the configured family on the prepared training split.

    Returns (model, per-epoch loss history). ``order`` overrides the
    context length for the neural families (used by sweeps).
    """
    mc = cfg.model
    split = prepared.split
    n_songs, n_users = prepared.n_songs, prepared.n_users
    family = mc.family
    if family in ("cnnrec", "nnrec"):
        hyper = mc.hyperparams()
        if order is not None:
            if family == "nnrec":
                # the plain model has no filters; don't let an inherited
                # filter width block low orders
                hyper = dataclasses.replace(hyper, j=order, w=min(hyper.w, order))
            else:
                hyper = hyper.with_order(order)
        cls = CnnRecParams if family == "cnnrec" else NnRecParams
        params = cls(n_songs, n_users, hyper, rng=make_rng(cfg.subseed("init")), dtype=mc.dtype)
        examples = extract_examples(split.train, hyper.j)
        if not examples:
            raise ValueError(f"no training examples at order j={hyper.j}; sessions too short?")
        progress = _epoch_progress(family, hyper.epochs, len(examples))
        history = train(examples, params, make_rng(cfg.subseed("train")), [progress])
        return params, history
    if family == "w2v":
        emb = w2v_train(
            split.train,
            n_songs,
            d=mc.d,
            window=mc.w2v.window,
            negatives=mc.w2v.negatives,
            lr=mc.w2v.lr,
            epochs=mc.w2v.epochs,
            rng=make_rng(cfg.subseed("train")),
        )
        return emb, emb.loss_history
    if family == "wmf":
        counts = play_count_matrix(split.train, n_users, n_songs)
        factors = wmf_train(
            counts,
            f=mc.wmf.f,
            alpha=mc.wmf.alpha,
            lam=mc.wmf.lam,
            iters=mc.wmf.iters,
            rng=make_rng(cfg.subseed("init")),
            track_objective=True,
        )
        return factors, factors.objective_history
    if family == "fpmc":
        examples = extract_examples(split.train, 1)
        if not examples:
            raise ValueError("no training examples; sessions too short?")
        factors = fpmc_train(
            examples,
            n_users,
            n_songs,
            f=mc.fpmc.f,
            lr=mc.fpmc.lr,
            lam=mc.fpmc.lam,
            epochs=mc.fpmc.epochs,
            rng=make_rng(cfg.subseed("train")),
        )
        return factors, factors.loss_history
    raise ValueError(f"unknown model family {family!r}")


def _save_checkpoint(path, model):
    checkpoint.save(path, *model.to_checkpoint())
    checkpoint.load(path)  # validate the written container before reporting success


def cmd_train(cfg: ExperimentConfig) -> int:
    prepared = read_prepared(cfg.prepared_dir())
    t0 = time.perf_counter()
    model, history = fit_model(cfg, prepared)
    t_train = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, "model.ckpt")
    _save_checkpoint(ckpt_path, model)
    loss_path = os.path.join(cfg.out_dir, "loss_history.csv")
    _loss_history_csv(loss_path, history)
    logger.info(
        "trained %s in %.1fs (%d history points) -> %s",
        cfg.model.family, t_train - t0, len(history), ckpt_path,
    )
    _write_manifest(
        cfg,
        "train",
        {"checkpoint": ckpt_path, "loss_history": loss_path},
        {"train": t_train - t0},
    )
    return 0


def _eval_order(model, cfg: ExperimentConfig) -> int:
    """Context length of the test examples: the model's own order, else
    the configured j for families that accept any length."""
    return model.order or cfg.model.j


def cmd_evaluate(cfg: ExperimentConfig, ckpt_path: str) -> int:
    model = checkpoint.load_model(ckpt_path)
    prepared = read_prepared(cfg.prepared_dir())
    if model.n_songs != prepared.n_songs:
        raise ValueError(
            f"vocabulary mismatch: checkpoint has {model.n_songs} songs, "
            f"prepared data has {prepared.n_songs}"
        )
    split = prepared.split
    kept = drop_unknown_users(split.test, split.train)
    order = _eval_order(model, cfg)
    examples = extract_examples(kept, order)
    if not examples:
        raise ValueError(f"no test examples at order j={order}")
    eval_config = cfg.eval.to_eval_config(cfg.subseed("eval"))
    t0 = time.perf_counter()
    report = evaluate(
        model,
        examples,
        eval_config,
        train_user_songs=_train_song_sets(split.train),
        label=model.model_type,
    )
    t_eval = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report.json")
    atomic_write_text(report_path, report.to_json())
    curves_path = os.path.join(cfg.out_dir, "curves.csv")
    emit_curves([report], curves_path)
    logger.info(
        "evaluated %s on %d examples: recall@%d = %.4f",
        report.label, report.n_examples, eval_config.ks[0],
        report.recall[eval_config.ks[0]],
    )
    _write_manifest(
        cfg,
        "evaluate",
        {"checkpoint": ckpt_path, "report": report_path, "curves": curves_path},
        {"evaluate": t_eval - t0},
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig, orders: list[int]) -> int:
    if cfg.model.family not in ("cnnrec", "nnrec"):
        raise ValueError("order sweeps support the cnnrec and nnrec families")
    prepared = read_prepared(cfg.prepared_dir())
    eval_config = cfg.eval.to_eval_config(cfg.subseed("eval"))
    os.makedirs(cfg.out_dir, exist_ok=True)

    def trainer(j, examples):
        model, history = fit_model(cfg, prepared, order=j)
        order_dir = os.path.join(cfg.out_dir, f"order-{j}")
        os.makedirs(order_dir, exist_ok=True)
        _save_checkpoint(os.path.join(order_dir, "model.ckpt"), model)
        _loss_history_csv(os.path.join(order_dir, "loss_history.csv"), history)
        return model

    t0 = time.perf_counter()
    results = sweep_order(
        prepared.split.train, prepared.split.test, trainer, orders, eval_config
    )
    t_sweep = time.perf_counter()
    artifacts = {}
    reports = []
    for j, report in results:
        path = os.path.join(cfg.out_dir, f"order-{j}", "report.json")
        atomic_write_text(path, report.to_json())
        artifacts[f"order-{j}"] = path
        reports.append(report)
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
        p.add_argument("--log-level", default="INFO", help="DEBUG, INFO, WARNING, ...")

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
        level=getattr(logging, args.log_level.upper(), logging.INFO),
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
