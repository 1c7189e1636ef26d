"""In-process span tracing of songrec, installed from the benchmark's side.

:func:`install` replaces functions at the names their callers look up
(``songrec.cli.evaluate``, ``songrec.models.affine``, the
``score_catalog`` method of each model class, ...) with wrappers that
record one span per call: name, start, end, parent span. Spans live in
memory and are written out by :meth:`Tracer.dump` when the run ends.
Nothing under ``src/`` is changed; tracing exists only in the process
that calls :func:`install`.

Work counts are recorded at the same boundaries. Counts marked
"computed" are derived from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Span store for one run. Spans are recorded only while ``recording``
    is set, so the benchmark's own checks leave no spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.recording = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span. Self time is the duration minus
        the time the span's direct children cover; one thread runs the
        pipeline, so children never overlap."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return dur, dur - covered

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (sum of durations) and self_s."""
        dur, own = self.durations()
        out: dict[str, dict[str, float]] = {}
        for name, d, s in zip(self.names, dur.tolist(), own.tolist()):
            a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += d
            a["self_s"] += s
        return out

    def roots(self) -> list[dict]:
        """Each root span (a stage call) with its duration and its own
        self time: the part of the stage no traced boundary covers."""
        dur, own = self.durations()
        return [
            {"name": self.names[i], "total_s": float(dur[i]), "self_s": float(own[i])}
            for i, p in enumerate(self.parents) if p < 0
        ]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")


# ---------------------------------------------------------------------------
# Work counters, one per traced boundary that has work to count
# ---------------------------------------------------------------------------


def _count_parse(c, args, kwargs, out):
    summary = out[1]
    c["data.parse_events.parsed"] += summary.parsed
    c["data.parse_events.skipped"] += summary.skipped


def _count_examples(c, args, kwargs, out):
    c["data.extract_examples.examples"] += len(out)


def _count_train_step(c, args, kwargs, out):
    c["models.train_step.examples"] += len(args[0][2])


def _count_affine(c, args, kwargs, out):
    x, w = args[0], args[1]
    c["core.affine.flops"] += 2.0 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]


def _count_conv1d(c, args, kwargs, out):
    s, filters = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    m, w, d = filters.shape
    j = s.shape[-2]
    positions = (j - w) // stride + 1
    c["core.conv1d.flops"] += 2.0 * (s.size // (j * d)) * positions * m * w * d


def _count_adagrad(c, args, kwargs, out):
    # read param, grad and accumulator; write param and accumulator
    c["core.adagrad_step.bytes"] += 5.0 * args[0].nbytes


def _count_adagrad_rows(c, args, kwargs, out):
    rows = np.asarray(args[1])
    c["core.adagrad_step_rows.rows"] += rows.size
    c["core.adagrad_step_rows.unique"] += np.unique(rows).size


def _count_w2v(c, args, kwargs, out):
    from songrec.baselines import _pair_count, _session_items

    pairs = sum(_pair_count(len(x), kwargs["window"]) for x in _session_items(args[0]))
    c["baselines.w2v_train.pairs"] += kwargs["epochs"] * pairs


def _count_fpmc(c, args, kwargs, out):
    c["baselines.fpmc_train.updates"] += kwargs["epochs"] * len(args[0])


def _count_evaluate(c, args, kwargs, out):
    c["evaluation.evaluate.examples"] += len(args[1])


def _count_candidates(c, args, kwargs, out):
    _model, e, _position, config, train_user_songs, n_songs = args
    if config.protocol == "full" and not config.exclude_train_songs:
        built = used = n_songs
    else:
        heard = train_user_songs.get(e.user, ())
        unheard = n_songs - len(heard) - (e.target not in heard)
        built = unheard + 1
        used = (min(unheard, config.n_neg) if config.protocol == "sampled" else unheard) + 1
    c["evaluation.candidates.built"] += built
    c["evaluation.candidates.used"] += used


def _count_save(c, args, kwargs, out):
    c["checkpoint.save.bytes"] += os.path.getsize(args[0])


CORE_KERNELS = (
    "embed_lookup", "conv1d", "conv1d_backward", "affine", "affine_backward", "relu",
    "relu_backward", "dropout", "dropout_backward", "concat", "concat_backward",
    "softmax_xent_backward", "adagrad_step", "adagrad_step_rows",
)

_KERNEL_COUNTS = {
    "affine": _count_affine,
    "conv1d": _count_conv1d,
    "adagrad_step": _count_adagrad,
    "adagrad_step_rows": _count_adagrad_rows,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the already-imported songrec."""
    from songrec import baselines, checkpoint, cli, data, evaluation, models

    for attr in ("cmd_prepare", "cmd_train", "cmd_evaluate", "fit_model", "_write_manifest"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    # data layer: cli imports the stage entry points by name, prepare()
    # calls its steps through the data module, train() imports
    # examples_to_arrays from data when it runs
    tracer.wrap(cli, "parse_events", "data.parse_events", _count_parse)
    tracer.wrap(cli, "prepare", "data.prepare")
    tracer.wrap(cli, "write_prepared", "data.write_prepared")
    tracer.wrap(cli, "read_prepared", "data.read_prepared")
    tracer.wrap(cli, "extract_examples", "data.extract_examples", _count_examples)
    for attr in ("build_vocab", "filter_to_vocab", "build_user_index", "sessionize",
                 "split_dataset", "delete_train_overlap", "examples_to_arrays"):
        tracer.wrap(data, attr, f"data.{attr}")
    # models and the core kernels, at the names models looks them up by
    tracer.wrap(models, "train_step", "models.train_step", _count_train_step)
    tracer.wrap(models, "softmax_xent_from_probs", "models.softmax_xent_from_probs")
    tracer.wrap(models._NeuralParams, "forward_batch", "models.forward_batch")
    tracer.wrap(models._NeuralParams, "backward_batch", "models.backward_batch")
    for kernel in CORE_KERNELS:
        tracer.wrap(models, kernel, f"core.{kernel}", _KERNEL_COUNTS.get(kernel))
    # baselines: cli imports the trainers by name
    tracer.wrap(cli, "w2v_train", "baselines.w2v_train", _count_w2v)
    tracer.wrap(cli, "fpmc_train", "baselines.fpmc_train", _count_fpmc)
    tracer.wrap(cli, "wmf_train", "baselines.wmf_train")
    tracer.wrap(cli, "play_count_matrix", "baselines.play_count_matrix")
    for attr in ("fpmc_sbpr_update", "_als_half_sweep", "wmf_objective"):
        tracer.wrap(baselines, attr, f"baselines.{attr}")
    # evaluation
    tracer.wrap(cli, "evaluate", "evaluation.evaluate", _count_evaluate)
    tracer.wrap(cli, "emit_curves", "evaluation.emit_curves")
    tracer.wrap(evaluation, "_example_rank", "evaluation._example_rank", _count_candidates)
    for attr in ("rank_of_target", "_full_catalog_rank"):
        tracer.wrap(evaluation, attr, f"evaluation.{attr}")
    for cls in (models._NeuralParams, baselines.ItemEmbeddings, baselines.WmfFactors,
                baselines.FpmcFactors):
        tracer.wrap(cls, "score_catalog", "evaluation.score_catalog")
    # checkpoint: cli calls it through the module, load_model calls load
    tracer.wrap(checkpoint, "save", "checkpoint.save", _count_save)
    tracer.wrap(checkpoint, "load", "checkpoint.load")
    tracer.wrap(checkpoint, "load_model", "checkpoint.load_model")


LAYERS = {
    "data": ("data",),
    "models_core": ("models", "core"),
    "baselines": ("baselines",),
    "evaluation": ("evaluation",),
    "checkpoint": ("checkpoint",),
    "cli": ("cli",),
}


def layer_metrics(tracer: Tracer, pipeline_s: float, rss_after_prepare_mb: float,
                  reference_train_examples: float) -> dict[str, float]:
    """Every per-layer metric of one traced pipeline pass; zero where the
    workload never reached the boundary."""
    agg = tracer.aggregate()
    c = tracer.counts

    def get(name, field):
        return float(agg.get(name, {}).get(field, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    lines = c["data.parse_events.parsed"] + c["data.parse_events.skipped"]
    parse_total = get("data.parse_events", "total_s")
    m["data.parse_events.self_s"] = get("data.parse_events", "self_s")
    m["data.parse_events.lines"] = lines
    m["data.parse_events.skipped"] = c["data.parse_events.skipped"]
    m["data.parse_events.lines_per_s"] = ratio(lines, parse_total)
    m["data.parse_events.parsed_ratio"] = ratio(c["data.parse_events.parsed"], lines)
    for step in ("build_vocab", "filter_to_vocab", "build_user_index", "sessionize",
                 "split_dataset", "delete_train_overlap", "write_prepared", "prepare"):
        m[f"data.{step}.self_s"] = get(f"data.{step}", "self_s")
    m["cli.cmd_prepare.rss_after_mb"] = rss_after_prepare_mb
    for step in ("read_prepared", "extract_examples"):
        m[f"data.{step}.calls"] = get(f"data.{step}", "calls")
        m[f"data.{step}.self_s"] = get(f"data.{step}", "self_s")
    m["data.extract_examples.examples"] = c["data.extract_examples.examples"]
    m["data.examples_to_arrays.self_s"] = get("data.examples_to_arrays", "self_s")

    m["models.train_step.calls"] = get("models.train_step", "calls")
    m["models.train_step.self_s"] = get("models.train_step", "self_s")
    m["models.train_step.examples_per_s"] = ratio(
        c["models.train_step.examples"], get("models.train_step", "total_s"))
    for fn in ("forward_batch", "backward_batch", "softmax_xent_from_probs"):
        m[f"models.{fn}.self_s"] = get(f"models.{fn}", "self_s")
    for kernel in CORE_KERNELS:
        m[f"core.{kernel}.calls"] = get(f"core.{kernel}", "calls")
        m[f"core.{kernel}.self_s"] = get(f"core.{kernel}", "self_s")
    m["core.affine.flops"] = c["core.affine.flops"]
    m["core.conv1d.flops"] = c["core.conv1d.flops"]
    m["core.adagrad_step.bytes"] = c["core.adagrad_step.bytes"]
    m["core.adagrad_step_rows.unique_ratio"] = ratio(
        c["core.adagrad_step_rows.unique"], c["core.adagrad_step_rows.rows"])

    w2v_s = get("baselines.w2v_train", "total_s")
    m["baselines.w2v_train.total_s"] = w2v_s
    m["baselines.w2v_train.pairs"] = c["baselines.w2v_train.pairs"]
    m["baselines.w2v_train.pairs_per_s"] = ratio(c["baselines.w2v_train.pairs"], w2v_s)
    fpmc_s = get("baselines.fpmc_train", "total_s")
    m["baselines.fpmc_train.total_s"] = fpmc_s
    m["baselines.fpmc_train.updates_per_s"] = ratio(c["baselines.fpmc_train.updates"], fpmc_s)
    m["baselines.wmf_train.total_s"] = get("baselines.wmf_train", "total_s")
    for fn in ("fpmc_sbpr_update", "_als_half_sweep", "wmf_objective"):
        m[f"baselines.{fn}.calls"] = get(f"baselines.{fn}", "calls")
        m[f"baselines.{fn}.self_s"] = get(f"baselines.{fn}", "self_s")
    m["baselines.play_count_matrix.self_s"] = get("baselines.play_count_matrix", "self_s")

    eval_s = get("evaluation.evaluate", "total_s")
    m["evaluation.evaluate.total_s"] = eval_s
    m["evaluation.evaluate.examples"] = c["evaluation.evaluate.examples"]
    m["evaluation.evaluate.examples_per_s"] = ratio(c["evaluation.evaluate.examples"], eval_s)
    m["evaluation.score_catalog.calls"] = get("evaluation.score_catalog", "calls")
    m["evaluation.score_catalog.self_s"] = get("evaluation.score_catalog", "self_s")
    for fn in ("_example_rank", "rank_of_target", "_full_catalog_rank", "emit_curves"):
        m[f"evaluation.{fn}.self_s"] = get(f"evaluation.{fn}", "self_s")
    m["evaluation.candidates_used_ratio"] = ratio(
        c["evaluation.candidates.used"], c["evaluation.candidates.built"])

    m["checkpoint.save.self_s"] = get("checkpoint.save", "self_s")
    m["checkpoint.save.bytes"] = c["checkpoint.save.bytes"]
    m["checkpoint.load.calls"] = get("checkpoint.load", "calls")
    m["checkpoint.load.self_s"] = get("checkpoint.load", "self_s")
    m["checkpoint.load_model.self_s"] = get("checkpoint.load_model", "self_s")

    for fn in ("cmd_prepare", "cmd_train", "cmd_evaluate", "fit_model"):
        m[f"cli.{fn}.total_s"] = get(f"cli.{fn}", "total_s")
    m["cli._write_manifest.self_s"] = get("cli._write_manifest", "self_s")

    layer_self = defaultdict(float)
    for name, a in agg.items():
        layer_self[name.split(".", 1)[0]] += a["self_s"]
    for layer, modules in LAYERS.items():
        m[f"layer.{layer}.self_share"] = ratio(sum(layer_self[x] for x in modules), pipeline_s)

    # derived, outside the gate: the reference run is 25 epochs over the
    # training share of last.fm-1k's ~4.09M in-vocabulary plays
    rate = m["models.train_step.examples_per_s"]
    m["derived.reference_cnnrec_hours"] = ratio(25 * reference_train_examples, rate) / 3600.0
    return m
