"""One pipeline pass in a fresh process: prepare, then train and evaluate
each family of the workload, through the same stage functions the
``songrec`` CLI runs. Prints one JSON object with the stage timings,
peak RSS, recall, output checks and, when traced, the per-layer metrics.

    python3 perfbench/worker.py <spec.json> <perf_counter value at spawn>

The spec is written by ``run.py``; with ``probe`` set the process stops
after the prepare stage and its check, and reports only set-up and
prepare.
``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
the parent's spawn time and this process's clock are comparable, and
set-up time covers interpreter start, the imports of songrec, numpy and
scipy, and config validation.
"""

import sys
import time

T_SPAWN = float(sys.argv[2])

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from songrec import checkpoint, cli  # noqa: E402
from songrec.config import ExperimentConfig  # noqa: E402
from songrec.data import drop_unknown_users, extract_examples, read_prepared  # noqa: E402

RECALL_K = 100
TICK_LOOPS = 200_000  # iterations of the host-speed gauge, about 20 ms
SCORE_SAMPLE = 16  # test examples whose scores must be finite
REFERENCE_TRAIN_EXAMPLES = 0.7 * 4.09e6


def _rss_now_mb() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def host_tick() -> float:
    """Seconds a fixed pure-Python loop takes right now: the gauge of how
    fast the host runs this process at the moment (README.md, "Host speed")."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(TICK_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Output checks, run after the timed stages
# ---------------------------------------------------------------------------


def check_prepare(cfg, written) -> list[str]:
    with open(os.path.join(cfg.prepared_dir(), "stats.json"), encoding="utf-8") as fh:
        parse = json.load(fh)["parse"]
    problems = []
    if parse["parsed"] + parse["skipped"] != written["lines"]:
        problems.append(f"parsed+skipped={parse['parsed'] + parse['skipped']} != lines {written['lines']}")
    if parse["skipped"] != written["malformed"]:
        problems.append(f"skipped={parse['skipped']} != malformed {written['malformed']}")
    return problems


def check_train(cfg) -> list[str]:
    with open(os.path.join(cfg.out_dir, "loss_history.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    if not values:
        return ["empty loss history"]
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite loss history {values}"]
    return []


def check_evaluate(cfg, model, prepared) -> tuple[list[str], float]:
    with open(os.path.join(cfg.out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    recall = [report["recall"][str(k)] for k in report["ks"]]
    if not all(0.0 <= r <= 1.0 for r in recall):
        problems.append(f"recall outside [0, 1]: {recall}")
    if any(b < a for a, b in zip(recall, recall[1:])):
        problems.append(f"recall not monotone in k: {recall}")
    # a NaN scorer ranks its target first, so the report alone cannot show it
    split = prepared.split
    order = cli._eval_order(model, cfg)
    examples = extract_examples(drop_unknown_users(split.test, split.train), order)
    step = max(1, len(examples) // SCORE_SAMPLE)
    for e in examples[::step][:SCORE_SAMPLE]:
        scores = model.score_catalog(e.user, e.context)
        if not all(math.isfinite(x) for x in scores.tolist()):
            problems.append(f"non-finite scores for user {e.user}")
            break
    return problems, report["recall"].get(str(RECALL_K), float("nan"))


# ---------------------------------------------------------------------------


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    cfgs = {fam: ExperimentConfig.from_dict(raw) for fam, raw in spec["configs"].items()}
    families = list(cfgs)
    prep_cfg = cfgs[families[0]]
    for cfg in cfgs.values():
        os.makedirs(cfg.out_dir, exist_ok=True)

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)

    calls = []  # one entry per stage call: stage, family, seconds, tick_s, error

    def run_stage(stage, family, fn, *args):
        """Call a stage once, as the CLI would, and time it; the host gauge
        runs just before and just after, outside the timed interval."""
        tick_before = host_tick()
        if tracer:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            rc = fn(*args)
            err = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a failing stage is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
        tick_s = (tick_before + host_tick()) / 2
        calls.append({"stage": stage, "family": family, "seconds": seconds, "tick_s": tick_s,
                      "error": err})
        return err is None

    setup_s = time.perf_counter() - T_SPAWN
    setup_tick_s = host_tick()
    prepared_ok = run_stage("prepare", None, cli.cmd_prepare, prep_cfg)
    if spec["probe"]:
        problems = check_prepare(prep_cfg, spec["written"]) if prepared_ok else []
        if problems:
            calls[0]["error"] = "; ".join(problems)
        print(json.dumps({"setup_s": setup_s, "setup_tick_s": setup_tick_s, "stages": calls}))
        return 0
    rss_after_prepare = _rss_now_mb()
    trained = {}
    for fam in families:
        trained[fam] = prepared_ok and run_stage("train", fam, cli.cmd_train, cfgs[fam])
        if trained[fam]:
            ckpt = os.path.join(cfgs[fam].out_dir, "model.ckpt")
            run_stage("evaluate", fam, cli.cmd_evaluate, cfgs[fam], ckpt)
    peak_rss = _peak_rss_mb()

    # stages that could not run because an earlier one failed count as failed
    for fam in families:
        if not prepared_ok:
            calls.append({"stage": "train", "family": fam, "seconds": 0.0, "error": "prepare failed"})
        if not trained[fam]:
            calls.append({"stage": "evaluate", "family": fam, "seconds": 0.0, "error": "train failed"})

    def fail(stage, family, problems):
        for c in calls:
            if c["stage"] == stage and c["family"] == family and c["error"] is None and problems:
                c["error"] = "; ".join(problems)

    recall = {}
    if prepared_ok:
        fail("prepare", None, check_prepare(prep_cfg, spec["written"]))
        prepared = read_prepared(prep_cfg.prepared_dir())
        for fam in families:
            if not trained[fam]:
                continue
            cfg = cfgs[fam]
            fail("train", fam, check_train(cfg))
            if any(c["stage"] == "evaluate" and c["family"] == fam and c["error"] is None for c in calls):
                model = checkpoint.load_model(os.path.join(cfg.out_dir, "model.ckpt"))
                problems, recall[fam] = check_evaluate(cfg, model, prepared)
                fail("evaluate", fam, problems)

    def stage_sum(name):
        return sum(c["seconds"] for c in calls if c["stage"] == name)

    result = {
        "setup_s": setup_s,
        "setup_tick_s": setup_tick_s,
        "prepare_s": stage_sum("prepare"),
        "train_s": stage_sum("train"),
        "evaluate_s": stage_sum("evaluate"),
        "peak_rss_mb": peak_rss,
        "recall": recall,
        "stages": calls,
    }
    result["pipeline_s"] = result["prepare_s"] + result["train_s"] + result["evaluate_s"]
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer, result["pipeline_s"], rss_after_prepare, REFERENCE_TRAIN_EXAMPLES)
        result["span_roots"] = tracer.roots()
        tracer.dump(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
