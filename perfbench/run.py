"""songrec benchmark: prepare -> train -> evaluate on last.fm-shaped logs.

    python3 perfbench/run.py --workload neural-ref --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from the repository root. The log for (workload, seed) is generated
first and is left out of every metric. Then passes run back to back in a
closed loop, one caller and one fresh process per pass, until
``--seconds`` is used up (the last pass may end up to half a pass
later); every pass calls each stage once, in sequence,
with the BLAS thread count fixed (see ``BLAS_THREADS``). Between
passes, probes (fresh processes that set up, run only the prepare stage
and check it) take ``PROBE_SHARE`` of the run, so the two shortest
quantities, ``setup_s`` and ``prepare_s``, rest on more cold calls. A
stage's time is, per family, the median of its calls over the untraced
passes (and, for prepare, the probes), summed over the families;
``setup_s`` is the median over passes and probes; the other metrics are
medians over the untraced passes. The maximum and the sample count are
printed too.
With ``--trace 1`` passes alternate between untraced and traced; the
per-layer metrics are medians over the traced passes, and
``tracing_overhead_s`` is the traced minus the untraced median
``pipeline_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A stage call fails
if it raises or its output check fails; ``failed / attempted`` is the
failed share. The full result, with the environment, goes to
``.perfbench/results/`` (see ``--work-dir``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PASS_TIMEOUT_S = 150
MIN_PASSES = 2  # traced runs need one untraced and one traced pass
PROBE_SHARE = 0.2  # share of a run's time spent in prepare probes
FAMILIES = ("cnnrec", "w2v", "wmf", "fpmc")


def load_definition() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", HERE, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # numpy would madvise its large arrays into transparent huge pages,
    # which makes peak RSS depend on how fragmented the machine's memory is
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def environment() -> dict:
    """Where the numbers came from; every result carries it."""
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; c = numpy.show_config(mode='dicts');"
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         "'blas': c.get('Build Dependencies', {}).get('blas', {})}, default=str))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    libs = json.loads(out.stdout)
    try:
        mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        mem_bytes = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_gb": round(mem_bytes / 2**30, 2) if mem_bytes else None,
        "python": platform.python_version(),
        "numpy": libs["numpy"],
        "scipy": libs["scipy"],
        "blas": libs["blas"],
        "threads": {var: env[var] for var in THREAD_VARS},
        "numpy_madvise_hugepage": env["NUMPY_MADVISE_HUGEPAGE"],
    }


def ensure_log(work_dir: str, workload, seed: int) -> tuple[str, dict]:
    """Generate the workload's log, keeping one per workload on disk."""
    path = os.path.join(work_dir, "logs", f"{workload.name}.tsv")
    meta_path = path + ".json"
    want = {"seed": seed, "shape": workload.shape.__dict__}
    if os.path.exists(path) and os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            written = json.load(fh)
        if {"seed": written["seed"], "shape": written["shape"]} == want:
            return path, written
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # generate in a child: a fork+exec'd process inherits its parent's peak
    # RSS in ru_maxrss, so the parent that spawns the passes must stay small
    cmd = [sys.executable, os.path.join(HERE, "synthlog.py"), path, "--seed", str(seed)]
    for key, value in workload.shape.__dict__.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
    with open(meta_path, encoding="utf-8") as fh:
        return path, json.load(fh)


def run_pass(work_dir: str, workload, seed: int, log: str, written: dict, index: int,
             traced: bool, probe: bool = False) -> dict:
    """One fresh worker process; a ``probe`` stops after the prepare stage."""
    run_id = f"{workload.name}-s{seed}-{'probe' if probe else 'p'}{index}"
    work = os.path.join(work_dir, "work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    prepared = os.path.join(work, "prepared")
    spec = {
        "run_id": run_id,
        "trace": traced,
        "probe": probe,
        "written": written,
        "spans_path": os.path.join(work_dir, "spans", f"{run_id}.jsonl"),
        "configs": {
            fam: workload.config(fam, seed, log, prepared, os.path.join(work, fam))
            for fam in workload.families
        },
    }
    os.makedirs(work, exist_ok=True)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path]
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd + [repr(t_spawn)], env=child_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"pass {run_id} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def stage_summary(passes: list[dict], stage: str) -> dict:
    """A stage's time: per family, the median (and max) over every
    successful call in the passes, summed over the families."""
    by_family: dict = {}
    for p in passes:
        for call in p["stages"]:
            if call["stage"] == stage and call["error"] is None:
                by_family.setdefault(call["family"], []).append(call["seconds"])
    return {
        "median": sum(statistics.median(v) for v in by_family.values()),
        "max": sum(max(v) for v in by_family.values()),
        "n": min((len(v) for v in by_family.values()), default=0),
    }


def measure(work_dir: str, workload, seed: int, seconds: float, trace: bool,
            definition: dict) -> dict:
    log, written = ensure_log(work_dir, workload, seed)
    shutil.rmtree(os.path.join(work_dir, "spans"), ignore_errors=True)
    # warm the interpreter's bytecode and the page cache once, untimed
    subprocess.run([sys.executable, "-c", "import songrec.cli"], env=child_env(), check=True,
                   timeout=120)
    t0 = time.perf_counter()
    passes, probes, durations = [], [], []
    probe_s = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t_pass = time.perf_counter()
        passes.append(run_pass(work_dir, workload, seed, log, written, len(passes), traced))
        durations.append(time.perf_counter() - t_pass)
        while probe_s < PROBE_SHARE * (time.perf_counter() - t0):
            t_probe = time.perf_counter()
            probes.append(run_pass(work_dir, workload, seed, log, written, len(probes), False,
                                   probe=True))
            probe_s += time.perf_counter() - t_probe
        # start another pass if it should end at most half a pass after the
        # run's time, so that runs end around --seconds on average
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + statistics.fmean(durations) / 2 > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    stage_calls = [s for p in passes + probes for s in p["stages"]]
    failures = [s for s in stage_calls if s["error"]]
    e2e = {}
    e2e["setup_s"] = summarize([p["setup_s"] for p in probes + plain])
    e2e["prepare_s"] = stage_summary(probes + plain, "prepare")
    for stage in ("train", "evaluate"):
        e2e[f"{stage}_s"] = stage_summary(plain, stage)
    e2e["pipeline_s"] = {
        key: sum(e2e[f"{stage}_s"][key] for stage in ("prepare", "train", "evaluate"))
        for key in ("median", "max")
    } | {"n": len(plain)}
    e2e["peak_rss_mb"] = summarize([p["peak_rss_mb"] for p in plain])
    recalls = [statistics.fmean(p["recall"][f] for f in workload.families)
               for p in plain if len(p["recall"]) == len(workload.families)]
    e2e["recall_at_100"] = summarize(recalls or [0.0])
    e2e["failed_share"] = {"median": len(failures) / len(stage_calls), "max": None,
                           "n": len(stage_calls)}
    # the host-speed gauge around every stage call: not gated, it shows
    # which speed the host ran at during the run (README.md, "Host speed")
    e2e["host.tick_s"] = summarize([c["tick_s"] for c in stage_calls if c["error"] is None])

    layers = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            layers[name] = summarize([p["layers"][name] for p in traced])
        for fam in FAMILIES:
            got = [p["recall"][fam] for p in traced if fam in p["recall"]]
            layers[f"evaluation.recall_at_100.{fam}"] = summarize(got or [0.0])
        layers["tracing_overhead_s"] = {
            "median": statistics.median(p["pipeline_s"] for p in traced) - e2e["pipeline_s"]["median"],
            "max": None, "n": len(traced),
        }

    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    wanted = definition["per_layer"] if trace else definition["end_to_end"]
    source = layers if trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "probes": len(probes),
        "pass_values": [
            {k: p[k] for k in ("traced", "setup_s", "setup_tick_s", "prepare_s", "train_s",
                               "evaluate_s", "pipeline_s", "peak_rss_mb", "stages")}
            for p in passes
        ],
        "probe_values": probes,
        "written": {k: written[k] for k in ("lines", "malformed", "plays")},
        "end_to_end": e2e,
        "per_layer": layers,
        "units": units,
        "failures": failures,
        "attempted": len(stage_calls),
        "failed": len(failures),
        "metrics": metrics,
        "span_roots": [p.get("span_roots") for p in passes if p["traced"]],
    }


def print_table(res: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} passes={res['passes']} probes={res['probes']} "
          f"lines={res['written']['lines']} malformed={res['written']['malformed']}")
    rows = res["per_layer"] if res["trace"] else res["end_to_end"]
    for name, s in rows.items():
        unit = res["units"].get(name, "ratio" if name == "failed_share" else "s")
        high = "" if s["max"] is None else f"  max {s['max']:.6g}"
        print(f"  {name:45s} {s['median']:14.6g} {unit:6s}{high}  n={s['n']}")
    for f in res["failures"]:
        print(f"  FAILED {f['stage']} {f['family'] or ''}: {f['error']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", default=".perfbench", help="logs, scratch and results")
    p.add_argument("--toy", action="store_true", help="tiny logs, for the self-check")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "songrec", "cli.py")):
        print("run from the repository root: src/songrec is missing", file=sys.stderr)
        return 2
    definition = load_definition()
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# env " + json.dumps(env, default=str))
    results = []
    for name in names:
        workload = WORKLOADS[name].toy() if args.toy else WORKLOADS[name]
        res = measure(args.work_dir, workload, args.seed, args.seconds, bool(args.trace), definition)
        res["environment"] = env
        os.makedirs(os.path.join(args.work_dir, "results"), exist_ok=True)
        out = os.path.join(args.work_dir, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, default=str)
        print_table(res)
        results.append(res)
    metrics = (
        results[0]["metrics"] if len(results) == 1
        else {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    )
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
