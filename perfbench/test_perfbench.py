"""Toy-scale self-check of the benchmark harness.

Runs every workload on a tiny log, untraced and traced, and checks that
every metric BENCHMARK.json declares is emitted with its unit, that no
stage call failed, that the stage roots cover each pass's pipeline time,
and that the spans inside each stage cover most of it. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 5
ROOT_SELF_SHARE = 0.3  # most a stage root's own self time may be of its total

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DEFINITION = json.load(fh)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _toy_run(trace, work):
    """One toy run over all workloads: (trace, last stdout line, work dir)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--toy", "--work-dir", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return trace, json.loads(proc.stdout.strip().splitlines()[-1]), work


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return _toy_run(1, tmp_path_factory.mktemp("traced"))


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def toy_run(request, tmp_path_factory):
    if request.param:
        return request.getfixturevalue("traced_run")
    return _toy_run(0, tmp_path_factory.mktemp("untraced"))


def test_definition_names_the_workloads():
    assert {w["name"]: w["why"] for w in DEFINITION["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_emits_every_metric(toy_run, workload):
    trace, last, work = toy_run
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    with open(work / "results" / f"{workload}-seed{SEED}-trace{trace}.json", encoding="utf-8") as fh:
        detail = json.load(fh)
    assert detail["failed"] == 0, detail["failures"]
    assert detail["end_to_end"]["failed_share"]["median"] == 0.0
    declared = DEFINITION["per_layer"] if trace else DEFINITION["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in detail["metrics"].items()
    }
    for name, v in detail["metrics"].items():
        assert last["metrics"][f"{workload}.{name}"] == v
    if not trace:
        assert all(v["value"] > 0 for v in detail["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_span_trees_account_for_stage_time(traced_run, workload):
    _, _, work = traced_run
    with open(work / "results" / f"{workload}-seed{SEED}-trace1.json", encoding="utf-8") as fh:
        detail = json.load(fh)
    traced = [p for p in detail["pass_values"] if p["traced"]]
    assert traced and len(traced) == len(detail["span_roots"])
    stages = 1 + 2 * len(WORKLOADS[workload].families)
    for roots, p in zip(detail["span_roots"], traced):
        assert roots[0]["name"] == "cli.cmd_prepare"
        assert len(roots) == stages
        for r in roots:
            # the traced boundaries inside a stage cover most of it; a
            # boundary that is no longer wrapped shows up as root self time
            assert r["self_s"] <= ROOT_SELF_SHARE * r["total_s"], r
        covered = sum(r["total_s"] for r in roots)
        assert covered <= p["pipeline_s"]
        assert covered == pytest.approx(p["pipeline_s"], rel=0.02, abs=0.01)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as src:
                (tmp_path / "perfbench" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DEFINITION), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
