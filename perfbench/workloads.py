"""The benchmark's workloads: one synthetic log shape plus the model
families trained on it and the config overrides each family runs with.

Every workload keeps the reference 10k-song catalog cap, so softmax,
scoring and candidate-list widths are those of the last.fm-1k
experiment. Sizes are chosen so that one prepare -> train -> evaluate
pass takes 5 to 11 seconds on a 2-core machine, and a measured run
holds three to seven passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from synthlog import LogShape


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: LogShape
    families: tuple
    data: dict = field(default_factory=dict)  # overrides under "data"
    model: dict = field(default_factory=dict)  # overrides under "model"
    eval: dict = field(default_factory=dict)  # overrides under "eval"

    def config(self, family: str, seed: int, raw_path: str, prepared_dir: str, out_dir: str) -> dict:
        """Raw experiment config (as ``songrec --config`` would read it)."""
        return {
            "seed": seed,
            "out_dir": out_dir,
            "data": {**self.data, "raw_path": raw_path, "prepared_dir": prepared_dir},
            "model": {**self.model, "family": family},
            "eval": dict(self.eval),
        }

    def toy(self) -> "Workload":
        """The same workload on a log small enough for the self-check."""
        shape = replace(self.shape, users=60, lines=4000, universe=5000)
        return replace(self, shape=shape)


# One log shape for every workload; only the line and user counts differ.
# See README.md ("Log shape") for which values follow last.fm-1k and which
# are unverified choices.
LASTFM_1K = LogShape(
    users=250, lines=22_000, universe=1_000_000, session_mean=8.0, repeat_rate=0.0,
    malformed_share=0.01,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest",
            why="large log (120k lines, 1% malformed), default prepare, wmf at rank 60 with two "
            "ALS iterations, full protocol: the data layer and peak memory dominate; models/core idle",
            shape=replace(LASTFM_1K, users=1000, lines=120_000),
            families=("wmf",),
            model={"wmf": {"iters": 2}},
        ),
        Workload(
            name="neural-ref",
            why="cnnrec at the reference architecture (d60 j5 h300 m325 w2, batch 50, float64), "
            "one epoch, full protocol: models/core dominate, with a 10k-way softmax and per-example scoring",
            shape=LASTFM_1K,
            families=("cnnrec",),
            # no validation part (nothing reads it); one epoch on 30% keeps a
            # pass short, and a test part of 70% steadies recall across seeds
            data={"ratios": [0.3, 0.0, 0.7]},
            model={"epochs": 1},
        ),
        Workload(
            name="baselines",
            why="w2v, wmf and fpmc on one prepared log, sampled protocol (n_neg 1000): "
            "per-pair SGNS, per-triple SBPR, per-row ALS and per-example candidate loops dominate; "
            "models/core idle",
            shape=LASTFM_1K,
            families=("w2v", "wmf", "fpmc"),
            # nothing reads the validation part; the test part is a fifth
            # because sampled-protocol evaluation costs ~1.7 ms per example
            # and the fpmc examples (order 1) are many
            data={"ratios": [0.4, 0.4, 0.2]},
            model={"w2v": {"epochs": 1}, "wmf": {"iters": 1}, "fpmc": {"epochs": 1}},
            eval={"protocol": "sampled", "n_neg": 1000},
        ),
    )
}
