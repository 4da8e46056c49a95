"""The benchmark's workloads, its metric names, and the output digests.

Shared by the orchestrator (`run.py`), the measured pass (`worker.py`),
the recorder (`record.py`) and the tests.  Nothing here imports `sireason`
at module level, so the orchestrator can fail cleanly when the tree under
test is missing.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"

DEPTHS = (1, 2, 3, 5)
DEFAULT_SEED = 7
# Value-pair corruption seed for the datagen workload (the CLI default).
DATAGEN_VALUE_SEED = 0

# Host speed.  The host's throughput swings by up to 2x, in spells from a
# fraction of a second to minutes long, and every timing swings with it
# (README.md, "Host speed").  So a pass times `reference_ns()` between
# problems, once per REFERENCE_EVERY_NS, and `run.py` reports each timing at
# the speed at which one reference loop takes REFERENCE_MS: the median on
# the machine in README.md.
REFERENCE_MS = 0.7
REFERENCE_EVERY_NS = 30_000_000
# Reference loops in each of the two bursts around set-up, to scale `setup_s`.
REFERENCE_SETUP_SAMPLES = 15


def reference_ns() -> int:
    """Nanoseconds one fixed pure-Python loop takes: dict, set, tuple, list
    and string work as in the interpreter-bound code under test, about
    REFERENCE_MS.  Garbage collection is off while it runs, so the heap the
    tree under test has built cannot change the amount of work."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    counts: dict = {}
    seen: set = set()
    acc = 0
    for i in range(500):
        key = ("r", i % 251, i % 17)
        counts[key] = counts.get(key, 0) + 1
        word = f"x{i % 1009}y"
        if word not in seen:
            seen.add(word)
        acc += len(word) + (sum([i, i + 1, i + 2]) & 3)
    elapsed = time.perf_counter_ns() - t0
    if enabled:
        gc.enable()
    return elapsed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" or "datagen"
    per_depth: int  # problems per depth in one pass
    solver: dict = field(default_factory=dict)  # evalcli.SolverConfig fields
    # Wall seconds one untraced pass costs on the machine in README.md,
    # process start to exit plus generating its problems; sets how many
    # passes fill `--seconds`.
    nominal_pass_s: float = 2.0
    min_passes: int = 3
    # Reproduces the generated gold proofs exactly, so the gold digest is a
    # reference for seeds without a recorded one.
    matches_gold: bool = False

    @property
    def problems(self) -> int:
        return self.per_depth * len(DEPTHS)

    def passes(self, seconds: float) -> int:
        """Untraced passes per run: a pure function of `--seconds`, so the
        number of latency samples, and with it the reported percentile,
        does not depend on how fast the machine happens to be."""
        return max(self.min_passes, round(seconds / self.nominal_pass_s))


# A solve run gives each untraced pass its own slice of distinct problems:
# per-problem cost is heavy-tailed (noisy-beam's p90 is more than three
# times its median), so a longer run needs more problems, not repeats.
# Datagen generates inside the pass, so its passes repeat one seeded set.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-greedy", "solve", 100, {"backend": "oracle"},
                 nominal_pass_s=4.2),
        Workload("noisy-beam", "solve", 25,
                 {"backend": "scripted", "noise_rate": 0.3, "seed": 11,
                  "beam_width": 4, "proposals_per_trace": 4},
                 nominal_pass_s=3.5),
        # Every problem spawns a server that stays alive until the pass ends
        # (about 25 MB each), so a pass stays small.  The pass count follows
        # `--seconds` with at least five, so a run has at least 100 distinct
        # problems for the p90.
        Workload("remote-beam", "solve", 5,
                 {"backend": "remote", "endpoint": "pipe:",
                  "beam_width": 4, "proposals_per_trace": 4},
                 nominal_pass_s=5.0, min_passes=5, matches_gold=True),
        Workload("datagen", "datagen", 200, nominal_pass_s=2.1),
    )
}

@functools.cache
def spec() -> dict:
    """BENCHMARK.json: run length, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer".

    `failed_share` is printed too but kept out of BENCHMARK.json: it is 0 on
    a healthy tree, and the result line's `attempted`/`failed` carry it."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def problems_file(workload: Workload, seed: int, slice_: int) -> Path:
    return WORK / f"problems-{workload.name}-s{seed}-{slice_}.jsonl"


def child_env() -> dict:
    """Environment for every process the benchmark starts.  The package is
    not installed, so the tree under test goes on PYTHONPATH; `pipe:`
    servers inherit it from the worker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Digest:
    """SHA-256 over one JSON line per problem output, in solve order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *fields) -> None:
        self._h.update((json.dumps(fields) + "\n").encode("utf-8"))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:12]


def gold_digest(problems) -> str:
    """What a perfect solver prints: the gold answer and the gold proof."""
    from sireason.core import render_trace

    d = Digest()
    for p in problems:
        d.add(p.id, p.gold_answer.render(), render_trace(p.gold_proof))
    return d.hexdigest()


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def recorded(workload: Workload, seed: int) -> Optional[dict]:
    """The recorded outputs for this workload and seed, if any: per slice,
    the output digest and (solve workloads) the report's SHA-256."""
    entry = load_expected().get(workload.name, {})
    rec = entry.get("seeds", {}).get(str(seed))
    if rec is None or entry.get("problems") != workload.problems:
        return None
    return rec


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }
