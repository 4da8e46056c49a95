"""The benchmark's own checks: its wrappers hit, tracing leaves outputs alone,
and the remote workload computes what the in-process oracle computes.

Each pass runs in a fresh worker process, the way `run.py` runs it: the
solve workloads on the golden PW fixture, `datagen` on its full seed-7 set.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import run_pass  # noqa: E402
from tracer import is_count  # noqa: E402
from workloads import WORK, WORKLOADS, Digest, child_env, units  # noqa: E402

GOLDEN = BENCH.parent / "tests" / "fixtures" / "golden_pw.jsonl"


def _pass(name: str, traced: bool, tag: str) -> dict:
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[name]
    problems = GOLDEN if wl.kind == "solve" else None
    return run_pass(wl, 7, problems, traced, f"test-{tag}", time.monotonic() + 120)


@pytest.fixture(scope="module")
def passes():
    """Per workload: two traced passes and one untraced pass."""
    return {
        name: [_pass(name, True, "a"), _pass(name, True, "b"), _pass(name, False, "c")]
        for name in WORKLOADS
    }


def test_traced_outputs_equal_untraced(passes):
    for name, (a, b, plain) in passes.items():
        assert a["digest"] == b["digest"] == plain["digest"], name
        assert a["accuracy"] == plain["accuracy"], name
        assert not plain["failed"], name


def test_wrapped_functions_hit_and_counts_repeat(passes):
    layer_metrics = units("per_layer")
    counts = [m for m in layer_metrics if is_count(m) and m.endswith(".calls")]
    for name, (a, b, _) in passes.items():
        assert not a["missing"], a["missing"]
        for metric in layer_metrics:
            if is_count(metric):
                assert a["layers"][metric] == b["layers"][metric], (name, metric)
    # Only multiple-choice (EB) problems reach the answer halter; no
    # workload has them, so that wrapper is checked directly below.
    counts.remove("models.oracle.halter_answer.calls")
    for metric in counts:
        assert any(p[0]["layers"][metric] > 0 for p in passes.values()), metric
    # Wrappers around functions other modules import by name still hit.
    beam = passes["noisy-beam"][0]["layers"]
    assert beam["core.normalize_key.calls"] > 0
    assert beam["cnl.parse_statement.calls"] > 0
    remote = passes["remote-beam"][0]["layers"]
    assert remote["models.transport.spawns"] == remote["models.transport.live_max"] > 0
    assert remote["models.transport.errors"] == 0


def test_remote_beam_equals_in_process_oracle_beam(passes):
    from sireason import datasets, evalcli
    from sireason.core import render_trace

    cfg = evalcli.SolverConfig(**{
        k: v for k, v in WORKLOADS["remote-beam"].solver.items()
        if k not in ("backend", "endpoint")
    })
    solve = evalcli.make_solver(cfg)
    digest = Digest()
    for problem in datasets.load_problems(GOLDEN):
        answer, trace = solve(problem)
        digest.add(problem.id, answer.render(), render_trace(trace))
    assert passes["remote-beam"][2]["digest"] == digest.hexdigest()


def test_answer_halter_wrapper_hits():
    code = """
import json
from tracer import Tracer
from sireason import models
tracer = Tracer()
tracer.install()
_, prompt = models.format_halter_prompts("Which is it?", "the cat is red", ["red", "blue"])
models.oracle_backend().complete(
    models.CompletionRequest(models.GeneratorRole.HALTER_ANSWER, prompt))
print(json.dumps(tracer.stat("models.oracle.halter_answer")))
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    calls, raised, _ = json.loads(out.stdout)
    assert (calls, raised) == (1, 0)
