"""Benchmark entry point: one workload, one seed, several fresh-process passes.

    python3 perfbench/run.py --workload noisy-beam --seed 7 --seconds 25 --trace 0

The run generates the seeded problems (one distinct slice per untraced pass
of a solve workload), checks that a `pipe:` server can answer (remote
workload), then starts `worker.py` once per pass.  With
`--trace 0` it prints every end-to-end metric; with `--trace 1` it runs
traced and untraced passes and prints the per-layer metrics.  Each metric
goes on its own line as `name value unit`; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Timings are reported
at a fixed host speed, measured by the reference loop in `workloads.py`,
and printed as measured in a `# unscaled:` line.  The exit code is 1 when
the outputs are wrong (digest mismatch, unsound answer, counts that did not
repeat) and 2 when the tree under test cannot run at all; in that case no
result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR,
    DEFAULT_SEED,
    DEPTHS,
    REFERENCE_MS,
    SRC,
    WORK,
    WORKLOADS,
    Workload,
    child_env,
    environment,
    gold_digest,
    problems_file,
    recorded,
    spec,
    units,
)
from tracer import is_count

# Every run must end within 180 s; passes get what is left of this.
RUN_LIMIT_S = 170.0
# End-to-end metrics reported at the reference host speed.
TIMINGS = ("problems_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")


class BenchError(Exception):
    """The tree under test could not be run; no result is printed."""


def prepare(wl: Workload, seed: int, slices: int) -> list:
    """Write `slices` disjoint problem files for a solve workload, each with
    `per_depth` problems per depth; return [(path, problems)].

    Problem i at a depth is the same for every slice count, so slice k of a
    seed never changes."""
    if wl.kind != "solve":
        return [(None, None)]
    from sireason import datasets

    n = wl.per_depth
    full = datasets.generate_problem_set(seed, {d: n * slices for d in DEPTHS})
    by_depth = [full[j * n * slices:(j + 1) * n * slices] for j in range(len(DEPTHS))]
    out = []
    for k in range(slices):
        problems = [p for chunk in by_depth for p in chunk[k * n:(k + 1) * n]]
        path = problems_file(wl, seed, k)
        tmp = path.with_suffix(".tmp")
        datasets.save_problems(problems, tmp)
        tmp.replace(path)
        out.append((path, problems))
    return out


def preflight_pipe(problem) -> None:
    """One request must round-trip through a `pipe:` server started the way
    the workers start theirs.  A server that cannot import the tree under
    test turns every call into a silent Unknown, so fail loudly here."""
    from sireason import models
    from sireason.models import CompletionRequest, GeneratorRole

    request = CompletionRequest(
        GeneratorRole.SELECTION,
        models.format_selection_prompt(problem.question, problem.context),
    )
    err = WORK / "preflight.err"
    with open(err, "wb") as errfh:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sireason.models"],
                input=models.encode_request(request),
                stdout=subprocess.PIPE, stderr=errfh, env=child_env(),
                timeout=60, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("pipe: server did not answer within 60 s") from exc
    lines = proc.stdout.splitlines()
    try:
        response = models.decode_response(lines[0]) if lines else None
    except models.RemoteError:
        response = None
    if proc.returncode != 0 or response is None or not response.text.strip():
        tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"pipe: server preflight failed (exit {proc.returncode}): {tail}")


def _stop_session(proc: subprocess.Popen) -> None:
    """Kill a worker and what is left of its session (its `pipe:` servers),
    and wait, up to 10 s, until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for _ in range(100):
            os.killpg(proc.pid, 0)
            time.sleep(0.1)
    except ProcessLookupError:
        pass


def run_pass(wl: Workload, seed: int, problems_path, traced: bool, index: int,
             deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result."""
    out = WORK / f"pass-{wl.name}-{index}.json"
    err = WORK / f"pass-{wl.name}-{index}.err"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", wl.name,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    if problems_path is not None:
        cmd += ["--problems", str(problems_path)]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{wl.name}.tsv")]
    with open(err, "wb") as errfh:
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd + ["--spawned-ns", str(spawned)], stdout=subprocess.DEVNULL,
            stderr=errfh, env=child_env(), start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop_session(proc)
            raise BenchError(f"{wl.name} pass {index} ran past the time limit")
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if code != 0 or not out.exists():
        _stop_session(proc)
        raise BenchError(f"{wl.name} pass {index} exited {code}: {stderr[-3000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["traced"] = traced
    # Each `pipe:` spawn prints a runpy RuntimeWarning; captured, not shown.
    result["server_warnings"] = stderr.count("RuntimeWarning")
    return result


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """90, or the highest percentile with at least ten samples beyond it."""
    return max(0, min(90, math.floor(100 * (n - 10) / n))) if n else 0


def slowness(r: dict, scaled: bool, key: str = "reference_ms") -> float:
    """How many times slower than the reference speed the host ran during a
    pass (`setup_reference_ms`: during its set-up); its timings are divided
    by this.  1 when `scaled` is false."""
    return r[key] / REFERENCE_MS if scaled else 1.0


def latencies(plain: list[dict], scaled: bool) -> tuple[float, float, list[str]]:
    """(p50, tail, notes) of per-problem latency, pooled over every untraced
    pass: every problem of the run counts once.  The tail is p90, or the
    highest percentile below it with ten samples beyond it."""
    pooled = [x / slowness(r, scaled) for r in plain for x in r["latencies_ms"]]
    tail = tail_percentile(len(pooled))
    notes = [] if tail == 90 else [
        f"latency_p90_ms is p{tail}, the highest percentile with ten of the "
        f"{len(pooled)} samples beyond it"]
    return statistics.median(pooled), percentile(pooled, tail), notes


def end_to_end(plain: list[dict], scaled: bool = True) -> tuple[dict, list[str]]:
    """The end-to-end metrics, with timings at the reference host speed
    unless `scaled` is false."""
    p50, tail, notes = latencies(plain, scaled)
    metrics = {
        "problems_per_s": statistics.median(
            r["problems"] * slowness(r, scaled) / r["wall_s"] for r in plain),
        "latency_p50_ms": p50,
        "latency_p90_ms": tail,
        "setup_s": statistics.median(
            r["setup_s"] / slowness(r, scaled, "setup_reference_ms") for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        # Passes are equal in size, so this is the accuracy over all of them.
        "accuracy": statistics.fmean(r["accuracy"] for r in plain),
    }
    return metrics, notes


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    found = []
    metrics = {}
    for name in units("per_layer"):
        if name == "trace.overhead_ratio":
            continue
        values = [r["layers"][name] for r in traced]
        if is_count(name):
            if len(set(values)) != 1:
                found.append(f"count {name} did not repeat: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] / slowness(r, True) for r in traced)
        / statistics.median(r["wall_s"] / slowness(r, True) for r in plain)
    )
    return metrics, found


def check(wl: Workload, seed: int, results: list[dict], slices: list) -> tuple[int, list[str], list[str]]:
    """(output_identical, problems found, notes) over every pass of a run.

    Each result carries the slice it solved.  Its digest must equal the
    recorded one for that slice, or, for an unrecorded slice of
    a workload that reproduces the gold proofs, their digest.  Passes over
    one slice must agree with each other; that is the only output check an
    unrecorded slice of any other workload gets.  Soundness problems make
    the run incorrect but leave `output_identical` alone."""
    found: list[str] = []
    notes: list[str] = []
    rec = recorded(wl, seed) or {}
    rec_digests = rec.get("slices", [])
    rec_shas = rec.get("report_sha256", [])
    by_slice: dict[int, set] = {}
    for r in results:
        by_slice.setdefault(r["slice"], set()).add(r["digest"])
    unchecked = []
    sha_differs = []
    for k, digests in sorted(by_slice.items()):
        if len(digests) != 1:
            found.append(f"passes over slice {k} disagree: {sorted(digests)}")
        if k < len(rec_digests):
            reference, source = rec_digests[k], "recorded"
        elif wl.matches_gold:
            reference, source = gold_digest(slices[k][1]), "gold proofs"
        else:
            unchecked.append(k)
            continue
        if digests != {reference}:
            found.append(f"slice {k}: output digest {sorted(digests)} != {source} {reference}")
    for r in results:
        if r["slice"] < len(rec_shas) and r["report_sha256"] != rec_shas[r["slice"]]:
            sha_differs.append(r["slice"])
    if rec_shas:
        notes.append("eval --report json sha256 "
                     + (f"differs from the recorded one on slices {sorted(set(sha_differs))}"
                        if sha_differs else "matches the recorded one"))
    if unchecked:
        repeated = sorted(k for k in unchecked if len(
            [r for r in results if r["slice"] == k]) > 1)
        notes.append(f"no recorded digest for seed {seed} slices {unchecked}: "
                     f"checked for soundness; slices {repeated} also solved "
                     "twice, and the passes agree unless said below")
    identical = 0 if found else 1
    for r in results:
        if wl.kind == "solve":
            if r["wrong_known"]:
                found.append(f"{r['wrong_known']} known answers are wrong")
            if r["made_up_fact_rate"]:
                found.append(f"made-up fact rate {r['made_up_fact_rate']}")
        elif r["accuracy"] != 1.0:
            found.append("a generated gold proof fails validate_problems")
    return identical, sorted(set(found)), notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seconds = args.seconds or spec()["run_seconds"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (SRC / "sireason" / "__init__.py").is_file():
            raise BenchError(f"no package under test at {SRC}")
        sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        # (traced, slice) per pass.  Traced runs stay on slice 0 so their
        # untraced pass measures the same problems.
        if args.trace:
            plan = [(True, 0), (False, 0), (True, 0)]
        elif wl.kind == "solve":
            plan = [(False, k) for k in range(wl.passes(seconds))]
        else:
            plan = [(False, 0)] * wl.passes(seconds)
        slices = prepare(wl, args.seed, max(k for _, k in plan) + 1)
        # The first slice with neither a recorded digest nor the gold proofs
        # to compare with is solved once more after the timed passes, and
        # the two passes must agree.  The repeat is left out of the metrics.
        n_recorded = len((recorded(wl, args.seed) or {}).get("slices", []))
        repeat = (not args.trace and wl.kind == "solve" and not wl.matches_gold
                  and n_recorded < len(slices))
        try:
            if wl.solver.get("endpoint", "").startswith("pipe:"):
                preflight_pipe(slices[0][1][0])
            results = [run_pass(wl, args.seed, slices[k][0], traced, i, deadline)
                       | {"slice": k, "repeat": False}
                       for i, (traced, k) in enumerate(plan)]
            if repeat:
                results.append(
                    run_pass(wl, args.seed, slices[n_recorded][0], False,
                             len(plan), deadline)
                    | {"slice": n_recorded, "repeat": True})
        finally:
            for path, _ in slices:
                if path is not None:
                    path.unlink(missing_ok=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"] and not r["repeat"]]
    identical, found, notes = check(wl, args.seed, results, slices)
    if args.trace:
        metrics, layer_found = per_layer(traced, plain)
        found += layer_found
        shown = units("per_layer")
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            notes.append("not in the tree under test (metrics read 0): "
                         + ", ".join(missing))
    else:
        metrics, more = end_to_end(plain)
        notes += more
        metrics["output_identical"] = identical
        shown = units("end_to_end")
    attempted = sum(r["problems"] for r in results)
    failed = sum(len(r["failed"]) for r in results)

    env = environment()
    print(f"# workload {wl.name} seed {args.seed} passes {len(results)} "
          f"({len(traced)} traced, {sum(r['repeat'] for r in results)} repeated), "
          f"problems per pass {results[0]['problems']}, "
          f"slices {len({r['slice'] for r in results})}")
    print(f"# python {env['python']} nproc {env['nproc']} cpu {env['cpu_model']}")
    for name, unit in shown.items():
        print(f"{name} {metrics[name]} {unit}")
    print(f"failed_share {failed / attempted} ratio")
    if not args.trace:
        unscaled, _ = end_to_end(plain, scaled=False)
        print("# unscaled: " + " ".join(
            f"{name} {unscaled[name]}" for name in TIMINGS))
        print(f"# reference loop ms per untraced pass (at the reference speed "
              f"{REFERENCE_MS}): "
              + " ".join(f"{r['reference_ms']:.3f}" for r in plain))
    cpu_share = [r["cpu_s"] / r["wall_s"] for r in plain]
    print(f"# cpu/wall per untraced pass: {' '.join(f'{c:.3f}' for c in cpu_share)}")
    warnings = sum(r["server_warnings"] for r in results)
    if warnings:
        print(f"# {warnings} pipe: server RuntimeWarnings captured "
              f"(max {max(r['live_children'] for r in results)} servers alive at once)")
    for note in notes:
        print(f"# {note}")
    for problem in found:
        print(f"# WRONG: {problem}")
    correct = not found
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
