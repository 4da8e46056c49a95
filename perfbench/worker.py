"""One measured pass of one workload, in a fresh process.

Run by `run.py`, never by hand.  The oracle keeps module-level caches, so a
second pass in the same process would run about 3x faster than any CLI
user ever sees; every pass therefore gets its own interpreter, and the
problems of a pass are all distinct.

Set-up time runs from the moment the parent spawned this process (passed in
as a CLOCK_MONOTONIC timestamp) to problems loaded: interpreter start,
imports and `datasets.load_problems`.

So that `run.py` can scale its timings to a fixed host speed, the pass
times the reference loop of `workloads.py` in a burst before the imports, a
burst after loading, and between problems once per REFERENCE_EVERY_NS.
The time that takes is left out of set-up and wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import (
    DATAGEN_VALUE_SEED,
    DEPTHS,
    REFERENCE_EVERY_NS,
    REFERENCE_SETUP_SAMPLES,
    WORKLOADS,
    Digest,
    reference_ns,
)


class HostSpeed:
    """Reference-loop times taken between problems, and the wall time that
    taking them cost."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self.spent_ns = 0
        self.last_ns = time.perf_counter_ns()

    def tick(self) -> None:
        """One reference loop for every REFERENCE_EVERY_NS since the last
        tick, so a long problem weighs as much in the mean as the short
        problems that fill the same time."""
        now = time.perf_counter_ns()
        due = (now - self.last_ns) // REFERENCE_EVERY_NS
        if not due:
            return
        self.samples_ns.extend(reference_ns() for _ in range(due))
        self.last_ns = time.perf_counter_ns()
        self.spent_ns += self.last_ns - now


def _children_hwm_kb() -> tuple[int, int]:
    """(count, summed peak RSS in KiB) of this process's live children."""
    me = str(os.getpid())
    count = total = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            if ppid != me:
                continue
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        count += 1
        except (OSError, IndexError):
            continue
    return count, total


def setup_reference() -> list[int]:
    return [reference_ns() for _ in range(REFERENCE_SETUP_SAMPLES)]


def main(argv=None) -> int:
    # One CPU for the pass and the `pipe:` servers it starts, so that the
    # reference loops time the CPU the work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    # Set-up is bracketed by two bursts of reference loops, one before the
    # tree under test is imported and one after the problems are loaded.
    # The first is left out of `setup_s`.
    burst0_ns = time.monotonic_ns()
    before_setup = setup_reference()
    burst_ns = time.monotonic_ns() - burst0_ns
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--problems", help="problem file (solve workloads)")
    ap.add_argument("--seed", type=int, default=0, help="generation seed (datagen)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    from sireason import cnl, datasets, evalcli, models
    from sireason.core import render_trace

    tracer = None
    # Every remote backend the pass opens, so the pass can close its
    # servers once timing is over (the solver never does).
    backends: list = []
    open_remote = models.remote_backend

    def remote_backend(*a, **kw):
        backend = open_remote(*a, **kw)
        backends.append(backend)
        return backend

    models.remote_backend = remote_backend
    # The lru-cached parser itself, before any tracing wrapper hides it.
    parse_cache = cnl.parse_statement
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {"workload": wl.name}
    latencies: list[int] = []
    if wl.kind == "solve":
        problems = datasets.load_problems(args.problems)
        ready_ns = time.monotonic_ns()
        after_setup = setup_reference()
        cfg = evalcli.SolverConfig(**wl.solver)
        outputs: list = []
        backend_failed: set[str] = set()
        make_solver = evalcli.make_solver

        def timed_make_solver(cfg, stats=None):
            solve = make_solver(cfg, stats)

            def timed(problem):
                before = stats.backend_failures if stats is not None else 0
                if tracer is not None:
                    tracer.problem = len(latencies)
                t0 = time.perf_counter_ns()
                try:
                    answer, trace = solve(problem)
                finally:
                    latencies.append(time.perf_counter_ns() - t0)
                if stats is not None and stats.backend_failures > before:
                    backend_failed.add(problem.id)
                outputs.append((problem, answer, trace))
                host.tick()
                return answer, trace

            return timed

        evalcli.make_solver = timed_make_solver
        cache0 = parse_cache.cache_info()
        cpu0 = time.process_time()
        host = HostSpeed()
        t0 = time.perf_counter_ns()
        report = evalcli.evaluate(problems, cfg)
        wall_ns = time.perf_counter_ns() - t0 - host.spent_ns
        cpu_s = time.process_time() - cpu0 - host.spent_ns / 1e9
        cache1 = parse_cache.cache_info()
        children, children_kb = _children_hwm_kb()
        for backend in backends:
            backend.close()

        digest = Digest()
        for problem, answer, trace in outputs:
            digest.add(problem.id, answer.render(), render_trace(trace))
        failed = backend_failed | {f.split(": ", 1)[0] for f in report.failures}
        report_bytes = (json.dumps(report.to_doc(), sort_keys=True, indent=2)
                        + "\n").encode("utf-8")
        result.update(
            accuracy=report.overall.accuracy,
            made_up_fact_rate=report.made_up_fact_rate,
            # Soundness: a known answer is never the wrong one.
            wrong_known=sum(
                1 for p, a, _ in outputs
                if not a.is_unknown and a != p.gold_answer
            ),
            report_sha256=hashlib.sha256(report_bytes).hexdigest(),
        )
    else:
        ready_ns = time.monotonic_ns()
        after_setup = setup_reference()
        pairs: list = []
        valid = 0
        cache0 = parse_cache.cache_info()
        cpu0 = time.process_time()
        host = HostSpeed()
        t0 = time.perf_counter_ns()
        problems = []
        for depth in DEPTHS:
            for i in range(wl.per_depth):
                if tracer is not None:
                    tracer.problem = len(problems)
                s = time.perf_counter_ns()
                # One set of one problem per call, so each problem's latency
                # covers generating it too.
                (problem,) = datasets.generate_problem_set(
                    args.seed * 1000 + i, {depth: 1})
                findings = datasets.validate_problems([problem])
                pairs.extend(datasets.extract_si_pairs(problem))
                pairs.extend(datasets.extract_halter_pairs(problem))
                pairs.extend(datasets.extract_value_pairs(problem, DATAGEN_VALUE_SEED))
                latencies.append(time.perf_counter_ns() - s)
                valid += not findings
                problems.append(problem)
                host.tick()
        wall_ns = time.perf_counter_ns() - t0 - host.spent_ns
        cpu_s = time.process_time() - cpu0 - host.spent_ns / 1e9
        cache1 = parse_cache.cache_info()
        children, children_kb = 0, 0
        failed = set()
        pairs_path = Path(args.out).with_suffix(".pairs.jsonl")
        datasets.save_training_pairs(pairs, pairs_path)
        digest = Digest()
        digest.add(hashlib.sha256(pairs_path.read_bytes()).hexdigest())
        pairs_path.unlink()
        result.update(accuracy=valid / len(problems), pairs=len(pairs))

    result.update(
        problems=len(problems),
        setup_s=(ready_ns - args.spawned_ns - burst_ns) / 1e9,
        wall_s=wall_ns / 1e9,
        cpu_s=cpu_s,
        # Set-up is scaled by the medians of the bursts around it; the pass
        # by the mean over the pass, as its work is spread over its time.
        setup_reference_ms=(statistics.median(before_setup)
                            + statistics.median(after_setup)) / 2e6,
        reference_ms=statistics.fmean(host.samples_ns or after_setup) / 1e6,
        latencies_ms=[n / 1e6 for n in latencies],
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     + children_kb) / 1024,
        live_children=children,
        failed=sorted(failed),
        digest=digest.hexdigest(),
    )
    if tracer is not None:
        layers = tracer.layer_metrics(
            (cache1.hits - cache0.hits, cache1.misses - cache0.misses))
        layers["datasets.pairs"] = result.get("pairs", 0)
        result["layers"] = layers
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.s_name)
        if args.spans:
            tracer.write_spans(args.spans, [p.id for p in problems])
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
