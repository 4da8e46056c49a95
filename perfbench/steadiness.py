"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/steadiness.py --seed 7 --runs 10 --out perfbench/results/fixed-seed-7.json
    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/seeds-1-10.json
    python3 perfbench/steadiness.py --seed 7 --runs 10 --against perfbench/results/fixed-seed-7.json

Runs `run.py --trace 0` once per round and workload.  The workloads are
interleaved, round by round, in an order that rotates each round, so a slow
spell of the machine lands on all of them rather than on one.  By default
every round uses the same seed, so the spread is run-to-run noise alone;
`--seeds` gives each round its own seed, and the spread then also holds the
differences between problem sets.

For each metric it reports the distance between the first and third
quartile of its values as a share of their median
(`statistics.quantiles(n=4)`).  A spread above the metric's bound fails; one
above a third of it is flagged.  With `--against`, the medians are also
compared with those of an earlier report, and a median worse than the
earlier one by more than the bound fails.

Exact counts need no such check: a traced run (`--trace 1`) already fails
when its two traced passes disagree on any count.  What does move is CPU
speed: CPU time tracks wall time within a few percent on the in-process
workloads, so spread comes from how fast the processor runs, not from
scheduling.  The `cpu/wall` column shows that per run.  `run.py` reports
its timings at a fixed host speed and prints them as measured too; the
spread of the measured ones is reported beside each scaled one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, DEFAULT_SEED, ROOT, WORKLOADS, environment, spec


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    cpu = [line.split(":", 1)[1].split() for line in lines if line.startswith("# cpu/wall")]
    result["cpu_wall"] = [float(x) for x in cpu[0]] if cpu else []
    raw = [line.split(":", 1)[1].split() for line in lines if line.startswith("# unscaled:")]
    result["unscaled"] = ({name: float(value) for name, value in zip(raw[0][::2], raw[0][1::2])}
                          if raw else {})
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="the seed of every round (default %(default)s)")
    ap.add_argument("--runs", type=int, default=10, help="rounds with --seed")
    ap.add_argument("--seeds", default=None,
                    help="one round per seed instead, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--against", default=None,
                    help="an earlier --out report whose medians to compare with")
    ap.add_argument("--out", default=None, help="write values and spreads here")
    args = ap.parse_args(argv)
    seconds = args.seconds or spec()["run_seconds"]
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed] * args.runs
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))["workloads"]
               if args.against else {})
    report = {"environment": environment(), "seeds": seeds, "run_seconds": seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    status = 0
    runs: dict[str, list] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            t0 = time.monotonic()
            result = run_once(workload, seed, seconds)
            result["run_s"] = time.monotonic() - t0
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['run_s']:.1f} s, correct "
                  f"{result['correct']}, cpu/wall {result['cpu_wall']}", flush=True)
            if not result["correct"]:
                status = 1
    for workload in workloads:
        print(workload, flush=True)
        rows = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med, q1, q3, s = spread(values)
            verdicts = []
            if s > m["bound"]:
                verdicts.append("FAIL")
            elif s > m["bound"] / 3:
                verdicts.append("above bound/3")
            row = {"values": values, "median": med, "q1": q1, "q3": q3,
                   "spread": s, "bound": m["bound"]}
            raw = [r["unscaled"].get(name) for r in runs[workload]]
            if None not in raw:
                # The same runs before scaling to the reference host speed.
                row["unscaled_values"] = raw
                row["unscaled_spread"] = spread(raw)[3]
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                # Positive when this median is worse than the earlier one.
                sign = 1 if m["better"] == "lower" else -1
                row["worse_than_earlier"] = (
                    sign * (med - before["median"]) / before["median"]
                    if before["median"] else 0.0)
                if row["worse_than_earlier"] > m["bound"]:
                    verdicts.append("FAIL: median moved")
            if any(v.startswith("FAIL") for v in verdicts):
                status = 1
            row["verdict"] = ", ".join(verdicts) or "ok"
            rows[name] = row
            shift = (f" worse by {row['worse_than_earlier']:+.3f}"
                     if "worse_than_earlier" in row else "")
            unscaled = (f" (unscaled {row['unscaled_spread']:.4f})"
                        if "unscaled_spread" in row else "")
            print(f"  {name:16s} median {med:12.4f} spread {s:7.4f}{unscaled} "
                  f"bound {m['bound']:5.3f}{shift}  {row['verdict']}", flush=True)
        report["workloads"][workload] = {
            "metrics": rows,
            "run_seconds_wall": [r["run_s"] for r in runs[workload]],
            "cpu_wall": [r["cpu_wall"] for r in runs[workload]],
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
