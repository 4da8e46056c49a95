"""Record the output digests that `run.py` compares against, in expected.json.

    python3 perfbench/record.py --seeds 0-15 [--workloads noisy-beam,...]

Makes the untraced passes of a `run_seconds` run for each workload and seed,
in fresh processes, exactly as a run does, and stores per problem slice the
output digest and (solve workloads) the SHA-256 of the `eval --report json`
bytes.  Entries for other seeds are kept.  Re-record only when a change is meant to alter
the outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import prepare, preflight_pipe, run_pass
from steadiness import parse_seeds
from workloads import EXPECTED, SRC, WORK, WORKLOADS, gold_digest, load_expected, spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0-15")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    expected = load_expected()
    for name in args.workloads.split(","):
        wl = WORKLOADS[name]
        entry = expected.setdefault(name, {"problems": wl.problems, "seeds": {}})
        if entry.get("problems") != wl.problems:
            entry.update(problems=wl.problems, seeds={})
        # A datagen pass always makes the same set; a solve run at
        # `run_seconds` solves this many slices.
        n_slices = wl.passes(spec()["run_seconds"]) if wl.kind == "solve" else 1
        for seed in parse_seeds(args.seeds):
            slices = prepare(wl, seed, n_slices)
            if wl.solver.get("endpoint", "").startswith("pipe:"):
                preflight_pipe(slices[0][1][0])
            rec: dict = {"slices": []}
            for k, (path, problems) in enumerate(slices):
                result = run_pass(wl, seed, path, False, f"record-{k}",
                                  time.monotonic() + 170)
                if wl.matches_gold:
                    gold = gold_digest(problems)
                    if result["digest"] != gold:
                        raise SystemExit(f"{name} seed {seed} slice {k}: digest "
                                         f"{result['digest']} differs from the "
                                         f"gold proofs {gold}")
                rec["slices"].append(result["digest"])
                if "report_sha256" in result:
                    rec.setdefault("report_sha256", []).append(result["report_sha256"])
            entry["seeds"][str(seed)] = rec
            print(f"{name} seed {seed}: {rec['slices']}", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
