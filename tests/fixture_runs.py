"""The recorded command-line runs: each run's arguments, and the files under
`fixtures/reports/` that hold what it printed.

`test_cli.py` checks these runs under pytest.  Run as a script, this module
checks every recorded `solve`, `eval`, `probe`, `validate` and
`extract-training` run with the standard library only, and exits 1 if any
differs from its record:

    PYTHONPATH=src python tests/fixture_runs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from sireason import evalcli

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
REPORTS = FIXTURES / "reports"
MODES = {
    "oracle": [],
    "oracle-beam": ["--beam", "4", "--proposals", "4"],
    "scripted-greedy": ["--backend", "scripted", "--noise", "0.3", "--seed", "11"],
    "scripted": ["--backend", "scripted", "--noise", "0.3", "--seed", "11",
                 "--beam", "4", "--proposals", "4"],
    "remote": ["--backend", "remote", "--endpoint", "pipe:",
               "--beam", "4", "--proposals", "4"],
    # The standalone server, exec'd rather than forked, whose replies must
    # be the recorded "remote" ones.
    "remote-exec": ["--backend", "remote",
                    "--endpoint", f"pipe:{sys.executable} -m sireason.models",
                    "--beam", "4", "--proposals", "4"],
}
# The runs on `set.jsonl` (`gen-problems --seed 7 --count 10 --depths
# 1,2,3,5`) in every mode: the command and its stdout file, by name.
COMMANDS = {
    "eval": (["eval", "--report", "json"], "eval-{}.json"),
    "solve": (["solve"], "solve-{}.txt"),
    "probe-random": (["probe", "--kind", "random", "--report", "json"], "probe-random-{}.json"),
    "probe-incomplete": (["probe", "--kind", "incomplete", "--report", "json"],
                         "probe-incomplete-{}.json"),
}
# `solve` in the beam modes also runs on the PW and PW-hard fixtures.
FIXTURE_SOLVES = {"pw": "golden_pw.jsonl", "pw-hard": "golden_pw_hard.jsonl"}
INPUTS = {**FIXTURE_SOLVES, "eb": "golden_eb.jsonl"}
# Exit code and stderr of each run on the golden fixtures, by name; the
# beam-mode solves of `FIXTURE_SOLVES` are left out, and exit 0.
RECORDED = json.loads((REPORTS / "fixture-runs.json").read_text())


def fixture_runs() -> dict[str, tuple[list[str], str]]:
    """The command line and stdout suffix of each run on the golden
    fixtures, by name: `solve`, `eval --report json` and both
    `probe --report json` kinds in the five modes, `solve` and `eval` again
    through the exec'd server (`-remote-exec`), `validate`, and
    `extract-training` into `pairs.jsonl`."""
    runs = {}
    for name, file in INPUTS.items():
        problems = ["--problems", str(FIXTURES / file)]
        for mode in MODES:
            runs[f"solve-{name}-{mode}"] = (["solve"] + problems + MODES[mode], "txt")
            runs[f"eval-{name}-{mode}"] = (
                ["eval", "--report", "json"] + problems + MODES[mode], "json")
            if mode == "remote-exec":
                continue
            for kind in ("random", "incomplete"):
                runs[f"probe-{kind}-{name}-{mode}"] = (
                    ["probe", "--kind", kind, "--report", "json"] + problems + MODES[mode],
                    "json")
        runs[f"validate-{name}"] = (["validate"] + problems, "txt")
        runs[f"extract-training-{name}"] = (["extract-training"] + problems + [
            "--roles", "sel,inf,halt,value", "--seed", "0", "--out", "pairs.jsonl"], "txt")
    return runs


def recorded_runs() -> dict[str, tuple[list[str], pathlib.Path, dict]]:
    """Every recorded run, by name: its command line, its stdout file, and
    its recorded exit code, with its stderr where that is recorded."""
    runs = {}
    for name, (command, recorded) in COMMANDS.items():
        for mode in MODES:
            argv = command + ["--problems", str(REPORTS / "set.jsonl")] + MODES[mode]
            stdout = REPORTS / recorded.format(mode.removesuffix("-exec"))
            runs[f"{name}-{mode}"] = (argv, stdout, {"exit": 0})
    for name, (argv, suffix) in fixture_runs().items():
        stdout = REPORTS / f"{name.removesuffix('-exec')}.{suffix}"
        runs[name] = (argv, stdout, RECORDED.get(name, {"exit": 0}))
    return runs


def _run(argv: list[str]) -> tuple[int, str, str, bytes]:
    """Exit code, stdout, stderr and written `pairs.jsonl` (or b"") of one
    run in a fresh working directory."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = evalcli.main(argv)
            pairs = pathlib.Path("pairs.jsonl")
            written = pairs.read_bytes() if pairs.exists() else b""
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), written


def main() -> int:
    # The exec'd server imports the package from the same tree.
    src = str(pathlib.Path(evalcli.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs, failed = recorded_runs(), []
    for name, (argv, stdout, recorded) in runs.items():
        code, out, err, written = _run(argv)
        wrong = []
        if code != recorded["exit"]:
            wrong.append(f"exit {code}, recorded {recorded['exit']}")
        if out.encode() != stdout.read_bytes():
            wrong.append(f"stdout differs from {stdout.name}")
        if "stderr" in recorded and err != recorded["stderr"]:
            wrong.append("stderr differs from fixture-runs.json")
        digest = REPORTS / f"{name}.sha256"
        if name.startswith("extract-training") and (
                hashlib.sha256(written).hexdigest() != digest.read_text().strip()):
            wrong.append(f"pairs.jsonl does not hash to {digest.name}")
        print(f"{name}: {'; '.join(wrong) or 'ok'}")
        if wrong:
            failed.append(name)
    print(f"{len(failed)} of {len(runs)} recorded runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
