import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest
from fixture_runs import (
    COMMANDS,
    FIXTURE_SOLVES,
    FIXTURES,
    MODES,
    RECORDED,
    REPORTS,
    fixture_runs,
)

from sireason import datasets, engine, evalcli, models
from sireason.evalcli import REMOTE_ENDPOINT_ENV, build_parser, main


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problems.jsonl"
    datasets.save_problems(datasets.generate_problem_set(9, {1: 3, 2: 3}), path)
    return str(path)


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_gen_problems_then_validate(tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    rc = main(["gen-problems", "--seed", "4", "--count", "2",
               "--depths", "1,3", "--out", str(out)])
    assert rc == 0
    problems = datasets.load_problems(out)
    assert len(problems) == 4
    capsys.readouterr()
    assert main(["validate", "--problems", str(out)]) == 0


def test_validate_fails_on_broken_proof(tmp_path, capsys):
    doc = {
        "id": "broken",
        "context": [
            "If something is kind then it likes the cow",
            "the tiger is kind",
        ],
        "question": 'Does it imply that the statement "The tiger likes the cow" is True?',
        "answer": "True",
        "proof": [{"selection": [1, 2], "inference": "the tiger is green"}],
        "depth": 1,
    }
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    assert main(["validate", "--problems", str(path)]) == 1
    assert "broken" in capsys.readouterr().out


def test_validate_stops_on_a_line_nested_past_the_json_parser(tmp_path, capsys):
    """Too deep to parse is not valid JSON: exit 2 with `file:line: message`."""
    path = tmp_path / "nested.jsonl"
    path.write_text("[" * 100_000 + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--problems", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{path}:1: not valid JSON: ")


def test_validate_names_a_gold_answer_that_its_proof_contradicts(tmp_path, capsys):
    """pw-top-8's proof ends in "the bald eagle is not kind"; with its gold
    answer set to True, every step still replays, but the answer does not
    follow."""
    docs = [json.loads(line) for line in (FIXTURES / "golden_pw.jsonl").read_text().splitlines()]
    (flipped,) = [doc for doc in docs if doc["id"] == "pw-top-8"]
    assert flipped["answer"] == "False"
    flipped["answer"] = "True"
    path = tmp_path / "flipped.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert main(["validate", "--problems", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pw-top-8: gold answer True claims 'the bald eagle is kind', "
        "but the gold proof ends in 'the bald eagle is not kind'",
        "10 problems, 1 findings",
    ]


def test_validate_reads_multiple_choice_from_the_file(capsys):
    """The EB fixture's problems have `choices`, so their free-text proofs
    are not judged by the rule language."""
    assert main(["validate", "--problems", str(FIXTURES / "golden_eb.jsonl")]) == 0
    assert capsys.readouterr().out == "3 problems, 0 findings\n"


def test_solve_prints_traces_and_answers(problem_file, capsys):
    rc = main(["solve", "--problems", problem_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("Answer:") == 6
    assert "Therefore," in out


def test_eval_json_report_oracle(problem_file, capsys):
    rc = main(["eval", "--problems", problem_file, "--report", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"]["accuracy"] == 1.0
    assert doc["made_up_fact_rate"] == 0.0


def test_eval_text_report(problem_file, capsys):
    rc = main(["eval", "--problems", problem_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "made-up-fact rate:" in out


def test_eval_text_report_prints_each_failure(capsys):
    """The text report ends with one `failure:` line per failure of the
    JSON report, and exits 1; the oracle cannot read an EB question."""
    problems = ["--problems", str(FIXTURES / "golden_eb.jsonl")]
    assert main(["eval", "--report", "json"] + problems) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert main(["eval", "--report", "text"] + problems) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(failures) == 3
    assert lines[-len(failures):] == [f"failure: {f}" for f in failures]
    assert not lines[-len(failures) - 1].startswith("failure:")


def _probe_reports(command, capsys):
    """The JSON report of a probe command line, and its text report's
    lines."""
    assert main(command + ["--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(command + ["--report", "text"]) == 0
    return doc, capsys.readouterr().out.splitlines()


def test_probe_incomplete(problem_file, capsys):
    doc, lines = _probe_reports(
        ["probe", "--kind", "incomplete", "--problems", problem_file], capsys)
    assert doc["unknown_rate"] == 1.0
    assert doc["accuracy_incomplete"] == 0.0
    # The altered accuracy, the given one, their difference, the altered
    # Unknown rate.
    assert lines == [f"{k}: {doc[k]}" for k in (
        "kind", "accuracy_incomplete", "accuracy_complete", "delta", "unknown_rate")]


def test_probe_random(problem_file, capsys):
    doc, lines = _probe_reports(
        ["probe", "--kind", "random", "--problems", problem_file, "--seed", "2"], capsys)
    assert doc["accuracy_random"] <= doc["accuracy_correct"]
    assert lines == [f"{k}: {doc[k]}" for k in (
        "kind", "accuracy_random", "accuracy_correct", "delta", "unknown_rate_random")]


def test_extract_training_pairs(tmp_path, problem_file):
    out = tmp_path / "pairs.jsonl"
    rc = main(["extract-training", "--problems", problem_file,
               "--roles", "sel,inf,halt,value", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    roles = {l["role"] for l in lines}
    assert {"selection", "inference", "halter_ready", "value"} <= roles


@pytest.mark.parametrize("command", [
    ["gen-problems", "--count", "1"],
    ["extract-training", "--problems", str(FIXTURES / "golden_pw.jsonl")],
], ids=["gen-problems", "extract-training"])
@pytest.mark.parametrize("name, message", [
    ("missing/out.jsonl", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_an_unwritable_out_stops_the_command(command, name, message, tmp_path, capsys):
    """`path: message` on stderr and exit 2, as for an unreadable input."""
    out = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", out])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{out}: {message}\n")


def _never(*args, **kwargs):
    raise AssertionError("called before the command line was checked")


@pytest.mark.parametrize("roles", ["inf,halt", "sel,halt"])
def test_extract_training_keeps_only_the_asked_roles(roles, tmp_path, problem_file, capsys):
    """Each role asked for is written as the full extraction writes it, and
    no other."""
    names = {"sel": "selection", "inf": "inference", "halt": "halter_ready"}
    written = {}
    for asked in (roles, "sel,inf,halt"):
        out = tmp_path / f"{asked}.jsonl"
        assert main(["extract-training", "--problems", problem_file,
                     "--roles", asked, "--out", str(out)]) == 0
        written[asked] = [json.loads(line) for line in out.read_text().splitlines()]
    capsys.readouterr()
    kept = {names[r] for r in roles.split(",")}
    assert written[roles] == [p for p in written["sel,inf,halt"] if p["role"] in kept]
    assert {p["role"] for p in written[roles]} == kept


def test_extract_training_rejects_unknown_role(problem_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["extract-training", "--problems", problem_file,
              "--roles", "telepathy", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


def test_extract_training_checks_roles_before_loading(
    problem_file, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(datasets, "load_problems", _never)
    out = tmp_path / "x.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["extract-training", "--problems", problem_file,
              "--roles", "sel,foo", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --roles: unknown roles: ['foo']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depths", ["4", "1,x", "", "1,,2"])
def test_gen_problems_refuses_bad_depths(depths, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(datasets, "generate_problem_set", _never)
    out = tmp_path / "gen.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["gen-problems", "--depths", depths, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --depths" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-3", "x", "1.5"])
def test_gen_problems_refuses_a_bad_count(count, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(datasets, "generate_problem_set", _never)
    out = tmp_path / "gen.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["gen-problems", "--count", count, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --count" in err and "Traceback" not in err
    assert not out.exists()


def test_a_context_with_nothing_to_select_answers_unknown(tmp_path, capsys):
    """A facts-only context fires no rule, and the incomplete-context probe
    strips it to nothing at all, as a problem file may give it: every
    command answers Unknown, notes no failure and exits 0."""
    question = 'Does it imply that the statement "The cat is kind" is True?'
    docs = [
        {"id": "facts-only", "context": ["the cat is red", "the dog is big"],
         "question": question, "answer": "Unknown"},
        {"id": "empty", "context": [], "question": question, "answer": "Unknown"},
    ]
    path = tmp_path / "facts.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    problems = ["--problems", str(path)]
    assert main(["solve"] + problems) == 0
    out, err = capsys.readouterr()
    assert out.count("Answer: Unknown\n") == 2 and err == ""
    assert main(["eval", "--report", "json"] + problems) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [] and doc["overall"]["accuracy"] == 1.0
    assert main(["probe", "--kind", "incomplete", "--report", "json"] + problems) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["unknown_rate"] == 1.0 and err == ""


def test_the_package_runs_as_a_module(tmp_path):
    """`python -m sireason` is the command line."""
    out = tmp_path / "gen.jsonl"
    for argv in (["gen-problems", "--seed", "4", "--count", "2", "--depths", "1,3",
                  "--out", str(out)],
                 ["validate", "--problems", str(out)]):
        done = subprocess.run([sys.executable, "-m", "sireason", *argv],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert done.stdout == "4 problems, 0 findings\n"


@pytest.mark.parametrize("command, lines", [
    (["solve"], 1),  # the pipe closes while the command writes
    (["eval", "--report", "json"], 0),  # it closes before the report is flushed
], ids=["solve", "eval"])
def test_a_closed_stdout_ends_a_command_quietly(tmp_path, command, lines):
    """`sireason solve ... | head -1`: once the reader of stdout is gone the
    command exits 1 with nothing on stderr, not a BrokenPipeError traceback.
    The traces of 200 problems fill more than a pipe's buffer, so `solve` is
    still writing when the pipe closes; stdout is buffered, so the `eval`
    report is written only when the command ends."""
    path = tmp_path / "gen.jsonl"
    assert main(["gen-problems", "--seed", "4", "--count", "50", "--out", str(path)]) == 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "sireason", *command, "--problems", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_eval_deterministic_output(problem_file, capsys):
    args = ["eval", "--problems", problem_file, "--backend", "scripted",
            "--noise", "0.4", "--seed", "6", "--beam", "2",
            "--proposals", "2", "--report", "json"]
    assert main(args) in (0, 1)
    first = capsys.readouterr().out
    assert main(args) in (0, 1)
    second = capsys.readouterr().out
    assert first == second


def test_eval_eb_through_the_oracle_counts_backend_failures(capsys):
    """The oracle cannot read free-text (EB) questions: each problem is
    counted, its failure is listed, and `eval` exits 1."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "golden_eb.jsonl"
    rc = main(["eval", "--problems", str(fixture), "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["overall"]["count"] == 3
    assert len(doc["failures"]) == 3
    assert all("selection backend: oracle cannot read the prompt" in f
               for f in doc["failures"])


def test_a_program_error_in_eval_propagates(problem_file, monkeypatch):
    """A search that raises is a bug, not a report line: `evaluate` and
    `eval` let the exception through, as `solve` does."""
    problems = datasets.load_problems(problem_file)
    beam_search = engine.beam_search

    def failing(problem, *args, **kwargs):
        if problem.id == problems[1].id:
            raise RuntimeError("search bug")
        return beam_search(problem, *args, **kwargs)

    monkeypatch.setattr(engine, "beam_search", failing)
    with pytest.raises(RuntimeError, match="search bug"):
        evalcli.evaluate(problems, evalcli.SolverConfig())
    with pytest.raises(RuntimeError, match="search bug"):
        main(["eval", "--problems", problem_file])


@pytest.mark.parametrize("command, count", [
    (["solve"], 1),
    (["probe", "--kind", "incomplete"], 1),
    (["probe", "--kind", "random"], 2),  # a derangement needs two problems
], ids=["solve", "probe-incomplete", "probe-random"])
def test_solve_and_probe_report_backend_failures(tmp_path, capsys, command, count):
    """A server that exits at once fails every request: each failure is
    printed on stderr and the command exits 1; stdout is the usual report."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "golden_pw.jsonl"
    path = tmp_path / "problems.jsonl"
    path.write_text("".join(fixture.read_text().splitlines(keepends=True)[:count]))
    rc = main(command + ["--problems", str(path), "--backend", "remote",
                         "--endpoint", f"pipe:{sys.executable} -c pass"])
    out, err = capsys.readouterr()
    assert rc == 1
    failures = err.splitlines()
    assert failures and all(
        line.startswith("failure: ") and "retry budget exhausted" in line
        for line in failures
    )
    if command == ["solve"]:
        assert out.count("Answer: Unknown") == count
    else:
        assert "delta: 0.0" in out


def test_random_probe_on_one_problem_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """One problem has no other context to borrow: exit 2 before anything
    is solved, with nothing on stdout."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "golden_pw.jsonl"
    path = tmp_path / "one.jsonl"
    path.write_text(fixture.read_text().splitlines(keepends=True)[0])
    monkeypatch.setattr(evalcli, "make_solver", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--kind", "random", "--problems", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --kind random needs at least 2 problems" in err


def test_eval_reports_known_only_accuracy_below_accuracy(tmp_path, capsys):
    """An Unknown gold answered Unknown is correct but not known, so the
    known-only accuracy may fall below the accuracy."""
    context = ["If something is kind then it likes the cow", "the tiger is kind"]
    question = 'Does it imply that the statement "The {} likes the cow" is True?'
    docs = [
        # Nothing in the context is about the cow: the oracle answers Unknown.
        {"id": "unknown", "context": context[:1] + ["the cow is big"],
         "question": question.format("cow"), "answer": "Unknown"},
        # The oracle proves True; the gold answer is flipped.
        {"id": "flipped", "context": context,
         "question": question.format("tiger"), "answer": "False"},
    ]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    rc = main(["eval", "--problems", str(path), "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["overall"]["accuracy"] == 0.5
    assert doc["overall"]["known_only_accuracy"] == 0.0
    assert doc["overall"]["unknown_rate"] == 0.5


_SOLVER_COMMANDS = pytest.mark.parametrize("command", [
    ["solve"], ["eval"], ["probe", "--kind", "random"],
], ids=["solve", "eval", "probe"])


@_SOLVER_COMMANDS
@pytest.mark.parametrize("setting, message", [
    (["--beam", "4", "--proposals", "2"], "beam_width <= proposals_per_trace"),
    (["--max-steps", "0"], "max_steps must be at least 1"),
], ids=["beam-over-proposals", "zero-max-steps"])
def test_bad_search_setting_stops_before_any_problem(
    problem_file, capsys, command, setting, message
):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--problems", problem_file] + setting)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: bad search setting: " in err and message in err


# Endpoints that are neither `pipe:` nor an http(s) URL with a host.
_BAD_ENDPOINTS = ["http//x", "/srv/model", "localhost:8000"]


@_SOLVER_COMMANDS
@pytest.mark.parametrize("setting, message", [
    (["--backend", "scripted", "--noise", "1.5"], "noise rate must be within [0, 1]"),
    (["--backend", "remote"], "remote backend needs --endpoint"),
    *((["--backend", "remote", "--endpoint", endpoint], f"got {endpoint!r}")
      for endpoint in _BAD_ENDPOINTS),
], ids=["noise-over-one", "remote-without-endpoint", "no-scheme", "path",
        "host-without-scheme"])
def test_bad_backend_setting_stops_before_any_problem(
    tmp_path, monkeypatch, capsys, pipe_spawns, command, setting, message
):
    monkeypatch.delenv(REMOTE_ENDPOINT_ENV, raising=False)
    # The problem file does not exist: the setting is refused before any
    # problem would load.
    missing = str(tmp_path / "missing.jsonl")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--problems", missing] + setting)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: bad backend setting: " in err and message in err
    assert pipe_spawns == []


def test_a_bad_endpoint_from_the_environment_stops_before_any_problem(
    tmp_path, monkeypatch, capsys, pipe_spawns
):
    monkeypatch.setenv(REMOTE_ENDPOINT_ENV, "localhost:8000")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--problems", str(tmp_path / "missing.jsonl"), "--backend", "remote"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: bad backend setting: " in err and "got 'localhost:8000'" in err
    assert pipe_spawns == []


@pytest.mark.parametrize("endpoint", _BAD_ENDPOINTS)
def test_the_cli_refuses_an_endpoint_as_models_does(pipe_spawns, endpoint):
    """`check_backend` asks `models`, which refuses the endpoint before
    `remote_backend` would connect to it; nothing starts."""
    cfg = evalcli.SolverConfig(backend="remote", endpoint=endpoint)
    raised = []
    for check in (cfg.check_backend, lambda: models.check_endpoint(endpoint),
                  lambda: models.remote_backend(endpoint)):
        with pytest.raises(ValueError) as exc:
            check()
        raised.append(str(exc.value))
    assert raised == [f"remote endpoint must be pipe:[CMD] or an http(s) URL with a host, "
                      f"got {endpoint!r}"] * 3
    assert pipe_spawns == []


def test_the_cli_refuses_a_backend_name_or_noise_rate_as_models_does():
    """`check_backend` refuses what `make_backend` would, and the noise
    bound is `models.check_noise`'s, which `ScriptedBackend` applies too."""
    unknown = evalcli.SolverConfig(backend="orcale")
    for check in (unknown.check_backend, lambda: evalcli.make_backend(unknown)):
        with pytest.raises(ValueError, match="unknown backend 'orcale'"):
            check()
    for noise in (-0.1, 1.5):
        cfg = evalcli.SolverConfig(backend="scripted", noise_rate=noise)
        raised = []
        for check in (cfg.check_backend, lambda: models.check_noise(noise),
                      lambda: models.ScriptedBackend(noise_rate=noise)):
            with pytest.raises(ValueError) as exc:
                check()
            raised.append(str(exc.value))
        assert raised == [f"noise rate must be within [0, 1], got {noise}"] * 3
    for noise in (0.0, 1.0):
        models.check_noise(noise)


@_SOLVER_COMMANDS
def test_no_solver_flag_gives_the_default_solver_config(command):
    args = build_parser().parse_args(command + ["--problems", "p.jsonl"])
    assert evalcli._solver_config(args) == evalcli.SolverConfig()


@_SOLVER_COMMANDS
@pytest.mark.parametrize("flags, changes", [
    (["--backend", "scripted"], {"backend": "scripted"}),
    (["--noise", "0.3"], {"noise_rate": 0.3}),
    (["--seed", "11"], {"seed": 11}),
    (["--proposals", "3"], {"proposals_per_trace": 3}),
    # A beam wider than one needs as many proposals.
    (["--beam", "3", "--proposals", "3"], {"beam_width": 3, "proposals_per_trace": 3}),
    (["--max-steps", "7"], {"max_steps": 7}),
    (["--endpoint", "pipe:"], {"endpoint": "pipe:"}),
    # The remote backend is accepted once --endpoint names its server.
    (["--backend", "remote", "--endpoint", "pipe:"], {"backend": "remote", "endpoint": "pipe:"}),
    (["--backend", "remote", "--endpoint", "https://localhost:8000/v1"],
     {"backend": "remote", "endpoint": "https://localhost:8000/v1"}),
])
def test_each_solver_flag_sets_its_own_field(command, flags, changes):
    args = build_parser().parse_args(command + ["--problems", "p.jsonl"] + flags)
    assert evalcli._solver_config(args) == replace(evalcli.SolverConfig(), **changes)


@pytest.fixture(scope="module")
def report_set(tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "set.jsonl"
    datasets.save_problems(
        datasets.generate_problem_set(7, {1: 10, 2: 10, 3: 10, 5: 10}), path
    )
    return str(path)


@pytest.mark.parametrize("command, recorded, problems, mode", [
    pytest.param(command, recorded, None, mode, id=f"{name}-{mode}")
    for name, (command, recorded) in COMMANDS.items() for mode in MODES
] + [
    pytest.param(["solve"], f"solve-{name}-{{}}.txt", FIXTURES / file, mode,
                 id=f"solve-{name}-{mode}")
    for name, file in FIXTURE_SOLVES.items() for mode in ("oracle-beam", "scripted", "remote")
])
def test_output_is_byte_identical_to_the_recorded_reports(
    report_set, capsys, command, recorded, problems, mode
):
    """`eval --report json`, `solve` and both `probe --report json` kinds
    print exactly the recorded bytes.

    The set is `gen-problems --seed 7 --count 10 --depths 1,2,3,5`; `solve`
    in the beam modes also runs on `golden_pw.jsonl` and
    `golden_pw_hard.jsonl`.  A change that alters output on purpose records
    the files again, e.g.
    `sireason eval --problems set.jsonl --report json > eval-oracle.json`,
    and says why.
    """
    rc = main(command + ["--problems", str(problems or report_set)] + MODES[mode])
    assert rc == 0
    expected = (REPORTS / recorded.format(mode.removesuffix("-exec"))).read_bytes()
    assert capsys.readouterr().out.encode() == expected


_FIXTURE_RUNS = fixture_runs()


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_fixture_runs_are_the_recorded_ones(tmp_path, monkeypatch, capsys, case):
    """Each run on `golden_pw.jsonl`, `golden_pw_hard.jsonl` and
    `golden_eb.jsonl` that the test above leaves out prints the recorded
    stdout (`<case>.txt` or `.json`; a `-remote-exec` run prints its
    `-remote` file) and stderr and exits with the recorded code
    (`fixture-runs.json`); `extract-training` writes pairs that hash to
    `extract-training-<input>.sha256`.  The oracle cannot read an EB
    question, so every EB solve and probe exits 1, its failures counted."""
    argv, suffix = _FIXTURE_RUNS[case]
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert out.encode() == (REPORTS / f"{case.removesuffix('-exec')}.{suffix}").read_bytes()
    assert {"exit": rc, "stderr": err} == RECORDED[case]
    if case.startswith("extract-training"):
        digest = hashlib.sha256((tmp_path / "pairs.jsonl").read_bytes()).hexdigest()
        assert digest == (REPORTS / f"{case}.sha256").read_text().strip()


def test_gold_proofs_and_training_pairs_are_the_recorded_ones(
    report_set, tmp_path, capsys
):
    """The generated set is byte-equal to `set.jsonl`, and its training
    pairs (`extract-training --roles sel,inf,halt,value --seed 0`) hash to
    `extract-training.sha256`: every gold proof and every pair the rest of
    the system trains on stays as recorded."""
    assert pathlib.Path(report_set).read_bytes() == (REPORTS / "set.jsonl").read_bytes()
    out = tmp_path / "pairs.jsonl"
    rc = main(["extract-training", "--problems", report_set,
               "--roles", "sel,inf,halt,value", "--seed", "0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == (REPORTS / "extract-training.sha256").read_text().strip()


@pytest.mark.parametrize("name, message", [
    ("missing.jsonl", "No such file or directory"),
    (".", "Is a directory"),
])
def test_an_unreadable_problem_file_is_a_usage_error(
    tmp_path, capsys, pipe_spawns, name, message
):
    """Exit 2 with `path: message` on stderr and nothing on stdout, before
    any server starts."""
    path = tmp_path / name
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--backend", "remote", "--endpoint", "pipe:", "--problems", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{path}: {message}\n")
    assert pipe_spawns == []


@pytest.mark.parametrize("command", [
    ["solve", "--backend", "remote", "--endpoint", "pipe:"],
    ["eval", "--backend", "remote", "--endpoint", "pipe:"],
    ["probe", "--kind", "random", "--backend", "remote", "--endpoint", "pipe:"],
    ["validate"],
    ["extract-training", "--out", "pairs.jsonl"],
], ids=["solve", "eval", "probe", "validate", "extract-training"])
@pytest.mark.parametrize("fault, message", [
    ("no-question", "missing key 'question'"),
    ("repeated-id", "repeats the id on line 1"),
    ("context-string", "context 'the cat is big' is not a list of strings"),
    ("empty-selection", "selection must be non-empty"),
])
def test_a_bad_problem_file_is_a_usage_error(
    tmp_path, monkeypatch, capsys, pipe_spawns, command, fault, message
):
    """Exit 2 with `file:line: message` on stderr and nothing on stdout,
    before any server starts."""
    docs = [datasets.problem_to_doc(p) for p in datasets.generate_problem_set(9, {1: 2})]
    if fault == "no-question":
        del docs[1]["question"]
    elif fault == "repeated-id":
        docs[1]["id"] = docs[0]["id"]
    elif fault == "empty-selection":
        docs[1]["proof"][0]["selection"] = []
    else:
        docs[1]["context"] = "the cat is big"
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--problems", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:2: ") and message in err
    assert pipe_spawns == []
    assert not (tmp_path / "pairs.jsonl").exists()
