import json
import pathlib

import pytest

from sireason import datasets
from sireason.evalcli import build_parser, main


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


def test_probe_incomplete(problem_file, capsys):
    rc = main(["probe", "--kind", "incomplete", "--problems", problem_file,
               "--report", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unknown_rate"] == 1.0
    assert doc["accuracy_incomplete"] == 0.0


def test_probe_random(problem_file, capsys):
    rc = main(["probe", "--kind", "random", "--problems", problem_file,
               "--report", "json", "--seed", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy_random"] <= doc["accuracy_correct"]


def test_extract_training_pairs(tmp_path, problem_file):
    out = tmp_path / "pairs.jsonl"
    rc = main(["extract-training", "--problems", problem_file,
               "--roles", "sel,inf,halt,value", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    roles = {l["role"] for l in lines}
    assert {"selection", "inference", "halter_ready", "value"} <= roles


def test_extract_training_rejects_unknown_role(problem_file, tmp_path):
    with pytest.raises(SystemExit):
        main(["extract-training", "--problems", problem_file,
              "--roles", "telepathy", "--out", str(tmp_path / "x.jsonl")])


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
    rc = main(["eval", "--problems", str(fixture), "--dataset", "eb",
               "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["overall"]["count"] == 3
    assert len(doc["failures"]) == 3
    assert all("selection backend: oracle cannot read the prompt" in f
               for f in doc["failures"])
