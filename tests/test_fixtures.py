"""Golden end-to-end checks over the bundled fixture problem sets."""

import pytest

from sireason import engine, models, symbolic
from sireason.core import Answer
from sireason.datasets import validate_problems
from sireason.engine import si_answer
from sireason.models import (
    CompletionRequest,
    GeneratorRole,
    OracleBackend,
    ScriptedBackend,
    format_selection_prompt,
)


def test_pw_fixture_shape(pw_problems):
    assert len(pw_problems) == 10
    assert all(p.gold_proof is not None for p in pw_problems)
    assert all(p.choices is None for p in pw_problems)


def test_pw_fixture_proofs_validate(pw_problems, pw_worst_problems):
    assert validate_problems(pw_problems) == []
    assert validate_problems(pw_worst_problems) == []


def test_pw_fixture_oracle_reproduces_answers(pw_problems):
    solved = 0
    for problem in pw_problems:
        answer, trace = si_answer(problem, OracleBackend())
        assert answer == problem.gold_answer, problem.id
        assert symbolic.trace_faults(trace) == [], problem.id
        solved += 1
    assert solved == 10


def test_pw_worst_fixture_oracle_reproduces_answers(pw_worst_problems):
    assert len(pw_worst_problems) == 5
    for problem in pw_worst_problems:
        answer, trace = si_answer(problem, OracleBackend())
        assert answer == problem.gold_answer, problem.id
        assert symbolic.trace_faults(trace) == [], problem.id


def test_pw_fixture_beam_search_agrees(pw_problems):
    cfg = engine.BeamConfig(beam_width=2, proposals_per_trace=2)
    for problem in pw_problems:
        answer, _, _ = engine.beam_search(problem, OracleBackend(), cfg)
        assert answer == problem.gold_answer, problem.id


def test_single_step_problem_selection_text(pw_problems):
    problem = next(p for p in pw_problems if p.id == "pw-top-7")
    prompt = format_selection_prompt(problem.question, problem.context)
    text = OracleBackend().complete(
        CompletionRequest(role=GeneratorRole.SELECTION, prompt=prompt)
    ).text
    assert text == " sent 1. We know that sent 3."


def test_mirrored_questions_share_the_proof(pw_problems):
    """Opposite questions over one context reuse the same reasoning."""
    seven = next(p for p in pw_problems if p.id == "pw-top-7")
    eight = next(p for p in pw_problems if p.id == "pw-top-8")
    _, trace7 = si_answer(seven, OracleBackend())
    _, trace8 = si_answer(eight, OracleBackend())
    assert [s.inference for s in trace7.steps] == [
        s.inference for s in trace8.steps
    ]
    assert seven.gold_answer == Answer.TRUE
    assert eight.gold_answer == Answer.FALSE


def test_eb_fixture_shape(eb_problems):
    assert len(eb_problems) == 3
    for problem in eb_problems:
        assert problem.choices is not None
        assert len(problem.choices) == 4
        assert problem.gold_answer == Answer.of_choice(
            problem.gold_answer.render()
        )


@pytest.mark.parametrize(
    "pid",
    ["eb-d1-fly", "eb-d1-ice-cube", "eb-d2-runway"],
)
def test_eb_fixture_scripted_end_to_end(eb_problems, pid):
    """Replay each gold proof through the halter and choice matcher.

    The supporting statements are free text the rule engine cannot parse,
    so selection and inference come from a script built off the gold proof,
    while halting and answer extraction run against the oracle.
    """
    problem = next(p for p in eb_problems if p.id == pid)
    script = {GeneratorRole.SELECTION: [], GeneratorRole.INFERENCE: []}
    for step in problem.gold_proof.steps:
        script[GeneratorRole.SELECTION].append(models.render_selection(step.selection_labels))
        script[GeneratorRole.INFERENCE].append(f" {step.inference.surface}.")
    backend = ScriptedBackend(base=OracleBackend(), script=script)
    answer, trace = si_answer(problem, backend)
    assert answer == problem.gold_answer
    # the choice matcher may already recognise an intermediate inference,
    # so halting can come at or before the gold proof length
    assert 1 <= len(trace.steps) <= len(problem.gold_proof.steps)
