"""Each writer of prompt or trace text, read back by its reader, on drawn
worlds (`worlds.worlds`)."""

from hypothesis import given, settings, strategies as st
from worlds import context_of, worlds

from sireason import cnl
from sireason.core import ReasoningStep, parse_trace_text, render_step, selection_order
from sireason.datasets import SchemaError, problem_from_doc
from sireason.models import (
    _context_surfaces,
    _read_answer_prompt,
    _read_halter_prompt,
    _read_inference_prompt,
    _read_ready_prompt,
    _read_selection_prompt,
    _read_value_prompt,
    format_halter_prompts,
    format_inference_prompt,
    format_selection_prompt,
    format_value_prompt,
    read_selection,
    render_inference,
    render_selection,
    value_prompt_head,
)

ROUND_TRIP = settings(max_examples=100, deadline=None)


def _question(data, world) -> str:
    """A hypothesis question about one of the world's facts."""
    return cnl.render_question(data.draw(st.sampled_from(world[0])))


def _step(data, statements) -> ReasoningStep:
    """A step whose premises and inference are drawn from the statements."""
    head = data.draw(st.sampled_from(statements))
    rest = data.draw(st.lists(st.sampled_from(statements), max_size=2))
    return ReasoningStep((head, *rest), data.draw(st.sampled_from(statements)))


@ROUND_TRIP
@given(worlds(), st.data())
def test_a_selection_prompt_reads_back(world, data):
    context = context_of(world)
    question = _question(data, world)
    assert _read_selection_prompt(format_selection_prompt(question, context)) == (
        question, tuple(s.surface for s in context.statements()))


@ROUND_TRIP
@given(worlds(), st.data())
def test_a_selection_completion_reads_back_in_selection_order(world, data):
    size = len(context_of(world))
    labels = data.draw(st.lists(st.integers(1, size), min_size=1, max_size=4))
    read = read_selection(render_selection(labels), size)
    assert read == selection_order(labels)


@ROUND_TRIP
@given(worlds(), st.data())
def test_halter_prompts_read_back(world, data):
    surfaces = [s.surface for s in context_of(world).statements()]
    inference = data.draw(st.sampled_from(surfaces))
    question = _question(data, world)
    ready, answer = format_halter_prompts(question, inference)
    assert answer is None
    assert _read_halter_prompt(ready) == (inference, question)
    choices = tuple(data.draw(st.lists(st.sampled_from(surfaces), min_size=2, max_size=4,
                                       unique=True)))
    ready, answer = format_halter_prompts("Which of these follows?", inference, choices)
    assert _read_ready_prompt(ready) == (choices, inference)
    assert _read_answer_prompt(answer) == (choices, inference)


# A choice is drawn from these pieces: the word "OR" and words that only
# start like it, padding, a period, which the readiness prompt follows with
# its own, and a "?", after whose last the readiness prompt reads the choices.
_CHOICE_PIECES = st.sampled_from(["OR", "ORE", "red", "a", " ", "  ", ".", "?"])
# A question that ends in "?", one without, and one with text after it.
_QUESTIONS = st.sampled_from(["Which state is an ice cube in?", "Which state is an ice cube in",
                              "Which state? Pick one"])


@ROUND_TRIP
@given(_QUESTIONS, st.lists(st.lists(_CHOICE_PIECES, min_size=1, max_size=5).map("".join),
                            min_size=2, max_size=4))
def test_the_choices_of_a_loaded_problem_read_back_from_both_halter_prompts(question, choices):
    """A choice list either does not load, or both halter prompts of the
    problem read back as exactly its choices, stripped."""
    doc = {"id": "mc", "context": ["an ice cube is a kind of solid"],
           "question": question, "choices": choices, "answer": choices[0]}
    try:
        problem = problem_from_doc(doc)
    except SchemaError:
        return
    inference = "an ice cube is solid"
    ready, answer = format_halter_prompts(problem.question, inference, problem.choices)
    stripped = tuple(c.strip() for c in choices)
    assert _read_ready_prompt(ready) == (stripped, inference)
    assert _read_answer_prompt(answer) == (stripped, inference)


@ROUND_TRIP
@given(worlds(), st.data())
def test_a_value_prompt_reads_back(world, data):
    context = context_of(world)
    statements = context.statements()
    question = _question(data, world)
    text = "\n".join(render_step(_step(data, statements))
                     for _ in range(data.draw(st.integers(1, 3))))
    prompt = format_value_prompt(value_prompt_head(context, question), text)
    ctx_text, read_question, reason = _read_value_prompt(prompt)
    assert (read_question, reason) == (question, text)
    assert _context_surfaces(ctx_text) == tuple(s.surface for s in statements)


@ROUND_TRIP
@given(worlds(), st.data())
def test_a_step_reads_back(world, data):
    step = _step(data, context_of(world).statements())
    read = parse_trace_text(render_step(step))
    assert [s.surface for s in read.selection] == [s.surface for s in step.selection]
    assert read.inference.surface == step.inference.surface


@ROUND_TRIP
@given(worlds(), st.data())
def test_a_step_line_is_its_inference_prompt_plus_the_completion(world, data):
    """The trace shows each step as the text its inference role was sent
    and gave, and the prompt reads back as the step's selection."""
    step = _step(data, context_of(world).statements())
    prompt = format_inference_prompt(step.selection)
    assert render_step(step) == prompt + render_inference(step.inference.surface)
    read = _read_inference_prompt(prompt)
    assert [s.surface for s in read] == [s.surface for s in step.selection]
