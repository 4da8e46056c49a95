import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st
from worlds import context_of, worlds

from sireason import core
from sireason.core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    is_connected,
    normalize_key,
    normalize_statement,
    parse_trace_text,
    render_step,
    render_trace,
    tokenize,
)


def test_normalize_key_strips_case_punctuation_whitespace():
    assert normalize_key("The cat  eats the DOG.") == "thecateatsthedog"
    assert normalize_key("  nothing follows  ") == "nothingfollows"
    assert normalize_key("a, b; c!") == "abc"


def test_tokenize_reads_runs_of_letters_a_to_z():
    # A hyphen splits a word and a digit is no letter, as in statement keys.
    assert tokenize("An ice-cube, 3 CUBES!") == ["an", "ice", "cube", "cubes"]
    assert tokenize("été") == ["t"]
    assert normalize_key("An ice-cube, 3 CUBES!") == "anicecubecubes"


@given(st.text(max_size=80))
def test_normalize_key_idempotent(text):
    once = normalize_key(text)
    assert normalize_key(once) == once
    assert set(once) <= set("abcdefghijklmnopqrstuvwxyz")


def test_statement_equality_is_key_based():
    a = Statement("the cat eats the dog")
    b = Statement("The cat eats the dog.")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Statement("the dog eats the cat")


def test_normalize_statement_rejects_empty():
    with pytest.raises(core.EmptyStatement):
        normalize_statement("   ")


def test_statement_keeps_the_key_it_was_built_with(monkeypatch):
    a = Statement("The cat eats the dog.")
    b = Statement("the cat eats the dog")
    assert a.key == normalize_key(a.surface) == "thecateatsthedog"
    calls = []
    monkeypatch.setattr(core, "normalize_key", lambda raw: calls.append(raw) or "")
    assert (a.key, a == b, hash(a) == hash(b) == hash(a.key)) == ("thecateatsthedog", True, True)
    assert calls == []


def test_statement_is_immutable_and_copies_by_surface():
    import copy
    import pickle

    a = Statement("The cat eats the dog.")
    for name in ("surface", "key", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, "x")
    with pytest.raises(AttributeError):
        del a.key
    for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert (twin.surface, twin.key, twin) == (a.surface, a.key, a)
    assert repr(a) == "Statement(surface='The cat eats the dog.')"
    assert str(a) == a.surface


def test_labeled_context_basics():
    ctx = LabeledContext.from_statements(["a is red", "b is blue"])
    assert len(ctx) == 2
    assert ctx.lookup(1) == Statement("a is red")
    assert ctx.lookup(2) == Statement("b is blue")
    assert ctx.statements() == (Statement("a is red"), Statement("b is blue"))
    with pytest.raises(KeyError, match="sent 3 out of range 1..2"):
        ctx.lookup(3)
    extended = ctx.extended(Statement("c is green"))
    assert len(extended) == 3
    assert extended.lookup(3) == Statement("c is green")
    # the original is untouched
    assert len(ctx) == 2
    # the same context as one built from all three statements
    assert extended == LabeledContext.from_statements(["a is red", "b is blue", "c is green"])
    assert [label for label, _ in extended] == [1, 2, 3]
    with pytest.raises(AttributeError):
        extended._statements = ()


def test_from_statements_numbers_its_labels_and_checks_its_statements():
    statements = (s for s in ["a is red", Statement("b is blue"), "c is green."])
    ctx = LabeledContext.from_statements(statements)
    assert isinstance(ctx, LabeledContext)
    assert [label for label, _ in ctx] == [1, 2, 3]
    assert ctx.statements() == tuple(map(Statement, ["a is red", "b is blue", "c is green"]))
    assert ctx == LabeledContext(ctx.statements())
    with pytest.raises(core.EmptyStatement):
        LabeledContext.from_statements(["a is red", " . "])


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_a_context_is_its_statements_labelled_by_position(world, data):
    ctx = context_of(world)
    statements = ctx.statements()
    assert ctx.statements() is statements
    built = LabeledContext.from_statements(())
    for statement in statements:
        built = built.extended(statement)
    assert built == ctx and hash(built) == hash(ctx)
    assert [label for label, _ in ctx] == list(range(1, len(statements) + 1))
    for label, statement in ctx:
        assert ctx.lookup(label) is statement is statements[label - 1]
    # A prefix of the statements is labelled as they are in the whole.
    n = data.draw(st.integers(0, len(statements) - 1))
    short = LabeledContext.from_statements(statements[:n])
    assert list(short) == list(enumerate(statements[:n], 1))


def test_answer_parse_render():
    assert Answer.parse("True") == Answer.TRUE
    assert Answer.parse(" False ") == Answer.FALSE
    assert Answer.parse("Unknown") == Answer.UNKNOWN
    assert Answer.UNKNOWN.is_unknown
    choice = Answer.of_choice("a fly")
    assert choice.render() == "a fly"
    assert not choice.is_unknown
    assert Answer.TRUE.render() == "True"


@pytest.mark.parametrize("args, message", [
    (("maybe",), "bad answer kind: maybe"),
    (("choice",), "choice text iff kind == 'choice'"),
    (("true", "x"), "choice text iff kind == 'choice'"),
])
def test_an_answer_outside_its_kinds_is_a_value_error(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Answer(*args)


def test_a_step_needs_a_selection():
    with pytest.raises(ValueError, match="selection must be non-empty"):
        ReasoningStep((), Statement("the cat is big"))


def test_an_answer_has_two_fields():
    """TRUE, FALSE and UNKNOWN are class constants, not fields."""
    assert [f.name for f in fields(Answer)] == ["kind", "choice"]
    assert repr(Answer.TRUE) == "Answer(kind='true', choice=None)"
    with pytest.raises(TypeError):
        Answer("true", None, Answer.FALSE)


def _toy_trace():
    ctx = LabeledContext.from_statements(
        ["If something is kind then it likes the cow", "the tiger is kind"]
    )
    step = ReasoningStep(
        selection=(
            Statement("If something is kind then it likes the cow"),
            Statement("the tiger is kind"),
        ),
        inference=Statement("the tiger likes the cow"),
        selection_labels=(1, 2),
    )
    return ReasoningTrace(base_context=ctx, steps=(step,))


def test_render_and_parse_trace_roundtrip():
    trace = _toy_trace()
    text = render_trace(trace)
    assert text == (
        "If something is kind then it likes the cow. "
        "We know that the tiger is kind. Therefore, the tiger likes the cow."
    )
    parsed = parse_trace_text(text)
    assert parsed.inference == trace.steps[0].inference
    assert parsed.selection == trace.steps[0].selection
    # Surrounding whitespace and a single premise read back alike.
    single = parse_trace_text("  the cat is cold. Therefore, the cat is nice.\n")
    assert single.selection == (Statement("the cat is cold"),)
    assert single.inference == Statement("the cat is nice")


def test_render_step_single_premise():
    step = ReasoningStep(
        selection=(Statement("the cat is cold"),),
        inference=Statement("the cat is nice"),
    )
    assert render_step(step) == "the cat is cold. Therefore, the cat is nice."


def test_parse_trace_rejects_garbage():
    for line in [
        "no entailment marker here",
        "",
        "a is red. Therefore, b is red. Therefore, c is red.",
        "Answer: True",
        "a is red. Therefore, ...",
        "... Therefore, b is red.",
    ]:
        with pytest.raises(core.TraceParseError):
            parse_trace_text(line)


def test_is_connected_flags_made_up_facts():
    trace = _toy_trace()
    assert is_connected(trace) is True
    bad_step = ReasoningStep(
        selection=(Statement("the moon is cheese"),),
        inference=Statement("the tiger is green"),
    )
    assert is_connected(replace(trace, steps=trace.steps + (bad_step,))) is False
    # An earlier inference may be selected; a later one may not.
    uses_inference = ReasoningStep(
        selection=(Statement("the tiger likes the cow"),),
        inference=Statement("the tiger is green"),
    )
    assert is_connected(replace(trace, steps=trace.steps + (uses_inference,))) is True
    early = ReasoningTrace(base_context=trace.base_context,
                           steps=(uses_inference,) + trace.steps)
    assert is_connected(early) is False


def test_a_trace_is_halted_when_it_has_an_answer():
    trace = _toy_trace()
    assert not trace.halted
    assert replace(trace, answer=Answer.TRUE).halted
    empty = ReasoningTrace(base_context=trace.base_context)
    assert replace(empty, answer=Answer.UNKNOWN).halted
    with pytest.raises(ValueError, match="must have steps"):
        replace(empty, answer=Answer.FALSE)
