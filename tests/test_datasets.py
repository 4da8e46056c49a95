import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sireason import cnl, datasets, engine, models, symbolic
from sireason.core import Answer, Statement, selection_order, strip_period
from sireason.datasets import (
    SchemaError,
    ValueExtractionReport,
    extract_halter_pairs,
    extract_si_pairs,
    extract_value_pairs,
    generate_problem_set,
    load_problems,
    problem_from_doc,
    save_problems,
    validate_problems,
)
from sireason.models import (
    CERTAIN_BAD,
    CORRECT,
    INCORRECT,
    CompletionRequest,
    GeneratorRole,
    OracleBackend,
    ScriptedBackend,
)


def _doc():
    return {
        "id": "p1",
        "context": [
            "If someone eats the bald eagle then the bald eagle is not kind",
            "the cat eats the bald eagle",
        ],
        "question": 'Does it imply that the statement "The bald eagle is kind" is True?',
        "answer": "False",
        "proof": [{"selection": [1, 2], "inference": "the bald eagle is not kind"}],
        "depth": 1,
    }


def test_problem_from_doc_resolves_proof_indices():
    problem = problem_from_doc(_doc())
    assert problem.gold_answer == Answer.FALSE
    step = problem.gold_proof.steps[0]
    assert step.selection[1] == Statement("the cat eats the bald eagle")
    assert step.inference == Statement("the bald eagle is not kind")


def test_proof_indices_can_reference_prior_inferences():
    doc = _doc()
    doc["context"] = [
        "If something is kind then it likes the cow",
        "If something likes the cow then the cow is kind",
        "the tiger is kind",
    ]
    doc["question"] = 'Does it imply that the statement "The cow is kind" is True?'
    doc["answer"] = "True"
    doc["depth"] = 2
    doc["proof"] = [
        {"selection": [1, 3], "inference": "the tiger likes the cow"},
        {"selection": [2, 4], "inference": "the cow is kind"},
    ]
    problem = problem_from_doc(doc)
    assert problem.gold_proof.steps[1].selection[1] == Statement(
        "the tiger likes the cow"
    )


def test_proof_index_out_of_range():
    doc = _doc()
    doc["proof"] = [{"selection": [1, 9], "inference": "x"}]
    with pytest.raises(SchemaError):
        problem_from_doc(doc)


def test_missing_fields_raise_schema_errors():
    for field in ("id", "context", "question", "answer"):
        doc = _doc()
        del doc[field]
        with pytest.raises(SchemaError):
            problem_from_doc(doc)


def test_eb_problems_require_choices():
    """A problem with `choices` is multiple choice, so it needs two."""
    doc = _doc()
    doc["answer"] = "solid"
    for choices in ([], ["solid"]):
        doc["choices"] = choices
        with pytest.raises(SchemaError, match="at least 2 strings"):
            problem_from_doc(doc)
    doc["choices"] = ["solid", "gas"]
    assert problem_from_doc(doc).choices == ("solid", "gas")


@pytest.mark.parametrize("answer, choices, message", [
    ("true", None, "answer 'true' is not True, False or Unknown"),
    ("Yes", None, "answer 'Yes' is not True, False or Unknown"),
    ("banana", ["a spider", "a fly"], "answer 'banana' is none of the choices"),
    ("a fly", ["a spider", "a flea"], "answer 'a fly' is none of the choices"),
])
def test_a_gold_answer_outside_the_answer_set_is_a_schema_error(tmp_path, answer, choices,
                                                                message):
    """No solver can give such an answer, so every run would score it wrong."""
    doc = {**_doc(), "answer": answer}
    if choices is not None:
        doc["choices"] = choices
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_doc()) + "\n" + json.dumps({**doc, "id": "p2"}) + "\n")
    with pytest.raises(SchemaError, match=f"^line 2: {message}$") as err:
        load_problems(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("answer, line", [(True, 1), (False, 2), (1, 3), (None, 2)])
def test_a_gold_answer_that_is_not_a_string_is_a_schema_error(tmp_path, answer, line):
    """`"answer": true` is not read as True: every field is type-checked."""
    docs = [{**_doc(), "id": f"p{n}"} for n in range(1, 4)]
    docs[line - 1]["answer"] = answer
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    message = f"answer {answer!r} is not a string"
    with pytest.raises(SchemaError, match=f"^line {line}: {message}$") as err:
        load_problems(path)
    assert err.value.line_number == line


def test_a_multiple_choice_gold_answer_is_a_choice_however_it_reads(tmp_path):
    """The gold answer is the stripped choice, as the halter answers it,
    even when the choice reads "True"."""
    path = tmp_path / "mc.jsonl"
    docs = [{**_doc(), "id": "p1", "choices": ["True", "False"], "answer": "True"},
            {**_doc(), "id": "p2", "choices": ["gas ", "solid"], "answer": " gas "}]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert [p.gold_answer for p in load_problems(path)] == [
        Answer.of_choice("True"), Answer.of_choice("gas")
    ]


def test_load_problems_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(_doc())
    path.write_text(good + "\n{not json}\n")
    with pytest.raises(SchemaError) as err:
        load_problems(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("line", ["[1, 2]", '"the cat is big"', "7", "null"])
def test_a_line_that_is_not_an_object_is_a_schema_error_on_that_line(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_doc()) + "\n" + line + "\n")
    with pytest.raises(SchemaError, match="a problem is a JSON object, not") as err:
        load_problems(path)
    assert err.value.line_number == 2


def test_a_line_that_is_not_utf8_is_a_schema_error_on_that_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(json.dumps(_doc()).encode() + b"\n\xff\xfe\n")
    with pytest.raises(SchemaError, match="not UTF-8") as err:
        load_problems(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("key, value", [
    ("context", "abc"),
    ("context", [5]),
    ("context", ["the cat is big", None]),
    ("id", 1.5),
    ("id", True),
    ("id", None),
    ("question", 5),
    ("choices", "red OR blue"),
    ("choices", [1, 2]),
    ("depth", "3"),
    ("depth", True),
])
def test_mistyped_fields_raise_schema_errors(key, value):
    doc = _doc()
    doc[key] = value
    with pytest.raises(SchemaError, match=f"^{key} "):
        problem_from_doc(doc)


def test_mistyped_proof_steps_raise_schema_errors():
    for step in ({"selection": [1, 2], "inference": 5},
                 {"selection": [True, 2], "inference": "the bald eagle is not kind"},
                 {"selection": "12", "inference": "the bald eagle is not kind"}):
        doc = _doc()
        doc["proof"] = [step]
        with pytest.raises(SchemaError, match="^step 1: "):
            problem_from_doc(doc)


def _load_second_line(tmp_path, selection):
    """Load a file whose second line is `_doc()` with `selection` as its
    proof's one step."""
    step = {"selection": selection, "inference": "the bald eagle is not kind"}
    path = tmp_path / "proof.jsonl"
    path.write_text(json.dumps(dict(_doc(), id="p0")) + "\n"
                    + json.dumps(dict(_doc(), proof=[step])) + "\n")
    return load_problems(path)


@pytest.mark.parametrize("path, field", [
    (("context", 1), "context sentence 2"),
    (("question",), "question"),
    (("proof", 0, "inference"), "step 1: inference"),
])
def test_a_line_break_inside_a_prompt_line_is_a_schema_error(path, field):
    """Prompts are line-based, so a line break inside a context sentence,
    the question or a proof inference would break every selection prompt
    that holds it."""
    doc = _doc()
    *parents, key = path
    holder = doc
    for part in parents:
        holder = holder[part]
    holder[key] = holder[key].replace(" ", "\n", 1)
    with pytest.raises(SchemaError) as raised:
        problem_from_doc(doc)
    assert raised.value.reason.startswith(f"{field} ")
    assert raised.value.reason.endswith("has a line break")


@pytest.mark.parametrize("choices, bad", [
    (["red OR blue", "green"], "red OR blue"),
    (["red", "  "], "  "),
    (["red OR", "green"], "red OR"),
    (["red", "red"], "red"),
    (["red", "green", "red "], "red "),
])
def test_a_choice_the_halter_prompts_cannot_hold_is_a_schema_error(choices, bad):
    """The halter prompts join the choices with " OR " and split them there
    again, so a blank choice or one with the word "OR" would read back as
    other choices; and two equal choices tie in the oracle's match, so its
    halter could never be ready."""
    doc = {**_doc(), "choices": choices, "answer": choices[0]}
    with pytest.raises(SchemaError) as raised:
        problem_from_doc(doc)
    repeated = [c.strip() for c in choices].count(bad.strip()) > 1
    fault = "repeats an earlier choice" if repeated else "is blank or holds the word 'OR'"
    assert raised.value.reason == f"choice {bad!r} {fault}"


def test_a_step_that_selects_its_own_inference_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError) as err:
        _load_second_line(tmp_path, [1, 3])
    assert err.value.line_number == 2
    assert err.value.reason == (
        "step 1: selection index 3 references inference 1 which does not exist yet")


@pytest.mark.parametrize("index", [0, True])
def test_a_selection_index_below_one_is_a_schema_error(tmp_path, index):
    with pytest.raises(SchemaError) as err:
        _load_second_line(tmp_path, [1, index])
    assert err.value.line_number == 2
    assert err.value.reason == f"step 1: bad selection index {index!r}"


@pytest.mark.parametrize("depth", symbolic.DEPTHS)
def test_a_generated_gold_proof_reads_back_from_its_document(depth):
    """The stored proof keeps every step; it does not store the answer."""
    for problem in generate_problem_set(3, {depth: 3}):
        read = problem_from_doc(datasets.problem_to_doc(problem))
        assert read.gold_proof == replace(problem.gold_proof, answer=None)
        assert read == replace(problem, gold_proof=read.gold_proof)


def test_integer_ids_and_absent_options_load():
    doc = _doc()
    doc["id"] = 7
    del doc["depth"], doc["proof"]
    problem = problem_from_doc(doc)
    assert (problem.id, problem.depth, problem.gold_proof) == ("7", None, None)


def test_load_problems_rejects_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    first, other = json.dumps(_doc()), json.dumps(dict(_doc(), id="p2"))
    path.write_text(f"{first}\n{other}\n\n{first}\n")
    with pytest.raises(SchemaError) as err:
        load_problems(path)
    assert err.value.line_number == 4
    assert str(err.value) == "line 4: id 'p1' repeats the id on line 1"


_MUTATION_SET = generate_problem_set(5, {1: 2, 2: 2, 3: 2})
_MUTANT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=5), st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.text(max_size=5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers()),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_problem_files_fail_only_with_schema_errors(tmp_path_factory, data):
    """Drop a key, retype a value or repeat an id on one line of a generated
    set: the file loads, or SchemaError names that line."""
    docs = [datasets.problem_to_doc(p) for p in _MUTATION_SET]
    line = data.draw(st.integers(0, len(docs) - 1), label="line")
    doc = docs[line]
    mutation = data.draw(st.sampled_from(["drop", "retype", "repeat-id"]), label="mutation")
    if mutation == "repeat-id":
        line = data.draw(st.integers(1, len(docs) - 1), label="line")
        docs[line]["id"] = docs[data.draw(st.integers(0, line - 1), label="first")]["id"]
    else:
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        if mutation == "drop":
            del doc[key]
        else:
            doc[key] = data.draw(_MUTANT_VALUES, label="value")
    path = tmp_path_factory.mktemp("mutants") / "set.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    try:
        load_problems(path)
    except SchemaError as exc:
        assert exc.line_number == line + 1, str(exc)
    else:
        assert mutation != "repeat-id"


def test_save_load_round_trip(tmp_path, pw_problems):
    path = tmp_path / "round.jsonl"
    save_problems(pw_problems, path)
    loaded = load_problems(path)
    assert loaded == pw_problems
    # a second save is byte-identical
    path2 = tmp_path / "round2.jsonl"
    save_problems(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_multiple_choice_problems_round_trip(tmp_path, eb_problems):
    path = tmp_path / "round.jsonl"
    save_problems(eb_problems, path)
    assert all(json.loads(line)["choices"] for line in path.read_text().splitlines())
    assert load_problems(path) == eb_problems


def test_validate_problems_flags_broken_proofs():
    doc = _doc()
    doc["proof"] = [{"selection": [1, 2], "inference": "the bald eagle is kind"}]
    problem = problem_from_doc(doc)
    findings = validate_problems([problem])
    assert findings
    assert "p1" in findings[0]


def test_validate_problems_flags_text_outside_the_grammar():
    doc = _doc()
    doc["context"].append("colourless green ideas sleep furiously")
    doc["question"] = "Is the bald eagle kind?"
    assert validate_problems([problem_from_doc(doc)]) == [
        "p1: sent 3 is outside the grammar: 'colourless green ideas sleep furiously'",
        "p1: question is outside the grammar",
    ]
    doc["choices"], doc["answer"] = ["kind", "not kind"], "kind"
    assert validate_problems([problem_from_doc(doc)]) == []


_TERMS = st.sampled_from(symbolic._ENTITIES).map(cnl.const)
_GROUND_ATOMS = st.one_of(
    st.builds(cnl.Atom, st.sampled_from(symbolic._ADJECTIVES), _TERMS, st.none(), st.booleans()),
    st.builds(cnl.Atom, st.sampled_from(tuple(cnl.VERBS)), _TERMS, _TERMS, st.booleans()),
)
_RULE_ATOMS = _GROUND_ATOMS.map(lambda a: cnl.Atom(a.predicate, cnl.VAR, a.obj, a.negated))
_INFERENCES = st.one_of(
    _GROUND_ATOMS.map(cnl.render_atom),
    st.builds(
        lambda body, head: cnl.render_rule((body,), head, "something"), _RULE_ATOMS, _RULE_ATOMS
    ),
    st.just(symbolic.NOTHING_FOLLOWS),
    # Free text with at least one letter, so that it is a statement.
    st.tuples(st.text(max_size=20), st.from_regex(r"[A-Za-z]+", fullmatch=True),
              st.text(max_size=20)).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_judging_a_mutated_proof_never_raises(data):
    """Any in-range selection and any inference, in or out of the grammar,
    under any gold answer: `validate_problems` lists findings and raises
    nothing.  A free-text inference with a line break inside it does not
    load: `problem_from_doc` raises SchemaError naming its step."""
    doc = datasets.problem_to_doc(data.draw(st.sampled_from(_MUTATION_SET), label="problem"))
    size = len(doc["context"])
    broken = []
    for k, step in enumerate(doc["proof"]):
        if data.draw(st.booleans()):
            step["selection"] = data.draw(
                st.lists(st.integers(1, size + k), min_size=1, max_size=3), label="selection"
            )
        if data.draw(st.booleans()):
            step["inference"] = data.draw(_INFERENCES, label="inference")
            if "\n" in strip_period(step["inference"]):
                broken.append(k + 1)
    doc["answer"] = data.draw(st.sampled_from(["True", "False", "Unknown"]), label="answer")
    if broken:
        with pytest.raises(SchemaError) as err:
            problem_from_doc(doc)
        assert err.value.reason.startswith(f"step {broken[0]}: inference ")
        return
    findings = validate_problems([problem_from_doc(doc)])
    assert isinstance(findings, list)
    assert all(isinstance(f, str) and f.startswith("gen-") for f in findings)


def test_generate_problem_set_is_deterministic():
    a = generate_problem_set(3, {1: 2, 3: 2})
    b = generate_problem_set(3, {1: 2, 3: 2})
    assert a == b
    assert [p.id for p in a] == [
        "gen-d1-s3-0", "gen-d1-s3-1", "gen-d3-s3-0", "gen-d3-s3-1",
    ]
    assert validate_problems(a) == []
    assert a != generate_problem_set(4, {1: 2, 3: 2})


def test_extract_si_pairs_targets():
    problem = problem_from_doc(_doc())
    pairs = extract_si_pairs(problem)
    assert [p.role for p in pairs] == [
        GeneratorRole.SELECTION,
        GeneratorRole.INFERENCE,
    ]
    sel, inf = pairs
    assert sel.target == " sent 1. We know that sent 2."
    assert sel.input.endswith("Selection:")
    assert inf.input == (
        "If someone eats the bald eagle then the bald eagle is not kind. "
        "We know that the cat eats the bald eagle. Therefore,"
    )
    assert inf.target == " the bald eagle is not kind."


def test_extract_si_pairs_single_premise_target():
    doc = _doc()
    doc["proof"] = [{"selection": [2], "inference": "the cat eats the bald eagle"}]
    pairs = extract_si_pairs(problem_from_doc(doc))
    assert pairs[0].target == " sent 2."


def test_extract_halter_pairs_implication():
    problem = problem_from_doc(_doc())
    pairs = extract_halter_pairs(problem)
    assert len(pairs) == 1
    assert pairs[0].role == GeneratorRole.HALTER_READY
    assert pairs[0].input == (
        "Given the bald eagle is not kind. "
        'Does it imply that the statement "The bald eagle is kind" is True?'
    )
    assert pairs[0].target == " False"


def test_extract_halter_pairs_intermediate_steps_say_unknown():
    doc = _doc()
    doc["context"] = [
        "If something is kind then it likes the cow",
        "If something likes the cow then the cow is kind",
        "the tiger is kind",
    ]
    doc["question"] = 'Does it imply that the statement "The cow is kind" is True?'
    doc["answer"] = "True"
    doc["proof"] = [
        {"selection": [1, 3], "inference": "the tiger likes the cow"},
        {"selection": [2, 4], "inference": "the cow is kind"},
    ]
    pairs = extract_halter_pairs(problem_from_doc(doc))
    assert [p.target for p in pairs] == [" Unknown", " True"]


def test_extract_halter_pairs_multi_choice(eb_problems):
    ice = next(p for p in eb_problems if p.id == "eb-d1-ice-cube")
    pairs = extract_halter_pairs(ice)
    ready = [p for p in pairs if p.role == GeneratorRole.HALTER_READY]
    answer = [p for p in pairs if p.role == GeneratorRole.HALTER_ANSWER]
    assert [p.target for p in ready] == [" Yes."]
    assert ready[0].input == (
        "Question:Which word best describes the physical state of an ice cube?"
        " gas OR solid OR liquid OR plasma. "
        "Given an ice cube is solid in its physical state. Do you know the answer?"
    )
    assert len(answer) == 1
    assert answer[0].target == " solid"
    assert answer[0].input == (
        "Given an ice cube is solid in its physical state. "
        "Which of the following most closely matches:"
        " gas OR solid OR liquid OR plasma? Answer:"
    )


def test_extract_value_pairs_alternate_targets():
    problems = generate_problem_set(11, {3: 3})
    for problem in problems:
        report = ValueExtractionReport()
        pairs = extract_value_pairs(problem, seed=5, report=report)
        targets = [p.target for p in pairs]
        assert targets.count(CORRECT) == len(problem.gold_proof.steps)
        # each prefix yields a positive, and usually a corrupted sibling
        assert set(targets) <= {CORRECT, INCORRECT}
        assert (
            targets.count(INCORRECT)
            + report.collisions
            + report.corruption_impossible
            == len(problem.gold_proof.steps)
        )


def test_a_selection_of_the_whole_context_cannot_be_corrupted():
    problem = problem_from_doc({
        "id": "whole", "context": ["the cat is red", "If something is red then it is kind"],
        "question": 'Does it imply that the statement "The cat is kind" is True?',
        "answer": "True", "proof": [{"selection": [2, 1], "inference": "the cat is kind"}],
    })
    report = ValueExtractionReport()
    pairs = extract_value_pairs(problem, seed=0, report=report)
    assert [p.target for p in pairs] == [CORRECT]
    assert (report.corruption_impossible, report.collisions) == (1, 0)


def test_a_corruption_on_the_gold_path_is_a_counted_collision():
    """The one other sentence restates the rule: put in the rule's place it
    infers the gold step again (a collision, dropped), and in the fact's
    place it infers nothing (a negative pair)."""
    problem = problem_from_doc({
        "id": "restated",
        "context": ["If something is red then it is kind", "the cat is red",
                    "If someone is red then it is kind"],
        "question": 'Does it imply that the statement "The cat is kind" is True?',
        "answer": "True", "proof": [{"selection": [1, 2], "inference": "the cat is kind"}],
    })
    outcomes = set()
    for seed in range(8):
        report = ValueExtractionReport()
        targets = [p.target for p in extract_value_pairs(problem, seed, report)]
        assert report.corruption_impossible == 0
        assert targets in ([CORRECT], [CORRECT, INCORRECT])
        assert report.collisions == (targets == [CORRECT])
        outcomes.add(report.collisions)
    assert outcomes == {0, 1}


def test_extract_value_pairs_deterministic():
    problem = generate_problem_set(13, {3: 1})[0]
    a = extract_value_pairs(problem, seed=2)
    b = extract_value_pairs(problem, seed=2)
    assert a == b
    assert a != extract_value_pairs(problem, seed=3)


def test_extract_value_pairs_empty_without_proof():
    problem = problem_from_doc({k: v for k, v in _doc().items() if k != "proof"})
    assert extract_value_pairs(problem, seed=0) == []


def test_save_training_pairs_jsonl(tmp_path):
    problem = problem_from_doc(_doc())
    pairs = extract_si_pairs(problem)
    path = tmp_path / "pairs.jsonl"
    datasets.save_training_pairs(pairs, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(pairs)
    first = json.loads(lines[0])
    assert first["role"] == "selection"
    assert first["target"] == " sent 1. We know that sent 2."


# ---------------------------------------------------------------------------
# Train/serve agreement: a pair's input is the prompt the engine sends.
# ---------------------------------------------------------------------------

class _Recorder:
    """Passes requests on to a backend and keeps each prompt under its role
    and step; a step ends with its halter-ready request, and a request
    repeated within a step (a second proposal) must carry the same prompt."""

    def __init__(self, backend, sent: dict) -> None:
        self._backend = backend
        self._sent = sent

    def complete(self, request):
        step = sum(1 for role, _ in self._sent if role is GeneratorRole.HALTER_READY)
        if request.role is GeneratorRole.HALTER_ANSWER:
            step -= 1
        key = (request.role, step)
        recorded = self._sent.setdefault(key, request.prompt)
        assert recorded == request.prompt, f"two {key} requests with different prompts"
        return self._backend.complete(request)


def _replay(problem, pairs, search: str):
    """Solve `problem` with the pairs' selection and inference targets as the
    scripted completions and the oracle halter; (trace, prompts sent).

    The beam replay proposes twice per step, so the value role is called:
    each target is scripted twice, both proposals replay the gold step and
    the dedup keeps one."""
    copies = 1 if search == "greedy" else 2
    script = {
        role: [p.target for p in pairs if p.role is role for _ in range(copies)]
        for role in (GeneratorRole.SELECTION, GeneratorRole.INFERENCE)
    }
    # The oracle's value role judges only True/False/Unknown proofs.
    if problem.choices is not None:
        script[GeneratorRole.VALUE] = [CORRECT] * len(problem.gold_proof.steps)
    sent: dict = {}
    backend = _Recorder(ScriptedBackend(base=OracleBackend(), script=script), sent)
    if search == "greedy":
        answer, trace = engine.si_answer(problem, backend)
    else:
        cfg = engine.BeamConfig(beam_width=1, proposals_per_trace=2)
        answer, trace, _ = engine.beam_search(problem, backend, cfg)
    assert answer == problem.gold_answer, problem.id
    return trace, sent


def _assert_pairs_match_engine_prompts(problem):
    pairs = (
        extract_si_pairs(problem)
        + extract_halter_pairs(problem)
        + [p for p in extract_value_pairs(problem, seed=0) if p.target == CORRECT]
    )
    gold = [(s.selection_labels, s.inference) for s in problem.gold_proof.steps]
    for search in ("greedy", "beam"):
        trace, sent = _replay(problem, pairs, search)
        taken = [(s.selection_labels, s.inference) for s in trace.steps]
        # The multiple-choice halter may answer before the proof's last step.
        assert taken == gold[: len(taken)], problem.id
        if problem.choices is None:
            assert len(taken) == len(gold), problem.id
        for pair in pairs:
            if pair.role is GeneratorRole.VALUE and search == "greedy":
                continue
            key = (pair.role, pair.step_index)
            if key in sent:
                assert pair.input == sent[key], (problem.id, search, key)
            else:  # the engine halted before this step
                assert pair.step_index >= len(trace.steps), (problem.id, search, key)
    # The oracle's halter answers each halter pair's input with its target,
    # but for one step.  A multiple-choice ready target says " No." until
    # the gold proof's last step, while the oracle is ready as soon as one
    # choice overlaps the inference best: on eb-d2-runway, the first of two
    # steps.  The prompt does not carry the proof's length, so no reader of
    # it can give both.
    oracle = OracleBackend()
    disagree = [
        (pair.step_index, pair.target, answer)
        for pair in pairs
        if pair.role in (GeneratorRole.HALTER_READY, GeneratorRole.HALTER_ANSWER)
        and (answer := oracle.complete(CompletionRequest(pair.role, pair.input)).text)
        != pair.target
    ]
    assert disagree == ([(0, " No.", " Yes.")] if problem.id == "eb-d2-runway" else [])


# (role, step) of the pairs whose input the greedy oracle never sends, or
# answers otherwise, because it proves the question another way than the
# gold proof: from the first step on pw-top-3, from the fourth on pw-worst-3.
_ALTERNATE_PROOF = {
    "pw-top-3": [("selection", 0), ("selection", 1), ("selection", 2),
                 ("selection", 3), ("selection", 4), ("inference", 4),
                 ("selection", 5)],
    "pw-worst-3": [("selection", 3), ("selection", 4), ("inference", 4),
                   ("selection", 5)],
}


@pytest.mark.parametrize("fixture", ["pw_problems", "pw_worst_problems"])
def test_greedy_oracle_answers_each_pair_input_with_its_target(fixture, request):
    """Each selection, inference and halter pair's input is a prompt the
    engine sends when it solves greedily with the oracle, and the oracle
    answers it with the pair's target: the training pairs and the oracle
    write a selection's labels in one order.  Each target reads back, with
    its role's reader, as the value its pair encodes, and so does the
    oracle's reply to each value pair's input."""
    for problem in request.getfixturevalue(fixture):
        oracle = OracleBackend()
        answers: dict = {}

        class Recording:
            def complete(self, req):
                response = oracle.complete(req)
                answers.setdefault((req.role, req.prompt), response.text)
                return response

        answer, _ = engine.si_answer(problem, Recording())
        assert answer == problem.gold_answer, problem.id
        differ = [
            (pair.role.value, pair.step_index)
            for pair in extract_si_pairs(problem) + extract_halter_pairs(problem)
            if answers.get((pair.role, pair.input)) != pair.target
        ]
        assert differ == _ALTERNATE_PROOF.get(problem.id, []), problem.id
        assert _misread_targets(problem) == [], problem.id
        values = extract_value_pairs(problem, seed=0)
        assert [
            models.read_value(oracle.complete(CompletionRequest(
                GeneratorRole.VALUE, pair.input, scored_continuations=(CORRECT, INCORRECT))))
            for pair in values
        ] == [0.0 if pair.target == CORRECT else CERTAIN_BAD for pair in values], problem.id


def _misread_targets(problem) -> list[tuple[str, int]]:
    """(role, step) of each selection, inference and halter pair whose
    target, read with its role's reader, is not the value the pair encodes:
    the step's labels in selection order, its inference, and the halter's
    verdict (None before the last step), readiness or choice."""
    steps = problem.gold_proof.steps
    wrong = []
    for pair in extract_si_pairs(problem) + extract_halter_pairs(problem):
        k, last = pair.step_index, pair.step_index == len(steps) - 1
        if pair.role is GeneratorRole.SELECTION:
            read = models.read_selection(pair.target, len(problem.context) + k)
            want = selection_order(steps[k].selection_labels)
        elif pair.role is GeneratorRole.INFERENCE:
            read, want = models.read_inference(pair.target).surface, steps[k].inference.surface
        elif pair.role is GeneratorRole.HALTER_ANSWER:
            read, want = models.read_answer(pair.target, problem.choices), problem.gold_answer
        elif problem.choices is None:
            read, want = models.read_verdict(pair.target), problem.gold_answer if last else None
        else:
            read, want = models.read_ready(pair.target), last
        if read != want:
            wrong.append((pair.role.value, k))
    return wrong


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2, 3, 5]))
def test_training_pairs_equal_engine_prompts_pw(seed, depth):
    (problem,) = generate_problem_set(seed, {depth: 1})
    _assert_pairs_match_engine_prompts(problem)


@pytest.mark.parametrize("pid", ["eb-d1-fly", "eb-d1-ice-cube", "eb-d2-runway"])
def test_training_pairs_equal_engine_prompts_eb(eb_problems, pid):
    problem = next(p for p in eb_problems if p.id == pid)
    _assert_pairs_match_engine_prompts(problem)
    # The multiple-choice readiness and answer targets read back too.
    assert _misread_targets(problem) == []
