import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st
from worlds import context_of, worlds

from sireason import cnl, engine, evalcli, models, symbolic
from sireason.core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    append_step_text,
    parse_trace_text,
    render_trace,
)
from sireason.engine import (
    BeamConfig,
    SolveStats,
    beam_search,
    selection_step,
    si_answer,
)
from sireason.models import GeneratorRole, OracleBackend, ScriptedBackend
from sireason.datasets import Problem, generate_problem_set



def _problem(context, question, answer="True", choices=None):
    return Problem(
        id="test",
        context=LabeledContext.from_statements(context),
        question=question,
        choices=choices,
        gold_answer=Answer.parse(answer) if choices is None else Answer.of_choice(answer),
    )


WORST_1 = _problem(
    [
        "If something is kind then it likes the cow",
        "If something likes the cow then the cow is kind",
        "the cow is big",
        "the mouse eats the bear",
        "the tiger is kind",
        "the bear visits the tiger",
    ],
    'Does it imply that the statement "The cow likes the cow" is True?',
    "True",
)


def test_selection_step_parses_labels():
    ctx = WORST_1.context
    script = {GeneratorRole.SELECTION: [" sent 1. We know that sent 5."]}
    backend = ScriptedBackend(script=script)
    [(selection, labels)] = selection_step(WORST_1.question, ctx, backend, SolveStats())
    assert labels == [1, 5]
    assert selection[1] == Statement("the tiger is kind")


def test_selection_step_dedups_repeated_labels():
    ctx = WORST_1.context
    script = {GeneratorRole.SELECTION: [" sent 1. We know that sent 5 and sent 5."]}
    [(selection, labels)] = selection_step(
        WORST_1.question, ctx, ScriptedBackend(script=script), SolveStats()
    )
    assert labels == [1, 5]
    assert len(selection) == 2


@pytest.mark.parametrize("raw, indices", [
    (" absent 3.", None),
    (" consent 12", None),
    (" The cat is absent 3 times.", None),
    (" sent 2. We know that sent 10.", [2, 10]),
])
def test_a_label_is_a_whole_word(raw, indices):
    assert models.read_selection(raw, 12) == indices


class _Replies:
    """A backend that answers every request with the same samples."""

    def __init__(self, samples: tuple) -> None:
        self.samples = samples

    def complete(self, request):
        return models.CompletionResponse(self.samples)


@pytest.mark.parametrize("samples, errors", [
    # A reply with fewer samples than asked, as the oracle's exhausted walk
    # gives: the sample was not given, so it is no error.
    pytest.param((), 0, id="not-given"),
    # An empty string is a sample like any other, whatever `n` is.
    pytest.param(("",), 1, id="empty"),
    *(pytest.param((bad,), 1, id=bad)
      for bad in (" no labels here", " sent 99. We know that sent 1.", " sent zero",
                  " absent 3.")),
])
def test_selection_step_rejects_malformed_output(samples, errors):
    stats = SolveStats()
    backend = _Replies(samples)
    assert selection_step(WORST_1.question, WORST_1.context, backend, stats) == []
    assert stats.selection_syntax_errors == errors
    assert stats.selection_calls == 1


def test_an_empty_context_sends_no_selection_request():
    """Nothing to select: no request, no proposal, and a search that ends
    with Unknown and no steps."""
    empty = _problem([], WORST_1.question, "Unknown")
    stats = SolveStats()
    backend = ScriptedBackend()  # any request would raise ScriptExhausted
    assert selection_step(empty.question, empty.context, backend, stats, n=4) == []
    assert (stats.selection_calls, stats.selection_syntax_errors) == (0, 0)
    for cfg in (BeamConfig(1, 1), BeamConfig(2, 4)):
        answer, trace, _ = beam_search(empty, backend, cfg, stats)
        assert answer == Answer.UNKNOWN and trace.steps == () and trace.halted
    assert stats.notes == [] and stats.selection_calls == 0


def test_si_answer_oracle_solves_and_traces():
    answer, trace = si_answer(WORST_1, OracleBackend())
    assert answer == Answer.TRUE
    assert trace.halted
    assert trace.answer == Answer.TRUE
    assert len(trace.steps) == 3
    assert symbolic.trace_faults(trace) == []


def test_si_answer_halts_early_on_single_step():
    problem = _problem(
        [
            "If someone eats the bald eagle then the bald eagle is not kind",
            "the cat eats the bald eagle",
        ],
        'Does it imply that the statement "The bald eagle is kind" is True?',
        "False",
    )
    answer, trace = si_answer(problem, OracleBackend())
    assert answer == Answer.FALSE
    assert len(trace.steps) == 1


def test_one_fact_covers_a_repeated_condition():
    """Grounded for the wolf, the rule's two conditions are one fact: the
    closure, the proof, the oracle's selection and the reference inference
    all read that fact once."""
    problem = _problem(
        ["the wolf is big", "If the wolf is big and something is big then it is kind"],
        'Does it imply that the statement "The wolf is kind" is True?',
    )
    fact, rule = problem.context.statements()
    kind = Statement("the wolf is kind")
    world = symbolic.closure(problem.context)
    proof = symbolic.shortest_proof(world, cnl.parse_question(problem.question))
    assert [(s.selection_labels, s.inference) for s in proof.steps] == [
        ((2, 1), kind)
    ]
    prompt = models.format_selection_prompt(problem.question, problem.context)
    walk = OracleBackend()._selection_candidates(prompt)
    assert tuple(walk) == (" sent 2. We know that sent 1.",)
    assert symbolic.entail_step([rule, fact]) == kind
    # Naming the fact once per condition reads the same; more facts than
    # conditions are no instance.
    assert symbolic.entail_step([rule, fact, fact]) == kind
    with pytest.raises(symbolic.NoEntailment):
        symbolic.entail_step([Statement("If something is big then it is kind"), fact, fact])

    stats = SolveStats()
    answer, trace = si_answer(problem, OracleBackend(), stats=stats)
    assert answer == Answer.TRUE == problem.gold_answer
    assert [s.inference for s in trace.steps] == [kind]
    assert symbolic.trace_faults(trace) == []


def test_si_answer_unknown_on_selection_garbage():
    stats = SolveStats()
    backend = ScriptedBackend(
        base=OracleBackend(),
        script={GeneratorRole.SELECTION: ["complete nonsense"]},
    )
    answer, trace = si_answer(WORST_1, backend, stats=stats)
    assert answer.is_unknown
    assert trace.halted
    assert trace.steps == ()
    assert stats.selection_syntax_errors == 1


def test_si_answer_unknown_when_out_of_steps():
    answer, trace = si_answer(WORST_1, OracleBackend(), max_steps=2)
    assert answer.is_unknown
    assert len(trace.steps) == 2


def test_si_answer_multi_choice(eb_problems):
    ice = next(p for p in eb_problems if p.id == "eb-d1-ice-cube")
    script = {
        GeneratorRole.SELECTION: [" sent 1. We know that sent 2."],
        GeneratorRole.INFERENCE: [" an ice cube is solid in its physical state."],
    }
    # the scripted queues answer selection and inference, the oracle halts
    backend = ScriptedBackend(base=OracleBackend(), script=script)
    answer, trace = si_answer(ice, backend)
    assert answer == Answer.of_choice("solid")
    assert len(trace.steps) == 1


@pytest.mark.parametrize("reply, choices, expected, notes", [
    ("", ("gas", "solid"), Answer.UNKNOWN,
     ["test: backend: answer '' is none of the choices"]),
    (" banana", ("gas", "solid"), Answer.UNKNOWN,
     ["test: backend: answer 'banana' is none of the choices"]),
    (" gas", ("gas", "solid"), Answer.of_choice("gas"), []),
    (" gas ", ("gas ", "solid"), Answer.of_choice("gas"), []),
], ids=["empty", "banana", "gas", "padded-choice"])
def test_a_multiple_choice_answer_must_be_one_of_the_choices(reply, choices, expected, notes):
    """An answer that names none of the choices is a counted backend
    failure, and its step is dropped; a matching one ends the search,
    whatever spaces pad the choice."""
    problem = _problem(
        ["If something is hot then it is a gas", "the steam is hot"],
        "Which state is the steam in? gas OR solid", "gas", choices=choices,
    )
    script = {
        GeneratorRole.SELECTION: [" sent 1. We know that sent 2."],
        GeneratorRole.INFERENCE: [" the steam is a gas."],
        GeneratorRole.HALTER_READY: [" Yes."],
        GeneratorRole.HALTER_ANSWER: [reply],
    }
    stats = SolveStats()
    answer, trace = si_answer(problem, ScriptedBackend(script=script), stats=stats)
    assert answer == expected
    assert stats.notes == notes
    assert len(trace.steps) == (0 if notes else 1)


@pytest.mark.parametrize("reply, expected", [
    (" True.", Answer.TRUE),
    (" False.", Answer.FALSE),
    (" Unknown.", None),
], ids=["true", "false", "unknown"])
def test_a_halter_answer_may_end_in_a_period(reply, expected):
    """The True/False/Unknown halter's reply is read as the readiness reply
    is, less its trailing periods: True and False halt, Unknown reasons on."""
    problem = generate_problem_set(7, {1: 1})[0]  # gen-d1-s7-0
    backend = ScriptedBackend(base=OracleBackend(),
                              script={GeneratorRole.HALTER_READY: [reply]})
    stats = SolveStats()
    _, _, [entry] = beam_search(problem, backend, BeamConfig(1, 1, max_steps=1), stats)
    assert len(entry.trace.steps) == 1 and stats.notes == []
    assert entry.trace.answer == expected


class _FailingBackend:
    """Fails the halter roles and passes the rest on to `base`."""

    def __init__(self, base) -> None:
        self._base = base

    def complete(self, request):
        if request.role in (GeneratorRole.HALTER_READY, GeneratorRole.HALTER_ANSWER):
            raise models.BackendError(f"{request.role.value} down")
        return self._base.complete(request)


def test_si_answer_drops_a_step_whose_halter_call_failed():
    stats = SolveStats()
    answer, trace = si_answer(WORST_1, _FailingBackend(OracleBackend()), stats=stats)
    assert answer.is_unknown
    assert trace.halted and trace.steps == ()
    assert stats.backend_failures == 1
    assert stats.notes == ["test: backend: halter_ready down"]


class _NoSample:
    """Answers `role` with no sample and passes the rest on to `base`."""

    def __init__(self, base, role) -> None:
        self._base = base
        self._role = role

    def complete(self, request):
        if request.role is self._role:
            return models.CompletionResponse(())
        return self._base.complete(request)


@pytest.mark.parametrize("role, choices", [
    (GeneratorRole.INFERENCE, None),
    (GeneratorRole.HALTER_READY, None),
    (GeneratorRole.INFERENCE, ("gas", "solid")),
    (GeneratorRole.HALTER_READY, ("gas", "solid")),
    (GeneratorRole.HALTER_ANSWER, ("gas", "solid")),
], ids=["inference", "halter_ready", "mc-inference", "mc-halter_ready", "mc-halter_answer"])
def test_a_reply_with_no_sample_is_a_counted_failure(role, choices):
    """A single-sample request answered with no sample failed: its step is
    dropped and the failure counted, rather than read as "nothing follows"
    or as "not ready"."""
    if choices is None:
        problem, base = WORST_1, OracleBackend()
    else:
        problem = _problem(
            ["If something is hot then it is a gas", "the steam is hot"],
            "Which state is the steam in? gas OR solid", "gas", choices=choices,
        )
        base = ScriptedBackend(script={
            GeneratorRole.SELECTION: [" sent 1. We know that sent 2."],
            GeneratorRole.INFERENCE: [" the steam is a gas."],
            GeneratorRole.HALTER_READY: [" Yes."],
            GeneratorRole.HALTER_ANSWER: [" gas"],
        })
    stats = SolveStats()
    answer, trace = si_answer(problem, _NoSample(base, role), stats=stats)
    assert answer.is_unknown and trace.steps == ()
    assert stats.notes == [f"test: backend: {role.value} reply has no sample"]


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=4, proposals_per_trace=2)
    with pytest.raises(ValueError):
        BeamConfig(max_steps=0)
    # A solver config is a beam config, checked as it is built.
    with pytest.raises(ValueError, match="need 1 <= beam_width <= proposals_per_trace"):
        evalcli.SolverConfig(beam_width=4, proposals_per_trace=2)


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["oracle", "noisy"])
def test_a_trace_scores_the_sum_of_its_value_scores(pw_problems, noise):
    """Each entry's score is its steps' value scores added in step order."""
    scored = 0
    for problem in pw_problems:
        backend = ScriptedBackend(base=OracleBackend(), noise_rate=noise, seed=11)
        _, _, entries = beam_search(problem, backend, BeamConfig(4, 4))
        for entry in entries:
            total = 0.0
            for step in entry.trace.steps:
                total += step.value_score
            assert entry.cumulative_score == total
            scored += len(entry.trace.steps)
    assert scored > len(pw_problems)


@pytest.mark.parametrize("width", [1, 4])
def test_a_solver_config_searches_as_its_beam_config(pw_problems, width):
    """Its backend fields aside, a solver config is the beam config of its
    three search settings: same answer, trace and entries."""
    solver_cfg = evalcli.SolverConfig(beam_width=width, proposals_per_trace=width,
                                      max_steps=6, backend="scripted", noise_rate=0.3)
    beam_cfg = BeamConfig(width, width, 6)
    for problem in pw_problems:
        runs = [beam_search(problem, ScriptedBackend(base=OracleBackend(),
                                                     noise_rate=0.3, seed=11), cfg)
                for cfg in (solver_cfg, beam_cfg)]
        assert runs[0] == runs[1]


def test_every_sentence_label_is_a_plain_int():
    """A label is its 1-based position: gold proofs, searched traces,
    contexts, closures, derivations and proof steps all hold bare ints."""
    labels = []
    for problem in generate_problem_set(7, {1: 2, 2: 2, 3: 2, 5: 2}):
        backend = ScriptedBackend(base=OracleBackend(), noise_rate=0.3, seed=11)
        _, _, entries = beam_search(problem, backend, BeamConfig(4, 4))
        for trace in [problem.gold_proof] + [entry.trace for entry in entries]:
            labels.extend(l for step in trace.steps for l in step.selection_labels)
        labels.extend(label for label, _ in problem.context)
        world = symbolic.closure(problem.context)
        labels.extend(world.fact_labels.values())
        labels.extend(p.rule_label for p in world.derived.values() if p.premises)
        target = symbolic.proof_target(world, cnl.parse_question(problem.question))
        for _, step_labels in symbolic.proof_steps(world, target):
            labels.extend(step_labels)
    assert labels and all(type(label) is int for label in labels)


def test_beam_search_matches_oracle_greedy(pw_problems):
    cfg = BeamConfig(beam_width=2, proposals_per_trace=2, max_steps=10)
    for problem in pw_problems[:4]:
        answer, trace, entries = beam_search(problem, OracleBackend(), cfg)
        assert answer == problem.gold_answer
        assert trace.halted
        assert symbolic.trace_faults(trace) == []
        assert entries  # the returned pool is never empty on success


def test_beam_search_scores_steps_with_value_function():
    cfg = BeamConfig(beam_width=2, proposals_per_trace=2)
    answer, trace, _ = beam_search(WORST_1, OracleBackend(), cfg)
    assert answer == Answer.TRUE
    assert all(step.value_score is not None for step in trace.steps)
    # on-path steps score as certainly correct
    assert all(step.value_score == models.CERTAIN_GOOD for step in trace.steps)


def test_beam_search_recovers_from_noise():
    # with noise rate 0.5 the greedy run goes off-path for this seed while
    # the beam finds the proof; both are deterministic given the seed
    noisy = lambda: ScriptedBackend(base=OracleBackend(), noise_rate=0.5, seed=3)
    cfg = BeamConfig(beam_width=4, proposals_per_trace=4, max_steps=4)
    answer, trace, _ = beam_search(WORST_1, noisy(), cfg)
    assert answer == Answer.TRUE
    again, _, _ = beam_search(WORST_1, noisy(), cfg)
    assert again == answer


@pytest.mark.parametrize("cfg, noise", [
    (BeamConfig(1, 1), 0.0),
    (BeamConfig(4, 4), 0.3),
], ids=["greedy", "noisy-4x4"])
def test_beam_entries_carry_their_rendered_text(pw_problems, cfg, noise):
    """Each entry's text, written one step at a time, is its trace rendered."""
    steps = 0
    for problem in pw_problems:
        backend = ScriptedBackend(base=OracleBackend(), noise_rate=noise, seed=11)
        _, _, entries = beam_search(problem, backend, cfg)
        assert entries
        for entry in entries:
            assert entry.text == render_trace(entry.trace)
            steps += len(entry.trace.steps)
    assert steps > len(pw_problems)


def test_beam_search_unknown_when_nothing_halts():
    # a selection script that immediately exhausts leaves nothing to expand
    backend = ScriptedBackend(
        base=OracleBackend(), script={GeneratorRole.SELECTION: ["", "", "", ""]}
    )
    cfg = BeamConfig(beam_width=2, proposals_per_trace=2, max_steps=3)
    answer, trace, _ = beam_search(WORST_1, backend, cfg)
    assert answer.is_unknown
    assert trace.halted


def _expand_until_every_trace_halts(problem, backend, cfg, stats):
    """The reference search: `beam_search` without either stop at a halted
    candidate, expanding every live trace of each step until every trace
    has halted or the step cap is reached."""
    ranked = cfg.proposals_per_trace > 1
    value_head = models.value_prompt_head(problem.context, problem.question) if ranked else ""
    entries = [engine.BeamEntry(ReasoningTrace(problem.context), problem.context)]
    for _ in range(cfg.max_steps):
        if all(e.trace.halted for e in entries):
            break
        pool = [e for e in entries if e.trace.halted]
        for entry in entries:
            if entry.trace.halted:
                continue
            try:
                proposals = selection_step(problem.question, entry.context, backend, stats,
                                           cfg.proposals_per_trace)
            except models.BackendError as exc:
                stats.backend_failure(f"{problem.id}: selection backend: {exc}")
                proposals = []
            candidates, seen = [], set()
            for selection, labels in proposals:
                try:
                    inference = engine._infer(selection, backend)
                except models.BackendError as exc:
                    stats.backend_failure(f"{problem.id}: backend: {exc}")
                    continue
                if ranked:
                    sig = (frozenset(labels), inference.key)
                    if sig in seen:
                        continue
                    seen.add(sig)
                candidates.append(ReasoningStep(tuple(selection), inference, tuple(labels)))
            for step in candidates:
                score = entry.cumulative_score
                text = append_step_text(entry.text, step)
                try:
                    if ranked:
                        value = engine._value_score(value_head, text, backend)
                        step = ReasoningStep(step.selection, step.inference,
                                             step.selection_labels, value)
                        score += value
                    maybe = engine._halt_check(problem.question, problem.choices,
                                               step.inference, backend)
                except models.BackendError as exc:
                    stats.backend_failure(f"{problem.id}: backend: {exc}")
                    continue
                pool.append(engine.BeamEntry(
                    ReasoningTrace(problem.context, entry.trace.steps + (step,), maybe),
                    entry.context.extended(step.inference), score, text))
        if not pool:
            break
        pool.sort(key=engine._rank_key)
        entries = pool[: cfg.beam_width]
    halted = [e for e in entries if e.trace.halted]
    if halted:
        return halted[0].trace.answer, halted[0].trace
    trace = entries[0].trace
    return Answer.UNKNOWN, ReasoningTrace(trace.base_context, trace.steps, Answer.UNKNOWN)


@pytest.mark.parametrize("cfg, noise, seed", [
    (BeamConfig(4, 4), 0.3, 11),
    (BeamConfig(2, 4), 0.5, 3),
    (BeamConfig(4, 4), 0.0, 0),
], ids=["noisy-4x4", "noisier-2x4", "oracle-4x4"])
def test_stopping_at_a_halted_leader_changes_no_result(
    pw_problems, pw_worst_problems, cfg, noise, seed
):
    """Both stops at a halted candidate, ending the search once a halted
    trace leads the beam and ending a step's expansion once every entry
    left scores below a halted extension, return what expanding until
    every trace halts returns: the same answer, trace, value scores and
    failure notes, for no more selection requests."""
    problems = generate_problem_set(13, {1: 10, 2: 10, 3: 10, 5: 10})
    fewer = 0
    for problem in problems + pw_problems + pw_worst_problems:
        runs = []
        for search in (_expand_until_every_trace_halts,
                       lambda *args: beam_search(*args)[:2]):
            stats = SolveStats()
            backend = ScriptedBackend(base=OracleBackend(), noise_rate=noise, seed=seed)
            answer, trace = search(problem, backend, cfg, stats)
            runs.append(((answer, render_trace(trace),
                          [step.value_score for step in trace.steps], stats.notes),
                         stats.selection_calls))
        (expected, calls_before), (got, calls_after) = runs
        assert got == expected, problem.id
        assert calls_after <= calls_before, problem.id
        fewer += calls_after < calls_before
    assert fewer > 0


def test_entries_below_a_halted_extension_send_no_selection_request():
    """The first step of this depth-2 problem under noise keeps the proof's
    first step (value 0) and two noisy steps (CERTAIN_BAD).  In the second
    step the leader's extension halts at 0, and the two entries behind it
    score below that, so they send no selection request: one request per
    step, where expanding the whole step sends three in the second."""
    problem = generate_problem_set(7, {2: 10})[4]

    def search(max_steps):
        stats = SolveStats()
        backend = ScriptedBackend(base=OracleBackend(), noise_rate=0.3, seed=11)
        return beam_search(problem, backend, BeamConfig(4, 4, max_steps), stats), stats

    (_, _, first_step), _ = search(1)
    assert [(e.cumulative_score, e.trace.halted) for e in first_step] == [
        (0.0, False), (models.CERTAIN_BAD, False), (models.CERTAIN_BAD, False)]
    (answer, trace, entries), stats = search(10)
    assert stats.selection_calls == 2
    assert answer == problem.gold_answer and len(trace.steps) == 2
    assert entries[0].trace is trace and entries[0].cumulative_score == 0.0


class _ValueByInferences:
    """The oracle, except that a value request scores `values[inferences]`,
    the trace's inference surfaces in order, and CERTAIN_BAD for any other
    trace."""

    def __init__(self, values) -> None:
        self._base = OracleBackend()
        self._values = values

    def complete(self, request):
        if request.role is not GeneratorRole.VALUE:
            return self._base.complete(request)
        reason = models._read_value_prompt(request.prompt)[2]
        inferences = tuple(parse_trace_text(line).inference.surface
                           for line in reason.split("\n"))
        logprob = self._values.get(inferences, models.CERTAIN_BAD)
        return models.CompletionResponse(
            (), {models.CORRECT: logprob, models.INCORRECT: models.CERTAIN_BAD})


def test_an_entry_scoring_as_a_halted_extension_is_still_expanded():
    """Two routes prove "the bear is kind".  The young route leads after the
    first step (0 against -1), but its second step scores -1 and halts at
    -1, which the rough route's entry equals.  That entry is expanded: its
    extension halts at -1 too, with the same step count, and wins on
    rendered text, as the full expansion finds."""
    problem = _problem(
        [
            "the bear is big",
            "the bear is red",
            "If the bear is big then the bear is rough",
            "If the bear is red then the bear is young",
            "If the bear is rough then the bear is kind",
            "If the bear is young then the bear is kind",
        ],
        'Does it imply that the statement "The bear is kind" is True?',
    )
    values = {
        ("the bear is young",): 0.0,
        ("the bear is rough",): -1.0,
        ("the bear is young", "the bear is kind"): -1.0,
        ("the bear is rough", "the bear is kind"): 0.0,
    }
    cfg = BeamConfig(4, 4)
    stats = SolveStats()
    answer, trace, entries = beam_search(problem, _ValueByInferences(values), cfg, stats)
    assert stats.selection_calls == 3
    assert answer == Answer.TRUE
    assert [step.inference.surface for step in trace.steps] == [
        "the bear is rough", "the bear is kind"]
    assert [step.value_score for step in trace.steps] == [-1.0, 0.0]
    assert render_trace(trace) == entries[0].text < entries[1].text
    expected = _expand_until_every_trace_halts(
        problem, _ValueByInferences(values), cfg, SolveStats())
    assert (answer, render_trace(trace)) == (expected[0], render_trace(expected[1]))


class _ValueReplied:
    """The oracle, except that its first value request gets `logprob` for
    " correct"."""

    def __init__(self, logprob) -> None:
        self._base = OracleBackend()
        self._logprob = logprob
        self._replaced = False

    def complete(self, request):
        if request.role is GeneratorRole.VALUE and not self._replaced:
            self._replaced = True
            return models.CompletionResponse(
                (), {models.CORRECT: self._logprob, models.INCORRECT: models.CERTAIN_BAD})
        return self._base.complete(request)


@pytest.mark.parametrize("logprob", [1.0, float("nan")], ids=["positive", "nan"])
def test_a_value_above_0_is_a_counted_failure_that_drops_its_step(logprob):
    """The stop at a halted leader needs value scores that are
    log-probabilities, so any other value fails like a backend error.  The
    oracle proposes one first step for WORST_1, so once that step is
    dropped, nothing is left to search."""
    assert beam_search(WORST_1, _ValueReplied(0.0), BeamConfig(2, 2))[0] == Answer.TRUE
    stats = SolveStats()
    answer, trace, entries = beam_search(WORST_1, _ValueReplied(logprob), BeamConfig(2, 2), stats)
    assert stats.notes == [f"test: backend: value log-probability {logprob!r} is not at most 0"]
    assert answer.is_unknown and trace.steps == ()
    assert [entry.text for entry in entries] == [""]


@pytest.mark.parametrize("completion", [" .", " 123.", " ..."])
def test_an_inference_without_letters_means_nothing_follows(pw_problems, completion):
    backend = ScriptedBackend(
        base=OracleBackend(), script={GeneratorRole.INFERENCE: [completion]}
    )
    stats = SolveStats()
    answer, trace, _ = beam_search(
        pw_problems[0],
        backend,
        BeamConfig(beam_width=1, proposals_per_trace=1, max_steps=1),
        stats,
    )
    assert answer.is_unknown
    assert trace.steps[0].inference == Statement(symbolic.NOTHING_FOLLOWS)
    assert stats.backend_failures == 0 and stats.notes == []


def test_an_inference_with_a_line_break_is_a_counted_failure(pw_problems):
    """A two-line inference would print as a two-line step and break the
    next selection prompt, which is line-based.  It is this step's
    inference failure instead, and the step is dropped."""
    backend = ScriptedBackend(base=OracleBackend(), script={
        GeneratorRole.INFERENCE: [" the rabbit needs the rabbit.\nthe moon is big."]})
    stats = SolveStats()
    answer, trace = si_answer(pw_problems[0], backend, stats=stats)
    assert answer.is_unknown and trace.steps == ()
    assert stats.notes == ["pw-top-1: backend: inference "
                           "'the rabbit needs the rabbit.\\nthe moon is big' has a line break"]


# ---------------------------------------------------------------------------
# Solvers: one backend per run.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2])
def test_scripted_solver_noise_is_per_problem(width):
    """One scripted solver, reset before each problem, draws the same noise
    as a fresh backend seeded `seed * 1000003 + i` for the i-th problem of
    the run, also across a second pass over the same problems."""
    problems = generate_problem_set(4, {2: 5, 3: 5})
    cfg = evalcli.SolverConfig(
        backend="scripted", noise_rate=0.3, seed=11,
        beam_width=width, proposals_per_trace=width,
    )
    solver = evalcli.make_solver(cfg)
    got = [solver(p) for p in problems + problems]

    def reference(seed_of):
        out = []
        for i, problem in enumerate(problems + problems):
            noisy = ScriptedBackend(base=OracleBackend(), noise_rate=0.3, seed=seed_of(i))
            answer, trace, _ = beam_search(problem, noisy, cfg)
            out.append((answer, trace))
        return out

    assert got == reference(lambda i: cfg.seed * 1000003 + i)
    # The noise matters: one seed for every problem gives other traces.
    assert got != reference(lambda i: cfg.seed * 1000003)


class _CountingBackend:
    def __init__(self, base) -> None:
        self._base = base
        self.roles: list[GeneratorRole] = []

    def reset(self) -> None:
        self._base.reset()

    def close(self) -> None:
        self._base.close()

    def complete(self, request):
        self.roles.append(request.role)
        return self._base.complete(request)


def test_greedy_solve_sends_no_value_request(pw_problems, monkeypatch):
    counting = _CountingBackend(OracleBackend())
    traces = [si_answer(p, counting)[1] for p in pw_problems]
    monkeypatch.setattr(models, "oracle_backend", lambda: counting)
    solver = evalcli.make_solver(evalcli.SolverConfig())
    traces += [solver(p)[1] for p in pw_problems]
    assert GeneratorRole.SELECTION in counting.roles
    assert GeneratorRole.VALUE not in counting.roles
    assert all(step.value_score is None for t in traces for step in t.steps)


def test_a_search_writes_the_value_prompt_head_once(pw_problems, monkeypatch):
    """A ranking search writes the problem's part of the value prompt once,
    for all its value requests; a greedy one never writes it."""
    heads = []
    head = models.value_prompt_head
    monkeypatch.setattr(models, "value_prompt_head",
                        lambda *args: heads.append(args) or head(*args))
    values = 0
    for problem in pw_problems:
        counting = _CountingBackend(OracleBackend())
        si_answer(problem, counting)
        assert heads == []
        beam_search(problem, counting, BeamConfig(2, 2))
        assert heads == [(problem.context, problem.question)]
        values += counting.roles.count(GeneratorRole.VALUE)
        del heads[:]
    assert values > 2 * len(pw_problems)


# ---------------------------------------------------------------------------
# The solver against the reference, on worlds the generator never makes:
# constant and variable subjects, two-condition rules, negated facts.
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(worlds(), st.booleans(), st.data())
def test_solvers_answer_as_the_reference_on_drawn_worlds(world, negated, data):
    """Oracle greedy and oracle beam 4x4 give `evaluate_hypothesis`'s answer
    about an atom some rule derives (or its negation), with a sound trace
    and no backend failure.

    No drawn world derives an atom and its negation (the first `assume`
    states it), as the problem generator skips such worlds.  There the
    answer could rest on a context fact: `evaluate_hypothesis` lets the
    shallower side win, and a context fact has depth 0, which no
    selection-inference trace can show, since each of its steps derives
    something."""
    context = context_of(world)
    world = symbolic.closure(context)
    assume(not any(cnl.negate(a) in world.derived for a in world.derived))
    derived = sorted((a for a, p in world.derived.items() if p.depth > 0),
                     key=cnl.render_atom)
    assume(derived)
    atom = data.draw(st.sampled_from(derived))
    hypothesis = cnl.negate(atom) if negated else atom
    question = cnl.render_question(hypothesis)
    expected = symbolic.evaluate_hypothesis(world, cnl.parse_question(question))
    assert expected is (Answer.FALSE if negated else Answer.TRUE)
    problem = Problem(id="drawn", context=context, question=question, choices=None,
                      gold_answer=expected)
    for solve in (lambda stats: si_answer(problem, OracleBackend(), stats=stats),
                  lambda stats: beam_search(problem, OracleBackend(), BeamConfig(4, 4),
                                            stats)[:2]):
        stats = SolveStats()
        answer, trace = solve(stats)
        assert (answer, stats.notes) == (expected, [])
        assert symbolic.trace_faults(trace) == []


def _step_set(trace) -> set:
    return {(frozenset(s.key for s in step.selection), step.inference.key)
            for step in trace.steps}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 5]), st.data())
def test_a_shuffled_context_gives_the_same_answer_and_steps(seed, depth, data):
    """Selection is by label, and a label is a position, so a generated
    context in another order gives the same answer and the same steps under
    oracle greedy and 4x4.  The steps are compared as sets: the oracle takes
    independent branches in label order."""
    problem = symbolic.generate_problem(seed=seed, depth=depth)
    shuffled = replace(problem, context=LabeledContext.from_statements(
        data.draw(st.permutations(problem.context.statements()))))
    for cfg in (BeamConfig(), BeamConfig(4, 4)):
        answer, trace, _ = beam_search(problem, OracleBackend(), cfg)
        again, moved, _ = beam_search(shuffled, OracleBackend(), cfg)
        assert again == answer == problem.gold_answer
        assert _step_set(moved) == _step_set(trace)


def test_a_shuffled_context_gives_the_same_answer_and_steps_over_pipe(pipe_spawns):
    """The same over the wire: one `pipe:` server answers 4x4 searches of a
    seed-7 problem per depth and of three seeded shuffles of each."""
    backend = models.remote_backend("pipe:")
    shuffles = 0
    try:
        for problem in generate_problem_set(7, {1: 1, 2: 1, 3: 1, 5: 1}):
            backend.reset()
            stats = SolveStats()
            answer, trace, _ = beam_search(problem, backend, BeamConfig(4, 4), stats)
            assert answer == problem.gold_answer
            for seed in range(3):
                statements = list(problem.context.statements())
                random.Random(seed).shuffle(statements)
                shuffles += statements != list(problem.context.statements())
                shuffled = replace(problem, context=LabeledContext.from_statements(statements))
                backend.reset()
                again, moved, _ = beam_search(shuffled, backend, BeamConfig(4, 4), stats)
                assert again == answer
                assert _step_set(moved) == _step_set(trace)
            assert stats.notes == []
    finally:
        backend.close()
    assert len(pipe_spawns) == 1 and shuffles == 12


@settings(max_examples=60, deadline=None)
@given(worlds(), st.data())
def test_a_shuffled_drawn_world_gives_the_same_answer(world, data):
    """On drawn worlds only the answer is compared.  Two rules there can
    derive an atom equally fast ("If the cat is big then the dog is red"
    and "If the cat is big and the cat is big then the dog is red"), and
    the closure keeps the one with the lower label, so the step taken can
    move with the order."""
    context = context_of(world)
    derived = sorted((a for a, p in symbolic.closure(context).derived.items() if p.depth > 0),
                     key=cnl.render_atom)
    assume(derived)
    problem = _problem([s.surface for s in context.statements()],
                       cnl.render_question(data.draw(st.sampled_from(derived))))
    shuffled = replace(problem, context=LabeledContext.from_statements(
        data.draw(st.permutations(context.statements()))))
    for cfg in (BeamConfig(), BeamConfig(4, 4)):
        assert (beam_search(shuffled, OracleBackend(), cfg)[0]
                == beam_search(problem, OracleBackend(), cfg)[0])
