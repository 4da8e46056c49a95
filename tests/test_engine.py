import pytest

from sireason import cnl, evalcli, models, symbolic
from sireason.core import (
    Answer,
    LabeledContext,
    SentenceLabel,
    Statement,
    render_trace,
)
from sireason.engine import (
    BeamConfig,
    BeamEntry,
    SolveStats,
    beam_search,
    score_trace,
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
    [(selection, labels)] = selection_step(WORST_1.question, ctx, backend)
    assert [l.index for l in labels] == [1, 5]
    assert selection[1] == Statement("the tiger is kind")


def test_selection_step_dedups_repeated_labels():
    ctx = WORST_1.context
    script = {GeneratorRole.SELECTION: [" sent 1. We know that sent 5 and sent 5."]}
    [(selection, labels)] = selection_step(
        WORST_1.question, ctx, ScriptedBackend(script=script)
    )
    assert [l.index for l in labels] == [1, 5]
    assert len(selection) == 2


@pytest.mark.parametrize("bad, errors", [
    # A one-sample reply whose text is empty carries no sample, as the
    # oracle's exhausted walk says: it was not given, so it is no error.
    pytest.param("", 0, id="not-given"),
    *(pytest.param(bad, 1, id=bad)
      for bad in (" no labels here", " sent 99. We know that sent 1.", " sent zero")),
])
def test_selection_step_rejects_malformed_output(bad, errors):
    stats = SolveStats()
    backend = ScriptedBackend(script={GeneratorRole.SELECTION: [bad]})
    assert selection_step(WORST_1.question, WORST_1.context, backend, stats) == []
    assert stats.selection_syntax_errors == errors
    assert stats.selection_calls == 1


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
        ((SentenceLabel(2), SentenceLabel(1)), kind)
    ]
    prompt = models.format_selection_prompt(problem.question, problem.context)
    assert OracleBackend()._selection_candidates(prompt) == (" sent 2. We know that sent 1.",)
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


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=4, proposals_per_trace=2)
    with pytest.raises(ValueError):
        BeamConfig(max_steps=0)
    with pytest.raises(ValueError):
        BeamConfig(score_mode="median")


def test_score_trace_modes():
    from sireason.core import ReasoningTrace

    entry = BeamEntry(
        trace=ReasoningTrace(base_context=WORST_1.context), cumulative_score=-1.0
    )
    assert score_trace(entry, -2.0, "sum") == -3.0
    assert score_trace(entry, -2.0, "last") == -2.0


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


@pytest.mark.parametrize("score_mode", ["sum", "last"])
def test_beam_search_recovers_from_noise(score_mode):
    # with noise rate 0.5 the greedy run goes off-path for this seed while
    # the beam finds the proof; both are deterministic given the seed
    noisy = lambda: ScriptedBackend(base=OracleBackend(), noise_rate=0.5, seed=3)
    cfg = BeamConfig(
        beam_width=4, proposals_per_trace=4, max_steps=4, score_mode=score_mode
    )
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
            answer, trace, _ = beam_search(problem, noisy, cfg.beam_config())
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
