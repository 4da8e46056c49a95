import io
import itertools
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import faults
import pytest

from sireason import cnl, datasets, engine, models, symbolic
from sireason.core import (
    EmptyStatement,
    LabeledContext,
    Statement,
    TraceParseError,
    normalize_key,
    normalize_statement,
    parse_trace_text,
    render_premises,
    render_step,
)
from sireason.models import (
    CERTAIN_BAD,
    CERTAIN_GOOD,
    CORRECT,
    INCORRECT,
    CompletionRequest,
    CompletionResponse,
    GeneratorRole,
    OracleBackend,
    RESET_DOCUMENT,
    PipeTransport,
    RemoteBackend,
    RemoteError,
    ScriptExhausted,
    ScriptedBackend,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
    format_halter_prompts,
    format_inference_prompt,
    format_selection_prompt,
    format_value_prompt,
    serve,
    value_prompt_head,
)

CTX = LabeledContext.from_statements(
    [
        "If something is kind then it likes the cow",
        "the cow is big",
        "the tiger is kind",
    ]
)
QUESTION = 'Does it imply that the statement "The tiger likes the cow" is True?'


# ---------------------------------------------------------------------------
# Prompt templates are load-bearing: the oracle parses them back, training
# pairs embed them, and remote backends see them on the wire.  Byte-exact.
# ---------------------------------------------------------------------------

def test_selection_prompt_bytes():
    assert format_selection_prompt(QUESTION, CTX) == (
        "sent 1: If something is kind then it likes the cow\n"
        "sent 2: the cow is big\n"
        "sent 3: the tiger is kind\n"
        f"Question: {QUESTION}\n"
        "Selection:"
    )


def test_inference_prompt_bytes():
    rule = Statement("If something is kind then it likes the cow")
    fact = Statement("the tiger is kind")
    assert format_inference_prompt([rule, fact]) == (
        "If something is kind then it likes the cow. "
        "We know that the tiger is kind. Therefore,"
    )
    assert format_inference_prompt([fact]) == "the tiger is kind. Therefore,"


def test_halter_prompt_bytes():
    ready, answer = format_halter_prompts(QUESTION, "the tiger likes the cow")
    assert ready == f"Given the tiger likes the cow. {QUESTION}"
    assert answer is None

    ready, answer = format_halter_prompts(
        "What state is an ice cube in?",
        "an ice cube is solid in its physical state",
        choices=("gas", "solid"),
    )
    assert ready == (
        "Question:What state is an ice cube in? gas OR solid. "
        "Given an ice cube is solid in its physical state. "
        "Do you know the answer?"
    )
    assert answer == (
        "Given an ice cube is solid in its physical state. "
        "Which of the following most closely matches: gas OR solid? Answer:"
    )


def test_a_prompt_with_no_step_to_write_is_refused():
    with pytest.raises(ValueError, match="at least one selected statement"):
        format_inference_prompt([])
    with pytest.raises(ValueError, match="at least one reasoning step"):
        format_value_prompt(value_prompt_head(CTX, QUESTION), " ")


def test_value_prompt_bytes():
    prompt = format_value_prompt(
        value_prompt_head(CTX, QUESTION), "the cow is big. Therefore, nothing follows."
    )
    assert prompt == (
        "Context: If something is kind then it likes the cow. the cow is big. "
        "the tiger is kind. "
        f"Question: {QUESTION} "
        "Reason: the cow is big. Therefore, nothing follows. "
        "The above reasoning steps are"
    )


# ---------------------------------------------------------------------------
# Oracle backend.
# ---------------------------------------------------------------------------

def test_oracle_selection_walks_candidates():
    backend = OracleBackend()
    prompt = format_selection_prompt(QUESTION, CTX)
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt=prompt)
    first = backend.complete(req).text
    assert first == " sent 1. We know that sent 3."
    # repeated calls with the same prompt move the cursor, and an exhausted
    # prompt yields the empty string rather than a hallucinated label
    seen = {first}
    for _ in range(10):
        text = backend.complete(req).text
        if text == "":
            break
        seen.add(text)
    else:
        pytest.fail("selection candidates never exhausted")
    assert len(seen) >= 1
    backend.reset()
    assert backend.complete(req).text == first


def test_one_request_for_n_samples_walks_as_n_requests_for_one():
    context = LabeledContext.from_statements([
        "If something is kind then it is red", "If something is big then it is round",
        "the cat is kind", "the dog is kind", "the cow is big", "the mouse is big",
    ])
    question = 'Does it imply that the statement "The cow is round" is True?'
    one = CompletionRequest(GeneratorRole.SELECTION, format_selection_prompt(question, context))
    walk = OracleBackend()
    listed: list = []
    while samples := walk.complete(one).samples:
        assert len(samples) == 1
        listed += samples
    assert len(listed) >= 4
    backend = OracleBackend()
    first = backend.complete(replace(one, n=2))
    assert first.samples == tuple(listed[:2]) and first.text == listed[0]
    assert backend.complete(one).samples == (listed[2],)
    rest = backend.complete(replace(one, n=len(listed)))
    assert rest.samples == tuple(listed[3:])
    # Once the walk runs out, a request for any number gets no sample.
    assert backend.complete(replace(one, n=3)) == CompletionResponse(())
    assert backend.complete(one) == CompletionResponse(())
    assert backend.complete(one).text == ""


def _sireason_caches() -> dict:
    """Every cache in the sireason modules, by name: each module-level
    object (not a class) with the `cache_clear` of a `functools.lru_cache`."""
    import importlib
    import pkgutil

    import sireason

    caches = {}
    for info in pkgutil.iter_modules(sireason.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sireason.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type):
                continue
            if callable(getattr(obj, "cache_clear", None)) and getattr(
                obj, "__module__", None
            ) == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj
    return caches


def test_every_cache_is_bounded():
    caches = _sireason_caches()
    assert {
        "sireason.core.normalize_key",
        "sireason.cnl.parse_statement",
        "sireason.cnl.parse_question",
    } <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def test_the_oracle_keeps_no_module_state():
    """What the oracle remembers lives on the backend: `sireason.models`
    defines no cache, and no dict, list or set but its upper-case constants."""
    caches = [name for name in _sireason_caches() if name.startswith("sireason.models.")]
    held = [
        name for name, obj in vars(models).items()
        if isinstance(obj, (dict, list, set)) and not name.startswith("__")
        and name != name.upper()
    ]
    assert caches == held == []


def _clear_caches() -> None:
    for cache in _sireason_caches().values():
        cache.cache_clear()


def _oracle_tables(backend: OracleBackend) -> dict:
    """Every table of an oracle's memory, by attribute name."""
    return {name: v for name, v in vars(backend).items() if isinstance(v, dict)}


def _walk(backend: OracleBackend, req: CompletionRequest) -> list[str]:
    """The replies to `req`, repeated up to and with the first empty one."""
    texts = [backend.complete(req).text]
    while texts[-1]:
        texts.append(backend.complete(req).text)
    return texts


def test_selection_walk_is_the_same_on_a_fresh_and_a_reset_backend():
    problem = datasets.generate_problem_set(30, {3: 1})[0]
    req = CompletionRequest(
        GeneratorRole.SELECTION, format_selection_prompt(problem.question, problem.context)
    )
    fresh = _walk(OracleBackend(), req)
    backend = OracleBackend()
    first = _walk(backend, req)
    # The walk is remembered until the reset.
    assert _walk(backend, req) == [""]
    backend.reset()
    assert _walk(backend, req) == first == fresh
    assert len(fresh) > 2


def test_reset_empties_every_oracle_table():
    problem = datasets.generate_problem_set(30, {3: 1})[0]
    backend = OracleBackend()
    engine.beam_search(problem, backend, engine.BeamConfig(beam_width=2, proposals_per_trace=2))
    tables = _oracle_tables(backend)
    assert set(tables) == {"_worlds", "_proof_keys", "_selections"}
    assert all(tables.values())
    backend.reset()
    assert not any(_oracle_tables(backend).values())


def test_two_oracles_share_no_state():
    problem = datasets.generate_problem_set(30, {3: 1})[0]
    req = CompletionRequest(
        GeneratorRole.SELECTION, format_selection_prompt(problem.question, problem.context)
    )
    one, other = OracleBackend(), OracleBackend()
    walked = _walk(one, req)
    assert other.complete(req).text == walked[0]
    surfaces = tuple(stmt.surface for stmt in problem.context.statements())
    assert one._worlds[surfaces] is not other._worlds[surfaces]
    for name, table in _oracle_tables(one).items():
        assert table is not getattr(other, name)
    one.reset()
    assert other.complete(req).text == walked[1]


def test_a_solver_run_leaves_only_the_last_problems_worlds(monkeypatch):
    from sireason import evalcli

    problems = datasets.generate_problem_set(7, {1: 10, 2: 10, 3: 10, 5: 10})
    backend = OracleBackend()
    monkeypatch.setattr(models, "oracle_backend", lambda: backend)
    solver = evalcli.make_solver(evalcli.SolverConfig(beam_width=2, proposals_per_trace=2))
    for problem in problems:
        solver(problem)
    last = tuple(stmt.surface for stmt in problems[-1].context.statements())
    assert last in backend._worlds
    assert all(surfaces[:len(last)] == last for surfaces in backend._worlds)
    assert list(backend._proof_keys) == [
        (" ".join(f"{s}." for s in last), problems[-1].question)]
    assert all(
        models._read_selection_prompt(prompt)[1][:len(last)] == last
        for prompt in backend._selections
    )


class _Recording:
    """Passes each request on to `inner` and logs it with its reply."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.log: list[tuple[CompletionRequest, CompletionResponse]] = []

    def reset(self) -> None:
        self.inner.reset()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        response = self.inner.complete(request)
        self.log.append((request, response))
        return response


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_replies_are_a_fresh_oracles_replies(depth):
    """Under selection noise inference and halter prompts repeat within a
    problem, and a value prompt, which renders a whole trace, never does;
    every reply but a selection's equals what a fresh oracle answers to the
    same request."""
    problems = datasets.generate_problem_set(19, {depth: 6})
    oracle = _Recording(OracleBackend())
    backend = ScriptedBackend(base=oracle, noise_rate=0.3, seed=11)
    repeated = Counter()
    for problem in problems:
        backend.reset()
        del oracle.log[:]
        engine.beam_search(problem, backend, engine.BeamConfig(4, 4))
        seen = set()
        for request, response in oracle.log:
            if request.role is GeneratorRole.SELECTION:
                continue
            key = (request.role, request.prompt)
            repeated[request.role] += key in seen
            seen.add(key)
            assert response == OracleBackend().complete(request), request
    assert repeated[GeneratorRole.VALUE] == 0
    assert repeated[GeneratorRole.INFERENCE] > 0
    assert repeated[GeneratorRole.HALTER_READY] > 0


def test_gold_steps_after_an_unchanged_closure_are_a_fresh_oracles():
    """A context whose last sentence says nothing follows, or repeats a
    fact, closes as its parent does; its gold steps are the parent's with
    the inference labels moved up one, as a fresh oracle computes them."""
    problem = datasets.generate_problem_set(30, {5: 1})[0]
    surfaces = tuple(stmt.surface for stmt in problem.context.statements())
    backend = OracleBackend()
    world = backend._world_for(surfaces)
    parent = models._gold_steps(world, problem.question)
    assert any(i > len(surfaces) for _, labels in parent for i in labels)
    fact = problem.context.lookup(min(world.fact_labels.values()))
    for appended in (symbolic.NOTHING_FOLLOWS, fact.surface, symbolic.NOTHING_FOLLOWS):
        surfaces += (appended,)
        child = backend._world_for(surfaces)
        steps = models._gold_steps(child, problem.question)
        assert child.derived is world.derived
        fresh = OracleBackend()._world_for(surfaces)
        assert steps == models._gold_steps(fresh, problem.question), appended
        assert len(steps) == len(parent)
        world = child


@pytest.mark.parametrize("role, prompt", [
    (GeneratorRole.INFERENCE, "the cow is big."),
    (GeneratorRole.HALTER_READY, "Given the cow is big. Is the cow big?"),
    (GeneratorRole.HALTER_ANSWER, format_halter_prompts(
        "Which state?", "a fly has six legs", ("gas", "solid"))[1]),
    # A value request with no continuations to score.
    (GeneratorRole.VALUE, "Context: the cow is big. The above reasoning steps are"),
], ids=["inference", "halter_ready", "halter_answer", "value"])
def test_a_failed_request_fails_again(role, prompt):
    backend = OracleBackend()
    request = CompletionRequest(role, prompt)
    first = pytest.raises(models.BackendError, backend.complete, request)
    second = pytest.raises(models.BackendError, backend.complete, request)
    assert str(first.value) == str(second.value)


def test_threads_on_one_oracle_get_the_single_threaded_walks():
    """Contexts extended from one closure share its rule index, and each
    new fact grounds instances into it; eight threads walking such
    selection prompts on one backend raise nothing and get the walks one
    thread gets."""
    problem = datasets.generate_problem_set(30, {5: 1})[0]
    world = symbolic.closure(problem.context)
    derived = {cnl.render_atom(a) for a in world.derived}
    new_facts = sorted({
        cnl.render_atom(atom._replace(subject=c))
        for atom in world.derived for c in world.index.constants
    } - derived)
    surfaces = [stmt.surface for stmt in problem.context.statements()]

    def request(extra):
        ctx = LabeledContext.from_statements(surfaces + extra)
        return CompletionRequest(
            GeneratorRole.SELECTION, format_selection_prompt(problem.question, ctx), n=2)

    requests = [request([fact]) for fact in new_facts]
    assert len(requests) >= 40
    alone = OracleBackend()
    expected = [_walk(alone, req) for req in requests]
    backend = OracleBackend()
    n_threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            backend.reset()
            # Every extended world grows from this one's closure.
            _walk(backend, request([]))
            got: list = [None] * len(requests)
            errors: list = []

            def run(i):
                try:
                    for k in range(i, len(requests), n_threads):
                        got[k] = _walk(backend, requests[k])
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert got == expected
    finally:
        sys.setswitchinterval(interval)


def _reference_firings(world: symbolic.WorldClosure) -> set[tuple[int, ...]]:
    """(rule label, premise labels) of every way a rule fires on distinct
    context facts with a head the context lacks: each combination of at most
    as many facts as the rule has conditions tried against each rule with
    `apply_rule`."""
    present = {stmt.key for stmt in world.context.statements()}
    facts = sorted((label, atom) for atom, label in world.fact_labels.items())
    firings = set()
    for rule_label, rule in world.index.rules:
        for combo in itertools.chain.from_iterable(
            itertools.combinations(facts, size) for size in range(1, len(rule.body) + 1)
        ):
            try:
                head = symbolic.apply_rule(rule, [atom for _, atom in combo])
            except symbolic.NoEntailment:
                continue
            if normalize_key(cnl.render_atom(head)) not in present:
                firings.add((rule_label,) + tuple(index for index, _ in combo))
    return firings


def _candidate_labels(
    backend: OracleBackend, question: str, ctx: LabeledContext
) -> list[tuple[int, ...]]:
    prompt = format_selection_prompt(question, ctx)
    return [
        tuple(int(n) for n in re.findall(r"sent (\d+)", text))
        for text in backend._selection_candidates(prompt)
    ]


def test_extended_worlds_fire_as_rebuilt_ones(monkeypatch):
    """A context that extends a known one gets its world by extension; it
    equals a rebuild, and its selection candidates are the proof's next
    step, then every firing of `_reference_firings` in label order."""
    problem = datasets.generate_problem_set(30, {5: 1})[0]
    world = symbolic.closure(problem.context)
    appended = sorted(
        (cnl.render_atom(a) for a, p in world.derived.items() if p.depth > 0), reverse=True
    )
    appended[1:1] = [
        "If something is big then it is quiet",
        problem.context.lookup(max(world.fact_labels.values())).surface,
        symbolic.NOTHING_FOLLOWS,
        "the zebra is big",
        # Grounded for the wolf, its two premises are one fact.
        "If the wolf is big and something is big then it is kind",
        "the wolf is big",
    ]
    surfaces = tuple(stmt.surface for stmt in problem.context.statements())
    backend = OracleBackend()
    backend._world_for(surfaces)
    closure = symbolic.closure
    closed = []

    def counting(ctx):
        closed.append(ctx.lookup(len(ctx)).surface)
        return closure(ctx)

    monkeypatch.setattr(symbolic, "closure", counting)
    for surface in appended:
        surfaces += (surface,)
        got = backend._world_for(surfaces)
        ctx = got.context
        rebuilt = closure(LabeledContext.from_statements(surfaces))
        assert ctx == rebuilt.context
        assert got.derived == rebuilt.derived
        present = {stmt.key for stmt in ctx.statements()}
        on_path = [
            labels for key, labels in models._gold_steps(got, problem.question)
            if key not in present
        ][:1]
        expected = on_path + sorted(
            f for f in _reference_firings(rebuilt)
            if not on_path or frozenset(f) != frozenset(on_path[0])
        )
        assert _candidate_labels(backend, problem.question, ctx) == expected, surface
    # Only a new rule and a new constant close the context afresh.
    assert closed == [
        "If something is big then it is quiet",
        "the zebra is big",
        "If the wolf is big and something is big then it is kind",
    ]


def test_extending_a_world_leaves_its_parents_candidates():
    """A child world grounds new rule instances in the index it shares with
    its parent; the parent's candidates still range over its own facts."""
    problem = datasets.generate_problem_set(30, {5: 1})[0]
    surfaces = tuple(stmt.surface for stmt in problem.context.statements())
    backend = OracleBackend()
    cold = _candidate_labels(backend, problem.question, problem.context)
    parent = backend._world_for(surfaces)
    grounded = len(parent.index.grounded)
    child = backend._world_for(surfaces + ("the lion is smart",))
    assert child.index is parent.index
    assert len(parent.index.grounded) > grounded
    assert _candidate_labels(backend, problem.question, problem.context) == cold


def _eager_candidates(prompt: str) -> tuple[str, ...]:
    """Every selection completion of `prompt`, listed up front on a fresh
    oracle, as the oracle did before its walk became lazy."""
    backend = OracleBackend()
    question, surfaces = models._read_selection_prompt(prompt)
    world = backend._world_for(surfaces)
    present = {stmt.key for _, stmt in world.context}

    on_path = None
    for key, labels in models._gold_steps(world, question):
        if key not in present:
            on_path = labels
            break

    facts = world.fact_labels
    firings = sorted({
        (rule,) + tuple(sorted({facts[p] for p in premises}))
        for rule, premises, head in world.index.grounded.values()
        if all(p in facts for p in premises)
        and normalize_key(cnl.render_atom(head)) not in present
    })

    ordered = []
    if on_path is not None:
        ordered.append(on_path)
    for f in firings:
        if on_path is not None and frozenset(f) == frozenset(on_path):
            continue
        ordered.append(f)
    return tuple(models.render_selection(labels) for labels in ordered)


def test_lazy_walks_hand_out_the_eager_lists(pw_problems, pw_worst_problems):
    """Each selection prompt of noisy beam runs, walked on one oracle per
    problem in requests of 1 to 4 samples that take turns across the
    problem's prompts until each walk runs out, hands out exactly the list
    built up front.  Taking turns grounds sibling worlds into the shared
    rule index between the steps of one walk."""
    problems = [
        *datasets.generate_problem_set(41, {1: 18, 2: 18, 3: 18, 5: 18}),
        *pw_problems,
        *pw_worst_problems,
    ]
    walked = 0
    for problem in problems:
        oracle = _Recording(OracleBackend())
        engine.beam_search(problem, ScriptedBackend(base=oracle, noise_rate=0.3, seed=11),
                           engine.BeamConfig(4, 4))
        prompts = list(dict.fromkeys(
            request.prompt for request, _ in oracle.log
            if request.role is GeneratorRole.SELECTION
        ))
        backend = OracleBackend()
        handed: dict[str, list[str]] = {prompt: [] for prompt in prompts}
        sizes = itertools.cycle([1, 2, 3, 4])
        while handed:
            for prompt in list(handed):
                n = next(sizes)
                samples = backend.complete(
                    CompletionRequest(GeneratorRole.SELECTION, prompt, n=n)).samples
                handed[prompt] += samples
                if len(samples) < n:
                    assert tuple(handed.pop(prompt)) == _eager_candidates(prompt), prompt
                    walked += 1
    assert walked > 400


@pytest.mark.parametrize("prompt", [
    "not a selection prompt",
    format_selection_prompt("Which state is ice in?", CTX),
], ids=["malformed", "free-text-question"])
def test_an_unreadable_selection_prompt_leaves_no_walk(prompt):
    backend = OracleBackend()
    request = CompletionRequest(GeneratorRole.SELECTION, prompt, n=2)
    first = pytest.raises(models.BackendError, backend.complete, request)
    second = pytest.raises(models.BackendError, backend.complete, request)
    assert str(first.value) == str(second.value)
    assert backend._selections == {}


def test_gold_steps_are_the_shortest_proofs_steps(pw_problems, pw_worst_problems):
    """The oracle's gold steps are the keys and labels of `shortest_proof`'s
    steps: both read one walk, `symbolic.proof_steps`."""
    generated = datasets.generate_problem_set(23, {1: 4, 2: 4, 3: 4, 5: 4})
    backend = OracleBackend()
    proved = 0
    for problem in generated + list(pw_problems) + list(pw_worst_problems):
        surfaces = tuple(stmt.surface for stmt in problem.context.statements())
        hypothesis = cnl.parse_question(problem.question)
        try:
            proof = symbolic.shortest_proof(symbolic.closure(problem.context), hypothesis)
        except symbolic.NoProof:
            expected = ()
        else:
            expected = tuple(
                (step.inference.key, step.selection_labels)
                for step in proof.steps
            )
            proved += 1
        world = backend._world_for(surfaces)
        assert models._gold_steps(world, problem.question) == expected, problem.id
    assert proved >= 16


@pytest.mark.parametrize("settings", [
    {},
    {"backend": "scripted", "noise_rate": 0.3, "seed": 11,
     "beam_width": 4, "proposals_per_trace": 4},
], ids=["oracle-greedy", "scripted-beam"])
def test_warm_caches_solve_as_cold_ones(settings):
    from sireason import datasets, evalcli
    from sireason.core import render_trace

    problems = datasets.generate_problem_set(17, {1: 2, 2: 2, 3: 2, 5: 2})
    cfg = evalcli.SolverConfig(**settings)

    def solve_all():
        solver = evalcli.make_solver(cfg)
        return [(a.render(), render_trace(t)) for a, t in map(solver, problems)]

    _clear_caches()
    cold = solve_all()
    assert solve_all() == cold


def test_scripted_noise_on_a_malformed_prompt_selects_nothing():
    backend = ScriptedBackend(noise_rate=1.0, seed=3)
    for prompt in ("not a selection prompt", "sent 1: the cow is big\nQuestion: q\nSelection:"):
        req = CompletionRequest(role=GeneratorRole.SELECTION, prompt=prompt)
        assert backend.complete(req).samples == ("",)


def test_oracle_inference():
    backend = OracleBackend()
    prompt = format_inference_prompt(
        [
            Statement("If something is kind then it likes the cow"),
            Statement("the tiger is kind"),
        ]
    )
    resp = backend.complete(
        CompletionRequest(role=GeneratorRole.INFERENCE, prompt=prompt)
    )
    assert resp.text == " the tiger likes the cow."


def test_oracle_inference_nothing_follows():
    backend = OracleBackend()
    prompt = format_inference_prompt(
        [
            Statement("If something is kind then it likes the cow"),
            Statement("the cow is big"),
        ]
    )
    resp = backend.complete(
        CompletionRequest(role=GeneratorRole.INFERENCE, prompt=prompt)
    )
    assert resp.text == " nothing follows."


def test_oracle_halter_true_false_unknown():
    backend = OracleBackend()

    def halt(inference, question=QUESTION):
        ready, _ = format_halter_prompts(question, inference)
        return backend.complete(
            CompletionRequest(role=GeneratorRole.HALTER_READY, prompt=ready)
        ).text

    assert halt("the tiger likes the cow") == " True"
    assert halt("the tiger does not like the cow") == " False"
    assert halt("the cow is big") == " Unknown"
    assert halt("nothing follows") == " Unknown"


@pytest.mark.parametrize("inference", [
    "If something is big then it is kind",
    "a fly is a kind of insect",  # outside the grammar
])
def test_an_inference_that_is_no_fact_halts_unknown(inference):
    ready, _ = format_halter_prompts(QUESTION, inference)
    reply = OracleBackend().complete(CompletionRequest(GeneratorRole.HALTER_READY, ready))
    assert reply.text == " Unknown"


def test_oracle_halter_multi_choice():
    backend = OracleBackend()
    question = "Which word best describes the physical state of an ice cube?"
    ready, answer = format_halter_prompts(
        question,
        "an ice cube is solid in its physical state",
        choices=("gas", "solid", "liquid", "plasma"),
    )
    assert backend.complete(
        CompletionRequest(role=GeneratorRole.HALTER_READY, prompt=ready)
    ).text == " Yes."
    assert backend.complete(
        CompletionRequest(role=GeneratorRole.HALTER_ANSWER, prompt=answer)
    ).text == " solid"
    # an unrelated inference does not match any choice
    ready, _ = format_halter_prompts(
        question, "a fly has six legs", choices=("gas", "solid")
    )
    assert backend.complete(
        CompletionRequest(role=GeneratorRole.HALTER_READY, prompt=ready)
    ).text == " No."


def test_the_oracle_halter_replies_with_its_training_targets():
    """For a one-step proof the oracle's reply to each halter pair's input
    is the pair's target, a padded choice included."""
    problem = datasets.problem_from_doc({
        "id": "ice", "context": ["an ice cube is a kind of solid"],
        "question": "Which state is an ice cube in?", "choices": ["solid ", "gas"],
        "answer": "solid", "proof": [{"selection": [1], "inference": "an ice cube is solid"}],
    })
    pairs = datasets.extract_halter_pairs(problem)
    assert [p.role for p in pairs] == [GeneratorRole.HALTER_READY, GeneratorRole.HALTER_ANSWER]
    for pair in pairs:
        reply = OracleBackend().complete(CompletionRequest(pair.role, pair.input))
        assert reply.text == pair.target, pair.role


def test_a_dangling_or_ends_the_choices():
    for text in (" a OR b OR", "a OR b OR ", " OR a OR b", "OR a OR b", "a  OR  b"):
        assert models.read_choices(text) == ("a", "b"), text
    assert models.read_choices(" a OR b ORE") == ("a", "b ORE")
    assert models.read_choices(" ORE a OR b") == ("ORE a", "b")
    assert models.read_choices("OR") == models.read_choices("  ") == ()


def _ready_prompt(question_part: str) -> str:
    """A readiness prompt whose question part, the question and its joined
    choices, is written as given."""
    return f"Question:{question_part} Given an ice cube is solid. Do you know the answer?"


def test_the_readiness_reader_reads_the_choices_after_the_last_question_mark():
    for question_part, choices in [
        ("Which word best describes the physical state of an ice cube? "
         "gas OR solid OR liquid OR plasma.", ("gas", "solid", "liquid", "plasma")),
        ("Is it? Which one? gas OR solid.", ("gas", "solid")),
        ("q? a OR b OR.", ("a", "b")),
        ("q? a OR b OR .", ("a", "b")),
        ("q? OR a OR b", ("a", "b")),
        ("q?OR a OR b", ("a", "b")),
        ("q? a OR b ORE.", ("a", "b ORE")),
        ("q? ORE a OR b", ("ORE a", "b")),
    ]:
        read = models._read_ready_prompt(_ready_prompt(question_part))
        assert read == (choices, "an ice cube is solid"), question_part


@pytest.mark.parametrize("question_part", [
    "Which state is an ice cube in: gas OR solid.",  # no "?"
    "Which state is an ice cube in? solid.",  # one choice
    "Which state is an ice cube in? solid OR.",
])
def test_a_readiness_prompt_without_two_choices_is_a_backend_error(question_part):
    with pytest.raises(models.BackendError, match="^readiness prompt without choices$"):
        OracleBackend().complete(
            CompletionRequest(GeneratorRole.HALTER_READY, _ready_prompt(question_part)))


def test_oracle_answer_role_reads_only_answer_prompts():
    ready, _ = format_halter_prompts(QUESTION, "the tiger likes the cow")
    with pytest.raises(models.BackendError, match="malformed answer prompt"):
        OracleBackend().complete(
            CompletionRequest(role=GeneratorRole.HALTER_ANSWER, prompt=ready)
        )


def test_oracle_answer_role_fails_when_no_choice_matches():
    backend = OracleBackend()
    question = "Which word best describes the physical state of an ice cube?"

    def answer(inference, choices):
        _, prompt = format_halter_prompts(question, inference, choices)
        return backend.complete(
            CompletionRequest(role=GeneratorRole.HALTER_ANSWER, prompt=prompt)
        ).text

    # No choice overlaps the inference, or two overlap it alike.
    for inference in ("a fly has six legs", "the ice is a solid or a gas"):
        with pytest.raises(models.BackendError, match="no choice matches the inference"):
            answer(inference, ("gas", "solid"))
    # A choice with no letters overlaps nothing, so the other one matches.
    assert answer("an ice cube is solid", ("42", "solid")) == " solid"


def test_a_selection_is_written_rule_first_then_in_label_order():
    assert models.render_selection([3, 23, 9, 9, 3]) == " sent 3. We know that sent 9 and sent 23."
    assert models.render_selection([4, 4]) == " sent 4."
    # Noise writes its labels as drawn, as a model's samples may.
    backend = ScriptedBackend(noise_rate=1.0, seed=7)
    req = CompletionRequest(GeneratorRole.SELECTION, format_selection_prompt(QUESTION, CTX), n=50)
    drawn = [[int(i) for i in re.findall(r"sent (\d+)", s)] for s in backend.complete(req).samples]
    assert any(labels != models.selection_order(labels) for labels in drawn)


def test_oracle_value_scores():
    backend = OracleBackend()
    good_reason = (
        "If something is kind then it likes the cow. "
        "We know that the tiger is kind. Therefore, the tiger likes the cow."
    )
    bad_reason = (
        "If something is kind then it likes the cow. "
        "We know that the cow is big. Therefore, the tiger likes the cow."
    )
    for reason, expected in ((good_reason, CORRECT), (bad_reason, INCORRECT)):
        prompt = format_value_prompt(value_prompt_head(CTX, QUESTION), reason)
        resp = backend.complete(
            CompletionRequest(
                role=GeneratorRole.VALUE,
                prompt=prompt,
                scored_continuations=(CORRECT, INCORRECT),
            )
        )
        assert resp.text == expected
        assert resp.continuation_logprobs[expected] == CERTAIN_GOOD
        other = INCORRECT if expected == CORRECT else CORRECT
        assert resp.continuation_logprobs[other] == CERTAIN_BAD


_GOOD = ("If something is kind then it likes the cow. "
         "We know that the tiger is kind. Therefore, the tiger likes the cow.")
_BAD = ("If something is kind then it likes the cow. "
        "We know that the cow is big. Therefore, the tiger likes the cow.")
_NOTHING = ("If something is kind then it likes the cow. "
            "We know that the cow is big. Therefore, nothing follows.")
# Two "Therefore," clauses: the line does not read back as a step.
_UNREADABLE = "the cow is big. Therefore, it is big. Therefore, the tiger is kind."


@pytest.mark.parametrize("lines, expected", [
    ((_BAD, _GOOD), CORRECT),
    ((_GOOD, _BAD), INCORRECT),
    ((_GOOD, _NOTHING), INCORRECT),
    ((_UNREADABLE, _GOOD), CORRECT),
    ((_GOOD, _UNREADABLE), INCORRECT),
], ids=["bad-good", "good-bad", "good-nothing", "unreadable-good", "good-unreadable"])
def test_value_verdict_is_the_verdict_on_the_newest_line(lines, expected):
    """The value oracle judges the newest step alone: correct, and a step
    of a shortest proof; earlier lines, readable or not, do not count."""
    backend = OracleBackend()

    def verdict(reason):
        return backend.complete(
            CompletionRequest(
                role=GeneratorRole.VALUE,
                prompt=format_value_prompt(value_prompt_head(CTX, QUESTION), reason),
                scored_continuations=(CORRECT, INCORRECT),
            )
        ).text

    assert verdict("\n".join(lines)) == verdict(lines[-1]) == expected


def test_value_request_requires_continuations():
    backend = OracleBackend()
    prompt = format_value_prompt(value_prompt_head(CTX, QUESTION),
                                 "the cow is big. Therefore, x.")
    with pytest.raises(models.BackendError):
        backend.complete(CompletionRequest(role=GeneratorRole.VALUE, prompt=prompt))


def test_value_scores_a_continuation_it_does_not_know_certain_bad():
    resp = OracleBackend().complete(
        CompletionRequest(
            role=GeneratorRole.VALUE,
            prompt=format_value_prompt(value_prompt_head(CTX, QUESTION), _GOOD),
            scored_continuations=(CORRECT, " maybe", INCORRECT),
        )
    )
    assert resp.text == CORRECT
    assert resp.continuation_logprobs == {
        CORRECT: CERTAIN_GOOD, INCORRECT: CERTAIN_BAD, " maybe": CERTAIN_BAD,
    }


_CHOICE_QUESTION = "Which animal likes the cow? the tiger OR the mouse"


def test_a_multiple_choice_selection_is_a_backend_error():
    """The oracle selects along the proof of a hypothesis.  A question with
    its choices in its own text has none, and the oracle cannot read it."""
    prompt = format_selection_prompt(_CHOICE_QUESTION, CTX)
    with pytest.raises(models.BackendError, match="^oracle cannot read the prompt: "
                       "question is not of the implication form"):
        OracleBackend().complete(CompletionRequest(GeneratorRole.SELECTION, prompt, n=5))


# The parent's value reader and verdict, kept as the reference for the
# oracle's, which reads each context once and parses a line only when its
# inference is on the proof.

def _reference_read_value_prompt(prompt):
    tail = " The above reasoning steps are"
    if not prompt.startswith("Context: ") or not prompt.endswith(tail):
        raise models.BackendError("malformed value prompt")
    body = prompt[len("Context: "): -len(tail)]
    try:
        ctx_text, rest = body.split(" Question: ", 1)
        question, reason = rest.split(" Reason: ", 1)
    except ValueError as exc:
        raise models.BackendError("malformed value prompt") from exc
    surfaces = [s for s in (p.strip() for p in ctx_text.split(". ")) if s]
    if surfaces and surfaces[-1].endswith("."):
        surfaces[-1] = surfaces[-1][:-1]
    return surfaces, question, reason


def _reference_judge_steps(oracle, surfaces, question, line):
    cnl.parse_question(question)
    try:
        step = parse_trace_text(line)
    except TraceParseError:
        return False
    world = oracle._world_for(surfaces)
    proof_keys = {key for key, _ in models._gold_steps(world, question)}
    return symbolic.is_proof_step(step, proof_keys)


def _reference_value_reply(oracle, request):
    """The parent oracle's whole answer to a value request."""
    try:
        surfaces, question, reason = _reference_read_value_prompt(request.prompt)
        good = _reference_judge_steps(
            oracle, tuple(surfaces), question, reason.rpartition("\n")[2])
    except (cnl.ParseError, EmptyStatement) as exc:
        raise models.BackendError(f"oracle cannot read the prompt: {exc}") from exc
    logprobs = {
        CORRECT: CERTAIN_GOOD if good else CERTAIN_BAD,
        INCORRECT: CERTAIN_BAD if good else CERTAIN_GOOD,
    }
    for c in request.scored_continuations:
        logprobs.setdefault(c, CERTAIN_BAD)
    return CompletionResponse((CORRECT if good else INCORRECT,), continuation_logprobs=logprobs)


def _outcome(answer, request):
    try:
        return answer(request)
    except Exception as exc:  # the error is part of what is compared
        return type(exc), str(exc)


def _value_request(prompt):
    return CompletionRequest(GeneratorRole.VALUE, prompt,
                             scored_continuations=(CORRECT, INCORRECT))


def _malformed_value_prompts(problem):
    """Value prompts around the first step of the gold proof, whose
    inference is on the proof: its line malformed six ways, the line
    itself, and the last two again under a context sentence without letters."""
    step = problem.gold_proof.steps[0]
    line = render_step(step)
    premises, _, inference = line.partition(" Therefore, ")
    facts = render_premises([s.surface for s in step.selection[1:]] or ["the cow is big"])
    first = step.selection[0].surface
    lines = [
        premises,  # no "Therefore,"
        f"{line} Therefore, {inference}",  # two of them
        f"{premises} Therefore, .",  # an empty inference
        f". We know that {facts} Therefore, {inference}",  # an empty premise
        f"{first}. We know that  and 42 and {facts} Therefore, {inference}",
        "Answer: True.",
        line,
    ]
    head = value_prompt_head(problem.context, problem.question)
    prompts = [format_value_prompt(head, text) for text in lines]
    prompts += [p.replace("Context: ", "Context: 42. ", 1) for p in prompts[-2:]]
    return prompts


def _noisy_value_prompts(problem, seed):
    """Every value prompt a noisy 4x4 beam search sends for the problem."""
    prompts = []
    backend = ScriptedBackend(base=OracleBackend(), noise_rate=0.3, seed=seed)

    class Recording:
        def complete(self, request):
            if request.role is GeneratorRole.VALUE:
                prompts.append(request.prompt)
            return backend.complete(request)

    engine.beam_search(problem, Recording(), engine.BeamConfig(4, 4))
    return prompts


def test_value_verdicts_are_the_reference_verdicts(pw_problems, pw_worst_problems):
    """On every value prompt of noisy beam searches, and on malformed lines
    and contexts, the oracle gives the reference's reply or raises its
    error, with one oracle per problem."""
    problems = datasets.generate_problem_set(11, {1: 3, 2: 3, 3: 3, 5: 3})
    compared = correct = 0
    for seed, problem in enumerate(problems + pw_problems + pw_worst_problems):
        prompts = _noisy_value_prompts(problem, seed) + _malformed_value_prompts(problem)
        oracle, reference = OracleBackend(), OracleBackend()
        for prompt in prompts:
            request = _value_request(prompt)
            expected = _outcome(lambda r: _reference_value_reply(reference, r), request)
            assert _outcome(oracle.complete, request) == expected, (problem.id, prompt)
            compared += 1
            correct += isinstance(expected, CompletionResponse) and expected.text == CORRECT
    # Both verdicts and the errors occur among the inputs.
    assert 0 < correct < compared


def test_a_non_hypothesis_question_fails_the_verdict_first(eb_problems):
    """A question that is no hypothesis raises before the line is read: a
    free-text one, and one with its choices in its own text."""
    problem = eb_problems[0]
    lines = ("the cow is big", render_step(problem.gold_proof.steps[0]), _GOOD)
    for head in (value_prompt_head(problem.context, problem.question),
                 value_prompt_head(CTX, _CHOICE_QUESTION)):
        for text in lines:
            request = _value_request(format_value_prompt(head, text))
            expected = _outcome(lambda r: _reference_value_reply(OracleBackend(), r), request)
            assert isinstance(expected, tuple)
            assert _outcome(OracleBackend().complete, request) == expected
    kind, message = expected
    assert kind is models.BackendError
    assert message.startswith(
        "oracle cannot read the prompt: question is not of the implication form")


def test_the_oracle_splits_a_value_context_once_per_problem(monkeypatch):
    problem = datasets.generate_problem_set(5, {3: 1})[0]
    prompts = _noisy_value_prompts(problem, 0)
    assert len(set(prompts)) > 1
    splits = []
    split = models._context_surfaces
    monkeypatch.setattr(models, "_context_surfaces", lambda text: splits.append(text) or split(text))
    backend = OracleBackend()

    def judge_all():
        for prompt in prompts:
            backend.complete(_value_request(prompt))

    judge_all()
    judge_all()
    assert len(splits) == 1
    other = LabeledContext.from_statements(["the cow is big", "the tiger is kind"])
    backend.complete(_value_request(format_value_prompt(value_prompt_head(other, QUESTION), _GOOD)))
    assert len(splits) == 2
    backend.reset()
    judge_all()
    assert len(splits) == 3
    assert splits[0] == splits[2] != splits[1]


def test_the_value_oracle_reads_the_base_world_before_it_splits_the_context():
    # "Mr. Smith is big" has ". " inside it, so the context text would split
    # into four sentences; the selection request has closed the three.
    context = LabeledContext.from_statements(
        ["Mr. Smith is big", "the dog is red", "If something is red then it is kind"])
    question = 'Does it imply that the statement "the dog is kind" is True?'
    backend = OracleBackend()
    backend.complete(CompletionRequest(GeneratorRole.SELECTION,
                                       format_selection_prompt(question, context)))
    step = ("If something is red then it is kind. We know that the dog is red. "
            "Therefore, the dog is kind.")
    reply = backend.complete(
        _value_request(format_value_prompt(value_prompt_head(context, question), step)))
    assert list(backend._worlds) == [tuple(s.surface for s in context.statements())]
    assert reply.continuation_logprobs[CORRECT] > reply.continuation_logprobs[INCORRECT]


# ---------------------------------------------------------------------------
# Role dispatch.
# ---------------------------------------------------------------------------

def _role_requests():
    """One request per role the engine sends to a PW problem."""
    return [
        CompletionRequest(GeneratorRole.SELECTION, format_selection_prompt(QUESTION, CTX), n=2),
        CompletionRequest(GeneratorRole.INFERENCE,
                          format_inference_prompt([CTX.lookup(1), CTX.lookup(3)])),
        CompletionRequest(GeneratorRole.HALTER_READY,
                          format_halter_prompts(QUESTION, "the tiger likes the cow")[0]),
        _value_request(format_value_prompt(value_prompt_head(CTX, QUESTION), _GOOD)),
    ]


@pytest.mark.parametrize("request_", _role_requests(), ids=lambda r: r.role.value)
def test_a_role_given_as_its_string_gets_the_members_reply(request_):
    as_string = replace(request_, role=request_.role.value)
    assert as_string.role is request_.role
    assert OracleBackend().complete(as_string) == OracleBackend().complete(request_)
    scripted = ScriptedBackend(base=OracleBackend())
    assert scripted.complete(as_string) == OracleBackend().complete(request_)


def test_noise_replaces_a_selection_given_as_its_string():
    class Refusing:
        def complete(self, request):
            raise AssertionError("noise 1.0 leaves nothing to the base")

    request = _role_requests()[0]
    replies = [
        ScriptedBackend(base=Refusing(), noise_rate=1.0, seed=4).complete(req)
        for req in (request, replace(request, role="selection"))
    ]
    assert replies[0] == replies[1]
    assert len(replies[0].samples) == request.n


@pytest.mark.parametrize("backend", [
    OracleBackend(),
    ScriptedBackend(base=OracleBackend()),
    ScriptedBackend(base=OracleBackend(), noise_rate=0.5),
    ScriptedBackend(),
], ids=["oracle", "scripted", "noisy", "no-base"])
@pytest.mark.parametrize("n", [1, 0])
def test_an_unknown_role_is_a_value_error(backend, n):
    with pytest.raises(ValueError, match="'verdict' is not a valid GeneratorRole"):
        backend.complete(CompletionRequest("verdict", "Given x. y", n=n))


@pytest.mark.parametrize("role", [GeneratorRole.HALTER_READY, "halter_ready", "verdict", ["value"]],
                         ids=["member", "value", "unknown", "unhashable"])
def test_a_role_reads_as_the_enum_reads_it(role):
    """A request reads its role as `GeneratorRole(role)` reads it: the member,
    or the same ValueError, which the wire reports as a bad document."""
    doc = json.dumps({"role": role, "prompt": "p", "scored_continuations": None, "n": 1})
    try:
        expected = GeneratorRole(role)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            CompletionRequest(role, "p")
        assert str(got.value) == str(exc)
        with pytest.raises(RemoteError) as got:
            decode_request(doc.encode())
        assert str(got.value) == f"bad request document: {exc}"
    else:
        assert CompletionRequest(role, "p").role is expected
        assert decode_request(doc.encode()).role is expected


def test_a_value_handler_patched_on_the_class_answers(monkeypatch):
    reply = CompletionResponse((" patched",))
    monkeypatch.setattr(OracleBackend, "_complete_value", lambda self, request: reply)
    backend = ScriptedBackend(base=OracleBackend())
    assert backend.complete(_role_requests()[-1]) is reply
    assert backend.complete(replace(_role_requests()[-1], role="value")) is reply


def test_an_inference_prompt_keeps_a_later_rule_with_and_whole():
    selection = [normalize_statement(s) for s in (
        "the dog likes the tiger",
        "If someone likes the tiger and they are big then they are not green",
        "the dog is big",
    )]
    assert symbolic.infer(selection).surface == "the dog is not green"
    request = CompletionRequest(GeneratorRole.INFERENCE, format_inference_prompt(selection))
    assert OracleBackend().complete(request).text == " the dog is not green."


# ---------------------------------------------------------------------------
# Scripted backend.
# ---------------------------------------------------------------------------

def test_scripted_replays_fifo_and_exhausts():
    backend = ScriptedBackend(
        script={GeneratorRole.SELECTION: [" sent 1. We know that sent 3.", ""]}
    )
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt="sent 1: a\nQuestion: q\nSelection:")
    assert backend.complete(req).text == " sent 1. We know that sent 3."
    assert backend.complete(req).text == ""
    with pytest.raises(ScriptExhausted):
        backend.complete(req)


def test_scripted_with_neither_script_nor_base_has_nothing_to_give():
    request = CompletionRequest(GeneratorRole.INFERENCE, "p Therefore,")
    with pytest.raises(ScriptExhausted, match="no script and no base backend for inference"):
        ScriptedBackend().complete(request)


def test_scripted_falls_through_to_base():
    backend = ScriptedBackend(base=OracleBackend())
    prompt = format_inference_prompt(
        [
            Statement("If something is kind then it likes the cow"),
            Statement("the tiger is kind"),
        ]
    )
    resp = backend.complete(
        CompletionRequest(role=GeneratorRole.INFERENCE, prompt=prompt)
    )
    assert resp.text == " the tiger likes the cow."


class _Stub:
    """A base backend that answers every request with one reply object."""

    def __init__(self) -> None:
        self.reply = CompletionResponse(("stub",))
        self.requests: list[CompletionRequest] = []

    def reset(self) -> None:
        pass

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.requests.append(request)
        return self.reply


@pytest.mark.parametrize("role, noise", [
    (GeneratorRole.SELECTION, 0.0),
    (GeneratorRole.INFERENCE, 0.0),
    (GeneratorRole.INFERENCE, 1.0),
    (GeneratorRole.VALUE, 1.0),
])
def test_a_request_the_scripted_layer_leaves_alone_gets_the_bases_reply(role, noise):
    base = _Stub()
    backend = ScriptedBackend(base=base, noise_rate=noise, seed=3)
    request = CompletionRequest(role, format_selection_prompt(QUESTION, CTX), n=3)
    assert backend.complete(request) is base.reply
    assert base.requests == [request] and base.requests[0] is request


def test_a_scripted_role_drains_its_queue_before_its_base():
    base = _Stub()
    backend = ScriptedBackend(base=base, script={GeneratorRole.INFERENCE: ["a", "b"]})
    request = CompletionRequest(GeneratorRole.INFERENCE, "p Therefore,")
    assert [backend.complete(request).text for _ in range(2)] == ["a", "b"]
    with pytest.raises(ScriptExhausted):
        backend.complete(request)
    assert base.requests == []
    assert backend.complete(replace(request, role=GeneratorRole.HALTER_READY)) is base.reply


def test_noise_reads_the_selection_prompt_once_per_request(monkeypatch):
    read = models._read_selection_prompt
    calls = []
    monkeypatch.setattr(models, "_read_selection_prompt",
                        lambda prompt: calls.append(prompt) or read(prompt))
    backend = ScriptedBackend(noise_rate=1.0, seed=3)
    prompt = format_selection_prompt(QUESTION, CTX)
    samples = backend.complete(CompletionRequest(GeneratorRole.SELECTION, prompt, n=6)).samples
    assert len(samples) == 6 and all(s.startswith(" sent ") for s in samples)
    assert calls == [prompt]


def test_scripted_noise_is_seeded_and_well_formed():
    prompt = format_selection_prompt(QUESTION, CTX)
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt=prompt)

    def run(seed):
        backend = ScriptedBackend(base=OracleBackend(), noise_rate=1.0, seed=seed)
        return [backend.complete(req).text for _ in range(8)]

    a, b = run(7), run(7)
    assert a == b
    assert run(8) != a
    for text in a:
        assert text.startswith(" sent ")


def test_scripted_queue_gives_up_to_n_items_per_request():
    backend = ScriptedBackend(script={GeneratorRole.SELECTION: ["a", "b", "c"]})
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt="p", n=2)
    assert backend.complete(req).samples == ("a", "b")
    assert backend.complete(req).samples == ("c",)
    with pytest.raises(ScriptExhausted):
        backend.complete(req)


class _OneRequestPerProposal:
    """The scripted noise stream as it was when each proposal was its own
    request: per proposal, one draw decides between a random label sentence
    over the prompt's sentences and the oracle's next candidate."""

    def __init__(self, seed: int, noise_rate: float) -> None:
        self.seed, self.noise_rate, self.resets = seed, noise_rate, 0
        self.rng = random.Random()
        self.oracle = OracleBackend()

    def reset(self) -> None:
        self.rng.seed(repr(("scripted", self.seed + self.resets)))
        self.resets += 1
        self.oracle.reset()

    def propose(self, request: CompletionRequest) -> str:
        if self.rng.random() >= self.noise_rate:
            return self.oracle.complete(replace(request, n=1)).text
        size = len(request.prompt.split("\n")) - 2
        if size < 2:
            return ""
        rule = self.rng.randint(1, size)
        premises = [self.rng.randint(1, size) for _ in range(self.rng.choice([1, 2]))]
        return " " + render_premises([f"sent {i}" for i in [rule] + premises])


def test_noisy_scripted_beam_proposes_what_one_request_per_proposal_did():
    """Under noise 0.3, each batched selection request of a beam gives the
    proposals, in order, that the old stream gave for the same number of
    one-proposal requests."""
    from sireason import datasets, evalcli

    problems = datasets.generate_problem_set(21, {1: 2, 2: 3, 3: 3, 5: 2})
    cfg = evalcli.SolverConfig(backend="scripted", noise_rate=0.3, seed=11)
    log: list = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            response = self.inner.complete(request)
            if request.role is GeneratorRole.SELECTION:
                log.append((request, response.samples))
            return response

    backend = evalcli.make_backend(cfg)
    reference = _OneRequestPerProposal(cfg.seed * 1000003, cfg.noise_rate)
    exhausted = 0
    for problem in problems:
        backend.reset()
        reference.reset()
        del log[:]
        engine.beam_search(problem, Recording(backend), engine.BeamConfig(4, 4))
        assert log and all(request.n == 4 for request, _ in log)
        for request, samples in log:
            texts = [reference.propose(request) for _ in range(request.n)]
            # An exhausted oracle answered each request with "", and now
            # gives fewer samples.
            assert [t for t in texts if t] == [t for t in samples if t]
            exhausted += len(samples) < request.n
    assert exhausted > 0


def test_scripted_rejects_bad_noise_rate():
    with pytest.raises(ValueError):
        ScriptedBackend(noise_rate=1.5)


# ---------------------------------------------------------------------------
# Wire protocol.
# ---------------------------------------------------------------------------

def test_request_wire_format_is_stable():
    req = CompletionRequest(
        role=GeneratorRole.VALUE,
        prompt="p",
        scored_continuations=(CORRECT, INCORRECT),
    )
    data = encode_request(req)
    assert data == (
        b'{"n": 1, '
        b'"prompt": "p", '
        b'"role": "value", '
        b'"scored_continuations": [" correct", " incorrect"]}\n'
    )
    back = decode_request(data)
    assert back == req


def test_response_wire_format_is_stable():
    resp = CompletionResponse(
        (" True",), continuation_logprobs={" True": 0.0, " False": -1e9}
    )
    data = encode_response(resp)
    assert data == (
        b'{"continuation_logprobs": {" False": -1000000000.0, " True": 0.0}, '
        b'"samples": [" True"]}\n'
    )
    assert decode_response(data) == resp


def test_every_request_carries_n_and_every_reply_its_samples():
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt="p", n=3)
    data = encode_request(req)
    assert data == b'{"n": 3, "prompt": "p", "role": "selection", "scored_continuations": null}\n'
    assert decode_request(data) == req
    assert encode_response(CompletionResponse(())) == (
        b'{"continuation_logprobs": null, "samples": []}\n'
    )
    for samples in [(" a", " b"), ("",), ()]:
        resp = CompletionResponse(samples)
        assert decode_response(encode_response(resp)) == resp
    # `text` is the first sample, or "" when there is none.
    assert CompletionResponse((" a", " b")).text == " a"
    assert CompletionResponse(("",)).text == CompletionResponse(()).text == ""


@pytest.mark.parametrize("n", [0, -1, True, "2", 1.0, None])
def test_decode_request_refuses_a_bad_n(n):
    doc = {"role": "selection", "prompt": "p", "scored_continuations": None, "n": n}
    with pytest.raises(RemoteError, match="bad request document"):
        decode_request(json.dumps(doc).encode())


@pytest.mark.parametrize("field, value", [
    ("prompt", 5),
    ("prompt", None),
    ("prompt", ["p"]),
    ("scored_continuations", "ab"),
    ("scored_continuations", [1, 2]),
    ("scored_continuations", {" correct": 0}),
    ("n", "missing"),
])
def test_decode_request_refuses_a_mistyped_field(field, value, capfd):
    doc = {"role": "value", "prompt": "p", "scored_continuations": None, "n": 1}
    if value == "missing":
        del doc[field]
    else:
        doc[field] = value
    line = json.dumps(doc).encode() + b"\n"
    with pytest.raises(RemoteError, match="bad request document"):
        decode_request(line)
    # The server answers it with an error document, and prints nothing.
    out = io.BytesIO()
    serve(OracleBackend(), [line], out)
    assert json.loads(out.getvalue())["error"].startswith("RemoteError: bad request document")
    assert capfd.readouterr().err == ""


# A document nested deeper than the JSON parser goes.
NESTED = b"[" * 100_000


@pytest.mark.parametrize("read, message", [
    (decode_request, "bad request document"),
    (decode_response, "bad response document"),
    (models._load_reply, "bad response document"),
])
def test_a_nested_document_is_a_bad_document(read, message):
    with pytest.raises(RemoteError, match=message):
        read(NESTED)


def test_serve_answers_a_nested_request_with_an_error_document(capfd):
    out = io.BytesIO()
    serve(OracleBackend(), [NESTED + b"\n"], out)
    assert json.loads(out.getvalue())["error"].startswith("RemoteError: bad request document")
    assert capfd.readouterr().err == ""


_WIRE_DOCS = {
    "request": {"role": "value", "prompt": "p", "scored_continuations": None, "n": 1},
    "response": {"samples": [], "continuation_logprobs": None},
}


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, doc in _WIRE_DOCS.items() for field in doc
])
def test_a_missing_wire_field_is_named(kind, field):
    decode = decode_request if kind == "request" else decode_response
    doc = {k: v for k, v in _WIRE_DOCS[kind].items() if k != field}
    with pytest.raises(RemoteError) as exc:
        decode(json.dumps(doc).encode() + b"\n")
    assert str(exc.value) == f"bad {kind} document: missing field {field!r}"


@pytest.mark.parametrize("reply, missing", [
    (b'{"continuation_logprobs": null, "samples": [" correct"]}', [CORRECT, INCORRECT]),
    (b'{"continuation_logprobs": {" correct": 0.0}, "samples": [" correct"]}', [INCORRECT]),
], ids=["null", "one-missing"])
def test_remote_backend_refuses_a_reply_without_the_asked_logprobs(reply, missing):
    class Fixed:
        def exchange(self, payload):
            return reply + b"\n"

    request = CompletionRequest(
        role=GeneratorRole.VALUE, prompt="p", scored_continuations=(CORRECT, INCORRECT)
    )
    with pytest.raises(RemoteError) as exc:
        RemoteBackend(Fixed()).complete(request)
    assert str(exc.value) == f"response missing logprobs for {missing!r}"


@pytest.mark.parametrize("reply, n, match", [
    (b'{"continuation_logprobs": null, "samples": ["a", "b", "c"]}', 2,
     "3 samples in reply to a request for 2"),
    (b'{"continuation_logprobs": null, "samples": ["a", "b"]}', 1,
     "2 samples in reply to a request for 1"),
    (b'{"continuation_logprobs": null, "samples": ["a", 5]}', 2,
     "bad response document"),
    (b'{"continuation_logprobs": null, "samples": "ab"}', 2,
     "bad response document"),
    (b'{"continuation_logprobs": null, "samples": null}', 2,
     "bad response document"),
    # The reply of an older server, with `text` and no `samples`.
    (b'{"continuation_logprobs": null, "text": "a"}', 1,
     "bad response document"),
], ids=["too-many", "too-many-for-one", "not-strings", "not-a-list", "null", "old-shape"])
def test_remote_backend_refuses_bad_samples(reply, n, match):
    class Fixed:
        def exchange(self, payload):
            return reply + b"\n"

    request = CompletionRequest(role=GeneratorRole.SELECTION, prompt="p", n=n)
    with pytest.raises(RemoteError, match=match):
        RemoteBackend(Fixed()).complete(request)


def test_decode_request_rejects_garbage():
    with pytest.raises(RemoteError):
        decode_request(b"not json\n")
    with pytest.raises(RemoteError):
        decode_request(b'{"role": "value"}\n')


def test_serve_round_trip_in_memory():
    req = CompletionRequest(
        role=GeneratorRole.INFERENCE,
        prompt=format_inference_prompt(
            [
                Statement("If something is kind then it likes the cow"),
                Statement("the tiger is kind"),
            ]
        ),
    )
    rfile = io.BytesIO(encode_request(req))
    wfile = io.BytesIO()
    serve(OracleBackend(), rfile, wfile)
    resp = decode_response(wfile.getvalue())
    assert resp.text == " the tiger likes the cow."


def test_pipe_backend_end_to_end(pipe_spawns):
    backend = RemoteBackend(PipeTransport())
    try:
        prompt = format_selection_prompt(QUESTION, CTX)
        resp = backend.complete(
            CompletionRequest(role=GeneratorRole.SELECTION, prompt=prompt)
        )
        assert resp.text == " sent 1. We know that sent 3."
        value_prompt = format_value_prompt(
            value_prompt_head(CTX, QUESTION),
            "If something is kind then it likes the cow. "
            "We know that the tiger is kind. Therefore, the tiger likes the cow.",
        )
        resp = backend.complete(
            CompletionRequest(
                role=GeneratorRole.VALUE,
                prompt=value_prompt,
                scored_continuations=(CORRECT, INCORRECT),
            )
        )
        assert resp.continuation_logprobs[CORRECT] == CERTAIN_GOOD
    finally:
        backend.close()
    backend.close()  # closing twice is harmless
    assert pipe_spawns[0].returncode == 0


def test_remote_backend_matches_local_oracle(pw_problems, pipe_spawns):
    problem = pw_problems[6]  # single-step problem
    remote = RemoteBackend(PipeTransport())
    try:
        local_answer, local_trace = engine.si_answer(problem, OracleBackend())
        remote_answer, remote_trace = engine.si_answer(problem, remote)
    finally:
        remote.close()
    assert remote_answer == local_answer
    assert [s.inference for s in remote_trace.steps] == [
        s.inference for s in local_trace.steps
    ]


# ---------------------------------------------------------------------------
# One server for many problems: reset, error documents, lifetime.
# ---------------------------------------------------------------------------

def _inference_request(adjective: str) -> CompletionRequest:
    return CompletionRequest(
        role=GeneratorRole.INFERENCE,
        prompt=format_inference_prompt(
            [
                Statement(f"If something is kind then it is {adjective}"),
                Statement("the tiger is kind"),
            ]
        ),
    )


def test_reset_and_error_documents_on_the_wire():
    assert decode_request(RESET_DOCUMENT) is None
    assert json.loads(RESET_DOCUMENT) == {"reset": True}
    error = encode_error(models.BackendError("malformed selection prompt"))
    assert json.loads(error) == {"error": "BackendError: malformed selection prompt"}
    with pytest.raises(RemoteError, match="malformed selection prompt"):
        decode_response(error)
    with pytest.raises(RemoteError):
        decode_response(b'{"text": " ok", "continuation_logprobs": [0.0]}\n')


def test_serve_answers_bad_lines_with_error_documents_and_reads_on():
    selection = CompletionRequest(
        role=GeneratorRole.SELECTION, prompt=format_selection_prompt(QUESTION, CTX)
    )
    bad_selection = CompletionRequest(role=GeneratorRole.SELECTION, prompt="no prompt")
    eb_halter = CompletionRequest(
        role=GeneratorRole.HALTER_READY,
        prompt="Given the sun is a star. What is the sun?",
    )
    malformed = [_malformed_request(role, prompt) for role, prompt, _ in _MALFORMED_PROMPTS]
    rfile = io.BytesIO(
        b"not json\n"
        + encode_request(selection)
        + encode_request(bad_selection)
        + encode_request(eb_halter)
        + b"".join(map(encode_request, malformed))
        + encode_request(selection)
        + RESET_DOCUMENT
        + encode_request(selection)
    )
    wfile = io.BytesIO()
    serve(OracleBackend(), rfile, wfile)
    replies = wfile.getvalue().splitlines(keepends=True)
    assert len(replies) == 7 + len(malformed)
    for i in (0, 2, 3):
        assert "error" in json.loads(replies[i]), replies[i]
    errors = [json.loads(reply)["error"] for reply in replies[4:4 + len(malformed)]]
    assert errors == [f"BackendError: {message}" for _, _, message in _MALFORMED_PROMPTS]
    replies[4:4 + len(malformed)] = []
    first = decode_response(replies[1]).text
    assert first == " sent 1. We know that sent 3."
    # The bad lines left the cursor alone: the repeat walks on, and only
    # the reset takes it back to the first candidate.
    assert decode_response(replies[4]).text != first
    assert replies[5] == RESET_DOCUMENT
    assert decode_response(replies[6]).text == first


# Prompts the oracle's readers refuse, one per guard: (role, prompt, error).
_MALFORMED_PROMPTS = [
    (GeneratorRole.SELECTION,
     "sent 1: the cat is big\nsent 3: the cat is red\nQuestion: q\nSelection:",
     "malformed sentence line 2"),
    (GeneratorRole.HALTER_READY, "Question:Which? gas OR solid. Do you know the answer?",
     "malformed readiness prompt"),
    (GeneratorRole.HALTER_READY, "the cat is big. Is it?", "malformed halting prompt"),
    (GeneratorRole.HALTER_READY, "Given the cat is big", "malformed halting prompt"),
    (GeneratorRole.VALUE, "Reason: x The above reasoning steps are", "malformed value prompt"),
    (GeneratorRole.VALUE, "Context: the cat is big. Reason: x The above reasoning steps are",
     "malformed value prompt"),
]


def _malformed_request(role: GeneratorRole, prompt: str) -> CompletionRequest:
    continuations = (CORRECT, INCORRECT) if role is GeneratorRole.VALUE else None
    return CompletionRequest(role, prompt, scored_continuations=continuations)


@pytest.mark.parametrize("role, prompt, message", _MALFORMED_PROMPTS, ids=[
    "sentence-line", "readiness-without-given", "halting-without-given",
    "halting-without-question", "value-without-context", "value-without-question"])
def test_the_oracle_refuses_a_malformed_prompt(role, prompt, message):
    with pytest.raises(models.BackendError) as exc:
        OracleBackend().complete(_malformed_request(role, prompt))
    assert str(exc.value) == message


def test_serve_skips_blank_lines_and_reads_on_past_a_program_error(capfd):
    """A blank line gets no reply.  An error that is no `BackendError` gets
    an error document and its traceback on stderr, and the next request is
    answered."""

    class FailsOnce(OracleBackend):
        failed = False

        def complete(self, request):
            if not self.failed:
                self.failed = True
                raise RuntimeError("a fault in the backend")
            return super().complete(request)

    request = encode_request(_inference_request("red"))
    wfile = io.BytesIO()
    serve(FailsOnce(), io.BytesIO(b"\n  \n" + request + b"\n" + request), wfile)
    error, reply = wfile.getvalue().splitlines(keepends=True)
    assert json.loads(error) == {"error": "RuntimeError: a fault in the backend"}
    assert decode_response(reply).text == " the tiger is red."
    err = capfd.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: a fault in the backend" in err


def test_pipe_server_survives_bad_request(pipe_spawns):
    transport = PipeTransport()
    backend = RemoteBackend(transport)
    try:
        assert "error" in json.loads(transport.exchange(b"not json\n"))
        with pytest.raises(RemoteError, match="malformed selection prompt"):
            backend.complete(
                CompletionRequest(role=GeneratorRole.SELECTION, prompt="no prompt")
            )
        assert backend.complete(_inference_request("red")).text == " the tiger is red."
    finally:
        backend.close()
    assert len(pipe_spawns) == 1


def test_remote_reset_restarts_the_selection_walk(pipe_spawns):
    backend = RemoteBackend(PipeTransport())
    request = CompletionRequest(
        role=GeneratorRole.SELECTION, prompt=format_selection_prompt(QUESTION, CTX)
    )
    try:
        first = backend.complete(request).text
        assert backend.complete(request).text != first
        backend.reset()
        assert backend.complete(request).text == first
    finally:
        backend.close()
    assert len(pipe_spawns) == 1


def test_pipe_transport_one_exchange_at_a_time(pipe_spawns):
    """More threads than cores share one pipe; each gets its own replies."""
    adjectives = ["red", "blue", "green", "big", "small", "round", "young", "cold"]
    oracle = OracleBackend()
    expected = {a: encode_response(oracle.complete(_inference_request(a))) for a in adjectives}
    assert len(set(expected.values())) == len(adjectives)
    transport = PipeTransport()
    mismatches: list = []

    def worker(adjective):
        payload = encode_request(_inference_request(adjective))
        for _ in range(25):
            reply = transport.exchange(payload)
            if reply != expected[adjective]:
                mismatches.append((adjective, reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        transport.exchange(encode_request(_inference_request("red")))
        threads = [threading.Thread(target=worker, args=(a,)) for a in adjectives]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
        transport.close()
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


# ---------------------------------------------------------------------------
# The transport and the backend against the servers of `faults.py`; the
# fault matrix of `test_remote_runs.py` runs the same faults through a solver.
# ---------------------------------------------------------------------------

def _fault_backend(fault: str, tmp_path) -> RemoteBackend:
    return RemoteBackend(PipeTransport(faults.argv(fault, tmp_path / "starts")))


def _request_of(role: str) -> CompletionRequest:
    if role == "inference":
        return _inference_request("red")
    if role == "selection":
        return CompletionRequest(
            role=GeneratorRole.SELECTION, prompt=format_selection_prompt(QUESTION, CTX)
        )
    return CompletionRequest(
        role=GeneratorRole.VALUE,
        prompt=format_value_prompt(value_prompt_head(CTX, QUESTION),
                                   "We know that the tiger is kind."),
        scored_continuations=(CORRECT, INCORRECT),
    )


@pytest.mark.parametrize("fault", list(faults.MISTYPED))
def test_a_mistyped_reply_is_a_counted_backend_failure(tmp_path, pipe_spawns, fault):
    """A mistyped reply raises, is not retried, and the server answers on."""
    backend = _fault_backend(fault, tmp_path)
    try:
        for role in ("selection", "inference", "value"):
            if role == faults.MISTYPED[fault][0]:
                with pytest.raises(RemoteError, match="bad response document"):
                    backend.complete(_request_of(role))
            else:
                backend.complete(_request_of(role))
    finally:
        backend.close()
    assert len(pipe_spawns) == 1
    assert pipe_spawns[0].returncode == 0


def test_remote_backend_retries_then_gives_up(tmp_path, monkeypatch, pipe_spawns):
    """Each server answers once and dies on the next request: one retry
    starts the next server, until the transport gives up."""
    monkeypatch.setattr(models, "RETRIES", 1)
    backend = _fault_backend("exit:1", tmp_path)
    try:
        for _ in range(1 + models.RESPAWN_LIMIT):
            assert backend.complete(_inference_request("red")).text == " the tiger is red."
        with pytest.raises(RemoteError, match="retry budget exhausted: .* not restarted"):
            backend.complete(_inference_request("red"))
    finally:
        backend.close()
    assert len(pipe_spawns) == 1 + models.RESPAWN_LIMIT


@pytest.mark.parametrize("fault", ["silent", "partial-line"])
def test_a_server_that_never_replies_in_time_is_killed_once(
    tmp_path, monkeypatch, pipe_spawns, fault
):
    """A missed deadline kills the server and raises, with no hang; a
    server that never answered is not started again."""
    monkeypatch.setattr(models, "REPLY_WAIT_S", 0.3)
    backend = _fault_backend(fault, tmp_path)
    start = time.monotonic()
    try:
        for _ in range(3):
            with pytest.raises(RemoteError, match="no reply within 0.3 s"):
                backend.complete(_inference_request("red"))
    finally:
        backend.close()
    assert time.monotonic() - start < 5
    assert len(pipe_spawns) == 1
    assert pipe_spawns[0].returncode == -signal.SIGKILL


def test_a_silent_server_is_a_counted_backend_failure(
    pw_problems, tmp_path, monkeypatch, pipe_spawns
):
    monkeypatch.setattr(models, "REPLY_WAIT_S", 0.3)
    backend = _fault_backend("silent", tmp_path)
    stats = engine.SolveStats()
    try:
        answer, _, _ = engine.beam_search(
            pw_problems[0], backend, engine.BeamConfig(2, 2), stats
        )
    finally:
        backend.close()
    assert answer.is_unknown
    assert stats.backend_failures == 1
    assert "no reply within 0.3 s before its first answer" in stats.notes[0]
    assert len(pipe_spawns) == 1


def test_a_server_that_keeps_dying_is_restarted_a_bounded_number_of_times(
    pw_problems, tmp_path, pipe_spawns
):
    """Every server answers once and dies: the transport starts at most
    1 + RESPAWN_LIMIT of them, then fails each exchange at once, and the
    engine counts that as a backend failure."""
    backend = _fault_backend("exit:1", tmp_path)
    outcomes = []
    start = time.monotonic()
    try:
        for _ in range(2 * (models.RESPAWN_LIMIT + 1)):
            try:
                outcomes.append(backend.complete(_inference_request("red")).text)
            except RemoteError as exc:
                outcomes.append(str(exc))
        stats = engine.SolveStats()
        answer, _, _ = engine.beam_search(
            pw_problems[0], backend, engine.BeamConfig(2, 2), stats
        )
    finally:
        backend.close()
    assert time.monotonic() - start < 10
    answered = models.RESPAWN_LIMIT + 1
    assert outcomes[:answered] == [" the tiger is red."] * answered
    assert all(f"restarted {models.RESPAWN_LIMIT} times already" in o
               for o in outcomes[answered:])
    assert len(pipe_spawns) == answered
    assert answer.is_unknown
    assert stats.backend_failures == 1
    assert "not restarted" in stats.notes[0]


def test_pipe_transport_close_kills_a_server_that_does_not_exit(
    tmp_path, monkeypatch, pipe_spawns
):
    monkeypatch.setattr(models, "CLOSE_WAIT_S", 0.2)
    transport = PipeTransport(faults.argv("ignore-eof", tmp_path / "starts"))
    reply = transport.exchange(encode_request(_inference_request("red")))
    assert decode_response(reply).text == " the tiger is red."
    transport.close()
    assert pipe_spawns[0].returncode is not None
    transport.close()
    assert len(pipe_spawns) == 1


def test_close_kills_a_server_that_ignores_the_end_of_its_input(
    tmp_path, monkeypatch, pipe_spawns
):
    monkeypatch.setattr(models, "CLOSE_WAIT_S", 0.2)
    backend = _fault_backend("ignore-eof", tmp_path)
    assert backend.complete(_inference_request("red")).text == " the tiger is red."
    start = time.monotonic()
    backend.close()
    assert time.monotonic() - start < 5
    assert pipe_spawns[0].returncode == -signal.SIGKILL


def test_closing_the_bundled_server_never_sleeps(monkeypatch, pipe_spawns):
    """The server exits as soon as its input ends, and `close()` waits for
    the end of its output, not on a polling timer."""
    transport = PipeTransport()
    transport.exchange(encode_request(_inference_request("red")))

    def no_sleep(seconds):
        raise AssertionError(f"slept {seconds} s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    transport.close()
    assert pipe_spawns[0].returncode == 0


# ---------------------------------------------------------------------------
# The bundled server is a fork of the client.
# ---------------------------------------------------------------------------

def test_a_forked_server_holds_no_copy_of_another_ones_pipes(monkeypatch, pipe_spawns):
    """With two bundled servers alive, closing the first ends its input at
    once: the second, forked later, closed its copies of the first one's
    pipes, so the first exits 0 without waiting out CLOSE_WAIT_S."""
    monkeypatch.setattr(models, "CLOSE_WAIT_S", 30.0)
    first, second = PipeTransport(), PipeTransport()
    payload = encode_request(_inference_request("red"))
    try:
        first.exchange(payload)
        second.exchange(payload)
        start = time.monotonic()
        first.close()
        assert time.monotonic() - start < 5
        assert pipe_spawns[0].returncode == 0
        assert decode_response(second.exchange(payload)).text == " the tiger is red."
    finally:
        first.close()
        second.close()
    assert [p.returncode for p in pipe_spawns] == [0, 0]


def test_a_fork_leaves_the_clients_buffered_output_and_exit_hooks_alone(tmp_path):
    """Text still in the client's `sys.stdout` buffer when the server is
    forked, and the client's atexit hook and `weakref.finalize` callback,
    reach the client's output once, from the client, and never the reply
    stream."""
    client = (
        "import atexit, sys, weakref\n"
        "from sireason import models\n"
        "sys.stdout.write('unflushed;')\n"
        "atexit.register(sys.stdout.write, 'atexit;')\n"
        "weakref.finalize(models, sys.stdout.write, 'finalize;')\n"
        "transport = models.PipeTransport()\n"
        "sys.stderr.write(repr(transport.exchange(models.RESET_DOCUMENT)))\n"
        "transport.close()\n"
    )
    run = subprocess.run([sys.executable, "-c", client], capture_output=True,
                         cwd=tmp_path, timeout=60, check=True)
    assert run.stderr.decode() == repr(RESET_DOCUMENT)
    assert run.stdout.decode() == "unflushed;finalize;atexit;"


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "exec"])
def test_a_server_killed_after_each_answer_is_restarted_up_to_the_limit(
    tmp_path, pipe_spawns, forked
):
    """A bundled server that dies is restarted under RESPAWN_LIMIT exactly
    as a server run as a command is."""
    transport = PipeTransport(None if forked else faults.argv("none", tmp_path / "starts"))
    payload = encode_request(_inference_request("red"))
    outcomes = []
    try:
        for _ in range(models.RESPAWN_LIMIT + 3):
            try:
                outcomes.append(decode_response(transport.exchange(payload)).text)
            except RemoteError as exc:
                outcomes.append(str(exc))
            else:
                pipe_spawns[-1].kill()
                pipe_spawns[-1].wait()
    finally:
        transport.close()
    answered = models.RESPAWN_LIMIT + 1
    assert outcomes[:answered] == [" the tiger is red."] * answered
    assert all(f"restarted {models.RESPAWN_LIMIT} times already" in o
               for o in outcomes[answered:])
    assert [p.returncode for p in pipe_spawns] == [-signal.SIGKILL] * answered


# ---------------------------------------------------------------------------
# What a server loads.
# ---------------------------------------------------------------------------

def test_the_server_module_loads_only_what_it_serves(tmp_path, monkeypatch):
    """The standalone server, `python3 -S -m sireason.models` with PYTHONPATH
    set, answers a request and a bad one, and loads the four modules it
    serves and neither `site`, the client's `subprocess` and `select`,
    `traceback`, nor an HTTP client."""
    monkeypatch.chdir(tmp_path)
    # Every module the served session loads, on stderr.
    monkeypatch.setenv("PYTHONVERBOSE", "1")
    request = _inference_request("red")
    run = subprocess.run(
        [sys.executable, "-S", "-m", "sireason.models"],
        input=encode_request(request) + encode_request(replace(request, n=0)),
        capture_output=True, timeout=60, check=True,
    )
    first, second = run.stdout.splitlines(keepends=True)
    assert decode_response(first).text == " the tiger is red."
    with pytest.raises(RemoteError, match="bad request document"):
        decode_response(second)
    lines = run.stderr.decode().splitlines()
    assert not [line for line in lines if "Warning" in line]
    loaded = {m.group(1) for m in map(re.compile(r"import '([\w.]+)'").match, lines) if m}
    # `-m` runs `sireason.models` as `__main__`, not under its own name.
    assert {m for m in loaded if m.startswith("sireason")} == {
        "sireason", "sireason.cnl", "sireason.core", "sireason.symbolic"}
    assert not loaded & {"site", "subprocess", "select", "traceback",
                         "urllib.request", "http.client", "email", "ssl"}


def test_a_pipe_server_starts_without_warnings(capfd):
    backend = RemoteBackend(PipeTransport())
    try:
        assert backend.complete(_inference_request("red")).text == " the tiger is red."
    finally:
        backend.close()
    assert capfd.readouterr().err == ""


def test_package_exports_resolve():
    import sireason
    from sireason import Answer, BeamConfig, load_problems, remote_backend

    assert (Answer, BeamConfig, load_problems, remote_backend) == (
        sireason.core.Answer, sireason.engine.BeamConfig,
        sireason.datasets.load_problems, models.remote_backend,
    )
    for name in sireason.__all__:
        assert getattr(sireason, name) is not None, name
    with pytest.raises(AttributeError):
        sireason.no_such_name
