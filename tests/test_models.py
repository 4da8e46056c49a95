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
from dataclasses import replace

import faults
import pytest

from sireason import cnl, datasets, engine, models, symbolic
from sireason.core import LabeledContext, SentenceLabel, Statement, normalize_key
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


def test_value_prompt_bytes():
    prompt = format_value_prompt(
        CTX, QUESTION, "the cow is big. Therefore, nothing follows."
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
    texts = [walk.complete(one).text]
    while texts[-1]:
        texts.append(walk.complete(one).text)
    listed = texts[:-1]
    assert len(listed) >= 4
    backend = OracleBackend()
    first = backend.complete(replace(one, n=2))
    assert first.samples == tuple(listed[:2]) and first.text == listed[0]
    assert backend.complete(one).text == listed[2]
    rest = backend.complete(replace(one, n=len(listed)))
    assert rest.samples == tuple(listed[3:])
    assert backend.complete(replace(one, n=3)) == CompletionResponse(text="", samples=())
    # A request for one sample keeps the one-text reply.
    assert backend.complete(one) == CompletionResponse(text="")


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
    assert {"sireason.core.normalize_key", "sireason.cnl.parse_statement"} <= set(caches)
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
    assert set(tables) == {"_worlds", "_gold", "_selections"}
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
    assert one._worlds[surfaces][1] is not other._worlds[surfaces][1]
    for name, table in _oracle_tables(one).items():
        assert table is not getattr(other, name)
    one.reset()
    assert other.complete(req).text == walked[1]


def test_a_solver_run_leaves_only_the_last_problems_worlds(monkeypatch):
    from sireason import evalcli

    problems = datasets.generate_problem_set(7, {1: 10, 2: 10, 3: 10, 5: 10})
    backend = OracleBackend()
    monkeypatch.setattr(models, "oracle_backend", lambda: backend)
    solver = evalcli.make_solver(evalcli.SolverConfig())
    for problem in problems:
        solver(problem)
    last = tuple(stmt.surface for stmt in problems[-1].context.statements())
    assert last in backend._worlds
    assert all(surfaces[:len(last)] == last for surfaces in backend._worlds)
    assert all(surfaces[:len(last)] == last for surfaces, _ in backend._gold)
    assert all(
        models._read_selection_prompt(prompt)[1][:len(last)] == last
        for prompt in backend._selections
    )


def test_threads_on_one_oracle_get_the_single_threaded_walks():
    """Contexts extended from one closure share its rule index, and each
    new fact grounds instances into it; eight threads walking such
    selection prompts on one backend raise nothing and get the walks one
    thread gets."""
    problem = datasets.generate_problem_set(30, {5: 1})[0]
    world = symbolic.closure(problem.context)
    derived = {cnl.render_atom(a) for a in world.derived}
    new_facts = sorted({
        cnl.render_atom(replace(atom, subject=c))
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
    facts = sorted((label.index, atom) for atom, label in world.fact_labels.items())
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
                firings.add((rule_label.index,) + tuple(index for index, _ in combo))
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
        closed.append(ctx.lookup(SentenceLabel(len(ctx))).surface)
        return closure(ctx)

    monkeypatch.setattr(symbolic, "closure", counting)
    for surface in appended:
        surfaces += (surface,)
        ctx, got = backend._world_for(surfaces)
        rebuilt = closure(LabeledContext.from_statements(surfaces))
        assert ctx == rebuilt.context
        assert got.derived == rebuilt.derived
        present = {stmt.key for stmt in ctx.statements()}
        on_path = [
            labels for key, labels in backend._gold_steps(surfaces, problem.question)
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
    _, parent = backend._world_for(surfaces)
    grounded = len(parent.index.grounded)
    _, child = backend._world_for(surfaces + ("the lion is smart",))
    assert child.index is parent.index
    assert len(parent.index.grounded) > grounded
    assert _candidate_labels(backend, problem.question, problem.context) == cold


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
                (step.inference.key, tuple(label.index for label in step.selection_labels))
                for step in proof.steps
            )
            proved += 1
        assert backend._gold_steps(surfaces, problem.question) == expected, problem.id
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
        assert backend.complete(req).text == ""


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
        prompt = format_value_prompt(CTX, QUESTION, reason)
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
], ids=["bad-good", "good-bad", "good-nothing", "unreadable-good"])
def test_value_verdict_is_the_verdict_on_the_newest_line(lines, expected):
    """The value oracle judges the newest step alone: correct, and a step
    of a shortest proof; earlier lines, readable or not, do not count."""
    backend = OracleBackend()

    def verdict(reason):
        return backend.complete(
            CompletionRequest(
                role=GeneratorRole.VALUE,
                prompt=format_value_prompt(CTX, QUESTION, reason),
                scored_continuations=(CORRECT, INCORRECT),
            )
        ).text

    assert verdict("\n".join(lines)) == verdict(lines[-1]) == expected


def test_value_request_requires_continuations():
    backend = OracleBackend()
    prompt = format_value_prompt(CTX, QUESTION, "the cow is big. Therefore, x.")
    with pytest.raises(models.BackendError):
        backend.complete(CompletionRequest(role=GeneratorRole.VALUE, prompt=prompt))


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
        return models.render_selection([rule] + premises)


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
                log.append((request, response.all_samples()))
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
        b'{"prompt": "p", '
        b'"role": "value", '
        b'"scored_continuations": [" correct", " incorrect"]}\n'
    )
    back = decode_request(data)
    assert back == req


def test_response_wire_format_is_stable():
    resp = CompletionResponse(
        text=" True", continuation_logprobs={" True": 0.0, " False": -1e9}
    )
    data = encode_response(resp)
    assert data == (
        b'{"continuation_logprobs": {" False": -1000000000.0, " True": 0.0}, '
        b'"text": " True"}\n'
    )
    assert decode_response(data) == resp


def test_samples_ride_the_wire_only_when_n_is_not_one():
    req = CompletionRequest(role=GeneratorRole.SELECTION, prompt="p", n=3)
    data = encode_request(req)
    assert data == b'{"n": 3, "prompt": "p", "role": "selection", "scored_continuations": null}\n'
    assert decode_request(data) == req
    assert b'"n"' not in encode_request(replace(req, n=1))
    resp = CompletionResponse(text=" a", samples=(" a", " b"))
    data = encode_response(resp)
    assert data == b'{"continuation_logprobs": null, "samples": [" a", " b"], "text": " a"}\n'
    assert decode_response(data) == resp
    assert decode_response(encode_response(CompletionResponse(text="", samples=()))).samples == ()
    assert b"samples" not in encode_response(CompletionResponse(text=" a"))


@pytest.mark.parametrize("n", [0, -1, True, "2", 1.0, None])
def test_decode_request_refuses_a_bad_n(n):
    doc = {"role": "selection", "prompt": "p", "scored_continuations": None, "n": n}
    with pytest.raises(RemoteError, match="bad request document"):
        decode_request(json.dumps(doc).encode())


@pytest.mark.parametrize("reply, match", [
    (b'{"text": "a", "continuation_logprobs": null, "samples": ["a", "b", "c"]}',
     "3 samples in reply to a request for 2"),
    (b'{"text": "a", "continuation_logprobs": null, "samples": ["a", 5]}',
     "bad response document"),
    (b'{"text": "a", "continuation_logprobs": null, "samples": "ab"}',
     "bad response document"),
], ids=["too-many", "not-strings", "not-a-list"])
def test_remote_backend_refuses_bad_samples(reply, match):
    class Fixed:
        def exchange(self, payload):
            return reply + b"\n"

    request = CompletionRequest(role=GeneratorRole.SELECTION, prompt="p", n=2)
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
            CTX,
            QUESTION,
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
    rfile = io.BytesIO(
        b"not json\n"
        + encode_request(selection)
        + encode_request(bad_selection)
        + encode_request(eb_halter)
        + encode_request(selection)
        + RESET_DOCUMENT
        + encode_request(selection)
    )
    wfile = io.BytesIO()
    serve(OracleBackend(), rfile, wfile)
    replies = wfile.getvalue().splitlines(keepends=True)
    assert len(replies) == 7
    for i in (0, 2, 3):
        assert "error" in json.loads(replies[i]), replies[i]
    first = decode_response(replies[1]).text
    assert first == " sent 1. We know that sent 3."
    # The bad lines left the cursor alone: the repeat walks on, and only
    # the reset takes it back to the first candidate.
    assert decode_response(replies[4]).text != first
    assert replies[5] == RESET_DOCUMENT
    assert decode_response(replies[6]).text == first


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
        prompt=format_value_prompt(CTX, QUESTION, "We know that the tiger is kind."),
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
# What a server loads.
# ---------------------------------------------------------------------------

def test_the_server_module_loads_only_what_it_serves(tmp_path, monkeypatch, capfd):
    """The server as `PipeTransport` starts it, in its environment, with
    PYTHONPATH set and unset (the package is then reachable only through the
    directory the client imported it from): it loads the four modules it
    serves, and neither `site`, the client's `subprocess` and `select`, the
    error path's `traceback`, nor an HTTP client."""
    argv = PipeTransport()._argv
    assert argv[:3] == [sys.executable, "-S", "-c"]
    # The same start, with the bootstrap's last call, which would serve,
    # replaced by a print of what is loaded by then.
    assert argv[3].endswith("_main()")
    probe = argv[:3] + [argv[3][:-len("_main()")] + "print(' '.join(sorted(sys.modules)))"]
    unwanted = {"site", "subprocess", "select", "traceback",
                "urllib.request", "http.client", "email", "ssl"}
    monkeypatch.chdir(tmp_path)
    # Every import the served session makes, on stderr.
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")

    def check():
        loaded = set(subprocess.run(probe + argv[4:], capture_output=True, text=True,
                                    timeout=60, check=True).stdout.split())
        assert {m for m in loaded if m.startswith("sireason")} == {
            "sireason", "sireason.cnl", "sireason.core", "sireason.models",
            "sireason.symbolic"}
        assert not loaded & unwanted
        backend = RemoteBackend(PipeTransport())
        try:
            assert backend.complete(_inference_request("red")).text == " the tiger is red."
            with pytest.raises(RemoteError, match="bad request document"):
                backend.complete(replace(_inference_request("red"), n=0))
        finally:
            backend.close()
        imported = {line.rpartition("|")[2].strip()
                    for line in capfd.readouterr().err.splitlines()
                    if line.startswith("import time:")}
        assert "sireason.core" in imported
        assert not imported & unwanted

    check()
    monkeypatch.delenv("PYTHONPATH", raising=False)
    check()


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
