"""Role-typed text generators and the three interchangeable backends.

The reasoning engine talks to four kinds of generators: Selection (pick
sentence labels), Inference (complete an entailment), Halter (decide
whether the accumulated inference answers the question), and Value (score
a partial trace).  All of them share one request/response contract so a
symbolic oracle, a scripted table, and a remote model server can be
swapped without touching the engine.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from . import cnl, symbolic
from .core import (
    THEREFORE,
    Answer,
    EmptyStatement,
    LabeledContext,
    Statement,
    TraceParseError,
    normalize_key,
    normalize_statement,
    parse_trace_text,
    render_inference,
    render_premises,
    render_step_prompt,
    selection_order,
    split_premises,
    strip_period,
    tokenize,
)

if TYPE_CHECKING:
    # Only the client starts servers; it imports `subprocess` when it does.
    import subprocess

# Finite stand-in for certainty about a wrong step; keeps score sums total.
CERTAIN_GOOD = 0.0
CERTAIN_BAD = -1e9


class GeneratorRole(str, Enum):
    SELECTION = "selection"
    INFERENCE = "inference"
    HALTER_READY = "halter_ready"
    HALTER_ANSWER = "halter_answer"
    VALUE = "value"


@dataclass(frozen=True)
class CompletionRequest:
    role: GeneratorRole
    prompt: str
    scored_continuations: Optional[tuple[str, ...]] = None
    # Completions wanted for the prompt; a selection request asks for one
    # per proposal.
    n: int = 1

    def __post_init__(self) -> None:
        # The role is read once, here: a role given as its value becomes the
        # member, and an unknown one raises ValueError.
        if type(self.role) is not GeneratorRole:
            object.__setattr__(self, "role", GeneratorRole(self.role))


@dataclass(frozen=True)
class CompletionResponse:
    # The completions, at most the request's `n`; fewer means the generator
    # had no more to give.
    samples: tuple[str, ...]
    continuation_logprobs: Optional[Mapping[str, float]] = None

    @property
    def text(self) -> str:
        """The first sample, or "" when there is none."""
        return self.samples[0] if self.samples else ""


class BackendError(Exception):
    """A backend could not produce a usable completion."""


class ScriptExhausted(BackendError):
    """A table-driven script ran out of queued responses."""


class RemoteError(BackendError):
    """Transport or protocol failure while talking to a remote backend."""


# ---------------------------------------------------------------------------
# Prompt codec, role by role: the prompt the engine sends (format_*), its
# reader for the oracle, which gets only prompt text, exactly like a model
# would (_read_*), the completion a perfect model gives (render_*), and its
# reader for the engine (read_*).  Training pairs are built from the same
# functions, so a model trains on the text the engine sends it at run time.
# ---------------------------------------------------------------------------

# -- selection --------------------------------------------------------------

def format_selection_prompt(question: str, context: LabeledContext) -> str:
    lines = [f"sent {label}: {stmt.surface}" for label, stmt in context]
    lines.append(f"Question: {question}")
    lines.append("Selection:")
    return "\n".join(lines)


def _read_selection_prompt(prompt: str) -> tuple[str, tuple[str, ...]]:
    """(question, sentence surfaces) of a selection prompt, as written."""
    lines = prompt.split("\n")
    if len(lines) < 3 or lines[-1] != "Selection:" or not lines[-2].startswith("Question: "):
        raise BackendError("malformed selection prompt")
    question = lines[-2][len("Question: "):]
    surfaces = []
    for i, line in enumerate(lines[:-2], start=1):
        prefix = f"sent {i}: "
        if not line.startswith(prefix):
            raise BackendError(f"malformed sentence line {i!r}")
        surfaces.append(line[len(prefix):])
    return question, tuple(surfaces)


def render_selection(labels: Sequence[int]) -> str:
    """The selection completion " sent 1. We know that sent 2 and sent 3.",
    its labels in `selection_order`."""
    return " " + render_premises([f"sent {i}" for i in selection_order(labels)])


_LABEL_TOKEN = re.compile(r"\bsent (\d+)\b")


def read_selection(raw: str, size: int) -> Optional[list[int]]:
    """The distinct labels "sent N" of one selection sample, as the ints N,
    in order; None if it has none, or one outside a context of `size`
    sentences."""
    labels: list[int] = []
    for token in _LABEL_TOKEN.findall(raw):
        index = int(token)
        if not 1 <= index <= size:
            return None
        if index not in labels:
            labels.append(index)
    return labels or None


# -- inference --------------------------------------------------------------
# A prompt plus its completion is a trace's step line, which `core` writes.

def format_inference_prompt(selection: Sequence[Statement]) -> str:
    if not selection:
        raise ValueError("inference prompt needs at least one selected statement")
    return render_step_prompt(selection)


def _read_inference_prompt(prompt: str) -> list[Statement]:
    if not prompt.endswith(THEREFORE):
        raise BackendError("malformed inference prompt")
    return [normalize_statement(p) for p in split_premises(prompt[: -len(THEREFORE)])]


def read_inference(text: str) -> Statement:
    """The statement of an inference completion, one trailing period
    stripped; one with no letters says nothing follows, like an empty one,
    and one with a line break inside it raises BackendError."""
    text = strip_period(text)
    if "\n" in text:
        raise BackendError(f"inference {text!r} has a line break")
    if not normalize_key(text):
        text = symbolic.NOTHING_FOLLOWS
    return normalize_statement(text)


# -- halter -----------------------------------------------------------------

def format_halter_prompts(
    question: str,
    inference: str,
    choices: Optional[Sequence[str]] = None,
) -> tuple[str, Optional[str]]:
    """Build the halting prompt(s).

    Multiple-choice questions use a two-stage halter: a readiness check and
    a choice-matching prompt.  True/False/Unknown questions use a single
    prompt and the answer doubles as the halting signal (second element is
    None in that mode).
    """
    if choices is not None:
        joined = " OR ".join(choices)
        ready = (
            f"Question:{question} {joined}. "
            f"Given {inference}. Do you know the answer?"
        )
        answer = (
            f"Given {inference}. Which of the following most closely matches:"
            f" {joined}? Answer:"
        )
        return ready, answer
    return f"Given {inference}. {question}", None


def read_choices(text: str) -> tuple[str, ...]:
    """The stripped choices the halter prompts join with " OR "; the text is
    padded first, so a dangling "OR" leaves no choice."""
    return tuple(c.strip() for c in f" {text} ".split(" OR ") if c.strip())


def _read_ready_prompt(prompt: str) -> Optional[tuple[tuple[str, ...], str]]:
    """(choices, inference) of a multiple-choice readiness prompt, or None
    for any other prompt; the choices follow the question part's last "?"."""
    if not (prompt.startswith("Question:") and prompt.endswith(" Do you know the answer?")):
        return None
    q_and_inf = prompt[len("Question:"): -len(" Do you know the answer?")]
    try:
        question, inference = q_and_inf.rsplit(" Given ", 1)
    except ValueError as exc:
        raise BackendError("malformed readiness prompt") from exc
    _, mark, tail = strip_period(question).rpartition("?")
    choices = read_choices(tail)
    if not mark or len(choices) < 2:
        raise BackendError("readiness prompt without choices")
    return choices, inference.rstrip(".")


def _read_answer_prompt(prompt: str) -> tuple[tuple[str, ...], str]:
    """(choices, inference) of a multiple-choice answer prompt."""
    marker = ". Which of the following most closely matches: "
    if not (prompt.startswith("Given ") and marker in prompt and prompt.endswith("? Answer:")):
        raise BackendError("malformed answer prompt")
    inference, rest = prompt[len("Given "):].split(marker, 1)
    return read_choices(rest[: -len("? Answer:")]), inference


def check_choices(question: str, choices: Sequence[str]) -> None:
    """Raises ValueError unless the halter can pick among the choices of a
    multiple-choice question: both its prompts read them back, stripped,
    and no two are equal, as two equal choices tie in every match."""
    stripped = tuple(c.strip() for c in choices)
    ready, answer = format_halter_prompts(question, "it", choices)
    # The answer prompt splits the choices at " OR " ...
    read = _read_answer_prompt(answer)[0]
    bad = next((c for c, got in zip(choices, (*read, None)) if c.strip() != got), None)
    if bad is not None:
        raise ValueError(f"choice {bad!r} is blank or holds the word 'OR'")
    # ... and the readiness prompt reads them after the question part's last "?".
    try:
        read = _read_ready_prompt(ready)[0]
    except BackendError:
        read = ()
    if read != stripped:
        bad = next((c for c in choices if "?" in c), None)
        raise ValueError(f"question {question!r} does not end in '?'" if bad is None
                         else f"choice {bad!r} holds a '?'")
    bad = next((c for i, c in enumerate(choices) if stripped[i] in stripped[:i]), None)
    if bad is not None:
        raise ValueError(f"choice {bad!r} repeats an earlier choice")


def _read_halter_prompt(prompt: str) -> tuple[str, str]:
    """(inference, question) of a True/False/Unknown halting prompt."""
    if not prompt.startswith("Given "):
        raise BackendError("malformed halting prompt")
    try:
        inference, question = prompt[len("Given "):].split(". ", 1)
    except ValueError as exc:
        raise BackendError("malformed halting prompt") from exc
    return inference, question


def render_ready(ready: bool) -> str:
    return " Yes." if ready else " No."


def render_answer(answer: Answer) -> str:
    return f" {answer.render()}"


def read_ready(text: str) -> bool:
    """Whether a multiple-choice readiness completion says Yes."""
    return text.strip().rstrip(".") == "Yes"


def read_verdict(text: str) -> Optional[Answer]:
    """The True or False of a halter completion; None, keep reasoning, for any other."""
    verdict = text.strip().rstrip(".")
    return Answer.parse(verdict) if verdict in ("True", "False") else None


def read_answer(text: str, choices: Sequence[str]) -> Answer:
    """The choice an answer completion names; one of no stripped choice raises BackendError."""
    answer = text.strip()
    if answer not in {c.strip() for c in choices}:
        raise BackendError(f"answer {answer!r} is none of the choices")
    return Answer.of_choice(answer)


# -- value ------------------------------------------------------------------

CORRECT = " correct"
INCORRECT = " incorrect"


def read_value(response: CompletionResponse) -> float:
    """A value reply's log-probability of CORRECT, CERTAIN_BAD if it has none;
    the beam's stops need log-probabilities, so NaN or above 0 raises BackendError."""
    value = (response.continuation_logprobs or {}).get(CORRECT, CERTAIN_BAD)
    if not value <= 0:
        raise BackendError(f"value log-probability {value!r} is not at most 0")
    return value


def value_prompt_head(context: LabeledContext, question: str) -> str:
    """The part of a value prompt that its problem fixes."""
    ctx_text = _context_text(stmt.surface for stmt in context.statements())
    return f"Context: {ctx_text} Question: {question} Reason: "


def format_value_prompt(head: str, rendered_steps: str) -> str:
    """The value prompt of `rendered_steps` (a rendered trace) under `head`,
    the `value_prompt_head` of their problem."""
    if not rendered_steps.strip():
        raise ValueError("value prompt needs at least one reasoning step")
    return f"{head}{rendered_steps} The above reasoning steps are"


def _read_value_prompt(prompt: str) -> tuple[str, str, str]:
    """(context text, question, reason) of a value prompt."""
    tail = " The above reasoning steps are"
    if not prompt.startswith("Context: ") or not prompt.endswith(tail):
        raise BackendError("malformed value prompt")
    body = prompt[len("Context: "): -len(tail)]
    try:
        ctx_text, rest = body.split(" Question: ", 1)
        question, reason = rest.split(" Reason: ", 1)
    except ValueError as exc:
        raise BackendError("malformed value prompt") from exc
    return ctx_text, question, reason


def _context_text(surfaces: Iterable[str]) -> str:
    """A value prompt's context text: each sentence with its period."""
    return " ".join(f"{s}." for s in surfaces)


def _context_surfaces(ctx_text: str) -> tuple[str, ...]:
    """The sentences of a value prompt's context text, split at each ". ".
    Exact for grammar sentences only: one with ". " inside it, such as "Mr.
    Smith is big", is outside the grammar and reads back as two.  The oracle
    splits only as a fallback, for a text that is not its base world's."""
    pieces = (p.strip() for p in strip_period(ctx_text).split(". "))
    return tuple(s for s in pieces if s)


# ---------------------------------------------------------------------------
# Oracle backend.
# ---------------------------------------------------------------------------

def _overlap_score(choice: str, inference: str) -> float:
    choice_tokens = tokenize(choice)
    inf_tokens = set(tokenize(inference))
    if not choice_tokens:
        return 0.0
    hit = sum(1 for t in choice_tokens if t in inf_tokens)
    return hit / len(choice_tokens)


class OracleBackend:
    """Symbolic stand-in for the fine-tuned generators.

    Selection walks the candidate steps of each distinct prompt: the step
    that advances the shortest proof first, then every other rule instance
    of the closure whose premises are context facts and whose head is new,
    in label order, each fact selected once.  The on-path candidate is built
    on the first request, the other firings when the walk reaches them.  A
    request for n samples takes the next n of the walk, or what is left of
    it, so beam search obtains distinct proposals, and repeated requests
    with the same prompt walk on.

    The oracle answers one problem at a time.  It keeps three tables until
    `reset()`, which forgets them all: the worlds it closes, the base
    proof's inference keys by a value prompt's context text and question,
    and each prompt's selection walk.  Inference, halter and value requests
    are answered afresh each time.  Each request holds the lock whole,
    since worlds extended from one closure share and ground into its index.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # The closure of each context, by its sentence surfaces.
        self._worlds: dict[tuple[str, ...], symbolic.WorldClosure] = {}
        # The base proof's inference keys by a value prompt's (context text, question).
        self._proof_keys: dict[tuple[str, str], frozenset[str]] = {}
        # The walk of each selection prompt, positioned at its next proposal.
        self._selections: dict[str, Iterator[str]] = {}

    def reset(self) -> None:
        with self._lock:
            self._worlds.clear()
            self._proof_keys.clear()
            self._selections.clear()

    def close(self) -> None:
        pass

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        # Looked up per call, so a handler patched on the class is the one
        # that answers.
        handler = getattr(self, "_complete_" + request.role.value)
        try:
            with self._lock:
                return handler(request)
        except (cnl.ParseError, EmptyStatement) as exc:
            # Text outside the grammar, such as a free-text (EB) question.
            raise BackendError(f"oracle cannot read the prompt: {exc}") from exc

    # -- the problem in hand ------------------------------------------------

    def _world_for(self, surfaces: tuple[str, ...]) -> symbolic.WorldClosure:
        """The closure of the context the surfaces label.

        A search step appends one sentence to a context it has seen, so when
        the context less its last sentence is known, its world is extended
        by that sentence rather than closed afresh.
        """
        world = self._worlds.get(surfaces)
        if world is not None:
            return world
        parent = self._worlds.get(surfaces[:-1])
        if parent is None:
            world = symbolic.closure(LabeledContext.from_statements(surfaces))
        else:
            ctx = parent.context.extended(normalize_statement(surfaces[-1]))
            world = symbolic.extend(parent, ctx)
        self._worlds[surfaces] = world
        return world

    def _selection_candidates(self, prompt: str) -> Iterator[str]:
        """The walk of one prompt's selection completions, best first.  What can
        raise is done here; the other firings are built after the on-path one."""
        question, surfaces = _read_selection_prompt(prompt)
        world = self._world_for(surfaces)
        present = {stmt.key for stmt in world.context.statements()}
        on_path = next((labels for key, labels in _gold_steps(world, question)
                        if key not in present), None)

        def walk() -> Iterator[str]:
            if on_path is not None:
                yield render_selection(on_path)
            # Worlds extended from one closure share its rule index, so the
            # index also holds instances grounded by this world's extensions:
            # only those over this world's facts count.  Those were all ground
            # when this world settled, so a late read finds the same firings.
            facts = world.fact_labels
            firings = sorted({
                tuple(selection_order([rule, *(facts[p] for p in premises)]))
                for rule, premises, head in world.index.grounded.values()
                if all(p in facts for p in premises)
                and normalize_key(cnl.render_atom(head)) not in present
            })
            skip = frozenset(on_path or ())
            yield from (render_selection(f) for f in firings if frozenset(f) != skip)

        return walk()

    def _judge_steps(self, ctx_text: str, question: str, line: str) -> bool:
        """Decide whether one rendered step is correct and a step of a
        shortest proof; a line that reads as no step is not."""
        # A question that is no hypothesis raises before the line is read.
        cnl.parse_question(question)
        try:
            step = parse_trace_text(line)
        except TraceParseError:
            return False
        proof_keys = self._proof_keys.get((ctx_text, question))
        if proof_keys is None:
            # A search's first selection request closes its base context, so
            # the first world is the one the text names, unless the text was
            # never selected from; then it is split at each ". ".
            base = next(iter(self._worlds), None)
            if base is None or _context_text(base) != ctx_text:
                base = _context_surfaces(ctx_text)
            proof_keys = self._proof_keys[ctx_text, question] = frozenset(
                key for key, _ in _gold_steps(self._world_for(base), question))
        return symbolic.is_proof_step(step, proof_keys)

    # -- selection ----------------------------------------------------------

    def _complete_selection(self, request: CompletionRequest) -> CompletionResponse:
        walk = self._selections.get(request.prompt)
        if walk is None:
            walk = self._selections[request.prompt] = self._selection_candidates(request.prompt)
        return CompletionResponse(tuple(itertools.islice(walk, request.n)))

    # -- inference ----------------------------------------------------------

    def _complete_inference(self, request: CompletionRequest) -> CompletionResponse:
        selection = _read_inference_prompt(request.prompt)
        return CompletionResponse((render_inference(symbolic.infer(selection).surface),))

    # -- halting ------------------------------------------------------------

    def _complete_halter_ready(self, request: CompletionRequest) -> CompletionResponse:
        read = _read_ready_prompt(request.prompt)
        if read is None:
            return CompletionResponse((render_answer(_pw_halt_answer(request.prompt)),))
        choices, inference = read
        return CompletionResponse(
            (render_ready(_matched_choice(choices, inference) is not None),)
        )

    def _complete_halter_answer(self, request: CompletionRequest) -> CompletionResponse:
        choices, inference = _read_answer_prompt(request.prompt)
        best = _matched_choice(choices, inference)
        if best is None:
            raise BackendError("no choice matches the inference")
        return CompletionResponse((render_answer(Answer.of_choice(best)),))

    # -- value --------------------------------------------------------------

    def _complete_value(self, request: CompletionRequest) -> CompletionResponse:
        if request.scored_continuations is None:
            raise BackendError("value request without scored continuations")
        ctx_text, question, reason = _read_value_prompt(request.prompt)
        # Each earlier step was judged when it was the newest, so the
        # oracle reads only the newest line.
        good = self._judge_steps(ctx_text, question, reason.rpartition("\n")[2])
        logprobs = {
            CORRECT: CERTAIN_GOOD if good else CERTAIN_BAD,
            INCORRECT: CERTAIN_BAD if good else CERTAIN_GOOD,
        }
        missing = [c for c in request.scored_continuations if c not in logprobs]
        for c in missing:
            logprobs[c] = CERTAIN_BAD
        preferred = CORRECT if good else INCORRECT
        return CompletionResponse((preferred,), continuation_logprobs=logprobs)


def _gold_steps(
    world: symbolic.WorldClosure, question: str
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(inference key, selection labels) of each step of the shortest proof
    of a hypothesis question in a closed world; none if it has no proof."""
    try:
        target = symbolic.proof_target(world, cnl.parse_question(question))
    except symbolic.NoProof:
        return ()
    return tuple(
        (normalize_key(cnl.render_atom(head)), labels)
        for head, labels in symbolic.proof_steps(world, target)
    )


def _pw_halt_answer(prompt: str) -> Answer:
    """The single-prompt True/False/Unknown halter's answer."""
    inference, question = _read_halter_prompt(prompt)
    if normalize_key(inference) == normalize_key(symbolic.NOTHING_FOLLOWS):
        return Answer.UNKNOWN
    hypothesis = cnl.parse_question(question)
    inferred = cnl.parse_statement(inference)
    if inferred == hypothesis:
        return Answer.TRUE
    if inferred == cnl.negate(hypothesis):
        return Answer.FALSE
    return Answer.UNKNOWN


def _matched_choice(choices: Sequence[str], inference: str) -> Optional[str]:
    scored = sorted(
        ((_overlap_score(c, inference), c) for c in choices), reverse=True
    )
    if not scored or scored[0][0] <= 0.0:
        return None
    if len(scored) > 1 and scored[0][0] == scored[1][0]:
        return None
    return scored[0][1]


def oracle_backend() -> OracleBackend:
    return OracleBackend()


# ---------------------------------------------------------------------------
# Scripted backend.
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Replays queued responses and/or perturbs a base backend.

    `script` maps a role to a FIFO list of response texts.  Roles without a
    script entry fall through to `base`, so one scripted backend answers
    every role, and a queue gives up to n items to a request for n.  With
    noise rate ε, each selection sample is replaced (with probability ε,
    seeded) by a uniformly random well-formed label sentence over the
    prompt's sentence range; the samples left are asked of the script or
    the base in one request.  The k-th `reset()` reseeds the noise with
    `seed + k`, so each problem of a run draws its own reproducible noise.
    A request it leaves whole (no script for its role, and no sample
    replaced) goes to the base as it is, and gets the base's reply.
    """

    def __init__(
        self,
        base=None,
        script: Optional[Mapping[GeneratorRole, Sequence[str]]] = None,
        noise_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        check_noise(noise_rate)
        self._base = base
        self._script = {
            GeneratorRole(role): list(items) for role, items in (script or {}).items()
        }
        self._noise_rate = noise_rate
        self._seed = seed
        self._resets = 0
        self._rng = random.Random(("scripted", seed).__repr__())
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._rng.seed(("scripted", self._seed + self._resets).__repr__())
            self._resets += 1
        if self._base is not None:
            self._base.reset()

    def close(self) -> None:
        if self._base is not None:
            self._base.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        role = request.role
        # None marks a sample that noise leaves to the script or the base.
        samples: list[Optional[str]] = [None] * request.n
        # The lock guards only this backend's own state (the noise draws and
        # the queues); a forwarded call runs outside it.
        with self._lock:
            # Noise pre-empts the underlying generator sample by sample, so
            # the proposals of one request stay independent draws.
            if role is GeneratorRole.SELECTION and self._noise_rate > 0.0:
                size: Optional[int] = None
                for i in range(request.n):
                    if self._rng.random() < self._noise_rate:
                        if size is None:
                            size = _sentence_count(request.prompt)
                        samples[i] = self._random_selection(size)
            wanted = samples.count(None)
            if wanted == 0:
                return CompletionResponse(tuple(samples))
            if role in self._script:
                queue = self._script[role]
                if not queue:
                    raise ScriptExhausted(f"no scripted responses left for {role.value}")
                rest: Sequence[str] = queue[:wanted]
                del queue[:wanted]
        if role not in self._script:
            if self._base is None:
                raise ScriptExhausted(f"no script and no base backend for {role.value}")
            if wanted == request.n:
                # Nothing replaced or queued: the base's reply is this one.
                return self._base.complete(request)
            rest = self._base.complete(replace(request, n=wanted)).samples
        # The samples left fill the unset ones in order; any past the end of
        # `rest` are dropped.
        filled = iter(rest)
        merged = [s if s is not None else next(filled, None) for s in samples]
        return CompletionResponse(tuple(s for s in merged if s is not None))

    def _random_selection(self, n: int) -> str:
        """A random label sentence over a context of `n` sentences; "" if
        it has fewer than two."""
        if n < 2:
            return ""
        rule = self._rng.randint(1, n)
        n_premises = self._rng.choice([1, 2])
        premises = [self._rng.randint(1, n) for _ in range(n_premises)]
        # In the order drawn, as a model's sample need not be canonical.
        return " " + render_premises([f"sent {i}" for i in [rule] + premises])


def _sentence_count(prompt: str) -> int:
    """The sentences of a selection prompt; 0 if it is malformed."""
    try:
        return len(_read_selection_prompt(prompt)[1])
    except BackendError:
        return 0


# ---------------------------------------------------------------------------
# Remote backend: one JSON document per line, one reply per document.
#
#   request   {"role", "prompt", "scored_continuations", "n"}
#             answered by {"samples", "continuation_logprobs"}, where
#             "samples" is a list of at most n strings
#   reset     {"reset": true}, sent before each problem: the server calls
#             backend.reset() and answers with the same document
#   error     {"error": "..."}, the server's answer to a line it could not
#             answer; it reads on
# ---------------------------------------------------------------------------

def _document(doc: dict) -> bytes:
    """One wire line: the document as JSON with sorted keys, then a newline, in UTF-8."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


_RESET = {"reset": True}
RESET_DOCUMENT = _document(_RESET)


def encode_request(request: CompletionRequest) -> bytes:
    return _document({
        "role": request.role.value,
        "prompt": request.prompt,
        "scored_continuations": request.scored_continuations,
        "n": request.n,
    })


def decode_request(data: bytes) -> Optional[CompletionRequest]:
    """The request a document carries, or None for the reset document."""
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc == _RESET:
            return None
        prompt, cont, n = doc["prompt"], doc["scored_continuations"], doc["n"]
        if not isinstance(prompt, str):
            raise TypeError(f"prompt {prompt!r} is not a string")
        if cont is not None:
            cont = _strings("scored_continuations", cont)
        # A bool is an int to Python, but not a count.
        if type(n) is not int or n < 1:
            raise ValueError(f"n {n!r} is not a positive integer")
        # The request reads the role; an unknown one raises ValueError.
        return CompletionRequest(doc["role"], prompt, cont, n)
    except KeyError as exc:
        raise RemoteError(f"bad request document: missing field {exc}") from exc
    # A document nested past the parser's depth is as unreadable as bad JSON.
    except (ValueError, TypeError, RecursionError) as exc:
        raise RemoteError(f"bad request document: {exc}") from exc


def encode_response(response: CompletionResponse) -> bytes:
    return _document({
        "samples": response.samples,
        "continuation_logprobs": response.continuation_logprobs,
    })


def encode_error(exc: Exception) -> bytes:
    return _document({"error": f"{type(exc).__name__}: {exc}"})


def _load_reply(data: bytes):
    """Parse a server reply; an error document raises RemoteError."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise RemoteError(f"bad response document: {exc}") from exc
    if isinstance(doc, dict) and "error" in doc:
        raise RemoteError(f"server error: {doc['error']}")
    return doc


def _strings(field: str, value) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else raises."""
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise TypeError(f"{field} {value!r} is not a list of strings")
    return tuple(value)


def _logprob(value) -> float:
    """A finite number as a float; anything else (a bool, NaN, an infinity,
    a string) raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"logprob {value!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"logprob {value!r} is not finite")
    return value


def decode_response(data: bytes) -> CompletionResponse:
    doc = _load_reply(data)
    try:
        samples, logprobs = doc["samples"], doc["continuation_logprobs"]
        if logprobs is not None:
            if not isinstance(logprobs, dict):
                raise TypeError(f"continuation_logprobs {logprobs!r} is not an object")
            # JSON object keys are always strings.
            logprobs = {k: _logprob(v) for k, v in logprobs.items()}
        return CompletionResponse(_strings("samples", samples), logprobs)
    except KeyError as exc:
        raise RemoteError(f"bad response document: missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise RemoteError(f"bad response document: {exc}") from exc


# Seconds `PipeTransport` waits for a server to end its output once its
# input is closed, before killing it.
CLOSE_WAIT_S = 10.0
# Seconds a transport waits for a reply: `PipeTransport` from the request
# written to the end of the reply line, before it kills the server;
# `HttpTransport` for the connection and for each read of the reply.
REPLY_WAIT_S = 60.0
# Times `RemoteBackend` repeats an exchange whose transport failed.
RETRIES = 2
# Servers `PipeTransport` starts after its first one.  Once they are used
# up, a transport whose servers keep dying fails every exchange at once.
RESPAWN_LIMIT = 3

class _ForkedServer:
    """The bundled server: `serve` over a fresh `OracleBackend`, in a fork of
    this process, so it starts with every module the client has loaded and
    no interpreter start.  Its stdin and stdout are pipes to this process.
    The parent's side has the part of `subprocess.Popen` that
    `PipeTransport` uses."""

    def __init__(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        server_in, self_out, self_in, server_out = fds
        if self.pid == 0:
            _serve_forked(server_in, server_out)
        os.close(server_in)
        os.close(server_out)
        self.args = f"fork of {os.getpid()}: models.serve"
        self.returncode: Optional[int] = None
        self.stdin = open(self_out, "wb")
        self.stdout = open(self_in, "rb")

    def _reap(self, flags: int) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> Optional[int]:
        return self._reap(os.WNOHANG)

    def wait(self) -> int:
        return self._reap(0)

    def kill(self) -> None:
        import signal

        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


def _serve_forked(stdin_fd: int, stdout_fd: int) -> None:
    """The forked child: serve on the two pipes as fds 0 and 1, then leave
    with `os._exit`, never returning into the client's code.  It imports
    nothing, and leaves alone what the client owns: buffered text in its
    `sys.stdout` or `sys.stderr`, atexit hooks and `weakref.finalize`
    callbacks.  `gc.freeze()` keeps the client's objects out of the child's
    collections, so the finalizer of some client garbage never runs here,
    and their pages stay shared."""
    code = 1
    try:
        gc.freeze()
        os.dup2(stdin_fd, 0)
        os.dup2(stdout_fd, 1)
        # The client's other files, such as its ends of other servers'
        # pipes: a copy held here would keep those servers from seeing the
        # end of their input.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        # A traceback of `serve`'s goes to fd 2 without the client's text.
        sys.stderr = open(2, "w", buffering=1, encoding="utf-8",
                          errors="backslashreplace", closefd=False)
        serve(OracleBackend(), open(0, "rb"), open(1, "wb"))
        code = 0
    finally:
        os._exit(code)


def _read_some(fd: int, timeout: float) -> Optional[bytes]:
    """The next bytes the server writes, as they arrive; b"" at the end of
    the stream, None if none arrive within `timeout` seconds (with 0, if
    none are waiting)."""
    import select

    if timeout < 0 or not select.select([fd], [], [], timeout)[0]:
        return None
    return os.read(fd, 65536)


class PipeTransport:
    """Runs a server process and exchanges newline-delimited documents,
    one exchange at a time.

    With no `argv` the server is the bundled one, forked from this process
    (`_ForkedServer`); otherwise `argv` is run.  The server is started on
    the first exchange.  If it dies, or does not finish a reply within
    REPLY_WAIT_S, the failing exchange kills and reaps it and raises, and
    the next exchange starts a new one, up to RESPAWN_LIMIT times, unless
    the server failed before its first answer or could not be started at
    all: one that cannot come back would cost a process start (and perhaps
    a full wait) per attempt, so every later exchange raises at once.  A
    server found out of step, with reply bytes waiting before a request is
    written, is killed the same way.
    """

    def __init__(self, argv: Optional[Sequence[str]] = None) -> None:
        self._argv = list(argv) if argv else None
        self._proc: Optional[subprocess.Popen | _ForkedServer] = None
        self._spawns = 0
        self._answered = False  # whether the running server has answered
        self._gave_up: Optional[str] = None
        # Bytes the server wrote past the last reply line read.
        self._pending = b""
        self._lock = threading.Lock()

    def _ensure(self) -> subprocess.Popen | _ForkedServer:
        if self._proc is not None and self._proc.poll() is not None:
            self._stop()
        if self._proc is None:
            if self._spawns > RESPAWN_LIMIT:
                self._gave_up = (f"pipe transport: server restarted {RESPAWN_LIMIT}"
                                 " times already; not restarted again")
                raise RemoteError(self._gave_up)
            try:
                if self._argv is None:
                    self._proc = _ForkedServer()
                else:
                    import subprocess

                    self._proc = subprocess.Popen(
                        self._argv,
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                    )
            except OSError as exc:
                # As a server that never answered: one that cannot start
                # would fail again on every attempt.
                self._gave_up = (f"pipe transport: server did not start: {exc};"
                                 " not started again")
                raise RemoteError(self._gave_up) from exc
            self._spawns += 1
            self._answered = False
            self._pending = b""
        return self._proc

    def exchange(self, payload: bytes) -> bytes:
        # One lock over the write and the read: a reply belongs to the
        # request written just before it.
        with self._lock:
            if self._gave_up is not None:
                raise RemoteError(self._gave_up)
            proc = self._ensure()
            fd = proc.stdout.fileno()
            try:
                # Bytes that wait before the request is written answer no
                # request: the server wrote two lines for one, and each
                # later reply would answer the request before its own.
                early = self._pending or _read_some(fd, 0)
                if early is None:
                    proc.stdin.write(payload)
                    proc.stdin.flush()
                    line = self._read_line(fd)
                elif early:
                    raise self._lost("pipe transport: reply bytes pending before"
                                     " a request; the server is out of step")
                else:
                    line = b""  # the stream ended before the request
            except OSError as exc:
                raise self._lost(f"pipe transport failed: {exc}") from exc
            if line is None:
                raise self._lost(f"pipe transport: no reply within {REPLY_WAIT_S} s")
            if not line:
                raise self._lost("pipe transport: server closed the stream")
            self._answered = True
            return line

    def _read_line(self, fd: int) -> Optional[bytes]:
        """The next line the server writes; b"" if it closes the stream
        first, None if REPLY_WAIT_S passes first.  Reads the pipe as bytes
        arrive, so a partial line never blocks past the deadline."""
        deadline = time.monotonic() + REPLY_WAIT_S
        while True:
            end = self._pending.find(b"\n") + 1
            if end:
                line, self._pending = self._pending[:end], self._pending[end:]
                return line
            chunk = _read_some(fd, deadline - time.monotonic())
            if not chunk:  # None past the deadline, b"" at the end
                return chunk
            self._pending += chunk

    def _lost(self, reason: str) -> RemoteError:
        """Kill and reap the server and return the error to raise.  A server
        that never answered is not started again."""
        if not self._answered:
            self._gave_up = f"{reason} before its first answer; not restarted"
            reason = self._gave_up
        self._stop(kill=True)
        return RemoteError(reason)

    def close(self) -> None:
        """Stop the server; closing twice is harmless."""
        with self._lock:
            self._stop()

    def _stop(self, kill: bool = False) -> None:
        """Close the server's input, reap the server and forget it.  With
        `kill` it is killed at once; otherwise its output is read to the
        end, and it is killed if CLOSE_WAIT_S passes first.  Nothing here
        sleeps or polls: the bundled server exits as soon as its input ends,
        and its exit ends the stream.  (A server that ends its output and
        goes on running would hold up the wait.)"""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        if not kill:
            deadline = time.monotonic() + CLOSE_WAIT_S
            while chunk := _read_some(proc.stdout.fileno(), deadline - time.monotonic()):
                pass
            kill = chunk is None
        if kill:
            proc.kill()
        proc.wait()
        proc.stdout.close()


class HttpTransport:
    """POSTs each document to an HTTP endpoint and reads the reply body.

    An endpoint that fails before its first answer is not tried again, as
    `PipeTransport` does not restart a server that never answered: each
    later exchange raises at once, rather than wait out REPLY_WAIT_S again.
    """

    def __init__(self, endpoint: str) -> None:
        self._endpoint = endpoint
        self._answered = False
        self._gave_up: Optional[str] = None

    def exchange(self, payload: bytes) -> bytes:
        # Imported here, the only place that needs it: the standalone server
        # would otherwise load `http`, `email` and `ssl` on every start.
        import http.client
        import urllib.error
        import urllib.request

        if self._gave_up is not None:
            raise RemoteError(self._gave_up)
        req = urllib.request.Request(
            self._endpoint,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # A reply cut short raises an `HTTPException`, which is no `OSError`.
        try:
            with urllib.request.urlopen(req, timeout=REPLY_WAIT_S) as resp:
                reply = resp.read()
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            reason = f"http transport failed: {exc}"
            if not self._answered:
                self._gave_up = reason = f"{reason} before its first answer; not tried again"
            raise RemoteError(reason) from exc
        self._answered = True
        return reply

    def close(self) -> None:
        pass


class RemoteBackend:
    """Client side of the wire protocol, with a budget of RETRIES."""

    def __init__(self, transport) -> None:
        self._transport = transport

    def _exchange(self, payload: bytes) -> bytes:
        # Only transport failures are retried: a server that answered, even
        # with an error document, would answer the same again.
        last = ""
        for _ in range(RETRIES + 1):
            try:
                return self._transport.exchange(payload)
            except RemoteError as exc:
                # Its text only: the error's traceback holds this frame, so
                # keeping the error would make a cycle that keeps the
                # caller's solver, and its server, alive until a collection.
                last = str(exc)
        raise RemoteError(f"retry budget exhausted: {last}")

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        response = decode_response(self._exchange(encode_request(request)))
        if len(response.samples) > request.n:
            raise RemoteError(
                f"{len(response.samples)} samples in reply to a request for {request.n}"
            )
        if request.scored_continuations is not None:
            lp = response.continuation_logprobs or {}
            missing = [c for c in request.scored_continuations if c not in lp]
            if missing:
                raise RemoteError(f"response missing logprobs for {missing!r}")
        return response

    def reset(self) -> None:
        """Clear the server's per-problem state before the next problem."""
        if _load_reply(self._exchange(RESET_DOCUMENT)) != _RESET:
            raise RemoteError("server did not acknowledge the reset")

    def close(self) -> None:
        self._transport.close()


def check_noise(noise_rate: float) -> None:
    """Raises ValueError on a noise rate outside [0, 1], as `ScriptedBackend` does."""
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError(f"noise rate must be within [0, 1], got {noise_rate}")


def check_endpoint(endpoint: str) -> None:
    """Raises ValueError on an endpoint `remote_backend` cannot connect to:
    one neither `pipe:[CMD]` nor an http(s) URL with a host.  Starts nothing."""
    if not endpoint.startswith("pipe:"):
        # Imported here, as `HttpTransport` imports its modules: nothing a
        # `pipe:` run does needs it.
        import urllib.parse

        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"remote endpoint must be pipe:[CMD] or an http(s) URL with a "
                             f"host, got {endpoint!r}")


def remote_backend(endpoint: str) -> RemoteBackend:
    """Connect to a server.  `pipe:` forks the bundled server, `pipe:CMD`
    runs CMD, and an http(s) URL is POSTed to; any other endpoint raises
    ValueError (`check_endpoint`)."""
    check_endpoint(endpoint)
    if endpoint.startswith("pipe:"):
        argv = endpoint[len("pipe:"):]
        transport = PipeTransport(argv.split() if argv else None)
    else:
        transport = HttpTransport(endpoint)
    return RemoteBackend(transport)


def serve(backend, rfile, wfile) -> None:
    """Answer newline-delimited documents until the stream closes.

    A line that cannot be answered gets an error document and the server
    reads on, so one bad request does not cost the state of the problem in
    progress.
    """
    for line in rfile:
        if not line.strip():
            continue
        try:
            request = decode_request(line)
            if request is None:
                backend.reset()
                reply = RESET_DOCUMENT
            else:
                reply = encode_response(backend.complete(request))
        except Exception as exc:  # the server outlives any one request
            if not isinstance(exc, BackendError):
                # The interpreter's own traceback printer, which imports
                # nothing: a forked server must not.
                sys.__excepthook__(type(exc), exc, exc.__traceback__)
            reply = encode_error(exc)
        wfile.write(reply)
        wfile.flush()


def _main() -> None:
    serve(oracle_backend(), sys.stdin.buffer, sys.stdout.buffer)
    # Every reply is written; the interpreter's teardown would only keep the
    # client waiting for the exit.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    _main()
