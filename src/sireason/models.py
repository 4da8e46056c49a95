"""Role-typed text generators and the three interchangeable backends.

The reasoning engine talks to four kinds of generators: Selection (pick
sentence labels), Inference (complete an entailment), Halter (decide
whether the accumulated inference answers the question), and Value (score
a partial trace).  All of them share one request/response contract so a
symbolic oracle, a scripted table, and a remote model server can be
swapped without touching the engine.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from . import cnl, symbolic
from .core import (
    Answer,
    EmptyStatement,
    LabeledContext,
    Statement,
    TraceParseError,
    normalize_key,
    normalize_statement,
    parse_trace_text,
    render_premises,
    split_premises,
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


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    continuation_logprobs: Optional[Mapping[str, float]] = None
    # Every completion, at most the request's `n`, set only when n != 1.
    # Fewer than `n` means the generator had no more to give.
    samples: Optional[tuple[str, ...]] = None

    def all_samples(self) -> tuple[str, ...]:
        """`samples` if set, else the one `text`; none if that is empty, as
        the oracle says once its walk runs out."""
        if self.samples is not None:
            return self.samples
        return (self.text,) if self.text else ()


def sampled(request: CompletionRequest, samples: Sequence[str]) -> CompletionResponse:
    """The response to `request` made of `samples`: `text` is the first, or
    "" when there is none, and `samples` is set only when n != 1."""
    text = samples[0] if samples else ""
    if request.n == 1:
        return CompletionResponse(text=text)
    return CompletionResponse(text=text, samples=tuple(samples))


class BackendError(Exception):
    """A backend could not produce a usable completion."""


class ScriptExhausted(BackendError):
    """A table-driven script ran out of queued responses."""


class RemoteError(BackendError):
    """Transport or protocol failure while talking to a remote backend."""


# ---------------------------------------------------------------------------
# Prompt codec, role by role: the prompt the engine sends (format_*), its
# reader for the oracle, which gets only prompt text, exactly like a model
# would (_read_*), and the completion a perfect model gives (render_*).
# Training pairs are built from the same functions, so a model trains on the
# text the engine sends it at run time.
# ---------------------------------------------------------------------------

# -- selection --------------------------------------------------------------

def format_selection_prompt(question: str, context: LabeledContext) -> str:
    lines = [
        f"{label.render()}: {stmt.surface}" for label, stmt in context
    ]
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
    """The selection completion " sent 1. We know that sent 2." (rule first)."""
    return " " + render_premises([f"sent {i}" for i in labels])


# -- inference --------------------------------------------------------------

def format_inference_prompt(selection: Sequence[Statement]) -> str:
    if not selection:
        raise ValueError("inference prompt needs at least one selected statement")
    return f"{render_premises([s.surface for s in selection])} Therefore,"


def _read_inference_prompt(prompt: str) -> list[Statement]:
    if not prompt.endswith(" Therefore,"):
        raise BackendError("malformed inference prompt")
    return [
        normalize_statement(p) for p in split_premises(prompt[: -len(" Therefore,")])
    ]


def render_inference(surface: str) -> str:
    return f" {surface}."


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


def _read_ready_prompt(prompt: str) -> Optional[tuple[tuple[str, ...], str]]:
    """(choices, inference) of a multiple-choice readiness prompt, or None
    for any other prompt."""
    if not (prompt.startswith("Question:") and prompt.endswith(" Do you know the answer?")):
        return None
    q_and_inf = prompt[len("Question:"): -len(" Do you know the answer?")]
    try:
        question, inference = q_and_inf.rsplit(" Given ", 1)
    except ValueError as exc:
        raise BackendError("malformed readiness prompt") from exc
    parsed = cnl.parse_question(question)
    if not isinstance(parsed, cnl.MultiChoiceQuestion):
        raise BackendError("readiness prompt without choices")
    return parsed.choices, inference.rstrip(".")


def _read_answer_prompt(prompt: str) -> Optional[tuple[tuple[str, ...], str]]:
    """(choices, inference) of a multiple-choice answer prompt, or None for
    any other prompt."""
    marker = ". Which of the following most closely matches: "
    if not (prompt.startswith("Given ") and marker in prompt and prompt.endswith("? Answer:")):
        return None
    inference, rest = prompt[len("Given "):].split(marker, 1)
    return tuple(rest[: -len("? Answer:")].split(" OR ")), inference


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


# -- value ------------------------------------------------------------------

CORRECT = " correct"
INCORRECT = " incorrect"


def format_value_prompt(context: LabeledContext, question: str, rendered_steps: str) -> str:
    if not rendered_steps.strip():
        raise ValueError("value prompt needs at least one reasoning step")
    ctx_text = " ".join(f"{stmt.surface}." for _, stmt in context)
    return (
        f"Context: {ctx_text} Question: {question} "
        f"Reason: {rendered_steps} The above reasoning steps are"
    )


def _read_value_prompt(prompt: str) -> tuple[list[str], str, str]:
    tail = " The above reasoning steps are"
    if not prompt.startswith("Context: ") or not prompt.endswith(tail):
        raise BackendError("malformed value prompt")
    body = prompt[len("Context: "): -len(tail)]
    try:
        ctx_text, rest = body.split(" Question: ", 1)
        question, reason = rest.split(" Reason: ", 1)
    except ValueError as exc:
        raise BackendError("malformed value prompt") from exc
    surfaces = [s for s in (p.strip() for p in ctx_text.split(". ")) if s]
    if surfaces and surfaces[-1].endswith("."):
        surfaces[-1] = surfaces[-1][:-1]
    return surfaces, question, reason


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

    Selection enumerates candidate steps for each distinct prompt: the step
    that advances the shortest proof first, then every other rule instance
    of the closure whose premises are context facts and whose head is new,
    in label order, each fact selected once.  A request for n samples takes
    the next n of that list, or what is left of it, so beam search obtains
    distinct proposals, and repeated requests with the same prompt walk on
    down the list.

    The oracle answers one problem at a time: the worlds it closes, the gold
    steps of each question and each prompt's selection walk last until
    `reset()`, which forgets them all.  Each request holds the lock whole,
    since worlds extended from one closure share its rule index and ground
    into it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (context, closure) by the context's sentence surfaces.
        self._worlds: dict[tuple[str, ...], tuple[LabeledContext, symbolic.WorldClosure]] = {}
        # Gold steps by (surfaces, question).
        self._gold: dict[tuple[tuple[str, ...], str], tuple[tuple[str, tuple[int, ...]], ...]] = {}
        # [candidates, cursor] by selection prompt: the next proposal is
        # candidates[cursor].
        self._selections: dict[str, list] = {}

    def reset(self) -> None:
        with self._lock:
            self._worlds.clear()
            self._gold.clear()
            self._selections.clear()

    def close(self) -> None:
        pass

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        handler = getattr(self, f"_complete_{GeneratorRole(request.role).value}")
        try:
            with self._lock:
                return handler(request)
        except (cnl.ParseError, EmptyStatement) as exc:
            # Text outside the grammar, such as a free-text (EB) question.
            raise BackendError(f"oracle cannot read the prompt: {exc}") from exc

    # -- the problem in hand ------------------------------------------------

    def _world_for(self, surfaces: tuple[str, ...]):
        """The context the surfaces label and its closure.

        A search step appends one sentence to a context it has seen, so when
        the context less its last sentence is known, its world is extended
        by that sentence rather than closed afresh.
        """
        world = self._worlds.get(surfaces)
        if world is not None:
            return world
        parent = self._worlds.get(surfaces[:-1])
        if parent is None:
            ctx = LabeledContext.from_statements(surfaces)
            world = ctx, symbolic.closure(ctx)
        else:
            parent_ctx, parent_closed = parent
            ctx = parent_ctx.extended(normalize_statement(surfaces[-1]))
            world = ctx, symbolic.extend(parent_closed, ctx)
        self._worlds[surfaces] = world
        return world

    def _gold_steps(
        self, surfaces: tuple[str, ...], question: str
    ) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(inference key, selection labels) of each step of the shortest
        proof of a hypothesis question; none if it has no proof or is no
        hypothesis.

        Selection and value calls on one context share it, and it keeps keys
        and label numbers only, not the proof."""
        steps = self._gold.get((surfaces, question))
        if steps is not None:
            return steps
        _, world = self._world_for(surfaces)
        parsed_q = cnl.parse_question(question)
        steps = ()
        if isinstance(parsed_q, cnl.Hypothesis):
            try:
                target = symbolic.proof_target(world, parsed_q)
            except symbolic.NoProof:
                pass
            else:
                steps = tuple(
                    (normalize_key(cnl.render_atom(d.head)),
                     tuple(label.index for label in labels))
                    for d, labels in symbolic.proof_steps(world, target)
                )
        self._gold[surfaces, question] = steps
        return steps

    def _selection_candidates(self, prompt: str) -> tuple[str, ...]:
        """Ordered selection completions for one prompt, best candidate first."""
        question, surfaces = _read_selection_prompt(prompt)
        ctx, world = self._world_for(surfaces)
        present = {stmt.key for _, stmt in ctx}

        on_path: Optional[tuple[int, ...]] = None
        for key, labels in self._gold_steps(surfaces, question):
            if key not in present:
                on_path = labels
                break

        # Worlds extended from one closure share its rule index, so the index
        # also holds instances grounded by this world's extensions: only those
        # over this world's facts count.
        facts = world.fact_labels
        # A fact that is two of an instance's premises is selected once.
        firings = sorted({
            (rule.index,) + tuple(sorted({facts[p].index for p in premises}))
            for rule, premises, head in world.index.grounded.values()
            if all(p in facts for p in premises)
            and normalize_key(cnl.render_atom(head)) not in present
        })

        ordered: list[tuple[int, ...]] = []
        if on_path is not None:
            ordered.append(on_path)
        for f in firings:
            if on_path is not None and frozenset(f) == frozenset(on_path):
                continue
            ordered.append(f)
        return tuple(render_selection(labels) for labels in ordered)

    def _judge_steps(self, surfaces: tuple[str, ...], question: str, line: str) -> bool:
        """Decide whether one rendered step is correct and a step of a
        shortest proof."""
        ctx, _ = self._world_for(surfaces)
        parsed_q = cnl.parse_question(question)
        if not isinstance(parsed_q, cnl.Hypothesis):
            raise BackendError("value oracle needs a hypothesis question")
        try:
            trace = parse_trace_text(line, ctx)
        except TraceParseError:
            return False
        if not trace.steps:
            return False
        proof_keys = {key for key, _ in self._gold_steps(surfaces, question)}
        return symbolic.is_proof_step(trace.steps[-1], proof_keys)

    # -- selection ----------------------------------------------------------

    def _complete_selection(self, request: CompletionRequest) -> CompletionResponse:
        walk = self._selections.get(request.prompt)
        if walk is None:
            walk = self._selections[request.prompt] = [
                self._selection_candidates(request.prompt), 0]
        candidates, cursor = walk
        walk[1] = cursor + request.n
        return sampled(request, candidates[cursor:cursor + request.n])

    # -- inference ----------------------------------------------------------

    def _complete_inference(self, request: CompletionRequest) -> CompletionResponse:
        selection = _read_inference_prompt(request.prompt)
        return CompletionResponse(text=render_inference(symbolic.infer(selection).surface))

    # -- halting ------------------------------------------------------------

    def _complete_halter_ready(self, request: CompletionRequest) -> CompletionResponse:
        read = _read_ready_prompt(request.prompt)
        if read is None:
            return CompletionResponse(text=render_answer(_pw_halt_answer(request.prompt)))
        choices, inference = read
        return CompletionResponse(
            text=render_ready(_matched_choice(choices, inference) is not None)
        )

    def _complete_halter_answer(self, request: CompletionRequest) -> CompletionResponse:
        read = _read_answer_prompt(request.prompt)
        if read is None:
            return CompletionResponse(text=render_answer(_pw_halt_answer(request.prompt)))
        choices, inference = read
        best = _matched_choice(choices, inference)
        if best is None:
            best = max(choices, key=lambda c: (_overlap_score(c, inference), c))
        return CompletionResponse(text=render_answer(Answer.of_choice(best)))

    # -- value --------------------------------------------------------------

    def _complete_value(self, request: CompletionRequest) -> CompletionResponse:
        if request.scored_continuations is None:
            raise BackendError("value request without scored continuations")
        surfaces, question, reason = _read_value_prompt(request.prompt)
        # Each earlier step was judged when it was the newest, so the
        # oracle reads only the newest line.
        good = self._judge_steps(tuple(surfaces), question, reason.rpartition("\n")[2])
        logprobs = {
            CORRECT: CERTAIN_GOOD if good else CERTAIN_BAD,
            INCORRECT: CERTAIN_BAD if good else CERTAIN_GOOD,
        }
        missing = [c for c in request.scored_continuations if c not in logprobs]
        for c in missing:
            logprobs[c] = CERTAIN_BAD
        preferred = CORRECT if good else INCORRECT
        return CompletionResponse(text=preferred, continuation_logprobs=logprobs)


def _pw_halt_answer(prompt: str) -> Answer:
    """The single-prompt True/False/Unknown halter's answer."""
    inference, question = _read_halter_prompt(prompt)
    if normalize_key(inference) == normalize_key(symbolic.NOTHING_FOLLOWS):
        return Answer.UNKNOWN
    parsed = cnl.parse_question(question)
    if not isinstance(parsed, cnl.Hypothesis):
        raise BackendError("halting prompt without a hypothesis question")
    try:
        inf_stmt = cnl.parse_statement(inference, strict=True)
    except cnl.ParseError:
        return Answer.UNKNOWN
    if not isinstance(inf_stmt, cnl.Fact):
        return Answer.UNKNOWN
    if inf_stmt.atom == parsed.atom:
        return Answer.TRUE
    if cnl.is_negation_of(inf_stmt.atom, parsed.atom):
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
    """

    def __init__(
        self,
        base=None,
        script: Optional[Mapping[GeneratorRole, Sequence[str]]] = None,
        noise_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError("noise rate must be within [0, 1]")
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
        role = GeneratorRole(request.role)
        # None marks a sample that noise leaves to the script or the base.
        samples: list[Optional[str]] = [None] * request.n
        # The lock guards only this backend's own state (the noise draws and
        # the queues); a forwarded call runs outside it.
        with self._lock:
            # Noise pre-empts the underlying generator sample by sample, so
            # the proposals of one request stay independent draws.
            if role is GeneratorRole.SELECTION and self._noise_rate > 0.0:
                for i in range(request.n):
                    if self._rng.random() < self._noise_rate:
                        samples[i] = self._random_selection(request.prompt)
            wanted = samples.count(None)
            if wanted == 0:
                return sampled(request, samples)
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
                # Nothing replaced: the base answers the request as it is.
                return self._base.complete(request)
            rest = self._base.complete(replace(request, n=wanted)).all_samples()
        # The samples left fill the unset ones in order; any past the end of
        # `rest` are dropped.
        filled = iter(rest)
        merged = [s if s is not None else next(filled, None) for s in samples]
        return sampled(request, [s for s in merged if s is not None])

    def _random_selection(self, prompt: str) -> str:
        try:
            n = len(_read_selection_prompt(prompt)[1])
        except BackendError:
            n = 0
        if n < 2:
            return ""
        rule = self._rng.randint(1, n)
        n_premises = self._rng.choice([1, 2])
        premises = [self._rng.randint(1, n) for _ in range(n_premises)]
        return render_selection([rule] + premises)


# ---------------------------------------------------------------------------
# Remote backend: one JSON document per line, one reply per document.
#
#   request   {"role", "prompt", "scored_continuations"}, plus "n" when n != 1
#             answered by {"text", "continuation_logprobs"}, plus "samples"
#             (a list of at most n strings) when n != 1
#   reset     {"reset": true}, sent before each problem: the server calls
#             backend.reset() and answers with the same document
#   error     {"error": "..."}, the server's answer to a line it could not
#             answer; it reads on
# ---------------------------------------------------------------------------

_RESET = {"reset": True}
RESET_DOCUMENT = (json.dumps(_RESET) + "\n").encode("utf-8")


def encode_request(request: CompletionRequest) -> bytes:
    doc = {
        "role": GeneratorRole(request.role).value,
        "prompt": request.prompt,
        "scored_continuations": (
            list(request.scored_continuations)
            if request.scored_continuations is not None
            else None
        ),
    }
    if request.n != 1:
        doc["n"] = request.n
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def decode_request(data: bytes) -> Optional[CompletionRequest]:
    """The request a document carries, or None for the reset document."""
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc == _RESET:
            return None
        cont = doc["scored_continuations"]
        n = doc.get("n", 1)
        # A bool is an int to Python, but not a count.
        if type(n) is not int or n < 1:
            raise ValueError(f"n {n!r} is not a positive integer")
        return CompletionRequest(
            role=GeneratorRole(doc["role"]),
            prompt=doc["prompt"],
            scored_continuations=tuple(cont) if cont is not None else None,
            n=n,
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise RemoteError(f"bad request document: {exc}") from exc


def encode_response(response: CompletionResponse) -> bytes:
    doc = {
        "text": response.text,
        "continuation_logprobs": (
            dict(response.continuation_logprobs)
            if response.continuation_logprobs is not None
            else None
        ),
    }
    if response.samples is not None:
        doc["samples"] = list(response.samples)
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def encode_error(exc: Exception) -> bytes:
    doc = {"error": f"{type(exc).__name__}: {exc}"}
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _load_reply(data: bytes):
    """Parse a server reply; an error document raises RemoteError."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise RemoteError(f"bad response document: {exc}") from exc
    if isinstance(doc, dict) and "error" in doc:
        raise RemoteError(f"server error: {doc['error']}")
    return doc


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
        text, logprobs = doc["text"], doc["continuation_logprobs"]
        if not isinstance(text, str):
            raise TypeError(f"text {text!r} is not a string")
        if logprobs is not None:
            if not isinstance(logprobs, dict):
                raise TypeError(f"continuation_logprobs {logprobs!r} is not an object")
            # JSON object keys are always strings.
            logprobs = {k: _logprob(v) for k, v in logprobs.items()}
        samples = doc.get("samples")
        if samples is not None:
            if not (isinstance(samples, list) and all(isinstance(s, str) for s in samples)):
                raise TypeError(f"samples {samples!r} is not a list of strings")
            samples = tuple(samples)
        return CompletionResponse(
            text=text, continuation_logprobs=logprobs, samples=samples
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
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

# The bundled server's command.  `-S` skips `site`, whose `.pth` hooks can
# cost a start tens of ms; the server needs nothing from site-packages.  The
# bootstrap appends the directory this package was imported from to
# `sys.path`, after the stdlib, so the server runs the client's `sireason`
# with or without PYTHONPATH.
_SERVER_BOOTSTRAP = (
    "import sys; sys.path.append(sys.argv.pop()); "
    "from sireason.models import _main; _main()"
)


def _server_argv() -> list[str]:
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-S", "-c", _SERVER_BOOTSTRAP, package_parent]


def _read_some(fd: int, deadline: float) -> Optional[bytes]:
    """The next bytes the server writes, as they arrive; b"" at the end of
    the stream, None if `deadline` (on `time.monotonic`) passes first."""
    import select

    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
        return None
    return os.read(fd, 65536)


class PipeTransport:
    """Runs a server subprocess and exchanges newline-delimited documents,
    one exchange at a time.

    The server is started on the first exchange.  If it dies, or does not
    finish a reply within REPLY_WAIT_S, the failing exchange kills and reaps
    it and raises, and the next exchange starts a new one, up to
    RESPAWN_LIMIT times, unless the server failed before its first answer:
    one that cannot come back would cost a process start (and perhaps a
    full wait) per attempt, so every later exchange raises at once.
    """

    def __init__(self, argv: Optional[Sequence[str]] = None) -> None:
        self._argv = list(argv) if argv else _server_argv()
        self._proc: Optional[subprocess.Popen] = None
        self._spawns = 0
        self._answered = False  # whether the running server has answered
        self._gave_up: Optional[str] = None
        # Bytes the server wrote past the last reply line read.
        self._pending = b""
        self._lock = threading.Lock()

    def _ensure(self) -> subprocess.Popen:
        import subprocess

        if self._proc is not None and self._proc.poll() is not None:
            self._stop()
        if self._proc is None:
            if self._spawns > RESPAWN_LIMIT:
                self._gave_up = (f"pipe transport: server restarted {RESPAWN_LIMIT}"
                                 " times already; not restarted again")
                raise RemoteError(self._gave_up)
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
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
            try:
                proc.stdin.write(payload)
                proc.stdin.flush()
                line = self._read_line(proc.stdout.fileno())
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
            chunk = _read_some(fd, deadline)
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
            while chunk := _read_some(proc.stdout.fileno(), deadline):
                pass
            kill = chunk is None
        if kill:
            proc.kill()
        proc.wait()
        proc.stdout.close()


class HttpTransport:
    """POSTs each document to an HTTP endpoint and reads the reply body."""

    def __init__(self, endpoint: str) -> None:
        self._endpoint = endpoint

    def exchange(self, payload: bytes) -> bytes:
        # Imported here, the only place that needs it: a `pipe:` server
        # would otherwise load `http`, `email` and `ssl` on every start.
        import http.client
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            self._endpoint,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # A reply cut short raises an `HTTPException`, which is no `OSError`.
        try:
            with urllib.request.urlopen(req, timeout=REPLY_WAIT_S) as resp:
                return resp.read()
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            raise RemoteError(f"http transport failed: {exc}") from exc

    def close(self) -> None:
        pass


class RemoteBackend:
    """Client side of the wire protocol, with a budget of RETRIES."""

    def __init__(self, transport) -> None:
        self._transport = transport

    def _exchange(self, payload: bytes) -> bytes:
        # Only transport failures are retried: a server that answered, even
        # with an error document, would answer the same again.
        last: Optional[Exception] = None
        for _ in range(RETRIES + 1):
            try:
                return self._transport.exchange(payload)
            except RemoteError as exc:
                last = exc
        raise RemoteError(f"retry budget exhausted: {last}")

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        response = decode_response(self._exchange(encode_request(request)))
        if response.samples is not None and len(response.samples) > request.n:
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


def remote_backend(endpoint: str) -> RemoteBackend:
    """Connect to a server.  `pipe:` endpoints spawn a subprocess, others POST."""
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
                import traceback

                traceback.print_exc(file=sys.stderr)
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
