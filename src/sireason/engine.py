"""The step loop: select by label, infer, halt, in a value-guided beam.

There is one search loop, `beam_search`.  Greedy selection-inference
(`si_answer`) is a beam of one trace with one proposal per step, which has
nothing to rank and so never calls the value role.

Selections are made purely by sentence label.  Each sample of the raw
generator output is scanned for "sent N" tokens; a sample with none, or
with one out of range, is dropped, and the labels of the others are
substituted back into statements.  A selected statement therefore always
comes from the context, which is what rules out made-up facts
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import models
from .core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    append_step_text,
)
from .models import CompletionRequest, GeneratorRole


@dataclass
class SolveStats:
    """Failure counters accumulated across a batch."""

    selection_syntax_errors: int = 0
    # Selection requests, one per expanded live trace per step.
    selection_calls: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def backend_failures(self) -> int:
        return len(self.notes)

    def backend_failure(self, note: str) -> None:
        self.notes.append(note)


def selection_step(
    question: str,
    context: LabeledContext,
    backend,
    stats: SolveStats,
    n: int = 1,
) -> list[tuple[list[Statement], list[int]]]:
    """(selection, labels) of every usable sample of one selection request
    for `n` samples, in sample order.

    A sample with no usable in-range label is a syntax error and is
    dropped; fewer samples than `n` means the generator ran out.  An empty
    context has nothing to select, so it sends no request.  A BackendError
    propagates.
    """
    if len(context) == 0:
        return []
    prompt = models.format_selection_prompt(question, context)
    samples = backend.complete(
        CompletionRequest(GeneratorRole.SELECTION, prompt, n=n)
    ).samples
    proposals = []
    for raw in samples:
        labels = models.read_selection(raw, len(context))
        if labels is None:
            stats.selection_syntax_errors += 1
            continue
        proposals.append(([context.lookup(label) for label in labels], labels))
    stats.selection_calls += 1
    return proposals


def _sample(backend, role: GeneratorRole, prompt: str) -> str:
    """The sample of a single-sample request; a reply with none raises
    BackendError."""
    samples = backend.complete(CompletionRequest(role, prompt)).samples
    if not samples:
        raise models.BackendError(f"{role.value} reply has no sample")
    return samples[0]


def _infer(selection: Sequence[Statement], backend) -> Statement:
    prompt = models.format_inference_prompt(selection)
    return models.read_inference(_sample(backend, GeneratorRole.INFERENCE, prompt))


def _halt_check(
    question: str,
    choices: Optional[Sequence[str]],
    inference: Statement,
    backend,
) -> Optional[Answer]:
    """Ask the halter; an answer means stop, None means keep reasoning.  A
    multiple-choice answer that is none of the stripped `choices` raises
    BackendError."""
    ready_prompt, answer_prompt = models.format_halter_prompts(
        question, inference.surface, choices
    )
    ready = _sample(backend, GeneratorRole.HALTER_READY, ready_prompt)
    if choices is None:
        return models.read_verdict(ready)
    if not models.read_ready(ready):
        return None
    answer = _sample(backend, GeneratorRole.HALTER_ANSWER, answer_prompt)
    return models.read_answer(answer, choices)


@dataclass(frozen=True)
class BeamConfig:
    """The search settings, checked on construction (ValueError).  The
    defaults are greedy: one trace, one proposal per step."""

    beam_width: int = 1
    proposals_per_trace: int = 1
    max_steps: int = 10

    def __post_init__(self) -> None:
        if not 1 <= self.beam_width <= self.proposals_per_trace:
            raise ValueError("need 1 <= beam_width <= proposals_per_trace")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class BeamEntry:
    trace: ReasoningTrace
    # The base context extended by the trace's inferences, and
    # render_trace(trace): each is written one step at a time as the trace grows.
    context: LabeledContext
    cumulative_score: float = 0.0
    text: str = ""


def _value_score(head: str, text: str, backend) -> float:
    request = CompletionRequest(GeneratorRole.VALUE, models.format_value_prompt(head, text),
                                scored_continuations=(models.CORRECT, models.INCORRECT))
    return models.read_value(backend.complete(request))


def _rank_key(entry: BeamEntry) -> tuple:
    return (-entry.cumulative_score, len(entry.trace.steps), entry.text)


def beam_search(
    problem,
    backend,
    cfg: BeamConfig = BeamConfig(),
    stats: Optional[SolveStats] = None,
) -> tuple[Answer, ReasoningTrace, list[BeamEntry]]:
    """Value-guided search over reasoning traces.

    Each live trace asks one selection request for `proposals_per_trace`
    samples, which give up to that many next steps (deduplicated by
    selection set plus inference), and the best `beam_width` extensions
    survive.  With more than one proposal per trace every extension is
    scored by the value generator, and a trace's score is the sum of its
    steps' value scores; a single proposal has nothing to rank, so its
    steps keep no value score.  Halted entries keep competing with frozen
    scores.  A step expands its live traces in rank order and stops once
    the best entry pooled so far is halted and the next live trace scores
    below it.  The search ends when a halted trace leads the beam or the
    step cap is reached; the third return value is the beam at that point,
    the cut of a pool that may stop short.  A step whose backend call fails
    is dropped and counted in `stats`, and a failed selection request drops
    every step its trace would have proposed.  Every role's request goes to
    `backend`.
    """
    # One proposal per trace leaves nothing to rank.
    ranked = cfg.proposals_per_trace > 1
    value_head = models.value_prompt_head(problem.context, problem.question) if ranked else ""
    if stats is None:
        stats = SolveStats()
    entries: list[BeamEntry] = [BeamEntry(ReasoningTrace(problem.context), problem.context)]
    for _ in range(cfg.max_steps):
        pool: list[BeamEntry] = [e for e in entries if e.trace.halted]
        best = pool[0] if pool else None
        for entry in entries:
            if entry.trace.halted:
                continue
            # `entries` is in rank order, so this entry and every later one
            # score at most its score, and a step never raises a score.  Below
            # a halted best, none of their extensions can lead the cut, which
            # that best then leads, ending the search below.  An equal score
            # is expanded: its extension can tie and win on rendered text.
            if (best is not None and best.trace.halted
                    and entry.cumulative_score < best.cumulative_score):
                break
            try:
                proposals = selection_step(
                    problem.question, entry.context, backend, stats,
                    cfg.proposals_per_trace,
                )
            except models.BackendError as exc:
                stats.backend_failure(f"{problem.id}: selection backend: {exc}")
                continue
            candidates: list[ReasoningStep] = []
            seen: set[tuple] = set()
            for selection, labels in proposals:
                try:
                    inference = _infer(selection, backend)
                except models.BackendError as exc:
                    stats.backend_failure(f"{problem.id}: backend: {exc}")
                    continue
                sig = (frozenset(labels), inference.key)
                if sig in seen:
                    continue
                seen.add(sig)
                candidates.append(
                    ReasoningStep(
                        selection=tuple(selection),
                        inference=inference,
                        selection_labels=tuple(labels),
                    )
                )
            # A dead branch (no expansion survived) drops out of the beam.
            for step in candidates:
                score = entry.cumulative_score
                text = append_step_text(entry.text, step)
                try:
                    if ranked:
                        value = _value_score(value_head, text, backend)
                        step = ReasoningStep(step.selection, step.inference,
                                             step.selection_labels, value)
                        score += value
                    maybe = _halt_check(
                        problem.question, problem.choices, step.inference, backend
                    )
                except models.BackendError as exc:
                    stats.backend_failure(f"{problem.id}: backend: {exc}")
                    continue
                steps = entry.trace.steps + (step,)
                extension = BeamEntry(ReasoningTrace(problem.context, steps, maybe),
                                      entry.context.extended(step.inference), score, text)
                pool.append(extension)
                if best is None or _rank_key(extension) < _rank_key(best):
                    best = extension
        if not pool:
            break
        if len(pool) > 1:
            pool.sort(key=_rank_key)
        entries = pool[: cfg.beam_width]
        # A halted leader is final, as expanding on until every entry halted
        # would show: a value score is at most 0, so a step never raises a
        # trace's score.  Each live entry ranks at or below the leader, so
        # each extension of it scores lower, or the same with more steps.
        if entries[0].trace.halted:
            break
    # `entries` is in rank order: the start entry, or a prefix of a sorted pool.
    halted = [e for e in entries if e.trace.halted]
    if halted:
        best = halted[0].trace
        return best.answer, best, entries
    # Nothing halted with an answer before the step cap.
    trace = entries[0].trace
    return Answer.UNKNOWN, ReasoningTrace(trace.base_context, trace.steps, Answer.UNKNOWN), entries


def si_answer(
    problem,
    backend,
    max_steps: int = 10,
    stats: Optional[SolveStats] = None,
) -> tuple[Answer, ReasoningTrace]:
    """Greedy selection-inference: a beam of one trace and one proposal.

    Returns the first halter answer, or Unknown once `max_steps` passes
    (or a step fails) without one.  The value role is never called.
    """
    answer, trace, _ = beam_search(problem, backend, BeamConfig(max_steps=max_steps), stats)
    return answer, trace
