"""Problem file ingestion and training-pair extraction.

Problem files are line-delimited JSON documents:

    {"id": ..., "context": [...], "question": ..., "choices": [...]?,
     "answer": ..., "proof": [{"selection": [indices], "inference": str}]?,
     "depth": int?}

A problem with `choices` (at least two) is multiple choice; one without
asks whether a hypothesis is True, False or Unknown.  Proof selections
refer to context sentences by 1-based index; an index past the end of the
context refers to the j-th inference of the proof itself (index
len(context) + j), which keeps gold proofs label-stable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import cnl, models, symbolic
from .core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    SentenceLabel,
    Statement,
    append_step_text,
    normalize_key,
    normalize_statement,
)
from .models import GeneratorRole


class SchemaError(ValueError):
    """A problem file line that does not match the schema."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        self.reason = message
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class Problem:
    id: str
    context: LabeledContext
    question: str
    choices: Optional[tuple[str, ...]]
    gold_answer: Answer
    gold_proof: Optional[ReasoningTrace] = None
    depth: Optional[int] = None


@dataclass(frozen=True)
class TrainingPair:
    role: GeneratorRole
    input: str
    target: str
    source_problem_id: str
    step_index: Optional[int] = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _proof_from_indices(
    context: LabeledContext, proof_doc: Sequence[dict]
) -> ReasoningTrace:
    """Resolve a stored proof's index lists into statements, step by step."""
    base_len = len(context)
    inferences: list[Statement] = []
    steps: list[ReasoningStep] = []
    for step_no, doc in enumerate(proof_doc, start=1):
        indices = doc["selection"]
        if not isinstance(doc["inference"], str):
            raise SchemaError(f"step {step_no}: inference {doc['inference']!r} is not a string")
        inference = normalize_statement(doc["inference"])
        selection: list[Statement] = []
        labels: list[SentenceLabel] = []
        for idx in indices:
            if not _is_int(idx) or idx < 1:
                raise SchemaError(f"step {step_no}: bad selection index {idx!r}")
            if idx <= base_len:
                stmt = context.lookup(SentenceLabel(idx))
            else:
                j = idx - base_len
                if j > len(inferences):
                    raise SchemaError(
                        f"step {step_no}: selection index {idx} references "
                        f"inference {j} which does not exist yet"
                    )
                stmt = inferences[j - 1]
            selection.append(stmt)
            labels.append(SentenceLabel(idx))
        steps.append(
            ReasoningStep(
                selection=tuple(selection),
                inference=inference,
                selection_labels=tuple(labels),
            )
        )
        inferences.append(inference)
    return ReasoningTrace(base_context=context, steps=tuple(steps))


def problem_from_doc(doc: dict) -> Problem:
    try:
        if not isinstance(doc, dict):
            raise SchemaError(f"a problem is a JSON object, not {doc!r}")
        ident, question = doc["id"], doc["question"]
        choices, depth = doc.get("choices"), doc.get("depth")
        if not (isinstance(ident, str) or _is_int(ident)):
            raise SchemaError(f"id {ident!r} is not a string or an integer")
        if not _is_str_list(doc["context"]):
            raise SchemaError(f"context {doc['context']!r} is not a list of strings")
        if not isinstance(question, str):
            raise SchemaError(f"question {question!r} is not a string")
        if choices is not None and not (_is_str_list(choices) and len(choices) >= 2):
            raise SchemaError(f"choices {choices!r} is not a list of at least 2 strings")
        if depth is not None and not _is_int(depth):
            raise SchemaError(f"depth {depth!r} is not an integer")
        context = LabeledContext.from_statements(doc["context"])
        proof = (
            _proof_from_indices(context, doc["proof"])
            if doc.get("proof") is not None
            else None
        )
        return Problem(
            id=str(ident),
            context=context,
            question=question,
            choices=tuple(choices) if choices else None,
            gold_answer=Answer.parse(str(doc["answer"])),
            gold_proof=proof,
            depth=depth,
        )
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def problem_to_doc(problem: Problem) -> dict:
    doc: dict = {
        "id": problem.id,
        "context": [s.surface for s in problem.context.statements()],
        "question": problem.question,
        "answer": problem.gold_answer.render(),
    }
    if problem.choices is not None:
        doc["choices"] = list(problem.choices)
    if problem.gold_proof is not None:
        doc["proof"] = [
            {
                "selection": [l.index for l in step.selection_labels],
                "inference": step.inference.surface,
            }
            for step in problem.gold_proof.steps
        ]
    if problem.depth is not None:
        doc["depth"] = problem.depth
    return doc


def load_problems(path) -> list[Problem]:
    """The problems of a file; a line that breaks the schema, or repeats
    an earlier problem's id, raises SchemaError with its line number."""
    problems: list[Problem] = []
    id_lines: dict[str, int] = {}
    # Read as bytes and decode line by line, so that a byte that is not
    # UTF-8 is charged to its own line.
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SchemaError(f"not UTF-8: {exc}", line_no) from exc
            except json.JSONDecodeError as exc:
                raise SchemaError(f"not valid JSON: {exc}", line_no) from exc
            try:
                problem = problem_from_doc(doc)
            except SchemaError as exc:
                raise SchemaError(exc.reason, line_no) from exc
            first = id_lines.setdefault(problem.id, line_no)
            if first != line_no:
                raise SchemaError(
                    f"id {problem.id!r} repeats the id on line {first}", line_no
                )
            problems.append(problem)
    return problems


def save_problems(problems: Iterable[Problem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            fh.write(json.dumps(problem_to_doc(p), sort_keys=True) + "\n")


def _reading_faults(problem: Problem) -> list[str]:
    """Where a True/False/Unknown problem does not read as the reasoner
    reads it: a context sentence or the question outside the grammar, or a
    gold proof whose last inference is not what the gold answer claims (the
    hypothesis for True, its negation for False)."""
    faults = [
        f"{label.render()} is outside the grammar: {stmt.surface!r}"
        for label, stmt in problem.context
        if isinstance(cnl.parse_statement(stmt.surface), cnl.Opaque)
    ]
    try:
        question = cnl.parse_question(problem.question)
    except cnl.ParseError:
        question = None
    if not isinstance(question, cnl.Hypothesis):
        return faults + ["question is outside the grammar"]
    proof, answer = problem.gold_proof, problem.gold_answer
    if proof is None or not proof.steps or answer not in (Answer.TRUE, Answer.FALSE):
        return faults
    claim = question.atom if answer == Answer.TRUE else cnl.negate(question.atom)
    last = cnl.parse_statement(proof.steps[-1].inference.surface)
    if not (isinstance(last, cnl.Fact) and last.atom == claim):
        faults.append(
            f"gold answer {answer.render()} claims {cnl.render_atom(claim)!r}, "
            f"but the gold proof ends in {last.surface!r}"
        )
    return faults


def validate_problems(problems: Iterable[Problem]) -> list[str]:
    """Lint a problem set, one "id: fault" line per fault.  Multiple-choice
    problems are free text and are not checked here.  For the others, the
    gold proof must replay (`symbolic.trace_faults`) and the problem must
    read as the reasoner reads it (`_reading_faults`)."""
    findings: list[str] = []
    for p in problems:
        if p.choices is not None:
            continue
        faults = symbolic.trace_faults(p.gold_proof) if p.gold_proof is not None else []
        findings.extend(f"{p.id}: {fault}" for fault in faults + _reading_faults(p))
    return findings


def generate_problem_set(seed: int, counts: dict[int, int]) -> list[Problem]:
    """A batch of generated problems, `counts` mapping depth -> how many."""
    problems: list[Problem] = []
    for depth in sorted(counts):
        for i in range(counts[depth]):
            gen = symbolic.generate_problem(seed=seed * 100003 + i, depth=depth)
            problems.append(Problem(
                id=f"gen-d{depth}-s{seed}-{i}",
                context=gen.context,
                question=gen.question,
                choices=None,
                gold_answer=gen.gold_answer,
                gold_proof=gen.gold_proof,
                depth=depth,
            ))
    return problems


# ---------------------------------------------------------------------------
# Training-pair extraction.
# ---------------------------------------------------------------------------

def extract_si_pairs(problem: Problem) -> list[TrainingPair]:
    if problem.gold_proof is None:
        return []
    pairs: list[TrainingPair] = []
    trace = problem.gold_proof
    for k, step in enumerate(trace.steps):
        context_k = trace.context_before(k)
        pairs.append(
            TrainingPair(
                role=GeneratorRole.SELECTION,
                input=models.format_selection_prompt(problem.question, context_k),
                target=models.render_selection([l.index for l in step.selection_labels]),
                source_problem_id=problem.id,
                step_index=k,
            )
        )
        pairs.append(
            TrainingPair(
                role=GeneratorRole.INFERENCE,
                input=models.format_inference_prompt(step.selection),
                target=models.render_inference(step.inference.surface),
                source_problem_id=problem.id,
                step_index=k,
            )
        )
    return pairs


def extract_halter_pairs(problem: Problem) -> list[TrainingPair]:
    """One readiness pair per proof step, plus one answer pair for the last
    step of a multiple-choice proof; True/False/Unknown proofs say Unknown
    until the last step."""
    if problem.gold_proof is None or not problem.gold_proof.steps:
        return []
    steps = problem.gold_proof.steps
    last = len(steps) - 1
    pairs: list[TrainingPair] = []
    for k, step in enumerate(steps):
        ready, answer = models.format_halter_prompts(
            problem.question, step.inference.surface, problem.choices
        )
        if problem.choices is None:
            target = models.render_answer(problem.gold_answer if k == last else Answer.UNKNOWN)
        else:
            target = models.render_ready(k == last)
        pairs.append(
            TrainingPair(
                role=GeneratorRole.HALTER_READY,
                input=ready,
                target=target,
                source_problem_id=problem.id,
                step_index=k,
            )
        )
    if answer is not None:  # the last step's answer prompt
        pairs.append(
            TrainingPair(
                role=GeneratorRole.HALTER_ANSWER,
                input=answer,
                target=models.render_answer(problem.gold_answer),
                source_problem_id=problem.id,
                step_index=last,
            )
        )
    return pairs


@dataclass
class ValueExtractionReport:
    pairs_emitted: int = 0
    corruption_impossible: int = 0
    collisions: int = 0


def extract_value_pairs(
    problem: Problem,
    seed: int,
    report: Optional[ValueExtractionReport] = None,
) -> list[TrainingPair]:
    """Positive/negative value pairs per proof prefix.

    Each corrupted sibling replaces exactly one statement of the newest
    step's selection with a different statement from the same context and
    recomputes the inference.  Corruptions that still land on the gold
    path are collisions: dropped and counted.
    """
    if problem.gold_proof is None:
        return []
    rng = random.Random(("value-pairs", problem.id, seed).__repr__())
    trace = problem.gold_proof
    gold_keys = {normalize_key(s.inference.surface) for s in trace.steps}
    pairs: list[TrainingPair] = []
    text = ""
    for n, step in enumerate(trace.steps, start=1):
        before, text = text, append_step_text(text, step)
        pairs.append(
            TrainingPair(
                role=GeneratorRole.VALUE,
                input=models.format_value_prompt(problem.context, problem.question, text),
                target=models.CORRECT,
                source_problem_id=problem.id,
                step_index=n - 1,
            )
        )
        if report is not None:
            report.pairs_emitted += 1
        context_n = trace.context_before(n - 1)
        selection_keys = {s.key for s in step.selection}
        alternatives = [
            s for s in context_n.statements() if s.key not in selection_keys
        ]
        if not alternatives:
            if report is not None:
                report.corruption_impossible += 1
            continue
        slot = rng.randrange(len(step.selection))
        replacement = rng.choice(alternatives)
        corrupted_selection = list(step.selection)
        corrupted_selection[slot] = replacement
        corrupted_inference = symbolic.infer(corrupted_selection)
        corrupted_step = ReasoningStep(
            selection=tuple(corrupted_selection),
            inference=corrupted_inference,
        )
        if symbolic.is_proof_step(corrupted_step, gold_keys):
            if report is not None:
                report.collisions += 1
            continue
        pairs.append(
            TrainingPair(
                role=GeneratorRole.VALUE,
                input=models.format_value_prompt(
                    problem.context,
                    problem.question,
                    append_step_text(before, corrupted_step),
                ),
                target=models.INCORRECT,
                source_problem_id=problem.id,
                step_index=n - 1,
            )
        )
        if report is not None:
            report.pairs_emitted += 1
    return pairs


def save_training_pairs(pairs: Iterable[TrainingPair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                json.dumps(
                    {
                        "role": p.role.value,
                        "input": p.input,
                        "target": p.target,
                        "source_problem_id": p.source_problem_id,
                        "step_index": p.step_index,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
