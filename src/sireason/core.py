"""Reasoning traces, problems, and the period and selection-order rules.

A trace is a base context plus a sequence of (selection, inference) steps.
Connectedness is decided here; whether a step's inference follows from its
selection is the reasoner's to judge (`symbolic.trace_faults`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Iterable, Optional, Sequence


class EmptyStatement(ValueError):
    """Raised when a statement normalizes to nothing."""


class TraceParseError(ValueError):
    """Raised when trace text cannot be read back into steps."""


_WORD = re.compile(r"[a-z]+")


def tokenize(text: str) -> list[str]:
    """The words of `text`: its lowercased runs of the letters a-z."""
    return _WORD.findall(text.lower())


# Statements are hashed and compared by key, so the same few thousand
# surfaces are keyed over and over during a search.
@lru_cache(maxsize=4096)
def normalize_key(raw: str) -> str:
    """Equality key: the words of `raw`, joined together."""
    return "".join(tokenize(raw))


class Statement:
    """A sentence. Equality and hashing use the normalized key only, which
    is computed once, when the statement is built; the original surface is
    kept for rendering."""

    __slots__ = ("surface", "key")

    def __init__(self, surface: str) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "key", normalize_key(surface))

    def __setattr__(self, *_):
        raise AttributeError("Statement is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Statement, (self.surface,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statement):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return self.surface

    def __repr__(self) -> str:
        return f"Statement(surface={self.surface!r})"


def strip_period(raw: str) -> str:
    """`raw` without its surrounding whitespace and one trailing period."""
    raw = raw.strip()
    if raw.endswith("."):
        raw = raw[:-1].rstrip()
    return raw


def normalize_statement(raw: str) -> Statement:
    """Build a Statement from raw text.

    Trims whitespace and a trailing period (`strip_period`). Raises
    EmptyStatement if the normalized equality key is empty.
    """
    stmt = Statement(strip_period(raw))
    if not stmt.key:
        raise EmptyStatement(f"statement is empty after normalization: {raw!r}")
    return stmt


def selection_order(labels: Sequence) -> list:
    """Labels in the order a selection names them: the first (the rule), then
    the other distinct ones in ascending order."""
    rule = labels[0]
    return [rule, *sorted(set(labels[1:]) - {rule})]


class LabeledContext:
    """An ordered, immutable tuple of statements; the label of a statement
    is its position, 1 (written "sent 1") for the first.

    `extended` returns a new context with the statement appended, under the
    next label; existing statements are shared.
    """

    __slots__ = ("_statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        object.__setattr__(self, "_statements", statements)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LabeledContext is immutable")

    @classmethod
    def from_statements(cls, statements: Iterable[Statement | str]) -> "LabeledContext":
        return cls(tuple(
            s if isinstance(s, Statement) else normalize_statement(s) for s in statements
        ))

    def extended(self, statement: Statement) -> "LabeledContext":
        return LabeledContext(self._statements + (statement,))

    def statements(self) -> tuple[Statement, ...]:
        return self._statements

    def lookup(self, label: int) -> Statement:
        if not 1 <= label <= len(self._statements):
            raise KeyError(f"sent {label} out of range 1..{len(self._statements)}")
        return self._statements[label - 1]

    def __len__(self) -> int:
        return len(self._statements)

    def __iter__(self):
        """The `(label, statement)` pairs, in order."""
        return enumerate(self._statements, 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledContext):
            return NotImplemented
        return self._statements == other._statements

    def __hash__(self) -> int:
        return hash(self._statements)

    def __repr__(self) -> str:
        return f"LabeledContext({len(self._statements)} sentences)"


@dataclass(frozen=True)
class ReasoningStep:
    """One step: a non-empty ordered selection and the inference drawn from it."""

    selection: tuple[Statement, ...]
    inference: Statement
    selection_labels: tuple[int, ...] = ()
    value_score: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.selection:
            raise ValueError("selection must be non-empty")


@dataclass(frozen=True)
class Answer:
    """True | False | Unknown | Choice(text)."""

    kind: str  # "true" | "false" | "unknown" | "choice"
    choice: Optional[str] = None

    # Set below the class; class constants, not fields.
    TRUE: ClassVar["Answer"]
    FALSE: ClassVar["Answer"]
    UNKNOWN: ClassVar["Answer"]

    def __post_init__(self) -> None:
        if self.kind not in ("true", "false", "unknown", "choice"):
            raise ValueError(f"bad answer kind: {self.kind}")
        if (self.kind == "choice") != (self.choice is not None):
            raise ValueError("choice text iff kind == 'choice'")

    @classmethod
    def of_choice(cls, text: str) -> "Answer":
        return cls("choice", text)

    @classmethod
    def parse(cls, text: str) -> "Answer":
        t = text.strip()
        if t == "True":
            return cls.TRUE
        if t == "False":
            return cls.FALSE
        if t == "Unknown":
            return cls.UNKNOWN
        return cls.of_choice(t)

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def render(self) -> str:
        if self.kind == "choice":
            return self.choice  # type: ignore[return-value]
        return self.kind.capitalize()


Answer.TRUE = Answer("true")
Answer.FALSE = Answer("false")
Answer.UNKNOWN = Answer("unknown")


@dataclass(frozen=True)
class ReasoningTrace:
    base_context: LabeledContext
    steps: tuple[ReasoningStep, ...] = ()
    answer: Optional[Answer] = None

    def __post_init__(self) -> None:
        if self.answer is not None and not self.answer.is_unknown and not self.steps:
            raise ValueError("halted trace with a definite answer must have steps")

    @classmethod
    def from_labels(cls, base: LabeledContext,
                    steps: Iterable[tuple[Sequence[int], Statement]],
                    answer: Optional[Answer] = None) -> "ReasoningTrace":
        """The trace of the `(selection labels, inference)` steps, each step's
        labels read in its context: `base`, then the earlier inferences.  An
        unknown label raises KeyError."""
        context, built = base, []
        for labels, inference in steps:
            selection = tuple(map(context.lookup, labels))
            built.append(ReasoningStep(selection, inference, tuple(labels)))
            context = context.extended(inference)
        return cls(base, tuple(built), answer)

    @property
    def halted(self) -> bool:
        """Whether the trace ended with an answer."""
        return self.answer is not None


@dataclass(frozen=True)
class Problem:
    id: str
    context: LabeledContext
    question: str
    choices: Optional[tuple[str, ...]]
    gold_answer: Answer
    gold_proof: Optional[ReasoningTrace] = None
    depth: Optional[int] = None


def is_connected(trace: ReasoningTrace) -> bool:
    """Whether every selected statement is a context member or a prior inference."""
    known = set(trace.base_context.statements())
    for step in trace.steps:
        if not known.issuperset(step.selection):
            return False
        known.add(step.inference)
    return True


_WE_KNOW = ". We know that "


def render_premises(premises: Sequence[str]) -> str:
    """Premises as "X. We know that Y and Z.", or "X." for one premise.

    The one writer of a step's premises, for trace steps, inference prompts
    and selection completions alike.
    """
    head, rest = premises[0], premises[1:]
    if rest:
        return f"{head}{_WE_KNOW}{' and '.join(rest)}."
    return f"{head}."


def split_premises(text: str) -> list[str]:
    """The premises `render_premises` wrote, read back.

    A later premise that is an if-rule keeps its own " and "s: a piece that
    starts with "If " and has no " then " yet is joined to the next.  Exact
    for the grammar only: free text (an EntailmentBank premise) with " and "
    in it reads back as two premises.
    """
    text = strip_period(text)
    if _WE_KNOW not in text:
        return [text]
    head, rest = text.split(_WE_KNOW, 1)
    premises = [head]
    for piece in rest.split(" and "):
        last = premises[-1]
        if len(premises) > 1 and last.startswith("If ") and " then " not in last:
            premises[-1] = f"{last} and {piece}"
        else:
            premises.append(piece)
    return premises


def render_step(step: ReasoningStep) -> str:
    premises = render_premises([s.surface for s in step.selection])
    return f"{premises} Therefore, {step.inference.surface}."


def render_trace(trace: ReasoningTrace) -> str:
    return "\n".join(render_step(step) for step in trace.steps)


def append_step_text(text: str, step: ReasoningStep) -> str:
    """`render_trace` of the trace that `text` renders, plus `step`."""
    line = render_step(step)
    return f"{text}\n{line}" if text else line


_THEREFORE = re.compile(r"\s*Therefore,\s*")


def parse_trace_text(line: str) -> ReasoningStep:
    """The step that one line "X. We know that Y and Z. Therefore, W." renders."""
    parts = _THEREFORE.split(line.strip())
    if len(parts) != 2:
        raise TraceParseError(f"no 'Therefore,' clause: {line!r}")
    premise_part, inference_part = parts
    try:
        selection = tuple(normalize_statement(p) for p in split_premises(premise_part))
        inference = normalize_statement(inference_part)
    except EmptyStatement as exc:
        raise TraceParseError(str(exc)) from exc
    return ReasoningStep(selection=selection, inference=inference)
