"""Parser and renderer for the rule-language statements the symbolic reasoner
consumes.

Supported productions (versioned; see grammar.txt shipped with the package):

  facts   "the X VERBs the Y" | "the X does not VERB the Y"
          "<subject> is ADJ" | "<subject> is not ADJ"
  rules   "If A then B" | "If A and B then C"
          "All ADJ things/people are ADJ2"
          "All ADJ1, ADJ2 things/people are ADJ3"
          "ADJ1, ADJ2 things/people are ADJ3"

Within a rule, "something"/"someone" introduces the quantified variable and
"it"/"they"/"them" refer back to it; "the X" and capitalized names are
constants. `parse_statement` reads a fact to its ground `Atom` and a rule
to its `RuleAst`; anything outside the grammar reads as None, usable as
text but not by the reasoner.  `parse_question` reads the implication
question of a True/False/Unknown problem to its hypothesis, a ground
`Atom`; any other question, a free-text multiple-choice one included, is a
`ParseError`.

The atom reader `_parse_atom` is a pure function, cached on (atom text,
subject of the atom before it in the rule body): a bare-adjective
continuation ("red and kind") takes that subject, so the key needs it.
Each distinct atom is read once per process, however many rules share it.

`render_atom` writes a fact and `render_rule` an if-rule, both through one
clause writer over the closed verb table `VERBS`.

`Term` and `Atom` are named tuples, hashed and compared in C. A tuple hashes
its fields as a frozen dataclass of the same fields does, so hash values and
set orders are the same.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence, Union

from .core import strip_period


class ParseError(ValueError):
    def __init__(self, message: str, text: str, position: int = 0, expected: str = ""):
        detail = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position} in {text!r}{detail}")


# The closed verb table: lemma to third-person singular, in the order the
# problem generator draws from it.
VERBS = MappingProxyType({
    "eat": "eats",
    "like": "likes",
    "see": "sees",
    "need": "needs",
    "chase": "chases",
    "visit": "visits",
})
# Every inflected form to its lemma, for parsing.
_VERB_FORMS = {form: lemma for lemma, third in VERBS.items() for form in (lemma, third)}


class Term(NamedTuple):
    name: str = ""
    is_variable: bool = False
    proper: bool = False


VAR = Term(is_variable=True)


def const(name: str, proper: bool = False) -> Term:
    if not name:
        raise ValueError("constant terms need a name")
    return Term(name, proper=proper)


class Atom(NamedTuple):
    """Attribute atoms have no object; relation atoms have exactly one."""

    predicate: str
    subject: Term
    obj: Optional[Term] = None
    negated: bool = False

    @property
    def is_attribute(self) -> bool:
        return self.obj is None

    @property
    def is_ground(self) -> bool:
        return not self.subject.is_variable and not (self.obj and self.obj.is_variable)

    def substitute(self, binding: Optional[Term]) -> "Atom":
        subject = binding if self.subject.is_variable and binding else self.subject
        obj = self.obj
        if obj is not None and obj.is_variable and binding:
            obj = binding
        # Built directly: `_replace` costs several times more on this hot path.
        return Atom(self.predicate, subject, obj, self.negated)


def negate(atom: Atom) -> Atom:
    return Atom(atom.predicate, atom.subject, atom.obj, not atom.negated)


@dataclass(frozen=True)
class RuleAst:
    body: tuple[Atom, ...]
    head: Atom

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule body must be non-empty")


Parsed = Optional[Union[Atom, RuleAst]]


_PRONOUNS = {"it", "they", "them"}
_QUANTIFIERS = {"something", "someone", "anything", "anyone"}
_NAME_RE = re.compile(r"^[A-Z][a-z]+$")


def _term(tokens: list[str]) -> Term:
    if not tokens:
        raise ParseError("missing term", "", expected="term")
    if tokens[0].lower() == "the":
        if len(tokens) < 2:
            raise ParseError("bare article", tokens[0], expected="noun")
        name = " ".join(tokens[1:]).lower()
        # "the same entity" binds to the quantified variable
        return VAR if name == "same entity" else const(name)
    joined = " ".join(tokens).lower()
    if joined in _QUANTIFIERS or joined in _PRONOUNS:
        return VAR
    if len(tokens) == 1 and _NAME_RE.match(tokens[0]):
        return const(tokens[0], proper=True)
    raise ParseError("cannot read term", " ".join(tokens), expected="term")


@lru_cache(maxsize=4096)
def _parse_atom(text: str, last_subject: Optional[Term]) -> Atom:
    """One atom of a statement.  `last_subject` is the subject of the atom
    before it in the same rule body, or None: a bare-adjective
    continuation takes it."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty atom", text, expected="atom")

    # Bare-adjective continuation: "kind", "not young" share the previous
    # subject ("If someone is red and kind then ...").
    if last_subject is not None and len(tokens) <= 2:
        if tokens[0] == "not" and len(tokens) == 2:
            return Atom(tokens[1].lower(), last_subject, negated=True)
        if len(tokens) == 1 and tokens[0].lower() not in _PRONOUNS:
            return Atom(tokens[0].lower(), last_subject)

    # Find the verb pivot: is/are or a known relation verb, optionally
    # preceded by "does not" / "do not".
    for i, tok in enumerate(tokens):
        low = tok.lower()
        if low in ("is", "are") and i > 0:
            subject = _term(tokens[:i])
            rest = tokens[i + 1:]
            negated = False
            if rest and rest[0] == "not":
                negated = True
                rest = rest[1:]
            if len(rest) != 1:
                raise ParseError(
                    f"expected one adjective, got {' '.join(rest)!r}",
                    text,
                    position=i,
                    expected="adjective",
                )
            return Atom(rest[0].lower(), subject, negated=negated)
        if low in ("does", "do") and i + 2 < len(tokens) and tokens[i + 1] == "not":
            verb = tokens[i + 2].lower()
            if verb in _VERB_FORMS:
                subject = _term(tokens[:i])
                obj = _term(tokens[i + 3:])
                return Atom(_VERB_FORMS[verb], subject, obj=obj, negated=True)
        if low in _VERB_FORMS and i > 0:
            subject = _term(tokens[:i])
            obj = _term(tokens[i + 1:])
            return Atom(_VERB_FORMS[low], subject, obj=obj)
    raise ParseError("no verb found", text, expected="is/are or relation verb")


def _parse_adjective_class_rule(surface: str) -> Optional[RuleAst]:
    """"All cold things are nice" / "Blue, rough people are red"."""
    body_text = surface
    if body_text.lower().startswith("all "):
        body_text = body_text[4:]
    m = re.match(r"^([A-Za-z]+(?:\s*,\s*[A-Za-z]+)*) (things|people) are ([a-z]+)$", body_text)
    if not m:
        return None
    adjectives = [a.strip().lower() for a in m.group(1).split(",")]
    head_adj = m.group(3).lower()
    body = tuple(Atom(adj, VAR) for adj in adjectives)
    return RuleAst(body=body, head=Atom(head_adj, VAR))


def _parse_if_rule(surface: str) -> RuleAst:
    rest = surface[3:] if surface.lower().startswith("if ") else surface
    if " then " not in rest:
        raise ParseError("rule without 'then'", surface, expected="'then'")
    body_text, head_text = rest.split(" then ", 1)
    body = []
    subject = None
    for chunk in body_text.split(" and "):
        atom = _parse_atom(chunk, subject)
        body.append(atom)
        subject = atom.subject
    # The consequence is a full clause: it does not continue a condition.
    head = _parse_atom(head_text, None)
    if not head.is_ground and all(a.is_ground for a in body):
        raise ParseError("head variable not bound in body", surface, expected="bound variable")
    return RuleAst(body=tuple(body), head=head)


@lru_cache(maxsize=65536)
def parse_statement(raw: str) -> Parsed:
    """Parse one context statement: a fact to its ground Atom, a rule to its
    RuleAst; anything outside the grammar, the empty statement and a
    non-ground "fact" included, comes back as None."""
    surface = strip_period(raw)
    try:
        if not surface:
            raise ParseError("empty statement", raw, expected="statement")
        if surface.lower().startswith("if "):
            return _parse_if_rule(surface)
        class_rule = _parse_adjective_class_rule(surface)
        if class_rule is not None:
            return class_rule
        atom = _parse_atom(surface, None)
        if not atom.is_ground:
            raise ParseError("fact must be ground", surface, expected="ground atom")
        return atom
    except ParseError:
        return None


def _render_term(term: Term) -> str:
    if term.is_variable:
        return "something"
    return term.name if term.proper else f"the {term.name}"


def _clause(atom: Atom, subject: str, obj: Optional[str]) -> str:
    """Write one atom with its terms already written: the copula or verb
    agrees with the subject, and negation is "not" after the copula or
    "does not"/"do not" before the lemma."""
    plural = subject == "they"
    if atom.is_attribute:
        copula = "are" if plural else "is"
        return f"{subject} {copula} {'not ' if atom.negated else ''}{atom.predicate}"
    if atom.negated:
        return f"{subject} {'do' if plural else 'does'} not {atom.predicate} {obj}"
    verb = atom.predicate if plural else VERBS.get(atom.predicate, atom.predicate)
    return f"{subject} {verb} {obj}"


def render_atom(atom: Atom) -> str:
    """Render a ground atom in fact form."""
    obj = None if atom.is_attribute else _render_term(atom.obj)
    return _clause(atom, _render_term(atom.subject), obj)


def render_rule(body: Sequence[Atom], head: Atom, quantifier: str) -> str:
    """Render an if-rule. The variable is written with `quantifier` where it
    first appears and with its pronoun after that: "it" after "something",
    "they" (or "them" as an object) after "someone"."""
    subject_pronoun, object_pronoun = (
        ("it", "it") if quantifier == "something" else ("they", "them")
    )
    seen = False

    def term_text(term: Term, pronoun: str) -> str:
        nonlocal seen
        if not term.is_variable:
            return _render_term(term)
        if seen:
            return pronoun
        seen = True
        return quantifier

    def clause(atom: Atom) -> str:
        subject = term_text(atom.subject, subject_pronoun)
        obj = None if atom.is_attribute else term_text(atom.obj, object_pronoun)
        return _clause(atom, subject, obj)

    conditions = " and ".join(clause(a) for a in body)
    return f"If {conditions} then {clause(head)}"


_PW_QUESTION_RE = re.compile(
    r'^Does it imply that the statement "(?P<hyp>.+)" is True\?$'
)


def _decapitalize(text: str) -> str:
    if text.startswith("The "):
        return "the" + text[3:]
    return text


@lru_cache(maxsize=1024)
def parse_question(raw: str) -> Atom:
    """The hypothesis of an implication question, a ground Atom; any other
    question raises ParseError."""
    text = raw.strip()
    if not text:
        raise ParseError("empty question", raw, expected="question")
    m = _PW_QUESTION_RE.match(text)
    if not m:
        raise ParseError(
            "question is not of the implication form",
            raw,
            expected='\'Does it imply that the statement "H" is True?\'',
        )
    parsed = parse_statement(_decapitalize(m.group("hyp")))
    if not isinstance(parsed, Atom):
        raise ParseError("hypothesis is not a ground fact", raw, expected="ground fact")
    return parsed
