"""Deterministic forward-chaining reasoner over the parsed rule language.

Provides the reference inference `infer` (single-step entailment, or
"nothing follows"), the step judges `is_step_correct` and `is_proof_step`,
the trace judge `trace_faults`, exhaustive closure
with provenance and proof depths (`closure`, and `extend` for a context
that is a closed one plus one statement), hypothesis evaluation under
open-world semantics, shortest-proof extraction, and a seeded random problem
generator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Iterable, Optional

from .cnl import (
    Atom,
    Fact,
    Hypothesis,
    RuleAst,
    Term,
    VAR,
    VERBS,
    const,
    negate,
    parse_statement,
    render_atom,
    render_rule,
)
from .core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    SentenceLabel,
    Statement,
    is_connected,
    normalize_statement,
)


class NoEntailment(ValueError):
    """The facts do not instantiate the rule body."""


class MalformedSelection(ValueError):
    """The selection is not one rule plus ground facts."""


class NoProof(ValueError):
    """Raised when a proof is requested for an unprovable hypothesis."""


class GenerationFailure(RuntimeError):
    """Problem generation did not converge within the retry budget."""


NOTHING_FOLLOWS = "nothing follows"


def _binding(pattern: Atom, atom: Atom):
    """How `atom` instantiates the rule atom `pattern`: the constant that
    stands for the variable, None if `pattern` is ground and equal to
    `atom`, or False if `atom` is no instance of `pattern`."""
    if pattern.predicate != atom.predicate or pattern.negated != atom.negated:
        return False
    if (pattern.obj is None) != (atom.obj is None):
        return False
    binding = None
    for pat, term in ((pattern.subject, atom.subject), (pattern.obj, atom.obj)):
        if pat is None:
            continue
        if pat.is_variable:
            if binding is not None and binding != term:
                return False
            binding = term
        elif pat != term:
            return False
    return binding


def _match_body(body: tuple[Atom, ...], facts: list[Atom]) -> Optional[Term]:
    """The binding under which `facts` cover `body`: some choice of a fact
    for each body atom, using every fact, in which each fact is an instance
    of its body atom and at most one constant stands for the variable (None
    for variable-free rules).  As in `closure`, one fact may be chosen for
    every body atom it instantiates.  Raises NoEntailment when there is no
    such choice."""
    if not facts or len(facts) > len(body):
        raise NoEntailment(
            f"rule body has {len(body)} atoms but {len(facts)} facts were selected"
        )
    for choice in itertools.product(range(len(facts)), repeat=len(body)):
        if len(set(choice)) < len(facts):
            continue  # a selected fact left unused
        bound = set()
        for pattern, j in zip(body, choice):
            binding = _binding(pattern, facts[j])
            if binding is False:
                break
            if binding is not None:
                bound.add(binding)
        else:
            if len(bound) <= 1:
                return next(iter(bound), None)
    raise NoEntailment("facts do not instantiate the rule body under one binding")


def apply_rule(rule: RuleAst, facts: list[Atom]) -> Atom:
    """Instantiated head if the facts match the body; NoEntailment otherwise."""
    binding = _match_body(rule.body, facts)
    head = rule.head.substitute(binding)
    if not head.is_ground:
        raise NoEntailment("rule head remains unbound")
    return head


def entail_step(selection: Iterable[Statement]) -> Statement:
    """One deductive step: exactly one rule plus its supporting ground facts."""
    rules: list[RuleAst] = []
    facts: list[Atom] = []
    for stmt in selection:
        parsed = parse_statement(stmt.surface)
        if isinstance(parsed, RuleAst):
            rules.append(parsed)
        elif isinstance(parsed, Fact):
            facts.append(parsed.atom)
        else:
            raise MalformedSelection(f"unparseable statement: {stmt.surface!r}")
    if len(rules) != 1:
        raise MalformedSelection(f"selection must contain exactly one rule, got {len(rules)}")
    if not facts:
        raise MalformedSelection("selection contains no facts")
    head = apply_rule(rules[0], facts)
    return normalize_statement(render_atom(head))


def infer(selection: Iterable[Statement]) -> Statement:
    """The reference inference: what the selection entails, or "nothing
    follows" when it entails nothing (the faithful report of that)."""
    try:
        return entail_step(selection)
    except (MalformedSelection, NoEntailment):
        return normalize_statement(NOTHING_FOLLOWS)


def is_step_correct(step: ReasoningStep) -> bool:
    """True iff the inference is the reference inference of the selection."""
    return infer(step.selection) == step.inference


def is_proof_step(step: ReasoningStep, proof_keys: AbstractSet[str]) -> bool:
    """True iff the step is correct and its inference is a step of the
    proof whose inference keys are `proof_keys`."""
    return step.inference.key in proof_keys and is_step_correct(step)


def trace_faults(trace: ReasoningTrace) -> list[str]:
    """What is wrong with a trace: "step N bad: " for each step whose
    inference is not the reference inference of its selection, then "trace
    is not connected" if a step selects a statement that is neither in the
    context nor an earlier inference.  Empty for a valid trace."""
    faults = [
        f"step {n} bad: "
        for n, step in enumerate(trace.steps, start=1)
        if not is_step_correct(step)
    ]
    if not is_connected(trace).connected:
        faults.append("trace is not connected")
    return faults


@dataclass(frozen=True)
class Derivation:
    """One rule application: premises (ground atoms) to head."""

    rule_label: SentenceLabel
    premises: tuple[Atom, ...]
    head: Atom


@dataclass(frozen=True)
class AtomProof:
    depth: int
    derivation: Optional[Derivation]  # None for base facts


class RuleIndex:
    """A context's rules, indexed for settling proofs: the constants in
    order, the body atoms by predicate, whether each rule has a variable
    (one instance per constant) or not (a single instance), and each
    instance (rule, constant) once grounded.  A context that only gains
    facts over constants it already has keeps its index."""

    def __init__(self, rules: list[tuple[SentenceLabel, RuleAst]], facts: Iterable[Atom]):
        constants = set()
        for atom in facts:
            constants.add(atom.subject)
            if atom.obj:
                constants.add(atom.obj)
        for _, rule in rules:
            for a in rule.body + (rule.head,):
                for t in (a.subject, a.obj):
                    if t is not None and not t.is_variable:
                        constants.add(t)
        self.rules = rules
        self.constants = sorted(constants, key=lambda t: (t.name, t.proper))
        self.position = {t: k for k, t in enumerate(self.constants)}
        self.patterns: dict[str, list[tuple[int, Atom]]] = {}
        self.uses_var = []
        for r, (_, rule) in enumerate(rules):
            for a in rule.body:
                self.patterns.setdefault(a.predicate, []).append((r, a))
            self.uses_var.append(any(
                a.subject.is_variable or (a.obj and a.obj.is_variable)
                for a in rule.body + (rule.head,)
            ))
        self.grounded: dict[tuple[int, int], tuple[SentenceLabel, tuple[Atom, ...], Atom]] = {}

    def knows(self, atom: Atom) -> bool:
        """Whether every constant of `atom` is one of the index's."""
        return atom.subject in self.position and (
            atom.obj is None or atom.obj in self.position
        )

    def users(self, atom: Atom):
        """The instances (rule, constant) with `atom` among their premises."""
        for r, pattern in self.patterns.get(atom.predicate, ()):
            binding = _binding(pattern, atom)
            if binding is False:
                continue
            if not self.uses_var[r]:
                yield r, 0
            elif binding is None:
                for k in range(len(self.constants)):
                    yield r, k
            else:
                yield r, self.position[binding]

    def ground(self, key: tuple[int, int]) -> tuple[SentenceLabel, tuple[Atom, ...], Atom]:
        """(rule label, premises, head) of the instance `key`."""
        if key not in self.grounded:
            r, k = key
            label, rule = self.rules[r]
            binding = self.constants[k] if self.uses_var[r] else None
            premises = tuple(a.substitute(binding) for a in rule.body)
            self.grounded[key] = (label, premises, rule.head.substitute(binding))
        return self.grounded[key]


@dataclass
class WorldClosure:
    context: LabeledContext
    derived: dict[Atom, AtomProof]
    fact_labels: dict[Atom, SentenceLabel]
    index: RuleIndex = field(compare=False, repr=False)

    def depth(self, atom: Atom) -> Optional[int]:
        proof = self.derived.get(atom)
        return proof.depth if proof else None


def _atom_sort_key(atom: Atom) -> tuple:
    return (
        atom.predicate,
        atom.subject.name,
        atom.obj.name if atom.obj else "",
        atom.negated,
    )


def _candidate_key(rule_label: SentenceLabel, premises: tuple[Atom, ...]) -> tuple:
    return (rule_label.index, tuple(_atom_sort_key(a) for a in premises))


def parse_context(context: LabeledContext):
    """Split a labeled context into fact atoms and rules; a sentence
    outside the grammar is neither."""
    fact_labels: dict[Atom, SentenceLabel] = {}
    rules: list[tuple[SentenceLabel, RuleAst]] = []
    for label, stmt in context:
        parsed = parse_statement(stmt.surface)
        if isinstance(parsed, Fact):
            fact_labels.setdefault(parsed.atom, label)
        elif isinstance(parsed, RuleAst):
            rules.append((label, parsed))
    return fact_labels, rules


def _settle(derived: dict[Atom, AtomProof], index: RuleIndex, lowered: Iterable[Atom]) -> None:
    """Settle, in increasing depth, every proof that the new proofs of
    `lowered` can lower, in place.

    An atom's depth is its proof's height: 0 for a context fact, else 1 +
    its deepest premise.  Each instance with a lowered premise and every
    premise proved offers its head a proof of that height.  The head takes
    the lower height, and at equal height the lower rule label, then
    premise atoms; a context fact is never replaced.  An offer is at least
    one deeper than the atom that made it, so an atom's depth is final when
    its level is reached, and an instance is ground when one of its
    premises first has a proof: those no proof reaches are never built.
    """
    levels: dict[int, list[Atom]] = {}
    for atom in lowered:
        levels.setdefault(derived[atom].depth, []).append(atom)
    depth = min(levels, default=0)
    while levels:
        # An atom lowered again since it was queued is settled at its
        # lower level.
        settled = [a for a in levels.pop(depth, ()) if derived[a].depth == depth]
        for key in {key for atom in settled for key in index.users(atom)}:
            label, premises, head = index.ground(key)
            if any(p not in derived for p in premises):
                continue
            height = 1 + max(derived[p].depth for p in premises)
            old = derived.get(head)
            if old is not None and (
                old.depth < height
                or old.depth == height
                and _candidate_key(old.derivation.rule_label, old.derivation.premises)
                <= _candidate_key(label, premises)
            ):
                continue
            derived[head] = AtomProof(
                depth=height, derivation=Derivation(rule_label=label, premises=premises, head=head)
            )
            if old is None or height < old.depth:
                levels.setdefault(height, []).append(head)
        depth += 1


def closure(context: LabeledContext) -> WorldClosure:
    """Least fixed point of rule application, with one proof per atom: the
    context facts at depth 0, and what they settle (`_settle`)."""
    fact_labels, rules = parse_context(context)
    derived = {atom: AtomProof(depth=0, derivation=None) for atom in fact_labels}
    index = RuleIndex(rules, fact_labels)
    _settle(derived, index, fact_labels)
    return WorldClosure(context=context, derived=derived, fact_labels=fact_labels, index=index)


def extend(world: WorldClosure, context: LabeledContext) -> WorldClosure:
    """The closure of `context`, which is `world.context` plus one appended
    statement, settled from `world` instead of from scratch.

    A new fact takes depth 0 and settles only what it lowers.  A fact the
    context already has (it keeps its first label) and a sentence outside
    the grammar (such as "nothing follows") change nothing.  An appended
    rule, or a fact with a constant the world does not know,
    changes the rule index, so `context` is closed afresh.  `world` itself
    is left as it was.
    """
    if context.entries[:-1] != world.context.entries:
        raise ValueError("context is not the world's context plus one statement")
    label, stmt = context.entries[-1]
    parsed = parse_statement(stmt.surface)
    if isinstance(parsed, RuleAst):
        return closure(context)
    if not isinstance(parsed, Fact) or parsed.atom in world.fact_labels:
        return replace(world, context=context)
    if not world.index.knows(parsed.atom):
        return closure(context)
    derived = dict(world.derived)
    derived[parsed.atom] = AtomProof(depth=0, derivation=None)
    _settle(derived, world.index, [parsed.atom])
    return replace(
        world,
        context=context,
        derived=derived,
        fact_labels={**world.fact_labels, parsed.atom: label},
    )


def evaluate_hypothesis(world: WorldClosure, hypothesis: Hypothesis) -> Answer:
    """Open-world: True if derivable, False if the negation is, else Unknown.

    If both are derivable the shallower derivation wins; ties go to True.
    """
    pos = world.derived.get(hypothesis.atom)
    neg = world.derived.get(negate(hypothesis.atom))
    if pos is not None and (neg is None or pos.depth <= neg.depth):
        return Answer.TRUE
    if neg is not None:
        return Answer.FALSE
    return Answer.UNKNOWN


def proof_target(world: WorldClosure, hypothesis: Hypothesis) -> Atom:
    """The atom a proof should derive: the hypothesis or its negation."""
    answer = evaluate_hypothesis(world, hypothesis)
    if answer is Answer.TRUE:
        return hypothesis.atom
    if answer is Answer.FALSE:
        return negate(hypothesis.atom)
    raise NoProof(f"hypothesis is Unknown: {hypothesis.surface!r}")


def proof_steps(
    world: WorldClosure, target: Atom
) -> list[tuple[Derivation, tuple[SentenceLabel, ...]]]:
    """The derivations the proof of `target` rests on, each once, in proof
    order, with their selection labels: the rule, then the distinct
    premises in label order.  The k-th inference takes label
    `len(world.context) + k`; a context fact has no steps."""
    needed: dict[Atom, Derivation] = {}
    pending = [target]
    while pending:
        d = world.derived[pending.pop()].derivation
        if d is not None and d.head not in needed:
            needed[d.head] = d
            pending.extend(d.premises)
    # A premise is shallower than the step that uses it, so sorting by
    # depth puts premises first.
    ordered = sorted(
        needed.values(),
        key=lambda d: (world.derived[d.head].depth, _candidate_key(d.rule_label, d.premises)),
    )
    inferred = {d.head: SentenceLabel(k) for k, d in enumerate(ordered, len(world.context) + 1)}
    return [
        (d, (d.rule_label,) + tuple(sorted(
            # A fact that is two of the rule's premises is selected once.
            {world.fact_labels.get(p) or inferred[p] for p in d.premises},
            key=lambda label: label.index,
        )))
        for d in ordered
    ]


def shortest_proof(world: WorldClosure, hypothesis: Hypothesis) -> ReasoningTrace:
    """A valid trace of least depth deriving the hypothesis (or its negation)."""
    target = proof_target(world, hypothesis)
    if world.derived[target].depth == 0:
        # The target is a base statement; there is no derivation to show.
        raise NoProof(f"hypothesis is settled by the context: {hypothesis.surface!r}")
    context = world.context
    steps: list[ReasoningStep] = []
    for d, labels in proof_steps(world, target):
        inference = normalize_statement(render_atom(d.head))
        steps.append(
            ReasoningStep(
                selection=tuple(context.lookup(label) for label in labels),
                inference=inference,
                selection_labels=labels,
            )
        )
        context = context.extended(inference)
    answer = evaluate_hypothesis(world, hypothesis)
    return ReasoningTrace(
        base_context=world.context, steps=tuple(steps), halted=True, answer=answer
    )


# ---------------------------------------------------------------------------
# Random problem generation


@dataclass(frozen=True)
class GeneratedProblem:
    context: LabeledContext
    question: str
    gold_answer: Answer
    gold_proof: ReasoningTrace
    depth: int


_ENTITIES = [
    "cat", "dog", "mouse", "tiger", "lion", "bear", "rabbit", "squirrel",
    "cow", "bald eagle", "fox", "wolf",
]
_ADJECTIVES = [
    "kind", "nice", "green", "blue", "red", "round", "rough", "cold",
    "young", "big", "quiet", "smart", "furry", "happy",
]
def generate_problem(
    seed: int,
    depth: int,
    n_distractor_rules: int = 2,
    n_distractor_facts: int = 4,
    max_attempts: int = 40,
) -> GeneratedProblem:
    """Seeded-deterministic problem with a gold proof of exactly `depth` steps.

    The gold answer is True or False (never Unknown); distractor rules and
    facts never shorten the proof (verified by recomputing the closure).
    """
    if depth not in (1, 2, 3, 5):
        raise ValueError(f"depth must be one of 1, 2, 3, 5; got {depth}")
    rng = random.Random(("sireason", seed, depth).__repr__())
    last_error = "no attempt made"
    for _ in range(max_attempts):
        try:
            problem = _generate_once(rng, seed, depth, n_distractor_rules, n_distractor_facts)
        except _RetryGeneration as exc:
            last_error = str(exc)
            continue
        return problem
    raise GenerationFailure(f"no problem after {max_attempts} attempts: {last_error}")


class _RetryGeneration(Exception):
    pass


def _generate_once(rng, seed, depth, n_distractor_rules, n_distractor_facts):
    entities = rng.sample(_ENTITIES, k=min(6, len(_ENTITIES)))
    adjectives = rng.sample(_ADJECTIVES, k=len(_ADJECTIVES))
    adj_iter = iter(adjectives)

    def fresh_attribute(subject: Term) -> Atom:
        try:
            return Atom(next(adj_iter), subject)
        except StopIteration:
            raise _RetryGeneration("adjective pool exhausted")

    used_relations: set[tuple[str, str, str]] = set()

    def fresh_relation(subject: Term) -> Atom:
        for _ in range(30):
            verb = rng.choice(tuple(VERBS))
            obj = const(rng.choice(entities))
            if (verb, subject.name, obj.name) not in used_relations:
                used_relations.add((verb, subject.name, obj.name))
                return Atom(verb, subject, obj=obj)
        raise _RetryGeneration("relation pool exhausted")

    subject = const(rng.choice(entities))
    current = fresh_attribute(subject) if rng.random() < 0.5 else fresh_relation(subject)

    facts: list[str] = [render_atom(current)]
    rules: list[str] = []

    def generalize(atom: Atom) -> Atom:
        return Atom(atom.predicate, VAR, obj=atom.obj, negated=atom.negated)

    for level in range(depth):
        body = [generalize(current)]
        side_fact = None
        if rng.random() < 0.4:
            side = (
                fresh_attribute(current.subject)
                if rng.random() < 0.5
                else fresh_relation(current.subject)
            )
            body.append(generalize(side))
            side_fact = side
        negated_head = level == depth - 1 and rng.random() < 0.5
        if rng.random() < 0.6:
            head = Atom(
                next(adj_iter, None) or "",
                VAR,
                negated=negated_head,
            )
            if not head.predicate:
                raise _RetryGeneration("adjective pool exhausted")
            head_ground = Atom(head.predicate, current.subject, negated=negated_head)
        else:
            rel = fresh_relation(current.subject)
            head = Atom(rel.predicate, VAR, obj=rel.obj, negated=negated_head)
            head_ground = Atom(rel.predicate, current.subject, obj=rel.obj, negated=negated_head)
        quantifier = rng.choice(["something", "someone"])
        rules.append(render_rule(body, head, quantifier))
        if side_fact is not None:
            facts.append(render_atom(side_fact))
        current = head_ground

    target = current

    # Distractors: rules firing off attributes never asserted, and inert facts.
    for _ in range(n_distractor_rules):
        adj = next(adj_iter, None)
        head_adj = next(adj_iter, None)
        if adj is None or head_adj is None:
            break
        quantifier = rng.choice(["something", "someone"])
        rules.append(render_rule((Atom(adj, VAR),), Atom(head_adj, VAR), quantifier))
    for _ in range(n_distractor_facts):
        who = const(rng.choice(entities))
        distractor = fresh_relation(who)
        if rng.random() < 0.25:
            distractor = negate(distractor)
        facts.append(render_atom(distractor))

    sentences = rules + facts
    rng.shuffle(sentences)
    context = LabeledContext.from_statements(sentences)

    world = closure(context)
    if target not in world.derived or world.derived[target].depth != depth:
        raise _RetryGeneration("distractors perturbed the target depth")
    for atom in world.derived:
        if not atom.negated and negate(atom) in world.derived:
            raise _RetryGeneration("contradictory world")

    ask_negation = rng.random() < 0.5
    asked_atom = negate(target) if ask_negation else target
    hyp_surface = render_atom(asked_atom)
    hypothesis = Hypothesis(atom=asked_atom, surface=hyp_surface)
    gold_answer = evaluate_hypothesis(world, hypothesis)
    if gold_answer is Answer.UNKNOWN:  # pragma: no cover - target is derivable
        raise _RetryGeneration("hypothesis unexpectedly unknown")
    question_text = (
        f'Does it imply that the statement "{hyp_surface[0].upper()}{hyp_surface[1:]}" is True?'
    )
    gold_proof = shortest_proof(world, hypothesis)
    # A proof of height `depth` may have more steps; the chain built above
    # has one per level, since its other premises are context facts.
    if len(gold_proof.steps) != depth:  # pragma: no cover
        raise _RetryGeneration("proof length mismatch")
    return GeneratedProblem(
        context=context,
        question=question_text,
        gold_answer=gold_answer,
        gold_proof=gold_proof,
        depth=depth,
    )
