"""Deterministic forward-chaining reasoner over the parsed rule language.

Provides the reference inference `infer` (single-step entailment, or
"nothing follows"), which fires a rule on exactly the instance that closure
grounds (`apply_rule`: the rule under one binding whose premises are the
selected facts), the step judges `is_step_correct` and `is_proof_step`,
the trace judge `trace_faults`, exhaustive closure
with one `AtomProof` per atom, its depth, rule and premises (`closure`, and
`extend` for a context that is a closed one plus one statement), evaluation
of a hypothesis atom under open-world semantics, shortest-proof extraction,
and a seeded random generator of `core.Problem`s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

from .cnl import (
    Atom,
    RuleAst,
    Term,
    VAR,
    VERBS,
    const,
    negate,
    parse_statement,
    render_atom,
    render_question,
    render_rule,
)
from .core import (
    Answer,
    LabeledContext,
    Problem,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    is_connected,
    normalize_statement,
    selection_order,
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


def apply_rule(rule: RuleAst, facts: list[Atom]) -> Atom:
    """The head of the rule's one instance, as `RuleIndex.ground` builds
    it, whose premises are exactly the facts: the binding is one of the
    facts' terms, or None for a rule whose body has no variable.  So one
    fact covers every condition it instantiates.  NoEntailment when no
    instance has these premises."""
    body = rule.body
    if not facts or len(facts) > len(body):
        raise NoEntailment(
            f"rule body has {len(body)} atoms but {len(facts)} facts were selected"
        )
    if all(a.is_ground for a in body):
        candidates = (None,)
    else:
        candidates = dict.fromkeys(
            t for f in facts for t in (f.subject, f.obj) if t is not None
        )
    premises = set(facts)
    for binding in candidates:
        if {a.substitute(binding) for a in body} == premises:
            head = rule.head.substitute(binding)
            if not head.is_ground:
                raise NoEntailment("rule head remains unbound")
            return head
    raise NoEntailment("facts do not instantiate the rule body under one binding")


def entail_step(selection: Iterable[Statement]) -> Statement:
    """One deductive step: exactly one rule plus its supporting ground facts."""
    rules: list[RuleAst] = []
    facts: list[Atom] = []
    for stmt in selection:
        parsed = parse_statement(stmt.surface)
        if isinstance(parsed, RuleAst):
            rules.append(parsed)
        elif isinstance(parsed, Atom):
            facts.append(parsed)
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
    """What is wrong with a trace: "step N bad: ..." for each step whose
    selection entails other than its inference, naming both, then "trace is
    not connected" if a step selects a statement that is neither in the
    context nor an earlier inference.  Empty for a valid trace."""
    faults = [
        f"step {n} bad: the selection entails {entailed.surface!r}, not {step.inference.surface!r}"
        for n, step in enumerate(trace.steps, start=1)
        if (entailed := infer(step.selection)) != step.inference
    ]
    if not is_connected(trace):
        faults.append("trace is not connected")
    return faults


@dataclass(frozen=True)
class AtomProof:
    """How an atom is proved: at `depth`, by the rule labelled `rule_label`
    from `premises`.  A context fact's proof is AtomProof(0): no premises,
    and a label that is no sentence's."""

    depth: int
    rule_label: int = 0
    premises: tuple[Atom, ...] = ()


class RuleIndex:
    """A context's rules, indexed for settling proofs: the constants in
    order, the body atoms by predicate, whether each rule has a variable
    (one instance per constant) or not (a single instance), and each
    instance (rule, constant) once grounded.  A context that only gains
    facts over constants it already has keeps its index."""

    def __init__(self, rules: list[tuple[int, RuleAst]], facts: Iterable[Atom]):
        constants = set()
        for atom in facts:
            constants.add(atom.subject)
            if atom.obj:
                constants.add(atom.obj)
        self.patterns: dict[str, list[tuple[int, Atom]]] = {}
        self.uses_var = []
        for r, (_, rule) in enumerate(rules):
            for a in rule.body:
                self.patterns.setdefault(a.predicate, []).append((r, a))
            uses_var = False
            for a in rule.body + (rule.head,):
                for t in (a.subject, a.obj):
                    if t is not None and t.is_variable:
                        uses_var = True
                    elif t is not None:
                        constants.add(t)
            self.uses_var.append(uses_var)
        self.rules = rules
        # A constant's `is_variable` is False, so tuple order is the order
        # of (name, proper).
        self.constants = sorted(constants)
        self.position = {t: k for k, t in enumerate(self.constants)}
        self.grounded: dict[tuple[int, int], tuple[int, tuple[Atom, ...], Atom]] = {}

    def knows(self, atom: Atom) -> bool:
        """Whether every constant of `atom` is one of the index's."""
        return atom.subject in self.position and (
            atom.obj is None or atom.obj in self.position
        )

    def ground(self, key: tuple[int, int]) -> tuple[int, tuple[Atom, ...], Atom]:
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
    fact_labels: dict[Atom, int]
    index: RuleIndex = field(compare=False, repr=False)


def _atom_sort_key(atom: Atom) -> tuple:
    return (
        atom.predicate,
        atom.subject.name,
        atom.obj.name if atom.obj else "",
        atom.negated,
    )


def _candidate_key(rule_label: int, premises: tuple[Atom, ...]) -> tuple:
    return (rule_label, tuple(_atom_sort_key(a) for a in premises))


def parse_context(context: LabeledContext):
    """Split a labeled context into fact atoms and rules; a sentence
    outside the grammar is neither."""
    fact_labels: dict[Atom, int] = {}
    rules: list[tuple[int, RuleAst]] = []
    for label, stmt in context:
        parsed = parse_statement(stmt.surface)
        if isinstance(parsed, Atom):
            fact_labels.setdefault(parsed, label)
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
    patterns, uses_var, position = index.patterns, index.uses_var, index.position
    levels: dict[int, list[Atom]] = {}
    for atom in lowered:
        levels.setdefault(derived[atom].depth, []).append(atom)
    depth = min(levels, default=0)
    while levels:
        # The instances (rule, constant) with a settled atom among their
        # premises, each once.  An atom lowered again since it was queued
        # is settled at its lower level.
        keys = set()
        for atom in levels.pop(depth, ()):
            if derived[atom].depth != depth:
                continue
            for r, pattern in patterns.get(atom.predicate, ()):
                binding = _binding(pattern, atom)
                if binding is False:
                    continue
                if not uses_var[r]:
                    keys.add((r, 0))
                elif binding is None:
                    keys.update((r, k) for k in range(len(index.constants)))
                else:
                    keys.add((r, position[binding]))
        for key in keys:
            label, premises, head = index.ground(key)
            # 1 + the deepest premise's depth, or 0 while a premise is unproved.
            height = 1
            for p in premises:
                proof = derived.get(p)
                if proof is None:
                    height = 0
                    break
                if proof.depth >= height:
                    height = proof.depth + 1
            if not height:
                continue
            old = derived.get(head)
            if old is not None and (
                old.depth < height
                or old.depth == height
                and _candidate_key(old.rule_label, old.premises)
                <= _candidate_key(label, premises)
            ):
                continue
            derived[head] = AtomProof(height, label, premises)
            if old is None or height < old.depth:
                levels.setdefault(height, []).append(head)
        depth += 1


def closure(context: LabeledContext) -> WorldClosure:
    """Least fixed point of rule application, with one proof per atom: the
    context facts at depth 0, and what they settle (`_settle`)."""
    fact_labels, rules = parse_context(context)
    derived = dict.fromkeys(fact_labels, AtomProof(0))
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
    statements = context.statements()
    if statements[:-1] != world.context.statements():
        raise ValueError("context is not the world's context plus one statement")
    stmt, label = statements[-1], len(statements)
    parsed = parse_statement(stmt.surface)
    if isinstance(parsed, RuleAst):
        return closure(context)
    if not isinstance(parsed, Atom) or parsed in world.fact_labels:
        return WorldClosure(context, world.derived, world.fact_labels, world.index)
    if not world.index.knows(parsed):
        return closure(context)
    derived = dict(world.derived)
    derived[parsed] = AtomProof(0)
    _settle(derived, world.index, [parsed])
    return WorldClosure(context, derived, {**world.fact_labels, parsed: label}, world.index)


def evaluate_hypothesis(world: WorldClosure, hypothesis: Atom) -> Answer:
    """Open-world: True if derivable, False if the negation is, else Unknown.

    If both are derivable the shallower derivation wins; ties go to True.
    """
    pos = world.derived.get(hypothesis)
    neg = world.derived.get(negate(hypothesis))
    if pos is not None and (neg is None or pos.depth <= neg.depth):
        return Answer.TRUE
    if neg is not None:
        return Answer.FALSE
    return Answer.UNKNOWN


def proof_target(world: WorldClosure, hypothesis: Atom) -> Atom:
    """The atom a proof should derive: the hypothesis or its negation."""
    answer = evaluate_hypothesis(world, hypothesis)
    if answer is Answer.TRUE:
        return hypothesis
    if answer is Answer.FALSE:
        return negate(hypothesis)
    raise NoProof(f"hypothesis is Unknown: {render_atom(hypothesis)!r}")


def proof_steps(world: WorldClosure, target: Atom) -> list[tuple[Atom, tuple[int, ...]]]:
    """The derived atoms the proof of `target` rests on, each once, in proof
    order, with their selection labels in `selection_order`: the rule, then
    the distinct premises in label order.  The k-th inference takes label
    `len(world.context) + k`; a context fact has no steps."""
    needed: dict[Atom, AtomProof] = {}
    pending = [target]
    while pending:
        head = pending.pop()
        proof = world.derived[head]
        if proof.premises and head not in needed:
            needed[head] = proof
            pending.extend(proof.premises)
    # A premise is shallower than the step that uses it, so sorting by
    # depth puts premises first.
    ordered = sorted(
        needed.items(),
        key=lambda item: (item[1].depth, _candidate_key(item[1].rule_label, item[1].premises)),
    )
    inferred = {head: k for k, (head, _) in enumerate(ordered, len(world.context) + 1)}
    return [
        (head, tuple(selection_order(
            [proof.rule_label, *(world.fact_labels.get(p) or inferred[p] for p in proof.premises)]
        )))
        for head, proof in ordered
    ]


def shortest_proof(world: WorldClosure, hypothesis: Atom) -> ReasoningTrace:
    """A valid trace of least depth deriving the hypothesis (or its negation)."""
    target = proof_target(world, hypothesis)
    if world.derived[target].depth == 0:
        # The target is a base statement; there is no derivation to show.
        raise NoProof(f"hypothesis is settled by the context: {render_atom(hypothesis)!r}")
    return ReasoningTrace.from_labels(
        world.context,
        ((labels, normalize_statement(render_atom(head)))
         for head, labels in proof_steps(world, target)),
        evaluate_hypothesis(world, hypothesis),
    )


# ---------------------------------------------------------------------------
# Random problem generation


_ENTITIES = [
    "cat", "dog", "mouse", "tiger", "lion", "bear", "rabbit", "squirrel",
    "cow", "bald eagle", "fox", "wolf",
]
_ADJECTIVES = [
    "kind", "nice", "green", "blue", "red", "round", "rough", "cold",
    "young", "big", "quiet", "smart", "furry", "happy",
]
_VERB_LEMMAS = tuple(VERBS)
# The proof depths `generate_problem` makes.
DEPTHS = (1, 2, 3, 5)
# Worlds `generate_problem` draws for one problem before it gives up.
MAX_ATTEMPTS = 40
# Distractor rules and facts `generate_problem` adds to each world.
N_DISTRACTOR_RULES = 2
N_DISTRACTOR_FACTS = 4


def generate_problem(seed: int, depth: int) -> Problem:
    """Seeded-deterministic problem with a gold proof of exactly `depth` steps,
    with the id "gen-d{depth}-s{seed}".

    The gold answer is True or False (never Unknown); distractor rules and
    facts never shorten the proof (verified by recomputing the closure).
    """
    if depth not in DEPTHS:
        raise ValueError(f"depth must be one of {DEPTHS}; got {depth}")
    rng = random.Random(("sireason", seed, depth).__repr__())
    for _ in range(MAX_ATTEMPTS):
        try:
            return _generate_once(rng, seed, depth)
        except _RetryGeneration as exc:
            last_error = str(exc)
    raise GenerationFailure(f"no problem after {MAX_ATTEMPTS} attempts: {last_error}")


class _RetryGeneration(Exception):
    pass


def _generate_once(rng, seed, depth):
    entities = rng.sample(_ENTITIES, k=min(6, len(_ENTITIES)))
    adjectives = rng.sample(_ADJECTIVES, k=len(_ADJECTIVES))
    # A chain takes at most 1 + 2 * max(DEPTHS) = 11 of the 14 adjectives.
    adj_iter = iter(adjectives)

    def fresh_attribute(subject: Term) -> Atom:
        return Atom(next(adj_iter), subject)

    used_relations: set[tuple[str, str, str]] = set()

    def fresh_relation(subject: Term) -> Atom:
        for _ in range(30):
            verb = rng.choice(_VERB_LEMMAS)
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
            head = Atom(next(adj_iter), VAR, negated=negated_head)
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
    for _ in range(N_DISTRACTOR_RULES):
        adj = next(adj_iter, None)
        head_adj = next(adj_iter, None)
        if adj is None or head_adj is None:
            break
        quantifier = rng.choice(["something", "someone"])
        rules.append(render_rule((Atom(adj, VAR),), Atom(head_adj, VAR), quantifier))
    for _ in range(N_DISTRACTOR_FACTS):
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
    gold_answer = evaluate_hypothesis(world, asked_atom)
    if gold_answer is Answer.UNKNOWN:  # pragma: no cover - target is derivable
        raise _RetryGeneration("hypothesis unexpectedly unknown")
    gold_proof = shortest_proof(world, asked_atom)
    # A proof of height `depth` may have more steps; the chain built above
    # has one per level, since its other premises are context facts.
    if len(gold_proof.steps) != depth:  # pragma: no cover
        raise _RetryGeneration("proof length mismatch")
    return Problem(
        id=f"gen-d{depth}-s{seed}",
        context=context,
        question=render_question(asked_atom),
        choices=None,
        gold_answer=gold_answer,
        gold_proof=gold_proof,
        depth=depth,
    )
