import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from worlds import context_of, worlds

from sireason import cnl, symbolic
from sireason.core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    normalize_statement,
)
from sireason.symbolic import (
    NOTHING_FOLLOWS,
    AtomProof,
    GenerationFailure,
    NoEntailment,
    NoProof,
    closure,
    entail_step,
    evaluate_hypothesis,
    generate_problem,
    is_step_correct,
    shortest_proof,
    trace_faults,
)

RULE = Statement("If something is kind then it likes the cow")
FACT = Statement("the tiger is kind")


def test_entail_step_single_premise_rule():
    inferred = entail_step([RULE, FACT])
    assert inferred == Statement("the tiger likes the cow")


def test_entail_step_two_premise_rule():
    rule = Statement(
        "If something is red and it likes the tiger then it needs the dog"
    )
    inferred = entail_step(
        [rule, Statement("the cat is red"), Statement("the cat likes the tiger")]
    )
    assert inferred == Statement("the cat needs the dog")


def test_entail_step_ground_rule():
    rule = Statement("If Gary is kind and Gary is rough then Gary is quiet")
    inferred = entail_step(
        [rule, Statement("Gary is kind"), Statement("Gary is rough")]
    )
    assert inferred == Statement("Gary is quiet")


def test_entail_step_order_of_premises_does_not_matter():
    assert entail_step([FACT, RULE]) == Statement("the tiger likes the cow")


def test_entail_step_failures():
    with pytest.raises(NoEntailment):
        entail_step([RULE, Statement("the tiger is cold")])
    with pytest.raises(symbolic.MalformedSelection):
        entail_step([FACT])  # no rule in the selection
    with pytest.raises(symbolic.MalformedSelection):
        entail_step([Statement("a fly is a kind of insect"), FACT])


def test_is_step_correct():
    good = ReasoningStep(
        selection=(RULE, FACT), inference=Statement("the tiger likes the cow")
    )
    bad = ReasoningStep(
        selection=(RULE, FACT), inference=Statement("the tiger is green")
    )
    nothing = ReasoningStep(
        selection=(RULE, Statement("the tiger is cold")),
        inference=Statement(NOTHING_FOLLOWS),
    )
    assert is_step_correct(good)
    assert not is_step_correct(bad)
    assert is_step_correct(nothing)


def _toy_trace():
    context = LabeledContext.from_statements([RULE, FACT])
    step = ReasoningStep(selection=(RULE, FACT), inference=Statement("the tiger likes the cow"))
    return ReasoningTrace(base_context=context, steps=(step,))


def test_trace_faults_names_each_bad_step():
    trace = _toy_trace()
    assert trace_faults(trace) == []
    wrong = ReasoningStep(selection=(FACT,), inference=Statement("the tiger likes the cow"))
    assert trace_faults(replace(trace, steps=trace.steps + (wrong,))) == [
        "step 2 bad: the selection entails 'nothing follows', not 'the tiger likes the cow'"
    ]


def test_trace_faults_names_a_disconnected_trace():
    # Nothing follows from the made-up sentence, so only the selection is
    # at fault.
    trace = _toy_trace()
    made_up = ReasoningStep(
        selection=(Statement("the moon is cheese"),),
        inference=Statement(NOTHING_FOLLOWS),
    )
    disconnected = replace(trace, steps=trace.steps + (made_up,))
    assert trace_faults(disconnected) == ["trace is not connected"]


WORST_1 = LabeledContext.from_statements(
    [
        "If something is kind then it likes the cow",
        "If something likes the cow then the cow is kind",
        "the cow is big",
        "the mouse eats the bear",
        "the tiger is kind",
        "the bear visits the tiger",
    ]
)


def _hyp(surface):
    hypothesis = cnl.parse_statement(surface)
    assert isinstance(hypothesis, cnl.Atom)
    return hypothesis


def test_closure_derives_expected_atoms():
    world = closure(WORST_1)
    derived = {cnl.render_atom(a) for a in world.derived}
    assert "the tiger likes the cow" in derived
    assert "the cow is kind" in derived
    assert "the cow likes the cow" in derived
    assert "the bear likes the cow" not in derived


def test_closure_tracks_depth():
    world = closure(WORST_1)
    base = cnl.parse_statement("the tiger is kind")
    assert world.derived[base].depth == 0
    step1 = cnl.parse_statement("the tiger likes the cow")
    assert world.derived[step1].depth == 1
    step3 = cnl.parse_statement("the cow likes the cow")
    assert world.derived[step3].depth == 3


def test_evaluate_hypothesis_open_world():
    world = closure(WORST_1)
    assert evaluate_hypothesis(world, _hyp("the cow likes the cow")) == Answer.TRUE
    assert (
        evaluate_hypothesis(world, _hyp("the cow does not like the cow"))
        == Answer.FALSE
    )
    # not provable either way: Unknown, not False
    assert evaluate_hypothesis(world, _hyp("the bear is kind")) == Answer.UNKNOWN
    assert (
        evaluate_hypothesis(world, _hyp("the bear is not kind")) == Answer.UNKNOWN
    )


def test_shortest_proof_is_valid_and_minimal():
    world = closure(WORST_1)
    trace = shortest_proof(world, _hyp("the cow likes the cow"))
    assert len(trace.steps) == 3
    assert trace_faults(trace) == []
    assert trace.steps[-1].inference == Statement("the cow likes the cow")


def test_shortest_proof_negated_hypothesis_targets_complement():
    world = closure(WORST_1)
    trace = shortest_proof(world, _hyp("the cow does not like the cow"))
    assert trace.steps[-1].inference == Statement("the cow likes the cow")


def test_shortest_proof_unprovable_raises():
    world = closure(WORST_1)
    with pytest.raises(NoProof):
        shortest_proof(world, _hyp("the bear is kind"))


def test_an_attribute_does_not_instantiate_a_relation_of_the_same_verb():
    # "eat" is the predicate of both, but only the rule's atom has an object.
    rule = Statement("If something eats the dog then it is big")
    assert symbolic.infer([Statement("the cat is eat"), rule]) == Statement(NOTHING_FOLLOWS)
    assert symbolic.infer([Statement("the cat eats the dog"), rule]) == Statement("the cat is big")


def test_a_contradictory_world_is_drawn_again(monkeypatch):
    """Seed 1610 at depth 5 draws a contradictory world first: the only
    retry over seeds 0-2999 at depths 1, 2, 3 and 5."""
    retries = []
    draw = symbolic._generate_once

    def recording(*args):
        try:
            return draw(*args)
        except symbolic._RetryGeneration as exc:
            retries.append(str(exc))
            raise

    monkeypatch.setattr(symbolic, "_generate_once", recording)
    problem = generate_problem(seed=1610, depth=5)
    assert retries == ["contradictory world"]
    assert len(problem.gold_proof.steps) == 5 and trace_faults(problem.gold_proof) == []


def test_a_generator_that_never_draws_a_world_gives_up(monkeypatch):
    draws = []

    def contradictory(*args):
        draws.append(args)
        raise symbolic._RetryGeneration("contradictory world")

    monkeypatch.setattr(symbolic, "_generate_once", contradictory)
    with pytest.raises(GenerationFailure,
                       match="no problem after 40 attempts: contradictory world"):
        generate_problem(seed=0, depth=1)
    assert len(draws) == symbolic.MAX_ATTEMPTS == 40


def test_a_relation_pool_that_runs_dry_is_drawn_again():
    """An rng that always draws the same verb and object finds no fresh
    relation for the chain's second atom."""

    class SameDraws:
        def sample(self, population, k):
            return list(population)[:k]

        def choice(self, seq):
            return seq[0]

        def random(self):
            return 0.9  # a relation, never a side premise, a relation head

    with pytest.raises(symbolic._RetryGeneration, match="relation pool exhausted"):
        symbolic._generate_once(SameDraws(), 0, 2)


def test_generate_problem_deterministic():
    a = generate_problem(seed=42, depth=3)
    b = generate_problem(seed=42, depth=3)
    assert a.context == b.context
    assert a.question == b.question
    assert a.gold_answer == b.gold_answer
    assert [s.inference for s in a.gold_proof.steps] == [
        s.inference for s in b.gold_proof.steps
    ]
    c = generate_problem(seed=43, depth=3)
    assert (a.context, a.question) != (c.context, c.question)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 3, 5]),
)
def test_generated_problems_are_sound(seed, depth):
    gen = generate_problem(seed=seed, depth=depth)
    assert len(gen.gold_proof.steps) == depth
    assert trace_faults(gen.gold_proof) == []
    world = closure(gen.context)
    hyp = cnl.parse_question(gen.question)
    assert evaluate_hypothesis(world, hyp) == gen.gold_answer
    assert gen.gold_answer in (Answer.TRUE, Answer.FALSE)


def _naive_derived(context):
    """The reference fixpoint: every rule under every constant, pass after
    pass, until a pass changes nothing.  A proof costs its height, 1 + the
    deepest premise, with ties on the candidate key."""
    fact_labels, rules = symbolic.parse_context(context)
    derived = {atom: AtomProof(depth=0) for atom in fact_labels}
    constants = set()
    for atom in fact_labels:
        constants.add(atom.subject)
        if atom.obj:
            constants.add(atom.obj)
    for _, rule in rules:
        for a in list(rule.body) + [rule.head]:
            for t in (a.subject, a.obj):
                if t is not None and not t.is_variable:
                    constants.add(t)
    constants = sorted(constants, key=lambda t: (t.name, t.proper))

    def bindings_for(rule):
        uses_var = any(
            a.subject.is_variable or (a.obj and a.obj.is_variable)
            for a in list(rule.body) + [rule.head]
        )
        return constants if uses_var else [None]

    changed = True
    while changed:
        changed = False
        for label, rule in rules:
            for binding in bindings_for(rule):
                premises = tuple(a.substitute(binding) for a in rule.body)
                if any(not p.is_ground for p in premises):
                    continue
                if any(p not in derived for p in premises):
                    continue
                head = rule.head.substitute(binding)
                if not head.is_ground:
                    continue
                cost = 1 + max(derived[p].depth for p in premises)
                current = derived.get(head)
                if current is not None and current.depth < cost:
                    continue
                if (
                    current is not None
                    and current.depth == cost
                    and symbolic._candidate_key(current.rule_label, current.premises)
                    <= symbolic._candidate_key(label, premises)
                ):
                    continue
                derived[head] = AtomProof(cost, label, premises)
                changed = True
    return derived


def _assert_closure_is_naive(context):
    """closure() gives every atom the naive loop's proof; returns the
    closure."""
    world = closure(context)
    expected = _naive_derived(context)
    assert world.derived.keys() == expected.keys()
    for atom, proof in expected.items():
        assert world.derived[atom] == proof, cnl.render_atom(atom)
    return world


def _generated(seed, depth, rules, facts):
    """`generate_problem(seed, depth)` with `rules` distractor rules and
    `facts` distractor facts in place of the generator's own counts."""
    with mock.patch.multiple(symbolic, N_DISTRACTOR_RULES=rules, N_DISTRACTOR_FACTS=facts):
        return generate_problem(seed=seed, depth=depth)


def _with_derived_atoms(context, world, rng, count):
    """`context` with up to `count` of its derived atoms appended, one
    context per appended atom."""
    derived = sorted(
        (a for a, p in world.derived.items() if p.depth > 0), key=cnl.render_atom
    )
    for atom in rng.sample(derived, min(count, len(derived))):
        context = context.extended(normalize_statement(cnl.render_atom(atom)))
        yield context


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
def test_closure_matches_naive_fixpoint(seed, depth, rules, facts, appended, rng):
    try:
        gen = _generated(seed, depth, rules, facts)
    except GenerationFailure:
        assume(False)
    world = _assert_closure_is_naive(gen.context)
    for context in _with_derived_atoms(gen.context, world, rng, appended):
        _assert_closure_is_naive(context)
    statements = list(gen.context.statements())
    rng.shuffle(statements)
    _assert_closure_is_naive(LabeledContext.from_statements(statements))


def test_closure_matches_naive_fixpoint_on_golden_contexts(pw_problems, pw_worst_problems):
    rng = random.Random(5)
    for problem in list(pw_problems) + list(pw_worst_problems):
        world = _assert_closure_is_naive(problem.context)
        for context in _with_derived_atoms(problem.context, world, rng, 4):
            _assert_closure_is_naive(context)
    # An attribute and a relation with one predicate: "eat" as an adjective
    # is no instance of the rule's "eats the dog".
    world = _assert_closure_is_naive(LabeledContext.from_statements(
        ["the cat is eat", "If something eats the dog then it is red"]))
    assert len(world.derived) == 1


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_apply_rule_fires_each_instance_the_closure_grounds(world, data):
    """For each instance the closure grounds on context facts alone,
    `apply_rule` given its premises, in a drawn order and with one of them
    repeated when the body has room, returns the instance's head."""
    world = closure(context_of(world))
    rules = dict(world.index.rules)
    for label, premises, head in world.index.grounded.values():
        if not world.fact_labels.keys() >= set(premises):
            continue
        facts = list(dict.fromkeys(premises))
        if len(facts) < len(premises):
            facts.append(data.draw(st.sampled_from(facts)))
        assert symbolic.apply_rule(rules[label], data.draw(st.permutations(facts))) == head


def test_closure_depth_does_not_depend_on_rule_order():
    # "kind" has a proof of height 2 through round and one of height 3
    # through young and big, which "nice" needs, so "happy" has height 4 in
    # every rule order.  A cost that counted shared steps once would give 5
    # or 6 here, depending on which proof of "kind" the rule order met first.
    # Height takes the shallower "kind", so the proof has 6 steps, not 5.
    rules = [
        "If something is cold then it is young",
        "If something is young then it is big",
        "If something is big then it is kind",
        "If something is big then it is nice",
        "If something is kind and it is nice then it is happy",
        "If something is cold then it is round",
        "If something is round then it is kind",
    ]
    happy = cnl.parse_statement("the cat is happy")
    for order in itertools.permutations(rules):
        context = LabeledContext.from_statements(list(order) + ["the cat is cold"])
        assert closure(context).derived[happy].depth == 4, order
    world = _assert_closure_is_naive(LabeledContext.from_statements(rules + ["the cat is cold"]))
    assert world.derived[cnl.parse_statement("the cat is kind")].depth == 2
    assert len(shortest_proof(world, _hyp("the cat is happy")).steps) == 6


def test_closure_matches_naive_fixpoint_on_every_rule_shape():
    # The variable as object only, twice in one atom, beside a variable-free
    # body atom, a body atom repeated, and no variable at all.  "the dog is
    # red" is proved only at level 2, where both instances of the first rule
    # are tried without it, so it must wake every constant's instance.  A
    # variable only in the head is outside the grammar.
    context = LabeledContext.from_statements([
        "If the dog is red and something is big then it is happy",
        "If the cat eats something then it is big",
        "If something likes it then it is round",
        "If something is big and it is big then it is kind",
        "If Gary is kind and Gary is big then Gary is nice",
        "If the cat is cold then the dog is red",
        "If the cat is wet then the cat is cold",
        "If the dog is red then the dog likes something",
        "the cat eats the mouse",
        "the cat eats Gary",
        "the cat is wet",
        "the dog likes the dog",
    ])
    world = _assert_closure_is_naive(context)
    for surface, depth in [
        ("the mouse is big", 1), ("Gary is kind", 2), ("Gary is nice", 3),
        ("the dog is round", 1), ("the dog is red", 2),
        ("Gary is happy", 3), ("the mouse is happy", 3),
    ]:
        assert world.derived[cnl.parse_statement(surface)].depth == depth, surface


def _assert_closure_agrees_with_entailment(context):
    """Every derivation the closure keeps, written as a step, is one that
    single-step entailment accepts."""
    world = closure(context)
    for head, proof in world.derived.items():
        if not proof.premises:
            continue
        step = ReasoningStep(
            selection=(context.lookup(proof.rule_label),)
            + tuple(normalize_statement(cnl.render_atom(p)) for p in proof.premises),
            inference=normalize_statement(cnl.render_atom(head)),
        )
        assert is_step_correct(step), step


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
)
def test_closure_agrees_with_entailment(seed, depth, rules, facts):
    try:
        gen = _generated(seed, depth, rules, facts)
    except GenerationFailure:
        assume(False)
    _assert_closure_agrees_with_entailment(gen.context)


def test_closure_agrees_with_entailment_on_golden_contexts(pw_problems, pw_worst_problems):
    for problem in list(pw_problems) + list(pw_worst_problems):
        _assert_closure_agrees_with_entailment(problem.context)


def test_closure_agrees_with_entailment_on_an_unbound_head():
    # Read as a rule, this would let the closure derive "the dog likes X"
    # for every constant X, a step that entailment cannot take.
    _assert_closure_agrees_with_entailment(LabeledContext.from_statements([
        "If the cat is red then the dog likes something",
        "the cat is red",
        "the mouse is big",
    ]))


def _assert_extend_is_closure(world, context):
    """`extend(world, context)` is what `closure(context)` gives, and
    `world` is left as it was; returns the extended world."""
    before = (dict(world.derived), dict(world.fact_labels))
    extended = symbolic.extend(world, context)
    expected = closure(context)
    assert extended.context == context
    assert extended.derived == expected.derived
    assert extended.fact_labels == expected.fact_labels
    assert list(extended.fact_labels.values()) == list(expected.fact_labels.values())
    assert (world.derived, world.fact_labels) == before
    return extended


def _append_all(context, surfaces):
    """Extend the closure of `context` by each surface in turn, checking
    every step against a full closure; returns the last world."""
    world = closure(context)
    for surface in surfaces:
        context = context.extended(normalize_statement(surface))
        world = _assert_extend_is_closure(world, context)
    return world


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.randoms(use_true_random=False),
)
def test_extend_matches_closure(seed, depth, rules, facts, rng):
    try:
        gen = _generated(seed, depth, rules, facts)
    except GenerationFailure:
        assume(False)
    world = closure(gen.context)
    # Derivable atoms, each of which can lower what rests on it, plus a
    # repeated fact, "nothing follows", a fact with a constant the context
    # does not have, and a rule, all in random order.
    surfaces = [cnl.render_atom(a) for a, p in world.derived.items() if p.depth > 0]
    surfaces += [cnl.render_atom(rng.choice(sorted(world.fact_labels, key=cnl.render_atom)))]
    surfaces += [NOTHING_FOLLOWS, "the zebra is big"]
    body = rng.choice(sorted(world.derived, key=cnl.render_atom))
    surfaces += [cnl.render_rule(
        (cnl.Atom(body.predicate, cnl.VAR, obj=body.obj, negated=body.negated),),
        cnl.Atom("quiet", cnl.VAR),
        "something",
    )]
    rng.shuffle(surfaces)
    _append_all(gen.context, surfaces)


# Each cold thing is young, round, red, big and kind in turn, one level
# per rule; "the cat is cold" is the only fact about the cat.
_CHAIN = [
    "If something is cold then it is young",
    "If something is young then it is round",
    "If something is round then it is red",
    "If something is red then it is big",
    "If something is big then it is kind",
    "the cat is cold",
]


def test_extend_lowers_a_descendant_two_levels_down():
    kind = cnl.parse_statement("the cat is kind")
    assert closure(LabeledContext.from_statements(_CHAIN)).derived[kind].depth == 5
    world = _append_all(LabeledContext.from_statements(_CHAIN), ["the cat is red"])
    assert world.derived[kind].depth == 2
    assert world.derived[kind].premises == (
        cnl.parse_statement("the cat is big"),
    )


def test_extend_switches_to_a_lower_key_proof_of_equal_height():
    # "happy" has height 2 through green (sent 2) and, once "the cat is
    # wet" is a fact, height 2 through blue too: sent 1 is the lower key.
    context = LabeledContext.from_statements([
        "If something is blue then it is happy",
        "If something is green then it is happy",
        "If something is cold then it is green",
        "If something is wet then it is blue",
        "If something is cold then it is wet",
        "the cat is cold",
    ])
    happy = cnl.parse_statement("the cat is happy")
    before = closure(context).derived[happy]
    assert (before.depth, before.rule_label) == (2, 2)
    after = _append_all(context, ["the cat is wet"]).derived[happy]
    assert (after.depth, after.rule_label) == (2, 1)


def test_extend_by_a_fact_already_in_the_context_changes_nothing():
    context = LabeledContext.from_statements(_CHAIN)
    world = closure(context)
    extended = _append_all(context, ["The cat is cold."])
    cold = cnl.parse_statement("the cat is cold")
    assert extended.fact_labels[cold] == 6
    assert extended.derived == world.derived


def test_extend_falls_back_to_closure_for_a_rule_or_a_new_constant():
    context = LabeledContext.from_statements(_CHAIN)
    world = _append_all(context, [
        "If something is kind then it is nice",
        "the dog is red",
        NOTHING_FOLLOWS,
    ])
    assert world.derived[cnl.parse_statement("the cat is nice")].depth == 6
    assert world.derived[cnl.parse_statement("the dog is kind")].depth == 2


def test_extend_needs_the_worlds_context_plus_one_statement():
    world = closure(LabeledContext.from_statements(_CHAIN))
    with pytest.raises(ValueError):
        symbolic.extend(world, LabeledContext.from_statements(_CHAIN[1:] + ["the cat is red"]))
