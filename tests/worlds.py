"""Drawn worlds for property tests: small rule/fact contexts the problem
generator never makes, with constant and variable subjects, two-condition
rules and negated facts."""

from hypothesis import strategies as st

from sireason import cnl
from sireason.cnl import VAR, Atom, const
from sireason.core import LabeledContext

TERMS = (const("cat"), const("dog"), const("Anne", proper=True))
RELATIONS = ("like", "see")
PREDICATES = ("big", "red", "kind") + RELATIONS


@st.composite
def worlds(draw):
    """(facts, rules) over 3 entities, 3 adjectives and 2 verbs: 4-10 facts
    drawn (repeats dropped) and 2-10 rules of 1-2 conditions whose terms are
    constants or the variable.  Half the conditions are a fact, its subject
    maybe the variable, so that rules fire.  Each predicate is negated
    everywhere or nowhere in one world (facts, conditions and heads), so no
    world derives an atom and its negation."""
    negated = {predicate: draw(st.booleans()) for predicate in PREDICATES}

    def atom(terms):
        predicate = draw(st.sampled_from(PREDICATES))
        obj = draw(st.sampled_from(terms)) if predicate in RELATIONS else None
        return Atom(predicate, draw(st.sampled_from(terms)), obj, negated[predicate])

    facts = list(dict.fromkeys(atom(TERMS)
                               for _ in range(draw(st.integers(4, 10)))))
    rules = []
    for _ in range(draw(st.integers(2, 10))):
        body = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                fact = draw(st.sampled_from(facts))
                body.append(Atom(fact.predicate, VAR, fact.obj, fact.negated)
                            if draw(st.booleans()) else fact)
            else:
                body.append(atom(TERMS + (VAR,)))
        # A head variable needs a condition that binds it.
        bound = not all(a.is_ground for a in body)
        rules.append((tuple(body), atom(TERMS + ((VAR,) if bound else ()))))
    return facts, rules


def context_of(world) -> LabeledContext:
    """A drawn world's context: its facts, then its rules."""
    facts, rules = world
    return LabeledContext.from_statements(
        [cnl.render_atom(a) for a in facts]
        + [cnl.render_rule(body, head, "something") for body, head in rules])
