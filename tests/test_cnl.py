import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st
from worlds import context_of, worlds

from sireason import cnl, symbolic
from sireason.cnl import (
    Atom,
    ParseError,
    RuleAst,
    VAR,
    const,
    negate,
    parse_question,
    parse_statement,
    render_atom,
    render_question,
    render_rule,
)
from sireason.core import strip_period


def test_parse_attribute_fact():
    parsed = parse_statement("the cat is cold")
    assert isinstance(parsed, Atom)
    assert parsed == Atom("cold", const("cat"), None)


def test_parse_relation_fact():
    parsed = parse_statement("the bald eagle sees the rabbit")
    assert isinstance(parsed, Atom)
    assert parsed == Atom("see", const("bald eagle"), const("rabbit"))


def test_parse_negated_facts():
    assert parse_statement("the cat is not cold").negated
    parsed = parse_statement("the bear does not eat the bald eagle")
    assert parsed.negated
    assert parsed.predicate == "eat"


def test_capitalized_article():
    parsed = parse_statement("The bald eagle is quiet")
    assert isinstance(parsed, Atom)
    assert parsed.subject == const("bald eagle")


def test_proper_names():
    parsed = parse_statement("Gary is kind")
    assert isinstance(parsed, Atom)
    assert parsed.subject.proper
    negated = parse_statement("Charlie is not smart")
    assert negated.negated


def test_parse_variable_rule():
    parsed = parse_statement("If something sees the mouse then it needs the rabbit")
    assert isinstance(parsed, RuleAst)
    assert len(parsed.body) == 1
    assert parsed.body[0].subject == VAR
    assert parsed.head.subject == VAR


def test_parse_two_premise_rule_with_pronouns():
    parsed = parse_statement(
        "If something is red and it likes the tiger then it needs the dog"
    )
    assert isinstance(parsed, RuleAst)
    assert [a.predicate for a in parsed.body] == ["red", "like"]
    assert parsed.head.predicate == "need"


def test_parse_ground_rule():
    parsed = parse_statement(
        "If Gary is kind and Gary is rough then Gary is quiet"
    )
    assert isinstance(parsed, RuleAst)
    assert all(a.is_ground for a in parsed.body)
    assert parsed.head.subject == const("Gary", proper=True)


def test_bare_adjective_continuation():
    parsed = parse_statement("If someone is red and kind then they are smart")
    assert isinstance(parsed, RuleAst)
    assert [a.predicate for a in parsed.body] == ["red", "kind"]


def test_negated_bare_adjective_continuation():
    parsed = parse_statement(
        "If something is kind and not young then it eats the mouse"
    )
    assert isinstance(parsed, RuleAst)
    assert parsed.body[1].predicate == "young"
    assert parsed.body[1].negated


def test_a_bare_adjective_consequence_is_outside_the_grammar():
    for surface in ("If someone is red then kind", "If the cat is red then not big"):
        assert parse_statement(surface) is None, surface


def test_adjective_class_rules():
    for surface in (
        "All cold things are nice",
        "All blue, smart people are red",
        "Blue, rough people are red",
    ):
        parsed = parse_statement(surface)
        assert isinstance(parsed, RuleAst), surface
        assert parsed.head.subject == VAR
    two = parse_statement("Blue, rough people are red")
    assert [a.predicate for a in two.body] == ["blue", "rough"]


def test_opaque_fallback():
    parsed = parse_statement("a fly is a kind of insect")
    assert parsed is None


def test_negate_and_is_negation_of():
    atom = parse_statement("the cat is cold")
    # Only the sign differs: an atom is the negation of its negation.
    assert negate(atom) != atom
    assert negate(negate(atom)) == atom


def test_atoms_and_terms_hash_as_the_tuple_of_their_fields():
    """Set orders over atoms rest on these hash values."""
    atoms = [parse_statement(s)
             for s in ("the cat is cold", "Gary does not see the bald eagle")]
    atoms += [Atom("like", VAR, VAR, True), Atom("red", VAR)]
    for atom in atoms:
        assert hash(atom) == hash((atom.predicate, atom.subject, atom.obj, atom.negated))
        for term in filter(None, (atom.subject, atom.obj)):
            assert hash(term) == hash((term.name, term.is_variable, term.proper))


def test_an_atom_is_written_as_its_fields():
    atom = Atom("see", const("cat"), const("Gary", proper=True), negated=True)
    assert repr(atom) == (
        "Atom(predicate='see', subject=Term(name='cat', is_variable=False, proper=False), "
        "obj=Term(name='Gary', is_variable=False, proper=True), negated=True)"
    )


def test_a_constant_needs_a_name():
    with pytest.raises(ValueError, match="constant terms need a name"):
        const("")


def test_substitute_and_negate_return_atoms():
    cat = const("cat")
    grounded = Atom("like", const("dog"), VAR).substitute(cat)
    assert type(grounded) is Atom
    assert grounded == Atom("like", const("dog"), cat)
    assert type(negate(grounded)) is Atom
    assert negate(grounded) == Atom("like", const("dog"), cat, negated=True)


def test_render_atom_roundtrip_examples():
    for surface in (
        "the cat is cold",
        "the cat is not cold",
        "the bald eagle sees the rabbit",
        "the bear does not eat the bald eagle",
        "Gary is smart",
    ):
        atom = parse_statement(surface)
        assert render_atom(atom) == surface


_ENTITY = st.sampled_from(
    ["the cat", "the dog", "the bald eagle", "the mouse", "Gary", "Fiona"]
)
_ADJ = st.sampled_from(["cold", "nice", "red", "kind", "smart", "round"])
_VERB = st.sampled_from(["eats", "likes", "sees", "needs", "chases", "visits"])


@given(_ENTITY, _ADJ, st.booleans())
def test_attribute_render_parse_roundtrip(entity, adj, negated):
    verb = "is not" if negated else "is"
    surface = f"{entity} {verb} {adj}"
    atom = parse_statement(surface)
    assert render_atom(atom) == surface
    assert parse_statement(render_atom(atom)) == atom


@given(_ENTITY, _VERB, _ENTITY, st.booleans())
def test_relation_render_parse_roundtrip(subj, verb, obj, negated):
    atom = parse_statement(f"{subj} {verb} {obj}")
    if negated:
        atom = negate(atom)
    assert parse_statement(render_atom(atom)) == atom


def test_parse_question_implication_form():
    parsed = parse_question(
        'Does it imply that the statement "The cat is nice" is True?'
    )
    assert parsed == Atom("nice", const("cat"))


def test_parse_question_rejects_other_forms():
    with pytest.raises(ParseError, match="question is not of the implication form"):
        parse_question("Is the cat nice?")
    # A multiple-choice question is free text: its choices are the halter's.
    with pytest.raises(ParseError, match="question is not of the implication form"):
        parse_question("Which word best describes the physical state of an ice cube? "
                       "gas OR solid OR liquid OR plasma.")
    with pytest.raises(ParseError):
        parse_question("")
    with pytest.raises(ParseError, match="hypothesis is not a ground fact"):
        parse_question('Does it imply that the statement "Something is red" is True?')


def test_a_head_variable_no_condition_binds_is_outside_the_grammar():
    for surface in (
        "If the cat is red then something likes the dog",
        "If the cat is red then the dog likes something",
    ):
        assert parse_statement(surface) is None, surface


@pytest.mark.parametrize("surface", [
    "the cat likes",  # a relation without its object: a missing term
    "If something is big and  then it is red",  # an empty atom between the spaces
])
def test_a_statement_with_a_part_missing_is_outside_the_grammar(surface):
    assert parse_statement(surface) is None


def test_a_rule_needs_a_body():
    with pytest.raises(ValueError, match="rule body must be non-empty"):
        RuleAst((), Atom("red", const("cat")))


def test_grammar_lists_exactly_the_verb_table():
    grammar = pathlib.Path(cnl.__file__).with_name("grammar.txt").read_text()
    lines = grammar.splitlines()
    verbs = lines[lines.index("  The verb table is closed:") + 1]
    assert re.findall(r"(\w+)/(\w+)", verbs) == [
        (third, lemma) for lemma, third in cnl.VERBS.items()
    ]


# Every production of grammar.txt, over the problem generator's nouns and
# adjectives, the verb table and capitalised names.  Pronouns, quantifiers
# and "the same entity" are not drawn as names: the grammar reserves them
# for the rule variable, so they never stand for a constant.
_NOUNS = st.sampled_from(symbolic._ENTITIES)
_ADJECTIVES = st.sampled_from(symbolic._ADJECTIVES)
_LEMMAS = st.sampled_from(tuple(cnl.VERBS))
_NAMES = st.sampled_from(["Anne", "Bob", "Charlie", "Dave", "Erin", "Fiona", "Gary", "Harry"])
_CONSTANTS = _NOUNS.map(const) | _NAMES.map(lambda name: const(name, proper=True))


def _atoms(terms):
    attributes = st.builds(
        lambda adj, subject, negated: Atom(adj, subject, None, negated),
        _ADJECTIVES, terms, st.booleans(),
    )
    relations = st.builds(Atom, _LEMMAS, terms, terms, st.booleans())
    return attributes | relations


_FACT_ATOMS = _atoms(_CONSTANTS)
# If-rules with one or two conditions; the variable anywhere, but a head
# variable needs a condition that binds it.
_RULE_ATOMS = st.tuples(
    st.lists(_atoms(_CONSTANTS | st.just(VAR)), min_size=1, max_size=2).map(tuple),
    _atoms(_CONSTANTS | st.just(VAR)),
).filter(lambda rule: rule[1].is_ground or not all(a.is_ground for a in rule[0]))
_QUANTIFIER = st.sampled_from(["something", "someone"])


@given(_FACT_ATOMS)
def test_the_question_about_a_fact_reads_back_as_the_fact(atom):
    """`render_question` writes the generator's questions, and
    `parse_question` reads back each ground atom of its vocabulary: proper
    names, negated atoms and relations too."""
    assert parse_question(render_question(atom)) == atom


@st.composite
def _fact_surfaces(draw):
    """A fact as written, with or without a capital and a final period."""
    surface = render_atom(draw(_FACT_ATOMS))
    if draw(st.booleans()):
        surface = surface[0].upper() + surface[1:]
    return surface + draw(st.sampled_from(["", "."]))


@st.composite
def _if_rule_surfaces(draw):
    """An if-rule written independently of `render_rule`: any pronoun after
    the quantifier, with agreement, and a second condition that repeats the
    first one's subject may be a bare (negated) adjective."""
    body, head = draw(_RULE_ATOMS)
    quantifier = draw(_QUANTIFIER)
    seen = False

    def term(t, pronouns):
        nonlocal seen
        if not t.is_variable:
            return t.name if t.proper else f"the {t.name}"
        if seen:
            return draw(st.sampled_from(pronouns))
        seen = True
        return quantifier

    def clause(atom):
        subject = term(atom.subject, ["it", "they"])
        plural = subject == "they"
        if atom.is_attribute:
            copula = "are" if plural else "is"
            return f"{subject} {copula} {'not ' if atom.negated else ''}{atom.predicate}"
        obj = term(atom.obj, ["it", "them"])
        if atom.negated:
            return f"{subject} {'do' if plural else 'does'} not {atom.predicate} {obj}"
        return f"{subject} {atom.predicate if plural else cnl.VERBS[atom.predicate]} {obj}"

    conditions = [clause(body[0])]
    if len(body) == 2:
        second = body[1]
        if (second.is_attribute and second.subject == body[0].subject
                and draw(st.booleans())):
            conditions.append(f"{'not ' if second.negated else ''}{second.predicate}")
        else:
            conditions.append(clause(second))
    return f"If {' and '.join(conditions)} then {clause(head)}"


@st.composite
def _class_rule_surfaces(draw):
    """"All ADJ things are ADJ", with or without "All", one or two
    adjectives joined by a comma, "things" or "people"."""
    adjectives = ", ".join(draw(st.lists(_ADJECTIVES, min_size=1, max_size=2)))
    noun = draw(st.sampled_from(["things", "people"]))
    surface = f"{adjectives} {noun} are {draw(_ADJECTIVES)}"
    if draw(st.booleans()):
        return "All " + surface
    return surface[0].upper() + surface[1:]


@given(_fact_surfaces())
def test_fact_parse_render_parse_is_a_fixed_point(surface):
    parsed = parse_statement(surface)
    assert isinstance(parsed, Atom)
    assert parse_statement(render_atom(parsed)) == parsed


@given(_if_rule_surfaces() | _class_rule_surfaces(), _QUANTIFIER)
def test_rule_parse_render_parse_is_a_fixed_point(surface, quantifier):
    parsed = parse_statement(surface)
    assert isinstance(parsed, RuleAst)
    again = parse_statement(render_rule(parsed.body, parsed.head, quantifier))
    assert (again.body, again.head) == (parsed.body, parsed.head)


@given(_RULE_ATOMS, _QUANTIFIER)
def test_render_rule_parses_back_to_its_atoms(rule, quantifier):
    body, head = rule
    parsed = parse_statement(render_rule(body, head, quantifier))
    assert (parsed.body, parsed.head) == (body, head)


def test_render_rule_writes_the_quantifier_then_its_pronoun():
    cat = const("cat")
    assert render_rule(
        (Atom("red", VAR), Atom("like", VAR, cat, negated=True)), Atom("big", VAR), "someone"
    ) == "If someone is red and they do not like the cat then they are big"
    assert render_rule(
        (Atom("chase", cat, VAR),), Atom("see", VAR, VAR), "something"
    ) == "If the cat chases something then it sees it"
    assert render_rule(
        (Atom("chase", cat, VAR),), Atom("need", cat, VAR, negated=True), "someone"
    ) == "If the cat chases someone then the cat does not need them"


def test_the_atom_cache_does_not_carry_one_rules_subject_into_another():
    """A bare-adjective continuation takes the subject of the condition
    before it in its own rule, whichever rule was parsed first."""
    variable = "If someone is red and kind then they are nice"
    constant = "If the cat is red and kind then the cat is nice"
    subjects = {variable: VAR, constant: const("cat")}
    for order in ((variable, constant), (constant, variable)):
        cnl._parse_atom.cache_clear()
        parse_statement.cache_clear()
        for surface in order:
            assert parse_statement(surface).body[1] == Atom("kind", subjects[surface]), order


class _ReferenceAtomParser:
    """The atom reader as it was before atoms were cached: one instance
    per statement, tracking the last subject for bare-adjective
    continuations."""

    def __init__(self, text):
        self.text = text
        self.last_subject = None

    def parse_term_tokens(self, tokens):
        if not tokens:
            raise ParseError("missing term", self.text)
        if tokens[0].lower() == "the":
            if len(tokens) < 2:
                raise ParseError("bare article", self.text)
            name = " ".join(tokens[1:]).lower()
            return VAR if name == "same entity" else const(name)
        joined = " ".join(tokens).lower()
        if joined in cnl._QUANTIFIERS or joined in cnl._PRONOUNS:
            return VAR
        if len(tokens) == 1 and cnl._NAME_RE.match(tokens[0]):
            return const(tokens[0], proper=True)
        raise ParseError("cannot read term", self.text)

    def parse_atom(self, text):
        tokens = text.split()
        if not tokens:
            raise ParseError("empty atom", self.text)
        if self.last_subject is not None and len(tokens) <= 2:
            if tokens[0] == "not" and len(tokens) == 2:
                return Atom(tokens[1].lower(), self.last_subject, negated=True)
            if len(tokens) == 1 and tokens[0].lower() not in cnl._PRONOUNS:
                return Atom(tokens[0].lower(), self.last_subject)
        for i, tok in enumerate(tokens):
            low = tok.lower()
            if low in ("is", "are") and i > 0:
                subject = self.parse_term_tokens(tokens[:i])
                rest = tokens[i + 1:]
                negated = False
                if rest and rest[0] == "not":
                    negated = True
                    rest = rest[1:]
                if len(rest) != 1:
                    raise ParseError("expected one adjective", self.text)
                self.last_subject = subject
                return Atom(rest[0].lower(), subject, negated=negated)
            if low in ("does", "do") and i + 2 < len(tokens) and tokens[i + 1] == "not":
                verb = tokens[i + 2].lower()
                if verb in cnl._VERB_FORMS:
                    subject = self.parse_term_tokens(tokens[:i])
                    obj = self.parse_term_tokens(tokens[i + 3:])
                    self.last_subject = subject
                    return Atom(cnl._VERB_FORMS[verb], subject, obj=obj, negated=True)
            if low in cnl._VERB_FORMS and i > 0:
                subject = self.parse_term_tokens(tokens[:i])
                obj = self.parse_term_tokens(tokens[i + 1:])
                self.last_subject = subject
                return Atom(cnl._VERB_FORMS[low], subject, obj=obj)
        raise ParseError("no verb found", self.text)


def _reference_parse(raw):
    """`parse_statement` over `_ReferenceAtomParser`."""
    surface = strip_period(raw)
    try:
        if surface.lower().startswith("if "):
            if " then " not in surface[3:]:
                raise ParseError("rule without 'then'", surface)
            body_text, head_text = surface[3:].split(" then ", 1)
            parser = _ReferenceAtomParser(surface)
            body = tuple(parser.parse_atom(chunk) for chunk in body_text.split(" and "))
            parser.last_subject = None
            head = parser.parse_atom(head_text)
            if not head.is_ground and all(a.is_ground for a in body):
                raise ParseError("head variable not bound in body", surface)
            return RuleAst(body=body, head=head)
        class_rule = cnl._parse_adjective_class_rule(surface)
        if class_rule is not None:
            return class_rule
        atom = _ReferenceAtomParser(surface).parse_atom(surface)
        if not atom.is_ground:
            raise ParseError("fact must be ground", surface)
        return atom
    except ParseError:
        return None


# Statements the reader turns into None, each from a different branch.
_OUT_OF_GRAMMAR = (
    "", "a fly is a kind of insect", "If someone is red then kind", "If the cat is red",
    "If the cat is red then something likes the dog", "something is red",
    "the is red", "the cat is very red", "If it and kind then the cat is big",
)


def _continued_rules(world):
    """Each of the world's rules cut to its first condition and continued
    with the bare adjective "kind", which takes that condition's subject:
    a constant in some rules, the variable in others."""
    rules = []
    for body, head in world[1]:
        condition, consequence = render_rule(body[:1], head, "something").split(" then ")
        rules.append(f"{condition} and kind then {consequence}")
    return rules


@settings(max_examples=200, deadline=None)
@given(worlds(),
       st.lists(_if_rule_surfaces() | _fact_surfaces() | st.sampled_from(_OUT_OF_GRAMMAR),
                max_size=6))
def test_cached_atoms_read_as_the_reference_reader_in_any_order(world, extra):
    """Each statement parses to what the uncached reader gives, from a cold
    atom cache and after the same statements were parsed in reverse."""
    surfaces = ([s.surface for s in context_of(world).statements()]
                + _continued_rules(world) + extra)
    expected = [_reference_parse(s) for s in surfaces]
    cnl._parse_atom.cache_clear()
    parse_statement.cache_clear()
    assert [parse_statement(s) for s in surfaces] == expected
    cnl._parse_atom.cache_clear()
    parse_statement.cache_clear()
    for s in reversed(surfaces):
        parse_statement(s)
    parse_statement.cache_clear()
    assert [parse_statement(s) for s in surfaces] == expected
