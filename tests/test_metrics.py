import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sireason import cnl, evalcli
from sireason.core import (
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    Statement,
    normalize_key,
)
# ROUGE reads words as statement keys do.
from sireason.core import tokenize as rouge_tokenize
from sireason.evalcli import (
    exact_match,
    jaccard_metrics,
    made_up_fact_rate,
    rouge_scores,
)
from worlds import context_of, worlds


def _trace(context, steps):
    return ReasoningTrace(
        base_context=LabeledContext.from_statements(context),
        steps=tuple(
            ReasoningStep(
                selection=tuple(Statement(s) for s in selection),
                inference=Statement(inference),
            )
            for selection, inference in steps
        ),
    )


CONTEXT = ["rule one", "fact a", "fact b", "fact c"]


def test_jaccard_identity_and_disjoint():
    gold = _trace(CONTEXT, [(["rule one", "fact a"], "derived x")])
    same = _trace(CONTEXT, [(["rule one", "fact a"], "derived x")])
    other = _trace(CONTEXT, [(["fact b", "fact c"], "derived y")])
    assert jaccard_metrics(gold, same) == (1.0, 1.0, 1.0)
    leaves, steps, inter = jaccard_metrics(gold, other)
    assert leaves == 0.0 and steps == 0.0 and inter == 0.0


def test_jaccard_leaves_partial_overlap():
    # selections {rule one, fact a} vs {rule one, fact b}: 1 shared of 3
    a = _trace(CONTEXT, [(["rule one", "fact a"], "derived x")])
    b = _trace(CONTEXT, [(["rule one", "fact b"], "derived x")])
    leaves, steps, inter = jaccard_metrics(a, b)
    assert leaves == 1 / 3
    assert steps == 0.0  # selections differ, so the step pairs differ
    assert inter == 1.0


def test_jaccard_ignores_step_order():
    ab = _trace(
        CONTEXT,
        [(["rule one", "fact a"], "x"), (["rule one", "fact b"], "y")],
    )
    ba = _trace(
        CONTEXT,
        [(["rule one", "fact b"], "y"), (["rule one", "fact a"], "x")],
    )
    assert jaccard_metrics(ab, ba) == (1.0, 1.0, 1.0)


@given(
    st.lists(st.sampled_from(CONTEXT[1:]), min_size=1, max_size=3),
    st.lists(st.sampled_from(CONTEXT[1:]), min_size=1, max_size=3),
)
def test_jaccard_symmetric_and_bounded(sel_a, sel_b):
    a = _trace(CONTEXT, [(["rule one"] + sel_a, "x")])
    b = _trace(CONTEXT, [(["rule one"] + sel_b, "y")])
    forward = jaccard_metrics(a, b)
    backward = jaccard_metrics(b, a)
    assert forward == backward
    assert all(0.0 <= v <= 1.0 for v in forward)


def test_rouge_tokenize():
    assert rouge_tokenize("An ice CUBE, is solid.") == [
        "an", "ice", "cube", "is", "solid",
    ]
    assert rouge_tokenize("") == []


def test_rouge_identity_and_disjoint():
    assert rouge_scores(["a b c"], ["a b c"]) == (1.0, 1.0)
    assert rouge_scores(["a b"], ["c d"]) == (0.0, 0.0)


def test_rouge_hand_counted_pair():
    # prediction has 7 tokens, gold has 9, every prediction token appears in
    # the gold exactly once: unigram F1 = 2*(7/7 * 7/9)/(7/7 + 7/9) = 7/8.
    # The longest common subsequence keeps 6 tokens, so the LCS F1 is
    # 2*(6/7 * 6/9)/(6/7 + 6/9) = 3/4.
    pred = "an ice cube is in solid state"
    gold = "an ice cube is solid in its physical state"
    r1, rl = rouge_scores([pred], [gold])
    assert r1 == 2 * ((7 / 7) * (7 / 9)) / ((7 / 7) + (7 / 9))
    assert round(r1, 12) == 0.875
    assert rl == 2 * ((6 / 7) * (6 / 9)) / ((6 / 7) + (6 / 9))
    assert round(rl, 12) == 0.75


def test_rouge1_clips_repeated_tokens():
    # "a a" vs "a": overlap clipped to 1 -> F1 = 2*(1/2*1/1)/(1/2+1/1) = 2/3
    assert rouge_scores(["a a"], ["a"])[0] == 2 / 3


def _brute_lcs(a, b):
    best = 0
    for n in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), n):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return n
    return best


@given(
    st.lists(st.sampled_from("abcd"), max_size=7),
    st.lists(st.sampled_from("abcd"), max_size=7),
)
def test_lcs_against_brute_force(a, b):
    assert evalcli._lcs_len(a, b) == _brute_lcs(a, b)


def test_rouge_scores_empty_cases():
    assert rouge_scores([], []) == (1.0, 1.0)
    r1, rl = rouge_scores(["something"], [])
    assert r1 == 0.0 and rl == 0.0


def test_rouge_scores_unordered_alignment():
    pred = ["the cow is kind", "the tiger likes the cow"]
    gold = ["the tiger likes the cow", "the cow is kind"]
    assert rouge_scores(pred, gold) == (1.0, 1.0)


def test_rouge_scores_averages_over_longer_side():
    pred = ["the cow is kind"]
    gold = ["the cow is kind", "the tiger likes the cow"]
    r1, _ = rouge_scores(pred, gold)
    assert r1 == 0.5


def _reference_rouge1(predicted, gold):
    p = Counter(rouge_tokenize(predicted))
    g = Counter(rouge_tokenize(gold))
    overlap = sum(min(p[t], g[t]) for t in p)
    return evalcli._f1(overlap, sum(p.values()), sum(g.values()))


def _reference_rougeL(predicted, gold):
    p = rouge_tokenize(predicted)
    g = rouge_tokenize(gold)
    return evalcli._f1(evalcli._lcs_len(p, g), len(p), len(g))


def _reference_rouge_scores(predicted, gold):
    """`rouge_scores` as first written: every round of the alignment scores
    every remaining pair with `rouge1`, and the matched pairs are scored
    again from their text."""
    rouge1, rougeL = _reference_rouge1, _reference_rougeL
    n = max(len(predicted), len(gold))
    if n == 0:
        return 1.0, 1.0
    pairs = []
    remaining_p = list(range(len(predicted)))
    remaining_g = list(range(len(gold)))
    while remaining_p and remaining_g:
        best = max(
            ((rouge1(predicted[i], gold[j]), -i, -j) for i in remaining_p
             for j in remaining_g),
        )
        _, ni, nj = best
        i, j = -ni, -nj
        pairs.append((predicted[i], gold[j]))
        remaining_p.remove(i)
        remaining_g.remove(j)
    r1 = sum(rouge1(p, g) for p, g in pairs) / n
    rl = sum(rougeL(p, g) for p, g in pairs) / n
    return r1, rl


# Four words, so repeated tokens, duplicate and empty sentences, and ties
# between pairs are common.
_SENTENCES = st.lists(st.sampled_from(["a", "b", "c", "The"]), max_size=5).map(" ".join)


@given(st.lists(_SENTENCES, max_size=6), st.lists(_SENTENCES, max_size=6))
def test_rouge_scores_equal_the_reference(predicted, gold):
    assert rouge_scores(predicted, gold) == _reference_rouge_scores(predicted, gold)


@given(_SENTENCES, _SENTENCES)
def test_one_pair_scores_as_rouge1_and_rougeL(p, g):
    assert rouge_scores([p], [g]) == (_reference_rouge1(p, g), _reference_rougeL(p, g))


def test_rouge_scores_tokenizes_each_sentence_once(monkeypatch):
    calls = []
    tokenize = evalcli.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(evalcli, "tokenize", counting)
    cases = [
        (["a b", "b c a", "c"], ["c b", "a", "a b", "b"]),
        (["a a", "a a"], ["a a", "a a"]),
        (["a"] * 6, ["b"] * 6),
        ([""], ["a"]),
    ]
    for predicted, gold in cases:
        calls.clear()
        rouge_scores(predicted, gold)
        assert len(calls) <= len(predicted) + len(gold)


def test_exact_match_leaves_the_key_cache_alone():
    a = _trace(CONTEXT, [(["rule one", "fact a"], "a trace seen once")])
    b = _trace(CONTEXT, [(["rule one", "fact a"], "A trace seen once.")])
    before = normalize_key.cache_info().currsize
    assert exact_match(a, b)
    assert normalize_key.cache_info().currsize == before


def test_exact_match_normalizes_surfaces():
    a = _trace(CONTEXT, [(["rule one", "fact a"], "derived x")])
    b = _trace(CONTEXT, [(["rule one", "fact a"], "Derived X.")])
    c = _trace(CONTEXT, [(["rule one", "fact a"], "derived y")])
    assert exact_match(a, b)
    assert not exact_match(a, c)


def test_made_up_fact_rate():
    good = _trace(CONTEXT, [(["rule one", "fact a"], "derived x")])
    bad = _trace(CONTEXT, [(["made up premise"], "derived z")])
    assert made_up_fact_rate([good, bad]) == 0.5
    assert made_up_fact_rate([good]) == 0.0
    assert made_up_fact_rate([]) == 0.0


@given(worlds(), st.data())
def test_strip_facts_keeps_exactly_the_rule_sentences_in_context_order(world, data):
    """On a drawn world, its sentences shuffled and one sentence outside the
    grammar (a rule's form, or free text) put in among them."""
    sentences = data.draw(st.permutations([s.surface for s in context_of(world).statements()]))
    opaque = data.draw(st.sampled_from(["If someone is red then kind",
                                        "colourless green ideas sleep furiously"]))
    sentences.insert(data.draw(st.integers(0, len(sentences))), opaque)
    context = LabeledContext.from_statements(sentences)
    # The comprehension `strip_facts` used before it read `symbolic.parse_context`.
    reference = [
        stmt.surface
        for stmt in context.statements()
        if isinstance(cnl.parse_statement(stmt.surface), cnl.RuleAst)
    ]
    stripped = evalcli.strip_facts(context)
    assert [s.surface for s in stripped.statements()] == reference
    assert len(reference) == len(world[1])


def test_derangement_is_a_seeded_permutation_with_no_fixed_point():
    for n in range(2, 31):
        for seed in (0, 1, 7, 12345):
            perm = evalcli.derangement(n, seed)
            assert sorted(perm) == list(range(n))
            assert all(i != v for i, v in enumerate(perm))
            assert evalcli.derangement(n, seed) == perm
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            evalcli.derangement(n, 0)
