"""End-to-end acceptance checks, one test per headline criterion.

Each test is self-contained and uses fixed seeds, so the suite is
reproducible run to run.  Budgets are asserted where a criterion has one.
"""

import json
import time

from sireason import cnl, datasets, evalcli, symbolic
from sireason.core import Answer, ReasoningTrace
from sireason.datasets import Problem, ValueExtractionReport, generate_problem_set
from sireason.engine import SolveStats, si_answer
from sireason.evalcli import SolverConfig
from sireason.models import (
    CORRECT,
    INCORRECT,
    CompletionRequest,
    GeneratorRole,
    OracleBackend,
)


def _oracle_accuracy(problems, stats=None, collect=None):
    correct = 0
    for problem in problems:
        answer, trace = si_answer(problem, OracleBackend(), stats=stats)
        if collect is not None:
            collect.append(trace)
        if answer == problem.gold_answer:
            correct += 1
    return correct / len(problems)


def test_oracle_end_to_end_accuracy_per_depth():
    """400 generated problems, all-oracle roles: 100% at every depth, <=60s."""
    start = time.monotonic()
    for depth in (1, 2, 3, 5):
        problems = generate_problem_set(17, {depth: 100})
        traces = []
        accuracy = _oracle_accuracy(problems, collect=traces)
        assert accuracy == 1.0, f"depth {depth}: {accuracy:.3f}"
        for trace in traces:
            assert symbolic.trace_faults(trace) == []
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_no_made_up_facts_and_bounded_syntax_errors():
    """Zero hallucinated selections, scripted syntax error rate under 5%."""
    problems = generate_problem_set(17, {1: 25, 2: 25, 3: 25, 5: 25})
    traces = []
    _oracle_accuracy(problems, collect=traces)

    stats = SolveStats()
    cfg = SolverConfig(backend="scripted", noise_rate=0.5, seed=23)
    solver = evalcli.make_solver(cfg, stats)
    for problem in problems:
        _, trace = solver(problem)
        traces.append(trace)

    assert evalcli.made_up_fact_rate(traces) == 0.0
    assert stats.selection_calls > 0
    error_rate = stats.selection_syntax_errors / stats.selection_calls
    assert error_rate < 0.05, f"syntax error rate {error_rate:.3f}"


def test_search_lift_on_noisy_selection():
    """Beam B=P=4 beats greedy by >=10 points under 30% selection noise."""
    start = time.monotonic()
    problems = generate_problem_set(5, {3: 200})
    greedy_cfg = SolverConfig(
        backend="scripted", noise_rate=0.3, seed=11, max_steps=4
    )
    beam_cfg = SolverConfig(
        backend="scripted", noise_rate=0.3, seed=11, max_steps=4,
        beam_width=4, proposals_per_trace=4,
    )

    def accuracy(cfg):
        solver = evalcli.make_solver(cfg)
        hits = sum(
            1 for p in problems if solver(p)[0] == p.gold_answer
        )
        return hits / len(problems)

    greedy = accuracy(greedy_cfg)
    beam = accuracy(beam_cfg)
    lift = (beam - greedy) * 100
    elapsed = time.monotonic() - start
    assert lift >= 10.0, f"greedy {greedy:.3f}, beam {beam:.3f}, lift {lift:.1f}"
    assert elapsed <= 300.0, f"took {elapsed:.1f}s"


def test_value_oracle_ranks_gold_above_corrupted():
    """score(gold prefix) > score(corrupted sibling) in all emitted pairs,
    and the oracle's reply to each pair's input is the pair's target."""
    problems = generate_problem_set(29, {2: 120, 3: 120})
    backend = OracleBackend()

    def reply(prompt):
        return backend.complete(
            CompletionRequest(
                role=GeneratorRole.VALUE,
                prompt=prompt,
                scored_continuations=(CORRECT, INCORRECT),
            )
        )

    def score(prompt):
        return reply(prompt).continuation_logprobs[CORRECT]

    compared = 0
    for problem in problems:
        report = ValueExtractionReport()
        pairs = datasets.extract_value_pairs(problem, seed=7, report=report)
        by_prefix = {}
        for pair in pairs:
            assert reply(pair.input).text == pair.target, (problem.id, pair.step_index)
            by_prefix.setdefault(pair.step_index, {})[pair.target] = pair.input
        for targets in by_prefix.values():
            if CORRECT in targets and INCORRECT in targets:
                assert score(targets[CORRECT]) > score(targets[INCORRECT])
                compared += 1
    assert compared >= 500, f"only {compared} comparable pairs"


def question_shortcut_solver(problem: Problem) -> tuple[Answer, ReasoningTrace]:
    """Test double that answers from rule heads without reasoning.

    It looks for a rule whose head predicate matches the hypothesis and
    answers from the polarity alone.  Used with the probes to show what a
    context-shortcut looks like.
    """
    # The empty, unhalted trace marks that no actual reasoning happened.
    trace = ReasoningTrace(base_context=problem.context)
    hyp = cnl.parse_question(problem.question)
    if not isinstance(hyp, cnl.Atom):
        return Answer.UNKNOWN, trace
    for stmt in problem.context.statements():
        s = cnl.parse_statement(stmt.surface)
        if not isinstance(s, cnl.RuleAst):
            continue
        head = s.head
        if head.predicate != hyp.predicate:
            continue
        if (head.obj is None) != (hyp.obj is None):
            continue
        answer = Answer.TRUE if head.negated == hyp.negated else Answer.FALSE
        return answer, trace
    return Answer.UNKNOWN, trace


def test_probes_separate_reasoning_from_shortcuts():
    """Incomplete context: all Unknown.  Random context: <=1% accuracy.
    A question-shortcut double is unaffected by fact removal; the oracle is.
    """
    problems = generate_problem_set(31, {2: 50, 3: 50})
    oracle_solver = evalcli.make_solver(SolverConfig(backend="oracle"))

    stripped = [evalcli.strip_facts(p.context) for p in problems]
    complete, incomplete = evalcli.probe(problems, oracle_solver, stripped)
    assert incomplete.unknown_rate == 1.0
    assert incomplete.accuracy == 0.0
    assert (complete.accuracy - incomplete.accuracy) * 100 >= 95.0

    deranged = [problems[i].context for i in evalcli.derangement(len(problems), 3)]
    _, random_ctx = evalcli.probe(problems, oracle_solver, deranged)
    assert random_ctx.accuracy <= 0.01

    complete, incomplete = evalcli.probe(problems, question_shortcut_solver, stripped)
    assert abs(complete.accuracy - incomplete.accuracy) * 100 <= 5.0


def test_golden_fixture_answers(pw_problems):
    """All bundled single-origin fixtures: valid proofs, exact answers."""
    assert datasets.validate_problems(pw_problems) == []
    reproduced = 0
    for problem in pw_problems:
        answer, trace = si_answer(problem, OracleBackend())
        assert answer == problem.gold_answer, problem.id
        assert symbolic.trace_faults(trace) == [], problem.id
        reproduced += 1
    assert reproduced == 10


def test_metric_identities_hold():
    """Pinned rouge numbers, Jaccard identities, known-only >= overall."""
    pred = "an ice cube is in solid state"
    gold = "an ice cube is solid in its physical state"
    r1, rl = evalcli.rouge_scores([pred], [gold])
    assert round(r1, 12) == 0.875
    assert round(rl, 12) == 0.75
    assert evalcli.rouge_scores([gold], [gold])[0] == 1.0
    assert evalcli._jaccard(set(), set()) == 1.0
    assert evalcli._jaccard({"a", "b"}, {"b", "c"}) == 1 / 3

    problems = generate_problem_set(37, {1: 10, 3: 10})
    report = evalcli.evaluate(
        problems, SolverConfig(backend="scripted", noise_rate=0.4, seed=2)
    )
    doc = report.to_doc()
    assert doc["overall"]["known_only_accuracy"] >= doc["overall"]["accuracy"]
    for bucket in doc["per_depth"].values():
        assert bucket["known_only_accuracy"] >= bucket["accuracy"]


def test_reports_are_deterministic():
    """Same seeds, same bytes: traces and report documents both."""
    problems = generate_problem_set(41, {2: 10, 3: 10})
    cfg = SolverConfig(
        backend="scripted", noise_rate=0.3, seed=13,
        beam_width=2, proposals_per_trace=2, max_steps=4,
    )

    def run():
        report = evalcli.evaluate(problems, cfg)
        return json.dumps(report.to_doc(), sort_keys=True)

    first, second = run(), run()
    assert first == second

    solver_a = evalcli.make_solver(cfg)
    solver_b = evalcli.make_solver(cfg)
    for problem in problems[:5]:
        answer_a, trace_a = solver_a(problem)
        answer_b, trace_b = solver_b(problem)
        assert answer_a == answer_b
        from sireason.core import render_trace

        assert render_trace(trace_a) == render_trace(trace_b)
