"""Metrics, faithfulness probes, batch evaluation, and the command line.

The solver abstraction used throughout is a callable
`solver(problem) -> (Answer, ReasoningTrace)`; `make_solver` builds one
from backend/search settings so probes can also wrap test doubles.  Both
probes are one routine, `probe`, over altered contexts: `derangement` gives
each problem another's context (`random`), `strip_facts` leaves only its
rules (`incomplete`).
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import random
import sys
import weakref
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

from . import datasets, engine, models, symbolic
from .core import (
    Answer,
    LabeledContext,
    Problem,
    ReasoningTrace,
    is_connected,
    render_trace,
    tokenize,
)

REMOTE_ENDPOINT_ENV = "SIREASON_REMOTE_ENDPOINT"


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def _leaves(trace: ReasoningTrace, base: set[str]) -> set[str]:
    out: set[str] = set()
    for step in trace.steps:
        for stmt in step.selection:
            if stmt.key in base:
                out.add(stmt.key)
    return out


def _step_sigs(trace: ReasoningTrace) -> set[tuple]:
    return {
        (frozenset(s.key for s in step.selection), step.inference.key)
        for step in trace.steps
    }


def _intermediates(trace: ReasoningTrace) -> set[str]:
    return {step.inference.key for step in trace.steps}


def jaccard_metrics(
    predicted: ReasoningTrace, gold: ReasoningTrace
) -> tuple[float, float, float]:
    """(leaves, steps, intermediates), all order-insensitive.  Both traces
    answer one problem, so the leaves of each are its selected statements
    that are in the gold trace's base context."""
    base = {s.key for s in gold.base_context.statements()}
    return (
        _jaccard(_leaves(predicted, base), _leaves(gold, base)),
        _jaccard(_step_sigs(predicted), _step_sigs(gold)),
        _jaccard(_intermediates(predicted), _intermediates(gold)),
    )


def _sum(values) -> float:
    """`values` added left to right, as `sum()` adds floats up to Python
    3.11; from 3.12 it compensates, which can move a report's last digit."""
    return functools.reduce(operator.add, values, 0)


def _f1(overlap: float, plen: int, glen: int) -> float:
    if plen == 0 or glen == 0 or overlap == 0:
        return 0.0
    p = overlap / plen
    r = overlap / glen
    return 2 * p * r / (p + r)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def _rouge1_tokens(p: list[str], g: list[str], g_counts: dict[str, int]) -> float:
    """ROUGE-1 F1 of two token lists; `g_counts` counts the tokens of `g`.
    Equal lists score 1.0 (0.0 when empty), as a full overlap would."""
    if p == g:
        return 1.0 if p else 0.0
    left = dict(g_counts)
    overlap = 0
    for t in p:
        if left.get(t):
            left[t] -= 1
            overlap += 1
    return _f1(overlap, len(p), len(g))


def _rougeL_tokens(p: list[str], g: list[str]) -> float:
    """ROUGE-L F1 of two token lists; equal lists as in `_rouge1_tokens`,
    without the LCS."""
    if p == g:
        return 1.0 if p else 0.0
    return _f1(_lcs_len(p, g), len(p), len(g))


def rouge_scores(predicted: Sequence[str], gold: Sequence[str]) -> tuple[float, float]:
    """Average (rouge1, rougeL) over sentence pairs aligned greedily by best
    rouge1 match, in any order: ties go to the lowest predicted index, then
    the lowest gold index.  Unmatched sentences on either side count as 0.
    Each sentence is tokenized once and each pair's rouge1 computed once;
    rougeL is computed for the matched pairs only.
    """
    n = max(len(predicted), len(gold))
    if n == 0:
        return 1.0, 1.0
    p_toks = [tokenize(s) for s in predicted]
    g_toks = [tokenize(s) for s in gold]
    g_counts = [Counter(g) for g in g_toks]
    r1 = [[_rouge1_tokens(p, g, c) for g, c in zip(g_toks, g_counts)] for p in p_toks]
    pairs: list[tuple[int, int]] = []
    remaining_p = list(range(len(predicted)))
    remaining_g = list(range(len(gold)))
    while remaining_p and remaining_g:
        _, ni, nj = max((r1[i][j], -i, -j) for i in remaining_p for j in remaining_g)
        i, j = -ni, -nj
        pairs.append((i, j))
        remaining_p.remove(i)
        remaining_g.remove(j)
    return (
        _sum(r1[i][j] for i, j in pairs) / n,
        _sum(_rougeL_tokens(p_toks[i], g_toks[j]) for i, j in pairs) / n,
    )


def exact_match(predicted: ReasoningTrace, gold: ReasoningTrace) -> bool:
    # Not through `normalize_key`: a whole trace is looked up once, and in
    # that cache it would push out statement keys the search looks up often.
    p, g = render_trace(predicted), render_trace(gold)
    return p == g or "".join(tokenize(p)) == "".join(tokenize(g))


def made_up_fact_rate(traces: Sequence[ReasoningTrace]) -> float:
    """The fraction of traces that select an out-of-context statement."""
    if not traces:
        return 0.0
    return sum(not is_connected(trace) for trace in traces) / len(traces)


# ---------------------------------------------------------------------------
# Solvers.
# ---------------------------------------------------------------------------

Solver = Callable[[Problem], tuple[Answer, ReasoningTrace]]


@dataclass(frozen=True)
class SolverConfig(engine.BeamConfig):
    """The search settings of `engine.BeamConfig` (checked on construction)
    plus the backend that answers every role."""

    backend: str = "oracle"  # oracle | scripted | remote
    noise_rate: float = 0.0
    seed: int = 0
    endpoint: Optional[str] = None

    def remote_endpoint(self) -> Optional[str]:
        return self.endpoint or os.environ.get(REMOTE_ENDPOINT_ENV)

    def check_backend(self) -> None:
        """Raises ValueError on a backend setting no backend can be made
        from; starts nothing."""
        if self.backend == "scripted":
            models.check_noise(self.noise_rate)
        elif self.backend == "remote":
            endpoint = self.remote_endpoint()
            if not endpoint:
                raise ValueError(f"remote backend needs --endpoint or ${REMOTE_ENDPOINT_ENV}")
            models.check_endpoint(endpoint)
        elif self.backend != "oracle":
            raise ValueError(f"unknown backend {self.backend!r}")


def make_backend(cfg: SolverConfig):
    """The one backend that answers every role for the whole run."""
    cfg.check_backend()
    if cfg.backend == "oracle":
        return models.oracle_backend()
    if cfg.backend == "scripted":
        # Noise replaces selections only; the oracle base answers the rest.
        return models.ScriptedBackend(
            base=models.oracle_backend(), noise_rate=cfg.noise_rate,
            seed=cfg.seed * 1000003,
        )
    return models.remote_backend(cfg.remote_endpoint())


def make_solver(cfg: SolverConfig, stats: Optional[engine.SolveStats] = None) -> Solver:
    """A beam-search solver over one backend for the whole run.

    The backend is reset before each problem (the oracle forgets the
    worlds, proof keys and selection walks of the last one, the scripted
    backend reseeds its noise, a remote server gets the reset document) and
    closed once the solver is gone (or at interpreter exit).  `cfg` is the
    search's `BeamConfig` too.
    """
    backend = make_backend(cfg)
    if stats is None:
        stats = engine.SolveStats()

    def solve(problem: Problem) -> tuple[Answer, ReasoningTrace]:
        try:
            backend.reset()
        except models.BackendError as exc:
            stats.backend_failure(f"{problem.id}: reset: {exc}")
        answer, trace, _ = engine.beam_search(problem, backend, cfg, stats)
        return answer, trace

    weakref.finalize(solve, backend.close)
    return solve


# ---------------------------------------------------------------------------
# Probes.
# ---------------------------------------------------------------------------

def derangement(n: int, seed: int) -> list[int]:
    """A seeded permutation of range(n) with no fixed point (n >= 2)."""
    if n < 2:
        raise ValueError("derangement needs at least 2 items")
    rng = random.Random(("derangement", seed).__repr__())
    perm = list(range(n))
    while True:
        rng.shuffle(perm)
        if all(i != v for i, v in enumerate(perm)):
            return perm


def strip_facts(context: LabeledContext) -> LabeledContext:
    """The rule sentences of `context`, in context order."""
    _, rules = symbolic.parse_context(context)
    return LabeledContext.from_statements(context.lookup(label) for label, _ in rules)


def probe(
    problems: Sequence[Problem], solver: Solver, contexts: Sequence[LabeledContext]
) -> tuple[DepthReport, DepthReport]:
    """The solver's answers counted twice: to `problems` as given, then to
    each problem with its context replaced by the same-index entry of
    `contexts` and no gold proof.  Every problem as given is solved first:
    the scripted backend draws its noise by the count of solves so far."""
    given, altered = DepthReport(), DepthReport()
    for p in problems:
        given.add(solver(p)[0], p.gold_answer)
    for p, context in zip(problems, contexts, strict=True):
        altered.add(solver(replace(p, context=context, gold_proof=None))[0], p.gold_answer)
    return given, altered


# ---------------------------------------------------------------------------
# Batch evaluation.
# ---------------------------------------------------------------------------

@dataclass
class DepthReport:
    count: int = 0
    correct: int = 0
    known: int = 0
    known_correct: int = 0

    def add(self, answer: Answer, gold: Answer) -> None:
        """Count one answer to a problem whose gold answer is `gold`."""
        self.count += 1
        self.correct += answer == gold
        if not answer.is_unknown:
            self.known += 1
            self.known_correct += answer == gold

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0

    @property
    def known_only_accuracy(self) -> float:
        return self.known_correct / self.known if self.known else 0.0

    @property
    def unknown_rate(self) -> float:
        return (self.count - self.known) / self.count if self.count else 0.0

    def to_doc(self) -> dict:
        return {
            "count": self.count,
            "accuracy": self.accuracy,
            "known_only_accuracy": self.known_only_accuracy,
            "unknown_rate": self.unknown_rate,
        }


@dataclass
class EvalReport:
    overall: DepthReport = field(default_factory=DepthReport)
    per_depth: dict = field(default_factory=dict)
    jaccard_leaves: float = 0.0
    jaccard_steps: float = 0.0
    jaccard_intermediates: float = 0.0
    rouge1_intermediates: float = 0.0
    rougeL_intermediates: float = 0.0
    exact_match_rate: float = 0.0
    made_up_fact_rate: float = 0.0
    halt_depth_histogram: dict = field(default_factory=dict)
    selection_syntax_errors: int = 0
    selection_calls: int = 0
    failures: list = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "overall": self.overall.to_doc(),
            "per_depth": {str(k): v.to_doc() for k, v in sorted(self.per_depth.items())},
            "jaccard": {
                "leaves": self.jaccard_leaves,
                "steps": self.jaccard_steps,
                "intermediates": self.jaccard_intermediates,
            },
            "rouge_intermediates": {
                "rouge1": self.rouge1_intermediates,
                "rougeL": self.rougeL_intermediates,
            },
            "exact_match_rate": self.exact_match_rate,
            "made_up_fact_rate": self.made_up_fact_rate,
            "halt_depth_histogram": {
                f"{k[0]}/{k[1]}": v
                for k, v in sorted(self.halt_depth_histogram.items())
            },
            "selection_syntax_errors": self.selection_syntax_errors,
            "selection_calls": self.selection_calls,
            "failures": list(self.failures),
        }


def evaluate(problems: Sequence[Problem], cfg: SolverConfig) -> EvalReport:
    stats = engine.SolveStats()
    solver = make_solver(cfg, stats)
    report = EvalReport()
    # Per gold-compared problem: three Jaccard scores, ROUGE-1, ROUGE-L, exact match.
    scores: list[tuple] = []
    traces: list[ReasoningTrace] = []
    for problem in problems:
        answer, trace = solver(problem)
        traces.append(trace)
        report.overall.add(answer, problem.gold_answer)
        if problem.depth is not None:
            report.per_depth.setdefault(problem.depth, DepthReport()).add(
                answer, problem.gold_answer)
        if problem.gold_proof is not None:
            scores.append((
                *jaccard_metrics(trace, problem.gold_proof),
                *rouge_scores([s.inference.surface for s in trace.steps],
                              [s.inference.surface for s in problem.gold_proof.steps]),
                exact_match(trace, problem.gold_proof),
            ))
            key = (len(trace.steps), len(problem.gold_proof.steps))
            report.halt_depth_histogram[key] = report.halt_depth_histogram.get(key, 0) + 1
    if scores:
        (report.jaccard_leaves, report.jaccard_steps, report.jaccard_intermediates,
         report.rouge1_intermediates, report.rougeL_intermediates,
         report.exact_match_rate) = (_sum(column) / len(scores) for column in zip(*scores))
    report.made_up_fact_rate = made_up_fact_rate(traces)
    report.selection_syntax_errors = stats.selection_syntax_errors
    report.selection_calls = stats.selection_calls
    report.failures.extend(stats.notes)
    return report


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["oracle", "scripted", "remote"])
    parser.add_argument("--noise", type=float, dest="noise_rate", metavar="NOISE")
    parser.add_argument("--beam", type=int, dest="beam_width", metavar="BEAM")
    parser.add_argument("--proposals", type=int, dest="proposals_per_trace",
                        metavar="PROPOSALS")
    parser.add_argument("--max-steps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--endpoint",
                        help=f"remote endpoint (or ${REMOTE_ENDPOINT_ENV})")
    parser.set_defaults(parser_error=parser.error, **asdict(SolverConfig()))


def _solver_config(args) -> SolverConfig:
    """The solver settings from the command line; a bad search or backend
    setting stops the command (exit 2) before any problem loads or any
    server starts."""
    try:
        cfg = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    except ValueError as exc:
        args.parser_error(f"bad search setting: {exc}")
    try:
        cfg.check_backend()
    except ValueError as exc:
        args.parser_error(f"bad backend setting: {exc}")
    return cfg


def _load_problems(path) -> list[Problem]:
    """The problems of a file.  One that cannot be read, or that breaks the
    schema, stops the command (exit 2, `file:line: message` on stderr)
    before any solver or server starts."""
    try:
        return datasets.load_problems(path)
    except datasets.SchemaError as exc:
        print(f"{path}:{exc.line_number}: {exc.reason}", file=sys.stderr)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
    raise SystemExit(2)


def _save(save, items, path) -> None:
    """`save(items, path)`.  A path that cannot be written stops the command
    as an unreadable input does (exit 2, `path: message` on stderr)."""
    try:
        save(items, path)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _report_failures(stats: engine.SolveStats) -> int:
    """Print each backend failure on stderr; the exit code they make."""
    for note in stats.notes:
        print(f"failure: {note}", file=sys.stderr)
    return 1 if stats.notes else 0


def _cmd_solve(args) -> int:
    cfg = _solver_config(args)
    problems = _load_problems(args.problems)
    stats = engine.SolveStats()
    solver = make_solver(cfg, stats)
    for problem in problems:
        answer, trace = solver(problem)
        text = render_trace(trace)
        if text:
            print(text)
        print(f"Answer: {answer.render()}")
        print(json.dumps({
            "id": problem.id,
            "answer": answer.render(),
            "gold": problem.gold_answer.render(),
            "steps": len(trace.steps),
        }, sort_keys=True))
    return _report_failures(stats)


def _cmd_eval(args) -> int:
    cfg = _solver_config(args)
    problems = _load_problems(args.problems)
    report = evaluate(problems, cfg)
    if args.report == "json":
        print(json.dumps(report.to_doc(), sort_keys=True, indent=2))
    else:
        doc = report.to_doc()
        print(f"problems: {doc['overall']['count']}")
        print(f"accuracy: {doc['overall']['accuracy']:.4f}")
        print(f"known-only accuracy: {doc['overall']['known_only_accuracy']:.4f}")
        print(f"unknown rate: {doc['overall']['unknown_rate']:.4f}")
        for depth, d in doc["per_depth"].items():
            print(f"depth {depth}: accuracy {d['accuracy']:.4f} over {d['count']}")
        print(f"jaccard leaves/steps/intermediates: "
              f"{doc['jaccard']['leaves']:.4f} {doc['jaccard']['steps']:.4f} "
              f"{doc['jaccard']['intermediates']:.4f}")
        print(f"rouge1/rougeL: {doc['rouge_intermediates']['rouge1']:.4f} "
              f"{doc['rouge_intermediates']['rougeL']:.4f}")
        print(f"exact match: {doc['exact_match_rate']:.4f}")
        print(f"made-up-fact rate: {doc['made_up_fact_rate']:.4f}")
        print(f"selection syntax errors: {doc['selection_syntax_errors']}"
              f"/{doc['selection_calls']}")
        for f in doc["failures"]:
            print(f"failure: {f}")
    return 1 if report.failures else 0


def _cmd_probe(args) -> int:
    cfg = _solver_config(args)
    problems = _load_problems(args.problems)
    if args.kind == "random":
        if len(problems) < 2:
            # Each problem borrows another's context: one problem has no other.
            args.parser_error("--kind random needs at least 2 problems")
        contexts = [problems[i].context for i in derangement(len(problems), args.seed)]
        names = "accuracy_random", "accuracy_correct", "unknown_rate_random"
    else:
        contexts = [strip_facts(p.context) for p in problems]
        names = "accuracy_incomplete", "accuracy_complete", "unknown_rate"
    stats = engine.SolveStats()
    given, altered = probe(problems, make_solver(cfg, stats), contexts)
    doc = {
        "kind": args.kind,
        names[0]: altered.accuracy,
        names[1]: given.accuracy,
        "delta": given.accuracy - altered.accuracy,
        names[2]: altered.unknown_rate,
    }
    if args.report == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for k, v in doc.items():
            print(f"{k}: {v}")
    return _report_failures(stats)


def _cmd_validate(args) -> int:
    problems = _load_problems(args.problems)
    findings = datasets.validate_problems(problems)
    for f in findings:
        print(f)
    print(f"{len(problems)} problems, {len(findings)} findings")
    return 1 if findings else 0


def _cmd_gen_problems(args) -> int:
    counts = {d: args.count for d in args.depths}
    problems = datasets.generate_problem_set(args.seed, counts)
    _save(datasets.save_problems, problems, args.out)
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def _cmd_extract_training(args) -> int:
    problems = _load_problems(args.problems)
    pairs: list[datasets.TrainingPair] = []
    report = datasets.ValueExtractionReport()
    for problem in problems:
        if args.roles & {"sel", "inf"}:
            si = datasets.extract_si_pairs(problem)
            if "sel" not in args.roles:
                si = [p for p in si if p.role is not models.GeneratorRole.SELECTION]
            if "inf" not in args.roles:
                si = [p for p in si if p.role is not models.GeneratorRole.INFERENCE]
            pairs.extend(si)
        if "halt" in args.roles:
            pairs.extend(datasets.extract_halter_pairs(problem))
        if "value" in args.roles:
            pairs.extend(datasets.extract_value_pairs(problem, args.seed, report))
    _save(datasets.save_training_pairs, pairs, args.out)
    print(
        f"wrote {len(pairs)} pairs to {args.out} "
        f"(corruption impossible: {report.corruption_impossible}, "
        f"collisions: {report.collisions})"
    )
    return 0


def _count(text: str) -> int:
    """`--count`: problems per depth, zero or more."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a count of zero or more")
    return count


def _depths(text: str) -> list[int]:
    """`--depths`: proof depths the generator makes, comma-separated."""
    try:
        depths = [int(d) for d in text.split(",")]
    except ValueError:
        depths = []
    if not depths or not set(depths) <= set(symbolic.DEPTHS):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of depths from {symbolic.DEPTHS}")
    return depths


def _roles(text: str) -> set[str]:
    """`--roles`: training-pair roles, comma-separated."""
    roles = set(text.split(","))
    bad = roles - {"sel", "inf", "halt", "value"}
    if bad:
        raise argparse.ArgumentTypeError(f"unknown roles: {sorted(bad)}")
    return roles


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sireason",
        description="Faithful step-by-step reasoning over rule/fact contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve problems and print traces")
    p.add_argument("--problems", required=True)
    _add_solver_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="batch evaluation with the metric suite")
    p.add_argument("--problems", required=True)
    p.add_argument("--report", choices=["json", "text"], default="text")
    _add_solver_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", help="faithfulness probes")
    p.add_argument("--kind", choices=["random", "incomplete"], required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--report", choices=["json", "text"], default="text")
    _add_solver_args(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("validate", help="lint gold proofs in a problem file")
    p.add_argument("--problems", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-problems", help="generate seeded problems")
    p.add_argument("--count", type=_count, default=100, help="problems per depth")
    p.add_argument("--depths", type=_depths, default="1,2,3,5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_problems)

    p = sub.add_parser("extract-training", help="extract training pairs")
    p.add_argument("--problems", required=True)
    p.add_argument("--roles", type=_roles, default="sel,inf,halt,value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract_training)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so a reader that is gone is met inside the `try`.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (`sireason solve ... | head -1`): exit
        # 1 quietly.  Stdout now writes to the null device, so the
        # interpreter's last flush of it does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
