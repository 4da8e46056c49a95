"""Faithful step-by-step reasoning over rule/fact contexts.

Submodules:
  core      trace objects, labels, normalization, structural checks
  cnl       the controlled-language parser and renderer
  symbolic  forward chaining, proof extraction, problem generation
  models    generator roles, prompt templates, and the three backends,
            each of which answers every role
  engine    the one select/infer/halt loop: value-guided beam search,
            sending every role's request to one backend
  datasets  problem files and training-pair extraction
  evalcli   metrics, probes, batch evaluation, command line
"""

from .core import (
    Answer,
    LabeledContext,
    ReasoningStep,
    ReasoningTrace,
    SentenceLabel,
    Statement,
    is_connected,
    is_valid,
    normalize_key,
    normalize_statement,
    parse_trace_text,
    render_trace,
)
from .datasets import Problem, TrainingPair, load_problems, save_problems
from .engine import BeamConfig, beam_search, si_answer
from .models import (
    CompletionRequest,
    CompletionResponse,
    GeneratorRole,
    oracle_backend,
    remote_backend,
    scripted_backend,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BeamConfig",
    "CompletionRequest",
    "CompletionResponse",
    "GeneratorRole",
    "LabeledContext",
    "Problem",
    "ReasoningStep",
    "ReasoningTrace",
    "SentenceLabel",
    "Statement",
    "TrainingPair",
    "beam_search",
    "is_connected",
    "is_valid",
    "load_problems",
    "normalize_key",
    "normalize_statement",
    "oracle_backend",
    "parse_trace_text",
    "remote_backend",
    "render_trace",
    "save_problems",
    "scripted_backend",
    "si_answer",
]
