"""Faithful step-by-step reasoning over rule/fact contexts.

Submodules:
  core      trace objects, labels, normalization, structural checks,
            problems, and the shared period and selection-order rules
  cnl       the controlled-language parser and renderer
  symbolic  forward chaining, proof extraction, problem generation
  models    generator roles, each role's prompt and reply codec, and the
            three backends, each of which answers every role
  engine    the one select/infer/halt loop, value-guided beam search: it
            sends every role's request to one backend and imports no reasoner
  datasets  problem files and training-pair extraction
  evalcli   metrics, probes, batch evaluation, command line

The exports below, and the submodules, load lazily, on first use: the
standalone server, `python -m sireason.models`, which a `pipe:CMD` endpoint
can run, loads only `core`, `cnl`, `symbolic` and `models`.  A bare `pipe:`
server is forked from the client and imports nothing.
"""

import importlib

__version__ = "0.1.0"

# Each export by the submodule that defines it.
_EXPORTS = {
    "Answer": "core",
    "LabeledContext": "core",
    "Problem": "core",
    "ReasoningStep": "core",
    "ReasoningTrace": "core",
    "Statement": "core",
    "is_connected": "core",
    "normalize_key": "core",
    "normalize_statement": "core",
    "parse_trace_text": "core",
    "render_trace": "core",
    "TrainingPair": "datasets",
    "load_problems": "datasets",
    "save_problems": "datasets",
    "BeamConfig": "engine",
    "beam_search": "engine",
    "si_answer": "engine",
    "CompletionRequest": "models",
    "CompletionResponse": "models",
    "GeneratorRole": "models",
    "OracleBackend": "models",
    "ScriptedBackend": "models",
    "oracle_backend": "models",
    "remote_backend": "models",
    "trace_faults": "symbolic",
}
_SUBMODULES = ("core", "cnl", "symbolic", "models", "engine", "datasets", "evalcli")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Looked up afresh on each access, so a name patched in its submodule
    # reads the same here.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
