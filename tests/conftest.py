import os
import pathlib

import pytest

from sireason import datasets

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# `pytest` puts src/ on this process's path (pyproject.toml); the processes
# the tests start find the package there too.  (The bundled `pipe:` server
# would find it without this.)
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def pw_problems():
    return datasets.load_problems(FIXTURES / "golden_pw.jsonl")


@pytest.fixture(scope="session")
def pw_worst_problems():
    return datasets.load_problems(FIXTURES / "golden_pw_hard.jsonl")


@pytest.fixture(scope="session")
def eb_problems():
    return datasets.load_problems(FIXTURES / "golden_eb.jsonl")


@pytest.fixture
def pipe_spawns(monkeypatch):
    """Every process started while the test runs, in start order."""
    import subprocess

    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return procs
