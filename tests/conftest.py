import os
import pathlib

import pytest

from sireason import datasets

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# `pytest` puts src/ on this process's path (pyproject.toml); the processes
# the tests start find the package there too.
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
    """Every server started while the test runs, forked or run as a
    command, in start order.  A test that leaves one of them unreaped fails
    at teardown."""
    import subprocess

    from sireason import models

    procs = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                procs.append(self)

        return Recording

    monkeypatch.setattr(subprocess, "Popen", recording(subprocess.Popen))
    monkeypatch.setattr(models, "_ForkedServer", recording(models._ForkedServer))
    yield procs
    leaked = [p for p in procs if p.returncode is None]
    for p in leaked:
        p.kill()
        p.wait()
    if leaked:
        pytest.fail(f"processes left unreaped: {[p.args for p in leaked]}")
