import pathlib

import pytest

from sireason import datasets

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def pw_problems():
    return datasets.load_problems(FIXTURES / "golden_pw.jsonl", "pw")


@pytest.fixture(scope="session")
def pw_worst_problems():
    return datasets.load_problems(FIXTURES / "golden_pw_hard.jsonl", "pw")


@pytest.fixture(scope="session")
def eb_problems():
    return datasets.load_problems(FIXTURES / "golden_eb.jsonl", "eb")


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
