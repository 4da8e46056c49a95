"""Solver runs over the remote backend: one `pipe:` server per run, reset
before each problem, closed when the run ends, a server that dies mid-run
costs counted failures rather than a hang, and an HTTP endpoint answers as
the `pipe:` server does."""

import http.server
import io
import sys
import threading
from pathlib import Path

import pytest

from sireason import engine, evalcli, models
from sireason.core import render_trace

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(models.__file__).resolve().parents[1]

BEAM = dict(beam_width=4, proposals_per_trace=4)


def test_repeated_problems_solve_alike_over_one_server(pw_problems, pipe_spawns):
    """Without the reset before each problem, the oracle's proposal cursors
    carry over and the second solve of a problem diverges."""
    remote = evalcli.make_solver(
        evalcli.SolverConfig(backend="remote", endpoint="pipe:", **BEAM)
    )
    local = evalcli.make_solver(evalcli.SolverConfig(backend="oracle", **BEAM))
    for problem in pw_problems:
        first = remote(problem)
        second = remote(problem)
        expected = local(problem)
        for answer, trace in (first, second):
            assert answer == expected[0], problem.id
            assert render_trace(trace) == render_trace(expected[1]), problem.id
    assert len(pipe_spawns) == 1
    del remote
    assert pipe_spawns[0].returncode is not None


# Answers ANSWERED requests if it is the first server started, then exits;
# every later server exits at once, like a server that cannot come back.
DYING_SERVER = """import itertools, sys
with open({log!r}, "a+") as fh:
    fh.write("spawn\\n")
    fh.seek(0)
    first = len(fh.readlines()) == 1
if first:
    sys.path.insert(0, {src!r})
    from sireason import models
    models.serve(models.oracle_backend(),
                 itertools.islice(sys.stdin.buffer, {answered}),
                 sys.stdout.buffer)
"""


def test_server_dying_mid_run_costs_counted_failures(
    pw_problems, tmp_path, monkeypatch, pipe_spawns
):
    log = tmp_path / "spawns.log"
    script = tmp_path / "dying_server.py"
    script.write_text(
        DYING_SERVER.format(log=str(log), src=str(SRC), answered=20), encoding="utf-8"
    )
    captured = {}
    make_solver = evalcli.make_solver

    def capturing(cfg, stats=None):
        captured["stats"] = stats
        return make_solver(cfg, stats)

    monkeypatch.setattr(evalcli, "make_solver", capturing)
    # 8, 8, 18 and 22 round trips each, resets included.
    problems = [pw_problems[i] for i in (6, 7, 9, 4)]
    report = evalcli.evaluate(
        problems,
        evalcli.SolverConfig(
            backend="remote", endpoint=f"pipe:{sys.executable} {script}", **BEAM
        ),
    )
    stats: engine.SolveStats = captured["stats"]
    # Backend failures reach the report, so `eval` exits 1 on such a run.
    assert report.failures == stats.notes
    assert report.overall.count == len(problems)
    failed = {note.split(": ", 1)[0] for note in stats.notes}
    assert stats.backend_failures == len(stats.notes) > 0
    # The first two problems fit in the first server's 20 answers.
    assert failed == {problems[2].id, problems[3].id}
    assert report.overall.correct >= 2
    # The second server exits before its first answer, so it is not
    # replaced: every later request fails at once, with no further spawn.
    assert len(pipe_spawns) == 2
    assert all(p.returncode is not None for p in pipe_spawns)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--report", "json"],
        ["solve"],
        ["probe", "--kind", "random"],
    ],
)
def test_cli_runs_start_one_server_and_close_it(argv, pipe_spawns, capsys):
    code = evalcli.main(
        argv + ["--problems", str(FIXTURES / "golden_pw.jsonl"),
                "--backend", "remote", "--endpoint", "pipe:"]
    )
    capsys.readouterr()
    assert code == 0
    assert len(pipe_spawns) == 1
    assert pipe_spawns[0].returncode is not None


class _ServeOverHttp(http.server.BaseHTTPRequestHandler):
    """Answers each POSTed document as `models.serve` answers a line."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        out = io.BytesIO()
        models.serve(self.server.backend, io.BytesIO(body), out)
        reply = out.getvalue()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint(monkeypatch):
    """An oracle server on a loopback port, for `HttpTransport`."""
    monkeypatch.setenv("no_proxy", "*")
    server = http.server.HTTPServer(("127.0.0.1", 0), _ServeOverHttp)
    server.backend = models.oracle_backend()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.mark.parametrize("search", [[], ["--beam", "4", "--proposals", "4"]],
                         ids=["greedy", "beam"])
def test_http_endpoint_reports_what_pipe_reports(http_endpoint, search, capsys):
    reports = []
    for endpoint in (http_endpoint, "pipe:"):
        code = evalcli.main(
            ["eval", "--report", "json", "--problems", str(FIXTURES / "golden_pw.jsonl"),
             "--backend", "remote", "--endpoint", endpoint] + search
        )
        assert code == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
