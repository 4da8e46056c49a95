"""Solver runs over the remote backend: one `pipe:` server per run, reset
before each problem, closed when the run ends, an HTTP endpoint answers as
the `pipe:` server does, and each fault of `faults.py`, such as a server
that dies mid-run, costs counted failures rather than a hang."""

import http.server
import signal
import threading
import time
from pathlib import Path

import faults
import pytest

from sireason import engine, evalcli, models
from sireason.core import render_trace

FIXTURES = Path(__file__).parent / "fixtures"

BEAM = dict(beam_width=4, proposals_per_trace=4)


def _fault_server(fault: str, tmp_path) -> str:
    """The `pipe:` endpoint of a fault server; its starts are counted in
    `tmp_path`."""
    return "pipe:" + " ".join(faults.argv(fault, tmp_path / "starts"))


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


def test_server_dying_mid_run_costs_counted_failures(
    pw_problems, tmp_path, monkeypatch, pipe_spawns
):
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
            backend="remote", endpoint=_fault_server("exit:20,0", tmp_path), **BEAM
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
    # The second server dies on its first request, so it is not replaced:
    # every later request fails at once, with no further spawn.
    assert len(pipe_spawns) == 2


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


class _ServeOverHttp(http.server.BaseHTTPRequestHandler):
    """Answers each POSTed document as the fault server answers a line."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        reply = faults.answer(self.server.fault, self.server.backend, body)
        if reply is None:
            self.close_connection = True
            return
        whole = reply.endswith(b"\n")
        if reply:
            self.send_response(200)
            # A reply cut short promises one byte more than it sends.
            self.send_header("Content-Length", str(len(reply) + (0 if whole else 1)))
            self.end_headers()
            self.wfile.write(reply)
        if whole:
            return
        if self.server.fault == "cut-off":
            self.close_connection = True
        else:
            self.server.closing.wait(faults.SILENCE_S)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server(monkeypatch):
    """Starts a loopback fault server for `HttpTransport` and gives its URL."""
    monkeypatch.setenv("no_proxy", "*")
    servers = []

    def start(fault="none"):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ServeOverHttp)
        server.fault, server.backend = fault, models.OracleBackend()
        server.closing = threading.Event()
        # A short poll interval keeps `shutdown()` from waiting half a second.
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/"

    yield start
    for server in servers:
        server.closing.set()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("search", [[], ["--beam", "4", "--proposals", "4"]],
                         ids=["greedy", "beam"])
def test_http_endpoint_reports_what_pipe_reports(http_server, search, capsys):
    reports = []
    for endpoint in (http_server(), "pipe:"):
        code = evalcli.main(
            ["eval", "--report", "json", "--problems", str(FIXTURES / "golden_pw.jsonl"),
             "--backend", "remote", "--endpoint", endpoint] + search
        )
        assert code == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# The fault matrix: each fault of `faults.py` over each transport it applies to.
# ---------------------------------------------------------------------------

PIPE, HTTP = "pipe", "http"


def _row(fault, transport, note, spawns=None, ends=None, retries=2):
    if spawns is None:
        spawns = 1 if transport == PIPE else 0
    return pytest.param(fault, transport, note, spawns, ends, retries,
                        id=f"{fault}-{transport}" + ("-no-retries" if retries == 0 else ""))


# Fault, transport, the text each backend failure's note carries (None:
# nothing fails), the servers started (by default one over a pipe, none
# over HTTP), how the last one ended (None: not checked), and RETRIES.
FAULT_TABLE = [
    *(_row(fault, PIPE, "bad response document", ends=0) for fault in faults.MISTYPED),
    *(_row(fault, HTTP, "bad response document") for fault in faults.MISTYPED),
    _row("silent", PIPE, "no reply within 0.5 s before its first answer", ends=-signal.SIGKILL),
    _row("silent", HTTP, "timed out"),
    _row("partial-line", PIPE, "no reply within 0.5 s before its first answer",
         ends=-signal.SIGKILL),
    _row("partial-line", HTTP, "timed out"),
    _row("cut-off", PIPE, "server closed the stream before its first answer"),
    _row("cut-off", HTTP, "IncompleteRead"),
    # A server that stops replying after its first answer is replaced.
    _row("silent:1", PIPE, "no reply within 0.5 s", spawns=2, ends=-signal.SIGKILL, retries=0),
    # A server that never answers is not started again.
    _row("exit", PIPE, "server closed the stream before its first answer"),
    _row("exit", HTTP, "closed connection without response"),
    # Each server answers once and dies: each retry starts the next one,
    # until the transport gives up.
    _row("exit:1", PIPE, f"restarted {models.RESPAWN_LIMIT} times already",
         spawns=1 + models.RESPAWN_LIMIT),
    _row("exit:1", PIPE, "server closed the stream", spawns=2, retries=0),
    _row("reset-echo", PIPE, "did not acknowledge the reset", ends=0),
    _row("reset-echo", HTTP, "did not acknowledge the reset"),
    # `close()` reads the stray bytes away, so the server exits by itself.
    _row("stray-bytes", PIPE, None, ends=0),
    _row("ignore-eof", PIPE, None, ends=-signal.SIGKILL),
]


@pytest.mark.parametrize("fault, transport, note, spawns, ends, retries", FAULT_TABLE)
def test_a_fault_costs_counted_failures_and_no_hang(
    fault, transport, note, spawns, ends, retries,
    pw_problems, tmp_path, monkeypatch, pipe_spawns, http_server,
):
    """Two problems solved and the server closed, with the deadlines cut
    short: every failure is a typed note in `SolveStats.notes`, nothing
    hangs, at most 1 + RESPAWN_LIMIT servers start, and `pipe_spawns`
    checks that each of them is reaped.  A pipe server's first reply waits
    for its start, hence the longer deadline."""
    monkeypatch.setattr(models, "REPLY_WAIT_S", 0.5 if transport == PIPE else 0.1)
    monkeypatch.setattr(models, "CLOSE_WAIT_S", 0.2)
    monkeypatch.setattr(models, "RETRIES", retries)
    endpoint = _fault_server(fault, tmp_path) if transport == PIPE else http_server(fault)
    problems = [pw_problems[6], pw_problems[7]]
    stats = engine.SolveStats()
    start = time.monotonic()
    solve = evalcli.make_solver(
        evalcli.SolverConfig(backend="remote", endpoint=endpoint,
                             beam_width=2, proposals_per_trace=2), stats)
    answers = [solve(problem)[0] for problem in problems]
    del solve  # closes the transport
    assert time.monotonic() - start < 5
    if note is None:
        assert stats.notes == []
        assert answers == [problem.gold_answer for problem in problems]
    else:
        assert stats.notes and all(note in n for n in stats.notes), stats.notes
    assert len(pipe_spawns) == spawns <= 1 + models.RESPAWN_LIMIT
    if ends is not None:
        assert pipe_spawns[-1].returncode == ends
