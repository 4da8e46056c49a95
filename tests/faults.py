"""The fault server of the remote path's tests.

    python faults.py FAULT STARTS

is a `pipe:` server, and `answer` gives the reply the loopback HTTP server
in `test_remote_runs.py` sends.  Both serve the oracle through
`models.serve`, except for the one FAULT they inject:

    text-int, text-list, logprobs-list, nan, infinity, minus-infinity, bool,
    string    a mistyped reply (`MISTYPED`) to each request of one role
    silent        no reply
    partial-line  half a reply line, then silence
    cut-off       half a reply line, then the end
    exit          ends without a reply (over HTTP: closes the connection)
    reset-echo    a wrong answer to the reset document
    stray-bytes   200 kB more once its input ends, then exits
    ignore-eof    goes on running once its input ends
    none          no fault

`FAULT:N,M,...` lets the k-th server started answer the k-th count of lines
faithfully before the fault (the last count repeats), so `exit:1` answers one
line and dies on the next, and `exit:20,0` answers 20 lines, while every
later server dies on its first.  The pipe server counts its starts in the
file STARTS.
"""

import io
import json
import os
import sys
import time

from sireason import models

MISTYPED = {
    "text-int": ("selection", b'{"text": 5, "continuation_logprobs": null}'),
    "text-list": ("inference", b'{"text": ["a"], "continuation_logprobs": null}'),
    "logprobs-list": ("value", b'{"text": "", "continuation_logprobs": [0.0]}'),
    "nan": ("value", b'{"text": "", "continuation_logprobs": '
                     b'{" correct": NaN, " incorrect": 0.0}}'),
    "infinity": ("value", b'{"text": "", "continuation_logprobs": '
                          b'{" correct": Infinity, " incorrect": 0.0}}'),
    "minus-infinity": ("value", b'{"text": "", "continuation_logprobs": '
                                b'{" correct": -Infinity, " incorrect": 0.0}}'),
    "bool": ("value", b'{"text": "", "continuation_logprobs": '
                      b'{" correct": true, " incorrect": 0.0}}'),
    "string": ("value", b'{"text": "", "continuation_logprobs": '
                        b'{" correct": "0", " incorrect": 0.0}}'),
}


# How long a silent server waits: past any deadline a test sets, and short
# enough that a transport which never gives up fails its test soon.
SILENCE_S = 10


def argv(fault: str, starts) -> list:
    """The command of a `pipe:` fault server that counts its starts in the
    file `starts`."""
    return [sys.executable, "-S", __file__, fault, str(starts)]


def answer(fault: str, backend, line: bytes):
    """The bytes written in reply to `line`, None if the server ends instead.
    A reply that does not end its line is followed by silence, or by the end
    for `cut-off`."""
    if fault == "exit":
        return None
    if fault == "silent":
        return b""
    if fault in ("partial-line", "cut-off"):
        return b'{"text": '
    if fault == "reset-echo" and line == models.RESET_DOCUMENT:
        return b'{"reset": false}\n'
    if fault in MISTYPED and json.loads(line).get("role") == MISTYPED[fault][0]:
        return MISTYPED[fault][1] + b"\n"
    out = io.BytesIO()
    models.serve(backend, [line], out)
    return out.getvalue()


def main(fault: str, starts: str) -> None:
    fault, _, counts = fault.partition(":")
    with open(starts, "a+") as fh:
        fh.write("start\n")
        fh.seek(0)
        start = len(fh.readlines())
    faithful = [int(c) for c in counts.split(",")] if counts else [0]
    faithful = faithful[min(start, len(faithful)) - 1]
    backend = models.OracleBackend()
    out = sys.stdout.buffer
    for n, line in enumerate(sys.stdin.buffer):
        reply = answer(fault if n >= faithful else "none", backend, line)
        if reply is None:
            return
        out.write(reply)
        out.flush()
        if not reply.endswith(b"\n"):
            if fault == "cut-off":
                return
            time.sleep(SILENCE_S)
    if fault == "stray-bytes":
        out.write(b"stray" * 40000)
    elif fault == "ignore-eof":
        time.sleep(SILENCE_S)


if __name__ == "__main__":
    main(*sys.argv[1:])
    sys.stdout.flush()
    os._exit(0)
