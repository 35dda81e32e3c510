"""The process contract of ``python -m leibcx.cli``, which ends in cli.run.

run() ends a finished job with os._exit, past the interpreter's teardown.
Each child here is a fresh process on one key of test_golden.CASES: its
stdout must be the golden bytes, its exit code that of exit_codes.json,
and its stderr what main() prints in process.  A child whose stdout is a
closed pipe must exit as before run() existed, and an unbuffered one
with the same code and no traceback.  Every child starts at once, so the
seven cold starts share the host's cores.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from leibcx.cli import main
from test_golden import CASES, EXIT_CODES, _path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# exit codes 0, 1 and 2, in json and text
KEYS = ("sl2/homology_loday", "sl2/text/validate", "B1/validate",
        "B1/text/validate", "B1/homology_loday")
# recorded before run() existed (CPython 3.11): the write to a pipe with
# no reader fails at the interpreter's last flush, which reports it
CLOSED_PIPE_CODE = 120
CLOSED_PIPE_ERR = ("Exception ignored in: <_io.TextIOWrapper name='<stdout>'"
                   " mode='w' encoding='utf-8'>\n"
                   "BrokenPipeError: [Errno 32] Broken pipe\n")


def _start(argv, stdout, unbuffered=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    # a buffered stdout, so the output reaches the pipe only if run()
    # flushes it; an unbuffered one writes while main() runs
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "leibcx.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    output = tmp_path_factory.mktemp("run") / "out.json"
    argvs = {key: CASES[key] for key in KEYS}
    argvs[KEYS[0]] = [*CASES[KEYS[0]], "-o", str(output)]
    procs = {key: _start(argv, subprocess.PIPE)
             for key, argv in argvs.items()}
    read, write = os.pipe()
    os.close(read)
    closed = ["validate", "catalog:abelian1", "--format", "json"]
    procs["closed"] = _start(closed, write)
    procs["closed_unbuffered"] = _start(closed, write, unbuffered=True)
    os.close(write)
    results = {}
    for key, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        results[key] = proc.returncode, out, err.decode()
    return results, output


def test_each_process_exits_as_main_returns(children):
    results, output = children
    with open(EXIT_CODES, encoding="utf-8") as fh:
        recorded = json.load(fh)
    codes = {key: recorded.get(key, 0) for key in KEYS}
    assert set(codes.values()) == {0, 1, 2}
    for key in KEYS:
        code, out, err = results[key]
        with open(_path(key), "rb") as fh:
            assert out == fh.read(), key
        want_err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(want_err):
            assert main(CASES[key]) == codes[key] == code, key
        assert err == want_err.getvalue(), key
    assert output.read_bytes() == results[KEYS[0]][1]


def test_a_closed_stdout_takes_the_normal_exit(children):
    code, _, err = children[0]["closed"]
    assert (code, err) == (CLOSED_PIPE_CODE, CLOSED_PIPE_ERR)
    # unbuffered, the write fails inside main(), where the exception
    # would exit 1, the code of a failed check; run() returns 120 instead
    code, _, err = children[0]["closed_unbuffered"]
    assert (code, err) == (CLOSED_PIPE_CODE, "")
