"""Every narrative demo runs and prints its recorded output, byte for byte.

Each demos/NN_name.py runs in a subprocess; its stdout must equal
tests/golden/demos/NN_name.out and it must exit 0.  Refactors of the
internals must leave every demo output unchanged.

Record the files again (only when an output change is intended) with

    python tests/test_demos.py
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")


def _golden_path(path):
    return os.path.join(GOLDEN,
                        os.path.splitext(os.path.basename(path))[0] + ".out")


def _run(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = _run(path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(_golden_path(path), encoding="utf-8", newline="") as fh:
        assert proc.stdout == fh.read()


def record():
    os.makedirs(GOLDEN, exist_ok=True)
    for path in DEMOS:
        proc = _run(path)
        if proc.returncode:
            sys.exit(f"{os.path.basename(path)} exited {proc.returncode}:\n"
                     f"{proc.stderr[-2000:]}")
        with open(_golden_path(path), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(proc.stdout)
    print(f"recorded {len(DEMOS)} demo outputs under {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    record()
