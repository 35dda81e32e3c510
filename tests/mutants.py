"""Seeded mutants: each source change below must fail the tests it lists.

A mutant is (file, old, new, tests): the text old, which must occur
exactly once in file, is replaced by new in a temporary copy of the
checkout, and only the listed tests run there, with -x, on the copy's
src.  The whole checkout is copied, not src alone, because
test_process_exit starts children on the checkout's own src.  Tier-1
does not collect this module (not test_*.py).  Run it from anywhere:

    python tests/mutants.py

The listed tests first run once on the unmutated copy and must pass.
It exits 0 when every mutant is killed (its tests fail) and 1 when one
survives, when its old text does not match exactly once, or when pytest
ends in anything but failed tests (a collection error, no tests run).
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = (
    # the del o del = 0 bound of a block forgets the rank one degree down
    ("src/leibcx/complexes.py",
     "bounds = {w: sizes[w] - below.get(w, 0) for w in block}",
     "bounds = {w: sizes[w] for w in block}",
     ["tests/test_chains.py"]),
    # a bound of 0 pulls a column before the modular pass can stop
    ("src/leibcx/exactla.py",
     "    if stop == 0:\n        return 0\n",
     "",
     ["tests/test_chains.py", "tests/test_linalg.py"]),
    # the identity sweeps skip the ordered tuples when antisymmetry fails
    ("src/leibcx/battery.py",
     'if skew["passed"] and not any(fails(*t) for t in tuples(False)):',
     "if not any(fails(*t) for t in tuples(False)):",
     ["tests/test_dgla_battery.py"]),
    # os._exit ends the process before a buffered stdout is written
    ("src/leibcx/cli.py",
     "        sys.stdout.flush()\n        sys.stderr.flush()\n",
     "        sys.stderr.flush()\n",
     ["tests/test_process_exit.py"]),
    # the back-substitution forgets the divisor of each row's record
    ("src/leibcx/exactla.py",
     "            c /= div\n",
     "",
     ["tests/test_linalg.py"]),
    # the column builder adds the prefixed tail boundary (a,) + del(b)
    # where the Cartan homotopy subtracts it
    ("src/leibcx/complexes.py",
     "out = {(a,) + w: -c for w, c in out.items()}",
     "out = {(a,) + w: c for w, c in out.items()}",
     ["tests/test_chains.py"]),
    # the modular pass keeps a residue unreduced mod p, so entries that
    # are nonzero multiples of p stay and count
    ("src/leibcx/exactla.py",
     "        res = {i: c % p for i, c in res.items() if c % p}\n",
     "",
     ["tests/test_linalg.py"]),
    # the shifted homology forgets the rank of the boundary leaving it
    ("src/leibcx/complexes.py",
     " - ranks.get(n + 1, 0) - ranks.get(n + 2, 0)",
     " - ranks.get(n + 1, 0)",
     ["tests/test_chains.py"]),
    # cohomology relabels the coboundary ranks one degree down
    ("src/leibcx/complexes.py",
     '"coboundary_ranks": {n: ho["ranks"][n + 2] for n in degrees}',
     '"coboundary_ranks": {n: ho["ranks"].get(n + 1, 0) for n in degrees}',
     ["tests/test_cochains.py"]),
)

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               "_work")


def _pytest(copy, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run_mutant(copy, file, old, new, tests):
    """'killed', 'survived', 'stale' or 'pytest exit N' for one mutant."""
    path = os.path.join(copy, file)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(old) != 1:
        return "stale"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(old, new))
    try:
        code = _pytest(copy, tests)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        # a test that fails unmutated would kill every mutant that lists it
        code = _pytest(copy, sorted({t for m in MUTANTS for t in m[3]}))
        if code:
            print(f"the listed tests fail unmutated (pytest exit {code})")
            return 1
        for n, (file, old, new, tests) in enumerate(MUTANTS, 1):
            verdict = run_mutant(copy, file, old, new, tests)
            print(f"mutant {n} ({file}): {verdict}", flush=True)
            failed |= verdict != "killed"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
