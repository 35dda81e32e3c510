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
     "res = {i: c % p for i, c in res.items() if c % p} if p else",
     "res = {i: c for i, c in res.items() if c} if p else",
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
    # the sorted Jacobi pass drops the triples of two degree-0 elements
    # and a letter, the only ones on which the ShiftedAction and SkewGl
    # saboteurs fail Jacobi
    ("src/leibcx/battery.py",
     "ordered or parity[i] or (parity[j] or parity[k]) <= 1))",
     "ordered or parity[i] or parity[j] == 1 or not parity[k]))",
     ["tests/test_dgla_battery.py"]),
    # the anti-cyclic comparison loses the class of distinct letters
    ("src/leibcx/cochains.py",
     "    k = min(m, arity)\n",
     "    k = min(m, arity - 1)\n",
     ["tests/test_cochains.py"]),
    # the projector certificate checks the word of one repeated letter,
    # which no substitution carries to the other words
    ("src/leibcx/words.py",
     "        w = tuple(range(1, n + 1))\n",
     "        w = (1,) * n\n",
     ["tests/test_words.py"]),
    # a wrong toral weight: every diagonal entry counted positive, so the
    # weight is no grading and the skip drops blocks that carry homology
    ("src/leibcx/complexes.py",
     "_add_term(lam, b, c * x.get(a, 0))",
     "_add_term(lam, b, abs(c) * x.get(a, 0))",
     ["tests/test_chains.py"]),
    # the early stop of a rank pass fires one column late: the column
    # after the one that meets the bound is pulled too
    ("src/leibcx/exactla.py",
     "        if len(rows) == stop:\n            break\n",
     "        if len(rows) == stop:\n            next(iter(vectors), None)\n"
     "            break\n",
     ["tests/test_linalg.py", "tests/test_chains.py"]),
    # the swell test never fires, so dense blocks stay exact
    ("src/leibcx/exactla.py",
     "if stop is not None and max(map(abs, res.values())) >> _SWELL:",
     "if False:",
     ["tests/test_chains.py"]),
    # after a swell the modular pass drops the columns the exact pass
    # pulled and ranks only the rest
    ("src/leibcx/exactla.py",
     "r = _rank_pass(chain(pulled, vectors), upper, _PRIME)",
     "r = _rank_pass(vectors, upper, _PRIME)",
     ["tests/test_linalg.py", "tests/test_chains.py"]),
    # the content cap of a slice sits one below the formula; the
    # class-count certificate must refuse the slice
    ("src/leibcx/complexes.py",
     "if kept[alpha] < _content_dim(alpha) and",
     "if kept[alpha] < _content_dim(alpha) - 1 and",
     ["tests/test_chains.py"]),
    # the embedding adds its suffix half with the sign of the other
    # parity
    ("src/leibcx/words.py",
     "        sign = (-1) ** len(word)\n",
     "        sign = -(-1) ** len(word)\n",
     ["tests/test_words.py"]),
    # exactla grows past its 2,048-token compile step
    ("src/leibcx/exactla.py",
     "_SWELL = 32 ",
     "_SWELL = (" + "0, " * 200 + "32)[-1] ",
     ["tests/test_lazy_imports.py"]),
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
