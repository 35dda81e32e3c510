"""Golden gate: canonical CLI output, byte for byte, on every catalog entry.

Each case runs ``leibcx.cli.main`` in process and compares stdout and the
exit code with the files under tests/golden/.  Every command runs with
``--format json`` on every entry; on sl2 and B1 it also runs with
``--format text``, so the text printer has a byte check too.  Two more
files, under golden/dense/, hold homology of a dense change of basis of
sl2 (tests/data/sl2_conj0.json) to degrees 7 and 8, ranked by exact
elimination alone.  The files under golden/loday/ hold ``homology --loday``
past the degree 4 of the per-entry cases, one degree per entry, named
NAME_max-degree_N.
Refactors of the internals must leave every case unchanged.

Record the files again (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

NAMES = ("abelian1", "abelian2", "abelian3", "abelian4", "L2", "N3", "sl2",
         "heis3", "doubleL2", "B1")

COMMANDS = (
    ("validate",),
    ("liezation",),
    ("homology", "--loday"),
    ("cohomology",),
    ("omega0",),
    ("double",),
    ("dr", "--max-degree", "3"),
    ("check", "--suite", "subcomplex"),
    ("check", "--suite", "anticyclic"),
    ("check", "--suite", "complex"),
    ("check", "--suite", "dual"),
    ("cohomology", "--max-degree", "5"),
    ("check", "--suite", "subcomplex", "--max-degree", "5"),
)


def _slug(cmd):
    return "_".join(part.lstrip("-") for part in cmd)


TEXT_NAMES = ("sl2", "B1")


# (test id, golden file key, argv)
CASES = [(f"{name}-{_slug(cmd)}", f"{name}/{_slug(cmd)}",
          [cmd[0], f"catalog:{name}", *cmd[1:], "--format", "json"])
         for name in NAMES for cmd in COMMANDS]
CASES.append(("catalog", "catalog", ["catalog", "--format", "json"]))
CASES += [(f"{name}-{_slug(cmd)}-text", f"{name}/text/{_slug(cmd)}",
           [cmd[0], f"catalog:{name}", *cmd[1:], "--format", "text"])
          for name in TEXT_NAMES for cmd in COMMANDS]


def _run(argv):
    from leibcx.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,argv", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_golden_output(key, argv):
    with open(os.path.join(GOLDEN, key + ".out"), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    text, code = _run(argv)
    assert code == _exit_codes()[key], key
    assert text == want, key


# (entry, degree) of the deeper homology --loday cases
LODAY = (("doubleL2", 6), ("sl2", 7), ("heis3", 6), ("N3", 7), ("L2", 9))
LODAY_CASES = [(f"loday/{name}_max-degree_{n}",
                ["homology", f"catalog:{name}", "--max-degree", str(n),
                 "--loday", "--format", "json"]) for name, n in LODAY]


@pytest.mark.parametrize("key,argv", LODAY_CASES,
                         ids=[key for key, _ in LODAY_CASES])
def test_deeper_loday_output(key, argv):
    with open(os.path.join(GOLDEN, key + ".out"), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    assert _run(argv) == (want, 0), key


def test_dense_change_of_basis_matches_catalog():
    # sl2 in a +-5 L U basis (perfbench/bench_gen.py, seed 6): dense,
    # large structure constants, the same homology as the catalog basis;
    # degree 7 adds the dense 124 x 312 boundary
    path = os.path.join(HERE, "data", "sl2_conj0.json")
    for degree in ("6", "7"):
        conj = _run(["homology", path, "--max-degree", degree,
                     "--format", "json"])
        assert conj == _run(["homology", "catalog:sl2", "--max-degree",
                             degree, "--format", "json"]), degree
        assert conj[1] == 0


# homology of the sl2 conjugate to degrees 7 and 8, recorded with every
# rank taken by exact elimination (_exact_ranks_only), so the reference for
# the dense path does not come from the modular certificate it checks
DENSE_CASES = [(f"dense/sl2_conj0_homology_max-degree_{n}",
                ["homology", os.path.join(HERE, "data", "sl2_conj0.json"),
                 "--max-degree", str(n), "--format", "json"])
               for n in (7, 8)]


def test_dense_change_of_basis_matches_exact_reference():
    for key, argv in DENSE_CASES:
        with open(os.path.join(GOLDEN, key + ".out"), encoding="utf-8",
                  newline="") as fh:
            want = fh.read()
        assert _run(argv) == (want, 0), key


@contextlib.contextmanager
def _exact_ranks_only():
    # a modular rank of -1 never meets the bound, so rank() falls back
    # to exact elimination on every column
    from leibcx import exactla
    saved = exactla._rank_mod_prime
    exactla._rank_mod_prime = lambda *args, **kwargs: -1
    try:
        yield
    finally:
        exactla._rank_mod_prime = saved


def record():
    for key, argv in DENSE_CASES:
        with _exact_ranks_only():
            text, code = _run(argv)
        assert code == 0, key
        os.makedirs(os.path.dirname(os.path.join(GOLDEN, key)), exist_ok=True)
        with open(os.path.join(GOLDEN, key + ".out"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    for key, argv in LODAY_CASES:
        text, code = _run(argv)
        assert code == 0, key
        os.makedirs(os.path.dirname(os.path.join(GOLDEN, key)), exist_ok=True)
        with open(os.path.join(GOLDEN, key + ".out"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    codes = {}
    for _, key, argv in CASES:
        text, code = _run(argv)
        os.makedirs(os.path.dirname(os.path.join(GOLDEN, key)), exist_ok=True)
        with open(os.path.join(GOLDEN, key + ".out"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        codes[key] = code
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w",
              encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(codes)} cases under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
