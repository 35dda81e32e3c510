"""Golden gate: canonical CLI output, byte for byte.

Each file tests/golden/KEY.out is one key of CASES (tier-1) or DEEP (CI,
through tests/deep_golden.py, which tier-1 does not collect), mapped to the
argv it records.  check() runs ``leibcx.cli.main`` in process and compares
stdout with the file and the exit code with exit_codes.json (0 where the
key is absent).  CASES runs every command with ``--format json`` on every
catalog entry and with ``--format text`` on sl2 and B1, homology --loday
past degree 4 (loday/), and homology of a dense change of basis of sl2 to
degrees 7 and 8 (dense/), recorded with exact ranks only, so the reference
for the dense path does not come from the modular certificate it checks,
double --cocycle on the cochain files of tests/data (cocycle/), and
homology and the subcomplex suite on the 6-dimensional doubles of sl2 and
heis3 (double/), the first cases that solve coordinates over six letters.
DEEP runs past the degrees tier-1 reaches.  Refactors of the internals must
leave every case unchanged.  Record every file again (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import glob
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
SL2_CONJ = os.path.join(HERE, "data", "sl2_conj0.json")
# from_implicit of a unit vector, which reads only the dimension: a
# trivial class on L2 (dim2_unit0), not closed on L2 (dim2_unit1, exit 1),
# non-trivial classes on abelian2 and heis3, and a mismatch (exit 2)
COCYCLES = (("L2", "dim2_unit0"), ("L2", "dim2_unit1"),
            ("abelian2", "dim2_unit0"), ("heis3", "dim3_unit1"),
            ("heis3", "dim2_unit0"))

# tests/data/double_NAME.json: the -o payload of double catalog:NAME
DOUBLES = ("sl2", "heis3")

NAMES = ("abelian1", "abelian2", "abelian3", "abelian4", "L2", "N3", "sl2",
         "heis3", "doubleL2", "B1")
TEXT_NAMES = ("sl2", "B1")

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
    ("check", "--suite", "all"),
)


def _argv(cmd, source, fmt="json"):
    return [cmd[0], source, *cmd[1:], "--format", fmt]


def _slug(cmd):
    return "_".join(part.lstrip("-") for part in cmd)


def _homology(source, n, *flags):
    return ["homology", source, "--max-degree", str(n), *flags,
            "--format", "json"]


def _doubles(prefix, commands):
    return {f"{prefix}/{name}_{_slug(cmd)}":
            _argv(cmd, os.path.join(HERE, "data", f"double_{name}.json"))
            for name in DOUBLES for cmd in commands}


# the per-entry cases and the catalog; exit_codes.json lists each code
ENTRY = {f"{name}/{_slug(cmd)}": _argv(cmd, f"catalog:{name}")
         for name in NAMES for cmd in COMMANDS}
ENTRY["catalog"] = ["catalog", "--format", "json"]
ENTRY.update({f"{name}/text/{_slug(cmd)}": _argv(cmd, f"catalog:{name}",
                                                  "text")
              for name in TEXT_NAMES for cmd in COMMANDS})

CASES = {
    **ENTRY,
    **{f"loday/{name}_max-degree_{n}": _homology(f"catalog:{name}", n,
                                                 "--loday")
       for name, n in (("doubleL2", 6), ("sl2", 7), ("heis3", 6), ("N3", 7),
                       ("L2", 9))},
    **{f"dense/sl2_conj0_homology_max-degree_{n}": _homology(SL2_CONJ, n)
       for n in (7, 8)},
    **{f"cocycle/{name}_{unit}": [
        "double", f"catalog:{name}", "--cocycle",
        os.path.join(HERE, "data", f"cochain_{unit}.json"), "--format", "json"]
       for name, unit in COCYCLES},
    **_doubles("double", (("homology", "--max-degree", "5"),
                          ("homology", "--max-degree", "5", "--loday"),
                          ("check", "--suite", "subcomplex"))),
}

DEEP = {
    **{f"deep/{name}_dr_max-degree_5":
       _argv(("dr", "--max-degree", "5"), f"catalog:{name}")
       for name in NAMES if name != "B1"},
    **{f"deep/{name}_homology_max-degree_{n}": _homology(f"catalog:{name}", n)
       for name, n in (("doubleL2", 8), ("doubleL2", 9), ("sl2", 9),
                       ("sl2", 10), ("sl2", 11))},
    **{f"deep-loday/{name}_max-degree_{n}": _homology(f"catalog:{name}", n,
                                                      "--loday")
       for name, n in (("L2", 12), ("doubleL2", 7), ("doubleL2", 8),
                       ("heis3", 8), ("heis3", 9), ("sl2", 8), ("sl2", 9))},
    **_doubles("deep-double", (("homology", "--max-degree", "7"),
                               ("homology", "--max-degree", "6", "--loday"),
                               ("check", "--suite", "subcomplex",
                                "--max-degree", "5"),
                               ("dr", "--max-degree", "5"))),
}


def _run(argv):
    from leibcx.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


def _path(key):
    return os.path.join(GOLDEN, key + ".out")


def check(key, argv):
    with open(_path(key), encoding="utf-8", newline="") as fh:
        want = fh.read()
    with open(EXIT_CODES, encoding="utf-8") as fh:
        want_code = json.load(fh).get(key, 0)
    text, code = _run(argv)
    assert code == want_code, key
    assert text == want, key


def _entry_id(key):
    # sl2/validate -> sl2-validate, sl2/text/validate -> sl2-validate-text
    text = "/text/" in key
    return key.replace("/text/", "/").replace("/", "-") + "-text" * text


@pytest.mark.parametrize("key", ENTRY, ids=_entry_id)
def test_golden_output(key):
    check(key, CASES[key])


@pytest.mark.parametrize("key", [k for k in CASES if k.startswith("loday/")])
def test_deeper_loday_output(key):
    check(key, CASES[key])


@pytest.mark.parametrize("key", [k for k in CASES if k.startswith("cocycle/")])
def test_double_with_a_cochain_file(key):
    check(key, CASES[key])


@pytest.mark.parametrize("key", [k for k in CASES if k.startswith("double/")])
def test_six_dimensional_double(key):
    check(key, CASES[key])


def test_dense_change_of_basis_matches_exact_reference():
    for key in CASES:
        if key.startswith("dense/"):
            check(key, CASES[key])


def test_dense_change_of_basis_matches_catalog():
    # sl2 in a +-5 L U basis (perfbench/bench_gen.py, seed 6): dense,
    # large structure constants, the same homology as the catalog basis;
    # degree 7 adds the dense 124 x 312 boundary
    for degree in (6, 7):
        conj = _run(_homology(SL2_CONJ, degree))
        assert conj == _run(_homology("catalog:sl2", degree)), degree
        assert conj[1] == 0


def test_every_golden_file_is_one_key():
    files = {path[:-len(".out")].replace(os.sep, "/") for path in
             glob.glob("**/*.out", root_dir=GOLDEN, recursive=True)}
    files -= {key for key in files if key.startswith("demos/")}
    assert not CASES.keys() & DEEP.keys()
    assert files == CASES.keys() | DEEP.keys()


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
    codes = {}
    for key, argv in {**CASES, **DEEP}.items():
        with (_exact_ranks_only() if key.startswith("dense/")
              else contextlib.nullcontext()):
            text, code = _run(argv)
        os.makedirs(os.path.dirname(_path(key)), exist_ok=True)
        with open(_path(key), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if code or key in ENTRY:
            codes[key] = code
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES) + len(DEEP)} files under {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    record()
