"""Command line behavior: exit codes, file IO, deterministic output."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from leibcx import cochains, complexes
from leibcx.cli import main
from leibcx.errors import InputError
from leibcx.fileio import (parse_algebra_doc, parse_cochain_doc,
                           rational_from_string, rational_to_string)
from leibcx.report import jsonable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "validate", "catalog:L2")
    assert code == 0 and "passed: true" in out
    code, out, _ = run(capsys, "validate", "catalog:B1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"][0]["triple"] == [1, 1, 1]


def test_homology_refuses_invalid(capsys):
    code, out, err = run(capsys, "homology", "catalog:B1")
    assert code == 2 and "Leibniz" in err and out == ""


def test_unknown_catalog(capsys):
    code, _, err = run(capsys, "homology", "catalog:nope")
    assert code == 2 and "unknown catalog" in err


def test_bad_max_degree(capsys):
    code, _, err = run(capsys, "homology", "catalog:L2", "--max-degree", "1")
    assert code == 2 and "max-degree" in err


def test_homology_json_frozen(capsys):
    code, out, _ = run(capsys, "homology", "catalog:L2",
                       "--max-degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"1": 2, "2": 3, "3": 2, "4": 3}
    assert doc["HA"] == {"0": 1, "1": 1, "2": 0}


def test_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "cohomology", "catalog:N3",
                         "--format", "json")
    code2, out2, _ = run(capsys, "cohomology", "catalog:N3",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_dr_builds_one_graded_algebra(capsys, monkeypatch):
    from leibcx import algebras, complexes
    graded, ideals = [], []
    init = complexes.DGLA.__init__
    symmetric_ideal = algebras.symmetric_ideal

    def counted_init(self, algebra, max_degree=4):
        graded.append(algebra)
        init(self, algebra, max_degree)

    def counted_ideal(algebra):
        ideals.append(algebra)
        return symmetric_ideal(algebra)

    monkeypatch.setattr(complexes.DGLA, "__init__", counted_init)
    monkeypatch.setattr(algebras, "symmetric_ideal", counted_ideal)
    code, _, _ = run(capsys, "dr", "catalog:L2", "--max-degree", "3",
                     "--format", "json")
    assert code == 0
    assert len(graded) == 1
    assert len(ideals) == 1


def test_double_roundtrip(tmp_path, capsys):
    path = tmp_path / "dbl.json"
    code, out, _ = run(capsys, "double", "catalog:L2", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    code, out, _ = run(capsys, "homology", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["HA"]["0"] == 2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [e["name"] for e in doc["entries"]]
    assert "L2" in names and "B1" in names
    flags = {e["name"]: e["leibniz"] for e in doc["entries"]}
    assert flags["B1"] is False and flags["sl2"] is True


def test_catalog_export(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    code, _, _ = run(capsys, "catalog", "sl2", "-o", str(path))
    assert code == 0
    alg, basis = parse_algebra_doc(json.loads(path.read_text()))
    assert alg.dim == 3 and alg.bracket(2, 3) == {1: 1}


def test_omega0_requires_lie(capsys):
    code, _, err = run(capsys, "omega0", "catalog:L2")
    assert code == 2 and "antisymmetric" in err


def test_check_suites(capsys):
    for suite in ("complex", "anticyclic", "dual"):
        code, out, _ = run(capsys, "check", "catalog:L2",
                           "--suite", suite, "--format", "json")
        assert code == 0, suite
        assert json.loads(out)["passed"] is True


def test_check_subcomplex_on_a_file_takes_the_whole_algebra(tmp_path,
                                                             capsys):
    # a file names no catalog entry, so no listed Lie subalgebras: a
    # Lie algebra checks kernel invariance on the whole algebra, and a
    # non-antisymmetric one checks none
    for name, keys in (("sl2", ["kernel_invariance_1_2_3"]), ("L2", [])):
        path = tmp_path / f"{name}.json"
        assert run(capsys, "catalog", name, "-o", str(path))[0] == 0
        code, out, _ = run(capsys, "check", str(path), "--suite",
                           "subcomplex", "--format", "json")
        checks = json.loads(out)["checks"]
        assert code == 0 and all(checks.values()), name
        assert [k for k in checks if k.startswith("kernel")] == keys, name


def test_check_rejects_invalid(capsys):
    code, _, err = run(capsys, "check", "catalog:B1")
    assert code == 2


def test_dr_command(capsys):
    code, out, _ = run(capsys, "dr", "catalog:L2", "--max-degree", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["component_dims"] == {"0": 1, "-1": 2, "-2": 3, "-3": 2}
    assert all(doc["checks"].values())


def test_double_with_cocycle(tmp_path, capsys):
    coc = tmp_path / "h.json"
    # implicit (1, 0) twist on L2 written out explicitly
    from leibcx.cochains import from_implicit
    h = from_implicit([Fraction(1), Fraction(0)], 2, 2)
    doc = {"degree": 2, "dim": 2,
           "coefficients": [[list(w), rational_to_string(c)]
                            for w, c in sorted(h.coeffs.items())]}
    coc.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "double", "catalog:L2",
                       "--cocycle", str(coc), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["twisted"] is True and rep["leibniz"] is True


def test_rational_strings():
    assert rational_from_string("3/4") == 0.75
    assert rational_from_string("-2") == -2
    assert rational_from_string(3) == 3
    assert type(rational_from_string(3)) is Fraction
    # the last two pass the pattern but exceed the digit limit of int()
    for bad in ("3/0", "3/-4", "1.5", "a", "2/4/8", "", True, False,
                "1\n", "3/4\n", "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(InputError):
            rational_from_string(bad)
    assert rational_to_string(rational_from_string("-6/4")) == "-3/2"
    assert rational_to_string(rational_from_string("8/4")) == "2"


def test_rational_with_a_trailing_newline_exits_2(tmp_path, capsys):
    # Fraction strips the newline, so only the pattern can refuse it
    algebra = tmp_path / "L2.json"
    algebra.write_text(json.dumps({"dim": 2, "brackets": [
        {"left": 1, "right": 1, "value": [[2, "1\n"]]}]}))
    code, out, err = run(capsys, "validate", str(algebra))
    assert code == 2 and out == "" and "bad rational" in err


def test_algebra_doc_validation():
    good = {"dim": 2, "brackets": [
        {"left": 1, "right": 1, "value": [[2, "1"]]}]}
    alg, _ = parse_algebra_doc(good)
    assert alg.bracket(1, 1) == {2: 1}
    bad_cases = [
        {"dim": 0, "brackets": []},
        {"dim": 2, "brackets": [{"left": 1, "right": 3, "value": []}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[2, "1"]]},
                                {"left": 1, "right": 1, "value": [[2, "1"]]}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1,
                                 "value": [[2, "1"], [2, "3"]]}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[2, "1/0"]]}]},
        {"dim": 2, "basis": ["x"], "brackets": []},
        {"dim": 2, "brackets": [{"left": 1, "right": 1,
                                 "value": [[2, True]]}]},
        # misspelt key: ignored, it would leave the abelian algebra
        {"dim": 2, "bracket": [{"left": 1, "right": 1, "value": [[2, "1"]]}]},
        # a cochain document given as an algebra
        {"degree": 2, "dim": 2, "coefficients": [[[1, 1, 2], "1/2"]]},
        # unknown key in a bracket entry
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[2, "1"]],
                                 "coeff": "1"}]},
        [],                                                # not an object
        {"dim": "2", "brackets": []},                      # dim not an int
        {"name": 2, "dim": 2},
        {"dim": 2, "brackets": {}},
        {"dim": 2, "brackets": [[1, 1, [[2, "1"]]]]},     # not an object
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": "1"}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[2]]}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1,
                                 "value": [["2", "1"]]}]},
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[3, "1"]]}]},
    ]
    for doc in bad_cases:
        with pytest.raises(InputError):
            parse_algebra_doc(doc)


def test_cochain_doc_validation():
    good = {"degree": 2, "dim": 2, "coefficients": [[[1, 1, 2], "1/2"]]}
    c = parse_cochain_doc(good)
    assert c.arity == 3 and c.coefficient((1, 1, 2)) == 0.5
    bad_cases = [
        {"dim": 2, "coefficients": [[[1, 1], "1"]]},        # wrong arity
        {"dim": 2, "coefficients": [[[1, 1, 3], "1"]]},     # out of range
        {"dim": 2, "coefficients": [[[1, 1, 2], "1"],
                                    [[1, 1, 2], "2"]]},     # duplicate
        {"degree": True, "dim": 2, "coefficients": [[[1, 1], "1"]]},
        {"dim": 2, "coefficients": [[[1, 1, 2], True]]},
        # an algebra document given as a cochain: ignored, a zero twist
        {"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [[2, "1"]]}]},
        [[[1, 1, 2], "1"]],                                 # not an object
        {"dim": 0, "coefficients": []},
        {"dim": 2, "coefficients": {"1,1,2": "1"}},
        {"dim": 2, "coefficients": [[1, 1, 2]]},            # no value
    ]
    for doc in bad_cases:
        with pytest.raises(InputError):
            parse_cochain_doc(doc)


def test_unknown_fields_exit_2(tmp_path, capsys):
    algebra = tmp_path / "L2.json"
    algebra.write_text(json.dumps({"dim": 2, "bracket": [
        {"left": 1, "right": 1, "value": [[2, "1"]]}]}))
    code, out, err = run(capsys, "homology", str(algebra))
    assert code == 2 and out == "" and "'bracket'" in err
    cochain = tmp_path / "h.json"
    cochain.write_text(json.dumps(
        {"degree": 2, "dim": 2, "coefficients": [[[1, 1, 2], "1"]]}))
    code, out, err = run(capsys, "check", str(cochain))
    assert code == 2 and out == "" and "'coefficients'" in err
    code, _, _ = run(capsys, "catalog", "L2", "-o", str(algebra))
    assert code == 0
    code, out, err = run(capsys, "double", "catalog:L2",
                         "--cocycle", str(algebra))
    assert code == 2 and out == "" and "'brackets'" in err


def test_unreadable_input_exits_2(tmp_path, capsys):
    # an integer literal and rational strings past the digit limit of
    # int(), a file that is not UTF-8, and 100,000 nested arrays, past
    # the recursion limit of the JSON decoder
    digits = "1" * 5000
    nested = "[" * 100_000 + "]" * 100_000
    cases = (
        ("validate", '{"dim": ' + digits + "}"),
        ("homology", '{"name": "\u00e9", "dim": 1}'),
        ("validate", json.dumps({"dim": 1, "brackets": [
            {"left": 1, "right": 1, "value": [[1, digits]]}]})),
        ("double catalog:L2 --cocycle", json.dumps(
            {"degree": 2, "dim": 2, "coefficients": [[[1, 1, 2], digits]]})),
        ("validate", nested),
        ("double catalog:L2 --cocycle", nested),
    )
    for pos, (cmd, text) in enumerate(cases):
        path = tmp_path / f"{pos}.json"
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, *cmd.split(), str(path))
        assert code == 2 and out == "" and err.startswith("error: "), cmd
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", str(missing))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {missing}"), err


def test_report_refuses_what_json_cannot_hold():
    for bad in ({1, 2}, 0.5, {(1, 2): 1}, [{None: 1}]):
        with pytest.raises(TypeError, match="not a report"):
            jsonable(bad)


def test_unwritable_output_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "catalog", "L2", "-o", str(target))
        assert code == 2 and out == "", target
        assert err.startswith(f"error: cannot write {target}"), err


def test_check_subcomplex_assembles_each_boundary_at_most_twice(
        capsys, monkeypatch):
    # the six sl2 subalgebras read Ker(del_2) off the symmetric ideal and
    # need no del_3, so only the certificate assembles del_2 .. del_4,
    # each once
    counts = Counter()
    assemble = complexes.boundary_matrix

    def counting(algebra, n):
        counts[n] += 1
        return assemble(algebra, n)

    monkeypatch.setattr(complexes, "boundary_matrix", counting)
    monkeypatch.setattr(cochains, "boundary_matrix", counting)
    code, out, _ = run(capsys, "check", "catalog:sl2", "--suite",
                       "subcomplex", "--format", "json")
    assert code == 0 and json.loads(out)["passed"]
    assert counts == {2: 1, 3: 1, 4: 1}
