"""Acceptance gate: the twelve headline guarantees, one verdict line each.

Every test prints exactly one CRITERION line (PASS or FAIL with a short
reason) and then asserts, so `pytest -v -s tests/test_acceptance.py`
doubles as a machine-checked scorecard.
"""

import itertools

from leibcx import catalog
from leibcx.algebras import (check_anti_invariance, double, liezation,
                             require_leibniz)
from leibcx.cli import main as cli_main
from leibcx.cochains import (anti_cyclic_constraint_rows, cohomology,
                             lp_coboundary, same_row_space,
                             subcomplex_report, symmetry_identity_rows)
from leibcx.complexes import (DGLA, boundary_square_report, dgla_suite,
                              homology, intertwining_report, omega0)
from leibcx.duality import recovery_report
from leibcx.words import projector_report
from support import dual_differential, lower, projector_sweep

VALID = catalog.VALID_NAMES


def verdict(num, ok, detail):
    print("CRITERION %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_squares_vanish():
    bad = []
    for name in VALID:
        rep = boundary_square_report(catalog.get(name), max_degree=5)
        for key in ("main_square_zero", "loday_square_zero",
                    "variants_agree"):
            if not rep[key]["passed"]:
                bad.append((name, key))
    verdict(1, not bad,
            "boundary squares to zero and both expansions agree through "
            "degree 5 on all %d valid catalog algebras" % len(VALID)
            if not bad else "failures: %r" % bad)


def test_criterion_02_intertwining():
    bad = [name for name in VALID
           if not intertwining_report(catalog.get(name),
                                      max_length=5)["passed"]]
    verdict(2, not bad,
            "tensor boundary intertwines the word embedding through "
            "length 5 on all valid catalog algebras"
            if not bad else "failures: %r" % bad)


def test_criterion_03_ha0_is_lie_quotient():
    bad = []
    for name in VALID:
        alg = catalog.get(name)
        ha0 = homology(alg, max_degree=2)["HA"][0]
        qdim = liezation(alg)[0].dim
        if ha0 != qdim:
            bad.append((name, ha0, qdim))
    verdict(3, not bad,
            "HA_0 equals the dimension of the maximal Lie quotient on "
            "all valid catalog algebras"
            if not bad else "mismatches: %r" % bad)


def test_criterion_04_ha1_counts_invariant_forms():
    bad = []
    for name in ("abelian1", "abelian2", "abelian3", "abelian4",
                 "sl2", "heis3"):
        alg = catalog.get(name)
        ha1 = homology(alg, max_degree=3)["HA"][1]
        w0 = omega0(alg)["dim"]
        if ha1 != w0:
            bad.append((name, ha1, w0))
    verdict(4, not bad,
            "HA_1 equals the dimension of invariant bilinear forms on "
            "every antisymmetric catalog algebra"
            if not bad else "mismatches: %r" % bad)


def test_criterion_05_constraint_spaces_coincide():
    bad = []
    for m in (1, 2, 3, 4):
        for arity in (3, 4):
            rows_a, _ = anti_cyclic_constraint_rows(m, arity)
            rows_b, _ = symmetry_identity_rows(m, arity)
            if not same_row_space(rows_a, rows_b):
                bad.append((m, arity))
    verdict(5, not bad,
            "the anti-cyclicity constraints and the finite symmetry "
            "identities cut the same subspace (arities 3 and 4, "
            "dimensions 1-4)"
            if not bad else "mismatches at (dim, arity): %r" % bad)


def test_criterion_06_coboundary_is_transpose():
    bad = []
    for name in VALID:
        alg = catalog.get(name)
        for degree in range(0, 4):
            rep = subcomplex_report(alg, degree)
            if not rep["preserved"]:
                bad.append((name, degree, "not preserved"))
            elif not rep["transpose"]:
                bad.append((name, degree, "matrix mismatch"))
    verdict(6, not bad,
            "the cochain differential preserves the anti-cyclic "
            "subspace and acts there as the transposed boundary "
            "(degrees 0-3, all valid catalog algebras)"
            if not bad else "failures: %r" % bad)


def test_criterion_07_cohomology_matches_homology():
    bad = []
    for name in VALID:
        alg = catalog.get(name)
        ha_up = cohomology(alg, max_degree=5)["HA"]
        ha_dn = homology(alg, max_degree=5)["HA"]
        for n in range(0, 4):
            if ha_up[n] != ha_dn[n]:
                bad.append((name, n, ha_up[n], ha_dn[n]))
    verdict(7, not bad,
            "anti-cyclic cohomology dimensions equal the shifted "
            "homology dimensions in degrees 0-3 on all valid catalog "
            "algebras"
            if not bad else "mismatches: %r" % bad)


def test_criterion_08_lowering_intertwines():
    bad = []
    for name in ("L2", "N3"):
        alg = catalog.get(name)
        m = alg.dim
        for n in (0, 1, 2):
            sign = (-1) ** n
            for w in itertools.product(range(1, m + 1), repeat=n):
                for l in range(1, m + 1):
                    f = {(w, l): 1}
                    if lp_coboundary(alg, lower(f, n, m)) != \
                            sign * lower(dual_differential(alg, f, n),
                                         n + 1, m):
                        bad.append((name, w, l))
    verdict(8, not bad,
            "lowering dual-valued cochains intertwines the two "
            "differentials over the full coefficient basis in arities "
            "0-2 on L2 and N3"
            if not bad else "failures: %r" % bad)


def test_criterion_09_graded_algebra_identities():
    bad = []
    for name in ("L2", "N3", "sl2"):
        rep = dgla_suite(DGLA(catalog.get(name), max_degree=4))
        for check, r in rep.items():
            if not r["passed"]:
                bad.append((name, check))
    verdict(9, not bad,
            "the shifted graded Lie algebra passes all nine identity "
            "checks (antisymmetry, Jacobi, differential, derivation, "
            "derived bracket, lifts, ideal, augmentation) to degree 4 "
            "on L2, N3 and sl2"
            if not bad else "failures: %r" % bad)


def test_criterion_10_double_recovers_bracket():
    bad = []
    for name in VALID:
        base = catalog.get(name)
        dbl, omega = double(base)
        if not check_anti_invariance(dbl, omega)["passed"]:
            bad.append((name, "anti-invariance"))
        elif not recovery_report(dbl, omega, base.dim)["passed"]:
            bad.append((name, "recovery"))
    verdict(10, not bad,
            "every catalog double is anti-invariant and its bracket is "
            "recovered by double contraction of the structure tensor"
            if not bad else "failures: %r" % bad)


def test_criterion_11_projector_identity():
    rep = projector_report(max_length=6)
    swept = projector_sweep(3, 6)
    ok = rep["passed"] and not swept
    verdict(11, ok,
            "re-bracketing the embedded word expands to length times "
            "the embedding (distinct letters and every word over 3 "
            "letters, lengths to 6)"
            if ok else "failures: %r" % (rep["failures"] + swept))


def test_criterion_12_invalid_input_is_refused(capsys):
    import json
    ok = True
    detail = []
    code = cli_main(["validate", "catalog:B1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    if code != 1 or doc["failures"][0]["triple"] != [1, 1, 1]:
        ok = False
        detail.append("validate exit %d" % code)
    code = cli_main(["homology", "catalog:B1"])
    err = capsys.readouterr().err
    if code != 2 or "Leibniz" not in err:
        ok = False
        detail.append("homology exit %d" % code)
    with capsys.disabled():
        verdict(12, ok,
                "the non-Leibniz witness table is refused: validate "
                "exits 1 naming triple (1,1,1), homology exits 2"
                if ok else "; ".join(detail))
