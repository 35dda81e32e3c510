"""Command line interface.

    leibcx validate   ALGEBRA
    leibcx liezation  ALGEBRA
    leibcx homology   ALGEBRA [--max-degree N] [--loday]
    leibcx cohomology ALGEBRA [--max-degree N]
    leibcx omega0     ALGEBRA
    leibcx double     ALGEBRA [--cocycle FILE] [-o FILE]
    leibcx dr         ALGEBRA [--max-degree N]
    leibcx check      ALGEBRA [--suite NAME] [--max-degree N]
    leibcx catalog    [NAME] [-o FILE]

ALGEBRA is a JSON file path or catalog:NAME.  Exit codes: 0 all checks
passed, 1 a mathematical check failed, 2 malformed input, 120 stdout was
closed by its reader.

There are two entry points.  main(argv) parses, runs one command and
returns its exit code; tests and library callers use it.  run(), the
one ``python -m leibcx.cli`` and the installed ``leibcx`` script call,
runs main, flushes stdout and stderr and ends the process with os._exit,
so a finished job skips the interpreter's teardown.

Only argparse, os, sys and errors are imported at the top.  Each command
and check suite imports what it calls at its head, so a cold process
compiles only the modules its command runs: validate catalog:NAME loads
catalog, algebras, words and report; liezation adds exactla; homology
and cohomology add complexes and exactla; dr and omega0 add battery.
"""

import argparse
import os
import sys

from .errors import InputError


def _resolve_algebra(source):
    if source.startswith("catalog:"):
        from . import catalog
        name = source[len("catalog:"):]
        return catalog.get(name), name
    from .fileio import parse_algebra_file
    return parse_algebra_file(source), None


def _emit(report, args, exit_code, payload=None):
    """Print report; -o writes payload (default: report) as canonical JSON."""
    from .report import canonical_json
    text = canonical_json(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text if payload is None else canonical_json(payload))
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    if args.format == "json":
        sys.stdout.write(text)
    else:
        _print_text(report)
    return exit_code


def _print_text(report, indent=0):
    import json as _json
    from .report import jsonable
    pad = "  " * indent
    for key in sorted(report, key=str):
        val = report[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_text(val, indent + 1)
        else:
            print(f"{pad}{key}: {_json.dumps(jsonable(val), sort_keys=True)}")


def _cmd_validate(args):
    from .report import vector_doc
    algebra, _ = _resolve_algebra(args.algebra)
    result = algebra.validate()
    failures = [{"triple": list(t), "lhs": vector_doc(lhs),
                 "rhs": vector_doc(rhs)}
                for t, lhs, rhs in result.failures]
    report = {"command": "validate", "dim": algebra.dim,
              "name": algebra.name, "passed": result.passed,
              "failures": failures}
    return _emit(report, args, 0 if result.passed else 1)


def _cmd_liezation(args):
    from .algebras import liezation
    from .fileio import algebra_to_doc
    from .report import rational_to_string
    algebra, _ = _resolve_algebra(args.algebra)
    quotient, projection, kept = liezation(algebra)
    report = {
        "command": "liezation",
        "dim": algebra.dim,
        "lie_dim": quotient.dim,
        "ideal_dim": algebra.dim - quotient.dim,
        "kept_indices": [j + 1 for j in kept],
        "projection": [[rational_to_string(x) for x in row]
                       for row in projection],
        "quotient": algebra_to_doc(quotient),
    }
    return _emit(report, args, 0)


def _homology(algebra, args):
    from .complexes import homology
    return homology(algebra, args.max_degree, args.loday)


def _cohomology(algebra, args):
    from .complexes import cohomology
    return cohomology(algebra, args.max_degree)


def _omega0(algebra, args):
    from .complexes import omega0
    return omega0(algebra)


_TABLES = {"homology": _homology, "cohomology": _cohomology,
           "omega0": _omega0}


def _cmd_table(args):
    """homology, cohomology and omega0: the computed dict, with a header."""
    algebra, _ = _resolve_algebra(args.algebra)
    report = {"command": args.command, "dim": algebra.dim}
    if "max_degree" in vars(args):
        report["max_degree"] = args.max_degree
    report.update(_TABLES[args.command](algebra, args))
    return _emit(report, args, 0)


def _cmd_double(args):
    from .algebras import check_anti_invariance, double
    from .fileio import algebra_to_doc, parse_cochain_file
    algebra, _ = _resolve_algebra(args.algebra)
    cocycle = parse_cochain_file(args.cocycle) if args.cocycle else None
    dbl, omega = double(algebra, cocycle)
    validated = dbl.validate().passed
    anti = check_anti_invariance(dbl, omega)
    doc = algebra_to_doc(dbl)
    report = {"command": "double", "base_dim": algebra.dim,
              "double_dim": dbl.dim, "twisted": cocycle is not None,
              "leibniz": validated, "anti_invariant": anti["passed"],
              "algebra": doc}
    return _emit(report, args, 0 if validated and anti["passed"] else 1,
                 payload=doc)


def _cmd_dr(args):
    from .complexes import DGLA, dgla_suite
    algebra, _ = _resolve_algebra(args.algebra)
    dg = DGLA(algebra, max_degree=args.max_degree)
    checks = dgla_suite(dg)
    dims = {str(d): n for d, n in sorted(dg.component_dims().items())}
    report = {"command": "dr", "max_degree": args.max_degree,
              "component_dims": dims,
              "checks": {k: v["passed"] for k, v in checks.items()}}
    ok = all(v["passed"] for v in checks.values())
    return _emit(report, args, 0 if ok else 1)


def _suite_complex(algebra, name, N):
    from .complexes import boundary_square_report, intertwining_report
    sq = boundary_square_report(algebra, max_degree=min(N, 5))
    tw = intertwining_report(algebra, max_length=min(N, 5))
    return {
        "boundary_square_zero": sq["main_square_zero"]["passed"],
        "tensor_square_zero": sq["loday_square_zero"]["passed"],
        "boundary_variants_agree": sq["variants_agree"]["passed"],
        "embedding_intertwines": tw["passed"],
    }


def _suite_subcomplex(algebra, name, N):
    from . import catalog
    from .cochains import subcomplex_report
    from .complexes import ker2_invariance_reports
    out = {}
    for n in range(0, N - 1):
        rep = subcomplex_report(algebra, n)
        out[f"anti_cyclic_preserved_degree_{n}"] = rep["preserved"]
        out[f"coboundary_is_transpose_degree_{n}"] = rep["transpose"]
    subs = catalog.lie_subalgebras(name) if name else ()
    if not subs and algebra.is_antisymmetric():
        subs = (tuple(range(1, algebra.dim + 1)),)
    for sub, rep in zip(subs, ker2_invariance_reports(algebra, subs)):
        label = "_".join(str(i) for i in sub)
        out[f"kernel_invariance_{label}"] = rep["passed"]
    return out


def _suite_anticyclic(algebra, name, N):
    from .cochains import constraints_match_identities
    return {f"constraints_match_identities_arity_{arity}":
            constraints_match_identities(algebra.dim, arity)
            for arity in (3, 4)}


def _suite_dr(algebra, name, N):
    from .complexes import DGLA, dgla_suite
    checks = dgla_suite(DGLA(algebra, max_degree=N))
    return {k: v["passed"] for k, v in checks.items()}


def _suite_dual(algebra, name, N):
    from .algebras import check_anti_invariance, double
    from .duality import recovery_report, rotation_sum_report
    from .words import projector_report
    out = {}
    out["projector_identity"] = projector_report(min(N + 2, 6))["passed"]
    out["rotation_sums_vanish"] = rotation_sum_report(5)["passed"]
    dbl, omega = double(algebra)
    out["double_anti_invariant"] = check_anti_invariance(dbl, omega)["passed"]
    out["contraction_recovery"] = recovery_report(
        dbl, omega, algebra.dim)["passed"]
    return out


_SUITE_FUNCS = {
    "complex": _suite_complex,
    "subcomplex": _suite_subcomplex,
    "dr": _suite_dr,
    "anticyclic": _suite_anticyclic,
    "dual": _suite_dual,
}
SUITES = (*_SUITE_FUNCS, "all")


def _cmd_check(args):
    from .algebras import require_leibniz
    algebra, name = _resolve_algebra(args.algebra)
    require_leibniz(algebra)
    wanted = _SUITE_FUNCS if args.suite == "all" else (args.suite,)
    checks = {}
    for suite in wanted:
        result = _SUITE_FUNCS[suite](algebra, name, args.max_degree)
        for k, v in result.items():
            checks[f"{suite}.{k}" if args.suite == "all" else k] = v
    report = {"command": "check", "suite": args.suite,
              "max_degree": args.max_degree, "checks": checks,
              "passed": all(checks.values())}
    return _emit(report, args, 0 if report["passed"] else 1)


def _cmd_catalog(args):
    from . import catalog
    from .fileio import algebra_to_doc
    if not args.name:
        entries = []
        for name in catalog.names():
            alg = catalog.get(name)
            entries.append({"name": name, "dim": alg.dim,
                            "leibniz": alg.validate().passed})
        return _emit({"command": "catalog", "entries": entries}, args, 0)
    return _emit(algebra_to_doc(catalog.get(args.name)), args, 0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibcx",
        description="Exact chain and cochain complexes of Leibniz algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True, degree=False):
        if algebra:
            p.add_argument("algebra",
                           help="JSON file path or catalog:NAME")
        if degree:
            p.add_argument("--max-degree", type=int, default=4,
                           metavar="N", help="word degree cutoff (>= 2)")
        p.add_argument("--format", choices=("json", "text"),
                       default="text")
        p.add_argument("-o", "--output", metavar="FILE",
                       help="also write canonical JSON to FILE")

    p = sub.add_parser("validate", help="check the Leibniz identity")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("liezation", help="quotient Lie algebra + projection")
    common(p)
    p.set_defaults(func=_cmd_liezation)

    p = sub.add_parser("homology", help="homology of the word complex")
    common(p, degree=True)
    p.add_argument("--loday", action="store_true",
                   help="include the tensor-word complex")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("cohomology",
                       help="cohomology of the anti-cyclic subcomplex")
    common(p, degree=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("omega0", help="relation-space dimension for Lie input")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("double", help="build g + g* with the coadjoint bracket")
    common(p)
    p.add_argument("--cocycle", metavar="FILE",
                   help="degree-2 scalar cochain twisting the product")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("dr", help="graded Lie suite on the word complex")
    common(p, degree=True)
    p.set_defaults(func=_cmd_dr)

    p = sub.add_parser("check", help="run a named verification suite")
    common(p, degree=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="list or export built-in algebras")
    p.add_argument("name", nargs="?", help="entry to export")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", None) is not None:
        if args.max_degree < 2:
            print("error: --max-degree must be at least 2", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """Run main() and end the process without interpreter teardown.

    No output depends on the teardown (a full collection, then every
    module and cached object freed one by one), and -o FILE is already
    closed, so once stdout and stderr are flushed os._exit ends the
    process.  An exception out of main propagates, and a failed flush
    returns the exit code: both take the normal exit, which reports them
    as it always has.  A closed stdout fails that last flush when stdout
    is buffered, and the normal exit gives 120; unbuffered, the write in
    main fails instead, and run returns 120 itself.
    """
    try:
        code = main()
    except BrokenPipeError:
        return 120
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
