"""The benchmark's workloads: fixed lists of CLI jobs, each with an oracle.

A job is one cold ``leibcx`` process.  Its oracle reads the canonical JSON
the job printed and returns None when the output is right, or a short
reason when it is not.  Oracles use facts that do not depend on how the
program computes: the super-Witt formula for ``dim F^n``, the rank-nullity
shape of the homology table, invariance under a change of basis, and the
agreement of cohomology with homology.
"""

import json
from collections import namedtuple

import bench_gen

Job = namedtuple("Job", "label argv check")

WORKLOADS = ("deep-sparse", "dense-rational", "cochain", "check-battery")

# catalog entries that satisfy the Leibniz identity, fixed here rather than
# read from leibcx.catalog so that a new catalog entry does not change the
# workload
VALID = ("abelian1", "abelian2", "abelian3", "abelian4", "L2", "N3", "sl2",
         "heis3", "doubleL2")

SETUP_ARGV = ("validate", "catalog:abelian1")

DENSE_NAMES = ("sl2",)
DENSE_COUNT = 4
DENSE_DEGREE = 7


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def superwitt_dim(m, n):
    """dim F^n for the free Lie superalgebra on m odd generators."""
    total = sum(_mobius(d) * (-1) ** (n + n // d) * m ** (n // d)
                for d in range(1, n + 1) if n % d == 0)
    return total // n


def _homology_shape(dims, ranks, table, top):
    """Problems with table[n] == dims[n+1] - rank_(n+1) - rank_(n+2)."""
    for n in range(0, top - 1):
        r_out = ranks[str(n + 1)] if n + 1 >= 2 else 0
        r_in = ranks.get(str(n + 2), 0)
        if table.get(str(n)) != dims[str(n + 1)] - r_out - r_in:
            return f"homology entry {n} disagrees with dims and ranks"
    if len(table) != top - 1:
        return "homology table has the wrong length"
    return None


def check_homology(text):
    doc = json.loads(text)
    m, top = doc["dim"], doc["max_degree"]
    want = {str(n): superwitt_dim(m, n) for n in range(1, top + 1)}
    if doc["dims"] != want:
        return f"dims {doc['dims']} differ from the super-Witt formula"
    problem = _homology_shape(doc["dims"], doc["ranks"], doc["HA"], top)
    if problem or "HL" not in doc:
        return problem
    if doc["tensor_dims"] != {str(n): m ** n for n in range(1, top + 1)}:
        return "tensor dims differ from m^n"
    return _homology_shape(doc["tensor_dims"], doc["tensor_ranks"], doc["HL"],
                           top)


def check_cohomology(text, homology_text):
    doc = json.loads(text)
    if doc["HA"] != json.loads(homology_text)["HA"]:
        return "cohomology HA differs from homology HA"
    if not doc["preserved"] or not all(doc["preserved"].values()):
        return "a coboundary left the anti-cyclic space"
    m = doc["dim"]
    for n, d in doc["alp_dims"].items():
        if d != superwitt_dim(m, int(n) + 1):
            return f"alp_dims[{n}] differs from the super-Witt formula"
    return None


def check_passed(text):
    doc = json.loads(text)
    if doc.get("passed") is False or not doc["checks"]:
        return "check report did not pass"
    failing = sorted(k for k, v in doc["checks"].items() if v is not True)
    return f"checks failed: {failing}" if failing else None


def check_same(reference):
    def check(text):
        return None if text == reference else \
            "output differs from the catalog basis"
    return check


def check_setup(text):
    return None if json.loads(text).get("passed") is True else \
        "validate did not pass"


def build(workload, seed, work_dir, reference):
    """Job list of a workload.

    reference(argv, check) runs an untimed CLI call, judges its output with
    check and returns the text; oracles that compare against another
    computation get it here, before any timing starts.
    """
    if workload == "deep-sparse":
        return [
            Job("homology sl2 8",
                ["homology", "catalog:sl2", "--max-degree", "8"],
                check_homology),
            Job("homology doubleL2 6 loday",
                ["homology", "catalog:doubleL2", "--max-degree", "6",
                 "--loday"], check_homology),
        ]
    if workload == "dense-rational":
        files = bench_gen.conjugates(DENSE_NAMES, DENSE_COUNT, seed, work_dir)
        deg = ["--max-degree", str(DENSE_DEGREE)]
        refs = {name: reference(["homology", f"catalog:{name}", *deg],
                                check_homology)
                for name in DENSE_NAMES}
        return [Job(f"homology {path.rsplit('/', 1)[-1]} {DENSE_DEGREE}",
                    ["homology", path, *deg], check_same(refs[name]))
                for name, path in files]
    if workload == "cochain":
        jobs = []
        for name, top in (("sl2", 6), ("heis3", 6), ("N3", 6),
                          ("doubleL2", 5)):
            deg = ["--max-degree", str(top)]
            hom = reference(["homology", f"catalog:{name}", *deg],
                            check_homology)
            jobs.append(Job(
                f"cohomology {name} {top}",
                ["cohomology", f"catalog:{name}", *deg],
                lambda text, hom=hom: check_cohomology(text, hom)))
        return jobs
    if workload == "check-battery":
        jobs = [Job(f"check {name} all",
                    ["check", f"catalog:{name}", "--suite", "all"],
                    check_passed) for name in VALID]
        jobs.append(Job("dr N3 5", ["dr", "catalog:N3", "--max-degree", "5"],
                        check_passed))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
