"""Layer tracing from outside the program.

The wrappers here time the public functions of leibcx's modules without
changing the package: ``install(tracer)`` replaces each target function or
method with a timing wrapper in every ``leibcx`` namespace that holds it
(``rank`` is imported by ``complexes`` and ``cochains``, ``free_lie_basis``
by ``cochains``, and so on).

A traced call becomes a record with name, parent, start and end.  Calls at
hot boundaries (called thousands of times per job) are folded into one
aggregate record per (parent, name) holding a call count and the summed
busy time.  Self time is a record's busy time minus the time its children
cover; ``self_times`` computes it from the records alone, so the arithmetic
can be checked on synthetic spans.
"""

import functools
import time
from fractions import Fraction

_clock = time.perf_counter


class Tracer:
    """Span records of one job, kept in memory until the job ends."""

    def __init__(self, job=0):
        self.job = job
        self.records = []
        self._stack = [None]
        self._aggs = {}
        self.counters = {}

    def _new(self, name, parent, start, kind="span"):
        rec = {"id": len(self.records), "parent": parent, "name": name,
               "kind": kind, "job": self.job, "start": start, "end": start,
               "count": 1 if kind == "span" else 0, "busy": 0.0,
               "attrs": {}}
        self.records.append(rec)
        return rec

    def _aggregate(self, name, parent, start):
        key = (parent, name)
        rec = self._aggs.get(key)
        if rec is None:
            rec = self._aggs[key] = self._new(name, parent, start, "agg")
        return rec

    def span(self, name, hot, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span; returns (result, record)."""
        parent = self._stack[-1]
        start = _clock()
        rec = (self._aggregate(name, parent, start) if hot
               else self._new(name, parent, start))
        self._stack.append(rec["id"])
        try:
            return fn(*args, **kwargs), rec
        finally:
            end = _clock()
            self._stack.pop()
            rec["end"] = end
            rec["busy"] += end - start
            if hot:
                rec["count"] += 1

    def bookkeeping(self, fn, *args):
        """Run wrapper-side accounting as a child of the current parent.

        Its time is then covered, not charged to the parent's self time.
        """
        start = _clock()
        try:
            return fn(*args)
        finally:
            end = _clock()
            rec = self._aggregate("trace.bookkeeping", self._stack[-1], start)
            rec["end"] = end
            rec["busy"] += end - start
            rec["count"] += 1

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records):
    """{record id: self seconds}.

    A span's children cover the union of their intervals, clipped to the
    span; an aggregate child covers its summed busy time, since its calls
    do not form one interval.
    """
    spans = {}
    aggs = {}
    for r in records:
        if r["parent"] is None:
            continue
        kids = aggs if r["kind"] == "agg" else spans
        kids.setdefault(r["parent"], []).append(r)
    out = {}
    for r in records:
        lo, hi = r["start"], r["end"]
        clipped = [(max(c["start"], lo), min(c["end"], hi))
                   for c in spans.get(r["id"], ())]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        covered += sum(c["busy"] for c in aggs.get(r["id"], ()))
        out[r["id"]] = r["busy"] - covered
    return out


def _value_bits(x):
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def _matrix_stats(args, mat):
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    nnz = sum(1 for row in mat for x in row if x)
    return {"cells": rows * cols, "nnz": nnz}


def _rank_input_stats(args, result):
    nnz = 0
    bits = 0
    for row in args[0]:
        for x in row.values():
            if x:
                nnz += 1
                bits = max(bits, _value_bits(x))
    return {"input_nnz": nnz, "input_max_bits": bits}


def _wrap(tracer, name, fn, hot=False, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, rec = tracer.span(name, hot, fn, args, kwargs)
        if attrs is not None:
            for k, v in tracer.bookkeeping(attrs, args, result).items():
                rec["attrs"][k] = rec["attrs"].get(k, 0) + v
        return result
    return wrapper


def _wrap_counter(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _wrap_cached(tracer, name, fn):
    """Count the calls of an lru_cache function as cache hits or builds."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = fn.cache_info().hits
        result = fn(*args, **kwargs)
        if fn.cache_info().hits != before:
            tracer.count(name + ".cache_hits")
        else:
            tracer.count(name + ".builds")
        return result
    return wrapper


def _basis_attrs(args, result):
    slice_ = args[0]
    return {"candidates": slice_.echelon.nsources, "kept": slice_.dim}


def _replace_everywhere(modules, old, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer):
    """Wrap leibcx's layer boundaries for this process; returns cli.main."""
    import sys
    import leibcx.cli as cli
    from leibcx import (algebras, cochains, complexes, duality, exactla,
                        fileio, report, words)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "leibcx" or n.startswith("leibcx."))]

    functions = [
        (complexes, "homology", "complexes.homology", False, None),
        (complexes, "boundary_matrix", "complexes.assembly", False,
         _matrix_stats),
        (complexes, "loday_matrix", "complexes.assembly", False,
         _matrix_stats),
        (complexes, "dgla_suite", "complexes.dgla", False, None),
        (complexes, "boundary_square_report", "complexes.checks", False, None),
        (complexes, "intertwining_report", "complexes.checks", False, None),
        (complexes, "ker2_invariance", "complexes.checks", False, None),
        (cochains, "cohomology", "cochains.cohomology", False, None),
        (cochains, "coboundary_matrix_on_anti_cyclic", "cochains.matrix",
         False, None),
        (cochains, "anti_cyclic_basis", "cochains.basis", False, None),
        (cochains, "lp_coboundary", "cochains.coboundary", True, None),
        (cochains, "is_anti_cyclic", "cochains.anticyclic_check", True, None),
        (algebras, "liezation", "algebras.liezation", False, None),
        (duality, "recovery_report", "duality", False, None),
        (duality, "rotation_sum_report", "duality", False, None),
        (words, "projector_report", "words.projector", False, None),
        (fileio, "parse_algebra_file", "fileio.parse", False, None),
        (fileio, "parse_cochain_file", "fileio.parse", False, None),
        (report, "canonical_json", "report.canonical_json", False, None),
        (exactla, "rank", "exactla.rank", False, _rank_input_stats),
    ]
    for mod, attr, name, hot, attrs in functions:
        orig = getattr(mod, attr)
        _replace_everywhere(modules, orig,
                            _wrap(tracer, name, orig, hot, attrs))
    for mod, attr, name in ((complexes, "free_lie_basis", "complexes.basis"),
                            (cochains, "bracket_coords_table",
                             "cochains.coords_table")):
        orig = getattr(mod, attr)
        _replace_everywhere(modules, orig, _wrap_cached(tracer, name, orig))

    methods = [
        (complexes.LieBasisSlice, "__init__", "complexes.basis", False,
         _basis_attrs),
        (complexes.DGLA, "__init__", "complexes.dgla.setup", False, None),
        (complexes.DGLA, "bracket", "complexes.dgla.bracket", True, None),
        (complexes.DGLA, "differential", "complexes.dgla.differential", True,
         None),
        (exactla.SparseEchelon, "coordinates", "exactla.coords", True, None),
        (algebras.LeibnizAlgebra, "validate", "algebras.validate", True, None),
    ]
    for cls, attr, name, hot, attrs in methods:
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr), hot, attrs))
    insert = exactla.SparseEchelon.insert
    exactla.SparseEchelon.insert = _wrap_counter(tracer, "exactla.insert.calls",
                                                 insert)
    return _wrap(tracer, "cli.main", cli.main)
