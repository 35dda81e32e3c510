"""Tests of the benchmark itself: inputs, oracles and span arithmetic.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench``.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import bench_gen
import bench_jobs
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cli_json(*argv):
    from leibcx.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main([*argv, "--format", "json"]) == 0
    return buf.getvalue()


def _read_all(paths):
    out = []
    for _, path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def test_generator_is_deterministic(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = _read_all(bench_gen.conjugates(("sl2", "N3"), 2, 5, str(a)))
    again = _read_all(bench_gen.conjugates(("sl2", "N3"), 2, 5, str(b)))
    other = _read_all(bench_gen.conjugates(("sl2", "N3"), 2, 6, str(c)))
    assert first == again
    assert first != other


def test_conjugation_by_identity_and_back():
    from leibcx import catalog
    alg = catalog.get("sl2")
    brackets = {k: dict(v) for k, v in alg.items()}
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert bench_gen.conjugate(3, brackets, ident) == brackets
    lower = [[1, 0, 0], [-5, 1, 0], [5, 5, 1]]
    upper = [[1, 5, -5], [0, 1, 5], [0, 0, 1]]
    p = bench_gen._matmul([[Fraction(x) for x in r] for r in lower],
                          [[Fraction(x) for x in r] for r in upper])
    there = bench_gen.conjugate(3, brackets, p)
    assert bench_gen.conjugate(3, there, bench_gen.inverse(p)) == brackets


def test_superwitt_dims():
    assert [bench_jobs.superwitt_dim(4, n) for n in range(1, 8)] == \
        [4, 10, 20, 60, 204, 690, 2340]
    assert [bench_jobs.superwitt_dim(6, n) for n in range(1, 6)] == \
        [6, 21, 70, 315, 1554]


def test_homology_oracle_flags_corruption():
    text = _cli_json("homology", "catalog:doubleL2", "--max-degree", "4",
                     "--loday")
    assert bench_jobs.check_homology(text) is None
    for path, delta in ((("dims", "3"), 1), (("HA", "0"), 1),
                        (("ranks", "3"), -1), (("HL", "1"), 2)):
        doc = json.loads(text)
        doc[path[0]][path[1]] += delta
        assert bench_jobs.check_homology(json.dumps(doc)) is not None


def test_cohomology_oracle_flags_corruption():
    hom = _cli_json("homology", "catalog:L2", "--max-degree", "4")
    coh = _cli_json("cohomology", "catalog:L2", "--max-degree", "4")
    assert bench_jobs.check_cohomology(coh, hom) is None
    doc = json.loads(coh)
    doc["HA"]["1"] += 1
    assert bench_jobs.check_cohomology(json.dumps(doc), hom) is not None
    doc = json.loads(coh)
    doc["preserved"]["0"] = False
    assert bench_jobs.check_cohomology(json.dumps(doc), hom) is not None


def test_check_and_invariance_oracles_flag_corruption():
    text = _cli_json("check", "catalog:L2", "--suite", "dual")
    assert bench_jobs.check_passed(text) is None
    doc = json.loads(text)
    doc["checks"][sorted(doc["checks"])[0]] = False
    assert bench_jobs.check_passed(json.dumps(doc)) is not None
    same = bench_jobs.check_same(text)
    assert same(text) is None
    assert same(text.replace("true", "false", 1)) is not None


def _rec(rid, parent, name, start, end, kind="span", count=1, busy=None):
    return {"id": rid, "parent": parent, "name": name, "kind": kind,
            "job": 0, "start": start, "end": end, "count": count,
            "busy": end - start if busy is None else busy, "attrs": {}}


def test_self_time_arithmetic():
    records = [
        _rec(0, None, "root", 0.0, 10.0),
        _rec(1, 0, "a", 1.0, 4.0),
        _rec(2, 0, "b", 3.0, 6.0),          # overlaps a: union is [1, 6]
        _rec(3, 0, "hot", 6.5, 8.5, "agg", count=5, busy=1.5),
        _rec(4, 0, "late", 9.0, 12.0),      # clipped to [9, 10]
        _rec(5, 1, "inner", 1.5, 2.0),
        _rec(6, 3, "hotter", 7.0, 8.0, "agg", count=9, busy=0.5),
    ]
    st = bench_trace.self_times(records)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.5 - 1.0)
    assert st[1] == pytest.approx(3.0 - 0.5)
    assert st[3] == pytest.approx(1.5 - 0.5)
    assert st[4] == pytest.approx(3.0)
    assert st[6] == pytest.approx(0.5)


def test_tracer_nests_and_excludes_bookkeeping():
    tracer = bench_trace.Tracer()

    def leaf(x):
        return x + 1

    hot_leaf = bench_trace._wrap(tracer, "leaf", leaf, hot=True)
    outer = bench_trace._wrap(
        tracer, "outer", lambda n: sum(hot_leaf(i) for i in range(n)),
        attrs=lambda args, result: {"n": args[0]})
    assert outer(50) == sum(range(1, 51))
    assert outer(10) == sum(range(1, 11))
    by_name = {}
    for r in tracer.records:
        by_name.setdefault(r["name"], []).append(r)
    assert len(by_name["outer"]) == 2
    assert [r["count"] for r in by_name["leaf"]] == [50, 10]
    assert sorted(r["attrs"]["n"] for r in by_name["outer"]) == [10, 50]
    assert by_name["trace.bookkeeping"][0]["parent"] is None
    st = bench_trace.self_times(tracer.records)
    assert all(v >= 0 for v in st.values())


def test_traced_output_is_byte_identical(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = ["homology", "catalog:L2", "--max-degree", "4", "--format",
            "json"]
    plain = subprocess.run([sys.executable, "-m", "leibcx.cli", *argv],
                           capture_output=True, env=env, cwd=ROOT,
                           check=True, timeout=60)
    spans = str(tmp_path / "spans.json")
    traced = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench_job.py"), spans, "0",
         *argv], capture_output=True, env=env, cwd=ROOT, check=True,
        timeout=60)
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert traced.stdout == plain.stdout
    names = {r["name"] for r in doc["records"]}
    assert {"cli.main", "complexes.homology", "complexes.basis",
            "complexes.assembly", "exactla.rank"} <= names


def test_benchmark_json_lists_the_reported_metrics():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert listed == list(run.END_TO_END)
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == \
        list(bench_jobs.WORKLOADS)
