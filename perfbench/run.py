"""leibcx benchmark: cold CLI jobs timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; leibcx is loaded from ``src/`` (it need
not be installed).  A workload is a fixed list of CLI jobs (bench_jobs.py).
Jobs run one after another, one process at a time, each as a fresh
``python -m leibcx.cli ... --format json``: a closed loop with one client.
A pass runs every job once; passes repeat while the next one is expected to
end within S seconds, and at least one pass always runs.

--trace 0 reports the end-to-end metrics of one pass, taking each job's
median over the passes: wall_s (wall-clock seconds of all the jobs), cpu_s
(user+sys seconds of the job processes, from wait4), peak_rss_mb (largest
max-RSS of any job) and setup_s (the median cold time of a trivial CLI
call, measured several times per run).  A yardstick process runs before
every job and every setup call, and each time is scaled by YARD_S over the
time of the yardstick just before it (see YARD_S); the measured times are
printed beside the scaled ones.

--trace 1 alternates untraced passes with traced ones, in which every job
runs under bench_job.py with the layer wrappers of bench_trace installed.
It reports per-layer self times (as measured) and counts summed over a
traced pass, and trace.overhead_ratio, traced over untraced wall_s.

Every job's output goes through its oracle, must match the same job's
output in every other pass byte for byte (traced or not), and must exit 0.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import bench_jobs
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT = 120.0
SETUP_CALLS = 7
# Times are reported in reference seconds: each job's time as measured,
# times YARD_S over the time of the yardstick process (bench_yard.py) run
# just before it.  On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz) the speed of
# the host swings by up to 2x within seconds to minutes, and the yardstick
# took 0.11-0.17 s there.  It shares no code with leibcx, so a change to
# the program cannot move it.
YARD_S = 0.1

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# per-layer metrics: (name, unit); record names are the prefixes before
# ".self_s", ".calls" and the attribute names the wrappers store
PER_LAYER = (
    ("complexes.basis.self_s", "s"),
    ("complexes.basis.candidates", "count"),
    ("complexes.basis.kept", "count"),
    ("complexes.basis.accept_ratio", "ratio"),
    ("complexes.basis.builds", "count"),
    ("complexes.basis.cache_hits", "count"),
    ("complexes.assembly.self_s", "s"),
    ("complexes.assembly.cells", "count"),
    ("complexes.assembly.nnz", "count"),
    ("complexes.homology.self_s", "s"),
    ("exactla.rank.self_s", "s"),
    ("exactla.rank.calls", "count"),
    ("exactla.rank.input_nnz", "count"),
    ("exactla.rank.input_max_bits", "bits"),
    ("exactla.insert.calls", "count"),
    ("exactla.coords.self_s", "s"),
    ("exactla.coords.calls", "count"),
    ("cochains.cohomology.self_s", "s"),
    ("cochains.matrix.self_s", "s"),
    ("cochains.basis.self_s", "s"),
    ("cochains.coords_table.builds", "count"),
    ("cochains.coords_table.cache_hits", "count"),
    ("cochains.coboundary.self_s", "s"),
    ("cochains.coboundary.calls", "count"),
    ("cochains.anticyclic_check.self_s", "s"),
    ("cochains.anticyclic_check.calls", "count"),
    ("complexes.dgla.self_s", "s"),
    ("complexes.dgla.setup.self_s", "s"),
    ("complexes.dgla.bracket.self_s", "s"),
    ("complexes.dgla.bracket.calls", "count"),
    ("complexes.dgla.differential.self_s", "s"),
    ("complexes.dgla.differential.calls", "count"),
    ("complexes.checks.self_s", "s"),
    ("algebras.validate.self_s", "s"),
    ("algebras.validate.calls", "count"),
    ("algebras.liezation.self_s", "s"),
    ("duality.self_s", "s"),
    ("words.projector.self_s", "s"),
    ("words.embed_cache.size", "count"),
    ("fileio.parse.self_s", "s"),
    ("report.canonical_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.bookkeeping.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# metrics combined across the jobs of a pass by max rather than by sum
_MAX_METRICS = {"exactla.rank.input_max_bits", "words.embed_cache.size"}


class Runner:
    """Starts one CLI process at a time and keeps the tallies of a run."""

    def __init__(self, root, work_dir):
        self.root = root
        self.work = work_dir
        src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.attempted = 0
        self.failures = []
        self.last_error = ""
        self.yards = []

    def job(self, argv, spans_file=None, job_id=0):
        """Run one CLI job; returns (exit code, stdout text, wall s, rusage).

        With spans_file the job runs traced, under bench_job.py.
        """
        if spans_file is None:
            cmd = [sys.executable, "-m", "leibcx.cli", *argv, "--format",
                   "json"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "bench_job.py"),
                   spans_file, str(job_id), *argv, "--format", "json"]
        return self._spawn(cmd)

    def yard(self):
        """Time one yardstick process, a sample of the host's speed."""
        code, _, wall, _ = self._spawn(
            [sys.executable, os.path.join(HERE, "bench_yard.py")])
        if code:
            raise RuntimeError(f"the yardstick failed: {self.last_error}")
        self.yards.append(wall)
        return wall

    def _spawn(self, cmd):
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env)
            lock = threading.Lock()
            exited = []

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(JOB_TIMEOUT, kill)
            timer.start()
            try:
                # wait without reaping, so the timer never signals a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    exited.append(True)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if proc.returncode:
            with open(err_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                self.last_error = (fh.read().strip().splitlines() or [""])[-1]
        return proc.returncode, text, wall, usage

    def judge(self, label, code, text, check):
        """Count one attempted job; record why it failed, if it did."""
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}: {self.last_error}"
        else:
            try:
                problem = check(text)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    def reference(self, argv, check):
        code, text, _, _ = self.job(argv)
        self.judge(" ".join(argv), code, text, check)
        return text

    def setup_s(self):
        """Median cold time of a trivial call: (scaled, as measured).

        A warm-up call first fills the bytecode cache.
        """
        scaled, measured = [], []
        for k in range(SETUP_CALLS + 1):
            yard = self.yard()
            code, text, wall, _ = self.job(list(bench_jobs.SETUP_ARGV))
            self.judge("setup", code, text, bench_jobs.check_setup)
            if k:
                scaled.append(wall * YARD_S / yard)
                measured.append(wall)
        return statistics.median(scaled), statistics.median(measured)


def layer_metrics(docs):
    """Per-layer values of one traced pass from its jobs' span files."""
    vals = {name: 0 for name, _ in PER_LAYER}

    def add(name, v):
        if name in vals:
            vals[name] = max(vals[name], v) if name in _MAX_METRICS \
                else vals[name] + v

    for doc in docs:
        records = doc["records"]
        self_s = bench_trace.self_times(records)
        for rec in records:
            name = rec["name"]
            add(name + ".self_s", self_s[rec["id"]])
            add(name + ".calls", rec["count"])
            for k, v in rec["attrs"].items():
                add(f"{name}.{k}", v)
        for name, v in doc["counters"].items():
            add(name, v)
        add("words.embed_cache.size", doc["embed_cache_size"])
    cand = vals["complexes.basis.candidates"]
    vals["complexes.basis.accept_ratio"] = \
        vals["complexes.basis.kept"] / cand if cand else 0.0
    return vals


def run_pass(runner, jobs, outputs, traced):
    """Run every job once.

    Returns ([(wall, cpu, peak MB, yardstick s)] per job, span docs).
    """
    times = []
    docs = []
    spans_file = os.path.join(runner.work, "spans.json") if traced else None
    for i, job in enumerate(jobs):
        yard = runner.yard()
        code, text, wall, usage = runner.job(job.argv, spans_file, i)
        times.append((wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, yard))

        def check(t, job=job):
            first = outputs.setdefault(job.label, t)
            if t != first:
                return "output differs from another pass" + \
                    (" (traced vs untraced)" if traced else "")
            return job.check(t)

        runner.judge(job.label, code, text, check)
        if traced and os.path.exists(spans_file):
            with open(spans_file, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
            os.remove(spans_file)
    return times, docs


def summarize(passes, scaled=True):
    """wall_s, cpu_s, peak_rss_mb of a pass built from per-job medians.

    With scaled, a job's times are multiplied by YARD_S over the yardstick
    time just before it.  Each job's median over the passes damps a burst
    of host load that slows one job in one pass; wall and cpu sum those
    medians over the jobs, peak memory takes their largest.
    """
    per_job = list(zip(*(times for times, _ in passes)))

    def total(k):
        return sum(statistics.median(s[k] * (YARD_S / s[3] if scaled else 1)
                                     for s in samples)
                   for samples in per_job)

    return {"wall_s": total(0), "cpu_s": total(1),
            "peak_rss_mb": max(statistics.median(s[2] for s in samples)
                               for samples in per_job)}


def measure(runner, jobs, seconds, trace):
    """Closed loop of passes for about `seconds`; returns the metrics."""
    outputs = {}
    passes = {False: [], True: []}
    walls = {False: [], True: []}
    start = time.perf_counter()
    modes = [False, True] if trace else [False]
    while True:
        for traced in modes:
            t0 = time.perf_counter()
            passes[traced].append(run_pass(runner, jobs, outputs, traced))
            walls[traced].append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        cycle = sum(statistics.median(walls[t]) for t in modes)
        if elapsed + cycle > seconds:
            break
    untraced = summarize(passes[False])
    if not trace:
        untraced["measured"] = summarize(passes[False], scaled=False)
        return untraced, len(passes[False])
    layers = [layer_metrics(docs) for _, docs in passes[True]]
    metrics = {name: statistics.median(v[name] for v in layers)
               for name, _ in PER_LAYER}
    metrics["trace.overhead_ratio"] = \
        summarize(passes[True])["wall_s"] / untraced["wall_s"]
    return metrics, len(passes[False])


def print_shares(metrics):
    """Human-readable self-time shares, largest first."""
    selfs = {name: metrics[name] for name, unit in PER_LAYER if unit == "s"}
    total = sum(selfs.values()) or 1.0
    for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        if v > 0:
            print(f"  {k:40s} {v:9.4f} s  {100 * v / total:5.1f}%")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leibcx", "cli.py")):
        print("error: run from a leibcx checkout (src/leibcx is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work)
    try:
        runner = Runner(root, work)
        jobs = bench_jobs.build(args.workload, args.seed, work,
                                runner.reference)
        setup = runner.setup_s()
        metrics, npasses = measure(runner, jobs, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still has its directory there
    names = PER_LAYER if args.trace else END_TO_END
    failed = len(runner.failures)
    for problem in runner.failures:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}: {len(jobs)} jobs x {npasses} untraced "
          f"passes, seed {args.seed}, {os.cpu_count()} cpus, "
          f"python {sys.version.split()[0]}")
    if args.trace:
        print_shares(metrics)
    else:
        measured = metrics.pop("measured")
        metrics["setup_s"], measured["setup_s"] = setup
        print(f"  yardstick median {statistics.median(runner.yards):.6g} s "
              f"over {len(runner.yards)} runs; times in reference seconds")
        for name, unit in names:
            extra = f" (measured {measured[name]:.6g} {unit})" \
                if unit == "s" else ""
            print(f"  {name:12s} {metrics[name]:.6g} {unit}{extra}")
    print(f"  failed_ratio {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} jobs)")
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
