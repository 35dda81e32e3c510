"""One traced CLI job: ``bench_job.py SPANS_FILE JOB_ID CLI_ARGS...``.

Installs the layer wrappers of bench_trace, runs ``leibcx.cli.main`` on
CLI_ARGS exactly as ``python -m leibcx.cli`` would, and writes the span
records, counters and the final size of the word-embedding cache to
SPANS_FILE as JSON.  The CLI's own output and exit code pass through
unchanged, so they can be compared with an untraced run.
"""

import json
import sys

import bench_trace


def main():
    spans_file, job = sys.argv[1], int(sys.argv[2])
    tracer = bench_trace.Tracer(job)
    cli_main = bench_trace.install(tracer)
    try:
        code = cli_main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        from leibcx import words
        doc = {"records": tracer.records, "counters": tracer.counters,
               "embed_cache_size": len(words._EMBED_CACHE)}
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
