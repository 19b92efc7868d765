"""One fockdm CLI invocation with timing marks, optionally traced.

Usage: python3 child.py --marks FILE [--trace] -- <fockdm CLI arguments>

The marks file receives CLOCK_MONOTONIC readings, which are comparable
across processes on Linux: when the suite runner began and when the report
(results.csv and manifest.json) was written, the CLI's exit code and, with
--trace, the per-function spans and counters.
"""

import json
import sys
import time


def _mark(fn, marks: dict, key: str, before: bool):
    def marked(*args, **kwargs):
        if before:
            marks[key] = time.monotonic()
        result = fn(*args, **kwargs)
        if not before:
            marks[key] = time.monotonic()
        return result
    return marked


def main(argv: list) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    marks_path = options[options.index("--marks") + 1]
    from fockdm import cli

    traced = "--trace" in options
    if traced:
        import tracer as tracing
        tracer, probes = tracing.Tracer(), tracing.Probes()
        tracing.install(tracer, probes)
    marks: dict = {}
    runners = cli._RUNNERS
    for name, runner in list(runners.items()):
        runners[name] = _mark(runner, marks, "runner_start", before=True)
    cli.emit_report = _mark(cli.emit_report, marks, "report_end", before=False)
    marks["exit"] = cli.main(cli_args)
    if traced:
        marks["trace"] = tracing.report(tracer, probes)
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return marks["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
