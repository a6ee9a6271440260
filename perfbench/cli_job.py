"""Run one fspectra CLI command, cold, in this fresh interpreter.

    python3 perfbench/cli_job.py [--trace] <fspectra CLI arguments>

Calls ``fspectra.cli.main(argv)`` as the ``fspectra`` entry point does and
exits with its code. The CLI's output goes to stdout unchanged; a last
stderr line ``PERFBENCH {json}`` carries the exit code, the peak RSS and,
with ``--trace``, the spans. Without ``--trace`` the reference loop of
speed.py runs from a timer while the command runs, and the trailer carries
its timings and the time they took.
"""

import json
import resource
import sys


def main():
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    sampler = None
    if not trace:
        import speed

        sampler = speed.Sampler(timer=True)
    from fspectra import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install("job")
    code = cli.main(argv)
    if tracer is not None:
        tracer.uninstall()
    if sampler is not None:
        sampler.stop()
    sys.stdout.flush()
    trailer = {
        "code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
        "loops": sampler.loops if sampler is not None else [],
        "loop_s": sampler.spent if sampler is not None else 0.0,
    }
    sys.stderr.write("\nPERFBENCH " + json.dumps(trailer) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
