"""One pass of a workload, in a fresh interpreter.

    python3 child.py RESULT.json TRACE COMMANDS_JSON

Imports specgap.cli, then runs each command of COMMANDS_JSON (a list of
argv lists) in order through specgap.cli.main, as a user's `specgap ...`
call would. Writes to RESULT.json the monotonic clock reading right after
the import, one record per command (exit code, seconds, what it wrote to
stderr), the clock reading after the last command and the peak resident
set of this process and of its children (the 2D sweep's pool workers).
With TRACE=1 the per-layer tracer from tracer.py is installed after the
import and its totals are added to the result; with TRACE=0 nothing but
the import and the commands runs.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

result_path, trace, commands = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])

import specgap.cli  # noqa: E402  (the import is the set-up being timed)

import_done = time.monotonic()

tracer = None
if trace:
    import tracer as tracing

    tracer = tracing.install()


def run(argv, messages):
    with contextlib.redirect_stderr(messages):
        try:
            return specgap.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real `specgap` call with status 1
            traceback.print_exc()
            return 1


records = []
for argv in commands:
    messages = io.StringIO()
    pool_before = tracer.inline_pool_calls if tracer else 0
    start = time.perf_counter()
    if tracer:
        status = tracer.call("cli.op." + argv[0], run, argv, messages)
    else:
        status = run(argv, messages)
    seconds = time.perf_counter() - start
    records.append(
        {
            "argv": argv,
            "status": status,
            "seconds": seconds,
            "stderr": messages.getvalue()[-4000:],
            "inline_pool": bool(tracer and tracer.inline_pool_calls > pool_before),
        }
    )
end = time.monotonic()

with open(result_path, "w") as fh:
    json.dump(
        {
            "module": specgap.cli.__file__,
            "import_done": import_done,
            "end": end,
            "commands": records,
            "rss_kb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ),
            "trace": tracer.totals() if tracer else None,
        },
        fh,
    )
