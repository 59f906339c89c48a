"""Run one ``rdslink`` CLI command as the benchmark's child process.

Usage: python3 perfbench/cli_child.py OUT_JSON TRACE PASS_ID PARENT_SPAN
       -- <rdslink arguments>

Behaves like the ``rdslink`` console script, and also writes OUT_JSON
with the monotonic time at which ``rdslink.cli`` finished importing (the
end of this process's set-up) and, when TRACE is 1, the spans recorded
around rdslink's layers under the given pass id and parent span.
"""

import json
import os
import sys
import time

here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, here)

split = sys.argv.index("--")
(out_path, trace, pass_id, parent_span), cli_args = (sys.argv[1:split],
                                                    sys.argv[split + 1:])

import rdslink.cli  # noqa: E402

ready = time.monotonic()
tracer = None
if trace == "1":
    import spans  # noqa: E402

    tracer = spans.Tracer(parent_id=parent_span, pass_id=pass_id)
    spans.install(tracer)
    rec = tracer.begin(f"cli.main.{cli_args[0]}")
    try:
        code = rdslink.cli.main(cli_args)
    finally:
        tracer.end(rec)
else:
    code = rdslink.cli.main(cli_args)
with open(out_path, "w") as fh:
    json.dump({"ready": ready,
               "spans": tracer.records if tracer else []}, fh)
sys.exit(code)
