"""Run one spinorbit CLI command in this fresh interpreter, traced.

Usage: python3 perfbench/clishim.py <spinorbit cli arguments...>

Times ``import spinorbit.cli`` as the span "cli.import", wraps the package's
public functions (see tracing.py), calls ``cli.main(argv)`` in-process and
prints one JSON line: the exit code, the command's stdout and the spans.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (stdlib only, so the timed import below is cold)

tracer = tracing.Tracer()
with tracer.span(tracing.IMPORT_SPAN):
    import spinorbit.cli  # noqa: E402

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

tracer.install()
captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    try:
        rc = spinorbit.cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
print(json.dumps({"rc": rc, "stdout": captured.getvalue(), "spans": tracer.export()}))
