"""One godelgen command in a fresh process, as the cli workload runs it.

    python3 perfbench/clidriver.py <godelgen arguments>

`python -m godelgen.cli` exits 0 without doing anything (cli.py has no
`__main__` guard and the package has no `__main__.py`), so this calls
`godelgen.cli.run` itself.  When GODELGEN_BENCH_TRACE_FD names an open
file descriptor, the command runs with spans recorded (perfbench/spans.py)
and their summary is written to that descriptor as JSON.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

trace_fd = os.environ.get("GODELGEN_BENCH_TRACE_FD")
if trace_fd is None:
    from godelgen import cli

    sys.exit(cli.run(sys.argv[1:]))

import spans  # noqa: E402  (this directory is sys.path[0])
from godelgen import cli  # noqa: E402

tracer = spans.Tracer()
tracer.install()
try:
    status = cli.run(sys.argv[1:])
finally:
    tracer.restore()
sys.stdout.flush()
with os.fdopen(int(trace_fd), "w") as out:
    json.dump(tracer.raw(), out)
sys.exit(status)
